//! The [`NetMessage`] trait implemented by every protocol's payload type.

/// Trait implemented by protocol message payloads so the simulator can
/// classify traffic without knowing the concrete protocol.
///
/// The `kind` string is used as a statistics bucket; it should be a small,
/// fixed set of labels (e.g. `"join.request"`, `"search.exact"`).
pub trait NetMessage {
    /// Statistics bucket this message belongs to.
    fn kind(&self) -> &'static str;

    /// Approximate payload size in bytes, charged to the byte counters of
    /// [`MessageStats`](crate::stats::MessageStats).  The default is a
    /// conservative fixed estimate; protocols can override it for realism.
    fn approximate_size(&self) -> usize {
        64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_approximate_size_is_nonzero() {
        #[derive(Clone, Debug)]
        struct Plain;
        impl NetMessage for Plain {
            fn kind(&self) -> &'static str {
                "plain"
            }
        }
        assert!(Plain.approximate_size() > 0);
    }
}
