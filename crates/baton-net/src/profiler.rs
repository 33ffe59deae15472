//! Runtime-toggled scoped-counter/timer profiler for hot-path attribution.
//!
//! The simulator's outputs are deterministic, but its *wall-clock cost* is
//! not self-describing: a churn run at N=100k spends its time somewhere in
//! join/leave/failure handling, stats retirement, or bookkeeping, and
//! per-row harness timings are too coarse to say where.  This module gives
//! every crate in the workspace a zero-setup way to attribute time and
//! event counts to named scopes:
//!
//! ```
//! baton_net::profiler::set_enabled(true);
//! {
//!     let _g = baton_net::profiler::scope("join.locate");
//!     // ... work measured until `_g` drops ...
//! }
//! baton_net::profiler::count("join.hops", 3);
//! baton_net::profiler::set_enabled(false);
//! assert!(baton_net::profiler::snapshot()
//!     .iter()
//!     .any(|(name, count, _)| *name == "join.hops" && *count == 3));
//! ```
//!
//! The profiler is **off** by default: a disabled [`scope`] or [`count`]
//! costs one relaxed atomic load and records nothing, so the deterministic
//! outputs are unchanged.  Once [`set_enabled`] turns it on, scopes
//! accumulate `(count, total ns)` into a process-global table that
//! [`snapshot`] reads as a stable, name-sorted list.  Wall time feeding the
//! table comes from [`std::time::Instant`] and is explicitly *not* part of
//! any deterministic output: the `perf` harness writes it only into the
//! `"observability"."scopes"` section of its report.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Whether scopes record.  `Relaxed` suffices: the flag publishes no other
/// data (the table has its own lock), and a scope that races a toggle
/// either records or does not.
static ENABLED: AtomicBool = AtomicBool::new(false);

static TABLE: Mutex<BTreeMap<&'static str, (u64, u64)>> = Mutex::new(BTreeMap::new());

fn with_table<R>(f: impl FnOnce(&mut BTreeMap<&'static str, (u64, u64)>) -> R) -> R {
    let mut guard = TABLE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    f(&mut guard)
}

/// Timer guard: adds one count and the elapsed nanoseconds on drop, if the
/// profiler was enabled when the scope started.
pub struct ScopeGuard {
    started: Option<(&'static str, Instant)>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some((name, start)) = self.started {
            let ns = start.elapsed().as_nanos() as u64;
            with_table(|t| {
                let entry = t.entry(name).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += ns;
            });
        }
    }
}

/// Turns recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether scopes and counters currently record.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts a named timer scope; the returned guard records `(count += 1,
/// ns += elapsed)` under `name` when dropped.  Records nothing while the
/// profiler is disabled.
#[inline(always)]
pub fn scope(name: &'static str) -> ScopeGuard {
    ScopeGuard {
        started: enabled().then(|| (name, Instant::now())),
    }
}

/// Adds `n` to the event counter under `name` (no timing).  Records
/// nothing while the profiler is disabled.
#[inline(always)]
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        with_table(|t| t.entry(name).or_insert((0, 0)).0 += n);
    }
}

/// The accumulated `(name, count, total_ns)` rows, sorted by name.
pub fn snapshot() -> Vec<(&'static str, u64, u64)> {
    with_table(|t| t.iter().map(|(name, &(c, ns))| (*name, c, ns)).collect())
}

/// Clears all accumulated counters.
pub fn reset() {
    with_table(|t| t.clear());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profiler state is process-global, so the off, on and reset steps
    /// run in order inside one test rather than racing across several.
    #[test]
    fn scopes_record_only_while_enabled_and_reset_clears_them() {
        let row = |name: &str| snapshot().into_iter().find(|(n, _, _)| *n == name);

        // Off (the default): scopes and counters record nothing.
        assert!(!enabled());
        {
            let _g = scope("test.scope");
        }
        count("test.counter", 10);
        assert_eq!(row("test.scope"), None);
        assert_eq!(row("test.counter"), None);

        // On: scopes and counters accumulate, and total time only grows.
        set_enabled(true);
        {
            let _g = scope("test.scope");
            std::hint::black_box(1 + 1);
        }
        count("test.counter", 5);
        count("test.counter", 2);
        let first = row("test.scope").expect("scope recorded");
        assert_eq!(first.1, 1);
        assert_eq!(row("test.counter"), Some(("test.counter", 7, 0)));
        {
            let _g = scope("test.scope");
        }
        let second = row("test.scope").expect("scope recorded");
        assert_eq!(second.1, 2);
        assert!(second.2 >= first.2, "total ns must be monotonic");
        count("aa.counter", 1);
        let names: Vec<_> = snapshot().into_iter().map(|(n, _, _)| n).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "name-sorted");
        set_enabled(false);

        // Reset clears every row.
        reset();
        assert!(snapshot().is_empty());
    }
}
