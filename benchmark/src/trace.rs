//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer (or one harness step that causes such
//! calls): its name (`layer.function`), start and end on a clock shared by
//! every thread of the run, the span that was open when it started (its
//! parent) and an op id shared by the spans of one workload operation.
//! Each thread records into its own thread-local [`Tracer`]; when tracing is
//! off, [`span`] costs one thread-local flag read.
//!
//! Per-name totals (calls, busy time, self time) are folded as spans close,
//! so they cover every span.  The spans themselves are kept for the JSONL
//! export up to [`SPAN_CAP`]; later ones are counted as dropped.
//! Self time is a span's duration minus the time its direct children cover
//! (spans nest strictly on one thread, so children never overlap).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept for the JSONL export, per thread and per merged trace.
pub const SPAN_CAP: usize = 100_000;

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct SpanRecord {
    /// Unique id (thread in the high bits).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Op id shared by the spans of one workload operation.
    pub op: u64,
    /// `layer.function`.
    pub name: &'static str,
    /// Start, in ns since the run's epoch.
    pub start_ns: u64,
    /// End, in ns since the run's epoch.
    pub end_ns: u64,
}

/// Per-name totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of span durations minus the time covered by direct children.
    pub self_ns: u64,
}

/// Everything one or more threads recorded.
#[derive(Debug, Default)]
pub struct Trace {
    /// Totals by span name.
    pub agg: BTreeMap<&'static str, Agg>,
    /// Kept spans, in close order per thread.
    pub spans: Vec<SpanRecord>,
    /// Spans closed after the cap was reached.
    pub dropped: u64,
}

impl Trace {
    /// Folds another thread's (or phase's) trace into this one.
    pub fn merge(&mut self, other: Trace) {
        for (name, agg) in other.agg {
            let entry = self.agg.entry(name).or_default();
            entry.calls += agg.calls;
            entry.total_ns += agg.total_ns;
            entry.self_ns += agg.self_ns;
        }
        let room = SPAN_CAP.saturating_sub(self.spans.len());
        self.dropped += other.dropped + other.spans.len().saturating_sub(room) as u64;
        self.spans.extend(other.spans.into_iter().take(room));
    }

    /// Totals of one span name (zero when it never ran).
    pub fn get(&self, name: &str) -> Agg {
        self.agg.get(name).copied().unwrap_or_default()
    }

    /// Sum of `total_ns` over every name starting with `prefix`.
    pub fn total_ns_with_prefix(&self, prefix: &str) -> u64 {
        self.agg
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, agg)| agg.total_ns)
            .sum()
    }

    /// Writes a header line and then one JSON object per kept span.
    pub fn write_jsonl(
        &self,
        out: &mut impl Write,
        workload: &str,
        seed: u64,
    ) -> std::io::Result<()> {
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":{},\"dropped\":{}}}",
            self.spans.len(),
            self.dropped
        )?;
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

struct Open {
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

struct Tracer {
    epoch: Instant,
    thread: u64,
    next_span: u64,
    next_op: u64,
    op: u64,
    stack: Vec<Open>,
    trace: Trace,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn new_op(&mut self) {
        self.next_op += 1;
        self.op = (self.thread << 48) | self.next_op;
    }

    fn enter(&mut self, name: &'static str) {
        if self.stack.is_empty() {
            self.new_op();
        }
        self.next_span += 1;
        let open = Open {
            id: (self.thread << 48) | self.next_span,
            parent: self.stack.last().map_or(0, |p| p.id),
            op: self.op,
            name,
            start_ns: 0,
            child_ns: 0,
        };
        self.stack.push(open);
        // Read the clock last, so the bookkeeping above is not charged to
        // the span.
        let now = self.now_ns();
        self.stack.last_mut().expect("just pushed").start_ns = now;
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("span exit without enter");
        let duration = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration;
        }
        let agg = self.trace.agg.entry(open.name).or_default();
        agg.calls += 1;
        agg.total_ns += duration;
        agg.self_ns += duration.saturating_sub(open.child_ns);
        if self.trace.spans.len() < SPAN_CAP {
            self.trace.spans.push(SpanRecord {
                id: open.id,
                parent: open.parent,
                op: open.op,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        } else {
            self.trace.dropped += 1;
        }
    }
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on the calling thread.  `thread` (≥ 1) tags span and
/// op ids; `epoch` is the clock origin shared by every thread of the run.
pub fn start(epoch: Instant, thread: u64) {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch,
            thread,
            next_span: 0,
            next_op: 0,
            op: 0,
            stack: Vec::new(),
            trace: Trace::default(),
        });
    });
    ACTIVE.with(|a| a.set(true));
}

/// Stops recording on the calling thread and returns what it recorded
/// (empty if it was not recording).
pub fn finish() -> Trace {
    ACTIVE.with(|a| a.set(false));
    TRACER
        .with(|t| t.borrow_mut().take())
        .map_or_else(Trace::default, |tracer| {
            assert!(
                tracer.stack.is_empty(),
                "trace finished inside an open span"
            );
            tracer.trace
        })
}

/// `true` while the calling thread records spans.
fn active() -> bool {
    ACTIVE.with(Cell::get)
}

/// Runs `f` inside a span named `name`.  A span opened with no enclosing
/// span starts a new op.
#[inline]
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !active() {
        return f();
    }
    TRACER.with(|t| t.borrow_mut().as_mut().expect("active tracer").enter(name));
    let out = f();
    TRACER.with(|t| t.borrow_mut().as_mut().expect("active tracer").exit());
    out
}

/// Starts a new op inside the current span: spans opened from now on share
/// its id.  `run_phased` marks each arrival this way (through the
/// clock advance that precedes the arrival's dispatch).
pub fn new_op() {
    if active() {
        TRACER.with(|t| t.borrow_mut().as_mut().expect("active tracer").new_op());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_ops_are_shared() {
        start(Instant::now(), 1);
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            new_op();
            span("inner", || {});
        });
        span("outer", || {});
        let trace = finish();
        let outer = trace.get("outer");
        let inner = trace.get("inner");
        assert_eq!((outer.calls, inner.calls), (2, 2));
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        // Close order: inner, inner, outer, outer.
        let [a, b, c, d] = [0, 1, 2, 3].map(|i| trace.spans[i]);
        assert_eq!((a.parent, b.parent), (c.id, c.id));
        assert_eq!(a.op, c.op);
        assert_ne!(b.op, c.op, "new_op gives later children a fresh op");
        assert_ne!(c.op, d.op, "each root span is its own op");
        assert_eq!(d.parent, 0);
        assert!(!active());
    }

    #[test]
    fn span_is_transparent_when_off() {
        assert!(!active());
        assert_eq!(span("x", || 7), 7);
        assert!(finish().agg.is_empty());
    }
}
