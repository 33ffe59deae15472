//! `serve_mixed`: snapshot reads while a writer republishes.
//!
//! A 2k-peer BATON exports a routing snapshot into a `SnapshotCell`.  Two
//! threads then run for the measured time.  The reader loops over fixed-size
//! batches: `refresh`, then exact and range queries (4:1) answered by
//! `RoutingSnapshot::{exact,range}`; half of its exact keys are stored keys
//! drawn Zipf θ = 1.0.  The writer runs closed-loop cycles: a join or a
//! leave (alternating), `routing_snapshot()`, `publish`.  Staleness is the
//! time from the writer's join/leave returning to the first reader batch
//! that runs on the snapshot holding it.  The measured time is cut into
//! segments, and each segment runs on a fresh set-up, so the set-ups whose
//! median is `setup_s` are spread over the whole run rather than bunched
//! before it.  A traced run spends half the time in these untraced segments,
//! then the other half in one traced phase on the last set-up.
//!
//! Why 2k peers: the reader's working set (snapshot, query stream, oracle)
//! must fit the core's private L2.  At 10k the snapshot alone is 4.6 MB and
//! lives in the L3 the host shares with other tenants; the reader's speed
//! then followed their load, and over six to ten seeds the quartile spread
//! of its throughput was 0.19–0.26 of the median (0.05–0.17 at 2k).  The
//! export is quadratic in N today, so at 2k it takes ~30 ms and the writer
//! publishes ~25 times a second, still spending nearly all its cycle
//! exporting.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use baton_net::{
    Overlay, RoutingSnapshot, ServeCounters, ServeStatus, SimRng, SnapshotCell, SnapshotReader,
};

use crate::common::{
    build_and_load, class_metrics, median, peak_rss_mb, query_stream, ratio, setup_metrics, timed,
    trace_metrics, Query, RunConfig, SetupTimes, StoredKeys,
};
use crate::oracle::{Checker, KeyOracle};
use crate::report::{Outcome, BATON_LINKS};
use crate::trace::{self, Trace};
use crate::wrapper::{self, Class, Tally, Timed};

/// Size of the `serve_mixed` workload.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Peers.
    pub n: usize,
    /// Queries per reader batch.
    pub batch: usize,
    /// Queries in the reader's stream (replayed cyclically).
    pub stream: usize,
    /// One answer in this many is checked against the oracle.
    pub check_every: usize,
    /// Measured segments per run.
    pub segments: usize,
    /// Set-ups before each segment (the last one is measured).
    pub setups: usize,
}

impl Params {
    /// The benchmark's size.
    pub const FULL: Params = Params {
        n: 2_000,
        batch: 1024,
        stream: 1 << 16,
        check_every: 64,
        segments: 6,
        setups: 7,
    };
}

/// What one measured phase produced.
#[derive(Default)]
struct Phase {
    queries: u64,
    reader_s: f64,
    batch_ns: Vec<u64>,
    exact: ServeCounters,
    range: ServeCounters,
    refreshes: u64,
    /// Staleness samples, ms.
    staleness_ms: Vec<f64>,
    publishes: u64,
    writer_s: f64,
    commit_errors: u64,
    lost_items: u64,
    tally: Tally,
    messages: u64,
    snapshot_bytes: u64,
    checker: Checker,
    bad_status: u64,
    trace: Trace,
}

impl Phase {
    /// Adds the counts and samples of a later phase.
    fn absorb(&mut self, other: Phase) {
        self.queries += other.queries;
        self.reader_s += other.reader_s;
        self.batch_ns.extend(other.batch_ns);
        self.exact.merge(&other.exact);
        self.range.merge(&other.range);
        self.refreshes += other.refreshes;
        self.staleness_ms.extend(other.staleness_ms);
        self.publishes += other.publishes;
        self.writer_s += other.writer_s;
        self.commit_errors += other.commit_errors;
        self.lost_items += other.lost_items;
        wrapper::add(&mut self.tally, other.tally);
        self.messages += other.messages;
        self.snapshot_bytes = self.snapshot_bytes.max(other.snapshot_bytes);
        self.checker.checked += other.checker.checked;
        self.checker.wrong += other.checker.wrong;
        self.bad_status += other.bad_status;
        self.trace.merge(other.trace);
    }
}

/// One set-up: the loaded overlay, its oracle and read stream, and the cell
/// holding its first exported snapshot.
struct Served {
    overlay: Timed,
    oracle: KeyOracle,
    stream: Vec<Query>,
    cell: Arc<SnapshotCell>,
    items: u64,
}

impl Served {
    /// Builds, loads, generates the stream and exports the first snapshot.
    fn set_up(p: Params, seed: u64) -> (Self, SetupTimes) {
        let mut times = SetupTimes::default();
        let (overlay, data) = build_and_load(p.n, seed, &mut times);
        let oracle = KeyOracle::new(&data);
        let (stream, gen_s) = timed(|| {
            let mut rng = SimRng::seeded(seed ^ 0x5E7E);
            let stored = StoredKeys::zipf(&oracle, 1.0, &mut rng);
            query_stream(p.stream, &stored, &mut rng)
        });
        times.gen_s = gen_s;
        let overlay = Timed::new(overlay);
        let (cell, export_s) = timed(|| {
            let snapshot = overlay.routing_snapshot().expect("BATON exports snapshots");
            Arc::new(SnapshotCell::new(snapshot))
        });
        times.extra_s = export_s;
        let served = Served {
            overlay,
            oracle,
            stream,
            cell,
            items: data.len() as u64,
        };
        (served, times)
    }

    /// Counts one failure for each end-of-phase check the overlay fails:
    /// every loaded value still stored, and `validate()`.
    fn verify(&self, out: &mut Outcome) {
        let items_now = self.overlay.total_items() as u64;
        if items_now != self.items {
            out.failed += 1;
            out.notes
                .push(format!("total_items {items_now} != {} loaded", self.items));
        }
        if let Err(e) = self.overlay.validate() {
            out.failed += 1;
            out.notes.push(format!("validate failed: {e}"));
        }
    }
}

/// Runs the reader and the writer for `seconds`.
fn phase(
    p: Params,
    served: &mut Served,
    cursor: &mut usize,
    checker: Checker,
    seconds: f64,
    tracing: Option<Instant>,
) -> Phase {
    let Served {
        overlay,
        oracle,
        stream,
        cell,
        items,
    } = served;
    let (stream, oracle, cell, items) = (&stream[..], &*oracle, &*cell, *items);
    let stop = AtomicBool::new(false);
    // Commit instant of each version the writer publishes, recorded before
    // the publish so a reader that sees the version finds it.
    let commits: Mutex<Vec<(u64, Instant)>> = Mutex::new(Vec::new());
    let start_cursor = *cursor;
    let mut out = Phase::default();
    let (reader, seen) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            if let Some(epoch) = tracing {
                trace::start(epoch, 2);
            }
            let mut r = Reader {
                view: SnapshotReader::new(Arc::clone(cell)),
                exact: ServeCounters::default(),
                range: ServeCounters::default(),
                checker,
                bad_status: 0,
                cursor: start_cursor,
                batch_ns: Vec::new(),
            };
            let mut seen = Vec::new();
            let mut version = r.view.snapshot().version();
            let started = Instant::now();
            loop {
                let stopping = stop.load(Ordering::Acquire);
                let batch_start = Instant::now();
                trace::span("bench.reader.batch", || {
                    trace::span("baton-net.serve.refresh", || r.view.refresh());
                    let now = r.view.snapshot().version();
                    if now != version {
                        seen.push((now, Instant::now()));
                        version = now;
                    }
                    r.batch(p, stream, oracle);
                });
                r.batch_ns.push(batch_start.elapsed().as_nanos() as u64);
                if stopping {
                    break;
                }
            }
            let reader_s = started.elapsed().as_secs_f64();
            (r, reader_s, trace::finish(), seen)
        });

        // The writer runs on this thread: the overlay is not `Send`.
        if let Some(epoch) = tracing {
            trace::start(epoch, 1);
        }
        let sent = overlay.stats().total_sent();
        let started = Instant::now();
        let deadline = seconds;
        while started.elapsed().as_secs_f64() < deadline || out.publishes == 0 {
            trace::span("bench.writer.cycle", || {
                let commit = if out.publishes % 2 == 0 {
                    overlay.join_random()
                } else {
                    overlay.leave_random()
                };
                let committed = Instant::now();
                out.commit_errors += u64::from(commit.is_err());
                commits
                    .lock()
                    .expect("commit log poisoned")
                    .push((cell.version() + 1, committed));
                let snapshot: RoutingSnapshot =
                    overlay.routing_snapshot().expect("BATON exports snapshots");
                if snapshot.total_items() != items {
                    out.lost_items += 1;
                }
                out.snapshot_bytes = snapshot.estimated_bytes();
                trace::span("baton-net.serve.publish", || cell.publish(snapshot));
                out.publishes += 1;
            });
        }
        out.writer_s = started.elapsed().as_secs_f64();
        out.messages = overlay.stats().total_sent() - sent;
        out.trace = trace::finish();
        stop.store(true, Ordering::Release);
        let (r, reader_s, trace, seen) = reader.join().expect("reader thread panicked");
        out.trace.merge(trace);
        out.reader_s = reader_s;
        (r, seen)
    });
    out.tally = overlay.take_tally();
    let commits = commits.into_inner().expect("commit log poisoned");
    for (version, at) in seen {
        if let Some((_, committed)) = commits.iter().find(|(v, _)| *v == version) {
            out.staleness_ms
                .push(at.duration_since(*committed).as_secs_f64() * 1e3);
        }
    }
    *cursor = reader.cursor;
    out.queries = reader.exact.queries + reader.range.queries;
    out.batch_ns = reader.batch_ns;
    out.refreshes = reader.view.refreshes;
    out.exact = reader.exact;
    out.range = reader.range;
    out.checker = reader.checker;
    out.bad_status = reader.bad_status;
    out
}

/// The reader thread's state.
struct Reader {
    view: SnapshotReader,
    exact: ServeCounters,
    range: ServeCounters,
    checker: Checker,
    bad_status: u64,
    cursor: usize,
    batch_ns: Vec<u64>,
}

impl Reader {
    /// Answers one batch from the current snapshot, checking a fixed sample
    /// of the answers.
    fn batch(&mut self, p: Params, stream: &[Query], oracle: &KeyOracle) {
        let snapshot = self.view.snapshot();
        for _ in 0..p.batch {
            let query = stream[self.cursor % stream.len()];
            let hint = (self.cursor as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            self.cursor += 1;
            let answer = match query {
                Query::Exact(key) => trace::span("baton-net.serve.exact", || {
                    snapshot.exact(key, hint, &mut self.exact)
                }),
                Query::Range(low, high) => trace::span("baton-net.serve.range", || {
                    snapshot.range(low, high, hint, &mut self.range)
                }),
            };
            if answer.status != ServeStatus::Ok {
                self.bad_status += 1;
            }
            if self.cursor.is_multiple_of(p.check_every) {
                self.checker.check(answer.matches, query.expected(oracle));
            }
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, p: Params) -> Outcome {
    let epoch = Instant::now();
    let mut out = Outcome::default();
    let segments = p.segments.max(1);
    let untraced_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let mut setups = Vec::new();
    let mut plain = Phase::default();
    let mut cursor = 0usize;
    let mut served = None;
    for segment in 0..segments {
        for _ in 0..p.setups.max(1) {
            drop(served.take());
            let (fresh, times) = Served::set_up(p, cfg.seed);
            setups.push(times);
            served = Some(fresh);
        }
        let served = served.as_mut().expect("at least one set-up");
        let checker = Checker::new(cfg.inject_wrong_answer && segment == 0);
        let seconds = untraced_s / segments as f64;
        plain.absorb(phase(p, served, &mut cursor, checker, seconds, None));
        served.verify(&mut out);
    }
    let mut served = served.expect("at least one segment");
    let traced = cfg.trace.then(|| {
        let seconds = cfg.seconds / 2.0;
        let t = phase(
            p,
            &mut served,
            &mut cursor,
            Checker::new(false),
            seconds,
            Some(epoch),
        );
        served.verify(&mut out);
        t
    });
    let state_bytes = ratio(
        served.overlay.estimated_state_bytes() as f64,
        served.overlay.node_count() as f64,
    );

    for phase in std::iter::once(&plain).chain(traced.as_ref()) {
        out.attempted += phase.queries + phase.publishes;
        out.failed +=
            phase.checker.wrong + phase.bad_status + phase.commit_errors + phase.lost_items;
    }
    let batch_us: Vec<f64> = plain.batch_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let read_rate = plain.queries as f64 / plain.reader_s;
    out.set(
        "setup_s",
        median(&setups.iter().map(SetupTimes::total).collect::<Vec<_>>()),
    );
    out.set("ops_per_s", read_rate);
    out.set("op_p50_us", median(&batch_us) / p.batch as f64);
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("read_batch_p50_us", median(&batch_us));
    out.set("publish_per_s", plain.publishes as f64 / plain.writer_s);
    out.set("staleness_p50_ms", median(&plain.staleness_ms));
    out.set(
        "failed_frac",
        ratio(out.failed as f64, out.attempted as f64),
    );
    out.notes.push(format!(
        "{} segments; reader: {} queries in {} batches; writer: {} publishes, staleness p50 {:.1} ms over {} samples; {} answers checked, {} wrong",
        segments,
        plain.queries,
        plain.batch_ns.len(),
        plain.publishes,
        out.get("staleness_p50_ms"),
        plain.staleness_ms.len(),
        plain.checker.checked,
        plain.checker.wrong
    ));

    if let Some(t) = traced {
        setup_metrics(&mut out, &setups);
        class_metrics(&mut out, &t.tally, &t.tally);
        trace_metrics(&mut out, &t.trace);
        out.set("baton-core.state_bytes_per_peer", state_bytes);
        let mean = |name: &str, scale: f64| {
            let agg = t.trace.get(name);
            ratio(agg.total_ns as f64, agg.calls as f64) / scale
        };
        out.set(
            "baton-net.serve.export_ms",
            mean("baton-net.serve.export", 1e6),
        );
        out.set(
            "baton-net.serve.publish_us",
            mean("baton-net.serve.publish", 1e3),
        );
        out.set(
            "baton-net.serve.refresh_ns",
            mean("baton-net.serve.refresh", 1.0),
        );
        out.set(
            "baton-net.serve.exact_ns",
            mean("baton-net.serve.exact", 1.0),
        );
        out.set(
            "baton-net.serve.range_ns",
            mean("baton-net.serve.range", 1.0),
        );
        out.set("baton-net.serve.refreshes", t.refreshes as f64);
        let commits = [Class::Join, Class::Leave].map(|c| &t.tally[c as usize]);
        out.set(
            "baton-core.serve_commit_us",
            ratio(
                commits.iter().map(|c| c.busy_ns).sum::<u64>() as f64 / 1e3,
                commits.iter().map(|c| c.calls).sum::<u64>() as f64,
            ),
        );
        out.set("baton-net.messages", t.messages as f64);
        let busy: u64 = t.tally.iter().map(|c| c.busy_ns).sum();
        out.set(
            "baton-net.ns_per_msg",
            ratio(busy as f64, t.messages as f64),
        );
        let mut all = t.exact.clone();
        all.merge(&t.range);
        out.set("baton-net.serve.hops_per_query", all.mean_hops());
        out.set(
            "baton-net.serve.slots_per_range",
            ratio(t.range.slots_swept as f64, t.range.queries as f64),
        );
        out.set("baton-net.serve.failover", all.failover as f64);
        out.set("baton-net.serve.unavailable", all.unavailable as f64);
        for kind in BATON_LINKS {
            out.set(
                format!("baton-net.serve.hops.{}", kind.name()),
                ratio(all.hops_by_kind[kind.index()] as f64, all.queries as f64),
            );
        }
        out.set("baton-net.serve.snapshot_mb", t.snapshot_bytes as f64 / 1e6);
        let traced_rate = t.queries as f64 / t.reader_s;
        out.set("bench.trace_overhead", 1.0 - ratio(traced_rate, read_rate));
        let export = t.trace.get("baton-net.serve.export").total_ns as f64;
        let cycle = t.trace.get("bench.writer.cycle").total_ns as f64;
        out.set("bench.attributed_frac", ratio(export, cycle));
        out.notes.push(format!(
            "snapshot export is {:.1}% of the writer cycle",
            100.0 * ratio(export, cycle)
        ));
        out.trace = Some(t.trace);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Params = Params {
        n: 400,
        batch: 64,
        stream: 4_096,
        check_every: 4,
        segments: 2,
        setups: 2,
    };

    fn config(trace: bool, inject_wrong_answer: bool) -> RunConfig {
        RunConfig {
            seed: 9,
            seconds: 0.2,
            trace,
            inject_wrong_answer,
        }
    }

    #[test]
    fn served_answers_match_the_oracle_while_the_writer_republishes() {
        let out = run(&config(true, false), SMALL);
        assert!(out.correct(), "{:?}", out.notes);
        assert!(out.get("publish_per_s") > 0.0);
        assert!(out.get("staleness_p50_ms") > 0.0, "{:?}", out.notes);
        assert!(out.get("baton-net.serve.refreshes") > 0.0);
        assert!(out.get("baton-net.serve.hops_per_query") > 0.0);
        assert!(out.get("baton-core.join.calls") > 0.0);
        let trace = out.trace.expect("traced run");
        assert!(trace.get("bench.reader.batch").calls > 0);
        assert!(trace.get("baton-net.serve.export").calls > 0);
    }

    #[test]
    fn an_injected_wrong_answer_is_caught() {
        let out = run(&config(false, true), SMALL);
        assert_eq!(out.failed, 1, "{:?}", out.notes);
        assert!(out.get("failed_frac") > 0.0);
    }
}
