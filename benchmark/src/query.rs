//! `query`: routed exact and range reads on a 100k-peer BATON.
//!
//! One closed-loop caller sends a fixed stream of exact and range queries
//! (4:1) through the routed engine with zero-latency links (the count-only
//! figure path).  The stream is replayed in passes until the measured time
//! is spent: a first warm-up pass fills the caches and gives the counts that
//! repeat exactly for a seed (messages per op, hops by link kind), and every
//! later pass is timed.  A traced run alternates traced and untraced passes,
//! so both see the same overlay state.

use std::time::Instant;

use baton_net::{LinkKind, Overlay, SimRng, TraceConfig};

use crate::common::{
    build_and_load, class_metrics, median, peak_rss_mb, percentile_us, query_stream, ratio,
    setup_metrics, timed, trace_metrics, Query, RunConfig, SetupTimes, StoredKeys,
};
use crate::oracle::{Checker, KeyOracle};
use crate::report::{Outcome, BATON_LINKS};
use crate::trace::{self, Trace};
use crate::wrapper::{self, Tally, Timed};

/// Size of the `query` workload.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Peers.
    pub n: usize,
    /// Queries per pass.
    pub pass_ops: usize,
    /// Set-ups per run (the last one is measured).
    pub setups: usize,
}

impl Params {
    /// The benchmark's size.
    pub const FULL: Params = Params {
        n: 100_000,
        pass_ops: 20_000,
        setups: 5,
    };
}

/// Sends one pass of the stream and records each answer's count of
/// matches in `answers` (`u64::MAX` for an error).
fn pass(overlay: &mut Timed, stream: &[Query], answers: &mut Vec<u64>) {
    answers.clear();
    for &query in stream {
        trace::span("bench.query.op", || {
            let answer = match query {
                Query::Exact(key) => overlay.search_exact(key),
                Query::Range(low, high) => overlay.search_range(low, high),
            };
            answers.push(answer.map_or(u64::MAX, |cost| cost.matches as u64));
        });
    }
}

/// Checks every answer of a pass against the oracle, outside its timing.
fn check(stream: &[Query], answers: &[u64], oracle: &KeyOracle, checker: &mut Checker) {
    for (&query, &got) in stream.iter().zip(answers) {
        checker.check(got, query.expected(oracle));
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, p: Params) -> Outcome {
    let epoch = Instant::now();
    let mut out = Outcome::default();
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut prepared = None;
    for _ in 0..p.setups.max(1) {
        drop(prepared.take());
        let mut times = SetupTimes::default();
        let (overlay, data) = build_and_load(p.n, cfg.seed, &mut times);
        let (stream, gen_s) = timed(|| {
            let stored = StoredKeys::Uniform(data.iter().map(|&(key, _)| key).collect());
            query_stream(p.pass_ops, &stored, &mut SimRng::seeded(cfg.seed ^ 0x9E5D))
        });
        times.gen_s = gen_s;
        setups.push(times);
        prepared = Some((Timed::new(overlay), data, stream));
    }
    let (mut overlay, data, stream) = prepared.expect("at least one set-up");
    let oracle = KeyOracle::new(&data);
    drop(data);
    let mut checker = Checker::new(cfg.inject_wrong_answer);
    let mut answers = Vec::with_capacity(stream.len());

    // Warm-up pass: its counts repeat exactly for the seed.
    if cfg.trace {
        overlay.set_trace(TraceConfig::new(p.pass_ops));
    }
    let sent = overlay.stats().total_sent();
    let lost = overlay.stats().total_failed();
    pass(&mut overlay, &stream, &mut answers);
    check(&stream, &answers, &oracle, &mut checker);
    let counts = overlay.take_tally();
    let warm_messages = overlay.stats().total_sent() - sent;
    let warm_failed = overlay.stats().total_failed() - lost;
    let route = overlay.take_trace();
    overlay.stats_mut().retire_finished();

    let mut untraced = Tally::default();
    let mut traced = Tally::default();
    let mut rates = (Vec::new(), Vec::new());
    let mut traced_wall = 0.0;
    let mut traced_messages = 0u64;
    let mut spans = Trace::default();
    let mut measured = 0.0;
    let mut passes = 0usize;
    while measured < cfg.seconds || passes < 2 {
        let tracing = cfg.trace && passes.is_multiple_of(2);
        let sent = overlay.stats().total_sent();
        if tracing {
            trace::start(epoch, 1);
        }
        let ((), wall) = timed(|| pass(&mut overlay, &stream, &mut answers));
        if tracing {
            spans.merge(trace::finish());
        }
        check(&stream, &answers, &oracle, &mut checker);
        let tally = overlay.take_tally();
        // Drop the finished ops' statistics, as `run_phased` does,
        // so later passes do not run on an ever larger stats table.
        overlay.stats_mut().retire_finished();
        let rate = stream.len() as f64 / wall;
        if tracing {
            wrapper::add(&mut traced, tally);
            rates.1.push(rate);
            traced_wall += wall;
            traced_messages += overlay.stats().total_sent() - sent;
        } else {
            wrapper::add(&mut untraced, tally);
            rates.0.push(rate);
        }
        measured += wall;
        passes += 1;
    }

    out.attempted = checker.checked;
    out.failed = checker.wrong;
    let samples: Vec<u64> = untraced
        .iter()
        .flat_map(|t| t.samples_ns.iter().copied())
        .collect();
    out.set(
        "setup_s",
        median(&setups.iter().map(SetupTimes::total).collect::<Vec<_>>()),
    );
    out.set("ops_per_s", median(&rates.0));
    out.set("op_p50_us", percentile_us(&samples, 0.5));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set(
        "failed_frac",
        ratio(out.failed as f64, out.attempted as f64),
    );
    out.notes.push(format!(
        "{} passes of {} queries after a warm-up pass; {} answers checked, {} wrong; \
         queries/s per pass untraced {:.0?}, traced {:.0?}",
        passes, p.pass_ops, checker.checked, checker.wrong, rates.0, rates.1
    ));

    if cfg.trace {
        setup_metrics(&mut out, &setups);
        class_metrics(&mut out, &traced, &counts);
        trace_metrics(&mut out, &spans);
        out.set(
            "baton-core.state_bytes_per_peer",
            ratio(
                overlay.estimated_state_bytes() as f64,
                overlay.node_count() as f64,
            ),
        );
        out.set("baton-net.messages", warm_messages as f64);
        out.set("baton-net.failed_deliveries", warm_failed as f64);
        let busy: u64 = traced.iter().map(|t| t.busy_ns).sum();
        out.set(
            "baton-net.ns_per_msg",
            ratio(busy as f64, traced_messages as f64),
        );
        if let Some(route) = route {
            let by_kind = route.hop_counts_by_kind();
            for kind in BATON_LINKS {
                out.set(
                    format!("baton-net.hops.{}", kind.name()),
                    ratio(by_kind[kind.index()] as f64, route.len() as f64),
                );
            }
            let foreign: u64 = LinkKind::ALL
                .iter()
                .filter(|k| !BATON_LINKS.contains(k))
                .map(|k| by_kind[k.index()])
                .sum();
            if foreign > 0 {
                out.failed += 1;
                out.notes.push(format!(
                    "{foreign} hops tagged with another overlay's link kind"
                ));
            }
        }
        out.set(
            "bench.trace_overhead",
            1.0 - ratio(median(&rates.1), median(&rates.0)),
        );
        let read_ns =
            spans.get("baton-core.exact").total_ns + spans.get("baton-core.range").total_ns;
        let attributed = ratio(read_ns as f64 / 1e9, traced_wall);
        out.set("bench.attributed_frac", attributed);
        out.notes.push(format!(
            "exact+range busy time covers {:.1}% of the traced passes",
            100.0 * attributed
        ));
        out.trace = Some(spans);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Params = Params {
        n: 500,
        pass_ops: 500,
        setups: 2,
    };

    fn config(trace: bool, inject_wrong_answer: bool) -> RunConfig {
        RunConfig {
            seed: 11,
            seconds: 0.0,
            trace,
            inject_wrong_answer,
        }
    }

    #[test]
    fn every_answer_matches_the_oracle() {
        let out = run(&config(false, false), SMALL);
        assert!(out.correct(), "{:?}", out.notes);
        assert_eq!(out.attempted, 3 * 500);
        assert!(out.get("ops_per_s") > 0.0 && out.get("setup_s") > 0.0);
    }

    #[test]
    fn an_injected_wrong_answer_is_caught() {
        let out = run(&config(false, true), SMALL);
        assert_eq!(out.failed, 1);
        assert!(!out.correct());
        assert!(out.get("failed_frac") > 0.0);
    }

    #[test]
    fn traced_counts_repeat_exactly() {
        let a = run(&config(true, false), SMALL);
        let b = run(&config(true, false), SMALL);
        for name in [
            "baton-core.exact.msgs_per_op",
            "baton-core.range.msgs_per_op",
            "baton-core.range.nodes_per_op",
            "baton-net.messages",
            "baton-net.hops.routing_table",
            "baton-net.hops.adjacent",
        ] {
            assert_eq!(a.get(name), b.get(name), "{name}");
        }
        assert!(a.get("baton-core.exact.msgs_per_op") > 0.0);
        assert!(a.get("baton-net.hops.adjacent") > 0.0);
        assert!(a.get("bench.attributed_frac") > 0.5);
        assert!(a
            .trace
            .is_some_and(|t| t.get("bench.query.op").calls == 500));
    }
}
