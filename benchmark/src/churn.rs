//! `churn`: structural writes beside reads under replication.
//!
//! A 100k-peer BATON, bulk-built and loaded, with replication k = 2 and
//! log-normal links (median 40 ms, σ 0.5), runs the `latency_under_churn`
//! op mix (10% of the peers churn per virtual minute; search, range and
//! insert at 4:1:2) for [`Params::minutes`] virtual minutes.  `run_phased`
//! dispatches it as an open loop in virtual time from one thread; in wall
//! time it is a batch.  Each repetition sets up afresh from the seed, so
//! every repetition of a run does the same work: its counts must agree, and
//! timings are medians over repetitions.  A traced run alternates traced and
//! untraced repetitions.

use std::collections::BTreeMap;
use std::time::Instant;

use baton_net::{Overlay, SimRng, SimTime};
use baton_sim::scenario::specs::latency_under_churn_plan;
use baton_sim::scenario::ScenarioPlan;
use baton_workload::{run_phased, ArrivalEvent, FaultPlan, OpClass, OpenLoopOutcome};

use crate::common::{
    build_and_load, class_metrics, median, peak_rss_mb, percentile_us, profile, ratio,
    setup_metrics, timed, trace_metrics, RunConfig, SetupTimes,
};
use crate::report::Outcome;
use crate::trace::{self, Trace};
use crate::wrapper::{self, Tally, Timed};

/// Replication degree.
pub const K: usize = 2;

/// Size of the `churn` workload.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Peers.
    pub n: usize,
    /// Virtual minutes of the op mix per repetition.
    pub minutes: u64,
}

impl Params {
    /// The benchmark's size.
    pub const FULL: Params = Params {
        n: 100_000,
        minutes: 3,
    };
}

/// One repetition's inputs, set up and ready to run.
pub struct Prepared {
    /// Values loaded.
    pub loaded: usize,
    plan: ScenarioPlan,
    events: Vec<ArrivalEvent>,
    rng: SimRng,
    /// Set-up wall times.
    pub times: SetupTimes,
}

/// Builds, loads and replicates the overlay, installs the latency model and
/// draws the arrival schedule, seeded the way the scenario engine seeds
/// `latency_under_churn`.
pub fn prepare(p: Params, seed: u64) -> (Box<dyn Overlay>, Prepared) {
    let mut times = SetupTimes::default();
    let (mut overlay, data) = build_and_load(p.n, seed, &mut times);
    let ((), replicate_s) = timed(|| overlay.set_replication(K).expect("BATON supports k = 2"));
    times.load_s += replicate_s;
    let ((plan, events, rng), gen_s) = timed(|| {
        let mut plan = latency_under_churn_plan(&profile(p.n, seed));
        plan.workload.phases[0].duration = SimTime::from_secs(60 * p.minutes);
        let rng = SimRng::seeded(seed ^ 0x0BE7);
        let events = plan.workload.schedule(&mut rng.derive(1));
        (plan, events, rng)
    });
    times.gen_s = gen_s;
    overlay.set_latency_model(plan.latency.build(seed ^ 0x1A7E));
    let prepared = Prepared {
        loaded: data.len(),
        plan,
        events,
        rng,
        times,
    };
    (overlay, prepared)
}

impl Prepared {
    /// Runs the schedule against the overlay it was prepared with (wrapped
    /// or bare).
    pub fn run_on(&mut self, overlay: &mut dyn Overlay) -> OpenLoopOutcome {
        let min_nodes = self.plan.n / 2;
        trace::span("baton-workload.run_phased", || {
            run_phased(
                overlay,
                &self.events,
                &self.plan.workload,
                &FaultPlan::none(),
                &mut self.rng,
                min_nodes,
            )
        })
        .expect("the churn mix has no operation that can fail")
    }
}

/// What must repeat exactly across repetitions of one seed.
#[derive(Clone, Debug, PartialEq)]
pub struct RunDigest {
    executed: BTreeMap<&'static str, u64>,
    messages: u64,
    latencies: BTreeMap<&'static str, Vec<SimTime>>,
    total_items: usize,
}

impl RunDigest {
    /// The repeatable part of a finished repetition.
    pub fn of(outcome: &OpenLoopOutcome, overlay: &dyn Overlay) -> Self {
        Self {
            executed: outcome.executed.clone(),
            messages: outcome.messages,
            latencies: outcome.latencies.clone(),
            total_items: overlay.total_items(),
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, p: Params) -> Outcome {
    let epoch = Instant::now();
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut rates = (Vec::new(), Vec::new());
    let mut samples = Vec::new();
    let mut traced = Tally::default();
    let mut counts = None;
    let mut first: Option<RunDigest> = None;
    let mut spans = Trace::default();
    let mut traced_wall = 0.0;
    let mut measured = 0.0;
    let mut reps = 0usize;
    let min_reps = if cfg.trace { 4 } else { 2 };
    while measured < cfg.seconds || reps < min_reps {
        let (bare, mut rep) = prepare(p, cfg.seed);
        setups.push(rep.times);
        let mut overlay = Timed::new(bare);
        let state_bytes = ratio(
            overlay.estimated_state_bytes() as f64,
            overlay.node_count() as f64,
        );
        let sent = overlay.stats().total_sent();
        let lost = overlay.stats().total_failed();
        let tracing = cfg.trace && reps.is_multiple_of(2);
        if tracing {
            trace::start(epoch, 1);
        }
        let (outcome, wall) = timed(|| rep.run_on(&mut overlay));
        if tracing {
            spans.merge(trace::finish());
        }
        let tally = overlay.take_tally();
        let ops = outcome.total_executed();
        measured += wall;
        reps += 1;

        // Oracles: nothing unavailable, every key loaded or inserted still
        // stored exactly once, a valid structure, and the same run as the
        // first repetition.
        out.attempted += ops + outcome.total_unavailable();
        out.failed += outcome.total_unavailable();
        let inserted = outcome
            .executed
            .get(OpClass::Insert.name())
            .copied()
            .unwrap_or(0);
        let mut expected_items = rep.loaded + inserted as usize;
        if cfg.inject_wrong_answer && reps == 1 {
            expected_items += 1;
        }
        if overlay.total_items() != expected_items {
            out.failed += 1;
            out.notes.push(format!(
                "total_items {} != {} loaded + {} inserted",
                overlay.total_items(),
                rep.loaded,
                inserted
            ));
        }
        if let Err(e) = overlay.validate() {
            out.failed += 1;
            out.notes.push(format!("validate failed: {e}"));
        }
        let digest = RunDigest::of(&outcome, &overlay);
        match &first {
            None => {
                let search = outcome.summary(OpClass::Search);
                let ms = |t: Option<SimTime>| t.map_or(0.0, |t| t.as_micros() as f64 / 1e3);
                out.set("baton-net.sim_search_p50_ms", ms(search.map(|s| s.p50)));
                out.set("baton-net.sim_search_p99_ms", ms(search.map(|s| s.p99)));
                out.set(
                    "baton-net.messages",
                    (overlay.stats().total_sent() - sent) as f64,
                );
                out.set(
                    "baton-net.failed_deliveries",
                    (overlay.stats().total_failed() - lost) as f64,
                );
                out.set("baton-core.state_bytes_per_peer", state_bytes);
                counts = Some(tally.clone());
                first = Some(digest);
            }
            Some(first) if *first != digest => {
                out.failed += 1;
                out.notes
                    .push(format!("repetition {reps} diverged from the first"));
            }
            Some(_) => {}
        }
        let rate = ops as f64 / wall;
        if tracing {
            rates.1.push(rate);
            traced_wall += wall;
            wrapper::add(&mut traced, tally);
        } else {
            rates.0.push(rate);
            samples.extend(tally.iter().flat_map(|t| t.samples_ns.iter().copied()));
        }
    }

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
        "{reps} repetitions of {} virtual minutes at N = {}, k = {K}; ops/s untraced {:?}, traced {:?}",
        p.minutes, p.n, rates.0, rates.1
    ));

    if cfg.trace {
        setup_metrics(&mut out, &setups);
        class_metrics(&mut out, &traced, &counts.expect("at least one repetition"));
        trace_metrics(&mut out, &spans);
        let busy: u64 = traced.iter().map(|t| t.busy_ns).sum();
        let traced_reps = rates.1.len().max(1) as f64;
        out.set(
            "baton-net.ns_per_msg",
            ratio(busy as f64, out.get("baton-net.messages") * traced_reps),
        );
        let phased = spans.get("baton-workload.run_phased");
        out.set(
            "baton-workload.openloop.self_s",
            phased.self_ns as f64 / 1e9,
        );
        out.set(
            "bench.trace_overhead",
            1.0 - ratio(median(&rates.1), median(&rates.0)),
        );
        // The share that explains `ops_per_s`: time inside the six op
        // classes over the wall time of `run_phased`.
        let attributed = ratio(busy as f64 / 1e9, traced_wall);
        out.set("bench.attributed_frac", attributed);
        // A bookkeeping check only: `openloop.self_s` is `run_phased` minus
        // its direct children, which are the `baton-core.*` spans, so this
        // sum closes by construction up to the cost of the clock reads.
        let closure = ratio(
            (busy + (out.get("baton-core.other.busy_s") * 1e9) as u64 + phased.self_ns) as f64
                / 1e9,
            traced_wall,
        );
        out.notes.push(format!(
            "op-class busy time is {:.1}% of run_phased wall; with other calls and \
             openloop self time the spans close at {:.2}%",
            100.0 * attributed,
            100.0 * closure
        ));
        out.trace = Some(spans);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Params = Params {
        n: 2_000,
        minutes: 1,
    };

    #[test]
    fn the_wrapper_is_transparent() {
        let (mut bare, mut a) = prepare(SMALL, 5);
        let bare_outcome = a.run_on(&mut *bare);
        let (inner, mut b) = prepare(SMALL, 5);
        let mut wrapped = Timed::new(inner);
        let wrapped_outcome = b.run_on(&mut wrapped);
        assert!(bare_outcome.total_executed() > 1_000);
        assert_eq!(
            RunDigest::of(&bare_outcome, &*bare),
            RunDigest::of(&wrapped_outcome, &wrapped)
        );
        assert_eq!(bare.op_latencies(), wrapped.op_latencies());
        assert_eq!(bare.stats().total_sent(), wrapped.stats().total_sent());
        let calls: u64 = wrapped.tally.iter().map(|t| t.calls).sum();
        assert_eq!(calls, wrapped_outcome.total_executed());
    }

    fn config(trace: bool, inject_wrong_answer: bool) -> RunConfig {
        RunConfig {
            seed: 3,
            seconds: 0.0,
            trace,
            inject_wrong_answer,
        }
    }

    #[test]
    fn oracles_pass_and_an_injected_wrong_count_is_caught() {
        let out = run(&config(false, false), SMALL);
        assert!(out.correct(), "{:?}", out.notes);
        assert!(out.get("ops_per_s") > 0.0);
        let bad = run(&config(false, true), SMALL);
        assert_eq!(bad.failed, 1, "{:?}", bad.notes);
        assert!(bad.get("failed_frac") > 0.0);
    }

    #[test]
    fn traced_spans_account_for_run_phased() {
        let a = run(&config(true, false), SMALL);
        assert!(a.correct(), "{:?}", a.notes);
        let attributed = a.get("bench.attributed_frac");
        assert!((0.5..1.0).contains(&attributed), "{attributed}");
        let phased = a
            .trace
            .as_ref()
            .expect("traced run")
            .get("baton-workload.run_phased");
        let spans_s: f64 = wrapper::Class::ALL
            .iter()
            .map(|c| a.get(&format!("baton-core.{}.busy_s", c.name())))
            .sum::<f64>()
            + a.get("baton-core.other.busy_s")
            + a.get("baton-workload.openloop.self_s");
        let closure = spans_s / (phased.total_ns as f64 / 1e9);
        assert!((0.98..=1.02).contains(&closure), "{closure}");
        assert!(a.get("baton-core.join.calls") > 0.0);
        assert!(a.get("baton-net.sim_search_p50_ms") > 0.0);
        let b = run(&config(true, false), SMALL);
        for name in [
            "baton-core.join.msgs_per_op",
            "baton-core.fail.msgs_per_op",
            "baton-net.messages",
            "baton-net.sim_search_p50_ms",
            "baton-net.sim_search_p99_ms",
        ] {
            assert_eq!(a.get(name), b.get(name), "{name}");
        }
    }
}
