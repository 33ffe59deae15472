//! Set-up, input streams and small statistics shared by the workloads.

use std::time::Instant;

use baton_net::{Overlay, SimRng};
use baton_sim::driver::load_overlay_direct;
use baton_sim::{reference_overlay, Profile};
use baton_workload::{KeyDistribution, DOMAIN_HIGH, DOMAIN_LOW};

use crate::oracle::KeyOracle;
use crate::report::Outcome;
use crate::trace::Trace;
use crate::wrapper::{Class, Tally};

/// How one run is driven.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Seed of every input the run generates.
    pub seed: u64,
    /// Measured time to spend (set-up excluded).
    pub seconds: f64,
    /// Traced run: per-layer metrics and spans.
    pub trace: bool,
    /// Corrupts the first checked answer (the oracle self-test).
    pub inject_wrong_answer: bool,
}

/// Stored values per peer: the paper's 1000 × N load scaled by 0.02.
pub const DATA_SCALE: f64 = 0.02;

/// Width of every range query: 0.1% of the key domain.
pub const RANGE_WIDTH: u64 = (DOMAIN_HIGH - DOMAIN_LOW) / 1000;

/// The experiment profile of an `n`-peer run: 20 uniform values per peer
/// and the paper's 1000 queries per virtual minute for the churn plan.
pub fn profile(n: usize, seed: u64) -> Profile {
    Profile {
        network_sizes: vec![n],
        repetitions: 1,
        data_scale: DATA_SCALE,
        query_scale: 1.0,
        churn_ops: 100,
        seed,
    }
}

/// Wall time of the set-up steps, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `build_bulk` (baton-sim).
    pub build_s: f64,
    /// `load_overlay_direct` and replica placement (baton-sim).
    pub load_s: f64,
    /// Input stream generation (baton-workload key draws and schedules).
    pub gen_s: f64,
    /// Work the workload adds to set-up (the first snapshot export).
    pub extra_s: f64,
}

impl SetupTimes {
    /// Everything set-up took.
    pub fn total(&self) -> f64 {
        self.build_s + self.load_s + self.gen_s + self.extra_s
    }
}

/// Records the medians of the set-up steps as per-layer metrics.
pub fn setup_metrics(out: &mut Outcome, setups: &[SetupTimes]) {
    let of = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    out.set("baton-sim.build_s", of(|t| t.build_s));
    out.set("baton-sim.load_s", of(|t| t.load_s));
    out.set("baton-workload.gen_s", of(|t| t.gen_s));
}

/// Records the per-class metrics of `timing` (a traced phase) with the
/// per-op counts of `counts` (a deterministic pass or repetition).
pub fn class_metrics(out: &mut Outcome, timing: &Tally, counts: &Tally) {
    for class in Class::ALL {
        let c = class.name();
        let t = &timing[class as usize];
        let k = &counts[class as usize];
        let ok = (k.calls - k.errors) as f64;
        out.set(format!("baton-core.{c}.calls"), t.calls as f64);
        out.set(format!("baton-core.{c}.busy_s"), t.busy_ns as f64 / 1e9);
        out.set(
            format!("baton-core.{c}.p99_us"),
            percentile_us(&t.samples_ns, 0.99),
        );
        out.set(
            format!("baton-core.{c}.msgs_per_op"),
            ratio(k.messages as f64, ok),
        );
        if class == Class::Range {
            out.set("baton-core.range.nodes_per_op", ratio(k.nodes as f64, ok));
        }
        if class == Class::Insert {
            out.set(
                "baton-core.insert.balance_msgs_per_op",
                ratio(k.balance_messages as f64, ok),
            );
        }
    }
}

/// Records `bench.self_s` and `baton-core.other.busy_s` from a trace.
pub fn trace_metrics(out: &mut Outcome, trace: &Trace) {
    let bench_self: u64 = trace
        .agg
        .iter()
        .filter(|(name, _)| name.starts_with("bench."))
        .map(|(_, agg)| agg.self_ns)
        .sum();
    out.set("bench.self_s", bench_self as f64 / 1e9);
    let class_ns: u64 = Class::ALL
        .iter()
        .map(|c| trace.get(&format!("baton-core.{}", c.name())).total_ns)
        .sum();
    let other = trace.total_ns_with_prefix("baton-core.") - class_ns;
    out.set("baton-core.other.busy_s", other as f64 / 1e9);
}

/// Runs `f` and returns its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Bulk-builds BATON with `n` peers and loads 20 uniform values per peer
/// directly into their owners.  Returns the overlay and the dataset.
pub fn build_and_load(
    n: usize,
    seed: u64,
    times: &mut SetupTimes,
) -> (Box<dyn Overlay>, Vec<(u64, u64)>) {
    let profile = profile(n, seed);
    let (mut overlay, build_s) = timed(|| reference_overlay().build_bulk(&profile, n, seed));
    let (data, load_s) =
        timed(|| load_overlay_direct(&profile, &mut *overlay, KeyDistribution::Uniform, seed));
    times.build_s = build_s;
    times.load_s = load_s;
    (overlay, data)
}

/// One read of a query stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// Exact match for a key.
    Exact(u64),
    /// Range `[low, high)`.
    Range(u64, u64),
}

impl Query {
    /// The oracle's answer.
    pub fn expected(self, oracle: &KeyOracle) -> u64 {
        match self {
            Query::Exact(key) => oracle.exact(key),
            Query::Range(low, high) => oracle.range(low, high),
        }
    }
}

/// How a stream picks the stored keys of its exact queries.
pub enum StoredKeys {
    /// Uniform over the stored values.
    Uniform(Vec<u64>),
    /// Zipf over the distinct stored keys, ranked in a seeded random order.
    Zipf {
        /// Distinct keys by rank.
        keys: Vec<u64>,
        /// Cumulative rank probabilities.
        cdf: Vec<f64>,
    },
}

impl StoredKeys {
    /// Zipf with exponent `theta` over the distinct keys of `oracle`.
    pub fn zipf(oracle: &KeyOracle, theta: f64, rng: &mut SimRng) -> Self {
        let mut keys = oracle.distinct();
        rng.shuffle(&mut keys);
        let mut cdf: Vec<f64> = (1..=keys.len())
            .map(|rank| 1.0 / (rank as f64).powf(theta))
            .collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for weight in &mut cdf {
            acc += *weight / total;
            *weight = acc;
        }
        StoredKeys::Zipf { keys, cdf }
    }

    fn draw(&self, rng: &mut SimRng) -> u64 {
        match self {
            StoredKeys::Uniform(keys) => keys[rng.index(keys.len())],
            StoredKeys::Zipf { keys, cdf } => {
                let u = rng.uniform_f64();
                keys[cdf.partition_point(|&c| c < u).min(keys.len() - 1)]
            }
        }
    }
}

/// `len` reads, exact and range at 4:1.  Half of the exact keys are stored
/// keys drawn from `stored`, the other half uniform over the domain; ranges
/// start uniformly and cover [`RANGE_WIDTH`].
pub fn query_stream(len: usize, stored: &StoredKeys, rng: &mut SimRng) -> Vec<Query> {
    (0..len)
        .map(|i| {
            if i % 5 == 4 {
                let low = rng.uniform_u64(DOMAIN_LOW, DOMAIN_HIGH - RANGE_WIDTH);
                Query::Range(low, low + RANGE_WIDTH)
            } else if rng.chance(0.5) {
                Query::Exact(stored.draw(rng))
            } else {
                Query::Exact(rng.uniform_u64(DOMAIN_LOW, DOMAIN_HIGH))
            }
        })
        .collect()
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The smallest value such that at least `q` of the values are ≤ it (0 when
/// empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Percentile of nanosecond samples, in microseconds.
pub fn percentile_us(samples_ns: &[u64], q: f64) -> f64 {
    let values: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    percentile(&values, q)
}

/// Peak resident set size of this process so far, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_follow_the_rank_convention() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&values), 50.0);
        assert_eq!(percentile(&values, 0.99), 99.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn streams_mix_four_exact_to_one_range_and_hit_stored_keys() {
        let data: Vec<(u64, u64)> = (0..1000).map(|i| (DOMAIN_LOW + i * 7919, i)).collect();
        let oracle = KeyOracle::new(&data);
        let mut rng = SimRng::seeded(3);
        for stored in [
            StoredKeys::Uniform(data.iter().map(|&(k, _)| k).collect()),
            StoredKeys::zipf(&oracle, 1.0, &mut rng),
        ] {
            let stream = query_stream(10_000, &stored, &mut rng);
            let ranges = stream
                .iter()
                .filter(|q| matches!(q, Query::Range(..)))
                .count();
            assert_eq!(ranges, 2_000);
            let hits = stream
                .iter()
                .filter(|q| matches!(q, Query::Exact(_)) && q.expected(&oracle) > 0)
                .count();
            assert!(
                (3_600..=4_400).contains(&hits),
                "{hits} stored-key hits of 8000"
            );
            let again = |seed| query_stream(100, &stored, &mut SimRng::seeded(seed));
            assert_eq!(again(5), again(5), "same seed, same stream");
        }
    }
}
