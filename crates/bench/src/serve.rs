//! Serve-mode wall-clock rows: the lock-free snapshot read path under the
//! perf harness.
//!
//! The rows measure the concurrent serve front-end end to end —
//!
//! * `serve_snapshot_build` — exporting a [`baton_net::RoutingSnapshot`]
//!   from the loaded BATON overlay (the cost a structural commit pays
//!   before it can publish);
//! * `serve_exact_t{1,2,4}` — batched exact-match queries over the
//!   published snapshot from 1, 2 and 4 OS threads.  The work is
//!   bit-identical at every thread count (batches are derived from
//!   `(seed, batch index)` alone), so `work_items` and the checksum in the
//!   detail string must agree across the rows and only the wall clock may
//!   differ;
//! * `serve_range_t1` — range queries at the paper's 0.1% selectivity;
//! * `serve_snapshot_staleness` — churn-commit → rebuild → publish swap
//!   cycles, bounding how stale a served answer can be: a reader observes
//!   a new version after at most one rebuild+publish plus its own batch in
//!   flight.
//! * `serve_snapshot_build_100k` — the export alone on a bulk-built
//!   100k-peer overlay (the build size at smoke), with ns per slot and the
//!   cost of publishing an equal export in its detail: the per-stage cost
//!   of a publish at scale.
//!
//! The same rows back both `perf` (they ride in `BENCH_perf.json`) and the
//! standalone `serve-bench` binary.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use baton_net::{Overlay, SimRng, SnapshotCell, SnapshotReader};
use baton_workload::{
    run_serve, runner, KeyDistribution, ServeConfig, ServeOutcome, DOMAIN_HIGH, DOMAIN_LOW,
};

use crate::perf::{Measurement, PerfProfile};

/// Range-query span at the paper's fig8e selectivity (0.1% of the domain).
pub fn range_span() -> u64 {
    (DOMAIN_HIGH - DOMAIN_LOW) / 1000
}

/// Serve worker counts measured at this profile on this host: always 1,
/// then 2 and 4 where both the profile's cap and the host's parallelism
/// allow (a thread count beyond the hardware would time oversubscription,
/// not the read path).
pub fn serve_thread_counts(profile: &PerfProfile) -> Vec<usize> {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let mut counts = vec![1];
    for t in [2usize, 4] {
        if profile.serve_threads_max >= t && cores >= t {
            counts.push(t);
        }
    }
    counts
}

/// Builds and loads the BATON overlay the serve rows query: bulk-built at
/// the profile's main size, dataset placed through the direct path so
/// setup does not swamp the measurements.
pub fn served_overlay(profile: &PerfProfile, seed: u64) -> Box<dyn Overlay> {
    loaded_overlay(profile.build_n, profile.data_scale, seed)
}

/// A bulk-built `n`-node BATON overlay holding `data_scale` of the paper's
/// `1000 × n` uniform values, placed through the direct path.
fn loaded_overlay(n: usize, data_scale: f64, seed: u64) -> Box<dyn Overlay> {
    let mut overlay: Box<dyn Overlay> = Box::new(crate::baton_overlay_bulk(n, seed, 1000));
    let plan = baton_workload::DatasetPlan {
        values_per_node: 1000,
        distribution: KeyDistribution::Uniform,
    }
    .scaled(data_scale);
    let data = plan.generate(&mut SimRng::seeded(seed ^ 0xDA7A), n);
    if !overlay.load_direct(&data) {
        runner::bulk_load(&mut *overlay, &data).expect("bulk load");
    }
    overlay
}

/// Appends the deterministic outcome fields to a serve row's detail: the
/// checksum and mean hops are thread-count invariant, so two rows that
/// disagree on them did different work.
fn annotate(row: &mut Measurement, outcome: &ServeOutcome) {
    let _ = write!(
        row.detail,
        "; matches {}, mean hops {:.2}, checksum {:016x}, {} batches, {} refreshes",
        outcome.counters.matches,
        outcome.counters.mean_hops(),
        outcome.counters.checksum,
        outcome.batches,
        outcome.refreshes
    );
}

/// Runs every serve row at the given profile.  The overlay is built once;
/// the same published snapshot serves all query rows, then the staleness
/// row churns the overlay and republishes.
pub fn serve_rows(profile: &PerfProfile) -> Vec<Measurement> {
    let seed = 2005u64;
    let mut rows = Vec::new();
    let n = profile.build_n;
    let mut overlay = served_overlay(profile, seed);

    let (build_row, snapshot) = Measurement::timed(
        "serve_snapshot_build",
        format!("RoutingSnapshot export from the loaded {n}-node BATON overlay"),
        "slots",
        || {
            let snapshot = overlay
                .routing_snapshot()
                .expect("BATON exports routing snapshots");
            (snapshot.slots() as u64, snapshot)
        },
    );
    rows.push(build_row);
    let cell = Arc::new(SnapshotCell::new(snapshot));

    for &threads in &serve_thread_counts(profile) {
        let config = ServeConfig::exact(profile.serve_queries, threads, seed ^ 0x5EE7);
        let (mut row, outcome) = Measurement::timed(
            &format!("serve_exact_t{threads}"),
            format!(
                "{} uniform exact queries over the published snapshot, batches of {}, \
                 {threads} thread(s)",
                config.queries, config.batch
            ),
            "queries",
            || {
                let outcome = run_serve(&cell, &config);
                (outcome.counters.queries, outcome)
            },
        );
        annotate(&mut row, &outcome);
        rows.push(row);
    }

    let config = ServeConfig::range(profile.serve_range_queries, 1, seed ^ 0x4A4E, range_span());
    let (mut range_row, outcome) = Measurement::timed(
        "serve_range_t1",
        format!(
            "{} range queries (0.1% selectivity) over the published snapshot, 1 thread",
            config.queries
        ),
        "queries",
        || {
            let outcome = run_serve(&cell, &config);
            (outcome.counters.queries, outcome)
        },
    );
    annotate(&mut range_row, &outcome);
    rows.push(range_row);

    let swaps = profile.serve_swaps;
    let (mut stale_row, visible) = Measurement::timed(
        "serve_snapshot_staleness",
        format!("{swaps} churn-commit, rebuild, publish, observe cycles on the {n}-node overlay"),
        "swaps",
        || {
            let mut reader = SnapshotReader::new(Arc::clone(&cell));
            reader.refresh();
            let mut visible = Duration::ZERO;
            for _ in 0..swaps {
                overlay.join_random().expect("join during staleness row");
                let committed = std::time::Instant::now();
                let rebuilt = overlay
                    .routing_snapshot()
                    .expect("BATON exports routing snapshots");
                let version = cell.publish(rebuilt);
                reader.refresh();
                assert_eq!(
                    reader.snapshot().version(),
                    version,
                    "published snapshot not visible to the reader"
                );
                visible += committed.elapsed();
            }
            (swaps as u64, visible)
        },
    );
    let _ = write!(
        stale_row.detail,
        "; mean commit-to-visible {:.3} ms (a served answer is at most one \
         rebuild+publish plus its in-flight batch stale)",
        visible.as_secs_f64() * 1e3 / swaps.max(1) as f64
    );
    rows.push(stale_row);

    rows.push(export_row(profile, seed));
    rows
}

/// The `serve_snapshot_build_100k` row: the two stages of a publish on a
/// large overlay, timed apart.  The row times the export from a loaded,
/// bulk-built BATON overlay of `serve_export_n` peers; its detail adds the
/// cell's publish of a second, equal export — the worst case of the
/// equal-array check, since every array is compared in full (and then
/// shared).
fn export_row(profile: &PerfProfile, seed: u64) -> Measurement {
    let n = profile.serve_export_n;
    let overlay = loaded_overlay(n, profile.data_scale, seed);
    let export = || {
        overlay
            .routing_snapshot()
            .expect("BATON exports routing snapshots")
    };
    let (mut row, snapshot) = Measurement::timed(
        "serve_snapshot_build_100k",
        format!("RoutingSnapshot export from the loaded {n}-node bulk-built BATON overlay"),
        "slots",
        || {
            let snapshot = export();
            (snapshot.slots() as u64, snapshot)
        },
    );
    let bytes = snapshot.estimated_bytes();
    let cell = SnapshotCell::new(snapshot);
    let first = cell.load();
    let again = export();
    let started = Instant::now();
    cell.publish(again);
    let publish = started.elapsed();
    let shared = cell.load().shared_arrays(&first).len();
    let _ = write!(
        row.detail,
        "; export {:.2} ms, {:.0} ns/slot; publish of an equal {:.2} MB export {:.1} us \
         ({shared} arrays shared)",
        row.wall_ms,
        row.wall_ms * 1e6 / row.work_items.max(1) as f64,
        bytes as f64 / 1e6,
        publish.as_secs_f64() * 1e6
    );
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_rows_cover_the_smoke_profile() {
        let profile = PerfProfile::smoke();
        let rows = serve_rows(&profile);
        let ids: Vec<&str> = rows.iter().map(|r| r.id.as_str()).collect();
        let mut expected = vec!["serve_snapshot_build".to_owned()];
        for t in serve_thread_counts(&profile) {
            expected.push(format!("serve_exact_t{t}"));
        }
        expected.push("serve_range_t1".to_owned());
        expected.push("serve_snapshot_staleness".to_owned());
        expected.push("serve_snapshot_build_100k".to_owned());
        assert_eq!(ids, expected);
        for row in &rows {
            assert!(row.work_items > 0, "{} did no work", row.id);
        }
        let export = rows.last().expect("export row");
        assert!(
            export.detail.ends_with("(11 arrays shared)"),
            "an equal export shares every array: {}",
            export.detail
        );
        // Every exact row did the same deterministic work regardless of
        // thread count: same query count and same checksum.
        let exact: Vec<&Measurement> = rows
            .iter()
            .filter(|r| r.id.starts_with("serve_exact_t"))
            .collect();
        for row in &exact {
            assert_eq!(row.work_items, profile.serve_queries);
            let tail = exact[0].detail.split(';').nth(1).expect("annotated");
            assert!(row.detail.ends_with(tail), "{} differs in outcome", row.id);
        }
    }
}
