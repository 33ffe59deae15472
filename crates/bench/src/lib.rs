//! # baton-bench — the wall-clock harness of the BATON reproduction
//!
//! The paper's evaluation (Figure 8(a)–(i)) counts messages; the
//! `reproduce` binary of `baton-sim` prints those tables.  This crate
//! times the simulator itself:
//!
//! * [`perf`] — the `perf` binary's measurement rows (overlay builds,
//!   fig8d/fig8e query drivers, Zipf inserts and deletes, scenarios, cost
//!   curves, scale, availability and serve rows) plus the route-anatomy and
//!   profiler-scope sections of the `BENCH_perf.json` report;
//! * [`serve`] — the lock-free snapshot read path behind the `serve-bench`
//!   binary and the perf `serve_*` rows.
//!
//! The helpers below build the overlays those rows time.

use baton_chord::ChordSystem;
use baton_core::{BatonConfig, BatonSystem, LoadBalanceConfig};
use baton_d3tree::D3TreeSystem;
use baton_mtree::MTreeSystem;

pub mod perf;
pub mod serve;

/// Builds a BATON overlay of `n` nodes with load balancing sized for
/// `avg_load` items per node, joined one peer at a time.
pub fn baton_overlay(n: usize, seed: u64, avg_load: usize) -> BatonSystem {
    let config = BatonConfig::default()
        .with_load_balance(LoadBalanceConfig::for_average_load(avg_load.max(4)));
    BatonSystem::build(config, seed, n).expect("overlay build")
}

/// Bulk-builds a BATON overlay of `n` nodes via the direct constructor —
/// same config as [`baton_overlay`], no join protocol, zero messages.  Used
/// by the perf harness's scale rows so construction cost does not swamp the
/// per-operation cost being measured.
pub fn baton_overlay_bulk(n: usize, seed: u64, avg_load: usize) -> BatonSystem {
    let config = BatonConfig::default()
        .with_load_balance(LoadBalanceConfig::for_average_load(avg_load.max(4)));
    BatonSystem::bulk_build(config, seed, n).expect("overlay bulk build")
}

/// Builds a D3-Tree overlay of `n` nodes, for the perf harness's baseline
/// build/query timings.
pub fn d3tree_overlay(n: usize, seed: u64) -> D3TreeSystem {
    D3TreeSystem::build(seed, n).expect("overlay build")
}

/// Builds a Chord ring of `n` nodes, for the perf harness's bytes-per-peer
/// accounting.
pub fn chord_overlay(n: usize, seed: u64) -> ChordSystem {
    ChordSystem::build(seed, n).expect("overlay build")
}

/// Builds a multiway-tree overlay of `n` nodes, for the perf harness's
/// bytes-per-peer accounting.
pub fn mtree_overlay(n: usize, seed: u64) -> MTreeSystem {
    MTreeSystem::build(seed, n).expect("overlay build")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_build_small_overlays() {
        let overlay = baton_overlay(12, 3, 10);
        assert_eq!(overlay.node_count(), 12);
        baton_core::validate(&overlay).unwrap();
    }

    #[test]
    fn bulk_helper_builds_a_valid_overlay() {
        let overlay = baton_overlay_bulk(12, 3, 10);
        assert_eq!(overlay.node_count(), 12);
        baton_core::validate(&overlay).unwrap();
    }
}
