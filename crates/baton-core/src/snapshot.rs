//! Routing-snapshot extraction for the concurrent serve front-end.
//!
//! Serializes the overlay's current ownership into a
//! [`RoutingSnapshot`]: the in-order traversal of the tree is an ordered
//! partition of the key domain, so slots are the nodes sorted by range low,
//! items are each node's distinct stored keys with their value counts,
//! links carry the paper's §II link taxonomy (parent, children, adjacents,
//! sideways routing tables) and replicas are the adjacent-link replica
//! targets of the k-replica capability.  Extraction is read-only:
//! statistics, RNG streams and the virtual clock are untouched.

use baton_net::serve::{ExactPlacement, RoutingSnapshot, SnapshotBuilder};
use baton_net::{LinkKind, PeerId};

use crate::system::BatonSystem;

impl BatonSystem {
    /// Builds a [`RoutingSnapshot`] of the overlay's current state.
    pub fn build_routing_snapshot(&self) -> RoutingSnapshot {
        let domain = self.domain();
        let mut builder = SnapshotBuilder::new(
            "BATON",
            ExactPlacement::DomainPartition,
            true,
            (domain.low(), domain.high()),
        );
        // Slots in key order: the in-order traversal of the tree.
        let mut nodes: Vec<(PeerId, &crate::node::BatonNode)> = self.iter_nodes().collect();
        nodes.sort_by_key(|(_, node)| node.range.low());
        for (peer, node) in &nodes {
            // A failed-but-unrepaired peer keeps its slot, exported dead.
            builder.push_slot(peer.0, node.range.high(), self.net.is_alive(*peer));
            for (key, count) in node.store.key_counts() {
                builder.push_item(key, count as u64);
            }
            builder.seal_slot();
        }
        for (slot, (peer, node)) in nodes.iter().enumerate() {
            let link = |target: PeerId, kind: LinkKind, b: &mut SnapshotBuilder| {
                if let Some(t) = b.slot_of(target.0) {
                    b.link(slot, t, kind);
                }
            };
            if let Some(parent) = &node.parent {
                link(parent.peer, LinkKind::Parent, &mut builder);
            }
            for child in [&node.left_child, &node.right_child].into_iter().flatten() {
                link(child.peer, LinkKind::Child, &mut builder);
            }
            for adjacent in [&node.left_adjacent, &node.right_adjacent]
                .into_iter()
                .flatten()
            {
                link(adjacent.peer, LinkKind::Adjacent, &mut builder);
            }
            for table in [&node.left_table, &node.right_table] {
                for (_, entry) in table.iter() {
                    link(entry.link.peer, LinkKind::RoutingTable, &mut builder);
                }
            }
            for target in self.replica_targets(*peer) {
                if let Some(t) = builder.slot_of(target.0) {
                    builder.replica(slot, t);
                }
            }
        }
        builder.finish()
    }
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use baton_net::serve::{ServeCounters, ServeStatus, SnapshotCell};
    use baton_net::Overlay;

    use crate::config::BatonConfig;
    use crate::system::BatonSystem;

    #[test]
    fn snapshot_slots_partition_the_domain_in_key_order() {
        let system = BatonSystem::build(BatonConfig::default(), 7, 40).unwrap();
        let snapshot = system.build_routing_snapshot();
        assert_eq!(snapshot.slots(), 40);
        assert_eq!(snapshot.overlay(), "BATON");
        assert!(snapshot.range_supported());
        assert_eq!(
            snapshot.total_items() as usize,
            Overlay::total_items(&system)
        );
    }

    #[test]
    fn snapshot_exact_matches_store_contents() {
        let mut system = BatonSystem::build(BatonConfig::default(), 11, 32).unwrap();
        for key in [5u64, 5, 123_456, 999_999_998] {
            system.insert(key, key).unwrap();
        }
        let snapshot = system.build_routing_snapshot();
        let mut counters = ServeCounters::default();
        assert_eq!(snapshot.exact(5, 0, &mut counters).matches, 2);
        assert_eq!(snapshot.exact(123_456, 3, &mut counters).matches, 1);
        assert_eq!(snapshot.exact(77, 9, &mut counters).matches, 0);
        assert!(counters.hops > 0, "greedy routing should charge hops");
    }

    /// A 64-node overlay holding 300 values spread over its domain.
    fn loaded(seed: u64) -> BatonSystem {
        let mut system = BatonSystem::build(BatonConfig::default(), seed, 64).unwrap();
        let domain = system.domain();
        let step = domain.width() / 300;
        for i in 0..300u64 {
            let key = domain.low() + i * step + 1;
            system.insert(key, key).unwrap();
        }
        system
    }

    #[test]
    fn silently_failed_peer_is_exported_dead_and_fails_over() {
        let mut system = loaded(13);
        system.set_replication(2).unwrap();
        let (victim, key) = system
            .iter_nodes()
            .find_map(|(peer, node)| node.store.min_key().map(|key| (peer, key)))
            .expect("a loaded overlay stores keys");
        system.fail_silently(victim).unwrap();

        let snapshot = system.build_routing_snapshot();
        let slot = (0..snapshot.slots())
            .find(|&slot| snapshot.peer_of(slot) == victim.0)
            .expect("an unrepaired peer keeps its slot");
        assert!(!snapshot.alive(slot));
        assert_eq!(
            (0..snapshot.slots())
                .filter(|&s| !snapshot.alive(s))
                .count(),
            1,
            "only the victim is dead"
        );

        let routed = system.search_exact(key).unwrap().matches.len();
        assert!(routed > 0, "the victim's replica answers");
        let mut counters = ServeCounters::default();
        let served = snapshot.exact(key, 0, &mut counters);
        assert_eq!(served.status, ServeStatus::Failover);
        assert_eq!(served.matches, routed as u64);
    }

    #[test]
    fn export_cost_grows_linearly_with_the_network() {
        // Best of three exports at N and 8N: a linear export scales by ~8,
        // a per-link scan over all slots by ~64.
        fn best_export(n: usize) -> Duration {
            let system = BatonSystem::bulk_build(BatonConfig::default(), 5, n).unwrap();
            (0..3)
                .map(|_| {
                    let started = Instant::now();
                    let snapshot = system.build_routing_snapshot();
                    let elapsed = started.elapsed();
                    assert_eq!(snapshot.slots(), n);
                    elapsed
                })
                .min()
                .unwrap()
        }
        let small = best_export(256);
        let large = best_export(2048);
        let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
        assert!(
            ratio < 24.0,
            "8x the peers cost {ratio:.1}x the export time ({small:?} -> {large:?})"
        );
    }

    #[test]
    fn republish_after_churn_shares_the_item_arrays() {
        let mut system = loaded(17);
        let cell = SnapshotCell::new(system.build_routing_snapshot());
        let before = cell.load();
        system.join_random().unwrap();
        system.leave_random().unwrap();
        cell.publish(system.build_routing_snapshot());
        let after = cell.load();
        // At k = 1 a join or leave moves slices between peers, never a
        // stored key out of the global key order.
        let shared = after.shared_arrays(&before);
        for array in ["item_key", "item_cum"] {
            assert!(shared.contains(&array), "{array} not shared: {shared:?}");
        }

        let domain = system.domain();
        let fresh = domain.low() + 2;
        system.insert(fresh, fresh).unwrap();
        cell.publish(system.build_routing_snapshot());
        let inserted = cell.load();
        let shared = inserted.shared_arrays(&after);
        for array in ["item_key", "item_cum"] {
            assert!(!shared.contains(&array), "{array} shared after insert");
        }
        assert_eq!(inserted.total_items(), after.total_items() + 1);
        let mut counters = ServeCounters::default();
        assert_eq!(inserted.exact(fresh, 0, &mut counters).matches, 1);
    }
}
