//! Reduce-task placement strategies.
//!
//! The DFS layer answers "which node stores this replica?" through
//! `adapt_dfs::placement::PlacementPolicy`, and that NameNode placement
//! is also what decides where map tasks run (data locality). This module
//! answers the remaining JobTracker-level question — "which node should
//! *run* this reduce task?" — given where the map outputs landed.
//!
//! Every strategy here is **deterministic**: decisions are pure functions
//! of the [`ClusterView`] and the call arguments, with no RNG. That is
//! what lets the differential oracle in `adapt-verify` run the optimized
//! and reference reduce engines under each strategy and demand
//! bit-identical results.
//!
//! Three implementations mirror the repository's three placement camps:
//!
//! * [`NaiveStrategy`] — round-robin over alive nodes, availability- and
//!   rack-blind (the stock-Hadoop baseline).
//! * [`AdaptStrategy`] — reducers land on the most reliable hosts first,
//!   ranked by equation-(5) completion rate, the ADAPT paper's
//!   availability idea lifted to task scheduling.
//! * [`RackAwareStrategy`] — reducers pulled toward the rack holding the
//!   plurality of their shuffle input, minimizing cross-rack bytes over
//!   the oversubscribed core (HDFS rack-awareness).

use adapt_dfs::placement::ClusterView;
use adapt_dfs::NodeId;

use crate::SimError;

/// A deterministic reduce-task placement strategy.
pub trait PlacementStrategy: std::fmt::Debug {
    /// Short strategy name used in reports (e.g. `"adapt"`, `"naive"`,
    /// `"rack-aware"`).
    fn name(&self) -> &'static str;

    /// Picks the host of reduce task `reducer` (of `reducers` total)
    /// given the map-output holders (`holders[t]` lists the nodes
    /// holding map task `t`'s output).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the view has no alive
    /// node or `reducer >= reducers`.
    fn place_reduce_task(
        &mut self,
        cluster: &ClusterView,
        holders: &[Vec<NodeId>],
        reducer: usize,
        reducers: usize,
    ) -> Result<NodeId, SimError>;
}

/// Ascending-id list of alive nodes, the shared candidate order.
fn alive_nodes(cluster: &ClusterView) -> Vec<NodeId> {
    cluster
        .nodes()
        .iter()
        .filter(|n| n.alive)
        .map(|n| n.id)
        .collect()
}

fn require_alive(cluster: &ClusterView) -> Result<Vec<NodeId>, SimError> {
    let alive = alive_nodes(cluster);
    if alive.is_empty() {
        return Err(SimError::InvalidConfig {
            name: "cluster",
            reason: "no alive node to place on".into(),
        });
    }
    Ok(alive)
}

fn validate_reduce_args(reducer: usize, reducers: usize) -> Result<(), SimError> {
    if reducer >= reducers {
        return Err(SimError::InvalidConfig {
            name: "reducer",
            reason: format!("reducer {reducer} out of range for {reducers} reducers"),
        });
    }
    Ok(())
}

/// Round-robin over alive nodes: availability- and rack-blind, the
/// stock-Hadoop baseline the paper compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NaiveStrategy;

impl NaiveStrategy {
    /// Creates the naive strategy.
    pub fn new() -> Self {
        NaiveStrategy
    }
}

impl PlacementStrategy for NaiveStrategy {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn place_reduce_task(
        &mut self,
        cluster: &ClusterView,
        _holders: &[Vec<NodeId>],
        reducer: usize,
        reducers: usize,
    ) -> Result<NodeId, SimError> {
        validate_reduce_args(reducer, reducers)?;
        let alive = require_alive(cluster)?;
        Ok(alive[reducer % alive.len()])
    }
}

/// Availability-ranked placement: alive nodes are ordered by their
/// equation-(5) completion *rate* (`γ / E[T] ∈ (0, 1]`, 1 for a
/// reliable host) and reduce tasks land on the most reliable hosts
/// first, round-robin over that ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptStrategy {
    gamma: f64,
}

impl AdaptStrategy {
    /// Creates the strategy for tasks of failure-free length `gamma`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] unless `gamma` is finite and
    /// positive.
    pub fn new(gamma: f64) -> Result<Self, SimError> {
        if !(gamma.is_finite() && gamma > 0.0) {
            return Err(SimError::InvalidConfig {
                name: "gamma",
                reason: format!("{gamma} must be finite and > 0"),
            });
        }
        Ok(AdaptStrategy { gamma })
    }

    /// Completion rate of one node: `γ / E[T]` from equation (5), or 0
    /// for a host whose recovery queue is unstable (never placed on
    /// unless every host is unstable).
    fn rate(&self, cluster: &ClusterView, id: NodeId) -> f64 {
        let Some(node) = cluster.node(id) else {
            return 0.0;
        };
        match node.availability.expected_completion(self.gamma) {
            Ok(expected) if expected > 0.0 => self.gamma / expected,
            _ => 0.0,
        }
    }

    /// Alive nodes ordered most-reliable first (rate descending, id
    /// ascending on ties).
    fn by_reliability(&self, cluster: &ClusterView) -> Result<Vec<NodeId>, SimError> {
        // Equation (5) once per node, not once per comparison.
        let mut ranked: Vec<(f64, NodeId)> = require_alive(cluster)?
            .into_iter()
            .map(|id| (self.rate(cluster, id), id))
            .collect();
        ranked.sort_by(|(ra, a), (rb, b)| rb.total_cmp(ra).then(a.0.cmp(&b.0)));
        Ok(ranked.into_iter().map(|(_, id)| id).collect())
    }
}

impl PlacementStrategy for AdaptStrategy {
    fn name(&self) -> &'static str {
        "adapt"
    }

    fn place_reduce_task(
        &mut self,
        cluster: &ClusterView,
        _holders: &[Vec<NodeId>],
        reducer: usize,
        reducers: usize,
    ) -> Result<NodeId, SimError> {
        validate_reduce_args(reducer, reducers)?;
        let ranked = self.by_reliability(cluster)?;
        Ok(ranked[reducer % ranked.len()])
    }
}

/// Rack-aware placement in the HDFS mold: each reduce task runs inside
/// the rack holding the plurality of its shuffle input — cross-rack
/// bytes over the oversubscribed core are what this strategy minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RackAwareStrategy;

impl RackAwareStrategy {
    /// Creates the rack-aware strategy.
    pub fn new() -> Self {
        RackAwareStrategy
    }

    /// Ascending list of rack labels with at least one alive node.
    fn alive_racks(cluster: &ClusterView, alive: &[NodeId]) -> Vec<u32> {
        let mut racks: Vec<u32> = alive.iter().map(|&id| cluster.rack_of(id)).collect();
        racks.sort_unstable();
        racks.dedup();
        racks
    }
}

impl PlacementStrategy for RackAwareStrategy {
    fn name(&self) -> &'static str {
        "rack-aware"
    }

    fn place_reduce_task(
        &mut self,
        cluster: &ClusterView,
        holders: &[Vec<NodeId>],
        reducer: usize,
        reducers: usize,
    ) -> Result<NodeId, SimError> {
        validate_reduce_args(reducer, reducers)?;
        let alive = require_alive(cluster)?;
        let racks = Self::alive_racks(cluster, &alive);
        // One holder vote per map task: the first alive holder speaks
        // for the task's output (each map output has one primary copy).
        let mut votes = vec![0usize; racks.len()];
        for task_holders in holders {
            let Some(&h) = task_holders
                .iter()
                .find(|&&h| cluster.node(h).is_some_and(|n| n.alive))
            else {
                continue;
            };
            let rack = cluster.rack_of(h);
            if let Some(ri) = racks.iter().position(|&r| r == rack) {
                votes[ri] += 1;
            }
        }
        // Plurality rack; first (lowest-label) maximum wins. With no
        // votes at all (no alive holder anywhere) rack 0 of the list.
        let mut best = 0usize;
        for (ri, &v) in votes.iter().enumerate() {
            if v > votes[best] {
                best = ri;
            }
        }
        let rack_nodes: Vec<NodeId> = alive
            .iter()
            .copied()
            .filter(|&id| cluster.rack_of(id) == racks[best])
            .collect();
        // Spread this job's reducers over the chosen rack's members.
        Ok(rack_nodes[reducer % rack_nodes.len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_dfs::placement::NodeView;
    use adapt_dfs::NodeAvailability;

    fn view(racks: u32, n: u32, volatile: &[u32], dead: &[u32]) -> ClusterView {
        ClusterView::new(
            (0..n)
                .map(|i| NodeView {
                    id: NodeId(i),
                    availability: if volatile.contains(&i) {
                        NodeAvailability::from_mtbi(20.0, 8.0).expect("valid availability")
                    } else {
                        NodeAvailability::reliable()
                    },
                    alive: !dead.contains(&i),
                    stored_blocks: 0,
                    capacity_blocks: None,
                    rack: i % racks,
                })
                .collect(),
        )
    }

    /// Hosts of reducers `0..reducers` under `s`, in reducer order.
    fn reduce_hosts(
        s: &mut dyn PlacementStrategy,
        v: &ClusterView,
        holders: &[Vec<NodeId>],
        reducers: usize,
    ) -> Vec<NodeId> {
        (0..reducers)
            .map(|r| {
                s.place_reduce_task(v, holders, r, reducers)
                    .expect("places")
            })
            .collect()
    }

    fn ids(raw: &[u32]) -> Vec<NodeId> {
        raw.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn naive_round_robins_and_validates() {
        let v = view(1, 4, &[], &[]);
        let mut s = NaiveStrategy::new();
        assert_eq!(
            s.place_reduce_task(&v, &[], 5, 8).expect("places"),
            NodeId(1)
        );
        assert!(s.place_reduce_task(&v, &[], 3, 3).is_err());
    }

    #[test]
    fn no_alive_node_is_an_error_for_every_strategy() {
        let empty = view(2, 4, &[], &[0, 1, 2, 3]);
        let holders = vec![vec![NodeId(0)], vec![NodeId(1)]];
        let strategies: [Box<dyn PlacementStrategy>; 3] = [
            Box::new(NaiveStrategy::new()),
            Box::new(AdaptStrategy::new(12.0).expect("valid gamma")),
            Box::new(RackAwareStrategy::new()),
        ];
        for mut s in strategies {
            assert!(
                matches!(
                    s.place_reduce_task(&empty, &holders, 0, 1),
                    Err(SimError::InvalidConfig {
                        name: "cluster",
                        ..
                    })
                ),
                "{} placed a reducer on a cluster with no alive node",
                s.name()
            );
        }
    }

    #[test]
    fn naive_reducers_skip_dead_nodes() {
        let v = view(1, 4, &[], &[1]);
        let hosts = reduce_hosts(&mut NaiveStrategy::new(), &v, &[], 6);
        assert_eq!(hosts, ids(&[0, 2, 3, 0, 2, 3]));
    }

    #[test]
    fn adapt_prefers_reliable_hosts() {
        // Node 1 is volatile: the reliable hosts take the first reducers
        // (lowest id first), the volatile one comes last.
        let v = view(1, 3, &[1], &[]);
        let mut s = AdaptStrategy::new(12.0).expect("valid gamma");
        assert_eq!(reduce_hosts(&mut s, &v, &[], 4), ids(&[0, 2, 1, 0]));
        assert!(AdaptStrategy::new(0.0).is_err());
    }

    #[test]
    fn adapt_falls_back_to_id_order_when_every_host_is_unstable() {
        // λμ = 2: every recovery queue is unstable, so every rate is 0.
        let unstable = NodeAvailability::from_mtbi(10.0, 20.0).expect("valid availability");
        assert!(unstable.expected_completion(12.0).is_err());
        let v = ClusterView::new(
            view(2, 5, &[], &[3])
                .nodes()
                .iter()
                .map(|n| NodeView {
                    availability: unstable,
                    ..*n
                })
                .collect(),
        );
        let mut s = AdaptStrategy::new(12.0).expect("valid gamma");
        assert_eq!(reduce_hosts(&mut s, &v, &[], 5), ids(&[0, 1, 2, 4, 0]));
    }

    #[test]
    fn rack_aware_reducer_follows_the_data() {
        let v = view(2, 4, &[], &[]);
        let mut s = RackAwareStrategy::new();
        // All map outputs on rack-0 members (nodes 0 and 2).
        let holders = vec![vec![NodeId(0)], vec![NodeId(2)], vec![NodeId(0)]];
        let host = s.place_reduce_task(&v, &holders, 0, 1).expect("places");
        assert_eq!(v.rack_of(host), 0);
        // Outputs on rack 1 pull the reducer there.
        let holders = vec![vec![NodeId(1)], vec![NodeId(3)], vec![NodeId(1)]];
        let host = s.place_reduce_task(&v, &holders, 0, 1).expect("places");
        assert_eq!(v.rack_of(host), 1);
        // Dead holders don't vote.
        let dead_heavy = view(2, 4, &[], &[1, 3]);
        let host = s
            .place_reduce_task(&dead_heavy, &holders, 0, 1)
            .expect("places");
        assert_eq!(dead_heavy.rack_of(host), 0);
    }

    #[test]
    fn strategies_are_deterministic() {
        let v = view(3, 9, &[4], &[2]);
        let holders = vec![vec![NodeId(0)], vec![NodeId(4)], vec![NodeId(8)]];
        let mut a1 = AdaptStrategy::new(12.0).expect("valid gamma");
        let mut a2 = AdaptStrategy::new(12.0).expect("valid gamma");
        assert_eq!(
            reduce_hosts(&mut a1, &v, &holders, 12),
            reduce_hosts(&mut a2, &v, &holders, 12)
        );
        let mut r1 = RackAwareStrategy::new();
        let mut r2 = RackAwareStrategy::new();
        assert_eq!(
            reduce_hosts(&mut r1, &v, &holders, 12),
            reduce_hosts(&mut r2, &v, &holders, 12)
        );
    }

    #[test]
    fn trait_is_object_safe() {
        let v = view(1, 2, &[], &[]);
        let mut s: Box<dyn PlacementStrategy> = Box::new(NaiveStrategy::new());
        assert_eq!(s.name(), "naive");
        assert!(s.place_reduce_task(&v, &[], 0, 1).is_ok());
    }
}
