//! [`AdaptPolicy`]: the availability-aware placement policy.
//!
//! Wires the Performance Predictor and the weighted hash table into the
//! `adapt-dfs` [`PlacementPolicy`] interface. At `prepare` time (once per
//! file ingest — "the hash table … is created when ADAPT is called by the
//! client, and deleted when the corresponding data blocks have been
//! distributed") the policy computes per-node rates and builds the table;
//! each `select` samples the table, retrying when the sampled node is
//! ineligible (already a replica of the block, at capacity, or over the
//! session threshold) and falling back to renormalized weighted selection
//! if rejection sampling runs long.

use rand::Rng;

use adapt_availability::AvailabilityError;
use adapt_dfs::placement::{ClusterView, PlacementPolicy};
use adapt_dfs::{DfsError, NodeId};

use crate::hash_table::{ChainWeighting, PlacementHashTable};
use crate::predictor::{NodeRates, PerformancePredictor};
use crate::telemetry::{PolicyTelemetry, PolicyTelemetrySnapshot};
use crate::weighted::weighted_select;

/// Rejection-sampling budget before falling back to direct weighted
/// selection over the eligible set.
const MAX_REJECTIONS: usize = 64;

/// The ADAPT availability-aware placement policy (Algorithm 1).
///
/// See the crate-level example for end-to-end use with a NameNode.
#[derive(Debug, Clone)]
pub struct AdaptPolicy {
    predictor: PerformancePredictor,
    weighting: ChainWeighting,
    table: Option<PlacementHashTable>,
    rates: Option<NodeRates>,
    telemetry: PolicyTelemetry,
    /// Scratch for the fallback's candidate list, reused across selects.
    candidates: Vec<(NodeId, f64)>,
}

impl AdaptPolicy {
    /// Creates the policy for map tasks of failure-free length `gamma`
    /// seconds per block.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if `gamma` is not
    /// finite and positive.
    pub fn new(gamma: f64) -> Result<Self, AvailabilityError> {
        Ok(AdaptPolicy {
            predictor: PerformancePredictor::new(gamma)?,
            weighting: ChainWeighting::default(),
            table: None,
            rates: None,
            telemetry: PolicyTelemetry::default(),
            candidates: Vec::new(),
        })
    }

    /// The policy's live telemetry (hash-table and selection counters).
    pub fn telemetry(&self) -> &PolicyTelemetry {
        &self.telemetry
    }

    /// A plain-integer snapshot of the policy telemetry, including the
    /// predictor's `E[T]` evaluation total.
    pub fn telemetry_snapshot(&self) -> PolicyTelemetrySnapshot {
        self.telemetry.snapshot(self.predictor.evaluations())
    }

    /// Selects the collision-chain weighting (see [`ChainWeighting`]).
    pub fn with_weighting(mut self, weighting: ChainWeighting) -> Self {
        self.weighting = weighting;
        self
    }

    /// The predictor in use.
    pub fn predictor(&self) -> &PerformancePredictor {
        &self.predictor
    }

    /// The rates computed by the last `prepare`, if any.
    pub fn rates(&self) -> Option<&NodeRates> {
        self.rates.as_ref()
    }

    /// The hash table built by the last `prepare`, if any.
    pub fn table(&self) -> Option<&PlacementHashTable> {
        self.table.as_ref()
    }
}

impl PlacementPolicy for AdaptPolicy {
    fn name(&self) -> &'static str {
        "adapt"
    }

    fn prepare(&mut self, cluster: &ClusterView, num_blocks: usize) -> Result<(), DfsError> {
        let rates = self.predictor.rates(cluster);
        if !rates.any_usable() {
            return Err(DfsError::InsufficientNodes {
                needed: 1,
                eligible: 0,
            });
        }
        let table = PlacementHashTable::build(rates.rates(), num_blocks, self.weighting)?;
        self.telemetry.tables_built.incr();
        for len in table.chain_lengths() {
            self.telemetry.chain_lengths.record(len as u64);
        }
        self.telemetry
            .max_chain_len
            .record(table.max_chain_len() as u64);
        self.table = Some(table);
        self.rates = Some(rates);
        Ok(())
    }

    fn select(
        &mut self,
        cluster: &ClusterView,
        eligible: &dyn Fn(NodeId) -> bool,
        rng: &mut dyn Rng,
    ) -> Option<NodeId> {
        // Fast path: rejection-sample the hash table.
        if let Some(table) = &self.table {
            for _ in 0..MAX_REJECTIONS {
                let node = NodeId(table.sample(rng) as u32);
                let alive = cluster.node(node).is_some_and(|n| n.alive);
                if alive && eligible(node) {
                    return Some(node);
                }
            }
        }
        // Slow path (crowded exclusions or no prepared table): weighted
        // selection renormalized over the eligible set.
        self.telemetry.select_fallbacks.incr();
        // Disjoint field borrows: the rates are read in place, and no
        // `expect` sits on the option just filled.
        let predictor = &self.predictor;
        let rates = self.rates.get_or_insert_with(|| predictor.rates(cluster));
        weighted_select(cluster, rates.rates(), eligible, rng, &mut self.candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_dfs::cluster::{NodeAvailability, NodeSpec};
    use adapt_dfs::namenode::{NameNode, Threshold};
    use adapt_dfs::placement::RandomPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The paper's Table 2 emulation mix on `n` nodes: half reliable, half
    /// split evenly into the four interrupted groups.
    fn emulated_cluster(n: usize) -> NameNode {
        let groups = [(10.0, 4.0), (10.0, 8.0), (20.0, 4.0), (20.0, 8.0)];
        let specs: Vec<NodeSpec> = (0..n)
            .map(|i| {
                if i < n / 2 {
                    NodeSpec::new(NodeAvailability::reliable())
                } else {
                    let (mtbi, mu) = groups[(i - n / 2) % 4];
                    NodeSpec::new(NodeAvailability::from_mtbi(mtbi, mu).unwrap())
                }
            })
            .collect();
        NameNode::new(specs)
    }

    #[test]
    fn rejects_invalid_gamma() {
        assert!(AdaptPolicy::new(0.0).is_err());
        assert!(AdaptPolicy::new(f64::INFINITY).is_err());
    }

    #[test]
    fn prepare_builds_table_sized_to_blocks() {
        let nn = emulated_cluster(8);
        let mut p = AdaptPolicy::new(12.0).unwrap();
        p.prepare(&nn.cluster_view(), 160).unwrap();
        assert_eq!(p.table().unwrap().len(), 160);
        assert!(p.rates().unwrap().any_usable());
    }

    #[test]
    fn prepare_fails_on_all_dead_cluster() {
        let mut nn = emulated_cluster(4);
        for i in 0..4 {
            nn.mark_down(NodeId(i)).unwrap();
        }
        let mut p = AdaptPolicy::new(12.0).unwrap();
        assert!(matches!(
            p.prepare(&nn.cluster_view(), 10),
            Err(DfsError::InsufficientNodes { .. })
        ));
    }

    #[test]
    fn reliable_nodes_receive_more_blocks() {
        let mut nn = emulated_cluster(8);
        let mut p = AdaptPolicy::new(12.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let file = nn
            .create_file("f", 800, 1, &mut p, Threshold::None, &mut rng)
            .unwrap();
        let dist = nn.file_distribution(file).unwrap();
        let reliable: usize = dist[..4].iter().sum();
        let flaky: usize = dist[4..].iter().sum();
        assert!(
            reliable > flaky,
            "reliable {reliable} vs flaky {flaky}: {dist:?}"
        );
        nn.validate().unwrap();
    }

    #[test]
    fn block_share_tracks_expected_time_ratios() {
        // Two-node cluster: node 1's E[T] is r times node 0's, so node 0
        // should receive ~r times the blocks.
        let specs = vec![
            NodeSpec::new(NodeAvailability::reliable()),
            NodeSpec::new(NodeAvailability::from_mtbi(10.0, 4.0).unwrap()),
        ];
        let mut nn = NameNode::new(specs);
        let mut p = AdaptPolicy::new(12.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let m = 4_000;
        let file = nn
            .create_file("f", m, 1, &mut p, Threshold::None, &mut rng)
            .unwrap();
        let dist = nn.file_distribution(file).unwrap();

        let t1 = NodeAvailability::from_mtbi(10.0, 4.0)
            .unwrap()
            .expected_completion(12.0)
            .unwrap();
        let expected_share0 = t1 / (t1 + 12.0); // rate0/(rate0+rate1)
        let actual_share0 = dist[0] as f64 / m as f64;
        assert!(
            (actual_share0 - expected_share0).abs() < 0.03,
            "share {actual_share0} vs expected {expected_share0}"
        );
    }

    #[test]
    fn homogeneous_cluster_degenerates_to_uniform() {
        // Section III-C: with identical availability ADAPT behaves like
        // the existing random placement.
        let a = NodeAvailability::from_mtbi(10.0, 4.0).unwrap();
        let mut nn = NameNode::new(vec![NodeSpec::new(a); 8]);
        let mut p = AdaptPolicy::new(12.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let m = 8 * 500;
        let file = nn
            .create_file("f", m, 1, &mut p, Threshold::None, &mut rng)
            .unwrap();
        let dist = nn.file_distribution(file).unwrap();
        for &c in &dist {
            let frac = c as f64 / m as f64;
            assert!(
                (frac - 0.125).abs() < 0.025,
                "node share {frac} deviates from uniform: {dist:?}"
            );
        }
    }

    #[test]
    fn select_respects_exclusions_for_replication() {
        let mut nn = emulated_cluster(4);
        let mut p = AdaptPolicy::new(12.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let file = nn
            .create_file("f", 40, 3, &mut p, Threshold::None, &mut rng)
            .unwrap();
        for block in nn.file(file).unwrap().blocks().to_vec() {
            let reps = nn.replicas(block).unwrap();
            let mut sorted = reps.to_vec();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 3);
        }
        nn.validate().unwrap();
    }

    #[test]
    fn select_without_prepare_still_works() {
        // Defensive path: a caller that skips prepare gets weighted
        // selection from freshly computed rates.
        let nn = emulated_cluster(4);
        let mut p = AdaptPolicy::new(12.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let node = p.select(&nn.cluster_view(), &|_| true, &mut rng);
        assert!(node.is_some());
    }

    #[test]
    fn threshold_keeps_adapt_distribution_capped() {
        let mut nn = emulated_cluster(8);
        let mut p = AdaptPolicy::new(12.0).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let m = 160;
        let file = nn
            .create_file("f", m, 1, &mut p, Threshold::PaperDefault, &mut rng)
            .unwrap();
        let cap = Threshold::PaperDefault.cap(m, 1, 8).unwrap();
        let dist = nn.file_distribution(file).unwrap();
        for &c in &dist {
            assert!(c <= cap, "distribution {dist:?} above cap {cap}");
        }
    }

    #[test]
    fn adapt_beats_random_on_expected_makespan() {
        // The core promise: weighting by 1/E[T] equalizes per-node
        // expected finish times, so the *max* over nodes of
        // (blocks × E[T]) is lower than under random placement.
        let mut nn_adapt = emulated_cluster(16);
        let mut nn_random = emulated_cluster(16);
        let m = 16 * 20;
        let mut rng = StdRng::seed_from_u64(7);
        let fa = nn_adapt
            .create_file(
                "f",
                m,
                1,
                &mut AdaptPolicy::new(12.0).unwrap(),
                Threshold::None,
                &mut rng,
            )
            .unwrap();
        let fr = nn_random
            .create_file(
                "f",
                m,
                1,
                &mut RandomPolicy::new(),
                Threshold::None,
                &mut rng,
            )
            .unwrap();

        let makespan = |nn: &NameNode, f| -> f64 {
            let dist = nn.file_distribution(f).unwrap();
            dist.iter()
                .enumerate()
                .map(|(i, &blocks)| {
                    let et = nn
                        .availability(NodeId(i as u32))
                        .unwrap()
                        .expected_completion(12.0)
                        .unwrap();
                    blocks as f64 * et
                })
                .fold(0.0, f64::max)
        };
        let adapt_makespan = makespan(&nn_adapt, fa);
        let random_makespan = makespan(&nn_random, fr);
        assert!(
            adapt_makespan < random_makespan,
            "adapt {adapt_makespan} vs random {random_makespan}"
        );
    }

    #[test]
    fn golden_placement_on_a_small_grant_of_a_large_cluster() {
        // The jobstream shape: a 4-node grant inside a 1,024-node
        // cluster, so most rejection draws miss and the weighted fallback
        // runs. Replica lists captured before the flat hash table and the
        // borrowed-rate fallback; placements must not move.
        let mut nn = emulated_cluster(1024);
        let grant = [NodeId(3), NodeId(517), NodeId(770), NodeId(1022)];
        let mut p = AdaptPolicy::new(12.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2012);
        let file = nn
            .create_file_on(
                "f",
                12,
                2,
                &mut p,
                Threshold::PaperDefault,
                &mut rng,
                &grant,
            )
            .unwrap();
        let replicas: Vec<Vec<u32>> = nn
            .file(file)
            .unwrap()
            .blocks()
            .iter()
            .map(|&b| nn.replicas(b).unwrap().iter().map(|n| n.0).collect())
            .collect();
        let golden: [[u32; 2]; 12] = [
            [770, 3],
            [3, 770],
            [1022, 770],
            [3, 770],
            [770, 3],
            [3, 770],
            [3, 1022],
            [3, 517],
            [1022, 3],
            [1022, 770],
            [3, 770],
            [770, 1022],
        ];
        assert_eq!(replicas, golden.map(Vec::from));
        assert_eq!(p.telemetry_snapshot().select_fallbacks, 20);
    }
}
