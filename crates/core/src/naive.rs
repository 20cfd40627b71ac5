//! The naive availability-proportional baseline (paper Section V-C).
//!
//! "A straightforward alternative to ADAPT is to dispatch the data blocks
//! based on the availability of each node, `(MTBI − μ)/MTBI`." The naive
//! policy ignores the task length `γ` and the nonlinear interaction
//! between rework and recovery that equation (5) captures; the paper shows
//! it beats random placement but loses to ADAPT, and this reproduction's
//! Figure 5 harness includes it for the same comparison.

use rand::Rng;

use adapt_dfs::placement::{ClusterView, PlacementPolicy};
use adapt_dfs::{DfsError, NodeId};

use crate::weighted::weighted_select;

/// Weights nodes by the steady-state availability `(MTBI − μ)/MTBI`
/// (equivalently `1 − λμ`, clamped at zero).
#[derive(Debug, Clone, Default)]
pub struct NaivePolicy {
    weights: Option<Vec<f64>>,
    /// Scratch for the candidate list, reused across selects.
    candidates: Vec<(NodeId, f64)>,
}

impl NaivePolicy {
    /// Creates the naive policy.
    pub fn new() -> Self {
        NaivePolicy::default()
    }

    /// The weights computed by the last `prepare`, if any.
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    fn compute_weights(cluster: &ClusterView) -> Vec<f64> {
        cluster
            .nodes()
            .iter()
            .map(|n| {
                if !n.alive {
                    return 0.0;
                }
                (1.0 - n.availability.lambda * n.availability.mu).max(0.0)
            })
            .collect()
    }
}

impl PlacementPolicy for NaivePolicy {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn prepare(&mut self, cluster: &ClusterView, _num_blocks: usize) -> Result<(), DfsError> {
        let weights = NaivePolicy::compute_weights(cluster);
        if weights.iter().all(|&w| w <= 0.0) && cluster.alive_count() == 0 {
            return Err(DfsError::InsufficientNodes {
                needed: 1,
                eligible: 0,
            });
        }
        self.weights = Some(weights);
        Ok(())
    }

    fn select(
        &mut self,
        cluster: &ClusterView,
        eligible: &dyn Fn(NodeId) -> bool,
        rng: &mut dyn Rng,
    ) -> Option<NodeId> {
        let weights = self
            .weights
            .get_or_insert_with(|| NaivePolicy::compute_weights(cluster));
        weighted_select(cluster, weights, eligible, rng, &mut self.candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_dfs::cluster::{NodeAvailability, NodeSpec};
    use adapt_dfs::namenode::{NameNode, Threshold};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn weights_match_availability_formula() {
        let specs = vec![
            NodeSpec::new(NodeAvailability::reliable()),
            // MTBI 20, mu 8: availability 0.6.
            NodeSpec::new(NodeAvailability::from_mtbi(20.0, 8.0).unwrap()),
            // MTBI 10, mu 8: availability 0.2.
            NodeSpec::new(NodeAvailability::from_mtbi(10.0, 8.0).unwrap()),
        ];
        let nn = NameNode::new(specs);
        let mut p = NaivePolicy::new();
        p.prepare(&nn.cluster_view(), 10).unwrap();
        let w = p.weights().unwrap();
        assert!((w[0] - 1.0).abs() < 1e-12);
        assert!((w[1] - 0.6).abs() < 1e-12);
        assert!((w[2] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn unstable_node_weight_clamps_to_zero() {
        // MTBI 5, mu 10: availability formula is negative -> 0.
        let nn = NameNode::new(vec![
            NodeSpec::new(NodeAvailability::from_mtbi(5.0, 10.0).unwrap()),
            NodeSpec::new(NodeAvailability::reliable()),
        ]);
        let mut p = NaivePolicy::new();
        p.prepare(&nn.cluster_view(), 10).unwrap();
        assert_eq!(p.weights().unwrap()[0], 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            assert_eq!(
                p.select(&nn.cluster_view(), &|_| true, &mut rng),
                Some(NodeId(1))
            );
        }
    }

    #[test]
    fn distribution_tracks_availability_ratio() {
        let specs = vec![
            NodeSpec::new(NodeAvailability::from_mtbi(20.0, 4.0).unwrap()), // 0.8
            NodeSpec::new(NodeAvailability::from_mtbi(10.0, 8.0).unwrap()), // 0.2
        ];
        let mut nn = NameNode::new(specs);
        let mut p = NaivePolicy::new();
        let mut rng = StdRng::seed_from_u64(1);
        let m = 5_000;
        let file = nn
            .create_file("f", m, 1, &mut p, Threshold::None, &mut rng)
            .unwrap();
        let dist = nn.file_distribution(file).unwrap();
        let share0 = dist[0] as f64 / m as f64;
        assert!((share0 - 0.8).abs() < 0.02, "share {share0}");
    }

    #[test]
    fn naive_differs_from_adapt_weighting() {
        // Two nodes with equal availability 0.6 but different failure
        // granularity: naive treats them identically, ADAPT does not
        // (frequent short interruptions force more rework per task).
        let fine = NodeAvailability::from_mtbi(10.0, 4.0).unwrap(); // 0.6
        let coarse = NodeAvailability::from_mtbi(100.0, 40.0).unwrap(); // 0.6
        let naive_fine = (1.0 - fine.lambda * fine.mu).max(0.0);
        let naive_coarse = (1.0 - coarse.lambda * coarse.mu).max(0.0);
        assert!((naive_fine - naive_coarse).abs() < 1e-12);

        let et_fine = fine.expected_completion(12.0).unwrap();
        let et_coarse = coarse.expected_completion(12.0).unwrap();
        assert!(
            (et_fine - et_coarse).abs() > 1.0,
            "equation (5) distinguishes what naive cannot: {et_fine} vs {et_coarse}"
        );
    }

    #[test]
    fn select_without_prepare_computes_weights() {
        let nn = NameNode::new(vec![NodeSpec::default(); 3]);
        let mut p = NaivePolicy::new();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(p.select(&nn.cluster_view(), &|_| true, &mut rng).is_some());
    }

    #[test]
    fn all_dead_cluster_fails_prepare() {
        let mut nn = NameNode::new(vec![NodeSpec::default(); 2]);
        nn.mark_down(NodeId(0)).unwrap();
        nn.mark_down(NodeId(1)).unwrap();
        let mut p = NaivePolicy::new();
        assert!(p.prepare(&nn.cluster_view(), 10).is_err());
    }
}
