//! Algorithm 1: the weighted placement hash table.
//!
//! `buildHashTable` lays the nodes' normalized rates end-to-end over the
//! key space `[0, m)` (`m` = number of blocks): node `i` covers an
//! interval of length `wᵢ = m · rateᵢ`. Integer keys whose unit interval
//! is covered by more than one node form a *collision chain*;
//! `dataPlacement` first draws a uniform key `r ∈ [0, m)` and then, on a
//! collision, draws again among the chain members.
//!
//! The paper resolves chains weighting each member by its full `rateᵢ`
//! (normalized over the chain, `rateᵢ/Ω`). Because a chain member may only
//! *partially* overlap the key's unit interval, this slightly biases
//! placement toward wide-interval nodes; the exact resolution weights each
//! member by its overlap length with the key's interval. Both are
//! implemented — [`ChainWeighting::Rate`] (paper-faithful, the default)
//! and [`ChainWeighting::Overlap`] (exact) — and the difference is one of
//! the reproduction's ablations.
//!
//! The table is stored flat: one offsets array of length `m + 1` over one
//! array of chain entries, each carrying its chain's cumulative threshold
//! `low + w/Ω`, precomputed by [`PlacementHashTable::build`]. A
//! [`lookup`](PlacementHashTable::lookup) therefore costs one binary
//! search over its chain, `O(log chain)`, and allocates nothing;
//! [`sample`](PlacementHashTable::sample) adds one rejection-sampled
//! uniform key draw.

use rand::Rng;

use adapt_dfs::DfsError;

/// How a collision chain distributes probability among its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChainWeighting {
    /// The paper's rule: member `i` is chosen with probability
    /// `rateᵢ / Σ_chain rate`.
    #[default]
    Rate,
    /// Exact rule: member `i` is chosen with probability proportional to
    /// the length of its overlap with the key's unit interval, making the
    /// table's marginal distribution exactly proportional to the rates.
    Overlap,
}

/// The block-key → node placement table of Algorithm 1.
///
/// # Examples
///
/// ```
/// use adapt_core::{ChainWeighting, PlacementHashTable};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), adapt_dfs::DfsError> {
/// // Node 0 twice as fast as node 1.
/// let table = PlacementHashTable::build(&[2.0, 1.0], 9, ChainWeighting::Rate)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let node = table.sample(&mut rng);
/// assert!(node < 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementHashTable {
    /// Key `j`'s collision chain is entries `offsets[j]..offsets[j + 1]`
    /// of `nodes` and `thresholds` (length `m + 1`).
    offsets: Vec<usize>,
    /// Chain members, each chain in node order.
    nodes: Vec<usize>,
    /// Cumulative chain probability through each entry, `low + w/Ω`,
    /// accumulated in chain order with the table's [`ChainWeighting`].
    thresholds: Vec<f64>,
    /// Rejection zone of the uniform key draw: `u64::MAX − (u64::MAX mod m)`.
    zone: u64,
    node_count: usize,
}

impl PlacementHashTable {
    /// Builds the table for `m` keys from per-node rates (any non-negative
    /// weights; they are normalized internally). Nodes with zero rate
    /// receive no keys.
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::InvalidArgument`] if `m == 0`, `rates` is
    /// empty, any rate is negative or non-finite, or all rates are zero.
    pub fn build(rates: &[f64], m: usize, weighting: ChainWeighting) -> Result<Self, DfsError> {
        if m == 0 {
            return Err(DfsError::InvalidArgument {
                name: "m",
                reason: "hash table needs at least one key".into(),
            });
        }
        if rates.is_empty() {
            return Err(DfsError::InvalidArgument {
                name: "rates",
                reason: "at least one node required".into(),
            });
        }
        if rates.iter().any(|r| !r.is_finite() || *r < 0.0) {
            return Err(DfsError::InvalidArgument {
                name: "rates",
                reason: "rates must be finite and non-negative".into(),
            });
        }
        let phi: f64 = rates.iter().sum();
        if phi <= 0.0 {
            return Err(DfsError::InvalidArgument {
                name: "rates",
                reason: "all rates are zero; no node can accept data".into(),
            });
        }
        let weight = |rate: f64, overlap: f64| match weighting {
            ChainWeighting::Rate => rate,
            ChainWeighting::Overlap => overlap,
        };

        // The intervals lie end to end in node order, so one pass emits
        // the (key, node) entries sorted by key, each chain in node order.
        // `thresholds` holds the raw weights until the chains are closed.
        let mut offsets: Vec<usize> = Vec::with_capacity(m + 1);
        let mut nodes: Vec<usize> = Vec::with_capacity(m + rates.len());
        let mut thresholds: Vec<f64> = Vec::with_capacity(m + rates.len());
        let mut tail = None;
        let mut a = 0.0_f64;
        for (node, &raw) in rates.iter().enumerate() {
            let rate = raw / phi;
            if rate == 0.0 {
                continue;
            }
            let w = m as f64 * rate;
            let b = (a + w).min(m as f64);
            // Every key j whose unit interval [j, j+1) overlaps [a, b).
            let first = a.floor() as usize;
            let last = (b.ceil() as usize).min(m);
            for j in first..last {
                let overlap = (b.min((j + 1) as f64) - a.max(j as f64)).max(0.0);
                if overlap > 1e-12 {
                    debug_assert!(offsets.len() <= j + 1, "keys arrive in order");
                    offsets.resize(j + 1, nodes.len());
                    nodes.push(node);
                    thresholds.push(weight(rate, overlap));
                    tail = Some((j, node, rate));
                }
            }
            a += w;
        }
        // Float drift can leave the last key uncovered; extend the final
        // node to the end of the key space.
        if let Some((last_covered, node, rate)) = tail {
            for _ in last_covered + 1..m {
                offsets.push(nodes.len());
                nodes.push(node);
                thresholds.push(weight(rate, 1.0));
            }
        }
        offsets.resize(m + 1, nodes.len());
        for chain in offsets.windows(2) {
            let chain = &mut thresholds[chain[0]..chain[1]];
            let omega: f64 = chain.iter().sum();
            let mut low = 0.0;
            for h in chain {
                *h = low + *h / omega;
                low = *h;
            }
        }
        let keys = m as u64;
        Ok(PlacementHashTable {
            offsets,
            nodes,
            thresholds,
            zone: u64::MAX - (u64::MAX % keys),
            node_count: rates.len(),
        })
    }

    /// Number of keys (`m`).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the table has no keys (never true for a built table).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of nodes the table was built over.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The longest collision chain — a measure of the table's memory
    /// overhead on the NameNode.
    pub fn max_chain_len(&self) -> usize {
        self.chain_lengths().max().unwrap_or(0)
    }

    /// The collision-chain length of every slot, in key order (feeds the
    /// policy's chain-length telemetry histogram).
    pub fn chain_lengths(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets.windows(2).map(|c| c[1] - c[0])
    }

    /// Resolves key `r` using secondary draw `r1 ∈ [0, 1)`
    /// (`dataPlacement` in Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics if `r >= len()` (keys come from
    /// [`sample`](PlacementHashTable::sample) or a bounded generator).
    pub fn lookup(&self, r: usize, r1: f64) -> usize {
        let (start, end) = (self.offsets[r], self.offsets[r + 1]);
        if start == end {
            debug_assert!(false, "every key must be covered (guaranteed by build)");
            return 0;
        }
        // The first member whose threshold exceeds `r1`; the final member
        // absorbs any floating-point shortfall, so `r1` close to 1 still
        // resolves.
        let k = self.thresholds[start..end - 1].partition_point(|&h| h <= r1);
        self.nodes[start + k]
    }

    /// Draws one placement: uniform key, then chain resolution.
    pub fn sample(&self, rng: &mut dyn Rng) -> usize {
        // Modulo-bias-free uniform key in [0, m).
        let keys = self.len() as u64;
        let r = loop {
            let v = rng.next_u64();
            if v < self.zone {
                break (v % keys) as usize;
            }
        };
        let r1 = adapt_availability::dist::uniform_open01(rng);
        self.lookup(r, r1)
    }

    /// The marginal probability that a sample lands on `node`, summed
    /// from the chain thresholds (exact up to rounding; used by tests).
    pub fn node_probability(&self, node: usize) -> f64 {
        let m = self.len() as f64;
        self.offsets
            .windows(2)
            .map(|chain| {
                let mut low = 0.0;
                let mut p = 0.0;
                for k in chain[0]..chain[1] {
                    let high = self.thresholds[k];
                    if self.nodes[k] == node {
                        p += high - low;
                    }
                    low = high;
                }
                p / m
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn build_rejects_degenerate_inputs() {
        assert!(PlacementHashTable::build(&[], 4, ChainWeighting::Rate).is_err());
        assert!(PlacementHashTable::build(&[1.0], 0, ChainWeighting::Rate).is_err());
        assert!(PlacementHashTable::build(&[0.0, 0.0], 4, ChainWeighting::Rate).is_err());
        assert!(PlacementHashTable::build(&[-1.0, 2.0], 4, ChainWeighting::Rate).is_err());
        assert!(PlacementHashTable::build(&[f64::NAN], 4, ChainWeighting::Rate).is_err());
    }

    #[test]
    fn every_key_is_covered() {
        for &m in &[1usize, 2, 7, 64, 1000] {
            let t = PlacementHashTable::build(&[3.0, 1.0, 2.0], m, ChainWeighting::Rate).unwrap();
            assert_eq!(t.len(), m);
            for r in 0..m {
                let node = t.lookup(r, 0.5);
                assert!(node < 3);
            }
        }
    }

    #[test]
    fn single_node_gets_everything() {
        let t = PlacementHashTable::build(&[5.0], 16, ChainWeighting::Rate).unwrap();
        for r in 0..16 {
            assert_eq!(t.lookup(r, 0.3), 0);
        }
        assert!((t.node_probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_rate_node_receives_nothing() {
        let t = PlacementHashTable::build(&[1.0, 0.0, 1.0], 100, ChainWeighting::Rate).unwrap();
        assert_eq!(t.node_probability(1), 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..500 {
            assert_ne!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    fn overlap_weighting_is_exactly_proportional() {
        let rates = [0.37, 0.13, 0.29, 0.21];
        let t = PlacementHashTable::build(&rates, 53, ChainWeighting::Overlap).unwrap();
        for (i, &r) in rates.iter().enumerate() {
            let p = t.node_probability(i);
            assert!(
                (p - r).abs() < 1e-9,
                "node {i}: probability {p} vs rate {r}"
            );
        }
    }

    #[test]
    fn rate_weighting_is_approximately_proportional() {
        // With m >> n the chain bias is tiny.
        let rates = [0.4, 0.1, 0.3, 0.2];
        let t = PlacementHashTable::build(&rates, 1_000, ChainWeighting::Rate).unwrap();
        for (i, &r) in rates.iter().enumerate() {
            let p = t.node_probability(i);
            assert!(
                (p - r).abs() < 0.01,
                "node {i}: probability {p} vs rate {r}"
            );
        }
    }

    #[test]
    fn uniform_rates_give_uniform_probabilities() {
        // The Section III-C equivalence at the table level.
        let t = PlacementHashTable::build(&[1.0; 8], 64, ChainWeighting::Rate).unwrap();
        for i in 0..8 {
            assert!((t.node_probability(i) - 0.125).abs() < 1e-9);
        }
        assert_eq!(t.max_chain_len(), 1); // perfectly aligned intervals
    }

    #[test]
    fn empirical_sampling_matches_marginals() {
        let rates = [2.0, 1.0, 1.0];
        let t = PlacementHashTable::build(&rates, 40, ChainWeighting::Overlap).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0usize; 3];
        let trials = 60_000;
        for _ in 0..trials {
            counts[t.sample(&mut rng)] += 1;
        }
        let expect = [0.5, 0.25, 0.25];
        for i in 0..3 {
            let frac = counts[i] as f64 / trials as f64;
            assert!(
                (frac - expect[i]).abs() < 0.01,
                "node {i}: sampled {frac} vs expected {}",
                expect[i]
            );
        }
    }

    #[test]
    fn chains_are_short_when_m_large() {
        let t = PlacementHashTable::build(&[1.0; 16], 320, ChainWeighting::Rate).unwrap();
        assert!(t.max_chain_len() <= 2);
        assert_eq!(t.node_count(), 16);
        assert!(!t.is_empty());
    }

    /// The table as first written — `Vec<Vec<_>>` chains, `Ω` re-summed
    /// and the chain scanned linearly on every lookup — kept as the
    /// equivalence oracle for the flat layout.
    mod oracle {
        use super::ChainWeighting;

        #[derive(Clone, Copy)]
        struct ChainEntry {
            node: usize,
            rate: f64,
            overlap: f64,
        }

        pub struct Table {
            slots: Vec<Vec<ChainEntry>>,
            weighting: ChainWeighting,
        }

        impl Table {
            pub fn build(rates: &[f64], m: usize, weighting: ChainWeighting) -> Table {
                let phi: f64 = rates.iter().sum();
                let mut slots: Vec<Vec<ChainEntry>> = vec![Vec::new(); m];
                let mut a = 0.0_f64;
                for (node, &raw) in rates.iter().enumerate() {
                    let rate = raw / phi;
                    if rate == 0.0 {
                        continue;
                    }
                    let w = m as f64 * rate;
                    let b = (a + w).min(m as f64);
                    let first = a.floor() as usize;
                    let last = (b.ceil() as usize).min(m);
                    for (j, slot) in slots.iter_mut().enumerate().take(last).skip(first) {
                        let overlap = (b.min((j + 1) as f64) - a.max(j as f64)).max(0.0);
                        if overlap > 1e-12 {
                            slot.push(ChainEntry {
                                node,
                                rate,
                                overlap,
                            });
                        }
                    }
                    a += w;
                }
                if let Some((last_covered, entry)) = slots
                    .iter()
                    .enumerate()
                    .rev()
                    .find_map(|(j, s)| s.last().map(|e| (j, *e)))
                {
                    for slot in slots.iter_mut().skip(last_covered + 1) {
                        slot.push(ChainEntry {
                            overlap: 1.0,
                            ..entry
                        });
                    }
                }
                Table { slots, weighting }
            }

            fn weight(&self, e: &ChainEntry) -> f64 {
                match self.weighting {
                    ChainWeighting::Rate => e.rate,
                    ChainWeighting::Overlap => e.overlap,
                }
            }

            pub fn chain_len(&self, r: usize) -> usize {
                self.slots[r].len()
            }

            /// The cumulative thresholds `lookup` compares against on
            /// chain `r`, in scan order.
            pub fn thresholds(&self, r: usize) -> Vec<f64> {
                let chain = &self.slots[r];
                let omega: f64 = chain.iter().map(|e| self.weight(e)).sum();
                let mut low = 0.0;
                chain
                    .iter()
                    .map(|e| {
                        low += self.weight(e) / omega;
                        low
                    })
                    .collect()
            }

            pub fn lookup(&self, r: usize, r1: f64) -> usize {
                let chain = &self.slots[r];
                let (last, rest) = chain.split_last().expect("every key is covered");
                if rest.is_empty() {
                    return last.node;
                }
                let omega: f64 = chain.iter().map(|e| self.weight(e)).sum();
                let mut low = 0.0;
                for e in rest {
                    let high = low + self.weight(e) / omega;
                    if r1 < high {
                        return e.node;
                    }
                    low = high;
                }
                last.node
            }
        }
    }

    /// The secondary draws worth probing on chain `r`: each threshold
    /// exactly and one ulp below it, the smallest positive draw and the
    /// largest draw below 1.
    fn probe_draws(oracle: &oracle::Table, r: usize) -> Vec<f64> {
        let mut draws = vec![0.0, 5e-324, f64::MIN_POSITIVE, 1.0 - f64::EPSILON / 2.0];
        for h in oracle.thresholds(r) {
            draws.push(h);
            if h > 0.0 {
                draws.push(f64::from_bits(h.to_bits() - 1));
            }
        }
        draws.retain(|r1| (0.0..1.0).contains(r1));
        draws
    }

    fn assert_matches_oracle(rates: &[f64], m: usize, weighting: ChainWeighting) {
        let table = PlacementHashTable::build(rates, m, weighting).unwrap();
        let oracle = oracle::Table::build(rates, m, weighting);
        let lengths: Vec<usize> = table.chain_lengths().collect();
        for (r, &len) in lengths.iter().enumerate() {
            assert_eq!(len, oracle.chain_len(r), "key {r}, {weighting:?}");
            for r1 in probe_draws(&oracle, r) {
                assert_eq!(
                    table.lookup(r, r1),
                    oracle.lookup(r, r1),
                    "key {r}, r1 {r1:e}, {weighting:?}"
                );
            }
        }
    }

    /// 1,024 rates with zeros and ties.
    fn golden_rates() -> Vec<f64> {
        (0..1024u64)
            .map(|i| ((i * 7919) % 13) as f64 * 0.25)
            .collect()
    }

    #[test]
    fn long_chains_match_oracle() {
        for weighting in [ChainWeighting::Rate, ChainWeighting::Overlap] {
            assert_matches_oracle(&golden_rates(), 2, weighting);
            assert_matches_oracle(&golden_rates(), 300, weighting);
        }
    }

    #[test]
    fn golden_samples_on_long_chains() {
        // Captured from the chained-vector table the flat layout
        // replaced: 1,024 rates over m = 2 keys, so each chain holds
        // hundreds of members.
        #[rustfmt::skip]
        const RATE: [usize; 256] = [
            772, 857, 103, 200, 557, 272, 379, 414, 109, 402, 292, 121, 160, 396, 883, 472,
            438, 230, 305, 732, 974, 606, 838, 359, 530, 106, 718, 19, 733, 51, 860, 347,
            242, 506, 352, 862, 817, 1016, 264, 629, 690, 661, 796, 302, 966, 721, 521, 685,
            19, 922, 421, 721, 987, 184, 1005, 383, 86, 941, 317, 56, 289, 322, 329, 848,
            938, 940, 396, 803, 581, 558, 298, 1000, 498, 428, 804, 368, 518, 623, 5, 730,
            697, 607, 323, 465, 285, 994, 882, 194, 1010, 35, 821, 219, 400, 734, 725, 76,
            668, 1018, 854, 877, 175, 19, 552, 225, 674, 534, 207, 135, 292, 944, 919, 925,
            907, 954, 220, 389, 461, 987, 344, 38, 94, 704, 552, 302, 864, 740, 222, 310,
            726, 688, 199, 531, 796, 721, 28, 1012, 805, 83, 721, 491, 971, 447, 544, 116,
            437, 759, 818, 721, 634, 630, 999, 200, 825, 926, 428, 552, 220, 628, 577, 597,
            465, 258, 792, 701, 719, 369, 140, 110, 1007, 829, 434, 335, 730, 810, 363, 254,
            657, 707, 967, 938, 136, 512, 791, 682, 239, 353, 926, 537, 848, 428, 791, 257,
            838, 220, 371, 882, 63, 330, 68, 346, 220, 36, 110, 58, 601, 131, 396, 762,
            1002, 370, 961, 889, 266, 972, 343, 935, 744, 135, 492, 344, 973, 927, 138, 265,
            746, 576, 198, 396, 612, 142, 674, 932, 977, 909, 870, 70, 129, 174, 408, 89,
            877, 227, 360, 716, 317, 779, 718, 25, 630, 116, 297, 523, 261, 667, 419, 303,
        ];
        #[rustfmt::skip]
        const OVERLAP: [usize; 256] = [
            772, 859, 103, 199, 557, 272, 378, 414, 109, 402, 292, 121, 160, 396, 883, 471,
            437, 230, 305, 732, 974, 607, 838, 357, 531, 105, 718, 19, 733, 51, 861, 347,
            242, 505, 350, 862, 817, 1016, 264, 629, 691, 661, 796, 302, 966, 723, 523, 686,
            19, 922, 421, 721, 987, 183, 1005, 382, 86, 941, 317, 56, 289, 321, 329, 848,
            938, 940, 396, 803, 582, 561, 298, 1000, 498, 427, 804, 367, 519, 623, 5, 731,
            698, 607, 322, 465, 284, 994, 882, 194, 1010, 35, 822, 218, 400, 734, 726, 76,
            668, 1018, 854, 877, 175, 19, 554, 225, 674, 536, 206, 135, 292, 944, 919, 925,
            907, 954, 220, 388, 461, 987, 344, 37, 94, 704, 552, 302, 864, 740, 220, 309,
            726, 688, 199, 532, 796, 721, 28, 1012, 805, 83, 721, 490, 971, 447, 544, 116,
            435, 759, 818, 723, 634, 630, 999, 200, 825, 926, 428, 552, 219, 628, 577, 600,
            464, 257, 792, 701, 719, 369, 140, 110, 1007, 829, 433, 335, 731, 810, 363, 253,
            659, 707, 967, 938, 136, 513, 791, 682, 239, 350, 927, 538, 849, 428, 791, 256,
            838, 220, 370, 882, 63, 330, 68, 344, 220, 36, 110, 58, 602, 131, 395, 763,
            1002, 370, 961, 889, 265, 972, 343, 935, 745, 135, 491, 343, 973, 927, 136, 264,
            747, 577, 198, 396, 613, 142, 675, 932, 977, 909, 870, 70, 129, 174, 408, 89,
            877, 227, 360, 717, 317, 781, 719, 25, 630, 116, 297, 524, 259, 667, 419, 302,
        ];
        for (weighting, golden) in [
            (ChainWeighting::Rate, RATE),
            (ChainWeighting::Overlap, OVERLAP),
        ] {
            let t = PlacementHashTable::build(&golden_rates(), 2, weighting).unwrap();
            assert_eq!(t.max_chain_len(), 473);
            let mut rng = StdRng::seed_from_u64(2012);
            let drawn: Vec<usize> = (0..256).map(|_| t.sample(&mut rng)).collect();
            assert_eq!(drawn, golden, "{weighting:?}");
        }
    }

    proptest! {
        #[test]
        fn lookup_matches_oracle(
            rates in prop::collection::vec(
                (0u32..3, 0.0f64..10.0).prop_map(|(kind, x)| match kind {
                    0 => 0.0,
                    1 => x * 1e-6,
                    _ => x,
                }),
                1..64,
            ),
            m in 1usize..301,
        ) {
            prop_assume!(rates.iter().sum::<f64>() > 0.0);
            for weighting in [ChainWeighting::Rate, ChainWeighting::Overlap] {
                assert_matches_oracle(&rates, m, weighting);
            }
        }

        #[test]
        fn probabilities_sum_to_one(
            rates in prop::collection::vec(0.0f64..10.0, 1..20),
            m in 1usize..200,
        ) {
            prop_assume!(rates.iter().sum::<f64>() > 0.0);
            for weighting in [ChainWeighting::Rate, ChainWeighting::Overlap] {
                let t = PlacementHashTable::build(&rates, m, weighting).unwrap();
                let total: f64 = (0..rates.len()).map(|i| t.node_probability(i)).sum();
                prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
            }
        }

        #[test]
        fn overlap_marginals_match_rates(
            rates in prop::collection::vec(0.01f64..10.0, 1..12),
            m in 1usize..100,
        ) {
            let t = PlacementHashTable::build(&rates, m, ChainWeighting::Overlap).unwrap();
            let phi: f64 = rates.iter().sum();
            for (i, &r) in rates.iter().enumerate() {
                prop_assert!((t.node_probability(i) - r / phi).abs() < 1e-9);
            }
        }

        #[test]
        fn lookup_never_returns_zero_rate_node(
            m in 1usize..100,
            r1 in 0.0f64..1.0,
        ) {
            let rates = [1.0, 0.0, 3.0];
            let t = PlacementHashTable::build(&rates, m, ChainWeighting::Rate).unwrap();
            for r in 0..m {
                prop_assert_ne!(t.lookup(r, r1), 1);
            }
        }
    }
}
