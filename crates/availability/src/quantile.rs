//! Streaming quantile estimation (the P² algorithm).
//!
//! Straggler analysis needs tails, not just means: the makespan of a map
//! phase is governed by high quantiles of per-node completion times, and
//! heavy-tailed outage durations make the mean a poor summary. [`P2`]
//! estimates a single quantile online in O(1) memory (Jain & Chlamtac,
//! CACM 1985); [`TailSummary`] bundles the quantiles experiment reports
//! use (p50/p90/p99/max).

use crate::AvailabilityError;

/// Streaming estimator of one quantile via the P² algorithm.
///
/// Exact until five observations have arrived, then maintains five
/// markers adjusted with piecewise-parabolic interpolation.
///
/// # Examples
///
/// ```
/// use adapt_availability::quantile::P2;
///
/// # fn main() -> Result<(), adapt_availability::AvailabilityError> {
/// let mut median = P2::new(0.5)?;
/// for x in 1..=1001 {
///     median.push(x as f64);
/// }
/// let est = median.estimate().unwrap();
/// assert!((est - 501.0).abs() < 5.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct P2 {
    q: f64,
    /// Marker heights.
    heights: [f64; 5],
    /// Marker positions (1-based observation counts).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    count: usize,
    /// Initial observations before the marker machinery engages.
    initial: Vec<f64>,
}

impl P2 {
    /// Creates an estimator for the `q`-quantile, `0 < q < 1`.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if `q` is outside
    /// `(0, 1)`.
    pub fn new(q: f64) -> Result<Self, AvailabilityError> {
        if !(q.is_finite() && 0.0 < q && q < 1.0) {
            return Err(AvailabilityError::InvalidParameter {
                name: "q",
                value: q,
                requirement: "must be within (0, 1)",
            });
        }
        Ok(P2::for_valid(q))
    }

    /// Infallible constructor for a compile-time-known valid quantile
    /// (used by [`TailSummary`], whose quantiles are fixed constants).
    fn for_valid(q: f64) -> Self {
        debug_assert!(q.is_finite() && 0.0 < q && q < 1.0);
        P2 {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
            initial: Vec::with_capacity(5),
        }
    }

    /// The quantile being estimated.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Number of (finite) observations pushed.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Adds one observation. Non-finite values are ignored.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        if self.initial.len() < 5 {
            self.initial.push(x);
            if self.initial.len() == 5 {
                self.initial.sort_by(f64::total_cmp);
                self.heights.copy_from_slice(&self.initial);
            }
            return;
        }

        // Locate the cell containing x and clamp extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut cell = 0;
            for i in 0..4 {
                if self.heights[i] <= x && x < self.heights[i + 1] {
                    cell = i;
                    break;
                }
            }
            cell
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }

        // Adjust interior markers.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right = self.positions[i + 1] - self.positions[i];
            let left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let s = d.signum();
                let parabolic = self.parabolic(i, s);
                let new_height =
                    if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                        parabolic
                    } else {
                        self.linear(i, s)
                    };
                self.heights[i] = new_height;
                self.positions[i] += s;
            }
        }
    }

    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let n = &self.positions;
        let h = &self.heights;
        h[i] + s / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + s) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - s) * (h[i] - h[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = if s > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + s * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current estimate, or `None` before any observation.
    ///
    /// With fewer than five observations the exact sample quantile is
    /// returned.
    pub fn estimate(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.initial.len() < 5 {
            let mut sorted = self.initial.clone();
            sorted.sort_by(f64::total_cmp);
            let idx =
                crate::num::round_to_index((crate::num::exact_f64(sorted.len()) - 1.0) * self.q);
            return sorted.get(idx).copied();
        }
        Some(self.heights[2])
    }
}

/// The tail quantiles experiment reports care about.
#[derive(Debug, Clone, PartialEq)]
pub struct TailSummary {
    p50: P2,
    p90: P2,
    p99: P2,
    max: f64,
    count: usize,
}

impl TailSummary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        TailSummary {
            p50: P2::for_valid(0.5),
            p90: P2::for_valid(0.9),
            p99: P2::for_valid(0.99),
            max: f64::NEG_INFINITY,
            count: 0,
        }
    }

    /// Adds one observation (non-finite values ignored).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.p50.push(x);
        self.p90.push(x);
        self.p99.push(x);
        self.max = self.max.max(x);
        self.count += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<f64> {
        self.p50.estimate()
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> Option<f64> {
        self.p90.estimate()
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<f64> {
        self.p99.estimate()
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl Default for TailSummary {
    fn default() -> Self {
        TailSummary::new()
    }
}

impl FromIterator<f64> for TailSummary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut t = TailSummary::new();
        for x in iter {
            t.push(x);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Exponential, Sample};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_out_of_range_quantiles() {
        assert!(P2::new(0.0).is_err());
        assert!(P2::new(1.0).is_err());
        assert!(P2::new(-0.5).is_err());
        assert!(P2::new(f64::NAN).is_err());
    }

    #[test]
    fn empty_estimator_returns_none() {
        assert_eq!(P2::new(0.5).unwrap().estimate(), None);
        assert_eq!(TailSummary::new().p50(), None);
        assert_eq!(TailSummary::new().max(), None);
    }

    #[test]
    fn small_samples_are_exact() {
        let mut p = P2::new(0.5).unwrap();
        p.push(3.0);
        assert_eq!(p.estimate(), Some(3.0));
        p.push(1.0);
        p.push(2.0);
        assert_eq!(p.estimate(), Some(2.0));
    }

    #[test]
    fn median_of_uniform_stream() {
        let mut p = P2::new(0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50_000 {
            p.push(adapt_dist_sample(&mut rng));
        }
        let est = p.estimate().unwrap();
        assert!((est - 0.5).abs() < 0.02, "median estimate {est}");
    }

    fn adapt_dist_sample(rng: &mut StdRng) -> f64 {
        crate::dist::uniform_open01(rng)
    }

    #[test]
    fn exponential_quantiles_match_theory() {
        // Exp(1): p50 = ln 2, p90 = ln 10, p99 = ln 100.
        let d = Exponential::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let t: TailSummary = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        assert!(
            (t.p50().unwrap() - 2f64.ln()).abs() < 0.02,
            "p50 {:?}",
            t.p50()
        );
        assert!(
            (t.p90().unwrap() - 10f64.ln()).abs() < 0.07,
            "p90 {:?}",
            t.p90()
        );
        assert!(
            (t.p99().unwrap() - 100f64.ln()).abs() < 0.3,
            "p99 {:?}",
            t.p99()
        );
        assert!(t.max().unwrap() >= t.p99().unwrap());
    }

    #[test]
    fn deterministic_stream_estimates_exactly() {
        // A degenerate (deterministic) distribution: every quantile of a
        // constant stream is the constant itself, exactly — the marker
        // interpolation must never drift off it.
        for q in [0.1, 0.5, 0.9, 0.99] {
            let mut p = P2::new(q).unwrap();
            for _ in 0..10_000 {
                p.push(7.25);
            }
            assert_eq!(p.estimate(), Some(7.25), "q = {q}");
        }
        let t: TailSummary = std::iter::repeat_n(7.25, 10_000).collect();
        assert_eq!(t.p50(), Some(7.25));
        assert_eq!(t.p90(), Some(7.25));
        assert_eq!(t.p99(), Some(7.25));
        assert_eq!(t.max(), Some(7.25));
    }

    #[test]
    fn non_finite_observations_are_ignored() {
        let mut t = TailSummary::new();
        t.push(f64::NAN);
        t.push(f64::INFINITY);
        assert_eq!(t.count(), 0);
        t.push(1.0);
        assert_eq!(t.count(), 1);
        assert_eq!(t.max(), Some(1.0));
    }

    proptest! {
        #[test]
        fn estimate_is_within_sample_range(
            xs in prop::collection::vec(-1e6f64..1e6, 1..500),
            q in 0.05f64..0.95,
        ) {
            let mut p = P2::new(q).unwrap();
            for &x in &xs {
                p.push(x);
            }
            let est = p.estimate().unwrap();
            let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(est >= min - 1e-9 && est <= max + 1e-9, "estimate {est} outside [{min}, {max}]");
        }

        #[test]
        fn estimates_are_monotone_in_q(
            xs in prop::collection::vec(0.0f64..1e4, 20..400),
        ) {
            // Monotonicity across the quantile ladder: on one data
            // stream, a higher q must not estimate lower. P² markers
            // interpolate, so adjacent estimates may cross by a sliver;
            // allow slack relative to the data range, as in
            // `quantiles_are_ordered`.
            let ladder = [0.1, 0.25, 0.5, 0.75, 0.9];
            let mut estimators: Vec<P2> = ladder
                .iter()
                .map(|&q| P2::new(q).unwrap())
                .collect();
            for &x in &xs {
                for p in &mut estimators {
                    p.push(x);
                }
            }
            let range = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - xs.iter().copied().fold(f64::INFINITY, f64::min);
            let slack = 1e-9 + range * 0.05;
            let estimates: Vec<f64> =
                estimators.iter().map(|p| p.estimate().unwrap()).collect();
            for window in estimates.windows(2) {
                prop_assert!(
                    window[0] <= window[1] + slack,
                    "quantile estimates not monotone: {estimates:?}"
                );
            }
        }

        #[test]
        fn quantiles_are_ordered(xs in prop::collection::vec(0.0f64..1e4, 10..300)) {
            let t: TailSummary = xs.iter().copied().collect();
            let (p50, p90, p99) = (t.p50().unwrap(), t.p90().unwrap(), t.p99().unwrap());
            // P² markers can cross slightly on adversarial streams; allow
            // a small tolerance relative to the data range.
            let slack = 1e-6 + (t.max().unwrap()) * 0.05;
            prop_assert!(p50 <= p90 + slack, "p50 {p50} > p90 {p90}");
            prop_assert!(p90 <= p99 + slack, "p90 {p90} > p99 {p99}");
            prop_assert!(p99 <= t.max().unwrap() + slack);
        }
    }
}
