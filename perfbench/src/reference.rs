//! The host-speed reference `setup_s` and `run_s` are scaled by.
//!
//! On a shared host the same iteration runs 1.3 to 2 times slower, for
//! minutes at a time, while neighbouring guests keep the core's
//! execution units and caches busy (see `README.md`, *Clock*). The
//! thread's CPU clock cannot see that: the thread is running, only
//! slower. So the benchmark times a fixed piece of work of its own, the
//! reference, before the first set-up, between every two timed units
//! and after the last, and scales each unit's on-CPU time by
//! [`NOMINAL_S`] over the mean of the two reference timings around it.
//!
//! The reference is the benchmark's code, not the program's: a change to
//! the program moves the scaled times exactly as it moves the raw ones.
//! It is an ALU loop with independent lanes plus a branchy scan of a
//! 64 KiB table, which fits in the core's own caches and so adds nothing
//! to the peak resident memory the benchmark reports.

use std::hint::black_box;

use crate::clock::Stopwatch;

/// A round figure near the reference's on-CPU time on the 2-core host
/// `README.md` reports from: scaled times read in seconds of that host
/// at that speed.
pub const NOMINAL_S: f64 = 0.040;

/// Entries in the scanned table (64 KiB).
const SCAN_LEN: usize = 8192;
/// Passes over the table per timing.
const SCAN_PASSES: u64 = 400;
/// Steps of the independent-lane loop per timing.
const LANE_STEPS: u32 = 2_000_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The reference work and its table.
#[derive(Debug, Clone)]
pub struct Reference {
    table: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Builds the table (fixed contents).
    pub fn new() -> Self {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        Reference {
            table: (0..SCAN_LEN).map(|_| xorshift(&mut x)).collect(),
        }
    }

    /// Runs the reference work once and returns its on-CPU seconds.
    pub fn time(&self) -> f64 {
        let table = black_box(&self.table);
        let watch = Stopwatch::start();
        let mut lanes = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
        for _ in 0..LANE_STEPS {
            for lane in lanes.iter_mut() {
                xorshift(lane);
            }
        }
        black_box(lanes);
        let (mut count, mut pick) = (0u64, 0usize);
        for pass in 0..SCAN_PASSES {
            for (i, v) in table.iter().enumerate() {
                if (v ^ pass) % 3 != 0 && (v >> 7) & 15 > 4 {
                    count += 1;
                    if v.wrapping_mul(pass + 1) >> 60 == 0 {
                        pick = i;
                    }
                }
            }
        }
        black_box((count, pick));
        watch.elapsed().cpu_s
    }
}

/// `raw` seconds scaled to the quiet host, given the reference timings
/// taken just before and just after them.
pub fn scaled(raw: f64, before: f64, after: f64) -> f64 {
    raw * NOMINAL_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_running_at_half_speed_reads_half_the_time() {
        let slow = 2.0 * NOMINAL_S;
        assert_eq!(scaled(3.0, slow, slow), 1.5);
        assert_eq!(scaled(3.0, NOMINAL_S, NOMINAL_S), 3.0);
        assert!((scaled(3.0, NOMINAL_S, 3.0 * NOMINAL_S) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn the_reference_takes_time_and_repeats() {
        let reference = Reference::new();
        let first = reference.time();
        assert!(first > 0.0);
        assert_eq!(reference.table, Reference::new().table);
    }
}
