//! Layer kernels timed alone, at a workload's real size and on its real
//! inputs, for the traced run's per-layer numbers and reconciliation.

use std::hint::black_box;
use std::time::{Duration, Instant};

use adapt_core::{ChainWeighting, PerformancePredictor, PlacementHashTable};
use adapt_dfs::NodeId;
use adapt_ds::MinHeap4;
use adapt_experiments::PolicyKind;
use adapt_net::Topology;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::probe::PlacementInput;
use crate::stats::median;
use crate::workload::{BenchError, GAMMA};

/// Batches per kernel; the reported cost is their median.
const BATCHES: usize = 5;

/// A draw in `[lo, hi)` (modulo bias is irrelevant for kernel inputs).
fn below(rng: &mut StdRng, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo)
}

/// A draw in `[0, 1)`.
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Nanoseconds per unit of each kernel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Kernels {
    /// `PlacementPolicy::select` of the workload's policy over the
    /// captured sessions' views and eligibility masks, per call.
    pub select_ns: f64,
    /// `PerformancePredictor::rates` over that view, per node.
    pub predict_ns_per_node: f64,
    /// `PlacementHashTable::build` at the captured sessions' block
    /// counts, per node.
    pub hash_build_ns_per_node: f64,
    /// The same build, per call.
    pub hash_build_ns: f64,
    /// `PlacementHashTable::lookup`, per call.
    pub lookup_ns: f64,
    /// One `MinHeap4` pop plus one push at the workload's peak depth.
    pub heap_push_pop_ns: f64,
    /// `Topology::transfer_seconds` on the workload's topology, per call.
    pub transfer_ns: f64,
}

/// Runs `batch` (which reports the units it did) in [`BATCHES`] batches
/// of at least `budget / BATCHES` each; returns the median ns per unit.
fn per_unit(budget: Duration, mut batch: impl FnMut() -> u64) -> f64 {
    let slice = budget / BATCHES as u32;
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            let mut units = 0u64;
            while t0.elapsed() < slice {
                units += batch();
            }
            t0.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Runs `batch(s)` (which reports the units it did) round-robin over
/// `weights.len()` sessions until `budget` is spent and every session
/// ran; returns the `weights`-weighted mean of each session's ns per
/// unit.
fn per_session(budget: Duration, weights: &[u64], mut batch: impl FnMut(usize) -> u64) -> f64 {
    let mut ns = vec![0u128; weights.len()];
    let mut units = vec![0u64; weights.len()];
    let t0 = Instant::now();
    while t0.elapsed() < budget || units.contains(&0) {
        for (s, (ns, units)) in ns.iter_mut().zip(units.iter_mut()).enumerate() {
            let t = Instant::now();
            *units += batch(s);
            *ns += t.elapsed().as_nanos();
        }
    }
    let total: u64 = weights.iter().sum();
    weights
        .iter()
        .zip(ns.iter().zip(&units))
        .map(|(&w, (&ns, &u))| w as f64 * ns as f64 / u.max(1) as f64)
        .sum::<f64>()
        / total.max(1) as f64
}

/// Times every kernel. Placement kernels replay the captured sessions:
/// the hash build once per session (as `prepare` does), lookups and
/// `select` weighted by each session's `select` count. `heap_depth` is
/// the workload's peak map event-queue depth; `budget` is the time given
/// to each kernel.
///
/// # Errors
///
/// Fails when no placement session was captured, or propagates a
/// failed `prepare` or table build.
pub fn measure(
    input: &PlacementInput,
    policy: PolicyKind,
    topology: Topology,
    heap_depth: u64,
    budget: Duration,
) -> Result<Kernels, BenchError> {
    let view = input
        .view
        .as_ref()
        .ok_or("no placement session was captured")?;
    let sessions = &input.sessions;
    let nodes = view.len().max(1) as f64;
    let once = vec![1u64; sessions.len()];
    let selects: Vec<u64> = sessions.iter().map(|s| s.selects).collect();
    let mut rng = StdRng::seed_from_u64(0x6B45_4E45);

    let predictor = PerformancePredictor::new(GAMMA)?;
    let predict_ns_per_node = per_unit(budget, || {
        black_box(predictor.rates(black_box(view)));
        1
    }) / nodes;
    let rates = predictor.rates(view);
    let build = |m: usize| PlacementHashTable::build(rates.rates(), m, ChainWeighting::default());
    let hash_build_ns = per_session(budget, &once, |s| {
        black_box(build(sessions[s].blocks)).map_or(0, |_| 1)
    });
    let tables = sessions
        .iter()
        .map(|s| build(s.blocks))
        .collect::<Result<Vec<_>, _>>()?;
    let keys: Vec<Vec<(usize, f64)>> = sessions
        .iter()
        .map(|s| {
            (0..256)
                .map(|_| {
                    let r = below(&mut rng, 0, s.blocks.max(1) as u64) as usize;
                    (r, unit(&mut rng))
                })
                .collect()
        })
        .collect();
    let lookup_ns = per_session(budget, &selects, |s| {
        for &(r, r1) in &keys[s] {
            black_box(tables[s].lookup(black_box(r), r1));
        }
        keys[s].len() as u64
    });

    let mut policies = Vec::with_capacity(sessions.len());
    for s in sessions {
        let mut placement = policy.build(GAMMA);
        placement.prepare(view, s.blocks)?;
        policies.push(placement);
    }
    let select_ns = per_session(budget, &selects, |s| {
        let mask = &sessions[s].eligible;
        let eligible = |id: NodeId| mask.get(id.0 as usize).copied().unwrap_or(false);
        for _ in 0..16 {
            black_box(policies[s].select(view, &eligible, &mut rng));
        }
        16
    });
    let depth = heap_depth.max(1) as usize;
    let mut heap: MinHeap4<(u64, u64)> = MinHeap4::with_capacity(depth + 1);
    for seq in 0..depth as u64 {
        heap.push((below(&mut rng, 0, 1_000_000_000), seq));
    }
    let mut seq = depth as u64;
    let heap_push_pop_ns = per_unit(budget, || {
        for _ in 0..1_024 {
            let (t, _) = heap.pop().unwrap_or((0, 0));
            seq += 1;
            heap.push((t + below(&mut rng, 1, 10_000_000), seq));
        }
        1_024
    });

    let hosts = view.len().max(1) as u64;
    let pairs: Vec<(u32, u32, usize)> = (0..4_096)
        .map(|_| {
            (
                below(&mut rng, 0, hosts) as u32,
                below(&mut rng, 0, hosts) as u32,
                below(&mut rng, 1, 5) as usize,
            )
        })
        .collect();
    let transfer_ns = per_unit(budget, || {
        for &(src, dst, streams) in &pairs {
            black_box(topology.transfer_seconds(64.0, black_box(src), dst, streams));
        }
        pairs.len() as u64
    });

    Ok(Kernels {
        select_ns,
        predict_ns_per_node,
        hash_build_ns_per_node: hash_build_ns / nodes,
        hash_build_ns,
        lookup_ns,
        heap_push_pop_ns,
        transfer_ns,
    })
}
