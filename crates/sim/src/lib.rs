//! Discrete-event simulator of a Hadoop-like MapReduce runtime on
//! volatile hosts.
//!
//! The paper's large-scale evaluation (Section V-C) uses "a discrete event
//! simulator … with mechanism analogous to that of Hadoop", and its
//! emulated-cluster evaluation (Sections V-A/V-B) exercises the same
//! mechanisms on Magellan VMs with injected interruptions. This crate is
//! that simulator:
//!
//! * [`event`] — a deterministic discrete-event queue (stable tie-break).
//! * [`interrupt`] — per-node interruption processes: none, synthetic
//!   M/G/1 (Poisson arrivals, FCFS-queued recoveries collapsed into busy
//!   periods), or failure-trace replay.
//! * `cluster` (crate-private) — the substrate both phases run on: hosts
//!   going down and up under their processes with per-node RNG streams,
//!   the event clock, outbound flows over the rack topology, the trace
//!   sink.
//! * [`engine`] — the map-phase engine: locality-first task scheduling,
//!   straggler stealing with block migration over per-node network links,
//!   speculative duplicates, task re-execution after interruptions, and
//!   the overhead decomposition (rework / recovery / migration / misc)
//!   reported in the paper's Figure 5.
//! * [`reduce`] — the reduce-phase engine: shuffle fetches over the rack
//!   topology, reduce compute, and Hadoop's reduce-side failure handling.
//! * [`jobtracker`] — a multi-job JobTracker admitting a job stream
//!   (FIFO, fair-share or capacity scheduling) over the map engine.
//! * [`strategy`] — reducer placement strategies: naive, ADAPT, and
//!   rack-aware.
//! * [`runner`] — one-call simulation from a NameNode placement plus
//!   multi-seed aggregation (the paper reports means of 10 runs).
//! * [`shuffle`] — a first-order shuffle/reduce-phase model with
//!   availability-aware reducer placement (the paper's stated future
//!   work).
//! * [`telemetry`] — engine and shuffle counters and histograms.
//!
//! # Example
//!
//! ```
//! use adapt_dfs::{BlockSize, NodeId};
//! use adapt_sim::engine::{MapPhaseSim, SimConfig};
//! use adapt_sim::interrupt::InterruptionProcess;
//!
//! # fn main() -> Result<(), adapt_sim::SimError> {
//! // Two reliable nodes, four blocks, one replica each, alternating.
//! let placement: Vec<Vec<NodeId>> =
//!     (0..4).map(|i| vec![NodeId(i % 2)]).collect();
//! let processes = vec![InterruptionProcess::none(), InterruptionProcess::none()];
//! let cfg = SimConfig::new(8.0, BlockSize::DEFAULT, 12.0)?;
//! let report = MapPhaseSim::new(processes, placement, cfg)?.run(42)?;
//! assert!(report.completed);
//! assert_eq!(report.locality(), 1.0);
//! assert!((report.elapsed - 24.0).abs() < 1e-9); // 2 tasks per node
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod cluster;
pub mod engine;
pub mod event;
pub mod interrupt;
pub mod jobtracker;
pub mod reduce;
pub mod runner;
pub mod shuffle;
pub mod strategy;
pub mod telemetry;

mod error;

pub use adapt_net::Topology;
pub use engine::{DetailedReport, MapPhaseSim, NodeStat, SchedulingMode, SimConfig, SimReport};
pub use error::SimError;
pub use interrupt::InterruptionProcess;
pub use jobtracker::{
    job_seed, JobPlacer, JobRecord, JobStreamOutcome, JobTracker, JobTrackerConfig,
    JobTrackerTelemetry, MapEngine, OptimizedEngine, SchedPolicy, StripedPlacer,
};
pub use reduce::{slice_bytes, ReduceDetailed, ReducePhaseSim, ReduceReport};
pub use shuffle::{
    estimate_shuffle, estimate_shuffle_instrumented, estimate_shuffle_topo,
    estimate_shuffle_topo_instrumented, reliable_reducer_placement, ShuffleConfig, ShuffleReport,
};
pub use strategy::{AdaptStrategy, NaiveStrategy, PlacementStrategy, RackAwareStrategy};
pub use telemetry::{
    EngineTelemetry, EngineTelemetrySnapshot, ShuffleTelemetry, ShuffleTelemetrySnapshot,
};
