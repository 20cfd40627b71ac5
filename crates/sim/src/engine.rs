//! The map-phase discrete-event engine.
//!
//! Mechanism mirrors Hadoop 0.20.2 as the paper describes it:
//!
//! * one task slot per node (the emulated VMs had one core);
//! * **locality first**: an idle node runs a pending task whose block it
//!   stores before anything else;
//! * **straggler stealing**: a node with no local work steals a pending
//!   task from elsewhere, fetching the block from an alive replica over
//!   the throttled network (the paper's data-migration cost);
//! * **speculative execution**: when nothing is pending, an idle node may
//!   duplicate a still-running straggler — but only when its own ETA
//!   beats every running copy's ETA (task times are deterministic here,
//!   so the scheduler can tell; the classic case is an original stuck
//!   behind a slow block transfer). The first finisher wins and the
//!   losers are killed ("duplicated straggler execution" — misc cost);
//! * **interruptions** kill the running attempt (its partial compute is
//!   *rework*), leave blocks on persistent storage, and make the node
//!   unavailable until recovery; an interrupted task restarts on the same
//!   node when it returns unless another node stole it first.
//!
//! # Overhead decomposition (paper Figure 5)
//!
//! Costs are reported relative to the aggregated failure-free execution
//! time `base = m·γ`:
//!
//! * **rework** — compute seconds lost to interruption-killed attempts;
//! * **recovery** — seconds nodes spent *down while holding pending local
//!   work* (downtime that stalls tasks, which is what data placement can
//!   and does change);
//! * **migration** — seconds from task assignment to compute start for
//!   remote attempts (block transfer plus link queueing);
//! * **misc** — idle time of up nodes (scheduling slack and the idle tail
//!   at the end of the map phase) plus compute burned by losing
//!   speculative duplicates.

use adapt_ds::{IdSet, SortedVecSet};

use adapt_dfs::{BlockSize, NodeId};
use adapt_metrics::{MetricsHub, MetricsRegistry, WorkCounts};
use adapt_net::Topology;
use adapt_trace::{KillCause, Trace, TraceEvent, TraceRecorder};

use crate::cluster::{self, Cluster, ClusterEvent};
use crate::interrupt::InterruptionProcess;
use crate::telemetry::{EngineTelemetry, EngineTelemetrySnapshot};
use crate::SimError;

/// Per-node activity summary of one run (from
/// [`MapPhaseSim::run_detailed`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeStat {
    /// Seconds the node spent on attempts (compute and transfer wait).
    pub busy: f64,
    /// Seconds the node was down within the run.
    pub downtime: f64,
    /// Seconds the node was down while holding pending local work.
    pub recovery: f64,
    /// Tasks whose winning attempt ran here.
    pub completed_tasks: usize,
    /// Of those, how many were data-local.
    pub local_completed: usize,
}

/// A [`SimReport`] plus per-node statistics and per-task winners.
#[derive(Debug, Clone, PartialEq)]
pub struct DetailedReport {
    /// The aggregate report.
    pub report: SimReport,
    /// One entry per node, in id order.
    pub node_stats: Vec<NodeStat>,
    /// For each task, the node whose attempt completed it (`None` only
    /// in incomplete runs). Feeds the shuffle-phase model.
    pub winners: Vec<Option<NodeId>>,
    /// Engine counters and histograms accumulated during the run.
    pub telemetry: EngineTelemetrySnapshot,
    /// The sealed event trace, when the run was built
    /// [`with_trace`](MapPhaseSim::with_trace); `None` otherwise.
    pub trace: Option<Trace>,
}

/// How the JobTracker orders steal candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulingMode {
    /// Hadoop 0.20 behaviour: first pending task in id (FIFO) order.
    #[default]
    Fifo,
    /// The paper's future-work direction ("availability-aware MapReduce
    /// job scheduling"): among scan candidates, steal the task whose
    /// data sits on the most volatile host first, evacuating at-risk
    /// work before the host disappears.
    AvailabilityAware,
}

/// Simulation parameters shared by every node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    bandwidth_mbps: f64,
    block_size: BlockSize,
    gamma: f64,
    speculation: bool,
    max_copies: usize,
    max_source_streams: usize,
    scheduling: SchedulingMode,
    detection_delay: f64,
    fetch_failure: bool,
    horizon: f64,
    topology: Topology,
}

impl SimConfig {
    /// Creates a configuration.
    ///
    /// * `bandwidth_mbps` — per-node link bandwidth in megabits/second
    ///   (the paper sweeps 4–32 Mb/s);
    /// * `block_size` — HDFS block size (default 64 MB);
    /// * `gamma` — failure-free map-task time per block in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any value is out of domain.
    pub fn new(bandwidth_mbps: f64, block_size: BlockSize, gamma: f64) -> Result<Self, SimError> {
        if !(bandwidth_mbps.is_finite() && bandwidth_mbps > 0.0) {
            return Err(SimError::InvalidConfig {
                name: "bandwidth_mbps",
                reason: format!("{bandwidth_mbps} must be finite and > 0"),
            });
        }
        if block_size.bytes() == 0 {
            return Err(SimError::InvalidConfig {
                name: "block_size",
                reason: "must be non-zero".into(),
            });
        }
        if !(gamma.is_finite() && gamma > 0.0) {
            return Err(SimError::InvalidConfig {
                name: "gamma",
                reason: format!("{gamma} must be finite and > 0"),
            });
        }
        Ok(SimConfig {
            bandwidth_mbps,
            block_size,
            gamma,
            speculation: true,
            max_copies: 2,
            max_source_streams: 4,
            scheduling: SchedulingMode::default(),
            detection_delay: 0.0,
            fetch_failure: false,
            horizon: 1e9,
            topology: Topology::flat(),
        })
    }

    /// Installs a rack topology (default [`Topology::flat`]): intra-rack
    /// transfers keep the flat per-node-link time, cross-rack transfers
    /// pay the oversubscribed uplink fair-shared over the cross-rack
    /// flows active when the transfer is committed. The degenerate flat
    /// topology reproduces the pre-topology engine byte for byte.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// The rack topology transfers run over.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Enables or disables speculative duplicates (on by default).
    pub fn with_speculation(mut self, on: bool) -> Self {
        self.speculation = on;
        self
    }

    /// Maximum concurrent copies of one task, including the original
    /// (default 2).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `max_copies == 0`.
    pub fn with_max_copies(mut self, max_copies: usize) -> Result<Self, SimError> {
        if max_copies == 0 {
            return Err(SimError::InvalidConfig {
                name: "max_copies",
                reason: "at least one copy must run".into(),
            });
        }
        self.max_copies = max_copies;
        Ok(self)
    }

    /// Maximum concurrent outbound block transfers per node (default 4,
    /// like a DataNode's transceiver limit). Bandwidth is shaped per
    /// flow: each transfer takes `block/bandwidth` seconds regardless of
    /// concurrency, but a source serves at most this many streams at
    /// once.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `streams == 0`.
    pub fn with_max_source_streams(mut self, streams: usize) -> Result<Self, SimError> {
        if streams == 0 {
            return Err(SimError::InvalidConfig {
                name: "max_source_streams",
                reason: "at least one outbound stream required".into(),
            });
        }
        self.max_source_streams = streams;
        Ok(self)
    }

    /// Maximum concurrent outbound transfers per node.
    pub fn max_source_streams(&self) -> usize {
        self.max_source_streams
    }

    /// Sets the failure-detection latency: after an interruption kills a
    /// node's attempt, the JobTracker only re-queues the task this many
    /// seconds later (heartbeat-timeout detection; Hadoop 0.20 defaults
    /// to minutes, tuned down in non-dedicated deployments). Default 0
    /// (oracle detection).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for negative or non-finite
    /// delays.
    pub fn with_detection_delay(mut self, delay: f64) -> Result<Self, SimError> {
        if !(delay.is_finite() && delay >= 0.0) {
            return Err(SimError::InvalidConfig {
                name: "detection_delay",
                reason: format!("{delay} must be finite and >= 0"),
            });
        }
        self.detection_delay = delay;
        Ok(self)
    }

    /// The failure-detection latency in seconds.
    pub fn detection_delay(&self) -> f64 {
        self.detection_delay
    }

    /// Makes in-flight block fetches *fail* when the source host dies
    /// mid-transfer (default off: a fetch survives brief source outages,
    /// approximating Hadoop's fetch retries).
    pub fn with_fetch_failure(mut self, on: bool) -> Self {
        self.fetch_failure = on;
        self
    }

    /// Whether fetches fail on source death.
    pub fn fetch_failure(&self) -> bool {
        self.fetch_failure
    }

    /// Selects the steal-ordering discipline (default FIFO, like Hadoop
    /// 0.20; see [`SchedulingMode`]).
    pub fn with_scheduling(mut self, scheduling: SchedulingMode) -> Self {
        self.scheduling = scheduling;
        self
    }

    /// The steal-ordering discipline in use.
    pub fn scheduling(&self) -> SchedulingMode {
        self.scheduling
    }

    /// Sets the simulation horizon (default 10⁹ s); runs that exceed it
    /// are reported as incomplete.
    pub fn with_horizon(mut self, horizon: f64) -> Self {
        self.horizon = horizon;
        self
    }

    /// The simulation horizon in seconds.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Maximum concurrent copies of one task, including the original.
    pub fn max_copies(&self) -> usize {
        self.max_copies
    }

    /// Per-node link bandwidth in Mb/s.
    pub fn bandwidth_mbps(&self) -> f64 {
        self.bandwidth_mbps
    }

    /// HDFS block size.
    pub fn block_size(&self) -> BlockSize {
        self.block_size
    }

    /// Failure-free map-task time per block.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Whether speculative duplicates are enabled.
    pub fn speculation(&self) -> bool {
        self.speculation
    }

    /// Seconds to transfer one block between two nodes, links permitting.
    pub fn transfer_seconds(&self) -> f64 {
        self.block_size.transfer_seconds(self.bandwidth_mbps)
    }
}

/// Results of one simulated map phase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimReport {
    /// Map-phase completion time (seconds).
    pub elapsed: f64,
    /// Total tasks (= blocks).
    pub tasks: usize,
    /// Tasks whose winning execution ran on a node holding the block.
    pub local_tasks: usize,
    /// Task attempts started (including killed and duplicate attempts).
    pub attempts: usize,
    /// Block transfers started.
    pub transfers: usize,
    /// Aggregated failure-free work, `m·γ` (seconds).
    pub base_work: f64,
    /// Compute seconds lost to interruption-killed attempts.
    pub rework: f64,
    /// Seconds nodes were down while holding pending local work.
    pub recovery: f64,
    /// Seconds remote attempts spent between assignment and compute start.
    pub migration: f64,
    /// Up-node idle seconds plus losing-duplicate compute seconds.
    pub misc: f64,
    /// Whether every task finished within the horizon.
    pub completed: bool,
}

impl SimReport {
    /// Data locality: local winning executions over all tasks, in `[0,1]`
    /// (the paper's Figure 4 metric).
    pub fn locality(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            self.local_tasks as f64 / self.tasks as f64
        }
    }

    /// Rework overhead relative to the failure-free base.
    pub fn rework_ratio(&self) -> f64 {
        self.rework / self.base_work
    }

    /// Recovery overhead relative to the failure-free base.
    pub fn recovery_ratio(&self) -> f64 {
        self.recovery / self.base_work
    }

    /// Migration overhead relative to the failure-free base.
    pub fn migration_ratio(&self) -> f64 {
        self.migration / self.base_work
    }

    /// Misc overhead relative to the failure-free base.
    pub fn misc_ratio(&self) -> f64 {
        self.misc / self.base_work
    }

    /// Sum of all four overhead ratios (the stacked bars of Figure 5).
    pub fn total_overhead_ratio(&self) -> f64 {
        self.rework_ratio() + self.recovery_ratio() + self.migration_ratio() + self.misc_ratio()
    }
}

/// Bound on how many stealable tasks one scheduling decision examines
/// while looking for an un-congested source.
const MAX_STEAL_SCAN: usize = 32;

/// A running copy whose host's equation-(5) slowdown exceeds this is a
/// straggler candidate for LATE-style rescue.
const STRAGGLER_SLOWDOWN: f64 = 1.2;

/// A rescuing node must be at least this factor more reliable (lower
/// slowdown) than the straggler's host.
const STRAGGLER_ADVANTAGE: f64 = 1.5;

/// The map phase's own events on the cluster clock.
#[derive(Debug, Clone, Copy)]
enum MapEvent {
    AttemptDone {
        node: u32,
        epoch: u64,
    },
    /// The JobTracker notices a killed task (after the detection delay)
    /// and returns it to the pending pool.
    Requeue(usize),
}

/// Profiler span name for an event family.
fn kind_name(event: &ClusterEvent<MapEvent>) -> &'static str {
    match event {
        ClusterEvent::Kick => "kick",
        ClusterEvent::Down(_) => "down",
        ClusterEvent::Up(_) => "up",
        ClusterEvent::Phase(MapEvent::AttemptDone { .. }) => "attempt_done",
        ClusterEvent::Phase(MapEvent::Requeue(_)) => "requeue",
    }
}

/// Simulated seconds → integer microseconds (the timestamp unit of the
/// metrics layer, matching `adapt-trace`'s conversion).
pub(crate) fn sim_us(secs: f64) -> u64 {
    (secs * 1e6).round() as u64
}

#[derive(Debug, Clone, Copy)]
struct Attempt {
    task: usize,
    seq: u64,
    reserve_start: f64,
    compute_start: f64,
    local: bool,
    /// Transfer source of a remote attempt (trace emission only).
    source: Option<u32>,
}

/// A node's map-phase state; its host state and outbound flows live in
/// the [`Cluster`].
#[derive(Debug)]
struct NodeState {
    epoch: u64,
    running: Option<Attempt>,
    local_pending: SortedVecSet,
    /// Monotone per-node attempt counter (the tag of the flows this
    /// node's fetches commit, so a dying source can tell which attempt
    /// a flow belongs to).
    attempt_seq: u64,
    busy: f64,
    recovery_mark: Option<f64>,
    recovery: f64,
    completed_tasks: usize,
    local_completed: usize,
}

#[derive(Debug)]
struct TaskState {
    replicas: Vec<u32>,
    done: bool,
    running_on: Vec<u32>,
    /// Node whose attempt completed the task.
    winner: Option<u32>,
}

/// The map-phase simulator. Construct once per run; [`run`] consumes it.
///
/// [`run`]: MapPhaseSim::run
#[derive(Debug)]
pub struct MapPhaseSim {
    cfg: SimConfig,
    cluster: Cluster<MapEvent>,
    nodes: Vec<NodeState>,
    /// Per-node expected slowdown E[T]/γ from equation (5) — the
    /// JobTracker's availability-aware view used by speculation ETAs.
    slowdown: Vec<f64>,
    tasks: Vec<TaskState>,
    pending: IdSet,
    stealable: IdSet,
    /// Running tasks worth considering for speculation: a copy runs on a
    /// volatile host, or its transfer dominates its compute. Maintained
    /// incrementally so the speculation scan never walks every running
    /// task.
    spec_candidates: IdSet,
    /// Idle up nodes, by node id (ascending scan = FIFO-by-id, matching
    /// the Hadoop-0.20 behaviour the engine models).
    idle: IdSet,
    /// Scratch buffer for the freed-task hints passed to
    /// `dispatch_idle`, reused across `Down`/`Up` events so the hot loop
    /// stops allocating a fresh `Vec` per outage.
    freed_buf: Vec<usize>,
    done_count: usize,
    // Metrics accumulators.
    rework: f64,
    migration: f64,
    dup_compute: f64,
    attempts: usize,
    transfers: usize,
    local_completions: usize,
    telemetry: EngineTelemetry,
}

impl MapPhaseSim {
    /// Builds a simulation over `processes.len()` nodes running one map
    /// task per entry of `placement` (each entry lists the replica nodes
    /// of that task's block).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an empty cluster or task
    /// list and [`SimError::PlacementOutOfRange`] if a replica references
    /// a node outside the cluster.
    pub fn new(
        processes: Vec<InterruptionProcess>,
        placement: Vec<Vec<NodeId>>,
        cfg: SimConfig,
    ) -> Result<Self, SimError> {
        // Queue high-water mark is bounded by one outage pair plus one
        // attempt per node (plus slack for requeues in flight), so
        // preallocating ~2n avoids every mid-run heap growth.
        let cluster = Cluster::new(processes, &cfg, 16)?;
        if placement.is_empty() {
            return Err(SimError::InvalidConfig {
                name: "placement",
                reason: "job must have at least one task".into(),
            });
        }
        let n = cluster.len();
        let mut tasks = Vec::with_capacity(placement.len());
        for (i, replicas) in placement.iter().enumerate() {
            if replicas.is_empty() {
                return Err(SimError::InvalidConfig {
                    name: "placement",
                    reason: format!("task {i} has no replicas"),
                });
            }
            tasks.push(TaskState {
                replicas: replicas
                    .iter()
                    .map(|&r| cluster::node_id(i, r, n))
                    .collect::<Result<_, _>>()?,
                done: false,
                running_on: Vec::new(),
                winner: None,
            });
        }

        let slowdown: Vec<f64> = (0..n)
            .map(|i| match cluster.process(i).mean_params() {
                None => 1.0,
                Some((lambda, mu)) => {
                    match adapt_availability::TaskModel::new(
                        lambda,
                        mu.max(f64::MIN_POSITIVE),
                        cfg.gamma,
                    ) {
                        Ok(model) => model.slowdown(),
                        // Unstable host: expected completion diverges.
                        Err(_) => f64::INFINITY,
                    }
                }
            })
            .collect();

        let mut nodes: Vec<NodeState> = (0..n)
            .map(|_| NodeState {
                epoch: 0,
                running: None,
                local_pending: SortedVecSet::new(),
                attempt_seq: 0,
                busy: 0.0,
                recovery_mark: None,
                recovery: 0.0,
                completed_tasks: 0,
                local_completed: 0,
            })
            .collect();

        let mut pending = IdSet::new(tasks.len());
        for (i, task) in tasks.iter().enumerate() {
            pending.insert(i);
            for &r in &task.replicas {
                nodes[r as usize].local_pending.insert(i);
            }
        }
        let stealable = pending.clone(); // everyone starts up

        let spec_candidates = IdSet::new(tasks.len());
        Ok(MapPhaseSim {
            cfg,
            cluster,
            nodes,
            slowdown,
            tasks,
            pending,
            stealable,
            spec_candidates,
            idle: IdSet::new(n),
            freed_buf: Vec::new(),
            done_count: 0,
            rework: 0.0,
            migration: 0.0,
            dup_compute: 0.0,
            attempts: 0,
            transfers: 0,
            local_completions: 0,
            telemetry: EngineTelemetry::default(),
        })
    }

    /// Attaches an event recorder: the run will emit a [`TraceEvent`]
    /// for every attempt, transfer, outage, and requeue, and
    /// [`DetailedReport::trace`] will carry the sealed [`Trace`]. The
    /// recorder may already hold placement events (the NameNode's
    /// `BlockPlaced`/`BlockRebalanced` records at t = 0) so one log
    /// covers the whole pipeline. Simulation behavior and reported
    /// metrics are byte-identical with or without tracing.
    pub fn with_trace(mut self, recorder: TraceRecorder) -> Self {
        self.cluster.set_trace(recorder);
        self
    }

    /// Emits the resolution of a remote attempt's block transfer: `Done`
    /// when the transfer window closed before `t`, `Aborted` when the
    /// kill (or horizon) cut it mid-flight.
    fn emit_transfer_end(&mut self, n: u32, attempt: &Attempt, t: f64) {
        if !self.cluster.tracing() || attempt.local {
            return;
        }
        let Some(source) = attempt.source else {
            return;
        };
        let (task, seq) = (attempt.task as u32, attempt.seq);
        let (start, end) = (attempt.reserve_start, attempt.compute_start);
        if end <= t {
            self.cluster.emit(TraceEvent::TransferDone {
                source,
                dest: n,
                task,
                attempt: seq,
                start,
                end,
            });
        } else {
            self.cluster.emit(TraceEvent::TransferAborted {
                source,
                dest: n,
                task,
                attempt: seq,
                start,
                end: t,
            });
        }
    }

    /// Runs the map phase to completion (or the horizon) and returns the
    /// report. All randomness derives from `seed`.
    ///
    /// # Errors
    ///
    /// An exceeded horizon is reported via [`SimReport::completed`], not
    /// as an error. [`SimError::InvariantViolation`] signals an internal
    /// scheduling bug (never expected on valid inputs).
    pub fn run(self, seed: u64) -> Result<SimReport, SimError> {
        Ok(self.run_detailed(seed)?.report)
    }

    /// Like [`run`](MapPhaseSim::run), additionally returning per-node
    /// statistics and per-task winners (the shuffle model's input).
    ///
    /// # Errors
    ///
    /// Same as [`run`](MapPhaseSim::run).
    pub fn run_detailed(self, seed: u64) -> Result<DetailedReport, SimError> {
        self.run_detailed_inner(seed, None)
    }

    /// Like [`run_detailed`](MapPhaseSim::run_detailed), with a metrics
    /// hub attached: engine-state gauges are scraped on the hub
    /// registry's sim-time cadence, and per-event work (events, queue
    /// operations, simulated time) is attributed to profiler spans by
    /// event family. Simulation behavior and the returned report are
    /// byte-identical with or without metrics — only the hub differs.
    ///
    /// # Errors
    ///
    /// Same as [`run_detailed`](MapPhaseSim::run_detailed).
    pub fn run_detailed_metrics(
        self,
        seed: u64,
        hub: &mut MetricsHub,
    ) -> Result<DetailedReport, SimError> {
        self.run_detailed_inner(seed, Some(hub))
    }

    fn run_detailed_inner(
        mut self,
        seed: u64,
        mut metrics: Option<&mut MetricsHub>,
    ) -> Result<DetailedReport, SimError> {
        self.cluster.start(seed);
        let mut elapsed = None;
        loop {
            // The queue is longest right before a dispatch (pushes happen
            // inside handlers; nothing pops in between), so sampling here
            // observes every high-water mark.
            self.telemetry
                .queue_depth_hwm
                .record(self.cluster.queue_len() as u64);
            let prev_event_time = self.cluster.now();
            let Some((t, event)) = self.cluster.pop() else {
                break;
            };
            // Metrics scrape precedes the event: a cadence boundary in
            // the gap (prev, t] samples the state that actually held
            // across that gap.
            let queue_len_before = if let Some(hub) = metrics.as_deref_mut() {
                let t_us = sim_us(t);
                if hub.registry.due(t_us) {
                    self.scrape_engine_gauges(&mut hub.registry);
                    hub.registry.advance(t_us);
                }
                hub.profiler.enter(kind_name(&event));
                self.cluster.queue_len()
            } else {
                0
            };
            match event {
                ClusterEvent::Kick => {
                    self.telemetry.events_kick.incr();
                    for i in 0..self.nodes.len() as u32 {
                        self.try_assign(i, t)?;
                    }
                }
                ClusterEvent::Down(n) => {
                    self.telemetry.events_down.incr();
                    self.on_down(n, t)?;
                }
                ClusterEvent::Up(n) => {
                    self.telemetry.events_up.incr();
                    self.on_up(n, t)?;
                }
                ClusterEvent::Phase(MapEvent::AttemptDone { node, epoch }) => {
                    self.telemetry.events_attempt_done.incr();
                    if self.nodes[node as usize].epoch == epoch {
                        self.on_attempt_done(node, t)?;
                        if self.done_count == self.tasks.len() {
                            elapsed = Some(t);
                        }
                    }
                }
                ClusterEvent::Phase(MapEvent::Requeue(task)) => {
                    self.telemetry.events_requeue.incr();
                    self.requeue(task, t);
                    self.dispatch_idle(t, &[task])?;
                }
            }
            if let Some(hub) = metrics.as_deref_mut() {
                // Handler heap traffic: one pop plus however many pushes
                // grew the queue (len_after = len_before − 1 + pushes).
                let pushes = (self.cluster.queue_len() + 1).saturating_sub(queue_len_before) as u64;
                hub.profiler.add(WorkCounts {
                    events: 1,
                    heap_ops: pushes + 1,
                    placements: 0,
                    sim_us: sim_us(t).saturating_sub(sim_us(prev_event_time)),
                });
                hub.profiler.exit();
            }
            if elapsed.is_some() {
                break;
            }
        }

        let completed = elapsed.is_some();
        let elapsed = elapsed.unwrap_or(self.cfg.horizon);
        if let Some(hub) = metrics {
            // Seal the series: emit any cadence boundaries still due,
            // then an end-of-run sample of the final state.
            self.scrape_engine_gauges(&mut hub.registry);
            hub.finish(sim_us(elapsed));
        }
        Ok(self.finalize(elapsed, completed, seed))
    }

    /// Refreshes the engine-state gauges ahead of a due scrape. Only
    /// called when a metrics hub is attached *and* a cadence boundary
    /// passed, so disabled runs never touch a registry map.
    fn scrape_engine_gauges(&self, registry: &mut MetricsRegistry) {
        registry.set_gauge("engine.queue_depth", self.cluster.queue_len());
        registry.set_gauge("engine.pending_tasks", self.pending.len());
        registry.set_gauge("engine.stealable_tasks", self.stealable.len());
        registry.set_gauge("engine.spec_candidates", self.spec_candidates.len());
        registry.set_gauge("engine.idle_nodes", self.idle.len());
        registry.set_gauge("engine.done_tasks", self.done_count);
        registry.set_gauge("engine.up_nodes", self.cluster.up_count());
        registry.set_gauge(
            "engine.running_attempts",
            self.nodes.iter().filter(|n| n.running.is_some()).count(),
        );
        registry.set_gauge("engine.attempts", self.attempts);
        registry.set_gauge("engine.transfers", self.transfers);
        registry.set_gauge("engine.rework_us", sim_us(self.rework));
        registry.set_gauge("engine.migration_us", sim_us(self.migration));
        registry.set_gauge("engine.dup_compute_us", sim_us(self.dup_compute));
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Attempts to hand the node a task; returns whether one was started.
    fn try_assign(&mut self, n: u32, t: f64) -> Result<bool, SimError> {
        let ni = n as usize;
        if !self.cluster.is_up(n) || self.nodes[ni].running.is_some() {
            return Ok(false);
        }
        // 1. Local pending work.
        if let Some(task) = self.nodes[ni].local_pending.first() {
            self.start_task(n, task, t)?;
            return Ok(true);
        }
        // 2. Steal a pending task with an *admissible* source replica:
        // a source whose uplink is not already backlogged. Without this
        // admission control every idle node piles onto the same hot
        // source and transfer queueing grows quadratically — real
        // Hadoop deployments throttle concurrent moves per DataNode for
        // the same reason. The scan is bounded; skipped tasks are
        // retried at later scheduling events.
        let mut chosen: Option<usize> = None;
        let mut chosen_risk = f64::NEG_INFINITY;
        // The scan only *reads* engine state; `stealable` is mutated
        // after the loop (inside `start_task`), so the ascending bitset
        // iterator can be consumed in place with no scratch collection.
        for task in self.stealable.iter().take(MAX_STEAL_SCAN) {
            if self.admissible_source(task, t).is_none() {
                continue;
            }
            match self.cfg.scheduling {
                SchedulingMode::Fifo => {
                    chosen = Some(task);
                    break;
                }
                SchedulingMode::AvailabilityAware => {
                    // Evacuate the most at-risk data first: rank by the
                    // *best* (lowest-slowdown) holder of the block — if
                    // even the best holder is volatile, the task is in
                    // danger of stranding.
                    let risk = self.tasks[task]
                        .replicas
                        .iter()
                        .map(|&r| self.slowdown[r as usize])
                        .fold(f64::INFINITY, f64::min);
                    if risk > chosen_risk {
                        chosen_risk = risk;
                        chosen = Some(task);
                    }
                }
            }
        }
        if let Some(task) = chosen {
            self.telemetry.steals.incr();
            self.start_task(n, task, t)?;
            return Ok(true);
        }
        // 3. Speculative duplicate of a running straggler. Task times are
        // deterministic, so the scheduler only duplicates when the new
        // copy's ETA beats every running copy's ETA — e.g. the original is
        // stuck behind a slow block transfer. (A copy on a host that went
        // down is not "running": the task returned to pending.)
        if self.cfg.speculation {
            let candidate = self.spec_candidates.iter().find(|&task| {
                let state = &self.tasks[task];
                if state.running_on.len() >= self.cfg.max_copies || state.running_on.contains(&n) {
                    return false;
                }
                let Some(candidate_eta) = self.attempt_eta(n, task, t) else {
                    return false;
                };
                // Expected finish of each running copy, inflated by its
                // host's equation-(5) slowdown: a copy on a volatile host
                // is expected to crash-restart and take E[T], not γ.
                let best_running_eta = state
                    .running_on
                    .iter()
                    .filter_map(|&r| {
                        let a = self.nodes[r as usize].running.as_ref()?;
                        (a.task == task)
                            .then(|| a.compute_start + self.cfg.gamma * self.slowdown[r as usize])
                    })
                    .fold(f64::INFINITY, f64::min);
                // The candidate's own ETA is inflated the same way.
                let inflated_candidate_eta =
                    t + (candidate_eta - t) * self.slowdown[n as usize].min(1e6);
                if inflated_candidate_eta + 1e-9 < best_running_eta {
                    return true;
                }
                // LATE-style straggler rescue: Hadoop duplicates a task
                // whose progress lags badly without pricing the block
                // fetch. Expected finish times hide restart *variance* —
                // a task yo-yoing on a volatile host occasionally takes
                // many times E[T] — so an idle, clearly more reliable
                // node duplicates it even when the mean comparison says
                // otherwise.
                let best_copy_slowdown = state
                    .running_on
                    .iter()
                    .map(|&r| self.slowdown[r as usize])
                    .fold(f64::INFINITY, f64::min);
                best_copy_slowdown > STRAGGLER_SLOWDOWN
                    && self.slowdown[n as usize] * STRAGGLER_ADVANTAGE <= best_copy_slowdown
            });
            if let Some(task) = candidate {
                self.telemetry.speculative_attempts.incr();
                self.cluster.emit(TraceEvent::SpeculativeLaunched {
                    node: n,
                    task: task as u32,
                    t,
                });
                self.start_task(n, task, t)?;
                return Ok(true);
            }
        }
        self.idle.insert(n as usize);
        Ok(false)
    }

    /// The least-loaded alive replica of `task` serving fewer than `cap`
    /// outbound streams at `t`, or `None` if every alive replica is at the
    /// cap (or down). Ties keep the *last* minimal replica —
    /// `Iterator::min_by_key` semantics, which the deterministic
    /// baselines were recorded under.
    fn least_loaded_source(&self, task: usize, t: f64, cap: usize) -> Option<u32> {
        let mut best: Option<(usize, u32)> = None;
        for &r in &self.tasks[task].replicas {
            if !self.cluster.is_up(r) {
                continue;
            }
            let streams = self.cluster.open_flows(r, t).count();
            if streams < cap && best.is_none_or(|(s, _)| streams <= s) {
                best = Some((streams, r));
            }
        }
        best.map(|(_, r)| r)
    }

    /// A replica of `task` with a spare outbound stream (the admission
    /// bound), least loaded first.
    fn admissible_source(&self, task: usize, t: f64) -> Option<u32> {
        self.least_loaded_source(task, t, self.cfg.max_source_streams)
    }

    /// Estimated completion time of a fresh attempt of `task` on `n` at
    /// `t`, or `None` when no alive source replica exists. The estimate
    /// deliberately prices the flat (uncontended) fetch even under a
    /// rack topology: the JobTracker's ETA oracle does not model the
    /// fabric, only committed transfer windows do.
    fn attempt_eta(&self, n: u32, task: usize, t: f64) -> Option<f64> {
        let state = &self.tasks[task];
        if state.replicas.contains(&n) {
            return Some(t + self.cfg.gamma);
        }
        // A fetch needs an alive replica with a spare outbound stream.
        self.admissible_source(task, t)
            .map(|_| t + self.cfg.transfer_seconds() + self.cfg.gamma)
    }

    /// Starts one attempt of `task` on node `n` at time `t`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvariantViolation`] if a remote attempt has no alive
    /// source replica — every caller checks admissibility first, so this
    /// signals an engine bug rather than a reachable state.
    fn start_task(&mut self, n: u32, task: usize, t: f64) -> Result<(), SimError> {
        let ni = n as usize;
        debug_assert!(self.cluster.is_up(n) && self.nodes[ni].running.is_none());
        self.attempts += 1;
        self.telemetry.attempts_started.incr();
        self.idle.remove(ni);

        let local = self.tasks[task].replicas.contains(&n);
        let seq = self.nodes[ni].attempt_seq;
        self.nodes[ni].attempt_seq += 1;
        let mut transfer_source: Option<u32> = None;
        let compute_start = if local {
            t
        } else {
            // Prefer an admissible (spare-stream) source; fall back to
            // the least-loaded alive replica (speculative attempts pass
            // an ETA guard instead of the admission check).
            let source = self
                .admissible_source(task, t)
                .or_else(|| self.least_loaded_source(task, t, usize::MAX))
                .ok_or(SimError::InvariantViolation {
                    what: "remote attempt started without an alive source replica",
                })?;
            // Committed at start: the window is fixed now (fair-shared
            // over the cross-rack flows active on the source's uplink).
            let (end, uplink) =
                self.cluster
                    .commit_flow(source, n, seq, self.cfg.transfer_seconds(), t);
            self.transfers += 1;
            self.telemetry.transfers_started.incr();
            self.telemetry
                .transfer_bytes
                .record(self.cfg.block_size.bytes());
            if let Some(streams) = uplink {
                self.telemetry.transfers_cross_rack.incr();
                self.telemetry.link_streams_hwm.record(streams as u64);
            }
            transfer_source = Some(source);
            end
        };

        if self.cluster.tracing() {
            if let Some(source) = transfer_source {
                let bytes = self.cfg.block_size.bytes();
                self.cluster.emit(TraceEvent::TransferStarted {
                    source,
                    dest: n,
                    task: task as u32,
                    attempt: seq,
                    bytes,
                    start: t,
                    end: compute_start,
                });
            }
            self.cluster.emit(TraceEvent::AttemptStarted {
                node: n,
                task: task as u32,
                attempt: seq,
                local,
                source: transfer_source,
                t,
                compute_start,
            });
        }

        self.nodes[ni].running = Some(Attempt {
            task,
            seq,
            reserve_start: t,
            compute_start,
            local,
            source: transfer_source,
        });
        let epoch = self.nodes[ni].epoch;
        self.cluster.schedule(
            compute_start + self.cfg.gamma,
            MapEvent::AttemptDone { node: n, epoch },
        );

        // The task is no longer pending anywhere.
        if self.pending.remove(task) {
            self.stealable.remove(task);
            for ri in 0..self.tasks[task].replicas.len() {
                let r = self.tasks[task].replicas[ri];
                self.remove_local_pending(r, task, t);
            }
        }
        self.tasks[task].running_on.push(n);
        // Speculation bookkeeping: this attempt is rescue-worthy if its
        // host is volatile or its transfer dominates its compute.
        if self.slowdown[n as usize] > STRAGGLER_SLOWDOWN || compute_start - t > self.cfg.gamma {
            self.spec_candidates.insert(task);
        }
        Ok(())
    }

    /// A valid attempt completed: the task is done.
    ///
    /// # Errors
    ///
    /// [`SimError::InvariantViolation`] if the node has no running
    /// attempt — the epoch check filters stale completions, so this
    /// signals an engine bug rather than a reachable state.
    fn on_attempt_done(&mut self, n: u32, t: f64) -> Result<(), SimError> {
        let ni = n as usize;
        let attempt = self.nodes[ni]
            .running
            .take()
            .ok_or(SimError::InvariantViolation {
                what: "epoch-valid completion arrived with no running attempt",
            })?;
        let task = attempt.task;
        debug_assert!(!self.tasks[task].done);

        self.nodes[ni].busy += t - attempt.reserve_start;
        self.nodes[ni].completed_tasks += 1;
        self.telemetry
            .attempt_duration_us
            .record_secs(t - attempt.reserve_start);
        if attempt.local {
            self.local_completions += 1;
            self.nodes[ni].local_completed += 1;
        } else {
            self.migration += attempt.compute_start - attempt.reserve_start;
        }
        if self.cluster.tracing() {
            self.emit_transfer_end(n, &attempt, t);
            self.cluster.emit(TraceEvent::AttemptWon {
                node: n,
                task: task as u32,
                attempt: attempt.seq,
                local: attempt.local,
                start: attempt.reserve_start,
                compute_start: attempt.compute_start,
                end: t,
            });
        }

        self.tasks[task].winner = Some(n);
        self.tasks[task].done = true;
        self.done_count += 1;
        self.spec_candidates.remove(task);
        self.tasks[task].running_on.retain(|&r| r != n);

        // Kill losing duplicates and let their nodes move on.
        let losers = std::mem::take(&mut self.tasks[task].running_on);
        if !losers.is_empty() {
            self.telemetry.speculative_wins.incr();
        }
        for loser in losers {
            self.kill_attempt(loser, t, KillCause::DuplicateLost);
            self.try_assign(loser, t)?;
        }
        self.try_assign(n, t)?;
        // Source uplinks drain as time passes: idle nodes that earlier
        // declined a congested steal get another look.
        self.dispatch_idle(t, &[])
    }

    /// Kills the node's running attempt (if any), accounting the loss.
    fn kill_attempt(&mut self, n: u32, t: f64, reason: KillCause) {
        let ni = n as usize;
        let Some(attempt) = self.nodes[ni].running.take() else {
            return;
        };
        // Invalidate the scheduled AttemptDone.
        self.nodes[ni].epoch += 1;
        self.nodes[ni].busy += (t - attempt.reserve_start).max(0.0);

        let compute_lost = (t - attempt.compute_start).clamp(0.0, self.cfg.gamma);
        match reason {
            KillCause::Interruption => {
                self.rework += compute_lost;
                self.telemetry.kills_interruption.incr();
            }
            // A killed fetch has no compute to lose; both bucket to misc.
            KillCause::DuplicateLost => {
                self.dup_compute += compute_lost;
                self.telemetry.speculative_losses.incr();
            }
            KillCause::SourceLost => {
                self.dup_compute += compute_lost;
                self.telemetry.kills_source_lost.incr();
            }
        }
        if !attempt.local {
            // The transfer window was committed on both links either way.
            self.migration += attempt.compute_start - attempt.reserve_start;
        }
        if self.cluster.tracing() {
            self.emit_transfer_end(n, &attempt, t);
            self.cluster.emit(TraceEvent::AttemptKilled {
                node: n,
                task: attempt.task as u32,
                attempt: attempt.seq,
                local: attempt.local,
                start: attempt.reserve_start,
                compute_start: attempt.compute_start,
                end: t,
                reason,
            });
        }

        let task = attempt.task;
        self.tasks[task].running_on.retain(|&r| r != n);
        if !self.tasks[task].done && self.tasks[task].running_on.is_empty() {
            self.spec_candidates.remove(task);
            if reason == KillCause::Interruption && self.cfg.detection_delay > 0.0 {
                // The JobTracker has not noticed yet; the task re-enters
                // the pending pool only after the heartbeat timeout.
                self.cluster
                    .schedule(t + self.cfg.detection_delay, MapEvent::Requeue(task));
            } else {
                self.requeue(task, t);
            }
        }
    }

    /// Returns a killed task to the pending pool (immediately, or via a
    /// `Requeue` event after the detection delay).
    fn requeue(&mut self, task: usize, t: f64) {
        if self.tasks[task].done || !self.tasks[task].running_on.is_empty() {
            return; // resolved while the detection timer ran
        }
        self.telemetry.requeues.incr();
        self.cluster.emit(TraceEvent::TaskRequeued {
            task: task as u32,
            t,
        });
        self.pending.insert(task);
        for ri in 0..self.tasks[task].replicas.len() {
            let r = self.tasks[task].replicas[ri];
            self.add_local_pending(r, task, t);
        }
        if self.tasks[task]
            .replicas
            .iter()
            .any(|&r| self.cluster.is_up(r))
        {
            self.stealable.insert(task);
        }
    }

    fn on_down(&mut self, n: u32, t: f64) -> Result<(), SimError> {
        let ni = n as usize;
        self.telemetry.interruptions.incr();
        self.cluster.announce_down(n, t);
        // The attempt dies while its host still counts as up: a task it
        // re-pends is stealable until the local-pending pass below.
        self.kill_attempt(n, t, KillCause::Interruption);
        self.cluster.take_down(n, t);
        self.idle.remove(ni);

        // Optionally, fetches being served by this node fail; the
        // fetchers notice immediately and their tasks re-queue without
        // detection delay. (This runs after the node is marked down so a
        // freed fetcher cannot simply re-fetch from the dead source.)
        // The killed flows keep their windows on the uplink; the
        // attempt-tag check skips fetchers already killed by an earlier
        // outage of this source.
        if self.cfg.fetch_failure {
            let failed_fetches: Vec<_> = self.cluster.open_flows(n, t).collect();
            for f in failed_fetches {
                let still_same_attempt = self.nodes[f.dest as usize]
                    .running
                    .as_ref()
                    .is_some_and(|a| a.seq == f.tag);
                if still_same_attempt {
                    self.kill_attempt(f.dest, t, KillCause::SourceLost);
                    self.try_assign(f.dest, t)?;
                }
            }
        }

        // Tasks stranded on this node lose their steal source if it was
        // the last alive replica. The killed task (if re-pending) may be
        // picked up right away by an idle node. Indexed iteration: the
        // handlers below never touch *this* node's `local_pending`
        // (`remove_local_pending` only runs from `start_task`, and no
        // task starts inside this loop), so no snapshot clone is needed.
        let mut freed = std::mem::take(&mut self.freed_buf);
        freed.clear();
        for i in 0..self.nodes[ni].local_pending.len() {
            let task = self.nodes[ni].local_pending.as_slice()[i];
            if !self.tasks[task]
                .replicas
                .iter()
                .any(|&r| self.cluster.is_up(r))
            {
                self.stealable.remove(task);
            } else if self.pending.contains(task) {
                freed.push(task);
            }
        }
        // Downtime that stalls local work is recovery cost.
        if !self.nodes[ni].local_pending.is_empty() {
            self.nodes[ni].recovery_mark = Some(t);
        }
        let result = self.dispatch_idle(t, &freed);
        self.freed_buf = freed;
        result
    }

    fn on_up(&mut self, n: u32, t: f64) -> Result<(), SimError> {
        let ni = n as usize;
        // `bring_up` also schedules the next outage; the passes below
        // push no events before `try_assign`, so that is unobservable.
        self.cluster.bring_up(n, t);
        if let Some(mark) = self.nodes[ni].recovery_mark.take() {
            self.nodes[ni].recovery += t - mark;
            self.cluster.emit(TraceEvent::RecoverySpan {
                node: n,
                start: mark,
                end: t,
            });
        }
        // Its stored blocks survive the outage: pending local tasks become
        // stealable again. (No mutation of this node's `local_pending`
        // happens in the loop body, so indexed iteration is safe.)
        let mut freed = std::mem::take(&mut self.freed_buf);
        freed.clear();
        for i in 0..self.nodes[ni].local_pending.len() {
            let task = self.nodes[ni].local_pending.as_slice()[i];
            if self.pending.contains(task) {
                self.stealable.insert(task);
                freed.push(task);
            }
        }
        let result = self.try_assign(n, t).and_then(|_| {
            // This node returning may unblock idle nodes (new steal
            // sources).
            self.dispatch_idle(t, &freed)
        });
        self.freed_buf = freed;
        result
    }

    /// Gives idle nodes a chance to pick up newly available work.
    /// `freed` hints which tasks just became schedulable, so the locality
    /// pass stays O(|freed|·k) instead of scanning every stealable task.
    fn dispatch_idle(&mut self, t: f64, freed: &[usize]) -> Result<(), SimError> {
        // Locality pass: idle replica holders of the freed tasks first.
        for &task in freed {
            if !self.pending.contains(task) {
                continue;
            }
            for ri in 0..self.tasks[task].replicas.len() {
                let r = self.tasks[task].replicas[ri];
                if self.idle.contains(r as usize) && self.try_assign(r, t)? {
                    break;
                }
            }
        }
        // General pass: first-come idle nodes until assignment fails.
        while let Some(n) = self.idle.first() {
            if !self.try_assign(n as u32, t)? {
                break;
            }
        }
        Ok(())
    }

    /// Maintains `local_pending` plus the recovery clock of down nodes.
    fn add_local_pending(&mut self, n: u32, task: usize, t: f64) {
        let ni = n as usize;
        self.nodes[ni].local_pending.insert(task);
        if !self.cluster.is_up(n) && self.nodes[ni].recovery_mark.is_none() {
            self.nodes[ni].recovery_mark = Some(t);
        }
    }

    /// Maintains `local_pending` plus the recovery clock of down nodes.
    fn remove_local_pending(&mut self, n: u32, task: usize, t: f64) {
        let ni = n as usize;
        self.nodes[ni].local_pending.remove(task);
        if self.nodes[ni].local_pending.is_empty() {
            if let Some(mark) = self.nodes[ni].recovery_mark.take() {
                self.nodes[ni].recovery += t - mark;
                self.cluster.emit(TraceEvent::RecoverySpan {
                    node: n,
                    start: mark,
                    end: t,
                });
            }
        }
    }

    fn finalize(mut self, elapsed: f64, completed: bool, seed: u64) -> DetailedReport {
        let mut recovery = 0.0;
        let mut up_idle = 0.0;
        let mut node_stats = Vec::with_capacity(self.nodes.len());
        for ni in 0..self.nodes.len() {
            let n = ni as u32;
            let downtime = self.cluster.downtime(ni, elapsed);
            if let Some(mark) = self.nodes[ni].recovery_mark.take() {
                self.nodes[ni].recovery += (elapsed - mark).max(0.0);
                // Emit only a span that contributes: `(elapsed - mark).max(0.0)`
                // adds exactly 0.0 otherwise, which derivation reproduces by
                // simply not seeing a span.
                if elapsed - mark > 0.0 {
                    self.cluster.emit(TraceEvent::RecoverySpan {
                        node: n,
                        start: mark,
                        end: elapsed,
                    });
                }
            }
            // An attempt still running at the cut (incomplete runs only)
            // counts as busy time.
            if let Some(attempt) = self.nodes[ni].running.take() {
                self.nodes[ni].busy += (elapsed - attempt.reserve_start).max(0.0);
                self.emit_transfer_end(n, &attempt, elapsed);
                self.cluster.emit(TraceEvent::AttemptCut {
                    node: n,
                    task: attempt.task as u32,
                    attempt: attempt.seq,
                    local: attempt.local,
                    start: attempt.reserve_start,
                    compute_start: attempt.compute_start,
                    end: elapsed,
                });
            }
            let node = &self.nodes[ni];
            recovery += node.recovery;
            let uptime = (elapsed - downtime).max(0.0);
            up_idle += (uptime - node.busy).max(0.0);
            self.telemetry.node_busy_us.record_secs(node.busy);
            self.telemetry.node_down_us.record_secs(downtime);
            self.telemetry
                .node_idle_us
                .record_secs((uptime - node.busy).max(0.0));
            node_stats.push(NodeStat {
                busy: node.busy,
                downtime,
                recovery: node.recovery,
                completed_tasks: node.completed_tasks,
                local_completed: node.local_completed,
            });
        }
        let base_work = self.tasks.len() as f64 * self.cfg.gamma;
        let report = SimReport {
            elapsed,
            tasks: self.tasks.len(),
            local_tasks: self.local_completions,
            attempts: self.attempts,
            transfers: self.transfers,
            base_work,
            rework: self.rework,
            recovery,
            migration: self.migration,
            misc: up_idle + self.dup_compute,
            completed,
        };
        self.telemetry.rework.add_secs(report.rework);
        self.telemetry.recovery.add_secs(report.recovery);
        self.telemetry.migration.add_secs(report.migration);
        self.telemetry.misc.add_secs(report.misc);
        self.telemetry.elapsed.add_secs(report.elapsed);
        DetailedReport {
            report,
            node_stats,
            winners: self.tasks.iter().map(|t| t.winner.map(NodeId)).collect(),
            telemetry: self.telemetry.snapshot(),
            trace: self
                .cluster
                .seal(self.tasks.len(), self.cfg.gamma, seed, elapsed, completed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::outage;
    use adapt_availability::dist::Dist;

    fn reliable(n: usize) -> Vec<InterruptionProcess> {
        (0..n).map(|_| InterruptionProcess::none()).collect()
    }

    fn cfg() -> SimConfig {
        SimConfig::new(8.0, BlockSize::DEFAULT, 12.0).unwrap()
    }

    fn simulate(
        processes: Vec<InterruptionProcess>,
        placement: Vec<Vec<NodeId>>,
        cfg: SimConfig,
        seed: u64,
    ) -> SimReport {
        MapPhaseSim::new(processes, placement, cfg)
            .unwrap()
            .run(seed)
            .unwrap()
    }

    fn assert_close(actual: f64, expected: f64) {
        assert!((actual - expected).abs() < 1e-9, "{actual} != {expected}");
    }

    /// `blocks[i] = node` places task i's single replica on that node.
    fn single_replica(blocks: &[u32]) -> Vec<Vec<NodeId>> {
        blocks.iter().map(|&n| vec![NodeId(n)]).collect()
    }

    #[test]
    fn config_validation() {
        assert!(SimConfig::new(0.0, BlockSize::DEFAULT, 12.0).is_err());
        assert!(SimConfig::new(8.0, BlockSize::from_bytes(0), 12.0).is_err());
        assert!(SimConfig::new(8.0, BlockSize::DEFAULT, 0.0).is_err());
        assert!(cfg().with_max_copies(0).is_err());
        assert!(cfg().with_max_copies(3).is_ok());
    }

    #[test]
    fn construction_validation() {
        assert!(MapPhaseSim::new(vec![], single_replica(&[0]), cfg()).is_err());
        assert!(MapPhaseSim::new(reliable(1), vec![], cfg()).is_err());
        assert!(MapPhaseSim::new(reliable(1), vec![vec![]], cfg()).is_err());
        assert!(matches!(
            MapPhaseSim::new(reliable(1), single_replica(&[5]), cfg()),
            Err(SimError::PlacementOutOfRange { .. })
        ));
    }

    #[test]
    fn failure_free_balanced_run_is_exact() {
        // 2 nodes, 3 local tasks each: elapsed = 3γ, perfect locality,
        // zero overheads except tail idle (none here — symmetric).
        let placement = single_replica(&[0, 1, 0, 1, 0, 1]);
        let report = simulate(reliable(2), placement, cfg(), 1);
        assert!(report.completed);
        assert!((report.elapsed - 36.0).abs() < 1e-9);
        assert_eq!(report.local_tasks, 6);
        assert_eq!(report.locality(), 1.0);
        assert_eq!(report.transfers, 0);
        assert!(report.rework == 0.0 && report.recovery == 0.0);
        assert!(report.migration == 0.0);
        assert!(report.misc.abs() < 1e-9);
        assert_eq!(report.attempts, 6);
    }

    #[test]
    fn skewed_placement_triggers_stealing_and_migration() {
        // All 4 tasks on node 0; node 1 must steal remotely. Fast network
        // (512 Mb/s -> 1 s per block) so stealing is worthwhile.
        let placement = single_replica(&[0, 0, 0, 0]);
        let fast = SimConfig::new(512.0, BlockSize::DEFAULT, 12.0).unwrap();
        let report = simulate(reliable(2), placement, fast, 2);
        assert!(report.completed);
        assert!(report.transfers > 0, "node 1 should steal");
        assert!(report.migration > 0.0);
        assert!(report.locality() < 1.0);
        // Stealing must beat the all-local serial time of 48 s:
        assert!(report.elapsed < 48.0, "elapsed {}", report.elapsed);
    }

    #[test]
    fn stealing_is_not_worth_it_under_slow_network() {
        // Transfer (512 s at 1 Mb/s) dwarfs compute (12 s): node 0 churns
        // through its local tasks while node 1's single steal is slow.
        let placement = single_replica(&[0; 8]);
        let slow = SimConfig::new(1.0, BlockSize::DEFAULT, 12.0).unwrap();
        let report = simulate(reliable(2), placement, slow, 3);
        assert!(report.completed);
        // Node 0 finishes the rest locally long before the transfer ends;
        // elapsed is bounded by the local serial time.
        assert!(report.elapsed <= 8.0 * 12.0 + 1e-9);
    }

    #[test]
    fn replicated_blocks_allow_local_execution_on_either_holder() {
        // Each task replicated on both nodes: everything is local.
        let placement: Vec<Vec<NodeId>> = (0..6).map(|_| vec![NodeId(0), NodeId(1)]).collect();
        let report = simulate(reliable(2), placement, cfg(), 4);
        assert_eq!(report.locality(), 1.0);
        assert_eq!(report.transfers, 0);
        assert!((report.elapsed - 36.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_run_leaves_report_identical_and_hub_deterministic() {
        // Volatile node 0 so the run crosses several scrape boundaries
        // with outage/requeue traffic, not just a straight drain.
        let build = || {
            let mut processes = vec![InterruptionProcess::synthetic(
                20.0,
                Dist::exponential_from_mean(10.0).unwrap(),
            )];
            processes.push(InterruptionProcess::none());
            MapPhaseSim::new(processes, single_replica(&[0, 1, 0, 1, 0, 1]), cfg()).unwrap()
        };
        let plain = build().run_detailed(9).unwrap();
        let mut hub = adapt_metrics::MetricsHub::new(10_000_000);
        let with_metrics = build().run_detailed_metrics(9, &mut hub).unwrap();
        // Zero-overhead-when-off contract, from the metrics side: the
        // hub changes nothing observable about the run.
        assert_eq!(plain, with_metrics);
        // The hub itself is a pure function of (scenario, seed).
        let mut hub2 = adapt_metrics::MetricsHub::new(10_000_000);
        build().run_detailed_metrics(9, &mut hub2).unwrap();
        assert_eq!(
            hub.to_jsonl("engine-test", 2, 9),
            hub2.to_jsonl("engine-test", 2, 9)
        );
        // Gauges were scraped on the sim-time cadence and sealed at the
        // end of the run; per-event work landed in profiler spans.
        let done = &hub.registry.series()["engine.done_tasks"];
        assert!(done.len() >= 2, "expected cadence + final scrapes");
        assert_eq!(
            done.last().map(|s| s.value),
            Some(adapt_metrics::SampleValue::U64(6))
        );
        let spans = hub.profiler.to_spans();
        assert!(spans.iter().any(|s| s.path == "run;attempt_done"));
        let total_events: u64 = spans.iter().map(|s| s.counts.events).sum();
        assert!(total_events > 0);
    }

    #[test]
    fn interruption_forces_rework_and_recovery_wait() {
        // Node 0 goes down at t=5 for 100 s, killing its 12 s task. Node 1
        // holds no replica and the block's only copy is on the downed
        // host, so the task waits for recovery: restart at 105, done 117.
        let processes = vec![outage(5.0, 100.0), InterruptionProcess::none()];
        let placement = single_replica(&[0]);
        let report = simulate(processes, placement, cfg(), 5);
        assert!(report.completed);
        // 5 s of compute lost on node 0.
        assert_close(report.rework, 5.0);
        assert_close(report.elapsed, 117.0);
        assert_eq!(report.transfers, 0);
        assert_eq!(report.locality(), 1.0);
        // The full outage stalled the pending task.
        assert_close(report.recovery, 100.0);
    }

    #[test]
    fn task_waits_for_its_only_holder_when_stealing_is_impossible() {
        // Single node cluster: interrupted at t=5 for 50 s; the task must
        // wait (recovery cost) and re-execute (rework).
        let processes = vec![outage(5.0, 50.0)];
        let report = simulate(processes, single_replica(&[0]), cfg(), 6);
        assert!(report.completed);
        // Killed at 5 (rework 5), down until 55, restart, done at 67.
        assert!((report.elapsed - 67.0).abs() < 1e-9);
        assert!((report.rework - 5.0).abs() < 1e-9);
        assert!((report.recovery - 50.0).abs() < 1e-9);
        assert_eq!(report.locality(), 1.0);
    }

    #[test]
    fn speculation_rescues_a_task_stuck_in_a_slow_transfer() {
        // Two tasks on node 0 over a 1 Mb/s link (512 s per block).
        // Node 1 steals task 1 at t=0 but its transfer runs to t=512;
        // node 0 finishes task 0 at t=12 and — seeing the straggler's
        // ETA of 524 — duplicates task 1 locally, finishing at t=24.
        let placement = single_replica(&[0, 0]);
        let slow = SimConfig::new(1.0, BlockSize::DEFAULT, 12.0).unwrap();
        let spec_on = simulate(reliable(2), placement.clone(), slow, 7);
        assert_close(spec_on.elapsed, 24.0);
        assert!(spec_on.attempts > 2, "duplicate attempt expected");
        assert!(
            spec_on.migration > 0.0,
            "the doomed transfer still cost traffic"
        );

        // Without speculation the job waits for the 512 s transfer.
        let spec_off = simulate(reliable(2), placement, slow.with_speculation(false), 7);
        assert!(
            spec_off.elapsed > 500.0,
            "elapsed without speculation {}",
            spec_off.elapsed
        );
        assert!(spec_off.elapsed > spec_on.elapsed);
    }

    #[test]
    fn overheads_are_non_negative_and_locality_bounded() {
        // A hostile heterogeneous scenario exercising every code path.
        let groups = [(10.0, 4.0), (10.0, 8.0), (20.0, 4.0), (20.0, 8.0)];
        let processes: Vec<InterruptionProcess> = (0..16)
            .map(|i| {
                if i < 8 {
                    InterruptionProcess::none()
                } else {
                    let (mtbi, mu) = groups[(i - 8) % 4];
                    InterruptionProcess::synthetic(mtbi, Dist::exponential_from_mean(mu).unwrap())
                }
            })
            .collect();
        let placement: Vec<Vec<NodeId>> = (0..160).map(|i| vec![NodeId(i % 16)]).collect();
        let report = simulate(processes, placement, cfg(), 8);
        assert!(report.completed);
        assert!(report.elapsed > 0.0);
        assert!(report.rework >= 0.0);
        assert!(report.recovery >= 0.0);
        assert!(report.migration >= 0.0);
        assert!(report.misc >= -1e-6, "misc {}", report.misc);
        let loc = report.locality();
        assert!((0.0..=1.0).contains(&loc));
        assert!(report.base_work == 160.0 * 12.0);
        assert!(report.attempts >= report.tasks);
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let processes = |_| {
            (0..8)
                .map(|i| {
                    if i % 2 == 0 {
                        InterruptionProcess::none()
                    } else {
                        InterruptionProcess::synthetic(
                            15.0,
                            Dist::exponential_from_mean(5.0).unwrap(),
                        )
                    }
                })
                .collect::<Vec<_>>()
        };
        let placement: Vec<Vec<NodeId>> = (0..80).map(|i| vec![NodeId(i % 8)]).collect();
        let a = simulate(processes(0), placement.clone(), cfg(), 99);
        let b = simulate(processes(0), placement.clone(), cfg(), 99);
        assert_eq!(a, b);
        let c = simulate(processes(0), placement, cfg(), 100);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn horizon_reports_incomplete() {
        // The only replica holder is down from 0 to 1e5; horizon 100.
        let processes = vec![outage(0.0, 1e5)];
        let report = simulate(
            processes,
            single_replica(&[0]),
            cfg().with_horizon(100.0),
            9,
        );
        assert!(!report.completed);
        assert_eq!(report.elapsed, 100.0);
    }

    #[test]
    fn node_down_at_start_defers_its_local_tasks() {
        // Node 0 down [0, 30); its 2 tasks must wait or be stolen by
        // node 1 (which has its own task first).
        let processes = vec![outage(0.0, 30.0), InterruptionProcess::none()];
        let placement = single_replica(&[0, 0, 1]);
        let report = simulate(processes, placement, cfg(), 10);
        assert!(report.completed);
        // Node 0's blocks are unreachable until t=30 (only replica), so
        // nothing can steal them: node 1 does its local task (12 s) then
        // idles; node 0 returns at 30 and runs 2 tasks -> 54; node 1 may
        // speculate the second task remotely meanwhile but cannot start
        // before 30.
        assert!(report.elapsed >= 54.0 - 1e-9 || report.elapsed >= 30.0);
        assert!(report.recovery > 0.0, "waiting on down holder is recovery");
    }

    #[test]
    fn max_copies_bounds_concurrent_duplicates() {
        // One long task on a volatile host, many reliable idle rescuers:
        // at most max_copies - 1 duplicates may coexist.
        let mut processes = vec![InterruptionProcess::synthetic(
            20.0,
            Dist::exponential_from_mean(10.0).unwrap(),
        )];
        processes.extend((0..5).map(|_| InterruptionProcess::none()));
        let placement = single_replica(&[0]);
        for max_copies in [1usize, 2, 3] {
            let cfg = SimConfig::new(512.0, BlockSize::DEFAULT, 30.0)
                .unwrap()
                .with_max_copies(max_copies)
                .unwrap();
            let report = simulate(processes.clone(), placement.clone(), cfg, 41);
            assert!(report.completed, "max_copies {max_copies}");
            // With max_copies = 1 no duplication at all: attempts only
            // grow through interruption re-executions.
            if max_copies == 1 {
                assert_eq!(report.transfers, 0, "no rescue possible");
            }
        }
    }

    #[test]
    fn fetch_failure_and_availability_aware_compose() {
        let groups = [(10.0, 4.0), (20.0, 8.0)];
        let processes: Vec<InterruptionProcess> = (0..8)
            .map(|i| {
                if i < 4 {
                    InterruptionProcess::none()
                } else {
                    let (mtbi, mu) = groups[i % 2];
                    InterruptionProcess::synthetic(mtbi, Dist::exponential_from_mean(mu).unwrap())
                }
            })
            .collect();
        let placement: Vec<Vec<NodeId>> = (0..40).map(|i| vec![NodeId(i % 8)]).collect();
        let cfg = SimConfig::new(8.0, BlockSize::DEFAULT, 5.0)
            .unwrap()
            .with_fetch_failure(true)
            .with_scheduling(SchedulingMode::AvailabilityAware)
            .with_detection_delay(5.0)
            .unwrap();
        let report = simulate(processes, placement, cfg, 42);
        assert!(report.completed);
        assert!(report.misc >= -1e-6);
        assert!(report.rework >= 0.0);
        assert!((0.0..=1.0).contains(&report.locality()));
    }

    #[test]
    fn fetch_failure_kills_in_flight_transfers_when_enabled() {
        // Tasks 0 and 1 on node 0 (64 s transfers at 8 Mb/s). Node 1
        // steals task 1 at t=0; node 0 dies at t=10 until t=200.
        let mk = |fetch_failure: bool| {
            let processes = vec![outage(10.0, 190.0), InterruptionProcess::none()];
            let placement = single_replica(&[0, 0]);
            let cfg = cfg().with_fetch_failure(fetch_failure);
            MapPhaseSim::new(processes, placement, cfg)
                .unwrap()
                .run(31)
                .unwrap()
        };
        // Default: the transfer survives; node 1 finishes task 1 at 76,
        // node 0 resumes task 0 at 200 and finishes at 212.
        let lenient = mk(false);
        assert_close(lenient.elapsed, 212.0);
        // With fetch failure: node 1's fetch dies at t=10; both tasks
        // wait for node 0's recovery at 200. Node 0 runs task 0 locally
        // (200..212) while node 1 re-fetches task 1 (compute would start
        // at 264); at 212 node 0 sees the straggler's ETA and duplicates
        // task 1 locally, winning at 224.
        let strict = mk(true);
        assert!(
            strict.elapsed > lenient.elapsed,
            "strict {}",
            strict.elapsed
        );
        assert_close(strict.elapsed, 224.0);
    }

    #[test]
    fn detection_delay_postpones_requeue() {
        // Node 0 dies at t=5 for 50 s, killing its 12 s task. With oracle
        // detection (0 s) the task re-pends at 5 and restarts at 55
        // (done 67). With a 30 s timeout the JobTracker requeues at 35 —
        // node 0 is still down, so the restart still happens at 55...
        // make the delay extend past the recovery to observe the shift:
        // an 80 s delay requeues at 85, restart 85, done 97.
        let mk = |delay: f64| {
            let processes = vec![outage(5.0, 50.0)];
            let cfg = cfg().with_detection_delay(delay).unwrap();
            MapPhaseSim::new(processes, single_replica(&[0]), cfg)
                .unwrap()
                .run(21)
                .unwrap()
        };
        let oracle = mk(0.0);
        assert_close(oracle.elapsed, 67.0);
        let delayed = mk(80.0);
        assert_close(delayed.elapsed, 97.0);
        assert!(delayed.elapsed > oracle.elapsed);
    }

    #[test]
    fn detection_delay_validation() {
        assert!(cfg().with_detection_delay(-1.0).is_err());
        assert!(cfg().with_detection_delay(f64::NAN).is_err());
        let c = cfg().with_detection_delay(15.0).unwrap();
        assert_eq!(c.detection_delay(), 15.0);
    }

    #[test]
    fn requeue_after_task_resolved_elsewhere_is_a_noop() {
        // Task replicated on nodes 0 and 1. Node 0 dies at t=5 (its copy
        // killed, detection delayed 100 s); node 1 holds a replica and
        // picks the task up as soon as it goes idle... since the task
        // never re-pended, node 1 can only get it via the Requeue at 105
        // — unless it was already RUNNING a duplicate. Simplest check:
        // the run completes and the late Requeue does not double-run it.
        let processes = vec![outage(5.0, 500.0), InterruptionProcess::none()];
        let placement = vec![vec![NodeId(0), NodeId(1)]];
        let cfg = cfg().with_detection_delay(100.0).unwrap();
        let report = simulate(processes, placement, cfg, 22);
        assert!(report.completed);
        // Requeue fires at 105; node 1 runs it locally 105..117.
        assert_close(report.elapsed, 117.0);
        assert_eq!(report.tasks, 1);
    }

    #[test]
    fn run_detailed_reports_node_stats_and_winners() {
        let placement = single_replica(&[0, 1, 0, 1]);
        let detailed = MapPhaseSim::new(reliable(2), placement, cfg())
            .unwrap()
            .run_detailed(11)
            .unwrap();
        assert!(detailed.report.completed);
        assert_eq!(detailed.node_stats.len(), 2);
        assert_eq!(detailed.winners.len(), 4);
        // Fully local balanced run: each node completed its own two tasks.
        for (i, stat) in detailed.node_stats.iter().enumerate() {
            assert_eq!(stat.completed_tasks, 2, "node {i}");
            assert_eq!(stat.local_completed, 2);
            assert!((stat.busy - 24.0).abs() < 1e-9);
            assert_eq!(stat.downtime, 0.0);
        }
        assert_eq!(detailed.winners[0], Some(NodeId(0)));
        assert_eq!(detailed.winners[1], Some(NodeId(1)));
        // Per-node completion counts sum to the aggregate.
        let total: usize = detailed.node_stats.iter().map(|s| s.completed_tasks).sum();
        assert_eq!(total, detailed.report.tasks);
    }

    #[test]
    fn incomplete_run_has_none_winners() {
        let processes = vec![outage(0.0, 1e5)];
        let detailed = MapPhaseSim::new(processes, single_replica(&[0]), cfg().with_horizon(50.0))
            .unwrap()
            .run_detailed(12)
            .unwrap();
        assert!(!detailed.report.completed);
        assert_eq!(detailed.winners[0], None);
    }

    #[test]
    fn availability_aware_scheduling_steals_at_risk_tasks_first() {
        // Node 2 is idle (no local blocks). Two stealable tasks exist:
        // task 0 on reliable node 0, task 1 on volatile node 1. Under
        // FIFO it steals task 0 (lowest id); availability-aware steals
        // task 1, whose data is in danger.
        //
        // Construct: nodes 0 and 1 hold one *extra* block each beyond the
        // one they are running, so both have a pending stealable task at
        // t=0 after the Kick assigns their first.
        // Node 1 is *statistically* volatile (slowdown 2) but its MTBI
        // is far beyond the run length, so the dynamics stay
        // deterministic and only the risk ranking differs.
        let processes = vec![
            InterruptionProcess::none(),
            InterruptionProcess::synthetic(1e6, Dist::exponential_from_mean(5e5).unwrap()),
            InterruptionProcess::none(),
        ];
        let placement = single_replica(&[0, 1, 0, 1]);
        let fast = SimConfig::new(512.0, BlockSize::DEFAULT, 12.0).unwrap();

        let fifo = MapPhaseSim::new(processes.clone(), placement.clone(), fast)
            .unwrap()
            .run_detailed(13)
            .unwrap();
        let aware = MapPhaseSim::new(
            processes,
            placement,
            fast.with_scheduling(SchedulingMode::AvailabilityAware),
        )
        .unwrap()
        .run_detailed(13)
        .unwrap();
        assert!(fifo.report.completed && aware.report.completed);
        // Node 2's first steal differs: FIFO takes task 2 (node 0's
        // spare), availability-aware takes task 3 (node 1's spare).
        let fifo_first_remote = fifo.winners.iter().position(|w| *w == Some(NodeId(2)));
        let aware_first_remote = aware.winners.iter().position(|w| *w == Some(NodeId(2)));
        assert_ne!(
            fifo_first_remote, aware_first_remote,
            "scheduling mode should change which task node 2 stole"
        );
    }

    #[test]
    fn source_stream_cap_limits_concurrent_fetches() {
        // 9 tasks on node 0; eight idle fetchers want them at once, but
        // node 0 serves at most 2 streams. With 1 s transfers the steals
        // proceed in waves rather than all at t=0.
        let placement = single_replica(&[0; 9]);
        let cfg = SimConfig::new(512.0, BlockSize::DEFAULT, 12.0)
            .unwrap()
            .with_max_source_streams(2)
            .unwrap();
        let report = simulate(reliable(9), placement, cfg, 14);
        assert!(report.completed);
        // Serial local would be 108 s; parallel stealing must beat it,
        // but the 2-stream cap forces waves so it cannot collapse to a
        // single 13 s round.
        assert!(report.elapsed < 108.0, "elapsed {}", report.elapsed);
        assert!(report.elapsed > 13.0 + 1e-9, "elapsed {}", report.elapsed);
    }

    #[test]
    fn mean_params_reflect_process_kind() {
        let none = InterruptionProcess::none();
        assert_eq!(none.mean_params(), None);
        let synth = InterruptionProcess::synthetic(25.0, Dist::exponential_from_mean(5.0).unwrap());
        let (lambda, mu) = synth.mean_params().unwrap();
        assert!((lambda - 0.04).abs() < 1e-12);
        assert!((mu - 5.0).abs() < 1e-12);
    }

    #[test]
    fn straggler_rescue_caps_the_flaky_tail() {
        // One volatile node holds 4 of 8 blocks; one reliable node holds
        // the rest. With rescue, the reliable node duplicates the
        // volatile node's crash-looping tasks; the run must finish well
        // under the volatile node's expected serial grind.
        let processes = vec![
            InterruptionProcess::synthetic(10.0, Dist::exponential_from_mean(8.0).unwrap()),
            InterruptionProcess::none(),
        ];
        let placement = single_replica(&[0, 0, 0, 0, 1, 1, 1, 1]);
        // gamma 5: E[T] on the volatile host = (e^0.5-1)(10+40) = 32.4 s;
        // 4 tasks = 130 s expected serial, with a heavy tail beyond.
        let cfg = SimConfig::new(8.0, BlockSize::DEFAULT, 5.0).unwrap();
        let mut with_rescue = 0.0;
        let mut without_rescue = 0.0;
        for seed in 0..6 {
            let on = simulate(processes.clone(), placement.clone(), cfg, seed);
            assert!(on.completed);
            with_rescue += on.elapsed;
            let off = simulate(
                processes.clone(),
                placement.clone(),
                cfg.with_speculation(false),
                seed,
            );
            without_rescue += off.elapsed;
        }
        assert!(
            with_rescue < without_rescue,
            "rescue {with_rescue} vs no rescue {without_rescue}"
        );
    }

    /// A volatile 4-node scenario that exercises every traced code path:
    /// interruptions, remote steals, speculation, detection delay.
    fn volatile_sim() -> MapPhaseSim {
        let processes = vec![
            InterruptionProcess::synthetic(60.0, Dist::exponential_from_mean(20.0).unwrap()),
            InterruptionProcess::synthetic(90.0, Dist::exponential_from_mean(30.0).unwrap()),
            InterruptionProcess::none(),
            InterruptionProcess::none(),
        ];
        let placement = single_replica(&[0, 1, 0, 1, 0, 1, 2, 3]);
        let cfg = SimConfig::new(64.0, BlockSize::DEFAULT, 12.0)
            .unwrap()
            .with_detection_delay(3.0)
            .unwrap();
        MapPhaseSim::new(processes, placement, cfg).unwrap()
    }

    #[test]
    fn tracing_does_not_perturb_the_run() {
        for seed in [7u64, 2012, 424242] {
            let plain = volatile_sim().run_detailed(seed).unwrap();
            let traced = volatile_sim()
                .with_trace(TraceRecorder::new())
                .run_detailed(seed)
                .unwrap();
            assert!(plain.trace.is_none());
            let trace = traced.trace.as_ref().unwrap();
            assert!(!trace.events.is_empty());
            assert_eq!(trace.meta.seed, seed);
            // Tracing must not change a single observable of the run.
            assert_eq!(plain.report, traced.report, "seed {seed}");
            assert_eq!(plain.node_stats, traced.node_stats);
            assert_eq!(plain.winners, traced.winners);
            assert_eq!(plain.telemetry, traced.telemetry);
        }
    }

    #[test]
    fn trace_rederives_engine_overheads_exactly() {
        use adapt_trace::derive_totals;
        for seed in [7u64, 2012, 424242] {
            let detailed = volatile_sim()
                .with_trace(TraceRecorder::new())
                .run_detailed(seed)
                .unwrap();
            let trace = detailed.trace.as_ref().unwrap();
            let derived = derive_totals(trace);
            let snap = &detailed.telemetry;
            // Bit-exact, not approximate: the derivation replays the
            // engine's f64 accumulation order and quantizes once.
            assert_eq!(derived.rework_us, snap.rework_us, "seed {seed}");
            assert_eq!(derived.recovery_us, snap.recovery_us, "seed {seed}");
            assert_eq!(derived.migration_us, snap.migration_us, "seed {seed}");
            assert_eq!(derived.misc_us, snap.misc_us, "seed {seed}");
            assert_eq!(derived.elapsed_us, snap.elapsed_us, "seed {seed}");
            assert_eq!(derived.attempts_started, snap.attempts_started);
            assert_eq!(derived.transfers_started, snap.transfers_started);
            assert_eq!(derived.interruptions, snap.interruptions);
            assert_eq!(derived.kills_interruption, snap.kills_interruption);
            assert_eq!(derived.kills_source_lost, snap.kills_source_lost);
            assert_eq!(derived.speculative_losses, snap.speculative_losses);
            assert_eq!(derived.requeues, snap.requeues);
        }
    }

    #[test]
    fn trace_roundtrips_and_is_byte_stable() {
        use adapt_trace::{parse_jsonl, write_jsonl};
        let detailed = volatile_sim()
            .with_trace(TraceRecorder::new())
            .run_detailed(2012)
            .unwrap();
        let trace = detailed.trace.unwrap();
        let text = write_jsonl(&trace);
        let reparsed = parse_jsonl(&text).unwrap();
        assert_eq!(reparsed, trace);
        // Second identical run serializes to identical bytes.
        let again = volatile_sim()
            .with_trace(TraceRecorder::new())
            .run_detailed(2012)
            .unwrap()
            .trace
            .unwrap();
        assert_eq!(write_jsonl(&again), text);
    }

    #[test]
    fn incomplete_traced_run_cuts_open_attempts() {
        use adapt_trace::derive_totals;
        let detailed = MapPhaseSim::new(
            reliable(1),
            single_replica(&[0, 0, 0]),
            cfg().with_horizon(20.0),
        )
        .unwrap()
        .with_trace(TraceRecorder::new())
        .run_detailed(3)
        .unwrap();
        assert!(!detailed.report.completed);
        let trace = detailed.trace.as_ref().unwrap();
        assert!(!trace.meta.completed);
        // The attempt running at the horizon shows up as a cut span
        // ending exactly at the cut.
        let cut = trace
            .events
            .iter()
            .find_map(|e| match e {
                TraceEvent::AttemptCut { end, .. } => Some(*end),
                _ => None,
            })
            .unwrap();
        assert!((cut - 20.0).abs() < 1e-9, "cut {cut}");
        let derived = derive_totals(trace);
        assert_eq!(derived.misc_us, detailed.telemetry.misc_us);
        assert_eq!(derived.elapsed_us, detailed.telemetry.elapsed_us);
    }

    #[test]
    fn explicit_flat_topology_is_byte_identical_to_default() {
        // A workload with remote fetches: node 1 holds nothing and must
        // steal everything from node 0.
        let placement = single_replica(&[0, 0, 0, 0]);
        let base = MapPhaseSim::new(reliable(2), placement.clone(), cfg())
            .unwrap()
            .run_detailed(7)
            .unwrap();
        let flat = MapPhaseSim::new(
            reliable(2),
            placement,
            cfg().with_topology(Topology::new(1, 1.0).unwrap()),
        )
        .unwrap()
        .run_detailed(7)
        .unwrap();
        assert_eq!(base, flat);
        assert_eq!(flat.telemetry.transfers_cross_rack, 0);
    }

    #[test]
    fn cross_rack_fetch_pays_the_oversubscribed_uplink() {
        // Two nodes in two racks; node 1 steals task 1 from node 0 at
        // t = 0 over the 2:1-oversubscribed core (speculation off so the
        // fetch runs to completion).
        let topo = Topology::new(2, 2.0).unwrap();
        let placement = single_replica(&[0, 0]);
        let detailed = MapPhaseSim::new(
            reliable(2),
            placement.clone(),
            cfg().with_speculation(false).with_topology(topo),
        )
        .unwrap()
        .run_detailed(7)
        .unwrap();
        // base fetch = 64 MB over 8 Mb/s = 64 s; cross-rack ×2 = 128 s,
        // then γ = 12 s of compute.
        assert!(detailed.report.completed);
        assert!((detailed.report.elapsed - 140.0).abs() < 1e-9);
        assert!((detailed.report.migration - 128.0).abs() < 1e-9);
        assert_eq!(detailed.telemetry.transfers_cross_rack, 1);
        assert_eq!(detailed.telemetry.link_streams_hwm, 1);

        // The same run on the flat network fetches in 64 s.
        let flat = MapPhaseSim::new(reliable(2), placement, cfg().with_speculation(false))
            .unwrap()
            .run_detailed(7)
            .unwrap();
        assert!((flat.report.elapsed - 76.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_cross_rack_flows_share_the_uplink() {
        // Racks {0,2} and {1,3}; every block on node 0. At t = 0 nodes
        // 1, 2, 3 all steal from node 0: the fetches to 1 and 3 cross
        // the core (the second commits against the first → contention),
        // the fetch to 2 stays inside rack 0 at the flat rate.
        let topo = Topology::new(2, 2.0).unwrap();
        let placement = single_replica(&[0, 0, 0, 0, 0, 0]);
        let detailed = MapPhaseSim::new(
            reliable(4),
            placement,
            cfg().with_speculation(false).with_topology(topo),
        )
        .unwrap()
        .with_trace(TraceRecorder::new())
        .run_detailed(7)
        .unwrap();
        assert_eq!(detailed.telemetry.transfers_cross_rack, 2);
        assert_eq!(detailed.telemetry.link_streams_hwm, 2);
        let trace = detailed.trace.as_ref().unwrap();
        let contention = trace
            .events
            .iter()
            .find_map(|e| match e {
                TraceEvent::LinkContention { rack, streams, t } => Some((*rack, *streams, *t)),
                _ => None,
            })
            .unwrap();
        assert_eq!(contention, (0, 2, 0.0));
        // Node 1 committed alone (64 × 2 = 128 s); node 3 committed
        // second and shares the uplink (64 × 2 × 2 = 256 s).
        let fetch_end = |dest: u32| {
            trace
                .events
                .iter()
                .find_map(|e| match e {
                    TraceEvent::TransferDone {
                        dest: d,
                        start,
                        end,
                        ..
                    } if *d == dest && *start == 0.0 => Some(*end),
                    _ => None,
                })
                .unwrap()
        };
        assert!((fetch_end(1) - 128.0).abs() < 1e-9);
        assert!((fetch_end(2) - 64.0).abs() < 1e-9);
        assert!((fetch_end(3) - 256.0).abs() < 1e-9);
    }

    #[test]
    fn requeue_tied_with_recovery_pops_first() {
        // Node 0 dies at 4 until 10 and the 6 s detection delay requeues
        // its task at exactly 10. `kill_attempt` pushes the Requeue before
        // `on_down` pushes the Up, so at the tie the task re-pends while
        // its only holder is still down (opening a zero-length recovery
        // span), and the Up then restarts it locally.
        let detailed = MapPhaseSim::new(
            vec![outage(4.0, 6.0)],
            single_replica(&[0]),
            cfg().with_detection_delay(6.0).unwrap(),
        )
        .unwrap()
        .with_trace(TraceRecorder::new())
        .run_detailed(5)
        .unwrap();
        assert!((detailed.report.elapsed - 22.0).abs() < 1e-9);
        let started = |attempt: u64, t: f64| TraceEvent::AttemptStarted {
            node: 0,
            task: 0,
            attempt,
            local: true,
            source: None,
            t,
            compute_start: t,
        };
        let expected = vec![
            started(0, 0.0),
            TraceEvent::NodeDown { node: 0, t: 4.0 },
            TraceEvent::AttemptKilled {
                node: 0,
                task: 0,
                attempt: 0,
                local: true,
                start: 0.0,
                compute_start: 0.0,
                end: 4.0,
                reason: KillCause::Interruption,
            },
            TraceEvent::TaskRequeued { task: 0, t: 10.0 },
            TraceEvent::NodeUp {
                node: 0,
                since: 4.0,
                t: 10.0,
            },
            TraceEvent::RecoverySpan {
                node: 0,
                start: 10.0,
                end: 10.0,
            },
            started(1, 10.0),
            TraceEvent::AttemptWon {
                node: 0,
                task: 0,
                attempt: 1,
                local: true,
                start: 10.0,
                compute_start: 10.0,
                end: 22.0,
            },
        ];
        assert_eq!(detailed.trace.unwrap().events, expected);
    }

    #[test]
    fn fetch_failure_keeps_killed_flows_on_the_rack_uplink() {
        // Racks {0, 2} and {1}. At t = 0 node 1 steals task 1 from node 0
        // across the core (64 s × 2 = 128 s window). Node 0 dies at 4 and
        // fetch failure kills that fetch, but its window stays committed
        // on rack 0's uplink: node 1 then steals task 3 from node 2 (also
        // rack 0) and shares the uplink with the dead flow — 2 streams,
        // 64 × 2 × 2 = 256 s.
        let detailed = MapPhaseSim::new(
            vec![
                outage(4.0, 1_000.0),
                InterruptionProcess::none(),
                InterruptionProcess::none(),
            ],
            single_replica(&[0, 0, 2, 2]),
            cfg()
                .with_fetch_failure(true)
                .with_topology(Topology::new(2, 2.0).unwrap()),
        )
        .unwrap()
        .with_trace(TraceRecorder::new())
        .run_detailed(9)
        .unwrap();
        let events = detailed.trace.unwrap().events;
        assert!(events.contains(&TraceEvent::LinkContention {
            rack: 0,
            streams: 2,
            t: 4.0,
        }));
        assert!(events.contains(&TraceEvent::TransferStarted {
            source: 2,
            dest: 1,
            task: 3,
            attempt: 1,
            bytes: BlockSize::DEFAULT.bytes(),
            start: 4.0,
            end: 260.0,
        }));
        assert_eq!(detailed.telemetry.kills_source_lost, 1);
    }
}
