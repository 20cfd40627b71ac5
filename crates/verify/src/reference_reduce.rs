//! The differential oracle's reduce-phase reference: a deliberately
//! naive lockstep mirror of `adapt_sim::reduce::ReducePhaseSim`.
//!
//! Same decision rules, same tie-breaks, same trace emission points —
//! but built on the crate's naive substrate: the event queue is an
//! unsorted `Vec` scanned linearly for the `(time, seq)` minimum instead
//! of the engine's 4-ary heap, and the cross-rack stream count walks
//! every host instead of striding over one rack's members. Under the
//! byte-identical output rule the two implementations must produce equal
//! [`ReduceReport`]s and traces on every valid input; any divergence the
//! oracle finds is a real bug.

use adapt_dfs::NodeId;
use adapt_sim::engine::SimConfig;
use adapt_sim::interrupt::InterruptionProcess;
use adapt_sim::reduce::{slice_bytes, ReduceDetailed, ReduceReport};
use adapt_sim::SimError;
use adapt_trace::{TraceEvent, TraceRecorder};

use crate::naive::{check_node, ClusterEvent, NaiveCluster};

/// Bytes in one megabyte (pinned alongside the engine's constant).
const BYTES_PER_MB: f64 = 1_048_576.0;

#[derive(Debug, Clone, Copy)]
enum ReduceEvent {
    FetchDone { reducer: u32, epoch: u64 },
    ReduceDone { reducer: u32, epoch: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ReducerPhase {
    Idle,
    Fetching {
        task: usize,
        source: u32,
        start: f64,
        end: f64,
        bytes: u64,
        cross_rack: bool,
    },
    Blocked,
    WaitingRecovery,
    Computing {
        start: f64,
    },
    Done,
}

#[derive(Debug)]
struct RefReducer {
    node: u32,
    phase: ReducerPhase,
    epoch: u64,
    attempt_seq: u64,
    next_task: usize,
    net_bytes: u64,
    finish: Option<f64>,
}

/// The naive reduce-phase reference. Construct once per run;
/// [`run`](ReferenceReduce::run) consumes it.
#[derive(Debug)]
pub struct ReferenceReduce {
    cfg: SimConfig,
    reduce_gamma: f64,
    holders: Vec<Vec<u32>>,
    output_bytes: Vec<u64>,
    cluster: NaiveCluster<ReduceEvent>,
    reducers: Vec<RefReducer>,
    done_count: usize,
    attempts: usize,
    fetches: usize,
    fetches_aborted: usize,
    local_bytes: u64,
    network_bytes: u64,
    cross_rack_bytes: u64,
    interruptions: usize,
    rework: f64,
}

impl ReferenceReduce {
    /// Builds a reference reduce phase — the same contract (and the same
    /// validation) as `ReducePhaseSim::new`.
    ///
    /// # Errors
    ///
    /// Exactly those of `ReducePhaseSim::new`.
    pub fn new(
        processes: Vec<InterruptionProcess>,
        holders: Vec<Vec<NodeId>>,
        output_bytes: Vec<u64>,
        reducer_nodes: Vec<NodeId>,
        cfg: SimConfig,
        reduce_gamma: f64,
    ) -> Result<Self, SimError> {
        let cluster = NaiveCluster::new(processes, &cfg)?;
        if holders.is_empty() {
            return Err(SimError::InvalidConfig {
                name: "holders",
                reason: "reduce phase needs at least one map output".into(),
            });
        }
        if holders.len() != output_bytes.len() {
            return Err(SimError::InvalidConfig {
                name: "output_bytes",
                reason: format!(
                    "{} byte entries for {} map outputs",
                    output_bytes.len(),
                    holders.len()
                ),
            });
        }
        if reducer_nodes.is_empty() {
            return Err(SimError::InvalidConfig {
                name: "reducer_nodes",
                reason: "at least one reducer required".into(),
            });
        }
        if !(reduce_gamma.is_finite() && reduce_gamma > 0.0) {
            return Err(SimError::InvalidConfig {
                name: "reduce_gamma",
                reason: format!("{reduce_gamma} must be finite and > 0"),
            });
        }
        let n = cluster.len();
        let mut holder_ids = Vec::with_capacity(holders.len());
        for (m, hs) in holders.iter().enumerate() {
            if hs.is_empty() {
                return Err(SimError::InvalidConfig {
                    name: "holders",
                    reason: format!("map output {m} has no holders"),
                });
            }
            let mut ids = Vec::new();
            for &h in hs {
                ids.push(check_node(m, h, n)?);
            }
            holder_ids.push(ids);
        }
        let mut reducers = Vec::new();
        for (r, &host) in reducer_nodes.iter().enumerate() {
            reducers.push(RefReducer {
                node: check_node(r, host, n)?,
                phase: ReducerPhase::Idle,
                epoch: 0,
                attempt_seq: 0,
                next_task: 0,
                net_bytes: 0,
                finish: None,
            });
        }
        Ok(ReferenceReduce {
            cfg,
            reduce_gamma,
            holders: holder_ids,
            output_bytes,
            cluster,
            reducers,
            done_count: 0,
            attempts: 0,
            fetches: 0,
            fetches_aborted: 0,
            local_bytes: 0,
            network_bytes: 0,
            cross_rack_bytes: 0,
            interruptions: 0,
            rework: 0.0,
        })
    }

    /// Attaches an event recorder, mirroring
    /// `ReducePhaseSim::with_trace`.
    pub fn with_trace(mut self, recorder: TraceRecorder) -> Self {
        self.cluster.set_trace(recorder);
        self
    }

    fn bytes_seconds(&self, bytes: u64) -> f64 {
        (bytes as f64 / BYTES_PER_MB) * 8.0 / self.cfg.bandwidth_mbps()
    }

    /// Runs the reference reduce phase — the same contract as
    /// `ReducePhaseSim::run`.
    ///
    /// # Errors
    ///
    /// Exactly those of `ReducePhaseSim::run`.
    pub fn run(mut self, seed: u64) -> Result<ReduceDetailed, SimError> {
        self.cluster.start(seed);
        let mut elapsed = None;
        while let Some((t, event)) = self.cluster.pop() {
            match event {
                ClusterEvent::Kick => {
                    for r in 0..self.reducers.len() as u32 {
                        if self.cluster.is_up(self.reducers[r as usize].node) {
                            self.start_attempt(r, t);
                        } else {
                            self.reducers[r as usize].phase = ReducerPhase::WaitingRecovery;
                        }
                    }
                }
                ClusterEvent::Down(n) => self.on_down(n, t),
                ClusterEvent::Up(n) => self.on_up(n, t),
                ClusterEvent::Phase(ReduceEvent::FetchDone { reducer, epoch }) => {
                    if self.reducers[reducer as usize].epoch == epoch {
                        self.on_fetch_done(reducer, t)?;
                    }
                }
                ClusterEvent::Phase(ReduceEvent::ReduceDone { reducer, epoch }) => {
                    if self.reducers[reducer as usize].epoch == epoch {
                        self.on_reduce_done(reducer, t)?;
                        if self.done_count == self.reducers.len() {
                            elapsed = Some(t);
                        }
                    }
                }
            }
            if elapsed.is_some() {
                break;
            }
        }

        let completed = elapsed.is_some();
        let elapsed = elapsed.unwrap_or(self.cluster.horizon());
        Ok(self.finalize(elapsed, completed, seed))
    }

    fn start_attempt(&mut self, r: u32, t: f64) {
        let ri = r as usize;
        self.attempts += 1;
        let attempt = self.reducers[ri].attempt_seq;
        let node = self.reducers[ri].node;
        self.cluster.emit(TraceEvent::ReduceStarted {
            reducer: r,
            node,
            attempt,
            t,
        });
        self.reducers[ri].next_task = 0;
        self.advance(r, t);
    }

    fn advance(&mut self, r: u32, t: f64) {
        let ri = r as usize;
        let node = self.reducers[ri].node;
        loop {
            let m = self.reducers[ri].next_task;
            if m == self.holders.len() {
                self.reducers[ri].phase = ReducerPhase::Computing { start: t };
                let epoch = self.reducers[ri].epoch;
                self.cluster.schedule(
                    t + self.reduce_gamma,
                    ReduceEvent::ReduceDone { reducer: r, epoch },
                );
                return;
            }
            let bytes = slice_bytes(self.output_bytes[m], ri, self.reducers.len());
            if bytes == 0 {
                self.reducers[ri].next_task += 1;
                continue;
            }
            if self.holders[m].contains(&node) {
                self.local_bytes += bytes;
                self.reducers[ri].next_task += 1;
                continue;
            }
            let Some(&source) = self.holders[m].iter().find(|&&h| self.cluster.is_up(h)) else {
                self.reducers[ri].phase = ReducerPhase::Blocked;
                return;
            };
            let (end, cross_rack, _) =
                self.cluster
                    .commit(source, node, 0, self.bytes_seconds(bytes), t);
            self.fetches += 1;
            self.reducers[ri].phase = ReducerPhase::Fetching {
                task: m,
                source,
                start: t,
                end,
                bytes,
                cross_rack,
            };
            let epoch = self.reducers[ri].epoch;
            self.cluster
                .schedule(end, ReduceEvent::FetchDone { reducer: r, epoch });
            return;
        }
    }

    fn on_fetch_done(&mut self, r: u32, t: f64) -> Result<(), SimError> {
        let ri = r as usize;
        let ReducerPhase::Fetching {
            task,
            source,
            start,
            end,
            bytes,
            cross_rack,
        } = self.reducers[ri].phase
        else {
            return Err(SimError::InvariantViolation {
                what: "epoch-valid fetch completion arrived while not fetching",
            });
        };
        debug_assert!(end <= t);
        self.cluster.emit(TraceEvent::ShuffleFetch {
            reducer: r,
            source,
            dest: self.reducers[ri].node,
            task: task as u32,
            bytes,
            start,
            end,
            aborted: false,
        });
        self.network_bytes += bytes;
        self.reducers[ri].net_bytes += bytes;
        if cross_rack {
            self.cross_rack_bytes += bytes;
        }
        self.reducers[ri].next_task = task + 1;
        self.advance(r, t);
        Ok(())
    }

    fn on_reduce_done(&mut self, r: u32, t: f64) -> Result<(), SimError> {
        let ri = r as usize;
        if !matches!(self.reducers[ri].phase, ReducerPhase::Computing { .. }) {
            return Err(SimError::InvariantViolation {
                what: "epoch-valid reduce completion arrived while not computing",
            });
        }
        self.reducers[ri].phase = ReducerPhase::Done;
        self.reducers[ri].finish = Some(t);
        self.done_count += 1;
        Ok(())
    }

    fn abort_fetch(&mut self, r: u32, t: f64) {
        let ri = r as usize;
        let ReducerPhase::Fetching {
            task,
            source,
            start,
            ..
        } = self.reducers[ri].phase
        else {
            return;
        };
        let bytes = slice_bytes(self.output_bytes[task], ri, self.reducers.len());
        self.fetches_aborted += 1;
        self.cluster.emit(TraceEvent::ShuffleFetch {
            reducer: r,
            source,
            dest: self.reducers[ri].node,
            task: task as u32,
            bytes,
            start,
            end: t,
            aborted: true,
        });
    }

    fn on_down(&mut self, n: u32, t: f64) {
        self.interruptions += 1;
        self.cluster.record_down(n, t);
        self.cluster.mark_down(n, t);

        for r in 0..self.reducers.len() as u32 {
            let ri = r as usize;
            if self.reducers[ri].node != n {
                continue;
            }
            match self.reducers[ri].phase {
                ReducerPhase::Done | ReducerPhase::WaitingRecovery => continue,
                ReducerPhase::Fetching { .. } => self.abort_fetch(r, t),
                ReducerPhase::Computing { start } => {
                    self.rework += (t - start).clamp(0.0, self.reduce_gamma);
                }
                ReducerPhase::Idle | ReducerPhase::Blocked => {}
            }
            self.reducers[ri].epoch += 1;
            self.reducers[ri].attempt_seq += 1;
            self.reducers[ri].phase = ReducerPhase::WaitingRecovery;
        }

        for r in 0..self.reducers.len() as u32 {
            let ri = r as usize;
            let ReducerPhase::Fetching { source, end, .. } = self.reducers[ri].phase else {
                continue;
            };
            if source != n || end <= t {
                continue;
            }
            self.abort_fetch(r, t);
            self.reducers[ri].epoch += 1;
            self.advance(r, t);
        }
    }

    fn on_up(&mut self, n: u32, t: f64) {
        self.cluster.recover(n, t);
        for r in 0..self.reducers.len() as u32 {
            let ri = r as usize;
            match self.reducers[ri].phase {
                ReducerPhase::WaitingRecovery if self.reducers[ri].node == n => {
                    self.start_attempt(r, t);
                }
                ReducerPhase::Blocked => {
                    self.advance(r, t);
                }
                ReducerPhase::WaitingRecovery
                | ReducerPhase::Idle
                | ReducerPhase::Fetching { .. }
                | ReducerPhase::Computing { .. }
                | ReducerPhase::Done => {}
            }
        }
    }

    fn finalize(mut self, elapsed: f64, completed: bool, seed: u64) -> ReduceDetailed {
        for r in 0..self.reducers.len() as u32 {
            if matches!(
                self.reducers[r as usize].phase,
                ReducerPhase::Fetching { .. }
            ) {
                self.abort_fetch(r, elapsed);
            }
        }
        let reducer_net_hwm = self.reducers.iter().map(|r| r.net_bytes).max().unwrap_or(0);
        let report = ReduceReport {
            elapsed,
            reducers: self.reducers.len(),
            completed,
            attempts: self.attempts,
            fetches: self.fetches,
            fetches_aborted: self.fetches_aborted,
            local_bytes: self.local_bytes,
            network_bytes: self.network_bytes,
            cross_rack_bytes: self.cross_rack_bytes,
            reducer_net_hwm,
            interruptions: self.interruptions,
            rework: self.rework,
            base_work: self.reducers.len() as f64 * self.reduce_gamma,
            finish: self.reducers.iter().map(|r| r.finish).collect(),
            reducer_nodes: self.reducers.iter().map(|r| NodeId(r.node)).collect(),
        };
        let trace = self.cluster.seal(
            self.holders.len(),
            self.reduce_gamma,
            seed,
            elapsed,
            completed,
        );
        ReduceDetailed { report, trace }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_dfs::BlockSize;
    use adapt_sim::reduce::ReducePhaseSim;
    use adapt_sim::Topology;
    use adapt_traces::record::{HostId, HostTrace, Interruption};
    use adapt_traces::replay::InterruptionSchedule;

    const MB: u64 = 1_048_576;

    fn cfg() -> SimConfig {
        SimConfig::new(8.0, BlockSize::DEFAULT, 12.0).unwrap()
    }

    fn outage(start: f64, duration: f64) -> InterruptionProcess {
        let host = HostTrace::new(
            HostId(0),
            1_000_000.0,
            vec![Interruption { start, duration }],
        )
        .unwrap();
        InterruptionProcess::trace(InterruptionSchedule::from_host_trace(&host))
    }

    #[test]
    fn reference_matches_engine_on_a_failure_heavy_phase() {
        let build_processes = || {
            vec![
                outage(4.0, 8.0),
                outage(10.0, 10.0),
                InterruptionProcess::none(),
                InterruptionProcess::none(),
            ]
        };
        let holders = vec![vec![NodeId(0), NodeId(2)], vec![NodeId(1)], vec![NodeId(2)]];
        let output_bytes = vec![8 * MB, 3 * MB + 1, 5 * MB];
        let reducer_nodes = vec![NodeId(1), NodeId(3)];
        let topo_cfg = cfg().with_topology(Topology::new(2, 2.5).unwrap());

        let engine = ReducePhaseSim::new(
            build_processes(),
            holders.clone(),
            output_bytes.clone(),
            reducer_nodes.clone(),
            topo_cfg,
            10.0,
        )
        .unwrap()
        .with_trace(TraceRecorder::new())
        .run(2012)
        .unwrap();
        let reference = ReferenceReduce::new(
            build_processes(),
            holders,
            output_bytes,
            reducer_nodes,
            topo_cfg,
            10.0,
        )
        .unwrap()
        .with_trace(TraceRecorder::new())
        .run(2012)
        .unwrap();

        assert_eq!(engine.report, reference.report);
        assert_eq!(engine.trace, reference.trace);
        // The scenario actually exercised the interesting paths.
        assert!(engine.report.interruptions > 0);
        assert!(engine.report.cross_rack_bytes > 0);
    }
}
