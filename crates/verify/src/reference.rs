//! The differential oracle's reference engine: a deliberately naive,
//! obviously-correct re-implementation of the map-phase simulator.
//!
//! [`ReferenceSim`] mirrors `adapt_sim::engine::MapPhaseSim` decision for
//! decision — same scheduling cases, same tie-breaks, same telemetry and
//! trace emission points — but builds its state from plain std
//! collections instead of the optimized `adapt-ds` structures the engine
//! adopted for speed:
//!
//! | engine (optimized)            | reference (naive)                 |
//! |-------------------------------|-----------------------------------|
//! | `IdSet` (two-level bitset)    | `BTreeSet<usize>`                 |
//! | `SortedVecSet`                | `BTreeSet<usize>`                 |
//! | `EventQueue` (4-ary heap)     | `Vec` + linear scan for the min   |
//! | reused `freed_buf` scratch    | a fresh `Vec` per event           |
//! | rack-stride uplink scan       | scan over every host              |
//!
//! Both sides of each row share a *specified* observable order: bitset
//! and `BTreeSet` iterate ascending, and the queue releases events by
//! `(time, insertion seq)` with `f64::total_cmp`. Under the byte-identical
//! output rule of the hot-path optimization, the two engines must
//! therefore produce equal [`DetailedReport`]s — including every
//! telemetry counter and the full event trace — on *every* valid input.
//! Any divergence the oracle finds is a real bug in one of them.
//!
//! Hosts, the event list, flows and the trace sink come from the crate's
//! naive substrate (the private `naive` module), written independently
//! of the engine's.

use std::collections::BTreeSet;

use adapt_dfs::NodeId;
use adapt_sim::engine::{DetailedReport, NodeStat, SchedulingMode, SimConfig, SimReport};
use adapt_sim::interrupt::InterruptionProcess;
use adapt_sim::telemetry::EngineTelemetry;
use adapt_sim::SimError;
use adapt_trace::{KillCause, TraceEvent, TraceRecorder};

use crate::naive::{check_node, ClusterEvent, NaiveCluster};

/// Bound on how many stealable tasks one scheduling decision examines
/// (must match the engine's `MAX_STEAL_SCAN`).
const MAX_STEAL_SCAN: usize = 32;

/// Straggler-candidate slowdown bound (engine's `STRAGGLER_SLOWDOWN`).
const STRAGGLER_SLOWDOWN: f64 = 1.2;

/// Required reliability advantage of a LATE-style rescuer (engine's
/// `STRAGGLER_ADVANTAGE`).
const STRAGGLER_ADVANTAGE: f64 = 1.5;

#[derive(Debug, Clone, Copy)]
enum MapEvent {
    AttemptDone { node: u32, epoch: u64 },
    Requeue(usize),
}

#[derive(Debug, Clone, Copy)]
struct Attempt {
    task: usize,
    seq: u64,
    reserve_start: f64,
    compute_start: f64,
    local: bool,
    source: Option<u32>,
}

#[derive(Debug)]
struct RefNode {
    epoch: u64,
    running: Option<Attempt>,
    local_pending: BTreeSet<usize>,
    attempt_seq: u64,
    downtime: f64,
    busy: f64,
    recovery_mark: Option<f64>,
    recovery: f64,
    completed_tasks: usize,
    local_completed: usize,
}

#[derive(Debug)]
struct RefTask {
    replicas: Vec<u32>,
    done: bool,
    running_on: Vec<u32>,
    winner: Option<u32>,
}

/// The naive reference simulator. Construct once per run;
/// [`run_detailed`](ReferenceSim::run_detailed) consumes it.
#[derive(Debug)]
pub struct ReferenceSim {
    cfg: SimConfig,
    cluster: NaiveCluster<MapEvent>,
    nodes: Vec<RefNode>,
    slowdown: Vec<f64>,
    tasks: Vec<RefTask>,
    pending: BTreeSet<usize>,
    stealable: BTreeSet<usize>,
    spec_candidates: BTreeSet<usize>,
    idle: BTreeSet<usize>,
    done_count: usize,
    rework: f64,
    migration: f64,
    dup_compute: f64,
    attempts: usize,
    transfers: usize,
    local_completions: usize,
    telemetry: EngineTelemetry,
}

impl ReferenceSim {
    /// Builds a reference simulation over `processes.len()` nodes running
    /// one map task per entry of `placement` — the same contract as
    /// `MapPhaseSim::new`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for an empty cluster or task list and
    /// [`SimError::PlacementOutOfRange`] if a replica references a node
    /// outside the cluster.
    pub fn new(
        processes: Vec<InterruptionProcess>,
        placement: Vec<Vec<NodeId>>,
        cfg: SimConfig,
    ) -> Result<Self, SimError> {
        let cluster = NaiveCluster::new(processes, &cfg)?;
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
            let mut ids = Vec::new();
            for &r in replicas {
                ids.push(check_node(i, r, n)?);
            }
            tasks.push(RefTask {
                replicas: ids,
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
                        cfg.gamma(),
                    ) {
                        Ok(model) => model.slowdown(),
                        Err(_) => f64::INFINITY,
                    }
                }
            })
            .collect();

        let mut nodes: Vec<RefNode> = (0..n)
            .map(|_| RefNode {
                epoch: 0,
                running: None,
                local_pending: BTreeSet::new(),
                attempt_seq: 0,
                downtime: 0.0,
                busy: 0.0,
                recovery_mark: None,
                recovery: 0.0,
                completed_tasks: 0,
                local_completed: 0,
            })
            .collect();

        let mut pending = BTreeSet::new();
        for (i, task) in tasks.iter().enumerate() {
            pending.insert(i);
            for &r in &task.replicas {
                nodes[r as usize].local_pending.insert(i);
            }
        }
        let stealable = pending.clone();

        Ok(ReferenceSim {
            cfg,
            cluster,
            nodes,
            slowdown,
            tasks,
            pending,
            stealable,
            spec_candidates: BTreeSet::new(),
            idle: BTreeSet::new(),
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

    /// Attaches an event recorder, mirroring `MapPhaseSim::with_trace`.
    pub fn with_trace(mut self, recorder: TraceRecorder) -> Self {
        self.cluster.set_trace(recorder);
        self
    }

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
    /// detailed report, mirroring `MapPhaseSim::run_detailed`.
    ///
    /// # Errors
    ///
    /// Same contract as the engine: an exceeded horizon is reported via
    /// `SimReport::completed`; [`SimError::InvariantViolation`] signals
    /// an internal scheduling bug.
    pub fn run_detailed(mut self, seed: u64) -> Result<DetailedReport, SimError> {
        self.cluster.start(seed);
        let mut elapsed = None;
        loop {
            self.telemetry
                .queue_depth_hwm
                .record(self.cluster.queue_len() as u64);
            let Some((t, event)) = self.cluster.pop() else {
                break;
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
                            break;
                        }
                    }
                }
                ClusterEvent::Phase(MapEvent::Requeue(task)) => {
                    self.telemetry.events_requeue.incr();
                    self.requeue(task, t);
                    self.dispatch_idle(t, &[task])?;
                }
            }
        }

        let completed = elapsed.is_some();
        let elapsed = elapsed.unwrap_or(self.cluster.horizon());
        Ok(self.finalize(elapsed, completed, seed))
    }

    fn try_assign(&mut self, n: u32, t: f64) -> Result<bool, SimError> {
        let ni = n as usize;
        if !self.cluster.is_up(n) || self.nodes[ni].running.is_some() {
            return Ok(false);
        }
        // 1. Local pending work (BTreeSet min = bitset first()).
        if let Some(&task) = self.nodes[ni].local_pending.iter().next() {
            self.start_task(n, task, t)?;
            return Ok(true);
        }
        // 2. Steal, scanning the stealable pool in ascending task order.
        let mut chosen: Option<usize> = None;
        let mut chosen_risk = f64::NEG_INFINITY;
        for &task in self.stealable.iter().take(MAX_STEAL_SCAN) {
            if self.admissible_source(task, t).is_none() {
                continue;
            }
            match self.cfg.scheduling() {
                SchedulingMode::Fifo => {
                    chosen = Some(task);
                    break;
                }
                SchedulingMode::AvailabilityAware => {
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
        // 3. Speculative duplicate, scanning candidates in ascending
        // task order with the engine's exact ETA arithmetic.
        if self.cfg.speculation() {
            let candidate = self.spec_candidates.iter().copied().find(|&task| {
                let state = &self.tasks[task];
                if state.running_on.len() >= self.cfg.max_copies() || state.running_on.contains(&n)
                {
                    return false;
                }
                let Some(candidate_eta) = self.attempt_eta(n, task, t) else {
                    return false;
                };
                let best_running_eta = state
                    .running_on
                    .iter()
                    .filter_map(|&r| {
                        let a = self.nodes[r as usize].running.as_ref()?;
                        (a.task == task)
                            .then(|| a.compute_start + self.cfg.gamma() * self.slowdown[r as usize])
                    })
                    .fold(f64::INFINITY, f64::min);
                let inflated_candidate_eta =
                    t + (candidate_eta - t) * self.slowdown[n as usize].min(1e6);
                if inflated_candidate_eta + 1e-9 < best_running_eta {
                    return true;
                }
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
            let streams = self.cluster.open_flows(r, t).len();
            if streams < cap && best.is_none_or(|(s, _)| streams <= s) {
                best = Some((streams, r));
            }
        }
        best.map(|(_, r)| r)
    }

    /// A replica of `task` with a spare outbound stream (the admission
    /// bound), least loaded first.
    fn admissible_source(&self, task: usize, t: f64) -> Option<u32> {
        self.least_loaded_source(task, t, self.cfg.max_source_streams())
    }

    fn attempt_eta(&self, n: u32, task: usize, t: f64) -> Option<f64> {
        let state = &self.tasks[task];
        if state.replicas.contains(&n) {
            return Some(t + self.cfg.gamma());
        }
        // A fetch needs an alive replica with a spare outbound stream.
        self.admissible_source(task, t)
            .map(|_| t + self.cfg.transfer_seconds() + self.cfg.gamma())
    }

    fn start_task(&mut self, n: u32, task: usize, t: f64) -> Result<(), SimError> {
        let ni = n as usize;
        debug_assert!(self.cluster.is_up(n) && self.nodes[ni].running.is_none());
        self.attempts += 1;
        self.telemetry.attempts_started.incr();
        self.idle.remove(&ni);

        let local = self.tasks[task].replicas.contains(&n);
        let seq = self.nodes[ni].attempt_seq;
        self.nodes[ni].attempt_seq += 1;
        let mut transfer_source: Option<u32> = None;
        let compute_start = if local {
            t
        } else {
            let source = self
                .admissible_source(task, t)
                .or_else(|| self.least_loaded_source(task, t, usize::MAX))
                .ok_or(SimError::InvariantViolation {
                    what: "remote attempt started without an alive source replica",
                })?;
            let (end, cross_rack, streams) =
                self.cluster
                    .commit(source, n, seq, self.cfg.transfer_seconds(), t);
            self.transfers += 1;
            self.telemetry.transfers_started.incr();
            self.telemetry
                .transfer_bytes
                .record(self.cfg.block_size().bytes());
            if cross_rack {
                self.telemetry.transfers_cross_rack.incr();
                self.telemetry.link_streams_hwm.record(streams as u64);
            }
            transfer_source = Some(source);
            end
        };

        if self.cluster.tracing() {
            if let Some(source) = transfer_source {
                let bytes = self.cfg.block_size().bytes();
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
            compute_start + self.cfg.gamma(),
            MapEvent::AttemptDone { node: n, epoch },
        );

        if self.pending.remove(&task) {
            self.stealable.remove(&task);
            for ri in 0..self.tasks[task].replicas.len() {
                let r = self.tasks[task].replicas[ri];
                self.remove_local_pending(r, task, t);
            }
        }
        self.tasks[task].running_on.push(n);
        if self.slowdown[n as usize] > STRAGGLER_SLOWDOWN || compute_start - t > self.cfg.gamma() {
            self.spec_candidates.insert(task);
        }
        Ok(())
    }

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
        self.spec_candidates.remove(&task);
        self.tasks[task].running_on.retain(|&r| r != n);

        let losers = std::mem::take(&mut self.tasks[task].running_on);
        if !losers.is_empty() {
            self.telemetry.speculative_wins.incr();
        }
        for loser in losers {
            self.kill_attempt(loser, t, KillCause::DuplicateLost);
            self.try_assign(loser, t)?;
        }
        self.try_assign(n, t)?;
        self.dispatch_idle(t, &[])
    }

    fn kill_attempt(&mut self, n: u32, t: f64, reason: KillCause) {
        let ni = n as usize;
        let Some(attempt) = self.nodes[ni].running.take() else {
            return;
        };
        self.nodes[ni].epoch += 1;
        self.nodes[ni].busy += (t - attempt.reserve_start).max(0.0);

        let compute_lost = (t - attempt.compute_start).clamp(0.0, self.cfg.gamma());
        match reason {
            KillCause::Interruption => {
                self.rework += compute_lost;
                self.telemetry.kills_interruption.incr();
            }
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
            self.spec_candidates.remove(&task);
            if reason == KillCause::Interruption && self.cfg.detection_delay() > 0.0 {
                self.cluster
                    .schedule(t + self.cfg.detection_delay(), MapEvent::Requeue(task));
            } else {
                self.requeue(task, t);
            }
        }
    }

    fn requeue(&mut self, task: usize, t: f64) {
        if self.tasks[task].done || !self.tasks[task].running_on.is_empty() {
            return;
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
        self.cluster.record_down(n, t);
        self.kill_attempt(n, t, KillCause::Interruption);
        self.cluster.mark_down(n, t);
        self.idle.remove(&ni);

        // Killed fetches keep their windows on the uplink; the tag check
        // skips fetchers an earlier outage of this source already killed.
        if self.cfg.fetch_failure() {
            for f in self.cluster.open_flows(n, t) {
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

        // Snapshot before iterating: the naive engine trades the
        // optimized engine's aliasing argument for an obvious copy.
        let local: Vec<usize> = self.nodes[ni].local_pending.iter().copied().collect();
        let mut freed = Vec::new();
        for task in local {
            if !self.tasks[task]
                .replicas
                .iter()
                .any(|&r| self.cluster.is_up(r))
            {
                self.stealable.remove(&task);
            } else if self.pending.contains(&task) {
                freed.push(task);
            }
        }
        if !self.nodes[ni].local_pending.is_empty() {
            self.nodes[ni].recovery_mark = Some(t);
        }
        self.dispatch_idle(t, &freed)
    }

    fn on_up(&mut self, n: u32, t: f64) -> Result<(), SimError> {
        let ni = n as usize;
        if let Some(since) = self.cluster.recover(n, t) {
            self.nodes[ni].downtime += t - since;
        }
        if let Some(mark) = self.nodes[ni].recovery_mark.take() {
            self.nodes[ni].recovery += t - mark;
            self.cluster.emit(TraceEvent::RecoverySpan {
                node: n,
                start: mark,
                end: t,
            });
        }
        let local: Vec<usize> = self.nodes[ni].local_pending.iter().copied().collect();
        let mut freed = Vec::new();
        for task in local {
            if self.pending.contains(&task) {
                self.stealable.insert(task);
                freed.push(task);
            }
        }
        self.try_assign(n, t)?;
        self.dispatch_idle(t, &freed)
    }

    fn dispatch_idle(&mut self, t: f64, freed: &[usize]) -> Result<(), SimError> {
        for &task in freed {
            if !self.pending.contains(&task) {
                continue;
            }
            for ri in 0..self.tasks[task].replicas.len() {
                let r = self.tasks[task].replicas[ri];
                if self.idle.contains(&(r as usize)) && self.try_assign(r, t)? {
                    break;
                }
            }
        }
        while let Some(&n) = self.idle.iter().next() {
            if !self.try_assign(n as u32, t)? {
                break;
            }
        }
        Ok(())
    }

    fn add_local_pending(&mut self, n: u32, task: usize, t: f64) {
        let ni = n as usize;
        self.nodes[ni].local_pending.insert(task);
        if !self.cluster.is_up(n) && self.nodes[ni].recovery_mark.is_none() {
            self.nodes[ni].recovery_mark = Some(t);
        }
    }

    fn remove_local_pending(&mut self, n: u32, task: usize, t: f64) {
        let ni = n as usize;
        self.nodes[ni].local_pending.remove(&task);
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
            if let Some(since) = self.cluster.open_outage(ni) {
                self.nodes[ni].downtime += (elapsed - since).max(0.0);
            }
            if let Some(mark) = self.nodes[ni].recovery_mark.take() {
                self.nodes[ni].recovery += (elapsed - mark).max(0.0);
                if elapsed - mark > 0.0 {
                    self.cluster.emit(TraceEvent::RecoverySpan {
                        node: n,
                        start: mark,
                        end: elapsed,
                    });
                }
            }
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
            let uptime = (elapsed - node.downtime).max(0.0);
            up_idle += (uptime - node.busy).max(0.0);
            self.telemetry.node_busy_us.record_secs(node.busy);
            self.telemetry.node_down_us.record_secs(node.downtime);
            self.telemetry
                .node_idle_us
                .record_secs((uptime - node.busy).max(0.0));
            node_stats.push(NodeStat {
                busy: node.busy,
                downtime: node.downtime,
                recovery: node.recovery,
                completed_tasks: node.completed_tasks,
                local_completed: node.local_completed,
            });
        }
        let base_work = self.tasks.len() as f64 * self.cfg.gamma();
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
        let trace = self
            .cluster
            .seal(self.tasks.len(), self.cfg.gamma(), seed, elapsed, completed);
        DetailedReport {
            report,
            node_stats,
            winners: self.tasks.iter().map(|t| t.winner.map(NodeId)).collect(),
            telemetry: self.telemetry.snapshot(),
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_dfs::BlockSize;

    #[test]
    fn two_reliable_nodes_complete_in_two_rounds() {
        let placement: Vec<Vec<NodeId>> = (0..4).map(|i| vec![NodeId(i % 2)]).collect();
        let processes = vec![InterruptionProcess::none(), InterruptionProcess::none()];
        let cfg = SimConfig::new(8.0, BlockSize::DEFAULT, 12.0).expect("valid config");
        let detailed = ReferenceSim::new(processes, placement, cfg)
            .expect("valid sim")
            .run_detailed(42)
            .expect("run succeeds");
        assert!(detailed.report.completed);
        assert_eq!(detailed.report.local_tasks, 4);
        assert!((detailed.report.elapsed - 24.0).abs() < 1e-9);
    }

    #[test]
    fn reference_matches_engine_under_rack_topology() {
        use adapt_sim::engine::MapPhaseSim;
        use adapt_sim::Topology;
        use adapt_trace::TraceRecorder;
        // Every block on node 0: nodes 1–3 steal concurrently, mixing
        // intra-rack and contended cross-rack fetches.
        let placement: Vec<Vec<NodeId>> = (0..6).map(|_| vec![NodeId(0)]).collect();
        let processes: Vec<InterruptionProcess> =
            (0..4).map(|_| InterruptionProcess::none()).collect();
        let cfg = SimConfig::new(8.0, BlockSize::DEFAULT, 12.0)
            .expect("valid config")
            .with_topology(Topology::new(2, 2.5).expect("valid topology"));
        let engine = MapPhaseSim::new(processes.clone(), placement.clone(), cfg)
            .expect("valid sim")
            .with_trace(TraceRecorder::new())
            .run_detailed(2012)
            .expect("engine runs");
        let reference = ReferenceSim::new(processes, placement, cfg)
            .expect("valid reference")
            .run_detailed(2012)
            .expect("reference runs");
        // Traces differ only in presence (reference built without one
        // here); everything else must match field for field.
        assert_eq!(engine.report, reference.report);
        assert_eq!(engine.node_stats, reference.node_stats);
        assert_eq!(engine.winners, reference.winners);
        assert_eq!(engine.telemetry, reference.telemetry);
        assert!(engine.telemetry.transfers_cross_rack > 0);
    }
}
