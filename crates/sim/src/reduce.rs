//! The reduce phase: shuffle fetches plus reduce compute, event-driven,
//! under the same outage machinery as the map engine.
//!
//! [`estimate_shuffle`](crate::shuffle::estimate_shuffle) is a
//! closed-form lower bound (no interruptions, no contention). This module
//! is the full discrete-event counterpart the satellite experiments run:
//! each reduce task is pinned to its placed host, fetches its slice of
//! every map output sequentially (ascending map-task order, the sort
//! phase's merge order), and then computes for `reduce_gamma` seconds.
//! Fetches are modeled transfers over the same
//! [`Topology`](crate::Topology) fabric as
//! the map phase — intra-rack flows take the flat per-flow time,
//! cross-rack flows pay the oversubscribed uplink fair-shared over the
//! flows active at commit time.
//!
//! Failure semantics mirror Hadoop's reduce-side behavior:
//!
//! * **Source dies mid-fetch** — the fetch aborts immediately (reducers
//!   observe fetch failures without a detection delay) and re-sources
//!   from the lowest-id alive holder, or blocks until one recovers.
//! * **Reducer host dies** — every byte already shuffled to it is lost
//!   with the host (equation (2)'s rework, applied to the reduce phase):
//!   the attempt restarts from map output 0 when the host returns.
//! * **No alive holder** — the reducer blocks; map-output availability
//!   gates reduce progress exactly as block availability gates the map
//!   phase.
//!
//! Time is phase-relative: `t = 0` is the shuffle start (map phase
//! already finished), and each node's interruption process restarts its
//! RNG stream from the run seed, so a reduce phase is reproducible in
//! isolation from the map phase that fed it.
//!
//! Partitioning is exact integer math: map output `m` of `output_bytes[m]`
//! bytes sends `output_bytes[m] / r` bytes to each of `r` reducers, with
//! the remainder spread one byte each over the first `output_bytes[m] % r`
//! slots — so summed over reducers the slices reconstruct every output
//! byte exactly (the conservation law the metamorphic suite pins).

use adapt_dfs::{BlockSize, NodeId};
use adapt_ds::IdSet;
use adapt_trace::{Trace, TraceEvent, TraceRecorder};

use crate::cluster::{self, Cluster, ClusterEvent};
use crate::engine::SimConfig;
use crate::interrupt::InterruptionProcess;
use crate::SimError;

/// The slice of map output `m` destined for reducer `r` out of `reducers`:
/// `total / reducers`, plus one remainder byte for the first
/// `total % reducers` slots. Summed over all reducers this is exactly
/// `total` — no byte is created or lost by partitioning.
pub fn slice_bytes(total: u64, reducer: usize, reducers: usize) -> u64 {
    let r = reducers as u64;
    total / r + u64::from((reducer as u64) < total % r)
}

/// One reduce task's lifecycle position.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ReducerPhase {
    /// Not yet started (pre-kick, or host down before the attempt began).
    Idle,
    /// Pulling map output `task` from `source`; the transfer window is
    /// `[start, end)`.
    Fetching {
        task: usize,
        source: u32,
        start: f64,
        end: f64,
        bytes: u64,
        cross_rack: bool,
    },
    /// Every slice fetched for this map output is unavailable: no alive
    /// holder. Wakes on the next `Up`.
    Blocked,
    /// Host died mid-attempt; restarts from map output 0 on recovery.
    WaitingRecovery,
    /// Shuffle finished; computing since `start`.
    Computing { start: f64 },
    /// Reduce output committed.
    Done,
}

#[derive(Debug)]
struct ReducerState {
    node: u32,
    phase: ReducerPhase,
    /// Invalidates scheduled `FetchDone`/`ReduceDone` events.
    epoch: u64,
    /// Monotone attempt number (increments on restart after host loss).
    attempt_seq: u64,
    /// Next map output to fetch within the current attempt.
    next_task: usize,
    /// Network bytes fetched by this reducer across all attempts.
    net_bytes: u64,
    finish: Option<f64>,
}

/// The reduce phase's own events on the cluster clock.
#[derive(Debug, Clone, Copy)]
enum ReduceEvent {
    FetchDone { reducer: u32, epoch: u64 },
    ReduceDone { reducer: u32, epoch: u64 },
}

/// Results of one simulated reduce phase.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceReport {
    /// Reduce-phase completion time, seconds (horizon if incomplete).
    pub elapsed: f64,
    /// Number of reduce tasks.
    pub reducers: usize,
    /// Whether every reducer finished within the horizon.
    pub completed: bool,
    /// Reduce attempts started (first starts plus post-outage restarts).
    pub attempts: usize,
    /// Shuffle fetches committed (including later-aborted ones).
    pub fetches: usize,
    /// Fetches cut mid-flight by a source or host death (or the horizon).
    pub fetches_aborted: usize,
    /// Slice bytes read locally (reducer co-located with the holder).
    pub local_bytes: u64,
    /// Slice bytes that completed a network fetch.
    pub network_bytes: u64,
    /// Of the network bytes, those that crossed a rack boundary.
    pub cross_rack_bytes: u64,
    /// Largest single-reducer network volume (shuffle-skew high-water).
    pub reducer_net_hwm: u64,
    /// Host outages during the phase.
    pub interruptions: usize,
    /// Reduce-compute seconds lost to host interruptions.
    pub rework: f64,
    /// Failure-free reduce work, `r · reduce_gamma` (seconds).
    pub base_work: f64,
    /// Per-reducer completion times (`None` for reducers cut by the
    /// horizon).
    pub finish: Vec<Option<f64>>,
    /// Reducer placement used, one node per reducer.
    pub reducer_nodes: Vec<NodeId>,
}

impl ReduceReport {
    /// Fraction of shuffle bytes served locally, in `[0, 1]`.
    pub fn shuffle_locality(&self) -> f64 {
        let total = self.local_bytes + self.network_bytes;
        if total == 0 {
            0.0
        } else {
            self.local_bytes as f64 / total as f64
        }
    }
}

/// [`ReduceReport`] plus the sealed trace when a recorder was attached.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceDetailed {
    /// The phase outcome.
    pub report: ReduceReport,
    /// The event log (present only under
    /// [`with_trace`](ReducePhaseSim::with_trace)).
    pub trace: Option<Trace>,
}

/// The reduce-phase simulator. Construct once per run; [`run`] consumes
/// it.
///
/// [`run`]: ReducePhaseSim::run
#[derive(Debug)]
pub struct ReducePhaseSim {
    cfg: SimConfig,
    reduce_gamma: f64,
    /// Holders of each map task's output (the map phase's winners plus
    /// any replicas of the intermediate data).
    holders: Vec<Vec<u32>>,
    output_bytes: Vec<u64>,
    cluster: Cluster<ReduceEvent>,
    reducers: Vec<ReducerState>,
    /// Per host, the ids of the reducers pinned to it, ascending.
    hosted: Vec<Vec<u32>>,
    /// Reducers in [`ReducerPhase::Blocked`].
    blocked: IdSet,
    /// Scratch for the reducer ids an outage or a recovery visits.
    visit: Vec<u32>,
    done_count: usize,
    // Accumulators.
    attempts: usize,
    fetches: usize,
    fetches_aborted: usize,
    local_bytes: u64,
    network_bytes: u64,
    cross_rack_bytes: u64,
    interruptions: usize,
    rework: f64,
}

impl ReducePhaseSim {
    /// Builds a reduce phase over `processes.len()` hosts. `holders[m]`
    /// lists the nodes holding map task `m`'s output, `output_bytes[m]`
    /// its size; `reducer_nodes` pins each reduce task to a host.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an empty cluster, reducer
    /// set, or map-output list, a holder/byte length mismatch, a task
    /// with no holders, or a non-positive `reduce_gamma`;
    /// [`SimError::PlacementOutOfRange`] if a holder or reducer host
    /// references a node outside the cluster.
    pub fn new(
        processes: Vec<InterruptionProcess>,
        holders: Vec<Vec<NodeId>>,
        output_bytes: Vec<u64>,
        reducer_nodes: Vec<NodeId>,
        cfg: SimConfig,
        reduce_gamma: f64,
    ) -> Result<Self, SimError> {
        let cluster = Cluster::new(processes, &cfg, reducer_nodes.len() + 16)?;
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
            holder_ids.push(
                hs.iter()
                    .map(|&h| cluster::node_id(m, h, n))
                    .collect::<Result<Vec<u32>, _>>()?,
            );
        }
        let reducers = reducer_nodes
            .iter()
            .enumerate()
            .map(|(r, &host)| {
                Ok(ReducerState {
                    node: cluster::node_id(r, host, n)?,
                    phase: ReducerPhase::Idle,
                    epoch: 0,
                    attempt_seq: 0,
                    next_task: 0,
                    net_bytes: 0,
                    finish: None,
                })
            })
            .collect::<Result<Vec<_>, SimError>>()?;
        let mut hosted = vec![Vec::new(); n];
        for (r, reducer) in reducers.iter().enumerate() {
            hosted[reducer.node as usize].push(r as u32);
        }
        Ok(ReducePhaseSim {
            cfg,
            reduce_gamma,
            holders: holder_ids,
            output_bytes,
            cluster,
            blocked: IdSet::new(reducers.len()),
            reducers,
            hosted,
            visit: Vec::new(),
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

    /// Attaches an event recorder; the run emits `ReduceStarted`,
    /// `ShuffleFetch`, `LinkContention`, and `NodeDown`/`NodeUp` records.
    /// Behavior and the report are byte-identical with or without
    /// tracing.
    pub fn with_trace(mut self, recorder: TraceRecorder) -> Self {
        self.cluster.set_trace(recorder);
        self
    }

    /// Runs the reduce phase to completion (or the horizon) and returns
    /// the report plus the sealed trace (when one was attached). All
    /// randomness derives from `seed` via the same per-node stream
    /// construction as the map engine.
    ///
    /// # Errors
    ///
    /// An exceeded horizon is reported via [`ReduceReport::completed`].
    /// [`SimError::InvariantViolation`] signals an internal bug.
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
        let elapsed = elapsed.unwrap_or(self.cfg.horizon());
        Ok(self.finalize(elapsed, completed, seed))
    }

    /// Begins (or restarts) the reducer's attempt at `t`: emits
    /// `ReduceStarted` and advances into the fetch sequence.
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

    /// Drives the reducer forward from `next_task`: consumes zero-byte
    /// and local slices instantly, commits the next network fetch, or
    /// starts the compute once every slice is in.
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
                // Co-located slice: a disk read, instant at this model's
                // resolution and invisible to the network.
                self.local_bytes += bytes;
                self.reducers[ri].next_task += 1;
                continue;
            }
            // Lowest-id alive holder; map-output availability gates the
            // fetch — with every holder down the reducer blocks.
            let Some(&source) = self.holders[m].iter().find(|&&h| self.cluster.is_up(h)) else {
                self.reducers[ri].phase = ReducerPhase::Blocked;
                self.blocked.insert(ri);
                return;
            };
            let base = BlockSize::from_bytes(bytes).transfer_seconds(self.cfg.bandwidth_mbps());
            let (end, uplink) = self
                .cluster
                .commit_flow(source, node, u64::from(r), base, t);
            self.fetches += 1;
            self.reducers[ri].phase = ReducerPhase::Fetching {
                task: m,
                source,
                start: t,
                end,
                bytes,
                cross_rack: uplink.is_some(),
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

    /// Aborts the reducer's in-flight fetch (if any), emitting the
    /// aborted `ShuffleFetch`. The committed window stays on the source's
    /// uplink (the substrate's one flow rule).
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
        self.cluster.announce_down(n, t);
        self.cluster.take_down(n, t);

        // Reducers hosted here lose everything shuffled so far —
        // equation (2)'s rework applied to the reduce phase.
        for i in 0..self.hosted[n as usize].len() {
            let r = self.hosted[n as usize][i];
            let ri = r as usize;
            match self.reducers[ri].phase {
                ReducerPhase::Done | ReducerPhase::WaitingRecovery => continue,
                ReducerPhase::Fetching { .. } => self.abort_fetch(r, t),
                ReducerPhase::Computing { start } => {
                    self.rework += (t - start).clamp(0.0, self.reduce_gamma);
                }
                ReducerPhase::Blocked => {
                    self.blocked.remove(ri);
                }
                ReducerPhase::Idle => {}
            }
            self.reducers[ri].epoch += 1;
            self.reducers[ri].attempt_seq += 1;
            self.reducers[ri].phase = ReducerPhase::WaitingRecovery;
        }

        // Fetches sourced from this node fail immediately; the fetcher
        // re-sources from another alive holder or blocks. (The hosted-
        // reducer pass above already moved this node's own reducers out
        // of `Fetching`, so no reducer is re-sourced onto a dead host.)
        // Every fetch from this node has its window open here, tagged
        // with its reducer; windows of fetches aborted earlier stay
        // listed too, and the phase check skips them.
        let mut visit = std::mem::take(&mut self.visit);
        visit.clear();
        visit.extend(self.cluster.open_flows(n, t).map(|f| f.tag as u32));
        visit.sort_unstable();
        visit.dedup();
        for &r in &visit {
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
        self.visit = visit;
    }

    fn on_up(&mut self, n: u32, t: f64) {
        self.cluster.bring_up(n, t);
        // Hosted reducers restart their attempt from scratch; blocked
        // reducers anywhere get another look (this node may now be the
        // alive holder they were waiting for). Ascending reducer order
        // keeps the retry sequence deterministic. A handler changes only
        // its own reducer, so the hosted ids merged with a snapshot of the
        // blocked set are every reducer a full scan would act on.
        let mut visit = std::mem::take(&mut self.visit);
        visit.clear();
        let mut hosted = self.hosted[n as usize].iter().copied().peekable();
        for b in self.blocked.iter().map(|r| r as u32) {
            while let Some(h) = hosted.next_if(|&h| h < b) {
                visit.push(h);
            }
            hosted.next_if_eq(&b);
            visit.push(b);
        }
        visit.extend(hosted);
        for &r in &visit {
            let ri = r as usize;
            match self.reducers[ri].phase {
                ReducerPhase::WaitingRecovery if self.reducers[ri].node == n => {
                    self.start_attempt(r, t);
                }
                ReducerPhase::Blocked => {
                    self.blocked.remove(ri);
                    self.advance(r, t);
                }
                ReducerPhase::WaitingRecovery
                | ReducerPhase::Idle
                | ReducerPhase::Fetching { .. }
                | ReducerPhase::Computing { .. }
                | ReducerPhase::Done => {}
            }
        }
        self.visit = visit;
    }

    fn finalize(mut self, elapsed: f64, completed: bool, seed: u64) -> ReduceDetailed {
        // Fetches still in flight at the cut are aborted records, like
        // the map engine's cut-attempt emission.
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
    use crate::cluster::{outage, outages};
    use adapt_net::Topology;

    const MB: u64 = 1_048_576;

    fn cfg() -> SimConfig {
        // 8 Mb/s, 64 MB blocks, gamma 12 s: 8 MB moves in 8 s.
        SimConfig::new(8.0, BlockSize::DEFAULT, 12.0).unwrap()
    }

    fn reliable(n: usize) -> Vec<InterruptionProcess> {
        vec![InterruptionProcess::none(); n]
    }

    fn ids(nodes: &[u32]) -> Vec<NodeId> {
        nodes.iter().map(|&n| NodeId(n)).collect()
    }

    /// A phase with a 10 s reduce compute; holders and reducers by node id.
    fn phase(
        hosts: Vec<InterruptionProcess>,
        holders: &[&[u32]],
        bytes: &[u64],
        reducers: &[u32],
        cfg: SimConfig,
    ) -> ReducePhaseSim {
        let holders = holders.iter().map(|h| ids(h)).collect();
        ReducePhaseSim::new(hosts, holders, bytes.to_vec(), ids(reducers), cfg, 10.0).unwrap()
    }

    #[test]
    fn slice_math_conserves_every_byte() {
        for total in [0u64, 1, 7, 100, MB, 3 * MB + 17] {
            for reducers in [1usize, 2, 3, 7, 64] {
                let sum: u64 = (0..reducers).map(|r| slice_bytes(total, r, reducers)).sum();
                assert_eq!(sum, total, "total={total} reducers={reducers}");
            }
        }
    }

    #[test]
    fn all_local_phase_is_pure_compute() {
        // One map output on node 0, reducer on node 0: no network at all.
        let report = phase(reliable(2), &[&[0]], &[8 * MB], &[0], cfg())
            .run(7)
            .unwrap()
            .report;
        assert!(report.completed);
        assert_eq!(report.elapsed, 10.0);
        assert_eq!(report.local_bytes, 8 * MB);
        assert_eq!(report.network_bytes, 0);
        assert_eq!(report.fetches, 0);
        assert_eq!(report.attempts, 1);
        assert_eq!(report.finish, vec![Some(10.0)]);
        assert_eq!(report.shuffle_locality(), 1.0);
    }

    #[test]
    fn remote_fetches_run_sequentially() {
        // Two 8 MB outputs on node 0, reducer on node 1: two 8 s fetches
        // back to back, then 10 s compute.
        let report = phase(reliable(2), &[&[0], &[0]], &[8 * MB, 8 * MB], &[1], cfg())
            .run(7)
            .unwrap()
            .report;
        assert!(report.completed);
        assert_eq!(report.elapsed, 26.0);
        assert_eq!(report.network_bytes, 16 * MB);
        assert_eq!(report.cross_rack_bytes, 0);
        assert_eq!(report.fetches, 2);
        assert_eq!(report.fetches_aborted, 0);
        assert_eq!(report.reducer_net_hwm, 16 * MB);
    }

    #[test]
    fn cross_rack_fetch_pays_the_oversubscribed_uplink() {
        // Nodes 0/1 in different racks, oversubscription 2: the single
        // 8 MB cross-rack fetch takes 16 s instead of 8 s.
        let topo = cfg().with_topology(Topology::new(2, 2.0).unwrap());
        let report = phase(reliable(2), &[&[0]], &[8 * MB], &[1], topo)
            .run(7)
            .unwrap()
            .report;
        assert_eq!(report.elapsed, 26.0);
        assert_eq!(report.cross_rack_bytes, 8 * MB);
    }

    #[test]
    fn source_death_resources_the_fetch_from_a_replica() {
        // Node 0 dies at t = 4, mid-fetch. The output is replicated on
        // node 2 (same rack as everyone, flat): the fetch aborts at 4 and
        // restarts from node 2, completing at 12; compute ends at 22.
        let hosts = vec![
            outage(4.0, 1_000.0),
            InterruptionProcess::none(),
            InterruptionProcess::none(),
        ];
        let report = phase(hosts, &[&[0, 2]], &[8 * MB], &[1], cfg())
            .run(7)
            .unwrap()
            .report;
        assert!(report.completed);
        assert_eq!(report.elapsed, 22.0);
        assert_eq!(report.fetches, 2);
        assert_eq!(report.fetches_aborted, 1);
        assert_eq!(report.network_bytes, 8 * MB);
    }

    #[test]
    fn unreplicated_source_death_blocks_until_recovery() {
        // The only holder dies at 4 and returns at 20: the reducer blocks
        // and refetches 0..8 MB starting at 20, finishing at 28 + 10.
        let hosts = vec![outage(4.0, 16.0), InterruptionProcess::none()];
        let report = phase(hosts, &[&[0]], &[8 * MB], &[1], cfg())
            .run(7)
            .unwrap()
            .report;
        assert!(report.completed);
        assert_eq!(report.elapsed, 38.0);
        assert_eq!(report.fetches, 2);
        assert_eq!(report.fetches_aborted, 1);
    }

    #[test]
    fn reducer_host_death_reworks_the_whole_attempt() {
        // Reducer on node 1 fetches 8 MB (done at 8) and computes; node 1
        // dies at 10 (2 s of compute lost as rework) and returns at 20.
        // The restart refetches all 8 MB (20..28) and computes 28..38.
        let hosts = vec![InterruptionProcess::none(), outage(10.0, 10.0)];
        let report = phase(hosts, &[&[0]], &[8 * MB], &[1], cfg())
            .run(7)
            .unwrap()
            .report;
        assert!(report.completed);
        assert_eq!(report.elapsed, 38.0);
        assert_eq!(report.attempts, 2);
        assert_eq!(report.fetches, 2);
        assert_eq!(report.fetches_aborted, 0);
        // All bytes fetched twice.
        assert_eq!(report.network_bytes, 16 * MB);
        assert!((report.rework - 2.0).abs() < 1e-9);
        assert_eq!(report.interruptions, 1);
    }

    #[test]
    fn concurrent_cross_rack_fetches_share_the_uplink() {
        // Racks {0, 2} and {1, 3}; both outputs on node 0; reducers on
        // nodes 1 and 3 (rack 1). Reducer 0 commits its 4 MB slice fetch
        // first (uncontended: 4 s × 2 oversub = 8 s), reducer 1 commits
        // while that flow is active (streams = 2: 16 s).
        let topo = cfg().with_topology(Topology::new(2, 2.0).unwrap());
        let report = phase(reliable(4), &[&[0]], &[8 * MB], &[1, 3], topo)
            .run(7)
            .unwrap()
            .report;
        assert!(report.completed);
        assert_eq!(report.finish, vec![Some(18.0), Some(26.0)]);
        assert_eq!(report.cross_rack_bytes, 8 * MB);
    }

    #[test]
    fn trace_carries_the_reduce_event_types() {
        // Node 0 dies mid-fetch at t = 4; the replica on node 2 serves
        // the retry, so the log holds both an aborted and a completed
        // fetch.
        let hosts = vec![
            outage(4.0, 1_000.0),
            InterruptionProcess::none(),
            InterruptionProcess::none(),
        ];
        let detailed = phase(hosts, &[&[0, 2]], &[8 * MB], &[1], cfg())
            .with_trace(TraceRecorder::new())
            .run(7)
            .unwrap();
        assert!(detailed.report.completed);
        let trace = detailed.trace.unwrap();
        let kinds: Vec<&str> = trace.events.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"reduce_started"));
        assert!(kinds.contains(&"shuffle_fetch"));
        assert!(kinds.contains(&"node_down"));
        // The aborted fetch is recorded as such.
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::ShuffleFetch { aborted: true, .. })));
    }

    #[test]
    fn traced_and_untraced_runs_report_identically() {
        let build = || {
            let hosts = vec![outage(4.0, 10.0), InterruptionProcess::none()];
            phase(hosts, &[&[0], &[1]], &[8 * MB, 3 * MB + 1], &[0, 1], cfg())
        };
        let plain = build().run(11).unwrap().report;
        let traced = build()
            .with_trace(TraceRecorder::new())
            .run(11)
            .unwrap()
            .report;
        assert_eq!(plain, traced);
    }

    #[test]
    fn validation_rejects_malformed_phases() {
        let rejects = |hosts: usize, holders: &[&[u32]], bytes: &[u64], reducers: &[u32], gamma| {
            let holders = holders.iter().map(|h| ids(h)).collect();
            ReducePhaseSim::new(
                reliable(hosts),
                holders,
                bytes.to_vec(),
                ids(reducers),
                cfg(),
                gamma,
            )
            .is_err()
        };
        assert!(!rejects(2, &[&[0]], &[1], &[0], 1.0));
        assert!(rejects(0, &[&[0]], &[1], &[0], 1.0));
        assert!(rejects(2, &[], &[], &[0], 1.0));
        assert!(rejects(2, &[&[]], &[1], &[0], 1.0));
        assert!(rejects(2, &[&[0]], &[], &[0], 1.0));
        assert!(rejects(2, &[&[0]], &[1], &[], 1.0));
        assert!(rejects(2, &[&[5]], &[1], &[0], 1.0));
        assert!(rejects(2, &[&[0]], &[1], &[5], 1.0));
        assert!(rejects(2, &[&[0]], &[1], &[0], 0.0));
    }

    #[test]
    fn recovery_tied_with_fetch_done_pops_first() {
        // Node 2 (the only holder of output 1) is down over [0, 8), and
        // the reducer's fetch of output 0 also ends at 8. The Up was
        // pushed at t = 0 by the outage, before the Kick committed the
        // fetch, so it pops first: output 1's holder is already alive
        // when the fetch completes and the reducer never blocks.
        let hosts = vec![
            InterruptionProcess::none(),
            InterruptionProcess::none(),
            outage(0.0, 8.0),
        ];
        let detailed = phase(hosts, &[&[0], &[2]], &[8 * MB, 8 * MB], &[1], cfg())
            .with_trace(TraceRecorder::new())
            .run(7)
            .unwrap();
        assert_eq!(detailed.report.elapsed, 26.0);
        let fetch = |source: u32, task: u32, start: f64| TraceEvent::ShuffleFetch {
            reducer: 0,
            source,
            dest: 1,
            task,
            bytes: 8 * MB,
            start,
            end: start + 8.0,
            aborted: false,
        };
        let expected = vec![
            TraceEvent::NodeDown { node: 2, t: 0.0 },
            TraceEvent::ReduceStarted {
                reducer: 0,
                node: 1,
                attempt: 0,
                t: 0.0,
            },
            TraceEvent::NodeUp {
                node: 2,
                since: 0.0,
                t: 8.0,
            },
            fetch(0, 0, 0.0),
            fetch(2, 1, 8.0),
        ];
        assert_eq!(detailed.trace.unwrap().events, expected);
    }

    #[test]
    fn horizon_cuts_the_phase() {
        let report = phase(
            reliable(2),
            &[&[0]],
            &[8 * MB],
            &[1],
            cfg().with_horizon(5.0),
        )
        .run(7)
        .unwrap()
        .report;
        assert!(!report.completed);
        assert_eq!(report.elapsed, 5.0);
        assert_eq!(report.finish, vec![None]);
        assert_eq!(report.fetches_aborted, 1);
        assert_eq!(report.network_bytes, 0);
    }

    /// A `ShuffleFetch` record of one 8 MB slice.
    fn slice_fetch(
        reducer: u32,
        source: u32,
        dest: u32,
        task: u32,
        start: f64,
        end: f64,
        aborted: bool,
    ) -> TraceEvent {
        TraceEvent::ShuffleFetch {
            reducer,
            source,
            dest,
            task,
            bytes: 8 * MB,
            start,
            end,
            aborted,
        }
    }

    fn started(reducer: u32, node: u32, attempt: u64, t: f64) -> TraceEvent {
        TraceEvent::ReduceStarted {
            reducer,
            node,
            attempt,
            t,
        }
    }

    #[test]
    fn source_death_aborts_fetches_in_ascending_reducer_order() {
        // Node 0 holds the only map output (8 MB slices, 8 s fetches) and
        // hosts reducers 0, 2, 4, which read it locally. It is down over
        // [1, 2) and [5, 6). Reducer 3 (node 2) loses its first fetch at
        // 1, blocks, and refetches at 2, so node 0 then carries a killed
        // window and a live one for it. Reducers 5 (node 3, up at 3) and
        // 1 (node 1, up at 4) commit after it, in that order. At 5 the
        // aborted records still come out as 1, 3, 5, and at 6 the
        // blocked reducers resume between the hosted restarts.
        let hosts = vec![
            outages(&[(1.0, 1.0), (5.0, 1.0)]),
            outage(0.0, 4.0),
            InterruptionProcess::none(),
            outage(0.0, 3.0),
        ];
        let detailed = phase(hosts, &[&[0]], &[48 * MB], &[0, 1, 0, 2, 0, 3], cfg())
            .with_trace(TraceRecorder::new())
            .run(7)
            .unwrap();
        assert_eq!(detailed.report.elapsed, 24.0);
        assert_eq!(detailed.report.fetches_aborted, 4);
        let expected = vec![
            TraceEvent::NodeDown { node: 1, t: 0.0 },
            TraceEvent::NodeDown { node: 3, t: 0.0 },
            started(0, 0, 0, 0.0),
            started(2, 0, 0, 0.0),
            started(3, 2, 0, 0.0),
            started(4, 0, 0, 0.0),
            TraceEvent::NodeDown { node: 0, t: 1.0 },
            slice_fetch(3, 0, 2, 0, 0.0, 1.0, true),
            TraceEvent::NodeUp {
                node: 0,
                since: 1.0,
                t: 2.0,
            },
            started(0, 0, 1, 2.0),
            started(2, 0, 1, 2.0),
            started(4, 0, 1, 2.0),
            TraceEvent::NodeUp {
                node: 3,
                since: 0.0,
                t: 3.0,
            },
            started(5, 3, 1, 3.0),
            TraceEvent::NodeUp {
                node: 1,
                since: 0.0,
                t: 4.0,
            },
            started(1, 1, 1, 4.0),
            TraceEvent::NodeDown { node: 0, t: 5.0 },
            slice_fetch(1, 0, 1, 0, 4.0, 5.0, true),
            slice_fetch(3, 0, 2, 0, 2.0, 5.0, true),
            slice_fetch(5, 0, 3, 0, 3.0, 5.0, true),
            TraceEvent::NodeUp {
                node: 0,
                since: 5.0,
                t: 6.0,
            },
            started(0, 0, 2, 6.0),
            started(2, 0, 2, 6.0),
            started(4, 0, 2, 6.0),
            slice_fetch(1, 0, 1, 0, 6.0, 14.0, false),
            slice_fetch(3, 0, 2, 0, 6.0, 14.0, false),
            slice_fetch(5, 0, 3, 0, 6.0, 14.0, false),
        ];
        assert_eq!(detailed.trace.unwrap().events, expected);
    }

    #[test]
    fn recovery_resumes_hosted_and_blocked_reducers_in_ascending_order() {
        // Node 0 holds output 0 and hosts reducers 1 and 3; node 2 holds
        // output 1. Node 0 is down over [1, 4): reducers 1 and 3 lose
        // their output-1 fetches and wait for it, reducers 0, 2, 4 (on
        // nodes 1 and 3) lose their output-0 fetches and block. Reducer 5
        // waits for its own host, node 4, until 30. At 4 the five resume
        // as 0, 1, 2, 3, 4, each committing an 8 s fetch, so the fetches
        // ending at 12 complete in that order; reducer 5 stays put.
        let hosts = vec![
            outage(1.0, 3.0),
            InterruptionProcess::none(),
            InterruptionProcess::none(),
            InterruptionProcess::none(),
            outage(0.0, 30.0),
        ];
        let detailed = phase(
            hosts,
            &[&[0], &[2]],
            &[48 * MB, 48 * MB],
            &[1, 0, 3, 0, 1, 4],
            cfg(),
        )
        .with_trace(TraceRecorder::new())
        .run(7)
        .unwrap();
        assert_eq!(detailed.report.elapsed, 56.0);
        let expected = vec![
            TraceEvent::NodeDown { node: 4, t: 0.0 },
            started(0, 1, 0, 0.0),
            started(1, 0, 0, 0.0),
            started(2, 3, 0, 0.0),
            started(3, 0, 0, 0.0),
            started(4, 1, 0, 0.0),
            TraceEvent::NodeDown { node: 0, t: 1.0 },
            slice_fetch(1, 2, 0, 1, 0.0, 1.0, true),
            slice_fetch(3, 2, 0, 1, 0.0, 1.0, true),
            slice_fetch(0, 0, 1, 0, 0.0, 1.0, true),
            slice_fetch(2, 0, 3, 0, 0.0, 1.0, true),
            slice_fetch(4, 0, 1, 0, 0.0, 1.0, true),
            TraceEvent::NodeUp {
                node: 0,
                since: 1.0,
                t: 4.0,
            },
            started(1, 0, 1, 4.0),
            started(3, 0, 1, 4.0),
            slice_fetch(0, 0, 1, 0, 4.0, 12.0, false),
            slice_fetch(1, 2, 0, 1, 4.0, 12.0, false),
            slice_fetch(2, 0, 3, 0, 4.0, 12.0, false),
            slice_fetch(3, 2, 0, 1, 4.0, 12.0, false),
            slice_fetch(4, 0, 1, 0, 4.0, 12.0, false),
            slice_fetch(0, 2, 1, 1, 12.0, 20.0, false),
            slice_fetch(2, 2, 3, 1, 12.0, 20.0, false),
            slice_fetch(4, 2, 1, 1, 12.0, 20.0, false),
            TraceEvent::NodeUp {
                node: 4,
                since: 0.0,
                t: 30.0,
            },
            started(5, 4, 1, 30.0),
            slice_fetch(5, 0, 4, 0, 30.0, 38.0, false),
            slice_fetch(5, 2, 4, 1, 38.0, 46.0, false),
        ];
        assert_eq!(detailed.trace.unwrap().events, expected);
    }
}
