//! The cluster substrate both phase engines run on.
//!
//! The paper's cluster is one mechanism: hosts that go down and come back
//! under their interruption processes, a clock that releases events in
//! `(time, insertion)` order, and network flows committed over the rack
//! topology. [`Cluster`] owns all of it — host state, the per-node RNG
//! streams, the event queue, every outbound flow, and the trace sink —
//! so [`MapPhaseSim`](crate::MapPhaseSim) and
//! [`ReducePhaseSim`](crate::ReducePhaseSim) keep only their task or
//! reducer state and the handlers over it.
//!
//! Equal-time events pop in insertion order, so the order of queue
//! pushes and trace emissions is observable. The substrate therefore
//! offers the outage handling as separate steps
//! ([`announce_down`](Cluster::announce_down),
//! [`take_down`](Cluster::take_down), [`bring_up`](Cluster::bring_up))
//! that each phase interleaves with its own work, rather than one fixed
//! sequence: the map engine kills the host's attempt (which may push a
//! `Requeue`) between announcing the outage and scheduling the recovery.
//!
//! **The one flow rule.** A flow's window `[commit, end)` is fixed when
//! it is committed and stays on both links until `end`, whatever happens
//! to the fetch: a fetch aborted because its source or its destination
//! died still counts toward the source's outbound streams and its rack's
//! uplink until the window closes. Closed windows are pruned lazily when
//! their source commits its next flow.

use rand::rngs::StdRng;
use rand::SeedableRng;

use adapt_dfs::NodeId;
use adapt_net::Topology;
use adapt_trace::{Trace, TraceEvent, TraceMeta, TraceRecorder};

use crate::engine::SimConfig;
use crate::event::EventQueue;
use crate::interrupt::InterruptionProcess;
use crate::SimError;

/// Derives a per-node RNG seed from the run seed (splitmix64 finalizer —
/// adjacent node ids decorrelate fully).
pub(crate) fn mix_seed(seed: u64, node: u64) -> u64 {
    let mut z = seed ^ node.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Checks that `id` (named by entry `task` of a placement, holder or
/// reducer list) is a node of an `nodes`-node cluster, and returns the
/// raw id.
pub(crate) fn node_id(task: usize, id: NodeId, nodes: usize) -> Result<u32, SimError> {
    if (id.0 as usize) < nodes {
        Ok(id.0)
    } else {
        Err(SimError::PlacementOutOfRange {
            task,
            node: id.0,
            nodes,
        })
    }
}

/// A host whose failure trace holds the one outage
/// `[start, start + duration)`.
#[cfg(test)]
pub(crate) fn outage(start: f64, duration: f64) -> InterruptionProcess {
    use adapt_traces::record::{HostId, HostTrace, Interruption};
    use adapt_traces::replay::InterruptionSchedule;
    let host = HostTrace::new(HostId(0), 1e6, vec![Interruption { start, duration }]).unwrap();
    InterruptionProcess::trace(InterruptionSchedule::from_host_trace(&host))
}

/// An event on the shared clock: the host transitions every phase
/// handles, next to the phase's own payload.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ClusterEvent<P> {
    /// Initial dispatch, after time-zero outages apply.
    Kick,
    /// The host goes down.
    Down(u32),
    /// The host comes back.
    Up(u32),
    /// A phase-specific event.
    Phase(P),
}

/// An outbound transfer window committed on a source's links.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Flow {
    /// The fetching node.
    pub(crate) dest: u32,
    /// The committer's tag for the fetch (the map engine's per-node
    /// attempt number; the reduce engine does not need one).
    pub(crate) tag: u64,
    /// End of the window, seconds.
    pub(crate) end: f64,
}

#[derive(Debug)]
struct Host {
    process: InterruptionProcess,
    up: bool,
    /// Recovery time of the outage scheduled next.
    pending_up_at: f64,
    /// Start of the current outage.
    down_since: Option<f64>,
    /// Seconds down over closed outages.
    downtime: f64,
    /// Flows this host serves (windows may already have closed).
    outbound: Vec<Flow>,
}

/// Hosts, clock, flows and trace sink of one phase run. `P` is the
/// phase's own event payload.
#[derive(Debug)]
pub(crate) struct Cluster<P> {
    hosts: Vec<Host>,
    /// Per-node RNG streams, seeded by [`start`](Cluster::start).
    rngs: Vec<StdRng>,
    queue: EventQueue<ClusterEvent<P>>,
    topology: Topology,
    horizon: f64,
    block_bytes: u64,
    /// Time of the last event released.
    now: f64,
    /// Event recorder, present only when tracing was requested. Every
    /// emission goes through [`emit`](Cluster::emit), so an untraced run
    /// does no trace work at all.
    trace: Option<TraceRecorder>,
}

impl<P: Copy> Cluster<P> {
    /// A cluster of `processes.len()` hosts, all up, with queue room for
    /// two outage events per host plus `extra_events`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for an empty cluster.
    pub(crate) fn new(
        processes: Vec<InterruptionProcess>,
        cfg: &SimConfig,
        extra_events: usize,
    ) -> Result<Self, SimError> {
        if processes.is_empty() {
            return Err(SimError::InvalidConfig {
                name: "processes",
                reason: "cluster must have at least one node".into(),
            });
        }
        let queue = EventQueue::with_capacity(processes.len() * 2 + extra_events);
        Ok(Cluster {
            hosts: processes
                .into_iter()
                .map(|process| Host {
                    process,
                    up: true,
                    pending_up_at: 0.0,
                    down_since: None,
                    downtime: 0.0,
                    outbound: Vec::new(),
                })
                .collect(),
            rngs: Vec::new(),
            queue,
            topology: cfg.topology(),
            horizon: cfg.horizon(),
            block_bytes: cfg.block_size().bytes(),
            now: 0.0,
            trace: None,
        })
    }

    /// Number of hosts.
    pub(crate) fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Host `n`'s interruption process.
    pub(crate) fn process(&self, n: usize) -> &InterruptionProcess {
        &self.hosts[n].process
    }

    /// Attaches an event recorder.
    pub(crate) fn set_trace(&mut self, recorder: TraceRecorder) {
        self.trace = Some(recorder);
    }

    /// Whether a recorder is attached.
    #[inline]
    pub(crate) fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Appends a trace event if tracing is enabled.
    #[inline]
    pub(crate) fn emit(&mut self, event: TraceEvent) {
        if let Some(recorder) = self.trace.as_mut() {
            recorder.record(event);
        }
    }

    /// Seeds the per-node RNG streams from `seed`, schedules each host's
    /// first outage, then the initial [`ClusterEvent::Kick`].
    ///
    /// Each node's interruption randomness is a pure function of
    /// `(seed, node id)`, independent of scheduling order: two runs over
    /// the same cluster and seed but different placements see identical
    /// failure realizations — paired comparisons across policies, like
    /// the paper's same-trace methodology.
    pub(crate) fn start(&mut self, seed: u64) {
        self.rngs = (0..self.hosts.len())
            .map(|i| StdRng::seed_from_u64(mix_seed(seed, i as u64)))
            .collect();
        for i in 0..self.hosts.len() {
            self.schedule_next_outage(i as u32, 0.0);
        }
        self.queue.push(0.0, ClusterEvent::Kick);
    }

    /// Releases the next event, or `None` once the queue is empty or the
    /// next event lies past the horizon.
    pub(crate) fn pop(&mut self) -> Option<(f64, ClusterEvent<P>)> {
        let (t, event) = self.queue.pop()?;
        // Event-ordering invariant: the queue must release events in
        // non-decreasing time, or causality (and determinism) breaks.
        debug_assert!(
            t >= self.now,
            "event queue released t={t} after t={}",
            self.now
        );
        self.now = t;
        (t <= self.horizon).then_some((t, event))
    }

    /// Time of the last event released (0 before the first).
    pub(crate) fn now(&self) -> f64 {
        self.now
    }

    /// Schedules a phase event at `t`.
    pub(crate) fn schedule(&mut self, t: f64, event: P) {
        self.queue.push(t, ClusterEvent::Phase(event));
    }

    /// Number of scheduled events.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Whether host `n` is up.
    #[inline]
    pub(crate) fn is_up(&self, n: u32) -> bool {
        self.hosts[n as usize].up
    }

    /// Number of hosts currently up.
    pub(crate) fn up_count(&self) -> usize {
        self.hosts.iter().filter(|h| h.up).count()
    }

    /// First step of an outage: records `NodeDown` for host `n` at `t`.
    /// The host still counts as up until [`take_down`](Cluster::take_down).
    pub(crate) fn announce_down(&mut self, n: u32, t: f64) {
        debug_assert!(self.hosts[n as usize].up);
        self.emit(TraceEvent::NodeDown { node: n, t });
    }

    /// Second step of an outage: marks host `n` down at `t` and schedules
    /// its recovery.
    pub(crate) fn take_down(&mut self, n: u32, t: f64) {
        let host = &mut self.hosts[n as usize];
        host.up = false;
        host.down_since = Some(t);
        let up_at = host.pending_up_at.max(t);
        self.queue.push(up_at, ClusterEvent::Up(n));
    }

    /// Brings host `n` back at `t`: records `NodeUp` and schedules its
    /// next outage.
    pub(crate) fn bring_up(&mut self, n: u32, t: f64) {
        let host = &mut self.hosts[n as usize];
        debug_assert!(!host.up);
        host.up = true;
        if let Some(since) = host.down_since.take() {
            host.downtime += t - since;
            self.emit(TraceEvent::NodeUp { node: n, since, t });
        }
        self.schedule_next_outage(n, t);
    }

    fn schedule_next_outage(&mut self, n: u32, t: f64) {
        let ni = n as usize;
        if let Some(outage) = self.hosts[ni].process.next_outage(t, &mut self.rngs[ni]) {
            self.hosts[ni].pending_up_at = outage.up_at;
            self.queue.push(outage.down_at, ClusterEvent::Down(n));
        }
    }

    /// Host `n`'s total downtime, closing an outage still open at `end`
    /// (the run's end).
    pub(crate) fn downtime(&mut self, n: usize, end: f64) -> f64 {
        let host = &mut self.hosts[n];
        if let Some(since) = host.down_since.take() {
            host.downtime += (end - since).max(0.0);
        }
        host.downtime
    }

    /// Outbound flows of host `n` whose window is still open at `t`.
    pub(crate) fn open_flows(&self, n: u32, t: f64) -> impl Iterator<Item = Flow> + '_ {
        self.hosts[n as usize]
            .outbound
            .iter()
            .copied()
            .filter(move |f| f.end > t)
    }

    /// Cross-rack outbound flows active on `rack`'s uplink at `t`. Lazy
    /// scan over the rack's members (`rack_of` is `node % racks`, so they
    /// sit at stride `racks`); closed windows are skipped by the `end > t`
    /// filter.
    fn cross_rack_streams(&self, rack: u32, t: f64) -> usize {
        let topo = self.topology;
        let mut count = 0;
        let mut ni = rack as usize;
        while ni < self.hosts.len() {
            count += self.hosts[ni]
                .outbound
                .iter()
                .filter(|f| f.end > t && topo.rack_of(f.dest) != rack)
                .count();
            ni += topo.racks() as usize;
        }
        count
    }

    /// Commits a flow of `base_seconds` (its uncontended intra-rack time)
    /// from `source` to `dest` at `t`, returning the window's end and, for
    /// a cross-rack flow, the streams on the source's uplink including
    /// this one. Cross-rack flows pay the oversubscribed uplink,
    /// fair-shared over those streams; intra-rack flows keep
    /// `base_seconds` bit-identically. Records `LinkContention` when the
    /// new flow shares the uplink.
    pub(crate) fn commit_flow(
        &mut self,
        source: u32,
        dest: u32,
        tag: u64,
        base_seconds: f64,
        t: f64,
    ) -> (f64, Option<usize>) {
        let topo = self.topology;
        let rack = topo.rack_of(source);
        let uplink = (!topo.same_rack(source, dest)).then(|| self.cross_rack_streams(rack, t) + 1);
        let streams = uplink.unwrap_or(1);
        let end = t + topo.fair_share_seconds(base_seconds, source, dest, streams);
        let outbound = &mut self.hosts[source as usize].outbound;
        outbound.retain(|f| f.end > t);
        outbound.push(Flow { dest, tag, end });
        if streams > 1 {
            self.emit(TraceEvent::LinkContention {
                rack,
                streams: streams as u32,
                t,
            });
        }
        (end, uplink)
    }

    /// Seals the trace (when one was attached) with the run's metadata.
    pub(crate) fn seal(
        &mut self,
        tasks: usize,
        gamma: f64,
        seed: u64,
        elapsed: f64,
        completed: bool,
    ) -> Option<Trace> {
        let meta = TraceMeta {
            nodes: self.hosts.len() as u32,
            tasks: tasks as u32,
            gamma,
            block_bytes: self.block_bytes,
            seed,
            elapsed,
            completed,
        };
        self.trace.take().map(|recorder| recorder.finish(meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_dfs::BlockSize;

    fn cluster(n: usize, topology: Topology) -> Cluster<()> {
        let cfg = SimConfig::new(8.0, BlockSize::DEFAULT, 12.0)
            .unwrap()
            .with_topology(topology);
        Cluster::new(vec![InterruptionProcess::none(); n], &cfg, 0).unwrap()
    }

    #[test]
    fn mix_seed_matches_splitmix64_vectors() {
        // Pinned: every byte-diffed baseline depends on these streams.
        // `mix_seed(0, 1)` is the first output of splitmix64 seeded at 0.
        assert_eq!(mix_seed(0, 0), 0);
        assert_eq!(mix_seed(0, 1), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix_seed(2012, 7), 0x495F_F4FC_E893_C1FF);
        assert_eq!(mix_seed(1, 0), 0x5692_161D_100B_05E5);
    }

    #[test]
    fn killed_flows_stay_on_the_uplink_until_their_window_closes() {
        // Racks {0, 2} and {1, 3} at 2:1. A flow 0 → 1 commits alone;
        // a second rack-0 flow 2 → 3 shares the uplink until the first
        // window closes, whatever became of the first fetch.
        let mut c = cluster(4, Topology::new(2, 2.0).unwrap());
        assert_eq!(c.commit_flow(0, 1, 0, 10.0, 0.0), (20.0, Some(1)));
        c.take_down(0, 5.0);
        assert_eq!(c.commit_flow(2, 3, 0, 10.0, 5.0), (45.0, Some(2)));
        assert_eq!(c.open_flows(0, 19.0).count(), 1);
        // Past the first window only the second flow remains.
        assert_eq!(c.commit_flow(2, 1, 0, 10.0, 20.0), (60.0, Some(2)));
        assert_eq!(c.open_flows(2, 20.0).count(), 2);
        // Intra-rack flows keep the base time bit-identically.
        assert_eq!(c.commit_flow(0, 2, 0, 10.0, 30.0), (40.0, None));
    }
}
