//! The naive substrate under every reference engine: one obviously
//! correct cluster — event list, hosts, flows, trace sink — shared by
//! [`ReferenceSim`](crate::ReferenceSim),
//! [`ReferenceReduce`](crate::ReferenceReduce) and the reference job
//! tracker.
//!
//! It is written independently of `adapt_sim`'s substrate on purpose:
//! the oracle is only worth something if the two sides share no code.
//! Where the engine pops a 4-ary heap, [`NaiveQueue`] scans an unsorted
//! `Vec` for the `(time, seq)` minimum; where the engine pops closed
//! windows off a per-rack heap of window ends to count uplink flows,
//! [`NaiveCluster`] walks every host. The per-node seed derivation
//! (splitmix64 over `(seed, node)`) is duplicated deliberately: it is
//! part of the engine's determinism contract, so the reference pins it.

use rand::rngs::StdRng;
use rand::SeedableRng;

use adapt_dfs::NodeId;
use adapt_sim::engine::SimConfig;
use adapt_sim::interrupt::InterruptionProcess;
use adapt_sim::{SimError, Topology};
use adapt_trace::{Trace, TraceEvent, TraceMeta, TraceRecorder};

/// The engine's per-node seed derivation (splitmix64 finalizer), pinned
/// here as part of the determinism contract under verification.
pub(crate) fn mix_seed(seed: u64, node: u64) -> u64 {
    let mut z = seed ^ node.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The naive event list: push appends, pop scans linearly for the entry
/// minimal under `(time, seq)` with `f64::total_cmp` — the total order
/// the engine's heap pops in, arrived at the slow, obvious way.
#[derive(Debug)]
pub(crate) struct NaiveQueue<E> {
    entries: Vec<(f64, u64, E)>,
    next_seq: u64,
}

impl<E: Copy> NaiveQueue<E> {
    pub(crate) fn new() -> Self {
        NaiveQueue {
            entries: Vec::new(),
            next_seq: 0,
        }
    }

    pub(crate) fn push(&mut self, time: f64, event: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        self.entries.push((time, self.next_seq, event));
        self.next_seq += 1;
    }

    pub(crate) fn pop(&mut self) -> Option<(f64, E)> {
        let mut best: Option<usize> = None;
        for (i, &(time, seq, _)) in self.entries.iter().enumerate() {
            let better = match best {
                None => true,
                Some(b) => {
                    let (bt, bs, _) = self.entries[b];
                    matches!(
                        time.total_cmp(&bt).then_with(|| seq.cmp(&bs)),
                        std::cmp::Ordering::Less
                    )
                }
            };
            if better {
                best = Some(i);
            }
        }
        best.map(|i| {
            let (time, _, event) = self.entries.remove(i);
            (time, event)
        })
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

/// An event on the reference clock: the shared host transitions plus a
/// phase payload.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ClusterEvent<P> {
    Kick,
    Down(u32),
    Up(u32),
    Phase(P),
}

/// A transfer window committed on its source's links, tagged by the
/// committing phase.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NaiveFlow {
    pub(crate) dest: u32,
    pub(crate) tag: u64,
    pub(crate) end: f64,
}

#[derive(Debug)]
struct NaiveHost {
    process: InterruptionProcess,
    up: bool,
    pending_up_at: f64,
    down_since: Option<f64>,
    flows: Vec<NaiveFlow>,
}

/// The reference cluster of one phase run.
#[derive(Debug)]
pub(crate) struct NaiveCluster<P> {
    hosts: Vec<NaiveHost>,
    rngs: Vec<StdRng>,
    queue: NaiveQueue<ClusterEvent<P>>,
    topology: Topology,
    horizon: f64,
    block_bytes: u64,
    last_t: f64,
    trace: Option<TraceRecorder>,
}

/// Checks one placement entry's node id against the cluster size — the
/// engines' `PlacementOutOfRange` contract.
pub(crate) fn check_node(task: usize, id: NodeId, nodes: usize) -> Result<u32, SimError> {
    if id.0 as usize >= nodes {
        return Err(SimError::PlacementOutOfRange {
            task,
            node: id.0,
            nodes,
        });
    }
    Ok(id.0)
}

impl<P: Copy> NaiveCluster<P> {
    /// All hosts up, nothing scheduled.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for an empty cluster.
    pub(crate) fn new(
        processes: Vec<InterruptionProcess>,
        cfg: &SimConfig,
    ) -> Result<Self, SimError> {
        if processes.is_empty() {
            return Err(SimError::InvalidConfig {
                name: "processes",
                reason: "cluster must have at least one node".into(),
            });
        }
        let mut hosts = Vec::new();
        for process in processes {
            hosts.push(NaiveHost {
                process,
                up: true,
                pending_up_at: 0.0,
                down_since: None,
                flows: Vec::new(),
            });
        }
        Ok(NaiveCluster {
            hosts,
            rngs: Vec::new(),
            queue: NaiveQueue::new(),
            topology: cfg.topology(),
            horizon: cfg.horizon(),
            block_bytes: cfg.block_size().bytes(),
            last_t: 0.0,
            trace: None,
        })
    }

    pub(crate) fn len(&self) -> usize {
        self.hosts.len()
    }

    pub(crate) fn process(&self, n: usize) -> &InterruptionProcess {
        &self.hosts[n].process
    }

    pub(crate) fn set_trace(&mut self, recorder: TraceRecorder) {
        self.trace = Some(recorder);
    }

    pub(crate) fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    pub(crate) fn emit(&mut self, event: TraceEvent) {
        if let Some(recorder) = self.trace.as_mut() {
            recorder.record(event);
        }
    }

    /// Seeds one RNG per node, queues every first outage in node order,
    /// then the kick.
    pub(crate) fn start(&mut self, seed: u64) {
        self.rngs.clear();
        for i in 0..self.hosts.len() {
            self.rngs
                .push(StdRng::seed_from_u64(mix_seed(seed, i as u64)));
        }
        for i in 0..self.hosts.len() {
            self.draw_outage(i, 0.0);
        }
        self.queue.push(0.0, ClusterEvent::Kick);
    }

    fn draw_outage(&mut self, i: usize, now: f64) {
        let next = self.hosts[i].process.next_outage(now, &mut self.rngs[i]);
        if let Some(outage) = next {
            self.hosts[i].pending_up_at = outage.up_at;
            self.queue
                .push(outage.down_at, ClusterEvent::Down(i as u32));
        }
    }

    /// The next event within the horizon; `None` when the list is empty
    /// or the earliest event lies past the horizon.
    pub(crate) fn pop(&mut self) -> Option<(f64, ClusterEvent<P>)> {
        let (t, event) = self.queue.pop()?;
        debug_assert!(
            t >= self.last_t,
            "event queue released t={t} after t={}",
            self.last_t
        );
        self.last_t = t;
        if t > self.horizon {
            return None;
        }
        Some((t, event))
    }

    pub(crate) fn horizon(&self) -> f64 {
        self.horizon
    }

    pub(crate) fn schedule(&mut self, t: f64, event: P) {
        self.queue.push(t, ClusterEvent::Phase(event));
    }

    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    pub(crate) fn is_up(&self, n: u32) -> bool {
        self.hosts[n as usize].up
    }

    /// Outage step 1: the `NodeDown` record (the host is still up).
    pub(crate) fn record_down(&mut self, n: u32, t: f64) {
        debug_assert!(self.hosts[n as usize].up);
        self.emit(TraceEvent::NodeDown { node: n, t });
    }

    /// Outage step 2: the host goes down and its recovery is queued.
    pub(crate) fn mark_down(&mut self, n: u32, t: f64) {
        let ni = n as usize;
        self.hosts[ni].up = false;
        self.hosts[ni].down_since = Some(t);
        let up_at = self.hosts[ni].pending_up_at.max(t);
        self.queue.push(up_at, ClusterEvent::Up(n));
    }

    /// The host recovers: `NodeUp` is recorded and its next outage drawn.
    /// Returns when the outage began.
    pub(crate) fn recover(&mut self, n: u32, t: f64) -> Option<f64> {
        let ni = n as usize;
        debug_assert!(!self.hosts[ni].up);
        self.hosts[ni].up = true;
        let since = self.hosts[ni].down_since;
        self.hosts[ni].down_since = None;
        if let Some(since) = since {
            self.emit(TraceEvent::NodeUp { node: n, since, t });
        }
        self.draw_outage(ni, t);
        since
    }

    /// The start of host `n`'s outage still open at the end of the run.
    pub(crate) fn open_outage(&mut self, n: usize) -> Option<f64> {
        self.hosts[n].down_since.take()
    }

    /// Flows host `n` serves whose window is still open at `t`.
    pub(crate) fn open_flows(&self, n: u32, t: f64) -> Vec<NaiveFlow> {
        self.hosts[n as usize]
            .flows
            .iter()
            .filter(|f| f.end > t)
            .copied()
            .collect()
    }

    /// Cross-rack flows on `rack`'s uplink at `t`: walk every host, keep
    /// the rack's members, count their open flows leaving the rack.
    fn cross_rack_streams(&self, rack: u32, t: f64) -> usize {
        let topo = self.topology;
        let mut count = 0;
        for (ni, host) in self.hosts.iter().enumerate() {
            if topo.rack_of(ni as u32) != rack {
                continue;
            }
            for f in &host.flows {
                if f.end > t && topo.rack_of(f.dest) != rack {
                    count += 1;
                }
            }
        }
        count
    }

    /// Commits a flow from `source` to `dest` at `t` whose uncontended
    /// time is `base`, returning `(end, cross_rack, streams)`. A
    /// cross-rack flow shares the oversubscribed uplink with the flows
    /// open on it; its window stays committed until `end` whatever
    /// happens to the fetch.
    pub(crate) fn commit(
        &mut self,
        source: u32,
        dest: u32,
        tag: u64,
        base: f64,
        t: f64,
    ) -> (f64, bool, usize) {
        let topo = self.topology;
        let cross_rack = !topo.same_rack(source, dest);
        let mut streams = 1;
        if cross_rack {
            streams += self.cross_rack_streams(topo.rack_of(source), t);
        }
        let end = t + topo.fair_share_seconds(base, source, dest, streams);
        let flows = &mut self.hosts[source as usize].flows;
        flows.retain(|f| f.end > t);
        flows.push(NaiveFlow { dest, tag, end });
        if cross_rack && streams > 1 {
            self.emit(TraceEvent::LinkContention {
                rack: topo.rack_of(source),
                streams: streams as u32,
                t,
            });
        }
        (end, cross_rack, streams)
    }

    /// The sealed trace, when one was attached.
    pub(crate) fn seal(
        &mut self,
        tasks: usize,
        gamma: f64,
        seed: u64,
        elapsed: f64,
        completed: bool,
    ) -> Option<Trace> {
        let recorder = self.trace.take()?;
        Some(recorder.finish(TraceMeta {
            nodes: self.hosts.len() as u32,
            tasks: tasks as u32,
            gamma,
            block_bytes: self.block_bytes,
            seed,
            elapsed,
            completed,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_queue_pops_by_time_then_fifo() {
        let mut q = NaiveQueue::new();
        q.push(2.0, 'a');
        q.push(1.0, 'b');
        q.push(2.0, 'c');
        q.push(f64::INFINITY, 'd');
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((1.0, 'b')));
        assert_eq!(q.pop(), Some((2.0, 'a')));
        assert_eq!(q.pop(), Some((2.0, 'c')));
        assert_eq!(q.pop(), Some((f64::INFINITY, 'd')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn mix_seed_matches_splitmix64_vectors() {
        // `mix_seed(0, 1)` is the first output of splitmix64 seeded at 0;
        // a nonzero vector guards the pinned constants against edits.
        assert_eq!(mix_seed(0, 0), 0);
        assert_eq!(mix_seed(0, 1), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix_seed(2012, 7), 0x495F_F4FC_E893_C1FF);
    }
}
