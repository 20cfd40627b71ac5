//! Host-time spans recorded from outside the program, around each call
//! into a layer, plus the timing delegates that wrap the program's
//! public `PlacementPolicy`, `MapEngine` and `JobPlacer` traits.
//!
//! A [`Probe`] is either off (every call is a no-op, so end-to-end runs
//! pay for nothing but a branch) or on (every span is kept in memory and
//! written out when the run ends). Spans nest through an explicit stack:
//! a span's parent is whichever span was open when it started.
//!
//! Per-call boundaries that fire a hundred thousand times per iteration
//! (`PlacementPolicy::select`) are not kept one span per call: the
//! delegate sums their durations and [`Probe::aggregate`] records one
//! span per enclosing call, carrying the call count and the summed busy
//! time. Self-time derivation treats such a span as busy for exactly
//! `busy_ns`.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use adapt_dfs::placement::{ClusterView, PlacementPolicy};
use adapt_dfs::{DfsError, NodeId};
use adapt_sim::engine::{DetailedReport, SimConfig};
use adapt_sim::interrupt::InterruptionProcess;
use adapt_sim::{JobPlacer, MapEngine, SimError};
use adapt_workload::JobSpec;
use rand::Rng;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, `<module>.<call>`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration the span belongs to (`u32::MAX` for set-up).
    pub iter: u32,
    /// Start, nanoseconds since the probe was created.
    pub start_ns: u64,
    /// End, nanoseconds since the probe was created.
    pub end_ns: u64,
    /// Calls the span stands for (1 for an ordinary span).
    pub calls: u64,
    /// Busy nanoseconds: `end - start` for an ordinary span, the summed
    /// call durations for an aggregate one.
    pub busy_ns: u64,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    stack: Vec<usize>,
    iter: u32,
}

/// The span recorder shared by every delegate of one run.
#[derive(Debug)]
pub struct Probe {
    on: bool,
    origin: Instant,
    state: RefCell<State>,
}

/// Closes its span when dropped.
#[derive(Debug)]
pub struct SpanGuard<'p> {
    probe: &'p Probe,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let now = self.probe.now_ns();
            let mut state = self.probe.state.borrow_mut();
            let span = &mut state.spans[index];
            span.end_ns = now;
            span.busy_ns = now - span.start_ns;
            state.stack.pop();
        }
    }
}

impl Probe {
    /// A probe that records spans when `on`, and does nothing otherwise.
    pub fn new(on: bool) -> Probe {
        Probe {
            on,
            origin: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the iteration id stamped on spans opened from now on.
    pub fn set_iter(&self, iter: u32) {
        self.state.borrow_mut().iter = iter;
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.on {
            return SpanGuard {
                probe: self,
                index: None,
            };
        }
        let start_ns = self.now_ns();
        let mut state = self.state.borrow_mut();
        let index = state.spans.len();
        let span = Span {
            name,
            parent: state.stack.last().copied(),
            iter: state.iter,
            start_ns,
            end_ns: start_ns,
            calls: 1,
            busy_ns: 0,
        };
        state.spans.push(span);
        state.stack.push(index);
        SpanGuard {
            probe: self,
            index: Some(index),
        }
    }

    /// Records `calls` calls totalling `busy_ns` as one child of the
    /// currently open span, stamped at the current instant.
    pub fn aggregate(&self, name: &'static str, calls: u64, busy_ns: u64) {
        if !self.on || calls == 0 {
            return;
        }
        let now = self.now_ns();
        let mut state = self.state.borrow_mut();
        let span = Span {
            name,
            parent: state.stack.last().copied(),
            iter: state.iter,
            start_ns: now.saturating_sub(busy_ns),
            end_ns: now,
            calls,
            busy_ns,
        };
        state.spans.push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// Times `f` when the probe is on; returns its result and the
    /// nanoseconds it took (0 when off).
    fn timed<T>(&self, f: impl FnOnce() -> T) -> (T, u64) {
        if self.on {
            let t0 = Instant::now();
            let out = f();
            (out, t0.elapsed().as_nanos() as u64)
        } else {
            (f(), 0)
        }
    }
}

/// Placement sessions captured per run: enough to sample a job stream's
/// job-size mix, few enough to replay in the kernels' time budget.
const MAX_SESSIONS: usize = 256;

/// One placement session (a `prepare` and the `select`s after it), as
/// the delegate saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct Session {
    /// Blocks the `prepare` announced.
    pub blocks: usize,
    /// `select` calls in the session.
    pub selects: u64,
    /// Which nodes the session's first `select` found eligible.
    pub eligible: Vec<bool>,
}

/// The real-size input of the placement kernels: the cluster view of
/// the first `prepare` and the first [`MAX_SESSIONS`] sessions.
#[derive(Debug, Clone, Default)]
pub struct PlacementInput {
    /// Cluster view of the first `prepare`.
    pub view: Option<ClusterView>,
    /// The sessions, in call order.
    pub sessions: Vec<Session>,
}

/// A `PlacementPolicy` delegate that counts `prepare`/`select` calls,
/// and with the probe on opens a `core.prepare` span per `prepare` and
/// sums `select` durations for [`TimedPolicy::flush_selects`].
#[derive(Debug)]
pub struct TimedPolicy<'p> {
    inner: Box<dyn PlacementPolicy>,
    probe: &'p Probe,
    /// `prepare` calls so far.
    pub prepare_calls: u64,
    /// `select` calls so far.
    pub select_calls: u64,
    pending_selects: u64,
    pending_select_ns: u64,
    /// What the placement layer saw (probe on only).
    pub captured: PlacementInput,
    recording: bool,
}

impl<'p> TimedPolicy<'p> {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn PlacementPolicy>, probe: &'p Probe) -> TimedPolicy<'p> {
        TimedPolicy {
            inner,
            probe,
            prepare_calls: 0,
            select_calls: 0,
            pending_selects: 0,
            pending_select_ns: 0,
            captured: PlacementInput::default(),
            recording: false,
        }
    }

    /// Replaces the wrapped policy with a freshly built one, keeping the
    /// counts and captured sessions.
    pub fn rebuild(&mut self, inner: Box<dyn PlacementPolicy>) {
        self.inner = inner;
    }

    /// Records the `select` calls made since the last flush as one
    /// aggregate `dfs.select` span under the open span.
    pub fn flush_selects(&mut self) {
        self.probe
            .aggregate("dfs.select", self.pending_selects, self.pending_select_ns);
        self.pending_selects = 0;
        self.pending_select_ns = 0;
    }
}

impl PlacementPolicy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare(&mut self, cluster: &ClusterView, num_blocks: usize) -> Result<(), DfsError> {
        self.prepare_calls += 1;
        let captured = &mut self.captured;
        self.recording = self.probe.is_on() && captured.sessions.len() < MAX_SESSIONS;
        if self.recording {
            captured.view.get_or_insert_with(|| cluster.clone());
            captured.sessions.push(Session {
                blocks: num_blocks,
                selects: 0,
                eligible: Vec::new(),
            });
        }
        let _span = self.probe.span("core.prepare");
        self.inner.prepare(cluster, num_blocks)
    }

    fn select(
        &mut self,
        cluster: &ClusterView,
        eligible: &dyn Fn(NodeId) -> bool,
        rng: &mut dyn Rng,
    ) -> Option<NodeId> {
        self.select_calls += 1;
        self.pending_selects += 1;
        if let Some(session) = self.captured.sessions.last_mut().filter(|_| self.recording) {
            if session.selects == 0 {
                session.eligible = cluster.nodes().iter().map(|n| eligible(n.id)).collect();
            }
            session.selects += 1;
        }
        let inner = &mut self.inner;
        let (out, ns) = self.probe.timed(|| inner.select(cluster, eligible, rng));
        self.pending_select_ns += ns;
        out
    }
}

/// A `MapEngine` delegate: counts runs and wraps each in a
/// `sim.jobtracker_engine` span.
#[derive(Debug)]
pub struct TimedEngine<'p, E> {
    inner: E,
    probe: &'p Probe,
    runs: Cell<u64>,
}

impl<'p, E: MapEngine> TimedEngine<'p, E> {
    /// Wraps `inner`.
    pub fn new(inner: E, probe: &'p Probe) -> TimedEngine<'p, E> {
        TimedEngine {
            inner,
            probe,
            runs: Cell::new(0),
        }
    }

    /// Engine runs so far.
    pub fn runs(&self) -> u64 {
        self.runs.get()
    }
}

impl<E: MapEngine> MapEngine for TimedEngine<'_, E> {
    fn run_map_phase(
        &self,
        processes: Vec<InterruptionProcess>,
        placement: Vec<Vec<NodeId>>,
        cfg: SimConfig,
        seed: u64,
        traced: bool,
    ) -> Result<DetailedReport, SimError> {
        self.runs.set(self.runs.get() + 1);
        let _span = self.probe.span("sim.jobtracker_engine");
        self.inner
            .run_map_phase(processes, placement, cfg, seed, traced)
    }
}

/// A `JobPlacer` delegate: counts placements and releases and wraps
/// each in a `sim.jobtracker_place` / `sim.jobtracker_release` span.
#[derive(Debug)]
pub struct TimedPlacer<'p, P> {
    /// The wrapped placer.
    pub inner: P,
    probe: &'p Probe,
    /// `place` calls so far.
    pub placements: u64,
    /// `release` calls so far.
    pub releases: u64,
}

impl<'p, P: JobPlacer> TimedPlacer<'p, P> {
    /// Wraps `inner`.
    pub fn new(inner: P, probe: &'p Probe) -> TimedPlacer<'p, P> {
        TimedPlacer {
            inner,
            probe,
            placements: 0,
            releases: 0,
        }
    }
}

impl<P: JobPlacer> JobPlacer for TimedPlacer<'_, P> {
    fn place(
        &mut self,
        job: &JobSpec,
        alloc: &[NodeId],
        seed: u64,
    ) -> Result<Vec<Vec<NodeId>>, SimError> {
        self.placements += 1;
        let _span = self.probe.span("sim.jobtracker_place");
        self.inner.place(job, alloc, seed)
    }

    fn release(&mut self, job: &JobSpec) -> Result<(), SimError> {
        self.releases += 1;
        let _span = self.probe.span("sim.jobtracker_release");
        self.inner.release(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_aggregate() {
        let probe = Probe::new(true);
        probe.set_iter(3);
        {
            let _outer = probe.span("a.outer");
            let _inner = probe.span("b.inner");
            probe.aggregate("c.calls", 10, 5);
        }
        let spans = probe.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!((spans[2].calls, spans[2].busy_ns), (10, 5));
        assert!(spans.iter().all(|s| s.iter == 3));
        assert!(spans[0].busy_ns >= spans[1].busy_ns);
    }

    #[test]
    fn off_probe_records_nothing() {
        let probe = Probe::new(false);
        {
            let _s = probe.span("a.outer");
            probe.aggregate("c.calls", 10, 5);
        }
        assert!(probe.spans().is_empty());
    }
}
