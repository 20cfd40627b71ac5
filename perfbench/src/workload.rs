//! The benchmark's workloads: their shapes, input generation from the
//! seed (set-up), and one timed iteration of each pipeline.
//!
//! Every workload calls the program only through public functions. The
//! program receives the generated inputs and nothing else; the seed
//! never reaches it except through them (and through the engine seed,
//! which the experiments derive from the same seed).

use std::collections::hash_map::DefaultHasher;
use std::error::Error;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::time::Instant;

use adapt_dfs::cluster::{NodeAvailability, NodeSpec};
use adapt_dfs::namenode::{NameNode, Threshold};
use adapt_dfs::placement::{ClusterView, NodeView};
use adapt_dfs::{BlockSize, FileId, NodeId};
use adapt_experiments::config::LargeScaleConfig;
use adapt_experiments::largescale::estimate_availability;
use adapt_experiments::PolicyKind;
use adapt_net::Topology;
use adapt_sim::engine::{DetailedReport, MapPhaseSim, SimConfig, SimReport};
use adapt_sim::interrupt::InterruptionProcess;
use adapt_sim::runner::placement_from_namenode;
use adapt_sim::{
    AdaptStrategy, JobPlacer, JobTracker, JobTrackerConfig, OptimizedEngine, PlacementStrategy,
    ReducePhaseSim, ReduceReport, SchedPolicy, SimError,
};
use adapt_trace::{derive_totals, write_jsonl, TraceRecorder};
use adapt_traces::replay::InterruptionSchedule;
use adapt_traces::synthetic::SyntheticPopulation;
use adapt_workload::{generate, JobSpec, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::clock::Stopwatch;
use crate::probe::{PlacementInput, Probe, TimedEngine, TimedPlacer, TimedPolicy};

/// Boxed error of any layer.
pub type BenchError = Box<dyn Error>;

/// Simulated-time guard of every run, as in the experiment harnesses.
const HORIZON: f64 = 1e7;
/// Per-node link bandwidth, Mb/s (Table 4).
const BANDWIDTH_MBPS: f64 = 8.0;
/// Failure-free map time of one 64 MB block, seconds (Table 4).
pub const GAMMA: f64 = 12.0;
/// Seed of the host population and its trace rotation: one fixed trace
/// selection per cluster size, as the paper uses one per scenario. The
/// workload seed drives everything else (placement streams, engine
/// seeds, job list), which keeps one workload's cost comparable across
/// seeds instead of following how long the worst outage of a freshly
/// drawn population happens to be.
pub const WORLD_SEED: u64 = 2012;

/// What a workload runs after set-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// NameNode placement of one file, then one map phase (Fig. 5).
    MapPhase {
        /// Placement policy.
        policy: PolicyKind,
    },
    /// Map placement and phase, reducer placement, then the
    /// reduce/shuffle phase over a rack topology.
    MapReduce {
        /// Rack count.
        racks: u32,
        /// Core oversubscription.
        oversubscription: f64,
        /// Reduce tasks.
        reducers: usize,
        /// Failure-free reduce compute, seconds.
        reduce_gamma: f64,
        /// Every fourth map output is this many blocks.
        skew: u64,
    },
    /// A JobTracker job stream, each job's blocks placed by a NameNode.
    JobStream {
        /// Jobs in the stream.
        jobs: usize,
        /// Offered load in per-mille of cluster capacity.
        load_pm: u64,
        /// Largest node grant of one job.
        max_nodes_per_job: usize,
    },
}

/// One workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Hosts in the cluster.
    pub hosts: usize,
    /// Input blocks per host (map-phase shapes).
    pub blocks_per_host: usize,
    /// Replication factor.
    pub replication: usize,
    /// The pipeline.
    pub shape: Shape,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "fig5-adapt",
        hosts: 8_192,
        blocks_per_host: 5,
        replication: 1,
        shape: Shape::MapPhase {
            policy: PolicyKind::Adapt,
        },
    },
    Spec {
        name: "fig5-random-r2",
        hosts: 2_048,
        blocks_per_host: 25,
        replication: 2,
        shape: Shape::MapPhase {
            policy: PolicyKind::Random,
        },
    },
    Spec {
        name: "mapreduce-racks",
        hosts: 1_536,
        blocks_per_host: 8,
        replication: 2,
        shape: Shape::MapReduce {
            racks: 16,
            oversubscription: 2.5,
            reducers: 96,
            reduce_gamma: 30.0,
            skew: 4,
        },
    },
    Spec {
        name: "jobstream",
        hosts: 1_024,
        blocks_per_host: 0,
        replication: 2,
        shape: Shape::JobStream {
            jobs: 10_000,
            load_pm: 900,
            max_nodes_per_job: 16,
        },
    },
];

impl Spec {
    /// The workload called `name`.
    pub fn find(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload with hosts, jobs and reducers divided by
    /// `factor` (for tests).
    pub fn shrunk(mut self, factor: usize) -> Spec {
        let factor = factor.max(1);
        self.hosts = (self.hosts / factor).max(16);
        match &mut self.shape {
            Shape::MapPhase { .. } => {}
            Shape::MapReduce { reducers, .. } => *reducers = (*reducers / factor).max(2),
            Shape::JobStream { jobs, .. } => *jobs = (*jobs / factor).max(8),
        }
        self
    }

    /// Map tasks of the single-file shapes.
    pub fn blocks(&self) -> usize {
        self.hosts * self.blocks_per_host
    }

    fn topology(&self) -> Result<Topology, BenchError> {
        match self.shape {
            Shape::MapReduce {
                racks,
                oversubscription,
                ..
            } => Ok(Topology::new(racks, oversubscription)?),
            _ => Ok(Topology::flat()),
        }
    }

    /// The simulator configuration every phase of the workload uses.
    pub fn sim_config(&self) -> Result<SimConfig, BenchError> {
        Ok(SimConfig::new(BANDWIDTH_MBPS, BlockSize::DEFAULT, GAMMA)?
            .with_horizon(HORIZON)
            .with_topology(self.topology()?))
    }
}

/// Everything set-up generates from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The workload seed.
    pub seed: u64,
    /// Per-host `(λ, μ)` estimated from each host's own trace.
    pub availability: Vec<NodeAvailability>,
    /// Each host's trace replayed from a seed-drawn offset.
    pub schedules: Vec<InterruptionSchedule>,
    /// Hosts down at ingest (not heartbeating when the file is written).
    pub down_at_ingest: Vec<NodeId>,
    /// The job list (job-stream shape only).
    pub jobs: Vec<JobSpec>,
}

impl Inputs {
    /// Fresh interruption processes for one iteration (the engines
    /// consume theirs).
    pub fn processes(&self) -> Vec<InterruptionProcess> {
        self.schedules
            .iter()
            .cloned()
            .map(InterruptionProcess::trace)
            .collect()
    }

    /// A hash of every value, streamed from the `Debug` form (which
    /// prints each float exactly), so set-ups can be compared without
    /// keeping a second copy alive.
    pub fn digest(&self) -> u64 {
        struct Digest(DefaultHasher);
        impl std::fmt::Write for Digest {
            fn write_str(&mut self, s: &str) -> std::fmt::Result {
                self.0.write(s.as_bytes());
                Ok(())
            }
        }
        let mut d = Digest(DefaultHasher::new());
        let _ = write!(d, "{self:?}");
        d.0.finish()
    }

    /// Per-host NameNode specs from the availability estimates.
    fn node_specs(&self) -> Vec<NodeSpec> {
        self.availability
            .iter()
            .map(|&a| NodeSpec::new(a))
            .collect()
    }
}

/// Generates a workload's inputs: host population, `(λ, μ)` estimates
/// and replay schedules (from [`WORLD_SEED`]), and the job list (from
/// `seed`), each under its own span.
///
/// # Errors
///
/// Propagates generator failures.
pub fn setup(spec: &Spec, seed: u64, probe: &Probe) -> Result<Inputs, BenchError> {
    let _setup = probe.span("bench.setup");
    let world = LargeScaleConfig::default();
    let trace = {
        let _s = probe.span("traces.generate");
        SyntheticPopulation::calibrated(
            world.mtbi_mean,
            world.mtbi_cov,
            world.duration_mean,
            world.duration_cov,
        )?
        .hosts(spec.hosts)
        .observation_window(world.mtbi_mean * 200.0)
        .generate(WORLD_SEED)?
    };
    let availability: Vec<NodeAvailability> = {
        let _s = probe.span("availability.estimate");
        trace.iter().map(estimate_availability).collect()
    };
    let (schedules, down_at_ingest) = {
        let _s = probe.span("traces.replay");
        let mut rotate_rng = StdRng::seed_from_u64(WORLD_SEED ^ 0x0FF5_E715);
        let schedules: Vec<InterruptionSchedule> = trace
            .iter()
            .map(|host| InterruptionSchedule::rotated_random(host, &mut rotate_rng))
            .collect();
        let down = schedules
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_down_at(0.0))
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        (schedules, down)
    };
    let jobs = match spec.shape {
        Shape::JobStream { jobs, load_pm, .. } => {
            let _s = probe.span("workload.generate");
            // Offered load ρ: each job brings E[tasks]·γ node-seconds
            // against `hosts` node-seconds of capacity per second.
            let mean_tasks = WorkloadConfig::fb2010_like(1, 1.0).size.mean_tasks();
            let rho = load_pm as f64 / 1_000.0;
            let mean_gap = mean_tasks * GAMMA / (spec.hosts as f64 * rho);
            generate(
                &WorkloadConfig::fb2010_like(jobs, mean_gap),
                seed ^ 0x10B5_7EA4,
            )?
        }
        _ => Vec::new(),
    };
    Ok(Inputs {
        seed,
        availability,
        schedules,
        down_at_ingest,
        jobs,
    })
}

/// Simulated statistics of one iteration (exact for a given seed).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimStats {
    /// Simulated seconds to the last task (or job) finishing.
    pub makespan_s: f64,
    /// Fig. 5 overheads over failure-free map work, summed over every
    /// map phase of the iteration.
    pub overhead_ratio: f64,
    /// Map tasks that ran on a replica holder, over all map tasks.
    pub locality: f64,
    /// Median job sojourn (one job at t = 0 for the single-job shapes).
    pub sojourn_p50_s: f64,
    /// 99th-percentile job sojourn.
    pub sojourn_p99_s: f64,
}

/// Exact work counts of one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Work {
    /// Files created in the NameNode.
    pub files: u64,
    /// Replicas placed.
    pub replicas: u64,
    /// `PlacementPolicy::prepare` calls.
    pub prepare_calls: u64,
    /// `PlacementPolicy::select` calls.
    pub select_calls: u64,
    /// Map phases run.
    pub map_runs: u64,
    /// Map tasks.
    pub map_tasks: u64,
    /// Map events dispatched by kind: kick, down, up, attempt done,
    /// requeue.
    pub map_events: [u64; 5],
    /// Map attempts started.
    pub map_attempts: u64,
    /// Speculative map attempts launched.
    pub map_spec_attempts: u64,
    /// Speculative map attempts that won.
    pub map_spec_wins: u64,
    /// Steals (remote assignments).
    pub map_steals: u64,
    /// Block transfers started.
    pub map_transfers: u64,
    /// Of those, cross-rack.
    pub cross_rack_transfers: u64,
    /// Largest per-link cross-rack stream count.
    pub link_streams_hwm: u64,
    /// Largest map event-queue depth.
    pub map_queue_depth_hwm: u64,
    /// Shuffle fetches committed.
    pub reduce_fetches: u64,
    /// Of those, aborted mid-flight.
    pub reduce_fetches_aborted: u64,
    /// Shuffle bytes read locally.
    pub shuffle_local_bytes: u64,
    /// Shuffle bytes fetched over the network.
    pub shuffle_network_bytes: u64,
    /// Of those, across racks.
    pub cross_rack_bytes: u64,
    /// Map-output bytes the shuffle had to deliver to each reducer.
    pub map_output_bytes: u64,
    /// Jobs in the stream.
    pub jobs: u64,
    /// Jobs completed within their horizon.
    pub jobs_completed: u64,
    /// `JobPlacer::place` calls.
    pub placements: u64,
    /// `JobPlacer::release` calls.
    pub releases: u64,
}

impl Work {
    /// Total map events dispatched.
    pub fn map_event_total(&self) -> u64 {
        self.map_events.iter().sum()
    }

    fn add_map(&mut self, detailed: &DetailedReport) {
        let t = &detailed.telemetry;
        let r = &detailed.report;
        self.map_runs += 1;
        self.map_tasks += r.tasks as u64;
        let events = [
            t.events_kick,
            t.events_down,
            t.events_up,
            t.events_attempt_done,
            t.events_requeue,
        ];
        for (sum, e) in self.map_events.iter_mut().zip(events) {
            *sum += e;
        }
        self.map_attempts += t.attempts_started;
        self.map_spec_attempts += t.speculative_attempts;
        self.map_spec_wins += t.speculative_wins;
        self.map_steals += t.steals;
        self.map_transfers += t.transfers_started;
        self.cross_rack_transfers += t.transfers_cross_rack;
        self.link_streams_hwm = self.link_streams_hwm.max(t.link_streams_hwm);
        self.map_queue_depth_hwm = self.map_queue_depth_hwm.max(t.queue_depth_hwm);
    }
}

/// What the program's own tracer produced in an iteration that had it on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProgramTrace {
    /// Events recorded.
    pub events: u64,
    /// Bytes of JSONL the traces serialize to.
    pub jsonl_bytes: u64,
    /// Seconds `write_jsonl` took.
    pub jsonl_write_s: f64,
}

/// One iteration's result.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// On-CPU seconds from the first placement call to the last
    /// simulator return.
    pub run_s: f64,
    /// Wall seconds over the same span.
    pub run_wall_s: f64,
    /// Simulated statistics.
    pub sim: SimStats,
    /// Exact work counts.
    pub work: Work,
    /// Failed output checks (empty when the iteration is correct).
    pub failures: Vec<String>,
    /// Program-trace statistics, when its tracer was on.
    pub program_trace: Option<ProgramTrace>,
    /// What the placement layer saw (probe on only).
    pub placement_input: PlacementInput,
}

impl Outcome {
    fn sim_bits(&self) -> [u64; 5] {
        let s = &self.sim;
        [
            s.makespan_s,
            s.overhead_ratio,
            s.locality,
            s.sojourn_p50_s,
            s.sojourn_p99_s,
        ]
        .map(f64::to_bits)
    }

    /// Whether `other` has bit-identical simulated statistics and
    /// identical work counts.
    pub fn same_result(&self, other: &Outcome) -> bool {
        self.sim_bits() == other.sim_bits() && self.work == other.work
    }

    /// [`same_result`](Outcome::same_result) without the counts only the
    /// benchmark's placement delegates see (replicas, `prepare` and
    /// `select` calls): what a run through the program's own job placer
    /// can be compared on.
    pub fn same_tracker_result(&self, other: &Outcome) -> bool {
        let visible = |w: &Work| Work {
            replicas: 0,
            prepare_calls: 0,
            select_calls: 0,
            ..*w
        };
        self.sim_bits() == other.sim_bits() && visible(&self.work) == visible(&other.work)
    }
}

/// Runs one iteration of `spec` over pre-generated inputs. With
/// `program_trace`, the map engine also records the program's own event
/// trace. Interruption processes are cloned from `inputs` outside the
/// timed regions (the engines consume theirs).
///
/// # Errors
///
/// Propagates layer failures; a failed output check is not an error
/// but an entry in [`Outcome::failures`].
pub fn run(
    spec: &Spec,
    inputs: &Inputs,
    probe: &Probe,
    program_trace: bool,
) -> Result<Outcome, BenchError> {
    match spec.shape {
        Shape::JobStream { .. } => run_jobstream(spec, inputs, probe),
        _ => run_file(spec, inputs, probe, program_trace),
    }
}

/// NameNode construction with the hosts down at ingest marked.
fn namenode(inputs: &Inputs, topology: Topology, probe: &Probe) -> Result<NameNode, BenchError> {
    let _s = probe.span("dfs.namenode_new");
    let specs = inputs
        .availability
        .iter()
        .enumerate()
        .map(|(i, &a)| NodeSpec::new(a).with_rack(topology.rack_of(i as u32)))
        .collect();
    let mut namenode = NameNode::new(specs);
    for &node in &inputs.down_at_ingest {
        namenode.mark_down(node)?;
    }
    Ok(namenode)
}

/// `NameNode::create_file` under a `dfs.create_file` span, then the
/// file's placement read back under `dfs.placement_read`.
fn place_file(
    spec: &Spec,
    namenode: &mut NameNode,
    policy: &mut TimedPolicy<'_>,
    seed: u64,
    probe: &Probe,
) -> Result<Vec<Vec<NodeId>>, BenchError> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x70AC_E5EED);
    let file = {
        let _s = probe.span("dfs.create_file");
        let file = namenode.create_file(
            "bench-input",
            spec.blocks(),
            spec.replication,
            policy,
            Threshold::PaperDefault,
            &mut rng,
        );
        policy.flush_selects();
        file?
    };
    let _s = probe.span("dfs.placement_read");
    Ok(placement_from_namenode(namenode, file)?)
}

/// Fig. 5 statistics over a set of map phases, with the jobs' sojourns
/// (a single-file job is submitted at t = 0, so its sojourn is its
/// makespan).
fn job_stats(map: &[&SimReport], sojourns: &[f64]) -> SimStats {
    let overheads: f64 = map
        .iter()
        .map(|r| r.rework + r.recovery + r.migration + r.misc)
        .sum();
    let base: f64 = map.iter().map(|r| r.base_work).sum();
    let local: usize = map.iter().map(|r| r.local_tasks).sum();
    let tasks: usize = map.iter().map(|r| r.tasks).sum();
    let mut sorted = sojourns.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    SimStats {
        makespan_s: sorted.last().copied().unwrap_or(0.0),
        overhead_ratio: overheads / base,
        locality: local as f64 / tasks.max(1) as f64,
        sojourn_p50_s: nearest_rank(&sorted, 0.50),
        sojourn_p99_s: nearest_rank(&sorted, 0.99),
    }
}

/// Serializes a map phase's program trace, timing `write_jsonl`, and
/// checks the trace re-derives the engine's overhead decomposition.
fn add_program_trace(map: &DetailedReport, stats: &mut ProgramTrace, failures: &mut Vec<String>) {
    let Some(trace) = map.trace.as_ref() else {
        return;
    };
    let t0 = Instant::now();
    let text = write_jsonl(trace);
    stats.jsonl_write_s += t0.elapsed().as_secs_f64();
    stats.events += trace.events.len() as u64;
    stats.jsonl_bytes += text.len() as u64;
    let derived = derive_totals(trace);
    let t = &map.telemetry;
    let engine = [
        t.rework_us,
        t.recovery_us,
        t.migration_us,
        t.misc_us,
        t.elapsed_us,
        t.attempts_started,
        t.transfers_started,
    ];
    let from_trace = [
        derived.rework_us,
        derived.recovery_us,
        derived.migration_us,
        derived.misc_us,
        derived.elapsed_us,
        derived.attempts_started,
        derived.transfers_started,
    ];
    if engine != from_trace {
        failures.push(format!(
            "derive_totals over the program trace {from_trace:?} != engine decomposition {engine:?}"
        ));
    }
}

/// The single-file shapes: NameNode placement and the map phase, then
/// (map-reduce shape) reducer placement and the reduce phase.
fn run_file(
    spec: &Spec,
    inputs: &Inputs,
    probe: &Probe,
    program_trace: bool,
) -> Result<Outcome, BenchError> {
    let cfg = spec.sim_config()?;
    let topology = cfg.topology();
    let seed = inputs.seed;
    let policy_kind = match spec.shape {
        Shape::MapPhase { policy } => policy,
        _ => PolicyKind::Adapt,
    };
    let mut policy = TimedPolicy::new(policy_kind.build(GAMMA), probe);
    let reduce = match spec.shape {
        Shape::MapReduce {
            reducers,
            reduce_gamma,
            skew,
            ..
        } => Some((reducers, reduce_gamma, skew)),
        _ => None,
    };
    // The reducer-placement view: every host alive with its estimated
    // availability, racks from the topology (as in `fig-shuffle`).
    let cluster = ClusterView::new(
        inputs
            .availability
            .iter()
            .enumerate()
            .map(|(i, &availability)| NodeView {
                id: NodeId(i as u32),
                availability,
                alive: true,
                stored_blocks: 0,
                capacity_blocks: None,
                rack: topology.rack_of(i as u32),
            })
            .collect(),
    );
    let block = BlockSize::DEFAULT.bytes();
    let processes = inputs.processes();
    let reduce_processes = reduce.map(|_| inputs.processes());

    let watch = Stopwatch::start();
    let root = probe.span("bench.run");
    let mut namenode = namenode(inputs, topology, probe)?;
    let placement = place_file(spec, &mut namenode, &mut policy, seed, probe)?;
    let input_replicas = if reduce.is_some() {
        placement.clone()
    } else {
        Vec::new()
    };
    let map = {
        let _s = probe.span("sim.map");
        let mut sim = MapPhaseSim::new(processes, placement, cfg)?;
        if program_trace {
            sim = sim.with_trace(TraceRecorder::new());
        }
        sim.run_detailed(seed)?
    };
    let mut shuffle: Option<(ReduceReport, u64)> = None;
    if let (Some((reducers, reduce_gamma, skew)), Some(reduce_processes)) =
        (reduce, reduce_processes)
    {
        // Every materialized map output, every fourth one skewed, held
        // by the winner and replicated to the input block's replica
        // holders (MOON-style replicated intermediate data: with the
        // winner alone, the shuffle waits out the longest outage of any
        // winner, and one job in thirty ran twenty times longer than
        // the rest).
        let (holders, output_bytes): (Vec<Vec<NodeId>>, Vec<u64>) = map
            .winners
            .iter()
            .enumerate()
            .filter_map(|(task, winner)| {
                let bytes = if task % 4 == 0 { block * skew } else { block };
                winner.map(|node| {
                    let mut holders = vec![node];
                    for r in &input_replicas[task] {
                        if !holders.contains(r) {
                            holders.push(*r);
                        }
                    }
                    (holders, bytes)
                })
            })
            .unzip();
        let map_output_bytes = output_bytes.iter().sum();
        let reducer_nodes = {
            let _s = probe.span("sim.reducer_place");
            let mut strategy = AdaptStrategy::new(reduce_gamma)?;
            (0..reducers)
                .map(|r| strategy.place_reduce_task(&cluster, &holders, r, reducers))
                .collect::<Result<Vec<NodeId>, SimError>>()?
        };
        let _s = probe.span("sim.reduce");
        let sim = ReducePhaseSim::new(
            reduce_processes,
            holders,
            output_bytes,
            reducer_nodes,
            cfg,
            reduce_gamma,
        )?;
        shuffle = Some((sim.run(seed)?.report, map_output_bytes));
    }
    drop(root);
    let elapsed = watch.elapsed();

    let mut out = Outcome {
        run_s: elapsed.cpu_s,
        run_wall_s: elapsed.wall_s,
        ..Outcome::default()
    };
    let w = &mut out.work;
    w.files = 1;
    w.replicas = (spec.blocks() * spec.replication) as u64;
    w.prepare_calls = policy.prepare_calls;
    w.select_calls = policy.select_calls;
    w.add_map(&map);
    if !map.report.completed {
        out.failures
            .push(format!("map phase cut by the {HORIZON} s horizon"));
    }
    let mut makespan = map.report.elapsed;
    if let Some((r, map_output_bytes)) = &shuffle {
        makespan += r.elapsed;
        w.reduce_fetches = r.fetches as u64;
        w.reduce_fetches_aborted = r.fetches_aborted as u64;
        w.shuffle_local_bytes = r.local_bytes;
        w.shuffle_network_bytes = r.network_bytes;
        w.cross_rack_bytes = r.cross_rack_bytes;
        w.map_output_bytes = *map_output_bytes;
        if !r.completed {
            out.failures
                .push("reduce phase cut by the horizon".to_string());
        }
        if r.local_bytes + r.network_bytes < *map_output_bytes {
            out.failures.push(format!(
                "shuffle delivered {} local + {} network bytes, less than the \
                 {map_output_bytes} map-output bytes",
                r.local_bytes, r.network_bytes
            ));
        }
    }
    out.sim = job_stats(&[&map.report], &[makespan]);
    if program_trace {
        let mut traced = ProgramTrace::default();
        add_program_trace(&map, &mut traced, &mut out.failures);
        out.program_trace = Some(traced);
    }
    out.placement_input = std::mem::take(&mut policy.captured);
    Ok(out)
}

/// A NameNode-backed job placer, as in the `jobstream` experiment: each
/// admitted job's blocks become a file confined to the job's grant and
/// are deleted when the job is released. It mirrors
/// `adapt_experiments::jobstream::NameNodePlacer`, which builds a fresh
/// policy inside every `place`, where no timing delegate can reach it;
/// [`check_program_placer`] checks that the two give the same result.
#[derive(Debug)]
struct NameNodePlacer<'p> {
    namenode: NameNode,
    policy: TimedPolicy<'p>,
    replication: usize,
    files: Vec<(u32, FileId)>,
    replicas: u64,
    probe: &'p Probe,
}

fn placement_error(e: adapt_dfs::DfsError) -> SimError {
    SimError::InvalidConfig {
        name: "placement",
        reason: e.to_string(),
    }
}

impl JobPlacer for NameNodePlacer<'_> {
    fn place(
        &mut self,
        job: &JobSpec,
        alloc: &[NodeId],
        seed: u64,
    ) -> Result<Vec<Vec<NodeId>>, SimError> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x70AC_E5EED);
        {
            let _s = self.probe.span("core.policy_build");
            self.policy.rebuild(PolicyKind::Adapt.build(GAMMA));
        }
        let replication = self.replication.min(alloc.len()).max(1);
        let file = {
            let _s = self.probe.span("dfs.create_file");
            let file = self.namenode.create_file_on(
                &format!("job-{}", job.id),
                job.tasks,
                replication,
                &mut self.policy,
                Threshold::PaperDefault,
                &mut rng,
                alloc,
            );
            self.policy.flush_selects();
            file.map_err(placement_error)?
        };
        self.replicas += (job.tasks * replication) as u64;
        self.files.push((job.id, file));
        let _s = self.probe.span("dfs.placement_read");
        let global = placement_from_namenode(&self.namenode, file).map_err(placement_error)?;
        // The engine runs in the job's local node space: remap global
        // ids to ranks within the ascending allocation.
        global
            .iter()
            .map(|replicas| {
                replicas
                    .iter()
                    .map(|g| {
                        alloc
                            .binary_search(g)
                            .map(|local| NodeId(local as u32))
                            .map_err(|_| SimError::InvariantViolation {
                                what: "NameNode placed a replica outside the job's allocation",
                            })
                    })
                    .collect()
            })
            .collect()
    }

    fn release(&mut self, job: &JobSpec) -> Result<(), SimError> {
        if let Some(pos) = self.files.iter().position(|&(id, _)| id == job.id) {
            let (_, file) = self.files.swap_remove(pos);
            let _s = self.probe.span("dfs.delete_file");
            self.namenode.delete_file(file).map_err(placement_error)?;
        }
        Ok(())
    }
}

/// Nearest-rank `q`-quantile of an ascending sample (0 for none).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// One run of the job stream through `placer`, which `make` builds inside
/// the timed region, with the checks any placer must pass.
fn stream<P: JobPlacer>(
    spec: &Spec,
    inputs: &Inputs,
    probe: &Probe,
    make: impl FnOnce() -> Result<P, BenchError>,
) -> Result<(Outcome, P), BenchError> {
    let Shape::JobStream {
        max_nodes_per_job, ..
    } = spec.shape
    else {
        return Err("not a job-stream workload".into());
    };
    let tracker_cfg = JobTrackerConfig::new(spec.sim_config()?, SchedPolicy::FairShare)?
        .with_max_nodes_per_job(max_nodes_per_job.min(spec.hosts))?;
    let engine = TimedEngine::new(OptimizedEngine, probe);
    let processes = inputs.processes();

    let watch = Stopwatch::start();
    let root = probe.span("bench.run");
    let placer = {
        let _s = probe.span("dfs.namenode_new");
        make()?
    };
    let mut placer = TimedPlacer::new(placer, probe);
    let outcome = {
        let _s = probe.span("sim.jobtracker");
        let tracker = JobTracker::new(processes, tracker_cfg)?;
        tracker.run_with(&inputs.jobs, inputs.seed, &engine, &mut placer, false)?
    };
    drop(root);
    let elapsed = watch.elapsed();

    let maps: Vec<&SimReport> = outcome.records.iter().map(|r| &r.detailed.report).collect();
    let mut sojourns: Vec<f64> = outcome.records.iter().map(|r| r.sojourn()).collect();
    sojourns.sort_unstable_by(f64::total_cmp);
    let mut sim = job_stats(&maps, &sojourns);
    sim.makespan_s = outcome.makespan;
    let mut out = Outcome {
        run_s: elapsed.cpu_s,
        run_wall_s: elapsed.wall_s,
        sim,
        ..Outcome::default()
    };
    let w = &mut out.work;
    w.files = placer.placements;
    for record in &outcome.records {
        w.add_map(&record.detailed);
    }
    w.jobs = inputs.jobs.len() as u64;
    w.jobs_completed = outcome.telemetry.jobs_completed;
    w.placements = placer.placements;
    w.releases = placer.releases;
    if engine.runs() != w.map_runs {
        out.failures.push(format!(
            "engine delegate saw {} runs, records hold {}",
            engine.runs(),
            w.map_runs
        ));
    }
    if w.jobs_completed != w.jobs || outcome.records.len() as u64 != w.jobs {
        out.failures.push(format!(
            "{} of {} jobs completed ({} records)",
            w.jobs_completed,
            w.jobs,
            outcome.records.len()
        ));
    }
    if w.releases != w.placements {
        out.failures.push(format!(
            "{} releases for {} placements",
            w.releases, w.placements
        ));
    }
    Ok((out, placer.inner))
}

fn run_jobstream(spec: &Spec, inputs: &Inputs, probe: &Probe) -> Result<Outcome, BenchError> {
    let specs = inputs.node_specs();
    let (mut out, mut placer) = stream(spec, inputs, probe, || {
        Ok(NameNodePlacer {
            namenode: NameNode::new(specs),
            policy: TimedPolicy::new(PolicyKind::Adapt.build(GAMMA), probe),
            replication: spec.replication,
            files: Vec::new(),
            replicas: 0,
            probe,
        })
    })?;
    let w = &mut out.work;
    w.replicas = placer.replicas;
    w.prepare_calls = placer.policy.prepare_calls;
    w.select_calls = placer.policy.select_calls;
    if !placer.files.is_empty() {
        out.failures.push(format!(
            "{} job files left in the NameNode after the stream",
            placer.files.len()
        ));
    }
    out.placement_input = std::mem::take(&mut placer.policy.captured);
    Ok(out)
}

/// Runs the job stream once, untimed, through the program's own
/// `adapt_experiments::jobstream::NameNodePlacer` and returns how it
/// differs from `reference` (an iteration through the benchmark's copy):
/// none of its failures and an equal result means the copy still matches
/// the program. `None` for the workloads without a job placer.
///
/// # Errors
///
/// Propagates layer failures.
pub fn check_program_placer(
    spec: &Spec,
    inputs: &Inputs,
    reference: &Outcome,
) -> Result<Option<Vec<String>>, BenchError> {
    if !matches!(spec.shape, Shape::JobStream { .. }) {
        return Ok(None);
    }
    let off = Probe::new(false);
    let specs = inputs.node_specs();
    let (program, _) = stream(spec, inputs, &off, || {
        Ok(adapt_experiments::jobstream::NameNodePlacer::new(
            specs,
            PolicyKind::Adapt,
            GAMMA,
            spec.replication,
        )?)
    })?;
    let mut failures = program.failures.clone();
    if !program.same_tracker_result(reference) {
        failures.push(format!(
            "the program's placer gave {:?} {:?}, the benchmark's copy {:?} {:?}",
            program.sim, program.work, reference.sim, reference.work
        ));
    }
    Ok(Some(failures))
}
