//! One benchmark run: repeated set-up, timed iterations for the given
//! time, output checks, and the metrics of either the untraced run
//! (end-to-end) or the traced run (per layer).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use adapt_experiments::PolicyKind;

use crate::clock::Stopwatch;
use crate::kernels::{self, Kernels};
use crate::probe::{Probe, Span};
use crate::reference::{scaled, Reference, NOMINAL_S};
use crate::stats::median;
use crate::workload::{check_program_placer, run, setup, BenchError, Outcome, Shape, Spec};

/// How many times set-up runs; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Time given to each layer kernel in the traced run.
pub const KERNEL_BUDGET: Duration = Duration::from_millis(100);

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub spec: Spec,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Seconds of timed iterations.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Where the traced run writes its spans (none: not written).
    pub spans_dir: Option<PathBuf>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// Samples the value summarizes.
    pub samples: usize,
    /// Whether the result line carries it (and `BENCHMARK.json` bounds
    /// it); the rest are printed only.
    pub gated: bool,
}

/// Everything a run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Human-readable lines, printed before the result.
    pub lines: Vec<String>,
    /// Set-ups plus iterations run.
    pub attempted: u64,
    /// Of those, how many failed an output check.
    pub failed: u64,
    /// The metrics of this kind of run.
    pub metrics: Vec<Metric>,
    /// The first iteration's outcome (the reference every later
    /// iteration must reproduce exactly).
    pub reference: Outcome,
}

impl Report {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().filter(|m| m.gated).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.push_as(name, value, unit, samples, true);
    }

    fn push_as(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
        gated: bool,
    ) {
        let better = if BETTER_HIGHER.contains(&name) {
            "higher"
        } else {
            "lower"
        };
        self.metrics.push(Metric {
            name,
            value,
            unit,
            better,
            samples,
            gated,
        });
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.lines.push(format!("FAIL {what}"));
    }
}

/// Metrics for which a larger value is better (all others: smaller).
const BETTER_HIGHER: [&str; 3] = [
    "sim_locality",
    "sim.map_useful_attempt_ratio",
    "sim.map_spec_win_ratio",
];

/// What an iteration of the traced run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// No spans, program tracer off: the untraced baseline.
    Plain,
    /// Benchmark spans around every layer call.
    Spans,
    /// Spans plus the program's own event tracer.
    SpansAndProgramTrace,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Spans => "spans",
            Mode::SpansAndProgramTrace => "spans+program-trace",
        }
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, BenchError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Runs the benchmark.
///
/// # Errors
///
/// A layer failure (as opposed to a failed output check) aborts the
/// run.
pub fn run_session(opts: &Options) -> Result<Report, BenchError> {
    let spec = &opts.spec;
    let mut report = Report::default();
    report.lines.push(format!(
        "workload {} seed {} seconds {} trace {}",
        spec.name,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    ));

    // Every timed unit is scaled by the host-speed reference timed on
    // either side of it (see `reference`).
    let speed = Reference::new();
    let mut ref_s = vec![speed.time()];

    // Set-up, repeated: it must regenerate identical inputs each time.
    // Only one set-up's inputs are alive at a time (earlier ones are
    // compared by digest), so the benchmark's own copies do not set the
    // peak resident memory.
    let setup_probe = Probe::new(opts.trace);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_cpu_s = Vec::with_capacity(SETUPS);
    let mut setup_wall_s = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    let mut first_digest = None;
    for k in 0..SETUPS {
        drop(inputs.take());
        setup_probe.set_iter(k as u32);
        let watch = Stopwatch::start();
        let generated = setup(spec, opts.seed, &setup_probe)?;
        let elapsed = watch.elapsed();
        let (before, after) = (ref_s[ref_s.len() - 1], speed.time());
        ref_s.push(after);
        setup_s.push(scaled(elapsed.cpu_s, before, after));
        setup_cpu_s.push(elapsed.cpu_s);
        setup_wall_s.push(elapsed.wall_s);
        report.attempted += 1;
        let digest = generated.digest();
        match first_digest {
            None => first_digest = Some(digest),
            Some(first) if first != digest => {
                report.fail(format!(
                    "set-up {k} generated different inputs from set-up 0"
                ));
            }
            Some(_) => {}
        }
        inputs = Some(generated);
    }
    let inputs = inputs.ok_or("no set-up ran")?;
    let setup_rss_mb = peak_rss_mb()?;

    // The program's own tracer records engine events: it runs where the
    // engines, not placement, take the time.
    let program_trace = matches!(
        spec.shape,
        Shape::MapPhase {
            policy: PolicyKind::Adapt
        } | Shape::MapReduce { .. }
    );
    let modes: &[Mode] = match (opts.trace, program_trace) {
        (false, _) => &[Mode::Plain],
        (true, false) => &[Mode::Plain, Mode::Spans],
        (true, true) => &[Mode::Plain, Mode::Spans, Mode::SpansAndProgramTrace],
    };
    let off = Probe::new(false);
    let on = Probe::new(true);
    let mut run_s: BTreeMap<&'static str, Vec<(u32, f64)>> = BTreeMap::new();
    let mut plain_cpu = Vec::new();
    let mut plain_wall = Vec::new();
    let mut traced_outcome: Option<Outcome> = None;
    let mut program_outcome: Option<Outcome> = None;
    let mut reference: Option<Outcome> = None;
    let deadline = Duration::from_secs_f64(opts.seconds.max(0.0));
    let start = Instant::now();
    let mut i = 0usize;
    while i < modes.len() || start.elapsed() < deadline {
        let mode = modes[i % modes.len()];
        let probe = if mode == Mode::Plain { &off } else { &on };
        probe.set_iter(i as u32);
        let outcome = run(spec, &inputs, probe, mode == Mode::SpansAndProgramTrace)?;
        let (before, after) = (ref_s[ref_s.len() - 1], speed.time());
        ref_s.push(after);
        report.attempted += 1;
        let mut failures = outcome.failures.clone();
        if let Some(first) = &reference {
            if !first.same_result(&outcome) {
                failures.push(format!(
                    "simulated statistics or work counts differ from iteration 0: {:?} {:?} vs {:?} {:?}",
                    outcome.sim, outcome.work, first.sim, first.work
                ));
            }
        }
        if !failures.is_empty() {
            report.fail(format!(
                "iteration {i} ({}): {}",
                mode.label(),
                failures.join("; ")
            ));
        }
        run_s
            .entry(mode.label())
            .or_default()
            .push((i as u32, scaled(outcome.run_s, before, after)));
        if mode == Mode::Plain {
            plain_cpu.push(outcome.run_s);
            plain_wall.push(outcome.run_wall_s);
        }
        match mode {
            Mode::Plain => {}
            Mode::Spans if traced_outcome.is_none() => traced_outcome = Some(outcome.clone()),
            Mode::SpansAndProgramTrace if program_outcome.is_none() => {
                program_outcome = Some(outcome.clone())
            }
            _ => {}
        }
        if reference.is_none() {
            reference = Some(outcome);
        }
        i += 1;
    }
    let reference = reference.ok_or("no iteration ran")?;
    let plain: Vec<f64> = run_s["plain"].iter().map(|&(_, s)| s).collect();
    report
        .lines
        .push(format!("iterations {i}, set-ups {}", setup_s.len()));
    report.lines.push(format!(
        "host speed: reference {:.6} s on-CPU (median of {}); times are scaled to {NOMINAL_S} s",
        median(&ref_s),
        ref_s.len()
    ));
    report.lines.push(format!(
        "scaled / on-CPU / wall, medians: set-up {:.6} / {:.6} / {:.6} s, untraced iteration {:.6} / {:.6} / {:.6} s",
        median(&setup_s),
        median(&setup_cpu_s),
        median(&setup_wall_s),
        median(&plain),
        median(&plain_cpu),
        median(&plain_wall)
    ));
    let peak_mb = peak_rss_mb()?;
    report.lines.push(format!(
        "peak resident memory: {setup_rss_mb:.1} MB after set-up, {peak_mb:.1} MB after the iterations"
    ));

    // Outside the timed iterations: the benchmark's own placer delegates
    // must reproduce what the program's placer gives.
    if let Some(failures) = check_program_placer(spec, &inputs, &reference)? {
        report.attempted += 1;
        if !failures.is_empty() {
            report.fail(format!("program placer check: {}", failures.join("; ")));
        }
    }

    if opts.trace {
        let traced = traced_outcome.ok_or("no traced iteration ran")?;
        per_layer(
            opts,
            &mut report,
            &setup_probe.spans(),
            &on.spans(),
            &run_s,
            &traced,
            program_outcome.as_ref(),
        )?;
    } else {
        let sim = reference.sim;
        let n = plain.len();
        report.push("setup_s", median(&setup_s), "s", setup_s.len());
        report.push("run_s", median(&plain), "s", n);
        report.push("peak_rss_mb", peak_mb, "MB", 1);
        report.push("sim_locality", sim.locality, "ratio", n);
        // Exact for a seed, but a maximum over heavy-tailed outages:
        // they move by a sixth to a half between seeds, more than any
        // bound can take, so the result line leaves them out.
        report.push_as("sim_makespan_s", sim.makespan_s, "sim_s", n, false);
        report.push_as("sim_overhead_ratio", sim.overhead_ratio, "ratio", n, false);
        report.push_as("sim_sojourn_p50_s", sim.sojourn_p50_s, "sim_s", n, false);
        report.push_as("sim_sojourn_p99_s", sim.sojourn_p99_s, "sim_s", n, false);
    }
    for m in &report.metrics {
        if !m.value.is_finite() {
            let what = format!("metric {} is not finite", m.name);
            report.fail(what);
            break;
        }
    }
    if !opts.trace {
        // Zero when every check passes, so only printed: the result
        // line carries `failed` and `attempted` instead.
        let failed_frac = report.failed as f64 / report.attempted as f64;
        let n = report.attempted as usize;
        report.push_as("failed_frac", failed_frac, "ratio", n, false);
    }
    let metric_lines: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "metric {} = {} {} (n={}, better={}{})",
                m.name,
                m.value,
                m.unit,
                m.samples,
                m.better,
                if m.gated { "" } else { ", not gated" }
            )
        })
        .collect();
    report.lines.extend(metric_lines);
    report.reference = reference;
    Ok(report)
}

/// Busy time, self time and calls of every span name in one iteration.
#[derive(Debug, Clone, Copy, Default)]
struct LayerTime {
    busy_ns: u64,
    self_ns: u64,
    calls: u64,
}

/// Per span name, summed over the spans of iteration `iter`.
fn layer_times(spans: &[Span], iter: u32) -> BTreeMap<&'static str, LayerTime> {
    let mut child_busy = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_busy[parent] += span.busy_ns;
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, children) in spans.iter().zip(&child_busy) {
        if span.iter != iter {
            continue;
        }
        let t = out.entry(span.name).or_default();
        t.busy_ns += span.busy_ns;
        t.self_ns += span.busy_ns.saturating_sub(*children);
        t.calls += span.calls;
    }
    out
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Writes spans as JSON lines: name, start, end, parent, stage and
/// iteration id, calls and busy time. A stage given an iteration keeps
/// only that iteration's spans.
fn write_spans(
    path: &PathBuf,
    workload: &str,
    stages: &[(&str, &[Span], Option<u32>)],
) -> Result<(), BenchError> {
    let mut text = String::new();
    for (stage, spans, only) in stages {
        let kept = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| only.is_none_or(|i| s.iter == i));
        for (id, s) in kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"workload\": \"{workload}\", \"stage\": \"{stage}\", \"iter\": {}, \"id\": {id}, \
                 \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"calls\": {}, \"busy_ns\": {}}}",
                s.iter, s.name, s.start_ns, s.end_ns, s.calls, s.busy_ns
            );
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)?;
    Ok(())
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run's per-layer metrics, reconciliation lines and spans
/// file.
fn per_layer(
    opts: &Options,
    report: &mut Report,
    setup_spans: &[Span],
    spans: &[Span],
    run_s: &BTreeMap<&'static str, Vec<(u32, f64)>>,
    traced: &Outcome,
    program: Option<&Outcome>,
) -> Result<(), BenchError> {
    let spec = &opts.spec;
    // Set-up layers: median over set-ups.
    let setup_times: Vec<_> = (0..SETUPS as u32)
        .map(|k| layer_times(setup_spans, k))
        .collect();
    for (name, span) in [
        ("traces.generate_s", "traces.generate"),
        ("availability.estimate_s", "availability.estimate"),
        ("traces.replay_s", "traces.replay"),
        ("workload.generate_s", "workload.generate"),
    ] {
        let samples: Vec<f64> = setup_times
            .iter()
            .map(|t| secs(t.get(span).map_or(0, |l| l.busy_ns)))
            .collect();
        report.push(name, median(&samples), "s", samples.len());
    }

    // The traced iteration whose run time is the (lower) median: its
    // layer self times sum to its run time exactly.
    let mut traced_runs = run_s["spans"].clone();
    traced_runs.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (iter, _) = traced_runs[(traced_runs.len() - 1) / 2];
    let n_traced = traced_runs.len();
    let t = layer_times(spans, iter);
    let busy = |name: &str| secs(t.get(name).map_or(0, |l| l.busy_ns));
    let own = |name: &str| secs(t.get(name).map_or(0, |l| l.self_ns));
    let w = &traced.work;

    let select_s = busy("dfs.select");
    let dfs_self: f64 = t
        .iter()
        .filter(|(name, _)| name.starts_with("dfs.") && **name != "dfs.select")
        .map(|(_, l)| secs(l.self_ns))
        .sum();
    let map_s = busy("sim.map") + busy("sim.jobtracker_engine");
    let run_traced = busy("bench.run");
    let plain: Vec<f64> = run_s["plain"].iter().map(|&(_, s)| s).collect();
    let traced_all: Vec<f64> = traced_runs.iter().map(|&(_, s)| s).collect();

    let policy = match spec.shape {
        Shape::MapPhase { policy } => policy,
        _ => PolicyKind::Adapt,
    };
    let kernels = kernels::measure(
        &traced.placement_input,
        policy,
        spec.sim_config()?.topology(),
        w.map_queue_depth_hwm,
        KERNEL_BUDGET,
    )?;

    let n = n_traced;
    report.push("dfs.place_s", busy("dfs.create_file"), "s", n);
    report.push("dfs.select_calls", w.select_calls as f64, "count", n);
    report.push(
        "dfs.select_ns",
        select_s * 1e9 / w.select_calls.max(1) as f64,
        "ns",
        n,
    );
    report.push("dfs.select_kernel_ns", kernels.select_ns, "ns", 5);
    report.push("dfs.namenode_self_s", dfs_self, "s", n);
    report.push("dfs.replicas", w.replicas as f64, "count", n);
    report.push("dfs.files", w.files as f64, "count", n);
    report.push("core.prepare_calls", w.prepare_calls as f64, "count", n);
    report.push("core.prepare_s", busy("core.prepare"), "s", n);
    report.push(
        "core.predict_ns_per_node",
        kernels.predict_ns_per_node,
        "ns",
        5,
    );
    report.push(
        "core.hash_build_ns_per_node",
        kernels.hash_build_ns_per_node,
        "ns",
        5,
    );
    report.push("core.lookup_ns", kernels.lookup_ns, "ns", 5);
    let events = w.map_event_total();
    report.push("sim.map_s", map_s, "s", n);
    report.push("sim.map_events", events as f64, "count", n);
    for (name, count) in [
        "sim.map_events_kick",
        "sim.map_events_down",
        "sim.map_events_up",
        "sim.map_events_attempt_done",
        "sim.map_events_requeue",
    ]
    .into_iter()
    .zip(w.map_events)
    {
        report.push(name, count as f64, "count", n);
    }
    report.push(
        "sim.map_ns_per_event",
        map_s * 1e9 / events.max(1) as f64,
        "ns",
        n,
    );
    report.push(
        "sim.map_useful_attempt_ratio",
        ratio(w.map_tasks, w.map_attempts),
        "ratio",
        n,
    );
    report.push(
        "sim.map_spec_win_ratio",
        ratio(w.map_spec_wins, w.map_spec_attempts),
        "ratio",
        n,
    );
    report.push("sim.map_steals", w.map_steals as f64, "count", n);
    report.push("sim.map_transfers", w.map_transfers as f64, "count", n);
    report.push(
        "sim.map_queue_depth_hwm",
        w.map_queue_depth_hwm as f64,
        "count",
        n,
    );
    report.push("ds.heap_push_pop_ns", kernels.heap_push_pop_ns, "ns", 5);
    report.push("sim.reducer_place_s", busy("sim.reducer_place"), "s", n);
    report.push("sim.reduce_s", busy("sim.reduce"), "s", n);
    report.push("sim.reduce_fetches", w.reduce_fetches as f64, "count", n);
    report.push(
        "sim.reduce_ns_per_fetch",
        busy("sim.reduce") * 1e9 / w.reduce_fetches.max(1) as f64,
        "ns",
        n,
    );
    report.push(
        "sim.reduce_fetch_abort_ratio",
        ratio(w.reduce_fetches_aborted, w.reduce_fetches),
        "ratio",
        n,
    );
    report.push(
        "net.cross_rack_transfers",
        w.cross_rack_transfers as f64,
        "count",
        n,
    );
    report.push(
        "net.link_streams_hwm",
        w.link_streams_hwm as f64,
        "count",
        n,
    );
    report.push(
        "net.cross_rack_bytes",
        w.cross_rack_bytes as f64,
        "bytes",
        n,
    );
    report.push("net.transfer_ns", kernels.transfer_ns, "ns", 5);
    report.push("sim.jobtracker_self_s", own("sim.jobtracker"), "s", n);
    report.push(
        "sim.jobtracker_engine_s",
        busy("sim.jobtracker_engine"),
        "s",
        n,
    );
    report.push(
        "sim.jobtracker_engine_runs",
        t.get("sim.jobtracker_engine").map_or(0, |l| l.calls) as f64,
        "count",
        n,
    );
    report.push(
        "sim.jobtracker_place_s",
        busy("sim.jobtracker_place"),
        "s",
        n,
    );
    report.push(
        "sim.jobtracker_release_s",
        busy("sim.jobtracker_release"),
        "s",
        n,
    );

    // The program's own tracer: its cost is the engine time of the
    // iterations that had it on minus that of the spans-only ones.
    let engine_s = |iter: u32| {
        let t = layer_times(spans, iter);
        ["sim.map", "sim.reduce", "sim.jobtracker_engine"]
            .iter()
            .map(|name| secs(t.get(name).map_or(0, |l| l.busy_ns)))
            .sum::<f64>()
    };
    let engine_median = |label: &str| -> (f64, usize) {
        let samples: Vec<f64> = run_s
            .get(label)
            .map(|runs| runs.iter().map(|&(i, _)| engine_s(i)).collect())
            .unwrap_or_default();
        (median(&samples), samples.len())
    };
    let pt = program
        .and_then(|o| o.program_trace.clone())
        .unwrap_or_default();
    let (record_overhead, pt_n) = match program {
        Some(_) => {
            let (with, n_with) = engine_median("spans+program-trace");
            let (without, _) = engine_median("spans");
            (with - without, n_with)
        }
        None => (0.0, 0),
    };
    report.push("trace.events", pt.events as f64, "count", pt_n);
    report.push("trace.record_overhead_s", record_overhead, "s", pt_n);
    report.push("trace.jsonl_write_s", pt.jsonl_write_s, "s", pt_n);
    report.push("trace.jsonl_bytes", pt.jsonl_bytes as f64, "bytes", pt_n);

    report.push("bench.run_s_untraced", median(&plain), "s", plain.len());
    report.push("bench.run_s_traced", median(&traced_all), "s", n);
    report.push(
        "bench.trace_overhead_s",
        median(&traced_all) - median(&plain),
        "s",
        n + plain.len(),
    );
    report.push("bench.unattributed_s", own("bench.run"), "s", n);

    // The spans of the set-ups and of the iteration the layer numbers
    // come from (a job stream records some 80 000 per iteration).
    let spans_kept = setup_spans.len() + spans.iter().filter(|s| s.iter == iter).count();
    if let Some(dir) = &opts.spans_dir {
        let path = dir.join(format!("spans-{}-{}.jsonl", spec.name, opts.seed));
        write_spans(
            &path,
            spec.name,
            &[
                ("setup", setup_spans, None),
                ("iteration", spans, Some(iter)),
            ],
        )?;
        report.lines.push(format!(
            "spans: {spans_kept} of set-up and iteration {iter} written to {}",
            path.display()
        ));
    }
    report.push("bench.spans", spans_kept as f64, "count", 1);

    reconcile(report, &t, traced, policy, &kernels, iter, run_traced);
    Ok(())
}

/// Prints, per layer, the exact work count times the kernel's cost per
/// unit against the layer's measured time, with the residual.
fn reconcile(
    report: &mut Report,
    t: &BTreeMap<&'static str, LayerTime>,
    traced: &Outcome,
    policy: PolicyKind,
    k: &Kernels,
    iter: u32,
    run_traced: f64,
) {
    let busy = |name: &str| secs(t.get(name).map_or(0, |l| l.busy_ns));
    let w = &traced.work;
    let mut line = |layer: &str, model: String, predicted: f64, measured: f64| {
        let residual = measured - predicted;
        let share = if measured > 0.0 {
            100.0 * residual / measured
        } else {
            0.0
        };
        report.lines.push(format!(
            "reconcile {layer}: {model} = {predicted:.6} s; measured {measured:.6} s; \
             residual {residual:.6} s ({share:.1}%)"
        ));
    };
    line(
        "dfs.select",
        format!(
            "{} calls x {:.1} ns (select kernel)",
            w.select_calls, k.select_ns
        ),
        w.select_calls as f64 * k.select_ns / 1e9,
        busy("dfs.select"),
    );
    if policy == PolicyKind::Adapt {
        let nodes = traced.placement_input.view.as_ref().map_or(0, |v| v.len());
        line(
            "core.prepare",
            format!(
                "{} calls x ({} nodes x {:.1} ns/node + {:.1} ns) (predictor + hash build)",
                w.prepare_calls, nodes, k.predict_ns_per_node, k.hash_build_ns
            ),
            w.prepare_calls as f64 * (nodes as f64 * k.predict_ns_per_node + k.hash_build_ns) / 1e9,
            busy("core.prepare"),
        );
    }
    let map_s = busy("sim.map") + busy("sim.jobtracker_engine");
    line(
        "sim.map (ds share)",
        format!(
            "{} events x {:.1} ns (MinHeap4 pop+push)",
            w.map_event_total(),
            k.heap_push_pop_ns
        ),
        w.map_event_total() as f64 * k.heap_push_pop_ns / 1e9,
        map_s,
    );
    line(
        "sim.map+sim.reduce (net share)",
        format!(
            "({} transfers + {} fetches) x {:.1} ns (transfer_seconds)",
            w.map_transfers, w.reduce_fetches, k.transfer_ns
        ),
        (w.map_transfers + w.reduce_fetches) as f64 * k.transfer_ns / 1e9,
        map_s + busy("sim.reduce"),
    );
    // Self time by module: the layers' self times plus the part of the
    // run no layer span covers add up to the traced run time.
    let mut by_module: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, l) in t {
        let module = name.split('.').next().unwrap_or(name);
        *by_module.entry(module).or_default() += secs(l.self_ns);
    }
    let total: f64 = by_module.values().sum();
    let parts: Vec<String> = by_module
        .iter()
        .map(|(m, s)| format!("{m} {s:.6}"))
        .collect();
    report.lines.push(format!(
        "self time by layer, iteration {iter} (s): {}; sum {total:.6} vs traced run_s {run_traced:.6}; \
         unattributed (bench) {:.6}",
        parts.join(", "),
        by_module.get("bench").copied().unwrap_or(0.0)
    ));
}
