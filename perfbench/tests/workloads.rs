//! The benchmark's own checks, on every workload shrunk to a size that
//! runs in a second: outputs pass every check, the seed reaches the
//! inputs, and each kind of run reports every metric `BENCHMARK.json`
//! names.

use adapt_perfbench::session::{run_session, Options, Report};
use adapt_perfbench::workload::{Spec, WORKLOADS};
use adapt_telemetry::Value;
use adapt_trace::parse_value;

fn run(spec: Spec, seed: u64, trace: bool) -> Report {
    let opts = Options {
        spec,
        seed,
        seconds: 0.0,
        trace,
        spans_dir: None,
    };
    run_session(&opts).unwrap_or_else(|e| panic!("{}: {e}", spec.name))
}

fn shrunk() -> impl Iterator<Item = Spec> {
    WORKLOADS.iter().map(|w| w.shrunk(32))
}

/// Metric names listed under `key` in the repository's `BENCHMARK.json`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = parse_value(&text).expect("BENCHMARK.json parses");
    let Some(Value::Array(metrics)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    metrics
        .iter()
        .map(|m| match m.get("name") {
            Some(Value::Str(name)) => name.clone(),
            other => panic!("metric without a name: {other:?}"),
        })
        .collect()
}

#[test]
fn every_workload_passes_its_checks_when_shrunk() {
    for spec in shrunk() {
        let report = run(spec, 2012, false);
        assert!(report.correct(), "{}: {:#?}", spec.name, report.lines);
        assert_eq!(report.failed, 0, "{}", spec.name);
        assert!(
            report.attempted >= 4,
            "{}: three set-ups and an iteration",
            spec.name
        );
    }
}

#[test]
fn one_seed_repeats_exactly_and_another_seed_changes_the_result() {
    for spec in shrunk() {
        let a = run(spec, 7, false).reference;
        let b = run(spec, 7, false).reference;
        let c = run(spec, 8, false).reference;
        assert!(
            a.same_result(&b),
            "{}: same seed, different result",
            spec.name
        );
        assert!(
            !a.same_result(&c),
            "{}: seeds 7 and 8 gave identical results, so the seed misses the inputs",
            spec.name
        );
    }
}

#[test]
fn runs_report_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for spec in shrunk() {
        for (trace, names) in [(false, &end_to_end), (true, &per_layer)] {
            let report = run(spec, 2012, trace);
            assert!(report.correct(), "{}: {:#?}", spec.name, report.lines);
            let reported: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            for name in names {
                assert!(
                    reported.contains(&name.as_str()),
                    "{} (trace {trace}) lacks {name}",
                    spec.name
                );
            }
            let json = report.json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
    }
}
