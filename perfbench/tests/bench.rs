//! The benchmark's own tests: a quick mode of every workload emits every
//! declared metric with its unit and passes its correctness wall, a
//! corrupted reference trips the wall, and the benchmark's code passes
//! the repository's static analysis.

use ibp_perfbench::report::{finish_layers, per_layer_catalog, Layers, Wall, END_TO_END};
use ibp_perfbench::{run, Config, WORKLOADS};
use ibp_sim::Json;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};

/// Tests that run workloads take this lock: the traced runs time their
/// loops, and other tests' threads on the same cores would show up as
/// loop time no layer accounts for.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

fn quick(seed: u64, trace: bool, corrupt_reference: bool) -> Config {
    Config {
        seed,
        seconds: 0.2,
        trace,
        quick: true,
        corrupt_reference,
    }
}

fn manifest() -> Json {
    Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    manifest()
        .get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn manifest_declares_what_the_code_reports() {
    let names: Vec<String> = manifest()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(names, WORKLOADS);
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer_catalog()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared("per_layer"), layers);
}

#[test]
fn quick_runs_report_every_metric_and_pass_the_wall() {
    let _lock = exclusive();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let outcome = run(workload, &quick(0, trace, false)).expect("known workload");
            let section = if trace { "per_layer" } else { "end_to_end" };
            let got: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect();
            assert_eq!(got, declared(section), "{workload} trace={trace}");
            for m in &outcome.metrics {
                assert!(m.summary.value.is_finite(), "{workload} {}", m.name);
                if !trace {
                    assert!(
                        m.summary.value > 0.0,
                        "{workload} {} is not positive",
                        m.name
                    );
                }
            }
            assert!(outcome.wall.attempted > 0, "{workload} checked nothing");
            assert_eq!(
                outcome.wall.failed, 0,
                "{workload}: {:?}",
                outcome.wall.notes
            );
            assert_eq!(outcome.spans.is_some(), trace);
        }
    }
}

#[test]
fn a_corrupted_reference_trips_the_wall() {
    // The mismatch each workload must report for its corrupted reference.
    let expected = [
        ("fig6_grid", "differs from dyn-dispatch simulate"),
        (
            "serve_mux",
            "close receipt differs from offline simulate_events",
        ),
    ];
    assert_eq!(expected.map(|(w, _)| w), WORKLOADS);
    let _lock = exclusive();
    for (workload, mismatch) in expected {
        let outcome = run(workload, &quick(1, false, true)).expect("known workload");
        assert!(
            outcome.wall.failed > 0,
            "{workload}: corruption went unnoticed"
        );
        assert!(
            outcome.wall.notes.iter().all(|n| n.contains(mismatch)),
            "{workload}: expected only '{mismatch}' mismatches, got {:?}",
            outcome.wall.notes
        );
        let line = ibp_perfbench::report::result_line(&outcome);
        assert!(line.starts_with("{\"correct\":false,"), "{line}");
    }
}

#[test]
fn the_self_time_check_fails_when_the_layers_do_not_add_up() {
    // (covered, wall) nanoseconds of the traced loops.
    for (loops, failed) in [
        (vec![(1.2e9, 1e9), (1.3e9, 1e9)], 0),
        (vec![(0.5e9, 1e9)], 1),
        (vec![(1.2e9, 1e9), (4e9, 1e9)], 1),
        (vec![], 1),
    ] {
        let (mut layers, mut notes, mut wall) = (Layers::default(), Vec::new(), Wall::default());
        finish_layers(
            &mut layers,
            40.0,
            &[1e6],
            &[9e5],
            &loops,
            &mut notes,
            &mut wall,
        );
        assert_eq!(wall.failed, failed, "{loops:?}: {notes:?}");
        assert_eq!(wall.attempted, 1);
    }
}

#[test]
fn unknown_workloads_are_refused() {
    assert!(run("nope", &quick(0, false, false)).is_none());
}

#[test]
fn benchmark_code_passes_static_analysis() {
    let _lock = exclusive();
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let analysis = ibp_analyze::analyze_workspace(&root).expect("the repository analyzes");
    let ours: Vec<String> = analysis
        .open
        .iter()
        .filter(|d| d.path.starts_with("perfbench/"))
        .map(|d| format!("{}:{} {:?}", d.path, d.line, d.rule))
        .collect();
    assert!(ours.is_empty(), "ibp-analyze findings: {ours:#?}");
}
