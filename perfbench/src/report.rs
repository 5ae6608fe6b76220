//! Metric names and units, the correctness wall, the host stamp, and the
//! report formats: a human-readable block, the traced-run file, and the
//! one-line JSON result the benchmark ends with.

use crate::spans::Spans;
use crate::stats::Summary;
use ibp_sim::{Json, PredictorKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("mispredict_pct", "%"),
    ("req_p50_us", "us"),
    ("req_p99_us", "us"),
];

/// The layer prefix of a kind's per-call metrics: PPM lives in `core`,
/// the baselines in `predictors`.
pub fn kind_prefix(kind: PredictorKind) -> String {
    match kind {
        PredictorKind::PpmHyb | PredictorKind::PpmPib | PredictorKind::PpmHybBiased => {
            format!("core.{}", kind.cli_name())
        }
        _ => format!("predictors.{}", kind.cli_name()),
    }
}

/// Every per-layer metric of the traced run, `(name, unit)`, in report
/// order. A layer that is not on a workload's path reports 0 there.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("workloads.gen_ns_per_event".into(), "ns"),
        ("trace.decode_ns_per_event".into(), "ns"),
    ];
    for kind in PredictorKind::figure6() {
        let prefix = kind_prefix(kind);
        for call in ["predict", "update", "observe"] {
            out.push((format!("{prefix}.{call}_ns"), "ns"));
        }
    }
    let fixed: [(&str, &'static str); 23] = [
        ("sim.account_ns", "ns"),
        ("sim.snapshot.save_us", "us"),
        ("sim.snapshot.restore_us", "us"),
        ("sim.snapshot.bytes", "bytes"),
        ("exec.tasks", "count"),
        ("exec.busy_frac", "ratio"),
        ("exec.imbalance", "ratio"),
        ("exec.cell_p50_ms", "ms"),
        ("exec.cell_max_ms", "ms"),
        ("serve.client.send_us", "us"),
        ("serve.client.wait_us", "us"),
        ("serve.frames", "count"),
        ("serve.mux_spilled", "count"),
        ("serve.mux_restored", "count"),
        ("serve.restore_frac", "ratio"),
        ("serve.spill_bytes", "bytes"),
        ("serve.restore_bytes", "bytes"),
        ("serve.spill_failures", "count"),
        ("serve.mux_backpressure", "count"),
        ("serve.peak_resident_bytes", "bytes"),
        ("bench.clock_ns", "ns"),
        ("bench.trace_overhead_pct", "%"),
        ("bench.self_time_coverage", "ratio"),
    ];
    out.extend(fixed.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Bounds of the self-time check: over a workload's traced loops, the
/// sampled sites' estimated time plus the clock reads, as a share of the
/// loops' wall time. A sampled call is a latency: its event loses the
/// overlap with its neighbours that untimed events have, so the sum
/// over-counts, by 16–40% on the reference host (`README.md`). Below the
/// floor, loop time goes unattributed; above the ceiling, the sample is
/// mis-scaled or counted twice.
pub const SELF_TIME_BOUNDS: (f64, f64) = (0.9, 1.75);

/// The correctness wall's ledger: operations attempted, failures, and a
/// description of each failure.
#[derive(Debug, Default, Clone)]
pub struct Wall {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed or mismatched their reference.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub notes: Vec<String>,
}

impl Wall {
    /// Counts one operation; records a failure with `what` when `ok` is
    /// false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 32 {
                self.notes.push(what());
            }
        }
    }

    /// Records a failure of the run as a whole (e.g. a pinned value).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.notes.push(what);
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: String,
    /// Value (median or named percentile), quartiles and sample count.
    pub summary: Summary,
}

/// Per-layer values a workload measured, keyed by catalog name.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    values: BTreeMap<String, Summary>,
}

impl Layers {
    /// Sets a metric from a single value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), Summary::single(value));
    }

    /// Sets a metric from a distribution's median.
    pub fn set_summary(&mut self, name: &str, summary: Option<Summary>) {
        if let Some(s) = summary {
            self.values.insert(name.to_string(), s);
        }
    }

    /// Every catalog metric, zero where this workload recorded nothing.
    /// Names outside the catalog are a programming error.
    pub fn into_metrics(self) -> Vec<Metric> {
        let catalog = per_layer_catalog();
        for name in self.values.keys() {
            assert!(
                catalog.iter().any(|(n, _)| n == name),
                "per-layer metric {name} is not in the catalog"
            );
        }
        catalog
            .into_iter()
            .map(|(name, unit)| Metric {
                summary: self
                    .values
                    .get(&name)
                    .copied()
                    .unwrap_or_else(|| Summary::single(0.0)),
                name,
                unit: unit.to_string(),
            })
            .collect()
    }
}

/// The end-to-end metrics in declaration order; panics if one is missing
/// (every workload must measure all of them).
pub fn end_to_end(values: &BTreeMap<&'static str, Summary>) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            summary: *values
                .get(name)
                .unwrap_or_else(|| panic!("workload did not measure {name}")),
        })
        .collect()
}

/// Where and on what a report was produced.
#[derive(Debug, Clone)]
pub struct Stamp {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Worker threads available (`ibp_exec::thread_count`).
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// Cargo build profile.
    pub profile: String,
}

impl Stamp {
    /// Collects the stamp for a run of `workload` with `seed`.
    pub fn collect(workload: &str, seed: u64) -> Stamp {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        Stamp {
            workload: workload.to_string(),
            seed,
            nproc: ibp_exec::thread_count(),
            cpu,
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            commit,
            profile: env!("PERFBENCH_PROFILE").to_string(),
        }
    }

    fn json(&self) -> Json {
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::UInt(self.seed)),
            ("nproc", Json::UInt(self.nproc as u64)),
            ("cpu", Json::Str(self.cpu.clone())),
            ("rustc", Json::Str(self.rustc.clone())),
            ("commit", Json::Str(self.commit.clone())),
            ("profile", Json::Str(self.profile.clone())),
        ])
    }
}

/// A finished workload run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The correctness wall's ledger.
    pub wall: Wall,
    /// The traced run's spans, when tracing was on.
    pub spans: Option<Spans>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

/// The human-readable report: stamp, every metric as value, quartiles
/// and sample count, and the wall's verdict.
pub fn render_text(stamp: &Stamp, outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "perfbench {} seed={} nproc={} cpu=\"{}\" rustc=\"{}\" commit={} profile={}",
        stamp.workload,
        stamp.seed,
        stamp.nproc,
        stamp.cpu,
        stamp.rustc,
        stamp.commit,
        stamp.profile
    );
    for note in &outcome.notes {
        let _ = writeln!(out, "  {note}");
    }
    for m in &outcome.metrics {
        let s = m.summary;
        let _ = writeln!(
            out,
            "  {:<36} {:>16.6} {:<6} q1 {:.6} q3 {:.6} n {}",
            m.name, s.value, m.unit, s.q1, s.q3, s.n
        );
    }
    let w = &outcome.wall;
    let frac = if w.attempted == 0 {
        0.0
    } else {
        w.failed as f64 / w.attempted as f64
    };
    let _ = writeln!(
        out,
        "  correctness: {} of {} operations failed (failed_frac {frac})",
        w.failed, w.attempted
    );
    for note in &w.notes {
        let _ = writeln!(out, "  MISMATCH {note}");
    }
    out
}

/// The one-line JSON result: `correct`, `attempted`, `failed` and each
/// metric's value with its unit.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics = Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([
                        ("value", Json::Num(m.summary.value)),
                        ("unit", Json::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect(),
    );
    Json::obj([
        ("correct", Json::Bool(outcome.wall.failed == 0)),
        ("attempted", Json::UInt(outcome.wall.attempted.max(1))),
        ("failed", Json::UInt(outcome.wall.failed)),
        ("metrics", metrics),
    ])
    .emit()
}

/// At most this many individual spans are written to the traced-run
/// file (all of them feed the metrics); the rest are counted.
const SPANS_WRITTEN: usize = 20_000;

/// The traced-run file: stamp, metrics with quartiles, spans, sampled
/// call aggregates, and each name's summed self time (a sampled call's
/// is its estimate).
pub fn trace_json(stamp: &Stamp, outcome: &Outcome) -> String {
    let metrics = Json::Arr(
        outcome
            .metrics
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::Str(m.name.clone())),
                    ("unit", Json::Str(m.unit.clone())),
                    ("value", Json::Num(m.summary.value)),
                    ("q1", Json::Num(m.summary.q1)),
                    ("q3", Json::Num(m.summary.q3)),
                    ("n", Json::UInt(m.summary.n as u64)),
                ])
            })
            .collect(),
    );
    let mut fields = vec![
        ("stamp", stamp.json()),
        ("metrics", metrics),
        (
            "notes",
            Json::Arr(outcome.notes.iter().map(|n| Json::Str(n.clone())).collect()),
        ),
    ];
    if let Some(spans) = &outcome.spans {
        let mut self_by_name: BTreeMap<&str, f64> = BTreeMap::new();
        for (s, self_ns) in spans.spans.iter().zip(spans.self_ns(1)) {
            *self_by_name.entry(&s.name).or_default() += self_ns.max(0.0);
        }
        for s in &spans.sampled {
            *self_by_name.entry(&s.name).or_default() += s.estimate_ns();
        }
        fields.push((
            "spans",
            Json::Arr(
                spans
                    .spans
                    .iter()
                    .take(SPANS_WRITTEN)
                    .map(|s| {
                        Json::obj([
                            ("name", Json::Str(s.name.clone())),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                            ),
                            ("start_ns", Json::UInt(s.start_ns)),
                            ("end_ns", Json::UInt(s.end_ns)),
                            ("thread", Json::UInt(s.thread as u64)),
                        ])
                    })
                    .collect(),
            ),
        ));
        fields.push((
            "spans_not_written",
            Json::UInt(spans.spans.len().saturating_sub(SPANS_WRITTEN) as u64),
        ));
        fields.push((
            "sampled",
            Json::Arr(
                spans
                    .sampled
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("name", Json::Str(s.name.clone())),
                            ("parent", Json::UInt(s.parent as u64)),
                            ("timed", Json::UInt(s.timed)),
                            ("population", Json::UInt(s.population)),
                            ("mean_ns", Json::Num(s.mean_ns())),
                            ("estimate_ns", Json::Num(s.estimate_ns())),
                        ])
                    })
                    .collect(),
            ),
        ));
        fields.push((
            "self_ns_by_name",
            Json::Obj(
                self_by_name
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(v)))
                    .collect(),
            ),
        ));
    }
    Json::obj(fields).emit()
}

/// The per-layer metrics every traced run reports: the clock's cost,
/// the tracing overhead, and the self-time check over `loops`, the
/// `(covered, wall)` nanoseconds of every traced loop span. A miss of the
/// check fails the run: the per-layer figures would not add up.
pub fn finish_layers(
    layers: &mut Layers,
    clock: f64,
    untraced_eps: &[f64],
    traced_eps: &[f64],
    loops: &[(f64, f64)],
    notes: &mut Vec<String>,
    wall: &mut Wall,
) {
    layers.set("bench.clock_ns", clock);
    let untraced = Summary::of(untraced_eps).map_or(0.0, |s| s.value);
    let traced = Summary::of(traced_eps).map_or(0.0, |s| s.value);
    let overhead = crate::overhead_pct(untraced, traced);
    layers.set("bench.trace_overhead_pct", overhead);
    notes.push(format!(
        "tracing: untraced {untraced:.0} events/s, traced {traced:.0} events/s ({overhead:.2}% overhead)"
    ));
    let (covered, spent) = loops
        .iter()
        .fold((0.0, 0.0), |(c, w), &(lc, lw)| (c + lc, w + lw));
    let coverage = if spent > 0.0 { covered / spent } else { 0.0 };
    layers.set("bench.self_time_coverage", coverage);
    let ratios: Vec<f64> = loops
        .iter()
        .filter(|&&(_, w)| w > 0.0)
        .map(|&(c, w)| c / w)
        .collect();
    let (floor, ceiling) = SELF_TIME_BOUNDS;
    let ok = (floor..=ceiling).contains(&coverage);
    let bounds = format!("{:.0}%..{:.0}%", floor * 100.0, ceiling * 100.0);
    notes.push(format!(
        "self-time check: sampled sites plus clock reads come to {:.1}% of {} traced loops' wall time \
         (per loop {:.1}%..{:.1}%): {} (bounds {bounds})",
        coverage * 100.0,
        ratios.len(),
        ratios.iter().copied().fold(f64::INFINITY, f64::min) * 100.0,
        ratios.iter().copied().fold(0.0, f64::max) * 100.0,
        if ok { "PASS" } else { "FAIL" },
    ));
    wall.check(ok, || {
        format!(
            "self-time check: the sampled layers come to {:.1}% of the traced loops' wall time, outside {bounds}",
            coverage * 100.0,
        )
    });
}
