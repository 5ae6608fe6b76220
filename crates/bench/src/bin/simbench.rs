//! simbench — the phase-sampling (SimPoint) proof bench: weighted
//! estimates versus full runs, as a differential gate and as a speedup
//! measurement.
//!
//! Two modes:
//!
//! * `--validate [--out PATH]` — the **error gate**. Every suite run at
//!   full trace scale, PPM-hyb at the 2K-entry budget: full simulation
//!   versus the phase-sampled weighted estimate under the default
//!   [`SimPointConfig`]. Reports per-run absolute error and the worst
//!   case, and fails (exit 1) if any run misses the ≤ 0.5 pp gate. The
//!   report contains no timings — it is byte-deterministic for any pool
//!   size, so CI can diff it against the committed
//!   `results/simpoint_validation.txt`.
//!
//! * default — the **speedup bench** on a streamed workload (the gs.tig
//!   program model run for 100M+ events; `--events N` sizes it,
//!   `--quick` is the small CI preset). Every figure-6 predictor is
//!   simulated twice: the full stream, serially (the pre-sampling
//!   pipeline), and phase-sampled — one shared signature/checkpoint prep
//!   pass, then only each predictor's representative windows. The bench
//!   defaults to the **chained** warmup policy (one predictor per kind
//!   carried through the sampling units in time order, a short re-sync
//!   warmup before each measured window); `--cold` switches to the
//!   per-window cold-start policy (fresh predictor + long warmup per
//!   unit, fanned out on the pool). Chained is the default because on
//!   10⁸–10⁹ event streams the saturating predictors (cascade, PPM)
//!   drift past what any fixed cold-start warmup can reproduce, and
//!   because its short warmups keep the sampled fraction — and thus the
//!   speedup — high. Reports per-kind ratios, errors and times, and the
//!   headline `full seconds / (prep + sampled) seconds` speedup. JSON
//!   lands in `$IBP_BENCH_DIR/BENCH_simpoint.json`.
//!
//! `--check PATH` validates an emitted report: schema, every per-kind
//! error within the 0.5 pp gate, and — for full-size (≥ 100M event)
//! reports — the ≥ 10× speedup claim. `--simpoint <spec>` overrides the
//! sampling config in either mode (without it, `--validate` uses
//! [`SimPointConfig::default`] and the bench uses a leaner
//! chained-warmup preset).

use ibp_sim::{
    simpoint_streamed_chained, simpoint_streamed_prepped, simpoint_trace, stream_prep, Executor,
    Json, PredictorKind, SimPointConfig,
};
use ibp_workloads::paper_suite;
use std::fmt::Write as _;
use std::time::Instant;

/// Event floor above which a report must also prove the ≥ 10× speedup
/// claim (smaller runs gate only schema + error: prep cost is amortized
/// over too few windows to say anything about speed).
const FULL_SIZE_EVENTS: u64 = 100_000_000;
const ERROR_GATE_PP: f64 = 0.5;
const SPEEDUP_GATE: f64 = 10.0;

struct Args {
    events: u64,
    cfg: Option<SimPointConfig>,
    validate: bool,
    chained: bool,
    out: Option<String>,
}

impl Args {
    /// The sampling config: an explicit `--simpoint` wins; otherwise the
    /// cold-start paths take [`SimPointConfig::default`] (whose long
    /// warmup exists to rebuild predictor state from scratch), while the
    /// chained bench takes its own preset — warmup only repairs recency
    /// on top of carried state, so 16 windows suffice, and the freed
    /// budget buys more strata (more, better-spread sampling units)
    /// while the sampled fraction stays far below what the ≥ 10×
    /// speedup claim needs.
    fn config(&self) -> SimPointConfig {
        self.cfg.unwrap_or_else(|| {
            if self.validate || !self.chained {
                SimPointConfig::default()
            } else {
                SimPointConfig {
                    warmup_windows: 16,
                    strata: 16,
                    ..SimPointConfig::default()
                }
            }
        })
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        events: FULL_SIZE_EVENTS,
        cfg: None,
        validate: false,
        chained: true,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| ibp_bench::usage_error(&format!("{what} needs a value")))
        };
        match a.as_str() {
            "--events" => {
                args.events = value("--events")
                    .parse()
                    .unwrap_or_else(|_| ibp_bench::usage_error("--events wants a number"));
            }
            "--quick" => args.events = 2_000_000,
            "--validate" => args.validate = true,
            "--cold" => args.chained = false,
            "--out" => args.out = Some(value("--out")),
            "--simpoint" => {
                args.cfg =
                    Some(SimPointConfig::parse_flag(&value("--simpoint")).unwrap_or_else(|e| {
                        ibp_bench::usage_error(&format!("--simpoint: {e}"))
                    }));
            }
            "--check" => {
                let path = value("--check");
                if let Err(msg) = check(&path) {
                    ibp_bench::fail(&msg);
                }
                std::process::exit(0);
            }
            other => {
                ibp_bench::usage_error(&format!("unknown flag {other}"));
            }
        }
    }
    args.events = args.events.clamp(10_000, 10_000_000_000);
    args
}

/// The error-gate differential: full vs weighted PPM-hyb over every
/// suite run at full trace scale. Timing-free and deterministic.
fn validate(args: &Args) -> i32 {
    let exec = Executor::from_env();
    let cfg = &args.config();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "simpoint validation: PPM-hyb @ 2048 entries, full trace scale, cfg {}",
        cfg.flag_string()
    );
    let _ = writeln!(
        out,
        "{:<12} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "run", "full", "est", "|err|pp", "windows", "sampled%"
    );
    let mut worst = 0.0f64;
    let mut worst_run = String::new();
    for run in paper_suite() {
        let trace = run.generate();
        let full = PredictorKind::PpmHyb.simulate_trace(&trace);
        let sampled = simpoint_trace(PredictorKind::PpmHyb, 2048, &trace, cfg, &exec);
        let err = (sampled.estimate.misprediction_ratio() - full.misprediction_ratio()).abs()
            * 100.0;
        if err > worst {
            worst = err;
            worst_run = run.label();
        }
        let _ = writeln!(
            out,
            "{:<12} {:>8.3}% {:>8.3}% {:>9.3} {:>9} {:>9.1}%",
            run.label(),
            full.misprediction_ratio() * 100.0,
            sampled.estimate.misprediction_ratio() * 100.0,
            err,
            sampled.phases.windows(),
            sampled.sampled_fraction() * 100.0,
        );
    }
    let pass = worst <= ERROR_GATE_PP;
    let _ = writeln!(out, "worst |err|: {worst:.3}pp ({worst_run})");
    let _ = writeln!(
        out,
        "gate: |err| <= {ERROR_GATE_PP:.3}pp on all 15 runs: {}",
        if pass { "PASS" } else { "FAIL" }
    );
    print!("{out}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, &out) {
            eprintln!("cannot write {path}: {e}");
            return 1;
        }
    }
    i32::from(!pass)
}

struct KindRow {
    label: String,
    full_ratio: f64,
    est_ratio: f64,
    full_seconds: f64,
    sampled_seconds: f64,
    events_simulated: u64,
}

impl KindRow {
    fn error_pp(&self) -> f64 {
        (self.full_ratio - self.est_ratio).abs() * 100.0
    }
}

/// The speedup bench: the gs.tig program model streamed for ~`events`
/// events, every figure-6 kind simulated full (serially — the
/// pre-sampling pipeline) and phase-sampled (shared prep, parallel
/// representative windows).
fn bench(args: &Args) -> i32 {
    let exec = Executor::from_env();
    let cfg = &args.config();
    let mode = if args.chained { "chained" } else { "cold" };
    let run = paper_suite()
        .into_iter()
        .find(|r| r.label() == "gs.tig")
        .unwrap_or_else(|| ibp_bench::fail("paper suite lost its gs.tig run"));
    let stream = run.stream();
    // Size the iteration count from one generated iteration.
    let per_iter = {
        let mut probe = stream.clone();
        probe.step(|_| {}).max(1)
    };
    let iterations = args.events.div_ceil(per_iter);
    let kinds = PredictorKind::figure6();

    println!(
        "simbench: gs.tig stream, ~{} events ({iterations} iterations), cfg {}, {mode} warmup",
        args.events,
        cfg.flag_string()
    );

    // Shared pass 1: signatures + generator checkpoints + clustering.
    let t0 = Instant::now();
    let prep = stream_prep(&stream, iterations, cfg);
    let prep_seconds = t0.elapsed().as_secs_f64();
    let total_events = prep.phases().total_events;
    println!(
        "prep: {} events -> {} windows, {} sampling units ({prep_seconds:.2}s)",
        total_events,
        prep.phases().windows(),
        prep.phases().clusters.len(),
    );

    let mut rows = Vec::new();
    for kind in kinds {
        let t0 = Instant::now();
        let full = kind.simulate_events(2048, stream.clone().events(iterations));
        let full_seconds = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let sampled = if args.chained {
            simpoint_streamed_chained(kind, 2048, &prep, cfg)
        } else {
            simpoint_streamed_prepped(kind, 2048, &prep, cfg, &exec)
        };
        let sampled_seconds = t0.elapsed().as_secs_f64();
        let row = KindRow {
            label: kind.label(),
            full_ratio: full.misprediction_ratio(),
            est_ratio: sampled.estimate.misprediction_ratio(),
            full_seconds,
            sampled_seconds,
            events_simulated: sampled.events_simulated,
        };
        println!(
            "{:<14} full {:>6.3}% ({:>7.2}s) | est {:>6.3}% ({:>6.2}s, {:>5.2}% of stream) | err {:.3}pp",
            row.label,
            row.full_ratio * 100.0,
            row.full_seconds,
            row.est_ratio * 100.0,
            row.sampled_seconds,
            100.0 * row.events_simulated as f64 / total_events.max(1) as f64,
            row.error_pp(),
        );
        rows.push(row);
    }

    let full_total: f64 = rows.iter().map(|r| r.full_seconds).sum();
    let sampled_total: f64 = prep_seconds + rows.iter().map(|r| r.sampled_seconds).sum::<f64>();
    let speedup = full_total / sampled_total.max(1e-9);
    let worst = rows.iter().map(KindRow::error_pp).fold(0.0f64, f64::max);
    println!(
        "lineup: full {full_total:.2}s vs prep {prep_seconds:.2}s + sampled {:.2}s -> {speedup:.1}x speedup, worst err {worst:.3}pp",
        sampled_total - prep_seconds,
    );

    let json = Json::obj([
        ("bench", Json::Str("simpoint".to_string())),
        ("config", Json::Str(cfg.flag_string())),
        ("mode", Json::Str(mode.to_string())),
        ("workload", Json::Str(run.label())),
        ("entries", Json::UInt(2048)),
        ("iterations", Json::UInt(iterations)),
        ("events", Json::UInt(total_events)),
        ("windows", Json::UInt(prep.phases().windows() as u64)),
        ("clusters", Json::UInt(prep.phases().clusters.len() as u64)),
        ("prep_seconds", Json::Num(prep_seconds)),
        (
            "kinds",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("kind", Json::Str(r.label.clone())),
                            ("full_ratio", Json::Num(r.full_ratio)),
                            ("est_ratio", Json::Num(r.est_ratio)),
                            ("error_pp", Json::Num(r.error_pp())),
                            ("full_seconds", Json::Num(r.full_seconds)),
                            ("sampled_seconds", Json::Num(r.sampled_seconds)),
                            ("events_simulated", Json::UInt(r.events_simulated)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "summary",
            Json::obj([
                ("full_seconds", Json::Num(full_total)),
                ("sampled_seconds", Json::Num(sampled_total)),
                ("speedup", Json::Num(speedup)),
                ("worst_error_pp", Json::Num(worst)),
            ]),
        ),
    ]);
    let rendered = json.emit();
    println!("{rendered}");
    if let Ok(dir) = std::env::var("IBP_BENCH_DIR") {
        let _ = std::fs::create_dir_all(&dir);
        let path = std::path::Path::new(&dir).join("BENCH_simpoint.json");
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    0
}

/// Validates an emitted `BENCH_simpoint.json`: parses, checks the bench
/// name and shape, holds the ≤ 0.5 pp error gate on every kind, and —
/// when the run is full-size — the ≥ 10× speedup headline.
fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value = Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e:?}"))?;
    if value.get("bench").and_then(Json::as_str) != Some("simpoint") {
        return Err(format!("{path}: `bench` field is not \"simpoint\""));
    }
    match value.get("mode").and_then(Json::as_str) {
        Some("chained" | "cold") => {}
        _ => return Err(format!("{path}: `mode` is not \"chained\" or \"cold\"")),
    }
    let events = value
        .get("events")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("{path}: missing `events`"))?;
    for field in ["windows", "clusters", "iterations"] {
        match value.get(field).and_then(Json::as_u64) {
            Some(n) if n > 0 => {}
            _ => return Err(format!("{path}: `{field}` is missing or zero")),
        }
    }
    let kinds = value
        .get("kinds")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: missing `kinds` array"))?;
    if kinds.is_empty() {
        return Err(format!("{path}: `kinds` is empty"));
    }
    for row in kinds {
        let label = row
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: row without `kind`"))?;
        for field in ["full_ratio", "est_ratio"] {
            match row.get(field).and_then(Json::as_f64) {
                Some(x) if (0.0..=1.0).contains(&x) => {}
                _ => return Err(format!("{path}: {label}.{field} is not a ratio")),
            }
        }
        for field in ["full_seconds", "sampled_seconds"] {
            match row.get(field).and_then(Json::as_f64) {
                Some(x) if x > 0.0 && x.is_finite() => {}
                _ => return Err(format!("{path}: {label}.{field} is not positive")),
            }
        }
        match row.get("error_pp").and_then(Json::as_f64) {
            Some(e) if e <= ERROR_GATE_PP => {}
            Some(e) => {
                return Err(format!(
                    "{path}: {label} misses the error gate ({e:.3}pp > {ERROR_GATE_PP}pp)"
                ))
            }
            None => return Err(format!("{path}: {label} missing `error_pp`")),
        }
    }
    let speedup = value
        .get("summary")
        .and_then(|s| s.get("speedup"))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{path}: missing `summary.speedup`"))?;
    if !speedup.is_finite() || speedup <= 0.0 {
        return Err(format!("{path}: speedup {speedup} is not positive"));
    }
    if events >= FULL_SIZE_EVENTS && speedup < SPEEDUP_GATE {
        return Err(format!(
            "{path}: full-size run ({events} events) only reaches {speedup:.1}x \
             (gate {SPEEDUP_GATE}x)"
        ));
    }
    println!(
        "{path}: OK ({} kinds, {events} events, {speedup:.1}x speedup)",
        kinds.len()
    );
    Ok(())
}

fn main() {
    let args = parse_args();
    let code = if args.validate {
        validate(&args)
    } else {
        bench(&args)
    };
    std::process::exit(code);
}
