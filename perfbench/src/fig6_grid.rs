//! `fig6_grid`: the paper's Figure 6 grid — 15 runs × the 7 Figure 6
//! kinds at 2K entries, on materialized full-scale traces — evaluated
//! again and again on an `ibp-exec` pool of `nproc` workers.
//!
//! Set-up is trace generation (on the pool). Throughput is measured per
//! grid; a request is one cell (one run × kind simulation as the pool
//! runs it), whose latency is the `req_*` metrics. The reference is the
//! same grid through `ibp_sim::simulate` with dyn dispatch.

use crate::report::{self, kind_prefix, Layers, Outcome, Wall};
use crate::spans::{timed, CallNames, LoopCalls, Sampler, Spans, Timed};
use crate::stats::Summary;
use crate::{mean_ratio_pct, peak_rss_mib, repeat_for, repeat_timed, seeded_suite, Config};
use ibp_exec::Executor;
use ibp_sim::{simulate, PredictorKind, RunResult};
use std::collections::BTreeMap;
use std::time::Instant;

/// Trace scale of the grid (1.0 = the figure's full traces).
const SCALE: f64 = 1.0;
const QUICK_SCALE: f64 = 0.01;
/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 15;
/// Fingerprint of the seed-0 grid's (predictions, mispredictions) per
/// cell in grid order — the paper suite's own Figure 6 counts.
const PIN_SEED0: u64 = 0x4e1e_c560_f104_48ed;
/// Mean misprediction of the seed-0 grid over all 105 cells, in percent.
const PIN_SEED0_MEAN_PCT: f64 = 19.193_526_746_240_188;

/// One traced cell: its span (build plus run), holding the run's own
/// span and its sampled calls.
type TracedCell = Timed<(Timed<RunResult>, LoopCalls)>;

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let specs = seeded_suite(cfg.seed);
    let kinds = PredictorKind::figure6();
    let k = kinds.len();
    let exec = Executor::new(ibp_exec::thread_count());
    let scale = if cfg.quick { QUICK_SCALE } else { SCALE };
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch);

    // Set-up: generate the fifteen traces on the pool.
    // Each generation's interval and event count, over every repetition.
    let mut gen_spans: Vec<Timed<usize>> = Vec::new();
    let (setup_times, traces) = repeat_timed(if cfg.quick { 2 } else { SETUP_REPS }, || {
        let generated = exec.map(&specs, |_, spec| timed(|| spec.generate_scaled(scale)));
        let mut traces = Vec::with_capacity(generated.len());
        for g in generated {
            gen_spans.push(Timed {
                value: g.value.len(),
                start: g.start,
                end: g.end,
                thread: g.thread,
            });
            traces.push(g.value);
        }
        traces
    });
    let events: u64 = traces.iter().map(|t| t.len() as u64).sum::<u64>() * k as u64;
    let cells = traces.len() * k;
    let grid = || {
        exec.run(cells, |i| {
            let start = Instant::now();
            let result = kinds[i % k].simulate_trace(&traces[i / k]);
            (result, start.elapsed().as_secs_f64())
        })
    };

    let mut wall = Wall::default();
    let mut notes = vec![format!(
        "{} runs x {} kinds at scale {scale}, {} events per grid, {} workers",
        traces.len(),
        k,
        events,
        exec.threads()
    )];

    // Untraced measured phase (the whole run, or its first half).
    let budget = if cfg.trace {
        cfg.duration() / 2
    } else {
        cfg.duration()
    };
    let _warm = grid();
    let measured = repeat_for(budget, 3, grid);
    let rss = peak_rss_mib();
    let eps: Vec<f64> = measured.iter().map(|(_, s)| events as f64 / s).collect();

    // Traced phase: the same grid, each cell through the simulator's loop
    // with its calls sampled.
    let mut traced_grids: Vec<Timed<Vec<TracedCell>>> = Vec::new();
    if cfg.trace {
        for g in &gen_spans {
            spans.push_timed("workloads.gen", None, g);
        }
        let runs = repeat_for(cfg.duration() / 2, 2, || {
            timed(|| {
                exec.run(cells, |i| {
                    timed(|| {
                        let mut predictor = kinds[i % k].build();
                        let sampler = Sampler::default();
                        let run =
                            timed(|| sampler.run(&mut *predictor, traces[i / k].iter().copied()));
                        (run, sampler.calls())
                    })
                })
            })
        });
        traced_grids = runs.into_iter().map(|(g, _)| g).collect();
    }

    // Reference: dyn-dispatch `simulate` over the same traces.
    let mut reference: Vec<RunResult> = exec.run(cells, |i| {
        simulate(&mut *kinds[i % k].build(), &traces[i / k])
    });
    if cfg.corrupt_reference {
        reference[0] = crate::perturbed(&reference[0]);
    }
    let label = |i: usize| format!("{} / {}", specs[i / k].label(), kinds[i % k].label());
    for (results, _) in &measured {
        for (i, (r, _)) in results.iter().enumerate() {
            wall.check(*r == reference[i], || {
                format!("grid cell {} differs from dyn-dispatch simulate", label(i))
            });
        }
    }
    for grid in &traced_grids {
        for (i, cell) in grid.value.iter().enumerate() {
            wall.check(cell.value.0.value == reference[i], || {
                format!("traced cell {} differs from the untraced run", label(i))
            });
        }
    }
    let mean_pct = mean_ratio_pct(measured[0].0.iter().map(|(r, _)| r.misprediction_ratio()));
    let fingerprint = crate::fnv1a(
        reference
            .iter()
            .flat_map(|r| [r.predictions(), r.mispredictions()]),
    );
    notes.push(format!(
        "grid fingerprint {fingerprint:#018x}, mean misprediction {mean_pct:.4}%"
    ));
    if cfg.seed == 0
        && !cfg.quick
        && (fingerprint != PIN_SEED0 || (mean_pct - PIN_SEED0_MEAN_PCT).abs() > 1e-9)
    {
        wall.fail(format!(
            "seed-0 grid fingerprint {fingerprint:#018x} / mean {mean_pct}% differs from the pin {PIN_SEED0:#018x} / {PIN_SEED0_MEAN_PCT}%"
        ));
    }
    for (i, kind) in kinds.iter().enumerate() {
        let pct = mean_ratio_pct(
            reference
                .iter()
                .skip(i)
                .step_by(k)
                .map(RunResult::misprediction_ratio),
        );
        notes.push(format!("mean misprediction {:<8} {pct:.2}%", kind.label()));
    }

    if !cfg.trace {
        let cell_us: Vec<f64> = measured
            .iter()
            .flat_map(|(cells, _)| cells.iter().map(|(_, s)| s * 1e6))
            .collect();
        let mut values = BTreeMap::new();
        values.insert("events_per_s", Summary::of(&eps).expect("measured"));
        values.insert("setup_s", Summary::of(&setup_times).expect("measured"));
        values.insert("peak_rss_mib", Summary::single(rss));
        values.insert("mispredict_pct", Summary::single(mean_pct));
        values.insert("req_p50_us", Summary::of(&cell_us).expect("measured"));
        values.insert(
            "req_p99_us",
            Summary::percentile(&cell_us, 99.0).expect("measured"),
        );
        return Outcome {
            metrics: report::end_to_end(&values),
            wall,
            spans: None,
            notes,
        };
    }

    // Per-layer metrics from the traced grids.
    let mut layers = Layers::default();
    let gen_ns: f64 = gen_spans.iter().map(Timed::ns).sum();
    let gen_events: f64 = gen_spans.iter().map(|g| g.value as f64).sum();
    layers.set("workloads.gen_ns_per_event", gen_ns / gen_events.max(1.0));
    let (mut busy_frac, mut imbalance, mut traced_eps, mut cell_ms) =
        (vec![], vec![], vec![], vec![]);
    let (mut clock_sum, mut loops) = (0.0, 0.0);
    for grid in &traced_grids {
        let grid_span = spans.push_timed("exec.grid", None, grid);
        let grid_ns = grid.ns();
        traced_eps.push(events as f64 / (grid_ns / 1e9));
        let mut busy: BTreeMap<usize, f64> = BTreeMap::new();
        for (i, cell) in grid.value.iter().enumerate() {
            let span = spans.push_timed("exec.cell", Some(grid_span), cell);
            let run = spans.push_timed("sim.run", Some(span), &cell.value.0);
            let names = CallNames::new(&kind_prefix(kinds[i % k]));
            spans.attach(run, &cell.value.1, &names);
            *busy.entry(cell.thread).or_default() += cell.ns();
            cell_ms.push(cell.ns() / 1e6);
            clock_sum += cell.value.1.clock_ns();
            loops += 1.0;
        }
        let workers = exec.threads() as f64;
        let total: f64 = busy.values().sum();
        busy_frac.push(total / (workers * grid_ns));
        let max = busy.values().copied().fold(0.0, f64::max);
        imbalance.push(max / (total / workers));
    }
    for kind in &kinds {
        let prefix = kind_prefix(*kind);
        for call in ["predict", "update", "observe"] {
            if let Some(ns) = spans.sampled_mean_ns(&format!("{prefix}.{call}")) {
                layers.set(&format!("{prefix}.{call}_ns"), ns);
            }
        }
    }
    if let Some(ns) = spans.sampled_mean_ns("sim.account") {
        layers.set("sim.account_ns", ns);
    }
    layers.set("exec.tasks", cell_ms.len() as f64);
    layers.set_summary("exec.busy_frac", Summary::of(&busy_frac));
    layers.set_summary("exec.imbalance", Summary::of(&imbalance));
    layers.set_summary("exec.cell_p50_ms", Summary::of(&cell_ms));
    layers.set(
        "exec.cell_max_ms",
        cell_ms.iter().copied().fold(0.0, f64::max),
    );
    report::finish_layers(
        &mut layers,
        clock_sum / loops,
        &eps,
        &traced_eps,
        &spans.loop_coverage("sim.run"),
        &mut notes,
        &mut wall,
    );
    Outcome {
        metrics: layers.into_metrics(),
        wall,
        spans: Some(spans),
        notes,
    }
}
