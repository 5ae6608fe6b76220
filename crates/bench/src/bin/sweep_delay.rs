//! A6 — speculative-update delay sweep (the §4 pipelining concern).
//!
//! The paper's trace-driven methodology updates every structure in trace
//! order — an idealization it shares with its baselines' papers. In a real
//! front end the resolution (and thus history shifts and table writes)
//! lags the prediction by several fetched branches. This sweep delays all
//! training by 0..16 branch events for the main contenders and shows who
//! depends most on fresh history.
//!
//! Usage: `cargo run --release -p ibp-bench --bin sweep_delay [scale]
//! [--simpoint k=K,window=W[,warmup=N,strata=R,dims=D]]` — with
//! `--simpoint`, each table is followed by its phase-sampled weighted
//! estimates (one clustering per trace, shared across the kind × delay
//! product). `IBP_THREADS=n` pins the pool size.

use ibp_bench::{scale_arg, take_flag};
use ibp_exec::Executor;
use ibp_sim::report::pct;
use ibp_sim::{
    cluster_signatures, signatures_of, simpoint_with, simulate, DelayedPredictor, Phases,
    PredictorKind, SimPointConfig,
};
use ibp_trace::Trace;
use ibp_workloads::paper_suite;

/// Mean ratio per (kind, delay) cell, the whole (kind × delay × trace)
/// product scheduled on the pool as one task per simulation. Product-order
/// commit keeps the means deterministic for any worker count.
fn sweep(
    exec: &Executor,
    kinds: &[PredictorKind],
    delays: &[usize],
    traces: &[Trace],
    speculative: bool,
) -> Vec<f64> {
    let ratios = exec.run(kinds.len() * delays.len() * traces.len(), |i| {
        let kind = kinds[i / (delays.len() * traces.len())];
        let d = delays[(i / traces.len()) % delays.len()];
        let trace = &traces[i % traces.len()];
        let mut p = if speculative {
            DelayedPredictor::with_speculative_history(kind.build(), d)
        } else {
            DelayedPredictor::new(kind.build(), d)
        };
        simulate(&mut p, trace).misprediction_ratio()
    });
    ratios
        .chunks(traces.len())
        .map(|chunk| chunk.iter().sum::<f64>() / traces.len() as f64)
        .collect()
}

/// The phase-sampled twin of [`sweep`]: weighted-estimate means per
/// (kind, delay) cell. The product loop is serial — the parallel stage
/// is the representative-window fan-out inside each estimate.
fn sweep_estimates(
    exec: &Executor,
    kinds: &[PredictorKind],
    delays: &[usize],
    traces: &[Trace],
    speculative: bool,
    cfg: &SimPointConfig,
    phases: &[Phases],
) -> Vec<f64> {
    let mut means = Vec::with_capacity(kinds.len() * delays.len());
    for &kind in kinds {
        for &d in delays {
            let mut sum = 0.0;
            for (trace, ph) in traces.iter().zip(phases) {
                let build = || {
                    if speculative {
                        DelayedPredictor::with_speculative_history(kind.build(), d)
                    } else {
                        DelayedPredictor::new(kind.build(), d)
                    }
                };
                sum += simpoint_with(&kind.label(), build, trace, ph, cfg, exec)
                    .estimate
                    .misprediction_ratio();
            }
            means.push(sum / traces.len() as f64);
        }
    }
    means
}

fn print_table(kinds: &[PredictorKind], delays: &[usize], prefix: &str, means: &[f64]) {
    print!("{:<16}", "predictor");
    for d in delays {
        print!("{:>9}", format!("{prefix}={d}"));
    }
    println!();
    for (row, kind) in kinds.iter().enumerate() {
        print!("{:<16}", kind.label());
        for col in 0..delays.len() {
            print!("{:>9}", pct(means[row * delays.len() + col]));
        }
        println!();
    }
}

fn print_estimates(
    exec: &Executor,
    kinds: &[PredictorKind],
    delays: &[usize],
    traces: &[Trace],
    speculative: bool,
    simpoint: &Option<(SimPointConfig, Vec<Phases>)>,
    prefix: &str,
    exact: &[f64],
) {
    let Some((cfg, phases)) = simpoint else {
        return;
    };
    let est = sweep_estimates(exec, kinds, delays, traces, speculative, cfg, phases);
    println!("\nsimpoint weighted estimates ({}):", cfg.flag_string());
    print_table(kinds, delays, prefix, &est);
    let worst = exact
        .iter()
        .zip(&est)
        .map(|(x, e)| (x - e).abs())
        .fold(0.0f64, f64::max);
    println!("worst per-cell |est − exact|: {:.3}pp", worst * 100.0);
}

const USAGE: &str = "sweep_delay [scale] [--simpoint <spec>]";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let simpoint_cfg = take_flag(&mut args, "--simpoint", SimPointConfig::parse_flag);
    let scale = scale_arg(args.first().cloned(), 0.15, USAGE);
    let exec = Executor::from_env();
    let suite = paper_suite();
    let traces: Vec<Trace> = exec.map(&suite, |_, r| r.generate_scaled(scale));
    let simpoint = simpoint_cfg.map(|cfg| {
        let phases =
            exec.map(&traces, |_, t| cluster_signatures(&signatures_of(t, &cfg), &cfg));
        (cfg, phases)
    });
    let delays = [0usize, 1, 2, 4, 8, 16];
    let kinds = [
        PredictorKind::Btb2b,
        PredictorKind::TcPib,
        PredictorKind::Dpath,
        PredictorKind::Cascade,
        PredictorKind::PpmHyb,
        PredictorKind::IttageLite,
    ];
    println!("=== A6: mean misprediction vs update delay, in branch events (scale {scale}) ===\n");
    let means = sweep(&exec, &kinds, &delays, &traces, false);
    print_table(&kinds, &delays, "d", &means);
    print_estimates(&exec, &kinds, &delays, &traces, false, &simpoint, "d", &means);

    println!("\n--- same sweep with speculative history (only table writes delayed) ---");
    let spec_kinds = [
        PredictorKind::TcPib,
        PredictorKind::PpmHyb,
        PredictorKind::IttageLite,
    ];
    let means = sweep(&exec, &spec_kinds, &delays, &traces, true);
    print_table(&spec_kinds, &delays, "sd", &means);
    print_estimates(&exec, &spec_kinds, &delays, &traces, true, &simpoint, "sd", &means);
    println!(
        "\ntwo lessons: (1) without speculative history maintenance even a\n\
         1-branch update lag destroys every path-based predictor — the\n\
         trained window no longer matches the predicted one; (2) keeping\n\
         history fresh but letting the delayed update recompute its table\n\
         index from *current* history is no better: the write lands on the\n\
         wrong entry. Real front ends therefore carry the fetch-time table\n\
         indices with each branch to retirement and write exactly those —\n\
         which is what the d=0 column (and every trace-driven study,\n\
         this paper's included) models."
    );
}
