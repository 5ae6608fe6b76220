//! A1 — table-size sweep.
//!
//! The paper fixes every predictor at 2K entries and flags varying table
//! sizes as future work ("We also did not consider the effects of varying
//! table sizes"). This ablation sweeps the total entry budget from 512 to
//! 8K for every predictor and reports mean misprediction ratios, showing
//! where each scheme is capacity-limited versus resolution-limited.
//!
//! Usage: `cargo run --release -p ibp-bench --bin sweep_size [scale]
//! [--budget b1,b2,...] [--simpoint k=K,window=W[,warmup=N,strata=R,dims=D]]`
//! — with `--simpoint`, a second table of phase-sampled weighted
//! estimates is printed next to the exact one (each trace is clustered
//! once and shared across the whole kind × budget product). With
//! `--budget`, the columns are storage-bit budgets instead of entry
//! counts: each predictor is resized to the largest configuration
//! fitting each bit budget (cells print `-` where even the 64-entry
//! floor overshoots; excludes `--simpoint`). `IBP_THREADS=n` pins the
//! pool size.

use ibp_bench::{scale_arg, take_flag};
use ibp_exec::Executor;
use ibp_sim::report::pct;
use ibp_sim::{
    cluster_signatures, signatures_of, simpoint_from_phases, Phases, PredictorKind, SimPointConfig,
};
use ibp_workloads::paper_suite;

fn print_means(kinds: &[PredictorKind], budgets: &[usize], traces: usize, ratios: &[f64]) {
    print!("{:<14}", "predictor");
    for b in budgets {
        print!("{b:>9}");
    }
    println!();
    let mut next = ratios.iter();
    for kind in kinds {
        print!("{:<14}", kind.label());
        for _ in budgets {
            let sum: f64 = next.by_ref().take(traces).sum();
            print!("{:>9}", pct(sum / traces as f64));
        }
        println!();
    }
}

fn print_bit_means(kinds: &[PredictorKind], bit_budgets: &[u64], traces: usize, ratios: &[f64]) {
    print!("{:<14}", "predictor");
    for b in bit_budgets {
        print!("{b:>10}");
    }
    println!();
    let mut next = ratios.iter();
    for kind in kinds {
        print!("{:<14}", kind.label());
        for _ in bit_budgets {
            let cells: Vec<f64> = next.by_ref().take(traces).copied().collect();
            if cells.iter().any(|r| r.is_nan()) {
                print!("{:>10}", "-");
            } else {
                print!("{:>10}", pct(cells.iter().sum::<f64>() / traces as f64));
            }
        }
        println!();
    }
}

const USAGE: &str = "sweep_size [scale] [--budget b1,b2,...] [--simpoint <spec>]";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bit_budgets = take_flag(&mut args, "--budget", |spec| {
        spec.split(',')
            .map(|s| s.trim().parse::<u64>().map_err(|_| format!("{s:?} is not a bit count")))
            .collect::<Result<Vec<u64>, String>>()
    });
    let simpoint = take_flag(&mut args, "--simpoint", SimPointConfig::parse_flag);
    let scale = scale_arg(args.first().cloned(), 0.25, USAGE);
    let budgets = [512usize, 1024, 2048, 4096, 8192];
    let mut kinds = PredictorKind::figure6();
    let runs = paper_suite();
    let exec = Executor::from_env();
    let traces = exec.map(&runs, |_, r| r.generate_scaled(scale));

    if let Some(bits) = &bit_budgets {
        if simpoint.is_some() {
            ibp_bench::usage_error("--budget excludes --simpoint");
        }
        // Equal-bits columns: resolve each (kind, bit budget) to its
        // largest fitting entry configuration once, then fan the product
        // out exactly like the entry sweep. The faithful ITTAGE joins at
        // its own preset budgets (NaN marks unfit cells, printed as -).
        kinds.extend([
            PredictorKind::Ittage64(8),
            PredictorKind::Ittage64(16),
            PredictorKind::Ittage64(64),
        ]);
        let sized: Vec<Option<usize>> = kinds
            .iter()
            .flat_map(|k| bits.iter().map(|&b| k.entries_for_budget(b)))
            .collect();
        let ratios = exec.run(kinds.len() * bits.len() * traces.len(), |i| {
            let kind = kinds[i / (bits.len() * traces.len())];
            let slot = i / traces.len();
            let trace = &traces[i % traces.len()];
            match sized[slot] {
                Some(entries) => kind
                    .simulate_events(entries, trace.iter().copied())
                    .misprediction_ratio(),
                None => f64::NAN,
            }
        });
        println!("=== A1: mean misprediction ratio vs storage-bit budget (scale {scale}) ===\n");
        print_bit_means(&kinds, bits, traces.len(), &ratios);
        println!("\n(equal-bits columns; - marks budgets the predictor cannot fit)");
        return;
    }

    // The whole (kind × budget × trace) product goes on the pool as
    // fine-grained tasks; results come back in product order, so the
    // aggregation below is deterministic for any worker count.
    let ratios = exec.run(kinds.len() * budgets.len() * traces.len(), |i| {
        let kind = kinds[i / (budgets.len() * traces.len())];
        let budget = budgets[(i / traces.len()) % budgets.len()];
        let trace = &traces[i % traces.len()];
        kind.simulate_events(budget, trace.iter().copied())
            .misprediction_ratio()
    });

    println!("=== A1: mean misprediction ratio vs total table budget (scale {scale}) ===\n");
    print_means(&kinds, &budgets, traces.len(), &ratios);

    if let Some(cfg) = &simpoint {
        // One clustering per trace, shared across the whole product; the
        // representative-window fan-out inside each estimate is the
        // parallel stage here, so the product loop itself stays serial
        // (and therefore deterministic by construction).
        let phases: Vec<Phases> =
            exec.map(&traces, |_, t| cluster_signatures(&signatures_of(t, cfg), cfg));
        let mut est = Vec::with_capacity(ratios.len());
        for &kind in &kinds {
            for &budget in &budgets {
                for (ti, trace) in traces.iter().enumerate() {
                    let run = simpoint_from_phases(kind, budget, trace, &phases[ti], cfg, &exec);
                    est.push(run.estimate.misprediction_ratio());
                }
            }
        }
        println!(
            "\n--- simpoint weighted estimates ({}) ---",
            cfg.flag_string()
        );
        print_means(&kinds, &budgets, traces.len(), &est);
        let worst = ratios
            .iter()
            .zip(&est)
            .map(|(x, e)| (x - e).abs())
            .fold(0.0f64, f64::max);
        println!("worst per-cell |est − exact|: {:.3}pp", worst * 100.0);
    }

    println!("\n(2048 is the paper's design point; the paper left the sweep as future work)");
}
