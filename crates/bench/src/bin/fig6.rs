//! Figure 6 — misprediction ratios of seven indirect-branch predictors at
//! the 2K-entry budget, across the full benchmark suite.
//!
//! Paper reference points (means across the suite): PPM-hyb 9.47%,
//! Cascade 11.48%, TC-PIB 13.0%; BTB/BTB2b far behind; TC-PIB is the only
//! scheme beating PPM on photon (0.95% vs 1.35%).
//!
//! Usage: `cargo run --release -p ibp-bench --bin fig6 [scale] [--csv]
//! [--budget <bits>] [--metrics <path>]
//! [--simpoint k=K,window=W[,warmup=N,strata=R,dims=D]]`
//! (scale defaults to 1.0 = the full trace size; `--csv` emits the grid
//! as CSV on stdout instead of the formatted tables; `--budget` sizes
//! every predictor to the largest configuration fitting the given
//! storage-bit budget — equal-bits instead of the paper's equal-entries
//! — and adds the faithful ITTAGE at the matching preset when one fits;
//! `--metrics` evaluates the grid with recording probes attached and
//! writes the per-cell metrics JSON — same prediction results, plus
//! telemetry; `--simpoint` additionally phase-samples every cell and
//! prints the weighted estimates next to the exact numbers — with
//! `--metrics`, the sampling telemetry and per-cell estimate error merge
//! into the JSON; `--budget` combines with `--csv` only).
//! The grid runs on the work-stealing pool; `IBP_THREADS=n` pins the
//! pool size, and the output — metrics included — is bit-identical for
//! every `n`.

use ibp_bench::{scale_arg, take_flag};
use ibp_sim::report::{grid_to_csv, paper_vs_measured, render_grid, render_simpoint_grid};
use ibp_sim::{
    compare_grid, compare_grid_at_bits, metrics_grid, metrics_to_json, simpoint_grid_with,
    simpoint_snapshot, Executor, MetricsGrid, PredictorKind, SimPointConfig,
};
use ibp_workloads::paper_suite;

const USAGE: &str = "fig6 [scale] [--csv] [--budget <bits>] [--metrics <path>] [--simpoint <spec>]";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let budget_bits = take_flag(&mut args, "--budget", |s| {
        s.parse::<u64>().map_err(|_| format!("{s:?} is not a storage budget in bits"))
    });
    let metrics_path = take_flag(&mut args, "--metrics", |s| Ok(s.to_string()));
    let simpoint = take_flag(&mut args, "--simpoint", SimPointConfig::parse_flag);
    let csv = args.iter().any(|a| a == "--csv");
    args.retain(|a| a != "--csv");
    let scale = scale_arg(args.first().cloned(), 1.0, USAGE);
    let runs = paper_suite();
    let mut kinds = PredictorKind::figure6();
    let exec = Executor::from_env();
    if let Some(bits) = budget_bits {
        if metrics_path.is_some() || simpoint.is_some() {
            ibp_bench::usage_error("--budget combines with --csv only (not --metrics/--simpoint)");
        }
        // At an equal-bits budget the faithful ITTAGE joins the lineup at
        // the largest preset that fits (the epilogue comparison, inline).
        for kb in [64u8, 16, 8] {
            if u64::from(kb) * 8 * 1024 <= bits {
                kinds.push(PredictorKind::Ittage64(kb));
                break;
            }
        }
        let grid = compare_grid_at_bits(&exec, &kinds, &runs, scale, bits);
        if csv {
            print!("{}", grid_to_csv(&grid));
            return;
        }
        println!("=== Figure 6 at equal bits ({bits} bits, scale {scale}) ===\n");
        print!("{}", render_grid(&grid));
        println!("\n--- predictor means, ranked (lower is better) ---");
        for (name, ratio) in grid.ranking() {
            println!("{name:<14} {:.2}%", ratio * 100.0);
        }
        return;
    }
    let mut metrics = None;
    let grid = if metrics_path.is_some() {
        let (grid, m) = metrics_grid(&kinds, &runs, scale);
        metrics = Some(m);
        grid
    } else {
        compare_grid(&kinds, &runs, scale)
    };
    let est = simpoint
        .as_ref()
        .map(|cfg| simpoint_grid_with(&exec, &kinds, 2048, &runs, scale, cfg));

    if let Some(path) = &metrics_path {
        let mut m = metrics.take().expect("metrics grid was evaluated");
        if let (Some(cfg), Some((est_grid, sampled))) = (&simpoint, &est) {
            // Cells and sampled runs are both in row-major (run, then
            // predictor) order; merge the sampling telemetry — including
            // the per-cell estimate error against the exact grid — into
            // each cell's snapshot.
            let mut cells = m.cells().to_vec();
            debug_assert_eq!(cells.len(), est_grid.cells().len());
            for (cell, run) in cells.iter_mut().zip(sampled) {
                let exact = grid.ratio(&cell.run, &cell.predictor);
                cell.snapshot.merge(&simpoint_snapshot(run, exact));
            }
            m = MetricsGrid::from_parts(
                m.predictors().to_vec(),
                m.runs().to_vec(),
                m.scale(),
                cells,
            );
            eprintln!("simpoint telemetry merged ({})", cfg.flag_string());
        }
        let json = metrics_to_json(&m);
        std::fs::write(path, &json)
            .unwrap_or_else(|e| ibp_bench::fail(&format!("cannot write {path}: {e}")));
        eprintln!("metrics written to {path}");
    }
    if csv {
        print!("{}", grid_to_csv(&grid));
        if let Some((est_grid, _)) = &est {
            print!("{}", grid_to_csv(est_grid));
        }
        return;
    }

    println!("=== Figure 6: misprediction ratios (2K-entry budget, scale {scale}) ===\n");
    print!("{}", render_grid(&grid));

    if let (Some(cfg), Some((est_grid, sampled))) = (&simpoint, &est) {
        println!(
            "\n--- simpoint weighted estimates ({}, Δ = |est − exact| in pp) ---",
            cfg.flag_string()
        );
        print!("{}", render_simpoint_grid(&grid, est_grid));
        let events: u64 = sampled.iter().map(|r| r.events_simulated).sum();
        let total: u64 = sampled.iter().map(|r| r.phases.total_events).sum();
        println!(
            "sampled fraction: {:.2}% of {} stream events fed through predictors",
            100.0 * events as f64 / total.max(1) as f64,
            total
        );
    }

    println!("\n--- predictor means, ranked (lower is better) ---");
    for (name, ratio) in grid.ranking() {
        println!("{name:<14} {:.2}%", ratio * 100.0);
    }

    println!("\n--- paper vs measured (means) ---");
    for (name, paper) in [("PPM-hyb", 0.0947), ("Cascade", 0.1148), ("TC-PIB", 0.1300)] {
        if let Some(m) = grid.mean_ratio(name) {
            println!("{}", paper_vs_measured(name, paper, m));
        }
    }

    println!("\n--- photon check (paper: TC-PIB 0.95%, PPM-hyb 1.35%) ---");
    for p in ["TC-PIB", "PPM-hyb"] {
        if let Some(r) = grid.ratio("photon.dia", p) {
            println!("photon.dia {p:<10} {:.2}%", r * 100.0);
        }
    }
}
