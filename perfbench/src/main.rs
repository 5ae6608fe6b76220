//! `perfbench` — runs one workload of the benchmark and prints its
//! report; the last line of standard output is the JSON result.
//!
//! Usage: `perfbench --workload <name|all> [--seed N] [--seconds S]
//! [--trace 0|1]`
//!
//! `--trace 1` runs the traced variant: per-layer metrics on the result
//! line, and the spans written to `.bench_out/<workload>-seed<N>.trace.json`.
//! `--workload all` runs every declared workload in its own child
//! process, one after another. The exit code is 0 only when every output matched its
//! reference; 1 on a mismatch, 2 on a usage error.

use ibp_perfbench::report::{render_text, result_line, trace_json, Stamp};
use ibp_perfbench::{run, Config, WORKLOADS};
use std::process::ExitCode;

const OUT_DIR: &str = ".bench_out";

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut cfg = Config {
        seed: 0,
        seconds: 10.0,
        trace: false,
        quick: false,
        corrupt_reference: false,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args = raw.iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().cloned();
        match arg.as_str() {
            "--workload" => workload = value(),
            "--seed" => match value().and_then(|v| v.parse().ok()) {
                Some(seed) => cfg.seed = seed,
                None => return usage("--seed needs an unsigned integer"),
            },
            "--seconds" => match value().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s.is_finite() && s > 0.0 => cfg.seconds = s,
                _ => return usage("--seconds needs a positive number"),
            },
            "--trace" => match value().as_deref() {
                Some("0") => cfg.trace = false,
                Some("1") => cfg.trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            other => return usage(&format!("unknown argument {other}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    if workload == "all" {
        return run_all(&raw);
    }
    let stamp = Stamp::collect(&workload, cfg.seed);
    let Some(outcome) = run(&workload, &cfg) else {
        return usage(&format!("unknown workload {workload}"));
    };
    print!("{}", render_text(&stamp, &outcome));
    if cfg.trace {
        let path = format!("{OUT_DIR}/{workload}-seed{}.trace.json", cfg.seed);
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, trace_json(&stamp, &outcome)));
        match written {
            Ok(()) => println!("  spans written to {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }
    println!("{}", result_line(&outcome));
    if outcome.wall.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs every workload in a child process of its own (so each one's peak
/// memory is its own), forwarding the other arguments.
fn run_all(raw: &[String]) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate the running executable");
        return ExitCode::from(2);
    };
    let mut forwarded: Vec<String> = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            forwarded.push(a.clone());
        }
    }
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .arg("--workload")
            .arg(w)
            .args(&forwarded)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: workload {w} failed ({s})");
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run workload {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
