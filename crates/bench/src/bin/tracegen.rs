//! tracegen — dump a benchmark run's branch trace to a file.
//!
//! The paper's methodology is replaying stored ATOM traces; this tool
//! produces the equivalent artifacts so external tooling (or `runpredict`)
//! can consume them.
//!
//! Usage:
//!   cargo run --release -p ibp-bench --bin tracegen -- <run-label|all> \
//!       [--scale S] [--text] [--out DIR]

use ibp_trace::codec;
use ibp_workloads::paper_suite;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let label = args.first().cloned().unwrap_or_else(|| {
        eprintln!("usage: tracegen <run-label|all> [--scale S] [--text] [--out DIR]");
        eprintln!(
            "runs: {}",
            paper_suite()
                .iter()
                .map(|r| r.label())
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    });
    let mut scale = 1.0f64;
    let mut text = false;
    let mut out_dir = PathBuf::from("traces");
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--scale needs a number");
            }
            "--text" => text = true,
            "--out" => {
                out_dir = PathBuf::from(it.next().expect("--out needs a directory"));
            }
            other => {
                ibp_bench::usage_error(&format!("unknown flag {other}"));
            }
        }
    }
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let runs: Vec<_> = paper_suite()
        .into_iter()
        .filter(|r| label == "all" || r.label() == label)
        .collect();
    if runs.is_empty() {
        ibp_bench::usage_error(&format!("unknown run {label}"));
    }
    for run in runs {
        let trace = run.generate_scaled(scale);
        let stats = trace.stats();
        if text {
            let path = out_dir.join(format!("{}.trace.txt", run.label()));
            std::fs::write(&path, codec::to_text(&trace)).expect("write text trace");
            println!(
                "{} -> {} ({} events)",
                run.label(),
                path.display(),
                trace.len()
            );
        } else {
            let path = out_dir.join(format!("{}.trace", run.label()));
            std::fs::write(&path, codec::encode(&trace)).expect("write binary trace");
            println!(
                "{} -> {} ({} events, {} MT indirect, {:.1}M instructions)",
                run.label(),
                path.display(),
                trace.len(),
                stats.mt_indirect(),
                stats.total_instructions() as f64 / 1e6
            );
        }
    }
}
