//! Diagnostic: per-behaviour misprediction attribution for one benchmark
//! run — development tooling for tuning the workload personalities.
//!
//! Usage: `cargo run --release -p ibp-bench --bin diag -- <run-label> [scale]`

use ibp_sim::{simulate, PredictorKind};
use ibp_workloads::paper_suite;
use std::collections::BTreeMap;

fn main() {
    let label = std::env::args().nth(1).unwrap_or_else(|| "perl.std".into());
    let scale = ibp_bench::scale_arg(std::env::args().nth(2), 0.25, "diag [run-label] [scale]");
    let run = paper_suite()
        .into_iter()
        .find(|r| r.label() == label)
        .unwrap_or_else(|| panic!("unknown run {label}"));
    let model = run.spec().build();
    let site_map: BTreeMap<u64, String> = model
        .site_descriptions()
        .into_iter()
        .map(|(pc, desc)| (pc.raw(), desc))
        .collect();
    let trace = run.generate_scaled(scale);
    println!(
        "=== {} (scale {scale}, {} MT branches) ===",
        label,
        trace.stats().mt_indirect()
    );

    let mut kinds = PredictorKind::figure6();
    kinds.extend(PredictorKind::figure7().into_iter().skip(1));
    for kind in kinds {
        let mut p = kind.build();
        let result = simulate(p.as_mut(), &trace);
        // Aggregate per behaviour label.
        let mut agg: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (pc, preds, misses) in result.branches() {
            let desc = site_map.get(&pc.raw()).map(String::as_str).unwrap_or("?");
            let e = agg.entry(desc).or_insert((0, 0));
            e.0 += preds;
            e.1 += misses;
        }
        println!(
            "\n{:<16} overall {:.2}%",
            result.predictor(),
            result.misprediction_ratio() * 100.0
        );
        for (desc, (preds, misses)) in agg {
            println!(
                "  {:<24} {:>9} preds  {:>8} miss  {:>7.2}%",
                desc,
                preds,
                misses,
                misses as f64 / preds.max(1) as f64 * 100.0
            );
        }
    }
}
