//! runpredict — replay a stored trace file through a predictor.
//!
//! Together with `tracegen` this is the paper's workflow as a CLI: capture
//! once, replay through any predictor configuration.
//!
//! Usage:
//!   `cargo run --release -p ibp-bench --bin runpredict -- <trace-file>
//!   [predictor ...] [--worst N]`
//!
//! Predictors: btb btb2b gap tc-pib tc-pb dpath cascade ppm-hyb ppm-pib
//! ppm-biased ittage oracle8 (default: the Figure 6 lineup).

use ibp_sim::{simulate, PredictorKind};
use ibp_trace::codec;

fn parse_kind(name: &str) -> Option<PredictorKind> {
    Some(match name {
        "btb" => PredictorKind::Btb,
        "btb2b" => PredictorKind::Btb2b,
        "gap" => PredictorKind::GAp,
        "tc-pib" => PredictorKind::TcPib,
        "tc-pb" => PredictorKind::TcPb,
        "dpath" => PredictorKind::Dpath,
        "cascade" => PredictorKind::Cascade,
        "ppm-hyb" => PredictorKind::PpmHyb,
        "ppm-pib" => PredictorKind::PpmPib,
        "ppm-biased" => PredictorKind::PpmHybBiased,
        "ittage" => PredictorKind::IttageLite,
        "oracle8" => PredictorKind::OraclePib(8),
        // canonical zoo names (ittage64-8k/-16k/-64k, bare ittage64, ...)
        other => return PredictorKind::from_cli_name(other),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.first() else {
        ibp_bench::usage_error("usage: runpredict <trace-file> [predictor ...] [--worst N]");
    };
    let mut kinds = Vec::new();
    let mut worst = 0usize;
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        if a == "--worst" {
            worst = it
                .next()
                .and_then(|s| s.parse().ok())
                .expect("--worst needs a count");
        } else if let Some(kind) = parse_kind(a) {
            kinds.push(kind);
        } else {
            ibp_bench::usage_error(&format!("unknown predictor {a}"));
        }
    }
    if kinds.is_empty() {
        kinds = PredictorKind::figure6();
    }

    let bytes = std::fs::read(path)
        .unwrap_or_else(|e| ibp_bench::fail(&format!("cannot read {path}: {e}")));
    let trace = codec::decode(&bytes)
        .unwrap_or_else(|e| ibp_bench::fail(&format!("cannot decode {path}: {e}")));
    let stats = trace.stats();
    println!(
        "{path}: {} events, {} MT indirect, {} static sites, {:.1}M instructions\n",
        trace.len(),
        stats.mt_indirect(),
        stats.static_mt_sites(),
        stats.total_instructions() as f64 / 1e6
    );
    println!(
        "{:<16} {:>12} {:>12} {:>8}",
        "predictor", "predictions", "misses", "ratio"
    );
    for kind in kinds {
        let mut p = kind.build();
        let r = simulate(p.as_mut(), &trace);
        println!(
            "{:<16} {:>12} {:>12} {:>7.2}%",
            r.predictor(),
            r.predictions(),
            r.mispredictions(),
            r.misprediction_ratio() * 100.0
        );
        if worst > 0 {
            for (pc, preds, misses) in r.worst_branches(worst) {
                println!(
                    "    {pc}  {misses}/{preds} missed ({:.1}%)",
                    misses as f64 / preds.max(1) as f64 * 100.0
                );
            }
        }
    }
}
