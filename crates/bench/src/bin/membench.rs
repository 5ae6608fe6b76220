//! membench — per-session predictor memory footprint and snapshot-codec
//! throughput, across the full serve lineup.
//!
//! For every predictor kind on the serve plane, measures what one tenant
//! session actually costs resident, three ways:
//!
//! * **private plain** — the pre-memory-plane baseline: a private
//!   stepper with plain (unquantized) tables, warmed through the shared
//!   prefix and its own per-session slice;
//! * **private compact** — the same session on quantized-counter,
//!   slot-packed tables;
//! * **tier fork** — the multi-tenant path: a [`BaseTier`] warmed once
//!   through the shared prefix, the session forked from it (compact
//!   encoding) and stepped only through its own slice, so it is charged
//!   for its copy-on-write delta rather than the whole table.
//!
//! It then times the spill codec on the tier fork: snapshot blob size
//! (delta-sized, not base-sized), snapshots/s and restores/s.
//!
//! Usage:
//!   `cargo run --release -p ibp-bench --bin membench --
//!    [--entries N] [--warmup N] [--session-events N] [--quick]
//!    [--check PATH]`
//!
//! With `IBP_BENCH_DIR` set, the JSON report lands in
//! `<dir>/BENCH_memory.json`. `--check PATH` validates an emitted
//! report — shape, positive footprints and codec rates, and the
//! headline claim that the summed tier-fork footprint undercuts the
//! summed private-plain footprint — and exits.

use ibp_bench::parse_num;
use ibp_sim::{snapshot_session, BaseTier, Json, PredictorKind, TableEncoding};
use ibp_trace::BranchEvent;
use ibp_workloads::paper_suite;
use std::time::Instant;

struct Args {
    entries: u64,
    warmup: usize,
    session_events: usize,
    iters: u32,
}

fn parse_args() -> Args {
    let mut args = Args {
        entries: 2048,
        warmup: 4096,
        session_events: 512,
        iters: 128,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| ibp_bench::usage_error(&format!("{what} needs a value")))
        };
        match a.as_str() {
            "--entries" => args.entries = parse_num(&value("--entries"), "--entries") as u64,
            "--warmup" => args.warmup = parse_num(&value("--warmup"), "--warmup"),
            "--session-events" => {
                args.session_events = parse_num(&value("--session-events"), "--session-events");
            }
            "--quick" => {
                // The CI preset: small enough to finish in well under a
                // second while still exercising every kind and both
                // codec directions.
                args.warmup = 1024;
                args.session_events = 256;
                args.iters = 16;
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
    args.entries = args.entries.clamp(64, 1 << 20);
    args.warmup = args.warmup.clamp(0, 1 << 22);
    args.session_events = args.session_events.clamp(1, 1 << 22);
    args.iters = args.iters.clamp(1, 1 << 16);
    args
}

/// The deterministic workload: the paper suite's `gs.tig` run, the same
/// source the serve load generator replays.
fn load_events(total: usize) -> Vec<BranchEvent> {
    let run = paper_suite()
        .into_iter()
        .find(|r| r.label() == "gs.tig")
        .unwrap_or_else(|| ibp_bench::fail("paper suite lost its gs.tig run"));
    let trace = run.generate();
    trace.iter().copied().cycle().take(total).collect()
}

struct KindRow {
    label: String,
    private_plain: usize,
    private_compact: usize,
    tier_fork: usize,
    tier_base: usize,
    snapshot_bytes: usize,
    snapshots_per_sec: f64,
    restores_per_sec: f64,
}

fn measure(kind: PredictorKind, args: &Args, events: &[BranchEvent]) -> KindRow {
    let (warmup, session) = events.split_at(args.warmup.min(events.len()));
    let entries = args.entries as usize;

    // The private baselines see warmup + session: one tenant owning the
    // whole table must learn everything itself.
    let mut plain = kind.session_stepper_with(entries, TableEncoding::Plain);
    plain.step_counted(warmup);
    plain.step_counted(session);
    let mut compact = kind.session_stepper_with(entries, TableEncoding::Compact);
    compact.step_counted(warmup);
    compact.step_counted(session);

    // The tier fork shares the warmup through the sealed base and is
    // charged only for the delta its own slice wrote.
    let tier = BaseTier::warm(kind, entries, TableEncoding::Compact, warmup);
    let mut fork = tier.session();
    fork.step_counted(session);

    let blob = snapshot_session(kind, entries, tier.encoding(), fork.as_ref());

    let started = Instant::now();
    let mut blob_len = blob.len();
    for _ in 0..args.iters {
        let b = snapshot_session(kind, entries, tier.encoding(), fork.as_ref());
        blob_len = blob_len.max(b.len());
    }
    let snap_ns = started.elapsed().as_nanos().max(1) as f64;

    let started = Instant::now();
    let mut restored_events = 0u64;
    for _ in 0..args.iters {
        match tier.restore(&blob) {
            Ok(session) => restored_events += session.events(),
            Err(e) => {
                ibp_bench::fail(&format!("{}: restore failed: {e:?}", kind.label()));
            }
        }
    }
    let restore_ns = started.elapsed().as_nanos().max(1) as f64;
    if restored_events != args.iters as u64 * fork.events() {
        ibp_bench::fail(&format!("{}: restored sessions lost events", kind.label()));
    }

    KindRow {
        label: kind.label(),
        private_plain: plain.resident_bytes(),
        private_compact: compact.resident_bytes(),
        tier_fork: fork.resident_bytes(),
        tier_base: tier.prototype_resident_bytes(),
        snapshot_bytes: blob_len,
        snapshots_per_sec: args.iters as f64 * 1e9 / snap_ns,
        restores_per_sec: args.iters as f64 * 1e9 / restore_ns,
    }
}

/// Validates an emitted `BENCH_memory.json`: parses, checks the bench
/// name, requires every per-kind row to carry positive footprints and
/// finite positive codec rates, and holds the headline claim — summed
/// across the lineup, a tier fork must be resident-cheaper than a
/// private plain session.
fn check(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value = Json::parse(&text).map_err(|e| format!("{path} is not valid JSON: {e:?}"))?;
    if value.get("bench").and_then(Json::as_str) != Some("memory") {
        return Err(format!("{path}: `bench` field is not \"memory\""));
    }
    let kinds = value
        .get("kinds")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: missing `kinds` array"))?;
    if kinds.is_empty() {
        return Err(format!("{path}: `kinds` is empty"));
    }
    let mut sum_plain = 0u64;
    let mut sum_fork = 0u64;
    for row in kinds {
        let label = row
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: row without `kind`"))?;
        for field in [
            "private_plain_bytes",
            "private_compact_bytes",
            "tier_fork_bytes",
            "snapshot_bytes",
        ] {
            match row.get(field).and_then(Json::as_u64) {
                Some(n) if n > 0 => {}
                Some(_) => return Err(format!("{path}: {label}.{field} is zero")),
                None => return Err(format!("{path}: {label} missing `{field}`")),
            }
        }
        for field in ["snapshots_per_sec", "restores_per_sec"] {
            match row.get(field).and_then(Json::as_f64) {
                Some(x) if x > 0.0 && x.is_finite() => {}
                _ => return Err(format!("{path}: {label}.{field} is not positive")),
            }
        }
        sum_plain += row.get("private_plain_bytes").and_then(Json::as_u64).unwrap_or(0);
        sum_fork += row.get("tier_fork_bytes").and_then(Json::as_u64).unwrap_or(0);
    }
    if sum_fork >= sum_plain {
        return Err(format!(
            "{path}: tier forks ({sum_fork} B summed) do not undercut private plain \
             sessions ({sum_plain} B summed)"
        ));
    }
    println!(
        "{path}: OK ({} kinds, tier forks {sum_fork} B vs private {sum_plain} B summed)",
        kinds.len()
    );
    Ok(())
}

fn main() {
    let args = parse_args();
    let events = load_events(args.warmup + args.session_events);
    println!(
        "membench: entries {}, {} warmup + {} session events, {} codec iters",
        args.entries, args.warmup, args.session_events, args.iters
    );

    let mut rows = Vec::new();
    for kind in PredictorKind::serve_lineup() {
        let row = measure(kind, &args, &events);
        println!(
            "{:<16} private {:>9} B plain / {:>9} B compact | tier fork {:>8} B (base {:>9} B) | snapshot {:>7} B, {:>9.0}/s snap, {:>9.0}/s restore",
            row.label,
            row.private_plain,
            row.private_compact,
            row.tier_fork,
            row.tier_base,
            row.snapshot_bytes,
            row.snapshots_per_sec,
            row.restores_per_sec,
        );
        rows.push(row);
    }

    let sum_plain: usize = rows.iter().map(|r| r.private_plain).sum();
    let sum_compact: usize = rows.iter().map(|r| r.private_compact).sum();
    let sum_fork: usize = rows.iter().map(|r| r.tier_fork).sum();
    println!(
        "lineup sum: private plain {} B, private compact {} B, tier fork {} B ({:.1}x smaller than plain)",
        sum_plain,
        sum_compact,
        sum_fork,
        sum_plain as f64 / sum_fork.max(1) as f64,
    );

    let json = Json::obj([
        ("bench", Json::Str("memory".to_string())),
        ("entries", Json::UInt(args.entries)),
        ("warmup_events", Json::UInt(args.warmup as u64)),
        ("session_events", Json::UInt(args.session_events as u64)),
        ("codec_iters", Json::UInt(args.iters as u64)),
        (
            "kinds",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("kind", Json::Str(r.label.clone())),
                            ("private_plain_bytes", Json::UInt(r.private_plain as u64)),
                            ("private_compact_bytes", Json::UInt(r.private_compact as u64)),
                            ("tier_fork_bytes", Json::UInt(r.tier_fork as u64)),
                            ("tier_base_bytes", Json::UInt(r.tier_base as u64)),
                            ("snapshot_bytes", Json::UInt(r.snapshot_bytes as u64)),
                            ("snapshots_per_sec", Json::Num(r.snapshots_per_sec)),
                            ("restores_per_sec", Json::Num(r.restores_per_sec)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "summary",
            Json::obj([
                ("sum_private_plain_bytes", Json::UInt(sum_plain as u64)),
                ("sum_private_compact_bytes", Json::UInt(sum_compact as u64)),
                ("sum_tier_fork_bytes", Json::UInt(sum_fork as u64)),
                (
                    "plain_over_fork",
                    Json::Num(sum_plain as f64 / sum_fork.max(1) as f64),
                ),
            ]),
        ),
    ]);
    let rendered = json.emit();
    println!("{rendered}");
    if let Ok(dir) = std::env::var("IBP_BENCH_DIR") {
        let _ = std::fs::create_dir_all(&dir);
        let path = std::path::Path::new(&dir).join("BENCH_memory.json");
        if let Err(e) = std::fs::write(&path, &rendered) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}
