//! SimPoint phase-sampling property wall (see DESIGN.md §13).
//!
//! Three contracts, each falsifiable on small random inputs:
//!
//! * **Determinism** — signatures, clustering and the weighted estimate
//!   are bit-identical for any pool size and across repeated runs; the
//!   streamed path (signatures + checkpoint regeneration) reproduces the
//!   materialized-trace path exactly, and the chained-warmup estimator
//!   is stable across repeats.
//! * **Signature/weight invariants** — cluster weights partition the
//!   window set (they sum to the window count), every window is assigned
//!   to a valid sampling unit, representatives are members of their own
//!   unit.
//! * **Degenerate inputs** — empty traces, traces shorter than one
//!   window, and `k` larger than the window count all clamp instead of
//!   panicking, and the estimate still reproduces the only windows that
//!   exist.

use ibp_exec::Executor;
use ibp_sim::{
    cluster_signatures, signatures_of, simpoint_from_phases, simpoint_streamed,
    simpoint_streamed_chained, simpoint_trace, stream_prep, PredictorKind, SimPointConfig,
};
use ibp_testkit::{prop_assert, prop_assert_eq, Prop, TestRng};
use ibp_trace::Trace;
use ibp_workloads::paper_suite;

/// Serial, smallest concurrent, oversubscribed — the same ladder as the
/// grid determinism wall.
const POOL_SIZES: [usize; 3] = [1, 2, 8];

fn small_cfg(k: usize, window: usize) -> SimPointConfig {
    SimPointConfig {
        k,
        window,
        warmup_windows: 2,
        strata: 2,
        dims: 32,
        ..SimPointConfig::default()
    }
}

/// Draws a suite run, a small trace scale, and a clustering shape.
fn gen_case(rng: &mut TestRng) -> (usize, u8, usize, usize) {
    let run = rng.gen_range(0..15u64) as usize;
    let scale_milli = rng.gen_range(3..12u64) as u8;
    let k = rng.gen_range(1..7u64) as usize;
    let window = 1 << rng.gen_range(7..10u64); // 128..512 events
    (run, scale_milli, k, window)
}

#[test]
fn sampled_run_is_bit_identical_across_pool_sizes_and_repeats() {
    let suite = paper_suite();
    Prop::new("simpoint determinism across pool sizes")
        .cases(6)
        .run(gen_case, |&(run, scale_milli, k, window)| {
            let trace = suite[run].generate_scaled(f64::from(scale_milli) / 1000.0);
            let cfg = small_cfg(k, window);
            let serial = simpoint_trace(
                PredictorKind::PpmHyb,
                2048,
                &trace,
                &cfg,
                &Executor::new(POOL_SIZES[0]),
            );
            for &threads in &POOL_SIZES {
                let exec = Executor::new(threads);
                let again = simpoint_trace(PredictorKind::PpmHyb, 2048, &trace, &cfg, &exec);
                prop_assert_eq!(&serial, &again, "{} threads", threads);
                // Same executor, evaluated twice: no state may leak
                // between estimates.
                let repeat = simpoint_trace(PredictorKind::PpmHyb, 2048, &trace, &cfg, &exec);
                prop_assert_eq!(&serial, &repeat, "repeat at {} threads", threads);
            }
            Ok(())
        });
}

#[test]
fn streamed_path_reproduces_trace_path_exactly() {
    // The streamed estimator sees the same events through a resumable
    // generator (signatures on pass 1, checkpoint regeneration on pass
    // 2) — both phases and estimates must be bit-identical to the
    // materialized-trace estimator, and the chained estimator must be
    // repeat-stable on the same prep.
    let suite = paper_suite();
    Prop::new("streamed == trace-based sampling")
        .cases(4)
        .run(gen_case, |&(run, scale_milli, k, window)| {
            let scale = f64::from(scale_milli) / 1000.0;
            let iterations = suite[run].scaled_iterations(scale) as u64;
            let stream = suite[run].stream();
            let trace = Trace::from_events(stream.clone().events(iterations).collect());
            let cfg = small_cfg(k, window);
            let exec = Executor::new(2);
            let from_trace = simpoint_trace(PredictorKind::Cascade, 2048, &trace, &cfg, &exec);
            let from_stream =
                simpoint_streamed(PredictorKind::Cascade, 2048, &stream, iterations, &cfg, &exec);
            prop_assert_eq!(&from_trace, &from_stream, "run {}", run);

            let prep = stream_prep(&stream, iterations, &cfg);
            let chained = simpoint_streamed_chained(PredictorKind::Cascade, 2048, &prep, &cfg);
            let chained_again = simpoint_streamed_chained(PredictorKind::Cascade, 2048, &prep, &cfg);
            prop_assert_eq!(&chained, &chained_again, "chained repeat, run {}", run);
            prop_assert_eq!(
                &chained.phases,
                &from_trace.phases,
                "chained clustering, run {}",
                run
            );
            Ok(())
        });
}

#[test]
fn cluster_weights_partition_the_window_set() {
    let suite = paper_suite();
    Prop::new("weights sum to window count")
        .cases(8)
        .run(gen_case, |&(run, scale_milli, k, window)| {
            let trace = suite[run].generate_scaled(f64::from(scale_milli) / 1000.0);
            let cfg = small_cfg(k, window);
            let set = signatures_of(&trace, &cfg);
            let phases = cluster_signatures(&set, &cfg);
            let weight_sum: u64 = phases.clusters.iter().map(|c| c.weight).sum();
            prop_assert_eq!(
                weight_sum,
                set.windows() as u64,
                "weights must partition {} windows",
                set.windows()
            );
            prop_assert_eq!(phases.assignments.len(), set.windows(), "assignment per window");
            for (w, &unit) in phases.assignments.iter().enumerate() {
                prop_assert!(
                    (unit as usize) < phases.clusters.len(),
                    "window {w} assigned to missing unit {unit}"
                );
            }
            for (i, c) in phases.clusters.iter().enumerate() {
                prop_assert!(c.weight > 0, "unit {i} is empty");
                prop_assert_eq!(
                    phases.assignments[c.representative] as usize,
                    i,
                    "representative {} must belong to its own unit",
                    c.representative
                );
            }
            prop_assert_eq!(set.total_events(), trace.len() as u64, "event accounting");
            Ok(())
        });
}

#[test]
fn k_larger_than_window_count_clamps() {
    let trace = paper_suite()[0].generate_scaled(0.002);
    let cfg = small_cfg(64, 4096); // few windows, absurd k
    let set = signatures_of(&trace, &cfg);
    assert!(set.windows() < 64, "scale too large for the clamp case");
    let phases = cluster_signatures(&set, &cfg);
    assert!(
        phases.clusters.len() <= set.windows() * cfg.strata,
        "units exceed windows × strata"
    );
    let weight_sum: u64 = phases.clusters.iter().map(|c| c.weight).sum();
    assert_eq!(weight_sum, set.windows() as u64);
    // The estimate still works — and with k ≥ windows each window is its
    // own unit, so sampling degenerates to (windowed) full simulation.
    let exec = Executor::new(2);
    let run = simpoint_from_phases(PredictorKind::Btb, 2048, &trace, &phases, &cfg, &exec);
    assert!(run.estimate.predictions > 0);
}

#[test]
fn degenerate_streams_clamp_instead_of_panicking() {
    let cfg = small_cfg(4, 256);
    let exec = Executor::new(2);

    // Empty trace: no windows, no units, a zero estimate.
    let empty = Trace::new();
    let set = signatures_of(&empty, &cfg);
    assert_eq!(set.windows(), 0);
    let phases = cluster_signatures(&set, &cfg);
    assert!(phases.clusters.is_empty());
    let run = simpoint_trace(PredictorKind::PpmHyb, 2048, &empty, &cfg, &exec);
    assert_eq!(run.estimate.predictions, 0);
    assert_eq!(run.estimate.mispredictions, 0);

    // Shorter than one window: exactly one (partial) window, which must
    // be its own representative, making the estimate exact.
    let tiny = Trace::from_events(
        paper_suite()[2]
            .generate_scaled(0.001)
            .events()
            .iter()
            .copied()
            .take(100)
            .collect(),
    );
    assert!(tiny.len() < cfg.window);
    let set = signatures_of(&tiny, &cfg);
    assert_eq!(set.windows(), 1);
    let phases = cluster_signatures(&set, &cfg);
    assert_eq!(phases.clusters.len(), 1);
    assert_eq!(phases.clusters[0].weight, 1);
    let sampled = simpoint_trace(PredictorKind::PpmHyb, 2048, &tiny, &cfg, &exec);
    let full = PredictorKind::PpmHyb.simulate_trace(&tiny);
    assert_eq!(sampled.estimate.predictions, full.predictions());
    assert_eq!(sampled.estimate.mispredictions, full.mispredictions());
}
