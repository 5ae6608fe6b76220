//! The repository's benchmark: workloads over the simulator and the
//! serve plane. End-to-end metrics are measured with tracing off; a
//! separate traced run (`--trace 1`) records spans around the calls into
//! each layer and derives the per-layer metrics from them. Every run
//! checks its outputs against a reference computed by a second public
//! path. `README.md` in this directory documents the workloads, the
//! metrics and what is deliberately left unmeasured.

mod fig6_grid;
pub mod report;
mod serve_mux;
pub mod spans;
pub mod stats;

use ibp_sim::RunResult;
use ibp_workloads::{paper_suite, BenchmarkSpec};
use report::Outcome;
use std::time::{Duration, Instant};

/// The workloads `BENCHMARK.json` declares.
pub const WORKLOADS: [&str; 2] = ["fig6_grid", "serve_mux"];

/// How one workload run is configured.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: it perturbs every program model's PRNG seed (seed 0
    /// keeps the paper suite's own seeds) and drives every other random
    /// choice the workload makes.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Run the traced variant and report per-layer metrics.
    pub trace: bool,
    /// Shrink every input to a few milliseconds of work (for tests).
    pub quick: bool,
    /// Perturb the reference before the comparison, to prove that the
    /// correctness wall trips.
    pub corrupt_reference: bool,
}

impl Config {
    /// The measured-phase length as a `Duration`.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds.max(0.0))
    }
}

/// Runs the named workload; `None` for an unknown name.
pub fn run(workload: &str, cfg: &Config) -> Option<Outcome> {
    Some(match workload {
        "fig6_grid" => fig6_grid::run(cfg),
        "serve_mux" => serve_mux::run(cfg),
        _ => return None,
    })
}

/// The paper's spec with its PRNG seed perturbed by the workload seed
/// (unchanged for seed 0).
pub(crate) fn seeded_spec(spec: &BenchmarkSpec, seed: u64) -> BenchmarkSpec {
    let mut spec = spec.clone();
    if seed != 0 {
        let mut state = spec.seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        spec.seed = ibp_testkit::splitmix64(&mut state);
    }
    spec
}

/// The fifteen paper runs, seeded.
pub(crate) fn seeded_suite(seed: u64) -> Vec<BenchmarkSpec> {
    paper_suite()
        .iter()
        .map(|run| seeded_spec(run.spec(), seed))
        .collect()
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
pub(crate) fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Pins the calling thread, and every thread it starts afterwards, to
/// the lowest-numbered CPU it may run on; returns that CPU, or `None`
/// where pinning is not available.
#[cfg(target_os = "linux")]
pub(crate) fn pin_to_one_cpu() -> Option<usize> {
    /// Words in a `cpu_set_t` (1024 bits).
    const WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, the
    // size of a `cpu_set_t`; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes, the
    // size of a `cpu_set_t`; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Pinning is only implemented for Linux.
#[cfg(not(target_os = "linux"))]
pub(crate) fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Times `reps` repetitions of `f`, returning every duration in seconds
/// and the last repetition's value. Each repetition's value is dropped
/// before the next one starts, so only one is ever alive.
pub(crate) fn repeat_timed<T>(reps: usize, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        let value = f();
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    (times, last.expect("at least one repetition ran"))
}

/// Repeats `f` until `budget` has elapsed (at least `min_reps` times),
/// returning each repetition's value and duration in seconds.
pub(crate) fn repeat_for<T>(
    budget: Duration,
    min_reps: usize,
    mut f: impl FnMut() -> T,
) -> Vec<(T, f64)> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || start.elapsed() < budget {
        let t = Instant::now();
        let value = f();
        out.push((value, t.elapsed().as_secs_f64()));
    }
    out
}

/// Misprediction percentage of a set of results (mean of the ratios).
pub(crate) fn mean_ratio_pct(ratios: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for r in ratios {
        sum += r;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        100.0 * sum / n as f64
    }
}

/// `r` with one more misprediction: how a test corrupts a reference.
pub(crate) fn perturbed(r: &RunResult) -> RunResult {
    RunResult::from_parts(
        r.predictor().to_string(),
        r.predictions(),
        r.mispredictions() + 1,
        r.branches()
            .into_iter()
            .map(|(pc, p, m)| (pc.raw(), (p, m))),
    )
}

/// 64-bit FNV-1a over a sequence of counters: the pins' fingerprint.
pub(crate) fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Tracing overhead in percent: how much slower the traced phase ran.
pub(crate) fn overhead_pct(untraced_per_s: f64, traced_per_s: f64) -> f64 {
    if untraced_per_s > 0.0 {
        100.0 * (untraced_per_s - traced_per_s) / untraced_per_s
    } else {
        0.0
    }
}
