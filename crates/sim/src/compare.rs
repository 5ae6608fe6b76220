//! Predictor × benchmark comparison grids (Figures 6 and 7).
//!
//! Grid evaluation runs on the [`ibp_exec`] work-stealing pool: trace
//! generation parallelizes over benchmark runs, then the full
//! (run × predictor) product is scheduled as fine-grained tasks so a slow
//! predictor on one run no longer serializes an entire row. Results are
//! committed in grid order, which makes the parallel output bit-identical
//! to a serial evaluation regardless of worker count or scheduling.

use crate::runner::RunResult;
use crate::zoo::PredictorKind;
use ibp_exec::{Executor, FastMap};
use ibp_trace::Trace;
use ibp_workloads::BenchmarkRun;

/// One cell of a comparison grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Benchmark run label.
    pub run: String,
    /// Predictor label.
    pub predictor: String,
    /// Misprediction ratio in 0..=1.
    pub ratio: f64,
    /// Predicted branches.
    pub predictions: u64,
}

/// A full (benchmark × predictor) grid.
#[derive(Debug, Clone)]
pub struct GridResult {
    predictors: Vec<String>,
    runs: Vec<String>,
    cells: Vec<GridCell>,
    /// run label -> predictor label -> cell index, built once at
    /// construction so [`GridResult::ratio`] is O(1) instead of a scan
    /// over every cell. Keeps the first cell for a duplicated
    /// (run, predictor) pair, matching the old linear-search semantics.
    index: FastMap<String, FastMap<String, usize>>,
}

impl PartialEq for GridResult {
    fn eq(&self, other: &Self) -> bool {
        // The index is derived from the cells; comparing it would be
        // redundant.
        self.predictors == other.predictors
            && self.runs == other.runs
            && self.cells == other.cells
    }
}

impl GridResult {
    /// Reassembles a grid from its parts — the inverse of the accessors,
    /// used by the JSON report codec.
    pub fn from_parts(predictors: Vec<String>, runs: Vec<String>, cells: Vec<GridCell>) -> Self {
        let mut index: FastMap<String, FastMap<String, usize>> = FastMap::new();
        for (i, cell) in cells.iter().enumerate() {
            index
                .or_default(cell.run.clone())
                .or_insert_with(cell.predictor.clone(), || i);
        }
        Self {
            predictors,
            runs,
            cells,
            index,
        }
    }

    /// Predictor labels, in lineup order.
    pub fn predictors(&self) -> &[String] {
        &self.predictors
    }

    /// Benchmark run labels, in suite order.
    pub fn runs(&self) -> &[String] {
        &self.runs
    }

    /// All cells.
    pub fn cells(&self) -> &[GridCell] {
        &self.cells
    }

    /// The ratio for (run, predictor), if present. O(1): resolved through
    /// the index built at construction.
    pub fn ratio(&self, run: &str, predictor: &str) -> Option<f64> {
        let i = *self.index.get(run)?.get(predictor)?;
        Some(self.cells[i].ratio)
    }

    /// The arithmetic-mean misprediction ratio of a predictor across all
    /// runs (the paper reports per-predictor averages this way).
    pub fn mean_ratio(&self, predictor: &str) -> Option<f64> {
        let ratios: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.predictor == predictor)
            .map(|c| c.ratio)
            .collect();
        if ratios.is_empty() {
            return None;
        }
        Some(ratios.iter().sum::<f64>() / ratios.len() as f64)
    }

    /// Predictors ranked by mean ratio, best (lowest) first.
    pub fn ranking(&self) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = self
            .predictors
            .iter()
            .filter_map(|p| self.mean_ratio(p).map(|r| (p.clone(), r)))
            .collect();
        v.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("ratios are finite"));
        v
    }
}

impl GridCell {
    /// The cell for one run's simulation result.
    pub(crate) fn from_result(run: &str, result: &RunResult) -> Self {
        GridCell {
            run: run.to_string(),
            predictor: result.predictor().to_string(),
            ratio: result.misprediction_ratio(),
            predictions: result.predictions(),
        }
    }
}

/// The predictor-independent half of every grid: run labels and the
/// traces, generated in parallel over benchmark runs (`scale = 1.0` is
/// the full figure trace: `generate_scaled(1.0)` runs exactly
/// `generate()`'s iteration count).
pub(crate) struct GridSetup {
    pub(crate) run_labels: Vec<String>,
    pub(crate) traces: Vec<Trace>,
}

impl GridSetup {
    pub(crate) fn new(exec: &Executor, runs: &[BenchmarkRun], scale: f64) -> Self {
        GridSetup {
            run_labels: runs.iter().map(|r| r.label()).collect(),
            traces: exec.map(runs, |_, run| run.generate_scaled(scale)),
        }
    }

    /// Evaluates `cell` for every (run, `(kind, entries)`) pair, one pool
    /// task per pair, committed in row-major (run, then lineup) order so
    /// the result is bit-identical to a serial evaluation for any worker
    /// count.
    pub(crate) fn cells<T, F>(
        &self,
        exec: &Executor,
        lineup: &[(PredictorKind, usize)],
        cell: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(&str, PredictorKind, usize, &Trace) -> T + Sync,
    {
        exec.run(self.traces.len() * lineup.len(), |i| {
            let (run_idx, kind_idx) = (i / lineup.len(), i % lineup.len());
            let (kind, entries) = lineup[kind_idx];
            cell(&self.run_labels[run_idx], kind, entries, &self.traces[run_idx])
        })
    }
}

/// Every kind at the paper's 2K-entry budget.
pub(crate) fn at_paper_budget(kinds: &[PredictorKind]) -> Vec<(PredictorKind, usize)> {
    kinds.iter().map(|&k| (k, 2048)).collect()
}

/// Runs every predictor kind over every benchmark run at `scale` of the
/// full trace size. `scale = 1.0` reproduces the figures; tests use small
/// scales.
///
/// Uses a work-stealing pool sized from the environment (see
/// [`ibp_exec::thread_count`]; pin with `IBP_THREADS=n`). Equivalent to
/// [`compare_grid_with`] on [`Executor::from_env`].
pub fn compare_grid(kinds: &[PredictorKind], runs: &[BenchmarkRun], scale: f64) -> GridResult {
    compare_grid_with(&Executor::from_env(), kinds, runs, scale)
}

/// [`compare_grid`] on an explicit executor.
///
/// Two parallel stages: trace generation fans out over benchmark runs,
/// then every (run, predictor) pair becomes one task on the pool — a slow
/// predictor occupies one worker while the rest of the product proceeds.
/// Each task monomorphizes its simulation loop via
/// [`PredictorKind::simulate_events`]. Cells are committed in row-major
/// (run, then predictor) grid order, so the result is bit-identical to a
/// serial evaluation for any worker count.
pub fn compare_grid_with(
    exec: &Executor,
    kinds: &[PredictorKind],
    runs: &[BenchmarkRun],
    scale: f64,
) -> GridResult {
    compare_lineup(exec, &at_paper_budget(kinds), runs, scale)
}

/// [`compare_grid_with`] at an equal-bits budget: every kind is resized
/// to the largest configuration whose realized storage cost fits
/// `budget_bits` (see [`PredictorKind::entries_for_budget`]), so the
/// figure compares predictors at the same declared bit budget instead of
/// the same entry count. Kinds that cannot fit the budget even at the
/// 64-entry floor are dropped from the grid.
pub fn compare_grid_at_bits(
    exec: &Executor,
    kinds: &[PredictorKind],
    runs: &[BenchmarkRun],
    scale: f64,
    budget_bits: u64,
) -> GridResult {
    let lineup: Vec<(PredictorKind, usize)> = kinds
        .iter()
        .filter_map(|&k| k.entries_for_budget(budget_bits).map(|e| (k, e)))
        .collect();
    compare_lineup(exec, &lineup, runs, scale)
}

fn compare_lineup(
    exec: &Executor,
    lineup: &[(PredictorKind, usize)],
    runs: &[BenchmarkRun],
    scale: f64,
) -> GridResult {
    let setup = GridSetup::new(exec, runs, scale);
    let cells = setup.cells(exec, lineup, |run, kind, entries, trace| {
        GridCell::from_result(run, &kind.simulate_events(entries, trace.iter().copied()))
    });
    let predictors = lineup.iter().map(|(k, _)| k.label()).collect();
    GridResult::from_parts(predictors, setup.run_labels, cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_workloads::paper_suite;

    #[test]
    fn grid_covers_all_cells() {
        let runs = &paper_suite()[..2];
        let kinds = [PredictorKind::Btb, PredictorKind::TcPib];
        let grid = compare_grid(&kinds, runs, 0.01);
        assert_eq!(grid.cells().len(), 4);
        assert_eq!(grid.predictors().len(), 2);
        assert_eq!(grid.runs().len(), 2);
        for cell in grid.cells() {
            assert!(cell.predictions > 0);
            assert!((0.0..=1.0).contains(&cell.ratio));
        }
    }

    #[test]
    fn mean_and_ranking() {
        let runs = &paper_suite()[..2];
        let kinds = [PredictorKind::Btb, PredictorKind::TcPib];
        let grid = compare_grid(&kinds, runs, 0.01);
        let mean_btb = grid.mean_ratio("BTB").unwrap();
        let mean_tc = grid.mean_ratio("TC-PIB").unwrap();
        assert!(mean_btb > 0.0 && mean_tc > 0.0);
        let ranking = grid.ranking();
        assert_eq!(ranking.len(), 2);
        assert!(ranking[0].1 <= ranking[1].1);
        assert!(grid.mean_ratio("nope").is_none());
    }

    #[test]
    fn ratio_lookup() {
        let runs = &paper_suite()[..1];
        let grid = compare_grid(&[PredictorKind::Btb], runs, 0.01);
        let label = runs[0].label();
        assert!(grid.ratio(&label, "BTB").is_some());
        assert!(grid.ratio(&label, "PPM-hyb").is_none());
    }

    #[test]
    fn ratio_index_keeps_first_duplicate() {
        // A malformed grid with a duplicated (run, predictor) pair must
        // resolve to the first cell, like the linear scan it replaced.
        let cell = |ratio| GridCell {
            run: "r".into(),
            predictor: "p".into(),
            ratio,
            predictions: 1,
        };
        let grid = GridResult::from_parts(
            vec!["p".into()],
            vec!["r".into()],
            vec![cell(0.25), cell(0.75)],
        );
        assert_eq!(grid.ratio("r", "p"), Some(0.25));
        assert_eq!(grid.ratio("r", "q"), None);
        assert_eq!(grid.ratio("s", "p"), None);
    }

    #[test]
    fn equal_bits_grid_sizes_by_storage_cost() {
        let runs = &paper_suite()[..1];
        let kinds = [
            PredictorKind::Btb,
            PredictorKind::TcPib,
            PredictorKind::Ittage64(8),
        ];
        // 8KB of storage: every kind fits, and the entry-sized kinds
        // must actually sit within the bit budget they were solved for.
        let budget = 8 * 8 * 1024;
        for kind in [PredictorKind::Btb, PredictorKind::TcPib] {
            let entries = kind.entries_for_budget(budget).expect("fits");
            let cost = kind.build_with_entries(entries).cost();
            assert!(cost.bits() <= budget, "{kind:?}: {} > {budget}", cost.bits());
            // One step larger must overshoot (maximality).
            let bigger = kind.build_with_entries(entries + entries / 8 + 64).cost();
            assert!(bigger.bits() > budget, "{kind:?} not maximal");
        }
        let grid = compare_grid_at_bits(&Executor::new(1), &kinds, runs, 0.01, budget);
        assert_eq!(grid.predictors().len(), 3);
        assert_eq!(grid.cells().len(), 3);
        // A budget below the 64-entry floor drops the entry-sized kinds
        // and the (8KB-declared) ITTAGE.
        let tiny = compare_grid_at_bits(&Executor::new(1), &kinds, runs, 0.01, 1024);
        assert!(tiny.predictors().is_empty());
    }

    #[test]
    fn entries_for_budget_is_monotone() {
        for kind in [PredictorKind::Btb2b, PredictorKind::PpmHyb] {
            let mut prev = 0usize;
            for budget in [1u64 << 14, 1 << 16, 1 << 18, 1 << 20] {
                let entries = kind.entries_for_budget(budget).expect("fits");
                assert!(entries >= prev, "{kind:?}: shrank at {budget}");
                prev = entries;
            }
        }
    }

    #[test]
    fn parallel_grid_is_bit_identical_to_serial() {
        let runs = &paper_suite()[..2];
        let kinds = [
            PredictorKind::Btb,
            PredictorKind::TcPib,
            PredictorKind::PpmHyb,
        ];
        let serial = compare_grid_with(&Executor::new(1), &kinds, runs, 0.01);
        for threads in [2, 5] {
            let parallel = compare_grid_with(&Executor::new(threads), &kinds, runs, 0.01);
            assert_eq!(serial, parallel, "{threads} threads");
        }
    }
}
