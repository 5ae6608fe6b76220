//! Metrics grids: instrumented grid evaluation and its JSON schema.
//!
//! [`metrics_grid_with`] is the observability twin of
//! [`compare_grid_with`](crate::compare::compare_grid_with): the same
//! (run × predictor) product on the same work-stealing pool, but each
//! task runs with an [`ibp_metrics::RecordingProbe`] attached and drains
//! the predictor's internal telemetry afterwards. Cells are committed in
//! grid order and per-predictor totals merge cells in that same order,
//! so the output is bit-identical for any worker count.
//!
//! The JSON schema ([`metrics_to_json`]) is flat and versioned
//! ([`METRICS_SCHEMA_VERSION`]); a golden test in `tests/suite_pins.rs`
//! pins the emitted bytes.

use crate::compare::{at_paper_budget, GridCell, GridResult, GridSetup};
use crate::json::Json;
use crate::zoo::PredictorKind;
use ibp_exec::Executor;
use ibp_metrics::MetricsSnapshot;
use ibp_predictors::IndirectPredictor;
use ibp_workloads::BenchmarkRun;

/// Version stamped into every metrics report. Bump when renaming or
/// restructuring fields so downstream plotting scripts can detect drift.
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// Drains a predictor's internal telemetry (table occupancy, per-order
/// attribution, BIU selector activity, …) into a snapshot via the
/// sink-closure [`IndirectPredictor::report_metrics`] channel.
pub fn predictor_snapshot<P: IndirectPredictor + ?Sized>(predictor: &P) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::new();
    predictor.report_metrics(&mut |name, value| snap.add_counter(name, value));
    snap
}

/// One instrumented grid cell: everything observed while simulating one
/// predictor over one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsCell {
    /// Benchmark run label.
    pub run: String,
    /// Predictor label.
    pub predictor: String,
    /// Probe counters/histograms merged with the predictor's own
    /// telemetry.
    pub snapshot: MetricsSnapshot,
}

/// Per-cell metrics for a full (benchmark × predictor) grid, in grid
/// (row-major: run, then predictor) order.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsGrid {
    predictors: Vec<String>,
    runs: Vec<String>,
    scale: f64,
    cells: Vec<MetricsCell>,
}

impl MetricsGrid {
    /// Reassembles a grid from its parts.
    pub fn from_parts(
        predictors: Vec<String>,
        runs: Vec<String>,
        scale: f64,
        cells: Vec<MetricsCell>,
    ) -> Self {
        Self {
            predictors,
            runs,
            scale,
            cells,
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

    /// The trace scale the grid was evaluated at.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// All cells, in grid order.
    pub fn cells(&self) -> &[MetricsCell] {
        &self.cells
    }

    /// The snapshot for (run, predictor), if present.
    pub fn cell(&self, run: &str, predictor: &str) -> Option<&MetricsSnapshot> {
        self.cells
            .iter()
            .find(|c| c.run == run && c.predictor == predictor)
            .map(|c| &c.snapshot)
    }

    /// Per-predictor totals: each predictor's cells merged in grid-index
    /// order (never completion order), so totals are independent of how
    /// the grid was scheduled. Snapshot merge is also order-independent
    /// by construction, making this doubly deterministic.
    pub fn totals(&self) -> Vec<(String, MetricsSnapshot)> {
        self.predictors
            .iter()
            .map(|label| {
                let mut total = MetricsSnapshot::new();
                for cell in self.cells.iter().filter(|c| &c.predictor == label) {
                    total.merge(&cell.snapshot);
                }
                (label.clone(), total)
            })
            .collect()
    }
}

/// Instrumented form of [`compare_grid`](crate::compare::compare_grid):
/// evaluates the grid with recording probes attached and returns both the
/// ordinary result grid and the per-cell metrics.
///
/// The result grid is bit-identical to the uninstrumented one — probes
/// observe, they do not steer — which `tests/differential.rs` checks
/// byte-for-byte across serializations and pool sizes.
pub fn metrics_grid(
    kinds: &[PredictorKind],
    runs: &[BenchmarkRun],
    scale: f64,
) -> (GridResult, MetricsGrid) {
    metrics_grid_with(&Executor::from_env(), kinds, runs, scale)
}

/// [`metrics_grid`] on an explicit executor. Mirrors
/// [`compare_grid_with`](crate::compare::compare_grid_with): trace
/// generation fans out over runs, every (run, predictor) pair is one
/// pool task, and both grids commit cells in row-major grid order.
pub fn metrics_grid_with(
    exec: &Executor,
    kinds: &[PredictorKind],
    runs: &[BenchmarkRun],
    scale: f64,
) -> (GridResult, MetricsGrid) {
    let setup = GridSetup::new(exec, runs, scale);
    let pairs = setup.cells(exec, &at_paper_budget(kinds), |run, kind, _, trace| {
        let (result, snapshot) = kind.simulate_trace_metrics(trace);
        let metrics_cell = MetricsCell {
            run: run.to_string(),
            predictor: result.predictor().to_string(),
            snapshot,
        };
        (GridCell::from_result(run, &result), metrics_cell)
    });
    let (grid_cells, metric_cells) = pairs.into_iter().unzip();
    let predictors: Vec<String> = kinds.iter().map(|k| k.label()).collect();
    (
        GridResult::from_parts(predictors.clone(), setup.run_labels.clone(), grid_cells),
        MetricsGrid::from_parts(predictors, setup.run_labels, scale, metric_cells),
    )
}

fn snapshot_counters(snap: &MetricsSnapshot) -> Json {
    Json::Arr(
        snap.counters()
            .iter()
            .map(|(name, value)| {
                Json::obj([("name", Json::Str(name.clone())), ("value", Json::UInt(*value))])
            })
            .collect(),
    )
}

fn snapshot_histograms(snap: &MetricsSnapshot) -> Json {
    Json::Arr(
        snap.histograms()
            .iter()
            .map(|(name, hist)| {
                let buckets = hist
                    .nonzero()
                    .map(|(b, c)| Json::Arr(vec![Json::UInt(b as u64), Json::UInt(c)]))
                    .collect();
                Json::obj([
                    ("name", Json::Str(name.clone())),
                    ("count", Json::UInt(hist.count())),
                    ("total", Json::UInt(hist.total())),
                    ("buckets", Json::Arr(buckets)),
                ])
            })
            .collect(),
    )
}

/// Serializes a [`MetricsGrid`] as compact JSON.
///
/// Schema (version [`METRICS_SCHEMA_VERSION`]):
/// `{"schema_version":u64,"scale":f64,"predictors":[str],"runs":[str],`
/// `"cells":[{"run":str,"predictor":str,"counters":[{"name":str,`
/// `"value":u64}],"histograms":[{"name":str,"count":u64,"total":u64,`
/// `"buckets":[[bucket,count]]}]}],"totals":[{"predictor":str,`
/// `"counters":[...],"histograms":[...]}]}` — cells in grid order,
/// counters/histograms name-sorted, histogram buckets ascending with
/// empty buckets elided, so the bytes are stable for a given grid.
pub fn metrics_to_json(grid: &MetricsGrid) -> String {
    let strings =
        |items: &[String]| Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect());
    let cells = grid
        .cells()
        .iter()
        .map(|c| {
            Json::obj([
                ("run", Json::Str(c.run.clone())),
                ("predictor", Json::Str(c.predictor.clone())),
                ("counters", snapshot_counters(&c.snapshot)),
                ("histograms", snapshot_histograms(&c.snapshot)),
            ])
        })
        .collect();
    let totals = grid
        .totals()
        .iter()
        .map(|(predictor, snap)| {
            Json::obj([
                ("predictor", Json::Str(predictor.clone())),
                ("counters", snapshot_counters(snap)),
                ("histograms", snapshot_histograms(snap)),
            ])
        })
        .collect();
    Json::obj([
        ("schema_version", Json::UInt(METRICS_SCHEMA_VERSION)),
        ("scale", Json::Num(grid.scale)),
        ("predictors", strings(grid.predictors())),
        ("runs", strings(grid.runs())),
        ("cells", Json::Arr(cells)),
        ("totals", Json::Arr(totals)),
    ])
    .emit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibp_predictors::Btb;
    use ibp_workloads::paper_suite;

    #[test]
    fn predictor_snapshot_drains_table_telemetry() {
        let mut btb = Btb::new(64);
        btb.update(ibp_isa::Addr::new(0x40), ibp_isa::Addr::new(0x900));
        let snap = predictor_snapshot(&btb);
        assert_eq!(snap.counter("table_entries"), 64);
        assert_eq!(snap.counter("table_occupancy"), 1);
        assert_eq!(snap.counter("table_evictions"), 0);
    }

    #[test]
    fn grid_cells_and_totals_cover_product() {
        let runs = &paper_suite()[..2];
        let kinds = [PredictorKind::Btb, PredictorKind::PpmHyb];
        let (grid, metrics) = metrics_grid(&kinds, runs, 0.01);
        assert_eq!(metrics.cells().len(), 4);
        assert_eq!(metrics.scale(), 0.01);
        for cell in metrics.cells() {
            assert!(cell.snapshot.counter("sim_events") > 0, "{}", cell.run);
            assert_eq!(
                cell.snapshot.counter("sim_predictions"),
                grid.cells()
                    .iter()
                    .find(|g| g.run == cell.run && g.predictor == cell.predictor)
                    .map(|g| g.predictions)
                    .unwrap_or(0),
                "probe and result disagree on predictions"
            );
        }
        // PPM-hyb cells expose per-order attribution; BTB cells don't.
        let run0 = metrics.runs()[0].clone();
        let ppm = metrics.cell(&run0, "PPM-hyb").expect("cell present");
        assert!(ppm.counter("stack_entries") > 0);
        assert!(ppm.counter("biu_entries") > 0);
        let btb = metrics.cell(&run0, "BTB").expect("cell present");
        assert_eq!(btb.counter("stack_entries"), 0);
        assert!(btb.counter("table_occupancy") > 0);

        // Totals are per-predictor sums of cell counters.
        let totals = metrics.totals();
        assert_eq!(totals.len(), 2);
        for (label, total) in &totals {
            let sum: u64 = metrics
                .cells()
                .iter()
                .filter(|c| &c.predictor == label)
                .map(|c| c.snapshot.counter("sim_predictions"))
                .sum();
            assert_eq!(total.counter("sim_predictions"), sum, "{label}");
        }
    }

    #[test]
    fn metrics_grid_is_identical_across_pool_sizes() {
        let runs = &paper_suite()[..2];
        let kinds = [PredictorKind::Btb, PredictorKind::PpmHyb];
        let (base_grid, base_metrics) =
            metrics_grid_with(&Executor::new(1), &kinds, runs, 0.01);
        for threads in [2, 5] {
            let (grid, metrics) =
                metrics_grid_with(&Executor::new(threads), &kinds, runs, 0.01);
            assert_eq!(base_grid, grid, "{threads} threads");
            assert_eq!(base_metrics, metrics, "{threads} threads");
            assert_eq!(
                metrics_to_json(&base_metrics),
                metrics_to_json(&metrics),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn json_schema_is_versioned_and_parseable() {
        let runs = &paper_suite()[..1];
        let (_, metrics) = metrics_grid(&[PredictorKind::Btb], runs, 0.01);
        let text = metrics_to_json(&metrics);
        let value = Json::parse(&text).expect("emitted JSON parses");
        assert_eq!(
            value.get("schema_version").and_then(Json::as_u64),
            Some(METRICS_SCHEMA_VERSION)
        );
        assert_eq!(value.get("scale").and_then(Json::as_f64), Some(0.01));
        let cells = value.get("cells").and_then(Json::as_arr).expect("cells");
        assert_eq!(cells.len(), 1);
        let counters = cells[0]
            .get("counters")
            .and_then(Json::as_arr)
            .expect("counters");
        assert!(!counters.is_empty());
        assert!(value.get("totals").and_then(Json::as_arr).is_some());
    }
}
