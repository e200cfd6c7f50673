//! The batch runner: one call evaluates a whole `inputs × algorithms ×
//! stretches` grid through the unified [`SpannerAlgorithm`] interface.
//!
//! This is the shape every comparison in the paper takes — "run many
//! constructions over many workloads at many stretch targets and tabulate" —
//! extracted so the experiments binary, tests and the benches share one
//! implementation. Cells are produced in a deterministic row-major order
//! (inputs outermost, stretches innermost) **regardless of the worker
//! count**: the grid is enumerated up front and fanned across scoped threads
//! by chunk index ([`spanner_graph::parallel::fill_chunked`]), with every
//! cell written to its own slot. `base_config.threads` (or the
//! `SPANNER_THREADS` env override) sets the worker count; cells get the
//! budget first, and only a grid smaller than the budget passes the
//! leftover into each cell's own construction threads.

use std::time::Duration;

use crate::algorithm::{SpannerAlgorithm, SpannerConfig, SpannerInput, SpannerOutput};
use crate::analysis::{evaluate, SpannerReport};
use crate::error::SpannerError;

/// One cell of the run grid: which (input, algorithm, stretch) combination,
/// and what came out of it.
#[derive(Debug)]
pub struct MatrixCell {
    /// Name of the input workload, as supplied to [`run_matrix`].
    pub input: String,
    /// Algorithm name.
    pub algorithm: String,
    /// The stretch target this cell ran with.
    pub stretch: f64,
    /// The construction result; `Err` carries per-cell failures (a failing
    /// cell never aborts the rest of the grid).
    pub output: Result<SpannerOutput, SpannerError>,
    /// Quality report against the input's reference graph, for successful
    /// cells.
    pub report: Option<SpannerReport>,
}

impl MatrixCell {
    /// Returns `true` if this cell built a spanner.
    pub fn succeeded(&self) -> bool {
        self.output.is_ok()
    }
}

/// Aggregate statistics over every cell of one [`run_matrix`] call — the
/// per-cell numbers rolled up for the experiment tables and CI summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MatrixStats {
    /// Total cells produced (succeeded + failed).
    pub cells: usize,
    /// Cells whose construction returned an error.
    pub failures: usize,
    /// Sum of per-cell construction wall times. With parallel cells this
    /// exceeds the elapsed wall time — the ratio is the achieved cell-level
    /// parallelism.
    pub total_wall_time: Duration,
    /// Total distance queries across all successful cells.
    pub distance_queries: usize,
    /// Total workspace reuse hits across all successful cells.
    pub workspace_reuse_hits: usize,
    /// Total filter-then-commit batches across all successful cells.
    pub batches: usize,
    /// Total batch re-check hits across all successful cells.
    pub batch_recheck_hits: usize,
}

impl MatrixStats {
    /// Cells that built a spanner.
    pub fn succeeded(&self) -> usize {
        self.cells - self.failures
    }

    /// Fraction of cells that succeeded, or `None` for an empty grid — the
    /// empty case is explicit rather than a `0/0` `NaN` (or a misleading
    /// constant) leaking into CI summaries.
    pub fn success_rate(&self) -> Option<f64> {
        (self.cells > 0).then(|| self.succeeded() as f64 / self.cells as f64)
    }

    /// Mean construction wall time over the *successful* cells, or `None`
    /// when no cell succeeded (an all-failed or empty grid has no meaningful
    /// average; the old zero-denominator reading reported `0s`, which looks
    /// like an infinitely fast run).
    pub fn mean_cell_wall_time(&self) -> Option<Duration> {
        let succeeded = self.succeeded();
        (succeeded > 0).then(|| self.total_wall_time / succeeded as u32)
    }

    /// Workspace-reuse hits as a fraction of distance queries, or `None`
    /// when the grid issued no queries (empty, all-failed, or query-free
    /// constructions only).
    pub fn workspace_reuse_rate(&self) -> Option<f64> {
        (self.distance_queries > 0)
            .then(|| self.workspace_reuse_hits as f64 / self.distance_queries as f64)
    }
}

/// Rolls the per-cell statistics of a grid up into one [`MatrixStats`].
pub fn aggregate_stats(cells: &[MatrixCell]) -> MatrixStats {
    let mut agg = MatrixStats {
        cells: cells.len(),
        ..MatrixStats::default()
    };
    for cell in cells {
        match &cell.output {
            Ok(out) => {
                agg.total_wall_time += out.stats.wall_time;
                agg.distance_queries += out.stats.distance_queries;
                agg.workspace_reuse_hits += out.stats.workspace_reuse_hits;
                agg.batches += out.stats.batches;
                agg.batch_recheck_hits += out.stats.batch_recheck_hits;
            }
            Err(_) => agg.failures += 1,
        }
    }
    agg
}

/// Runs every algorithm on every input at every stretch target.
///
/// Combinations an algorithm does not support (per
/// [`SpannerAlgorithm::supports`]) are skipped — they produce no cell, since
/// "Θ-graphs cannot consume abstract metrics" is a property of the grid, not
/// a failure of a run. Real failures (invalid parameters, construction
/// errors) are recorded in the cell's `output`.
///
/// `base_config` supplies the non-stretch parameters (seed, cones, hub, …);
/// each cell derives its config via stretch substitution, with `epsilon` and
/// `k` cleared so they re-derive from the cell's stretch.
/// `base_config.threads` (resolved through
/// [`SpannerConfig::resolve_threads`]) is spent on *cell-level* parallelism
/// first: independent cells run concurrently on scoped threads, and any
/// budget left over when the grid is smaller than the worker count flows
/// into each cell's own construction threads. The returned cell order is
/// identical at every worker count.
pub fn run_matrix(
    inputs: &[(&str, SpannerInput<'_>)],
    algorithms: &[Box<dyn SpannerAlgorithm>],
    stretches: &[f64],
    base_config: &SpannerConfig,
) -> Vec<MatrixCell> {
    // Metric inputs get their complete distance graph materialized once here
    // and shared by every (algorithm, stretch) cell, instead of being
    // re-derived O(n²)-style inside each build. A poisoned input (a metric
    // with NaN / infinite / negative distances) must not abort the grid: its
    // materialization error is held per input and every cell of that input
    // reports it as a per-cell failure.
    let references: Vec<Result<_, spanner_graph::GraphError>> = inputs
        .iter()
        .map(|(_, input)| input.try_to_graph())
        .collect();
    let prepared: Vec<SpannerInput<'_>> = inputs
        .iter()
        .zip(&references)
        .map(|((_, input), reference)| {
            let Ok(reference) = reference else {
                // Cells of a poisoned input short-circuit before build.
                return *input;
            };
            match (input.as_euclidean2(), input.as_metric()) {
                (Some(space), _) => SpannerInput::prepared_euclidean2(space, reference),
                (None, Some(space)) => SpannerInput::Prepared {
                    space,
                    complete: reference,
                    euclidean2: None,
                },
                (None, None) => *input,
            }
        })
        .collect();

    // Enumerate the grid up front so the deterministic row-major cell order
    // is a property of the job list, not of the execution schedule.
    let mut jobs: Vec<(usize, usize, f64)> = Vec::new();
    for (input_index, (_, input)) in inputs.iter().enumerate() {
        for (algorithm_index, algorithm) in algorithms.iter().enumerate() {
            if !algorithm.supports(input) {
                continue;
            }
            for &stretch in stretches {
                jobs.push((input_index, algorithm_index, stretch));
            }
        }
    }

    let workers = base_config.resolve_threads();
    // Cell-level parallelism comes first; only when the grid is smaller
    // than the worker budget does the leftover flow into each cell's own
    // construction (e.g. one cell × 8 workers → an 8-thread build). The
    // product of concurrent cells and per-cell threads never exceeds the
    // budget, so workers are saturated without oversubscription.
    let cell_threads = (workers / jobs.len().max(1)).max(1);
    let build_cell = |job_index: usize| -> Option<MatrixCell> {
        let (input_index, algorithm_index, stretch) = jobs[job_index];
        let algorithm = &algorithms[algorithm_index];
        let config = SpannerConfig {
            stretch,
            epsilon: None,
            k: None,
            threads: cell_threads,
            ..base_config.clone()
        };
        let (output, report) = match &references[input_index] {
            Ok(reference) => {
                let output = algorithm.build(&prepared[input_index], &config);
                let report = output
                    .as_ref()
                    .ok()
                    .map(|out| evaluate(reference, &out.spanner, stretch));
                (output, report)
            }
            // Poisoned input: every cell carries the materialization error.
            Err(e) => (Err(SpannerError::from(e.clone())), None),
        };
        Some(MatrixCell {
            input: inputs[input_index].0.to_owned(),
            algorithm: algorithm.name().to_owned(),
            stretch,
            output,
            report,
        })
    };

    let mut cells: Vec<Option<MatrixCell>> = Vec::new();
    cells.resize_with(jobs.len(), || None);
    spanner_graph::parallel::fill_chunked(workers, &mut cells, build_cell);
    cells
        .into_iter()
        .map(|cell| cell.expect("every job produces a cell"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::registry;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use spanner_graph::generators::erdos_renyi_connected;
    use spanner_metric::generators::uniform_points;

    #[test]
    fn grid_covers_supported_combinations_only() {
        let mut rng = SmallRng::seed_from_u64(31);
        let g = erdos_renyi_connected(25, 0.3, 1.0..5.0, &mut rng);
        let points = uniform_points::<2, _>(25, &mut rng);
        let inputs = [
            ("er-graph", SpannerInput::from(&g)),
            ("uniform-2d", SpannerInput::from(&points)),
        ];
        let algorithms = registry();
        let stretches = [1.5, 3.0];
        let cells = run_matrix(&inputs, &algorithms, &stretches, &SpannerConfig::default());

        // Graph input: greedy, baswana-sen, mst → 3 algorithms × 2 stretches.
        // Point input: all 8 algorithms × 2 stretches.
        assert_eq!(cells.len(), (3 + 8) * 2);
        assert!(cells.iter().all(MatrixCell::succeeded));
        // Cells carry reports, and guaranteed-stretch algorithms meet them.
        for cell in &cells {
            let report = cell
                .report
                .as_ref()
                .expect("successful cells carry reports");
            let out = cell.output.as_ref().unwrap();
            if let Some(bound) = out.provenance.guaranteed_stretch {
                assert!(
                    report.max_stretch <= bound * (1.0 + 1e-9) + 1e-12,
                    "{} on {} at t={}: {} > {bound}",
                    cell.algorithm,
                    cell.input,
                    cell.stretch,
                    report.max_stretch
                );
            }
        }
        // Deterministic row-major order: inputs outermost.
        assert!(cells[..6].iter().all(|c| c.input == "er-graph"));
        assert!(cells[6..].iter().all(|c| c.input == "uniform-2d"));

        let agg = aggregate_stats(&cells);
        assert_eq!(agg.cells, cells.len());
        assert_eq!(agg.failures, 0);
        assert!(agg.distance_queries > 0);
        assert_eq!(agg.workspace_reuse_hits, agg.distance_queries);
    }

    #[test]
    fn parallel_cells_preserve_order_and_results() {
        let mut rng = SmallRng::seed_from_u64(33);
        let g = erdos_renyi_connected(25, 0.3, 1.0..5.0, &mut rng);
        let points = uniform_points::<2, _>(25, &mut rng);
        let inputs = [
            ("er-graph", SpannerInput::from(&g)),
            ("uniform-2d", SpannerInput::from(&points)),
        ];
        let algorithms = registry();
        let stretches = [1.5, 3.0];
        let sequential = run_matrix(&inputs, &algorithms, &stretches, &SpannerConfig::default());
        for threads in [2, 4, 8] {
            let config = SpannerConfig {
                threads,
                ..SpannerConfig::default()
            };
            let parallel = run_matrix(&inputs, &algorithms, &stretches, &config);
            assert_eq!(parallel.len(), sequential.len(), "threads = {threads}");
            for (p, s) in parallel.iter().zip(&sequential) {
                assert_eq!(p.input, s.input);
                assert_eq!(p.algorithm, s.algorithm);
                assert_eq!(p.stretch, s.stretch);
                assert_eq!(p.succeeded(), s.succeeded());
                if let (Ok(po), Ok(so)) = (&p.output, &s.output) {
                    // Every construction in the registry is deterministic
                    // for a fixed config, so parallel cells must reproduce
                    // the sequential grid exactly.
                    assert_eq!(
                        po.spanner, so.spanner,
                        "{} on {} at t={}",
                        p.algorithm, p.input, p.stretch
                    );
                }
            }
        }
    }

    #[test]
    fn aggregate_stats_empty_and_all_failed_cases_are_explicit() {
        // Empty grid: every ratio is None, not NaN / 0-denominator output.
        let empty = aggregate_stats(&[]);
        assert_eq!(empty.cells, 0);
        assert_eq!(empty.succeeded(), 0);
        assert_eq!(empty.success_rate(), None);
        assert_eq!(empty.mean_cell_wall_time(), None);
        assert_eq!(empty.workspace_reuse_rate(), None);

        // All-failed grid (stretch 0.1 is invalid for every stretch-driven
        // construction): averages over successes stay None, the failure
        // count is exact.
        let points = uniform_points::<2, _>(8, &mut SmallRng::seed_from_u64(35));
        let inputs = [("pts", SpannerInput::from(&points))];
        let algorithms = vec![crate::algorithms::by_name("greedy").unwrap()];
        let cells = run_matrix(&inputs, &algorithms, &[0.1], &SpannerConfig::default());
        assert!(cells.iter().all(|c| !c.succeeded()));
        let agg = aggregate_stats(&cells);
        assert_eq!(agg.failures, agg.cells);
        assert_eq!(agg.success_rate(), Some(0.0));
        assert_eq!(agg.mean_cell_wall_time(), None);
        assert_eq!(agg.workspace_reuse_rate(), None);

        // Mixed grid: rates are well defined and within [0, 1].
        let ok = run_matrix(&inputs, &registry(), &[1.5], &SpannerConfig::default());
        let agg = aggregate_stats(&ok);
        let rate = agg.success_rate().unwrap();
        assert!((0.0..=1.0).contains(&rate));
        assert!(agg.mean_cell_wall_time().unwrap() > Duration::ZERO);
        assert_eq!(agg.workspace_reuse_rate(), Some(1.0));
    }

    #[test]
    fn poisoned_metric_input_fails_its_cells_without_aborting_the_grid() {
        use spanner_metric::ExplicitMetric;
        let poisoned = ExplicitMetric::from_fn_unchecked(6, |i, j| {
            if (i.min(j), i.max(j)) == (0, 1) {
                f64::NAN
            } else {
                1.0 + (i * j) as f64
            }
        });
        let mut rng = SmallRng::seed_from_u64(36);
        let g = erdos_renyi_connected(10, 0.4, 1.0..4.0, &mut rng);
        let inputs = [
            ("poisoned", SpannerInput::from(&poisoned)),
            ("healthy", SpannerInput::from(&g)),
        ];
        let cells = run_matrix(&inputs, &registry(), &[2.0], &SpannerConfig::default());
        // The poisoned input's cells all fail with the InvalidWeight error…
        for cell in cells.iter().filter(|c| c.input == "poisoned") {
            assert!(matches!(
                &cell.output,
                Err(crate::error::SpannerError::Graph(
                    spanner_graph::GraphError::InvalidWeight { .. }
                ))
            ));
            assert!(cell.report.is_none());
        }
        // …while the healthy input's cells are untouched by the neighbor.
        assert!(cells
            .iter()
            .filter(|c| c.input == "healthy")
            .all(MatrixCell::succeeded));
        let agg = aggregate_stats(&cells);
        assert!(agg.failures > 0 && agg.succeeded() > 0);
    }

    #[test]
    fn per_cell_failures_do_not_abort_the_grid() {
        let points = uniform_points::<2, _>(10, &mut SmallRng::seed_from_u64(32));
        let inputs = [("pts", SpannerInput::from(&points))];
        let algorithms = registry();
        // Stretch 0.5 is invalid for stretch-driven algorithms; the grid
        // must still produce cells for every supported combination.
        let cells = run_matrix(&inputs, &algorithms, &[0.5], &SpannerConfig::default());
        assert_eq!(cells.len(), 8);
        assert!(cells.iter().any(|c| !c.succeeded()));
        // The baselines without stretch parameters still succeed.
        assert!(cells.iter().any(|c| c.algorithm == "mst" && c.succeeded()));
        let agg = aggregate_stats(&cells);
        assert!(agg.failures > 0 && agg.failures < agg.cells);
    }
}
