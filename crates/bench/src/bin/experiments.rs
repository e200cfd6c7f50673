//! Prints every experiment table (ids E1–E12) to stdout: the Figure 1
//! instance, the size/lightness corollaries, the doubling-metric results,
//! the approximate-greedy comparison, the baseline comparison, the full
//! algorithm matrix (E10), the serving-layer table (E11: qps / cache hit
//! rate / latency over uniform, Zipf and mixed read workloads), and the
//! live-update table (E12: a server interleaving query and update batches —
//! admissions, greedy rebuilds, epochs, stale cache evictions — checked
//! round-by-round against a from-scratch rebuild). No copy of the tables is
//! committed yet; doing so is ROADMAP item 2.
//!
//! Every construction is dispatched through the unified
//! [`SpannerAlgorithm`](greedy_spanner::SpannerAlgorithm) pipeline — the
//! builder for single runs, [`algorithms::registry`] +
//! [`greedy_spanner::run_matrix`] for the comparative tables —
//! so adding a construction to the registry automatically adds it to the
//! comparison experiments.
//!
//! Run with `cargo run --release -p spanner-bench --bin experiments`.
//! Pass a subset of experiment ids (e.g. `e1 e5`) to run only those.
//!
//! **Threads.** Every construction honors the `SPANNER_THREADS` environment
//! variable (the tables use configs that leave `threads` at 0, so
//! [`SpannerConfig::resolve_threads`] reads the env): greedy and
//! approximate greedy on metric inputs run the batched filter-then-commit
//! loop with that many workers (graph inputs run the sequential loop), and
//! the E10 batch runner spends the same budget on cell-level parallelism. Outputs
//! are bit-identical at every thread count — `SPANNER_THREADS=8` changes
//! how fast the tables regenerate, never a number in them (wall-time
//! columns aside).

use rand::rngs::SmallRng;
use rand::SeedableRng;

use greedy_spanner::algorithms;
use greedy_spanner::analysis::{evaluate, lightness, max_stretch_all_pairs};
use greedy_spanner::optimality::{cage_overlay_instances, contains_mst, is_own_unique_spanner};
use greedy_spanner::{run_matrix, Spanner, SpannerConfig, SpannerInput};
use spanner_bench::tables::{fmt_f, Table};
use spanner_bench::workloads::{
    clustered_square, geometric_graph, random_graph, uniform_cube_3d, uniform_square, DEFAULT_SEED,
};
use spanner_graph::metric_closure::metric_closure;
use spanner_graph::mst::mst_weight;
use spanner_metric::doubling::estimate_doubling_dimension;
use spanner_metric::generators::star_metric;
use spanner_metric::MetricSpace;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id);

    println!(
        "Greedy-spanner reproduction — experiment tables (seed {DEFAULT_SEED}, \
         {} worker thread(s); override with SPANNER_THREADS — outputs are \
         thread-count invariant)\n",
        SpannerConfig::default().resolve_threads()
    );
    if want("e1") {
        println!("{}", experiment_e1().render());
    }
    if want("e2") {
        println!("{}", experiment_e2().render());
    }
    if want("e3") {
        println!("{}", experiment_e3().render());
    }
    if want("e4") {
        println!("{}", experiment_e4().render());
    }
    if want("e5") {
        println!("{}", experiment_e5().render());
    }
    if want("e6") {
        println!("{}", experiment_e6_quality().render());
        println!("{}", experiment_e6_runtime().render());
    }
    if want("e7") {
        println!("{}", experiment_e7().render());
    }
    if want("e8") {
        println!("{}", experiment_e8().render());
    }
    if want("e9") {
        println!("{}", experiment_e9().render());
    }
    if want("e10") {
        println!("{}", experiment_e10().render());
    }
    if want("e11") {
        println!("{}", experiment_e11().render());
    }
    if want("e12") {
        println!("{}", experiment_e12().render());
    }
}

/// E1 — Figure 1: the greedy 3-spanner of the Petersen + star instance keeps
/// every high-girth edge while the optimal spanner is the star.
fn experiment_e1() -> Table {
    let mut table = Table::new(
        "E1: Figure 1 — greedy keeps the high-girth graph, optimum is the star",
        &[
            "instance",
            "t",
            "|E(G)|",
            "greedy edges",
            "H edges kept",
            "greedy weight",
            "star weight",
        ],
    );
    for (name, inst) in cage_overlay_instances(0.1).expect("valid epsilon") {
        let h_only = inst
            .graph
            .filter_edges(|_, e| inst.h_edge_keys.contains(&e.key()));
        let girth = spanner_graph::girth::girth(&h_only).expect("cages have cycles");
        let t = (girth - 2) as f64;
        let greedy = Spanner::greedy()
            .stretch(t)
            .build(&inst.graph)
            .expect("valid stretch");
        table.add_row(vec![
            name,
            fmt_f(t),
            inst.graph.num_edges().to_string(),
            greedy.spanner.num_edges().to_string(),
            inst.count_h_edges_in(&greedy.spanner).to_string(),
            fmt_f(greedy.spanner.total_weight()),
            fmt_f(inst.star_weight()),
        ]);
    }
    table
}

/// E2 — Corollary 4: size and lightness of the greedy (2k−1)(1+ε)-spanner on
/// random graphs, against the `n^{1+1/k}` / `n^{1/k}` shapes.
fn experiment_e2() -> Table {
    let mut table = Table::new(
        "E2: Corollary 4 — greedy (2k-1)(1+eps) spanner, eps = 0.5, random graphs",
        &[
            "n",
            "k",
            "t",
            "|E(G)|",
            "edges",
            "n^(1+1/k)",
            "edges/n^(1+1/k)",
            "lightness",
            "n^(1/k)",
            "max stretch",
        ],
    );
    for &n in &[200usize, 400, 800] {
        for &k in &[2usize, 3, 5] {
            let g = random_graph(n, DEFAULT_SEED + k as u64);
            let t = (2 * k - 1) as f64 * 1.5;
            let greedy = Spanner::greedy()
                .stretch(t)
                .build(&g)
                .expect("valid stretch");
            let report = evaluate(&g, &greedy.spanner, t);
            let size_bound = (n as f64).powf(1.0 + 1.0 / k as f64);
            table.add_row(vec![
                n.to_string(),
                k.to_string(),
                fmt_f(t),
                g.num_edges().to_string(),
                report.summary.num_edges.to_string(),
                fmt_f(size_bound),
                fmt_f(report.summary.num_edges as f64 / size_bound),
                fmt_f(report.summary.lightness),
                fmt_f((n as f64).powf(1.0 / k as f64)),
                fmt_f(report.max_stretch),
            ]);
        }
    }
    table
}

/// E3 — Corollary 5: the greedy O(log n / δ)-spanner has O(n) edges and
/// lightness at most 1 + δ.
fn experiment_e3() -> Table {
    let mut table = Table::new(
        "E3: Corollary 5 — greedy O(log n / delta) spanner: linear size, lightness <= 1 + delta",
        &[
            "n",
            "delta",
            "t",
            "edges",
            "edges/n",
            "lightness",
            "1+delta",
        ],
    );
    for &n in &[200usize, 500, 1000] {
        for &delta in &[0.1f64, 0.25, 0.5, 1.0] {
            let g = random_graph(n, DEFAULT_SEED + 17);
            let t = (n as f64).log2() / delta;
            let greedy = Spanner::greedy()
                .stretch(t)
                .build(&g)
                .expect("valid stretch");
            let light = lightness(&g, &greedy.spanner);
            table.add_row(vec![
                n.to_string(),
                fmt_f(delta),
                fmt_f(t),
                greedy.spanner.num_edges().to_string(),
                fmt_f(greedy.spanner.num_edges() as f64 / n as f64),
                fmt_f(light),
                fmt_f(1.0 + delta),
            ]);
        }
    }
    table
}

/// E4 — Lemma 3: the greedy spanner is its own unique t-spanner; generic
/// graphs are not.
fn experiment_e4() -> Table {
    let mut table = Table::new(
        "E4: Lemma 3 — the only t-spanner of the greedy t-spanner is itself",
        &[
            "n",
            "t",
            "graph",
            "greedy self-optimal",
            "input graph self-optimal",
        ],
    );
    for &(n, name) in &[(100usize, "random"), (100, "geometric")] {
        for &t in &[1.5f64, 2.0, 3.0] {
            let g = if name == "random" {
                random_graph(n, DEFAULT_SEED + 3)
            } else {
                geometric_graph(n, DEFAULT_SEED + 3)
            };
            let greedy = Spanner::greedy()
                .stretch(t)
                .build(&g)
                .expect("valid stretch");
            let greedy_self = is_own_unique_spanner(&greedy.spanner, t).expect("valid stretch");
            let input_self = is_own_unique_spanner(&g, t).expect("valid stretch");
            table.add_row(vec![
                n.to_string(),
                fmt_f(t),
                name.to_owned(),
                greedy_self.to_string(),
                input_self.to_string(),
            ]);
        }
    }
    table
}

/// E5 — Corollary 10: greedy (1+ε)-spanners of doubling metrics have linear
/// size and small lightness.
fn experiment_e5() -> Table {
    let mut table = Table::new(
        "E5: Corollary 10 — greedy (1+eps)-spanner in doubling metrics",
        &[
            "points",
            "n",
            "eps",
            "ddim est",
            "edges",
            "edges/n",
            "lightness",
            "max stretch",
        ],
    );
    let mut rng = SmallRng::seed_from_u64(DEFAULT_SEED);
    for &n in &[200usize, 500] {
        for &eps in &[0.25f64, 0.5, 1.0] {
            let cases: Vec<(&str, Box<dyn MetricSpace>)> = vec![
                (
                    "uniform 2d",
                    Box::new(uniform_square(n, DEFAULT_SEED + n as u64)),
                ),
                (
                    "clustered 2d",
                    Box::new(clustered_square(n, DEFAULT_SEED + n as u64)),
                ),
                (
                    "uniform 3d",
                    Box::new(uniform_cube_3d(n, DEFAULT_SEED + n as u64)),
                ),
            ];
            for (name, metric) in cases {
                let t = 1.0 + eps;
                // Materialize the O(n²) distance graph once and share it
                // between the build and the evaluation.
                let complete = metric.to_complete_graph();
                let input = SpannerInput::prepared(metric.as_ref(), &complete);
                let result = Spanner::greedy()
                    .stretch(t)
                    .build(input)
                    .expect("non-empty");
                let report = evaluate(&complete, &result.spanner, t);
                let ddim = estimate_doubling_dimension(metric.as_ref(), 8, &mut rng);
                table.add_row(vec![
                    name.to_owned(),
                    n.to_string(),
                    fmt_f(eps),
                    fmt_f(ddim),
                    report.summary.num_edges.to_string(),
                    fmt_f(report.summary.num_edges as f64 / n as f64),
                    fmt_f(report.summary.lightness),
                    fmt_f(report.max_stretch),
                ]);
            }
        }
    }
    table
}

/// E6a — Theorem 6: approximate-greedy quality against the exact greedy.
fn experiment_e6_quality() -> Table {
    let mut table = Table::new(
        "E6a: Theorem 6 — approximate-greedy vs exact greedy (eps = 0.5, uniform 2d)",
        &[
            "n",
            "construction",
            "edges",
            "lightness",
            "max degree",
            "max stretch",
        ],
    );
    for &n in &[200usize, 500, 1000] {
        let points = uniform_square(n, DEFAULT_SEED + 5);
        let complete = points.to_complete_graph();
        let eps = 0.5;
        for builder in [
            Spanner::greedy().stretch(1.0 + eps),
            Spanner::approx_greedy().epsilon(eps),
        ] {
            let out = builder.build(&points).expect("non-empty");
            let report = evaluate(&complete, &out.spanner, 1.0 + eps);
            table.add_row(vec![
                n.to_string(),
                out.provenance.algorithm.clone(),
                report.summary.num_edges.to_string(),
                fmt_f(report.summary.lightness),
                report.summary.max_degree.to_string(),
                fmt_f(report.max_stretch),
            ]);
        }
    }
    table
}

/// E6b — construction-time scaling of exact greedy vs approximate-greedy,
/// using the wall time the unified pipeline measures itself.
fn experiment_e6_runtime() -> Table {
    let mut table = Table::new(
        "E6b: construction time (ms), eps = 0.5, uniform 2d",
        &["n", "greedy (ms)", "approx-greedy (ms)", "speedup"],
    );
    for &n in &[250usize, 500, 1000] {
        let points = uniform_square(n, DEFAULT_SEED + 6);
        let greedy = Spanner::greedy()
            .stretch(1.5)
            .build(&points)
            .expect("non-empty");
        let approx = Spanner::approx_greedy()
            .epsilon(0.5)
            .build(&points)
            .expect("non-empty");
        let greedy_ms = greedy.stats.wall_time.as_secs_f64() * 1e3;
        let approx_ms = approx.stats.wall_time.as_secs_f64() * 1e3;
        table.add_row(vec![
            n.to_string(),
            fmt_f(greedy_ms),
            fmt_f(approx_ms),
            fmt_f(greedy_ms / approx_ms.max(1e-9)),
        ]);
    }
    table
}

/// E7 — the empirical claim of Section 1.2: the greedy spanner is markedly
/// sparser and lighter than the other constructions. The rows come straight
/// from the registry, so new constructions join the table automatically.
fn experiment_e7() -> Table {
    let mut table = Table::new(
        "E7: greedy vs baseline constructions (n = 500, eps = 0.5 where applicable)",
        &[
            "points",
            "construction",
            "guaranteed t",
            "edges",
            "lightness",
            "max stretch",
        ],
    );
    let n = 500usize;
    let eps = 0.5;
    for &(name, clustered) in &[("uniform 2d", false), ("clustered 2d", true)] {
        let points = if clustered {
            clustered_square(n, DEFAULT_SEED + 7)
        } else {
            uniform_square(n, DEFAULT_SEED + 7)
        };
        let complete = points.to_complete_graph();
        let input = SpannerInput::prepared_euclidean2(&points, &complete);
        // `k = 2` pins Baswana–Sen to its classical (2k − 1) = 3 comparison
        // row; the (1 + ε) constructions read the stretch target instead.
        let config = SpannerConfig {
            stretch: 1.0 + eps,
            k: Some(2),
            seed: DEFAULT_SEED + 8,
            ..SpannerConfig::default()
        };
        for algorithm in algorithms::registry() {
            if !algorithm.supports(&input) {
                continue;
            }
            let out = algorithm
                .build(&input, &config)
                .expect("construction succeeds");
            table.add_row(vec![
                name.to_owned(),
                out.provenance.algorithm.clone(),
                out.provenance
                    .guaranteed_stretch
                    .map_or_else(|| "-".to_owned(), fmt_f),
                out.spanner.num_edges().to_string(),
                fmt_f(lightness(&complete, &out.spanner)),
                fmt_f(max_stretch_all_pairs(&complete, &out.spanner)),
            ]);
        }
    }
    table
}

/// E8 — Observations 2 and 6: MST containment and MST preservation under the
/// metric closure.
fn experiment_e8() -> Table {
    let mut table = Table::new(
        "E8: Observation 2 & 6 — MST containment and metric-closure MST preservation",
        &[
            "n",
            "t",
            "greedy contains MST",
            "w(MST(G))",
            "w(MST(M_G))",
            "relative gap",
        ],
    );
    for &n in &[100usize, 200, 400] {
        let g = random_graph(n, DEFAULT_SEED + 9);
        let t = 2.0;
        let greedy = Spanner::greedy()
            .stretch(t)
            .build(&g)
            .expect("valid stretch");
        let closure = metric_closure(&g).expect("connected");
        let w_g = mst_weight(&g);
        let w_m = mst_weight(&closure);
        table.add_row(vec![
            n.to_string(),
            fmt_f(t),
            contains_mst(&g, &greedy.spanner).to_string(),
            fmt_f(w_g),
            fmt_f(w_m),
            fmt_f((w_g - w_m).abs() / w_g),
        ]);
    }
    table
}

/// E9 — the degree blow-up phenomenon: on the star metric the greedy spanner
/// has degree n − 1, while on uniform points its degree stays small.
fn experiment_e9() -> Table {
    let mut table = Table::new(
        "E9: greedy degree blow-up on the star metric vs uniform points (eps = 0.5)",
        &["metric", "n", "ddim est", "greedy max degree", "edges"],
    );
    let mut rng = SmallRng::seed_from_u64(DEFAULT_SEED + 10);
    let greedy = Spanner::greedy().stretch(1.5);
    for &n in &[50usize, 100, 200] {
        let star = star_metric(n);
        let star_out = greedy.build(&star).expect("non-empty");
        table.add_row(vec![
            "star".to_owned(),
            n.to_string(),
            fmt_f(estimate_doubling_dimension(&star, 8, &mut rng)),
            star_out.spanner.max_degree().to_string(),
            star_out.spanner.num_edges().to_string(),
        ]);
        let uniform = uniform_square(n, DEFAULT_SEED + n as u64);
        let uni_out = greedy.build(&uniform).expect("non-empty");
        table.add_row(vec![
            "uniform 2d".to_owned(),
            n.to_string(),
            fmt_f(estimate_doubling_dimension(&uniform, 8, &mut rng)),
            uni_out.spanner.max_degree().to_string(),
            uni_out.spanner.num_edges().to_string(),
        ]);
    }
    table
}

/// E11 — the serving layer: one greedy spanner frozen into a
/// `SpannerServer`, measured under uniform, Zipf-hotspot and mixed read
/// traffic, cached vs. uncached. Answers are bit-identical across every
/// row (asserted here); only the throughput and cache columns move.
fn experiment_e11() -> Table {
    use greedy_spanner::workload::QueryWorkload;

    let mut table = Table::new(
        "E11: serving — workloads x tree cache over one frozen greedy 2-spanner (n=600)",
        &[
            "workload",
            "cache",
            "queries",
            "qps",
            "hit rate",
            "p50",
            "p99",
            "max",
            "trees",
            "utilization",
            "settled",
            "pruned",
            "identical",
        ],
    );
    let n = 600;
    let g = random_graph(n, DEFAULT_SEED + 13);
    let output = Spanner::greedy()
        .stretch(2.0)
        .build(&g)
        .expect("valid stretch");
    let workloads = [
        (
            "uniform",
            QueryWorkload::uniform(n)
                .expect("valid")
                .queries(2000)
                .seed(1)
                .bound(40.0),
        ),
        (
            "zipf 1.1",
            QueryWorkload::zipf(n, 1.1)
                .expect("valid")
                .queries(2000)
                .seed(2)
                .bound(40.0),
        ),
        (
            "mixed",
            QueryWorkload::mixed(n, true)
                .expect("valid")
                .queries(2000)
                .seed(3),
        ),
    ];
    for (name, workload) in workloads {
        let batch = workload.generate();
        let mut reference: Option<Vec<greedy_spanner::Answer>> = None;
        for cache in [0usize, 128] {
            let mut server = output
                .clone()
                .serve()
                .cache_capacity(cache)
                .audit_against(&g)
                .finish();
            // Two rounds so the cached row serves hot sources from trees.
            let cold = server.answer_batch(&batch).expect("valid batch");
            let warm = server.answer_batch(&batch).expect("valid batch");
            let identical = cold == warm && reference.as_ref().is_none_or(|r| &cold == r);
            if reference.is_none() {
                reference = Some(cold);
            }
            let stats = server.stats();
            table.add_row(vec![
                name.to_owned(),
                if cache == 0 {
                    "off".to_owned()
                } else {
                    cache.to_string()
                },
                stats.queries.to_string(),
                fmt_f(stats.qps().unwrap_or(0.0)),
                format!("{:.1}%", 100.0 * stats.cache_hit_rate().unwrap_or(0.0)),
                format!("{:?}", stats.latency.p50().expect("recorded")),
                format!("{:?}", stats.latency.p99().expect("recorded")),
                format!("{:?}", stats.latency.max().expect("recorded")),
                server.cached_trees().to_string(),
                fmt_f(server.worker_utilization()),
                server.engine_stats().settled_vertices.to_string(),
                server.engine_stats().pruned_by_bound.to_string(),
                if identical { "yes" } else { "NO" }.to_owned(),
            ]);
            assert!(identical, "E11: serving answers diverged across rows");
        }
    }
    table
}

/// E12 — live updates: one greedy 2-spanner opened for updates and served
/// while a mixed query/update stream runs against it. Update rounds report
/// the admission counters, whether the batch rebuilt the spanner (it
/// inserted or reweighted an edge or deleted a spanner edge) and the
/// epoch; query rounds
/// report serving statistics (including stale-tree evictions and the exact
/// latency maximum) and are checked bit-for-bit against a server rebuilt
/// from scratch at the current epoch.
fn experiment_e12() -> Table {
    use greedy_spanner::serve::ServeBuilder;
    use greedy_spanner::workload::{LiveWorkload, StreamEvent};
    use std::time::{Duration, Instant};

    let mut table = Table::new(
        "E12: live updates — interleaved query/update stream over one greedy 2-spanner \
         (n=400, cache=64, update fraction 0.4)",
        &[
            "round",
            "event",
            "admitted",
            "rejected",
            "rebuilt",
            "epoch",
            "stale evict",
            "hit rate",
            "p50",
            "p99",
            "max",
            "identical",
        ],
    );
    let n = 400;
    let g = random_graph(n, DEFAULT_SEED + 14);
    let output = Spanner::greedy()
        .stretch(2.0)
        .build(&g)
        .expect("valid stretch");
    let mut server = output
        .clone()
        .live(&g)
        .expect("greedy guarantees a stretch")
        .serve()
        .cache_capacity(64)
        .finish();
    let stream = LiveWorkload::new(n)
        .expect("valid universe")
        .update_fraction(0.4)
        .expect("valid fraction")
        .rounds(10)
        .queries_per_batch(1500)
        .updates_per_batch(20)
        .seed(DEFAULT_SEED + 15)
        .generate(&g);
    // Only the live server's own work is timed — `apply_updates` and
    // `answer_batch` — so the stream total compares like with like against
    // one rebuild; the per-round rebuild oracle stays outside the clock.
    let mut live_time = Duration::ZERO;
    for (round, event) in stream.iter().enumerate() {
        match event {
            StreamEvent::Updates(batch) => {
                let t0 = Instant::now();
                let outcome = server.apply_updates(batch).expect("valid stream");
                live_time += t0.elapsed();
                table.add_row(vec![
                    round.to_string(),
                    format!("update x{}", batch.len()),
                    outcome.admitted.to_string(),
                    outcome.rejected.to_string(),
                    if outcome.full_certification {
                        "yes"
                    } else {
                        "no"
                    }
                    .to_owned(),
                    server.epoch().to_string(),
                    server.stats().stale_evictions.to_string(),
                    "-".to_owned(),
                    "-".to_owned(),
                    "-".to_owned(),
                    "-".to_owned(),
                    "-".to_owned(),
                ]);
            }
            StreamEvent::Queries(queries) => {
                // The rebuild oracle: a cold server over a fresh handle at
                // the current epoch, auditing against the live original.
                let original = server
                    .live()
                    .expect("live server")
                    .original()
                    .to_weighted_graph();
                let mut rebuilt = ServeBuilder::from_handle(server.freeze_current())
                    .cache_capacity(0)
                    .audit_against(&original)
                    .finish();
                let expected = rebuilt.answer_batch(queries).expect("valid batch");
                let t0 = Instant::now();
                let got = server.answer_batch(queries).expect("valid batch");
                live_time += t0.elapsed();
                let identical = got == expected;
                let stats = server.stats();
                table.add_row(vec![
                    round.to_string(),
                    format!("query x{}", queries.len()),
                    "-".to_owned(),
                    "-".to_owned(),
                    "-".to_owned(),
                    stats.epoch.to_string(),
                    stats.stale_evictions.to_string(),
                    format!("{:.1}%", 100.0 * stats.cache_hit_rate().unwrap_or(0.0)),
                    format!("{:?}", stats.latency.p50().expect("recorded")),
                    format!("{:?}", stats.latency.p99().expect("recorded")),
                    format!("{:?}", stats.latency.max().expect("recorded")),
                    if identical { "yes" } else { "NO" }.to_owned(),
                ]);
                assert!(identical, "E12: interleaved server diverged from rebuild");
            }
        }
    }
    // One full rebuild of the final state, for scale.
    let final_graph = server
        .live()
        .expect("live server")
        .original()
        .to_weighted_graph();
    let t1 = Instant::now();
    let _ = Spanner::greedy()
        .stretch(2.0)
        .build(&final_graph)
        .expect("valid stretch");
    let one_rebuild = t1.elapsed();
    let updates = *server.update_stats().expect("live server");
    table.add_row(vec![
        "(total)".to_owned(),
        format!(
            "stream {:.1} ms vs 1 rebuild {:.1} ms",
            live_time.as_secs_f64() * 1e3,
            one_rebuild.as_secs_f64() * 1e3
        ),
        updates.admitted.to_string(),
        updates.rejected.to_string(),
        format!("{} rebuilds", updates.recertifications),
        server.epoch().to_string(),
        server.stats().stale_evictions.to_string(),
        format!(
            "{:.1}%",
            100.0 * server.stats().cache_hit_rate().unwrap_or(0.0)
        ),
        "-".to_owned(),
        "-".to_owned(),
        "-".to_owned(),
        "-".to_owned(),
    ]);
    table
}

/// E10 — the full algorithm matrix: every registry construction over a graph
/// and a metric workload at several stretch targets, via the batch runner.
fn experiment_e10() -> Table {
    let mut table = Table::new(
        "E10: algorithm matrix — registry x workloads x stretches (batch runner)",
        &[
            "input",
            "construction",
            "target t",
            "edges",
            "lightness",
            "max stretch",
            "time (ms)",
            "peak frontier",
            "queries",
            "reuse hits",
        ],
    );
    let g = random_graph(200, DEFAULT_SEED + 11);
    let points = uniform_square(200, DEFAULT_SEED + 11);
    let inputs = [
        ("random graph", SpannerInput::from(&g)),
        ("uniform 2d", SpannerInput::from(&points)),
    ];
    let algorithms = algorithms::registry();
    let stretches = [1.5, 3.0];
    let base = SpannerConfig {
        seed: DEFAULT_SEED + 12,
        ..SpannerConfig::default()
    };
    let cells = run_matrix(&inputs, &algorithms, &stretches, &base);
    let agg = greedy_spanner::aggregate_stats(&cells);
    for cell in cells {
        match (&cell.output, &cell.report) {
            (Ok(out), Some(report)) => table.add_row(vec![
                cell.input.clone(),
                cell.algorithm.clone(),
                fmt_f(cell.stretch),
                report.summary.num_edges.to_string(),
                fmt_f(report.summary.lightness),
                fmt_f(report.max_stretch),
                fmt_f(out.stats.wall_time.as_secs_f64() * 1e3),
                out.stats.peak_frontier.to_string(),
                out.stats.distance_queries.to_string(),
                out.stats.workspace_reuse_hits.to_string(),
            ]),
            _ => table.add_row(vec![
                cell.input.clone(),
                cell.algorithm.clone(),
                fmt_f(cell.stretch),
                "failed".to_owned(),
                "-".to_owned(),
                "-".to_owned(),
                "-".to_owned(),
                "-".to_owned(),
                "-".to_owned(),
                "-".to_owned(),
            ]),
        };
    }
    // Per-cell stats rolled up: with parallel cells (SPANNER_THREADS > 1)
    // the summed wall time exceeds the elapsed time by the achieved
    // cell-level parallelism.
    table.add_row(vec![
        "(aggregate)".to_owned(),
        format!("{} cells, {} failed", agg.cells, agg.failures),
        "-".to_owned(),
        "-".to_owned(),
        "-".to_owned(),
        "-".to_owned(),
        fmt_f(agg.total_wall_time.as_secs_f64() * 1e3),
        "-".to_owned(),
        agg.distance_queries.to_string(),
        agg.workspace_reuse_hits.to_string(),
    ]);
    table
}
