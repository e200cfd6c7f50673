//! Sharded construction and serving, end to end: partition a large graph,
//! build each shard's greedy spanner through the engine-pool pipeline,
//! stitch the boundary skeleton, certify the global stretch, then serve
//! cross-shard queries from the stitched spanner. Asserts its invariants
//! and exits non-zero on violation.
//!
//! Run with `cargo run --release --example sharded`.

use greedy_spanner::shard::SKELETON_SLACK;
use greedy_spanner::workload::QueryWorkload;
use greedy_spanner::ShardedSpanner;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use spanner_graph::generators::grid_graph;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SmallRng::seed_from_u64(20160722);
    // A jittered grid: ~100k vertices, ~200k edges, cheap to generate.
    let g = grid_graph(317, 316, 0.3, &mut rng);
    let n = g.num_vertices();
    println!("graph: {} vertices, {} edges", n, g.num_edges());

    for shards in [1usize, 4] {
        let t0 = std::time::Instant::now();
        let out = ShardedSpanner::greedy()
            .stretch(3.0)
            .shards(shards)
            .build(&g)?;
        let wall = t0.elapsed();
        println!(
            "shards={shards}: {:?}, spanner {} edges, certified stretch {:?}, \
             cut {} (kept {}), skeleton {}v/{}e, max cut stretch {:.6}, \
             max shard peak {} KiB",
            wall,
            out.spanner().num_edges(),
            out.certified_stretch(),
            out.stitch.cut_edges,
            out.stitch.kept_cut_edges,
            out.skeleton.num_vertices(),
            out.skeleton.num_edges(),
            out.stitch.max_cut_stretch,
            out.max_shard_peak_memory() / 1024,
        );
        assert_eq!(out.certified_stretch(), Some(3.0));
        assert!(out.stitch.max_cut_stretch <= 3.0 * SKELETON_SLACK);
        if shards == 4 {
            // Serve boundary-targeted traffic: every query crosses shards.
            let boundary: Vec<_> = (0..out.skeleton.num_vertices())
                .map(|v| out.skeleton.global_of(spanner_graph::VertexId(v)))
                .collect();
            let queries = QueryWorkload::uniform_over(boundary)?
                .queries(256)
                .seed(7)
                .generate();
            let mut server = out.serve().threads(2).finish();
            let answers = server.answer_batch(&queries)?;
            let reachable = answers.iter().filter(|a| a.distance().is_some()).count();
            println!(
                "served {} cross-shard queries ({} reachable), p50 {:?}",
                answers.len(),
                reachable,
                server.stats().latency.p50(),
            );
            assert_eq!(answers.len(), queries.len());
            assert_eq!(server.stats().queries, queries.len() as u64);
        }
    }
    Ok(())
}
