//! Sharded serving: build a `sharded-rsmi` through the registry, watch the
//! query planner route and prune, and split a hotspot batch over worker
//! threads with `engine::executor::run_batch`.
//!
//! Run with `cargo run --release --example sharded_serve`.

use common::QueryContext;
use datagen::{generate, queries, Distribution};
use engine::executor::run_batch;
use geom::Point;
use registry::{build_index, IndexConfig, IndexKind};

fn main() {
    // 1. Build the sharded composition by name, exactly like any leaf
    //    family — `"sharded-rsmi".parse()` is how a CLI would select it.
    let points = generate(Distribution::skewed_default(), 100_000, 42);
    let kind: IndexKind = "sharded-rsmi".parse().expect("registered kind");
    let config = IndexConfig::default()
        .with_partition_threshold(5_000)
        .with_shards(8);
    let start = std::time::Instant::now();
    let index = build_index(kind, &points, &config);
    println!(
        "built {} over {} points in {:.2}s ({} sub-models across 8 shards, {:.1} MB)",
        index.name(),
        index.len(),
        start.elapsed().as_secs_f64(),
        index.model_count(),
        index.size_bytes() as f64 / (1024.0 * 1024.0),
    );

    let mut cx = QueryContext::new();

    // 2. Point queries route to exactly one shard: the learned partitioner
    //    recovers the query's rank-space Hilbert key and binary-searches the
    //    shard key ranges.
    let target = points[54_321];
    let found = index.point_query(&target, &mut cx).expect("indexed point");
    let cost = cx.take_stats();
    println!(
        "point query: found id {} — visited {} shard, pruned {} without touching them",
        found.id, cost.shards_visited, cost.shards_pruned
    );

    // 3. A hotspot window workload (all queries piled onto one region, the
    //    shape real serving traffic has): the planner fans out only to the
    //    shards whose MBR intersects each window.  The index is `Sync`, so
    //    the batch splits over worker threads, one context per worker.
    let windows = queries::hotspot_window_queries(&points, queries::WindowSpec::default(), 200, 7);
    let workers = 4;
    let (results, stats) = run_batch(&windows, workers, |ws, cx| {
        ws.iter().map(|w| index.window_query(w, cx)).collect()
    });
    println!(
        "hotspot batch of {} windows ({workers} worker threads): {:.2} shards visited and {:.2} pruned per query, {} total results",
        windows.len(),
        stats.shards_visited as f64 / windows.len() as f64,
        stats.shards_pruned as f64 / windows.len() as f64,
        results.iter().map(Vec::len).sum::<usize>(),
    );

    // 4. kNN is answered best-first by shard MINDIST with a distance-bound
    //    cutoff, then k-way merged by (distance, id).
    let me = Point::new(0.5, 0.03);
    let nn = index.knn_query(&me, 5, &mut cx);
    let stats = cx.take_stats();
    println!(
        "5 nearest neighbours of ({:.2}, {:.2}) — {} shards visited, {} pruned by the distance bound:",
        me.x, me.y, stats.shards_visited, stats.shards_pruned
    );
    for p in &nn {
        println!(
            "  id {:>6}  at ({:.4}, {:.4})  dist {:.5}",
            p.id,
            p.x,
            p.y,
            p.dist(&me)
        );
    }
}
