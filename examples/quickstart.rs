//! Quickstart: build an RSMI through the dynamic index registry and run the
//! three query types the paper supports (point, window, kNN), plus an
//! insertion, with per-query cost statistics.
//!
//! Run with `cargo run --release --example quickstart`.

use common::QueryContext;
use datagen::{generate, Distribution};
use geom::{Point, Rect};
use registry::{build_index, IndexConfig, IndexKind};

fn main() {
    // 1. Generate 50k points from a skewed distribution (the paper's default
    //    synthetic workload) and bulk-load the index by name through the
    //    registry.
    let points = generate(Distribution::skewed_default(), 50_000, 42);
    let config = IndexConfig::default()
        .with_partition_threshold(5_000)
        .with_epochs(30);
    let start = std::time::Instant::now();
    let mut index = build_index(IndexKind::Rsmi, &points, &config);
    println!(
        "built {} over {} points in {:.2}s (height {}, {} sub-models, {:.1} MB)",
        index.name(),
        index.len(),
        start.elapsed().as_secs_f64(),
        index.height(),
        index.model_count(),
        index.size_bytes() as f64 / (1024.0 * 1024.0),
    );

    // Every query charges its cost to an explicit context.
    let mut cx = QueryContext::new();

    // 2. Point query: look up an indexed point by its coordinates.
    let target = points[1234];
    let found = index
        .point_query(&target, &mut cx)
        .expect("indexed point must be found");
    let cost = cx.take_stats();
    println!(
        "point query: found point id {} at ({:.4}, {:.4}) — {} blocks, {} nodes, {} candidates",
        found.id,
        found.x,
        found.y,
        cost.blocks_touched,
        cost.nodes_visited,
        cost.candidates_scanned
    );

    // 3. Window query ("search this area"): the zero-copy visitor form, and a
    //    comparison against the exact RSMIa variant built from the same
    //    registry.
    let window = Rect::new(0.40, 0.02, 0.45, 0.06);
    let mut in_window = 0usize;
    index.window_query_visit(&window, &mut cx, &mut |_| in_window += 1);
    let exact_index = build_index(IndexKind::Rsmia, &points, &config);
    let exact = exact_index.window_query(&window, &mut cx);
    println!(
        "window query: {} points returned (exact answer has {}, recall {:.1}%)",
        in_window,
        exact.len(),
        100.0 * in_window as f64 / exact.len().max(1) as f64
    );

    // 4. kNN query ("dinner near me").
    let me = Point::new(0.5, 0.03);
    let nn = index.knn_query(&me, 5, &mut cx);
    println!("5 nearest neighbours of ({:.2}, {:.2}):", me.x, me.y);
    for p in &nn {
        println!(
            "  id {:>6}  at ({:.4}, {:.4})  dist {:.5}",
            p.id,
            p.x,
            p.y,
            p.dist(&me)
        );
    }

    // 5. A workload is a loop of calls through one context, which
    // aggregates their statistics.  Drop the charges accumulated by steps
    // 3-4 so the printed average covers the batch alone.
    let _ = cx.take_stats();
    let batch = &points[..1000];
    let hits = batch
        .iter()
        .filter(|q| index.point_query(q, &mut cx).is_some())
        .count();
    let stats = cx.take_stats();
    println!(
        "batch of {} point queries: {} hits, {:.2} blocks/query on average",
        batch.len(),
        hits,
        stats.blocks_touched as f64 / batch.len() as f64
    );

    // 6. Updates: insert a new point and find it again.
    let new_point = Point::with_id(0.5001, 0.0301, 999_999);
    index.insert(new_point);
    assert!(index.point_query(&new_point, &mut cx).is_some());
    println!(
        "inserted point {} and found it again; index now holds {} points",
        new_point.id,
        index.len()
    );
}
