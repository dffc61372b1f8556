//! Build once, restart fast: persist a sharded learned index to a versioned
//! binary snapshot, drop it, load it back, and verify the restored index
//! serves byte-identical answers at identical cost — without retraining a
//! single model.
//!
//! Run with `cargo run --release --example snapshot_restore`.

use common::QueryContext;
use datagen::{generate, queries, Distribution};
use registry::{build_index, load_index, save_index, IndexConfig, IndexKind};

fn main() {
    // 1. Build a sharded RSMI — the expensive part: model training plus
    //    per-shard bulk loads.
    let points = generate(Distribution::skewed_default(), 50_000, 42);
    let kind: IndexKind = "sharded-rsmi".parse().expect("registered kind");
    let config = IndexConfig::default()
        .with_partition_threshold(5_000)
        .with_shards(4)
        .with_threads(2);
    let start = std::time::Instant::now();
    let index = build_index(kind, &points, &config);
    let build_s = start.elapsed().as_secs_f64();
    println!(
        "built {} over {} points in {:.2}s ({} trained sub-models)",
        index.name(),
        index.len(),
        build_s,
        index.model_count()
    );

    // 2. Run a reference workload and keep its answers and cost counters.
    let windows = queries::window_queries(&points, queries::WindowSpec::default(), 50, 7);
    let mut cx = QueryContext::new();
    let reference: Vec<_> = windows
        .iter()
        .map(|w| index.window_query(w, &mut cx))
        .collect();
    let reference_stats = cx.take_stats();

    // 3. Save the snapshot and drop the in-memory index — simulating a
    //    process restart.
    let path = std::env::temp_dir().join("snapshot_restore_example.rsmi");
    let start = std::time::Instant::now();
    save_index(index.as_ref(), &path).expect("save snapshot");
    let save_s = start.elapsed().as_secs_f64();
    let file_mb = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0) as f64 / (1024.0 * 1024.0);
    drop(index);
    println!(
        "saved snapshot: {file_mb:.1} MB in {save_s:.3}s at {}",
        path.display()
    );

    // 4. Load it back.  This is the restart path: no sorting, no packing,
    //    no training — the dominant cost is reading the file.
    let start = std::time::Instant::now();
    let restored = load_index(&path).expect("load snapshot");
    let load_s = start.elapsed().as_secs_f64();
    println!(
        "loaded {} in {:.3}s — {:.0}x faster than building",
        restored.name(),
        load_s,
        build_s / load_s.max(1e-9)
    );

    // 5. Replay the workload: answers and per-query statistics must be
    //    byte-identical to the pre-restart run.
    let mut cx = QueryContext::new();
    let replayed: Vec<_> = windows
        .iter()
        .map(|w| restored.window_query(w, &mut cx))
        .collect();
    let replayed_stats = cx.take_stats();
    assert_eq!(reference, replayed, "answers changed across the restart");
    assert_eq!(
        reference_stats, replayed_stats,
        "query costs changed across the restart"
    );
    println!(
        "replayed {} windows: identical answers, identical cost ({} blocks, {} shard visits)",
        windows.len(),
        replayed_stats.blocks_touched,
        replayed_stats.shards_visited
    );

    std::fs::remove_file(&path).ok();
}
