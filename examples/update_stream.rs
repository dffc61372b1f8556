//! A stream of insertions with periodic rebuilds (the paper's RSMIr
//! variant): shows how query cost degrades as overflow blocks accumulate and
//! recovers after the `rebuild` maintenance hook of the uniform index API.
//!
//! Run with `cargo run --release --example update_stream`.

use common::{QueryContext, SpatialIndex};
use datagen::{generate, queries, Distribution};
use registry::{build_index, IndexConfig, IndexKind};

fn main() {
    let n = 50_000;
    let data = generate(Distribution::skewed_default(), n, 21);
    let config = IndexConfig::default()
        .with_partition_threshold(5_000)
        .with_epochs(25);
    let mut index = build_index(IndexKind::Rsmi, &data, &config);
    let inserts = queries::insertion_points(&data, n / 2, 5);
    let batch = n / 10;

    println!(
        "initial: {} points, {:.1} MB",
        index.len(),
        index.size_bytes() as f64 / (1024.0 * 1024.0)
    );
    println!(
        "\n{:>8} {:>18} {:>16} {:>18} {:>16}",
        "inserted", "blocks/query", "point query (us)", "after rebuild", "rebuilt blocks/q"
    );

    let mut all_points = data.clone();
    for step in 1..=5 {
        let slice = &inserts[(step - 1) * batch..step * batch];
        for p in slice {
            index.insert(*p);
        }
        all_points.extend_from_slice(slice);
        let qs = queries::point_queries(&all_points, 2_000, step as u64);

        let measure = |index: &dyn SpatialIndex| {
            let mut cx = QueryContext::new();
            let start = std::time::Instant::now();
            for q in &qs {
                let _ = index.point_query(q, &mut cx);
            }
            let us = start.elapsed().as_secs_f64() * 1e6 / qs.len() as f64;
            (cx.take_stats().blocks_touched as f64 / qs.len() as f64, us)
        };

        let (blocks_before, before) = measure(index.as_ref());

        // Periodic rebuild (RSMIr): retrain on the current contents through
        // the trait's maintenance hook.
        index.rebuild();
        let (blocks_after, after) = measure(index.as_ref());

        println!(
            "{:>7}% {:>18.2} {:>16.2} {:>18.2} {:>16.2}",
            step * 10,
            blocks_before,
            before,
            after,
            blocks_after
        );
    }
    println!(
        "\nfinal index: {} points, height {}",
        index.len(),
        index.height()
    );
}
