//! "Search this area": window queries over a Tiger-like geographic data set,
//! comparing the approximate RSMI answer, the exact RSMIa traversal, and a
//! traditional R-tree, and reporting recall.  All three variants come from
//! the dynamic registry — no concrete index types appear in this example.
//!
//! Run with `cargo run --release --example map_window`.

use common::{brute_force, metrics, QueryContext};
use datagen::{generate, queries, Distribution};
use registry::{build_index, IndexConfig, IndexKind};

fn main() {
    let n = 100_000;
    let features = generate(Distribution::TigerLike, n, 3);
    println!("indexing {n} Tiger-like geographic features…");

    let config = IndexConfig::default()
        .with_partition_threshold(5_000)
        .with_epochs(25);
    let kinds = [IndexKind::Rsmi, IndexKind::Rsmia, IndexKind::Hrr];
    let indices: Vec<_> = kinds
        .iter()
        .map(|&kind| build_index(kind, &features, &config))
        .collect();

    // Map viewports of different sizes, positioned where the data is.
    for &area_pct in &[0.01f64, 0.16] {
        let spec = queries::WindowSpec {
            area_percent: area_pct,
            aspect_ratio: 2.0,
        };
        let windows = queries::window_queries(&features, spec, 100, 11);

        println!("\nviewport area = {area_pct}% of the map, aspect ratio 2:1");
        println!("{:<8} {:>14} {:>10}", "index", "avg time (ms)", "recall");
        for index in &indices {
            let mut cx = QueryContext::new();
            let start = std::time::Instant::now();
            let answers: Vec<_> = windows
                .iter()
                .map(|w| index.window_query(w, &mut cx))
                .collect();
            let avg_ms = start.elapsed().as_secs_f64() * 1e3 / windows.len() as f64;

            let mut recalls = Vec::new();
            for (w, got) in windows.iter().zip(&answers) {
                let truth = brute_force::window_query(&features, w);
                recalls.push(metrics::recall(got, &truth));
            }
            println!(
                "{:<8} {avg_ms:>14.3} {:>10.3}",
                index.name(),
                metrics::mean(&recalls)
            );
        }
    }
}
