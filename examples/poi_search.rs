//! "Dinner near me": k-nearest-neighbour search over an OSM-like POI data
//! set, comparing RSMI's learned kNN algorithm against the R-tree best-first
//! search (HRR) and brute force.  Both indices are constructed through the
//! dynamic registry and queried through the uniform batch API.
//!
//! Run with `cargo run --release --example poi_search`.

use common::{brute_force, metrics, QueryContext};
use datagen::{generate, queries, Distribution};
use registry::{build_index, IndexConfig, IndexKind};

fn main() {
    let n = 100_000;
    let k = 10;
    let pois = generate(Distribution::OsmLike, n, 7);
    println!("indexing {n} OSM-like points of interest…");

    let config = IndexConfig::default()
        .with_partition_threshold(5_000)
        .with_epochs(25);

    // 200 users asking "what are the 10 closest restaurants?"
    let users = queries::knn_queries(&pois, 200, 99);

    println!(
        "\n{:<8} {:>14} {:>10} {:>16}",
        "index", "avg time (ms)", "recall", "accesses/query"
    );
    let mut rsmi = None;
    for kind in [IndexKind::Rsmi, IndexKind::Hrr] {
        let index = build_index(kind, &pois, &config);
        let mut cx = QueryContext::new();
        let start = std::time::Instant::now();
        let answers: Vec<_> = users
            .iter()
            .map(|u| index.knn_query(u, k, &mut cx))
            .collect();
        let avg_ms = start.elapsed().as_secs_f64() * 1e3 / users.len() as f64;
        let stats = cx.take_stats();

        let mut recalls = Vec::new();
        for (u, ans) in users.iter().zip(&answers) {
            let truth = brute_force::knn_query(&pois, u, k);
            recalls.push(metrics::knn_recall(ans, &truth, u, k));
        }
        println!(
            "{:<8} {:>14.3} {:>10.3} {:>16.1}",
            index.name(),
            avg_ms,
            metrics::mean(&recalls),
            stats.total_accesses() as f64 / users.len() as f64
        );
        if kind == IndexKind::Rsmi {
            rsmi = Some(index);
        }
    }

    // Show one concrete answer, reusing the RSMI built above.
    let rsmi = rsmi.expect("RSMI was built in the comparison loop");
    let mut cx = QueryContext::new();
    let u = users[0];
    println!(
        "\nexample user at ({:.4}, {:.4}) — top {k} POIs (RSMI):",
        u.x, u.y
    );
    for p in rsmi.knn_query(&u, k, &mut cx) {
        println!("  poi {:>6}  dist {:.5}", p.id, p.dist(&u));
    }
}
