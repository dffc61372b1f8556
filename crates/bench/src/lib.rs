//! Experiment-harness library: building the competing indices uniformly and
//! measuring query cost, block accesses, and recall the way §6 of the paper
//! reports them.
//!
//! All indices are constructed through the dynamic registry
//! ([`registry::build_index`]) and measured through the uniform
//! [`common::SpatialIndex`] query API with per-batch [`common::QueryContext`]
//! statistics — there is no per-index special casing anywhere in the
//! harness.
//!
//! The binary `experiments` (in `src/bin/experiments/`) uses these helpers
//! to regenerate every table and figure and to drive the persistence and
//! network serving processes.  [`live`] (oracle replay of concurrent runs)
//! is the workspace's integration tests' harness; [`netload`] (closed-loop
//! load generation and telemetry reconciliation) is shared by the
//! `net-load` process and the networked tests, so the cross-process gates
//! and the test suites enforce the same acceptance criteria.  Performance
//! is measured by the standalone harness under `benchmark/` (contract:
//! `BENCHMARK.json`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod live;
pub mod netload;

use common::{brute_force, metrics, QueryContext, QueryStats, SpatialIndex};
use geom::{Point, Rect};

pub use registry::{build_index, IndexConfig, IndexKind};

/// A built index together with its construction-time measurement.
pub struct BuiltIndex {
    /// Which family this is.
    pub kind: IndexKind,
    /// The index itself, behind the uniform trait.
    pub index: Box<dyn SpatialIndex>,
    /// Construction wall-clock time in seconds.
    pub build_seconds: f64,
}

/// Builds one index family over the given points, measuring build time.
pub fn build_timed(kind: IndexKind, points: &[Point], cfg: &IndexConfig) -> BuiltIndex {
    let start = std::time::Instant::now();
    let index = build_index(kind, points, cfg);
    BuiltIndex {
        kind,
        index,
        build_seconds: start.elapsed().as_secs_f64(),
    }
}

/// One measured row of an experiment (one index on one workload).
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Index family name.
    pub index: String,
    /// Average query (or update) time in microseconds.
    pub avg_time_us: f64,
    /// Average block + node accesses per operation (the paper's
    /// "# block accesses" axis; node visits of the tree baselines are
    /// charged to the same axis, as in §6.1).
    pub avg_block_accesses: f64,
    /// Average candidate points examined per operation.
    pub avg_candidates: f64,
    /// Average recall against brute force (1.0 for exact indices).
    pub recall: f64,
}

fn per_query(v: u64, n: usize) -> f64 {
    v as f64 / n.max(1) as f64
}

/// Measures point queries, one call at a time through one context: average
/// latency, accesses, hit rate.
pub fn measure_point_queries(built: &BuiltIndex, queries: &[Point]) -> Measurement {
    let mut cx = QueryContext::new();
    let start = std::time::Instant::now();
    let hits = queries
        .iter()
        .filter(|q| built.index.point_query(q, &mut cx).is_some())
        .count();
    let elapsed = start.elapsed().as_secs_f64();
    let stats = cx.take_stats();
    Measurement {
        index: built.kind.name().to_string(),
        avg_time_us: elapsed * 1e6 / queries.len().max(1) as f64,
        avg_block_accesses: per_query(stats.total_accesses(), queries.len()),
        avg_candidates: per_query(stats.candidates_scanned, queries.len()),
        recall: hits as f64 / queries.len().max(1) as f64,
    }
}

/// Measures window queries, one call at a time through one context: average
/// latency, accesses and recall against the brute-force ground truth.
pub fn measure_window_queries(built: &BuiltIndex, data: &[Point], windows: &[Rect]) -> Measurement {
    let mut cx = QueryContext::new();
    let start = std::time::Instant::now();
    let results: Vec<_> = windows
        .iter()
        .map(|w| built.index.window_query(w, &mut cx))
        .collect();
    let elapsed = start.elapsed().as_secs_f64();
    let stats = cx.take_stats();
    let mut recalls = Vec::with_capacity(windows.len());
    for (w, got) in windows.iter().zip(&results) {
        let truth = brute_force::window_query(data, w);
        recalls.push(metrics::recall(got, &truth));
    }
    Measurement {
        index: built.kind.name().to_string(),
        avg_time_us: elapsed * 1e6 / windows.len().max(1) as f64,
        avg_block_accesses: per_query(stats.total_accesses(), windows.len()),
        avg_candidates: per_query(stats.candidates_scanned, windows.len()),
        recall: metrics::mean(&recalls),
    }
}

/// Measures kNN queries, one call at a time through one context: average
/// latency, accesses and recall.
pub fn measure_knn_queries(
    built: &BuiltIndex,
    data: &[Point],
    queries: &[Point],
    k: usize,
) -> Measurement {
    let mut cx = QueryContext::new();
    let start = std::time::Instant::now();
    let results: Vec<_> = queries
        .iter()
        .map(|q| built.index.knn_query(q, k, &mut cx))
        .collect();
    let elapsed = start.elapsed().as_secs_f64();
    let stats = cx.take_stats();
    let mut recalls = Vec::with_capacity(queries.len());
    for (q, got) in queries.iter().zip(&results) {
        let truth = brute_force::knn_query(data, q, k);
        recalls.push(metrics::knn_recall(got, &truth, q, k));
    }
    Measurement {
        index: built.kind.name().to_string(),
        avg_time_us: elapsed * 1e6 / queries.len().max(1) as f64,
        avg_block_accesses: per_query(stats.total_accesses(), queries.len()),
        avg_candidates: per_query(stats.candidates_scanned, queries.len()),
        recall: metrics::mean(&recalls),
    }
}

/// Measures the average insertion time over a batch of new points.
pub fn measure_insertions(built: &mut BuiltIndex, inserts: &[Point]) -> Measurement {
    let start = std::time::Instant::now();
    for p in inserts {
        built.index.insert(*p);
    }
    let elapsed = start.elapsed().as_secs_f64();
    Measurement {
        index: built.kind.name().to_string(),
        avg_time_us: elapsed * 1e6 / inserts.len().max(1) as f64,
        avg_block_accesses: 0.0,
        avg_candidates: 0.0,
        recall: 1.0,
    }
}

// ---------------------------------------------------------------------
// Persistence replay workload (shared by the snapshot/serve CLI and the
// snapshot round-trip tests, so both enforce the same acceptance criterion)
// ---------------------------------------------------------------------

/// Sizing of the persistence replay workload.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySpec {
    /// Number of point queries.
    pub point_queries: usize,
    /// Number of window queries.
    pub window_queries: usize,
    /// Number of kNN queries.
    pub knn_queries: usize,
    /// `k` of the kNN queries.
    pub k: usize,
}

impl Default for ReplaySpec {
    /// The CLI gate's sizing; tests shrink it for speed.
    fn default() -> Self {
        Self {
            point_queries: 1000,
            window_queries: 100,
            knn_queries: 100,
            k: 25,
        }
    }
}

/// Answers of all three query types plus the merged per-query statistics —
/// what a snapshot must reproduce *byte-identically* after a reload.
pub struct WorkloadAnswers {
    /// Per-query point-query answers.
    pub points: Vec<Option<Point>>,
    /// Per-query window result sets.
    pub windows: Vec<Vec<Point>>,
    /// Per-query kNN result lists.
    pub knn: Vec<Vec<Point>>,
    /// Statistics merged across the whole workload.
    pub stats: QueryStats,
}

impl WorkloadAnswers {
    /// Byte-level equality of answers and cost counters — the persistence
    /// acceptance criterion.
    pub fn matches(&self, other: &WorkloadAnswers) -> bool {
        self.points == other.points
            && self.windows == other.windows
            && self.knn == other.knn
            && self.stats == other.stats
    }
}

/// Runs the standard persistence workload (point, window, and kNN batches,
/// deterministic query generators) through one context.
pub fn replay_workload(
    index: &dyn SpatialIndex,
    data: &[Point],
    spec: &ReplaySpec,
) -> WorkloadAnswers {
    use datagen::queries::{self, WindowSpec};
    let point_qs = queries::point_queries(data, spec.point_queries, 13);
    let window_qs = queries::window_queries(data, WindowSpec::default(), spec.window_queries, 17);
    let knn_qs = queries::knn_queries(data, spec.knn_queries, 19);
    let mut cx = QueryContext::new();
    let points = point_qs
        .iter()
        .map(|q| index.point_query(q, &mut cx))
        .collect();
    let windows = window_qs
        .iter()
        .map(|w| index.window_query(w, &mut cx))
        .collect();
    let knn = knn_qs
        .iter()
        .map(|q| index.knn_query(q, spec.k, &mut cx))
        .collect();
    WorkloadAnswers {
        points,
        windows,
        knn,
        stats: cx.take_stats(),
    }
}

// ---------------------------------------------------------------------
// Markdown output
// ---------------------------------------------------------------------

/// Prints one experiment table as markdown — how every subcommand of the
/// `experiments` binary reports.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("{}", markdown_table(title, header, rows));
}

/// Formats a list of measurements as a GitHub-flavoured markdown table.
pub fn markdown_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n### {title}\n\n"));
    out.push_str(&format!("| {} |\n", header.join(" | ")));
    out.push_str(&format!("|{}\n", "---|".repeat(header.len())));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

/// Convenience: formats a float with three significant decimals.
pub fn fmt(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, queries, Distribution};

    fn tiny_cfg() -> IndexConfig {
        IndexConfig {
            block_capacity: 20,
            partition_threshold: 500,
            epochs: 15,
            seed: 1,
            ..IndexConfig::default()
        }
    }

    #[test]
    fn all_index_kinds_build_and_answer_point_queries() {
        let data = generate(Distribution::Uniform, 800, 3);
        let qs = queries::point_queries(&data, 50, 5);
        for kind in IndexKind::without_rsmia() {
            let built = build_timed(kind, &data, &tiny_cfg());
            let m = measure_point_queries(&built, &qs);
            assert_eq!(m.recall, 1.0, "{} missed indexed points", kind.name());
            assert!(m.avg_time_us >= 0.0);
            assert!(
                m.avg_block_accesses > 0.0,
                "{} charged nothing",
                kind.name()
            );
            assert!(built.build_seconds >= 0.0);
        }
    }

    #[test]
    fn window_measurement_reports_recall_one_for_exact_indices() {
        let data = generate(Distribution::Normal, 1000, 7);
        let ws = queries::window_queries(&data, queries::WindowSpec::default(), 20, 9);
        for kind in IndexKind::all()
            .into_iter()
            .filter(IndexKind::exact_windows)
        {
            let built = build_timed(kind, &data, &tiny_cfg());
            let m = measure_window_queries(&built, &data, &ws);
            assert!(
                m.recall > 0.999,
                "{} should be exact, recall {}",
                kind.name(),
                m.recall
            );
        }
    }

    #[test]
    fn learned_indices_report_recall_between_zero_and_one() {
        let data = generate(Distribution::skewed_default(), 1500, 11);
        let ws = queries::window_queries(&data, queries::WindowSpec::default(), 20, 13);
        for kind in [IndexKind::Rsmi, IndexKind::Zm] {
            let built = build_timed(kind, &data, &tiny_cfg());
            let m = measure_window_queries(&built, &data, &ws);
            assert!((0.0..=1.0).contains(&m.recall));
        }
    }

    #[test]
    fn knn_measurement_works_for_rsmi_and_hrr() {
        let data = generate(Distribution::Uniform, 1000, 17);
        let qs = queries::knn_queries(&data, 20, 19);
        for kind in [IndexKind::Rsmi, IndexKind::Rsmia, IndexKind::Hrr] {
            let built = build_timed(kind, &data, &tiny_cfg());
            let m = measure_knn_queries(&built, &data, &qs, 5);
            assert!(m.recall > 0.5, "{} recall {}", kind.name(), m.recall);
        }
    }

    #[test]
    fn insertion_measurement_counts_time_per_insert() {
        let data = generate(Distribution::Uniform, 500, 23);
        let ins = queries::insertion_points(&data, 100, 29);
        let mut built = build_timed(IndexKind::Grid, &data, &tiny_cfg());
        let m = measure_insertions(&mut built, &ins);
        assert!(m.avg_time_us >= 0.0);
        assert_eq!(built.index.len(), 600);
    }

    #[test]
    fn markdown_table_formats_rows() {
        let t = markdown_table(
            "Demo",
            &["index", "time"],
            &[vec!["RSMI".into(), "1.0".into()]],
        );
        assert!(t.contains("### Demo"));
        assert!(t.contains("| RSMI | 1.0 |"));
        assert_eq!(fmt(123.456), "123");
        assert_eq!(fmt(1.234), "1.23");
        assert_eq!(fmt(0.1234), "0.1234");
    }
}
