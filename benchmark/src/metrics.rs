//! The metric vocabulary: every name the harness may print, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the smoke
//! test holds the two together.  A workload sets what its topology
//! measures; a per-layer metric of a layer the workload does not run prints
//! as 0, which is what that layer contributed.

use std::collections::BTreeMap;

/// `(name, unit)`.
pub type MetricDef = (&'static str, &'static str);

/// What a user of the system sees.  Every workload reports every one of
/// them (the driver requires it), so only figures that exist on all four
/// topologies are here; write latency and tails are in [`PER_LAYER`].
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("point_p50_us", "us"),
    ("window_p50_us", "us"),
    ("knn_p50_us", "us"),
    ("window_recall", "ratio"),
    ("knn_recall", "ratio"),
    ("index_bytes_per_point", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// Single-layer figures, printed by a traced run.  No bound applies.
pub const PER_LAYER: &[MetricDef] = &[
    // Whole-request figures that not every workload has (no writes on the
    // read-only workloads) or that are too noisy to bound (tails).
    ("write_p50_us", "us"),
    ("point_p99_us", "us"),
    ("window_p99_us", "us"),
    ("knn_p99_us", "us"),
    ("write_p99_us", "us"),
    ("samples.point", "count"),
    ("samples.window", "count"),
    ("samples.knn", "count"),
    ("samples.write", "count"),
    ("rounds", "count"),
    ("datagen.generate_s", "s"),
    ("sfc.hilbert_encode_ns", "ns"),
    ("sfc.rank_space_ms_per_100k", "ms"),
    ("mlp.predict_ns", "ns"),
    ("mlp.fit_ms_per_10k_rows", "ms"),
    ("storage.rect_mask_ns_per_block", "ns"),
    ("storage.within_mask_ns_per_block", "ns"),
    ("storage.dist_sq_ns_per_block", "ns"),
    ("core.build_s", "s"),
    ("core.height", "count"),
    ("core.model_count", "count"),
    ("core.point.nodes_per_query", "count"),
    ("core.point.blocks_per_query", "count"),
    ("core.point.candidates_per_query", "count"),
    ("core.point.model_us", "us"),
    ("core.point.residual_us", "us"),
    ("core.window.blocks_per_query", "count"),
    ("core.window.candidates_per_result", "ratio"),
    ("core.knn.blocks_per_query", "count"),
    ("core.knn.candidates_per_result", "ratio"),
    ("baselines.hrr.build_s", "s"),
    ("baselines.hrr.point_p50_us", "us"),
    ("baselines.hrr.window_p50_us", "us"),
    ("baselines.hrr.knn_p50_us", "us"),
    ("baselines.hrr.blocks_per_window", "count"),
    ("engine.build_s", "s"),
    ("engine.shards_visited_per_window", "count"),
    ("engine.shards_pruned_per_window", "count"),
    ("engine.window_p50_us", "us"),
    ("persist.snapshot_write_ms", "ms"),
    ("persist.snapshot_load_ms", "ms"),
    ("persist.snapshot_bytes_per_point", "bytes"),
    ("persist.crc32_gb_per_s", "GB/s"),
    ("server.snapshot_pin_ns", "ns"),
    ("server.point_overhead_ns", "ns"),
    ("server.insert_p50_ns", "ns"),
    ("server.delete_p50_ns", "ns"),
    ("server.delta_ops_mean", "count"),
    ("server.epochs_swapped", "count"),
    ("server.partial_passes", "count"),
    ("server.full_passes", "count"),
    ("server.subtree_rebuilds", "count"),
    ("server.swap_pause_p99_us", "us"),
    ("server.rebuild_p50_ms", "ms"),
    ("server.compaction_busy_share", "ratio"),
    ("obs.counter_inc_ns", "ns"),
    ("obs.histogram_record_ns", "ns"),
    ("obs.stats_scrape_us", "us"),
    ("net.request_encode_ns", "ns"),
    ("net.request_decode_ns", "ns"),
    ("net.response_encode_ns.window", "ns"),
    ("net.response_decode_ns.window", "ns"),
    ("net.frame_write_read_ns", "ns"),
    ("net.conn_setup_us", "us"),
    ("net.ping_p50_us", "us"),
    ("net.overhead_us.point", "us"),
    ("net.overhead_us.window", "us"),
    ("net.overhead_us.knn", "us"),
    ("net.batch_mean", "ratio"),
    ("net.shed", "count"),
    ("net.point_p99_us", "us"),
    ("net.window_p99_us", "us"),
    ("net.knn_p99_us", "us"),
    ("router.ping_p50_us", "us"),
    ("router.overhead_us.point", "us"),
    ("router.overhead_us.window", "us"),
    ("router.overhead_us.knn", "us"),
    ("router.overhead_us.write", "us"),
    ("router.shards_visited_per_request", "count"),
    ("router.shards_pruned_per_request", "count"),
    ("router.failovers", "count"),
    ("router.point_p99_us", "us"),
    ("router.write_p99_us", "us"),
    // Median self time (span minus children) of the traced client's spans.
    ("trace.request_self_us", "us"),
    ("trace.net.encode_us", "us"),
    ("trace.net.write_us", "us"),
    ("trace.net.wait_us", "us"),
    ("trace.net.decode_us", "us"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// Values collected during one run.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records a value.  A name outside the vocabulary is a harness bug.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric '{name}' is not in the vocabulary"
        );
        self.0.insert(name, value);
    }

    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line: every end-to-end metric for
    /// an untraced run, every per-layer metric for a traced one.  Errors
    /// name an end-to-end metric the workload failed to measure or a value
    /// JSON cannot carry.
    pub fn to_json(&self, traced: bool) -> Result<String, String> {
        let defs = if traced { PER_LAYER } else { END_TO_END };
        let mut parts = Vec::with_capacity(defs.len());
        for (name, unit) in defs {
            let value = match self.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric '{name}' was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric '{name}' is not finite ({value})"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}
