//! `mem-churn-200k`: the same index layer used differently — writes beside
//! reads.  One client thread replays a read/write stream (20 % writes, half
//! inserts, half deletes) against a `SpatialServer` over RSMI with
//! background compaction on, so the `server` delta overlay, snapshot pin,
//! write path and partial rebuilds carry the cost.  A read-path gain that
//! slows inserts or lengthens rebuild pauses shows here.

use super::{keep_going, peak_rss_mb, read_class, stream_round, timed_rounds, Config, Report, K};
use crate::oracle;
use crate::stats::{nanos_u32, percentile_us, points_fnv64, Fnv64, Rounds, POINT, WRITE};
use crate::trace::TracedPass;
use common::{QueryContext, SpatialIndex};
use datagen::queries::{self, MixedQuery, ServeOp};
use geom::Point;
use registry::{IndexConfig, IndexKind, ServerConfig, SpatialServer};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

const WRITE_RATIO: f64 = 0.2;

/// Keys looked up after the run to compare the server with the shadow set.
const KEY_SAMPLE: usize = 2_000;

/// Performs one operation; for a delete, returns whether a point went.
#[inline]
fn apply(server: &SpatialServer, op: &ServeOp, cx: &mut QueryContext) -> bool {
    match op {
        ServeOp::Read(MixedQuery::Point(q)) => {
            black_box(server.point_query(q, cx));
            true
        }
        ServeOp::Read(MixedQuery::Window(w)) => {
            black_box(server.window_query(w, cx));
            true
        }
        ServeOp::Read(MixedQuery::Knn(q, k)) => {
            black_box(server.knn_query(q, *k, cx));
            true
        }
        ServeOp::Insert(p) => {
            server.insert(*p);
            true
        }
        ServeOp::Delete(p) => server.delete(p).0,
    }
}

/// What the point set must be after the operations settled so far.
struct Shadow {
    live: HashSet<u64>,
    inserted: Vec<Point>,
    deleted: Vec<Point>,
}

impl Shadow {
    /// Replays the writes of `ops`; every delete must have reported exactly
    /// what the shadow set says.  Reads cannot fail in process and RSMI's
    /// window/kNN answers are approximate, so they count as attempted only.
    fn settle(&mut self, ops: &[ServeOp], removed: &[bool], report: &mut Report) {
        for (op, &removed) in ops.iter().zip(removed) {
            match op {
                ServeOp::Read(_) => report.attempted += 1,
                ServeOp::Insert(p) => {
                    report.attempted += 1;
                    self.live.insert(p.id);
                    self.inserted.push(*p);
                }
                ServeOp::Delete(p) => {
                    report.check(
                        self.live.remove(&p.id) == removed,
                        "a delete reported what the shadow set says",
                    );
                    self.deleted.push(*p);
                }
            }
        }
    }
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let index_cfg = IndexConfig::default();
    let round_len = cfg.ops(4_000);

    let setup_start = Instant::now();
    let data = cfg.data(200_000);
    let generate_s = setup_start.elapsed().as_secs_f64();
    let server = registry::serve_index(IndexKind::Rsmi, &data, &index_cfg, ServerConfig::default());
    let setup_s = setup_start.elapsed().as_secs_f64();
    report.note("input.points_fnv64", points_fnv64(&data));
    report.metrics.set(
        "index_bytes_per_point",
        server.size_bytes() as f64 / data.len() as f64,
    );

    let mut cx = QueryContext::new();
    if cfg.trace {
        empty_delta_probes(&server, &data, cfg, &mut report);
    }

    let mut shadow = Shadow {
        live: data.iter().map(|p| p.id).collect(),
        inserted: Vec::new(),
        deleted: Vec::new(),
    };
    let mut ops_hash = Fnv64::default();
    let mut rounds = Rounds::default();
    let mut insert_ns: Vec<u32> = Vec::new();
    let mut delete_ns: Vec<u32> = Vec::new();
    let mut delta_ops: Vec<f64> = Vec::new();
    let mut removed = Vec::with_capacity(round_len);
    let budget = cfg.budget();
    let churn_start = Instant::now();
    while keep_going(rounds.rounds(), churn_start, budget) {
        let ops = stream_round(&data, round_len, WRITE_RATIO, cfg.seed, rounds.rounds());
        if rounds.rounds() == 0 {
            ops_hash.ops(&ops);
        }
        removed.clear();
        let round_start = Instant::now();
        for op in &ops {
            let t = Instant::now();
            let gone = apply(&server, op, &mut cx);
            let ns = nanos_u32(t.elapsed());
            removed.push(gone);
            match op {
                ServeOp::Read(q) => rounds.record(read_class(q), ns),
                ServeOp::Insert(_) => {
                    rounds.record(WRITE, ns);
                    insert_ns.push(ns);
                }
                ServeOp::Delete(_) => {
                    rounds.record(WRITE, ns);
                    delete_ns.push(ns);
                }
            }
        }
        rounds.end_round(ops.len(), round_start.elapsed());
        delta_ops.push(server.stats().delta_ops as f64);
        shadow.settle(&ops, &removed, &mut report);
    }
    let churn_wall = churn_start.elapsed();
    report.note("input.ops_fnv64", ops_hash.hex());
    if cfg.trace {
        // Read now: the traced pass and the quiesce below compact too.
        compaction_metrics(&server, churn_wall, &mut report.metrics);
    }

    // Before the quiesce below, so its writes are settled and checked too.
    let traced = cfg.trace.then(|| {
        traced_pass(
            &server,
            &data,
            cfg,
            rounds.rounds(),
            &mut shadow,
            &mut report,
        )
    });

    // Quiesce: fold whatever the delta still holds, then compare the server
    // with the shadow set.
    while server.maintain_now() {}
    report.check(
        server.len() == shadow.live.len(),
        "server.len() equals the shadow set after quiescing",
    );
    let live: Vec<Point> = data
        .iter()
        .chain(&shadow.inserted)
        .filter(|p| shadow.live.contains(&p.id))
        .copied()
        .collect();
    // Inserts are clamped to the unit square, so a few share a corner: a
    // lookup there may return any live copy.
    let location = |p: &Point| (p.x.to_bits(), p.y.to_bits());
    let live_locations: HashSet<(u64, u64)> = live.iter().map(location).collect();
    for p in oracle::sample(&shadow.inserted, KEY_SAMPLE / 2)
        .iter()
        .chain(&oracle::sample(&shadow.deleted, KEY_SAMPLE / 2))
    {
        let found = server
            .point_query(p, &mut cx)
            .is_some_and(|hit| hit.same_location(p) && shadow.live.contains(&hit.id));
        report.check(
            found == live_locations.contains(&location(p)),
            "a sampled key is found exactly when the shadow set holds a point there",
        );
    }
    let (windows, knn) = oracle::recall_queries(&data, cfg.seed);
    let window_recall = oracle::window_recall(&live, &windows, |w| server.window_query(w, &mut cx));
    let knn_recall = oracle::knn_recall(&live, &knn, K, |q| server.knn_query(q, K, &mut cx));

    let m = &mut report.metrics;
    m.set("setup_s", setup_s);
    m.set_opt("ops_per_s", rounds.ops_per_s());
    m.set("window_recall", window_recall);
    m.set("knn_recall", knn_recall);
    report.set_latencies(&mut rounds);

    if cfg.trace {
        let m = &mut report.metrics;
        m.set("datagen.generate_s", generate_s);
        m.set_opt(
            "server.insert_p50_ns",
            percentile_us(&mut insert_ns, 0.5).map(|us| us * 1e3),
        );
        m.set_opt(
            "server.delete_p50_ns",
            percentile_us(&mut delete_ns, 0.5).map(|us| us * 1e3),
        );
        m.set("server.delta_ops_mean", common::metrics::mean(&delta_ops));
        crate::probes::run_all(&data, cfg.smoke, m);
        report.set_trace(cfg, &traced.expect("the traced pass ran"))?;
    }
    report.metrics.set("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

/// What the serving layer adds to a point lookup while its delta is empty:
/// the cost of pinning a snapshot, and `Snapshot::point_query` against the
/// same lookups on a raw RSMI built from the same points and configuration.
fn empty_delta_probes(server: &SpatialServer, data: &[Point], cfg: &Config, report: &mut Report) {
    let build_start = Instant::now();
    let raw = registry::build_index(IndexKind::Rsmi, data, &IndexConfig::default());
    let m = &mut report.metrics;
    m.set("core.build_s", build_start.elapsed().as_secs_f64());
    m.set("core.height", raw.height() as f64);
    m.set("core.model_count", raw.model_count() as f64);

    let pins = cfg.ops(200_000);
    let pin_start = Instant::now();
    for _ in 0..pins {
        black_box(server.snapshot());
    }
    m.set(
        "server.snapshot_pin_ns",
        pin_start.elapsed().as_nanos() as f64 / pins as f64,
    );

    let keys = queries::point_queries(data, cfg.ops(50_000), cfg.seed.wrapping_add(3));
    let mut cx = QueryContext::new();
    let once = Duration::ZERO;
    let raw_rounds = timed_rounds(
        &keys,
        keys.len() / 5,
        once,
        |_| POINT,
        |q| {
            black_box(raw.point_query(q, &mut cx));
        },
    );
    let snapshot = server.snapshot();
    let served_rounds = timed_rounds(
        &keys,
        keys.len() / 5,
        once,
        |_| POINT,
        |q| {
            black_box(snapshot.point_query(q, &mut cx));
        },
    );
    if let (Some(raw_us), Some(served_us)) = (raw_rounds.p50_us(POINT), served_rounds.p50_us(POINT))
    {
        m.set("server.point_overhead_ns", (served_us - raw_us) * 1e3);
        // The first two rungs of the point-lookup ladder in the README.
        report.note("ladder.raw_point_p50_us", raw_us);
        report.note("ladder.snapshot_point_p50_us", served_us);
    }
}

/// Background maintenance as the server's own telemetry recorded it.
fn compaction_metrics(server: &SpatialServer, wall: Duration, m: &mut crate::metrics::Metrics) {
    let stats = server.stats();
    m.set("server.epochs_swapped", stats.compactions as f64);
    m.set("server.partial_passes", stats.partial_compactions as f64);
    m.set(
        "server.full_passes",
        (stats.compactions - stats.partial_compactions) as f64,
    );
    m.set("server.subtree_rebuilds", stats.subtree_rebuilds as f64);
    let telemetry = server.telemetry().metrics.snapshot();
    if let Some(pause) = telemetry.histogram("server.compaction_pause_us") {
        m.set("server.swap_pause_p99_us", pause.percentile(99.0) as f64);
    }
    let mut rebuilds = obs::HistogramSnapshot::default();
    for name in ["server.partial_rebuild_us", "server.compaction_rebuild_us"] {
        if let Some(h) = telemetry.histogram(name) {
            rebuilds.merge(h);
        }
    }
    if rebuilds.count > 0 {
        m.set(
            "server.rebuild_p50_ms",
            rebuilds.percentile(50.0) as f64 / 1e3,
        );
    }
    m.set(
        "server.compaction_busy_share",
        rebuilds.sum as f64 / 1e6 / wall.as_secs_f64(),
    );
}

/// One further round of the stream, every other call into the server
/// wrapped in a `server.read` / `server.write` span under its `request`
/// span.
fn traced_pass(
    server: &SpatialServer,
    data: &[Point],
    cfg: &Config,
    next_round: usize,
    shadow: &mut Shadow,
    report: &mut Report,
) -> TracedPass {
    let mut cx = QueryContext::new();
    let mut pass = TracedPass::new();
    let ops = stream_round(data, cfg.ops(8_000), WRITE_RATIO, cfg.seed, next_round);
    let removed: Vec<bool> = ops
        .iter()
        .map(|op| {
            let gone = match pass.begin() {
                None => apply(server, op, &mut cx),
                Some((root, id)) => {
                    let layer = if op.is_write() {
                        "server.write"
                    } else {
                        "server.read"
                    };
                    pass.tracer
                        .child(layer, root, id, || apply(server, op, &mut cx))
                }
            };
            pass.end();
            gone
        })
        .collect();
    shadow.settle(&ops, &removed, report);
    pass
}
