//! `mem-read-1m`: the paper's own experiment.  One thread calls a raw RSMI
//! over a million points — a working set (24 MB of points plus models) six
//! times the 4 MiB L2 — directly through `SpatialIndex`.  Model descent,
//! `mlp` prediction and the `storage` scan kernels do all the work;
//! `server`, `net` and `router` do none, so an index-layer change shows
//! here and a serving-layer change must not.

use super::{keep_going, peak_rss_mb, timed_round, timed_rounds, Config, Report, K};
use crate::oracle::{self, RECALL_SAMPLE};
use crate::stats::{points_fnv64, Fnv64, Rounds, KNN, POINT, WINDOW};
use crate::trace::TracedPass;
use common::{QueryContext, QueryStats, SpatialIndex};
use datagen::queries::{self, WindowSpec};
use geom::{Point, Rect};
use registry::{build_index, IndexConfig, IndexKind};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Window selectivities, in per cent of the data space: the ends and the
/// middle of the paper's range.
const SELECTIVITIES: [f64; 3] = [0.0006, 0.01, 0.16];

/// Operations of the fixed mix `ops_per_s` is stated for.
const MIX: [f64; 3] = [10.0, 1.0, 1.0];

struct Pools {
    points: Vec<Point>,
    windows: Vec<Rect>,
    knn: Vec<Point>,
}

impl Pools {
    fn generate(data: &[Point], cfg: &Config) -> Self {
        let per_selectivity = cfg.ops(15_000) / SELECTIVITIES.len();
        let by_selectivity: Vec<Vec<Rect>> = SELECTIVITIES
            .iter()
            .zip(2..)
            .map(|(&area_percent, salt)| {
                let spec = WindowSpec {
                    area_percent,
                    aspect_ratio: 1.0,
                };
                queries::window_queries(data, spec, per_selectivity, cfg.seed.wrapping_add(salt))
            })
            .collect();
        // Interleaved, so every round sees the three selectivities in equal
        // parts.
        let windows = (0..per_selectivity)
            .flat_map(|i| by_selectivity.iter().map(move |ws| ws[i]))
            .collect();
        Self {
            points: queries::point_queries(data, cfg.ops(200_000), cfg.seed.wrapping_add(1)),
            windows,
            knn: queries::knn_queries(data, cfg.ops(15_000), cfg.seed.wrapping_add(5)),
        }
    }

    fn fnv64(&self) -> String {
        let mut h = Fnv64::default();
        self.points.iter().for_each(|p| h.point(p));
        self.windows.iter().for_each(|w| h.rect(w));
        self.knn.iter().for_each(|p| h.point(p));
        h.hex()
    }
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let index_cfg = IndexConfig::default();

    let setup_start = Instant::now();
    let data = cfg.data(1_000_000);
    let generate_s = setup_start.elapsed().as_secs_f64();
    let build_start = Instant::now();
    let index = build_index(IndexKind::Rsmi, &data, &index_cfg);
    let build_s = build_start.elapsed().as_secs_f64();
    let pools = Pools::generate(&data, cfg);
    let setup_s = setup_start.elapsed().as_secs_f64();
    report.note("input.points_fnv64", points_fnv64(&data));
    report.note("input.ops_fnv64", pools.fnv64());

    // Timed: point, window and kNN rounds take turns, so every class samples
    // the whole measuring time and a slow spell of the host cannot land on
    // one of them alone.  Nothing but the call and its clock is in a round.
    let index = index.as_ref();
    let mut cx = QueryContext::new();
    let (mut point_rounds, mut window_rounds, mut knn_rounds) =
        (Rounds::default(), Rounds::default(), Rounds::default());
    let mut cursors = [0usize; 3];
    let timed_start = Instant::now();
    while keep_going(point_rounds.rounds(), timed_start, cfg.budget()) {
        timed_round(
            &pools.points,
            &mut cursors[0],
            cfg.ops(40_000),
            &mut point_rounds,
            |_| POINT,
            |q| {
                black_box(index.point_query(q, &mut cx));
            },
        );
        timed_round(
            &pools.windows,
            &mut cursors[1],
            cfg.ops(900),
            &mut window_rounds,
            |_| WINDOW,
            |w| {
                black_box(index.window_query(w, &mut cx));
            },
        );
        timed_round(
            &pools.knn,
            &mut cursors[2],
            cfg.ops(3_000),
            &mut knn_rounds,
            |_| KNN,
            |q| {
                black_box(index.knn_query(q, K, &mut cx));
            },
        );
    }

    // Correctness and exact-repeat counts: one untimed pass over the pools.
    let counts = verify(index, &pools, data.len(), &mut report);
    let window_sample = oracle::sample(&pools.windows, RECALL_SAMPLE);
    let knn_sample = oracle::sample(&pools.knn, RECALL_SAMPLE);
    let window_recall =
        oracle::window_recall(&data, &window_sample, |w| index.window_query(w, &mut cx));
    let knn_recall = oracle::knn_recall(&data, &knn_sample, K, |q| index.knn_query(q, K, &mut cx));

    let rates = [&point_rounds, &window_rounds, &knn_rounds]
        .map(|r| r.ops_per_s().expect("every phase ran a round"));
    let mix_seconds: f64 = MIX.iter().zip(rates).map(|(ops, rate)| ops / rate).sum();
    let m = &mut report.metrics;
    m.set("setup_s", setup_s);
    m.set("ops_per_s", MIX.iter().sum::<f64>() / mix_seconds);
    m.set("window_recall", window_recall);
    m.set("knn_recall", knn_recall);
    m.set(
        "index_bytes_per_point",
        index.size_bytes() as f64 / data.len() as f64,
    );
    let mut all = Rounds::default();
    for r in [&mut point_rounds, &mut window_rounds, &mut knn_rounds] {
        all.absorb_finished(r);
    }
    report.set_latencies(&mut all);

    if cfg.trace {
        let m = &mut report.metrics;
        m.set("datagen.generate_s", generate_s);
        m.set("core.build_s", build_s);
        m.set("core.height", index.height() as f64);
        m.set("core.model_count", index.model_count() as f64);
        counts.set_core_metrics(m);
        crate::probes::run_all(&data, cfg.smoke, m);
        // What the layer probes predict for one point lookup, beside what
        // was measured.  The residual is what the probes do not explain; it
        // can be negative, because the probe streams unrelated cold blocks
        // while one lookup scans neighbours.
        let model_us = (counts.point_blocks_per_query()
            * m.get("storage.rect_mask_ns_per_block").unwrap_or(0.0)
            + index.height() as f64 * m.get("mlp.predict_ns").unwrap_or(0.0))
            / 1_000.0;
        m.set("core.point.model_us", model_us);
        m.set(
            "core.point.residual_us",
            m.get("point_p50_us").unwrap_or(0.0) - model_us,
        );
        hrr_baseline(&data, &pools, &mut report);
        traced_pass(index, &pools, cfg, &mut report)?;
    }
    report.metrics.set("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

/// Per-class `QueryStats` totals over the whole pools.
#[derive(Default)]
struct Counts {
    point: QueryStats,
    points: usize,
    window: QueryStats,
    windows: usize,
    window_results: usize,
    knn: QueryStats,
    knns: usize,
    knn_results: usize,
}

impl Counts {
    fn point_blocks_per_query(&self) -> f64 {
        self.point.blocks_touched as f64 / self.points as f64
    }

    fn set_core_metrics(&self, m: &mut crate::metrics::Metrics) {
        let per = |total: u64, n: usize| total as f64 / n.max(1) as f64;
        m.set(
            "core.point.nodes_per_query",
            per(self.point.nodes_visited, self.points),
        );
        m.set("core.point.blocks_per_query", self.point_blocks_per_query());
        m.set(
            "core.point.candidates_per_query",
            per(self.point.candidates_scanned, self.points),
        );
        m.set(
            "core.window.blocks_per_query",
            per(self.window.blocks_touched, self.windows),
        );
        m.set(
            "core.window.candidates_per_result",
            per(self.window.candidates_scanned, self.window_results),
        );
        m.set(
            "core.knn.blocks_per_query",
            per(self.knn.blocks_touched, self.knns),
        );
        m.set(
            "core.knn.candidates_per_result",
            per(self.knn.candidates_scanned, self.knn_results),
        );
    }
}

/// Every point lookup must hit its key, every window answer must lie inside
/// its window, every kNN answer must hold `k` points closest first.  RSMI's
/// window and kNN answers are approximate by design; how much they miss is
/// `window_recall` / `knn_recall`, not a failure.
fn verify(index: &dyn SpatialIndex, pools: &Pools, n: usize, report: &mut Report) -> Counts {
    let mut cx = QueryContext::new();
    let mut counts = Counts::default();
    for q in &pools.points {
        let hit = index.point_query(q, &mut cx);
        report.check(
            hit.is_some_and(|p| p.id == q.id && p.same_location(q)),
            "a point lookup hits its key",
        );
    }
    counts.point = cx.take_stats();
    counts.points = pools.points.len();
    for w in &pools.windows {
        let found = index.window_query(w, &mut cx);
        report.check(
            found.iter().all(|p| w.contains(p)),
            "a window answer lies inside its window",
        );
        counts.window_results += found.len();
    }
    counts.window = cx.take_stats();
    counts.windows = pools.windows.len();
    for q in &pools.knn {
        let found = index.knn_query(q, K, &mut cx);
        let sorted = found.windows(2).all(|w| w[0].dist_sq(q) <= w[1].dist_sq(q));
        report.check(
            found.len() == K.min(n) && sorted,
            "a kNN answer holds k points, closest first",
        );
        counts.knn_results += found.len();
    }
    counts.knn = cx.take_stats();
    counts.knns = pools.knn.len();
    counts
}

/// The paper's R-tree comparison point: HRR over the same points, driven
/// with the same pools.  It is also the family the routed
/// workload's shards hold, so this is their share of its latency.
fn hrr_baseline(data: &[Point], pools: &Pools, report: &mut Report) {
    let build_start = Instant::now();
    let hrr = build_index(IndexKind::Hrr, data, &IndexConfig::default());
    let build_s = build_start.elapsed().as_secs_f64();
    let hrr = hrr.as_ref();
    let mut cx = QueryContext::new();
    let once = Duration::ZERO;
    let (points, windows, knn) = (&pools.points, &pools.windows, &pools.knn);
    let point_rounds = timed_rounds(
        points,
        points.len() / 5,
        once,
        |_| POINT,
        |q| {
            black_box(hrr.point_query(q, &mut cx));
        },
    );
    cx.take_stats();
    let window_rounds = timed_rounds(
        windows,
        windows.len() / 5,
        once,
        |_| WINDOW,
        |w| {
            black_box(hrr.window_query(w, &mut cx));
        },
    );
    let window_stats = cx.take_stats();
    let knn_rounds = timed_rounds(
        knn,
        knn.len() / 5,
        once,
        |_| KNN,
        |q| {
            black_box(hrr.knn_query(q, K, &mut cx));
        },
    );
    let m = &mut report.metrics;
    m.set("baselines.hrr.build_s", build_s);
    m.set_opt("baselines.hrr.point_p50_us", point_rounds.p50_us(POINT));
    m.set_opt("baselines.hrr.window_p50_us", window_rounds.p50_us(WINDOW));
    m.set_opt("baselines.hrr.knn_p50_us", knn_rounds.p50_us(KNN));
    m.set(
        "baselines.hrr.blocks_per_window",
        window_stats.blocks_touched as f64 / window_rounds.samples(WINDOW).max(1) as f64,
    );
}

/// The head of each pool, every other call into the index wrapped in a
/// `core` span under its `request` span.
fn traced_pass(
    index: &dyn SpatialIndex,
    pools: &Pools,
    cfg: &Config,
    report: &mut Report,
) -> Result<(), String> {
    let points = &pools.points[..pools.points.len().min(cfg.ops(60_000))];
    let windows = &pools.windows[..pools.windows.len().min(cfg.ops(6_000))];
    let knn = &pools.knn[..pools.knn.len().min(cfg.ops(6_000))];
    let mut cx = QueryContext::new();
    let mut pass = TracedPass::new();
    // One operation: bare on even turns, inside `request > core` on odd.
    let mut step = |call: &mut dyn FnMut()| {
        match pass.begin() {
            None => call(),
            Some((root, id)) => pass.tracer.child("core", root, id, call),
        }
        pass.end();
    };
    for q in points {
        step(&mut || {
            black_box(index.point_query(q, &mut cx));
        });
    }
    for w in windows {
        step(&mut || {
            black_box(index.window_query(w, &mut cx));
        });
    }
    for q in knn {
        step(&mut || {
            black_box(index.knn_query(q, K, &mut cx));
        });
    }
    report.set_trace(cfg, &pass)
}
