//! The paper's evaluation (§6): Tables 3–4, Figures 6–19, and three
//! ablations of RSMI's design choices (rank-space ordering, the curve,
//! grouping by prediction).
//!
//! Every index is constructed through the dynamic registry and measured
//! through the uniform `common::SpatialIndex` API.  The only concrete-type
//! access is in `table4`/`ablation-rank`, which report *internal model
//! error bounds* of the two learned families, a diagnostic the uniform
//! query API deliberately does not expose.

use crate::cli::{Args, Flag, Run, Subcommand};
use crate::harness::{
    config, dataset, kinds, n_default, scale, scaled, sizes, EPOCHS, ONLY, POINT_QUERIES,
    RANGE_QUERIES,
};
use bench::{
    build_timed, fmt, measure_insertions, measure_knn_queries, measure_point_queries,
    measure_window_queries, print_table, IndexConfig, IndexKind,
};
use common::{QueryContext, SpatialIndex};
use datagen::queries::{self, WindowSpec};
use datagen::Distribution;
use geom::Point;

/// Flags of a run over the default data set (20 000 points at scale 1).
const ONE_SIZE: &[Flag] = &[scale::<20_000>(), EPOCHS];
const ONE_SIZE_ONLY: &[Flag] = &[scale::<20_000>(), EPOCHS, ONLY];
/// Flags of a "vs data set size" figure; its smallest data set is 5 000.
const SIZES_ONLY: &[Flag] = &[scale::<5_000>(), EPOCHS, ONLY];

/// A paper table or figure: part of `all`, prints its tables, cannot fail.
const fn figure(
    names: &'static [&'static str],
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Args),
) -> Subcommand {
    Subcommand {
        names,
        about,
        flags,
        in_all: true,
        run: Run::Report(run),
    }
}

pub const SUBCOMMANDS: &[Subcommand] = &[
    figure(
        &["table3"],
        "Table 3: impact of the RSMI partition threshold N",
        &[scale::<50_000>(), EPOCHS],
        table3,
    ),
    figure(
        &["table4"],
        "Table 4: prediction error bounds of ZM and RSMI",
        ONE_SIZE,
        table4,
    ),
    figure(
        &["fig6", "fig7"],
        "Figures 6-7: point query, index size, construction vs distribution",
        ONE_SIZE_ONLY,
        fig6_7,
    ),
    figure(
        &["fig8", "fig9"],
        "Figures 8-9: point query, index size, construction vs data set size",
        SIZES_ONLY,
        fig8_9,
    ),
    figure(
        &["fig10"],
        "Figure 10: window query vs distribution",
        ONE_SIZE_ONLY,
        fig10,
    ),
    figure(
        &["fig11"],
        "Figure 11: window query vs data set size",
        SIZES_ONLY,
        fig11,
    ),
    figure(
        &["fig12"],
        "Figure 12: window query vs window size",
        ONE_SIZE_ONLY,
        fig12,
    ),
    figure(
        &["fig13"],
        "Figure 13: window query vs aspect ratio",
        ONE_SIZE_ONLY,
        fig13,
    ),
    figure(
        &["fig14"],
        "Figure 14: kNN query vs distribution",
        ONE_SIZE_ONLY,
        fig14,
    ),
    figure(
        &["fig15"],
        "Figure 15: kNN query vs data set size",
        SIZES_ONLY,
        fig15,
    ),
    figure(
        &["fig16"],
        "Figure 16: kNN query vs k",
        ONE_SIZE_ONLY,
        fig16,
    ),
    figure(
        &["fig17", "fig18", "fig19"],
        "Figures 17-19: insertions, and queries after insertions",
        ONE_SIZE_ONLY,
        fig17_18_19,
    ),
    figure(
        &["ablation-rank"],
        "ablation: rank-space vs raw-coordinate leaf ordering",
        ONE_SIZE,
        ablation_rank,
    ),
    figure(
        &["ablation-curve"],
        "ablation: Hilbert vs Z ordering curve for RSMI windows",
        ONE_SIZE,
        ablation_curve,
    ),
    figure(
        &["ablation-grouping"],
        "ablation: grouping points by model prediction vs true cell",
        ONE_SIZE,
        ablation_grouping,
    ),
];

/// One window-experiment configuration: axis label, data set, query windows.
type WindowConfig = (String, Vec<Point>, Vec<geom::Rect>);
/// One kNN-experiment configuration: axis label, data set, query points, k.
type KnnConfig = (String, Vec<Point>, Vec<Point>, usize);

// ---------------------------------------------------------------------
// Table 3: impact of the partition threshold N
// ---------------------------------------------------------------------
fn table3(args: &Args) {
    let n = scaled(args, 50_000);
    let data = dataset(Distribution::skewed_default(), n);
    let point_qs = queries::point_queries(&data, POINT_QUERIES, 1);
    let thresholds = [1_000usize, 2_500, 5_000, 10_000, 20_000];
    let mut rows = Vec::new();
    for &threshold in &thresholds {
        let cfg = config(args).with_partition_threshold(threshold);
        let built = build_timed(IndexKind::Rsmi, &data, &cfg);
        let m = measure_point_queries(&built, &point_qs);
        rows.push(vec![
            threshold.to_string(),
            fmt(built.build_seconds),
            built.index.height().to_string(),
            fmt(built.index.size_bytes() as f64 / (1024.0 * 1024.0)),
            fmt(m.avg_block_accesses),
            fmt(m.avg_time_us),
        ]);
    }
    print_table(
        &format!("Table 3 — impact of partition threshold N (Skewed, n = {n})"),
        &[
            "N",
            "construction (s)",
            "height",
            "index size (MB)",
            "point-query block accesses",
            "point-query time (us)",
        ],
        &rows,
    );
}

// ---------------------------------------------------------------------
// Table 4: prediction error bounds of ZM and RSMI
// ---------------------------------------------------------------------
fn table4(args: &Args) {
    // Error bounds are internal model diagnostics, not part of the uniform
    // query API, so this table uses the concrete learned types directly.
    let cfg = config(args);
    let mut rows = Vec::new();
    for dist in Distribution::all() {
        let data = dataset(dist, n_default(args));
        let rsmi = rsmi::Rsmi::build(data.clone(), cfg.rsmi_config());
        let stats = rsmi.stats();
        let zm = baselines::ZOrderModel::build(data, cfg.zm_config());
        let (zb, za) = zm.error_bounds_blocks();
        rows.push(vec![
            dist.name().to_string(),
            format!("({zb}, {za})"),
            format!("({}, {})", stats.max_err_below, stats.max_err_above),
        ]);
    }
    print_table(
        &format!(
            "Table 4 — prediction error bounds in blocks (err_l, err_a), n = {}",
            n_default(args)
        ),
        &["data set", "ZM", "RSMI"],
        &rows,
    );
}

// ---------------------------------------------------------------------
// Figures 6 & 7: point queries, index size, construction time vs distribution
// ---------------------------------------------------------------------
fn fig6_7(args: &Args) {
    let cfg = config(args);
    let mut q_rows = Vec::new();
    let mut s_rows = Vec::new();
    for dist in Distribution::all() {
        let data = dataset(dist, n_default(args));
        let point_qs = queries::point_queries(&data, POINT_QUERIES, 1);
        for kind in kinds(args, IndexKind::without_rsmia()) {
            let built = build_timed(kind, &data, &cfg);
            let m = measure_point_queries(&built, &point_qs);
            q_rows.push(vec![
                dist.name().to_string(),
                m.index.clone(),
                fmt(m.avg_time_us),
                fmt(m.avg_block_accesses),
            ]);
            s_rows.push(vec![
                dist.name().to_string(),
                built.kind.name().to_string(),
                fmt(built.index.size_bytes() as f64 / (1024.0 * 1024.0)),
                fmt(built.build_seconds),
            ]);
        }
    }
    print_table(
        &format!(
            "Figure 6 — point query vs data distribution (n = {})",
            n_default(args)
        ),
        &["data set", "index", "query time (us)", "block accesses"],
        &q_rows,
    );
    print_table(
        &format!(
            "Figure 7 — index size and construction time vs data distribution (n = {})",
            n_default(args)
        ),
        &["data set", "index", "size (MB)", "construction (s)"],
        &s_rows,
    );
}

// ---------------------------------------------------------------------
// Figures 8 & 9: point queries, size, construction vs data-set size
// ---------------------------------------------------------------------
fn fig8_9(args: &Args) {
    let cfg = config(args);
    let mut q_rows = Vec::new();
    let mut s_rows = Vec::new();
    for n in sizes(args) {
        let data = dataset(Distribution::skewed_default(), n);
        let point_qs = queries::point_queries(&data, POINT_QUERIES, 1);
        for kind in kinds(args, IndexKind::without_rsmia()) {
            let built = build_timed(kind, &data, &cfg);
            let m = measure_point_queries(&built, &point_qs);
            q_rows.push(vec![
                n.to_string(),
                m.index.clone(),
                fmt(m.avg_time_us),
                fmt(m.avg_block_accesses),
            ]);
            s_rows.push(vec![
                n.to_string(),
                built.kind.name().to_string(),
                fmt(built.index.size_bytes() as f64 / (1024.0 * 1024.0)),
                fmt(built.build_seconds),
            ]);
        }
    }
    print_table(
        "Figure 8 — point query vs data set size (Skewed)",
        &["n", "index", "query time (us)", "block accesses"],
        &q_rows,
    );
    print_table(
        "Figure 9 — index size and construction time vs data set size (Skewed)",
        &["n", "index", "size (MB)", "construction (s)"],
        &s_rows,
    );
}

// ---------------------------------------------------------------------
// Window-query figures
// ---------------------------------------------------------------------
fn window_experiment(
    title: &str,
    axis: &str,
    configs: &[WindowConfig],
    cfg: &IndexConfig,
    args: &Args,
) {
    let mut rows = Vec::new();
    for (label, data, windows) in configs {
        for kind in kinds(args, IndexKind::all()) {
            let built = build_timed(kind, data, cfg);
            let m = measure_window_queries(&built, data, windows);
            rows.push(vec![
                label.clone(),
                m.index.clone(),
                fmt(m.avg_time_us / 1000.0),
                fmt(m.recall),
            ]);
        }
    }
    print_table(title, &[axis, "index", "query time (ms)", "recall"], &rows);
}

fn fig10(args: &Args) {
    let cfg = config(args);
    let configs: Vec<WindowConfig> = Distribution::all()
        .iter()
        .map(|&dist| {
            let data = dataset(dist, n_default(args));
            let ws = queries::window_queries(&data, WindowSpec::default(), RANGE_QUERIES, 2);
            (dist.name().to_string(), data, ws)
        })
        .collect();
    window_experiment(
        &format!(
            "Figure 10 — window query vs data distribution (n = {}, 0.01% windows)",
            n_default(args)
        ),
        "data set",
        &configs,
        &cfg,
        args,
    );
}

fn fig11(args: &Args) {
    let cfg = config(args);
    let configs: Vec<WindowConfig> = sizes(args)
        .into_iter()
        .map(|n| {
            let data = dataset(Distribution::skewed_default(), n);
            let ws = queries::window_queries(&data, WindowSpec::default(), RANGE_QUERIES, 2);
            (n.to_string(), data, ws)
        })
        .collect();
    window_experiment(
        "Figure 11 — window query vs data set size (Skewed)",
        "n",
        &configs,
        &cfg,
        args,
    );
}

fn fig12(args: &Args) {
    let cfg = config(args);
    let data = dataset(Distribution::skewed_default(), n_default(args));
    let configs: Vec<WindowConfig> = queries::WINDOW_SIZE_PERCENTS
        .iter()
        .map(|&pct| {
            let spec = WindowSpec {
                area_percent: pct,
                aspect_ratio: 1.0,
            };
            let ws = queries::window_queries(&data, spec, RANGE_QUERIES, 3);
            (format!("{pct}%"), data.clone(), ws)
        })
        .collect();
    window_experiment(
        &format!(
            "Figure 12 — window query vs query window size (Skewed, n = {})",
            n_default(args)
        ),
        "window size",
        &configs,
        &cfg,
        args,
    );
}

fn fig13(args: &Args) {
    let cfg = config(args);
    let data = dataset(Distribution::skewed_default(), n_default(args));
    let configs: Vec<WindowConfig> = queries::ASPECT_RATIOS
        .iter()
        .map(|&ratio| {
            let spec = WindowSpec {
                area_percent: 0.01,
                aspect_ratio: ratio,
            };
            let ws = queries::window_queries(&data, spec, RANGE_QUERIES, 5);
            (format!("{ratio}"), data.clone(), ws)
        })
        .collect();
    window_experiment(
        &format!(
            "Figure 13 — window query vs aspect ratio (Skewed, n = {})",
            n_default(args)
        ),
        "aspect ratio",
        &configs,
        &cfg,
        args,
    );
}

// ---------------------------------------------------------------------
// kNN figures
// ---------------------------------------------------------------------
fn knn_experiment(title: &str, axis: &str, configs: &[KnnConfig], cfg: &IndexConfig, args: &Args) {
    let mut rows = Vec::new();
    for (label, data, qs, k) in configs {
        for kind in kinds(args, IndexKind::all()) {
            let built = build_timed(kind, data, cfg);
            let m = measure_knn_queries(&built, data, qs, *k);
            rows.push(vec![
                label.clone(),
                m.index.clone(),
                fmt(m.avg_time_us / 1000.0),
                fmt(m.recall),
            ]);
        }
    }
    print_table(title, &[axis, "index", "query time (ms)", "recall"], &rows);
}

fn fig14(args: &Args) {
    let cfg = config(args);
    let configs: Vec<KnnConfig> = Distribution::all()
        .iter()
        .map(|&dist| {
            let data = dataset(dist, n_default(args));
            let qs = queries::knn_queries(&data, RANGE_QUERIES, 7);
            (dist.name().to_string(), data, qs, 25)
        })
        .collect();
    knn_experiment(
        &format!(
            "Figure 14 — kNN query vs data distribution (k = 25, n = {})",
            n_default(args)
        ),
        "data set",
        &configs,
        &cfg,
        args,
    );
}

fn fig15(args: &Args) {
    let cfg = config(args);
    let configs: Vec<KnnConfig> = sizes(args)
        .into_iter()
        .map(|n| {
            let data = dataset(Distribution::skewed_default(), n);
            let qs = queries::knn_queries(&data, RANGE_QUERIES, 7);
            (n.to_string(), data, qs, 25)
        })
        .collect();
    knn_experiment(
        "Figure 15 — kNN query vs data set size (Skewed, k = 25)",
        "n",
        &configs,
        &cfg,
        args,
    );
}

fn fig16(args: &Args) {
    let cfg = config(args);
    let data = dataset(Distribution::skewed_default(), n_default(args));
    let qs = queries::knn_queries(&data, RANGE_QUERIES, 7);
    let configs: Vec<KnnConfig> = queries::K_VALUES
        .iter()
        .map(|&k| (k.to_string(), data.clone(), qs.clone(), k))
        .collect();
    knn_experiment(
        &format!(
            "Figure 16 — kNN query vs k (Skewed, n = {})",
            n_default(args)
        ),
        "k",
        &configs,
        &cfg,
        args,
    );
}

// ---------------------------------------------------------------------
// Figures 17–19: update handling
// ---------------------------------------------------------------------
fn fig17_18_19(args: &Args) {
    let cfg = config(args);
    let data = dataset(Distribution::skewed_default(), n_default(args));
    let total_inserts = data.len() / 2;
    let all_inserts = queries::insertion_points(&data, total_inserts, 11);
    let batch = data.len() / 10;

    let mut insert_rows = Vec::new();
    let mut point_rows = Vec::new();
    let mut window_rows = Vec::new();
    let mut knn_rows = Vec::new();

    for kind in kinds(args, IndexKind::without_rsmia()) {
        let mut built = build_timed(kind, &data, &cfg);
        let mut all_points = data.clone();
        for step in 1..=5usize {
            let slice = &all_inserts[(step - 1) * batch..step * batch];
            let m = measure_insertions(&mut built, slice);
            all_points.extend_from_slice(slice);
            let pct = step * 10;

            insert_rows.push(vec![format!("{pct}%"), m.index.clone(), fmt(m.avg_time_us)]);

            let point_qs = queries::point_queries(&all_points, POINT_QUERIES, 13);
            let pm = measure_point_queries(&built, &point_qs);
            point_rows.push(vec![
                format!("{pct}%"),
                pm.index.clone(),
                fmt(pm.avg_time_us),
                fmt(pm.avg_block_accesses),
            ]);

            let ws = queries::window_queries(&all_points, WindowSpec::default(), RANGE_QUERIES, 17);
            let wm = measure_window_queries(&built, &all_points, &ws);
            window_rows.push(vec![
                format!("{pct}%"),
                wm.index.clone(),
                fmt(wm.avg_time_us / 1000.0),
                fmt(wm.recall),
            ]);

            let knn_qs = queries::knn_queries(&all_points, RANGE_QUERIES, 19);
            let km = measure_knn_queries(&built, &all_points, &knn_qs, 25);
            knn_rows.push(vec![
                format!("{pct}%"),
                km.index.clone(),
                fmt(km.avg_time_us / 1000.0),
                fmt(km.recall),
            ]);
        }
    }

    // RSMIr rows: the same registry-built RSMI, with the trait's `rebuild`
    // maintenance hook invoked after every 10 % batch; insertion time is
    // amortised over the rebuilds.
    if kinds(args, vec![IndexKind::Rsmi]).contains(&IndexKind::Rsmi) {
        let mut built = build_timed(IndexKind::Rsmi, &data, &cfg);
        let mut all_points = data.clone();
        for step in 1..=5usize {
            let slice = &all_inserts[(step - 1) * batch..step * batch];
            let start = std::time::Instant::now();
            for p in slice {
                built.index.insert(*p);
            }
            built.index.rebuild();
            let amortised = start.elapsed().as_secs_f64() * 1e6 / slice.len() as f64;
            all_points.extend_from_slice(slice);
            let pct = step * 10;
            insert_rows.push(vec![format!("{pct}%"), "RSMIr".to_string(), fmt(amortised)]);

            let point_qs = queries::point_queries(&all_points, POINT_QUERIES, 13);
            let pm = measure_point_queries(&built, &point_qs);
            point_rows.push(vec![
                format!("{pct}%"),
                "RSMIr".to_string(),
                fmt(pm.avg_time_us),
                fmt(pm.avg_block_accesses),
            ]);
        }
    }

    print_table(
        &format!(
            "Figure 17a — insertion time (Skewed, n = {})",
            n_default(args)
        ),
        &["inserted", "index", "insert time (us)"],
        &insert_rows,
    );
    print_table(
        "Figure 17b — point queries after insertions",
        &["inserted", "index", "query time (us)", "block accesses"],
        &point_rows,
    );
    print_table(
        "Figure 18 — window queries after insertions",
        &["inserted", "index", "query time (ms)", "recall"],
        &window_rows,
    );
    print_table(
        "Figure 19 — kNN queries after insertions",
        &["inserted", "index", "query time (ms)", "recall"],
        &knn_rows,
    );
}
// ---------------------------------------------------------------------
// Ablations: each turns off one of RSMI's design choices
// ---------------------------------------------------------------------
fn ablation_rank(args: &Args) {
    // Error bounds are internal model diagnostics (see `table4`), so the
    // concrete RSMI type is used here, its point queries included.
    let data = dataset(Distribution::skewed_default(), n_default(args));
    let mut rows = Vec::new();
    for (label, use_rank) in [("rank-space (paper)", true), ("raw coordinates", false)] {
        let cfg = config(args).rsmi_config().with_rank_space(use_rank);
        let index = rsmi::Rsmi::build(data.clone(), cfg);
        let stats = index.stats();
        let point_qs = queries::point_queries(&data, POINT_QUERIES, 1);
        let mut cx = QueryContext::new();
        for q in &point_qs {
            let _ = index.point_query(q, &mut cx);
        }
        let blocks = cx.take_stats().total_accesses() as f64 / point_qs.len() as f64;
        rows.push(vec![
            label.to_string(),
            format!("({}, {})", stats.max_err_below, stats.max_err_above),
            fmt(blocks),
        ]);
    }
    print_table(
        "Ablation — rank-space ordering vs raw-coordinate ordering (Skewed)",
        &[
            "leaf ordering",
            "max (err_l, err_a)",
            "point-query block accesses",
        ],
        &rows,
    );
}

fn ablation_curve(args: &Args) {
    use sfc::CurveKind;
    let data = dataset(Distribution::skewed_default(), n_default(args));
    let ws = queries::window_queries(&data, WindowSpec::default(), RANGE_QUERIES, 2);
    let mut rows = Vec::new();
    for (label, curve) in [
        ("Hilbert (paper default)", CurveKind::Hilbert),
        ("Z-curve", CurveKind::Z),
    ] {
        let cfg = IndexConfig {
            curve,
            ..config(args)
        };
        let built = build_timed(IndexKind::Rsmi, &data, &cfg);
        let m = measure_window_queries(&built, &data, &ws);
        rows.push(vec![
            label.to_string(),
            fmt(m.avg_time_us / 1000.0),
            fmt(m.recall),
        ]);
    }
    print_table(
        "Ablation — ordering curve for RSMI window queries (Skewed)",
        &["curve", "window query time (ms)", "recall"],
        &rows,
    );
}

fn ablation_grouping(args: &Args) {
    let data = dataset(Distribution::skewed_default(), n_default(args));
    let point_qs = queries::point_queries(&data, POINT_QUERIES, 1);
    let mut rows = Vec::new();
    for (label, by_prediction) in [
        ("model predictions (paper)", true),
        ("true grid cells", false),
    ] {
        // `group_by_prediction` is an RSMI-internal ablation knob, not a
        // registry parameter, so the concrete RSMI type is queried.
        let cfg = config(args)
            .rsmi_config()
            .with_group_by_prediction(by_prediction);
        let index = rsmi::Rsmi::build(data.clone(), cfg);
        let mut cx = QueryContext::new();
        let hits = point_qs
            .iter()
            .filter(|q| index.point_query(q, &mut cx).is_some())
            .count();
        rows.push(vec![
            label.to_string(),
            fmt(hits as f64 / point_qs.len() as f64),
        ]);
    }
    print_table(
        "Ablation — grouping points by model prediction vs true cell (Skewed)",
        &["grouping", "point-query hit rate"],
        &rows,
    );
}
