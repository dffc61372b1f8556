//! `sharded` is not a paper figure: it measures the sharded serving engine
//! (`crates/engine`) against the unsharded families — shard fan-out
//! (`shards_visited` / `shards_pruned`) on a hotspot window workload and
//! the wall-clock speedup of splitting the same loop over `--threads`
//! workers with `engine::executor::run_batch`.  The parallel batch must
//! return the sequential loop's answers and merged statistics; it exits 1
//! on any difference.

use crate::cli::{Args, Run, Subcommand};
use crate::harness::{
    dataset, n_default, only, scale, sharded_config, EPOCHS, ONLY, RANGE_QUERIES, SHARDS, THREADS,
};
use bench::{build_timed, fmt, print_table};
use common::QueryContext;
use datagen::queries::{self, WindowSpec};
use datagen::Distribution;
use engine::executor::run_batch;
use geom::Point;
use registry::BaseKind;

pub const SUBCOMMANDS: &[Subcommand] = &[Subcommand {
    names: &["sharded"],
    about: "sharded engine vs unsharded families: shard fan-out and batch speedup",
    flags: &[scale::<20_000>(), EPOCHS, ONLY, SHARDS, THREADS],
    in_all: true,
    run: Run::Verified(sharded),
}];

/// Returns whether every parallel batch matched its sequential loop.
fn sharded(args: &Args) -> bool {
    let n = n_default(args);
    let data = dataset(Distribution::skewed_default(), n);
    let windows = queries::hotspot_window_queries(&data, WindowSpec::default(), RANGE_QUERIES, 3);
    let cfg = sharded_config(args);
    let only = only(args);

    // `--only` may name either form of a family (`HRR` or `sharded-hrr`);
    // both select the same comparison row.
    let bases: Vec<BaseKind> = BaseKind::all()
        .into_iter()
        .filter(|b| match &only {
            None => true,
            Some(only) => only.contains(&b.unsharded()) || only.contains(&b.sharded()),
        })
        .filter(|b| *b != BaseKind::Rsmia)
        .collect();

    let by_id = |mut sets: Vec<Vec<Point>>| {
        sets.iter_mut().for_each(|set| set.sort_by_key(|p| p.id));
        sets
    };
    let mut verified = true;
    let mut rows = Vec::new();
    for base in bases {
        // Reference: the unsharded family on the same workload.
        let flat = build_timed(base.unsharded(), &data, &cfg);
        let mut cx = QueryContext::new();
        let start = std::time::Instant::now();
        for w in &windows {
            let _ = flat.index.window_query(w, &mut cx);
        }
        let flat_ms = start.elapsed().as_secs_f64() * 1e3 / windows.len() as f64;

        // Sharded composition, same inner family.  One build serves both
        // timings: the sequential per-call loop and the same loop split over
        // --threads workers.
        let built = build_timed(base.sharded(), &data, &cfg);
        let mut seq_cx = QueryContext::new();
        let start = std::time::Instant::now();
        let seq: Vec<_> = windows
            .iter()
            .map(|w| built.index.window_query(w, &mut seq_cx))
            .collect();
        let seq_ms = start.elapsed().as_secs_f64() * 1e3 / windows.len() as f64;
        let stats = seq_cx.take_stats();

        let start = std::time::Instant::now();
        let (par, par_stats) = run_batch(&windows, cfg.threads, |ws, cx| {
            ws.iter().map(|w| built.index.window_query(w, cx)).collect()
        });
        let par_ms = start.elapsed().as_secs_f64() * 1e3 / windows.len() as f64;
        if by_id(par) != by_id(seq) || par_stats != stats {
            verified = false;
            eprintln!(
                "sharded experiment FAILED: {} at {} workers differs from the sequential loop",
                built.kind.name(),
                cfg.threads
            );
        }

        let per_query = |v: u64| v as f64 / windows.len() as f64;
        rows.push(vec![
            built.kind.name().to_string(),
            fmt(flat_ms),
            fmt(seq_ms),
            fmt(par_ms),
            fmt(seq_ms / par_ms.max(1e-9)),
            fmt(per_query(stats.shards_visited)),
            fmt(per_query(stats.shards_pruned)),
        ]);
    }
    print_table(
        &format!(
            "Sharded serving — hotspot windows (Skewed, n = {n}, S = {}, {} worker threads)",
            cfg.shards, cfg.threads
        ),
        &[
            "index",
            "unsharded (ms)",
            "sharded 1-thread (ms)",
            &format!("sharded {}-thread (ms)", cfg.threads),
            "batch speedup",
            "shards visited/query",
            "shards pruned/query",
        ],
        &rows,
    );
    verified
}
