//! `sharded` is not a paper figure: it measures the sharded serving engine
//! (`crates/engine`) against the unsharded families — shard fan-out
//! (`shards_visited` / `shards_pruned`) on a hotspot window workload and
//! the wall-clock speedup of the multi-threaded batch executor.

use crate::cli::{Args, Run, Subcommand};
use crate::harness::{
    dataset, n_default, only, scale, sharded_config, EPOCHS, ONLY, RANGE_QUERIES, SHARDS, THREADS,
};
use bench::{build_timed, fmt, print_table};
use common::QueryContext;
use datagen::queries::{self, WindowSpec};
use datagen::Distribution;
use registry::BaseKind;

pub const SUBCOMMANDS: &[Subcommand] = &[Subcommand {
    names: &["sharded"],
    about: "sharded engine vs unsharded families: shard fan-out and batch speedup",
    flags: &[scale::<20_000>(), EPOCHS, ONLY, SHARDS, THREADS],
    in_all: true,
    run: Run::Report(sharded),
}];

fn sharded(args: &Args) {
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

    let mut rows = Vec::new();
    for base in bases {
        // Reference: the unsharded family on the same batch workload.
        let flat = build_timed(base.unsharded(), &data, &cfg);
        let mut cx = QueryContext::new();
        let start = std::time::Instant::now();
        let _ = flat.index.window_queries(&windows, &mut cx);
        let flat_ms = start.elapsed().as_secs_f64() * 1e3 / windows.len() as f64;

        // Sharded composition, same inner family.  One build serves both
        // timings: a sequential per-call loop (the --threads 1 path) and the
        // parallel batch entry point (--threads N).
        let built = build_timed(base.sharded(), &data, &cfg);
        let mut seq_cx = QueryContext::new();
        let start = std::time::Instant::now();
        for w in &windows {
            let _ = built.index.window_query(w, &mut seq_cx);
        }
        let seq_ms = start.elapsed().as_secs_f64() * 1e3 / windows.len() as f64;
        let stats = seq_cx.take_stats();

        let mut par_cx = QueryContext::new();
        let start = std::time::Instant::now();
        let _ = built.index.window_queries(&windows, &mut par_cx);
        let par_ms = start.elapsed().as_secs_f64() * 1e3 / windows.len() as f64;

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
}
