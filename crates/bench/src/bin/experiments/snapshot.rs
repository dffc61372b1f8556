//! `snapshot` and `serve` drive persistence end-to-end.  `snapshot` builds
//! the index selected by `--kind`, runs the query workload, saves a
//! versioned binary snapshot to `--path`, drops the index, loads it back,
//! and asserts the replayed workload is answer- and stats-identical.
//! `serve` is the restart side: in a *fresh process* it loads the snapshot
//! from `--path`, rebuilds the same index from scratch (the builds are
//! deterministic), and diffs the two — CI runs the pair as consecutive
//! process invocations.  Both exit 1 on any mismatch.

use crate::cli::{Args, Run, Subcommand};
use crate::harness::{
    dataset, kind, n_default, path, scale, sharded_config, EPOCHS, SHARDS, THREADS,
};
use bench::{build_timed, fmt, print_table, replay_workload, IndexKind, ReplaySpec};
use datagen::Distribution;
use std::path::PathBuf;

pub const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        names: &["snapshot"],
        about: "build, save to --path, reload, verify identical answers and stats",
        flags: &[
            path("snapshot file to write").required(),
            kind("index kind to build").default("sharded-hrr"),
            scale::<20_000>(),
            EPOCHS,
            SHARDS,
            THREADS,
        ],
        in_all: false,
        run: Run::Verified(snapshot),
    },
    Subcommand {
        names: &["serve"],
        about: "load --path in a fresh process, diff against a deterministic fresh build",
        flags: &[
            path("snapshot file written by `snapshot`").required(),
            kind("expected kind (default: whatever the snapshot header says)"),
            scale::<20_000>(),
            EPOCHS,
            SHARDS,
            THREADS,
        ],
        in_all: false,
        run: Run::Verified(serve),
    },
];

/// `snapshot`: build → workload → save → drop → load → replay → assert
/// identical answers and stats, all in one process.  Returns whether the
/// round trip verified.
fn snapshot(args: &Args) -> bool {
    let kind: IndexKind = args.get("--kind");
    let path: PathBuf = args.get("--path");
    let data = dataset(Distribution::skewed_default(), n_default(args));
    let cfg = sharded_config(args);

    let built = build_timed(kind, &data, &cfg);
    let reference = replay_workload(built.index.as_ref(), &data, &ReplaySpec::default());

    let start = std::time::Instant::now();
    if let Err(e) = registry::save_index(built.index.as_ref(), &path) {
        eprintln!("failed to save snapshot to {}: {e}", path.display());
        return false;
    }
    let save_s = start.elapsed().as_secs_f64();
    let file_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    drop(built);

    let start = std::time::Instant::now();
    let loaded = match registry::load_index(&path) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("failed to load snapshot from {}: {e}", path.display());
            return false;
        }
    };
    let load_s = start.elapsed().as_secs_f64();
    let replayed = replay_workload(loaded.as_ref(), &data, &ReplaySpec::default());
    let verified = reference.matches(&replayed);

    print_table(
        &format!(
            "Snapshot round trip — {} (Skewed, n = {})",
            kind.name(),
            data.len()
        ),
        &[
            "index",
            "snapshot (MB)",
            "save (ms)",
            "load (ms)",
            "blocks/workload",
            "identical answers + stats",
        ],
        &[vec![
            kind.name().to_string(),
            fmt(file_bytes as f64 / (1024.0 * 1024.0)),
            fmt(save_s * 1e3),
            fmt(load_s * 1e3),
            replayed.stats.blocks_touched.to_string(),
            if verified { "yes" } else { "NO" }.to_string(),
        ]],
    );
    if !verified {
        eprintln!("snapshot round trip FAILED: loaded index diverged from the built one");
    }
    verified
}

/// `serve`: the restart side of the pair.  Loads the snapshot written by a
/// previous `snapshot` invocation (a different process), rebuilds the same
/// index deterministically from the same parameters, and diffs the replayed
/// workload answers and statistics.  Returns whether they match.
fn serve(args: &Args) -> bool {
    let path: PathBuf = args.get("--path");
    let start = std::time::Instant::now();
    let loaded = match registry::load_index(&path) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("failed to load snapshot from {}: {e}", path.display());
            return false;
        }
    };
    let load_s = start.elapsed().as_secs_f64();

    let kind = match args.opt::<IndexKind>("--kind") {
        Some(k) => k,
        // The snapshot header knows what it holds; its display name parses
        // back through the registry.
        None => match loaded.name().parse() {
            Ok(k) => k,
            Err(_) => {
                eprintln!("snapshot holds unregistered kind '{}'", loaded.name());
                return false;
            }
        },
    };
    if kind.name() != loaded.name() {
        eprintln!(
            "--kind {} does not match the snapshot's kind {}",
            kind.name(),
            loaded.name()
        );
        return false;
    }

    let data = dataset(Distribution::skewed_default(), n_default(args));
    let fresh = build_timed(kind, &data, &sharded_config(args));
    if fresh.index.len() != loaded.len() {
        eprintln!(
            "snapshot holds {} points but the fresh build has {} — were snapshot and serve \
             invoked with the same --scale?",
            loaded.len(),
            fresh.index.len()
        );
        return false;
    }
    let from_snapshot = replay_workload(loaded.as_ref(), &data, &ReplaySpec::default());
    let from_build = replay_workload(fresh.index.as_ref(), &data, &ReplaySpec::default());
    let verified = from_snapshot.matches(&from_build);

    print_table(
        &format!(
            "Serve from snapshot — {} (Skewed, n = {})",
            kind.name(),
            data.len()
        ),
        &[
            "index",
            "load (ms)",
            "fresh build (s)",
            "restart speedup",
            "identical answers + stats",
        ],
        &[vec![
            kind.name().to_string(),
            fmt(load_s * 1e3),
            fmt(fresh.build_seconds),
            fmt(fresh.build_seconds / load_s.max(1e-9)),
            if verified { "yes" } else { "NO" }.to_string(),
        ]],
    );
    if !verified {
        eprintln!("serve verification FAILED: snapshot diverged from the fresh build");
    }
    verified
}
