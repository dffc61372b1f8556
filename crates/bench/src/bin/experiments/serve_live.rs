//! `serve-live` drives the **concurrent serving engine** (`crates/server`):
//! it builds the index selected by `--kind` over the scaled data set
//! (100k points at scale 1), then runs `--readers` reader threads against
//! one writer thread applying a `--write-ratio` read/write workload.  Every
//! reader query records the write-sequence number its snapshot observed;
//! after the run the whole interleaving is replayed single-threadedly
//! against a naive `Vec`-scan oracle and **every** answer is compared — any
//! divergence exits 1.  Background compaction must swap at least one epoch
//! while the readers run (readers never block on it; that's the point).

use crate::cli::{check, Args, Flag, Run, Subcommand};
use crate::harness::{
    dataset, kind, queries as queries_flag, scale, scaled, sharded_config, EPOCHS, SEED, SHARDS,
    THREADS, WRITE_RATIO,
};
use bench::{fmt, print_table, IndexKind};
use datagen::queries::{self, WindowSpec};
use datagen::Distribution;
use registry::BaseKind;

pub const SUBCOMMANDS: &[Subcommand] = &[Subcommand {
    names: &["serve-live"],
    about: "N readers + 1 writer + live compaction, every answer replayed against an oracle",
    flags: &[
        kind("index kind to serve").default("HRR"),
        scale::<100_000>(),
        EPOCHS,
        SHARDS,
        THREADS,
        Flag::value("--readers", "N", check::positive_count, "reader threads").default("8"),
        WRITE_RATIO,
        queries_flag("queries per reader thread"),
    ],
    in_all: false,
    run: Run::Verified(serve_live),
}];

/// `serve-live`: builds a `SpatialServer` over the scaled data set, runs
/// `--readers` reader threads concurrently with one writer thread applying
/// a `--write-ratio` read/write workload, then replays the recorded
/// interleaving single-threadedly against a `Vec`-scan oracle
/// (`bench::live`, shared with `tests/serve_concurrent.rs`): every
/// point-query answer is verified for every kind, and window/kNN answers
/// for exact kinds.  Background compaction must swap at least one epoch
/// under the readers.  Returns whether everything verified.
fn serve_live(args: &Args) -> bool {
    let kind: IndexKind = args.get("--kind");
    let readers: usize = args.get("--readers");
    let queries_per_reader: usize = args.get("--queries");
    let write_ratio: f64 = args.get("--write-ratio");
    let n = scaled(args, 100_000);
    let data = dataset(Distribution::skewed_default(), n);
    let k = 25;

    // One stream at the requested write ratio; reads fan out over the
    // reader threads, writes stay in stream order on the writer thread.
    let total_reads_target = readers * queries_per_reader;
    let total_ops = (total_reads_target as f64 / (1.0 - write_ratio)).round() as usize;
    let ops = queries::read_write_workload(
        &data,
        WindowSpec::default(),
        k,
        total_ops,
        write_ratio,
        SEED ^ 0xA11E,
    );
    let (reads, writes) = bench::live::split_stream(&ops);

    let cfg = sharded_config(args);
    let threshold = (writes.len() / 4).max(16);
    // Policy-driven compaction: kinds with maintenance support serve their
    // epoch swaps as drift-triggered partial rebuilds, everything else
    // falls back to the full fold-and-rebuild pass automatically.
    let scfg = registry::ServerConfig::default()
        .with_compact_threshold(threshold)
        .with_drift_trigger(0.05);
    let start = std::time::Instant::now();
    let server = registry::serve_index(kind, &data, &cfg, scfg);
    let build_s = start.elapsed().as_secs_f64();

    // Serve: N readers snapshot-and-query, 1 writer applies the write
    // stream (paced so it spans the read phase), compaction runs in the
    // server's own background thread throughout.  The shared harness in
    // `bench::live` records (observed seq, answer) per query.
    let run = bench::live::run_live_serving(
        &server,
        &reads,
        &writes,
        readers,
        std::time::Duration::from_micros(500),
    );
    let mut observations = run.observations;
    // The writer is deliberately paced to span the read phase, so the two
    // throughput numbers use their own clocks: reads over the readers'
    // wall time, writes over the writer's unpaced busy time.
    let read_wall_s = run.read_wall.as_secs_f64();
    let write_busy_s = run.write_busy.as_secs_f64();

    // Readers must have been served across epoch swaps: with this many
    // writes the background compactor is required to fold at least once —
    // but its final rebuild may still be in flight when the threads join,
    // so wait for it rather than sampling the counter once.
    let compactions = if writes.len() >= threshold {
        bench::live::await_compactions(&server, 1, std::time::Duration::from_secs(30))
    } else {
        server.stats().compactions
    };
    let compaction_ok = writes.len() < threshold || compactions >= 1;
    if !compaction_ok {
        eprintln!(
            "serve-live FAILED: {} writes buffered but no background compaction ran",
            writes.len()
        );
    }

    // Single-threaded replay oracle: every recorded answer is compared
    // against a naive scan of the write prefix its snapshot observed.
    let outcome = bench::live::replay_against_oracle(
        &data,
        &writes,
        &mut observations,
        kind.exact_windows(),
        kind.exact_knn(),
    );
    let (checked, skipped) = (outcome.checked, outcome.skipped);
    for d in &outcome.divergences {
        eprintln!("serve-live divergence at {d}");
    }
    if !outcome.verified() {
        eprintln!(
            "serve-live FAILED: {} of {} verified answers diverged from the \
             single-threaded replay oracle",
            outcome.mismatches,
            checked + outcome.mismatches
        );
    }
    // Maintenance contract: a learned kind under an incremental policy
    // must have served its swaps with partial passes, and every
    // writer-visible swap pause must fit the policy's pause budget.
    let stats = server.stats();
    let learned = matches!(
        kind,
        IndexKind::Rsmi
            | IndexKind::Rsmia
            | IndexKind::Sharded(BaseKind::Rsmi)
            | IndexKind::Sharded(BaseKind::Rsmia)
    );
    let mut maint_ok = true;
    if learned && stats.compactions > 0 && stats.partial_compactions == 0 {
        eprintln!(
            "serve-live FAILED: {} epoch swaps on {} but none ran as a partial pass",
            stats.compactions,
            kind.name()
        );
        maint_ok = false;
    }
    let journal = server.telemetry().journal.snapshot();
    let mut pause_us: Vec<u64> = Vec::new();
    let mut rebuild_us: Vec<u64> = Vec::new();
    for e in &journal.events {
        match e.kind {
            obs::EventKind::PartialCompactionEnd {
                pause_us: p,
                rebuild_us: r,
                ..
            } => {
                pause_us.push(p);
                rebuild_us.push(r);
            }
            obs::EventKind::CompactionEnd { pause_us: p, .. } => pause_us.push(p),
            _ => {}
        }
    }
    let worst_pause = pause_us.iter().copied().max().unwrap_or(0);
    if worst_pause >= server::PAUSE_BUDGET_US {
        eprintln!(
            "serve-live FAILED: swap pause {worst_pause}us exceeded the \
             {}us pause budget",
            server::PAUSE_BUDGET_US
        );
        maint_ok = false;
    }
    let verified = outcome.verified() && compaction_ok && maint_ok;

    print_table(
        &format!(
            "Live serving — {} readers + 1 writer, {:.0}% writes (Skewed, n = {n}, {})",
            readers,
            write_ratio * 100.0,
            kind.name()
        ),
        &[
            "index",
            "build (s)",
            "reads",
            "writes",
            "read throughput (q/s)",
            "write throughput (op/s, unpaced)",
            "epochs swapped",
            "answers verified",
            "oracle match",
        ],
        &[vec![
            kind.name().to_string(),
            fmt(build_s),
            observations.len().to_string(),
            writes.len().to_string(),
            fmt(observations.len() as f64 / read_wall_s.max(1e-9)),
            fmt(writes.len() as f64 / write_busy_s.max(1e-9)),
            compactions.to_string(),
            format!("{checked} (+{skipped} unverified approximate)"),
            if verified { "yes" } else { "NO" }.to_string(),
        ]],
    );

    // The maintenance datapoint: swap counts plus the pause/rebuild tails.
    let p99 = |series: &[u64]| -> f64 {
        if series.is_empty() {
            return 0.0;
        }
        let mut v = series.to_vec();
        v.sort_unstable();
        v[((v.len() - 1) * 99) / 100] as f64 / 1_000.0
    };
    print_table(
        &format!("Incremental maintenance — {}", kind.name()),
        &[
            "index",
            "epochs swapped",
            "partial passes",
            "full passes",
            "subtree rebuilds",
            "swap pause p99 time (ms)",
            "partial rebuild p99 time (ms)",
        ],
        &[vec![
            kind.name().to_string(),
            stats.compactions.to_string(),
            stats.partial_compactions.to_string(),
            (stats.compactions - stats.partial_compactions).to_string(),
            stats.subtree_rebuilds.to_string(),
            fmt(p99(&pause_us)),
            fmt(p99(&rebuild_us)),
        ]],
    );
    verified
}
