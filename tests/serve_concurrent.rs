//! Concurrent-serving integration test: reader threads query a live
//! [`registry::SpatialServer`] while a writer thread applies a read/write
//! workload and the **background** compaction thread swaps epochs
//! underneath them.  Every reader records the write-sequence number its
//! snapshot observed; afterwards the whole interleaving is replayed
//! single-threadedly against a `Vec`-scan oracle and every answer is
//! compared.  The record-and-replay harness is `bench::live`.
//!
//! One body serves every [`Row`].  The two small rows run in every build;
//! the two gate rows (HRR over 100 000 points at 10 % writes, RSMIa over
//! 20 000 at 30 %, 8 readers each) run under `--release` only, where thread
//! interleaving is real, and they also hold every epoch swap's pause to
//! [`server::PAUSE_BUDGET_US`].

use bench::live::{await_compactions, replay_against_oracle, run_live_serving, split_stream};
use common::SpatialIndex;
use datagen::queries::{self, WindowSpec};
use datagen::{generate, Distribution};
use obs::EventKind;
use registry::{serve_index, IndexConfig, IndexKind, ServerConfig};
use server::WriteOp;
use std::time::Duration;

/// One serving run: the data, the read/write stream, the server's
/// compaction policy, and how many readers race one paced writer.
struct Row {
    kind: IndexKind,
    /// Skewed points and their generator seed.
    n: usize,
    data_seed: u64,
    cfg: IndexConfig,
    /// `read_write_workload`'s `k`, operation count, write share and seed.
    k: usize,
    ops: usize,
    write_ratio: f64,
    stream_seed: u64,
    /// The compaction threshold is `max(writes / .0, .1)`.
    threshold: (usize, usize),
    drift_trigger: Option<f64>,
    readers: usize,
    write_pace: Duration,
    /// The stream's first delete takes the id-0 point.
    delete_point_0: bool,
    /// Every swap must be a partial pass, never a full rebuild.
    partial_only: bool,
    /// Every swap pause must stay under [`server::PAUSE_BUDGET_US`].
    check_pauses: bool,
}

/// The gate rows: the experiments harness's build (blocks of 100, partition
/// threshold 5 000, 4 shards on 4 threads) over skewed points at seed 42;
/// 8 readers x 500 reads, k = 25, a compaction every quarter of the writes
/// (at least 16) with a 5 % drift trigger, writes paced 500 us apart.
fn gate_row(kind: IndexKind, n: usize, epochs: usize, write_ratio: f64) -> Row {
    const READERS: usize = 8;
    Row {
        kind,
        n,
        data_seed: 42,
        cfg: IndexConfig::default()
            .with_partition_threshold(5_000)
            .with_epochs(epochs)
            .with_threads(4),
        k: 25,
        ops: ((READERS * 500) as f64 / (1.0 - write_ratio)).round() as usize,
        write_ratio,
        stream_seed: 42 ^ 0xA11E,
        threshold: (4, 16),
        drift_trigger: Some(0.05),
        readers: READERS,
        write_pace: Duration::from_micros(500),
        delete_point_0: false,
        partial_only: kind == IndexKind::Rsmia,
        check_pauses: true,
    }
}

/// Runs one row and asserts what it serves: every answer replays exactly,
/// the background compactor swapped at least once, the final state holds
/// every write, and a `partial_only` row never fell back to a full rebuild.
fn serve(row: &Row) {
    let kind = row.kind;
    let data = generate(Distribution::skewed_default(), row.n, row.data_seed);
    let ops = queries::read_write_workload(
        &data,
        WindowSpec::default(),
        row.k,
        row.ops,
        row.write_ratio,
        row.stream_seed,
    );
    let (reads, mut writes) = split_stream(&ops);
    assert!(!writes.is_empty() && !reads.is_empty());
    if row.delete_point_0 {
        // An ordinary delete, folded by a pass like the rest.
        let first_delete = writes.iter_mut().find(|w| matches!(w, WriteOp::Delete(_)));
        *first_delete.expect("the stream deletes") = WriteOp::Delete(data[0]);
    }

    let threshold = (writes.len() / row.threshold.0).max(row.threshold.1);
    let mut scfg = ServerConfig::default().with_compact_threshold(threshold);
    if let Some(drift) = row.drift_trigger {
        scfg = scfg.with_drift_trigger(drift);
    }
    let server = serve_index(kind, &data, &row.cfg, scfg);

    // Writes paced across the read phase so snapshots land at many
    // different sequence numbers.
    let mut observations = run_live_serving(&server, &reads, &writes, row.readers, row.write_pace);
    assert_eq!(observations.len(), reads.len());

    // The background compactor must fold at least once under the readers;
    // its final rebuild may still be in flight when the threads join, so
    // wait for it instead of sampling the counter once.
    let compactions = await_compactions(&server, 1, Duration::from_secs(30));
    assert!(
        compactions >= 1,
        "{}: background compaction never ran (threshold {threshold})",
        kind.name()
    );

    // A learned kind under the drift policy serves its swaps as partial
    // rebuilds (clone, replay, retrain drifted subtrees).  The full counter
    // is monotone, so zero here means zero for the whole run.
    let metrics = server.telemetry().metrics.snapshot();
    if row.partial_only {
        assert_eq!(
            metrics.counter("server.compactions_full"),
            Some(0),
            "{}: a background pass fell back to a full rebuild",
            kind.name()
        );
        assert!(metrics.counter("server.compactions_partial") >= Some(1));
    }

    if row.check_pauses {
        for event in &server.telemetry().journal.snapshot().events {
            if let EventKind::CompactionEnd { pause_us, .. }
            | EventKind::PartialCompactionEnd { pause_us, .. } = event.kind
            {
                assert!(
                    pause_us < server::PAUSE_BUDGET_US,
                    "{}: swap pause {pause_us} us exceeded the {} us budget",
                    kind.name(),
                    server::PAUSE_BUDGET_US
                );
            }
        }
    }

    // Single-threaded replay: every recorded answer must equal the naive
    // scan of exactly the write prefix its snapshot observed.  Every row's
    // kind is exact, so all three query types are held to full equality.
    let outcome = replay_against_oracle(&data, &writes, &mut observations, true, true);
    assert!(
        outcome.verified(),
        "{}: {} answers diverged from the replay oracle: {:?}",
        kind.name(),
        outcome.mismatches,
        outcome.divergences
    );
    assert_eq!(outcome.checked, reads.len());
    assert_eq!(outcome.skipped, 0);

    // Final state equals the fully-applied oracle.
    assert_eq!(server.stats().seq, writes.len() as u64);
    let mut oracle: Vec<geom::Point> = data.clone();
    for op in &writes {
        match op {
            WriteOp::Insert(p) => oracle.push(*p),
            WriteOp::Delete(p) => oracle.retain(|x| !(x.same_location(p) && x.id == p.id)),
        }
    }
    assert_eq!(server.len(), oracle.len());
}

#[test]
fn concurrent_readers_writer_and_compaction_match_the_replay_oracle() {
    serve(&Row {
        kind: IndexKind::Hrr,
        n: 4_000,
        data_seed: 77,
        cfg: IndexConfig::fast(),
        k: 10,
        ops: 1_500,
        write_ratio: 0.15,
        stream_seed: 7,
        // Aggressive threshold so several background compactions run
        // during the read phase.
        threshold: (5, 8),
        drift_trigger: None,
        readers: 4,
        write_pace: Duration::from_micros(200),
        delete_point_0: false,
        partial_only: false,
        check_pauses: false,
    });
}

/// A **learned** kind under the background compactor with an incremental
/// policy: the passes run as partial rebuilds while readers race the epoch
/// swaps.
#[test]
fn background_partial_compaction_serves_a_learned_kind_verifiably() {
    serve(&Row {
        kind: IndexKind::Rsmia,
        n: 3_000,
        data_seed: 83,
        cfg: IndexConfig::fast(),
        k: 10,
        ops: 1_200,
        write_ratio: 0.3,
        stream_seed: 19,
        threshold: (6, 8),
        drift_trigger: Some(0.05),
        readers: 4,
        write_pace: Duration::from_micros(200),
        delete_point_0: true,
        partial_only: true,
        check_pauses: false,
    });
}

/// The two gate rows, one after the other so that neither's swap pauses
/// are measured under the other's threads.
#[test]
fn gate_rows_serve_verifiably_within_the_pause_budget() {
    if cfg!(debug_assertions) {
        println!("skipped: the 100 000- and 20 000-point gate rows run under --release only");
        return;
    }
    serve(&gate_row(IndexKind::Hrr, 100_000, 30, 0.1));
    serve(&gate_row(IndexKind::Rsmia, 20_000, 10, 0.3));
}
