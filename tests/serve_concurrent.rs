//! Concurrent-serving integration test: reader threads query a live
//! [`registry::SpatialServer`] while a writer thread applies a read/write
//! workload and the **background** compaction thread swaps epochs
//! underneath them.  Every reader records the write-sequence number its
//! snapshot observed; afterwards the whole interleaving is replayed
//! single-threadedly against a `Vec`-scan oracle and every answer is
//! compared.  The record-and-replay harness is `bench::live` — the same
//! code the `serve-live` CI gate runs, so the test and the gate cannot
//! drift apart.  (CI reruns this test in release mode, where thread
//! interleaving is real.)

use bench::live::{await_compactions, replay_against_oracle, run_live_serving, split_stream};
use common::SpatialIndex;
use datagen::queries::{self, WindowSpec};
use datagen::{generate, Distribution};
use registry::{serve_index, IndexConfig, IndexKind, ServerConfig};
use server::WriteOp;
use std::time::Duration;

#[test]
fn concurrent_readers_writer_and_compaction_match_the_replay_oracle() {
    const READERS: usize = 4;
    let data = generate(Distribution::skewed_default(), 4_000, 77);
    let ops = queries::read_write_workload(&data, WindowSpec::default(), 10, 1_500, 0.15, 7);
    let (reads, writes) = split_stream(&ops);
    assert!(!writes.is_empty() && !reads.is_empty());

    // Aggressive threshold so several background compactions run during
    // the read phase.
    let threshold = (writes.len() / 5).max(8);
    let server = serve_index(
        IndexKind::Hrr,
        &data,
        &IndexConfig::fast(),
        ServerConfig::default().with_compact_threshold(threshold),
    );

    // Writes paced across the read phase so snapshots land at many
    // different sequence numbers.
    let run = run_live_serving(
        &server,
        &reads,
        &writes,
        READERS,
        Duration::from_micros(200),
    );
    let mut observations = run.observations;
    assert_eq!(observations.len(), reads.len());

    // The background compactor must fold at least once under the readers;
    // its final rebuild may still be in flight when the threads join, so
    // wait for it instead of sampling the counter once.
    let compactions = await_compactions(&server, 1, Duration::from_secs(30));
    assert!(
        compactions >= 1,
        "background compaction never ran (threshold {threshold})"
    );

    // Single-threaded replay: every recorded answer must equal the naive
    // scan of exactly the write prefix its snapshot observed.  HRR is
    // exact, so all three query types are held to full equality.
    let outcome = replay_against_oracle(&data, &writes, &mut observations, true, true);
    assert!(
        outcome.verified(),
        "{} answers diverged from the replay oracle: {:?}",
        outcome.mismatches,
        outcome.divergences
    );
    assert_eq!(outcome.checked, reads.len());
    assert_eq!(outcome.skipped, 0);

    // Final state equals the fully-applied oracle.
    let stats = server.stats();
    assert_eq!(stats.seq, writes.len() as u64);
    let mut oracle: Vec<geom::Point> = data.clone();
    for op in &writes {
        match op {
            WriteOp::Insert(p) => oracle.push(*p),
            WriteOp::Delete(p) => oracle.retain(|x| !(x.same_location(p) && x.id == p.id)),
        }
    }
    assert_eq!(server.len(), oracle.len());
}

/// Policy-driven variant: a **learned** kind under the background
/// compactor with an incremental policy.  The background passes must run
/// as partial rebuilds (clone, replay, retrain drifted subtrees) while
/// readers race the epoch swaps, and every recorded answer must still
/// replay exactly against the oracle — RSMIa is exact, so all three
/// query types are held to full equality.
#[test]
fn background_partial_compaction_serves_a_learned_kind_verifiably() {
    const READERS: usize = 4;
    let data = generate(Distribution::skewed_default(), 3_000, 83);
    let ops = queries::read_write_workload(&data, WindowSpec::default(), 10, 1_200, 0.3, 19);
    let (reads, mut writes) = split_stream(&ops);
    assert!(!writes.is_empty() && !reads.is_empty());
    // The first delete takes the id-0 point: an ordinary delete, folded by
    // a partial pass like the rest.
    let first_delete = writes.iter_mut().find(|w| matches!(w, WriteOp::Delete(_)));
    *first_delete.expect("the stream deletes") = WriteOp::Delete(data[0]);

    let threshold = (writes.len() / 6).max(8);
    let server = serve_index(
        IndexKind::Rsmia,
        &data,
        &IndexConfig::fast(),
        ServerConfig::default()
            .with_compact_threshold(threshold)
            .with_drift_trigger(0.05),
    );

    let run = run_live_serving(
        &server,
        &reads,
        &writes,
        READERS,
        Duration::from_micros(200),
    );
    let mut observations = run.observations;
    assert_eq!(observations.len(), reads.len());

    let compactions = await_compactions(&server, 1, Duration::from_secs(30));
    assert!(
        compactions >= 1,
        "background compaction never ran (threshold {threshold})"
    );
    // Every background pass resolved to a partial rebuild: the full
    // counter is monotone, so zero here means zero for the whole run.
    let metrics = server.telemetry().metrics.snapshot();
    assert_eq!(metrics.counter("server.compactions_full"), Some(0));
    assert!(metrics.counter("server.compactions_partial") >= Some(1));

    let outcome = replay_against_oracle(&data, &writes, &mut observations, true, true);
    assert!(
        outcome.verified(),
        "{} answers diverged from the replay oracle: {:?}",
        outcome.mismatches,
        outcome.divergences
    );
    assert_eq!(outcome.checked, reads.len());
    assert_eq!(outcome.skipped, 0);
}
