//! Maintenance churn **soak**: a seeded 30%-write live-serving workload is
//! driven through 100+ epoch swaps per learned kind while reader threads
//! query concurrently.  The suite proves the incremental-maintenance layer
//! end to end:
//!
//! * every recorded answer replays exactly against the `Vec`-scan oracle
//!   (the record-and-replay harness of `tests/serve_concurrent.rs`),
//! * the obs counters show **partial** passes carried the entire load —
//!   zero full rebuilds across the whole soak, and
//! * the journal's per-pass counts show every pass stayed small: it folded
//!   at most `TRIGGER` ops and retrained at most `MAX_SUBTREES` subtrees,
//!   and the passes together folded exactly the ops written.
//!
//! Counts, not clocks: three soaks share two cores under `cargo test`, so a
//! pause or rebuild *duration* says more about the neighbours than about the
//! pass.  What a pass costs is measured in `benchmark/` (`mem-churn-200k`:
//! `server.swap_pause_p99_us`, `server.rebuild_p50_ms`).
//!
//! The writer thread folds the delta synchronously every `TRIGGER` writes
//! (`maintain_now`, the policy-driven path), which pins the swap count
//! deterministically above 100 regardless of scheduler timing; readers
//! race those swaps exactly as they do under the background compactor.

use bench::live::{replay_against_oracle, split_stream, LiveAnswer, LiveObs};
use common::{QueryContext, SpatialIndex};
use datagen::queries::{self, MixedQuery, WindowSpec};
use datagen::{generate, Distribution};
use geom::Point;
use obs::EventKind;
use registry::{serve_index, IndexConfig, IndexKind, ServerConfig};
use server::{SpatialServer, WriteOp, MAX_SUBTREES};

const READERS: usize = 3;
/// Writes per epoch swap: small so ~900 writes yield 100+ swaps.
const TRIGGER: usize = 7;

/// 30%-write churn stream whose first two deletes name id 0: the first
/// takes `data[0]`, the one point stored under id 0, and the second names
/// id 0 at `data[1]`'s location, where no copy carries it.  Id 0 is an
/// ordinary id, so both replay in partial passes like any other delete.
fn churn_stream(data: &[Point], n_ops: usize, seed: u64) -> (Vec<MixedQuery>, Vec<WriteOp>) {
    let ops = queries::read_write_workload(data, WindowSpec::default(), 10, n_ops, 0.3, seed);
    let (reads, mut writes) = split_stream(&ops);
    assert_eq!(data[0].id, 0);
    let mut deletes = writes
        .iter_mut()
        .filter(|w| matches!(w, WriteOp::Delete(_)));
    for victim in [data[0], Point::new(data[1].x, data[1].y)] {
        *deletes.next().expect("the stream deletes") = WriteOp::Delete(victim);
    }
    (reads, writes)
}

/// Runs the soak: reader threads stride the read stream and record every
/// answer with its observed sequence number while the writer applies the
/// write stream, folding the delta through `maintain_now` every `TRIGGER`
/// writes (plus once for the tail).
fn run_soak(server: &SpatialServer, reads: &[MixedQuery], writes: &[WriteOp]) -> Vec<LiveObs> {
    let mut observations: Vec<LiveObs> = Vec::with_capacity(reads.len());
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            for (i, op) in writes.iter().enumerate() {
                server.apply(*op);
                if (i + 1) % TRIGGER == 0 {
                    server.maintain_now();
                }
            }
            server.maintain_now();
        });
        let handles: Vec<_> = (0..READERS)
            .map(|r| {
                scope.spawn(move || {
                    let mut cx = QueryContext::new();
                    let mut out = Vec::new();
                    for q in reads.iter().skip(r).step_by(READERS) {
                        let snap = server.snapshot();
                        let seq = snap.seq();
                        let answer = match *q {
                            MixedQuery::Point(p) => {
                                LiveAnswer::Point(snap.point_query(&p, &mut cx).map(|f| f.id))
                            }
                            MixedQuery::Window(w) => {
                                let mut ids: Vec<u64> = Vec::new();
                                snap.window_query_visit(&w, &mut cx, &mut |p| ids.push(p.id));
                                ids.sort_unstable();
                                LiveAnswer::Window(ids)
                            }
                            MixedQuery::Knn(p, k) => {
                                let mut ids: Vec<u64> = Vec::with_capacity(k);
                                snap.knn_query_visit(&p, k, &mut cx, &mut |f| ids.push(f.id));
                                LiveAnswer::Knn(ids)
                            }
                        };
                        out.push(LiveObs {
                            seq,
                            query: *q,
                            answer,
                        });
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            observations.extend(h.join().expect("reader thread panicked"));
        }
        writer.join().expect("writer thread panicked");
    });
    observations
}

/// The full soak for one learned kind.  `verify_windows`/`verify_knn`
/// follow the kind's exactness contract (point answers are always exact
/// and always verified).
fn churn_soak(kind: IndexKind, verify_windows: bool, verify_knn: bool) {
    let data = generate(Distribution::skewed_default(), 3_000, 61);
    let (reads, writes) = churn_stream(&data, 3_000, 17);
    assert!(
        writes.len() / TRIGGER >= 100,
        "workload too small for a 100-swap soak: {} writes",
        writes.len()
    );

    // Low drift trigger so hot subtrees actually retrain during the soak
    // (the point of the exercise) instead of only widening bounds.
    let server = serve_index(
        kind,
        &data,
        &IndexConfig::fast(),
        ServerConfig::default()
            .with_compact_threshold(usize::MAX)
            .with_drift_trigger(0.05),
    );

    let mut observations = run_soak(&server, &reads, &writes);
    assert_eq!(observations.len(), reads.len());

    // 100+ swaps, all of them partial — the obs counters prove no full
    // rebuild carried any of the load.
    let stats = server.stats();
    assert!(
        stats.compactions >= 100,
        "soak produced only {} epoch swaps",
        stats.compactions
    );
    assert_eq!(
        stats.partial_compactions,
        stats.compactions,
        "{} of {} passes fell back to a full rebuild",
        stats.compactions - stats.partial_compactions,
        stats.compactions
    );
    assert!(
        stats.subtree_rebuilds > 0,
        "no subtree was ever retrained — drift never triggered"
    );
    let metrics = server.telemetry().metrics.snapshot();
    assert_eq!(metrics.counter("server.compactions_full"), Some(0));
    assert_eq!(
        metrics.counter("server.compactions_partial"),
        Some(stats.compactions)
    );
    assert_eq!(
        metrics.counter("server.subtree_rebuilds"),
        Some(stats.subtree_rebuilds)
    );

    // Every pass stayed small, by the journal's own counts (it retains the
    // full per-pass series): what went in was at most one trigger's worth
    // of ops, what was retrained at most the per-pass cap, and nothing was
    // folded twice or left behind.
    let journal = server.telemetry().journal.snapshot();
    assert_eq!(journal.dropped, 0, "journal dropped soak events");
    let (mut passes, mut folded, mut retrained) = (0u64, 0u64, 0u64);
    for e in &journal.events {
        match e.kind {
            EventKind::CompactionStart { delta_ops, .. } => {
                assert!(
                    delta_ops <= TRIGGER as u64,
                    "a pass folded {delta_ops} ops, trigger is {TRIGGER}"
                );
                folded += delta_ops;
            }
            EventKind::PartialCompactionEnd { subtrees, .. } => {
                assert!(
                    subtrees <= MAX_SUBTREES as u64,
                    "a pass retrained {subtrees} subtrees, cap is {MAX_SUBTREES}"
                );
                passes += 1;
                retrained += subtrees;
            }
            EventKind::CompactionEnd { .. } => {
                panic!("full-compaction event in an all-partial soak: {:?}", e.kind)
            }
            _ => {}
        }
    }
    assert_eq!(passes, stats.partial_compactions);
    assert_eq!(folded, writes.len() as u64, "ops folded != ops written");
    assert_eq!(retrained, stats.subtree_rebuilds);
    assert_eq!(stats.delta_ops, 0, "ops left unfolded");

    // Every recorded answer replays exactly against the Vec-scan oracle.
    let outcome = replay_against_oracle(
        &data,
        &writes,
        &mut observations,
        verify_windows,
        verify_knn,
    );
    assert!(
        outcome.verified(),
        "{} answers diverged from the replay oracle: {:?}",
        outcome.mismatches,
        outcome.divergences
    );
    assert!(outcome.checked > 0);
    if verify_windows && verify_knn {
        assert_eq!(outcome.checked, reads.len());
        assert_eq!(outcome.skipped, 0);
    }

    // Final state equals the fully-applied oracle.
    let mut oracle: Vec<Point> = data.clone();
    for op in &writes {
        match op {
            WriteOp::Insert(p) => oracle.push(*p),
            WriteOp::Delete(p) => oracle.retain(|x| !(x.same_location(p) && x.id == p.id)),
        }
    }
    assert_eq!(server.len(), oracle.len());
}

/// RSMI: point answers exact (verified), window/kNN approximate by
/// contract (skipped by the oracle).
#[test]
fn churn_soak_rsmi_partial_passes_carry_100_swaps() {
    churn_soak(IndexKind::Rsmi, false, false);
}

/// RSMIa: every query class is exact, so every recorded answer is held to
/// full oracle equality across all 100+ swaps.
#[test]
fn churn_soak_rsmia_every_answer_verified() {
    churn_soak(IndexKind::Rsmia, true, true);
}

/// Regression (delta-overlay ghost): a point that only ever existed in
/// the write buffer — inserted and deleted before any fold — must stay
/// dead through **partial** compaction passes, which replay the log into
/// a clone instead of rebuilding from the canonical vector.
#[test]
fn ghost_delta_delete_stays_dead_across_partial_epochs() {
    let data = generate(Distribution::skewed_default(), 1_500, 23);
    let server = serve_index(
        IndexKind::Rsmi,
        &data,
        &IndexConfig::fast(),
        ServerConfig::default().with_compact_threshold(usize::MAX),
    );
    let ghost = Point::with_id(0.771, 0.333, 7_000_001);
    let mut cx = QueryContext::new();

    for round in 0..3u64 {
        server.apply(WriteOp::Insert(ghost));
        assert!(server.snapshot().point_query(&ghost, &mut cx).is_some());
        server.apply(WriteOp::Delete(ghost));
        // Unrelated churn so the pass has real work besides the ghost.
        for i in 0..10 {
            let base = data[(round as usize * 10 + i) % data.len()];
            server.apply(WriteOp::Insert(Point::with_id(
                base.x,
                base.y,
                8_000_000 + round * 100 + i as u64,
            )));
        }
        assert!(server.maintain_now(), "pass {round} had nothing to fold");
        let stats = server.stats();
        assert_eq!(
            stats.partial_compactions,
            round + 1,
            "pass {round} was not partial"
        );
        assert!(
            server.snapshot().point_query(&ghost, &mut cx).is_none(),
            "ghost resurrected after partial pass {round}"
        );
    }
}

/// Skew rule: a sharded base whose largest shard holds at least four times
/// the mean is repartitioned by a full pass, since a partial pass cannot
/// move points between shards; an even one keeps getting partial passes.
/// The rule reads the base as it was before the pass's own writes, so the
/// pass that folds the skewing inserts is still partial and the skew shows
/// one pass late.  With 8 shards of 250 points, 200 inserts into one
/// corner shard leave max/mean at 450 / 275 ≈ 1.6; 3 000 leave it at
/// 3 250 / 625 = 5.2.
#[test]
fn a_skewed_sharded_base_compacts_fully_and_an_even_one_partially() {
    let data = generate(Distribution::Uniform, 2_000, 71);
    for (inserts, partial) in [(200u64, 2u64), (3_000, 1)] {
        let server = serve_index(
            IndexKind::Sharded(registry::BaseKind::Rsmi),
            &data,
            &IndexConfig::fast().with_shards(8),
            ServerConfig::default().with_compact_threshold(usize::MAX),
        );
        for i in 0..inserts {
            let (x, y) = ((i % 50) as f64 * 1e-4, (i / 50) as f64 * 1e-4);
            server.insert(Point::with_id(x, y, 5_000_000 + i));
        }
        assert!(server.maintain_now());
        server.insert(Point::with_id(0.5, 0.5, 6_000_000));
        assert!(server.maintain_now());
        let stats = server.stats();
        assert_eq!(
            (stats.partial_compactions, stats.compactions),
            (partial, 2),
            "{inserts} corner inserts"
        );
        assert_eq!(stats.len, data.len() + inserts as usize + 1);
    }
}

/// Regression (compaction keeps up): a backlog of 4 096 buffered ops, half
/// of them deletes, folds in one policy-driven pass — the fold walks the
/// canonical points once, not once per delete — and what the server then
/// holds is exactly what the `Vec` oracle holds.
#[test]
fn a_4096_op_backlog_folds_in_one_pass() {
    let data = generate(Distribution::skewed_default(), 6_000, 29);
    let server = serve_index(
        IndexKind::Rsmi,
        &data,
        &IndexConfig::fast(),
        ServerConfig::default().with_compact_threshold(usize::MAX),
    );
    let mut oracle = data.clone();
    let delete = |oracle: &mut Vec<Point>, victim: Point| {
        let before = oracle.len();
        oracle.retain(|x| !(x.same_location(&victim) && x.id == victim.id));
        assert_eq!(
            server.apply(WriteOp::Delete(victim)).0,
            oracle.len() != before
        );
    };
    let fresh = |i: usize| Point::with_id(0.3, 0.0001 * i as f64, 9_000_000 + i as u64);
    // From `data[0]` (id 0) on.
    let base_point = |i: usize| data[(2 * i) % data.len()];
    for i in 0..2_048usize {
        let victim = match i % 8 {
            2 => base_point(i - 1), // already deleted: a no-op
            4 => fresh(i - 2),      // both buffered copies of one key
            6 => base_point(i - 1), // deleted, re-inserted, deleted again
            7 => fresh(i - 1),      // an insert buffered one round earlier
            _ => base_point(i),
        };
        delete(&mut oracle, victim);
        let p = match i % 8 {
            3 => fresh(i - 1), // a second copy
            5 => victim,       // the re-insert of a deleted base point
            _ => fresh(i),
        };
        server.apply(WriteOp::Insert(p));
        oracle.push(p);
    }
    assert_eq!(server.stats().delta_ops, 4_096);
    assert!(server.maintain_now());
    let stats = server.stats();
    assert_eq!(stats.delta_ops, 0);
    assert_eq!((stats.compactions, stats.partial_compactions), (1, 1));
    assert_eq!(stats.len, oracle.len());

    let key = |p: &Point| (p.id, p.x.to_bits(), p.y.to_bits());
    let mut held: Vec<_> = Vec::with_capacity(oracle.len());
    common::SpatialIndex::for_each_point(&server, &mut |p| held.push(key(p)));
    let mut expect: Vec<_> = oracle.iter().map(key).collect();
    held.sort_unstable();
    expect.sort_unstable();
    assert_eq!(held, expect);
    let mut cx = QueryContext::new();
    for q in oracle.iter().step_by(37) {
        assert!(server.snapshot().point_query(q, &mut cx).is_some());
    }
}
