//! Record-and-replay harness for the concurrent serving engine: run reader
//! threads against a live [`SpatialServer`] while a writer applies a
//! sequenced op stream, then verify **every** recorded answer against a
//! single-threaded `Vec`-scan oracle.
//!
//! The concurrent-serving, maintenance-churn and networked-serving test
//! suites verify through this module.  The mechanism: every reader query
//! records the write-sequence number its snapshot observed
//! ([`server::Snapshot::seq`]); replaying the writes up to that sequence
//! number into a [`ScanIndex`] reproduces exactly the state the query saw,
//! no matter how the threads interleaved.

use common::brute_force::ScanIndex;
use common::{QueryContext, SpatialIndex};
use datagen::queries::MixedQuery;
use geom::{order_key, Point};
use server::{SpatialServer, WriteOp};
use std::time::Duration;

/// One recorded reader answer, reduced to ids for the replay comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveAnswer {
    /// Point-query answer (the hit's id).
    Point(Option<u64>),
    /// Window result ids, sorted (visit order is unspecified).
    Window(Vec<u64>),
    /// kNN result ids, closest first (the order is part of the contract).
    Knn(Vec<u64>),
}

/// One reader observation: which query, which write-stream prefix the
/// snapshot observed, and what came back.
#[derive(Debug, Clone)]
pub struct LiveObs {
    /// Write sequence number the snapshot observed.
    pub seq: u64,
    /// The query that was run.
    pub query: MixedQuery,
    /// The recorded answer.
    pub answer: LiveAnswer,
}

/// Splits a [`read_write_workload`](datagen::queries::read_write_workload)
/// stream into the harness's two inputs: the reads (fanned out over reader
/// threads) and the writes (applied in stream order by the writer thread).
pub fn split_stream(ops: &[datagen::queries::ServeOp]) -> (Vec<MixedQuery>, Vec<WriteOp>) {
    use datagen::queries::ServeOp;
    let reads = ops
        .iter()
        .filter_map(|o| match o {
            ServeOp::Read(q) => Some(*q),
            _ => None,
        })
        .collect();
    let writes = ops
        .iter()
        .filter_map(|o| match o {
            ServeOp::Insert(p) => Some(WriteOp::Insert(*p)),
            ServeOp::Delete(p) => Some(WriteOp::Delete(*p)),
            ServeOp::Read(_) => None,
        })
        .collect();
    (reads, writes)
}

/// Runs `readers` reader threads (each taking a stride of `reads`) against
/// the live server while one writer thread applies `writes` in stream
/// order, pacing each write by `write_pace` so the writes span the read
/// phase.  The server's own background compaction runs throughout.
/// Returns every reader observation.
pub fn run_live_serving(
    server: &SpatialServer,
    reads: &[MixedQuery],
    writes: &[WriteOp],
    readers: usize,
    write_pace: Duration,
) -> Vec<LiveObs> {
    let mut observations: Vec<LiveObs> = Vec::with_capacity(reads.len());
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            for op in writes {
                server.apply(*op);
                std::thread::sleep(write_pace);
            }
        });
        let handles: Vec<_> = (0..readers)
            .map(|r| {
                scope.spawn(move || {
                    let mut cx = QueryContext::new();
                    let mut out = Vec::new();
                    for q in reads.iter().skip(r).step_by(readers) {
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

/// Drives a mixed read stream through any [`SpatialIndex`] — a local
/// index, a server snapshot wrapper, or a `net::RemoteIndex` speaking the
/// wire protocol — recording one [`LiveObs`] per query.  `seq_after` is
/// called immediately after each query and must report the write sequence
/// that query's answer observed (for a remote index, the sequence its
/// response frame carried; for a snapshot, the snapshot's own sequence).
/// This is what lets the same oracle replay verify local and networked
/// serving without per-transport glue.
pub fn observe_reads(
    index: &dyn SpatialIndex,
    reads: &[MixedQuery],
    seq_after: &mut dyn FnMut() -> u64,
) -> Vec<LiveObs> {
    let mut cx = QueryContext::new();
    reads
        .iter()
        .map(|q| {
            let answer = match *q {
                MixedQuery::Point(p) => {
                    LiveAnswer::Point(index.point_query(&p, &mut cx).map(|f| f.id))
                }
                MixedQuery::Window(w) => {
                    let mut ids: Vec<u64> = index
                        .window_query(&w, &mut cx)
                        .iter()
                        .map(|p| p.id)
                        .collect();
                    ids.sort_unstable();
                    LiveAnswer::Window(ids)
                }
                MixedQuery::Knn(p, k) => LiveAnswer::Knn(
                    index
                        .knn_query(&p, k, &mut cx)
                        .iter()
                        .map(|f| f.id)
                        .collect(),
                ),
            };
            LiveObs {
                seq: seq_after(),
                query: *q,
                answer,
            }
        })
        .collect()
}

/// One recorded distance-range answer, reduced to sorted ids (visit order
/// is unspecified).
#[derive(Debug, Clone)]
pub struct RangeObs {
    /// Write sequence the answer observed.
    pub seq: u64,
    /// The query center.
    pub center: Point,
    /// Result ids, sorted.
    pub ids: Vec<u64>,
}

/// One recorded join-probe answer, reduced to sorted `(probe id, match
/// id)` pairs.
#[derive(Debug, Clone)]
pub struct JoinObs {
    /// Write sequence the answer observed.
    pub seq: u64,
    /// The probe set.
    pub probes: Vec<Point>,
    /// `(probe id, match id)` pairs, sorted.
    pub pairs: Vec<(u64, u64)>,
}

/// Drives the two distance-predicate classes the mixed stream does not
/// carry — distance-range at every center, a 4-probe distance join at
/// every fourth — through any [`SpatialIndex`], with the same `seq_after`
/// contract as [`observe_reads`].
pub fn observe_range_join(
    index: &dyn SpatialIndex,
    centers: &[Point],
    radius: f64,
    seq_after: &mut dyn FnMut() -> u64,
) -> (Vec<RangeObs>, Vec<JoinObs>) {
    let mut cx = QueryContext::new();
    let mut ranges = Vec::new();
    let mut joins = Vec::new();
    for (i, c) in centers.iter().enumerate() {
        let mut ids: Vec<u64> = index
            .range_query(c, radius, &mut cx)
            .iter()
            .map(|p| p.id)
            .collect();
        ids.sort_unstable();
        ranges.push(RangeObs {
            seq: seq_after(),
            center: *c,
            ids,
        });
        if i.is_multiple_of(4) {
            let probes: Vec<Point> = centers.iter().skip(i).take(4).copied().collect();
            let mut pairs: Vec<(u64, u64)> = Vec::new();
            index.distance_join_probes(&probes, radius, &mut cx, &mut |m, probe| {
                pairs.push((probe.id, m.id));
            });
            pairs.sort_unstable();
            joins.push(JoinObs {
                seq: seq_after(),
                probes,
                pairs,
            });
        }
    }
    (ranges, joins)
}

/// The distance-predicate side of the replay oracle: sorts range and join
/// observations by observed sequence, applies `writes` up to each prefix
/// into a [`ScanIndex`] over `data`, and compares boundary-inclusively
/// (dist² ≤ radius²).  Range and join answers are exact for every kind, so
/// nothing is ever skipped.
pub fn replay_range_join_against_oracle(
    data: &[Point],
    writes: &[WriteOp],
    ranges: &[RangeObs],
    joins: &[JoinObs],
    radius: f64,
) -> ReplayOutcome {
    enum Rj<'a> {
        Range(&'a RangeObs),
        Join(&'a JoinObs),
    }
    let r_sq = radius * radius;
    let mut rj: Vec<Rj> = ranges
        .iter()
        .map(Rj::Range)
        .chain(joins.iter().map(Rj::Join))
        .collect();
    rj.sort_by_key(|o| match o {
        Rj::Range(r) => r.seq,
        Rj::Join(j) => j.seq,
    });
    let mut oracle = ScanIndex::new(data.to_vec());
    let mut applied = 0usize;
    let mut outcome = ReplayOutcome::default();
    for obs in rj {
        let seq = match &obs {
            Rj::Range(r) => r.seq,
            Rj::Join(j) => j.seq,
        };
        while (applied as u64) < seq {
            match writes[applied] {
                WriteOp::Insert(p) => oracle.insert(p),
                WriteOp::Delete(p) => {
                    oracle.delete(&p);
                }
            }
            applied += 1;
        }
        let ok = match obs {
            Rj::Range(r) => {
                let mut truth: Vec<u64> = oracle
                    .points()
                    .iter()
                    .filter(|p| p.dist_sq(&r.center) <= r_sq)
                    .map(|p| p.id)
                    .collect();
                truth.sort_unstable();
                r.ids == truth
            }
            Rj::Join(j) => {
                let mut truth: Vec<(u64, u64)> = Vec::new();
                for probe in &j.probes {
                    for p in oracle.points() {
                        if p.dist_sq(probe) <= r_sq {
                            truth.push((probe.id, p.id));
                        }
                    }
                }
                truth.sort_unstable();
                j.pairs == truth
            }
        };
        if ok {
            outcome.checked += 1;
        } else {
            outcome.mismatches += 1;
            if outcome.divergences.len() < 5 {
                outcome.divergences.push(format!("range/join at seq {seq}"));
            }
        }
    }
    outcome
}

/// Waits (polling, bounded by `deadline`) until the server's background
/// compactor has completed at least `min` compactions, then returns the
/// current count.  Joining the reader/writer threads does **not** join the
/// compactor — its final rebuild may still be in flight — so assertions on
/// `compactions` must go through this instead of sampling once.
pub fn await_compactions(server: &SpatialServer, min: u64, deadline: Duration) -> u64 {
    let until = std::time::Instant::now() + deadline;
    loop {
        let done = server.stats().compactions;
        if done >= min || std::time::Instant::now() >= until {
            return done;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Outcome of a replay verification.
#[derive(Debug, Clone, Default)]
pub struct ReplayOutcome {
    /// Answers that were verified and matched.
    pub checked: usize,
    /// Answers skipped because the kind answers that query type
    /// approximately (no exact oracle exists).
    pub skipped: usize,
    /// Human-readable descriptions of the divergences (capped at five).
    pub divergences: Vec<String>,
    /// Total mismatching answers.
    pub mismatches: usize,
}

impl ReplayOutcome {
    /// Whether every verified answer matched the oracle.
    pub fn verified(&self) -> bool {
        self.mismatches == 0
    }
}

/// Top-k ids by `(distance, id)` over a full scan — the same answer as
/// [`common::brute_force::knn_query`] (ids are unique, so the `(distance,
/// id)` order is total) but O(n log k), which keeps replaying thousands of
/// kNN queries against a 100k-point oracle cheap.
fn oracle_knn_ids(points: &[Point], q: &Point, k: usize) -> Vec<u64> {
    let mut best: Vec<(u64, u64)> = Vec::with_capacity(k + 1);
    if k == 0 {
        return Vec::new();
    }
    for p in points {
        let key = (order_key(p.dist_sq(q)), p.id);
        if best.len() >= k && key >= best[k - 1] {
            continue;
        }
        let pos = best.binary_search(&key).unwrap_or_else(|e| e);
        best.insert(pos, key);
        best.truncate(k);
    }
    best.into_iter().map(|(_, id)| id).collect()
}

/// The single-threaded replay oracle: sorts the observations by observed
/// sequence number, applies `writes` up to each observation's prefix into a
/// [`ScanIndex`] over `data`, and compares every recorded answer against
/// the naive scan.  Point answers are verified unconditionally (they are
/// exact for every kind); window/kNN answers only when the corresponding
/// flag says the base kind answers them exactly.
pub fn replay_against_oracle(
    data: &[Point],
    writes: &[WriteOp],
    observations: &mut [LiveObs],
    verify_windows: bool,
    verify_knn: bool,
) -> ReplayOutcome {
    observations.sort_by_key(|o| o.seq);
    let mut oracle = ScanIndex::new(data.to_vec());
    let mut cx = QueryContext::new();
    let mut applied = 0usize;
    let mut outcome = ReplayOutcome::default();
    for obs in observations.iter() {
        while (applied as u64) < obs.seq {
            match writes[applied] {
                WriteOp::Insert(p) => oracle.insert(p),
                WriteOp::Delete(p) => {
                    oracle.delete(&p);
                }
            }
            applied += 1;
        }
        let ok = match (&obs.query, &obs.answer) {
            (MixedQuery::Point(p), LiveAnswer::Point(got)) => {
                Some(*got == oracle.point_query(p, &mut cx).map(|x| x.id))
            }
            (MixedQuery::Window(w), LiveAnswer::Window(got)) => verify_windows.then(|| {
                let mut truth: Vec<u64> = oracle
                    .points()
                    .iter()
                    .filter(|p| w.contains(p))
                    .map(|p| p.id)
                    .collect();
                truth.sort_unstable();
                *got == truth
            }),
            (MixedQuery::Knn(p, k), LiveAnswer::Knn(got)) => {
                verify_knn.then(|| *got == oracle_knn_ids(oracle.points(), p, *k))
            }
            // A reader recorded the wrong answer shape for the query.
            _ => Some(false),
        };
        match ok {
            Some(true) => outcome.checked += 1,
            Some(false) => {
                outcome.mismatches += 1;
                if outcome.divergences.len() < 5 {
                    outcome.divergences.push(format!(
                        "seq {}: {:?} -> {:?}",
                        obs.seq, obs.query, obs.answer
                    ));
                }
            }
            None => outcome.skipped += 1,
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::queries::{self, WindowSpec};
    use datagen::{generate, Distribution};
    use registry::{serve_index, IndexConfig, IndexKind, ServerConfig};

    #[test]
    fn split_stream_partitions_the_workload() {
        let data = generate(Distribution::Uniform, 200, 39);
        let ops = queries::read_write_workload(&data, WindowSpec::default(), 5, 300, 0.3, 11);
        let (reads, writes) = split_stream(&ops);
        assert_eq!(
            reads.len() + writes.len(),
            ops.len(),
            "every op lands in exactly one stream"
        );
        assert_eq!(writes.len(), ops.iter().filter(|o| o.is_write()).count());
    }

    #[test]
    fn harness_runs_and_replay_verifies_an_exact_kind() {
        let data = generate(Distribution::skewed_default(), 1_500, 41);
        let ops = queries::read_write_workload(&data, WindowSpec::default(), 5, 400, 0.2, 3);
        let (reads, writes) = split_stream(&ops);
        let server = serve_index(
            IndexKind::Grid,
            &data,
            &IndexConfig::fast(),
            ServerConfig::default().with_compact_threshold((writes.len() / 2).max(4)),
        );
        let mut obs = run_live_serving(&server, &reads, &writes, 3, Duration::from_micros(100));
        assert_eq!(obs.len(), reads.len());
        let compactions = await_compactions(&server, 1, Duration::from_secs(10));
        assert!(compactions >= 1, "compactor never caught up");
        let outcome = replay_against_oracle(&data, &writes, &mut obs, true, true);
        assert!(outcome.verified(), "divergences: {:?}", outcome.divergences);
        assert_eq!(outcome.checked, reads.len());
        assert_eq!(outcome.skipped, 0);
    }

    #[test]
    fn replay_catches_a_corrupted_answer() {
        let data = generate(Distribution::Uniform, 300, 43);
        let q = data[7];
        let mut obs = vec![LiveObs {
            seq: 0,
            query: MixedQuery::Point(q),
            answer: LiveAnswer::Point(Some(q.id + 1)), // wrong id
        }];
        let outcome = replay_against_oracle(&data, &[], &mut obs, true, true);
        assert_eq!(outcome.mismatches, 1);
        assert!(!outcome.verified());
        assert_eq!(outcome.divergences.len(), 1);
    }
}
