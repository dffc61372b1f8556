//! Determinism of the sharded serving engine: for exact inner families the
//! sharded composition must return **identical** answers to the unsharded
//! index on the same data — window result sets, kNN sequences under the
//! `(distance, id)` tie-break, and point lookups — regardless of shard
//! count or of the worker count of a parallel batch
//! (`engine::executor::run_batch`).
//!
//! CI runs this suite in debug *and* release mode, because `run_batch`'s
//! threaded paths only get real interleaving under optimised builds.

use common::{QueryContext, QueryStats, SpatialIndex};
use datagen::{generate, queries, Distribution};
use engine::executor::run_batch;
use geom::{Point, Rect};
use registry::{build_index, BaseKind, IndexConfig, IndexKind};

fn cfg() -> IndexConfig {
    IndexConfig::fast().with_shards(5)
}

/// Window answers as id-sorted point lists — "byte-identical" modulo the
/// (unspecified) visit order of the trait.
fn window_sets(index: &dyn SpatialIndex, windows: &[Rect]) -> Vec<Vec<Point>> {
    let mut cx = QueryContext::new();
    windows
        .iter()
        .map(|w| {
            let mut set = index.window_query(w, &mut cx);
            set.sort_by_key(|p| p.id);
            set
        })
        .collect()
}

#[test]
fn sharded_matches_unsharded_for_every_exact_kind() {
    let data = generate(Distribution::OsmLike, 6_000, 31);
    let windows = queries::window_queries(&data, queries::WindowSpec::default(), 40, 33);
    let knn_qs = queries::knn_queries(&data, 30, 35);
    let point_qs = queries::point_queries(&data, 200, 37);
    let negative_qs = queries::negative_point_queries(&data, 50, 39);

    for base in BaseKind::all() {
        if !base.unsharded().exact_windows() {
            continue;
        }
        let flat = build_index(base.unsharded(), &data, &cfg());
        let sharded = build_index(base.sharded(), &data, &cfg());
        let mut cx = QueryContext::new();

        assert_eq!(
            window_sets(flat.as_ref(), &windows),
            window_sets(sharded.as_ref(), &windows),
            "{}: window sets differ from unsharded",
            base.sharded().name()
        );

        for q in &knn_qs {
            for k in [1usize, 10, 100] {
                let a = flat.knn_query(q, k, &mut cx);
                let b = sharded.knn_query(q, k, &mut cx);
                assert_eq!(
                    a.iter().map(|p| p.id).collect::<Vec<_>>(),
                    b.iter().map(|p| p.id).collect::<Vec<_>>(),
                    "{}: kNN (distance, id) sequence differs, k = {k}",
                    base.sharded().name()
                );
            }
        }

        for q in point_qs.iter().chain(&negative_qs) {
            assert_eq!(
                flat.point_query(q, &mut cx).map(|p| p.id),
                sharded.point_query(q, &mut cx).map(|p| p.id),
                "{}: point answer differs",
                base.sharded().name()
            );
        }
    }
}

#[test]
fn knn_distance_ties_resolve_by_id_in_every_exact_kind() {
    // A lattice makes distance ties the common case instead of a
    // measure-zero event: from a lattice point, each ring of neighbours is
    // equidistant, so any k cutting through a ring exposes the tie-break.
    let side = 21usize;
    let data: Vec<Point> = (0..side * side)
        .map(|i| {
            let (r, c) = (i / side, i % side);
            Point::with_id(
                c as f64 / (side - 1) as f64,
                r as f64 / (side - 1) as f64,
                i as u64,
            )
        })
        .collect();
    let queries = [
        Point::new(0.5, 0.5),
        Point::new(0.25, 0.75),
        Point::new(0.0, 0.0),
    ];

    for base in BaseKind::all() {
        if !base.unsharded().exact_knn() {
            continue;
        }
        let flat = build_index(base.unsharded(), &data, &cfg());
        let sharded = build_index(base.sharded(), &data, &cfg());
        let mut cx = QueryContext::new();
        for q in &queries {
            // k = 3 and 7 cut through the first rings of 4 tied points.
            for k in [3usize, 7, 20] {
                let truth: Vec<u64> = common::brute_force::knn_query(&data, q, k)
                    .iter()
                    .map(|p| p.id)
                    .collect();
                for (label, index) in [("flat", &flat), ("sharded", &sharded)] {
                    assert_eq!(
                        index
                            .knn_query(q, k, &mut cx)
                            .iter()
                            .map(|p| p.id)
                            .collect::<Vec<_>>(),
                        truth,
                        "{} {}: tie not broken by id, k = {k}, q = {q:?}",
                        base.sharded().name(),
                        label
                    );
                }
            }
        }
    }
}

#[test]
fn approximate_kinds_are_self_deterministic_when_sharded() {
    // RSMI and ZM answer windows/kNN approximately, so their sharded
    // answers legitimately differ from the unsharded index (each shard
    // learns its own models).  What must still hold: two identical builds
    // answer identically, and answers never contain false positives.
    let data = generate(Distribution::skewed_default(), 5_000, 41);
    let windows = queries::window_queries(&data, queries::WindowSpec::default(), 30, 43);
    for base in [BaseKind::Rsmi, BaseKind::Zm] {
        let a = build_index(base.sharded(), &data, &cfg());
        let b = build_index(base.sharded(), &data, &cfg());
        assert_eq!(
            window_sets(a.as_ref(), &windows),
            window_sets(b.as_ref(), &windows),
            "{}: rebuild changed answers",
            base.sharded().name()
        );
        let mut cx = QueryContext::new();
        for w in &windows {
            for p in a.window_query(w, &mut cx) {
                assert!(w.contains(&p), "{}: false positive", base.sharded().name());
            }
        }
    }
}

/// One row of the batch check: a data set, its window workload, the build,
/// the kinds, and the worker counts whose batches must match the
/// sequential loop.
struct BatchRow {
    data: Vec<Point>,
    windows: Vec<Rect>,
    cfg: IndexConfig,
    kinds: Vec<IndexKind>,
    workers: &'static [usize],
}

/// The caller's own loop: every query on one context.
fn one_context<Q, R>(
    queries: &[Q],
    run: impl Fn(&[Q], &mut QueryContext) -> Vec<R>,
) -> (Vec<R>, QueryStats) {
    let mut cx = QueryContext::new();
    (run(queries, &mut cx), cx.take_stats())
}

/// Every index is `Sync`: a parallel batch is the caller's loop, split over
/// workers by `run_batch`, one context per worker.  Its answers, in order,
/// and its merged statistics equal the same loop run on one context.
fn batch_body(row: &BatchRow) {
    let point_qs = queries::point_queries(&row.data, 300, 49);
    let knn_qs = queries::knn_queries(&row.data, 60, 51);
    let centers = queries::knn_queries(&row.data, 60, 53);
    for &kind in &row.kinds {
        let built = build_index(kind, &row.data, &row.cfg);
        let index = built.as_ref();
        let point = |qs: &[Point], cx: &mut QueryContext| -> Vec<_> {
            qs.iter().map(|q| index.point_query(q, cx)).collect()
        };
        let window = |ws: &[Rect], cx: &mut QueryContext| -> Vec<_> {
            ws.iter().map(|w| index.window_query(w, cx)).collect()
        };
        let knn = |qs: &[Point], cx: &mut QueryContext| -> Vec<_> {
            qs.iter().map(|q| index.knn_query(q, 15, cx)).collect()
        };
        let range = |cs: &[Point], cx: &mut QueryContext| -> Vec<_> {
            cs.iter().map(|c| index.range_query(c, 0.02, cx)).collect()
        };
        let sequential = (
            one_context(&point_qs, point),
            one_context(&row.windows, window),
            one_context(&knn_qs, knn),
            one_context(&centers, range),
        );
        for &workers in row.workers {
            let batched = (
                run_batch(&point_qs, workers, point),
                run_batch(&row.windows, workers, window),
                run_batch(&knn_qs, workers, knn),
                run_batch(&centers, workers, range),
            );
            assert!(
                batched == sequential,
                "{}: answers or merged statistics at {workers} workers differ from the sequential loop",
                kind.name()
            );
        }
    }
}

#[test]
fn batch_thread_count_never_changes_results() {
    let data = generate(Distribution::TigerLike, 8_000, 45);
    batch_body(&BatchRow {
        windows: queries::window_queries(&data, queries::WindowSpec::default(), 60, 47),
        data,
        cfg: cfg(),
        kinds: vec![BaseKind::Kdb.sharded()],
        workers: &[1, 4],
    });

    // The gate row: every sharded kind over 4 000 skewed points at seed 42,
    // built as the experiments harness builds (blocks of 100, partition
    // threshold 5 000, 30 epochs, 4 shards on 2 threads), under 100 hotspot
    // windows.
    if cfg!(debug_assertions) {
        println!("skipped: the 4 000-point gate row runs under --release only");
        return;
    }
    let data = generate(Distribution::skewed_default(), 4_000, 42);
    batch_body(&BatchRow {
        windows: queries::hotspot_window_queries(&data, queries::WindowSpec::default(), 100, 3),
        data,
        cfg: IndexConfig::default()
            .with_partition_threshold(5_000)
            .with_threads(2),
        kinds: BaseKind::all().into_iter().map(BaseKind::sharded).collect(),
        workers: &[1, 2],
    });
}

/// The acceptance-scale workload: ≥100k points, a window workload that
/// provably prunes shards, answers byte-identical to the unsharded index.
#[test]
fn large_scale_window_workload_prunes_and_stays_identical() {
    let data = generate(Distribution::skewed_default(), 100_000, 53);
    let windows = queries::hotspot_window_queries(&data, queries::WindowSpec::default(), 50, 55);
    let cfg = IndexConfig::default().with_shards(8);
    for base in [BaseKind::Hrr, BaseKind::Grid] {
        let flat = build_index(base.unsharded(), &data, &cfg);
        let sharded = build_index(base.sharded(), &data, &cfg);

        assert_eq!(
            window_sets(flat.as_ref(), &windows),
            window_sets(sharded.as_ref(), &windows),
            "{}: 100k window answers differ",
            base.sharded().name()
        );

        let mut cx = QueryContext::new();
        for w in &windows {
            let _ = sharded.window_query(w, &mut cx);
        }
        let stats = cx.take_stats();
        assert!(
            stats.shards_pruned > 0,
            "{}: hotspot windows over 100k points pruned nothing",
            base.sharded().name()
        );
        assert_eq!(
            stats.shards_visited + stats.shards_pruned,
            8 * windows.len() as u64,
            "{}: planner lost track of shards",
            base.sharded().name()
        );
    }
}

#[test]
fn mixed_workload_agrees_between_sharded_and_unsharded() {
    let data = generate(Distribution::Uniform, 6_000, 57);
    let mix = queries::mixed_workload(&data, queries::WindowSpec::default(), 12, 120, 59);
    let flat = build_index(IndexKind::Hrr, &data, &cfg());
    let sharded = build_index(BaseKind::Hrr.sharded(), &data, &cfg());
    let mut cx = QueryContext::new();
    for q in &mix {
        match q {
            queries::MixedQuery::Point(p) => {
                assert_eq!(
                    flat.point_query(p, &mut cx).map(|f| f.id),
                    sharded.point_query(p, &mut cx).map(|f| f.id)
                );
            }
            queries::MixedQuery::Window(w) => {
                let mut a: Vec<u64> = flat.window_query(w, &mut cx).iter().map(|p| p.id).collect();
                let mut b: Vec<u64> = sharded
                    .window_query(w, &mut cx)
                    .iter()
                    .map(|p| p.id)
                    .collect();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b);
            }
            queries::MixedQuery::Knn(p, k) => {
                assert_eq!(
                    flat.knn_query(p, *k, &mut cx)
                        .iter()
                        .map(|f| f.id)
                        .collect::<Vec<_>>(),
                    sharded
                        .knn_query(p, *k, &mut cx)
                        .iter()
                        .map(|f| f.id)
                        .collect::<Vec<_>>()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Cross-process determinism: router + shard-server subprocesses
// ---------------------------------------------------------------------
//
// The distributed topology must be *indistinguishable* from the
// single-process sharded index: the `experiments shard-serve` and
// `route-serve` subprocesses below serve the very same sharded snapshot
// the in-process reference is loaded from, and every one of the five
// query classes must agree — answers byte-identical (modulo the
// unspecified visit order of set-valued responses, normalised by id), and
// the router's fan-out counters (`router.shards_visited` /
// `router.shards_pruned`) matching the engine planner's exactly.

mod cross_process {
    use super::*;
    use net::{NetClient, RemoteIndex};
    use std::io::BufRead;
    use std::path::PathBuf;
    use std::process::{Child, Command, Stdio};
    use std::time::{Duration, Instant};

    const SHARDS: usize = 2;

    fn dist_cfg() -> IndexConfig {
        IndexConfig::fast().with_shards(SHARDS)
    }

    /// Locates (building if necessary) the `experiments` binary next to
    /// the test executable's profile directory.
    fn experiments_bin() -> PathBuf {
        let exe = std::env::current_exe().expect("current_exe");
        let profile_dir = exe
            .parent() // deps/
            .and_then(|d| d.parent()) // debug/ or release/
            .expect("profile dir")
            .to_path_buf();
        let bin = profile_dir.join(format!("experiments{}", std::env::consts::EXE_SUFFIX));
        if bin.exists() {
            return bin;
        }
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let mut args = vec!["build", "-p", "bench", "--bin", "experiments"];
        if profile_dir.file_name().is_some_and(|n| n == "release") {
            args.push("--release");
        }
        let status = Command::new(cargo)
            .args(&args)
            .status()
            .expect("spawn cargo build for the experiments binary");
        assert!(status.success(), "building the experiments binary failed");
        assert!(bin.exists(), "no experiments binary at {}", bin.display());
        bin
    }

    /// A spawned serving subprocess plus the address it printed.  The Drop
    /// guard kills the child so a failing assertion never leaks a process.
    struct Proc {
        child: Child,
        addr: String,
    }

    impl Proc {
        /// Spawns the binary and scans its stdout for the
        /// "... listening on ADDR ..." line.
        fn spawn(bin: &PathBuf, args: &[&str]) -> Proc {
            let mut child = Command::new(bin)
                .args(args)
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("spawn serving subprocess");
            let stdout = child.stdout.take().expect("child stdout");
            let mut lines = std::io::BufReader::new(stdout).lines();
            let addr = loop {
                let line = lines
                    .next()
                    .expect("child exited before printing its address")
                    .expect("read child stdout");
                if let Some(rest) = line.split("listening on ").nth(1) {
                    break rest
                        .split_whitespace()
                        .next()
                        .expect("address after 'listening on'")
                        .to_string();
                }
            };
            // Keep draining stdout in the background so the child never
            // blocks on a full pipe.
            std::thread::spawn(move || for _ in lines {});
            Proc { child, addr }
        }

        /// Waits (bounded) for the child to exit on its own; panics if it
        /// is still running at the deadline.
        fn wait_exit(&mut self, deadline: Duration) {
            let until = Instant::now() + deadline;
            loop {
                match self.child.try_wait().expect("try_wait") {
                    Some(status) => {
                        assert!(status.success(), "subprocess exited with {status}");
                        return;
                    }
                    None if Instant::now() >= until => {
                        panic!("subprocess did not exit within {deadline:?}")
                    }
                    None => std::thread::sleep(Duration::from_millis(20)),
                }
            }
        }
    }

    impl Drop for Proc {
        fn drop(&mut self) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }

    /// Builds a 2-shard sharded-grid snapshot over `data`, spawns one
    /// shard-serve subprocess per shard (plus `extra_shard0` more replicas
    /// of shard 0) and a route-serve subprocess over all of them, and
    /// returns (shard procs, router proc, the in-process reference index).
    fn spawn_cluster(
        data: &[Point],
        extra_shard0: usize,
        tag: &str,
    ) -> (Vec<Proc>, Proc, Box<dyn SpatialIndex>) {
        let bin = experiments_bin();
        let path = std::env::temp_dir().join(format!("xproc-{tag}-{}.snap", std::process::id()));
        let index = build_index(BaseKind::Grid.sharded(), data, &dist_cfg());
        registry::save_index(index.as_ref(), &path).expect("save sharded snapshot");
        let path_s = path.to_string_lossy().to_string();

        let mut shard_procs = Vec::new();
        let mut addr_spec = Vec::new();
        for shard in 0..SHARDS {
            let shard_s = shard.to_string();
            let copies = if shard == 0 { 1 + extra_shard0 } else { 1 };
            let mut replicas = Vec::new();
            for _ in 0..copies {
                let p = Proc::spawn(
                    &bin,
                    &[
                        "shard-serve",
                        "--path",
                        &path_s,
                        "--shard",
                        &shard_s,
                        "--port",
                        "0",
                    ],
                );
                replicas.push(p.addr.clone());
                shard_procs.push(p);
            }
            addr_spec.push(replicas.join(","));
        }
        let router = Proc::spawn(
            &bin,
            &[
                "route-serve",
                "--path",
                &path_s,
                "--shard-addrs",
                &addr_spec.join(";"),
                "--port",
                "0",
            ],
        );
        let _ = std::fs::remove_file(&path);
        (shard_procs, router, index)
    }

    /// Five-class answer comparison between the routed topology and the
    /// in-process reference.
    fn assert_all_classes_agree(
        remote: &RemoteIndex,
        local: &dyn SpatialIndex,
        data: &[Point],
        seed: u64,
    ) {
        let mut cx = QueryContext::new();
        let windows = queries::window_queries(data, queries::WindowSpec::default(), 20, seed);
        let knn_qs = queries::knn_queries(data, 15, seed + 2);
        let point_qs = queries::point_queries(data, 60, seed + 4);
        let negative_qs = queries::negative_point_queries(data, 20, seed + 6);
        let probes: Vec<Point> = data.iter().step_by(101).copied().collect();

        for q in point_qs.iter().chain(&negative_qs) {
            assert_eq!(
                remote.point_query(q, &mut cx),
                local.point_query(q, &mut cx),
                "cross-process point answer diverged at {q:?}"
            );
        }
        for w in &windows {
            let mut a = remote.window_query(w, &mut cx);
            let mut b = local.window_query(w, &mut cx);
            a.sort_by_key(|p| p.id);
            b.sort_by_key(|p| p.id);
            assert_eq!(a, b, "cross-process window set diverged at {w:?}");
        }
        for q in &knn_qs {
            for k in [1usize, 9, 33] {
                assert_eq!(
                    remote.knn_query(q, k, &mut cx),
                    local.knn_query(q, k, &mut cx),
                    "cross-process kNN sequence diverged at {q:?}, k = {k}"
                );
            }
            let mut a = remote.range_query(q, 0.04, &mut cx);
            let mut b = local.range_query(q, 0.04, &mut cx);
            a.sort_by_key(|p| p.id);
            b.sort_by_key(|p| p.id);
            assert_eq!(a, b, "cross-process range set diverged at {q:?}");
        }
        let pair_ids = |index: &dyn SpatialIndex| {
            let mut cx = QueryContext::new();
            let mut pairs = Vec::new();
            index.distance_join_probes(&probes, 0.02, &mut cx, &mut |m, p| {
                pairs.push((p.id, m.id));
            });
            pairs.sort_unstable();
            pairs
        };
        assert_eq!(
            pair_ids(remote),
            pair_ids(local),
            "cross-process join pair set diverged"
        );
    }

    #[test]
    fn router_subprocesses_match_the_in_process_sharded_index() {
        for (i, dist) in [
            Distribution::Uniform,
            Distribution::skewed_default(),
            Distribution::OsmLike,
        ]
        .into_iter()
        .enumerate()
        {
            let data = generate(dist, 2_500, 301 + i as u64);
            let (mut shard_procs, mut router, mut local) =
                spawn_cluster(&data, 0, &format!("det{i}"));
            let mut remote = RemoteIndex::connect_retry(&router.addr, Duration::from_secs(10))
                .expect("connect router");

            assert_all_classes_agree(&remote, local.as_ref(), &data, 401 + i as u64);

            // Fan-out accounting: the router's visited/pruned deltas over a
            // known workload must equal the engine planner's.
            let mut client = NetClient::connect(&router.addr).expect("connect");
            let scrape = |client: &mut NetClient| {
                let (_, snap) = client.stats().expect("stats");
                (
                    snap.counter("router.shards_visited").unwrap_or(0),
                    snap.counter("router.shards_pruned").unwrap_or(0),
                )
            };
            let windows = queries::window_queries(&data, queries::WindowSpec::default(), 10, 83);
            let (v0, p0) = scrape(&mut client);
            for w in &windows {
                client.window(w).expect("window");
            }
            let (v1, p1) = scrape(&mut client);
            let mut cx = QueryContext::new();
            for w in &windows {
                let _ = local.window_query(w, &mut cx);
            }
            let stats = cx.take_stats();
            assert_eq!(v1 - v0, stats.shards_visited, "visited fan-out diverged");
            assert_eq!(p1 - p0, stats.shards_pruned, "pruned fan-out diverged");

            // Writes route by key to the owning shard; both sides must
            // keep agreeing afterwards.
            for j in 0..20u64 {
                let p = Point::with_id(
                    (j as f64 * 0.47 + 0.13) % 1.0,
                    (j as f64 * 0.29 + 0.31) % 1.0,
                    7_000_000 + j,
                );
                remote.insert(p);
                local.insert(p);
            }
            for p in data.iter().step_by(173).take(10) {
                assert_eq!(remote.delete(p), local.delete(p), "delete outcome diverged");
            }
            assert_all_classes_agree(&remote, local.as_ref(), &data, 501 + i as u64);

            // Client-driven shutdown propagates: the router drains, then
            // tells every shard server to drain, and all processes exit.
            drop(remote);
            let mut c = NetClient::connect(&router.addr).expect("connect for shutdown");
            c.shutdown_server().expect("shutdown ack");
            drop(c);
            router.wait_exit(Duration::from_secs(30));
            for p in &mut shard_procs {
                p.wait_exit(Duration::from_secs(30));
            }
        }
    }

    #[test]
    fn sigkill_chaos_replica_loss_yields_zero_wrong_answers() {
        let data = generate(Distribution::skewed_default(), 2_000, 811);
        // Shard 0 runs two replicas; shard 1 runs one.
        let (mut shard_procs, mut router, mut local) = spawn_cluster(&data, 1, "chaos");
        let remote = RemoteIndex::connect_retry(&router.addr, Duration::from_secs(10))
            .expect("connect router");
        let windows = queries::window_queries(&data, queries::WindowSpec::default(), 12, 813);
        let mut cx = QueryContext::new();

        let check_reads =
            |remote: &RemoteIndex, local: &dyn SpatialIndex, cx: &mut QueryContext| {
                for w in &windows {
                    let mut a = remote.window_query(w, cx);
                    let mut b = local.window_query(w, cx);
                    a.sort_by_key(|p| p.id);
                    b.sort_by_key(|p| p.id);
                    assert_eq!(a, b, "chaos read produced a wrong answer at {w:?}");
                }
            };

        // Warm both shard-0 replicas into the round-robin.
        check_reads(&remote, local.as_ref(), &mut cx);

        // SIGKILL one shard-0 replica mid-run (spawn order is shard-major,
        // so index 0 is shard 0's first replica).
        shard_procs[0].child.kill().expect("SIGKILL replica");
        let _ = shard_procs[0].child.wait();

        // Every subsequent read must fail over transparently and keep
        // returning byte-identical answers — capacity degrades,
        // correctness does not.
        for _ in 0..4 {
            check_reads(&remote, local.as_ref(), &mut cx);
        }

        // Writes to the degraded shard still apply and are read back.
        let mut remote = remote;
        let p = Point::with_id(0.37, 0.61, 9_100_001);
        remote.insert(p);
        local.insert(p);
        assert_eq!(remote.point_query(&p, &mut cx), Some(p));

        // The failover is visible in the router's telemetry.
        let mut client = NetClient::connect(&router.addr).expect("connect");
        let (_, snap) = client.stats().expect("stats");
        assert!(
            snap.counter("router.replica_failovers").unwrap_or(0) >= 1,
            "replica failover was not recorded"
        );

        // Graceful shutdown still propagates to the surviving children.
        drop(remote);
        client.shutdown_server().expect("shutdown ack");
        drop(client);
        router.wait_exit(Duration::from_secs(30));
        for p in shard_procs.iter_mut().skip(1) {
            p.wait_exit(Duration::from_secs(30));
        }
    }
}
