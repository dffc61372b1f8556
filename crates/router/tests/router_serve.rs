//! In-process distributed serving tests: each shard of a sharded snapshot
//! is served by a real `net` serving loop over the shard's extracted
//! snapshot image, and the router plans over them through real TCP
//! connections.  The reference for every answer is the single-process
//! sharded index loaded from the same snapshot.
//!
//! (The cross-*process* suite — subprocess shard servers, SIGKILL chaos —
//! lives in the workspace-level `tests/sharded_determinism.rs`.)

use common::{QueryContext, QueryStats, SpatialIndex};
use datagen::{generate, queries, Distribution};
use engine::ShardManifest;
use geom::{Point, Rect};
use net::{NetClient, RemoteIndex, Request, Response};
use registry::{BaseKind, IndexConfig};
use server::{ServeConfig, ServerConfig, SpatialServer};
use std::io::Write;
use std::path::PathBuf;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 3;

fn cfg() -> IndexConfig {
    IndexConfig::fast().with_shards(SHARDS)
}

fn snapshot_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("router-{tag}-{}.snap", std::process::id()))
}

/// An in-process cluster: the router plus its shard servers.  Field order
/// matters for drop: the router goes first (its drop propagates shutdown
/// upstream while the shard servers are still alive), then the shard
/// serving loops, then the spatial servers behind them.
struct Cluster {
    router: Option<router::RouterHandle>,
    shard_handles: Vec<net::NetHandle>,
    _servers: Vec<Arc<SpatialServer>>,
    /// The routing table the router was started with.
    manifest: ShardManifest,
}

impl Cluster {
    fn router_addr(&self) -> String {
        self.router.as_ref().unwrap().local_addr().to_string()
    }
}

/// Builds a sharded-grid snapshot over `data`, serves every shard over TCP
/// (`replicas_shard0` copies of shard 0, one of each other shard), starts
/// a router over the manifest, and loads the single-process reference
/// index from the same snapshot.  `decoy`, when given, is listed as shard
/// 0's first replica, ahead of the real ones.
fn spawn_cluster(
    data: &[Point],
    replicas_shard0: usize,
    tag: &str,
    decoy: Option<String>,
) -> (Cluster, Box<dyn SpatialIndex>) {
    let path = snapshot_path(tag);
    let index = registry::build_index(BaseKind::Grid.sharded(), data, &cfg());
    registry::save_index(index.as_ref(), &path).expect("save sharded snapshot");
    let (_, manifest) = registry::load_shard_manifest(&path).expect("read manifest");
    let mut shard_handles = Vec::new();
    let mut servers = Vec::new();
    let mut addrs = Vec::new();
    for shard in 0..manifest.shard_count() {
        let bytes = registry::load_shard_snapshot(&path, shard).expect("extract shard");
        let copies = if shard == 0 { replicas_shard0 } else { 1 };
        let mut shard_addrs: Vec<String> = decoy.iter().filter(|_| shard == 0).cloned().collect();
        for _ in 0..copies {
            let server = Arc::new(
                registry::serve_snapshot_bytes(&bytes, &cfg(), ServerConfig::default())
                    .expect("warm-start shard server"),
            );
            let handle = net::serve_config(Arc::clone(&server), &ServeConfig::default())
                .expect("serve shard");
            shard_addrs.push(handle.local_addr().to_string());
            shard_handles.push(handle);
            servers.push(server);
        }
        addrs.push(shard_addrs);
    }
    let local = registry::load_index(&path).expect("load reference index");
    let _ = std::fs::remove_file(&path);
    let router =
        router::serve(manifest.clone(), addrs, &ServeConfig::default()).expect("start router");
    (
        Cluster {
            router: Some(router),
            shard_handles,
            _servers: servers,
            manifest,
        },
        local,
    )
}

fn by_id(mut points: Vec<Point>) -> Vec<Point> {
    points.sort_by_key(|p| p.id);
    points
}

fn pair_ids(index: &dyn SpatialIndex, probes: &[Point], radius: f64) -> Vec<(u64, u64)> {
    let mut cx = QueryContext::new();
    let mut pairs = Vec::new();
    index.distance_join_probes(probes, radius, &mut cx, &mut |a, b| {
        pairs.push((a.id, b.id));
    });
    pairs.sort_unstable();
    pairs
}

#[test]
fn router_matches_local_sharded_index_for_all_five_classes() {
    let data = generate(Distribution::skewed_default(), 4_000, 71);
    let (cluster, mut local) = spawn_cluster(&data, 1, "det", None);
    let mut remote = RemoteIndex::connect(&cluster.router_addr()).expect("connect");

    let windows = queries::window_queries(&data, queries::WindowSpec::default(), 25, 73);
    let knn_qs = queries::knn_queries(&data, 20, 75);
    let point_qs = queries::point_queries(&data, 100, 77);
    let negative_qs = queries::negative_point_queries(&data, 30, 79);
    let probes: Vec<Point> = data.iter().step_by(97).copied().collect();

    let compare = |remote: &RemoteIndex, local: &dyn SpatialIndex| {
        let mut cx = QueryContext::new();
        for q in point_qs.iter().chain(&negative_qs) {
            assert_eq!(
                remote.point_query(q, &mut cx),
                local.point_query(q, &mut cx),
                "point answer diverged at {q:?}"
            );
        }
        for w in &windows {
            assert_eq!(
                by_id(remote.window_query(w, &mut cx)),
                by_id(local.window_query(w, &mut cx)),
                "window set diverged at {w:?}"
            );
        }
        for q in &knn_qs {
            for k in [1usize, 7, 40] {
                assert_eq!(
                    remote.knn_query(q, k, &mut cx),
                    local.knn_query(q, k, &mut cx),
                    "kNN sequence diverged at {q:?}, k = {k}"
                );
            }
            assert_eq!(
                by_id(remote.range_query(q, 0.05, &mut cx)),
                by_id(local.range_query(q, 0.05, &mut cx)),
                "range set diverged at {q:?}"
            );
        }
        assert_eq!(
            pair_ids(remote, &probes, 0.02),
            pair_ids(local, &probes, 0.02),
            "join pair set diverged"
        );
    };

    compare(&remote, local.as_ref());

    // Route writes through both sides, then every class must still agree:
    // inserts land in shard-server delta overlays behind the router, and
    // directly in the reference index.
    for i in 0..40u64 {
        let p = Point::with_id(
            (i as f64 * 0.37 + 0.11) % 1.0,
            (i as f64 * 0.61 + 0.23) % 1.0,
            5_000_000 + i,
        );
        remote.insert(p);
        local.insert(p);
    }
    for p in data.iter().step_by(131).take(25) {
        assert_eq!(
            remote.delete(p),
            local.delete(p),
            "delete outcome diverged at {p:?}"
        );
    }
    // 40 inserts + 25 deletes, each sequenced once by the router.
    assert_eq!(remote.last_seq(), 65);

    compare(&remote, local.as_ref());
}

/// The duplicate-heavy delete phase of the workspace conformance suite,
/// through the router: one of five co-located ids, a point stored three
/// times, an id-0 point where no copy has id 0, and the stored id-0 point.
/// Each delete removes every copy whose `(x, y, id)` matches and no other;
/// the returned bool, `len()` and the survivors are the `Vec` oracle's.
/// Then a point lookup of each victim visits exactly one shard.
#[test]
fn routed_deletes_remove_every_copy_of_the_triple_they_name() {
    let spot = Point::new(0.4, 0.6);
    let mut data = generate(Distribution::skewed_default(), 900, 83);
    data.extend((0..5).map(|i| Point::with_id(spot.x, spot.y, 5_001 + i)));
    let triple = Point::with_id(0.4004, 0.6, 7_000);
    data.extend([triple; 3]);
    assert_eq!(data[0].id, 0);
    let (cluster, _) = spawn_cluster(&data, 1, "dupdel", None);
    let mut remote = RemoteIndex::connect(&cluster.router_addr()).expect("connect");

    let key = |p: &Point| (p.id, p.x.to_bits(), p.y.to_bits());
    let mut oracle = data.clone();
    let victims = [Point::with_id(spot.x, spot.y, 5_003), triple, spot, data[0]];
    for victim in victims {
        let before = oracle.len();
        oracle.retain(|p| !(p.same_location(&victim) && p.id == victim.id));
        let removed = remote.delete(&victim);
        assert_eq!(removed, oracle.len() < before, "delete {victim:?}");
        assert_eq!(remote.len(), oracle.len(), "len after {victim:?}");
        let mut held = Vec::new();
        remote.for_each_point(&mut |p| held.push(key(p)));
        let mut want: Vec<_> = oracle.iter().map(key).collect();
        held.sort_unstable();
        want.sort_unstable();
        assert_eq!(held, want, "survivors after {victim:?}");
    }

    // A lookup asks the home shard alone, whether it finds a copy or not.
    let mut client = NetClient::connect(&cluster.router_addr()).expect("connect");
    let (v0, p0) = fanout_counters(&mut client);
    for victim in victims {
        client.point(&victim).expect("point");
    }
    let (v1, p1) = fanout_counters(&mut client);
    let n = victims.len() as u64;
    assert_eq!((v1 - v0, p1 - p0), (n, n * (SHARDS as u64 - 1)));
}

/// `index`'s in-process answer to a read, as the wire would carry it, with
/// set-valued answers in id order (the router concatenates shard answers).
/// The read's cost is charged to `cx`.
fn in_process(index: &dyn SpatialIndex, req: &Request, cx: &mut QueryContext) -> Response {
    match req {
        Request::Point(q) => Response::Point {
            seq: 0,
            hit: index.point_query(q, cx),
        },
        Request::Window(w) => Response::Points {
            seq: 0,
            points: by_id(index.window_query(w, cx)),
        },
        Request::Knn(q, k) => Response::Knn {
            seq: 0,
            points: index.knn_query(q, *k as usize, cx),
        },
        Request::Range(q, r) => Response::Points {
            seq: 0,
            points: by_id(index.range_query(q, *r, cx)),
        },
        Request::JoinProbes(probes, r) => {
            let mut pairs = Vec::new();
            index.distance_join_probes(probes, *r, cx, &mut |a, b| pairs.push((*a, *b)));
            pairs.sort_by_key(|(a, b)| (a.id, b.id));
            Response::Pairs { seq: 0, pairs }
        }
        other => panic!("not a read: {other:?}"),
    }
}

/// The per-connection contract on a raw stream: 32 frames written back to
/// back before any reply is read come back one reply per frame, in request
/// order, and the connection reads its own writes.
#[test]
fn pipelined_frames_are_answered_in_order_and_read_their_own_writes() {
    let data = generate(Distribution::Uniform, 2_000, 103);
    let (cluster, local) = spawn_cluster(&data, 1, "pipelined", None);
    let reads: Vec<Request> = (0..26)
        .map(|i| {
            let q = data[i * 61];
            match i % 5 {
                0 => Request::Point(q),
                1 => Request::Window(Rect::new(q.x - 0.1, q.y - 0.1, q.x + 0.1, q.y + 0.1)),
                2 => Request::Knn(q, 3 + i as u32),
                3 => Request::Range(q, 0.05),
                _ => Request::JoinProbes(data[i..i + 4].to_vec(), 0.05),
            }
        })
        .collect();
    let fresh = Point::with_id(0.333, 0.444, 9_000_002);
    let mut frames = reads.clone();
    frames.extend([
        Request::Insert(fresh),
        Request::Point(fresh),
        Request::Delete(fresh),
        Request::Point(fresh),
        Request::Ping,
        Request::Stats,
    ]);
    assert_eq!(frames.len(), 32);

    let mut stream = std::net::TcpStream::connect(cluster.router_addr()).unwrap();
    let bytes: Vec<u8> = frames
        .iter()
        .flat_map(|r| net::wire::frame_bytes(&r.encode()))
        .collect();
    stream.write_all(&bytes).unwrap();
    let mut replies: Vec<Response> = (0..frames.len())
        .map(|_| {
            let payload = net::wire::read_frame(&mut stream).unwrap().unwrap();
            Response::decode(&payload).unwrap()
        })
        .collect();

    for (i, (req, got)) in reads.iter().zip(&mut replies).enumerate() {
        match got {
            Response::Points { points, .. } => points.sort_by_key(|p| p.id),
            Response::Pairs { pairs, .. } => pairs.sort_by_key(|(a, b)| (a.id, b.id)),
            _ => {}
        }
        assert_eq!(
            *got,
            in_process(local.as_ref(), req, &mut QueryContext::new()),
            "reply {i} to {req:?}"
        );
    }
    let tail = &replies[reads.len()..];
    let Response::Written {
        seq: inserted,
        removed: false,
    } = tail[0]
    else {
        panic!("insert reply: {:?}", tail[0]);
    };
    assert!(
        matches!(tail[1], Response::Point { hit: Some(p), .. } if p == fresh),
        "lookup after the insert: {:?}",
        tail[1]
    );
    assert_eq!(
        tail[2],
        Response::Written {
            seq: inserted + 1,
            removed: true
        }
    );
    assert!(
        matches!(tail[3], Response::Point { hit: None, .. }),
        "lookup after the delete: {:?}",
        tail[3]
    );
    assert!(matches!(tail[4], Response::Pong { .. }), "{:?}", tail[4]);
    assert!(matches!(tail[5], Response::Stats { .. }), "{:?}", tail[5]);
    assert_eq!(cluster.router.as_ref().unwrap().stats().shed, 0);
}

#[test]
fn router_fanout_accounting_matches_the_engine_planner() {
    let data = generate(Distribution::Uniform, 3_000, 81);
    let (cluster, local) = spawn_cluster(&data, 1, "stats", None);
    let mut client = NetClient::connect(&cluster.router_addr()).expect("connect");

    let windows = queries::window_queries(&data, queries::WindowSpec::default(), 15, 83);
    let knn_qs = queries::knn_queries(&data, 10, 85);
    let point_qs = queries::point_queries(&data, 50, 87);

    let scrape = |client: &mut NetClient| -> (u64, u64) {
        let (_, snap) = client.stats().expect("stats");
        (
            snap.counter("router.shards_visited").unwrap_or(0),
            snap.counter("router.shards_pruned").unwrap_or(0),
        )
    };
    let (v0, p0) = scrape(&mut client);
    for w in &windows {
        client.window(w).expect("window");
    }
    for q in &knn_qs {
        client.knn(q, 10).expect("knn");
    }
    for q in &point_qs {
        client.point(q).expect("point");
    }
    let (v1, p1) = scrape(&mut client);

    let mut cx = QueryContext::new();
    for w in &windows {
        let _ = local.window_query(w, &mut cx);
    }
    for q in &knn_qs {
        let _ = local.knn_query(q, 10, &mut cx);
    }
    for q in &point_qs {
        let _ = local.point_query(q, &mut cx);
    }
    let stats = cx.take_stats();
    assert_eq!(
        v1 - v0,
        stats.shards_visited,
        "router visited a different shard set than the engine planner"
    );
    assert_eq!(
        p1 - p0,
        stats.shards_pruned,
        "router pruned a different shard set than the engine planner"
    );
}

/// `client`'s routed answer to a read, in the form [`in_process`] gives it.
fn routed(client: &mut NetClient, req: &Request) -> Result<Response, net::NetError> {
    Ok(match req {
        Request::Point(q) => Response::Point {
            seq: 0,
            hit: client.point(q)?.1,
        },
        Request::Window(w) => Response::Points {
            seq: 0,
            points: by_id(client.window(w)?.1),
        },
        Request::Knn(q, k) => Response::Knn {
            seq: 0,
            points: client.knn(q, *k)?.1,
        },
        Request::Range(q, r) => Response::Points {
            seq: 0,
            points: by_id(client.range(q, *r)?.1),
        },
        Request::JoinProbes(probes, r) => {
            let mut pairs = client.join_probes(probes, *r)?.1;
            pairs.sort_by_key(|(a, b)| (a.id, b.id));
            Response::Pairs { seq: 0, pairs }
        }
        other => panic!("not a read: {other:?}"),
    })
}

fn fanout_counters(client: &mut NetClient) -> (u64, u64) {
    let (_, snap) = client.stats().expect("stats");
    (
        snap.counter("router.shards_visited").unwrap_or(0),
        snap.counter("router.shards_pruned").unwrap_or(0),
    )
}

/// Four connections issue the same multi-shard windows, ranges, joins and
/// kNNs at once, each starting at another quarter of the list, so scatters
/// over the same shards overlap in time.  Every answer must be the
/// in-process one and the router's fan-out the engine planner's; a
/// deadline turns a lock-order deadlock into a failure instead of a hang.
#[test]
fn concurrent_multi_shard_reads_match_the_local_index_and_its_fanout() {
    const CLIENTS: usize = 4;
    let data = generate(Distribution::skewed_default(), 4_000, 111);
    let (cluster, local) = spawn_cluster(&data, 1, "scatter", None);

    let mut expected = Vec::new();
    let mut fanout = QueryStats::default();
    for (i, q) in data.iter().enumerate().step_by(53) {
        let probes = data.iter().cycle().skip(i).step_by(331).take(5);
        let reads = [
            Request::Window(Rect::centered(q.x, q.y, 0.25, 0.25)),
            Request::Range(*q, 0.12),
            Request::JoinProbes(probes.copied().collect(), 0.05),
            Request::Knn(*q, 60),
        ];
        for req in reads {
            let mut cx = QueryContext::new();
            let answer = in_process(local.as_ref(), &req, &mut cx);
            if cx.stats.shards_visited >= 2 {
                fanout.shards_visited += cx.stats.shards_visited;
                fanout.shards_pruned += cx.stats.shards_pruned;
                expected.push((req, answer));
            }
        }
    }
    for (class, wanted) in [(0x02u8, 10), (0x03, 10), (0x04, 10), (0x05, 3)] {
        let spanning = expected.iter().filter(|(r, _)| r.encode()[0] == class);
        assert!(
            spanning.count() >= wanted,
            "too few multi-shard reads of tag {class:#04x}"
        );
    }

    let mut control = NetClient::connect(&cluster.router_addr()).expect("connect");
    let (v0, p0) = fanout_counters(&mut control);
    let expected = Arc::new(expected);
    let deadline = Instant::now() + Duration::from_secs(120);
    let clients: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let (done, finished) = mpsc::channel::<()>();
            let expected = Arc::clone(&expected);
            let addr = cluster.router_addr();
            let handle = std::thread::spawn(move || {
                // Dropped when the thread ends, whether it returns or panics.
                let _done = done;
                let mut client = NetClient::connect(&addr).expect("connect");
                let n = expected.len();
                for i in 0..n {
                    let (req, want) = &expected[(i + t * n / CLIENTS) % n];
                    let got = routed(&mut client, req).expect("routed read");
                    assert_eq!(&got, want, "client {t}: answer to {req:?}");
                }
            });
            (finished, handle)
        })
        .collect();
    for (finished, handle) in clients {
        let left = deadline.saturating_duration_since(Instant::now());
        if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(left) {
            // A stuck connection cannot drain: leak the cluster rather than
            // hang in its drop.
            std::mem::forget(cluster);
            panic!("routed reads still running at the deadline (lock-order deadlock?)");
        }
        if let Err(panic) = handle.join() {
            std::panic::resume_unwind(panic);
        }
    }

    let (v1, p1) = fanout_counters(&mut control);
    let rounds = CLIENTS as u64;
    assert_eq!(v1 - v0, rounds * fanout.shards_visited, "shards visited");
    assert_eq!(p1 - p0, rounds * fanout.shards_pruned, "shards pruned");
}

/// A window that spans a dead shard and a healthy one fails; the healthy
/// shard's reply to it must not stay unread on the pooled connection, or it
/// would answer the next request sent there.
#[test]
fn a_failed_scatter_leaves_no_reply_behind_on_a_pooled_connection() {
    let data = generate(Distribution::Uniform, 3_000, 113);
    let (mut cluster, local) = spawn_cluster(&data, 1, "desync", None);
    let mbrs: Vec<Rect> = cluster.manifest.shards.iter().map(|s| s.mbr).collect();
    let spans = |w: &Rect| {
        (0..SHARDS)
            .filter(|&s| mbrs[s].intersects(w))
            .collect::<Vec<_>>()
    };
    // The shard with the smallest MBR goes down, leaving the most room for
    // windows that miss it.  One replica per shard: handle i is shard i.
    let dead = (0..SHARDS)
        .min_by(|&a, &b| mbrs[a].area().total_cmp(&mbrs[b].area()))
        .unwrap();
    let victim = cluster.shard_handles.remove(dead);
    victim.shutdown();
    victim.join();

    // Failing windows: one whose healthy shard comes before the dead one in
    // shard order and one whose healthy shard comes after it, where they
    // exist.
    let around = |q: &Point, side| Rect::centered(q.x, q.y, side, side);
    let mut failing: Vec<Rect> = Vec::new();
    for below in [true, false] {
        let found = data.iter().map(|q| around(q, 0.2)).find(|w| {
            let s = spans(w);
            s.len() == 2 && s.contains(&dead) && (s[0] < dead) == below
        });
        failing.extend(found);
    }
    assert!(
        !failing.is_empty(),
        "no window spans the dead shard and one other"
    );
    // Healthy reads: windows off the dead shard's MBR, and point lookups
    // whose home shard is alive.
    let mut healthy: Vec<Request> = data
        .iter()
        .map(|q| around(q, 0.05))
        .filter(|w| !spans(w).contains(&dead))
        .take(12)
        .map(Request::Window)
        .collect();
    assert!(healthy.len() >= 6, "too few windows miss the dead shard");
    let home = |p: &Point| cluster.manifest.partitioner.route(p.x, p.y);
    let alive_points = data.iter().filter(|p| home(p) != dead).step_by(7).take(6);
    healthy.extend(alive_points.copied().map(Request::Point));

    let mut client = NetClient::connect(&cluster.router_addr()).expect("connect");
    for round in 0..3 {
        for w in &failing {
            assert!(
                client.window(w).is_err(),
                "round {round}: a window over the dead shard answered"
            );
            for req in &healthy {
                let want = in_process(local.as_ref(), req, &mut QueryContext::new());
                let got = routed(&mut client, req).expect("healthy read");
                assert_eq!(got, want, "round {round}: answer to {req:?} after {w:?}");
            }
        }
    }
}

#[test]
fn killed_replica_degrades_capacity_not_correctness() {
    let data = generate(Distribution::skewed_default(), 2_000, 91);
    let (mut cluster, mut local) = spawn_cluster(&data, 2, "failover", None);
    let mut client = NetClient::connect(&cluster.router_addr()).expect("connect");
    let windows = queries::window_queries(&data, queries::WindowSpec::default(), 10, 93);

    // Warm the round-robin so both shard-0 replicas hold served reads.
    for w in &windows {
        client.window(w).expect("window before failover");
    }

    // Take down shard 0's first replica (handles are pushed in shard-major
    // order, so index 0 is shard 0, replica 0).
    let victim = cluster.shard_handles.remove(0);
    victim.shutdown();
    victim.join();

    // Every read must keep succeeding with correct answers: round-robin
    // reads that land on the dead replica fail over transparently.
    let mut cx = QueryContext::new();
    for _ in 0..3 {
        for w in &windows {
            let (_, got) = client.window(w).expect("window after failover");
            assert_eq!(
                by_id(got),
                by_id(local.window_query(w, &mut cx)),
                "failover produced a wrong answer"
            );
        }
    }

    // Writes to the degraded shard still apply (fan-out skips the dead
    // replica), and are visible to routed reads.
    let p = Point::with_id(0.42, 0.42, 9_000_001);
    client.insert(&p).expect("insert after failover");
    local.insert(p);
    let (_, hit) = client.point(&p).expect("point after failover");
    assert_eq!(hit, Some(p));

    let (_, snap) = client.stats().expect("stats");
    assert!(
        snap.counter("router.replica_failovers").unwrap_or(0) >= 1,
        "failover was not recorded"
    );
}

#[test]
fn startup_skips_a_replica_that_accepts_and_then_hangs_up() {
    // A listener that accepts every connection and drops it at once: the
    // router's startup scrape reaches it, then loses the connection.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind decoy");
    let decoy_addr = listener.local_addr().unwrap().to_string();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let decoy = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(std::sync::atomic::Ordering::Acquire) {
                    return;
                }
                drop(stream);
            }
        })
    };

    let data = generate(Distribution::Uniform, 1_000, 99);
    let (cluster, local) = spawn_cluster(&data, 1, "flaky", Some(decoy_addr.clone()));
    let mut client = NetClient::connect(&cluster.router_addr()).expect("connect");
    let mut cx = QueryContext::new();
    for w in &queries::window_queries(&data, queries::WindowSpec::default(), 10, 101) {
        let (_, got) = client.window(w).expect("window behind a flaky replica");
        assert_eq!(by_id(got), by_id(local.window_query(w, &mut cx)));
    }

    drop(cluster);
    stop.store(true, std::sync::atomic::Ordering::Release);
    let _ = std::net::TcpStream::connect(&decoy_addr);
    decoy.join().expect("decoy thread");
}

#[test]
fn wire_shutdown_propagates_to_every_shard_server() {
    let data = generate(Distribution::Uniform, 500, 95);
    let (mut cluster, _local) = spawn_cluster(&data, 1, "shutdown", None);
    let mut client = NetClient::connect(&cluster.router_addr()).expect("connect");
    client.shutdown_server().expect("shutdown ack");
    let router = cluster.router.take().unwrap();
    assert!(router.is_stopped());
    router.join();
    // join propagated the shutdown upstream; every shard serving loop must
    // already be stopped (its own drain finishes in its handle's join).
    for h in &cluster.shard_handles {
        assert!(
            h.is_stopped(),
            "a shard server did not receive the shutdown"
        );
    }
}

#[test]
fn mismatched_replica_sets_are_rejected() {
    let data = generate(Distribution::Uniform, 300, 97);
    let path = snapshot_path("reject");
    let index = registry::build_index(BaseKind::Grid.sharded(), &data, &cfg());
    registry::save_index(index.as_ref(), &path).expect("save");
    let (_, manifest) = registry::load_shard_manifest(&path).expect("manifest");
    let _ = std::fs::remove_file(&path);
    let n = manifest.shard_count();

    // Wrong replica-set count.
    let err = router::serve(manifest.clone(), Vec::new(), &ServeConfig::default());
    assert!(err.is_err(), "zero replica sets must be rejected");

    // A shard with no addresses.
    let err = router::serve(manifest, vec![Vec::new(); n], &ServeConfig::default());
    assert!(err.is_err(), "an empty replica set must be rejected");
}

/// A scan whose kNN panics: a stand-in for any executor defect on a shard.
struct PanickingKnn(common::brute_force::ScanIndex);

impl SpatialIndex for PanickingKnn {
    fn name(&self) -> &'static str {
        "PanickingKnn"
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn point_query(&self, q: &Point, cx: &mut QueryContext) -> Option<Point> {
        self.0.point_query(q, cx)
    }
    fn window_query_visit(&self, w: &Rect, cx: &mut QueryContext, visit: &mut dyn FnMut(&Point)) {
        self.0.window_query_visit(w, cx, visit)
    }
    fn knn_query_visit(
        &self,
        _: &Point,
        _: usize,
        _: &mut QueryContext,
        _: &mut dyn FnMut(&Point),
    ) {
        panic!("this shard's kNN panics");
    }
    fn for_each_point(&self, visit: &mut dyn FnMut(&Point)) {
        self.0.for_each_point(visit)
    }
    fn insert(&mut self, p: Point) {
        self.0.insert(p)
    }
    fn delete(&mut self, p: &Point) -> bool {
        self.0.delete(p)
    }
    fn size_bytes(&self) -> usize {
        self.0.size_bytes()
    }
    fn height(&self) -> usize {
        self.0.height()
    }
}

#[test]
fn a_shard_whose_executor_panics_is_relayed_as_internal_and_stays_in_rotation() {
    let data = generate(Distribution::Uniform, 1_000, 71);
    let path = snapshot_path("panic");
    let index = registry::build_index(BaseKind::Grid.sharded(), &data, &cfg());
    registry::save_index(index.as_ref(), &path).expect("save sharded snapshot");
    let (_, manifest) = registry::load_shard_manifest(&path).expect("read manifest");
    let _ = std::fs::remove_file(&path);
    // Every shard serves its own points through a scan whose kNN panics.
    let mut shard_handles = Vec::new();
    let mut addrs = Vec::new();
    for shard in 0..manifest.shard_count() {
        let home = |p: &&Point| manifest.partitioner.route(p.x, p.y) == shard;
        let points: Vec<Point> = data.iter().filter(home).copied().collect();
        let rebuild: server::RebuildFn = Box::new(|pts| {
            Box::new(PanickingKnn(common::brute_force::ScanIndex::new(
                pts.to_vec(),
            )))
        });
        let server = Arc::new(SpatialServer::new(
            &points,
            rebuild,
            ServerConfig::default(),
        ));
        let handle = net::serve_config(server, &ServeConfig::default()).expect("serve shard");
        addrs.push(vec![handle.local_addr().to_string()]);
        shard_handles.push(handle);
    }
    let router = router::serve(manifest, addrs, &ServeConfig::default()).expect("start router");
    let mut client = NetClient::connect(&router.local_addr().to_string()).expect("connect");
    match client.knn(&data[0], 5) {
        Err(net::NetError::Internal(msg)) => {
            assert!(msg.contains("this shard's kNN panics"), "{msg}")
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    // The shard answered, so it stays in rotation and the router serves on.
    let (_, hit) = client.point(&data[0]).expect("point after the panic");
    assert_eq!(hit, Some(data[0]));
    let (_, snap) = client.stats().expect("stats");
    assert_eq!(snap.counter("router.replica_failovers").unwrap_or(0), 0);
    assert_eq!(snap.gauge("net.inflight"), Some(0));
    drop(router);
    drop(shard_handles);
}
