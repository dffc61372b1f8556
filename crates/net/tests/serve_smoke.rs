//! Behavioural tests for the serving loop: answers match the in-process
//! engine byte for byte, admission control sheds with a typed OVERLOAD,
//! shutdown drains without leaking threads, and garbage on the socket
//! never takes the server down.

use common::brute_force::ScanIndex;
use common::{QueryContext, SpatialIndex};
use geom::{Point, Rect};
use net::{NetClient, NetError, Request, Response};
use server::{RebuildFn, ServeConfig, ServerConfig, SpatialServer};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

fn test_points(n: usize) -> Vec<Point> {
    // Deterministic, irregular, collision-free.
    (0..n)
        .map(|i| {
            let x = (i as f64 * 0.37911) % 1.0;
            let y = (i as f64 * 0.61803) % 1.0;
            Point::with_id(x, y, i as u64 + 1)
        })
        .collect()
}

fn spawn_server(points: Vec<Point>, cfg: ServeConfig) -> (Arc<SpatialServer>, net::NetHandle) {
    let rebuild: RebuildFn = Box::new(|pts| Box::new(ScanIndex::new(pts.to_vec())));
    let engine = Arc::new(SpatialServer::new(
        &points,
        rebuild,
        ServerConfig::default(),
    ));
    let handle = net::serve_config(Arc::clone(&engine), &cfg).unwrap();
    (engine, handle)
}

#[test]
fn networked_answers_are_byte_identical_to_in_process() {
    let points = test_points(500);
    let (engine, handle) = spawn_server(points.clone(), ServeConfig::default());
    let addr = handle.local_addr().to_string();
    let mut client = NetClient::connect(&addr).unwrap();
    let mut cx = QueryContext::new();
    let snap = engine.snapshot();

    let q = points[123];
    let (_, hit) = client.point(&q).unwrap();
    assert_eq!(hit, snap.point_query(&q, &mut cx));

    let w = Rect::new(0.2, 0.2, 0.6, 0.6);
    let (_, got) = client.window(&w).unwrap();
    assert_eq!(got, snap.window_query(&w, &mut cx));

    let (_, got) = client.knn(&q, 7).unwrap();
    assert_eq!(got, snap.knn_query(&q, 7, &mut cx));

    let (_, got) = client.range(&q, 0.1).unwrap();
    assert_eq!(got, snap.range_query(&q, 0.1, &mut cx));

    let probes = &points[..10];
    let (_, got) = client.join_probes(probes, 0.05).unwrap();
    let mut expect = Vec::new();
    snap.distance_join_probes(probes, 0.05, &mut cx, &mut |a, b| expect.push((*a, *b)));
    assert_eq!(got, expect);

    handle.shutdown();
    handle.join();
}

#[test]
fn writes_route_through_the_delta_overlay() {
    let (engine, handle) = spawn_server(test_points(100), ServeConfig::default());
    let addr = handle.local_addr().to_string();
    let mut client = NetClient::connect(&addr).unwrap();

    let fresh = Point::with_id(0.111, 0.222, 9_000_001);
    let seq1 = client.insert(&fresh).unwrap();
    assert_eq!(seq1, 1);
    let (_, hit) = client.point(&fresh).unwrap();
    assert_eq!(hit.map(|p| p.id), Some(9_000_001));

    let (removed, seq2) = client.delete(&fresh).unwrap();
    assert!(removed);
    assert_eq!(seq2, 2);
    let (_, hit) = client.point(&fresh).unwrap();
    assert_eq!(hit, None);
    assert_eq!(engine.stats().seq, 2);

    handle.shutdown();
    handle.join();
}

#[test]
fn zero_admission_window_sheds_with_typed_overload() {
    let cfg = ServeConfig::default().with_global_inflight(0);
    let (_engine, handle) = spawn_server(test_points(50), cfg);
    let mut client = NetClient::connect(&handle.local_addr().to_string()).unwrap();
    // Control messages bypass admission; queries are shed.
    client.ping().unwrap();
    match client.point(&Point::with_id(0.5, 0.5, 1)) {
        Err(NetError::Overload) => {}
        other => panic!("expected Overload, got {other:?}"),
    }
    assert!(handle.stats().shed >= 1);
    // The connection survives the shed: control traffic still works.
    client.ping().unwrap();
    handle.shutdown();
    handle.join();
}

#[test]
fn wire_shutdown_drains_and_refuses_new_requests() {
    let (_engine, handle) = spawn_server(test_points(50), ServeConfig::default());
    let addr = handle.local_addr().to_string();
    let mut client = NetClient::connect(&addr).unwrap();
    client.shutdown_server().unwrap();
    assert!(handle.is_stopped());
    // New connections are refused (accept loop exited) and the drain
    // completes without leaking threads.
    handle.join();
    assert!(
        NetClient::connect(&addr).is_err() || {
            // A connect may be accepted by the OS backlog after the listener
            // closed on some platforms; a request on it must then fail.
            let mut c = NetClient::connect(&addr).unwrap();
            c.ping().is_err()
        }
    );
}

#[test]
fn garbage_and_disconnects_do_not_take_the_server_down() {
    let (_engine, handle) = spawn_server(test_points(50), ServeConfig::default());
    let addr = handle.local_addr().to_string();

    // Garbage bytes: the connection is dropped, the server lives.
    let mut garbage = std::net::TcpStream::connect(&addr).unwrap();
    garbage.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    drop(garbage);

    // A partial frame followed by a disconnect mid-request.
    let payload = net::Request::Ping.encode();
    let frame = net::wire::frame_bytes(&payload);
    let mut partial = std::net::TcpStream::connect(&addr).unwrap();
    partial.write_all(&frame[..frame.len() / 2]).unwrap();
    drop(partial);

    // An oversized length prefix must be rejected without allocation.
    let mut oversized = std::net::TcpStream::connect(&addr).unwrap();
    let mut header = Vec::new();
    header.extend_from_slice(&net::wire::MAGIC);
    header.extend_from_slice(&net::wire::PROTOCOL_VERSION.to_le_bytes());
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    oversized.write_all(&header).unwrap();
    drop(oversized);

    // The server still answers a well-formed client.
    let mut client = NetClient::connect_retry(&addr, Duration::from_secs(5)).unwrap();
    client.ping().unwrap();
    let (_, hit) = client.point(&test_points(50)[10]).unwrap();
    assert!(hit.is_some());

    handle.shutdown();
    handle.join();
}

#[test]
fn live_stats_and_events_reconcile_with_traffic() {
    let points = test_points(300);
    let (_engine, handle) = spawn_server(points.clone(), ServeConfig::default());
    let addr = handle.local_addr().to_string();
    let mut client = NetClient::connect(&addr).unwrap();

    // Generate a known mix of traffic: 5 points, 2 windows, 1 knn, 3 inserts.
    for i in 0..5 {
        client.point(&points[i * 7]).unwrap();
    }
    for _ in 0..2 {
        client.window(&Rect::new(0.1, 0.1, 0.4, 0.4)).unwrap();
    }
    client.knn(&points[9], 3).unwrap();
    for i in 0..3 {
        client
            .insert(&Point::with_id(0.01 * i as f64, 0.02, 8_000_000 + i as u64))
            .unwrap();
    }

    // The scrape itself bypasses admission control and reflects every
    // request already delivered (the client is closed-loop, so all prior
    // responses have arrived by the time Stats is sent).
    let (seq, metrics) = client.stats().unwrap();
    assert_eq!(seq, 3, "three writes were applied");
    assert_eq!(metrics.counter("net.requests.point"), Some(5));
    assert_eq!(metrics.counter("net.requests.window"), Some(2));
    assert_eq!(metrics.counter("net.requests.knn"), Some(1));
    assert_eq!(metrics.counter("net.requests.insert"), Some(3));
    // All classes are pre-registered so scrapers see a stable name set.
    assert_eq!(metrics.counter("net.requests.delete"), Some(0));
    assert_eq!(metrics.gauge("server.delta_ops"), Some(3));
    assert_eq!(metrics.gauge("server.seq"), Some(3));
    assert_eq!(metrics.gauge("net.connections_open"), Some(1));
    let lat = metrics
        .histogram("net.latency_us.point")
        .expect("point latency histogram present");
    assert_eq!(lat.count, 5);

    // The journal holds the lifecycle trace: a server-start and this
    // connection's open event.
    let (_, events) = client.events(0).unwrap();
    let names: Vec<&str> = events.events.iter().map(|e| e.kind.name()).collect();
    assert!(names.contains(&"server-start"), "events: {names:?}");
    assert!(names.contains(&"conn-open"), "events: {names:?}");
    // Seqs are strictly ascending, and `since` filters.
    let last = events.events.last().unwrap().seq;
    let (_, tail) = client.events(last).unwrap();
    assert!(tail.events.iter().all(|e| e.seq > last));

    handle.shutdown();
    handle.join();
}

/// 26 distinct reads cycling through the five read classes.
fn pipelined_reads(points: &[Point]) -> Vec<Request> {
    (0..26)
        .map(|i| {
            let q = points[i * 17];
            match i % 5 {
                0 => Request::Point(q),
                1 => Request::Window(Rect::new(q.x - 0.1, q.y - 0.1, q.x + 0.1, q.y + 0.1)),
                2 => Request::Knn(q, 3 + i as u32),
                3 => Request::Range(q, 0.05),
                _ => Request::JoinProbes(points[i..i + 4].to_vec(), 0.05),
            }
        })
        .collect()
}

/// The in-process answer to a read, as the wire would carry it.
fn in_process(snap: &server::Snapshot, req: &Request) -> Response {
    let mut cx = QueryContext::new();
    let seq = snap.seq();
    match req {
        Request::Point(q) => Response::Point {
            seq,
            hit: snap.point_query(q, &mut cx),
        },
        Request::Window(w) => Response::Points {
            seq,
            points: snap.window_query(w, &mut cx),
        },
        Request::Knn(q, k) => Response::Knn {
            seq,
            points: snap.knn_query(q, *k as usize, &mut cx),
        },
        Request::Range(q, r) => Response::Points {
            seq,
            points: snap.range_query(q, *r, &mut cx),
        },
        Request::JoinProbes(probes, r) => {
            let mut pairs = Vec::new();
            snap.distance_join_probes(probes, *r, &mut cx, &mut |a, b| pairs.push((*a, *b)));
            Response::Pairs { seq, pairs }
        }
        other => panic!("not a read: {other:?}"),
    }
}

/// The per-connection contract on a raw stream: 32 frames written back to
/// back before any reply is read come back one reply per frame, in request
/// order, and the connection reads its own writes.
#[test]
fn pipelined_frames_are_answered_in_order_and_read_their_own_writes() {
    let points = test_points(500);
    let (engine, handle) = spawn_server(points.clone(), ServeConfig::default());
    let snap = engine.snapshot();
    let fresh = Point::with_id(0.333, 0.444, 9_000_002);
    let reads = pipelined_reads(&points);
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

    let mut stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    let bytes: Vec<u8> = frames
        .iter()
        .flat_map(|r| net::wire::frame_bytes(&r.encode()))
        .collect();
    stream.write_all(&bytes).unwrap();
    let replies: Vec<Response> = (0..frames.len())
        .map(|_| {
            let payload = net::wire::read_frame(&mut stream).unwrap().unwrap();
            Response::decode(&payload).unwrap()
        })
        .collect();

    for (i, (req, got)) in reads.iter().zip(&replies).enumerate() {
        assert_eq!(*got, in_process(&snap, req), "reply {i} to {req:?}");
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
    assert_eq!(handle.stats().shed, 0);

    drop(stream);
    handle.shutdown();
    handle.join();
}

#[test]
fn concurrent_closed_loop_clients_each_get_their_own_answers() {
    let points = test_points(2000);
    let (_engine, handle) = spawn_server(points.clone(), ServeConfig::default());
    let addr = handle.local_addr().to_string();
    let threads = 8;
    let per_thread = 50;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let addr = addr.clone();
            let points = &points;
            scope.spawn(move || {
                let mut client = NetClient::connect(&addr).unwrap();
                for i in 0..per_thread {
                    let q = points[(t * per_thread + i) % points.len()];
                    let (_, hit) = client.point(&q).unwrap();
                    assert_eq!(hit.map(|p| p.id), Some(q.id));
                }
            });
        }
    });
    let stats = handle.stats();
    assert_eq!(stats.requests, (threads * per_thread) as u64);
    // Every request is executed on its own connection's thread.
    assert_eq!(stats.batched, stats.requests);
    assert_eq!(stats.batches, stats.batched);
    handle.shutdown();
    handle.join();
}

#[test]
fn invalid_requests_get_bad_request_and_the_connection_lives_on() {
    // A learned base: its kNN routes the query point through a model,
    // which a NaN coordinate must never reach.
    let points = test_points(500);
    let engine = Arc::new(registry::serve_index(
        registry::IndexKind::Rsmi,
        &points,
        &registry::IndexConfig::fast(),
        ServerConfig::default(),
    ));
    let handle = net::serve_config(Arc::clone(&engine), &ServeConfig::default()).unwrap();
    let mut client = NetClient::connect(&handle.local_addr().to_string()).unwrap();
    let nan = Point::with_id(f64::NAN, 0.5, 9_000_003);
    for req in [
        Request::Knn(nan, 5),
        Request::Insert(nan),
        Request::Knn(points[0], net::frontend::MAX_KNN_K + 1),
        Request::Range(points[0], -1.0),
    ] {
        match client.call(&req) {
            Err(NetError::Remote(_)) => {}
            other => panic!("{req:?}: expected BadRequest, got {other:?}"),
        }
    }
    let (_, metrics) = client.stats().unwrap();
    assert_eq!(metrics.counter("net.bad_request"), Some(4));
    assert_eq!(engine.stats().seq, 0, "a refused insert was applied");
    // The next valid request is answered on the same connection.
    let (_, got) = client.knn(&points[0], 5).unwrap();
    assert_eq!(got.len(), 5);
    handle.shutdown();
    handle.join();
}

/// A scan whose kNN panics: a stand-in for any executor defect.
struct PanickingKnn(ScanIndex);

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
        panic!("this index's kNN panics");
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
fn a_panicking_executor_answers_internal_and_returns_its_admission_token() {
    let rebuild: RebuildFn = Box::new(|pts| Box::new(PanickingKnn(ScanIndex::new(pts.to_vec()))));
    let points = test_points(50);
    let engine = Arc::new(SpatialServer::new(
        &points,
        rebuild,
        ServerConfig::default(),
    ));
    let handle = net::serve_config(Arc::clone(&engine), &ServeConfig::default()).unwrap();
    let addr = handle.local_addr().to_string();
    // The call runs on its own thread, so a server that never answers
    // fails the test instead of hanging it.
    let (done, reply) = std::sync::mpsc::channel();
    let caller = std::thread::spawn(move || {
        let mut client = NetClient::connect(&addr).unwrap();
        let got = client.knn(&Point::new(0.5, 0.5), 3);
        done.send(format!("{got:?}")).unwrap();
        client
    });
    let got = reply.recv_timeout(Duration::from_secs(30));
    let inflight = || engine.telemetry().metrics.snapshot().gauge("net.inflight");
    let Ok(got) = got else {
        panic!(
            "no reply within 30 s, net.inflight {:?}: the panicking request wedged its connection",
            inflight()
        );
    };
    assert!(
        got.starts_with("Err(Internal("),
        "a panicked kNN answered {got}"
    );
    assert!(got.contains("this index's kNN panics"), "{got}");
    let mut client = caller.join().unwrap();
    assert_eq!(inflight(), Some(0), "the admission token leaked");
    let (_, metrics) = client.stats().unwrap();
    assert_eq!(metrics.counter("net.exec_panics"), Some(1));
    // The connection keeps serving.
    client.ping().unwrap();
    let (_, hit) = client.point(&points[7]).unwrap();
    assert_eq!(hit, Some(points[7]));
    assert_eq!(inflight(), Some(0));
    handle.shutdown();
    handle.join();
}
