//! `wire-read-200k`: the same RSMI behind the `net` front end.  One
//! `NetClient` connection sends read-only requests, each waiting for its
//! reply.  Per-request index work is 1–30 µs against a round trip of a few
//! hundred, so `net` (codec, CRC framing, admission, worker queue,
//! syscalls) and always-on `obs` dominate and `core` barely registers.
//! Read-only, so every answer is compared with the in-process answer for
//! the same request.

use super::{peak_rss_mb, read_class, timed_rounds, Config, Report, K};
use crate::oracle;
use crate::stats::{median, nanos_u32, points_fnv64, Fnv64, Rounds, KNN, POINT, WINDOW};
use crate::trace::{TracedPass, Tracer};
use common::{QueryContext, SpatialIndex};
use datagen::queries::{self, MixedQuery, WindowSpec};
use geom::Point;
use net::wire::{read_frame, write_frame};
use net::{NetClient, NetError, Request, Response};
use registry::{IndexConfig, IndexKind, ServeConfig, ServerConfig};
use server::Snapshot;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

/// The payload of a read's answer, wherever it was computed.
#[derive(PartialEq)]
pub enum Answer {
    Point(Option<Point>),
    Points(Vec<Point>),
}

pub fn answer_in_process(snapshot: &Snapshot, q: &MixedQuery, cx: &mut QueryContext) -> Answer {
    match q {
        MixedQuery::Point(p) => Answer::Point(snapshot.point_query(p, cx)),
        MixedQuery::Window(w) => Answer::Points(snapshot.window_query(w, cx)),
        MixedQuery::Knn(p, k) => Answer::Points(snapshot.knn_query(p, *k, cx)),
    }
}

pub fn answer_over_wire(client: &mut NetClient, q: &MixedQuery) -> Result<Answer, NetError> {
    Ok(match q {
        MixedQuery::Point(p) => Answer::Point(client.point(p)?.1),
        MixedQuery::Window(w) => Answer::Points(client.window(w)?.1),
        MixedQuery::Knn(p, k) => Answer::Points(client.knn(p, *k as u32)?.1),
    })
}

pub fn request_of(q: &MixedQuery) -> Request {
    match q {
        MixedQuery::Point(p) => Request::Point(*p),
        MixedQuery::Window(w) => Request::Window(*w),
        MixedQuery::Knn(p, k) => Request::Knn(*p, *k as u32),
    }
}

pub fn answer_of(response: Response) -> Option<Answer> {
    match response {
        Response::Point { hit, .. } => Some(Answer::Point(hit)),
        Response::Points { points, .. } | Response::Knn { points, .. } => {
            Some(Answer::Points(points))
        }
        _ => None,
    }
}

/// One request over a raw stream, the way `NetClient` does it.
pub fn call_bare(stream: &mut TcpStream, request: &Request) -> Result<Response, NetError> {
    write_frame(stream, &request.encode())?;
    let payload = read_frame(stream)?.ok_or(NetError::Closed)?;
    Response::decode(&payload)
}

/// The same request with each step in a span of its own, so a round trip
/// decomposes into `net.encode → net.write → net.wait → net.decode`.
pub fn call_traced(
    stream: &mut TcpStream,
    request: &Request,
    tracer: &mut Tracer,
    root: u32,
    id: u64,
) -> Result<Response, NetError> {
    let bytes = tracer.child("net.encode", root, id, || request.encode());
    tracer.child("net.write", root, id, || write_frame(stream, &bytes))?;
    let payload = tracer
        .child("net.wait", root, id, || read_frame(stream))?
        .ok_or(NetError::Closed)?;
    tracer.child("net.decode", root, id, || Response::decode(&payload))
}

/// Window and kNN recall of whatever `client` talks to, against a scan of
/// the `live` points, on a sample of queries following `data`.
pub fn recalls_over_wire(
    client: &mut NetClient,
    data: &[Point],
    live: &[Point],
    seed: u64,
) -> (f64, f64) {
    let (windows, knn) = oracle::recall_queries(data, seed);
    let window_recall = oracle::window_recall(live, &windows, |w| {
        client
            .window(w)
            .map(|(_, points)| points)
            .unwrap_or_default()
    });
    let knn_recall = oracle::knn_recall(live, &knn, K, |q| {
        client
            .knn(q, K as u32)
            .map(|(_, points)| points)
            .unwrap_or_default()
    });
    (window_recall, knn_recall)
}

/// Median round-trip time of `count` pings, in microseconds.
pub fn ping_p50_us(client: &mut NetClient, count: usize) -> Result<f64, String> {
    let mut us = Vec::with_capacity(count);
    for _ in 0..count {
        let t = Instant::now();
        client.ping().map_err(|e| format!("ping failed: {e}"))?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&us).expect("count is positive"))
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();
    let index_cfg = IndexConfig::default();
    let net_err = |e: NetError| format!("wire-read: {e}");

    let setup_start = Instant::now();
    let data = cfg.data(200_000);
    let generate_s = setup_start.elapsed().as_secs_f64();
    let spatial = Arc::new(registry::serve_index(
        IndexKind::Rsmi,
        &data,
        &index_cfg,
        ServerConfig::default(),
    ));
    let handle = net::serve_config(
        Arc::clone(&spatial),
        &ServeConfig::default().with_workers(2),
    )
    .map_err(net_err)?;
    let addr = handle.local_addr().to_string();
    let mut client = NetClient::connect(&addr).map_err(net_err)?;
    let pool = queries::mixed_workload(
        &data,
        WindowSpec::default(),
        K,
        cfg.ops(30_000),
        cfg.seed.wrapping_add(11),
    );
    let setup_s = setup_start.elapsed().as_secs_f64();
    report.note("input.points_fnv64", points_fnv64(&data));
    let mut ops_hash = Fnv64::default();
    pool.iter().for_each(|q| ops_hash.query(q));
    report.note("input.ops_fnv64", ops_hash.hex());

    // The answers the wire must reproduce, and what they cost in process.
    let snapshot = spatial.snapshot();
    let mut cx = QueryContext::new();
    let mut in_process = Rounds::default();
    let local_start = Instant::now();
    let expected: Vec<(MixedQuery, Answer)> = pool
        .iter()
        .map(|q| {
            let t = Instant::now();
            let answer = answer_in_process(&snapshot, q, &mut cx);
            in_process.record(read_class(q), nanos_u32(t.elapsed()));
            (*q, answer)
        })
        .collect();
    in_process.end_round(pool.len(), local_start.elapsed());

    // Timed: one closed-loop connection; the comparison with the expected
    // answer is a slice compare, nothing beside a round trip.
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rounds = timed_rounds(
        &expected,
        cfg.ops(1_000),
        cfg.budget(),
        |(q, _)| read_class(q),
        |(q, expected)| {
            attempted += 1;
            failed += (answer_over_wire(&mut client, q).ok().as_ref() != Some(expected)) as u64;
        },
    );
    report.attempted += attempted;
    report.failed += failed;

    let stats = handle.stats();
    report.check(stats.shed == 0, "nothing was shed");
    let (window_recall, knn_recall) = recalls_over_wire(&mut client, &data, &data, cfg.seed);

    let m = &mut report.metrics;
    m.set("setup_s", setup_s);
    m.set_opt("ops_per_s", rounds.ops_per_s());
    m.set("window_recall", window_recall);
    m.set("knn_recall", knn_recall);
    m.set(
        "index_bytes_per_point",
        spatial.size_bytes() as f64 / data.len() as f64,
    );
    report.set_latencies(&mut rounds);

    if cfg.trace {
        let m = &mut report.metrics;
        m.set("datagen.generate_s", generate_s);
        m.set("core.height", spatial.height() as f64);
        m.set("core.model_count", spatial.model_count() as f64);
        for (class, overhead, tail, wire_tail) in [
            (
                POINT,
                "net.overhead_us.point",
                "net.point_p99_us",
                "point_p99_us",
            ),
            (
                WINDOW,
                "net.overhead_us.window",
                "net.window_p99_us",
                "window_p99_us",
            ),
            (KNN, "net.overhead_us.knn", "net.knn_p99_us", "knn_p99_us"),
        ] {
            if let (Some(wire), Some(local)) = (rounds.p50_us(class), in_process.p50_us(class)) {
                m.set(overhead, wire - local);
            }
            m.set_opt(tail, m.get(wire_tail));
        }
        m.set(
            "net.batch_mean",
            stats.batched as f64 / stats.batches.max(1) as f64,
        );
        m.set("net.shed", stats.shed as f64);
        m.set(
            "net.ping_p50_us",
            ping_p50_us(&mut client, cfg.ops(20_000))?,
        );
        let mut scrapes = Vec::new();
        for _ in 0..50 {
            let t = Instant::now();
            client.stats().map_err(net_err)?;
            scrapes.push(t.elapsed().as_secs_f64() * 1e6);
        }
        m.set_opt("obs.stats_scrape_us", median(&scrapes));
        let mut setups = Vec::new();
        for _ in 0..20 {
            let t = Instant::now();
            NetClient::connect(&addr)
                .and_then(|mut c| c.ping())
                .map_err(net_err)?;
            setups.push(t.elapsed().as_secs_f64() * 1e6);
        }
        m.set_opt("net.conn_setup_us", median(&setups));
        crate::probes::run_all(&data, cfg.smoke, m);
        traced_pass(&addr, &snapshot, &pool, cfg, &mut report)?;
    }

    drop(client);
    handle.shutdown();
    handle.join();
    report.metrics.set("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

/// The head of one pool over a fresh connection, every other request with
/// the client's four steps in spans; each traced request is then replayed
/// against the in-process snapshot under a `replay` span, so `net.wait`
/// splits into index work and transport.
fn traced_pass(
    addr: &str,
    snapshot: &Snapshot,
    pool: &[MixedQuery],
    cfg: &Config,
    report: &mut Report,
) -> Result<(), String> {
    let net_err = |e: NetError| format!("wire-read traced pass: {e}");
    let ops = &pool[..pool.len().min(cfg.ops(12_000))];
    let mut stream = NetClient::connect(addr).map_err(net_err)?.into_stream();
    let mut cx = QueryContext::new();
    let mut pass = TracedPass::new();
    for q in ops {
        let request = request_of(q);
        let traced = pass.begin();
        let response = match traced {
            None => call_bare(&mut stream, &request),
            Some((root, id)) => call_traced(&mut stream, &request, &mut pass.tracer, root, id),
        };
        pass.end();
        let over_wire = response.ok().and_then(answer_of);
        let local = match traced {
            None => answer_in_process(snapshot, q, &mut cx),
            Some((_, id)) => {
                let replay = pass.tracer.open("replay", None, id);
                let local = pass.tracer.child("server.snapshot", replay, id, || {
                    answer_in_process(snapshot, q, &mut cx)
                });
                pass.tracer.close(replay);
                local
            }
        };
        report.check(
            over_wire == Some(local),
            "a traced response equals the in-process answer",
        );
    }
    report.set_trace(cfg, &pass)
}
