//! `routed-mixed-200k`: the only workload that runs `router` (plan,
//! upstream, merge, write fan-out), `engine` partitioning, `persist`
//! snapshot sections and a `baselines` family.  A `Sharded-HRR` index is
//! snapshotted, its two shards are served from their snapshot sections by
//! two shard servers, and a router in front of them takes one connection's
//! read/write stream (10 % writes).  One connection keeps the client →
//! router → shard chain strictly sequential, so p50 is clean.  RSMI-only
//! work must leave this workload unchanged.

use super::wire_read::{
    answer_of, answer_over_wire, call_bare, call_traced, ping_p50_us, recalls_over_wire,
    request_of, Answer,
};
use super::{keep_going, peak_rss_mb, read_class, stream_round, timed_rounds, Config, Report, K};
use crate::oracle;
use crate::stats::{
    median, nanos_u32, percentile_us, points_fnv64, Fnv64, Rounds, KNN, POINT, WINDOW, WRITE,
};
use crate::trace::TracedPass;
use common::{QueryContext, QueryStats, SpatialIndex};
use datagen::queries::{self, MixedQuery, ServeOp, WindowSpec};
use engine::partition::Partitioner;
use geom::Point;
use net::{NetClient, NetError, NetHandle, Request, Response};
use registry::{BaseKind, IndexConfig, IndexKind, ServeConfig, ServerConfig, SpatialServer};
use router::RouterHandle;
use std::hint::black_box;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WRITE_RATIO: f64 = 0.1;
const SHARDS: usize = 2;

/// Set-up is cheap here (no model training), so it is repeated and
/// `setup_s` is the median: one slow thread spawn does not move it.
const SETUPS: usize = 3;

/// Inserted points looked up through the router after the run.
const KEY_SAMPLE: usize = 1_000;

struct SetupTimes {
    total_s: f64,
    generate_s: f64,
    engine_build_s: f64,
    snapshot_write_ms: f64,
    snapshot_load_ms: f64,
    snapshot_bytes: usize,
}

/// Router, shard servers and the in-process twin of what they serve.
struct Topology {
    data: Vec<Point>,
    /// The `ShardedIndex` the snapshot was taken from.  It receives every
    /// write the router receives, so it stays the reference for every read.
    twin: Box<dyn SpatialIndex>,
    partitioner: Partitioner,
    shard_servers: Vec<Arc<SpatialServer>>,
    shard_handles: Vec<NetHandle>,
    router: RouterHandle,
    client: NetClient,
    times: SetupTimes,
}

impl Topology {
    fn set_up(cfg: &Config) -> Result<Self, String> {
        let err =
            |what: &str, e: &dyn std::fmt::Display| format!("routed-mixed set-up: {what}: {e}");
        let index_cfg = IndexConfig::default()
            .with_shards(SHARDS)
            .with_threads(SHARDS);
        let start = Instant::now();
        let data = cfg.data(200_000);
        let generate_s = start.elapsed().as_secs_f64();

        let t = Instant::now();
        let twin = registry::build_index(IndexKind::Sharded(BaseKind::Hrr), &data, &index_cfg);
        let engine_build_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let bytes = registry::snapshot_bytes(twin.as_ref()).map_err(|e| err("snapshot", &e))?;
        let snapshot_write_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let (_, manifest) =
            registry::load_shard_manifest_bytes(&bytes).map_err(|e| err("manifest", &e))?;
        let mut shard_servers = Vec::with_capacity(SHARDS);
        for shard in 0..manifest.shard_count() {
            let section = registry::load_shard_snapshot_bytes(&bytes, shard)
                .map_err(|e| err("shard section", &e))?;
            let server = registry::serve_snapshot_bytes(
                &section,
                &index_cfg,
                ServerConfig::default().with_compact_threshold(1_024),
            )
            .map_err(|e| err("shard warm start", &e))?;
            shard_servers.push(Arc::new(server));
        }
        let snapshot_load_ms = t.elapsed().as_secs_f64() * 1e3;

        let serve_cfg = ServeConfig::default();
        let shard_handles = shard_servers
            .iter()
            .map(|s| net::serve_config(Arc::clone(s), &serve_cfg))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| err("shard listener", &e))?;
        let replicas = shard_handles
            .iter()
            .map(|h| vec![h.local_addr().to_string()])
            .collect();
        let partitioner = manifest.partitioner.clone();
        let router =
            router::serve(manifest, replicas, &serve_cfg).map_err(|e| err("router", &e))?;
        let client =
            NetClient::connect(&router.local_addr().to_string()).map_err(|e| err("client", &e))?;
        Ok(Self {
            data,
            twin,
            partitioner,
            shard_servers,
            shard_handles,
            router,
            client,
            times: SetupTimes {
                total_s: start.elapsed().as_secs_f64(),
                generate_s,
                engine_build_s,
                snapshot_write_ms,
                snapshot_load_ms,
                snapshot_bytes: bytes.len(),
            },
        })
    }

    /// Stops everything in dependency order and waits for every thread: the
    /// router drains and tells the shard servers to shut down, their
    /// handles finish that drain, then the servers' compactors stop.
    fn tear_down(self) {
        drop(self.client);
        self.router.shutdown();
        self.router.join();
        for handle in self.shard_handles {
            handle.join();
        }
        drop(self.shard_servers);
    }

    fn shard_addr(&self, shard: usize) -> String {
        self.shard_handles[shard].local_addr().to_string()
    }

    /// The shard that owns a request's location: a point's own, a window's
    /// centre, a kNN query's point.
    fn owner(&self, request: &Request) -> usize {
        let at = match request {
            Request::Point(p) | Request::Knn(p, _) | Request::Insert(p) | Request::Delete(p) => *p,
            Request::Window(w) => w.center(),
            _ => unreachable!("the workload sends reads and writes only"),
        };
        self.partitioner.route(at.x, at.y)
    }
}

/// What came back for one operation.
enum Outcome {
    Answer(Answer),
    /// An insert, or a delete and whether a point went.
    Written(bool),
    Failed,
}

fn routed(client: &mut NetClient, op: &ServeOp) -> Outcome {
    let result: Result<Outcome, NetError> = match op {
        ServeOp::Read(q) => answer_over_wire(client, q).map(Outcome::Answer),
        ServeOp::Insert(p) => client.insert(p).map(|_| Outcome::Written(true)),
        ServeOp::Delete(p) => client
            .delete(p)
            .map(|(removed, _)| Outcome::Written(removed)),
    };
    result.unwrap_or(Outcome::Failed)
}

fn outcome_of(response: Result<Response, NetError>) -> Outcome {
    match response {
        Ok(Response::Written { removed, .. }) => Outcome::Written(removed),
        Ok(other) => answer_of(other).map_or(Outcome::Failed, Outcome::Answer),
        Err(_) => Outcome::Failed,
    }
}

fn request_of_op(op: &ServeOp) -> Request {
    match op {
        ServeOp::Read(q) => request_of(q),
        ServeOp::Insert(p) => Request::Insert(*p),
        ServeOp::Delete(p) => Request::Delete(*p),
    }
}

fn class_of(op: &ServeOp) -> usize {
    match op {
        ServeOp::Read(q) => read_class(q),
        _ => WRITE,
    }
}

fn twin_answer(twin: &dyn SpatialIndex, q: &MixedQuery, cx: &mut QueryContext) -> Answer {
    match q {
        MixedQuery::Point(p) => Answer::Point(twin.point_query(p, cx)),
        MixedQuery::Window(w) => Answer::Points(twin.window_query(w, cx)),
        MixedQuery::Knn(p, k) => Answer::Points(twin.knn_query(p, *k, cx)),
    }
}

/// A window's points come back in planner order; compare them as a set.
fn by_id(answer: Answer, q: &MixedQuery) -> Answer {
    match (answer, q) {
        (Answer::Points(mut points), MixedQuery::Window(_)) => {
            points.sort_by_key(|p| p.id);
            Answer::Points(points)
        }
        (other, _) => other,
    }
}

/// Replays `ops` on the twin in stream order: every read must equal the
/// twin's answer at that moment, every write must be acknowledged and a
/// delete must report what the twin's delete reports.
fn settle(
    twin: &mut dyn SpatialIndex,
    ops: &[ServeOp],
    outcomes: Vec<Outcome>,
    inserted: &mut Vec<Point>,
    report: &mut Report,
) {
    let mut cx = QueryContext::new();
    for (op, outcome) in ops.iter().zip(outcomes) {
        let ok = match (op, outcome) {
            (ServeOp::Read(q), Outcome::Answer(got)) => {
                by_id(got, q) == by_id(twin_answer(twin, q, &mut cx), q)
            }
            (ServeOp::Insert(p), Outcome::Written(_)) => {
                twin.insert(*p);
                inserted.push(*p);
                true
            }
            (ServeOp::Delete(p), Outcome::Written(removed)) => twin.delete(p) == removed,
            _ => false,
        };
        report.check(
            ok,
            "a routed operation equals the same operation on the twin",
        );
    }
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = Report::default();

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut topo = Topology::set_up(cfg)?;
    for _ in 1..SETUPS {
        setup_s.push(topo.times.total_s);
        topo.tear_down();
        topo = Topology::set_up(cfg)?;
    }
    setup_s.push(topo.times.total_s);
    report.note("input.points_fnv64", points_fnv64(&topo.data));
    report.metrics.set(
        "index_bytes_per_point",
        topo.twin.size_bytes() as f64 / topo.data.len() as f64,
    );

    if cfg.trace {
        static_probes(&mut topo, cfg, &mut report)?;
    }

    // Timed: one closed-loop connection through the router.
    let round_len = cfg.ops(1_000);
    let budget = cfg.budget();
    let mut rounds = Rounds::default();
    let mut ops_hash = Fnv64::default();
    let mut inserted = Vec::new();
    let timed_start = Instant::now();
    while keep_going(rounds.rounds(), timed_start, budget) {
        let ops = stream_round(
            &topo.data,
            round_len,
            WRITE_RATIO,
            cfg.seed,
            rounds.rounds(),
        );
        if rounds.rounds() == 0 {
            ops_hash.ops(&ops);
        }
        let mut outcomes = Vec::with_capacity(ops.len());
        let round_start = Instant::now();
        for op in &ops {
            let t = Instant::now();
            let outcome = routed(&mut topo.client, op);
            rounds.record(class_of(op), nanos_u32(t.elapsed()));
            outcomes.push(outcome);
        }
        rounds.end_round(ops.len(), round_start.elapsed());
        settle(
            topo.twin.as_mut(),
            &ops,
            outcomes,
            &mut inserted,
            &mut report,
        );
    }
    report.note("input.ops_fnv64", ops_hash.hex());

    if cfg.trace {
        traced_pass(&mut topo, cfg, rounds.rounds(), &mut inserted, &mut report)?;
    }

    // Surviving inserts must be found, nothing was shed, nobody failed over.
    let mut cx = QueryContext::new();
    // Compared by location: inserts are clamped to the unit square, so a few
    // share a corner, and which copy a lookup returns there is not fixed.
    let location = |hit: Option<Point>| hit.map(|p| (p.x.to_bits(), p.y.to_bits()));
    for p in oracle::sample(&inserted, KEY_SAMPLE) {
        let got = topo.client.point(&p).map(|(_, hit)| location(hit)).ok();
        report.check(
            got == Some(location(topo.twin.point_query(&p, &mut cx))),
            "an inserted point is found exactly when the twin holds one there",
        );
    }
    let shed: u64 = topo.shard_handles.iter().map(|h| h.stats().shed).sum();
    let failovers = topo
        .router
        .telemetry()
        .metrics
        .snapshot()
        .counter("router.replica_failovers")
        .unwrap_or(0);
    report.check(shed + topo.router.stats().shed == 0, "nothing was shed");
    report.check(failovers == 0, "no replica failed over");

    let mut live = Vec::new();
    topo.twin.for_each_point(&mut |p| live.push(*p));
    let (window_recall, knn_recall) =
        recalls_over_wire(&mut topo.client, &topo.data, &live, cfg.seed);

    let m = &mut report.metrics;
    m.set("setup_s", median(&setup_s).expect("SETUPS is positive"));
    m.set_opt("ops_per_s", rounds.ops_per_s());
    m.set("window_recall", window_recall);
    m.set("knn_recall", knn_recall);
    report.set_latencies(&mut rounds);

    if cfg.trace {
        let m = &mut report.metrics;
        let times = &topo.times;
        m.set("datagen.generate_s", times.generate_s);
        m.set("engine.build_s", times.engine_build_s);
        m.set("persist.snapshot_write_ms", times.snapshot_write_ms);
        m.set("persist.snapshot_load_ms", times.snapshot_load_ms);
        m.set(
            "persist.snapshot_bytes_per_point",
            times.snapshot_bytes as f64 / topo.data.len() as f64,
        );
        m.set("router.failovers", failovers as f64);
        m.set_opt("router.point_p99_us", m.get("point_p99_us"));
        m.set_opt("router.write_p99_us", m.get("write_p99_us"));
        m.set("net.shed", shed as f64);
        crate::probes::run_all(&topo.data, cfg.smoke, m);
    }
    topo.tear_down();
    report.metrics.set("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

/// Measurements on the freshly loaded topology, before any write: what the
/// in-process planner does with the same reads (`engine.*`), whether the
/// router's fan-out accounting equals it, the router's floor (`ping`), and
/// what the router adds to each class over asking the owning shard server
/// directly (`router.overhead_us.*`).
fn static_probes(topo: &mut Topology, cfg: &Config, report: &mut Report) -> Result<(), String> {
    let net_err = |e: NetError| format!("routed-mixed probes: {e}");
    let reads = queries::mixed_workload(
        &topo.data,
        WindowSpec::default(),
        K,
        cfg.ops(6_000),
        cfg.seed.wrapping_add(21),
    );
    let twin = topo.twin.as_ref();
    let mut cx = QueryContext::new();

    // In-process planner: fan-out per window and over all reads.
    let windows: Vec<&MixedQuery> = reads
        .iter()
        .filter(|q| matches!(q, MixedQuery::Window(_)))
        .collect();
    let window_rounds = timed_rounds(
        &windows,
        (windows.len() / 5).max(1),
        Duration::ZERO,
        |_| WINDOW,
        |q| {
            black_box(twin_answer(twin, q, &mut cx));
        },
    );
    let per_window = cx.take_stats();
    let timed_windows = window_rounds.samples(WINDOW) as f64;
    for q in &reads {
        black_box(twin_answer(twin, q, &mut cx));
    }
    let planned: QueryStats = cx.take_stats();

    // The same reads through the router: its counters must agree.
    let fan_out = |router: &RouterHandle| {
        let snapshot = router.telemetry().metrics.snapshot();
        (
            snapshot.counter("router.shards_visited").unwrap_or(0),
            snapshot.counter("router.shards_pruned").unwrap_or(0),
        )
    };
    let (visited_before, pruned_before) = fan_out(&topo.router);
    let mut routed_ns: [Vec<u32>; 4] = Default::default();
    for q in &reads {
        let t = Instant::now();
        let got = answer_over_wire(&mut topo.client, q).map_err(net_err)?;
        routed_ns[read_class(q)].push(nanos_u32(t.elapsed()));
        report.check(
            by_id(got, q) == by_id(twin_answer(twin, q, &mut cx), q),
            "a routed read equals the twin's answer",
        );
    }
    let (visited_after, pruned_after) = fan_out(&topo.router);
    let visited = visited_after - visited_before;
    let pruned = pruned_after - pruned_before;
    report.check(
        visited == planned.shards_visited && pruned == planned.shards_pruned,
        "the router's fan-out counters equal the in-process planner's",
    );

    // Straight to the owning shard server, same reads.
    let mut direct: Vec<NetClient> = (0..SHARDS)
        .map(|shard| NetClient::connect(&topo.shard_addr(shard)))
        .collect::<Result<_, _>>()
        .map_err(net_err)?;
    let mut direct_ns: [Vec<u32>; 4] = Default::default();
    for q in &reads {
        let owner = topo.owner(&request_of(q));
        let t = Instant::now();
        answer_over_wire(&mut direct[owner], q).map_err(net_err)?;
        direct_ns[read_class(q)].push(nanos_u32(t.elapsed()));
    }

    // Writes: insert a fresh point and delete it again, so neither the
    // shard servers nor the twin end up different.
    let fresh = queries::insertion_points(&topo.data, cfg.ops(2_000), cfg.seed.wrapping_add(22));
    let high_ids = 1u64 << 48;
    for mut p in fresh {
        p.id += high_ids;
        let owner = topo.owner(&Request::Insert(p));
        for (samples, client) in [
            (&mut routed_ns, &mut topo.client),
            (&mut direct_ns, &mut direct[owner]),
        ] {
            let t = Instant::now();
            client.insert(&p).map_err(net_err)?;
            samples[WRITE].push(nanos_u32(t.elapsed()));
            let t = Instant::now();
            let (removed, _) = client.delete(&p).map_err(net_err)?;
            samples[WRITE].push(nanos_u32(t.elapsed()));
            report.check(removed, "a probe insert is deleted again");
        }
    }

    let router_ping = ping_p50_us(&mut topo.client, cfg.ops(10_000))?;
    let m = &mut report.metrics;
    m.set_opt("engine.window_p50_us", window_rounds.p50_us(WINDOW));
    m.set(
        "engine.shards_visited_per_window",
        per_window.shards_visited as f64 / timed_windows,
    );
    m.set(
        "engine.shards_pruned_per_window",
        per_window.shards_pruned as f64 / timed_windows,
    );
    m.set(
        "router.shards_visited_per_request",
        visited as f64 / reads.len() as f64,
    );
    m.set(
        "router.shards_pruned_per_request",
        pruned as f64 / reads.len() as f64,
    );
    m.set("router.ping_p50_us", router_ping);
    for (class, name) in [
        (POINT, "router.overhead_us.point"),
        (WINDOW, "router.overhead_us.window"),
        (KNN, "router.overhead_us.knn"),
        (WRITE, "router.overhead_us.write"),
    ] {
        let routed = percentile_us(&mut routed_ns[class], 0.5);
        let direct = percentile_us(&mut direct_ns[class], 0.5);
        if let (Some(routed), Some(direct)) = (routed, direct) {
            m.set(name, routed - direct);
        }
    }
    report.note(
        "router.planner_fan_out",
        format!(
            "router visited {visited} pruned {pruned}; engine visited {} pruned {} over {} reads",
            planned.shards_visited,
            planned.shards_pruned,
            reads.len()
        ),
    );
    Ok(())
}

/// One further round of the stream over a raw connection to the router,
/// every other request with the client's four steps in spans.  Each traced
/// read is then replayed under a `replay` span straight at the owning shard
/// server (`shard.direct`) and on the in-process twin (`engine`), which
/// splits `net.wait` into router, transport and index work.
fn traced_pass(
    topo: &mut Topology,
    cfg: &Config,
    next_round: usize,
    inserted: &mut Vec<Point>,
    report: &mut Report,
) -> Result<(), String> {
    let net_err = |e: NetError| format!("routed-mixed traced pass: {e}");
    let connect = |addr: String| -> Result<TcpStream, NetError> {
        Ok(NetClient::connect(&addr)?.into_stream())
    };
    let mut stream = connect(topo.router.local_addr().to_string()).map_err(net_err)?;
    let mut direct: Vec<TcpStream> = (0..SHARDS)
        .map(|shard| connect(topo.shard_addr(shard)))
        .collect::<Result<_, _>>()
        .map_err(net_err)?;
    let ops = stream_round(
        &topo.data,
        cfg.ops(6_000),
        WRITE_RATIO,
        cfg.seed,
        next_round,
    );
    let mut cx = QueryContext::new();
    let mut pass = TracedPass::new();
    for op in &ops {
        let request = request_of_op(op);
        let traced = pass.begin();
        let response = match traced {
            None => call_bare(&mut stream, &request),
            Some((root, id)) => call_traced(&mut stream, &request, &mut pass.tracer, root, id),
        };
        pass.end();
        if let (Some((_, id)), ServeOp::Read(q)) = (traced, op) {
            let replay = pass.tracer.open("replay", None, id);
            let owner = topo.owner(&request);
            pass.tracer
                .child("shard.direct", replay, id, || {
                    call_bare(&mut direct[owner], &request)
                })
                .map_err(net_err)?;
            pass.tracer.child("engine", replay, id, || {
                black_box(twin_answer(topo.twin.as_ref(), q, &mut cx));
            });
            pass.tracer.close(replay);
        }
        // Settled one by one: the replay above must see the twin as the
        // router saw the shards when it answered.
        settle(
            topo.twin.as_mut(),
            std::slice::from_ref(op),
            vec![outcome_of(response)],
            inserted,
            report,
        );
    }
    report.set_trace(cfg, &pass)
}
