//! `net-serve`, `net-load` and `net-stats`: the **network serving
//! front-end** (`crates/net`) from the command line.
//!
//! `net-serve` builds the index selected by `--kind` — or warm-starts from
//! a `--path` snapshot — and serves it over the length-prefixed binary wire
//! protocol on `127.0.0.1:--port`, printing the bound address on stdout; it
//! drains and exits 0 on a wire `Shutdown` request or after `--duration`
//! seconds.  `net-load` drives `--connections` closed-loop client
//! connections through all five query classes and both write kinds and
//! reports p50/p99 tail latency per class; `--shutdown-server` sends the
//! graceful shutdown after the run so a scripted server process can be
//! reaped.  With `--verify-stats`, `net-load` additionally scrapes the
//! server's live telemetry (the wire `STATS`/`EVENTS` requests) before,
//! during, and after the run and reconciles the server's per-class
//! request/shed counters against its own counts **exactly** — plus
//! requires at least one background compaction (or epoch swap) in the
//! event journal — and exits 1 on any drift.  `net-stats` is the
//! standalone scraper: it connects to `--addr`, decodes one telemetry
//! snapshot (counters, gauges, latency histograms, lifecycle events) and
//! prints it as tables, optionally sending the graceful shutdown
//! afterwards.
//!
//! The router speaks the same wire protocol on both sides, so `net-load`,
//! `net-stats` and `--shutdown-server` work against `route-serve`
//! unmodified.

use crate::cli::{check, Args, Flag, Run, Subcommand};
use crate::harness::{
    dataset, kind, path, scale, scaled, sharded_config, EPOCHS, SEED, SHARDS, THREADS,
};
use bench::{fmt, netload, print_table, IndexKind};
use common::SpatialIndex;
use datagen::Distribution;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub const PORT: Flag = Flag::value(
    "--port",
    "P",
    check::parses::<u16>,
    "TCP port to bind on 127.0.0.1; 0 = ephemeral, the bound address is printed on stdout",
)
.default("0");

pub const DURATION: Flag = Flag::value(
    "--duration",
    "S",
    check::positive_finite,
    "serve for S seconds, then drain and exit 0 (default: until a wire Shutdown request)",
);

pub const COMPACT_THRESHOLD: Flag = Flag::value(
    "--compact-threshold",
    "N",
    check::positive_count,
    "delta ops that trigger a background compaction (default: the serving config's)",
);

const ADDR: Flag = Flag::value(
    "--addr",
    "A",
    check::host_port,
    "server address to connect to",
)
.default("127.0.0.1:7878");

const SHUTDOWN_SERVER: Flag = Flag::switch(
    "--shutdown-server",
    "send a graceful Shutdown to the server after the run (lets a script reap it)",
);

/// Query radius of the load's range and join-probe requests;
/// `datagen::queries::DEFAULT_RANGE_RADIUS` by default.
const RADIUS: Flag = Flag::value(
    "--radius",
    "R",
    check::positive_finite,
    "query radius, as a fraction of the unit data space",
)
.default("0.02");

const WRITE_RATIO: Flag = Flag::value(
    "--write-ratio",
    "R",
    write_ratio,
    "write share of the workload, in [0, 1)",
)
.default("0.1");

const QUERIES: Flag = Flag::value(
    "--queries",
    "N",
    check::positive_count,
    "operations per connection",
)
.default("500");

fn write_ratio(raw: &str) -> Result<(), String> {
    if (0.0..1.0).contains(&check::parsed::<f64>(raw)?) {
        Ok(())
    } else {
        Err("must be in [0, 1)".into())
    }
}

pub const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        names: &["net-serve"],
        about: "serve an index over the wire protocol until Shutdown or --duration",
        flags: &[
            kind("index kind to build and serve").default("HRR"),
            path("warm-start from this snapshot instead of building"),
            scale::<100_000>(),
            EPOCHS,
            SHARDS,
            THREADS,
            PORT,
            DURATION,
            COMPACT_THRESHOLD,
        ],
        in_all: false,
        run: Run::Verified(net_serve),
    },
    Subcommand {
        names: &["net-load"],
        about: "closed-loop load over all query classes and writes; tail latency per class",
        flags: &[
            ADDR,
            Flag::value(
                "--connections",
                "N",
                check::positive_count,
                "concurrent client connections",
            )
            .default("4"),
            QUERIES,
            WRITE_RATIO,
            RADIUS,
            scale::<100_000>(),
            Flag::switch(
                "--verify-stats",
                "scrape telemetry before/during/after and reconcile the server's per-class \
                 counters with the load generator exactly",
            ),
            SHUTDOWN_SERVER,
        ],
        in_all: false,
        run: Run::Verified(net_load),
    },
    Subcommand {
        names: &["net-stats"],
        about: "scrape one telemetry snapshot and the event journal, print them as tables",
        flags: &[ADDR, SHUTDOWN_SERVER],
        in_all: false,
        run: Run::Verified(net_stats),
    },
];

/// Announces the bound address (scripts and tests parse that line, so it
/// is flushed before the loop blocks), then waits for a wire `Shutdown`
/// or the `--duration` deadline, whichever comes first; on the deadline it
/// begins the shutdown itself.  The caller then reads the final stats and
/// joins the handle.
pub fn serve_until_stopped(
    announce: &str,
    duration: Option<f64>,
    is_stopped: impl Fn() -> bool,
    shutdown: impl Fn(),
) {
    use std::io::Write as _;
    println!("{announce}");
    let _ = std::io::stdout().flush();
    let deadline = duration.map(|d| Instant::now() + Duration::from_secs_f64(d));
    while !is_stopped() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            shutdown();
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The default serving configuration bound to `127.0.0.1:--port`.
pub fn bind_config(args: &Args) -> server::ServeConfig {
    server::ServeConfig::default()
        .with_bind_addr(format!("127.0.0.1:{}", args.get::<u16>("--port")))
}

/// [`bind_config`] of a subcommand that also declares
/// `--compact-threshold`.
pub fn serve_config(args: &Args) -> server::ServeConfig {
    let mut cfg = bind_config(args);
    if let Some(t) = args.opt("--compact-threshold") {
        cfg.server = cfg.server.with_compact_threshold(t);
    }
    cfg
}

/// `net-serve`: builds (or warm-starts from `--path` snapshot) a
/// `SpatialServer` and serves it over the wire protocol on
/// `127.0.0.1:--port` until a wire `Shutdown` request arrives (or
/// `--duration` elapses), then drains in-flight work, refuses new
/// requests, joins the acceptor and every connection thread, and reports
/// the session counters.  A client disconnecting mid-request only drops
/// that connection.
fn net_serve(args: &Args) -> bool {
    let kind: IndexKind = args.get("--kind");
    let cfg = sharded_config(args);
    let warm_start: Option<PathBuf> = args.opt("--path");
    // One unified serving configuration — bind address, warm start,
    // compaction, admission — consumed by both the engine construction
    // (`registry::serve_config`) and the network loop (`net::serve_config`).
    let mut serve = serve_config(args);
    if let Some(path) = &warm_start {
        // Warm start: recover the points and the index from a versioned
        // snapshot instead of rebuilding from raw data.
        if !path.exists() {
            eprintln!("net-serve: snapshot {} does not exist", path.display());
            return false;
        }
        serve = serve.with_warm_start(path);
        println!("_warm start from snapshot {}_", path.display());
    }
    let data = match &warm_start {
        Some(_) => Vec::new(),
        None => dataset(Distribution::skewed_default(), scaled(args, 100_000)),
    };
    let build_start = Instant::now();
    let server = match registry::serve_config(kind, &data, &cfg, &serve) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("net-serve: cannot start the serving engine: {e}");
            return false;
        }
    };
    let build_s = build_start.elapsed().as_secs_f64();
    let points_served = server.len();

    // Keep a handle on the engine: its telemetry registry outlives the
    // serve loop and backs the shutdown summary below.
    let engine = std::sync::Arc::new(server);
    let handle = match net::serve_config(std::sync::Arc::clone(&engine), &serve) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("net-serve: cannot bind {}: {e}", serve.bind_addr);
            return false;
        }
    };
    serve_until_stopped(
        &format!("netserve listening on {}", handle.local_addr()),
        args.opt("--duration"),
        || handle.is_stopped(),
        || handle.shutdown(),
    );
    let stats = handle.stats();
    // Drain: in-flight responses flush, then every thread joins — a
    // leaked listener thread would hang the process right here.
    handle.join();

    // Shutdown summary: the session's telemetry registry and event
    // journal outlive the serve loop on the engine Arc, so the per-class
    // totals here are final (every connection thread has counted and
    // written its last reply).
    let telemetry = engine.telemetry();
    let metrics = telemetry.metrics.snapshot();
    let events = telemetry.journal.snapshot();
    let uptime_s = telemetry.journal.uptime_us() as f64 / 1e6;
    let compactions = events
        .events
        .iter()
        .filter(|e| matches!(e.kind, obs::EventKind::CompactionEnd { .. }))
        .count();
    let drained = events
        .events
        .iter()
        .rev()
        .find_map(|e| match e.kind {
            obs::EventKind::Shutdown { drained, .. } => Some(drained),
            _ => None,
        })
        .unwrap_or(0);
    let mut total_completed = 0u64;
    let mut total_shed = 0u64;
    let class_rows: Vec<Vec<String>> = net::REQUEST_CLASSES
        .iter()
        .map(|class| {
            let done = metrics
                .counter(&format!("net.requests.{class}"))
                .unwrap_or(0);
            let shed = metrics.counter(&format!("net.shed.{class}")).unwrap_or(0);
            total_completed += done;
            total_shed += shed;
            let lat = metrics.histogram(&format!("net.latency_us.{class}"));
            vec![
                class.to_string(),
                done.to_string(),
                shed.to_string(),
                lat.map_or(0, |h| h.percentile(50.0)).to_string(),
                lat.map_or(0, |h| h.percentile(99.0)).to_string(),
            ]
        })
        .collect();
    println!(
        "netserve shutdown: uptime {uptime_s:.1}s, {total_completed} completed, \
         {total_shed} shed, {drained} drained in flight, {compactions} compactions, \
         {} journal events",
        events.events.len()
    );
    print_table(
        "Shutdown summary — per-class session telemetry",
        &["class", "completed", "shed", "p50 (us)", "p99 (us)"],
        &class_rows,
    );

    print_table(
        &format!(
            "Network serving session ({}, warm_start = {})",
            kind.name(),
            warm_start.is_some(),
        ),
        &[
            "index",
            "points",
            "build (s)",
            "connections",
            "requests",
            "shed",
        ],
        &[vec![
            kind.name().to_string(),
            points_served.to_string(),
            fmt(build_s),
            stats.connections.to_string(),
            stats.requests.to_string(),
            stats.shed.to_string(),
        ]],
    );
    true
}

/// `net-load`: drives `--connections` closed-loop client connections
/// against a running net-serve (or route-serve) at `--addr`, reporting
/// p50/p99 tail latency per query class plus shed counts and throughput.
fn net_load(args: &Args) -> bool {
    let addr: String = args.get("--addr");
    // The same deterministic data set net-serve builds from at the same
    // --scale, so point lookups hit and deletes target real points.
    let data = dataset(Distribution::skewed_default(), scaled(args, 100_000));
    let k = 25;
    let streams: Vec<Vec<netload::NetOp>> = (0..args.get::<usize>("--connections"))
        .map(|c| {
            netload::net_workload(
                &data,
                args.get("--queries"),
                k,
                args.get("--radius"),
                args.get("--write-ratio"),
                SEED ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                // Disjoint fresh-id planes per connection.
                (1 << 33) + ((c as u64) << 24),
            )
        })
        .collect();

    // --verify-stats: a baseline scrape before any load, and a background
    // scraper hammering STATS *during* the run (the scrape path bypasses
    // admission control, so it must keep answering under full load).
    let verifier = if args.on("--verify-stats") {
        match StatsVerifier::start(&addr) {
            Ok(v) => Some(v),
            Err(e) => {
                eprintln!("net-load: --verify-stats baseline scrape failed: {e}");
                return false;
            }
        }
    } else {
        None
    };

    let closed = match netload::run_closed_loop(&addr, &streams) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("net-load: closed loop failed: {e}");
            return false;
        }
    };
    netload::emit_latency_table(
        "Networked serving — closed-loop tail latency per class",
        &closed,
    );
    netload::emit_summary_table("Networked serving — closed-loop summary", &closed);
    let mut ok = closed.ok > 0;
    if !ok {
        eprintln!("net-load: no request was answered (all shed or none sent)");
    }

    if let Some(verifier) = verifier {
        ok &= verifier.finish(&closed);
    }

    if args.on("--shutdown-server") {
        let sent = net::NetClient::connect(&addr)
            .and_then(|mut c| c.shutdown_server())
            .is_ok();
        if !sent {
            eprintln!("net-load: could not deliver the shutdown request");
            ok = false;
        }
    }
    ok
}

/// Live-telemetry verification harness for `net-load --verify-stats`: a
/// baseline STATS scrape before the load starts, a background thread
/// scraping throughout the run (the scrape path bypasses admission
/// control, so it must keep answering under full load, and counters must
/// never go backwards), then a drain-side reconciliation of the server's
/// per-class request/shed counters against the load generator's own
/// counts — exact, or the run fails.
struct StatsVerifier {
    addr: String,
    baseline: obs::MetricsSnapshot,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    scraper: std::thread::JoinHandle<Result<usize, String>>,
}

impl StatsVerifier {
    fn start(addr: &str) -> Result<Self, String> {
        let mut client = net::NetClient::connect_retry(addr, Duration::from_secs(10))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let (_, baseline) = client.stats().map_err(|e| format!("baseline STATS: {e}"))?;
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let scraper = {
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || -> Result<usize, String> {
                let mut prev: std::collections::BTreeMap<String, u64> = Default::default();
                let mut scrapes = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let (_, snap) = client.stats().map_err(|e| format!("mid-run STATS: {e}"))?;
                    for (name, v) in &snap.counters {
                        if prev.get(name).is_some_and(|&old| *v < old) {
                            return Err(format!(
                                "counter {name} went backwards: {} -> {v}",
                                prev[name]
                            ));
                        }
                        prev.insert(name.clone(), *v);
                    }
                    scrapes += 1;
                    std::thread::sleep(Duration::from_millis(50));
                }
                Ok(scrapes)
            })
        };
        Ok(Self {
            addr: addr.to_string(),
            baseline,
            stop,
            scraper,
        })
    }

    fn finish(self, outcome: &netload::NetLoadOutcome) -> bool {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let mut ok = true;
        let mid_scrapes = match self
            .scraper
            .join()
            .unwrap_or_else(|_| Err("scraper panicked".into()))
        {
            Ok(n) if n > 0 => n,
            Ok(_) => {
                eprintln!("net-load: the mid-run scraper never completed a scrape");
                ok = false;
                0
            }
            Err(e) => {
                eprintln!("net-load: mid-run telemetry scraper failed: {e}");
                ok = false;
                0
            }
        };

        let mut client = match net::NetClient::connect_retry(&self.addr, Duration::from_secs(10)) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("net-load: drain-side connect {}: {e}", self.addr);
                return false;
            }
        };
        let after = match client.stats() {
            Ok((_, snap)) => snap,
            Err(e) => {
                eprintln!("net-load: drain-side STATS failed: {e}");
                return false;
            }
        };
        let (rows, discrepancies) = netload::reconcile_stats(&self.baseline, &after, outcome);
        print_table(
            "Telemetry reconciliation — server counters vs load generator",
            &netload::RECONCILE_HEADER,
            &rows,
        );
        for d in &discrepancies {
            eprintln!("net-load: telemetry drift: {d}");
        }
        ok &= discrepancies.is_empty();

        // The run's writes must have driven background compaction; the
        // final fold may still be in flight when the load ends, so poll
        // the journal rather than sampling it once.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut saw_compaction = false;
        loop {
            match client.events(0) {
                Ok((_, events)) => {
                    saw_compaction = events.events.iter().any(|e| {
                        matches!(
                            e.kind,
                            obs::EventKind::CompactionEnd { .. } | obs::EventKind::EpochSwap { .. }
                        )
                    });
                }
                Err(e) => {
                    eprintln!("net-load: EVENTS scrape failed: {e}");
                    ok = false;
                    break;
                }
            }
            if saw_compaction || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        if !saw_compaction {
            eprintln!(
                "net-load: no compaction/epoch-swap event in the journal after the run \
                 (did the workload buffer enough writes for the server's compact threshold?)"
            );
            ok = false;
        }
        println!(
            "telemetry verification: {mid_scrapes} mid-run scrapes, per-class counters {}, \
             compaction event {}",
            if discrepancies.is_empty() {
                "reconciled exactly".to_string()
            } else {
                format!("{} DISCREPANCIES", discrepancies.len())
            },
            if saw_compaction { "present" } else { "MISSING" },
        );
        ok
    }
}

/// `net-stats`: the standalone telemetry scraper — connects to a running
/// net-serve, decodes one wire STATS snapshot plus the EVENTS journal,
/// and prints them as tables (counters, gauges, latency distributions,
/// lifecycle events).  With `--shutdown-server` it then asks the server
/// to drain — the shape CI's observability step uses to print the final
/// telemetry and reap the background process.
fn net_stats(args: &Args) -> bool {
    let addr: String = args.get("--addr");
    let mut client = match net::NetClient::connect_retry(&addr, Duration::from_secs(10)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("net-stats: connect {addr}: {e}");
            return false;
        }
    };
    let (_, metrics) = match client.stats() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("net-stats: STATS request failed: {e}");
            return false;
        }
    };
    let (_, events) = match client.events(0) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("net-stats: EVENTS request failed: {e}");
            return false;
        }
    };
    print_table(
        "Telemetry — counters",
        &["counter", "value"],
        &metrics
            .counters
            .iter()
            .map(|(k, v)| vec![k.clone(), v.to_string()])
            .collect::<Vec<_>>(),
    );
    print_table(
        "Telemetry — gauges",
        &["gauge", "value"],
        &metrics
            .gauges
            .iter()
            .map(|(k, v)| vec![k.clone(), v.to_string()])
            .collect::<Vec<_>>(),
    );
    print_table(
        "Telemetry — distributions",
        &["histogram", "count", "mean", "p50", "p99", "p999", "max"],
        &metrics
            .histograms
            .iter()
            .map(|(k, h)| {
                vec![
                    k.clone(),
                    h.count.to_string(),
                    fmt(h.mean()),
                    h.percentile(50.0).to_string(),
                    h.percentile(99.0).to_string(),
                    h.percentile(99.9).to_string(),
                    if h.count == 0 { 0 } else { h.max }.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        &format!(
            "Telemetry — lifecycle events ({} dropped from the bounded journal)",
            events.dropped
        ),
        &["seq", "at (s)", "event", "details"],
        &events
            .events
            .iter()
            .map(|e| {
                vec![
                    e.seq.to_string(),
                    fmt(e.at_us as f64 / 1e6),
                    e.kind.name().to_string(),
                    e.kind.describe(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    if args.on("--shutdown-server") {
        if let Err(e) = client.shutdown_server() {
            eprintln!("net-stats: could not deliver the shutdown request: {e}");
            return false;
        }
    }
    true
}
