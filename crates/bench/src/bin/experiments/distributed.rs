//! `shard-serve` and `route-serve`: the two halves of the **multi-process
//! distributed serving** topology (`crates/router`).
//!
//! `shard-serve` extracts shard `--shard` from the sharded snapshot at
//! `--path` and serves it over the wire protocol on `127.0.0.1:--port` —
//! the unchanged single-process serving loop over one shard's data.
//! `route-serve` loads *only the routing metadata* (partitioner + per-shard
//! MBRs) from the same snapshot and serves the full query surface by
//! scatter/gather over the shard servers listed in `--shard-addrs`
//! (`;`-separated shards, each a `,`-separated replica list).

use crate::cli::{check, Args, Flag, Run, Subcommand};
use crate::harness::{config, path, EPOCHS};
use crate::netserve::{
    bind_config, serve_config, serve_until_stopped, COMPACT_THRESHOLD, DURATION, PORT,
};
use bench::print_table;
use common::SpatialIndex;
use std::path::PathBuf;
use std::sync::Arc;

pub const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        names: &["shard-serve"],
        about: "serve one shard of a sharded snapshot over the wire protocol",
        flags: &[
            path("sharded snapshot to extract the shard from").required(),
            Flag::value(
                "--shard",
                "I",
                check::parses::<usize>,
                "which shard of the snapshot to serve",
            )
            .default("0"),
            PORT,
            DURATION,
            COMPACT_THRESHOLD,
            EPOCHS,
        ],
        in_all: false,
        run: Run::Verified(shard_serve),
    },
    Subcommand {
        names: &["route-serve"],
        about: "route the full query surface over the shard servers of a sharded snapshot",
        flags: &[
            path("sharded snapshot to read the routing metadata from").required(),
            Flag::value(
                "--shard-addrs",
                "L",
                shard_addrs,
                "shard servers: ';' separates shards (in shard order), ',' separates replicas \
                 of one shard (e.g. 'h1:7001,h2:7001;h1:7002')",
            )
            .required(),
            PORT,
            DURATION,
        ],
        in_all: false,
        run: Run::Verified(route_serve),
    },
];

fn shard_addrs(raw: &str) -> Result<(), String> {
    raw.split([';', ','])
        .try_for_each(check::host_port)
        .map_err(|_| "entries must be host:port".to_string())
}

/// `shard-serve`: extracts shard `--shard` from the sharded snapshot at
/// `--path`, warm-starts a `SpatialServer` over it, and serves it over the
/// wire protocol on `127.0.0.1:--port` — the single-process serving loop,
/// unchanged, over one shard's data.  Exits on a wire `Shutdown` (which
/// the router propagates on drain) or after `--duration` seconds.
fn shard_serve(args: &Args) -> bool {
    let path: PathBuf = args.get("--path");
    let shard: usize = args.get("--shard");
    let bytes = match registry::load_shard_snapshot(&path, shard) {
        Ok(b) => b,
        Err(e) => {
            eprintln!(
                "shard-serve: cannot extract shard {shard} from {}: {e}",
                path.display()
            );
            return false;
        }
    };
    let serve = serve_config(args);
    let server = match registry::serve_snapshot_bytes(&bytes, &config(args), serve.server) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("shard-serve: cannot serve shard {shard}: {e}");
            return false;
        }
    };
    let points = server.len();
    let handle = match net::serve_config(Arc::new(server), &serve) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("shard-serve: cannot bind {}: {e}", serve.bind_addr);
            return false;
        }
    };
    serve_until_stopped(
        &format!(
            "shardserve shard {shard} listening on {} ({points} points)",
            handle.local_addr()
        ),
        args.opt("--duration"),
        || handle.is_stopped(),
        || handle.shutdown(),
    );
    let stats = handle.stats();
    handle.join();
    println!(
        "shardserve shutdown: shard {shard}, {} connections, {} requests, {} shed",
        stats.connections, stats.requests, stats.shed
    );
    print_table(
        "Shard serving session",
        &["shard", "points", "connections", "requests", "shed"],
        &[vec![
            shard.to_string(),
            points.to_string(),
            stats.connections.to_string(),
            stats.requests.to_string(),
            stats.shed.to_string(),
        ]],
    );
    true
}

/// `route-serve`: loads only the routing metadata (frozen partitioner +
/// per-shard MBRs) from the sharded snapshot at `--path` — never any
/// shard's data — and serves the full five-class query surface on
/// `127.0.0.1:--port` by scatter/gather over the shard servers in
/// `--shard-addrs`.  A wire `Shutdown` drains the router's own clients
/// first, then propagates the graceful shutdown to every shard replica.
fn route_serve(args: &Args) -> bool {
    let path: PathBuf = args.get("--path");
    let (kind, manifest) = match registry::load_shard_manifest(&path) {
        Ok(v) => v,
        Err(e) => {
            eprintln!(
                "route-serve: cannot read routing metadata from {}: {e}",
                path.display()
            );
            return false;
        }
    };
    let replicas: Vec<Vec<String>> = args
        .get::<String>("--shard-addrs")
        .split(';')
        .map(|shard| shard.split(',').map(str::to_string).collect())
        .collect();
    let n_shards = manifest.shard_count();
    let handle = match router::serve(manifest, replicas, &bind_config(args)) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("route-serve: cannot start the router: {e}");
            return false;
        }
    };
    serve_until_stopped(
        &format!(
            "router listening on {} ({n_shards} shards, kind {})",
            handle.local_addr(),
            kind.name()
        ),
        args.opt("--duration"),
        || handle.is_stopped(),
        || handle.shutdown(),
    );
    let stats = handle.stats();
    let metrics = handle.telemetry().metrics.snapshot();
    // Drain own clients, then propagate the shutdown to every shard
    // replica — after this join no child server should be serving.
    handle.join();
    let visited = metrics.counter("router.shards_visited").unwrap_or(0);
    let pruned = metrics.counter("router.shards_pruned").unwrap_or(0);
    let failovers = metrics.counter("router.replica_failovers").unwrap_or(0);
    println!(
        "router shutdown: {} connections, {} requests, {} shed, \
         {visited} shards visited, {pruned} pruned, {failovers} replica failovers",
        stats.connections, stats.requests, stats.shed
    );
    print_table(
        &format!("Router session — {} shards ({})", n_shards, kind.name()),
        &[
            "shards",
            "connections",
            "requests",
            "shed",
            "shards visited",
            "shards pruned",
            "replica failovers",
        ],
        &[vec![
            n_shards.to_string(),
            stats.connections.to_string(),
            stats.requests.to_string(),
            stats.shed.to_string(),
            visited.to_string(),
            pruned.to_string(),
            failovers.to_string(),
        ]],
    );
    true
}
