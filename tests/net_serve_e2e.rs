//! End-to-end exactness over the wire: a live networked server takes mixed
//! reads and writes from several concurrent client connections, and every
//! networked answer is replay-verified against the single-threaded
//! [`ScanIndex`](common::brute_force::ScanIndex) oracle — the same
//! verification `tests/serve_concurrent.rs` uses
//! (`bench::live::replay_against_oracle`), now crossing a real TCP socket
//! and the server's per-connection threads, which run the readers' queries
//! concurrently with the writer's inserts and deletes.
//!
//! The mechanism carries over unchanged because every data-bearing response
//! carries the write sequence its snapshot observed: replaying the write
//! stream up to that sequence into the oracle reproduces exactly the state
//! the networked query saw, no matter how the connection threads and the
//! background compactor interleaved.  There is no per-transport glue left
//! in this test: [`net::RemoteIndex`] exposes the uniform
//! `common::SpatialIndex` surface, so the shared `bench::live` observers
//! drive the remote server exactly like a local index, across all five
//! query classes.

use bench::live::{
    observe_range_join, observe_reads, replay_against_oracle, replay_range_join_against_oracle,
    split_stream, JoinObs, LiveObs, RangeObs,
};
use common::{QueryContext, SpatialIndex};
use datagen::queries::{
    range_query_centers, read_write_workload, MixedQuery, WindowSpec, DEFAULT_RANGE_RADIUS,
};
use datagen::{generate, Distribution};
use geom::Point;
use net::{NetClient, RemoteIndex};
use registry::{serve_index, IndexConfig, IndexKind, ServeConfig, ServerConfig};
use server::WriteOp;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Duration;

const READERS: usize = 3;

#[test]
fn networked_answers_replay_verify_against_the_oracle() {
    // An exact kind, so window and kNN answers are verifiable.
    let kind = IndexKind::Grid;
    assert!(kind.exact_windows() && kind.exact_knn());

    let data = generate(Distribution::skewed_default(), 1_500, 41);
    let ops = read_write_workload(&data, WindowSpec::default(), 5, 600, 0.2, 3);
    let (reads, writes) = split_stream(&ops);
    let centers = range_query_centers(&data, 40, 17);

    // A small compaction threshold so the background compactor runs mid-test
    // and the epoch swap is exercised under networked load.
    let server = serve_index(
        kind,
        &data,
        &IndexConfig::fast(),
        ServerConfig::default().with_compact_threshold((writes.len() / 2).max(4)),
    );
    let handle = net::serve_config(Arc::new(server), &ServeConfig::default()).unwrap();
    let addr = handle.local_addr().to_string();

    let mut observations: Vec<LiveObs> = Vec::new();
    let mut range_obs: Vec<RangeObs> = Vec::new();
    let mut join_obs: Vec<JoinObs> = Vec::new();

    std::thread::scope(|scope| {
        // One writer connection applies the write stream in order through
        // the same uniform `SpatialIndex` surface the readers use; the
        // blocking client waits for each acknowledgement, so write k is
        // assigned sequence k+1 and the oracle replay can reconstruct any
        // observed prefix.
        let addr_ref = &addr;
        let writes_ref = &writes;
        let writer = scope.spawn(move || {
            let mut remote = RemoteIndex::connect(addr_ref).unwrap();
            for w in writes_ref {
                match *w {
                    WriteOp::Insert(p) => {
                        remote.insert(p);
                    }
                    WriteOp::Delete(p) => {
                        remote.delete(&p);
                    }
                }
                // Pace the writes so they span the read phase.
                std::thread::sleep(Duration::from_micros(200));
            }
        });

        // Reader connections take strides of the mixed read stream; each
        // response frame's sequence number is what `last_seq` reports.
        let reads_ref = &reads;
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                scope.spawn(move || {
                    let remote = RemoteIndex::connect(addr_ref).unwrap();
                    let mine: Vec<MixedQuery> =
                        reads_ref.iter().skip(r).step_by(READERS).copied().collect();
                    observe_reads(&remote, &mine, &mut || remote.last_seq())
                })
            })
            .collect();

        // A fourth reader covers the two distance-predicate classes the
        // mixed stream does not carry.
        let centers_ref = &centers;
        let range_join = scope.spawn(move || {
            let remote = RemoteIndex::connect(addr_ref).unwrap();
            observe_range_join(&remote, centers_ref, DEFAULT_RANGE_RADIUS, &mut || {
                remote.last_seq()
            })
        });

        writer.join().unwrap();
        for h in readers {
            observations.extend(h.join().unwrap());
        }
        let (r, j) = range_join.join().unwrap();
        range_obs = r;
        join_obs = j;
    });

    handle.shutdown();
    handle.join();

    // Point/window/kNN: the shared oracle replay, unchanged from the
    // in-process serving gate.
    assert_eq!(observations.len(), reads.len());
    let outcome = replay_against_oracle(&data, &writes, &mut observations, true, true);
    assert_eq!(outcome.skipped, 0, "Grid answers every class exactly");
    assert_eq!(outcome.checked, reads.len());
    assert!(
        outcome.verified(),
        "networked answers diverged from the oracle: {:?}",
        outcome.divergences
    );

    // Distance-range and join-probe: the shared seq-sorted replay against
    // the same oracle, boundary-inclusive on dist² ≤ radius².
    let rj = replay_range_join_against_oracle(
        &data,
        &writes,
        &range_obs,
        &join_obs,
        DEFAULT_RANGE_RADIUS,
    );
    assert!(
        rj.verified(),
        "range/join answers diverged from the oracle: {:?}",
        rj.divergences
    );
    assert_eq!(rj.checked, range_obs.len() + join_obs.len());
    assert!(
        rj.checked > 40,
        "range/join replay exercised too few answers"
    );
}

/// A `RemoteIndex` counts, enumerates and probes every point the server
/// holds, inside the unit square or not, for an exact family and for the
/// approximate RSMI alike: it asks distance-range requests, which every
/// family answers exactly.
#[test]
fn a_remote_index_counts_and_finds_points_outside_the_unit_square() {
    let data = vec![
        Point::with_id(0.5, 0.5, 1),
        Point::with_id(-0.3, -0.7, 2),
        Point::with_id(1.5, 0.2, 3),
    ];
    for kind in [IndexKind::Hrr, IndexKind::Rsmi] {
        let server = serve_index(kind, &data, &IndexConfig::fast(), ServerConfig::default());
        let handle = net::serve_config(Arc::new(server), &ServeConfig::default()).unwrap();
        let remote = RemoteIndex::connect(&handle.local_addr().to_string()).unwrap();
        assert_eq!(remote.len(), 3, "{}", kind.name());
        let mut ids = Vec::new();
        remote.for_each_point(&mut |p| ids.push(p.id));
        ids.sort_unstable();
        assert_eq!(ids, [1, 2, 3], "{}", kind.name());
        let mut cx = QueryContext::new();
        for p in &data {
            let mut copies = Vec::new();
            remote.point_query_visit(p, &mut cx, &mut |c| {
                copies.push(c.id);
                ControlFlow::Continue(())
            });
            assert_eq!(copies, [p.id], "{} at {p:?}", kind.name());
        }
        drop(remote);
        handle.shutdown();
        handle.join();
    }
}

#[test]
fn warm_started_snapshot_serves_over_the_network() {
    // Build → snapshot to disk → warm-start a server from the snapshot →
    // serve it over the wire: the load-and-serve path and the network
    // front-end compose.
    let data = generate(Distribution::Uniform, 800, 23);
    let index = registry::build_index(IndexKind::Grid, &data, &IndexConfig::fast());
    let dir = std::env::temp_dir().join(format!("net-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("grid.snapshot");
    registry::save_index(index.as_ref(), &path).unwrap();

    let server = registry::serve_snapshot(&path, &IndexConfig::fast(), ServerConfig::default())
        .expect("warm start from snapshot");
    let handle = net::serve_config(Arc::new(server), &ServeConfig::default()).unwrap();
    let mut client = NetClient::connect(&handle.local_addr().to_string()).unwrap();

    let q = data[123];
    let (seq, hit) = client.point(&q).unwrap();
    assert_eq!(seq, 0, "warm start begins at sequence zero");
    assert_eq!(hit.map(|p| p.id), Some(q.id));

    // Writes land in the warm-started server's delta overlay too.
    let fresh = Point::with_id(0.5, 0.5, 1_000_000);
    assert_eq!(client.insert(&fresh).unwrap(), 1);
    let (_, hit) = client.point(&fresh).unwrap();
    assert_eq!(hit.map(|p| p.id), Some(1_000_000));

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Maintenance telemetry crosses the wire without a protocol change: the
/// metrics codec is name-generic, so a STATS scrape after partial passes
/// on a learned kind must expose the partial-compaction counters, the
/// drift gauges, and the partial-rebuild histogram exactly as the
/// in-process registry reports them.
#[test]
fn stats_scrape_exposes_maintenance_metrics() {
    let data = generate(Distribution::skewed_default(), 1_200, 53);
    let engine = Arc::new(serve_index(
        IndexKind::Rsmi,
        &data,
        &IndexConfig::fast(),
        ServerConfig::default().with_compact_threshold(usize::MAX),
    ));
    let handle = net::serve_config(Arc::clone(&engine), &ServeConfig::default()).unwrap();
    let mut client = NetClient::connect(&handle.local_addr().to_string()).unwrap();

    // Churn over the wire, then fold it with a policy-driven pass.
    for i in 0..24u64 {
        let base = data[(i as usize * 37) % data.len()];
        client
            .insert(&Point::with_id(base.x, base.y, 5_000_000 + i))
            .unwrap();
    }
    assert!(engine.maintain_now(), "nothing folded");
    let stats = engine.stats();
    assert_eq!(
        stats.partial_compactions, 1,
        "learned kind did not take the partial path"
    );

    let (seq, metrics) = client.stats().unwrap();
    assert_eq!(seq, 24);
    assert_eq!(metrics.counter("server.compactions_partial"), Some(1));
    assert_eq!(metrics.counter("server.compactions_full"), Some(0));
    assert_eq!(
        metrics.counter("server.subtree_rebuilds"),
        Some(stats.subtree_rebuilds)
    );
    // Drift gauges reflect the post-pass maintenance state of the base.
    assert!(metrics.gauge("server.maint_ops_since_train").is_some());
    assert!(metrics.gauge("server.maint_widened").is_some());
    assert!(metrics.gauge("server.maint_stale_subtrees").is_some());
    assert_eq!(
        metrics
            .histogram("server.partial_rebuild_us")
            .map(|h| h.count),
        Some(1)
    );

    handle.shutdown();
    handle.join();
}
