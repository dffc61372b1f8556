//! `net.reads_blocked` counts the frames whose wait ended in a blocking
//! read.  A test binary of its own: the places to spin are shared by every
//! thread of a process, and tests running beside this one would take some.

use common::brute_force::ScanIndex;
use geom::Point;
use net::NetClient;
use server::{RebuildFn, ServeConfig, ServerConfig, SpatialServer};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn reads_blocked_stays_low_in_a_closed_loop_and_counts_every_frame_after_think_time() {
    let points: Vec<Point> = (0..100)
        .map(|i| Point::with_id(i as f64 / 100.0, 0.5, i + 1))
        .collect();
    let rebuild: RebuildFn = Box::new(|pts| Box::new(ScanIndex::new(pts.to_vec())));
    let engine = Arc::new(SpatialServer::new(
        &points,
        rebuild,
        ServerConfig::default(),
    ));
    let handle = net::serve_config(Arc::clone(&engine), &ServeConfig::default()).unwrap();
    let mut client = NetClient::connect(&handle.local_addr().to_string()).unwrap();
    let blocked = || {
        engine
            .telemetry()
            .metrics
            .snapshot()
            .counter("net.reads_blocked")
            .unwrap()
    };
    let requests = || handle.stats().requests;

    // A client that sends its next request as soon as it has the reply:
    // the server spins for it and reads it without blocking.
    let closed_loop = 2_000;
    for i in 0..closed_loop {
        let (_, hit) = client.point(&points[i % points.len()]).unwrap();
        assert_eq!(hit, Some(points[i % points.len()]));
    }
    let (blocked_fast, requests_fast) = (blocked(), requests());
    assert_eq!(requests_fast, closed_loop as u64);
    assert!(
        blocked_fast * 4 < requests_fast,
        "{blocked_fast} of {requests_fast} closed-loop frames waited in a blocking read"
    );

    // A client that thinks 2 ms between requests, far past the spin
    // budget: every frame is read by a blocking read.
    let thinking = 20;
    for q in &points[..thinking] {
        std::thread::sleep(Duration::from_millis(2));
        client.point(q).unwrap();
    }
    assert_eq!(requests() - requests_fast, thinking as u64);
    assert_eq!(blocked() - blocked_fast, thinking as u64);

    handle.shutdown();
    handle.join();
}
