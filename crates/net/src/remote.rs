//! A remote index: the [`common::SpatialIndex`] query surface over one
//! wire connection.
//!
//! [`RemoteIndex`] wraps a [`NetClient`] so conformance and oracle helpers
//! (e.g. `bench::live`) drive a networked server — a single-process
//! front-end, a shard server, or the distributed router — through exactly
//! the same code path as a local index.  Every data-bearing response's
//! observed write sequence is retained ([`RemoteIndex::last_seq`]), which
//! is what a replay oracle orders observations by.
//!
//! The trait has no error channel, so network failures **panic** with the
//! failing operation: this adapter is for tests, benchmarks, and
//! conformance drivers, where a broken connection is a failed run, not a
//! condition to recover from.  Production callers keep using [`NetClient`]
//! directly.

use crate::NetClient;
use common::{CopyVisit, QueryContext, SpatialIndex};
use geom::{Point, Rect};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A [`SpatialIndex`] whose data lives behind a wire connection.
///
/// Queries take `&self` through a mutex around the underlying blocking
/// client (one request in flight at a time — the closed-loop shape);
/// updates take `&mut self` like every other index.
pub struct RemoteIndex {
    client: Mutex<NetClient>,
    last_seq: AtomicU64,
}

impl RemoteIndex {
    /// Wraps an already-connected client.
    pub(crate) fn new(client: NetClient) -> Self {
        Self {
            client: Mutex::new(client),
            last_seq: AtomicU64::new(0),
        }
    }

    /// Connects to `addr`.
    pub fn connect(addr: &str) -> Result<Self, crate::NetError> {
        NetClient::connect(addr).map(Self::new)
    }

    /// Connects to `addr`, retrying until `deadline` elapses (for racing a
    /// server that is still binding its listener).
    pub fn connect_retry(addr: &str, deadline: Duration) -> Result<Self, crate::NetError> {
        NetClient::connect_retry(addr, deadline).map(Self::new)
    }

    /// The write sequence number observed by the most recent response —
    /// what a replay oracle orders this connection's observations by.
    pub fn last_seq(&self) -> u64 {
        self.last_seq.load(Ordering::Acquire)
    }

    fn call<T>(
        &self,
        what: &str,
        f: impl FnOnce(&mut NetClient) -> Result<(u64, T), crate::NetError>,
    ) -> T {
        let mut client = self.client.lock().expect("remote client lock poisoned");
        let (seq, out) = f(&mut client)
            .unwrap_or_else(|e| panic!("remote index: {what} failed over the wire: {e}"));
        self.last_seq.store(seq, Ordering::Release);
        out
    }
}

impl SpatialIndex for RemoteIndex {
    fn name(&self) -> &'static str {
        "Remote"
    }

    /// Counts every finite point the server holds (see
    /// [`SpatialIndex::for_each_point`]).  One wire round trip per call;
    /// cache it if called in a loop.
    fn len(&self) -> usize {
        let mut n = 0usize;
        self.for_each_point(&mut |_| n += 1);
        n
    }

    /// The wire has no copy probe: this asks for the points at distance 0
    /// from `q`, every copy of the location.  Distance-range answers are
    /// exact for every family.
    fn point_query_visit(&self, q: &Point, _cx: &mut QueryContext, visit: &mut CopyVisit) {
        let copies = self.call("point probe", |c| c.range(q, 0.0));
        let _ = copies.iter().try_for_each(visit);
    }

    /// One `Point` request: the served index's own lookup answers it.
    fn point_query(&self, q: &Point, _cx: &mut QueryContext) -> Option<Point> {
        self.call("point query", |c| c.point(q))
    }

    fn window_query_visit(
        &self,
        window: &Rect,
        _cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        for p in self.call("window query", |c| c.window(window)) {
            visit(&p);
        }
    }

    fn knn_query_visit(
        &self,
        q: &Point,
        k: usize,
        _cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        let k = u32::try_from(k).unwrap_or(u32::MAX);
        for p in self.call("knn query", |c| c.knn(q, k)) {
            visit(&p);
        }
    }

    fn range_query_visit(
        &self,
        center: &Point,
        radius: f64,
        _cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        if !radius.is_finite() || radius < 0.0 {
            return;
        }
        for p in self.call("range query", |c| c.range(center, radius)) {
            visit(&p);
        }
    }

    fn distance_join_probes(
        &self,
        probes: &[Point],
        radius: f64,
        _cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point, &Point),
    ) {
        if !radius.is_finite() || radius < 0.0 || probes.is_empty() {
            return;
        }
        for (m, q) in self.call("join probes", |c| c.join_probes(probes, radius)) {
            visit(&m, &q);
        }
    }

    /// One distance-range request around the origin with the largest
    /// finite radius: its square overflows to infinity, so the circle holds
    /// every finite point, and the answer is exact for every family.
    fn for_each_point(&self, visit: &mut dyn FnMut(&Point)) {
        for p in self.call("enumeration", |c| c.range(&Point::new(0.0, 0.0), f64::MAX)) {
            visit(&p);
        }
    }

    fn insert(&mut self, p: Point) {
        self.call("insert", |c| c.insert(&p).map(|seq| (seq, ())));
    }

    fn delete(&mut self, p: &Point) -> bool {
        self.call("delete", |c| {
            c.delete(p).map(|(removed, seq)| (seq, removed))
        })
    }

    /// Unknown for a remote index (the bytes live in another process).
    fn size_bytes(&self) -> usize {
        0
    }

    /// The wire hop itself — the structure behind it is opaque.
    fn height(&self) -> usize {
        1
    }
}
