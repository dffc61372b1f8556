//! The admission-controlled TCP server.
//!
//! The shared [`FrontEnd`] accepts connections, serves each on its own
//! thread and triages every frame; this module supplies what answers an
//! admitted request: a write through the delta overlay, or a read against
//! one pinned [`server::Snapshot`] whose write sequence the reply carries.
//!
//! Admission control and the drain choreography are the front-end's.  On
//! shutdown (via [`NetHandle::shutdown`] or a wire `Shutdown` request)
//! connections stop admitting new work, in-flight requests run to
//! completion and their replies are written, and only then do the threads
//! exit; [`NetHandle::join`] (also run on drop) waits for all of it.

use crate::frontend::FrontEnd;
use crate::wire::{ErrorCode, Request, Response};
use crate::NetError;
use common::QueryContext;
use obs::Counter;
use server::SpatialServer;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point-in-time sample of the serving counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetStats {
    /// Connections accepted since start.
    pub connections: u64,
    /// Requests fully decoded (including ones later shed).
    pub requests: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests executed.  Each request is executed on its own — a batch of
    /// one — so this equals [`batched`](Self::batched); both stay only
    /// while the benchmark harness reads them.
    pub batches: u64,
    /// Requests executed; see [`batches`](Self::batches).
    pub batched: u64,
}

/// What answers an admitted request.
struct Core {
    spatial: Arc<SpatialServer>,
    executed: AtomicU64,
    /// `query.*` / `engine.*`: per-query statistics aggregated from each
    /// read's [`QueryContext`] — shard fan-out and visit/prune counters.
    blocks_touched: Counter,
    nodes_visited: Counter,
    candidates_scanned: Counter,
    shards_visited: Counter,
    shards_pruned: Counter,
}

impl Core {
    fn exec(&self, req: Request) -> Response {
        self.executed.fetch_add(1, Ordering::Relaxed);
        match req {
            Request::Insert(p) => Response::Written {
                seq: self.spatial.insert(p),
                removed: false,
            },
            Request::Delete(p) => {
                let (removed, seq) = self.spatial.delete(&p);
                Response::Written { seq, removed }
            }
            read => self.read(read),
        }
    }

    /// Answers a read against one pinned snapshot and adds its query
    /// statistics to the live counters.
    fn read(&self, req: Request) -> Response {
        let snap = self.spatial.snapshot();
        let seq = snap.seq();
        let mut cx = QueryContext::new();
        let resp = match req {
            Request::Point(p) => Response::Point {
                seq,
                hit: snap.point_query(&p, &mut cx),
            },
            Request::Window(w) => Response::Points {
                seq,
                points: snap.window_query(&w, &mut cx),
            },
            Request::Knn(p, k) => Response::Knn {
                seq,
                points: snap.knn_query(&p, k as usize, &mut cx),
            },
            Request::Range(p, radius) => Response::Points {
                seq,
                points: snap.range_query(&p, radius, &mut cx),
            },
            Request::JoinProbes(probes, radius) => {
                let mut pairs = Vec::new();
                snap.distance_join_probes(&probes, radius, &mut cx, &mut |a, b| {
                    pairs.push((*a, *b));
                });
                Response::Pairs { seq, pairs }
            }
            _ => Response::Error {
                code: ErrorCode::BadRequest,
                message: "control requests are answered inline".into(),
            },
        };
        let qstats = cx.take_stats();
        self.blocks_touched.add(qstats.blocks_touched);
        self.nodes_visited.add(qstats.nodes_visited);
        self.candidates_scanned.add(qstats.candidates_scanned);
        self.shards_visited.add(qstats.shards_visited);
        self.shards_pruned.add(qstats.shards_pruned);
        resp
    }
}

/// Running server: owns every thread the listener spawned.
///
/// Dropping the handle shuts the server down and joins all threads; call
/// [`NetHandle::shutdown`] + [`NetHandle::join`] to do it explicitly.
pub struct NetHandle {
    front: Arc<FrontEnd>,
    core: Arc<Core>,
}

impl NetHandle {
    /// The bound address (resolves the actual port when served on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Point-in-time serving counters.
    pub fn stats(&self) -> NetStats {
        let front = self.front.stats();
        let executed = self.core.executed.load(Ordering::Relaxed);
        NetStats {
            connections: front.connections,
            requests: front.requests,
            shed: front.shed,
            batches: executed,
            batched: executed,
        }
    }

    /// Whether a shutdown (local or via a wire `Shutdown` request) has
    /// begun.
    pub fn is_stopped(&self) -> bool {
        self.front.is_stopped()
    }

    /// Begins a graceful shutdown: stop accepting, refuse new requests,
    /// drain in-flight work.  Idempotent; returns without waiting — call
    /// [`NetHandle::join`] to wait for the drain.
    pub fn shutdown(&self) {
        self.front.begin_shutdown();
    }

    /// Waits for the full drain: the acceptor, then every connection
    /// thread once its in-flight reply is written.
    pub fn join(self) {
        self.front.join();
    }
}

impl Drop for NetHandle {
    fn drop(&mut self) {
        self.front.join();
    }
}

/// Binds `cfg.bind_addr` (use port 0 for an ephemeral port) and starts
/// serving `spatial` over the wire protocol; returns once the listener is
/// bound and accepting.  The compaction subset of `cfg` is not consulted
/// here: it belongs to whoever constructed the [`SpatialServer`] (see
/// `registry::serve_config`).
pub fn serve_config(
    spatial: Arc<SpatialServer>,
    cfg: &server::ServeConfig,
) -> Result<NetHandle, NetError> {
    let telemetry = Arc::clone(spatial.telemetry());
    let counter = |name| telemetry.metrics.counter(name);
    let core = Arc::new(Core {
        blocks_touched: counter("query.blocks_touched"),
        nodes_visited: counter("query.nodes_visited"),
        candidates_scanned: counter("query.candidates_scanned"),
        shards_visited: counter("engine.shards_visited"),
        shards_pruned: counter("engine.shards_pruned"),
        spatial,
        executed: AtomicU64::new(0),
    });
    let seq = {
        let core = Arc::clone(&core);
        move || core.spatial.snapshot().seq()
    };
    let exec = {
        let core = Arc::clone(&core);
        move |req| core.exec(req)
    };
    let front = FrontEnd::serve(cfg, Arc::clone(&telemetry), seq, exec)?;
    Ok(NetHandle { front, core })
}
