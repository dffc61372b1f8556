//! The admission-controlled TCP server.
//!
//! Topology: the shared [`FrontEnd`] accepts connections (acceptor pool,
//! thread-per-core by default) and triages every frame; each connection
//! gets a reader thread and a writer thread.  Readers push admitted
//! requests onto one global job queue; a worker pool drains that queue in
//! micro-batches, pins **one** [`server::Snapshot`] per batch, and answers
//! every read in the batch through the snapshot's batch entry points
//! (`point_queries` / `window_queries` / `knn_queries` / `range_queries`).
//! Responses are routed back to each connection's ordered outbox, so a
//! pipelining client always receives responses in request order.
//!
//! Admission control and the drain choreography are the front-end's.  On
//! shutdown (via [`NetHandle::shutdown`] or a wire `Shutdown` request)
//! readers stop admitting new work, in-flight batches run to completion
//! and their responses are flushed, and only then do the threads exit;
//! [`NetHandle::join`] (also run on drop) collects the workers last.

use crate::admission::ConnSlots;
use crate::frontend::{FrontEnd, Triage};
use crate::wire::{self, ErrorCode, Request, Response};
use crate::NetError;
use common::QueryContext;
use geom::Point;
use obs::{Counter, Gauge, Histogram, Telemetry};
use server::SpatialServer;
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A point-in-time sample of the serving counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetStats {
    /// Connections accepted since start.
    pub connections: u64,
    /// Requests fully decoded (including ones later shed).
    pub requests: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Requests answered through micro-batches (`batched / batches` is the
    /// mean coalescing factor).
    pub batched: u64,
}

/// Telemetry handles of the queue → worker → outbox path; the per-request
/// `net.*` handles live in the [`FrontEnd`].
struct WorkerMetrics {
    /// `net.queue_depth`: jobs waiting in the global batch queue.
    queue_depth: Gauge,
    /// `net.outbox_depth`: per-connection ready-response backlog, sampled
    /// at every worker delivery.
    outbox_depth: Histogram,
    /// `query.*` / `engine.*`: per-query statistics aggregated from each
    /// batch's [`QueryContext`] — shard fan-out and visit/prune counters.
    blocks_touched: Counter,
    nodes_visited: Counter,
    candidates_scanned: Counter,
    shards_visited: Counter,
    shards_pruned: Counter,
}

impl WorkerMetrics {
    fn register(t: &Telemetry) -> Self {
        Self {
            queue_depth: t.metrics.gauge("net.queue_depth"),
            outbox_depth: t.metrics.histogram("net.outbox_depth"),
            blocks_touched: t.metrics.counter("query.blocks_touched"),
            nodes_visited: t.metrics.counter("query.nodes_visited"),
            candidates_scanned: t.metrics.counter("query.candidates_scanned"),
            shards_visited: t.metrics.counter("engine.shards_visited"),
            shards_pruned: t.metrics.counter("engine.shards_pruned"),
        }
    }
}

/// One admitted request travelling from a reader to a worker.
struct Job {
    req: Request,
    conn: Arc<ConnShared>,
    order: u64,
    /// Decode time, for the delivered-latency histogram.
    t0: Instant,
    /// Index into [`crate::REQUEST_CLASSES`].
    class: usize,
}

/// Per-connection response routing: responses may be produced out of order
/// by concurrent workers, the writer emits them in request order.
struct Outbox {
    ready: BTreeMap<u64, Response>,
    /// Next order number the writer will emit.
    next_write: u64,
    /// Total order numbers issued by the reader.
    issued: u64,
    /// Reader finished (EOF, protocol error, or shutdown).
    closed: bool,
    /// Writer gave up (peer disconnected mid-response); responses are
    /// dropped from here on.
    dead: bool,
}

struct ConnShared {
    outbox: Mutex<Outbox>,
    cv: Condvar,
    slots: ConnSlots,
}

impl ConnShared {
    fn new() -> Self {
        Self {
            outbox: Mutex::new(Outbox {
                ready: BTreeMap::new(),
                next_write: 0,
                issued: 0,
                closed: false,
                dead: false,
            }),
            cv: Condvar::new(),
            slots: ConnSlots::default(),
        }
    }

    /// Queues `resp` as the response to order number `order` and wakes the
    /// writer.  Never blocks (workers must not stall on a slow peer): if
    /// the writer is dead the response is dropped.  Returns the ready
    /// backlog after the insert, for the outbox-depth telemetry.
    fn deliver(&self, order: u64, resp: Response) -> usize {
        let mut st = self.outbox.lock().unwrap();
        let depth = if !st.dead {
            st.ready.insert(order, resp);
            st.ready.len()
        } else {
            // The writer is gone; advance its cursor so bookkeeping stays
            // consistent for the drain accounting.
            if order == st.next_write {
                st.next_write += 1;
            }
            0
        };
        drop(st);
        self.cv.notify_all();
        depth
    }
}

struct Core {
    front: Arc<FrontEnd>,
    spatial: Arc<SpatialServer>,
    /// Maximum requests coalesced into one micro-batch (one pinned
    /// snapshot).
    batch_max: usize,
    /// Cap on a connection's ready-response backlog; see `connection_loop`.
    outbox_cap: usize,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    batches: AtomicU64,
    batched: AtomicU64,
    metrics: WorkerMetrics,
}

/// Running server: owns every thread the listener spawned.
///
/// Dropping the handle shuts the server down and joins all threads; call
/// [`NetHandle::shutdown`] + [`NetHandle::join`] to do it explicitly.
pub struct NetHandle {
    core: Arc<Core>,
    workers: Vec<JoinHandle<()>>,
}

impl NetHandle {
    /// The bound address (resolves the actual port when served on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.core.front.local_addr()
    }

    /// Point-in-time serving counters.
    pub fn stats(&self) -> NetStats {
        let front = self.core.front.stats();
        NetStats {
            connections: front.connections,
            requests: front.requests,
            shed: front.shed,
            batches: self.core.batches.load(Ordering::Relaxed),
            batched: self.core.batched.load(Ordering::Relaxed),
        }
    }

    /// Whether a shutdown (local or via a wire `Shutdown` request) has
    /// begun.
    pub fn is_stopped(&self) -> bool {
        self.core.front.is_stopped()
    }

    /// Begins a graceful shutdown: stop accepting, refuse new requests,
    /// drain in-flight work.  Idempotent; returns without waiting — call
    /// [`NetHandle::join`] to wait for the drain.
    pub fn shutdown(&self) {
        self.core.front.begin_shutdown();
    }

    /// Waits for the full drain: acceptors, per-connection readers and
    /// writers (in-flight responses are flushed first), then workers.
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        self.core.front.join();
        // No reader is left to enqueue jobs; workers drain what remains
        // and exit on the (stop, empty-queue) condition.
        self.core.queue_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for NetHandle {
    fn drop(&mut self) {
        self.join_inner();
    }
}

/// Binds `cfg.bind_addr` (use port 0 for an ephemeral port) and starts
/// serving `spatial` over the wire protocol; returns once the listener is
/// bound and the pools are running.  The compaction subset of `cfg` is not
/// consulted here: it belongs to whoever constructed the [`SpatialServer`]
/// (see `registry::serve_config`).
pub fn serve_config(
    spatial: Arc<SpatialServer>,
    cfg: &server::ServeConfig,
) -> Result<NetHandle, NetError> {
    let telemetry = Arc::clone(spatial.telemetry());
    let metrics = WorkerMetrics::register(&telemetry);
    let (front, listener) = FrontEnd::bind(cfg, telemetry)?;
    let core = Arc::new(Core {
        front: Arc::clone(&front),
        spatial,
        batch_max: cfg.batch_max.max(1),
        outbox_cap: cfg.per_conn_inflight + 64,
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        batches: AtomicU64::new(0),
        batched: AtomicU64::new(0),
        metrics,
    });
    let workers = (0..cfg.workers.max(1))
        .map(|_| {
            let core = Arc::clone(&core);
            std::thread::spawn(move || worker_loop(&core))
        })
        .collect();
    let handle = NetHandle { core, workers };
    let core = Arc::clone(&handle.core);
    front.start(listener, move |stream| connection_loop(&core, stream))?;
    Ok(handle)
}

/// Reader half of one connection: triage, enqueue what was admitted;
/// spawns and finally joins the connection's writer thread.
fn connection_loop(core: &Arc<Core>, mut stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(ConnShared::new());
    let writer = {
        let conn = Arc::clone(&conn);
        std::thread::spawn(move || writer_loop(&conn, write_half))
    };
    let mut order: u64 = 0;
    // Clean EOF between frames (client done, or our read half was shut
    // down by the drain) stops the reader; so does framing broken
    // mid-stream (client disconnected mid-request, or garbage), where
    // resynchronisation is impossible.  In-flight responses still flush
    // below.
    while let Ok(Some(payload)) = wire::read_frame(&mut stream) {
        let t0 = Instant::now();
        let seq = || core.spatial.snapshot().seq();
        match core.front.triage(&payload, &conn.slots, seq) {
            Triage::Reply(resp) => {
                // Backpressure for reader-issued responses (errors,
                // pongs): a peer that sends requests but never reads
                // responses would otherwise grow the outbox unboundedly.
                // Admitted jobs are already bounded by the admission
                // window.
                let mut st = conn.outbox.lock().unwrap();
                while st.ready.len() >= core.outbox_cap && !st.dead {
                    st = conn.cv.wait(st).unwrap();
                }
                st.issued += 1;
                drop(st);
                conn.deliver(order, resp);
            }
            Triage::Admitted { req, class } => {
                conn.outbox.lock().unwrap().issued += 1;
                let mut q = core.queue.lock().unwrap();
                q.push_back(Job {
                    req,
                    conn: Arc::clone(&conn),
                    order,
                    t0,
                    class,
                });
                core.metrics.queue_depth.set(q.len() as i64);
                drop(q);
                core.queue_cv.notify_one();
            }
        }
        order += 1;
    }
    // Drain contract: mark the outbox closed so the writer exits once
    // every issued response has been flushed, then wait for it.
    conn.outbox.lock().unwrap().closed = true;
    conn.cv.notify_all();
    let _ = writer.join();
}

/// Writer half of one connection: emits responses strictly in request
/// order, exits when the reader has closed and everything issued has been
/// flushed (or the peer is gone).
fn writer_loop(conn: &Arc<ConnShared>, mut stream: TcpStream) {
    loop {
        let resp = {
            let mut st = conn.outbox.lock().unwrap();
            loop {
                let next = st.next_write;
                if let Some(r) = st.ready.remove(&next) {
                    st.next_write += 1;
                    break r;
                }
                if st.dead || (st.closed && st.next_write >= st.issued) {
                    return;
                }
                st = conn.cv.wait(st).unwrap();
            }
        };
        // A pop freed outbox space; wake any reader blocked on the
        // backpressure cap.
        conn.cv.notify_all();
        if wire::write_frame(&mut stream, &resp.encode()).is_err() {
            // Peer disconnected mid-response; drop the rest.
            let mut st = conn.outbox.lock().unwrap();
            st.dead = true;
            st.ready.clear();
            drop(st);
            conn.cv.notify_all();
            return;
        }
    }
}

fn worker_loop(core: &Arc<Core>) {
    loop {
        let batch: Vec<Job> = {
            let mut q = core.queue.lock().unwrap();
            loop {
                if !q.is_empty() {
                    let n = q.len().min(core.batch_max);
                    let batch: Vec<Job> = q.drain(..n).collect();
                    core.metrics.queue_depth.set(q.len() as i64);
                    break batch;
                }
                if core.front.is_stopped() {
                    return;
                }
                let (guard, _) = core
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap();
                q = guard;
            }
        };
        execute_batch(core, &batch);
    }
}

/// Runs one micro-batch: one pinned snapshot, reads grouped per class
/// through the snapshot's batch entry points, writes applied in queue
/// order through the delta overlay.
fn execute_batch(core: &Arc<Core>, jobs: &[Job]) {
    core.batches.fetch_add(1, Ordering::Relaxed);
    core.batched.fetch_add(jobs.len() as u64, Ordering::Relaxed);
    let snap = core.spatial.snapshot();
    let seq = snap.seq();
    let mut cx = QueryContext::new();
    let mut responses: Vec<Option<Response>> = (0..jobs.len()).map(|_| None).collect();
    let mut points: Vec<(usize, Point)> = Vec::new();
    let mut windows: Vec<(usize, geom::Rect)> = Vec::new();
    let mut knns: BTreeMap<u32, Vec<(usize, Point)>> = BTreeMap::new();
    let mut ranges: BTreeMap<u64, Vec<(usize, Point)>> = BTreeMap::new();
    for (i, job) in jobs.iter().enumerate() {
        match &job.req {
            Request::Point(p) => points.push((i, *p)),
            Request::Window(w) => windows.push((i, *w)),
            Request::Knn(p, k) => knns.entry(*k).or_default().push((i, *p)),
            Request::Range(p, radius) => ranges.entry(radius.to_bits()).or_default().push((i, *p)),
            Request::JoinProbes(probes, radius) => {
                let mut pairs = Vec::new();
                snap.distance_join_probes(probes, *radius, &mut cx, &mut |a, b| {
                    pairs.push((*a, *b));
                });
                responses[i] = Some(Response::Pairs { seq, pairs });
            }
            Request::Insert(p) => {
                let wseq = core.spatial.insert(*p);
                responses[i] = Some(Response::Written {
                    seq: wseq,
                    removed: false,
                });
            }
            Request::Delete(p) => {
                let (removed, wseq) = core.spatial.delete(p);
                responses[i] = Some(Response::Written { seq: wseq, removed });
            }
            // Answered inline by the front-end's triage; never enqueued.
            Request::Ping | Request::Shutdown | Request::Stats | Request::Events { .. } => {}
        }
    }
    let qs: Vec<Point> = points.iter().map(|(_, p)| *p).collect();
    for ((i, _), hit) in points.iter().zip(snap.point_queries(&qs, &mut cx)) {
        responses[*i] = Some(Response::Point { seq, hit });
    }
    let ws: Vec<geom::Rect> = windows.iter().map(|(_, w)| *w).collect();
    for ((i, _), result) in windows.iter().zip(snap.window_queries(&ws, &mut cx)) {
        responses[*i] = Some(Response::Points {
            seq,
            points: result,
        });
    }
    for (k, group) in &knns {
        let qs: Vec<Point> = group.iter().map(|(_, p)| *p).collect();
        for ((i, _), result) in group
            .iter()
            .zip(snap.knn_queries(&qs, *k as usize, &mut cx))
        {
            responses[*i] = Some(Response::Knn {
                seq,
                points: result,
            });
        }
    }
    for (radius_bits, group) in &ranges {
        let radius = f64::from_bits(*radius_bits);
        let qs: Vec<Point> = group.iter().map(|(_, p)| *p).collect();
        for ((i, _), result) in group.iter().zip(snap.range_queries(&qs, radius, &mut cx)) {
            responses[*i] = Some(Response::Points {
                seq,
                points: result,
            });
        }
    }
    // Aggregate the batch's per-query statistics into the live counters:
    // block/node/candidate work from every index layer, shard fan-out and
    // pruning from the engine's sharded executor.
    let qstats = cx.take_stats();
    core.metrics.blocks_touched.add(qstats.blocks_touched);
    core.metrics.nodes_visited.add(qstats.nodes_visited);
    core.metrics
        .candidates_scanned
        .add(qstats.candidates_scanned);
    core.metrics.shards_visited.add(qstats.shards_visited);
    core.metrics.shards_pruned.add(qstats.shards_pruned);
    for (job, resp) in jobs.iter().zip(responses) {
        let resp = resp.unwrap_or(Response::Error {
            code: ErrorCode::BadRequest,
            message: "request class not answerable".into(),
        });
        // Count before delivering: a closed-loop client that sees this
        // response and immediately scrapes STATS must find it reflected.
        core.front.complete(job.class, job.t0);
        let depth = job.conn.deliver(job.order, resp);
        core.metrics.outbox_depth.record(depth as u64);
        core.front.release(&job.conn.slots);
    }
}
