//! The listener front-end shared by the single-process serving loop
//! ([`crate::serve_config`]) and the distributed router (`crates/router`).
//!
//! A [`FrontEnd`] owns everything about serving the wire protocol that does
//! not depend on *what* answers a request: the acceptor and the connection
//! registry, the per-connection loop, the stop flag and the drain
//! choreography, admission control, the `net.*` telemetry, and the
//! per-request triage.  Every connection is served on its own thread: read
//! a frame, triage it, execute an admitted request, write the reply, so
//! replies leave in request order and a connection reads its own writes.
//! The caller supplies only what answers a request: the write sequence
//! control replies report, and the executor of an admitted request.

use crate::admission::AdmissionGate;
use crate::wait::{wait_for_frame, Waited};
use crate::wire::{self, ErrorCode, Request, Response};
use crate::NetError;
use geom::Point;
use obs::{Counter, EventKind, Gauge, Histogram, Telemetry};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound accepted for a kNN `k` — far above any workload in the
/// paper (max 625), low enough that a hostile `k` cannot drive a
/// pathological allocation.
pub const MAX_KNN_K: u32 = 65_536;

/// The request classes tracked per-class by telemetry, in tag order.  The
/// labels match the load generator's class names
/// (`crates/bench/src/netload.rs`), so a scraped `net.requests.<class>`
/// counter reconciles directly against client-side per-class counts.
pub const REQUEST_CLASSES: [&str; 7] = [
    "point",
    "window",
    "knn",
    "range",
    "join-probe",
    "insert",
    "delete",
];

/// Index into [`REQUEST_CLASSES`]; `None` for the control messages.
fn class_index(req: &Request) -> Option<usize> {
    match req {
        Request::Point(_) => Some(0),
        Request::Window(_) => Some(1),
        Request::Knn(..) => Some(2),
        Request::Range(..) => Some(3),
        Request::JoinProbes(..) => Some(4),
        Request::Insert(_) => Some(5),
        Request::Delete(_) => Some(6),
        Request::Ping | Request::Shutdown | Request::Stats | Request::Events { .. } => None,
    }
}

/// Semantic validation of a decoded request; framing-level corruption is
/// already excluded by the frame CRC and the decoder.  Every coordinate a
/// request carries must be finite: a NaN has no place in any index's order
/// (a learned model cannot route it), and a point stored with one could
/// never be found again.
fn validate(req: &Request) -> Result<(), String> {
    let finite = |p: &Point| p.x.is_finite() && p.y.is_finite();
    match req {
        Request::Knn(_, k) if *k > MAX_KNN_K => {
            Err(format!("k {k} exceeds the cap of {MAX_KNN_K}"))
        }
        Request::Range(_, radius) | Request::JoinProbes(_, radius)
            if !radius.is_finite() || *radius < 0.0 =>
        {
            Err(format!(
                "radius {radius} is not a finite non-negative value"
            ))
        }
        Request::Point(p)
        | Request::Knn(p, _)
        | Request::Range(p, _)
        | Request::Insert(p)
        | Request::Delete(p)
            if !finite(p) =>
        {
            Err(format!("point ({}, {}) is not finite", p.x, p.y))
        }
        Request::Window(w)
            if ![w.min_x, w.min_y, w.max_x, w.max_y]
                .iter()
                .all(|v| v.is_finite()) =>
        {
            Err(format!("window {w:?} is not finite"))
        }
        Request::JoinProbes(probes, _) if !probes.iter().all(finite) => {
            Err("a join probe is not finite".to_string())
        }
        _ => Ok(()),
    }
}

/// A point-in-time sample of a front-end's serving counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontStats {
    /// Connections accepted since start.
    pub connections: u64,
    /// Requests fully decoded (including ones later shed).
    pub requests: u64,
    /// Requests shed (by admission control, or by the executor).
    pub shed: u64,
}

#[derive(Default)]
struct StatCounters {
    connections: AtomicU64,
    requests: AtomicU64,
    shed: AtomicU64,
}

/// Pre-registered telemetry handles for the serving hot paths.  Recording
/// through these is a handful of relaxed atomic ops per request; nothing
/// here takes a lock after registration, which is how the wire latency
/// bounds of `BENCHMARK.json` hold with telemetry always-on.
struct FrontMetrics {
    /// `net.requests.<class>`: responses delivered successfully, per class.
    completed: [Counter; 7],
    /// `net.shed.<class>`: requests refused with `OVERLOAD`, per class.
    shed: [Counter; 7],
    /// `net.latency_us.<class>`: decode-to-delivery latency, microseconds.
    latency: [Histogram; 7],
    /// `net.bad_request`: frames that decoded but failed validation (plus
    /// undecodable payloads on an intact stream).
    bad_request: Counter,
    /// `net.exec_panics`: admitted requests whose executor panicked.
    exec_panics: Counter,
    /// `net.connections_open` / `net.connections_total`.
    connections_open: Gauge,
    connections_total: Counter,
    /// `net.reads_blocked`: frames whose wait ended in a blocking read,
    /// because the spin budget ran out or every spin slot was taken.
    reads_blocked: Counter,
}

impl FrontMetrics {
    fn register(t: &Telemetry) -> Self {
        let per_class = |kind: &str, i: usize| format!("net.{kind}.{}", REQUEST_CLASSES[i]);
        Self {
            completed: std::array::from_fn(|i| t.metrics.counter(&per_class("requests", i))),
            shed: std::array::from_fn(|i| t.metrics.counter(&per_class("shed", i))),
            latency: std::array::from_fn(|i| t.metrics.histogram(&per_class("latency_us", i))),
            bad_request: t.metrics.counter("net.bad_request"),
            exec_panics: t.metrics.counter("net.exec_panics"),
            connections_open: t.metrics.gauge("net.connections_open"),
            connections_total: t.metrics.counter("net.connections_total"),
            reads_blocked: t.metrics.counter("net.reads_blocked"),
        }
    }
}

/// The executor of an admitted request.
type Exec = dyn Fn(Request) -> Response + Send + Sync;

/// What answers a request: the write sequence control replies report, and
/// the executor of an admitted request.
struct Service {
    seq: Box<dyn Fn() -> u64 + Send + Sync>,
    exec: Box<Exec>,
}

/// An admitted request's admission token, returned when dropped: also
/// when its executor unwinds.
struct Token<'a>(&'a AdmissionGate);

impl Drop for Token<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// What [`FrontEnd::triage`] made of one frame.
enum Triage {
    /// Answered (or refused) on the spot; send this and move on.
    Reply(Response),
    /// Admitted: execute it, then return its admission token.
    Admitted {
        /// The decoded, validated request.
        req: Request,
        /// Its index into [`REQUEST_CLASSES`].
        class: usize,
    },
}

/// The shared listener front-end; see the module docs.
pub struct FrontEnd {
    addr: SocketAddr,
    stop: AtomicBool,
    admission: AdmissionGate,
    stats: StatCounters,
    next_conn_id: AtomicU64,
    /// Read-half handles of live connections, poked on shutdown so blocked
    /// readers wake immediately.
    conn_streams: Mutex<HashMap<u64, TcpStream>>,
    acceptor: Mutex<Option<JoinHandle<()>>>,
    /// Connection thread handles, joined at shutdown (finished ones are
    /// swept opportunistically on accept).
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    telemetry: Arc<Telemetry>,
    metrics: FrontMetrics,
    /// Journal timestamp (µs) of the last `OverloadShed` event, for
    /// rate-limiting: shed storms must not evict the compaction events a
    /// bounded journal retains (the exact shed totals are in counters).
    last_shed_event_us: AtomicU64,
}

impl FrontEnd {
    /// Binds `cfg.bind_addr` (port 0 = ephemeral), registers the `net.*`
    /// metrics on `telemetry` and starts accepting.  Every accepted
    /// connection gets its own thread, which answers control messages with
    /// the sequence number `seq` reports and every admitted request with
    /// `exec`.  An `exec` reply of `Error { code: Overload, .. }` counts as
    /// a shed, any other error as neither shed nor completed.  An `exec`
    /// that panics is answered with `Error { code: Internal, .. }`.
    pub fn serve(
        cfg: &server::ServeConfig,
        telemetry: Arc<Telemetry>,
        seq: impl Fn() -> u64 + Send + Sync + 'static,
        exec: impl Fn(Request) -> Response + Send + Sync + 'static,
    ) -> Result<Arc<Self>, NetError> {
        let listener = TcpListener::bind(&cfg.bind_addr)?;
        let front = Arc::new(Self {
            addr: listener.local_addr()?,
            stop: AtomicBool::new(false),
            admission: AdmissionGate::new(
                cfg.global_inflight,
                telemetry.metrics.gauge("net.inflight"),
            ),
            stats: StatCounters::default(),
            next_conn_id: AtomicU64::new(0),
            conn_streams: Mutex::new(HashMap::new()),
            acceptor: Mutex::new(None),
            conn_threads: Mutex::new(Vec::new()),
            metrics: FrontMetrics::register(&telemetry),
            telemetry,
            last_shed_event_us: AtomicU64::new(0),
        });
        let service = Arc::new(Service {
            seq: Box::new(seq),
            exec: Box::new(exec),
        });
        let acceptor = {
            let front = Arc::clone(&front);
            std::thread::spawn(move || front.acceptor_loop(&listener, &service))
        };
        *front.acceptor.lock().unwrap() = Some(acceptor);
        Ok(front)
    }

    fn acceptor_loop(self: &Arc<Self>, listener: &TcpListener, service: &Arc<Service>) {
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) if self.is_stopped() => return,
                Err(_) => continue,
            };
            if self.is_stopped() {
                // Either the shutdown poke or a client racing the drain;
                // refusing new connections is the drain contract.
                return;
            }
            self.stats.connections.fetch_add(1, Ordering::Relaxed);
            self.metrics.connections_total.inc();
            let _ = stream.set_nodelay(true);
            // A peer that stops reading must not pin its connection thread
            // forever (it would stall the drain at shutdown); a stuck send
            // errors out and the connection is dropped.
            let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
            let id = self.next_conn_id.fetch_add(1, Ordering::Relaxed);
            let Ok(read_poke) = stream.try_clone() else {
                continue;
            };
            self.conn_streams.lock().unwrap().insert(id, read_poke);
            let (front, service) = (Arc::clone(self), Arc::clone(service));
            let handle = std::thread::spawn(move || front.run_connection(id, stream, &service));
            let mut threads = self.conn_threads.lock().unwrap();
            threads.retain(|h| !h.is_finished());
            threads.push(handle);
            drop(threads);
            // A connection accepted in the race window right before the stop
            // flag was set would miss the poke sweep; re-check so its read
            // half is shut down too.
            if self.is_stopped() {
                if let Some(s) = self.conn_streams.lock().unwrap().get(&id) {
                    let _ = s.shutdown(Shutdown::Read);
                }
                return;
            }
        }
    }

    fn run_connection(&self, id: u64, stream: TcpStream, service: &Service) {
        self.metrics.connections_open.add(1);
        self.telemetry
            .journal
            .record(EventKind::ConnOpen { conn: id });
        self.connection_loop(stream, service);
        self.conn_streams.lock().unwrap().remove(&id);
        self.metrics.connections_open.add(-1);
        self.telemetry
            .journal
            .record(EventKind::ConnClose { conn: id });
    }

    /// One connection, one request at a time: a request is answered and
    /// its reply written before the next frame is read.  Before each frame
    /// the loop waits the way [`NetClient::recv`](crate::NetClient::recv)
    /// does: it polls the socket for up to 100 µs, then blocks, and a frame
    /// whose wait ended blocked counts in `net.reads_blocked`.  Frames are
    /// read through a buffer, so a small frame takes one `read` call, not
    /// three (header, payload, CRC); replies are written to the stream
    /// itself.
    fn connection_loop(&self, stream: TcpStream, service: &Service) {
        let mut conn = BufReader::new(stream);
        // Clean EOF between frames (client done, or our read half was shut
        // down by the drain) ends the loop; so does framing broken
        // mid-stream (client disconnected mid-request, or garbage), where
        // resynchronisation is impossible, and a socket error seen while
        // waiting.
        while let Ok(waited) = wait_for_frame(&mut conn) {
            let Ok(Some(payload)) = wire::read_frame(&mut conn) else {
                break;
            };
            if waited == Waited::Blocked {
                self.metrics.reads_blocked.inc();
            }
            let t0 = Instant::now();
            let resp = match self.triage(&payload, &service.seq) {
                Triage::Reply(resp) => resp,
                Triage::Admitted { req, class } => {
                    let resp = self.execute(req, class, &service.exec);
                    // Count before writing: a closed-loop client that sees
                    // this reply and immediately scrapes `Stats` must find
                    // it reflected.
                    match &resp {
                        Response::Error {
                            code: ErrorCode::Overload,
                            ..
                        } => self.note_shed(class),
                        Response::Error { .. } => {}
                        _ => self.complete(class, t0),
                    }
                    resp
                }
            };
            if wire::write_frame(conn.get_mut(), &resp.encode()).is_err() {
                break;
            }
        }
    }

    /// Runs an admitted request and returns its admission token, however
    /// the executor ends.  An executor that panics is answered with
    /// [`ErrorCode::Internal`], counted in `net.exec_panics` and journaled
    /// as an `ExecPanic` of its `class`, and the connection keeps serving.
    fn execute(&self, req: Request, class: usize, exec: &Exec) -> Response {
        let _token = Token(&self.admission);
        std::panic::catch_unwind(AssertUnwindSafe(|| exec(req))).unwrap_or_else(|panic| {
            self.metrics.exec_panics.inc();
            self.telemetry.journal.record(EventKind::ExecPanic {
                class: class as u64,
            });
            let what = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("a non-string payload");
            Response::Error {
                code: ErrorCode::Internal,
                message: format!("the request's executor panicked: {what}"),
            }
        })
    }

    /// Sorts one received frame: decodes it, answers control messages
    /// inline with the sequence number `seq` reports, and refuses, sheds or
    /// admits everything else.
    ///
    /// Telemetry scrapes are answered like `Ping` and bypass admission
    /// control: an overloaded (or draining) server must still be observable
    /// — that is the point of the telemetry.
    fn triage(&self, payload: &[u8], seq: impl FnOnce() -> u64) -> Triage {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        let refuse = |code, message: String| Triage::Reply(Response::Error { code, message });
        let req = match Request::decode(payload) {
            Ok(req) => req,
            Err(e) => {
                // The frame passed its CRC, so framing is intact and the
                // stream can continue; only this message is refused.
                self.metrics.bad_request.inc();
                return refuse(ErrorCode::BadRequest, e.to_string());
            }
        };
        let Some(class) = class_index(&req) else {
            return Triage::Reply(match req {
                Request::Stats => Response::Stats {
                    seq: seq(),
                    metrics: self.telemetry.metrics.snapshot(),
                },
                Request::Events { since } => Response::Events {
                    seq: seq(),
                    events: self.telemetry.journal.since(since),
                },
                Request::Shutdown => {
                    // Flip the stop flag BEFORE acknowledging: a client
                    // that received the ack must observe the server as
                    // stopped.  The ack is still written — shutdown only
                    // closes the read halves.
                    self.begin_shutdown();
                    Response::Pong { seq: seq() }
                }
                _ => Response::Pong { seq: seq() },
            });
        };
        if self.is_stopped() {
            refuse(ErrorCode::ShuttingDown, "server is draining".into())
        } else if let Err(msg) = validate(&req) {
            self.metrics.bad_request.inc();
            refuse(ErrorCode::BadRequest, msg)
        } else if !self.admission.try_admit() {
            self.note_shed(class);
            refuse(ErrorCode::Overload, "in-flight queue full".into())
        } else {
            Triage::Admitted { req, class }
        }
    }

    /// Counts one successfully answered request of `class`, decoded at
    /// `t0`.
    fn complete(&self, class: usize, t0: Instant) {
        self.metrics.completed[class].inc();
        self.metrics.latency[class].record(t0.elapsed().as_micros() as u64);
    }

    /// Counts one shed and journals an `OverloadShed` event, rate-limited
    /// to one per second so a shed storm cannot evict rarer lifecycle
    /// events from the bounded journal.
    fn note_shed(&self, class: usize) {
        self.stats.shed.fetch_add(1, Ordering::Relaxed);
        self.metrics.shed[class].inc();
        let now_us = self.telemetry.journal.uptime_us();
        let last = self.last_shed_event_us.load(Ordering::Relaxed);
        if now_us.saturating_sub(last) >= 1_000_000
            && self
                .last_shed_event_us
                .compare_exchange(last, now_us, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.telemetry.journal.record(EventKind::OverloadShed {
                shed_total: self.stats.shed.load(Ordering::Relaxed),
            });
        }
    }

    /// The bound address (resolves the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time serving counters.
    pub fn stats(&self) -> FrontStats {
        FrontStats {
            connections: self.stats.connections.load(Ordering::Relaxed),
            requests: self.stats.requests.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
        }
    }

    /// The telemetry sink the `net.*` metrics live in.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Whether a shutdown (local or via a wire `Shutdown` request) has
    /// begun.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Sets the stop flag and unblocks everything that might be waiting on
    /// a socket: the acceptor gets a poke connection, connection readers
    /// get their read half shut down.  In-flight requests keep running and
    /// their replies are written.
    pub fn begin_shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.telemetry.journal.record(EventKind::Shutdown {
            uptime_us: self.telemetry.journal.uptime_us(),
            drained: self.admission.inflight(),
        });
        // A throwaway connection unblocks the blocked accept(); the
        // acceptor sees the stop flag and exits.
        let _ = TcpStream::connect(self.addr);
        for stream in self.conn_streams.lock().unwrap().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }

    /// Begins the shutdown if nobody has, then waits until the acceptor
    /// and every connection thread have returned.
    pub fn join(&self) {
        self.begin_shutdown();
        if let Some(h) = self.acceptor.lock().unwrap().take() {
            let _ = h.join();
        }
        // Connections registered concurrently with begin_shutdown's poke
        // sweep get their read half shut down here instead.
        let streams: Vec<_> = self.conn_streams.lock().unwrap().drain().collect();
        for (_, s) in &streams {
            let _ = s.shutdown(Shutdown::Read);
        }
        let conn_threads: Vec<_> = self.conn_threads.lock().unwrap().drain(..).collect();
        for h in conn_threads {
            let _ = h.join();
        }
    }
}
