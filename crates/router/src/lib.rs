//! Multi-process distributed serving: a router that plans queries over
//! shard server processes using only a sharded snapshot's routing
//! metadata.
//!
//! The router loads an [`engine::ShardManifest`] — the frozen
//! [`Partitioner`] plus each shard's MBR and key range — and never touches
//! any shard's data.  Each shard's points are served by one or more
//! independent shard server processes (the ordinary `net` serving loop over
//! that shard's extracted snapshot, see `registry::load_shard_snapshot`),
//! and the router speaks the same wire protocol on both sides: clients
//! connect to it exactly as they would to a single-process server, and it
//! connects to shard servers as an ordinary [`NetClient`].
//!
//! Query planning is [`engine::plan`] — the same code
//! [`engine::ShardedIndex`] runs in-process — so a router in front of N
//! shard processes returns byte-identical answers, with identical
//! `shards_visited` / `shards_pruned` counts, to the single-process sharded
//! index built from the same snapshot.  The router only supplies the
//! executor: where the engine calls a shard's inner index, it calls the
//! shard's replica set over the wire and turns an unreachable shard into a
//! typed refusal.  Likewise the listener — acceptor, one thread per
//! connection, admission, drain, control messages, `net.*` telemetry — is
//! [`net::FrontEnd`], the one the single-process serving loop uses; the
//! router hands it `exec` and its write sequence.  What is left here is
//! what is actually distributed: the scatter of multi-shard reads, replica
//! choice and failover, write fan-out, the router-level write sequence,
//! and shutdown propagation.
//!
//! Window, range and join reads **scatter, then gather**: the request goes
//! out to every planned shard before any reply is read, all on the client
//! connection's own thread; kNN asks its two nearest shards together.  The
//! pooled connections a scatter holds are taken in ascending shard order,
//! and none goes back to the pool with its reply unread.
//!
//! Each shard may be served by N **replicas**.  Reads round-robin across
//! live replicas and fail over on connection errors (a killed replica
//! degrades read capacity, never correctness); writes fan out to every
//! live replica under a router-level write gate, so replica states stay
//! identical (the spatial server sequences every write, including
//! delete-misses).  A replica that fails a write is taken out of rotation
//! rather than allowed to diverge.
//!
//! Telemetry: the front-end's `net.*` metrics (so `net-load
//! --verify-stats` and `net-stats` work against a router unmodified), plus
//! `router.shards_visited` / `router.shards_pruned` (the planner's
//! fan-out accounting), `router.replica_failovers`, and a
//! `router.upstream_us.shard<i>` send → reply histogram per shard.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use engine::partition::Partitioner;
use engine::plan::{self, Fanout, ShardError, ShardView};
use engine::ShardManifest;
use geom::{Point, Rect};
use net::{ErrorCode, FrontEnd, NetClient, NetError, Request, Response};
use obs::{Counter, EventKind, Histogram, Telemetry};
use std::convert::Infallible;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::{Duration, Instant};

/// How long the router keeps retrying each shard's first reachable replica
/// at startup (shard servers may still be binding their listeners).
const STARTUP_CONNECT_DEADLINE: Duration = Duration::from_secs(10);

/// A point-in-time sample of the router's serving counters (`shed` also
/// counts requests refused because a shard had no live replicas).
pub use net::FrontStats as RouterStats;

/// Whether an upstream error means the connection (or replica) is unusable,
/// as opposed to a semantic refusal the router should relay.  Overload,
/// drain, remote refusals and executor failures travel back to the client
/// (the shard answered, and its connection keeps serving); everything
/// else — socket errors, truncation, framing corruption — is grounds for
/// failover.
fn is_conn_error(e: &NetError) -> bool {
    !matches!(
        e,
        NetError::Overload | NetError::ShuttingDown | NetError::Remote(_) | NetError::Internal(_)
    )
}

/// One upstream connection to a shard server process.
struct Replica {
    addr: String,
    /// Pooled connection, created lazily and dropped on failure.
    client: Mutex<Option<NetClient>>,
    /// Out of rotation after a failure; never resurrected (restart the
    /// router to re-admit a recovered process).
    dead: AtomicBool,
}

impl Replica {
    fn new(addr: String) -> Self {
        Self {
            addr,
            client: Mutex::new(None),
            dead: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Option<NetClient>> {
        self.client.lock().expect("replica client lock poisoned")
    }

    /// Runs `f` against this replica's pooled connection, connecting
    /// lazily.  With `retry` set, one connection error triggers a single
    /// reconnect-and-retry — safe for reads, **never** used for writes (a
    /// write whose request may already have reached the server must not be
    /// re-sent, or the replica could apply it twice and diverge).
    fn call<T>(
        &self,
        retry: bool,
        f: &dyn Fn(&mut NetClient) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let mut slot = self.lock();
        let attempts = if retry { 2 } else { 1 };
        let mut last = None;
        for _ in 0..attempts {
            if slot.is_none() {
                match NetClient::connect(&self.addr) {
                    Ok(c) => *slot = Some(c),
                    Err(e) => return Err(e),
                }
            }
            match f(slot.as_mut().expect("connected above")) {
                Ok(v) => return Ok(v),
                Err(e) if is_conn_error(&e) => {
                    // The stream is unusable; drop it so the next attempt
                    // (here or on a later call) starts fresh.
                    *slot = None;
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("loop ran at least once"))
    }

    /// Sends `req` on the pooled connection, connecting lazily, and keeps
    /// the connection locked until its reply is read ([`Sent::recv`]).  A
    /// failed send drops the connection.
    fn send(&self, req: &Request) -> Result<Sent<'_>, NetError> {
        let mut conn = self.lock();
        if conn.is_none() {
            *conn = Some(NetClient::connect(&self.addr)?);
        }
        let at = Instant::now();
        let mut sent = Sent {
            conn,
            at,
            close: true,
        };
        sent.conn.as_mut().expect("connected above").send(req)?;
        Ok(sent)
    }
}

/// A request on a replica's pooled connection whose reply is owed.  The
/// connection stays locked until [`recv`](Self::recv) reads the reply.
/// Dropped with the reply unread — or after a connection error — the
/// connection is closed, so no later request on it can be answered with
/// this request's reply.
struct Sent<'a> {
    conn: MutexGuard<'a, Option<NetClient>>,
    /// When the request went out.
    at: Instant,
    /// Close the connection on drop: the reply is unread, or reading it
    /// failed and left the stream at an unknown position.
    close: bool,
}

impl Sent<'_> {
    /// Reads the reply, recording the send → reply time in `upstream_us`.
    fn recv(mut self, upstream_us: &Histogram) -> Result<Response, NetError> {
        let got = self.conn.as_mut().expect("sent on a connection").recv();
        self.close = matches!(&got, Err(e) if is_conn_error(e));
        if got.is_ok() {
            upstream_us.record(self.at.elapsed().as_micros() as u64);
        }
        got
    }
}

impl Drop for Sent<'_> {
    fn drop(&mut self) {
        if self.close {
            *self.conn = None;
        }
    }
}

/// Where one read of a scatter went: the shard, the replica and the
/// request, kept to re-run the read if its connection fails.
struct Target {
    shard: usize,
    replica: usize,
    req: Request,
}

/// A scattered read between send and gather.
type Pending<'a> = (Target, Result<Sent<'a>, NetError>);

/// A gathered reply; `Err` when the send or the read failed.
type Reply = (Target, Result<Response, NetError>);

/// Turns a shard's reply into its payload (`Response::into_points`, ...).
type Unpack<T> = fn(Response) -> Result<T, NetError>;

/// The executor a scatter hands its plan: sends one shard its request.
/// Sending cannot fail the plan; a failed send surfaces at the gather.
type SendFn<'a> = dyn FnMut(usize, Request) -> Result<(), Infallible> + 'a;

/// Router-side view of one shard: live routing state the planner reads on
/// every query, plus the shard's replica set.
struct ShardState {
    /// The shard's MBR — seeded from the manifest, expanded on inserts
    /// exactly as the single-process engine expands its shard MBRs.
    mbr: RwLock<Rect>,
    /// Live point count, scraped from the shard server's `server.points`
    /// gauge at startup and maintained on routed writes.  Drives the
    /// planner's kNN `k_eff` clamp and empty-shard pruning, standing in for
    /// the engine's per-shard `len()`.
    len: AtomicU64,
    replicas: Vec<Replica>,
    /// Round-robin cursor for read distribution.
    rr: AtomicUsize,
    /// `router.upstream_us.shard<i>`: per-shard read send → reply time.
    upstream_us: Histogram,
}

impl ShardState {
    fn view(&self) -> ShardView {
        ShardView {
            mbr: *self.mbr.read().unwrap(),
            len: self.len.load(Ordering::Acquire) as usize,
        }
    }
}

/// The outcome of executing a plan: the reply, or the upstream failure
/// that stopped the scatter and the shard it happened at.
type Planned = Result<Response, ShardError<NetError>>;

struct Core {
    /// The router's telemetry sink, shared with its [`FrontEnd`].
    telemetry: Arc<Telemetry>,
    partitioner: Partitioner,
    shards: Vec<ShardState>,
    /// Serializes writes: the fan-out to a shard's replicas must not
    /// interleave with another write's fan-out, or replica op streams (and
    /// the router's MBR/len bookkeeping) could diverge.
    write_gate: Mutex<()>,
    /// Router-level write sequence: bumped once per successful client
    /// write, sampled by reads — the same contract a single-process
    /// server's `Snapshot::seq` gives replay oracles.
    seq: AtomicU64,
    /// `router.shards_visited`: shard servers consulted by the planner.
    shards_visited: Counter,
    /// `router.shards_pruned`: shards excluded by routing or MBR bounds.
    shards_pruned: Counter,
    /// `router.replica_failovers`: replicas taken out of rotation.
    replica_failovers: Counter,
    /// Shutdown has been propagated to the shard servers (runs once).
    propagated: AtomicBool,
}

impl Core {
    fn current_seq(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// The planner's view of every shard, in shard order.
    fn views(&self) -> impl Iterator<Item = ShardView> + '_ {
        self.shards.iter().map(ShardState::view)
    }

    fn note_fanout(&self, fan: Fanout) {
        self.shards_visited.add(fan.visited as u64);
        self.shards_pruned.add(fan.pruned as u64);
    }

    /// Takes a replica out of rotation (idempotent) and records the
    /// failover.
    fn mark_dead(&self, shard: usize, replica: usize) {
        if !self.shards[shard].replicas[replica]
            .dead
            .swap(true, Ordering::AcqRel)
        {
            self.replica_failovers.inc();
            self.telemetry.journal.record(EventKind::ReplicaFailover {
                shard: shard as u64,
                replica: replica as u64,
            });
        }
    }

    /// The replica the next read of `shard` starts at: round-robin.
    fn next_replica(&self, shard: usize) -> usize {
        let st = &self.shards[shard];
        st.rr.fetch_add(1, Ordering::Relaxed) % st.replicas.len()
    }

    /// One read against `shard`: the live replicas from `start` on, failing
    /// over on connection errors.  Semantic refusals (overload, drain)
    /// propagate; `Err(Overload)` with no live replica means the shard is
    /// gone.
    fn read_shard<T>(
        &self,
        shard: usize,
        start: usize,
        f: impl Fn(&mut NetClient) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let st = &self.shards[shard];
        let n = st.replicas.len();
        let mut conn_err = None;
        for off in 0..n {
            let i = (start + off) % n;
            let rep = &st.replicas[i];
            if rep.dead.load(Ordering::Acquire) {
                continue;
            }
            let t0 = Instant::now();
            match rep.call(true, &f) {
                Ok(v) => {
                    st.upstream_us.record(t0.elapsed().as_micros() as u64);
                    return Ok(v);
                }
                Err(e) if is_conn_error(&e) => {
                    self.mark_dead(shard, i);
                    conn_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(conn_err.unwrap_or(NetError::Overload))
    }

    /// The send half of a scattered read: `req` goes out to a live replica
    /// of `shard`, picked round-robin, on its pooled connection, which stays
    /// locked until [`gather`](Self::gather) reads the reply.  A scatter
    /// sends in ascending shard order, so two scatters never wait on each
    /// other's connections in a cycle.
    fn send(&self, shard: usize, req: Request) -> Pending<'_> {
        let st = &self.shards[shard];
        let n = st.replicas.len();
        let start = self.next_replica(shard);
        let live = (0..n)
            .map(|off| (start + off) % n)
            .find(|&i| !st.replicas[i].dead.load(Ordering::Acquire));
        let sent = live.map_or(Err(NetError::Overload), |i| st.replicas[i].send(&req));
        let replica = live.unwrap_or(start);
        (
            Target {
                shard,
                replica,
                req,
            },
            sent,
        )
    }

    /// The gather half: reads every pending reply in send order, releasing
    /// each connection as soon as its reply is in — so when this returns, no
    /// connection is held and none is left with a reply unread.
    fn gather(&self, pending: Vec<Pending<'_>>) -> Vec<Reply> {
        let gathered = pending.into_iter().map(|(to, sent)| {
            let got = sent.and_then(|sent| sent.recv(&self.shards[to.shard].upstream_us));
            (to, got)
        });
        gathered.collect()
    }

    /// Unpacks a gathered reply.  A connection error re-runs the shard
    /// through [`read_shard`](Self::read_shard) from the same replica
    /// (reconnect once, then fail over), so failover stays per shard.
    fn settle<T>(&self, (to, got): Reply, unpack: Unpack<T>) -> Result<T, ShardError<NetError>> {
        match got.and_then(unpack) {
            Err(e) if is_conn_error(&e) => {
                self.read_shard(to.shard, to.replica, |c| unpack(c.call(&to.req)?))
            }
            settled => settled,
        }
        .map_err(|error| ShardError {
            shard: to.shard,
            error,
        })
    }

    /// A scattered read: `plan` hands every shard it targets, in shard
    /// order, to its send callback, and every request goes out before any
    /// reply is read.  The replies are then gathered and concatenated in
    /// the same order.
    fn scatter<T>(
        &self,
        plan: impl FnOnce(&mut SendFn<'_>) -> Result<Fanout, ShardError<Infallible>>,
        unpack: Unpack<(u64, Vec<T>)>,
    ) -> Result<(Vec<T>, Fanout), ShardError<NetError>> {
        let mut pending = Vec::new();
        let fan = plan::infallible(plan(&mut |shard, req| {
            pending.push(self.send(shard, req));
            Ok(())
        }));
        let mut all = Vec::new();
        for reply in self.gather(pending) {
            all.extend(self.settle(reply, unpack)?.1);
        }
        Ok((all, fan))
    }

    /// One write against `shard`, fanned out to **every** live replica so
    /// their states stay identical.  Returns the first success
    /// (`Err(Overload)` when no replica accepted it).  A replica that fails
    /// a write — for any reason — is taken out of rotation rather than
    /// allowed to miss an op and diverge.
    fn write_shard<T>(
        &self,
        shard: usize,
        f: impl Fn(&mut NetClient) -> Result<T, NetError>,
    ) -> Result<T, NetError> {
        let st = &self.shards[shard];
        let mut first = None;
        for (i, rep) in st.replicas.iter().enumerate() {
            if rep.dead.load(Ordering::Acquire) {
                continue;
            }
            match rep.call(false, &f) {
                Ok(v) => first = first.or(Some(v)),
                Err(_) => self.mark_dead(shard, i),
            }
        }
        first.ok_or(NetError::Overload)
    }

    /// Maps the upstream failure that stopped a plan onto a client-facing
    /// refusal.
    fn upstream_error(&self, ShardError { shard, error }: ShardError<NetError>) -> Response {
        let (code, message) = match error {
            NetError::ShuttingDown => (
                ErrorCode::ShuttingDown,
                format!("shard {shard} is draining"),
            ),
            NetError::Remote(msg) => (
                ErrorCode::BadRequest,
                format!("shard {shard} refused: {msg}"),
            ),
            NetError::Internal(msg) => {
                (ErrorCode::Internal, format!("shard {shard} failed: {msg}"))
            }
            NetError::Overload => (
                ErrorCode::Overload,
                format!("shard {shard} overloaded or has no live replicas"),
            ),
            other => (
                ErrorCode::Overload,
                format!("shard {shard} unreachable: {other}"),
            ),
        };
        Response::Error { code, message }
    }

    /// Executes one admitted request: [`engine::plan`] decides the targets,
    /// the closures here reach them through a scatter, `read_shard` or
    /// `write_shard`.
    fn exec(&self, req: Request) -> Response {
        let planned = match req {
            Request::Point(p) => self.exec_point(p),
            Request::Window(w) => self.exec_window(w),
            Request::Knn(p, k) => self.exec_knn(p, k),
            Request::Range(p, radius) => self.exec_range(p, radius),
            Request::JoinProbes(probes, radius) => self.exec_join(&probes, radius),
            Request::Insert(p) => self.exec_insert(p),
            Request::Delete(p) => self.exec_delete(p),
            Request::Ping | Request::Shutdown | Request::Stats | Request::Events { .. } => {
                Ok(Response::Error {
                    code: ErrorCode::BadRequest,
                    message: "control requests are answered inline".into(),
                })
            }
        };
        planned.unwrap_or_else(|e| self.upstream_error(e))
    }

    fn exec_point(&self, q: Point) -> Planned {
        let seq = self.current_seq();
        let probe =
            |shard| self.read_shard(shard, self.next_replica(shard), |c| Ok(c.point(&q)?.1));
        let (hit, fan) = plan::point(&self.partitioner, &q, probe)?;
        self.note_fanout(fan);
        Ok(Response::Point { seq, hit })
    }

    fn exec_window(&self, w: Rect) -> Planned {
        let seq = self.current_seq();
        let (points, fan) = self.scatter(
            |send| plan::window(self.views(), &w, |shard| send(shard, Request::Window(w))),
            Response::into_points,
        )?;
        self.note_fanout(fan);
        Ok(Response::Points { seq, points })
    }

    /// The nearest shard is asked together with the second-nearest, whose
    /// reply is offered only if the plan then selects that shard (and
    /// dropped, already read, if the k-th distance prunes it).  Later shards
    /// are asked one at a time under the planner's bound.
    fn exec_knn(&self, q: Point, k: u32) -> Planned {
        let seq = self.current_seq();
        let mut merge = plan::KnnMerge::new(self.views(), &q, k as usize);
        let req = Request::Knn(q, merge.k_eff() as u32);
        let mut second = None;
        if let Some(mut nearest) = merge.next_shard() {
            let mut targets = [Some(nearest.shard()), nearest.peek_next()];
            // Connections are taken in ascending shard order (see `send`).
            targets.sort_unstable();
            let pending = targets
                .into_iter()
                .flatten()
                .map(|shard| self.send(shard, req.clone()))
                .collect();
            let mut replies = self.gather(pending);
            let at = replies
                .iter()
                .position(|(to, _)| to.shard == nearest.shard());
            let first = replies.remove(at.expect("the nearest shard was sent to"));
            second = replies.pop();
            for p in self.settle(first, Response::into_knn)?.1 {
                nearest.offer(p);
            }
        }
        if let Some(reply) = second {
            if let Some(mut next) = merge.next_shard() {
                assert_eq!(next.shard(), reply.0.shard, "the peek named another shard");
                for p in self.settle(reply, Response::into_knn)?.1 {
                    next.offer(p);
                }
            }
        }
        while let Some(mut next) = merge.next_shard() {
            let shard = next.shard();
            let start = self.next_replica(shard);
            let points = self.read_shard(shard, start, |c| c.call(&req)?.into_knn());
            for p in points.map_err(|error| ShardError { shard, error })?.1 {
                next.offer(p);
            }
        }
        let (best, fan) = merge.finish();
        self.note_fanout(fan);
        Ok(Response::Knn {
            seq,
            points: best.iter().copied().collect(),
        })
    }

    fn exec_range(&self, center: Point, radius: f64) -> Planned {
        let seq = self.current_seq();
        let (points, fan) = self.scatter(
            |send| {
                plan::range(self.views(), &center, radius, |shard| {
                    send(shard, Request::Range(center, radius))
                })
            },
            Response::into_points,
        )?;
        self.note_fanout(fan);
        Ok(Response::Points { seq, points })
    }

    fn exec_join(&self, probes: &[Point], radius: f64) -> Planned {
        let seq = self.current_seq();
        let (pairs, fan) = self.scatter(
            |send| {
                plan::join(self.views(), probes, radius, |shard, kept| {
                    send(shard, Request::JoinProbes(kept.to_vec(), radius))
                })
            },
            Response::into_pairs,
        )?;
        self.note_fanout(fan);
        Ok(Response::Pairs { seq, pairs })
    }

    fn exec_insert(&self, p: Point) -> Planned {
        let _gate = self.write_gate.lock().expect("write gate poisoned");
        let shard = plan::home_shard(&self.partitioner, &p);
        self.write_shard(shard, |c| c.insert(&p))
            .map_err(|error| ShardError { shard, error })?;
        self.shards[shard].mbr.write().unwrap().expand_to_point(p);
        self.shards[shard].len.fetch_add(1, Ordering::AcqRel);
        let seq = self.seq.fetch_add(1, Ordering::AcqRel) + 1;
        Ok(Response::Written {
            seq,
            removed: false,
        })
    }

    fn exec_delete(&self, p: Point) -> Planned {
        let _gate = self.write_gate.lock().expect("write gate poisoned");
        // The delete goes to all of the home shard's live replicas (the
        // shard server sequences even a delete-miss, so replicas must see
        // the same op stream).
        let probe = |shard| {
            let (removed, _) = self.write_shard(shard, |c| c.delete(&p))?;
            Ok(removed.then_some(shard))
        };
        let (removed_in, _) = plan::point(&self.partitioner, &p, probe)?;
        if let Some(shard) = removed_in {
            // A delete that removes several copies still counts one, so
            // the count can read high, never low; saturating is a guard.
            let _ = self.shards[shard]
                .len
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                    Some(v.saturating_sub(1))
                });
        }
        let seq = self.seq.fetch_add(1, Ordering::AcqRel) + 1;
        Ok(Response::Written {
            seq,
            removed: removed_in.is_some(),
        })
    }
}

/// Running router: owns the acceptor and every per-connection thread.
///
/// Dropping the handle shuts the router down, drains client connections,
/// propagates a graceful shutdown to every live shard replica, and joins
/// all threads; call [`RouterHandle::shutdown`] + [`RouterHandle::join`]
/// to do it explicitly.
pub struct RouterHandle {
    front: Arc<FrontEnd>,
    core: Arc<Core>,
}

impl RouterHandle {
    /// The bound address (resolves the actual port when served on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Point-in-time serving counters.
    pub fn stats(&self) -> RouterStats {
        self.front.stats()
    }

    /// The router's telemetry sink (scraped over the wire via `Stats`).
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.front.telemetry()
    }

    /// Whether a shutdown (local or via a wire `Shutdown` request) has
    /// begun.
    pub fn is_stopped(&self) -> bool {
        self.front.is_stopped()
    }

    /// Begins a graceful shutdown: stop accepting, refuse new requests,
    /// drain in-flight fan-outs.  Idempotent; returns without waiting —
    /// call [`RouterHandle::join`] to wait for the drain and the upstream
    /// propagation.
    pub fn shutdown(&self) {
        self.front.begin_shutdown();
    }

    /// Waits for the full drain, then propagates a graceful shutdown to
    /// every live shard replica — a `net-load --shutdown-server` run
    /// against a router therefore takes the whole process tree down, with
    /// every process draining its in-flight work first.
    pub fn join(self) {
        self.join_inner();
    }

    fn join_inner(&self) {
        // Upstream propagation waits for the client-side drain, so
        // in-flight fan-outs complete against live shard servers first.
        self.front.join();
        // Each shard server acks the shutdown before draining, so this
        // returns quickly; their own handles (in their own processes)
        // finish the drain.
        if !self.core.propagated.swap(true, Ordering::AcqRel) {
            for rep in self.core.shards.iter().flat_map(|s| &s.replicas) {
                if !rep.dead.load(Ordering::Acquire) {
                    let _ = rep.call(false, &|c: &mut NetClient| c.shutdown_server());
                }
            }
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.join_inner();
    }
}

/// Starts a router over `manifest`'s routing table, with
/// `replicas[shard]` listing the shard server addresses serving each
/// shard (every shard needs at least one).  Network knobs — bind address,
/// admission window — come from the unified `cfg`; the
/// compaction subset is ignored (compaction happens in the shard server
/// processes).
///
/// Startup scrapes each shard's live point count from the first reachable
/// replica's `server.points` gauge (retrying for up to 10 seconds — shard
/// servers may still be binding), seeding the planner's empty-shard
/// pruning and kNN clamp; the count is maintained on routed writes from
/// then on.
pub fn serve(
    manifest: ShardManifest,
    replicas: Vec<Vec<String>>,
    cfg: &server::ServeConfig,
) -> Result<RouterHandle, NetError> {
    let n_shards = manifest.shard_count();
    if n_shards == 0 {
        return Err(NetError::Corrupt("manifest routes to zero shards".into()));
    }
    if replicas.len() != n_shards {
        return Err(NetError::Corrupt(format!(
            "manifest routes to {n_shards} shards but {} replica sets were given",
            replicas.len()
        )));
    }
    if let Some(i) = replicas.iter().position(|r| r.is_empty()) {
        return Err(NetError::Corrupt(format!(
            "shard {i} has no replica addresses"
        )));
    }
    let telemetry = Arc::new(Telemetry::new());
    let mut shards = Vec::with_capacity(n_shards);
    let mut total_points = 0u64;
    for (i, (meta, addrs)) in manifest.shards.iter().zip(replicas).enumerate() {
        let shard_replicas: Vec<Replica> = addrs.into_iter().map(Replica::new).collect();
        let len = scrape_shard_len(i, &shard_replicas)?;
        total_points += len;
        shards.push(ShardState {
            mbr: RwLock::new(meta.mbr),
            len: AtomicU64::new(len),
            replicas: shard_replicas,
            rr: AtomicUsize::new(0),
            upstream_us: telemetry
                .metrics
                .histogram(&format!("router.upstream_us.shard{i}")),
        });
    }
    telemetry.journal.record(EventKind::ServerStart {
        points: total_points,
    });
    let core = Arc::new(Core {
        telemetry: Arc::clone(&telemetry),
        partitioner: manifest.partitioner,
        shards,
        write_gate: Mutex::new(()),
        seq: AtomicU64::new(0),
        shards_visited: telemetry.metrics.counter("router.shards_visited"),
        shards_pruned: telemetry.metrics.counter("router.shards_pruned"),
        replica_failovers: telemetry.metrics.counter("router.replica_failovers"),
        propagated: AtomicBool::new(false),
    });
    let seq = {
        let core = Arc::clone(&core);
        move || core.current_seq()
    };
    let exec = {
        let core = Arc::clone(&core);
        move |req| core.exec(req)
    };
    let front = FrontEnd::serve(cfg, telemetry, seq, exec)?;
    Ok(RouterHandle { front, core })
}

/// Scrapes a shard's live point count from the first replica that answers
/// with a `server.points` gauge, pooling the connection for later reads.  A
/// replica that cannot be reached, drops the connection or answers without
/// the gauge is skipped like a failed connect; only a shard with no usable
/// replica at all fails the startup.
fn scrape_shard_len(shard: usize, replicas: &[Replica]) -> Result<u64, NetError> {
    let mut last = NetError::Closed;
    for rep in replicas {
        let scraped =
            NetClient::connect_retry(&rep.addr, STARTUP_CONNECT_DEADLINE).and_then(|mut client| {
                let (_, snapshot) = client.stats()?;
                let points = snapshot.gauge("server.points").ok_or_else(|| {
                    NetError::Corrupt(format!(
                        "shard {shard} server at {} exposes no server.points gauge",
                        rep.addr
                    ))
                })?;
                Ok((client, points))
            });
        match scraped {
            Ok((client, points)) => {
                *rep.lock() = Some(client);
                return Ok(points.max(0) as u64);
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}
