//! Concurrent serving engine: epoch-swapped reads, delta-buffered writes,
//! background compaction.
//!
//! Every index in this repository is `Send + Sync` for *queries*, but writes
//! go through `&mut self` — whoever owns the index serialises everything.
//! This crate turns any [`SpatialIndex`] into a long-lived server the way
//! "The Case for Learned Spatial Indexes" (Pandey et al.) and LiLIS frame
//! learned spatial indices: a system whose metric is query throughput under
//! concurrent updates, not one-shot build-and-probe.
//!
//! # Design
//!
//! * **Epoch-swapped reads.**  The immutable base index lives inside an
//!   epoch behind an `Arc`.  A reader takes a [`Snapshot`] — two `Arc`
//!   clones under momentary read locks — and then runs any number of
//!   point/window/kNN queries against that frozen view with its own
//!   [`QueryContext`], never blocking other readers, writers, or compaction.
//! * **Delta-buffered writes.**  Inserts and deletes do not touch the base.
//!   They land in a sequenced delta overlay ([`WriteOp`] → [`SequencedOp`]);
//!   every query merges base and delta — deleted points are masked out of
//!   base results, inserted points are unioned in, and per-query statistics
//!   stay exact because delta candidates are charged to the context like any
//!   block scan.  A query's [`Snapshot::seq`] says exactly which prefix of
//!   the write stream it observes, which is what makes concurrent runs
//!   verifiable against a single-threaded replay oracle.
//! * **Background compaction.**  When the delta grows past
//!   [`ServerConfig::compact_threshold`], a background thread absorbs it into
//!   a refreshed base and atomically swaps in a new epoch.  Readers holding
//!   the old epoch keep getting correct answers from it; the swap itself is
//!   one `Arc` store.  Rebuilds happen entirely outside the read path.  The
//!   epoch's base index is the only copy of the data: no point vector or
//!   key map is kept beside it.
//! * **Incremental maintenance.**  A policy-driven pass asks the base one
//!   question, [`SpatialIndex::clone_index`].  When it offers a copy, the
//!   pass replays the captured delta into the copy and calls
//!   [`SpatialIndex::rebuild_partial`] on it, which repairs only the worn
//!   subtrees (refitting those whose model drift crossed
//!   [`ServerConfig::drift_trigger`]) — bounded per pass by a pause
//!   budget so compaction cost stays proportional to churn, not to data
//!   size.  When it offers none (a family without maintenance, or a
//!   sharded base whose shard sizes are skewed), the caller's rebuild
//!   closure builds a fresh base from the base's points with the delta
//!   folded in — the registry passes `build_index`, so any registered
//!   family composes.  The epoch swap discipline is identical either way.
//!
//! # Example: serve and write concurrently
//!
//! ```
//! use common::{brute_force::ScanIndex, QueryContext, SpatialIndex};
//! use geom::Point;
//! use server::{ServerConfig, SpatialServer};
//!
//! let points: Vec<Point> = (0..100)
//!     .map(|i| Point::with_id(i as f64 / 100.0, (i as f64 * 0.37) % 1.0, i))
//!     .collect();
//! let server = SpatialServer::new(
//!     &points,
//!     Box::new(|pts| Box::new(ScanIndex::new(pts.to_vec()))),
//!     ServerConfig::default(),
//! );
//!
//! // A writer thread inserts while this thread queries: readers take
//! // snapshots and never block on the writer or on compaction.
//! std::thread::scope(|scope| {
//!     scope.spawn(|| {
//!         for i in 0..50u64 {
//!             server.insert(Point::with_id(0.5, 0.001 * i as f64, 1_000 + i));
//!         }
//!     });
//!     let mut cx = QueryContext::new();
//!     let snap = server.snapshot();
//!     // The snapshot is frozen: it sees a definite prefix of the writes.
//!     assert!(snap.seq() <= 50);
//!     assert_eq!(
//!         snap.point_query(&Point::new(7.0 / 100.0, (7.0 * 0.37) % 1.0), &mut cx)
//!             .map(|p| p.id),
//!         Some(7),
//!     );
//! });
//!
//! // After the writer finishes, a fresh snapshot sees all 50 inserts.
//! assert_eq!(server.len(), 150);
//! let mut cx = QueryContext::new();
//! let hit = server.point_query(&Point::new(0.5, 0.001 * 13.0), &mut cx);
//! assert_eq!(hit.map(|p| p.id), Some(1_013));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compact;
mod config;
mod delta;
mod read;

pub use config::{ServeConfig, ServerConfig, MAX_SUBTREES, PAUSE_BUDGET_US};
pub use delta::{SequencedOp, WriteOp};
pub use read::Snapshot;

use common::{CopyVisit, QueryContext, SpatialIndex};
use compact::{base_copies, compactor_loop, CompactorSignal};
use delta::DeltaState;
use geom::{Point, Rect};
use obs::{Counter, EventKind, Gauge, Histogram, Telemetry};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// The closure that builds a base index from a point set: the initial build
/// of [`SpatialServer::new`], and a full compaction pass over the old base's
/// points with the delta folded in.  The registry passes its own
/// `build_index` (with the kind and config captured), so every registered
/// family composes with the server without a dependency cycle.
pub type RebuildFn = Box<dyn Fn(&[Point]) -> Box<dyn SpatialIndex> + Send + Sync>;

/// One immutable generation of the server: a frozen base index plus the
/// delta overlay accumulating the writes that arrived after the base was
/// built.  Readers hold an `Arc<Epoch>`; compaction replaces the server's
/// current epoch but never mutates an existing one, so in-flight readers
/// stay correct.
struct Epoch {
    /// Monotone epoch counter (0 = the initial build).
    id: u64,
    /// The frozen base index: the only copy of the epoch's base points.
    base: Box<dyn SpatialIndex>,
    /// Writes since this epoch's base was built.  Readers clone the `Arc`
    /// under a momentary read lock; the (single) writer appends through
    /// `Arc::make_mut` under the write lock.
    delta: RwLock<Arc<DeltaState>>,
}

/// Counters describing a server's current state, for experiments and logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Current epoch id (number of compactions folded into the base).
    pub epoch: u64,
    /// Last write sequence number handed out.
    pub seq: u64,
    /// Ops currently buffered in the delta overlay.
    pub delta_ops: usize,
    /// Completed compactions (epoch swaps), full and partial.
    pub compactions: u64,
    /// Compactions that ran as partial (incremental) passes.
    pub partial_compactions: u64,
    /// Subtrees repaired across all partial passes.
    pub subtree_rebuilds: u64,
    /// Live points (base minus masked deletes plus live inserts).
    pub len: usize,
}

/// Pre-registered telemetry handles for the hot paths, so recording a
/// write or a compaction never looks a metric name up.
struct ServerMetrics {
    /// `server.epoch`: current epoch id.
    epoch: Gauge,
    /// `server.seq`: last write sequence handed out.
    seq: Gauge,
    /// `server.delta_ops`: ops buffered in the delta overlay (= ops since
    /// the last compaction folded).
    delta_ops: Gauge,
    /// `server.points`: live points visible to a fresh snapshot (base minus
    /// masked deletes plus live inserts).  A distributed router scrapes
    /// this at startup to learn each shard's cardinality without loading
    /// shard data.
    points: Gauge,
    /// `server.model_err_below` / `server.model_err_above`: worst-case
    /// model prediction error of the live base, refreshed at every rebuild
    /// — the drift signal incremental maintenance triggers on.
    model_err_below: Gauge,
    model_err_above: Gauge,
    /// `server.compaction_pause_us`: writer-visible pause during the epoch
    /// swap.
    compaction_pause_us: Histogram,
    /// `server.compaction_rebuild_us`: off-lock rebuild duration.
    compaction_rebuild_us: Histogram,
    /// `server.compaction_pass_us`: a whole pass, full or partial, capture
    /// to record; the clocks above time its build and swap steps.
    compaction_pass_us: Histogram,
    /// `server.compactions_full` / `server.compactions_partial`: how the
    /// swaps were produced — the soak suite asserts partial passes carried
    /// the steady-state load.
    compactions_full: Counter,
    compactions_partial: Counter,
    /// `server.subtree_rebuilds`: subtrees repaired across all partial
    /// passes.
    subtree_rebuilds: Counter,
    /// `server.partial_rebuild_us`: off-lock duration of partial passes
    /// only (full rebuilds go to `server.compaction_rebuild_us`).
    partial_rebuild_us: Histogram,
    /// `server.maint_ops_since_train`: writes absorbed by the live base's
    /// leaves since their models were trained — the raw drift signal.
    maint_ops_since_train: Gauge,
    /// `server.maint_widened`: total error-bound widening (blocks, below +
    /// above) the live base's leaves carry.
    maint_widened: Gauge,
    /// `server.maint_stale_subtrees`: subtrees currently at or past the
    /// default drift threshold.
    maint_stale_subtrees: Gauge,
}

impl ServerMetrics {
    fn register(t: &Telemetry) -> Self {
        Self {
            epoch: t.metrics.gauge("server.epoch"),
            seq: t.metrics.gauge("server.seq"),
            delta_ops: t.metrics.gauge("server.delta_ops"),
            points: t.metrics.gauge("server.points"),
            model_err_below: t.metrics.gauge("server.model_err_below"),
            model_err_above: t.metrics.gauge("server.model_err_above"),
            compaction_pause_us: t.metrics.histogram("server.compaction_pause_us"),
            compaction_rebuild_us: t.metrics.histogram("server.compaction_rebuild_us"),
            compaction_pass_us: t.metrics.histogram("server.compaction_pass_us"),
            compactions_full: t.metrics.counter("server.compactions_full"),
            compactions_partial: t.metrics.counter("server.compactions_partial"),
            subtree_rebuilds: t.metrics.counter("server.subtree_rebuilds"),
            partial_rebuild_us: t.metrics.histogram("server.partial_rebuild_us"),
            maint_ops_since_train: t.metrics.gauge("server.maint_ops_since_train"),
            maint_widened: t.metrics.gauge("server.maint_widened"),
            maint_stale_subtrees: t.metrics.gauge("server.maint_stale_subtrees"),
        }
    }

    /// Sets the model-error and drift gauges from the live base.
    fn set_base(&self, base: &dyn SpatialIndex) {
        if let Some((below, above)) = base.model_error_bounds() {
            self.model_err_below.set(below.min(i64::MAX as u64) as i64);
            self.model_err_above.set(above.min(i64::MAX as u64) as i64);
        }
        if let Some(m) = base.maintenance_stats() {
            self.maint_ops_since_train
                .set(m.ops_since_train.min(i64::MAX as u64) as i64);
            self.maint_widened
                .set((m.widened_below + m.widened_above).min(i64::MAX as u64) as i64);
            self.maint_stale_subtrees.set(m.stale_subtrees as i64);
        }
    }
}

/// Shared state between the server handle and its compaction thread.
struct Core {
    /// The current epoch; replaced (never mutated) by compaction.
    epoch: RwLock<Arc<Epoch>>,
    /// Serialises writers against each other and against the epoch swap.
    /// Readers never touch it.
    write_gate: Mutex<()>,
    /// Serialises compactions.
    pass_gate: Mutex<()>,
    /// Builds a fresh base from a point set.
    rebuild: RebuildFn,
    cfg: ServerConfig,
    /// Running estimate of per-subtree repair cost in microseconds
    /// (exponential moving average over `rebuild_partial` alone, 0 = no
    /// estimate yet).  Divides [`PAUSE_BUDGET_US`] into a per-pass subtree
    /// cap.
    partial_cost_ema_us: AtomicU64,
    /// Wake-up signal for the compaction thread.
    signal: Mutex<CompactorSignal>,
    signal_cv: Condvar,
    /// Shared telemetry sink (always on; the network layer records into
    /// the same instance so one `STATS` scrape covers every layer).
    telemetry: Arc<Telemetry>,
    /// Pre-registered handles into `telemetry`.
    metrics: ServerMetrics,
}

impl Core {
    fn current_epoch(&self) -> Arc<Epoch> {
        self.epoch.read().expect("epoch lock poisoned").clone()
    }

    fn snapshot(&self) -> Snapshot {
        let epoch = self.current_epoch();
        let delta = epoch.delta.read().expect("delta lock poisoned").clone();
        Snapshot { epoch, delta }
    }

    /// Applies one write op; returns `(removed, seq)`.
    ///
    /// Cost note: when a reader still holds a snapshot of the current delta
    /// (`Arc` shared), `Arc::make_mut` copies the overlay before appending —
    /// bounded by [`ServerConfig::compact_threshold`] entries, which is the
    /// deliberate trade for readers that never take the write path's locks.
    fn apply(&self, op: WriteOp) -> (bool, u64) {
        let (removed, seq, buffered) = {
            let _gate = self.write_gate.lock().expect("write gate poisoned");
            let epoch = self.current_epoch();
            let mut guard = epoch.delta.write().expect("delta lock poisoned");
            let state = Arc::make_mut(&mut guard);
            let seq = state.seq() + 1;
            let removed = state.apply(SequencedOp { seq, op }, &|p| {
                base_copies(epoch.base.as_ref(), p)
            });
            self.metrics.seq.set(seq.min(i64::MAX as u64) as i64);
            self.metrics.delta_ops.set(state.op_count() as i64);
            let live = epoch.base.len() - state.masked_base() + state.live_inserts();
            self.metrics.points.set(live as i64);
            (removed, seq, state.op_count())
        };
        if buffered >= self.cfg.compact_threshold {
            let mut sig = self.signal.lock().expect("signal lock poisoned");
            sig.kicked = true;
            self.signal_cv.notify_all();
        }
        (removed, seq)
    }
}

/// A long-lived concurrent serving engine wrapping one [`SpatialIndex`].
///
/// All methods take `&self`: readers call [`snapshot`](Self::snapshot) (or
/// the convenience query methods) from any number of threads, writers call
/// [`insert`](Self::insert) / [`delete`](Self::delete) from any thread
/// (writes are serialised internally), and compaction runs in a background
/// thread owned by the server.  Dropping the server shuts the compaction
/// thread down.
///
/// The server also implements [`SpatialIndex`] itself, so it can stand
/// wherever an index is expected: trait queries read through a fresh
/// snapshot, trait updates go through the delta overlay, `rebuild` forces a
/// compaction, and `write_snapshot` persists the compacted base through the
/// ordinary registry machinery.
pub struct SpatialServer {
    core: Arc<Core>,
    compactor: Option<std::thread::JoinHandle<()>>,
}

impl SpatialServer {
    /// Builds the base index over `points` with `rebuild` and starts serving.
    pub fn new(points: &[Point], rebuild: RebuildFn, cfg: ServerConfig) -> Self {
        let base = rebuild(points);
        Self::from_parts(base, rebuild, cfg)
    }

    /// Starts serving an already-built base index (e.g. one loaded from a
    /// snapshot); `rebuild` builds the bases of later full compactions.
    pub fn from_parts(base: Box<dyn SpatialIndex>, rebuild: RebuildFn, cfg: ServerConfig) -> Self {
        let telemetry = Arc::new(Telemetry::new());
        let metrics = ServerMetrics::register(&telemetry);
        metrics.set_base(base.as_ref());
        metrics.points.set(base.len() as i64);
        telemetry.journal.record(EventKind::ServerStart {
            points: base.len() as u64,
        });
        let core = Arc::new(Core {
            epoch: RwLock::new(Arc::new(Epoch {
                id: 0,
                base,
                delta: RwLock::new(Arc::new(DeltaState::default())),
            })),
            write_gate: Mutex::new(()),
            pass_gate: Mutex::new(()),
            rebuild,
            cfg,
            partial_cost_ema_us: AtomicU64::new(0),
            signal: Mutex::new(CompactorSignal::default()),
            signal_cv: Condvar::new(),
            telemetry,
            metrics,
        });
        let worker = Arc::clone(&core);
        let compactor = std::thread::Builder::new()
            .name("rsmi-compactor".into())
            .spawn(move || compactor_loop(&worker))
            .expect("failed to spawn the compaction thread");
        Self {
            core,
            compactor: Some(compactor),
        }
    }

    /// Takes a frozen, consistent view of the server: one epoch plus the
    /// delta prefix it had at this instant.  Cheap (two `Arc` clones); hold
    /// it for as many queries as a consistent view is needed for.
    pub fn snapshot(&self) -> Snapshot {
        self.core.snapshot()
    }

    /// The server's always-on telemetry sink.  The network layer records
    /// its own metrics and lifecycle events into the same instance, so one
    /// `STATS`/`EVENTS` scrape covers every layer of the process.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.core.telemetry
    }

    /// Inserts a point; returns the sequence number the write was applied
    /// under.
    pub fn insert(&self, p: Point) -> u64 {
        self.core.apply(WriteOp::Insert(p)).1
    }

    /// Deletes every live copy matching `p`'s location and id; returns
    /// whether anything was removed, plus the write's sequence number.
    pub fn delete(&self, p: &Point) -> (bool, u64) {
        self.core.apply(WriteOp::Delete(*p))
    }

    /// Applies one [`WriteOp`]; returns `(removed, seq)` (`removed` is
    /// always `true` for inserts).
    pub fn apply(&self, op: WriteOp) -> (bool, u64) {
        self.core.apply(op)
    }

    /// Synchronously runs one policy-driven pass, as the background thread
    /// does on every trigger: partial (in a clone of the base, refitting the
    /// subtrees past [`ServerConfig::drift_trigger`]) when the base's
    /// [`SpatialIndex::clone_index`] offers a copy, full otherwise.  Returns
    /// whether an epoch swapped (`false` if the delta was empty).
    pub fn maintain_now(&self) -> bool {
        compact::run(&self.core, true)
    }

    /// Synchronously runs one **full** pass through the rebuild closure,
    /// without asking the base for a clone — the deterministic baseline
    /// (and what trait-level `rebuild` / `write_snapshot` use).  Returns
    /// whether a swap happened; passes serialise, so it is safe beside the
    /// background thread.
    pub fn compact_now(&self) -> bool {
        compact::run(&self.core, false)
    }

    /// Current server counters (epoch, sequence, delta size, live points);
    /// the pass counts are read from the `server.compactions_*` and
    /// `server.subtree_rebuilds` telemetry counters.
    pub fn stats(&self) -> ServerStats {
        let snap = self.snapshot();
        let m = &self.core.metrics;
        let partial_compactions = m.compactions_partial.get();
        ServerStats {
            epoch: snap.epoch_id(),
            seq: snap.seq(),
            delta_ops: snap.delta.op_count(),
            compactions: m.compactions_full.get() + partial_compactions,
            partial_compactions,
            subtree_rebuilds: m.subtree_rebuilds.get(),
            len: snap.len(),
        }
    }
}

impl Drop for SpatialServer {
    fn drop(&mut self) {
        if let Some(handle) = self.compactor.take() {
            {
                let mut sig = self.core.signal.lock().expect("signal lock poisoned");
                sig.shutdown = true;
                self.core.signal_cv.notify_all();
            }
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------
// The server is itself a SpatialIndex
// ---------------------------------------------------------------------

impl SpatialIndex for SpatialServer {
    fn name(&self) -> &'static str {
        self.snapshot().epoch.base.name()
    }

    fn len(&self) -> usize {
        self.snapshot().len()
    }

    fn point_query_visit(&self, q: &Point, cx: &mut QueryContext, visit: &mut CopyVisit) {
        self.snapshot().point_query_visit(q, cx, visit)
    }

    fn window_query_visit(
        &self,
        window: &Rect,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        self.snapshot().window_query_visit(window, cx, visit)
    }

    fn knn_query_visit(
        &self,
        q: &Point,
        k: usize,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        self.snapshot().knn_query_visit(q, k, cx, visit)
    }

    fn range_query_visit(
        &self,
        center: &Point,
        radius: f64,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        self.snapshot().range_query_visit(center, radius, cx, visit)
    }

    fn for_each_point(&self, visit: &mut dyn FnMut(&Point)) {
        self.snapshot().for_each_point(visit)
    }

    fn distance_join_probes(
        &self,
        probes: &[Point],
        radius: f64,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point, &Point),
    ) {
        // One snapshot answers the whole join, so the pair set reflects a
        // single consistent write prefix even while writers keep appending.
        self.snapshot()
            .distance_join_probes(probes, radius, cx, visit)
    }

    fn insert(&mut self, p: Point) {
        SpatialServer::insert(self, p);
    }

    fn delete(&mut self, p: &Point) -> bool {
        SpatialServer::delete(self, p).0
    }

    fn rebuild(&mut self) {
        self.compact_now();
    }

    fn size_bytes(&self) -> usize {
        let snap = self.snapshot();
        snap.epoch.base.size_bytes() + snap.delta.size_bytes()
    }

    fn height(&self) -> usize {
        self.snapshot().epoch.base.height()
    }

    fn model_count(&self) -> usize {
        self.snapshot().epoch.base.model_count()
    }

    fn model_error_bounds(&self) -> Option<(u64, u64)> {
        self.snapshot().epoch.base.model_error_bounds()
    }

    fn write_snapshot(
        &self,
        writer: &mut persist::SnapshotWriter,
    ) -> Result<(), persist::PersistError> {
        // Fold pending writes first so the persisted base is complete.  A
        // concurrent writer can still append after the fold; quiesce writers
        // for an exact capture.
        self.compact_now();
        self.snapshot().epoch.base.write_snapshot(writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::brute_force::{self, ScanIndex};
    use common::MaintenanceBudget;
    use datagen::{generate, Distribution};
    use std::time::Duration;

    pub(crate) fn scan_rebuild() -> RebuildFn {
        Box::new(|pts| Box::new(ScanIndex::new(pts.to_vec())))
    }

    fn manual_cfg() -> ServerConfig {
        ServerConfig::default().with_compact_threshold(usize::MAX)
    }

    fn serve(n: usize, seed: u64) -> (Vec<Point>, SpatialServer) {
        let data = generate(Distribution::skewed_default(), n, seed);
        let server = SpatialServer::new(&data, scan_rebuild(), manual_cfg());
        (data, server)
    }

    #[test]
    fn fresh_server_answers_like_its_base() {
        let (data, server) = serve(500, 3);
        let mut cx = QueryContext::new();
        assert_eq!(server.len(), 500);
        assert_eq!(server.stats().epoch, 0);
        assert_eq!(server.stats().seq, 0);
        for p in data.iter().step_by(41) {
            assert_eq!(server.point_query(p, &mut cx).map(|f| f.id), Some(p.id));
        }
        let w = Rect::new(0.2, 0.2, 0.6, 0.6);
        let mut got: Vec<u64> = server
            .window_query(&w, &mut cx)
            .iter()
            .map(|p| p.id)
            .collect();
        let mut truth: Vec<u64> = brute_force::window_query(&data, &w)
            .iter()
            .map(|p| p.id)
            .collect();
        got.sort_unstable();
        truth.sort_unstable();
        assert_eq!(got, truth);
    }

    #[test]
    fn inserts_and_deletes_are_sequenced_and_visible() {
        let (data, server) = serve(300, 5);
        let mut cx = QueryContext::new();
        let extra = Point::with_id(0.123, 0.456, 90_000);
        assert_eq!(server.insert(extra), 1);
        assert_eq!(
            server.point_query(&extra, &mut cx).map(|p| p.id),
            Some(extra.id)
        );
        assert_eq!(server.len(), 301);

        let victim = data[7];
        let (removed, seq) = server.delete(&victim);
        assert!(removed);
        assert_eq!(seq, 2);
        assert!(server.point_query(&victim, &mut cx).is_none());
        assert_eq!(server.len(), 300);

        // Deleting again removes nothing but still advances the sequence.
        let (removed, seq) = server.delete(&victim);
        assert!(!removed);
        assert_eq!(seq, 3);
    }

    #[test]
    fn deleted_points_are_masked_from_window_and_knn() {
        let (data, server) = serve(400, 7);
        let mut cx = QueryContext::new();
        let victim = data[11];
        server.delete(&victim);
        let w = Rect::centered(
            victim.x.clamp(0.05, 0.95),
            victim.y.clamp(0.05, 0.95),
            0.1,
            0.1,
        );
        assert!(
            !server
                .window_query(&w, &mut cx)
                .iter()
                .any(|p| p.id == victim.id),
            "deleted point leaked into a window result"
        );
        let nn = server.knn_query(&victim, 10, &mut cx);
        assert!(!nn.iter().any(|p| p.id == victim.id));
        assert_eq!(nn.len(), 10);
    }

    #[test]
    fn merged_answers_match_the_vec_oracle_through_a_compaction() {
        let (data, server) = serve(600, 11);
        let mut oracle = data.clone();
        let mut cx = QueryContext::new();

        // A burst of interleaved writes.
        for i in 0..40u64 {
            let p = Point::with_id(
                (0.05 + 0.021 * i as f64) % 1.0,
                (0.93 - 0.017 * i as f64).abs() % 1.0,
                10_000 + i,
            );
            server.insert(p);
            oracle.push(p);
            if i % 3 == 0 {
                let victim = oracle[(i as usize * 13) % oracle.len()];
                let (removed, _) = server.delete(&victim);
                assert!(removed);
                oracle.retain(|x| !(x.same_location(&victim) && x.id == victim.id));
            }
        }
        let check = |server: &SpatialServer, oracle: &[Point], cx: &mut QueryContext| {
            assert_eq!(server.len(), oracle.len());
            for q in oracle.iter().step_by(29) {
                assert_eq!(server.point_query(q, cx).map(|p| p.id), Some(q.id));
            }
            let w = Rect::new(0.0, 0.5, 0.5, 1.0);
            let mut got: Vec<u64> = server.window_query(&w, cx).iter().map(|p| p.id).collect();
            let mut truth: Vec<u64> = brute_force::window_query(oracle, &w)
                .iter()
                .map(|p| p.id)
                .collect();
            got.sort_unstable();
            truth.sort_unstable();
            assert_eq!(got, truth);
            let q = Point::new(0.31, 0.64);
            assert_eq!(
                server
                    .knn_query(&q, 15, cx)
                    .iter()
                    .map(|p| p.id)
                    .collect::<Vec<_>>(),
                brute_force::knn_query(oracle, &q, 15)
                    .iter()
                    .map(|p| p.id)
                    .collect::<Vec<_>>()
            );
        };
        check(&server, &oracle, &mut cx);

        // Fold the delta into a fresh base; answers must not change.
        let seq_before = server.stats().seq;
        assert!(server.compact_now());
        assert_eq!(server.stats().epoch, 1);
        assert_eq!(server.stats().delta_ops, 0);
        assert_eq!(
            server.stats().seq,
            seq_before,
            "compaction must not invent writes"
        );
        check(&server, &oracle, &mut cx);

        // Nothing buffered: a second compaction is a no-op.
        assert!(!server.compact_now());
    }

    #[test]
    fn range_and_join_merge_the_delta_overlay_exactly() {
        let (data, server) = serve(400, 41);
        let mut oracle = data.clone();
        // Interleaved writes: inserts near the centre, deletes of base
        // points, one delete-reinsert.
        for i in 0..30u64 {
            let p = Point::with_id(
                (0.45 + 0.003 * i as f64) % 1.0,
                (0.55 - 0.002 * i as f64).abs() % 1.0,
                20_000 + i,
            );
            server.insert(p);
            oracle.push(p);
            if i % 5 == 0 {
                let victim = oracle[(i as usize * 7) % oracle.len()];
                server.delete(&victim);
                oracle.retain(|x| !(x.same_location(&victim) && x.id == victim.id));
            }
        }
        let probes: Vec<Point> = (0..40)
            .map(|i| Point::with_id(0.4 + 0.005 * i as f64, 0.5, 90_000 + i))
            .collect();
        let check = |server: &SpatialServer, oracle: &[Point], cx: &mut QueryContext| {
            let c = Point::new(0.5, 0.5);
            for r in [0.0, 0.04, 0.3] {
                let mut got: Vec<u64> =
                    server.range_query(&c, r, cx).iter().map(|p| p.id).collect();
                let mut truth: Vec<u64> = brute_force::range_query(oracle, &c, r)
                    .iter()
                    .map(|p| p.id)
                    .collect();
                got.sort_unstable();
                truth.sort_unstable();
                assert_eq!(got, truth, "r = {r}");
            }
            let snap = server.snapshot();
            let mut got: Vec<(u64, u64)> = Vec::new();
            snap.distance_join_probes(&probes, 0.05, cx, &mut |p, q| got.push((p.id, q.id)));
            let mut truth: Vec<(u64, u64)> = brute_force::distance_join(oracle, &probes, 0.05)
                .iter()
                .map(|(p, q)| (p.id, q.id))
                .collect();
            got.sort_unstable();
            truth.sort_unstable();
            assert_eq!(got, truth);
            // Enumeration sees exactly the live set.
            let mut n = 0;
            snap.for_each_point(&mut |_| n += 1);
            assert_eq!(n, oracle.len());
        };
        let mut cx = QueryContext::new();
        check(&server, &oracle, &mut cx);
        // Folding the delta into a fresh base must not change any answer.
        assert!(server.compact_now());
        check(&server, &oracle, &mut cx);
        // The server also joins through the SpatialIndex facade.
        let other = ScanIndex::new(probes.clone());
        let via_trait = SpatialIndex::distance_join(&server, &other, 0.05, &mut cx);
        assert_eq!(
            via_trait.len(),
            brute_force::distance_join(&oracle, &probes, 0.05).len()
        );
    }

    #[test]
    fn snapshots_are_frozen_views() {
        let (data, server) = serve(200, 13);
        let before = server.snapshot();
        let extra = Point::with_id(0.505, 0.505, 77_000);
        server.insert(extra);
        server.delete(&data[0]);
        let after = server.snapshot();

        let mut cx = QueryContext::new();
        // The old view still sees the pre-write world.
        assert_eq!(before.seq(), 0);
        assert_eq!(before.len(), 200);
        assert!(before.point_query(&extra, &mut cx).is_none());
        assert_eq!(
            before.point_query(&data[0], &mut cx).map(|p| p.id),
            Some(data[0].id)
        );
        // The new view sees both writes.
        assert_eq!(after.seq(), 2);
        assert_eq!(after.len(), 200);
        assert_eq!(
            after.point_query(&extra, &mut cx).map(|p| p.id),
            Some(extra.id)
        );
        assert!(after.point_query(&data[0], &mut cx).is_none());
    }

    #[test]
    fn old_epoch_snapshots_survive_a_swap() {
        let (data, server) = serve(200, 17);
        server.delete(&data[3]);
        let old = server.snapshot();
        assert!(server.compact_now());
        let new = server.snapshot();
        assert_eq!(old.epoch_id(), 0);
        assert_eq!(new.epoch_id(), 1);
        let mut cx = QueryContext::new();
        // Both views agree (the old one reads base + delta, the new one a
        // folded base), and both exclude the deleted point.
        assert_eq!(old.len(), new.len());
        assert!(old.point_query(&data[3], &mut cx).is_none());
        assert!(new.point_query(&data[3], &mut cx).is_none());
        assert_eq!(
            old.point_query(&data[8], &mut cx).map(|p| p.id),
            new.point_query(&data[8], &mut cx).map(|p| p.id),
        );
    }

    #[test]
    fn background_compaction_triggers_on_threshold() {
        let data = generate(Distribution::Uniform, 400, 19);
        let server = SpatialServer::new(
            &data,
            scan_rebuild(),
            ServerConfig::default().with_compact_threshold(32),
        );
        for i in 0..200u64 {
            server.insert(Point::with_id(
                (0.11 * i as f64) % 1.0,
                (0.07 * i as f64) % 1.0,
                50_000 + i,
            ));
        }
        // The background thread needs a moment; poll briefly.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.stats().compactions == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = server.stats();
        assert!(stats.compactions >= 1, "no background compaction ran");
        assert_eq!(stats.len, 600);
        assert_eq!(stats.seq, 200);
        let mut cx = QueryContext::new();
        assert_eq!(
            server.point_query(&data[5], &mut cx).map(|p| p.id),
            Some(data[5].id)
        );
    }

    #[test]
    fn concurrent_readers_and_writer_stay_consistent() {
        let (data, server) = serve(2_000, 23);
        let writes: Vec<Point> = (0..300u64)
            .map(|i| {
                Point::with_id(
                    (0.003 * i as f64 + 0.001) % 1.0,
                    (0.007 * i as f64 + 0.002) % 1.0,
                    100_000 + i,
                )
            })
            .collect();
        std::thread::scope(|scope| {
            let server = &server;
            let data = &data;
            scope.spawn(move || {
                for (i, p) in writes.iter().enumerate() {
                    server.insert(*p);
                    if i % 4 == 0 {
                        server.delete(&data[i]);
                    }
                    if i % 64 == 0 {
                        server.compact_now();
                    }
                }
            });
            for _ in 0..3 {
                scope.spawn(move || {
                    let mut cx = QueryContext::new();
                    for round in 0..200 {
                        let snap = server.snapshot();
                        let frozen_len = snap.len();
                        let q = data[(round * 7) % data.len()];
                        if let Some(hit) = snap.point_query(&q, &mut cx) {
                            assert_eq!(hit.id, q.id);
                        }
                        // A frozen view's length never changes.
                        assert_eq!(snap.len(), frozen_len);
                    }
                });
            }
        });
        assert_eq!(server.stats().seq, 300 + 75);
        assert_eq!(server.len(), 2_000 + 300 - 75);
    }

    #[test]
    fn server_implements_spatial_index() {
        let (data, mut server) = serve(300, 29);
        fn takes_index(ix: &mut dyn SpatialIndex, probe: Point) {
            let mut cx = QueryContext::new();
            assert!(ix.point_query(&probe, &mut cx).is_some());
            let n = ix.len();
            ix.insert(Point::with_id(0.42, 0.42, 123_456));
            assert_eq!(ix.len(), n + 1);
            assert!(ix.delete(&Point::with_id(0.42, 0.42, 123_456)));
            ix.rebuild();
            assert_eq!(ix.len(), n);
            assert!(ix.size_bytes() > 0);
            assert!(ix.height() >= 1);
        }
        takes_index(&mut server, data[0]);
        assert_eq!(common::SpatialIndex::name(&server), "Scan");
        // rebuild() compacted, so the write survived into epoch 1's base.
        assert!(server.stats().epoch >= 1);
    }

    #[test]
    fn masked_duplicate_locations_resolve_in_vec_order() {
        // Same location, distinct ids, in deliberately non-ascending order:
        // point queries must walk the canonical Vec order as copies are
        // deleted, exactly like a plain scan.
        let pts = vec![
            Point::with_id(0.5, 0.5, 30),
            Point::with_id(0.5, 0.5, 20),
            Point::with_id(0.5, 0.5, 10),
        ];
        let server = SpatialServer::new(&pts, scan_rebuild(), manual_cfg());
        let mut cx = QueryContext::new();
        let q = Point::new(0.5, 0.5);
        assert_eq!(server.point_query(&q, &mut cx).map(|p| p.id), Some(30));
        server.delete(&Point::with_id(0.5, 0.5, 30));
        assert_eq!(
            server.point_query(&q, &mut cx).map(|p| p.id),
            Some(20),
            "next Vec-order match, not the minimum id"
        );
        server.delete(&Point::with_id(0.5, 0.5, 20));
        assert_eq!(server.point_query(&q, &mut cx).map(|p| p.id), Some(10));
        server.delete(&Point::with_id(0.5, 0.5, 10));
        assert!(server.point_query(&q, &mut cx).is_none());
        assert_eq!(server.len(), 0);
    }

    #[test]
    fn duplicate_identical_inserts_survive_compaction_and_delete_fully() {
        let server = SpatialServer::new(&[], scan_rebuild(), manual_cfg());
        let p = Point::with_id(0.5, 0.5, 1);
        server.insert(p);
        server.insert(p);
        assert_eq!(server.len(), 2);
        // Fold both identical copies into the base, then delete: one delete
        // removes every copy (Vec semantics), and len/queries agree.
        assert!(server.compact_now());
        assert_eq!(server.len(), 2);
        let (removed, _) = server.delete(&p);
        assert!(removed);
        assert_eq!(server.len(), 0);
        let mut cx = QueryContext::new();
        assert!(server.point_query(&p, &mut cx).is_none());
        assert!(server.window_query(&Rect::unit(), &mut cx).is_empty());
        assert!(server.knn_query(&p, 5, &mut cx).is_empty());
        // kNN widening stays correct with other live points around.
        let q = Point::with_id(0.25, 0.25, 9);
        server.insert(q);
        assert_eq!(
            server
                .knn_query(&p, 2, &mut cx)
                .iter()
                .map(|x| x.id)
                .collect::<Vec<_>>(),
            vec![9]
        );
    }

    #[test]
    fn telemetry_traces_compactions_and_write_depth() {
        let (_, server) = serve(200, 31);
        for i in 0..10u64 {
            server.insert(Point::with_id(0.001 * i as f64, 0.5, 40_000 + i));
        }
        let t = server.telemetry();
        let snap = t.metrics.snapshot();
        assert_eq!(snap.gauge("server.delta_ops"), Some(10));
        assert_eq!(snap.gauge("server.seq"), Some(10));
        assert!(server.compact_now());
        let snap = t.metrics.snapshot();
        assert_eq!(snap.gauge("server.delta_ops"), Some(0));
        assert_eq!(snap.gauge("server.epoch"), Some(1));
        let pause = snap.histogram("server.compaction_pause_us").unwrap();
        assert_eq!(pause.count, 1);
        let events = t.journal.snapshot().events;
        let names: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(names[0], "server-start");
        assert!(names.contains(&"compaction-start"));
        assert!(names.contains(&"compaction-end"));
        assert!(names.contains(&"epoch-swap"));
        let end = events
            .iter()
            .find_map(|e| match e.kind {
                EventKind::CompactionEnd { points, .. } => Some(points),
                _ => None,
            })
            .unwrap();
        assert_eq!(end, 210);
    }

    /// A scan index that opts into the maintenance protocol: one "subtree"
    /// whose drift is the op count since the last (partial) retrain.  Lets
    /// the policy/fallback machinery be tested without a learned index.
    #[derive(Clone)]
    struct MaintScan {
        inner: ScanIndex,
        ops: u64,
    }

    impl MaintScan {
        fn new(points: Vec<Point>) -> Self {
            Self {
                inner: ScanIndex::new(points),
                ops: 0,
            }
        }
    }

    impl SpatialIndex for MaintScan {
        fn name(&self) -> &'static str {
            "MaintScan"
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn point_query_visit(&self, q: &Point, cx: &mut QueryContext, visit: &mut CopyVisit) {
            self.inner.point_query_visit(q, cx, visit)
        }
        fn window_query_visit(
            &self,
            window: &Rect,
            cx: &mut QueryContext,
            visit: &mut dyn FnMut(&Point),
        ) {
            self.inner.window_query_visit(window, cx, visit)
        }
        fn knn_query_visit(
            &self,
            q: &Point,
            k: usize,
            cx: &mut QueryContext,
            visit: &mut dyn FnMut(&Point),
        ) {
            self.inner.knn_query_visit(q, k, cx, visit)
        }
        fn for_each_point(&self, visit: &mut dyn FnMut(&Point)) {
            self.inner.for_each_point(visit)
        }
        fn insert(&mut self, p: Point) {
            self.ops += 1;
            self.inner.insert(p);
        }
        fn delete(&mut self, p: &Point) -> bool {
            let removed = self.inner.delete(p);
            if removed {
                self.ops += 1;
            }
            removed
        }
        fn size_bytes(&self) -> usize {
            self.inner.size_bytes()
        }
        fn height(&self) -> usize {
            self.inner.height()
        }
        fn maintenance_stats(&self) -> Option<common::MaintenanceStats> {
            Some(common::MaintenanceStats {
                ops_since_train: self.ops,
                widened_below: 0,
                widened_above: 0,
                stale_subtrees: usize::from(self.ops > 0),
                subtrees: 1,
            })
        }
        fn rebuild_partial(&mut self, budget: &MaintenanceBudget) -> usize {
            let retrain = self.ops > 0 && budget.max_subtrees >= 1;
            if retrain {
                self.ops = 0;
            }
            usize::from(retrain)
        }
        fn clone_index(&self) -> Option<Box<dyn SpatialIndex>> {
            Some(Box::new(self.clone()))
        }
    }

    pub(crate) fn maint_rebuild() -> RebuildFn {
        Box::new(|pts| Box::new(MaintScan::new(pts.to_vec())))
    }

    #[test]
    fn policy_driven_compaction_runs_partial_passes() {
        let data = generate(Distribution::skewed_default(), 400, 37);
        let mut oracle = data.clone();
        let server = SpatialServer::new(&data, maint_rebuild(), manual_cfg());
        for i in 0..50u64 {
            let p = Point::with_id(0.001 * i as f64, 0.77, 60_000 + i);
            server.insert(p);
            oracle.push(p);
        }
        assert!(server.maintain_now());
        let stats = server.stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.partial_compactions, 1);
        assert_eq!(stats.subtree_rebuilds, 1);
        assert_eq!(stats.delta_ops, 0);
        assert_eq!(stats.len, oracle.len());
        // The merged view still matches the oracle after the partial swap.
        let mut cx = QueryContext::new();
        for q in oracle.iter().step_by(37) {
            assert_eq!(server.point_query(q, &mut cx).map(|p| p.id), Some(q.id));
        }
        // Journal and metrics say "partial", not "full".
        let t = server.telemetry();
        let names: Vec<&str> = t
            .journal
            .snapshot()
            .events
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert!(names.contains(&"partial-compaction-end"));
        assert!(!names.contains(&"compaction-end"));
        let m = t.metrics.snapshot();
        assert_eq!(m.counter("server.compactions_partial"), Some(1));
        assert_eq!(m.counter("server.compactions_full"), Some(0));
        assert_eq!(m.counter("server.subtree_rebuilds"), Some(1));
        assert_eq!(m.histogram("server.partial_rebuild_us").unwrap().count, 1);
        // Drift gauges were refreshed from the post-pass base.
        assert_eq!(m.gauge("server.maint_ops_since_train"), Some(0));
        assert_eq!(m.gauge("server.maint_stale_subtrees"), Some(0));

        // A forced full pass next: `stats()` agrees with the counters
        // across one pass of each kind.
        server.insert(Point::with_id(0.5, 0.5, 70_000));
        assert!(server.compact_now());
        let stats = server.stats();
        let m = t.metrics.snapshot();
        assert_eq!(
            (
                stats.compactions,
                stats.partial_compactions,
                stats.subtree_rebuilds
            ),
            (2, 1, 1)
        );
        assert_eq!(m.counter("server.compactions_full"), Some(1));
        assert_eq!(
            m.counter("server.compactions_partial"),
            Some(stats.partial_compactions)
        );
        assert_eq!(
            m.counter("server.subtree_rebuilds"),
            Some(stats.subtree_rebuilds)
        );
    }

    #[test]
    fn the_pass_clock_covers_the_fold_the_rebuild_and_the_swap() {
        // `rebuild_us` times the rebuild (a full pass's fold into the base's
        // points included) and `pause_us` the swap alone;
        // `server.compaction_pass_us` is the whole pass, for full and
        // partial passes alike.
        for (rebuild, rebuild_clock) in [
            (scan_rebuild(), "server.compaction_rebuild_us"),
            (maint_rebuild(), "server.partial_rebuild_us"),
        ] {
            let data = generate(Distribution::skewed_default(), 2_000, 53);
            let server = SpatialServer::new(&data, rebuild, manual_cfg());
            for (i, victim) in data.iter().enumerate().skip(1).step_by(4) {
                server.delete(victim);
                server.insert(Point::with_id(victim.y, victim.x, 80_000 + i as u64));
            }
            assert!(server.maintain_now());
            let m = server.telemetry().metrics.snapshot();
            let pass = m.histogram("server.compaction_pass_us").unwrap();
            let rebuild = m.histogram(rebuild_clock).unwrap();
            let pause = m.histogram("server.compaction_pause_us").unwrap();
            assert_eq!((pass.count, rebuild.count, pause.count), (1, 1, 1));
            assert!(
                pass.sum >= rebuild.sum + pause.sum,
                "pass {} us < rebuild {} us + pause {} us",
                pass.sum,
                rebuild.sum,
                pause.sum
            );
            // A pass with nothing to fold is not a pass.
            assert!(!server.maintain_now());
            let m = server.telemetry().metrics.snapshot();
            assert_eq!(m.histogram("server.compaction_pass_us").unwrap().count, 1);
        }
    }

    #[test]
    fn an_id_0_delete_goes_partial_and_removes_only_that_id() {
        // Id 0 is an ordinary id: the replay removes the copies that carry
        // it and leaves the other ids at the same location alone.
        let server = SpatialServer::new(&[], maint_rebuild(), manual_cfg());
        let zero = Point::with_id(0.3, 0.3, 0);
        let seven = Point::with_id(0.3, 0.3, 7);
        server.insert(Point::with_id(0.6, 0.6, 8));
        server.insert(seven);
        server.insert(zero);
        server.insert(zero);
        assert!(server.maintain_now());
        assert_eq!(server.delete(&zero), (true, 5));
        assert!(server.maintain_now());
        let stats = server.stats();
        assert_eq!(stats.compactions, 2);
        assert_eq!(stats.partial_compactions, 2, "an id-0 delete went full");
        assert_eq!(server.len(), 2);
        let mut cx = QueryContext::new();
        assert_eq!(server.point_query(&zero, &mut cx), Some(seven));
        assert!(!server.delete(&zero).0);
    }

    #[test]
    fn maintain_now_falls_back_to_full_for_plain_bases() {
        // ScanIndex reports no maintenance state, so Auto resolves to Full.
        let (_, server) = serve(100, 43);
        server.insert(Point::with_id(0.9, 0.9, 50_000));
        assert!(server.maintain_now());
        let stats = server.stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.partial_compactions, 0);
    }

    #[test]
    fn delta_only_delete_does_not_resurrect_after_partial_compaction() {
        // Regression: a point that lived only in the delta overlay (insert
        // + delete both buffered, never folded) must stay dead through a
        // *partial* pass, which replays the log into a clone instead of
        // rebuilding from the folded points.
        let data = generate(Distribution::Uniform, 200, 47);
        let server = SpatialServer::new(&data, maint_rebuild(), manual_cfg());
        let ghost = Point::with_id(0.123, 0.987, 70_001);
        server.insert(ghost);
        let (removed, _) = server.delete(&ghost);
        assert!(removed);
        // Duplicate copies of one key must also die together: the Vec fold
        // and the one replayed `delete` both remove every matching copy.
        let twin = Point::with_id(0.222, 0.333, 70_002);
        server.insert(twin);
        server.insert(twin);
        let (removed, _) = server.delete(&twin);
        assert!(removed);
        assert!(server.maintain_now());
        assert_eq!(server.stats().partial_compactions, 1);
        let mut cx = QueryContext::new();
        assert!(server.point_query(&ghost, &mut cx).is_none());
        assert!(server.point_query(&twin, &mut cx).is_none());
        assert_eq!(server.len(), 200);
        // And the same holds for every query class via the merged view.
        let w = Rect::from_point(ghost);
        assert!(server.window_query(&w, &mut cx).is_empty());
        assert!(!server
            .knn_query(&twin, 5, &mut cx)
            .iter()
            .any(|p| p.id == twin.id));
    }

    #[test]
    fn empty_server_answers_gracefully() {
        let server = SpatialServer::new(&[], scan_rebuild(), manual_cfg());
        let mut cx = QueryContext::new();
        assert!(server.is_empty());
        assert!(server.point_query(&Point::new(0.5, 0.5), &mut cx).is_none());
        assert!(server.window_query(&Rect::unit(), &mut cx).is_empty());
        assert!(server
            .knn_query(&Point::new(0.5, 0.5), 5, &mut cx)
            .is_empty());
        // Writes onto an empty base work too.
        server.insert(Point::with_id(0.5, 0.5, 1));
        assert_eq!(server.len(), 1);
        assert!(server.compact_now());
        assert_eq!(server.len(), 1);
    }
}
