//! The compaction pass as five steps on a [`Pass`] — capture, build,
//! catch-up, swap, record — and the background thread that runs it.
//!
//! A delete, and the catch-up's replay of one, learns how many base copies
//! it masks from [`base_copies`]: the base's own point lookup, which visits
//! every stored copy of a location.

use crate::delta::{self, DeltaState};
use crate::{Core, Epoch, WriteOp, MAX_SUBTREES, PAUSE_BUDGET_US};
use common::{MaintenanceBudget, QueryContext, SpatialIndex};
use geom::Point;
use obs::EventKind;
use std::ops::ControlFlow;
use std::sync::atomic::Ordering;
use std::sync::{Arc, MutexGuard, RwLock};
use std::time::{Duration, Instant};

/// How many copies of `p` (same location and id) `base` holds, counted by
/// the base's own point lookup, which visits every stored copy of the
/// location.  A delete asks it once per key, so `len()`, the kNN widening
/// cap and the delete's result stay exact.  Its cost is not charged to any
/// query.
pub(crate) fn base_copies(base: &dyn SpatialIndex, p: &Point) -> u32 {
    let mut copies = 0;
    base.point_query_visit(p, &mut QueryContext::new(), &mut |q| {
        copies += u32::from(q.id == p.id);
        ControlFlow::Continue(())
    });
    copies
}

/// Runs the steps of one pass in order; returns whether an epoch swapped
/// (false when the delta was empty).  Only a `partial` pass asks the base
/// for [`SpatialIndex::clone_index`].
pub(crate) fn run(core: &Core, partial: bool) -> bool {
    let Some(mut pass) = Pass::capture(core) else {
        return false;
    };
    let next = pass.build(partial);
    pass.catch_up(&next);
    pass.swap(&next);
    pass.record(&next);
    true
}

/// One compaction pass over the epoch that was current when it started.
/// Only passes swap epochs, and the pass gate held from capture to record
/// runs them one at a time, so that epoch stays current until the swap and
/// its delta only grows meanwhile.
pub(crate) struct Pass<'a> {
    core: &'a Core,
    _gate: MutexGuard<'a, ()>,
    started: Instant,
    /// The epoch being folded, and the prefix of its delta the pass folds.
    epoch: Arc<Epoch>,
    captured: Arc<DeltaState>,
    /// The build's and the swap's clocks, and `(subtrees, µs)` of a partial
    /// build's `rebuild_partial` alone (`None` for a full build).
    rebuild_us: u64,
    pause_us: u64,
    repaired: Option<(u64, u64)>,
}

impl<'a> Pass<'a> {
    /// **Capture**: takes the pass gate, then the current epoch and the
    /// `Arc` of its delta — the prefix up to `seq()` that this pass folds —
    /// and journals `CompactionStart`.  `None` when nothing is buffered.
    pub(crate) fn capture(core: &'a Core) -> Option<Self> {
        let gate = core.pass_gate.lock().expect("compact lock poisoned");
        let started = Instant::now();
        let epoch = core.current_epoch();
        let captured = epoch.delta.read().expect("delta lock poisoned").clone();
        if captured.is_empty() {
            return None;
        }
        core.telemetry.journal.record(EventKind::CompactionStart {
            epoch: epoch.id,
            delta_ops: captured.op_count() as u64,
        });
        Some(Self {
            core,
            _gate: gate,
            started,
            epoch,
            captured,
            rebuild_us: 0,
            pause_us: 0,
            repaired: None,
        })
    }

    /// **Build**: the next epoch, not yet visible: a base holding the
    /// captured view's live points and an empty delta from the fold point
    /// on.  A partial build replays the captured ops into the base's clone
    /// and repairs the worn subtrees; a full one folds them into the base's
    /// points and calls the rebuild closure.  Only this step differs.
    pub(crate) fn build(&mut self, partial: bool) -> Arc<Epoch> {
        let t0 = Instant::now();
        let (epoch, captured) = (&self.epoch, &self.captured);
        let fold_seq = captured.seq();
        let base = match partial.then(|| epoch.base.clone_index()).flatten() {
            Some(mut clone) => {
                for op in captured.log() {
                    match op.op {
                        WriteOp::Insert(p) => clone.insert(p),
                        WriteOp::Delete(p) => {
                            clone.delete(&p);
                        }
                    }
                }
                let budget = self.core.partial_budget();
                let repair_t0 = Instant::now();
                let subtrees = clone.rebuild_partial(&budget) as u64;
                self.repaired = Some((subtrees, repair_t0.elapsed().as_micros() as u64));
                clone
            }
            None => {
                let mut points = Vec::with_capacity(epoch.base.len() + captured.op_count());
                epoch.base.for_each_point(&mut |p| points.push(*p));
                delta::apply_log_to_points(&mut points, captured.log(), fold_seq);
                (self.core.rebuild)(&points)
            }
        };
        self.rebuild_us = t0.elapsed().as_micros() as u64;
        debug_assert_eq!(
            base.len(),
            epoch.base.len() - captured.masked_base() + captured.live_inserts(),
            "the new base must hold the captured view's live points"
        );
        Arc::new(Epoch {
            id: epoch.id + 1,
            base,
            delta: RwLock::new(Arc::new(DeltaState::resume_at(fold_seq))),
        })
    }

    /// **Catch-up**: replays into `next`'s delta, in sequence order, the ops
    /// that landed after the last one it holds, each delete asking `next`'s
    /// base (which folded the captured ops) for its copies.  Runs before the
    /// write gate, and again under it in [`swap`](Self::swap), where only
    /// what landed meanwhile is left.
    pub(crate) fn catch_up(&self, next: &Epoch) {
        let epoch = &self.epoch;
        let landed = epoch.delta.read().expect("delta lock poisoned").clone();
        let mut guard = next.delta.write().expect("delta lock poisoned");
        let leftover = Arc::make_mut(&mut guard);
        let done = leftover.seq();
        for op in landed.log().iter().filter(|o| o.seq > done) {
            leftover.apply(*op, &|p| base_copies(next.base.as_ref(), p));
        }
    }

    /// **Swap**: under the write gate, where no op can land, catches `next`
    /// up one last time and makes it the current epoch.  Readers are not
    /// blocked: they only take the epoch read lock for an `Arc` clone.
    pub(crate) fn swap(&mut self, next: &Arc<Epoch>) {
        let t0 = Instant::now();
        let _gate = self.core.write_gate.lock().expect("write gate poisoned");
        self.catch_up(next);
        let leftover = next.delta.read().expect("delta lock poisoned");
        let metrics = &self.core.metrics;
        metrics.delta_ops.set(leftover.op_count() as i64);
        let live = next.base.len() - leftover.masked_base() + leftover.live_inserts();
        metrics.points.set(live as i64);
        *self.core.epoch.write().expect("epoch lock poisoned") = Arc::clone(next);
        self.pause_us = t0.elapsed().as_micros() as u64;
    }

    /// **Record**: the pass's gauges, histograms, counters, repair cost
    /// estimate and journal events.  Changes no answer.
    pub(crate) fn record(self, next: &Epoch) {
        let (core, metrics) = (self.core, &self.core.metrics);
        let journal = &core.telemetry.journal;
        metrics.set_base(next.base.as_ref());
        metrics.epoch.set(next.id.min(i64::MAX as u64) as i64);
        metrics.compaction_pause_us.record(self.pause_us);
        metrics
            .compaction_pass_us
            .record(self.started.elapsed().as_micros() as u64);
        let (epoch, pause_us, rebuild_us) = (next.id, self.pause_us, self.rebuild_us);
        match self.repaired {
            Some((subtrees, repair_us)) => {
                metrics.compactions_partial.inc();
                metrics.subtree_rebuilds.add(subtrees);
                metrics.partial_rebuild_us.record(rebuild_us);
                if let Some(per) = repair_us.checked_div(subtrees) {
                    let per = per.max(1);
                    let ema = core.partial_cost_ema_us.load(Ordering::Relaxed);
                    let updated = if ema == 0 { per } else { (3 * ema + per) / 4 };
                    core.partial_cost_ema_us.store(updated, Ordering::Relaxed);
                }
                journal.record(EventKind::PartialCompactionEnd {
                    epoch,
                    pause_us,
                    rebuild_us,
                    subtrees,
                });
            }
            None => {
                metrics.compactions_full.inc();
                metrics.compaction_rebuild_us.record(rebuild_us);
                journal.record(EventKind::CompactionEnd {
                    epoch,
                    pause_us,
                    rebuild_us,
                    points: next.base.len() as u64,
                });
            }
        }
        journal.record(EventKind::EpochSwap {
            epoch,
            seq: self.captured.seq(),
        });
    }
}

impl Core {
    /// How many subtrees the next partial pass may repair:
    /// [`MAX_SUBTREES`], shrunk so that `subtrees x estimated per-subtree
    /// cost` fits [`PAUSE_BUDGET_US`] once a cost estimate exists.
    fn partial_budget(&self) -> MaintenanceBudget {
        let mut max_subtrees = MAX_SUBTREES;
        let ema = self.partial_cost_ema_us.load(Ordering::Relaxed);
        if let Some(affordable) = PAUSE_BUDGET_US.checked_div(ema) {
            let affordable = affordable.max(1);
            max_subtrees = max_subtrees.min(affordable.min(usize::MAX as u64) as usize);
        }
        MaintenanceBudget {
            max_subtrees,
            drift_threshold: self.cfg.drift_trigger,
        }
    }
}

/// Wake-up state of the compaction thread.
#[derive(Default)]
pub(crate) struct CompactorSignal {
    pub(crate) kicked: bool,
    pub(crate) shutdown: bool,
}

/// How long the compaction thread sleeps between trigger checks when nobody
/// kicks it (a kick from the write path wakes it immediately).
const COMPACTOR_POLL: Duration = Duration::from_millis(25);

/// The background compaction thread: a partial pass whenever the current
/// delta holds `compact_threshold` ops, until the server shuts it down.
pub(crate) fn compactor_loop(core: &Core) {
    loop {
        {
            let mut sig = core.signal.lock().expect("signal lock poisoned");
            if !sig.shutdown && !sig.kicked {
                let cv = &core.signal_cv;
                sig = cv
                    .wait_timeout(sig, COMPACTOR_POLL)
                    .expect("signal lock poisoned")
                    .0;
            }
            if sig.shutdown {
                return;
            }
            sig.kicked = false;
        }
        let buffered = core.snapshot().delta.op_count();
        if buffered >= core.cfg.compact_threshold {
            run(core, true);
        }
    }
}

#[cfg(test)]
mod tests {
    //! The pass's steps driven one at a time from a single thread, with
    //! seeded writes between every pair of steps and every answer compared
    //! with a `Vec` oracle after each step — the interleavings of
    //! `serve_concurrent` and the soaks, reproducible from a seed.

    use super::*;
    use crate::tests::{maint_rebuild, scan_rebuild};
    use crate::{ServerConfig, SpatialServer};
    use common::brute_force;
    use geom::order_key;
    use geom::Rect;

    /// Seeds that once failed, run before the range: a failing seed prints
    /// itself and is added here, so it stays a row when the range changes.
    const FIXED_SEEDS: &[u64] = &[];
    /// Seeds `0..SEEDS` run after the fixed rows.
    const SEEDS: u64 = 150;
    /// Passes per server and seed.
    const PASSES: u64 = 4;
    /// Coordinates of every point: few enough that locations and keys
    /// collide, with `-0.0` beside `0.0` (one location, two bit patterns).
    const GRID: [f64; 6] = [0.0, -0.0, 0.3, 0.5, 0.7, 1.0];

    /// splitmix64: the crate has no `rand` dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn point(&mut self) -> Point {
            let (x, y) = (GRID[self.below(GRID.len())], GRID[self.below(GRID.len())]);
            Point::with_id(x, y, self.below(6) as u64)
        }
    }

    /// The `Vec` oracle of one server, and the seeded source of its writes.
    struct Oracle {
        seed: u64,
        rng: Rng,
        points: Vec<Point>,
        /// Every point deleted so far: targets of ghost deletes and
        /// re-inserts.
        deleted: Vec<Point>,
        last_insert: Option<Point>,
    }

    impl Oracle {
        /// One seeded write, applied to the server and to the oracle; a
        /// delete's `removed` flag must match the oracle's.
        fn write(&mut self, server: &SpatialServer) {
            let live = |o: &mut Self| {
                (!o.points.is_empty()).then(|| o.points[o.rng.below(o.points.len())])
            };
            let op = match self.rng.below(8) {
                // A folded duplicate once a pass runs: an identical copy.
                1 => live(self).map(WriteOp::Insert),
                // The same location under another id.
                2 => live(self).map(|p| WriteOp::Insert(Point::with_id(p.x, p.y, p.id + 1))),
                3 => live(self).map(WriteOp::Delete),
                // A delta point, or a base one once folded: insert-then-delete
                // ghosts when no pass ran in between.
                4 => self.last_insert.map(WriteOp::Delete),
                // Ghost delete of a point deleted before, base or delta.
                5 if !self.deleted.is_empty() => Some(WriteOp::Delete(
                    self.deleted[self.rng.below(self.deleted.len())],
                )),
                6 if !self.deleted.is_empty() => Some(WriteOp::Insert(
                    self.deleted[self.rng.below(self.deleted.len())],
                )),
                7 => Some(WriteOp::Delete(self.rng.point())),
                _ => None,
            }
            .unwrap_or_else(|| WriteOp::Insert(self.rng.point()));
            let (removed, _) = server.apply(op);
            match op {
                WriteOp::Insert(p) => {
                    self.points.push(p);
                    self.last_insert = Some(p);
                }
                WriteOp::Delete(p) => {
                    let before = self.points.len();
                    self.points
                        .retain(|x| !(x.same_location(&p) && x.id == p.id));
                    assert_eq!(
                        removed,
                        self.points.len() < before,
                        "seed {}: removed flag of deleting {p:?}",
                        self.seed
                    );
                    self.deleted.push(p);
                }
            }
        }

        /// Up to three writes, then every answer checked after `step`.
        fn step(&mut self, server: &SpatialServer, step: &str) {
            for _ in 0..self.rng.below(4) {
                self.write(server);
            }
            self.check(server, step);
        }

        fn check(&self, server: &SpatialServer, step: &str) {
            let at = format!("seed {}, after {step}", self.seed);
            let snap = server.snapshot();
            let mut cx = QueryContext::new();
            assert_eq!(snap.len(), self.points.len(), "{at}: len");
            for x in GRID {
                for y in GRID {
                    let q = Point::new(x, y);
                    assert_eq!(
                        snap.point_query(&q, &mut cx).map(|p| p.id),
                        self.points
                            .iter()
                            .find(|p| p.same_location(&q))
                            .map(|p| p.id),
                        "{at}: point query at {q:?}"
                    );
                }
            }
            let keys = |pts: Vec<Point>| {
                let mut keys: Vec<_> = pts
                    .iter()
                    .map(|p| (p.id, order_key(p.x), order_key(p.y)))
                    .collect();
                keys.sort_unstable();
                keys
            };
            for w in [
                Rect::new(0.0, 0.0, 1.0, 1.0),
                Rect::new(0.0, 0.0, 0.5, 0.5),
                Rect::new(0.3, 0.5, 1.0, 0.7),
                Rect::from_point(Point::new(0.5, 0.5)),
            ] {
                assert_eq!(
                    keys(snap.window_query(&w, &mut cx)),
                    keys(brute_force::window_query(&self.points, &w)),
                    "{at}: window {w:?}"
                );
            }
            let ranked = |q: &Point, pts: Vec<Point>| -> Vec<_> {
                pts.iter()
                    .map(|p| (order_key(p.dist_sq(q)), p.id))
                    .collect()
            };
            for q in [
                Point::new(0.5, 0.5),
                Point::new(0.1, 0.9),
                Point::new(0.0, 0.3),
            ] {
                for k in [1, 3, 8] {
                    assert_eq!(
                        ranked(&q, snap.knn_query(&q, k, &mut cx)),
                        ranked(&q, brute_force::knn_query(&self.points, &q, k)),
                        "{at}: {k}-NN of {q:?}"
                    );
                }
            }
        }
    }

    /// Runs `PASSES` passes step by step on a `ScanIndex` server (every pass
    /// full, `clone_index` offers no copy) and on a `MaintScan` server
    /// (partial and full passes alternating), with writes between every
    /// pair of steps.
    fn run_seed(seed: u64) {
        let mut rng = Rng(seed);
        for maint in [false, true] {
            let points: Vec<Point> = (0..10 + rng.below(20)).map(|_| rng.point()).collect();
            let rebuild = if maint {
                maint_rebuild()
            } else {
                scan_rebuild()
            };
            let cfg = ServerConfig::default().with_compact_threshold(usize::MAX);
            let server = SpatialServer::new(&points, rebuild, cfg);
            let mut oracle = Oracle {
                seed,
                rng,
                points,
                deleted: Vec::new(),
                last_insert: None,
            };
            let mut partial_passes = 0;
            for i in 0..PASSES {
                oracle.write(&server);
                oracle.step(&server, "the writes before a pass");
                let partial = (seed + i).is_multiple_of(2);
                partial_passes += u64::from(maint && partial);
                let mut pass = Pass::capture(&server.core).expect("writes are buffered");
                oracle.step(&server, "capture");
                let next = pass.build(partial);
                oracle.step(&server, "build");
                pass.catch_up(&next);
                oracle.step(&server, "catch_up");
                pass.swap(&next);
                oracle.step(&server, "swap");
                pass.record(&next);
                oracle.check(&server, "record");
            }
            let stats = server.stats();
            assert_eq!(
                (stats.compactions, stats.partial_compactions),
                (PASSES, partial_passes),
                "seed {seed}: passes"
            );
            rng = oracle.rng;
        }
    }

    #[test]
    fn the_steps_keep_every_answer_under_seeded_interleavings() {
        for seed in FIXED_SEEDS.iter().copied().chain(0..SEEDS) {
            if std::panic::catch_unwind(|| run_seed(seed)).is_err() {
                panic!("seed {seed} failed: add it to FIXED_SEEDS");
            }
        }
    }
}
