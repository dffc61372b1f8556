//! Shared abstractions used by every index in the reproduction.
//!
//! * [`SpatialIndex`] — the trait all indices (RSMI and the five baselines)
//!   implement so that the experiment harness, examples, and integration
//!   tests can treat them uniformly.  Five query classes (point, window,
//!   kNN, distance-range, distance-join) come in two forms: zero-copy
//!   visitor methods (the required core) and `Vec`-returning adapters.
//! * [`QueryContext`] / [`QueryStats`] — explicit per-query cost accounting
//!   (blocks touched, nodes visited, candidates scanned).  Indices never
//!   count accesses through interior mutability, so every index is
//!   `Send + Sync` and a single index can serve many threads, each with its
//!   own context.
//! * [`brute_force`] — reference implementations of every query type,
//!   used as ground truth for recall measurements and correctness tests.
//! * [`knn`] — the k-nearest rule every family and merge layer shares: the
//!   `(distance², id)` best-k list and Algorithm 3's region expansion.
//! * [`metrics`] — recall computation and small measurement helpers.
//! * [`parallel_map`] — jobs on scoped threads, results in input order:
//!   the RSMI bulk-load's subtrees and the sharded index's shards.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute_force;
pub mod knn;
pub mod metrics;
mod parallel;

pub use parallel::parallel_map;

use geom::{Point, Rect};
use std::ops::ControlFlow;

/// Per-query cost counters, the paper's "# block accesses" axis split into
/// its components so that learned and traditional indices stay comparable.
///
/// All counters accumulate: running several queries through the same
/// [`QueryContext`] sums their costs, which is what a caller's query loop
/// and the experiment harness rely on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Data blocks read.  For an external-memory deployment this is the I/O
    /// cost of the query.
    pub blocks_touched: u64,
    /// Directory / model nodes visited.  Tree baselines charge one unit per
    /// node so the totals remain comparable with the paper's accounting.
    pub nodes_visited: u64,
    /// Points examined (inside blocks) before filtering, a proxy for the CPU
    /// cost of a query.
    pub candidates_scanned: u64,
    /// Shards whose inner index was actually queried.  Zero for unsharded
    /// indices; a sharded serving layer charges one unit per shard it fans
    /// out to.
    pub shards_visited: u64,
    /// Shards skipped by the query planner (routing or MBR/mindist pruning)
    /// without touching their inner index.
    pub shards_pruned: u64,
}

impl QueryStats {
    /// The combined block + node access count — the quantity the paper
    /// reports as "# block accesses" (node accesses of the tree baselines
    /// are charged to the same axis, §6.1).
    #[inline]
    pub fn total_accesses(&self) -> u64 {
        self.blocks_touched + self.nodes_visited
    }

    /// Adds another stats record into this one.
    #[inline]
    pub fn merge(&mut self, other: &QueryStats) {
        self.blocks_touched += other.blocks_touched;
        self.nodes_visited += other.nodes_visited;
        self.candidates_scanned += other.candidates_scanned;
        self.shards_visited += other.shards_visited;
        self.shards_pruned += other.shards_pruned;
    }
}

impl std::ops::AddAssign for QueryStats {
    fn add_assign(&mut self, rhs: Self) {
        self.merge(&rhs);
    }
}

/// Mutable state threaded through every query.
///
/// A context is cheap to create; callers typically make one per query (to
/// get per-query stats) or one per batch (to get aggregate stats).  Because
/// the context — not the index — carries the counters, indices stay free of
/// interior mutability and can be shared across threads.
#[derive(Debug, Clone, Default)]
pub struct QueryContext {
    /// Cost counters accumulated by the queries run with this context.
    pub stats: QueryStats,
}

impl QueryContext {
    /// Creates a fresh context with zeroed counters.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges one data-block read.
    #[inline]
    pub fn count_block(&mut self) {
        self.stats.blocks_touched += 1;
    }

    /// Charges one directory/model-node visit.
    #[inline]
    pub fn count_node(&mut self) {
        self.stats.nodes_visited += 1;
    }

    /// Charges `n` candidate points examined.
    #[inline]
    pub fn count_candidates(&mut self, n: usize) {
        self.stats.candidates_scanned += n as u64;
    }

    /// Charges `n` shards skipped by the planner without touching their
    /// inner index.
    #[inline]
    pub fn count_shards_pruned(&mut self, n: usize) {
        self.stats.shards_pruned += n as u64;
    }

    /// Charges one data-block read whose `candidates` points will all be
    /// examined — the single place that defines the charging policy of a
    /// block scan, shared by every index implementation.
    #[inline]
    pub fn count_block_scan(&mut self, candidates: usize) {
        self.stats.blocks_touched += 1;
        self.stats.candidates_scanned += candidates as u64;
    }

    /// Returns the accumulated stats and resets the counters, so one context
    /// can be reused across queries while still reading per-query costs.
    #[inline]
    pub fn take_stats(&mut self) -> QueryStats {
        std::mem::take(&mut self.stats)
    }
}

/// Budget handed to [`SpatialIndex::rebuild_partial`]: how much
/// maintenance work one pass may do, and how stale a subtree must be before
/// its model is retrained.
///
/// The drift of a subtree is measured as the sum of error-bound widening
/// (in native position units) plus mutations since its model was last
/// trained, normalised by the subtree's capacity — see the maintenance
/// section of `ARCHITECTURE.md` for the exact formula each family uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaintenanceBudget {
    /// Maximum number of subtrees (leaves for RSMI) to maintain in this
    /// pass.  `usize::MAX` means "all due subtrees".
    pub max_subtrees: usize,
    /// Minimum drift score a subtree must reach to be retrained.  Below it
    /// a subtree keeps its model; an index may still repair its layout
    /// (RSMI re-packs leaves whose blocks wore, see `Rsmi::rebuild_partial`).
    pub drift_threshold: f64,
}

impl Default for MaintenanceBudget {
    fn default() -> Self {
        Self {
            max_subtrees: usize::MAX,
            drift_threshold: 0.0,
        }
    }
}

/// Aggregate maintenance state of an index, reported by
/// [`SpatialIndex::maintenance_stats`].  The serving layer reports these as
/// drift gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Mutations (inserts + deletes) applied since the last (partial or
    /// full) rebuild touched the affected subtree.
    pub ops_since_train: u64,
    /// Total error-bound widening below predictions accumulated by in-place
    /// inserts since training (native position units).
    pub widened_below: u64,
    /// Total error-bound widening above predictions (native position units).
    pub widened_above: u64,
    /// Subtrees whose drift currently exceeds the index's own staleness
    /// heuristic (used for gauges; the policy applies its own threshold).
    pub stale_subtrees: usize,
    /// Total retrainable subtrees (leaf models for RSMI).
    pub subtrees: usize,
}

/// The visitor of [`SpatialIndex::point_query_visit`]: called once per
/// stored copy, it breaks to end the probe.
pub type CopyVisit<'a> = dyn FnMut(&Point) -> ControlFlow<()> + 'a;

/// The interface shared by every spatial index in this repository.
///
/// The first three query types are the paper's: point queries (§4.1), window
/// queries (§4.2) and k-nearest-neighbour queries (§4.3).  Indices that only
/// produce approximate window/kNN answers (RSMI, ZM) document this on their
/// concrete types; the trait itself does not promise exactness.
///
/// Two further query classes extend the paper's workloads to the
/// distance-predicate shapes of the follow-up literature ("The Case for
/// Learned Spatial Indexes", Pandey et al.):
///
/// * **Distance-range queries** ([`range_query_visit`](Self::range_query_visit)):
///   all points within Euclidean distance `r` of a centre.  Unlike
///   window/kNN, range answers are **exact for every registered family** —
///   the approximate families override the default with an MBR-guided (RSMI)
///   or bounded-sweep (ZM) traversal instead of the learned scan-range
///   prediction, and a test-enforced oracle holds all of them to the
///   brute-force answer.
/// * **Index-nested distance joins** ([`distance_join`](Self::distance_join)):
///   all cross-index pairs `(p ∈ self, q ∈ other)` with `dist(p, q) ≤ r`.
///   The other index is enumerated exactly once through
///   [`for_each_point`](Self::for_each_point) and joined against this
///   index's structure; families with a directory override
///   [`distance_join_probes`](Self::distance_join_probes) to prune whole
///   subtrees/blocks/shards against the probe set instead of probing point
///   by point.
///
/// # Query forms
///
/// * **Visitor methods** ([`point_query_visit`](Self::point_query_visit),
///   [`window_query_visit`](Self::window_query_visit),
///   [`knn_query_visit`](Self::knn_query_visit),
///   [`range_query_visit`](Self::range_query_visit)) are the required core:
///   they hand each result to a callback by reference and never allocate on
///   behalf of the caller.
/// * **Adapters** ([`point_query`](Self::point_query) keeps the first copy;
///   [`window_query`](Self::window_query), [`knn_query`](Self::knn_query),
///   [`range_query`](Self::range_query) and
///   [`distance_join`](Self::distance_join) copy results into a fresh
///   vector) are provided for ergonomics.
///
/// A workload is the caller's loop over these one-query methods.  Because
/// every index is `Sync`, a caller that wants a parallel batch splits that
/// loop over workers itself (the `engine` crate's `executor::run_batch`
/// does this, one context per worker).
///
/// # Statistics
///
/// Every query charges its cost to the [`QueryContext`] passed in.  Indices
/// must not keep internal access counters: the `Send + Sync` supertrait
/// bound (and a compile-time conformance test) enforce that an index can be
/// shared across threads, each thread carrying its own context.
pub trait SpatialIndex: Send + Sync {
    /// A short human-readable name used in experiment output ("RSMI", "ZM",
    /// "Grid", "KDB", "HRR", "RR*").
    fn name(&self) -> &'static str;

    /// Number of points currently indexed.
    fn len(&self) -> usize;

    /// Whether the index holds no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls `visit` for every stored copy at exactly `q`'s coordinates,
    /// whatever its id, in the order the index's point lookup scans them,
    /// until `visit` breaks.  It opens only the blocks a lookup opens: the
    /// one place every copy of the location can be stored.
    fn point_query_visit(&self, q: &Point, cx: &mut QueryContext, visit: &mut CopyVisit);

    /// Looks up a point with exactly the query's coordinates and returns it
    /// (with its stored identifier), or `None` if it is not indexed: the
    /// first copy [`point_query_visit`](Self::point_query_visit) visits.
    fn point_query(&self, q: &Point, cx: &mut QueryContext) -> Option<Point> {
        let mut hit = None;
        self.point_query_visit(q, cx, &mut |p| {
            hit = Some(*p);
            ControlFlow::Break(())
        });
        hit
    }

    /// Calls `visit` for every result of the window query.  Visit order is
    /// unspecified; results never lie outside the window.
    fn window_query_visit(
        &self,
        window: &Rect,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    );

    /// Calls `visit` for (up to) the `k` nearest neighbours of `q`, closest
    /// first.
    fn knn_query_visit(
        &self,
        q: &Point,
        k: usize,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    );

    /// Visits every indexed point **exactly** (each stored copy once), in an
    /// unspecified order.
    ///
    /// This is the exact enumeration primitive the distance-join machinery
    /// builds on: the probe side of [`distance_join`](Self::distance_join)
    /// is materialised through it, so it must be exact even for families
    /// whose window/kNN answers are approximate (every family stores its
    /// points in blocks/leaves it can stream).  Enumeration is a
    /// maintenance-style streaming read, like rebuilds: it charges nothing
    /// to any [`QueryContext`].
    fn for_each_point(&self, visit: &mut dyn FnMut(&Point));

    /// Inserts a point.
    fn insert(&mut self, p: Point);

    /// Deletes, in one call, every stored copy whose `(x, y, id)` equals
    /// `p`'s — id 0 is an ordinary id, never "any id here" — and returns
    /// whether any copy was removed.  Copies at the same location under
    /// other ids stay.
    fn delete(&mut self, p: &Point) -> bool;

    /// Rebuilds the structure from its current contents, restoring optimal
    /// layout after many updates (the paper's RSMIr maintenance policy).
    /// Indices whose layout does not degrade may leave this a no-op.
    fn rebuild(&mut self) {}

    /// Approximate total size of the structure in bytes (data blocks plus
    /// directory / models), for the paper's index-size comparisons.
    fn size_bytes(&self) -> usize;

    /// Height of the structure: number of levels above the data blocks
    /// (model levels for the learned indices, node levels for trees).
    fn height(&self) -> usize;

    /// Number of learned sub-models (zero for traditional indices).
    fn model_count(&self) -> usize {
        0
    }

    /// Worst-case prediction error of the learned models as
    /// `(max_below, max_above)` in the structure's native position unit
    /// (blocks for block-directory models, positions for leaf models).
    /// `None` for structures with no learned component — the telemetry
    /// layer reports the bounds as live gauges so model drift under
    /// updates is observable without an offline bench run.
    fn model_error_bounds(&self) -> Option<(u64, u64)> {
        None
    }

    /// Reports the index's accumulated maintenance state (ops since train,
    /// error-bound widening, stale-subtree counts).  `None` for structures
    /// with no incremental-maintenance support.  The serving layer reports
    /// it as drift gauges.
    fn maintenance_stats(&self) -> Option<MaintenanceStats> {
        None
    }

    /// Maintains only the subtrees that drifted or wore, retraining those
    /// whose drift meets `budget.drift_threshold`, at most
    /// `budget.max_subtrees` of them — the incremental realisation of the
    /// paper's RSMIr maintenance hook — and returns how many it maintained.
    /// Exact answers after a partial rebuild must be identical to answers
    /// after a full [`rebuild`](Self::rebuild) on the same live set
    /// (test-enforced for every family that overrides this).
    ///
    /// The default falls back to a full rebuild and returns 0.
    fn rebuild_partial(&mut self, budget: &MaintenanceBudget) -> usize {
        let _ = budget;
        self.rebuild();
        0
    }

    /// Clones the index behind the trait object when a partial pass may
    /// maintain the copy — the one question a policy-driven compaction
    /// asks.  `Some`: the serving layer replays the pass's writes into the
    /// copy and calls [`rebuild_partial`](Self::rebuild_partial) on it while
    /// readers keep the current epoch.  `None` (no such support, or a
    /// sharded index with skewed shard sizes): it rebuilds fully.
    fn clone_index(&self) -> Option<Box<dyn SpatialIndex>> {
        None
    }

    /// Serialises the index's complete state into a snapshot, so that a
    /// build can be persisted and served again after a restart without
    /// reconstruction (blocks, chain links, model weights, directory — the
    /// loaded index answers every query with byte-identical results and
    /// [`QueryStats`]).
    ///
    /// Implementations append checksummed sections to the writer; the file
    /// header (magic, version, kind tag) and the load-time dispatch by kind
    /// live in the `registry` crate.  The default returns
    /// [`persist::PersistError::Unsupported`] so third-party index types
    /// opt in explicitly.
    fn write_snapshot(
        &self,
        writer: &mut persist::SnapshotWriter,
    ) -> Result<(), persist::PersistError> {
        let _ = writer;
        Err(persist::PersistError::Unsupported(self.name()))
    }

    // ------------------------------------------------------------------
    // Provided: distance-range queries
    // ------------------------------------------------------------------

    /// Calls `visit` for every point within Euclidean distance `radius` of
    /// `center` (boundary inclusive: `dist == radius` is a result).  Visit
    /// order is unspecified.  Non-finite or negative radii yield no results.
    ///
    /// The default derives the answer from the window machinery: a window
    /// query over the circle's circumscribing box, filtered by true
    /// distance.  That is exact wherever window queries are exact; the
    /// approximate families (RSMI, ZM) override this with an exact traversal
    /// of their own structure, so distance-range answers match the
    /// brute-force oracle for **every** registered family (test-enforced).
    fn range_query_visit(
        &self,
        center: &Point,
        radius: f64,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        if !radius.is_finite() || radius < 0.0 {
            return;
        }
        let bbox = Rect::centered(center.x, center.y, 2.0 * radius, 2.0 * radius);
        let r_sq = radius * radius;
        self.window_query_visit(&bbox, cx, &mut |p| {
            if p.dist_sq(center) <= r_sq {
                visit(p);
            }
        });
    }

    /// Returns the points within `radius` of `center` as a fresh vector.
    fn range_query(&self, center: &Point, radius: f64, cx: &mut QueryContext) -> Vec<Point> {
        let mut out = Vec::new();
        self.range_query_visit(center, radius, cx, &mut |p| out.push(*p));
        out
    }

    // ------------------------------------------------------------------
    // Provided: index-nested distance joins
    // ------------------------------------------------------------------

    /// The join worker: calls `visit(p, q)` for every indexed point `p` and
    /// probe `q ∈ probes` with `dist(p, q) ≤ radius`.
    ///
    /// The default probes point by point (one
    /// [`range_query_visit`](Self::range_query_visit) per probe — a plain
    /// index-nested-loop join).  Families with a directory override this to
    /// prune at the block/MBR level instead: one traversal of the structure
    /// carries the whole probe set, discarding every probe farther than
    /// `radius` from a node's MBR before descending, so each data block is
    /// read **once** regardless of how many probes survive to it.
    fn distance_join_probes(
        &self,
        probes: &[Point],
        radius: f64,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point, &Point),
    ) {
        for q in probes {
            self.range_query_visit(q, radius, cx, &mut |p| visit(p, q));
        }
    }

    /// Returns every pair `(p, q)` with `p` indexed here, `q` indexed in
    /// `other`, and `dist(p, q) ≤ radius`, as a fresh vector.  Pair order is
    /// unspecified; each qualifying pair appears exactly once (per stored
    /// copy on either side).
    ///
    /// This is an **index-nested** join: `other` is enumerated exactly once
    /// through [`for_each_point`](Self::for_each_point) (uncharged, like any
    /// streaming read) and the resulting probe set is joined against this
    /// index's structure by [`distance_join_probes`](Self::distance_join_probes),
    /// which is where all pruning and cost accounting happen.
    fn distance_join(
        &self,
        other: &dyn SpatialIndex,
        radius: f64,
        cx: &mut QueryContext,
    ) -> Vec<(Point, Point)> {
        let mut probes = Vec::with_capacity(other.len());
        other.for_each_point(&mut |q| probes.push(*q));
        let mut out = Vec::new();
        self.distance_join_probes(&probes, radius, cx, &mut |p, q| out.push((*p, *q)));
        out
    }

    // ------------------------------------------------------------------
    // Provided: Vec adapters over the visitor core
    // ------------------------------------------------------------------

    /// Returns the points inside the query window as a fresh vector.
    fn window_query(&self, window: &Rect, cx: &mut QueryContext) -> Vec<Point> {
        let mut out = Vec::new();
        self.window_query_visit(window, cx, &mut |p| out.push(*p));
        out
    }

    /// Returns (up to) the `k` nearest neighbours of `q`, closest first, as
    /// a fresh vector.
    fn knn_query(&self, q: &Point, k: usize, cx: &mut QueryContext) -> Vec<Point> {
        let mut out = Vec::with_capacity(k);
        self.knn_query_visit(q, k, cx, &mut |p| out.push(*p));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy(Vec<Point>);

    impl SpatialIndex for Dummy {
        fn name(&self) -> &'static str {
            "dummy"
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn point_query_visit(&self, q: &Point, cx: &mut QueryContext, visit: &mut CopyVisit) {
            cx.count_block();
            cx.count_candidates(self.0.len());
            let mut copies = self.0.iter().filter(|p| p.same_location(q));
            let _ = copies.try_for_each(visit);
        }
        fn window_query_visit(
            &self,
            window: &Rect,
            cx: &mut QueryContext,
            visit: &mut dyn FnMut(&Point),
        ) {
            cx.count_block();
            for p in &self.0 {
                cx.count_candidates(1);
                if window.contains(p) {
                    visit(p);
                }
            }
        }
        fn knn_query_visit(
            &self,
            q: &Point,
            k: usize,
            cx: &mut QueryContext,
            visit: &mut dyn FnMut(&Point),
        ) {
            cx.count_block();
            cx.count_candidates(self.0.len());
            let mut v = self.0.clone();
            v.sort_by(|a, b| a.dist_sq(q).partial_cmp(&b.dist_sq(q)).unwrap());
            for p in v.iter().take(k) {
                visit(p);
            }
        }
        fn for_each_point(&self, visit: &mut dyn FnMut(&Point)) {
            for p in &self.0 {
                visit(p);
            }
        }
        fn insert(&mut self, p: Point) {
            self.0.push(p);
        }
        fn delete(&mut self, p: &Point) -> bool {
            let before = self.0.len();
            self.0.retain(|x| !(x.same_location(p) && x.id == p.id));
            self.0.len() != before
        }
        fn size_bytes(&self) -> usize {
            self.0.len() * std::mem::size_of::<Point>()
        }
        fn height(&self) -> usize {
            1
        }
        fn model_count(&self) -> usize {
            7
        }
    }

    #[test]
    fn default_is_empty_follows_len() {
        let mut d = Dummy(vec![]);
        assert!(d.is_empty());
        d.insert(Point::new(0.5, 0.5));
        assert!(!d.is_empty());
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn vec_adapters_match_visitor_results() {
        let d = Dummy(vec![
            Point::with_id(0.1, 0.1, 1),
            Point::with_id(0.6, 0.6, 2),
            Point::with_id(0.7, 0.7, 3),
        ]);
        let w = Rect::new(0.5, 0.5, 1.0, 1.0);
        let mut cx = QueryContext::new();
        let via_vec = d.window_query(&w, &mut cx);
        let mut via_visit = Vec::new();
        d.window_query_visit(&w, &mut cx, &mut |p| via_visit.push(*p));
        assert_eq!(via_vec, via_visit);
        let nn = d.knn_query(&Point::new(0.0, 0.0), 2, &mut cx);
        assert_eq!(nn.len(), 2);
        assert_eq!(nn[0].id, 1);
    }

    #[test]
    fn context_accumulates_and_take_stats_resets() {
        let d = Dummy(vec![Point::with_id(0.2, 0.2, 1); 4]);
        let mut cx = QueryContext::new();
        let _ = d.point_query(&Point::new(0.2, 0.2), &mut cx);
        assert_eq!(cx.stats.blocks_touched, 1);
        assert_eq!(cx.stats.candidates_scanned, 4);
        let _ = d.point_query(&Point::new(0.9, 0.9), &mut cx);
        assert_eq!(cx.stats.blocks_touched, 2);
        let taken = cx.take_stats();
        assert_eq!(taken.blocks_touched, 2);
        assert_eq!(cx.stats, QueryStats::default());
        assert_eq!(taken.total_accesses(), 2);
    }

    #[test]
    fn default_range_query_filters_the_bbox_window() {
        let d = Dummy(vec![
            Point::with_id(0.5, 0.5, 1),
            Point::with_id(0.59, 0.5, 2),  // inside the circle
            Point::with_id(0.58, 0.58, 3), // inside the bbox, outside the circle
            Point::with_id(0.9, 0.9, 4),   // outside both
        ]);
        let mut cx = QueryContext::new();
        let c = Point::new(0.5, 0.5);
        let got = d.range_query(&c, 0.1, &mut cx);
        let mut ids: Vec<u64> = got.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
        // Visitor and Vec forms agree; the boundary is inclusive.
        let mut visited = Vec::new();
        d.range_query_visit(&c, 0.09, &mut cx, &mut |p| visited.push(p.id));
        visited.sort_unstable();
        assert_eq!(visited, vec![1, 2], "dist == radius must be included");
        // Degenerate radii.
        assert_eq!(d.range_query(&c, 0.0, &mut cx).len(), 1);
        assert!(d.range_query(&c, -1.0, &mut cx).is_empty());
        assert!(d.range_query(&c, f64::NAN, &mut cx).is_empty());
        assert!(d.range_query(&c, f64::INFINITY, &mut cx).is_empty());
    }

    #[test]
    fn default_distance_join_pairs_both_sides() {
        let left = Dummy(vec![
            Point::with_id(0.1, 0.1, 1),
            Point::with_id(0.9, 0.9, 2),
        ]);
        let right = Dummy(vec![
            Point::with_id(0.12, 0.1, 10),
            Point::with_id(0.5, 0.5, 11),
            Point::with_id(0.9, 0.88, 12),
        ]);
        let mut cx = QueryContext::new();
        let mut pairs: Vec<(u64, u64)> = left
            .distance_join(&right, 0.05, &mut cx)
            .iter()
            .map(|(p, q)| (p.id, q.id))
            .collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 10), (2, 12)]);
        // A join against an empty index yields no pairs.
        let empty = Dummy(vec![]);
        assert!(left.distance_join(&empty, 1.0, &mut cx).is_empty());
        assert!(empty.distance_join(&right, 1.0, &mut cx).is_empty());
    }

    #[test]
    fn for_each_point_enumerates_every_copy_uncharged() {
        let d = Dummy(vec![Point::with_id(0.5, 0.5, 1); 3]);
        let mut n = 0;
        d.for_each_point(&mut |p| {
            assert_eq!(p.id, 1);
            n += 1;
        });
        assert_eq!(n, 3, "every stored copy must be visited");
    }

    #[test]
    fn stats_merge_and_add_assign_sum_fields() {
        let mut a = QueryStats {
            blocks_touched: 1,
            nodes_visited: 2,
            candidates_scanned: 3,
            shards_visited: 4,
            shards_pruned: 5,
        };
        let b = QueryStats {
            blocks_touched: 10,
            nodes_visited: 20,
            candidates_scanned: 30,
            shards_visited: 40,
            shards_pruned: 50,
        };
        a += b;
        assert_eq!(a.blocks_touched, 11);
        assert_eq!(a.nodes_visited, 22);
        assert_eq!(a.candidates_scanned, 33);
        assert_eq!(a.shards_visited, 44);
        assert_eq!(a.shards_pruned, 55);
        // Shard counters are engine-level fan-out metrics, not accesses.
        assert_eq!(a.total_accesses(), 33);
    }

    #[test]
    fn shard_counters_accumulate_through_the_context() {
        let mut cx = QueryContext::new();
        cx.count_shards_pruned(3);
        assert_eq!(cx.stats.shards_pruned, 3);
        assert_eq!(cx.stats.total_accesses(), 0);
    }
}
