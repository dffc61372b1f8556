//! Sharded, multi-threaded serving engine layered on top of any
//! [`SpatialIndex`] family.
//!
//! The RSMI paper partitions data recursively *inside* one index; "The Case
//! for Learned Spatial Indexes" (Pandey et al.) and LiLIS show the same
//! partition-then-learn recipe winning *across* workers.  This crate is that
//! serving layer:
//!
//! * [`partition`] — the learned partitioner: points are ordered by the
//!   Hilbert key of their ranks under per-axis knot tables (a learned
//!   model of each marginal, reusing `sfc`'s curves) and cut into `S`
//!   near-equal shards, each with an MBR and a curve-key range.
//! * [`ShardedIndex`] — a [`SpatialIndex`] whose shards each hold an inner
//!   index built by a caller-supplied factory (the registry passes
//!   `registry::build_index`, keeping this crate free of index-family
//!   dependencies).  Shards build in parallel on `std::thread::scope`.
//! * [`plan`] — the **query planner**, free of I/O so the distributed
//!   router shares it: point queries route to exactly one shard via the
//!   frozen partitioner, window queries fan out only to shards whose MBR
//!   intersects the window, and kNN queries visit shards best-first by MBR
//!   `MINDIST` with a distance-bound cutoff and a `(distance, id)` k-way
//!   merge.  [`ShardedIndex`] is its in-process executor; skipped shards
//!   are charged to [`QueryStats::shards_pruned`](common::QueryStats).
//! * [`executor`] — `run_batch` lets any caller split a query workload
//!   over workers, one [`QueryContext`] per worker, merging their
//!   statistics; the per-shard builds and rebuilds run on
//!   [`common::parallel_map`].
//! * `container` — the sharded snapshot container's one writer and one
//!   reader: [`ShardedIndex::read_snapshot`], [`ShardManifest::read`] and
//!   [`read_shard_snapshot_bytes`] all read through it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod container;
pub mod executor;
pub mod partition;
pub mod plan;

pub use container::{read_shard_snapshot_bytes, ShardManifest, ShardMeta};

use common::{CopyVisit, QueryContext, SpatialIndex};
use geom::{Point, Rect};
use partition::Partitioner;
use persist::{PersistError, SnapshotReader, SnapshotWriter};
use plan::{infallible, Fanout, ShardView};
use sfc::CurveKind;

/// Max-to-mean shard size ratio at or above which
/// [`ShardedIndex::clone_index`](SpatialIndex::clone_index) declines, so
/// the serving layer rebuilds and repartitions the index fully.  The ratio
/// cannot exceed the shard count.
const SKEW_TRIGGER: f64 = 4.0;

/// Configuration of the sharded serving layer.
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of shards to cut the data into (clamped to at least 1 and at
    /// most the point count).
    pub shards: usize,
    /// Worker threads of the per-shard [`rebuild`](SpatialIndex::rebuild)
    /// (1 = sequential).
    pub threads: usize,
    /// Space-filling curve ordering the rank-space partitioning keys.
    pub curve: CurveKind,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            threads: 1,
            curve: CurveKind::Hilbert,
        }
    }
}

/// The factory building one shard's inner index from its points.
pub type InnerBuilder<'a> = &'a (dyn Fn(&[Point]) -> Box<dyn SpatialIndex> + Sync);

/// The loader turning one shard's embedded snapshot bytes back into an
/// inner index — the registry passes its own snapshot loader (see
/// [`ShardedIndex::read_snapshot`]).
pub type InnerLoader<'a> = &'a dyn Fn(&[u8]) -> Result<Box<dyn SpatialIndex>, PersistError>;

struct Shard {
    index: Box<dyn SpatialIndex>,
    /// Bounding rectangle of the shard's *current* contents; expanded on
    /// insert so window/kNN pruning never cuts off live points.
    mbr: Rect,
}

impl Shard {
    fn view(&self) -> ShardView {
        ShardView {
            mbr: self.mbr,
            len: self.index.len(),
        }
    }
}

/// Charges a planned query's fan-out to the caller's statistics.
fn charge(cx: &mut QueryContext, fan: Fanout) {
    cx.stats.shards_visited += fan.visited as u64;
    cx.count_shards_pruned(fan.pruned);
}

/// A sharded spatial index: `S` inner indices behind one [`SpatialIndex`]
/// facade, with routed point queries and pruned window/kNN fan-out.
pub struct ShardedIndex {
    name: &'static str,
    partitioner: Partitioner,
    shards: Vec<Shard>,
    threads: usize,
}

impl ShardedIndex {
    /// Partitions `points`, builds one inner index per shard **in parallel**
    /// (one scoped thread per shard), and assembles the serving facade.
    ///
    /// `name` is the registered display name (e.g. `"Sharded-RSMI"`);
    /// `build_inner` constructs a shard's inner index — the registry passes
    /// its own `build_index`, so any registered family can be sharded.
    pub fn build(
        points: &[Point],
        cfg: ShardedConfig,
        name: &'static str,
        build_inner: InnerBuilder<'_>,
    ) -> Self {
        let parallelism = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        let (partitioner, slices) =
            Partitioner::partition(points, cfg.shards, cfg.curve, parallelism);
        // One build job per shard, capped at the machine's parallelism so a
        // high shard count cannot oversubscribe cores (each job is a full
        // inner-index build — sort + packing, or model training).
        let workers = slices.len().min(parallelism);
        let shards = common::parallel_map(slices, workers, |slice| Shard {
            index: build_inner(&slice.points),
            mbr: slice.mbr,
        });
        Self {
            name,
            partitioner,
            shards,
            threads: cfg.threads.max(1),
        }
    }

    /// Reads a sharded snapshot written by
    /// [`SpatialIndex::write_snapshot`].
    ///
    /// The container stores per-shard sections (MBR, frozen curve-key range,
    /// and the inner index as an embedded snapshot with its own header);
    /// `load_inner` turns an inner snapshot's bytes back into an index — the
    /// registry passes its own snapshot loader, so any registered leaf
    /// family round-trips without this crate depending on index families.
    /// `name` is the registered display name the loaded facade reports.
    pub fn read_snapshot(
        r: &mut SnapshotReader<'_>,
        name: &'static str,
        load_inner: InnerLoader<'_>,
    ) -> Result<Self, PersistError> {
        let mut sections = container::ShardSections::open(r)?;
        let shards = sections
            .by_ref()
            .map(|shard| {
                let (meta, blob) = shard?;
                Ok(Shard {
                    index: load_inner(blob)?,
                    mbr: meta.mbr,
                })
            })
            .collect::<Result<_, PersistError>>()?;
        Ok(Self {
            name,
            partitioner: sections.partitioner,
            shards,
            threads: sections.threads.max(1),
        })
    }

    /// The planner's view of every shard, in shard order.
    fn views(&self) -> impl Iterator<Item = ShardView> + '_ {
        self.shards.iter().map(Shard::view)
    }
}

impl SpatialIndex for ShardedIndex {
    fn name(&self) -> &'static str {
        self.name
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.index.len()).sum()
    }

    fn point_query_visit(&self, q: &Point, cx: &mut QueryContext, visit: &mut CopyVisit) {
        let ((), fan) = infallible(plan::point(&self.partitioner, q, |shard| {
            self.shards[shard].index.point_query_visit(q, cx, visit);
            Ok(())
        }));
        charge(cx, fan);
    }

    fn window_query_visit(
        &self,
        window: &Rect,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        let fan = infallible(plan::window(self.views(), window, |shard| {
            self.shards[shard]
                .index
                .window_query_visit(window, cx, visit);
            Ok(())
        }));
        charge(cx, fan);
    }

    fn knn_query_visit(
        &self,
        q: &Point,
        k: usize,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        let mut merge = plan::KnnMerge::new(self.views(), q, k);
        let k_eff = merge.k_eff();
        while let Some(mut next) = merge.next_shard() {
            self.shards[next.shard()]
                .index
                .knn_query_visit(q, k_eff, cx, &mut |p| next.offer(*p));
        }
        let (best, fan) = merge.finish();
        charge(cx, fan);
        best.iter().for_each(visit);
    }

    fn range_query_visit(
        &self,
        center: &Point,
        radius: f64,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        let fan = infallible(plan::range(self.views(), center, radius, |shard| {
            self.shards[shard]
                .index
                .range_query_visit(center, radius, cx, visit);
            Ok(())
        }));
        charge(cx, fan);
    }

    fn for_each_point(&self, visit: &mut dyn FnMut(&Point)) {
        for s in &self.shards {
            s.index.for_each_point(visit);
        }
    }

    fn distance_join_probes(
        &self,
        probes: &[Point],
        radius: f64,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point, &Point),
    ) {
        // Each shard joins its probe subset through its own family-specific
        // pruning.
        let fan = infallible(plan::join(self.views(), probes, radius, |shard, kept| {
            self.shards[shard]
                .index
                .distance_join_probes(kept, radius, cx, visit);
            Ok(())
        }));
        charge(cx, fan);
    }

    fn insert(&mut self, p: Point) {
        let shard = plan::home_shard(&self.partitioner, &p);
        self.shards[shard].mbr.expand_to_point(p);
        self.shards[shard].index.insert(p);
    }

    fn delete(&mut self, p: &Point) -> bool {
        let shards = &mut self.shards;
        let probe = |shard: usize| Ok(shards[shard].index.delete(p));
        infallible(plan::point(&self.partitioner, p, probe)).0
    }

    fn rebuild(&mut self) {
        // Per-shard maintenance rebuild on the configured workers.  The
        // partitioning itself is frozen; only inner layouts are restored.
        let shards: Vec<&mut Shard> = self.shards.iter_mut().collect();
        common::parallel_map(shards, self.threads, |s| s.index.rebuild());
    }

    fn size_bytes(&self) -> usize {
        self.partitioner.size_bytes()
            + self
                .shards
                .iter()
                .map(|s| s.index.size_bytes())
                .sum::<usize>()
    }

    fn height(&self) -> usize {
        // One routing level above the tallest inner index.
        1 + self
            .shards
            .iter()
            .map(|s| s.index.height())
            .max()
            .unwrap_or(0)
    }

    fn model_count(&self) -> usize {
        self.shards.iter().map(|s| s.index.model_count()).sum()
    }

    fn model_error_bounds(&self) -> Option<(u64, u64)> {
        // Element-wise worst case across shards; None only when no shard
        // has a learned component.
        self.shards
            .iter()
            .filter_map(|s| s.index.model_error_bounds())
            .reduce(|(b0, a0), (b1, a1)| (b0.max(b1), a0.max(a1)))
    }

    fn maintenance_stats(&self) -> Option<common::MaintenanceStats> {
        // Aggregate over shards; None only when no shard supports
        // incremental maintenance.
        self.shards
            .iter()
            .filter_map(|s| s.index.maintenance_stats())
            .reduce(|mut acc, s| {
                acc.ops_since_train += s.ops_since_train;
                acc.widened_below += s.widened_below;
                acc.widened_above += s.widened_above;
                acc.stale_subtrees += s.stale_subtrees;
                acc.subtrees += s.subtrees;
                acc
            })
    }

    fn rebuild_partial(&mut self, budget: &common::MaintenanceBudget) -> usize {
        // Distribute the subtree budget across shards, most-drifted shard
        // first, charging each shard's spend against the remainder.  The
        // partitioning is frozen — partial maintenance never moves points
        // between shards (`clone_index` declines a skewed index, so the
        // serving layer rebuilds it fully).
        // Shards without maintenance support are skipped: the trait default
        // would turn a "partial" pass into a per-shard full rebuild.
        let mut order: Vec<(usize, u64)> = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let m = s.index.maintenance_stats()?;
                let drift = m.ops_since_train + m.widened_below + m.widened_above;
                (drift > 0).then_some((i, drift))
            })
            .collect();
        order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut done = 0;
        for (i, _) in order {
            if done >= budget.max_subtrees {
                break;
            }
            let shard_budget = common::MaintenanceBudget {
                max_subtrees: budget.max_subtrees - done,
                drift_threshold: budget.drift_threshold,
            };
            done += self.shards[i].index.rebuild_partial(&shard_budget);
        }
        done
    }

    fn clone_index(&self) -> Option<Box<dyn SpatialIndex>> {
        // Cloneable iff the shard sizes are not skewed and every inner index
        // is: a partial pass cannot move points between shards, so a skewed
        // index takes the full, repartitioning rebuild.
        let max = self.shards.iter().map(|s| s.index.len()).max().unwrap_or(0);
        let mean = self.len() as f64 / self.shards.len() as f64;
        if mean > 0.0 && max as f64 / mean >= SKEW_TRIGGER {
            return None;
        }
        let mut shards = Vec::with_capacity(self.shards.len());
        for s in &self.shards {
            shards.push(Shard {
                index: s.index.clone_index()?,
                mbr: s.mbr,
            });
        }
        Some(Box::new(ShardedIndex {
            name: self.name,
            partitioner: self.partitioner.clone(),
            shards,
            threads: self.threads,
        }))
    }

    fn write_snapshot(&self, w: &mut SnapshotWriter) -> Result<(), PersistError> {
        let shards = self.shards.iter().map(|s| (s.mbr, s.index.as_ref()));
        container::write(w, self.threads, &self.partitioner, shards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::brute_force;
    use datagen::{generate, queries, Distribution};

    /// Minimal exact inner index (linear scans) so the engine's unit tests
    /// do not depend on any index family crate.
    struct Naive(Vec<Point>);

    impl SpatialIndex for Naive {
        fn name(&self) -> &'static str {
            "Naive"
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn point_query_visit(&self, q: &Point, cx: &mut QueryContext, visit: &mut CopyVisit) {
            cx.count_block_scan(self.0.len());
            let mut copies = self.0.iter().filter(|p| p.same_location(q));
            let _ = copies.try_for_each(visit);
        }
        fn window_query_visit(
            &self,
            window: &Rect,
            cx: &mut QueryContext,
            visit: &mut dyn FnMut(&Point),
        ) {
            cx.count_block_scan(self.0.len());
            for p in self.0.iter().filter(|p| window.contains(p)) {
                visit(p);
            }
        }
        fn knn_query_visit(
            &self,
            q: &Point,
            k: usize,
            cx: &mut QueryContext,
            visit: &mut dyn FnMut(&Point),
        ) {
            cx.count_block_scan(self.0.len());
            for p in brute_force::knn_query(&self.0, q, k) {
                visit(&p);
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
    }

    fn naive_builder() -> impl Fn(&[Point]) -> Box<dyn SpatialIndex> + Sync {
        |pts: &[Point]| Box::new(Naive(pts.to_vec())) as Box<dyn SpatialIndex>
    }

    fn build(data: &[Point], shards: usize, threads: usize) -> ShardedIndex {
        ShardedIndex::build(
            data,
            ShardedConfig {
                shards,
                threads,
                curve: CurveKind::Hilbert,
            },
            "Sharded-Naive",
            &naive_builder(),
        )
    }

    #[test]
    fn point_queries_route_to_exactly_one_shard() {
        let data = generate(Distribution::skewed_default(), 2_000, 3);
        let index = build(&data, 8, 1);
        assert_eq!(index.shards.len(), 8);
        assert_eq!(index.len(), data.len());
        let mut cx = QueryContext::new();
        for p in data.iter().step_by(17) {
            assert_eq!(index.point_query(p, &mut cx).map(|f| f.id), Some(p.id));
        }
        let n_queries = data.iter().step_by(17).count() as u64;
        let stats = cx.take_stats();
        assert_eq!(stats.shards_visited, n_queries, "routing fanned out");
        assert_eq!(stats.shards_pruned, n_queries * 7);
    }

    #[test]
    fn window_queries_prune_and_match_brute_force() {
        let data = generate(Distribution::Uniform, 3_000, 5);
        let index = build(&data, 8, 1);
        let mut cx = QueryContext::new();
        let ws = queries::window_queries(&data, queries::WindowSpec::default(), 30, 7);
        for w in &ws {
            let mut got: Vec<u64> = index
                .window_query(w, &mut cx)
                .iter()
                .map(|p| p.id)
                .collect();
            let mut truth: Vec<u64> = brute_force::window_query(&data, w)
                .iter()
                .map(|p| p.id)
                .collect();
            got.sort_unstable();
            truth.sort_unstable();
            assert_eq!(got, truth);
        }
        let stats = cx.take_stats();
        assert!(stats.shards_pruned > 0, "small windows should prune shards");
        assert_eq!(
            stats.shards_visited + stats.shards_pruned,
            8 * ws.len() as u64
        );
    }

    #[test]
    fn knn_matches_brute_force_with_id_tiebreak() {
        let data = generate(Distribution::OsmLike, 2_500, 9);
        let index = build(&data, 6, 1);
        let mut cx = QueryContext::new();
        for q in queries::knn_queries(&data, 25, 11) {
            for k in [1usize, 7, 40] {
                let got = index.knn_query(&q, k, &mut cx);
                let truth = brute_force::knn_query(&data, &q, k);
                assert_eq!(
                    got.iter().map(|p| p.id).collect::<Vec<_>>(),
                    truth.iter().map(|p| p.id).collect::<Vec<_>>(),
                    "k = {k}"
                );
            }
        }
    }

    #[test]
    fn knn_cutoff_prunes_far_shards() {
        let data = generate(Distribution::Uniform, 4_000, 13);
        let index = build(&data, 8, 1);
        let mut cx = QueryContext::new();
        let _ = index.knn_query(&Point::new(0.5, 0.5), 5, &mut cx);
        let stats = cx.take_stats();
        assert!(stats.shards_visited >= 1);
        assert!(
            stats.shards_pruned > 0,
            "a k=5 query should not fan out to all 8 shards"
        );
    }

    #[test]
    fn range_queries_prune_shards_and_match_brute_force() {
        let data = generate(Distribution::Uniform, 3_000, 27);
        let index = build(&data, 8, 1);
        let mut cx = QueryContext::new();
        let centers = queries::knn_queries(&data, 25, 31);
        for c in &centers {
            let mut got: Vec<u64> = index
                .range_query(c, 0.05, &mut cx)
                .iter()
                .map(|p| p.id)
                .collect();
            let mut truth: Vec<u64> = brute_force::range_query(&data, c, 0.05)
                .iter()
                .map(|p| p.id)
                .collect();
            got.sort_unstable();
            truth.sort_unstable();
            assert_eq!(got, truth);
        }
        let stats = cx.take_stats();
        assert!(stats.shards_pruned > 0, "small circles should prune shards");
        assert_eq!(
            stats.shards_visited + stats.shards_pruned,
            8 * centers.len() as u64
        );
    }

    #[test]
    fn distance_join_fans_out_by_shard_mbr_without_duplicate_pairs() {
        let data = generate(Distribution::skewed_default(), 2_000, 33);
        let probes = generate(Distribution::Uniform, 300, 35);
        let index = build(&data, 6, 1);
        let other = Naive(probes.clone());
        let mut cx = QueryContext::new();
        let mut got: Vec<(u64, u64)> = index
            .distance_join(&other, 0.02, &mut cx)
            .iter()
            .map(|(p, q)| (p.id, q.id))
            .collect();
        let mut truth: Vec<(u64, u64)> = brute_force::distance_join(&data, &probes, 0.02)
            .iter()
            .map(|(p, q)| (p.id, q.id))
            .collect();
        got.sort_unstable();
        truth.sort_unstable();
        // Shards partition the points, so pairs are already duplicate-free.
        let mut deduped = got.clone();
        deduped.dedup();
        assert_eq!(deduped.len(), got.len(), "cross-shard duplicate pairs");
        assert_eq!(got, truth);
        // Enumeration chains the shards and covers everything once.
        let mut n = 0;
        index.for_each_point(&mut |_| n += 1);
        assert_eq!(n, data.len());
    }

    #[test]
    fn insert_delete_and_rebuild_stay_consistent() {
        let data = generate(Distribution::Normal, 1_000, 23);
        let mut index = build(&data, 4, 2);
        let mut cx = QueryContext::new();

        let extra = Point::with_id(0.987, 0.013, 777_777);
        index.insert(extra);
        assert_eq!(index.len(), 1_001);
        assert_eq!(
            index.point_query(&extra, &mut cx).map(|p| p.id),
            Some(extra.id)
        );

        // The expanded MBR keeps the inserted point visible to windows.
        let w = Rect::centered(extra.x, extra.y, 0.01, 0.01);
        assert!(index
            .window_query(&w, &mut cx)
            .iter()
            .any(|p| p.id == extra.id));

        assert!(index.delete(&extra));
        assert!(!index.delete(&extra));
        assert_eq!(index.len(), 1_000);

        index.rebuild();
        assert_eq!(index.len(), 1_000);
        assert!(index.point_query(&data[11], &mut cx).is_some());
    }

    #[test]
    fn one_delete_removes_every_copy_of_a_point_stored_four_times() {
        // Two shards: the near-equal cut alone would put two copies in each.
        let four = Point::with_id(0.5, 0.5, 9);
        let mut index = build(&[four; 4], 2, 1);
        assert_eq!(index.shards.len(), 2);
        let mut cx = QueryContext::new();
        assert_eq!(index.point_query(&four, &mut cx), Some(four));
        assert_eq!(cx.take_stats().shards_visited, 1);
        assert!(index.delete(&four));
        assert_eq!(index.len(), 0);
        assert!(!index.delete(&four));
    }

    #[test]
    fn empty_and_single_point_indices_answer_gracefully() {
        let empty = build(&[], 4, 2);
        let mut cx = QueryContext::new();
        assert!(empty.is_empty());
        assert_eq!(empty.shards.len(), 1);
        assert!(empty.point_query(&Point::new(0.5, 0.5), &mut cx).is_none());
        assert!(empty.window_query(&Rect::unit(), &mut cx).is_empty());
        assert!(empty
            .knn_query(&Point::new(0.5, 0.5), 3, &mut cx)
            .is_empty());

        let one = build(&[Point::with_id(0.4, 0.6, 9)], 4, 2);
        assert_eq!(one.len(), 1);
        assert_eq!(one.knn_query(&Point::new(0.0, 0.0), 5, &mut cx).len(), 1);
    }

    #[test]
    fn facade_reports_aggregate_structure() {
        let data = generate(Distribution::Uniform, 1_200, 25);
        let index = build(&data, 3, 1);
        assert_eq!(index.name(), "Sharded-Naive");
        assert!(index.size_bytes() > data.len() * std::mem::size_of::<Point>());
        assert_eq!(index.height(), 2); // routing level + naive level
        assert_eq!(index.model_count(), 0);
    }

    /// [`Naive`] plus the maintenance protocol: one subtree per shard whose
    /// drift is the op count since the last partial retrain.
    #[derive(Clone)]
    struct MaintNaive {
        pts: Vec<Point>,
        ops: u64,
    }

    impl SpatialIndex for MaintNaive {
        fn name(&self) -> &'static str {
            "MaintNaive"
        }
        fn len(&self) -> usize {
            self.pts.len()
        }
        fn point_query_visit(&self, q: &Point, cx: &mut QueryContext, visit: &mut CopyVisit) {
            cx.count_block_scan(self.pts.len());
            let mut copies = self.pts.iter().filter(|p| p.same_location(q));
            let _ = copies.try_for_each(visit);
        }
        fn window_query_visit(
            &self,
            window: &Rect,
            cx: &mut QueryContext,
            visit: &mut dyn FnMut(&Point),
        ) {
            cx.count_block_scan(self.pts.len());
            for p in self.pts.iter().filter(|p| window.contains(p)) {
                visit(p);
            }
        }
        fn knn_query_visit(
            &self,
            q: &Point,
            k: usize,
            cx: &mut QueryContext,
            visit: &mut dyn FnMut(&Point),
        ) {
            cx.count_block_scan(self.pts.len());
            for p in brute_force::knn_query(&self.pts, q, k) {
                visit(&p);
            }
        }
        fn for_each_point(&self, visit: &mut dyn FnMut(&Point)) {
            for p in &self.pts {
                visit(p);
            }
        }
        fn insert(&mut self, p: Point) {
            self.ops += 1;
            self.pts.push(p);
        }
        fn delete(&mut self, p: &Point) -> bool {
            let before = self.pts.len();
            self.pts.retain(|x| !(x.same_location(p) && x.id == p.id));
            let removed = self.pts.len() != before;
            if removed {
                self.ops += 1;
            }
            removed
        }
        fn size_bytes(&self) -> usize {
            self.pts.len() * std::mem::size_of::<Point>()
        }
        fn height(&self) -> usize {
            1
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
        fn rebuild_partial(&mut self, budget: &common::MaintenanceBudget) -> usize {
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

    fn build_maint(data: &[Point], shards: usize) -> ShardedIndex {
        ShardedIndex::build(
            data,
            ShardedConfig {
                shards,
                threads: 1,
                curve: CurveKind::Hilbert,
            },
            "Sharded-MaintNaive",
            &|pts: &[Point]| {
                Box::new(MaintNaive {
                    pts: pts.to_vec(),
                    ops: 0,
                }) as Box<dyn SpatialIndex>
            },
        )
    }

    #[test]
    fn maintenance_aggregates_and_budgets_across_shards() {
        let data = generate(Distribution::Uniform, 2_000, 27);
        let mut index = build_maint(&data, 4);
        let fresh = index.maintenance_stats().expect("maint-capable shards");
        assert_eq!(fresh.subtrees, 4);
        assert_eq!(fresh.ops_since_train, 0);
        // Spread writes across the key space so several shards drift.
        for i in 0..80u64 {
            index.insert(Point::with_id(
                (i as f64 + 0.5) / 80.0,
                ((i as f64 * 0.37) + 0.01) % 1.0,
                900_000 + i,
            ));
        }
        let dirty = index.maintenance_stats().unwrap();
        assert_eq!(dirty.ops_since_train, 80);
        assert!(dirty.stale_subtrees >= 2, "writes all landed in one shard");

        // A budget of one subtree retrains only the most-drifted shard and
        // defers the rest: the passes that retrain anything number exactly
        // the stale subtrees.
        let tight = common::MaintenanceBudget {
            max_subtrees: 1,
            drift_threshold: 0.0,
        };
        let mut passes = 0;
        while index.rebuild_partial(&tight) > 0 {
            passes += 1;
            assert!(passes <= dirty.stale_subtrees, "a pass overspent");
        }
        assert_eq!(passes, dirty.stale_subtrees);
        assert_eq!(index.maintenance_stats().unwrap().ops_since_train, 0);
    }

    #[test]
    fn clone_index_requires_every_shard_to_clone() {
        let data = generate(Distribution::Uniform, 1_000, 29);
        // Naive shards opt out of cloning, so the facade does too.
        assert!(build(&data, 3, 1).clone_index().is_none());
        assert!(build(&data, 3, 1).maintenance_stats().is_none());

        let mut index = build_maint(&data, 3);
        let clone = index.clone_index().expect("maint shards clone");
        assert_eq!(clone.len(), index.len());
        let mut cx = QueryContext::new();
        for p in data.iter().step_by(101) {
            assert_eq!(
                clone.point_query(p, &mut cx).map(|f| f.id),
                index.point_query(p, &mut cx).map(|f| f.id)
            );
        }
        // The clone is independent: writes to the original do not leak in.
        index.insert(Point::with_id(0.42, 0.42, 777_777));
        assert_eq!(clone.len(), data.len());
        assert_eq!(index.len(), data.len() + 1);
        // And the clone keeps the sharded query machinery (routing prunes).
        cx.take_stats();
        clone.point_query(&data[0], &mut cx);
        assert_eq!(cx.take_stats().shards_visited, 1);
    }
}
