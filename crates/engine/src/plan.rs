//! The shard planner: every routing decision of a sharded query, with no
//! I/O and no index access.
//!
//! From the frozen [`Partitioner`] and a per-shard [`ShardView`] (MBR and
//! live point count) this module decides which shards a query targets, in
//! which order, with which arguments, and when it may stop — and counts the
//! shards it visited and pruned ([`Fanout`]).  Reaching a shard is the
//! caller's job, handed in as an *executor* closure: [`ShardedIndex`]
//! (crate root) passes one that calls the shard's inner index in-process,
//! the distributed router one that calls the shard's replica set over the
//! wire.  Both therefore return the same answers and the same fan-out
//! counts because the same code produced them.
//!
//! One function per decision: [`home_shard`] (insert), [`point`] (point
//! lookup, delete), [`window`], [`range`], [`join`], and the pull-style
//! [`KnnMerge`].  The partitioner places every copy of a location in that
//! location's home shard, and an insert goes there too, so a point lookup
//! or delete asks that one shard and no other.  An executor error stops
//! the scatter at that shard and comes back as a [`ShardError`] naming it;
//! nothing is counted for an abandoned query.
//!
//! [`ShardedIndex`]: crate::ShardedIndex

use crate::partition::Partitioner;
use common::knn::KBest;
use geom::{order_key, Point, Rect};
use std::convert::Infallible;

/// What the planner may know about one shard.
#[derive(Debug, Clone, Copy)]
pub struct ShardView {
    /// Bounding rectangle of the shard's current contents.
    pub mbr: Rect,
    /// Live point count (0 = the shard is skipped by kNN, range and join).
    pub len: usize,
}

/// Fan-out accounting of one planned query: shards the executor was sent
/// to, and shards excluded by routing or MBR bounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fanout {
    /// Shards queried.
    pub visited: usize,
    /// Shards skipped without being queried.
    pub pruned: usize,
}

/// An executor failure, tagged with the shard it happened at.
#[derive(Debug, PartialEq)]
pub struct ShardError<E> {
    /// Position of the failing shard.
    pub shard: usize,
    /// The executor's error.
    pub error: E,
}

/// Unwraps a plan driven by an executor that cannot fail (the in-process
/// one).
pub fn infallible<T>(planned: Result<T, ShardError<Infallible>>) -> T {
    match planned {
        Ok(v) => v,
        Err(e) => match e.error {},
    }
}

/// Insert: the one shard a point belongs to under the frozen key function,
/// which holds every copy of its location.
pub fn home_shard(partitioner: &Partitioner, p: &Point) -> usize {
    partitioner.route(p.x, p.y)
}

/// Point lookup / delete: probes the [`home_shard`] of `p` and no other.
pub fn point<T, E>(
    partitioner: &Partitioner,
    p: &Point,
    probe: impl FnOnce(usize) -> Result<T, E>,
) -> Result<(T, Fanout), ShardError<E>> {
    let shard = home_shard(partitioner, p);
    let answer = probe(shard).map_err(|error| ShardError { shard, error })?;
    let pruned = partitioner.shard_count() - 1;
    Ok((answer, Fanout { visited: 1, pruned }))
}

/// Sends `exec` to every shard `targeted` selects, in shard order.
fn scatter<E>(
    shards: impl IntoIterator<Item = ShardView>,
    targeted: impl Fn(&ShardView) -> bool,
    mut exec: impl FnMut(usize) -> Result<(), E>,
) -> Result<Fanout, ShardError<E>> {
    let mut fan = Fanout::default();
    for (shard, s) in shards.into_iter().enumerate() {
        if targeted(&s) {
            fan.visited += 1;
            exec(shard).map_err(|error| ShardError { shard, error })?;
        } else {
            fan.pruned += 1;
        }
    }
    Ok(fan)
}

/// Window query: every shard whose MBR intersects `window`.
pub fn window<E>(
    shards: impl IntoIterator<Item = ShardView>,
    window: &Rect,
    exec: impl FnMut(usize) -> Result<(), E>,
) -> Result<Fanout, ShardError<E>> {
    scatter(shards, |s| s.mbr.intersects(window), exec)
}

/// Whether a range/join radius selects anything at all.
fn valid_radius(radius: f64) -> bool {
    radius.is_finite() && radius >= 0.0
}

/// Range query: every non-empty shard whose MBR lies within `radius` of
/// `center`.  A negative or non-finite radius targets nothing.
pub fn range<E>(
    shards: impl IntoIterator<Item = ShardView>,
    center: &Point,
    radius: f64,
    exec: impl FnMut(usize) -> Result<(), E>,
) -> Result<Fanout, ShardError<E>> {
    if !valid_radius(radius) {
        return Ok(Fanout::default());
    }
    let r_sq = radius * radius;
    let within = |s: &ShardView| s.len > 0 && s.mbr.min_dist_sq(center) <= r_sq;
    scatter(shards, within, exec)
}

/// Distance join: each non-empty shard receives only the probes within
/// `radius` of its MBR.  The partitioner assigns every indexed point to
/// exactly one shard, so the union of per-shard pair sets is duplicate-free
/// by construction — no cross-shard deduplication pass is needed.
pub fn join<E>(
    shards: impl IntoIterator<Item = ShardView>,
    probes: &[Point],
    radius: f64,
    mut exec: impl FnMut(usize, &[Point]) -> Result<(), E>,
) -> Result<Fanout, ShardError<E>> {
    let mut fan = Fanout::default();
    if !valid_radius(radius) || probes.is_empty() {
        return Ok(fan);
    }
    let r_sq = radius * radius;
    let mut kept: Vec<Point> = Vec::new();
    for (shard, s) in shards.into_iter().enumerate() {
        if s.len > 0 {
            storage::kernels::probes_within(probes, &s.mbr, r_sq, &mut kept);
        } else {
            kept.clear();
        }
        if kept.is_empty() {
            fan.pruned += 1;
            continue;
        }
        fan.visited += 1;
        exec(shard, &kept).map_err(|error| ShardError { shard, error })?;
    }
    Ok(fan)
}

/// Pull-style best-first kNN over shards.  The executor asks
/// [`next_shard`](Self::next_shard) where to go, queries that shard for its
/// [`k_eff`](Self::k_eff) nearest and [`offer`](ShardVisit::offer)s every
/// candidate back through the returned [`ShardVisit`], until the plan runs
/// out of shards worth visiting; then [`finish`](Self::finish) yields the
/// merged answer.
pub struct KnnMerge {
    q: Point,
    /// Non-empty shards as `(MINDIST², shard)`, nearest first, ties by shard
    /// position for determinism.
    order: Vec<(f64, usize)>,
    /// The `k_eff` best candidates so far.
    best: KBest,
    fanout: Fanout,
}

impl KnnMerge {
    /// Plans a `k`-nearest query around `q`.  `k` is clamped to the total
    /// point count; a clamped `k` of 0 plans (and counts) nothing.
    pub fn new(shards: impl IntoIterator<Item = ShardView>, q: &Point, k: usize) -> Self {
        let (mut total, mut n_shards) = (0usize, 0usize);
        let mut order: Vec<(f64, usize)> = Vec::new();
        for (shard, s) in shards.into_iter().enumerate() {
            n_shards += 1;
            total += s.len;
            if s.len > 0 {
                order.push((s.mbr.min_dist_sq(q), shard));
            }
        }
        let k_eff = k.min(total);
        let mut fanout = Fanout::default();
        if k_eff == 0 {
            order.clear();
        } else {
            order.sort_unstable_by_key(|&(d, shard)| (order_key(d), shard));
            fanout.pruned = n_shards - order.len();
        }
        Self {
            q: *q,
            order,
            best: KBest::new(k_eff),
            fanout,
        }
    }

    /// The `k` to ask each visited shard for.
    pub fn k_eff(&self) -> usize {
        self.best.k()
    }

    /// The next shard to query, or `None` when the answer is complete: with
    /// `k_eff` candidates in hand, a shard whose MBR lies strictly beyond
    /// the k-th distance cannot contribute — and neither can any later
    /// (farther) shard, so all of them are pruned at once.
    pub fn next_shard(&mut self) -> Option<ShardVisit<'_>> {
        let &(mindist_sq, shard) = self.order.get(self.fanout.visited)?;
        if mindist_sq > self.best.bound() {
            self.fanout.pruned += self.order.len() - self.fanout.visited;
            self.order.truncate(self.fanout.visited);
            return None;
        }
        self.fanout.visited += 1;
        Some(ShardVisit { merge: self, shard })
    }

    /// The merged neighbours, nearest first, and the query's fan-out.
    pub fn finish(self) -> (KBest, Fanout) {
        (self.best, self.fanout)
    }
}

/// A shard [`KnnMerge::next_shard`] selected, and the only way to merge
/// candidates.  A shard the plan prunes never yields one, so a reply an
/// executor fetched from it ahead of the plan (the router asks the two
/// nearest shards at once) cannot be offered:
///
/// ```compile_fail
/// fn offer_anyway(merge: &mut engine::plan::KnnMerge, p: geom::Point) {
///     engine::plan::ShardVisit { merge, shard: 1 }.offer(p);
/// }
/// ```
pub struct ShardVisit<'a> {
    merge: &'a mut KnnMerge,
    shard: usize,
}

impl ShardVisit<'_> {
    /// Position of the selected shard.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The shard after this one in MINDIST order: the one the next
    /// [`KnnMerge::next_shard`] selects unless the k-th distance prunes it.
    /// Read-only — it changes neither what is selected nor what is counted.
    pub fn peek_next(&self) -> Option<usize> {
        let merge = &self.merge;
        merge
            .order
            .get(merge.fanout.visited)
            .map(|&(_, shard)| shard)
    }

    /// Merges one candidate — one stored copy on this shard (shards
    /// partition the data, so no copy arrives twice).
    pub fn offer(&mut self, p: Point) {
        self.merge.best.offer(p, p.dist_sq(&self.merge.q));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ShardedConfig, ShardedIndex};
    use common::brute_force::ScanIndex;
    use common::{QueryContext, SpatialIndex};
    use datagen::{generate, queries, Distribution};

    /// A scripted executor over a built [`ShardedIndex`]: it answers from
    /// the shard it is sent to, logs the visit, and fails on visit number
    /// `fail_at` (counting from 0).
    struct Script<'a> {
        index: &'a ShardedIndex,
        log: Vec<usize>,
        fail_at: usize,
    }

    impl Script<'_> {
        fn visit(&mut self, shard: usize) -> Result<&dyn SpatialIndex, &'static str> {
            self.log.push(shard);
            if self.log.len() > self.fail_at {
                return Err("scripted failure");
            }
            Ok(self.index.shards[shard].index.as_ref())
        }
    }

    const CLASSES: usize = 5;
    const RADIUS: f64 = 0.2;
    /// More than a shard of [`sharded`] holds, so kNN must visit several.
    const K: usize = 300;

    fn window_around(q: &Point) -> Rect {
        Rect::centered(q.x, q.y, 0.3, 0.3)
    }

    fn probes_around(q: &Point) -> [Point; 2] {
        [*q, Point::new(q.y, q.x)]
    }

    /// Plans query class `which` around `q` with `script` as the executor.
    fn run(
        which: usize,
        script: &mut Script<'_>,
        q: &Point,
    ) -> Result<Fanout, ShardError<&'static str>> {
        let views = || script.index.views();
        let cx = &mut QueryContext::new();
        match which {
            0 => point(&script.index.partitioner, q, |s| {
                Ok(script.visit(s)?.point_query(q, cx))
            })
            .map(|(_, fan)| fan),
            1 => window(views(), &window_around(q), |s| {
                let inner = script.visit(s)?;
                inner.window_query_visit(&window_around(q), cx, &mut |_| {});
                Ok(())
            }),
            2 => range(views(), q, RADIUS, |s| {
                let inner = script.visit(s)?;
                inner.range_query_visit(q, RADIUS, cx, &mut |_| {});
                Ok(())
            }),
            3 => join(views(), &probes_around(q), RADIUS, |s, kept| {
                assert!(!kept.is_empty(), "a shard was sent no probes");
                let inner = script.visit(s)?;
                inner.distance_join_probes(kept, RADIUS, cx, &mut |_, _| {});
                Ok(())
            }),
            _ => {
                let mut merge = KnnMerge::new(views(), q, K);
                let k_eff = merge.k_eff();
                while let Some(mut next) = merge.next_shard() {
                    let shard = next.shard();
                    let inner = script
                        .visit(shard)
                        .map_err(|error| ShardError { shard, error })?;
                    inner.knn_query_visit(q, k_eff, cx, &mut |p| next.offer(*p));
                }
                Ok(merge.finish().1)
            }
        }
    }

    /// The same query through the [`ShardedIndex`] itself; returns what it
    /// charged to the caller's statistics.
    fn reference(which: usize, index: &ShardedIndex, q: &Point) -> Fanout {
        let cx = &mut QueryContext::new();
        match which {
            0 => drop(index.point_query(q, cx)),
            1 => drop(index.window_query(&window_around(q), cx)),
            2 => drop(index.range_query(q, RADIUS, cx)),
            3 => index.distance_join_probes(&probes_around(q), RADIUS, cx, &mut |_, _| {}),
            _ => drop(index.knn_query(q, K, cx)),
        }
        Fanout {
            visited: cx.stats.shards_visited as usize,
            pruned: cx.stats.shards_pruned as usize,
        }
    }

    fn sharded(seed: u64, shards: usize) -> (Vec<Point>, ShardedIndex) {
        let data = generate(Distribution::skewed_default(), 1_200, seed);
        let cfg = ShardedConfig {
            shards,
            ..ShardedConfig::default()
        };
        let index = ShardedIndex::build(&data, cfg, "Sharded-Scan", &|pts| {
            Box::new(ScanIndex::new(pts.to_vec()))
        });
        (data, index)
    }

    fn script(index: &ShardedIndex, fail_at: usize) -> Script<'_> {
        Script {
            index,
            log: Vec::new(),
            fail_at,
        }
    }

    #[test]
    fn scripted_plans_count_what_the_sharded_index_counts() {
        for (seed, shards) in [(3, 2), (5, 5), (7, 8)] {
            let (data, mut index) = sharded(seed, shards);
            let mut qs = queries::point_queries(&data, 30, seed);
            qs.extend(queries::negative_point_queries(&data, 10, seed));
            for (q, which) in qs.iter().flat_map(|q| (0..CLASSES).map(move |w| (q, w))) {
                let mut script = script(&index, usize::MAX);
                let planned = run(which, &mut script, q).expect("no scripted failure");
                assert_eq!(script.log.len(), planned.visited);
                assert_eq!(planned.visited + planned.pruned, shards);
                assert_eq!(
                    planned,
                    reference(which, &index, q),
                    "class {which} at {q:?}"
                );
            }
            // Delete: the plan finds the point wherever the index does.
            for q in qs.iter().step_by(3) {
                let held = |s: usize| {
                    let inner = &index.shards[s].index;
                    inner.point_query(q, &mut QueryContext::new())
                };
                let probe = |s| Ok(held(s).filter(|p| p.id == q.id));
                let (found, _) = infallible(point(&index.partitioner, q, probe));
                assert_eq!(found.is_some(), index.delete(q), "delete at {q:?}");
            }
        }
    }

    #[test]
    fn an_executor_error_stops_the_scatter_and_names_the_shard() {
        let (_, index) = sharded(11, 6);
        // The window, circle and probes around a location in the middle of
        // the data span shards; a lookup there asks its home shard alone.
        let q = Point::new(0.31, 0.29);
        for which in 0..CLASSES {
            let mut clean = script(&index, usize::MAX);
            run(which, &mut clean, &q).expect("no scripted failure");
            let targets = clean.log;
            if which == 0 {
                assert_eq!(targets, [home_shard(&index.partitioner, &q)]);
            } else {
                assert!(targets.len() >= 2, "class {which} targets one shard only");
            }
            for (i, &shard) in targets.iter().enumerate() {
                let mut failing = script(&index, i);
                let err = run(which, &mut failing, &q).expect_err("scripted failure");
                assert_eq!((err.shard, err.error), (shard, "scripted failure"));
                assert_eq!(failing.log, targets[..=i], "class {which}: scatter ran on");
            }
        }
    }

    #[test]
    fn knn_merges_cross_shard_ties_by_id_and_visits_a_shard_at_the_kth_distance() {
        let view = |x1, x2, len| ShardView {
            mbr: Rect::new(x1, 0.0, x2, 1.0),
            len,
        };
        // Around q, shards 0 and 1 are equally near (MINDIST² = 0.0625
        // exactly); shard 2 is empty and shard 3 is far.
        let views = [
            view(0.0, 0.25, 10),
            view(0.75, 0.875, 10),
            view(0.4, 0.6, 0),
            view(0.9375, 1.0, 10),
        ];
        let q = Point::new(0.5, 0.5);
        let mut merge = KnnMerge::new(views, &q, 1);
        let mut next = merge.next_shard().expect("shard 0");
        assert_eq!(next.shard(), 0, "ties go to the lower shard");
        next.offer(Point::with_id(0.25, 0.5, 9));
        // The k-th distance now equals shard 1's MINDIST: not *beyond* it,
        // so shard 1 must still be asked — and its equally distant
        // candidate with the smaller id wins.
        let mut next = merge.next_shard().expect("shard 1");
        assert_eq!(next.shard(), 1);
        next.offer(Point::with_id(0.75, 0.5, 4));
        // The peek names shard 3 (shard 2 is empty), which the bound prunes.
        assert_eq!(next.peek_next(), Some(3));
        assert!(merge.next_shard().is_none());
        assert!(merge.next_shard().is_none(), "the cutoff is final");
        let (best, fan) = merge.finish();
        assert_eq!(best.iter().map(|p| p.id).collect::<Vec<_>>(), [4]);
        let (visited, pruned) = (2, 2);
        assert_eq!(fan, Fanout { visited, pruned });
    }

    /// kNN the way the router runs it: the nearest shard and the one
    /// [`ShardVisit::peek_next`] names are fetched together, and the second
    /// one's candidates are offered only if the plan then selects it.
    fn knn_two_ahead(script: &mut Script<'_>, q: &Point, k: usize) -> (Vec<Point>, Fanout) {
        let mut merge = KnnMerge::new(script.index.views(), q, k);
        let k_eff = merge.k_eff();
        let mut fetch = |shard| {
            let mut got = Vec::new();
            let inner = script.visit(shard).expect("no scripted failure");
            inner.knn_query_visit(q, k_eff, &mut QueryContext::new(), &mut |p| got.push(*p));
            got
        };
        let mut ahead = None;
        if let Some(mut next) = merge.next_shard() {
            let second = next.peek_next();
            fetch(next.shard()).into_iter().for_each(|p| next.offer(p));
            ahead = second.map(|shard| (shard, fetch(shard)));
        }
        if let Some((second, fetched)) = ahead {
            if let Some(mut next) = merge.next_shard() {
                assert_eq!(next.shard(), second, "the peek named another shard");
                fetched.into_iter().for_each(|p| next.offer(p));
            }
        }
        while let Some(mut next) = merge.next_shard() {
            fetch(next.shard()).into_iter().for_each(|p| next.offer(p));
        }
        let (best, fan) = merge.finish();
        (best.iter().copied().collect(), fan)
    }

    #[test]
    fn fetching_the_second_nearest_shard_ahead_changes_neither_answer_nor_fanout() {
        let mut discarded = 0;
        for (seed, shards) in [(3, 2), (5, 5), (7, 8)] {
            let (data, index) = sharded(seed, shards);
            let mut qs = queries::point_queries(&data, 30, seed);
            qs.extend(queries::negative_point_queries(&data, 10, seed));
            for (q, k) in qs.iter().flat_map(|q| [1, 10, K].map(|k| (q, k))) {
                let mut script = script(&index, usize::MAX);
                let (got, fan) = knn_two_ahead(&mut script, q, k);
                let cx = &mut QueryContext::new();
                assert_eq!(got, index.knn_query(q, k, cx), "k = {k} at {q:?}");
                let visited = cx.stats.shards_visited as usize;
                let pruned = cx.stats.shards_pruned as usize;
                assert_eq!(fan, Fanout { visited, pruned }, "k = {k} at {q:?}");
                // The one fetch the plan did not count: a second-nearest
                // shard it pruned, whose candidates were never offered.
                let extra = script.log.len() - visited;
                assert!(extra <= 1, "k = {k} at {q:?}: {extra} extra fetches");
                discarded += extra;
            }
        }
        assert!(discarded > 0, "no case pruned the second-nearest shard");
    }
}
