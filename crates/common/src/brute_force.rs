//! Brute-force reference implementations of the three query types.
//!
//! These are the ground truth against which recall (window and kNN queries of
//! the learned indices) is measured, and the oracle used by correctness tests
//! of every index.

use crate::CopyVisit;
use geom::{order_key, Point, Rect};

/// Returns the indexed point with exactly the query coordinates, if any.
pub fn point_query(points: &[Point], q: &Point) -> Option<Point> {
    points.iter().copied().find(|p| p.same_location(q))
}

/// Returns all points inside the window (boundaries inclusive).
pub fn window_query(points: &[Point], window: &Rect) -> Vec<Point> {
    points
        .iter()
        .copied()
        .filter(|p| window.contains(p))
        .collect()
}

/// Returns the `k` nearest neighbours of `q`, closest first.
///
/// Ties are broken by point id so that the result is deterministic and
/// comparable across indices.
pub fn knn_query(points: &[Point], q: &Point, k: usize) -> Vec<Point> {
    let mut v: Vec<Point> = points.to_vec();
    v.sort_by_key(|p| (order_key(p.dist_sq(q)), p.id));
    v.truncate(k);
    v
}

/// Returns all points within Euclidean distance `radius` of `center`
/// (boundary inclusive), in input order — the distance-range oracle.
/// Non-finite or negative radii yield no results, matching
/// [`SpatialIndex::range_query_visit`](crate::SpatialIndex::range_query_visit).
pub fn range_query(points: &[Point], center: &Point, radius: f64) -> Vec<Point> {
    if !radius.is_finite() || radius < 0.0 {
        return Vec::new();
    }
    let r_sq = radius * radius;
    points
        .iter()
        .copied()
        .filter(|p| p.dist_sq(center) <= r_sq)
        .collect()
}

/// Returns every cross pair `(p ∈ left, q ∈ right)` with `dist(p, q) ≤
/// radius`, in nested input order — the distance-join oracle.  Each stored
/// copy on either side contributes its own pairs.
pub fn distance_join(left: &[Point], right: &[Point], radius: f64) -> Vec<(Point, Point)> {
    if !radius.is_finite() || radius < 0.0 {
        return Vec::new();
    }
    let r_sq = radius * radius;
    let mut out = Vec::new();
    for p in left {
        for q in right {
            if p.dist_sq(q) <= r_sq {
                out.push((*p, *q));
            }
        }
    }
    out
}

/// A [`SpatialIndex`](crate::SpatialIndex) that answers every query by
/// scanning a plain `Vec<Point>` — the reference semantics every real index
/// is tested against, packaged as an index so oracles, doc examples, and
/// serving-layer tests can use it wherever a `SpatialIndex` is expected.
///
/// Updates follow exact `Vec` semantics: `insert` appends, `delete` removes
/// *all* copies matching the argument's location and id, and `point_query`
/// returns the first match in `Vec` order.  Every query charges one block
/// scan over the whole vector to the caller's context.
#[derive(Debug, Clone, Default)]
pub struct ScanIndex(Vec<Point>);

impl ScanIndex {
    /// Creates a scan index over the given points (kept in the given order).
    pub fn new(points: Vec<Point>) -> Self {
        Self(points)
    }

    /// The indexed points, in `Vec` order.
    pub fn points(&self) -> &[Point] {
        &self.0
    }
}

impl crate::SpatialIndex for ScanIndex {
    fn name(&self) -> &'static str {
        "Scan"
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn point_query_visit(&self, q: &Point, cx: &mut crate::QueryContext, visit: &mut CopyVisit) {
        cx.count_block_scan(self.0.len());
        let mut copies = self.0.iter().filter(|p| p.same_location(q));
        let _ = copies.try_for_each(visit);
    }

    fn window_query_visit(
        &self,
        window: &Rect,
        cx: &mut crate::QueryContext,
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
        cx: &mut crate::QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        cx.count_block_scan(self.0.len());
        for p in knn_query(&self.0, q, k) {
            visit(&p);
        }
    }

    fn range_query_visit(
        &self,
        center: &Point,
        radius: f64,
        cx: &mut crate::QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        cx.count_block_scan(self.0.len());
        for p in range_query(&self.0, center, radius) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Point> {
        vec![
            Point::with_id(0.1, 0.1, 1),
            Point::with_id(0.2, 0.2, 2),
            Point::with_id(0.8, 0.8, 3),
            Point::with_id(0.5, 0.5, 4),
            Point::with_id(0.55, 0.5, 5),
        ]
    }

    #[test]
    fn point_query_finds_exact_match_only() {
        let pts = sample();
        assert_eq!(point_query(&pts, &Point::new(0.5, 0.5)).unwrap().id, 4);
        assert!(point_query(&pts, &Point::new(0.5, 0.50001)).is_none());
    }

    #[test]
    fn window_query_respects_boundaries() {
        let pts = sample();
        let w = Rect::new(0.1, 0.1, 0.2, 0.2);
        let res = window_query(&pts, &w);
        assert_eq!(res.len(), 2);
    }

    #[test]
    fn knn_query_orders_by_distance() {
        let pts = sample();
        let res = knn_query(&pts, &Point::new(0.5, 0.5), 3);
        assert_eq!(res[0].id, 4);
        assert_eq!(res[1].id, 5);
        assert_eq!(res.len(), 3);
        // distances non-decreasing
        let q = Point::new(0.5, 0.5);
        assert!(res[0].dist(&q) <= res[1].dist(&q));
        assert!(res[1].dist(&q) <= res[2].dist(&q));
    }

    #[test]
    fn knn_with_k_larger_than_n_returns_all() {
        let pts = sample();
        assert_eq!(knn_query(&pts, &Point::new(0.0, 0.0), 100).len(), pts.len());
    }

    #[test]
    fn scan_index_follows_vec_semantics() {
        use crate::{QueryContext, SpatialIndex};
        let mut idx = ScanIndex::new(sample());
        let mut cx = QueryContext::new();
        // First match in Vec order, full-vector scan charged.
        assert_eq!(
            idx.point_query(&Point::new(0.5, 0.5), &mut cx).unwrap().id,
            4
        );
        assert_eq!(cx.take_stats().candidates_scanned, 5);
        // Insert appends; delete removes all matching copies.
        idx.insert(Point::with_id(0.5, 0.5, 9));
        assert_eq!(idx.len(), 6);
        assert!(idx.delete(&Point::with_id(0.5, 0.5, 4)));
        assert!(!idx.delete(&Point::with_id(0.5, 0.5, 4)));
        assert_eq!(
            idx.point_query(&Point::new(0.5, 0.5), &mut cx).unwrap().id,
            9
        );
        // Window and kNN agree with the free functions.
        let w = Rect::new(0.0, 0.0, 0.3, 0.3);
        assert_eq!(
            idx.window_query(&w, &mut cx),
            window_query(idx.points(), &w)
        );
        assert_eq!(
            idx.knn_query(&Point::new(0.5, 0.5), 3, &mut cx),
            knn_query(idx.points(), &Point::new(0.5, 0.5), 3)
        );
    }

    #[test]
    fn range_query_is_boundary_inclusive_and_rejects_bad_radii() {
        let pts = sample();
        let c = Point::new(0.5, 0.5);
        let got = range_query(&pts, &c, 0.1);
        assert_eq!(got.iter().map(|p| p.id).collect::<Vec<_>>(), vec![4, 5]);
        assert!(range_query(&pts, &c, -0.1).is_empty());
        assert!(range_query(&pts, &c, f64::NAN).is_empty());
        assert_eq!(range_query(&pts, &c, 2.0).len(), pts.len());
        // Boundary inclusive, with exactly representable distances: 0.25 is
        // a power-of-two fraction, so dist == radius holds bit-for-bit.
        let boundary = vec![Point::with_id(0.25, 0.5, 1), Point::with_id(1.0, 0.5, 2)];
        let got = range_query(&boundary, &c, 0.25);
        assert_eq!(got.iter().map(|p| p.id).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn distance_join_pairs_every_copy() {
        let left = vec![Point::with_id(0.1, 0.1, 1), Point::with_id(0.1, 0.1, 1)];
        let right = vec![Point::with_id(0.1, 0.12, 7), Point::with_id(0.9, 0.9, 8)];
        let pairs = distance_join(&left, &right, 0.05);
        // Both identical left copies pair with the near right point.
        assert_eq!(pairs.len(), 2);
        for (p, q) in &pairs {
            assert_eq!((p.id, q.id), (1, 7));
        }
        assert!(distance_join(&left, &right, f64::INFINITY).is_empty());
    }

    #[test]
    fn scan_index_range_and_join_match_the_free_functions() {
        use crate::{QueryContext, SpatialIndex};
        let idx = ScanIndex::new(sample());
        let other = ScanIndex::new(vec![
            Point::with_id(0.5, 0.52, 100),
            Point::with_id(0.05, 0.05, 101),
        ]);
        let mut cx = QueryContext::new();
        let c = Point::new(0.5, 0.5);
        assert_eq!(
            idx.range_query(&c, 0.1, &mut cx),
            range_query(idx.points(), &c, 0.1)
        );
        let mut got: Vec<(u64, u64)> = idx
            .distance_join(&other, 0.1, &mut cx)
            .iter()
            .map(|(p, q)| (p.id, q.id))
            .collect();
        let mut truth: Vec<(u64, u64)> = distance_join(idx.points(), other.points(), 0.1)
            .iter()
            .map(|(p, q)| (p.id, q.id))
            .collect();
        got.sort_unstable();
        truth.sort_unstable();
        assert_eq!(got, truth);
        // Enumeration is exact.
        let mut n = 0;
        idx.for_each_point(&mut |_| n += 1);
        assert_eq!(n, idx.points().len());
    }
}
