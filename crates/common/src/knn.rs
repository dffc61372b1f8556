//! The k-nearest rule, written once.
//!
//! Every kNN in the tree — the learned scans of RSMI and ZM, the grid's ring
//! walk, the sharded merge in `engine::plan` and the server's delta merge —
//! keeps "the `k` best so far" in a [`KBest`], so the order, the pruning
//! bound and the duplicate rule are the same everywhere and equal to the
//! oracle's ([`brute_force::knn_query`](crate::brute_force::knn_query)):
//!
//! * **order** — ascending `(distance², id)`;
//! * **bound** — the k-th held squared distance, infinite until `k` are held;
//! * **duplicates** — a multiset: a stored copy offered once is held once,
//!   and nothing is dropped for *equalling* a held entry, so a point stored
//!   `c` times is `c` results.  Not offering one stored copy twice is the
//!   scanner's job (it knows which blocks it has opened), never the list's.
//!
//! [`expand`] is the paper's Algorithm 3 (§4.3) — search-region expansion
//! around the query point — with the family supplying only the two scans.
//! `storage::directory::knn` is a different algorithm (a best-first queue
//! over MBRs, exact by construction) and does not come through here.

use crate::QueryContext;
use geom::{Point, Rect};
use std::cmp::Ordering;

/// The `k` nearest candidates offered so far, ascending by `(distance², id)`.
#[derive(Debug, Clone)]
pub struct KBest {
    k: usize,
    held: Vec<(f64, Point)>,
}

impl KBest {
    /// An empty list that will hold at most `k` candidates.
    pub fn new(k: usize) -> Self {
        // `k` may come off the wire: reserve for the paper's range (k ≤ 625)
        // and let a larger list grow as it fills.
        Self {
            k,
            held: Vec::with_capacity(k.min(1024) + 1),
        }
    }

    /// The capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of candidates held (never more than `k`).
    pub fn len(&self) -> usize {
        self.held.len()
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }

    /// The squared distance a candidate must not exceed to enter: the k-th
    /// held one, infinite while fewer than `k` are held.  It never rises
    /// between [`clear`](Self::clear)s.  A scanner prunes a container on
    /// `MINDIST² > bound()`, never `>=`: a point at exactly the k-th distance
    /// still enters on a smaller id, so the strict test keeps the answer
    /// independent of the order containers are opened in.
    #[inline]
    pub fn bound(&self) -> f64 {
        if self.held.len() < self.k {
            f64::INFINITY
        } else {
            self.held
                .last()
                .map_or(f64::NEG_INFINITY, |&(d_sq, _)| d_sq)
        }
    }

    /// Offers one stored copy of `p` at squared distance `d_sq` from the
    /// query.  Kept if fewer than `k` are held or `(d_sq, id)` sorts before
    /// the k-th held key; a key equal to held ones goes in after them, so
    /// equal keys stay in offer order.
    #[inline]
    pub fn offer(&mut self, p: Point, d_sq: f64) {
        let key_cmp =
            |&(held_d, held_p): &(f64, Point)| held_d.total_cmp(&d_sq).then(held_p.id.cmp(&p.id));
        if self.held.len() >= self.k && self.held.last().is_none_or(|w| key_cmp(w).is_le()) {
            return;
        }
        // Never `Equal`: the search ends just past the last key ≤ the new one.
        let pos = self
            .held
            .binary_search_by(|e| key_cmp(e).then(Ordering::Less))
            .unwrap_or_else(|pos| pos);
        self.held.insert(pos, (d_sq, p));
        self.held.truncate(self.k);
    }

    /// Forgets every held candidate (the bound returns to infinity).
    pub fn clear(&mut self) {
        self.held.clear();
    }

    /// The held candidates, nearest first.
    pub fn iter(&self) -> impl Iterator<Item = &Point> {
        self.held.iter().map(|(_, p)| p)
    }
}

/// Approximate kNN by search-region expansion (Algorithm 3, §4.3).
///
/// The first region is a `skew.0·√(k/n)` × `skew.1·√(k/n)` rectangle around
/// `q` (Eq. 6; `skew` is the family's per-axis density correction, `(1, 1)`
/// without one).  `scan_window` offers the points it finds in the region to
/// the list; whether a later, larger region re-offers what an earlier one
/// held is the scanner's business (skip the blocks already opened, or
/// [`KBest::clear`] and start over).  While fewer than `k` are held the
/// region doubles; once `k` are held and the k-th distance `d_k` exceeds the
/// region's half-diagonal, it is re-centred to `2·d_k` square and scanned
/// once more.  A region covering the unit square twice over that still holds
/// fewer than `k` means the learned routing lost blocks: the list is cleared
/// and `scan_all` offers every stored point, so the answer always has
/// `min(k, n)` results.
pub fn expand(
    q: &Point,
    k: usize,
    n: usize,
    skew: (f64, f64),
    cx: &mut QueryContext,
    mut scan_window: impl FnMut(&Rect, &mut KBest, &mut QueryContext),
    scan_all: impl FnOnce(&mut KBest, &mut QueryContext),
) -> KBest {
    let k = k.min(n);
    let mut best = KBest::new(k);
    if k == 0 {
        return best;
    }
    let base = (k as f64 / n as f64).sqrt();
    let mut width = (skew.0 * base).min(2.0);
    let mut height = (skew.1 * base).min(2.0);
    loop {
        scan_window(&Rect::centered(q.x, q.y, width, height), &mut best, cx);
        let covers_space = width >= 2.0 && height >= 2.0;
        if best.len() < k {
            if covers_space {
                best.clear();
                scan_all(&mut best, cx);
                break;
            }
            width = (width * 2.0).min(2.0);
            height = (height * 2.0).min(2.0);
            continue;
        }
        let dk = best.bound().sqrt();
        let half_diag = (width * width + height * height).sqrt() / 2.0;
        if dk > half_diag && !covers_space {
            width = (2.0 * dk).min(2.0);
            height = (2.0 * dk).min(2.0);
            continue;
        }
        break;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force;

    fn ids(best: &KBest) -> Vec<u64> {
        best.iter().map(|p| p.id).collect()
    }

    fn offer_all(best: &mut KBest, q: &Point, points: &[Point]) {
        for p in points {
            best.offer(*p, p.dist_sq(q));
        }
    }

    #[test]
    fn ties_at_the_kth_distance_resolve_by_id() {
        let q = Point::new(0.5, 0.5);
        // Four points at the same distance, offered in descending id order.
        let ring = [
            Point::with_id(0.75, 0.5, 9),
            Point::with_id(0.5, 0.75, 7),
            Point::with_id(0.25, 0.5, 3),
            Point::with_id(0.5, 0.25, 1),
        ];
        let mut best = KBest::new(2);
        offer_all(&mut best, &q, &ring);
        assert_eq!(ids(&best), [1, 3]);
        // A larger id at the k-th distance does not displace a held one.
        best.offer(Point::with_id(0.75, 0.5, 4), 0.0625);
        assert_eq!(ids(&best), [1, 3]);
        best.offer(Point::with_id(0.75, 0.5, 2), 0.0625);
        assert_eq!(ids(&best), [1, 2]);
    }

    #[test]
    fn a_point_offered_c_times_is_held_c_times() {
        let q = Point::new(0.1, 0.1);
        let twin = Point::with_id(0.2, 0.2, 5);
        let far = Point::with_id(0.9, 0.9, 1);
        let mut best = KBest::new(4);
        offer_all(&mut best, &q, &[twin, far, twin, twin]);
        assert_eq!(ids(&best), [5, 5, 5, 1]);
        // With room for two, two of the three copies are the answer.
        let mut best = KBest::new(2);
        offer_all(&mut best, &q, &[twin, far, twin, twin]);
        assert_eq!(ids(&best), [5, 5]);
    }

    #[test]
    fn k_zero_holds_nothing_and_k_above_n_holds_everything() {
        let q = Point::new(0.0, 0.0);
        let points: Vec<Point> = (1..=5u64)
            .map(|i| Point::with_id(i as f64 / 10.0, 0.0, i))
            .collect();
        let mut none = KBest::new(0);
        offer_all(&mut none, &q, &points);
        assert!(none.is_empty());
        assert_eq!(none.bound(), f64::NEG_INFINITY, "nothing can enter");
        let mut all = KBest::new(8);
        offer_all(&mut all, &q, &points);
        assert_eq!(ids(&all), [1, 2, 3, 4, 5]);
        assert_eq!(all.bound(), f64::INFINITY, "still short of k");
    }

    #[test]
    fn the_bound_is_infinite_until_k_are_held_and_never_rises_after() {
        let q = Point::new(0.5, 0.5);
        let k = 6;
        let mut best = KBest::new(k);
        let mut last = f64::INFINITY;
        // A deterministic scatter with repeated distances.
        for i in 0..200u64 {
            let p = Point::with_id(
                (i * 37 % 101) as f64 / 101.0,
                (i * 53 % 17) as f64 / 17.0,
                i,
            );
            best.offer(p, p.dist_sq(&q));
            let bound = best.bound();
            if best.len() < k {
                assert_eq!(bound, f64::INFINITY);
            } else {
                assert!(bound <= last, "bound rose from {last} to {bound}");
                last = bound;
            }
        }
        assert!(last.is_finite());
    }

    #[test]
    fn the_list_is_the_oracle_on_a_duplicate_heavy_set() {
        let q = Point::new(0.3, 0.6);
        let mut points: Vec<Point> = (0..60u64)
            .map(|i| Point::with_id((i % 8) as f64 / 8.0, (i % 5) as f64 / 5.0, i % 20))
            .collect();
        points.extend_from_within(10..30);
        for k in [0, 1, 3, 20, 80, 200] {
            let mut best = KBest::new(k);
            offer_all(&mut best, &q, &points);
            let got: Vec<Point> = best.iter().copied().collect();
            assert_eq!(got, brute_force::knn_query(&points, &q, k), "k = {k}");
        }
    }

    /// A scanner over a plain slice that "loses" every point outside the
    /// region unless the region is the whole space — the situation the
    /// fallback exists for.
    fn expand_over(points: &[Point], q: &Point, k: usize, lossy: bool) -> (Vec<u64>, u32, bool) {
        let (mut rounds, mut fell_back) = (0u32, false);
        let best = expand(
            q,
            k,
            points.len(),
            (1.0, 1.0),
            &mut QueryContext::new(),
            |window, best, _| {
                rounds += 1;
                best.clear();
                for p in points.iter().filter(|p| window.contains(p)) {
                    if !(lossy && p.id % 2 == 0) {
                        best.offer(*p, p.dist_sq(q));
                    }
                }
            },
            |best, _| {
                fell_back = true;
                offer_all(best, q, points);
            },
        );
        (ids(&best), rounds, fell_back)
    }

    #[test]
    fn expand_grows_the_region_until_the_answer_is_the_oracles() {
        let points: Vec<Point> = (0..400u64)
            .map(|i| Point::with_id((i % 20) as f64 / 20.0, (i / 20) as f64 / 20.0, i))
            .collect();
        for (q, k) in [
            (Point::new(0.5, 0.5), 1),
            (Point::new(0.02, 0.97), 10),
            (Point::new(0.5, 0.5), 400),
            (Point::new(0.9, 0.1), 1_000),
        ] {
            let (got, rounds, fell_back) = expand_over(&points, &q, k, false);
            let want: Vec<u64> = brute_force::knn_query(&points, &q, k)
                .iter()
                .map(|p| p.id)
                .collect();
            assert_eq!(got, want, "q = {q:?}, k = {k}");
            assert!(rounds >= 1 && !fell_back);
        }
        assert_eq!(expand_over(&points, &Point::new(0.5, 0.5), 0, false).1, 0);
        assert_eq!(expand_over(&[], &Point::new(0.5, 0.5), 3, false).1, 0);
    }

    #[test]
    fn expand_falls_back_to_the_full_scan_when_the_region_scan_loses_points() {
        let points: Vec<Point> = (0..100u64)
            .map(|i| Point::with_id((i % 10) as f64 / 10.0, (i / 10) as f64 / 10.0, i))
            .collect();
        let q = Point::new(0.5, 0.5);
        // 50 odd ids are reachable by region; asking for 80 must fall back
        // and return exactly the oracle's 80 with no copy doubled.
        let (got, _, fell_back) = expand_over(&points, &q, 80, true);
        assert!(fell_back);
        let want: Vec<u64> = brute_force::knn_query(&points, &q, 80)
            .iter()
            .map(|p| p.id)
            .collect();
        assert_eq!(got, want);
    }
}
