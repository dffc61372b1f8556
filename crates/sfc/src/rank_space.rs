//! The rank-space transform (§3.1 of the RSMI paper).
//!
//! Points are mapped to an `n x n` grid where the coordinate of a point in
//! each dimension is its *rank* in that dimension (ties broken by the other
//! coordinate).  The key property of the rank space is that every row and
//! every column of the grid contains exactly one point, which evens out the
//! gaps between the curve values of adjacently ranked points and therefore
//! simplifies the CDF the index model has to learn.

use crate::CurveKind;
use geom::{order_key, Point};

/// The curve order needed so that a `2^order` grid has at least `n` rows and
/// columns, i.e. `order = ceil(log2(n))` (minimum 1).
#[inline]
pub fn rank_space_order(n: usize) -> u32 {
    if n <= 2 {
        1
    } else {
        (usize::BITS - (n - 1).leading_zeros()).max(1)
    }
}

/// The rank-space representation of a point set.
///
/// Rank pairs are stored in the same order as the input slice, so
/// `rank(i)` corresponds to `points[i]`.
#[derive(Debug, Clone)]
pub struct RankSpace {
    order: u32,
    ranks: Vec<(u32, u32)>,
}

impl RankSpace {
    /// Computes ranks for every point.
    ///
    /// Sorting is `O(n log n)`; this is the dominant cost of bulk-loading a
    /// leaf model.  Ties on x are broken by y and vice versa, exactly as in
    /// the paper's Fig. 3 example, then by the point id and last by input
    /// position, so the transform is deterministic even for duplicate
    /// locations.  One axis is sorted and ranked at a time.
    pub fn new(points: &[Point]) -> Self {
        let n = points.len();
        let mut ranks = vec![(0u32, 0u32); n];
        for (rank, &(_, i)) in axis_order(points, Axis::X).iter().enumerate() {
            ranks[i].0 = rank as u32;
        }
        for (rank, &(_, i)) in axis_order(points, Axis::Y).iter().enumerate() {
            ranks[i].1 = rank as u32;
        }
        Self {
            order: rank_space_order(n.max(1)),
            ranks,
        }
    }

    /// The `(rank_x, rank_y)` pair of the `i`-th input point.
    #[inline]
    pub fn rank(&self, i: usize) -> (u32, u32) {
        self.ranks[i]
    }

    /// The curve value of the `i`-th input point under the given curve.
    #[inline]
    pub fn curve_value(&self, i: usize, curve: CurveKind) -> u64 {
        let (rx, ry) = self.ranks[i];
        curve.encode(rx, ry, self.order)
    }

    /// Curve values for all points, aligned with the input slice.
    pub fn curve_values(&self, curve: CurveKind) -> Vec<u64> {
        (0..self.ranks.len())
            .map(|i| self.curve_value(i, curve))
            .collect()
    }

    /// A permutation of the input indices sorted by ascending curve value.
    ///
    /// Packing every `B` consecutive indices of this permutation into a block
    /// realises the R-tree packing strategy the paper reuses (Equation 1).
    /// Rank-space cells hold one point each, so no two values tie.
    pub fn sorted_permutation(&self, curve: CurveKind) -> Vec<usize> {
        let mut keyed: Vec<(u64, usize)> = (0..self.ranks.len())
            .map(|i| (self.curve_value(i, curve), i))
            .collect();
        keyed.sort_unstable();
        // Collected from a borrow: an in-place `into_iter` collect would
        // keep the entries' allocation, twice the permutation's size.
        keyed.iter().map(|&(_, i)| i).collect()
    }
}

/// The coordinate an [`axis_order`] sorts by first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// By x, ties by y.
    X,
    /// By y, ties by x.
    Y,
}

impl Axis {
    /// `p`'s coordinate on this axis, then its other coordinate.
    #[inline]
    fn coords(self, p: &Point) -> (f64, f64) {
        match self {
            Axis::X => (p.x, p.y),
            Axis::Y => (p.y, p.x),
        }
    }
}

/// `points` sorted by their `axis` coordinate, ties broken by the other
/// coordinate, then by id, then by input position, all compared by
/// [`order_key`]: one `(key, position)` entry per point, where `position`
/// indexes `points`.
///
/// The sort moves 16-byte entries rather than comparing points through an
/// index.  Equal keys of the first coordinate are rare in real data; only
/// their runs read the points again.
pub fn axis_order(points: &[Point], axis: Axis) -> Vec<(u64, usize)> {
    let mut order: Vec<(u64, usize)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (order_key(axis.coords(p).0), i))
        .collect();
    order.sort_unstable();
    for run in order.chunk_by_mut(|a, b| a.0 == b.0) {
        if run.len() > 1 {
            run.sort_unstable_by_key(|&(_, i)| {
                (order_key(axis.coords(&points[i]).1), points[i].id, i)
            });
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_example() -> Vec<Point> {
        // Eight points roughly reproducing Fig. 3a of the paper; exact
        // coordinates do not matter, only the relative order.
        vec![
            Point::with_id(0.10, 0.20, 1),
            Point::with_id(0.05, 0.10, 2),
            Point::with_id(0.10, 0.45, 3),
            Point::with_id(0.30, 0.35, 4),
            Point::with_id(0.55, 0.30, 5),
            Point::with_id(0.40, 0.60, 6),
            Point::with_id(0.80, 0.75, 7),
            Point::with_id(0.90, 0.90, 8),
        ]
    }

    #[test]
    fn rank_space_order_is_ceil_log2() {
        assert_eq!(rank_space_order(1), 1);
        assert_eq!(rank_space_order(2), 1);
        assert_eq!(rank_space_order(3), 2);
        assert_eq!(rank_space_order(4), 2);
        assert_eq!(rank_space_order(5), 3);
        assert_eq!(rank_space_order(8), 3);
        assert_eq!(rank_space_order(9), 4);
        assert_eq!(rank_space_order(1_000_000), 20);
        assert_eq!(RankSpace::new(&paper_example()).order, rank_space_order(8));
    }

    #[test]
    fn every_row_and_column_has_exactly_one_point() {
        let pts = paper_example();
        let rs = RankSpace::new(&pts);
        let n = pts.len();
        let mut xs = vec![false; n];
        let mut ys = vec![false; n];
        for i in 0..n {
            let (rx, ry) = rs.rank(i);
            assert!(!xs[rx as usize], "duplicate x-rank");
            assert!(!ys[ry as usize], "duplicate y-rank");
            xs[rx as usize] = true;
            ys[ry as usize] = true;
        }
        assert!(xs.iter().all(|&b| b));
        assert!(ys.iter().all(|&b| b));
    }

    #[test]
    fn x_ties_are_broken_by_y() {
        // p1 and p3 share an x-coordinate; p3 has the larger y so it must be
        // mapped to the later column (as in the paper's Fig. 3 narrative).
        let pts = paper_example();
        let rs = RankSpace::new(&pts);
        let r1 = rs.rank(0); // p1 at (0.10, 0.20)
        let r3 = rs.rank(2); // p3 at (0.10, 0.45)
        assert!(r1.0 < r3.0);
    }

    #[test]
    fn ranks_preserve_coordinate_order() {
        let pts = paper_example();
        let rs = RankSpace::new(&pts);
        for i in 0..pts.len() {
            for j in 0..pts.len() {
                if pts[i].x < pts[j].x {
                    assert!(rs.rank(i).0 < rs.rank(j).0);
                }
                if pts[i].y < pts[j].y {
                    assert!(rs.rank(i).1 < rs.rank(j).1);
                }
            }
        }
    }

    #[test]
    fn curve_values_are_unique_per_point() {
        let pts = paper_example();
        let rs = RankSpace::new(&pts);
        for curve in [CurveKind::Z, CurveKind::Hilbert] {
            let mut vals = rs.curve_values(curve);
            vals.sort_unstable();
            vals.dedup();
            assert_eq!(vals.len(), pts.len());
        }
    }

    #[test]
    fn sorted_permutation_sorts_by_curve_value() {
        let pts = paper_example();
        let rs = RankSpace::new(&pts);
        let curve = CurveKind::Hilbert;
        let perm = rs.sorted_permutation(curve);
        let vals: Vec<u64> = perm.iter().map(|&i| rs.curve_value(i, curve)).collect();
        assert!(vals.windows(2).all(|w| w[0] <= w[1]));
        // It is a permutation of 0..n.
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..pts.len()).collect::<Vec<_>>());
    }

    #[test]
    fn rank_space_gap_variance_is_smaller_than_raw_zvalue_gaps() {
        // The motivating claim of §3.1: ordering in rank space produces more
        // even gaps between consecutive curve values than applying the curve
        // to raw (skewed) coordinates.
        let mut pts = Vec::new();
        // Strongly skewed data: most points crammed into a corner.
        for i in 0..256u32 {
            let t = (i as f64 + 0.5) / 256.0;
            pts.push(Point::with_id(t.powi(6), t.powi(6), i as u64));
        }
        let rs = RankSpace::new(&pts);
        let order = 16;

        let gaps = |mut vals: Vec<u64>| -> f64 {
            vals.sort_unstable();
            let diffs: Vec<f64> = vals.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
            let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
            let var =
                diffs.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / diffs.len() as f64;
            // Coefficient-of-variation-like measure so scale differences do
            // not dominate.
            var.sqrt() / mean
        };

        let raw: Vec<u64> = pts
            .iter()
            .map(|p| crate::zcurve::encode_unit(p.x, p.y, order))
            .collect();
        let ranked = rs.curve_values(CurveKind::Z);
        assert!(
            gaps(ranked) < gaps(raw),
            "rank-space gaps should be more even than raw-space gaps"
        );
    }
}
