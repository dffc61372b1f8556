//! A single data block, stored struct-of-arrays.

use crate::kernels;
use geom::{Point, Rect};
use std::ops::ControlFlow;

/// Identifier of a block within a [`crate::BlockStore`].
pub type BlockId = usize;

/// A fixed-capacity block of data points, stored as separate `x`/`y`/`id`
/// lanes (struct-of-arrays) so the scan kernels in [`crate::kernels`] read
/// contiguous coordinate arrays instead of striding over interleaved
/// `Point`s.  The two coordinate lanes share one fixed allocation
/// (`x` lane at `coords[..capacity]`, `y` lane at `coords[capacity..]`):
/// tree-shaped families visit many small scattered blocks per query, and a
/// second heap hop per visit costs more than the lane split saves.
///
/// Blocks are chained with `prev`/`next` pointers in curve-value order so
/// that window queries can scan a contiguous range of blocks (§3.2).  Blocks
/// created by insertions after bulk-loading are flagged with
/// [`Block::is_overflow`] so that they "do not count towards the error
/// bounds" (§5): query algorithms treat them as extensions of their
/// predecessor block.
///
/// The block header carries the tight MBR of the live points.  [`Block::push`]
/// expands it and a removal recomputes it only when the removed point lay on
/// an edge, so [`Block::mbr`] is O(1) and always exact.  It is not persisted:
/// loading a snapshot pushes the points back, which rebuilds it.
#[derive(Debug, Clone)]
pub struct Block {
    /// `[x0..x_cap | y0..y_cap]`; only the first `len` entries of each half
    /// are live.
    coords: Box<[f64]>,
    ids: Vec<u64>,
    capacity: usize,
    prev: Option<BlockId>,
    next: Option<BlockId>,
    overflow: bool,
    mbr: Rect,
}

impl Block {
    /// Creates an empty block with the given capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "block capacity must be positive");
        Self {
            coords: vec![0.0; 2 * capacity].into_boxed_slice(),
            ids: Vec::with_capacity(capacity),
            capacity,
            prev: None,
            next: None,
            overflow: false,
            mbr: Rect::empty(),
        }
    }

    /// Number of live points in the block.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the block holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether the block is at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.ids.len() >= self.capacity
    }

    /// Whether this block was created by an insertion after bulk-loading.
    #[inline]
    pub fn is_overflow(&self) -> bool {
        self.overflow
    }

    /// Marks the block as an insertion-created overflow block.
    #[inline]
    pub(crate) fn set_overflow(&mut self, overflow: bool) {
        self.overflow = overflow;
    }

    /// ID of the preceding block in curve order, if any.
    #[inline]
    pub(crate) fn prev(&self) -> Option<BlockId> {
        self.prev
    }

    /// ID of the following block in curve order, if any.
    #[inline]
    pub fn next(&self) -> Option<BlockId> {
        self.next
    }

    /// Sets the predecessor link.
    #[inline]
    pub(crate) fn set_prev(&mut self, prev: Option<BlockId>) {
        self.prev = prev;
    }

    /// Sets the successor link.
    #[inline]
    pub(crate) fn set_next(&mut self, next: Option<BlockId>) {
        self.next = next;
    }

    /// Appends a point.
    ///
    /// # Panics
    /// Panics if the block is full; callers are expected to check
    /// [`Block::is_full`] and allocate an overflow block instead.
    pub fn push(&mut self, p: Point) {
        assert!(!self.is_full(), "push into a full block");
        let n = self.ids.len();
        self.coords[n] = p.x;
        self.coords[self.capacity + n] = p.y;
        self.ids.push(p.id);
        self.mbr.expand_to_point(p);
    }

    /// The x-coordinate lane.
    #[inline]
    pub(crate) fn xs(&self) -> &[f64] {
        &self.coords[..self.ids.len()]
    }

    /// The y-coordinate lane.
    #[inline]
    pub(crate) fn ys(&self) -> &[f64] {
        &self.coords[self.capacity..self.capacity + self.ids.len()]
    }

    /// The id lane.
    #[inline]
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The `i`-th point, re-assembled from the lanes.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub(crate) fn point(&self, i: usize) -> Point {
        assert!(i < self.ids.len());
        Point::with_id(self.coords[i], self.coords[self.capacity + i], self.ids[i])
    }

    /// Iterates the block's points in lane order.
    pub fn iter_points(&self) -> impl Iterator<Item = Point> + '_ {
        (0..self.len()).map(move |i| self.point(i))
    }

    /// The block's points as an owned vector (maintenance paths: splits,
    /// rebuilds, verification; query paths use the kernel filters instead).
    pub fn to_points(&self) -> Vec<Point> {
        self.iter_points().collect()
    }

    /// Visits every point inside `rect`, in lane order — the kernel-driven
    /// window filter ([`kernels::for_each_in_rect`]).
    #[inline]
    pub fn for_each_in_rect(&self, rect: &Rect, visit: impl FnMut(Point)) {
        kernels::for_each_in_rect(self.xs(), self.ys(), &self.ids, rect, visit);
    }

    /// Visits every point within squared distance `r_sq` of `center`
    /// (with its squared distance), in lane order — the kernel-driven
    /// distance-range filter ([`kernels::for_each_within`]).
    #[inline]
    pub fn for_each_within(&self, center: &Point, r_sq: f64, visit: impl FnMut(Point, f64)) {
        kernels::for_each_within(
            self.xs(),
            self.ys(),
            &self.ids,
            center.x,
            center.y,
            r_sq,
            visit,
        );
    }

    /// Visits every point with its squared distance from `center`, in lane
    /// order — the kNN push loop ([`kernels::for_each_dist_sq`]).
    #[inline]
    pub fn for_each_dist_sq(&self, center: &Point, visit: impl FnMut(Point, f64)) {
        kernels::for_each_dist_sq(self.xs(), self.ys(), &self.ids, center.x, center.y, visit);
    }

    /// The pairing kernel of every distance join: visits `(p, q)` for each
    /// block point `p` and surviving probe `q` within squared distance
    /// `r_sq`, point-major (lane order, then probe order).
    pub fn for_each_pair_within(
        &self,
        probes: &[Point],
        r_sq: f64,
        mut visit: impl FnMut(&Point, &Point),
    ) {
        if let [q] = probes {
            // Single surviving probe: the vectorized radius filter preserves
            // the (point-major) visit order.
            self.for_each_within(q, r_sq, |p, _| visit(&p, q));
        } else {
            for p in self.iter_points() {
                for q in probes {
                    if p.dist_sq(q) <= r_sq {
                        visit(&p, q);
                    }
                }
            }
        }
    }

    /// Removes the point with the given id, swapping in the last entry
    /// (the paper's deletion strategy: "swap p with the last point in this
    /// block and mark p as deleted").  Returns the removed point.
    pub fn remove_by_id(&mut self, id: u64) -> Option<Point> {
        let pos = self.ids.iter().position(|&i| i == id)?;
        Some(self.swap_remove(pos))
    }

    /// Removes every point at exactly `(x, y)` whose id is `id` — the
    /// delete of every block-backed family — and returns how many went.
    /// Co-located duplicates are legal, so the id is tested per point.
    /// Each removal swaps in the last entry like [`Block::remove_by_id`].
    pub fn remove_at(&mut self, x: f64, y: f64, id: u64) -> usize {
        let (mut i, mut removed) = (0, 0);
        while i < self.ids.len() {
            if self.xs()[i] == x && self.ys()[i] == y && self.ids[i] == id {
                self.swap_remove(i);
                removed += 1;
            } else {
                i += 1;
            }
        }
        removed
    }

    /// Removes every point; links and the overflow flag stay.
    pub(crate) fn clear(&mut self) {
        self.ids.clear();
        self.mbr = Rect::empty();
    }

    fn swap_remove(&mut self, pos: usize) -> Point {
        let p = self.point(pos);
        let last = self.ids.len() - 1;
        self.coords[pos] = self.coords[last];
        self.coords[self.capacity + pos] = self.coords[self.capacity + last];
        self.ids.swap_remove(pos);
        // Only a point on an edge can have been holding that edge out.
        let m = self.mbr;
        if p.x == m.min_x || p.x == m.max_x || p.y == m.min_y || p.y == m.max_y {
            self.mbr = kernels::mbr_of(self.xs(), self.ys());
        }
        p
    }

    /// Visits every point at exactly `(x, y)`, in slot order, until `visit`
    /// breaks; returns what stopped the scan.
    pub fn find_at(
        &self,
        x: f64,
        y: f64,
        mut visit: impl FnMut(&Point) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let (xs, ys) = (self.xs(), self.ys());
        let mut at = (0..xs.len()).filter(|&i| xs[i] == x && ys[i] == y);
        at.try_for_each(|i| visit(&self.point(i)))
    }

    /// The minimum bounding rectangle of the block's points (empty rectangle
    /// for an empty block), read from the block header.
    #[inline]
    pub fn mbr(&self) -> Rect {
        self.mbr
    }

    /// Approximate in-memory size of the block in bytes, for index-size
    /// accounting.  The fixed capacity is charged even when the block is not
    /// full, mirroring an on-disk page (the lane split leaves the per-point
    /// footprint unchanged: two `f64`s plus one `u64`); the header is the
    /// links and flags plus the MBR.
    pub(crate) fn size_bytes(&self) -> usize {
        self.capacity * (2 * std::mem::size_of::<f64>() + std::mem::size_of::<u64>())
            + 4 * std::mem::size_of::<usize>()
            + std::mem::size_of::<Rect>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first point [`Block::find_at`] visits.
    fn first_at(b: &Block, x: f64, y: f64) -> Option<Point> {
        let mut hit = None;
        let _ = b.find_at(x, y, |p| {
            hit = Some(*p);
            ControlFlow::Break(())
        });
        hit
    }

    #[test]
    fn push_until_full_then_panic() {
        let mut b = Block::new(3);
        b.push(Point::new(0.1, 0.1));
        b.push(Point::new(0.2, 0.2));
        b.push(Point::new(0.3, 0.3));
        assert!(b.is_full());
        let result = std::panic::catch_unwind(move || {
            let mut b = b;
            b.push(Point::new(0.4, 0.4));
        });
        assert!(result.is_err());
    }

    #[test]
    fn lanes_stay_parallel_and_points_reassemble() {
        let mut b = Block::new(4);
        b.push(Point::with_id(0.1, 0.9, 7));
        b.push(Point::with_id(0.2, 0.8, 8));
        assert_eq!(b.xs(), &[0.1, 0.2]);
        assert_eq!(b.ys(), &[0.9, 0.8]);
        assert_eq!(b.ids(), &[7, 8]);
        assert_eq!(b.point(1), Point::with_id(0.2, 0.8, 8));
        assert_eq!(
            b.to_points(),
            vec![Point::with_id(0.1, 0.9, 7), Point::with_id(0.2, 0.8, 8)]
        );
    }

    #[test]
    fn remove_by_id_frees_space_and_swaps_all_lanes() {
        let mut b = Block::new(2);
        b.push(Point::with_id(0.1, 0.1, 7));
        b.push(Point::with_id(0.2, 0.2, 8));
        assert!(b.is_full());
        let removed = b.remove_by_id(7).unwrap();
        assert_eq!(removed.id, 7);
        assert!(!b.is_full());
        assert_eq!(b.len(), 1);
        // The swapped-in survivor keeps its own coordinates on every lane.
        assert_eq!(b.point(0), Point::with_id(0.2, 0.2, 8));
        assert!(b.remove_by_id(99).is_none());
    }

    #[test]
    fn remove_at_tests_the_id_of_every_co_located_point() {
        let mut b = Block::new(6);
        b.push(Point::with_id(0.3, 0.7, 1001));
        b.push(Point::with_id(0.3, 0.7, 1002));
        b.push(Point::with_id(0.5, 0.5, 7));
        assert_eq!(b.remove_at(0.3, 0.7, 9), 0);
        assert_eq!(b.remove_at(0.5, 0.7, 1002), 0);
        assert_eq!(b.remove_at(0.3, 0.7, 1002), 1);
        // The survivor of the swap keeps its lanes; the first duplicate is
        // still there, and id 0 is an ordinary id that matches neither.
        assert_eq!(b.to_points()[1], Point::with_id(0.5, 0.5, 7));
        assert_eq!(b.remove_at(0.3, 0.7, 0), 0);
        assert_eq!(first_at(&b, 0.3, 0.7).unwrap().id, 1001);
        // Every copy of one `(x, y, id)` goes in one call, swapped-in
        // copies included.
        b.push(Point::with_id(0.3, 0.7, 1001));
        b.push(Point::with_id(0.3, 0.7, 0));
        b.push(Point::with_id(0.3, 0.7, 1001));
        assert_eq!(b.remove_at(0.3, 0.7, 1001), 3);
        assert_eq!(b.ids(), &[0, 7]);
        assert_eq!(b.remove_at(0.3, 0.7, 0), 1);
        assert!(first_at(&b, 0.3, 0.7).is_none());
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn find_at_matches_exact_coordinates() {
        let mut b = Block::new(4);
        b.push(Point::with_id(0.25, 0.75, 3));
        assert_eq!(first_at(&b, 0.25, 0.75).unwrap().id, 3);
        assert!(first_at(&b, 0.25, 0.7500001).is_none());
        // Every copy at the location is visited, in slot order, until the
        // visitor breaks.
        b.push(Point::with_id(0.5, 0.5, 4));
        b.push(Point::with_id(0.25, 0.75, 5));
        let mut ids = Vec::new();
        let walk = b.find_at(0.25, 0.75, |p| {
            ids.push(p.id);
            ControlFlow::Continue(())
        });
        assert!(walk.is_continue());
        assert_eq!(ids, vec![3, 5]);
        assert!(b.find_at(0.25, 0.75, |_| ControlFlow::Break(())).is_break());
    }

    #[test]
    fn mbr_covers_all_points_and_empty_block_has_empty_mbr() {
        let mut b = Block::new(4);
        assert!(b.mbr().is_empty());
        b.push(Point::new(0.2, 0.8));
        b.push(Point::new(0.6, 0.1));
        let m = b.mbr();
        assert_eq!(m, Rect::new(0.2, 0.1, 0.6, 0.8));
    }

    #[test]
    fn kernel_filters_agree_with_scalar_scans() {
        let mut b = Block::new(10);
        for i in 0..10 {
            b.push(Point::with_id(i as f64 / 10.0, 1.0 - i as f64 / 10.0, i));
        }
        let w = Rect::new(0.2, 0.2, 0.8, 0.8);
        let mut got = Vec::new();
        b.for_each_in_rect(&w, |p| got.push(p.id));
        let expect: Vec<u64> = b
            .iter_points()
            .filter(|p| w.contains(p))
            .map(|p| p.id)
            .collect();
        assert_eq!(got, expect);

        let q = Point::new(0.5, 0.5);
        let mut within = Vec::new();
        b.for_each_within(&q, 0.05, |p, d| {
            assert_eq!(d.to_bits(), p.dist_sq(&q).to_bits());
            within.push(p.id);
        });
        let expect: Vec<u64> = b
            .iter_points()
            .filter(|p| p.dist_sq(&q) <= 0.05)
            .map(|p| p.id)
            .collect();
        assert_eq!(within, expect);

        let mut n = 0;
        b.for_each_dist_sq(&q, |p, d| {
            assert_eq!(d.to_bits(), p.dist_sq(&q).to_bits());
            n += 1;
        });
        assert_eq!(n, b.len());
    }

    #[test]
    fn links_and_overflow_flag_roundtrip() {
        let mut b = Block::new(2);
        assert_eq!(b.prev(), None);
        assert_eq!(b.next(), None);
        b.set_prev(Some(5));
        b.set_next(Some(7));
        b.set_overflow(true);
        assert_eq!(b.prev(), Some(5));
        assert_eq!(b.next(), Some(7));
        assert!(b.is_overflow());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_is_rejected() {
        let _ = Block::new(0);
    }
}
