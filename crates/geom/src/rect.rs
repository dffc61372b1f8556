//! Axis-aligned rectangles: query windows and minimum bounding rectangles.

use crate::point::Point;

/// An axis-aligned rectangle `[min_x, max_x] x [min_y, max_y]`.
///
/// Used for window queries (§4.2 of the paper) and as the MBR attached to
/// R-tree nodes and to RSMI sub-models (the RSMIa variant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Minimum x-coordinate (inclusive).
    pub min_x: f64,
    /// Minimum y-coordinate (inclusive).
    pub min_y: f64,
    /// Maximum x-coordinate (inclusive).
    pub max_x: f64,
    /// Maximum y-coordinate (inclusive).
    pub max_y: f64,
}

impl Rect {
    /// Creates a rectangle from its two corners; the corners may be given in
    /// any order.
    #[inline]
    pub fn new(x1: f64, y1: f64, x2: f64, y2: f64) -> Self {
        Self {
            min_x: x1.min(x2),
            min_y: y1.min(y2),
            max_x: x1.max(x2),
            max_y: y1.max(y2),
        }
    }

    /// The degenerate rectangle covering a single point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Self {
            min_x: p.x,
            min_y: p.y,
            max_x: p.x,
            max_y: p.y,
        }
    }

    /// A rectangle centred at `(cx, cy)` with the given width and height.
    ///
    /// Window-query workloads in the paper are defined by an area (a
    /// percentage of the data space) and an aspect ratio; the generators use
    /// this constructor.
    #[inline]
    pub fn centered(cx: f64, cy: f64, width: f64, height: f64) -> Self {
        Self::new(
            cx - width / 2.0,
            cy - height / 2.0,
            cx + width / 2.0,
            cy + height / 2.0,
        )
    }

    /// The "impossible" rectangle used as the identity element when folding
    /// MBRs: expanding it by any point yields that point's rectangle.
    #[inline]
    pub fn empty() -> Self {
        Self {
            min_x: f64::INFINITY,
            min_y: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            max_y: f64::NEG_INFINITY,
        }
    }

    /// The unit square `[0,1] x [0,1]`, the default data space for synthetic
    /// data sets in the paper.
    #[inline]
    pub fn unit() -> Self {
        Self::new(0.0, 0.0, 1.0, 1.0)
    }

    /// Whether this is the empty rectangle produced by [`Rect::empty`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    /// Rectangle width (zero for empty rectangles).
    #[inline]
    pub fn width(&self) -> f64 {
        (self.max_x - self.min_x).max(0.0)
    }

    /// Rectangle height (zero for empty rectangles).
    #[inline]
    pub fn height(&self) -> f64 {
        (self.max_y - self.min_y).max(0.0)
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Half-perimeter (margin), used by the R*-tree split heuristic.
    #[inline]
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Centre point of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// Whether the rectangle contains the point (boundaries inclusive).
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Whether this rectangle fully contains another.
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.min_x <= other.min_x
            && self.min_y <= other.min_y
            && self.max_x >= other.max_x
            && self.max_y >= other.max_y
    }

    /// Whether two rectangles intersect (boundaries inclusive).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        !(self.is_empty() || other.is_empty())
            && self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// Area of the intersection of two rectangles (zero when disjoint).
    #[inline]
    pub fn intersection_area(&self, other: &Rect) -> f64 {
        let w = (self.max_x.min(other.max_x) - self.min_x.max(other.min_x)).max(0.0);
        let h = (self.max_y.min(other.max_y) - self.min_y.max(other.min_y)).max(0.0);
        w * h
    }

    /// The smallest rectangle containing both inputs.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// Grows the rectangle in place so that it contains `p`.
    #[inline]
    pub fn expand_to_point(&mut self, p: Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// How much the area would grow if the rectangle were enlarged to contain
    /// `other`.  Used by R-tree `ChooseSubtree`.
    #[inline]
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// The `MINDIST` metric of Roussopoulos et al.: the minimum Euclidean
    /// distance from point `p` to any point in the rectangle (zero when the
    /// point lies inside).
    #[inline]
    pub fn min_dist(&self, p: &Point) -> f64 {
        self.min_dist_sq(p).sqrt()
    }

    /// Squared `MINDIST`; cheaper for comparisons.  Branchless: the
    /// per-axis excursion is `max(min - v, v - max, 0)`, two `max` ops
    /// instead of a two-way branch chain, and bit-identical to that chain
    /// for finite inputs (inside the slab both differences are `<= 0`, so
    /// the fold returns exactly `0.0`).
    #[inline]
    pub fn min_dist_sq(&self, p: &Point) -> f64 {
        let dx = (self.min_x - p.x).max(p.x - self.max_x).max(0.0);
        let dy = (self.min_y - p.y).max(p.y - self.max_y).max(0.0);
        dx * dx + dy * dy
    }

    /// The four corner points of the rectangle, in the order
    /// (bottom-left, bottom-right, top-left, top-right).
    ///
    /// The window-query algorithm for Hilbert-ordered data uses all four
    /// corners as the heuristic anchor points (§4.2).
    #[inline]
    pub fn corners(&self) -> [Point; 4] {
        [
            Point::new(self.min_x, self.min_y),
            Point::new(self.max_x, self.min_y),
            Point::new(self.min_x, self.max_y),
            Point::new(self.max_x, self.max_y),
        ]
    }

    /// Intersection of two rectangles, or `None` when they are disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            min_x: self.min_x.max(other.min_x),
            min_y: self.min_y.max(other.min_y),
            max_x: self.max_x.min(other.max_x),
            max_y: self.max_y.min(other.max_y),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sorts_corners() {
        let r = Rect::new(0.9, 0.8, 0.1, 0.2);
        assert_eq!(r.min_x, 0.1);
        assert_eq!(r.min_y, 0.2);
        assert_eq!(r.max_x, 0.9);
        assert_eq!(r.max_y, 0.8);
    }

    #[test]
    fn contains_is_boundary_inclusive() {
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert!(r.contains(&Point::new(0.0, 0.0)));
        assert!(r.contains(&Point::new(1.0, 1.0)));
        assert!(r.contains(&Point::new(0.5, 0.5)));
        assert!(!r.contains(&Point::new(1.0001, 0.5)));
    }

    #[test]
    fn intersects_detects_overlap_and_touch() {
        let a = Rect::new(0.0, 0.0, 0.5, 0.5);
        let b = Rect::new(0.4, 0.4, 0.9, 0.9);
        let c = Rect::new(0.5, 0.5, 0.9, 0.9); // touches at a corner
        let d = Rect::new(0.6, 0.6, 0.9, 0.9);
        assert!(a.intersects(&b));
        assert!(a.intersects(&c));
        assert!(!a.intersects(&d));
    }

    #[test]
    fn empty_rect_never_intersects() {
        let e = Rect::empty();
        assert!(e.is_empty());
        assert!(!e.intersects(&Rect::unit()));
        assert!(!Rect::unit().intersects(&e));
    }

    #[test]
    fn union_with_empty_is_identity() {
        let r = Rect::new(0.1, 0.2, 0.3, 0.4);
        assert_eq!(r.union(&Rect::empty()), r);
        assert_eq!(Rect::empty().union(&r), r);
    }

    #[test]
    fn union_covers_both() {
        let a = Rect::new(0.0, 0.0, 0.2, 0.2);
        let b = Rect::new(0.5, 0.6, 0.9, 0.7);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
        assert_eq!(u.area(), 0.9 * 0.7);
    }

    #[test]
    fn min_dist_is_zero_inside_and_positive_outside() {
        let r = Rect::new(0.2, 0.2, 0.6, 0.6);
        assert_eq!(r.min_dist(&Point::new(0.3, 0.5)), 0.0);
        // Directly to the right: distance is horizontal only.
        assert!((r.min_dist(&Point::new(0.8, 0.4)) - 0.2).abs() < 1e-12);
        // Diagonal from the corner.
        let d = r.min_dist(&Point::new(0.9, 0.9));
        assert!((d - (0.3f64 * 0.3 + 0.3 * 0.3).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn enlargement_is_zero_for_contained_rect() {
        let big = Rect::new(0.0, 0.0, 1.0, 1.0);
        let small = Rect::new(0.2, 0.2, 0.4, 0.4);
        assert_eq!(big.enlargement(&small), 0.0);
        assert!(small.enlargement(&big) > 0.0);
    }

    #[test]
    fn intersection_area_matches_intersection_rect() {
        let a = Rect::new(0.0, 0.0, 0.5, 0.5);
        let b = Rect::new(0.25, 0.25, 0.75, 0.75);
        let inter = a.intersection(&b).unwrap();
        assert!((a.intersection_area(&b) - inter.area()).abs() < 1e-12);
        assert!((inter.area() - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn centered_window_has_requested_dimensions() {
        let w = Rect::centered(0.5, 0.5, 0.2, 0.1);
        assert!((w.width() - 0.2).abs() < 1e-12);
        assert!((w.height() - 0.1).abs() < 1e-12);
        assert_eq!(w.center(), Point::new(0.5, 0.5));
    }

    #[test]
    fn corners_are_all_contained() {
        let r = Rect::new(0.1, 0.2, 0.8, 0.9);
        for c in r.corners() {
            assert!(r.contains(&c));
        }
    }

    #[test]
    fn margin_is_half_perimeter() {
        let r = Rect::new(0.0, 0.0, 0.3, 0.4);
        assert!((r.margin() - 0.7).abs() < 1e-12);
    }
}
