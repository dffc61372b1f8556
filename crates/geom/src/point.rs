//! 2-D points with identifiers.

/// Identifier type carried by every data point.
///
/// In the paper a point query returns "a pointer to the point indexed in the
/// RSMI structure"; here the identifier plays that role so that callers can
/// map results back to their own records.
pub type PointId = u64;

/// A two-dimensional point.
///
/// Coordinates are `f64` in the original data space.  The paper normalises
/// coordinates into the unit square before training, which is handled by the
/// model layers, not by this type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// x-coordinate in the original space.
    pub x: f64,
    /// y-coordinate in the original space.
    pub y: f64,
    /// Application-level identifier of the point.
    pub id: PointId,
}

impl Point {
    /// Creates a point with identifier `0`.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y, id: 0 }
    }

    /// Creates a point with an explicit identifier.
    #[inline]
    pub fn with_id(x: f64, y: f64, id: PointId) -> Self {
        Self { x, y, id }
    }

    /// Euclidean distance to another point.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance to another point.
    ///
    /// Prefer this in comparisons on hot paths; it avoids the square root.
    #[inline]
    pub fn dist_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Returns `true` when both coordinates are identical bit-for-bit after
    /// the usual float comparison (used to detect duplicates; the paper
    /// assumes no two points share both coordinates).
    #[inline]
    pub fn same_location(&self, other: &Point) -> bool {
        self.x == other.x && self.y == other.y
    }
}

impl Default for Point {
    fn default() -> Self {
        Self::new(0.0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(0.1, 0.2);
        let b = Point::new(0.4, 0.6);
        assert!((a.dist(&b) - b.dist(&a)).abs() < 1e-15);
        assert_eq!(a.dist(&a), 0.0);
    }

    #[test]
    fn distance_matches_pythagoras() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.dist(&b) - 5.0).abs() < 1e-12);
        assert!((a.dist_sq(&b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn same_location_ignores_id() {
        let a = Point::with_id(0.5, 0.5, 1);
        let b = Point::with_id(0.5, 0.5, 99);
        assert!(a.same_location(&b));
        assert!(!a.same_location(&Point::new(0.5, 0.50001)));
    }
}
