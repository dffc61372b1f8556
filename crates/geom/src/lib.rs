//! Geometry primitives for the RSMI spatial-index reproduction.
//!
//! The paper ("Effectively Learning Spatial Indices", VLDB 2020) operates on
//! two-dimensional point data in Euclidean space, normalised into the unit
//! square for model training.  This crate provides the small set of geometric
//! types every other crate builds on:
//!
//! * [`Point`] — a 2-D point with an application-level identifier,
//! * [`Rect`] — an axis-aligned rectangle used both as query window and as
//!   minimum bounding rectangle (MBR),
//! * distance helpers ([`Point::dist`], [`Rect::min_dist`]) used by the kNN
//!   algorithms (the `MINDIST` metric of Roussopoulos et al.),
//! * small utilities for normalising data into the unit square.
//!
//! The types are deliberately plain `Copy` structs so that hot query loops
//! never allocate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod point;
mod rect;

pub use point::{Point, PointId};
pub use rect::Rect;

/// Numeric tolerance used by approximate floating-point comparisons in tests
/// and degenerate-rectangle handling.
pub const EPSILON: f64 = 1e-12;

/// Returns the bounding rectangle of a non-empty slice of points.
///
/// Returns `None` for an empty slice.
///
/// # Examples
/// ```
/// use geom::{bounding_rect, Point};
/// let pts = [Point::new(0.1, 0.2), Point::new(0.9, 0.4)];
/// let r = bounding_rect(&pts).unwrap();
/// assert_eq!(r.min_x, 0.1);
/// assert_eq!(r.max_y, 0.4);
/// ```
pub fn bounding_rect(points: &[Point]) -> Option<Rect> {
    let first = points.first()?;
    let mut rect = Rect::from_point(*first);
    for p in &points[1..] {
        rect.expand_to_point(*p);
    }
    Some(rect)
}

/// The key every float ordering sorts by.
///
/// For non-NaN `a` and `b`, `a < b` exactly when `order_key(a) <
/// order_key(b)`, and `a == b` exactly when the keys are equal: `-0.0` and
/// `+0.0` share a key, as `partial_cmp` calls them equal.  Every NaN gets
/// the one key above `+∞`, so a sort by key is a total order and never
/// panics, and NaNs sort last.  Sorts that break key ties by input
/// position order NaN-free data exactly as a stable `partial_cmp` sort.
///
/// # Examples
/// ```
/// use geom::order_key;
/// assert!(order_key(-1.5) < order_key(-0.0));
/// assert_eq!(order_key(-0.0), order_key(0.0));
/// assert!(order_key(f64::INFINITY) < order_key(f64::NAN));
/// ```
#[inline]
pub fn order_key(v: f64) -> u64 {
    if v.is_nan() {
        return u64::MAX;
    }
    // `v + 0.0` turns `-0.0` into `+0.0` and leaves every other value.
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Normalises a value `v` from the range `[lo, hi]` into `[0, 1]`.
///
/// Degenerate ranges (`hi <= lo`) map everything to `0.0`, which is the
/// behaviour the model-training code relies on (a constant feature carries no
/// information and should not produce NaNs).
#[inline]
pub fn normalize(v: f64, lo: f64, hi: f64) -> f64 {
    let span = hi - lo;
    if span <= EPSILON {
        0.0
    } else {
        ((v - lo) / span).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounding_rect_of_empty_slice_is_none() {
        assert!(bounding_rect(&[]).is_none());
    }

    #[test]
    fn bounding_rect_of_single_point_is_degenerate() {
        let r = bounding_rect(&[Point::new(0.3, 0.7)]).unwrap();
        assert_eq!(r.min_x, 0.3);
        assert_eq!(r.max_x, 0.3);
        assert_eq!(r.min_y, 0.7);
        assert_eq!(r.max_y, 0.7);
        assert!(r.contains(&Point::new(0.3, 0.7)));
    }

    #[test]
    fn bounding_rect_covers_all_points() {
        let pts: Vec<Point> = (0..50)
            .map(|i| Point::new(i as f64 / 50.0, (49 - i) as f64 / 50.0))
            .collect();
        let r = bounding_rect(&pts).unwrap();
        for p in &pts {
            assert!(r.contains(p));
        }
    }

    #[test]
    fn order_key_orders_like_partial_cmp_and_puts_nan_last() {
        let values = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        for &a in &values {
            for &b in &values {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.partial_cmp(&b).unwrap(),
                    "{a} vs {b}"
                );
            }
            for nan in [f64::NAN, -f64::NAN, f64::from_bits(0x7FF0_0000_0000_0001)] {
                assert!(order_key(a) < order_key(nan), "{a} vs NaN");
                assert_eq!(order_key(nan), u64::MAX);
            }
        }
    }

    #[test]
    fn normalize_roundtrip() {
        let v = 3.25;
        let n = normalize(v, 1.0, 5.0);
        assert!((1.0 + n * (5.0 - 1.0) - v).abs() < 1e-9);
    }

    #[test]
    fn normalize_clamps_out_of_range() {
        assert_eq!(normalize(-1.0, 0.0, 1.0), 0.0);
        assert_eq!(normalize(2.0, 0.0, 1.0), 1.0);
    }

    #[test]
    fn normalize_degenerate_range_is_zero() {
        assert_eq!(normalize(5.0, 2.0, 2.0), 0.0);
    }
}
