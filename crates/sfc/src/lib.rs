//! Space-filling curves and the rank-space transform.
//!
//! The RSMI paper (§3.1) orders points by mapping them into a *rank space*
//! (an `n x n` grid in which every row and every column contains exactly one
//! point) and then enumerating the rank-space grid with a space-filling curve
//! (SFC).  The curve value of a point is the key from which its block ID is
//! derived; the evenness of the gaps between consecutive curve values is what
//! makes the learned mapping easy to fit.
//!
//! This crate provides:
//!
//! * [`zcurve`] — the Z-order (Morton) curve used by the ZM baseline and
//!   available to RSMI,
//! * [`hilbert`] — the Hilbert curve, RSMI's default ordering,
//! * [`CurveKind`] — a small enum selecting between them at run time,
//! * [`rank_space`] — the rank-space transform of Qi et al. (the R-tree
//!   packing technique the paper builds on).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hilbert;
pub mod rank_space;
pub mod zcurve;

pub use rank_space::{rank_space_order, RankSpace};

/// Which space-filling curve to use for ordering points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CurveKind {
    /// Z-order (Morton) curve: interleaves the bits of the two coordinates.
    Z,
    /// Hilbert curve: better locality, RSMI's default (§6.1).
    #[default]
    Hilbert,
}

impl CurveKind {
    /// Encodes grid cell `(x, y)` of a `2^order x 2^order` grid into a curve
    /// value in `[0, 4^order)`.
    #[inline]
    pub fn encode(&self, x: u32, y: u32, order: u32) -> u64 {
        match self {
            CurveKind::Z => zcurve::encode(x, y),
            CurveKind::Hilbert => hilbert::encode(x, y, order),
        }
    }

    /// The byte that names the curve in a snapshot: `Z = 0`, `Hilbert = 1`.
    pub fn tag(self) -> u8 {
        match self {
            CurveKind::Z => 0,
            CurveKind::Hilbert => 1,
        }
    }

    /// The curve a snapshot byte names, or `None` for an unknown byte.
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(CurveKind::Z),
            1 => Some(CurveKind::Hilbert),
            _ => None,
        }
    }

    /// Human-readable name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            CurveKind::Z => "z",
            CurveKind::Hilbert => "hilbert",
        }
    }
}

#[cfg(test)]
impl CurveKind {
    /// Decodes a curve value back into grid coordinates: the round-trip
    /// reference of [`CurveKind::encode`].
    fn decode(&self, value: u64, order: u32) -> (u32, u32) {
        match self {
            CurveKind::Z => zcurve::decode(value),
            CurveKind::Hilbert => hilbert::decode(value, order),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_curves_roundtrip_small_grid() {
        for curve in [CurveKind::Z, CurveKind::Hilbert] {
            let order = 4;
            for x in 0..16u32 {
                for y in 0..16u32 {
                    let v = curve.encode(x, y, order);
                    assert!(v < 1 << (2 * order));
                    assert_eq!(curve.decode(v, order), (x, y), "curve {curve:?}");
                }
            }
        }
    }

    #[test]
    fn both_curves_are_bijective_on_small_grid() {
        for curve in [CurveKind::Z, CurveKind::Hilbert] {
            let order = 3;
            let mut seen = [false; 64];
            for x in 0..8u32 {
                for y in 0..8u32 {
                    let v = curve.encode(x, y, order) as usize;
                    assert!(!seen[v], "duplicate curve value for {curve:?}");
                    seen[v] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn tags_roundtrip_and_unknown_bytes_are_refused() {
        for curve in [CurveKind::Z, CurveKind::Hilbert] {
            assert_eq!(CurveKind::from_tag(curve.tag()), Some(curve));
        }
        assert_eq!((CurveKind::Z.tag(), CurveKind::Hilbert.tag()), (0, 1));
        assert_eq!(CurveKind::from_tag(2), None);
    }

    #[test]
    fn default_curve_is_hilbert() {
        assert_eq!(CurveKind::default(), CurveKind::Hilbert);
        assert_eq!(CurveKind::Hilbert.name(), "hilbert");
        assert_eq!(CurveKind::Z.name(), "z");
    }
}
