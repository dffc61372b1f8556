//! Hilbert curve encoding.
//!
//! RSMI orders points with a Hilbert curve by default because its better
//! locality yields better query performance than the Z-curve (§6.1).
//! [`encode`] walks a state table three levels of the curve per lookup, for
//! any curve order up to 31.  Within a quadrant the curve runs in one of
//! four orientations: as the whole curve does, with x and y swapped, with
//! both coordinates flipped, or both.  One table entry, indexed by the
//! orientation and the next three bits of each coordinate, holds the six
//! bits of the curve value those levels add and the orientation of the
//! sub-quadrant reached.  No step branches on a coordinate bit.  The values
//! are those of the classic rotate-and-flip loop ("xy2d"), which the tests
//! keep as the reference.

/// Orientation bit: x and y are swapped.
const SWAP: usize = 1;
/// Orientation bit: both coordinates are flipped.
const FLIP: usize = 2;

/// `TABLE[orientation << 6 | x bits << 3 | y bits]` holds the curve value
/// of the three levels in its high six bits and the orientation they reach
/// in its low two.
static TABLE: [u8; 256] = table();

const fn table() -> [u8; 256] {
    let mut table = [0u8; 256];
    let mut entry = 0;
    while entry < 256 {
        let mut orientation = entry >> 6;
        let mut digits = 0;
        let mut level = 3;
        while level > 0 {
            level -= 1;
            let (bx, by) = ((entry >> (3 + level)) & 1, (entry >> level) & 1);
            let (mut rx, mut ry) = if orientation & SWAP != 0 {
                (by, bx)
            } else {
                (bx, by)
            };
            if orientation & FLIP != 0 {
                rx ^= 1;
                ry ^= 1;
            }
            digits = digits << 2 | ((3 * rx) ^ ry);
            // The lower-left quadrant swaps the axes, the lower-right one
            // swaps and flips them.
            if ry == 0 {
                orientation ^= SWAP | if rx == 1 { FLIP } else { 0 };
            }
        }
        table[entry] = (digits << 2 | orientation) as u8;
        entry += 1;
    }
    table
}

/// Encodes grid cell `(x, y)` of a `2^order x 2^order` grid into its Hilbert
/// curve value (the distance along the curve), in `[0, 4^order)`.
///
/// # Panics
/// Panics if `order > 31` or if a coordinate does not fit in the grid.
pub fn encode(x: u32, y: u32, order: u32) -> u64 {
    assert!(order <= 31, "hilbert order {order} too large (max 31)");
    let n: u64 = 1 << order;
    assert!(
        u64::from(x) < n && u64::from(y) < n,
        "coordinate ({x}, {y}) outside 2^{order} grid"
    );
    // The walk starts at a multiple of three levels.  Each leading zero
    // level it adds swaps the axes once and adds nothing to the value, so
    // an odd count of them starts swapped.
    let groups = order.div_ceil(3);
    let mut orientation = (groups * 3 - order) as usize & SWAP;
    let mut d: u64 = 0;
    for group in (0..groups).rev() {
        let shift = 3 * group;
        let (bx, by) = ((x >> shift) as usize & 7, (y >> shift) as usize & 7);
        let entry = TABLE[orientation << 6 | bx << 3 | by];
        d = d << 6 | u64::from(entry >> 2);
        orientation = usize::from(entry & 3);
    }
    d
}

/// Maps a point in the unit square onto the Hilbert curve of a `2^order`
/// grid, analogously to [`crate::zcurve::encode_unit`].
#[inline]
pub fn encode_unit(x: f64, y: f64, order: u32) -> u64 {
    let scale = (1u64 << order) as f64;
    let max = (1u64 << order) - 1;
    let gx = ((x.clamp(0.0, 1.0) * scale) as u64).min(max) as u32;
    let gy = ((y.clamp(0.0, 1.0) * scale) as u64).min(max) as u32;
    encode(gx, gy, order)
}

/// Decodes a Hilbert curve value back into its `(x, y)` grid cell: the
/// rotate-and-flip loop ("d2xy"), the round-trip reference of [`encode`].
///
/// # Panics
/// Panics if `order > 31` or the value is out of range for the grid.
#[cfg(test)]
pub(crate) fn decode(d: u64, order: u32) -> (u32, u32) {
    assert!(order <= 31, "hilbert order {order} too large (max 31)");
    let n: u64 = 1 << order;
    assert!(d < n * n, "hilbert value {d} outside 4^{order} range");
    let (mut x, mut y): (u64, u64) = (0, 0);
    let mut t = d;
    let mut s: u64 = 1;
    while s < n {
        let rx = 1 & (t / 2);
        let ry = 1 & (t ^ rx);
        if ry == 0 {
            if rx == 1 {
                x = s - 1 - x;
                y = s - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += s * rx;
        y += s * ry;
        t /= 4;
        s <<= 1;
    }
    (x as u32, y as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The classic rotate-and-flip loop ("xy2d"), one branch per bit: the
    /// reference `encode` must reproduce cell for cell.
    fn rotate_and_flip(x: u32, y: u32, order: u32) -> u64 {
        let n: u64 = 1 << order;
        let (mut x, mut y) = (x as u64, y as u64);
        let mut d: u64 = 0;
        let mut s: u64 = n >> 1;
        while s > 0 {
            let rx = u64::from((x & s) > 0);
            let ry = u64::from((y & s) > 0);
            d += s * s * ((3 * rx) ^ ry);
            if ry == 0 {
                if rx == 1 {
                    x = n - 1 - x;
                    y = n - 1 - y;
                }
                std::mem::swap(&mut x, &mut y);
            }
            s >>= 1;
        }
        d
    }

    #[test]
    fn encode_matches_the_rotate_and_flip_reference() {
        for order in 1..=8u32 {
            let n = 1u32 << order;
            for x in 0..n {
                for y in 0..n {
                    assert_eq!(
                        encode(x, y, order),
                        rotate_and_flip(x, y, order),
                        "cell ({x}, {y}), order {order}"
                    );
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..1_000_000 {
            let order = rng.gen_range(1usize..=31) as u32;
            let mask = (1u64 << order) - 1;
            let x = (rng.gen::<u64>() & mask) as u32;
            let y = (rng.gen::<u64>() & mask) as u32;
            assert_eq!(
                encode(x, y, order),
                rotate_and_flip(x, y, order),
                "cell ({x}, {y}), order {order}"
            );
        }
    }

    #[test]
    fn seeded_cells_roundtrip() {
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..256 {
            let order = rng.gen_range(1usize..=20) as u32;
            let mask = (1u64 << order) - 1;
            let x = (rng.gen::<u64>() & mask) as u32;
            let y = (rng.gen::<u64>() & mask) as u32;
            let v = encode(x, y, order);
            assert!(v < 1u64 << (2 * order));
            assert_eq!(decode(v, order), (x, y));
        }
    }

    #[test]
    fn consecutive_values_are_adjacent_cells() {
        // The defining locality property: consecutive curve positions differ
        // by exactly one step in exactly one dimension.
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..256 {
            let order = rng.gen_range(1usize..=6) as u32;
            let max = 1u64 << (2 * order);
            let d = rng.gen::<u64>() % (max - 1);
            let (x0, y0) = decode(d, order);
            let (x1, y1) = decode(d + 1, order);
            let dist = (x0 as i64 - x1 as i64).abs() + (y0 as i64 - y1 as i64).abs();
            assert_eq!(dist, 1);
        }
    }

    #[test]
    fn order_one_matches_manual_curve() {
        // The order-1 Hilbert curve visits (0,0), (0,1), (1,1), (1,0).
        assert_eq!(encode(0, 0, 1), 0);
        assert_eq!(encode(0, 1, 1), 1);
        assert_eq!(encode(1, 1, 1), 2);
        assert_eq!(encode(1, 0, 1), 3);
    }

    #[test]
    fn order_two_is_a_permutation_with_adjacent_steps() {
        let order = 2;
        let n = 4u32;
        let mut cells = [(0u32, 0u32); 16];
        for x in 0..n {
            for y in 0..n {
                cells[encode(x, y, order) as usize] = (x, y);
            }
        }
        // Consecutive curve values must be adjacent grid cells (Manhattan
        // distance exactly 1) — the defining property of the Hilbert curve.
        for w in cells.windows(2) {
            let (x0, y0) = w[0];
            let (x1, y1) = w[1];
            let d = (x0 as i64 - x1 as i64).abs() + (y0 as i64 - y1 as i64).abs();
            assert_eq!(d, 1, "cells {:?} -> {:?} are not adjacent", w[0], w[1]);
        }
    }

    #[test]
    fn roundtrip_various_orders() {
        for order in [1u32, 2, 3, 5, 8, 16, 20] {
            let n = 1u64 << order;
            for &(x, y) in &[
                (0u64, 0u64),
                (n - 1, 0),
                (0, n - 1),
                (n - 1, n - 1),
                (n / 2, n / 3),
            ] {
                let v = encode(x as u32, y as u32, order);
                assert_eq!(decode(v, order), (x as u32, y as u32));
            }
        }
    }

    #[test]
    fn curve_values_cover_full_range() {
        let order = 3;
        let mut seen = [false; 64];
        for x in 0..8 {
            for y in 0..8 {
                seen[encode(x, y, order) as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn encode_panics_on_out_of_grid_coordinate() {
        encode(4, 0, 2);
    }

    #[test]
    fn encode_unit_handles_boundaries() {
        let order = 10;
        let v0 = encode_unit(0.0, 0.0, order);
        let v1 = encode_unit(1.0, 1.0, order);
        assert!(v0 < 1 << (2 * order));
        assert!(v1 < 1 << (2 * order));
    }

    #[test]
    fn adjacency_holds_for_order_three() {
        let order = 3;
        let n = 8u32;
        let mut cells = vec![(0u32, 0u32); (n * n) as usize];
        for x in 0..n {
            for y in 0..n {
                cells[encode(x, y, order) as usize] = (x, y);
            }
        }
        for w in cells.windows(2) {
            let d = (w[0].0 as i64 - w[1].0 as i64).abs() + (w[0].1 as i64 - w[1].1 as i64).abs();
            assert_eq!(d, 1);
        }
    }
}
