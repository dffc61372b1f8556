//! Z-order (Morton) curve.
//!
//! The Z-curve value of a grid cell is obtained by interleaving the bits of
//! its x- and y-coordinates.  The curve visits the grid in a recursive "Z"
//! pattern from the bottom-left to the top-right of the space, which is why
//! the minimum and maximum curve values inside a query window are attained at
//! the window's bottom-left and top-right corners (§4.2 of the paper).

/// Spreads the lower 32 bits of `v` so that each bit is followed by a zero
/// bit: `abcd` becomes `0a0b0c0d`.
#[inline]
fn interleave_zeros(v: u32) -> u64 {
    let mut x = v as u64;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & 0x5555_5555_5555_5555;
    x
}

/// Encodes grid cell `(x, y)` into its Z-curve (Morton) value.
///
/// The full 32 bits of each coordinate are supported; the grid order is
/// implicit in the magnitude of the coordinates.
#[inline]
pub fn encode(x: u32, y: u32) -> u64 {
    interleave_zeros(x) | (interleave_zeros(y) << 1)
}

/// Maps a point in the unit square onto the Z-curve of a `2^order` grid.
///
/// Used by the ZM baseline, which (unlike RSMI) applies the curve directly in
/// the original space rather than in rank space.
#[inline]
pub fn encode_unit(x: f64, y: f64, order: u32) -> u64 {
    let scale = (1u64 << order) as f64;
    let max = (1u64 << order) - 1;
    let gx = ((x.clamp(0.0, 1.0) * scale) as u64).min(max) as u32;
    let gy = ((y.clamp(0.0, 1.0) * scale) as u64).min(max) as u32;
    encode(gx, gy)
}

/// Inverse of [`interleave_zeros`]: keeps every other bit and compacts them.
#[cfg(test)]
fn compact_bits(v: u64) -> u32 {
    let mut x = v & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF;
    x as u32
}

/// Decodes a Z-curve value back into its `(x, y)` grid cell: the
/// round-trip reference of [`encode`].
#[cfg(test)]
pub(crate) fn decode(value: u64) -> (u32, u32) {
    (compact_bits(value), compact_bits(value >> 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn seeded_cells_roundtrip() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..256 {
            let x = rng.gen::<u64>() as u32;
            let y = rng.gen::<u64>() as u32;
            assert_eq!(decode(encode(x, y)), (x, y));
        }
    }

    #[test]
    fn encode_matches_known_values() {
        // Classic Morton order for a 4x4 grid.
        assert_eq!(encode(0, 0), 0);
        assert_eq!(encode(1, 0), 1);
        assert_eq!(encode(0, 1), 2);
        assert_eq!(encode(1, 1), 3);
        assert_eq!(encode(2, 0), 4);
        assert_eq!(encode(3, 3), 15);
        assert_eq!(encode(0, 2), 8);
    }

    #[test]
    fn roundtrip_large_coordinates() {
        for &(x, y) in &[
            (0u32, 0u32),
            (u32::MAX, 0),
            (0, u32::MAX),
            (u32::MAX, u32::MAX),
            (123_456_789, 987_654_321),
            (1 << 31, 1 << 30),
        ] {
            assert_eq!(decode(encode(x, y)), (x, y));
        }
    }

    #[test]
    fn z_value_is_monotone_in_quadrants() {
        // All cells of the lower-left quadrant of a 2^k grid come before all
        // cells of the upper-right quadrant.
        let order = 4u32;
        let half = 1u32 << (order - 1);
        let max_ll = (0..half)
            .flat_map(|x| (0..half).map(move |y| encode(x, y)))
            .max()
            .unwrap();
        let min_ur = (half..2 * half)
            .flat_map(|x| (half..2 * half).map(move |y| encode(x, y)))
            .min()
            .unwrap();
        assert!(max_ll < min_ur);
    }

    #[test]
    fn encode_unit_respects_order_bound() {
        let order = 10;
        for &(x, y) in &[(0.0, 0.0), (0.5, 0.25), (1.0, 1.0), (0.9999, 0.0001)] {
            let v = encode_unit(x, y, order);
            assert!(v < 1 << (2 * order));
        }
    }

    #[test]
    fn encode_unit_bottom_left_is_minimum_top_right_is_maximum() {
        let order = 8;
        assert_eq!(encode_unit(0.0, 0.0, order), 0);
        assert_eq!(encode_unit(1.0, 1.0, order), (1 << (2 * order)) - 1);
    }
}
