//! Chunked, autovectorizable scan kernels over struct-of-arrays point lanes.
//!
//! Every block-backed index family filters candidates the same way: test each
//! point of a block against a rectangle or a distance bound.  With the
//! [`crate::Block`] lanes split into separate `x`/`y`/`id` arrays, those
//! tests become straight-line loops over contiguous `f64` lanes that LLVM
//! autovectorizes (packed `cmppd`/`mulpd`/`minpd` on x86-64, `fcmge`/`fmul`
//! on aarch64 — CI greps the emitted asm for them, see
//! `ci/check_autovec.sh`).  The kernels here are that shared hot path:
//!
//! * [`rect_mask`] — batch rect-contains over a ≤64-point chunk, bitmask out,
//! * [`dist_sq_into`] — batch squared distances into a caller buffer,
//! * [`within_mask`] — batch distance-range test, bitmask out,
//! * [`mbr_of`] — min/max fold of a lane pair,
//! * [`for_each_in_rect`] / [`for_each_within`] — candidate filters driving
//!   [`rect_mask`] / [`within_mask`] chunk by chunk, visiting survivors in
//!   ascending lane order,
//! * [`for_each_dist_sq`] — every point with its squared distance (kNN),
//! * [`probes_within`] — a join's probe set filtered by `MINDIST` to a
//!   rectangle (the survivors are paired with a block by
//!   [`crate::Block::for_each_pair_within`]).
//!
//! Bit-compatibility contract: each kernel computes *exactly* the expression
//! the scalar per-point code used before the rewrite (`x >= min_x && …` for
//! containment, `dx*dx + dy*dy` for distances), so answers — and therefore
//! snapshot-replay fixtures — are bit-identical.  Rust never contracts
//! `a*a + b*b` into an FMA on its own, so vectorized and scalar results
//! agree to the last ulp.

use geom::{Point, Rect};

/// Points per kernel chunk: one bitmask word's worth.
pub const CHUNK: usize = 64;

/// Batch rect-contains over one chunk of at most [`CHUNK`] points: bit `i`
/// of the result is set iff `(xs[i], ys[i])` lies inside `rect` (inclusive
/// edges, exactly [`Rect::contains`]).
///
/// # Panics
/// Panics (debug) if the lanes disagree in length or exceed [`CHUNK`].
#[inline]
pub fn rect_mask(xs: &[f64], ys: &[f64], rect: &Rect) -> u64 {
    debug_assert_eq!(xs.len(), ys.len());
    debug_assert!(xs.len() <= CHUNK);
    let mut flags = [false; CHUNK];
    // Four packed compares and three ANDs per lane group; the flag store
    // keeps the loop free of early exits, and the zip of equal-length lanes
    // keeps it free of bounds checks, so it vectorizes.
    for (f, (&x, &y)) in flags.iter_mut().zip(xs.iter().zip(ys)) {
        *f = (x >= rect.min_x) & (x <= rect.max_x) & (y >= rect.min_y) & (y <= rect.max_y);
    }
    pack_mask(&flags, xs.len())
}

/// Batch squared distances from `(cx, cy)` over lane chunks of any length:
/// `out[i] = (xs[i]-cx)^2 + (ys[i]-cy)^2`, the exact [`Point::dist_sq`]
/// expression.
///
/// # Panics
/// Panics (debug) if `out` is shorter than the lanes.
#[inline]
pub fn dist_sq_into(xs: &[f64], ys: &[f64], cx: f64, cy: f64, out: &mut [f64]) {
    debug_assert_eq!(xs.len(), ys.len());
    debug_assert!(out.len() >= xs.len());
    for ((o, &x), &y) in out.iter_mut().zip(xs).zip(ys) {
        let dx = x - cx;
        let dy = y - cy;
        *o = dx * dx + dy * dy;
    }
}

/// Batch distance-range test over one chunk of at most [`CHUNK`] points:
/// bit `i` is set iff the squared distance from `(cx, cy)` to point `i` is
/// `<= r_sq`.
#[inline]
pub fn within_mask(xs: &[f64], ys: &[f64], cx: f64, cy: f64, r_sq: f64) -> u64 {
    debug_assert_eq!(xs.len(), ys.len());
    debug_assert!(xs.len() <= CHUNK);
    let mut flags = [false; CHUNK];
    for (f, (&x, &y)) in flags.iter_mut().zip(xs.iter().zip(ys)) {
        let dx = x - cx;
        let dy = y - cy;
        *f = dx * dx + dy * dy <= r_sq;
    }
    pack_mask(&flags, xs.len())
}

/// Folds a `bool` flag buffer into a bitmask (bit `i` = `flags[i]`).
///
/// Eight flag bytes at a time: a group of `0x00`/`0x01` bytes read as a
/// little-endian word and multiplied by `0x0102_0408_1020_4080` lands flag
/// `i` on bit `56 + i` (the cross terms hit 64 distinct lower bit
/// positions, so no carries corrupt the top byte) — 8 multiply-shift steps
/// instead of 64 shift-or steps.
#[inline]
fn pack_mask(flags: &[bool; CHUNK], n: usize) -> u64 {
    let mut mask = 0u64;
    for (g, group) in flags.chunks_exact(8).enumerate() {
        let word = u64::from_le_bytes(std::array::from_fn(|i| group[i] as u8));
        mask |= (word.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * g);
    }
    // Lanes past `n` hold the buffer's `false` initializer; the mask-off
    // keeps the result well-defined even if a caller ever reuses a buffer.
    if n < CHUNK {
        mask &= (1u64 << n) - 1;
    }
    mask
}

/// The minimum bounding rectangle of a lane pair (empty rectangle for empty
/// lanes): a packed min/max fold.
#[inline]
pub fn mbr_of(xs: &[f64], ys: &[f64]) -> Rect {
    debug_assert_eq!(xs.len(), ys.len());
    let mut r = Rect::empty();
    for (&x, &y) in xs.iter().zip(ys) {
        r.min_x = r.min_x.min(x);
        r.max_x = r.max_x.max(x);
        r.min_y = r.min_y.min(y);
        r.max_y = r.max_y.max(y);
    }
    r
}

/// Candidate filter: visits every point inside `rect`, in ascending lane
/// order — the shared inner loop of window queries and window-probe joins.
#[inline]
pub fn for_each_in_rect(
    xs: &[f64],
    ys: &[f64],
    ids: &[u64],
    rect: &Rect,
    visit: impl FnMut(Point),
) {
    for_each_masked(xs, ys, ids, |x, y| rect_mask(x, y, rect), visit)
}

/// Candidate filter: visits every point within squared distance `r_sq` of
/// `(cx, cy)` together with its squared distance, in ascending lane order —
/// the shared inner loop of distance-range queries and distance joins.
/// [`within_mask`] tests each chunk; a survivor's distance is
/// [`Point::dist_sq`], the mask's own expression, so it is bit-identical.
#[inline]
pub fn for_each_within(
    xs: &[f64],
    ys: &[f64],
    ids: &[u64],
    cx: f64,
    cy: f64,
    r_sq: f64,
    mut visit: impl FnMut(Point, f64),
) {
    let center = Point::new(cx, cy);
    for_each_masked(
        xs,
        ys,
        ids,
        |x, y| within_mask(x, y, cx, cy, r_sq),
        |p| visit(p, p.dist_sq(&center)),
    )
}

/// Drives a chunk mask over the lanes and visits the set lanes in ascending
/// order.  Chunks with an all-zero mask are skipped without touching the id
/// lane.
#[inline(always)]
fn for_each_masked(
    xs: &[f64],
    ys: &[f64],
    ids: &[u64],
    mask_of: impl Fn(&[f64], &[f64]) -> u64,
    mut visit: impl FnMut(Point),
) {
    debug_assert_eq!(xs.len(), ids.len());
    let mut start = 0;
    while start < xs.len() {
        let end = (start + CHUNK).min(xs.len());
        let mut mask = mask_of(&xs[start..end], &ys[start..end]);
        while mask != 0 {
            let i = start + mask.trailing_zeros() as usize;
            visit(Point::with_id(xs[i], ys[i], ids[i]));
            mask &= mask - 1;
        }
        start = end;
    }
}

/// Visits every point with its squared distance from `(cx, cy)`, in lane
/// order — the kNN heap-push loop.  Distances are computed in a batched
/// buffer so the squaring vectorizes; the visit loop then reads them back.
#[inline]
pub fn for_each_dist_sq(
    xs: &[f64],
    ys: &[f64],
    ids: &[u64],
    cx: f64,
    cy: f64,
    mut visit: impl FnMut(Point, f64),
) {
    debug_assert_eq!(xs.len(), ids.len());
    let mut buf = [0.0f64; CHUNK];
    let mut start = 0;
    while start < xs.len() {
        let end = (start + CHUNK).min(xs.len());
        dist_sq_into(&xs[start..end], &ys[start..end], cx, cy, &mut buf);
        for i in start..end {
            visit(Point::with_id(xs[i], ys[i], ids[i]), buf[i - start]);
        }
        start = end;
    }
}

/// Filters an array-of-structs probe set down to the probes within
/// `MINDIST <= r_sq` of `rect` — the shard/node fan-out step of the join
/// filter cascade, using the branchless [`Rect::min_dist_sq`].
#[inline]
pub fn probes_within(probes: &[Point], rect: &Rect, r_sq: f64, out: &mut Vec<Point>) {
    out.clear();
    out.extend(probes.iter().filter(|q| rect.min_dist_sq(q) <= r_sq));
}

/// Non-inlined instantiations of the hot kernels for the CI
/// autovectorization guard: `ci/check_autovec.sh` compiles this crate with
/// `--emit asm` and greps these symbols' bodies for packed SIMD ops
/// (`mulpd`/`minpd`/`maxpd`/`cmp*pd`/`movupd` on x86-64, their `v`-prefixed
/// AVX forms, `fmul v*`/`fcmge v*` on aarch64).  The `#[inline]` kernels
/// above are otherwise only codegen'd inside their callers, where the guard
/// could not find them; query paths never call these wrappers.
#[doc(hidden)]
pub mod asm_probes {
    use geom::Rect;

    #[inline(never)]
    pub fn rect_mask(xs: &[f64], ys: &[f64], rect: &Rect) -> u64 {
        super::rect_mask(xs, ys, rect)
    }

    #[inline(never)]
    pub fn within_mask(xs: &[f64], ys: &[f64], cx: f64, cy: f64, r_sq: f64) -> u64 {
        super::within_mask(xs, ys, cx, cy, r_sq)
    }

    #[inline(never)]
    pub fn dist_sq_into(xs: &[f64], ys: &[f64], cx: f64, cy: f64, out: &mut [f64]) {
        super::dist_sq_into(xs, ys, cx, cy, out)
    }

    #[inline(never)]
    pub fn mbr_of(xs: &[f64], ys: &[f64]) -> Rect {
        super::mbr_of(xs, ys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_rect_mask(xs: &[f64], ys: &[f64], rect: &Rect) -> u64 {
        let mut mask = 0u64;
        for i in 0..xs.len() {
            if rect.contains(&Point::new(xs[i], ys[i])) {
                mask |= 1 << i;
            }
        }
        mask
    }

    #[test]
    fn rect_mask_matches_scalar_contains() {
        let xs: Vec<f64> = (0..40).map(|i| i as f64 / 40.0).collect();
        let ys: Vec<f64> = (0..40).map(|i| 1.0 - i as f64 / 40.0).collect();
        let r = Rect::new(0.2, 0.3, 0.7, 0.9);
        assert_eq!(rect_mask(&xs, &ys, &r), scalar_rect_mask(&xs, &ys, &r));
        // Boundary-touching rectangle: inclusive on all four edges.
        let r = Rect::new(xs[3], ys[5], xs[3], ys[5]);
        assert_eq!(rect_mask(&xs, &ys, &r), scalar_rect_mask(&xs, &ys, &r));
        // Empty lanes.
        assert_eq!(rect_mask(&[], &[], &r), 0);
    }

    #[test]
    fn dist_sq_matches_point_dist_sq_bitwise() {
        let xs = [0.1, 0.5, 0.9, 1e-300, 1e300];
        let ys = [0.9, 0.5, 0.1, -1e-300, -1e300];
        let q = Point::new(0.3, 0.4);
        let mut out = [0.0; 5];
        dist_sq_into(&xs, &ys, q.x, q.y, &mut out);
        for i in 0..5 {
            let p = Point::new(xs[i], ys[i]);
            assert_eq!(out[i].to_bits(), p.dist_sq(&q).to_bits());
        }
    }

    #[test]
    fn within_mask_matches_scalar_radius_test() {
        let xs: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).fract()).collect();
        let ys: Vec<f64> = (0..64).map(|i| (i as f64 * 0.71).fract()).collect();
        let q = Point::new(0.5, 0.5);
        for r_sq in [0.0, 0.01, 0.25, 4.0] {
            let mask = within_mask(&xs, &ys, q.x, q.y, r_sq);
            for i in 0..64 {
                let inside = Point::new(xs[i], ys[i]).dist_sq(&q) <= r_sq;
                assert_eq!(mask >> i & 1 == 1, inside, "lane {i} r_sq {r_sq}");
            }
        }
    }

    #[test]
    fn mbr_of_matches_expand_fold() {
        assert!(mbr_of(&[], &[]).is_empty());
        let xs = [0.4, 0.2, 0.8];
        let ys = [0.9, 0.5, 0.1];
        let mut expect = Rect::empty();
        for i in 0..3 {
            expect.expand_to_point(Point::new(xs[i], ys[i]));
        }
        assert_eq!(mbr_of(&xs, &ys), expect);
    }

    #[test]
    fn filters_visit_in_ascending_lane_order_across_chunks() {
        // More than one chunk so the chunk seams are exercised.
        let n = CHUNK * 2 + 7;
        let xs: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let ys: Vec<f64> = xs.clone();
        let ids: Vec<u64> = (0..n as u64).collect();
        let r = Rect::new(0.1, 0.1, 0.9, 0.9);
        let mut got = Vec::new();
        for_each_in_rect(&xs, &ys, &ids, &r, |p| got.push(p.id));
        let expect: Vec<u64> = (0..n)
            .filter(|&i| r.contains(&Point::new(xs[i], ys[i])))
            .map(|i| i as u64)
            .collect();
        assert_eq!(got, expect);
        assert!(got.windows(2).all(|w| w[0] < w[1]));

        let mut within = Vec::new();
        for_each_within(&xs, &ys, &ids, 0.5, 0.5, 0.01, |p, d| {
            assert_eq!(
                d.to_bits(),
                Point::new(p.x, p.y)
                    .dist_sq(&Point::new(0.5, 0.5))
                    .to_bits()
            );
            within.push(p.id);
        });
        assert!(within.windows(2).all(|w| w[0] < w[1]));
        assert!(!within.is_empty());

        let mut all = Vec::new();
        for_each_dist_sq(&xs, &ys, &ids, 0.5, 0.5, |p, _| all.push(p.id));
        assert_eq!(all, ids);
    }

    #[test]
    fn zero_radius_keeps_only_exact_hits() {
        let xs = [0.5, 0.25];
        let ys = [0.5, 0.75];
        let ids = [1, 2];
        let mut got = Vec::new();
        for_each_within(&xs, &ys, &ids, 0.5, 0.5, 0.0, |p, d| got.push((p.id, d)));
        assert_eq!(got, vec![(1, 0.0)]);
    }

    #[test]
    fn probes_within_filters_by_branchless_mindist() {
        let rect = Rect::new(0.4, 0.4, 0.6, 0.6);
        let probes = vec![
            Point::with_id(0.5, 0.5, 1), // inside: MINDIST 0
            Point::with_id(0.3, 0.5, 2), // 0.1 away
            Point::with_id(0.0, 0.0, 3), // far
        ];
        let mut out = Vec::new();
        probes_within(&probes, &rect, 0.02, &mut out);
        assert_eq!(out.iter().map(|p| p.id).collect::<Vec<_>>(), vec![1, 2]);
        probes_within(&probes, &rect, 0.0, &mut out);
        assert_eq!(out.iter().map(|p| p.id).collect::<Vec<_>>(), vec![1]);
    }
}
