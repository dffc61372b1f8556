//! Property-style tests for the space-filling curves and rank-space
//! transform, driven by a seeded pseudo-random sampler (the environment has
//! no `proptest`; see `vendor/README.md`).

use geom::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sfc::{rank_space::rank_space_order, zcurve, CurveKind, RankSpace};

const CASES: usize = 256;

fn rand_points(rng: &mut StdRng, lo: usize, hi: usize) -> Vec<Point> {
    let n = rng.gen_range(lo..hi);
    (0..n)
        .map(|i| Point::with_id(rng.gen::<f64>(), rng.gen::<f64>(), i as u64))
        .collect()
}

#[test]
fn zcurve_is_monotone_in_each_coordinate() {
    // Increasing either coordinate strictly increases the Z-value when
    // the other is fixed.
    let mut rng = StdRng::seed_from_u64(14);
    for _ in 0..CASES {
        let x = rng.gen_range(0usize..1000) as u32;
        let y = rng.gen_range(0usize..1000) as u32;
        let dx = rng.gen_range(1usize..100) as u32;
        let dy = rng.gen_range(1usize..100) as u32;
        assert!(zcurve::encode(x + dx, y) > zcurve::encode(x, y));
        assert!(zcurve::encode(x, y + dy) > zcurve::encode(x, y));
    }
}

#[test]
fn rank_space_is_a_double_permutation() {
    let mut rng = StdRng::seed_from_u64(15);
    for _ in 0..64 {
        let pts = rand_points(&mut rng, 2, 200);
        let rs = RankSpace::new(&pts);
        let n = pts.len();
        let mut seen_x = vec![false; n];
        let mut seen_y = vec![false; n];
        for i in 0..n {
            let (rx, ry) = rs.rank(i);
            assert!((rx as usize) < n && (ry as usize) < n);
            assert!(!seen_x[rx as usize]);
            assert!(!seen_y[ry as usize]);
            seen_x[rx as usize] = true;
            seen_y[ry as usize] = true;
        }
    }
}

#[test]
fn rank_space_curve_values_fit_in_order() {
    let mut rng = StdRng::seed_from_u64(16);
    for _ in 0..64 {
        let pts = rand_points(&mut rng, 2, 200);
        let rs = RankSpace::new(&pts);
        let order = rank_space_order(pts.len());
        let bound = 1u64 << (2 * order);
        for curve in [CurveKind::Z, CurveKind::Hilbert] {
            for v in rs.curve_values(curve) {
                assert!(v < bound);
            }
        }
        assert!(1usize << order >= pts.len());
    }
}

#[test]
fn sorted_permutation_is_stable_under_curve() {
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..64 {
        let pts = rand_points(&mut rng, 2, 100);
        let rs = RankSpace::new(&pts);
        for curve in [CurveKind::Z, CurveKind::Hilbert] {
            let perm = rs.sorted_permutation(curve);
            let vals: Vec<u64> = perm.iter().map(|&i| rs.curve_value(i, curve)).collect();
            assert!(vals.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
