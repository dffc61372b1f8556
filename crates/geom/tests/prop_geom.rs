//! Property-style tests for the geometry primitives, driven by a seeded
//! pseudo-random sampler (the environment has no `proptest`; see
//! `vendor/README.md`).

use geom::{bounding_rect, normalize, Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 256;

fn rand_point(rng: &mut StdRng) -> Point {
    Point::new(rng.gen::<f64>(), rng.gen::<f64>())
}

fn rand_rect(rng: &mut StdRng) -> Rect {
    let a = rand_point(rng);
    let b = rand_point(rng);
    Rect::new(a.x, a.y, b.x, b.y)
}

#[test]
fn union_contains_both() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..CASES {
        let a = rand_rect(&mut rng);
        let b = rand_rect(&mut rng);
        let u = a.union(&b);
        assert!(u.contains_rect(&a));
        assert!(u.contains_rect(&b));
    }
}

#[test]
fn intersection_is_contained_in_both() {
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..CASES {
        let a = rand_rect(&mut rng);
        let b = rand_rect(&mut rng);
        if let Some(i) = a.intersection(&b) {
            assert!(a.contains_rect(&i));
            assert!(b.contains_rect(&i));
            assert!((i.area() - a.intersection_area(&b)).abs() < 1e-9);
        } else {
            assert!(a.intersection_area(&b) == 0.0);
        }
    }
}

#[test]
fn min_dist_lower_bounds_distance_to_contained_points() {
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..CASES {
        let r = rand_rect(&mut rng);
        let p = rand_point(&mut rng);
        let q = rand_point(&mut rng);
        // For any point q inside r, dist(p, q) >= min_dist(p, r).
        let clamped = Point::new(q.x.clamp(r.min_x, r.max_x), q.y.clamp(r.min_y, r.max_y));
        assert!(r.contains(&clamped));
        assert!(p.dist(&clamped) + 1e-9 >= r.min_dist(&p));
    }
}

#[test]
fn min_dist_zero_iff_contained() {
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..CASES {
        let r = rand_rect(&mut rng);
        let p = rand_point(&mut rng);
        if r.contains(&p) {
            assert_eq!(r.min_dist(&p), 0.0);
        } else {
            assert!(r.min_dist(&p) > 0.0);
        }
    }
}

#[test]
fn bounding_rect_is_minimal() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..64);
        let points: Vec<Point> = (0..n).map(|_| rand_point(&mut rng)).collect();
        let r = bounding_rect(&points).unwrap();
        for p in &points {
            assert!(r.contains(p));
        }
        // Every edge of the bounding rectangle touches at least one point.
        assert!(points.iter().any(|p| p.x == r.min_x));
        assert!(points.iter().any(|p| p.x == r.max_x));
        assert!(points.iter().any(|p| p.y == r.min_y));
        assert!(points.iter().any(|p| p.y == r.max_y));
    }
}

#[test]
fn enlargement_is_non_negative() {
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..CASES {
        let a = rand_rect(&mut rng);
        let b = rand_rect(&mut rng);
        assert!(a.enlargement(&b) >= -1e-12);
    }
}

#[test]
fn normalize_stays_in_unit_interval() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..CASES {
        let v = rng.gen_range(-10.0f64..10.0);
        let lo = rng.gen_range(-5.0f64..0.0);
        let hi = rng.gen_range(0.1f64..5.0);
        let n = normalize(v, lo, hi);
        assert!((0.0..=1.0).contains(&n));
    }
}
