//! Property suite for the shared scan kernels (`storage::kernels`): seeded
//! deterministic loops compare every kernel against the scalar per-point
//! expression it replaced, across degenerate inputs (empty lanes, a single
//! point, chunk-seam lengths, boundary-touching rectangles, zero radii,
//! duplicate points) — and a conformance sweep asserts that the
//! kernel-filtered query paths of **every** index family still return
//! exactly the answers the scalar visitors returned before the SoA rewrite.
//!
//! The kernels promise bit-compatibility with the scalar code (no FMA
//! contraction, same compare expressions), so every distance assertion here
//! is on raw bits, not within an epsilon.

use common::{brute_force, QueryContext};
use datagen::{generate, queries, Distribution};
use geom::{Point, Rect};
use registry::{build_index, IndexConfig, IndexKind};
use storage::kernels::{self, CHUNK};

/// Deterministic 64-bit LCG so the property loops replay identically on
/// every run and platform (no `rand` dependency in the contract tests).
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in `[0, 1)`, 53 mantissa bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn next_usize(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// Random lanes with occasional duplicate points, so boundary cases where
/// several lanes share exact coordinates are exercised.
fn lanes(rng: &mut Lcg, n: usize) -> (Vec<f64>, Vec<f64>, Vec<u64>) {
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 && rng.next_usize(8) == 0 {
            let j = rng.next_usize(i);
            xs.push(xs[j]);
            ys.push(ys[j]);
        } else {
            xs.push(rng.next_f64());
            ys.push(rng.next_f64());
        }
    }
    let ids = (0..n as u64).collect();
    (xs, ys, ids)
}

/// Lengths that straddle the chunk seams: empty, single, one under/at/over
/// a mask word, and a multi-chunk length with a ragged tail.
const LENGTHS: [usize; 8] = [0, 1, 2, 63, 64, 65, 100, 2 * CHUNK + 7];

#[test]
fn rect_mask_matches_scalar_containment() {
    let mut rng = Lcg(0xA5A5_0001);
    for &n in LENGTHS.iter().filter(|&&n| n <= CHUNK) {
        for round in 0..40 {
            let (xs, ys, _) = lanes(&mut rng, n);
            let rect = if round % 4 == 0 && n > 0 {
                // Boundary-touching: build the rect FROM sampled points so
                // its edges coincide exactly with lane values (inclusive
                // containment must keep them).
                let a = rng.next_usize(n);
                let b = rng.next_usize(n);
                Rect::new(
                    xs[a].min(xs[b]),
                    ys[a].min(ys[b]),
                    xs[a].max(xs[b]),
                    ys[a].max(ys[b]),
                )
            } else if round % 7 == 0 {
                // Degenerate/empty rectangle: nothing may match.
                Rect::new(0.5, 0.5, 0.4, 0.4)
            } else {
                let (x0, y0) = (rng.next_f64(), rng.next_f64());
                let (x1, y1) = (rng.next_f64(), rng.next_f64());
                Rect::new(x0.min(x1), y0.min(y1), x0.max(x1), y0.max(y1))
            };
            let mask = kernels::rect_mask(&xs, &ys, &rect);
            for i in 0..n {
                let expect = rect.contains(&Point::new(xs[i], ys[i]));
                assert_eq!(
                    mask >> i & 1 == 1,
                    expect,
                    "rect_mask lane {i} of {n} disagrees with Rect::contains"
                );
            }
            // No ghost bits past the lane count.
            if n < CHUNK {
                assert_eq!(mask >> n, 0, "rect_mask set bits past lane {n}");
            }
        }
    }
}

#[test]
fn within_mask_matches_scalar_distance_test() {
    let mut rng = Lcg(0xA5A5_0002);
    for &n in LENGTHS.iter().filter(|&&n| n <= CHUNK) {
        for round in 0..40 {
            let (xs, ys, _) = lanes(&mut rng, n);
            let (cx, cy) = (rng.next_f64(), rng.next_f64());
            let r_sq = match round % 5 {
                // Zero radius: only exact coincidences match.
                0 => 0.0,
                // Radius exactly the distance to one sampled point, so the
                // inclusive `<=` boundary is exercised with a live lane.
                1 if n > 0 => {
                    let j = rng.next_usize(n);
                    Point::new(xs[j], ys[j]).dist_sq(&Point::new(cx, cy))
                }
                _ => rng.next_f64() * 0.02,
            };
            let mask = kernels::within_mask(&xs, &ys, cx, cy, r_sq);
            for i in 0..n {
                let dx = xs[i] - cx;
                let dy = ys[i] - cy;
                assert_eq!(
                    mask >> i & 1 == 1,
                    dx * dx + dy * dy <= r_sq,
                    "within_mask lane {i} of {n} disagrees at r_sq={r_sq}"
                );
            }
            if n < CHUNK {
                assert_eq!(mask >> n, 0, "within_mask set bits past lane {n}");
            }
        }
    }
}

#[test]
fn dist_sq_into_is_bitwise_identical_to_scalar() {
    let mut rng = Lcg(0xA5A5_0003);
    for &n in &LENGTHS {
        let (xs, ys, _) = lanes(&mut rng, n);
        let (cx, cy) = (rng.next_f64(), rng.next_f64());
        let c = Point::new(cx, cy);
        let mut out = vec![f64::NAN; n];
        kernels::dist_sq_into(&xs, &ys, cx, cy, &mut out);
        for i in 0..n {
            let scalar = Point::new(xs[i], ys[i]).dist_sq(&c);
            assert_eq!(
                out[i].to_bits(),
                scalar.to_bits(),
                "dist_sq_into lane {i} of {n} is not bit-identical"
            );
        }
    }
}

#[test]
fn min_dist_sq_matches_branchy_reference_in_all_nine_regions() {
    // Scalar reference: the classic branch chain the branchless form
    // replaced.
    fn branchy(rect: &Rect, x: f64, y: f64) -> f64 {
        let dx = if x < rect.min_x {
            rect.min_x - x
        } else if x > rect.max_x {
            x - rect.max_x
        } else {
            0.0
        };
        let dy = if y < rect.min_y {
            rect.min_y - y
        } else if y > rect.max_y {
            y - rect.max_y
        } else {
            0.0
        };
        dx * dx + dy * dy
    }

    let rect = Rect::new(0.3, 0.4, 0.6, 0.7);
    // One probe in each of the nine regions around/inside the rectangle,
    // plus probes exactly ON each edge and corner.
    let probes = [
        (0.1, 0.2),
        (0.45, 0.2),
        (0.9, 0.2),
        (0.1, 0.55),
        (0.45, 0.55), // inside: must be exactly 0.0
        (0.9, 0.55),
        (0.1, 0.9),
        (0.45, 0.9),
        (0.9, 0.9),
        (0.3, 0.55),
        (0.6, 0.55),
        (0.45, 0.4),
        (0.45, 0.7),
        (0.3, 0.4),
        (0.6, 0.7),
    ];
    for &(x, y) in &probes {
        assert_eq!(
            rect.min_dist_sq(&Point::new(x, y)).to_bits(),
            branchy(&rect, x, y).to_bits(),
            "MINDIST differs at ({x}, {y})"
        );
    }
    assert_eq!(rect.min_dist_sq(&Point::new(0.45, 0.55)), 0.0);

    // And a seeded sweep for good measure.
    let mut rng = Lcg(0xA5A5_0004);
    for _ in 0..500 {
        let (x, y) = (rng.next_f64() * 2.0 - 0.5, rng.next_f64() * 2.0 - 0.5);
        assert_eq!(
            rect.min_dist_sq(&Point::new(x, y)).to_bits(),
            branchy(&rect, x, y).to_bits()
        );
    }
}

#[test]
fn mbr_of_matches_expand_fold() {
    assert!(kernels::mbr_of(&[], &[]).is_empty());

    let mut rng = Lcg(0xA5A5_0005);
    for &n in LENGTHS.iter().filter(|&&n| n > 0) {
        let (xs, ys, _) = lanes(&mut rng, n);
        let got = kernels::mbr_of(&xs, &ys);
        let mut expect = Rect::empty();
        for i in 0..n {
            expect.expand_to_point(Point::new(xs[i], ys[i]));
        }
        assert_eq!(got, expect, "mbr_of differs from expand fold at n={n}");
    }

    // All-identical lanes: a degenerate point-rectangle.
    let xs = vec![0.25; 10];
    let ys = vec![0.75; 10];
    assert_eq!(kernels::mbr_of(&xs, &ys), Rect::new(0.25, 0.75, 0.25, 0.75));
}

#[test]
fn chunked_filters_emit_scalar_answers_in_lane_order() {
    let mut rng = Lcg(0xA5A5_0006);
    for &n in &LENGTHS {
        let (xs, ys, ids) = lanes(&mut rng, n);
        let rect = Rect::new(0.2, 0.2, 0.7, 0.7);
        let (cx, cy) = (0.4, 0.6);
        let c = Point::new(cx, cy);
        let r_sq = 0.01;

        // for_each_in_rect == scalar filter, in ascending lane order.
        let mut got = Vec::new();
        kernels::for_each_in_rect(&xs, &ys, &ids, &rect, |p| got.push(p.id));
        let expect: Vec<u64> = (0..n)
            .filter(|&i| rect.contains(&Point::new(xs[i], ys[i])))
            .map(|i| ids[i])
            .collect();
        assert_eq!(got, expect, "for_each_in_rect differs at n={n}");

        // for_each_within == scalar filter, distances bit-identical.
        let mut got = Vec::new();
        kernels::for_each_within(&xs, &ys, &ids, cx, cy, r_sq, |p, d| {
            assert_eq!(
                d.to_bits(),
                p.dist_sq(&c).to_bits(),
                "for_each_within handed back a recomputed-differently distance"
            );
            got.push(p.id);
        });
        let expect: Vec<u64> = (0..n)
            .filter(|&i| Point::new(xs[i], ys[i]).dist_sq(&c) <= r_sq)
            .map(|i| ids[i])
            .collect();
        assert_eq!(got, expect, "for_each_within differs at n={n}");

        // for_each_dist_sq visits every lane once, in order, bit-identical.
        let mut visited = Vec::new();
        kernels::for_each_dist_sq(&xs, &ys, &ids, cx, cy, |p, d| {
            assert_eq!(d.to_bits(), p.dist_sq(&c).to_bits());
            visited.push(p.id);
        });
        assert_eq!(visited, ids, "for_each_dist_sq skipped or reordered lanes");
    }
}

#[test]
fn probes_within_matches_scalar_mindist_filter() {
    let mut rng = Lcg(0xA5A5_0007);
    let rect = Rect::new(0.3, 0.3, 0.6, 0.6);
    for &n in &LENGTHS {
        let probes: Vec<Point> = (0..n)
            .map(|i| Point::with_id(rng.next_f64(), rng.next_f64(), i as u64))
            .collect();
        for r_sq in [0.0, 0.005, 0.5] {
            let mut out = vec![Point::new(9.0, 9.0)]; // must be cleared
            kernels::probes_within(&probes, &rect, r_sq, &mut out);
            let expect: Vec<u64> = probes
                .iter()
                .filter(|q| rect.min_dist_sq(q) <= r_sq)
                .map(|q| q.id)
                .collect();
            let got: Vec<u64> = out.iter().map(|q| q.id).collect();
            assert_eq!(got, expect, "probes_within differs at n={n} r_sq={r_sq}");
        }
    }
}

/// Conformance invariant over the whole registry: with every query path now
/// routed through the kernel filters, each index family must return exactly
/// the answers the scalar per-point visitors produced before the rewrite —
/// brute force stands in as that scalar oracle.  Distance-range answers are
/// exact for EVERY family; window answers are exact for the families that
/// document exactness and sound (no false positives) for the rest.
#[test]
fn kernel_filtered_query_paths_match_scalar_oracle_for_every_kind() {
    let data = generate(Distribution::skewed_default(), 1_800, 97);
    let windows = queries::window_queries(&data, queries::WindowSpec::default(), 12, 17);
    let centers = queries::range_query_centers(&data, 12, 19);

    for kind in IndexKind::all_with_sharded() {
        let index = build_index(kind, &data, &IndexConfig::fast());
        let mut cx = QueryContext::new();

        for w in &windows {
            let got = index.window_query(w, &mut cx);
            for p in &got {
                assert!(
                    w.contains(p),
                    "{} kernel window filter leaked a false positive",
                    kind.name()
                );
            }
            if kind.exact_windows() {
                let mut ids: Vec<u64> = got.iter().map(|p| p.id).collect();
                let mut truth: Vec<u64> = brute_force::window_query(&data, w)
                    .iter()
                    .map(|p| p.id)
                    .collect();
                ids.sort_unstable();
                truth.sort_unstable();
                assert_eq!(
                    ids,
                    truth,
                    "{} window answer drifted from the scalar oracle",
                    kind.name()
                );
            }
        }

        for c in &centers {
            for radius in [0.0, 0.02, 0.05] {
                let mut ids: Vec<u64> = index
                    .range_query(c, radius, &mut cx)
                    .iter()
                    .map(|p| p.id)
                    .collect();
                let mut truth: Vec<u64> = brute_force::range_query(&data, c, radius)
                    .iter()
                    .map(|p| p.id)
                    .collect();
                ids.sort_unstable();
                truth.sort_unstable();
                assert_eq!(
                    ids,
                    truth,
                    "{} range answer drifted from the scalar oracle at r={radius}",
                    kind.name()
                );
            }
        }
    }
}
