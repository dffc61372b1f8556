//! Data-set and query-workload generators.
//!
//! The paper evaluates on two real data sets (Tiger, OSM) and three synthetic
//! families (Uniform, Normal, Skewed), with query workloads that "follow the
//! data distribution" (§6.1, Table 2).  This crate provides:
//!
//! * [`Distribution`] — the five data-set families.  The two real data sets
//!   cannot be redistributed, so `TigerLike` and `OsmLike` are synthetic
//!   surrogates that reproduce the properties the experiments exercise
//!   (strong clustering along linear features for Tiger, heavy-tailed
//!   multi-modal population clusters for OSM).
//! * [`generate`] — deterministic, seeded point generation,
//! * [`queries`] — point-, window- and kNN-query workload generators with the
//!   paper's parameters (window area fraction, aspect ratio, k).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod queries;

use geom::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The data-set families of Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Uniform over the unit square.
    Uniform,
    /// Truncated normal centred at (0.5, 0.5).
    Normal,
    /// Uniform x; y raised to the power `alpha` (the paper uses α = 4).
    Skewed {
        /// Skew exponent applied to the y-coordinate.
        alpha: i32,
    },
    /// Surrogate for the Tiger data set: points clustered along line
    /// segments ("roads") plus compact town clusters.
    TigerLike,
    /// Surrogate for the OSM data set: heavy-tailed mixture of population
    /// centres over a sparse uniform background.
    OsmLike,
}

impl Distribution {
    /// The default skewed distribution (α = 4) used throughout the paper.
    pub fn skewed_default() -> Self {
        Distribution::Skewed { alpha: 4 }
    }

    /// All five families in the order the paper's figures list them
    /// (Uniform, Normal, Skewed, Tiger, OSM).
    pub fn all() -> [Distribution; 5] {
        [
            Distribution::Uniform,
            Distribution::Normal,
            Distribution::skewed_default(),
            Distribution::TigerLike,
            Distribution::OsmLike,
        ]
    }

    /// Short name used in experiment output.
    pub fn name(&self) -> &'static str {
        match self {
            Distribution::Uniform => "Uniform",
            Distribution::Normal => "Normal",
            Distribution::Skewed { .. } => "Skewed",
            Distribution::TigerLike => "Tiger",
            Distribution::OsmLike => "OSM",
        }
    }
}

/// Generates `n` points of the given distribution, deterministically from the
/// seed.  Point ids are `0..n`.
pub fn generate(dist: Distribution, n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pts = Vec::with_capacity(n);
    match dist {
        Distribution::Uniform => {
            for id in 0..n {
                pts.push(Point::with_id(
                    rng.gen::<f64>(),
                    rng.gen::<f64>(),
                    id as u64,
                ));
            }
        }
        Distribution::Normal => {
            for id in 0..n {
                let x = truncated_normal(&mut rng, 0.5, 0.17);
                let y = truncated_normal(&mut rng, 0.5, 0.17);
                pts.push(Point::with_id(x, y, id as u64));
            }
        }
        Distribution::Skewed { alpha } => {
            // Following the paper (and the HRR experiments it cites): uniform
            // data with the y-coordinate raised to its power yᵅ.
            for id in 0..n {
                let x = rng.gen::<f64>();
                let y = rng.gen::<f64>().powi(alpha);
                pts.push(Point::with_id(x, y, id as u64));
            }
        }
        Distribution::TigerLike => {
            generate_tiger_like(&mut rng, n, &mut pts);
        }
        Distribution::OsmLike => {
            generate_osm_like(&mut rng, n, &mut pts);
        }
    }
    pts
}

/// Box–Muller standard normal sample, scaled and truncated to `[0, 1]`.
fn truncated_normal(rng: &mut StdRng, mean: f64, std: f64) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = mean + std * z;
        if (0.0..=1.0).contains(&v) {
            return v;
        }
    }
}

/// Tiger-like surrogate: 60 % of points along randomly oriented line segments
/// (geographic features such as roads and rivers), 30 % in compact Gaussian
/// "town" clusters, 10 % uniform background.
fn generate_tiger_like(rng: &mut StdRng, n: usize, pts: &mut Vec<Point>) {
    let n_segments = 40.max(n / 10_000);
    let n_towns = 20.max(n / 20_000);
    let segments: Vec<(f64, f64, f64, f64)> = (0..n_segments)
        .map(|_| {
            let x0 = rng.gen::<f64>();
            let y0 = rng.gen::<f64>();
            let len = 0.05 + 0.3 * rng.gen::<f64>();
            let angle = rng.gen::<f64>() * std::f64::consts::PI;
            let x1 = (x0 + len * angle.cos()).clamp(0.0, 1.0);
            let y1 = (y0 + len * angle.sin()).clamp(0.0, 1.0);
            (x0, y0, x1, y1)
        })
        .collect();
    let towns: Vec<(f64, f64, f64)> = (0..n_towns)
        .map(|_| {
            (
                rng.gen::<f64>(),
                rng.gen::<f64>(),
                0.005 + 0.02 * rng.gen::<f64>(),
            )
        })
        .collect();

    for id in 0..n {
        let r: f64 = rng.gen();
        let (x, y) = if r < 0.6 {
            let (x0, y0, x1, y1) = segments[rng.gen_range(0..segments.len())];
            let t: f64 = rng.gen();
            let jitter = 0.002;
            (
                (x0 + t * (x1 - x0) + jitter * (rng.gen::<f64>() - 0.5)).clamp(0.0, 1.0),
                (y0 + t * (y1 - y0) + jitter * (rng.gen::<f64>() - 0.5)).clamp(0.0, 1.0),
            )
        } else if r < 0.9 {
            let (cx, cy, s) = towns[rng.gen_range(0..towns.len())];
            (
                truncated_normal(rng, cx.clamp(0.05, 0.95), s),
                truncated_normal(rng, cy.clamp(0.05, 0.95), s),
            )
        } else {
            (rng.gen(), rng.gen())
        };
        pts.push(Point::with_id(x, y, id as u64));
    }
}

/// OSM-like surrogate: cluster sizes follow a power law (a few huge
/// metropolitan areas, many small ones) over a sparse uniform background.
fn generate_osm_like(rng: &mut StdRng, n: usize, pts: &mut Vec<Point>) {
    let n_clusters = 80.max(n / 5_000).min(4000);
    // Power-law weights: weight_i ∝ 1 / (i + 1)^0.8.
    let mut weights: Vec<f64> = (0..n_clusters)
        .map(|i| 1.0 / ((i + 1) as f64).powf(0.8))
        .collect();
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    let centers: Vec<(f64, f64, f64)> = (0..n_clusters)
        .map(|i| {
            // Bigger clusters are also geographically wider.
            let spread = 0.004 + 0.05 * weights[i] * n_clusters as f64 / 10.0;
            (rng.gen::<f64>(), rng.gen::<f64>(), spread.min(0.08))
        })
        .collect();
    // Cumulative weights for sampling.
    let mut cum = Vec::with_capacity(n_clusters);
    let mut acc = 0.0;
    for w in &weights {
        acc += w;
        cum.push(acc);
    }

    for id in 0..n {
        let r: f64 = rng.gen();
        let (x, y) = if r < 0.92 {
            let u: f64 = rng.gen();
            let idx = cum.partition_point(|&c| c < u).min(n_clusters - 1);
            let (cx, cy, s) = centers[idx];
            (
                truncated_normal(rng, cx.clamp(0.03, 0.97), s),
                truncated_normal(rng, cy.clamp(0.03, 0.97), s),
            )
        } else {
            (rng.gen(), rng.gen())
        };
        pts.push(Point::with_id(x, y, id as u64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        for dist in Distribution::all() {
            let a = generate(dist, 500, 1);
            let b = generate(dist, 500, 1);
            let c = generate(dist, 500, 2);
            assert_eq!(a, b, "{dist:?} not deterministic");
            assert_ne!(a, c, "{dist:?} ignores the seed");
        }
    }

    #[test]
    fn generated_points_are_in_the_unit_square_with_sequential_ids() {
        for dist in Distribution::all() {
            let pts = generate(dist, 1000, 7);
            assert_eq!(pts.len(), 1000);
            for (i, p) in pts.iter().enumerate() {
                assert!((0.0..=1.0).contains(&p.x), "{dist:?} x out of range");
                assert!((0.0..=1.0).contains(&p.y), "{dist:?} y out of range");
                assert_eq!(p.id, i as u64);
            }
        }
    }

    #[test]
    fn skewed_data_concentrates_y_near_zero() {
        let pts = generate(Distribution::skewed_default(), 5000, 3);
        let below = pts.iter().filter(|p| p.y < 0.1).count();
        // For y = u^4, P(y < 0.1) = 0.1^(1/4) ≈ 0.56.
        assert!(below > 2300, "skewed data not skewed enough: {below}");
        // x stays uniform.
        let x_below = pts.iter().filter(|p| p.x < 0.5).count();
        assert!((2000..3000).contains(&x_below));
    }

    #[test]
    fn normal_data_concentrates_around_the_centre() {
        let pts = generate(Distribution::Normal, 5000, 3);
        let central = pts
            .iter()
            .filter(|p| (p.x - 0.5).abs() < 0.34 && (p.y - 0.5).abs() < 0.34)
            .count();
        assert!(central > 3500, "normal data not concentrated: {central}");
    }

    #[test]
    fn clustered_surrogates_are_less_uniform_than_uniform_data() {
        // Compare occupancy of a 16x16 grid: clustered data leaves many more
        // cells (nearly) empty than uniform data does.
        let occupancy_variance = |pts: &[Point]| {
            let mut counts = vec![0f64; 256];
            for p in pts {
                let cx = ((p.x * 16.0) as usize).min(15);
                let cy = ((p.y * 16.0) as usize).min(15);
                counts[cy * 16 + cx] += 1.0;
            }
            let mean = pts.len() as f64 / 256.0;
            counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / 256.0
        };
        let uni = occupancy_variance(&generate(Distribution::Uniform, 20_000, 5));
        let tiger = occupancy_variance(&generate(Distribution::TigerLike, 20_000, 5));
        let osm = occupancy_variance(&generate(Distribution::OsmLike, 20_000, 5));
        assert!(
            tiger > 2.0 * uni,
            "tiger-like should be clustered (var {tiger} vs {uni})"
        );
        assert!(
            osm > 2.0 * uni,
            "osm-like should be clustered (var {osm} vs {uni})"
        );
    }

    #[test]
    fn distribution_names_are_stable() {
        let names: Vec<&str> = Distribution::all().iter().map(|d| d.name()).collect();
        assert_eq!(names, vec!["Uniform", "Normal", "Skewed", "Tiger", "OSM"]);
    }

    #[test]
    fn duplicate_locations_are_rare() {
        let pts = generate(Distribution::OsmLike, 10_000, 9);
        let mut coords: Vec<(u64, u64)> =
            pts.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect();
        coords.sort_unstable();
        coords.dedup();
        assert_eq!(
            coords.len(),
            pts.len(),
            "exact duplicate coordinates generated"
        );
    }
}
