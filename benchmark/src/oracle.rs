//! Brute-force ground truth for recall, always computed outside timed
//! regions and on a small sample: a full scan per query is the expensive
//! part of checking a learned index, and it must not eat the run.

use common::{brute_force, metrics};
use datagen::queries::{self, WindowSpec};
use geom::{Point, Rect};

/// Queries sampled per class for recall.
pub const RECALL_SAMPLE: usize = 200;

/// `count` items spread evenly over `pool`.
pub fn sample<T: Copy>(pool: &[T], count: usize) -> Vec<T> {
    let step = (pool.len() / count.max(1)).max(1);
    pool.iter().step_by(step).take(count).copied().collect()
}

/// The recall sample of a serving workload: default 0.01 % windows and kNN
/// query points, both following `data`.
pub fn recall_queries(data: &[Point], seed: u64) -> (Vec<Rect>, Vec<Point>) {
    (
        queries::window_queries(
            data,
            WindowSpec::default(),
            RECALL_SAMPLE,
            seed.wrapping_add(7),
        ),
        queries::knn_queries(data, RECALL_SAMPLE, seed.wrapping_add(8)),
    )
}

/// Mean recall of `answer` over `windows` against a scan of `points`.
pub fn window_recall(
    points: &[Point],
    windows: &[Rect],
    mut answer: impl FnMut(&Rect) -> Vec<Point>,
) -> f64 {
    let recalls: Vec<f64> = windows
        .iter()
        .map(|w| metrics::recall(&answer(w), &brute_force::window_query(points, w)))
        .collect();
    metrics::mean(&recalls)
}

/// Mean kNN recall of `answer` over `queries` against a scan of `points`.
pub fn knn_recall(
    points: &[Point],
    queries: &[Point],
    k: usize,
    mut answer: impl FnMut(&Point) -> Vec<Point>,
) -> f64 {
    let recalls: Vec<f64> = queries
        .iter()
        .map(|q| metrics::knn_recall(&answer(q), &knn_truth(points, q, k), q, k))
        .collect();
    metrics::mean(&recalls)
}

/// The exact k nearest neighbours.  `brute_force::knn_query` sorts its whole
/// input, which at a million points costs ~100 ms per query; a point within
/// distance `r` of `q` can only be beaten by another such point, so one
/// linear pass keeps the candidates within `r` and the sort runs on those
/// (`r` doubles until they number at least `k`).
fn knn_truth(points: &[Point], q: &Point, k: usize) -> Vec<Point> {
    let mut r = 2.0 * (k as f64 / (points.len().max(1) as f64 * std::f64::consts::PI)).sqrt();
    loop {
        let near: Vec<Point> = points
            .iter()
            .copied()
            .filter(|p| p.dist_sq(q) <= r * r)
            .collect();
        if near.len() >= k || near.len() == points.len() {
            return brute_force::knn_query(&near, q, k);
        }
        r *= 2.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filtered_knn_truth_equals_the_full_sort() {
        let points = datagen::generate(datagen::Distribution::skewed_default(), 3_000, 9);
        for q in datagen::queries::knn_queries(&points, 20, 5) {
            assert_eq!(
                knn_truth(&points, &q, 25),
                brute_force::knn_query(&points, &q, 25)
            );
        }
    }
}
