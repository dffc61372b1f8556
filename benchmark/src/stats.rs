//! Order statistics over latency samples, per-round aggregation, and the
//! FNV-1a hash that fingerprints generated inputs.

use datagen::queries::{MixedQuery, ServeOp};
use geom::{Point, Rect};
use std::time::Duration;

/// Request classes every workload reports latency for, in metric order.
pub const CLASSES: [&str; 4] = ["point", "window", "knn", "write"];
pub const POINT: usize = 0;
pub const WINDOW: usize = 1;
pub const KNN: usize = 2;
pub const WRITE: usize = 3;

/// Median of `values` (mean of the two middle values for even lengths);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nearest-rank percentile of nanosecond samples, in microseconds.  Sorts
/// `samples` in place.
pub fn percentile_us(samples: &mut [u32], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    Some(samples[rank - 1] as f64 / 1_000.0)
}

/// Nanoseconds of `d`, saturating: one op never takes four seconds, and a
/// stall that long should read as the cap rather than wrap.
pub fn nanos_u32(d: Duration) -> u32 {
    d.as_nanos().min(u32::MAX as u128) as u32
}

/// Latency samples of one timed phase, split into fixed-size rounds.
///
/// Every latency and throughput figure a workload reports is the **median
/// of its per-round values**: a scheduler hiccup or a compaction burst
/// spoils one round, not the run.  The tail percentile is taken over all
/// samples of the run instead, because one round has too few samples beyond
/// p99 to be meaningful.
#[derive(Default)]
pub struct Rounds {
    round: [Vec<u32>; 4],
    all: [Vec<u32>; 4],
    round_p50_us: [Vec<f64>; 4],
    round_ops_per_s: Vec<f64>,
}

impl Rounds {
    #[inline]
    pub fn record(&mut self, class: usize, ns: u32) {
        self.round[class].push(ns);
    }

    /// Closes the current round: `ops` operations completed in `wall`.
    pub fn end_round(&mut self, ops: usize, wall: Duration) {
        self.round_ops_per_s.push(ops as f64 / wall.as_secs_f64());
        for class in 0..CLASSES.len() {
            if let Some(p50) = percentile_us(&mut self.round[class], 0.5) {
                self.round_p50_us[class].push(p50);
            }
            self.all[class].append(&mut self.round[class]);
        }
    }

    /// Appends the finished rounds of another phase or connection, so a run
    /// made of several reports like one.
    pub fn absorb_finished(&mut self, other: &mut Rounds) {
        for class in 0..CLASSES.len() {
            self.all[class].append(&mut other.all[class]);
            self.round_p50_us[class].append(&mut other.round_p50_us[class]);
        }
        self.round_ops_per_s.append(&mut other.round_ops_per_s);
    }

    pub fn rounds(&self) -> usize {
        self.round_ops_per_s.len()
    }

    pub fn ops_per_s(&self) -> Option<f64> {
        median(&self.round_ops_per_s)
    }

    pub fn p50_us(&self, class: usize) -> Option<f64> {
        median(&self.round_p50_us[class])
    }

    pub fn p99_us(&mut self, class: usize) -> Option<f64> {
        percentile_us(&mut self.all[class], 0.99)
    }

    pub fn samples(&self, class: usize) -> usize {
        self.all[class].len()
    }
}

/// FNV-1a, 64 bit: fingerprints the generated points and operations so a
/// later change to `datagen` that silently alters a workload is visible.
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn point(&mut self, p: &Point) {
        self.f64(p.x);
        self.f64(p.y);
        self.u64(p.id);
    }

    pub fn rect(&mut self, w: &Rect) {
        for v in [w.min_x, w.min_y, w.max_x, w.max_y] {
            self.f64(v);
        }
    }

    pub fn query(&mut self, q: &MixedQuery) {
        match q {
            MixedQuery::Point(p) => {
                self.u64(0);
                self.point(p);
            }
            MixedQuery::Window(w) => {
                self.u64(1);
                self.rect(w);
            }
            MixedQuery::Knn(p, k) => {
                self.u64(2);
                self.point(p);
                self.u64(*k as u64);
            }
        }
    }

    pub fn ops(&mut self, ops: &[ServeOp]) {
        for op in ops {
            match op {
                ServeOp::Read(q) => self.query(q),
                ServeOp::Insert(p) => {
                    self.u64(3);
                    self.point(p);
                }
                ServeOp::Delete(p) => {
                    self.u64(4);
                    self.point(p);
                }
            }
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

pub fn points_fnv64(points: &[Point]) -> String {
    let mut h = Fnv64::default();
    for p in points {
        h.point(p);
    }
    h.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_use_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let mut ns: Vec<u32> = (1..=100).map(|v| v * 1_000).collect();
        assert_eq!(percentile_us(&mut ns, 0.5), Some(50.0));
        assert_eq!(percentile_us(&mut ns, 0.99), Some(99.0));
    }

    #[test]
    fn rounds_report_the_median_round() {
        let mut r = Rounds::default();
        for (round, ns) in [1_000u32, 9_000, 2_000].into_iter().enumerate() {
            r.record(POINT, ns);
            r.end_round(10, Duration::from_millis(10 * (round as u64 + 1)));
        }
        assert_eq!(r.p50_us(POINT), Some(2.0));
        assert_eq!(r.ops_per_s(), Some(500.0));
        assert_eq!(r.samples(POINT), 3);
        assert_eq!(r.p50_us(WRITE), None);
    }
}
