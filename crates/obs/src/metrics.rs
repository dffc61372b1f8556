//! Named atomic counters/gauges and fixed-bucket log-scale histograms.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of histogram buckets.  Values 0–7 get exact buckets; every
/// larger value lands in one of 8 linear sub-buckets per power-of-two
/// octave (3 significant bits), so the relative quantisation error is at
/// most 12.5 % across the full `u64` range — plenty for tail-latency
/// telemetry, small enough that a histogram is 4 KiB of atomics.
pub const HIST_BUCKETS: usize = 496;

/// Bits of sub-bucket resolution within one octave.
const SUB_BITS: u32 = 3;

/// Maps a recorded value to its bucket index (0-based, `< HIST_BUCKETS`).
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < (1 << SUB_BITS) {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let group = (msb - SUB_BITS + 1) as usize;
    let sub = ((v >> (msb - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
    (group << SUB_BITS) | sub
}

/// The largest value mapping to bucket `idx` — the conservative
/// (upper-edge) representative percentile extraction reports.
#[inline]
pub(crate) fn bucket_upper_bound(idx: usize) -> u64 {
    debug_assert!(idx < HIST_BUCKETS);
    if idx < (1 << SUB_BITS) {
        return idx as u64;
    }
    let group = (idx >> SUB_BITS) as u32;
    let sub = (idx & ((1 << SUB_BITS) - 1)) as u64;
    let msb = group + SUB_BITS - 1;
    let shift = msb - SUB_BITS;
    let lower = (1u64 << msb) | (sub << shift);
    lower + ((1u64 << shift) - 1)
}

/// Shared histogram state: per-bucket counts plus count/sum/min/max, all
/// plain atomics so recording never takes a lock.
pub(crate) struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        Self {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u16, n))
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A monotone counter handle; cloning shares the underlying atomic.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle (a value that can go up and down); cloning shares the
/// underlying atomic.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `d` (negative to decrease).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }
}

/// A latency-histogram handle; cloning shares the underlying buckets.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation (any unit; the serving stack records
    /// microseconds for latencies and plain counts for depths).
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.record(v);
    }
}

/// The registry of named metrics.  Handles are registered once (short
/// write lock) and then recorded through without any lock; looking up an
/// already-registered name takes only a read lock.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: RwLock<BTreeMap<String, Arc<HistogramCore>>>,
}

fn get_or_insert<T, F: FnOnce() -> T>(
    map: &RwLock<BTreeMap<String, Arc<T>>>,
    name: &str,
    make: F,
) -> Arc<T> {
    if let Some(v) = map.read().expect("metrics lock poisoned").get(name) {
        return Arc::clone(v);
    }
    let mut w = map.write().expect("metrics lock poisoned");
    Arc::clone(
        w.entry(name.to_string())
            .or_insert_with(|| Arc::new(make())),
    )
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns (registering on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(get_or_insert(&self.counters, name, || AtomicU64::new(0)))
    }

    /// Returns (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(get_or_insert(&self.gauges, name, || AtomicI64::new(0)))
    }

    /// Returns (registering on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram(get_or_insert(&self.histograms, name, HistogramCore::new))
    }

    /// A point-in-time snapshot of every registered metric, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .expect("metrics lock poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("metrics lock poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("metrics lock poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of one histogram: total count/sum, observed
/// min/max, and the non-empty buckets as `(bucket index, count)` pairs
/// sorted by index (the sparse form keeps wire snapshots small).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Non-empty `(bucket index, count)` pairs, ascending by index.
    pub buckets: Vec<(u16, u64)>,
}

impl HistogramSnapshot {
    /// Nearest-rank percentile (same convention as the load generator's
    /// `netload::percentile`): the value at rank `ceil(q/100 * count)`,
    /// reported as the containing bucket's upper edge clamped to the
    /// observed max — conservative for tail latencies.  0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut cum = 0u64;
        for &(idx, n) in &self.buckets {
            cum = cum.saturating_add(n);
            if cum >= rank {
                return bucket_upper_bound(idx as usize).min(self.max);
            }
        }
        self.max
    }

    /// Mean of the recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds another snapshot into this one (bucket-wise addition) — how
    /// per-shard or per-process histograms aggregate.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        self.sum += other.sum;
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        let mut merged: BTreeMap<u16, u64> = self.buckets.iter().copied().collect();
        for &(idx, n) in &other.buckets {
            *merged.entry(idx).or_insert(0) += n;
        }
        self.buckets = merged.into_iter().collect();
    }
}

/// A point-in-time copy of a whole [`MetricsRegistry`], name-sorted; the
/// payload the wire `STATS` response carries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, distribution)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of the counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Value of the gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut values: Vec<u64> = (0..=1024).collect();
        for shift in 10u32..64 {
            for off in [0u64, 1, 3, 7] {
                values.push((1u64 << shift).saturating_add(off << (shift - 4)));
            }
        }
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let idx = bucket_index(v);
            assert!(idx < HIST_BUCKETS, "v={v} idx={idx}");
            assert!(idx >= last, "v={v}: index went backwards");
            last = idx;
        }
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(7), 7);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn every_value_is_at_most_its_bucket_upper_bound() {
        for v in [0u64, 1, 7, 8, 9, 100, 1000, 123_456, u64::MAX / 3, u64::MAX] {
            let idx = bucket_index(v);
            let upper = bucket_upper_bound(idx);
            assert!(v <= upper, "v={v} > upper={upper}");
            // The quantisation error of the upper edge is bounded by 12.5 %.
            if v >= 8 {
                assert!(
                    (upper - v) as f64 <= v as f64 * 0.125 + 1.0,
                    "v={v} upper={upper}"
                );
            }
        }
        // Upper bounds are the last value of each bucket: the next value
        // maps to the next bucket.
        for idx in 0..HIST_BUCKETS - 1 {
            let upper = bucket_upper_bound(idx);
            assert_eq!(bucket_index(upper), idx);
            assert_eq!(bucket_index(upper + 1), idx + 1);
        }
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("reqs");
        c.inc();
        c.add(4);
        // Same name, same underlying atomic.
        reg.counter("reqs").inc();
        assert_eq!(c.get(), 6);
        let g = reg.gauge("depth");
        g.set(10);
        g.add(-3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("reqs"), Some(6));
        assert_eq!(snap.gauge("depth"), Some(7));
        assert_eq!(snap.counter("nope"), None);
    }

    #[test]
    fn histogram_percentiles_follow_nearest_rank() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = reg.snapshot();
        let s = snap.histogram("lat").unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert_eq!(s.sum, 5050);
        // Nearest-rank p50 of 1..=100 is the 50th value; bucketed
        // resolution may round up by at most 12.5 %.
        let p50 = s.percentile(50.0);
        assert!((50..=57).contains(&p50), "p50={p50}");
        let p99 = s.percentile(99.0);
        assert!((99..=100).contains(&p99), "p99={p99}");
        assert_eq!(s.percentile(100.0), 100);
        // Degenerate cases.
        assert_eq!(HistogramSnapshot::default().percentile(99.0), 0);
        assert_eq!(s.mean(), 50.5);
    }

    #[test]
    fn histograms_merge_bucketwise() {
        let reg = MetricsRegistry::new();
        let a = reg.histogram("a");
        let b = reg.histogram("b");
        for v in [1u64, 5, 100] {
            a.record(v);
        }
        for v in [2u64, 100, 9000] {
            b.record(v);
        }
        let snap = reg.snapshot();
        let (a, b) = (snap.histogram("a").unwrap(), snap.histogram("b").unwrap());
        let mut m = a.clone();
        m.merge(b);
        assert_eq!(m.count, 6);
        assert_eq!(m.sum, 1 + 5 + 100 + 2 + 100 + 9000);
        assert_eq!(m.min, 1);
        assert_eq!(m.max, 9000);
        // The shared bucket (value 100 on both sides) folded into one pair.
        let idx100 = bucket_index(100) as u16;
        assert_eq!(
            m.buckets
                .iter()
                .find(|(i, _)| *i == idx100)
                .map(|(_, n)| *n),
            Some(2)
        );
        // Merging into an empty snapshot copies the other side.
        let mut empty = HistogramSnapshot::default();
        empty.merge(b);
        assert_eq!(empty.min, 2);
        assert_eq!(empty.count, 3);
    }
}
