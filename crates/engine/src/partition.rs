//! The learned partitioner: rank-space Hilbert-key range partitioning over
//! a learned CDF.
//!
//! Points are ordered by the curve value of their rank-space cell (the
//! transform RSMI uses to order points *within* an index, §3.1) and cut
//! into `S` near-equal contiguous runs.  The ranks come from a model of
//! each marginal rather than from the data: an axis keeps `KNOTS + 1`
//! (1 025) [`order_key`]s taken at evenly spaced positions of its sorted
//! keys, and a location's rank interpolates linearly between the two knots
//! that bracket its key.  Build points and queried locations share that
//! one key function, so equal locations always share a key, and the cut
//! never splits a run of equal keys: every copy of a location lands in one
//! shard.
//!
//! Each shard records its minimum bounding rectangle (for window / kNN
//! pruning) and its curve-key range (for point routing).  Routing a
//! location is two binary searches over the knots, one curve encode and one
//! binary search over the shard key boundaries; the router holds
//! `O(shards + KNOTS)` words, whatever the number of points.

use geom::{order_key, Point, Rect};
use persist::{PersistError, SnapshotReader, SnapshotWriter};
use sfc::{rank_space_order, CurveKind};

/// Segments of each axis's knot table: the table holds `KNOTS + 1` knots,
/// or one per build point when there are fewer.
const KNOTS: usize = 1_024;

/// The largest build a partitioner routes: ranks must fit the curve's
/// grid, whose order is at most 31.
const MAX_POINTS: usize = 1 << 31;

/// How a point set was cut into shards, plus the frozen key function.
#[derive(Debug, Clone)]
pub struct Partitioner {
    curve: CurveKind,
    /// Build points: ranks run over `0..n`.
    n: usize,
    /// Curve order of the `n`-point rank-space grid.
    order: u32,
    /// Knot tables of the x and y marginals, ascending.
    knots: [Vec<u64>; 2],
    /// First curve key of each shard, ascending; routing picks the last
    /// shard whose first key is `<=` the query key.
    shard_key_lo: Vec<u64>,
}

/// One shard produced by [`Partitioner::partition`]: its points (in curve
/// order) and their bounding rectangle.
#[derive(Debug, Clone)]
pub(crate) struct ShardSlice {
    /// The shard's points, sorted by curve key, ties in input order.
    pub(crate) points: Vec<Point>,
    /// Minimum bounding rectangle of the shard's points.
    pub(crate) mbr: Rect,
}

impl Partitioner {
    /// Partitions `points` into (up to) `shards` near-equal slices by
    /// curve key, returning the partitioner and the slices.
    ///
    /// The slice count is `min(shards, n)` but at least one, so empty and
    /// tiny data sets degrade gracefully.  The cut falls at the near-equal
    /// positions of the sorted keys, and a shard holds every key from its
    /// first up to the next shard's first, so a run of equal keys is never
    /// split: no shard holds more than `⌈n / shards⌉` points plus the
    /// longest run.  The axes are sorted and the points keyed on up to
    /// `workers` threads; the result does not depend on the count.
    ///
    /// # Panics
    /// Panics above `2^31` points, where ranks no longer fit the curve.
    pub(crate) fn partition(
        points: &[Point],
        shards: usize,
        curve: CurveKind,
        workers: usize,
    ) -> (Self, Vec<ShardSlice>) {
        let n = points.len();
        assert!(n <= MAX_POINTS, "{n} points exceed the partitioner's grid");
        let s = shards.max(1).min(n.max(1));

        // Each axis's keys are sorted once, both at a time; only the knots
        // are kept.
        let tables = common::parallel_map(vec![0, 1], workers, |axis| {
            let mut keys: Vec<u64> = points.iter().map(|p| order_key([p.x, p.y][axis])).collect();
            keys.sort_unstable();
            sample_knots(&keys)
        });
        let mut partitioner = Self {
            curve,
            n,
            order: rank_space_order(n.max(1)),
            knots: <[_; 2]>::try_from(tables).expect("one table per axis"),
            shard_key_lo: Vec::with_capacity(s),
        };

        // Every point is keyed on the same workers, then one sort orders
        // the `(key, index)` entries: equal keys in input order.
        let mut keyed = vec![(0u64, 0usize); n];
        let chunk = n.div_ceil(workers.max(1)).max(1);
        let jobs: Vec<_> = keyed.chunks_mut(chunk).enumerate().collect();
        common::parallel_map(jobs, workers, |(c, entries)| {
            for (i, entry) in entries.iter_mut().enumerate() {
                let p = &points[c * chunk + i];
                *entry = (partitioner.key_of(p.x, p.y), c * chunk + i);
            }
        });
        keyed.sort_unstable();

        // Near-equal cut: the first `n % s` shards get one extra position.
        let mut at = 0;
        for i in 0..s {
            let lo = keyed.get(at).map_or(0, |&(key, _)| key);
            partitioner.shard_key_lo.push(lo);
            at += n / s + usize::from(i < n % s);
        }

        // Each key goes to the last shard whose first key is `<=` it, the
        // shard `route` picks.
        let mut slices: Vec<ShardSlice> = (0..s)
            .map(|_| ShardSlice {
                points: Vec::with_capacity(n / s + 1),
                mbr: Rect::empty(),
            })
            .collect();
        let mut home = 0;
        for &(key, idx) in &keyed {
            while home + 1 < s && partitioner.shard_key_lo[home + 1] <= key {
                home += 1;
            }
            let p = points[idx];
            slices[home].mbr.expand_to_point(p);
            slices[home].points.push(p);
        }
        (partitioner, slices)
    }

    /// Number of shards this partitioner routes to.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shard_key_lo.len()
    }

    /// The shard a location belongs to under the frozen build-time key
    /// function.
    ///
    /// For any build point this is exactly the shard the point was placed
    /// in, every copy of a shared location included; for locations unseen at
    /// build time (negative lookups, inserts) it is the shard whose key
    /// range the location's curve key falls into, so inserts and later
    /// lookups of the same location always agree.
    pub fn route(&self, x: f64, y: f64) -> usize {
        let key = self.key_of(x, y);
        self.shard_key_lo
            .partition_point(|&lo| lo <= key)
            .saturating_sub(1)
    }

    /// The curve key of a location: the curve value of its two ranks.
    fn key_of(&self, x: f64, y: f64) -> u64 {
        let rank_on = |axis: usize, v: f64| rank(&self.knots[axis], self.n, order_key(v));
        self.curve.encode(rank_on(0, x), rank_on(1, y), self.order)
    }

    /// Memory held by the frozen key function and cut, in bytes.
    pub(crate) fn size_bytes(&self) -> usize {
        (self.knots[0].len() + self.knots[1].len() + self.shard_key_lo.len())
            * std::mem::size_of::<u64>()
    }

    /// The curve-key range `[lo, hi)` routed to shard `i` (`hi` is `None`
    /// for the last shard, which is unbounded above).
    pub(crate) fn shard_key_range(&self, i: usize) -> (u64, Option<u64>) {
        (self.shard_key_lo[i], self.shard_key_lo.get(i + 1).copied())
    }

    /// Appends the key function and cut to a snapshot (sub-record of the
    /// sharded container's partitioner section).
    pub(crate) fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u8(self.curve.tag());
        w.put_usize(self.n);
        for table in &self.knots {
            w.put_u64s(table);
        }
        w.put_u64s(&self.shard_key_lo);
    }

    /// Reads a partitioner written by [`Partitioner::encode`].  Routing
    /// binary-searches the knots and the cut; unsorted tables would not
    /// fail loudly — they would silently route to the wrong shard.
    pub(crate) fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        let tag = r.get_u8()?;
        let curve = CurveKind::from_tag(tag)
            .ok_or_else(|| PersistError::Corrupt(format!("unknown curve tag {tag}")))?;
        let n = r.get_usize()?;
        if n > MAX_POINTS {
            return Err(PersistError::Corrupt(format!(
                "partitioner over {n} points exceeds the curve's grid"
            )));
        }
        let knots = [r.get_u64s()?, r.get_u64s()?];
        let expected = if n == 0 { 0 } else { KNOTS.min(n - 1) + 1 };
        for table in &knots {
            if table.len() != expected {
                return Err(PersistError::Corrupt(format!(
                    "knot table of {} entries for {n} points, expected {expected}",
                    table.len()
                )));
            }
            if !table.is_sorted() {
                return Err(unsorted("knot table"));
            }
        }
        let shard_key_lo = r.get_u64s()?;
        if shard_key_lo.is_empty() {
            return Err(PersistError::Corrupt("partitioner with zero shards".into()));
        }
        if !shard_key_lo.is_sorted() {
            return Err(unsorted("shard key boundaries"));
        }
        Ok(Self {
            curve,
            n,
            order: rank_space_order(n.max(1)),
            knots,
            shard_key_lo,
        })
    }
}

/// The position of knot `j` of `m + 1` over `n` sorted keys.
fn knot_position(j: usize, m: usize, n: usize) -> usize {
    (j * (n - 1)).checked_div(m).unwrap_or(0)
}

/// The knot table of one axis's sorted keys: `KNOTS + 1` keys at evenly
/// spaced positions, first and last included (every key when there are
/// fewer).
fn sample_knots(sorted: &[u64]) -> Vec<u64> {
    let n = sorted.len();
    if n == 0 {
        return Vec::new();
    }
    let m = KNOTS.min(n - 1);
    (0..=m).map(|j| sorted[knot_position(j, m, n)]).collect()
}

/// The rank of `key` among `n` build keys under a knot table: linear
/// between the two knots that bracket it, floored; 0 below the first knot
/// and `n - 1` at or above the last.
fn rank(knots: &[u64], n: usize, key: u64) -> u32 {
    let j = knots.partition_point(|&k| k <= key);
    if j == 0 {
        return 0;
    }
    if j == knots.len() {
        return (n - 1) as u32;
    }
    let m = knots.len() - 1;
    let (lo, hi) = (knots[j - 1], knots[j]);
    let (from, to) = (knot_position(j - 1, m, n), knot_position(j, m, n));
    // `lo <= key < hi`, so the share is below one up to rounding, and at
    // most one after it: the rank stays within `from..=to`.
    let share = (key - lo) as f64 / (hi - lo) as f64;
    (from + (share * (to - from) as f64) as usize) as u32
}

fn unsorted(what: &str) -> PersistError {
    PersistError::Corrupt(format!("partitioner {what} are not sorted"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{generate, Distribution};

    /// Seeded points with shared x values, shared y values, co-located
    /// copies under equal and under distinct ids, and both signed zeros.
    fn tie_heavy_points(n: usize, seed: u64) -> Vec<Point> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let coord = |r: u64| match r % 8 {
            0 => -0.0,
            1 => 0.0,
            _ => (r % 40) as f64 / 40.0,
        };
        let flip_zero = |v: f64| if v == 0.0 { -v } else { v };
        let mut pts: Vec<Point> = Vec::with_capacity(n);
        while pts.len() < n {
            let r = next();
            let fresh = Point::with_id(coord(next()), coord(next()), next() % 64);
            let q = pts.get((next() as usize) % pts.len().max(1)).copied();
            pts.push(match (r >> 6) % 5 {
                0 => q.unwrap_or(fresh),
                1 => q.map_or(fresh, |q| Point::with_id(q.x, q.y, next() % 64)),
                2 => q.map_or(fresh, |q| {
                    Point::with_id(flip_zero(q.x), flip_zero(q.y), q.id)
                }),
                _ => fresh,
            });
        }
        pts
    }

    /// NaNs of two payloads under both signs: `order_key` gives them one
    /// key.
    const NANS: [f64; 4] = [
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff0_0000_0000_0001),
        f64::from_bits(0xfff0_0000_0000_0001),
    ];

    /// [`tie_heavy_points`] with a NaN on x for one point in seven and on y
    /// for another.
    fn with_nans(pts: Vec<Point>) -> Vec<Point> {
        pts.into_iter()
            .enumerate()
            .map(|(i, p)| match i % 7 {
                0 => Point::with_id(NANS[i / 7 % 4], p.y, p.id),
                1 => Point::with_id(p.x, NANS[i / 7 % 4], p.id),
                _ => p,
            })
            .collect()
    }

    #[test]
    fn one_and_two_workers_build_the_same_knots_cuts_and_slices() {
        let slice_bits = |slices: &[ShardSlice]| {
            slices
                .iter()
                .map(|s| {
                    let r = s.mbr;
                    let mbr = [r.min_x, r.min_y, r.max_x, r.max_y].map(f64::to_bits);
                    let points: Vec<_> = s
                        .points
                        .iter()
                        .map(|p| (p.x.to_bits(), p.y.to_bits(), p.id))
                        .collect();
                    (mbr, points)
                })
                .collect::<Vec<_>>()
        };
        let mut inputs: Vec<Vec<Point>> = [1, 7, 42]
            .into_iter()
            .flat_map(|seed| {
                let pts = tie_heavy_points(3_000, seed);
                [with_nans(pts.clone()), pts]
            })
            .collect();
        inputs.push(generate(Distribution::skewed_default(), 20_000, 42));
        for pts in &inputs {
            let (one, one_slices) = Partitioner::partition(pts, 3, CurveKind::Hilbert, 1);
            let (two, two_slices) = Partitioner::partition(pts, 3, CurveKind::Hilbert, 2);
            assert_eq!(one.knots, two.knots, "knots on 1 and 2 workers");
            assert_eq!(one.shard_key_lo, two.shard_key_lo, "cut on 1 and 2 workers");
            assert_eq!(
                slice_bits(&one_slices),
                slice_bits(&two_slices),
                "slices on 1 and 2 workers"
            );
            assert_eq!(
                one.knots.each_ref().map(Vec::len),
                [KNOTS.min(pts.len() - 1) + 1; 2]
            );
        }
    }

    #[test]
    fn no_shard_exceeds_its_share_by_more_than_the_longest_run_of_equal_keys() {
        let copies: Vec<Point> = (0..2_000)
            .map(|i| Point::with_id((i % 50) as f64 / 50.0, 0.3, i as u64))
            .collect();
        let mut inputs: Vec<(String, Vec<Point>, usize)> = Distribution::all()
            .into_iter()
            .map(|dist| (format!("{dist:?}"), generate(dist, 5_000, 11), 8))
            .collect();
        inputs.push(("50 x 40 copies".into(), copies, 8));
        inputs.push((
            "4 identical".into(),
            vec![Point::with_id(0.5, 0.5, 9); 4],
            2,
        ));
        inputs.push(("tie-heavy".into(), tie_heavy_points(3_000, 7), 5));
        inputs.push(("NaNs".into(), with_nans(tie_heavy_points(3_000, 7)), 5));
        for (what, data, shards) in inputs {
            let (p, slices) = Partitioner::partition(&data, shards, CurveKind::Hilbert, 2);
            let mut keys: Vec<u64> = data.iter().map(|q| p.key_of(q.x, q.y)).collect();
            keys.sort_unstable();
            let longest = keys.chunk_by(|a, b| a == b).map(<[u64]>::len).max();
            let bound = data.len().div_ceil(shards) + longest.unwrap_or(0);
            for (i, s) in slices.iter().enumerate() {
                assert!(
                    s.points.len() <= bound,
                    "{what}: shard {i} holds {} points, bound {bound}",
                    s.points.len()
                );
            }
        }
    }

    #[test]
    fn partition_is_near_equal_and_covers_all_points() {
        let data = generate(Distribution::skewed_default(), 1003, 7);
        let (p, slices) = Partitioner::partition(&data, 4, CurveKind::Hilbert, 2);
        assert_eq!(p.shard_count(), 4);
        assert_eq!(slices.iter().map(|s| s.points.len()).sum::<usize>(), 1003);
        for s in &slices {
            assert!((250..=251).contains(&s.points.len()));
            for pt in &s.points {
                assert!(s.mbr.contains(pt));
            }
        }
    }

    #[test]
    fn every_build_point_routes_to_its_own_shard() {
        // 50 locations stored 40 times each, and 4 identical points on 2
        // shards: the near-equal cut alone would split copies of a location
        // across shards.
        let shared: Vec<Point> = (0..2_000)
            .map(|i| Point::with_id((i % 50) as f64 / 50.0, 0.3, i as u64))
            .collect();
        let four = vec![Point::with_id(0.5, 0.5, 9); 4];
        let mut inputs: Vec<(String, Vec<Point>, usize)> =
            [Distribution::Uniform, Distribution::OsmLike]
                .into_iter()
                .map(|dist| (format!("{dist:?}"), generate(dist, 2_000, 11), 8))
                .collect();
        inputs.push(("50 x 40 copies".into(), shared, 8));
        inputs.push(("4 identical".into(), four, 2));
        for (what, data, shards) in inputs {
            let (p, slices) = Partitioner::partition(&data, shards, CurveKind::Hilbert, 2);
            assert_eq!(
                slices.iter().map(|s| s.points.len()).sum::<usize>(),
                data.len()
            );
            for (i, s) in slices.iter().enumerate() {
                for pt in &s.points {
                    assert_eq!(p.route(pt.x, pt.y), i, "{what} misrouted {pt:?}");
                    assert!(s.mbr.contains(pt), "{what}: shard {i}'s MBR misses {pt:?}");
                }
            }
        }
    }

    #[test]
    fn routing_is_total_for_unseen_locations() {
        let data = generate(Distribution::Normal, 500, 3);
        let (p, _) = Partitioner::partition(&data, 4, CurveKind::Hilbert, 2);
        for (x, y) in [(0.0, 0.0), (1.0, 1.0), (0.5, 0.123), (0.999, 0.001)] {
            assert!(p.route(x, y) < 4);
        }
    }

    #[test]
    fn degenerate_inputs_produce_at_least_one_shard() {
        let (p, slices) = Partitioner::partition(&[], 4, CurveKind::Hilbert, 2);
        assert_eq!(p.shard_count(), 1);
        assert!(slices[0].points.is_empty());
        assert!(slices[0].mbr.is_empty());

        let one = [Point::with_id(0.5, 0.5, 1)];
        let (p, slices) = Partitioner::partition(&one, 4, CurveKind::Hilbert, 2);
        assert_eq!(p.shard_count(), 1);
        assert_eq!(slices[0].points.len(), 1);
        assert_eq!(p.route(0.5, 0.5), 0);
    }

    #[test]
    fn shards_are_contiguous_in_curve_key_order() {
        let data = generate(Distribution::Uniform, 600, 13);
        let (p, slices) = Partitioner::partition(&data, 3, CurveKind::Hilbert, 2);
        let mut last = 0u64;
        for s in &slices {
            for pt in &s.points {
                let key = p.key_of(pt.x, pt.y);
                assert!(key >= last, "curve order broken across shards");
                last = key;
            }
        }
    }

    #[test]
    fn z_curve_partitioning_also_routes_correctly() {
        let data = generate(Distribution::TigerLike, 800, 17);
        let (p, slices) = Partitioner::partition(&data, 5, CurveKind::Z, 2);
        for (i, s) in slices.iter().enumerate() {
            for pt in s.points.iter().step_by(7) {
                assert_eq!(p.route(pt.x, pt.y), i);
            }
        }
    }
}
