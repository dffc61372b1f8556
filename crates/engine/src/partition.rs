//! The learned partitioner: rank-space Hilbert-key range partitioning.
//!
//! Points are ordered by the curve value of their global rank-space cell
//! (the same transform RSMI uses to order points *within* an index, §3.1)
//! and cut into `S` near-equal contiguous runs.  Because the rank space is
//! equi-depth in both marginals, the cut is balanced by construction — the
//! "learned" CDF here is the exact empirical one, frozen at build time.
//!
//! Each shard records its minimum bounding rectangle (for window / kNN
//! pruning) and its curve-key range (for point routing).  Routing a query
//! location reduces to two binary searches (its x- and y-rank under the
//! frozen marginals), one curve encode, and one binary search over the
//! shard key boundaries — `O(log n)` with no per-shard work.

use geom::{order_key, Point, Rect};
use persist::{PersistError, SnapshotReader, SnapshotWriter};
use sfc::rank_space::{axis_order, Axis};
use sfc::{rank_space_order, CurveKind, RankSpace};

/// How a point set was cut into shards, plus the frozen routing tables.
#[derive(Debug, Clone)]
pub struct Partitioner {
    curve: CurveKind,
    order: u32,
    /// `(x, y)` of every build point, sorted by `(x, y)`: the frozen
    /// empirical marginal used to recover a location's x-rank.
    by_x: Vec<(f64, f64)>,
    /// `(y, x)` of every build point, sorted by `(y, x)`.
    by_y: Vec<(f64, f64)>,
    /// First curve key of each shard, ascending; routing picks the last
    /// shard whose first key is `<=` the query key.
    shard_key_lo: Vec<u64>,
}

/// One shard produced by [`Partitioner::partition`]: its points (in curve
/// order) and their bounding rectangle.
#[derive(Debug, Clone)]
pub(crate) struct ShardSlice {
    /// The shard's points, sorted by rank-space curve key.
    pub(crate) points: Vec<Point>,
    /// Minimum bounding rectangle of the shard's points.
    pub(crate) mbr: Rect,
}

impl Partitioner {
    /// Partitions `points` into (up to) `shards` near-equal slices by
    /// rank-space curve key, returning the partitioner and the slices.
    ///
    /// The slice count is `min(shards, n)` but at least one, so empty and
    /// tiny data sets degrade gracefully.  Every copy of a location stored
    /// more than once goes to the shard its location [routes](Self::route)
    /// to: the copies hold consecutive ranks, so the near-equal cut could
    /// split them, and a lookup or delete must find them all in one shard.
    /// Data with unique locations is cut exactly at the near-equal
    /// boundaries.  The two axes are sorted on up to `workers` threads (at
    /// most two are used); the result does not depend on the count.
    pub(crate) fn partition(
        points: &[Point],
        shards: usize,
        curve: CurveKind,
        workers: usize,
    ) -> (Self, Vec<ShardSlice>) {
        let n = points.len();
        let s = shards.max(1).min(n.max(1));

        // Each axis is sorted once, both at a time: the rank space ranks by
        // the two orders, and the routing tables are read off them.
        let orders = common::parallel_map(vec![Axis::X, Axis::Y], workers, |axis| {
            axis_order(points, axis)
        });
        let [x_order, y_order] = <[_; 2]>::try_from(orders).expect("one order per axis");
        let rs = RankSpace::from_axis_orders(&x_order, &y_order);
        let by_x = routing_table(points, x_order, Axis::X);
        let by_y = routing_table(points, y_order, Axis::Y);
        let keyed = rs.curve_order(curve);

        // Near-equal cut: the first `n % s` shards get one extra point;
        // `cut[pos]` is the shard of the `pos`-th point in curve order.
        let mut cut = Vec::with_capacity(n);
        let mut shard_key_lo = Vec::with_capacity(s);
        for i in 0..s {
            shard_key_lo.push(keyed.get(cut.len()).map_or(0, |&(key, _)| key));
            cut.resize(cut.len() + n / s + usize::from(i < n % s), i);
        }
        let partitioner = Self {
            curve,
            order: rank_space_order(n.max(1)),
            by_x,
            by_y,
            shard_key_lo,
        };

        // A copy's x-rank is its position in `by_x`, where the other copies
        // of its location sit next to it.
        let shared = |idx: usize| {
            let (rank, at) = (rs.rank(idx).0 as usize, (points[idx].x, points[idx].y));
            (rank > 0 && partitioner.by_x[rank - 1] == at)
                || partitioner.by_x.get(rank + 1) == Some(&at)
        };
        let mut slices: Vec<ShardSlice> = (0..s)
            .map(|_| ShardSlice {
                points: Vec::with_capacity(n / s + 1),
                mbr: Rect::empty(),
            })
            .collect();
        for (&(_, idx), &i) in keyed.iter().zip(&cut) {
            let p = points[idx];
            let home = if shared(idx) {
                partitioner.route(p.x, p.y)
            } else {
                i
            };
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
    /// range the location's frozen-rank curve key falls into, so inserts and
    /// later lookups of the same location always agree.
    pub fn route(&self, x: f64, y: f64) -> usize {
        let key = self.key_of(x, y);
        self.shard_key_lo
            .partition_point(|&lo| lo <= key)
            .saturating_sub(1)
    }

    /// The rank-space curve key of a location under the frozen marginals.
    fn key_of(&self, x: f64, y: f64) -> u64 {
        let max_coord = (1u32 << self.order) - 1;
        let rx = (self.by_x.partition_point(|&(px, py)| (px, py) < (x, y)) as u32).min(max_coord);
        let ry = (self.by_y.partition_point(|&(py, px)| (py, px) < (y, x)) as u32).min(max_coord);
        self.curve.encode(rx, ry, self.order)
    }

    /// Approximate memory held by the frozen routing tables, in bytes.
    pub(crate) fn size_bytes(&self) -> usize {
        self.by_x.len() * std::mem::size_of::<(f64, f64)>() * 2
            + self.shard_key_lo.len() * std::mem::size_of::<u64>()
    }

    /// The curve-key range `[lo, hi)` routed to shard `i` (`hi` is `None`
    /// for the last shard, which is unbounded above).
    pub(crate) fn shard_key_range(&self, i: usize) -> (u64, Option<u64>) {
        (self.shard_key_lo[i], self.shard_key_lo.get(i + 1).copied())
    }

    /// Appends the frozen routing tables to a snapshot (sub-record of the
    /// sharded container's partitioner section).
    pub(crate) fn encode(&self, w: &mut SnapshotWriter) {
        w.put_u8(self.curve.tag());
        w.put_u32(self.order);
        encode_pairs(w, &self.by_x);
        encode_pairs(w, &self.by_y);
        w.put_u64s(&self.shard_key_lo);
    }

    /// Reads a partitioner written by [`Partitioner::encode`].
    pub(crate) fn decode(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        let tag = r.get_u8()?;
        let curve = CurveKind::from_tag(tag)
            .ok_or_else(|| PersistError::Corrupt(format!("unknown curve tag {tag}")))?;
        let order = r.get_u32()?;
        let by_x = decode_pairs(r)?;
        let by_y = decode_pairs(r)?;
        let shard_key_lo = r.get_u64s()?;
        if shard_key_lo.is_empty() {
            return Err(PersistError::Corrupt("partitioner with zero shards".into()));
        }
        if !shard_key_lo.is_sorted() {
            return Err(unsorted());
        }
        Ok(Self {
            curve,
            order,
            by_x,
            by_y,
            shard_key_lo,
        })
    }
}

/// The routing table of one axis, read off the axis's [`axis_order`]: each
/// point's `(axis coordinate, other coordinate)` in that order, with every
/// run of equal [`pair_key`]s put back in input order, the order a stable
/// sort by key keeps (the axis order breaks those ties by id first).  The
/// order's 16-byte entries become the table's in place.
fn routing_table(points: &[Point], mut order: Vec<(u64, usize)>, axis: Axis) -> Vec<(f64, f64)> {
    let pair = |i: usize| axis.coords(&points[i]);
    for run in order.chunk_by_mut(|a, b| a.0 == b.0) {
        if run.len() > 1 {
            for ties in run.chunk_by_mut(|a, b| order_key(pair(a.1).1) == order_key(pair(b.1).1)) {
                ties.sort_unstable_by_key(|&(_, i)| i);
            }
        }
    }
    order.into_iter().map(|(_, i)| pair(i)).collect()
}

/// Writes a routing table as one slice: its length, then each pair's two
/// `f64` bit patterns, little-endian.
fn encode_pairs(w: &mut SnapshotWriter, pairs: &[(f64, f64)]) {
    let mut bytes = Vec::with_capacity(pairs.len() * 16);
    for &(a, b) in pairs {
        bytes.extend_from_slice(&a.to_bits().to_le_bytes());
        bytes.extend_from_slice(&b.to_bits().to_le_bytes());
    }
    w.put_usize(pairs.len());
    w.put_raw(&bytes);
}

/// Reads a table written by [`encode_pairs`] as one slice, checking its
/// order in the same pass.  Routing binary-searches the tables; unsorted
/// data would not fail loudly — it would silently route queries to the
/// wrong shard.
fn decode_pairs(r: &mut SnapshotReader<'_>) -> Result<Vec<(f64, f64)>, PersistError> {
    let n = r.get_len(16)?;
    let (records, _) = r.take(n * 16)?.as_chunks::<16>();
    let mut out = Vec::with_capacity(n);
    let mut last = (0, 0);
    for record in records {
        let (a, b) = record.split_at(8);
        let pair = (
            f64::from_le_bytes(a.try_into().expect("8 bytes")),
            f64::from_le_bytes(b.try_into().expect("8 bytes")),
        );
        let key = pair_key(&pair);
        if key < last {
            return Err(unsorted());
        }
        last = key;
        out.push(pair);
    }
    Ok(out)
}

fn unsorted() -> PersistError {
    PersistError::Corrupt("partitioner routing tables are not sorted".into())
}

/// The routing tables' order: lexicographic by [`order_key`], equal pairs in
/// input order.
fn pair_key(&(a, b): &(f64, f64)) -> (u64, u64) {
    (order_key(a), order_key(b))
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

    #[test]
    fn routing_tables_keep_the_comparator_order_and_its_tie_rule() {
        // The stable sort over `partial_cmp` the tables used before they
        // were keyed; equal pairs keep their input order.
        let bits = |pairs: &[(f64, f64)]| {
            pairs
                .iter()
                .map(|&(a, b)| (a.to_bits(), b.to_bits()))
                .collect::<Vec<_>>()
        };
        let sorted = |mut pairs: Vec<(f64, f64)>| {
            pairs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            bits(&pairs)
        };
        // One worker and two build the same tables and slices, bit for bit.
        let partition = |pts: &[Point]| {
            let (one, one_slices) = Partitioner::partition(pts, 3, CurveKind::Hilbert, 1);
            let (two, two_slices) = Partitioner::partition(pts, 3, CurveKind::Hilbert, 2);
            assert_eq!(bits(&one.by_x), bits(&two.by_x), "by_x on 1 and 2 workers");
            assert_eq!(bits(&one.by_y), bits(&two.by_y), "by_y on 1 and 2 workers");
            assert_eq!(one.shard_key_lo, two.shard_key_lo);
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
            assert_eq!(
                slice_bits(&one_slices),
                slice_bits(&two_slices),
                "slices on 1 and 2 workers"
            );
            two
        };
        for seed in [1, 7, 42] {
            let pts = tie_heavy_points(3_000, seed);
            let p = partition(&pts);
            let xy = sorted(pts.iter().map(|p| (p.x, p.y)).collect());
            let yx = sorted(pts.iter().map(|p| (p.y, p.x)).collect());
            assert_eq!(bits(&p.by_x), xy, "by_x, seed {seed}");
            assert_eq!(bits(&p.by_y), yx, "by_y, seed {seed}");
        }

        // NaNs of two payloads under both signs: `order_key` gives them all
        // one key, so in a run of equal keys only the input order fixes the
        // table bytes.  `partial_cmp` cannot order NaN; the reference is the
        // stable sort by key the tables used before they were read off the
        // rank space's axis orders.
        let keyed = |mut pairs: Vec<(f64, f64)>| {
            pairs.sort_by_key(pair_key);
            bits(&pairs)
        };
        let nans = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001),
            f64::from_bits(0xfff0_0000_0000_0001),
        ];
        for seed in [1, 7, 42] {
            let pts: Vec<Point> = tie_heavy_points(3_000, seed)
                .into_iter()
                .enumerate()
                .map(|(i, p)| match i % 7 {
                    0 => Point::with_id(nans[i / 7 % 4], p.y, p.id),
                    1 => Point::with_id(p.x, nans[i / 7 % 4], p.id),
                    _ => p,
                })
                .collect();
            // The run of `(NaN, ±0.0)` pairs holds every NaN and both zeros.
            let run: Vec<(u64, u64)> = pts
                .iter()
                .filter(|p| p.x.is_nan() && p.y == 0.0)
                .map(|p| (p.x.to_bits(), p.y.to_bits()))
                .collect();
            for nan in nans {
                assert!(run.iter().any(|&(x, _)| x == nan.to_bits()), "seed {seed}");
            }
            for zero in [0.0f64, -0.0] {
                assert!(run.iter().any(|&(_, y)| y == zero.to_bits()), "seed {seed}");
            }
            let p = partition(&pts);
            let xy = keyed(pts.iter().map(|p| (p.x, p.y)).collect());
            let yx = keyed(pts.iter().map(|p| (p.y, p.x)).collect());
            assert_eq!(bits(&p.by_x), xy, "by_x with NaNs, seed {seed}");
            assert_eq!(bits(&p.by_y), yx, "by_y with NaNs, seed {seed}");
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
        let rs = RankSpace::new(&data);
        let keys = rs.curve_values(CurveKind::Hilbert);
        let (_, slices) = Partitioner::partition(&data, 3, CurveKind::Hilbert, 2);
        let mut last = 0u64;
        for s in &slices {
            for pt in &s.points {
                let idx = data.iter().position(|d| d.id == pt.id).unwrap();
                assert!(keys[idx] >= last, "curve order broken across shards");
                last = keys[idx];
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
