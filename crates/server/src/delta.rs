//! The write-side **delta overlay**: sequenced inserts and deletes buffered
//! between compactions, merged into every read.
//!
//! The overlay stores two coupled representations of the same ops:
//!
//! * a **log** of [`SequencedOp`]s in application order — what a compaction
//!   pass replays into a copy of the base (or folds into the base's points
//!   for a full rebuild), and what carries leftover ops into the next
//!   epoch, and
//! * a **net per-key state** — what queries merge with the base index: live
//!   inserted copies (unioned into results) and masked base keys (filtered
//!   out of base results).
//!
//! Keys identify a point exactly the way [`common::SpatialIndex::delete`]
//! matches one: by bit-exact location plus id.  The net state is one set of
//! struct-of-arrays **lanes** sorted by key: [`DeltaState::apply`] edits
//! them in place, the two by-key reads (`masks`, `entries_at`)
//! binary-search them behind a small location filter that answers "no
//! entry here" without a search, and every union (window, range, kNN, join,
//! `for_each_point`) walks them.  Key order is numeric `x` order (see
//! [`geom::order_key`]), so a query binary-searches the `x` lane for the
//! slab that can match and runs the scan kernel over that slab alone.
//!
//! One accounting rule: a visit returns the number of overlay entries it
//! actually examined (the slab handed to the kernel, or the entries at a
//! location) and the caller charges exactly that to its `QueryContext`.

use common::CopyVisit;
use geom::{order_key, Point, Rect};
use std::collections::HashMap;
use std::ops::Range;
use storage::kernels;

/// Exact identity of a point: the [`order_key`] of each coordinate plus id.
///
/// `-0.0` and `+0.0` share a key, so for non-NaN coordinates the key
/// relation matches [`geom::Point::same_location`] (float equality) exactly,
/// and `u64` order is numeric order, which lets the lanes, sorted by key,
/// be binary-searched by `x`.  Keys are only ever compared and hashed,
/// never decoded back into coordinates.
pub(crate) type Key = (u64, u64, u64);

/// The delta key of a point.
#[inline]
pub(crate) fn key_of(p: &Point) -> Key {
    (order_key(p.x), order_key(p.y), p.id)
}

/// One write operation accepted by the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WriteOp {
    /// Insert the point (appended after all existing points, `Vec` style).
    Insert(Point),
    /// Delete every live copy of the point, matched by exact location and
    /// id — the same relation [`common::SpatialIndex::delete`] uses.
    Delete(Point),
}

/// A write operation tagged with the global sequence number under which the
/// server applied it.  Sequence numbers are dense and start at 1; a query
/// that observed sequence `s` sees exactly the effects of ops `1..=s`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequencedOp {
    /// The op's position in the server's total write order.
    pub seq: u64,
    /// The operation itself.
    pub op: WriteOp,
}

/// Net effect of the delta ops on one key, beside the key's coordinates in
/// the lanes.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    /// Live inserted copies of the key.
    copies: u32,
    /// Sequence number of the earliest still-live insert; orders duplicate
    /// location matches the way `Vec` append order would.
    first_seq: u64,
    /// Base copies of the key that have been deleted (0 = none; >1 only for
    /// identical points folded into the base repeatedly).  Only ever set for
    /// keys the epoch's base actually contains, so masked counts stay exact.
    base_masked: u32,
}

/// Bits in the [`LocationFilter`] — a constant, not a knob: 2 KiB keep the
/// false-positive rate near 6 % at the default compaction trigger (1 024
/// ops; a window pays one binary search per false positive among its base
/// results) and under 20 % with compaction three passes behind.  A miss
/// costs one multiply and one load.
const FILTER_BITS: usize = 16_384;

/// A one-hash Bloom filter over the *locations* (not ids) that have ever had
/// an entry in this epoch's overlay.  `masks` and `entries_at` ask it
/// before searching the lanes; base results almost never sit on a written
/// location, so almost every probe ends here.  Bits are only ever set: an
/// entry's `base_masked` never reverts within an epoch and every epoch
/// starts from a fresh `DeltaState`, so there is nothing to clear — false
/// positives fall through to the search, false negatives cannot occur.
#[derive(Debug, Clone)]
struct LocationFilter([u64; FILTER_BITS / 64]);

impl Default for LocationFilter {
    fn default() -> Self {
        Self([0; FILTER_BITS / 64])
    }
}

impl LocationFilter {
    /// Word index and bit of a location's slot.
    #[inline]
    fn slot(xb: u64, yb: u64) -> (usize, u64) {
        let h = (xb ^ yb.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> (64 - FILTER_BITS.trailing_zeros());
        ((h / 64) as usize, 1 << (h % 64))
    }

    #[inline]
    fn insert(&mut self, xb: u64, yb: u64) {
        let (word, bit) = Self::slot(xb, yb);
        self.0[word] |= bit;
    }

    #[inline]
    fn may_contain(&self, xb: u64, yb: u64) -> bool {
        let (word, bit) = Self::slot(xb, yb);
        self.0[word] & bit != 0
    }
}

/// An immutable-once-shared snapshot of the buffered write ops of one epoch.
///
/// The server keeps the current `DeltaState` behind `RwLock<Arc<..>>`:
/// readers clone the `Arc` (so their view is frozen) and the single writer
/// mutates through [`std::sync::Arc::make_mut`], which copies only when a
/// reader still holds the previous state.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaState {
    /// Last applied sequence number (0 = none since the epoch's base).
    seq: u64,
    /// Raw ops in application order, for compaction replay and epoch
    /// hand-over.
    log: Vec<SequencedOp>,
    /// Every location that has had an entry, consulted before a search.
    filter: LocationFilter,
    /// The net per-key state: `lane_keys` in key order — numeric `x` order
    /// first — with the coordinate and entry lanes parallel to it (a key's
    /// id is its last component).  The coordinate lanes hold the *raw*
    /// point values of the op that created the entry (keys fold `-0.0`
    /// onto `+0.0`; visited points must reproduce those bits exactly).
    lane_keys: Vec<Key>,
    lane_xs: Vec<f64>,
    lane_ys: Vec<f64>,
    lane_entries: Vec<Entry>,
    /// Sum of `base_masked` over all keys: base copies masked by deletes.
    masked_base: usize,
    /// Total live inserted copies across all keys.
    live_inserts: usize,
}

impl DeltaState {
    /// An empty overlay that continues the sequence after `seq` (used when a
    /// fresh epoch takes over mid-stream).
    pub(crate) fn resume_at(seq: u64) -> Self {
        Self {
            seq,
            ..Self::default()
        }
    }

    /// Last applied sequence number.
    pub(crate) fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of buffered ops (the compaction trigger measure).
    pub(crate) fn op_count(&self) -> usize {
        self.log.len()
    }

    /// Whether no ops are buffered.
    pub(crate) fn is_empty(&self) -> bool {
        self.log.is_empty()
    }

    /// The buffered ops in application order.
    pub(crate) fn log(&self) -> &[SequencedOp] {
        &self.log
    }

    /// Total number of base copies masked by deletes (a key the base holds
    /// `c` times contributes `c` once deleted, so `len` and the cap on a
    /// kNN's widening stay exact even for duplicate identical points).
    pub(crate) fn masked_base(&self) -> usize {
        self.masked_base
    }

    /// Number of live inserted copies.
    pub(crate) fn live_inserts(&self) -> usize {
        self.live_inserts
    }

    /// Approximate memory footprint of the overlay.
    pub(crate) fn size_bytes(&self) -> usize {
        self.log.len() * std::mem::size_of::<SequencedOp>()
            + self.lane_keys.len()
                * (std::mem::size_of::<Key>()
                    + 2 * std::mem::size_of::<f64>()
                    + std::mem::size_of::<Entry>())
    }

    /// Opens lane slot `i` for `key`'s `entry`, at `p`'s raw coordinates.
    fn open_lane(&mut self, i: usize, key: Key, p: &Point, entry: Entry) {
        self.lane_keys.insert(i, key);
        self.lane_xs.insert(i, p.x);
        self.lane_ys.insert(i, p.y);
        self.lane_entries.insert(i, entry);
    }

    /// Applies one op under sequence number `op.seq`.  `base_copies_of`
    /// reports how many copies of a point (same location and id) the
    /// epoch's base index holds (>1 only when identical points were
    /// inserted repeatedly and then folded by compaction); only a delete
    /// whose key masks no base copy yet asks it.  Returns whether a delete
    /// removed anything (`true` for every insert).
    pub(crate) fn apply(
        &mut self,
        op: SequencedOp,
        base_copies_of: &dyn Fn(&Point) -> u32,
    ) -> bool {
        debug_assert!(op.seq > self.seq, "ops must arrive in sequence order");
        self.seq = op.seq;
        self.log.push(op);
        match op.op {
            WriteOp::Insert(p) => {
                let key = key_of(&p);
                self.filter.insert(key.0, key.1);
                let i = self.lane_keys.binary_search(&key).unwrap_or_else(|i| {
                    self.open_lane(i, key, &p, Entry::default());
                    i
                });
                let e = &mut self.lane_entries[i];
                if e.copies == 0 {
                    e.first_seq = op.seq;
                }
                e.copies += 1;
                self.live_inserts += 1;
                true
            }
            WriteOp::Delete(p) => {
                let key = key_of(&p);
                let slot = self.lane_keys.binary_search(&key);
                let e = slot.map_or(Entry::default(), |i| self.lane_entries[i]);
                let base_masked = match e.base_masked {
                    0 => base_copies_of(&p),
                    masked => masked,
                };
                self.live_inserts -= e.copies as usize;
                self.masked_base += (base_masked - e.base_masked) as usize;
                let entry = Entry {
                    copies: 0,
                    base_masked,
                    ..e
                };
                match slot {
                    // The key masks no base copy and has no live copy
                    // left: drop the entry so queries don't scan a dead
                    // key until compaction (the log still records the op —
                    // sequence numbers stay dense and replays agree).
                    Ok(i) if base_masked == 0 => {
                        self.lane_keys.remove(i);
                        self.lane_xs.remove(i);
                        self.lane_ys.remove(i);
                        self.lane_entries.remove(i);
                    }
                    Ok(i) => self.lane_entries[i] = entry,
                    Err(i) if base_masked > 0 => self.open_lane(i, key, &p, entry),
                    Err(_) => {}
                }
                if base_masked > 0 {
                    self.filter.insert(key.0, key.1);
                }
                e.copies > 0 || base_masked > e.base_masked
            }
        }
    }

    /// Whether the base copies of `p`'s key have been deleted (base query
    /// results with this key must be filtered out).
    #[inline]
    pub(crate) fn masks(&self, p: &Point) -> bool {
        let key = key_of(p);
        self.filter.may_contain(key.0, key.1)
            && self
                .lane_keys
                .binary_search(&key)
                .is_ok_and(|i| self.lane_entries[i].base_masked > 0)
    }

    /// The lane entries at exactly the query's location — the delta side of
    /// a point query, whose length the caller charges as candidates.
    pub(crate) fn entries_at(&self, q: &Point) -> Range<usize> {
        let (xb, yb) = (order_key(q.x), order_key(q.y));
        if !self.filter.may_contain(xb, yb) {
            return 0..0;
        }
        let start = self.lane_keys.partition_point(|k| (k.0, k.1) < (xb, yb));
        let end = start + self.lane_keys[start..].partition_point(|k| (k.0, k.1) == (xb, yb));
        start..end
    }

    /// Visits every live copy among `entries` (from [`entries_at`]),
    /// earliest insert first, until `visit` breaks.
    ///
    /// [`entries_at`]: Self::entries_at
    pub(crate) fn visit_copies_at(&self, entries: Range<usize>, visit: &mut CopyVisit) {
        let mut live: Vec<usize> = entries
            .filter(|&i| self.lane_entries[i].copies > 0)
            .collect();
        live.sort_unstable_by_key(|&i| self.lane_entries[i].first_seq);
        let _ = live.into_iter().try_for_each(|i| {
            let p = self.lane_point(i);
            (0..self.lane_entries[i].copies).try_for_each(|_| visit(&p))
        });
    }

    /// The point of lane entry `i`.
    #[inline]
    fn lane_point(&self, i: usize) -> Point {
        Point::with_id(self.lane_xs[i], self.lane_ys[i], self.lane_keys[i].2)
    }

    /// Visits lane entry `i` once per live copy.
    #[inline]
    fn visit_copies(&self, i: usize, visit: &mut dyn FnMut(&Point)) {
        let copies = self.lane_entries[i].copies;
        if copies > 0 {
            let p = self.lane_point(i);
            for _ in 0..copies {
                visit(&p);
            }
        }
    }

    /// The part of `range` whose `x` can satisfy the radius kernel's test:
    /// the entries with `dx * dx <= r_sq` for `dx = x - cx`, the kernel's own
    /// expression, so rounding can never cut off a point the kernel would
    /// accept (`dx * dx + dy * dy >= dx * dx` in floating point too).  `dx`
    /// is monotone in `x`, so the entries form one run of the sorted lane.
    fn slab_within(&self, range: Range<usize>, cx: f64, r_sq: f64) -> Range<usize> {
        let xs = &self.lane_xs[range.clone()];
        let near = |x: f64| {
            let dx = x - cx;
            dx * dx <= r_sq
        };
        let start = xs.partition_point(|&x| x < cx && !near(x));
        let end = start + xs[start..].partition_point(|&x| x <= cx || near(x));
        range.start + start..range.start + end
    }

    /// Visits every live inserted copy inside `window` (a key with `c`
    /// copies is visited `c` times), in key order: the chunked rect kernel
    /// over the slab of the lanes whose `x` lies in the window's `x` range,
    /// found by binary search.  Returns the number of entries examined (the
    /// slab's length).
    pub(crate) fn visit_inserts_in(&self, window: &Rect, visit: &mut dyn FnMut(&Point)) -> usize {
        let start = self.lane_xs.partition_point(|&x| x < window.min_x);
        let end = start + self.lane_xs[start..].partition_point(|&x| x <= window.max_x);
        for chunk in (start..end).step_by(kernels::CHUNK) {
            let stop = (chunk + kernels::CHUNK).min(end);
            let mut mask = kernels::rect_mask(
                &self.lane_xs[chunk..stop],
                &self.lane_ys[chunk..stop],
                window,
            );
            while mask != 0 {
                self.visit_copies(chunk + mask.trailing_zeros() as usize, visit);
                mask &= mask - 1;
            }
        }
        end - start
    }

    /// Visits every live inserted copy, in key order (the join union and
    /// `for_each_point`).  Returns the number of entries examined.
    pub(crate) fn visit_inserts(&self, visit: &mut dyn FnMut(&Point)) -> usize {
        for i in 0..self.lane_keys.len() {
            self.visit_copies(i, visit);
        }
        self.lane_keys.len()
    }

    /// Visits every live inserted copy within squared distance `r_sq` of
    /// `center`, in key order, where the bound may shrink as the visit goes:
    /// `visit` returns the bound to use from then on (never larger than the
    /// last; the kNN union tightens it, the distance-range union keeps it).
    /// The chunked radius kernel runs over the `slab_within` of the current
    /// bound — the whole lane while the bound is infinite — and the slab is
    /// narrowed after every chunk that tightened it.  A copy a tighter bound
    /// would have excluded may still be visited (its chunk's mask was taken
    /// under the older bound).  Returns the number of entries examined
    /// (handed to the kernel).
    pub(crate) fn visit_inserts_near(
        &self,
        center: &Point,
        mut r_sq: f64,
        visit: &mut dyn FnMut(&Point) -> f64,
    ) -> usize {
        let mut slab = self.slab_within(0..self.lane_xs.len(), center.x, r_sq);
        let mut examined = 0;
        while !slab.is_empty() {
            let chunk = slab.start..(slab.start + kernels::CHUNK).min(slab.end);
            examined += chunk.len();
            let mut mask = kernels::within_mask(
                &self.lane_xs[chunk.clone()],
                &self.lane_ys[chunk.clone()],
                center.x,
                center.y,
                r_sq,
            );
            let mut bound = r_sq;
            while mask != 0 {
                let i = chunk.start + mask.trailing_zeros() as usize;
                self.visit_copies(i, &mut |p| bound = visit(p));
                mask &= mask - 1;
            }
            slab.start = chunk.end;
            if bound < r_sq {
                r_sq = bound;
                slab = self.slab_within(slab, center.x, r_sq);
            }
        }
        examined
    }
}

/// Folds a log of ops into a point vector with exact `Vec`
/// semantics — inserts append, a delete removes every copy of its key
/// present *at that seq* and nothing inserted later — in one pass: the
/// inserts are appended with their seq remembered, the last delete seq of
/// each key is recorded, and a single `retain` drops every base point whose
/// key was deleted and every appended insert whose key was deleted at a
/// later seq.  O(points + ops); the survivors and their order are those of
/// replaying the log op by op.  This is the reference the delta merge must
/// agree with, used by a full compaction pass to fold an epoch's delta into
/// the base's points before rebuilding.
pub(crate) fn apply_log_to_points(points: &mut Vec<Point>, log: &[SequencedOp], up_to_seq: u64) {
    let base_len = points.len();
    let mut insert_seqs: Vec<u64> = Vec::new();
    let mut last_delete: HashMap<Key, u64> = HashMap::new();
    for op in log.iter().take_while(|o| o.seq <= up_to_seq) {
        match op.op {
            WriteOp::Insert(p) => {
                points.push(p);
                insert_seqs.push(op.seq);
            }
            WriteOp::Delete(p) => {
                last_delete.insert(key_of(&p), op.seq);
            }
        }
    }
    if last_delete.is_empty() {
        return;
    }
    let mut pos = 0;
    points.retain(|x| {
        let i = pos;
        pos += 1;
        match last_delete.get(&key_of(x)) {
            None => true,
            Some(&deleted_at) => i >= base_len && insert_seqs[i - base_len] > deleted_at,
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::ops::ControlFlow;

    /// The earliest-inserted live copy at `q`'s location and the entries
    /// examined: the delta side of a point query.
    fn point_lookup(d: &DeltaState, q: &Point) -> (Option<Point>, usize) {
        let entries = d.entries_at(q);
        let mut hit = None;
        d.visit_copies_at(entries.clone(), &mut |p| {
            hit = Some(*p);
            ControlFlow::Break(())
        });
        (hit, entries.len())
    }

    fn p(x: f64, y: f64, id: u64) -> Point {
        Point::with_id(x, y, id)
    }

    fn apply(d: &mut DeltaState, seq: u64, op: WriteOp, base: &[Point]) -> bool {
        d.apply(SequencedOp { seq, op }, &|q| {
            base.iter().filter(|b| key_of(b) == key_of(q)).count() as u32
        })
    }

    /// The net per-key state a log leaves — `(point, live copies, masked
    /// base copies)` by key — replayed op by op into a map: the reference
    /// the lanes are checked against, built without reading them.
    fn net_state(
        log: &[SequencedOp],
        base_copies_of: &dyn Fn(&Point) -> u32,
    ) -> BTreeMap<Key, (Point, u32, u32)> {
        let mut net = BTreeMap::new();
        for op in log {
            match op.op {
                WriteOp::Insert(q) => net.entry(key_of(&q)).or_insert((q, 0, 0)).1 += 1,
                WriteOp::Delete(q) => {
                    let e = net.entry(key_of(&q)).or_insert((q, 0, 0));
                    e.1 = 0;
                    if e.2 == 0 {
                        e.2 = base_copies_of(&q);
                    }
                    if e.2 == 0 {
                        net.remove(&key_of(&q));
                    }
                }
            }
        }
        net
    }

    #[test]
    fn insert_then_delete_then_reinsert_tracks_net_state() {
        let base = vec![p(0.1, 0.1, 1)];
        let mut d = DeltaState::default();
        assert!(apply(&mut d, 1, WriteOp::Insert(p(0.5, 0.5, 7)), &base));
        assert_eq!(d.live_inserts(), 1);
        assert!(apply(&mut d, 2, WriteOp::Delete(p(0.5, 0.5, 7)), &base));
        assert_eq!(d.live_inserts(), 0);
        assert_eq!(d.masked_base(), 0, "key was never in base");
        assert!(apply(&mut d, 3, WriteOp::Insert(p(0.5, 0.5, 7)), &base));
        let (hit, _) = point_lookup(&d, &p(0.5, 0.5, 0));
        assert_eq!(hit.map(|q| q.id), Some(7));
        assert_eq!(d.seq(), 3);
        assert_eq!(d.op_count(), 3);
    }

    #[test]
    fn deleting_a_base_point_masks_exactly_one_copy() {
        let base = vec![p(0.1, 0.1, 1), p(0.2, 0.2, 2)];
        let mut d = DeltaState::default();
        assert!(apply(&mut d, 1, WriteOp::Delete(p(0.1, 0.1, 1)), &base));
        assert!(d.masks(&p(0.1, 0.1, 1)));
        assert!(!d.masks(&p(0.2, 0.2, 2)));
        assert_eq!(d.masked_base(), 1);
        // Deleting again removes nothing.
        assert!(!apply(&mut d, 2, WriteOp::Delete(p(0.1, 0.1, 1)), &base));
        assert_eq!(d.masked_base(), 1);
        // Deleting something that never existed removes nothing.
        assert!(!apply(&mut d, 3, WriteOp::Delete(p(0.9, 0.9, 9)), &base));
    }

    #[test]
    fn point_lookup_prefers_earliest_live_insert() {
        let mut d = DeltaState::default();
        assert!(apply(&mut d, 1, WriteOp::Insert(p(0.5, 0.5, 30)), &[]));
        assert!(apply(&mut d, 2, WriteOp::Insert(p(0.5, 0.5, 10)), &[]));
        // Vec order: id 30 was appended first, so it is the first match.
        let (hit, examined) = point_lookup(&d, &p(0.5, 0.5, 0));
        assert_eq!(hit.map(|q| q.id), Some(30));
        assert_eq!(examined, 2);
        // Delete the earliest; the later insert becomes the first match.
        assert!(apply(&mut d, 3, WriteOp::Delete(p(0.5, 0.5, 30)), &[]));
        let (hit, _) = point_lookup(&d, &p(0.5, 0.5, 0));
        assert_eq!(hit.map(|q| q.id), Some(10));
    }

    #[test]
    fn duplicate_inserts_visit_once_per_copy() {
        let mut d = DeltaState::default();
        for seq in 1..=3 {
            apply(&mut d, seq, WriteOp::Insert(p(0.3, 0.3, 5)), &[]);
        }
        let mut seen = 0;
        d.visit_inserts_in(&Rect::unit(), &mut |q| {
            assert_eq!(q.id, 5);
            seen += 1;
        });
        assert_eq!(seen, 3);
        let mut all = 0;
        d.visit_inserts(&mut |_| all += 1);
        assert_eq!(all, 3);
        assert_eq!(d.live_inserts(), 3);
    }

    #[test]
    fn apply_log_to_points_matches_vec_semantics() {
        let mut points = vec![p(0.1, 0.1, 1), p(0.2, 0.2, 2)];
        let log = vec![
            SequencedOp {
                seq: 1,
                op: WriteOp::Insert(p(0.3, 0.3, 3)),
            },
            SequencedOp {
                seq: 2,
                op: WriteOp::Delete(p(0.1, 0.1, 1)),
            },
            SequencedOp {
                seq: 3,
                op: WriteOp::Insert(p(0.4, 0.4, 4)),
            },
        ];
        apply_log_to_points(&mut points, &log, 2);
        assert_eq!(
            points.iter().map(|q| q.id).collect::<Vec<_>>(),
            vec![2, 3],
            "ops beyond the cut-off must not be applied"
        );
        apply_log_to_points(&mut points, &log[2..], u64::MAX);
        assert_eq!(
            points.iter().map(|q| q.id).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn deleting_a_duplicated_base_key_masks_every_copy() {
        // Two identical points folded into the base (same location AND id):
        // one delete removes both, and the masked count says so.
        let base = vec![p(0.4, 0.4, 8), p(0.4, 0.4, 8)];
        let mut d = DeltaState::default();
        assert!(apply(&mut d, 1, WriteOp::Delete(p(0.4, 0.4, 8)), &base));
        assert!(d.masks(&p(0.4, 0.4, 8)));
        assert_eq!(d.masked_base(), 2);
    }

    #[test]
    fn noop_deletes_leave_no_dead_entries() {
        let mut d = DeltaState::default();
        assert!(!apply(&mut d, 1, WriteOp::Delete(p(0.9, 0.9, 9)), &[]));
        // The op is logged (sequence numbers stay dense) but no entry
        // lingers for queries to scan.
        assert_eq!(d.op_count(), 1);
        assert_eq!(d.seq(), 1);
        let examined = d.visit_inserts(&mut |_| {});
        assert_eq!(examined, 0, "a no-op delete left a dead entry behind");
        // Killing a delta-only copy also leaves nothing behind.
        assert!(apply(&mut d, 2, WriteOp::Insert(p(0.8, 0.8, 8)), &[]));
        assert!(apply(&mut d, 3, WriteOp::Delete(p(0.8, 0.8, 8)), &[]));
        assert_eq!(d.visit_inserts(&mut |_| {}), 0);
    }

    #[test]
    fn lane_mirror_visits_match_a_naive_entry_scan() {
        // More entries than one kernel chunk, with interleaved deletes so
        // the lanes see inserts, copy-count updates and removals; the
        // kernel-driven visits must agree with a naive filter over the log's
        // net state, in key order.
        let mut d = DeltaState::default();
        let mut seq = 0;
        for i in 0..(storage::kernels::CHUNK as u64 * 2 + 9) {
            seq += 1;
            let x = (i as f64 * 0.37).fract();
            let y = (i as f64 * 0.71).fract();
            apply(&mut d, seq, WriteOp::Insert(p(x, y, i)), &[]);
            if i % 3 == 0 {
                seq += 1;
                apply(&mut d, seq, WriteOp::Delete(p(x, y, i)), &[]);
            }
            if i % 7 == 0 {
                seq += 1;
                apply(&mut d, seq, WriteOp::Insert(p(x, y, i)), &[]);
            }
        }
        let mut naive: Vec<(Key, Point, u32)> = Vec::new();
        for (k, (pt, copies, _)) in net_state(d.log(), &|_| 0) {
            naive.push((k, pt, copies));
        }

        let w = Rect::new(0.2, 0.1, 0.8, 0.9);
        let mut got = Vec::new();
        assert_eq!(
            d.visit_inserts_in(&w, &mut |q| got.push(q.id)),
            naive
                .iter()
                .filter(|(_, pt, _)| pt.x >= w.min_x && pt.x <= w.max_x)
                .count(),
            "examined = the x-slab, dead entries included"
        );
        let expect: Vec<u64> = naive
            .iter()
            .filter(|(_, pt, c)| *c > 0 && w.contains(pt))
            .flat_map(|(_, pt, c)| std::iter::repeat_n(pt.id, *c as usize))
            .collect();
        assert_eq!(got, expect);

        let center = p(0.5, 0.5, 0);
        let r_sq = 0.04;
        let mut got = Vec::new();
        assert_eq!(
            d.visit_inserts_near(&center, r_sq, &mut |q| {
                got.push(q.id);
                r_sq
            }),
            naive
                .iter()
                .filter(|(_, pt, _)| (pt.x - center.x) * (pt.x - center.x) <= r_sq)
                .count(),
            "examined = the x-slab, dead entries included"
        );
        let expect: Vec<u64> = naive
            .iter()
            .filter(|(_, pt, c)| *c > 0 && pt.dist_sq(&center) <= r_sq)
            .flat_map(|(_, pt, c)| std::iter::repeat_n(pt.id, *c as usize))
            .collect();
        assert_eq!(got, expect);
    }

    /// splitmix64: the seeded stream behind the randomized cases below.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The fold's specification: the log replayed op by op on the `Vec`.
    fn replay_per_op(points: &mut Vec<Point>, log: &[SequencedOp], up_to_seq: u64) {
        for op in log.iter().take_while(|o| o.seq <= up_to_seq) {
            match op.op {
                WriteOp::Insert(p) => points.push(p),
                WriteOp::Delete(p) => points.retain(|x| !(x.same_location(&p) && x.id == p.id)),
            }
        }
    }

    fn bits(points: &[Point]) -> Vec<(u64, u64, u64)> {
        points
            .iter()
            .map(|q| (q.x.to_bits(), q.y.to_bits(), q.id))
            .collect()
    }

    #[test]
    fn one_pass_fold_equals_a_per_op_replay() {
        // A small pool of keys so the random tail keeps hitting the same
        // ones: duplicates, re-inserts, deletes of keys that are absent, of
        // keys only the base holds, of keys inserted earlier in the log.
        // Two pool members are the two spellings of one zero-x location.
        let mut pool: Vec<Point> = (0..10u64)
            .map(|i| p(0.1 * i as f64, 0.05 * i as f64, i % 4))
            .collect();
        pool.push(p(0.0, 0.5, 9));
        pool.push(p(-0.0, 0.5, 9));
        for seed in 0..40u64 {
            let mut rng = seed;
            let base: Vec<Point> = (0..30)
                .map(|_| pool[(next(&mut rng) % pool.len() as u64) as usize])
                .collect();
            let first_seq = 1 + next(&mut rng) % 1_000;
            // Every log starts with the named cases: insert, delete and
            // re-insert of one key, a duplicate copy, an absent key's delete.
            let fresh = p(0.77, 0.33, 70);
            let mut ops = vec![
                WriteOp::Insert(fresh),
                WriteOp::Delete(fresh),
                WriteOp::Insert(fresh),
                WriteOp::Insert(fresh),
                WriteOp::Delete(p(0.99, 0.99, 99)),
            ];
            for _ in 0..40 {
                let q = pool[(next(&mut rng) % pool.len() as u64) as usize];
                ops.push(if next(&mut rng).is_multiple_of(2) {
                    WriteOp::Insert(q)
                } else {
                    WriteOp::Delete(q)
                });
            }
            let log: Vec<SequencedOp> = ops
                .into_iter()
                .zip(first_seq..)
                .map(|(op, seq)| SequencedOp { seq, op })
                .collect();
            // Every cut, including the ones between an insert and its
            // delete, before the first op and past the last.
            let last_seq = first_seq + log.len() as u64;
            for cut in (first_seq - 1..=last_seq).chain([u64::MAX]) {
                let mut folded = base.clone();
                apply_log_to_points(&mut folded, &log, cut);
                let mut replayed = base.clone();
                replay_per_op(&mut replayed, &log, cut);
                assert_eq!(bits(&folded), bits(&replayed), "seed {seed}, cut {cut}");
            }
        }
    }

    #[test]
    fn folding_many_deletes_costs_about_what_folding_one_does() {
        // One `retain` per delete made a 2 048-delete fold ~2 000x a
        // one-delete fold; in one pass both walk the points once.  A ratio
        // of two timings taken in this process, no threshold in
        // milliseconds.
        let points: Vec<Point> = (0..200_000u64)
            .map(|i| p((i as f64 * 0.618).fract(), (i as f64 * 0.414).fract(), i))
            .collect();
        let deletes = |n: usize| -> Vec<SequencedOp> {
            (0..n)
                .map(|i| SequencedOp {
                    seq: 1 + i as u64,
                    op: WriteOp::Delete(points[i * 97]),
                })
                .collect()
        };
        let fold_time = |log: &[SequencedOp]| {
            (0..3)
                .map(|_| {
                    let mut folded = points.clone();
                    let t0 = std::time::Instant::now();
                    apply_log_to_points(&mut folded, log, u64::MAX);
                    let elapsed = t0.elapsed();
                    assert_eq!(folded.len(), points.len() - log.len());
                    elapsed
                })
                .min()
                .unwrap()
        };
        let (one, many) = (fold_time(&deletes(1)), fold_time(&deletes(2_048)));
        assert!(
            many < 20 * one,
            "2 048 deletes folded in {many:?}, one delete in {one:?}"
        );
    }

    #[test]
    fn the_location_filter_never_hides_an_entry() {
        // Enough written locations to saturate the filter well past half:
        // `masks` and `point_lookup` must still answer what the net state
        // alone answers, for keys that are present, absent, and spelled
        // with either zero.
        let mut rng = 0xF117E5u64;
        let unit = |rng: &mut u64| (next(rng) >> 11) as f64 / (1u64 << 53) as f64;
        let mut base: Vec<Point> = (0..3_000u64)
            .map(|i| p(unit(&mut rng), unit(&mut rng), i))
            .collect();
        for i in 0..50u64 {
            base.push(p(0.0, 0.01 * i as f64, 10_000 + i));
        }
        let base_copies: HashMap<Key, u32> = base.iter().map(|q| (key_of(q), 1)).collect();
        let base_copies_of = |q: &Point| base_copies.get(&key_of(q)).copied().unwrap_or(0);
        let mut d = DeltaState::default();
        let mut written: Vec<Point> = Vec::new();
        let mut seq = 0;
        let mut write = |d: &mut DeltaState, op: WriteOp| {
            seq += 1;
            d.apply(SequencedOp { seq, op }, &base_copies_of);
        };
        for (i, q) in base.iter().enumerate() {
            if i % 2 == 0 {
                // Zero-x base points are deleted under the other spelling.
                let spelled = if q.x == 0.0 { p(-0.0, q.y, q.id) } else { *q };
                write(&mut d, WriteOp::Delete(spelled));
                written.push(*q);
            }
        }
        for i in 0..12_000u64 {
            let q = p(unit(&mut rng), unit(&mut rng), 100_000 + i);
            write(&mut d, WriteOp::Insert(q));
            if i % 5 == 0 {
                write(&mut d, WriteOp::Delete(q));
            }
            written.push(q);
        }
        write(&mut d, WriteOp::Insert(p(-0.0, 0.123, 7)));
        written.push(p(0.0, 0.123, 7));

        let net = net_state(d.log(), &base_copies_of);
        let (mut absent, mut false_positives) = (0, 0);
        for i in 0..10_000usize {
            let probe = match i % 4 {
                0 => base[(next(&mut rng) % base.len() as u64) as usize],
                1 => written[(next(&mut rng) % written.len() as u64) as usize],
                2 => p(
                    0.0,
                    0.01 * (next(&mut rng) % 60) as f64,
                    10_000 + next(&mut rng) % 60,
                ),
                _ => p(unit(&mut rng), unit(&mut rng), next(&mut rng) % 5_000),
            };
            for probe in [probe, p(-probe.x, probe.y, probe.id)] {
                let key = key_of(&probe);
                let in_map = net.get(&key).is_some_and(|e| e.2 > 0);
                assert_eq!(d.masks(&probe), in_map, "{probe:?}");
                let at_location = net
                    .range((key.0, key.1, u64::MIN)..=(key.0, key.1, u64::MAX))
                    .count();
                assert_eq!(point_lookup(&d, &probe).1, at_location, "{probe:?}");
                if at_location == 0 {
                    absent += 1;
                    false_positives += usize::from(d.filter.may_contain(key.0, key.1));
                }
            }
        }
        assert!(
            2 * false_positives > absent,
            "the filter was not saturated: {false_positives} of {absent}"
        );
        assert_eq!(d.masked_base(), 1_525);
    }

    #[test]
    fn negative_zero_folds_onto_positive_zero() {
        let mut d = DeltaState::default();
        apply(&mut d, 1, WriteOp::Insert(p(0.0, 0.5, 1)), &[]);
        let (hit, _) = point_lookup(&d, &p(-0.0, 0.5, 0));
        assert_eq!(hit.map(|q| q.id), Some(1));
    }

    #[test]
    fn resume_continues_the_sequence() {
        let mut d = DeltaState::resume_at(41);
        assert_eq!(d.seq(), 41);
        assert!(d.is_empty());
        apply(&mut d, 42, WriteOp::Insert(p(0.6, 0.6, 6)), &[]);
        assert_eq!(d.seq(), 42);
        assert_eq!(d.log().len(), 1);
        assert!(d.size_bytes() > 0);
    }
}
