//! The block arena.

use crate::block::{Block, BlockId};
use geom::Point;
use std::collections::BTreeSet;
use std::ops::Range;

/// An arena of fixed-capacity blocks.
///
/// Blocks are addressed by [`BlockId`].  A block ID handed out during
/// bulk-loading stays valid across insertions and deletions (deleted points
/// simply leave free slots, as in §5 of the paper).  Overflow blocks emptied
/// by [`BlockStore::drain_chain`] are unlinked and kept: the next
/// [`BlockStore::insert_overflow_after`] takes the lowest such ID before it
/// allocates, so the arena stops growing under churn.  A kept block is an
/// empty, unlinked overflow block, which is how a loaded snapshot finds them
/// again.
///
/// The store itself does **no** access accounting: query code charges block
/// reads to its `QueryContext` (`common::QueryContext`), which keeps the
/// store free of interior mutability and therefore `Sync`.
#[derive(Debug, Clone)]
pub struct BlockStore {
    blocks: Vec<Block>,
    capacity: usize,
    /// Unlinked, empty overflow blocks waiting for reuse.
    free: BTreeSet<BlockId>,
}

/// Position of a walk over `begin..=end` of the block chain plus the
/// overflow tail of `end`.  Holds no borrow, so the store can mutate the
/// block it has just been handed.
#[derive(Debug, Clone)]
struct ChainCursor {
    next: Option<BlockId>,
    end: BlockId,
    past_end: bool,
    /// Blocks the walk may still yield: a chain never holds more blocks
    /// than the store, so corrupt (cyclic) links end the walk instead of
    /// hanging it.
    budget: usize,
}

impl ChainCursor {
    fn new(begin: BlockId, end: BlockId, budget: usize) -> Self {
        Self {
            next: Some(begin),
            end,
            past_end: false,
            budget,
        }
    }

    fn advance(&mut self, blocks: &[Block]) -> Option<BlockId> {
        let id = self.next?;
        let block = &blocks[id];
        if self.budget == 0 || (self.past_end && !block.is_overflow()) {
            self.next = None;
            return None;
        }
        self.budget -= 1;
        self.past_end |= id == self.end;
        self.next = block.next();
        Some(id)
    }
}

/// Iterator over a stretch of the block chain, see
/// [`BlockStore::chain_range`].
#[derive(Debug, Clone)]
pub struct ChainRange<'a> {
    blocks: &'a [Block],
    cursor: ChainCursor,
}

impl<'a> Iterator for ChainRange<'a> {
    type Item = (BlockId, &'a Block);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let id = self.cursor.advance(self.blocks)?;
        Some((id, &self.blocks[id]))
    }
}

impl BlockStore {
    /// Creates an empty store whose blocks will have capacity `capacity`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "block capacity must be positive");
        Self {
            blocks: Vec::new(),
            capacity,
            free: BTreeSet::new(),
        }
    }

    /// The block capacity `B`.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of blocks allocated so far, kept free ones included.
    #[inline]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Number of overflow blocks kept free for reuse.
    #[inline]
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Whether no blocks have been allocated.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total number of live points across all blocks.
    pub fn total_points(&self) -> usize {
        self.blocks.iter().map(Block::len).sum()
    }

    /// Allocates a new empty block and returns its ID.
    pub fn allocate(&mut self) -> BlockId {
        let id = self.blocks.len();
        self.blocks.push(Block::new(self.capacity));
        id
    }

    /// Shared access to a block.  Query code that models this as an I/O must
    /// charge it to its `QueryContext` (`count_block`); maintenance reads
    /// (MBR recomputation, rebuilds) go uncharged, as in the paper.
    #[inline]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id]
    }

    /// Mutable access to a block.
    #[inline]
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id]
    }

    /// Packs `points`, already sorted in the desired order, into consecutive
    /// blocks of capacity `B`, linking them `prev`/`next` and to the block
    /// preceding the packed range (if any).
    ///
    /// Returns the range of block IDs created.  This implements the packing
    /// step of the paper's Equation 1: the `i`-th point (0-based rank) lands
    /// in local block `i / B`.
    pub fn pack(&mut self, points: &[Point]) -> Range<BlockId> {
        let start = self.blocks.len();
        if points.is_empty() {
            return start..start;
        }
        for chunk in points.chunks(self.capacity) {
            let id = self.allocate();
            for &p in chunk {
                self.blocks[id].push(p);
            }
        }
        let end = self.blocks.len();
        for id in start..end {
            if id > start {
                self.blocks[id].set_prev(Some(id - 1));
            } else if start > 0 {
                // Link the first packed block after the previously packed
                // range so the global chain stays connected.
                self.blocks[id].set_prev(Some(start - 1));
                self.blocks[start - 1].set_next(Some(id));
            }
            if id + 1 < end {
                self.blocks[id].set_next(Some(id + 1));
            }
        }
        start..end
    }

    /// Moves every block of `other` to the end of this store and returns
    /// the id its first block now has.  `other`'s links move with it and its
    /// first block is linked after this store's last, as [`Self::pack`]
    /// links consecutive ranges: ranges packed into separate stores and
    /// appended in order chain exactly as if packed into one.
    pub fn append(&mut self, other: BlockStore) -> BlockId {
        assert_eq!(self.capacity, other.capacity, "block capacities differ");
        let offset = self.blocks.len();
        self.blocks
            .extend(other.blocks.into_iter().map(|mut block| {
                block.set_prev(block.prev().map(|id| id + offset));
                block.set_next(block.next().map(|id| id + offset));
                block
            }));
        if offset > 0 && self.blocks.len() > offset {
            self.blocks[offset].set_prev(Some(offset - 1));
            self.blocks[offset - 1].set_next(Some(offset));
        }
        offset
    }

    /// Splices an overflow block into the chain directly after `after` (the
    /// insertion strategy of §5): the lowest kept free block, or a new one.
    /// Returns its ID.
    pub fn insert_overflow_after(&mut self, after: BlockId) -> BlockId {
        let id = self.free.pop_first().unwrap_or_else(|| self.allocate());
        let old_next = self.blocks[after].next();
        self.blocks[id].set_overflow(true);
        self.blocks[id].set_prev(Some(after));
        self.blocks[id].set_next(old_next);
        self.blocks[after].set_next(Some(id));
        if let Some(n) = old_next {
            self.blocks[n].set_prev(Some(id));
        }
        id
    }

    /// Walks the chain from `begin` through `end` (inclusive) and on through
    /// the overflow blocks chained directly after `end` — the blocks a
    /// predicted range `[begin, end]` stands for, since insertion-created
    /// blocks "do not count towards the error bounds" (§5) and extend their
    /// predecessor.  If `end` is never reached the walk runs to the chain's
    /// tail.  Nothing is allocated and nothing is charged: the caller
    /// decides which of the blocks it opens.
    pub fn chain_range(&self, begin: BlockId, end: BlockId) -> ChainRange<'_> {
        ChainRange {
            blocks: &self.blocks,
            cursor: ChainCursor::new(begin, end, self.blocks.len()),
        }
    }

    /// `id` plus all *overflow* blocks chained immediately after it.
    pub fn overflow_chain(&self, id: BlockId) -> ChainRange<'_> {
        self.chain_range(id, id)
    }

    /// Moves the points of `base` and of every overflow block chained
    /// after it into `out`, in chain order, and leaves `base` empty and
    /// linked to the block that followed its chain.  The overflow blocks
    /// are unlinked and kept for [`Self::insert_overflow_after`].
    pub fn drain_chain(&mut self, base: BlockId, out: &mut Vec<Point>) {
        let chain: Vec<BlockId> = self.overflow_chain(base).map(|(id, _)| id).collect();
        let after = chain.last().and_then(|&id| self.blocks[id].next());
        for &id in &chain {
            let block = &mut self.blocks[id];
            out.extend(block.iter_points());
            block.clear();
        }
        for &id in &chain[1..] {
            self.blocks[id].set_prev(None);
            self.blocks[id].set_next(None);
            self.free.insert(id);
        }
        self.blocks[base].set_next(after);
        if let Some(n) = after {
            self.blocks[n].set_prev(Some(base));
        }
    }

    /// Rebuilds the free list from the blocks themselves: every empty,
    /// unlinked overflow block is free (a linked overflow block always has
    /// a predecessor).
    pub(crate) fn find_free_blocks(&mut self) {
        self.free = self
            .iter()
            .filter(|(_, b)| {
                b.is_overflow() && b.is_empty() && b.prev().is_none() && b.next().is_none()
            })
            .map(|(id, _)| id)
            .collect();
    }

    /// Removes every point whose `(x, y, id)` equals `p`'s
    /// ([`Block::remove_at`]) from the blocks of
    /// [`chain_range(begin, end)`](Self::chain_range), and returns how many
    /// went.
    pub fn remove_in_chain_range(&mut self, begin: BlockId, end: BlockId, p: &Point) -> usize {
        let mut cursor = ChainCursor::new(begin, end, self.blocks.len());
        let mut removed = 0;
        while let Some(id) = cursor.advance(&self.blocks) {
            let block = &mut self.blocks[id];
            if block.mbr().contains(p) {
                removed += block.remove_at(p.x, p.y, p.id);
            }
        }
        removed
    }

    /// Iterates over all blocks (used by rebuild and verification code).
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks.iter().enumerate()
    }

    /// Visits every stored point, block by block in store order — the
    /// enumeration of every index whose points all live in one store.
    pub fn for_each_point(&self, visit: &mut dyn FnMut(&Point)) {
        for block in &self.blocks {
            for p in block.iter_points() {
                visit(&p);
            }
        }
    }

    /// Approximate total size of all blocks in bytes.
    pub fn size_bytes(&self) -> usize {
        self.blocks.iter().map(Block::size_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::with_id(i as f64 / n as f64, i as f64 / n as f64, i as u64))
            .collect()
    }

    fn ids(chain: ChainRange<'_>) -> Vec<BlockId> {
        chain.map(|(id, _)| id).collect()
    }

    #[test]
    fn pack_creates_ceil_n_over_b_blocks() {
        let mut store = BlockStore::new(10);
        let range = store.pack(&pts(25));
        assert_eq!(range, 0..3);
        assert_eq!(store.block(0).len(), 10);
        assert_eq!(store.block(1).len(), 10);
        assert_eq!(store.block(2).len(), 5);
        assert_eq!(store.total_points(), 25);
    }

    #[test]
    fn pack_links_blocks_in_order() {
        let mut store = BlockStore::new(4);
        store.pack(&pts(12));
        assert_eq!(store.block(0).prev(), None);
        assert_eq!(store.block(0).next(), Some(1));
        assert_eq!(store.block(1).prev(), Some(0));
        assert_eq!(store.block(1).next(), Some(2));
        assert_eq!(store.block(2).next(), None);
    }

    #[test]
    fn consecutive_pack_calls_stay_chained() {
        let mut store = BlockStore::new(4);
        let first = store.pack(&pts(8));
        let second = store.pack(&pts(4));
        assert_eq!(first, 0..2);
        assert_eq!(second, 2..3);
        assert_eq!(store.block(1).next(), Some(2));
        assert_eq!(store.block(2).prev(), Some(1));
    }

    #[test]
    fn appended_stores_chain_as_one_packed_store() {
        let (a, b) = (pts(9), pts(6));
        let mut one = BlockStore::new(4);
        one.pack(&a);
        one.pack(&b);
        let mut first = BlockStore::new(4);
        first.pack(&a);
        let mut second = BlockStore::new(4);
        second.pack(&b);
        assert_eq!(first.append(second), 3);
        assert_eq!(first.append(BlockStore::new(4)), 5);
        assert_eq!(first.len(), one.len());
        for ((_, x), (_, y)) in first.iter().zip(one.iter()) {
            assert_eq!((x.prev(), x.next()), (y.prev(), y.next()));
            assert_eq!(x.ids(), y.ids());
        }
    }

    #[test]
    fn pack_empty_returns_empty_range() {
        let mut store = BlockStore::new(4);
        let r = store.pack(&[]);
        assert!(r.is_empty());
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn insert_overflow_after_splices_the_chain() {
        let mut store = BlockStore::new(4);
        store.pack(&pts(8)); // blocks 0 and 1
        let ov = store.insert_overflow_after(0);
        assert_eq!(ov, 2);
        assert!(store.block(ov).is_overflow());
        assert_eq!(store.block(0).next(), Some(ov));
        assert_eq!(store.block(ov).prev(), Some(0));
        assert_eq!(store.block(ov).next(), Some(1));
        assert_eq!(store.block(1).prev(), Some(ov));
    }

    #[test]
    fn overflow_chain_returns_base_plus_overflow_blocks_only() {
        let mut store = BlockStore::new(2);
        store.pack(&pts(4)); // blocks 0 and 1
        let ov1 = store.insert_overflow_after(0);
        let ov2 = store.insert_overflow_after(ov1);
        assert_eq!(ids(store.overflow_chain(0)), vec![0, ov1, ov2]);
        // block 1 is a regular block, so the chain from it stops immediately.
        assert_eq!(ids(store.overflow_chain(1)), vec![1]);
    }

    #[test]
    fn chain_range_covers_begin_to_end_and_the_overflow_tail_of_end() {
        let mut store = BlockStore::new(2);
        store.pack(&pts(8)); // blocks 0..=3
        let ov0 = store.insert_overflow_after(0);
        let ov2a = store.insert_overflow_after(2);
        let ov2b = store.insert_overflow_after(ov2a);
        assert_eq!(ids(store.chain_range(0, 2)), vec![0, ov0, 1, 2, ov2a, ov2b]);
        assert_eq!(ids(store.chain_range(1, 1)), vec![1]);
        assert_eq!(ids(store.chain_range(3, 3)), vec![3]);
        // An unreachable `end` runs to the tail; a cycle ends at the budget.
        assert_eq!(ids(store.chain_range(2, 0)), vec![2, ov2a, ov2b, 3]);
        store.block_mut(3).set_next(Some(0));
        assert_eq!(ids(store.chain_range(1, 99)).len(), store.len());
    }

    #[test]
    fn remove_in_chain_range_takes_every_match_in_the_range() {
        let mut store = BlockStore::new(2);
        store.pack(&pts(4)); // blocks 0 and 1
        let ov = store.insert_overflow_after(0);
        let dup = Point::with_id(0.9, 0.9, 77);
        store.block_mut(ov).push(dup);
        store.block_mut(1).remove_by_id(3).unwrap();
        store.block_mut(1).push(dup);
        let twin = Point::with_id(0.9, 0.9, 78);
        store.block_mut(ov).push(twin);
        // Outside the range: block 1 alone holds one copy of id 77.
        assert_eq!(store.remove_in_chain_range(1, 1, &dup), 1);
        store.block_mut(1).push(dup);
        // Id 0 is an ordinary id: nothing at the location carries it.
        assert_eq!(store.remove_in_chain_range(0, 1, &Point::new(0.9, 0.9)), 0);
        // Both copies of id 77 go in one call, across blocks; id 78 stays.
        assert_eq!(store.remove_in_chain_range(0, 1, &dup), 2);
        assert_eq!(store.remove_in_chain_range(0, 1, &dup), 0);
        assert_eq!(store.total_points(), 4);
        assert_eq!(store.block(ov).ids(), &[78]);
    }

    #[test]
    fn drained_overflow_blocks_are_reused_before_the_arena_grows() {
        let mut store = BlockStore::new(2);
        store.pack(&pts(4)); // blocks 0 and 1
        let ov1 = store.insert_overflow_after(0);
        let ov2 = store.insert_overflow_after(ov1);
        store.block_mut(ov1).push(Point::with_id(0.1, 0.2, 7));
        store.block_mut(ov2).push(Point::with_id(0.3, 0.4, 8));
        let mut out = Vec::new();
        store.drain_chain(0, &mut out);
        let drained: Vec<u64> = out.iter().map(|p| p.id).collect();
        assert_eq!(drained, vec![0, 1, 7, 8], "chain order");
        assert!(store.block(0).is_empty());
        assert_eq!(ids(store.chain_range(0, 1)), vec![0, 1]);
        assert_eq!(store.block(1).prev(), Some(0));
        assert_eq!(store.free_len(), 2);
        // The lowest kept id goes first; only then does the arena grow.
        let len = store.len();
        assert_eq!(store.insert_overflow_after(1), ov1);
        assert_eq!(store.insert_overflow_after(0), ov2);
        assert_eq!(ids(store.chain_range(0, 1)), vec![0, ov2, 1, ov1]);
        assert_eq!(store.len(), len);
        assert_eq!(store.insert_overflow_after(0), len);
        assert_eq!(store.free_len(), 0);
    }

    #[test]
    fn size_bytes_scales_with_block_count() {
        let mut store = BlockStore::new(10);
        store.pack(&pts(25));
        let one = store.block(0).size_bytes();
        assert_eq!(store.size_bytes(), 3 * one);
    }

    #[test]
    fn block_store_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BlockStore>();
    }
}
