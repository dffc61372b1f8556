//! Snapshot encoding of the block layer: every block's points, its
//! `prev`/`next` chain links, and its overflow flag, so a reloaded store is
//! bit-for-bit the store that was saved (block IDs included — query code
//! holds IDs in its directory structures).
//!
//! The one section layout, [`SECTION_STORE_V2`] (`0x5302`), is the
//! struct-of-arrays layout matching the in-memory `Block` lanes: per block,
//! the whole `x` lane, then the `y` lane, then the `id` lane, each
//! length-prefixed, so lanes serialise and deserialise as contiguous runs.
//! (Tag `0x5301`, the array-of-structs layout it replaced, is no longer
//! read: such a section fails the tag check with a typed error.)

use crate::BlockStore;
use persist::{PersistError, SnapshotReader, SnapshotWriter};

/// Section tag of the struct-of-arrays block-store record.
pub const SECTION_STORE_V2: u32 = 0x5302;

impl BlockStore {
    /// Writes the store as one checksummed v2 (struct-of-arrays) section:
    /// capacity, then every block in ID order (coordinate/id lanes, chain
    /// links, overflow flag).
    pub fn write_snapshot(&self, w: &mut SnapshotWriter) {
        w.begin_section(SECTION_STORE_V2);
        w.put_usize(self.capacity());
        w.put_usize(self.len());
        for (_, block) in self.iter() {
            w.put_f64s(block.xs());
            w.put_f64s(block.ys());
            w.put_u64s(block.ids());
            w.put_opt_usize(block.prev());
            w.put_opt_usize(block.next());
            w.put_bool(block.is_overflow());
        }
        w.end_section();
    }

    /// Reads a store section, validating capacity, occupancy, and chain
    /// links against the block count.  A zero or oversold capacity surfaces
    /// as [`PersistError::Corrupt`] — never a panic — because snapshot
    /// bytes are untrusted input.
    pub fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        r.begin_section(SECTION_STORE_V2)?;
        let capacity = r.get_usize()?;
        if capacity == 0 {
            return Err(PersistError::Corrupt("zero block capacity".into()));
        }
        let n_blocks = r.get_len(1)?;
        let mut store = BlockStore::new(capacity);
        for id in 0..n_blocks {
            let xs = r.get_f64s()?;
            let ys = r.get_f64s()?;
            let ids = r.get_u64s()?;
            if xs.len() != ys.len() || xs.len() != ids.len() {
                return Err(PersistError::Corrupt(format!(
                    "block {id} lanes disagree: {} xs, {} ys, {} ids",
                    xs.len(),
                    ys.len(),
                    ids.len()
                )));
            }
            if xs.len() > capacity {
                return Err(PersistError::Corrupt(format!(
                    "block {id} holds {} points but capacity is {capacity}",
                    xs.len()
                )));
            }
            let bid = store.allocate();
            for i in 0..xs.len() {
                store
                    .block_mut(bid)
                    .push(geom::Point::with_id(xs[i], ys[i], ids[i]));
            }
            let block = store.block_mut(bid);
            block.set_prev(r.get_opt_index(n_blocks)?);
            block.set_next(r.get_opt_index(n_blocks)?);
            block.set_overflow(r.get_bool()?);
        }
        r.end_section()?;
        store.find_free_blocks();
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Point;

    fn pts(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::with_id(i as f64 / n as f64, 1.0 - i as f64 / n as f64, i as u64))
            .collect()
    }

    fn roundtrip(store: &BlockStore) -> BlockStore {
        let mut w = SnapshotWriter::new("Store");
        store.write_snapshot(&mut w);
        let bytes = w.finish();
        let (_, mut r) = SnapshotReader::open(&bytes).unwrap();
        BlockStore::read_snapshot(&mut r).unwrap()
    }

    fn assert_stores_equal(a: &BlockStore, b: &BlockStore) {
        assert_eq!(a.capacity(), b.capacity());
        assert_eq!(a.len(), b.len());
        for (id, block) in a.iter() {
            let l = b.block(id);
            assert_eq!(l.to_points(), block.to_points());
            assert_eq!(l.prev(), block.prev());
            assert_eq!(l.next(), block.next());
            assert_eq!(l.is_overflow(), block.is_overflow());
        }
    }

    #[test]
    fn packed_store_roundtrips_blocks_links_and_points() {
        let mut store = BlockStore::new(4);
        store.pack(&pts(10));
        let loaded = roundtrip(&store);
        assert_eq!(loaded.total_points(), 10);
        assert_stores_equal(&store, &loaded);
    }

    #[test]
    fn v2_sections_roundtrip_byte_identically() {
        let mut store = BlockStore::new(4);
        store.pack(&pts(10));
        let mut w = SnapshotWriter::new("Store");
        store.write_snapshot(&mut w);
        let first = w.finish();
        let (_, mut r) = SnapshotReader::open(&first).unwrap();
        let loaded = BlockStore::read_snapshot(&mut r).unwrap();
        let mut w = SnapshotWriter::new("Store");
        loaded.write_snapshot(&mut w);
        assert_eq!(first, w.finish(), "save -> load -> save must be stable");
    }

    #[test]
    fn overflow_chains_survive_the_roundtrip() {
        let mut store = BlockStore::new(2);
        store.pack(&pts(4));
        let ov = store.insert_overflow_after(0);
        store.block_mut(ov).push(Point::with_id(0.5, 0.5, 99));
        let loaded = roundtrip(&store);
        let ids = |s: &BlockStore| s.overflow_chain(0).map(|(id, _)| id).collect::<Vec<_>>();
        assert_eq!(ids(&loaded), vec![0, ov]);
        assert_eq!(ids(&loaded), ids(&store));
        assert!(loaded.block(ov).is_overflow());
    }

    #[test]
    fn kept_free_blocks_are_found_again_on_load() {
        let mut store = BlockStore::new(2);
        store.pack(&pts(6)); // blocks 0..=2
        let ov = store.insert_overflow_after(1);
        let ov2 = store.insert_overflow_after(ov);
        store.block_mut(ov).push(Point::with_id(0.5, 0.5, 99));
        store.drain_chain(1, &mut Vec::new());
        // A linked overflow block that is empty is not free.
        let linked = store.insert_overflow_after(2);
        assert_eq!(linked, ov);
        let loaded = roundtrip(&store);
        assert_stores_equal(&store, &loaded);
        assert_eq!((store.free_len(), loaded.free_len()), (1, 1));
        let mut loaded = loaded;
        assert_eq!(loaded.insert_overflow_after(0), ov2);
        assert_eq!(loaded.free_len(), 0);
    }

    /// The header MBR against the fold it caches, bit for bit.
    fn assert_mbrs_are_the_fold(store: &BlockStore, what: &str) {
        let bits = |r: geom::Rect| [r.min_x, r.min_y, r.max_x, r.max_y].map(f64::to_bits);
        for (id, block) in store.iter() {
            let fold = crate::kernels::mbr_of(block.xs(), block.ys());
            assert_eq!(
                bits(block.mbr()),
                bits(fold),
                "{what}: block {id} (capacity {}, {} points)",
                store.capacity(),
                block.len()
            );
        }
    }

    #[test]
    fn block_mbr_is_the_fold_under_any_interleaving_of_pushes_and_removals() {
        // Coordinates come from a 9 x 9 grid, so duplicates sit on every
        // edge; capacities straddle the kernels' 64-point chunk seam.
        for (capacity, seed) in [
            (1usize, 3u64),
            (2, 5),
            (63, 7),
            (64, 11),
            (65, 13),
            (100, 17),
        ] {
            let mut store = BlockStore::new(capacity);
            for _ in 0..3 {
                store.allocate();
            }
            let mut state = seed;
            let mut rand = |n: usize| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as usize % n
            };
            let mut next_id = 1u64;
            // Alternating phases long enough to drive every block to full
            // and back down through a single point to empty, then refill.
            let phase = 6 * capacity + 15;
            let (mut filled, mut emptied) = (0, 0);
            for step in 0..8 * phase {
                let block = store.block_mut(rand(3));
                let filling = (step / phase) % 2 == 0;
                if block.is_empty() || (!block.is_full() && rand(4) < if filling { 3 } else { 1 }) {
                    let (x, y) = (rand(9) as f64 / 8.0, rand(9) as f64 / 8.0);
                    block.push(Point::with_id(x, y, next_id));
                    next_id += 1;
                    filled += usize::from(block.is_full());
                } else {
                    let victim = block.point(rand(block.len()));
                    if rand(3) == 0 {
                        assert_eq!(block.remove_by_id(victim.id), Some(victim));
                    } else {
                        assert_eq!(block.remove_at(victim.x, victim.y, victim.id), 1);
                    }
                    emptied += usize::from(block.is_empty());
                }
                assert_mbrs_are_the_fold(&store, "after an operation");
                if step % 500 == 499 {
                    assert_mbrs_are_the_fold(&roundtrip(&store), "after a snapshot round trip");
                    assert_mbrs_are_the_fold(&store.clone(), "after clone");
                }
            }
            assert!(
                filled > 3 && emptied > 3,
                "capacity {capacity}: {filled} / {emptied}"
            );
        }
    }

    #[test]
    fn empty_store_roundtrips() {
        let store = BlockStore::new(7);
        let loaded = roundtrip(&store);
        assert_eq!(loaded.capacity(), 7);
        assert!(loaded.is_empty());
    }

    #[test]
    fn zero_capacity_is_corrupt_not_panic() {
        let mut w = SnapshotWriter::new("Store");
        w.begin_section(SECTION_STORE_V2);
        w.put_usize(0); // capacity 0: would assert in Block::new
        w.put_usize(0); // no blocks
        w.end_section();
        let bytes = w.finish();
        let (_, mut r) = SnapshotReader::open(&bytes).unwrap();
        match BlockStore::read_snapshot(&mut r) {
            Err(PersistError::Corrupt(msg)) => assert!(msg.contains("capacity"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn overfull_block_is_corrupt_not_panic() {
        // Hand-craft a v2 section claiming 5 points in a capacity-2 block.
        let mut w = SnapshotWriter::new("Store");
        w.begin_section(SECTION_STORE_V2);
        w.put_usize(2); // capacity
        w.put_usize(1); // one block
        let five = pts(5);
        w.put_f64s(&five.iter().map(|p| p.x).collect::<Vec<_>>());
        w.put_f64s(&five.iter().map(|p| p.y).collect::<Vec<_>>());
        w.put_u64s(&five.iter().map(|p| p.id).collect::<Vec<_>>());
        w.put_opt_usize(None);
        w.put_opt_usize(None);
        w.put_bool(false);
        w.end_section();
        let bytes = w.finish();
        let (_, mut r) = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(
            BlockStore::read_snapshot(&mut r),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn disagreeing_lanes_are_corrupt() {
        let mut w = SnapshotWriter::new("Store");
        w.begin_section(SECTION_STORE_V2);
        w.put_usize(4);
        w.put_usize(1);
        w.put_f64s(&[0.1, 0.2]);
        w.put_f64s(&[0.3]); // one y short
        w.put_u64s(&[1, 2]);
        w.put_opt_usize(None);
        w.put_opt_usize(None);
        w.put_bool(false);
        w.end_section();
        let bytes = w.finish();
        let (_, mut r) = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(
            BlockStore::read_snapshot(&mut r),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn dangling_chain_link_is_corrupt() {
        let mut w = SnapshotWriter::new("Store");
        w.begin_section(SECTION_STORE_V2);
        w.put_usize(2);
        w.put_usize(1);
        w.put_f64s(&[]);
        w.put_f64s(&[]);
        w.put_u64s(&[]);
        w.put_opt_usize(Some(17)); // prev points past the end
        w.put_opt_usize(None);
        w.put_bool(false);
        w.end_section();
        let bytes = w.finish();
        let (_, mut r) = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(
            BlockStore::read_snapshot(&mut r),
            Err(PersistError::Corrupt(_))
        ));
    }
}
