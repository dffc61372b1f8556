//! The sharded snapshot container, with its only writer and its only
//! reader.  A `Sharded-*` snapshot body is a meta section (`0x5401`: the
//! per-shard rebuild's worker count and the shard count), the frozen
//! [`Partitioner`] (`0x5404`: its knot tables and shard cut), then one
//! section per shard in shard order (`0x5403`: MBR, frozen curve-key range,
//! and the inner index as a complete embedded snapshot with its own
//! header).  `0x5402` held the exact routing tables the knot tables
//! replaced; a container carrying it is refused by the section tag check.

use crate::partition::Partitioner;
use common::SpatialIndex;
use geom::Rect;
use persist::{PersistError, SnapshotReader, SnapshotWriter};

const SECTION_SHARDED_META: u32 = 0x5401;
const SECTION_SHARDED_PARTITIONER: u32 = 0x5404;
const SECTION_SHARD: u32 = 0x5403;

/// Routing metadata of one shard as stored in the sharded container: the
/// MBR and frozen curve-key range, without the shard's data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardMeta {
    /// Bounding rectangle of the shard's contents at snapshot time.
    pub mbr: Rect,
    /// Inclusive lower bound of the shard's frozen curve-key range.
    pub key_lo: u64,
    /// Exclusive upper bound of the range (`None` = open-ended last shard).
    pub key_hi: Option<u64>,
}

/// The routing-table view of a sharded snapshot: everything a distributed
/// router needs to plan queries — the frozen [`Partitioner`] plus each
/// shard's MBR and key range — **without** loading any shard's data.  This
/// is the router's whole contract with the container format: it reads the
/// meta sections and skips every embedded inner snapshot.
#[derive(Debug, Clone)]
pub struct ShardManifest {
    /// The frozen key function and shard cut.
    pub partitioner: Partitioner,
    /// Per-shard routing metadata, in shard order.
    pub shards: Vec<ShardMeta>,
}

impl ShardManifest {
    /// Reads only the routing metadata from a sharded container, skipping
    /// the embedded per-shard snapshots (their bytes are never parsed).
    pub fn read(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        let mut sections = ShardSections::open(r)?;
        let shards = sections
            .by_ref()
            .map(|shard| Ok(shard?.0))
            .collect::<Result<_, PersistError>>()?;
        Ok(Self {
            partitioner: sections.partitioner,
            shards,
        })
    }

    /// Number of shards the manifest routes to.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

/// Extracts shard `shard`'s embedded inner snapshot from a sharded
/// container — a complete snapshot image with its own header, loadable (or
/// servable) on its own.  Reading stops at that shard's section: later
/// shards are neither checksummed nor parsed, which is what lets a shard
/// server start by reading one section of a container that may hold many
/// times its memory.
pub fn read_shard_snapshot_bytes(
    r: &mut SnapshotReader<'_>,
    shard: usize,
) -> Result<Vec<u8>, PersistError> {
    let sections = ShardSections::open(r)?;
    let n_shards = sections.partitioner.shard_count();
    if shard >= n_shards {
        return Err(PersistError::Corrupt(format!(
            "shard {shard} out of range: container holds {n_shards} shards"
        )));
    }
    let mut blob = &[][..];
    for section in sections.take(shard + 1) {
        (_, blob) = section?;
    }
    Ok(blob.to_vec())
}

/// Writes the container; each shard's inner index is embedded as a
/// complete snapshot, so it round-trips on its own through the registry's
/// loader.
pub(crate) fn write<'i>(
    w: &mut SnapshotWriter,
    threads: usize,
    partitioner: &Partitioner,
    shards: impl ExactSizeIterator<Item = (Rect, &'i dyn SpatialIndex)>,
) -> Result<(), PersistError> {
    w.begin_section(SECTION_SHARDED_META);
    w.put_usize(threads);
    w.put_usize(shards.len());
    w.end_section();

    w.begin_section(SECTION_SHARDED_PARTITIONER);
    partitioner.encode(w);
    w.end_section();

    for (i, (mbr, index)) in shards.enumerate() {
        w.begin_section(SECTION_SHARD);
        w.put_rect(&mbr);
        let (key_lo, key_hi) = partitioner.shard_key_range(i);
        w.put_u64(key_lo);
        w.put_bool(key_hi.is_some());
        if let Some(hi) = key_hi {
            w.put_u64(hi);
        }
        let mut inner = SnapshotWriter::new(index.name());
        index.write_snapshot(&mut inner)?;
        w.put_bytes(&inner.finish());
        w.end_section();
    }
    Ok(())
}

/// The one reader of the container.  [`ShardSections::open`] reads the
/// meta and partitioner sections and checks their shard counts agree;
/// iterating then yields each shard's metadata, its key range checked
/// against the partitioner, and its embedded snapshot borrowed from the
/// container's bytes, in shard order, stopping after the first error.
pub(crate) struct ShardSections<'r, 'a> {
    r: &'r mut SnapshotReader<'a>,
    /// The per-shard rebuild's worker count stored in the meta section.
    pub(crate) threads: usize,
    /// The frozen partitioner; it routes to the announced shard count.
    pub(crate) partitioner: Partitioner,
    /// The next shard section to read.
    next: usize,
}

impl<'r, 'a> ShardSections<'r, 'a> {
    pub(crate) fn open(r: &'r mut SnapshotReader<'a>) -> Result<Self, PersistError> {
        r.begin_section(SECTION_SHARDED_META)?;
        let threads = r.get_usize()?;
        let n_shards = r.get_usize()?;
        r.end_section()?;

        r.begin_section(SECTION_SHARDED_PARTITIONER)?;
        let partitioner = Partitioner::decode(r)?;
        r.end_section()?;
        if partitioner.shard_count() != n_shards {
            return Err(PersistError::Corrupt(format!(
                "container announces {n_shards} shards, partitioner routes to {}",
                partitioner.shard_count()
            )));
        }
        Ok(Self {
            r,
            threads,
            partitioner,
            next: 0,
        })
    }

    fn read_shard(&mut self, i: usize) -> Result<(ShardMeta, &'a [u8]), PersistError> {
        let r = &mut *self.r;
        r.begin_section(SECTION_SHARD)?;
        let meta = ShardMeta {
            mbr: r.get_rect()?,
            key_lo: r.get_u64()?,
            key_hi: r.get_bool()?.then(|| r.get_u64()).transpose()?,
        };
        if (meta.key_lo, meta.key_hi) != self.partitioner.shard_key_range(i) {
            return Err(PersistError::Corrupt(format!(
                "shard {i} key range disagrees with the partitioner"
            )));
        }
        let blob = r.get_bytes()?;
        r.end_section()?;
        Ok((meta, blob))
    }
}

impl<'a> Iterator for ShardSections<'_, 'a> {
    type Item = Result<(ShardMeta, &'a [u8]), PersistError>;

    fn next(&mut self) -> Option<Self::Item> {
        let i = self.next;
        if i >= self.partitioner.shard_count() {
            return None;
        }
        let shard = self.read_shard(i);
        self.next = if shard.is_ok() { i + 1 } else { usize::MAX };
        Some(shard)
    }
}
