//! Snapshot persistence: save any built index, load it back by the kind
//! tag in its header, and read a sharded container's routing table or one
//! of its shards.

use crate::{BaseKind, IndexKind};
use baselines::{GridFile, HilbertRTree, KdbTree, RStarTree, ZOrderModel};
use common::SpatialIndex;
use persist::{PersistError, SnapshotReader};
use rsmi::Rsmi;
use std::path::Path;

/// Opens a snapshot and parses its kind tag: the one place a tag becomes
/// an [`IndexKind`].
fn open(bytes: &[u8]) -> Result<(IndexKind, SnapshotReader<'_>), PersistError> {
    let (tag, r) = SnapshotReader::open(bytes)?;
    let kind = tag.parse().map_err(|_| PersistError::UnknownKind(tag))?;
    Ok((kind, r))
}

/// Opens a sharded container: its leaf family, and a reader at its first
/// section.  Any other snapshot is refused.
fn open_sharded(bytes: &[u8]) -> Result<(BaseKind, SnapshotReader<'_>), PersistError> {
    let (kind, r) = open(bytes)?;
    let base = kind
        .base()
        .ok_or_else(|| PersistError::Corrupt(format!("'{kind}' is not a sharded container")))?;
    Ok((base, r))
}

/// Checks that a shard embedded in a `base` container holds `base`'s
/// family.  The loader checks it *before* recursing: a crafted
/// sharded-in-sharded chain would otherwise nest loads until the stack
/// overflows.  The expected family is always a leaf, so recursion depth is
/// bounded.
fn check_shard_family(base: BaseKind, blob: &[u8]) -> Result<(), PersistError> {
    let (tag, _) = SnapshotReader::open(blob)?;
    if tag != base.unsharded().name() {
        return Err(PersistError::Corrupt(format!(
            "sharded container for {} holds a '{tag}' shard",
            base.sharded(),
        )));
    }
    Ok(())
}

/// Serialises a built index into snapshot bytes: the versioned header
/// carries the family's display name as the kind tag, and the body is
/// whatever the family's [`SpatialIndex::write_snapshot`] appends.
///
/// The full build → query → save → load round trip:
///
/// ```
/// use common::{QueryContext, SpatialIndex};
/// use geom::Point;
/// use registry::{build_index, load_index_bytes, snapshot_bytes, IndexConfig, IndexKind};
///
/// let points: Vec<Point> = (0..400)
///     .map(|i| Point::with_id((i as f64 * 0.618) % 1.0, (i as f64 * 0.414) % 1.0, i))
///     .collect();
/// let index = build_index(IndexKind::Hrr, &points, &IndexConfig::fast());
/// let mut cx = QueryContext::new();
/// let before = index.point_query(&points[42], &mut cx);
///
/// // Save, drop the built index, load it back: answers are identical.
/// let bytes = snapshot_bytes(index.as_ref()).unwrap();
/// drop(index);
/// let restored = load_index_bytes(&bytes).unwrap();
/// assert_eq!(restored.name(), "HRR");
/// assert_eq!(restored.point_query(&points[42], &mut cx), before);
/// ```
pub fn snapshot_bytes(index: &dyn SpatialIndex) -> Result<Vec<u8>, PersistError> {
    let mut w = persist::SnapshotWriter::new(index.name());
    index.write_snapshot(&mut w)?;
    Ok(w.finish())
}

/// Saves a built index to a snapshot file (see [`snapshot_bytes`]).
pub fn save_index(index: &dyn SpatialIndex, path: &Path) -> Result<(), PersistError> {
    persist::write_file(path, &snapshot_bytes(index)?)
}

/// [`load_index_bytes`], with the kind the header names.
pub(crate) fn load(bytes: &[u8]) -> Result<(IndexKind, Box<dyn SpatialIndex>), PersistError> {
    let (kind, mut r) = open(bytes)?;
    let index: Box<dyn SpatialIndex> = match kind {
        IndexKind::Grid => Box::new(GridFile::read_snapshot(&mut r)?),
        IndexKind::Hrr => Box::new(HilbertRTree::read_snapshot(&mut r)?),
        IndexKind::Kdb => Box::new(KdbTree::read_snapshot(&mut r)?),
        IndexKind::RStar => Box::new(RStarTree::read_snapshot(&mut r)?),
        IndexKind::Rsmi => Box::new(Rsmi::read_snapshot(&mut r)?),
        IndexKind::Rsmia => Box::new(Rsmi::read_snapshot(&mut r)?.into_exact()),
        IndexKind::Zm => Box::new(ZOrderModel::read_snapshot(&mut r)?),
        // The engine reads the container; this closure turns each embedded
        // inner snapshot back into an index through this very loader —
        // mirroring how `build_index` hands the engine its own construction
        // entry point.
        IndexKind::Sharded(base) => Box::new(engine::ShardedIndex::read_snapshot(
            &mut r,
            kind.name(),
            &|blob| {
                check_shard_family(base, blob)?;
                load_index_bytes(blob)
            },
        )?),
    };
    r.finish()?;
    Ok((kind, index))
}

/// Loads an index from snapshot bytes, dispatching on the kind tag embedded
/// in the header.  The loaded index answers every query with byte-identical
/// results and statistics to the index that was saved — nothing is rebuilt
/// or retrained.  Bytes after the last section are refused.
pub fn load_index_bytes(bytes: &[u8]) -> Result<Box<dyn SpatialIndex>, PersistError> {
    Ok(load(bytes)?.1)
}

/// Loads an index from a snapshot file (see [`load_index_bytes`]).
pub fn load_index(path: &Path) -> Result<Box<dyn SpatialIndex>, PersistError> {
    load_index_bytes(&persist::read_file(path)?)
}

/// Reads only the routing metadata of a sharded snapshot — the frozen
/// partitioner plus per-shard MBRs and key ranges — without parsing any
/// shard's data.  Returns the container's [`IndexKind`] alongside, so a
/// router knows which family (and exactness contract) its shard servers
/// hold.  Errors on non-sharded snapshots.
pub fn load_shard_manifest_bytes(
    bytes: &[u8],
) -> Result<(IndexKind, engine::ShardManifest), PersistError> {
    let (base, mut r) = open_sharded(bytes)?;
    Ok((base.sharded(), engine::ShardManifest::read(&mut r)?))
}

/// Reads a sharded snapshot file's routing metadata (see
/// [`load_shard_manifest_bytes`]).
pub fn load_shard_manifest(
    path: &Path,
) -> Result<(IndexKind, engine::ShardManifest), PersistError> {
    load_shard_manifest_bytes(&persist::read_file(path)?)
}

/// Extracts one shard's embedded snapshot from a sharded container: a
/// complete, self-describing snapshot image a shard server can
/// [`load_index_bytes`] or [`serve_snapshot_bytes`](crate::serve_snapshot_bytes)
/// on its own.  Later shards' bytes are neither checksummed nor parsed.
pub fn load_shard_snapshot_bytes(bytes: &[u8], shard: usize) -> Result<Vec<u8>, PersistError> {
    let (base, mut r) = open_sharded(bytes)?;
    let blob = engine::read_shard_snapshot_bytes(&mut r, shard)?;
    check_shard_family(base, &blob)?;
    Ok(blob)
}

/// Extracts one shard's embedded snapshot from a sharded snapshot file
/// (see [`load_shard_snapshot_bytes`]).
pub fn load_shard_snapshot(path: &Path, shard: usize) -> Result<Vec<u8>, PersistError> {
    load_shard_snapshot_bytes(&persist::read_file(path)?, shard)
}
