//! Dynamic index registry: construct any index family through one entry
//! point, by kind or by name.
//!
//! The paper's value is a head-to-head comparison of seven index variants;
//! this crate is the single place that knows how to build each of them.  The
//! bench harness, the experiments binary, the examples, and the integration
//! tests all construct indices exclusively through [`build_index`], so
//! adding an index family is a one-file change.
//!
//! ```
//! use registry::{build_index, IndexConfig, IndexKind};
//! use common::{QueryContext, SpatialIndex};
//! use geom::Point;
//!
//! let points: Vec<Point> = (0..500)
//!     .map(|i| Point::with_id((i as f64 * 0.618) % 1.0, (i as f64 * 0.414) % 1.0, i))
//!     .collect();
//! let index = build_index(IndexKind::Grid, &points, &IndexConfig::fast());
//! let mut cx = QueryContext::new();
//! assert_eq!(index.point_query(&points[7], &mut cx).unwrap().id, 7);
//!
//! // Distance-range queries and index-nested joins are part of the same
//! // uniform API — and, unlike window/kNN, exact for every registered kind.
//! let nearby = index.range_query(&points[7], 0.05, &mut cx);
//! assert!(nearby.iter().any(|p| p.id == 7));
//! let other = build_index(IndexKind::Hrr, &points[..50], &IndexConfig::fast());
//! let pairs = index.distance_join(other.as_ref(), 0.01, &mut cx);
//! assert!(pairs.len() >= 50, "every point pairs with its own copy");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use baselines::zm::ZmConfig;
use baselines::{GridFile, HilbertRTree, KdbTree, RStarTree, ZOrderModel};
use common::SpatialIndex;
use geom::Point;
use rsmi::{Rsmi, RsmiConfig, RsmiExact};
use sfc::CurveKind;
use std::path::Path;

pub use persist::PersistError;

/// A leaf index family — the families compared head-to-head in the paper,
/// and the inner-index payload of [`IndexKind::Sharded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseKind {
    /// Grid File.
    Grid,
    /// Rank-space Hilbert packed R-tree.
    Hrr,
    /// K-D-B-tree.
    Kdb,
    /// R*-tree (dynamic insertion).
    RStar,
    /// RSMI (approximate window/kNN answers).
    Rsmi,
    /// RSMI with MBR-based exact query answering (same structure as RSMI,
    /// exact traversal at query time).
    Rsmia,
    /// Z-order learned model.
    Zm,
}

impl BaseKind {
    /// All leaf families, in the order the paper's legends list them.
    pub fn all() -> [BaseKind; 7] {
        [
            BaseKind::Grid,
            BaseKind::Hrr,
            BaseKind::Kdb,
            BaseKind::RStar,
            BaseKind::Rsmi,
            BaseKind::Rsmia,
            BaseKind::Zm,
        ]
    }

    /// The unsharded [`IndexKind`] of this family.
    pub fn unsharded(self) -> IndexKind {
        match self {
            BaseKind::Grid => IndexKind::Grid,
            BaseKind::Hrr => IndexKind::Hrr,
            BaseKind::Kdb => IndexKind::Kdb,
            BaseKind::RStar => IndexKind::RStar,
            BaseKind::Rsmi => IndexKind::Rsmi,
            BaseKind::Rsmia => IndexKind::Rsmia,
            BaseKind::Zm => IndexKind::Zm,
        }
    }

    /// The sharded [`IndexKind`] wrapping this family.
    pub fn sharded(self) -> IndexKind {
        IndexKind::Sharded(self)
    }
}

/// The index families the registry can build: the paper's seven leaf
/// families plus their sharded serving-engine composition
/// (`crates/engine`), registered as `sharded-<family>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// Grid File.
    Grid,
    /// Rank-space Hilbert packed R-tree.
    Hrr,
    /// K-D-B-tree.
    Kdb,
    /// R*-tree (dynamic insertion).
    RStar,
    /// RSMI (approximate window/kNN answers).
    Rsmi,
    /// RSMI with MBR-based exact query answering (same structure as RSMI,
    /// exact traversal at query time).
    Rsmia,
    /// Z-order learned model.
    Zm,
    /// The sharded serving engine wrapping one inner family: learned
    /// rank-space partitioning, routed/pruned fan-out, parallel batches.
    Sharded(BaseKind),
}

impl IndexKind {
    /// The paper's seven leaf families, in the order its legends list them
    /// (sharded compositions are not part of the paper's figures; see
    /// [`IndexKind::all_sharded`]).
    pub fn all() -> Vec<IndexKind> {
        BaseKind::all()
            .into_iter()
            .map(BaseKind::unsharded)
            .collect()
    }

    /// The seven sharded compositions, in the same order.
    pub fn all_sharded() -> Vec<IndexKind> {
        BaseKind::all().into_iter().map(BaseKind::sharded).collect()
    }

    /// Every kind the registry can build: leaf families then sharded
    /// compositions.
    pub fn all_with_sharded() -> Vec<IndexKind> {
        let mut v = Self::all();
        v.extend(Self::all_sharded());
        v
    }

    /// The families without the RSMIa duplicate (used for point queries and
    /// update measurements where RSMIa is identical to RSMI).
    pub fn without_rsmia() -> Vec<IndexKind> {
        Self::all()
            .into_iter()
            .filter(|k| *k != IndexKind::Rsmia)
            .collect()
    }

    /// The inner leaf family when this is a sharded composition.
    pub fn base(&self) -> Option<BaseKind> {
        match self {
            IndexKind::Sharded(base) => Some(*base),
            _ => None,
        }
    }

    /// Display name matching the paper's figures (sharded compositions
    /// prefix the inner family's name).
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::Grid => "Grid",
            IndexKind::Hrr => "HRR",
            IndexKind::Kdb => "KDB",
            IndexKind::RStar => "RR*",
            IndexKind::Rsmi => "RSMI",
            IndexKind::Rsmia => "RSMIa",
            IndexKind::Zm => "ZM",
            IndexKind::Sharded(base) => match base {
                BaseKind::Grid => "Sharded-Grid",
                BaseKind::Hrr => "Sharded-HRR",
                BaseKind::Kdb => "Sharded-KDB",
                BaseKind::RStar => "Sharded-RR*",
                BaseKind::Rsmi => "Sharded-RSMI",
                BaseKind::Rsmia => "Sharded-RSMIa",
                BaseKind::Zm => "Sharded-ZM",
            },
        }
    }

    /// Whether window queries of this family are exact (match brute force).
    /// Sharding preserves exactness: the union of exact per-shard answers
    /// over MBR-intersecting shards is the exact answer.
    pub fn exact_windows(&self) -> bool {
        match self {
            IndexKind::Sharded(base) => base.unsharded().exact_windows(),
            IndexKind::Rsmi | IndexKind::Zm => false,
            _ => true,
        }
    }

    /// Whether kNN queries of this family are exact.
    pub fn exact_knn(&self) -> bool {
        match self {
            IndexKind::Sharded(base) => base.unsharded().exact_knn(),
            IndexKind::Rsmi | IndexKind::Zm => false,
            _ => true,
        }
    }

    /// Whether this family contains learned sub-models.
    pub fn is_learned(&self) -> bool {
        match self {
            IndexKind::Sharded(base) => base.unsharded().is_learned(),
            IndexKind::Rsmi | IndexKind::Rsmia | IndexKind::Zm => true,
            _ => false,
        }
    }
}

impl std::fmt::Display for IndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for IndexKind {
    type Err = String;

    /// Parses a family from its display name (case-insensitive; `RR*` also
    /// accepts `rstar`).  A `sharded-` prefix selects the sharded
    /// composition of the suffix family, e.g. `sharded-rsmi`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        if let Some(inner) = lower.strip_prefix("sharded-") {
            let leaf: IndexKind = inner.parse()?;
            return match leaf {
                IndexKind::Grid => Ok(BaseKind::Grid.sharded()),
                IndexKind::Hrr => Ok(BaseKind::Hrr.sharded()),
                IndexKind::Kdb => Ok(BaseKind::Kdb.sharded()),
                IndexKind::RStar => Ok(BaseKind::RStar.sharded()),
                IndexKind::Rsmi => Ok(BaseKind::Rsmi.sharded()),
                IndexKind::Rsmia => Ok(BaseKind::Rsmia.sharded()),
                IndexKind::Zm => Ok(BaseKind::Zm.sharded()),
                IndexKind::Sharded(_) => {
                    Err(format!("cannot shard an already-sharded kind: '{s}'"))
                }
            };
        }
        match lower.as_str() {
            "grid" => Ok(IndexKind::Grid),
            "hrr" => Ok(IndexKind::Hrr),
            "kdb" => Ok(IndexKind::Kdb),
            "rr*" | "rstar" | "r*" => Ok(IndexKind::RStar),
            "rsmi" => Ok(IndexKind::Rsmi),
            "rsmia" => Ok(IndexKind::Rsmia),
            "zm" => Ok(IndexKind::Zm),
            other => Err(format!(
                "unknown index kind '{other}' (expected one of Grid, HRR, KDB, RR*, RSMI, \
                 RSMIa, ZM, or sharded-<kind>)"
            )),
        }
    }
}

/// Construction parameters shared by every index family.
#[derive(Debug, Clone, Copy)]
pub struct IndexConfig {
    /// Block capacity `B` for every index (the paper uses 100).
    pub block_capacity: usize,
    /// RSMI partition threshold `N`.
    pub partition_threshold: usize,
    /// Most training epochs per model of the learned indices; a fit stops
    /// sooner once its loss stops improving (`mlp::Mlp::train`).
    pub epochs: usize,
    /// SGD learning rate for the learned indices.
    pub learning_rate: f64,
    /// Random seed for deterministic model initialisation.
    pub seed: u64,
    /// Space-filling curve used by RSMI's ordering (and by the sharded
    /// engine's partitioner).
    pub curve: CurveKind,
    /// Shard count for the `Sharded(_)` kinds (ignored by leaf families).
    pub shards: usize,
    /// Worker threads used by the batch entry points of the `Sharded(_)`
    /// kinds (1 = sequential; ignored by leaf families).
    pub threads: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            block_capacity: 100,
            partition_threshold: 10_000,
            epochs: 30,
            learning_rate: 0.15,
            seed: 42,
            curve: CurveKind::Hilbert,
            shards: 4,
            threads: 1,
        }
    }
}

impl IndexConfig {
    /// Small configuration for tests and doc examples: builds finish in
    /// milliseconds.
    pub fn fast() -> Self {
        Self {
            block_capacity: 50,
            partition_threshold: 2_000,
            epochs: 25,
            learning_rate: 0.3,
            ..Self::default()
        }
    }

    /// Returns a copy with the given block capacity `B`.
    pub fn with_block_capacity(mut self, b: usize) -> Self {
        self.block_capacity = b;
        self
    }

    /// Returns a copy with the given partition threshold `N`.
    pub fn with_partition_threshold(mut self, n: usize) -> Self {
        self.partition_threshold = n;
        self
    }

    /// Returns a copy with the given epoch count.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Returns a copy with the given seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with the given shard count (for `Sharded(_)` kinds).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns a copy with the given batch-executor thread count (for
    /// `Sharded(_)` kinds).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The sharded-engine configuration corresponding to this
    /// configuration.
    pub fn sharded_config(&self) -> engine::ShardedConfig {
        engine::ShardedConfig {
            shards: self.shards,
            threads: self.threads,
            curve: self.curve,
        }
    }

    /// The RSMI configuration corresponding to this configuration.
    pub fn rsmi_config(&self) -> RsmiConfig {
        let mut cfg = RsmiConfig::default()
            .with_block_capacity(self.block_capacity)
            .with_partition_threshold(self.partition_threshold)
            .with_epochs(self.epochs)
            .with_curve(self.curve);
        cfg.learning_rate = self.learning_rate;
        cfg.seed = self.seed;
        cfg
    }

    /// The ZM configuration corresponding to this configuration.
    pub fn zm_config(&self) -> ZmConfig {
        ZmConfig {
            block_capacity: self.block_capacity,
            epochs: self.epochs,
            learning_rate: self.learning_rate,
            seed: self.seed,
        }
    }
}

/// Builds one index family over the given points.
///
/// This is the registry's single construction entry point: callers select a
/// family dynamically (by [`IndexKind`] value or by parsing a name) and get
/// back a boxed [`SpatialIndex`] answering the uniform query API.
pub fn build_index(kind: IndexKind, points: &[Point], cfg: &IndexConfig) -> Box<dyn SpatialIndex> {
    match kind {
        IndexKind::Grid => Box::new(GridFile::build(points.to_vec(), cfg.block_capacity)),
        IndexKind::Hrr => Box::new(HilbertRTree::build(points.to_vec(), cfg.block_capacity)),
        IndexKind::Kdb => Box::new(KdbTree::build(points.to_vec(), cfg.block_capacity)),
        IndexKind::RStar => Box::new(RStarTree::build(points.to_vec(), cfg.block_capacity)),
        IndexKind::Rsmi => Box::new(Rsmi::build(points.to_vec(), cfg.rsmi_config())),
        IndexKind::Rsmia => Box::new(RsmiExact::build(points.to_vec(), cfg.rsmi_config())),
        IndexKind::Zm => Box::new(ZOrderModel::build(points.to_vec(), cfg.zm_config())),
        IndexKind::Sharded(base) => {
            // The engine takes the registry's own entry point as the
            // inner-index factory, so every registered leaf family composes
            // with the sharded serving layer without a dependency cycle.
            let inner_kind = base.unsharded();
            let inner_cfg = *cfg;
            Box::new(engine::ShardedIndex::build(
                points,
                cfg.sharded_config(),
                kind.name(),
                &move |pts| build_index(inner_kind, pts, &inner_cfg),
            ))
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot persistence: save any built index, load it back by kind tag
// ---------------------------------------------------------------------

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

/// Loads an index from snapshot bytes, dispatching on the kind tag embedded
/// in the header.  The loaded index answers every query with byte-identical
/// results and statistics to the index that was saved — nothing is rebuilt
/// or retrained.  Bytes after the last section are refused.
pub fn load_index_bytes(bytes: &[u8]) -> Result<Box<dyn SpatialIndex>, PersistError> {
    let (kind_tag, mut r) = persist::SnapshotReader::open(bytes)?;
    let kind: IndexKind = kind_tag
        .parse()
        .map_err(|_| PersistError::UnknownKind(kind_tag.clone()))?;
    let index: Box<dyn SpatialIndex> = match kind {
        IndexKind::Grid => Box::new(GridFile::read_snapshot(&mut r)?),
        IndexKind::Hrr => Box::new(HilbertRTree::read_snapshot(&mut r)?),
        IndexKind::Kdb => Box::new(KdbTree::read_snapshot(&mut r)?),
        IndexKind::RStar => Box::new(RStarTree::read_snapshot(&mut r)?),
        IndexKind::Rsmi => Box::new(Rsmi::read_snapshot(&mut r)?),
        IndexKind::Rsmia => Box::new(RsmiExact::read_snapshot(&mut r)?),
        IndexKind::Zm => Box::new(ZOrderModel::read_snapshot(&mut r)?),
        IndexKind::Sharded(base) => {
            // The engine reads the container; this closure turns each
            // embedded inner snapshot back into an index through this very
            // function — mirroring how `build_index` hands the engine its
            // own construction entry point.
            let expected = base.unsharded();
            let loaded = engine::ShardedIndex::read_snapshot(&mut r, kind.name(), &|blob| {
                // Check the embedded snapshot's kind tag *before* recursing:
                // a crafted sharded-in-sharded chain would otherwise nest
                // loads until the stack overflows.  The expected inner kind
                // is always a leaf family, so recursion depth is bounded.
                let (inner_tag, _) = persist::SnapshotReader::open(blob)?;
                if inner_tag != expected.name() {
                    return Err(PersistError::Corrupt(format!(
                        "sharded container for {} holds a '{inner_tag}' shard",
                        kind.name(),
                    )));
                }
                load_index_bytes(blob)
            })?;
            Box::new(loaded)
        }
    };
    r.finish()?;
    Ok(index)
}

/// Loads an index from a snapshot file (see [`load_index_bytes`]).
pub fn load_index(path: &Path) -> Result<Box<dyn SpatialIndex>, PersistError> {
    load_index_bytes(&persist::read_file(path)?)
}

// ---------------------------------------------------------------------
// Live serving: wrap any registered kind in a SpatialServer
// ---------------------------------------------------------------------

pub use server::{CompactionPolicy, ServeConfig, ServerConfig, SpatialServer};

/// The compaction rebuild closure for one registered kind: the registry's
/// own [`build_index`] with the kind and configuration captured, which is
/// how every family composes with the serving engine.
pub fn rebuild_fn(kind: IndexKind, cfg: &IndexConfig) -> server::RebuildFn {
    let cfg = *cfg;
    Box::new(move |pts: &[Point]| build_index(kind, pts, &cfg))
}

/// Builds an index of `kind` over `points` and starts a live
/// [`SpatialServer`] around it: lock-free snapshot reads, sequenced
/// delta-buffered writes, and background compaction that rebuilds through
/// the registry.
///
/// ```
/// use common::QueryContext;
/// use geom::Point;
/// use registry::{serve_index, IndexConfig, IndexKind, ServerConfig};
///
/// let points: Vec<Point> = (0..300)
///     .map(|i| Point::with_id((i as f64 * 0.618) % 1.0, (i as f64 * 0.414) % 1.0, i))
///     .collect();
/// let server = serve_index(IndexKind::Grid, &points, &IndexConfig::fast(), ServerConfig::default());
///
/// // Writers go through &self; readers snapshot concurrently.
/// let seq = server.insert(Point::with_id(0.123, 0.456, 9_000));
/// assert_eq!(seq, 1);
/// let mut cx = QueryContext::new();
/// let hit = server.point_query(&Point::new(0.123, 0.456), &mut cx);
/// assert_eq!(hit.map(|p| p.id), Some(9_000));
/// assert_eq!(server.len(), 301);
/// ```
pub fn serve_index(
    kind: IndexKind,
    points: &[Point],
    cfg: &IndexConfig,
    server_cfg: ServerConfig,
) -> SpatialServer {
    SpatialServer::new(points.to_vec(), rebuild_fn(kind, cfg), server_cfg)
}

/// Warm start: loads a snapshot (see [`load_index_bytes`]) and starts a live
/// [`SpatialServer`] around the loaded index, skipping the initial build.
///
/// The server needs the canonical point set for compaction; it is recovered
/// from the loaded index with a full-space window scan over the unit data
/// square (the repository's data convention).  Kinds whose window queries
/// are approximate (RSMI, ZM) may scan back fewer points than the index
/// holds — that is reported as [`PersistError::Corrupt`] rather than served
/// with silent point loss, so warm starts are for exact kinds.
pub fn serve_snapshot_bytes(
    bytes: &[u8],
    cfg: &IndexConfig,
    server_cfg: ServerConfig,
) -> Result<SpatialServer, PersistError> {
    let index = load_index_bytes(bytes)?;
    let kind: IndexKind = index
        .name()
        .parse()
        .map_err(|_| PersistError::UnknownKind(index.name().to_string()))?;
    let mut cx = common::QueryContext::new();
    let points = index.window_query(&geom::Rect::unit(), &mut cx);
    if points.len() != index.len() {
        return Err(PersistError::Corrupt(format!(
            "canonical scan recovered {} of {} points — warm start requires a kind whose \
             full-space window scan is exact",
            points.len(),
            index.len()
        )));
    }
    let n_points = points.len() as u64;
    let server = SpatialServer::from_parts(index, points, rebuild_fn(kind, cfg), server_cfg);
    server
        .telemetry()
        .journal
        .record(obs::EventKind::SnapshotLoad { points: n_points });
    Ok(server)
}

/// Warm start from a snapshot file (see [`serve_snapshot_bytes`]).
pub fn serve_snapshot(
    path: &Path,
    cfg: &IndexConfig,
    server_cfg: ServerConfig,
) -> Result<SpatialServer, PersistError> {
    serve_snapshot_bytes(&persist::read_file(path)?, cfg, server_cfg)
}

/// The unified-configuration serving entry: warm-starts from
/// [`ServeConfig::warm_start`] when that snapshot file exists, otherwise
/// builds an index of `kind` over `points` — exactly the decision the
/// `net-serve` CLI used to make by hand.  Network knobs in `cfg` are
/// consumed by `net::serve_config`, not here.
pub fn serve_config(
    kind: IndexKind,
    points: &[Point],
    cfg: &IndexConfig,
    serve: &ServeConfig,
) -> Result<SpatialServer, PersistError> {
    match &serve.warm_start {
        Some(path) if path.exists() => serve_snapshot(path, cfg, serve.server),
        _ => Ok(serve_index(kind, points, cfg, serve.server)),
    }
}

// ---------------------------------------------------------------------
// Distributed serving: routing-table-only views of sharded snapshots
// ---------------------------------------------------------------------

/// Reads only the routing metadata of a sharded snapshot — the frozen
/// partitioner plus per-shard MBRs and key ranges — without parsing any
/// shard's data.  Returns the container's [`IndexKind`] alongside, so a
/// router knows which family (and exactness contract) its shard servers
/// hold.  Errors on non-sharded snapshots.
pub fn load_shard_manifest_bytes(
    bytes: &[u8],
) -> Result<(IndexKind, engine::ShardManifest), PersistError> {
    let (kind_tag, mut r) = persist::SnapshotReader::open(bytes)?;
    let kind: IndexKind = kind_tag
        .parse()
        .map_err(|_| PersistError::UnknownKind(kind_tag.clone()))?;
    if kind.base().is_none() {
        return Err(PersistError::Corrupt(format!(
            "'{kind_tag}' is not a sharded container — nothing to route to"
        )));
    }
    Ok((kind, engine::ShardManifest::read(&mut r)?))
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
/// [`load_index_bytes`] or [`serve_snapshot_bytes`] on its own.  Other
/// shards' bytes are skipped, never parsed.
pub fn load_shard_snapshot_bytes(bytes: &[u8], shard: usize) -> Result<Vec<u8>, PersistError> {
    let (kind_tag, mut r) = persist::SnapshotReader::open(bytes)?;
    let kind: IndexKind = kind_tag
        .parse()
        .map_err(|_| PersistError::UnknownKind(kind_tag.clone()))?;
    let expected = match kind.base() {
        Some(base) => base.unsharded(),
        None => {
            return Err(PersistError::Corrupt(format!(
                "'{kind_tag}' is not a sharded container — no shard {shard} to extract"
            )))
        }
    };
    let blob = engine::read_shard_snapshot_bytes(&mut r, shard)?;
    let (inner_tag, _) = persist::SnapshotReader::open(&blob)?;
    if inner_tag != expected.name() {
        return Err(PersistError::Corrupt(format!(
            "sharded container for {} holds a '{inner_tag}' shard",
            kind.name(),
        )));
    }
    Ok(blob)
}

/// Extracts one shard's embedded snapshot from a sharded snapshot file
/// (see [`load_shard_snapshot_bytes`]).
pub fn load_shard_snapshot(path: &Path, shard: usize) -> Result<Vec<u8>, PersistError> {
    load_shard_snapshot_bytes(&persist::read_file(path)?, shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::QueryContext;
    use datagen::{generate, Distribution};

    #[test]
    fn every_kind_builds_and_reports_its_name() {
        let data = generate(Distribution::Uniform, 400, 3);
        for kind in IndexKind::all() {
            let index = build_index(kind, &data, &IndexConfig::fast());
            assert_eq!(index.name(), kind.name());
            assert_eq!(index.len(), data.len());
        }
    }

    #[test]
    fn built_indices_answer_point_queries() {
        let data = generate(Distribution::Normal, 600, 5);
        let mut cx = QueryContext::new();
        for kind in IndexKind::all() {
            let index = build_index(kind, &data, &IndexConfig::fast());
            for p in data.iter().step_by(41) {
                assert_eq!(
                    index.point_query(p, &mut cx).map(|f| f.id),
                    Some(p.id),
                    "{} lost a point",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn kind_names_round_trip_through_from_str() {
        for kind in IndexKind::all_with_sharded() {
            let parsed: IndexKind = kind.name().parse().expect("parse display name");
            assert_eq!(parsed, kind);
        }
        assert_eq!("rstar".parse::<IndexKind>().unwrap(), IndexKind::RStar);
        assert_eq!(
            "sharded-rstar".parse::<IndexKind>().unwrap(),
            BaseKind::RStar.sharded()
        );
        assert!("nonsense".parse::<IndexKind>().is_err());
        assert!("sharded-nonsense".parse::<IndexKind>().is_err());
        assert!("sharded-sharded-rsmi".parse::<IndexKind>().is_err());
    }

    #[test]
    fn sharded_kinds_inherit_the_inner_family_contract() {
        for base in BaseKind::all() {
            let kind = base.sharded();
            assert_eq!(kind.base(), Some(base));
            assert_eq!(kind.exact_windows(), base.unsharded().exact_windows());
            assert_eq!(kind.exact_knn(), base.unsharded().exact_knn());
            assert_eq!(kind.is_learned(), base.unsharded().is_learned());
            assert!(kind.name().starts_with("Sharded-"));
        }
        assert_eq!(IndexKind::Rsmi.base(), None);
    }

    #[test]
    fn sharded_builds_route_point_queries_through_the_engine() {
        let data = generate(Distribution::skewed_default(), 900, 13);
        let cfg = IndexConfig::fast().with_shards(4);
        let index = build_index(BaseKind::Hrr.sharded(), &data, &cfg);
        assert_eq!(index.name(), "Sharded-HRR");
        assert_eq!(index.len(), data.len());
        let mut cx = QueryContext::new();
        for p in data.iter().step_by(31) {
            assert_eq!(index.point_query(p, &mut cx).map(|f| f.id), Some(p.id));
        }
        let stats = cx.take_stats();
        let n = data.iter().step_by(31).count() as u64;
        assert_eq!(stats.shards_visited, n, "point routing fanned out");
        assert_eq!(stats.shards_pruned, 3 * n);
    }

    #[test]
    fn every_kind_answers_range_and_join_exactly_through_the_registry() {
        // The exactness flags deliberately do NOT extend to the new query
        // classes: distance-range and join answers are exact for every
        // kind, including the approximate-window families.
        let data = generate(Distribution::Uniform, 500, 47);
        let inner = generate(Distribution::Uniform, 80, 49);
        let other = common::brute_force::ScanIndex::new(inner.clone());
        let mut cx = QueryContext::new();
        for kind in IndexKind::all_with_sharded() {
            let index = build_index(kind, &data, &IndexConfig::fast().with_shards(3));
            let c = data[11];
            let mut got: Vec<u64> = index
                .range_query(&c, 0.06, &mut cx)
                .iter()
                .map(|p| p.id)
                .collect();
            let mut truth: Vec<u64> = common::brute_force::range_query(&data, &c, 0.06)
                .iter()
                .map(|p| p.id)
                .collect();
            got.sort_unstable();
            truth.sort_unstable();
            assert_eq!(got, truth, "{} range answer differs", kind.name());
            assert_eq!(
                index.distance_join(&other, 0.02, &mut cx).len(),
                common::brute_force::distance_join(&data, &inner, 0.02).len(),
                "{} join pair count differs",
                kind.name()
            );
        }
    }

    #[test]
    fn exactness_flags_partition_the_families() {
        assert!(IndexKind::Grid.exact_windows());
        assert!(IndexKind::Rsmia.exact_windows());
        assert!(!IndexKind::Rsmi.exact_windows());
        assert!(!IndexKind::Zm.exact_knn());
        assert!(IndexKind::Rsmia.is_learned());
        assert!(!IndexKind::Kdb.is_learned());
    }

    #[test]
    fn learned_kinds_expose_model_counts_through_the_trait() {
        let data = generate(Distribution::Uniform, 1500, 7);
        for kind in IndexKind::all() {
            let index = build_index(kind, &data, &IndexConfig::fast());
            if kind.is_learned() {
                assert!(index.model_count() > 0, "{} has no models", kind.name());
            } else {
                assert_eq!(index.model_count(), 0, "{}", kind.name());
            }
        }
    }

    #[test]
    fn boxed_indices_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn SpatialIndex>();
        assert_send_sync::<Box<dyn SpatialIndex>>();
    }

    #[test]
    fn snapshot_bytes_roundtrip_through_the_kind_tag() {
        let data = generate(Distribution::Uniform, 600, 9);
        for kind in [IndexKind::Grid, IndexKind::Rsmi, BaseKind::Kdb.sharded()] {
            let index = build_index(kind, &data, &IndexConfig::fast().with_shards(3));
            let bytes = snapshot_bytes(index.as_ref()).expect("serialise");
            let loaded = load_index_bytes(&bytes).expect("load");
            assert_eq!(loaded.name(), kind.name());
            assert_eq!(loaded.len(), index.len());
            let mut cx = QueryContext::new();
            for p in data.iter().step_by(53) {
                assert_eq!(
                    loaded.point_query(p, &mut cx).map(|f| f.id),
                    Some(p.id),
                    "{} lost a point across the snapshot",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn save_and_load_roundtrip_through_a_file() {
        let data = generate(Distribution::Normal, 400, 21);
        let index = build_index(IndexKind::Hrr, &data, &IndexConfig::fast());
        let path = std::env::temp_dir().join(format!(
            "rsmi-registry-test-{}.snapshot",
            std::process::id()
        ));
        save_index(index.as_ref(), &path).expect("save");
        let loaded = load_index(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.name(), "HRR");
        assert_eq!(loaded.len(), data.len());
    }

    #[test]
    fn loading_garbage_reports_typed_errors() {
        assert!(matches!(
            load_index_bytes(b"definitely not a snapshot"),
            Err(PersistError::BadMagic)
        ));
        assert!(matches!(
            load_index(Path::new("/nonexistent/rsmi.snapshot")),
            Err(PersistError::Io(_))
        ));
        // A valid header whose kind tag names no registered family.
        let w = persist::SnapshotWriter::new("NoSuchFamily");
        assert!(matches!(
            load_index_bytes(&w.finish()),
            Err(PersistError::UnknownKind(k)) if k == "NoSuchFamily"
        ));
    }

    #[test]
    fn serve_index_wraps_any_kind_with_live_writes() {
        let data = generate(Distribution::Uniform, 500, 33);
        let scfg = ServerConfig::default().with_auto_compact(false);
        for kind in [IndexKind::Hrr, BaseKind::Grid.sharded()] {
            let server = serve_index(kind, &data, &IndexConfig::fast().with_shards(3), scfg);
            let mut cx = QueryContext::new();
            assert_eq!(server.len(), data.len());
            let extra = Point::with_id(0.111, 0.222, 700_000);
            server.insert(extra);
            let (removed, _) = server.delete(&data[5]);
            assert!(removed);
            assert_eq!(
                server.point_query(&extra, &mut cx).map(|p| p.id),
                Some(extra.id)
            );
            assert!(server.point_query(&data[5], &mut cx).is_none());
            // Compaction rebuilds through the registry and preserves answers.
            assert!(server.compact_now());
            assert_eq!(server.stats().epoch, 1);
            assert_eq!(
                server.point_query(&extra, &mut cx).map(|p| p.id),
                Some(extra.id)
            );
            assert!(server.point_query(&data[5], &mut cx).is_none());
            assert_eq!(server.len(), data.len());
        }
    }

    #[test]
    fn serve_index_maintains_learned_kinds_incrementally() {
        let data = generate(Distribution::Uniform, 800, 39);
        let scfg = ServerConfig::default().with_auto_compact(false);
        for kind in [IndexKind::Rsmi, IndexKind::Rsmia] {
            let server = serve_index(kind, &data, &IndexConfig::fast(), scfg);
            let mut cx = QueryContext::new();
            let mut inserted = Vec::new();
            let mut deleted = Vec::new();
            for i in 0..60u64 {
                let p = Point::with_id(
                    (0.013 * i as f64) % 1.0,
                    (0.029 * i as f64) % 1.0,
                    800_000 + i,
                );
                server.insert(p);
                inserted.push(p);
                if i % 5 == 0 {
                    // Skip index 0: its id is 0, the trait-level wildcard.
                    let victim = data[1 + (i as usize * 11) % (data.len() - 1)];
                    if server.delete(&victim).0 {
                        deleted.push(victim);
                    }
                }
            }
            assert!(server.maintain_now());
            let stats = server.stats();
            assert_eq!(
                stats.partial_compactions, 1,
                "{kind:?} did not run a partial pass"
            );
            // The partially rebuilt base still answers exactly.
            for p in &inserted {
                assert_eq!(server.point_query(p, &mut cx).map(|f| f.id), Some(p.id));
            }
            for p in &deleted {
                assert!(server.point_query(p, &mut cx).is_none());
            }
        }
    }

    #[test]
    fn serve_snapshot_bytes_warm_starts_exact_kinds() {
        let data = generate(Distribution::Normal, 400, 35);
        let cfg = IndexConfig::fast();
        let index = build_index(IndexKind::Kdb, &data, &cfg);
        let bytes = snapshot_bytes(index.as_ref()).expect("serialise");
        let scfg = ServerConfig::default().with_auto_compact(false);
        let server = serve_snapshot_bytes(&bytes, &cfg, scfg).expect("warm start");
        assert_eq!(server.len(), data.len());
        let mut cx = QueryContext::new();
        assert_eq!(
            server.point_query(&data[9], &mut cx).map(|p| p.id),
            Some(data[9].id)
        );
        // The warm-started server still compacts: writes fold into a fresh
        // base built by the registry.
        server.insert(Point::with_id(0.4321, 0.1234, 900_000));
        assert!(server.compact_now());
        assert_eq!(server.len(), data.len() + 1);

        // Garbage bytes surface the persist error, not a panic.
        assert!(matches!(
            serve_snapshot_bytes(b"garbage", &cfg, scfg),
            Err(PersistError::BadMagic)
        ));
    }
}
