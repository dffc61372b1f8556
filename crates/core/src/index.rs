//! The RSMI index: the structure, its bulk-load and statistics, and its one
//! public query surface, [`SpatialIndex`].  The trait's methods live in the
//! seam modules, one per part of the paper:
//!
//! * `query`: descent and Algorithms 1–3 (§4);
//! * `update`: insert, delete and slot reuse (§5);
//! * `repair`: drift, partial rebuilds and leaf repair (§5, RSMIr);
//! * `snapshot`: the persisted form.
//!
//! The exact (RSMIa) traversals run over the directory view in
//! [`crate::exact`].

mod query;
mod repair;
mod snapshot;
mod update;

use crate::build::Builder;
use crate::exact::ExactView;
use crate::node::{LeafNode, Node, NodeId};
use crate::pmf::PiecewiseCdf;
use crate::RsmiConfig;
use common::{CopyVisit, MaintenanceBudget, MaintenanceStats, QueryContext, SpatialIndex};
use geom::{Point, Rect};
use persist::{PersistError, SnapshotWriter};
use storage::{directory, BlockStore};

/// Summary statistics of a built RSMI (Tables 3 and 4 of the paper).
#[derive(Debug, Clone, Copy)]
pub struct RsmiStats {
    /// Number of indexed points.
    pub n_points: usize,
    /// Structure height (number of model levels).
    pub height: usize,
    /// Total number of learned sub-models.
    pub model_count: usize,
    /// Number of leaf models.
    pub leaf_count: usize,
    /// Average number of sub-models invoked to reach a data block, weighted
    /// by the number of points under each leaf.
    pub avg_depth: f64,
    /// Largest under-prediction bound (`err_ℓ`) over all leaf models.
    pub max_err_below: u64,
    /// Largest over-prediction bound (`err_a`) over all leaf models.
    pub max_err_above: u64,
    /// Total index size in bytes (blocks + models + directory).
    pub size_bytes: usize,
    /// Wall-clock construction time in seconds.
    pub build_seconds: f64,
}

/// The Recursive Spatial Model Index.
///
/// See the crate-level documentation for an overview and a usage example.
/// Queries, updates and maintenance go through [`SpatialIndex`].  Window
/// and kNN answers are **approximate** (high recall, no false positives);
/// [`Rsmi::into_exact`] gives the paper's RSMIa variant, which answers them
/// exactly.  Distance-range queries and distance joins are exact for *both*
/// variants.
#[derive(Debug, Clone)]
pub struct Rsmi {
    config: RsmiConfig,
    /// Whether window and kNN queries take the exact traversals (RSMIa).
    /// Not part of `config`: a snapshot's kind tag records the variant.
    exact: bool,
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: Option<NodeId>,
    pub(crate) store: BlockStore,
    n_points: usize,
    height: usize,
    model_count: usize,
    cdf_x: PiecewiseCdf,
    cdf_y: PiecewiseCdf,
    build_seconds: f64,
    /// Per-node maintenance counters, indexed like `nodes` (internal slots
    /// stay zero).  Not part of query state: drift tracking only.
    maint: Vec<LeafMaint>,
}

/// Drift counters of one leaf: how far its model has degraded since its
/// weights were last trained, and its block layout since it was last packed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LeafMaint {
    /// Inserts + deletes routed through this leaf since its model was
    /// (re)trained.
    ops_since_train: u64,
    /// Inserts + deletes routed through this leaf since its blocks were
    /// last packed (by the build or a repair).  Not persisted: a loaded
    /// index starts it at `ops_since_train`.
    ops_since_pack: u64,
    /// Error-bound widening below predictions (blocks) applied by in-place
    /// inserts since the last packing.
    widened_below: u64,
    /// Error-bound widening above predictions (blocks).
    widened_above: u64,
}

impl LeafMaint {
    #[inline]
    fn widened_total(&self) -> u64 {
        self.widened_below + self.widened_above
    }

    #[inline]
    fn count_op(&mut self) {
        self.ops_since_train += 1;
        self.ops_since_pack += 1;
    }
}

/// Per-insert cap on error-bound widening, in blocks: a free slot farther
/// than this outside the predicted range is not worth covering — the insert
/// overflows instead and the accumulated drift triggers a retrain.
const WIDEN_CAP_PER_INSERT: u64 = 4;
/// Per-leaf cap on accumulated widening, in blocks.  Once a leaf has
/// widened this much, the slot-reuse path shuts off (every further insert
/// overflows) until a repair resets the bounds.
const WIDEN_CAP_PER_LEAF: u64 = 32;
/// Drift since the last packing (see `repair::leaf_drift`) at which a
/// partial pass re-packs a leaf's blocks, far below the default refit
/// trigger (1.0): a leaf's layout is repaired about twelve times between
/// refits of its model.  On a 200 k index after 112 k churn writes, 0.09
/// let a kNN open 1.51x the blocks of a fresh build (0.08: 1.39x); lower
/// values repair more leaves per pass.
const REPAIR_DRIFT: f64 = 0.08;

impl Rsmi {
    /// Bulk-loads an RSMI from a point set.  The root's subtrees are built
    /// on every available core; the index is the same on any number.
    pub fn build(points: Vec<Point>, config: RsmiConfig) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::build_on(points, config, threads)
    }

    /// [`Rsmi::build`] on `threads` workers.
    pub(crate) fn build_on(points: Vec<Point>, config: RsmiConfig, threads: usize) -> Self {
        let start = std::time::Instant::now();
        let n_points = points.len();
        let marginal_cdf = |coord: fn(&Point) -> f64| {
            let values: Vec<f64> = points.iter().map(coord).collect();
            PiecewiseCdf::fit(&values, config.cdf_pieces)
        };
        let cdf_x = marginal_cdf(|p| p.x);
        let cdf_y = marginal_cdf(|p| p.y);
        let out = Builder::run(config, points, threads);
        let maint = vec![LeafMaint::default(); out.nodes.len()];
        Self {
            config,
            exact: false,
            nodes: out.nodes,
            root: out.root,
            store: out.store,
            n_points,
            height: out.height,
            model_count: out.model_count,
            cdf_x,
            cdf_y,
            build_seconds: start.elapsed().as_secs_f64(),
            maint,
        }
    }

    /// This index answering window and kNN queries **exactly** — the
    /// paper's RSMIa: an R-tree-style traversal over the MBRs stored with
    /// every sub-model replaces the learned scan range.  The structure is
    /// unchanged, and rebuilds and inserts keep the variant.
    pub fn into_exact(mut self) -> Self {
        self.exact = true;
        self
    }

    /// The configuration used to build the index.
    pub fn config(&self) -> &RsmiConfig {
        &self.config
    }

    /// Statistics of the built structure.
    pub fn stats(&self) -> RsmiStats {
        let mut leaf_count = 0usize;
        let mut max_below = 0u64;
        let mut max_above = 0u64;
        for node in &self.nodes {
            if let Node::Leaf(leaf) = node {
                leaf_count += 1;
                max_below = max_below.max(leaf.model.err_below());
                max_above = max_above.max(leaf.model.err_above());
            }
        }
        RsmiStats {
            n_points: self.n_points,
            height: self.height,
            model_count: self.model_count,
            leaf_count,
            avg_depth: self.average_depth(),
            max_err_below: max_below,
            max_err_above: max_above,
            size_bytes: SpatialIndex::size_bytes(self),
            build_seconds: self.build_seconds,
        }
    }

    /// Average number of sub-models invoked to reach a data block, weighted
    /// by points per leaf (reported in §6.2.2).
    fn average_depth(&self) -> f64 {
        let Some(root) = self.root else { return 0.0 };
        let mut total_depth = 0f64;
        let mut total_points = 0f64;
        let mut stack = vec![(root, 1usize)];
        while let Some((id, depth)) = stack.pop() {
            match &self.nodes[id] {
                Node::Internal(n) => {
                    for child in n.children.iter().flatten() {
                        stack.push((*child, depth + 1));
                    }
                }
                Node::Leaf(leaf) => {
                    let pts: usize = (0..leaf.n_blocks)
                        .map(|i| self.store.block(leaf.first_block + i).len())
                        .sum();
                    total_depth += (depth * pts) as f64;
                    total_points += pts as f64;
                }
            }
        }
        if total_points == 0.0 {
            0.0
        } else {
            total_depth / total_points
        }
    }

    /// Number of overflow blocks linked into the chain — the `I` of the
    /// paper's update cost analysis.  Blocks a repair emptied and the store
    /// keeps for reuse do not count.
    pub fn overflow_block_count(&self) -> usize {
        let all = self.store.iter().filter(|(_, b)| b.is_overflow()).count();
        all - self.store.free_len()
    }

    /// Read access to the underlying block store.
    pub fn block_store(&self) -> &BlockStore {
        &self.store
    }

    fn leaf(&self, id: NodeId) -> &LeafNode {
        match &self.nodes[id] {
            Node::Leaf(l) => l,
            Node::Internal(_) => unreachable!("descend always ends at a leaf"),
        }
    }
}

impl SpatialIndex for Rsmi {
    fn name(&self) -> &'static str {
        if self.exact {
            "RSMIa"
        } else {
            "RSMI"
        }
    }

    fn len(&self) -> usize {
        self.n_points
    }

    fn point_query_visit(&self, q: &Point, cx: &mut QueryContext, visit: &mut CopyVisit) {
        query::point(self, q, cx, visit)
    }

    fn window_query_visit(
        &self,
        window: &Rect,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        if self.exact {
            directory::window(&mut ExactView { index: self, cx }, window, visit)
        } else {
            query::window(self, window, cx, visit)
        }
    }

    fn knn_query_visit(
        &self,
        q: &Point,
        k: usize,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        if self.exact {
            // Best-first over the sub-model MBRs, closest first.
            directory::knn(&mut ExactView { index: self, cx }, q, k, visit)
        } else {
            query::knn(self, q, k, cx, visit)
        }
    }

    /// Exact for both variants: the learned scan-range prediction cannot
    /// bound a circle (curve values inside a Hilbert window are not
    /// bracketed by its corners), so distance queries always take the
    /// MBR-guided traversal.
    fn range_query_visit(
        &self,
        center: &Point,
        radius: f64,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        directory::range(&mut ExactView { index: self, cx }, center, radius, visit)
    }

    fn for_each_point(&self, visit: &mut dyn FnMut(&Point)) {
        self.store.for_each_point(visit)
    }

    fn distance_join_probes(
        &self,
        probes: &[Point],
        radius: f64,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point, &Point),
    ) {
        // One traversal of the model tree carries every probe: each node's
        // MBR discards the probes beyond the radius before descending, and
        // each surviving block is read once for all probes that reach it.
        directory::distance_join(&mut ExactView { index: self, cx }, probes, radius, visit)
    }

    fn insert(&mut self, p: Point) {
        update::insert(self, p)
    }

    fn delete(&mut self, p: &Point) -> bool {
        update::delete(self, p)
    }

    /// The paper's **RSMIr** periodic rebuild (it retrains the sub-models
    /// that exceeded the partition threshold after every 10 % of
    /// insertions): a fresh bulk-load of the live points in storage order,
    /// which restores the optimal layout at a coarser granularity than
    /// [`SpatialIndex::rebuild_partial`], the per-leaf path.
    fn rebuild(&mut self) {
        let mut points = Vec::with_capacity(self.n_points);
        self.for_each_point(&mut |p| points.push(*p));
        *self = Rsmi {
            exact: self.exact,
            ..Rsmi::build(points, self.config)
        };
    }

    fn size_bytes(&self) -> usize {
        self.store.size_bytes()
            + self.nodes.iter().map(Node::size_bytes).sum::<usize>()
            + self.cdf_x.size_bytes()
            + self.cdf_y.size_bytes()
    }

    fn height(&self) -> usize {
        self.height
    }

    fn model_count(&self) -> usize {
        self.model_count
    }

    fn model_error_bounds(&self) -> Option<(u64, u64)> {
        let stats = self.stats();
        Some((stats.max_err_below, stats.max_err_above))
    }

    fn maintenance_stats(&self) -> Option<MaintenanceStats> {
        Some(repair::maintenance_stats(self))
    }

    fn rebuild_partial(&mut self, budget: &MaintenanceBudget) -> usize {
        repair::rebuild_partial(self, budget)
    }

    fn clone_index(&self) -> Option<Box<dyn SpatialIndex>> {
        Some(Box::new(self.clone()))
    }

    fn write_snapshot(&self, w: &mut SnapshotWriter) -> Result<(), PersistError> {
        snapshot::encode(self, w);
        Ok(())
    }
}

#[cfg(test)]
mod tests;
