//! The RSMI index: queries (§4), updates (§5), and statistics.

use crate::build::Builder;
use crate::node::{InternalNode, LeafNode, Node, NodeId};
use crate::pmf::PiecewiseCdf;
use crate::RsmiConfig;
use common::{knn, QueryContext, SpatialIndex};
use geom::{order_key, Point, Rect};
use mlp::ScaledRegressor;
use persist::{PersistError, SnapshotReader, SnapshotWriter};
use sfc::CurveKind;
use storage::{BlockId, BlockStore};

/// Section tag of the RSMI metadata (config and counts).
const SECTION_RSMI_META: u32 = 0x5101;
/// Section tag of the RSMI node arena (models, MBRs, block ranges).  The
/// retired `0x5102` held the same record with leaf error bounds measured
/// under the libm sigmoid; today's `predict` can move a prediction across
/// them, so that tag is refused rather than loaded unsound.
const SECTION_RSMI_NODES: u32 = 0x5105;
/// Section tag of the marginal CDFs used by the kNN search region.
const SECTION_RSMI_CDF: u32 = 0x5103;
/// Section tag of the per-leaf maintenance state (drift counters).
const SECTION_RSMI_MAINT: u32 = 0x5104;

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
/// Window and kNN answers are **approximate** (high recall, no false
/// positives); wrap the index in [`crate::RsmiExact`] for the paper's RSMIa variant
/// with exact answers.  Distance-range queries and distance joins are exact
/// for *both* variants (see [`Rsmi::range_query_exact_visit`]).
#[derive(Debug, Clone)]
pub struct Rsmi {
    config: RsmiConfig,
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
/// Drift since the last packing (see `leaf_drift`) at which a partial pass
/// re-packs a leaf's blocks, far below the default refit trigger (1.0): a
/// leaf's layout is repaired about twelve times between refits of its
/// model.  On a 200 k index after 112 k churn writes, 0.09 let a kNN open
/// 1.51x the blocks of a fresh build (0.08: 1.39x); lower values repair
/// more leaves per pass.
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
    pub fn average_depth(&self) -> f64 {
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

    /// Collects all live points in storage order (used by rebuild and tests).
    pub fn collect_points(&self) -> Vec<Point> {
        self.store
            .iter()
            .flat_map(|(_, b)| b.iter_points())
            .collect()
    }

    /// Fully rebuilds the index from its current contents.
    ///
    /// This realises the paper's **RSMIr** variant: a periodic rebuild (the
    /// paper retrains the sub-models that exceeded the partition threshold
    /// after every 10 % of insertions; the reproduction rebuilds the whole
    /// structure, which restores optimal layout at a coarser granularity;
    /// [`Rsmi::rebuild_partial`] is the per-leaf path).
    pub fn rebuild(&mut self) {
        let points = self.collect_points();
        let rebuilt = Rsmi::build(points, self.config);
        *self = rebuilt;
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// Descends from the root to a leaf following model predictions
    /// (Algorithm 1, lines 1–3), charging one node visit per internal model
    /// invoked and reporting each `(internal node, chosen child cell)` to
    /// `step`.  Returns the leaf ID.
    fn descend_with(
        &self,
        x: f64,
        y: f64,
        cx: &mut QueryContext,
        mut step: impl FnMut(NodeId, usize),
    ) -> Option<NodeId> {
        let mut cur = self.root?;
        loop {
            match &self.nodes[cur] {
                Node::Leaf(_) => return Some(cur),
                Node::Internal(node) => {
                    cx.count_node();
                    let j = node.model.predict_xy(x, y) as usize;
                    let (cell, child) = node.nearest_child(j)?;
                    step(cur, cell);
                    cur = child;
                }
            }
        }
    }

    /// The leaf a location routes to — the read paths' descent, which keeps
    /// no path.
    #[inline]
    fn descend(&self, x: f64, y: f64, cx: &mut QueryContext) -> Option<NodeId> {
        self.descend_with(x, y, cx, |_, _| {})
    }

    fn leaf(&self, id: NodeId) -> &LeafNode {
        match &self.nodes[id] {
            Node::Leaf(l) => l,
            Node::Internal(_) => unreachable!("descend always ends at a leaf"),
        }
    }

    // ------------------------------------------------------------------
    // Point queries (§4.1)
    // ------------------------------------------------------------------

    /// Point query (Algorithm 1): returns the indexed point with exactly the
    /// query coordinates, if present.  Walks the predicted range in chain
    /// order and opens only the blocks whose MBR contains the key.
    pub fn point_query(&self, q: &Point, cx: &mut QueryContext) -> Option<Point> {
        let leaf = self.leaf(self.descend(q.x, q.y, cx)?);
        let (lo, hi) = leaf.predicted_range(q.x, q.y);
        for (_, block) in self.store.chain_range(lo, hi) {
            if block.mbr().contains(q) {
                cx.count_block_scan(block.len());
                if let Some(p) = block.find_at(q.x, q.y) {
                    return Some(p);
                }
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Window queries (§4.2)
    // ------------------------------------------------------------------

    /// The anchor points whose predicted blocks bound the scan range: the
    /// bottom-left and top-right corners for Z-ordered data, all four
    /// corners for Hilbert-ordered data (§4.2).
    fn window_anchors(&self, window: &Rect) -> impl Iterator<Item = Point> {
        let corners = window.corners();
        let picks: &[usize] = match self.config.curve {
            CurveKind::Z => &[0, 3],
            CurveKind::Hilbert => &[0, 1, 2, 3],
        };
        picks.iter().map(move |&i| corners[i])
    }

    /// Predicted global block range `[begin, end]` covering a window, from
    /// the error-bounded predictions of its anchor points.
    fn window_block_range(
        &self,
        window: &Rect,
        cx: &mut QueryContext,
    ) -> Option<(BlockId, BlockId)> {
        let mut begin = usize::MAX;
        let mut end = 0usize;
        for anchor in self.window_anchors(window) {
            let leaf = self.leaf(self.descend(anchor.x, anchor.y, cx)?);
            let (lo, hi) = leaf.predicted_range(anchor.x, anchor.y);
            begin = begin.min(lo);
            end = end.max(hi);
        }
        if begin == usize::MAX {
            None
        } else {
            Some((begin, end.max(begin)))
        }
    }

    /// Window query (Algorithm 2), visitor form: predict the chain range
    /// from the anchors, test each block's MBR in its header, open only the
    /// blocks that intersect the window.
    ///
    /// The answer is **approximate**: it never contains points outside the
    /// window (results are filtered), but points whose blocks fall outside
    /// the predicted scan range may be missed.  The paper reports recall
    /// above 87 % across all settings; use [`Rsmi::window_query_exact_visit`]
    /// (or the [`crate::RsmiExact`] wrapper) when exact answers are required.
    pub fn window_query_visit(
        &self,
        window: &Rect,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        let Some((begin, end)) = self.window_block_range(window, cx) else {
            return;
        };
        for (_, block) in self.store.chain_range(begin, end) {
            if block.mbr().intersects(window) {
                cx.count_block_scan(block.len());
                block.for_each_in_rect(window, |p| visit(&p));
            }
        }
    }

    // ------------------------------------------------------------------
    // kNN queries (§4.3)
    // ------------------------------------------------------------------

    /// Approximate kNN query (Algorithm 3), visitor form:
    /// [`common::knn::expand`] around the query point, with the initial
    /// region sized by the learned marginal CDFs (Equation 6).  Each region
    /// opens the blocks of its predicted chain range nearest first, by
    /// header-MBR distance, and stops at the first that lies beyond the
    /// running k-th distance.  Visits results closest first.
    pub fn knn_query_visit(
        &self,
        q: &Point,
        k: usize,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        let skew = self.knn_skew(q);
        // One bit per block opened by this query.  A later, larger region
        // does not open a block again: every point of it has been offered,
        // and the k-th bound only tightens, so what was rejected stays
        // rejected (likewise a block skipped on its MBR stays skipped).
        let mut opened = vec![0u64; self.store.len().div_ceil(64)];
        // `(MINDIST², id)` of a region's unopened, non-empty blocks.
        let mut order: Vec<(f64, BlockId)> = Vec::new();
        let best = knn::expand(
            q,
            k,
            self.n_points,
            skew,
            cx,
            |region, best, cx| {
                let Some((begin, end)) = self.window_block_range(region, cx) else {
                    return;
                };
                order.clear();
                order.extend(
                    self.store
                        .chain_range(begin, end)
                        .filter(|&(id, block)| {
                            opened[id / 64] & (1u64 << (id % 64)) == 0 && !block.is_empty()
                        })
                        .map(|(id, block)| (block.mbr().min_dist_sq(q), id)),
                );
                order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                for &(d_sq, id) in &order {
                    // Every later block is at least as far.  A point exactly
                    // at the k-th distance still enters on a smaller id, so
                    // the stop is strict and the answer is the exact top-k
                    // over the range's blocks, whatever the open order.
                    if d_sq > best.bound() {
                        break;
                    }
                    opened[id / 64] |= 1u64 << (id % 64);
                    let block = self.store.block(id);
                    cx.count_block_scan(block.len());
                    block.for_each_dist_sq(q, |p, d_sq| best.offer(p, d_sq));
                }
            },
            // The learned routing missed some blocks even for a
            // space-covering region: scan everything.
            |best, cx| {
                for (_, block) in self.store.iter() {
                    cx.count_block_scan(block.len());
                    block.for_each_dist_sq(q, |p, d_sq| best.offer(p, d_sq));
                }
            },
        );
        best.iter().for_each(visit);
    }

    /// Per-axis density correction of the first kNN region (Equation 6),
    /// from the learned marginal CDFs.
    fn knn_skew(&self, q: &Point) -> (f64, f64) {
        let delta = 0.01;
        (self.cdf_x.alpha(q.x, delta), self.cdf_y.alpha(q.y, delta))
    }

    // ------------------------------------------------------------------
    // Updates (§5)
    // ------------------------------------------------------------------

    /// Inserts a point.
    ///
    /// The point is placed in the block predicted by the index; if that
    /// block (and the overflow blocks already chained after it) is full, a
    /// new overflow block is spliced in after it.  MBRs along the routing
    /// path are enlarged so the exact-query variants stay correct.
    pub fn insert(&mut self, p: Point) {
        if self.root.is_none() {
            *self = Rsmi::build(vec![p], self.config);
            return;
        }
        // Updates are maintenance, not queries: route with a throwaway
        // context so nothing is charged to any caller's statistics.
        let mut scratch = QueryContext::new();
        let mut path = Vec::with_capacity(self.height);
        let routed = self.descend_with(p.x, p.y, &mut scratch, |node_id, cell| {
            path.push((node_id, cell));
        });
        let Some(leaf_id) = routed else {
            return;
        };
        // Enlarge MBRs along the path (§5: "recursively update the MBRs of
        // the ancestor models").
        for (node_id, cell) in path {
            if let Node::Internal(node) = &mut self.nodes[node_id] {
                node.mbr.expand_to_point(p);
                node.child_mbrs[cell].expand_to_point(p);
            }
        }
        let (predicted, leaf_first, leaf_blocks) = {
            let leaf = self.leaf(leaf_id);
            (
                leaf.global_block(leaf.model.predict_xy(p.x, p.y)),
                leaf.first_block,
                leaf.n_blocks,
            )
        };
        debug_assert!(predicted >= leaf_first && predicted < leaf_first + leaf_blocks);
        if let Node::Leaf(leaf) = &mut self.nodes[leaf_id] {
            leaf.mbr.expand_to_point(p);
        }
        // Find space in the predicted block or its overflow chain.
        let mut tail = predicted;
        let mut target = None;
        for (id, block) in self.store.overflow_chain(predicted) {
            tail = id;
            if !block.is_full() {
                target = Some(id);
                break;
            }
        }
        // The predicted chain is full: before growing it with a fresh
        // overflow block, try a free slot in another of the leaf's bulk
        // blocks (freed by deletes, or the bulk tail), widening the model's
        // error bounds just enough to keep the point findable.  Bounded
        // widening instead of chain growth; the next drift-triggered retrain
        // reclaims the slack.
        let target = match target {
            Some(id) => id,
            None => match self.reusable_leaf_slot(leaf_id, &p) {
                Some(alt) => alt,
                None => self.store.insert_overflow_after(tail),
            },
        };
        self.store.block_mut(target).push(p);
        self.n_points += 1;
        self.maint[leaf_id].count_op();
    }

    /// A non-full bulk block of `leaf_id` that can absorb `p` for at most
    /// [`WIDEN_CAP_PER_INSERT`] blocks of error-bound widening (zero if the
    /// block is already inside the predicted range), or `None` if no such
    /// slot exists or the leaf has exhausted [`WIDEN_CAP_PER_LEAF`].  Among
    /// those, the block whose MBR area grows least takes `p` (ties: fewer
    /// blocks of widening, then the lower id), so reused slots keep block
    /// MBRs tight for the reads' header tests.  Applies the widening and
    /// charges it to the leaf's drift counters.
    fn reusable_leaf_slot(&mut self, leaf_id: NodeId, p: &Point) -> Option<BlockId> {
        if self.maint[leaf_id].widened_total() >= WIDEN_CAP_PER_LEAF {
            return None;
        }
        let (first, n_blocks, pred_lo, pred_hi) = {
            let leaf = self.leaf(leaf_id);
            let (lo, hi) = leaf.predicted_range(p.x, p.y);
            (leaf.first_block, leaf.n_blocks, lo, hi)
        };
        let key = Rect::from_point(*p);
        let mut best: Option<(f64, u64, BlockId)> = None;
        for i in 0..n_blocks {
            let base = first + i;
            let block = self.store.block(base);
            if block.is_full() {
                continue;
            }
            let dist = if base < pred_lo {
                (pred_lo - base) as u64
            } else if base > pred_hi {
                (base - pred_hi) as u64
            } else {
                0
            };
            if dist > WIDEN_CAP_PER_INSERT {
                continue;
            }
            let growth = block.mbr().enlargement(&key);
            // Ascending ids: a strict win keeps the lower id on a tie.
            if best.is_none_or(|(g, d, _)| (order_key(growth), dist) < (order_key(g), d)) {
                best = Some((growth, dist, base));
            }
        }
        let (_, _, base) = best?;
        let offset = (base - first) as u64;
        if let Node::Leaf(leaf) = &mut self.nodes[leaf_id] {
            let (extra_below, extra_above) = leaf.model.widen_to_cover_xy(p.x, p.y, offset);
            self.maint[leaf_id].widened_below += extra_below;
            self.maint[leaf_id].widened_above += extra_above;
        }
        Some(base)
    }

    /// Deletes every stored copy with the given coordinates and id.
    /// Returns whether any was removed.  Blocks are never shrunk (§5), so
    /// error bounds remain valid; the freed slots are reused by later
    /// insertions.
    pub fn delete(&mut self, p: &Point) -> bool {
        let mut scratch = QueryContext::new();
        let Some(leaf_id) = self.descend(p.x, p.y, &mut scratch) else {
            return false;
        };
        let (lo, hi) = self.leaf(leaf_id).predicted_range(p.x, p.y);
        let removed = self.store.remove_in_chain_range(lo, hi, p);
        if removed == 0 {
            return false;
        }
        self.n_points -= removed;
        self.maint[leaf_id].count_op();
        true
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

    // ------------------------------------------------------------------
    // Incremental maintenance (drift-triggered partial rebuilds)
    // ------------------------------------------------------------------

    /// Drift score of one leaf over `ops` mutations,
    /// `ops / (n_blocks · B) + widened / n_blocks`: mutations normalised by
    /// the leaf's bulk capacity, plus error-bound widening normalised by its
    /// block count.
    /// Over the ops since training, a score of 1.0 means the leaf has
    /// absorbed as many mutations as it holds points, or its scan range has
    /// doubled; either way its model is due for a refit.  Over the ops since
    /// the last packing it measures the wear of the block layout.
    fn leaf_drift(&self, leaf_id: NodeId, ops: u64) -> f64 {
        let m = &self.maint[leaf_id];
        if ops == 0 && m.widened_total() == 0 {
            return 0.0;
        }
        let leaf = self.leaf(leaf_id);
        let n_blocks = leaf.n_blocks.max(1) as f64;
        let capacity_points = n_blocks * self.store.capacity().max(1) as f64;
        ops as f64 / capacity_points + m.widened_total() as f64 / n_blocks
    }

    /// Aggregate maintenance state over all leaf models.  `stale_subtrees`
    /// counts leaves whose drift since training (see `leaf_drift`) has
    /// reached 1.0.
    pub fn maintenance_stats(&self) -> common::MaintenanceStats {
        let mut s = common::MaintenanceStats::default();
        for (id, node) in self.nodes.iter().enumerate() {
            if !matches!(node, Node::Leaf(_)) {
                continue;
            }
            s.subtrees += 1;
            let m = &self.maint[id];
            s.ops_since_train += m.ops_since_train;
            s.widened_below += m.widened_below;
            s.widened_above += m.widened_above;
            if self.leaf_drift(id, m.ops_since_train) >= 1.0 {
                s.stale_subtrees += 1;
            }
        }
        s
    }

    /// Repairs worn leaves, most worn first (ties by node id), at most
    /// `budget.max_subtrees` of them — the incremental realisation of the
    /// paper's RSMIr hook (§5: maintain the sub-models that degraded, not
    /// the whole structure).  Returns the number of leaves repaired; the
    /// due leaves beyond the budget wait for a later call.
    ///
    /// A leaf is due when its drift since the last packing reaches
    /// `REPAIR_DRIFT`, or its drift since training is positive and meets
    /// `budget.drift_threshold`.  A repair re-packs the leaf's blocks (see
    /// `repair_leaf`); only a leaf at the drift threshold also refits its
    /// model.  Every stored point stays reachable and the answers of the
    /// exact query paths do not change; the approximate ones see tighter
    /// scan ranges and block MBRs.
    pub fn rebuild_partial(&mut self, budget: &common::MaintenanceBudget) -> usize {
        let mut due: Vec<(NodeId, f64, bool)> = (0..self.nodes.len())
            .filter(|&id| matches!(self.nodes[id], Node::Leaf(_)))
            .filter_map(|id| {
                let m = self.maint[id];
                let drift = self.leaf_drift(id, m.ops_since_train);
                let wear = self.leaf_drift(id, m.ops_since_pack);
                let refit = drift > 0.0 && drift >= budget.drift_threshold;
                (refit || wear >= REPAIR_DRIFT).then_some((id, wear, refit))
            })
            .collect();
        due.sort_by_key(|&(id, wear, _)| (std::cmp::Reverse(order_key(wear)), id));
        let take = budget.max_subtrees.min(due.len());
        for &(id, _, refit) in &due[..take] {
            self.repair_leaf(id, refit);
        }
        take
    }

    /// Re-packs one leaf: gathers the points of its bulk blocks and their
    /// overflow chains and spreads them evenly over the bulk blocks, the
    /// excess over as few overflow blocks as it needs, placed evenly along
    /// the leaf.  The points go in the leaf model's order (prediction, ties
    /// by curve key inside the leaf MBR), so later inserts land in blocks
    /// that hold their neighbours — unless plain curve order packs blocks
    /// with a smaller total MBR margin, as it does where the model cannot
    /// resolve the leaf's two dimensions.  The emptied overflow blocks go
    /// back to the store.  The error bounds become the exact maximum
    /// deviation of the new layout; with `refit`, the model is first
    /// refitted to it (the fit seed derives from the build seed and the leaf
    /// id) and its drift clock restarts.  Deterministic for a given store
    /// state.
    fn repair_leaf(&mut self, leaf_id: NodeId, refit: bool) {
        let (first, n_blocks) = {
            let leaf = self.leaf(leaf_id);
            (leaf.first_block, leaf.n_blocks)
        };
        let mut points = Vec::new();
        for i in 0..n_blocks {
            self.store.drain_chain(first + i, &mut points);
        }
        let mbr = geom::bounding_rect(&points).unwrap_or_else(Rect::empty);
        let leaf = self.leaf(leaf_id);
        let curve = self.config.curve;
        let keys: Vec<(u64, u64)> = points
            .iter()
            .map(|p| (leaf.model.predict_xy(p.x, p.y), curve_key(curve, &mbr, p)))
            .collect();
        // Indices into `points` by `(major, minor)` key, ties in drain order.
        // A curve key has 32 bits and a prediction is a block offset, so
        // each pair packs into one `u64`.
        let order_by = |key: fn(u64, u64) -> u64| {
            let mut idx: Vec<(u64, u32)> = (0..keys.len() as u32)
                .map(|i| {
                    let (pred, curve) = keys[i as usize];
                    (key(pred.min(u32::MAX as u64), curve), i)
                })
                .collect();
            idx.sort_unstable();
            idx.into_iter()
                .map(|(_, i)| i as usize)
                .collect::<Vec<usize>>()
        };
        let by_model = order_by(|pred, curve| pred << 32 | curve);
        let by_curve = order_by(|pred, curve| curve << 32 | pred);

        // Block `i` takes a share of the points proportional to its
        // capacity: `B`, plus `B` per overflow block placed after it.  Each
        // chunk is one block's contents, `(local block, range)`.
        let b = self.store.capacity();
        let n = points.len();
        let spill = n.saturating_sub(n_blocks * b).div_ceil(b);
        let mut extra = vec![0usize; n_blocks];
        for j in 0..spill {
            extra[(2 * j + 1) * n_blocks / (2 * spill)] += 1;
        }
        let total = b * (n_blocks + spill);
        let mut chunks = Vec::with_capacity(n_blocks + spill);
        let (mut start, mut cum) = (0, 0);
        for (i, extra) in extra.into_iter().enumerate() {
            cum += b * (1 + extra);
            let end = (cum * n).div_ceil(total);
            chunks.extend((start..end).step_by(b).map(|a| (i, a..end.min(a + b))));
            start = end;
        }
        let margin = |order: &[usize]| -> f64 {
            let mbr_of = |c: &[usize]| {
                c.iter().fold(Rect::empty(), |mut r, &k| {
                    r.expand_to_point(points[k]);
                    r
                })
            };
            chunks
                .iter()
                .map(|(_, r)| mbr_of(&order[r.clone()]).margin())
                .sum()
        };
        let ordered = if margin(&by_curve) < margin(&by_model) {
            by_curve
        } else {
            by_model
        };

        let (mut below, mut above) = (0u64, 0u64);
        // The chunks cover `ordered` front to back: a point's home offset.
        let mut homes = Vec::with_capacity(n);
        // `(local block, block)` the previous chunk went into.
        let mut tail = None;
        for (i, range) in chunks {
            let block = match tail {
                Some((prev, t)) if prev == i => self.store.insert_overflow_after(t),
                _ => first + i,
            };
            tail = Some((i, block));
            for &k in &ordered[range] {
                self.store.block_mut(block).push(points[k]);
                let pred = keys[k].0;
                let offset = i as u64;
                below = below.max(offset.saturating_sub(pred));
                above = above.max(pred.saturating_sub(offset));
                homes.push(offset);
            }
        }

        let m = &mut self.maint[leaf_id];
        *m = LeafMaint {
            ops_since_train: if refit { 0 } else { m.ops_since_train },
            ..LeafMaint::default()
        };
        let seed = self
            .config
            .seed
            .wrapping_add(leaf_id as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let (epochs, learning_rate) = (self.config.epochs, self.config.learning_rate);
        let Node::Leaf(leaf) = &mut self.nodes[leaf_id] else {
            unreachable!("repair_leaf takes a leaf");
        };
        leaf.mbr = mbr;
        if refit && n > 0 {
            let mut cfg = mlp::MlpConfig::for_coordinates(n_blocks.max(1));
            cfg.epochs = epochs;
            cfg.learning_rate = learning_rate;
            cfg.seed = seed;
            let inputs: Vec<[f64; 2]> = ordered
                .iter()
                .map(|&k| [points[k].x, points[k].y])
                .collect();
            leaf.model = ScaledRegressor::fit(cfg, &inputs, &homes);
        } else {
            leaf.model.set_error_bounds(below, above);
        }
    }

    /// Counts stored points whose home block lies outside the predicted
    /// range of their leaf's model — the error-bound soundness invariant
    /// (zero means every point is reachable by a point query).  Test/debug
    /// helper; walks all blocks.
    pub fn bounds_violations(&self) -> usize {
        let mut violations = 0;
        for node in &self.nodes {
            let Node::Leaf(leaf) = node else { continue };
            for i in 0..leaf.n_blocks {
                let base = leaf.first_block + i;
                for (_, block) in self.store.overflow_chain(base) {
                    for p in block.iter_points() {
                        let (lo, hi) = leaf.predicted_range(p.x, p.y);
                        if base < lo || base > hi {
                            violations += 1;
                        }
                    }
                }
            }
        }
        violations
    }

    // ------------------------------------------------------------------
    // Snapshots
    // ------------------------------------------------------------------

    /// Appends the complete structure (config, blocks, node arena with all
    /// trained sub-models, marginal CDFs) to a snapshot.  Loading never
    /// retrains anything: the saved weights and error bounds are served
    /// as-is.
    pub fn encode_snapshot(&self, w: &mut SnapshotWriter) {
        w.begin_section(SECTION_RSMI_META);
        w.put_usize(self.config.block_capacity);
        w.put_usize(self.config.partition_threshold);
        w.put_u8(curve_tag(self.config.curve));
        w.put_usize(self.config.epochs);
        w.put_f64(self.config.learning_rate);
        w.put_u64(self.config.seed);
        w.put_bool(self.config.use_rank_space);
        w.put_bool(self.config.group_by_prediction);
        w.put_usize(self.config.cdf_pieces);
        w.put_usize(self.config.max_depth);
        w.put_opt_usize(self.root);
        w.put_usize(self.n_points);
        w.put_usize(self.height);
        w.put_usize(self.model_count);
        w.put_f64(self.build_seconds);
        w.end_section();

        self.store.write_snapshot(w);

        w.begin_section(SECTION_RSMI_NODES);
        w.put_usize(self.nodes.len());
        for node in &self.nodes {
            match node {
                Node::Internal(n) => {
                    w.put_u8(0);
                    n.model.encode(w);
                    w.put_usize(n.children.len());
                    for child in &n.children {
                        w.put_opt_usize(*child);
                    }
                    for mbr in &n.child_mbrs {
                        w.put_rect(mbr);
                    }
                    w.put_rect(&n.mbr);
                }
                Node::Leaf(leaf) => {
                    w.put_u8(1);
                    leaf.model.encode(w);
                    w.put_usize(leaf.first_block);
                    w.put_usize(leaf.n_blocks);
                    w.put_rect(&leaf.mbr);
                }
            }
        }
        w.end_section();

        w.begin_section(SECTION_RSMI_CDF);
        self.cdf_x.encode(w);
        self.cdf_y.encode(w);
        w.end_section();

        w.begin_section(SECTION_RSMI_MAINT);
        w.put_usize(self.maint.len());
        for m in &self.maint {
            w.put_u64(m.ops_since_train);
            w.put_u64(m.widened_below);
            w.put_u64(m.widened_above);
        }
        w.end_section();
    }

    /// Reads an RSMI snapshot written by [`Rsmi::encode_snapshot`].
    pub fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        r.begin_section(SECTION_RSMI_META)?;
        let config = RsmiConfig {
            block_capacity: r.get_usize()?,
            partition_threshold: r.get_usize()?,
            curve: curve_from_tag(r.get_u8()?)?,
            epochs: r.get_usize()?,
            learning_rate: r.get_f64()?,
            seed: r.get_u64()?,
            use_rank_space: r.get_bool()?,
            group_by_prediction: r.get_bool()?,
            cdf_pieces: r.get_usize()?,
            max_depth: r.get_usize()?,
        };
        let root = r.get_opt_usize()?;
        let n_points = r.get_usize()?;
        let height = r.get_usize()?;
        let model_count = r.get_usize()?;
        let build_seconds = r.get_f64()?;
        r.end_section()?;

        let store = BlockStore::read_snapshot(r)?;

        r.begin_section(SECTION_RSMI_NODES)?;
        let n_nodes = r.get_len(1)?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let node = match r.get_u8()? {
                0 => {
                    let model = ScaledRegressor::decode(r)?;
                    let len = r.get_len(1)?;
                    let mut children = Vec::with_capacity(len);
                    for _ in 0..len {
                        let child = r.get_opt_usize()?;
                        if child.is_some_and(|c| c >= n_nodes) {
                            return Err(PersistError::Corrupt(
                                "RSMI child node out of range".into(),
                            ));
                        }
                        children.push(child);
                    }
                    let mut child_mbrs = Vec::with_capacity(len);
                    for _ in 0..len {
                        child_mbrs.push(r.get_rect()?);
                    }
                    let mbr = r.get_rect()?;
                    Node::Internal(InternalNode {
                        model,
                        children,
                        child_mbrs,
                        mbr,
                    })
                }
                1 => {
                    let model = ScaledRegressor::decode(r)?;
                    let first_block = r.get_usize()?;
                    let n_blocks = r.get_usize()?;
                    if n_blocks > 0
                        && first_block
                            .checked_add(n_blocks)
                            .is_none_or(|end| end > store.len())
                    {
                        return Err(PersistError::Corrupt(
                            "RSMI leaf block range out of range".into(),
                        ));
                    }
                    let mbr = r.get_rect()?;
                    Node::Leaf(LeafNode {
                        model,
                        first_block,
                        n_blocks,
                        mbr,
                    })
                }
                other => {
                    return Err(PersistError::Corrupt(format!(
                        "unknown RSMI node kind byte {other}"
                    )))
                }
            };
            nodes.push(node);
        }
        if root.is_some_and(|root| root >= n_nodes) {
            return Err(PersistError::Corrupt("RSMI root out of range".into()));
        }
        r.end_section()?;

        r.begin_section(SECTION_RSMI_CDF)?;
        let cdf_x = PiecewiseCdf::decode(r)?;
        let cdf_y = PiecewiseCdf::decode(r)?;
        r.end_section()?;

        r.begin_section(SECTION_RSMI_MAINT)?;
        let len = r.get_len(24)?;
        if len != nodes.len() {
            return Err(PersistError::Corrupt(
                "RSMI maintenance table length mismatch".into(),
            ));
        }
        let mut maint = Vec::with_capacity(len);
        for _ in 0..len {
            let ops_since_train = r.get_u64()?;
            maint.push(LeafMaint {
                ops_since_train,
                ops_since_pack: ops_since_train,
                widened_below: r.get_u64()?,
                widened_above: r.get_u64()?,
            });
        }
        r.end_section()?;

        Ok(Self {
            config,
            nodes,
            root,
            store,
            n_points,
            height,
            model_count,
            cdf_x,
            cdf_y,
            build_seconds,
            maint,
        })
    }
}

/// The curve value of `p` on a 2^16 × 2^16 grid over `mbr`.
fn curve_key(curve: CurveKind, mbr: &Rect, p: &Point) -> u64 {
    const ORDER: u32 = 16;
    let cell = |v: f64, lo: f64, extent: f64| {
        let max = ((1u32 << ORDER) - 1) as f64;
        if extent > 0.0 {
            ((v - lo) / extent * max).clamp(0.0, max) as u32
        } else {
            0
        }
    };
    curve.encode(
        cell(p.x, mbr.min_x, mbr.width()),
        cell(p.y, mbr.min_y, mbr.height()),
        ORDER,
    )
}

fn curve_tag(curve: CurveKind) -> u8 {
    match curve {
        CurveKind::Z => 0,
        CurveKind::Hilbert => 1,
    }
}

fn curve_from_tag(tag: u8) -> Result<CurveKind, PersistError> {
    match tag {
        0 => Ok(CurveKind::Z),
        1 => Ok(CurveKind::Hilbert),
        other => Err(PersistError::Corrupt(format!("unknown curve tag {other}"))),
    }
}

impl SpatialIndex for Rsmi {
    fn name(&self) -> &'static str {
        "RSMI"
    }

    fn len(&self) -> usize {
        self.n_points
    }

    fn point_query(&self, q: &Point, cx: &mut QueryContext) -> Option<Point> {
        Rsmi::point_query(self, q, cx)
    }

    fn window_query_visit(
        &self,
        window: &Rect,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        Rsmi::window_query_visit(self, window, cx, visit)
    }

    fn knn_query_visit(
        &self,
        q: &Point,
        k: usize,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        Rsmi::knn_query_visit(self, q, k, cx, visit)
    }

    fn range_query_visit(
        &self,
        center: &Point,
        radius: f64,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        Rsmi::range_query_exact_visit(self, center, radius, cx, visit)
    }

    fn for_each_point(&self, visit: &mut dyn FnMut(&Point)) {
        for (_, block) in self.store.iter() {
            for p in block.iter_points() {
                visit(&p);
            }
        }
    }

    fn distance_join_probes(
        &self,
        probes: &[Point],
        radius: f64,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point, &Point),
    ) {
        Rsmi::distance_join_probes_visit(self, probes, radius, cx, visit)
    }

    fn insert(&mut self, p: Point) {
        Rsmi::insert(self, p)
    }

    fn delete(&mut self, p: &Point) -> bool {
        Rsmi::delete(self, p)
    }

    fn rebuild(&mut self) {
        Rsmi::rebuild(self)
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

    fn maintenance_stats(&self) -> Option<common::MaintenanceStats> {
        Some(Rsmi::maintenance_stats(self))
    }

    fn rebuild_partial(&mut self, budget: &common::MaintenanceBudget) -> usize {
        Rsmi::rebuild_partial(self, budget)
    }

    fn clone_index(&self) -> Option<Box<dyn SpatialIndex>> {
        Some(Box::new(self.clone()))
    }

    fn write_snapshot(&self, w: &mut SnapshotWriter) -> Result<(), PersistError> {
        self.encode_snapshot(w);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RsmiExact;
    use common::{brute_force, metrics, QueryStats};

    fn grid_points(side: usize) -> Vec<Point> {
        let mut pts = Vec::with_capacity(side * side);
        for i in 0..side {
            for j in 0..side {
                pts.push(Point::with_id(
                    (i as f64 + 0.5) / side as f64,
                    (j as f64 + 0.5) / side as f64,
                    (i * side + j) as u64,
                ));
            }
        }
        pts
    }

    fn pseudo_random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut state = seed | 1;
        let mut pts = Vec::with_capacity(n);
        for id in 0..n {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let x = (state >> 11) as f64 / (1u64 << 53) as f64;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let y = (state >> 11) as f64 / (1u64 << 53) as f64;
            pts.push(Point::with_id(x, y, id as u64));
        }
        pts
    }

    fn small_config() -> RsmiConfig {
        RsmiConfig {
            block_capacity: 16,
            partition_threshold: 300,
            epochs: 20,
            learning_rate: 0.3,
            ..RsmiConfig::default()
        }
    }

    fn cx() -> QueryContext {
        QueryContext::new()
    }

    #[test]
    fn one_two_and_four_build_threads_write_the_same_snapshot() {
        // 8 000 points under N = 300: the root's subtrees split again.
        let pts = pseudo_random_points(8_000, 11);
        let config = RsmiConfig {
            epochs: 5,
            ..small_config()
        };
        let snapshot = |threads| {
            let mut index = Rsmi::build_on(pts.clone(), config, threads);
            assert!(index.height >= 3, "two internal levels");
            assert_eq!(index.bounds_violations(), 0);
            index.build_seconds = 0.0;
            let mut w = SnapshotWriter::new("RSMI");
            index.encode_snapshot(&mut w);
            w.finish()
        };
        let one = snapshot(1);
        assert!(one == snapshot(2), "2 threads differ from 1");
        assert!(one == snapshot(4), "4 threads differ from 1");
    }

    #[test]
    fn every_indexed_point_is_found_by_a_point_query() {
        let pts = pseudo_random_points(1200, 3);
        let index = Rsmi::build(pts.clone(), small_config());
        let mut c = cx();
        for p in &pts {
            let found = index.point_query(p, &mut c);
            assert!(found.is_some(), "point {:?} not found", p);
            assert_eq!(found.unwrap().id, p.id);
        }
    }

    #[test]
    fn point_query_misses_points_that_were_never_inserted() {
        let pts = grid_points(20);
        let index = Rsmi::build(pts, small_config());
        assert!(index
            .point_query(&Point::new(0.003, 0.0071), &mut cx())
            .is_none());
    }

    #[test]
    fn empty_index_answers_queries_gracefully() {
        let index = Rsmi::build(vec![], small_config());
        let mut c = cx();
        assert_eq!(index.len(), 0);
        assert!(index.point_query(&Point::new(0.5, 0.5), &mut c).is_none());
        assert!(SpatialIndex::window_query(&index, &Rect::unit(), &mut c).is_empty());
        assert!(SpatialIndex::knn_query(&index, &Point::new(0.5, 0.5), 3, &mut c).is_empty());
        assert!(index.window_query_exact(&Rect::unit(), &mut c).is_empty());
        assert!(index
            .knn_query_exact(&Point::new(0.5, 0.5), 3, &mut c)
            .is_empty());
    }

    #[test]
    fn window_query_has_no_false_positives_and_good_recall() {
        let pts = pseudo_random_points(2000, 9);
        let index = Rsmi::build(pts.clone(), small_config());
        let windows = [
            Rect::new(0.1, 0.1, 0.3, 0.25),
            Rect::new(0.4, 0.4, 0.6, 0.6),
            Rect::new(0.0, 0.0, 1.0, 0.05),
            Rect::new(0.72, 0.11, 0.93, 0.37),
        ];
        let mut recalls = Vec::new();
        let mut c = cx();
        for w in &windows {
            let truth = brute_force::window_query(&pts, w);
            let got = SpatialIndex::window_query(&index, w, &mut c);
            assert_eq!(metrics::false_positive_rate(&got, &truth), 0.0);
            recalls.push(metrics::recall(&got, &truth));
        }
        let avg = metrics::mean(&recalls);
        assert!(avg > 0.8, "average recall too low: {avg} ({recalls:?})");
    }

    #[test]
    fn exact_window_query_matches_brute_force() {
        let pts = pseudo_random_points(1500, 5);
        let index = Rsmi::build(pts.clone(), small_config());
        let mut c = cx();
        for w in [
            Rect::new(0.2, 0.3, 0.5, 0.6),
            Rect::new(0.0, 0.0, 0.1, 1.0),
            Rect::new(0.9, 0.9, 1.0, 1.0),
        ] {
            let mut truth: Vec<u64> = brute_force::window_query(&pts, &w)
                .iter()
                .map(|p| p.id)
                .collect();
            let mut got: Vec<u64> = index
                .window_query_exact(&w, &mut c)
                .iter()
                .map(|p| p.id)
                .collect();
            truth.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, truth);
        }
    }

    #[test]
    fn exact_knn_matches_brute_force_distances() {
        let pts = pseudo_random_points(800, 7);
        let index = Rsmi::build(pts.clone(), small_config());
        let mut c = cx();
        for q in [
            Point::new(0.5, 0.5),
            Point::new(0.05, 0.95),
            Point::new(0.99, 0.01),
        ] {
            for k in [1, 5, 20] {
                let truth = brute_force::knn_query(&pts, &q, k);
                let got = index.knn_query_exact(&q, k, &mut c);
                assert_eq!(got.len(), k);
                for (a, b) in truth.iter().zip(&got) {
                    assert!((a.dist(&q) - b.dist(&q)).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn approximate_knn_returns_k_points_with_high_recall() {
        let pts = pseudo_random_points(2000, 21);
        let index = Rsmi::build(pts.clone(), small_config());
        let mut recalls = Vec::new();
        let mut c = cx();
        for q in [
            Point::new(0.5, 0.5),
            Point::new(0.1, 0.2),
            Point::new(0.85, 0.6),
            Point::new(0.01, 0.99),
        ] {
            let k = 10;
            let got = SpatialIndex::knn_query(&index, &q, k, &mut c);
            assert_eq!(got.len(), k);
            let truth = brute_force::knn_query(&pts, &q, k);
            recalls.push(metrics::knn_recall(&got, &truth, &q, k));
        }
        let avg = metrics::mean(&recalls);
        assert!(avg > 0.8, "kNN recall too low: {avg}");
    }

    #[test]
    fn approximate_knn_returns_distinct_points_across_expansion_rounds() {
        // Regression: a later expansion round's region covers the blocks
        // of the earlier ones; a block must be opened once per query, or
        // its points enter the best-k list a second time (each duplicate
        // would evict a genuine neighbour).
        let pts = pseudo_random_points(300, 99);
        let index = Rsmi::build(pts.clone(), small_config());
        let mut c = cx();
        for q in [
            Point::new(0.8, 0.05),
            Point::new(0.01, 0.99),
            Point::new(0.5, 0.5),
        ] {
            for k in [25usize, 100, 250] {
                let got = SpatialIndex::knn_query(&index, &q, k, &mut c);
                assert_eq!(got.len(), k.min(pts.len()));
                let mut ids: Vec<u64> = got.iter().map(|p| p.id).collect();
                ids.sort_unstable();
                ids.dedup();
                assert_eq!(
                    ids.len(),
                    got.len(),
                    "duplicate kNN results for q={q:?} k={k}"
                );
            }
        }
    }

    #[test]
    fn knn_with_k_larger_than_data_returns_all_points() {
        let pts = grid_points(5); // 25 points
        let index = Rsmi::build(pts.clone(), small_config());
        let got = SpatialIndex::knn_query(&index, &Point::new(0.5, 0.5), 100, &mut cx());
        assert_eq!(got.len(), 25);
    }

    #[test]
    fn inserted_points_are_found_and_counted() {
        let pts = pseudo_random_points(600, 31);
        let mut index = Rsmi::build(pts.clone(), small_config());
        let new_points: Vec<Point> = (0..200)
            .map(|i| {
                let base = pts[i * 3];
                Point::with_id((base.x + 0.001).min(1.0), base.y, 10_000 + i as u64)
            })
            .collect();
        for p in &new_points {
            index.insert(*p);
        }
        assert_eq!(index.len(), 800);
        let mut c = cx();
        for p in &new_points {
            let found = index.point_query(p, &mut c);
            assert_eq!(
                found.map(|f| f.id),
                Some(p.id),
                "inserted point lost: {p:?}"
            );
        }
        // Old points are still reachable.
        for p in pts.iter().step_by(7) {
            assert!(index.point_query(p, &mut c).is_some());
        }
    }

    #[test]
    fn insert_into_empty_index_bootstraps_it() {
        let mut index = Rsmi::build(vec![], small_config());
        index.insert(Point::with_id(0.3, 0.4, 1));
        index.insert(Point::with_id(0.6, 0.1, 2));
        assert_eq!(index.len(), 2);
        let mut c = cx();
        assert_eq!(
            index.point_query(&Point::new(0.3, 0.4), &mut c).unwrap().id,
            1
        );
        assert_eq!(
            index.point_query(&Point::new(0.6, 0.1), &mut c).unwrap().id,
            2
        );
    }

    #[test]
    fn deleted_points_disappear_and_slots_are_reused() {
        let pts = pseudo_random_points(500, 13);
        let mut index = Rsmi::build(pts.clone(), small_config());
        let victim = pts[123];
        assert!(index.delete(&victim));
        assert_eq!(index.len(), 499);
        let mut c = cx();
        assert!(index.point_query(&victim, &mut c).is_none());
        // Deleting again fails.
        assert!(!index.delete(&victim));
        // Other points survive.
        assert!(index.point_query(&pts[124], &mut c).is_some());
        // Re-inserting a point at the same location works.
        index.insert(victim);
        assert!(index.point_query(&victim, &mut c).is_some());
    }

    #[test]
    fn window_queries_see_inserted_points() {
        let pts = pseudo_random_points(800, 17);
        let mut index = Rsmi::build(pts.clone(), small_config());
        let extra = Point::with_id(0.505, 0.505, 99_999);
        index.insert(extra);
        let w = Rect::new(0.45, 0.45, 0.55, 0.55);
        let exact = index.window_query_exact(&w, &mut cx());
        assert!(
            exact.iter().any(|p| p.id == extra.id),
            "exact window query must see the insert"
        );
    }

    #[test]
    fn rebuild_restores_layout_and_preserves_content() {
        let pts = pseudo_random_points(700, 23);
        let mut index = Rsmi::build(pts.clone(), small_config());
        for i in 0..300 {
            let base = pts[i * 2];
            index.insert(Point::with_id(
                base.x,
                (base.y + 0.002).min(1.0),
                50_000 + i as u64,
            ));
        }
        assert!(
            index.overflow_block_count() > 0,
            "insertions should create overflow blocks"
        );
        let before = index.len();
        index.rebuild();
        assert_eq!(index.len(), before);
        assert_eq!(index.overflow_block_count(), 0);
        // All points still found.
        let mut c = cx();
        for p in pts.iter().step_by(11) {
            assert!(index.point_query(p, &mut c).is_some());
        }
    }

    #[test]
    fn stats_report_plausible_values() {
        let pts = pseudo_random_points(1500, 41);
        let index = Rsmi::build(pts, small_config());
        let stats = index.stats();
        assert_eq!(stats.n_points, 1500);
        assert!(stats.height >= 2);
        assert!(stats.leaf_count >= 2);
        assert!(stats.model_count >= stats.leaf_count);
        assert!(stats.avg_depth >= 1.0);
        assert!(stats.avg_depth <= stats.height as f64);
        assert!(stats.size_bytes > 0);
        assert_eq!(SpatialIndex::model_count(&index), stats.model_count);
    }

    #[test]
    fn per_query_stats_are_charged_to_the_context() {
        let pts = pseudo_random_points(500, 47);
        let index = Rsmi::build(pts.clone(), small_config());
        let mut c = cx();
        assert_eq!(c.stats.total_accesses(), 0);
        let _ = index.point_query(&pts[0], &mut c);
        let first = c.take_stats();
        assert!(first.blocks_touched >= 1, "{first:?}");
        assert!(first.nodes_visited >= 1, "{first:?}");
        assert!(first.candidates_scanned >= 1, "{first:?}");
        // After take_stats the context is clean again.
        assert_eq!(c.stats.total_accesses(), 0);
        // Two identical queries through one context cost twice one query.
        let _ = index.point_query(&pts[0], &mut c);
        let _ = index.point_query(&pts[0], &mut c);
        assert_eq!(c.stats.total_accesses(), 2 * first.total_accesses());
    }

    #[test]
    fn z_curve_configuration_also_works() {
        let pts = pseudo_random_points(900, 53);
        let cfg = small_config().with_curve(CurveKind::Z);
        let index = Rsmi::build(pts.clone(), cfg);
        let mut c = cx();
        for p in pts.iter().step_by(13) {
            assert!(index.point_query(p, &mut c).is_some());
        }
        let w = Rect::new(0.3, 0.3, 0.5, 0.5);
        let truth = brute_force::window_query(&pts, &w);
        let got = SpatialIndex::window_query(&index, &w, &mut c);
        assert_eq!(metrics::false_positive_rate(&got, &truth), 0.0);
    }

    #[test]
    fn rsmi_exact_wrapper_answers_exactly_through_the_trait() {
        let pts = pseudo_random_points(1200, 77);
        let exact = RsmiExact::build(pts.clone(), small_config());
        assert_eq!(exact.name(), "RSMIa");
        assert_eq!(exact.len(), pts.len());
        assert!(SpatialIndex::model_count(&exact) > 0);
        let mut c = cx();
        let w = Rect::new(0.25, 0.25, 0.6, 0.55);
        let mut truth: Vec<u64> = brute_force::window_query(&pts, &w)
            .iter()
            .map(|p| p.id)
            .collect();
        let mut got: Vec<u64> = SpatialIndex::window_query(&exact, &w, &mut c)
            .iter()
            .map(|p| p.id)
            .collect();
        truth.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, truth);
        let q = Point::new(0.4, 0.4);
        let knn_truth = brute_force::knn_query(&pts, &q, 7);
        let knn_got = SpatialIndex::knn_query(&exact, &q, 7, &mut c);
        for (t, g) in knn_truth.iter().zip(&knn_got) {
            assert!((t.dist(&q) - g.dist(&q)).abs() < 1e-12);
        }
        // The wrapper is mutable like any other index.
        let mut exact = exact;
        let p = Point::with_id(0.111, 0.222, 424_242);
        exact.insert(p);
        assert_eq!(exact.point_query(&p, &mut c).map(|f| f.id), Some(p.id));
        assert!(exact.delete(&p));
    }

    #[test]
    fn indices_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Rsmi>();
        assert_send_sync::<RsmiExact>();
    }

    #[test]
    fn range_queries_are_exact_for_both_variants_even_after_inserts() {
        let mut pts = pseudo_random_points(900, 83);
        let mut index = Rsmi::build(pts.clone(), small_config());
        // Inserted points must stay visible to the MBR traversal.
        for i in 0..150 {
            let base = pts[i * 5];
            let p = Point::with_id((base.x + 0.003).min(1.0), base.y, 70_000 + i as u64);
            index.insert(p);
            pts.push(p);
        }
        let exact = RsmiExact::from_rsmi(Rsmi::build(pts.clone(), small_config()));
        let mut c = cx();
        for (center, r) in [
            (Point::new(0.5, 0.5), 0.07),
            (Point::new(0.02, 0.97), 0.2),
            (Point::new(0.8, 0.1), 0.0),
        ] {
            let mut truth: Vec<u64> = brute_force::range_query(&pts, &center, r)
                .iter()
                .map(|p| p.id)
                .collect();
            truth.sort_unstable();
            for got in [
                SpatialIndex::range_query(&index, &center, r, &mut c),
                SpatialIndex::range_query(&exact, &center, r, &mut c),
            ] {
                let mut ids: Vec<u64> = got.iter().map(|p| p.id).collect();
                ids.sort_unstable();
                assert_eq!(ids, truth, "center {center:?} r {r}");
            }
        }
    }

    #[test]
    fn distance_join_matches_the_nested_loop_oracle() {
        let pts = pseudo_random_points(700, 91);
        let others = pseudo_random_points(150, 17);
        let index = Rsmi::build(pts.clone(), small_config());
        let mut c = cx();
        let mut got: Vec<(u64, u64)> = Vec::new();
        index.distance_join_probes_visit(&others, 0.03, &mut c, &mut |p, q| {
            got.push((p.id, q.id));
        });
        let mut truth: Vec<(u64, u64)> = brute_force::distance_join(&pts, &others, 0.03)
            .iter()
            .map(|(p, q)| (p.id, q.id))
            .collect();
        got.sort_unstable();
        truth.sort_unstable();
        assert_eq!(got, truth);
        assert!(c.take_stats().blocks_touched > 0);
        // Enumeration covers every point exactly once.
        let mut n = 0;
        SpatialIndex::for_each_point(&index, &mut |_| n += 1);
        assert_eq!(n, pts.len());
    }

    #[test]
    fn ablation_configurations_still_index_correctly() {
        let pts = pseudo_random_points(900, 61);
        // Raw-coordinate ordering keeps the point-query guarantee (only the
        // leaf CDF gets harder to learn).
        let cfg = small_config().with_rank_space(false);
        let index = Rsmi::build(pts.clone(), cfg);
        let mut c = cx();
        for p in pts.iter().step_by(17) {
            assert!(index.point_query(p, &mut c).is_some(), "cfg {cfg:?}");
        }
        // Grouping by the *true* grid cell (instead of the model prediction)
        // breaks the routing guarantee — exactly the paper's argument for
        // learned grouping — but the MBR-based exact queries stay correct.
        let cfg = small_config().with_group_by_prediction(false);
        let index = Rsmi::build(pts.clone(), cfg);
        let w = Rect::new(0.2, 0.2, 0.5, 0.5);
        let mut truth: Vec<u64> = brute_force::window_query(&pts, &w)
            .iter()
            .map(|p| p.id)
            .collect();
        let mut got: Vec<u64> = index
            .window_query_exact(&w, &mut c)
            .iter()
            .map(|p| p.id)
            .collect();
        truth.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, truth);
    }

    /// Seeded churn against `index`, mirrored into `live`: inserts clustered
    /// to stress a few leaves, deletes spread across the survivors.  The
    /// error-bound soundness invariant is checked after every round.
    fn churn(index: &mut Rsmi, live: &mut Vec<Point>, rounds: usize, seed: u64) {
        let mut state = seed | 1;
        for i in 0..rounds {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if state % 10 < 7 {
                let x = 0.4 + ((state >> 17) % 1000) as f64 / 5000.0;
                let y = 0.4 + ((state >> 31) % 1000) as f64 / 5000.0;
                let p = Point::with_id(x, y, 500_000 + i as u64);
                index.insert(p);
                live.push(p);
            } else if !live.is_empty() {
                let victim = live[(state >> 13) as usize % live.len()];
                assert!(index.delete(&victim), "victim {victim:?} not deleted");
                let pos = live
                    .iter()
                    .position(|q| q.same_location(&victim) && q.id == victim.id)
                    .unwrap();
                live.remove(pos);
            }
            assert_eq!(index.bounds_violations(), 0, "round {i} broke the bounds");
        }
    }

    /// `knn_query_visit` without the block-MBR test: for each region
    /// `knn::expand` asks for, every point of every block in the region's
    /// chain range is offered, each block once per query.  Its answer is the
    /// exact top-k over the blocks of the predicted ranges, so it does not
    /// depend on the order blocks are opened in.
    fn knn_reference(index: &Rsmi, q: &Point, k: usize) -> Vec<Point> {
        let mut offered = vec![false; index.store.len()];
        let best = knn::expand(
            q,
            k,
            index.n_points,
            index.knn_skew(q),
            &mut cx(),
            |region, best, cx| {
                let Some((begin, end)) = index.window_block_range(region, cx) else {
                    return;
                };
                for (id, block) in index.store.chain_range(begin, end) {
                    if !std::mem::replace(&mut offered[id], true) {
                        block.for_each_dist_sq(q, |p, d_sq| best.offer(p, d_sq));
                    }
                }
            },
            |best, _| {
                for (_, block) in index.store.iter() {
                    block.for_each_dist_sq(q, |p, d_sq| best.offer(p, d_sq));
                }
            },
        );
        best.iter().copied().collect()
    }

    #[test]
    fn knn_equals_the_unpruned_reference_on_fresh_and_churned_indexes() {
        let mut pts = pseudo_random_points(2_000, 19);
        // Forty co-located copies of one stored point, spread over several
        // blocks, with ids falling in input order: the copies in the chain's
        // first block hold the largest ids, and every tie at a copy's
        // distance is decided by id.
        let home = pts[777];
        let copies = |base: u64| (0..40u64).map(move |i| Point::with_id(home.x, home.y, base - i));
        pts.extend(copies(900_000));
        let mut index = Rsmi::build(pts.clone(), small_config());
        let queries: Vec<Point> = pseudo_random_points(12, 5)
            .into_iter()
            .chain([home, pts[3]])
            .collect();
        let check = |index: &Rsmi, stage: &str| {
            for q in &queries {
                for k in [1, 25, 100] {
                    let mut got = Vec::new();
                    index.knn_query_visit(q, k, &mut cx(), &mut |p| got.push(p.id));
                    let want: Vec<u64> = knn_reference(index, q, k).iter().map(|p| p.id).collect();
                    assert_eq!(got, want, "{stage}: q {q:?} k {k}");
                }
            }
        };
        check(&index, "fresh");
        let mut live = pts;
        churn(&mut index, &mut live, 600, 3);
        for p in copies(950_000) {
            index.insert(p);
        }
        check(&index, "churned");
        index.rebuild_partial(&common::MaintenanceBudget {
            max_subtrees: usize::MAX,
            drift_threshold: 0.0,
        });
        assert_eq!(index.bounds_violations(), 0);
        check(&index, "maintained");
    }

    /// Every answer of the five query classes, with the `QueryStats` each
    /// class charged, over a fixed battery.
    fn answers_and_stats(index: &Rsmi, probes: &[Point]) -> Vec<(Vec<u64>, QueryStats)> {
        let ids = |pts: Vec<Point>| pts.iter().map(|p| p.id).collect::<Vec<u64>>();
        let mut c = cx();
        let mut out = Vec::new();
        for q in probes {
            let hit = index.point_query(q, &mut c).into_iter().collect();
            out.push((ids(hit), c.take_stats()));
            let w = Rect::centered(q.x, q.y, 0.08, 0.05);
            let window = SpatialIndex::window_query(index, &w, &mut c);
            out.push((ids(window), c.take_stats()));
            let knn = SpatialIndex::knn_query(index, q, 25, &mut c);
            out.push((ids(knn), c.take_stats()));
            let range = SpatialIndex::range_query(index, q, 0.03, &mut c);
            out.push((ids(range), c.take_stats()));
        }
        let mut pairs = Vec::new();
        index.distance_join_probes_visit(probes, 0.02, &mut c, &mut |l, r| {
            pairs.extend([l.id, r.id]);
        });
        out.push((pairs, c.take_stats()));
        out
    }

    #[test]
    fn a_maintained_index_reloads_with_the_same_answers_and_keeps_its_bounds() {
        let pts = pseudo_random_points(2_500, 83);
        let mut index = Rsmi::build(pts.clone(), small_config());
        let mut live = pts;
        churn(&mut index, &mut live, 900, 41);
        index.rebuild_partial(&common::MaintenanceBudget {
            max_subtrees: usize::MAX,
            drift_threshold: 1.0,
        });
        churn(&mut index, &mut live, 300, 43);
        assert_eq!(index.bounds_violations(), 0);

        let mut w = SnapshotWriter::new("RSMI");
        index.encode_snapshot(&mut w);
        let bytes = w.finish();
        let (_, mut r) = SnapshotReader::open(&bytes).unwrap();
        let mut loaded = Rsmi::read_snapshot(&mut r).unwrap();
        let probes: Vec<Point> = live
            .iter()
            .step_by(97)
            .copied()
            .chain(pseudo_random_points(20, 9))
            .collect();
        assert_eq!(
            answers_and_stats(&loaded, &probes),
            answers_and_stats(&index, &probes)
        );

        let extra = pseudo_random_points(500, 61);
        for (i, p) in extra.iter().enumerate() {
            let p = Point::with_id(p.x, p.y, 800_000 + i as u64);
            loaded.insert(p);
            live.push(p);
        }
        loaded.rebuild_partial(&common::MaintenanceBudget {
            max_subtrees: usize::MAX,
            drift_threshold: 1.0,
        });
        assert_eq!(loaded.bounds_violations(), 0);
        assert_eq!(loaded.len(), live.len());
        let mut c = cx();
        for p in &live {
            assert!(
                loaded
                    .point_query(p, &mut c)
                    .is_some_and(|f| f.same_location(p)),
                "live point {p:?} lost after the pass on the loaded copy"
            );
        }
    }

    #[test]
    fn partial_passes_keep_a_churned_index_near_its_fresh_block_counts() {
        use datagen::queries::{self, ServeOp, WindowSpec};
        // 4 000 points under N = 400, B = 8: leaves of 30–50 bulk blocks,
        // the leaf shape of the default config at 200 k.
        let data = datagen::generate(datagen::Distribution::skewed_default(), 4_000, 42);
        let config = RsmiConfig {
            block_capacity: 8,
            partition_threshold: 400,
            ..RsmiConfig::default()
        };
        let mut index = Rsmi::build(data.clone(), config);
        let leaf_blocks: Vec<usize> = index
            .nodes
            .iter()
            .filter_map(|n| match n {
                Node::Leaf(leaf) => Some(leaf.n_blocks),
                Node::Internal(_) => None,
            })
            .collect();
        let in_wide_leaves: usize = leaf_blocks.iter().filter(|&&n| n >= 24).sum();
        assert!(leaf_blocks.len() >= 8, "{leaf_blocks:?}");
        assert!(
            10 * in_wide_leaves >= 9 * leaf_blocks.iter().sum::<usize>(),
            "{leaf_blocks:?}"
        );

        // The result sizes of the benchmark's 0.01 % windows at 200 k.
        let spec = WindowSpec {
            area_percent: 0.5,
            aspect_ratio: 1.0,
        };
        let windows = queries::window_queries(&data, spec, 300, 7);
        let knn = queries::knn_queries(&data, 300, 8);
        let blocks_per_query = |index: &Rsmi| {
            let mut c = cx();
            for q in &knn {
                index.knn_query_visit(q, 25, &mut c, &mut |_| {});
            }
            let knn_blocks = c.take_stats().blocks_touched as f64 / knn.len() as f64;
            for w in &windows {
                index.window_query_visit(w, &mut c, &mut |_| {});
            }
            let window_blocks = c.take_stats().blocks_touched as f64 / windows.len() as f64;
            (knn_blocks, window_blocks)
        };
        let (fresh_knn, fresh_window) = blocks_per_query(&index);
        let fresh_len = index.block_store().len();

        // Writes for 56 % of the points, half inserts near stored points and
        // half deletes, with a pass every 20 writes (1 024 at 200 k).
        let budget = common::MaintenanceBudget {
            max_subtrees: 64,
            drift_threshold: 1.0,
        };
        let (mut inserted, mut deleted) = (0usize, 0usize);
        let writes = queries::read_write_workload(&data, spec, 25, 2_240, 1.0, 5);
        for (i, op) in writes.iter().enumerate() {
            match op {
                ServeOp::Insert(p) => {
                    index.insert(*p);
                    inserted += 1;
                }
                ServeOp::Delete(p) => deleted += usize::from(index.delete(p)),
                ServeOp::Read(_) => unreachable!("a write-only stream"),
            }
            if i % 20 == 19 {
                index.rebuild_partial(&budget);
                assert_eq!(index.bounds_violations(), 0, "after write {i}");
            }
        }
        let (worn_knn, worn_window) = blocks_per_query(&index);
        assert!(
            worn_knn <= 1.5 * fresh_knn && worn_window <= 1.5 * fresh_window,
            "kNN {worn_knn:.2} blocks (fresh {fresh_knn:.2}), \
             window {worn_window:.2} (fresh {fresh_window:.2})"
        );
        // Each leaf may round its spill up to a whole block.
        let net = inserted.saturating_sub(deleted);
        let grown = index.block_store().len() - fresh_len;
        assert!(
            grown <= net.div_ceil(config.block_capacity) + leaf_blocks.len(),
            "the arena grew by {grown} blocks for {net} net inserted points"
        );
    }

    #[test]
    fn maintenance_stats_track_churn_and_partial_rebuild_resets_them() {
        let pts = pseudo_random_points(1200, 21);
        let mut index = Rsmi::build(pts.clone(), small_config());
        let fresh = index.maintenance_stats();
        assert!(fresh.subtrees >= 1);
        assert_eq!(fresh.ops_since_train, 0);
        assert_eq!(fresh.stale_subtrees, 0);
        assert_eq!(index.bounds_violations(), 0);

        let mut live = pts;
        churn(&mut index, &mut live, 400, 77);
        let dirty = index.maintenance_stats();
        assert!(dirty.ops_since_train > 0, "churn left no drift");
        assert_eq!(index.bounds_violations(), 0, "churn broke the bounds");

        assert!(index.rebuild_partial(&common::MaintenanceBudget::default()) >= 1);
        let clean = index.maintenance_stats();
        assert_eq!(clean.ops_since_train, 0);
        assert_eq!(clean.widened_below + clean.widened_above, 0);
        assert_eq!(clean.stale_subtrees, 0);
        assert_eq!(index.bounds_violations(), 0, "retrain broke the bounds");
        // Every live point is still found after the in-place retrains.
        let mut c = cx();
        for p in &live {
            assert_eq!(index.point_query(p, &mut c).map(|f| f.id), Some(p.id));
        }
        assert_eq!(index.len(), live.len());
    }

    #[test]
    fn subtree_budget_defers_the_less_drifted_leaves() {
        let pts = pseudo_random_points(1500, 43);
        let mut index = Rsmi::build(pts.clone(), small_config());
        let mut live = pts;
        churn(&mut index, &mut live, 600, 91);
        let stale_before: usize = (0..index.nodes.len())
            .filter(|&id| matches!(index.nodes[id], Node::Leaf(_)))
            .filter(|&id| index.leaf_drift(id, index.maint[id].ops_since_train) > 0.0)
            .count();
        assert!(stale_before >= 2, "need at least two drifted leaves");
        let budget = common::MaintenanceBudget {
            max_subtrees: 1,
            drift_threshold: 0.0,
        };
        // One leaf a pass: the passes that repair anything number exactly
        // the drifted leaves, so each deferred the rest.
        let mut passes = 0;
        while index.rebuild_partial(&budget) > 0 {
            passes += 1;
            assert!(passes <= stale_before, "a repaired leaf came due again");
        }
        assert_eq!(passes, stale_before);
        assert_eq!(index.maintenance_stats().ops_since_train, 0);
    }

    #[test]
    fn widening_keeps_adversarial_inserts_findable_without_chain_growth() {
        // Fill one leaf's predicted chain, then keep inserting into the same
        // spot: the index must widen bounds onto free bulk slots (created by
        // deletes elsewhere in the leaf) rather than lose the points.
        let pts = grid_points(30);
        let mut index = Rsmi::build(pts.clone(), small_config());
        let anchor = pts[450];
        // Free slots across the anchor's leaf.
        let mut live: Vec<Point> = pts.clone();
        for p in pts.iter().skip(440).take(20) {
            assert!(index.delete(p));
            live.retain(|q| !(q.same_location(p) && q.id == p.id));
        }
        let mut c = cx();
        for i in 0..40u64 {
            let p = Point::with_id(
                anchor.x + (i as f64) * 1e-6,
                anchor.y - (i as f64) * 1e-6,
                600_000 + i,
            );
            index.insert(p);
            live.push(p);
        }
        assert_eq!(index.bounds_violations(), 0);
        for p in &live {
            assert_eq!(index.point_query(p, &mut c).map(|f| f.id), Some(p.id));
        }
        let stats = index.maintenance_stats();
        // Whether widening was needed depends on where predictions landed,
        // but the caps must hold either way.
        assert!(stats.widened_below + stats.widened_above <= 32 * stats.subtrees as u64);
        // A partial rebuild reclaims all widening and stays sound.
        index.rebuild_partial(&common::MaintenanceBudget::default());
        let after = index.maintenance_stats();
        assert_eq!(after.widened_below + after.widened_above, 0);
        assert_eq!(index.bounds_violations(), 0);
        for p in &live {
            assert!(index.point_query(p, &mut c).is_some());
        }
    }

    #[test]
    fn a_reused_slot_goes_to_the_free_block_whose_mbr_grows_least() {
        let pts = pseudo_random_points(1_500, 37);
        let mut index = Rsmi::build(pts.clone(), small_config());
        let mut home = vec![0; pts.len()];
        for (id, block) in index.store.iter() {
            for p in block.iter_points() {
                home[p.id as usize] = id;
            }
        }
        // A stored point `a` whose predicted block is full and whose home
        // block `near` is another block of the predicted range, plus a
        // lower-numbered bulk block `far` of that range whose MBR misses
        // `a`.  No block of the leaf with room within reach holds `a`'s
        // location in its MBR.
        let found = pts.iter().find_map(|a| {
            let leaf = index.leaf(index.descend(a.x, a.y, &mut cx())?);
            let predicted = leaf.global_block(leaf.model.predict_xy(a.x, a.y));
            let (lo, hi) = leaf.predicted_range(a.x, a.y);
            let near = home[a.id as usize];
            let bulk = leaf.first_block..leaf.first_block + leaf.n_blocks;
            let cap = WIDEN_CAP_PER_INSERT as usize;
            let reach = lo.saturating_sub(cap)..=hi + cap;
            let free_slot_around_a = bulk.clone().any(|b| {
                let block = index.store.block(b);
                reach.contains(&b) && !block.is_full() && block.mbr().contains(a)
            });
            if near == predicted
                || !(lo..=hi).contains(&near)
                || !index.store.block(predicted).is_full()
                || free_slot_around_a
            {
                return None;
            }
            let far = (lo..near).find(|&b| {
                b != predicted && bulk.contains(&b) && !index.store.block(b).mbr().contains(a)
            })?;
            Some((*a, near, far))
        });
        let (a, near, far) = found.expect("no leaf offers the two free slots");
        // Free one slot in each, keeping `a` in `near`.
        for block in [near, far] {
            let victim = index
                .store
                .block(block)
                .iter_points()
                .find(|p| p.id != a.id)
                .unwrap();
            assert!(index.delete(&victim));
        }
        let far_mbr = index.store.block(far).mbr();
        let copy = Point::with_id(a.x, a.y, 900_000);
        index.insert(copy);
        assert!(index.store.block(near).is_full(), "the copy missed `near`");
        assert!(!index.store.block(far).is_full(), "the copy went to `far`");
        assert_eq!(index.store.block(far).mbr(), far_mbr);
        assert_eq!(index.bounds_violations(), 0);
        assert_eq!(index.maintenance_stats().widened_below, 0);
        assert_eq!(index.maintenance_stats().widened_above, 0);
    }

    #[test]
    fn partial_rebuild_is_deterministic_across_clones() {
        let pts = pseudo_random_points(1000, 57);
        let mut index = Rsmi::build(pts.clone(), small_config());
        let mut live = pts;
        churn(&mut index, &mut live, 300, 13);
        let mut a = index.clone();
        let mut b = index;
        let oa = a.rebuild_partial(&common::MaintenanceBudget::default());
        let ob = b.rebuild_partial(&common::MaintenanceBudget::default());
        assert_eq!(oa, ob);
        assert_eq!(a.maintenance_stats(), b.maintenance_stats());
        let mut c = cx();
        for q in live.iter().step_by(7) {
            assert_eq!(
                a.point_query(q, &mut c).map(|p| p.id),
                b.point_query(q, &mut c).map(|p| p.id)
            );
        }
        let (ea, eb) = (a.model_error_bounds(), b.model_error_bounds());
        assert_eq!(ea, eb);
    }

    #[test]
    fn snapshot_roundtrips_maintenance_state() {
        let pts = pseudo_random_points(900, 67);
        let mut index = Rsmi::build(pts.clone(), small_config());
        assert_eq!(index.bounds_violations(), 0);
        let mut live = pts;
        churn(&mut index, &mut live, 250, 29);
        let before = index.maintenance_stats();
        assert!(before.ops_since_train > 0);
        let mut w = SnapshotWriter::new("RSMI");
        index.encode_snapshot(&mut w);
        let bytes = w.finish();
        let (_, mut r) = SnapshotReader::open(&bytes).unwrap();
        let restored = Rsmi::read_snapshot(&mut r).unwrap();
        // The stored bounds are sound for the `predict` that loads them.
        assert_eq!(restored.bounds_violations(), 0);
        assert_eq!(restored.maintenance_stats(), before);
        assert_eq!(restored.len(), index.len());
        let mut c = cx();
        for q in live.iter().step_by(11) {
            assert_eq!(
                restored.point_query(q, &mut c).map(|p| p.id),
                index.point_query(q, &mut c).map(|p| p.id)
            );
        }
    }

    #[test]
    fn exact_variant_delegates_maintenance_to_the_inner_index() {
        let pts = pseudo_random_points(800, 71);
        let mut exact = RsmiExact::build(pts.clone(), small_config());
        for i in 0..120u64 {
            SpatialIndex::insert(
                &mut exact,
                Point::with_id(0.3 + 1e-5 * i as f64, 0.7, 700_000 + i),
            );
        }
        let stats = SpatialIndex::maintenance_stats(&exact).unwrap();
        assert_eq!(stats.ops_since_train, 120);
        let clone = SpatialIndex::clone_index(&exact).expect("RsmiExact clones");
        assert_eq!(clone.len(), exact.inner().len());
        assert!(
            SpatialIndex::rebuild_partial(&mut exact, &common::MaintenanceBudget::default()) >= 1
        );
        assert_eq!(
            SpatialIndex::maintenance_stats(&exact)
                .unwrap()
                .ops_since_train,
            0
        );
        // The exact (MBR-driven) query paths are untouched by retraining.
        let mut c = cx();
        let w = Rect::new(0.25, 0.6, 0.45, 0.8);
        let truth = {
            let mut all = pts.clone();
            all.extend(
                (0..120u64).map(|i| Point::with_id(0.3 + 1e-5 * i as f64, 0.7, 700_000 + i)),
            );
            let mut ids: Vec<u64> = brute_force::window_query(&all, &w)
                .iter()
                .map(|p| p.id)
                .collect();
            ids.sort_unstable();
            ids
        };
        let mut got: Vec<u64> = SpatialIndex::window_query(&exact, &w, &mut c)
            .iter()
            .map(|p| p.id)
            .collect();
        got.sort_unstable();
        assert_eq!(got, truth);
    }
}
