//! The learned query paths of §4: descent through the model tree and
//! Algorithms 1–3 (point, window and kNN queries).

use super::Rsmi;
use crate::node::{Node, NodeId};
use common::{knn, CopyVisit, QueryContext};
use geom::{Point, Rect};
use sfc::CurveKind;
use storage::BlockId;

/// Descends from the root to a leaf following model predictions
/// (Algorithm 1, lines 1–3), charging one node visit per internal model
/// invoked and reporting each `(internal node, chosen child cell)` to
/// `step`.  Returns the leaf ID.
pub(super) fn descend_with(
    index: &Rsmi,
    x: f64,
    y: f64,
    cx: &mut QueryContext,
    mut step: impl FnMut(NodeId, usize),
) -> Option<NodeId> {
    let mut cur = index.root?;
    loop {
        match &index.nodes[cur] {
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
pub(super) fn descend(index: &Rsmi, x: f64, y: f64, cx: &mut QueryContext) -> Option<NodeId> {
    descend_with(index, x, y, cx, |_, _| {})
}

/// Point query (Algorithm 1): visits every indexed copy with exactly the
/// query coordinates until `visit` breaks.  Walks the predicted range in
/// chain order — the range [`delete`](super::update::delete) scans — and
/// opens only the blocks whose MBR contains the key.
pub(super) fn point(index: &Rsmi, q: &Point, cx: &mut QueryContext, visit: &mut CopyVisit) {
    let Some(leaf) = descend(index, q.x, q.y, cx) else {
        return;
    };
    let (lo, hi) = index.leaf(leaf).predicted_range(q.x, q.y);
    for (_, block) in index.store.chain_range(lo, hi) {
        if block.mbr().contains(q) {
            cx.count_block_scan(block.len());
            if block.find_at(q.x, q.y, &mut *visit).is_break() {
                return;
            }
        }
    }
}

/// The anchor points whose predicted blocks bound the scan range: the
/// bottom-left and top-right corners for Z-ordered data, all four
/// corners for Hilbert-ordered data (§4.2).
fn window_anchors(index: &Rsmi, window: &Rect) -> impl Iterator<Item = Point> {
    let corners = window.corners();
    let picks: &[usize] = match index.config.curve {
        CurveKind::Z => &[0, 3],
        CurveKind::Hilbert => &[0, 1, 2, 3],
    };
    picks.iter().map(move |&i| corners[i])
}

/// Predicted global block range `[begin, end]` covering a window, from
/// the error-bounded predictions of its anchor points.
pub(super) fn window_block_range(
    index: &Rsmi,
    window: &Rect,
    cx: &mut QueryContext,
) -> Option<(BlockId, BlockId)> {
    let mut begin = usize::MAX;
    let mut end = 0usize;
    for anchor in window_anchors(index, window) {
        let leaf = index.leaf(descend(index, anchor.x, anchor.y, cx)?);
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
/// above 87 % across all settings; [`Rsmi::into_exact`] answers exactly.
pub(super) fn window(
    index: &Rsmi,
    window: &Rect,
    cx: &mut QueryContext,
    visit: &mut dyn FnMut(&Point),
) {
    let Some((begin, end)) = window_block_range(index, window, cx) else {
        return;
    };
    for (_, block) in index.store.chain_range(begin, end) {
        if block.mbr().intersects(window) {
            cx.count_block_scan(block.len());
            block.for_each_in_rect(window, |p| visit(&p));
        }
    }
}

/// Approximate kNN query (Algorithm 3), visitor form:
/// [`common::knn::expand`] around the query point, with the initial
/// region sized by the learned marginal CDFs (Equation 6).  Each region
/// opens the blocks of its predicted chain range nearest first, by
/// header-MBR distance, and stops at the first that lies beyond the
/// running k-th distance.  Visits results closest first.
pub(super) fn knn(
    index: &Rsmi,
    q: &Point,
    k: usize,
    cx: &mut QueryContext,
    visit: &mut dyn FnMut(&Point),
) {
    let skew = knn_skew(index, q);
    // One bit per block opened by this query.  A later, larger region
    // does not open a block again: every point of it has been offered,
    // and the k-th bound only tightens, so what was rejected stays
    // rejected (likewise a block skipped on its MBR stays skipped).
    let mut opened = vec![0u64; index.store.len().div_ceil(64)];
    // `(MINDIST², id)` of a region's unopened, non-empty blocks.
    let mut order: Vec<(f64, BlockId)> = Vec::new();
    let best = knn::expand(
        q,
        k,
        index.n_points,
        skew,
        cx,
        |region, best, cx| {
            let Some((begin, end)) = window_block_range(index, region, cx) else {
                return;
            };
            order.clear();
            order.extend(
                index
                    .store
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
                let block = index.store.block(id);
                cx.count_block_scan(block.len());
                block.for_each_dist_sq(q, |p, d_sq| best.offer(p, d_sq));
            }
        },
        // The learned routing missed some blocks even for a
        // space-covering region: scan everything.
        |best, cx| {
            for (_, block) in index.store.iter() {
                cx.count_block_scan(block.len());
                block.for_each_dist_sq(q, |p, d_sq| best.offer(p, d_sq));
            }
        },
    );
    best.iter().for_each(visit);
}

/// Per-axis density correction of the first kNN region (Equation 6),
/// from the learned marginal CDFs.
pub(super) fn knn_skew(index: &Rsmi, q: &Point) -> (f64, f64) {
    let delta = 0.01;
    (index.cdf_x.alpha(q.x, delta), index.cdf_y.alpha(q.y, delta))
}
