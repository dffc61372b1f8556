//! Updates (§5): insertion into the predicted block or an overflow block,
//! reuse of slots that deletes freed, and deletion.

use super::{query, Rsmi, WIDEN_CAP_PER_INSERT, WIDEN_CAP_PER_LEAF};
use crate::node::{Node, NodeId};
use common::QueryContext;
use geom::{order_key, Point, Rect};
use storage::BlockId;

/// Inserts a point.
///
/// The point is placed in the block predicted by the index; if that
/// block (and the overflow blocks already chained after it) is full, a
/// new overflow block is spliced in after it.  MBRs along the routing
/// path are enlarged so the exact-query variants stay correct.
pub(super) fn insert(index: &mut Rsmi, p: Point) {
    if index.root.is_none() {
        *index = Rsmi {
            exact: index.exact,
            ..Rsmi::build(vec![p], index.config)
        };
        return;
    }
    // Updates are maintenance, not queries: route with a throwaway
    // context so nothing is charged to any caller's statistics.
    let mut scratch = QueryContext::new();
    let mut path = Vec::with_capacity(index.height);
    let routed = query::descend_with(index, p.x, p.y, &mut scratch, |node_id, cell| {
        path.push((node_id, cell));
    });
    let Some(leaf_id) = routed else {
        return;
    };
    // Enlarge MBRs along the path (§5: "recursively update the MBRs of
    // the ancestor models").
    for (node_id, cell) in path {
        if let Node::Internal(node) = &mut index.nodes[node_id] {
            node.mbr.expand_to_point(p);
            node.child_mbrs[cell].expand_to_point(p);
        }
    }
    let (predicted, leaf_first, leaf_blocks) = {
        let leaf = index.leaf(leaf_id);
        (
            leaf.global_block(leaf.model.predict_xy(p.x, p.y)),
            leaf.first_block,
            leaf.n_blocks,
        )
    };
    debug_assert!(predicted >= leaf_first && predicted < leaf_first + leaf_blocks);
    if let Node::Leaf(leaf) = &mut index.nodes[leaf_id] {
        leaf.mbr.expand_to_point(p);
    }
    // Find space in the predicted block or its overflow chain.
    let mut tail = predicted;
    let mut target = None;
    for (id, block) in index.store.overflow_chain(predicted) {
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
        None => match reusable_leaf_slot(index, leaf_id, &p) {
            Some(alt) => alt,
            None => index.store.insert_overflow_after(tail),
        },
    };
    index.store.block_mut(target).push(p);
    index.n_points += 1;
    index.maint[leaf_id].count_op();
}

/// A non-full bulk block of `leaf_id` that can absorb `p` for at most
/// [`WIDEN_CAP_PER_INSERT`] blocks of error-bound widening (zero if the
/// block is already inside the predicted range), or `None` if no such
/// slot exists or the leaf has exhausted [`WIDEN_CAP_PER_LEAF`].  Among
/// those, the block whose MBR area grows least takes `p` (ties: fewer
/// blocks of widening, then the lower id), so reused slots keep block
/// MBRs tight for the reads' header tests.  Applies the widening and
/// charges it to the leaf's drift counters.
fn reusable_leaf_slot(index: &mut Rsmi, leaf_id: NodeId, p: &Point) -> Option<BlockId> {
    if index.maint[leaf_id].widened_total() >= WIDEN_CAP_PER_LEAF {
        return None;
    }
    let (first, n_blocks, pred_lo, pred_hi) = {
        let leaf = index.leaf(leaf_id);
        let (lo, hi) = leaf.predicted_range(p.x, p.y);
        (leaf.first_block, leaf.n_blocks, lo, hi)
    };
    let key = Rect::from_point(*p);
    let mut best: Option<(f64, u64, BlockId)> = None;
    for i in 0..n_blocks {
        let base = first + i;
        let block = index.store.block(base);
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
    if let Node::Leaf(leaf) = &mut index.nodes[leaf_id] {
        let (extra_below, extra_above) = leaf.model.widen_to_cover_xy(p.x, p.y, offset);
        index.maint[leaf_id].widened_below += extra_below;
        index.maint[leaf_id].widened_above += extra_above;
    }
    Some(base)
}

/// Deletes every stored copy with the given coordinates and id.
/// Returns whether any was removed.  Blocks are never shrunk (§5), so
/// error bounds remain valid; the freed slots are reused by later
/// insertions.
pub(super) fn delete(index: &mut Rsmi, p: &Point) -> bool {
    let mut scratch = QueryContext::new();
    let Some(leaf_id) = query::descend(index, p.x, p.y, &mut scratch) else {
        return false;
    };
    let (lo, hi) = index.leaf(leaf_id).predicted_range(p.x, p.y);
    let removed = index.store.remove_in_chain_range(lo, hi, p);
    if removed == 0 {
        return false;
    }
    index.n_points -= removed;
    index.maint[leaf_id].count_op();
    true
}
