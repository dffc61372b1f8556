//! Incremental maintenance, the per-leaf form of the paper's RSMIr (§5):
//! drift tracking, drift-triggered partial rebuilds and leaf repair, and
//! the error-bound soundness check.

use super::{LeafMaint, Rsmi, REPAIR_DRIFT};
use crate::node::{Node, NodeId};
use common::{MaintenanceBudget, MaintenanceStats};
use geom::{order_key, Point, Rect};
use mlp::ScaledRegressor;
use sfc::CurveKind;

/// Drift score of one leaf over `ops` mutations,
/// `ops / (n_blocks · B) + widened / n_blocks`: mutations normalised by
/// the leaf's bulk capacity, plus error-bound widening normalised by its
/// block count.
/// Over the ops since training, a score of 1.0 means the leaf has
/// absorbed as many mutations as it holds points, or its scan range has
/// doubled; either way its model is due for a refit.  Over the ops since
/// the last packing it measures the wear of the block layout.
pub(super) fn leaf_drift(index: &Rsmi, leaf_id: NodeId, ops: u64) -> f64 {
    let m = &index.maint[leaf_id];
    if ops == 0 && m.widened_total() == 0 {
        return 0.0;
    }
    let leaf = index.leaf(leaf_id);
    let n_blocks = leaf.n_blocks.max(1) as f64;
    let capacity_points = n_blocks * index.store.capacity().max(1) as f64;
    ops as f64 / capacity_points + m.widened_total() as f64 / n_blocks
}

/// Aggregate maintenance state over all leaf models.  `stale_subtrees`
/// counts leaves whose drift since training (see [`leaf_drift`]) has
/// reached 1.0.
pub(super) fn maintenance_stats(index: &Rsmi) -> MaintenanceStats {
    let mut s = MaintenanceStats::default();
    for (id, node) in index.nodes.iter().enumerate() {
        if !matches!(node, Node::Leaf(_)) {
            continue;
        }
        s.subtrees += 1;
        let m = &index.maint[id];
        s.ops_since_train += m.ops_since_train;
        s.widened_below += m.widened_below;
        s.widened_above += m.widened_above;
        if leaf_drift(index, id, m.ops_since_train) >= 1.0 {
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
/// [`REPAIR_DRIFT`], or its drift since training is positive and meets
/// `budget.drift_threshold`.  A repair re-packs the leaf's blocks (see
/// [`repair_leaf`]); only a leaf at the drift threshold also refits its
/// model.  Every stored point stays reachable and the answers of the
/// exact query paths do not change; the approximate ones see tighter
/// scan ranges and block MBRs.
pub(super) fn rebuild_partial(index: &mut Rsmi, budget: &MaintenanceBudget) -> usize {
    let mut due: Vec<(NodeId, f64, bool)> = (0..index.nodes.len())
        .filter(|&id| matches!(index.nodes[id], Node::Leaf(_)))
        .filter_map(|id| {
            let m = index.maint[id];
            let drift = leaf_drift(index, id, m.ops_since_train);
            let wear = leaf_drift(index, id, m.ops_since_pack);
            let refit = drift > 0.0 && drift >= budget.drift_threshold;
            (refit || wear >= REPAIR_DRIFT).then_some((id, wear, refit))
        })
        .collect();
    due.sort_by_key(|&(id, wear, _)| (std::cmp::Reverse(order_key(wear)), id));
    let take = budget.max_subtrees.min(due.len());
    for &(id, _, refit) in &due[..take] {
        repair_leaf(index, id, refit);
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
fn repair_leaf(index: &mut Rsmi, leaf_id: NodeId, refit: bool) {
    let (first, n_blocks) = {
        let leaf = index.leaf(leaf_id);
        (leaf.first_block, leaf.n_blocks)
    };
    let mut points = Vec::new();
    for i in 0..n_blocks {
        index.store.drain_chain(first + i, &mut points);
    }
    let mbr = geom::bounding_rect(&points).unwrap_or_else(Rect::empty);
    let leaf = index.leaf(leaf_id);
    let curve = index.config.curve;
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
    let b = index.store.capacity();
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
            Some((prev, t)) if prev == i => index.store.insert_overflow_after(t),
            _ => first + i,
        };
        tail = Some((i, block));
        for &k in &ordered[range] {
            index.store.block_mut(block).push(points[k]);
            let pred = keys[k].0;
            let offset = i as u64;
            below = below.max(offset.saturating_sub(pred));
            above = above.max(pred.saturating_sub(offset));
            homes.push(offset);
        }
    }

    let m = &mut index.maint[leaf_id];
    *m = LeafMaint {
        ops_since_train: if refit { 0 } else { m.ops_since_train },
        ..LeafMaint::default()
    };
    let seed = index
        .config
        .seed
        .wrapping_add(leaf_id as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let (epochs, learning_rate) = (index.config.epochs, index.config.learning_rate);
    let Node::Leaf(leaf) = &mut index.nodes[leaf_id] else {
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

impl Rsmi {
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
}
