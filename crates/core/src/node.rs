//! The node types of the RSMI structure.
//!
//! An RSMI is an arena of nodes (Fig. 4 of the paper): *internal* nodes carry
//! a partitioning model that routes a point to one of its children, *leaf*
//! nodes carry an indexing model that predicts the data block of a point.
//! Both node kinds store an MBR per child / per node so that the exact-answer
//! variant (RSMIa) and the best-first kNN algorithm can traverse the
//! structure like an R-tree.

use geom::Rect;
use mlp::ScaledRegressor;
use storage::BlockId;

/// Index of a node within the RSMI arena.
pub type NodeId = usize;

/// An internal node: a learned partitioning function plus its children.
#[derive(Debug, Clone)]
pub struct InternalNode {
    /// The partitioning model `M_{i,j}`: maps coordinates to the curve value
    /// of a cell of this node's non-regular grid.
    pub model: ScaledRegressor,
    /// Child node per predicted cell value (`None` when no point was routed
    /// to that cell during the build).
    pub children: Vec<Option<NodeId>>,
    /// MBR of the points routed to each child (aligned with `children`).
    pub child_mbrs: Vec<Rect>,
    /// MBR of all points under this node.
    pub mbr: Rect,
}

impl InternalNode {
    /// Nearest non-empty child to the predicted cell `j`, searching outward.
    ///
    /// Routing a query point whose predicted cell received no data during the
    /// build would otherwise dead-end; the paper's query algorithms implicitly
    /// assume a child exists, which is guaranteed for indexed points but not
    /// for arbitrary query coordinates (window corners, kNN anchors).
    pub fn nearest_child(&self, j: usize) -> Option<(usize, NodeId)> {
        if let Some(Some(c)) = self.children.get(j) {
            return Some((j, *c));
        }
        let len = self.children.len();
        for offset in 1..len {
            if j >= offset {
                if let Some(c) = self.children[j - offset] {
                    return Some((j - offset, c));
                }
            }
            if j + offset < len {
                if let Some(c) = self.children[j + offset] {
                    return Some((j + offset, c));
                }
            }
        }
        None
    }

    /// Approximate in-memory size of the node in bytes.
    pub fn size_bytes(&self) -> usize {
        self.model.size_bytes()
            + self.children.len() * std::mem::size_of::<Option<NodeId>>()
            + self.child_mbrs.len() * std::mem::size_of::<Rect>()
            + std::mem::size_of::<Rect>()
    }
}

/// A leaf node: a learned indexing model over a contiguous range of blocks.
#[derive(Debug, Clone)]
pub struct LeafNode {
    /// The indexing model: maps coordinates to a *local* block offset in
    /// `[0, n_blocks)`.
    pub model: ScaledRegressor,
    /// Global ID of this leaf's first block.
    pub first_block: BlockId,
    /// Number of blocks bulk-loaded for this leaf.
    pub n_blocks: usize,
    /// MBR of the points stored under this leaf.
    pub mbr: Rect,
}

impl LeafNode {
    /// Global block ID for a local offset, clamped into the leaf's range.
    #[inline]
    pub fn global_block(&self, local: u64) -> BlockId {
        self.first_block + (local as usize).min(self.n_blocks.saturating_sub(1))
    }

    /// Predicted global block range for a point, widened by the model's
    /// error bounds and clamped to the leaf (the scan range of Algorithm 1).
    ///
    /// A true block ID can lie up to `err_above` *below* the prediction
    /// (over-prediction) and up to `err_below` *above* it (under-prediction),
    /// so the scan range is `[pred − err_above, pred + err_below]`.
    pub fn predicted_range(&self, x: f64, y: f64) -> (BlockId, BlockId) {
        let local = self.model.predict_xy(x, y);
        let lo_local = local.saturating_sub(self.model.err_above());
        let hi_local = (local + self.model.err_below()).min(self.n_blocks.saturating_sub(1) as u64);
        (
            self.first_block + lo_local as usize,
            self.first_block + hi_local as usize,
        )
    }

    /// Approximate in-memory size of the node in bytes (excluding blocks,
    /// which the block store accounts for).
    pub fn size_bytes(&self) -> usize {
        self.model.size_bytes() + std::mem::size_of::<Rect>() + 2 * std::mem::size_of::<usize>()
    }
}

/// A node of the RSMI arena.
#[derive(Debug, Clone)]
pub enum Node {
    /// Routing node with a learned partitioning function.
    Internal(InternalNode),
    /// Leaf node with a learned indexing function over data blocks.
    Leaf(LeafNode),
}

impl Node {
    /// The MBR of all points under this node.
    pub fn mbr(&self) -> Rect {
        match self {
            Node::Internal(n) => n.mbr,
            Node::Leaf(n) => n.mbr,
        }
    }

    /// Approximate in-memory size in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            Node::Internal(n) => n.size_bytes(),
            Node::Leaf(n) => n.size_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp::{MlpConfig, ScaledRegressor};

    fn tiny_model() -> ScaledRegressor {
        let cfg = MlpConfig {
            input_dim: 2,
            hidden: 4,
            learning_rate: 0.3,
            epochs: 5,
            batch_size: 4,
            seed: 1,
        };
        let inputs = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![0.5, 0.5]];
        let targets = vec![0u64, 2, 1];
        ScaledRegressor::fit(cfg, &inputs, &targets)
    }

    #[test]
    fn nearest_child_prefers_exact_then_searches_outward() {
        let node = InternalNode {
            model: tiny_model(),
            children: vec![None, Some(7), None, None, Some(9)],
            child_mbrs: vec![Rect::empty(); 5],
            mbr: Rect::unit(),
        };
        assert_eq!(node.nearest_child(1), Some((1, 7)));
        assert_eq!(node.nearest_child(0), Some((1, 7)));
        // Cell 3 is empty; cell 4 (distance 1) wins over cell 1 (distance 2).
        assert_eq!(node.nearest_child(3), Some((4, 9)));
    }

    #[test]
    fn nearest_child_of_all_empty_is_none() {
        let node = InternalNode {
            model: tiny_model(),
            children: vec![None, None],
            child_mbrs: vec![Rect::empty(); 2],
            mbr: Rect::unit(),
        };
        assert_eq!(node.nearest_child(0), None);
    }

    #[test]
    fn leaf_predicted_range_is_clamped_to_the_leaf() {
        let leaf = LeafNode {
            model: tiny_model(),
            first_block: 10,
            n_blocks: 3,
            mbr: Rect::unit(),
        };
        let (lo, hi) = leaf.predicted_range(0.5, 0.5);
        assert!(lo >= 10);
        assert!(hi <= 12);
        assert!(lo <= hi);
        assert_eq!(leaf.global_block(100), 12);
    }

    #[test]
    fn node_enum_accessors() {
        let leaf = Node::Leaf(LeafNode {
            model: tiny_model(),
            first_block: 0,
            n_blocks: 1,
            mbr: Rect::new(0.0, 0.0, 0.5, 0.5),
        });
        assert_eq!(leaf.mbr(), Rect::new(0.0, 0.0, 0.5, 0.5));
        assert!(leaf.size_bytes() > 0);
    }
}
