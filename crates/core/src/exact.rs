//! The exact query paths of the RSMI structure — the paper's **RSMIa**.
//!
//! Every sub-model stores the MBR of the points below it, so the model tree
//! doubles as an R-tree directory.  This module supplies that directory as
//! a [`storage::directory`] view (`ExactView`); `Rsmi`'s `SpatialIndex`
//! impl runs the shared traversals over it for distance-range queries and
//! joins, and for windows and kNN once [`Rsmi::into_exact`] has turned the
//! exact answers on.  The learned paths stay in [`crate::index`].
//!
//! Accounting: a node per expanded internal model.  A leaf's entries are
//! its blocks' MBRs, read from the block headers — testing one is free, as
//! for any directory entry; a block is charged, with its candidates, when
//! it is opened.

use crate::index::Rsmi;
use crate::node::Node;
use common::QueryContext;
use geom::Rect;
use std::ops::ControlFlow;
use storage::directory::{Child, DirectoryView};
use storage::Block;

/// One exact query's view of the model tree as an MBR directory.
pub(crate) struct ExactView<'a> {
    pub(crate) index: &'a Rsmi,
    pub(crate) cx: &'a mut QueryContext,
}

impl DirectoryView for ExactView<'_> {
    fn root(&self) -> Option<(Rect, Child)> {
        let root = self.index.root?;
        Some((self.index.nodes[root].mbr(), Child::Node(root)))
    }

    #[inline]
    fn entries(
        &mut self,
        node: usize,
        mut f: impl FnMut(&mut Self, Rect, Child) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let index = self.index;
        match &index.nodes[node] {
            Node::Internal(n) => {
                self.cx.count_node();
                for (mbr, child) in n.child_mbrs.iter().zip(&n.children) {
                    if let Some(c) = child {
                        f(self, *mbr, Child::Node(*c))?;
                    }
                }
            }
            Node::Leaf(leaf) => {
                for base in leaf.first_block..leaf.first_block + leaf.n_blocks {
                    for (b, block) in index.store.overflow_chain(base) {
                        f(self, block.mbr(), Child::Page(b))?;
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }

    #[inline]
    fn page(&mut self, page: usize) -> &Block {
        let block = self.index.store.block(page);
        self.cx.count_block_scan(block.len());
        block
    }
}
