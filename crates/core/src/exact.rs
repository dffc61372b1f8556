//! The exact query paths of the RSMI structure — the paper's **RSMIa**.
//!
//! Every sub-model stores the MBR of the points below it, so the model tree
//! doubles as an R-tree directory.  This module supplies that directory as
//! a [`storage::directory`] view (`ExactView`) and routes the exact
//! window / kNN / distance-range / distance-join queries through the shared
//! traversal; the learned paths stay in [`crate::index`].
//!
//! Accounting: a node per expanded internal model.  A leaf's entries are
//! its blocks' MBRs, read from the block headers — testing one is free, as
//! for any directory entry; a block is charged, with its candidates, when
//! it is opened.

use crate::index::Rsmi;
use crate::node::Node;
use crate::RsmiConfig;
use common::{CopyVisit, QueryContext, SpatialIndex};
use geom::{Point, Rect};
use persist::{PersistError, SnapshotReader, SnapshotWriter};
use std::ops::ControlFlow;
use storage::directory::{self, Child, DirectoryView};
use storage::Block;

/// One exact query's view of the model tree as an MBR directory.
struct ExactView<'a> {
    index: &'a Rsmi,
    cx: &'a mut QueryContext,
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

impl Rsmi {
    /// Exact window query — the paper's **RSMIa** variant: an R-tree-style
    /// traversal over the MBRs stored with every sub-model.
    pub fn window_query_exact_visit(
        &self,
        window: &Rect,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        directory::window(&mut ExactView { index: self, cx }, window, visit)
    }

    /// Exact distance-range query: an R-tree-style `MINDIST` traversal over
    /// the MBRs stored with every sub-model.
    ///
    /// Unlike window and kNN queries, distance-range answers are exact for
    /// *both* RSMI variants: the learned scan-range prediction cannot bound
    /// a circle (curve values inside a Hilbert window are not bracketed by
    /// its corners), so the trait's distance queries always take this
    /// MBR-guided path and are held to the brute-force oracle by the
    /// conformance tests.
    pub fn range_query_exact_visit(
        &self,
        center: &Point,
        radius: f64,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        directory::range(&mut ExactView { index: self, cx }, center, radius, visit)
    }

    /// Exact index-nested join worker over an explicit probe set: one
    /// traversal of the model tree carries every probe, each node's MBR
    /// discarding the probes beyond the radius before descending (the
    /// learned directory doubles as the join's pruning directory), and each
    /// surviving block is read once for all probes that reach it.
    pub(crate) fn distance_join_probes_visit(
        &self,
        probes: &[Point],
        radius: f64,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point, &Point),
    ) {
        directory::distance_join(&mut ExactView { index: self, cx }, probes, radius, visit)
    }
}

/// The paper's **RSMIa** variant: the same structure as [`Rsmi`], answering
/// window and kNN queries *exactly* through an MBR-guided traversal instead
/// of the learned scan-range prediction.
///
/// The wrapper shares no state with other indices — it owns its `Rsmi` — so
/// the registry can hand it out as an independent `Box<dyn SpatialIndex>`.
#[derive(Debug, Clone)]
pub struct RsmiExact(Rsmi);

impl RsmiExact {
    /// Bulk-loads the underlying RSMI.
    pub fn build(points: Vec<Point>, config: RsmiConfig) -> Self {
        Self(Rsmi::build(points, config))
    }

    /// Wraps an already-built RSMI.
    pub fn from_rsmi(inner: Rsmi) -> Self {
        Self(inner)
    }

    /// Reads an RSMIa snapshot: the identical structure record as
    /// [`Rsmi::read_snapshot`] (the variant differs only in its query
    /// traversal, which the kind tag selects at load time).
    pub fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(Self(Rsmi::read_snapshot(r)?))
    }
}

impl SpatialIndex for RsmiExact {
    fn name(&self) -> &'static str {
        "RSMIa"
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn point_query_visit(&self, q: &Point, cx: &mut QueryContext, visit: &mut CopyVisit) {
        self.0.point_query_visit(q, cx, visit)
    }

    fn window_query_visit(
        &self,
        window: &Rect,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        self.0.window_query_exact_visit(window, cx, visit)
    }

    fn knn_query_visit(
        &self,
        q: &Point,
        k: usize,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        // A best-first traversal over the sub-model MBRs, closest first.
        directory::knn(&mut ExactView { index: &self.0, cx }, q, k, visit)
    }

    fn range_query_visit(
        &self,
        center: &Point,
        radius: f64,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        self.0.range_query_exact_visit(center, radius, cx, visit)
    }

    fn for_each_point(&self, visit: &mut dyn FnMut(&Point)) {
        SpatialIndex::for_each_point(&self.0, visit)
    }

    fn distance_join_probes(
        &self,
        probes: &[Point],
        radius: f64,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point, &Point),
    ) {
        self.0.distance_join_probes_visit(probes, radius, cx, visit)
    }

    fn insert(&mut self, p: Point) {
        self.0.insert(p)
    }

    fn delete(&mut self, p: &Point) -> bool {
        self.0.delete(p)
    }

    fn rebuild(&mut self) {
        self.0.rebuild()
    }

    fn size_bytes(&self) -> usize {
        SpatialIndex::size_bytes(&self.0)
    }

    fn height(&self) -> usize {
        SpatialIndex::height(&self.0)
    }

    fn model_count(&self) -> usize {
        SpatialIndex::model_count(&self.0)
    }

    fn model_error_bounds(&self) -> Option<(u64, u64)> {
        SpatialIndex::model_error_bounds(&self.0)
    }

    fn maintenance_stats(&self) -> Option<common::MaintenanceStats> {
        self.0.maintenance_stats()
    }

    fn rebuild_partial(&mut self, budget: &common::MaintenanceBudget) -> usize {
        self.0.rebuild_partial(budget)
    }

    fn clone_index(&self) -> Option<Box<dyn SpatialIndex>> {
        Some(Box::new(self.clone()))
    }

    fn write_snapshot(&self, w: &mut SnapshotWriter) -> Result<(), PersistError> {
        self.0.write_snapshot(w)
    }
}
