//! HRR — the rank-space-based R-tree baseline (Qi et al., PVLDB 2018).
//!
//! This is the R-tree bulk-loading technique the RSMI paper builds its
//! ordering on: points are mapped to the rank space, ordered along a Hilbert
//! curve, and every `B` consecutive points are packed into a leaf; upper
//! levels are built by packing every `F` node MBRs into a parent.  The
//! resulting R-tree offers "the state-of-the-art window query performance"
//! and is the paper's strongest traditional competitor.
//!
//! The family supplies layout, bulk-load and updates.  All five query
//! classes run through [`storage::directory`] over `View`, which charges a
//! node per expanded directory node (leaf parents included) and a block per
//! opened data block; block MBRs sit in the directory, so testing one is
//! free.

use common::{CopyVisit, QueryContext, SpatialIndex};
use geom::{order_key, Point, Rect};
use persist::{PersistError, SnapshotReader, SnapshotWriter};
use sfc::{CurveKind, RankSpace};
use std::ops::ControlFlow;
use storage::directory::{self, Child, DirectoryView};
use storage::{Block, BlockId, BlockStore};

/// Fan-out of internal nodes (the paper stores up to 100 MBRs per node).
const FANOUT: usize = 100;

/// Section tag of the HRR directory (nodes and block MBRs).
const SECTION_HRR: u32 = 0x4801;

#[derive(Debug, Clone)]
enum NodeKind {
    /// Children are other internal nodes.
    Internal(Vec<usize>),
    /// Children are data blocks in the block store.
    LeafParent(Vec<BlockId>),
}

#[derive(Debug, Clone)]
struct TreeNode {
    mbr: Rect,
    kind: NodeKind,
}

/// The bulk-loaded rank-space Hilbert R-tree ("HRR").
#[derive(Debug)]
pub struct HilbertRTree {
    store: BlockStore,
    nodes: Vec<TreeNode>,
    /// MBR of each data block (kept in the directory so that traversal can
    /// prune without touching the block itself).
    block_mbrs: Vec<Rect>,
    root: Option<usize>,
    height: usize,
    n_points: usize,
}

impl HilbertRTree {
    /// Bulk-loads the tree with the given block capacity.
    pub fn build(points: Vec<Point>, block_capacity: usize) -> Self {
        let n = points.len();
        let mut store = BlockStore::new(block_capacity);
        if n == 0 {
            return Self {
                store,
                nodes: Vec::new(),
                block_mbrs: Vec::new(),
                root: None,
                height: 0,
                n_points: 0,
            };
        }
        // Rank-space Hilbert ordering, then packing (§3.1 of the RSMI paper,
        // which reuses exactly this construction).
        let rs = RankSpace::new(&points);
        let perm = rs.sorted_permutation(CurveKind::Hilbert);
        let ordered: Vec<Point> = perm.into_iter().map(|i| points[i]).collect();
        let range = store.pack(&ordered);
        let block_mbrs: Vec<Rect> = range.clone().map(|id| store.block(id).mbr()).collect();

        // Build the directory bottom-up: pack every FANOUT children into a
        // parent node, level by level, until a single root remains.
        let mut nodes: Vec<TreeNode> = Vec::new();
        let mut current: Vec<usize> = Vec::new();
        for chunk_start in (0..block_mbrs.len()).step_by(FANOUT) {
            let chunk_end = (chunk_start + FANOUT).min(block_mbrs.len());
            let blocks: Vec<BlockId> =
                (range.start + chunk_start..range.start + chunk_end).collect();
            let mbr = block_mbrs[chunk_start..chunk_end]
                .iter()
                .fold(Rect::empty(), |acc, r| acc.union(r));
            nodes.push(TreeNode {
                mbr,
                kind: NodeKind::LeafParent(blocks),
            });
            current.push(nodes.len() - 1);
        }
        let mut height = 2; // leaf-parent level + data blocks
        while current.len() > 1 {
            let mut next = Vec::new();
            for chunk in current.chunks(FANOUT) {
                let mbr = chunk
                    .iter()
                    .map(|&i| nodes[i].mbr)
                    .fold(Rect::empty(), |acc, r| acc.union(&r));
                nodes.push(TreeNode {
                    mbr,
                    kind: NodeKind::Internal(chunk.to_vec()),
                });
                next.push(nodes.len() - 1);
            }
            current = next;
            height += 1;
        }
        let root = current.first().copied();
        Self {
            store,
            nodes,
            block_mbrs,
            root,
            height,
            n_points: n,
        }
    }

    fn block_mbr(&self, id: BlockId) -> Rect {
        self.block_mbrs
            .get(id)
            .copied()
            .unwrap_or_else(|| self.store.block(id).mbr())
    }

    fn update_block_mbr(&mut self, id: BlockId) {
        let mbr = self.store.block(id).mbr();
        if id < self.block_mbrs.len() {
            self.block_mbrs[id] = mbr;
        } else {
            // Blocks appended by insertion splits.
            while self.block_mbrs.len() < id {
                self.block_mbrs.push(Rect::empty());
            }
            self.block_mbrs.push(mbr);
        }
    }

    /// Recomputes ancestor MBRs along a root-to-node path after an update.
    fn refresh_mbrs(&mut self, path: &[usize]) {
        for &node_id in path.iter().rev() {
            let mbr = match &self.nodes[node_id].kind {
                NodeKind::Internal(children) => children
                    .iter()
                    .map(|&c| self.nodes[c].mbr)
                    .fold(Rect::empty(), |acc, r| acc.union(&r)),
                NodeKind::LeafParent(blocks) => blocks
                    .iter()
                    .map(|&b| self.block_mbr(b))
                    .fold(Rect::empty(), |acc, r| acc.union(&r)),
            };
            self.nodes[node_id].mbr = mbr;
        }
    }

    /// Chooses the leaf-parent (and block) with the minimum MBR enlargement
    /// for an insertion, returning the path of internal nodes.
    fn choose_block(&self, p: &Point) -> Option<(Vec<usize>, BlockId)> {
        let mut cur = self.root?;
        let mut path = vec![cur];
        loop {
            match &self.nodes[cur].kind {
                NodeKind::Internal(children) => {
                    let best = children
                        .iter()
                        .copied()
                        .min_by_key(|&c| {
                            let mbr = &self.nodes[c].mbr;
                            let growth = mbr.enlargement(&Rect::from_point(*p));
                            (order_key(growth), order_key(mbr.area()))
                        })
                        .expect("internal nodes have children");
                    path.push(best);
                    cur = best;
                }
                NodeKind::LeafParent(blocks) => {
                    let best = blocks
                        .iter()
                        .copied()
                        .min_by_key(|&b| {
                            order_key(self.block_mbr(b).enlargement(&Rect::from_point(*p)))
                        })
                        .expect("leaf parents have blocks");
                    return Some((path, best));
                }
            }
        }
    }

    /// Reads an HRR snapshot written by [`SpatialIndex::write_snapshot`].
    pub fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        let store = BlockStore::read_snapshot(r)?;
        r.begin_section(SECTION_HRR)?;
        let root = r.get_opt_usize()?;
        let height = r.get_usize()?;
        let n_points = r.get_usize()?;
        let n_nodes = r.get_len(33)?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let mbr = r.get_rect()?;
            let kind = match r.get_u8()? {
                0 => NodeKind::Internal(r.get_indices(n_nodes)?),
                1 => NodeKind::LeafParent(r.get_indices(store.len())?),
                other => {
                    return Err(PersistError::Corrupt(format!(
                        "unknown HRR node kind byte {other}"
                    )))
                }
            };
            nodes.push(TreeNode { mbr, kind });
        }
        let root = root.map(|i| persist::check_index(i, n_nodes)).transpose()?;
        let n_mbrs = r.get_len(32)?;
        let mut block_mbrs = Vec::with_capacity(n_mbrs);
        for _ in 0..n_mbrs {
            block_mbrs.push(r.get_rect()?);
        }
        r.end_section()?;
        Ok(Self {
            store,
            nodes,
            block_mbrs,
            root,
            height,
            n_points,
        })
    }
}

/// One query's view of the directory (see the module docs for what it
/// charges).
struct View<'a> {
    tree: &'a HilbertRTree,
    cx: &'a mut QueryContext,
}

impl DirectoryView for View<'_> {
    fn root(&self) -> Option<(Rect, Child)> {
        let root = self.tree.root?;
        Some((self.tree.nodes[root].mbr, Child::Node(root)))
    }

    #[inline]
    fn entries(
        &mut self,
        node: usize,
        mut f: impl FnMut(&mut Self, Rect, Child) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.cx.count_node();
        let tree = self.tree;
        match &tree.nodes[node].kind {
            NodeKind::Internal(children) => children
                .iter()
                .try_for_each(|&c| f(self, tree.nodes[c].mbr, Child::Node(c))),
            NodeKind::LeafParent(blocks) => blocks
                .iter()
                .try_for_each(|&b| f(self, tree.block_mbr(b), Child::Page(b))),
        }
    }

    #[inline]
    fn page(&mut self, page: usize) -> &Block {
        let block = self.tree.store.block(page);
        self.cx.count_block_scan(block.len());
        block
    }
}

impl SpatialIndex for HilbertRTree {
    fn name(&self) -> &'static str {
        "HRR"
    }

    fn len(&self) -> usize {
        self.n_points
    }

    fn point_query_visit(&self, q: &Point, cx: &mut QueryContext, visit: &mut CopyVisit) {
        directory::point(&mut View { tree: self, cx }, q, visit)
    }

    fn window_query_visit(
        &self,
        window: &Rect,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        directory::window(&mut View { tree: self, cx }, window, visit)
    }

    fn knn_query_visit(
        &self,
        q: &Point,
        k: usize,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        directory::knn(&mut View { tree: self, cx }, q, k, visit)
    }

    fn range_query_visit(
        &self,
        center: &Point,
        radius: f64,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        directory::range(&mut View { tree: self, cx }, center, radius, visit)
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
        directory::distance_join(&mut View { tree: self, cx }, probes, radius, visit)
    }

    fn insert(&mut self, p: Point) {
        if self.root.is_none() {
            *self = HilbertRTree::build(vec![p], self.store.capacity());
            return;
        }
        let (path, block) = self.choose_block(&p).expect("non-empty tree");
        if !self.store.block(block).is_full() {
            self.store.block_mut(block).push(p);
            self.update_block_mbr(block);
        } else {
            // Split: move the half of the block farthest from the new point's
            // side along the longer MBR axis into a fresh block registered
            // under the same leaf parent.
            let mut pts: Vec<Point> = self.store.block(block).to_points();
            pts.push(p);
            let mbr = pts.iter().fold(Rect::empty(), |mut acc, q| {
                acc.expand_to_point(*q);
                acc
            });
            if mbr.width() >= mbr.height() {
                pts.sort_by_key(|p| order_key(p.x));
            } else {
                pts.sort_by_key(|p| order_key(p.y));
            }
            let half = pts.len() / 2;
            let second: Vec<Point> = pts.split_off(half);
            // Rewrite the original block with the first half.
            let original = self.store.block_mut(block);
            let old_ids: Vec<u64> = original.ids().to_vec();
            for id in old_ids {
                original.remove_by_id(id);
            }
            for q in &pts {
                original.push(*q);
            }
            let new_block = self.store.allocate();
            for q in &second {
                self.store.block_mut(new_block).push(*q);
            }
            self.update_block_mbr(block);
            self.update_block_mbr(new_block);
            // Register the new block under the leaf parent (allowed to exceed
            // the nominal fan-out; a full node-split cascade is not needed
            // for the paper's insertion experiments).
            if let Some(&leaf_parent) = path.last() {
                if let NodeKind::LeafParent(blocks) = &mut self.nodes[leaf_parent].kind {
                    blocks.push(new_block);
                }
            }
        }
        self.refresh_mbrs(&path);
        self.n_points += 1;
    }

    fn delete(&mut self, p: &Point) -> bool {
        let Some(root) = self.root else { return false };
        // MBR-guided search for every block holding a copy of p; `path` is
        // the chain of ancestors of the node on top of the stack.
        let mut stack = vec![(root, 0)];
        let mut path = Vec::new();
        let mut hits = Vec::new();
        let mut removed = 0;
        while let Some((id, depth)) = stack.pop() {
            if !self.nodes[id].mbr.contains(p) {
                continue;
            }
            path.truncate(depth);
            path.push(id);
            match &self.nodes[id].kind {
                NodeKind::Internal(children) => {
                    stack.extend(children.iter().map(|&c| (c, depth + 1)));
                }
                NodeKind::LeafParent(blocks) => {
                    for &b in blocks {
                        let n = self.store.block_mut(b).remove_at(p.x, p.y, p.id);
                        if n > 0 {
                            removed += n;
                            hits.push(b);
                        }
                    }
                }
            }
            if !hits.is_empty() {
                for b in hits.drain(..) {
                    self.update_block_mbr(b);
                }
                self.refresh_mbrs(&path);
            }
        }
        self.n_points -= removed;
        removed > 0
    }

    fn size_bytes(&self) -> usize {
        let dir: usize = self
            .nodes
            .iter()
            .map(|n| {
                std::mem::size_of::<Rect>()
                    + match &n.kind {
                        NodeKind::Internal(c) => c.len() * std::mem::size_of::<usize>(),
                        NodeKind::LeafParent(b) => b.len() * std::mem::size_of::<BlockId>(),
                    }
            })
            .sum();
        // HRR additionally keeps two B-trees for the rank-space mapping of
        // updates (the reason it is larger than RSMI in Fig. 7a); charge an
        // equivalent of 2 x 16 bytes per point for them.
        self.store.size_bytes()
            + dir
            + self.block_mbrs.len() * std::mem::size_of::<Rect>()
            + self.n_points * 32
    }

    fn height(&self) -> usize {
        self.height
    }

    fn write_snapshot(&self, w: &mut SnapshotWriter) -> Result<(), PersistError> {
        self.store.write_snapshot(w);
        w.begin_section(SECTION_HRR);
        w.put_opt_usize(self.root);
        w.put_usize(self.height);
        w.put_usize(self.n_points);
        w.put_usize(self.nodes.len());
        for node in &self.nodes {
            w.put_rect(&node.mbr);
            match &node.kind {
                NodeKind::Internal(children) => {
                    w.put_u8(0);
                    w.put_usize(children.len());
                    for &c in children {
                        w.put_usize(c);
                    }
                }
                NodeKind::LeafParent(blocks) => {
                    w.put_u8(1);
                    w.put_usize(blocks.len());
                    for &b in blocks {
                        w.put_usize(b);
                    }
                }
            }
        }
        w.put_usize(self.block_mbrs.len());
        for mbr in &self.block_mbrs {
            w.put_rect(mbr);
        }
        w.end_section();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::brute_force;
    use datagen::{generate, Distribution};

    fn cx() -> QueryContext {
        QueryContext::new()
    }

    fn build_small(n: usize) -> (Vec<Point>, HilbertRTree) {
        let pts = generate(Distribution::skewed_default(), n, 23);
        let tree = HilbertRTree::build(pts.clone(), 20);
        (pts, tree)
    }

    #[test]
    fn point_queries_find_every_point() {
        let (pts, tree) = build_small(1500);
        for p in &pts {
            assert_eq!(tree.point_query(p, &mut cx()).map(|f| f.id), Some(p.id));
        }
        assert!(tree
            .point_query(&Point::new(0.987654, 0.123456), &mut cx())
            .is_none());
    }

    #[test]
    fn window_queries_are_exact() {
        let (pts, tree) = build_small(2000);
        for w in [
            Rect::new(0.0, 0.0, 0.2, 0.01),
            Rect::new(0.3, 0.0, 0.7, 0.2),
            Rect::new(0.0, 0.0, 1.0, 1.0),
        ] {
            let mut truth: Vec<u64> = brute_force::window_query(&pts, &w)
                .iter()
                .map(|p| p.id)
                .collect();
            let mut got: Vec<u64> = tree
                .window_query(&w, &mut cx())
                .iter()
                .map(|p| p.id)
                .collect();
            truth.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, truth);
        }
    }

    #[test]
    fn knn_matches_brute_force_distances() {
        let (pts, tree) = build_small(1000);
        for q in [Point::new(0.5, 0.1), Point::new(0.9, 0.9)] {
            for k in [1, 10, 50] {
                let truth = brute_force::knn_query(&pts, &q, k);
                let got = tree.knn_query(&q, k, &mut cx());
                assert_eq!(got.len(), k);
                for (t, g) in truth.iter().zip(&got) {
                    assert!((t.dist(&q) - g.dist(&q)).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn tree_height_grows_logarithmically() {
        let (_, small) = build_small(500);
        let pts = generate(Distribution::Uniform, 50_000, 29);
        let big = HilbertRTree::build(pts, 100);
        assert!(small.height() >= 2);
        assert!(big.height() >= small.height());
        assert!(big.height() <= 4);
    }

    #[test]
    fn inserts_are_found_and_window_queries_stay_exact() {
        let (pts, mut tree) = build_small(800);
        let extra: Vec<Point> = (0..200)
            .map(|i| {
                Point::with_id(
                    0.001 + 0.004 * (i as f64 % 10.0),
                    0.002 + 0.0001 * i as f64,
                    50_000 + i,
                )
            })
            .collect();
        for p in &extra {
            tree.insert(*p);
        }
        assert_eq!(tree.len(), 1000);
        for p in &extra {
            assert_eq!(tree.point_query(p, &mut cx()).map(|f| f.id), Some(p.id));
        }
        let w = Rect::new(0.0, 0.0, 0.05, 0.05);
        let mut all = pts.clone();
        all.extend_from_slice(&extra);
        let mut truth: Vec<u64> = brute_force::window_query(&all, &w)
            .iter()
            .map(|p| p.id)
            .collect();
        let mut got: Vec<u64> = tree
            .window_query(&w, &mut cx())
            .iter()
            .map(|p| p.id)
            .collect();
        truth.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, truth);
    }

    #[test]
    fn delete_removes_points() {
        let (pts, mut tree) = build_small(600);
        assert!(tree.delete(&pts[100]));
        assert!(tree.point_query(&pts[100], &mut cx()).is_none());
        assert_eq!(tree.len(), 599);
        assert!(!tree.delete(&pts[100]));
    }

    #[test]
    fn empty_tree_is_harmless_and_bootstraps_on_insert() {
        let mut tree = HilbertRTree::build(vec![], 20);
        assert!(tree.point_query(&Point::new(0.5, 0.5), &mut cx()).is_none());
        assert!(tree.window_query(&Rect::unit(), &mut cx()).is_empty());
        assert!(tree
            .knn_query(&Point::new(0.5, 0.5), 5, &mut cx())
            .is_empty());
        tree.insert(Point::with_id(0.1, 0.9, 3));
        assert_eq!(tree.len(), 1);
        assert!(tree.point_query(&Point::new(0.1, 0.9), &mut cx()).is_some());
    }

    #[test]
    fn access_accounting_counts_nodes_and_blocks() {
        let (pts, tree) = build_small(2000);
        let mut c = cx();
        let _ = tree.point_query(&pts[0], &mut c);
        // At least the leaf-parent node and one block are touched.
        assert!(c.stats.nodes_visited >= 1);
        assert!(c.stats.blocks_touched >= 1);
        assert!(c.stats.total_accesses() >= 2);
    }
}
