//! K-D-B-tree baseline (Robinson, SIGMOD 1981), as used in §6.1: a kd-tree
//! realised with B-tree-style multi-way nodes so that both the directory and
//! the data reside in fixed-capacity blocks.
//!
//! The bulk-load recursively cuts each node's region into an (up to)
//! `√F x √F` grid of equi-depth cells (quantile cuts by x, then by y inside
//! every column), mirroring the alternating-dimension splits of a kd-tree
//! while keeping the fan-out of a disk-based K-D-B-tree.  Regions tile their
//! parent region exactly, so every location belongs to exactly one leaf —
//! the property that makes K-D-B window queries overlap-free.  The root
//! covers the unit square and every bulk-loaded point; an insert outside
//! the tree's space widens the regions on its path to hold it, and those
//! may then overlap their siblings, which the traversal (it follows every
//! region that holds a location) already allows.
//!
//! The family supplies layout, bulk-load and updates.  All five query
//! classes run through [`storage::directory`] over `View`, which charges a
//! node per expanded internal node and a block per opened leaf block; a
//! leaf is a directory node that costs nothing and whose one entry is its
//! block.

use common::{CopyVisit, QueryContext, SpatialIndex};
use geom::{order_key, Point, Rect};
use persist::{PersistError, SnapshotReader, SnapshotWriter};
use std::ops::ControlFlow;
use storage::directory::{self, Child, DirectoryView};
use storage::{Block, BlockId, BlockStore};

/// Directory fan-out (√FANOUT cuts per dimension), matching the paper's 100
/// entries per internal node.
const FANOUT_SIDE: usize = 10;

/// Section tag of the K-D-B directory.
const SECTION_KDB: u32 = 0x4B01;

#[derive(Debug, Clone)]
enum NodeKind {
    Internal(Vec<usize>),
    Leaf(BlockId),
}

#[derive(Debug, Clone)]
struct KdbNode {
    region: Rect,
    kind: NodeKind,
}

/// The K-D-B-tree ("KDB" in the paper's figures).
#[derive(Debug)]
pub struct KdbTree {
    store: BlockStore,
    nodes: Vec<KdbNode>,
    root: Option<usize>,
    height: usize,
    n_points: usize,
}

impl KdbTree {
    /// Bulk-loads a K-D-B-tree with the given block capacity.
    pub fn build(points: Vec<Point>, block_capacity: usize) -> Self {
        let mut tree = Self {
            store: BlockStore::new(block_capacity),
            nodes: Vec::new(),
            root: None,
            height: 0,
            n_points: points.len(),
        };
        // The root tiles the unit data square, widened to hold any point
        // outside it, so every point lies in its leaf's region.
        if let Some(mbr) = geom::bounding_rect(&points) {
            let root = tree.build_node(points, Rect::unit().union(&mbr), 1);
            tree.root = Some(root);
        }
        tree
    }

    fn build_node(&mut self, mut points: Vec<Point>, region: Rect, depth: usize) -> usize {
        self.height = self.height.max(depth);
        let capacity = self.store.capacity();
        if points.len() <= capacity {
            let block = self.store.allocate();
            for p in &points {
                self.store.block_mut(block).push(*p);
            }
            let id = self.nodes.len();
            self.nodes.push(KdbNode {
                region,
                kind: NodeKind::Leaf(block),
            });
            return id;
        }
        // Quantile cuts: up to FANOUT_SIDE columns by x, then as many cells
        // by y within each column.  The cut count adapts to the node's
        // cardinality so leaves stay close to full (≈ `capacity` points)
        // instead of degenerating into near-empty blocks.  Cell regions tile
        // `region` exactly.
        let n = points.len();
        let side = ((n as f64 / capacity as f64).sqrt().ceil() as usize).clamp(2, FANOUT_SIDE);
        points.sort_by_key(|p| order_key(p.x));
        let col_size = n.div_ceil(side);
        let mut children = Vec::new();
        let n_cols = n.div_ceil(col_size);
        let mut col_points: Vec<Vec<Point>> =
            points.chunks(col_size).map(<[Point]>::to_vec).collect();
        let mut x_lo = region.min_x;
        for (ci, col) in col_points.iter_mut().enumerate() {
            // The column's upper x boundary: the parent's boundary for the
            // last column, otherwise the first x of the next column.
            let x_hi = if ci + 1 == n_cols {
                region.max_x
            } else {
                points[(ci + 1) * col_size].x
            };
            col.sort_by_key(|p| order_key(p.y));
            let cell_size = col.len().div_ceil(side).max(1);
            let n_cells = col.len().div_ceil(cell_size);
            let mut y_lo = region.min_y;
            for (ri, cell) in col.chunks(cell_size).enumerate() {
                let y_hi = if ri + 1 == n_cells {
                    region.max_y
                } else {
                    col[(ri + 1) * cell_size].y
                };
                let cell_region = Rect::new(x_lo, y_lo, x_hi, y_hi);
                let child = self.build_node(cell.to_vec(), cell_region, depth + 1);
                children.push(child);
                y_lo = y_hi;
            }
            x_lo = x_hi;
        }
        let id = self.nodes.len();
        self.nodes.push(KdbNode {
            region,
            kind: NodeKind::Internal(children),
        });
        id
    }

    /// Descends to the leaf whose region contains the point, widening every
    /// region on the way that does not (a point outside the tree's space),
    /// so the point stays inside its leaf's and its ancestors' regions.
    fn locate_leaf(&mut self, p: &Point) -> Option<usize> {
        let mut cur = self.root?;
        loop {
            self.nodes[cur].region.expand_to_point(*p);
            match &self.nodes[cur].kind {
                NodeKind::Leaf(_) => return Some(cur),
                NodeKind::Internal(children) => {
                    let next = children
                        .iter()
                        .copied()
                        .find(|&c| self.nodes[c].region.contains(p))
                        // In no child (outside the tree's space, or a numerical
                        // edge): the nearest one, which the next step widens.
                        .or_else(|| {
                            children
                                .iter()
                                .copied()
                                .min_by_key(|&c| order_key(self.nodes[c].region.min_dist(p)))
                        })?;
                    cur = next;
                }
            }
        }
    }

    /// Splits a full leaf into an internal node with two half leaves.
    fn split_leaf(&mut self, leaf_idx: usize, extra: Point) {
        let (region, block) = match &self.nodes[leaf_idx].kind {
            NodeKind::Leaf(b) => (self.nodes[leaf_idx].region, *b),
            NodeKind::Internal(_) => unreachable!("split_leaf called on an internal node"),
        };
        let mut pts: Vec<Point> = self.store.block(block).to_points();
        pts.push(extra);
        let split_x = region.width() >= region.height();
        if split_x {
            pts.sort_by_key(|p| order_key(p.x));
        } else {
            pts.sort_by_key(|p| order_key(p.y));
        }
        let half = pts.len() / 2;
        let boundary = if split_x { pts[half].x } else { pts[half].y };
        let (left_region, right_region) = if split_x {
            (
                Rect::new(region.min_x, region.min_y, boundary, region.max_y),
                Rect::new(boundary, region.min_y, region.max_x, region.max_y),
            )
        } else {
            (
                Rect::new(region.min_x, region.min_y, region.max_x, boundary),
                Rect::new(region.min_x, boundary, region.max_x, region.max_y),
            )
        };
        let right: Vec<Point> = pts.split_off(half);
        // Reuse the existing block for the left half.
        {
            let blk = self.store.block_mut(block);
            let ids: Vec<u64> = blk.ids().to_vec();
            for id in ids {
                blk.remove_by_id(id);
            }
            for p in &pts {
                blk.push(*p);
            }
        }
        let right_block = self.store.allocate();
        for p in &right {
            self.store.block_mut(right_block).push(*p);
        }
        let left_node = self.nodes.len();
        self.nodes.push(KdbNode {
            region: left_region,
            kind: NodeKind::Leaf(block),
        });
        let right_node = self.nodes.len();
        self.nodes.push(KdbNode {
            region: right_region,
            kind: NodeKind::Leaf(right_block),
        });
        self.nodes[leaf_idx].kind = NodeKind::Internal(vec![left_node, right_node]);
    }

    /// Reads a K-D-B snapshot written by [`SpatialIndex::write_snapshot`].
    pub fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        let store = BlockStore::read_snapshot(r)?;
        r.begin_section(SECTION_KDB)?;
        let root = r.get_opt_usize()?;
        let height = r.get_usize()?;
        let n_points = r.get_usize()?;
        let n_nodes = r.get_len(33)?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let region = r.get_rect()?;
            let kind = match r.get_u8()? {
                0 => NodeKind::Internal(r.get_indices(n_nodes)?),
                1 => NodeKind::Leaf(r.get_index(store.len())?),
                other => {
                    return Err(PersistError::Corrupt(format!(
                        "unknown KDB node kind byte {other}"
                    )))
                }
            };
            nodes.push(KdbNode { region, kind });
        }
        let root = root.map(|i| persist::check_index(i, n_nodes)).transpose()?;
        r.end_section()?;
        Ok(Self {
            store,
            nodes,
            root,
            height,
            n_points,
        })
    }
}

/// One query's view of the directory (see the module docs for what it
/// charges).
struct View<'a> {
    tree: &'a KdbTree,
    cx: &'a mut QueryContext,
}

impl DirectoryView for View<'_> {
    fn root(&self) -> Option<(Rect, Child)> {
        let root = self.tree.root?;
        Some((self.tree.nodes[root].region, Child::Node(root)))
    }

    #[inline]
    fn entries(
        &mut self,
        node: usize,
        mut f: impl FnMut(&mut Self, Rect, Child) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let tree = self.tree;
        match &tree.nodes[node].kind {
            NodeKind::Internal(children) => {
                self.cx.count_node();
                children
                    .iter()
                    .try_for_each(|&c| f(self, tree.nodes[c].region, Child::Node(c)))
            }
            NodeKind::Leaf(block) => f(self, tree.nodes[node].region, Child::Page(*block)),
        }
    }

    #[inline]
    fn page(&mut self, page: usize) -> &Block {
        let block = self.tree.store.block(page);
        self.cx.count_block_scan(block.len());
        block
    }
}

impl SpatialIndex for KdbTree {
    fn name(&self) -> &'static str {
        "KDB"
    }

    fn len(&self) -> usize {
        self.n_points
    }

    fn point_query_visit(&self, q: &Point, cx: &mut QueryContext, visit: &mut CopyVisit) {
        // A point on a partition boundary lies in the regions of two sibling
        // leaves; the traversal follows every containing child.
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
            *self = KdbTree::build(vec![p], self.store.capacity());
            return;
        }
        let leaf = self.locate_leaf(&p).expect("non-empty tree");
        let block = match self.nodes[leaf].kind {
            NodeKind::Leaf(b) => b,
            NodeKind::Internal(_) => unreachable!("locate_leaf returns leaves"),
        };
        if self.store.block(block).is_full() {
            self.split_leaf(leaf, p);
        } else {
            self.store.block_mut(block).push(p);
        }
        self.n_points += 1;
    }

    fn delete(&mut self, p: &Point) -> bool {
        let Some(root) = self.root else { return false };
        let mut stack = vec![root];
        let mut removed = 0;
        while let Some(id) = stack.pop() {
            if !self.nodes[id].region.contains(p) {
                continue;
            }
            match &self.nodes[id].kind {
                NodeKind::Internal(children) => stack.extend(children),
                NodeKind::Leaf(block) => {
                    removed += self.store.block_mut(*block).remove_at(p.x, p.y, p.id);
                }
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
                        NodeKind::Leaf(_) => std::mem::size_of::<BlockId>(),
                    }
            })
            .sum();
        self.store.size_bytes() + dir
    }

    fn height(&self) -> usize {
        self.height
    }

    fn write_snapshot(&self, w: &mut SnapshotWriter) -> Result<(), PersistError> {
        self.store.write_snapshot(w);
        w.begin_section(SECTION_KDB);
        w.put_opt_usize(self.root);
        w.put_usize(self.height);
        w.put_usize(self.n_points);
        w.put_usize(self.nodes.len());
        for node in &self.nodes {
            w.put_rect(&node.region);
            match &node.kind {
                NodeKind::Internal(children) => {
                    w.put_u8(0);
                    w.put_usize(children.len());
                    for &c in children {
                        w.put_usize(c);
                    }
                }
                NodeKind::Leaf(block) => {
                    w.put_u8(1);
                    w.put_usize(*block);
                }
            }
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

    fn build_small(n: usize, dist: Distribution) -> (Vec<Point>, KdbTree) {
        let pts = generate(dist, n, 31);
        let tree = KdbTree::build(pts.clone(), 20);
        (pts, tree)
    }

    #[test]
    fn point_queries_find_every_point() {
        let (pts, tree) = build_small(1500, Distribution::Uniform);
        for p in &pts {
            assert_eq!(tree.point_query(p, &mut cx()).map(|f| f.id), Some(p.id));
        }
        assert!(tree
            .point_query(&Point::new(0.5000001, 0.4999999), &mut cx())
            .is_none());
    }

    #[test]
    fn leaf_regions_tile_the_space() {
        // Every unit-square location must land in exactly one leaf via
        // locate_leaf, and window queries over the whole space return all
        // points exactly once.
        let (pts, tree) = build_small(2000, Distribution::skewed_default());
        let all = tree.window_query(&Rect::unit(), &mut cx());
        assert_eq!(all.len(), pts.len());
        let mut ids: Vec<u64> = all.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), pts.len());
    }

    #[test]
    fn window_queries_are_exact() {
        let (pts, tree) = build_small(2500, Distribution::Normal);
        for w in [
            Rect::new(0.4, 0.4, 0.6, 0.6),
            Rect::new(0.0, 0.0, 0.3, 1.0),
            Rect::new(0.48, 0.01, 0.52, 0.99),
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
        let (pts, tree) = build_small(1200, Distribution::TigerLike);
        for q in [Point::new(0.2, 0.2), Point::new(0.8, 0.5)] {
            for k in [1, 5, 25] {
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
    fn insert_splits_full_leaves_and_points_remain_findable() {
        let (pts, mut tree) = build_small(500, Distribution::Uniform);
        let nodes_before = tree.nodes.len();
        // Cram many points into one small area to force leaf splits.
        let extra: Vec<Point> = (0..300)
            .map(|i| {
                Point::with_id(
                    0.5 + 0.0001 * (i % 20) as f64,
                    0.5 + 0.0001 * (i / 20) as f64,
                    90_000 + i,
                )
            })
            .collect();
        for p in &extra {
            tree.insert(*p);
        }
        assert!(tree.nodes.len() > nodes_before, "no leaf was split");
        assert_eq!(tree.len(), 800);
        for p in extra.iter().chain(pts.iter().step_by(7)) {
            assert_eq!(tree.point_query(p, &mut cx()).map(|f| f.id), Some(p.id));
        }
    }

    #[test]
    fn points_outside_the_unit_square_are_found() {
        // Built with points outside the unit square, then written more of
        // them: every one stays inside its leaf's region, so point, window
        // and delete find it.
        let mut pts = generate(Distribution::Uniform, 300, 31);
        pts.push(Point::with_id(3.5, 0.5, 1_001));
        pts.push(Point::with_id(-1.5, -2.0, 1_002));
        let mut tree = KdbTree::build(pts.clone(), 20);
        let late = [
            Point::with_id(0.5, 1.5, 1_003),
            Point::with_id(-4.0, 0.25, 1_004),
        ];
        for p in late {
            tree.insert(p);
        }
        let space = Rect::new(-10.0, -10.0, 10.0, 10.0);
        assert_eq!(tree.window_query(&space, &mut cx()).len(), 304);
        for p in pts[300..].iter().chain(&late) {
            assert_eq!(tree.point_query(p, &mut cx()).map(|f| f.id), Some(p.id));
            let hits = tree.window_query(&Rect::from_point(*p), &mut cx());
            assert_eq!(hits.iter().map(|f| f.id).collect::<Vec<_>>(), vec![p.id]);
            assert!(tree.delete(p));
        }
        assert_eq!(tree.len(), 300);
    }

    #[test]
    fn delete_removes_points() {
        let (pts, mut tree) = build_small(600, Distribution::Uniform);
        assert!(tree.delete(&pts[42]));
        assert!(tree.point_query(&pts[42], &mut cx()).is_none());
        assert!(!tree.delete(&pts[42]));
        assert_eq!(tree.len(), 599);
    }

    #[test]
    fn empty_tree_and_bootstrap_insert() {
        let mut tree = KdbTree::build(vec![], 20);
        assert!(tree.point_query(&Point::new(0.5, 0.5), &mut cx()).is_none());
        assert!(tree.window_query(&Rect::unit(), &mut cx()).is_empty());
        assert!(tree
            .knn_query(&Point::new(0.5, 0.5), 4, &mut cx())
            .is_empty());
        tree.insert(Point::with_id(0.25, 0.75, 11));
        assert_eq!(tree.len(), 1);
        assert!(tree
            .point_query(&Point::new(0.25, 0.75), &mut cx())
            .is_some());
    }

    #[test]
    fn height_and_accounting_are_reported() {
        let (pts, tree) = build_small(5000, Distribution::Uniform);
        assert!(tree.height() >= 2);
        let mut c = cx();
        let _ = tree.point_query(&pts[0], &mut c);
        // At least the root node and one block are touched.
        assert!(c.stats.nodes_visited >= 1);
        assert!(c.stats.blocks_touched >= 1);
        assert!(tree.size_bytes() > 0);
        assert_eq!(tree.name(), "KDB");
    }
}
