//! R\*-tree baseline ("RR\*" in the paper's figures).
//!
//! The paper compares against the *revised* R\*-tree of Beckmann & Seeger
//! (2009), using the authors' original C implementation.  That code is not
//! redistributable, so this module provides a faithful classic R\*-tree
//! (Beckmann et al., 1990) built by dynamic insertion: `ChooseSubtree` with
//! overlap-minimising leaf selection and the R\*-axis/distribution split.
//! Forced reinsertion is omitted; its main effect is a modest quality
//! improvement that does not change the comparison's shape — the role of
//! RR\* in the evaluation is "strong dynamic R-tree baseline with slow,
//! insertion-based construction".
//!
//! The family supplies layout, insertion/split and deletion.  All five query
//! classes run through [`storage::directory`] over `View`, which charges a
//! node per expanded internal node and a block per opened leaf page; a leaf
//! is a directory node that costs nothing and whose one entry is its page
//! (a [`storage::Block`] the node owns, scanned by the shared kernels).

use common::{CopyVisit, QueryContext, SpatialIndex};
use geom::{order_key, Point, Rect};
use persist::{PersistError, SnapshotReader, SnapshotWriter};
use std::ops::ControlFlow;
use storage::directory::{self, Child, DirectoryView};
use storage::Block;

/// Maximum entries per node (paper: 100 points per leaf / 100 MBRs per node).
const MAX_ENTRIES: usize = 100;

/// Section tag of the R*-tree node arena.
const SECTION_RSTAR: u32 = 0x5201;
/// Minimum fill after a split (40 % of the maximum, the R\*-tree default).
const MIN_ENTRIES: usize = 40;

#[derive(Debug, Clone)]
enum NodeKind {
    Leaf(Block),
    Internal(Vec<(Rect, usize)>),
}

#[derive(Debug, Clone)]
struct RNode {
    mbr: Rect,
    kind: NodeKind,
}

impl RNode {
    fn recompute_mbr(&mut self) {
        self.mbr = match &self.kind {
            NodeKind::Leaf(page) => page.mbr(),
            NodeKind::Internal(children) => children
                .iter()
                .fold(Rect::empty(), |acc, (r, _)| acc.union(r)),
        };
    }

    fn len(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf(p) => p.len(),
            NodeKind::Internal(c) => c.len(),
        }
    }
}

/// A pair of entry lists produced by a node split.
type EntrySplit = (Vec<(Rect, usize)>, Vec<(Rect, usize)>);

/// The R\*-tree index.
#[derive(Debug)]
pub struct RStarTree {
    nodes: Vec<RNode>,
    root: Option<usize>,
    height: usize,
    n_points: usize,
    block_capacity: usize,
}

impl RStarTree {
    /// Creates an empty tree.  `block_capacity` is accepted for interface
    /// symmetry with the other indices; leaf capacity is the R*-tree's own
    /// `MAX_ENTRIES` constant (100, the paper's `B`).
    pub fn new(block_capacity: usize) -> Self {
        Self {
            nodes: Vec::new(),
            root: None,
            height: 0,
            n_points: 0,
            block_capacity,
        }
    }

    /// Builds the tree by inserting every point, which is how the paper
    /// constructs RR\* (top-down insertions; Fig. 7b shows the resulting
    /// high construction cost).
    pub fn build(points: Vec<Point>, block_capacity: usize) -> Self {
        let mut tree = Self::new(block_capacity);
        for p in points {
            tree.insert(p);
        }
        tree
    }

    /// A leaf page holding `points` (at most `MAX_ENTRIES` outside snapshot
    /// loading, which keeps whatever the writer stored).
    fn leaf_page(points: &[Point]) -> NodeKind {
        let mut page = Block::new(points.len().max(MAX_ENTRIES));
        for p in points {
            page.push(*p);
        }
        NodeKind::Leaf(page)
    }

    fn new_node(&mut self, kind: NodeKind) -> usize {
        let mut node = RNode {
            mbr: Rect::empty(),
            kind,
        };
        node.recompute_mbr();
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// R\*-tree ChooseSubtree: minimise overlap enlargement when the children
    /// are leaves, area enlargement otherwise.
    fn choose_subtree(&self, node: usize, p: &Point) -> usize {
        let NodeKind::Internal(children) = &self.nodes[node].kind else {
            unreachable!("choose_subtree is only called on internal nodes");
        };
        let point_rect = Rect::from_point(*p);
        let children_are_leaves = children
            .first()
            .map(|(_, c)| matches!(self.nodes[*c].kind, NodeKind::Leaf(_)))
            .unwrap_or(false);
        let mut best = children[0].1;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for &(rect, child) in children {
            let enlarged = rect.union(&point_rect);
            let overlap_delta = if children_are_leaves {
                // Overlap of the enlarged rectangle with all siblings, minus
                // the current overlap.
                children
                    .iter()
                    .filter(|(_, c)| *c != child)
                    .map(|(r, _)| enlarged.intersection_area(r) - rect.intersection_area(r))
                    .sum()
            } else {
                0.0
            };
            let key = (overlap_delta, rect.enlargement(&point_rect), rect.area());
            if key < best_key {
                best_key = key;
                best = child;
            }
        }
        best
    }

    /// R\*-tree split of a leaf's points: choose the axis with the smallest
    /// total margin over all candidate distributions, then the distribution
    /// with the smallest overlap (ties: smallest total area).
    fn split_points(mut points: Vec<Point>) -> (Vec<Point>, Vec<Point>) {
        let candidates = |pts: &mut Vec<Point>, by_x: bool| -> (f64, usize, f64, f64) {
            if by_x {
                pts.sort_by_key(|p| order_key(p.x));
            } else {
                pts.sort_by_key(|p| order_key(p.y));
            }
            let n = pts.len();
            let mut margin_sum = 0.0;
            let mut best_split = MIN_ENTRIES;
            let mut best_overlap = f64::INFINITY;
            let mut best_area = f64::INFINITY;
            for split in MIN_ENTRIES..=(n - MIN_ENTRIES) {
                let left = pts[..split].iter().fold(Rect::empty(), |mut acc, p| {
                    acc.expand_to_point(*p);
                    acc
                });
                let right = pts[split..].iter().fold(Rect::empty(), |mut acc, p| {
                    acc.expand_to_point(*p);
                    acc
                });
                margin_sum += left.margin() + right.margin();
                let overlap = left.intersection_area(&right);
                let area = left.area() + right.area();
                if (overlap, area) < (best_overlap, best_area) {
                    best_overlap = overlap;
                    best_area = area;
                    best_split = split;
                }
            }
            (margin_sum, best_split, best_overlap, best_area)
        };
        let (margin_x, split_x, ..) = candidates(&mut points, true);
        let (margin_y, split_y, ..) = candidates(&mut points, false);
        // `points` is currently sorted by y (last call); resort if x wins.
        let split = if margin_x <= margin_y {
            points.sort_by_key(|p| order_key(p.x));
            split_x
        } else {
            split_y
        };
        let right = points.split_off(split);
        (points, right)
    }

    /// Same split procedure for internal entries, keyed on MBR centres.
    fn split_entries(mut entries: Vec<(Rect, usize)>) -> EntrySplit {
        let x_key = |(r, _): &(Rect, usize)| (order_key(r.min_x), order_key(r.max_x));
        let margin_of = |entries: &mut Vec<(Rect, usize)>, by_x: bool| -> (f64, usize) {
            if by_x {
                entries.sort_by_key(x_key);
            } else {
                entries.sort_by_key(|(r, _)| (order_key(r.min_y), order_key(r.max_y)));
            }
            let n = entries.len();
            let lo = MIN_ENTRIES.min(n / 2).max(1);
            let mut margin_sum = 0.0;
            let mut best_split = lo;
            let mut best_key = (f64::INFINITY, f64::INFINITY);
            for split in lo..=(n - lo) {
                let left = entries[..split]
                    .iter()
                    .fold(Rect::empty(), |acc, (r, _)| acc.union(r));
                let right = entries[split..]
                    .iter()
                    .fold(Rect::empty(), |acc, (r, _)| acc.union(r));
                margin_sum += left.margin() + right.margin();
                let key = (left.intersection_area(&right), left.area() + right.area());
                if key < best_key {
                    best_key = key;
                    best_split = split;
                }
            }
            (margin_sum, best_split)
        };
        let (margin_x, split_x) = margin_of(&mut entries, true);
        let (margin_y, split_y) = margin_of(&mut entries, false);
        let split = if margin_x <= margin_y {
            entries.sort_by_key(x_key);
            split_x
        } else {
            split_y
        };
        let right = entries.split_off(split);
        (entries, right)
    }

    /// Recursive insertion; returns a new sibling (MBR, node) when the child
    /// was split.
    fn insert_into(&mut self, node: usize, p: Point) -> Option<(Rect, usize)> {
        match &self.nodes[node].kind {
            NodeKind::Leaf(page) if page.len() < MAX_ENTRIES => {
                if let NodeKind::Leaf(page) = &mut self.nodes[node].kind {
                    page.push(p);
                }
                self.nodes[node].mbr.expand_to_point(p);
                None
            }
            NodeKind::Leaf(page) => {
                let mut points = page.to_points();
                points.push(p);
                let (left, right) = Self::split_points(points);
                self.nodes[node].kind = Self::leaf_page(&left);
                self.nodes[node].recompute_mbr();
                let sibling = self.new_node(Self::leaf_page(&right));
                Some((self.nodes[sibling].mbr, sibling))
            }
            NodeKind::Internal(_) => {
                let child = self.choose_subtree(node, &p);
                let split = self.insert_into(child, p);
                // Refresh this child's MBR entry.
                let child_mbr = self.nodes[child].mbr;
                if let NodeKind::Internal(children) = &mut self.nodes[node].kind {
                    if let Some(entry) = children.iter_mut().find(|(_, c)| *c == child) {
                        entry.0 = child_mbr;
                    }
                    if let Some((mbr, sibling)) = split {
                        children.push((mbr, sibling));
                    }
                }
                self.nodes[node].recompute_mbr();
                if self.nodes[node].len() > MAX_ENTRIES {
                    let entries = match std::mem::replace(
                        &mut self.nodes[node].kind,
                        NodeKind::Internal(Vec::new()),
                    ) {
                        NodeKind::Internal(e) => e,
                        NodeKind::Leaf(_) => unreachable!(),
                    };
                    let (left, right) = Self::split_entries(entries);
                    self.nodes[node].kind = NodeKind::Internal(left);
                    self.nodes[node].recompute_mbr();
                    let sibling = self.new_node(NodeKind::Internal(right));
                    Some((self.nodes[sibling].mbr, sibling))
                } else {
                    None
                }
            }
        }
    }

    /// Removes every copy of `p` (same location and id) from the subtree
    /// under `node`, refreshing the MBRs on the way back up.  Returns how
    /// many copies went.
    fn remove_below(&mut self, node: usize, p: &Point) -> usize {
        if !self.nodes[node].mbr.contains(p) {
            return 0;
        }
        let n_children = match &mut self.nodes[node].kind {
            NodeKind::Leaf(page) => {
                // Order-preserving, so the page's scan order is stable.
                let kept: Vec<Point> = page
                    .iter_points()
                    .filter(|q| !(q.same_location(p) && q.id == p.id))
                    .collect();
                let removed = page.len() - kept.len();
                if removed > 0 {
                    self.nodes[node].kind = Self::leaf_page(&kept);
                    self.nodes[node].recompute_mbr();
                }
                return removed;
            }
            NodeKind::Internal(children) => children.len(),
        };
        let mut removed = 0;
        for i in 0..n_children {
            let NodeKind::Internal(children) = &self.nodes[node].kind else {
                unreachable!("node kinds do not change during a delete");
            };
            let (rect, child) = children[i];
            if !rect.contains(p) {
                continue;
            }
            let n = self.remove_below(child, p);
            if n > 0 {
                removed += n;
                let child_mbr = self.nodes[child].mbr;
                if let NodeKind::Internal(children) = &mut self.nodes[node].kind {
                    children[i].0 = child_mbr;
                }
            }
        }
        if removed > 0 {
            self.nodes[node].recompute_mbr();
        }
        removed
    }

    /// Reads an R*-tree snapshot written by
    /// [`SpatialIndex::write_snapshot`].
    pub fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        r.begin_section(SECTION_RSTAR)?;
        let root = r.get_opt_usize()?;
        let height = r.get_usize()?;
        let n_points = r.get_usize()?;
        let block_capacity = r.get_usize()?;
        let n_nodes = r.get_len(33)?;
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let mbr = r.get_rect()?;
            let kind = match r.get_u8()? {
                0 => {
                    let len = r.get_len(40)?;
                    let mut entries = Vec::with_capacity(len);
                    for _ in 0..len {
                        entries.push((r.get_rect()?, r.get_index(n_nodes)?));
                    }
                    NodeKind::Internal(entries)
                }
                1 => {
                    let len = r.get_len(24)?;
                    let mut points = Vec::with_capacity(len);
                    for _ in 0..len {
                        points.push(r.get_point()?);
                    }
                    Self::leaf_page(&points)
                }
                other => {
                    return Err(PersistError::Corrupt(format!(
                        "unknown R*-tree node kind byte {other}"
                    )))
                }
            };
            nodes.push(RNode { mbr, kind });
        }
        let root = root.map(|i| persist::check_index(i, n_nodes)).transpose()?;
        r.end_section()?;
        Ok(Self {
            nodes,
            root,
            height,
            n_points,
            block_capacity,
        })
    }
}

/// One query's view of the directory (see the module docs for what it
/// charges).  A leaf's page id is the leaf's node id.
struct View<'a> {
    tree: &'a RStarTree,
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
        let tree = self.tree;
        match &tree.nodes[node].kind {
            NodeKind::Internal(children) => {
                self.cx.count_node();
                children
                    .iter()
                    .try_for_each(|&(rect, child)| f(self, rect, Child::Node(child)))
            }
            NodeKind::Leaf(_) => f(self, tree.nodes[node].mbr, Child::Page(node)),
        }
    }

    #[inline]
    fn page(&mut self, page: usize) -> &Block {
        let NodeKind::Leaf(block) = &self.tree.nodes[page].kind else {
            unreachable!("only leaves are handed out as pages");
        };
        self.cx.count_block_scan(block.len());
        block
    }
}

impl SpatialIndex for RStarTree {
    fn name(&self) -> &'static str {
        "RR*"
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
        let Some(root) = self.root else { return };
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            match &self.nodes[id].kind {
                NodeKind::Internal(children) => {
                    for (_, child) in children {
                        stack.push(*child);
                    }
                }
                NodeKind::Leaf(page) => {
                    for p in page.iter_points() {
                        visit(&p);
                    }
                }
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
        directory::distance_join(&mut View { tree: self, cx }, probes, radius, visit)
    }

    fn insert(&mut self, p: Point) {
        match self.root {
            None => {
                let root = self.new_node(Self::leaf_page(&[p]));
                self.root = Some(root);
                self.height = 1;
            }
            Some(root) => {
                if let Some((sibling_mbr, sibling)) = self.insert_into(root, p) {
                    // Root split: grow the tree by one level.
                    let old_root_mbr = self.nodes[root].mbr;
                    let new_root = self.new_node(NodeKind::Internal(vec![
                        (old_root_mbr, root),
                        (sibling_mbr, sibling),
                    ]));
                    self.root = Some(new_root);
                    self.height += 1;
                }
            }
        }
        self.n_points += 1;
    }

    fn delete(&mut self, p: &Point) -> bool {
        // Locate every leaf holding a copy of p via an MBR-guided search,
        // remove the copies, and tighten ancestor MBRs.  Underflow handling
        // (entry reinsertion) is omitted: the paper's deletion experiments
        // only flag points as deleted as well.
        let Some(root) = self.root else { return false };
        let removed = self.remove_below(root, p);
        self.n_points -= removed;
        removed > 0
    }

    fn size_bytes(&self) -> usize {
        // R*-tree nodes are charged at full capacity (like disk pages); this
        // is why RR* is the largest structure in Fig. 7a.
        let leaf_page = self.block_capacity.max(MAX_ENTRIES) * std::mem::size_of::<Point>();
        self.nodes
            .iter()
            .map(|n| match &n.kind {
                NodeKind::Leaf(_) => leaf_page,
                NodeKind::Internal(_) => MAX_ENTRIES * (std::mem::size_of::<Rect>() + 8),
            })
            .sum::<usize>()
            + self.nodes.len() * std::mem::size_of::<Rect>()
    }

    fn height(&self) -> usize {
        self.height
    }

    fn write_snapshot(&self, w: &mut SnapshotWriter) -> Result<(), PersistError> {
        w.begin_section(SECTION_RSTAR);
        w.put_opt_usize(self.root);
        w.put_usize(self.height);
        w.put_usize(self.n_points);
        w.put_usize(self.block_capacity);
        w.put_usize(self.nodes.len());
        for node in &self.nodes {
            w.put_rect(&node.mbr);
            match &node.kind {
                NodeKind::Internal(entries) => {
                    w.put_u8(0);
                    w.put_usize(entries.len());
                    for (rect, child) in entries {
                        w.put_rect(rect);
                        w.put_usize(*child);
                    }
                }
                NodeKind::Leaf(page) => {
                    w.put_u8(1);
                    w.put_usize(page.len());
                    for p in page.iter_points() {
                        w.put_point(&p);
                    }
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

    fn build_small(n: usize) -> (Vec<Point>, RStarTree) {
        let pts = generate(Distribution::Normal, n, 37);
        let tree = RStarTree::build(pts.clone(), 100);
        (pts, tree)
    }

    #[test]
    fn point_queries_find_every_point() {
        let (pts, tree) = build_small(1200);
        for p in &pts {
            assert_eq!(tree.point_query(p, &mut cx()).map(|f| f.id), Some(p.id));
        }
        assert!(tree
            .point_query(&Point::new(0.123, 0.321), &mut cx())
            .is_none());
    }

    #[test]
    fn node_occupancy_respects_bounds_after_splits() {
        let (_, tree) = build_small(3000);
        for (i, node) in tree.nodes.iter().enumerate() {
            if Some(i) == tree.root {
                continue;
            }
            assert!(node.len() <= MAX_ENTRIES, "node {i} overflows");
        }
        assert!(tree.height() >= 2);
    }

    #[test]
    fn mbrs_contain_their_subtrees() {
        let (_, tree) = build_small(2000);
        fn check(tree: &RStarTree, node: usize) {
            match &tree.nodes[node].kind {
                NodeKind::Leaf(page) => {
                    for p in page.iter_points() {
                        assert!(tree.nodes[node].mbr.contains(&p));
                    }
                }
                NodeKind::Internal(children) => {
                    for (rect, child) in children {
                        assert!(tree.nodes[node].mbr.contains_rect(rect));
                        assert!(rect.contains_rect(&tree.nodes[*child].mbr));
                        check(tree, *child);
                    }
                }
            }
        }
        check(&tree, tree.root.unwrap());
    }

    #[test]
    fn window_queries_are_exact() {
        let (pts, tree) = build_small(2500);
        for w in [
            Rect::new(0.45, 0.45, 0.55, 0.55),
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(0.3, 0.6, 0.35, 0.9),
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
        let (pts, tree) = build_small(1500);
        for q in [Point::new(0.5, 0.5), Point::new(0.1, 0.85)] {
            for k in [1, 10, 100] {
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
    fn delete_removes_points_and_shrinks_count() {
        let (pts, mut tree) = build_small(800);
        for p in pts.iter().take(50) {
            assert!(tree.delete(p), "failed to delete {p:?}");
            assert!(tree.point_query(p, &mut cx()).is_none());
        }
        assert_eq!(tree.len(), 750);
        assert!(!tree.delete(&pts[0]));
    }

    #[test]
    fn empty_tree_queries_and_first_insert() {
        let mut tree = RStarTree::new(100);
        assert!(tree.point_query(&Point::new(0.5, 0.5), &mut cx()).is_none());
        assert!(tree.window_query(&Rect::unit(), &mut cx()).is_empty());
        assert!(tree
            .knn_query(&Point::new(0.5, 0.5), 3, &mut cx())
            .is_empty());
        tree.insert(Point::with_id(0.4, 0.2, 9));
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 1);
        assert!(tree.point_query(&Point::new(0.4, 0.2), &mut cx()).is_some());
    }

    #[test]
    fn access_accounting_and_size_reporting() {
        let (pts, tree) = build_small(2000);
        let mut c = cx();
        let _ = tree.point_query(&pts[3], &mut c);
        assert!(c.stats.total_accesses() >= 2);
        assert!(tree.size_bytes() > 0);
        assert_eq!(tree.name(), "RR*");
    }
}
