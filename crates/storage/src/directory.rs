//! One directory traversal for every tree-shaped family.
//!
//! HRR, KDB, RR\* and RSMIa differ in how a node stores `(mbr, child)` and
//! in what a node or block read costs; they do not differ in how a query
//! walks them.  A family implements [`DirectoryView`] — layout plus its own
//! charging — and the five query classes below are written once, generic
//! (statically dispatched) over the view:
//!
//! * [`point`], [`window`], [`range`] — one pop-test-expand loop: a node is
//!   popped and expanded, each entry's rectangle is tested, surviving
//!   **nodes are pushed, surviving pages are scanned in place** (so results
//!   arrive in entry order within a node, last-pushed subtree first);
//! * [`knn`] — best-first search over nodes, pages and points under the
//!   single `(distance, container-before-point, id)` ordering;
//! * [`distance_join`] — the probe-set filter cascade: every entry's
//!   rectangle discards the probes beyond the radius before the traversal
//!   descends, and a page is opened once however many probes reach it.
//!
//! The traversal never charges anything itself.  It calls
//! [`DirectoryView::entries`] exactly once per expanded node and
//! [`DirectoryView::page`] exactly once per opened page; what those calls
//! cost is the view's business.

use crate::kernels;
use crate::Block;
use geom::{order_key, Point, Rect};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::ops::ControlFlow::{self, Break, Continue};

/// What a directory entry points at.  Ids are the view's own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Child {
    /// Another directory node, expanded through [`DirectoryView::entries`].
    Node(usize),
    /// A data page, opened through [`DirectoryView::page`].
    Page(usize),
}

/// A family's directory layout, seen by one query.
///
/// A view typically borrows the tree and the query's cost context and
/// charges that context while it answers: `entries` is the node read,
/// `page` the block read.
pub trait DirectoryView {
    /// The root entry (`None` for an empty directory).  Never charges.
    fn root(&self) -> Option<(Rect, Child)>;

    /// Expands `node`: calls `f(self, mbr, child)` once per entry, in
    /// storage order, until `f` breaks (a point query that has its answer
    /// stops mid-node); returns what stopped the walk.  The view is handed
    /// back to `f` so a page can be opened while the node is being walked.
    fn entries(
        &mut self,
        node: usize,
        f: impl FnMut(&mut Self, Rect, Child) -> ControlFlow<()>,
    ) -> ControlFlow<()>;

    /// Opens a data page for scanning.
    fn page(&mut self, page: usize) -> &Block;
}

/// The pop-test-expand loop shared by point, window and range queries:
/// `keep` prunes entries by rectangle, `scan` consumes every surviving page
/// and ends the search by returning `Some`.
fn search<V: DirectoryView, T>(
    view: &mut V,
    keep: impl Fn(&Rect) -> bool,
    mut scan: impl FnMut(&Block) -> Option<T>,
) -> Option<T> {
    let (rect, root) = view.root()?;
    if !keep(&rect) {
        return None;
    }
    let mut stack = match root {
        Child::Node(node) => vec![node],
        Child::Page(page) => return scan(view.page(page)),
    };
    let mut hit = None;
    while let Some(node) = stack.pop() {
        let walk = view.entries(node, |view, rect, child| {
            if keep(&rect) {
                match child {
                    Child::Node(node) => stack.push(node),
                    Child::Page(page) => hit = scan(view.page(page)),
                }
            }
            if hit.is_some() {
                Break(())
            } else {
                Continue(())
            }
        });
        if walk.is_break() {
            break;
        }
    }
    hit
}

/// Point query: visits every stored point at exactly `q`'s coordinates
/// until `visit` breaks, which ends the search.
pub fn point<V: DirectoryView>(
    view: &mut V,
    q: &Point,
    mut visit: impl FnMut(&Point) -> ControlFlow<()>,
) {
    let scan = |block: &Block| block.find_at(q.x, q.y, &mut visit).break_value();
    search(view, |r| r.contains(q), scan);
}

/// Window query: visits every point inside `window`.
pub fn window<V: DirectoryView>(view: &mut V, window: &Rect, mut visit: impl FnMut(&Point)) {
    search(
        view,
        |r| r.intersects(window),
        |block| {
            block.for_each_in_rect(window, |p| visit(&p));
            None::<()>
        },
    );
}

/// `radius²` of a distance query, or `None` for a radius that selects
/// nothing (negative, NaN, infinite).
fn radius_sq(radius: f64) -> Option<f64> {
    (radius.is_finite() && radius >= 0.0).then_some(radius * radius)
}

/// Distance-range query: visits every point within `radius` of `center`
/// (boundary inclusive), pruning by `MINDIST`.
pub fn range<V: DirectoryView>(
    view: &mut V,
    center: &Point,
    radius: f64,
    mut visit: impl FnMut(&Point),
) {
    let Some(r_sq) = radius_sq(radius) else {
        return;
    };
    search(
        view,
        |r| r.min_dist_sq(center) <= r_sq,
        |block| {
            block.for_each_within(center, r_sq, |p, _| visit(&p));
            None::<()>
        },
    );
}

/// A best-first queue entry, ordered by `(distance, container-before-point,
/// point id)`: equal-distance points emit in id order, and a node or page
/// at the same distance is expanded first so a tied point inside it can
/// still compete — which makes kNN answers deterministic across families,
/// runs and shards.
struct Nearest {
    /// The [`order_key`] of the distance.
    dist: u64,
    item: Item,
}

enum Item {
    Container(Child),
    Point(Point),
}

impl Nearest {
    fn key(&self) -> (bool, u64) {
        match self.item {
            Item::Container(_) => (false, 0),
            Item::Point(p) => (true, p.id),
        }
    }
}

impl Ord for Nearest {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist
            .cmp(&other.dist)
            .then_with(|| self.key().cmp(&other.key()))
    }
}

impl PartialOrd for Nearest {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Nearest {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Nearest {}

/// kNN query: best-first search (Roussopoulos et al.) ordered by `MINDIST`
/// / distance; visits (up to) the `k` nearest points, closest first.
pub fn knn<V: DirectoryView>(view: &mut V, q: &Point, k: usize, mut visit: impl FnMut(&Point)) {
    if k == 0 {
        return;
    }
    let Some((rect, root)) = view.root() else {
        return;
    };
    let mut found = 0;
    let mut heap = BinaryHeap::new();
    heap.push(Reverse(Nearest {
        dist: order_key(rect.min_dist(q)),
        item: Item::Container(root),
    }));
    while let Some(Reverse(Nearest { item, .. })) = heap.pop() {
        match item {
            Item::Point(p) => {
                visit(&p);
                found += 1;
                if found == k {
                    break;
                }
            }
            Item::Container(Child::Page(page)) => view.page(page).for_each_dist_sq(q, |p, d_sq| {
                heap.push(Reverse(Nearest {
                    dist: order_key(d_sq.sqrt()),
                    item: Item::Point(p),
                }));
            }),
            Item::Container(Child::Node(node)) => {
                let _ = view.entries(node, |_, rect, child| {
                    heap.push(Reverse(Nearest {
                        dist: order_key(rect.min_dist(q)),
                        item: Item::Container(child),
                    }));
                    Continue(())
                });
            }
        }
    }
}

/// Distance-join worker: visits `(p, q)` for every stored point `p` and
/// probe `q` with `dist(p, q) ≤ radius`.  One traversal carries the whole
/// probe set; each entry keeps only the probes within `radius` of its
/// rectangle, and a subtree or page no probe survives to is never entered.
pub fn distance_join<V: DirectoryView>(
    view: &mut V,
    probes: &[Point],
    radius: f64,
    mut visit: impl FnMut(&Point, &Point),
) {
    let Some(r_sq) = radius_sq(radius) else {
        return;
    };
    let Some((rect, root)) = view.root() else {
        return;
    };
    let mut kept = Vec::new();
    kernels::probes_within(probes, &rect, r_sq, &mut kept);
    if kept.is_empty() {
        return;
    }
    let mut stack = match root {
        Child::Node(node) => vec![(node, std::mem::take(&mut kept))],
        Child::Page(page) => {
            return view.page(page).for_each_pair_within(&kept, r_sq, visit);
        }
    };
    while let Some((node, carried)) = stack.pop() {
        let _ = view.entries(node, |view, rect, child| {
            kernels::probes_within(&carried, &rect, r_sq, &mut kept);
            if !kept.is_empty() {
                match child {
                    Child::Node(node) => stack.push((node, std::mem::take(&mut kept))),
                    Child::Page(page) => view
                        .page(page)
                        .for_each_pair_within(&kept, r_sq, &mut visit),
                }
            }
            Continue(())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built directory that records what the traversal asks for.
    /// Coordinates are binary fractions so distance ties are exact.
    ///
    /// ```text
    /// node 0 ─┬─ node 1 ─┬─ page 0: (0.125, 0.125) #1   (0, 0.25) #2
    ///         │          └─ page 1: (0.375, 0.5)   #9   (0.25, 0.375) #3
    ///         └─ node 2 ─┬─ page 2: (0.625, 0.5)   #4   (0.75, 0.75) #6
    ///                    └─ page 3: (0.875, 0.875) #7   (1, 1) #8
    /// ```
    struct Toy {
        root: Option<(Rect, Child)>,
        nodes: Vec<Vec<(Rect, Child)>>,
        pages: Vec<Block>,
        expanded: Vec<usize>,
        opened: Vec<usize>,
    }

    impl DirectoryView for Toy {
        fn root(&self) -> Option<(Rect, Child)> {
            self.root
        }

        fn entries(
            &mut self,
            node: usize,
            mut f: impl FnMut(&mut Self, Rect, Child) -> ControlFlow<()>,
        ) -> ControlFlow<()> {
            self.expanded.push(node);
            (0..self.nodes[node].len()).try_for_each(|i| {
                let (rect, child) = self.nodes[node][i];
                f(self, rect, child)
            })
        }

        fn page(&mut self, page: usize) -> &Block {
            self.opened.push(page);
            &self.pages[page]
        }
    }

    fn toy() -> Toy {
        let pages: Vec<Block> = [
            [(0.125, 0.125, 1), (0.0, 0.25, 2)],
            [(0.375, 0.5, 9), (0.25, 0.375, 3)],
            [(0.625, 0.5, 4), (0.75, 0.75, 6)],
            [(0.875, 0.875, 7), (1.0, 1.0, 8)],
        ]
        .iter()
        .map(|points| {
            let mut block = Block::new(4);
            for &(x, y, id) in points {
                block.push(Point::with_id(x, y, id));
            }
            block
        })
        .collect();
        let leaf = |a: usize, b: usize| {
            vec![
                (pages[a].mbr(), Child::Page(a)),
                (pages[b].mbr(), Child::Page(b)),
            ]
        };
        let rect_of = |entries: &[(Rect, Child)]| entries[0].0.union(&entries[1].0);
        let (left, right) = (leaf(0, 1), leaf(2, 3));
        let top = vec![
            (rect_of(&left), Child::Node(1)),
            (rect_of(&right), Child::Node(2)),
        ];
        Toy {
            root: Some((rect_of(&top), Child::Node(0))),
            nodes: vec![top, left, right],
            pages,
            expanded: Vec::new(),
            opened: Vec::new(),
        }
    }

    /// Runs one query on a fresh toy; returns the visited ids (pairs
    /// flattened) with the expanded nodes and opened pages.
    fn run(
        mut toy: Toy,
        query: impl FnOnce(&mut Toy, &mut Vec<u64>),
    ) -> (Vec<u64>, Vec<usize>, Vec<usize>) {
        let mut ids = Vec::new();
        query(&mut toy, &mut ids);
        (ids, toy.expanded, toy.opened)
    }

    /// The first point [`point`] visits.
    fn first_point(t: &mut Toy, q: &Point) -> Option<Point> {
        let mut hit = None;
        point(t, q, |p| {
            hit = Some(*p);
            Break(())
        });
        hit
    }

    fn join_of(probes: &[Point], radius: f64) -> impl FnOnce(&mut Toy, &mut Vec<u64>) + '_ {
        move |t, ids| distance_join(t, probes, radius, |p, q| ids.extend([p.id, q.id]))
    }

    #[test]
    fn an_entry_that_fails_the_predicate_is_never_opened() {
        let got = run(toy(), |t, ids| {
            ids.extend(first_point(t, &Point::new(0.25, 0.375)).map(|p| p.id))
        });
        assert_eq!(got, (vec![3], vec![0, 1], vec![1]));
        let w = Rect::new(0.6, 0.45, 0.8, 0.8);
        let got = run(toy(), |t, ids| window(t, &w, |p| ids.push(p.id)));
        assert_eq!(got, (vec![4, 6], vec![0, 2], vec![2]));
        let got = run(toy(), |t, ids| {
            range(t, &Point::new(1.0, 1.0), 0.2, |p| ids.push(p.id))
        });
        assert_eq!(got, (vec![7, 8], vec![0, 2], vec![3]));
        let got = run(toy(), |t, ids| {
            knn(t, &Point::new(0.0, 0.25), 1, |p| ids.push(p.id))
        });
        assert_eq!(got, (vec![2], vec![0, 1], vec![0]));
        let probe = [Point::with_id(0.7, 0.6, 100)];
        let got = run(toy(), join_of(&probe, 0.15));
        assert_eq!(got, (vec![4, 100], vec![0, 2], vec![2]));
    }

    #[test]
    fn knn_breaks_distance_ties_by_id_and_opens_containers_at_the_kth_distance() {
        // #9 (page 1) and #4 (page 2) are both 0.125 from the query, and so
        // is page 2's MBR: with k = 1 the search must still open page 2
        // before emitting, or it would answer #9.
        let q = Point::new(0.5, 0.5);
        let (ids, _, mut opened) = run(toy(), |t, ids| knn(t, &q, 1, |p| ids.push(p.id)));
        opened.sort_unstable();
        assert_eq!((ids, opened), (vec![4], vec![1, 2]));
        let (ids, _, _) = run(toy(), |t, ids| knn(t, &q, 3, |p| ids.push(p.id)));
        assert_eq!(ids, vec![4, 9, 3]);
        let (ids, _, _) = run(toy(), |t, ids| knn(t, &q, 100, |p| ids.push(p.id)));
        assert_eq!(ids.len(), 8);
        assert_eq!(run(toy(), |t, ids| knn(t, &q, 0, |p| ids.push(p.id))).0, []);
    }

    #[test]
    fn join_carries_a_probe_only_below_rectangles_it_can_reach() {
        // A lying directory: page 1 gets a point next to the far probe and a
        // unit-square entry rectangle, but node 1's rectangle still excludes
        // that probe.  Had the probe been carried below node 1 it would pair
        // with #50.
        let mut lying = toy();
        lying.pages[1].push(Point::with_id(0.875, 0.875, 50));
        lying.nodes[1][1].0 = Rect::unit();
        let probes = [
            Point::with_id(0.25, 0.5, 100),
            Point::with_id(0.875, 0.875, 101),
        ];
        let (mut ids, _, _) = run(lying, join_of(&probes, 0.125));
        ids.sort_unstable();
        assert_eq!(ids, vec![3, 7, 9, 100, 100, 101]);
    }

    #[test]
    fn join_opens_a_page_once_however_many_probes_reach_it() {
        let probes = [
            Point::with_id(0.625, 0.5, 100),
            Point::with_id(0.75, 0.75, 101),
            Point::with_id(0.7, 0.6, 102),
        ];
        let (ids, expanded, opened) = run(toy(), join_of(&probes, 0.05));
        // Point-major: every probe of #4, then every probe of #6.
        assert_eq!(ids, vec![4, 100, 6, 101]);
        assert_eq!((expanded, opened), (vec![0, 2], vec![2]));
    }

    #[test]
    fn degenerate_radii_and_probe_sets_select_nothing() {
        let on_a_point = [Point::with_id(0.75, 0.75, 100)];
        let beside_it = [Point::with_id(0.75, 0.76, 100)];
        assert_eq!(run(toy(), join_of(&on_a_point, 0.0)).0, vec![6, 100]);
        assert_eq!(run(toy(), join_of(&beside_it, 0.0)).0, []);
        let untouched = (vec![], vec![], vec![]);
        assert_eq!(run(toy(), join_of(&[], 0.5)), untouched);
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(run(toy(), join_of(&on_a_point, bad)), untouched);
            let got = run(toy(), |t, ids| {
                range(t, &on_a_point[0], bad, |p| ids.push(p.id))
            });
            assert_eq!(got, untouched);
        }
    }

    #[test]
    fn an_empty_directory_and_a_root_page_both_work() {
        let q = Point::with_id(0.75, 0.75, 100);
        type Query = fn(&mut Toy, &Point, &mut Vec<u64>);
        let classes: [Query; 5] = [
            |t, q, ids| ids.extend(first_point(t, q).map(|p| p.id)),
            |t, q, ids| window(t, &Rect::new(0.7, 0.7, q.x, q.y), |p| ids.push(p.id)),
            |t, q, ids| knn(t, q, 1, |p| ids.push(p.id)),
            |t, q, ids| range(t, q, 0.0, |p| ids.push(p.id)),
            |t, q, ids| distance_join(t, &[*q], 0.0, |p, _| ids.push(p.id)),
        ];
        for class in classes {
            let mut empty = toy();
            empty.root = None;
            assert_eq!(
                run(empty, |t, ids| class(t, &q, ids)),
                (vec![], vec![], vec![])
            );
            let mut single = toy();
            single.root = Some((single.pages[2].mbr(), Child::Page(2)));
            assert_eq!(
                run(single, |t, ids| class(t, &q, ids)),
                (vec![6], vec![], vec![2])
            );
        }
        // A root page is pruned like any other entry.
        let mut single = toy();
        single.root = Some((single.pages[2].mbr(), Child::Page(2)));
        let got = run(single, |t, ids| {
            range(t, &Point::new(0.0, 0.0), 0.1, |p| ids.push(p.id))
        });
        assert_eq!(got, (vec![], vec![], vec![]));
    }
}
