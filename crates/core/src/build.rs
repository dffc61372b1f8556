//! Bulk-loading (recursive construction) of the RSMI (§3.2).
//!
//! Every subtree is built on its own: its nodes in post-order with child
//! ids local to the subtree, and its leaves' blocks in a store of its own.
//! A parent appends its children's subtrees in cell order, then itself, so
//! the arena is post-order and the blocks follow the depth-first,
//! curve-ordered walk of the leaves.  The root's children are built on up
//! to `threads` workers; the result does not depend on how many.

use crate::node::{InternalNode, LeafNode, Node, NodeId};
use crate::RsmiConfig;
use geom::{bounding_rect, Point, Rect};
use mlp::{MlpConfig, ScaledRegressor};
use sfc::rank_space::{axis_order, rank_space_order, Axis};
use sfc::{CurveKind, RankSpace};
use storage::BlockStore;

/// Output of a bulk-load.
pub(crate) struct BuildOutput {
    pub nodes: Vec<Node>,
    pub root: Option<NodeId>,
    pub store: BlockStore,
    pub height: usize,
    pub model_count: usize,
}

/// A subtree built in isolation; its root is its last node.
struct Subtree {
    /// Post-order nodes; child ids and leaf block ids are local.
    nodes: Vec<Node>,
    /// The blocks of the leaves, in the order the leaves appear in `nodes`.
    store: BlockStore,
    /// Deepest level reached (the root is level 0).
    depth: usize,
}

impl Subtree {
    fn empty(block_capacity: usize, depth: usize) -> Self {
        Self {
            nodes: Vec::new(),
            store: BlockStore::new(block_capacity),
            depth,
        }
    }

    /// Appends `sub`'s nodes and blocks after the ones held so far and
    /// returns the id of its root.
    fn append(&mut self, sub: Subtree) -> NodeId {
        let node_offset = self.nodes.len();
        let block_offset = self.store.append(sub.store);
        self.nodes.extend(sub.nodes.into_iter().map(|mut node| {
            match &mut node {
                Node::Internal(n) => {
                    for child in n.children.iter_mut().flatten() {
                        *child += node_offset;
                    }
                }
                Node::Leaf(leaf) => leaf.first_block += block_offset,
            }
            node
        }));
        self.depth = self.depth.max(sub.depth);
        self.nodes.len() - 1
    }
}

/// A child's model seed: a mix of its parent's seed and its cell, so a
/// node's models do not depend on the order in which the tree is built.
fn child_seed(parent: u64, cell: usize) -> u64 {
    // SplitMix64's finaliser.
    let mut z = parent ^ (cell as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Training rows an internal node's fit may read over all its epochs.  An
/// internal model only routes (§3.2): points are grouped by its own
/// predictions, so every point is found whatever its loss.  At 1 M points,
/// passes beyond this budget lowered the loss but lengthened the chain
/// ranges windows walk and opened more blocks per window and kNN, not
/// fewer.  6 M rows are 30 epochs over 200 k, so no node of up to 200 k
/// points loses an epoch of a 30-epoch cap.
const ROUTING_ROWS: usize = 6_000_000;

/// The epoch cap of an internal node's fit over `rows` training rows:
/// `min(cap, ⌈ROUTING_ROWS / rows⌉)`.  Every epoch still reads every row.
fn routing_epochs(cap: usize, rows: usize) -> usize {
    cap.min(ROUTING_ROWS.div_ceil(rows))
}

/// Recursive builder.
pub(crate) struct Builder {
    config: RsmiConfig,
}

impl Builder {
    /// Bulk-loads `points`, building the root's subtrees on up to `threads`
    /// workers.  The output is the same for every `threads`.
    pub(crate) fn run(config: RsmiConfig, points: Vec<Point>, threads: usize) -> BuildOutput {
        let builder = Builder { config };
        let tree = if points.is_empty() {
            Subtree::empty(config.block_capacity, 0)
        } else {
            builder.build_node(points, 0, config.seed, threads)
        };
        BuildOutput {
            root: tree.nodes.len().checked_sub(1),
            model_count: tree.nodes.len(),
            height: tree.depth + 1,
            nodes: tree.nodes,
            store: tree.store,
        }
    }

    /// The side length of the internal partitioning grid:
    /// `2^⌊log₄(N / B)⌋`, at least 2 so every internal node partitions.
    fn grid_side(&self) -> usize {
        let ratio = (self.config.partition_threshold / self.config.block_capacity).max(1);
        let log4 = (ratio as f64).log(4.0).floor() as u32;
        (1usize << log4).max(2)
    }

    fn mlp_config(&self, classes: usize, seed: u64) -> MlpConfig {
        let mut cfg = MlpConfig::for_coordinates(classes.max(1));
        cfg.epochs = self.config.epochs;
        cfg.learning_rate = self.config.learning_rate;
        cfg.seed = seed;
        cfg
    }

    fn build_node(&self, points: Vec<Point>, depth: usize, seed: u64, threads: usize) -> Subtree {
        if points.len() <= self.config.partition_threshold || depth >= self.config.max_depth {
            self.build_leaf(points, depth, seed)
        } else {
            self.build_internal(points, depth, seed, threads)
        }
    }

    /// Builds a leaf model (§3.1): rank-space ordering, SFC packing into
    /// blocks, and an MLP predicting local block offsets from coordinates.
    fn build_leaf(&self, points: Vec<Point>, depth: usize, seed: u64) -> Subtree {
        debug_assert!(!points.is_empty());
        let capacity = self.config.block_capacity;
        let curve = self.config.curve;

        // Order the points.
        let ordered: Vec<Point> = if self.config.use_rank_space {
            let rs = RankSpace::new(&points);
            let perm = rs.sorted_permutation(curve);
            perm.into_iter().map(|i| points[i]).collect()
        } else {
            // Ablation: apply the curve directly to raw coordinates on a grid
            // of the same order as the rank space would use.
            let order = rank_space_order(points.len()).min(20);
            let mut with_cv: Vec<(u64, Point)> = points
                .iter()
                .map(|p| {
                    let v = match curve {
                        sfc::CurveKind::Z => sfc::zcurve::encode_unit(p.x, p.y, order),
                        sfc::CurveKind::Hilbert => sfc::hilbert::encode_unit(p.x, p.y, order),
                    };
                    (v, *p)
                })
                .collect();
            with_cv.sort_by_key(|(v, _)| *v);
            with_cv.into_iter().map(|(_, p)| p).collect()
        };

        // Pack into blocks (Equation 1) and record training targets.
        let mut store = BlockStore::new(capacity);
        let n_blocks = store.pack(&ordered).len().max(1);
        let inputs: Vec<[f64; 2]> = ordered.iter().map(|p| [p.x, p.y]).collect();
        let targets: Vec<u64> = (0..ordered.len())
            .map(|rank| (rank / capacity) as u64)
            .collect();
        let model = ScaledRegressor::fit(self.mlp_config(n_blocks, seed), &inputs, &targets);

        let mbr = bounding_rect(&ordered).unwrap_or_else(Rect::empty);
        Subtree {
            nodes: vec![Node::Leaf(LeafNode {
                model,
                first_block: 0,
                n_blocks,
                mbr,
            })],
            store,
            depth,
        }
    }

    /// Builds an internal node (§3.2): a non-regular, data-driven grid whose
    /// cells are enumerated by the SFC; a model learns the cell curve value
    /// of every point, and points are grouped by the model's predictions.
    fn build_internal(
        &self,
        mut points: Vec<Point>,
        depth: usize,
        seed: u64,
        threads: usize,
    ) -> Subtree {
        let s = self.grid_side();
        let cells = s * s;
        let n = points.len();

        // Step 1: data-driven grid.
        let true_cell = grid_cells(&mut points, s, self.config.curve);

        // Step 2: learn the partitioning function M_{i,j}.
        let inputs: Vec<[f64; 2]> = points.iter().map(|p| [p.x, p.y]).collect();
        let mut cfg = self.mlp_config(cells, seed);
        cfg.epochs = routing_epochs(cfg.epochs, n);
        let (model, predicted_cell) =
            ScaledRegressor::fit_predicting(cfg, &inputs, &true_cell, threads);
        drop(inputs);

        // Step 3: group the points by the model's predictions (the learned
        // grouping of Fig. 4) or by the true cell (ablation).
        let cell_of = if self.config.group_by_prediction {
            predicted_cell
        } else {
            true_cell
        };
        let mut groups: Vec<Vec<Point>> = vec![Vec::new(); cells];
        for (p, &j) in points.iter().zip(&cell_of) {
            groups[(j as usize).min(cells - 1)].push(*p);
        }
        drop(cell_of);

        // Note: if the model collapses all points into one predicted group,
        // recursion makes no progress; the per-group guard below turns such a
        // group into a (large) leaf instead.  Regrouping by the true cell
        // would break the routing guarantee, because queries are routed by
        // the model's predictions.

        let mut children: Vec<Option<NodeId>> = vec![None; cells];
        let mut child_mbrs: Vec<Rect> = vec![Rect::empty(); cells];
        let mbr = bounding_rect(&points).unwrap_or_else(Rect::empty);
        // `points` is no longer needed; free it before recursing.
        drop(points);
        let jobs: Vec<(usize, Vec<Point>)> = groups
            .into_iter()
            .enumerate()
            .filter(|(_, group)| !group.is_empty())
            .collect();
        for (cell, group) in &jobs {
            child_mbrs[*cell] = bounding_rect(group).unwrap_or_else(Rect::empty);
        }

        // Step 4: recurse per non-empty group and append the subtrees in
        // cell-curve-value order, so that the global block order follows
        // the curve.
        let build_child = |(cell, group): (usize, Vec<Point>)| {
            let seed = child_seed(seed, cell);
            // A group that did not shrink would recurse forever as an
            // internal node; force it to become a leaf instead.
            let sub = if group.len() >= n {
                self.build_leaf(group, depth + 1, seed)
            } else {
                self.build_node(group, depth + 1, seed, 1)
            };
            (cell, sub)
        };
        let mut tree = Subtree::empty(self.config.block_capacity, depth);
        for (cell, sub) in common::parallel_map(jobs, threads, build_child) {
            children[cell] = Some(tree.append(sub));
        }
        tree.nodes.push(Node::Internal(InternalNode {
            model,
            children,
            child_mbrs,
            mbr,
        }));
        tree
    }
}

/// The data-driven grid of an internal node (§3.2): sorts `points` by x,
/// cuts them into `side` columns of equal cardinality, cuts each column into
/// `side` cells by y, and returns the curve value of each point's cell,
/// aligned with the sorted points.
fn grid_cells(points: &mut Vec<Point>, side: usize, curve: CurveKind) -> Vec<u64> {
    let grid_order = side.trailing_zeros();
    let n = points.len();
    *points = axis_order(points, Axis::X)
        .iter()
        .map(|&(_, i)| points[i])
        .collect();
    let col_size = n.div_ceil(side);
    let mut true_cell: Vec<u64> = vec![0; n];
    for (col, col_points) in points.chunks(col_size).enumerate() {
        let col_start = col * col_size;
        let by_y = axis_order(col_points, Axis::Y);
        let cell_size = col_points.len().div_ceil(side).max(1);
        for (row, row_entries) in by_y.chunks(cell_size).enumerate() {
            let cv = curve.encode(col as u32, (row as u32).min(side as u32 - 1), grid_order);
            for &(_, i) in row_entries {
                true_cell[col_start + i] = cv;
            }
        }
    }
    true_cell
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_points(n: usize) -> Vec<Point> {
        // Deterministic pseudo-random points without pulling in `rand`.
        let mut pts = Vec::with_capacity(n);
        let mut state = 0x12345678u64;
        for id in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 11) as f64 / (1u64 << 53) as f64;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = (state >> 11) as f64 / (1u64 << 53) as f64;
            pts.push(Point::with_id(x, y, id as u64));
        }
        pts
    }

    /// Seeded points with shared x values, shared y values, co-located
    /// copies under equal and under distinct ids, and both signed zeros.
    fn tie_heavy_points(n: usize, seed: u64) -> Vec<Point> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let coord = |r: u64| match r % 8 {
            0 => -0.0,
            1 => 0.0,
            _ => (r % 40) as f64 / 40.0,
        };
        let flip_zero = |v: f64| if v == 0.0 { -v } else { v };
        let mut pts: Vec<Point> = Vec::with_capacity(n);
        while pts.len() < n {
            let r = next();
            let fresh = Point::with_id(coord(next()), coord(next()), next() % 64);
            let q = pts.get((next() as usize) % pts.len().max(1)).copied();
            pts.push(match (r >> 6) % 5 {
                0 => q.unwrap_or(fresh),
                1 => q.map_or(fresh, |q| Point::with_id(q.x, q.y, next() % 64)),
                2 => q.map_or(fresh, |q| {
                    Point::with_id(flip_zero(q.x), flip_zero(q.y), q.id)
                }),
                _ => fresh,
            });
        }
        pts
    }

    fn bits(p: &Point) -> (u64, u64, u64) {
        (p.x.to_bits(), p.y.to_bits(), p.id)
    }

    #[test]
    fn keyed_sorts_keep_the_comparator_order_and_its_tie_rule() {
        use std::cmp::Ordering;
        // The comparators the sorts used before they were keyed: stable
        // sorts over `partial_cmp` chains, the id last.
        fn by_x(a: &Point, b: &Point) -> Ordering {
            let (x, y) = (
                a.x.partial_cmp(&b.x).unwrap(),
                a.y.partial_cmp(&b.y).unwrap(),
            );
            x.then(y).then(a.id.cmp(&b.id))
        }
        fn by_y(a: &Point, b: &Point) -> Ordering {
            let (y, x) = (
                a.y.partial_cmp(&b.y).unwrap(),
                a.x.partial_cmp(&b.x).unwrap(),
            );
            y.then(x).then(a.id.cmp(&b.id))
        }
        let sorted_positions = |pts: &[Point], cmp: fn(&Point, &Point) -> Ordering| {
            let mut idx: Vec<usize> = (0..pts.len()).collect();
            idx.sort_by(|&a, &b| cmp(&pts[a], &pts[b]));
            idx
        };
        for seed in [1, 7, 42] {
            let pts = tie_heavy_points(3_000, seed);

            // Rank space and the curve order of its cells.
            let mut ranks = vec![(0u32, 0u32); pts.len()];
            for (rank, i) in sorted_positions(&pts, by_x).into_iter().enumerate() {
                ranks[i].0 = rank as u32;
            }
            for (rank, i) in sorted_positions(&pts, by_y).into_iter().enumerate() {
                ranks[i].1 = rank as u32;
            }
            let rs = RankSpace::new(&pts);
            let got: Vec<(u32, u32)> = (0..pts.len()).map(|i| rs.rank(i)).collect();
            assert_eq!(got, ranks, "rank space, seed {seed}");
            for curve in [CurveKind::Z, CurveKind::Hilbert] {
                let values = rs.curve_values(curve);
                let mut perm: Vec<usize> = (0..pts.len()).collect();
                perm.sort_by_key(|&i| values[i]);
                assert_eq!(rs.sorted_permutation(curve), perm, "{curve:?}, seed {seed}");
            }

            // The root grid: the x order of the points and every cell.
            let side = 4;
            let mut sorted = pts.clone();
            sorted.sort_by(by_x);
            let col_size = sorted.len().div_ceil(side);
            let mut cells = vec![0u64; sorted.len()];
            for (col, column) in sorted.chunks(col_size).enumerate() {
                let cell_size = column.len().div_ceil(side);
                let by_row = sorted_positions(column, by_y);
                for (row, members) in by_row.chunks(cell_size).enumerate() {
                    for &i in members {
                        let cell = CurveKind::Hilbert.encode(col as u32, row as u32, 2);
                        cells[col * col_size + i] = cell;
                    }
                }
            }
            let mut keyed = pts.clone();
            let keyed_cells = grid_cells(&mut keyed, side, CurveKind::Hilbert);
            let bits_of = |pts: &[Point]| pts.iter().map(bits).collect::<Vec<_>>();
            assert_eq!(
                bits_of(&keyed),
                bits_of(&sorted),
                "grid x order, seed {seed}"
            );
            assert_eq!(keyed_cells, cells, "grid cells, seed {seed}");

            // The marginal CDFs' breakpoints, signed zeros included.
            for coord in [|p: &Point| p.x, |p: &Point| p.y] {
                let values: Vec<f64> = pts.iter().map(coord).collect();
                let mut sorted = values.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let n = sorted.len();
                let (mut ref_xs, mut ref_fracs) = (vec![sorted[0]], vec![0.0]);
                for i in 1..=100 {
                    let idx = ((i * n) / 100).clamp(1, n) - 1;
                    let frac = (idx + 1) as f64 / n as f64;
                    if sorted[idx] > *ref_xs.last().unwrap() {
                        ref_xs.push(sorted[idx]);
                        ref_fracs.push(frac);
                    } else {
                        *ref_fracs.last_mut().unwrap() = frac;
                    }
                }
                let cdf = crate::PiecewiseCdf::fit(&values, 100);
                let (xs, fracs) = cdf.breakpoints();
                let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    to_bits(xs),
                    to_bits(&ref_xs),
                    "CDF breakpoints, seed {seed}"
                );
                assert_eq!(fracs, ref_fracs);
            }
        }
    }

    fn test_config() -> RsmiConfig {
        RsmiConfig {
            block_capacity: 20,
            partition_threshold: 200,
            epochs: 15,
            learning_rate: 0.3,
            ..RsmiConfig::default()
        }
    }

    #[test]
    fn small_data_set_builds_a_single_leaf() {
        let out = Builder::run(test_config(), uniform_points(150), 1);
        assert_eq!(out.nodes.len(), 1);
        assert!(matches!(out.nodes[out.root.unwrap()], Node::Leaf(_)));
        assert_eq!(out.height, 1);
        assert_eq!(out.model_count, 1);
        assert_eq!(out.store.total_points(), 150);
        assert_eq!(out.store.len(), 8); // ceil(150 / 20)
    }

    #[test]
    fn large_data_set_builds_a_recursive_structure() {
        let out = Builder::run(test_config(), uniform_points(2000), 2);
        assert!(out.height >= 2, "2000 points with N=200 must recurse");
        assert!(out.model_count > 1);
        assert_eq!(out.store.total_points(), 2000);
        // Every point is stored exactly once.
        let mut ids: Vec<u64> = out
            .store
            .iter()
            .flat_map(|(_, b)| b.ids().iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 2000);
    }

    #[test]
    fn empty_input_produces_an_empty_index() {
        let out = Builder::run(test_config(), vec![], 2);
        assert!(out.root.is_none());
        assert!(out.nodes.is_empty());
        assert_eq!(out.store.total_points(), 0);
    }

    #[test]
    fn grid_side_follows_the_paper_formula() {
        // N = 10_000, B = 100 -> N/B = 100 -> 2^⌊log4 100⌋ = 2^3 = 8.
        let builder = Builder {
            config: RsmiConfig::default(),
        };
        assert_eq!(builder.grid_side(), 8);
        // N = 8, B = 2 -> N/B = 4 -> 2^1 = 2 (the paper's Fig. 4 example).
        let builder2 = Builder {
            config: RsmiConfig {
                partition_threshold: 8,
                block_capacity: 2,
                ..RsmiConfig::default()
            },
        };
        assert_eq!(builder2.grid_side(), 2);
    }

    #[test]
    fn internal_fits_share_a_budget_of_routing_rows() {
        // 30 x 200 000 = ROUTING_ROWS: up to 200 k rows keep the cap.
        assert_eq!(routing_epochs(30, 200_000), 30);
        assert_eq!(routing_epochs(30, 200_001), 30);
        assert_eq!(routing_epochs(30, 1_000_000), 6);
        assert_eq!(routing_epochs(30, ROUTING_ROWS + 1), 1);
        assert_eq!(routing_epochs(0, 1_000_000), 0);
    }

    #[test]
    fn duplicate_locations_do_not_break_the_build() {
        let mut pts = uniform_points(300);
        // Add many duplicates of one location.
        for i in 0..100 {
            pts.push(Point::with_id(0.25, 0.25, 10_000 + i));
        }
        let out = Builder::run(test_config(), pts, 2);
        assert_eq!(out.store.total_points(), 400);
    }

    #[test]
    fn leaf_blocks_are_chained_in_allocation_order() {
        let out = Builder::run(test_config(), uniform_points(1000), 2);
        // Walk the chain from block 0 and count the reachable blocks; all
        // bulk-loaded blocks must be reachable.
        let mut count = 1;
        let mut cur = 0;
        while let Some(next) = out.store.block(cur).next() {
            assert_eq!(next, cur + 1, "bulk blocks must be chained consecutively");
            cur = next;
            count += 1;
        }
        assert_eq!(count, out.store.len());
    }
}
