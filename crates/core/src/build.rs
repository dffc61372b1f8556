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
use sfc::rank_space::{point_cmp_x, point_cmp_y, rank_space_order};
use sfc::RankSpace;
use std::sync::Mutex;
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
        let grid_order = s.trailing_zeros();
        let n = points.len();

        // Step 1: data-driven grid.  Cut the data into `s` columns of equal
        // cardinality by x, then each column into `s` cells by y.
        points.sort_by(point_cmp_x);
        let col_size = n.div_ceil(s);
        let mut true_cell: Vec<u64> = vec![0; n];
        for (col, col_points) in points.chunks(col_size).enumerate() {
            // Indices of this column within the sorted-by-x order.
            let col_start = col * col_size;
            let mut idx: Vec<usize> = (col_start..col_start + col_points.len()).collect();
            idx.sort_by(|&a, &b| point_cmp_y(&points[a], &points[b]));
            let cell_size = col_points.len().div_ceil(s).max(1);
            for (row, row_idx) in idx.chunks(cell_size).enumerate() {
                let cv = self.config.curve.encode(
                    col as u32,
                    (row as u32).min(s as u32 - 1),
                    grid_order,
                );
                for &i in row_idx {
                    true_cell[i] = cv;
                }
            }
        }

        // Step 2: learn the partitioning function M_{i,j}.
        let inputs: Vec<[f64; 2]> = points.iter().map(|p| [p.x, p.y]).collect();
        let (model, predicted_cell) =
            ScaledRegressor::fit_predicting(self.mlp_config(cells, seed), &inputs, &true_cell);
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
        for (cell, sub) in fan_out(jobs, threads, build_child) {
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

/// Maps `jobs` through `build` on up to `threads` workers — the calling
/// thread and scoped helpers — each pulling the next job from a shared
/// queue; the results come back in job order.
fn fan_out<J: Send, T: Send>(
    jobs: Vec<J>,
    threads: usize,
    build: impl Fn(J) -> T + Sync,
) -> Vec<T> {
    let workers = threads.min(jobs.len());
    if workers <= 1 {
        return jobs.into_iter().map(build).collect();
    }
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let work = || {
        let mut built = Vec::new();
        loop {
            let next = queue
                .lock()
                .expect("no worker panics while taking a job")
                .next();
            let Some((i, job)) = next else { break built };
            built.push((i, build(job)));
        }
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(
                helper
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
        done
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, built)| built).collect()
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
        assert!(out.nodes[out.root.unwrap()].is_leaf());
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
