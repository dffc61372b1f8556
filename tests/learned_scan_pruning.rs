//! The learned RSMI scans open a block only when the MBR in its header says
//! it can match.  With one charging rule for every path — a block is
//! charged when its lanes are read — the learned window scan can only open
//! a subset of the blocks the exact traversal (RSMIa) opens, and it must
//! keep finding what lives in overflow blocks and stop opening a block once
//! a delete has pulled its rectangle back.

use common::{QueryContext, QueryStats, SpatialIndex};
use datagen::{generate, queries, Distribution};
use geom::{Point, Rect};
use rsmi::{Rsmi, RsmiConfig};

fn window_ids(index: &Rsmi, window: &Rect) -> (std::collections::BTreeSet<u64>, QueryStats) {
    let mut cx = QueryContext::new();
    let mut ids = std::collections::BTreeSet::new();
    index.window_query_visit(window, &mut cx, &mut |p| {
        ids.insert(p.id);
    });
    (ids, cx.take_stats())
}

/// A dense cluster of inserts at one spot: fills the predicted block and
/// grows an overflow chain behind it.
fn cluster(at: Point, n: u64, first_id: u64) -> Vec<Point> {
    (0..n)
        .map(|i| {
            Point::with_id(
                at.x + 1e-7 * (i % 16) as f64,
                at.y + 1e-7 * (i / 16) as f64,
                first_id + i,
            )
        })
        .collect()
}

#[test]
fn learned_windows_open_a_subset_of_the_blocks_the_exact_traversal_opens() {
    for (distribution, seed) in [
        (Distribution::Uniform, 7),
        (Distribution::skewed_default(), 19),
    ] {
        let data = generate(distribution, 6_000, seed);
        let mut index = Rsmi::build(data.clone(), RsmiConfig::fast());
        for p in queries::insertion_points(&data, 600, 5)
            .into_iter()
            .chain(cluster(data[11], 400, 1_000_000))
        {
            index.insert(p);
        }
        assert!(index.overflow_block_count() > 0, "no overflow chains");
        // Empty a few bulk blocks outright, thin out others.
        let doomed: Vec<Point> = index
            .block_store()
            .iter()
            .filter(|(id, _)| id % 9 == 0)
            .flat_map(|(_, block)| block.to_points())
            .chain(data.iter().step_by(13).copied())
            .collect();
        for p in &doomed {
            index.delete(p);
        }
        assert!(
            index.block_store().iter().any(|(_, b)| b.is_empty()),
            "no block was emptied"
        );
        assert_eq!(index.bounds_violations(), 0);

        let mut windows = vec![Rect::unit()];
        for area_percent in [0.01, 0.25, 2.0] {
            let spec = queries::WindowSpec {
                area_percent,
                aspect_ratio: 2.0,
            };
            windows.extend(queries::window_queries(&data, spec, 40, 31));
        }
        let exact_index = index.clone().into_exact();
        for w in &windows {
            let (learned, learned_cost) = window_ids(&index, w);
            let (exact, exact_cost) = window_ids(&exact_index, w);
            assert!(learned.is_subset(&exact), "false positive in {w:?}");
            assert!(
                learned_cost.blocks_touched <= exact_cost.blocks_touched,
                "{w:?}: learned scan opened {} blocks, exact traversal {}",
                learned_cost.blocks_touched,
                exact_cost.blocks_touched
            );
        }
    }
}

#[test]
fn points_in_overflow_blocks_are_found_by_point_and_window_queries() {
    let data = generate(Distribution::skewed_default(), 4_000, 23);
    let mut index = Rsmi::build(data.clone(), RsmiConfig::fast());
    for p in cluster(data[5], 300, 2_000_000) {
        index.insert(p);
    }
    let overflowed: Vec<Point> = index
        .block_store()
        .iter()
        .filter(|(_, block)| block.is_overflow())
        .flat_map(|(_, block)| block.to_points())
        .collect();
    assert!(!overflowed.is_empty(), "the cluster grew no overflow block");
    let mut cx = QueryContext::new();
    for p in &overflowed {
        assert_eq!(index.point_query(p, &mut cx).map(|f| f.id), Some(p.id));
        let (ids, _) = window_ids(&index, &Rect::new(p.x, p.y, p.x, p.y));
        assert!(ids.contains(&p.id), "window at {p:?} misses it");
    }
}

#[test]
fn deleting_an_edge_point_stops_windows_over_the_vacated_strip_opening_the_block() {
    let data = generate(Distribution::Uniform, 4_000, 29);
    let mut index = Rsmi::build(data.clone(), RsmiConfig::fast());
    let (id, block) = index
        .block_store()
        .iter()
        .filter(|(_, block)| block.len() > 1)
        .nth(3)
        .unwrap();
    let mut by_x = block.to_points();
    by_x.sort_by(|a, b| a.x.total_cmp(&b.x));
    let (edge, runner_up) = (by_x[by_x.len() - 1], by_x[by_x.len() - 2]);
    assert_eq!(block.mbr().max_x, edge.x);
    // The strip the edge point holds open, at its own height: one corner is
    // an indexed key, so the key's block is inside the predicted range.
    let strip = Rect::new((runner_up.x + edge.x) / 2.0, edge.y, edge.x, edge.y);
    let (found, before) = window_ids(&index, &strip);
    assert!(found.contains(&edge.id));

    assert!(index.delete(&edge));
    let after_mbr = index.block_store().block(id).mbr();
    assert_eq!(after_mbr.max_x, runner_up.x, "the rectangle did not shrink");
    assert!(!after_mbr.intersects(&strip));
    let (found, after) = window_ids(&index, &strip);
    assert!(!found.contains(&edge.id));
    assert_eq!(after.blocks_touched, before.blocks_touched - 1);
    assert_eq!(
        after.candidates_scanned,
        before.candidates_scanned - (index.block_store().block(id).len() as u64 + 1)
    );
    assert_eq!(after.nodes_visited, before.nodes_visited);
}
