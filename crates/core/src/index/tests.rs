use super::*;
use common::{brute_force, knn, metrics, QueryStats};
use persist::SnapshotReader;
use sfc::CurveKind;

fn grid_points(side: usize) -> Vec<Point> {
    let mut pts = Vec::with_capacity(side * side);
    for i in 0..side {
        for j in 0..side {
            pts.push(Point::with_id(
                (i as f64 + 0.5) / side as f64,
                (j as f64 + 0.5) / side as f64,
                (i * side + j) as u64,
            ));
        }
    }
    pts
}

fn pseudo_random_points(n: usize, seed: u64) -> Vec<Point> {
    let mut state = seed | 1;
    let mut pts = Vec::with_capacity(n);
    for id in 0..n {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let x = (state >> 11) as f64 / (1u64 << 53) as f64;
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let y = (state >> 11) as f64 / (1u64 << 53) as f64;
        pts.push(Point::with_id(x, y, id as u64));
    }
    pts
}

fn small_config() -> RsmiConfig {
    RsmiConfig {
        block_capacity: 16,
        partition_threshold: 300,
        epochs: 20,
        learning_rate: 0.3,
        ..RsmiConfig::default()
    }
}

fn cx() -> QueryContext {
    QueryContext::new()
}

#[test]
fn one_two_and_four_build_threads_write_the_same_snapshot() {
    // 8 000 points under N = 300: the root's subtrees split again.
    let pts = pseudo_random_points(8_000, 11);
    let config = RsmiConfig {
        epochs: 5,
        ..small_config()
    };
    let snapshot = |threads| {
        let mut index = Rsmi::build_on(pts.clone(), config, threads);
        assert!(index.height >= 3, "two internal levels");
        assert_eq!(index.bounds_violations(), 0);
        index.build_seconds = 0.0;
        let mut w = SnapshotWriter::new("RSMI");
        snapshot::encode(&index, &mut w);
        w.finish()
    };
    let one = snapshot(1);
    assert!(one == snapshot(2), "2 threads differ from 1");
    assert!(one == snapshot(4), "4 threads differ from 1");
}

#[test]
fn every_indexed_point_is_found_by_a_point_query() {
    let pts = pseudo_random_points(1200, 3);
    let index = Rsmi::build(pts.clone(), small_config());
    let mut c = cx();
    for p in &pts {
        let found = index.point_query(p, &mut c);
        assert!(found.is_some(), "point {:?} not found", p);
        assert_eq!(found.unwrap().id, p.id);
    }
}

#[test]
fn point_query_misses_points_that_were_never_inserted() {
    let pts = grid_points(20);
    let index = Rsmi::build(pts, small_config());
    assert!(index
        .point_query(&Point::new(0.003, 0.0071), &mut cx())
        .is_none());
}

#[test]
fn empty_index_answers_queries_gracefully() {
    let index = Rsmi::build(vec![], small_config());
    let mut c = cx();
    assert_eq!(index.len(), 0);
    assert!(index.point_query(&Point::new(0.5, 0.5), &mut c).is_none());
    assert!(SpatialIndex::window_query(&index, &Rect::unit(), &mut c).is_empty());
    assert!(SpatialIndex::knn_query(&index, &Point::new(0.5, 0.5), 3, &mut c).is_empty());
    let exact = index.into_exact();
    assert!(exact.window_query(&Rect::unit(), &mut c).is_empty());
    assert!(exact.knn_query(&Point::new(0.5, 0.5), 3, &mut c).is_empty());
}

#[test]
fn window_query_has_no_false_positives_and_good_recall() {
    let pts = pseudo_random_points(2000, 9);
    let index = Rsmi::build(pts.clone(), small_config());
    let windows = [
        Rect::new(0.1, 0.1, 0.3, 0.25),
        Rect::new(0.4, 0.4, 0.6, 0.6),
        Rect::new(0.0, 0.0, 1.0, 0.05),
        Rect::new(0.72, 0.11, 0.93, 0.37),
    ];
    let mut recalls = Vec::new();
    let mut c = cx();
    for w in &windows {
        let truth = brute_force::window_query(&pts, w);
        let got = SpatialIndex::window_query(&index, w, &mut c);
        assert_eq!(metrics::false_positive_rate(&got, &truth), 0.0);
        recalls.push(metrics::recall(&got, &truth));
    }
    let avg = metrics::mean(&recalls);
    assert!(avg > 0.8, "average recall too low: {avg} ({recalls:?})");
}

#[test]
fn exact_window_query_matches_brute_force() {
    let pts = pseudo_random_points(1500, 5);
    let index = Rsmi::build(pts.clone(), small_config()).into_exact();
    let mut c = cx();
    for w in [
        Rect::new(0.2, 0.3, 0.5, 0.6),
        Rect::new(0.0, 0.0, 0.1, 1.0),
        Rect::new(0.9, 0.9, 1.0, 1.0),
    ] {
        let mut truth: Vec<u64> = brute_force::window_query(&pts, &w)
            .iter()
            .map(|p| p.id)
            .collect();
        let mut got: Vec<u64> = index
            .window_query(&w, &mut c)
            .iter()
            .map(|p| p.id)
            .collect();
        truth.sort_unstable();
        got.sort_unstable();
        assert_eq!(got, truth);
    }
}

#[test]
fn exact_knn_matches_brute_force_distances() {
    let pts = pseudo_random_points(800, 7);
    let index = Rsmi::build(pts.clone(), small_config()).into_exact();
    let mut c = cx();
    for q in [
        Point::new(0.5, 0.5),
        Point::new(0.05, 0.95),
        Point::new(0.99, 0.01),
    ] {
        for k in [1, 5, 20] {
            let truth = brute_force::knn_query(&pts, &q, k);
            let got = index.knn_query(&q, k, &mut c);
            assert_eq!(got.len(), k);
            for (a, b) in truth.iter().zip(&got) {
                assert!((a.dist(&q) - b.dist(&q)).abs() < 1e-12);
            }
        }
    }
}

#[test]
fn approximate_knn_returns_k_points_with_high_recall() {
    let pts = pseudo_random_points(2000, 21);
    let index = Rsmi::build(pts.clone(), small_config());
    let mut recalls = Vec::new();
    let mut c = cx();
    for q in [
        Point::new(0.5, 0.5),
        Point::new(0.1, 0.2),
        Point::new(0.85, 0.6),
        Point::new(0.01, 0.99),
    ] {
        let k = 10;
        let got = SpatialIndex::knn_query(&index, &q, k, &mut c);
        assert_eq!(got.len(), k);
        let truth = brute_force::knn_query(&pts, &q, k);
        recalls.push(metrics::knn_recall(&got, &truth, &q, k));
    }
    let avg = metrics::mean(&recalls);
    assert!(avg > 0.8, "kNN recall too low: {avg}");
}

#[test]
fn approximate_knn_returns_distinct_points_across_expansion_rounds() {
    // Regression: a later expansion round's region covers the blocks
    // of the earlier ones; a block must be opened once per query, or
    // its points enter the best-k list a second time (each duplicate
    // would evict a genuine neighbour).
    let pts = pseudo_random_points(300, 99);
    let index = Rsmi::build(pts.clone(), small_config());
    let mut c = cx();
    for q in [
        Point::new(0.8, 0.05),
        Point::new(0.01, 0.99),
        Point::new(0.5, 0.5),
    ] {
        for k in [25usize, 100, 250] {
            let got = SpatialIndex::knn_query(&index, &q, k, &mut c);
            assert_eq!(got.len(), k.min(pts.len()));
            let mut ids: Vec<u64> = got.iter().map(|p| p.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(
                ids.len(),
                got.len(),
                "duplicate kNN results for q={q:?} k={k}"
            );
        }
    }
}

#[test]
fn knn_with_k_larger_than_data_returns_all_points() {
    let pts = grid_points(5); // 25 points
    let index = Rsmi::build(pts.clone(), small_config());
    let got = SpatialIndex::knn_query(&index, &Point::new(0.5, 0.5), 100, &mut cx());
    assert_eq!(got.len(), 25);
}

#[test]
fn inserted_points_are_found_and_counted() {
    let pts = pseudo_random_points(600, 31);
    let mut index = Rsmi::build(pts.clone(), small_config());
    let new_points: Vec<Point> = (0..200)
        .map(|i| {
            let base = pts[i * 3];
            Point::with_id((base.x + 0.001).min(1.0), base.y, 10_000 + i as u64)
        })
        .collect();
    for p in &new_points {
        index.insert(*p);
    }
    assert_eq!(index.len(), 800);
    let mut c = cx();
    for p in &new_points {
        let found = index.point_query(p, &mut c);
        assert_eq!(
            found.map(|f| f.id),
            Some(p.id),
            "inserted point lost: {p:?}"
        );
    }
    // Old points are still reachable.
    for p in pts.iter().step_by(7) {
        assert!(index.point_query(p, &mut c).is_some());
    }
}

#[test]
fn insert_into_empty_index_bootstraps_it() {
    let mut index = Rsmi::build(vec![], small_config());
    index.insert(Point::with_id(0.3, 0.4, 1));
    index.insert(Point::with_id(0.6, 0.1, 2));
    assert_eq!(index.len(), 2);
    let mut c = cx();
    assert_eq!(
        index.point_query(&Point::new(0.3, 0.4), &mut c).unwrap().id,
        1
    );
    assert_eq!(
        index.point_query(&Point::new(0.6, 0.1), &mut c).unwrap().id,
        2
    );
}

#[test]
fn deleted_points_disappear_and_slots_are_reused() {
    let pts = pseudo_random_points(500, 13);
    let mut index = Rsmi::build(pts.clone(), small_config());
    let victim = pts[123];
    assert!(index.delete(&victim));
    assert_eq!(index.len(), 499);
    let mut c = cx();
    assert!(index.point_query(&victim, &mut c).is_none());
    // Deleting again fails.
    assert!(!index.delete(&victim));
    // Other points survive.
    assert!(index.point_query(&pts[124], &mut c).is_some());
    // Re-inserting a point at the same location works.
    index.insert(victim);
    assert!(index.point_query(&victim, &mut c).is_some());
}

#[test]
fn window_queries_see_inserted_points() {
    let pts = pseudo_random_points(800, 17);
    let mut index = Rsmi::build(pts.clone(), small_config());
    let extra = Point::with_id(0.505, 0.505, 99_999);
    index.insert(extra);
    let w = Rect::new(0.45, 0.45, 0.55, 0.55);
    let exact = index.into_exact().window_query(&w, &mut cx());
    assert!(
        exact.iter().any(|p| p.id == extra.id),
        "exact window query must see the insert"
    );
}

#[test]
fn rebuild_restores_layout_and_preserves_content() {
    let pts = pseudo_random_points(700, 23);
    let mut index = Rsmi::build(pts.clone(), small_config());
    for i in 0..300 {
        let base = pts[i * 2];
        index.insert(Point::with_id(
            base.x,
            (base.y + 0.002).min(1.0),
            50_000 + i as u64,
        ));
    }
    assert!(
        index.overflow_block_count() > 0,
        "insertions should create overflow blocks"
    );
    let before = index.len();
    index.rebuild();
    assert_eq!(index.len(), before);
    assert_eq!(index.overflow_block_count(), 0);
    // All points still found.
    let mut c = cx();
    for p in pts.iter().step_by(11) {
        assert!(index.point_query(p, &mut c).is_some());
    }
}

#[test]
fn stats_report_plausible_values() {
    let pts = pseudo_random_points(1500, 41);
    let index = Rsmi::build(pts, small_config());
    let stats = index.stats();
    assert_eq!(stats.n_points, 1500);
    assert!(stats.height >= 2);
    assert!(stats.leaf_count >= 2);
    assert!(stats.model_count >= stats.leaf_count);
    assert!(stats.avg_depth >= 1.0);
    assert!(stats.avg_depth <= stats.height as f64);
    assert!(stats.size_bytes > 0);
    assert_eq!(SpatialIndex::model_count(&index), stats.model_count);
}

#[test]
fn per_query_stats_are_charged_to_the_context() {
    let pts = pseudo_random_points(500, 47);
    let index = Rsmi::build(pts.clone(), small_config());
    let mut c = cx();
    assert_eq!(c.stats.total_accesses(), 0);
    let _ = index.point_query(&pts[0], &mut c);
    let first = c.take_stats();
    assert!(first.blocks_touched >= 1, "{first:?}");
    assert!(first.nodes_visited >= 1, "{first:?}");
    assert!(first.candidates_scanned >= 1, "{first:?}");
    // After take_stats the context is clean again.
    assert_eq!(c.stats.total_accesses(), 0);
    // Two identical queries through one context cost twice one query.
    let _ = index.point_query(&pts[0], &mut c);
    let _ = index.point_query(&pts[0], &mut c);
    assert_eq!(c.stats.total_accesses(), 2 * first.total_accesses());
}

#[test]
fn z_curve_configuration_also_works() {
    let pts = pseudo_random_points(900, 53);
    let cfg = small_config().with_curve(CurveKind::Z);
    let index = Rsmi::build(pts.clone(), cfg);
    let mut c = cx();
    for p in pts.iter().step_by(13) {
        assert!(index.point_query(p, &mut c).is_some());
    }
    let w = Rect::new(0.3, 0.3, 0.5, 0.5);
    let truth = brute_force::window_query(&pts, &w);
    let got = SpatialIndex::window_query(&index, &w, &mut c);
    assert_eq!(metrics::false_positive_rate(&got, &truth), 0.0);
}

#[test]
fn rsmi_exact_wrapper_answers_exactly_through_the_trait() {
    let pts = pseudo_random_points(1200, 77);
    let exact = Rsmi::build(pts.clone(), small_config()).into_exact();
    assert_eq!(exact.name(), "RSMIa");
    assert_eq!(exact.len(), pts.len());
    assert!(SpatialIndex::model_count(&exact) > 0);
    let mut c = cx();
    let w = Rect::new(0.25, 0.25, 0.6, 0.55);
    let mut truth: Vec<u64> = brute_force::window_query(&pts, &w)
        .iter()
        .map(|p| p.id)
        .collect();
    let mut got: Vec<u64> = SpatialIndex::window_query(&exact, &w, &mut c)
        .iter()
        .map(|p| p.id)
        .collect();
    truth.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, truth);
    let q = Point::new(0.4, 0.4);
    let knn_truth = brute_force::knn_query(&pts, &q, 7);
    let knn_got = SpatialIndex::knn_query(&exact, &q, 7, &mut c);
    for (t, g) in knn_truth.iter().zip(&knn_got) {
        assert!((t.dist(&q) - g.dist(&q)).abs() < 1e-12);
    }
    // The wrapper is mutable like any other index.
    let mut exact = exact;
    let p = Point::with_id(0.111, 0.222, 424_242);
    exact.insert(p);
    assert_eq!(exact.point_query(&p, &mut c).map(|f| f.id), Some(p.id));
    assert!(exact.delete(&p));
}

#[test]
fn indices_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Rsmi>();
}

#[test]
fn range_queries_are_exact_for_both_variants_even_after_inserts() {
    let mut pts = pseudo_random_points(900, 83);
    let mut index = Rsmi::build(pts.clone(), small_config());
    // Inserted points must stay visible to the MBR traversal.
    for i in 0..150 {
        let base = pts[i * 5];
        let p = Point::with_id((base.x + 0.003).min(1.0), base.y, 70_000 + i as u64);
        index.insert(p);
        pts.push(p);
    }
    let exact = Rsmi::build(pts.clone(), small_config()).into_exact();
    let mut c = cx();
    for (center, r) in [
        (Point::new(0.5, 0.5), 0.07),
        (Point::new(0.02, 0.97), 0.2),
        (Point::new(0.8, 0.1), 0.0),
    ] {
        let mut truth: Vec<u64> = brute_force::range_query(&pts, &center, r)
            .iter()
            .map(|p| p.id)
            .collect();
        truth.sort_unstable();
        for got in [
            SpatialIndex::range_query(&index, &center, r, &mut c),
            SpatialIndex::range_query(&exact, &center, r, &mut c),
        ] {
            let mut ids: Vec<u64> = got.iter().map(|p| p.id).collect();
            ids.sort_unstable();
            assert_eq!(ids, truth, "center {center:?} r {r}");
        }
    }
}

#[test]
fn distance_join_matches_the_nested_loop_oracle() {
    let pts = pseudo_random_points(700, 91);
    let others = pseudo_random_points(150, 17);
    let index = Rsmi::build(pts.clone(), small_config());
    let mut c = cx();
    let mut got: Vec<(u64, u64)> = Vec::new();
    SpatialIndex::distance_join_probes(&index, &others, 0.03, &mut c, &mut |p, q| {
        got.push((p.id, q.id));
    });
    let mut truth: Vec<(u64, u64)> = brute_force::distance_join(&pts, &others, 0.03)
        .iter()
        .map(|(p, q)| (p.id, q.id))
        .collect();
    got.sort_unstable();
    truth.sort_unstable();
    assert_eq!(got, truth);
    assert!(c.take_stats().blocks_touched > 0);
    // Enumeration covers every point exactly once.
    let mut n = 0;
    SpatialIndex::for_each_point(&index, &mut |_| n += 1);
    assert_eq!(n, pts.len());
}

#[test]
fn ablation_configurations_still_index_correctly() {
    let pts = pseudo_random_points(900, 61);
    // Raw-coordinate ordering keeps the point-query guarantee (only the
    // leaf CDF gets harder to learn).
    let cfg = small_config().with_rank_space(false);
    let index = Rsmi::build(pts.clone(), cfg);
    let mut c = cx();
    for p in pts.iter().step_by(17) {
        assert!(index.point_query(p, &mut c).is_some(), "cfg {cfg:?}");
    }
    // Grouping by the *true* grid cell (instead of the model prediction)
    // breaks the routing guarantee — exactly the paper's argument for
    // learned grouping — but the MBR-based exact queries stay correct.
    let cfg = small_config().with_group_by_prediction(false);
    let index = Rsmi::build(pts.clone(), cfg).into_exact();
    let w = Rect::new(0.2, 0.2, 0.5, 0.5);
    let mut truth: Vec<u64> = brute_force::window_query(&pts, &w)
        .iter()
        .map(|p| p.id)
        .collect();
    let mut got: Vec<u64> = index
        .window_query(&w, &mut c)
        .iter()
        .map(|p| p.id)
        .collect();
    truth.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, truth);
}

/// Seeded churn against `index`, mirrored into `live`: inserts clustered
/// to stress a few leaves, deletes spread across the survivors.  The
/// error-bound soundness invariant is checked after every round.
fn churn(index: &mut Rsmi, live: &mut Vec<Point>, rounds: usize, seed: u64) {
    let mut state = seed | 1;
    for i in 0..rounds {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        if state % 10 < 7 {
            let x = 0.4 + ((state >> 17) % 1000) as f64 / 5000.0;
            let y = 0.4 + ((state >> 31) % 1000) as f64 / 5000.0;
            let p = Point::with_id(x, y, 500_000 + i as u64);
            index.insert(p);
            live.push(p);
        } else if !live.is_empty() {
            let victim = live[(state >> 13) as usize % live.len()];
            assert!(index.delete(&victim), "victim {victim:?} not deleted");
            let pos = live
                .iter()
                .position(|q| q.same_location(&victim) && q.id == victim.id)
                .unwrap();
            live.remove(pos);
        }
        assert_eq!(index.bounds_violations(), 0, "round {i} broke the bounds");
    }
}

/// `knn_query_visit` without the block-MBR test: for each region
/// `knn::expand` asks for, every point of every block in the region's
/// chain range is offered, each block once per query.  Its answer is the
/// exact top-k over the blocks of the predicted ranges, so it does not
/// depend on the order blocks are opened in.
fn knn_reference(index: &Rsmi, q: &Point, k: usize) -> Vec<Point> {
    let mut offered = vec![false; index.store.len()];
    let best = knn::expand(
        q,
        k,
        index.n_points,
        query::knn_skew(index, q),
        &mut cx(),
        |region, best, cx| {
            let Some((begin, end)) = query::window_block_range(index, region, cx) else {
                return;
            };
            for (id, block) in index.store.chain_range(begin, end) {
                if !std::mem::replace(&mut offered[id], true) {
                    block.for_each_dist_sq(q, |p, d_sq| best.offer(p, d_sq));
                }
            }
        },
        |best, _| {
            for (_, block) in index.store.iter() {
                block.for_each_dist_sq(q, |p, d_sq| best.offer(p, d_sq));
            }
        },
    );
    best.iter().copied().collect()
}

#[test]
fn knn_equals_the_unpruned_reference_on_fresh_and_churned_indexes() {
    let mut pts = pseudo_random_points(2_000, 19);
    // Forty co-located copies of one stored point, spread over several
    // blocks, with ids falling in input order: the copies in the chain's
    // first block hold the largest ids, and every tie at a copy's
    // distance is decided by id.
    let home = pts[777];
    let copies = |base: u64| (0..40u64).map(move |i| Point::with_id(home.x, home.y, base - i));
    pts.extend(copies(900_000));
    let mut index = Rsmi::build(pts.clone(), small_config());
    let queries: Vec<Point> = pseudo_random_points(12, 5)
        .into_iter()
        .chain([home, pts[3]])
        .collect();
    let check = |index: &Rsmi, stage: &str| {
        for q in &queries {
            for k in [1, 25, 100] {
                let mut got = Vec::new();
                index.knn_query_visit(q, k, &mut cx(), &mut |p| got.push(p.id));
                let want: Vec<u64> = knn_reference(index, q, k).iter().map(|p| p.id).collect();
                assert_eq!(got, want, "{stage}: q {q:?} k {k}");
            }
        }
    };
    check(&index, "fresh");
    let mut live = pts;
    churn(&mut index, &mut live, 600, 3);
    for p in copies(950_000) {
        index.insert(p);
    }
    check(&index, "churned");
    index.rebuild_partial(&common::MaintenanceBudget {
        max_subtrees: usize::MAX,
        drift_threshold: 0.0,
    });
    assert_eq!(index.bounds_violations(), 0);
    check(&index, "maintained");
}

/// Every answer of the five query classes, with the `QueryStats` each
/// class charged, over a fixed battery.
fn answers_and_stats(index: &Rsmi, probes: &[Point]) -> Vec<(Vec<u64>, QueryStats)> {
    let ids = |pts: Vec<Point>| pts.iter().map(|p| p.id).collect::<Vec<u64>>();
    let mut c = cx();
    let mut out = Vec::new();
    for q in probes {
        let hit = index.point_query(q, &mut c).into_iter().collect();
        out.push((ids(hit), c.take_stats()));
        let w = Rect::centered(q.x, q.y, 0.08, 0.05);
        let window = SpatialIndex::window_query(index, &w, &mut c);
        out.push((ids(window), c.take_stats()));
        let knn = SpatialIndex::knn_query(index, q, 25, &mut c);
        out.push((ids(knn), c.take_stats()));
        let range = SpatialIndex::range_query(index, q, 0.03, &mut c);
        out.push((ids(range), c.take_stats()));
    }
    let mut pairs = Vec::new();
    SpatialIndex::distance_join_probes(index, probes, 0.02, &mut c, &mut |l, r| {
        pairs.extend([l.id, r.id]);
    });
    out.push((pairs, c.take_stats()));
    out
}

#[test]
fn a_maintained_index_reloads_with_the_same_answers_and_keeps_its_bounds() {
    let pts = pseudo_random_points(2_500, 83);
    let mut index = Rsmi::build(pts.clone(), small_config());
    let mut live = pts;
    churn(&mut index, &mut live, 900, 41);
    index.rebuild_partial(&common::MaintenanceBudget {
        max_subtrees: usize::MAX,
        drift_threshold: 1.0,
    });
    churn(&mut index, &mut live, 300, 43);
    assert_eq!(index.bounds_violations(), 0);

    let mut w = SnapshotWriter::new("RSMI");
    snapshot::encode(&index, &mut w);
    let bytes = w.finish();
    let (_, mut r) = SnapshotReader::open(&bytes).unwrap();
    let mut loaded = Rsmi::read_snapshot(&mut r).unwrap();
    let probes: Vec<Point> = live
        .iter()
        .step_by(97)
        .copied()
        .chain(pseudo_random_points(20, 9))
        .collect();
    assert_eq!(
        answers_and_stats(&loaded, &probes),
        answers_and_stats(&index, &probes)
    );

    let extra = pseudo_random_points(500, 61);
    for (i, p) in extra.iter().enumerate() {
        let p = Point::with_id(p.x, p.y, 800_000 + i as u64);
        loaded.insert(p);
        live.push(p);
    }
    loaded.rebuild_partial(&common::MaintenanceBudget {
        max_subtrees: usize::MAX,
        drift_threshold: 1.0,
    });
    assert_eq!(loaded.bounds_violations(), 0);
    assert_eq!(loaded.len(), live.len());
    let mut c = cx();
    for p in &live {
        assert!(
            loaded
                .point_query(p, &mut c)
                .is_some_and(|f| f.same_location(p)),
            "live point {p:?} lost after the pass on the loaded copy"
        );
    }
}

#[test]
fn partial_passes_keep_a_churned_index_near_its_fresh_block_counts() {
    use datagen::queries::{self, ServeOp, WindowSpec};
    // 4 000 points under N = 400, B = 8: leaves of 30–50 bulk blocks,
    // the leaf shape of the default config at 200 k.
    let data = datagen::generate(datagen::Distribution::skewed_default(), 4_000, 42);
    let config = RsmiConfig {
        block_capacity: 8,
        partition_threshold: 400,
        ..RsmiConfig::default()
    };
    let mut index = Rsmi::build(data.clone(), config);
    let leaf_blocks: Vec<usize> = index
        .nodes
        .iter()
        .filter_map(|n| match n {
            Node::Leaf(leaf) => Some(leaf.n_blocks),
            Node::Internal(_) => None,
        })
        .collect();
    let in_wide_leaves: usize = leaf_blocks.iter().filter(|&&n| n >= 24).sum();
    assert!(leaf_blocks.len() >= 8, "{leaf_blocks:?}");
    assert!(
        10 * in_wide_leaves >= 9 * leaf_blocks.iter().sum::<usize>(),
        "{leaf_blocks:?}"
    );

    // The result sizes of the benchmark's 0.01 % windows at 200 k.
    let spec = WindowSpec {
        area_percent: 0.5,
        aspect_ratio: 1.0,
    };
    let windows = queries::window_queries(&data, spec, 300, 7);
    let knn = queries::knn_queries(&data, 300, 8);
    let blocks_per_query = |index: &Rsmi| {
        let mut c = cx();
        for q in &knn {
            index.knn_query_visit(q, 25, &mut c, &mut |_| {});
        }
        let knn_blocks = c.take_stats().blocks_touched as f64 / knn.len() as f64;
        for w in &windows {
            index.window_query_visit(w, &mut c, &mut |_| {});
        }
        let window_blocks = c.take_stats().blocks_touched as f64 / windows.len() as f64;
        (knn_blocks, window_blocks)
    };
    let (fresh_knn, fresh_window) = blocks_per_query(&index);
    let fresh_len = index.block_store().len();

    // Writes for 56 % of the points, half inserts near stored points and
    // half deletes, with a pass every 20 writes (1 024 at 200 k).
    let budget = common::MaintenanceBudget {
        max_subtrees: 64,
        drift_threshold: 1.0,
    };
    let (mut inserted, mut deleted) = (0usize, 0usize);
    let writes = queries::read_write_workload(&data, spec, 25, 2_240, 1.0, 5);
    for (i, op) in writes.iter().enumerate() {
        match op {
            ServeOp::Insert(p) => {
                index.insert(*p);
                inserted += 1;
            }
            ServeOp::Delete(p) => deleted += usize::from(index.delete(p)),
            ServeOp::Read(_) => unreachable!("a write-only stream"),
        }
        if i % 20 == 19 {
            index.rebuild_partial(&budget);
            assert_eq!(index.bounds_violations(), 0, "after write {i}");
        }
    }
    let (worn_knn, worn_window) = blocks_per_query(&index);
    assert!(
        worn_knn <= 1.5 * fresh_knn && worn_window <= 1.5 * fresh_window,
        "kNN {worn_knn:.2} blocks (fresh {fresh_knn:.2}), \
         window {worn_window:.2} (fresh {fresh_window:.2})"
    );
    // Each leaf may round its spill up to a whole block.
    let net = inserted.saturating_sub(deleted);
    let grown = index.block_store().len() - fresh_len;
    assert!(
        grown <= net.div_ceil(config.block_capacity) + leaf_blocks.len(),
        "the arena grew by {grown} blocks for {net} net inserted points"
    );
}

#[test]
fn maintenance_stats_track_churn_and_partial_rebuild_resets_them() {
    let pts = pseudo_random_points(1200, 21);
    let mut index = Rsmi::build(pts.clone(), small_config());
    let fresh = index.maintenance_stats().unwrap();
    assert!(fresh.subtrees >= 1);
    assert_eq!(fresh.ops_since_train, 0);
    assert_eq!(fresh.stale_subtrees, 0);
    assert_eq!(index.bounds_violations(), 0);

    let mut live = pts;
    churn(&mut index, &mut live, 400, 77);
    let dirty = index.maintenance_stats().unwrap();
    assert!(dirty.ops_since_train > 0, "churn left no drift");
    assert_eq!(index.bounds_violations(), 0, "churn broke the bounds");

    assert!(index.rebuild_partial(&common::MaintenanceBudget::default()) >= 1);
    let clean = index.maintenance_stats().unwrap();
    assert_eq!(clean.ops_since_train, 0);
    assert_eq!(clean.widened_below + clean.widened_above, 0);
    assert_eq!(clean.stale_subtrees, 0);
    assert_eq!(index.bounds_violations(), 0, "retrain broke the bounds");
    // Every live point is still found after the in-place retrains.
    let mut c = cx();
    for p in &live {
        assert_eq!(index.point_query(p, &mut c).map(|f| f.id), Some(p.id));
    }
    assert_eq!(index.len(), live.len());
}

#[test]
fn subtree_budget_defers_the_less_drifted_leaves() {
    let pts = pseudo_random_points(1500, 43);
    let mut index = Rsmi::build(pts.clone(), small_config());
    let mut live = pts;
    churn(&mut index, &mut live, 600, 91);
    let stale_before: usize = (0..index.nodes.len())
        .filter(|&id| matches!(index.nodes[id], Node::Leaf(_)))
        .filter(|&id| repair::leaf_drift(&index, id, index.maint[id].ops_since_train) > 0.0)
        .count();
    assert!(stale_before >= 2, "need at least two drifted leaves");
    let budget = common::MaintenanceBudget {
        max_subtrees: 1,
        drift_threshold: 0.0,
    };
    // One leaf a pass: the passes that repair anything number exactly
    // the drifted leaves, so each deferred the rest.
    let mut passes = 0;
    while index.rebuild_partial(&budget) > 0 {
        passes += 1;
        assert!(passes <= stale_before, "a repaired leaf came due again");
    }
    assert_eq!(passes, stale_before);
    assert_eq!(index.maintenance_stats().unwrap().ops_since_train, 0);
}

#[test]
fn widening_keeps_adversarial_inserts_findable_without_chain_growth() {
    // Fill one leaf's predicted chain, then keep inserting into the same
    // spot: the index must widen bounds onto free bulk slots (created by
    // deletes elsewhere in the leaf) rather than lose the points.
    let pts = grid_points(30);
    let mut index = Rsmi::build(pts.clone(), small_config());
    let anchor = pts[450];
    // Free slots across the anchor's leaf.
    let mut live: Vec<Point> = pts.clone();
    for p in pts.iter().skip(440).take(20) {
        assert!(index.delete(p));
        live.retain(|q| !(q.same_location(p) && q.id == p.id));
    }
    let mut c = cx();
    for i in 0..40u64 {
        let p = Point::with_id(
            anchor.x + (i as f64) * 1e-6,
            anchor.y - (i as f64) * 1e-6,
            600_000 + i,
        );
        index.insert(p);
        live.push(p);
    }
    assert_eq!(index.bounds_violations(), 0);
    for p in &live {
        assert_eq!(index.point_query(p, &mut c).map(|f| f.id), Some(p.id));
    }
    let stats = index.maintenance_stats().unwrap();
    // Whether widening was needed depends on where predictions landed,
    // but the caps must hold either way.
    assert!(stats.widened_below + stats.widened_above <= 32 * stats.subtrees as u64);
    // A partial rebuild reclaims all widening and stays sound.
    index.rebuild_partial(&common::MaintenanceBudget::default());
    let after = index.maintenance_stats().unwrap();
    assert_eq!(after.widened_below + after.widened_above, 0);
    assert_eq!(index.bounds_violations(), 0);
    for p in &live {
        assert!(index.point_query(p, &mut c).is_some());
    }
}

#[test]
fn a_reused_slot_goes_to_the_free_block_whose_mbr_grows_least() {
    let pts = pseudo_random_points(1_500, 37);
    let mut index = Rsmi::build(pts.clone(), small_config());
    let mut home = vec![0; pts.len()];
    for (id, block) in index.store.iter() {
        for p in block.iter_points() {
            home[p.id as usize] = id;
        }
    }
    // A stored point `a` whose predicted block is full and whose home
    // block `near` is another block of the predicted range, plus a
    // lower-numbered bulk block `far` of that range whose MBR misses
    // `a`.  No block of the leaf with room within reach holds `a`'s
    // location in its MBR.
    let found = pts.iter().find_map(|a| {
        let leaf = index.leaf(query::descend(&index, a.x, a.y, &mut cx())?);
        let predicted = leaf.global_block(leaf.model.predict_xy(a.x, a.y));
        let (lo, hi) = leaf.predicted_range(a.x, a.y);
        let near = home[a.id as usize];
        let bulk = leaf.first_block..leaf.first_block + leaf.n_blocks;
        let cap = WIDEN_CAP_PER_INSERT as usize;
        let reach = lo.saturating_sub(cap)..=hi + cap;
        let free_slot_around_a = bulk.clone().any(|b| {
            let block = index.store.block(b);
            reach.contains(&b) && !block.is_full() && block.mbr().contains(a)
        });
        if near == predicted
            || !(lo..=hi).contains(&near)
            || !index.store.block(predicted).is_full()
            || free_slot_around_a
        {
            return None;
        }
        let far = (lo..near).find(|&b| {
            b != predicted && bulk.contains(&b) && !index.store.block(b).mbr().contains(a)
        })?;
        Some((*a, near, far))
    });
    let (a, near, far) = found.expect("no leaf offers the two free slots");
    // Free one slot in each, keeping `a` in `near`.
    for block in [near, far] {
        let victim = index
            .store
            .block(block)
            .iter_points()
            .find(|p| p.id != a.id)
            .unwrap();
        assert!(index.delete(&victim));
    }
    let far_mbr = index.store.block(far).mbr();
    let copy = Point::with_id(a.x, a.y, 900_000);
    index.insert(copy);
    assert!(index.store.block(near).is_full(), "the copy missed `near`");
    assert!(!index.store.block(far).is_full(), "the copy went to `far`");
    assert_eq!(index.store.block(far).mbr(), far_mbr);
    assert_eq!(index.bounds_violations(), 0);
    assert_eq!(index.maintenance_stats().unwrap().widened_below, 0);
    assert_eq!(index.maintenance_stats().unwrap().widened_above, 0);
}

#[test]
fn partial_rebuild_is_deterministic_across_clones() {
    let pts = pseudo_random_points(1000, 57);
    let mut index = Rsmi::build(pts.clone(), small_config());
    let mut live = pts;
    churn(&mut index, &mut live, 300, 13);
    let mut a = index.clone();
    let mut b = index;
    let oa = a.rebuild_partial(&common::MaintenanceBudget::default());
    let ob = b.rebuild_partial(&common::MaintenanceBudget::default());
    assert_eq!(oa, ob);
    assert_eq!(a.maintenance_stats(), b.maintenance_stats());
    let mut c = cx();
    for q in live.iter().step_by(7) {
        assert_eq!(
            a.point_query(q, &mut c).map(|p| p.id),
            b.point_query(q, &mut c).map(|p| p.id)
        );
    }
    let (ea, eb) = (a.model_error_bounds(), b.model_error_bounds());
    assert_eq!(ea, eb);
}

#[test]
fn snapshot_roundtrips_maintenance_state() {
    let pts = pseudo_random_points(900, 67);
    let mut index = Rsmi::build(pts.clone(), small_config());
    assert_eq!(index.bounds_violations(), 0);
    let mut live = pts;
    churn(&mut index, &mut live, 250, 29);
    let before = index.maintenance_stats();
    assert!(before.unwrap().ops_since_train > 0);
    let mut w = SnapshotWriter::new("RSMI");
    snapshot::encode(&index, &mut w);
    let bytes = w.finish();
    let (_, mut r) = SnapshotReader::open(&bytes).unwrap();
    let restored = Rsmi::read_snapshot(&mut r).unwrap();
    // The stored bounds are sound for the `predict` that loads them.
    assert_eq!(restored.bounds_violations(), 0);
    assert_eq!(restored.maintenance_stats(), before);
    assert_eq!(restored.len(), index.len());
    let mut c = cx();
    for q in live.iter().step_by(11) {
        assert_eq!(
            restored.point_query(q, &mut c).map(|p| p.id),
            index.point_query(q, &mut c).map(|p| p.id)
        );
    }
}

#[test]
fn exact_variant_delegates_maintenance_to_the_inner_index() {
    let pts = pseudo_random_points(800, 71);
    let mut exact = Rsmi::build(pts.clone(), small_config()).into_exact();
    for i in 0..120u64 {
        SpatialIndex::insert(
            &mut exact,
            Point::with_id(0.3 + 1e-5 * i as f64, 0.7, 700_000 + i),
        );
    }
    let stats = SpatialIndex::maintenance_stats(&exact).unwrap();
    assert_eq!(stats.ops_since_train, 120);
    let clone = SpatialIndex::clone_index(&exact).expect("RSMIa clones");
    assert_eq!(clone.len(), exact.len());
    assert!(SpatialIndex::rebuild_partial(&mut exact, &common::MaintenanceBudget::default()) >= 1);
    assert_eq!(
        SpatialIndex::maintenance_stats(&exact)
            .unwrap()
            .ops_since_train,
        0
    );
    // The exact (MBR-driven) query paths are untouched by retraining.
    let mut c = cx();
    let w = Rect::new(0.25, 0.6, 0.45, 0.8);
    let truth = {
        let mut all = pts.clone();
        all.extend((0..120u64).map(|i| Point::with_id(0.3 + 1e-5 * i as f64, 0.7, 700_000 + i)));
        let mut ids: Vec<u64> = brute_force::window_query(&all, &w)
            .iter()
            .map(|p| p.id)
            .collect();
        ids.sort_unstable();
        ids
    };
    let mut got: Vec<u64> = SpatialIndex::window_query(&exact, &w, &mut c)
        .iter()
        .map(|p| p.id)
        .collect();
    got.sort_unstable();
    assert_eq!(got, truth);
}
