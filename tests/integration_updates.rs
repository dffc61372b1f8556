//! Update-handling integration tests (§5 and §6.2.5): insertions and
//! deletions preserve queryability for every index family built through the
//! registry.

use common::{QueryContext, SpatialIndex};
use datagen::{generate, queries, Distribution};
use registry::{build_index, IndexConfig, IndexKind};

fn all_indices(data: &[geom::Point]) -> Vec<Box<dyn SpatialIndex>> {
    IndexKind::without_rsmia()
        .into_iter()
        .map(|kind| build_index(kind, data, &IndexConfig::fast()))
        .collect()
}

#[test]
fn inserted_points_are_findable_in_every_index() {
    let data = generate(Distribution::skewed_default(), 2_000, 3);
    let inserts = queries::insertion_points(&data, 400, 5);
    let mut cx = QueryContext::new();
    for mut index in all_indices(&data) {
        for p in &inserts {
            index.insert(*p);
        }
        assert_eq!(index.len(), 2_400, "{} count wrong", index.name());
        for p in &inserts {
            assert_eq!(
                index.point_query(p, &mut cx).map(|f| f.id),
                Some(p.id),
                "{} lost inserted point",
                index.name()
            );
        }
        // Pre-existing points must survive the insertions.
        for p in data.iter().step_by(37) {
            assert!(
                index.point_query(p, &mut cx).is_some(),
                "{} lost original point",
                index.name()
            );
        }
    }
}

#[test]
fn deletions_remove_points_in_every_index() {
    let data = generate(Distribution::Uniform, 1_500, 7);
    let mut cx = QueryContext::new();
    for mut index in all_indices(&data) {
        for p in data.iter().take(100) {
            assert!(index.delete(p), "{} failed to delete {:?}", index.name(), p);
        }
        assert_eq!(index.len(), 1_400, "{}", index.name());
        for p in data.iter().take(100) {
            assert!(
                index.point_query(p, &mut cx).is_none(),
                "{} still finds a deleted point",
                index.name()
            );
        }
        // Deleting a missing point reports false.
        assert!(!index.delete(&data[0]), "{}", index.name());
    }
}

#[test]
fn interleaved_updates_and_queries_stay_consistent() {
    let data = generate(Distribution::Normal, 2_000, 11);
    let inserts = queries::insertion_points(&data, 500, 13);
    let mut rsmi = build_index(IndexKind::Rsmi, &data, &IndexConfig::fast());
    for (i, p) in inserts.iter().enumerate() {
        rsmi.insert(*p);
        if i % 5 == 0 {
            // Delete an original point now and then.
            let victim = &data[i % data.len()];
            rsmi.delete(victim);
        }
    }
    // The structure still answers window queries without false positives.
    let windows = queries::window_queries(&data, queries::WindowSpec::default(), 30, 17);
    let mut cx = QueryContext::new();
    for w in &windows {
        rsmi.window_query_visit(w, &mut cx, &mut |p| {
            assert!(w.contains(p));
        });
    }
}

#[test]
fn rsmi_rebuild_after_heavy_insertion_restores_point_query_cost() {
    let data = generate(Distribution::skewed_default(), 4_000, 19);
    let mut index = build_index(IndexKind::Rsmi, &data, &IndexConfig::fast());
    let inserts = queries::insertion_points(&data, 2_000, 23);
    for p in &inserts {
        index.insert(*p);
    }

    let qs = queries::point_queries(&data, 500, 29);
    let mut cx = QueryContext::new();
    for q in &qs {
        let _ = index.point_query(q, &mut cx);
    }
    let accesses_before = cx.take_stats().total_accesses();

    index.rebuild();
    for q in &qs {
        let _ = index.point_query(q, &mut cx);
    }
    let accesses_after = cx.take_stats().total_accesses();
    assert!(
        accesses_after <= accesses_before,
        "rebuild should not increase point-query accesses ({accesses_before} -> {accesses_after})"
    );
    // Every point (original + inserted) is still present.
    for p in data.iter().step_by(41).chain(inserts.iter().step_by(41)) {
        assert!(index.point_query(p, &mut cx).is_some());
    }
}
