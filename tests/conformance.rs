//! Conformance suite for the uniform query API: one shared test body runs
//! point/window/kNN/insert/delete/stats invariants against **every**
//! [`IndexKind`] built through the dynamic registry, so all index families
//! are held to the same contract.

use common::{brute_force, MaintenanceBudget, QueryContext, SpatialIndex};
use datagen::{generate, queries, Distribution};
use geom::{Point, Rect};
use registry::{
    build_index, load_index_bytes, serve_index, snapshot_bytes, BaseKind, IndexConfig, IndexKind,
    ServerConfig,
};

fn cfg() -> IndexConfig {
    IndexConfig::fast()
}

fn windows(data: &[Point]) -> Vec<Rect> {
    queries::window_queries(data, queries::WindowSpec::default(), 20, 9)
}

/// The index is still the kind it was built as: it carries the kind's name,
/// and an exact family answers a fixed window and a kNN query over `points`
/// as brute force does.  Checked after every step that builds a new
/// structure or copies one, so a variant is not lost on the way.
fn assert_kind_kept(index: &dyn SpatialIndex, kind: IndexKind, points: &[Point], stage: &str) {
    let name = kind.name();
    assert_eq!(index.name(), name, "{name} renamed after {stage}");
    let mut cx = QueryContext::new();
    if kind.exact_windows() {
        let w = Rect::new(0.2, 0.0, 0.6, 0.2);
        let ids = |got: Vec<Point>| {
            let mut ids: Vec<u64> = got.iter().map(|p| p.id).collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(
            ids(index.window_query(&w, &mut cx)),
            ids(brute_force::window_query(points, &w)),
            "{name} window answer differs after {stage}"
        );
    }
    if kind.exact_knn() {
        let q = Point::new(0.4, 0.05);
        let got = index.knn_query(&q, 7, &mut cx);
        let truth = brute_force::knn_query(points, &q, 7);
        assert_eq!(got.len(), truth.len(), "{name} kNN count after {stage}");
        for (t, g) in truth.iter().zip(&got) {
            assert!(
                (t.dist(&q) - g.dist(&q)).abs() < 1e-12,
                "{name} kNN distance mismatch after {stage}"
            );
        }
    }
}

/// A registry snapshot round trip of `index`, checked by [`assert_kind_kept`].
fn assert_round_trip_keeps_kind(
    index: &dyn SpatialIndex,
    kind: IndexKind,
    points: &[Point],
    stage: &str,
) {
    let bytes = snapshot_bytes(index).expect("snapshot");
    let loaded = load_index_bytes(&bytes).expect("load");
    assert_kind_kept(loaded.as_ref(), kind, points, stage);
}

/// The shared conformance body: every invariant an index family must
/// satisfy, exact or approximate.
fn conformance_body(kind: IndexKind) {
    let data = generate(Distribution::skewed_default(), 1_500, 71);
    let mut index = build_index(kind, &data, &cfg());
    let mut cx = QueryContext::new();

    // Identity.
    assert_kind_kept(index.as_ref(), kind, &data, "a fresh build");
    assert_eq!(index.len(), data.len());
    assert!(!index.is_empty());
    assert!(index.size_bytes() > 0);
    assert!(index.height() >= 1);
    assert_eq!(index.model_count() > 0, kind.is_learned());

    // Point queries: exact for every family.
    for p in data.iter().step_by(13) {
        assert_eq!(
            index.point_query(p, &mut cx).map(|f| f.id),
            Some(p.id),
            "{} lost {p:?}",
            kind.name()
        );
    }
    assert!(
        index
            .point_query(&Point::new(0.123456, 0.654321), &mut cx)
            .is_none(),
        "{} invented a point",
        kind.name()
    );

    // Per-query stats: a point query must touch at least one block, and the
    // context must accumulate across queries.
    let before = cx.take_stats();
    assert!(
        before.blocks_touched > 0,
        "{} charged no blocks",
        kind.name()
    );
    let _ = index.point_query(&data[0], &mut cx);
    let one = cx.take_stats();
    assert!(one.total_accesses() > 0);
    let _ = index.point_query(&data[0], &mut cx);
    let _ = index.point_query(&data[0], &mut cx);
    assert_eq!(cx.take_stats().total_accesses(), 2 * one.total_accesses());

    // Window queries: never a false positive; exact families match brute
    // force; the visitor and Vec forms agree.
    for w in windows(&data) {
        let got = index.window_query(&w, &mut cx);
        for p in &got {
            assert!(
                w.contains(p),
                "{} returned a point outside the window",
                kind.name()
            );
        }
        let mut visited = Vec::new();
        index.window_query_visit(&w, &mut cx, &mut |p| visited.push(*p));
        assert_eq!(got, visited, "{} visitor/Vec mismatch", kind.name());
        if kind.exact_windows() {
            let mut truth: Vec<u64> = brute_force::window_query(&data, &w)
                .iter()
                .map(|p| p.id)
                .collect();
            let mut ids: Vec<u64> = got.iter().map(|p| p.id).collect();
            truth.sort_unstable();
            ids.sort_unstable();
            assert_eq!(ids, truth, "{} window answer differs", kind.name());
        }
    }

    // kNN queries: min(k, n) *distinct* results, sorted by distance; exact
    // families match brute-force distances.
    for q in [Point::new(0.3, 0.1), Point::new(0.9, 0.8)] {
        for k in [1usize, 10, 2_000] {
            let got = index.knn_query(&q, k, &mut cx);
            assert_eq!(got.len(), k.min(data.len()), "{} k={k}", kind.name());
            let mut ids: Vec<u64> = got.iter().map(|p| p.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(
                ids.len(),
                got.len(),
                "{} returned duplicate kNN results for k={k}",
                kind.name()
            );
            for pair in got.windows(2) {
                assert!(
                    pair[0].dist(&q) <= pair[1].dist(&q) + 1e-12,
                    "{} kNN order broken",
                    kind.name()
                );
            }
            if kind.exact_knn() {
                let truth = brute_force::knn_query(&data, &q, k);
                for (t, g) in truth.iter().zip(&got) {
                    assert!(
                        (t.dist(&q) - g.dist(&q)).abs() < 1e-12,
                        "{} kNN distance mismatch",
                        kind.name()
                    );
                }
            }
        }
    }

    // Distance-range queries: exact for EVERY family, including the ones
    // whose window/kNN answers are approximate; visitor and Vec forms
    // agree, degenerate radii yield nothing.
    let centers = queries::range_query_centers(&data, 10, 11);
    for c in &centers {
        let got = index.range_query(c, 0.03, &mut cx);
        let mut visited = Vec::new();
        index.range_query_visit(c, 0.03, &mut cx, &mut |p| visited.push(*p));
        assert_eq!(got, visited, "{} range visitor/Vec mismatch", kind.name());
        let mut ids: Vec<u64> = got.iter().map(|p| p.id).collect();
        let mut truth: Vec<u64> = brute_force::range_query(&data, c, 0.03)
            .iter()
            .map(|p| p.id)
            .collect();
        ids.sort_unstable();
        truth.sort_unstable();
        assert_eq!(ids, truth, "{} range answer differs", kind.name());
    }
    assert!(index.range_query(&data[0], -1.0, &mut cx).is_empty());
    assert!(index.range_query(&data[0], f64::NAN, &mut cx).is_empty());

    // Exact enumeration: for_each_point visits every indexed id exactly
    // once — the primitive the join's probe side is built on.
    let mut seen: Vec<u64> = Vec::with_capacity(index.len());
    index.for_each_point(&mut |p| seen.push(p.id));
    let mut expected: Vec<u64> = data.iter().map(|p| p.id).collect();
    seen.sort_unstable();
    expected.sort_unstable();
    assert_eq!(seen, expected, "{} enumeration differs", kind.name());

    // Distance joins match the nested-loop oracle, with no duplicate pairs.
    let inner = queries::join_points(&data, 120, 13);
    let other = brute_force::ScanIndex::new(inner.clone());
    let mut pairs: Vec<(u64, u64)> = index
        .distance_join(&other, 0.02, &mut cx)
        .iter()
        .map(|(p, q)| (p.id, q.id))
        .collect();
    let mut pair_truth: Vec<(u64, u64)> = brute_force::distance_join(&data, &inner, 0.02)
        .iter()
        .map(|(p, q)| (p.id, q.id))
        .collect();
    pairs.sort_unstable();
    pair_truth.sort_unstable();
    let mut deduped = pairs.clone();
    deduped.dedup();
    assert_eq!(
        deduped.len(),
        pairs.len(),
        "{} duplicate pairs",
        kind.name()
    );
    assert_eq!(pairs, pair_truth, "{} join answer differs", kind.name());

    // Insert: findable afterwards, count grows.
    let extra = Point::with_id(0.42421, 0.13137, 900_001);
    index.insert(extra);
    assert_eq!(index.len(), data.len() + 1, "{}", kind.name());
    assert_eq!(
        index.point_query(&extra, &mut cx).map(|f| f.id),
        Some(extra.id),
        "{} lost an inserted point",
        kind.name()
    );

    // Delete: removed, count shrinks, second delete fails.
    assert!(index.delete(&extra), "{}", kind.name());
    assert!(
        index.point_query(&extra, &mut cx).is_none(),
        "{}",
        kind.name()
    );
    assert!(!index.delete(&extra), "{}", kind.name());
    assert_eq!(index.len(), data.len(), "{}", kind.name());

    // Co-located duplicates are legal input, and delete-by-id must pick the
    // right one even when it is not the first at its location.
    let first = Point::with_id(0.3, 0.7, 1001);
    let second = Point::with_id(0.3, 0.7, 1002);
    index.insert(first);
    index.insert(second);
    assert!(
        index.delete(&second),
        "{} missed the second duplicate",
        kind.name()
    );
    assert_eq!(index.len(), data.len() + 1, "{}", kind.name());
    assert_eq!(
        index.point_query(&first, &mut cx).map(|f| f.id),
        Some(first.id),
        "{} deleted the wrong duplicate",
        kind.name()
    );
    assert!(index.delete(&first), "{}", kind.name());
    assert!(
        index.point_query(&first, &mut cx).is_none(),
        "{}",
        kind.name()
    );
    assert_eq!(index.len(), data.len(), "{}", kind.name());

    // Rebuild is at worst a no-op: content survives.
    index.rebuild();
    assert_eq!(
        index.len(),
        data.len(),
        "{} rebuild lost points",
        kind.name()
    );
    for p in data.iter().step_by(97) {
        assert!(
            index.point_query(p, &mut cx).is_some(),
            "{} rebuild lost {p:?}",
            kind.name()
        );
    }
    assert_kind_kept(index.as_ref(), kind, &data, "rebuild");

    // Copies, partial maintenance and snapshots keep the kind too.
    if let Some(copy) = index.clone_index() {
        assert_kind_kept(copy.as_ref(), kind, &data, "clone_index");
    }
    index.rebuild_partial(&MaintenanceBudget::default());
    assert_kind_kept(index.as_ref(), kind, &data, "rebuild_partial");
    assert_round_trip_keeps_kind(index.as_ref(), kind, &data, "a snapshot round trip");

    // Empty indices answer queries gracefully.
    let empty = build_index(kind, &[], &cfg());
    assert!(empty.is_empty());
    assert!(empty.point_query(&Point::new(0.5, 0.5), &mut cx).is_none());
    assert!(empty.window_query(&Rect::unit(), &mut cx).is_empty());
    assert!(empty
        .knn_query(&Point::new(0.5, 0.5), 3, &mut cx)
        .is_empty());
    assert!(empty
        .range_query(&Point::new(0.5, 0.5), 0.5, &mut cx)
        .is_empty());
    let probe_side = brute_force::ScanIndex::new(data[..5].to_vec());
    assert!(empty.distance_join(&probe_side, 0.5, &mut cx).is_empty());
    let mut none = 0;
    empty.for_each_point(&mut |_| none += 1);
    assert_eq!(none, 0);

    // An index built from no points grows by inserts into the same kind.
    let mut grown = empty;
    let seeded = &data[..200];
    for p in seeded {
        grown.insert(*p);
    }
    assert_kind_kept(grown.as_ref(), kind, seeded, "inserts into an empty build");
    assert_round_trip_keeps_kind(grown.as_ref(), kind, seeded, "inserts and a snapshot");
}

macro_rules! conformance_tests {
    ($($name:ident => $kind:expr),+ $(,)?) => {
        $(
            #[test]
            fn $name() {
                conformance_body($kind);
            }
        )+
    };
}

conformance_tests! {
    conformance_grid => IndexKind::Grid,
    conformance_hrr => IndexKind::Hrr,
    conformance_kdb => IndexKind::Kdb,
    conformance_rstar => IndexKind::RStar,
    conformance_rsmi => IndexKind::Rsmi,
    conformance_rsmia => IndexKind::Rsmia,
    conformance_zm => IndexKind::Zm,
    // The sharded serving engine composes with every leaf family through
    // the registry and is held to the exact same contract.
    conformance_sharded_grid => BaseKind::Grid.sharded(),
    conformance_sharded_hrr => BaseKind::Hrr.sharded(),
    conformance_sharded_kdb => BaseKind::Kdb.sharded(),
    conformance_sharded_rstar => BaseKind::RStar.sharded(),
    conformance_sharded_rsmi => BaseKind::Rsmi.sharded(),
    conformance_sharded_rsmia => BaseKind::Rsmia.sharded(),
    conformance_sharded_zm => BaseKind::Zm.sharded(),
}

/// A point's full value as a sortable key: multisets of results compare by
/// it, so a stored copy too few or too many shows.
fn value_key(p: &Point) -> (u64, u64, u64) {
    (p.id, p.x.to_bits(), p.y.to_bits())
}

fn multiset(points: &[Point]) -> Vec<(u64, u64, u64)> {
    let mut keys: Vec<_> = points.iter().map(value_key).collect();
    keys.sort_unstable();
    keys
}

/// Whether `got` holds no point value more often than `stored` does.
fn within_stored(got: &[Point], stored: &[Point]) -> bool {
    let (got, stored) = (multiset(got), multiset(stored));
    got.chunk_by(|a, b| a == b).all(|run| {
        let held =
            stored.partition_point(|k| k <= &run[0]) - stored.partition_point(|k| k < &run[0]);
        run.len() <= held
    })
}

/// The duplicate-heavy data: 900 skewed points (the first carries id 0),
/// five co-located points at `spot` under ids 5 001..=5 005, and `triple`
/// stored three times.  Returns the data, `spot` (its id, 0, is carried by
/// no copy at the spot) and `triple`.
fn duplicate_heavy_data() -> (Vec<Point>, Point, Point) {
    let spot = Point::new(0.4, 0.6);
    let mut data = generate(Distribution::skewed_default(), 900, 83);
    data.extend((0..5).map(|i| Point::with_id(spot.x, spot.y, 5_001 + i)));
    let triple = Point::with_id(0.4004, 0.6, 7_000);
    data.extend([triple; 3]);
    (data, spot, triple)
}

/// Every stored copy, as a multiset.
fn survivors(index: &dyn SpatialIndex) -> Vec<(u64, u64, u64)> {
    let mut held = Vec::with_capacity(index.len());
    index.for_each_point(&mut |p| held.push(*p));
    multiset(&held)
}

/// The delete phase on the duplicate-heavy data, held to the one delete
/// rule: `delete(p)` removes every stored copy whose `(x, y, id)` equals
/// `p`'s, and id 0 is an ordinary id.  It deletes one of the five spot ids,
/// the triple (all three copies), `spot` itself (id 0, which no copy there
/// carries) and `data[0]` (id 0, stored once).  After each delete the
/// returned bool, `len()` and the survivors must be the `Vec` oracle's;
/// a disagreement goes to `fail`.  Returns the oracle's survivors.
fn delete_phase(
    index: &mut dyn SpatialIndex,
    data: &[Point],
    fail: &mut dyn FnMut(String),
) -> Vec<Point> {
    let (spot, triple) = (data[900], data[905]);
    assert_eq!((spot.id, triple.id, data[0].id), (5_001, 7_000, 0));
    let mut oracle = data.to_vec();
    let victims = [
        Point::with_id(spot.x, spot.y, 5_003),
        triple,
        Point::new(spot.x, spot.y),
        data[0],
    ];
    for victim in victims {
        let before = oracle.len();
        oracle.retain(|p| !(p.same_location(&victim) && p.id == victim.id));
        let removed = index.delete(&victim);
        if removed != (oracle.len() < before) {
            fail(format!("delete {victim:?} returned {removed}"));
        }
        if index.len() != oracle.len() {
            let len = index.len();
            fail(format!(
                "after {victim:?}: len {len}, oracle {}",
                oracle.len()
            ));
        }
        if survivors(index) != multiset(&oracle) {
            fail(format!(
                "after {victim:?}: survivors differ from the oracle"
            ));
        }
    }
    oracle
}

/// The duplicate-heavy case (ROADMAP 6): real spatial data is full of exact
/// duplicates, and the answer to them is a multiset — a point stored `c`
/// times is `c` results, in every query class, on every kind.  Around one
/// spot the data holds five co-located points under different ids and one
/// `(x, y, id)` stored three times; kNN asks for fewer, exactly as many and
/// more than the copies, and window, range and join look at the same spot.
/// Then the kind runs the [`delete_phase`].  Failures are collected and
/// reported together, by kind and class.
#[test]
fn duplicate_heavy_data_answers_as_a_multiset_on_every_kind() {
    let (data, spot, triple) = duplicate_heavy_data();
    let n = data.len();
    let window = Rect::centered(spot.x, spot.y, 0.002, 0.002);
    let radius = 0.001;
    let probes = [spot, triple, Point::with_id(0.9, 0.9, 1)];

    let mut failures: Vec<String> = Vec::new();
    for kind in IndexKind::all_with_sharded() {
        let mut fail =
            |class: &str, what: String| failures.push(format!("{kind} / {class}: {what}"));
        let mut index = build_index(kind, &data, &cfg());
        let mut cx = QueryContext::new();
        if index.len() != n {
            fail("build", format!("holds {} of {n} points", index.len()));
        }

        // kNN at the triple and at the co-located spot; k below, at and
        // above each copy count, across both groups, and beyond n.
        for q in [triple, spot] {
            for k in [1usize, 2, 3, 4, 5, 6, 8, 9, n + 5] {
                let got = index.knn_query(&q, k, &mut cx);
                let truth = brute_force::knn_query(&data, &q, k);
                if kind.exact_knn() {
                    if let Some(i) = (0..truth.len()).find(|&i| got.get(i) != Some(&truth[i])) {
                        let (g, t) = (got.get(i), truth[i]);
                        fail(
                            "knn",
                            format!("k={k} at {q:?}: result {i} is {g:?}, oracle {t:?}"),
                        );
                    } else if got.len() != truth.len() {
                        fail("knn", format!("k={k} at {q:?}: {} results", got.len()));
                    }
                    continue;
                }
                if got.len() != k.min(n) {
                    fail("knn", format!("k={k} at {q:?}: {} results", got.len()));
                }
                if got.windows(2).any(|w| w[0].dist_sq(&q) > w[1].dist_sq(&q)) {
                    fail("knn", format!("k={k} at {q:?}: not closest first"));
                }
                if !within_stored(&got, &data) {
                    fail(
                        "knn",
                        format!("k={k} at {q:?}: a copy more often than stored"),
                    );
                }
            }
        }

        // Window: never more copies than stored; all of them when exact.
        let got = index.window_query(&window, &mut cx);
        let truth = brute_force::window_query(&data, &window);
        assert_eq!(truth.len(), 8, "the window holds both groups");
        if kind.exact_windows() && multiset(&got) != multiset(&truth) {
            fail("window", format!("{got:?} != {truth:?}"));
        }
        if got.iter().any(|p| !window.contains(p)) || !within_stored(&got, &data) {
            fail("window", format!("false positive or doubled copy: {got:?}"));
        }

        // Range and join are exact for every kind.
        let got = index.range_query(&spot, radius, &mut cx);
        let truth = brute_force::range_query(&data, &spot, radius);
        assert_eq!(truth.len(), 8, "the circle holds both groups");
        if multiset(&got) != multiset(&truth) {
            fail("range", format!("{got:?} != {truth:?}"));
        }
        let pair_keys = |pairs: &[(Point, Point)]| {
            let mut keys: Vec<_> = pairs.iter().map(|(p, q)| (value_key(p), q.id)).collect();
            keys.sort_unstable();
            keys
        };
        let other = brute_force::ScanIndex::new(probes.to_vec());
        let got = index.distance_join(&other, radius, &mut cx);
        let truth = brute_force::distance_join(&data, &probes, radius);
        assert_eq!(truth.len(), 16, "two probes see both groups");
        if pair_keys(&got) != pair_keys(&truth) {
            fail(
                "join",
                format!("{} pairs, oracle {}", got.len(), truth.len()),
            );
        }

        delete_phase(index.as_mut(), &data, &mut |what| fail("delete", what));
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The delete phase on the scan oracle and on a served index across one
/// partial and one full compaction pass: the survivors a pass folds are the
/// ones the overlay answered with before it.
#[test]
fn duplicate_heavy_deletes_agree_with_the_oracle_on_the_scan_and_the_server() {
    let (data, _, _) = duplicate_heavy_data();
    let mut failures: Vec<String> = Vec::new();
    let mut scan = brute_force::ScanIndex::new(data.clone());
    delete_phase(&mut scan, &data, &mut |what| {
        failures.push(format!("scan: {what}"))
    });
    for kind in [IndexKind::Rsmi, IndexKind::Rsmia] {
        for full in [false, true] {
            let pass = if full { "full" } else { "partial" };
            let scfg = ServerConfig::default().with_compact_threshold(usize::MAX);
            let mut server = serve_index(kind, &data, &cfg(), scfg);
            let mut fail =
                |what: String| failures.push(format!("{kind} server, {pass} pass: {what}"));
            let oracle = delete_phase(&mut server, &data, &mut fail);
            let swapped = if full {
                server.compact_now()
            } else {
                server.maintain_now()
            };
            assert!(swapped, "{kind}: the {pass} pass folded nothing");
            if !full && server.stats().partial_compactions != 1 {
                fail("an id-0 delete forced a full rebuild".into());
            }
            if server.len() != oracle.len() || survivors(&server) != multiset(&oracle) {
                fail(format!("the folded base holds {} points", server.len()));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn registry_covers_every_kind_exactly_once() {
    let all = IndexKind::all();
    assert_eq!(all.len(), 7);
    let everything = IndexKind::all_with_sharded();
    assert_eq!(everything.len(), 14);
    let names: std::collections::HashSet<&str> = everything.iter().map(IndexKind::name).collect();
    assert_eq!(names.len(), 14, "duplicate display names");
}

/// Compile-time assertion that no index type relies on interior mutability
/// for statistics: every concrete index and the boxed trait object are
/// `Send + Sync`.
#[test]
fn every_index_type_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync + ?Sized>() {}
    assert_send_sync::<baselines::GridFile>();
    assert_send_sync::<baselines::HilbertRTree>();
    assert_send_sync::<baselines::KdbTree>();
    assert_send_sync::<baselines::RStarTree>();
    assert_send_sync::<baselines::ZOrderModel>();
    assert_send_sync::<rsmi::Rsmi>();
    assert_send_sync::<engine::ShardedIndex>();
    assert_send_sync::<dyn SpatialIndex>();
    assert_send_sync::<Box<dyn SpatialIndex>>();
}

/// The redesign's point: one shared index, many threads, each with its own
/// per-query statistics.
#[test]
fn shared_index_serves_concurrent_queries() {
    let data = generate(Distribution::Uniform, 2_000, 5);
    let index = build_index(IndexKind::Rsmi, &data, &cfg());
    let index_ref: &dyn SpatialIndex = index.as_ref();
    std::thread::scope(|scope| {
        for chunk in data.chunks(500) {
            scope.spawn(move || {
                let mut cx = QueryContext::new();
                for p in chunk.iter().step_by(7) {
                    assert_eq!(index_ref.point_query(p, &mut cx).map(|f| f.id), Some(p.id));
                }
                assert!(cx.stats.blocks_touched > 0);
            });
        }
    });
}

/// Skewed points with a NaN x at some positions and a NaN y at others.
fn data_with_nans() -> (Vec<Point>, Vec<Point>) {
    let mut data = generate(Distribution::skewed_default(), 3_000, 29);
    for i in NAN_X {
        data[i].x = f64::NAN;
    }
    for i in NAN_Y {
        data[i].y = f64::NAN;
    }
    let finite = data
        .iter()
        .filter(|p| p.x.is_finite() && p.y.is_finite())
        .copied()
        .collect();
    (data, finite)
}

const NAN_X: [usize; 3] = [17, 1_400, 2_911];
const NAN_Y: [usize; 3] = [5, 1_023, 2_450];

/// Coordinates should be finite, and the wire refuses others; but a NaN
/// that reaches a bulk-load is stored and counted, and costs no finite
/// point its answers.
#[test]
fn a_nan_coordinate_does_not_panic_a_bulk_load() {
    let (data, finite) = data_with_nans();
    let unit = Rect::new(0.0, 0.0, 1.0, 1.0);
    let mut failures = Vec::new();
    for kind in IndexKind::all_with_sharded() {
        let checked = std::panic::catch_unwind(|| {
            let index = build_index(kind, &data, &cfg());
            let mut cx = QueryContext::new();
            assert_eq!(index.len(), data.len(), "len");
            for p in &finite {
                let found = index.point_query(p, &mut cx).map(|f| f.id);
                assert_eq!(found, Some(p.id), "lost {p:?}");
            }
            let got = index.window_query(&unit, &mut cx);
            assert_eq!(multiset(&got), multiset(&finite), "unit-square window");
        });
        if checked.is_err() {
            failures.push(kind.name());
        }
    }
    assert!(failures.is_empty(), "panicked: {failures:?}");
}

/// Uniform points in the unit square plus five outside it, on both sides
/// of every axis.
fn data_outside_the_unit_square() -> (Vec<Point>, Vec<Point>) {
    let mut data = generate(Distribution::Uniform, 2_000, 31);
    let outside = vec![
        Point::with_id(-5.0, 0.5, 900_001),
        Point::with_id(-5.0, 0.9, 900_002),
        Point::with_id(3.5, 0.5, 900_003),
        Point::with_id(0.5, -2.0, 900_004),
        Point::with_id(1.7, 1.9, 900_005),
    ];
    data.extend(&outside);
    (data, outside)
}

/// Points and queries outside the unit square get the oracle's answers:
/// point, range and join on every kind, window and kNN on the kinds whose
/// answers are exact.  Failures are collected and reported together.
#[test]
fn points_and_queries_outside_the_unit_square_match_the_oracle_on_every_kind() {
    let (data, outside) = data_outside_the_unit_square();
    let ids = |pts: &[Point]| {
        let mut ids: Vec<u64> = pts.iter().map(|p| p.id).collect();
        ids.sort_unstable();
        ids
    };
    let knn_queries = [
        Point::new(-5.0, 0.55),
        Point::new(3.0, 0.45),
        Point::new(0.5, -1.5),
        Point::new(1.2, 1.3),
        Point::new(-0.2, -0.2),
    ];
    let windows = [
        Rect::new(-6.0, 0.4, -4.0, 1.0),
        Rect::new(-1.0, 0.45, 4.0, 0.55),
        Rect::new(0.4, -3.0, 0.6, 0.1),
        Rect::new(0.9, 0.9, 2.0, 2.0),
    ];
    let ranges = [
        (Point::new(-5.0, 0.55), 0.3),
        (Point::new(3.4, 0.5), 0.5),
        (Point::new(0.5, -1.0), 1.05),
        (Point::new(1.6, 1.8), 0.2),
    ];
    let probes = [
        Point::with_id(-4.9, 0.6, 1),
        Point::with_id(-5.1, 0.8, 2),
        Point::with_id(3.6, 0.45, 3),
        Point::with_id(0.45, -1.8, 4),
        Point::with_id(1.6, 2.0, 5),
        Point::with_id(0.5, 0.5, 6),
    ];
    let join_radius = 0.3;

    // What an answer misses and adds against the oracle's.
    fn diff<T: Ord + Copy + std::fmt::Debug>(got: &[T], truth: &[T]) -> Option<String> {
        let missing: Vec<T> = truth.iter().filter(|t| !got.contains(t)).copied().collect();
        let extra: Vec<T> = got.iter().filter(|g| !truth.contains(g)).copied().collect();
        (got != truth).then(|| format!("missing {missing:?}, extra {extra:?}"))
    }

    let mut failures: Vec<String> = Vec::new();
    for kind in IndexKind::all_with_sharded() {
        let mut fail =
            |class: &str, what: String| failures.push(format!("{kind} / {class}: {what}"));
        let index = build_index(kind, &data, &cfg());
        let mut cx = QueryContext::new();

        for p in &outside {
            let found = index.point_query(p, &mut cx).map(|f| f.id);
            if found != Some(p.id) {
                fail("point", format!("{p:?} found as {found:?}"));
            }
        }
        for (c, r) in ranges {
            let got = ids(&index.range_query(&c, r, &mut cx));
            let truth = ids(&brute_force::range_query(&data, &c, r));
            if let Some(d) = diff(&got, &truth) {
                fail("range", format!("at {c:?} r {r}: {d}"));
            }
        }
        let other = brute_force::ScanIndex::new(probes.to_vec());
        let pairs = |pairs: &[(Point, Point)]| {
            let mut keys: Vec<(u64, u64)> = pairs.iter().map(|(p, q)| (p.id, q.id)).collect();
            keys.sort_unstable();
            keys
        };
        let got = pairs(&index.distance_join(&other, join_radius, &mut cx));
        let truth = pairs(&brute_force::distance_join(&data, &probes, join_radius));
        if let Some(d) = diff(&got, &truth) {
            fail("join", d);
        }
        if kind.exact_windows() {
            for w in &windows {
                let got = ids(&index.window_query(w, &mut cx));
                let truth = ids(&brute_force::window_query(&data, w));
                if let Some(d) = diff(&got, &truth) {
                    fail("window", format!("{w:?}: {d}"));
                }
            }
        }
        if kind.exact_knn() {
            for q in &knn_queries {
                for k in [1usize, 3, 10] {
                    let got = index.knn_query(q, k, &mut cx);
                    let truth = brute_force::knn_query(&data, q, k);
                    let same = got.len() == truth.len()
                        && got
                            .iter()
                            .zip(&truth)
                            .all(|(g, t)| (g.dist(q) - t.dist(q)).abs() < 1e-12);
                    if !same {
                        fail(
                            "knn",
                            format!("k={k} at {q:?}: {:?} != {:?}", ids(&got), ids(&truth)),
                        );
                    }
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
