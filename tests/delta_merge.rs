//! How a read merges the delta overlay, case by case: the kNN shortfall
//! rule (ask the base for `k`, widen only when masked neighbours left fewer
//! than `k` live ones), the `x`-slab the insert union scans, and the edges
//! of both — ties at the k-th distance, inserts exactly on a slab edge,
//! negative coordinates and the two zeros.
//!
//! Every `exact_knn()` kind is held to the answer of
//! [`common::brute_force`] over the live set, id for id and in order; the
//! learned kinds to what the server owns (every result live, closest first,
//! `min(k, live)` of them).  Background compaction is off throughout, so
//! the delta is exactly what each case wrote.

use common::{brute_force, QueryContext, SpatialIndex};
use datagen::{generate, Distribution};
use geom::{Point, Rect};
use registry::{build_index, serve_index, IndexConfig, IndexKind, ServerConfig, SpatialServer};
use std::ops::ControlFlow::{Break, Continue};

/// Ids of inserted points start here, far above any data id.
const FRESH: u64 = 1_000_000;

fn cfg() -> IndexConfig {
    IndexConfig::fast().with_shards(3).with_seed(7)
}

fn serve(kind: IndexKind, data: &[Point]) -> SpatialServer {
    serve_index(
        kind,
        data,
        &cfg(),
        ServerConfig::default().with_compact_threshold(usize::MAX),
    )
}

fn exact_kinds() -> Vec<IndexKind> {
    IndexKind::all_with_sharded()
        .into_iter()
        .filter(IndexKind::exact_knn)
        .collect()
}

fn learned_kinds() -> Vec<IndexKind> {
    IndexKind::all_with_sharded()
        .into_iter()
        .filter(|k| !k.exact_knn())
        .collect()
}

fn ids(points: &[Point]) -> Vec<u64> {
    points.iter().map(|p| p.id).collect()
}

fn sorted_ids(points: &[Point]) -> Vec<u64> {
    let mut v = ids(points);
    v.sort_unstable();
    v
}

fn delete(server: &SpatialServer, oracle: &mut Vec<Point>, victim: &Point) {
    let before = oracle.len();
    oracle.retain(|x| !(x.same_location(victim) && x.id == victim.id));
    assert_eq!(server.delete(victim).0, oracle.len() != before);
}

fn insert(server: &SpatialServer, oracle: &mut Vec<Point>, p: Point) {
    server.insert(p);
    oracle.push(p);
}

/// The server's kNN equals brute force over the live set, in order.
fn assert_knn(kind: IndexKind, server: &SpatialServer, oracle: &[Point], q: &Point, k: usize) {
    let mut cx = QueryContext::new();
    assert_eq!(
        ids(&server.knn_query(q, k, &mut cx)),
        ids(&brute_force::knn_query(oracle, q, k)),
        "{}: kNN diverged at {q:?}, k = {k}",
        kind.name()
    );
}

/// Uniform points with a disc of radius `hole` around `q` left empty, so a
/// case can place every near neighbour by hand.
fn background(q: &Point, hole: f64, seed: u64) -> Vec<Point> {
    generate(Distribution::Uniform, 400, seed)
        .into_iter()
        .filter(|p| p.dist(q) > hole)
        .collect()
}

#[test]
fn deleting_the_nearest_base_points_forces_widening_rounds() {
    let data = generate(Distribution::skewed_default(), 900, 11);
    let q = data[17];
    for kind in exact_kinds() {
        let server = serve(kind, &data);
        let mut oracle = data.clone();
        let k = 6;
        // Round by round: with the 3k nearest gone, asking for k, then 2k,
        // then 3k yields nothing live; only the fourth request does.
        for batch in 1..=3 {
            for victim in brute_force::knn_query(&oracle, &q, k) {
                delete(&server, &mut oracle, &victim);
            }
            assert_eq!(server.stats().delta_ops, batch * k);
            assert_knn(kind, &server, &oracle, &q, k);
            assert_knn(kind, &server, &oracle, &q, 1);
            assert_knn(kind, &server, &oracle, &q, 40);
        }
        // An insert among the deleted ones is the new nearest.
        insert(&server, &mut oracle, Point::with_id(q.x, q.y, FRESH));
        assert_knn(kind, &server, &oracle, &q, k);
    }
}

#[test]
fn far_deletes_ask_the_base_once() {
    let data = generate(Distribution::skewed_default(), 2_000, 13);
    let q = data[5];
    let k = 5;
    for kind in exact_kinds() {
        let server = serve(kind, &data);
        let mut oracle = data.clone();
        let mut by_distance = brute_force::knn_query(&data, &q, data.len());
        for victim in by_distance.split_off(data.len() - 300) {
            delete(&server, &mut oracle, &victim);
        }
        let mut cx = QueryContext::new();
        assert_eq!(
            ids(&server.knn_query(&q, k, &mut cx)),
            ids(&brute_force::knn_query(&oracle, &q, k)),
            "{}",
            kind.name()
        );
        // None of the 300 masked points is among the k nearest, so the base
        // is asked for k neighbours, once: the blocks read are the bare
        // base's for the same question.
        let bare = build_index(kind, &data, &cfg());
        let mut bare_cx = QueryContext::new();
        bare.knn_query(&q, k, &mut bare_cx);
        assert_eq!(
            cx.stats.blocks_touched,
            bare_cx.stats.blocks_touched,
            "{}: a delta of far deletes made the base read more blocks",
            kind.name()
        );
    }
}

#[test]
fn bases_and_live_sets_smaller_than_k() {
    let q = Point::new(0.4, 0.6);
    for kind in exact_kinds() {
        // A base of three points, asked for ten.
        let tiny = [
            Point::with_id(0.1, 0.1, 1),
            Point::with_id(0.5, 0.5, 2),
            Point::with_id(0.9, 0.2, 3),
        ];
        let server = serve(kind, &tiny);
        let mut oracle = tiny.to_vec();
        insert(&server, &mut oracle, Point::with_id(0.45, 0.62, FRESH));
        delete(&server, &mut oracle, &tiny[1]);
        insert(&server, &mut oracle, Point::with_id(0.8, 0.9, FRESH + 1));
        for k in [1, 3, 4, 10] {
            assert_knn(kind, &server, &oracle, &q, k);
        }

        // k far beyond the live set: everything live, in order.
        let data = generate(Distribution::skewed_default(), 200, 17);
        let server = serve(kind, &data);
        let mut oracle = data.clone();
        for victim in data.iter().step_by(10) {
            delete(&server, &mut oracle, victim);
        }
        for i in 0..10 {
            let p = Point::with_id(0.05 + 0.09 * i as f64, 0.33, FRESH + i);
            insert(&server, &mut oracle, p);
        }
        assert_eq!(server.len(), 190);
        assert_knn(kind, &server, &oracle, &q, 10_000);
        assert_knn(kind, &server, &oracle, &q, 190);
        assert_knn(kind, &server, &oracle, &q, 189);
    }
}

#[test]
fn a_key_folded_to_three_copies_then_deleted() {
    let data = generate(Distribution::skewed_default(), 300, 19);
    let twin = Point::with_id(0.41, 0.43, FRESH);
    // One location under two ids: deleting one must leave the other found.
    let shared = Point::with_id(0.57, 0.29, FRESH + 1);
    let kept = Point::with_id(0.57, 0.29, FRESH + 2);
    for kind in IndexKind::all_with_sharded() {
        let server = serve(kind, &data);
        let mut oracle = data.clone();
        for _ in 0..3 {
            insert(&server, &mut oracle, twin);
        }
        insert(&server, &mut oracle, shared);
        insert(&server, &mut oracle, kept);
        if kind.exact_knn() {
            assert_knn(kind, &server, &oracle, &twin, 4);
        }
        // Fold the three copies into the base; one delete masks all three.
        assert!(server.compact_now());
        assert_eq!(server.len(), data.len() + 5, "{}", kind.name());
        delete(&server, &mut oracle, &twin);
        assert_eq!(server.len(), data.len() + 2, "{}", kind.name());
        delete(&server, &mut oracle, &shared);
        let check = |stage: &str, oracle: &[Point]| {
            let mut cx = QueryContext::new();
            assert_eq!(server.len(), data.len() + 1, "{}: {stage}", kind.name());
            assert_eq!(
                server.point_query(&twin, &mut cx),
                None,
                "{}: {stage}",
                kind.name()
            );
            assert_eq!(
                server.point_query(&shared, &mut cx).map(|p| p.id),
                Some(kept.id),
                "{}: {stage}",
                kind.name()
            );
            if kind.exact_knn() {
                for k in [1, 2, 3, 4, 25] {
                    assert_knn(kind, &server, oracle, &twin, k);
                }
            }
        };
        check("in the delta", &oracle);
        assert!(server.maintain_now());
        check("after maintain_now", &oracle);
        // A second delete of the folded key removes nothing, and gives the
        // full pass something to fold.
        delete(&server, &mut oracle, &twin);
        assert!(server.compact_now());
        check("after compact_now", &oracle);
        every_copy_counted_fresh_churned_and_after_passes(kind, &data);
    }
}

/// Keys with one to three copies, one of them outside the unit square.
const KEYS: [(f64, f64, u64, usize); 4] = [
    (0.23, 0.61, FRESH + 10, 1),
    (0.71, 0.17, FRESH + 11, 2),
    (0.38, 0.84, FRESH + 12, 3),
    (-0.35, -0.72, FRESH + 13, 2),
];

/// One location under two ids, with one and two copies.
const SHARED: [(f64, f64, u64, usize); 2] =
    [(0.64, 0.52, FRESH + 20, 1), (0.64, 0.52, FRESH + 21, 2)];

/// Every stored copy of the [`KEYS`] and [`SHARED`] points, copy by copy.
fn key_copies() -> Vec<Point> {
    KEYS.iter()
        .chain(&SHARED)
        .flat_map(|&(x, y, id, n)| std::iter::repeat_n(Point::with_id(x, y, id), n))
        .collect()
}

/// Copies in `oracle` with `p`'s location and id.
fn copies_of(oracle: &[Point], p: &Point) -> usize {
    oracle
        .iter()
        .filter(|q| q.same_location(p) && q.id == p.id)
        .count()
}

/// The ids `oracle` holds at `q`'s location, deduplicated.
fn ids_at(oracle: &[Point], q: &Point) -> Vec<u64> {
    let mut v: Vec<u64> = oracle
        .iter()
        .filter(|p| p.same_location(q))
        .map(|p| p.id)
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// The server's point lookup at `q` against `Vec` semantics: `None` where
/// nothing lives, else a live copy at `q` — the one live id when the
/// location holds one.
fn assert_point_answer(what: &str, server: &SpatialServer, oracle: &[Point], q: &Point) {
    let hit = server.point_query(q, &mut QueryContext::new());
    let live = ids_at(oracle, q);
    match hit {
        None => assert!(live.is_empty(), "{what}: missed {q:?}, live ids {live:?}"),
        Some(p) => {
            assert!(p.same_location(q), "{what}: answered {p:?} for {q:?}");
            assert!(
                live.contains(&p.id),
                "{what}: answered dead {p:?}, live {live:?}"
            );
        }
    }
}

/// `index`'s copy probe at every key location visits exactly the copies
/// `oracle` holds there, and one that breaks stops after the first.
fn assert_probe_counts(what: &str, index: &dyn SpatialIndex, oracle: &[Point]) {
    for &(x, y, _, _) in KEYS.iter().chain(&SHARED) {
        let q = Point::new(x, y);
        let mut seen = Vec::new();
        index.point_query_visit(&q, &mut QueryContext::new(), &mut |p| {
            assert!(p.same_location(&q), "{what}: probe at {q:?} visited {p:?}");
            seen.push(p.id);
            Continue(())
        });
        seen.sort_unstable();
        let mut expected: Vec<u64> = oracle
            .iter()
            .filter(|p| p.same_location(&q))
            .map(|p| p.id)
            .collect();
        expected.sort_unstable();
        assert_eq!(seen, expected, "{what}: copies visited at {q:?}");
        let mut first = 0;
        index.point_query_visit(&q, &mut QueryContext::new(), &mut |_| {
            first += 1;
            Break(())
        });
        assert_eq!(first, expected.len().min(1), "{what}: a break at {q:?}");
    }
}

/// Deletes every key and the shared location's two ids — the base's first
/// copy there first — checking that each delete changes `len()` by the
/// brute-force copy count, that a second delete removes nothing, and that
/// point lookups follow the live set.
fn delete_every_key(kind: IndexKind, stage: &str, server: &SpatialServer, oracle: &mut Vec<Point>) {
    let what = format!("{}: {stage}", kind.name());
    assert_eq!(server.len(), oracle.len(), "{what}");
    assert_probe_counts(&what, server, oracle);
    let (sx, sy, _, _) = SHARED[0];
    let shared = Point::new(sx, sy);
    assert_point_answer(&what, server, oracle, &shared);
    let first = server
        .point_query(&shared, &mut QueryContext::new())
        .expect("the shared location is stored");
    let other = SHARED.iter().find(|s| s.2 != first.id).expect("two ids");
    let mut victims = vec![first, Point::with_id(other.0, other.1, other.2)];
    victims.extend(KEYS.iter().map(|&(x, y, id, _)| Point::with_id(x, y, id)));
    for victim in victims {
        let copies = copies_of(oracle, &victim);
        assert!(copies > 0, "{what}: {victim:?} is not stored");
        assert_point_answer(&what, server, oracle, &victim);
        let before = server.len();
        assert!(server.delete(&victim).0, "{what}: delete of {victim:?}");
        oracle.retain(|q| !(q.same_location(&victim) && q.id == victim.id));
        assert_eq!(
            before - server.len(),
            copies,
            "{what}: deleting {victim:?} removed a wrong number of copies"
        );
        assert!(
            !server.delete(&victim).0,
            "{what}: second delete of {victim:?}"
        );
        assert_eq!(server.len(), oracle.len(), "{what}");
        assert_point_answer(&what, server, oracle, &victim);
        assert_probe_counts(&what, server, oracle);
    }
}

/// The copy count a delete masks, at four stages: a fresh base, a base
/// churned in place by 30 % writes, and after a partial and a full pass.
fn every_copy_counted_fresh_churned_and_after_passes(kind: IndexKind, data: &[Point]) {
    let all_copies = key_copies();
    let mut fresh: Vec<Point> = data.to_vec();
    fresh.extend(&all_copies);
    let server = serve(kind, &fresh);
    let bare = build_index(kind, &fresh, &cfg());
    assert_probe_counts(&format!("{}: bare", kind.name()), bare.as_ref(), &fresh);
    // With the base's first copy at the shared location deleted, a lookup
    // there is one probe that scans on to the next live copy: it costs no
    // more than visiting every copy of the bare base, plus the one delta
    // entry at the location.
    let shared = Point::new(SHARED[0].0, SHARED[0].1);
    let mut every = QueryContext::new();
    bare.point_query_visit(&shared, &mut every, &mut |_| Continue(()));
    let first = server.point_query(&shared, &mut QueryContext::new());
    assert!(server.delete(&first.expect("stored")).0);
    let mut cx = QueryContext::new();
    assert!(server.point_query(&shared, &mut cx).is_some());
    let (got, bound) = (cx.stats, every.stats);
    assert!(
        got.blocks_touched <= bound.blocks_touched
            && got.nodes_visited <= bound.nodes_visited
            && got.candidates_scanned <= bound.candidates_scanned + 1,
        "{}: a masked first copy cost {got:?} against one probe's {bound:?}",
        kind.name()
    );
    drop(server);
    let server = serve(kind, &fresh);
    delete_every_key(kind, "fresh", &server, &mut fresh);
    drop(server);

    // Build over the data and each key's first copy; insert the other
    // copies among 30 % churn writes, in place, then serve the worn base.
    let keys = KEYS.iter().chain(&SHARED);
    let mut oracle: Vec<Point> = data.to_vec();
    oracle.extend(keys.clone().map(|&(x, y, id, _)| Point::with_id(x, y, id)));
    let mut base = build_index(kind, &oracle, &cfg());
    let churn = generate(Distribution::Uniform, data.len() * 3 / 20, 29);
    let mut later =
        keys.flat_map(|&(x, y, id, n)| std::iter::repeat_n(Point::with_id(x, y, id), n - 1));
    for (i, p) in churn.iter().enumerate() {
        let p = Point::with_id(p.x, p.y, FRESH + 100 + i as u64);
        base.insert(p);
        oracle.push(p);
        let victim = data[i * 2];
        assert!(base.delete(&victim), "{}: churn delete", kind.name());
        oracle.retain(|q| !(q.same_location(&victim) && q.id == victim.id));
        if let Some(copy) = later.next() {
            base.insert(copy);
            oracle.push(copy);
        }
    }
    assert!(later.next().is_none());
    assert_probe_counts(&format!("{}: churned", kind.name()), base.as_ref(), &oracle);
    let bytes = registry::snapshot_bytes(base.as_ref()).expect("snapshot");
    let server = registry::serve_snapshot_bytes(
        &bytes,
        &cfg(),
        ServerConfig::default().with_compact_threshold(usize::MAX),
    )
    .expect("warm start");
    delete_every_key(kind, "churned", &server, &mut oracle);

    // Both passes fold the keys back in from the delta.
    for (stage, pass) in [
        (
            "after a partial pass",
            SpatialServer::maintain_now as fn(&SpatialServer) -> bool,
        ),
        ("after a full pass", SpatialServer::compact_now),
    ] {
        for &p in &all_copies {
            insert(&server, &mut oracle, p);
        }
        // The server's probe visits the delta's inserted copies too.
        assert_probe_counts(&format!("{}: in the delta", kind.name()), &server, &oracle);
        assert!(pass(&server), "{}: {stage}", kind.name());
        delete_every_key(kind, stage, &server, &mut oracle);
    }
}

#[test]
fn ties_at_the_kth_distance_and_inserts_on_the_slab_edge() {
    let q = Point::new(0.5, 0.5);
    // Powers of two: the coordinates, the offsets and their squares are all
    // exact, so "at exactly the k-th distance" means bit-equal distances.
    let r = 0.125;
    for kind in exact_kinds() {
        // Four base points nearer than r, one base point at exactly r.
        let mut data = background(&q, 0.3, 23);
        for i in 1..=4u64 {
            data.push(Point::with_id(0.5, 0.5 + 0.015625 * i as f64, 10_000 + i));
        }
        data.push(Point::with_id(0.5, 0.5 + r, 20_000));
        let server = serve(kind, &data);
        let mut oracle = data.clone();

        // An insert nearer than every base point.
        insert(&server, &mut oracle, Point::with_id(0.5, 0.5, FRESH));
        assert_knn(kind, &server, &oracle, &q, 1);
        assert_knn(kind, &server, &oracle, &q, 6);
        delete(&server, &mut oracle, &Point::with_id(0.5, 0.5, FRESH));

        // Inserts at exactly the k-th distance with dx = +r and dx = -r —
        // the two ends of the slab — one with a lower id than the base
        // point at that distance (it wins the tie), one with a higher id.
        insert(&server, &mut oracle, Point::with_id(0.5 + r, 0.5, 15_000));
        insert(
            &server,
            &mut oracle,
            Point::with_id(0.5 - r, 0.5, FRESH + 1),
        );
        for k in 4..=8 {
            assert_knn(kind, &server, &oracle, &q, k);
        }
        let mut cx = QueryContext::new();
        let fifth = server.knn_query(&q, 5, &mut cx)[4];
        assert_eq!(fifth.id, 15_000, "{}: tie not broken by id", kind.name());

        // The same two inserts sit exactly on the circle of radius r and on
        // the window's x edges.
        assert_eq!(
            sorted_ids(&server.range_query(&q, r, &mut cx)),
            sorted_ids(&brute_force::range_query(&oracle, &q, r)),
            "{}",
            kind.name()
        );
        assert_eq!(server.range_query(&q, r, &mut cx).len(), 7);
        let w = Rect::new(0.5 - r, 0.4, 0.5 + r, 0.7);
        assert_eq!(
            sorted_ids(&server.window_query(&w, &mut cx)),
            sorted_ids(&brute_force::window_query(&oracle, &w)),
            "{}",
            kind.name()
        );
        assert_eq!(server.window_query(&w, &mut cx).len(), 7);

        // A radius whose square is not exact: whatever the distance
        // expression says, the slab must not disagree with it.
        for (i, radius) in [0.1, 0.3, 0.7].into_iter().enumerate() {
            let c = Point::new(0.2, 0.5);
            for dx in [radius, -radius] {
                let id = FRESH + 10 + 2 * i as u64 + u64::from(dx < 0.0);
                insert(&server, &mut oracle, Point::with_id(c.x + dx, c.y, id));
            }
            assert_eq!(
                sorted_ids(&server.range_query(&c, radius, &mut cx)),
                sorted_ids(&brute_force::range_query(&oracle, &c, radius)),
                "{}: r = {radius}",
                kind.name()
            );
        }
    }
}

#[test]
fn negative_coordinates_and_both_zeros() {
    // The base stays inside the unit square (with both zeros on its left
    // edge); the overlay carries the negative coordinates, whose bit
    // patterns sort after the positive ones and in reverse.
    let mut data = generate(Distribution::Uniform, 300, 29);
    data.push(Point::with_id(0.0, 0.70, 40_001));
    data.push(Point::with_id(-0.0, 0.72, 40_002));
    let inserts = [
        Point::with_id(-0.25, 0.3, FRESH),
        Point::with_id(-0.01, 0.31, FRESH + 1),
        Point::with_id(-1.5, -2.0, FRESH + 2),
        Point::with_id(-0.0, 0.71, FRESH + 3),
        Point::with_id(0.0, 0.69, FRESH + 4),
        Point::with_id(-1e-300, 0.705, FRESH + 5),
        Point::with_id(1e-300, 0.715, FRESH + 6),
        Point::with_id(0.02, 0.3, FRESH + 7),
        Point::with_id(3.5, 0.5, FRESH + 8),
    ];
    for kind in exact_kinds() {
        let server = serve(kind, &data);
        let mut oracle = data.clone();
        for p in inserts {
            insert(&server, &mut oracle, p);
        }
        // The two zeros are one location: a delete by either spelling hits.
        delete(&server, &mut oracle, &Point::with_id(0.0, 0.72, 40_002));
        delete(&server, &mut oracle, &Point::with_id(0.0, 0.71, FRESH + 3));
        let mut cx = QueryContext::new();
        assert_eq!(
            server
                .point_query(&Point::new(-0.0, 0.69), &mut cx)
                .map(|p| p.id),
            Some(FRESH + 4)
        );
        assert!(server
            .point_query(&Point::new(0.0, 0.71), &mut cx)
            .is_none());
        assert!(server
            .point_query(&Point::new(-0.0, 0.72), &mut cx)
            .is_none());

        for q in [
            Point::new(0.0, 0.3),
            Point::new(-0.0, 0.7),
            Point::new(0.0, 0.7),
            Point::new(0.01, 0.0),
        ] {
            for k in [1, 3, 8, 400] {
                assert_knn(kind, &server, &oracle, &q, k);
            }
            for radius in [0.0, 0.011, 0.26, 2.5] {
                assert_eq!(
                    sorted_ids(&server.range_query(&q, radius, &mut cx)),
                    sorted_ids(&brute_force::range_query(&oracle, &q, radius)),
                    "{}: range at {q:?}, r = {radius}",
                    kind.name()
                );
            }
        }
        for w in [
            Rect::new(-2.0, -3.0, 0.05, 1.0),
            Rect::new(-0.25, 0.3, -0.0, 0.71),
            Rect::new(0.0, 0.6, 0.0, 0.8),
            Rect::new(-1e-300, 0.0, 1e-300, 1.0),
            Rect::new(-0.3, 0.0, 4.0, 1.0),
        ] {
            assert_eq!(
                sorted_ids(&server.window_query(&w, &mut cx)),
                sorted_ids(&brute_force::window_query(&oracle, &w)),
                "{}: window {w:?}",
                kind.name()
            );
        }
    }
}

#[test]
fn learned_kinds_return_live_neighbours_closest_first() {
    let data = generate(Distribution::skewed_default(), 900, 31);
    for kind in learned_kinds() {
        let server = serve(kind, &data);
        let mut oracle = data.clone();
        let q = data[40];
        for victim in brute_force::knn_query(&data, &q, 12) {
            delete(&server, &mut oracle, &victim);
        }
        for victim in data.iter().skip(100).step_by(9) {
            delete(&server, &mut oracle, victim);
        }
        for i in 0..30 {
            let anchor = data[(i * 29) % data.len()];
            let p = Point::with_id(
                (anchor.x + 0.003).min(1.0),
                (anchor.y + 0.002).min(1.0),
                FRESH + i as u64,
            );
            insert(&server, &mut oracle, p);
        }
        let mut cx = QueryContext::new();
        for probe in [q, data[3], Point::new(0.5, 0.5), oracle[oracle.len() - 1]] {
            for k in [1, 10, 25, oracle.len() + 50] {
                let got = server.knn_query(&probe, k, &mut cx);
                assert_eq!(got.len(), k.min(oracle.len()), "{}: k = {k}", kind.name());
                for p in &got {
                    assert!(
                        oracle.iter().any(|x| x.same_location(p) && x.id == p.id),
                        "{}: dead or phantom neighbour {p:?}",
                        kind.name()
                    );
                }
                assert!(
                    got.windows(2)
                        .all(|w| (w[0].dist_sq(&probe), w[0].id) <= (w[1].dist_sq(&probe), w[1].id)),
                    "{}: not closest-first",
                    kind.name()
                );
            }
        }
    }
}
