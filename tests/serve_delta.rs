//! Delta-overlay correctness for the concurrent serving engine: a
//! property-style seeded loop interleaves inserts, deletes, and all three
//! query types against a live [`registry::SpatialServer`] for **every**
//! registered kind, and checks each answer against a naive `Vec`-scan
//! oracle — including across an epoch swap (`compact_now`), which folds the
//! delta into a freshly rebuilt base and must not change a single answer.
//!
//! Exact kinds are held to full answer equality (point ids, window sets,
//! kNN id order).  Approximate kinds (RSMI, ZM and their sharded forms)
//! answer window/kNN approximately by design, so they are held to the
//! delta-overlay invariants the server owns: point queries stay exact,
//! `len` stays exact, deleted points never reappear in any result, and no
//! result is ever a phantom (every returned point is live in the oracle).

use common::{brute_force, QueryContext, SpatialIndex};
use datagen::{generate, Distribution};
use geom::{Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use registry::{serve_index, IndexConfig, IndexKind, ServerConfig, SpatialServer};

/// Fresh ids for inserted points start here, far above any data id.
const FRESH_ID_BASE: u64 = 1_000_000;

fn oracle_delete(oracle: &mut Vec<Point>, victim: &Point) -> bool {
    let before = oracle.len();
    oracle.retain(|x| !(x.same_location(victim) && x.id == victim.id));
    oracle.len() != before
}

fn is_live(oracle: &[Point], p: &Point) -> bool {
    oracle.iter().any(|x| x.same_location(p) && x.id == p.id)
}

/// Full-answer verification block, run repeatedly during the loop and after
/// each epoch swap.
fn verify(
    kind: IndexKind,
    server: &SpatialServer,
    oracle: &[Point],
    deleted: &[Point],
    rng: &mut StdRng,
) {
    let mut cx = QueryContext::new();
    let label = kind.name();

    assert_eq!(server.len(), oracle.len(), "{label}: len diverged");

    // Point queries are exact for every kind: live points are found with
    // the oracle's first-match id, deleted locations answer like the oracle.
    for _ in 0..12 {
        let q = oracle[rng.gen_range(0..oracle.len())];
        let expect = brute_force::point_query(oracle, &q).map(|p| p.id);
        assert_eq!(
            server.point_query(&q, &mut cx).map(|p| p.id),
            expect,
            "{label}: live point lookup diverged at {q:?}"
        );
    }
    for victim in deleted.iter().rev().take(8) {
        let expect = brute_force::point_query(oracle, victim).map(|p| p.id);
        assert_eq!(
            server.point_query(victim, &mut cx).map(|p| p.id),
            expect,
            "{label}: deleted point lookup diverged at {victim:?}"
        );
    }

    // Window and kNN queries anchored at data-distribution locations.
    for _ in 0..6 {
        let c = oracle[rng.gen_range(0..oracle.len())];
        let w = Rect::centered(c.x.clamp(0.06, 0.94), c.y.clamp(0.06, 0.94), 0.12, 0.12);
        let got = server.window_query(&w, &mut cx);
        let truth = brute_force::window_query(oracle, &w);
        if kind.exact_windows() {
            let mut got_ids: Vec<u64> = got.iter().map(|p| p.id).collect();
            let mut truth_ids: Vec<u64> = truth.iter().map(|p| p.id).collect();
            got_ids.sort_unstable();
            truth_ids.sort_unstable();
            assert_eq!(got_ids, truth_ids, "{label}: window set diverged");
        } else {
            for p in &got {
                assert!(w.contains(p), "{label}: window result outside window");
                assert!(is_live(oracle, p), "{label}: phantom window result {p:?}");
            }
        }
        for victim in deleted.iter().rev().take(8) {
            assert!(
                !got.iter()
                    .any(|p| p.same_location(victim) && p.id == victim.id),
                "{label}: deleted point reappeared in a window"
            );
        }

        let k = 1 + rng.gen_range(0..20usize);
        let got = server.knn_query(&c, k, &mut cx);
        if kind.exact_knn() {
            let truth = brute_force::knn_query(oracle, &c, k);
            assert_eq!(
                got.iter().map(|p| p.id).collect::<Vec<_>>(),
                truth.iter().map(|p| p.id).collect::<Vec<_>>(),
                "{label}: kNN order diverged (k = {k})"
            );
        } else {
            for p in &got {
                assert!(is_live(oracle, p), "{label}: phantom kNN result {p:?}");
            }
        }
    }
}

/// The shared seeded loop: interleaved writes and queries with two explicit
/// epoch swaps in the middle, everything checked against the Vec oracle.
fn delta_overlay_body(kind: IndexKind, seed: u64) {
    let data = generate(Distribution::skewed_default(), 600, seed);
    let cfg = IndexConfig::fast().with_shards(3).with_seed(seed);
    let server = serve_index(
        kind,
        &data,
        &cfg,
        ServerConfig::default().with_compact_threshold(usize::MAX),
    );
    let mut oracle = data.clone();
    let mut deleted: Vec<Point> = Vec::new();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDE17A);
    let mut next_id = FRESH_ID_BASE;
    let mut expected_epoch = 0u64;

    for step in 0..240 {
        match rng.gen_range(0..100u64) {
            // Insert a fresh point following the data distribution.
            0..=34 => {
                let anchor = oracle[rng.gen_range(0..oracle.len())];
                let p = Point::with_id(
                    (anchor.x + 0.01 * (rng.gen::<f64>() - 0.5)).clamp(0.0, 1.0),
                    (anchor.y + 0.01 * (rng.gen::<f64>() - 0.5)).clamp(0.0, 1.0),
                    next_id,
                );
                next_id += 1;
                server.insert(p);
                oracle.push(p);
            }
            // Re-insert a previously deleted point (same location and id):
            // the delta must unmask it.
            35..=44 if !deleted.is_empty() => {
                let p = deleted.swap_remove(rng.gen_range(0..deleted.len()));
                server.insert(p);
                oracle.push(p);
            }
            // Delete a live point; the server must agree something went.
            45..=69 if oracle.len() > 50 => {
                let victim = oracle[rng.gen_range(0..oracle.len())];
                let (removed, _) = server.delete(&victim);
                assert_eq!(
                    removed,
                    oracle_delete(&mut oracle, &victim),
                    "{}: delete result diverged at step {step}",
                    kind.name()
                );
                deleted.push(victim);
            }
            // Delete something that does not exist; must be a no-op.
            70..=74 => {
                let ghost = Point::with_id(rng.gen(), rng.gen(), next_id + 777);
                let (removed, _) = server.delete(&ghost);
                assert!(!removed, "{}: deleted a ghost", kind.name());
            }
            // Otherwise: query burst.
            _ => {
                let mut cx = QueryContext::new();
                let q = oracle[rng.gen_range(0..oracle.len())];
                let expect = brute_force::point_query(&oracle, &q).map(|p| p.id);
                assert_eq!(
                    server.point_query(&q, &mut cx).map(|p| p.id),
                    expect,
                    "{}: point query diverged at step {step}",
                    kind.name()
                );
            }
        }

        // Two epoch swaps mid-stream: fold the delta into a rebuilt base
        // and prove no answer moves.
        if step == 90 || step == 180 {
            verify(kind, &server, &oracle, &deleted, &mut rng);
            let swapped = server.compact_now();
            let stats = server.stats();
            if swapped {
                expected_epoch += 1;
                assert_eq!(stats.delta_ops, 0, "{}: delta not drained", kind.name());
            }
            assert_eq!(stats.epoch, expected_epoch, "{}", kind.name());
            verify(kind, &server, &oracle, &deleted, &mut rng);
        }
    }
    verify(kind, &server, &oracle, &deleted, &mut rng);
}

macro_rules! delta_overlay_tests {
    ($($test_name:ident => $kind:expr, $seed:expr;)+) => {
        $(
            #[test]
            fn $test_name() {
                delta_overlay_body($kind, $seed);
            }
        )+
    };
}

use registry::BaseKind;

delta_overlay_tests! {
    delta_overlay_grid => IndexKind::Grid, 101;
    delta_overlay_hrr => IndexKind::Hrr, 102;
    delta_overlay_kdb => IndexKind::Kdb, 103;
    delta_overlay_rstar => IndexKind::RStar, 104;
    delta_overlay_rsmi => IndexKind::Rsmi, 105;
    delta_overlay_rsmia => IndexKind::Rsmia, 106;
    delta_overlay_zm => IndexKind::Zm, 107;
    delta_overlay_sharded_grid => BaseKind::Grid.sharded(), 201;
    delta_overlay_sharded_hrr => BaseKind::Hrr.sharded(), 202;
    delta_overlay_sharded_kdb => BaseKind::Kdb.sharded(), 203;
    delta_overlay_sharded_rstar => BaseKind::RStar.sharded(), 204;
    delta_overlay_sharded_rsmi => BaseKind::Rsmi.sharded(), 205;
    delta_overlay_sharded_rsmia => BaseKind::Rsmia.sharded(), 206;
    delta_overlay_sharded_zm => BaseKind::Zm.sharded(), 207;
}

/// The macro list above must cover the registry exactly: adding a kind to
/// the registry without extending the delta-overlay suite is an error.
#[test]
fn suite_covers_every_registered_kind() {
    assert_eq!(IndexKind::all_with_sharded().len(), 14);
}
