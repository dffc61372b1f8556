//! Snapshot **compatibility smoke**: fixture snapshot bytes checked into
//! `tests/fixtures/` must keep loading and serving every pre-existing query
//! type unchanged.  This guards trait extensions and storage rewrites
//! against accidental format or behaviour drift: a loaded old snapshot must
//! answer point/window/kNN queries — and their statistics — exactly like a
//! deterministic fresh build of the same parameters.
//!
//! The committed fixtures are in today's format (SoA lane section
//! `0x5302`) and are held byte-identical to what today's writer produces.
//!
//! The fixtures deliberately use the two model-free families (Grid, HRR),
//! whose builds are bit-deterministic across platforms.  Regenerate them
//! with `cargo test --test snapshot_compat -- --ignored` after an
//! *intentional* format change.

use bench::{replay_workload, ReplaySpec};
use common::{MaintenanceBudget, QueryContext};
use datagen::{generate, Distribution};
use registry::{
    build_index, load_index_bytes, serve_snapshot_bytes, snapshot_bytes, IndexConfig, IndexKind,
    ServerConfig,
};
use server::WriteOp;
use std::path::PathBuf;

/// The fixture set: file name, kind, and the deterministic data-set
/// parameters it was built from.
const FIXTURES: &[(&str, IndexKind, usize, u64)] = &[
    ("grid_300_seed71.snapshot", IndexKind::Grid, 300, 71),
    ("hrr_300_seed71.snapshot", IndexKind::Hrr, 300, 71),
];

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn fixture_cfg() -> IndexConfig {
    IndexConfig::fast()
}

fn replay_spec() -> ReplaySpec {
    ReplaySpec {
        point_queries: 200,
        window_queries: 40,
        knn_queries: 40,
        k: 10,
    }
}

fn assert_fixture_serves_unchanged(name: &str, kind: IndexKind, n: usize, seed: u64) {
    let path = fixture_path(name);
    let bytes = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "fixture {} unreadable ({e}) — regenerate with `cargo test --test \
             snapshot_compat -- --ignored`",
            path.display()
        )
    });
    let loaded =
        load_index_bytes(&bytes).unwrap_or_else(|e| panic!("fixture {name} no longer loads: {e}"));
    assert_eq!(loaded.name(), kind.name(), "fixture {name} kind drifted");

    let data = generate(Distribution::skewed_default(), n, seed);
    assert_eq!(
        loaded.len(),
        data.len(),
        "fixture {name} point count drifted"
    );
    let fresh = build_index(kind, &data, &fixture_cfg());

    // Every pre-existing query type — answers AND statistics — must be
    // byte-identical to the deterministic fresh build.
    let from_fixture = replay_workload(loaded.as_ref(), &data, &replay_spec());
    let from_build = replay_workload(fresh.as_ref(), &data, &replay_spec());
    assert!(
        from_fixture.matches(&from_build),
        "fixture {name} diverged from a fresh build — snapshot behaviour drift"
    );

    // Query classes added after the fixtures were frozen need no serialized
    // state: they work on the loaded old snapshot too, exactly.
    let mut cx = QueryContext::new();
    let center = data[7];
    let mut got: Vec<u64> = loaded
        .range_query(&center, 0.05, &mut cx)
        .iter()
        .map(|p| p.id)
        .collect();
    let mut truth: Vec<u64> = common::brute_force::range_query(&data, &center, 0.05)
        .iter()
        .map(|p| p.id)
        .collect();
    got.sort_unstable();
    truth.sort_unstable();
    assert_eq!(got, truth, "fixture {name} range answer differs");
}

#[test]
fn current_snapshots_still_serve_all_query_types_unchanged() {
    for &(name, kind, n, seed) in FIXTURES {
        assert_fixture_serves_unchanged(name, kind, n, seed);
    }
}

/// The fixture bytes must stay byte-identical to what today's writer
/// produces for the same build — if this fails, the snapshot format (or a
/// build path) changed and the change must be intentional and versioned.
#[test]
fn todays_writer_still_produces_the_fixture_bytes() {
    for &(name, kind, n, seed) in FIXTURES {
        let path = fixture_path(name);
        let committed = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("fixture {} unreadable ({e})", path.display()));
        let data = generate(Distribution::skewed_default(), n, seed);
        let index = build_index(kind, &data, &fixture_cfg());
        let now = snapshot_bytes(index.as_ref()).expect("serialise");
        assert_eq!(
            committed, now,
            "fixture {name}: snapshot bytes drifted — format or build change detected"
        );
    }
}

/// Fixtures predate the incremental-maintenance layer: loading them must
/// leave maintenance state at its sane defaults — the model-free kinds
/// report no maintenance stats and offer no clone, a partial-rebuild
/// request is answered by a (correct) full rebuild that maintains no
/// subtree, and a policy-driven server serves them with full compaction
/// passes.
#[test]
fn fixtures_default_maintenance_state_sanely() {
    for &(name, kind, n, seed) in FIXTURES {
        let bytes = std::fs::read(fixture_path(name)).expect("read fixture");
        let mut loaded = load_index_bytes(&bytes).expect("load fixture");
        assert!(
            loaded.maintenance_stats().is_none(),
            "fixture {name}: a model-free kind grew maintenance stats"
        );
        assert!(
            loaded.clone_index().is_none(),
            "fixture {name}: a model-free kind offers a partial pass"
        );
        assert_eq!(loaded.rebuild_partial(&MaintenanceBudget::default()), 0);
        let data = generate(Distribution::skewed_default(), n, seed);
        assert_eq!(
            loaded.len(),
            data.len(),
            "fixture {name}: fallback lost points"
        );

        // Served under an incremental policy, the maintenance pass must
        // fall back to a full rebuild — counted as such — and answers
        // must stay correct.
        let server = serve_snapshot_bytes(
            &bytes,
            &fixture_cfg(),
            ServerConfig::default().with_compact_threshold(usize::MAX),
        )
        .unwrap_or_else(|e| panic!("fixture {name} no longer serves: {e}"));
        let extra = geom::Point::with_id(0.123, 0.789, 900_000 + seed);
        server.apply(WriteOp::Insert(extra));
        server.apply(WriteOp::Delete(data[3]));
        assert!(server.maintain_now(), "fixture {name}: nothing folded");
        let stats = server.stats();
        assert_eq!(stats.compactions, 1);
        assert_eq!(
            stats.partial_compactions,
            0,
            "fixture {name} ({}): partial pass ran without maintenance support",
            kind.name()
        );
        let mut cx = QueryContext::new();
        let snap = server.snapshot();
        assert_eq!(
            snap.point_query(&extra, &mut cx).map(|p| p.id),
            Some(extra.id)
        );
        assert_eq!(snap.point_query(&data[3], &mut cx), None);
    }
}

/// Regenerates the committed fixtures (run explicitly after an intentional
/// format change): `cargo test --test snapshot_compat -- --ignored`.
#[test]
#[ignore = "writes the committed fixtures; run only after an intentional format change"]
fn regenerate_fixtures() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::create_dir_all(&dir).expect("create fixtures dir");
    for &(name, kind, n, seed) in FIXTURES {
        let data = generate(Distribution::skewed_default(), n, seed);
        let index = build_index(kind, &data, &fixture_cfg());
        let bytes = snapshot_bytes(index.as_ref()).expect("serialise");
        std::fs::write(dir.join(name), bytes).expect("write fixture");
    }
}
