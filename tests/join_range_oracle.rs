//! Distance-range and distance-join oracle suite: for **all 14 registered
//! kinds**, `range_query` and `distance_join` answers must be identical to
//! the `ScanIndex` brute-force oracle on seeded uniform, clustered, and
//! hotspot data sets — including through a live server's delta overlay with
//! interleaved inserts and deletes, and across a compaction epoch swap.
//! For the exact kinds the per-query [`QueryStats`] must also be
//! deterministic: a rebuilt index replaying the same workload charges
//! byte-identical counters.
//!
//! Under `--release` each kind also runs the gate row: 4 000 skewed points
//! with the experiments harness's configuration, 100 range queries and a
//! join against a 1 000-point index of the same kind.

use common::brute_force::{self, ScanIndex};
use common::{QueryContext, QueryStats, SpatialIndex};
use datagen::{generate, queries, Distribution};
use geom::Point;
use registry::{build_index, serve_index, BaseKind, IndexConfig, IndexKind, ServerConfig};

/// One input row of the oracle body: a data set, the configuration its
/// index is built with, and the range and join workload run against it.
struct Row {
    label: &'static str,
    data: Vec<Point>,
    cfg: IndexConfig,
    centers: Vec<Point>,
    radii: &'static [f64],
    /// The join's other side, indexed with the kind under test.
    inner: Vec<Point>,
    join_radius: f64,
}

/// The three data shapes of the suite: uniform, clustered (truncated
/// normal), and hotspot (the paper's skewed family piles the mass onto one
/// edge, the serving-traffic hotspot shape).
fn small_rows() -> Vec<Row> {
    [
        ("uniform", generate(Distribution::Uniform, 1_200, 101)),
        ("clustered", generate(Distribution::Normal, 1_200, 103)),
        (
            "hotspot",
            generate(Distribution::skewed_default(), 1_200, 107),
        ),
    ]
    .into_iter()
    .map(|(label, data)| Row {
        label,
        cfg: IndexConfig::fast().with_shards(3),
        centers: queries::range_query_centers(&data, 12, 109),
        radii: &[0.0, 0.02, 0.08],
        inner: queries::join_points(&data, 200, 113),
        join_radius: 0.03,
        data,
    })
    .collect()
}

/// The gate row: 4 000 skewed points at seed 42, built as the experiments
/// harness builds (blocks of 100, partition threshold 5 000, 10 epochs,
/// 4 shards on 4 threads); 100 centers at r = 0.02 and a join at r = 0.02
/// against 1 000 points.
fn gate_row() -> Row {
    let data = generate(Distribution::skewed_default(), 4_000, 42);
    Row {
        label: "gate",
        cfg: IndexConfig::default()
            .with_partition_threshold(5_000)
            .with_epochs(10)
            .with_threads(4),
        centers: queries::range_query_centers(&data, 100, 23),
        radii: &[0.02],
        inner: queries::join_points(&data, 1_000, 29),
        join_radius: 0.02,
        data,
    }
}

fn sorted_ids(pts: &[Point]) -> Vec<u64> {
    let mut ids: Vec<u64> = pts.iter().map(|p| p.id).collect();
    ids.sort_unstable();
    ids
}

fn sorted_pairs(pairs: &[(Point, Point)]) -> Vec<(u64, u64)> {
    let mut keys: Vec<(u64, u64)> = pairs.iter().map(|(p, q)| (p.id, q.id)).collect();
    keys.sort_unstable();
    keys
}

/// Runs the row's range + join workload against one index, returning the
/// accumulated stats (for the determinism checks) after asserting every
/// answer equals the oracle's.
fn verify_against_oracle(
    kind: IndexKind,
    row: &Row,
    index: &dyn SpatialIndex,
    other: &dyn SpatialIndex,
) -> QueryStats {
    let label = row.label;
    let oracle = ScanIndex::new(row.data.clone());
    let mut cx = QueryContext::new();
    let mut oracle_cx = QueryContext::new();
    for &r in row.radii {
        for c in &row.centers {
            let got = index.range_query(c, r, &mut cx);
            let truth = oracle.range_query(c, r, &mut oracle_cx);
            assert_eq!(
                sorted_ids(&got),
                sorted_ids(&truth),
                "{} range answer differs from the oracle ({label}, r = {r})",
                kind.name()
            );
        }
    }
    let got = index.distance_join(other, row.join_radius, &mut cx);
    let truth = brute_force::distance_join(&row.data, &row.inner, row.join_radius);
    let got_keys = sorted_pairs(&got);
    let mut deduped = got_keys.clone();
    deduped.dedup();
    assert_eq!(
        deduped.len(),
        got_keys.len(),
        "{} produced duplicate join pairs ({label})",
        kind.name()
    );
    assert_eq!(
        got_keys,
        sorted_pairs(&truth),
        "{} join pair set differs from the oracle ({label})",
        kind.name()
    );
    cx.take_stats()
}

/// The shared per-kind body: every row, bulk-built index.  The gate row
/// runs under `--release` only.
fn oracle_body(kind: IndexKind) {
    let mut rows = small_rows();
    if cfg!(debug_assertions) {
        println!("skipped: the 4 000-point gate row runs under --release only");
    } else {
        rows.push(gate_row());
    }
    for row in &rows {
        let label = row.label;
        let index = build_index(kind, &row.data, &row.cfg);
        let other = build_index(kind, &row.inner, &row.cfg);
        let first = verify_against_oracle(kind, row, index.as_ref(), other.as_ref());

        // Replaying the identical workload on the same index charges the
        // identical counters (per-query statistics carry no hidden state).
        let again = verify_against_oracle(kind, row, index.as_ref(), other.as_ref());
        assert_eq!(
            first,
            again,
            "{} stats differ between identical replays ({label})",
            kind.name()
        );

        // For the exact kinds, a from-scratch rebuild replays the workload
        // with byte-identical statistics too (builds are deterministic).
        if kind.exact_windows() {
            let rebuilt = build_index(kind, &row.data, &row.cfg);
            let fresh = verify_against_oracle(kind, row, rebuilt.as_ref(), other.as_ref());
            assert_eq!(
                first,
                fresh,
                "{} stats differ across deterministic rebuilds ({label})",
                kind.name()
            );
        }
    }
}

/// The shared per-kind server body: range/join stay oracle-exact through a
/// live delta overlay with interleaved inserts and deletes, and across a
/// compaction epoch swap.
fn server_overlay_body(kind: IndexKind) {
    let data = generate(Distribution::Uniform, 700, 131);
    let server = serve_index(
        kind,
        &data,
        &IndexConfig::fast().with_shards(3),
        ServerConfig::default().with_compact_threshold(usize::MAX),
    );
    let mut live = data.clone();
    let probes = queries::join_points(&data, 120, 137);
    let other = ScanIndex::new(probes.clone());
    let check = |live: &[Point], stage: &str| {
        let mut cx = QueryContext::new();
        let centers = queries::range_query_centers(&data, 8, 139);
        for c in &centers {
            let got = server.range_query(c, 0.05, &mut cx);
            let truth = brute_force::range_query(live, c, 0.05);
            assert_eq!(
                sorted_ids(&got),
                sorted_ids(&truth),
                "{} served range answer differs ({stage})",
                kind.name()
            );
        }
        let got = SpatialIndex::distance_join(&server, &other, 0.03, &mut cx);
        let truth = brute_force::distance_join(live, &probes, 0.03);
        assert_eq!(
            sorted_pairs(&got),
            sorted_pairs(&truth),
            "{} served join pair set differs ({stage})",
            kind.name()
        );
    };

    // Interleaved inserts and deletes, verified mid-stream.
    for i in 0..48u64 {
        let anchor = data[(i as usize * 13) % data.len()];
        let p = Point::with_id(
            (anchor.x + 0.004).min(1.0),
            (anchor.y + 0.002).min(1.0),
            40_000 + i,
        );
        server.insert(p);
        live.push(p);
        if i % 4 == 0 {
            let victim = live[(i as usize * 17) % live.len()];
            let (removed, _) = server.delete(&victim);
            assert!(removed, "{} delete failed", kind.name());
            live.retain(|x| !(x.same_location(&victim) && x.id == victim.id));
        }
        if i == 23 {
            check(&live, "mid-stream overlay");
        }
    }
    check(&live, "full overlay");

    // Fold the delta into a fresh base: nothing may change.
    assert!(server.compact_now());
    check(&live, "after compaction");
}

macro_rules! oracle_tests {
    ($($name:ident / $server_name:ident => $kind:expr),+ $(,)?) => {
        $(
            #[test]
            fn $name() {
                oracle_body($kind);
            }
            #[test]
            fn $server_name() {
                server_overlay_body($kind);
            }
        )+
    };
}

oracle_tests! {
    oracle_grid / served_grid => IndexKind::Grid,
    oracle_hrr / served_hrr => IndexKind::Hrr,
    oracle_kdb / served_kdb => IndexKind::Kdb,
    oracle_rstar / served_rstar => IndexKind::RStar,
    oracle_rsmi / served_rsmi => IndexKind::Rsmi,
    oracle_rsmia / served_rsmia => IndexKind::Rsmia,
    oracle_zm / served_zm => IndexKind::Zm,
    oracle_sharded_grid / served_sharded_grid => BaseKind::Grid.sharded(),
    oracle_sharded_hrr / served_sharded_hrr => BaseKind::Hrr.sharded(),
    oracle_sharded_kdb / served_sharded_kdb => BaseKind::Kdb.sharded(),
    oracle_sharded_rstar / served_sharded_rstar => BaseKind::RStar.sharded(),
    oracle_sharded_rsmi / served_sharded_rsmi => BaseKind::Rsmi.sharded(),
    oracle_sharded_rsmia / served_sharded_rsmia => BaseKind::Rsmia.sharded(),
    oracle_sharded_zm / served_sharded_zm => BaseKind::Zm.sharded(),
}

/// The sharded engine's fan-out counters behave for the new query classes:
/// a small circle prunes shards, and visited + pruned always accounts for
/// every shard.
#[test]
fn sharded_range_queries_account_for_every_shard() {
    let data = generate(Distribution::Uniform, 2_000, 149);
    let index = build_index(
        BaseKind::Hrr.sharded(),
        &data,
        &IndexConfig::fast().with_shards(6),
    );
    let mut cx = QueryContext::new();
    let centers = queries::range_query_centers(&data, 20, 151);
    for c in &centers {
        let _ = index.range_query(c, 0.02, &mut cx);
    }
    let stats = cx.take_stats();
    assert!(stats.shards_pruned > 0, "small circles should prune shards");
    assert_eq!(
        stats.shards_visited + stats.shards_pruned,
        6 * centers.len() as u64
    );
}
