//! Traversal pins: the four directory families (HRR, KDB, RR\*, RSMIa) share
//! one traversal, and the learned scans of RSMI and ZM share one chain walk
//! and one block-MBR test, so their visit order and their `QueryStats`
//! accounting are a contract, not an accident.  One seeded 20 k-point data
//! set, with inserts and deletes applied, answers a fixed pool of point /
//! window / kNN / range / join queries; per family × class this file pins
//!
//! * an FNV-64 over the result ids **in visit order**, and
//! * the `(blocks_touched, nodes_visited, candidates_scanned)` triple.
//!
//! The hashes were generated from the hand-written per-family traversals
//! that preceded `storage::directory` (RSMI's learned rows and ZM's from the
//! unpruned chain scans that preceded the block-header MBR).  Since then the
//! RSMI and RSMIa rows have moved once: when each sub-model's seed became a
//! mix of its parent's seed and its cell instead of its place in the build
//! order, so the root's subtrees can be built in parallel.  RSMI's kNN
//! counts fell once more, with the same hash, when its scan began opening
//! a region's blocks nearest-first.  On a mismatch the test prints the whole
//! observed table in source form, so an intended change (new data
//! generator, retrained models) regenerates it by copy and paste.
//!
//! Beside the query pins, `BUILD_FINGERPRINTS` pins the bulk-loads
//! themselves: an FNV-64 over the snapshot bytes of fresh RSMI and ZM
//! builds.  A training-kernel change that claims bit-identical models must
//! leave it alone.

use baselines::zm::ZmConfig;
use baselines::{HilbertRTree, KdbTree, RStarTree, ZOrderModel};
use common::{QueryContext, SpatialIndex};
use datagen::{generate, queries, Distribution};
use geom::{Point, Rect};
use rsmi::{Rsmi, RsmiConfig, RsmiExact};

const BLOCK_CAPACITY: usize = 50;

const ALL_CLASSES: &[&str] = &["point", "window", "knn", "range", "join"];

/// `(family, class, fnv64 of ids in visit order, (blocks, nodes, candidates))`.
type Pin = (&'static str, &'static str, u64, (u64, u64, u64));

const PINS: &[Pin] = &[
    ("HRR", "point", 0x5F549D4ECFF7CBC5, (236, 487, 7087)),
    ("HRR", "window", 0x161C0EBA04F6E833, (1777, 139, 50524)),
    ("HRR", "knn", 0x45BC8FB6B33712F8, (166, 86, 4507)),
    ("HRR", "range", 0x7DBE20ADAA8E2568, (414, 109, 13094)),
    ("HRR", "join", 0x4AEAADC5ED607C61, (941, 12, 26899)),
    ("KDB", "point", 0x5F549D4ECFF7CBC5, (200, 581, 5499)),
    ("KDB", "window", 0xAA1ADD6D2BDBBF57, (1826, 1371, 49162)),
    ("KDB", "knn", 0x45BC8FB6B33712F8, (166, 228, 4514)),
    ("KDB", "range", 0xEC72E71CB560AF14, (420, 407, 11458)),
    ("KDB", "join", 0xB729BD4E2565A701, (950, 718, 25462)),
    ("RR*", "point", 0x5F549D4ECFF7CBC5, (199, 403, 13215)),
    ("RR*", "window", 0x4367E4BA6A9F3A4B, (802, 112, 49764)),
    ("RR*", "knn", 0x45BC8FB6B33712F8, (93, 80, 6098)),
    ("RR*", "range", 0xAE713A791FBA9E48, (181, 77, 11966)),
    ("RR*", "join", 0x601F2C43D153EDFD, (462, 14, 29710)),
    // One accounting rule for every family: a block is charged, with its
    // candidates, when its lanes are read; testing an MBR that sits in a
    // directory node or a block header is free.
    ("RSMIa", "point", 0x5F549D4ECFF7CBC5, (434, 200, 16634)),
    ("RSMIa", "window", 0x03A30773B21DA9AF, (1804, 47, 64366)),
    ("RSMIa", "knn", 0x45BC8FB6B33712F8, (383, 37, 14974)),
    ("RSMIa", "range", 0x646AE2DB258BD994, (561, 37, 20605)),
    ("RSMIa", "join", 0x0943D814DDF94DF1, (924, 3, 32999)),
    ("RSMI", "point", 0x5F549D4ECFF7CBC5, (434, 200, 16634)),
    ("RSMI", "window", 0xC6F9A2A1D144C68F, (1685, 188, 59244)),
    ("RSMI", "knn", 0x45BC8FB6B33712F8, (307, 148, 11594)),
    ("RSMI", "range", 0x646AE2DB258BD994, (561, 37, 20605)),
    ("RSMI", "join", 0x0943D814DDF94DF1, (924, 3, 32999)),
    ("ZM", "point", 0x5F549D4ECFF7CBC5, (451, 600, 16871)),
    ("ZM", "window", 0xB1AD270DAFB04FC3, (1694, 282, 55413)),
    ("ZM", "knn", 0xF9E28D3731AD1F68, (425, 282, 13833)),
    ("ZM", "range", 0xBDE0B66FAE2885F4, (464, 0, 16358)),
    ("ZM", "join", 0xBB9ADE19327CDD89, (984, 0, 32244)),
];

/// `(build, fnv64 of its snapshot bytes without build_seconds)`: every
/// weight, bound, MBR, block and chain link a bulk-load writes.
const BUILD_FINGERPRINTS: &[(&str, u64)] = &[
    ("RSMI fast", 0x3AA96229DBFDF4D7),
    ("RSMI 3 levels", 0x5FC6D034802B625E),
    ("ZM fast", 0x29BA111DE20C3D85),
];

fn fnv64(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        fnv64_byte(hash, byte);
    }
}

fn fnv64_byte(hash: &mut u64, byte: u8) {
    *hash ^= u64::from(byte);
    *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
}

/// The data set plus the update stream every family replays: scattered
/// inserts, a dense cluster that forces leaf splits and overflow chains,
/// then deletes of bulk-loaded and of inserted points.
fn dataset() -> (Vec<Point>, Vec<Point>, Vec<Point>) {
    let data = generate(Distribution::skewed_default(), 20_000, 17);
    let mut inserts = queries::insertion_points(&data, 2_000, 5);
    inserts.extend((0..600u64).map(|i| {
        Point::with_id(
            0.31 + 0.0002 * (i % 30) as f64,
            0.07 + 0.0002 * (i / 30) as f64,
            1_000_000 + i,
        )
    }));
    let deletes = data
        .iter()
        .step_by(17)
        .chain(inserts.iter().step_by(5))
        .copied()
        .collect();
    (data, inserts, deletes)
}

/// Runs the whole query pool of one class and returns its pin.
fn run_class(
    index: &dyn SpatialIndex,
    class: &'static str,
    data: &[Point],
) -> (u64, (u64, u64, u64)) {
    let mut cx = QueryContext::new();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    match class {
        "point" => {
            let hits = queries::point_queries(data, 150, 23);
            let misses = queries::negative_point_queries(data, 50, 29);
            for q in hits.iter().chain(&misses) {
                let found = index.point_query(q, &mut cx);
                fnv64(&mut hash, found.map_or(u64::MAX, |p| p.id));
            }
        }
        "window" => {
            for area_percent in [0.01, 0.25, 1.0] {
                let spec = queries::WindowSpec {
                    area_percent,
                    aspect_ratio: 2.0,
                };
                for w in queries::window_queries(data, spec, 15, 31) {
                    index.window_query_visit(&w, &mut cx, &mut |p| fnv64(&mut hash, p.id));
                }
            }
            // Degenerate and space-covering windows.
            let p = data[4];
            index.window_query_visit(&Rect::new(p.x, p.y, p.x, p.y), &mut cx, &mut |p| {
                fnv64(&mut hash, p.id)
            });
            index.window_query_visit(&Rect::unit(), &mut cx, &mut |p| fnv64(&mut hash, p.id));
        }
        "knn" => {
            for k in [1, 10, 100] {
                for q in queries::knn_queries(data, 12, 37) {
                    index.knn_query_visit(&q, k, &mut cx, &mut |p| fnv64(&mut hash, p.id));
                }
            }
            // A query on a data location (distance-zero tie with its block).
            index.knn_query_visit(&data[9], 5, &mut cx, &mut |p| fnv64(&mut hash, p.id));
        }
        "range" => {
            for r in [0.0, 0.01, 0.05] {
                for c in queries::range_query_centers(data, 12, 41) {
                    index.range_query_visit(&c, r, &mut cx, &mut |p| fnv64(&mut hash, p.id));
                }
            }
            index.range_query_visit(&data[9], 0.0, &mut cx, &mut |p| fnv64(&mut hash, p.id));
        }
        "join" => {
            for (count, r) in [(200, 0.01), (40, 0.05), (1, 0.02)] {
                let probes = queries::join_points(data, count, 43);
                index.distance_join_probes(&probes, r, &mut cx, &mut |p, q| {
                    fnv64(&mut hash, p.id);
                    fnv64(&mut hash, q.id);
                });
            }
        }
        other => unreachable!("unknown class {other}"),
    }
    let s = cx.stats;
    (
        hash,
        (s.blocks_touched, s.nodes_visited, s.candidates_scanned),
    )
}

#[test]
fn visit_order_and_accounting_match_the_pinned_table() {
    let (data, inserts, deletes) = dataset();
    let rsmi = Rsmi::build(data.clone(), RsmiConfig::fast());
    let mut families: Vec<Box<dyn SpatialIndex>> = vec![
        Box::new(HilbertRTree::build(data.clone(), BLOCK_CAPACITY)),
        Box::new(KdbTree::build(data.clone(), BLOCK_CAPACITY)),
        Box::new(RStarTree::build(data.clone(), BLOCK_CAPACITY)),
        Box::new(RsmiExact::from_rsmi(rsmi.clone())),
        // Plain RSMI answers range and join through the exact traversal.
        Box::new(rsmi),
        // ZM's kNN is its window scan under `common::knn::expand`.
        Box::new(ZOrderModel::build(data.clone(), ZmConfig::fast())),
    ];
    let mut observed: Vec<Pin> = Vec::new();
    for index in &mut families {
        for p in &inserts {
            index.insert(*p);
        }
        for p in &deletes {
            assert!(index.delete(p), "{} lost {p:?}", index.name());
        }
        assert_eq!(index.len(), data.len() + inserts.len() - deletes.len());
        for &class in ALL_CLASSES {
            let (hash, stats) = run_class(index.as_ref(), class, &data);
            observed.push((index.name(), class, hash, stats));
        }
    }
    if observed != PINS {
        let table: String = observed
            .iter()
            .map(|(family, class, hash, stats)| {
                format!("    ({family:?}, {class:?}, {hash:#018X}, {stats:?}),\n")
            })
            .collect();
        panic!("traversal pins differ; observed table:\n{table}");
    }
}

/// FNV-64 over a snapshot's bytes.  With `skip_build_seconds` the last 8
/// payload bytes of the first section (RSMI's metadata ends with its
/// wall-clock `build_seconds`) and that section's CRC are left out: they
/// are the only bytes two builds of the same data may differ in.
fn snapshot_fnv64(bytes: &[u8], skip_build_seconds: bool) -> u64 {
    // Header: 8 magic + 4 version + 2 name length + name; a section is
    // 4 tag + 8 length + payload + 4 CRC.
    let name_len = usize::from(u16::from_le_bytes([bytes[12], bytes[13]]));
    let section = 14 + name_len;
    let len = u64::from_le_bytes(bytes[section + 4..section + 12].try_into().unwrap());
    let payload_end = section + 12 + len as usize;
    let skip = if skip_build_seconds {
        payload_end - 8..payload_end + 4
    } else {
        0..0
    };
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for (i, &byte) in bytes.iter().enumerate() {
        if !skip.contains(&i) {
            fnv64_byte(&mut hash, byte);
        }
    }
    hash
}

#[test]
fn bulk_loads_match_the_pinned_fingerprints() {
    let (data, _, _) = dataset();
    // N = 500, B = 20: a 4 x 4 grid, so the 20 k points split at the root
    // and again at depth 1.
    let deep = RsmiConfig {
        partition_threshold: 500,
        block_capacity: 20,
        ..RsmiConfig::fast()
    };
    let deep_rsmi = Rsmi::build(data.clone(), deep);
    assert!(deep_rsmi.stats().height >= 3, "two internal levels");
    let builds: [(&str, Box<dyn SpatialIndex>, bool); 3] = [
        (
            "RSMI fast",
            Box::new(Rsmi::build(data.clone(), RsmiConfig::fast())),
            true,
        ),
        ("RSMI 3 levels", Box::new(deep_rsmi), true),
        (
            "ZM fast",
            Box::new(ZOrderModel::build(data, ZmConfig::fast())),
            false,
        ),
    ];
    let observed: Vec<(&str, u64)> = builds
        .iter()
        .map(|(name, index, skip)| {
            let bytes = registry::snapshot_bytes(index.as_ref()).unwrap();
            (*name, snapshot_fnv64(&bytes, *skip))
        })
        .collect();
    if observed != BUILD_FINGERPRINTS {
        let table: String = observed
            .iter()
            .map(|(name, hash)| format!("    ({name:?}, {hash:#018X}),\n"))
            .collect();
        panic!("build fingerprints differ; observed table:\n{table}");
    }
}
