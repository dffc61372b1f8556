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
//! a region's blocks nearest-first.  The RSMI, RSMIa and ZM rows moved
//! again when each fit began stopping once its loss stopped improving, so
//! fewer epochs train most sub-models.  On a mismatch the test prints the whole
//! observed table in source form, so an intended change (new data
//! generator, retrained models) regenerates it by copy and paste.
//!
//! Beside the query pins, `BUILD_FINGERPRINTS` pins the bulk-loads
//! themselves: an FNV-64 over the snapshot bytes of fresh RSMI and ZM
//! builds.  A training-kernel change that claims bit-identical models must
//! leave it alone; the epoch-loss stop rule moved it.
//!
//! `CODEC_FINGERPRINTS` pins the encoders: an FNV-64 over the snapshot
//! bytes of every registered kind, and over the frame of every wire
//! request and response.  A codec refactor that claims unchanged bytes
//! must leave it alone.

use baselines::zm::ZmConfig;
use baselines::{HilbertRTree, KdbTree, RStarTree, ZOrderModel};
use common::{QueryContext, SpatialIndex};
use datagen::{generate, queries, Distribution};
use geom::{Point, Rect};
use net::wire::frame_bytes;
use net::{ErrorCode, Request, Response};
use obs::{Event, EventKind, EventsSnapshot, HistogramSnapshot, MetricsSnapshot};
use registry::{build_index, IndexConfig, IndexKind};
use rsmi::{Rsmi, RsmiConfig, RsmiExact};
use std::ops::Range;

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
    ("RSMIa", "point", 0x5F549D4ECFF7CBC5, (425, 200, 16818)),
    ("RSMIa", "window", 0x88CA6AA8DB009417, (1732, 47, 64241)),
    ("RSMIa", "knn", 0x45BC8FB6B33712F8, (376, 37, 15196)),
    ("RSMIa", "range", 0x05FF32F04FB4D1A8, (525, 37, 20339)),
    ("RSMIa", "join", 0xD38E35D62FA41ADD, (900, 3, 32969)),
    ("RSMI", "point", 0x5F549D4ECFF7CBC5, (425, 200, 16818)),
    ("RSMI", "window", 0xBF39F610D14FEFBF, (1612, 188, 59003)),
    ("RSMI", "knn", 0x45BC8FB6B33712F8, (292, 148, 11486)),
    ("RSMI", "range", 0x05FF32F04FB4D1A8, (525, 37, 20339)),
    ("RSMI", "join", 0xD38E35D62FA41ADD, (900, 3, 32969)),
    ("ZM", "point", 0x5F549D4ECFF7CBC5, (450, 600, 17398)),
    ("ZM", "window", 0xAFE4FA3BA2D31C27, (1673, 282, 55708)),
    ("ZM", "knn", 0xF9E28D3731AD1F68, (424, 282, 14179)),
    ("ZM", "range", 0xFC9A4652115AC190, (446, 0, 16642)),
    ("ZM", "join", 0xA80F0D8122E2A95D, (947, 0, 32266)),
];

/// `(build, fnv64 of its snapshot bytes without build_seconds)`: every
/// weight, bound, MBR, block and chain link a bulk-load writes.
const BUILD_FINGERPRINTS: &[(&str, u64)] = &[
    ("RSMI fast", 0x8D9B798EEDDDB142),
    ("RSMI 3 levels", 0x1A43B1FD1D75AC9F),
    ("ZM fast", 0x7806013BB6029A02),
];

/// `(snapshot kind or wire message, fnv64 of its bytes)`.  RSMI's
/// wall-clock `build_seconds`, and the CRCs that cover it, are left out.
const CODEC_FINGERPRINTS: &[(&str, u64)] = &[
    ("Grid", 0xAB39D1C4B0076541),
    ("HRR", 0x43A337650173B13E),
    ("KDB", 0x630A7756AA9A9A3F),
    ("RR*", 0x1A87E1346C8D5570),
    ("RSMI", 0x93F19756DEF720C7),
    ("RSMIa", 0xFC0516866C434EEF),
    ("ZM", 0x9B5BA028D16D8E1E),
    ("Sharded-Grid", 0x8271D9CF1EB682FD),
    ("Sharded-HRR", 0x50B2BAE209ED3469),
    ("Sharded-KDB", 0x0F17AF29A2345ABA),
    ("Sharded-RR*", 0x7F916DF92BE3E374),
    ("Sharded-RSMI", 0x3895EC9AE239A4E3),
    ("Sharded-RSMIa", 0x2712AABA83561401),
    ("Sharded-ZM", 0xFA557CFC9BA7B4EE),
    ("Request::Point", 0xEA6A384580E615B6),
    ("Request::Window", 0xAB607F982D144D8D),
    ("Request::Knn", 0x4D382CB2AB0F1A93),
    ("Request::Range", 0x1BD0910BF1067DB4),
    ("Request::JoinProbes", 0x956B15563D72F6AE),
    ("Request::Insert", 0x7F11B926BFAF5081),
    ("Request::Delete", 0xA3E180569B8C7090),
    ("Request::Ping", 0x9BDF31611A6AE19A),
    ("Request::Shutdown", 0x3CA937DE57E23591),
    ("Request::Stats", 0xB766ACABCED43117),
    ("Request::Events", 0x79968558CB0A741D),
    ("Response::Point hit", 0x637909C35E9AFC9C),
    ("Response::Point miss", 0x196933E293D1A9A9),
    ("Response::Points", 0x702ED104B6079534),
    ("Response::Knn", 0x47EE0C406BE00F79),
    ("Response::Pairs", 0x2CB47E8BD354B1AD),
    ("Response::Written removed", 0x1F0A77989CE7E5E9),
    ("Response::Written absent", 0xD62D40F9916E955C),
    ("Response::Pong", 0xA70D9CCB109B61E3),
    ("Response::Error overload", 0x79AF2E096CEACD84),
    ("Response::Error bad request", 0xBEA722998D95DFBF),
    ("Response::Error shutting down", 0x3FC0A6F170BCA730),
    ("Response::Error internal", 0x455D6322CB798D70),
    ("Response::Stats", 0x86C60068C5EC7A08),
    ("Response::Events", 0x56E9F6C17C556110),
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

/// FNV-64 over `bytes` outside the `skip` ranges.
fn fnv64_skipping(bytes: &[u8], skip: &[Range<usize>]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for (i, &byte) in bytes.iter().enumerate() {
        if !skip.iter().any(|r| r.contains(&i)) {
            fnv64_byte(&mut hash, byte);
        }
    }
    hash
}

/// Collects, for the snapshot at `bytes[at..]`, the byte ranges two builds
/// of the same data may differ in: the `build_seconds` that ends every RSMI
/// metadata section, and the CRC of each section holding one, embedded
/// shard snapshots included.  Walks the framing by hand, independent of
/// `persist`'s reader.  Returns whether anything was skipped.
fn skip_build_seconds(bytes: &[u8], at: usize, skip: &mut Vec<Range<usize>>) -> bool {
    let word = |at: usize, n: usize| {
        let mut le = [0u8; 8];
        le[..n].copy_from_slice(&bytes[at..at + n]);
        u64::from_le_bytes(le) as usize
    };
    const SECTION_RSMI_META: usize = 0x5101;
    const SECTION_SHARD: usize = 0x5403;
    // Header: 8-byte magic, u32 version, u16 kind-tag length, kind tag;
    // then sections of u32 tag, u64 length, payload, u32 CRC.
    let end = bytes.len();
    let mut section = at + 14 + word(at + 12, 2);
    let mut any = false;
    while section < end && bytes[section..].len() >= 12 {
        let tag = word(section, 4);
        let payload = section + 12;
        let payload_end = payload + word(section + 4, 8);
        let mut masked = false;
        if tag == SECTION_RSMI_META {
            skip.push(payload_end - 8..payload_end);
            masked = true;
        } else if tag == SECTION_SHARD {
            // MBR (32), low key (8), has-high-key flag (1) and high key (8).
            let flag = payload + 32 + 8;
            let blob_len_at = flag + 1 + 8 * usize::from(bytes[flag]);
            let blob = blob_len_at + 8;
            let blob_end = blob + word(blob_len_at, 8);
            masked = skip_build_seconds(&bytes[..blob_end], blob, skip);
        }
        if masked {
            skip.push(payload_end..payload_end + 4);
            any = true;
        }
        section = payload_end + 4;
    }
    any
}

/// Every `Request` and `Response` variant, telemetry payloads built from
/// literals (journal timestamps are not deterministic).
fn wire_messages() -> Vec<(&'static str, Vec<u8>)> {
    let p = Point::with_id(0.25, -1.5, 7);
    let q = Point::with_id(0.1 + 0.2, 1e300, u64::MAX);
    let metrics = MetricsSnapshot {
        counters: vec![
            ("net.requests.point".into(), 42),
            ("router.failovers".into(), 0),
        ],
        gauges: vec![
            ("server.delta_ops".into(), -7),
            ("net.inflight".into(), i64::MAX),
        ],
        histograms: vec![
            ("empty".into(), HistogramSnapshot::default()),
            (
                "net.latency_us.window".into(),
                HistogramSnapshot {
                    count: 3,
                    sum: 80_806,
                    min: 5,
                    max: 80_000,
                    buckets: vec![(3, 1), (40, 1), (120, 1)],
                },
            ),
        ],
    };
    let kinds = [
        EventKind::ServerStart { points: 100 },
        EventKind::SnapshotLoad { points: 200 },
        EventKind::CompactionStart {
            epoch: 1,
            delta_ops: 50,
        },
        EventKind::CompactionEnd {
            epoch: 2,
            pause_us: 120,
            rebuild_us: 9_000,
            points: 150,
        },
        EventKind::EpochSwap { epoch: 2, seq: 150 },
        EventKind::OverloadShed { shed_total: 12 },
        EventKind::ConnOpen { conn: 3 },
        EventKind::ConnClose { conn: 3 },
        EventKind::Shutdown {
            uptime_us: 1_000_000,
            drained: 4,
        },
        EventKind::ReplicaFailover {
            shard: 1,
            replica: 0,
        },
        EventKind::PartialCompactionEnd {
            epoch: 3,
            pause_us: 80,
            rebuild_us: 700,
            subtrees: 2,
        },
    ];
    let events = EventsSnapshot {
        dropped: 5,
        events: kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| Event {
                seq: 6 + i as u64,
                at_us: 1_000 * i as u64,
                kind,
            })
            .collect(),
    };
    let requests = [
        ("Request::Point", Request::Point(p)),
        (
            "Request::Window",
            Request::Window(Rect::new(0.0, 0.1, 0.5, 1.0)),
        ),
        ("Request::Knn", Request::Knn(q, 25)),
        ("Request::Range", Request::Range(p, 0.02)),
        ("Request::JoinProbes", Request::JoinProbes(vec![p, q], 0.05)),
        ("Request::Insert", Request::Insert(q)),
        ("Request::Delete", Request::Delete(p)),
        ("Request::Ping", Request::Ping),
        ("Request::Shutdown", Request::Shutdown),
        ("Request::Stats", Request::Stats),
        ("Request::Events", Request::Events { since: 42 }),
    ];
    let responses = [
        (
            "Response::Point hit",
            Response::Point {
                seq: 42,
                hit: Some(q),
            },
        ),
        (
            "Response::Point miss",
            Response::Point { seq: 0, hit: None },
        ),
        (
            "Response::Points",
            Response::Points {
                seq: 7,
                points: vec![p, q],
            },
        ),
        (
            "Response::Knn",
            Response::Knn {
                seq: 8,
                points: vec![q, p],
            },
        ),
        (
            "Response::Pairs",
            Response::Pairs {
                seq: 9,
                pairs: vec![(p, q), (q, p)],
            },
        ),
        (
            "Response::Written removed",
            Response::Written {
                seq: 11,
                removed: true,
            },
        ),
        (
            "Response::Written absent",
            Response::Written {
                seq: 12,
                removed: false,
            },
        ),
        ("Response::Pong", Response::Pong { seq: 13 }),
        (
            "Response::Error overload",
            Response::Error {
                code: ErrorCode::Overload,
                message: "queue full".into(),
            },
        ),
        (
            "Response::Error bad request",
            Response::Error {
                code: ErrorCode::BadRequest,
                message: "radius −1".into(),
            },
        ),
        (
            "Response::Error shutting down",
            Response::Error {
                code: ErrorCode::ShuttingDown,
                message: String::new(),
            },
        ),
        (
            "Response::Error internal",
            Response::Error {
                code: ErrorCode::Internal,
                message: "kNN panicked".into(),
            },
        ),
        ("Response::Stats", Response::Stats { seq: 14, metrics }),
        ("Response::Events", Response::Events { seq: 15, events }),
    ];
    let mut out: Vec<(&str, Vec<u8>)> = requests
        .iter()
        .map(|(name, req)| (*name, frame_bytes(&req.encode())))
        .collect();
    out.extend(
        responses
            .iter()
            .map(|(name, resp)| (*name, frame_bytes(&resp.encode()))),
    );
    out
}

#[test]
fn snapshot_and_frame_bytes_match_the_pinned_fingerprints() {
    let data = generate(Distribution::skewed_default(), 1_000, 23);
    let cfg = IndexConfig::fast().with_shards(2);
    let mut observed: Vec<(&str, u64)> = IndexKind::all_with_sharded()
        .into_iter()
        .map(|kind| {
            let index = build_index(kind, &data, &cfg);
            let bytes = registry::snapshot_bytes(index.as_ref()).unwrap();
            let mut skip = Vec::new();
            skip_build_seconds(&bytes, 0, &mut skip);
            (kind.name(), fnv64_skipping(&bytes, &skip))
        })
        .collect();
    observed.extend(
        wire_messages()
            .iter()
            .map(|(name, frame)| (*name, fnv64_skipping(frame, &[]))),
    );
    if observed != CODEC_FINGERPRINTS {
        let table: String = observed
            .iter()
            .map(|(name, hash)| format!("    ({name:?}, {hash:#018X}),\n"))
            .collect();
        panic!("codec fingerprints differ; observed table:\n{table}");
    }
}
