//! Routing pins of the sharded engine, read back through the container a
//! router and its shard servers start from: for every sharded family and
//! every data set,
//!
//! * every stored point routes, under the manifest's frozen partitioner, to
//!   the shard whose snapshot section holds it (build points and inserts);
//! * all copies of a location sit in one shard, where a location is its
//!   pair of `geom::order_key`s: NaNs of any payload and sign are one
//!   location, and so are `-0.0` and `+0.0`;
//! * an unseen location routes the same way under every spelling of it,
//!   from every decode of the manifest and from a second build.
//!
//! The data sets are the five distributions, 50 locations stored 40 times
//! each, 4 identical points, a set of signed zeros, infinities and points
//! outside the unit square, and the same with NaNs of two payloads and
//! both signs.

use datagen::{generate, Distribution};
use geom::{order_key, Point};
use registry::{
    build_index, load_index_bytes, load_shard_manifest_bytes, load_shard_snapshot_bytes,
    snapshot_bytes, BaseKind, IndexConfig,
};
use std::collections::HashMap;

/// NaNs of two payloads under both signs.
const NANS: [f64; 4] = [
    f64::NAN,
    -f64::NAN,
    f64::from_bits(0x7ff0_0000_0000_0001),
    f64::from_bits(0xfff0_0000_0000_0001),
];

/// Coordinates no distribution produces.
const SPECIALS: [f64; 12] = [
    NANS[0],
    NANS[1],
    NANS[2],
    NANS[3],
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -3.5,
    2.25,
    1e300,
    -1e-300,
];

/// Uniform points with a coordinate from `specials` on x, on y or on both
/// for three of every five, copies of earlier points under another NaN
/// payload or zero sign mixed in.
fn hostile(specials: &[f64], n: usize, seed: u64) -> Vec<Point> {
    let respell = |v: f64, i: usize| {
        if v.is_nan() {
            NANS[i % NANS.len()]
        } else if v == 0.0 {
            -v
        } else {
            v
        }
    };
    let special = |i: usize| specials[i % specials.len()];
    let mut pts: Vec<Point> = Vec::with_capacity(n);
    for (i, p) in generate(Distribution::Uniform, n, seed)
        .into_iter()
        .enumerate()
    {
        let id = i as u64;
        pts.push(match i % 5 {
            0 => Point::with_id(special(i / 5), p.y, id),
            1 => Point::with_id(p.x, special(i / 5 + 3), id),
            2 => Point::with_id(special(i / 5 + 1), special(i / 5 + 7), id),
            3 if i > 20 => {
                let q = pts[i * 7 % (i - 1)];
                Point::with_id(respell(q.x, i), respell(q.y, i + 1), id)
            }
            _ => p,
        });
    }
    pts
}

/// `(name, points, shards)` of every data set the pins run over.
fn data_sets() -> Vec<(String, Vec<Point>, usize)> {
    let mut sets: Vec<(String, Vec<Point>, usize)> = Distribution::all()
        .into_iter()
        .map(|dist| (format!("{dist:?}"), generate(dist, 2_000, 11), 8))
        .collect();
    let copies = (0..2_000)
        .map(|i| Point::with_id((i % 50) as f64 / 50.0, 0.3, i as u64))
        .collect();
    sets.push(("50 x 40 copies".into(), copies, 8));
    sets.push((
        "4 identical".into(),
        vec![Point::with_id(0.5, 0.5, 9); 4],
        2,
    ));
    sets.push((
        "zeros, infinities, outside".into(),
        hostile(&SPECIALS[4..], 1_500, 5),
        4,
    ));
    sets.push((
        "NaNs, zeros, infinities, outside".into(),
        hostile(&SPECIALS, 1_500, 5),
        4,
    ));
    sets
}

/// Locations no build point holds, each under every spelling: NaNs of each
/// payload and sign, both zeros.
fn unseen_spellings() -> Vec<Vec<(f64, f64)>> {
    let nan_x = |y: f64| NANS.iter().map(|&x| (x, y)).collect::<Vec<_>>();
    let nan_y = |x: f64| NANS.iter().map(|&y| (x, y)).collect::<Vec<_>>();
    let zeros = |other: f64| vec![(0.0, other), (-0.0, other), (other, 0.0), (other, -0.0)];
    vec![
        nan_x(0.123_456),
        nan_y(0.876_543),
        nan_x(f64::NAN)
            .into_iter()
            .chain(nan_y(-f64::NAN))
            .collect(),
        vec![(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)],
        zeros(0.314_159)[..2].to_vec(),
        zeros(0.271_828)[2..].to_vec(),
        vec![(f64::INFINITY, 0.5)],
        vec![(0.5, f64::NEG_INFINITY)],
        vec![(-7.25, 12.5)],
        vec![(0.333_333_3, 0.666_666_7)],
    ]
}

fn location(x: f64, y: f64) -> (u64, u64) {
    (order_key(x), order_key(y))
}

/// The shard of every stored point, read from each shard's own section of
/// the container, checked against the manifest's route.
fn stored_shards(what: &str, bytes: &[u8]) -> Vec<(Point, usize)> {
    let (_, manifest) = load_shard_manifest_bytes(bytes).expect("manifest");
    let mut stored = Vec::new();
    for shard in 0..manifest.shard_count() {
        let section = load_shard_snapshot_bytes(bytes, shard).expect("shard section");
        let index = load_index_bytes(&section).expect("shard snapshot");
        index.for_each_point(&mut |p| stored.push((*p, shard)));
    }
    for &(p, shard) in &stored {
        assert_eq!(
            manifest.partitioner.route(p.x, p.y),
            shard,
            "{what}: {p:?} is stored in shard {shard} but routes elsewhere"
        );
    }
    stored
}

#[test]
fn every_stored_point_routes_to_the_shard_that_holds_it() {
    let unseen = unseen_spellings();
    for (what, data, shards) in data_sets() {
        for base in BaseKind::all() {
            let what = format!("{what}, {base:?}");
            let cfg = IndexConfig::fast().with_shards(shards);
            let mut index = build_index(base.sharded(), &data, &cfg);
            for (id, &(x, y)) in (1 << 40..).zip(unseen.iter().flatten()) {
                index.insert(Point::with_id(x, y, id));
            }
            let stored = stored_shards(&what, &snapshot_bytes(index.as_ref()).expect("snapshot"));
            assert_eq!(stored.len(), data.len() + unseen.iter().flatten().count());

            let mut home: HashMap<(u64, u64), usize> = HashMap::new();
            for (p, shard) in stored {
                let at = *home.entry(location(p.x, p.y)).or_insert(shard);
                assert_eq!(
                    at, shard,
                    "{what}: copies of {p:?} in shards {at} and {shard}"
                );
            }
        }
    }
}

#[test]
fn an_unseen_location_always_routes_the_same_way() {
    let unseen = unseen_spellings();
    for (what, data, shards) in data_sets() {
        // The partitioner does not depend on the family: two families and
        // two worker counts must agree on every route.
        let manifests: Vec<_> = [(BaseKind::Grid, 1), (BaseKind::Hrr, 2)]
            .into_iter()
            .map(|(base, threads)| {
                let cfg = IndexConfig::fast()
                    .with_shards(shards)
                    .with_threads(threads);
                let bytes = snapshot_bytes(build_index(base.sharded(), &data, &cfg).as_ref())
                    .expect("snapshot");
                let (_, first) = load_shard_manifest_bytes(&bytes).expect("manifest");
                let (_, second) = load_shard_manifest_bytes(&bytes).expect("manifest");
                [first, second]
            })
            .collect();
        for spellings in &unseen {
            let routes: Vec<usize> = manifests
                .iter()
                .flatten()
                .flat_map(|m| spellings.iter().map(|&(x, y)| m.partitioner.route(x, y)))
                .collect();
            assert!(
                routes.iter().all(|&r| r == routes[0] && r < shards.max(1)),
                "{what}: {spellings:?} routes to {routes:?}"
            );
        }
    }
}
