//! `range` and `join` measure the distance-predicate query classes across
//! **all 14 registered kinds** (leaf families and their sharded
//! compositions): `range` runs distance-range queries of `--radius` and
//! verifies every answer against the brute-force oracle;
//! `join` builds a second (inner) index of `--join-ratio` times the data
//! size per kind and runs the index-nested `distance_join`, verifying the
//! pair set against the nested-loop oracle.  Both exit 1 on any oracle
//! divergence.

use crate::cli::{check, Args, Flag, Run, Subcommand};
use crate::harness::{
    dataset, kinds, n_default, scale, sharded_config, EPOCHS, ONLY, RADIUS, RANGE_QUERIES, SHARDS,
    THREADS,
};
use bench::{
    build_timed, fmt, measure_distance_join, measure_range_queries, print_table, IndexKind,
};
use datagen::queries;
use datagen::Distribution;

const JOIN_RATIO: Flag = Flag::value(
    "--join-ratio",
    "R",
    join_ratio,
    "inner-index size as a fraction of the data size, in (0, 1]",
)
.default("0.25");

fn join_ratio(raw: &str) -> Result<(), String> {
    let r: f64 = check::parsed(raw)?;
    if r.is_finite() && r > 0.0 && r <= 1.0 {
        Ok(())
    } else {
        Err("must be in (0, 1]".into())
    }
}

pub const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        names: &["range"],
        about: "distance-range queries, all 14 kinds, every answer oracle-verified",
        flags: &[scale::<20_000>(), EPOCHS, ONLY, SHARDS, THREADS, RADIUS],
        in_all: true,
        run: Run::Verified(range),
    },
    Subcommand {
        names: &["join"],
        about: "index-nested distance join, all 14 kinds, pair set oracle-verified",
        flags: &[
            scale::<20_000>(),
            EPOCHS,
            ONLY,
            SHARDS,
            THREADS,
            RADIUS,
            JOIN_RATIO,
        ],
        in_all: true,
        run: Run::Verified(join),
    },
];

/// `range`: distance-range queries per kind, every answer verified against
/// the brute-force oracle (distance-range queries are exact for every
/// family).  Every row, sharded kinds included, is timed one call at a time
/// on one thread, so the per-query times compare.  Returns whether every
/// kind verified.
fn range(args: &Args) -> bool {
    let n = n_default(args);
    let data = dataset(Distribution::skewed_default(), n);
    let centers = queries::range_query_centers(&data, RANGE_QUERIES, 23);
    let cfg = sharded_config(args);
    let radius: f64 = args.get("--radius");
    let mut verified = true;
    let mut rows = Vec::new();
    for kind in kinds(args, IndexKind::all_with_sharded()) {
        let built = build_timed(kind, &data, &cfg);
        // Best-of-3 timing: one batch of 100 queries is a few milliseconds,
        // so the minimum — the classic noise-robust estimator — is
        // reported, while every repetition's answers are still
        // oracle-verified.
        let mut m = measure_range_queries(&built, &data, &centers, radius);
        for _ in 0..2 {
            let again = measure_range_queries(&built, &data, &centers, radius);
            if again.recall < m.recall {
                m.recall = again.recall;
            }
            if again.avg_time_us < m.avg_time_us {
                m.avg_time_us = again.avg_time_us;
            }
        }
        if m.recall < 1.0 {
            verified = false;
            eprintln!(
                "range experiment FAILED: {} recall {} against the oracle",
                kind.name(),
                m.recall
            );
        }
        rows.push(vec![
            m.index.clone(),
            fmt(m.avg_time_us),
            fmt(m.avg_block_accesses),
            fmt(m.avg_candidates),
            fmt(m.recall),
        ]);
    }
    print_table(
        &format!(
            "Distance-range queries — r = {} (Skewed, n = {n}, {} queries)",
            radius, RANGE_QUERIES
        ),
        &[
            "index",
            "query time (us)",
            "block accesses",
            "candidates",
            "oracle recall",
        ],
        &rows,
    );
    verified
}

/// `join`: the index-nested distance join per kind — outer index over the
/// data set, inner index of `--join-ratio` times its size built from the
/// same kind — with the pair set verified against the nested-loop oracle.
/// Returns whether every kind verified.
fn join(args: &Args) -> bool {
    let n = n_default(args);
    let data = dataset(Distribution::skewed_default(), n);
    let inner_n = ((n as f64 * args.get::<f64>("--join-ratio")) as usize).max(1);
    let inner = queries::join_points(&data, inner_n, 29);
    let cfg = sharded_config(args);
    let radius: f64 = args.get("--radius");
    let mut verified = true;
    let mut rows = Vec::new();
    for kind in kinds(args, IndexKind::all_with_sharded()) {
        let built = build_timed(kind, &data, &cfg);
        let other = bench::build_index(kind, &inner, &cfg);
        // Best-of-3 timing (see `range`); every repetition's pair set is
        // still oracle-verified.
        let mut jm = measure_distance_join(&built, &data, other.as_ref(), &inner, radius);
        for _ in 0..2 {
            let again = measure_distance_join(&built, &data, other.as_ref(), &inner, radius);
            if again.measurement.recall < jm.measurement.recall {
                jm.measurement.recall = again.measurement.recall;
            }
            if again.measurement.avg_time_us < jm.measurement.avg_time_us {
                jm.measurement.avg_time_us = again.measurement.avg_time_us;
            }
        }
        if jm.measurement.recall < 1.0 {
            verified = false;
            eprintln!(
                "join experiment FAILED: {} pair set diverged from the oracle (recall {})",
                kind.name(),
                jm.measurement.recall
            );
        }
        rows.push(vec![
            jm.measurement.index.clone(),
            fmt(jm.measurement.avg_time_us / 1000.0),
            jm.pairs.to_string(),
            fmt(jm.measurement.avg_block_accesses),
            if jm.measurement.recall >= 1.0 {
                "yes"
            } else {
                "NO"
            }
            .to_string(),
        ]);
    }
    print_table(
        &format!(
            "Distance join — r = {} (Skewed, outer n = {n}, inner n = {inner_n})",
            radius
        ),
        &[
            "index",
            "join time (ms)",
            "pairs",
            "block accesses",
            "oracle match",
        ],
        &rows,
    );
    verified
}
