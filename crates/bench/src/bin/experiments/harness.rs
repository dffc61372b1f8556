//! What every index-building subcommand shares: the data-set and
//! index-configuration flags, and the helpers that read them.

use crate::cli::{check, Args, Flag};
use bench::{IndexConfig, IndexKind};
use datagen::{generate, Distribution};
use geom::Point;

pub const POINT_QUERIES: usize = 1000;
pub const RANGE_QUERIES: usize = 100;
pub const SEED: u64 = 42;

/// `--scale` of a subcommand whose data set is `BASE_N` points at scale 1
/// (the smallest of them, when it builds several): positive, and leaving at
/// least one point.
pub const fn scale<const BASE_N: usize>() -> Flag {
    Flag::value(
        "--scale",
        "S",
        scale_check::<BASE_N>,
        "multiply the data-set size by S",
    )
    .default("1.0")
}

fn scale_check<const BASE_N: usize>(raw: &str) -> Result<(), String> {
    let s: f64 = check::parsed(raw)?;
    if !s.is_finite() || s <= 0.0 {
        return Err("must be positive".into());
    }
    match (BASE_N as f64 * s) as usize {
        0 => Err(format!(
            "leaves an empty data set (n = {BASE_N} x {s} rounds to 0 points)"
        )),
        _ => Ok(()),
    }
}

pub const EPOCHS: Flag = Flag::value(
    "--epochs",
    "E",
    check::parses::<usize>,
    "epoch cap per model of the learned indices",
)
.default("30");

pub const ONLY: Flag = Flag::value(
    "--only",
    "LIST",
    index_kinds,
    "restrict the run to these index families, comma-separated (e.g. RSMI,HRR)",
);

pub const SHARDS: Flag = Flag::value(
    "--shards",
    "N",
    check::positive_count,
    "shard count of the sharded kinds",
)
.default("4");

pub const THREADS: Flag = Flag::value(
    "--threads",
    "N",
    check::positive_count,
    "worker threads of the sharded kinds' batch execution",
)
.default("4");

/// Query radius of the distance-predicate classes (`range`, `join`, and the
/// load generator's range and join-probe requests);
/// `datagen::queries::DEFAULT_RANGE_RADIUS` by default.
pub const RADIUS: Flag = Flag::value(
    "--radius",
    "R",
    check::positive_finite,
    "query radius, as a fraction of the unit data space",
)
.default("0.02");

/// Write share of a serving workload (`serve-live`, `net-load`).
pub const WRITE_RATIO: Flag = Flag::value(
    "--write-ratio",
    "R",
    write_ratio,
    "write share of the workload, in [0, 1)",
)
.default("0.1");

/// `--queries`; `serve-live` counts them per reader thread, `net-load` per
/// connection.
pub const fn queries(help: &'static str) -> Flag {
    Flag::value("--queries", "N", check::positive_count, help).default("500")
}

/// `--kind`; each subcommand sets its own default and help.
pub const fn kind(help: &'static str) -> Flag {
    Flag::value("--kind", "KIND", check::parses::<IndexKind>, help)
}

/// `--path`; each subcommand says what the file is to it.
pub const fn path(help: &'static str) -> Flag {
    Flag::value("--path", "PATH", check::any, help)
}

fn write_ratio(raw: &str) -> Result<(), String> {
    if (0.0..1.0).contains(&check::parsed::<f64>(raw)?) {
        Ok(())
    } else {
        Err("must be in [0, 1)".into())
    }
}

fn index_kinds(raw: &str) -> Result<(), String> {
    raw.split(',')
        .try_for_each(|name| name.parse::<IndexKind>().map(|_| ()))
}

/// The data-set size at this run's `--scale`.
pub fn scaled(args: &Args, base_n: usize) -> usize {
    (base_n as f64 * args.get::<f64>("--scale")) as usize
}

/// The default data-set size (20 000 points at scale 1).
pub fn n_default(args: &Args) -> usize {
    scaled(args, 20_000)
}

/// The data-set sizes of the "vs data set size" figures.
pub fn sizes(args: &Args) -> Vec<usize> {
    [5_000, 10_000, 20_000, 40_000]
        .iter()
        .map(|&n| scaled(args, n))
        .collect()
}

pub fn dataset(dist: Distribution, n: usize) -> Vec<Point> {
    generate(dist, n, SEED)
}

/// The harness configuration of a subcommand that builds leaf families
/// only (declares `--epochs`).
pub fn config(args: &Args) -> IndexConfig {
    IndexConfig {
        block_capacity: 100,
        partition_threshold: 5_000,
        epochs: args.get("--epochs"),
        seed: SEED,
        ..IndexConfig::default()
    }
}

/// The harness configuration of a subcommand that can build a sharded
/// kind (declares `--shards` and `--threads` as well).
pub fn sharded_config(args: &Args) -> IndexConfig {
    IndexConfig {
        shards: args.get("--shards"),
        threads: args.get("--threads"),
        ..config(args)
    }
}

/// The families `--only` names, if given.
pub fn only(args: &Args) -> Option<Vec<IndexKind>> {
    let list: String = args.opt("--only")?;
    Some(
        list.split(',')
            .map(|name| name.parse().expect("checked at parse time"))
            .collect(),
    )
}

/// The families a cross-family subcommand covers, honouring `--only`.
pub fn kinds(args: &Args, base: Vec<IndexKind>) -> Vec<IndexKind> {
    match only(args) {
        None => base,
        Some(only) => base.into_iter().filter(|k| only.contains(k)).collect(),
    }
}
