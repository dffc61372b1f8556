//! The four workloads and what they share: run configuration, the result
//! record, and the closed-loop round driver.

pub mod mem_churn;
pub mod mem_read;
pub mod routed_mixed;
pub mod wire_read;

use crate::metrics::Metrics;
use crate::stats::{nanos_u32, Rounds};
use crate::trace::TracedPass;
use datagen::queries::{MixedQuery, ServeOp, WindowSpec};
use geom::Point;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Workload names, fixed: later issues cite them.
pub const WORKLOADS: [&str; 4] = [
    "mem-read-1m",
    "mem-churn-200k",
    "wire-read-200k",
    "routed-mixed-200k",
];

/// kNN `k` of every workload (the paper's default).
pub const K: usize = 25;

/// A timed phase always runs at least this many rounds, so its median is a
/// median even on a machine much slower than the one it was sized on.
const MIN_ROUNDS: usize = 5;

pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

impl Config {
    /// The workload's points: `full` of them (2 000 under `--smoke`),
    /// skewed like the paper's default, drawn from the run's seed.
    pub fn data(&self, full: usize) -> Vec<Point> {
        let n = if self.smoke { 2_000 } else { full };
        datagen::generate(datagen::Distribution::skewed_default(), n, self.seed)
    }

    /// An operation count: `full`, or a hundredth of it under `--smoke`.
    pub fn ops(&self, full: usize) -> usize {
        if self.smoke {
            (full / 100).max(1)
        } else {
            full
        }
    }

    /// The measuring time.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    pub fn trace_path(&self) -> PathBuf {
        self.out_dir.join(format!("{}.trace.json", self.workload))
    }
}

/// What one run found.  `notes` are printed ahead of the result line:
/// input fingerprints and observations that are not metrics.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub notes: Vec<(&'static str, String)>,
}

impl Report {
    /// Counts one checked operation; `ok == false` counts it as failed and
    /// the first few failures name `what` was checked in the header notes.
    pub fn check(&mut self, ok: bool, what: &'static str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                self.note("failed", what);
            }
        }
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }

    /// The request-level figures every workload reports the same way.
    pub fn set_latencies(&mut self, rounds: &mut Rounds) {
        use crate::stats::{KNN, POINT, WINDOW, WRITE};
        let m = &mut self.metrics;
        m.set_opt("point_p50_us", rounds.p50_us(POINT));
        m.set_opt("window_p50_us", rounds.p50_us(WINDOW));
        m.set_opt("knn_p50_us", rounds.p50_us(KNN));
        m.set_opt("write_p50_us", rounds.p50_us(WRITE));
        m.set_opt("point_p99_us", rounds.p99_us(POINT));
        m.set_opt("window_p99_us", rounds.p99_us(WINDOW));
        m.set_opt("knn_p99_us", rounds.p99_us(KNN));
        m.set_opt("write_p99_us", rounds.p99_us(WRITE));
        m.set("samples.point", rounds.samples(POINT) as f64);
        m.set("samples.window", rounds.samples(WINDOW) as f64);
        m.set("samples.knn", rounds.samples(KNN) as f64);
        m.set("samples.write", rounds.samples(WRITE) as f64);
        m.set("rounds", rounds.rounds() as f64);
    }

    /// Folds the traced pass into the report: span statistics, the trace
    /// file, and what tracing cost against the same operations bare.
    pub fn set_trace(&mut self, cfg: &Config, pass: &TracedPass) -> Result<(), String> {
        let tracer = &pass.tracer;
        let m = &mut self.metrics;
        let self_us = tracer.self_time_p50_us();
        m.set_opt("trace.request_self_us", self_us.get("request").copied());
        m.set_opt("trace.net.encode_us", self_us.get("net.encode").copied());
        m.set_opt("trace.net.write_us", self_us.get("net.write").copied());
        m.set_opt("trace.net.wait_us", self_us.get("net.wait").copied());
        m.set_opt("trace.net.decode_us", self_us.get("net.decode").copied());
        m.set("trace.spans", tracer.len() as f64);
        m.set("trace.overhead_pct", pass.overhead_pct());
        self.note(
            "trace.request_children",
            tracer.child_names_of("request").join(","),
        );
        let path = cfg.trace_path();
        tracer
            .write_json(&path, &cfg.workload, cfg.seed)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        self.note("trace.file", path.display());
        Ok(())
    }
}

/// One round: `round_len` operations from `pool`, continuing at `cursor`
/// and wrapping around; `op` performs one operation and is timed on its
/// own, under the latency class `class_of` names.  Closed loop: the next
/// operation starts when the previous returned.
pub fn timed_round<Q>(
    pool: &[Q],
    cursor: &mut usize,
    round_len: usize,
    rounds: &mut Rounds,
    class_of: impl Fn(&Q) -> usize,
    mut op: impl FnMut(&Q),
) {
    let round_start = Instant::now();
    for _ in 0..round_len {
        let q = &pool[*cursor];
        *cursor = (*cursor + 1) % pool.len();
        let t = Instant::now();
        op(q);
        rounds.record(class_of(q), nanos_u32(t.elapsed()));
    }
    rounds.end_round(round_len, round_start.elapsed());
}

/// Runs [`timed_round`]s until `budget` is spent.
pub fn timed_rounds<Q>(
    pool: &[Q],
    round_len: usize,
    budget: Duration,
    class_of: impl Fn(&Q) -> usize,
    mut op: impl FnMut(&Q),
) -> Rounds {
    let mut rounds = Rounds::default();
    let mut cursor = 0;
    let start = Instant::now();
    while keep_going(rounds.rounds(), start, budget) {
        timed_round(
            pool,
            &mut cursor,
            round_len,
            &mut rounds,
            &class_of,
            &mut op,
        );
    }
    rounds
}

/// Whether another round of a time-bounded phase should start.
pub fn keep_going(rounds_done: usize, start: Instant, budget: Duration) -> bool {
    rounds_done < MIN_ROUNDS || start.elapsed() < budget
}

/// The latency class of a read.
pub fn read_class(q: &MixedQuery) -> usize {
    match q {
        MixedQuery::Point(_) => crate::stats::POINT,
        MixedQuery::Window(_) => crate::stats::WINDOW,
        MixedQuery::Knn(..) => crate::stats::KNN,
    }
}

/// One round's slice of a read/write stream: `len` operations drawn by
/// `datagen::queries::read_write_workload` from a seed derived from the run
/// seed and the round number.
///
/// The generator numbers its inserts from `points.len()` in every call, so
/// ids of round `r` are shifted into a range of their own; deletes of
/// earlier inserts of the same round shift with them.  The point with id 0
/// is never deleted: `Rsmi::delete` reads id 0 as "any id at this
/// location", which the server can only replay with a full rebuild.
pub fn stream_round(
    points: &[Point],
    len: usize,
    write_ratio: f64,
    seed: u64,
    round: usize,
) -> Vec<ServeOp> {
    let n = points.len() as u64;
    let shift = round as u64 * len as u64;
    let remap = |mut p: Point| {
        if p.id >= n {
            p.id += shift;
        } else if p.id == 0 {
            p = points[1];
        }
        p
    };
    let round_seed = seed ^ (round as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut ops = datagen::queries::read_write_workload(
        points,
        WindowSpec::default(),
        K,
        len,
        write_ratio,
        round_seed,
    );
    for op in &mut ops {
        match op {
            ServeOp::Insert(p) => *p = remap(*p),
            ServeOp::Delete(p) => *p = remap(*p),
            ServeOp::Read(_) => {}
        }
    }
    ops
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` is
/// not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
