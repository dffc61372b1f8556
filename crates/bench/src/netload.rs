//! Closed-loop load generator for the network serving front-end
//! (`crates/net`), reporting tail latency per query class.
//!
//! Each connection runs one request at a time, so latency is pure service
//! time, the offered load adapts to the server, and every response is
//! matched to its request — which is what lets [`reconcile_stats`] hold the
//! server's per-class counters to the client's counts exactly.  Shed
//! responses (typed `OVERLOAD`) are counted, not timed.  (Wire latency
//! at scale is the `wire-read-200k` workload of `benchmark/`.)
//!
//! The generator is deterministic for a `(data, seed)` pair; the workload
//! covers all five query classes plus insert/delete writes.

use crate::print_table;
use datagen::queries::{
    join_points, range_query_centers, read_write_workload, MixedQuery, ServeOp, WindowSpec,
};
use geom::{Point, Rect};
use net::{NetClient, NetError};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Number of probe points carried by one distance-join probe request.
pub const JOIN_PROBES_PER_REQUEST: usize = 8;

/// One load-generator operation (superset of the read/write serving
/// stream: adds the distance-range and join-probe classes).
#[derive(Debug, Clone)]
pub enum NetOp {
    /// Point lookup.
    Point(Point),
    /// Window query.
    Window(Rect),
    /// kNN query.
    Knn(Point, u32),
    /// Distance-range query.
    Range(Point, f64),
    /// Distance-join probe batch.
    Join(Vec<Point>, f64),
    /// Insert write.
    Insert(Point),
    /// Delete write.
    Delete(Point),
}

impl NetOp {
    /// Stable class label used as the row key of the latency tables.
    pub fn class(&self) -> &'static str {
        match self {
            NetOp::Point(_) => "point",
            NetOp::Window(_) => "window",
            NetOp::Knn(..) => "knn",
            NetOp::Range(..) => "range",
            NetOp::Join(..) => "join-probe",
            NetOp::Insert(_) => "insert",
            NetOp::Delete(_) => "delete",
        }
    }
}

/// Builds one connection's deterministic op stream: the read/write serving
/// mix of [`read_write_workload`] with every 5th read turned into a
/// distance-range query and every 7th into a join-probe batch, so all five
/// query classes appear.  Insert ids (and deletes targeting them) are
/// shifted by `insert_id_base` so concurrent connections never collide.
pub fn net_workload(
    data: &[Point],
    count: usize,
    k: usize,
    radius: f64,
    write_ratio: f64,
    seed: u64,
    insert_id_base: u64,
) -> Vec<NetOp> {
    let stream = read_write_workload(data, WindowSpec::default(), k, count, write_ratio, seed);
    let centers = range_query_centers(data, count.max(1), seed ^ 0x0A11CE);
    let probe_pool = join_points(data, count.clamp(1, 1024), seed ^ 0x0B0B);
    let fresh = data.len() as u64;
    let remap = |p: Point| {
        if p.id >= fresh {
            Point::with_id(p.x, p.y, p.id + insert_id_base)
        } else {
            p
        }
    };
    let mut read_i = 0usize;
    let mut range_i = 0usize;
    let mut join_i = 0usize;
    stream
        .into_iter()
        .map(|op| match op {
            ServeOp::Insert(p) => NetOp::Insert(remap(p)),
            ServeOp::Delete(p) => NetOp::Delete(remap(p)),
            ServeOp::Read(q) => {
                read_i += 1;
                if read_i.is_multiple_of(5) {
                    let c = centers[range_i % centers.len()];
                    range_i += 1;
                    NetOp::Range(c, radius)
                } else if read_i.is_multiple_of(7) {
                    let start = (join_i * JOIN_PROBES_PER_REQUEST) % probe_pool.len();
                    join_i += 1;
                    let probes: Vec<Point> = (0..JOIN_PROBES_PER_REQUEST)
                        .map(|j| probe_pool[(start + j) % probe_pool.len()])
                        .collect();
                    NetOp::Join(probes, radius)
                } else {
                    match q {
                        MixedQuery::Point(p) => NetOp::Point(p),
                        MixedQuery::Window(w) => NetOp::Window(w),
                        MixedQuery::Knn(p, kk) => NetOp::Knn(p, kk as u32),
                    }
                }
            }
        })
        .collect()
}

/// What a load run produced: latencies per class (microseconds,
/// unsorted), shed/refused counts, and the wall-clock envelope.
#[derive(Debug, Default)]
pub struct NetLoadOutcome {
    /// Recorded latencies in microseconds, keyed by query class.
    pub latencies: BTreeMap<&'static str, Vec<f64>>,
    /// Requests shed by the server's admission control.
    pub shed: usize,
    /// Sheds per query class — the client-side mirror of the server's
    /// `net.shed.<class>` counters, so a telemetry scrape can be
    /// reconciled exactly.
    pub shed_by_class: BTreeMap<&'static str, usize>,
    /// Requests answered successfully.
    pub ok: usize,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
}

impl NetLoadOutcome {
    fn absorb(&mut self, other: NetLoadOutcome) {
        for (class, mut v) in other.latencies {
            self.latencies.entry(class).or_default().append(&mut v);
        }
        for (class, n) in other.shed_by_class {
            *self.shed_by_class.entry(class).or_default() += n;
        }
        self.shed += other.shed;
        self.ok += other.ok;
    }

    fn record_shed(&mut self, class: &'static str) {
        self.shed += 1;
        *self.shed_by_class.entry(class).or_default() += 1;
    }

    /// Successfully answered requests of one class.
    pub fn ok_of(&self, class: &str) -> usize {
        self.latencies.get(class).map_or(0, Vec::len)
    }

    /// Sheds of one class.
    pub fn shed_of(&self, class: &str) -> usize {
        self.shed_by_class.get(class).copied().unwrap_or(0)
    }

    /// Total requests that completed (answered or shed).
    pub fn total(&self) -> usize {
        self.ok + self.shed
    }

    /// Completed requests per second over the wall-clock envelope.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.total() as f64 / secs
        } else {
            0.0
        }
    }
}

/// Nearest-rank percentile (`q` in `[0, 100]`) of an ascending-sorted
/// slice; 0.0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Runs one closed-loop client per op stream (one stream = one
/// connection), each sending its ops sequentially and timing every
/// response.  Returns the merged outcome or the first connection error.
pub fn run_closed_loop(addr: &str, streams: &[Vec<NetOp>]) -> Result<NetLoadOutcome, String> {
    let started = Instant::now();
    let results: Vec<Result<NetLoadOutcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|ops| {
                scope.spawn(move || {
                    let mut client = NetClient::connect_retry(addr, Duration::from_secs(10))
                        .map_err(|e| format!("connect {addr}: {e}"))?;
                    let mut out = NetLoadOutcome::default();
                    for op in ops {
                        let class = op.class();
                        let t0 = Instant::now();
                        let result = match op {
                            NetOp::Point(p) => client.point(p).map(|_| ()),
                            NetOp::Window(w) => client.window(w).map(|_| ()),
                            NetOp::Knn(p, k) => client.knn(p, *k).map(|_| ()),
                            NetOp::Range(p, r) => client.range(p, *r).map(|_| ()),
                            NetOp::Join(probes, r) => client.join_probes(probes, *r).map(|_| ()),
                            NetOp::Insert(p) => client.insert(p).map(|_| ()),
                            NetOp::Delete(p) => client.delete(p).map(|_| ()),
                        };
                        match result {
                            Ok(()) => {
                                let us = t0.elapsed().as_secs_f64() * 1e6;
                                out.latencies.entry(class).or_default().push(us);
                                out.ok += 1;
                            }
                            Err(NetError::Overload) => out.record_shed(class),
                            Err(e) => return Err(format!("{class} query failed: {e}")),
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut merged = NetLoadOutcome::default();
    for r in results {
        merged.absorb(r?);
    }
    merged.wall = started.elapsed();
    Ok(merged)
}

/// Prints the per-class tail-latency table.  Read `p999 (us)` and
/// `max (us)` with care: the last permille of a few hundred samples is
/// noise on a shared machine.
pub fn emit_latency_table(title: &str, outcome: &NetLoadOutcome) {
    let rows: Vec<Vec<String>> = outcome
        .latencies
        .iter()
        .map(|(class, lat)| {
            let mut sorted = lat.clone();
            sorted.sort_by_key(|&v| geom::order_key(v));
            vec![
                (*class).to_string(),
                sorted.len().to_string(),
                crate::fmt(percentile(&sorted, 50.0)),
                crate::fmt(percentile(&sorted, 99.0)),
                crate::fmt(percentile(&sorted, 99.9)),
                crate::fmt(sorted.last().copied().unwrap_or(0.0)),
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "class",
            "requests",
            "p50 time (us)",
            "p99 time (us)",
            "p999 (us)",
            "max (us)",
        ],
        &rows,
    );
}

/// Prints the one-row load summary (throughput, shed counts).
pub fn emit_summary_table(title: &str, outcome: &NetLoadOutcome) {
    print_table(
        title,
        &[
            "requests",
            "answered",
            "shed",
            "wall (s)",
            "throughput (req/s)",
        ],
        &[vec![
            outcome.total().to_string(),
            outcome.ok.to_string(),
            outcome.shed.to_string(),
            crate::fmt(outcome.wall.as_secs_f64()),
            crate::fmt(outcome.throughput()),
        ]],
    );
}

/// Reconciles two server telemetry scrapes — taken before and after a load
/// run — against what the load generator itself observed.  For every
/// request class the delta of the server's `net.requests.<class>` counter
/// must equal the client-side completed count **exactly**, and likewise
/// `net.shed.<class>` against the client's typed-OVERLOAD count; the
/// server counts responses it delivered and the closed-loop client counts
/// responses it received, so any drift is a lost or double-counted
/// request.  Returns the per-class reconciliation rows (for the report
/// table) and a list of discrepancies (empty = exact match).
pub fn reconcile_stats(
    baseline: &obs::MetricsSnapshot,
    after: &obs::MetricsSnapshot,
    outcome: &NetLoadOutcome,
) -> (Vec<Vec<String>>, Vec<String>) {
    let delta = |name: &str| -> u64 {
        after
            .counter(name)
            .unwrap_or(0)
            .saturating_sub(baseline.counter(name).unwrap_or(0))
    };
    let mut rows = Vec::new();
    let mut discrepancies = Vec::new();
    for class in net::REQUEST_CLASSES {
        let client_ok = outcome.ok_of(class);
        let client_shed = outcome.shed_of(class);
        let server_ok = delta(&format!("net.requests.{class}"));
        let server_shed = delta(&format!("net.shed.{class}"));
        let matches = server_ok == client_ok as u64 && server_shed == client_shed as u64;
        if server_ok != client_ok as u64 {
            discrepancies.push(format!(
                "{class}: client completed {client_ok} but server counted {server_ok}"
            ));
        }
        if server_shed != client_shed as u64 {
            discrepancies.push(format!(
                "{class}: client saw {client_shed} sheds but server counted {server_shed}"
            ));
        }
        rows.push(vec![
            class.to_string(),
            client_ok.to_string(),
            server_ok.to_string(),
            client_shed.to_string(),
            server_shed.to_string(),
            if matches { "yes" } else { "NO" }.to_string(),
        ]);
    }
    (rows, discrepancies)
}

/// Column headers for the [`reconcile_stats`] table.
pub const RECONCILE_HEADER: [&str; 6] = [
    "class",
    "client completed",
    "server completed",
    "client shed",
    "server shed",
    "exact match",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn workload_is_deterministic_and_covers_every_class() {
        let data: Vec<Point> = (0..500)
            .map(|i| Point::with_id((i as f64 * 0.377) % 1.0, (i as f64 * 0.618) % 1.0, i))
            .collect();
        let a = net_workload(&data, 400, 5, 0.02, 0.2, 42, 1 << 33);
        let b = net_workload(&data, 400, 5, 0.02, 0.2, 42, 1 << 33);
        assert_eq!(a.len(), 400);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.class(), y.class());
        }
        let mut classes: Vec<&str> = a.iter().map(|op| op.class()).collect();
        classes.sort_unstable();
        classes.dedup();
        assert_eq!(
            classes,
            vec![
                "delete",
                "insert",
                "join-probe",
                "knn",
                "point",
                "range",
                "window"
            ]
        );
        // Insert ids are shifted past the collision base.
        for op in &a {
            if let NetOp::Insert(p) = op {
                assert!(p.id >= (1 << 33));
            }
        }
    }

    #[test]
    fn reconciliation_is_exact_and_flags_drift() {
        let registry = obs::MetricsRegistry::new();
        let baseline = registry.snapshot();
        registry.counter("net.requests.point").add(7);
        registry.counter("net.requests.insert").add(2);
        registry.counter("net.shed.window").add(1);
        let after = registry.snapshot();

        let mut out = NetLoadOutcome::default();
        out.latencies.insert("point", vec![1.0; 7]);
        out.latencies.insert("insert", vec![1.0; 2]);
        out.record_shed("window");
        out.ok = 9;

        let (rows, bad) = reconcile_stats(&baseline, &after, &out);
        assert!(bad.is_empty(), "{bad:?}");
        assert_eq!(rows.len(), net::REQUEST_CLASSES.len());
        assert!(rows.iter().all(|r| r[5] == "yes"), "{rows:?}");

        // A lost response shows up as a per-class discrepancy.
        registry.counter("net.requests.point").inc();
        let drifted = registry.snapshot();
        let (rows, bad) = reconcile_stats(&baseline, &drifted, &out);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("point"), "{bad:?}");
        assert!(rows.iter().any(|r| r[5] == "NO"));
    }
}
