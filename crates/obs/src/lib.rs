//! Always-on runtime telemetry for the serving stack.
//!
//! The serving layers (`server`, `net`, `router`; the engine's costs arrive
//! as the `common::QueryStats` its queries charge) record into two
//! primitives, both designed so the hot path touches only atomics:
//!
//! * [`MetricsRegistry`] — named monotone counters, gauges, and
//!   fixed-bucket log-scale latency [`Histogram`]s.  Registration takes a
//!   short-lived lock once; recording through the returned handles is
//!   lock-free (`AtomicU64` adds).  A [`MetricsSnapshot`] is a consistent
//!   *per-metric* point-in-time read (counters are monotone, so totals read
//!   after writers quiesce are exact).
//! * [`EventJournal`] — a bounded ring buffer of structured lifecycle
//!   [`Event`]s (epoch swaps, compaction start/end with pause duration,
//!   overload sheds, connection open/close, snapshot loads).  Lifecycle
//!   events are rare, so a plain mutex-guarded ring is honest and cheap;
//!   when the ring overflows, the oldest events are dropped and counted.
//!
//! A [`MetricsSnapshot`] or [`EventsSnapshot`] travels over the `net` wire
//! protocol (`STATS` / `EVENTS` request tags); `net::wire` encodes and
//! decodes it, so this crate holds only the telemetry itself.
//!
//! Percentile extraction ([`HistogramSnapshot::percentile`]) follows the
//! same nearest-rank convention as the load generator in
//! `crates/bench/src/netload.rs`, so a histogram p99 scraped over the wire
//! is directly comparable with the client-side measured p99.
//!
//! This crate is hand-rolled and dependency-free by design: the build
//! environment is offline (no `prometheus`, no `tracing`), and sitting at
//! the bottom of the dependency graph lets `server`, `net`, and the CLI all
//! share one [`Telemetry`] instance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod journal;
mod metrics;

pub use journal::{Event, EventJournal, EventKind, EventsSnapshot};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, HIST_BUCKETS,
};

/// The shared telemetry sink of one serving process: one metrics registry
/// plus one event journal.  The `SpatialServer` owns an
/// `Arc<Telemetry>`; the network layer and the CLI record into (and
/// snapshot from) the same instance, so a single `STATS` scrape sees every
/// layer.
pub struct Telemetry {
    /// Named counters, gauges, and histograms.
    pub metrics: MetricsRegistry,
    /// Structured lifecycle events.
    pub journal: EventJournal,
}

/// Default bound on retained journal events; old events are dropped (and
/// counted) once a process has produced more lifecycle events than this.
pub(crate) const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

impl Telemetry {
    /// Creates an empty telemetry sink with the default journal capacity.
    pub fn new() -> Self {
        Self::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// Creates an empty telemetry sink retaining at most `capacity` journal
    /// events.
    pub fn with_journal_capacity(capacity: usize) -> Self {
        Self {
            metrics: MetricsRegistry::new(),
            journal: EventJournal::with_capacity(capacity),
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_bundles_a_registry_and_a_journal() {
        let t = Telemetry::new();
        t.metrics.counter("x").inc();
        t.journal.record(EventKind::ServerStart { points: 10 });
        assert_eq!(t.metrics.snapshot().counter("x"), Some(1));
        assert_eq!(t.journal.snapshot().events.len(), 1);
    }

    #[test]
    fn telemetry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Telemetry>();
    }
}
