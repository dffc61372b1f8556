//! Concurrency contract of the telemetry registry (`crates/obs`): writer
//! threads hammer counters, gauges, and histograms while a reader thread
//! snapshots continuously — snapshots must always decode, counters must
//! never go backwards, and the final totals must equal the sum of every
//! thread's contribution exactly (nothing lost, nothing double-counted).
//! The wire side mirrors `tests/snapshot_roundtrip.rs`: every snapshot,
//! carried in a `STATS` or `EVENTS` response, must survive encode → decode
//! → re-encode byte-identically.

use net::Response;
use obs::{EventKind, EventsSnapshot, MetricsRegistry, MetricsSnapshot, Telemetry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const WRITERS: usize = 8;
const OPS_PER_WRITER: u64 = 20_000;

/// Sends `metrics` through a `STATS` response's codec: it must decode, and
/// re-encode byte-identically.  Returns the decoded snapshot.
fn stats_roundtrip(metrics: MetricsSnapshot, what: &str) -> MetricsSnapshot {
    let bytes = Response::Stats { seq: 0, metrics }.encode();
    let decoded = Response::decode(&bytes).unwrap_or_else(|e| panic!("{what} decodes: {e}"));
    assert_eq!(decoded.encode(), bytes, "re-encode is byte-identical");
    match decoded {
        Response::Stats { metrics, .. } => metrics,
        other => panic!("{what} decoded as {other:?}"),
    }
}

/// The same for `events` through an `EVENTS` response.
fn events_roundtrip(events: EventsSnapshot) -> EventsSnapshot {
    let bytes = Response::Events { seq: 0, events }.encode();
    let decoded = Response::decode(&bytes).expect("events decode");
    assert_eq!(decoded.encode(), bytes, "re-encode is byte-identical");
    match decoded {
        Response::Events { events, .. } => events,
        other => panic!("events decoded as {other:?}"),
    }
}

#[test]
fn concurrent_hammering_loses_nothing_and_snapshots_stay_decodable() {
    let registry = Arc::new(MetricsRegistry::new());
    let stop = Arc::new(AtomicBool::new(false));

    // A reader snapshotting as fast as it can while the writers run: every
    // snapshot must encode/decode byte-identically and the shared counter
    // must be monotone across snapshots.
    let reader = {
        let registry = Arc::clone(&registry);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut snapshots = 0u64;
            let mut last_shared = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let snap = registry.snapshot();
                stats_roundtrip(snap.clone(), "mid-run snapshot");
                let shared = snap.counter("shared.ops").unwrap_or(0);
                assert!(
                    shared >= last_shared,
                    "counter went backwards: {last_shared} -> {shared}"
                );
                last_shared = shared;
                snapshots += 1;
            }
            snapshots
        })
    };

    std::thread::scope(|scope| {
        for t in 0..WRITERS {
            let registry = Arc::clone(&registry);
            scope.spawn(move || {
                // Per-thread handles: the Arc-backed clones all hit the
                // same atomics as fresh name lookups would.
                let shared = registry.counter("shared.ops");
                let own = registry.counter(&format!("writer.{t}.ops"));
                let gauge = registry.gauge("shared.level");
                let hist = registry.histogram("shared.latency");
                for i in 0..OPS_PER_WRITER {
                    shared.inc();
                    own.inc();
                    gauge.add(1);
                    gauge.add(-1);
                    hist.record(i % 1_000);
                }
            });
        }
    });
    stop.store(true, Ordering::Relaxed);
    let snapshots_taken = reader.join().expect("reader thread");
    assert!(snapshots_taken > 0, "the reader never snapshotted");

    // Exact totals: the shared counter saw every increment, the per-thread
    // counters partition it, the gauge's +1/-1 pairs cancel, and the
    // histogram counted every record with a true sum.
    let total = WRITERS as u64 * OPS_PER_WRITER;
    let finale = registry.snapshot();
    assert_eq!(finale.counter("shared.ops"), Some(total));
    let per_thread: u64 = (0..WRITERS)
        .map(|t| finale.counter(&format!("writer.{t}.ops")).unwrap())
        .sum();
    assert_eq!(per_thread, total);
    assert_eq!(finale.gauge("shared.level"), Some(0));
    let hist = finale.histogram("shared.latency").expect("histogram");
    assert_eq!(hist.count, total);
    let sum_per_writer: u64 = (0..OPS_PER_WRITER).map(|i| i % 1_000).sum();
    assert_eq!(hist.sum, sum_per_writer * WRITERS as u64);
    assert_eq!(hist.min, 0);
    assert_eq!(hist.max, 999);

    // The final snapshot round-trips byte-identically too.
    let decoded = stats_roundtrip(finale.clone(), "final snapshot");
    assert_eq!(decoded, finale);
}

#[test]
fn concurrent_journal_keeps_sequence_contiguous_and_round_trips() {
    let telemetry = Arc::new(Telemetry::with_journal_capacity(64 * WRITERS));
    std::thread::scope(|scope| {
        for t in 0..WRITERS {
            let telemetry = Arc::clone(&telemetry);
            scope.spawn(move || {
                for _ in 0..64 {
                    telemetry
                        .journal
                        .record(EventKind::ConnOpen { conn: t as u64 });
                }
            });
        }
    });
    let snap = telemetry.journal.snapshot();
    // Nothing was evicted (capacity == records), so the sequence numbers
    // are exactly 1..=N in order regardless of thread interleaving.
    assert_eq!(snap.dropped, 0);
    assert_eq!(snap.events.len(), WRITERS * 64);
    for (i, e) in snap.events.iter().enumerate() {
        assert_eq!(e.seq, i as u64 + 1);
    }
    events_roundtrip(snap);
}
