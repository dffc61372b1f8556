//! Bounded ring-buffer journal of structured lifecycle events.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// One structured lifecycle event.  All payload fields are `u64` so the
/// wire encoding stays fixed-width per tag and trivially versionable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The serving process came up with `points` initially indexed.
    ServerStart {
        /// Points in the freshly built base index.
        points: u64,
    },
    /// A persisted snapshot was loaded and is now serving.
    SnapshotLoad {
        /// Points in the loaded index.
        points: u64,
    },
    /// Background compaction began folding the delta into the base.
    CompactionStart {
        /// Epoch id being compacted away.
        epoch: u64,
        /// Buffered delta operations at capture time.
        delta_ops: u64,
    },
    /// Background compaction finished and the new epoch is live.
    CompactionEnd {
        /// New epoch id now serving.
        epoch: u64,
        /// Writer-visible pause while the epoch swapped, microseconds.
        pause_us: u64,
        /// Off-lock rebuild duration, microseconds.
        rebuild_us: u64,
        /// Points in the rebuilt base index.
        points: u64,
    },
    /// Readers were switched to a new epoch.
    EpochSwap {
        /// Epoch id now serving reads.
        epoch: u64,
        /// Operation sequence number at the swap.
        seq: u64,
    },
    /// Admission control shed load (rate-limited by the recorder; the
    /// exact shed totals live in the metrics counters).
    OverloadShed {
        /// Cumulative sheds at the time of this event.
        shed_total: u64,
    },
    /// A client connection was accepted.
    ConnOpen {
        /// Server-assigned connection id.
        conn: u64,
    },
    /// A client connection closed.
    ConnClose {
        /// Server-assigned connection id.
        conn: u64,
    },
    /// The serving process shut down cleanly.
    Shutdown {
        /// Process uptime, microseconds.
        uptime_us: u64,
        /// In-flight requests drained during shutdown.
        drained: u64,
    },
    /// A distributed router stopped routing to one shard replica after a
    /// connection failure and failed over to the remaining replicas (read
    /// capacity degrades; correctness does not).
    ReplicaFailover {
        /// Shard whose replica set degraded.
        shard: u64,
        /// Index of the replica taken out of rotation.
        replica: u64,
    },
    /// An incremental (partial) compaction finished: stale subtrees were
    /// retrained in place and the delta folded, without rebuilding the base
    /// structure.
    PartialCompactionEnd {
        /// New epoch id now serving.
        epoch: u64,
        /// Writer-visible pause while the epoch swapped, microseconds.
        pause_us: u64,
        /// Off-lock partial-rebuild duration, microseconds.
        rebuild_us: u64,
        /// Subtrees retrained by this pass.
        subtrees: u64,
    },
    /// An admitted request's executor panicked; the request was answered
    /// with an internal error and the connection kept serving.
    ExecPanic {
        /// The request's class: its index into `net`'s request classes.
        class: u64,
    },
}

impl EventKind {
    /// Stable wire tag for this kind (also the schema documented in
    /// `docs/ARCHITECTURE.md`).
    pub fn tag(&self) -> u8 {
        match self {
            EventKind::ServerStart { .. } => 1,
            EventKind::SnapshotLoad { .. } => 2,
            EventKind::CompactionStart { .. } => 3,
            EventKind::CompactionEnd { .. } => 4,
            EventKind::EpochSwap { .. } => 5,
            EventKind::OverloadShed { .. } => 6,
            EventKind::ConnOpen { .. } => 7,
            EventKind::ConnClose { .. } => 8,
            EventKind::Shutdown { .. } => 9,
            EventKind::PartialCompactionEnd { .. } => 10,
            EventKind::ReplicaFailover { .. } => 11,
            EventKind::ExecPanic { .. } => 12,
        }
    }

    /// Short stable name, e.g. for table rendering.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::ServerStart { .. } => "server-start",
            EventKind::SnapshotLoad { .. } => "snapshot-load",
            EventKind::CompactionStart { .. } => "compaction-start",
            EventKind::CompactionEnd { .. } => "compaction-end",
            EventKind::EpochSwap { .. } => "epoch-swap",
            EventKind::OverloadShed { .. } => "overload-shed",
            EventKind::ConnOpen { .. } => "conn-open",
            EventKind::ConnClose { .. } => "conn-close",
            EventKind::Shutdown { .. } => "shutdown",
            EventKind::PartialCompactionEnd { .. } => "partial-compaction-end",
            EventKind::ReplicaFailover { .. } => "replica-failover",
            EventKind::ExecPanic { .. } => "exec-panic",
        }
    }

    /// Human-readable one-line description of the payload.
    pub fn describe(&self) -> String {
        match *self {
            EventKind::ServerStart { points } => format!("points={points}"),
            EventKind::SnapshotLoad { points } => format!("points={points}"),
            EventKind::CompactionStart { epoch, delta_ops } => {
                format!("epoch={epoch} delta_ops={delta_ops}")
            }
            EventKind::CompactionEnd {
                epoch,
                pause_us,
                rebuild_us,
                points,
            } => {
                format!("epoch={epoch} pause_us={pause_us} rebuild_us={rebuild_us} points={points}")
            }
            EventKind::EpochSwap { epoch, seq } => format!("epoch={epoch} seq={seq}"),
            EventKind::OverloadShed { shed_total } => format!("shed_total={shed_total}"),
            EventKind::ConnOpen { conn } => format!("conn={conn}"),
            EventKind::ConnClose { conn } => format!("conn={conn}"),
            EventKind::Shutdown { uptime_us, drained } => {
                format!("uptime_us={uptime_us} drained={drained}")
            }
            EventKind::PartialCompactionEnd {
                epoch,
                pause_us,
                rebuild_us,
                subtrees,
            } => {
                format!(
                    "epoch={epoch} pause_us={pause_us} rebuild_us={rebuild_us} subtrees={subtrees}"
                )
            }
            EventKind::ReplicaFailover { shard, replica } => {
                format!("shard={shard} replica={replica}")
            }
            EventKind::ExecPanic { class } => format!("class={class}"),
        }
    }
}

/// One journal entry: a monotone sequence number, microseconds since the
/// journal was created, and the event payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Monotone per-journal sequence number, starting at 1.
    pub seq: u64,
    /// Microseconds since journal creation (≈ process start).
    pub at_us: u64,
    /// The structured payload.
    pub kind: EventKind,
}

struct Ring {
    events: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded ring buffer of [`Event`]s.  Lifecycle events are rare (a few
/// per compaction cycle, one per connection), so a mutex-guarded ring is
/// honest and cheap; when full, the oldest events are evicted and counted
/// in `dropped`.
pub struct EventJournal {
    start: Instant,
    capacity: usize,
    ring: Mutex<Ring>,
}

impl EventJournal {
    /// Creates an empty journal retaining at most `capacity` events
    /// (clamped to at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            start: Instant::now(),
            capacity,
            ring: Mutex::new(Ring {
                events: VecDeque::with_capacity(capacity.min(64)),
                next_seq: 1,
                dropped: 0,
            }),
        }
    }

    /// Microseconds elapsed since the journal (≈ the process) started.
    pub fn uptime_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Appends an event, evicting the oldest if the ring is full.  Returns
    /// the assigned sequence number.
    pub fn record(&self, kind: EventKind) -> u64 {
        let at_us = self.uptime_us();
        let mut ring = self.ring.lock().expect("journal lock poisoned");
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.events.len() == self.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(Event { seq, at_us, kind });
        seq
    }

    /// A copy of everything currently retained.
    pub fn snapshot(&self) -> EventsSnapshot {
        self.since(0)
    }

    /// A copy of retained events with `seq > after_seq` — lets a poller
    /// fetch only what it has not seen yet.
    pub fn since(&self, after_seq: u64) -> EventsSnapshot {
        let ring = self.ring.lock().expect("journal lock poisoned");
        EventsSnapshot {
            dropped: ring.dropped,
            events: ring
                .events
                .iter()
                .filter(|e| e.seq > after_seq)
                .copied()
                .collect(),
        }
    }
}

/// A point-in-time copy of the journal; the payload the wire `EVENTS`
/// response carries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventsSnapshot {
    /// Events evicted from the ring before this snapshot was taken.
    pub dropped: u64,
    /// Retained events, ascending by `seq`.
    pub events: Vec<Event>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_monotone_seq() {
        let j = EventJournal::with_capacity(16);
        assert_eq!(j.record(EventKind::ServerStart { points: 5 }), 1);
        assert_eq!(j.record(EventKind::EpochSwap { epoch: 1, seq: 10 }), 2);
        let snap = j.snapshot();
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].seq, 1);
        assert_eq!(snap.events[1].seq, 2);
        assert!(snap.events[0].at_us <= snap.events[1].at_us);
        assert_eq!(snap.events[0].kind, EventKind::ServerStart { points: 5 });
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let j = EventJournal::with_capacity(3);
        for i in 0..5u64 {
            j.record(EventKind::ConnOpen { conn: i });
        }
        let snap = j.snapshot();
        assert_eq!(snap.dropped, 2);
        assert_eq!(snap.events.len(), 3);
        // Oldest two evicted: seqs 3, 4, 5 remain.
        assert_eq!(
            snap.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
    }

    #[test]
    fn since_filters_already_seen_events() {
        let j = EventJournal::with_capacity(8);
        for i in 0..4u64 {
            j.record(EventKind::ConnClose { conn: i });
        }
        let tail = j.since(2);
        assert_eq!(
            tail.events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert!(j.since(100).events.is_empty());
    }

    #[test]
    fn tags_and_names_are_stable() {
        let kinds = [
            EventKind::ServerStart { points: 0 },
            EventKind::SnapshotLoad { points: 0 },
            EventKind::CompactionStart {
                epoch: 0,
                delta_ops: 0,
            },
            EventKind::CompactionEnd {
                epoch: 0,
                pause_us: 0,
                rebuild_us: 0,
                points: 0,
            },
            EventKind::EpochSwap { epoch: 0, seq: 0 },
            EventKind::OverloadShed { shed_total: 0 },
            EventKind::ConnOpen { conn: 0 },
            EventKind::ConnClose { conn: 0 },
            EventKind::Shutdown {
                uptime_us: 0,
                drained: 0,
            },
            EventKind::PartialCompactionEnd {
                epoch: 0,
                pause_us: 0,
                rebuild_us: 0,
                subtrees: 0,
            },
            EventKind::ReplicaFailover {
                shard: 0,
                replica: 0,
            },
            EventKind::ExecPanic { class: 0 },
        ];
        for (i, k) in kinds.iter().enumerate() {
            assert_eq!(k.tag() as usize, i + 1);
            assert!(!k.name().is_empty());
            assert!(!k.describe().is_empty());
        }
    }
}
