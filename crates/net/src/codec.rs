//! The versioned telemetry payloads that [`crate::wire`]'s `STATS` and
//! `EVENTS` responses carry: an `obs::MetricsSnapshot` or
//! `obs::EventsSnapshot`, encoded with `persist`'s byte codec.  The wire is
//! their only producer and consumer.
//!
//! A payload opens with a `u16` version stamp; element counts are `u32`,
//! metric names are `u16`-length-prefixed UTF-8.  Decoding validates every
//! count against the bytes present before any allocation, keeps histogram
//! buckets in range and strictly ascending, keeps event sequence numbers
//! strictly ascending, knows every event tag's width, and refuses trailing
//! bytes.

use crate::NetError;
use obs::{Event, EventKind, EventsSnapshot, HistogramSnapshot, MetricsSnapshot, HIST_BUCKETS};
use persist::{ByteReader, ByteWriter, DecodeError, LenWidth};

/// Version stamp leading every telemetry payload.
const VERSION: u16 = 1;

/// Longest metric name the codec accepts (defensive bound; real names are
/// short dotted paths like `net.latency_us.knn`).
const MAX_NAME_LEN: usize = 256;

/// A payload writer with the version stamp already written.
fn writer() -> ByteWriter {
    let mut w = ByteWriter::with_capacity(LenWidth::U32, 256);
    w.put_u16(VERSION);
    w
}

/// A payload reader past a version stamp it has checked.
fn reader(bytes: &[u8]) -> Result<ByteReader<'_>, NetError> {
    let mut r = ByteReader::new(bytes, LenWidth::U32);
    let version = r.get_u16()?;
    if version != VERSION {
        return Err(NetError::Corrupt(format!(
            "unsupported telemetry payload version {version}"
        )));
    }
    Ok(r)
}

fn put_name(w: &mut ByteWriter, s: &str) {
    debug_assert!(s.len() <= MAX_NAME_LEN);
    let n = s.len().min(MAX_NAME_LEN);
    w.put_u16(n as u16);
    w.put_raw(&s.as_bytes()[..n]);
}

fn get_name(r: &mut ByteReader<'_>) -> Result<String, DecodeError> {
    let len = usize::from(r.get_u16()?);
    if len > MAX_NAME_LEN {
        return Err(DecodeError::Corrupt(format!("name length {len} too large")));
    }
    r.get_utf8(len)
}

/// Encodes a metrics snapshot as the `STATS` payload.
pub(crate) fn encode_metrics(m: &MetricsSnapshot) -> Vec<u8> {
    let mut w = writer();
    w.put_len(m.counters.len());
    for (name, v) in &m.counters {
        put_name(&mut w, name);
        w.put_u64(*v);
    }
    w.put_len(m.gauges.len());
    for (name, v) in &m.gauges {
        put_name(&mut w, name);
        w.put_i64(*v);
    }
    w.put_len(m.histograms.len());
    for (name, h) in &m.histograms {
        put_name(&mut w, name);
        w.put_u64(h.count);
        w.put_u64(h.sum);
        w.put_u64(h.min);
        w.put_u64(h.max);
        w.put_len(h.buckets.len());
        for (idx, n) in &h.buckets {
            w.put_u16(*idx);
            w.put_u64(*n);
        }
    }
    w.into_bytes()
}

/// Decodes a payload produced by [`encode_metrics`].
pub(crate) fn decode_metrics(bytes: &[u8]) -> Result<MetricsSnapshot, NetError> {
    let mut r = reader(bytes)?;
    // Minimum element sizes: name length prefix (2) + value.
    let n_counters = r.get_len(2 + 8)?;
    let mut counters = Vec::with_capacity(n_counters);
    for _ in 0..n_counters {
        let name = get_name(&mut r)?;
        let v = r.get_u64()?;
        counters.push((name, v));
    }
    let n_gauges = r.get_len(2 + 8)?;
    let mut gauges = Vec::with_capacity(n_gauges);
    for _ in 0..n_gauges {
        let name = get_name(&mut r)?;
        let v = r.get_i64()?;
        gauges.push((name, v));
    }
    // Histogram header: name prefix (2) + count/sum/min/max (32) +
    // bucket count (4).
    let n_hists = r.get_len(2 + 32 + 4)?;
    let mut histograms = Vec::with_capacity(n_hists);
    for _ in 0..n_hists {
        let name = get_name(&mut r)?;
        let count = r.get_u64()?;
        let sum = r.get_u64()?;
        let min = r.get_u64()?;
        let max = r.get_u64()?;
        let n_buckets = r.get_len(2 + 8)?;
        if n_buckets > HIST_BUCKETS {
            return Err(NetError::Corrupt(format!(
                "histogram {name:?} announces {n_buckets} buckets (max {HIST_BUCKETS})"
            )));
        }
        let mut buckets = Vec::with_capacity(n_buckets);
        let mut last_idx: Option<u16> = None;
        for _ in 0..n_buckets {
            let idx = r.get_u16()?;
            let n = r.get_u64()?;
            if idx as usize >= HIST_BUCKETS {
                return Err(NetError::Corrupt(format!(
                    "histogram {name:?} bucket index {idx} out of range"
                )));
            }
            if last_idx.is_some_and(|last| idx <= last) {
                return Err(NetError::Corrupt(format!(
                    "histogram {name:?} bucket indices not strictly ascending"
                )));
            }
            last_idx = Some(idx);
            buckets.push((idx, n));
        }
        histograms.push((
            name,
            HistogramSnapshot {
                count,
                sum,
                min,
                max,
                buckets,
            },
        ));
    }
    r.finish()?;
    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
    })
}

/// Fixed payload width (in `u64`s) for each event tag.
fn event_field_count(tag: u8) -> Option<usize> {
    match tag {
        1 | 2 => Some(1), // ServerStart, SnapshotLoad
        3 => Some(2),     // CompactionStart
        4 => Some(4),     // CompactionEnd
        5 => Some(2),     // EpochSwap
        6 => Some(1),     // OverloadShed
        7 | 8 => Some(1), // ConnOpen, ConnClose
        9 => Some(2),     // Shutdown
        10 => Some(4),    // PartialCompactionEnd
        11 => Some(2),    // ReplicaFailover
        12 => Some(1),    // ExecPanic
        _ => None,
    }
}

fn encode_kind(w: &mut ByteWriter, kind: &EventKind) {
    w.put_u8(kind.tag());
    match *kind {
        EventKind::ServerStart { points } | EventKind::SnapshotLoad { points } => {
            w.put_u64(points);
        }
        EventKind::CompactionStart { epoch, delta_ops } => {
            w.put_u64(epoch);
            w.put_u64(delta_ops);
        }
        EventKind::CompactionEnd {
            epoch,
            pause_us,
            rebuild_us,
            points,
        } => {
            w.put_u64(epoch);
            w.put_u64(pause_us);
            w.put_u64(rebuild_us);
            w.put_u64(points);
        }
        EventKind::EpochSwap { epoch, seq } => {
            w.put_u64(epoch);
            w.put_u64(seq);
        }
        EventKind::OverloadShed { shed_total } => w.put_u64(shed_total),
        EventKind::ExecPanic { class } => w.put_u64(class),
        EventKind::ConnOpen { conn } | EventKind::ConnClose { conn } => w.put_u64(conn),
        EventKind::PartialCompactionEnd {
            epoch,
            pause_us,
            rebuild_us,
            subtrees,
        } => {
            w.put_u64(epoch);
            w.put_u64(pause_us);
            w.put_u64(rebuild_us);
            w.put_u64(subtrees);
        }
        EventKind::Shutdown { uptime_us, drained } => {
            w.put_u64(uptime_us);
            w.put_u64(drained);
        }
        EventKind::ReplicaFailover { shard, replica } => {
            w.put_u64(shard);
            w.put_u64(replica);
        }
    }
}

fn decode_kind(r: &mut ByteReader<'_>) -> Result<EventKind, NetError> {
    let tag = r.get_u8()?;
    let n_fields = event_field_count(tag)
        .ok_or_else(|| NetError::Corrupt(format!("unknown event tag {tag}")))?;
    let mut f = [0u64; 4];
    for slot in f.iter_mut().take(n_fields) {
        *slot = r.get_u64()?;
    }
    Ok(match tag {
        1 => EventKind::ServerStart { points: f[0] },
        2 => EventKind::SnapshotLoad { points: f[0] },
        3 => EventKind::CompactionStart {
            epoch: f[0],
            delta_ops: f[1],
        },
        4 => EventKind::CompactionEnd {
            epoch: f[0],
            pause_us: f[1],
            rebuild_us: f[2],
            points: f[3],
        },
        5 => EventKind::EpochSwap {
            epoch: f[0],
            seq: f[1],
        },
        6 => EventKind::OverloadShed { shed_total: f[0] },
        7 => EventKind::ConnOpen { conn: f[0] },
        8 => EventKind::ConnClose { conn: f[0] },
        9 => EventKind::Shutdown {
            uptime_us: f[0],
            drained: f[1],
        },
        10 => EventKind::PartialCompactionEnd {
            epoch: f[0],
            pause_us: f[1],
            rebuild_us: f[2],
            subtrees: f[3],
        },
        11 => EventKind::ReplicaFailover {
            shard: f[0],
            replica: f[1],
        },
        12 => EventKind::ExecPanic { class: f[0] },
        _ => unreachable!("tag validated above"),
    })
}

/// Encodes an events snapshot as the `EVENTS` payload.
pub(crate) fn encode_events(e: &EventsSnapshot) -> Vec<u8> {
    let mut w = writer();
    w.put_u64(e.dropped);
    w.put_len(e.events.len());
    for event in &e.events {
        w.put_u64(event.seq);
        w.put_u64(event.at_us);
        encode_kind(&mut w, &event.kind);
    }
    w.into_bytes()
}

/// Decodes a payload produced by [`encode_events`].
pub(crate) fn decode_events(bytes: &[u8]) -> Result<EventsSnapshot, NetError> {
    let mut r = reader(bytes)?;
    let dropped = r.get_u64()?;
    // Minimum event size: seq (8) + at_us (8) + tag (1) + one field (8).
    let n_events = r.get_len(8 + 8 + 1 + 8)?;
    let mut events = Vec::with_capacity(n_events);
    let mut last_seq: Option<u64> = None;
    for _ in 0..n_events {
        let seq = r.get_u64()?;
        let at_us = r.get_u64()?;
        let kind = decode_kind(&mut r)?;
        if last_seq.is_some_and(|last| seq <= last) {
            return Err(NetError::Corrupt(
                "event sequence numbers not strictly ascending".into(),
            ));
        }
        last_seq = Some(seq);
        events.push(Event { seq, at_us, kind });
    }
    r.finish()?;
    Ok(EventsSnapshot { dropped, events })
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{EventJournal, MetricsRegistry};

    fn sample_metrics() -> MetricsSnapshot {
        let reg = MetricsRegistry::new();
        reg.counter("net.requests.point").add(42);
        reg.counter("net.shed.knn").add(3);
        reg.gauge("server.delta_ops").set(-7);
        let h = reg.histogram("net.latency_us.window");
        for v in [1u64, 5, 800, 80_000, 1_000_000] {
            h.record(v);
        }
        reg.snapshot()
    }

    fn sample_events() -> EventsSnapshot {
        let j = EventJournal::with_capacity(8);
        j.record(EventKind::ServerStart { points: 100 });
        j.record(EventKind::CompactionStart {
            epoch: 1,
            delta_ops: 50,
        });
        j.record(EventKind::CompactionEnd {
            epoch: 2,
            pause_us: 120,
            rebuild_us: 9000,
            points: 150,
        });
        j.record(EventKind::EpochSwap { epoch: 2, seq: 150 });
        j.record(EventKind::OverloadShed { shed_total: 12 });
        j.record(EventKind::ConnOpen { conn: 1 });
        j.record(EventKind::ConnClose { conn: 1 });
        j.record(EventKind::Shutdown {
            uptime_us: 1_000_000,
            drained: 4,
        });
        j.record(EventKind::ReplicaFailover {
            shard: 1,
            replica: 0,
        });
        j.record(EventKind::ExecPanic { class: 2 });
        j.snapshot()
    }

    #[test]
    fn metrics_roundtrip_is_byte_identical() {
        let snap = sample_metrics();
        let bytes = encode_metrics(&snap);
        let back = decode_metrics(&bytes).expect("decode");
        assert_eq!(back, snap);
        assert_eq!(
            encode_metrics(&back),
            bytes,
            "re-encode must be byte-identical"
        );
    }

    #[test]
    fn events_roundtrip_is_byte_identical() {
        let snap = sample_events();
        let bytes = encode_events(&snap);
        let back = decode_events(&bytes).expect("decode");
        assert_eq!(back, snap);
        assert_eq!(
            encode_events(&back),
            bytes,
            "re-encode must be byte-identical"
        );
    }

    #[test]
    fn empty_snapshots_roundtrip() {
        let m = MetricsSnapshot::default();
        assert_eq!(decode_metrics(&encode_metrics(&m)).unwrap(), m);
        let e = EventsSnapshot::default();
        assert_eq!(decode_events(&encode_events(&e)).unwrap(), e);
    }

    #[test]
    fn truncation_at_every_byte_is_a_typed_error() {
        for bytes in [
            encode_metrics(&sample_metrics()),
            encode_events(&sample_events()),
        ] {
            for cut in 0..bytes.len() {
                let m = decode_metrics(&bytes[..cut]);
                let e = decode_events(&bytes[..cut]);
                assert!(m.is_err() || e.is_err(), "cut={cut} decoded on both paths");
            }
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = encode_metrics(&sample_metrics());
        bytes[0] = 0xFF;
        bytes[1] = 0xFF;
        assert!(matches!(
            decode_metrics(&bytes),
            Err(NetError::Corrupt(msg)) if msg.contains("version 65535")
        ));
    }

    #[test]
    fn bogus_counts_never_allocate() {
        // Announce u32::MAX counters with only a version header present.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_metrics(&bytes), Err(NetError::Corrupt(_))));
        // Same for events: dropped + huge count.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_events(&bytes), Err(NetError::Corrupt(_))));
    }

    #[test]
    fn out_of_range_bucket_index_is_corrupt() {
        let reg = MetricsRegistry::new();
        reg.histogram("h").record(10);
        let mut snap = reg.snapshot();
        snap.histograms[0].1.buckets[0].0 = HIST_BUCKETS as u16;
        let bytes = encode_metrics(&snap);
        assert!(matches!(decode_metrics(&bytes), Err(NetError::Corrupt(_))));
    }

    #[test]
    fn unknown_event_tag_is_corrupt() {
        let j = EventJournal::with_capacity(4);
        j.record(EventKind::ConnOpen { conn: 9 });
        let mut bytes = encode_events(&j.snapshot());
        // Tag byte sits after version(2) + dropped(8) + count(4) + seq(8) + at_us(8).
        let tag_pos = 2 + 8 + 4 + 8 + 8;
        bytes[tag_pos] = 0xEE;
        assert!(matches!(
            decode_events(&bytes),
            Err(NetError::Corrupt(msg)) if msg.contains("unknown event tag")
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_metrics(&sample_metrics());
        bytes.push(0);
        assert!(matches!(
            decode_metrics(&bytes),
            Err(NetError::Corrupt(msg)) if msg.contains("trailing")
        ));
        let mut bytes = encode_events(&sample_events());
        bytes.push(0);
        assert!(matches!(decode_events(&bytes), Err(NetError::Corrupt(_))));
    }

    #[test]
    fn non_ascending_event_seq_is_corrupt() {
        let j = EventJournal::with_capacity(4);
        j.record(EventKind::ConnOpen { conn: 1 });
        j.record(EventKind::ConnOpen { conn: 2 });
        let mut snap = j.snapshot();
        snap.events[1].seq = snap.events[0].seq;
        assert!(matches!(
            decode_events(&encode_events(&snap)),
            Err(NetError::Corrupt(_))
        ));
    }
}
