//! Malformed-frame rejection for the network wire protocol: every damaged
//! or hostile byte stream must produce a typed [`net::NetError`] — never a
//! panic, never an unbounded allocation.  This mirrors
//! `tests/snapshot_corruption.rs` for the on-disk format: each corruption
//! class the framing defends against gets its own case — bad magic,
//! unsupported version, oversized length prefix, truncation at every cut,
//! and CRC-detected payload damage — plus the message-level failure modes
//! (unknown tags, bogus element counts, trailing bytes, desynchronised
//! request/response streams).

use geom::{Point, Rect};
use net::wire::{frame_bytes, read_frame, HEADER_LEN, MAGIC, MAX_FRAME_LEN, PROTOCOL_VERSION};
use net::{NetError, Request, Response};
use std::io::Cursor;

/// A representative well-formed frame carrying a kNN request.
fn valid_frame() -> Vec<u8> {
    frame_bytes(&Request::Knn(Point::with_id(0.25, 0.75, 9), 16).encode())
}

fn decode_frame(bytes: &[u8]) -> Result<Option<Vec<u8>>, NetError> {
    read_frame(&mut Cursor::new(bytes))
}

#[test]
fn well_formed_frames_decode() {
    let frame = valid_frame();
    let payload = decode_frame(&frame).unwrap().expect("payload");
    assert_eq!(
        Request::decode(&payload).unwrap(),
        Request::Knn(Point::with_id(0.25, 0.75, 9), 16)
    );
}

#[test]
fn clean_eof_at_frame_boundary_is_not_an_error() {
    // A peer closing the connection between messages is a normal hangup,
    // not corruption.
    assert!(decode_frame(&[]).unwrap().is_none());
}

#[test]
fn bad_magic_is_rejected() {
    let mut frame = valid_frame();
    frame[0] ^= 0xFF;
    assert!(matches!(decode_frame(&frame), Err(NetError::BadMagic)));
    // An arbitrary non-protocol stream fails the same way.
    assert!(matches!(
        decode_frame(b"GET / HTTP/1.1\r\n\r\n"),
        Err(NetError::BadMagic)
    ));
}

#[test]
fn unsupported_version_is_rejected() {
    // Version 1 had deployed no writer when its acceptance was dropped; it
    // is refused like any other foreign version.
    for version in [1u16, 7] {
        let mut frame = valid_frame();
        // The version field sits directly after the 4-byte magic.
        frame[4..6].copy_from_slice(&version.to_le_bytes());
        assert!(matches!(
            decode_frame(&frame),
            Err(NetError::UnsupportedVersion(v)) if v == version
        ));
    }
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    // A hostile length prefix must be refused from the 10 header bytes
    // alone — no payload needs to follow, and no buffer is allocated.
    for claimed in [MAX_FRAME_LEN + 1, u32::MAX] {
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        header.extend_from_slice(&claimed.to_le_bytes());
        match decode_frame(&header) {
            Err(NetError::FrameTooLarge(got)) => assert_eq!(got, claimed),
            other => panic!("claimed len {claimed}: expected FrameTooLarge, got {other:?}"),
        }
    }
    // The cap itself is inclusive: a length of exactly MAX_FRAME_LEN is
    // not FrameTooLarge (the truncated body is a different error).
    let mut header = Vec::new();
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    header.extend_from_slice(&MAX_FRAME_LEN.to_le_bytes());
    assert!(matches!(decode_frame(&header), Err(NetError::Truncated)));
}

#[test]
fn truncated_frames_are_rejected_at_every_cut() {
    // Cut the stream after every prefix of a valid frame: mid-magic,
    // mid-version, mid-length, mid-payload, and mid-CRC must all surface
    // as Truncated — only the empty stream is a clean EOF.
    let frame = valid_frame();
    for keep in 1..frame.len() {
        match decode_frame(&frame[..keep]) {
            Err(NetError::Truncated) => {}
            Ok(_) => panic!("cut at {keep} decoded successfully"),
            Err(other) => panic!("cut at {keep}: expected Truncated, got {other}"),
        }
    }
}

#[test]
fn checksum_mismatch_is_reported_for_every_payload_byte() {
    // Flip one bit in each payload byte (and in the trailing CRC itself);
    // the frame CRC must catch every single-byte change.
    let frame = valid_frame();
    for at in HEADER_LEN..frame.len() {
        let mut corrupted = frame.clone();
        corrupted[at] ^= 0x10;
        match decode_frame(&corrupted) {
            Err(NetError::ChecksumMismatch) => {}
            Ok(_) => panic!("bit flip at {at} decoded successfully"),
            Err(other) => panic!("bit flip at {at}: expected ChecksumMismatch, got {other}"),
        }
    }
}

#[test]
fn every_header_bit_flip_is_detected() {
    // Header damage shifts the parse instead of the payload; it must still
    // land on a typed error, never a silently different message.
    let frame = valid_frame();
    for at in 0..HEADER_LEN {
        let mut corrupted = frame.clone();
        corrupted[at] ^= 0x04;
        match decode_frame(&corrupted) {
            Err(
                NetError::BadMagic
                | NetError::UnsupportedVersion(_)
                | NetError::FrameTooLarge(_)
                | NetError::Truncated
                | NetError::ChecksumMismatch,
            ) => {}
            Ok(_) => panic!("header flip at {at} decoded successfully"),
            Err(other) => panic!("header flip at {at}: unexpected error {other}"),
        }
    }
}

#[test]
fn unknown_tags_are_rejected() {
    // An unassigned request tag.
    assert!(matches!(
        Request::decode(&[0x7F]),
        Err(NetError::Corrupt(_))
    ));
    // An unassigned response tag.
    assert!(matches!(
        Response::decode(&[0xFF]),
        Err(NetError::Corrupt(_))
    ));
    // An empty payload has no tag at all.
    assert!(matches!(Request::decode(&[]), Err(NetError::Truncated)));
}

#[test]
fn desynchronised_streams_fail_fast() {
    // The response tag space keeps the high bit set precisely so a peer
    // that loses framing sync (or connects the wrong way round) errors
    // immediately instead of misinterpreting fields.
    let resp = Response::Pong { seq: 3 }.encode();
    assert!(matches!(Request::decode(&resp), Err(NetError::Corrupt(_))));
    let req = Request::Window(Rect::new(0.0, 0.0, 1.0, 1.0)).encode();
    assert!(matches!(Response::decode(&req), Err(NetError::Corrupt(_))));
}

#[test]
fn bogus_element_counts_cannot_drive_allocation() {
    // A response claiming u32::MAX points while carrying none: the count
    // is validated against the bytes actually present before any Vec is
    // sized, mirroring persist's get_len discipline.
    let mut payload = Response::Points {
        seq: 1,
        points: vec![],
    }
    .encode();
    let count_at = payload.len() - 4;
    payload[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Response::decode(&payload),
        Err(NetError::Corrupt(_))
    ));

    // Same for the pair-typed join response.
    let mut payload = Response::Pairs {
        seq: 1,
        pairs: vec![],
    }
    .encode();
    let count_at = payload.len() - 4;
    payload[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        Response::decode(&payload),
        Err(NetError::Corrupt(_))
    ));
}

#[test]
fn truncated_messages_are_rejected_at_every_payload_cut() {
    // Below the framing layer, a message body cut at any field boundary
    // (or inside one) must be a typed error too — the decoder never reads
    // past the bytes it was handed.
    let payload = Request::JoinProbes(
        vec![Point::with_id(0.1, 0.2, 1), Point::with_id(0.3, 0.4, 2)],
        0.05,
    )
    .encode();
    for keep in 0..payload.len() {
        assert!(
            Request::decode(&payload[..keep]).is_err(),
            "payload cut at {keep} decoded successfully"
        );
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    // A well-formed message followed by junk is corruption, not padding.
    let mut payload = Request::Point(Point::with_id(0.5, 0.5, 1)).encode();
    payload.push(0xAB);
    assert!(matches!(
        Request::decode(&payload),
        Err(NetError::Corrupt(_))
    ));
}

/// A populated STATS response: tag, seq, u32 inner length, obs payload.
fn stats_payload() -> Vec<u8> {
    let registry = obs::MetricsRegistry::new();
    registry.counter("net.requests.point").inc();
    registry.gauge("net.connections_open").add(3);
    registry.histogram("net.latency_us.point").record(125);
    Response::Stats {
        seq: 7,
        metrics: registry.snapshot(),
    }
    .encode()
}

/// A populated EVENTS response with the same outer layout.
fn events_payload() -> Vec<u8> {
    let telemetry = obs::Telemetry::new();
    telemetry
        .journal
        .record(obs::EventKind::ServerStart { points: 100 });
    telemetry
        .journal
        .record(obs::EventKind::ConnOpen { conn: 1 });
    Response::Events {
        seq: 7,
        events: telemetry.journal.snapshot(),
    }
    .encode()
}

/// Byte offset of the u32 inner-payload length in a STATS/EVENTS
/// response: 1 tag byte + 8 seq bytes.
const INNER_LEN_AT: usize = 9;

#[test]
fn telemetry_responses_are_rejected_at_every_payload_cut() {
    // Truncation anywhere — in the outer header, the inner length, or the
    // embedded obs snapshot — must be a typed error, mirroring the query
    // responses above.  The cut can never decode and never panic.
    for (name, payload) in [("stats", stats_payload()), ("events", events_payload())] {
        assert!(Response::decode(&payload).is_ok(), "{name}: intact decodes");
        for keep in 0..payload.len() {
            match Response::decode(&payload[..keep]) {
                Err(NetError::Truncated | NetError::Corrupt(_)) => {}
                Ok(_) => panic!("{name}: cut at {keep} decoded successfully"),
                Err(other) => panic!("{name}: cut at {keep}: unexpected error {other}"),
            }
        }
    }
}

#[test]
fn bogus_telemetry_lengths_cannot_drive_allocation() {
    // A hostile inner-length prefix claiming u32::MAX bytes of telemetry:
    // get_len validates the claim against the bytes actually present
    // before anything is sized, exactly like the point-count checks.
    for payload in [stats_payload(), events_payload()] {
        let mut corrupted = payload;
        corrupted[INNER_LEN_AT..INNER_LEN_AT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Response::decode(&corrupted),
            Err(NetError::Corrupt(_))
        ));
    }
}

#[test]
fn corrupt_inner_telemetry_is_a_typed_error() {
    // The embedded obs codec has its own version byte and element counts;
    // damage below the wire layer still surfaces as a NetError.
    let payload = stats_payload();

    // Unsupported telemetry snapshot version.
    let mut versioned = payload.clone();
    versioned[INNER_LEN_AT + 4] = 0x63;
    assert!(matches!(
        Response::decode(&versioned),
        Err(NetError::Corrupt(_))
    ));

    // Garbage where the snapshot body should be (length prefix intact).
    let mut garbage = payload;
    for b in &mut garbage[INNER_LEN_AT + 4..] {
        *b = 0xFF;
    }
    assert!(matches!(
        Response::decode(&garbage),
        Err(NetError::Truncated | NetError::Corrupt(_))
    ));
}

#[test]
fn telemetry_requests_reject_trailing_bytes() {
    // STATS carries no fields and EVENTS exactly one u64 — anything after
    // is corruption, keeping the request grammar closed under v2.
    let mut stats = Request::Stats.encode();
    stats.push(0x00);
    assert!(matches!(Request::decode(&stats), Err(NetError::Corrupt(_))));

    let events = Request::Events { since: 42 }.encode();
    for keep in 1..events.len() {
        assert!(
            Request::decode(&events[..keep]).is_err(),
            "events request cut at {keep} decoded successfully"
        );
    }
    let mut events = events;
    events.push(0x00);
    assert!(matches!(
        Request::decode(&events),
        Err(NetError::Corrupt(_))
    ));
}

#[test]
fn errors_format_for_operators() {
    // The serving loop logs these; they must be actionable one-liners.
    let mut frame = valid_frame();
    frame[4..6].copy_from_slice(&9u16.to_le_bytes());
    let err = decode_frame(&frame).unwrap_err();
    assert!(err.to_string().contains('9'), "{err}");

    let mut header = Vec::new();
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    header.extend_from_slice(&u32::MAX.to_le_bytes());
    let err = decode_frame(&header).unwrap_err();
    assert!(err.to_string().contains("frame"), "{err}");
}
