//! The wire protocol: length-prefixed binary frames carrying one request or
//! one response each, little-endian throughout, CRC-protected.
//!
//! Payloads are written and read with `persist`'s [`ByteWriter`] and
//! [`ByteReader`], the one little-endian codec of the workspace, with `u32`
//! element counts and string lengths; frames carry the same IEEE CRC as
//! snapshot sections ([`persist::crc32`]).  One frame looks like:
//!
//! ```text
//! offset  size  field
//! 0       4     magic, the bytes "RNET"
//! 4       2     protocol version, u16 LE (currently 2)
//! 6       4     payload length in bytes, u32 LE (<= MAX_FRAME_LEN)
//! 10      len   payload (first payload byte is the message tag)
//! 10+len  4     CRC32 (IEEE) of the payload bytes, u32 LE
//! ```
//!
//! The `STATS` and `EVENTS` responses embed a versioned telemetry payload
//! (`obs::MetricsSnapshot` / `obs::EventsSnapshot`), encoded by the
//! crate-private `codec` module, whose only caller is this one.
//!
//! Decoding is defensive: the length prefix is validated against
//! [`MAX_FRAME_LEN`] **before** any allocation, element counts inside the
//! payload are validated against the bytes actually present
//! ([`ByteReader::get_len`]), discriminants accept only the bytes the
//! encoder writes, trailing bytes are refused, and every malformed input
//! maps to a typed [`NetError`] — never a panic, never an unbounded
//! allocation.

use crate::{codec, NetError};
use geom::{Point, Rect};
use persist::{ByteReader, ByteWriter, DecodeError, LenWidth};
use std::io::{Read, Write};

/// Magic bytes opening every frame in either direction.
pub const MAGIC: [u8; 4] = *b"RNET";

/// Wire protocol version; bumped on any incompatible layout change, and
/// the only version [`read_frame`] accepts.  Version 2 added the
/// `STATS`/`EVENTS` telemetry tags.
pub const PROTOCOL_VERSION: u16 = 2;

/// Upper bound on a frame payload.  A length prefix above this is rejected
/// before any buffer is allocated, so a corrupt (or hostile) length field
/// cannot OOM the server.
pub const MAX_FRAME_LEN: u32 = 8 * 1024 * 1024;

/// Frame header size: magic + version + payload length.
pub const HEADER_LEN: usize = 4 + 2 + 4;

// Request message tags (first payload byte).
const TAG_POINT: u8 = 0x01;
const TAG_WINDOW: u8 = 0x02;
const TAG_KNN: u8 = 0x03;
const TAG_RANGE: u8 = 0x04;
const TAG_JOIN_PROBES: u8 = 0x05;
const TAG_INSERT: u8 = 0x06;
const TAG_DELETE: u8 = 0x07;
const TAG_PING: u8 = 0x08;
const TAG_SHUTDOWN: u8 = 0x09;
// Protocol version 2: live telemetry scrapes.
const TAG_STATS: u8 = 0x0A;
const TAG_EVENTS: u8 = 0x0B;

// Response message tags.  The high bit distinguishes responses from
// requests so a desynchronised peer fails fast with a Corrupt error.
const TAG_RESP_POINT: u8 = 0x81;
const TAG_RESP_POINTS: u8 = 0x82;
const TAG_RESP_KNN: u8 = 0x83;
const TAG_RESP_PAIRS: u8 = 0x84;
const TAG_RESP_WRITTEN: u8 = 0x85;
const TAG_RESP_PONG: u8 = 0x86;
const TAG_RESP_ERROR: u8 = 0x87;
// Protocol version 2: live telemetry scrapes.
const TAG_RESP_STATS: u8 = 0x88;
const TAG_RESP_EVENTS: u8 = 0x89;

/// Typed server-side refusal codes carried by an error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control shed the request (a bounded queue was full).
    Overload,
    /// The request decoded but was semantically invalid (e.g. a negative
    /// or non-finite radius).
    BadRequest,
    /// The server is draining: in-flight requests finish, new ones are
    /// refused.
    ShuttingDown,
    /// The request's executor panicked.  The server answered it anyway
    /// and the connection keeps serving.
    Internal,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Overload => 1,
            ErrorCode::BadRequest => 2,
            ErrorCode::ShuttingDown => 3,
            ErrorCode::Internal => 4,
        }
    }

    fn from_u8(v: u8) -> Result<Self, NetError> {
        match v {
            1 => Ok(ErrorCode::Overload),
            2 => Ok(ErrorCode::BadRequest),
            3 => Ok(ErrorCode::ShuttingDown),
            4 => Ok(ErrorCode::Internal),
            other => Err(NetError::Corrupt(format!(
                "unknown error code {other:#04x}"
            ))),
        }
    }
}

/// One client request: the five query classes plus the two delta-overlay
/// writes and the two control messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Exact point lookup.
    Point(Point),
    /// Window (rectangle containment) query.
    Window(Rect),
    /// k-nearest-neighbour query.
    Knn(Point, u32),
    /// Distance-range query: all points within `radius` of the centre.
    Range(Point, f64),
    /// Distance-join probe batch: for every probe, all points within
    /// `radius` of it, returned as (probe, match) pairs.
    JoinProbes(Vec<Point>, f64),
    /// Insert into the server's delta overlay.
    Insert(Point),
    /// Delete through the server's delta overlay.
    Delete(Point),
    /// Health check; the response carries the current write sequence.
    Ping,
    /// Ask the server to drain in-flight work and stop accepting new
    /// requests.  Acknowledged with a pong before the drain begins.
    Shutdown,
    /// Scrape the server's live metrics registry (protocol version 2).
    /// Answered inline like `Ping` — telemetry reads bypass admission
    /// control so an overloaded server can still be observed.
    Stats,
    /// Fetch journalled lifecycle events with sequence numbers greater
    /// than `since` (0 = everything retained; protocol version 2).
    Events {
        /// Last event sequence number the client has already seen.
        since: u64,
    },
}

/// One server response.  Every data-bearing response carries the write
/// sequence number ([`server::Snapshot::seq`]) its snapshot observed, which
/// is what lets clients replay-verify networked answers against an oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Point-query answer.
    Point {
        /// Observed write sequence.
        seq: u64,
        /// The hit, if any.
        hit: Option<Point>,
    },
    /// Window or distance-range result set.
    Points {
        /// Observed write sequence.
        seq: u64,
        /// Matching points (window: unspecified order; range: unspecified
        /// order).
        points: Vec<Point>,
    },
    /// kNN result, closest first (the order is part of the contract).
    Knn {
        /// Observed write sequence.
        seq: u64,
        /// The k nearest points, closest first, distance ties by id.
        points: Vec<Point>,
    },
    /// Distance-join probe result.
    Pairs {
        /// Observed write sequence.
        seq: u64,
        /// (probe, match) pairs in probe order.
        pairs: Vec<(Point, Point)>,
    },
    /// Acknowledgement of an insert or delete.
    Written {
        /// Sequence number assigned to the write.
        seq: u64,
        /// For deletes: whether the point existed.  Always `true` for
        /// inserts.
        removed: bool,
    },
    /// Ping/shutdown acknowledgement.
    Pong {
        /// Current write sequence at the server.
        seq: u64,
    },
    /// Typed refusal; see [`ErrorCode`].
    Error {
        /// Why the request was refused.
        code: ErrorCode,
        /// Operator-facing detail.
        message: String,
    },
    /// Live metrics snapshot (protocol version 2).
    Stats {
        /// Current write sequence at the server.
        seq: u64,
        /// Every registered counter, gauge, and histogram.
        metrics: obs::MetricsSnapshot,
    },
    /// Journalled lifecycle events (protocol version 2).
    Events {
        /// Current write sequence at the server.
        seq: u64,
        /// The retained events (filtered by the request's `since`).
        events: obs::EventsSnapshot,
    },
}

/// Width of every element count and string length in a payload.
const COUNTS: LenWidth = LenWidth::U32;

const POINT_BYTES: usize = 24;

/// Appends a count-prefixed point list.
fn put_points(w: &mut ByteWriter, points: &[Point]) {
    w.put_len(points.len());
    for p in points {
        w.put_point(p);
    }
}

/// Reads a count-prefixed point list, the count checked before allocating.
/// Inlined so the reader stays in registers through the loop.
#[inline(always)]
fn get_points(r: &mut ByteReader<'_>) -> Result<Vec<Point>, DecodeError> {
    let n = r.get_len(POINT_BYTES)?;
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        points.push(r.get_point()?);
    }
    Ok(points)
}

impl Request {
    /// Encodes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new(COUNTS);
        match self {
            Request::Point(p) => {
                w.put_u8(TAG_POINT);
                w.put_point(p);
            }
            Request::Window(r) => {
                w.put_u8(TAG_WINDOW);
                w.put_rect(r);
            }
            Request::Knn(p, k) => {
                w.put_u8(TAG_KNN);
                w.put_point(p);
                w.put_u32(*k);
            }
            Request::Range(p, radius) => {
                w.put_u8(TAG_RANGE);
                w.put_point(p);
                w.put_f64(*radius);
            }
            Request::JoinProbes(probes, radius) => {
                w.put_u8(TAG_JOIN_PROBES);
                w.put_f64(*radius);
                put_points(&mut w, probes);
            }
            Request::Insert(p) => {
                w.put_u8(TAG_INSERT);
                w.put_point(p);
            }
            Request::Delete(p) => {
                w.put_u8(TAG_DELETE);
                w.put_point(p);
            }
            Request::Ping => w.put_u8(TAG_PING),
            Request::Shutdown => w.put_u8(TAG_SHUTDOWN),
            Request::Stats => w.put_u8(TAG_STATS),
            Request::Events { since } => {
                w.put_u8(TAG_EVENTS);
                w.put_u64(*since);
            }
        }
        w.into_bytes()
    }

    /// Decodes a frame payload into a request, consuming it exactly.
    pub fn decode(payload: &[u8]) -> Result<Request, NetError> {
        let mut r = ByteReader::new(payload, COUNTS);
        let req = match r.get_u8()? {
            TAG_POINT => Request::Point(r.get_point()?),
            TAG_WINDOW => Request::Window(r.get_rect()?),
            TAG_KNN => {
                let p = r.get_point()?;
                let k = r.get_u32()?;
                Request::Knn(p, k)
            }
            TAG_RANGE => {
                let p = r.get_point()?;
                let radius = r.get_f64()?;
                Request::Range(p, radius)
            }
            TAG_JOIN_PROBES => {
                let radius = r.get_f64()?;
                Request::JoinProbes(get_points(&mut r)?, radius)
            }
            TAG_INSERT => Request::Insert(r.get_point()?),
            TAG_DELETE => Request::Delete(r.get_point()?),
            TAG_PING => Request::Ping,
            TAG_SHUTDOWN => Request::Shutdown,
            TAG_STATS => Request::Stats,
            TAG_EVENTS => Request::Events {
                since: r.get_u64()?,
            },
            other => {
                return Err(NetError::Corrupt(format!(
                    "unknown request tag {other:#04x}"
                )))
            }
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new(COUNTS);
        match self {
            Response::Point { seq, hit } => {
                w.put_u8(TAG_RESP_POINT);
                w.put_u64(*seq);
                w.put_bool(hit.is_some());
                if let Some(p) = hit {
                    w.put_point(p);
                }
            }
            Response::Points { seq, points } => {
                w.put_u8(TAG_RESP_POINTS);
                w.put_u64(*seq);
                put_points(&mut w, points);
            }
            Response::Knn { seq, points } => {
                w.put_u8(TAG_RESP_KNN);
                w.put_u64(*seq);
                put_points(&mut w, points);
            }
            Response::Pairs { seq, pairs } => {
                w.put_u8(TAG_RESP_PAIRS);
                w.put_u64(*seq);
                w.put_len(pairs.len());
                for (a, b) in pairs {
                    w.put_point(a);
                    w.put_point(b);
                }
            }
            Response::Written { seq, removed } => {
                w.put_u8(TAG_RESP_WRITTEN);
                w.put_u64(*seq);
                w.put_bool(*removed);
            }
            Response::Pong { seq } => {
                w.put_u8(TAG_RESP_PONG);
                w.put_u64(*seq);
            }
            Response::Error { code, message } => {
                w.put_u8(TAG_RESP_ERROR);
                w.put_u8(code.to_u8());
                w.put_str(message);
            }
            Response::Stats { seq, metrics } => {
                w.put_u8(TAG_RESP_STATS);
                w.put_u64(*seq);
                w.put_bytes(&codec::encode_metrics(metrics));
            }
            Response::Events { seq, events } => {
                w.put_u8(TAG_RESP_EVENTS);
                w.put_u64(*seq);
                w.put_bytes(&codec::encode_events(events));
            }
        }
        w.into_bytes()
    }

    /// Decodes a frame payload into a response, consuming it exactly.
    pub fn decode(payload: &[u8]) -> Result<Response, NetError> {
        let mut r = ByteReader::new(payload, COUNTS);
        let resp = match r.get_u8()? {
            TAG_RESP_POINT => {
                let seq = r.get_u64()?;
                let hit = if r.get_bool()? {
                    Some(r.get_point()?)
                } else {
                    None
                };
                Response::Point { seq, hit }
            }
            TAG_RESP_POINTS => {
                let seq = r.get_u64()?;
                let points = get_points(&mut r)?;
                Response::Points { seq, points }
            }
            TAG_RESP_KNN => {
                let seq = r.get_u64()?;
                let points = get_points(&mut r)?;
                Response::Knn { seq, points }
            }
            TAG_RESP_PAIRS => {
                let seq = r.get_u64()?;
                let n = r.get_len(2 * POINT_BYTES)?;
                let mut pairs = Vec::with_capacity(n);
                for _ in 0..n {
                    let a = r.get_point()?;
                    let b = r.get_point()?;
                    pairs.push((a, b));
                }
                Response::Pairs { seq, pairs }
            }
            TAG_RESP_WRITTEN => {
                let seq = r.get_u64()?;
                let removed = r.get_bool()?;
                Response::Written { seq, removed }
            }
            TAG_RESP_PONG => Response::Pong { seq: r.get_u64()? },
            TAG_RESP_ERROR => {
                let code = ErrorCode::from_u8(r.get_u8()?)?;
                let message = r.get_str()?;
                Response::Error { code, message }
            }
            TAG_RESP_STATS => {
                let seq = r.get_u64()?;
                let metrics = codec::decode_metrics(r.get_bytes()?)?;
                Response::Stats { seq, metrics }
            }
            TAG_RESP_EVENTS => {
                let seq = r.get_u64()?;
                let events = codec::decode_events(r.get_bytes()?)?;
                Response::Events { seq, events }
            }
            other => {
                return Err(NetError::Corrupt(format!(
                    "unknown response tag {other:#04x}"
                )))
            }
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Encodes a payload into a complete frame (header + payload + CRC).
///
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`]; all payloads produced by
/// this module are far below the cap.
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_FRAME_LEN as usize, "frame too large");
    let mut w = ByteWriter::with_capacity(COUNTS, HEADER_LEN + payload.len() + 4);
    w.put_raw(&MAGIC);
    w.put_u16(PROTOCOL_VERSION);
    w.put_bytes(payload);
    w.put_u32(persist::crc32(payload));
    w.into_bytes()
}

/// Writes one frame to `w`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), NetError> {
    w.write_all(&frame_bytes(payload)).map_err(NetError::Io)?;
    w.flush().map_err(NetError::Io)
}

/// Reads exactly `buf.len()` bytes.  A clean EOF before the first byte
/// returns `Ok(false)` when `at_start` is set; any other short read is
/// [`NetError::Truncated`].
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8], at_start: bool) -> Result<bool, NetError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 && at_start {
                    Ok(false)
                } else {
                    Err(NetError::Truncated)
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame and returns its CRC-verified payload, or `Ok(None)` on a
/// clean EOF at a frame boundary (the peer closed the connection between
/// messages).  Every malformed input maps to a typed [`NetError`]: wrong
/// magic is [`NetError::BadMagic`], an unknown version is
/// [`NetError::UnsupportedVersion`], a length prefix above
/// [`MAX_FRAME_LEN`] is [`NetError::FrameTooLarge`] (rejected before
/// allocation), a short read is [`NetError::Truncated`], and a CRC failure
/// is [`NetError::ChecksumMismatch`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, NetError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_exact_or_eof(r, &mut header, true)? {
        return Ok(None);
    }
    let mut h = ByteReader::new(&header, COUNTS);
    if h.take(MAGIC.len())? != MAGIC {
        return Err(NetError::BadMagic);
    }
    let version = h.get_u16()?;
    if version != PROTOCOL_VERSION {
        return Err(NetError::UnsupportedVersion(version));
    }
    let len = h.get_u32()?;
    if len > MAX_FRAME_LEN {
        return Err(NetError::FrameTooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_or_eof(r, &mut payload, false)?;
    let mut crc = [0u8; 4];
    read_exact_or_eof(r, &mut crc, false)?;
    if u32::from_le_bytes(crc) != persist::crc32(&payload) {
        return Err(NetError::ChecksumMismatch);
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let payload = req.encode();
        assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let payload = resp.encode();
        assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Point(Point::with_id(0.25, -1.5, 7)));
        roundtrip_request(Request::Window(Rect::new(0.0, 0.0, 1.0, 1.0)));
        roundtrip_request(Request::Knn(Point::with_id(0.5, 0.5, 0), 25));
        roundtrip_request(Request::Range(Point::new(0.1, 0.9), 0.02));
        roundtrip_request(Request::JoinProbes(
            vec![Point::with_id(0.1, 0.2, 1), Point::with_id(0.3, 0.4, 2)],
            0.05,
        ));
        roundtrip_request(Request::Insert(Point::with_id(0.7, 0.7, 99)));
        roundtrip_request(Request::Delete(Point::with_id(0.7, 0.7, 99)));
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Events { since: 42 });
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Point {
            seq: 42,
            hit: Some(Point::with_id(1.0, 2.0, 3)),
        });
        roundtrip_response(Response::Point { seq: 0, hit: None });
        roundtrip_response(Response::Points {
            seq: 7,
            points: vec![Point::with_id(0.0, 0.0, 1)],
        });
        roundtrip_response(Response::Knn {
            seq: 7,
            points: vec![Point::with_id(0.0, 0.0, 1), Point::with_id(1.0, 1.0, 2)],
        });
        roundtrip_response(Response::Pairs {
            seq: 9,
            pairs: vec![(Point::with_id(0.0, 0.0, 1), Point::with_id(0.1, 0.1, 2))],
        });
        roundtrip_response(Response::Written {
            seq: 11,
            removed: true,
        });
        roundtrip_response(Response::Pong { seq: 12 });
        roundtrip_response(Response::Error {
            code: ErrorCode::Overload,
            message: "queue full".into(),
        });
        let t = obs::Telemetry::new();
        t.metrics.counter("net.requests.point").add(5);
        t.metrics.histogram("net.latency_us.knn").record(120);
        t.journal.record(obs::EventKind::ServerStart { points: 9 });
        roundtrip_response(Response::Stats {
            seq: 13,
            metrics: t.metrics.snapshot(),
        });
        roundtrip_response(Response::Events {
            seq: 14,
            events: t.journal.snapshot(),
        });
    }

    #[test]
    fn other_versions_are_refused_before_any_payload_allocation() {
        for v in [0u16, 1, 3] {
            // A header announcing the largest legal payload, with nothing
            // behind it: the refusal must come from the version field
            // alone, not from trying to read (or allocate) the payload.
            let mut header = MAGIC.to_vec();
            header.extend_from_slice(&v.to_le_bytes());
            header.extend_from_slice(&MAX_FRAME_LEN.to_le_bytes());
            match read_frame(&mut std::io::Cursor::new(header)) {
                Err(NetError::UnsupportedVersion(got)) => assert_eq!(got, v),
                other => panic!("version {v}: got {other:?}"),
            }
        }
    }

    #[test]
    fn frames_roundtrip_through_io() {
        let payload = Request::Knn(Point::new(0.5, 0.5), 5).encode();
        let frame = frame_bytes(&payload);
        let mut cursor = std::io::Cursor::new(frame);
        let back = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(back, payload);
        // A second read sees a clean EOF at the frame boundary.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn coordinates_survive_bit_exactly() {
        // Byte-identical answers require bit-exact f64 transport, including
        // awkward values.
        for v in [0.1 + 0.2, f64::MIN_POSITIVE, -0.0, 1e300] {
            let p = Point::with_id(v, -v, u64::MAX);
            let payload = Request::Point(p).encode();
            match Request::decode(&payload).unwrap() {
                Request::Point(q) => {
                    assert_eq!(q.x.to_bits(), p.x.to_bits());
                    assert_eq!(q.y.to_bits(), p.y.to_bits());
                    assert_eq!(q.id, p.id);
                }
                other => panic!("decoded {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Request::Ping.encode();
        payload.push(0);
        assert!(matches!(
            Request::decode(&payload),
            Err(NetError::Corrupt(_))
        ));
    }

    #[test]
    fn discriminants_accept_only_what_the_encoder_writes() {
        // A `removed` or `hit` byte other than 0 or 1 would decode to a
        // value whose re-encoding differs from the bytes received.
        for resp in [
            Response::Written {
                seq: 3,
                removed: true,
            },
            Response::Point { seq: 3, hit: None },
        ] {
            let mut payload = resp.encode();
            payload[9] = 2; // after the tag and the u64 sequence number
            assert!(matches!(
                Response::decode(&payload),
                Err(NetError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn bogus_probe_count_is_rejected_without_allocation() {
        // A JoinProbes payload claiming u32::MAX probes but carrying none.
        let mut w = Vec::new();
        w.push(TAG_JOIN_PROBES);
        w.extend_from_slice(&0.05f64.to_le_bytes());
        w.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(Request::decode(&w), Err(NetError::Corrupt(_))));
    }
}
