//! Closed-loop client for the wire protocol.
//!
//! One [`NetClient`] owns one TCP connection.  The typed methods run one
//! request at a time ([`NetClient::call`]: send, then wait for the
//! response) — the closed-loop shape.  The two halves are public too:
//! [`NetClient::send`] writes a request without waiting, and
//! [`NetClient::recv`] waits for the next reply, so a caller holding
//! several connections (the router's scatter) can put a request on each
//! before it reads any reply.  The server answers a connection's frames one
//! at a time, in request order, so every `send` owes exactly one `recv`
//! before that connection carries anything else.  `recv` waits the way the
//! server's connection loop does: it polls the socket for up to 100 µs,
//! yielding between tries, and only then blocks, so a reply that comes back
//! quickly is read without waking a halted core.  A caller that frames its
//! own requests takes the stream with [`NetClient::into_stream`] and writes
//! raw frames through [`crate::wire`] (the benchmark's `wire_read` and
//! `routed_mixed` workloads do); its reads block at once.

use crate::wait::wait_for_frame;
use crate::wire::{self, ErrorCode, Request, Response};
use crate::NetError;
use geom::{Point, Rect};
use std::io::BufReader;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A connection to a serving front-end.  Replies are read through
/// a buffer, so a small frame takes one `read` call, not three (header,
/// payload, CRC); requests are written to the stream itself.
pub struct NetClient {
    stream: BufReader<TcpStream>,
}

impl NetClient {
    /// Connects to `addr` (e.g. `"127.0.0.1:7878"`).
    pub fn connect(addr: &str) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream: BufReader::new(stream),
        })
    }

    /// Connects, retrying until `deadline` elapses — for racing a server
    /// that is still binding its listener (CI starts the server as a
    /// background process).
    pub fn connect_retry(addr: &str, deadline: Duration) -> Result<Self, NetError> {
        let until = Instant::now() + deadline;
        loop {
            match Self::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => {
                    if Instant::now() >= until {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
        }
    }

    /// The underlying stream, for a caller that frames its own requests on
    /// a connection this client opened: the benchmark's
    /// `benchmark/src/workloads/{wire_read,routed_mixed}.rs` time raw frames
    /// through it.  The read buffer is empty here: every reply this client
    /// was owed has been read, and the server sends nothing unasked.
    pub fn into_stream(self) -> TcpStream {
        debug_assert!(
            self.stream.buffer().is_empty(),
            "bytes past the last reply were buffered"
        );
        self.stream.into_inner()
    }

    /// Writes one request frame and returns without waiting for the reply.
    pub fn send(&mut self, req: &Request) -> Result<(), NetError> {
        wire::write_frame(self.stream.get_mut(), &req.encode())
    }

    /// Waits for the next reply on this connection: spins briefly for it,
    /// then blocks (see the module docs).  A refusal ([`Response::Error`])
    /// comes back as the matching [`NetError`].
    pub fn recv(&mut self) -> Result<Response, NetError> {
        wait_for_frame(&mut self.stream)?;
        let payload = wire::read_frame(&mut self.stream)?.ok_or(NetError::Closed)?;
        match Response::decode(&payload)? {
            Response::Error { code, message } => Err(match code {
                ErrorCode::Overload => NetError::Overload,
                ErrorCode::ShuttingDown => NetError::ShuttingDown,
                ErrorCode::BadRequest => NetError::Remote(message),
                ErrorCode::Internal => NetError::Internal(message),
            }),
            resp => Ok(resp),
        }
    }

    /// One request, closed-loop: [`send`](Self::send), then
    /// [`recv`](Self::recv).
    pub fn call(&mut self, req: &Request) -> Result<Response, NetError> {
        self.send(req)?;
        self.recv()
    }

    /// Point lookup; returns the observed write sequence and the hit.
    pub fn point(&mut self, q: &Point) -> Result<(u64, Option<Point>), NetError> {
        match self.call(&Request::Point(*q))? {
            Response::Point { seq, hit } => Ok((seq, hit)),
            other => Err(unexpected(&other)),
        }
    }

    /// Window query; returns the observed write sequence and the matches.
    pub fn window(&mut self, w: &Rect) -> Result<(u64, Vec<Point>), NetError> {
        self.call(&Request::Window(*w))?.into_points()
    }

    /// kNN query; the result is closest first, distance ties by id.
    pub fn knn(&mut self, q: &Point, k: u32) -> Result<(u64, Vec<Point>), NetError> {
        self.call(&Request::Knn(*q, k))?.into_knn()
    }

    /// Distance-range query around `center`.
    pub fn range(&mut self, center: &Point, radius: f64) -> Result<(u64, Vec<Point>), NetError> {
        self.call(&Request::Range(*center, radius))?.into_points()
    }

    /// Distance-join probe batch: every (probe, match) pair within
    /// `radius`.
    pub fn join_probes(
        &mut self,
        probes: &[Point],
        radius: f64,
    ) -> Result<(u64, Vec<(Point, Point)>), NetError> {
        self.call(&Request::JoinProbes(probes.to_vec(), radius))?
            .into_pairs()
    }

    /// Inserts `p` through the server's delta overlay; returns the write's
    /// sequence number.
    pub fn insert(&mut self, p: &Point) -> Result<u64, NetError> {
        match self.call(&Request::Insert(*p))? {
            Response::Written { seq, .. } => Ok(seq),
            other => Err(unexpected(&other)),
        }
    }

    /// Deletes `p` through the server's delta overlay; returns whether the
    /// point existed and the write's sequence number.
    pub fn delete(&mut self, p: &Point) -> Result<(bool, u64), NetError> {
        match self.call(&Request::Delete(*p))? {
            Response::Written { seq, removed } => Ok((removed, seq)),
            other => Err(unexpected(&other)),
        }
    }

    /// Health check; returns the server's current write sequence.
    pub fn ping(&mut self) -> Result<u64, NetError> {
        match self.call(&Request::Ping)? {
            Response::Pong { seq } => Ok(seq),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to drain and stop; the acknowledgement arrives
    /// before the drain begins.
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        match self.call(&Request::Shutdown)? {
            Response::Pong { .. } => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Scrapes the server's live metrics registry; returns the observed
    /// write sequence and the decoded snapshot.  Answered inline (bypasses
    /// admission control), so it works even against an overloaded or
    /// draining server.
    pub fn stats(&mut self) -> Result<(u64, obs::MetricsSnapshot), NetError> {
        match self.call(&Request::Stats)? {
            Response::Stats { seq, metrics } => Ok((seq, metrics)),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches journalled lifecycle events with sequence numbers greater
    /// than `since` (0 = everything the bounded journal retains).
    pub fn events(&mut self, since: u64) -> Result<(u64, obs::EventsSnapshot), NetError> {
        match self.call(&Request::Events { since })? {
            Response::Events { seq, events } => Ok((seq, events)),
            other => Err(unexpected(&other)),
        }
    }
}

impl Response {
    /// The write sequence and matches of a window or range reply.
    pub fn into_points(self) -> Result<(u64, Vec<Point>), NetError> {
        match self {
            Response::Points { seq, points } => Ok((seq, points)),
            other => Err(unexpected(&other)),
        }
    }

    /// The write sequence and neighbours of a kNN reply, closest first.
    pub fn into_knn(self) -> Result<(u64, Vec<Point>), NetError> {
        match self {
            Response::Knn { seq, points } => Ok((seq, points)),
            other => Err(unexpected(&other)),
        }
    }

    /// The write sequence and pairs of a join reply.
    pub fn into_pairs(self) -> Result<(u64, Vec<(Point, Point)>), NetError> {
        match self {
            Response::Pairs { seq, pairs } => Ok((seq, pairs)),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(resp: &Response) -> NetError {
    NetError::Corrupt(format!("unexpected response variant: {resp:?}"))
}
