//! Blocking client for the wire protocol.
//!
//! One [`NetClient`] owns one TCP connection and runs one request at a
//! time (send, then block for the response) — the closed-loop shape.  A
//! caller that frames its own requests takes the stream with
//! [`NetClient::into_stream`] and writes raw frames through [`crate::wire`]
//! (the benchmark's `wire_read` and `routed_mixed` workloads do); the server
//! answers a connection's frames one at a time, in request order.

use crate::wire::{self, ErrorCode, Request, Response};
use crate::NetError;
use geom::{Point, Rect};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A blocking connection to a serving front-end.
pub struct NetClient {
    stream: TcpStream,
}

impl NetClient {
    /// Connects to `addr` (e.g. `"127.0.0.1:7878"`).
    pub fn connect(addr: &str) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Self { stream })
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
    /// through it.
    pub fn into_stream(self) -> TcpStream {
        self.stream
    }

    fn call(&mut self, req: &Request) -> Result<Response, NetError> {
        wire::write_frame(&mut self.stream, &req.encode())?;
        let payload = wire::read_frame(&mut self.stream)?.ok_or(NetError::Closed)?;
        match Response::decode(&payload)? {
            Response::Error { code, message } => Err(match code {
                ErrorCode::Overload => NetError::Overload,
                ErrorCode::ShuttingDown => NetError::ShuttingDown,
                ErrorCode::BadRequest => NetError::Remote(message),
            }),
            resp => Ok(resp),
        }
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
        match self.call(&Request::Window(*w))? {
            Response::Points { seq, points } => Ok((seq, points)),
            other => Err(unexpected(&other)),
        }
    }

    /// kNN query; the result is closest first, distance ties by id.
    pub fn knn(&mut self, q: &Point, k: u32) -> Result<(u64, Vec<Point>), NetError> {
        match self.call(&Request::Knn(*q, k))? {
            Response::Knn { seq, points } => Ok((seq, points)),
            other => Err(unexpected(&other)),
        }
    }

    /// Distance-range query around `center`.
    pub fn range(&mut self, center: &Point, radius: f64) -> Result<(u64, Vec<Point>), NetError> {
        match self.call(&Request::Range(*center, radius))? {
            Response::Points { seq, points } => Ok((seq, points)),
            other => Err(unexpected(&other)),
        }
    }

    /// Distance-join probe batch: every (probe, match) pair within
    /// `radius`.
    pub fn join_probes(
        &mut self,
        probes: &[Point],
        radius: f64,
    ) -> Result<(u64, Vec<(Point, Point)>), NetError> {
        match self.call(&Request::JoinProbes(probes.to_vec(), radius))? {
            Response::Pairs { seq, pairs } => Ok((seq, pairs)),
            other => Err(unexpected(&other)),
        }
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

fn unexpected(resp: &Response) -> NetError {
    NetError::Corrupt(format!("unexpected response variant: {resp:?}"))
}
