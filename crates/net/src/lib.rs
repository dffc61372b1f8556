//! Network serving front-end for the learned-index serving engine.
//!
//! Everything is hand-rolled over `std::net` (the offline vendor policy
//! rules out tokio/hyper/serde): a length-prefixed binary protocol encoded
//! with `persist`'s byte codec ([`wire`]), a
//! listener front-end — acceptor, one thread per connection, admission
//! control, drain, `net.*` telemetry — shared with the distributed router
//! ([`frontend`]), an admission-controlled TCP server that answers each
//! request against one pinned snapshot on its connection's thread
//! ([`serve_config`]), and a closed-loop [`NetClient`].  Both ends of a
//! connection wait for their next frame the same way: a short spin on the
//! socket, then a blocking read (the `wait` module).
//!
//! The serving contract is the same one the in-process engine makes:
//! every data-bearing response carries the write sequence number
//! ([`server::Snapshot::seq`]) its snapshot observed, so a client can
//! replay the write stream into a scan oracle and verify every networked
//! answer — the record-and-replay check of the concurrent-serving tests,
//! extended across the wire.
//!
//! ```
//! use common::SpatialIndex;
//! use geom::Point;
//! use server::{ServeConfig, ServerConfig, SpatialServer};
//! use std::sync::Arc;
//!
//! // An engine serving three points, fronted by a TCP listener on an
//! // ephemeral port.
//! let points = vec![
//!     Point::with_id(0.1, 0.1, 1),
//!     Point::with_id(0.5, 0.5, 2),
//!     Point::with_id(0.9, 0.9, 3),
//! ];
//! let rebuild: server::RebuildFn =
//!     Box::new(|pts| Box::new(common::brute_force::ScanIndex::new(pts.to_vec())));
//! let engine = Arc::new(SpatialServer::new(&points, rebuild, ServerConfig::default()));
//! let handle = net::serve_config(engine, &ServeConfig::default()).unwrap();
//!
//! let mut client = net::NetClient::connect(&handle.local_addr().to_string()).unwrap();
//! let (seq, hit) = client.point(&Point::with_id(0.5, 0.5, 2)).unwrap();
//! assert_eq!(seq, 0);
//! assert_eq!(hit.map(|p| p.id), Some(2));
//!
//! handle.shutdown();
//! handle.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

mod admission;
pub(crate) mod client;
mod codec;
pub mod frontend;
pub(crate) mod remote;
pub(crate) mod server_loop;
mod wait;
pub mod wire;

pub use client::NetClient;
pub use frontend::{FrontEnd, FrontStats, REQUEST_CLASSES};
pub use remote::RemoteIndex;
pub use server_loop::{serve_config, NetHandle, NetStats};
pub use wire::{ErrorCode, Request, Response};

/// Everything that can go wrong on the wire, mirroring the
/// `persist::PersistError` taxonomy so operators see one vocabulary for
/// both on-disk and on-wire corruption.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// The frame did not start with the `RNET` magic.
    BadMagic,
    /// The frame's protocol version is not understood.
    UnsupportedVersion(u16),
    /// The frame's length prefix exceeds [`wire::MAX_FRAME_LEN`]; rejected
    /// before any allocation.
    FrameTooLarge(u32),
    /// The stream ended mid-frame (or a payload field ran past the frame).
    Truncated,
    /// The payload CRC did not match.
    ChecksumMismatch,
    /// Structurally invalid message content (unknown tag, bogus element
    /// count, trailing bytes, ...).
    Corrupt(String),
    /// The peer closed the connection where a response was expected.
    Closed,
    /// The server shed the request under admission control.
    Overload,
    /// The server is draining and refused the request.
    ShuttingDown,
    /// The server refused the request as semantically invalid.
    Remote(String),
    /// The server failed executing the request (its executor panicked).
    Internal(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::BadMagic => write!(f, "bad frame magic (not an RNET frame)"),
            NetError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v}")
            }
            NetError::FrameTooLarge(n) => {
                write!(
                    f,
                    "frame length {n} exceeds the {} byte cap",
                    wire::MAX_FRAME_LEN
                )
            }
            NetError::Truncated => write!(f, "stream truncated mid-frame"),
            NetError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            NetError::Corrupt(msg) => write!(f, "corrupt message: {msg}"),
            NetError::Closed => write!(f, "connection closed by peer"),
            NetError::Overload => write!(f, "server overloaded (request shed)"),
            NetError::ShuttingDown => write!(f, "server shutting down"),
            NetError::Remote(msg) => write!(f, "server refused request: {msg}"),
            NetError::Internal(msg) => write!(f, "server failed the request: {msg}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<persist::DecodeError> for NetError {
    fn from(e: persist::DecodeError) -> Self {
        match e {
            persist::DecodeError::Truncated => NetError::Truncated,
            persist::DecodeError::Corrupt(msg) => NetError::Corrupt(msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_for_operators() {
        assert!(NetError::FrameTooLarge(123).to_string().contains("123"));
        assert!(NetError::UnsupportedVersion(9).to_string().contains('9'));
        assert!(NetError::Corrupt("tag 0xff".into())
            .to_string()
            .contains("tag 0xff"));
    }
}
