//! The wait for the next frame, on both ends of a connection: the
//! front-end's connection loop runs it before it reads a request, and
//! [`NetClient::recv`](crate::NetClient::recv) before it reads a reply.
//!
//! A thread that blocks in `read` leaves its core idle.  On a virtual
//! machine whose guest has no cpuidle driver
//! (`/sys/devices/system/cpu/cpuidle/current_driver` reads `none`) the idle
//! vCPU halts, and the frame that should wake the reader first waits for
//! the hypervisor to run that vCPU again: on such a host a loopback round
//! trip pays two of these wake-ups (one for the request, one for the
//! reply), and they cost more than the rest of the round trip.  So a waiter
//! first polls its socket without blocking, yielding the core between
//! tries, for up to [`SPIN_BUDGET`].  A frame that arrives within it is read
//! with no wake-up; when the budget runs out the socket goes back to
//! blocking mode and the read blocks exactly as it would with no spin.
//!
//! At most two threads per core ([`std::thread::available_parallelism`])
//! spin at once in a process; any other waiter blocks straight away, so a
//! host serving more connections than it has cores does not spend them on
//! spinning.  Two, not one: a routed request has four waiting ends in one
//! process when client, router and shard share a host (the client, the
//! router's connection, its upstream read and the shard's connection),
//! and spinners yield, so they share a core.  This is the only module
//! that switches a socket to non-blocking mode, and every way out of
//! [`wait_for_frame`] switches it back.

use std::io::{self, BufRead, BufReader, ErrorKind};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// How long a waiter polls its socket before it blocks.  A closed-loop
/// peer on loopback answers well within it; a peer that thinks between
/// requests costs the waiter no more than this much spinning per frame.
const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// Threads of this process spinning in [`wait_for_frame`] right now.
static SPINNING: AtomicUsize = AtomicUsize::new(0);

/// The most threads of this process that spin at once: two per core.
fn spin_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| 2 * std::thread::available_parallelism().map_or(1, usize::from))
}

/// One of the [`spin_cap`] places to spin, given back when dropped.
struct SpinSlot;

impl SpinSlot {
    fn take() -> Option<Self> {
        let cap = spin_cap();
        SPINNING
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < cap).then_some(n + 1)
            })
            .ok()
            .map(|_| SpinSlot)
    }
}

impl Drop for SpinSlot {
    fn drop(&mut self) {
        SPINNING.fetch_sub(1, Ordering::Relaxed);
    }
}

/// How a wait for the next frame ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Waited {
    /// Bytes, or the peer's end of stream, were there to read without
    /// blocking: already buffered, or seen while spinning.
    Ready,
    /// The spin budget ran out, or every spin slot was taken: the next read
    /// blocks.
    Blocked,
}

/// Waits until `conn` has something to read: bytes already buffered return
/// at once; otherwise the socket is polled without blocking for up to
/// [`SPIN_BUDGET`] if a spin slot is free.  Returns with the socket in
/// blocking mode, whatever happened; the caller then reads the frame as it
/// always did.  An error the socket reported while spinning is returned.
pub(crate) fn wait_for_frame(conn: &mut BufReader<TcpStream>) -> io::Result<Waited> {
    if !conn.buffer().is_empty() {
        return Ok(Waited::Ready);
    }
    let Some(_slot) = SpinSlot::take() else {
        return Ok(Waited::Blocked);
    };
    conn.get_ref().set_nonblocking(true)?;
    let spun = spin(conn);
    conn.get_ref().set_nonblocking(false)?;
    spun
}

/// Polls the non-blocking `conn` until it has bytes or reports end of
/// stream (`Ready`), or the budget runs out (`Blocked`).
fn spin(conn: &mut BufReader<TcpStream>) -> io::Result<Waited> {
    let start = Instant::now();
    loop {
        match conn.fill_buf() {
            // A read that did not block: bytes, or an empty buffer at end of
            // stream.  Either way the caller's read returns at once.
            Ok(_) => return Ok(Waited::Ready),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if start.elapsed() >= SPIN_BUDGET {
                    return Ok(Waited::Blocked);
                }
                std::thread::yield_now();
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}
