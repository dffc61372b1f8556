//! Bounded-in-flight admission control, the gate of the shared listener
//! front-end ([`crate::frontend`]).
//!
//! The mechanism is two bounded counters: a global in-flight window and a
//! per-connection window.  When either is exhausted the request must be
//! shed immediately with a typed `OVERLOAD` response instead of queueing
//! unboundedly — the connection stays healthy and later requests are
//! admitted again as soon as in-flight work drains.  Both front-ends speak
//! the same shedding contract, so a load generator observes identical
//! behaviour against a shard server and against the router fronting it.

use obs::Gauge;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The two-window admission gate.  `try_admit` / `release` are a handful
/// of atomic ops; nothing here takes a lock.
pub struct AdmissionGate {
    /// Remaining global admission tokens.
    global_tokens: AtomicUsize,
    global_cap: usize,
    per_conn_cap: usize,
    /// `*.inflight`: admission tokens currently held.
    inflight_gauge: Gauge,
}

/// One connection's admission window (its in-flight count).
#[derive(Default)]
pub struct ConnSlots {
    inflight: AtomicUsize,
}

impl AdmissionGate {
    /// A gate with the given global and per-connection windows, reporting
    /// held tokens through `inflight_gauge`.
    pub fn new(global_cap: usize, per_conn_cap: usize, inflight_gauge: Gauge) -> Self {
        Self {
            global_tokens: AtomicUsize::new(global_cap),
            global_cap,
            per_conn_cap,
            inflight_gauge,
        }
    }

    /// Tries to admit one request on `conn`; `false` means the request
    /// must be shed with an `OVERLOAD` response.
    pub fn try_admit(&self, conn: &ConnSlots) -> bool {
        if self
            .global_tokens
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |t| t.checked_sub(1))
            .is_err()
        {
            return false;
        }
        let admitted = conn
            .inflight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.per_conn_cap).then_some(n + 1)
            })
            .is_ok();
        if !admitted {
            self.global_tokens.fetch_add(1, Ordering::AcqRel);
        } else {
            self.inflight_gauge.add(1);
        }
        admitted
    }

    /// Returns one admitted request's tokens.
    pub fn release(&self, conn: &ConnSlots) {
        conn.inflight.fetch_sub(1, Ordering::AcqRel);
        self.global_tokens.fetch_add(1, Ordering::AcqRel);
        self.inflight_gauge.add(-1);
    }

    /// Requests currently admitted (held tokens) — the "drained" count a
    /// graceful shutdown reports.
    pub fn inflight(&self) -> u64 {
        (self.global_cap
            - self
                .global_tokens
                .load(Ordering::Acquire)
                .min(self.global_cap)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Telemetry;

    #[test]
    fn windows_bound_admission_and_release_reopens_them() {
        let t = Telemetry::new();
        let gate = AdmissionGate::new(2, 1, t.metrics.gauge("test.inflight"));
        let a = ConnSlots::default();
        let b = ConnSlots::default();
        assert!(gate.try_admit(&a));
        // Per-connection window of 1 is exhausted for `a`...
        assert!(!gate.try_admit(&a));
        // ...but other connections still fit under the global window.
        assert!(gate.try_admit(&b));
        // Global window of 2 is now exhausted for everyone.
        let c = ConnSlots::default();
        assert!(!gate.try_admit(&c));
        assert_eq!(gate.inflight(), 2);
        gate.release(&a);
        assert!(gate.try_admit(&c));
        gate.release(&b);
        gate.release(&c);
        assert_eq!(gate.inflight(), 0);
        assert_eq!(t.metrics.snapshot().gauge("test.inflight"), Some(0));
    }
}
