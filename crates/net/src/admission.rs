//! Bounded-in-flight admission control, the gate of the shared listener
//! front-end ([`crate::frontend`]).
//!
//! The mechanism is one bounded counter, the global in-flight window (a
//! connection has at most one request in flight, since it is read, answered
//! and written on one thread).  When it is exhausted the request must be
//! shed immediately with a typed `OVERLOAD` response instead of queueing
//! unboundedly — the connection stays healthy and later requests are
//! admitted again as soon as in-flight work drains.  Both front-ends speak
//! the same shedding contract, so a load generator observes identical
//! behaviour against a shard server and against the router fronting it.

use obs::Gauge;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The admission gate.  `try_admit` / `release` are a handful of atomic
/// ops; nothing here takes a lock.
pub(crate) struct AdmissionGate {
    /// Remaining global admission tokens.
    global_tokens: AtomicUsize,
    global_cap: usize,
    /// `*.inflight`: admission tokens currently held.
    inflight_gauge: Gauge,
}

impl AdmissionGate {
    /// A gate with the given global window, reporting held tokens through
    /// `inflight_gauge`.
    pub(crate) fn new(global_cap: usize, inflight_gauge: Gauge) -> Self {
        Self {
            global_tokens: AtomicUsize::new(global_cap),
            global_cap,
            inflight_gauge,
        }
    }

    /// Tries to admit one request; `false` means the request must be shed
    /// with an `OVERLOAD` response.
    pub(crate) fn try_admit(&self) -> bool {
        let admitted = self
            .global_tokens
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |t| t.checked_sub(1))
            .is_ok();
        if admitted {
            self.inflight_gauge.add(1);
        }
        admitted
    }

    /// Returns one admitted request's token.
    pub(crate) fn release(&self) {
        self.global_tokens.fetch_add(1, Ordering::AcqRel);
        self.inflight_gauge.add(-1);
    }

    /// Requests currently admitted (held tokens) — the "drained" count a
    /// graceful shutdown reports.
    pub(crate) fn inflight(&self) -> u64 {
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
        let gate = AdmissionGate::new(2, t.metrics.gauge("test.inflight"));
        assert!(gate.try_admit());
        assert!(gate.try_admit());
        // The global window of 2 is exhausted...
        assert!(!gate.try_admit());
        assert_eq!(gate.inflight(), 2);
        // ...and a release reopens it.
        gate.release();
        assert!(gate.try_admit());
        gate.release();
        gate.release();
        assert_eq!(gate.inflight(), 0);
        assert_eq!(t.metrics.snapshot().gauge("test.inflight"), Some(0));
    }
}
