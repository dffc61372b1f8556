//! When the server compacts ([`ServerConfig`]), what a serving process adds
//! around it ([`ServeConfig`]), and the fixed bounds on a partial pass.

/// Budget, in microseconds, for the off-lock partial-rebuild work of one
/// pass.  The server keeps a running estimate of per-subtree repair cost
/// and caps the number of subtrees per pass so the pass fits the budget; the
/// remainder is deferred to the next pass.
pub const PAUSE_BUDGET_US: u64 = 50_000;

/// Hard cap on subtrees repaired per partial pass, independent of the cost
/// estimate.
pub const MAX_SUBTREES: usize = 64;

/// When a [`SpatialServer`](crate::SpatialServer) compacts and when a
/// partial pass refits.  Whether a pass *can* be partial is decided per pass
/// from the base index; [`PAUSE_BUDGET_US`] and [`MAX_SUBTREES`] are fixed.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Number of buffered delta ops that triggers a background compaction
    /// (deterministic tests set `usize::MAX` and compact explicitly).
    pub compact_threshold: usize,
    /// Per-subtree model drift at or above which a partial pass refits the
    /// subtree's model as well as repairing its layout (the unit is
    /// "fractions of a refit's worth of churn"; see the drift metric in
    /// `docs/ARCHITECTURE.md`).  Subtrees below it keep their models.
    pub drift_trigger: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            compact_threshold: 1_024,
            drift_trigger: 1.0,
        }
    }
}

impl ServerConfig {
    /// Returns a copy with the given ops threshold (clamped to at least 1).
    pub fn with_compact_threshold(mut self, ops: usize) -> Self {
        self.compact_threshold = ops.max(1);
        self
    }

    /// Returns a copy with the given per-subtree drift trigger.
    pub fn with_drift_trigger(mut self, drift: f64) -> Self {
        self.drift_trigger = drift;
        self
    }
}

/// The unified serving configuration: every knob a serving process needs —
/// compaction ([`ServerConfig`]), the network admission window, the bind
/// address, and an optional snapshot warm-start path — behind one builder.
///
/// This is the front door for `registry::serve_config`, `net::serve_config`,
/// the shard server, and the distributed router; construct it with the
/// `with_*` builders.  The network defaults are written here and nowhere
/// else: `net` and the router read the fields directly.  [`ServerConfig`]
/// is the compaction subset, for callers that construct a
/// [`SpatialServer`](crate::SpatialServer) without a listener.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address the serving listener binds (port 0 = ephemeral).
    pub bind_addr: String,
    /// Snapshot to warm-start from instead of building fresh (`None` =
    /// build from the supplied points).
    pub warm_start: Option<std::path::PathBuf>,
    /// Compaction knobs of the wrapped [`SpatialServer`](crate::SpatialServer).
    pub server: ServerConfig,
    /// Bounded global in-flight admission window (a connection has at most
    /// one request in flight).
    pub global_inflight: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            bind_addr: "127.0.0.1:0".to_string(),
            warm_start: None,
            server: ServerConfig::default(),
            global_inflight: 1024,
        }
    }
}

impl ServeConfig {
    /// Returns a copy binding the given address (port 0 = ephemeral).
    pub fn with_bind_addr(mut self, addr: impl Into<String>) -> Self {
        self.bind_addr = addr.into();
        self
    }

    /// Returns a copy that warm-starts from the given snapshot path.
    pub fn with_warm_start(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.warm_start = Some(path.into());
        self
    }

    /// Returns the configuration unchanged: every request is answered on
    /// its connection's own thread, so there is no worker pool to size.
    /// Kept only because the benchmark harness
    /// (`benchmark/src/workloads/wire_read.rs`) still calls it; it goes
    /// when that call does.
    pub fn with_workers(self, _n: usize) -> Self {
        self
    }

    /// Returns a copy with the given global in-flight window (0 sheds
    /// everything — useful in tests).
    pub fn with_global_inflight(mut self, n: usize) -> Self {
        self.global_inflight = n;
        self
    }
}
