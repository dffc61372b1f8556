//! In-memory span recorder for the traced run.
//!
//! The harness wraps each call into a layer in a span (name, start, end,
//! parent, request id).  Spans stay in memory and are written as one JSON
//! file when the run ends; a span's self time is its duration minus the
//! part its children cover.  The spans are recorded from outside the
//! product — around its public calls — so they cost the product nothing
//! and a later in-program stage clock has something to reconcile to.

use crate::stats::{median, nanos_u32};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

const NO_PARENT: u32 = u32::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    parent: u32,
    pub request: u64,
}

/// The spans of one traced pass.  A span's id is its index.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Span times are nanoseconds since `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<u32>, request: u64) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: parent.unwrap_or(NO_PARENT),
            request,
        });
        id
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn child<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, Some(parent), request);
        let out = f();
        self.close(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Median self time in microseconds per span name.
    pub fn self_time_p50_us(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, child_ns) in self.spans.iter().zip(covered) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns);
            by_name
                .entry(s.name)
                .or_default()
                .push(nanos_u32(Duration::from_nanos(self_ns)) as f64 / 1_000.0);
        }
        by_name
            .into_iter()
            .filter_map(|(name, v)| median(&v).map(|m| (name, m)))
            .collect()
    }

    /// Names of the direct children of every span called `parent_name`.
    pub fn child_names_of(&self, parent_name: &str) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self
            .spans
            .iter()
            .filter(|s| s.parent != NO_PARENT && self.spans[s.parent as usize].name == parent_name)
            .map(|s| s.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": ["
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let sep = if id == 0 { "" } else { "," };
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                w,
                "{sep}\n{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

/// Drives a traced pass.  Operations alternate between bare and traced, so
/// both halves see the same mix of operations and the same drift of the
/// machine, and the difference of their mean times is what tracing costs.
pub struct TracedPass {
    pub tracer: Tracer,
    turn: u64,
    started: Instant,
    open_root: Option<u32>,
    bare: Duration,
    traced: Duration,
}

impl TracedPass {
    pub fn new() -> Self {
        let now = Instant::now();
        Self {
            tracer: Tracer::new(now),
            turn: 0,
            started: now,
            open_root: None,
            bare: Duration::ZERO,
            traced: Duration::ZERO,
        }
    }

    /// Starts the next operation.  On a bare turn returns `None`; on a
    /// traced turn opens the operation's `request` span and returns it with
    /// the request id, for the caller to hang the layer spans under.
    pub fn begin(&mut self) -> Option<(u32, u64)> {
        let id = self.turn;
        self.turn += 1;
        self.started = Instant::now();
        self.open_root = (id % 2 == 1).then(|| self.tracer.open("request", None, id));
        self.open_root.map(|root| (root, id))
    }

    /// Ends the operation [`begin`](Self::begin) started.
    pub fn end(&mut self) {
        match self.open_root.take() {
            Some(root) => {
                self.tracer.close(root);
                self.traced += self.started.elapsed();
            }
            None => self.bare += self.started.elapsed(),
        }
    }

    /// Mean time of a traced operation over that of a bare one, minus one,
    /// in per cent.
    pub fn overhead_pct(&self) -> f64 {
        let traced_turns = self.turn / 2;
        let bare_turns = self.turn - traced_turns;
        let traced = self.traced.as_secs_f64() / traced_turns.max(1) as f64;
        let bare = self.bare.as_secs_f64() / bare_turns.max(1) as f64;
        (traced / bare - 1.0) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("request", None, 1);
        t.child("core", root, 1, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        t.close(root);
        assert_eq!(t.len(), 2);
        assert_eq!(t.child_names_of("request"), vec!["core"]);
        let self_us = t.self_time_p50_us();
        assert!(self_us["core"] >= 2_000.0);
        assert!(self_us["request"] < self_us["core"]);
    }

    #[test]
    fn a_traced_pass_alternates_and_keeps_request_ids() {
        let mut pass = TracedPass::new();
        assert!(pass.begin().is_none());
        pass.end();
        let (root, id) = pass.begin().expect("odd turns are traced");
        pass.tracer.child("core", root, id, || ());
        pass.end();
        assert_eq!((root, id), (0, 1));
        assert_eq!(pass.tracer.child_names_of("request"), vec!["core"]);
        assert!(pass.overhead_pct().is_finite());
    }
}
