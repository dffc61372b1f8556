//! The reader side: a [`Snapshot`] of one epoch's base plus its delta
//! prefix, and the per-class merges that answer every query from the two.
//!
//! A point lookup is one probe of the base: its point lookup visits the
//! location's copies in scan order and the first unmasked one wins, so a
//! deleted first copy costs the rest of that scan, never a second query.

use crate::delta::DeltaState;
use crate::Epoch;
use common::knn::KBest;
use common::{CopyVisit, QueryContext};
use geom::{Point, Rect};
use std::ops::ControlFlow;
use std::sync::Arc;

/// A frozen, consistent view of a [`SpatialServer`](crate::SpatialServer): one epoch's base index
/// plus the delta overlay as of the moment the snapshot was taken.
///
/// Queries merge the two sides: base results whose key was deleted are
/// masked out, live inserted points are unioned in, and every delta entry
/// examined is charged to the caller's [`QueryContext`] as a scanned
/// candidate, so per-query statistics stay exact.  [`seq`](Self::seq) names
/// the exact prefix of the write stream this view observes — the handle a
/// replay oracle verifies concurrent runs against.
pub struct Snapshot {
    pub(crate) epoch: Arc<Epoch>,
    pub(crate) delta: Arc<DeltaState>,
}

impl Snapshot {
    /// Last write sequence number this view observes (0 = none).
    pub fn seq(&self) -> u64 {
        self.delta.seq()
    }

    /// The epoch this view reads from.
    pub fn epoch_id(&self) -> u64 {
        self.epoch.id
    }

    /// Live points in this view.
    pub fn len(&self) -> usize {
        self.epoch.base.len() - self.delta.masked_base() + self.delta.live_inserts()
    }

    /// Whether the view holds no live points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls `visit` for every live copy at exactly the query's location
    /// until it breaks: the base's unmasked copies in the order its point
    /// lookup scans them, then inserted copies, earliest insert first.
    ///
    /// One probe of the base serves every case: when the base's first copy
    /// is deleted, the same scan goes on to the next live one.
    pub fn point_query_visit(&self, q: &Point, cx: &mut QueryContext, visit: &mut CopyVisit) {
        if self.delta.is_empty() {
            return self.epoch.base.point_query_visit(q, cx, visit);
        }
        let inserts = self.delta.entries_at(q);
        cx.count_candidates(inserts.len());
        let mut flow = ControlFlow::Continue(());
        self.epoch.base.point_query_visit(q, cx, &mut |p| {
            if !self.delta.masks(p) {
                flow = visit(p);
            }
            flow
        });
        if flow.is_continue() {
            self.delta.visit_copies_at(inserts, visit);
        }
    }

    /// Looks up a live point with exactly the query's coordinates: the
    /// first copy [`point_query_visit`](Self::point_query_visit) visits.
    ///
    /// Matches `Vec` semantics: a live base copy wins over inserted copies
    /// (the first live one in the base's lookup order), and among inserted
    /// copies the earliest still-live insert wins.
    pub fn point_query(&self, q: &Point, cx: &mut QueryContext) -> Option<Point> {
        let mut hit = None;
        self.point_query_visit(q, cx, &mut |p| {
            hit = Some(*p);
            ControlFlow::Break(())
        });
        hit
    }

    /// Calls `visit` for every live point inside `window`: unmasked base
    /// results first, then live inserted copies.
    pub fn window_query_visit(
        &self,
        window: &Rect,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        if self.delta.is_empty() {
            self.epoch.base.window_query_visit(window, cx, visit);
            return;
        }
        self.epoch.base.window_query_visit(window, cx, &mut |p| {
            if !self.delta.masks(p) {
                visit(p);
            }
        });
        let examined = self.delta.visit_inserts_in(window, visit);
        cx.count_candidates(examined);
    }

    /// Returns the live points inside `window` as a fresh vector.
    pub fn window_query(&self, window: &Rect, cx: &mut QueryContext) -> Vec<Point> {
        let mut out = Vec::new();
        self.window_query_visit(window, cx, &mut |p| out.push(*p));
        out
    }

    /// Calls `visit` for (up to) the `k` live nearest neighbours of `q`,
    /// closest first, ties broken by id — the same deterministic order as
    /// [`common::brute_force::knn_query`].
    pub fn knn_query_visit(
        &self,
        q: &Point,
        k: usize,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        if self.delta.is_empty() {
            self.epoch.base.knn_query_visit(q, k, cx, visit);
            return;
        }
        if k == 0 {
            return;
        }
        // Ask the base for the `k` that was asked for, and widen only on a
        // shortfall: when more masked neighbours came back than the request
        // allowed for and the base had more to give, ask again for `k` plus
        // the masked ones seen.  The request grows every round and stops at
        // `k + masked_base` at the latest.
        let cap = k.saturating_add(self.delta.masked_base());
        let mut best = KBest::new(k);
        let mut k_base = k;
        loop {
            best.clear();
            let (mut returned, mut masked) = (0usize, 0usize);
            self.epoch.base.knn_query_visit(q, k_base, cx, &mut |p| {
                returned += 1;
                if self.delta.masks(p) {
                    masked += 1;
                } else {
                    best.offer(*p, p.dist_sq(q));
                }
            });
            let widened = k.saturating_add(masked).min(cap);
            if returned < k_base || widened <= k_base {
                break;
            }
            k_base = widened;
        }
        // Only inserts no farther than the running k-th distance can enter,
        // and the bound tightens as they do.
        let examined = self.delta.visit_inserts_near(q, best.bound(), &mut |p| {
            best.offer(*p, p.dist_sq(q));
            best.bound()
        });
        cx.count_candidates(examined);
        best.iter().for_each(visit);
    }

    /// Returns (up to) the `k` live nearest neighbours of `q` as a fresh
    /// vector, closest first.
    pub fn knn_query(&self, q: &Point, k: usize, cx: &mut QueryContext) -> Vec<Point> {
        let mut out = Vec::with_capacity(k);
        self.knn_query_visit(q, k, cx, &mut |p| out.push(*p));
        out
    }

    /// Calls `visit` for every live point within `radius` of `center`:
    /// unmasked base results first, then live inserted copies.  Exact for
    /// every base family (distance-range queries are exact throughout the
    /// repository), so a live-served index answers exactly too.
    pub fn range_query_visit(
        &self,
        center: &Point,
        radius: f64,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        if self.delta.is_empty() {
            self.epoch.base.range_query_visit(center, radius, cx, visit);
            return;
        }
        if !radius.is_finite() || radius < 0.0 {
            return;
        }
        self.epoch
            .base
            .range_query_visit(center, radius, cx, &mut |p| {
                if !self.delta.masks(p) {
                    visit(p);
                }
            });
        let r_sq = radius * radius;
        let examined = self.delta.visit_inserts_near(center, r_sq, &mut |p| {
            visit(p);
            r_sq
        });
        cx.count_candidates(examined);
    }

    /// Returns the live points within `radius` of `center` as a fresh
    /// vector.
    pub fn range_query(&self, center: &Point, radius: f64, cx: &mut QueryContext) -> Vec<Point> {
        let mut out = Vec::new();
        self.range_query_visit(center, radius, cx, &mut |p| out.push(*p));
        out
    }

    /// The join worker against this view: every live `(p, q)` pair with `p`
    /// in the view and `q ∈ probes` within `radius`.  Base pairs whose left
    /// side was deleted are masked out; live inserted copies pair directly
    /// against the probe set (each examined entry charged as a candidate) —
    /// the delta-overlay merge that keeps live-served joins exact.
    pub fn distance_join_probes(
        &self,
        probes: &[Point],
        radius: f64,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point, &Point),
    ) {
        if self.delta.is_empty() {
            self.epoch
                .base
                .distance_join_probes(probes, radius, cx, visit);
            return;
        }
        if !radius.is_finite() || radius < 0.0 || probes.is_empty() {
            return;
        }
        let r_sq = radius * radius;
        self.epoch
            .base
            .distance_join_probes(probes, radius, cx, &mut |p, q| {
                if !self.delta.masks(p) {
                    visit(p, q);
                }
            });
        let examined = self.delta.visit_inserts(&mut |p| {
            for q in probes {
                if p.dist_sq(q) <= r_sq {
                    visit(p, q);
                }
            }
        });
        cx.count_candidates(examined);
    }

    /// Visits every live point exactly once: unmasked base points, then
    /// live inserted copies (uncharged, like any index enumeration).
    pub fn for_each_point(&self, visit: &mut dyn FnMut(&Point)) {
        if self.delta.is_empty() {
            self.epoch.base.for_each_point(visit);
            return;
        }
        self.epoch.base.for_each_point(&mut |p| {
            if !self.delta.masks(p) {
                visit(p);
            }
        });
        self.delta.visit_inserts(visit);
    }
}
