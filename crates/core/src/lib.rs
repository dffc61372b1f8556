//! RSMI — the Recursive Spatial Model Index.
//!
//! This crate is the Rust reproduction of the primary contribution of
//! *"Effectively Learning Spatial Indices"* (Qi, Liu, Jensen, Kulik, VLDB
//! 2020): a learned index for two-dimensional point data.
//!
//! # How it works
//!
//! 1. **Ordering (§3.1).**  Points are mapped into a *rank space* — an
//!    `n x n` grid in which every row and column holds exactly one point —
//!    and ordered along a space-filling curve (Hilbert by default).  Every
//!    `B` consecutive points are packed into a block; the index learns a
//!    small multilayer perceptron that maps point coordinates directly to
//!    block IDs, together with the maximum under-/over-prediction errors
//!    observed on the data (`err_ℓ`, `err_a`).
//! 2. **Recursive partitioning (§3.2).**  Data sets larger than the
//!    partition threshold `N` are recursively split with a non-regular,
//!    data-driven `2^⌊log₄(N/B)⌋ x 2^⌊log₄(N/B)⌋` grid.  A model is trained
//!    to predict the grid-cell curve value of each point and the points are
//!    grouped *by the model's own predictions*, so the same model later
//!    routes queries with zero routing error for indexed points.
//! 3. **Queries (§4).**  Point queries descend one model per level and scan
//!    the error-bounded block range; window queries locate the blocks of the
//!    window's anchor corner points and scan between them (approximate, no
//!    false positives); kNN queries expand a data-distribution-scaled search
//!    region around the query point.
//! 4. **Updates (§5).**  Insertions go to the predicted block or to a linked
//!    overflow block; deletions leave free slots; [`Rsmi::rebuild`]
//!    implements the RSMIr periodic-rebuild variant.
//!
//! The MBR-augmented exact variants of window and kNN queries (the paper's
//! **RSMIa**) are available as [`Rsmi::window_query_exact`] /
//! [`Rsmi::knn_query_exact`], or uniformly through the [`RsmiExact`]
//! wrapper, which answers exactly via the common `SpatialIndex` trait.
//!
//! # Quick start
//!
//! Queries go through the zero-copy visitor/`Vec` API of
//! [`common::SpatialIndex`], with per-query costs charged to an explicit
//! [`common::QueryContext`]:
//!
//! ```
//! use datagen::{generate, Distribution};
//! use geom::{Point, Rect};
//! use rsmi::{Rsmi, RsmiConfig};
//! use common::{QueryContext, SpatialIndex};
//!
//! let points = generate(Distribution::Uniform, 2_000, 42);
//! let index = Rsmi::build(points.clone(), RsmiConfig::fast());
//! let mut cx = QueryContext::new();
//!
//! // Point query: every indexed point can be found again.
//! assert_eq!(index.point_query(&points[7], &mut cx).unwrap().id, points[7].id);
//!
//! // Window query, zero-copy visitor form (approximate — no false positives).
//! let window = Rect::new(0.4, 0.4, 0.6, 0.6);
//! index.window_query_visit(&window, &mut cx, &mut |p| {
//!     assert!(window.contains(p));
//! });
//!
//! // kNN query via the Vec adapter of the trait.
//! let nn = SpatialIndex::knn_query(&index, &Point::new(0.5, 0.5), 5, &mut cx);
//! assert_eq!(nn.len(), 5);
//!
//! // Batch point queries amortise per-call overhead and aggregate stats.
//! let answers = index.point_queries(&points[..64], &mut cx);
//! assert!(answers.iter().all(|a| a.is_some()));
//! let stats = cx.take_stats();
//! assert!(stats.blocks_touched > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod exact;
mod index;
mod node;
mod pmf;

pub use exact::RsmiExact;
pub use index::{Rsmi, RsmiStats};
pub use pmf::PiecewiseCdf;

use sfc::CurveKind;

/// Configuration of an RSMI index.
#[derive(Debug, Clone, Copy)]
pub struct RsmiConfig {
    /// Block capacity `B` (the paper uses 100).
    pub block_capacity: usize,
    /// Partition threshold `N`: the maximum number of points a single leaf
    /// model handles (the paper determines 10 000 empirically, Table 3).
    pub partition_threshold: usize,
    /// Space-filling curve used for ordering (§6.1: Hilbert by default).
    pub curve: CurveKind,
    /// Most training epochs per sub-model; a fit stops sooner once its loss
    /// stops improving (`mlp::Mlp::train`).  The paper uses 500; the default
    /// cap here is smaller so that experiments run at laptop scale — the
    /// harness can raise it.
    pub epochs: usize,
    /// SGD learning rate (paper: 0.01; a larger rate compensates for the
    /// reduced epoch count).
    pub learning_rate: f64,
    /// Seed for deterministic model initialisation.
    pub seed: u64,
    /// Whether leaf models order points in rank space (`true`, the paper's
    /// design) or directly on raw coordinates (`false`, ablation).
    pub use_rank_space: bool,
    /// Whether points are grouped by the partitioning model's *predictions*
    /// (`true`, the paper's design) or by the true grid cell (`false`,
    /// ablation).
    pub group_by_prediction: bool,
    /// Number of pieces of the piecewise CDF used to estimate the kNN skew
    /// parameters (γ in §4.3; the paper uses 100).
    pub cdf_pieces: usize,
    /// Hard cap on recursion depth as a safety net against degenerate
    /// groupings (the paper reports a maximum depth of 10).
    pub max_depth: usize,
}

impl Default for RsmiConfig {
    fn default() -> Self {
        Self {
            block_capacity: 100,
            partition_threshold: 10_000,
            curve: CurveKind::Hilbert,
            epochs: 40,
            learning_rate: 0.15,
            seed: 42,
            use_rank_space: true,
            group_by_prediction: true,
            cdf_pieces: 100,
            max_depth: 32,
        }
    }
}

impl RsmiConfig {
    /// A configuration tuned for unit/integration tests and doc examples:
    /// small blocks and few epochs so builds finish in milliseconds.
    pub fn fast() -> Self {
        Self {
            block_capacity: 50,
            partition_threshold: 2_000,
            epochs: 25,
            learning_rate: 0.3,
            ..Self::default()
        }
    }

    /// Returns a copy using the given curve.
    pub fn with_curve(mut self, curve: CurveKind) -> Self {
        self.curve = curve;
        self
    }

    /// Returns a copy with the given partition threshold `N`.
    pub fn with_partition_threshold(mut self, n: usize) -> Self {
        self.partition_threshold = n;
        self
    }

    /// Returns a copy with the given block capacity `B`.
    pub fn with_block_capacity(mut self, b: usize) -> Self {
        self.block_capacity = b;
        self
    }

    /// Returns a copy with the given epoch count.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Returns a copy with rank-space ordering enabled or disabled
    /// (ablation of the paper's key design choice).
    pub fn with_rank_space(mut self, on: bool) -> Self {
        self.use_rank_space = on;
        self
    }

    /// Returns a copy with prediction-based grouping enabled or disabled.
    pub fn with_group_by_prediction(mut self, on: bool) -> Self {
        self.group_by_prediction = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_parameters() {
        let c = RsmiConfig::default();
        assert_eq!(c.block_capacity, 100);
        assert_eq!(c.partition_threshold, 10_000);
        assert_eq!(c.curve, CurveKind::Hilbert);
        assert_eq!(c.cdf_pieces, 100);
        assert!(c.use_rank_space);
        assert!(c.group_by_prediction);
    }

    #[test]
    fn builder_style_setters_apply() {
        let c = RsmiConfig::default()
            .with_curve(CurveKind::Z)
            .with_partition_threshold(5000)
            .with_block_capacity(64)
            .with_epochs(10)
            .with_rank_space(false)
            .with_group_by_prediction(false);
        assert_eq!(c.curve, CurveKind::Z);
        assert_eq!(c.partition_threshold, 5000);
        assert_eq!(c.block_capacity, 64);
        assert_eq!(c.epochs, 10);
        assert!(!c.use_rank_space);
        assert!(!c.group_by_prediction);
    }
}
