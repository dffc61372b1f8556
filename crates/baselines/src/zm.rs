//! ZM — the learned Z-order model baseline (Wang et al., MDM 2019), as
//! implemented by the RSMI paper's authors for their comparison: "a recursive
//! version of the model with three levels with 1, √(n/B²), and n/B²
//! sub-models each" (§6.1).
//!
//! The model maps a point's Z-curve value (computed on the raw coordinates,
//! *not* in rank space — that is exactly the difference RSMI addresses) to
//! the rank of the point among all points sorted by Z-value.  The rank
//! determines the data block (`rank / B`).

use common::{knn, CopyVisit, QueryContext, SpatialIndex};
use geom::{Point, Rect};
use mlp::{MlpConfig, ScaledRegressor};
use persist::{PersistError, SnapshotReader, SnapshotWriter};
use sfc::zcurve;
use storage::{BlockId, BlockStore};

/// Bits per dimension of the Z-curve grid.  With 20 bits per dimension the
/// 40-bit curve value is exactly representable in an `f64` mantissa, so the
/// learned models see no quantisation noise.
const Z_ORDER: u32 = 20;

/// Section tag of the ZM metadata (config and counts).
const SECTION_ZM_META: u32 = 0x5A01;
/// Section tag of the ZM model levels (trained weights, no retraining).
/// The retired `0x5A02` held error bounds measured under the libm sigmoid
/// and is refused.
const SECTION_ZM_MODELS: u32 = 0x5A03;

/// Configuration of the ZM baseline.
#[derive(Debug, Clone, Copy)]
pub struct ZmConfig {
    /// Block capacity `B`.
    pub block_capacity: usize,
    /// Most training epochs per sub-model; a fit stops sooner once its loss
    /// stops improving (`mlp::Mlp::train`).
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Seed for deterministic training.
    pub seed: u64,
}

impl Default for ZmConfig {
    fn default() -> Self {
        Self {
            block_capacity: 100,
            epochs: 40,
            learning_rate: 0.15,
            seed: 42,
        }
    }
}

impl ZmConfig {
    /// Small configuration for tests.
    pub fn fast() -> Self {
        Self {
            block_capacity: 50,
            epochs: 25,
            learning_rate: 0.3,
            ..Self::default()
        }
    }
}

/// The three-level recursive Z-order model ("ZM" in the figures).
#[derive(Debug)]
pub struct ZOrderModel {
    config: ZmConfig,
    store: BlockStore,
    root: Option<ScaledRegressor>,
    level1: Vec<Option<ScaledRegressor>>,
    level2: Vec<Option<ScaledRegressor>>,
    /// Live point count (grows/shrinks with updates).
    n_points: usize,
    /// Point count at bulk-load time; model routing and rank clamping must
    /// use this fixed value so that predictions stay deterministic across
    /// later insertions and deletions.
    built_n: usize,
    model_count: usize,
}

impl ZOrderModel {
    /// Bulk-loads the ZM index.
    pub fn build(points: Vec<Point>, config: ZmConfig) -> Self {
        let n = points.len();
        let mut store = BlockStore::new(config.block_capacity);
        if n == 0 {
            return Self {
                config,
                store,
                root: None,
                level1: Vec::new(),
                level2: Vec::new(),
                n_points: 0,
                built_n: 0,
                model_count: 0,
            };
        }
        // Sort by Z-value and pack into blocks.
        let mut keyed: Vec<(u64, Point)> = points
            .iter()
            .map(|p| (zcurve::encode_unit(p.x, p.y, Z_ORDER), *p))
            .collect();
        keyed.sort_by_key(|(z, p)| (*z, p.id));
        let ordered: Vec<Point> = keyed.iter().map(|(_, p)| *p).collect();
        store.pack(&ordered);

        let keys: Vec<[f64; 1]> = keyed.iter().map(|(z, _)| [*z as f64]).collect();
        let ranks: Vec<u64> = (0..n as u64).collect();

        let b2 = (config.block_capacity * config.block_capacity) as f64;
        let m1 = ((n as f64 / b2).sqrt().ceil() as usize).max(1);
        let m2 = ((n as f64 / b2).ceil() as usize).max(1);

        let mlp_config = |seed_offset: u64| MlpConfig {
            input_dim: 1,
            hidden: 16,
            learning_rate: config.learning_rate,
            epochs: config.epochs,
            batch_size: 32,
            seed: config.seed.wrapping_add(seed_offset),
        };

        let mut model_count = 0usize;
        // Level 0: one model over the whole key space.
        let root = ScaledRegressor::fit(mlp_config(0), &keys, &ranks);
        model_count += 1;

        // Level 1: assign each point by the root's predicted rank.
        let mut groups1: Vec<Vec<usize>> = vec![Vec::new(); m1];
        for (i, key) in keys.iter().enumerate() {
            let pred = root.predict(key);
            let idx = ((pred as usize * m1) / n).min(m1 - 1);
            groups1[idx].push(i);
        }
        let mut level1: Vec<Option<ScaledRegressor>> = Vec::with_capacity(m1);
        for (g, idxs) in groups1.iter().enumerate() {
            if idxs.is_empty() {
                level1.push(None);
                continue;
            }
            let sub_keys: Vec<[f64; 1]> = idxs.iter().map(|&i| keys[i]).collect();
            let sub_ranks: Vec<u64> = idxs.iter().map(|&i| ranks[i]).collect();
            level1.push(Some(ScaledRegressor::fit(
                mlp_config(1 + g as u64),
                &sub_keys,
                &sub_ranks,
            )));
            model_count += 1;
        }

        // Level 2: assign by the level-1 predictions.
        let mut groups2: Vec<Vec<usize>> = vec![Vec::new(); m2];
        for (g, idxs) in groups1.iter().enumerate() {
            let model = level1[g].as_ref().expect("group non-empty implies model");
            for &i in idxs {
                let pred = model.predict(&keys[i]);
                let idx = ((pred as usize * m2) / n).min(m2 - 1);
                groups2[idx].push(i);
            }
        }
        let mut level2: Vec<Option<ScaledRegressor>> = Vec::with_capacity(m2);
        for (g, idxs) in groups2.iter().enumerate() {
            if idxs.is_empty() {
                level2.push(None);
                continue;
            }
            let sub_keys: Vec<[f64; 1]> = idxs.iter().map(|&i| keys[i]).collect();
            let sub_ranks: Vec<u64> = idxs.iter().map(|&i| ranks[i]).collect();
            level2.push(Some(ScaledRegressor::fit(
                mlp_config(1000 + g as u64),
                &sub_keys,
                &sub_ranks,
            )));
            model_count += 1;
        }

        Self {
            config,
            store,
            root: Some(root),
            level1,
            level2,
            n_points: n,
            built_n: n,
            model_count,
        }
    }

    /// The number of learned sub-models (1 + m1 + m2 minus empty slots).
    pub fn model_count(&self) -> usize {
        self.model_count
    }

    /// Maximum error bounds over the leaf-level models, in *blocks*
    /// (reported in Table 4 of the paper).
    pub fn error_bounds_blocks(&self) -> (u64, u64) {
        let b = self.config.block_capacity as u64;
        let mut below = 0;
        let mut above = 0;
        for m in self.level2.iter().flatten() {
            below = below.max(m.err_below().div_ceil(b));
            above = above.max(m.err_above().div_ceil(b));
        }
        (below, above)
    }

    fn nearest_model(models: &[Option<ScaledRegressor>], idx: usize) -> Option<&ScaledRegressor> {
        if let Some(Some(m)) = models.get(idx) {
            return Some(m);
        }
        for offset in 1..models.len().max(1) {
            if idx >= offset {
                if let Some(m) = &models[idx - offset] {
                    return Some(m);
                }
            }
            if idx + offset < models.len() {
                if let Some(m) = &models[idx + offset] {
                    return Some(m);
                }
            }
        }
        None
    }

    /// Predicted rank range `[lo, hi]` for a Z-value, covering the leaf
    /// model's error bounds.  Charges one node visit per sub-model invoked.
    fn predicted_rank_range(&self, z: u64, cx: &mut QueryContext) -> Option<(u64, u64)> {
        let root = self.root.as_ref()?;
        let key = [z as f64];
        // Use the bulk-load cardinality, not the live count: routing must be
        // identical for the same key before and after updates, otherwise a
        // point inserted earlier could fall outside a later scan range.
        let n = self.built_n;
        cx.count_node();
        let pred0 = root.predict(&key);
        let idx1 = ((pred0 as usize * self.level1.len()) / n).min(self.level1.len() - 1);
        let m1 = Self::nearest_model(&self.level1, idx1)?;
        cx.count_node();
        let pred1 = m1.predict(&key);
        let idx2 = ((pred1 as usize * self.level2.len()) / n).min(self.level2.len() - 1);
        let m2 = Self::nearest_model(&self.level2, idx2)?;
        cx.count_node();
        let pred2 = m2.predict(&key);
        let lo = pred2.saturating_sub(m2.err_above());
        let hi = (pred2 + m2.err_below()).min(n as u64 - 1);
        Some((lo, hi))
    }

    /// Predicted block range for a Z-value.
    fn predicted_block_range(&self, z: u64, cx: &mut QueryContext) -> Option<(BlockId, BlockId)> {
        let (lo, hi) = self.predicted_rank_range(z, cx)?;
        let b = self.config.block_capacity as u64;
        let max_block = self.store.len().saturating_sub(1);
        Some((
            ((lo / b) as usize).min(max_block),
            ((hi / b) as usize).min(max_block),
        ))
    }

    /// Read access to the underlying block store.
    pub fn block_store(&self) -> &BlockStore {
        &self.store
    }

    /// Reads a ZM snapshot written by [`SpatialIndex::write_snapshot`].
    pub fn read_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        r.begin_section(SECTION_ZM_META)?;
        let config = ZmConfig {
            block_capacity: r.get_usize()?,
            epochs: r.get_usize()?,
            learning_rate: r.get_f64()?,
            seed: r.get_u64()?,
        };
        let n_points = r.get_usize()?;
        let built_n = r.get_usize()?;
        let model_count = r.get_usize()?;
        r.end_section()?;
        let store = BlockStore::read_snapshot(r)?;
        if store.capacity() != config.block_capacity {
            return Err(PersistError::Corrupt(
                "ZM store capacity differs from its config".into(),
            ));
        }
        r.begin_section(SECTION_ZM_MODELS)?;
        let root = decode_opt_model(r)?;
        let level1 = decode_model_level(r)?;
        let level2 = decode_model_level(r)?;
        r.end_section()?;
        Ok(Self {
            config,
            store,
            root,
            level1,
            level2,
            n_points,
            built_n,
            model_count,
        })
    }
}

fn encode_opt_model(w: &mut SnapshotWriter, model: Option<&ScaledRegressor>) {
    match model {
        Some(m) => {
            w.put_bool(true);
            m.encode(w);
        }
        None => w.put_bool(false),
    }
}

fn decode_opt_model(r: &mut SnapshotReader<'_>) -> Result<Option<ScaledRegressor>, PersistError> {
    if r.get_bool()? {
        Ok(Some(ScaledRegressor::decode(r)?))
    } else {
        Ok(None)
    }
}

fn encode_model_level(w: &mut SnapshotWriter, level: &[Option<ScaledRegressor>]) {
    w.put_usize(level.len());
    for model in level {
        encode_opt_model(w, model.as_ref());
    }
}

fn decode_model_level(
    r: &mut SnapshotReader<'_>,
) -> Result<Vec<Option<ScaledRegressor>>, PersistError> {
    let n = r.get_len(1)?;
    let mut level = Vec::with_capacity(n);
    for _ in 0..n {
        level.push(decode_opt_model(r)?);
    }
    Ok(level)
}

impl SpatialIndex for ZOrderModel {
    fn name(&self) -> &'static str {
        "ZM"
    }

    fn len(&self) -> usize {
        self.n_points
    }

    fn point_query_visit(&self, q: &Point, cx: &mut QueryContext, visit: &mut CopyVisit) {
        let z = zcurve::encode_unit(q.x, q.y, Z_ORDER);
        let Some((lo, hi)) = self.predicted_block_range(z, cx) else {
            return;
        };
        for (_, block) in self.store.chain_range(lo, hi) {
            if block.mbr().contains(q) {
                cx.count_block_scan(block.len());
                if block.find_at(q.x, q.y, &mut *visit).is_break() {
                    return;
                }
            }
        }
    }

    fn window_query_visit(
        &self,
        window: &Rect,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        if self.n_points == 0 {
            return;
        }
        // For the Z-curve the minimum and maximum curve values inside the
        // window are attained at its bottom-left and top-right corners.
        let zl = zcurve::encode_unit(window.min_x, window.min_y, Z_ORDER);
        let zh = zcurve::encode_unit(window.max_x, window.max_y, Z_ORDER);
        let Some((lo, _)) = self.predicted_block_range(zl, cx) else {
            return;
        };
        let Some((_, hi)) = self.predicted_block_range(zh, cx) else {
            return;
        };
        let (lo, hi) = (lo.min(hi), hi.max(lo));
        for (_, block) in self.store.chain_range(lo, hi) {
            if block.mbr().intersects(window) {
                cx.count_block_scan(block.len());
                block.for_each_in_rect(window, |p| visit(&p));
            }
        }
    }

    fn knn_query_visit(
        &self,
        q: &Point,
        k: usize,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        // The ZM paper has no kNN algorithm; the RSMI authors run their own
        // search-region-expansion algorithm on top of ZM (§6.2.4).  The skew
        // parameters are 1 since ZM learns no marginal CDFs, and each round
        // is a fresh window query, so the list starts over with it.
        let best = knn::expand(
            q,
            k,
            self.n_points,
            (1.0, 1.0),
            cx,
            |region, best, cx| {
                best.clear();
                self.window_query_visit(region, cx, &mut |p| best.offer(*p, p.dist_sq(q)));
            },
            |best, cx| {
                for (_, block) in self.store.iter() {
                    cx.count_block_scan(block.len());
                    block.for_each_dist_sq(q, |p, d_sq| best.offer(p, d_sq));
                }
            },
        );
        best.iter().for_each(visit);
    }

    fn range_query_visit(
        &self,
        center: &Point,
        radius: f64,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point),
    ) {
        // ZM's learned error bounds only hold for *indexed* keys, so a
        // model-predicted scan range over a query circle cannot guarantee
        // coverage (that is exactly why its window answers are approximate).
        // Distance-range answers are required to be exact for every family,
        // so ZM falls back to a bounded sweep of the curve-ordered store,
        // pruning each block by its MBR's MINDIST.  The MBR sits in the
        // block header, so the test is free; a block is charged when it
        // survives and is opened (the one rule of every family).
        if !radius.is_finite() || radius < 0.0 {
            return;
        }
        let r_sq = radius * radius;
        for (_, block) in self.store.iter() {
            if block.is_empty() || block.mbr().min_dist_sq(center) > r_sq {
                continue;
            }
            cx.count_block_scan(block.len());
            block.for_each_within(center, r_sq, |p, _| visit(&p));
        }
    }

    fn for_each_point(&self, visit: &mut dyn FnMut(&Point)) {
        self.store.for_each_point(visit)
    }

    fn distance_join_probes(
        &self,
        probes: &[Point],
        radius: f64,
        cx: &mut QueryContext,
        visit: &mut dyn FnMut(&Point, &Point),
    ) {
        // One sweep of the store joins every probe at once: each block's MBR
        // (free to test, as above) discards the probes beyond the radius,
        // and a block some probe survives to is opened exactly once —
        // instead of one full-store range probe per point of the other
        // index.
        if !radius.is_finite() || radius < 0.0 || probes.is_empty() {
            return;
        }
        let r_sq = radius * radius;
        let mut kept: Vec<Point> = Vec::new();
        for (_, block) in self.store.iter() {
            if block.is_empty() {
                continue;
            }
            storage::kernels::probes_within(probes, &block.mbr(), r_sq, &mut kept);
            if kept.is_empty() {
                continue;
            }
            cx.count_block_scan(block.len());
            block.for_each_pair_within(&kept, r_sq, &mut *visit);
        }
    }

    fn insert(&mut self, p: Point) {
        if self.n_points == 0 {
            *self = ZOrderModel::build(vec![p], self.config);
            return;
        }
        let z = zcurve::encode_unit(p.x, p.y, Z_ORDER);
        let mut scratch = QueryContext::new();
        let (lo, hi) = self
            .predicted_block_range(z, &mut scratch)
            .expect("non-empty index has models");
        // Insert into the predicted block (middle of the range), or the
        // first block of its overflow chain that has space, or a new
        // overflow block.
        let mut tail = (lo + hi) / 2;
        let mut target = None;
        for (id, block) in self.store.overflow_chain(tail) {
            tail = id;
            if !block.is_full() {
                target = Some(id);
                break;
            }
        }
        let target = target.unwrap_or_else(|| self.store.insert_overflow_after(tail));
        self.store.block_mut(target).push(p);
        self.n_points += 1;
    }

    fn delete(&mut self, p: &Point) -> bool {
        if self.n_points == 0 {
            return false;
        }
        let z = zcurve::encode_unit(p.x, p.y, Z_ORDER);
        let mut scratch = QueryContext::new();
        let Some((lo, hi)) = self.predicted_block_range(z, &mut scratch) else {
            return false;
        };
        let removed = self.store.remove_in_chain_range(lo, hi, p);
        self.n_points -= removed;
        removed > 0
    }

    fn size_bytes(&self) -> usize {
        let models: usize = self.root.as_ref().map(|m| m.size_bytes()).unwrap_or(0)
            + self
                .level1
                .iter()
                .flatten()
                .map(ScaledRegressor::size_bytes)
                .sum::<usize>()
            + self
                .level2
                .iter()
                .flatten()
                .map(ScaledRegressor::size_bytes)
                .sum::<usize>();
        self.store.size_bytes() + models
    }

    fn height(&self) -> usize {
        3
    }

    fn model_count(&self) -> usize {
        self.model_count
    }

    fn model_error_bounds(&self) -> Option<(u64, u64)> {
        Some(self.error_bounds_blocks())
    }

    fn write_snapshot(&self, w: &mut SnapshotWriter) -> Result<(), PersistError> {
        w.begin_section(SECTION_ZM_META);
        w.put_usize(self.config.block_capacity);
        w.put_usize(self.config.epochs);
        w.put_f64(self.config.learning_rate);
        w.put_u64(self.config.seed);
        w.put_usize(self.n_points);
        w.put_usize(self.built_n);
        w.put_usize(self.model_count);
        w.end_section();
        self.store.write_snapshot(w);
        w.begin_section(SECTION_ZM_MODELS);
        encode_opt_model(w, self.root.as_ref());
        encode_model_level(w, &self.level1);
        encode_model_level(w, &self.level2);
        w.end_section();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use common::{brute_force, metrics};
    use datagen::{generate, Distribution};
    use std::ops::ControlFlow::Break;

    fn cx() -> QueryContext {
        QueryContext::new()
    }

    fn build_small(n: usize) -> (Vec<Point>, ZOrderModel) {
        let pts = generate(Distribution::Uniform, n, 17);
        let zm = ZOrderModel::build(pts.clone(), ZmConfig::fast());
        (pts, zm)
    }

    #[test]
    fn point_queries_find_every_point() {
        let (pts, zm) = build_small(1200);
        for p in &pts {
            let found = zm.point_query(p, &mut cx());
            assert_eq!(found.map(|f| f.id), Some(p.id), "lost {p:?}");
        }
    }

    #[test]
    fn point_query_misses_absent_points() {
        let (_, zm) = build_small(500);
        assert!(zm
            .point_query(&Point::new(0.111111, 0.222222), &mut cx())
            .is_none());
    }

    #[test]
    fn a_point_hit_stops_reading_the_predicted_range() {
        // Regression: the lookup kept reading (and charging) the rest of
        // its predicted range after it had its answer.
        let (pts, zm) = build_small(1200);
        for p in &pts {
            let z = zcurve::encode_unit(p.x, p.y, Z_ORDER);
            let (lo, hi) = zm.predicted_block_range(z, &mut cx()).unwrap();
            let position = zm
                .store
                .chain_range(lo, hi)
                .position(|(_, block)| block.find_at(p.x, p.y, |_| Break(())).is_break())
                .expect("the predicted range holds every indexed point");
            let mut c = cx();
            assert!(zm.point_query(p, &mut c).is_some());
            assert!(
                c.stats.blocks_touched as usize <= position + 1,
                "{p:?}: {} blocks read for a hit in block {position} of its range",
                c.stats.blocks_touched
            );
        }
    }

    #[test]
    fn window_queries_have_no_false_positives_and_reasonable_recall() {
        let (pts, zm) = build_small(2000);
        let mut recalls = Vec::new();
        for w in [
            Rect::new(0.1, 0.1, 0.3, 0.3),
            Rect::new(0.45, 0.45, 0.55, 0.6),
            Rect::new(0.7, 0.2, 0.95, 0.4),
        ] {
            let truth = brute_force::window_query(&pts, &w);
            let got = zm.window_query(&w, &mut cx());
            assert_eq!(metrics::false_positive_rate(&got, &truth), 0.0);
            recalls.push(metrics::recall(&got, &truth));
        }
        assert!(metrics::mean(&recalls) > 0.8, "recall {recalls:?}");
    }

    #[test]
    fn knn_returns_k_points_with_decent_recall() {
        let (pts, zm) = build_small(2000);
        let q = Point::new(0.4, 0.6);
        let k = 10;
        let got = zm.knn_query(&q, k, &mut cx());
        assert_eq!(got.len(), k);
        let truth = brute_force::knn_query(&pts, &q, k);
        assert!(metrics::knn_recall(&got, &truth, &q, k) > 0.7);
    }

    #[test]
    fn insert_and_delete_round_trip() {
        let (_, mut zm) = build_small(800);
        let p = Point::with_id(0.31415, 0.27182, 777_777);
        zm.insert(p);
        assert_eq!(zm.len(), 801);
        assert_eq!(zm.point_query(&p, &mut cx()).map(|f| f.id), Some(p.id));
        assert!(zm.delete(&p));
        assert!(zm.point_query(&p, &mut cx()).is_none());
        assert_eq!(zm.len(), 800);
    }

    #[test]
    fn error_bounds_and_model_count_are_reported() {
        let (_, zm) = build_small(3000);
        assert!(zm.model_count() >= 3);
        let (below, above) = zm.error_bounds_blocks();
        // The Z-order model on raw coordinates has non-trivial error bounds.
        assert!(below + above > 0);
        assert_eq!(zm.height(), 3);
        assert_eq!(zm.name(), "ZM");
        assert!(zm.size_bytes() > 0);
    }

    #[test]
    fn routing_is_stable_across_many_updates() {
        // Regression test: model routing must use the bulk-load cardinality,
        // not the live count, or points inserted earlier become unreachable
        // as the count drifts.
        let (pts, mut zm) = build_small(1000);
        let inserted: Vec<Point> = (0..300)
            .map(|i| {
                let base = pts[(i * 3) % pts.len()];
                Point::with_id((base.x + 1e-5).min(1.0), base.y, 500_000 + i as u64)
            })
            .collect();
        for (i, p) in inserted.iter().enumerate() {
            zm.insert(*p);
            // Interleave deletions so the live count also shrinks.
            if i % 4 == 0 {
                assert!(zm.delete(&pts[i]), "delete of original point {i} failed");
            }
        }
        for p in &inserted {
            assert_eq!(
                zm.point_query(p, &mut cx()).map(|f| f.id),
                Some(p.id),
                "lost {p:?}"
            );
        }
    }

    #[test]
    fn range_queries_are_exact_despite_approximate_windows() {
        let (pts, mut zm) = build_small(1500);
        // Updates must stay visible to the sweep.
        let extra = Point::with_id(0.404, 0.606, 800_000);
        zm.insert(extra);
        let mut all = pts.clone();
        all.push(extra);
        for (center, r) in [(Point::new(0.4, 0.6), 0.05), (Point::new(0.9, 0.1), 0.15)] {
            let mut truth: Vec<u64> = brute_force::range_query(&all, &center, r)
                .iter()
                .map(|p| p.id)
                .collect();
            let mut got: Vec<u64> = zm
                .range_query(&center, r, &mut cx())
                .iter()
                .map(|p| p.id)
                .collect();
            truth.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, truth, "center {center:?} r {r}");
        }
        // The join worker agrees with the nested-loop oracle.
        let probes: Vec<Point> = pts.iter().step_by(37).copied().collect();
        let mut got: Vec<(u64, u64)> = Vec::new();
        zm.distance_join_probes(&probes, 0.02, &mut cx(), &mut |p, q| got.push((p.id, q.id)));
        let mut truth: Vec<(u64, u64)> = brute_force::distance_join(&all, &probes, 0.02)
            .iter()
            .map(|(p, q)| (p.id, q.id))
            .collect();
        got.sort_unstable();
        truth.sort_unstable();
        assert_eq!(got, truth);
        let mut n = 0;
        zm.for_each_point(&mut |_| n += 1);
        assert_eq!(n, all.len());
    }

    #[test]
    fn empty_zm_handles_queries_and_bootstrap_insert() {
        let mut zm = ZOrderModel::build(vec![], ZmConfig::fast());
        assert!(zm.point_query(&Point::new(0.5, 0.5), &mut cx()).is_none());
        assert!(zm.window_query(&Rect::unit(), &mut cx()).is_empty());
        assert!(zm.knn_query(&Point::new(0.5, 0.5), 3, &mut cx()).is_empty());
        zm.insert(Point::with_id(0.5, 0.5, 1));
        assert_eq!(zm.len(), 1);
        assert!(zm.point_query(&Point::new(0.5, 0.5), &mut cx()).is_some());
    }
}
