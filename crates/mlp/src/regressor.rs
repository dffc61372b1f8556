//! A wrapper turning the raw MLP into the "indexing function" used by the
//! learned indices: raw coordinates in, integer block/partition IDs out.

use crate::network::join;
use crate::{Mlp, MlpConfig, Normalizer};

/// A regression model over integer targets.
///
/// This is the unit every learned index sub-model is made of: it owns
///
/// * a [`Normalizer`] for the raw inputs (coordinates or curve keys),
/// * an [`Mlp`] trained on normalised inputs and targets scaled to `[0, 1]`,
/// * the maximum target value, used to rescale predictions back to IDs.
///
/// Predictions are rounded and clamped to `[0, max_target]`, matching the
/// paper's practice of normalising block IDs into the unit range for training
/// and scaling back at query time.
#[derive(Debug, Clone)]
pub struct ScaledRegressor {
    mlp: Mlp,
    input_norm: Normalizer,
    max_target: u64,
    /// Maximum under-prediction observed on the training set (err_ell).
    err_below: u64,
    /// Maximum over-prediction observed on the training set (err_a).
    err_above: u64,
}

impl ScaledRegressor {
    /// Trains a regressor on `(inputs[i], targets[i])` pairs.
    ///
    /// `inputs` are raw feature rows (e.g. point coordinates); `targets` are
    /// the ground-truth integer IDs.  After training, the maximum signed
    /// prediction errors over the training set are recorded as the model's
    /// error bounds (Equations 4 and 5 of the paper).
    ///
    /// # Panics
    /// Panics when `inputs` and `targets` lengths differ or when `inputs` is
    /// empty.
    pub fn fit<R: AsRef<[f64]> + Sync>(config: MlpConfig, inputs: &[R], targets: &[u64]) -> Self {
        Self::fit_predicting(config, inputs, targets, 1).0
    }

    /// [`ScaledRegressor::fit`] on `threads` threads, also returning the
    /// fitted model's prediction for every row of `inputs`, in order.  The
    /// error-bound pass computes them anyway, so a caller that routes its
    /// rows by the model reads them here instead of predicting every row a
    /// second time.
    ///
    /// With `threads ≥ 2` the training splits the hidden units over two
    /// threads (see [`Mlp::train`]) and the error-bound pass splits the
    /// rows over `threads`; the model is the same for every count.
    pub fn fit_predicting<R: AsRef<[f64]> + Sync>(
        config: MlpConfig,
        inputs: &[R],
        targets: &[u64],
        threads: usize,
    ) -> (Self, Vec<u64>) {
        assert_eq!(
            inputs.len(),
            targets.len(),
            "inputs/targets length mismatch"
        );
        assert!(!inputs.is_empty(), "cannot fit a regressor on an empty set");

        let input_norm = Normalizer::fit(inputs);
        let max_target = *targets.iter().max().expect("non-empty");
        let scale = max_target.max(1) as f64;

        // The rows are normalised once, into the one flat lane training
        // shuffles in place.  Both buffers are freed before the error-bound
        // pass allocates the predictions, so the fit's peak memory is the
        // training step's.
        let mut lane = vec![0.0; inputs.len() * input_norm.dim()];
        for (row, out) in inputs.iter().zip(lane.chunks_exact_mut(input_norm.dim())) {
            input_norm.transform_into(row.as_ref(), out);
        }
        let mut norm_targets: Vec<f64> = targets.iter().map(|&t| t as f64 / scale).collect();

        let mut mlp = Mlp::new(config);
        mlp.train(&mut lane, &mut norm_targets, threads);
        drop((lane, norm_targets));

        let mut model = Self {
            mlp,
            input_norm,
            max_target,
            err_below: 0,
            err_above: 0,
        };
        // The bounds are maxima, so they do not depend on how the rows are
        // split.
        let mut predictions = vec![0; inputs.len()];
        let chunk = inputs.len().div_ceil(threads.max(1));
        let bounds: Vec<(u64, u64)> = std::thread::scope(|s| {
            let model = &model;
            let mut jobs = inputs
                .chunks(chunk)
                .zip(targets.chunks(chunk))
                .zip(predictions.chunks_mut(chunk));
            let ((rows, targets), out) = jobs.next().expect("non-empty");
            let helpers: Vec<_> = jobs
                .map(|((rows, targets), out)| {
                    s.spawn(move || model.predict_into(rows, targets, out))
                })
                .collect();
            let mut bounds = vec![model.predict_into(rows, targets, out)];
            bounds.extend(helpers.into_iter().map(join));
            bounds
        });
        for (below, above) in bounds {
            model.err_below = model.err_below.max(below);
            model.err_above = model.err_above.max(above);
        }
        (model, predictions)
    }

    /// Predicts every row of `inputs` into `out` and returns the largest
    /// under- and over-prediction against `targets`.
    fn predict_into<R: AsRef<[f64]>>(
        &self,
        inputs: &[R],
        targets: &[u64],
        out: &mut [u64],
    ) -> (u64, u64) {
        let (mut below, mut above) = (0, 0);
        for ((row, &t), pred) in inputs.iter().zip(targets).zip(out) {
            *pred = self.predict(row.as_ref());
            if *pred < t {
                below = below.max(t - *pred);
            } else {
                above = above.max(*pred - t);
            }
        }
        (below, above)
    }

    /// Predicts the integer ID for a raw feature row, clamped to
    /// `[0, max_target]`.
    #[inline]
    pub fn predict(&self, row: &[f64]) -> u64 {
        // The indices' rows (1-D keys, 2-D points) normalise on the stack.
        let mut buf = [0.0f64; 2];
        let raw = match buf.get_mut(..row.len()) {
            Some(normed) => {
                self.input_norm.transform_into(row, normed);
                self.mlp.predict(normed)
            }
            None => self.mlp.predict(&self.input_norm.transform(row)),
        };
        let scaled = raw * self.max_target.max(1) as f64;
        scaled.round().clamp(0.0, self.max_target as f64) as u64
    }

    /// Predicts for a 2-D point without allocating the intermediate row.
    #[inline]
    pub fn predict_xy(&self, x: f64, y: f64) -> u64 {
        let mut buf = [0.0f64; 2];
        self.input_norm.transform_into(&[x, y], &mut buf);
        let raw = self.mlp.predict(&buf);
        let scaled = raw * self.max_target.max(1) as f64;
        scaled.round().clamp(0.0, self.max_target as f64) as u64
    }

    /// Maximum under-prediction on the training set (the paper's `err_ℓ`).
    #[inline]
    pub fn err_below(&self) -> u64 {
        self.err_below
    }

    /// Maximum over-prediction on the training set (the paper's `err_a`).
    #[inline]
    pub fn err_above(&self) -> u64 {
        self.err_above
    }

    /// Replaces the error bounds; used when stored data is re-packed under
    /// the same model and the bounds are measured over the new layout.
    pub fn set_error_bounds(&mut self, below: u64, above: u64) {
        self.err_below = below;
        self.err_above = above;
    }

    /// Widens the error bounds by exactly as much as needed for the
    /// prediction at `(x, y)` to cover `target`, and returns the widening
    /// applied as `(extra_below, extra_above)` — `(0, 0)` when the current
    /// bounds already cover it.  This is the delta-aware maintenance
    /// primitive: an insert that lands a point outside its predicted range
    /// stays findable without retraining, at the cost of a wider scan range
    /// that the drift-triggered retrain later reclaims.
    pub fn widen_to_cover_xy(&mut self, x: f64, y: f64, target: u64) -> (u64, u64) {
        let pred = self.predict_xy(x, y);
        if target < pred {
            // Over-prediction: the covering interval below is [pred - err_above, ..].
            let need = pred - target;
            if need > self.err_above {
                let extra = need - self.err_above;
                self.err_above = need;
                return (0, extra);
            }
        } else if target > pred {
            // Under-prediction: the covering interval above is [.., pred + err_below].
            let need = target - pred;
            if need > self.err_below {
                let extra = need - self.err_below;
                self.err_below = need;
                return (extra, 0);
            }
        }
        (0, 0)
    }

    /// Approximate in-memory size of the model, for index-size accounting.
    pub fn size_bytes(&self) -> usize {
        self.mlp.size_bytes() + self.input_norm.size_bytes() + 3 * std::mem::size_of::<u64>()
    }

    /// Appends the trained model (weights, normaliser, error bounds) to a
    /// snapshot — the unit of learned-index persistence: a loaded regressor
    /// predicts exactly what the saved one did, with the same error bounds,
    /// and is never retrained.
    pub fn encode(&self, w: &mut persist::SnapshotWriter) {
        self.mlp.encode(w);
        self.input_norm.encode(w);
        w.put_u64(self.max_target);
        w.put_u64(self.err_below);
        w.put_u64(self.err_above);
    }

    /// Reads a model written by [`ScaledRegressor::encode`].
    pub fn decode(r: &mut persist::SnapshotReader<'_>) -> Result<Self, persist::PersistError> {
        let mlp = Mlp::decode(r)?;
        let input_norm = Normalizer::decode(r)?;
        let max_target = r.get_u64()?;
        let err_below = r.get_u64()?;
        let err_above = r.get_u64()?;
        Ok(Self {
            mlp,
            input_norm,
            max_target,
            err_below,
            err_above,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config(input_dim: usize) -> MlpConfig {
        MlpConfig {
            input_dim,
            hidden: 12,
            learning_rate: 0.4,
            epochs: 300,
            batch_size: 16,
            seed: 5,
        }
    }

    #[test]
    fn fits_block_ids_of_uniform_points() {
        // 400 points on a diagonal, 4 points per "block": the mapping from
        // coordinates to block id is trivially learnable.
        let n = 400usize;
        let inputs: Vec<Vec<f64>> = (0..n)
            .map(|i| vec![i as f64 / n as f64, i as f64 / n as f64])
            .collect();
        let targets: Vec<u64> = (0..n).map(|i| (i / 4) as u64).collect();
        let model = ScaledRegressor::fit(fast_config(2), &inputs, &targets);
        // Error bounds should be a small fraction of the 100-block range.
        assert!(
            model.err_below() + model.err_above() < 30,
            "error bounds too wide: ({}, {})",
            model.err_below(),
            model.err_above()
        );
        // And every training prediction must fall within the bounds.
        for (row, &t) in inputs.iter().zip(&targets) {
            let p = model.predict(row) as i64;
            assert!(p >= t as i64 - model.err_below() as i64);
            assert!(p <= t as i64 + model.err_above() as i64);
        }
    }

    #[test]
    fn predictions_are_clamped_to_target_range() {
        let inputs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, i as f64]).collect();
        let targets: Vec<u64> = (0..50).map(|i| i as u64).collect();
        let model = ScaledRegressor::fit(fast_config(2), &inputs, &targets);
        // Far outside the training range the clamp keeps predictions valid.
        assert!(model.predict(&[1e9, 1e9]) <= model.max_target);
        // predict on raw rows equals predict_xy.
        assert_eq!(model.predict(&[3.0, 3.0]), model.predict_xy(3.0, 3.0));
    }

    #[test]
    fn error_bounds_cover_all_training_points_by_construction() {
        let inputs: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 20) as f64 / 20.0, (i / 20) as f64 / 10.0])
            .collect();
        let targets: Vec<u64> = (0..200).map(|i| (i / 10) as u64).collect();
        let fit =
            |threads| ScaledRegressor::fit_predicting(fast_config(2), &inputs, &targets, threads);
        let (model, predictions) = fit(1);
        assert_eq!(predictions.len(), inputs.len());
        for ((row, &t), &predicted) in inputs.iter().zip(&targets).zip(&predictions) {
            assert_eq!(predicted, model.predict(row));
            let p = predicted as i64;
            assert!(p - t as i64 <= model.err_above() as i64);
            assert!(t as i64 - p <= model.err_below() as i64);
        }
        // More threads split the training and the bound pass, and change
        // nothing.
        for threads in [2, 3] {
            let (split, split_predictions) = fit(threads);
            assert_eq!(split_predictions, predictions, "{threads} threads");
            assert_eq!(split.mlp.parameters(), model.mlp.parameters());
            let bounds = |m: &ScaledRegressor| (m.err_below(), m.err_above());
            assert_eq!(bounds(&split), bounds(&model), "{threads} threads");
        }
    }

    #[test]
    fn set_error_bounds_replaces_both_bounds() {
        let inputs = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let targets = vec![0u64, 1];
        let mut model = ScaledRegressor::fit(fast_config(2), &inputs, &targets);
        model.set_error_bounds(2, 3);
        assert_eq!((model.err_below(), model.err_above()), (2, 3));
        model.set_error_bounds(0, 1);
        assert_eq!((model.err_below(), model.err_above()), (0, 1));
    }

    #[test]
    fn widen_to_cover_makes_any_target_fall_inside_the_bounds() {
        let inputs = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let targets = vec![0u64, 1];
        let mut model = ScaledRegressor::fit(fast_config(2), &inputs, &targets);

        for &(x, y, t) in &[(0.3, 0.7, 40u64), (0.9, 0.1, 0u64), (0.5, 0.5, 7u64)] {
            let before = (model.err_below(), model.err_above());
            let (eb, ea) = model.widen_to_cover_xy(x, y, t);
            assert_eq!(model.err_below(), before.0 + eb);
            assert_eq!(model.err_above(), before.1 + ea);
            // Covered after widening: t within [pred - err_above, pred + err_below].
            let pred = model.predict_xy(x, y) as i64;
            assert!(t as i64 >= pred - model.err_above() as i64);
            assert!(t as i64 <= pred + model.err_below() as i64);
            // Idempotent: already-covered targets require no widening.
            assert_eq!(model.widen_to_cover_xy(x, y, t), (0, 0));
        }
    }

    #[test]
    fn single_key_models_work_for_one_dimensional_inputs() {
        let inputs: Vec<Vec<f64>> = (0..300).map(|i| vec![i as f64]).collect();
        let targets: Vec<u64> = (0..300).map(|i| (i / 3) as u64).collect();
        let model = ScaledRegressor::fit(fast_config(1), &inputs, &targets);
        let pred = model.predict(&[150.0]);
        assert!((pred as i64 - 50).unsigned_abs() <= model.err_below().max(model.err_above()) + 1);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn fitting_an_empty_set_panics() {
        let _ = ScaledRegressor::fit::<[f64; 2]>(fast_config(2), &[], &[]);
    }

    #[test]
    fn snapshot_roundtrip_preserves_predictions_and_bounds() {
        let inputs: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![i as f64 / 200.0, (i * 7 % 200) as f64 / 200.0])
            .collect();
        let targets: Vec<u64> = (0..200).map(|i| (i / 8) as u64).collect();
        let model = ScaledRegressor::fit(fast_config(2), &inputs, &targets);

        let mut w = persist::SnapshotWriter::new("Model");
        w.begin_section(0x01);
        model.encode(&mut w);
        w.end_section();
        let bytes = w.finish();
        let (_, mut r) = persist::SnapshotReader::open(&bytes).unwrap();
        r.begin_section(0x01).unwrap();
        let loaded = ScaledRegressor::decode(&mut r).unwrap();

        assert_eq!(loaded.err_below(), model.err_below());
        assert_eq!(loaded.err_above(), model.err_above());
        assert_eq!(loaded.max_target, model.max_target);
        for row in &inputs {
            assert_eq!(loaded.predict(row), model.predict(row));
        }
        assert_eq!(
            loaded.predict_xy(0.123, 0.987),
            model.predict_xy(0.123, 0.987)
        );
    }
}
