//! The feed-forward network and its SGD trainer.

use crate::{sigmoid, sigmoid_in_place};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Hidden units per stack strip of [`Mlp::predict`]: every model the
/// indices build has at most 64, so one strip holds them all.
const STRIP: usize = 64;

/// The stop rule of [`Mlp::train`]: a fit stops once the best epoch loss of
/// its last [`STOP_WINDOW`] epochs is not more than [`STOP_TOLERANCE`]
/// (relative) below the best of all its earlier epochs.
const STOP_TOLERANCE: f64 = 0.005;
/// See [`STOP_TOLERANCE`].
const STOP_WINDOW: usize = 3;

/// Whether a fit with these per-epoch losses, oldest first, has stopped
/// improving (see [`STOP_TOLERANCE`]).
fn stopped_improving(losses: &[f64]) -> bool {
    if losses.len() <= STOP_WINDOW {
        return false;
    }
    let best = |l: &[f64]| l.iter().copied().fold(f64::INFINITY, f64::min);
    let (earlier, recent) = losses.split_at(losses.len() - STOP_WINDOW);
    let improving = best(recent) < best(earlier) * (1.0 - STOP_TOLERANCE);
    !improving
}

/// `Σ w·a` in four partial sums, combined in the order written here, so a
/// prediction is the same number wherever this is inlined.
#[inline(always)]
fn dot(w: &[f64], a: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let (w4, w_tail) = w.as_chunks::<4>();
    let (a4, a_tail) = a.as_chunks::<4>();
    for (w, a) in w4.iter().zip(a4) {
        for i in 0..4 {
            acc[i] += w[i] * a[i];
        }
    }
    for (i, (w, a)) in w_tail.iter().zip(a_tail).enumerate() {
        acc[i] += w * a;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Architecture and training hyper-parameters of a sub-model.
///
/// Paper defaults (§6.1): hidden size = (#inputs + #output classes) / 2,
/// sigmoid hidden activation, learning rate 0.01, 500 epochs, L2 loss.  The
/// reproduction keeps the architecture but caps training at a smaller epoch
/// count so the full experiment suite runs on a laptop; the harness can
/// restore the paper's value with [`MlpConfig::epochs`].  A fit stops before
/// the cap once its loss stops improving (see [`Mlp::train`]).
#[derive(Debug, Clone, Copy)]
pub struct MlpConfig {
    /// Number of input features (2 for RSMI coordinates, 1 for ZM Z-values).
    pub input_dim: usize,
    /// Number of hidden neurons.
    pub hidden: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Most passes over the training set; a fit whose loss has stopped
    /// improving stops sooner (see [`Mlp::train`]).
    pub epochs: usize,
    /// Mini-batch size (1 = pure SGD).
    pub batch_size: usize,
    /// Seed for weight initialisation and shuffling, for reproducibility.
    pub seed: u64,
}

impl MlpConfig {
    /// Configuration for a 2-D coordinate model with the paper's
    /// hidden-layer sizing rule for `classes` output values.
    pub fn for_coordinates(classes: usize) -> Self {
        Self {
            input_dim: 2,
            hidden: ((2 + classes) / 2).clamp(4, 64),
            ..Self::default()
        }
    }

    /// Configuration for a 1-D key model (the ZM baseline).
    pub fn for_keys(classes: usize) -> Self {
        Self {
            input_dim: 1,
            hidden: classes.div_ceil(2).clamp(4, 64),
            ..Self::default()
        }
    }

    /// Returns a copy with a different seed (used to diversify sub-models).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different epoch cap.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            input_dim: 2,
            hidden: 32,
            learning_rate: 0.01,
            epochs: 60,
            batch_size: 32,
            seed: 42,
        }
    }
}

/// A fully connected network with one sigmoid hidden layer and a linear
/// scalar output, trained with mini-batch SGD on the L2 loss.
///
/// Inputs and targets are expected to be normalised into `[0, 1]` (see
/// [`crate::Normalizer`]); the output is unbounded but in practice stays near
/// the unit interval.
#[derive(Debug, Clone)]
pub struct Mlp {
    config: MlpConfig,
    /// Hidden-layer weights, `hidden x input_dim`, row-major.
    w1: Vec<f64>,
    /// Hidden-layer biases, length `hidden`.
    b1: Vec<f64>,
    /// Output weights, length `hidden`.
    w2: Vec<f64>,
    /// Output bias.
    b2: f64,
}

impl Mlp {
    /// Creates a network with small random weights.
    pub fn new(config: MlpConfig) -> Self {
        assert!(config.input_dim > 0, "input_dim must be positive");
        assert!(config.hidden > 0, "hidden must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        // Xavier-style range for the sigmoid hidden layer.
        let limit1 = (6.0 / (config.input_dim + config.hidden) as f64).sqrt();
        let limit2 = (6.0 / (config.hidden + 1) as f64).sqrt();
        let w1 = (0..config.hidden * config.input_dim)
            .map(|_| rng.gen_range(-limit1..limit1))
            .collect();
        let w2 = (0..config.hidden)
            .map(|_| rng.gen_range(-limit2..limit2))
            .collect();
        Self {
            config,
            w1,
            b1: vec![0.0; config.hidden],
            w2,
            b2: 0.0,
        }
    }

    /// The configuration the network was created with.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Forward pass for a single sample; `input.len()` must equal
    /// `config.input_dim`.
    ///
    /// The hidden units run in strips of up to 64 (`STRIP`) on the stack, in
    /// three passes that each autovectorise: every `z`, every sigmoid, then
    /// the output dot product.
    pub fn predict(&self, input: &[f64]) -> f64 {
        debug_assert_eq!(input.len(), self.config.input_dim);
        let d = self.config.input_dim;
        let mut strip = [0.0f64; STRIP];
        let mut out = self.b2;
        let units = self.b1.chunks(STRIP).zip(self.w2.chunks(STRIP));
        for ((b1, w2), w1) in units.zip(self.w1.chunks(STRIP * d)) {
            let act = &mut strip[..b1.len()];
            if d == 2 {
                let (x0, x1) = (input[0], input[1]);
                for ((z, &b), w) in act.iter_mut().zip(b1).zip(w1.chunks_exact(2)) {
                    *z = b + w[0] * x0 + w[1] * x1;
                }
            } else {
                for ((z, &b), row) in act.iter_mut().zip(b1).zip(w1.chunks_exact(d)) {
                    *z = row.iter().zip(input).fold(b, |z, (w, x)| z + w * x);
                }
            }
            sigmoid_in_place(act);
            out += dot(w2, act);
        }
        out
    }

    /// Mean squared error over a data set.
    pub fn mse<R: AsRef<[f64]>>(&self, inputs: &[R], targets: &[f64]) -> f64 {
        assert_eq!(inputs.len(), targets.len());
        if inputs.is_empty() {
            return 0.0;
        }
        let sum: f64 = inputs
            .iter()
            .zip(targets)
            .map(|(x, &t)| {
                let e = self.predict(x.as_ref()) - t;
                e * e
            })
            .sum();
        sum / inputs.len() as f64
    }

    /// Trains the network in place with mini-batch SGD, minimising the L2
    /// loss between predictions and `targets` (Equation 3 of the paper).
    ///
    /// `rows` is one flat lane: sample `i`'s `input_dim` inputs sit at
    /// `rows[i * input_dim..]`.  Each epoch's Fisher–Yates swaps move the
    /// rows and targets themselves, so a batch is read front to back from
    /// contiguous memory; both slices are left in the last epoch's order.
    ///
    /// `config.epochs` is a cap.  Each epoch sums the squared error of every
    /// sample as the SGD pass meets it, and the fit stops once the best sum
    /// of its last 3 epochs is not more than 0.5 % below the best of all
    /// earlier epochs (`STOP_WINDOW` and `STOP_TOLERANCE`).  The sum
    /// reads the errors the backward pass computes anyway, so a fit that
    /// runs to the cap has the weights it had without the rule.  Returns the
    /// number of epochs run.
    pub fn train(&mut self, rows: &mut [f64], targets: &mut [f64]) -> usize {
        let d = self.config.input_dim;
        let n = targets.len();
        assert_eq!(
            rows.len(),
            n * d,
            "inputs and targets must have the same length"
        );
        if n == 0 {
            return 0;
        }
        let h_count = self.config.hidden;
        let batch = self.config.batch_size.max(1);
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x9E37_79B9_7F4A_7C15);

        // Input weights transposed into one lane of `hidden` per input, so
        // every pass of a sample below runs along the hidden units.
        let mut w1t = vec![0.0; h_count * d];
        for (h, row) in self.w1.chunks_exact(d).enumerate() {
            for (k, &w) in row.iter().enumerate() {
                w1t[k * h_count + h] = w;
            }
        }
        // Per-batch gradient accumulators and per-sample activations,
        // reused across iterations to avoid reallocating in the hot loop.
        let mut g_w1t = vec![0.0; h_count * d];
        let mut g_b1 = vec![0.0; h_count];
        let mut g_w2 = vec![0.0; h_count];
        let mut act = vec![0.0; h_count];
        let mut dz = vec![0.0; h_count];
        let mut losses = Vec::with_capacity(self.config.epochs);

        while losses.len() < self.config.epochs && !stopped_improving(&losses) {
            let mut loss = 0.0;
            // Fisher-Yates shuffle with the seeded RNG.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                targets.swap(i, j);
                for k in 0..d {
                    rows.swap(i * d + k, j * d + k);
                }
            }
            for (xs, ts) in rows.chunks(batch * d).zip(targets.chunks(batch)) {
                g_w1t.fill(0.0);
                g_b1.fill(0.0);
                g_w2.fill(0.0);
                let mut g_b2 = 0.0;

                for (x, &t) in xs.chunks_exact(d).zip(ts) {
                    // Forward: every z, then every activation, then the
                    // output summed in hidden-unit order.
                    act.copy_from_slice(&self.b1);
                    for (&xv, w_k) in x.iter().zip(w1t.chunks_exact(h_count)) {
                        for (z, &w) in act.iter_mut().zip(w_k) {
                            *z += w * xv;
                        }
                    }
                    sigmoid_in_place(&mut act);
                    let mut out = self.b2;
                    for (&w, &a) in self.w2.iter().zip(&act) {
                        out += w * a;
                    }
                    // Backward: dL/dout for L = (out - t)^2 is 2 * (out - t);
                    // the constant 2 is folded into the learning rate.
                    let delta = out - t;
                    loss += delta * delta;
                    g_b2 += delta;
                    let units = act.iter().zip(&self.w2).zip(&mut g_w2);
                    for (((&a, &w), g_w), (dz, g_b)) in units.zip(dz.iter_mut().zip(&mut g_b1)) {
                        *g_w += delta * a;
                        *dz = delta * w * a * (1.0 - a);
                        *g_b += *dz;
                    }
                    for (&xv, g_k) in x.iter().zip(g_w1t.chunks_exact_mut(h_count)) {
                        for (g, &dz) in g_k.iter_mut().zip(&dz) {
                            *g += dz * xv;
                        }
                    }
                }

                let scale = self.config.learning_rate / ts.len() as f64;
                for (w, g) in w1t.iter_mut().zip(&g_w1t) {
                    *w -= scale * g;
                }
                for (b, g) in self.b1.iter_mut().zip(&g_b1) {
                    *b -= scale * g;
                }
                for (w, g) in self.w2.iter_mut().zip(&g_w2) {
                    *w -= scale * g;
                }
                self.b2 -= scale * g_b2;
            }
            losses.push(loss);
        }
        for (h, row) in self.w1.chunks_exact_mut(d).enumerate() {
            for (k, w) in row.iter_mut().enumerate() {
                *w = w1t[k * h_count + h];
            }
        }
        losses.len()
    }

    /// Size of the model parameters in bytes (used for index-size reporting).
    pub fn size_bytes(&self) -> usize {
        (self.w1.len() + self.b1.len() + self.w2.len() + 1) * std::mem::size_of::<f64>()
    }

    /// Analytic gradient of the loss for a single sample, flattened in the
    /// order `[w1, b1, w2, b2]`.  Exposed for gradient-check tests.
    #[doc(hidden)]
    #[allow(clippy::needless_range_loop)]
    pub fn gradient(&self, x: &[f64], target: f64) -> Vec<f64> {
        let d = self.config.input_dim;
        let h_count = self.config.hidden;
        let mut hidden = vec![0.0; h_count];
        let mut out = self.b2;
        for h in 0..h_count {
            let mut z = self.b1[h];
            for (w, xv) in self.w1[h * d..(h + 1) * d].iter().zip(x) {
                z += w * xv;
            }
            hidden[h] = sigmoid(z);
            out += self.w2[h] * hidden[h];
        }
        let delta = out - target;
        let mut grad = Vec::with_capacity(h_count * d + 2 * h_count + 1);
        for h in 0..h_count {
            for xv in x.iter().take(d) {
                grad.push(delta * self.w2[h] * hidden[h] * (1.0 - hidden[h]) * xv);
            }
        }
        for h in 0..h_count {
            grad.push(delta * self.w2[h] * hidden[h] * (1.0 - hidden[h]));
        }
        for &a in hidden.iter().take(h_count) {
            grad.push(delta * a);
        }
        grad.push(delta);
        grad
    }

    /// Returns a flat copy of all parameters (for gradient-check tests).
    #[doc(hidden)]
    pub fn parameters(&self) -> Vec<f64> {
        let mut p = self.w1.clone();
        p.extend_from_slice(&self.b1);
        p.extend_from_slice(&self.w2);
        p.push(self.b2);
        p
    }

    /// Appends the architecture and all weights to a snapshot (sub-record of
    /// an index section).
    pub fn encode(&self, w: &mut persist::SnapshotWriter) {
        w.put_usize(self.config.input_dim);
        w.put_usize(self.config.hidden);
        w.put_f64(self.config.learning_rate);
        w.put_usize(self.config.epochs);
        w.put_usize(self.config.batch_size);
        w.put_u64(self.config.seed);
        w.put_f64s(&self.w1);
        w.put_f64s(&self.b1);
        w.put_f64s(&self.w2);
        w.put_f64(self.b2);
    }

    /// Reads a network written by [`Mlp::encode`].  The stored weights are
    /// used as-is — no retraining — after validating that their shapes match
    /// the stored architecture.
    pub fn decode(r: &mut persist::SnapshotReader<'_>) -> Result<Self, persist::PersistError> {
        let config = MlpConfig {
            input_dim: r.get_usize()?,
            hidden: r.get_usize()?,
            learning_rate: r.get_f64()?,
            epochs: r.get_usize()?,
            batch_size: r.get_usize()?,
            seed: r.get_u64()?,
        };
        if config.input_dim == 0 || config.hidden == 0 {
            return Err(persist::PersistError::Corrupt(
                "MLP with zero-sized layer".into(),
            ));
        }
        let w1 = r.get_f64s()?;
        let b1 = r.get_f64s()?;
        let w2 = r.get_f64s()?;
        let b2 = r.get_f64()?;
        if Some(w1.len()) != config.hidden.checked_mul(config.input_dim)
            || b1.len() != config.hidden
            || w2.len() != config.hidden
        {
            return Err(persist::PersistError::Corrupt(
                "MLP weight shapes do not match its architecture".into(),
            ));
        }
        Ok(Self {
            config,
            w1,
            b1,
            w2,
            b2,
        })
    }

    /// Overwrites all parameters from a flat vector (for gradient checks).
    #[doc(hidden)]
    pub fn set_parameters(&mut self, p: &[f64]) {
        let n1 = self.w1.len();
        let n2 = self.b1.len();
        let n3 = self.w2.len();
        assert_eq!(p.len(), n1 + n2 + n3 + 1);
        self.w1.copy_from_slice(&p[..n1]);
        self.b1.copy_from_slice(&p[n1..n1 + n2]);
        self.w2.copy_from_slice(&p[n1 + n2..n1 + n2 + n3]);
        self.b2 = p[n1 + n2 + n3];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_config() -> MlpConfig {
        MlpConfig {
            input_dim: 2,
            hidden: 8,
            learning_rate: 0.5,
            epochs: 400,
            batch_size: 8,
            seed: 7,
        }
    }

    /// The scalar forward pass with the libm sigmoid: one unit at a time,
    /// the output summed in unit order.
    fn reference_predict(mlp: &Mlp, input: &[f64]) -> f64 {
        let d = mlp.config.input_dim;
        let mut out = mlp.b2;
        for h in 0..mlp.config.hidden {
            let mut z = mlp.b1[h];
            for (w, x) in mlp.w1[h * d..(h + 1) * d].iter().zip(input) {
                z += w * x;
            }
            out += mlp.w2[h] * crate::libm_sigmoid(z);
        }
        out
    }

    #[test]
    fn predict_matches_the_scalar_reference_to_1e_12_relative() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for input_dim in 1..=3 {
            // 65 spills one unit past a full strip.
            for hidden in [4, 33, 51, 64, 65] {
                let cfg = MlpConfig {
                    input_dim,
                    hidden,
                    seed: rng.gen(),
                    ..MlpConfig::default()
                };
                let mut mlp = Mlp::new(cfg);
                // Trained models carry biases and steep units; spread the
                // weights so some units saturate.
                let params: Vec<f64> = mlp
                    .parameters()
                    .iter()
                    .map(|&p| p * rng.gen_range(1.0..40.0) + rng.gen_range(-2.0..2.0))
                    .collect();
                mlp.set_parameters(&params);
                for _ in 0..500 {
                    let x: Vec<f64> = (0..input_dim).map(|_| rng.gen_range(-0.5..1.5)).collect();
                    let (got, want) = (mlp.predict(&x), reference_predict(&mlp, &x));
                    assert!(
                        (got - want).abs() <= 1e-12 * want.abs(),
                        "input_dim {input_dim}, hidden {hidden}, x {x:?}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn learns_a_linear_function() {
        // f(x, y) = 0.3 x + 0.5 y + 0.1 on the unit square.
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let x = i as f64 / 19.0;
                let y = j as f64 / 19.0;
                inputs.push(vec![x, y]);
                targets.push(0.3 * x + 0.5 * y + 0.1);
            }
        }
        let mut mlp = Mlp::new(toy_config());
        let before = mlp.mse(&inputs, &targets);
        mlp.train(&mut inputs.concat(), &mut targets.clone());
        let after = mlp.mse(&inputs, &targets);
        assert!(after < before, "training must reduce the loss");
        assert!(after < 1e-3, "final MSE too high: {after}");
    }

    /// FNV-1a over the bits of every parameter, in [`Mlp::parameters`] order.
    fn fingerprint(mlp: &Mlp) -> u64 {
        mlp.parameters()
            .iter()
            .flat_map(|p| p.to_bits().to_le_bytes())
            .fold(0xCBF2_9CE4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
            })
    }

    /// The linear target of `learns_a_linear_function`, as one flat lane.
    fn linear_lane() -> (Vec<f64>, Vec<f64>) {
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let (x, y) = (i as f64 / 19.0, j as f64 / 19.0);
                rows.extend([x, y]);
                targets.push(0.3 * x + 0.5 * y + 0.1);
            }
        }
        (rows, targets)
    }

    /// A fit whose loss is still falling steeply at its cap: pins the
    /// trainer's arithmetic bit for bit.
    #[test]
    fn a_fit_still_improving_at_its_cap_keeps_its_exact_weights() {
        let cap = 12;
        let mut mlp = Mlp::new(toy_config().with_epochs(cap));
        let (mut rows, mut targets) = linear_lane();
        assert_eq!(mlp.train(&mut rows, &mut targets), cap);
        assert_eq!(fingerprint(&mlp), 0xD3EB_C930_0CC5_8660);
    }

    /// Targets with no relation to the inputs: nothing is left to learn
    /// after the first epochs, so the loss is flat and the fit stops.
    #[test]
    fn a_fit_on_a_flat_loss_stops_well_before_its_cap() {
        let (mut rows, _) = linear_lane();
        let mut rng = StdRng::seed_from_u64(0xF1A7);
        let mut targets: Vec<f64> = (0..rows.len() / 2).map(|_| rng.gen()).collect();
        let mut mlp = Mlp::new(toy_config());
        let epochs = mlp.train(&mut rows, &mut targets);
        assert!(epochs <= 20, "ran {epochs} epochs");
    }

    #[test]
    fn learns_a_monotone_cdf_like_function() {
        // A CDF-shaped 1-D target, the kind of function learned indices fit.
        let n = 200;
        let inputs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / (n - 1) as f64]).collect();
        let targets: Vec<f64> = inputs.iter().map(|x| x[0].powf(0.5)).collect();
        let cfg = MlpConfig {
            input_dim: 1,
            hidden: 16,
            learning_rate: 0.5,
            epochs: 600,
            batch_size: 16,
            seed: 3,
        };
        let mut mlp = Mlp::new(cfg);
        mlp.train(&mut inputs.concat(), &mut targets.clone());
        let mse = mlp.mse(&inputs, &targets);
        assert!(mse < 3e-3, "MSE {mse} too high for a smooth CDF");
        // Predictions should be roughly monotone.
        let preds: Vec<f64> = inputs.iter().map(|x| mlp.predict(x)).collect();
        let violations = preds.windows(2).filter(|w| w[1] + 0.02 < w[0]).count();
        assert!(
            violations < n / 20,
            "too many monotonicity violations: {violations}"
        );
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let cfg = MlpConfig {
            input_dim: 2,
            hidden: 4,
            learning_rate: 0.1,
            epochs: 1,
            batch_size: 1,
            seed: 11,
        };
        let mlp = Mlp::new(cfg);
        let x = vec![0.3, 0.7];
        let target = 0.42;
        let analytic = mlp.gradient(&x, target);
        let params = mlp.parameters();
        let eps = 1e-6;
        let loss = |m: &Mlp| {
            let e = m.predict(&x) - target;
            0.5 * e * e
        };
        for (i, grad_i) in analytic.iter().enumerate() {
            let mut plus = mlp.clone();
            let mut p = params.clone();
            p[i] += eps;
            plus.set_parameters(&p);
            let mut minus = mlp.clone();
            p[i] -= 2.0 * eps;
            minus.set_parameters(&p);
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!(
                (numeric - grad_i).abs() < 1e-5,
                "param {i}: numeric {numeric} vs analytic {grad_i}"
            );
        }
    }

    #[test]
    fn training_is_deterministic_for_a_fixed_seed() {
        let inputs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 49.0, 0.5]).collect();
        let targets: Vec<f64> = (0..50).map(|i| i as f64 / 49.0).collect();
        let mut a = Mlp::new(toy_config());
        let mut b = Mlp::new(toy_config());
        let ran_a = a.train(&mut inputs.concat(), &mut targets.clone());
        let ran_b = b.train(&mut inputs.concat(), &mut targets.clone());
        assert!(ran_a < toy_config().epochs, "the rule must stop this fit");
        assert_eq!(ran_a, ran_b);
        assert_eq!(a.parameters(), b.parameters());
    }

    #[test]
    fn empty_training_set_is_a_noop() {
        let mut mlp = Mlp::new(toy_config());
        let before = mlp.parameters();
        mlp.train(&mut [], &mut []);
        assert_eq!(mlp.parameters(), before);
    }

    #[test]
    fn size_bytes_counts_all_parameters() {
        let cfg = MlpConfig {
            input_dim: 2,
            hidden: 8,
            ..MlpConfig::default()
        };
        let mlp = Mlp::new(cfg);
        assert_eq!(mlp.size_bytes(), (8 * 2 + 8 + 8 + 1) * 8);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_lengths_panic() {
        let mut mlp = Mlp::new(toy_config());
        mlp.train(&mut [0.0, 0.0], &mut []);
    }

    #[test]
    fn config_constructors_follow_paper_sizing_rule() {
        let c = MlpConfig::for_coordinates(100);
        assert_eq!(c.input_dim, 2);
        assert_eq!(c.hidden, 51);
        let k = MlpConfig::for_keys(100);
        assert_eq!(k.input_dim, 1);
        assert_eq!(k.hidden, 50);
        // Clamped for tiny/huge class counts.
        assert_eq!(MlpConfig::for_coordinates(1).hidden, 4);
        assert_eq!(MlpConfig::for_coordinates(1000).hidden, 64);
    }
}
