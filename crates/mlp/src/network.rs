//! The feed-forward network and its SGD trainer.

use crate::isa::Isa;
use crate::sigmoid_in_place;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

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
    /// the output dot product.  On an x86 host with AVX2 they run four
    /// lanes wide, to the same bits (see `isa`).
    pub fn predict(&self, input: &[f64]) -> f64 {
        self.predict_on(Isa::host(), input)
    }

    /// [`Mlp::predict`] on the instance `isa` picks.
    #[allow(unsafe_code)]
    fn predict_on(&self, isa: Isa, input: &[f64]) -> f64 {
        match isa {
            // SAFETY: the host has AVX2: `Isa::host` alone sets `avx2`, after detecting it.
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            isa if isa.avx2() => unsafe { self.predict_avx2(input) },
            _ => self.predict_body(input),
        }
    }

    /// [`Mlp::predict`] compiled for AVX2.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    fn predict_avx2(&self, input: &[f64]) -> f64 {
        self.predict_body(input)
    }

    #[inline(always)]
    fn predict_body(&self, input: &[f64]) -> f64 {
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
    ///
    /// With `threads ≥ 2` the hidden units are split into two ranges
    /// trained on two threads (more threads are not used).  Within a batch
    /// the weights are fixed and only the output sum crosses units, so per
    /// batch the first range hands the second its running output sums and
    /// gets the errors back; every floating-point operation is the one a
    /// single range runs, and the weights are the same bit for bit.  The
    /// two threads also split each epoch's shuffle: both draw the same
    /// swaps, one applies them to the rows and the other to the targets.
    /// On an x86 host with AVX2 the epochs run four lanes wide, to the same
    /// bits (see `isa`).
    pub fn train(&mut self, rows: &mut [f64], targets: &mut [f64], threads: usize) -> usize {
        self.train_on(Isa::host(), rows, targets, threads)
    }

    /// [`Mlp::train`] with its epochs on the instance `isa` picks.
    fn train_on(
        &mut self,
        isa: Isa,
        rows: &mut [f64],
        targets: &mut [f64],
        threads: usize,
    ) -> usize {
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
        let rate = self.config.learning_rate;
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0x9E37_79B9_7F4A_7C15);
        let split = if threads >= 2 && h_count >= 2 {
            h_count / 2
        } else {
            h_count
        };
        let mut leader = Units::new(self, 0..split, batch);
        let mut follower = (split < h_count).then(|| Units::new(self, split..h_count, batch));
        let mut b2 = self.b2;
        let mut losses = Vec::with_capacity(self.config.epochs);

        while losses.len() < self.config.epochs && !stopped_improving(&losses) {
            let loss = match &mut follower {
                None => {
                    shuffle(n, &mut [(&mut *rows, d), (&mut *targets, 1)], &mut rng);
                    leader.lead_epoch(isa, rows, targets, rate, &mut b2, None)
                }
                Some(follower) => {
                    let mut rows_rng = rng.clone();
                    std::thread::scope(|s| {
                        let (targets, rng) = (&mut *targets, &mut rng);
                        let helper = s.spawn(move || shuffle(n, &mut [(targets, 1)], rng));
                        shuffle(n, &mut [(&mut *rows, d)], &mut rows_rng);
                        join(helper);
                    });
                    let (rows, targets) = (&*rows, &*targets);
                    let mailbox = Mailbox::new(batch);
                    std::thread::scope(|s| {
                        let helper = s.spawn(|| {
                            let _abandon = mailbox.abandon_on_unwind();
                            follower.follow_epoch(isa, rows, targets, rate, &mailbox);
                        });
                        let _abandon = mailbox.abandon_on_unwind();
                        let loss =
                            leader.lead_epoch(isa, rows, targets, rate, &mut b2, Some(&mailbox));
                        join(helper);
                        loss
                    })
                }
            };
            losses.push(loss);
        }
        leader.store(self);
        if let Some(follower) = &follower {
            follower.store(self);
        }
        self.b2 = b2;
        losses.len()
    }

    /// Size of the model parameters in bytes (used for index-size reporting).
    pub fn size_bytes(&self) -> usize {
        (self.w1.len() + self.b1.len() + self.w2.len() + 1) * std::mem::size_of::<f64>()
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
}

/// Fisher–Yates over `n` rows: applies each swap `rng` draws to every
/// lane, whose rows are `width` values wide.  The draws come in blocks of
/// [`SHUFFLE_BLOCK`] ahead of their swaps, so the block's scattered row
/// accesses do not wait on one another.  Lanes shuffled on two threads from
/// clones of one RNG end in the same order.
fn shuffle(n: usize, lanes: &mut [(&mut [f64], usize)], rng: &mut StdRng) {
    let mut draws = [0usize; SHUFFLE_BLOCK];
    let mut top = n;
    while top > 1 {
        let block = (top - 1).min(SHUFFLE_BLOCK);
        for (k, j) in draws[..block].iter_mut().enumerate() {
            *j = rng.gen_range(0..=top - 1 - k);
        }
        for (k, &j) in draws[..block].iter().enumerate() {
            let i = top - 1 - k;
            for (lane, width) in lanes.iter_mut() {
                for w in 0..*width {
                    lane.swap(i * *width + w, j * *width + w);
                }
            }
        }
        top -= block;
    }
}

/// Swaps [`shuffle`] draws before it applies them.
const SHUFFLE_BLOCK: usize = 32;

/// Joins a scoped helper, re-raising its panic on the calling thread.
pub(crate) fn join<T>(helper: std::thread::ScopedJoinHandle<'_, T>) -> T {
    helper
        .join()
        .unwrap_or_else(|e| std::panic::resume_unwind(e))
}

/// One contiguous range of a network's hidden units, with its weights and
/// everything SGD keeps per unit.  [`Mlp::train`] runs a fit as one range,
/// or as two trained on two threads.
struct Units {
    /// The first unit of the range.
    first: usize,
    /// Number of inputs.
    d: usize,
    /// Input weights transposed into one lane of the range per input, so
    /// every pass of a sample runs along the units: unit `h`'s weight for
    /// input `k` is `w1t[k * len + h]`.
    w1t: Vec<f64>,
    b1: Vec<f64>,
    w2: Vec<f64>,
    /// Per-batch gradient accumulators, reused across batches.
    g_w1t: Vec<f64>,
    g_b1: Vec<f64>,
    g_w2: Vec<f64>,
    /// The batch's activations, one row of the range per sample.
    act: Vec<f64>,
    /// One sample's `dL/dz` per unit.
    dz: Vec<f64>,
    /// The batch's output sums, then its errors.  Allocated with the
    /// range, so the thread that trains it allocates nothing.
    sums: Vec<f64>,
}

impl Units {
    /// Copies `mlp`'s hidden `units` out for training on batches of up to
    /// `batch` samples.
    fn new(mlp: &Mlp, units: std::ops::Range<usize>, batch: usize) -> Self {
        let d = mlp.config.input_dim;
        let len = units.len();
        let mut w1t = vec![0.0; len * d];
        for (h, row) in mlp.w1[units.start * d..units.end * d]
            .chunks_exact(d)
            .enumerate()
        {
            for (k, &w) in row.iter().enumerate() {
                w1t[k * len + h] = w;
            }
        }
        Self {
            first: units.start,
            d,
            w1t,
            b1: mlp.b1[units.clone()].to_vec(),
            w2: mlp.w2[units].to_vec(),
            g_w1t: vec![0.0; len * d],
            g_b1: vec![0.0; len],
            g_w2: vec![0.0; len],
            act: vec![0.0; batch * len],
            dz: vec![0.0; len],
            sums: vec![0.0; batch],
        }
    }

    /// Writes the range's weights back into `mlp`.
    fn store(&self, mlp: &mut Mlp) {
        let (d, len) = (self.d, self.b1.len());
        let w1 = &mut mlp.w1[self.first * d..(self.first + len) * d];
        for (h, row) in w1.chunks_exact_mut(d).enumerate() {
            for (k, w) in row.iter_mut().enumerate() {
                *w = self.w1t[k * len + h];
            }
        }
        mlp.b1[self.first..self.first + len].copy_from_slice(&self.b1);
        mlp.w2[self.first..self.first + len].copy_from_slice(&self.w2);
    }

    /// Forward pass over the batch `xs`: every `z` of every sample, then
    /// every activation.
    #[inline(always)]
    fn forward(&mut self, xs: &[f64]) {
        let len = self.b1.len();
        let act = &mut self.act[..xs.len() / self.d * len];
        for (act, x) in act.chunks_exact_mut(len).zip(xs.chunks_exact(self.d)) {
            act.copy_from_slice(&self.b1);
            for (&xv, w_k) in x.iter().zip(self.w1t.chunks_exact(len)) {
                for (z, &w) in act.iter_mut().zip(w_k) {
                    *z += w * xv;
                }
            }
        }
        sigmoid_in_place(act);
    }

    /// Continues each sample's output sum over the range, in unit order.
    #[inline(always)]
    fn add_outputs(&self, sums: &mut [f64]) {
        for (out, act) in sums.iter_mut().zip(self.act.chunks_exact(self.b1.len())) {
            for (&w, &a) in self.w2.iter().zip(act) {
                *out += w * a;
            }
        }
    }

    /// Backward pass over the batch `xs` with the errors `deltas`: the
    /// range's gradients summed in sample order, then one SGD step of
    /// `scale` per gradient.
    #[inline(always)]
    fn backward(&mut self, xs: &[f64], deltas: &[f64], scale: f64) {
        let len = self.b1.len();
        self.g_w1t.fill(0.0);
        self.g_b1.fill(0.0);
        self.g_w2.fill(0.0);
        let samples = xs.chunks_exact(self.d).zip(deltas);
        for ((x, &delta), act) in samples.zip(self.act.chunks_exact(len)) {
            let units = act.iter().zip(&self.w2).zip(&mut self.g_w2);
            for (((&a, &w), g_w), (dz, g_b)) in units.zip(self.dz.iter_mut().zip(&mut self.g_b1)) {
                *g_w += delta * a;
                *dz = delta * w * a * (1.0 - a);
                *g_b += *dz;
            }
            for (&xv, g_k) in x.iter().zip(self.g_w1t.chunks_exact_mut(len)) {
                for (g, &dz) in g_k.iter_mut().zip(&self.dz) {
                    *g += dz * xv;
                }
            }
        }
        for (w, g) in self.w1t.iter_mut().zip(&self.g_w1t) {
            *w -= scale * g;
        }
        for (b, g) in self.b1.iter_mut().zip(&self.g_b1) {
            *b -= scale * g;
        }
        for (w, g) in self.w2.iter_mut().zip(&self.g_w2) {
            *w -= scale * g;
        }
    }

    /// One epoch of the first range, which also owns the output bias `b2`
    /// and the loss.  Its output sums start at `b2`; with a `follower` it
    /// posts them there and reads the errors back, alone it finishes them
    /// itself.  Returns the epoch's summed squared error.  Runs on the
    /// instance `isa` picks.
    #[allow(unsafe_code)]
    fn lead_epoch(
        &mut self,
        isa: Isa,
        rows: &[f64],
        targets: &[f64],
        rate: f64,
        b2: &mut f64,
        follower: Option<&Mailbox>,
    ) -> f64 {
        match isa {
            // SAFETY: the host has AVX2: `Isa::host` alone sets `avx2`, after detecting it.
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            isa if isa.avx2() => unsafe { self.lead_epoch_avx2(rows, targets, rate, b2, follower) },
            _ => self.lead_epoch_body(rows, targets, rate, b2, follower),
        }
    }

    /// [`Units::lead_epoch`] compiled for AVX2.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    fn lead_epoch_avx2(
        &mut self,
        rows: &[f64],
        targets: &[f64],
        rate: f64,
        b2: &mut f64,
        follower: Option<&Mailbox>,
    ) -> f64 {
        self.lead_epoch_body(rows, targets, rate, b2, follower)
    }

    #[inline(always)]
    fn lead_epoch_body(
        &mut self,
        rows: &[f64],
        targets: &[f64],
        rate: f64,
        b2: &mut f64,
        follower: Option<&Mailbox>,
    ) -> f64 {
        let mut loss = 0.0;
        let mut sums = std::mem::take(&mut self.sums);
        let batch = sums.len();
        for (xs, ts) in rows.chunks(batch * self.d).zip(targets.chunks(batch)) {
            let deltas = &mut sums[..ts.len()];
            self.forward(xs);
            deltas.fill(*b2);
            self.add_outputs(deltas);
            match follower {
                Some(mailbox) => {
                    mailbox.post(deltas, Side::Follower);
                    mailbox.take(Side::Leader, deltas);
                }
                None => subtract(deltas, ts),
            }
            // dL/dout for L = (out - t)^2 is 2 * (out - t); the constant 2
            // is folded into the learning rate.
            let mut g_b2 = 0.0;
            for &delta in deltas.iter() {
                loss += delta * delta;
                g_b2 += delta;
            }
            let scale = rate / ts.len() as f64;
            self.backward(xs, deltas, scale);
            *b2 -= scale * g_b2;
        }
        self.sums = sums;
        loss
    }

    /// One epoch of the second range: it continues the output sums the
    /// leader posts over its own units and posts back the errors.  Runs on
    /// the instance `isa` picks.
    #[allow(unsafe_code)]
    fn follow_epoch(
        &mut self,
        isa: Isa,
        rows: &[f64],
        targets: &[f64],
        rate: f64,
        leader: &Mailbox,
    ) {
        match isa {
            // SAFETY: the host has AVX2: `Isa::host` alone sets `avx2`, after detecting it.
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            isa if isa.avx2() => unsafe { self.follow_epoch_avx2(rows, targets, rate, leader) },
            _ => self.follow_epoch_body(rows, targets, rate, leader),
        }
    }

    /// [`Units::follow_epoch`] compiled for AVX2.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    fn follow_epoch_avx2(&mut self, rows: &[f64], targets: &[f64], rate: f64, leader: &Mailbox) {
        self.follow_epoch_body(rows, targets, rate, leader)
    }

    #[inline(always)]
    fn follow_epoch_body(&mut self, rows: &[f64], targets: &[f64], rate: f64, leader: &Mailbox) {
        let mut sums = std::mem::take(&mut self.sums);
        let batch = sums.len();
        for (xs, ts) in rows.chunks(batch * self.d).zip(targets.chunks(batch)) {
            let deltas = &mut sums[..ts.len()];
            self.forward(xs);
            leader.take(Side::Follower, deltas);
            self.add_outputs(deltas);
            subtract(deltas, ts);
            leader.post(deltas, Side::Leader);
            self.backward(xs, deltas, rate / ts.len() as f64);
        }
        self.sums = sums;
    }
}

/// Turns each finished output sum into its error `out - t`.
#[inline(always)]
fn subtract(sums: &mut [f64], targets: &[f64]) {
    for (out, &t) in sums.iter_mut().zip(targets) {
        *out -= t;
    }
}

/// Busy-wait rounds before a range waiting on the other yields its core
/// between checks.  32 rounds of `spin_loop` take ≈ 0.6 µs on a 2-vCPU
/// Xeon host, where a wait within a batch averages 1–2 µs on a free core;
/// past the spin, a yield returns at once when no other thread wants the
/// core.  When more
/// threads are busy than there are cores (two RSMI shards built side by
/// side, each splitting its root fit) the other range may not be running;
/// spinning 1 024 rounds first made a 200 k two-shard build 24 % slower
/// than the one-thread trainer.  With 32 rounds its median stays inside
/// the one-thread trainer's quartiles, and yielding at once is no faster
/// there while it slows an unsharded root fit by ≈ 4 %.
const SPINS_BEFORE_YIELD: u32 = 32;

/// The two sides of a two-range fit.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    Leader = 0,
    Follower = 1,
}

/// The one buffer the two ranges of a fit pass back and forth per batch:
/// the leader posts the running output sums, the follower takes them,
/// continues them and posts the errors in their place.  Each post hands
/// the turn to the other side.
struct Mailbox {
    /// The batch's values, as `f64` bits.
    values: Vec<AtomicU64>,
    /// The side whose turn it is to take `values`.  A post stores the
    /// values, then the turn with `Release`; a take loads the turn with
    /// `Acquire` before it reads them.
    turn: AtomicU8,
    /// Set when either side unwinds, so the other stops waiting.
    abandoned: AtomicBool,
}

impl Mailbox {
    fn new(batch: usize) -> Self {
        Self {
            values: (0..batch).map(|_| AtomicU64::new(0)).collect(),
            turn: AtomicU8::new(Side::Leader as u8),
            abandoned: AtomicBool::new(false),
        }
    }

    /// Posts `values` and hands the turn to `to`.
    fn post(&self, values: &[f64], to: Side) {
        for (slot, v) in self.values.iter().zip(values) {
            slot.store(v.to_bits(), Ordering::Relaxed);
        }
        self.turn.store(to as u8, Ordering::Release);
    }

    /// Waits for `side`'s turn and reads the posted values into `values`:
    /// it spins for [`SPINS_BEFORE_YIELD`] rounds, then yields between
    /// checks.
    ///
    /// # Panics
    /// Panics if the other side unwound before posting.
    fn take(&self, side: Side, values: &mut [f64]) {
        let mut spins = 0;
        while self.turn.load(Ordering::Acquire) != side as u8 {
            assert!(
                !self.abandoned.load(Ordering::SeqCst),
                "the other range of units stopped mid-epoch"
            );
            if spins < SPINS_BEFORE_YIELD {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        for (v, slot) in values.iter_mut().zip(&self.values) {
            *v = f64::from_bits(slot.load(Ordering::Relaxed));
        }
    }

    /// A guard that marks the mailbox abandoned if its thread unwinds
    /// while holding it.
    fn abandon_on_unwind(&self) -> AbandonOnUnwind<'_> {
        AbandonOnUnwind(self)
    }
}

/// See [`Mailbox::abandon_on_unwind`].
struct AbandonOnUnwind<'a>(&'a Mailbox);

impl Drop for AbandonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abandoned.store(true, Ordering::SeqCst);
        }
    }
}

/// Test-only views of the weights and the loss: the references the tests
/// hold the shipped `predict` and training to.
#[cfg(test)]
impl Mlp {
    /// Returns a flat copy of all parameters.
    pub(crate) fn parameters(&self) -> Vec<f64> {
        let mut p = self.w1.clone();
        p.extend_from_slice(&self.b1);
        p.extend_from_slice(&self.w2);
        p.push(self.b2);
        p
    }

    /// Overwrites all parameters from a flat vector.
    fn set_parameters(&mut self, p: &[f64]) {
        let n1 = self.w1.len();
        let n2 = self.b1.len();
        let n3 = self.w2.len();
        assert_eq!(p.len(), n1 + n2 + n3 + 1);
        self.w1.copy_from_slice(&p[..n1]);
        self.b1.copy_from_slice(&p[n1..n1 + n2]);
        self.w2.copy_from_slice(&p[n1 + n2..n1 + n2 + n3]);
        self.b2 = p[n1 + n2 + n3];
    }

    /// Mean squared error over a data set.
    fn mse<R: AsRef<[f64]>>(&self, inputs: &[R], targets: &[f64]) -> f64 {
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
        mlp.train(&mut inputs.concat(), &mut targets.clone(), 1);
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
        for threads in [1, 2] {
            let mut mlp = Mlp::new(toy_config().with_epochs(cap));
            let (mut rows, mut targets) = linear_lane();
            assert_eq!(mlp.train(&mut rows, &mut targets, threads), cap);
            assert_eq!(
                fingerprint(&mlp),
                0xD3EB_C930_0CC5_8660,
                "{threads} threads"
            );
        }
    }

    /// `n` rows shaped like an index's root fit, as one flat lane: for two
    /// inputs, points skewed towards `x = 0` with their cell of an 8 × 8 grid
    /// as the target; for one input, the noisy keys `i / n · (0.5 + 0.5 u)`
    /// with the target `i / (n − 1)`.  Targets are scaled into `[0, 1]`.
    fn root_shaped_lane(input_dim: usize, n: usize) -> (Vec<f64>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(0x2007);
        let mut rows = Vec::with_capacity(n * input_dim);
        let mut targets = Vec::with_capacity(n);
        for i in 0..n {
            let (u, v): (f64, f64) = (rng.gen(), rng.gen());
            if input_dim == 2 {
                let x = u * u;
                rows.extend([x, v]);
                let cell = (x * 8.0).floor() * 8.0 + (v * 8.0).floor();
                targets.push(cell / 63.0);
            } else {
                rows.push(i as f64 / n as f64 * (0.5 + 0.5 * u));
                targets.push(i as f64 / (n - 1) as f64);
            }
        }
        (rows, targets)
    }

    /// A root-shaped fit of `hidden` units over `rows` rows, batches of 32,
    /// at most `epochs` epochs, on `threads` threads, with its epochs on the
    /// instance `isa` picks: its epoch count and parameter fingerprint.
    fn root_shaped_fit(
        isa: Isa,
        input_dim: usize,
        hidden: usize,
        rows: usize,
        epochs: usize,
        threads: usize,
    ) -> (usize, u64) {
        let cfg = MlpConfig {
            input_dim,
            hidden,
            learning_rate: 0.15,
            epochs,
            batch_size: 32,
            seed: 42,
        };
        let mut mlp = Mlp::new(cfg);
        let (mut rows, mut targets) = root_shaped_lane(input_dim, rows);
        let ran = mlp.train_on(isa, &mut rows, &mut targets, threads);
        (ran, fingerprint(&mlp))
    }

    /// Root-shaped fits — RSMI's root (2 inputs, 33 units) and ZM's (1
    /// input, 16 units) — over 5 000 rows, so the last batch of 32 is
    /// short: pins their epoch counts and weights bit for bit, on one
    /// thread and with the units split over two.
    #[test]
    fn root_shaped_fits_keep_their_exact_weights() {
        for (input_dim, hidden, want) in [
            (2, 33, (6, 0x2EF2_16AF_4BD8_E1C7)),
            (1, 16, (6, 0x5E78_6F2C_567A_3CF2)),
        ] {
            for threads in [1, 2] {
                let got = root_shaped_fit(Isa::host(), input_dim, hidden, 5_000, 6, threads);
                assert_eq!(got, want, "input_dim {input_dim}, {threads} threads");
            }
        }
    }

    /// The AVX2 instance of the epoch bodies trains the root-shaped fits to
    /// the baseline's epoch counts and weights, bit for bit, on one thread
    /// and with the units split over two.
    #[test]
    fn the_avx2_epochs_train_the_baseline_weights_bit_for_bit() {
        let wide = Isa::host();
        if wide == Isa::BASE {
            println!("skipped: this host has no AVX2");
            return;
        }
        for (input_dim, hidden) in [(2, 33), (1, 16)] {
            for threads in [1, 2] {
                let fit = |isa| root_shaped_fit(isa, input_dim, hidden, 5_000, 6, threads);
                assert_eq!(
                    fit(wide),
                    fit(Isa::BASE),
                    "input_dim {input_dim}, {threads} threads"
                );
            }
        }
    }

    /// The AVX2 instance of `predict` returns the baseline's bits over a
    /// grid of inputs, for strips that end short of, at and past 64 units.
    #[test]
    fn the_avx2_predict_returns_the_baseline_bits() {
        let wide = Isa::host();
        if wide == Isa::BASE {
            println!("skipped: this host has no AVX2");
            return;
        }
        let mut rng = StdRng::seed_from_u64(0xA7C2);
        for input_dim in 1..=3 {
            for hidden in [4, 16, 33, 64, 65] {
                let cfg = MlpConfig {
                    input_dim,
                    hidden,
                    seed: rng.gen(),
                    ..MlpConfig::default()
                };
                let mut mlp = Mlp::new(cfg);
                // Steep units and biases, so some units saturate.
                let params: Vec<f64> = mlp
                    .parameters()
                    .iter()
                    .map(|&p| p * rng.gen_range(1.0..40.0) + rng.gen_range(-2.0..2.0))
                    .collect();
                mlp.set_parameters(&params);
                // 21 steps over [-0.5, 1.5] per input.
                for i in 0..21usize.pow(input_dim as u32) {
                    let x: Vec<f64> = (0..input_dim)
                        .map(|k| (i / 21usize.pow(k as u32) % 21) as f64 * 0.1 - 0.5)
                        .collect();
                    assert_eq!(
                        mlp.predict_on(wide, &x).to_bits(),
                        mlp.predict_on(Isa::BASE, &x).to_bits(),
                        "input_dim {input_dim}, hidden {hidden}, x {x:?}"
                    );
                }
            }
        }
    }

    /// The split changes nothing: one range and two give the same weights
    /// and epoch counts, for even and odd unit counts, including fits the
    /// stop rule ends before their cap.
    #[test]
    fn splitting_the_units_over_two_threads_keeps_every_bit() {
        for input_dim in [1, 2] {
            for hidden in [4, 5, 33, 64] {
                for epochs in [3, 40] {
                    let one = root_shaped_fit(Isa::host(), input_dim, hidden, 1_000, epochs, 1);
                    let two = root_shaped_fit(Isa::host(), input_dim, hidden, 1_000, epochs, 2);
                    assert_eq!(one, two, "input_dim {input_dim}, hidden {hidden}");
                }
            }
        }
    }

    /// A range whose peer unwinds before posting must not wait forever:
    /// the waiting side panics instead, whether the peer died before the
    /// wait began or during it.
    #[test]
    fn a_range_whose_peer_dies_before_posting_stops_waiting() {
        use std::sync::{mpsc, Arc, Barrier};
        use std::time::Duration;
        for waiter_first in [false, true] {
            let mailbox = Arc::new(Mailbox::new(4));
            let barrier = Arc::new(Barrier::new(2));
            let dying = std::thread::spawn({
                let (mailbox, barrier) = (Arc::clone(&mailbox), Arc::clone(&barrier));
                move || {
                    let _abandon = mailbox.abandon_on_unwind();
                    if waiter_first {
                        barrier.wait();
                    }
                    panic!("a range dies before posting");
                }
            });
            let mut dying = Some(dying);
            if !waiter_first {
                let dead = dying.take().expect("not joined yet").join();
                assert!(dead.is_err());
            }
            let (done, finished) = mpsc::channel();
            let waiter = std::thread::spawn(move || {
                if waiter_first {
                    barrier.wait();
                }
                let waited = std::panic::catch_unwind(|| {
                    mailbox.take(Side::Follower, &mut [0.0; 4]);
                });
                done.send(waited.is_err()).expect("the test is listening");
            });
            assert_eq!(
                finished.recv_timeout(Duration::from_secs(60)),
                Ok(true),
                "the waiting range must panic (peer died first: {})",
                !waiter_first
            );
            waiter.join().expect("the waiter caught its panic");
            if let Some(dying) = dying {
                assert!(dying.join().is_err());
            }
        }
    }

    /// Targets with no relation to the inputs: nothing is left to learn
    /// after the first epochs, so the loss is flat and the fit stops.
    #[test]
    fn a_fit_on_a_flat_loss_stops_well_before_its_cap() {
        let (mut rows, _) = linear_lane();
        let mut rng = StdRng::seed_from_u64(0xF1A7);
        let mut targets: Vec<f64> = (0..rows.len() / 2).map(|_| rng.gen()).collect();
        let mut mlp = Mlp::new(toy_config());
        let epochs = mlp.train(&mut rows, &mut targets, 1);
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
        mlp.train(&mut inputs.concat(), &mut targets.clone(), 1);
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
    fn training_is_deterministic_for_a_fixed_seed() {
        let inputs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 49.0, 0.5]).collect();
        let targets: Vec<f64> = (0..50).map(|i| i as f64 / 49.0).collect();
        let mut a = Mlp::new(toy_config());
        let mut b = Mlp::new(toy_config());
        let ran_a = a.train(&mut inputs.concat(), &mut targets.clone(), 1);
        let ran_b = b.train(&mut inputs.concat(), &mut targets.clone(), 1);
        assert!(ran_a < toy_config().epochs, "the rule must stop this fit");
        assert_eq!(ran_a, ran_b);
        assert_eq!(a.parameters(), b.parameters());
    }

    #[test]
    fn empty_training_set_is_a_noop() {
        let mut mlp = Mlp::new(toy_config());
        let before = mlp.parameters();
        mlp.train(&mut [], &mut [], 1);
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
        mlp.train(&mut [0.0, 0.0], &mut [], 1);
    }

    #[test]
    fn config_constructors_follow_paper_sizing_rule() {
        let c = MlpConfig::for_coordinates(100);
        assert_eq!(c.input_dim, 2);
        assert_eq!(c.hidden, 51);
        // Clamped for tiny/huge class counts.
        assert_eq!(MlpConfig::for_coordinates(1).hidden, 4);
        assert_eq!(MlpConfig::for_coordinates(1000).hidden, 64);
    }
}
