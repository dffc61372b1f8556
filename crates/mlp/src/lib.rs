//! A minimal multilayer perceptron (MLP) substrate.
//!
//! The RSMI paper trains, for every sub-model, "a multilayer perceptron with
//! an input layer, a hidden layer, and an output layer", sigmoid activation
//! in the hidden layer, L2 loss, and stochastic gradient descent (§6.1).  The
//! original implementation uses the PyTorch C++ API; this crate hand-rolls an
//! equivalent network so the reproduction has no ML-framework dependency.
//!
//! Contents:
//!
//! * [`Mlp`] — the network itself (forward pass, SGD backward pass),
//! * [`MlpConfig`] — architecture and training hyper-parameters,
//! * [`sigmoid`] — the hidden activation: branch-free and within 1e-15 of
//!   libm (relative) inside its `[-700, 700]` clamp, so that `predict` and
//!   `train` run it over a strip of hidden units as one autovectorised
//!   loop,
//! * [`Normalizer`] — min-max scaling of inputs/outputs into `[0, 1]`, as the
//!   paper does before training,
//! * [`ScaledRegressor`] — the convenience wrapper used by the indices: it
//!   owns the normalisers and predicts *integer* targets (block IDs or
//!   partition IDs) from raw coordinates.

// `deny`, not `forbid`: the dispatchers of `network` call the AVX2
// instances of the hot loops under `#[allow(unsafe_code)]` (see `isa`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod isa;
mod network;
mod normalizer;
mod regressor;

pub use network::{Mlp, MlpConfig};
pub use normalizer::Normalizer;
pub use regressor::ScaledRegressor;

/// The logistic sigmoid `1 / (1 + e^-x)`, branch-free so that a loop over
/// a strip of activations autovectorises on plain SSE2.
///
/// The input is clamped to `[-700, 700]`, where `e^-x` and `2^k` below are
/// normal numbers: `σ(x)` is exactly `1.0` above 37 and saturates at
/// `σ(-700) ≈ 9.9e-305` below the clamp.  `e^-x` comes from a Cody–Waite
/// reduction `-x = k·ln2 + r`, `|r| ≤ ln2/2` (ln2 split into a 32-bit head
/// and a tail, `k` rounded by the `1.5·2^52` magic add), a degree-12 Taylor
/// polynomial in `r` evaluated by Estrin's scheme (Horner's 12-deep chain
/// is latency-bound), and a scale `2^k` built from the bits of the magic
/// sum.  Inside the clamp the result is within 1e-15 of the libm sigmoid,
/// relative.
#[inline(always)]
pub fn sigmoid(x: f64) -> f64 {
    const MAGIC: f64 = 6_755_399_441_055_744.0; // 1.5 · 2^52
    const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
    const C: [f64; 13] = [
        1.0,
        1.0,
        1.0 / 2.0,
        1.0 / 6.0,
        1.0 / 24.0,
        1.0 / 120.0,
        1.0 / 720.0,
        1.0 / 5_040.0,
        1.0 / 40_320.0,
        1.0 / 362_880.0,
        1.0 / 3_628_800.0,
        1.0 / 39_916_800.0,
        1.0 / 479_001_600.0,
    ];
    let t = -(x.clamp(-700.0, 700.0));
    let km = t * std::f64::consts::LOG2_E + MAGIC;
    let k = km - MAGIC;
    let r = (t - k * LN2_HI) - k * LN2_LO;
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let p01 = C[0] + C[1] * r;
    let p23 = C[2] + C[3] * r;
    let p45 = C[4] + C[5] * r;
    let p67 = C[6] + C[7] * r;
    let p89 = C[8] + C[9] * r;
    let pab = C[10] + C[11] * r;
    let p0_3 = p01 + p23 * r2;
    let p4_7 = p45 + p67 * r2;
    let p8_b = p89 + pab * r2;
    let p0_7 = p0_3 + p4_7 * r4;
    let p8_c = p8_b + C[12] * r4;
    let exp_r = p0_7 + p8_c * r8;
    // The low bits of `km` hold `k` in two's complement; adding the
    // exponent bias and shifting drops everything above them.
    let scale = f64::from_bits((km.to_bits() + 1023) << 52);
    1.0 / (1.0 + exp_r * scale)
}

/// Applies [`sigmoid`] to every activation of a strip in place.
#[inline(always)]
pub(crate) fn sigmoid_in_place(zs: &mut [f64]) {
    for z in zs {
        *z = sigmoid(*z);
    }
}

/// A non-inlined instantiation of the activation pass for the CI
/// autovectorisation guard: `ci/check_autovec.sh` compiles this crate with
/// `--emit asm` and greps this symbol's body for packed `divpd` and the
/// integer `paddq`/`psllq` that build `2^k`.  The `#[inline(always)]` pass
/// is otherwise only codegen'd inside `predict` and `train`; no model calls
/// this wrapper.  It is the baseline instance; the guard reads the AVX2
/// instances of `predict` and the epoch bodies by their own symbols.
#[doc(hidden)]
pub mod asm_probes {
    #[inline(never)]
    pub fn sigmoid_strip(zs: &mut [f64]) {
        super::sigmoid_in_place(zs)
    }
}

/// The libm logistic sigmoid: the reference the production sigmoid is held
/// to.
#[cfg(test)]
pub(crate) fn libm_sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_matches_libm_to_1e_15_relative() {
        // A dense grid over [-745, 745], where libm's sigmoid is not yet
        // 0, plus a fine grid near 0.  (6.3e-16 at x = -18.371.)
        let grid = (-745_000..=745_000)
            .map(|i| i as f64 * 1e-3)
            .chain((-100_000..=100_000).map(|i| i as f64 * 1e-7));
        let mut worst = (0.0f64, 0.0f64);
        for x in grid {
            let (got, want) = (sigmoid(x), libm_sigmoid(x));
            if x < -700.0 {
                // Below the clamp the value saturates at sigmoid(-700)
                // ≈ 9.9e-305; libm's value there is as small or subnormal.
                assert!(got <= 1e-304 && got >= want, "x = {x}: {got} vs {want}");
                continue;
            }
            let rel = (got - want).abs() / want;
            if rel > worst.0 {
                worst = (rel, x);
            }
        }
        assert!(
            worst.0 <= 1e-15,
            "relative error {:e} at x = {}",
            worst.0,
            worst.1
        );
    }

    #[test]
    fn sigmoid_basic_values() {
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(-0.0), 0.5);
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
    }

    #[test]
    fn sigmoid_is_monotone_and_bounded() {
        // Steps of 1e-3 across both ends of the clamp.
        let mut prev = sigmoid(-800.0);
        for i in -800_000..=800_000 {
            let x = i as f64 * 1e-3;
            let s = sigmoid(x);
            assert!((0.0..=1.0).contains(&s), "x = {x}");
            assert!(s >= prev, "not monotone at x = {x}");
            prev = s;
        }
    }

    #[test]
    fn sigmoid_does_not_overflow_for_extreme_inputs() {
        assert!(sigmoid(-1e6).is_finite());
        assert!(sigmoid(1e6).is_finite());
        assert_eq!(sigmoid(1e6), 1.0);
        assert!((0.0..1e-300).contains(&sigmoid(-1e6)));
    }
}
