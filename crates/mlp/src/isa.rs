//! The run-time choice between the two compiled instances of the hot loops.
//!
//! [`crate::Mlp::predict`] and the two training epoch bodies are compiled
//! twice on x86: once for the target's baseline (SSE2, two `f64` lanes on
//! x86-64) and once with `#[target_feature(enable = "avx2")]` (four
//! lanes).  Each dispatching function matches on an [`Isa`] and runs the
//! AVX2 instance only when it says the host has AVX2.  Both instances run
//! the same `#[inline(always)]` body, and AVX2 does not enable FMA, so
//! every lane computes the same expression in the same order and the two
//! agree bit for bit.  Other targets compile the baseline alone.

/// Which compiled instance of a hot loop runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Isa {
    /// Whether the host has AVX2.  Private, so only [`Isa::host`] sets it:
    /// the dispatching functions call the AVX2 instance on its word.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    avx2: bool,
}

impl Isa {
    /// The baseline instance, which every host runs.
    #[cfg(test)]
    pub(crate) const BASE: Self = Self {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        avx2: false,
    };

    /// The widest instance this host runs.  `std` caches the CPUID probe,
    /// so after the first call this is one load.
    #[inline]
    pub(crate) fn host() -> Self {
        Self {
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            avx2: std::is_x86_feature_detected!("avx2"),
        }
    }

    /// Whether the AVX2 instance may run.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[inline]
    pub(crate) fn avx2(self) -> bool {
        self.avx2
    }
}
