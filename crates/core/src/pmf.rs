//! Piecewise mapping function (approximate marginal CDF).
//!
//! The kNN algorithm (§4.3) sizes its initial search region with two skew
//! parameters `αx`, `αy` derived from the slope of the marginal CDFs of the
//! data at the query location.  Computing the true CDF is expensive, so the
//! paper approximates it with a *piecewise mapping function* built from
//! `γ = 100` equi-depth partitions of each dimension.

/// A piecewise-linear approximation of a one-dimensional CDF.
#[derive(Debug, Clone)]
pub struct PiecewiseCdf {
    /// Breakpoint coordinates, ascending; `xs[i]` is the upper boundary of
    /// the `i`-th equi-depth partition.
    xs: Vec<f64>,
    /// Cumulative fractions at the breakpoints, ascending in `[0, 1]`.
    fracs: Vec<f64>,
}

impl PiecewiseCdf {
    /// Builds the CDF approximation from raw (unsorted) coordinate values
    /// using `pieces` equi-depth partitions.
    pub fn fit(values: &[f64], pieces: usize) -> Self {
        assert!(pieces >= 1, "at least one piece required");
        if values.is_empty() {
            return Self {
                xs: vec![0.0, 1.0],
                fracs: vec![0.0, 1.0],
            };
        }
        let mut sorted = values.to_vec();
        sorted.sort_by_key(|&v| geom::order_key(v));
        let n = sorted.len();
        let mut xs = Vec::with_capacity(pieces + 1);
        let mut fracs = Vec::with_capacity(pieces + 1);
        xs.push(sorted[0]);
        fracs.push(0.0);
        for i in 1..=pieces {
            let idx = ((i * n) / pieces).clamp(1, n) - 1;
            let x = sorted[idx];
            let frac = (idx + 1) as f64 / n as f64;
            // Keep breakpoints strictly increasing in x so interpolation is
            // well defined on duplicate-heavy data.
            if x > *xs.last().expect("non-empty") {
                xs.push(x);
                fracs.push(frac);
            } else if let Some(last) = fracs.last_mut() {
                *last = frac;
            }
        }
        Self { xs, fracs }
    }

    /// Estimated fraction of values `<= x`; a NaN reads as 0.
    pub fn eval(&self, x: f64) -> f64 {
        if x.is_nan() || x <= self.xs[0] {
            return 0.0;
        }
        if x >= *self.xs.last().expect("non-empty") {
            return 1.0;
        }
        // Find the segment containing x and interpolate linearly.
        let hi = self.xs.partition_point(|&b| b < x);
        let lo = hi - 1;
        let (x0, x1) = (self.xs[lo], self.xs[hi]);
        let (f0, f1) = (self.fracs[lo], self.fracs[hi]);
        if x1 - x0 <= f64::EPSILON {
            return f1;
        }
        f0 + (f1 - f0) * (x - x0) / (x1 - x0)
    }

    /// The paper's skew parameter (Equation 6): `α = Δ / (CDF(q + Δ) −
    /// CDF(q))`, clamped to a sane range so that near-empty regions do not
    /// produce unbounded search windows.
    pub fn alpha(&self, q: f64, delta: f64) -> f64 {
        let rise = self.eval(q + delta) - self.eval(q);
        if rise <= f64::EPSILON {
            // No data mass to the right of q within Δ: fall back to looking
            // left, and if that is also empty use a generous default.
            let rise_left = self.eval(q) - self.eval(q - delta);
            if rise_left <= f64::EPSILON {
                return 16.0;
            }
            return (delta / rise_left).clamp(0.05, 64.0);
        }
        (delta / rise).clamp(0.05, 64.0)
    }

    /// The breakpoint coordinates and their cumulative fractions.
    #[cfg(test)]
    pub(crate) fn breakpoints(&self) -> (&[f64], &[f64]) {
        (&self.xs, &self.fracs)
    }

    /// Number of stored breakpoints (for size accounting).
    pub fn size_bytes(&self) -> usize {
        (self.xs.len() + self.fracs.len()) * std::mem::size_of::<f64>()
    }

    /// Appends the breakpoints to a snapshot (sub-record of an index
    /// section).
    pub fn encode(&self, w: &mut persist::SnapshotWriter) {
        w.put_f64s(&self.xs);
        w.put_f64s(&self.fracs);
    }

    /// Reads a CDF written by [`PiecewiseCdf::encode`].
    pub fn decode(r: &mut persist::SnapshotReader<'_>) -> Result<Self, persist::PersistError> {
        let xs = r.get_f64s()?;
        let fracs = r.get_f64s()?;
        if xs.len() != fracs.len() || xs.is_empty() {
            return Err(persist::PersistError::Corrupt(
                "piecewise CDF breakpoint arrays are malformed".into(),
            ));
        }
        Ok(Self { xs, fracs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_data_yields_identity_like_cdf() {
        let values: Vec<f64> = (0..10_000).map(|i| i as f64 / 10_000.0).collect();
        let cdf = PiecewiseCdf::fit(&values, 100);
        for &x in &[0.1, 0.25, 0.5, 0.75, 0.9] {
            assert!((cdf.eval(x) - x).abs() < 0.02, "cdf({x}) = {}", cdf.eval(x));
        }
        assert_eq!(cdf.eval(-1.0), 0.0);
        assert_eq!(cdf.eval(2.0), 1.0);
    }

    #[test]
    fn nan_evaluates_to_zero() {
        // Every comparison with NaN is false, so no segment holds it: it
        // must not reach the segment search.
        let values: Vec<f64> = (0..1_000).map(|i| i as f64 / 1_000.0).collect();
        let cdf = PiecewiseCdf::fit(&values, 100);
        assert_eq!(cdf.eval(f64::NAN), 0.0);
        assert_eq!(cdf.eval(-f64::NAN), 0.0);
    }

    #[test]
    fn cdf_is_monotone() {
        let values: Vec<f64> = (0..5000).map(|i| ((i as f64) / 5000.0).powi(4)).collect();
        let cdf = PiecewiseCdf::fit(&values, 100);
        let mut prev = 0.0;
        let mut x = 0.0;
        while x <= 1.0 {
            let v = cdf.eval(x);
            assert!(v + 1e-12 >= prev);
            prev = v;
            x += 0.01;
        }
    }

    #[test]
    fn alpha_is_one_for_uniform_data() {
        let values: Vec<f64> = (0..10_000).map(|i| i as f64 / 10_000.0).collect();
        let cdf = PiecewiseCdf::fit(&values, 100);
        let a = cdf.alpha(0.5, 0.01);
        assert!((a - 1.0).abs() < 0.3, "alpha = {a}");
    }

    #[test]
    fn alpha_is_large_in_sparse_regions_and_small_in_dense_regions() {
        // Skewed data: mass concentrated near 0.
        let values: Vec<f64> = (0..10_000).map(|i| (i as f64 / 10_000.0).powi(4)).collect();
        let cdf = PiecewiseCdf::fit(&values, 100);
        let dense = cdf.alpha(0.01, 0.01);
        let sparse = cdf.alpha(0.9, 0.01);
        assert!(dense < 1.0, "dense alpha = {dense}");
        assert!(sparse > 1.0, "sparse alpha = {sparse}");
    }

    #[test]
    fn alpha_is_clamped_and_finite_even_outside_the_data_range() {
        let values: Vec<f64> = (0..100).map(|i| 0.4 + 0.2 * (i as f64 / 100.0)).collect();
        let cdf = PiecewiseCdf::fit(&values, 10);
        for &q in &[-1.0, 0.0, 0.39, 0.5, 0.61, 1.0, 2.0] {
            let a = cdf.alpha(q, 0.01);
            assert!(a.is_finite());
            assert!((0.05..=64.0).contains(&a), "alpha({q}) = {a}");
        }
    }

    #[test]
    fn empty_input_produces_a_usable_default() {
        let cdf = PiecewiseCdf::fit(&[], 100);
        assert_eq!(cdf.eval(0.5), 0.5);
        assert!(cdf.alpha(0.5, 0.01).is_finite());
    }

    #[test]
    fn duplicate_heavy_data_does_not_break_interpolation() {
        let mut values = vec![0.5; 1000];
        values.extend((0..1000).map(|i| i as f64 / 1000.0));
        let cdf = PiecewiseCdf::fit(&values, 50);
        assert!(cdf.eval(0.5) > 0.5, "half of the mass sits at exactly 0.5");
        assert!(cdf.eval(0.499) <= cdf.eval(0.501));
    }
}
