//! Min-max normalisation of model inputs and outputs.

/// Per-dimension min-max scaler mapping raw values into `[0, 1]`.
///
/// "For ease of model training, the point coordinates and block IDs are
/// normalized into the unit range" (§6.1).  Each index sub-model owns one
/// normaliser fitted on the data it is trained on, so child models see their
/// local region stretched over the full unit square.
#[derive(Debug, Clone)]
pub struct Normalizer {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Normalizer {
    /// Fits a normaliser on column-oriented samples: `samples[i]` is the
    /// `i`-th row, every row must have the same dimensionality.
    ///
    /// Returns an identity-like normaliser for an empty sample set.
    pub fn fit<R: AsRef<[f64]>>(samples: &[R]) -> Self {
        let dim = samples.first().map_or(0, |row| row.as_ref().len());
        let mut lo = vec![f64::INFINITY; dim];
        let mut hi = vec![f64::NEG_INFINITY; dim];
        for row in samples {
            let row = row.as_ref();
            assert_eq!(row.len(), dim, "inconsistent sample dimensionality");
            for (d, &v) in row.iter().enumerate() {
                lo[d] = lo[d].min(v);
                hi[d] = hi[d].max(v);
            }
        }
        if dim == 0 {
            return Self {
                lo: vec![],
                hi: vec![],
            };
        }
        Self { lo, hi }
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Scales one row into `[0, 1]^dim`.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.dim());
        row.iter()
            .enumerate()
            .map(|(d, &v)| geom_normalize(v, self.lo[d], self.hi[d]))
            .collect()
    }

    /// Scales one row in place into a caller-provided buffer (no allocation).
    pub fn transform_into(&self, row: &[f64], out: &mut [f64]) {
        assert_eq!(row.len(), self.dim());
        assert_eq!(out.len(), self.dim());
        for (d, &v) in row.iter().enumerate() {
            out[d] = geom_normalize(v, self.lo[d], self.hi[d]);
        }
    }

    /// The fitted `[lo, hi]` bounds of dimension `d`.
    pub fn bounds(&self, d: usize) -> (f64, f64) {
        (self.lo[d], self.hi[d])
    }

    /// Approximate in-memory size, for index-size accounting.
    pub fn size_bytes(&self) -> usize {
        (self.lo.len() + self.hi.len()) * std::mem::size_of::<f64>()
    }

    /// Appends the fitted bounds to a snapshot (sub-record of an index
    /// section; the enclosing section carries the checksum).
    pub fn encode(&self, w: &mut persist::SnapshotWriter) {
        w.put_f64s(&self.lo);
        w.put_f64s(&self.hi);
    }

    /// Reads a normaliser written by [`Normalizer::encode`].
    pub fn decode(r: &mut persist::SnapshotReader<'_>) -> Result<Self, persist::PersistError> {
        let lo = r.get_f64s()?;
        let hi = r.get_f64s()?;
        if lo.len() != hi.len() {
            return Err(persist::PersistError::Corrupt(
                "normaliser bounds differ in dimensionality".into(),
            ));
        }
        Ok(Self { lo, hi })
    }
}

#[inline]
fn geom_normalize(v: f64, lo: f64, hi: f64) -> f64 {
    let span = hi - lo;
    if span <= f64::EPSILON {
        0.0
    } else {
        ((v - lo) / span).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Normalizer {
        /// A normaliser with explicit per-dimension bounds.
        fn from_bounds(lo: Vec<f64>, hi: Vec<f64>) -> Self {
            assert_eq!(lo.len(), hi.len());
            Self { lo, hi }
        }
    }

    #[test]
    fn fit_and_transform_map_extremes_to_unit_interval() {
        let samples = vec![vec![2.0, -1.0], vec![4.0, 3.0], vec![3.0, 1.0]];
        let norm = Normalizer::fit(&samples);
        assert_eq!(norm.transform(&[2.0, -1.0]), vec![0.0, 0.0]);
        assert_eq!(norm.transform(&[4.0, 3.0]), vec![1.0, 1.0]);
        let mid = norm.transform(&[3.0, 1.0]);
        assert!((mid[0] - 0.5).abs() < 1e-12);
        assert!((mid[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transform_clamps_out_of_range_values() {
        let norm = Normalizer::from_bounds(vec![0.0], vec![10.0]);
        assert_eq!(norm.transform(&[-5.0]), vec![0.0]);
        assert_eq!(norm.transform(&[50.0]), vec![1.0]);
    }

    #[test]
    fn degenerate_dimension_maps_to_zero() {
        let samples = vec![vec![3.0, 1.0], vec![3.0, 2.0]];
        let norm = Normalizer::fit(&samples);
        assert_eq!(norm.transform(&[3.0, 1.5]), vec![0.0, 0.5]);
    }

    #[test]
    fn transform_into_matches_transform() {
        let norm = Normalizer::from_bounds(vec![0.0, 0.0], vec![2.0, 4.0]);
        let row = [1.0, 1.0];
        let mut buf = [0.0; 2];
        norm.transform_into(&row, &mut buf);
        assert_eq!(buf.to_vec(), norm.transform(&row));
    }

    #[test]
    fn empty_fit_produces_zero_dim() {
        let norm = Normalizer::fit::<[f64; 2]>(&[]);
        assert_eq!(norm.dim(), 0);
    }
}
