//! Z-score normalization fitted on the training split only (the convention
//! of DCRNN/Graph WaveNet that the paper follows).

use d2stgnn_tensor::Array;
use serde::{Deserialize, Serialize};

/// Standard (z-score) scaler: `x' = (x - mean) / std`.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct StandardScaler {
    mean: f32,
    std: f32,
}

impl StandardScaler {
    /// Fit on a slice of values (typically the training portion).
    ///
    /// # Panics
    /// If `values` is empty.
    pub fn fit(values: &[f32]) -> Self {
        assert!(!values.is_empty(), "cannot fit a scaler on no data");
        let n = values.len() as f64;
        let mean = values.iter().map(|v| *v as f64).sum::<f64>() / n;
        let var = values
            .iter()
            .map(|v| (*v as f64 - mean) * (*v as f64 - mean))
            .sum::<f64>()
            / n;
        Self {
            mean: mean as f32,
            std: (var.sqrt() as f32).max(1e-6),
        }
    }

    /// Fitted mean.
    pub fn mean(&self) -> f32 {
        self.mean
    }

    /// Fitted standard deviation (floored at 1e-6).
    pub fn std(&self) -> f32 {
        self.std
    }

    /// Normalize an array: each element becomes `(v - mean) / std`. With
    /// [`StandardScaler::inverse_transform`], the one place outside the
    /// autograd tape where the z-score is applied.
    pub fn transform(&self, x: &Array) -> Array {
        x.sub(&Array::scalar(self.mean))
            .div(&Array::scalar(self.std))
    }

    /// Invert the normalization: each element becomes `v * std + mean`.
    pub fn inverse_transform(&self, x: &Array) -> Array {
        x.map(|v| v * self.std + self.mean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_statistics() {
        let s = StandardScaler::fit(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean() - 2.5).abs() < 1e-6);
        assert!((s.std() - 1.118_034).abs() < 1e-4);
    }

    #[test]
    fn roundtrip() {
        let s = StandardScaler::fit(&[10.0, 20.0, 30.0]);
        let x = Array::from_vec(&[3], vec![10.0, 20.0, 30.0]).unwrap();
        let z = s.transform(&x);
        assert!((z.mean_all()).abs() < 1e-5);
        let back = s.inverse_transform(&z);
        for (a, b) in back.data().iter().zip(x.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn constant_data_does_not_divide_by_zero() {
        let s = StandardScaler::fit(&[5.0, 5.0, 5.0]);
        let x = Array::from_vec(&[1], vec![5.0]).unwrap();
        assert!(s.transform(&x).data()[0].is_finite());
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn empty_fit_panics() {
        StandardScaler::fit(&[]);
    }
}
