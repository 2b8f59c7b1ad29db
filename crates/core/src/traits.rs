//! The interface every trainable forecasting model implements, shared by
//! D²STGNN, its ablation variants, and the deep-learning baselines so the
//! training loop and the experiment harness treat them uniformly.

use d2stgnn_data::Batch;
use d2stgnn_tensor::nn::Module;
use d2stgnn_tensor::Tensor;
use rand::rngs::StdRng;

/// A multi-step traffic forecasting model trained by gradient descent.
pub trait TrafficModel: Module {
    /// Predict normalized signals for the batch: returns `[B, T_f, N, C_out]`
    /// in the *normalized* scale of `batch.x` (the trainer de-normalizes
    /// before computing losses and metrics).
    fn forward(&self, batch: &Batch, training: bool, rng: &mut StdRng) -> Tensor;

    /// Display name used in experiment tables.
    fn name(&self) -> String;

    /// Forecast horizon the model produces.
    fn horizon(&self) -> usize;

    /// Rows of the time-of-day embedding table, for models that index one
    /// with `batch.tod`; a slot at or past this bound has no row. `None`
    /// for models that do not read `tod`.
    fn steps_per_day(&self) -> Option<usize> {
        None
    }
}
