//! Optimizers: SGD and Adam (the paper trains with Adam, lr 0.001), plus
//! global-norm gradient clipping.

use crate::array::Array;
use crate::error::TensorError;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Scale all gradients so their global L2 norm is at most `max_norm`.
/// Returns the pre-clipping norm.
///
/// A single non-finite gradient element makes the returned norm non-finite;
/// in that case the gradients are left untouched (scaling by `max / NaN`
/// would only smear the poison around) and the caller is expected to treat
/// the step as diverged — the trainer's rollback path does exactly that.
/// Callers must therefore check `norm.is_finite()` before applying an
/// optimizer step.
pub fn clip_grad_norm(params: &[Tensor], max_norm: f32) -> f32 {
    let mut sq = 0.0f64;
    for p in params {
        if let Some(g) = p.grad() {
            sq += g
                .data()
                .iter()
                .map(|v| (*v as f64) * (*v as f64))
                .sum::<f64>();
        }
    }
    let norm = (sq.sqrt()) as f32;
    if !norm.is_finite() {
        return norm;
    }
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params {
            if let Some(g) = p.grad() {
                p.replace_grad(Some(g.scale(scale)));
            }
        }
    }
    norm
}

/// Common optimizer interface.
pub trait Optimizer {
    /// Apply one update step using the accumulated gradients, then clear them.
    fn step(&mut self);
    /// Clear gradients without updating.
    fn zero_grad(&self);
    /// Parameters managed by this optimizer.
    fn params(&self) -> &[Tensor];
    /// Current learning rate.
    fn learning_rate(&self) -> f32;
    /// Change the learning rate (schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain stochastic gradient descent with optional momentum.
pub struct Sgd {
    params: Vec<Tensor>,
    lr: f32,
    momentum: f32,
    velocity: HashMap<u64, Array>,
}

impl Sgd {
    /// New SGD optimizer.
    pub fn new(params: Vec<Tensor>, lr: f32, momentum: f32) -> Self {
        Self {
            params,
            lr,
            momentum,
            velocity: HashMap::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self) {
        for p in &self.params {
            let Some(g) = p.grad() else { continue };
            if self.momentum > 0.0 {
                let v = self
                    .velocity
                    .entry(p.id())
                    .or_insert_with(|| Array::zeros(g.shape()));
                *v = v.scale(self.momentum);
                v.add_scaled_assign(&g, 1.0);
                let upd = v.clone();
                p.apply_grad(|val, _| val.add_scaled_assign(&upd, -self.lr));
            } else {
                p.apply_grad(|val, grad| val.add_scaled_assign(grad, -self.lr));
            }
            p.zero_grad();
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Serializable snapshot of an [`Adam`] optimizer's mutable state: the step
/// counter plus first/second moment estimates aligned with the optimizer's
/// parameter order (`None` for parameters that have not yet received a
/// gradient). Produced by [`Adam::export_state`], consumed by
/// [`Adam::import_state`] — the checkpoint/resume hook for exactly
/// reproducible training restarts.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdamState {
    /// Bias-correction step counter.
    pub t: i32,
    /// First-moment estimates, one slot per parameter in optimizer order.
    pub m: Vec<Option<Array>>,
    /// Second-moment estimates, one slot per parameter in optimizer order.
    pub v: Vec<Option<Array>>,
}

/// Adam (Kingma & Ba) with bias correction; defaults match the paper's setup
/// (`lr = 1e-3`, `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`).
pub struct Adam {
    params: Vec<Tensor>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: i32,
    m: HashMap<u64, Array>,
    v: HashMap<u64, Array>,
}

impl Adam {
    /// Adam with paper defaults.
    pub fn new(params: Vec<Tensor>, lr: f32) -> Self {
        Self::with_config(params, lr, 0.9, 0.999, 1e-8, 0.0)
    }

    /// Fully configured Adam (optionally with decoupled weight decay).
    pub fn with_config(
        params: Vec<Tensor>,
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        weight_decay: f32,
    ) -> Self {
        Self {
            params,
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }

    /// Export the mutable state (step counter + moment estimates) in
    /// parameter order. Together with the parameter values themselves this is
    /// everything needed to resume training bit-identically.
    pub fn export_state(&self) -> AdamState {
        AdamState {
            t: self.t,
            m: self
                .params
                .iter()
                .map(|p| self.m.get(&p.id()).cloned())
                .collect(),
            v: self
                .params
                .iter()
                .map(|p| self.v.get(&p.id()).cloned())
                .collect(),
        }
    }

    /// Restore state produced by [`Adam::export_state`]. Slot counts and
    /// moment shapes must match this optimizer's parameters.
    pub fn import_state(&mut self, state: &AdamState) -> Result<(), TensorError> {
        if state.m.len() != self.params.len() || state.v.len() != self.params.len() {
            return Err(TensorError::ShapeMismatch {
                op: "adam_import_state",
                lhs: vec![self.params.len()],
                rhs: vec![state.m.len(), state.v.len()],
            });
        }
        for moments in [&state.m, &state.v] {
            for (p, slot) in self.params.iter().zip(moments.iter()) {
                if let Some(a) = slot {
                    if a.shape() != p.shape() {
                        return Err(TensorError::ShapeMismatch {
                            op: "adam_import_state",
                            lhs: p.shape(),
                            rhs: a.shape().to_vec(),
                        });
                    }
                }
            }
        }
        self.t = state.t;
        self.m.clear();
        self.v.clear();
        for (p, slot) in self.params.iter().zip(&state.m) {
            if let Some(a) = slot {
                self.m.insert(p.id(), a.clone());
            }
        }
        for (p, slot) in self.params.iter().zip(&state.v) {
            if let Some(a) = slot {
                self.v.insert(p.id(), a.clone());
            }
        }
        Ok(())
    }
}

impl Optimizer for Adam {
    fn step(&mut self) {
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t);
        let b2t = 1.0 - self.beta2.powi(self.t);
        for p in &self.params {
            let Some(g) = p.grad() else { continue };
            let m = self
                .m
                .entry(p.id())
                .or_insert_with(|| Array::zeros(g.shape()));
            let v = self
                .v
                .entry(p.id())
                .or_insert_with(|| Array::zeros(g.shape()));
            for ((mi, vi), gi) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(g.data())
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            }
            let (lr, eps, wd) = (self.lr, self.eps, self.weight_decay);
            let (mref, vref) = (&*m, &*v);
            p.apply_grad(|val, _| {
                for ((x, mi), vi) in val.data_mut().iter_mut().zip(mref.data()).zip(vref.data()) {
                    let mhat = mi / b1t;
                    let vhat = vi / b2t;
                    let mut upd = mhat / (vhat.sqrt() + eps);
                    if wd > 0.0 {
                        upd += wd * *x;
                    }
                    *x -= lr * upd;
                }
            });
            p.zero_grad();
        }
    }

    fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_param(start: f32) -> Tensor {
        Tensor::parameter(Array::scalar(start))
    }

    #[test]
    fn sgd_minimizes_quadratic() {
        let x = quadratic_param(5.0);
        let mut opt = Sgd::new(vec![x.clone()], 0.1, 0.0);
        for _ in 0..100 {
            let loss = x.square();
            loss.backward();
            opt.step();
        }
        assert!(x.item().abs() < 1e-3, "x = {}", x.item());
    }

    #[test]
    fn sgd_momentum_converges() {
        let x = quadratic_param(5.0);
        let mut opt = Sgd::new(vec![x.clone()], 0.05, 0.9);
        for _ in 0..100 {
            x.square().backward();
            opt.step();
        }
        assert!(x.item().abs() < 0.1, "x = {}", x.item());
    }

    #[test]
    fn adam_minimizes_quadratic() {
        let x = quadratic_param(5.0);
        let mut opt = Adam::new(vec![x.clone()], 0.2);
        for _ in 0..200 {
            x.square().backward();
            opt.step();
        }
        assert!(x.item().abs() < 1e-2, "x = {}", x.item());
    }

    #[test]
    fn adam_handles_sparse_grads() {
        // A parameter that only sometimes receives a gradient must not panic.
        let x = quadratic_param(1.0);
        let y = quadratic_param(1.0);
        let mut opt = Adam::new(vec![x.clone(), y.clone()], 0.1);
        for i in 0..10 {
            if i % 2 == 0 {
                x.square().backward();
            } else {
                y.square().backward();
            }
            opt.step();
        }
        assert!(x.item() < 1.0 && y.item() < 1.0);
    }

    #[test]
    fn clip_grad_norm_caps_large_gradients() {
        let x = Tensor::parameter(Array::from_vec(&[2], vec![0.0, 0.0]).unwrap());
        let big = Tensor::constant(Array::from_vec(&[2], vec![30.0, 40.0]).unwrap());
        x.mul(&big).sum_all().backward();
        let pre = clip_grad_norm(std::slice::from_ref(&x), 5.0);
        assert!((pre - 50.0).abs() < 1e-3);
        let g = x.grad().unwrap();
        let post = (g.data()[0].powi(2) + g.data()[1].powi(2)).sqrt();
        assert!((post - 5.0).abs() < 1e-3);
        // Direction preserved.
        assert!((g.data()[0] / g.data()[1] - 0.75).abs() < 1e-4);
    }

    #[test]
    fn clip_noop_below_threshold() {
        let x = Tensor::parameter(Array::from_vec(&[1], vec![0.0]).unwrap());
        let c = Tensor::constant(Array::from_vec(&[1], vec![2.0]).unwrap());
        x.mul(&c).sum_all().backward();
        let pre = clip_grad_norm(std::slice::from_ref(&x), 5.0);
        assert_eq!(pre, 2.0);
        assert_eq!(x.grad().unwrap().data(), &[2.0]);
    }

    #[test]
    fn clip_reports_nonfinite_norm_and_leaves_grads_alone() {
        let x = Tensor::parameter(Array::from_vec(&[2], vec![0.0, 0.0]).unwrap());
        x.sum_all().backward();
        x.replace_grad(Some(Array::from_vec(&[2], vec![f32::NAN, 3.0]).unwrap()));
        let norm = clip_grad_norm(std::slice::from_ref(&x), 5.0);
        assert!(
            !norm.is_finite(),
            "poisoned norm must be non-finite: {norm}"
        );
        // The gradient is reported, not silently rescaled.
        let g = x.grad().unwrap();
        assert!(g.data()[0].is_nan());
        assert_eq!(g.data()[1], 3.0);
    }

    #[test]
    fn clip_reports_infinite_norm() {
        let x = Tensor::parameter(Array::from_vec(&[1], vec![0.0]).unwrap());
        x.sum_all().backward();
        x.replace_grad(Some(Array::from_vec(&[1], vec![f32::INFINITY]).unwrap()));
        let norm = clip_grad_norm(std::slice::from_ref(&x), 5.0);
        assert!(!norm.is_finite());
    }

    #[test]
    fn adam_state_roundtrip_resumes_identically() {
        // Two optimizers over identical parameters: one steps straight
        // through, the other is snapshotted/restored halfway. Trajectories
        // must match bit-for-bit.
        let run = |resume: bool| -> Vec<f32> {
            let x = Tensor::parameter(Array::from_vec(&[2], vec![5.0, -3.0]).unwrap());
            let mut opt = Adam::new(vec![x.clone()], 0.1);
            for _ in 0..10 {
                x.square().sum_all().backward();
                opt.step();
            }
            if resume {
                let state = opt.export_state();
                let mut fresh = Adam::new(vec![x.clone()], 0.1);
                fresh.import_state(&state).unwrap();
                opt = fresh;
            }
            for _ in 0..10 {
                x.square().sum_all().backward();
                opt.step();
            }
            x.value().data().to_vec()
        };
        let plain = run(false);
        let resumed = run(true);
        assert_eq!(
            plain.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            resumed.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn adam_state_export_keeps_sparse_slots() {
        let x = quadratic_param(1.0);
        let y = quadratic_param(1.0);
        let mut opt = Adam::new(vec![x.clone(), y.clone()], 0.1);
        x.square().backward();
        opt.step();
        let state = opt.export_state();
        assert_eq!(state.t, 1);
        assert!(state.m[0].is_some() && state.v[0].is_some());
        assert!(state.m[1].is_none() && state.v[1].is_none());
        let mut opt2 = Adam::new(vec![x.clone(), y], 0.1);
        opt2.import_state(&state).unwrap();
        let re = opt2.export_state();
        assert!(re.m[1].is_none());
        assert_eq!(
            re.m[0].as_ref().unwrap().data(),
            state.m[0].as_ref().unwrap().data()
        );
    }

    #[test]
    fn adam_import_rejects_mismatched_state() {
        let x = quadratic_param(1.0);
        let mut opt = Adam::new(vec![x.clone()], 0.1);
        // Wrong slot count.
        let bad = AdamState {
            t: 1,
            m: vec![],
            v: vec![],
        };
        assert!(opt.import_state(&bad).is_err());
        // Wrong moment shape.
        let bad = AdamState {
            t: 1,
            m: vec![Some(Array::zeros(&[3]))],
            v: vec![None],
        };
        assert!(opt.import_state(&bad).is_err());
    }

    #[test]
    fn learning_rate_setter() {
        let mut opt = Adam::new(vec![], 0.1);
        assert_eq!(opt.learning_rate(), 0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
