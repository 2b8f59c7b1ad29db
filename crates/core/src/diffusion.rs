//! Diffusion block: the spatial-temporal localized convolutional layer of
//! Section 5.1 (Eqs. 4–9) with forecast and backcast branches.
//!
//! Implementation note: the paper's block-tiled localized matrix
//! `(P^lc)^k ∈ R^{N × k_t N}` multiplies a stacked feature matrix
//! `X^lc_t ∈ R^{k_t N × d}` whose `k_t` blocks are the lag-projected inputs.
//! Because all `k_t` tiles of `(P^lc)^k` are the same masked `P^k`, the
//! product factorizes as `masked(P^k) · Σ_τ σ(X_{t−τ} W_τ)` — mathematically
//! identical and O(k_t) cheaper; `transition::localized_transition` provides
//! the explicit tiled form used by the equivalence test below.
//!
//! The static road graph's masked powers are constants of the
//! [`GraphContext`], formed once, so the block only multiplies by them. The
//! powers of learned matrices — the adaptive `P_apt` and the per-window
//! dynamic `P^{dy}` — depend on parameters and are formed here on every
//! forward.

use crate::forecast::ForecastBranch;
use crate::graphs::{GraphContext, MaskedPower, Transitions};
use d2stgnn_tensor::nn::{Linear, Mlp, Module};
use d2stgnn_tensor::{Array, Tensor};
use rand::Rng;

/// Configuration slice the diffusion block needs.
#[derive(Clone, Copy, Debug)]
pub struct DiffusionBlockConfig {
    /// Spatial kernel size `k_s`.
    pub ks: usize,
    /// Temporal kernel size `k_t`.
    pub kt: usize,
    /// Hidden width `d`.
    pub hidden: usize,
    /// Forecast horizon `T_f`.
    pub tf: usize,
    /// Use the sliding-AR forecast branch (vs direct multi-step).
    pub autoregressive: bool,
    /// Include the self-adaptive matrix term (Eq. 8's third summand).
    pub use_adaptive: bool,
}

/// Output of one diffusion block.
pub struct DiffusionOutput {
    /// Hidden state sequence `H^dif` `[B, T_h, N, d]` (Eq. 9).
    pub hidden: Tensor,
    /// Forecast hidden states `[B, T_f, N, d]`.
    pub forecast: Tensor,
    /// Backcast reconstruction `[B, T_h, N, d]` (consumed by Eq. 1).
    pub backcast: Tensor,
}

/// The spatial-temporal localized convolution with its two output branches.
pub struct DiffusionBlock {
    cfg: DiffusionBlockConfig,
    /// Per-lag input projections `W_τ` of Eq. 5.
    lag_proj: Vec<Linear>,
    /// Per (matrix, order) output projections `W_{k,m}` of Eq. 8; indexed
    /// `[matrix][k-1]` with matrices ordered forward, backward, adaptive.
    conv_weights: Vec<Vec<Linear>>,
    forecast: ForecastBranch,
    backcast: Mlp,
}

impl DiffusionBlock {
    /// Build the block.
    pub fn new<R: Rng>(cfg: DiffusionBlockConfig, rng: &mut R) -> Self {
        let d = cfg.hidden;
        let lag_proj = (0..cfg.kt).map(|_| Linear::new(d, d, true, rng)).collect();
        let num_matrices = if cfg.use_adaptive { 3 } else { 2 };
        let conv_weights = (0..num_matrices)
            .map(|_| (0..cfg.ks).map(|_| Linear::new(d, d, false, rng)).collect())
            .collect();
        let forecast = if cfg.autoregressive {
            ForecastBranch::sliding(cfg.kt, d, rng)
        } else {
            ForecastBranch::direct(cfg.tf, d, rng)
        };
        Self {
            cfg,
            lag_proj,
            conv_weights,
            forecast,
            backcast: Mlp::new(d, d, d, rng),
        }
    }

    /// Run the block on the gated diffusion signal `x_dif` `[B, T_h, N, d]`.
    ///
    /// `transitions` supplies `P_f`/`P_b`: the context's precomputed masked
    /// static powers (one per order, `k_s` of each), or per-window dynamic
    /// matrices; `adaptive` is `P_apt` when enabled. The diagonal of every
    /// learned matrix power is masked via `ctx.diag_mask` per Eq. 4.
    pub fn forward(
        &self,
        ctx: &GraphContext,
        x_dif: &Tensor,
        transitions: &Transitions,
        adaptive: Option<&Tensor>,
    ) -> DiffusionOutput {
        let shape = x_dif.shape();
        let (b, th, n, d) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(d, self.cfg.hidden, "hidden width mismatch");
        assert_eq!(n, ctx.num_nodes(), "node count mismatch");
        assert!(th >= 1, "empty window");

        // --- Eq. 5: lag-projected features, summed over the temporal kernel.
        // z_t = Σ_{τ=0..kt-1} relu(x_{t-τ} W_τ); out-of-range lags contribute 0.
        let mut z: Option<Tensor> = None;
        for (tau, proj) in self.lag_proj.iter().enumerate() {
            if tau >= th {
                break;
            }
            let projected = proj.forward(x_dif).relu(); // [B, Th, N, d]
            let shifted = if tau == 0 {
                projected
            } else {
                let kept = projected.slice_axis(1, 0, th - tau);
                let pad = Tensor::constant(Array::zeros(&[b, tau, n, d]));
                Tensor::concat(&[&pad, &kept], 1)
            };
            z = Some(match z {
                Some(acc) => acc.add(&shifted),
                None => shifted,
            });
        }
        let Some(z) = z else {
            crate::error::violation("th >= 1 guarantees at least one lag")
        };

        // --- Eq. 8: sum over transition matrices and spatial orders.
        let z_flat = z.reshape(&[b * th, n, d]);
        let mut matrices: Vec<MatrixRef> = match transitions {
            Transitions::Static { p_f, p_b } => {
                vec![MatrixRef::Static(p_f), MatrixRef::Static(p_b)]
            }
            Transitions::Dynamic { p_f, p_b } => {
                vec![MatrixRef::Learned(p_f), MatrixRef::Learned(p_b)]
            }
        };
        if self.cfg.use_adaptive {
            let Some(apt) = adaptive else {
                crate::error::violation("use_adaptive requires an adaptive matrix")
            };
            matrices.push(MatrixRef::Learned(apt));
        }

        let mut h: Option<Tensor> = None;
        let mut add = |term: Tensor| {
            h = Some(match h.take() {
                Some(acc) => acc.add(&term),
                None => term,
            });
        };
        for (matrix, weights) in matrices.into_iter().zip(&self.conv_weights) {
            let base = match matrix {
                MatrixRef::Static(powers) => {
                    if powers.len() != weights.len() {
                        crate::error::violation("the context's static powers must number k_s");
                    }
                    for (power, weight) in powers.iter().zip(weights) {
                        add(weight.forward(&power.apply(&z_flat)));
                    }
                    continue;
                }
                MatrixRef::Learned(base) => base,
            };
            let mut power = base.clone();
            for (k, weight) in weights.iter().enumerate() {
                // Eq. 4's `⊙ (1 - I_N)`, the `[N, N]` mask broadcast inside
                // `mul`, then `masked · z` for every (window, time) pair. An
                // `[N, N]` power broadcasts over the batch of z; a per-window
                // `[B, N, N]` one is a grouped product, window `bi`'s matrix
                // multiplying its own T_h pages of z `[B·T_h, N, d]`.
                let agg = power.mul(ctx.diag_mask()).matmul(&z_flat);
                add(weight.forward(&agg));
                if k + 1 < weights.len() {
                    power = power.matmul(base);
                }
            }
        }
        let Some(h) = h else {
            crate::error::violation("at least one transition matrix is always configured")
        };
        let hidden = h.reshape(&[b, th, n, d]);

        // --- branches operate per node: [B, Th, N, d] -> [B*N, Th, d].
        let per_node = hidden.permute(&[0, 2, 1, 3]).reshape(&[b * n, th, d]);
        let forecast = self
            .forecast
            .forward(&per_node, self.cfg.tf)
            .reshape(&[b, n, self.cfg.tf, d])
            .permute(&[0, 2, 1, 3]);
        let backcast = self.backcast.forward(&hidden);

        DiffusionOutput {
            hidden,
            forecast,
            backcast,
        }
    }
}

/// A transition matrix of Eq. 8. Static ones arrive as the context's
/// precomputed masked powers; the powers of learned ones depend on
/// parameters and are formed and masked on every forward.
enum MatrixRef<'a> {
    /// A static road-network transition's `[mask(P^1), ..., mask(P^{k_s})]`.
    Static(&'a [MaskedPower]),
    /// A learned matrix: the adaptive `P_apt` `[N, N]`, shared by every
    /// window, or a dynamic `P^{dy}` `[B, N, N]`, one per window.
    Learned(&'a Tensor),
}

impl Module for DiffusionBlock {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p: Vec<Tensor> = self.lag_proj.iter().flat_map(|l| l.parameters()).collect();
        for group in &self.conv_weights {
            for w in group {
                p.extend(w.parameters());
            }
        }
        p.extend(self.forecast.parameters());
        p.extend(self.backcast.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2stgnn_graph::{transition, SparseNetwork, TrafficNetwork};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> DiffusionBlockConfig {
        DiffusionBlockConfig {
            ks: 2,
            kt: 2,
            hidden: 6,
            tf: 4,
            autoregressive: true,
            use_adaptive: false,
        }
    }

    fn network(n: usize) -> (TrafficNetwork, StdRng) {
        let mut rng = StdRng::seed_from_u64(3);
        let net = TrafficNetwork::random_geometric(n, 3, 0.02, &mut rng);
        (net, rng)
    }

    /// A context with static powers up to `ks`; these small networks stay
    /// on the dense dispatch.
    fn setup(n: usize, ks: usize) -> (GraphContext, StdRng) {
        let (net, rng) = network(n);
        (GraphContext::new(&net, Some(ks)), rng)
    }

    #[test]
    fn output_shapes_static() {
        let (ctx, mut rng) = setup(7, 2);
        let block = DiffusionBlock::new(cfg(), &mut rng);
        let x = Tensor::constant(Array::randn(&[2, 5, 7, 6], &mut rng));
        let tr = ctx.static_transitions();
        let out = block.forward(&ctx, &x, &tr, None);
        assert_eq!(out.hidden.shape(), vec![2, 5, 7, 6]);
        assert_eq!(out.forecast.shape(), vec![2, 4, 7, 6]);
        assert_eq!(out.backcast.shape(), vec![2, 5, 7, 6]);
    }

    #[test]
    fn output_shapes_dynamic_and_adaptive() {
        let (net, mut rng) = network(7);
        let ctx = GraphContext::new(&net, None);
        let mut c = cfg();
        c.use_adaptive = true;
        c.autoregressive = false;
        let block = DiffusionBlock::new(c, &mut rng);
        let x = Tensor::constant(Array::randn(&[2, 5, 7, 6], &mut rng));
        // Fake dynamic graphs: reuse the static ones per window.
        let pf = ctx.p_f().reshape(&[1, 7, 7]).broadcast_to(&[2, 7, 7]);
        let pb = ctx.p_b().reshape(&[1, 7, 7]).broadcast_to(&[2, 7, 7]);
        let apt = Tensor::constant(transition::row_normalize(&Array::ones(&[7, 7])));
        let tr = Transitions::Dynamic { p_f: pf, p_b: pb };
        let out = block.forward(&ctx, &x, &tr, Some(&apt));
        assert_eq!(out.hidden.shape(), vec![2, 5, 7, 6]);
        assert_eq!(out.forecast.shape(), vec![2, 4, 7, 6]);
    }

    #[test]
    fn dynamic_with_static_values_matches_static_path() {
        // Feeding the static matrices through the dynamic code path must give
        // identical hidden states (the grouped product is value-preserving).
        let (ctx, mut rng) = setup(6, 2);
        let block = DiffusionBlock::new(cfg(), &mut rng);
        let x = Tensor::constant(Array::randn(&[3, 4, 6, 6], &mut rng));
        let st = ctx.static_transitions();
        let dy = Transitions::Dynamic {
            p_f: ctx.p_f().reshape(&[1, 6, 6]).broadcast_to(&[3, 6, 6]),
            p_b: ctx.p_b().reshape(&[1, 6, 6]).broadcast_to(&[3, 6, 6]),
        };
        let h_st = block.forward(&ctx, &x, &st, None).hidden.value();
        let h_dy = block.forward(&ctx, &x, &dy, None).hidden.value();
        for (a, b) in h_st.data().iter().zip(h_dy.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn sparse_path_matches_dense_path_exactly() {
        // The CSR powers hold the same values as the dense tensors, so the
        // sparse diffusion path must reproduce the dense hidden states,
        // branches, and input gradients exactly (the spmm kernel skips only
        // zero terms, which cannot change a finite accumulation).
        let (net, mut rng) = network(6);
        let dense_ctx = GraphContext::new(&net, Some(3)); // spgemm chain too
        let sparse_ctx = GraphContext::from_sparse(&SparseNetwork::from_network(&net), 3);
        let mut c = cfg();
        c.ks = 3;
        let block = DiffusionBlock::new(c, &mut rng);
        let base = Array::randn(&[2, 4, 6, 6], &mut rng);
        let st = dense_ctx.static_transitions();
        let sp = sparse_ctx.static_transitions();
        let x_dense = Tensor::parameter(base.clone());
        let x_sparse = Tensor::parameter(base);
        let dense_out = block.forward(&dense_ctx, &x_dense, &st, None);
        let sparse_out = block.forward(&sparse_ctx, &x_sparse, &sp, None);
        assert_eq!(
            dense_out.hidden.value().data(),
            sparse_out.hidden.value().data(),
            "hidden states diverged between dense and sparse transitions"
        );
        assert_eq!(
            dense_out.forecast.value().data(),
            sparse_out.forecast.value().data()
        );
        assert_eq!(
            dense_out.backcast.value().data(),
            sparse_out.backcast.value().data()
        );
        dense_out.hidden.sum_all().backward();
        sparse_out.hidden.sum_all().backward();
        let gd = x_dense.grad().expect("dense grad");
        let gs = x_sparse.grad().expect("sparse grad");
        for (a, b) in gd.data().iter().zip(gs.data()) {
            assert!((a - b).abs() <= 1e-6 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn factored_form_matches_explicit_eq4_tiling() {
        // One matrix, ks=1: H_t = masked(P) Σ_τ relu(x_{t-τ} W_τ) W must equal
        // the explicit (P^lc)^1 X^lc product of Eqs. 4-6.
        let (ctx, mut rng) = setup(5, 1);
        let mut c = cfg();
        c.ks = 1;
        c.kt = 2;
        let block = DiffusionBlock::new(c, &mut rng);
        let x = Array::randn(&[1, 3, 5, 6], &mut rng);
        let masked_p_f = transition::mask_diagonal(&ctx.p_f().value());
        let tr = Transitions::Static {
            p_f: vec![MaskedPower::Dense(Tensor::constant(masked_p_f))],
            // Isolate the P_f term.
            p_b: vec![MaskedPower::Dense(Tensor::constant(Array::zeros(&[5, 5])))],
        };
        let out = block.forward(&ctx, &Tensor::constant(x.clone()), &tr, None);

        // Explicit Eq. 4 route for the last time step t = 2.
        let p_lc = transition::localized_transition(&ctx.p_f().value(), 1, 2).unwrap(); // [5, 10]
                                                                                        // X^lc stacks lag τ=1 then τ=0 blocks (older first per Eq. 5).
        let w_relu = |tau: usize, t: usize| -> Array {
            let xt = Tensor::constant(x.slice_axis(1, t, t + 1).reshape(&[5, 6]).unwrap());
            block.lag_proj[tau].forward(&xt).relu().value()
        };
        let x_lc = Array::concat(&[&w_relu(1, 1), &w_relu(0, 2)], 0).unwrap(); // [10, 6]
        let prod = Tensor::constant(p_lc.matmul(&x_lc)); // [5, 6]
        let explicit = block.conv_weights[0][0].forward(&prod).value();
        let factored = out.hidden.value().slice_axis(1, 2, 3); // t = 2
        for i in 0..5 {
            for j in 0..6 {
                let a = explicit.at(&[i, j]);
                let b = factored.at(&[0, 0, i, j]);
                assert!((a - b).abs() < 1e-3, "mismatch at ({i},{j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn own_history_is_invisible_to_diffusion() {
        // Eq. 4 masks the diagonal of every P^k: a node's diffusion hidden
        // state must never depend on its own input. Use a dense 2-node graph
        // with self-loops so every P^k (k = 1, 2) of both transitions is
        // all-0.5 BEFORE masking — only the context's mask can remove the
        // self-term.
        let mut rng = StdRng::seed_from_u64(9);
        let net = TrafficNetwork::from_adjacency(2, vec![1., 1., 1., 1.], vec![]);
        let ctx = GraphContext::new(&net, Some(2));
        let mut c = cfg();
        c.ks = 2;
        let block = DiffusionBlock::new(c, &mut rng);
        let base = Array::randn(&[1, 4, 2, 6], &mut rng);
        let mut bumped = base.clone();
        // Perturb node 0's inputs at all times.
        for t in 0..4 {
            for j in 0..6 {
                let idx = t * 2 * 6 + j;
                bumped.data_mut()[idx] += 5.0;
            }
        }
        let tr = ctx.static_transitions();
        let h0 = block
            .forward(&ctx, &Tensor::constant(base), &tr, None)
            .hidden
            .value();
        let h1 = block
            .forward(&ctx, &Tensor::constant(bumped), &tr, None)
            .hidden
            .value();
        // Node 0's hidden state is unchanged: its only source, after the
        // diagonal mask, is node 1's (unperturbed) input.
        for t in 0..4 {
            for j in 0..6 {
                assert_eq!(h0.at(&[0, t, 0, j]), h1.at(&[0, t, 0, j]));
            }
        }
        // Node 1's hidden state changes (it aggregates node 0).
        let moved: f32 = (0..6)
            .map(|j| (h0.at(&[0, 3, 1, j]) - h1.at(&[0, 3, 1, j])).abs())
            .sum();
        assert!(moved > 1e-6);
    }

    #[test]
    fn gradients_flow_everywhere() {
        let (ctx, mut rng) = setup(6, 2);
        let mut c = cfg();
        c.use_adaptive = true;
        let block = DiffusionBlock::new(c, &mut rng);
        let x = Tensor::parameter(Array::randn(&[2, 4, 6, 6], &mut rng));
        let apt = Tensor::parameter(transition::row_normalize(&Array::ones(&[6, 6])));
        let tr = ctx.static_transitions();
        let out = block.forward(&ctx, &x, &tr, Some(&apt));
        out.hidden
            .sum_all()
            .add(&out.forecast.sum_all())
            .add(&out.backcast.sum_all())
            .backward();
        assert!(x.grad().is_some());
        assert!(apt.grad().is_some(), "adaptive matrix must be trainable");
        for (i, p) in block.parameters().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} missing grad");
        }
    }
}
