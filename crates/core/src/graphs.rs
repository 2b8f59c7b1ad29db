//! Graph machinery inside the model: the static transition constants —
//! including Eq. 4's masked powers, formed once per context — the
//! self-adaptive transition matrix (Eq. 7), and the dynamic graph learner
//! (Eqs. 13–14).

use crate::embeddings::SharedEmbeddings;
use d2stgnn_graph::{transition, CsrMatrix, SparseNetwork, TrafficNetwork};
use d2stgnn_tensor::nn::{Linear, Mlp, Module};
use d2stgnn_tensor::{Array, Tensor};
use rand::Rng;

/// Minimum fraction of zero entries in *both* static transition matrices at
/// which [`GraphContext::new`] stores their masked powers as CSR. Either
/// representation holds the same values, so this is a speed choice only.
const SPARSE_THRESHOLD: f32 = 0.9;

/// One masked static transition power `mask(P^k)` (Eq. 4), in the
/// representation the context's sparsity dispatch picked.
#[derive(Clone)]
pub enum MaskedPower {
    /// A dense constant `[N, N]` tensor.
    Dense(Tensor),
    /// A CSR matrix, multiplied through the pooled spmm.
    Csr(CsrMatrix),
}

impl MaskedPower {
    /// `mask(P^k) · z` for `z` `[B·T_h, N, d]`. The power is a constant, so
    /// gradients flow only into `z`.
    pub(crate) fn apply(&self, z: &Tensor) -> Tensor {
        match self {
            MaskedPower::Dense(p) => p.matmul(z),
            MaskedPower::Csr(p) => Tensor::spmm(p, z),
        }
    }
}

/// The transition matrices handed to the diffusion block for one forward
/// pass. Static transitions arrive as their masked powers, which are
/// constants of the [`GraphContext`]; dynamic ones carry a batch axis
/// `[B, N, N]` (one graph per window, static *within* the window as the
/// paper assumes) and stay dense, because gradients must flow through them.
pub enum Transitions {
    /// Road-network transitions shared by every sample:
    /// `[mask(P^1), ..., mask(P^{k_s})]` of each.
    Static {
        /// Masked powers of the forward transition `P_f`.
        p_f: Vec<MaskedPower>,
        /// Masked powers of the backward transition `P_b`.
        p_b: Vec<MaskedPower>,
    },
    /// Learned per-window transitions `P^{dy}` (Eq. 14).
    Dynamic {
        /// Forward dynamic transition `[B, N, N]`.
        p_f: Tensor,
        /// Backward dynamic transition `[B, N, N]`.
        p_b: Tensor,
    },
}

/// Dense constants of a paper-scale network, which the dynamic graph
/// learner and the learned matrices' masks need.
struct DenseContext {
    /// `P_f` as a constant tensor `[N, N]`.
    p_f: Tensor,
    /// `P_b` as a constant tensor `[N, N]`.
    p_b: Tensor,
    /// `(1 - I)` diagonal mask `[N, N]`.
    diag_mask: Tensor,
}

/// Precomputed constants derived from the road network.
///
/// A context built from a paper-scale [`TrafficNetwork`] holds the dense
/// transitions (the dynamic graph learner and the adaptive matrix need
/// them). For a model that diffuses over the static graph it also holds the
/// masked powers `mask(P_f^k)`, `mask(P_b^k)`, `k = 1..=k_s`, formed once
/// here and never per forward. City-scale contexts built with
/// [`GraphContext::from_sparse`] hold only CSR powers and never materialize
/// an `[N, N]` tensor.
pub struct GraphContext {
    dense: Option<DenseContext>,
    powers: Option<(Vec<MaskedPower>, Vec<MaskedPower>)>,
    n: usize,
}

impl GraphContext {
    /// Build from a traffic network. `static_ks` is `Some(k_s)` for a model
    /// that diffuses over the static graph: the masked powers are then
    /// formed as CSR when both transitions are at least 90% zeros, and as
    /// dense tensors otherwise. A dynamic-graph model passes `None` and
    /// gets no powers.
    pub fn new(network: &TrafficNetwork, static_ks: Option<usize>) -> Self {
        let adj = network.adjacency();
        let n = network.num_nodes();
        let p_f = transition::forward_transition(&adj);
        let p_b = transition::backward_transition(&adj);
        let mut diag_mask = Array::ones(&[n, n]);
        for v in diag_mask.data_mut().iter_mut().step_by(n + 1) {
            *v = 0.0;
        }
        let powers = static_ks.map(|ks| {
            // The CSR copies hold the *exact same values* as the dense
            // arrays, and both power chains produce the same bits; see
            // `transition::masked_powers_csr`.
            let csr = |p: &Array| {
                crate::error::require(
                    CsrMatrix::from_dense(p, 0.0),
                    "row-normalized transitions are finite",
                )
            };
            let (c_f, c_b) = (csr(&p_f), csr(&p_b));
            if c_f.sparsity() >= SPARSE_THRESHOLD && c_b.sparsity() >= SPARSE_THRESHOLD {
                (csr_powers(&c_f, ks), csr_powers(&c_b, ks))
            } else {
                (dense_powers(&p_f, ks), dense_powers(&p_b, ks))
            }
        });
        Self {
            dense: Some(DenseContext {
                p_f: Tensor::constant(p_f),
                p_b: Tensor::constant(p_b),
                diag_mask: Tensor::constant(diag_mask),
            }),
            powers,
            n,
        }
    }

    /// Build a sparse-only context from a city-scale network: the masked
    /// powers up to `ks` are formed in CSR and no dense `[N, N]` tensor is
    /// ever materialized (at 100k nodes that would be 40 GB). Model features
    /// that need dense matrices (dynamic graph learner, adaptive matrix)
    /// are unavailable with such a context.
    pub fn from_sparse(network: &SparseNetwork, ks: usize) -> Self {
        Self {
            dense: None,
            powers: Some((
                csr_powers(&network.forward_transition(), ks),
                csr_powers(&network.backward_transition(), ks),
            )),
            n: network.num_nodes(),
        }
    }

    /// Dense `P_f` `[N, N]`.
    ///
    /// # Panics
    /// On a sparse-only context (programming error: callers needing dense
    /// tensors must not be wired to city-scale contexts).
    pub fn p_f(&self) -> &Tensor {
        &self.dense().p_f
    }

    /// Dense `P_b` `[N, N]`. Panics on a sparse-only context like
    /// [`GraphContext::p_f`].
    pub fn p_b(&self) -> &Tensor {
        &self.dense().p_b
    }

    /// `(1 - I)` diagonal mask `[N, N]`. Panics on a sparse-only context
    /// like [`GraphContext::p_f`].
    pub fn diag_mask(&self) -> &Tensor {
        &self.dense().diag_mask
    }

    fn dense(&self) -> &DenseContext {
        match &self.dense {
            Some(d) => d,
            None => crate::error::violation(
                "dense transition tensors are unavailable in a sparse-only GraphContext",
            ),
        }
    }

    /// The static transitions as the diffusion block consumes them: the
    /// precomputed masked powers of `P_f` and `P_b` (O(k_s) handle clones).
    ///
    /// # Panics
    /// On a context built without static powers (`static_ks: None`): a
    /// dynamic-graph model never diffuses over the static graph.
    pub fn static_transitions(&self) -> Transitions {
        match &self.powers {
            Some((p_f, p_b)) => Transitions::Static {
                p_f: p_f.clone(),
                p_b: p_b.clone(),
            },
            None => crate::error::violation(
                "this GraphContext was built without static transition powers",
            ),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }
}

fn dense_powers(p: &Array, ks: usize) -> Vec<MaskedPower> {
    transition::masked_powers(p, ks)
        .into_iter()
        .map(|m| MaskedPower::Dense(Tensor::constant(m)))
        .collect()
}

fn csr_powers(p: &CsrMatrix, ks: usize) -> Vec<MaskedPower> {
    transition::masked_powers_csr(p, ks)
        .into_iter()
        .map(MaskedPower::Csr)
        .collect()
}

/// Self-adaptive transition matrix (Eq. 7):
/// `P_apt = Softmax(σ(E^d (E^u)ᵀ))`, row-normalized over the last axis.
/// Recomputed every forward pass so gradients reach the node embeddings.
pub fn adaptive_transition(emb: &SharedEmbeddings) -> Tensor {
    emb.e_d().matmul(&emb.e_u().transpose()).relu().softmax(1)
}

/// Dynamic graph learner (Section 5.3).
///
/// Builds per-window dynamic feature matrices `DF^u_t`/`DF^d_t` (Eq. 13) from
/// the window's latent signal, the time embeddings of its last step, and the
/// static node embeddings, then masks the static transitions with a
/// self-attention score matrix (Eq. 14).
pub struct DynamicGraphLearner {
    feature_fc: Mlp,
    wq: Linear,
    wk: Linear,
    emb_dim: usize,
    hidden: usize,
}

impl DynamicGraphLearner {
    /// `th * d_in` is the flattened per-node window width fed to `FC(·)`.
    pub fn new<R: Rng>(th: usize, d_in: usize, emb_dim: usize, hidden: usize, rng: &mut R) -> Self {
        Self {
            feature_fc: Mlp::new(th * d_in, hidden, emb_dim, rng),
            wq: Linear::new(4 * emb_dim, hidden, false, rng),
            wk: Linear::new(4 * emb_dim, hidden, false, rng),
            emb_dim,
            hidden,
        }
    }

    /// Compute `(P^{dy}_f, P^{dy}_b)`, each `[B, N, N]`.
    ///
    /// * `x0` — the window's latent signal `[B, T_h, N, d]`.
    /// * `tod_last`/`dow_last` — the time slots of each window's last input
    ///   step (the paper treats `P^{dy}` as constant within the window).
    pub fn forward(
        &self,
        ctx: &GraphContext,
        emb: &SharedEmbeddings,
        x0: &Tensor,
        tod_last: &[usize],
        dow_last: &[usize],
    ) -> (Tensor, Tensor) {
        let shape = x0.shape();
        let (b, th, n, d) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(n, ctx.num_nodes(), "node count mismatch");
        assert_eq!(tod_last.len(), b, "need one tod per window");
        assert_eq!(dow_last.len(), b, "need one dow per window");
        let e = self.emb_dim;

        // FC(‖_c X_c): per-node flattened history -> [B, N, emb].
        let hist = x0.permute(&[0, 2, 1, 3]).reshape(&[b, n, th * d]);
        let feat = self.feature_fc.forward(&hist);

        let t_d = emb
            .tod_rows(tod_last)
            .reshape(&[b, 1, e])
            .broadcast_to(&[b, n, e]);
        let t_w = emb
            .dow_rows(dow_last)
            .reshape(&[b, 1, e])
            .broadcast_to(&[b, n, e]);
        let e_u = emb.e_u().reshape(&[1, n, e]).broadcast_to(&[b, n, e]);
        let e_d = emb.e_d().reshape(&[1, n, e]).broadcast_to(&[b, n, e]);

        let df_u = Tensor::concat(&[&feat, &t_d, &t_w, &e_u], 2); // [B, N, 4e]
        let df_d = Tensor::concat(&[&feat, &t_d, &t_w, &e_d], 2);

        let scale = 1.0 / (self.hidden as f32).sqrt();
        let mask_from = |df: &Tensor| -> Tensor {
            let q = self.wq.forward(df); // [B, N, h]
            let k = self.wk.forward(df);
            q.matmul(&k.transpose()).scale(scale).softmax(2)
        };
        // `[N, N] ⊙ [B, N, N]`: `mul` broadcasts P over the windows.
        let p_f_dy = ctx.p_f().mul(&mask_from(&df_u));
        let p_b_dy = ctx.p_b().mul(&mask_from(&df_d));
        (p_f_dy, p_b_dy)
    }
}

impl Module for DynamicGraphLearner {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.feature_fc.parameters();
        p.extend(self.wq.parameters());
        p.extend(self.wk.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (GraphContext, SharedEmbeddings, StdRng) {
        let mut rng = StdRng::seed_from_u64(7);
        let net = TrafficNetwork::random_geometric(8, 3, 0.05, &mut rng);
        let ctx = GraphContext::new(&net, None);
        let emb = SharedEmbeddings::new(8, 288, 6, &mut rng);
        (ctx, emb, rng)
    }

    /// Dense values of a context's static masked powers (`P_f`'s, then
    /// `P_b`'s), each flagged with whether it is stored as CSR.
    fn powers_of(ctx: &GraphContext) -> Vec<(Array, bool)> {
        let Transitions::Static { p_f, p_b } = ctx.static_transitions() else {
            panic!("a context's static transitions are static");
        };
        p_f.iter()
            .chain(&p_b)
            .map(|p| match p {
                MaskedPower::Dense(t) => (t.value(), false),
                MaskedPower::Csr(c) => (c.to_dense(), true),
            })
            .collect()
    }

    #[test]
    fn context_matrices_are_stochastic_and_masked() {
        let (ctx, _, _) = setup();
        assert!(d2stgnn_graph::transition::is_row_stochastic(
            &ctx.p_f().value(),
            1e-5
        ));
        assert!(d2stgnn_graph::transition::is_row_stochastic(
            &ctx.p_b().value(),
            1e-5
        ));
        let m = ctx.diag_mask().value();
        for i in 0..8 {
            assert_eq!(m.at(&[i, i]), 0.0);
            if i > 0 {
                assert_eq!(m.at(&[i, i - 1]), 1.0);
            }
        }
    }

    #[test]
    fn adaptive_transition_is_row_stochastic_and_differentiable() {
        let (_, emb, _) = setup();
        let p = adaptive_transition(&emb);
        assert_eq!(p.shape(), vec![8, 8]);
        assert!(d2stgnn_graph::transition::is_row_stochastic(
            &p.value(),
            1e-4
        ));
        p.sum_all().backward();
        assert!(emb.e_u().grad().is_some());
        assert!(emb.e_d().grad().is_some());
    }

    #[test]
    fn dynamic_graph_shapes_and_support() {
        let (ctx, emb, mut rng) = setup();
        let dg = DynamicGraphLearner::new(4, 5, 6, 16, &mut rng);
        let x0 = Tensor::constant(Array::randn(&[2, 4, 8, 5], &mut rng));
        let (pf, pb) = dg.forward(&ctx, &emb, &x0, &[10, 20], &[0, 3]);
        assert_eq!(pf.shape(), vec![2, 8, 8]);
        assert_eq!(pb.shape(), vec![2, 8, 8]);
        // The dynamic graph only reweights existing edges: zero static weight
        // stays zero.
        let stat = ctx.p_f().value();
        let dyn0 = pf.value();
        for i in 0..8 {
            for j in 0..8 {
                if stat.at(&[i, j]) == 0.0 {
                    assert_eq!(dyn0.at(&[0, i, j]), 0.0, "edge ({i},{j}) appeared");
                }
            }
        }
    }

    #[test]
    fn dynamic_graph_depends_on_signal() {
        let (ctx, emb, mut rng) = setup();
        let dg = DynamicGraphLearner::new(4, 5, 6, 16, &mut rng);
        let x0 = Array::randn(&[1, 4, 8, 5], &mut rng);
        let mut x1 = x0.clone();
        for v in x1.data_mut().iter_mut().take(40) {
            *v += 3.0;
        }
        let (pf0, _) = dg.forward(&ctx, &emb, &Tensor::constant(x0), &[0], &[0]);
        let (pf1, _) = dg.forward(&ctx, &emb, &Tensor::constant(x1), &[0], &[0]);
        assert_ne!(pf0.value().data(), pf1.value().data());
    }

    #[test]
    fn context_powers_match_masked_powers_for_both_dispatches() {
        let mut rng = StdRng::seed_from_u64(7);
        let bits = |a: &Array| a.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // At most 3 out-edges per node: 8 nodes leave the transitions well
        // under 90% zeros (dense powers), 40 nodes put them above (CSR).
        for (n, dense_ctx_is_csr) in [(8, false), (40, true)] {
            let net = TrafficNetwork::random_geometric(n, 3, 0.05, &mut rng);
            let adj = net.adjacency();
            let mut expect = transition::masked_powers(&transition::forward_transition(&adj), 3);
            expect.extend(transition::masked_powers(
                &transition::backward_transition(&adj),
                3,
            ));
            let contexts = [
                (GraphContext::new(&net, Some(3)), dense_ctx_is_csr),
                (
                    GraphContext::from_sparse(&SparseNetwork::from_network(&net), 3),
                    true,
                ),
            ];
            for (ctx, csr) in contexts {
                let got = powers_of(&ctx);
                assert_eq!(got.len(), expect.len());
                for ((g, is_csr), e) in got.iter().zip(&expect) {
                    assert_eq!(*is_csr, csr, "n = {n}: wrong representation");
                    assert_eq!(bits(g), bits(e), "n = {n}: powers differ");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "without static transition powers")]
    fn dynamic_graph_context_forms_no_static_powers() {
        let (ctx, _, _) = setup();
        let _ = ctx.static_transitions();
    }

    #[test]
    fn sparse_only_context_has_transitions_but_no_dense() {
        let mut rng = StdRng::seed_from_u64(8);
        let city = SparseNetwork::random_city(300, 4, 0.05, &mut rng);
        let ctx = GraphContext::from_sparse(&city, 2);
        assert_eq!(ctx.num_nodes(), 300);
        let powers = powers_of(&ctx);
        assert_eq!(powers.len(), 4);
        assert!(powers
            .iter()
            .all(|(p, csr)| *csr && p.shape() == [300, 300]));
        // No self-loops in a generated city: mask(P_f) is P_f itself.
        assert!(d2stgnn_graph::transition::is_row_stochastic(
            &powers[0].0,
            1e-5
        ));
    }

    #[test]
    #[should_panic(expected = "sparse-only GraphContext")]
    fn sparse_only_context_rejects_dense_accessors() {
        let mut rng = StdRng::seed_from_u64(9);
        let city = SparseNetwork::random_city(20, 3, 0.05, &mut rng);
        let ctx = GraphContext::from_sparse(&city, 2);
        let _ = ctx.p_f();
    }

    #[test]
    fn dynamic_graph_gradients_flow() {
        let (ctx, emb, mut rng) = setup();
        let dg = DynamicGraphLearner::new(4, 5, 6, 16, &mut rng);
        let x0 = Tensor::parameter(Array::randn(&[2, 4, 8, 5], &mut rng));
        let (pf, pb) = dg.forward(&ctx, &emb, &x0, &[0, 1], &[0, 1]);
        pf.add(&pb).sum_all().backward();
        assert!(x0.grad().is_some());
        for p in dg.parameters() {
            assert!(p.grad().is_some());
        }
    }
}
