//! The full D²STGNN model (Figure 3, Algorithm 1): input projection, shared
//! embeddings, optional dynamic graph learner, `L` stacked decoupled
//! spatial-temporal layers, and the output regression over the summed
//! forecast hidden states (Eq. 15).

use crate::config::D2stgnnConfig;
use crate::embeddings::SharedEmbeddings;
use crate::graphs::{adaptive_transition, DynamicGraphLearner, GraphContext, Transitions};
use crate::layer::DecoupledLayer;
use crate::traits::TrafficModel;
use d2stgnn_data::Batch;
use d2stgnn_graph::TrafficNetwork;
use d2stgnn_tensor::nn::{Linear, Mlp, Module};
use d2stgnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// Decoupled Dynamic Spatial-Temporal Graph Neural Network.
pub struct D2stgnn {
    cfg: D2stgnnConfig,
    ctx: GraphContext,
    embeddings: SharedEmbeddings,
    input_proj: Linear,
    dynamic_graph: Option<DynamicGraphLearner>,
    layers: Vec<DecoupledLayer>,
    regression: Mlp,
}

impl D2stgnn {
    /// Build the model for a road network.
    ///
    /// # Panics
    /// If the config fails validation or disagrees with the network size.
    pub fn new<R: Rng>(cfg: D2stgnnConfig, network: &TrafficNetwork, rng: &mut R) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| crate::error::violation(e));
        assert_eq!(
            cfg.num_nodes,
            network.num_nodes(),
            "config is for {} nodes but the network has {}",
            cfg.num_nodes,
            network.num_nodes()
        );
        let static_ks = (!cfg.use_dynamic_graph).then_some(cfg.ks);
        Self::with_context(cfg, GraphContext::new(network, static_ks), rng)
    }

    /// Build the model for a city-scale sparse network. The static
    /// transitions and their masked powers stay in CSR form end to end — no
    /// dense `[N, N]` tensor is ever materialized, so this scales to
    /// 100k-node graphs.
    ///
    /// # Panics
    /// If the config fails validation, disagrees with the network size, or
    /// enables a feature that inherently needs dense `[N, N]` matrices
    /// (`use_dynamic_graph`, `use_adaptive` — both build per-entry attention
    /// products that are O(N²) by construction).
    pub fn new_sparse<R: Rng>(
        cfg: D2stgnnConfig,
        network: &d2stgnn_graph::SparseNetwork,
        rng: &mut R,
    ) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| crate::error::violation(e));
        assert_eq!(
            cfg.num_nodes,
            network.num_nodes(),
            "config is for {} nodes but the network has {}",
            cfg.num_nodes,
            network.num_nodes()
        );
        if cfg.use_dynamic_graph || cfg.use_adaptive {
            crate::error::violation(
                "dynamic graph and adaptive matrices are O(N^2) dense by construction; \
                 disable use_dynamic_graph and use_adaptive for sparse city-scale models",
            );
        }
        let ctx = GraphContext::from_sparse(network, cfg.ks);
        Self::with_context(cfg, ctx, rng)
    }

    /// Shared constructor core. Consumes the rng in the same order for
    /// every context kind (building a context consumes none), so dense- and
    /// sparse-context models built from the same seed get identical initial
    /// weights (the equivalence tests rely on this).
    fn with_context<R: Rng>(cfg: D2stgnnConfig, ctx: GraphContext, rng: &mut R) -> Self {
        let embeddings = SharedEmbeddings::new(cfg.num_nodes, cfg.steps_per_day, cfg.emb_dim, rng);
        let input_proj = Linear::new(cfg.in_channels, cfg.hidden, true, rng);
        let dynamic_graph = cfg
            .use_dynamic_graph
            .then(|| DynamicGraphLearner::new(cfg.th, cfg.hidden, cfg.emb_dim, cfg.hidden, rng));
        let layers = (0..cfg.layers)
            .map(|_| DecoupledLayer::new(&cfg, rng))
            .collect();
        let regression = Mlp::new(cfg.hidden, cfg.hidden, cfg.out_channels, rng);
        Self {
            cfg,
            ctx,
            embeddings,
            input_proj,
            dynamic_graph,
            layers,
            regression,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &D2stgnnConfig {
        &self.cfg
    }

    /// Shared embeddings (exposed for analysis / visualization).
    pub fn embeddings(&self) -> &SharedEmbeddings {
        &self.embeddings
    }

    /// Decompose a batch into per-layer diffusion/inherent forecast energies;
    /// used by the signal-decoupling analyses (`decouple_signals` example).
    /// Returns `(dif_forecast, inh_forecast)` summed over layers,
    /// each `[B, T_f, N, d]`.
    pub fn decompose(&self, batch: &Batch, rng: &mut StdRng) -> (Tensor, Tensor) {
        let (dif, inh, _) = self.forward_parts(batch, false, rng);
        (dif, inh)
    }

    /// Shared forward core returning the per-branch sums and the final input
    /// projection, so both `forward` and `decompose` stay in sync.
    fn forward_parts(
        &self,
        batch: &Batch,
        training: bool,
        rng: &mut StdRng,
    ) -> (Tensor, Tensor, Tensor) {
        let shape = batch.x.shape();
        assert_eq!(shape.len(), 4, "batch.x must be [B, Th, N, C]");
        let (b, th, n, c) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(th, self.cfg.th, "window length mismatch");
        assert_eq!(n, self.cfg.num_nodes, "node count mismatch");
        assert_eq!(c, self.cfg.in_channels, "channel mismatch");

        // Project raw signals into the latent space.
        let x0 = self.input_proj.forward(&Tensor::constant(batch.x.clone()));

        // Algorithm 1 line 1: self-adaptive matrix (Eq. 7).
        let adaptive = self
            .cfg
            .use_adaptive
            .then(|| adaptive_transition(&self.embeddings));

        // Algorithm 1 line 2: dynamic transitions (Eq. 14), one per window.
        let transitions = match &self.dynamic_graph {
            Some(dg) => {
                let tod_last: Vec<usize> = (0..b).map(|bi| batch.tod[(bi + 1) * th - 1]).collect();
                let dow_last: Vec<usize> = (0..b).map(|bi| batch.dow[(bi + 1) * th - 1]).collect();
                let (p_f, p_b) = dg.forward(&self.ctx, &self.embeddings, &x0, &tod_last, &dow_last);
                Transitions::Dynamic { p_f, p_b }
            }
            // The static graph's masked powers are context constants.
            None => self.ctx.static_transitions(),
        };

        // Algorithm 1 lines 5-12: stacked decoupled layers.
        let mut x_l = x0;
        let mut dif_sum: Option<Tensor> = None;
        let mut inh_sum: Option<Tensor> = None;
        for layer in &self.layers {
            let out = layer.forward(
                &self.ctx,
                &self.embeddings,
                &x_l,
                &transitions,
                adaptive.as_ref(),
                &batch.tod,
                &batch.dow,
                training,
                rng,
            );
            dif_sum = Some(match dif_sum {
                Some(acc) => acc.add(&out.forecast_dif),
                None => out.forecast_dif,
            });
            inh_sum = Some(match inh_sum {
                Some(acc) => acc.add(&out.forecast_inh),
                None => out.forecast_inh,
            });
            x_l = out.residual;
        }
        let (Some(dif), Some(inh)) = (dif_sum, inh_sum) else {
            crate::error::violation("at least one layer is guaranteed by config validation")
        };
        (dif, inh, x_l)
    }
}

impl TrafficModel for D2stgnn {
    fn forward(&self, batch: &Batch, training: bool, rng: &mut StdRng) -> Tensor {
        let (dif, inh, _) = self.forward_parts(batch, training, rng);
        // Eq. 15: H = Σ_l (H_f^dif,l + H_f^inh,l); then a two-layer FC
        // regression maps each future hidden state to the output channels.
        let h = dif.add(&inh);
        self.regression.forward(&h)
    }

    fn name(&self) -> String {
        match self.cfg.variant_tag().as_str() {
            "full" => "D2STGNN".to_string(),
            "w/o dg" => "D2STGNN+".to_string(), // the static-graph D²STGNN†
            tag => format!("D2STGNN ({tag})"),
        }
    }

    fn horizon(&self) -> usize {
        self.cfg.tf
    }

    fn steps_per_day(&self) -> Option<usize> {
        Some(self.cfg.steps_per_day)
    }
}

impl Module for D2stgnn {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.embeddings.parameters();
        p.extend(self.input_proj.parameters());
        if let Some(dg) = &self.dynamic_graph {
            p.extend(dg.parameters());
        }
        for layer in &self.layers {
            p.extend(layer.parameters());
        }
        p.extend(self.regression.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::MaskedPower;
    use d2stgnn_data::{simulate, SimulatorConfig, Split, WindowedDataset};
    use rand::SeedableRng;

    fn tiny_setup(cfg_mut: impl FnOnce(&mut D2stgnnConfig)) -> (D2stgnn, WindowedDataset, StdRng) {
        let mut sim = SimulatorConfig::tiny();
        sim.num_nodes = 8;
        sim.knn = 3;
        let data = simulate(&sim);
        let windowed = WindowedDataset::new(data, 12, 12, (0.7, 0.1, 0.2));
        let mut cfg = D2stgnnConfig::small(8);
        cfg_mut(&mut cfg);
        let mut rng = StdRng::seed_from_u64(0);
        let model = D2stgnn::new(cfg, &windowed.data().network.clone(), &mut rng);
        (model, windowed, rng)
    }

    #[test]
    fn forward_shapes() {
        let (model, windowed, mut rng) = tiny_setup(|_| {});
        let batch = windowed.batch(Split::Train, &[0, 1, 2]);
        let pred = model.forward(&batch, false, &mut rng);
        assert_eq!(pred.shape(), vec![3, 12, 8, 1]);
        assert!(!pred.value().has_non_finite());
        assert_eq!(model.horizon(), 12);
    }

    #[test]
    fn every_table5_variant_forward_passes() {
        type Variant = (&'static str, Box<dyn Fn(&mut D2stgnnConfig)>);
        let variants: Vec<Variant> = vec![
            (
                "switch",
                Box::new(|c: &mut D2stgnnConfig| {
                    c.order = crate::config::BlockOrder::InherentFirst;
                }),
            ),
            ("w/o gate", Box::new(|c| c.use_gate = false)),
            ("w/o res", Box::new(|c| c.use_residual = false)),
            (
                "w/o decouple",
                Box::new(|c| {
                    c.use_gate = false;
                    c.use_residual = false;
                }),
            ),
            ("w/o dg", Box::new(|c| c.use_dynamic_graph = false)),
            ("w/o apt", Box::new(|c| c.use_adaptive = false)),
            ("w/o gru", Box::new(|c| c.use_gru = false)),
            ("w/o msa", Box::new(|c| c.use_msa = false)),
            ("w/o ar", Box::new(|c| c.use_autoregressive = false)),
        ];
        for (tag, f) in variants {
            let (model, windowed, mut rng) = tiny_setup(f);
            let batch = windowed.batch(Split::Train, &[0]);
            let pred = model.forward(&batch, true, &mut rng);
            assert_eq!(pred.shape(), vec![1, 12, 8, 1], "variant {tag}");
            assert!(!pred.value().has_non_finite(), "variant {tag} produced NaN");
        }
    }

    #[test]
    fn dynamic_graph_adds_parameters() {
        let (dynamic, _, _) = tiny_setup(|_| {});
        let (static_g, _, _) = tiny_setup(|c| c.use_dynamic_graph = false);
        assert!(dynamic.num_parameters() > static_g.num_parameters());
        assert_eq!(static_g.name(), "D2STGNN+");
        assert_eq!(dynamic.name(), "D2STGNN");
    }

    #[test]
    fn one_training_step_reduces_loss() {
        let (model, windowed, rng) = tiny_setup(|c| c.layers = 1);
        let batch = windowed.batch(Split::Train, &[0, 1]);
        let scaler = *windowed.scaler();
        let target = Tensor::constant(batch.y.clone());
        let loss_of = |m: &D2stgnn, rng: &mut StdRng| {
            let pred_norm = m.forward(&batch, true, rng);
            let pred = pred_norm.scale(scaler.std()).add_scalar(scaler.mean());
            d2stgnn_tensor::losses::masked_mae_loss(&pred, &target, 0.0)
        };
        // Evaluate both losses from the same rng state (identical dropout
        // masks) and keep the step small: Adam's first update is roughly
        // lr * sign(grad) per element, which overshoots at larger rates.
        let l0 = loss_of(&model, &mut rng.clone());
        l0.backward();
        let mut opt = d2stgnn_tensor::optim::Adam::new(model.parameters(), 1e-3);
        use d2stgnn_tensor::optim::Optimizer;
        opt.step();
        let l1 = loss_of(&model, &mut rng.clone());
        assert!(
            l1.item() < l0.item(),
            "loss did not decrease: {} -> {}",
            l0.item(),
            l1.item()
        );
    }

    #[test]
    fn gradients_reach_every_live_parameter() {
        let (model, windowed, mut rng) = tiny_setup(|_| {});
        let batch = windowed.batch(Split::Train, &[0]);
        let pred = model.forward(&batch, true, &mut rng);
        pred.sum_all().backward();
        let missing: Vec<usize> = model
            .parameters()
            .iter()
            .enumerate()
            .filter(|(_, p)| p.grad().is_none())
            .map(|(i, _)| i)
            .collect();
        // The ONLY dead parameters are the final layer's inherent backcast
        // MLP (4 tensors): its output, the residual X^{L}, is never consumed
        // (Algorithm 1 stops at the last layer). Everything else must train.
        let total = model.parameters().len();
        let expected: Vec<usize> = (total - 8..total - 4).collect();
        assert_eq!(missing, expected, "unexpected dead parameters");
    }

    #[test]
    fn decompose_returns_branch_forecasts() {
        let (model, windowed, mut rng) = tiny_setup(|_| {});
        let batch = windowed.batch(Split::Train, &[0, 1]);
        let (dif, inh) = model.decompose(&batch, &mut rng);
        assert_eq!(dif.shape(), vec![2, 12, 8, 16]);
        assert_eq!(inh.shape(), vec![2, 12, 8, 16]);
        assert_ne!(dif.value().data(), inh.value().data());
    }

    #[test]
    fn sparse_context_forecasts_match_dense_bitwise() {
        // Same seed, same data, same weights — one model on the dense
        // masked powers, one on CSR powers of the same network. Forecasts
        // must be bit-identical: the sparse kernels only skip zero terms.
        let mut sim = SimulatorConfig::tiny();
        sim.num_nodes = 8;
        sim.knn = 3;
        let data = simulate(&sim);
        let windowed = WindowedDataset::new(data, 12, 12, (0.7, 0.1, 0.2));
        let net = windowed.data().network.clone();
        let mut cfg = D2stgnnConfig::small(8);
        cfg.use_dynamic_graph = false;
        cfg.use_adaptive = false;

        let mut rng_a = StdRng::seed_from_u64(0);
        let dense = D2stgnn::new(cfg.clone(), &net, &mut rng_a);
        let mut rng_b = StdRng::seed_from_u64(0);
        let city = d2stgnn_graph::SparseNetwork::from_network(&net);
        let sparse = D2stgnn::new_sparse(cfg, &city, &mut rng_b);
        let is_csr = |m: &D2stgnn| match m.ctx.static_transitions() {
            Transitions::Static { p_f, .. } => matches!(p_f[0], MaskedPower::Csr(_)),
            Transitions::Dynamic { .. } => unreachable!("static-graph model"),
        };
        assert!(!is_csr(&dense), "an 8-node network must stay dense");
        assert!(is_csr(&sparse));

        let batch = windowed.batch(Split::Train, &[0, 1]);
        let pa = dense.forward(&batch, false, &mut rng_a).value();
        let pb = sparse.forward(&batch, false, &mut rng_b).value();
        for (a, b) in pa.data().iter().zip(pb.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn sparse_network_model_runs_end_to_end() {
        let mut sim = SimulatorConfig::tiny();
        sim.num_nodes = 8;
        sim.knn = 3;
        let data = simulate(&sim);
        let windowed = WindowedDataset::new(data, 12, 12, (0.7, 0.1, 0.2));
        let city = d2stgnn_graph::SparseNetwork::from_network(&windowed.data().network);
        let mut cfg = D2stgnnConfig::small(8);
        cfg.use_dynamic_graph = false;
        cfg.use_adaptive = false;
        let mut rng = StdRng::seed_from_u64(0);
        let model = D2stgnn::new_sparse(cfg, &city, &mut rng);
        let batch = windowed.batch(Split::Train, &[0, 1, 2]);
        let pred = model.forward(&batch, false, &mut rng);
        assert_eq!(pred.shape(), vec![3, 12, 8, 1]);
        assert!(!pred.value().has_non_finite());
        // Training works too: gradients flow through the spmm ops.
        let pred_t = model.forward(&batch, true, &mut rng);
        pred_t.sum_all().backward();
        let with_grad = model
            .parameters()
            .iter()
            .filter(|p| p.grad().is_some())
            .count();
        assert!(with_grad > 0, "no parameter received a gradient");
    }

    #[test]
    #[should_panic(expected = "use_dynamic_graph")]
    fn new_sparse_rejects_dense_only_features() {
        let mut rng = StdRng::seed_from_u64(0);
        let city = d2stgnn_graph::SparseNetwork::random_city(8, 3, 0.05, &mut rng);
        // `small` enables the dynamic graph, which is O(N²) by construction.
        D2stgnn::new_sparse(D2stgnnConfig::small(8), &city, &mut rng);
    }

    #[test]
    #[should_panic(expected = "network has")]
    fn node_count_mismatch_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = d2stgnn_graph::TrafficNetwork::random_geometric(5, 2, 0.02, &mut rng);
        D2stgnn::new(D2stgnnConfig::small(8), &net, &mut rng);
    }
}
