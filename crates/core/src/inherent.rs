//! Inherent block (Section 5.2): GRU for short-term dependencies, sinusoidal
//! positional encoding, and multi-head self-attention for long-term
//! dependencies (Eqs. 10–12), with forecast and backcast branches.

use crate::forecast::ForecastBranch;
use d2stgnn_tensor::nn::{positional_encoding, Gru, Linear, Mlp, Module, MultiHeadSelfAttention};
use d2stgnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// Configuration slice the inherent block needs.
#[derive(Clone, Copy, Debug)]
pub struct InherentBlockConfig {
    /// Hidden width `d`.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// Forecast horizon `T_f`.
    pub tf: usize,
    /// Temporal context of the sliding forecast branch.
    pub kt: usize,
    /// Sliding AR (true) vs direct multi-step (false).
    pub autoregressive: bool,
    /// Include the GRU (`w/o gru` disables).
    pub use_gru: bool,
    /// Include the self-attention layer (`w/o msa` disables).
    pub use_msa: bool,
    /// Dropout on the attention output.
    pub dropout: f32,
}

/// Output of one inherent block.
pub struct InherentOutput {
    /// Hidden state sequence `H^inh` `[B, T_h, N, d]`.
    pub hidden: Tensor,
    /// Forecast hidden states `[B, T_f, N, d]`.
    pub forecast: Tensor,
    /// Backcast reconstruction `[B, T_h, N, d]` (consumed by Eq. 2).
    pub backcast: Tensor,
}

/// The per-node temporal model of the inherent signal.
pub struct InherentBlock {
    cfg: InherentBlockConfig,
    gru: Option<Gru>,
    /// Input projection used when the GRU is ablated away, so the block
    /// still mixes channels before attention.
    input_proj: Option<Linear>,
    msa: Option<MultiHeadSelfAttention>,
    forecast: ForecastBranch,
    backcast: Mlp,
}

impl InherentBlock {
    /// Build the block.
    pub fn new<R: Rng>(cfg: InherentBlockConfig, rng: &mut R) -> Self {
        let d = cfg.hidden;
        let gru = cfg.use_gru.then(|| Gru::new(d, d, rng));
        let input_proj = (!cfg.use_gru).then(|| Linear::new(d, d, true, rng));
        let msa = cfg
            .use_msa
            .then(|| MultiHeadSelfAttention::new(d, cfg.heads, rng));
        let forecast = if cfg.autoregressive {
            ForecastBranch::sliding(cfg.kt, d, rng)
        } else {
            ForecastBranch::direct(cfg.tf, d, rng)
        };
        Self {
            cfg,
            gru,
            input_proj,
            msa,
            forecast,
            backcast: Mlp::new(d, d, d, rng),
        }
    }

    /// Run on the inherent signal `x_inh` `[B, T_h, N, d]`. The RNG drives
    /// dropout and is only consulted when `training` is true.
    pub fn forward(&self, x_inh: &Tensor, training: bool, rng: &mut StdRng) -> InherentOutput {
        let shape = x_inh.shape();
        let (b, th, n, d) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(d, self.cfg.hidden, "hidden width mismatch");

        // Per-node sequences: [B, Th, N, d] -> [B*N, Th, d].
        let seq = x_inh.permute(&[0, 2, 1, 3]).reshape(&[b * n, th, d]);

        // Eq. 10: short-term model.
        let mut h = match (&self.gru, &self.input_proj) {
            (Some(gru), _) => gru.forward(&seq),
            (None, Some(proj)) => proj.forward(&seq).relu(),
            (None, None) => crate::error::violation("one of gru/input_proj always exists"),
        };

        // Eq. 12: positional encoding, then Eq. 11: long-term model with a
        // residual connection around the attention.
        if let Some(msa) = &self.msa {
            let pe_arr = crate::error::require(
                positional_encoding(th, d).reshape(&[1, th, d]),
                "positional encoding reshape",
            );
            let pe = Tensor::constant(pe_arr);
            // `[B·N, T_h, d] + [1, T_h, d]`: `add` broadcasts the encoding.
            let with_pe = h.add(&pe);
            let attended = msa
                .forward(&with_pe)
                .dropout(self.cfg.dropout, training, rng);
            h = with_pe.add(&attended);
        }

        let forecast = self
            .forecast
            .forward(&h, self.cfg.tf)
            .reshape(&[b, n, self.cfg.tf, d])
            .permute(&[0, 2, 1, 3]);
        let hidden = h.reshape(&[b, n, th, d]).permute(&[0, 2, 1, 3]);
        let backcast = self.backcast.forward(&hidden);

        InherentOutput {
            hidden,
            forecast,
            backcast,
        }
    }
}

impl Module for InherentBlock {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = Vec::new();
        if let Some(g) = &self.gru {
            p.extend(g.parameters());
        }
        if let Some(l) = &self.input_proj {
            p.extend(l.parameters());
        }
        if let Some(m) = &self.msa {
            p.extend(m.parameters());
        }
        p.extend(self.forecast.parameters());
        p.extend(self.backcast.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2stgnn_tensor::Array;
    use rand::SeedableRng;

    fn cfg() -> InherentBlockConfig {
        InherentBlockConfig {
            hidden: 8,
            heads: 2,
            tf: 4,
            kt: 2,
            autoregressive: true,
            use_gru: true,
            use_msa: true,
            dropout: 0.0,
        }
    }

    #[test]
    fn output_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let block = InherentBlock::new(cfg(), &mut rng);
        let x = Tensor::constant(Array::randn(&[2, 6, 5, 8], &mut rng));
        let out = block.forward(&x, false, &mut rng);
        assert_eq!(out.hidden.shape(), vec![2, 6, 5, 8]);
        assert_eq!(out.forecast.shape(), vec![2, 4, 5, 8]);
        assert_eq!(out.backcast.shape(), vec![2, 6, 5, 8]);
    }

    #[test]
    fn ablations_change_parameter_sets() {
        let mut rng = StdRng::seed_from_u64(0);
        let full = InherentBlock::new(cfg(), &mut rng);
        let mut no_gru = cfg();
        no_gru.use_gru = false;
        let no_gru = InherentBlock::new(no_gru, &mut rng);
        let mut no_msa = cfg();
        no_msa.use_msa = false;
        let no_msa = InherentBlock::new(no_msa, &mut rng);
        assert!(no_gru.num_parameters() < full.num_parameters());
        assert!(no_msa.num_parameters() < full.num_parameters());
        // Both ablated blocks still run.
        let x = Tensor::constant(Array::randn(&[1, 6, 3, 8], &mut rng));
        assert_eq!(
            no_gru.forward(&x, false, &mut rng).hidden.shape(),
            vec![1, 6, 3, 8]
        );
        assert_eq!(
            no_msa.forward(&x, false, &mut rng).hidden.shape(),
            vec![1, 6, 3, 8]
        );
    }

    #[test]
    fn nodes_are_independent() {
        // The inherent model is per-node: perturbing node 0's input must not
        // change node 1's hidden state.
        let mut rng = StdRng::seed_from_u64(1);
        let block = InherentBlock::new(cfg(), &mut rng);
        let base = Array::randn(&[1, 5, 2, 8], &mut rng);
        let mut bumped = base.clone();
        for t in 0..5 {
            for j in 0..8 {
                // node 0 features
                let idx = (t * 2) * 8 + j;
                bumped.data_mut()[idx] += 4.0;
            }
        }
        let h0 = block
            .forward(&Tensor::constant(base), false, &mut rng)
            .hidden
            .value();
        let h1 = block
            .forward(&Tensor::constant(bumped), false, &mut rng)
            .hidden
            .value();
        for t in 0..5 {
            for j in 0..8 {
                assert_eq!(h0.at(&[0, t, 1, j]), h1.at(&[0, t, 1, j]));
            }
        }
    }

    #[test]
    fn long_range_influence_via_msa() {
        // With MSA, input at t=0 influences the hidden state at the last step
        // beyond what GRU decay alone would carry; verify influence exists.
        let mut rng = StdRng::seed_from_u64(2);
        let block = InherentBlock::new(cfg(), &mut rng);
        let base = Array::randn(&[1, 8, 1, 8], &mut rng);
        let mut bumped = base.clone();
        for j in 0..8 {
            bumped.data_mut()[j] += 3.0; // t=0
        }
        let h0 = block
            .forward(&Tensor::constant(base), false, &mut rng)
            .hidden
            .value();
        let h1 = block
            .forward(&Tensor::constant(bumped), false, &mut rng)
            .hidden
            .value();
        let diff: f32 = (0..8)
            .map(|j| (h0.at(&[0, 7, 0, j]) - h1.at(&[0, 7, 0, j])).abs())
            .sum();
        assert!(diff > 1e-5, "no long-range influence: {diff}");
    }

    #[test]
    fn gradients_flow() {
        let mut rng = StdRng::seed_from_u64(3);
        let block = InherentBlock::new(cfg(), &mut rng);
        let x = Tensor::parameter(Array::randn(&[2, 5, 3, 8], &mut rng));
        let out = block.forward(&x, false, &mut rng);
        out.hidden
            .sum_all()
            .add(&out.forecast.sum_all())
            .add(&out.backcast.sum_all())
            .backward();
        assert!(x.grad().is_some());
        for (i, p) in block.parameters().iter().enumerate() {
            assert!(p.grad().is_some(), "param {i} missing grad");
        }
    }
}
