//! GMAN-lite baseline (Zheng et al., AAAI 2020): a graph multi-attention
//! network — spatial attention over sensors, temporal attention over time,
//! gated fusion of the two, and a transform attention that maps the encoded
//! history onto the forecast horizon via future time embeddings.

use d2stgnn_core::TrafficModel;
use d2stgnn_data::Batch;
use d2stgnn_tensor::nn::{Embedding, LayerNorm, Linear, Mlp, Module, MultiHeadSelfAttention};
use d2stgnn_tensor::{Array, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

/// Spatial-temporal embedding: learned node embedding fused with learned
/// time-of-day / day-of-week embeddings through a two-layer FC.
struct StEmbedding {
    node: Embedding,
    tod: Embedding,
    dow: Embedding,
    fuse: Mlp,
    d: usize,
}

impl StEmbedding {
    fn new<R: Rng>(n: usize, steps_per_day: usize, d: usize, rng: &mut R) -> Self {
        Self {
            node: Embedding::new(n, d, rng),
            tod: Embedding::new(steps_per_day, d, rng),
            dow: Embedding::new(7, d, rng),
            fuse: Mlp::new(3 * d, d, d, rng),
            d,
        }
    }

    /// `[B, T, N, d]` embedding for flat per-step (tod, dow) indices.
    fn forward(&self, tod: &[usize], dow: &[usize], b: usize, t: usize, n: usize) -> Tensor {
        let d = self.d;
        let te = self
            .tod
            .lookup(tod)
            .reshape(&[b, t, 1, d])
            .broadcast_to(&[b, t, n, d]);
        let we = self
            .dow
            .lookup(dow)
            .reshape(&[b, t, 1, d])
            .broadcast_to(&[b, t, n, d]);
        let all: Vec<usize> = (0..n).collect();
        let ne = self
            .node
            .lookup(&all)
            .reshape(&[1, 1, n, d])
            .broadcast_to(&[b, t, n, d]);
        self.fuse.forward(&Tensor::concat(&[&ne, &te, &we], 3))
    }
}

impl Module for StEmbedding {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.node.parameters();
        p.extend(self.tod.parameters());
        p.extend(self.dow.parameters());
        p.extend(self.fuse.parameters());
        p
    }
}

/// One ST-attention block: spatial attention + temporal attention fused by a
/// learned gate, with a residual connection and layer norm.
struct StAttBlock {
    spatial: MultiHeadSelfAttention,
    temporal: MultiHeadSelfAttention,
    gate_s: Linear,
    gate_t: Linear,
    norm: LayerNorm,
}

impl StAttBlock {
    fn new<R: Rng>(d: usize, heads: usize, rng: &mut R) -> Self {
        Self {
            spatial: MultiHeadSelfAttention::new(d, heads, rng),
            temporal: MultiHeadSelfAttention::new(d, heads, rng),
            gate_s: Linear::new(d, d, true, rng),
            gate_t: Linear::new(d, d, true, rng),
            norm: LayerNorm::new(d),
        }
    }

    /// `h`, `ste`: `[B, T, N, d]`.
    fn forward(&self, h: &Tensor, ste: &Tensor) -> Tensor {
        let shape = h.shape();
        let (b, t, n, d) = (shape[0], shape[1], shape[2], shape[3]);
        let hs = h.add(ste);
        // Spatial attention: attend over the node axis at each time step.
        let sp_in = hs.reshape(&[b * t, n, d]);
        let sp = self.spatial.forward(&sp_in).reshape(&[b, t, n, d]);
        // Temporal attention: attend over the time axis for each node.
        let tp_in = hs.permute(&[0, 2, 1, 3]).reshape(&[b * n, t, d]);
        let tp = self
            .temporal
            .forward(&tp_in)
            .reshape(&[b, n, t, d])
            .permute(&[0, 2, 1, 3]);
        // Gated fusion (Eq. 9 of GMAN): z = sigmoid(HS Wz + HT Wz').
        let z = self
            .gate_s
            .forward(&sp)
            .add(&self.gate_t.forward(&tp))
            .sigmoid();
        let ones = Tensor::constant(Array::ones(&z.shape()));
        let fused = z.mul(&sp).add(&ones.sub(&z).mul(&tp));
        self.norm.forward(&h.add(&fused))
    }
}

impl Module for StAttBlock {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.spatial.parameters();
        p.extend(self.temporal.parameters());
        p.extend(self.gate_s.parameters());
        p.extend(self.gate_t.parameters());
        p.extend(self.norm.parameters());
        p
    }
}

/// GMAN-lite.
pub struct Gman {
    st_emb: StEmbedding,
    input_proj: Linear,
    blocks: Vec<StAttBlock>,
    transform_q: Linear,
    transform_k: Linear,
    head: Mlp,
    num_nodes: usize,
    steps_per_day: usize,
    d: usize,
    tf: usize,
}

impl Gman {
    /// Build with hidden width `d` and `blocks` ST-attention blocks.
    pub fn new<R: Rng>(
        num_nodes: usize,
        steps_per_day: usize,
        d: usize,
        heads: usize,
        blocks: usize,
        tf: usize,
        rng: &mut R,
    ) -> Self {
        Self {
            st_emb: StEmbedding::new(num_nodes, steps_per_day, d, rng),
            input_proj: Linear::new(1, d, true, rng),
            blocks: (0..blocks)
                .map(|_| StAttBlock::new(d, heads, rng))
                .collect(),
            transform_q: Linear::new(d, d, false, rng),
            transform_k: Linear::new(d, d, false, rng),
            head: Mlp::new(d, d, 1, rng),
            num_nodes,
            steps_per_day,
            d,
            tf,
        }
    }

    /// Future (tod, dow) indices extrapolated from each window's last step.
    fn future_slots(
        &self,
        tod: &[usize],
        dow: &[usize],
        b: usize,
        th: usize,
    ) -> (Vec<usize>, Vec<usize>) {
        let spd = self.steps_per_day;
        let mut ftod = Vec::with_capacity(b * self.tf);
        let mut fdow = Vec::with_capacity(b * self.tf);
        for bi in 0..b {
            let last_tod = tod[(bi + 1) * th - 1];
            let last_dow = dow[(bi + 1) * th - 1];
            for h in 1..=self.tf {
                let slot = last_tod + h;
                ftod.push(slot % spd);
                fdow.push((last_dow + slot / spd) % 7);
            }
        }
        (ftod, fdow)
    }
}

impl TrafficModel for Gman {
    fn forward(&self, batch: &Batch, _training: bool, _rng: &mut StdRng) -> Tensor {
        let shape = batch.x.shape();
        let (b, th, n, _c) = (shape[0], shape[1], shape[2], shape[3]);
        assert_eq!(n, self.num_nodes, "node count mismatch");
        let d = self.d;

        let ste_hist = self.st_emb.forward(&batch.tod, &batch.dow, b, th, n);
        let mut h = self.input_proj.forward(&Tensor::constant(batch.x.clone()));
        for block in &self.blocks {
            h = block.forward(&h, &ste_hist);
        }

        // Transform attention: future STE queries attend over encoded history.
        let (ftod, fdow) = self.future_slots(&batch.tod, &batch.dow, b, th);
        let ste_fut = self.st_emb.forward(&ftod, &fdow, b, self.tf, n);
        let q = self
            .transform_q
            .forward(&ste_fut)
            .permute(&[0, 2, 1, 3])
            .reshape(&[b * n, self.tf, d]);
        let k = self
            .transform_k
            .forward(&ste_hist)
            .permute(&[0, 2, 1, 3])
            .reshape(&[b * n, th, d]);
        let v = h.permute(&[0, 2, 1, 3]).reshape(&[b * n, th, d]);
        let attn = q
            .matmul(&k.transpose())
            .scale(1.0 / (d as f32).sqrt())
            .softmax(2);
        let decoded = attn.matmul(&v); // [B*N, tf, d]

        self.head
            .forward(&decoded)
            .reshape(&[b, n, self.tf, 1])
            .permute(&[0, 2, 1, 3])
    }

    fn name(&self) -> String {
        "GMAN".to_string()
    }

    fn horizon(&self) -> usize {
        self.tf
    }

    fn steps_per_day(&self) -> Option<usize> {
        Some(self.steps_per_day)
    }
}

impl Module for Gman {
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.st_emb.parameters();
        p.extend(self.input_proj.parameters());
        for blk in &self.blocks {
            p.extend(blk.parameters());
        }
        p.extend(self.transform_q.parameters());
        p.extend(self.transform_k.parameters());
        p.extend(self.head.parameters());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use d2stgnn_data::{simulate, SimulatorConfig, Split, WindowedDataset};
    use rand::SeedableRng;

    fn setup() -> (Gman, WindowedDataset, StdRng) {
        let mut cfg = SimulatorConfig::tiny();
        cfg.num_nodes = 6;
        cfg.num_steps = 288;
        cfg.knn = 2;
        let data = WindowedDataset::new(simulate(&cfg), 12, 12, (0.6, 0.2, 0.2));
        let mut rng = StdRng::seed_from_u64(0);
        let model = Gman::new(6, 288, 8, 2, 1, 12, &mut rng);
        (model, data, rng)
    }

    #[test]
    fn forward_shape() {
        let (model, data, mut rng) = setup();
        let batch = data.batch(Split::Train, &[0, 1]);
        let pred = model.forward(&batch, false, &mut rng);
        assert_eq!(pred.shape(), vec![2, 12, 6, 1]);
        assert!(!pred.value().has_non_finite());
    }

    #[test]
    fn future_slots_wrap_midnight_and_week() {
        let (model, _, _) = setup();
        // One window whose last input step is 23:55 Sunday (tod 287, dow 6).
        let tod: Vec<usize> = (276..288).collect();
        let dow = vec![6usize; 12];
        let (ftod, fdow) = model.future_slots(&tod, &dow, 1, 12);
        assert_eq!(ftod[0], 0, "first future slot wraps to midnight");
        assert_eq!(fdow[0], 0, "sunday wraps to monday");
        assert_eq!(ftod[11], 11);
    }

    #[test]
    fn time_embeddings_affect_predictions() {
        let (model, data, mut rng) = setup();
        let batch_a = data.batch(Split::Train, &[0]);
        let mut batch_b = batch_a.clone();
        for v in batch_b.tod.iter_mut() {
            *v = (*v + 144) % 288;
        }
        let pa = model.forward(&batch_a, false, &mut rng).value();
        let pb = model.forward(&batch_b, false, &mut rng).value();
        assert_ne!(pa.data(), pb.data());
    }

    #[test]
    fn training_step_reduces_loss() {
        let (model, data, mut rng) = setup();
        let batch = data.batch(Split::Train, &[0, 1]);
        let target = Tensor::constant(data.scaler().transform(&batch.y));
        let loss_of = |m: &Gman, rng: &mut StdRng| {
            d2stgnn_tensor::losses::mae_loss(&m.forward(&batch, true, rng), &target)
        };
        let l0 = loss_of(&model, &mut rng);
        l0.backward();
        use d2stgnn_tensor::optim::{Adam, Optimizer};
        let mut opt = Adam::new(model.parameters(), 0.01);
        opt.step();
        assert!(loss_of(&model, &mut rng).item() < l0.item());
    }
}
