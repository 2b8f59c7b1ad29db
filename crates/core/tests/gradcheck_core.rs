//! Finite-difference gradient checks for the model's two decoupled blocks:
//! one diffusion-convolution step (Eqs. 5–9) and one inherent block
//! (Eqs. 10–12), each checked through all three output branches.

use d2stgnn_core::diffusion::{DiffusionBlock, DiffusionBlockConfig};
use d2stgnn_core::graphs::GraphContext;
use d2stgnn_core::inherent::{InherentBlock, InherentBlockConfig};
use d2stgnn_data::{simulate, SimulatorConfig};
use d2stgnn_tensor::nn::Module;
use d2stgnn_tensor::testing::{gradcheck, gradcheck_module};
use d2stgnn_tensor::{Array, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

const TOL: f32 = 1e-2;
const PROBES: usize = 4;

fn graph_context() -> GraphContext {
    let mut sim = SimulatorConfig::tiny();
    sim.num_nodes = 4;
    sim.num_steps = 64;
    sim.knn = 2;
    GraphContext::new(&simulate(&sim).network, Some(2))
}

#[test]
fn gradcheck_diffusion_step() {
    let mut rng = StdRng::seed_from_u64(31);
    let ctx = graph_context();
    let (b, th, n, d) = (1, 4, ctx.num_nodes(), 4);
    let cfg = DiffusionBlockConfig {
        ks: 2,
        kt: 2,
        hidden: d,
        tf: 3,
        autoregressive: false,
        use_adaptive: false,
    };
    let block = DiffusionBlock::new(cfg, &mut rng);
    let transitions = ctx.static_transitions();
    let x = Tensor::constant(Array::randn(&[b, th, n, d], &mut rng).map(|v| v * 0.5));

    // Parameters: all three branches contribute to the scalar.
    gradcheck_module(
        || {
            let out = block.forward(&ctx, &x, &transitions, None);
            out.hidden
                .square()
                .sum_all()
                .add(&out.forecast.square().sum_all())
                .add(&out.backcast.square().sum_all())
        },
        &block.parameters(),
        PROBES,
        TOL,
    );

    // Input gradient through the spatial-temporal convolution.
    gradcheck(
        |v| {
            let out = block.forward(&ctx, &v[0], &transitions, None);
            out.hidden
                .square()
                .sum_all()
                .add(&out.forecast.square().sum_all())
                .add(&out.backcast.square().sum_all())
        },
        &[&[b, th, n, d]],
        &mut rng,
        TOL,
    );
}

#[test]
fn gradcheck_diffusion_step_with_adaptive_matrix() {
    let mut rng = StdRng::seed_from_u64(5);
    let ctx = graph_context();
    let (b, th, n, d) = (1, 3, ctx.num_nodes(), 4);
    let cfg = DiffusionBlockConfig {
        ks: 2,
        kt: 2,
        hidden: d,
        tf: 2,
        autoregressive: true,
        use_adaptive: true,
    };
    let block = DiffusionBlock::new(cfg, &mut rng);
    let transitions = ctx.static_transitions();
    // A fixed row-stochastic-ish adaptive matrix.
    let adaptive = Tensor::constant(Array::randn(&[n, n], &mut rng).map(|v| (v * 0.2).abs()));
    let x = Tensor::constant(Array::randn(&[b, th, n, d], &mut rng).map(|v| v * 0.5));
    gradcheck_module(
        || {
            let out = block.forward(&ctx, &x, &transitions, Some(&adaptive));
            out.hidden
                .square()
                .sum_all()
                .add(&out.forecast.square().sum_all())
        },
        &block.parameters(),
        PROBES,
        TOL,
    );
}

#[test]
fn gradcheck_inherent_block() {
    let mut rng = StdRng::seed_from_u64(9);
    let (b, th, n, d) = (1, 4, 3, 4);
    let cfg = InherentBlockConfig {
        hidden: d,
        heads: 2,
        tf: 3,
        kt: 2,
        autoregressive: false,
        use_gru: true,
        use_msa: true,
        dropout: 0.0,
    };
    let block = InherentBlock::new(cfg, &mut rng);
    let x = Tensor::constant(Array::randn(&[b, th, n, d], &mut rng).map(|v| v * 0.5));

    gradcheck_module(
        || {
            let mut fwd_rng = StdRng::seed_from_u64(0);
            let out = block.forward(&x, false, &mut fwd_rng);
            out.hidden
                .square()
                .sum_all()
                .add(&out.forecast.square().sum_all())
                .add(&out.backcast.square().sum_all())
        },
        &block.parameters(),
        PROBES,
        TOL,
    );

    gradcheck(
        |v| {
            let mut fwd_rng = StdRng::seed_from_u64(0);
            let out = block.forward(&v[0], false, &mut fwd_rng);
            out.hidden
                .square()
                .sum_all()
                .add(&out.forecast.square().sum_all())
                .add(&out.backcast.square().sum_all())
        },
        &[&[b, th, n, d]],
        &mut rng,
        TOL,
    );
}
