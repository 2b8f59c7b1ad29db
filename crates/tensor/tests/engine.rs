//! Engine-level integration tests: compose layers/ops the way the models do
//! and check numerics, edge cases, and training behaviour end to end.

use d2stgnn_tensor::losses::{huber_loss, mae_loss, masked_mae_loss, mse_loss};
use d2stgnn_tensor::nn::{
    positional_encoding, CausalConv1d, Embedding, Gru, Linear, Lstm, Mlp, Module,
    MultiHeadSelfAttention,
};
use d2stgnn_tensor::optim::{clip_grad_norm, Adam, Optimizer, Sgd};
use d2stgnn_tensor::testing::gradcheck;
use d2stgnn_tensor::{Array, CsrMatrix, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn rank0_scalars_behave() {
    let a = Tensor::parameter(Array::scalar(3.0));
    let b = Tensor::constant(Array::scalar(4.0));
    let y = a.mul(&b).add(&a).sub(&b).exp().scale(0.0).add_scalar(7.0);
    assert_eq!(y.item(), 7.0);
    y.backward();
    assert_eq!(a.grad().unwrap().item(), 0.0);
}

#[test]
fn scalar_broadcasts_against_matrices() {
    let s = Tensor::parameter(Array::scalar(2.0));
    let m = Tensor::constant(Array::ones(&[3, 4]));
    let y = m.mul(&s).sum_all();
    assert_eq!(y.item(), 24.0);
    y.backward();
    assert_eq!(s.grad().unwrap().item(), 12.0);
}

#[test]
fn identity_shape_ops_are_noops_numerically() {
    let mut rng = StdRng::seed_from_u64(0);
    let x = Array::randn(&[2, 3, 4], &mut rng);
    let t = Tensor::constant(x.clone());
    assert_eq!(t.permute(&[0, 1, 2]).value().data(), x.data());
    assert_eq!(t.reshape(&[2, 3, 4]).value().data(), x.data());
    assert_eq!(t.slice_axis(1, 0, 3).value().data(), x.data());
    assert_eq!(
        t.transpose().transpose().value().data(),
        x.data(),
        "double transpose restores"
    );
}

#[test]
fn softmax_axis0_and_axis_mid() {
    let mut rng = StdRng::seed_from_u64(1);
    let x = Array::randn(&[3, 4, 5], &mut rng);
    for axis in 0..3 {
        let s = x.softmax(axis);
        let sums = s.sum_axis(axis, false);
        for v in sums.data() {
            assert!((v - 1.0).abs() < 1e-5, "axis {axis}: {v}");
        }
    }
}

#[test]
fn gradcheck_composed_attention_style_pipeline() {
    // softmax(QK^T) V with all three as inputs: the attention core.
    let mut rng = StdRng::seed_from_u64(2);
    gradcheck(
        |inp| {
            let scores = inp[0].matmul(&inp[1].transpose()).scale(0.5).softmax(1);
            scores.matmul(&inp[2]).square().sum_all()
        },
        &[&[3, 4], &[3, 4], &[3, 5]],
        &mut rng,
        2e-2,
    );
}

#[test]
fn gradcheck_gru_style_gating() {
    let mut rng = StdRng::seed_from_u64(3);
    gradcheck(
        |inp| {
            let z = inp[0].sigmoid();
            let ones = Tensor::constant(Array::ones(&z.shape()));
            let h = ones.sub(&z).mul(&inp[1]).add(&z.mul(&inp[2].tanh()));
            h.square().sum_all()
        },
        &[&[4], &[4], &[4]],
        &mut rng,
        1e-2,
    );
}

#[test]
fn deep_composite_module_trains_to_low_loss() {
    // GRU -> attention -> MLP regression on a learnable synthetic task:
    // output the mean of the input sequence.
    let mut rng = StdRng::seed_from_u64(4);
    let gru = Gru::new(2, 8, &mut rng);
    let attn = MultiHeadSelfAttention::new(8, 2, &mut rng);
    let head = Mlp::new(8, 8, 1, &mut rng);
    let params: Vec<Tensor> = gru
        .parameters()
        .into_iter()
        .chain(attn.parameters())
        .chain(head.parameters())
        .collect();
    let mut opt = Adam::new(params.clone(), 5e-3);

    let xs = Array::randn(&[32, 6, 2], &mut rng);
    let mean_target: Vec<f32> = (0..32)
        .map(|b| {
            let mut acc = 0.0;
            for t in 0..6 {
                for c in 0..2 {
                    acc += xs.at(&[b, t, c]);
                }
            }
            acc / 12.0
        })
        .collect();
    let target = Tensor::constant(Array::from_vec(&[32, 1], mean_target).unwrap());
    let x = Tensor::constant(xs);

    let mut first = None;
    let mut last = 0.0;
    for _ in 0..80 {
        let h = gru.forward(&x);
        let pe = Tensor::constant(positional_encoding(6, 8).reshape(&[1, 6, 8]).unwrap());
        let a = attn.forward(&h.add(&pe.broadcast_to(&[32, 6, 8])));
        let pooled = a.mean_axis(1, false);
        let loss = mse_loss(&head.forward(&pooled), &target);
        last = loss.item();
        first.get_or_insert(last);
        loss.backward();
        clip_grad_norm(&params, 5.0);
        opt.step();
    }
    let first = first.unwrap();
    assert!(
        last < first * 0.2,
        "composite model failed to learn: {first} -> {last}"
    );
}

#[test]
fn conv_chain_shrinks_receptive_field_correctly() {
    let mut rng = StdRng::seed_from_u64(5);
    let c1 = CausalConv1d::new(1, 4, 1, &mut rng);
    let c2 = CausalConv1d::new(4, 4, 2, &mut rng);
    let x = Tensor::constant(Array::randn(&[2, 12, 1], &mut rng));
    let y = c2.forward(&c1.forward(&x).relu());
    assert_eq!(y.shape(), vec![2, 12 - 1 - 2, 4]);
}

#[test]
fn losses_agree_on_simple_cases() {
    let p = Tensor::constant(Array::from_vec(&[2], vec![1.0, 3.0]).unwrap());
    let t = Tensor::constant(Array::from_vec(&[2], vec![0.0, 3.0]).unwrap());
    // |1-0| counts in plain MAE...
    assert!((mae_loss(&p, &t).item() - 0.5).abs() < 1e-6);
    // ...but the zero target is masked in masked MAE.
    assert_eq!(masked_mae_loss(&p, &t, 0.0).item(), 0.0);
    // Huber below delta is half MSE.
    let h = huber_loss(&p, &t, 10.0).item();
    let m = mse_loss(&p, &t).item();
    assert!((h - 0.5 * m).abs() < 1e-6);
}

#[test]
fn sgd_and_adam_agree_on_direction() {
    let make = || Tensor::parameter(Array::from_vec(&[1], vec![4.0]).unwrap());
    let (xa, xs) = (make(), make());
    let mut adam = Adam::new(vec![xa.clone()], 0.1);
    let mut sgd = Sgd::new(vec![xs.clone()], 0.1, 0.0);
    xa.square().backward();
    adam.step();
    xs.square().backward();
    sgd.step();
    assert!(xa.value().data()[0] < 4.0);
    assert!(xs.value().data()[0] < 4.0);
}

#[test]
fn embedding_lstm_pipeline_gradients() {
    let mut rng = StdRng::seed_from_u64(6);
    let emb = Embedding::new(10, 4, &mut rng);
    let lstm = Lstm::new(4, 6, &mut rng);
    let head = Linear::new(6, 1, true, &mut rng);
    let rows = emb.lookup(&[1, 5, 3, 1]).reshape(&[1, 4, 4]);
    let (seq, _) = lstm.forward_with_state(&rows, None);
    head.forward(&seq).sum_all().backward();
    assert!(emb.weights().grad().is_some());
    for p in lstm.parameters().iter().chain(head.parameters().iter()) {
        assert!(p.grad().is_some());
    }
    // Row 0 of the embedding was never looked up: zero gradient there.
    let g = emb.weights().grad().unwrap();
    assert!(g.data()[0..4].iter().all(|v| *v == 0.0));
}

#[test]
fn concat_then_split_roundtrip_gradients() {
    let mut rng = StdRng::seed_from_u64(7);
    let a = Tensor::parameter(Array::randn(&[2, 3], &mut rng));
    let b = Tensor::parameter(Array::randn(&[2, 5], &mut rng));
    let joined = Tensor::concat(&[&a, &b], 1);
    // Only the second half contributes to the loss.
    joined.slice_axis(1, 3, 8).square().sum_all().backward();
    assert_eq!(a.grad().unwrap().data(), &[0.0; 6]);
    assert!(b.grad().unwrap().data().iter().any(|v| *v != 0.0));
}

/// Asserts `out` has shape `want` and holds only zeros.
fn assert_zeros(out: &Array, want: &[usize], case: &str) {
    assert_eq!(out.shape(), want, "{case}");
    assert_eq!(out.numel(), want.iter().product::<usize>(), "{case}");
    assert!(out.data().iter().all(|&v| v == 0.0), "{case}");
}

#[test]
fn zero_size_operands_give_zero_size_or_zero_results() {
    // spmm by a zero-column operand: an empty product, not a panic.
    let csr = CsrMatrix::from_dense(&Array::ones(&[3, 2]), 0.0).unwrap();
    for (dense, want) in [(&[2, 0][..], &[3, 0][..]), (&[4, 2, 0], &[4, 3, 0])] {
        let out = csr.try_matmul(&Array::zeros(dense)).unwrap();
        assert_zeros(&out, want, &format!("[3,2] csr x {dense:?}"));
    }

    // Dense matmul over an empty inner or batch dim: an empty sum is 0.
    for (lhs, rhs, want) in [
        (&[3, 0][..], &[0, 4][..], &[3, 4][..]),
        (&[2, 3, 0], &[0, 4], &[2, 3, 4]),
        (&[2, 0], &[3, 0, 4], &[3, 2, 4]),
        (&[3, 2, 0], &[3, 0, 4], &[3, 2, 4]),
        (&[0, 2, 5], &[0, 5, 4], &[0, 2, 4]),
    ] {
        let out = Array::ones(lhs).matmul(&Array::ones(rhs));
        assert_zeros(&out, want, &format!("{lhs:?} x {rhs:?}"));
    }

    // Axis sums next to and over an empty axis.
    for (shape, want) in [(&[4, 5, 0], &[4, 0][..]), (&[4, 0, 5], &[4, 5])] {
        let out = Array::ones(shape).sum_axis(1, false);
        assert_zeros(&out, want, &format!("axis-1 sum of {shape:?}"));
    }
}
