//! Property-based tests for the tensor engine: algebraic identities,
//! broadcasting laws, and autograd consistency on randomized inputs; and
//! the layout kernels (`permute`, `transpose`, `broadcast_to`, broadcasting
//! binary ops) and the grouped matmul held, bit for bit, to per-element
//! references.

use d2stgnn_tensor::shape::{broadcast_shapes, broadcast_strides, numel, ravel, strides_for};
use d2stgnn_tensor::testing::gradcheck;
use d2stgnn_tensor::{Array, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arr_strategy(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, 1..max_len)
}

// ---------------------------------------------------------------------
// Per-element references: every output element recomputes its source
// offset with `ravel`, the way the layout kernels once did.
// ---------------------------------------------------------------------

/// Visit every coordinate of `shape` in row-major order.
fn for_each_coord(shape: &[usize], mut f: impl FnMut(&[usize])) {
    let mut coords = vec![0usize; shape.len()];
    for _ in 0..numel(shape) {
        f(&coords);
        for ax in (0..shape.len()).rev() {
            coords[ax] += 1;
            if coords[ax] < shape[ax] {
                break;
            }
            coords[ax] = 0;
        }
    }
}

fn ref_permute(a: &Array, perm: &[usize]) -> Array {
    let new_shape: Vec<usize> = perm.iter().map(|&p| a.shape()[p]).collect();
    let old = strides_for(a.shape());
    let strides: Vec<usize> = perm.iter().map(|&p| old[p]).collect();
    let mut data = Vec::with_capacity(numel(&new_shape));
    for_each_coord(&new_shape, |c| data.push(a.data()[ravel(c, &strides)]));
    Array::from_vec(&new_shape, data).unwrap()
}

fn ref_broadcast_to(a: &Array, target: &[usize]) -> Array {
    let strides = broadcast_strides(a.shape(), target);
    let mut data = Vec::with_capacity(numel(target));
    for_each_coord(target, |c| data.push(a.data()[ravel(c, &strides)]));
    Array::from_vec(target, data).unwrap()
}

fn ref_zip(a: &Array, b: &Array, f: impl Fn(f32, f32) -> f32) -> Array {
    let out = broadcast_shapes(a.shape(), b.shape()).unwrap();
    let (sa, sb) = (
        broadcast_strides(a.shape(), &out),
        broadcast_strides(b.shape(), &out),
    );
    let mut data = Vec::with_capacity(numel(&out));
    for_each_coord(&out, |c| {
        data.push(f(a.data()[ravel(c, &sa)], b.data()[ravel(c, &sb)]));
    });
    Array::from_vec(&out, data).unwrap()
}

fn bits(a: &Array) -> Vec<u32> {
    a.data().iter().map(|v| v.to_bits()).collect()
}

/// A rank-1..=5 shape with extents 0..=4, mostly non-zero.
fn random_shape(rng: &mut StdRng) -> Vec<usize> {
    let rank = rng.gen_range(1..6);
    (0..rank)
        .map(|_| {
            if rng.gen_range(0..12) == 0 {
                0
            } else {
                rng.gen_range(1..5)
            }
        })
        .collect()
}

/// Random values with signed zeros, infinities and a NaN mixed in, so a
/// bit comparison sees every class of `f32`.
fn random_array(shape: &[usize], rng: &mut StdRng) -> Array {
    let data = (0..numel(shape))
        .map(|_| match rng.gen_range(0..20) {
            0 => -0.0,
            1 => f32::INFINITY,
            2 => f32::NAN,
            _ => rng.gen_range(-10.0f32..10.0),
        })
        .collect();
    Array::from_vec(shape, data).unwrap()
}

fn random_permutation(rank: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..rank).collect();
    for i in (1..rank).rev() {
        perm.swap(i, rng.gen_range(0..i + 1));
    }
    perm
}

/// A shape that broadcasts to `out`: a random suffix of it with random
/// extents replaced by 1.
fn broadcast_source(out: &[usize], rng: &mut StdRng) -> Vec<usize> {
    let keep = rng.gen_range(0..out.len() + 1);
    out[out.len() - keep..]
        .iter()
        .map(|&d| if rng.gen_range(0..3) == 0 { 1 } else { d })
        .collect()
}

/// `a` and `b` as parameters, and the gradients a weighted sum of
/// `f(a, b)` sends back to them.
fn grads(a: &Array, b: &Array, w: &Array, f: impl Fn(&Tensor, &Tensor) -> Tensor) -> [Array; 3] {
    let (ta, tb) = (Tensor::parameter(a.clone()), Tensor::parameter(b.clone()));
    let out = f(&ta, &tb);
    out.mul(&Tensor::constant(w.clone())).sum_all().backward();
    [out.value(), ta.grad().unwrap(), tb.grad().unwrap()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn add_commutes_and_mul_distributes(data in arr_strategy(32)) {
        let n = data.len();
        let a = Array::from_vec(&[n], data.clone()).unwrap();
        let b = Array::from_vec(&[n], data.iter().map(|v| v * 0.5 + 1.0).collect()).unwrap();
        let c = Array::from_vec(&[n], data.iter().map(|v| v - 2.0).collect()).unwrap();
        // a + b == b + a
        let ab = a.add(&b);
        let ba = b.add(&a);
        prop_assert_eq!(ab.data(), ba.data());
        // a * (b + c) ≈ a*b + a*c
        let lhs = a.mul(&b.add(&c));
        let rhs = a.mul(&b).add(&a.mul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{} vs {}", x, y);
        }
    }

    #[test]
    fn matmul_associates_with_identity(seed in 0u64..300, m in 1usize..6, k in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Array::randn(&[m, k], &mut rng);
        let eye = Array::eye(k);
        let out = a.matmul(&eye);
        for (x, y) in out.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
        let eye_m = Array::eye(m);
        let out2 = eye_m.matmul(&a);
        for (x, y) in out2.data().iter().zip(a.data()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_matches_naive_reference(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (m, k, n) = (3usize, 4, 2);
        let a = Array::randn(&[m, k], &mut rng);
        let b = Array::randn(&[k, n], &mut rng);
        let fast = a.matmul(&b);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                prop_assert!((fast.at(&[i, j]) - acc).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn softmax_invariant_to_constant_shift(data in arr_strategy(16), shift in -5.0f32..5.0) {
        let n = data.len();
        let a = Array::from_vec(&[1, n], data).unwrap();
        let s1 = a.softmax(1);
        let s2 = a.add_scalar(shift).softmax(1);
        for (x, y) in s1.data().iter().zip(s2.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn transpose_is_involution(seed in 0u64..300, r in 1usize..5, c in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Array::randn(&[r, c], &mut rng);
        let tt = a.transpose().transpose();
        prop_assert_eq!(tt.data(), a.data());
    }

    #[test]
    fn sum_axis_totals_match_sum_all(seed in 0u64..300, r in 1usize..5, c in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Array::randn(&[r, c], &mut rng);
        let via0 = a.sum_axis(0, false).sum_all();
        let via1 = a.sum_axis(1, false).sum_all();
        let direct = a.sum_all();
        prop_assert!((via0 - direct).abs() < 1e-3);
        prop_assert!((via1 - direct).abs() < 1e-3);
    }

    #[test]
    fn concat_slice_roundtrip(seed in 0u64..300, r in 1usize..4, c1 in 1usize..4, c2 in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Array::randn(&[r, c1], &mut rng);
        let b = Array::randn(&[r, c2], &mut rng);
        let joined = Array::concat(&[&a, &b], 1).unwrap();
        let left = joined.slice_axis(1, 0, c1);
        let right = joined.slice_axis(1, c1, c1 + c2);
        prop_assert_eq!(left.data(), a.data());
        prop_assert_eq!(right.data(), b.data());
    }

    #[test]
    fn backward_of_sum_is_ones(seed in 0u64..300, n in 1usize..20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::parameter(Array::randn(&[n], &mut rng));
        x.sum_all().backward();
        let g = x.grad().unwrap();
        let ones = vec![1.0f32; n];
        prop_assert_eq!(g.data(), ones.as_slice());
    }

    #[test]
    fn chain_rule_scaling(seed in 0u64..300, s in -3.0f32..3.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::parameter(Array::randn(&[4], &mut rng));
        x.scale(s).sum_all().backward();
        let g = x.grad().unwrap();
        for v in g.data() {
            prop_assert!((v - s).abs() < 1e-5);
        }
    }

    #[test]
    fn gradcheck_random_two_layer_net(seed in 0u64..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        gradcheck(
            |inp| {
                inp[0]
                    .matmul(&inp[1])
                    .tanh()
                    .matmul(&inp[2])
                    .sigmoid()
                    .sum_all()
            },
            &[&[2, 3], &[3, 3], &[3, 1]],
            &mut rng,
            2e-2,
        );
    }

    #[test]
    fn no_grad_value_equals_grad_value(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = Array::randn(&[3, 3], &mut rng);
        let with_grad = {
            let x = Tensor::parameter(base.clone());
            x.matmul(&x).relu().sum_all().item()
        };
        let without = d2stgnn_tensor::no_grad(|| {
            let x = Tensor::parameter(base.clone());
            x.matmul(&x).relu().sum_all().item()
        });
        prop_assert_eq!(with_grad, without);
    }

    #[test]
    fn permute_and_transpose_match_per_element_reference(seed in 0u64..400) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = random_shape(&mut rng);
        let a = random_array(&shape, &mut rng);
        let perm = random_permutation(shape.len(), &mut rng);
        let got = a.permute(&perm);
        let want = ref_permute(&a, &perm);
        prop_assert_eq!(got.shape(), want.shape());
        prop_assert_eq!(bits(&got), bits(&want), "permute {:?} of {:?}", perm, shape);
        if shape.len() >= 2 {
            let mut swap: Vec<usize> = (0..shape.len()).collect();
            swap.swap(shape.len() - 1, shape.len() - 2);
            prop_assert_eq!(bits(&a.transpose()), bits(&ref_permute(&a, &swap)));
        }
    }

    #[test]
    fn transposed_pages_match_per_element_reference(
        seed in 0u64..300,
        pages in 0usize..3,
        r in 1usize..80,
        c in 1usize..80
    ) {
        // Square and oblong pages, narrow and wider than a cache line.
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_array(&[pages, r, c], &mut rng);
        prop_assert_eq!(bits(&a.transpose()), bits(&ref_permute(&a, &[0, 2, 1])));
        let b = random_array(&[2, r, 3, c], &mut rng);
        let perm = [0, 3, 2, 1];
        prop_assert_eq!(bits(&b.permute(&perm)), bits(&ref_permute(&b, &perm)));
    }

    #[test]
    fn broadcasts_match_per_element_reference(seed in 0u64..400) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = random_shape(&mut rng);
        let (sa, sb) = (broadcast_source(&out, &mut rng), broadcast_source(&out, &mut rng));
        let (a, b) = (random_array(&sa, &mut rng), random_array(&sb, &mut rng));
        let got = a.broadcast_to(&out).unwrap();
        prop_assert_eq!(got.shape(), out.as_slice());
        prop_assert_eq!(bits(&got), bits(&ref_broadcast_to(&a, &out)), "{:?} -> {:?}", sa, out);
        // Either operand may be the broadcast one; each pair is also tried
        // the other way round.
        for (x, y) in [(&a, &b), (&b, &a)] {
            let cases = [
                (x.add(y), ref_zip(x, y, |p, q| p + q)),
                (x.sub(y), ref_zip(x, y, |p, q| p - q)),
                (x.mul(y), ref_zip(x, y, |p, q| p * q)),
                (x.div(y), ref_zip(x, y, |p, q| p / q)),
            ];
            for (got, want) in cases {
                prop_assert_eq!(got.shape(), want.shape());
                prop_assert_eq!(bits(&got), bits(&want), "{:?} op {:?}", x.shape(), y.shape());
            }
        }
    }
}

/// `[g,m,k] x [g·t,k,n]`: lhs page `i` times rhs pages `i·t .. (i+1)·t`.
fn repeat_pages(groups: usize, t: usize) -> Vec<usize> {
    (0..groups)
        .flat_map(|i| std::iter::repeat_n(i, t))
        .collect()
}

#[test]
fn grouped_matmul_equals_the_tiled_product_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(5);
    let (m, k) = (7, 13);
    // `t = 1` is the plain batched product against the identity index: the
    // per-window arm of Eq. 8 at `T_h = 1`, whose dA `index_add` summed
    // from zero where the plain backward does not sum at all. The widths
    // cover one column, the attention pages' 4, 8 and 12, and one short of
    // and one past a 16-wide panel.
    for n in [19, 1, 4, 8, 12, 15, 17] {
        for (groups, t) in [(3, 5), (4, 1)] {
            let finite = |v: f32, or: f32| if v.is_finite() { v } else { or };
            let a = random_array(&[groups, m, k], &mut rng).map(|v| finite(v, 0.5));
            let b = Array::randn(&[groups * t, k, n], &mut rng);
            // Signed zeros in the upstream gradient, and a whole row of them
            // on page 0, so `g·Bᵀ` meets terms that are `-0.0`.
            let w = random_array(&[groups * t, m, n], &mut rng);
            let w = Array::from_vec(
                w.shape(),
                (w.data().iter().enumerate())
                    .map(|(i, &v)| if i < n { -0.0 } else { finite(v, -0.0) })
                    .collect(),
            )
            .unwrap();
            let repeat = repeat_pages(groups, t);
            let grouped = grads(&a, &b, &w, |x, y| x.matmul(y));
            let tiled = grads(&a, &b, &w, |x, y| x.index_select(0, &repeat).matmul(y));
            assert_eq!(grouped[0].shape(), &[groups * t, m, n]);
            for (what, (g, r)) in ["forward", "d lhs", "d rhs"]
                .iter()
                .zip(grouped.iter().zip(&tiled))
            {
                assert_eq!(g.shape(), r.shape(), "{what} at t = {t}, n = {n}");
                assert_eq!(
                    bits(g),
                    bits(r),
                    "{what} at t = {t}, n = {n} differs from the tiled product"
                );
            }
            // The Array kernel agrees with the autograd value, and the
            // gradients with the public-op formulas: each group's `g·Bᵀ`
            // pages summed over the `[g,t,m,k]` view, and `Aᵀ·g`.
            assert_eq!(bits(&a.matmul(&b)), bits(&grouped[0]));
            let da = w
                .matmul(&b.transpose())
                .reshape(&[groups, t, m, k])
                .unwrap()
                .sum_axis(1, false);
            assert_eq!(bits(&grouped[1]), bits(&da), "d lhs at t = {t}, n = {n}");
            let db = a.transpose().matmul(&w);
            assert_eq!(bits(&grouped[2]), bits(&db), "d rhs at t = {t}, n = {n}");
        }
    }
}

#[test]
fn plain_batched_matmul_backward_is_unsummed() {
    // t = 1: the grouped rule leaves the plain batched product's pages
    // alone, so its gradients are the bare `g·Bᵀ` and `Aᵀ·g` products; the
    // 2-D product likewise. Where one operand is shared across a batch —
    // `[b,m,k] x [k,n]` and `[m,k] x [b,k,n]` — its gradient is those
    // products' pages summed over the batch axis. Every width from one
    // column to past a 16-wide panel, at a row count that is not a whole
    // number of 4-row tiles.
    let mut rng = StdRng::seed_from_u64(6);
    let (batch, m, k) = (4, 6, 9);
    for n in [5, 1, 4, 8, 12, 15, 17] {
        let a = Array::randn(&[batch, m, k], &mut rng);
        let b = Array::randn(&[batch, k, n], &mut rng);
        let w = Array::randn(&[batch, m, n], &mut rng);
        let [_, da, db] = grads(&a, &b, &w, |x, y| x.matmul(y));
        assert_eq!(bits(&da), bits(&w.matmul(&b.transpose())), "(3,3) n = {n}");
        assert_eq!(bits(&db), bits(&a.transpose().matmul(&w)), "(3,3) n = {n}");

        let a2 = Array::randn(&[m, k], &mut rng);
        let b2 = Array::randn(&[k, n], &mut rng);
        let w2 = Array::randn(&[m, n], &mut rng);
        let [_, da, db] = grads(&a2, &b2, &w2, |x, y| x.matmul(y));
        assert_eq!(
            bits(&da),
            bits(&w2.matmul(&b2.transpose())),
            "(2,2) n = {n}"
        );
        assert_eq!(
            bits(&db),
            bits(&a2.transpose().matmul(&w2)),
            "(2,2) n = {n}"
        );

        let [_, da, db] = grads(&a, &b2, &w, |x, y| x.matmul(y));
        assert_eq!(bits(&da), bits(&w.matmul(&b2.transpose())), "(3,2) n = {n}");
        let db_pages = a.transpose().matmul(&w);
        assert_eq!(
            bits(&db),
            bits(&db_pages.sum_axis(0, false)),
            "(3,2) n = {n}"
        );

        let [_, da, db] = grads(&a2, &b, &w, |x, y| x.matmul(y));
        let da_pages = w.matmul(&b.transpose());
        assert_eq!(
            bits(&da),
            bits(&da_pages.sum_axis(0, false)),
            "(2,3) n = {n}"
        );
        assert_eq!(bits(&db), bits(&a2.transpose().matmul(&w)), "(2,3) n = {n}");
    }
}

#[test]
fn gradcheck_grouped_matmul() {
    let mut rng = StdRng::seed_from_u64(7);
    gradcheck(
        |x| x[0].matmul(&x[1]).square().sum_all(),
        &[&[2, 3, 4], &[6, 4, 2]],
        &mut rng,
        2e-2,
    );
}

#[test]
#[should_panic(expected = "not a multiple")]
fn grouped_matmul_rejects_a_ragged_batch() {
    let _ = Array::zeros(&[2, 3, 4]).matmul(&Array::zeros(&[5, 4, 2]));
}
