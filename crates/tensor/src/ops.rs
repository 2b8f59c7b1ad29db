//! Differentiable operators on [`Tensor`].
//!
//! Every operator computes its value eagerly with the [`Array`] kernels and
//! records a closure computing the vector–Jacobian product for each parent.
//! Broadcasting binary ops reduce the output gradient back to each input's
//! shape by summing over broadcast axes.

use crate::array::{Array, UnaryKind};
use crate::tensor::Tensor;
use rand::Rng;

impl Tensor {
    // ------------------------------------------------------------------
    // Binary elementwise (broadcasting)
    // ------------------------------------------------------------------

    /// Elementwise addition with broadcasting.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let _prof = crate::profile::op_scope("add");
        let out = self.with_value(|a| other.with_value(|b| a.add(b)));
        let (sa, sb) = (self.shape(), other.shape());
        let (ga, gb) = (self.requires_grad(), other.requires_grad());
        Tensor::from_op(
            out,
            vec![self.clone(), other.clone()],
            Box::new(move |g| {
                vec![
                    ga.then(|| g.reduce_to_shape(&sa)),
                    gb.then(|| g.reduce_to_shape(&sb)),
                ]
            }),
        )
    }

    /// Elementwise subtraction with broadcasting.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        let _prof = crate::profile::op_scope("sub");
        let out = self.with_value(|a| other.with_value(|b| a.sub(b)));
        let (sa, sb) = (self.shape(), other.shape());
        let (ga, gb) = (self.requires_grad(), other.requires_grad());
        Tensor::from_op(
            out,
            vec![self.clone(), other.clone()],
            Box::new(move |g| {
                vec![
                    ga.then(|| g.reduce_to_shape(&sa)),
                    gb.then(|| g.scale(-1.0).reduce_to_shape(&sb)),
                ]
            }),
        )
    }

    /// Elementwise multiplication with broadcasting.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        let _prof = crate::profile::op_scope("mul");
        let (av, bv) = (self.value(), other.value());
        let out = av.mul(&bv);
        let (sa, sb) = (av.shape().to_vec(), bv.shape().to_vec());
        // As in `matmul`: dA needs B and dB needs A, so a value is kept only
        // when the other operand takes a gradient.
        let bv = self.requires_grad().then_some(bv);
        let av = other.requires_grad().then_some(av);
        Tensor::from_op(
            out,
            vec![self.clone(), other.clone()],
            Box::new(move |g| {
                vec![
                    bv.as_ref().map(|bv| g.mul(bv).reduce_to_shape(&sa)),
                    av.as_ref().map(|av| g.mul(av).reduce_to_shape(&sb)),
                ]
            }),
        )
    }

    /// Elementwise division with broadcasting.
    pub fn div(&self, other: &Tensor) -> Tensor {
        let _prof = crate::profile::op_scope("div");
        let (av, bv) = (self.value(), other.value());
        let out = av.div(&bv);
        let (sa, sb) = (av.shape().to_vec(), bv.shape().to_vec());
        // Both gradients divide by B; only dB needs A.
        let ga = self.requires_grad();
        let av = other.requires_grad().then_some(av);
        Tensor::from_op(
            out,
            vec![self.clone(), other.clone()],
            Box::new(move |g| {
                let da = ga.then(|| g.div(&bv).reduce_to_shape(&sa));
                let db = av
                    .as_ref()
                    .map(|av| g.mul(av).div(&bv.mul(&bv)).scale(-1.0).reduce_to_shape(&sb));
                vec![da, db]
            }),
        )
    }

    // ------------------------------------------------------------------
    // Unary
    // ------------------------------------------------------------------

    /// Negation.
    pub fn neg(&self) -> Tensor {
        let _prof = crate::profile::op_scope("neg");
        self.scale(-1.0)
    }

    /// Multiply by a scalar constant.
    pub fn scale(&self, s: f32) -> Tensor {
        let _prof = crate::profile::op_scope("scale");
        let out = self.with_value(|a| a.scale(s));
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| vec![Some(g.scale(s))]),
        )
    }

    /// Add a scalar constant.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        let _prof = crate::profile::op_scope("add_scalar");
        let out = self.with_value(|a| a.add_scalar(s));
        Tensor::from_op(out, vec![self.clone()], Box::new(|g| vec![Some(g.clone())]))
    }

    /// Rectified linear unit.
    pub fn relu(&self) -> Tensor {
        let _prof = crate::profile::op_scope("relu");
        let xv = self.value();
        let out = xv.map_op(UnaryKind::Relu);
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| vec![Some(g.zip(&xv, |gv, x| if x > 0.0 { gv } else { 0.0 }))]),
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self) -> Tensor {
        let _prof = crate::profile::op_scope("sigmoid");
        let out = self.with_value(|a| a.map_op(UnaryKind::Sigmoid));
        let y = out.clone();
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| vec![Some(g.zip(&y, |gv, yv| gv * yv * (1.0 - yv)))]),
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        let _prof = crate::profile::op_scope("tanh");
        let out = self.with_value(|a| a.map_op(UnaryKind::Tanh));
        let y = out.clone();
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| vec![Some(g.zip(&y, |gv, yv| gv * (1.0 - yv * yv)))]),
        )
    }

    /// Elementwise exponential.
    pub fn exp(&self) -> Tensor {
        let _prof = crate::profile::op_scope("exp");
        let out = self.with_value(|a| a.map_op(UnaryKind::Exp));
        let y = out.clone();
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| vec![Some(g.mul(&y))]),
        )
    }

    /// Elementwise absolute value (subgradient 0 at 0).
    pub fn abs(&self) -> Tensor {
        let _prof = crate::profile::op_scope("abs");
        let xv = self.value();
        let out = xv.map_op(UnaryKind::Abs);
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                vec![Some(g.zip(&xv, |gv, x| {
                    gv * x.signum() * if x == 0.0 { 0.0 } else { 1.0 }
                }))]
            }),
        )
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        let _prof = crate::profile::op_scope("square");
        let xv = self.value();
        let out = xv.map_op(UnaryKind::Square);
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| vec![Some(g.zip(&xv, |gv, x| gv * 2.0 * x))]),
        )
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        let _prof = crate::profile::op_scope("sqrt");
        let out = self.with_value(|a| a.map_op(UnaryKind::Sqrt));
        let y = out.clone();
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                vec![Some(g.zip(
                    &y,
                    |gv, yv| if yv > 0.0 { gv * 0.5 / yv } else { 0.0 },
                ))]
            }),
        )
    }

    /// Inverted dropout: keeps each element with probability `1 - p`,
    /// scaling survivors by `1/(1-p)`. Identity when `training` is false.
    pub fn dropout<R: Rng>(&self, p: f32, training: bool, rng: &mut R) -> Tensor {
        let _prof = crate::profile::op_scope("dropout");
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        if !training || p == 0.0 {
            return self.clone();
        }
        let keep = 1.0 - p;
        let shape = self.shape();
        let mask_data: Vec<f32> = (0..self.numel())
            .map(|_| {
                if rng.gen::<f32>() < keep {
                    1.0 / keep
                } else {
                    0.0
                }
            })
            .collect();
        let mask = crate::error::require(Array::from_vec(&shape, mask_data), "dropout mask");
        let out = self.with_value(|a| a.mul(&mask));
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| vec![Some(g.mul(&mask))]),
        )
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix multiplication (2-D, batched or grouped 3-D, or mixed; see
    /// [`Array::matmul`]).
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let _prof = crate::profile::op_scope("matmul");
        let (av, bv) = (self.value(), other.value());
        let out = av.matmul(&bv);
        // The gradients are `g·Bᵀ` and `Aᵀ·g`, read through strides with no
        // transposed copy. When several rhs pages share one lhs page —
        // `[m,k] x [b,k,n]` (one group of `b`) or grouped `[g,m,k] x
        // [g·t,k,n]` — dA sums each group's `g·Bᵀ` pages, and when one rhs
        // page serves a batch — `[b,m,k] x [k,n]` — dB sums the `b` pages of
        // `Aᵀ·g`; both from zero in ascending page order, in registers. A
        // plain batched product sums nothing; its bits would not change
        // anyway, as a GEMM accumulates from `+0.0` and so never yields the
        // `-0.0` that a sum from zero would flip.
        let (a_shape, b_shape) = (av.shape().to_vec(), bv.shape().to_vec());
        let da_sum = match (av.shape(), bv.shape()) {
            (&[_, _], &[b, _, _]) => b,
            (&[groups, _, _], &[b, _, _]) => b.checked_div(groups).unwrap_or(0),
            _ => 1,
        };
        let db_sum = match (av.shape(), bv.shape()) {
            (&[b, _, _], &[_, _]) => b,
            _ => 1,
        };
        // The closure captures a parent's value only if the *other* parent
        // needs a gradient (dA needs B, dB needs A); a matmul against a
        // frozen weight or constant input then retains nothing for it.
        let bv = self.requires_grad().then_some(bv);
        let av = other.requires_grad().then_some(av);
        Tensor::from_op(
            out,
            vec![self.clone(), other.clone()],
            Box::new(move |g| {
                let shaped = |grad: Array, shape: &[usize]| {
                    crate::error::require(grad.reshape(shape), "matmul grad")
                };
                let da =
                    (bv.as_ref()).map(|bv| shaped(g.matmul_t(false, bv, true, da_sum), &a_shape));
                let db =
                    (av.as_ref()).map(|av| shaped(av.matmul_t(true, g, false, db_sum), &b_shape));
                vec![da, db]
            }),
        )
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Reshape to a new shape with the same element count.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let _prof = crate::profile::op_scope("reshape");
        let orig = self.shape();
        let out = self
            .with_value(|a| a.reshape(shape))
            .unwrap_or_else(|e| crate::error::violation(format_args!("reshape: {e}")));
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                vec![Some(crate::error::require(
                    g.reshape(&orig),
                    "reshape grad",
                ))]
            }),
        )
    }

    /// Swap the last two axes.
    pub fn transpose(&self) -> Tensor {
        let _prof = crate::profile::op_scope("transpose");
        let out = self.with_value(|a| a.transpose());
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(|g| vec![Some(g.transpose())]),
        )
    }

    /// Permute axes.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        let _prof = crate::profile::op_scope("permute");
        let out = self.with_value(|a| a.permute(perm));
        let mut inverse = vec![0usize; perm.len()];
        for (i, &p) in perm.iter().enumerate() {
            inverse[p] = i;
        }
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| vec![Some(g.permute(&inverse))]),
        )
    }

    /// Concatenate tensors along `axis`.
    pub fn concat(tensors: &[&Tensor], axis: usize) -> Tensor {
        let _prof = crate::profile::op_scope("concat");
        assert!(!tensors.is_empty(), "concat: empty input");
        let values: Vec<Array> = tensors.iter().map(|t| t.value()).collect();
        let refs: Vec<&Array> = values.iter().collect();
        let out = crate::error::require(Array::concat(&refs, axis), "concat");
        let sizes: Vec<usize> = values.iter().map(|v| v.shape()[axis]).collect();
        let parents: Vec<Tensor> = tensors.iter().map(|&t| t.clone()).collect();
        Tensor::from_op(
            out,
            parents,
            Box::new(move |g| {
                let mut grads = Vec::with_capacity(sizes.len());
                let mut offset = 0;
                for &sz in &sizes {
                    grads.push(Some(g.slice_axis(axis, offset, offset + sz)));
                    offset += sz;
                }
                grads
            }),
        )
    }

    /// Stack same-shaped tensors along a new axis.
    pub fn stack(tensors: &[&Tensor], axis: usize) -> Tensor {
        let _prof = crate::profile::op_scope("stack");
        assert!(!tensors.is_empty(), "stack: empty input");
        let expanded: Vec<Tensor> = tensors
            .iter()
            .map(|t| {
                let mut s = t.shape();
                s.insert(axis, 1);
                t.reshape(&s)
            })
            .collect();
        let refs: Vec<&Tensor> = expanded.iter().collect();
        Tensor::concat(&refs, axis)
    }

    /// Slice `[start, end)` along `axis`.
    pub fn slice_axis(&self, axis: usize, start: usize, end: usize) -> Tensor {
        let _prof = crate::profile::op_scope("slice_axis");
        let orig = self.shape();
        let out = self.with_value(|a| a.slice_axis(axis, start, end));
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                let mut full = Array::zeros(&orig);
                full.assign_slice_axis(axis, start, g);
                vec![Some(full)]
            }),
        )
    }

    /// Gather slices along `axis` by index (embedding lookup when axis 0).
    pub fn index_select(&self, axis: usize, indices: &[usize]) -> Tensor {
        let _prof = crate::profile::op_scope("index_select");
        let orig = self.shape();
        let idx = indices.to_vec();
        let out = self.with_value(|a| a.index_select(axis, indices));
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                let mut full = Array::zeros(&orig);
                full.index_add(axis, &idx, g);
                vec![Some(full)]
            }),
        )
    }

    /// Materialized broadcast to `target` shape.
    pub fn broadcast_to(&self, target: &[usize]) -> Tensor {
        let _prof = crate::profile::op_scope("broadcast_to");
        let orig = self.shape();
        let out = self
            .with_value(|a| a.broadcast_to(target))
            .unwrap_or_else(|e| crate::error::violation(format_args!("broadcast_to: {e}")));
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| vec![Some(g.reduce_to_shape(&orig))]),
        )
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements (scalar output).
    pub fn sum_all(&self) -> Tensor {
        let _prof = crate::profile::op_scope("sum_all");
        let orig = self.shape();
        let out = Array::scalar(self.with_value(|a| a.sum_all()));
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| vec![Some(Array::full(&orig, g.item()))]),
        )
    }

    /// Mean of all elements (scalar output).
    pub fn mean_all(&self) -> Tensor {
        let _prof = crate::profile::op_scope("mean_all");
        let n = self.numel().max(1) as f32;
        self.sum_all().scale(1.0 / n)
    }

    /// Sum along `axis`.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let _prof = crate::profile::op_scope("sum_axis");
        let orig = self.shape();
        let out = self.with_value(|a| a.sum_axis(axis, keepdim));
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                let g_keep = if keepdim {
                    g.clone()
                } else {
                    let mut s = g.shape().to_vec();
                    s.insert(axis, 1);
                    crate::error::require(g.reshape(&s), "sum_axis grad reshape")
                };
                vec![Some(crate::error::require(
                    g_keep.broadcast_to(&orig),
                    "sum_axis grad bc",
                ))]
            }),
        )
    }

    /// Mean along `axis`.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let _prof = crate::profile::op_scope("mean_axis");
        let n = self.shape()[axis].max(1) as f32;
        self.sum_axis(axis, keepdim).scale(1.0 / n)
    }

    /// Numerically stable softmax along `axis`.
    pub fn softmax(&self, axis: usize) -> Tensor {
        let _prof = crate::profile::op_scope("softmax");
        let out = self.with_value(|a| a.softmax(axis));
        let y = out.clone();
        Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(move |g| {
                // dx = (g - sum(g*y, axis)) * y
                let gy = g.mul(&y);
                let s = gy.sum_axis(axis, true);
                vec![Some(g.sub(&s).mul(&y))]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn t(shape: &[usize], data: &[f32]) -> Tensor {
        Tensor::parameter(Array::from_vec(shape, data.to_vec()).unwrap())
    }

    #[test]
    fn add_broadcast_gradients_reduce() {
        let a = t(&[2, 3], &[1., 2., 3., 4., 5., 6.]);
        let b = t(&[3], &[1., 1., 1.]);
        let y = a.add(&b).sum_all();
        y.backward();
        assert_eq!(a.grad().unwrap().data(), &[1.0; 6]);
        assert_eq!(b.grad().unwrap().data(), &[2., 2., 2.]);
    }

    #[test]
    fn mul_broadcast_gradients() {
        let a = t(&[2, 2], &[1., 2., 3., 4.]);
        let s = t(&[1], &[3.0]);
        let y = a.mul(&s).sum_all();
        y.backward();
        assert_eq!(a.grad().unwrap().data(), &[3.0; 4]);
        assert_eq!(s.grad().unwrap().data(), &[10.0]);
    }

    #[test]
    fn matmul_gradients_2d() {
        let a = t(&[2, 3], &[1., 2., 3., 4., 5., 6.]);
        let b = t(&[3, 2], &[1., 0., 0., 1., 1., 1.]);
        let y = a.matmul(&b).sum_all();
        y.backward();
        // dA = 1 * B^T rows
        assert_eq!(a.grad().unwrap().data(), &[1., 1., 2., 1., 1., 2.]);
        // dB = A^T * 1
        assert_eq!(b.grad().unwrap().data(), &[5., 5., 7., 7., 9., 9.]);
    }

    #[test]
    fn gradcheck_core_ops() {
        let mut rng = StdRng::seed_from_u64(42);
        gradcheck(
            |inputs| inputs[0].mul(&inputs[1]).sum_all(),
            &[&[2, 3], &[2, 3]],
            &mut rng,
            1e-2,
        );
        gradcheck(
            |inputs| inputs[0].matmul(&inputs[1]).square().sum_all(),
            &[&[3, 4], &[4, 2]],
            &mut rng,
            1e-2,
        );
        gradcheck(
            |inputs| inputs[0].sigmoid().sum_all(),
            &[&[5]],
            &mut rng,
            1e-2,
        );
        gradcheck(|inputs| inputs[0].tanh().sum_all(), &[&[5]], &mut rng, 1e-2);
        gradcheck(
            |inputs| inputs[0].softmax(1).square().sum_all(),
            &[&[3, 4]],
            &mut rng,
            1e-2,
        );
        gradcheck(
            |inputs| inputs[0].div(&inputs[1].add_scalar(5.0)).sum_all(),
            &[&[4], &[4]],
            &mut rng,
            1e-2,
        );
    }

    #[test]
    fn gradcheck_batched_matmul() {
        let mut rng = StdRng::seed_from_u64(1);
        gradcheck(
            |inputs| inputs[0].matmul(&inputs[1]).sum_all(),
            &[&[2, 3, 4], &[2, 4, 2]],
            &mut rng,
            1e-2,
        );
        gradcheck(
            |inputs| inputs[0].matmul(&inputs[1]).sum_all(),
            &[&[2, 3, 4], &[4, 2]],
            &mut rng,
            1e-2,
        );
        gradcheck(
            |inputs| inputs[0].matmul(&inputs[1]).sum_all(),
            &[&[3, 4], &[2, 4, 2]],
            &mut rng,
            1e-2,
        );
    }

    #[test]
    fn gradcheck_shape_ops() {
        let mut rng = StdRng::seed_from_u64(2);
        gradcheck(
            |inputs| inputs[0].reshape(&[6]).square().sum_all(),
            &[&[2, 3]],
            &mut rng,
            1e-2,
        );
        gradcheck(
            |inputs| inputs[0].transpose().square().sum_all(),
            &[&[2, 3]],
            &mut rng,
            1e-2,
        );
        gradcheck(
            |inputs| inputs[0].permute(&[2, 0, 1]).square().sum_all(),
            &[&[2, 3, 2]],
            &mut rng,
            1e-2,
        );
        gradcheck(
            |inputs| inputs[0].slice_axis(1, 1, 3).square().sum_all(),
            &[&[2, 4]],
            &mut rng,
            1e-2,
        );
        gradcheck(
            |inputs| {
                Tensor::concat(&[&inputs[0], &inputs[1]], 1)
                    .square()
                    .sum_all()
            },
            &[&[2, 2], &[2, 3]],
            &mut rng,
            1e-2,
        );
        gradcheck(
            |inputs| inputs[0].index_select(0, &[1, 1, 0]).square().sum_all(),
            &[&[3, 2]],
            &mut rng,
            1e-2,
        );
        gradcheck(
            |inputs| inputs[0].sum_axis(1, false).square().sum_all(),
            &[&[3, 4]],
            &mut rng,
            1e-2,
        );
        gradcheck(
            |inputs| inputs[0].mean_axis(0, true).square().sum_all(),
            &[&[3, 4]],
            &mut rng,
            1e-2,
        );
        gradcheck(
            |inputs| inputs[0].broadcast_to(&[4, 3]).square().sum_all(),
            &[&[1, 3]],
            &mut rng,
            1e-2,
        );
    }

    #[test]
    fn dropout_modes() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = t(&[1000], &vec![1.0; 1000]);
        let eval = x.dropout(0.5, false, &mut rng);
        assert_eq!(eval.value().sum_all(), 1000.0);
        let train = x.dropout(0.5, true, &mut rng);
        let kept = train.value().data().iter().filter(|&&v| v > 0.0).count();
        assert!(kept > 350 && kept < 650, "kept {kept}");
        // Survivors are scaled to preserve the expectation.
        let mean = train.value().mean_all();
        assert!((mean - 1.0).abs() < 0.15, "mean {mean}");
        train.sum_all().backward();
        let g = x.grad().unwrap();
        // Gradient is zero exactly where the mask dropped.
        for (gv, yv) in g.data().iter().zip(train.value().data()) {
            assert_eq!(*gv == 0.0, *yv == 0.0);
        }
    }

    #[test]
    fn stack_shapes() {
        let a = t(&[2, 3], &[0.0; 6]);
        let b = t(&[2, 3], &[1.0; 6]);
        let s = Tensor::stack(&[&a, &b], 0);
        assert_eq!(s.shape(), vec![2, 2, 3]);
        let s1 = Tensor::stack(&[&a, &b], 1);
        assert_eq!(s1.shape(), vec![2, 2, 3]);
        assert_eq!(s1.value().at(&[0, 1, 0]), 1.0);
    }

    #[test]
    fn abs_and_sqrt_values() {
        let a = t(&[3], &[-2., 0., 2.]);
        assert_eq!(a.abs().value().data(), &[2., 0., 2.]);
        let b = t(&[2], &[4., 9.]);
        assert_eq!(b.sqrt().value().data(), &[2., 3.]);
        let y = a.abs().sum_all();
        y.backward();
        assert_eq!(a.grad().unwrap().data(), &[-1., 0., 1.]);
    }
}
