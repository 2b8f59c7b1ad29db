//! Dense row-major `f32` N-dimensional arrays: the eager kernel layer under
//! the autograd [`crate::Tensor`].
//!
//! Arrays are always contiguous. Broadcasting follows NumPy semantics.
//! Element storage is an `Arc`-shared [`Buffer`] drawn from the crate's
//! size-bucketed buffer pool, so `clone()` is O(1) (copy-on-write via
//! `Arc::make_mut`) and dropped temporaries recycle their allocations.
//! Hot-path kernels — `matmul` (tiled GEMM, see [`crate::gemm`]),
//! same-shape binary ops, `map`-style unary ops, and axis reductions —
//! dispatch to the persistent compute pool ([`crate::pool`]) above the
//! `D2_PAR_THRESHOLD` op-count threshold, with fixed chunk boundaries so
//! results are bit-identical to the serial path at any thread count.

use std::sync::Arc;

use crate::buffers::{self, Buffer};
use crate::error::TensorError;
use crate::gemm;
use crate::pool;
use crate::shape::{broadcast_shapes, broadcast_strides, check_axis, numel, strides_for};
use rand::distributions::Distribution;
use rand::Rng;
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// Elements per pool chunk for elementwise kernels (128 KiB of `f32`).
/// Fixed — independent of thread count — so chunk boundaries, and hence
/// results, never vary with parallelism.
const ELEM_CHUNK: usize = 32 * 1024;

/// Pooled same-shape binary kernels. Each variant's [`BinKind::apply`] is
/// the exact arithmetic of the corresponding serial path, so pooled and
/// serial results are bit-identical.
#[derive(Clone, Copy, Debug)]
pub(crate) enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
}

impl BinKind {
    #[inline(always)]
    fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinKind::Add => a + b,
            BinKind::Sub => a - b,
            BinKind::Mul => a * b,
            BinKind::Div => a / b,
        }
    }
}

/// Pooled unary kernels (the `map`-style ops the autograd layer uses).
#[derive(Clone, Copy, Debug)]
pub(crate) enum UnaryKind {
    Relu,
    Sigmoid,
    Tanh,
    Exp,
    Abs,
    Square,
    Sqrt,
    Scale(f32),
    AddScalar(f32),
}

impl UnaryKind {
    #[inline(always)]
    fn apply(self, v: f32) -> f32 {
        match self {
            UnaryKind::Relu => v.max(0.0),
            UnaryKind::Sigmoid => 1.0 / (1.0 + (-v).exp()),
            UnaryKind::Tanh => v.tanh(),
            UnaryKind::Exp => v.exp(),
            UnaryKind::Abs => v.abs(),
            UnaryKind::Square => v * v,
            UnaryKind::Sqrt => v.sqrt(),
            UnaryKind::Scale(s) => v * s,
            UnaryKind::AddScalar(s) => v + s,
        }
    }
}

/// A dense, contiguous, row-major array of `f32` values.
#[derive(Clone, PartialEq)]
pub struct Array {
    shape: Vec<usize>,
    data: Arc<Buffer>,
}

#[derive(Serialize, Deserialize)]
struct ArrayRepr {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Serialize for Array {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        ArrayRepr {
            shape: self.shape.clone(),
            data: self.data.to_vec(),
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Array {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let repr = ArrayRepr::deserialize(deserializer)?;
        Array::from_vec(&repr.shape, repr.data).map_err(D::Error::custom)
    }
}

impl std::fmt::Debug for Array {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let preview: Vec<f32> = self.data.iter().take(8).copied().collect();
        write!(
            f,
            "Array{{shape: {:?}, data: {:?}{}}}",
            self.shape,
            preview,
            if self.data.len() > 8 { ", ..." } else { "" }
        )
    }
}

impl Array {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    fn from_parts(shape: Vec<usize>, data: Vec<f32>) -> Self {
        debug_assert_eq!(numel(&shape), data.len());
        Self {
            shape,
            data: Arc::new(Buffer::from_vec(data)),
        }
    }

    fn from_buffer(shape: Vec<usize>, data: Buffer) -> Self {
        debug_assert_eq!(numel(&shape), data.len());
        Self {
            shape,
            data: Arc::new(data),
        }
    }

    /// Create an array from a flat buffer; fails if lengths disagree.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Result<Self, TensorError> {
        if numel(shape) != data.len() {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                len: data.len(),
            });
        }
        Ok(Self::from_parts(shape.to_vec(), data))
    }

    /// All-zeros array.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::from_buffer(shape.to_vec(), Buffer::zeroed(numel(shape)))
    }

    /// All-ones array.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Array filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n = numel(shape);
        let mut data = buffers::acquire_with_capacity(n);
        data.resize(n, value);
        Self::from_parts(shape.to_vec(), data)
    }

    /// Rank-0 scalar.
    pub fn scalar(value: f32) -> Self {
        Self::from_parts(vec![], vec![value])
    }

    /// Identity matrix of size `n`.
    pub fn eye(n: usize) -> Self {
        let mut data = buffers::acquire_zeroed(n * n);
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Self::from_parts(vec![n, n], data)
    }

    /// `[0, 1, ..., n-1]` as a 1-D array.
    pub fn arange(n: usize) -> Self {
        let mut data = buffers::acquire_with_capacity(n);
        data.extend((0..n).map(|i| i as f32));
        Self::from_parts(vec![n], data)
    }

    /// Standard-normal samples (Box–Muller via `rand`).
    pub fn randn<R: Rng>(shape: &[usize], rng: &mut R) -> Self {
        let dist = StandardNormal;
        let n = numel(shape);
        let mut data = buffers::acquire_with_capacity(n);
        data.extend((0..n).map(|_| dist.sample(rng)));
        Self::from_parts(shape.to_vec(), data)
    }

    /// Uniform samples in `[lo, hi)`.
    pub fn rand_uniform<R: Rng>(shape: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        let n = numel(shape);
        let mut data = buffers::acquire_with_capacity(n);
        data.extend((0..n).map(|_| rng.gen_range(lo..hi)));
        Self::from_parts(shape.to_vec(), data)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Dimensions of the array.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Flat read-only view of the contents, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The storage this array shares with its clones and reshapes, which
    /// the tape profiler charges once however many nodes hold it.
    #[cfg(feature = "obsv")]
    pub(crate) fn buffer(&self) -> &Buffer {
        &self.data
    }

    /// Flat mutable view of the contents, row-major. Copy-on-write: if the
    /// storage is shared with a clone, it is copied first.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut Arc::make_mut(&mut self.data)[..]
    }

    /// Consume the array, returning its flat buffer.
    pub fn into_data(self) -> Vec<f32> {
        match Arc::try_unwrap(self.data) {
            Ok(buf) => buf.into_vec(),
            Err(shared) => shared.to_vec(),
        }
    }

    /// Element at multi-dimensional coordinates. Panics if out of range.
    pub fn at(&self, coords: &[usize]) -> f32 {
        self.data[self.flat_index(coords)]
    }

    /// Set element at multi-dimensional coordinates. Panics if out of range.
    pub fn set(&mut self, coords: &[usize], value: f32) {
        let idx = self.flat_index(coords);
        self.data_mut()[idx] = value;
    }

    /// Row-major offset of `coords`. Fails through the crate's panic funnel
    /// unless there is one coordinate per axis and each lies inside its axis.
    fn flat_index(&self, coords: &[usize]) -> usize {
        let inside =
            coords.len() == self.rank() && coords.iter().zip(&self.shape).all(|(c, d)| c < d);
        if !inside {
            crate::error::violation(format_args!(
                "coordinates {coords:?} out of range for shape {:?}",
                self.shape
            ));
        }
        coords
            .iter()
            .zip(&self.shape)
            .fold(0, |idx, (c, d)| idx * d + c)
    }

    /// Value of a single-element array.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires exactly one element");
        self.data[0]
    }

    /// `true` if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|v| !v.is_finite())
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Reinterpret with a new shape of identical element count. O(1): the
    /// element storage is shared with `self`.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self, TensorError> {
        if numel(shape) != self.numel() {
            return Err(TensorError::ShapeDataMismatch {
                shape: shape.to_vec(),
                len: self.numel(),
            });
        }
        Ok(Self {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Generalized transpose: `perm` is a permutation of axis indices.
    pub fn permute(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.rank(), "permute: wrong length");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            let fresh = seen.get_mut(p).is_some_and(|s| !std::mem::replace(s, true));
            assert!(fresh, "permute: invalid permutation");
        }
        // Output axis `i` is source axis `perm[i]`: its extent and stride.
        let axes: Vec<(usize, usize)> = self
            .shape
            .iter()
            .copied()
            .zip(strides_for(&self.shape))
            .collect();
        let (new_shape, strides): (Vec<usize>, Vec<usize>) =
            perm.iter().filter_map(|&p| axes.get(p).copied()).unzip();
        let data = gather(&self.data, &new_shape, &strides);
        Self::from_parts(new_shape, data)
    }

    /// Swap the last two axes (matrix transpose for rank >= 2).
    pub fn transpose(&self) -> Self {
        assert!(self.rank() >= 2, "transpose requires rank >= 2");
        let mut perm: Vec<usize> = (0..self.rank()).collect();
        let r = self.rank();
        perm.swap(r - 1, r - 2);
        self.permute(&perm)
    }

    /// Materialize a broadcast of `self` to `target` shape.
    pub fn broadcast_to(&self, target: &[usize]) -> Result<Self, TensorError> {
        let merged = broadcast_shapes(&self.shape, target)?;
        if merged != target {
            return Err(TensorError::ShapeMismatch {
                op: "broadcast_to",
                lhs: self.shape.clone(),
                rhs: target.to_vec(),
            });
        }
        if self.shape == target {
            return Ok(self.clone());
        }
        let data = gather(&self.data, target, &broadcast_strides(&self.shape, target));
        Ok(Self::from_parts(target.to_vec(), data))
    }

    // ------------------------------------------------------------------
    // Elementwise
    // ------------------------------------------------------------------

    /// Apply `f` to every element, producing a new array.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        let mut data = buffers::acquire_with_capacity(self.numel());
        data.extend(self.data.iter().map(|&v| f(v)));
        Self::from_parts(self.shape.clone(), data)
    }

    /// Apply `f` in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data_mut() {
            *v = f(*v);
        }
    }

    /// Pooled `map`: above the parallel threshold the named kernel runs in
    /// fixed chunks on the compute pool; otherwise (and with identical
    /// arithmetic) through [`Array::map`], which skips the pool's zero pass.
    pub(crate) fn map_op(&self, kind: UnaryKind) -> Self {
        let n = self.numel();
        if pool::should_pool(n) {
            let src = self.data.clone();
            let data = pool::run_chunked(
                n,
                ELEM_CHUNK,
                n,
                Arc::new(move |start: usize, out: &mut [f32]| {
                    for (o, &v) in out.iter_mut().zip(&src[start..]) {
                        *o = kind.apply(v);
                    }
                }),
            );
            Self::from_buffer(self.shape.clone(), data)
        } else {
            self.map(|v| kind.apply(v))
        }
    }

    /// Broadcasting binary operation.
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        if self.shape == other.shape {
            let mut data = buffers::acquire_with_capacity(self.numel());
            data.extend(
                self.data
                    .iter()
                    .zip(other.data.iter())
                    .map(|(&a, &b)| f(a, b)),
            );
            return Self::from_parts(self.shape.clone(), data);
        }
        let out_shape = broadcast_shapes(&self.shape, &other.shape)
            .unwrap_or_else(|e| crate::error::violation(format_args!("elementwise op: {e}")));
        let sa = broadcast_strides(&self.shape, &out_shape);
        let sb = broadcast_strides(&other.shape, &out_shape);
        let mut data = buffers::acquire_with_capacity(numel(&out_shape));
        let walk = Walk::new(&out_shape, [(&self.data, &sa), (&other.data, &sb)]);
        let (len, [step_a, step_b]) = walk.row;
        for_each_offset(&walk.outer, |[oa, ob]| {
            match (
                Run::new(&self.data, oa, step_a, len),
                Run::new(&other.data, ob, step_b, len),
            ) {
                (Run::Slice(x), Run::Slice(y)) => {
                    data.extend(x.iter().zip(y).map(|(&x, &y)| f(x, y)));
                }
                (Run::Slice(x), Run::Fill(y)) => data.extend(x.iter().map(|&x| f(x, y))),
                (Run::Fill(x), Run::Slice(y)) => data.extend(y.iter().map(|&y| f(x, y))),
                (Run::Fill(x), Run::Fill(y)) => data.extend(std::iter::repeat_n(f(x, y), len)),
                // Broadcast strides are 0 or 1 along the row.
                _ => crate::error::violation("elementwise op: a strided row"),
            }
        });
        Self::from_parts(out_shape, data)
    }

    /// Pooled same-shape binary op; falls back to the broadcasting `zip`
    /// path (serial) when shapes differ or the problem is small.
    fn binop(&self, other: &Self, kind: BinKind) -> Self {
        if self.shape == other.shape {
            let n = self.numel();
            if pool::should_pool(n) {
                let a = self.data.clone();
                let b = other.data.clone();
                let data = pool::run_chunked(
                    n,
                    ELEM_CHUNK,
                    n,
                    Arc::new(move |start: usize, out: &mut [f32]| {
                        for ((o, &x), &y) in out.iter_mut().zip(&a[start..]).zip(&b[start..]) {
                            *o = kind.apply(x, y);
                        }
                    }),
                );
                return Self::from_buffer(self.shape.clone(), data);
            }
        }
        self.zip(other, move |a, b| kind.apply(a, b))
    }

    /// Elementwise (broadcasting) addition.
    pub fn add(&self, other: &Self) -> Self {
        self.binop(other, BinKind::Add)
    }

    /// Elementwise (broadcasting) subtraction.
    pub fn sub(&self, other: &Self) -> Self {
        self.binop(other, BinKind::Sub)
    }

    /// Elementwise (broadcasting) multiplication.
    pub fn mul(&self, other: &Self) -> Self {
        self.binop(other, BinKind::Mul)
    }

    /// Elementwise (broadcasting) division.
    pub fn div(&self, other: &Self) -> Self {
        self.binop(other, BinKind::Div)
    }

    /// Accumulate `other * scale` into `self`; shapes must match exactly.
    pub fn add_scaled_assign(&mut self, other: &Self, scale: f32) {
        assert_eq!(self.shape, other.shape, "add_scaled_assign: shape mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(other.data.iter()) {
            *a += b * scale;
        }
    }

    /// Multiply every element by `s`.
    pub fn scale(&self, s: f32) -> Self {
        self.map_op(UnaryKind::Scale(s))
    }

    /// Add `s` to every element.
    pub fn add_scalar(&self, s: f32) -> Self {
        self.map_op(UnaryKind::AddScalar(s))
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements. **Deliberately never pooled**, whatever
    /// `D2_THREADS` says: a chunked partial-sum reduction would change the
    /// f32 accumulation order (addition is non-associative) and break the
    /// bit-exact resume invariant, so this stays one ascending serial pass.
    /// The tape profiler counts these in their own `serial` column (via
    /// `profile::note_serial_reduction`) so the cost shows up in
    /// `Tape::profile_report` instead of being silently unattributed.
    pub fn sum_all(&self) -> f32 {
        crate::profile::note_serial_reduction();
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty arrays). Serial for the same
    /// accumulation-order reason as [`Array::sum_all`], which it calls.
    pub fn mean_all(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum_all() / self.data.len() as f32
        }
    }

    /// Sum along `axis`. If `keepdim`, the axis remains with size 1.
    ///
    /// Chunked on whole outer-row boundaries; each output element
    /// accumulates its `mid` terms in ascending order, so pooled and inline
    /// results are bit-identical.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Self {
        crate::error::require(check_axis(axis, self.rank()), "sum_axis");
        let mut out_shape = self.shape.clone();
        out_shape[axis] = 1;
        let outer: usize = self.shape[..axis].iter().product();
        let mid = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let out_len = outer * inner;
        let src = self.data.clone();
        // Chunks are whole multiples of `inner` (a function of the problem
        // shape only), so every chunk covers complete output rows. With
        // `inner == 0` the output is empty and no chunk runs.
        let chunk = inner * (ELEM_CHUNK / inner.max(1)).max(1);
        let data = pool::run_chunked(
            out_len,
            chunk,
            out_len.saturating_mul(mid),
            Arc::new(move |start: usize, out: &mut [f32]| {
                let o0 = start / inner;
                let block = mid * inner;
                for (oi, orow) in out.chunks_mut(inner).enumerate() {
                    // Each output row adds up the `mid` rows of its own
                    // contiguous block of `src`, in ascending order.
                    let b0 = (o0 + oi) * block;
                    let terms = &src[b0..b0 + block];
                    match orow {
                        // One output per row, as in a last-axis sum: one
                        // fold, the same adds without a loop per term.
                        [slot] => terms.iter().for_each(|&v| *slot += v),
                        _ => {
                            for term in terms.chunks_exact(inner) {
                                for (slot, &v) in orow.iter_mut().zip(term) {
                                    *slot += v;
                                }
                            }
                        }
                    }
                }
            }),
        );
        if !keepdim {
            out_shape.remove(axis);
        }
        Self::from_buffer(out_shape, data)
    }

    /// Mean along `axis`.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Self {
        let n = self.shape[axis].max(1) as f32;
        self.sum_axis(axis, keepdim).scale(1.0 / n)
    }

    /// Maximum along `axis` (keepdim).
    pub fn max_axis_keepdim(&self, axis: usize) -> Self {
        crate::error::require(check_axis(axis, self.rank()), "max_axis");
        let mut out_shape = self.shape.clone();
        out_shape[axis] = 1;
        let outer: usize = self.shape[..axis].iter().product();
        let mid = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut data = buffers::acquire_zeroed(outer * inner);
        data.fill(f32::NEG_INFINITY);
        for o in 0..outer {
            for m in 0..mid {
                let base = (o * mid + m) * inner;
                let obase = o * inner;
                for i in 0..inner {
                    let v = self.data[base + i];
                    if v > data[obase + i] {
                        data[obase + i] = v;
                    }
                }
            }
        }
        Self::from_parts(out_shape, data)
    }

    /// Numerically stable softmax along `axis`.
    pub fn softmax(&self, axis: usize) -> Self {
        let max = self.max_axis_keepdim(axis);
        let shifted = self.zip(&max, |a, m| (a - m).exp());
        let denom = shifted.sum_axis(axis, true);
        shifted.zip(&denom, |e, d| if d > 0.0 { e / d } else { 0.0 })
    }

    /// Reduce `self` (already shaped like `output`) back to `input_shape` by
    /// summing over broadcast axes. Used to back-propagate through broadcasts.
    pub fn reduce_to_shape(&self, input_shape: &[usize]) -> Self {
        if self.shape == input_shape {
            return self.clone();
        }
        let (leading, repeated) = crate::shape::reduction_axes(input_shape, &self.shape);
        let mut cur = self.clone();
        // Sum away leading axes first (axis 0 repeatedly).
        for _ in 0..leading {
            cur = cur.sum_axis(0, false);
        }
        // Then sum repeated axes with keepdim to preserve positions.
        for &ax in &repeated {
            cur = cur.sum_axis(ax - leading, true);
        }
        debug_assert_eq!(cur.shape(), input_shape);
        cur
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix multiplication.
    ///
    /// Supports `[m,k] x [k,n]`, mixed `[b,m,k] x [k,n]` / `[m,k] x [b,k,n]`
    /// (the rank-2 side is broadcast across the batch), and grouped
    /// `[g,m,k] x [g·t,k,n]`, where lhs page `i` multiplies rhs pages
    /// `i·t .. (i+1)·t`; `t = 1` is the plain batched product. Every form
    /// is one tiled batched GEMM, spread over the compute pool when large;
    /// results are bit-identical at any thread count.
    pub fn matmul(&self, other: &Self) -> Self {
        self.matmul_t(false, other, false, 1)
    }

    /// `op(self) · op(other)`: the one packed GEMM behind [`Array::matmul`]
    /// and its backward. `op` reads an operand's pages with their last two
    /// axes swapped when its flag (`ta`, `tb`) is set, in place through
    /// strides, so `g·Bᵀ` and `Aᵀ·g` need no transposed copy. The forms are
    /// [`Array::matmul`]'s, with one limit: a transposed rank-3 lhs needs a
    /// rank-3 rhs.
    ///
    /// Each run of `sum` consecutive product pages is added into one output
    /// page, in page order from zero: `[p,m,n]` products come back as
    /// `[p / sum, m, n]`. That is the backward's page sum (a shared lhs
    /// page's gradient sums its rhs pages), done in registers instead of
    /// through a stored `[p,m,n]` intermediate and a `sum_axis`, with the
    /// same adds in the same order. Only products whose rhs pages each have
    /// their own lhs page can be summed.
    ///
    /// Every rhs page is packed once up front (see [`gemm::pack_b`]), then
    /// the output rows are chunked through the pool [`gemm::chunk_rows`] at
    /// a time — enough rows to carry real work, a function of the shape
    /// only — so parallelism scales with batch × rows, and chunk geometry,
    /// and hence results, are the same at every `D2_THREADS`.
    pub(crate) fn matmul_t(&self, ta: bool, other: &Self, tb: bool, sum: usize) -> Self {
        let pages_of = |shape: &[usize]| match *shape {
            [r, c] => Some((1, r, c)),
            [p, r, c] => Some((p, r, c)),
            _ => None,
        };
        let (Some((pa, ra, ca)), Some((pb, rb, cb))) =
            (pages_of(&self.shape), pages_of(&other.shape))
        else {
            crate::error::violation(format_args!(
                "matmul: unsupported ranks {} and {}",
                self.rank(),
                other.rank()
            ))
        };
        // Logical page shapes after `op`, and how a block reads the lhs.
        let (m, k, rs, cs) = if ta { (ca, ra, 1, ca) } else { (ra, ca, ca, 1) };
        let (kb, n) = if tb { (cb, rb) } else { (rb, cb) };
        assert_eq!(k, kb, "matmul: inner dims {k} vs {kb}");
        // `(products, lhs pages per product, rows per page, output shape)`.
        // Against a rank-2 rhs, a row-major lhs is one page of all its rows.
        let (products, group, m, out_shape) = match (other.rank(), ta && self.rank() == 3) {
            (2, false) => {
                let out_shape = match self.rank() {
                    3 => vec![pa, m, n],
                    _ => vec![m, n],
                };
                (1, 1, pa * m, out_shape)
            }
            (3, _) => {
                let group = pb.checked_div(pa).unwrap_or(0);
                assert_eq!(
                    pa * group,
                    pb,
                    "matmul: batch {pb} is not a multiple of {pa}"
                );
                let outs = pb.checked_div(sum).unwrap_or(0);
                (pb, group, m, vec![outs, m, n])
            }
            _ => crate::error::violation("matmul: a transposed rank-3 lhs needs a rank-3 rhs"),
        };
        if products.checked_rem(sum) != Some(0) || (sum > 1 && group > 1) {
            crate::error::violation(format_args!(
                "matmul: cannot sum runs of {sum} of {products} product pages"
            ));
        }
        let a_page = ra * ca;
        let a = self.data.clone();
        let packed = Buffer::from_vec(gemm::pack_b(&other.data, products, k, n, tb));
        let data = pool::run_chunked(
            numel(&out_shape),
            gemm::chunk_rows(numel(&out_shape).checked_div(n).unwrap_or(0), k * n * sum) * n,
            products
                .saturating_mul(m)
                .saturating_mul(k)
                .saturating_mul(n),
            Arc::new(move |start: usize, out: &mut [f32]| {
                // A chunk may span output pages; walk it one page at a
                // time. `out.len()` is always a multiple of `n` (chunk and
                // total both are).
                let mut start = start;
                let mut rest = out;
                while !rest.is_empty() {
                    let o = start / (m * n);
                    let i0 = (start - o * m * n) / n;
                    let rows = ((m - i0) * n).min(rest.len()) / n;
                    let first = o * sum;
                    let lhs = gemm::Lhs {
                        off: first.checked_div(group).unwrap_or(0) * a_page + i0 * rs,
                        rs,
                        cs,
                        page: a_page,
                    };
                    let (chunk_out, tail) = std::mem::take(&mut rest).split_at_mut(rows * n);
                    let pages = &packed[first * k * n..(first + sum) * k * n];
                    gemm::block(&a, lhs, k, pages, sum, n, chunk_out);
                    start += rows * n;
                    rest = tail;
                }
            }),
        );
        Self::from_buffer(out_shape, data)
    }

    /// The seed's naive serial matmul (rank 2 only), kept as the reference
    /// baseline for the `tensor_kernels` bench and the determinism suite.
    /// Production code uses [`Array::matmul`], whose tiled kernel matches
    /// this one value-for-value (only a zero's sign bit may differ; see the
    /// gemm module docs).
    #[doc(hidden)]
    pub fn matmul_reference(&self, other: &Self) -> Self {
        assert_eq!(self.rank(), 2, "matmul_reference: lhs must be rank 2");
        assert_eq!(other.rank(), 2, "matmul_reference: rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        assert_eq!(
            k, other.shape[0],
            "matmul: inner dims {k} vs {}",
            other.shape[0]
        );
        let n = other.shape[1];
        let mut data = buffers::acquire_zeroed(m * n);
        gemm::naive(&self.data, &other.data, &mut data, m, k, n);
        Self::from_parts(vec![m, n], data)
    }

    // ------------------------------------------------------------------
    // Combination / slicing
    // ------------------------------------------------------------------

    /// Concatenate arrays along `axis`. All other dimensions must agree.
    pub fn concat(arrays: &[&Self], axis: usize) -> Result<Self, TensorError> {
        if arrays.is_empty() {
            return Err(TensorError::Empty("concat"));
        }
        let rank = arrays[0].rank();
        check_axis(axis, rank)?;
        for a in arrays {
            if a.rank() != rank {
                return Err(TensorError::ShapeMismatch {
                    op: "concat",
                    lhs: arrays[0].shape.clone(),
                    rhs: a.shape.clone(),
                });
            }
            for d in 0..rank {
                if d != axis && a.shape[d] != arrays[0].shape[d] {
                    return Err(TensorError::ShapeMismatch {
                        op: "concat",
                        lhs: arrays[0].shape.clone(),
                        rhs: a.shape.clone(),
                    });
                }
            }
        }
        let mut out_shape = arrays[0].shape.clone();
        out_shape[axis] = arrays.iter().map(|a| a.shape[axis]).sum();
        let outer: usize = out_shape[..axis].iter().product();
        let inner: usize = out_shape[axis + 1..].iter().product();
        let mut data = buffers::acquire_with_capacity(numel(&out_shape));
        for o in 0..outer {
            for a in arrays {
                let mid = a.shape[axis];
                let start = o * mid * inner;
                data.extend_from_slice(&a.data[start..start + mid * inner]);
            }
        }
        Ok(Self::from_parts(out_shape, data))
    }

    /// Stack arrays of identical shape along a new leading axis at `axis`.
    pub fn stack(arrays: &[&Self], axis: usize) -> Result<Self, TensorError> {
        if arrays.is_empty() {
            return Err(TensorError::Empty("stack"));
        }
        let expanded: Vec<Self> = arrays
            .iter()
            .map(|a| {
                let mut s = a.shape.clone();
                s.insert(axis, 1);
                crate::error::require(a.reshape(&s), "stack")
            })
            .collect();
        let refs: Vec<&Self> = expanded.iter().collect();
        Self::concat(&refs, axis)
    }

    /// Slice `[start, end)` along `axis`.
    pub fn slice_axis(&self, axis: usize, start: usize, end: usize) -> Self {
        crate::error::require(check_axis(axis, self.rank()), "slice_axis");
        assert!(
            start <= end && end <= self.shape[axis],
            "slice_axis: range {start}..{end} out of bounds for dim {}",
            self.shape[axis]
        );
        let outer: usize = self.shape[..axis].iter().product();
        let mid = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut out_shape = self.shape.clone();
        out_shape[axis] = end - start;
        let mut data = buffers::acquire_with_capacity(numel(&out_shape));
        for o in 0..outer {
            let base = (o * mid + start) * inner;
            data.extend_from_slice(&self.data[base..base + (end - start) * inner]);
        }
        Self::from_parts(out_shape, data)
    }

    /// Write `src` into the `[start, start+len)` range of `axis` (len from src).
    pub fn assign_slice_axis(&mut self, axis: usize, start: usize, src: &Self) {
        assert_eq!(self.rank(), src.rank(), "assign_slice: rank mismatch");
        for d in 0..self.rank() {
            if d != axis {
                assert_eq!(
                    self.shape[d], src.shape[d],
                    "assign_slice: dim {d} mismatch"
                );
            }
        }
        let len = src.shape[axis];
        assert!(
            start + len <= self.shape[axis],
            "assign_slice: out of range"
        );
        let outer: usize = self.shape[..axis].iter().product();
        let mid = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let data = self.data_mut();
        for o in 0..outer {
            let dst_base = (o * mid + start) * inner;
            let src_base = o * len * inner;
            data[dst_base..dst_base + len * inner]
                .copy_from_slice(&src.data[src_base..src_base + len * inner]);
        }
    }

    /// Gather rows along `axis` by index.
    pub fn index_select(&self, axis: usize, indices: &[usize]) -> Self {
        crate::error::require(check_axis(axis, self.rank()), "index_select");
        let outer: usize = self.shape[..axis].iter().product();
        let mid = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        let mut out_shape = self.shape.clone();
        out_shape[axis] = indices.len();
        let mut data = buffers::acquire_with_capacity(numel(&out_shape));
        for o in 0..outer {
            for &idx in indices {
                assert!(idx < mid, "index_select: index {idx} out of range {mid}");
                let base = (o * mid + idx) * inner;
                data.extend_from_slice(&self.data[base..base + inner]);
            }
        }
        Self::from_parts(out_shape, data)
    }

    /// Scatter-add: the inverse of `index_select` for gradients. For each
    /// position `j` in `indices`, adds the `j`-th slice of `src` into the
    /// `indices[j]`-th slice of `self` along `axis`.
    pub fn index_add(&mut self, axis: usize, indices: &[usize], src: &Self) {
        let outer: usize = self.shape[..axis].iter().product();
        let mid = self.shape[axis];
        let inner: usize = self.shape[axis + 1..].iter().product();
        assert_eq!(src.shape[axis], indices.len(), "index_add: count mismatch");
        let data = self.data_mut();
        for o in 0..outer {
            for (j, &idx) in indices.iter().enumerate() {
                assert!(idx < mid, "index_add: index out of range");
                let dst = (o * mid + idx) * inner;
                let s = (o * indices.len() + j) * inner;
                for i in 0..inner {
                    data[dst + i] += src.data[s + i];
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Strided row walk: the one layout-copy loop behind `permute`,
// `broadcast_to` and broadcasting `zip`
// ----------------------------------------------------------------------

/// The geometry of a walk over a row-major output of `K` strided operands.
/// Unit axes are dropped and adjacent axes that every operand walks as one
/// (`stride[i] == stride[i+1] · extent[i+1]`) are merged, so the row is as
/// long as the layouts allow.
struct Walk<const K: usize> {
    /// Axes above the row, outermost first: `(extent, stride per operand)`.
    outer: Vec<(usize, [usize; K])>,
    /// The innermost axis: its length and each operand's stride along it.
    row: (usize, [usize; K]),
}

impl<const K: usize> Walk<K> {
    /// `operands` holds, per operand, its data and its element stride along
    /// each output axis of `shape` (0 on a broadcast axis). Fails through
    /// [`crate::error::violation`] unless every operand's last offset lies
    /// inside its data, so each row [`Run::new`] cuts is in range.
    fn new(shape: &[usize], operands: [(&[f32], &[usize]); K]) -> Self {
        if shape.contains(&0) {
            // An empty output: no rows at all.
            return Self {
                outer: vec![(0, [0; K])],
                row: (0, [0; K]),
            };
        }
        let mut axes: Vec<(usize, [usize; K])> = Vec::with_capacity(shape.len());
        let mut last = [0usize; K];
        for (i, &extent) in shape.iter().enumerate() {
            if extent == 1 {
                continue;
            }
            let step = operands.map(|(_, strides)| {
                strides.get(i).copied().unwrap_or_else(|| {
                    crate::error::violation(format_args!("layout walk: no stride for axis {i}"))
                })
            });
            for (l, s) in last.iter_mut().zip(step) {
                *l += (extent - 1) * s;
            }
            match axes.last_mut() {
                Some((prev_extent, prev))
                    if prev.iter().zip(&step).all(|(&p, &s)| p == s * extent) =>
                {
                    *prev_extent *= extent;
                    *prev = step;
                }
                _ => axes.push((extent, step)),
            }
        }
        for ((data, _), last) in operands.iter().zip(last) {
            if last >= data.len() {
                crate::error::violation(format_args!(
                    "layout walk over {shape:?} reads element {last} of {}",
                    data.len()
                ));
            }
        }
        let row = axes.pop().unwrap_or((1, [0; K]));
        Self { outer: axes, row }
    }
}

/// Call `f` with every operand's offset at each position of the row-major
/// odometer over `axes` (`(extent, stride per operand)`, outermost first).
/// Empty `axes` is a single position at offset 0.
fn for_each_offset<const K: usize>(axes: &[(usize, [usize; K])], mut f: impl FnMut([usize; K])) {
    let count: usize = axes.iter().map(|&(extent, _)| extent).product();
    let mut coords = vec![0usize; axes.len()];
    let mut offsets = [0usize; K];
    for _ in 0..count {
        f(offsets);
        for (c, &(extent, step)) in coords.iter_mut().zip(axes).rev() {
            *c += 1;
            if *c < extent {
                for (o, s) in offsets.iter_mut().zip(step) {
                    *o += s;
                }
                break;
            }
            // Roll over: back to coordinate 0 on this axis, carry outward.
            *c = 0;
            for (o, s) in offsets.iter_mut().zip(step) {
                *o -= s * (extent - 1);
            }
        }
    }
}

/// One operand's elements along an output row of a [`Walk`].
enum Run<'a> {
    /// Stride 1: a contiguous slice.
    Slice(&'a [f32]),
    /// Stride 0: one value, repeated.
    Fill(f32),
    /// Any other stride: every `step`-th element of the slice, from its
    /// first to its last.
    Strided(&'a [f32], usize),
}

impl<'a> Run<'a> {
    /// The `len` (at least 1) elements of `data` from `offset` at `stride`,
    /// a row that [`Walk::new`] has checked lies inside `data`.
    fn new(data: &'a [f32], offset: usize, stride: usize, len: usize) -> Self {
        let span = match stride {
            0 => 1,
            step => (len - 1) * step + 1,
        };
        let Some(run) = data.get(offset..offset + span) else {
            crate::error::violation(format_args!(
                "layout walk: row {offset}..{} of {}",
                offset + span,
                data.len()
            ))
        };
        match (stride, run) {
            (1, _) => Run::Slice(run),
            (0, &[v]) => Run::Fill(v),
            (step, _) => Run::Strided(run, step),
        }
    }
}

/// Copy `src`, read through per-axis `strides` as an array of `shape`,
/// into a new row-major buffer: a slice copy per contiguous row, a fill per
/// stride-0 row, a strided gather otherwise.
fn gather(src: &[f32], shape: &[usize], strides: &[usize]) -> Vec<f32> {
    let mut data = buffers::acquire_with_capacity(numel(shape));
    let walk = Walk::new(shape, [(src, strides)]);
    let (len, [step]) = walk.row;
    for_each_offset(&walk.outer, |[off]| match Run::new(src, off, step, len) {
        Run::Slice(s) => data.extend_from_slice(s),
        Run::Fill(v) => data.extend(std::iter::repeat_n(v, len)),
        Run::Strided(s, stride) => data.extend(s.iter().step_by(stride)),
    });
    data
}

/// Standard normal distribution via Box–Muller (avoids rand_distr dependency).
struct StandardNormal;

impl Distribution<f32> for StandardNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        loop {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let v = r * (2.0 * std::f32::consts::PI * u2).cos();
            if v.is_finite() {
                return v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arr(shape: &[usize], data: &[f32]) -> Array {
        Array::from_vec(shape, data.to_vec()).unwrap()
    }

    #[test]
    fn constructors() {
        assert_eq!(Array::zeros(&[2, 3]).numel(), 6);
        assert_eq!(Array::ones(&[2]).data(), &[1.0, 1.0]);
        assert_eq!(Array::full(&[2], 3.5).data(), &[3.5, 3.5]);
        assert_eq!(Array::scalar(2.0).item(), 2.0);
        assert_eq!(Array::eye(2).data(), &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(Array::arange(3).data(), &[0.0, 1.0, 2.0]);
        assert!(Array::from_vec(&[2, 2], vec![1.0]).is_err());
    }

    #[test]
    fn randn_statistics() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Array::randn(&[10_000], &mut rng);
        let mean = a.mean_all();
        let var = a.map(|v| v * v).mean_all() - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn elementwise_broadcast() {
        let a = arr(&[2, 3], &[1., 2., 3., 4., 5., 6.]);
        let b = arr(&[3], &[10., 20., 30.]);
        assert_eq!(a.add(&b).data(), &[11., 22., 33., 14., 25., 36.]);
        let c = arr(&[2, 1], &[1., 2.]);
        assert_eq!(a.mul(&c).data(), &[1., 2., 3., 8., 10., 12.]);
        assert_eq!(a.sub(&a).sum_all(), 0.0);
        assert_eq!(a.div(&a).sum_all(), 6.0);
        assert_eq!(a.scale(2.0).data()[5], 12.0);
        assert_eq!(a.add_scalar(1.0).data()[0], 2.0);
        // A unit operand against an empty one gives an empty result.
        let empty = Array::zeros(&[0, 3]);
        assert_eq!(empty.add(&arr(&[1, 1], &[1.])).shape(), &[0, 3]);
        assert_eq!(arr(&[1], &[1.]).broadcast_to(&[0]).unwrap().numel(), 0);
    }

    #[test]
    #[should_panic(expected = "elementwise op")]
    fn elementwise_incompatible_panics() {
        let a = arr(&[2, 3], &[0.; 6]);
        let b = arr(&[2, 4], &[0.; 8]);
        let _ = a.add(&b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn at_rejects_a_coordinate_past_its_axis() {
        // Flat offset 4 is inside the data; coordinate 4 is not inside axis 1.
        Array::zeros(&[2, 3]).at(&[0, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_rejects_too_few_coordinates() {
        Array::zeros(&[2, 3]).set(&[1], 1.0);
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut a = arr(&[2, 2], &[1., 2., 3., 4.]);
        let b = a.clone();
        a.data_mut()[0] = 9.0;
        assert_eq!(a.data()[0], 9.0);
        assert_eq!(b.data()[0], 1.0, "clone must not observe the write");
        // Reshape shares storage but stays value-semantic too.
        let mut c = b.reshape(&[4]).unwrap();
        c.set(&[1], 7.0);
        assert_eq!(b.data()[1], 2.0);
        assert_eq!(c.data(), &[1., 7., 3., 4.]);
    }

    #[test]
    fn reductions() {
        let a = arr(&[2, 3], &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.sum_all(), 21.0);
        assert_eq!(a.mean_all(), 3.5);
        assert_eq!(a.sum_axis(0, false).data(), &[5., 7., 9.]);
        assert_eq!(a.sum_axis(1, false).data(), &[6., 15.]);
        assert_eq!(a.sum_axis(1, true).shape(), &[2, 1]);
        assert_eq!(a.mean_axis(1, false).data(), &[2., 5.]);
        assert_eq!(a.max_axis_keepdim(1).data(), &[3., 6.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = arr(&[2, 3], &[1., 2., 3., 1000., 1000., 1000.]);
        let s = a.softmax(1);
        let sums = s.sum_axis(1, false);
        assert!((sums.data()[0] - 1.0).abs() < 1e-6);
        assert!((sums.data()[1] - 1.0).abs() < 1e-6);
        assert!(!s.has_non_finite(), "softmax must be stable for big inputs");
    }

    #[test]
    fn matmul_2d_known_values() {
        let a = arr(&[2, 3], &[1., 2., 3., 4., 5., 6.]);
        let b = arr(&[3, 2], &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_batched_and_mixed() {
        let a = arr(&[2, 2, 2], &[1., 0., 0., 1., 2., 0., 0., 2.]);
        let b = arr(&[2, 2], &[1., 2., 3., 4.]);
        let c = a.matmul(&b); // [2,2,2] x [2,2]
        assert_eq!(c.shape(), &[2, 2, 2]);
        assert_eq!(&c.data()[..4], &[1., 2., 3., 4.]);
        assert_eq!(&c.data()[4..], &[2., 4., 6., 8.]);

        let d = b.matmul(&a); // [2,2] x [2,2,2]
        assert_eq!(d.shape(), &[2, 2, 2]);
        assert_eq!(&d.data()[..4], &[1., 2., 3., 4.]);

        let e = a.matmul(&a); // [2,2,2] x [2,2,2]
        assert_eq!(&e.data()[4..], &[4., 0., 0., 4.]);
    }

    #[test]
    fn matmul_matches_reference_values() {
        // `==` rather than `to_bits`: the tiled kernel drops the seed
        // kernel's zero-skip, which can flip a zero's sign bit but never
        // changes a value (see the gemm module docs).
        let mut rng = StdRng::seed_from_u64(3);
        let a = Array::randn(&[80, 70], &mut rng);
        let b = Array::randn(&[70, 90], &mut rng);
        let big = a.matmul(&b);
        let reference = a.matmul_reference(&b);
        let same = big.data().iter().zip(reference.data()).all(|(x, y)| x == y);
        assert!(same, "tiled matmul must match the seed kernel's values");
    }

    #[test]
    fn transpose_and_permute() {
        let a = arr(&[2, 3], &[1., 2., 3., 4., 5., 6.]);
        let t = a.transpose();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.data(), &[1., 4., 2., 5., 3., 6.]);
        let b = arr(&[2, 3, 4], &(0..24).map(|i| i as f32).collect::<Vec<_>>());
        let p = b.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.at(&[1, 0, 2]), b.at(&[0, 2, 1]));
    }

    #[test]
    fn concat_stack_slice() {
        let a = arr(&[2, 2], &[1., 2., 3., 4.]);
        let b = arr(&[2, 2], &[5., 6., 7., 8.]);
        let c0 = Array::concat(&[&a, &b], 0).unwrap();
        assert_eq!(c0.shape(), &[4, 2]);
        assert_eq!(c0.data(), &[1., 2., 3., 4., 5., 6., 7., 8.]);
        let c1 = Array::concat(&[&a, &b], 1).unwrap();
        assert_eq!(c1.shape(), &[2, 4]);
        assert_eq!(c1.data(), &[1., 2., 5., 6., 3., 4., 7., 8.]);
        let s = Array::stack(&[&a, &b], 0).unwrap();
        assert_eq!(s.shape(), &[2, 2, 2]);
        assert_eq!(c1.slice_axis(1, 2, 4).data(), b.data());
        assert_eq!(c0.slice_axis(0, 2, 4).data(), b.data());
        assert!(Array::concat(&[], 0).is_err());
        let bad = arr(&[3, 2], &[0.; 6]);
        assert!(Array::concat(&[&a, &bad], 1).is_err());
    }

    #[test]
    fn assign_slice_roundtrip() {
        let mut z = Array::zeros(&[2, 4]);
        let a = arr(&[2, 2], &[1., 2., 3., 4.]);
        z.assign_slice_axis(1, 1, &a);
        assert_eq!(z.data(), &[0., 1., 2., 0., 0., 3., 4., 0.]);
        assert_eq!(z.slice_axis(1, 1, 3).data(), a.data());
    }

    #[test]
    fn index_select_and_add() {
        let a = arr(&[3, 2], &[1., 2., 3., 4., 5., 6.]);
        let g = a.index_select(0, &[2, 0, 2]);
        assert_eq!(g.shape(), &[3, 2]);
        assert_eq!(g.data(), &[5., 6., 1., 2., 5., 6.]);
        let mut acc = Array::zeros(&[3, 2]);
        acc.index_add(0, &[2, 0, 2], &g);
        assert_eq!(acc.data(), &[1., 2., 0., 0., 10., 12.]);
    }

    #[test]
    fn broadcast_to_and_reduce_back() {
        let a = arr(&[2, 1], &[1., 2.]);
        let b = a.broadcast_to(&[2, 3]).unwrap();
        assert_eq!(b.data(), &[1., 1., 1., 2., 2., 2.]);
        let r = b.reduce_to_shape(&[2, 1]);
        assert_eq!(r.data(), &[3., 6.]);
        let c = arr(&[3], &[1., 1., 1.]);
        let d = c.broadcast_to(&[2, 3]).unwrap();
        assert_eq!(d.reduce_to_shape(&[3]).data(), &[2., 2., 2.]);
        assert!(a.broadcast_to(&[3, 2]).is_err());
    }

    #[test]
    fn reshape_checks_count() {
        let a = arr(&[2, 3], &[0.; 6]);
        assert!(a.reshape(&[3, 2]).is_ok());
        assert!(a.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Array::zeros(&[2]);
        assert!(!a.has_non_finite());
        a.data_mut()[1] = f32::NAN;
        assert!(a.has_non_finite());
    }
}
