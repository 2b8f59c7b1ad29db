//! Pooled compressed-sparse-row kernels and the sparse-matmul autograd op.
//!
//! City-scale road graphs (ROADMAP item 5: 10k–100k nodes) make the dense
//! `[N, N]` transition matmul of the diffusion model an O(N²) wall. This
//! module provides the sparse substrate the upper layers dispatch to when a
//! transition matrix crosses the sparsity threshold: an `Arc`-backed CSR
//! matrix whose sparse × dense product (`spmm`) runs on the same compute
//! pool as the dense GEMM, plus a [`Tensor::spmm`] autograd op whose
//! backward pass multiplies by the transposed CSR.
//!
//! **Determinism contract.** Chunk boundaries are a function of the problem
//! size only ([`SPMM_ROW_CHUNK`] output rows per chunk — a fixed constant,
//! never derived from the thread count), a chunk never splits an output
//! row, and each output element accumulates its row's non-zeros in CSR
//! (column-ascending) order however the rows are chunked. Results are
//! therefore bit-identical across `D2_THREADS` ∈ {1, 2, 8, ...} and with
//! [`crate::pool::with_serial`].
//!
//! **Sparse vs dense equivalence.** The dense kernel accumulates
//! `Σ_k a_ik · x_kj` with `k` ascending; the sparse kernel skips the terms
//! where `a_ik` is not stored (exactly zero). Skipping a zero term is
//! value-preserving for finite inputs — `acc + (±0.0)` never changes a
//! finite accumulator, and a running sum that starts at `+0.0` can never
//! become `-0.0` — so sparse and dense paths agree bit-for-bit on the same
//! data (the same argument the dense GEMM's zero-skip documents in
//! [`crate::gemm`]).

use std::sync::Arc;

use crate::array::Array;
use crate::error::{require, TensorError};
use crate::pool;
use crate::tensor::Tensor;

/// Output rows per pooled spmm chunk. Fixed — never derived from the thread
/// count — so chunk geometry depends only on the problem size.
pub const SPMM_ROW_CHUNK: usize = 16;

/// A compressed-sparse-row `f32` matrix with shared (`Arc`) storage.
///
/// Clones are O(1) handle copies, which lets the pooled kernels and the
/// autograd backward closures capture the matrix without copying the
/// non-zeros.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// Row start offsets into `col_idx`/`values`; length `rows + 1`.
    row_ptr: Arc<Vec<usize>>,
    /// Column index per non-zero, strictly increasing within each row.
    col_idx: Arc<Vec<usize>>,
    /// Non-zero values (finite by construction).
    values: Arc<Vec<f32>>,
}

impl CsrMatrix {
    /// Build from raw CSR parts, validating every structural invariant:
    /// `row_ptr` must have `rows + 1` monotone entries starting at 0 and
    /// ending at the non-zero count, column indices must be in-bounds and
    /// strictly increasing within each row, and all values must be finite.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f32>,
    ) -> Result<Self, TensorError> {
        let structure = TensorError::ShapeMismatch {
            op: "sparse_from_raw",
            lhs: vec![rows, cols],
            rhs: vec![row_ptr.len(), col_idx.len(), values.len()],
        };
        if row_ptr.len() != rows + 1
            || col_idx.len() != values.len()
            || row_ptr.first() != Some(&0)
            || row_ptr.last() != Some(&col_idx.len())
        {
            return Err(structure);
        }
        for r in 0..rows {
            let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
            if lo > hi || hi > col_idx.len() {
                return Err(structure);
            }
            let mut prev: Option<usize> = None;
            for &c in &col_idx[lo..hi] {
                if c >= cols || prev.is_some_and(|p| p >= c) {
                    return Err(structure);
                }
                prev = Some(c);
            }
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(TensorError::NonFinite {
                op: "sparse_from_raw",
            });
        }
        Ok(Self {
            rows,
            cols,
            row_ptr: Arc::new(row_ptr),
            col_idx: Arc::new(col_idx),
            values: Arc::new(values),
        })
    }

    /// Build from a dense rank-2 array, keeping entries with
    /// `|v| > threshold`. Any non-finite entry (NaN/Inf) is rejected with a
    /// typed error — a corrupted matrix must fail loudly rather than
    /// poisoning every downstream product.
    ///
    /// # Panics
    /// If `dense` is not rank 2 (programming error, routed through the
    /// crate's panic funnel).
    pub fn from_dense(dense: &Array, threshold: f32) -> Result<Self, TensorError> {
        let shape = dense.shape();
        if shape.len() != 2 {
            crate::error::violation(format_args!(
                "sparse_from_dense expects a rank-2 array, got {shape:?}"
            ));
        }
        let (rows, cols) = (shape[0], shape[1]);
        if dense.data().iter().any(|v| !v.is_finite()) {
            return Err(TensorError::NonFinite {
                op: "sparse_from_dense",
            });
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..rows {
            let row = &dense.data()[r * cols..(r + 1) * cols];
            for (c, &v) in row.iter().enumerate() {
                if v.abs() > threshold {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok(Self {
            rows,
            cols,
            row_ptr: Arc::new(row_ptr),
            col_idx: Arc::new(col_idx),
            values: Arc::new(values),
        })
    }

    /// Build from `(row, col, value)` triplets; duplicate positions are
    /// summed (in triplet order). Non-finite values are rejected.
    ///
    /// # Panics
    /// If a triplet's row/col is out of bounds (programming error, routed
    /// through the crate's panic funnel).
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f32)],
    ) -> Result<Self, TensorError> {
        let mut per_row: Vec<Vec<(usize, f32)>> = vec![Vec::new(); rows];
        for &(r, c, v) in triplets {
            if r >= rows || c >= cols {
                crate::error::violation(format_args!(
                    "triplet ({r},{c}) out of bounds for a {rows}x{cols} matrix"
                ));
            }
            if !v.is_finite() {
                return Err(TensorError::NonFinite {
                    op: "sparse_from_triplets",
                });
            }
            per_row[r].push((c, v));
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in &mut per_row {
            // Stable sort keeps duplicate positions in triplet order, so the
            // summation order is deterministic.
            row.sort_by_key(|(c, _)| *c);
            let mut last: Option<usize> = None;
            for &(c, v) in row.iter() {
                if let (Some(prev), true) = (values.last_mut(), last == Some(c)) {
                    *prev += v;
                } else {
                    col_idx.push(c);
                    values.push(v);
                    last = Some(c);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok(Self {
            rows,
            cols,
            row_ptr: Arc::new(row_ptr),
            col_idx: Arc::new(col_idx),
            values: Arc::new(values),
        })
    }

    /// Matrix dimensions `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries that are not stored.
    pub fn sparsity(&self) -> f32 {
        1.0 - self.nnz() as f32 / (self.rows * self.cols).max(1) as f32
    }

    /// Value at `(r, c)` (zero when not stored).
    pub fn get(&self, r: usize, c: usize) -> f32 {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        match self.col_idx[lo..hi].binary_search(&c) {
            Ok(pos) => self.values[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// Row start offsets (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index per non-zero.
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Non-zero values, in `row_ptr`/`col_idx` order.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Convert back to a dense `[rows, cols]` array.
    pub fn to_dense(&self) -> Array {
        let mut out = Array::zeros(&[self.rows, self.cols]);
        for r in 0..self.rows {
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                out.data_mut()[r * self.cols + self.col_idx[i]] = self.values[i];
            }
        }
        out
    }

    /// The transposed matrix, built with a counting sort over columns so the
    /// result is again a valid CSR (column-sorted within rows). O(nnz).
    pub fn transpose(&self) -> CsrMatrix {
        let nnz = self.nnz();
        let mut row_ptr_t = vec![0usize; self.cols + 1];
        for &c in self.col_idx.iter() {
            row_ptr_t[c + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr_t[c + 1] += row_ptr_t[c];
        }
        let mut next = row_ptr_t.clone();
        let mut col_idx_t = vec![0usize; nnz];
        let mut values_t = vec![0.0f32; nnz];
        for r in 0..self.rows {
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[i];
                let pos = next[c];
                next[c] += 1;
                col_idx_t[pos] = r;
                values_t[pos] = self.values[i];
            }
        }
        Self {
            rows: self.cols,
            cols: self.rows,
            row_ptr: Arc::new(row_ptr_t),
            col_idx: Arc::new(col_idx_t),
            values: Arc::new(values_t),
        }
    }

    /// Zero the diagonal without changing the stored structure.
    pub fn mask_diagonal(&self) -> CsrMatrix {
        let mut values = self.values.as_ref().clone();
        for r in 0..self.rows.min(self.cols) {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            for (c, v) in self.col_idx[lo..hi].iter().zip(&mut values[lo..hi]) {
                if *c == r {
                    *v = 0.0;
                }
            }
        }
        Self {
            values: Arc::new(values),
            ..self.clone()
        }
    }

    /// Sparse × sparse product (Gustavson row-merge), used for the masked
    /// transition powers `P^k`. Per output element the contributions
    /// accumulate with the inner index ascending — the same order as the
    /// dense matmul minus its zero terms, so values match the dense power
    /// bit-for-bit.
    pub fn matmul_sparse(&self, other: &CsrMatrix) -> Result<CsrMatrix, TensorError> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "spgemm",
                lhs: vec![self.rows, self.cols],
                rhs: vec![other.rows, other.cols],
            });
        }
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        let mut acc = vec![0.0f32; other.cols];
        let mut seen = vec![false; other.cols];
        let mut touched: Vec<usize> = Vec::new();
        for r in 0..self.rows {
            touched.clear();
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                let k = self.col_idx[i];
                let w = self.values[i];
                for j in other.row_ptr[k]..other.row_ptr[k + 1] {
                    let c = other.col_idx[j];
                    if !seen[c] {
                        seen[c] = true;
                        touched.push(c);
                    }
                    acc[c] += w * other.values[j];
                }
            }
            // Structural zeros that cancelled numerically are kept: the
            // pattern is the structural product, deterministically sorted.
            touched.sort_unstable();
            for &c in &touched {
                col_idx.push(c);
                values.push(acc[c]);
                acc[c] = 0.0;
                seen[c] = false;
            }
            row_ptr.push(col_idx.len());
        }
        Ok(Self {
            rows: self.rows,
            cols: other.cols,
            row_ptr: Arc::new(row_ptr),
            col_idx: Arc::new(col_idx),
            values: Arc::new(values),
        })
    }

    /// Sparse × dense: `[r, k] × [k, m] -> [r, m]`, or batched
    /// `[r, k] × [B, k, m] -> [B, r, m]`, filled in fixed row panels that
    /// large products spread over the compute pool; results are
    /// bit-identical at any `D2_THREADS`.
    pub fn try_matmul(&self, dense: &Array) -> Result<Array, TensorError> {
        let shape = dense.shape();
        let mismatch = || TensorError::ShapeMismatch {
            op: "spmm",
            lhs: vec![self.rows, self.cols],
            rhs: shape.to_vec(),
        };
        let (b, m, out_shape) = match shape.len() {
            2 => {
                if shape[0] != self.cols {
                    return Err(mismatch());
                }
                (1, shape[1], vec![self.rows, shape[1]])
            }
            3 => {
                if shape[1] != self.cols {
                    return Err(mismatch());
                }
                (shape[0], shape[2], vec![shape[0], self.rows, shape[2]])
            }
            _ => return Err(mismatch()),
        };

        let s = self.clone();
        let x = dense.clone();
        let data = pool::run_chunked(
            b * self.rows * m,
            SPMM_ROW_CHUNK * m,
            b.saturating_mul(self.nnz()).saturating_mul(m),
            Arc::new(move |start: usize, out: &mut [f32]| {
                s.fill_rows(x.data(), start, out, m);
            }),
        );
        Ok(require(
            Array::from_vec(&out_shape, data.into_vec()),
            "spmm output shape",
        ))
    }

    /// [`Self::try_matmul`] with the hot-path panic-on-shape-bug contract
    /// (routed through the crate's panic funnel), matching
    /// [`Array::matmul`].
    pub fn matmul(&self, dense: &Array) -> Array {
        require(self.try_matmul(dense), "spmm")
    }

    /// Fill output elements `start..start + out.len()` of the (possibly
    /// batched) spmm result. A chunk is always a whole number of output
    /// rows but may span batch-page boundaries; walk it one page at a time.
    fn fill_rows(&self, dense_all: &[f32], start: usize, out: &mut [f32], m: usize) {
        let page_out = self.rows * m;
        let page_in = self.cols * m;
        let mut start = start;
        let mut rest = out;
        while !rest.is_empty() {
            let bi = start / page_out;
            let r0 = (start - bi * page_out) / m;
            let rows = ((self.rows - r0) * m).min(rest.len()) / m;
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(rows * m);
            self.fill_page(&dense_all[bi * page_in..(bi + 1) * page_in], chunk, r0, m);
            start += rows * m;
            rest = tail;
        }
    }

    /// Accumulate rows `r0..r0 + out.len() / m` of `self · dense` into
    /// `out` (zero-filled on entry) for one batch page. Each output row
    /// visits its non-zeros in CSR (column-ascending) order, the same
    /// accumulation order however the rows are chunked.
    fn fill_page(&self, dense: &[f32], out: &mut [f32], r0: usize, m: usize) {
        for (ri, out_row) in out.chunks_exact_mut(m).enumerate() {
            let r = r0 + ri;
            for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[i];
                let w = self.values[i];
                let dense_row = &dense[c * m..(c + 1) * m];
                for (o, &d) in out_row.iter_mut().zip(dense_row) {
                    *o += w * d;
                }
            }
        }
    }
}

impl Tensor {
    /// Sparse-matrix × dense-tensor product as an autograd op:
    /// `spmm(S, x)` with `S` `[r, k]` constant and `x` `[k, m]` or
    /// `[B, k, m]`. The forward pass is the pooled CSR spmm; the backward
    /// pass propagates `dx = Sᵀ · d_out` through the transposed CSR. `S`
    /// itself receives no gradient — the sparse path is reserved for the
    /// static road-network transitions, which are constants (learned
    /// matrices stay on the dense path so their gradients flow).
    pub fn spmm(matrix: &CsrMatrix, dense: &Tensor) -> Tensor {
        let _prof = crate::profile::op_scope("spmm");
        let value = dense.with_value(|x| matrix.matmul(x));
        // The transpose is only needed (and only paid for) when a gradient
        // will actually be recorded — mirror `from_op`'s own condition so
        // `no_grad` inference never builds it.
        let transposed =
            (!crate::tensor::no_grad_active() && dense.requires_grad()).then(|| matrix.transpose());
        Tensor::from_op(
            value,
            vec![dense.clone()],
            Box::new(move |grad| vec![transposed.as_ref().map(|t| t.matmul(grad))]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sparse_randn(rows: usize, cols: usize, keep: f32, seed: u64) -> (Array, CsrMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dense = Array::randn(&[rows, cols], &mut rng);
        for v in dense.data_mut() {
            if v.abs() > keep {
                *v = 0.0;
            }
        }
        let sparse = CsrMatrix::from_dense(&dense, 0.0).unwrap();
        (dense, sparse)
    }

    #[test]
    fn dense_round_trip_and_sparsity() {
        let d =
            Array::from_vec(&[3, 3], vec![0.0, 2.0, 0.0, 1.0, 0.5, 0.0, 0.0, 0.0, 3.0]).unwrap();
        let s = CsrMatrix::from_dense(&d, 0.0).unwrap();
        assert_eq!(s.nnz(), 4);
        assert_eq!(s.shape(), (3, 3));
        assert_eq!(s.to_dense().data(), d.data());
        assert_eq!(s.get(0, 1), 2.0);
        assert_eq!(s.get(0, 0), 0.0);
        assert!((s.sparsity() - 5.0 / 9.0).abs() < 1e-6);
        // Entries at or below the threshold are dropped: only 2.0 and 3.0
        // survive a threshold of 1.0.
        assert_eq!(CsrMatrix::from_dense(&d, 1.0).unwrap().nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn from_triplets_rejects_out_of_range() {
        let _ = CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    fn from_raw_validates_structure() {
        let ok = CsrMatrix::from_raw(2, 3, vec![0, 1, 2], vec![2, 0], vec![1.0, 2.0]);
        assert_eq!(ok.unwrap().get(0, 2), 1.0);
        // Bad row_ptr length.
        assert!(CsrMatrix::from_raw(2, 3, vec![0, 1], vec![0], vec![1.0]).is_err());
        // Column out of bounds.
        assert!(CsrMatrix::from_raw(1, 2, vec![0, 1], vec![2], vec![1.0]).is_err());
        // Columns not strictly increasing within a row.
        assert!(
            CsrMatrix::from_raw(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err(),
            "duplicate column must be rejected"
        );
        // Non-finite value.
        assert_eq!(
            CsrMatrix::from_raw(1, 1, vec![0, 1], vec![0], vec![f32::NAN]),
            Err(TensorError::NonFinite {
                op: "sparse_from_raw"
            })
        );
    }

    #[test]
    fn from_dense_rejects_non_finite() {
        let mut a = Array::zeros(&[2, 2]);
        a.data_mut()[1] = f32::INFINITY;
        assert_eq!(
            CsrMatrix::from_dense(&a, 0.0),
            Err(TensorError::NonFinite {
                op: "sparse_from_dense"
            })
        );
        a.data_mut()[1] = f32::NAN;
        assert!(CsrMatrix::from_dense(&a, 10.0).is_err());
    }

    #[test]
    fn from_triplets_sums_duplicates_and_rejects_non_finite() {
        let s = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, 2.0), (1, 0, 4.0)]).unwrap();
        assert_eq!(s.get(0, 1), 3.0);
        assert_eq!(s.nnz(), 2);
        assert!(CsrMatrix::from_triplets(1, 1, &[(0, 0, f32::NAN)]).is_err());
    }

    #[test]
    fn spmm_matches_dense_rank2_and_rank3() {
        let (dense, sparse) = sparse_randn(23, 17, 1.0, 0);
        let mut rng = StdRng::seed_from_u64(1);
        let x2 = Array::randn(&[17, 5], &mut rng);
        assert_eq!(sparse.matmul(&x2).data(), dense.matmul(&x2).data());
        let x3 = Array::randn(&[3, 17, 4], &mut rng);
        let got = sparse.matmul(&x3);
        assert_eq!(got.shape(), &[3, 23, 4]);
        assert_eq!(got.data(), dense.matmul(&x3).data());
    }

    #[test]
    fn spmm_shape_mismatch_is_typed() {
        let (_, sparse) = sparse_randn(4, 4, 1.0, 2);
        let bad = Array::zeros(&[5, 3]);
        assert!(matches!(
            sparse.try_matmul(&bad),
            Err(TensorError::ShapeMismatch { op: "spmm", .. })
        ));
        // A batched operand must match on its middle (inner) axis.
        let bad_batched = Array::zeros(&[2, 5, 3]);
        assert!(matches!(
            sparse.try_matmul(&bad_batched),
            Err(TensorError::ShapeMismatch { op: "spmm", .. })
        ));
        let bad_rank = Array::zeros(&[4]);
        assert!(sparse.try_matmul(&bad_rank).is_err());
    }

    #[test]
    fn pooled_spmm_is_bit_identical_to_serial() {
        // Force pooling locally (threshold may still keep it serial in this
        // process; with_serial gives the reference either way).
        let (_, sparse) = sparse_randn(64, 48, 1.2, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let x = Array::randn(&[2, 48, 9], &mut rng);
        let pooled = sparse.matmul(&x);
        let serial = pool::with_serial(|| sparse.matmul(&x));
        assert_eq!(pooled.data(), serial.data());
    }

    #[test]
    fn transpose_round_trips() {
        let (dense, sparse) = sparse_randn(9, 13, 1.0, 5);
        let t = sparse.transpose();
        assert_eq!(t.shape(), (13, 9));
        assert_eq!(t.to_dense().data(), dense.transpose().data());
        assert_eq!(t.transpose().to_dense().data(), dense.data());
    }

    #[test]
    fn spgemm_matches_dense_product() {
        let (da, sa) = sparse_randn(11, 7, 1.0, 6);
        let (db, sb) = sparse_randn(7, 9, 1.0, 7);
        let got = sa.matmul_sparse(&sb).unwrap();
        assert_eq!(got.shape(), (11, 9));
        assert_eq!(got.to_dense().data(), da.matmul(&db).data());
        assert!(sa.matmul_sparse(&sa).is_err(), "inner dims must match");
    }

    #[test]
    fn mask_diagonal_zeroes_in_place() {
        let s = CsrMatrix::from_triplets(2, 2, &[(0, 0, 3.0), (0, 1, 2.0), (1, 1, 4.0)]).unwrap();
        let m = s.mask_diagonal();
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.nnz(), 3, "masking keeps the structure");
    }

    #[test]
    fn spmm_autograd_gradient_is_transposed_product() {
        let (dense, sparse) = sparse_randn(6, 5, 1.0, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let x = Tensor::parameter(Array::randn(&[5, 3], &mut rng));
        let y = Tensor::spmm(&sparse, &x);
        assert_eq!(y.shape(), vec![6, 3]);
        let seed = Array::randn(&[6, 3], &mut rng);
        y.backward_with(seed.clone());
        let got = x.grad().unwrap();
        let expect = dense.transpose().matmul(&seed);
        assert_eq!(got.data(), expect.data());
    }

    #[test]
    fn spmm_autograd_batched_finite_difference() {
        let (_, sparse) = sparse_randn(4, 4, 1.5, 10);
        let mut rng = StdRng::seed_from_u64(11);
        let x = Array::randn(&[2, 4, 3], &mut rng);
        crate::testing::gradcheck_on(
            |ts| Tensor::spmm(&sparse, &ts[0]).square().sum_all(),
            std::slice::from_ref(&x),
            1e-2,
        );
    }

    #[test]
    fn spmm_under_no_grad_is_constant() {
        let (_, sparse) = sparse_randn(4, 4, 1.5, 12);
        let x = Tensor::parameter(Array::ones(&[4, 2]));
        let y = crate::tensor::no_grad(|| Tensor::spmm(&sparse, &x));
        assert!(!y.requires_grad());
    }

    #[test]
    fn empty_rows_contribute_nothing() {
        // Row 1 has no non-zeros; its output must stay exactly zero.
        let s = CsrMatrix::from_triplets(3, 3, &[(0, 1, 2.0), (2, 0, 1.0)]).unwrap();
        let x = Array::ones(&[3, 4]);
        let y = s.matmul(&x);
        assert_eq!(&y.data()[4..8], &[0.0; 4]);
        assert_eq!(&y.data()[0..4], &[2.0; 4]);
    }
}
