//! Transition matrices for the diffusion process (Section 5.1).
//!
//! From a weighted adjacency `A` the paper derives a forward transition
//! `P_f = A / rowsum(A)` and a backward transition `P_b = Aᵀ / rowsum(Aᵀ)`,
//! raises them to the powers `k = 1..k_s`, masks the diagonal (self-influence
//! belongs to the *inherent* model), and tiles them over `k_t` time lags into
//! the spatial-temporal localized transition matrix of Eq. 4.
//!
//! Row normalization and the masked power series exist twice: for dense
//! arrays and, beside them, for the tensor crate's [`CsrMatrix`]. On the same
//! values the two produce the same bits (see [`masked_powers_csr`]), so a
//! caller picks the representation by sparsity alone.

use d2stgnn_tensor::{Array, CsrMatrix};

/// Row-normalize a non-negative matrix: `P = M / rowsum(M)`.
/// All-zero rows stay zero (an isolated sensor diffuses nothing).
pub fn row_normalize(m: &Array) -> Array {
    let shape = m.shape();
    assert_eq!(shape.len(), 2, "row_normalize expects a matrix");
    let (rows, cols) = (shape[0], shape[1]);
    let mut out = m.clone();
    for r in 0..rows {
        let row = &mut out.data_mut()[r * cols..(r + 1) * cols];
        let sum: f32 = row.iter().sum();
        if sum > 0.0 {
            for v in row {
                *v /= sum;
            }
        }
    }
    out
}

/// CSR twin of [`row_normalize`]: each row is divided by the sum of the
/// **absolute values** of its entries, so mixed-sign and all-negative rows
/// are scaled too — dividing by the signed sum would pass a row of negative
/// weights through unnormalized. Zero rows stay zero. On non-negative
/// matrices (every road adjacency) this is the dense function bit for bit:
/// both accumulate a row in column-ascending order, and the dense zeros it
/// skips cannot change a finite sum.
pub fn row_normalize_csr(m: &CsrMatrix) -> CsrMatrix {
    let (rows, cols) = m.shape();
    let row_ptr = m.row_ptr();
    let mut values = m.values().to_vec();
    for r in 0..rows {
        let row = &mut values[row_ptr[r]..row_ptr[r + 1]];
        let sum: f32 = row.iter().map(|v| v.abs()).sum();
        if sum > 0.0 {
            for v in row {
                *v /= sum;
            }
        }
    }
    crate::error::require(
        CsrMatrix::from_raw(rows, cols, row_ptr.to_vec(), m.col_idx().to_vec(), values),
        "row normalization keeps the CSR structure",
    )
}

/// Forward transition matrix `P_f = A / rowsum(A)`.
pub fn forward_transition(adj: &Array) -> Array {
    row_normalize(adj)
}

/// Backward transition matrix `P_b = Aᵀ / rowsum(Aᵀ)`.
pub fn backward_transition(adj: &Array) -> Array {
    row_normalize(&adj.transpose())
}

/// `M ⊙ (1 - I)`: zero the diagonal so the diffusion model never looks at a
/// node's own history (that is the inherent model's job).
pub fn mask_diagonal(m: &Array) -> Array {
    let n = m.shape()[0];
    assert_eq!(m.shape(), &[n, n], "mask_diagonal expects square");
    let mut out = m.clone();
    for i in 0..n {
        out.data_mut()[i * n + i] = 0.0;
    }
    out
}

/// Dense `P^k` by repeated multiplication (`k >= 1`).
pub fn matrix_power(p: &Array, k: usize) -> Array {
    assert!(k >= 1, "matrix_power requires k >= 1");
    let mut acc = p.clone();
    for _ in 1..k {
        acc = acc.matmul(p);
    }
    acc
}

/// The diagonal-masked power series `[masked(P^1), ..., masked(P^ks)]` used
/// by the spatial-temporal localized convolution (Eq. 8 sums over these).
pub fn masked_powers(p: &Array, ks: usize) -> Vec<Array> {
    (1..=ks)
        .map(|k| mask_diagonal(&matrix_power(p, k)))
        .collect()
}

/// CSR twin of [`masked_powers`]: the same `P^k · P` chain as
/// [`matrix_power`], through spgemm, each power masked with
/// [`CsrMatrix::mask_diagonal`]. Bit-identical to the dense series on the
/// same values — spgemm accumulates every entry with the inner index
/// ascending, like the dense matmul minus its zero terms — so the sparsity
/// dispatch never changes a forecast.
///
/// # Panics
/// If `p` is not square and `ks >= 2` (programming error).
pub fn masked_powers_csr(p: &CsrMatrix, ks: usize) -> Vec<CsrMatrix> {
    let mut powers = Vec::with_capacity(ks);
    let mut power = p.clone();
    for k in 1..=ks {
        if k > 1 {
            power = crate::error::require(
                power.matmul_sparse(p),
                "transition powers need a square matrix",
            );
        }
        powers.push(power.mask_diagonal());
    }
    powers
}

/// The explicit spatial-temporal localized transition matrix of Eq. 4 for a
/// single order `k`: `k_t` horizontal copies of `masked(P^k)`, shape
/// `[N, k_t * N]`. The model itself uses the factored form (sum over lags),
/// which is algebraically identical; this construction exists as the
/// reference for tests and documentation.
pub fn localized_transition(
    p: &Array,
    k: usize,
    kt: usize,
) -> Result<Array, crate::error::GraphError> {
    if kt < 1 {
        return Err(crate::error::GraphError::EmptyDimension("temporal kernel"));
    }
    let masked = mask_diagonal(&matrix_power(p, k));
    let copies: Vec<&Array> = (0..kt).map(|_| &masked).collect();
    Ok(crate::error::require(
        Array::concat(&copies, 1),
        "identical masked copies share a shape",
    ))
}

/// `true` if each row sums to 1 or 0 within `tol`.
pub fn is_row_stochastic(p: &Array, tol: f32) -> bool {
    let shape = p.shape();
    let (rows, cols) = (shape[0], shape[1]);
    (0..rows).all(|r| {
        let s: f32 = p.data()[r * cols..(r + 1) * cols].iter().sum();
        (s - 1.0).abs() < tol || s.abs() < tol
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_adj() -> Array {
        // 0 -> 1 -> 2, weighted.
        Array::from_vec(&[3, 3], vec![0., 2., 0., 0., 0., 4., 0., 0., 0.]).unwrap()
    }

    #[test]
    fn forward_rows_sum_to_one_or_zero() {
        let p = forward_transition(&chain_adj());
        assert!(is_row_stochastic(&p, 1e-6));
        assert_eq!(p.at(&[0, 1]), 1.0);
        assert_eq!(p.at(&[1, 2]), 1.0);
        // Sink row stays zero rather than NaN.
        assert_eq!(p.data()[6..9], [0.0, 0.0, 0.0]);
    }

    #[test]
    fn backward_follows_transposed_edges() {
        let p = backward_transition(&chain_adj());
        assert!(is_row_stochastic(&p, 1e-6));
        assert_eq!(p.at(&[1, 0]), 1.0);
        assert_eq!(p.at(&[2, 1]), 1.0);
    }

    #[test]
    fn power_composes_two_hops() {
        let p = forward_transition(&chain_adj());
        let p2 = matrix_power(&p, 2);
        assert_eq!(p2.at(&[0, 2]), 1.0); // 0 -> 1 -> 2
        assert_eq!(p2.at(&[0, 1]), 0.0);
    }

    #[test]
    fn diagonal_masked() {
        let mut m = Array::eye(3);
        m.data_mut()[1] = 0.5; // off-diagonal survives
        let masked = mask_diagonal(&m);
        assert_eq!(masked.at(&[0, 0]), 0.0);
        assert_eq!(masked.at(&[1, 1]), 0.0);
        assert_eq!(masked.at(&[0, 1]), 0.5);
    }

    #[test]
    fn masked_powers_lengths_and_zero_diag() {
        let p = forward_transition(&chain_adj());
        let powers = masked_powers(&p, 3);
        assert_eq!(powers.len(), 3);
        for pw in &powers {
            for i in 0..3 {
                assert_eq!(pw.at(&[i, i]), 0.0);
            }
        }
    }

    #[test]
    fn csr_and_dense_masked_powers_agree_bitwise() {
        // Self-loops give every unmasked power a non-zero diagonal, so the
        // mask changes values; node 4 is a sink (all-zero row of P_f).
        #[rustfmt::skip]
        let adj = Array::from_vec(&[5, 5], vec![
            1.0, 2.0, 0.0, 0.5, 0.0,
            0.0, 0.3, 1.0, 0.0, 0.0,
            0.7, 0.0, 2.0, 1.2, 0.0,
            0.0, 0.0, 0.0, 0.0, 1.0,
            0.0, 0.0, 0.0, 0.0, 0.0,
        ])
        .unwrap();
        let csr = CsrMatrix::from_dense(&adj, 0.0).unwrap();
        let bits = |a: &Array| a.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (dense_p, csr_p) in [
            (forward_transition(&adj), row_normalize_csr(&csr)),
            (
                backward_transition(&adj),
                row_normalize_csr(&csr.transpose()),
            ),
        ] {
            assert_eq!(bits(&csr_p.to_dense()), bits(&dense_p));
            for ks in 1..=4 {
                let dense = masked_powers(&dense_p, ks);
                let sparse = masked_powers_csr(&csr_p, ks);
                assert_eq!((dense.len(), sparse.len()), (ks, ks));
                for (k, (d, s)) in dense.iter().zip(&sparse).enumerate() {
                    assert_eq!(bits(&s.to_dense()), bits(d), "ks = {ks}, k = {}", k + 1);
                    assert!(matrix_power(&dense_p, k + 1).at(&[0, 0]) > 0.0);
                    assert_eq!(d.at(&[0, 0]), 0.0);
                }
            }
        }
        assert_eq!(forward_transition(&adj).data()[20..25], [0.0; 5]);
    }

    #[test]
    fn csr_row_normalize_and_mask() {
        let d = Array::from_vec(&[2, 2], vec![1.0, 3.0, 0.0, 2.0]).unwrap();
        let s = CsrMatrix::from_dense(&d, 0.0).unwrap();
        let masked = s.mask_diagonal();
        assert_eq!(masked.get(0, 0), 0.0);
        assert_eq!(masked.get(1, 1), 0.0);
        assert_eq!(masked.get(0, 1), 3.0);
        let norm = row_normalize_csr(&s);
        assert!((norm.get(0, 0) - 0.25).abs() < 1e-6);
        assert!((norm.get(0, 1) - 0.75).abs() < 1e-6);
        assert!((norm.get(1, 1) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn csr_row_normalize_handles_mixed_sign_rows() {
        // Row 0 sums to zero, row 1 is all-negative: dividing by the signed
        // sum would pass both through unnormalized.
        let d = Array::from_vec(&[3, 2], vec![2.0, -2.0, -1.0, -3.0, 0.0, 0.0]).unwrap();
        let norm = row_normalize_csr(&CsrMatrix::from_dense(&d, 0.0).unwrap());
        assert!((norm.get(0, 0) - 0.5).abs() < 1e-6);
        assert!((norm.get(0, 1) + 0.5).abs() < 1e-6);
        assert!((norm.get(1, 0) + 0.25).abs() < 1e-6);
        assert!((norm.get(1, 1) + 0.75).abs() < 1e-6);
        // Zero rows stay zero.
        assert_eq!(norm.get(2, 0), 0.0);
        assert_eq!(norm.nnz(), 4);
    }

    #[test]
    fn localized_matches_eq4_shape_and_tiling() {
        let p = forward_transition(&chain_adj());
        let lc = localized_transition(&p, 1, 3).unwrap();
        assert_eq!(lc.shape(), &[3, 9]);
        let masked = mask_diagonal(&p);
        for kp in 0..3 {
            for i in 0..3 {
                for j in 0..3 {
                    assert_eq!(lc.at(&[i, kp * 3 + j]), masked.at(&[i, j]));
                }
            }
        }
        // Eq. 4 masking: P^lc[i, i + k'N] == 0 for all k'.
        for kp in 0..3 {
            for i in 0..3 {
                assert_eq!(lc.at(&[i, kp * 3 + i]), 0.0);
            }
        }
    }

    #[test]
    fn localized_rejects_zero_temporal_kernel() {
        let p = forward_transition(&chain_adj());
        assert_eq!(
            localized_transition(&p, 1, 0),
            Err(crate::error::GraphError::EmptyDimension("temporal kernel"))
        );
    }

    #[test]
    fn stochastic_check_tolerates_sinks() {
        let p = Array::from_vec(&[2, 2], vec![0.5, 0.5, 0.0, 0.0]).unwrap();
        assert!(is_row_stochastic(&p, 1e-6));
        let bad = Array::from_vec(&[1, 2], vec![0.7, 0.7]).unwrap();
        assert!(!is_row_stochastic(&bad, 1e-6));
    }
}
