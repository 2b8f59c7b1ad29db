//! Property-based sparse↔dense equivalence: on randomized matrices the CSR
//! kernels must agree with the dense reference — exactly, not within a
//! tolerance, because the sparse paths only ever *skip* zero terms of the
//! same k-ascending accumulation the dense kernels perform.

use d2stgnn_tensor::{Array, CsrMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random matrix with a controllable fraction of exact zeros (so empty rows
/// and empty columns actually occur at small sizes).
fn sparse_dense_pair(
    rows: usize,
    cols: usize,
    zero_prob: f64,
    rng: &mut StdRng,
) -> (CsrMatrix, Array) {
    use rand::Rng;
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| {
            if rng.gen_bool(zero_prob) {
                0.0
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect();
    let dense = Array::from_vec(&[rows, cols], data).unwrap();
    let sparse = CsrMatrix::from_dense(&dense, 0.0).unwrap();
    (sparse, dense)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rank2_spmm_matches_dense(
        seed in 0u64..1000,
        r in 1usize..12,
        k in 1usize..12,
        m in 1usize..12,
        zero_prob in 0.0f64..0.95,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (sparse, dense) = sparse_dense_pair(r, k, zero_prob, &mut rng);
        let x = Array::randn(&[k, m], &mut rng);
        let got = sparse.matmul(&x);
        let want = dense.matmul(&x);
        prop_assert_eq!(got.shape(), want.shape());
        // Value equality (assert_eq on f32): zero-skipping must not change
        // a single finite sum.
        prop_assert_eq!(got.data(), want.data());
    }

    #[test]
    fn batched_rank3_spmm_matches_dense(
        seed in 0u64..1000,
        b in 1usize..4,
        r in 1usize..9,
        k in 1usize..9,
        m in 1usize..9,
        zero_prob in 0.0f64..0.95,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (sparse, dense) = sparse_dense_pair(r, k, zero_prob, &mut rng);
        let x = Array::randn(&[b, k, m], &mut rng);
        let got = sparse.matmul(&x);
        // Dense reference: page-by-page rank-2 matmul.
        prop_assert_eq!(got.shape(), &[b, r, m]);
        for page in 0..b {
            let xp = x.slice_axis(0, page, page + 1).reshape(&[k, m]).unwrap();
            let want = dense.matmul(&xp);
            let gp = got.slice_axis(0, page, page + 1).reshape(&[r, m]).unwrap();
            prop_assert_eq!(gp.data(), want.data());
        }
    }

    #[test]
    fn spgemm_and_transpose_match_dense(
        seed in 0u64..1000,
        r in 1usize..8,
        k in 1usize..8,
        m in 1usize..8,
        zero_prob in 0.0f64..0.95,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (sa, da) = sparse_dense_pair(r, k, zero_prob, &mut rng);
        let (sb, db) = sparse_dense_pair(k, m, zero_prob, &mut rng);
        let got = sa.matmul_sparse(&sb).unwrap().to_dense();
        let want = da.matmul(&db);
        prop_assert_eq!(got.data(), want.data());
        // Transposition round-trips and matches the dense transpose.
        let st = sa.transpose().to_dense();
        let dt = da.transpose();
        prop_assert_eq!(st.data(), dt.data());
        let round_trip = sa.transpose().transpose().to_dense();
        prop_assert_eq!(round_trip.data(), da.data());
    }

    #[test]
    fn duplicate_triplets_sum_like_dense_accumulation(
        seed in 0u64..1000,
        r in 1usize..6,
        c in 1usize..6,
        dups in 1usize..5,
    ) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        // Emit each coordinate `dups` times; from_triplets must sum them.
        let mut triplets = Vec::new();
        let mut dense = Array::zeros(&[r, c]);
        for i in 0..r {
            for j in 0..c {
                if rng.gen_bool(0.5) {
                    continue;
                }
                let mut acc = 0.0f32;
                for _ in 0..dups {
                    let v = rng.gen_range(-1.0f32..1.0);
                    triplets.push((i, j, v));
                    acc += v;
                }
                dense.set(&[i, j], acc);
            }
        }
        let sparse = CsrMatrix::from_triplets(r, c, &triplets).unwrap().to_dense();
        prop_assert_eq!(sparse.data(), dense.data());
    }
}

#[test]
fn empty_rows_and_columns_roundtrip() {
    // A matrix whose middle rows/cols are entirely zero: CSR keeps empty
    // rows as equal row_ptr entries, and spmm writes exact zeros for them.
    let dense = Array::from_vec(
        &[4, 3],
        vec![1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0],
    )
    .unwrap();
    let sparse = CsrMatrix::from_dense(&dense, 0.0).unwrap();
    assert_eq!(sparse.nnz(), 3);
    let x = Array::from_vec(&[3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
    let got = sparse.matmul(&x);
    let want = dense.matmul(&x);
    assert_eq!(got.data(), want.data());
    assert_eq!(got.at(&[1, 0]), 0.0);
    assert_eq!(got.at(&[2, 1]), 0.0);
}
