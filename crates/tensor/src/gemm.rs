//! Blocked/tiled GEMM kernel: packed B panels and a register-tiled ikj
//! micro-kernel.
//!
//! Replaces the seed's naive ikj loop (which re-streamed the whole output
//! row through memory once per k step) with an `MR`×`NR` register tile:
//! B is packed once into `NR`-wide column panels so the innermost loop
//! reads it contiguously, and each output block accumulates in registers
//! and is stored exactly once.
//!
//! **Numeric compatibility.** For every output element `(i, j)` the
//! accumulation visits `p = 0..k` in ascending order and performs a
//! separate round-to-nearest multiply and add per term — no FMA, no
//! reordering — so the kernel is *bit-identical to itself* under any
//! row-chunked split: pooled and serial execution agree to the last ulp at
//! every thread count. Relative to the seed's [`naive`] kernel the only
//! change is dropping the per-term `a[i, p] == 0.0` skip (a branch that
//! blocked SIMD in the hot loop): adding the skipped `+0.0` terms is
//! value-preserving for finite data (it can at most normalize a `-0.0`
//! partial sum to `+0.0`), so results compare equal with `==` even though
//! a zero's sign bit may differ.

/// Rows per register tile.
pub(crate) const MR: usize = 4;
/// Columns per register tile / packed panel width.
pub(crate) const NR: usize = 16;
/// Rows of A (and C) per pool chunk when a matmul is dispatched to the
/// compute pool. Fixed — never derived from the thread count — so chunk
/// boundaries, and hence results, are independent of parallelism.
pub(crate) const ROW_CHUNK: usize = 16;

/// Pack every row-major `k`×`n` page of a batched `[batches, k, n]`
/// matrix into `NR`-wide column panels.
///
/// Panel `jt` of page `bi` holds columns `jt*NR .. jt*NR + w`
/// (`w = min(NR, n - jt*NR)`) at offset `bi * k * n + jt * k * NR` (all but
/// the last panel are full), laid out row-major within the panel
/// (`panel[p * w + j]`), so the micro-kernel streams it contiguously. A 2-D
/// `B` is one page. Matmul packs all pages once up front so pooled workers
/// share read-only panels instead of re-packing per chunk.
pub(crate) fn pack_b_all(b: &[f32], batches: usize, k: usize, n: usize) -> Vec<f32> {
    let n_panels = n.div_ceil(NR).max(1);
    let mut packed = crate::buffers::acquire_with_capacity(batches * n_panels * k * NR);
    for bi in 0..batches {
        let page = &b[bi * k * n..(bi + 1) * k * n];
        for jt in 0..n_panels {
            let j0 = jt * NR;
            let w = NR.min(n - j0);
            for p in 0..k {
                packed.extend_from_slice(&page[p * n + j0..p * n + j0 + w]);
            }
        }
    }
    packed
}

/// Multiply a block of `out.len() / n` rows of `a` (row-major, width `k`)
/// by the packed `b` panels, overwriting `out` (row-major, width `n`).
///
/// Dispatches to the explicit-SIMD micro-kernel when
/// [`crate::simd::microkernel`] selected one (bit-exact with the scalar
/// tile), otherwise runs the portable [`block_scalar`] tile. Both paths
/// share pack layout and per-element accumulation order, so pooled chunking
/// composes identically over either.
pub(crate) fn block(a: &[f32], k: usize, packed_b: &[f32], n: usize, out: &mut [f32]) {
    if crate::simd::block(a, k, packed_b, n, out) {
        return;
    }
    block_scalar(a, k, packed_b, n, out);
}

/// The always-compiled portable tile behind [`block`]: the reference
/// implementation every SIMD kernel is byte-compared against.
pub(crate) fn block_scalar(a: &[f32], k: usize, packed_b: &[f32], n: usize, out: &mut [f32]) {
    let rows = out.len().checked_div(n).unwrap_or(0);
    let n_panels = n.div_ceil(NR);
    for jt in 0..n_panels {
        let j0 = jt * NR;
        let w = NR.min(n - j0);
        let panel = &packed_b[jt * k * NR..jt * k * NR + k * w];
        let mut i = 0;
        while i + MR <= rows {
            let a0 = &a[i * k..(i + 1) * k];
            let a1 = &a[(i + 1) * k..(i + 2) * k];
            let a2 = &a[(i + 2) * k..(i + 3) * k];
            let a3 = &a[(i + 3) * k..(i + 4) * k];
            let mut acc = [[0f32; NR]; MR];
            if w == NR {
                for (p, bp) in panel.chunks_exact(NR).enumerate() {
                    accumulate_row(&mut acc[0], a0[p], bp);
                    accumulate_row(&mut acc[1], a1[p], bp);
                    accumulate_row(&mut acc[2], a2[p], bp);
                    accumulate_row(&mut acc[3], a3[p], bp);
                }
            } else {
                for p in 0..k {
                    let bp = &panel[p * w..(p + 1) * w];
                    accumulate_row(&mut acc[0][..w], a0[p], bp);
                    accumulate_row(&mut acc[1][..w], a1[p], bp);
                    accumulate_row(&mut acc[2][..w], a2[p], bp);
                    accumulate_row(&mut acc[3][..w], a3[p], bp);
                }
            }
            for (r, acc_r) in acc.iter().enumerate() {
                let o = (i + r) * n + j0;
                out[o..o + w].copy_from_slice(&acc_r[..w]);
            }
            i += MR;
        }
        while i < rows {
            let ai = &a[i * k..(i + 1) * k];
            let mut acc = [0f32; NR];
            for p in 0..k {
                let bp = &panel[p * w..(p + 1) * w];
                accumulate_row(&mut acc[..w], ai[p], bp);
            }
            let o = i * n + j0;
            out[o..o + w].copy_from_slice(&acc[..w]);
            i += 1;
        }
    }
}

/// One rank-1 update of a register row: `acc[j] += av * bp[j]`.
/// Deliberately branchless — no `av == 0.0` skip — so the loop
/// autovectorizes; see the module docs for why that is value-preserving.
#[inline(always)]
pub(crate) fn accumulate_row(acc: &mut [f32], av: f32, bp: &[f32]) {
    for (a, &bv) in acc.iter_mut().zip(bp) {
        *a += av * bv;
    }
}

/// The seed's naive ikj kernel, kept verbatim as the serial reference
/// baseline for the `tensor_kernels` bench and the determinism suite.
/// `out` must be zero-filled on entry.
pub(crate) fn naive(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (ov, &bv) in out_row.iter_mut().zip(b_row) {
                *ov += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(seed: u32, len: usize) -> Vec<f32> {
        // Deterministic, allocation-order-free pseudo-random values with a
        // sprinkling of exact zeros to exercise the sparsity shortcut.
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                if x.is_multiple_of(13) {
                    0.0
                } else {
                    (x % 2001) as f32 / 1000.0 - 1.0
                }
            })
            .collect()
    }

    #[test]
    fn tiled_matches_naive_values() {
        // Shapes straddle every edge case: rows % MR, cols % NR, tiny k.
        // `==` (not `to_bits`) comparison: the tiled kernel keeps the
        // naive kernel's per-element accumulation order but not its zero
        // skip, so only a zero's sign bit may legitimately differ.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 16, 16),
            (5, 17, 33),
            (13, 8, 1),
            (16, 31, 47),
            (2, 64, 15),
        ] {
            let a = pseudo(1, m * k);
            let b = pseudo(2, k * n);
            let mut want = vec![0.0; m * n];
            naive(&a, &b, &mut want, m, k, n);
            let packed = pack_b_all(&b, 1, k, n);
            let mut got = vec![0.0; m * n];
            block(&a, k, &packed, n, &mut got);
            let same = want.iter().zip(&got).all(|(x, y)| x == y);
            assert!(same, "tiled != naive for shape ({m},{k},{n})");
        }
    }

    #[test]
    fn row_chunked_blocks_compose() {
        let (m, k, n) = (11, 9, 21);
        let a = pseudo(3, m * k);
        let b = pseudo(4, k * n);
        let packed = pack_b_all(&b, 1, k, n);
        let mut whole = vec![0.0; m * n];
        block(&a, k, &packed, n, &mut whole);
        let mut split = vec![0.0; m * n];
        for i0 in (0..m).step_by(4) {
            let rows = 4.min(m - i0);
            block(
                &a[i0 * k..(i0 + rows) * k],
                k,
                &packed,
                n,
                &mut split[i0 * n..(i0 + rows) * n],
            );
        }
        let same = whole
            .iter()
            .zip(&split)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "row-chunked GEMM must be bit-identical to unsplit");
    }
}
