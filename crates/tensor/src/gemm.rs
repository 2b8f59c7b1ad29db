//! Blocked/tiled GEMM kernel: packed B panels and a register-tiled ikj
//! micro-kernel, for every product `Array::matmul` and its backward run.
//!
//! Replaces the seed's naive ikj loop (which re-streamed the whole output
//! row through memory once per k step) with an `MR`×`NR` register tile:
//! B is packed once into `NR`-wide column panels so the innermost loop
//! reads it contiguously, and each output block accumulates in registers
//! and is stored exactly once.
//!
//! One path serves every shape:
//! * **Strided operands.** A block reads its lhs through a row and a column
//!   stride ([`Lhs`]), and [`pack_b`] packs a page stored as-is or
//!   transposed, so `g·Bᵀ` and `Aᵀ·g` read their operands in place.
//! * **Edge panels.** The last panel of a width that is not a multiple of
//!   `NR` runs on the same tile as the full ones, with its dead columns
//!   masked off; the packed layout is the same for every panel.
//! * **Page sums.** A block can add the products of several consecutive
//!   pages: each page's tile accumulates from zero, is added to a running
//!   tile that also starts from zero, in page order, and the sum is stored
//!   once.
//!
//! **Numeric compatibility.** For every output element `(i, j)` the
//! accumulation visits `p = 0..k` in ascending order and performs a
//! separate round-to-nearest multiply and add per term — no FMA, no
//! reordering — so the kernel is *bit-identical to itself* under any
//! row-chunked split: pooled and serial execution agree to the last ulp at
//! every thread count. A page sum performs the adds of a sum over the page
//! axis from zero in ascending page order, so it equals that sum's bits;
//! and a one-page "sum" `0 + x` is `x`, because a tile accumulated from
//! `+0.0` is never `-0.0`. Relative to the seed's [`naive`] kernel the only
//! change is dropping the per-term `a[i, p] == 0.0` skip (a branch that
//! blocked SIMD in the hot loop): adding the skipped `+0.0` terms is
//! value-preserving for finite data (it can at most normalize a `-0.0`
//! partial sum to `+0.0`), so results compare equal with `==` even though
//! a zero's sign bit may differ.

/// Rows per register tile.
pub(crate) const MR: usize = 4;
/// Columns per register tile / packed panel width.
pub(crate) const NR: usize = 16;
/// Fewest rows of A (and C) per pool chunk when a matmul is dispatched to
/// the compute pool; see [`chunk_rows`].
pub(crate) const ROW_CHUNK: usize = 16;

/// Output rows per pool chunk for a product of `rows` output rows, each
/// costing `row_work` multiply-adds (`k · n · pages summed`): enough rows
/// to carry [`crate::pool::DEFAULT_PAR_THRESHOLD`] of work, but no more than
/// half the rows, so a product that pools still splits in two; at least
/// [`ROW_CHUNK`], rounded up to whole `MR`-row tiles. A function of the
/// shape alone — never of the thread count or the `D2_PAR_THRESHOLD`
/// setting — so chunk boundaries, and hence results, are independent of
/// parallelism.
pub(crate) fn chunk_rows(rows: usize, row_work: usize) -> usize {
    crate::pool::DEFAULT_PAR_THRESHOLD
        .div_ceil(row_work.max(1))
        .min(rows.div_ceil(2))
        .max(ROW_CHUNK)
        .next_multiple_of(MR)
}

/// Where a block's lhs terms live: element `(r, p)` of the `t`-th summed
/// page is `a[off + t * page + r * rs + p * cs]`. A row-major `[m, k]` page
/// has `rs = k, cs = 1`; a transposed one (stored `[k, m]`) has
/// `rs = 1, cs = m`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lhs {
    pub(crate) off: usize,
    pub(crate) rs: usize,
    pub(crate) cs: usize,
    pub(crate) page: usize,
}

impl Lhs {
    /// Whether a block of `rows` rows, `k` terms and `pages` pages reads
    /// only inside `a_len` elements of A.
    pub(crate) fn fits(self, a_len: usize, rows: usize, k: usize, pages: usize) -> bool {
        if rows == 0 || k == 0 || pages == 0 {
            return true;
        }
        let last = (pages - 1)
            .checked_mul(self.page)
            .zip((rows - 1).checked_mul(self.rs))
            .zip((k - 1).checked_mul(self.cs))
            .and_then(|((t, r), p)| self.off.checked_add(t)?.checked_add(r)?.checked_add(p));
        last.is_some_and(|last| last < a_len)
    }
}

/// Pack `pages` consecutive `k`×`n` pages of `b` into `NR`-wide column
/// panels. A page is stored row-major as `[k, n]`, or as `[n, k]` when
/// `transposed` (element `(p, j)` at `j * k + p`), which packs `Bᵀ` without
/// a transposed copy.
///
/// Panel `jt` of page `t` holds columns `jt*NR .. jt*NR + w`
/// (`w = min(NR, n - jt*NR)`) at offset `t * k * n + jt * k * NR` (all but
/// the last panel are full), laid out row-major within the panel
/// (`panel[p * w + j]`), so the micro-kernel streams it contiguously. A 2-D
/// `B` is one page. Matmul packs all pages once up front so pooled workers
/// share read-only panels instead of re-packing per chunk.
pub(crate) fn pack_b(b: &[f32], pages: usize, k: usize, n: usize, transposed: bool) -> Vec<f32> {
    let mut packed = crate::buffers::acquire_with_capacity(pages * k * n);
    if k * n == 0 {
        return packed;
    }
    for page in b.chunks_exact(k * n).take(pages) {
        for j0 in (0..n).step_by(NR) {
            let w = NR.min(n - j0);
            for p in 0..k {
                if transposed {
                    packed.extend(page[j0 * k + p..].iter().step_by(k).take(w));
                } else {
                    packed.extend_from_slice(&page[p * n + j0..p * n + j0 + w]);
                }
            }
        }
    }
    packed
}

/// Multiply a block of `out.len() / n` rows of A (read through `lhs`) by
/// the packed panels of `pages` consecutive pages (`packed` starts at the
/// first), adding the pages' products, and overwrite `out` (row-major,
/// width `n`) with the sum.
///
/// Dispatches to the explicit-SIMD micro-kernel when
/// [`crate::simd::microkernel`] selected one (bit-exact with the scalar
/// tile), otherwise runs the portable [`block_scalar`] tile. Both paths
/// share pack layout and per-element accumulation order, so pooled chunking
/// composes identically over either.
pub(crate) fn block(
    a: &[f32],
    lhs: Lhs,
    k: usize,
    packed: &[f32],
    pages: usize,
    n: usize,
    out: &mut [f32],
) {
    if crate::simd::block(a, lhs, k, packed, pages, n, out) {
        return;
    }
    block_scalar(a, lhs, k, packed, pages, n, out);
}

/// The always-compiled portable tile behind [`block`]: the reference
/// implementation every SIMD kernel is byte-compared against.
pub(crate) fn block_scalar(
    a: &[f32],
    lhs: Lhs,
    k: usize,
    packed: &[f32],
    pages: usize,
    n: usize,
    out: &mut [f32],
) {
    let rows = out.len().checked_div(n).unwrap_or(0);
    for (jt, j0) in (0..n).step_by(NR).enumerate() {
        let w = NR.min(n - j0);
        let mut i = 0;
        while i < rows {
            let r = if i + MR <= rows { MR } else { 1 };
            let mut sum = [[0f32; NR]; MR];
            for t in 0..pages {
                let panel = &packed[t * k * n + jt * k * NR..][..k * w];
                let row0 = lhs.off + t * lhs.page + i * lhs.rs;
                let acc = match r {
                    MR => page_scalar::<MR>(a, row0, lhs, panel, w),
                    _ => page_scalar::<1>(a, row0, lhs, panel, w),
                };
                for (sum_r, acc_r) in sum.iter_mut().zip(&acc) {
                    for (s, &v) in sum_r.iter_mut().zip(acc_r) {
                        *s += v;
                    }
                }
            }
            for (out_r, sum_r) in out[i * n..].chunks_mut(n).zip(&sum).take(r) {
                out_r[j0..j0 + w].copy_from_slice(&sum_r[..w]);
            }
            i += r;
        }
    }
}

/// One page's product for `R` rows starting at lhs offset `row0`, over a
/// packed panel `w` columns wide, accumulated from `+0.0` in ascending `p`.
/// A full panel runs on fixed 16-wide rows so the loop autovectorizes.
#[inline(never)]
fn page_scalar<const R: usize>(
    a: &[f32],
    row0: usize,
    lhs: Lhs,
    panel: &[f32],
    w: usize,
) -> [[f32; NR]; MR] {
    let mut acc = [[0f32; NR]; MR];
    if w == NR {
        for (p, bp) in panel.chunks_exact(NR).enumerate() {
            let ap = row0 + p * lhs.cs;
            for (rr, acc_r) in acc.iter_mut().take(R).enumerate() {
                accumulate_row(acc_r, a[ap + rr * lhs.rs], bp);
            }
        }
    } else {
        for (p, bp) in panel.chunks_exact(w).enumerate() {
            let ap = row0 + p * lhs.cs;
            for (rr, acc_r) in acc.iter_mut().take(R).enumerate() {
                accumulate_row(&mut acc_r[..w], a[ap + rr * lhs.rs], bp);
            }
        }
    }
    acc
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

    /// A row-major `[m, k]` lhs page at offset 0.
    fn rows(k: usize) -> Lhs {
        Lhs {
            off: 0,
            rs: k,
            cs: 1,
            page: 0,
        }
    }

    /// `[rows, cols]` stored row-major, copied out transposed.
    fn transposed(v: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        (0..cols)
            .flat_map(|c| (0..rows).map(move |r| v[r * cols + c]))
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
            let packed = pack_b(&b, 1, k, n, false);
            let mut got = vec![0.0; m * n];
            block(&a, rows(k), k, &packed, 1, n, &mut got);
            let same = want.iter().zip(&got).all(|(x, y)| x == y);
            assert!(same, "tiled != naive for shape ({m},{k},{n})");
        }
    }

    #[test]
    fn row_chunked_blocks_compose() {
        let (m, k, n) = (11, 9, 21);
        let a = pseudo(3, m * k);
        let b = pseudo(4, k * n);
        let packed = pack_b(&b, 1, k, n, false);
        let mut whole = vec![0.0; m * n];
        block(&a, rows(k), k, &packed, 1, n, &mut whole);
        let mut split = vec![0.0; m * n];
        for i0 in (0..m).step_by(4) {
            let r = 4.min(m - i0);
            let lhs = Lhs {
                off: i0 * k,
                ..rows(k)
            };
            block(&a, lhs, k, &packed, 1, n, &mut split[i0 * n..(i0 + r) * n]);
        }
        let same = whole
            .iter()
            .zip(&split)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "row-chunked GEMM must be bit-identical to unsplit");
    }

    #[test]
    fn strided_reads_and_page_sums_match_copies_and_summed_pages() {
        // Transposed operands read in place equal the product of their
        // transposed copies, and a block over three pages equals the three
        // one-page products summed from zero in page order, to the bit.
        let (pages, m, k, n) = (3, 6, 5, 19);
        let a = pseudo(5, pages * m * k);
        let b = pseudo(6, pages * k * n);
        let mut want = vec![0.0f32; m * n];
        for t in 0..pages {
            let packed = pack_b(&b[t * k * n..], 1, k, n, false);
            let lhs = Lhs {
                off: t * m * k,
                ..rows(k)
            };
            let mut page = vec![0.0f32; m * n];
            block(&a, lhs, k, &packed, 1, n, &mut page);
            want.iter_mut().zip(&page).for_each(|(w, &v)| *w += v);
        }
        // Each page stored transposed: A pages as `[k, m]`, B pages as `[n, k]`.
        let at: Vec<f32> = a.chunks(m * k).flat_map(|p| transposed(p, m, k)).collect();
        let bt: Vec<f32> = b.chunks(k * n).flat_map(|p| transposed(p, k, n)).collect();
        let packed = pack_b(&bt, pages, k, n, true);
        assert_eq!(packed, pack_b(&b, pages, k, n, false));
        let lhs = Lhs {
            off: 0,
            rs: 1,
            cs: m,
            page: m * k,
        };
        let mut got = vec![0.0f32; m * n];
        block(&at, lhs, k, &packed, pages, n, &mut got);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn chunks_carry_work_but_square_products_keep_sixteen_rows() {
        assert_eq!(chunk_rows(128, 128 * 128), ROW_CHUNK);
        assert_eq!(chunk_rows(512, 512 * 512), ROW_CHUNK);
        // `[9936,32]×[32,32]`: 256 rows a chunk, so 39 chunks instead of 621.
        assert_eq!(chunk_rows(9936, 32 * 32), 256);
        assert_eq!(9936usize.div_ceil(chunk_rows(9936, 32 * 32)), 39);
        // At most half the rows: a 48-row product still splits in two.
        assert_eq!(48usize.div_ceil(chunk_rows(48, 32 * 32)), 2);
        // Whole tiles, and no division by a zero-size row.
        assert_eq!(chunk_rows(39744, 12 * 8) % MR, 0);
        assert_eq!(chunk_rows(0, 0), ROW_CHUNK);
    }
}
