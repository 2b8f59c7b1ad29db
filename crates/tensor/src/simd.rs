//! Explicit-SIMD GEMM micro-kernels with runtime feature detection.
//!
//! This is the **only** module in the workspace allowed to contain `unsafe`
//! code (the xlint `unsafe-audit` rule enforces both the carve-out and a
//! `// SAFETY:` justification on every `unsafe` block). Everything else in
//! the crate stays under `#![deny(unsafe_code)]`.
//!
//! Two kernels, selected once per process (like the pool's `D2_THREADS`)
//! from `is_x86_feature_detected!` and the `D2_SIMD` switch:
//!
//! * **`Wide8`** (AVX2, default when available) — 8-wide f32 vectors, two
//!   per `NR`=16 packed panel, accumulating with a *separate* round-to-
//!   nearest multiply then add per `k` step in ascending-`k` order. That is
//!   exactly the scalar tile's arithmetic, just evaluated 8 lanes at a time
//!   across independent output columns, so the result is **bit-identical**
//!   to `gemm::block_scalar` — vectorizing across `j` never reorders any
//!   single element's accumulation. Every panel runs on this tile: a panel
//!   narrower than `NR` (the right edge, or all of an 8- or 12-wide
//!   attention page) loads and stores through lane masks
//!   (`_mm256_maskload_ps` / `_mm256_maskstore_ps`), so its dead lanes are
//!   neither read nor written and the packed layout stays `k·w` floats.
//!   The tile reads A through the block's row and column strides, and sums
//!   consecutive pages' products in registers as the scalar tile does.
//! * **`Scalar`** — anything else falls back to the always-compiled scalar
//!   tile in `gemm.rs`, including `D2_SIMD=0`, which the determinism suite
//!   uses to byte-compare SIMD-on vs SIMD-off runs.
//!
//! There is no fused multiply-add kernel: FMA skips the intermediate
//! rounding, and every kernel here must reproduce the scalar tile's bits so
//! that training resume and the determinism suite hold on any host.

#![allow(unsafe_code)]

use std::sync::OnceLock;

use crate::gemm::{Lhs, MR, NR};

/// Which GEMM micro-kernel this process dispatches to (selected once).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Microkernel {
    /// Portable scalar tile in `gemm.rs` (always compiled, always correct).
    Scalar,
    /// AVX2 8-wide mul-then-add; bit-exact with [`Microkernel::Scalar`].
    Wide8,
}

/// Parse a boolean-ish environment flag: unset -> `None`; `0`/`false`/`off`
/// (case-insensitive) -> `Some(false)`; anything else -> `Some(true)`.
fn env_flag(name: &str) -> Option<bool> {
    std::env::var(name).ok().map(|v| {
        let t = v.trim();
        !(t == "0" || t.eq_ignore_ascii_case("false") || t.eq_ignore_ascii_case("off"))
    })
}

/// The kernel this process selected (resolved once from CPU features and
/// `D2_SIMD`).
pub(crate) fn microkernel() -> Microkernel {
    static KERNEL: OnceLock<Microkernel> = OnceLock::new();
    *KERNEL.get_or_init(select)
}

/// `true` when GEMM dispatches to the explicit-SIMD kernel.
pub fn simd_active() -> bool {
    microkernel() != Microkernel::Scalar
}

/// Human-readable name of the selected kernel, for bench artifacts and
/// pool stats: `"scalar"` or `"avx2"`.
pub fn kernel_name() -> &'static str {
    match microkernel() {
        Microkernel::Scalar => "scalar",
        Microkernel::Wide8 => "avx2",
    }
}

#[cfg(target_arch = "x86_64")]
fn select() -> Microkernel {
    if !env_flag("D2_SIMD").unwrap_or(true) {
        return Microkernel::Scalar;
    }
    if is_x86_feature_detected!("avx2") {
        return Microkernel::Wide8;
    }
    Microkernel::Scalar
}

#[cfg(not(target_arch = "x86_64"))]
fn select() -> Microkernel {
    Microkernel::Scalar
}

/// SIMD entry point mirroring [`crate::gemm::block_scalar`]'s contract:
/// multiply `out.len() / n` rows of A (read through `lhs`) by the packed
/// panels of `pages` consecutive pages, summing the pages' products, into
/// `out`. Returns `false` (leaving `out` untouched) when the selected kernel
/// is scalar so `gemm::block` falls through to the portable tile.
#[cfg(target_arch = "x86_64")]
pub(crate) fn block(
    a: &[f32],
    lhs: Lhs,
    k: usize,
    packed: &[f32],
    pages: usize,
    n: usize,
    out: &mut [f32],
) -> bool {
    if microkernel() == Microkernel::Scalar {
        return false;
    }
    if k == 0 || pages == 0 {
        // No terms: every output is the empty sum, `+0.0`.
        out.fill(0.0);
        return true;
    }
    let rows = out.len().checked_div(n).unwrap_or(0);
    let packed_len = k.checked_mul(n).and_then(|kn| kn.checked_mul(pages));
    let in_bounds = rows * n == out.len()
        && lhs.fits(a.len(), rows, k, pages)
        && packed_len.is_some_and(|len| len <= packed.len());
    if !in_bounds {
        crate::error::violation(format_args!(
            "gemm block out of bounds: {rows} rows x {k} terms x {pages} pages, n = {n}"
        ));
    }
    // SAFETY: `microkernel()` only returns `Wide8` after
    // `is_x86_feature_detected!("avx2")` confirmed the CPU feature at
    // selection time. `k` and `pages` are non-zero and the check above
    // holds: every lhs element the block reads (`Lhs::fits`), the `pages`
    // packed pages, and whole `n`-wide output rows are in bounds, which is
    // the contract `block_wide8` relies on.
    unsafe { x86::block_wide8(a, lhs, k, packed, pages, n, out) };
    true
}

/// Non-x86 builds have no explicit-SIMD kernel; always fall back.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn block(
    _a: &[f32],
    _lhs: Lhs,
    _k: usize,
    _packed: &[f32],
    _pages: usize,
    _n: usize,
    _out: &mut [f32],
) -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Lhs, MR, NR};
    use std::arch::x86_64::{
        __m256, __m256i, _mm256_add_ps, _mm256_cmpgt_epi32, _mm256_loadu_ps, _mm256_maskload_ps,
        _mm256_maskstore_ps, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32,
        _mm256_setzero_ps, _mm256_storeu_ps,
    };

    /// What every tile of one packed panel shares.
    struct Panel {
        lhs: Lhs,
        k: usize,
        pages: usize,
        /// Packed floats per page (`k * n`).
        b_page: usize,
        /// Live columns, which are also the packed row stride (`w <= NR`).
        w: usize,
        /// Lanes `j < w` of the panel's two 8-wide halves.
        mask: [__m256i; 2],
        /// Output row stride.
        n: usize,
    }

    /// AVX2 bit-exact kernel: 8-wide mul-then-add over every `NR` panel,
    /// the ragged right edge included — an edge panel loads and stores
    /// through lane masks, so its dead columns are neither read nor
    /// written.
    ///
    /// SAFETY: callers guarantee `k > 0`, `pages > 0`, whole `n`-wide rows
    /// in `out`, `lhs.fits(a.len(), out.len() / n, k, pages)`, and
    /// `packed.len() >= pages * k * n`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn block_wide8(
        a: &[f32],
        lhs: Lhs,
        k: usize,
        packed: &[f32],
        pages: usize,
        n: usize,
        out: &mut [f32],
    ) {
        let rows = out.len().checked_div(n).unwrap_or(0);
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let upper = _mm256_setr_epi32(8, 9, 10, 11, 12, 13, 14, 15);
        for (jt, j0) in (0..n).step_by(NR).enumerate() {
            let w = NR.min(n - j0);
            let live = _mm256_set1_epi32(w as i32);
            let panel = Panel {
                lhs,
                k,
                pages,
                b_page: k * n,
                w,
                mask: [
                    _mm256_cmpgt_epi32(live, lanes),
                    _mm256_cmpgt_epi32(live, upper),
                ],
                n,
            };
            let mut i = 0;
            while i < rows {
                let r = if i + MR <= rows { MR } else { 1 };
                // SAFETY: row `i < rows` of page 0 starts inside `a` (the
                // caller's `lhs.fits` covers rows `0..rows` of every page),
                // panel `jt` of page 0 starts inside `packed`, and
                // `i * n + j0` lies inside row `i` of `out`. The tile reads
                // and writes only rows `i..i + r`, `r <= rows - i`, of the
                // panel's `w` columns.
                unsafe {
                    let ap = a.as_ptr().add(lhs.off + i * lhs.rs);
                    let bp = packed.as_ptr().add(jt * k * NR);
                    let op = out.as_mut_ptr().add(i * n + j0);
                    match (r, w) {
                        (MR, NR) => tile::<MR, 2, false>(&panel, ap, bp, op),
                        (_, NR) => tile::<1, 2, false>(&panel, ap, bp, op),
                        (MR, 9..) => tile::<MR, 2, true>(&panel, ap, bp, op),
                        (_, 9..) => tile::<1, 2, true>(&panel, ap, bp, op),
                        (MR, _) => tile::<MR, 1, true>(&panel, ap, bp, op),
                        _ => tile::<1, 1, true>(&panel, ap, bp, op),
                    }
                }
                i += r;
            }
        }
    }

    /// `R` rows × `V` 8-wide halves of one panel, summed over the panel's
    /// pages and stored once. Per output element this is `acc += a[i,p] *
    /// b[p,j]` with a separate rounding for the multiply and the add, `p`
    /// ascending, from `+0.0` on every page, then `sum += acc` in page order
    /// from `+0.0` — the scalar tile's exact arithmetic, so lanes match it
    /// bit-for-bit. An `EDGE` panel (`w < NR`, `V = 1` when `w <= 8`) loads
    /// and stores through `panel.mask`.
    ///
    /// SAFETY: callers guarantee that `a` is row 0 of the tile in the first
    /// summed page, with rows `0..R` of every page in bounds through
    /// `panel.lhs`'s strides for all `k` terms; `b` is the panel's start in
    /// the first page's packed panels, followed by `pages - 1` more pages
    /// `b_page` apart; `out` is row 0 of the tile, with `R` rows of `w`
    /// columns `n` apart in bounds.
    #[target_feature(enable = "avx2")]
    unsafe fn tile<const R: usize, const V: usize, const EDGE: bool>(
        panel: &Panel,
        a: *const f32,
        b: *const f32,
        out: *mut f32,
    ) {
        let mut sum = [[_mm256_setzero_ps(); V]; R];
        for t in 0..panel.pages {
            let at = a.add(t * panel.lhs.page);
            let bt = b.add(t * panel.b_page);
            add_page::<R, V, EDGE>(panel, at, bt, &mut sum);
        }
        for (r, sum_r) in sum.iter().enumerate() {
            for (v, (&s, &mask)) in sum_r.iter().zip(&panel.mask).enumerate() {
                let o = out.add(r * panel.n + 8 * v);
                if EDGE {
                    _mm256_maskstore_ps(o, mask, s);
                } else {
                    _mm256_storeu_ps(o, s);
                }
            }
        }
    }

    /// Add one page's `R`×`8V` product, accumulated from `+0.0` over the
    /// `k` terms in ascending order, into `sum`. Kept out of line so that
    /// only the page's accumulators, not the running sum, hold registers
    /// in the `k` loop.
    ///
    /// SAFETY: callers guarantee the bounds of [`tile`] for this one page:
    /// `a` and `b` are the page's row 0 and panel start.
    #[target_feature(enable = "avx2")]
    #[inline(never)]
    unsafe fn add_page<const R: usize, const V: usize, const EDGE: bool>(
        panel: &Panel,
        a: *const f32,
        b: *const f32,
        sum: &mut [[__m256; V]; R],
    ) {
        let stride = if EDGE { panel.w } else { NR };
        let (rs, cs) = (panel.lhs.rs, panel.lhs.cs);
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        for p in 0..panel.k {
            let bp = b.add(p * stride);
            let mut bv = [_mm256_setzero_ps(); V];
            for (v, (b_v, &mask)) in bv.iter_mut().zip(&panel.mask).enumerate() {
                *b_v = if EDGE {
                    _mm256_maskload_ps(bp.add(8 * v), mask)
                } else {
                    _mm256_loadu_ps(bp.add(8 * v))
                };
            }
            let ap = a.add(p * cs);
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*ap.add(r * rs));
                for (acc_v, &b_v) in acc_r.iter_mut().zip(&bv) {
                    *acc_v = _mm256_add_ps(*acc_v, _mm256_mul_ps(av, b_v));
                }
            }
        }
        for (sum_r, acc_r) in sum.iter_mut().zip(&acc) {
            for (s, &v) in sum_r.iter_mut().zip(acc_r) {
                *s = _mm256_add_ps(*s, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{block_scalar, pack_b};

    fn pseudo(seed: u32, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
                (x % 2001) as f32 / 1000.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn selection_is_stable_and_named() {
        let first = microkernel();
        assert_eq!(first, microkernel(), "selection must be cached");
        assert!(!kernel_name().is_empty());
        assert_eq!(simd_active(), first != Microkernel::Scalar);
    }

    #[test]
    fn simd_block_is_byte_identical_to_scalar_block() {
        // Edge-heavy shapes: rows % MR, cols % NR (the attention pages'
        // widths 4, 8 and 12 among them), tiny k, single column. Each is
        // also run with A read transposed and over three summed pages.
        // Whenever the host selects a SIMD kernel it must match the scalar
        // tile to the bit.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 16, 16),
            (5, 17, 33),
            (9, 8, 16),
            (13, 8, 1),
            (16, 31, 47),
            (17, 64, 80),
            (12, 12, 4),
            (7, 12, 8),
            (12, 8, 12),
        ] {
            for (pages, transposed) in [(1, false), (3, true)] {
                let a = pseudo(1, pages * m * k);
                let b = pseudo(2, pages * k * n);
                let packed = pack_b(&b, pages, k, n, false);
                let (rs, cs) = if transposed { (1, m) } else { (k, 1) };
                let lhs = Lhs {
                    off: 0,
                    rs,
                    cs,
                    page: m * k,
                };
                let mut want = vec![0.0f32; m * n];
                block_scalar(&a, lhs, k, &packed, pages, n, &mut want);
                let mut got = vec![0.0f32; m * n];
                if !block(&a, lhs, k, &packed, pages, n, &mut got) {
                    return; // scalar-only host: nothing to compare
                }
                let same = want
                    .iter()
                    .zip(&got)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(
                    same,
                    "SIMD != scalar bits for shape ({m},{k},{n}), {pages} page(s)"
                );
            }
        }
    }
}
