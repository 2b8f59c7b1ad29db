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
//!   single element's accumulation.
//! * **`Scalar`** — anything else falls back to the always-compiled scalar
//!   tile in `gemm.rs`, including `D2_SIMD=0`, which the determinism suite
//!   uses to byte-compare SIMD-on vs SIMD-off runs.
//!
//! There is no fused multiply-add kernel: FMA skips the intermediate
//! rounding, and every kernel here must reproduce the scalar tile's bits so
//! that training resume and the determinism suite hold on any host.

#![allow(unsafe_code)]

use std::sync::OnceLock;

use crate::gemm::{MR, NR};

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
/// multiply `out.len() / n` rows of `a` by the packed `b` panels into `out`.
/// Returns `false` (leaving `out` untouched) when the selected kernel is
/// scalar so `gemm::block` falls through to the portable tile.
#[cfg(target_arch = "x86_64")]
pub(crate) fn block(a: &[f32], k: usize, packed_b: &[f32], n: usize, out: &mut [f32]) -> bool {
    if microkernel() == Microkernel::Scalar {
        return false;
    }
    // SAFETY: `microkernel()` only returns `Wide8` after
    // `is_x86_feature_detected!("avx2")` confirmed the CPU feature at
    // selection time, so calling the `#[target_feature]` fn is sound; the
    // kernel itself upholds the same slice-length contract as
    // `block_scalar` (checked by its internal bounds derivation).
    unsafe { x86::block_wide8(a, k, packed_b, n, out) };
    true
}

/// Non-x86 builds have no explicit-SIMD kernel; always fall back.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn block(_a: &[f32], _k: usize, _packed_b: &[f32], _n: usize, _out: &mut [f32]) -> bool {
    false
}

/// Scalar fallback for a panel narrower than `NR` (the right edge of C).
/// Identical arithmetic to `gemm::block_scalar`'s edge path — the SIMD
/// kernel delegates here so full-panel vectorization never changes edge
/// results.
fn edge_panel(a: &[f32], k: usize, panel: &[f32], w: usize, n: usize, j0: usize, out: &mut [f32]) {
    let rows = out.len().checked_div(n).unwrap_or(0);
    for i in 0..rows {
        let ai = &a[i * k..(i + 1) * k];
        let mut acc = [0f32; NR];
        for p in 0..k {
            crate::gemm::accumulate_row(&mut acc[..w], ai[p], &panel[p * w..(p + 1) * w]);
        }
        let o = i * n + j0;
        out[o..o + w].copy_from_slice(&acc[..w]);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{edge_panel, MR, NR};
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    /// AVX2 bit-exact kernel: 8-wide mul-then-add over full `NR` panels,
    /// scalar [`edge_panel`] for the ragged right edge.
    #[target_feature(enable = "avx2")]
    pub(super) fn block_wide8(a: &[f32], k: usize, packed_b: &[f32], n: usize, out: &mut [f32]) {
        let rows = out.len().checked_div(n).unwrap_or(0);
        let n_panels = n.div_ceil(NR);
        for jt in 0..n_panels {
            let j0 = jt * NR;
            let w = NR.min(n - j0);
            let off = jt * k * NR;
            if w < NR {
                edge_panel(a, k, &packed_b[off..off + k * w], w, n, j0, out);
                continue;
            }
            let panel = &packed_b[off..off + k * NR];
            let mut i = 0;
            while i + MR <= rows {
                tile4_wide8(a, i, k, panel, out, i * n + j0, n);
                i += MR;
            }
            while i < rows {
                tile1_wide8(a, i, k, panel, out, i * n + j0);
                i += 1;
            }
        }
    }

    /// `MR`×`NR` register tile: 4 rows × two 8-wide accumulators each.
    /// Per output element this is `acc += a[i,p] * b[p,j]` with a separate
    /// rounding for the multiply and the add, `p` ascending — the scalar
    /// tile's exact arithmetic, so lanes match it bit-for-bit.
    #[target_feature(enable = "avx2")]
    fn tile4_wide8(
        a: &[f32],
        i: usize,
        k: usize,
        panel: &[f32],
        out: &mut [f32],
        o0: usize,
        n: usize,
    ) {
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        let ap = a.as_ptr();
        let pp = panel.as_ptr();
        for p in 0..k {
            // SAFETY: `panel` holds `k` packed rows of `NR`=16 floats
            // (caller sliced it to exactly `k * NR`), so `p*NR + 8 + 8`
            // never exceeds its length.
            let (b0, b1) = unsafe {
                (
                    _mm256_loadu_ps(pp.add(p * NR)),
                    _mm256_loadu_ps(pp.add(p * NR + 8)),
                )
            };
            for (r, acc_r) in acc.iter_mut().enumerate() {
                // SAFETY: the caller dispatches tiles only while
                // `i + MR <= rows` with `a.len() >= rows * k`, so row
                // `i + r` of A spans `(i+r)*k .. (i+r+1)*k` in bounds.
                let av = unsafe { _mm256_set1_ps(*ap.add((i + r) * k + p)) };
                acc_r[0] = _mm256_add_ps(acc_r[0], _mm256_mul_ps(av, b0));
                acc_r[1] = _mm256_add_ps(acc_r[1], _mm256_mul_ps(av, b1));
            }
        }
        let op = out.as_mut_ptr();
        for (r, acc_r) in acc.iter().enumerate() {
            // SAFETY: `o0 = i*n + j0` with `j0 + NR <= n` (full panel) and
            // `i + MR <= rows = out.len()/n`, so each 16-float store at
            // `o0 + r*n` stays inside row `i + r` of `out`.
            unsafe {
                _mm256_storeu_ps(op.add(o0 + r * n), acc_r[0]);
                _mm256_storeu_ps(op.add(o0 + r * n + 8), acc_r[1]);
            }
        }
    }

    /// Single-row remainder of [`block_wide8`] (rows % `MR`), same
    /// mul-then-add arithmetic as [`tile4_wide8`].
    #[target_feature(enable = "avx2")]
    fn tile1_wide8(a: &[f32], i: usize, k: usize, panel: &[f32], out: &mut [f32], o0: usize) {
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let ap = a.as_ptr();
        let pp = panel.as_ptr();
        for p in 0..k {
            // SAFETY: same panel bound as in `tile4_wide8`; row `i` of A is
            // in bounds because the caller iterates `i < rows` with
            // `a.len() >= rows * k`.
            unsafe {
                let b0 = _mm256_loadu_ps(pp.add(p * NR));
                let b1 = _mm256_loadu_ps(pp.add(p * NR + 8));
                let av = _mm256_set1_ps(*ap.add(i * k + p));
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(av, b0));
                acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(av, b1));
            }
        }
        // SAFETY: `o0 = i*n + j0` with a full `NR` panel and `i < rows`, so
        // the 16 stored floats stay inside row `i` of `out`.
        unsafe {
            _mm256_storeu_ps(out.as_mut_ptr().add(o0), acc0);
            _mm256_storeu_ps(out.as_mut_ptr().add(o0 + 8), acc1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{block_scalar, pack_b_all};

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
        // Edge-heavy shapes: rows % MR, cols % NR, tiny k, single column.
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
        ] {
            let a = pseudo(1, m * k);
            let b = pseudo(2, k * n);
            let packed = pack_b_all(&b, 1, k, n);
            let mut want = vec![0.0f32; m * n];
            block_scalar(&a, k, &packed, n, &mut want);
            let mut got = vec![0.0f32; m * n];
            if !block(&a, k, &packed, n, &mut got) {
                continue; // scalar-only host: nothing to compare
            }
            let same = want
                .iter()
                .zip(&got)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "SIMD != scalar bits for shape ({m},{k},{n})");
        }
    }
}
