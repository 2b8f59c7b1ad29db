//! Bit-identical determinism of the pooled kernels across thread counts.
//!
//! The compute pool promises that chunk boundaries depend only on problem
//! size, never on `D2_THREADS`, and the SIMD micro-kernel promises
//! mul-then-add arithmetic identical to the scalar tile — so every pooled
//! kernel must produce the exact same bytes at any parallelism × SIMD
//! combination, including fully serial scalar. Because the pool and the
//! kernel selector read their environment exactly once per process, the
//! threads × `D2_SIMD` matrix is exercised by re-running this test binary
//! as a child process (one spawn per configuration) and comparing the raw
//! little-endian `f32` bytes each child writes.

use std::process::Command;

use d2stgnn_tensor::{pool, Array, CsrMatrix, Tensor};

/// When set, `child_emit_workload` runs the workload and writes its output
/// bytes to the file this variable names; unset, that test is a no-op.
const CHILD_OUT_ENV: &str = "D2_DETERMINISM_CHILD_OUT";

/// Deterministic pseudo-random data with exact zeros sprinkled in so the
/// GEMM zero-skip path is exercised.
fn fill(n: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(12345);
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            if state.is_multiple_of(17) {
                0.0
            } else {
                (state >> 8) as f32 / 16_777_216.0 - 0.5
            }
        })
        .collect()
}

fn arr(shape: &[usize], seed: u32) -> Array {
    let n: usize = shape.iter().product();
    Array::from_vec(shape, fill(n, seed)).unwrap()
}

/// The reference workload: every kernel family the pool dispatches —
/// 2-D, batched and grouped matmul (awkward non-tile-multiple shapes),
/// elementwise binary/unary chains spanning multiple chunks, layout walks,
/// and axis reductions — concatenated into one flat output vector.
fn workload() -> Vec<f32> {
    let mut out = Vec::new();

    // 2-D GEMM, shapes that are not multiples of the 4x16 micro-tile or
    // the 16-row chunk.
    let a = arr(&[37, 29], 1);
    let b = arr(&[29, 41], 2);
    out.extend_from_slice(a.matmul(&b).data());

    // Batched matmul: 3-D x 2-D and 3-D x 3-D.
    let c = arr(&[3, 19, 23], 3);
    let d = arr(&[23, 17], 4);
    out.extend_from_slice(c.matmul(&d).data());
    let e = arr(&[2, 11, 13], 5);
    let f = arr(&[2, 13, 7], 6);
    out.extend_from_slice(e.matmul(&f).data());

    // Elementwise chain across >1 chunk (numel 35_005 > the 32_768 chunk):
    // ((x + y) * z).relu() through the autograd ops, then sigmoid/tanh.
    let x = Tensor::constant(arr(&[5, 7001], 7));
    let y = Tensor::constant(arr(&[5, 7001], 8));
    let z = Tensor::constant(arr(&[5, 7001], 9));
    let chain = x.add(&y).mul(&z).relu();
    out.extend_from_slice(chain.value().data());
    out.extend_from_slice(chain.sigmoid().value().data());
    out.extend_from_slice(chain.tanh().value().data());

    // Sparse spmm: rank-2 and batched rank-3, non-chunk-multiple rows, the
    // dense operand reused from the pool-spanning shapes above. The 0.25
    // threshold leaves ~half the entries stored so rows mix kept and
    // skipped terms; `fill` guarantees empty rows via its exact zeros.
    let s = CsrMatrix::from_dense(&arr(&[37, 29], 13), 0.25).unwrap();
    out.extend_from_slice(s.matmul(&arr(&[29, 41], 14)).data());
    let sb = CsrMatrix::from_dense(&arr(&[19, 23], 15), 0.25).unwrap();
    out.extend_from_slice(sb.matmul(&arr(&[3, 23, 17], 16)).data());
    // Sparse-sparse products and transposition feed the same accumulators
    // the autograd backward path uses.
    let sq = CsrMatrix::from_dense(&arr(&[29, 29], 17), 0.25).unwrap();
    let prod = sq.matmul_sparse(&sq.transpose()).unwrap().to_dense();
    out.extend_from_slice(prod.data());

    // Layout walks through the autograd ops: a transpose of oblong pages,
    // broadcasting adds of a row and a column operand, and a general
    // permute.
    let p = Tensor::constant(arr(&[4, 37, 45], 18));
    let row = Tensor::constant(arr(&[37], 19));
    let col = Tensor::constant(arr(&[4, 45, 1], 20));
    let walked = p.transpose().add(&row).add(&col).permute(&[2, 0, 1]);
    out.extend_from_slice(walked.value().data());

    // Grouped matmul [3,m,k] x [3·5,k,n] and both of its gradients.
    let g = Tensor::parameter(arr(&[3, 19, 23], 21));
    let h = Tensor::parameter(arr(&[15, 23, 17], 22));
    let grouped = g.matmul(&h);
    out.extend_from_slice(grouped.value().data());
    grouped.square().sum_all().backward();
    out.extend_from_slice(g.grad().unwrap().data());
    out.extend_from_slice(h.grad().unwrap().data());

    // Axis reductions over both an outer and the inner axis, plus scalars.
    let r = arr(&[48, 1031], 10);
    out.extend_from_slice(r.sum_axis(0, false).data());
    out.extend_from_slice(r.sum_axis(1, false).data());
    out.extend_from_slice(r.mean_axis(0, true).data());
    out.push(r.sum_all());
    out.push(r.mean_all());

    out
}

fn to_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// 64-bit FNV-1a over a byte stream, as 16 hex digits (the scheme of the
/// data crate's fingerprint tests).
fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Child entry point: gated on [`CHILD_OUT_ENV`] so it is inert in a normal
/// test run. Under a forced-pool environment it also cross-checks the pooled
/// workload against `pool::with_serial` and the reference GEMM in-process.
#[test]
fn child_emit_workload() {
    let Ok(path) = std::env::var(CHILD_OUT_ENV) else {
        return;
    };
    let pooled = workload();
    let serial = pool::with_serial(workload);
    assert_eq!(
        to_bytes(&pooled),
        to_bytes(&serial),
        "pooled workload diverged from with_serial in the same process"
    );
    // Value equality (not bitwise): the tiled kernel drops the reference
    // kernel's zero-skip, which can only flip a zero's sign bit.
    let a = arr(&[67, 43], 11);
    let b = arr(&[43, 53], 12);
    let (tiled, reference) = (a.matmul(&b), a.matmul_reference(&b));
    assert!(
        tiled
            .data()
            .iter()
            .zip(reference.data())
            .all(|(x, y)| x == y),
        "tiled matmul diverged from the reference kernel"
    );
    std::fs::write(&path, to_bytes(&pooled)).unwrap();
}

fn run_child(
    dir: &std::path::Path,
    tag: &str,
    threads: &str,
    threshold: &str,
    simd: &str,
) -> Vec<u8> {
    let out = dir.join(format!("{tag}.bin"));
    let status = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "child_emit_workload", "--test-threads", "1"])
        .env(CHILD_OUT_ENV, &out)
        .env("D2_THREADS", threads)
        .env("D2_PAR_THRESHOLD", threshold)
        .env("D2_SIMD", simd)
        .status()
        .unwrap();
    assert!(status.success(), "child run `{tag}` failed");
    std::fs::read(&out).unwrap()
}

#[test]
fn workload_is_bit_identical_across_threads_and_simd() {
    let dir = std::env::temp_dir().join(format!("d2-determinism-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Baseline: a scalar child that never pools (threshold above any
    // workload, explicit-SIMD kernels disabled).
    let never_pool = usize::MAX.to_string();
    let baseline = run_child(&dir, "serial", "1", &never_pool, "0");
    assert_eq!(
        baseline.len() % 4,
        0,
        "workload bytes must be whole little-endian f32s"
    );
    assert!(
        baseline.len() > 4 * 100_000,
        "workload unexpectedly small: {} bytes",
        baseline.len()
    );
    // Pinned bytes: the configurations below are only compared with each
    // other, so without this a change that moved every configuration's
    // bits together would pass.
    assert_eq!(
        (baseline.len(), fnv1a(&baseline).as_str()),
        (527_100, "b9bcd068f42c3e43"),
        "the serial scalar workload's bytes moved"
    );

    // Every op pools (threshold 1) at 1, 2, and 8 threads, with the SIMD
    // micro-kernel off (scalar fallback) and on (auto-detected; selects
    // the scalar tile anyway on hosts without AVX2, which still exercises
    // the dispatch seam).
    for threads in ["1", "2", "8"] {
        for simd in ["0", "1"] {
            let run = run_child(
                &dir,
                &format!("pooled-{threads}-simd{simd}"),
                threads,
                "1",
                simd,
            );
            assert_eq!(
                run, baseline,
                "workload at D2_THREADS={threads} D2_SIMD={simd} diverged from \
                 the serial scalar baseline"
            );
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}
