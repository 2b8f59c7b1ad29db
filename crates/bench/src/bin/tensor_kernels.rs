//! Tensor kernel microbenchmarks: seed-naive vs tiled-scalar vs explicit-SIMD
//! vs pooled GEMM, across a thread matrix, plus the elementwise kernels.
//!
//! Because the tensor crate reads `D2_THREADS` / `D2_SIMD` exactly once per
//! process, each (threads, simd) configuration is measured by re-running this
//! binary as a child process (`D2_TK_CHILD_OUT` names its output file) and
//! the parent assembles one row per GEMM shape × thread count:
//!
//! * `serial_ms` — [`Array::matmul_reference`], the seed's naive kernel
//!   (measured in the scalar child), so `speedup` stays "this repo vs seed".
//! * `tiled_serial_ms` — the PR-4 tiled kernel, scalar, single-threaded.
//! * `simd_serial_ms` — the explicit-SIMD kernel, single-threaded;
//!   `simd_speedup = tiled_serial_ms / simd_serial_ms`.
//! * `pooled_ms` — SIMD kernel dispatched through the pool at `threads`;
//!   `parallel_speedup = simd_serial_ms / pooled_ms` is the residual gain
//!   from pool threads alone (≈1.0 on a single-core container).
//!
//! `model` rows time the matmul shapes the paper-size model runs (see
//! [`MODEL_SHAPES`]) the same way, with the tiled kernel as their `serial_ms`;
//! `model_bwd` rows time `Tensor::matmul` plus `backward_with` at the same
//! shapes, the forward and both gradients.
//!
//! Writes `target/experiments/BENCH_tensor_kernels.json` (schema
//! `d2stgnn-bench-v1`). `--fast` runs fewer, smaller square shapes for the
//! CI smoke; the model shapes are the same in both modes.

use std::process::Command;
use std::time::Instant;

use d2stgnn_bench::write_bench_artifact;
use d2stgnn_tensor::{pool, simd, Array, Tensor};
use serde::{Deserialize, Serialize};

/// Child-mode trigger: when set, run the measurement pass with the inherited
/// environment and write a [`ChildOut`] JSON to the named file.
const CHILD_OUT_ENV: &str = "D2_TK_CHILD_OUT";
/// Set on the scalar child only: also time the (slow) seed-naive kernel.
const NAIVE_ENV: &str = "D2_TK_NAIVE";

#[derive(Serialize)]
struct KernelRow {
    kernel: String,
    shape: String,
    /// Pool threads for the pooled series in this row.
    threads: usize,
    /// SIMD micro-kernel behind `simd_serial_ms`/`pooled_ms`
    /// (`"avx2"`, ... or `"scalar"` on hosts without SIMD; `"-"` for
    /// elementwise rows, which have no SIMD path).
    simd: String,
    /// Estimated scalar ops (2mnk for GEMM/bmm, numel otherwise).
    flops: u64,
    serial_ms: f64,
    /// GEMM: tiled kernel, scalar, forced serial (0.0 elsewhere).
    tiled_serial_ms: f64,
    /// GEMM: explicit-SIMD kernel, forced serial (0.0 elsewhere).
    simd_serial_ms: f64,
    pooled_ms: f64,
    gflops_serial: f64,
    gflops_simd: f64,
    gflops_pooled: f64,
    /// serial_ms / pooled_ms — gain over the seed implementation.
    speedup: f64,
    /// tiled_serial_ms / simd_serial_ms — gain from explicit SIMD alone.
    simd_speedup: f64,
    /// simd_serial_ms / pooled_ms — gain attributable to pool threads.
    parallel_speedup: f64,
}

#[derive(Serialize)]
struct BenchConfig {
    fast: bool,
    reps: usize,
    /// Host cores (`available_parallelism`): ci.sh only enforces the
    /// 2-thread parallel-speedup floor when this is >= 2.
    cores: usize,
    /// Thread counts the gemm/bmm rows cover.
    thread_set: Vec<usize>,
    /// Auto-detected SIMD kernel ("scalar" when the host has none).
    simd_kernel: String,
    par_threshold: usize,
}

/// One measured shape inside a child process.
#[derive(Serialize, Deserialize)]
struct ChildRow {
    kind: String,
    shape: String,
    flops: u64,
    naive_ms: f64,
    tiled_ms: f64,
    pooled_ms: f64,
}

/// Everything a child reports back to the orchestrating parent.
#[derive(Serialize, Deserialize)]
struct ChildOut {
    threads: usize,
    simd: String,
    rows: Vec<ChildRow>,
}

/// Pseudo-random data with exact zeros so the GEMM zero-skip is realistic.
fn fill(n: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(12345);
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            if state.is_multiple_of(31) {
                0.0
            } else {
                (state >> 8) as f32 / 16_777_216.0 - 0.5
            }
        })
        .collect()
}

fn arr(shape: &[usize], seed: u32) -> Array {
    let n = shape.iter().product();
    Array::from_vec(shape, fill(n, seed)).expect("bench shape")
}

/// Best-of-`reps` wall time in milliseconds; `sink` defeats dead-code
/// elimination across reps.
fn time_best(reps: usize, sink: &mut f64, mut f: impl FnMut() -> Array) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        *sink += f64::from(out.data()[0]);
    }
    best
}

/// GEMM shapes (square n) and the bmm shape `(batch, n)` for a mode. The
/// `--fast` set still ends at the full run's 512³: CI reads its speedup
/// floors off the largest GEMM, and a 128³ one (about 0.1 ms) is too short
/// to time or to split across threads.
fn shapes(fast: bool) -> (&'static [usize], (usize, usize)) {
    if fast {
        (&[48, 128, 512], (4, 64))
    } else {
        (&[64, 128, 256, 384, 512], (8, 256))
    }
}

/// `(lhs, rhs)` of the matmuls that dominate a training step of the
/// paper-size model (207 sensors, batch 4, hidden 32): the `[9936,32]`
/// linear layers, the per-window grouped Eq. 8 product, the adaptive-matrix
/// arm, and the inherent block's two attention pages. Their rows are
/// labelled `model` (forward) and `model_bwd` (forward and backward), so
/// the square `gemm` rows alone carry CI's floors.
const MODEL_SHAPES: [(&[usize], &[usize]); 5] = [
    (&[9936, 32], &[32, 32]),
    (&[4, 207, 207], &[48, 207, 32]),
    (&[207, 207], &[48, 207, 32]),
    (&[3312, 12, 12], &[3312, 12, 8]),
    (&[3312, 12, 8], &[3312, 8, 12]),
];

/// Child entry point: measure every GEMM/bmm/model shape under this process's
/// (threads, simd) environment and write the results as JSON.
fn run_child(out_path: &str, fast: bool, reps: usize) {
    let naive_too = std::env::var_os(NAIVE_ENV).is_some();
    let (gemm_sizes, (bb, bn)) = shapes(fast);
    let mut sink = 0.0;
    let mut rows = Vec::new();
    for &n in gemm_sizes {
        let a = arr(&[n, n], n as u32);
        let b = arr(&[n, n], n as u32 + 1);
        let naive_ms = if naive_too {
            time_best(reps, &mut sink, || a.matmul_reference(&b))
        } else {
            0.0
        };
        let tiled_ms = time_best(reps, &mut sink, || pool::with_serial(|| a.matmul(&b)));
        let pooled_ms = time_best(reps, &mut sink, || a.matmul(&b));
        rows.push(ChildRow {
            kind: "gemm".into(),
            shape: format!("{n}x{n}x{n}"),
            flops: 2 * (n as u64).pow(3),
            naive_ms,
            tiled_ms,
            pooled_ms,
        });
    }
    // Batched matmul: pooled over batch × row-panels since PR 9.
    let a = arr(&[bb, bn, bn], 7);
    let b = arr(&[bb, bn, bn], 8);
    let tiled_ms = time_best(reps, &mut sink, || pool::with_serial(|| a.matmul(&b)));
    let pooled_ms = time_best(reps, &mut sink, || a.matmul(&b));
    rows.push(ChildRow {
        kind: "bmm".into(),
        shape: format!("{bb}x{bn}x{bn}x{bn}"),
        flops: 2 * (bb as u64) * (bn as u64).pow(3),
        naive_ms: 0.0,
        tiled_ms,
        pooled_ms,
    });
    for (i, &(lhs, rhs)) in MODEL_SHAPES.iter().enumerate() {
        let a = arr(lhs, 20 + 2 * i as u32);
        let b = arr(rhs, 21 + 2 * i as u32);
        let tiled_ms = time_best(reps, &mut sink, || pool::with_serial(|| a.matmul(&b)));
        let pooled_ms = time_best(reps, &mut sink, || a.matmul(&b));
        // The output has the wider operand's batch of `[m,n]` pages.
        let (m, k, n) = (lhs[lhs.len() - 2], lhs[lhs.len() - 1], rhs[rhs.len() - 1]);
        let pages = |s: &[usize]| s[..s.len() - 2].iter().product::<usize>();
        let macs = pages(lhs).max(pages(rhs)) * m * k * n;
        let shape = format!("{lhs:?}x{rhs:?}").replace(' ', "");
        rows.push(ChildRow {
            kind: "model".into(),
            shape: shape.clone(),
            flops: 2 * macs as u64,
            naive_ms: 0.0,
            tiled_ms,
            pooled_ms,
        });
        // `model_bwd`: the same product through autograd, forward plus both
        // gradients (`g·Bᵀ` and `Aᵀ·g`, with their page sums), so three
        // products' worth of flops.
        let seed = arr(a.matmul(&b).shape(), 40 + i as u32);
        let step = || {
            let (ta, tb) = (Tensor::parameter(a.clone()), Tensor::parameter(b.clone()));
            ta.matmul(&tb).backward_with(seed.clone());
            tb.grad().expect("rhs gradient")
        };
        let tiled_ms = time_best(reps, &mut sink, || pool::with_serial(step));
        let pooled_ms = time_best(reps, &mut sink, step);
        rows.push(ChildRow {
            kind: "model_bwd".into(),
            shape,
            flops: 6 * macs as u64,
            naive_ms: 0.0,
            tiled_ms,
            pooled_ms,
        });
    }
    let out = ChildOut {
        threads: pool::threads(),
        simd: simd::kernel_name().to_string(),
        rows,
    };
    let json = serde_json::to_string(&out).expect("child serialize");
    std::fs::write(out_path, json).expect("child write");
    eprintln!(
        "[tensor_kernels]   child threads={} simd={} done (sink {sink:.3})",
        out.threads, out.simd
    );
}

/// Spawn this binary back as a measurement child with the given environment.
fn spawn_child(tag: &str, fast: bool, threads: usize, simd: &str, naive: bool) -> ChildOut {
    let dir = std::env::temp_dir().join(format!("d2-tk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("child dir");
    let out = dir.join(format!("{tag}.json"));
    let mut cmd = Command::new(std::env::current_exe().expect("current exe"));
    if fast {
        cmd.arg("--fast");
    }
    cmd.env(CHILD_OUT_ENV, &out)
        .env("D2_THREADS", threads.to_string())
        .env("D2_SIMD", simd);
    if naive {
        cmd.env(NAIVE_ENV, "1");
    }
    eprintln!("[tensor_kernels] child {tag}: threads={threads} simd={simd}...");
    let status = cmd.status().expect("spawn child");
    assert!(status.success(), "bench child `{tag}` failed");
    let json = std::fs::read_to_string(&out).expect("child output");
    // The directory holds only this child's output, which is now read. A
    // failed removal leaves a stray temp dir, not a wrong result.
    let _ = std::fs::remove_dir_all(&dir);
    serde_json::from_str(&json).expect("child parse")
}

fn elementwise_row(kernel: &str, numel: usize, reps: usize, sink: &mut f64) -> KernelRow {
    let a = arr(&[numel], 101);
    let b = arr(&[numel], 102);
    let mut op = |serial: bool| -> f64 {
        let run = || match kernel {
            "add" => a.add(&b),
            "mul" => a.mul(&b),
            "relu" => a.map(|v| v.max(0.0)),
            "sum_axis" => a
                .reshape(&[numel / 1024, 1024])
                .expect("bench reshape")
                .sum_axis(0, false),
            other => unreachable!("unknown kernel {other}"),
        };
        if serial {
            time_best(reps, sink, || pool::with_serial(run))
        } else {
            time_best(reps, sink, run)
        }
    };
    let serial_ms = op(true);
    let pooled_ms = op(false);
    KernelRow {
        kernel: kernel.into(),
        shape: format!("{numel}"),
        threads: pool::threads(),
        simd: "-".into(),
        flops: numel as u64,
        serial_ms,
        tiled_serial_ms: 0.0,
        simd_serial_ms: 0.0,
        pooled_ms,
        gflops_serial: numel as f64 / serial_ms / 1e6,
        gflops_simd: 0.0,
        gflops_pooled: numel as f64 / pooled_ms / 1e6,
        speedup: serial_ms / pooled_ms,
        simd_speedup: 0.0,
        parallel_speedup: 0.0,
    }
}

fn main() {
    // Pool every kernel regardless of size so the pooled series actually
    // exercises the worker pool even at smoke shapes. Must precede the
    // first tensor op (the pool reads its environment once per process),
    // and inherits into measurement children.
    if std::env::var_os("D2_PAR_THRESHOLD").is_none() {
        std::env::set_var("D2_PAR_THRESHOLD", "1");
    }
    let fast = std::env::args().any(|a| a == "--fast");
    let reps = 3;
    if let Ok(out_path) = std::env::var(CHILD_OUT_ENV) {
        run_child(&out_path, fast, reps);
        return;
    }

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut thread_set = vec![1usize, 2];
    if cores > 2 {
        thread_set.push(cores);
    }

    // One scalar child (naive + tiled baselines), one single-threaded SIMD
    // child, then one SIMD child per additional thread count.
    let scalar = spawn_child("scalar", fast, 1, "0", true);
    let simd1 = spawn_child("simd-t1", fast, 1, "1", false);
    let mut pooled = vec![simd1];
    for &t in thread_set.iter().skip(1) {
        pooled.push(spawn_child(&format!("simd-t{t}"), fast, t, "1", false));
    }

    let mut rows = Vec::new();
    for (child, &threads) in pooled.iter().zip(&thread_set) {
        for (i, r) in child.rows.iter().enumerate() {
            let base = &scalar.rows[i];
            let simd_serial_ms = pooled[0].rows[i].tiled_ms;
            // bmm and model rows have no seed-naive reference; their
            // `speedup` is measured against the tiled-scalar serial kernel.
            let serial_ms = if base.naive_ms > 0.0 {
                base.naive_ms
            } else {
                base.tiled_ms
            };
            rows.push(KernelRow {
                kernel: r.kind.clone(),
                shape: r.shape.clone(),
                threads,
                simd: child.simd.clone(),
                flops: r.flops,
                serial_ms,
                tiled_serial_ms: base.tiled_ms,
                simd_serial_ms,
                pooled_ms: r.pooled_ms,
                gflops_serial: r.flops as f64 / serial_ms / 1e6,
                gflops_simd: r.flops as f64 / simd_serial_ms / 1e6,
                gflops_pooled: r.flops as f64 / r.pooled_ms / 1e6,
                speedup: serial_ms / r.pooled_ms,
                simd_speedup: base.tiled_ms / simd_serial_ms,
                parallel_speedup: simd_serial_ms / r.pooled_ms,
            });
        }
    }

    let numel = if fast { 1 << 17 } else { 1 << 21 };
    for kernel in ["add", "mul", "relu", "sum_axis"] {
        eprintln!("[tensor_kernels] {kernel} n={numel}...");
        let mut sink = 0.0;
        rows.push(elementwise_row(kernel, numel, reps, &mut sink));
    }

    println!(
        "{:<9} {:>25} {:>3} {:>10} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "kernel",
        "shape",
        "t",
        "simd",
        "serial",
        "tiled",
        "simd",
        "pooled",
        "speedup",
        "simd_x",
        "par_x"
    );
    println!(
        "{:<9} {:>25} {:>3} {:>10} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "", "", "", "", "ms", "ms", "ms", "ms", "", "", ""
    );
    for r in &rows {
        println!(
            "{:<9} {:>25} {:>3} {:>10} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>7.2}x {:>7.2}x {:>7.2}x",
            r.kernel,
            r.shape,
            r.threads,
            r.simd,
            r.serial_ms,
            r.tiled_serial_ms,
            r.simd_serial_ms,
            r.pooled_ms,
            r.speedup,
            r.simd_speedup,
            r.parallel_speedup,
        );
    }

    let stats = pool::stats();
    let config = BenchConfig {
        fast,
        reps,
        cores,
        thread_set,
        simd_kernel: pooled[0].simd.clone(),
        par_threshold: stats.par_threshold,
    };
    eprintln!(
        "[tensor_kernels] host: cores={} simd={} | parent pool: threads={} \
         pooled_tasks={} bufpool hits/misses/recycled={}/{}/{}",
        cores,
        config.simd_kernel,
        stats.threads,
        stats.pooled_tasks,
        stats.bufpool_hits,
        stats.bufpool_misses,
        stats.bufpool_recycled,
    );
    let config_json = serde_json::to_string(&config).expect("config serialize");
    let results_json = serde_json::to_string(&rows).expect("results serialize");
    match write_bench_artifact("tensor_kernels", &config_json, &results_json) {
        Ok(path) => eprintln!("[tensor_kernels] wrote {}", path.display()),
        Err(e) => eprintln!("[tensor_kernels] could not write artifact: {e}"),
    }
}
