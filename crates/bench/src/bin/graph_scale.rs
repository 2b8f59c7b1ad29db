//! City-scale graph scaling benchmark: nodes-vs-epoch-time and
//! nodes-vs-serve-latency curves for the sparse (CSR) model path, plus a
//! dense↔sparse equivalence matrix.
//!
//! For each network size the binary generates a [`d2stgnn_data::CityData`]
//! road network with `simulate_city`, builds a static-graph D²STGNN through
//! [`D2stgnn::new_sparse`] (transitions stay CSR end to end), and measures
//!
//! * `epoch_ms` — wall time of a fixed number of training windows
//!   (forward, masked-MAE loss, backward, Adam step), and
//! * `serve_ms` — best-of-reps `no_grad` forward of a single window.
//!
//! A log-log least-squares fit of `epoch_ms` against `nodes` gives the
//! scaling exponent; the CSR path must stay sub-quadratic (ci.sh enforces
//! exponent < 1.5 on the committed artifact, where the dense path is ≥ 2).
//!
//! Because `D2_THREADS` is read once per process, the dense↔sparse
//! equivalence matrix re-runs this binary as child processes
//! (`graph_scale --child <dense|csr> <out-file>`): one forecast per
//! (threads ∈ {1,2,8}) × (path ∈ {dense, csr}) cell, all six byte files
//! compared for exact equality. Both paths are built through the public
//! constructors from the same seed: `D2stgnn::new` on a 32-node
//! `TrafficNetwork` whose transitions stay under the CSR dispatch
//! threshold, and `D2stgnn::new_sparse` on `SparseNetwork::from_network` of
//! the same network.
//!
//! Writes `target/experiments/BENCH_graph_scale.json` (schema
//! `d2stgnn-bench-v1`). `--fast` shrinks sizes for the CI smoke.

use std::process::Command;
use std::time::Instant;

use d2stgnn_bench::write_bench_artifact;
use d2stgnn_core::graphs::{GraphContext, MaskedPower, Transitions};
use d2stgnn_core::{D2stgnn, D2stgnnConfig, TrafficModel};
use d2stgnn_data::{simulate, simulate_city, Batch, CityConfig, SimulatorConfig, StandardScaler};
use d2stgnn_graph::SparseNetwork;
use d2stgnn_tensor::losses::masked_mae_loss;
use d2stgnn_tensor::nn::Module;
use d2stgnn_tensor::optim::{clip_grad_norm, Adam, Optimizer};
use d2stgnn_tensor::{no_grad, pool, Array, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// Input/forecast window length used throughout.
const TH: usize = 12;
/// Forecast horizon.
const TF: usize = 12;
/// Training windows timed per size (batch size 1 each: at city scale one
/// window is already a full-graph forward/backward).
const TRAIN_WINDOWS: usize = 4;
/// Best-of reps for the serve-latency probe.
const SERVE_REPS: usize = 3;

#[derive(Serialize)]
struct ScaleRow {
    nodes: usize,
    edges: usize,
    /// Adjacency sparsity (fraction of zero entries).
    sparsity: f64,
    /// Wall ms for `TRAIN_WINDOWS` training windows.
    epoch_ms: f64,
    /// `epoch_ms / TRAIN_WINDOWS`.
    per_window_ms: f64,
    /// Best-of-`SERVE_REPS` no_grad single-window forward, ms.
    serve_ms: f64,
    /// Scalar parameter count of the model at this size.
    params: usize,
}

#[derive(Serialize)]
struct Equivalence {
    /// Node count of the equivalence network.
    nodes: usize,
    /// `D2_THREADS` values covered.
    thread_set: Vec<usize>,
    /// Transition representations covered.
    paths: Vec<String>,
    /// Child runs executed (threads × paths).
    runs: usize,
    /// All forecasts byte-identical across every cell.
    identical: bool,
}

#[derive(Serialize)]
struct BenchResults {
    rows: Vec<ScaleRow>,
    /// Log-log slope of epoch_ms vs nodes.
    epoch_exponent: f64,
    /// Log-log slope of serve_ms vs nodes.
    serve_exponent: f64,
    equivalence: Equivalence,
}

#[derive(Serialize)]
struct BenchConfig {
    fast: bool,
    sizes: Vec<usize>,
    train_windows: usize,
    serve_reps: usize,
    th: usize,
    tf: usize,
    hidden: usize,
    layers: usize,
    /// Host cores (`available_parallelism`).
    cores: usize,
}

/// Static-graph model config compatible with the sparse path: the dynamic
/// graph and adaptive matrix are O(N²) dense by construction and stay off.
fn model_config(num_nodes: usize, steps_per_day: usize) -> D2stgnnConfig {
    let mut cfg = D2stgnnConfig::small(num_nodes);
    cfg.hidden = 8;
    cfg.emb_dim = 4;
    cfg.layers = 1;
    cfg.heads = 2;
    cfg.th = TH;
    cfg.tf = TF;
    cfg.kt = 2;
    cfg.steps_per_day = steps_per_day;
    cfg.dropout = 0.0;
    cfg.use_dynamic_graph = false;
    cfg.use_adaptive = false;
    cfg
}

/// Assemble one batch of windows starting at `starts`, directly from a
/// `[T, N]` series, through [`Batch::from_windows`] (the layout contract of
/// `WindowedDataset::batch`: normalized inputs, raw targets).
fn make_batch(
    values: &Array,
    scaler: &StandardScaler,
    steps_per_day: usize,
    starts: &[usize],
) -> Batch {
    let n = values.shape()[1];
    let page = |s: usize, len: usize| {
        let rows = values.slice_axis(0, s, s + len);
        rows.reshape(&[len, n, 1]).expect("window page")
    };
    let windows = starts.iter().map(|&s| {
        let steps = s..s + TH;
        let tod = steps.clone().map(|t| t % steps_per_day).collect();
        let dow = steps.map(|t| (t / steps_per_day) % 7).collect();
        (page(s, TH), tod, dow)
    });
    let targets: Vec<Array> = starts.iter().map(|&s| page(s + TH, TF)).collect();
    let y = Array::stack(&targets.iter().collect::<Vec<_>>(), 0).expect("target stack");
    Batch::from_windows(scaler, windows, y).expect("at least one window")
}

/// Measure one network size: epoch time over `TRAIN_WINDOWS` training
/// windows plus single-window serve latency.
fn run_size(nodes: usize) -> ScaleRow {
    let mut sim = CityConfig::with_nodes(nodes);
    sim.num_steps = TH + TF + TRAIN_WINDOWS + 1;
    let data = simulate_city(&sim);
    let scaler = StandardScaler::fit(data.values.data());
    let cfg = model_config(nodes, sim.steps_per_day);
    let mut rng = StdRng::seed_from_u64(17);
    let model = D2stgnn::new_sparse(cfg, &data.network, &mut rng);
    let params = model.num_parameters();
    let mut opt = Adam::new(model.parameters(), 1e-3);

    // Training epoch: TRAIN_WINDOWS single-window batches.
    let start = Instant::now();
    for w in 0..TRAIN_WINDOWS {
        let batch = make_batch(&data.values, &scaler, sim.steps_per_day, &[w]);
        let target = Tensor::constant(batch.y.clone());
        let pred = model.forward(&batch, true, &mut rng);
        let pred_real = pred.scale(scaler.std()).add_scalar(scaler.mean());
        let loss = masked_mae_loss(&pred_real, &target, 0.0);
        loss.backward();
        clip_grad_norm(&model.parameters(), 5.0);
        opt.step();
        opt.zero_grad();
    }
    let epoch_ms = start.elapsed().as_secs_f64() * 1e3;

    // Serve latency: no_grad forward of one window, best of reps.
    let batch = make_batch(&data.values, &scaler, sim.steps_per_day, &[TRAIN_WINDOWS]);
    let mut serve_ms = f64::INFINITY;
    let mut sink = 0.0f64;
    for _ in 0..SERVE_REPS {
        let start = Instant::now();
        let out = no_grad(|| model.forward(&batch, false, &mut rng));
        serve_ms = serve_ms.min(start.elapsed().as_secs_f64() * 1e3);
        sink += f64::from(out.value().data()[0]);
    }
    eprintln!(
        "[graph_scale]   n={nodes}: epoch {epoch_ms:.0} ms, serve {serve_ms:.0} ms (sink {sink:.3})"
    );
    ScaleRow {
        nodes,
        edges: data.network.num_edges(),
        sparsity: f64::from(data.network.adjacency().sparsity()),
        epoch_ms,
        per_window_ms: epoch_ms / TRAIN_WINDOWS as f64,
        serve_ms,
        params,
    }
}

/// Least-squares slope of `ln(y)` against `ln(x)`.
fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Child entry point: build the small equivalence model on the `cell`
/// path (`dense` or `csr`) under this process's inherited `D2_THREADS`,
/// forecast two windows, and write the raw f32 bytes.
fn run_child(cell: &str, out_path: &str) {
    let mut sim = SimulatorConfig::tiny();
    sim.num_nodes = 32;
    sim.knn = 4;
    sim.num_steps = 288;
    let data = simulate(&sim);
    let scaler = StandardScaler::fit(data.values.data());
    let mut cfg = model_config(32, sim.steps_per_day);
    cfg.hidden = 16;
    cfg.emb_dim = 8;
    cfg.layers = 2;
    let mut rng = StdRng::seed_from_u64(5);
    let model = match cell {
        "dense" => {
            // The compare is only dense-vs-CSR while this network stays
            // under the dispatch threshold.
            let ctx = GraphContext::new(&data.network, Some(cfg.ks));
            let Transitions::Static { p_f, .. } = ctx.static_transitions() else {
                unreachable!("a context's static transitions are static");
            };
            assert!(
                p_f.iter().all(|p| matches!(p, MaskedPower::Dense(_))),
                "the dense cell's network crossed the CSR dispatch threshold"
            );
            D2stgnn::new(cfg, &data.network, &mut rng)
        }
        "csr" => D2stgnn::new_sparse(cfg, &SparseNetwork::from_network(&data.network), &mut rng),
        other => panic!("unknown equivalence cell `{other}` (expected dense or csr)"),
    };
    let batch = make_batch(&data.values, &scaler, sim.steps_per_day, &[0, 7]);
    let out = no_grad(|| model.forward(&batch, false, &mut rng));
    let mut bytes = Vec::with_capacity(out.value().data().len() * 4);
    for v in out.value().data() {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(out_path, bytes).expect("child write");
    eprintln!(
        "[graph_scale]   child threads={} path={cell} done",
        pool::threads()
    );
}

/// Spawn this binary back as an equivalence child and return its forecast
/// bytes.
fn spawn_child(threads: usize, cell: &str) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("d2-gs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("child dir");
    let out = dir.join(format!("{cell}-t{threads}.bin"));
    let mut cmd = Command::new(std::env::current_exe().expect("current exe"));
    cmd.arg("--child")
        .arg(cell)
        .arg(&out)
        .env("D2_THREADS", threads.to_string());
    eprintln!("[graph_scale] child {cell}: threads={threads}...");
    let status = cmd.status().expect("spawn child");
    assert!(status.success(), "bench child `{cell}-t{threads}` failed");
    std::fs::read(&out).expect("child output")
}

/// Run the 6-cell dense↔CSR × thread-count matrix and byte-compare all
/// forecasts.
fn run_equivalence() -> Equivalence {
    let thread_set = vec![1usize, 2, 8];
    let paths = vec!["dense".to_string(), "csr".to_string()];
    let mut outputs: Vec<Vec<u8>> = Vec::new();
    for &t in &thread_set {
        for cell in &paths {
            outputs.push(spawn_child(t, cell));
        }
    }
    let identical = !outputs[0].is_empty() && outputs.iter().all(|o| *o == outputs[0]);
    Equivalence {
        nodes: 32,
        thread_set,
        paths,
        runs: outputs.len(),
        identical,
    }
}

fn main() {
    // Pool even small kernels so the pooled spmm path is exercised at every
    // size (must precede the first tensor op; inherits into children).
    if std::env::var_os("D2_PAR_THRESHOLD").is_none() {
        std::env::set_var("D2_PAR_THRESHOLD", "1");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, cell, out_path] = args.as_slice() {
        if flag == "--child" {
            run_child(cell, out_path);
            return;
        }
    }
    let fast = args.iter().any(|a| a == "--fast");

    let sizes: Vec<usize> = if fast {
        vec![200, 400, 800, 1600]
    } else {
        vec![5_000, 10_000, 20_000, 50_000]
    };
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());

    eprintln!("[graph_scale] equivalence matrix (32 nodes, 6 cells)...");
    let equivalence = run_equivalence();
    assert!(
        equivalence.identical,
        "sparse-path forecasts are NOT bit-identical to dense across the thread matrix"
    );

    let mut rows = Vec::new();
    for &n in &sizes {
        eprintln!("[graph_scale] measuring n={n}...");
        rows.push(run_size(n));
    }
    let epoch_points: Vec<(f64, f64)> = rows.iter().map(|r| (r.nodes as f64, r.epoch_ms)).collect();
    let serve_points: Vec<(f64, f64)> = rows.iter().map(|r| (r.nodes as f64, r.serve_ms)).collect();
    let epoch_exponent = log_log_slope(&epoch_points);
    let serve_exponent = log_log_slope(&serve_points);

    println!(
        "{:>8} {:>8} {:>9} {:>11} {:>11} {:>10} {:>9}",
        "nodes", "edges", "sparsity", "epoch_ms", "window_ms", "serve_ms", "params"
    );
    for r in &rows {
        println!(
            "{:>8} {:>8} {:>9.5} {:>11.1} {:>11.1} {:>10.1} {:>9}",
            r.nodes, r.edges, r.sparsity, r.epoch_ms, r.per_window_ms, r.serve_ms, r.params
        );
    }
    println!(
        "scaling exponents: epoch {epoch_exponent:.3}, serve {serve_exponent:.3} \
         (sub-quadratic floor: < 1.5); equivalence: {} runs, identical={}",
        equivalence.runs, equivalence.identical
    );

    let config = BenchConfig {
        fast,
        sizes,
        train_windows: TRAIN_WINDOWS,
        serve_reps: SERVE_REPS,
        th: TH,
        tf: TF,
        hidden: 8,
        layers: 1,
        cores,
    };
    let results = BenchResults {
        rows,
        epoch_exponent,
        serve_exponent,
        equivalence,
    };
    let config_json = serde_json::to_string(&config).expect("config serialize");
    let results_json = serde_json::to_string(&results).expect("results serialize");
    match write_bench_artifact("graph_scale", &config_json, &results_json) {
        Ok(path) => eprintln!("[graph_scale] wrote {}", path.display()),
        Err(e) => eprintln!("[graph_scale] could not write artifact: {e}"),
    }
}
