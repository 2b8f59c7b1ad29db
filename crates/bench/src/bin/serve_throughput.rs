//! Serving throughput: requests/second and tail latency of the
//! `d2stgnn-serve` micro-batching engine as a function of `max_batch`.
//!
//! For each `max_batch` in {1, 4, 16} the bench registers the same tiny
//! checkpoint, floods the server with every test window (cycled up to the
//! request budget), waits for all forecasts, and prints **one JSON line per
//! configuration** with req/s and p50/p95 end-to-end latency. `max_batch=1`
//! is the no-batching baseline; the gap to 4/16 is what request fusion buys.
//!
//! Run with: `cargo run -p d2stgnn-bench --release --bin serve_throughput`
//! (`--requests N` overrides the request budget, default 240).

use d2stgnn_baselines::{ClassicalForecaster, HistoricalAverage};
use d2stgnn_core::{checkpoint, D2stgnn, D2stgnnConfig};
use d2stgnn_data::{simulate, SimulatorConfig, Split, WindowedDataset};
use d2stgnn_serve::{InferRequest, ModelFactory, ModelRegistry, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct ThroughputRow {
    max_batch: usize,
    workers: usize,
    requests: u64,
    completed: u64,
    sheds: u64,
    elapsed_s: f64,
    req_per_s: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    mean_batch_size: f64,
}

fn model_config(n: usize) -> D2stgnnConfig {
    let mut cfg = D2stgnnConfig::small(n);
    cfg.layers = 1;
    cfg
}

fn request_at(data: &WindowedDataset, start: usize) -> InferRequest {
    let (window, tod, dow) = data.data().raw_window(start, data.th());
    InferRequest {
        model: "d2stgnn".to_string(),
        window,
        tod,
        dow,
        deadline: None,
        trace: d2stgnn_serve::TraceHandle::inert(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let budget: usize = args
        .iter()
        .position(|a| a == "--requests")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(240);

    let data = WindowedDataset::new(simulate(&SimulatorConfig::tiny()), 12, 12, (0.6, 0.2, 0.2));
    let n = data.num_nodes();
    eprintln!(
        "[serve_throughput] tiny simulator: {n} nodes, {} test windows, {budget} requests/config",
        data.len(Split::Test)
    );

    // Untrained weights are fine: forward cost does not depend on training.
    let mut rng = StdRng::seed_from_u64(0);
    let model = D2stgnn::new(model_config(n), &data.data().network.clone(), &mut rng);
    let ckpt = checkpoint::snapshot(&model, "d2stgnn-bench");

    // Pre-build the request stream once; clone per configuration.
    let starts = data.window_starts(Split::Test).to_vec();
    let stream: Vec<InferRequest> = (0..budget)
        .map(|k| request_at(&data, starts[k % starts.len()]))
        .collect();

    let mut ha = HistoricalAverage::new();
    ha.fit(&data);

    let mut rows = Vec::new();
    for max_batch in [1usize, 4, 16] {
        let network = data.data().network.clone();
        let factory: ModelFactory = Arc::new(move || {
            let mut rng = StdRng::seed_from_u64(0);
            Box::new(D2stgnn::new(
                model_config(network.num_nodes()),
                &network,
                &mut rng,
            ))
        });
        let registry = Arc::new(ModelRegistry::new());
        registry
            .register(
                "d2stgnn",
                factory,
                ckpt.clone(),
                *data.scaler(),
                [data.th(), n],
            )
            .expect("register");
        let config = ServeConfig {
            workers: 2,
            max_batch,
            max_wait: Duration::from_millis(2),
            queue_capacity: budget,
        };
        let workers = config.workers;
        let server = Server::start(registry, config).expect("start server");
        server.set_fallback(ha.clone());

        let t0 = Instant::now();
        let handles: Vec<_> = stream
            .iter()
            .map(|r| server.submit(r.clone()).expect("queue sized to budget"))
            .collect();
        for h in handles {
            h.wait().expect("forecast");
        }
        let elapsed = t0.elapsed();
        let stats = server.stats();
        server.shutdown().expect("clean shutdown");

        let row = ThroughputRow {
            max_batch,
            workers,
            requests: stats.requests,
            completed: stats.completed,
            sheds: stats.sheds,
            elapsed_s: elapsed.as_secs_f64(),
            req_per_s: stats.requests as f64 / elapsed.as_secs_f64(),
            p50_ms: stats.p50_latency.as_secs_f64() * 1e3,
            p95_ms: stats.p95_latency.as_secs_f64() * 1e3,
            p99_ms: stats.p99_latency.as_secs_f64() * 1e3,
            mean_batch_size: stats.mean_batch_size,
        };
        println!("{}", serde_json::to_string(&row).expect("row serialize"));
        rows.push(row);
    }

    let config = format!(r#"{{"requests":{budget},"batch_sizes":[1,4,16],"workers":2}}"#);
    let results = serde_json::to_string(&rows).expect("rows serialize");
    let path = d2stgnn_bench::write_bench_artifact("serve_throughput", &config, &results)
        .expect("write artifact");
    eprintln!("[serve_throughput] artifact: {}", path.display());
}
