//! Tracing overhead: serve throughput with the `obsv` layer live vs inert.
//!
//! The same binary is compiled twice and run twice:
//!
//! 1. **Baseline** — without the `obsv` feature. Every request still carries
//!    a `TraceHandle::start(..)` built from a minted request id, but with
//!    telemetry compiled out the handle is inert and every span/event macro
//!    folds to a no-op. The run writes its best req/s to
//!    `target/experiments/tracing_overhead_baseline.json`.
//! 2. **Traced** — with `--features obsv`. Identical code, but now the
//!    request-id mint, span tree (queue_wait / batch_fuse / forward /
//!    postprocess), batch links, exemplars, and JSONL sink are all live. The
//!    run reads the baseline, computes the relative slowdown, and writes
//!    `BENCH_tracing_overhead.json` via the shared artifact writer.
//!
//! Both phases measure the identical workload as `serve_throughput`'s
//! `max_batch=4` row: flood the micro-batching server with the full request
//! stream, wait for every forecast, repeat for several trials, keep the best
//! req/s (best-of-N damps scheduler noise far better than the mean). The
//! acceptance bar is `overhead_pct < 3`.
//!
//! Run with:
//!   cargo run -p d2stgnn-bench --release --bin tracing_overhead
//!   cargo run -p d2stgnn-bench --release --features obsv --bin tracing_overhead
//! (`--requests N` overrides the request budget, default 240; `--fast`
//! shrinks the budget and trial count for CI smoke.)

use d2stgnn_baselines::{ClassicalForecaster, HistoricalAverage};
use d2stgnn_core::{checkpoint, D2stgnn, D2stgnnConfig};
use d2stgnn_data::{simulate, SimulatorConfig, Split, WindowedDataset};
use d2stgnn_serve::{InferRequest, ModelFactory, ModelRegistry, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BASELINE_PATH: &str = "target/experiments/tracing_overhead_baseline.json";
const SINK_PATH: &str = "target/experiments/tracing_overhead_events.jsonl";

#[derive(Serialize)]
struct TrialRow {
    trial: usize,
    requests: u64,
    completed: u64,
    elapsed_s: f64,
    req_per_s: f64,
}

/// The baseline phase's hand-off to the traced phase. Round-trips through
/// the vendored serde derive, so the traced build can read it back typed.
#[derive(Serialize, Deserialize)]
struct Baseline {
    requests: usize,
    trials: usize,
    best_req_per_s: f64,
}

#[derive(Serialize)]
struct OverheadReport {
    obsv_enabled: bool,
    requests: usize,
    trials: usize,
    baseline_req_per_s: f64,
    traced_req_per_s: f64,
    overhead_pct: f64,
    trial_rows: Vec<TrialRow>,
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

fn build_registry(data: &WindowedDataset, ckpt: &checkpoint::Checkpoint) -> Arc<ModelRegistry> {
    let n = data.num_nodes();
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
    registry
}

/// One timed trial: start a fresh server, flood it with the whole stream
/// (each request re-armed with a live trace handle), wait for everything.
fn run_trial(
    trial: usize,
    data: &WindowedDataset,
    ckpt: &checkpoint::Checkpoint,
    stream: &[InferRequest],
    fallback: &HistoricalAverage,
) -> TrialRow {
    let registry = build_registry(data, ckpt);
    let config = ServeConfig {
        workers: 2,
        max_batch: 4,
        max_wait: Duration::from_millis(2),
        queue_capacity: stream.len(),
    };
    let server = Server::start(registry, config).expect("start server");
    server.set_fallback(fallback.clone());

    let t0 = Instant::now();
    let handles: Vec<_> = stream
        .iter()
        .map(|r| {
            // Re-arm the trace per submission, exactly as httpd does at the
            // door: mint an id, start a handle, hand it to the envelope.
            // With the feature off both calls are inert; with it on this is
            // the full per-request tracing cost under measurement.
            let mut req = r.clone();
            let rid = d2stgnn_obsv::make_request_id(None);
            req.trace = d2stgnn_serve::TraceHandle::start(&rid);
            server.submit(req).expect("queue sized to budget")
        })
        .collect();
    for h in handles {
        h.wait().expect("forecast");
    }
    let elapsed = t0.elapsed();
    let stats = server.stats();
    server.shutdown().expect("clean shutdown");

    let row = TrialRow {
        trial,
        requests: stats.requests,
        completed: stats.completed,
        elapsed_s: elapsed.as_secs_f64(),
        req_per_s: stats.requests as f64 / elapsed.as_secs_f64(),
    };
    println!("{}", serde_json::to_string(&row).expect("row serialize"));
    row
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let fast = args.iter().any(|a| a == "--fast");
    let budget: usize = args
        .iter()
        .position(|a| a == "--requests")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if fast { 96 } else { 240 });
    let trials: usize = if fast { 2 } else { 4 };
    let traced = d2stgnn_obsv::enabled();

    eprintln!(
        "[tracing_overhead] obsv {}: {budget} requests x {trials} trials",
        if traced { "LIVE" } else { "inert (baseline)" }
    );

    std::fs::create_dir_all("target/experiments").expect("create target/experiments");
    if traced {
        // Give spans/events a real sink so the traced phase pays the full
        // serialization + buffered-write cost, not just the in-memory part.
        d2stgnn_obsv::init_jsonl(SINK_PATH).expect("init jsonl sink");
    }

    let data = WindowedDataset::new(simulate(&SimulatorConfig::tiny()), 12, 12, (0.6, 0.2, 0.2));
    let n = data.num_nodes();
    let mut rng = StdRng::seed_from_u64(0);
    let model = D2stgnn::new(model_config(n), &data.data().network.clone(), &mut rng);
    let ckpt = checkpoint::snapshot(&model, "d2stgnn-bench");

    let starts = data.window_starts(Split::Test).to_vec();
    let stream: Vec<InferRequest> = (0..budget)
        .map(|k| request_at(&data, starts[k % starts.len()]))
        .collect();
    let mut ha = HistoricalAverage::new();
    ha.fit(&data);

    // Warm-up trial: fault in code paths and the allocator before timing.
    let _ = run_trial(0, &data, &ckpt, &stream, &ha);

    let rows: Vec<TrialRow> = (1..=trials)
        .map(|t| run_trial(t, &data, &ckpt, &stream, &ha))
        .collect();
    let best = rows.iter().map(|r| r.req_per_s).fold(0.0, f64::max);

    if !traced {
        let baseline = Baseline {
            requests: budget,
            trials,
            best_req_per_s: best,
        };
        let json = serde_json::to_string_pretty(&baseline).expect("baseline serialize");
        std::fs::write(BASELINE_PATH, json).expect("write baseline");
        eprintln!("[tracing_overhead] baseline {best:.1} req/s -> {BASELINE_PATH}");
        eprintln!("[tracing_overhead] now re-run with `--features obsv` to measure overhead");
        return;
    }

    let text = std::fs::read_to_string(BASELINE_PATH).unwrap_or_else(|e| {
        panic!("missing {BASELINE_PATH} ({e}); run the no-feature phase first")
    });
    let baseline: Baseline = serde_json::from_str(&text).expect("baseline parses");
    assert_eq!(
        baseline.requests, budget,
        "baseline measured a different request budget; re-run both phases"
    );
    let overhead_pct = (baseline.best_req_per_s - best) / baseline.best_req_per_s * 100.0;

    let report = OverheadReport {
        obsv_enabled: true,
        requests: budget,
        trials,
        baseline_req_per_s: baseline.best_req_per_s,
        traced_req_per_s: best,
        overhead_pct,
        trial_rows: rows,
    };
    eprintln!(
        "[tracing_overhead] baseline {:.1} req/s, traced {best:.1} req/s, overhead {overhead_pct:+.2}%",
        baseline.best_req_per_s
    );

    let config = format!(
        r#"{{"requests":{budget},"trials":{trials},"workers":2,"max_batch":4,"policy":"best-of-n"}}"#
    );
    let results = serde_json::to_string(&report).expect("report serialize");
    let path = d2stgnn_bench::write_bench_artifact("tracing_overhead", &config, &results)
        .expect("write artifact");
    d2stgnn_obsv::flush().expect("flush sink");
    d2stgnn_obsv::shutdown();
    eprintln!("[tracing_overhead] artifact: {}", path.display());
}
