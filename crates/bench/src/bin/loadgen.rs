//! HTTP scale-out load generator for the `httpd` front-end + shard router.
//!
//! Three phases, all driven by closed-loop per-city clients over keep-alive
//! connections:
//!
//! 1. `saturate_1shard`  — enough cities to keep one shard's serve workers
//!    pinned in their micro-batch windows.
//! 2. `saturate_2shard`  — same offered load over two shards; aggregate
//!    req/s should scale close to 2x because each distinct-model request
//!    holds a worker for the `max_wait` batch-collection window, making
//!    shard throughput latency-bound (workers / max_wait) rather than
//!    CPU-bound.
//! 3. `overload_4x`      — 4x the city count against the same two shards;
//!    admission control sheds the excess with fast 503s so the p99 of
//!    served requests stays bounded by the queue depth, not the backlog.
//!
//! Writes `target/experiments/BENCH_serve_scaleout.json`. Pass `--fast` for
//! the CI smoke configuration (shorter phases, smaller overload fleet).

use d2stgnn_core::{checkpoint, D2stgnn, D2stgnnConfig, TrafficModel};
use d2stgnn_data::{simulate, SimulatorConfig, WindowedDataset};
use d2stgnn_httpd::api::ForecastBody;
use d2stgnn_httpd::{HttpServer, HttpdConfig, ShardRouter};
use d2stgnn_serve::{ModelFactory, ModelRegistry, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Serve-side shape shared by every phase: two workers per shard, a short
/// micro-batch window, and a tight bounded queue so overload sheds fast.
const SERVE_WORKERS: usize = 2;
const MAX_BATCH: usize = 4;
const MAX_WAIT_MS: u64 = 25;
const QUEUE_CAPACITY: usize = 4;

#[derive(Clone, Copy, Serialize)]
struct LoadgenConfig {
    fast: bool,
    cities: usize,
    overload_cities: usize,
    serve_workers: usize,
    max_batch: usize,
    max_wait_ms: u64,
    queue_capacity: usize,
    phase_secs: f64,
}

#[derive(Clone, Serialize)]
struct PhaseRow {
    phase: String,
    shards: usize,
    clients: usize,
    elapsed_s: f64,
    completed: u64,
    shed_503: u64,
    other_errors: u64,
    req_per_s: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

#[derive(Clone, Serialize)]
struct Summary {
    scaleout_ratio: f64,
    overload_p99_ms: f64,
    overload_shed_503: u64,
}

#[derive(Clone, Serialize)]
struct Results {
    phases: Vec<PhaseRow>,
    summary: Summary,
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let config = LoadgenConfig {
        fast,
        cities: 6,
        overload_cities: if fast { 12 } else { 24 },
        serve_workers: SERVE_WORKERS,
        max_batch: MAX_BATCH,
        max_wait_ms: MAX_WAIT_MS,
        queue_capacity: QUEUE_CAPACITY,
        phase_secs: if fast { 1.2 } else { 6.0 },
    };
    eprintln!(
        "[loadgen] mode={} cities={} overload={} phase={}s",
        if fast { "fast" } else { "full" },
        config.cities,
        config.overload_cities,
        config.phase_secs
    );

    let data = dataset();
    let one = run_phase("saturate_1shard", 1, config.cities, &config, &data);
    let two = run_phase("saturate_2shard", 2, config.cities, &config, &data);
    let over = run_phase("overload_4x", 2, config.overload_cities, &config, &data);

    let ratio = two.req_per_s / one.req_per_s.max(1e-9);
    let summary = Summary {
        scaleout_ratio: ratio,
        overload_p99_ms: over.p99_ms,
        overload_shed_503: over.shed_503,
    };
    eprintln!(
        "[loadgen] scaleout 1->2 shards: {:.2}x ({:.1} -> {:.1} req/s); \
         overload p99 {:.1} ms with {} shed",
        ratio, one.req_per_s, two.req_per_s, summary.overload_p99_ms, summary.overload_shed_503
    );

    let results = Results {
        phases: vec![one, two, over],
        summary,
    };
    let config_json = serde_json::to_string(&config).expect("config serialize");
    let results_json = serde_json::to_string(&results).expect("results serialize");
    let path = d2stgnn_bench::write_bench_artifact("serve_scaleout", &config_json, &results_json)
        .expect("write artifact");
    println!("{results_json}");
    eprintln!("[loadgen] artifact: {}", path.display());
}

/// Boot `shards` shards behind one HTTP front-end, pin `cities` round-robin
/// across them, and drive one closed-loop client per city for the phase
/// duration.
fn run_phase(
    name: &str,
    shards: usize,
    cities: usize,
    config: &LoadgenConfig,
    data: &WindowedDataset,
) -> PhaseRow {
    let city_names: Vec<String> = (0..cities).map(|i| format!("city-{i}")).collect();
    let serve_config = ServeConfig {
        workers: config.serve_workers,
        max_batch: config.max_batch,
        max_wait: Duration::from_millis(config.max_wait_ms),
        queue_capacity: config.queue_capacity,
    };

    let router = Arc::new(ShardRouter::new());
    let mut shard_handles = Vec::new();
    for id in 0..shards as u64 {
        let registry = Arc::new(ModelRegistry::new());
        for (i, city) in city_names.iter().enumerate() {
            register(&registry, data, city, 7 + i as u64);
        }
        let server = Arc::new(Server::start(registry, serve_config.clone()).expect("start shard"));
        router
            .add_shard(id, Arc::clone(&server))
            .expect("add shard");
        shard_handles.push(server);
    }
    for (i, city) in city_names.iter().enumerate() {
        router
            .pin_city(city, (i % shards) as u64)
            .expect("pin city");
    }

    let httpd_config = HttpdConfig {
        workers: cities + 8,
        max_pending_connections: cities + 8,
        keep_alive_requests: 1_000_000,
        ..HttpdConfig::default()
    };
    let front =
        HttpServer::bind("127.0.0.1:0", Arc::clone(&router), httpd_config).expect("bind front-end");
    let addr = front.local_addr();

    let deadline = Instant::now() + Duration::from_secs_f64(config.phase_secs);
    let t0 = Instant::now();
    let clients: Vec<_> = city_names
        .iter()
        .map(|city| {
            let body = forecast_json(data, city);
            let city = city.clone();
            std::thread::spawn(move || drive_city(addr, &city, &body, deadline))
        })
        .collect();
    let mut latencies_ms: Vec<f64> = Vec::new();
    let (mut completed, mut shed, mut other) = (0u64, 0u64, 0u64);
    for handle in clients {
        let outcome = handle.join().expect("client thread");
        completed += outcome.latencies_ms.len() as u64;
        shed += outcome.shed_503;
        other += outcome.other_errors;
        latencies_ms.extend(outcome.latencies_ms);
    }
    let elapsed = t0.elapsed().as_secs_f64();

    front.shutdown().expect("front-end shutdown");
    for id in 0..shards as u64 {
        router.remove_shard(id);
    }
    drop(router);
    for server in shard_handles {
        match Arc::try_unwrap(server) {
            Ok(s) => s.shutdown().expect("shard shutdown"),
            Err(_) => panic!("dangling shard handle"),
        }
    }

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let row = PhaseRow {
        phase: name.to_string(),
        shards,
        clients: cities,
        elapsed_s: elapsed,
        completed,
        shed_503: shed,
        other_errors: other,
        req_per_s: completed as f64 / elapsed,
        p50_ms: percentile(&latencies_ms, 50.0),
        p95_ms: percentile(&latencies_ms, 95.0),
        p99_ms: percentile(&latencies_ms, 99.0),
    };
    println!("{}", serde_json::to_string(&row).expect("row serialize"));
    row
}

struct ClientOutcome {
    latencies_ms: Vec<f64>,
    shed_503: u64,
    other_errors: u64,
}

/// One closed-loop client: POST a forecast for its city, wait for the
/// response, repeat until the deadline. Shed responses back off briefly so
/// retries don't monopolise the single-CPU box.
fn drive_city(addr: SocketAddr, city: &str, body: &str, deadline: Instant) -> ClientOutcome {
    let request = format!(
        "POST /v1/forecast HTTP/1.1\r\nHost: loadgen\r\nX-Tenant: {city}\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut outcome = ClientOutcome {
        latencies_ms: Vec::new(),
        shed_503: 0,
        other_errors: 0,
    };
    let mut conn = HttpConn::connect(addr);
    while Instant::now() < deadline {
        let t0 = Instant::now();
        conn.stream.write_all(request.as_bytes()).expect("send");
        let status = match conn.read_status() {
            Some(s) => s,
            None => {
                // Server closed the keep-alive connection; reconnect.
                conn = HttpConn::connect(addr);
                continue;
            }
        };
        match status {
            200 => outcome.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3),
            503 => {
                outcome.shed_503 += 1;
                std::thread::sleep(Duration::from_millis(10));
            }
            _ => outcome.other_errors += 1,
        }
    }
    outcome
}

/// A minimal blocking HTTP/1.1 client: one connection, status-line +
/// Content-Length framing, body discarded.
struct HttpConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpConn {
    fn connect(addr: SocketAddr) -> HttpConn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream.set_nodelay(true).expect("nodelay");
        HttpConn {
            stream,
            buf: Vec::new(),
        }
    }

    /// Read one full response, returning its status; `None` on clean EOF.
    fn read_status(&mut self) -> Option<u16> {
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = find_subslice(&self.buf, b"\r\n\r\n") {
                break pos;
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    assert!(self.buf.is_empty(), "connection closed mid-response");
                    return None;
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("read response: {e}"),
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .expect("numeric status");
        let content_length: usize = head
            .split("\r\n")
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
            .map(|(_, v)| v.trim().parse().expect("content-length"))
            .unwrap_or(0);
        let total = head_end + 4 + content_length;
        while self.buf.len() < total {
            match self.stream.read(&mut chunk) {
                Ok(0) => panic!("connection closed mid-body"),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) => panic!("read body: {e}"),
            }
        }
        self.buf.drain(..total);
        Some(status)
    }
}

fn find_subslice(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ms.len() - 1) as f64).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// A tiny simulated dataset: 6 sensors, 2 days, 12-step windows.
fn dataset() -> WindowedDataset {
    let mut cfg = SimulatorConfig::tiny();
    cfg.num_nodes = 6;
    cfg.num_steps = 2 * 288;
    cfg.knn = 2;
    WindowedDataset::new(simulate(&cfg), 12, 12, (0.6, 0.2, 0.2))
}

/// Register a fresh model under `name` — one model per city so requests for
/// different cities never fuse into the same micro-batch.
fn register(registry: &ModelRegistry, data: &WindowedDataset, name: &str, seed: u64) {
    let mut cfg = D2stgnnConfig::small(data.num_nodes());
    cfg.layers = 1;
    let network = data.data().network.clone();
    let factory: ModelFactory = Arc::new(move || {
        let mut rng = StdRng::seed_from_u64(seed);
        Box::new(D2stgnn::new(cfg.clone(), &network, &mut rng)) as Box<dyn TrafficModel>
    });
    let model = factory();
    let ckpt = checkpoint::snapshot(model.as_ref() as &dyn d2stgnn_tensor::nn::Module, name);
    registry
        .register(
            name,
            factory,
            ckpt,
            *data.scaler(),
            [data.th(), data.num_nodes()],
        )
        .expect("register model");
}

/// JSON body for a valid forecast against `city`'s model, routed by city.
fn forecast_json(data: &WindowedDataset, city: &str) -> String {
    let raw = data.data();
    let (window, tod, dow) = raw.raw_window(raw.num_steps() - data.th(), data.th());
    serde_json::to_string(&ForecastBody {
        model: city.to_string(),
        window: window
            .data()
            .chunks(raw.num_nodes())
            .map(<[f32]>::to_vec)
            .collect(),
        tod,
        dow,
        deadline_ms: None,
        sensor: None,
        city: Some(city.to_string()),
    })
    .expect("serialize forecast body")
}
