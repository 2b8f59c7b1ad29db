//! Serve forecasts over HTTP: train a tiny model, register it on two serve
//! shards behind the `httpd` front-end + shard router, and talk to it the
//! way an external client would — plain HTTP/1.1 over a TCP socket.
//!
//! Run with: `cargo run --release --example serve_http`

use d2stgnn::httpd::api::ForecastBody;
use d2stgnn::prelude::*;
use d2stgnn::serve::ModelFactory;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// Send one request over a fresh connection and return (status, body).
fn http(addr: std::net::SocketAddr, request: String) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read"); // Connection: close ⇒ EOF-framed
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    http(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: demo\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: std::net::SocketAddr, path: &str, body: &str, tenant: &str) -> (u16, String) {
    http(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: demo\r\nX-Tenant: {tenant}\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small city and a one-epoch training pass — enough for a live model.
    let mut sim = SimulatorConfig::tiny();
    sim.num_steps = 2 * 288;
    let data = WindowedDataset::new(simulate(&sim), 12, 12, (0.6, 0.2, 0.2));
    let n = data.num_nodes();
    let mut cfg = D2stgnnConfig::small(n);
    cfg.layers = 1;

    let mut rng = StdRng::seed_from_u64(0);
    let model = D2stgnn::new(cfg.clone(), &data.data().network.clone(), &mut rng);
    Trainer::new(TrainConfig {
        max_epochs: 1,
        verbose: false,
        ..TrainConfig::default()
    })
    .train(&model, &data)?;
    let ckpt = checkpoint::snapshot(&model, "metr-sim");

    // Two serve shards, each with the model registered; the router pins the
    // demo city to shard 1 and hashes everything else.
    let network = data.data().network.clone();
    let factory: ModelFactory = Arc::new(move || {
        let mut rng = StdRng::seed_from_u64(0);
        Box::new(D2stgnn::new(cfg.clone(), &network, &mut rng))
    });
    let router = Arc::new(ShardRouter::new());
    for id in 0..2u64 {
        let registry = Arc::new(ModelRegistry::new());
        registry.register(
            "metr-sim",
            Arc::clone(&factory),
            ckpt.clone(),
            *data.scaler(),
            [data.th(), n],
        )?;
        let shard = Arc::new(Server::start(registry, ServeConfig::default()).expect("shard"));
        router.add_shard(id, shard)?;
    }
    router.pin_city("metr-sim", 1)?;

    // The HTTP front-end: per-tenant quotas, bounded everything.
    let server = HttpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&router),
        HttpdConfig {
            quota: Some(QuotaConfig {
                rate_per_sec: 5.0,
                burst: 10.0,
                max_tenants: 100,
            }),
            ..HttpdConfig::default()
        },
    )?;
    let addr = server.local_addr();
    println!("listening on http://{addr}");

    let (status, body) = get(addr, "/healthz");
    println!("GET /healthz      -> {status} {body}");
    let (status, body) = get(addr, "/models");
    println!("GET /models       -> {status} {body}");

    // A forecast for the pinned city: the reply names the shard that served it.
    let raw = data.data();
    let (window, tod, dow) = raw.raw_window(raw.num_steps() - data.th(), data.th());
    let body = serde_json::to_string(&ForecastBody {
        model: "metr-sim".to_string(),
        window: window.data().chunks(n).map(<[f32]>::to_vec).collect(),
        tod,
        dow,
        deadline_ms: Some(2_000),
        sensor: None,
        city: Some("metr-sim".to_string()),
    })?;
    let (status, reply) = post(addr, "/v1/forecast", &body, "demo-tenant");
    let preview: String = reply.chars().take(120).collect();
    println!("POST /v1/forecast -> {status} {preview}…");
    assert_eq!(status, 200);
    assert!(
        reply.contains("\"shard\":1"),
        "pinned city lands on shard 1"
    );

    // Burn through the tenant's burst to see a quota denial.
    let denied = (0..12)
        .map(|_| post(addr, "/v1/forecast", &body, "greedy").0)
        .filter(|&s| s == 429)
        .count();
    println!("12 rapid requests from tenant 'greedy': {denied} denied with 429");

    let (_, metrics) = get(addr, "/metrics");
    let line = metrics
        .lines()
        .find(|l| l.starts_with("d2stgnn_httpd_requests_total"))
        .unwrap_or("d2stgnn_httpd_requests_total <missing>");
    println!("GET /metrics      -> {line}");

    server.shutdown()?;
    for id in 0..2u64 {
        if let Some(shard) = router.remove_shard(id) {
            if let Ok(s) = Arc::try_unwrap(shard) {
                s.shutdown().expect("shard shutdown");
            }
        }
    }
    Ok(())
}
