//! One `/metrics` contract for both feature builds. After a fixed exchange
//! on a fresh server, the `d2stgnn_httpd_*` and `d2stgnn_serve_*` counter
//! lines are exact, the gauges and the tensor pool's series are read from
//! their owners, and every metric family is declared once under a valid
//! Prometheus name. CI runs this file with and without `--features obsv`;
//! the obsv build appends the process-wide registry, which must not repeat
//! a family the server writes.

mod common;

use common::{dataset, forecast_json, shard, Client};
use d2stgnn_httpd::{HttpServer, HttpdConfig, ShardRouter};
use d2stgnn_serve::ServeConfig;
use d2stgnn_tensor::pool;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Prometheus metric names: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

#[test]
fn metrics_counters_are_exact_and_each_family_is_declared_once() {
    let data = dataset();
    let router = Arc::new(ShardRouter::new());
    router
        .add_shard(0, shard(&data, &["m"], ServeConfig::default()))
        .expect("add shard");
    let config = HttpdConfig {
        read_timeout: Duration::from_secs(30),
        ..HttpdConfig::default()
    };
    let server = HttpServer::bind("127.0.0.1:0", router, config).expect("bind");

    // One keep-alive connection: three forecasts, a 400, a 404, the scrape.
    let mut client = Client::connect(server.local_addr());
    let body = forecast_json(&data, "m", Some(1));
    for _ in 0..3 {
        client.post_json("/v1/forecast", &body, &[]);
        assert_eq!(client.read_response().expect("forecast").status, 200);
    }
    client.post_json("/v1/forecast", "not json", &[]);
    assert_eq!(client.read_response().expect("bad body").status, 400);
    client.get("/no/such/route");
    assert_eq!(client.read_response().expect("unknown route").status, 404);
    let pool_before = pool::stats();
    client.get("/metrics");
    let scrape = client.read_response().expect("scrape");
    assert_eq!(scrape.status, 200);
    let text = scrape.body_text();

    let mut kinds = BTreeMap::new();
    for line in text.lines() {
        let mut words = line.split_whitespace();
        if (words.next(), words.next()) != (Some("#"), Some("TYPE")) {
            continue;
        }
        let (name, kind) = (words.next().unwrap_or(""), words.next().unwrap_or(""));
        assert!(valid_name(name), "invalid metric name: {line}");
        assert!(
            kinds.insert(name, kind).is_none(),
            "family {name} declared twice:\n{text}"
        );
    }

    let counters: Vec<&str> = text
        .lines()
        .filter(|line| {
            let name = line.split(['{', ' ']).next().unwrap_or("");
            (name.starts_with("d2stgnn_httpd_") || name.starts_with("d2stgnn_serve_"))
                && kinds.get(name) == Some(&"counter")
        })
        .collect();
    // The scrape counts itself as a request, but its 2xx is counted after
    // the body is written. Sequential forecasts run one batch each.
    assert_eq!(
        counters,
        [
            "d2stgnn_httpd_connections_accepted_total 1",
            "d2stgnn_httpd_connections_dropped_total 0",
            "d2stgnn_httpd_requests_total 6",
            "d2stgnn_httpd_responses_2xx_total 3",
            "d2stgnn_httpd_responses_4xx_total 2",
            "d2stgnn_httpd_responses_5xx_total 0",
            "d2stgnn_httpd_quota_denied_total 0",
            "d2stgnn_httpd_shed_total 0",
            "d2stgnn_httpd_parse_errors_total 0",
            "d2stgnn_httpd_read_timeouts_total 0",
            "d2stgnn_serve_requests_total{shard=\"0\"} 3",
            "d2stgnn_serve_completed_total{shard=\"0\"} 3",
            "d2stgnn_serve_sheds_total{shard=\"0\"} 0",
            "d2stgnn_serve_fallback_total{shard=\"0\"} 0",
            "d2stgnn_serve_deadline_misses_total{shard=\"0\"} 0",
            "d2stgnn_serve_forward_failures_total{shard=\"0\"} 0",
            "d2stgnn_serve_batches_total{shard=\"0\"} 3",
            "d2stgnn_httpd_tenant_requests_total{tenant=\"anonymous\"} 4",
            "d2stgnn_httpd_tenant_shed_total{tenant=\"anonymous\"} 0",
        ],
        "full scrape:\n{text}"
    );
    for (name, kind) in [
        ("d2stgnn_serve_queue_depth", "gauge"),
        ("d2stgnn_serve_in_flight", "gauge"),
        ("d2stgnn_httpd_pending_connections", "gauge"),
        ("d2stgnn_httpd_shards", "gauge"),
        ("d2stgnn_tensor_pool_threads", "gauge"),
        ("d2stgnn_tensor_pool_tasks_total", "counter"),
        ("d2stgnn_tensor_pool_chunks_total", "counter"),
        ("d2stgnn_tensor_bufpool_hits_total", "counter"),
        ("d2stgnn_tensor_bufpool_misses_total", "counter"),
        ("d2stgnn_tensor_bufpool_recycled_total", "counter"),
    ] {
        assert_eq!(kinds.get(name), Some(&kind), "{name} in:\n{text}");
    }
    assert!(text.contains("\nd2stgnn_serve_queue_depth{shard=\"0\"} 0\n"));
    // Every forward finished before its reply was written.
    assert!(text.contains("\nd2stgnn_serve_in_flight{shard=\"0\"} 0\n"));
    assert!(text.contains("\nd2stgnn_httpd_shards 1\n"));
    // The scrape's own connection left the queue before it was answered.
    assert!(text.contains("\nd2stgnn_httpd_pending_connections 0\n"));
    // The pool's series are read from `pool::stats()` as the scrape is
    // written; its counters only grow.
    let sample = |name: &str| -> f64 {
        let line = text
            .lines()
            .find(|line| line.split(' ').next() == Some(name))
            .unwrap_or_else(|| panic!("no {name} sample in:\n{text}"));
        line.rsplit(' ')
            .next()
            .unwrap_or("")
            .parse()
            .expect("sample value")
    };
    assert_eq!(
        sample("d2stgnn_tensor_pool_threads"),
        pool_before.threads as f64
    );
    assert!(sample("d2stgnn_tensor_pool_tasks_total") >= pool_before.pooled_tasks as f64);
    assert!(sample("d2stgnn_tensor_bufpool_hits_total") >= pool_before.bufpool_hits as f64);
    drop(client);
    server.shutdown().expect("shutdown");
}
