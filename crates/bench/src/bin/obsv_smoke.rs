//! End-to-end smoke check for the telemetry layer (`crates/obsv`).
//!
//! Trains a tiny D²STGNN for two epochs, serves a handful of requests
//! through the batching engine, then validates what the telemetry layer
//! captured:
//!
//! * every JSONL line parses and carries the v1 schema keys
//!   (`type`/`name`/`id`/`parent`/`ts_us`, plus `dur_us` on spans);
//! * at least two `d2stgnn_core_train_epoch` spans and all three serve
//!   stage spans (`batch`/`forward`/`postprocess`) are present;
//! * the Prometheus dump exposes a `quantile="0.99"` summary line;
//! * the tape profiler counted ops during training.
//!
//! It then runs an HTTP phase: one forecast through the full front-end
//! (httpd → router → serve queue → micro-batch worker) with a known
//! `X-Request-Id`, asserting the single trace id shows up in the httpd
//! request span, the router span, the serve queue-wait event, and the batch
//! span's links; that `/debug/traces` retains the trace with all six stage
//! durations (parse, route, queue_wait, batch_fuse, forward, postprocess);
//! that `/slo` and the exemplar-bearing `/metrics` render validly; and that
//! `/metrics` carries the shard's `d2stgnn_serve_*` series and declares each
//! family once under a valid Prometheus name.
//!
//! Exits non-zero on any failure, so CI can gate on it. Run with:
//! `cargo run -p d2stgnn-bench --features obsv --bin obsv_smoke`

#[cfg(not(feature = "obsv"))]
fn main() {
    eprintln!(
        "obsv_smoke needs the telemetry feature; rerun as: \
         cargo run -p d2stgnn-bench --features obsv --bin obsv_smoke"
    );
    std::process::exit(1);
}

#[cfg(feature = "obsv")]
fn main() {
    smoke::run();
}

#[cfg(feature = "obsv")]
mod smoke {
    use d2stgnn_bench::{train_config, write_bench_artifact};
    use d2stgnn_core::{checkpoint, D2stgnn, D2stgnnConfig, Trainer};
    use d2stgnn_data::{simulate, Profile, SimulatorConfig, Split, WindowedDataset};
    use d2stgnn_httpd::api::{ForecastBody, ForecastReply};
    use d2stgnn_httpd::{HttpServer, HttpdConfig, ShardRouter};
    use d2stgnn_serve::{InferRequest, ModelFactory, ModelRegistry, ServeConfig, Server};
    use d2stgnn_tensor::Tape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use serde::{Number, Value};
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::sync::Arc;
    use std::time::Duration;

    const JSONL_PATH: &str = "target/experiments/obsv_smoke.jsonl";
    const SERVE_REQUESTS: usize = 8;
    /// The known request id the HTTP phase sends as `X-Request-Id`; every
    /// cross-layer assertion keys on it.
    const TRACE_ID: &str = "smoke-trace-1";
    /// All six per-stage durations a traced forecast must attribute.
    const STAGES: [&str; 6] = [
        "parse",
        "route",
        "queue_wait",
        "batch_fuse",
        "forward",
        "postprocess",
    ];

    pub fn run() {
        std::fs::create_dir_all("target/experiments").expect("create experiments dir");
        d2stgnn_obsv::init_jsonl(JSONL_PATH).expect("open jsonl sink");

        let data =
            WindowedDataset::new(simulate(&SimulatorConfig::tiny()), 12, 12, (0.6, 0.2, 0.2));
        let n = data.num_nodes();
        eprintln!("[obsv_smoke] training 2 epochs on tiny simulator ({n} nodes)");

        Tape::start_profiling();
        let mut rng = StdRng::seed_from_u64(0);
        let model = D2stgnn::new(model_config(n), &data.data().network.clone(), &mut rng);
        let mut cfg = train_config(Profile::Fast, true, 0);
        cfg.max_epochs = 2;
        cfg.patience = 2;
        cfg.verbose = false;
        let report = Trainer::new(cfg)
            .train(&model, &data)
            .expect("training failed");
        Tape::stop_profiling();
        let profile = Tape::profile_report();
        assert!(
            !profile.ops.is_empty(),
            "tape profiler saw no ops during training"
        );
        eprintln!("[obsv_smoke] tape profile:\n{}", profile.format_table());

        eprintln!("[obsv_smoke] serving {SERVE_REQUESTS} requests");
        let completed = serve_batch(&data, &model);
        assert_eq!(completed, SERVE_REQUESTS as u64, "all requests complete");

        eprintln!("[obsv_smoke] HTTP phase: one traced forecast through the front-end");
        http_phase(&data, &model);

        d2stgnn_obsv::flush().expect("flush sink");
        d2stgnn_obsv::shutdown();
        assert_eq!(d2stgnn_obsv::dropped_lines(), 0, "sink dropped lines");

        let text = std::fs::read_to_string(JSONL_PATH).expect("read jsonl back");
        let (lines, epoch_spans) = validate_jsonl(&text);
        validate_trace_lines(&text);
        let prom = d2stgnn_obsv::render_prometheus();
        assert!(
            prom.contains("quantile=\"0.99\""),
            "prometheus dump missing p99 quantile"
        );

        let config = format!(
            r#"{{"profile":"fast","epochs":2,"serve_requests":{SERVE_REQUESTS},"nodes":{n}}}"#
        );
        let results = format!(
            r#"{{"jsonl_lines":{lines},"epoch_spans":{epoch_spans},"train_epochs":{},"avg_epoch_seconds":{}}}"#,
            report.epochs.len(),
            report.avg_epoch_seconds
        );
        let artifact =
            write_bench_artifact("obsv_smoke", &config, &results).expect("write artifact");

        println!(
            "[obsv_smoke] OK: {lines} JSONL lines, {epoch_spans} epoch spans, \
             prometheus + p99 present, artifact at {}",
            artifact.display()
        );
    }

    /// Registry holding the trained model under the name `d2stgnn`.
    fn build_registry(data: &WindowedDataset, model: &D2stgnn) -> Arc<ModelRegistry> {
        let ckpt = checkpoint::snapshot(model, "obsv-smoke");
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
                ckpt,
                *data.scaler(),
                [data.th(), data.num_nodes()],
            )
            .expect("register model");
        registry
    }

    /// Spin up the batching server over the trained model, push a few
    /// requests through it, and return the completed count.
    fn serve_batch(data: &WindowedDataset, model: &D2stgnn) -> u64 {
        let server = Server::start(
            build_registry(data, model),
            ServeConfig {
                workers: 1,
                max_batch: 4,
                max_wait: Duration::from_millis(2),
                queue_capacity: SERVE_REQUESTS,
            },
        )
        .expect("start server");

        let starts = data.window_starts(Split::Test).to_vec();
        let handles: Vec<_> = (0..SERVE_REQUESTS)
            .map(|k| {
                let req = request_at(data, starts[k % starts.len()]);
                server.submit(req).expect("queue sized to budget")
            })
            .collect();
        for h in handles {
            h.wait().expect("forecast");
        }
        let completed = server.stats().completed;
        server.shutdown().expect("clean shutdown");
        completed
    }

    /// One traced forecast through the whole front-end, then validation of
    /// the three observability endpoints.
    fn http_phase(data: &WindowedDataset, model: &D2stgnn) {
        // Zero slow-threshold: retain every finished trace so the 200-fast
        // forecast is guaranteed to land in the `/debug/traces` ring.
        d2stgnn_obsv::set_tail_config(256, Duration::ZERO);

        let shard = Arc::new(
            Server::start(
                build_registry(data, model),
                ServeConfig {
                    workers: 1,
                    max_batch: 4,
                    max_wait: Duration::from_millis(2),
                    queue_capacity: 8,
                },
            )
            .expect("start shard"),
        );
        let router = Arc::new(ShardRouter::new());
        router.add_shard(0, shard).expect("add shard");
        let http = HttpServer::bind("127.0.0.1:0", router, HttpdConfig::default())
            .expect("bind front-end");
        let addr = http.local_addr();

        // One forecast with a known X-Request-Id.
        let body = forecast_body_json(data);
        let resp = http_roundtrip(
            addr,
            &format!(
                "POST /v1/forecast HTTP/1.1\r\nHost: smoke\r\nX-Request-Id: {TRACE_ID}\r\n\
                 Connection: close\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n{}",
                body.len(),
                body
            ),
        );
        assert!(
            resp.head.starts_with("HTTP/1.1 200"),
            "forecast failed:\n{}\n{}",
            resp.head,
            resp.body
        );
        assert!(
            resp.head
                .to_ascii_lowercase()
                .contains(&format!("x-request-id: {TRACE_ID}")),
            "request id not echoed:\n{}",
            resp.head
        );
        let reply: ForecastReply = serde_json::from_str(&resp.body).expect("forecast reply");
        assert_eq!(reply.model, "d2stgnn");
        assert!(!reply.fallback, "smoke forecast fell back");

        // /debug/traces: the trace finishes just after the response bytes
        // hit the socket, so poll briefly for it to land in the ring.
        let mut traces_body = String::new();
        for _ in 0..100 {
            let resp = http_get(addr, "/debug/traces");
            assert!(resp.head.starts_with("HTTP/1.1 200"), "{}", resp.head);
            if resp.body.contains(TRACE_ID) {
                traces_body = resp.body;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            !traces_body.is_empty(),
            "trace {TRACE_ID} never appeared in /debug/traces"
        );
        validate_retained_trace(&traces_body);

        // /slo: three windows, and the requests above already counted.
        let resp = http_get(addr, "/slo");
        assert!(resp.head.starts_with("HTTP/1.1 200"), "{}", resp.head);
        let doc: Value = serde_json::from_str(&resp.body).expect("/slo parses");
        let Some(Value::Array(windows)) = obj_get(&doc, "windows") else {
            panic!("/slo has no windows array: {}", resp.body);
        };
        assert_eq!(windows.len(), 3, "expected 5m/1h/6h windows");
        let five_min = &windows[0];
        assert!(
            matches!(obj_get(five_min, "total"), Some(Value::Number(Number::PosInt(n))) if *n > 0),
            "5m window saw no requests: {}",
            resp.body
        );

        // /metrics: slo gauges published, exemplar attached to the request
        // histogram, per-tenant counters rendered.
        let resp = http_get(addr, "/metrics");
        assert!(resp.head.starts_with("HTTP/1.1 200"), "{}", resp.head);
        let prom = &resp.body;
        assert!(
            prom.contains("d2stgnn_slo_availability_burn_rate_5m"),
            "slo gauges missing from /metrics"
        );
        assert!(
            prom.contains("# {trace_id=\""),
            "no exemplar in /metrics exposition"
        );
        assert!(
            prom.contains("d2stgnn_httpd_tenant_requests_total{tenant=\"anonymous\"}"),
            "per-tenant counter missing from /metrics"
        );
        // Serve counters live in the shard and reach /metrics per shard.
        assert!(
            prom.contains("d2stgnn_serve_requests_total{shard=\"0\"} 1\n"),
            "shard 0's serve request counter missing from /metrics:\n{prom}"
        );
        validate_families(prom);

        http.shutdown().expect("front-end shutdown");
    }

    /// Every metric family is declared once, under a name Prometheus
    /// accepts (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    fn validate_families(prom: &str) {
        let mut seen = std::collections::BTreeSet::new();
        for line in prom.lines() {
            let mut words = line.split_whitespace();
            if (words.next(), words.next()) != (Some("#"), Some("TYPE")) {
                continue;
            }
            let name = words.next().unwrap_or_default();
            let valid = name.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            });
            assert!(
                !name.is_empty() && valid,
                "invalid metric name in /metrics: {line}"
            );
            assert!(
                seen.insert(name),
                "family {name} declared twice in /metrics"
            );
        }
    }

    /// The retained `/debug/traces` entry for [`TRACE_ID`] carries all six
    /// stage durations and a batch id.
    fn validate_retained_trace(body: &str) {
        let doc: Value = serde_json::from_str(body).expect("/debug/traces parses");
        let Some(Value::Array(traces)) = obj_get(&doc, "traces") else {
            panic!("/debug/traces has no traces array: {body}");
        };
        let mine = traces
            .iter()
            .find(|t| matches!(obj_get(t, "id"), Some(Value::String(s)) if s == TRACE_ID))
            .expect("retained trace present");
        assert!(
            matches!(
                obj_get(mine, "status"),
                Some(Value::Number(Number::PosInt(200)))
            ),
            "trace status: {mine:?}"
        );
        assert!(
            matches!(obj_get(mine, "batch_id"), Some(Value::Number(Number::PosInt(n))) if *n > 0),
            "trace has no batch id: {mine:?}"
        );
        let Some(Value::Object(stages)) = obj_get(mine, "stages") else {
            panic!("trace has no stages object: {mine:?}");
        };
        for stage in STAGES {
            assert!(
                stages.iter().any(|(k, _)| k == stage),
                "stage `{stage}` missing from retained trace: {mine:?}"
            );
        }
    }

    /// Scan the JSONL stream for the cross-layer trace evidence: the one
    /// trace id must appear in the httpd request span, the router span, the
    /// serve queue-wait event (with its wait attribution), and the batch
    /// span's fused-trace links.
    fn validate_trace_lines(text: &str) {
        let mut seen = [false; 4];
        const WHERE: [&str; 4] = [
            "d2stgnn_httpd_request span",
            "d2stgnn_httpd_route span",
            "d2stgnn_serve_queue_wait event",
            "d2stgnn_serve_batch span links",
        ];
        for line in text.lines() {
            if !line.contains(TRACE_ID) {
                continue;
            }
            let value: Value = serde_json::from_str(line).expect("trace line parses");
            let name = match obj_get(&value, "name") {
                Some(Value::String(s)) => s.clone(),
                other => panic!("trace line without name: {other:?}"),
            };
            let Some(fields) = obj_get(&value, "fields") else {
                continue;
            };
            let field_is_trace =
                |key: &str| matches!(obj_get(fields, key), Some(Value::String(s)) if s == TRACE_ID);
            match name.as_str() {
                "d2stgnn_httpd_request" if field_is_trace("trace_id") => seen[0] = true,
                "d2stgnn_httpd_route" if field_is_trace("trace_id") => seen[1] = true,
                "d2stgnn_serve_queue_wait" if field_is_trace("trace_id") => {
                    assert!(
                        matches!(
                            obj_get(fields, "wait_us"),
                            Some(Value::Number(Number::PosInt(_)))
                        ),
                        "queue-wait event without wait_us: {line}"
                    );
                    seen[2] = true;
                }
                "d2stgnn_serve_batch" => {
                    if let Some(Value::String(ids)) = obj_get(fields, "trace_ids") {
                        if ids.split(',').any(|id| id == TRACE_ID) {
                            seen[3] = true;
                        }
                    }
                }
                _ => {}
            }
        }
        for (ok, place) in seen.iter().zip(WHERE) {
            assert!(ok, "trace id {TRACE_ID} never showed up in the {place}");
        }
        eprintln!("[obsv_smoke] one trace id spans httpd -> router -> serve -> batch");
    }

    /// JSON body for a forecast over the dataset's final input window.
    fn forecast_body_json(data: &WindowedDataset) -> String {
        let raw = data.data();
        let (window, tod, dow) = raw.raw_window(raw.num_steps() - data.th(), data.th());
        serde_json::to_string(&ForecastBody {
            model: "d2stgnn".to_string(),
            window: window
                .data()
                .chunks(raw.num_nodes())
                .map(<[f32]>::to_vec)
                .collect(),
            tod,
            dow,
            deadline_ms: None,
            sensor: Some(1),
            city: None,
        })
        .expect("serialize forecast body")
    }

    struct HttpResp {
        head: String,
        body: String,
    }

    /// Send one raw HTTP/1.1 exchange (`Connection: close`) and read the
    /// full response.
    fn http_roundtrip(addr: SocketAddr, raw: &str) -> HttpResp {
        let mut stream = TcpStream::connect(addr).expect("connect front-end");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set read timeout");
        stream.write_all(raw.as_bytes()).expect("send request");
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).expect("read response");
        let text = String::from_utf8_lossy(&buf).into_owned();
        let (head, body) = text
            .split_once("\r\n\r\n")
            .unwrap_or_else(|| panic!("malformed response: {text}"));
        HttpResp {
            head: head.to_string(),
            body: body.to_string(),
        }
    }

    fn http_get(addr: SocketAddr, path: &str) -> HttpResp {
        http_roundtrip(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n"),
        )
    }

    fn obj_get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
        match value {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// One-layer small model, shared by training and the serve factory so
    /// the checkpoint restores into the exact architecture it came from.
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

    /// Parse the JSONL stream, check the v1 record schema on every line,
    /// and return (total lines, number of training-epoch spans).
    fn validate_jsonl(text: &str) -> (usize, usize) {
        let mut lines = 0usize;
        let mut epoch_spans = 0usize;
        let mut seen_serve = [false; 3];
        const SERVE_SPANS: [&str; 3] = [
            "d2stgnn_serve_batch",
            "d2stgnn_serve_forward",
            "d2stgnn_serve_postprocess",
        ];
        for line in text.lines() {
            lines += 1;
            let value: Value = serde_json::from_str(line)
                .unwrap_or_else(|e| panic!("line {lines} is not valid JSON ({e}): {line}"));
            let Value::Object(fields) = value else {
                panic!("line {lines} is not an object: {line}");
            };
            let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
            let kind = match get("type") {
                Some(Value::String(s)) if s == "span" || s == "event" => s.clone(),
                other => panic!("line {lines}: bad `type` {other:?}"),
            };
            let name = match get("name") {
                Some(Value::String(s)) => s.clone(),
                other => panic!("line {lines}: bad `name` {other:?}"),
            };
            for key in ["id", "parent", "ts_us"] {
                assert!(
                    matches!(get(key), Some(Value::Number(Number::PosInt(_)))),
                    "line {lines}: `{key}` missing or not an unsigned integer"
                );
            }
            if kind == "span" {
                assert!(
                    matches!(get("dur_us"), Some(Value::Number(Number::PosInt(_)))),
                    "line {lines}: span without `dur_us`"
                );
            }
            assert!(
                matches!(get("fields"), Some(Value::Object(_))),
                "line {lines}: `fields` missing or not an object"
            );
            if kind == "span" && name == "d2stgnn_core_train_epoch" {
                epoch_spans += 1;
            }
            if let Some(i) = SERVE_SPANS.iter().position(|s| *s == name) {
                seen_serve[i] = true;
            }
        }
        assert!(
            epoch_spans >= 2,
            "expected >=2 training epoch spans, saw {epoch_spans}"
        );
        for (i, seen) in seen_serve.iter().enumerate() {
            assert!(seen, "serve stage span `{}` never emitted", SERVE_SPANS[i]);
        }
        (lines, epoch_spans)
    }
}
