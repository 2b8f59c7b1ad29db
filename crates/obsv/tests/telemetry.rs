//! End-to-end telemetry tests (feature `enabled`): spans written through the
//! JSONL sink round-trip as schema-valid JSON, macros feed the global
//! registry, and the Prometheus rendering exposes what was recorded.
//!
//! The sink and registry are process-global, so every test serializes on
//! [`test_lock`] and starts from a cleared registry + fresh in-memory sink.

#![cfg(feature = "enabled")]

use serde_json::Value;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// In-memory `Write` target whose contents the test can read back.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn new() -> Self {
        SharedBuf(Arc::new(Mutex::new(Vec::new())))
    }

    fn contents(&self) -> String {
        let bytes = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        String::from_utf8(bytes.clone()).expect("sink wrote valid utf-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Fresh sink + empty registry; returns the buffer to read back.
fn fresh_telemetry() -> SharedBuf {
    d2stgnn_obsv::shutdown();
    d2stgnn_obsv::registry().clear();
    let buf = SharedBuf::new();
    d2stgnn_obsv::set_writer(Box::new(buf.clone()));
    buf
}

fn obj_get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_u64(value: &Value) -> u64 {
    match value {
        Value::Number(serde::Number::PosInt(n)) => *n,
        _ => panic!("expected non-negative integer, got {value:?}"),
    }
}

fn as_str(value: &Value) -> &str {
    match value {
        Value::String(s) => s.as_str(),
        _ => panic!("expected string, got {value:?}"),
    }
}

/// Every JSONL line must carry type/name/id/parent/ts_us/fields; spans
/// additionally carry dur_us.
fn validate_line_schema(line: &str) -> Value {
    let value: Value = serde_json::from_str(line)
        .unwrap_or_else(|e| panic!("line is not valid JSON ({e:?}): {line}"));
    let kind = as_str(obj_get(&value, "type").expect("type"));
    assert!(kind == "span" || kind == "event", "bad type in {line}");
    for key in ["name", "id", "parent", "ts_us", "fields"] {
        assert!(obj_get(&value, key).is_some(), "missing {key} in {line}");
    }
    if kind == "span" {
        assert!(obj_get(&value, "dur_us").is_some(), "span missing dur_us");
    } else {
        assert!(obj_get(&value, "dur_us").is_none(), "event has dur_us");
    }
    value
}

#[test]
fn span_tree_round_trips_through_jsonl() {
    let _guard = test_lock();
    let buf = fresh_telemetry();

    {
        let mut outer = d2stgnn_obsv::span!("d2stgnn_test_outer", epoch = 3u64, lr = 0.005f64);
        {
            let _inner = d2stgnn_obsv::span!("d2stgnn_test_inner", label = "a\"b");
            d2stgnn_obsv::event!("d2stgnn_test_tick", step = 1u64);
        }
        d2stgnn_obsv::record!(outer, loss = 1.25f64);
    }
    d2stgnn_obsv::flush().expect("flush in-memory sink");

    let text = buf.contents();
    let lines: Vec<Value> = text.lines().map(validate_line_schema).collect();
    assert_eq!(
        lines.len(),
        4,
        "tick event + inner span + outer span + flush summary"
    );

    // Close order: event first (events emit immediately), then inner, outer;
    // flush() appends its own summary event last.
    let event = &lines[0];
    let inner = &lines[1];
    let outer = &lines[2];
    let summary = &lines[3];
    assert_eq!(
        as_str(obj_get(summary, "name").unwrap()),
        "d2stgnn_obsv_sink_flush"
    );
    let summary_fields = obj_get(summary, "fields").unwrap();
    assert_eq!(as_u64(obj_get(summary_fields, "lines").unwrap()), 3);
    assert!(obj_get(summary_fields, "dropped_total").is_some());
    assert_eq!(as_str(obj_get(event, "name").unwrap()), "d2stgnn_test_tick");
    assert_eq!(
        as_str(obj_get(inner, "name").unwrap()),
        "d2stgnn_test_inner"
    );
    assert_eq!(
        as_str(obj_get(outer, "name").unwrap()),
        "d2stgnn_test_outer"
    );

    // Parent chain: event -> inner -> outer -> root (0).
    let outer_id = as_u64(obj_get(outer, "id").unwrap());
    let inner_id = as_u64(obj_get(inner, "id").unwrap());
    assert_eq!(as_u64(obj_get(event, "parent").unwrap()), inner_id);
    assert_eq!(as_u64(obj_get(inner, "parent").unwrap()), outer_id);
    assert_eq!(as_u64(obj_get(outer, "parent").unwrap()), 0);

    // Fields survive, including the one attached via record!() and the
    // JSON-escaped string.
    let outer_fields = obj_get(outer, "fields").unwrap();
    assert_eq!(as_u64(obj_get(outer_fields, "epoch").unwrap()), 3);
    assert!(obj_get(outer_fields, "loss").is_some());
    let inner_fields = obj_get(inner, "fields").unwrap();
    assert_eq!(as_str(obj_get(inner_fields, "label").unwrap()), "a\"b");

    // Closing a span feeds its auto-histogram.
    let snap = d2stgnn_obsv::registry().snapshot();
    assert!(snap
        .histograms
        .iter()
        .any(|(name, h)| name == "d2stgnn_test_outer_seconds" && h.count == 1));
}

#[test]
fn macros_feed_registry_and_prometheus_rendering() {
    let _guard = test_lock();
    let _buf = fresh_telemetry();

    d2stgnn_obsv::counter_add!("d2stgnn_test_requests_total", 3);
    d2stgnn_obsv::counter_add!("d2stgnn_test_requests_total", 4);
    for i in 1..=200 {
        d2stgnn_obsv::observe!("d2stgnn_test_latency_seconds", f64::from(i) * 1e-3);
    }

    let text = d2stgnn_obsv::render_prometheus();
    assert!(text.contains("d2stgnn_test_requests_total 7\n"));
    assert!(text.contains("d2stgnn_test_latency_seconds{quantile=\"0.99\"}"));
    assert!(text.contains("d2stgnn_test_latency_seconds_count 200\n"));
    // The registry holds no gauges; the SLO gauges are read from the SLO
    // accumulator as the exposition is written, each declared once.
    for name in [
        "d2stgnn_slo_availability_target",
        "d2stgnn_slo_latency_target",
        "d2stgnn_slo_latency_threshold_ms",
        "d2stgnn_slo_availability_burn_rate_5m",
        "d2stgnn_slo_latency_burn_rate_6h",
    ] {
        let declared = format!("# TYPE {name} gauge\n");
        assert_eq!(text.matches(&declared).count(), 1, "{name} in:\n{text}");
    }

    d2stgnn_obsv::shutdown();
}

#[test]
fn span_closed_with_trace_id_leaves_that_exemplar() {
    let _guard = test_lock();
    let _buf = fresh_telemetry();

    {
        let mut span = d2stgnn_obsv::span!("d2stgnn_test_traced");
        d2stgnn_obsv::record!(span, trace_id = "exemplar-trace-1");
    }
    {
        let _span = d2stgnn_obsv::span!("d2stgnn_test_untraced", trace_ids = "a,b");
    }

    let registry = d2stgnn_obsv::registry();
    let traced = registry.histogram("d2stgnn_test_traced_seconds");
    assert_eq!(traced.count(), 1, "the span is timed once");
    let exemplar = traced.exemplar().expect("span left no exemplar");
    assert_eq!(exemplar.trace_id, "exemplar-trace-1");
    assert_eq!(
        registry
            .histogram("d2stgnn_test_untraced_seconds")
            .exemplar(),
        None,
        "only a `trace_id` field names an exemplar"
    );
    let text = d2stgnn_obsv::render_prometheus();
    assert!(
        text.contains("d2stgnn_test_traced_seconds_count 1 # {trace_id=\"exemplar-trace-1\"} "),
        "exemplar missing from exposition: {text}"
    );

    d2stgnn_obsv::shutdown();
}

/// A writer whose every operation fails, for exercising the loss path.
struct FailingWriter;

impl Write for FailingWriter {
    fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
        Err(std::io::Error::other("sink target gone"))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Err(std::io::Error::other("sink target gone"))
    }
}

#[test]
fn write_failures_count_dropped_lines_in_counter_and_registry() {
    let _guard = test_lock();
    d2stgnn_obsv::shutdown();
    d2stgnn_obsv::registry().clear();
    let before = d2stgnn_obsv::dropped_lines();

    d2stgnn_obsv::set_writer(Box::new(FailingWriter));
    {
        let _span = d2stgnn_obsv::span!("d2stgnn_test_lost");
    }
    // Explicit flush fails loudly; the buffered lines are still pending.
    assert!(d2stgnn_obsv::flush().is_err());
    // Teardown flush fails too: the pending lines are dropped and counted.
    d2stgnn_obsv::shutdown();

    assert!(
        d2stgnn_obsv::dropped_lines() > before,
        "loss was not counted"
    );
    let snap = d2stgnn_obsv::registry().snapshot();
    assert!(
        snap.counters
            .iter()
            .any(|(n, v)| n == "d2stgnn_obsv_sink_dropped_total" && *v > 0),
        "registry counter missing: {:?}",
        snap.counters
    );
}

#[test]
fn sink_file_round_trip() {
    let _guard = test_lock();
    d2stgnn_obsv::registry().clear();
    let dropped_before = d2stgnn_obsv::dropped_lines();

    let dir = std::env::temp_dir().join(format!("d2stgnn-obsv-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("trace.jsonl");
    d2stgnn_obsv::init_jsonl(&path).expect("init jsonl sink");
    {
        let _span = d2stgnn_obsv::span!("d2stgnn_test_file", ok = true);
    }
    d2stgnn_obsv::shutdown(); // flushes the file

    let text = std::fs::read_to_string(&path).expect("read trace back");
    let lines: Vec<Value> = text.lines().map(validate_line_schema).collect();
    assert_eq!(lines.len(), 1);
    assert_eq!(
        as_str(obj_get(&lines[0], "name").unwrap()),
        "d2stgnn_test_file"
    );
    assert_eq!(d2stgnn_obsv::dropped_lines(), dropped_before);
    std::fs::remove_dir_all(&dir).ok();
}
