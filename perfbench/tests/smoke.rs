//! Smoke mode: every workload runs briefly and prints exactly the metrics
//! `BENCHMARK.json` declares, by name and unit, with a passing result.
//!
//! `cargo test` checks the untraced build's end-to-end metrics;
//! `cargo test --features trace` checks the traced build's per-layer ones.

use serde_json::Value;
use std::process::Command;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no field {key:?}")),
        other => panic!("expected an object, got {}", other.kind()),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        other => panic!("expected a string, got {}", other.kind()),
    }
}

fn items(v: &Value) -> &[Value] {
    match v {
        Value::Array(a) => a,
        other => panic!("expected an array, got {}", other.kind()),
    }
}

/// `(name, unit)` of the declared metrics this build prints.
fn declared(traced: bool) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec: Value = serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let list = field(&spec, if traced { "per_layer" } else { "end_to_end" });
    let mut out: Vec<(String, String)> = items(list)
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect();
    out.sort();
    out
}

fn smoke(workload: &str) {
    let traced = cfg!(feature = "trace");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "2",
            "--smoke",
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} failed: {}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    assert!(
        matches!(field(&result, "correct"), Value::Bool(true)),
        "{last}"
    );
    assert!(
        matches!(field(&result, "attempted"), Value::Number(serde::Number::PosInt(n)) if *n >= 1),
        "{last}"
    );
    assert!(
        matches!(
            field(&result, "failed"),
            Value::Number(serde::Number::PosInt(0))
        ),
        "{last}"
    );
    let Value::Object(metrics) = field(&result, "metrics") else {
        panic!("metrics is not an object: {last}");
    };
    let mut printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                matches!(field(m, "value"), Value::Number(_)),
                "{name}: {last}"
            );
            (name.clone(), text(field(m, "unit")).to_string())
        })
        .collect();
    printed.sort();
    assert_eq!(printed, declared(traced), "{workload}");
}

#[test]
fn smoke_train() {
    smoke("train");
}

#[test]
fn smoke_serve_city() {
    smoke("serve_city");
}
