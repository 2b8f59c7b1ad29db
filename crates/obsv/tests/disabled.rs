//! Disabled-build contract (default features): every macro is a no-op — no
//! registry entries appear, argument expressions are never evaluated, and
//! span guards are inert. This is the test CI runs to guarantee that builds
//! without `--features obsv` carry zero telemetry overhead.

#![cfg(not(feature = "enabled"))]

use std::sync::atomic::{AtomicU64, Ordering};

static EVALUATIONS: AtomicU64 = AtomicU64::new(0);

fn tracked(value: u64) -> u64 {
    EVALUATIONS.fetch_add(1, Ordering::Relaxed);
    value
}

#[test]
fn macros_are_no_ops_without_the_feature() {
    assert!(!d2stgnn_obsv::enabled());

    let mut span = d2stgnn_obsv::span!("d2stgnn_test_span", n = tracked(1));
    d2stgnn_obsv::record!(span, loss = tracked(2));
    d2stgnn_obsv::event!("d2stgnn_test_event", n = tracked(3));
    d2stgnn_obsv::counter_add!("d2stgnn_test_total", tracked(4));
    d2stgnn_obsv::observe!("d2stgnn_test_seconds", tracked(5) as f64);
    assert_eq!(span.id(), 0, "span! returns a noop guard when disabled");
    drop(span);

    assert_eq!(
        EVALUATIONS.load(Ordering::Relaxed),
        0,
        "macro arguments must not be evaluated when disabled"
    );
    assert!(
        d2stgnn_obsv::registry().snapshot().is_empty(),
        "no metrics may be registered when disabled"
    );
    // No SLO gauge lines either: nothing is recorded in this build.
    d2stgnn_obsv::slo_record(500, std::time::Duration::from_secs(1));
    assert!(
        d2stgnn_obsv::render_prometheus().is_empty(),
        "prometheus dump must be empty when disabled"
    );
}
