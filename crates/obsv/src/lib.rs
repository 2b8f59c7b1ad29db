//! # d2stgnn-obsv
//!
//! Unified telemetry layer for the d2stgnn workspace: one crate that the
//! training loop, the serving engine, the tensor tape, and the benchmark
//! binaries all report into, so a slow epoch or a p95 regression can be tied
//! back to the op, batch, or queue that caused it.
//!
//! Six pieces, all std-only:
//!
//! * **Spans** ([`SpanGuard`], built by the [`span!`] macro) — hierarchical
//!   RAII timing scopes with parent ids and key=value fields. Dropping a
//!   span emits one JSONL record and feeds a `<name>_seconds` histogram.
//! * **Metrics** ([`Registry`], reached via [`counter_add!`] and
//!   [`observe!`]) — atomic counters and fixed-bucket log-scale histograms
//!   with p50/p95/p99 estimation. There is no gauge kind: a point-in-time
//!   value is read from the instance that owns it when an exposition is
//!   written.
//! * **JSONL sink** ([`init_jsonl`], [`flush`]) — a bounded, lock-light
//!   buffer of newline-delimited JSON events, flushed at capacity and on
//!   drop/shutdown.
//! * **Prometheus exposition** ([`render_prometheus`]) — the registry
//!   rendered in the Prometheus text format (counters, and summaries with
//!   `quantile="0.5|0.95|0.99"` labels), with exemplar trace ids on
//!   `_count` lines when histograms carry them. Its two line writers,
//!   [`write_type`] and [`write_sample`], are public so a front end exports
//!   its own instances' counters and gauges through the same code.
//! * **Request traces** ([`TraceHandle`], [`make_request_id`]) — one
//!   request-scoped context minted at the HTTP door and passed explicitly
//!   through the serving envelope; tail-based sampling retains slow,
//!   errored, and shed traces in a bounded ring ([`render_traces_json`]).
//! * **SLOs** ([`slo_record`], [`render_slo_json`]) — availability and
//!   latency objectives with 5 m / 1 h / 6 h burn rates, which
//!   [`render_prometheus`] writes as `d2stgnn_slo_*` gauges from
//!   [`slo_snapshot`].
//!
//! ## The `enabled` feature
//!
//! The macros are gated behind the `enabled` cargo feature (downstream
//! crates forward their own `obsv` feature to it). Every macro expands to
//! `if d2stgnn_obsv::enabled() { .. }` where [`enabled`] is a `const fn`, so
//! a disabled build folds the whole call — including argument evaluation —
//! to nothing: no registry entries are created, no clocks are read, no sink
//! is touched. The API surface itself stays available in both builds so
//! callers compile identically.
//!
//! The registry is process-wide, so it holds process-wide telemetry only
//! (span and stage histograms, core counters). A counter that belongs to one
//! instance, such as a serve `Server`, lives in that instance as a
//! [`Counter`] cell and is exported with [`write_sample`]; so are values
//! whose owner keeps them anyway, like the tensor compute pool's counters.
//!
//! ## Naming convention
//!
//! Metric and span names follow `d2stgnn_<crate>_<subsystem>_<name>`, e.g.
//! `d2stgnn_core_train_divergence_total` or `d2stgnn_core_train_epoch`.
//! Counters end in `_total`, histograms of durations in `_seconds`. A gauge,
//! which an exporter writes from its owner's current value, names the
//! quantity directly: httpd writes each shard's
//! `d2stgnn_serve_in_flight{shard="0"}` from `ServerStats::in_flight`.
//!
//! ```
//! let _guard = d2stgnn_obsv::span!("d2stgnn_doc_example", answer = 42u64);
//! d2stgnn_obsv::counter_add!("d2stgnn_doc_examples_total", 1);
//! let dump = d2stgnn_obsv::render_prometheus();
//! # let _ = dump;
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod error;
mod metrics;
mod prometheus;
mod sink;
mod slo;
mod span;
mod trace;

pub use error::ObsvError;
pub use metrics::{
    registry, Counter, Exemplar, Histogram, HistogramSnapshot, MetricsSnapshot, Registry,
};
pub use prometheus::{render_prometheus, render_prometheus_for, write_sample, write_type};
pub use sink::{dropped_lines, flush, init_jsonl, set_writer, shutdown};
pub use slo::{
    clear_slo, render_slo_json, slo_record, slo_snapshot, SloSnapshot, SloWindow,
    SLO_AVAILABILITY_TARGET, SLO_LATENCY_TARGET, SLO_LATENCY_THRESHOLD,
};
pub use span::{emit_event, FieldValue, SpanGuard};
pub use trace::{
    clear_traces, make_request_id, render_traces_json, retained_traces, set_tail_config,
    RetainedTrace, TraceHandle, DEFAULT_SLOW_THRESHOLD, DEFAULT_TAIL_CAPACITY,
};

/// Whether the `enabled` cargo feature is on. `const`, so the macros'
/// `if enabled() { .. }` guards fold away entirely in disabled builds.
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

/// The workspace's single console funnel: human-readable progress lines
/// (e.g. the trainer's `verbose` output) go through here instead of ad-hoc
/// `eprintln!` calls scattered through library code, which the `no-print`
/// xlint rule forbids. Always active — this is presentation, not telemetry.
pub fn console_line(line: &str) {
    eprintln!("{line}");
}

/// Open a telemetry span. Returns a [`SpanGuard`] that must be bound to a
/// local (`let _span = ...`); the span closes when the guard drops, emitting
/// one JSONL record and one observation into the `<name>_seconds` histogram.
///
/// ```
/// let mut span = d2stgnn_obsv::span!("d2stgnn_doc_work", items = 3u64);
/// d2stgnn_obsv::record!(span, outcome = "ok");
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::new(
                $name,
                vec![$((stringify!($key), $crate::FieldValue::from($value))),*],
            )
        } else {
            $crate::SpanGuard::noop()
        }
    };
}

/// Attach a key=value field to an open [`SpanGuard`] (no-op when disabled;
/// the value expression is not evaluated).
#[macro_export]
macro_rules! record {
    ($span:expr, $key:ident = $value:expr $(,)?) => {
        if $crate::enabled() {
            $span.record(stringify!($key), $crate::FieldValue::from($value));
        }
    };
}

/// Emit a point-in-time JSONL event (no duration) with key=value fields,
/// parented to the current span if one is open.
#[macro_export]
macro_rules! event {
    ($name:literal $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::emit_event(
                $name,
                vec![$((stringify!($key), $crate::FieldValue::from($value))),*],
            );
        }
    };
}

/// Add to a named monotonic counter (`u64` delta).
#[macro_export]
macro_rules! counter_add {
    ($name:literal, $delta:expr) => {
        if $crate::enabled() {
            $crate::registry().counter($name).add($delta);
        }
    };
}

/// Record an `f64` observation into a named histogram.
#[macro_export]
macro_rules! observe {
    ($name:literal, $value:expr) => {
        if $crate::enabled() {
            $crate::registry().histogram($name).observe($value);
        }
    };
}

/// Record an `f64` observation carrying a trace id into a named histogram;
/// the histogram keeps the highest tagged value as its Prometheus exemplar.
/// `$trace_id` is any `&str` expression (an empty id degrades to a plain
/// observation).
#[macro_export]
macro_rules! observe_exemplar {
    ($name:literal, $value:expr, $trace_id:expr) => {
        if $crate::enabled() {
            $crate::registry()
                .histogram($name)
                .observe_with_exemplar($value, $trace_id);
        }
    };
}
