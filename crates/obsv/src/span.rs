//! Hierarchical RAII spans and point events.
//!
//! A span is opened with the [`crate::span!`] macro and closed when its
//! [`SpanGuard`] drops. Spans nest per thread: the guard records its parent
//! (the span that was current when it opened) and restores it on drop, so
//! lexically nested guards produce a well-formed tree across the JSONL
//! trace. Closing a span also feeds the `<name>_seconds` histogram, so
//! every instrumented scope gets p50/p95/p99 for free; a span carrying a
//! `trace_id` string field offers that id as the histogram's exemplar.

use crate::metrics::registry;
use crate::sink;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh record id from the span-id sequence. Used by records
/// built outside [`SpanGuard`] (the sink's flush summary event) so every
/// JSONL record shares one id space.
pub(crate) fn next_record_id() -> u64 {
    // relaxed: record ids only need fetch_add's uniqueness, not ordering
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    /// Id of the innermost open span on this thread (0 = none).
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
}

/// A typed key=value field attached to a span or event.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (non-finite renders as 0).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String (JSON-escaped on emission).
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::I64(i64::from(v))
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<f32> for FieldValue {
    fn from(v: f32) -> Self {
        FieldValue::F64(f64::from(v))
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    /// Render as a JSON value fragment.
    pub(crate) fn render_json(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => out.push_str(&v.to_string()),
            FieldValue::I64(v) => out.push_str(&v.to_string()),
            FieldValue::F64(v) => {
                if v.is_finite() {
                    out.push_str(&v.to_string());
                } else {
                    out.push('0');
                }
            }
            FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            FieldValue::Str(s) => {
                out.push('"');
                escape_json_into(s, out);
                out.push('"');
            }
        }
    }
}

/// Append `s` JSON-escaped (without surrounding quotes) to `out`.
pub(crate) fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

struct SpanInner {
    name: &'static str,
    id: u64,
    parent: u64,
    start: Instant,
    fields: Vec<(&'static str, FieldValue)>,
}

/// RAII guard for an open span; created by the [`crate::span!`] macro.
/// Dropping the guard closes the span. Guards must drop in LIFO order on a
/// thread (the natural result of binding each to a lexical scope) for the
/// parent chain to stay well-formed.
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

impl SpanGuard {
    /// Open a span. Prefer the [`crate::span!`] macro, which compiles to a
    /// no-op when telemetry is disabled.
    pub fn new(name: &'static str, fields: Vec<(&'static str, FieldValue)>) -> Self {
        // relaxed: span ids only need fetch_add's uniqueness, not ordering
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT_SPAN.with(|c| {
            let p = c.get();
            c.set(id);
            p
        });
        SpanGuard {
            inner: Some(SpanInner {
                name,
                id,
                parent,
                start: Instant::now(),
                fields,
            }),
        }
    }

    /// An inert guard (what [`crate::span!`] returns when disabled).
    pub fn noop() -> Self {
        SpanGuard { inner: None }
    }

    /// Attach a field to the open span (last write wins on duplicate keys
    /// is NOT enforced; duplicates render in order).
    pub fn record(&mut self, key: &'static str, value: FieldValue) {
        if let Some(inner) = self.inner.as_mut() {
            inner.fields.push((key, value));
        }
    }

    /// This span's id (0 for a noop guard), for cross-referencing events.
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        CURRENT_SPAN.with(|c| c.set(inner.parent));
        let elapsed = inner.start.elapsed();
        let trace_id = inner.fields.iter().find_map(|(key, value)| match value {
            FieldValue::Str(id) if *key == "trace_id" => Some(id.as_str()),
            _ => None,
        });
        registry()
            .histogram(&format!("{}_seconds", inner.name))
            .observe_with_exemplar(elapsed.as_secs_f64(), trace_id.unwrap_or(""));
        sink::emit_record(
            "span",
            inner.name,
            inner.id,
            inner.parent,
            inner.start,
            Some(elapsed),
            &inner.fields,
        );
    }
}

/// Emit a point-in-time event parented to the current span. Prefer the
/// [`crate::event!`] macro, which compiles to a no-op when disabled.
pub fn emit_event(name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
    // relaxed: event ids only need fetch_add's uniqueness, not ordering
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT_SPAN.with(Cell::get);
    sink::emit_record("event", name, id, parent, Instant::now(), None, &fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_values_render_as_json() {
        let cases: Vec<(FieldValue, &str)> = vec![
            (FieldValue::from(3u64), "3"),
            (FieldValue::from(-2i64), "-2"),
            (FieldValue::from(1.5f64), "1.5"),
            (FieldValue::from(f64::NAN), "0"),
            (FieldValue::from(true), "true"),
            (FieldValue::from("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\""),
        ];
        for (v, expect) in cases {
            let mut out = String::new();
            v.render_json(&mut out);
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn nesting_restores_parent_and_ids_are_unique() {
        let outer = SpanGuard::new("outer", vec![]);
        let outer_id = outer.id();
        {
            let inner = SpanGuard::new("inner", vec![]);
            assert_ne!(inner.id(), outer_id);
            assert_eq!(CURRENT_SPAN.with(Cell::get), inner.id());
        }
        assert_eq!(CURRENT_SPAN.with(Cell::get), outer_id);
        drop(outer);
        assert_eq!(CURRENT_SPAN.with(Cell::get), 0);
    }

    #[test]
    fn noop_guard_is_inert() {
        let mut g = SpanGuard::noop();
        g.record("k", FieldValue::from(1u64));
        assert_eq!(g.id(), 0);
        let before = CURRENT_SPAN.with(Cell::get);
        drop(g);
        assert_eq!(CURRENT_SPAN.with(Cell::get), before);
    }
}
