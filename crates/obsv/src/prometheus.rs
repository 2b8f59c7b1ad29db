//! Prometheus text-format exposition of the metrics registry.
//!
//! Counters render as counters; histograms render as Prometheus *summaries*
//! (pre-computed `quantile="0.5|0.95|0.99"` series plus `_sum` and
//! `_count`), since the log-bucket layout is an internal detail and the
//! quantile estimates are what dashboards consume. The registry holds no
//! gauges: the global render appends the `d2stgnn_slo_*` gauges, read from
//! the SLO accumulator as it is written.
//!
//! [`write_type`] and [`write_sample`] are the only code that writes
//! exposition lines: the registry renderer uses them, and so does every
//! front end that exports its own instance's counters.

use crate::metrics::{registry, MetricsSnapshot, Registry};

/// Render the global registry in the Prometheus text exposition format,
/// followed by the `d2stgnn_slo_*` gauges (written in the `enabled` build
/// only).
pub fn render_prometheus() -> String {
    let mut out = render_prometheus_for(registry());
    crate::slo::write_slo_gauges(&mut out);
    out
}

/// Render a specific registry (tests use private registries).
pub fn render_prometheus_for(reg: &Registry) -> String {
    render_snapshot(&reg.snapshot())
}

/// Escape a string for use inside a Prometheus label value: backslash,
/// double quote, and newline are the three characters the text exposition
/// format requires escaping (`\\`, `\"`, `\n`). Load-bearing for exemplar
/// trace ids and tenant labels, both of which can carry client input.
fn escape_label_value(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Write a metric family's `# TYPE <name> <kind>` line. An exposition
/// declares each family exactly once, ahead of its samples.
pub fn write_type(out: &mut String, name: &str, kind: &str) {
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Write one sample line, `name{key="value",...} value`. Label values are
/// escaped (backslash, double quote, newline), so they may carry client
/// input; an empty label set writes a bare name. Prometheus sample values
/// are float64, so counters pass `as f64`.
pub fn write_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    push_sample(out, name, labels, value);
    out.push('\n');
}

/// A sample line without its terminating newline, so the renderer can
/// append an exemplar to `_count` lines.
fn push_sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    for (i, (key, raw)) in labels.iter().enumerate() {
        out.push(if i == 0 { '{' } else { ',' });
        out.push_str(key);
        out.push_str("=\"");
        out.push_str(&escape_label_value(raw));
        out.push('"');
    }
    if !labels.is_empty() {
        out.push('}');
    }
    out.push(' ');
    push_f64(out, value);
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&v.to_string());
    } else if v.is_nan() {
        out.push_str("NaN");
    } else if v > 0.0 {
        out.push_str("+Inf");
    } else {
        out.push_str("-Inf");
    }
}

fn render_snapshot(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        write_type(&mut out, name, "counter");
        write_sample(&mut out, name, &[], *value as f64);
    }
    for (name, h) in &snap.histograms {
        write_type(&mut out, name, "summary");
        for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
            write_sample(&mut out, name, &[("quantile", q)], v);
        }
        write_sample(&mut out, &format!("{name}_sum"), &[], h.sum);
        push_sample(&mut out, &format!("{name}_count"), &[], h.count as f64);
        // OpenMetrics-style exemplar: ` # {trace_id="..."} value` appended
        // to the _count series, linking the histogram's slowest traced
        // observation to its retained trace in /debug/traces.
        if let Some(e) = &h.exemplar {
            out.push_str(" # ");
            push_sample(&mut out, "", &[("trace_id", &e.trace_id)], e.value);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_all_metric_kinds() {
        let reg = Registry::new();
        reg.counter("d2stgnn_test_requests_total").add(7);
        let h = reg.histogram("d2stgnn_test_latency_seconds");
        for i in 1..=100 {
            h.observe(f64::from(i) / 1000.0);
        }
        let text = render_prometheus_for(&reg);
        assert!(text.contains("# TYPE d2stgnn_test_requests_total counter\n"));
        assert!(text.contains("d2stgnn_test_requests_total 7\n"));
        assert!(text.contains("# TYPE d2stgnn_test_latency_seconds summary\n"));
        assert!(text.contains("d2stgnn_test_latency_seconds{quantile=\"0.5\"}"));
        assert!(text.contains("d2stgnn_test_latency_seconds{quantile=\"0.95\"}"));
        assert!(text.contains("d2stgnn_test_latency_seconds{quantile=\"0.99\"}"));
        assert!(text.contains("d2stgnn_test_latency_seconds_count 100\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad value in line: {line}");
            assert!(parts.next().is_some());
        }
    }

    #[test]
    fn empty_registry_renders_empty() {
        let reg = Registry::new();
        assert!(render_prometheus_for(&reg).is_empty());
    }

    #[test]
    fn label_values_escape_quote_backslash_and_newline() {
        assert_eq!(escape_label_value("plain-id_1.2"), "plain-id_1.2");
        assert_eq!(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label_value("back\\slash"), "back\\\\slash");
        assert_eq!(escape_label_value("line\nbreak"), "line\\nbreak");
        // All three at once, in a hostile order.
        assert_eq!(escape_label_value("\\\"\n"), "\\\\\\\"\\n");
        // No raw newline survives — a hostile value cannot break the
        // line-oriented exposition format.
        assert!(!escape_label_value("a\"b\\c\nd").contains('\n'));
    }

    #[test]
    fn exemplar_renders_on_count_line_with_escaped_trace_id() {
        let reg = Registry::new();
        let h = reg.histogram("d2stgnn_test_exemplar_seconds");
        h.observe_with_exemplar(0.25, "trace\"quoted\\id");
        let text = render_prometheus_for(&reg);
        assert!(
            text.contains(
                "d2stgnn_test_exemplar_seconds_count 1 # {trace_id=\"trace\\\"quoted\\\\id\"} 0.25\n"
            ),
            "missing exemplar suffix in: {text}"
        );
        // Exemplar-bearing lines still end in a parseable value.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad value in line: {line}");
        }
    }
}
