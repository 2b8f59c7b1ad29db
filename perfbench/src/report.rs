//! What one run reports: named metrics with units and sample counts, the
//! operations attempted and failed, the output checks, and the per-run
//! noise diagnostics. The last stdout line is the machine-readable result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind a percentile or median, with the percentile rule.
    pub samples: Option<String>,
}

/// Everything one run prints.
#[derive(Default)]
pub struct Outcome {
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Operations attempted in the timed part.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that failed, one message each.
    pub check_failures: Vec<String>,
    /// Reported-only context: noise diagnostics, per-phase tallies.
    pub detail: BTreeMap<String, String>,
}

impl Outcome {
    /// Add a metric without a sample count.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put_with(name, value, unit, None);
    }

    /// Add a metric with the sample count behind it.
    pub fn put_with(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: Option<String>,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Record a reported-only value.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.detail.insert(key.to_string(), value.to_string());
    }

    /// Fail an output check unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(message());
        }
    }

    /// True when no operation failed and every output check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }

    /// The human-readable table, the detail line, and (last) the result
    /// object.
    pub fn render(&self, workload: &str, trace: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# workload {workload} ({}): {} attempted, {} failed",
            if trace { "traced" } else { "untraced" },
            self.attempted,
            self.failed
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<28} {:>14.4} {:<10} {}",
                m.name,
                m.value,
                m.unit,
                m.samples.as_deref().unwrap_or("")
            );
        }
        for failure in &self.check_failures {
            let _ = writeln!(out, "# CHECK FAILED: {failure}");
        }
        let detail: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
            .collect();
        let samples: Vec<String> = self
            .metrics
            .iter()
            .filter_map(|m| {
                m.samples
                    .as_ref()
                    .map(|s| format!("{}:{}", json_string(&m.name), json_string(s)))
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"detail\":{{{}}},\"samples\":{{{}}}}}",
            detail.join(","),
            samples.join(",")
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_string(&m.name),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        );
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives; non-finite values (never expected) print as 0 so the line stays
/// valid JSON, and the run's checks fail on them separately.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_line_is_the_result_object() {
        let mut o = Outcome::default();
        o.put("setup_s", 1.25, "s");
        o.put_with("lat_p50_ms.low", 12.5, "ms", Some("n=200 p50".into()));
        o.attempted = 3;
        let text = o.render("w", false);
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":1.25,"unit":"s"},"lat_p50_ms.low":{"value":12.5,"unit":"ms"}}}"#
        );
        let v: serde_json::Value = serde_json::from_str(last).unwrap();
        assert_eq!(v.kind(), "object");
    }

    #[test]
    fn failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(false, || "values not finite".into());
        assert!(!o.correct());
        assert!(o.render("w", false).contains("\"correct\":false"));
    }
}
