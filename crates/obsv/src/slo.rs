//! Service-level-objective tracking with multi-window burn rates.
//!
//! Two objectives over the HTTP serving path, mirroring what the front door
//! actually promises:
//!
//! * **Availability** — 99.9% of requests return a non-5xx status
//!   (error budget: 0.1%).
//! * **Latency** — 99% of requests complete under 250 ms, the p99 target
//!   (slow budget: 1%).
//!
//! Every finished request is folded into a ring of per-minute buckets
//! ([`SLO_MINUTES`] of history). A *burn rate* over a window is the observed
//! bad fraction divided by the error budget: burn 1.0 means the budget is
//! being consumed exactly as fast as it accrues; burn 14 over 5 minutes is
//! the classic "page now" threshold. Three windows (5 m / 1 h / 6 h) let
//! operators distinguish a fast transient burn from a slow leak.
//!
//! Surfaced two ways: `GET /slo` renders [`render_slo_json`], and
//! [`crate::render_prometheus`] writes the targets and burn rates as
//! `d2stgnn_slo_*` gauges, read from [`slo_snapshot`] at render time.

use crate::prometheus::{write_sample, write_type};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Availability objective: fraction of requests that must be non-5xx.
pub const SLO_AVAILABILITY_TARGET: f64 = 0.999;
/// Latency objective: fraction of requests that must finish under the
/// threshold.
pub const SLO_LATENCY_TARGET: f64 = 0.99;
/// Latency threshold backing the p99 objective.
pub const SLO_LATENCY_THRESHOLD: Duration = Duration::from_millis(250);

/// Minutes of history retained: the longest window (6 h = 360 m) plus one
/// slot so the in-progress minute never evicts the oldest complete one.
const SLO_MINUTES: usize = 361;

/// The three burn-rate windows, in minutes.
const WINDOWS: [(&str, u64); 3] = [("5m", 5), ("1h", 60), ("6h", 360)];

#[derive(Clone, Copy, Default)]
struct MinuteBucket {
    /// Which absolute minute this slot currently holds (slots are reused
    /// modulo [`SLO_MINUTES`]; the tag lets reads skip stale occupants).
    minute: u64,
    total: u64,
    err5xx: u64,
    slow: u64,
}

/// One burn-rate window in a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct SloWindow {
    /// Window label: `5m`, `1h`, or `6h`.
    pub window: &'static str,
    /// Requests observed in the window.
    pub total: u64,
    /// 5xx responses in the window.
    pub err5xx: u64,
    /// Responses at or over the latency threshold in the window.
    pub slow: u64,
    /// Availability burn rate (observed 5xx fraction / 0.001 budget).
    pub availability_burn: f64,
    /// Latency burn rate (observed slow fraction / 0.01 budget).
    pub latency_burn: f64,
}

/// Point-in-time view of both objectives across all windows.
#[derive(Clone, Debug, Default)]
pub struct SloSnapshot {
    /// One entry per window, shortest first.
    pub windows: Vec<SloWindow>,
}

/// The minute-ring accumulator. Kept as a plain struct (with explicit
/// `*_at(minute)` methods) so window arithmetic is unit-testable without
/// the global clock or registry.
struct SloState {
    epoch: Instant,
    buckets: Vec<MinuteBucket>,
}

impl SloState {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            buckets: vec![MinuteBucket::default(); SLO_MINUTES],
        }
    }

    fn now_minute(&self) -> u64 {
        self.epoch.elapsed().as_secs() / 60
    }

    fn record_at(&mut self, minute: u64, status: u16, slow: bool) {
        let slot = (minute % 361) as usize;
        let Some(bucket) = self.buckets.get_mut(slot) else {
            return;
        };
        if bucket.minute != minute {
            *bucket = MinuteBucket {
                minute,
                ..MinuteBucket::default()
            };
        }
        bucket.total += 1;
        if status >= 500 {
            bucket.err5xx += 1;
        }
        if slow {
            bucket.slow += 1;
        }
    }

    fn snapshot_at(&self, now_minute: u64) -> SloSnapshot {
        let windows = WINDOWS
            .iter()
            .map(|&(name, span)| {
                let (mut total, mut err5xx, mut slow) = (0u64, 0u64, 0u64);
                for b in &self.buckets {
                    // In-window: the most recent `span` minutes, inclusive
                    // of the in-progress one. The tag check excludes slots
                    // still holding an older lap of the ring.
                    if b.total > 0 && b.minute <= now_minute && b.minute + span > now_minute {
                        total += b.total;
                        err5xx += b.err5xx;
                        slow += b.slow;
                    }
                }
                let frac = |bad: u64| -> f64 {
                    if total == 0 {
                        0.0
                    } else {
                        bad as f64 * (total as f64).recip()
                    }
                };
                SloWindow {
                    window: name,
                    total,
                    err5xx,
                    slow,
                    availability_burn: frac(err5xx) * (1.0 - SLO_AVAILABILITY_TARGET).recip(),
                    latency_burn: frac(slow) * (1.0 - SLO_LATENCY_TARGET).recip(),
                }
            })
            .collect();
        SloSnapshot { windows }
    }
}

static SLO: Mutex<Option<SloState>> = Mutex::new(None);

fn lock_slo() -> MutexGuard<'static, Option<SloState>> {
    SLO.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fold one finished request into the SLO accumulator. `latency` is
/// end-to-end (door to response); a request is *slow* at or over
/// [`SLO_LATENCY_THRESHOLD`]. No-op when the `enabled` feature is off.
pub fn slo_record(status: u16, latency: Duration) {
    if !crate::enabled() {
        return;
    }
    let slow = latency >= SLO_LATENCY_THRESHOLD;
    let mut guard = lock_slo();
    let state = guard.get_or_insert_with(SloState::new);
    let minute = state.now_minute();
    state.record_at(minute, status, slow);
}

/// Snapshot both objectives over all windows. Empty-window burn rates are
/// zero; a disabled build reports zeroed windows with the same shape.
pub fn slo_snapshot() -> SloSnapshot {
    let guard = lock_slo();
    match guard.as_ref() {
        Some(state) => state.snapshot_at(state.now_minute()),
        None => SloSnapshot {
            windows: WINDOWS
                .iter()
                .map(|&(name, _)| SloWindow {
                    window: name,
                    total: 0,
                    err5xx: 0,
                    slow: 0,
                    availability_burn: 0.0,
                    latency_burn: 0.0,
                })
                .collect(),
        },
    }
}

/// Drop all SLO history (test isolation helper).
pub fn clear_slo() {
    *lock_slo() = None;
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push('0');
    }
}

/// Render the `GET /slo` JSON document: the two objectives (targets and
/// threshold) plus per-window totals and burn rates, shortest window first.
pub fn render_slo_json() -> String {
    let snap = slo_snapshot();
    let mut out = String::with_capacity(256 + snap.windows.len() * 128);
    out.push_str("{\"objectives\":{\"availability\":{\"target\":");
    push_f64(&mut out, SLO_AVAILABILITY_TARGET);
    out.push_str("},\"latency\":{\"target\":");
    push_f64(&mut out, SLO_LATENCY_TARGET);
    out.push_str(",\"threshold_ms\":");
    out.push_str(&SLO_LATENCY_THRESHOLD.as_millis().to_string());
    out.push_str("}},\"windows\":[");
    for (i, w) in snap.windows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"window\":\"");
        out.push_str(w.window);
        out.push_str("\",\"total\":");
        out.push_str(&w.total.to_string());
        out.push_str(",\"err5xx\":");
        out.push_str(&w.err5xx.to_string());
        out.push_str(",\"slow\":");
        out.push_str(&w.slow.to_string());
        out.push_str(",\"availability_burn_rate\":");
        push_f64(&mut out, w.availability_burn);
        out.push_str(",\"latency_burn_rate\":");
        push_f64(&mut out, w.latency_burn);
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Write the objectives and the current burn rates as `d2stgnn_slo_*`
/// gauge families. Writes nothing when the `enabled` feature is off, where
/// no request is ever recorded.
pub(crate) fn write_slo_gauges(out: &mut String) {
    if !crate::enabled() {
        return;
    }
    let mut gauge = |name: &str, value: f64| {
        write_type(out, name, "gauge");
        write_sample(out, name, &[], value);
    };
    gauge("d2stgnn_slo_availability_target", SLO_AVAILABILITY_TARGET);
    gauge("d2stgnn_slo_latency_target", SLO_LATENCY_TARGET);
    gauge(
        "d2stgnn_slo_latency_threshold_ms",
        SLO_LATENCY_THRESHOLD.as_millis() as f64,
    );
    for w in &slo_snapshot().windows {
        gauge(
            &format!("d2stgnn_slo_availability_burn_rate_{}", w.window),
            w.availability_burn,
        );
        gauge(
            &format!("d2stgnn_slo_latency_burn_rate_{}", w.window),
            w.latency_burn,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burn_rates_scale_with_bad_fractions() {
        let mut state = SloState::new();
        // Minute 1000: 1000 requests, 1 5xx (exactly the 0.1% budget) and
        // 10 slow (exactly the 1% budget) -> both burns are 1.0.
        for i in 0..1000u64 {
            state.record_at(1000, if i == 0 { 500 } else { 200 }, i < 10);
        }
        let snap = state.snapshot_at(1000);
        let w5 = snap.windows.first().expect("5m window");
        assert_eq!((w5.total, w5.err5xx, w5.slow), (1000, 1, 10));
        assert!((w5.availability_burn - 1.0).abs() < 1e-9, "{w5:?}");
        assert!((w5.latency_burn - 1.0).abs() < 1e-9, "{w5:?}");
    }

    #[test]
    fn windows_include_exactly_their_span() {
        let mut state = SloState::new();
        // One request per minute for minutes 0..=360.
        for m in 0..=360u64 {
            state.record_at(m, 200, false);
        }
        let snap = state.snapshot_at(360);
        let totals: Vec<u64> = snap.windows.iter().map(|w| w.total).collect();
        // 5m window covers minutes 356..=360, 1h covers 301..=360, 6h all.
        assert_eq!(totals, [5, 60, 360]);
    }

    #[test]
    fn ring_reuse_discards_stale_laps() {
        let mut state = SloState::new();
        state.record_at(0, 500, true);
        // A full lap later the same slot is reused; the old minute-0 burn
        // must not leak into any window.
        state.record_at(361, 200, false);
        let snap = state.snapshot_at(361);
        for w in &snap.windows {
            assert_eq!((w.err5xx, w.slow), (0, 0), "{}", w.window);
            assert_eq!(w.total, 1, "{}", w.window);
        }
    }

    #[test]
    fn empty_windows_burn_zero() {
        let state = SloState::new();
        let snap = state.snapshot_at(5);
        assert_eq!(snap.windows.len(), 3);
        for w in &snap.windows {
            assert_eq!(w.total, 0);
            assert_eq!(w.availability_burn, 0.0);
            assert_eq!(w.latency_burn, 0.0);
        }
    }

    #[test]
    fn fast_burn_is_visible_in_short_window_only() {
        let mut state = SloState::new();
        // Five hours of clean traffic, then a bad final 5 minutes.
        for m in 0..300u64 {
            for _ in 0..100 {
                state.record_at(m, 200, false);
            }
        }
        for m in 300..305u64 {
            for _ in 0..100 {
                state.record_at(m, 503, false);
            }
        }
        let snap = state.snapshot_at(304);
        let by_name = |n: &str| {
            snap.windows
                .iter()
                .find(|w| w.window == n)
                .expect("window")
                .clone()
        };
        let (w5, w6h) = (by_name("5m"), by_name("6h"));
        // 5m window: 100% errors -> burn 1000x. 6h window is diluted.
        assert!(w5.availability_burn > 900.0, "{w5:?}");
        assert!(w6h.availability_burn < 30.0, "{w6h:?}");
    }

    #[test]
    fn json_document_has_stable_schema() {
        use serde_json::Value;
        fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
            let Value::Object(entries) = v else {
                panic!("expected object, got {}", v.kind())
            };
            entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key:?}"))
        }
        let json = render_slo_json();
        let doc: Value = serde_json::from_str(&json).expect("slo json parses");
        let objectives = field(&doc, "objectives");
        assert!(matches!(
            field(field(objectives, "availability"), "target"),
            Value::Number(_)
        ));
        assert_eq!(
            field(field(objectives, "latency"), "threshold_ms"),
            &Value::Number(serde::Number::PosInt(250))
        );
        let Value::Array(windows) = field(&doc, "windows") else {
            panic!("windows is not an array")
        };
        assert_eq!(windows.len(), 3);
        let names: Vec<&str> = windows
            .iter()
            .map(|w| match field(w, "window") {
                Value::String(s) => s.as_str(),
                other => panic!("window name is {}", other.kind()),
            })
            .collect();
        assert_eq!(names, ["5m", "1h", "6h"]);
        for w in windows {
            for key in ["total", "err5xx", "slow"] {
                assert!(
                    matches!(field(w, key), Value::Number(serde::Number::PosInt(_))),
                    "{key} is not a non-negative integer"
                );
            }
            for key in ["availability_burn_rate", "latency_burn_rate"] {
                assert!(matches!(field(w, key), Value::Number(_)), "{key} missing");
            }
        }
    }

    #[test]
    fn global_record_and_gauges_respect_feature_state() {
        clear_slo();
        slo_record(200, Duration::from_millis(1));
        slo_record(500, Duration::from_millis(300));
        let snap = slo_snapshot();
        let w5 = snap.windows.first().expect("5m window");
        let mut text = String::new();
        write_slo_gauges(&mut text);
        if crate::enabled() {
            assert_eq!((w5.total, w5.err5xx, w5.slow), (2, 1, 1));
            assert!(text.contains("# TYPE d2stgnn_slo_availability_target gauge\n"));
            assert!(text.contains("\nd2stgnn_slo_latency_threshold_ms 250\n"));
            for suffix in ["5m", "1h", "6h"] {
                for family in ["availability", "latency"] {
                    let name = format!("d2stgnn_slo_{family}_burn_rate_{suffix}");
                    assert!(text.contains(&format!("# TYPE {name} gauge\n")), "{text}");
                }
            }
            // The value written is the snapshot's, read at render time.
            let line = format!(
                "\nd2stgnn_slo_availability_burn_rate_5m {}\n",
                w5.availability_burn
            );
            assert!(w5.availability_burn > 0.0 && text.contains(&line), "{text}");
        } else {
            assert_eq!(w5.total, 0);
            assert!(text.is_empty());
        }
        clear_slo();
    }
}
