//! Global metrics registry: atomic counters and fixed-bucket log-scale
//! histograms with p50/p95/p99 quantile estimation.
//!
//! Handles are `Arc`-shared and lock-free to update; the registry itself is
//! one `Mutex<BTreeMap>` per metric kind, taken only on the first lookup of
//! a name (callers may cache the returned `Arc`) and on snapshot. There is
//! no gauge kind: a point-in-time value (a queue depth, a thread count) is
//! read from the instance that owns it when an exposition is written.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// One trace-linked observation attached to a histogram: the highest value
/// seen with a trace id, so a dashboard jumping from "p99 spiked" can land
/// directly on a retained trace in `/debug/traces`.
#[derive(Clone, Debug, PartialEq)]
pub struct Exemplar {
    /// The observed value (same unit as the histogram).
    pub value: f64,
    /// The trace (request) id that produced it.
    pub trace_id: String,
}

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `delta` to the counter.
    pub fn add(&self, delta: u64) {
        // relaxed: monotonic counter cell; no other memory is published through it
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // relaxed: monotonic counter cell; no other memory is published through it
        self.value.load(Ordering::Relaxed)
    }
}

/// Smallest positive value the histogram resolves; everything at or below
/// (including zero and negatives) lands in bucket 0.
const HIST_MIN: f64 = 1e-9;
/// Log-scale buckets per decade. 20 sub-buckets per decade means each
/// bucket's upper/lower bound ratio is `10^(1/20) ≈ 1.122`, bounding the
/// worst-case relative quantile error at ~12%.
const PER_DECADE: usize = 20;
/// Decades covered above [`HIST_MIN`]: `1e-9 ..= 1e7`.
const DECADES: usize = 16;
/// Bucket 0 (underflow) + log buckets + one overflow bucket.
const BUCKETS: usize = 2 + PER_DECADE * DECADES;

/// A fixed-bucket histogram over positive `f64` observations (latencies in
/// seconds, batch sizes, gradient norms). Buckets are log-spaced with
/// [`PER_DECADE`] sub-buckets per decade from `1e-9` to `1e7`; quantiles are
/// estimated by rank interpolation inside the containing bucket, so the
/// estimate is always within one bucket width (~12% relative) of the exact
/// order statistic.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    /// High-water exemplar: the largest trace-tagged observation so far.
    exemplar: Mutex<Option<Exemplar>>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
            exemplar: Mutex::new(None),
        }
    }
}

/// Bucket index for an observation.
fn bucket_index(value: f64) -> usize {
    if value.is_nan() || value <= HIST_MIN {
        return 0;
    }
    let exp = (value / HIST_MIN).log10() * PER_DECADE as f64;
    // `value > HIST_MIN` makes `exp` positive; +1 skips the underflow
    // bucket. Saturating: `f64::INFINITY as usize` is already usize::MAX.
    let idx = (exp.floor() as usize).saturating_add(1);
    idx.min(BUCKETS - 1)
}

/// Lower bound of a log bucket (index >= 1).
fn bucket_lower(index: usize) -> f64 {
    HIST_MIN * 10f64.powf((index - 1) as f64 / PER_DECADE as f64)
}

impl Histogram {
    /// New empty histogram (standalone; registry users go through
    /// [`Registry::histogram`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn observe(&self, value: f64) {
        // relaxed: independent histogram cells; a snapshot may tear across buckets, which only perturbs one report
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let add = if value.is_finite() { value } else { 0.0 };
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + add).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Record one observation carrying a trace id. High-water policy: the
    /// exemplar slot keeps the largest tagged value, so the slowest traced
    /// request stays linked to the histogram between scrapes. Empty trace
    /// ids only feed the buckets.
    pub fn observe_with_exemplar(&self, value: f64, trace_id: &str) {
        self.observe(value);
        if trace_id.is_empty() || !value.is_finite() {
            return;
        }
        let mut slot = self.exemplar.lock().unwrap_or_else(PoisonError::into_inner);
        let replace = match slot.as_ref() {
            Some(e) => value >= e.value,
            None => true,
        };
        if replace {
            *slot = Some(Exemplar {
                value,
                trace_id: trace_id.to_string(),
            });
        }
    }

    /// The current high-water exemplar, if any tagged observation arrived.
    pub fn exemplar(&self) -> Option<Exemplar> {
        self.exemplar
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        // relaxed: monotonic counter cell; no other memory is published through it
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of (finite) observations.
    pub fn sum(&self) -> f64 {
        // relaxed: sum cell read; tearing against count only blurs one snapshot
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`). Returns 0 when empty.
    /// The estimate interpolates the rank position inside the containing
    /// log bucket, so it is within ~12% (one bucket width) of the exact
    /// sorted-order quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            // relaxed: bucket reads are independent; quantile estimation tolerates a torn snapshot
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        // Continuous rank in [0, total-1], same convention as an exact
        // nearest-rank pick over the sorted observations.
        let rank = q.clamp(0.0, 1.0) * (total - 1) as f64;
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let upper = cum + c;
            if rank < upper as f64 || upper == total {
                // Center the in-bucket position: a lone observation reads
                // the bucket midpoint, halving the worst-case error.
                let frac = ((rank - cum as f64 + 0.5) / c as f64).clamp(0.0, 1.0);
                let (lo, hi) = if i == 0 {
                    (0.0, HIST_MIN)
                } else if i == BUCKETS - 1 {
                    let lo = bucket_lower(i);
                    (lo, lo)
                } else {
                    (bucket_lower(i), bucket_lower(i + 1))
                };
                return lo + (hi - lo) * frac;
            }
            cum = upper;
        }
        // Unreachable (the loop returns on the last non-empty bucket).
        0.0
    }

    /// Point-in-time snapshot with the standard quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            exemplar: self.exemplar(),
        }
    }
}

/// Frozen view of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
    /// High-water trace-tagged observation, when one exists.
    pub exemplar: Option<Exemplar>,
}

/// Frozen view of a whole [`Registry`], name-sorted.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// Counter name/value pairs.
    pub counters: Vec<(String, u64)>,
    /// Histogram name/snapshot pairs.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Render an `f64` as a JSON-safe number (non-finite becomes 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl MetricsSnapshot {
    /// True when no metric of any kind has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Render the snapshot as one JSON object (used by `BENCH_*.json`
    /// artifacts). Metric names are already `[a-z0-9_]`, but values go
    /// through escaping-free numeric formatting only.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{v}"));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.count,
                json_f64(h.sum),
                json_f64(h.p50),
                json_f64(h.p95),
                json_f64(h.p99)
            ));
        }
        out.push_str("}}");
        out
    }
}

/// A set of named metrics. The process-wide instance is [`registry()`];
/// tests can build private instances.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn lock_map<T>(
    m: &Mutex<BTreeMap<String, Arc<T>>>,
) -> std::sync::MutexGuard<'_, BTreeMap<String, Arc<T>>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Registry {
    /// New empty registry.
    pub const fn new() -> Self {
        Self {
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = lock_map(&self.counters);
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::default());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = lock_map(&self.histograms);
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::default());
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// Snapshot every metric (name-sorted; `BTreeMap` keeps it stable).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock_map(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: lock_map(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Drop every registered metric (test isolation helper).
    pub fn clear(&self) {
        lock_map(&self.counters).clear();
        lock_map(&self.histograms).clear();
    }
}

static REGISTRY: Registry = Registry::new();

/// The process-wide metrics registry the macros record into.
pub fn registry() -> &'static Registry {
    &REGISTRY
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact quantile over a sorted copy, same rank convention as the
    /// histogram estimator.
    fn exact_quantile(values: &[f64], q: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = (q * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank]
    }

    fn assert_close(est: f64, exact: f64, what: &str) {
        let tol = (exact.abs() * 0.13).max(1e-9);
        assert!(
            (est - exact).abs() <= tol,
            "{what}: estimate {est} vs exact {exact} (tol {tol})"
        );
    }

    #[test]
    fn quantiles_match_exact_sort_on_uniform_data() {
        let h = Histogram::new();
        let values: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-3).collect();
        for v in &values {
            h.observe(*v);
        }
        for q in [0.5, 0.95, 0.99] {
            assert_close(h.quantile(q), exact_quantile(&values, q), "uniform");
        }
        assert_eq!(h.count(), 1000);
        assert!((h.sum() - values.iter().sum::<f64>()).abs() < 1e-6);
    }

    #[test]
    fn quantiles_match_exact_sort_on_bimodal_data() {
        // Adversarial for bucketed estimators: two tight modes four orders
        // of magnitude apart, 90/10 split — p50 sits in the low mode, p95
        // and p99 in the high mode.
        let h = Histogram::new();
        let mut values = Vec::new();
        for i in 0..900 {
            values.push(1e-4 * (1.0 + (i % 7) as f64 * 0.01));
        }
        for i in 0..100 {
            values.push(2.0 * (1.0 + (i % 5) as f64 * 0.01));
        }
        for v in &values {
            h.observe(*v);
        }
        for q in [0.5, 0.95, 0.99] {
            assert_close(h.quantile(q), exact_quantile(&values, q), "bimodal");
        }
    }

    #[test]
    fn single_sample_quantiles() {
        let h = Histogram::new();
        h.observe(0.125);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_close(h.quantile(q), 0.125, "single-sample");
        }
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
        let s = h.snapshot();
        assert_eq!(
            (s.count, s.sum, s.p50, s.p95, s.p99),
            (0, 0.0, 0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn underflow_overflow_and_nonfinite_observations_are_contained() {
        let h = Histogram::new();
        h.observe(0.0);
        h.observe(-3.0);
        h.observe(1e12); // beyond the last bucket
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 5);
        assert!(h.sum().is_finite());
        // Quantiles stay finite and ordered.
        let (p50, p99) = (h.quantile(0.5), h.quantile(0.99));
        assert!(p50.is_finite() && p99.is_finite() && p50 <= p99);
    }

    #[test]
    fn exemplar_keeps_high_water_tagged_observation() {
        let h = Histogram::new();
        assert_eq!(h.exemplar(), None);
        h.observe(10.0); // untagged observations never set an exemplar
        assert_eq!(h.exemplar(), None);
        h.observe_with_exemplar(0.2, "trace-a");
        h.observe_with_exemplar(0.1, "trace-b"); // lower: kept out
        h.observe_with_exemplar(0.5, ""); // untagged: buckets only
        h.observe_with_exemplar(f64::INFINITY, "trace-inf"); // non-finite: buckets only
        let e = h.exemplar().expect("exemplar set");
        assert_eq!((e.value, e.trace_id.as_str()), (0.2, "trace-a"));
        h.observe_with_exemplar(0.9, "trace-c"); // higher: replaces
        let e = h.exemplar().expect("exemplar set");
        assert_eq!((e.value, e.trace_id.as_str()), (0.9, "trace-c"));
        assert_eq!(h.count(), 6);
        assert_eq!(h.snapshot().exemplar, Some(e));
    }

    #[test]
    fn registry_reuses_handles_and_snapshots_sorted() {
        let reg = Registry::new();
        reg.counter("b_total").add(2);
        reg.counter("a_total").add(1);
        let again = reg.counter("b_total");
        again.add(3);
        reg.histogram("lat_seconds").observe(0.01);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a_total".to_string(), 1), ("b_total".to_string(), 5)]
        );
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count, 1);
        assert!(!snap.is_empty());
        reg.clear();
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn snapshot_json_is_wellformed() {
        let reg = Registry::new();
        reg.counter("n_total").add(7);
        reg.histogram("h_seconds").observe(0.5);
        let json = reg.snapshot().to_json();
        let value: serde_json::Value = serde_json::from_str(&json).expect("snapshot json parses");
        let serde_json::Value::Object(fields) = value else {
            panic!("snapshot json is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["counters", "histograms"]);
    }
}
