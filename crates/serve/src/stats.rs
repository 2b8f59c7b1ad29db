//! Server-side counters and latency percentiles.
//!
//! Each counter is a [`d2stgnn_obsv::Counter`] cell owned by one server and
//! stored nowhere else, as is the in-flight count; front ends export
//! [`ServerStats`] per server (httpd's `/metrics` labels each shard's
//! series). The process-wide obsv registry gets only the latency,
//! queue-wait and batch-size histograms. The exact-window percentiles stay
//! authoritative for `ServerStats`; the obsv histogram trades a bounded
//! (~12%) quantile error for a lifetime view.

use crate::lockorder::OrderedMutex;
use d2stgnn_obsv::Counter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How many recent request latencies the percentile window keeps.
const LATENCY_WINDOW: usize = 4096;

/// Point-in-time snapshot of server counters.
#[derive(Clone, Debug, PartialEq)]
pub struct ServerStats {
    /// Requests accepted into the queue.
    pub requests: u64,
    /// Requests answered by a model forward pass.
    pub completed: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Requests shed because the queue was full.
    pub sheds: u64,
    /// Requests answered by the registered fallback.
    pub fallback_served: u64,
    /// Requests whose deadline passed before a worker reached them.
    pub deadline_misses: u64,
    /// Requests whose forward pass panicked or gave a non-finite forecast;
    /// each was answered by the fallback or with
    /// [`crate::ServeError::Internal`].
    pub forward_failures: u64,
    /// Requests waiting in the bounded queue at snapshot time. Filled by
    /// [`crate::Server::stats`] from the live queue-depth mirror; zero when a
    /// [`StatsRecorder`] is snapshotted without a server attached.
    pub queue_depth: u64,
    /// Requests inside a model forward pass at snapshot time.
    pub in_flight: u64,
    /// Median end-to-end latency over the recent window (zero when empty).
    pub p50_latency: Duration,
    /// 95th-percentile end-to-end latency over the recent window.
    pub p95_latency: Duration,
    /// 99th-percentile end-to-end latency over the recent window.
    pub p99_latency: Duration,
    /// Mean requests per executed micro-batch (zero before the first batch).
    pub mean_batch_size: f64,
}

/// Lock-light recorder the server and its workers write into.
pub struct StatsRecorder {
    pub(crate) requests: Counter,
    completed: Counter,
    batches: Counter,
    batched_requests: Counter,
    pub(crate) sheds: Counter,
    pub(crate) fallback_served: Counter,
    pub(crate) deadline_misses: Counter,
    pub(crate) forward_failures: Counter,
    /// Requests inside a forward pass right now (added before, subtracted
    /// after, also when the forward panics).
    in_flight: AtomicU64,
    /// Ring buffer of recent latencies in nanoseconds.
    latencies: OrderedMutex<Vec<u64>>,
    cursor: AtomicU64,
}

impl Default for StatsRecorder {
    fn default() -> Self {
        Self {
            requests: Counter::default(),
            completed: Counter::default(),
            batches: Counter::default(),
            batched_requests: Counter::default(),
            sheds: Counter::default(),
            fallback_served: Counter::default(),
            deadline_misses: Counter::default(),
            forward_failures: Counter::default(),
            in_flight: AtomicU64::new(0),
            latencies: OrderedMutex::new("serve.stats.latencies", Vec::new()),
            cursor: AtomicU64::new(0),
        }
    }
}

impl StatsRecorder {
    /// Run `forward` over a batch of `size` requests, counting them in
    /// flight for its duration. `forward` must not unwind: the caller wraps
    /// the model call in `catch_unwind`, so the count always comes back.
    pub(crate) fn count_in_flight<T>(&self, size: usize, forward: impl FnOnce() -> T) -> T {
        // relaxed: a point-in-time gauge; no other memory is published through it
        self.in_flight.fetch_add(size as u64, Ordering::Relaxed);
        let out = forward();
        self.in_flight.fetch_sub(size as u64, Ordering::Relaxed);
        out
    }

    pub(crate) fn batch_done(&self, size: usize) {
        self.batches.add(1);
        self.batched_requests.add(size as u64);
        d2stgnn_obsv::observe!("d2stgnn_serve_batch_size", size as f64);
    }

    pub(crate) fn request_done(&self, latency: Duration, trace_id: Option<&str>) {
        self.completed.add(1);
        // Exemplar: the slowest traced request stays attached to the latency
        // histogram (an absent/empty id degrades to a plain observation).
        d2stgnn_obsv::observe_exemplar!(
            "d2stgnn_serve_request_seconds",
            latency.as_secs_f64(),
            trace_id.unwrap_or("")
        );
        let nanos = latency.as_nanos().min(u64::MAX as u128) as u64;
        // relaxed: the cursor only picks a slot; the window itself is mutex-guarded
        let slot = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % LATENCY_WINDOW;
        let mut window = self.latencies.lock();
        if slot < window.len() {
            window[slot] = nanos;
        } else {
            window.push(nanos);
        }
    }

    /// Snapshot the counters and recompute percentiles.
    pub fn snapshot(&self) -> ServerStats {
        let (p50, p95, p99) = {
            let window = self.latencies.lock();
            percentiles(&window)
        };
        let batches = self.batches.get();
        let batched = self.batched_requests.get();
        ServerStats {
            requests: self.requests.get(),
            completed: self.completed.get(),
            batches,
            sheds: self.sheds.get(),
            fallback_served: self.fallback_served.get(),
            deadline_misses: self.deadline_misses.get(),
            forward_failures: self.forward_failures.get(),
            queue_depth: 0,
            // relaxed: a point-in-time gauge read
            in_flight: self.in_flight.load(Ordering::Relaxed),
            p50_latency: p50,
            p95_latency: p95,
            p99_latency: p99,
            mean_batch_size: if batches > 0 {
                batched as f64 / batches as f64
            } else {
                0.0
            },
        }
    }
}

fn percentiles(nanos: &[u64]) -> (Duration, Duration, Duration) {
    if nanos.is_empty() {
        return (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    }
    let mut sorted = nanos.to_vec();
    sorted.sort_unstable();
    let pick = |q: f64| -> Duration {
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        Duration::from_nanos(sorted[idx])
    };
    (pick(0.50), pick(0.95), pick(0.99))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_is_zeroed() {
        let s = StatsRecorder::default().snapshot();
        assert_eq!(s.requests, 0);
        assert_eq!(s.p50_latency, Duration::ZERO);
        assert_eq!(s.mean_batch_size, 0.0);
    }

    #[test]
    fn percentiles_over_known_distribution() {
        let rec = StatsRecorder::default();
        for ms in 1..=100u64 {
            rec.request_done(Duration::from_millis(ms), None);
        }
        let s = rec.snapshot();
        assert_eq!(s.completed, 100);
        // Nearest-rank at (len-1) * 0.5 = 49.5 rounds up to index 50.
        assert_eq!(s.p50_latency, Duration::from_millis(51));
        assert_eq!(s.p95_latency, Duration::from_millis(95));
        // (len-1) * 0.99 = 98.01 rounds down to index 98.
        assert_eq!(s.p99_latency, Duration::from_millis(99));
    }

    #[test]
    fn mean_batch_size_tracks_batches() {
        let rec = StatsRecorder::default();
        rec.batch_done(8);
        rec.batch_done(4);
        assert_eq!(rec.snapshot().mean_batch_size, 6.0);
    }
}
