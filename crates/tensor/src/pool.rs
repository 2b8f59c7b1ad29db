//! Persistent compute pool: spawn worker threads once, feed them fixed
//! deterministic chunks of kernel work forever.
//!
//! The seed implementation spawned fresh OS threads inside every large
//! `matmul` (`std::thread::scope` per call) and ran everything else on one
//! core. This module replaces that with a lazily-initialized pool of
//! `threads() - 1` named workers parked on a shared injector queue; the
//! calling thread always participates, so the pool degrades gracefully to
//! plain serial execution when `threads() == 1` (or when a worker fails to
//! spawn) and no kernel ever blocks waiting for a thread to be created.
//!
//! **Determinism contract.** Work is split into chunks whose boundaries are
//! a function of the problem size only — never of the thread count or of
//! which thread claims which chunk — and every output element is computed
//! by exactly the same arithmetic (same order, same operations) as when
//! the kernel runs inline over the whole output. Results are therefore
//! bit-identical across `D2_THREADS` ∈ {1, 2, 8, ...} and with
//! [`with_serial`]; the serve crate's bit-identical batching guarantee
//! survives pooling unchanged.
//!
//! Configuration (each read once per process):
//! * `D2_THREADS` — pool parallelism including the caller; defaults to
//!   `std::thread::available_parallelism()` (capped at 16), `0` or unset
//!   means auto.
//! * `D2_PAR_THRESHOLD` — minimum estimated scalar-op count (`m·n·k` for
//!   matmul, element count for elementwise/reductions) before a kernel is
//!   dispatched to the pool; defaults to [`DEFAULT_PAR_THRESHOLD`].

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

use crate::buffers::{self, Buffer};

/// Default `D2_PAR_THRESHOLD`: scalar-op count of a 64×64×64 matmul.
pub const DEFAULT_PAR_THRESHOLD: usize = 64 * 64 * 64;

/// A chunk-fill kernel: writes output elements `start..start + out.len()`
/// into `out`, which arrives zero-filled.
type FillFn = dyn Fn(usize, &mut [f32]) + Send + Sync;

struct TaskState {
    /// Chunks not yet completed (by workers or the caller).
    remaining: usize,
    /// Worker-computed chunk outputs, indexed by chunk; the caller's own
    /// chunks are written straight into the final buffer and stay `None`.
    results: Vec<Option<Vec<f32>>>,
}

struct Task {
    /// Next chunk index to claim; claims beyond `n_chunks` are no-ops.
    next: AtomicUsize,
    n_chunks: usize,
    chunk: usize,
    len: usize,
    fill: Arc<FillFn>,
    state: Mutex<TaskState>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Task {
    fn chunk_bounds(&self, c: usize) -> (usize, usize) {
        let s = c * self.chunk;
        (s, (s + self.chunk).min(self.len))
    }

    /// Run chunk `c` on a worker thread into pooled scratch storage.
    fn run_worker_chunk(&self, c: usize) {
        let (s, e) = self.chunk_bounds(c);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut buf = buffers::acquire_zeroed(e - s);
            (self.fill)(s, &mut buf);
            buf
        }));
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        match result {
            Ok(buf) => st.results[c] = Some(buf),
            Err(_) => self.panicked.store(true, Ordering::Release),
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            self.done.notify_all();
        }
    }
}

struct WorkerPool {
    queue: Mutex<VecDeque<Arc<Task>>>,
    available: Condvar,
}

impl WorkerPool {
    fn submit(&self, task: Arc<Task>) {
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        q.push_back(task);
        drop(q);
        self.available.notify_all();
    }

    fn worker_loop(&self) {
        loop {
            let task = {
                let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    // relaxed: chunk cursor reads/claims only need fetch_add's atomicity; completion is published via the state mutex
                    while q
                        .front()
                        .is_some_and(|t| t.next.load(Ordering::Relaxed) >= t.n_chunks)
                    {
                        q.pop_front();
                    }
                    if let Some(t) = q.front() {
                        break t.clone();
                    }
                    q = self
                        .available
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let c = task.next.fetch_add(1, Ordering::Relaxed);
            if c < task.n_chunks {
                task.run_worker_chunk(c);
            }
        }
    }
}

static TASKS: AtomicU64 = AtomicU64::new(0);
static POOLED_CHUNKS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static SERIAL: Cell<bool> = const { Cell::new(false) };
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
}

/// Pool parallelism, caller included (always ≥ 1). Read once from
/// `D2_THREADS`, defaulting to `available_parallelism()` capped at 16.
pub fn threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| match env_usize("D2_THREADS") {
        Some(n) if n >= 1 => n.min(256),
        _ => std::thread::available_parallelism().map_or(1, |n| n.get().min(16)),
    })
}

/// Scalar-op count above which kernels dispatch to the pool. Read once
/// from `D2_PAR_THRESHOLD`.
pub fn par_threshold() -> usize {
    static T: OnceLock<usize> = OnceLock::new();
    *T.get_or_init(|| env_usize("D2_PAR_THRESHOLD").unwrap_or(DEFAULT_PAR_THRESHOLD))
}

/// Run `f` with pooled dispatch disabled on this thread: every kernel runs
/// inline on the caller. Used by benchmarks and determinism tests to obtain
/// the serial reference; results are bit-identical either way.
pub fn with_serial<R>(f: impl FnOnce() -> R) -> R {
    let prev = SERIAL.with(|s| s.replace(true));
    let out = f();
    SERIAL.with(|s| s.set(prev));
    out
}

fn serial_mode() -> bool {
    SERIAL.with(Cell::get)
}

/// Whether a kernel performing `work` scalar ops should go to the pool.
pub(crate) fn should_pool(work: usize) -> bool {
    threads() > 1 && work >= par_threshold() && !serial_mode()
}

/// The worker set, spawned on first pooled dispatch. `None` when the
/// configured parallelism is 1 (no workers needed — the caller does
/// everything inline).
fn workers() -> Option<&'static WorkerPool> {
    static POOL: OnceLock<Option<&'static WorkerPool>> = OnceLock::new();
    *POOL.get_or_init(|| {
        let n = threads();
        if n <= 1 {
            return None;
        }
        let pool: &'static WorkerPool = Box::leak(Box::new(WorkerPool {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        }));
        for i in 0..n - 1 {
            // A failed spawn degrades capacity, never correctness: the
            // caller drains whatever chunks no worker claims.
            let _ = std::thread::Builder::new()
                .name(format!("d2-tensor-pool-{i}"))
                .spawn(move || pool.worker_loop());
        }
        Some(pool)
    })
}

/// Fill a `len`-element output buffer in chunks of `chunk` elements
/// (boundaries depend only on `len` and `chunk`), farming chunks out to the
/// pool. This is the one place that decides between pooled and inline:
/// when [`should_pool`] says `work` scalar ops are too few, or the output
/// is a single chunk, `fill(0, whole output)` runs once on the calling
/// thread. Otherwise the caller participates — it writes its chunks
/// directly into the output, while worker chunks land in pooled scratch
/// buffers and are stitched in afterwards. Every `fill` must therefore
/// compute each element the same way whatever range it is handed.
pub(crate) fn run_chunked(len: usize, chunk: usize, work: usize, fill: Arc<FillFn>) -> Buffer {
    let mut out = Buffer::zeroed(len);
    if len == 0 {
        return out;
    }
    let chunk = chunk.max(1);
    let n_chunks = len.div_ceil(chunk);
    let pool = if should_pool(work) && n_chunks > 1 {
        workers()
    } else {
        None
    };
    let Some(pool) = pool else {
        fill(0, &mut out);
        return out;
    };

    // relaxed: monotonic dispatch counters; no other memory is published through them
    TASKS.fetch_add(1, Ordering::Relaxed);
    POOLED_CHUNKS.fetch_add(n_chunks as u64, Ordering::Relaxed);
    crate::profile::note_pooled_dispatch();

    let task = Arc::new(Task {
        next: AtomicUsize::new(0),
        n_chunks,
        chunk,
        len,
        fill: fill.clone(),
        state: Mutex::new(TaskState {
            remaining: n_chunks,
            results: (0..n_chunks).map(|_| None).collect(),
        }),
        done: Condvar::new(),
        panicked: AtomicBool::new(false),
    });
    pool.submit(task.clone());

    // Caller participates: claim chunks and write them straight into `out`.
    loop {
        // relaxed: chunk claims only need fetch_add's atomicity; completion is published via the state mutex
        let c = task.next.fetch_add(1, Ordering::Relaxed);
        if c >= n_chunks {
            break;
        }
        let (s, e) = task.chunk_bounds(c);
        fill(s, &mut out[s..e]);
        let mut st = task.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.remaining -= 1;
        // No notify: the caller is the only waiter and it is not waiting yet.
    }

    // Wait for in-flight worker chunks, then stitch their outputs in.
    let mut st = task.state.lock().unwrap_or_else(PoisonError::into_inner);
    while st.remaining > 0 {
        st = task.done.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
    if task.panicked.load(Ordering::Acquire) {
        crate::error::violation("pooled kernel chunk panicked on a worker thread");
    }
    for c in 0..n_chunks {
        if let Some(buf) = st.results[c].take() {
            let (s, e) = task.chunk_bounds(c);
            out[s..e].copy_from_slice(&buf[..e - s]);
            buffers::release(buf);
        }
    }
    out
}

/// Point-in-time pool statistics, for benches and operational checks. The
/// counters live in this module and in the buffer pool only; exporters read
/// them through [`stats`] and name them with [`PoolStats::series`].
#[derive(Clone, Copy, Debug)]
pub struct PoolStats {
    /// Configured parallelism (caller included).
    pub threads: usize,
    /// Effective `D2_PAR_THRESHOLD`.
    pub par_threshold: usize,
    /// Kernels dispatched to the pool since process start.
    pub pooled_tasks: u64,
    /// Chunks those kernels were split into.
    pub pooled_chunks: u64,
    /// Buffer-pool acquires served from a free list.
    pub bufpool_hits: u64,
    /// Buffer-pool acquires that fell through to the allocator.
    pub bufpool_misses: u64,
    /// Buffers parked back on a free list on drop.
    pub bufpool_recycled: u64,
    /// GEMM micro-kernel this process selected (`"scalar"`, `"avx2"`, ...);
    /// see [`crate::simd::kernel_name`].
    pub simd_kernel: &'static str,
}

impl PoolStats {
    /// The six exported series as `(name, Prometheus type, value)`: the
    /// names `/metrics` and the bench artifacts write these fields under.
    pub fn series(&self) -> [(&'static str, &'static str, u64); 6] {
        [
            ("d2stgnn_tensor_pool_threads", "gauge", self.threads as u64),
            (
                "d2stgnn_tensor_pool_tasks_total",
                "counter",
                self.pooled_tasks,
            ),
            (
                "d2stgnn_tensor_pool_chunks_total",
                "counter",
                self.pooled_chunks,
            ),
            (
                "d2stgnn_tensor_bufpool_hits_total",
                "counter",
                self.bufpool_hits,
            ),
            (
                "d2stgnn_tensor_bufpool_misses_total",
                "counter",
                self.bufpool_misses,
            ),
            (
                "d2stgnn_tensor_bufpool_recycled_total",
                "counter",
                self.bufpool_recycled,
            ),
        ]
    }
}

/// Snapshot the pool and buffer-pool counters.
pub fn stats() -> PoolStats {
    let (hits, misses, recycled) = buffers::counters();
    PoolStats {
        threads: threads(),
        par_threshold: par_threshold(),
        simd_kernel: crate::simd::kernel_name(),
        // relaxed: point-in-time counter reads; tearing across them only blurs one report
        pooled_tasks: TASKS.load(Ordering::Relaxed),
        pooled_chunks: POOLED_CHUNKS.load(Ordering::Relaxed),
        bufpool_hits: hits,
        bufpool_misses: misses,
        bufpool_recycled: recycled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota_fill() -> Arc<FillFn> {
        Arc::new(|start, out: &mut [f32]| {
            for (i, slot) in out.iter_mut().enumerate() {
                let idx = start + i;
                *slot = (idx % 97) as f32 * 0.5 - 3.0;
            }
        })
    }

    #[test]
    fn run_chunked_matches_serial_fill() {
        let len = 10_007; // deliberately not a multiple of the chunk size
        let pooled = run_chunked(len, 256, usize::MAX, iota_fill());
        let serial = with_serial(|| run_chunked(len, 256, usize::MAX, iota_fill()));
        assert_eq!(&pooled[..], &serial[..]);
        assert_eq!(pooled.len(), len);
    }

    #[test]
    fn single_chunk_runs_inline() {
        let t0 = TASKS.load(Ordering::Relaxed);
        let out = run_chunked(64, 1024, usize::MAX, iota_fill());
        assert_eq!(out.len(), 64);
        assert_eq!(
            TASKS.load(Ordering::Relaxed),
            t0,
            "one-chunk work must not be dispatched to the pool"
        );
    }

    #[test]
    fn with_serial_restores_previous_mode() {
        assert!(!serial_mode());
        with_serial(|| {
            assert!(serial_mode());
            with_serial(|| assert!(serial_mode()));
            assert!(serial_mode());
        });
        assert!(!serial_mode());
    }

    #[test]
    fn thresholds_are_positive() {
        assert!(threads() >= 1);
        assert!(par_threshold() >= 1);
        let st = stats();
        assert_eq!(st.threads, threads());
    }
}
