//! The inference server: a bounded request queue drained by a pool of
//! micro-batching workers.
//!
//! Each worker pops a request, waits up to [`ServeConfig::max_wait`] for more
//! requests to the same model (up to [`ServeConfig::max_batch`]), runs one
//! `no_grad` forward over the stacked batch, and fans results back over
//! per-request channels. Because evaluation-mode forwards are deterministic
//! and every operator treats batch rows independently, a request's forecast
//! is bit-identical whether it was served alone or inside a micro-batch.
//!
//! Overload behavior: when the queue is full, a request is shed — answered
//! immediately by the registered [`HistoricalAverage`] fallback if present,
//! or rejected with [`ServeError::Overloaded`]. Requests whose deadline
//! passes while queued degrade to the fallback the same way.
//!
//! Failure containment: a forward that panics is caught in the worker, which
//! drops its replica (rebuilt on the next batch) and keeps serving. Every
//! request of that batch, and any request whose forecast row holds a
//! non-finite value, is answered by the fallback or with
//! [`ServeError::Internal`], and counted in `forward_failures`.
//!
//! Concurrency hygiene: every mutex in the serving path is an
//! [`crate::lockorder::OrderedMutex`], so debug and `sanitize` builds verify
//! the global lock-acquisition order on every `lock()`. Response channels are
//! rendezvous-bounded (`sync_channel(1)`; exactly one message ever crosses),
//! and shutdown joins workers under a grace period instead of blocking
//! forever on a wedged replica.

use crate::error::ServeError;
use crate::lockorder::{self, OrderedMutex};
use crate::registry::{ModelRegistry, ModelVersion};
use crate::stats::{ServerStats, StatsRecorder};
use d2stgnn_baselines::HistoricalAverage;
use d2stgnn_core::TrafficModel;
use d2stgnn_data::Batch;
use d2stgnn_tensor::{no_grad, Array};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Grace period [`Server::shutdown`] (and `Drop`) gives workers to exit
/// before declaring them hung and detaching.
pub const DEFAULT_SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

/// Worker-pool and batching knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads (each holds its own model replicas).
    pub workers: usize,
    /// Maximum requests fused into one forward pass.
    pub max_batch: usize,
    /// How long a worker holds an open batch waiting for more requests.
    pub max_wait: Duration,
    /// Bounded queue capacity; beyond this, requests are shed.
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            queue_capacity: 64,
        }
    }
}

/// One inference request: a raw-scale input window plus its clock features.
#[derive(Clone, Debug)]
pub struct InferRequest {
    /// Registered model name to serve with.
    pub model: String,
    /// Raw-scale input window `[T_h, N, 1]` (the server normalizes).
    pub window: Array,
    /// Time-of-day slot per input step (`T_h` entries).
    pub tod: Vec<usize>,
    /// Day-of-week per input step (`T_h` entries).
    pub dow: Vec<usize>,
    /// Absolute deadline; once passed the request degrades to the fallback.
    pub deadline: Option<Instant>,
    /// Request-scoped trace context, carried *explicitly* through the queue
    /// (a request changes threads between enqueue and the batch worker, so
    /// thread-local propagation cannot work). Embedded callers without a
    /// front door pass [`d2stgnn_obsv::TraceHandle::inert`].
    pub trace: d2stgnn_obsv::TraceHandle,
}

/// A served forecast.
#[derive(Clone, Debug)]
pub struct Forecast {
    /// Name of the model that actually answered (`"HA"` for the fallback).
    pub model: String,
    /// Registry generation that served the request (0 for the fallback).
    pub generation: u64,
    /// Raw-scale forecast `[T_f, N]`.
    pub values: Array,
    /// Whether the fallback answered instead of the requested model.
    pub fallback: bool,
}

/// Handle to an in-flight request.
#[derive(Debug)]
pub struct ForecastHandle {
    rx: Receiver<Result<Forecast, ServeError>>,
}

impl ForecastHandle {
    /// Block until the forecast (or error) arrives.
    pub fn wait(self) -> Result<Forecast, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::WorkerLost))
    }

    /// Block up to `timeout`; `None` if nothing arrived in time.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Forecast, ServeError>> {
        self.rx.recv_timeout(timeout).ok()
    }
}

struct Pending {
    request: InferRequest,
    enqueued: Instant,
    /// Bounded one-shot response slot: exactly one message is ever sent, so
    /// the capacity-1 buffer means `send` never blocks a worker.
    tx: SyncSender<Result<Forecast, ServeError>>,
}

struct Shared {
    config: ServeConfig,
    registry: Arc<ModelRegistry>,
    queue: OrderedMutex<VecDeque<Pending>>,
    /// Mirror of `queue.len()`, updated at every push/pop under the queue
    /// lock, so admission control can read the depth without contending on
    /// the queue mutex.
    depth: AtomicUsize,
    notify: Condvar,
    shutdown: AtomicBool,
    /// Number of worker threads that have left `worker_loop` (normally or by
    /// panic); shutdown waits on this instead of an unbounded `join`.
    exited: AtomicUsize,
    fallback: OrderedMutex<Option<Arc<HistoricalAverage>>>,
    stats: StatsRecorder,
}

/// The serving engine. Dropping it (or calling [`Server::shutdown`]) drains
/// the queue and joins the workers, up to a grace period.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start the worker pool against a registry. Fails (cleaning up any
    /// already-spawned workers) if the OS refuses a thread.
    pub fn start(registry: Arc<ModelRegistry>, config: ServeConfig) -> Result<Self, ServeError> {
        assert!(config.workers >= 1, "need at least one worker");
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(
            config.queue_capacity >= 1,
            "queue_capacity must be at least 1"
        );
        let shared = Arc::new(Shared {
            config: config.clone(),
            registry,
            queue: OrderedMutex::new("serve.queue", VecDeque::new()),
            depth: AtomicUsize::new(0),
            notify: Condvar::new(),
            shutdown: AtomicBool::new(false),
            exited: AtomicUsize::new(0),
            fallback: OrderedMutex::new("serve.fallback", None),
            stats: StatsRecorder::default(),
        });
        let mut server = Self {
            shared: Arc::clone(&shared),
            workers: Vec::with_capacity(config.workers),
        };
        for i in 0..config.workers {
            let shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("d2stgnn-serve-{i}"))
                .spawn(move || worker_loop(&shared))
            {
                Ok(handle) => server.workers.push(handle),
                Err(e) => {
                    // Tear down the partial pool before reporting; the
                    // already-running workers exit promptly on the flag.
                    let _ = server.stop_workers(DEFAULT_SHUTDOWN_GRACE);
                    return Err(ServeError::Internal(format!("spawn worker {i}: {e}")));
                }
            }
        }
        Ok(server)
    }

    /// Register the cheap classical fallback used for shed and late
    /// requests.
    ///
    /// # Panics
    /// If the model is unfitted.
    pub fn set_fallback(&self, fallback: HistoricalAverage) {
        assert!(
            fallback.is_fitted(),
            "fallback must be fitted before registration"
        );
        *self.shared.fallback.lock() = Some(Arc::new(fallback));
    }

    /// Validate and enqueue a request. Returns immediately with a handle;
    /// on a full queue the request is shed (fallback answer if registered,
    /// [`ServeError::Overloaded`] otherwise).
    pub fn submit(&self, request: InferRequest) -> Result<ForecastHandle, ServeError> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::ShuttingDown);
        }
        let version = self
            .shared
            .registry
            .get(&request.model)
            .ok_or_else(|| ServeError::UnknownModel(request.model.clone()))?;
        validate(&request, &version)?;

        let (tx, rx) = sync_channel(1);
        {
            let mut queue = self.shared.queue.lock();
            if queue.len() >= self.shared.config.queue_capacity {
                drop(queue);
                request.trace.mark_shed();
                self.shared.stats.sheds.add(1);
                let fallback = self.shared.fallback.lock().clone();
                return match fallback {
                    Some(ha) => {
                        self.shared.stats.fallback_served.add(1);
                        let forecast = fallback_forecast(&ha, &version, &request);
                        tx.send(Ok(forecast)).ok();
                        Ok(ForecastHandle { rx })
                    }
                    None => Err(ServeError::Overloaded),
                };
            }
            queue.push_back(Pending {
                request,
                enqueued: Instant::now(),
                tx,
            });
            self.shared.stats.requests.add(1);
            self.shared.depth.store(queue.len(), Ordering::Release);
        }
        self.shared.notify.notify_all();
        Ok(ForecastHandle { rx })
    }

    /// Convenience: submit and block for the answer.
    pub fn infer(&self, request: InferRequest) -> Result<Forecast, ServeError> {
        self.submit(request)?.wait()
    }

    /// Snapshot the server counters.
    pub fn stats(&self) -> ServerStats {
        let mut stats = self.shared.stats.snapshot();
        stats.queue_depth = self.queue_depth() as u64;
        stats
    }

    /// Number of requests currently waiting in the bounded queue. Lock-free:
    /// reads a mirror that push/pop sites maintain under the queue lock, so
    /// front-end admission control can poll it per request without touching
    /// the queue mutex.
    pub fn queue_depth(&self) -> usize {
        self.shared.depth.load(Ordering::Acquire)
    }

    /// True when the queue is at capacity: a request submitted now would be
    /// shed (fallback answer or [`ServeError::Overloaded`]). Front ends use
    /// this to reject early with a retryable status instead of submitting.
    pub fn is_overloaded(&self) -> bool {
        self.queue_depth() >= self.shared.config.queue_capacity
    }

    /// The configured bounded-queue capacity, for watermark-based admission.
    pub fn queue_capacity(&self) -> usize {
        self.shared.config.queue_capacity
    }

    /// The registry this server reads from.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// Stop accepting requests, drain the queue, and join the workers with
    /// the [`DEFAULT_SHUTDOWN_GRACE`] grace period.
    pub fn shutdown(self) -> Result<(), ServeError> {
        self.shutdown_timeout(DEFAULT_SHUTDOWN_GRACE)
    }

    /// Stop accepting requests, drain the queue, and join the workers.
    ///
    /// If any worker fails to exit within `grace` (for example a replica
    /// wedged inside a forward pass), its thread is detached and
    /// [`ServeError::WorkerHung`] is returned — the caller regains control
    /// instead of blocking forever.
    pub fn shutdown_timeout(mut self, grace: Duration) -> Result<(), ServeError> {
        self.stop_workers(grace)
    }

    fn stop_workers(&mut self, grace: Duration) -> Result<(), ServeError> {
        if self.workers.is_empty() {
            return Ok(());
        }
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.notify.notify_all();
        let total = self.workers.len();
        let deadline = Instant::now() + grace;
        {
            let mut queue = self.shared.queue.lock();
            while self.shared.exited.load(Ordering::Acquire) < total {
                let now = Instant::now();
                if now >= deadline {
                    drop(queue);
                    // Detach the hung threads; their Shared Arc keeps the
                    // state they touch alive, so this leaks a thread, not
                    // memory safety.
                    self.workers.clear();
                    return Err(ServeError::WorkerHung);
                }
                let (guard, _timed_out) =
                    lockorder::wait_timeout(&self.shared.notify, queue, deadline - now);
                queue = guard;
            }
        }
        // Every worker has left its loop; these joins only await thread
        // teardown and cannot block meaningfully.
        for handle in self.workers.drain(..) {
            handle.join().ok();
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.stop_workers(DEFAULT_SHUTDOWN_GRACE);
    }
}

fn validate(request: &InferRequest, version: &ModelVersion) -> Result<(), ServeError> {
    let [th, n] = version.input_shape();
    if request.window.shape() != [th, n, 1] {
        return Err(ServeError::BadRequest(format!(
            "window shape {:?}, model {} expects [{th}, {n}, 1]",
            request.window.shape(),
            version.name()
        )));
    }
    if request.tod.len() != th || request.dow.len() != th {
        return Err(ServeError::BadRequest(format!(
            "tod/dow have {}/{} entries, expected {th}",
            request.tod.len(),
            request.dow.len()
        )));
    }
    if request.dow.iter().any(|d| *d >= 7) {
        return Err(ServeError::BadRequest(
            "day-of-week out of range".to_string(),
        ));
    }
    if let Some(spd) = version.steps_per_day() {
        if request.tod.iter().any(|t| *t >= spd) {
            return Err(ServeError::BadRequest(format!(
                "time-of-day out of range, model {} has {spd} slots per day",
                version.name()
            )));
        }
    }
    // The JSON front door parses out-of-range numbers such as `1e39` to
    // `inf`; no model output for such a window means anything.
    if request.window.data().iter().any(|v| !v.is_finite()) {
        return Err(ServeError::BadRequest(
            "window contains non-finite values".to_string(),
        ));
    }
    Ok(())
}

/// Answer a request from the historical-average table, keyed by the clock
/// position of the first forecast step (the step after the window's last
/// input step; `predict_slots` wraps midnight and the weekday).
fn fallback_forecast(
    fallback: &HistoricalAverage,
    version: &ModelVersion,
    request: &InferRequest,
) -> Forecast {
    let last = request.tod.len() - 1;
    let values =
        fallback.predict_slots(request.dow[last], request.tod[last] + 1, version.horizon());
    Forecast {
        model: "HA".to_string(),
        generation: 0,
        values,
        fallback: true,
    }
}

/// Answer a request the model did not: with the fallback's forecast when
/// one is registered (counted in `fallback_served`), else with `error`.
fn degrade(
    shared: &Shared,
    fallback: Option<&HistoricalAverage>,
    version: &ModelVersion,
    p: Pending,
    error: ServeError,
) {
    let answer = match fallback {
        Some(ha) => {
            shared.stats.fallback_served.add(1);
            Ok(fallback_forecast(ha, version, &p.request))
        }
        None => Err(error),
    };
    p.tx.send(answer).ok();
}

/// The message a caught panic carried, when it was a string.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Per-worker replica cache: model name -> (generation it was built from,
/// live instance).
type ReplicaCache = HashMap<String, (u64, Box<dyn TrafficModel>)>;

/// Signals worker exit (normal return or panic) so shutdown can bound its
/// wait: bump the exit counter, then nudge the condvar. Briefly taking the
/// queue lock between the two serializes against the shutdown thread's
/// check-then-wait, closing the lost-wakeup window.
struct ExitSignal<'a> {
    shared: &'a Shared,
}

impl Drop for ExitSignal<'_> {
    fn drop(&mut self) {
        self.shared.exited.fetch_add(1, Ordering::Release);
        drop(self.shared.queue.lock());
        self.shared.notify.notify_all();
    }
}

fn worker_loop(shared: &Shared) {
    let _exit_signal = ExitSignal { shared };
    let mut cache: ReplicaCache = HashMap::new();
    // Evaluation-mode forwards never draw from the rng (dropout is identity),
    // so a fixed-seed per-worker rng keeps `forward`'s signature satisfied
    // without threading state anywhere.
    let mut rng = StdRng::seed_from_u64(0);
    loop {
        let mut queue = shared.queue.lock();
        loop {
            if !queue.is_empty() {
                break;
            }
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            queue = lockorder::wait(&shared.notify, queue);
        }
        let Some(first) = queue.pop_front() else {
            continue;
        };
        // Batch-fuse clock: from popping the batch's first request until the
        // fuse loop gives up; attributed to every fused request's trace.
        let fuse_start = Instant::now();
        shared.depth.store(queue.len(), Ordering::Release);
        let model_name = first.request.model.clone();
        // Resolve the version once per micro-batch: every request fused into
        // this batch is served by it, even if a reload lands mid-collection.
        // (Lock order: serve.queue is held while the registry lock is taken,
        // never the reverse.)
        let version = shared.registry.get(&model_name);
        let mut batch = vec![first];
        let hold_until = Instant::now() + shared.config.max_wait;
        while batch.len() < shared.config.max_batch {
            if let Some(pos) = queue.iter().position(|p| p.request.model == model_name) {
                if let Some(p) = queue.remove(pos) {
                    batch.push(p);
                }
                shared.depth.store(queue.len(), Ordering::Release);
                continue;
            }
            let now = Instant::now();
            if now >= hold_until || shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let (guard, _timed_out) =
                lockorder::wait_timeout(&shared.notify, queue, hold_until - now);
            queue = guard;
        }
        shared.depth.store(queue.len(), Ordering::Release);
        drop(queue);
        let fuse_wait = fuse_start.elapsed();
        process_batch(shared, &mut cache, version, batch, &mut rng, fuse_wait);
        shared.notify.notify_all();
    }
}

/// Answer every request of a batch that cannot run with the same error.
fn fail_all(pending: Vec<Pending>, error: impl Fn() -> ServeError) {
    for p in pending {
        p.tx.send(Err(error())).ok();
    }
}

fn process_batch(
    shared: &Shared,
    cache: &mut ReplicaCache,
    version: Option<Arc<ModelVersion>>,
    pending: Vec<Pending>,
    rng: &mut StdRng,
    fuse_wait: Duration,
) {
    let Some(version) = version else {
        let name = pending
            .first()
            .map(|p| p.request.model.clone())
            .unwrap_or_default();
        return fail_all(pending, || ServeError::UnknownModel(name.clone()));
    };

    let mut batch_span = d2stgnn_obsv::span!("d2stgnn_serve_batch");
    d2stgnn_obsv::record!(batch_span, model = version.name());

    // Degrade requests whose deadline already passed.
    let now = Instant::now();
    let fallback = shared.fallback.lock().clone();
    let mut live = Vec::with_capacity(pending.len());
    for p in pending {
        let queue_wait = now.saturating_duration_since(p.enqueued);
        d2stgnn_obsv::observe!("d2stgnn_serve_queue_wait_seconds", queue_wait.as_secs_f64());
        // Queue-wait and fuse-hold attribution, plus a per-request event so
        // the JSONL stream ties the wait to the request's trace id.
        p.request.trace.stage("queue_wait", queue_wait);
        p.request.trace.stage("batch_fuse", fuse_wait);
        d2stgnn_obsv::event!(
            "d2stgnn_serve_queue_wait",
            trace_id = p.request.trace.id().unwrap_or_default(),
            wait_us = queue_wait.as_micros() as u64
        );
        let expired = p.request.deadline.is_some_and(|d| now > d);
        if !expired {
            live.push(p);
            continue;
        }
        shared.stats.deadline_misses.add(1);
        degrade(
            shared,
            fallback.as_deref(),
            &version,
            p,
            ServeError::DeadlineExceeded,
        );
    }
    if live.is_empty() {
        return;
    }

    // Span links: every fused request's trace records the batch span id and
    // the ids of its co-batched peers, so one slow batch execution explains
    // every request it served (and vice versa from /debug/traces).
    let batch_id = batch_span.id();
    let member_ids: Vec<String> = live.iter().filter_map(|p| p.request.trace.id()).collect();
    for p in &live {
        p.request.trace.link_batch(batch_id, &member_ids);
    }
    if !member_ids.is_empty() {
        d2stgnn_obsv::record!(batch_span, trace_ids = member_ids.join(","));
    }

    // Rebuild this worker's replica if the registry generation moved.
    let cached_generation = cache.get(version.name()).map(|(g, _)| *g);
    if cached_generation != Some(version.generation()) {
        match version.instantiate() {
            Ok(model) => {
                cache.insert(version.name().to_string(), (version.generation(), model));
            }
            Err(e) => return fail_all(live, || ServeError::Internal(e.to_string())),
        }
    }
    let Some((_, model)) = cache.get(version.name()) else {
        // Unreachable after the insert above; answer rather than abort.
        let msg = "replica cache lost the model just built";
        return fail_all(live, || ServeError::Internal(msg.to_string()));
    };
    let model = model.as_ref();

    // Stack the windows into one normalized batch.
    let [_, n] = version.input_shape();
    let (b, tf, scaler) = (live.len(), version.horizon(), version.scaler());
    let windows = live.iter().map(|p| {
        let r = &p.request;
        (r.window.clone(), r.tod.clone(), r.dow.clone())
    });
    let Some(batch) = Batch::from_windows(&scaler, windows, Array::zeros(&[b, tf, n, 1])) else {
        // Unreachable: `validate` fixed every window's shape at submit.
        let msg = "request windows differ in shape";
        return fail_all(live, || ServeError::Internal(msg.to_string()));
    };

    d2stgnn_obsv::record!(batch_span, batch_size = b);
    let forward_start = Instant::now();
    let out = {
        let _forward_span = d2stgnn_obsv::span!("d2stgnn_serve_forward", batch_size = b);
        // A panic must not end the worker: nothing would respawn it, and
        // the queue would keep filling for nobody.
        shared.stats.count_in_flight(b, || {
            std::panic::catch_unwind(AssertUnwindSafe(|| {
                no_grad(|| model.forward(&batch, false, rng)).value()
            }))
        })
    };
    let forward_wait = forward_start.elapsed();
    shared.stats.batch_done(b);
    let out = match out {
        Ok(out) if out.shape() == [b, tf, n, 1] => out,
        bad => {
            let reason = match bad {
                // Checked once here, so splitting the rows below cannot panic.
                Ok(out) => format!(
                    "forward gave a malformed forecast: shape {:?}, expected {:?}",
                    out.shape(),
                    [b, tf, n, 1]
                ),
                Err(payload) => {
                    // The replica may have been left mid-update; rebuild it
                    // next batch.
                    cache.remove(version.name());
                    format!("forward panicked: {}", panic_message(payload.as_ref()))
                }
            };
            for p in live {
                p.request.trace.stage("forward", forward_wait);
                shared.stats.forward_failures.add(1);
                degrade(
                    shared,
                    fallback.as_deref(),
                    &version,
                    p,
                    ServeError::Internal(reason.clone()),
                );
            }
            return;
        }
    };

    // Fan the rows back out, de-normalized.
    let _post_span = d2stgnn_obsv::span!("d2stgnn_serve_postprocess", batch_size = b);
    let out = scaler.inverse_transform(&out);
    for (bi, p) in live.into_iter().enumerate() {
        let row_start = Instant::now();
        p.request.trace.stage("forward", forward_wait);
        let values = match out.slice_axis(0, bi, bi + 1).reshape(&[tf, n]) {
            Ok(values) if !values.has_non_finite() => values,
            bad => {
                let reason = match bad {
                    Ok(_) => "forward gave a non-finite forecast".to_string(),
                    Err(e) => format!("forward gave a malformed forecast: {e}"),
                };
                shared.stats.forward_failures.add(1);
                degrade(
                    shared,
                    fallback.as_deref(),
                    &version,
                    p,
                    ServeError::Internal(reason),
                );
                continue;
            }
        };
        p.request.trace.stage("postprocess", row_start.elapsed());
        shared
            .stats
            .request_done(p.enqueued.elapsed(), p.request.trace.id().as_deref());
        p.tx.send(Ok(Forecast {
            model: version.name().to_string(),
            generation: version.generation(),
            values,
            fallback: false,
        }))
        .ok();
    }
}
