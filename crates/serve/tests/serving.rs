//! End-to-end serving tests: micro-batch equivalence, hot-swap semantics,
//! deadline degradation, and overload shedding.

use d2stgnn_baselines::{ClassicalForecaster, HistoricalAverage};
use d2stgnn_core::{checkpoint, D2stgnn, D2stgnnConfig, TrafficModel};
use d2stgnn_data::{simulate, Batch, SimulatorConfig, Split, WindowedDataset};
use d2stgnn_serve::{InferRequest, ModelFactory, ModelRegistry, ServeConfig, ServeError, Server};
use d2stgnn_tensor::nn::Module;
use d2stgnn_tensor::{no_grad, Array, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn dataset() -> WindowedDataset {
    let mut cfg = SimulatorConfig::tiny();
    cfg.num_nodes = 6;
    cfg.num_steps = 2 * 288;
    cfg.knn = 2;
    WindowedDataset::new(simulate(&cfg), 12, 12, (0.6, 0.2, 0.2))
}

fn model_config(n: usize) -> D2stgnnConfig {
    let mut cfg = D2stgnnConfig::small(n);
    cfg.layers = 1;
    cfg
}

fn factory_for(data: &WindowedDataset, seed: u64) -> ModelFactory {
    let cfg = model_config(data.num_nodes());
    let network = data.data().network.clone();
    Arc::new(move || {
        let mut rng = StdRng::seed_from_u64(seed);
        Box::new(D2stgnn::new(cfg.clone(), &network, &mut rng)) as Box<dyn TrafficModel>
    })
}

/// Build a raw-scale request from a dataset window.
fn request_for(data: &WindowedDataset, split: Split, widx: usize, model: &str) -> InferRequest {
    let start = data.window_starts(split)[widx];
    let (window, tod, dow) = data.data().raw_window(start, data.th());
    InferRequest {
        model: model.to_string(),
        window,
        tod,
        dow,
        deadline: None,
        trace: d2stgnn_serve::TraceHandle::inert(),
    }
}

/// Register a fresh seed-`seed` model under `name`; returns its generation.
fn register(registry: &ModelRegistry, data: &WindowedDataset, name: &str, seed: u64) -> u64 {
    register_factory(registry, data, name, factory_for(data, seed))
}

/// Register `factory`'s model under `name`; returns its generation.
fn register_factory(
    registry: &ModelRegistry,
    data: &WindowedDataset,
    name: &str,
    factory: ModelFactory,
) -> u64 {
    let model = factory();
    let ckpt = checkpoint::snapshot(model.as_ref() as &dyn Module, name);
    registry
        .register(
            name,
            factory,
            ckpt,
            *data.scaler(),
            [data.th(), data.num_nodes()],
        )
        .expect("register")
}

#[test]
fn batched_forward_is_bit_identical_to_sequential() {
    let data = dataset();
    let registry = Arc::new(ModelRegistry::new());
    register(&registry, &data, "d2stgnn", 7);

    // Sequential reference: the same weights, one window at a time.
    let reference = factory_for(&data, 7)();
    let scaler = *data.scaler();
    let mut rng = StdRng::seed_from_u64(0);
    let expected: Vec<Array> = (0..8)
        .map(|w| {
            let batch = data.batch(Split::Test, &[w]);
            let out = no_grad(|| reference.forward(&batch, false, &mut rng)).value();
            let (tf, n) = (data.tf(), data.num_nodes());
            let mut vals = Array::zeros(&[tf, n]);
            for t in 0..tf {
                for i in 0..n {
                    vals.set(
                        &[t, i],
                        out.at(&[0, t, i, 0]) * scaler.std() + scaler.mean(),
                    );
                }
            }
            vals
        })
        .collect();

    // One worker, batch of 8, generous hold window: all eight requests fuse
    // into a single forward pass.
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 1,
            max_batch: 8,
            max_wait: Duration::from_secs(5),
            queue_capacity: 64,
        },
    )
    .expect("start server");
    let handles: Vec<_> = (0..8)
        .map(|w| {
            server
                .submit(request_for(&data, Split::Test, w, "d2stgnn"))
                .unwrap()
        })
        .collect();
    for (w, handle) in handles.into_iter().enumerate() {
        let forecast = handle.wait().unwrap();
        assert!(!forecast.fallback);
        assert_eq!(forecast.model, "d2stgnn");
        assert_eq!(
            forecast.values.data(),
            expected[w].data(),
            "window {w} differs between batched and sequential serving"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.batches, 1, "expected one fused micro-batch");
    assert_eq!(stats.mean_batch_size, 8.0);
    assert!(stats.p95_latency >= stats.p50_latency);
    assert!(stats.p99_latency >= stats.p95_latency);
    server.shutdown().expect("clean shutdown");
}

/// The bits of one fused micro-batch on the tiny profile are pinned: the
/// worker's batch stacking, normalization and de-normalized split must not
/// move a bit of a served forecast.
#[test]
fn fused_batch_forecast_bits_are_pinned() {
    let data = WindowedDataset::new(simulate(&SimulatorConfig::tiny()), 12, 12, (0.6, 0.2, 0.2));
    let registry = Arc::new(ModelRegistry::new());
    register(&registry, &data, "d2stgnn", 7);
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 1,
            max_batch: 8,
            max_wait: Duration::from_secs(5),
            queue_capacity: 64,
        },
    )
    .expect("start server");
    let handles: Vec<_> = (0..8)
        .map(|w| {
            server
                .submit(request_for(&data, Split::Test, w, "d2stgnn"))
                .unwrap()
        })
        .collect();
    let forecasts: Vec<Array> = handles
        .into_iter()
        .map(|h| h.wait().unwrap().values)
        .collect();
    assert_eq!(server.stats().batches, 1, "expected one fused micro-batch");
    assert_eq!(
        format!("{:016x}", checkpoint::params_checksum(&forecasts)),
        "ef72c65174271795"
    );
    server.shutdown().expect("clean shutdown");
}

#[test]
fn latency_percentiles_populate_and_stay_ordered() {
    let data = dataset();
    let registry = Arc::new(ModelRegistry::new());
    register(&registry, &data, "d2stgnn", 7);

    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 1,
            max_batch: 4,
            max_wait: Duration::from_millis(1),
            queue_capacity: 64,
        },
    )
    .expect("start server");
    for w in 0..12 {
        server
            .infer(request_for(&data, Split::Test, w % 4, "d2stgnn"))
            .expect("infer");
    }
    let stats = server.stats();
    assert_eq!(stats.completed, 12);
    assert!(stats.p50_latency > Duration::ZERO);
    assert!(stats.p95_latency >= stats.p50_latency);
    assert!(stats.p99_latency >= stats.p95_latency);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn hot_swap_keeps_in_flight_requests_on_old_model() {
    let data = dataset();
    let registry = Arc::new(ModelRegistry::new());
    let gen1 = register(&registry, &data, "d2stgnn", 7);

    // One worker with room for a second request: it pops the first request,
    // resolves the model version, and holds the batch open.
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 1,
            max_batch: 2,
            max_wait: Duration::from_secs(5),
            queue_capacity: 64,
        },
    )
    .expect("start server");
    let a = server
        .submit(request_for(&data, Split::Test, 0, "d2stgnn"))
        .unwrap();
    // Let the worker pick up the request and pin its version.
    std::thread::sleep(Duration::from_millis(150));

    // Reload with different weights mid-collection.
    let swapped = factory_for(&data, 1234)();
    let ckpt = checkpoint::snapshot(swapped.as_ref() as &dyn Module, "v2");
    let gen2 = registry.reload("d2stgnn", ckpt).unwrap();
    assert!(gen2 > gen1);

    // This request joins the already-open batch: both must be answered by
    // the generation that was live when the batch started.
    let b = server
        .submit(request_for(&data, Split::Test, 1, "d2stgnn"))
        .unwrap();
    let fa = a.wait().unwrap();
    let fb = b.wait().unwrap();
    assert_eq!(
        fa.generation, gen1,
        "in-flight request migrated off its model"
    );
    assert_eq!(
        fb.generation, gen1,
        "batched request migrated off its model"
    );

    // The next batch picks up the new generation, with different weights.
    let fc = server
        .infer(request_for(&data, Split::Test, 0, "d2stgnn"))
        .unwrap();
    assert_eq!(fc.generation, gen2);
    assert_ne!(
        fa.values.data(),
        fc.values.data(),
        "same window, swapped weights should forecast differently"
    );
    server.shutdown().expect("clean shutdown");
}

#[test]
fn deadline_exceeded_request_gets_fallback_answer() {
    let data = dataset();
    let registry = Arc::new(ModelRegistry::new());
    register(&registry, &data, "d2stgnn", 7);
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::ZERO,
            queue_capacity: 64,
        },
    )
    .expect("start server");
    let mut ha = HistoricalAverage::new();
    ha.fit(&data);
    server.set_fallback(ha);

    let mut request = request_for(&data, Split::Test, 2, "d2stgnn");
    request.deadline = Some(Instant::now() - Duration::from_millis(5));
    let last = request.tod.len() - 1;
    let (start_dow, start_slot) = (request.dow[last], request.tod[last] + 1);
    let forecast = server.infer(request).unwrap();

    assert!(forecast.fallback);
    assert_eq!(forecast.model, "HA");
    assert_eq!(forecast.generation, 0);
    // Identical to querying the table directly (fit is deterministic).
    let mut reference = HistoricalAverage::new();
    reference.fit(&data);
    let expected = reference.predict_slots(start_dow, start_slot, data.tf());
    assert_eq!(forecast.values.data(), expected.data());

    let stats = server.stats();
    assert_eq!(stats.deadline_misses, 1);
    assert_eq!(stats.fallback_served, 1);
    assert_eq!(stats.completed, 0);
    server.shutdown().expect("clean shutdown");
}

/// Start a server whose single worker is pinned holding an open batch for
/// model `"a"`, then fill the queue with a model-`"b"` request. Returns the
/// server and a drained-later handle pair.
fn overloaded_server(data: &WindowedDataset, registry: &Arc<ModelRegistry>) -> Server {
    register(registry, data, "a", 7);
    register(registry, data, "b", 8);
    let server = Server::start(
        Arc::clone(registry),
        ServeConfig {
            workers: 1,
            max_batch: 2,
            max_wait: Duration::from_secs(5),
            queue_capacity: 1,
        },
    )
    .expect("start server");
    // Worker pops this and holds the batch open waiting for more "a" traffic.
    server
        .submit(request_for(data, Split::Test, 0, "a"))
        .unwrap();
    std::thread::sleep(Duration::from_millis(150));
    // Fills the queue (capacity 1) while the worker is busy.
    server
        .submit(request_for(data, Split::Test, 0, "b"))
        .unwrap();
    server
}

#[test]
fn full_queue_without_fallback_returns_overloaded() {
    let data = dataset();
    let registry = Arc::new(ModelRegistry::new());
    let server = overloaded_server(&data, &registry);
    let err = server
        .submit(request_for(&data, Split::Test, 1, "b"))
        .expect_err("queue is full");
    assert!(matches!(err, ServeError::Overloaded), "got {err}");
    assert_eq!(server.stats().sheds, 1);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn full_queue_with_fallback_serves_classical_answer() {
    let data = dataset();
    let registry = Arc::new(ModelRegistry::new());
    let server = overloaded_server(&data, &registry);
    let mut ha = HistoricalAverage::new();
    ha.fit(&data);
    server.set_fallback(ha);

    let shed = server
        .submit(request_for(&data, Split::Test, 1, "b"))
        .expect("fallback absorbs the overload");
    let forecast = shed.wait().unwrap();
    assert!(forecast.fallback);
    assert_eq!(forecast.model, "HA");
    assert_eq!(forecast.values.shape(), &[data.tf(), data.num_nodes()]);
    let stats = server.stats();
    assert_eq!(stats.sheds, 1);
    assert_eq!(stats.fallback_served, 1);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn unknown_model_and_bad_shapes_are_rejected() {
    let data = dataset();
    let registry = Arc::new(ModelRegistry::new());
    register(&registry, &data, "d2stgnn", 7);
    let server =
        Server::start(Arc::clone(&registry), ServeConfig::default()).expect("start server");

    let err = server
        .submit(request_for(&data, Split::Test, 0, "nope"))
        .expect_err("unregistered model");
    assert!(matches!(err, ServeError::UnknownModel(_)));

    let mut bad = request_for(&data, Split::Test, 0, "d2stgnn");
    bad.window = Array::zeros(&[3, 3, 1]);
    let err = server.submit(bad).expect_err("wrong window shape");
    assert!(matches!(err, ServeError::BadRequest(_)));

    let mut bad = request_for(&data, Split::Test, 0, "d2stgnn");
    bad.tod.pop();
    let err = server.submit(bad).expect_err("short tod");
    assert!(matches!(err, ServeError::BadRequest(_)));
    server.shutdown().expect("clean shutdown");
}

#[test]
fn out_of_range_tod_and_non_finite_windows_are_rejected_and_the_worker_survives() {
    let data = dataset();
    let registry = Arc::new(ModelRegistry::new());
    register(&registry, &data, "d2stgnn", 7);
    let spd = registry
        .get("d2stgnn")
        .and_then(|v| v.steps_per_day())
        .expect("D2STGNN indexes a time-of-day table");
    assert_eq!(spd, 288);
    // One worker: a request that killed it would leave nobody to answer the
    // valid request that follows.
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::from_millis(1),
            queue_capacity: 8,
        },
    )
    .expect("start server");

    let mut bad = request_for(&data, Split::Test, 0, "d2stgnn");
    bad.tod[5] = spd;
    let err = server.submit(bad).expect_err("tod past the model's day");
    assert!(matches!(err, ServeError::BadRequest(_)), "got {err}");

    let mut bad = request_for(&data, Split::Test, 0, "d2stgnn");
    bad.window.data_mut().fill(f32::INFINITY);
    let err = server.submit(bad).expect_err("all-inf window");
    assert!(matches!(err, ServeError::BadRequest(_)), "got {err}");

    let mut bad = request_for(&data, Split::Test, 0, "d2stgnn");
    bad.window.set(&[3, 2, 0], f32::NAN);
    let err = server.submit(bad).expect_err("one NaN cell");
    assert!(matches!(err, ServeError::BadRequest(_)), "got {err}");

    let forecast = server
        .submit(request_for(&data, Split::Test, 1, "d2stgnn"))
        .expect("valid request admitted")
        .wait_timeout(Duration::from_secs(30))
        .expect("the worker still answers")
        .expect("forecast");
    assert!(!forecast.fallback);
    assert!(forecast.values.data().iter().all(|v| v.is_finite()));
    let stats = server.stats();
    assert_eq!((stats.requests, stats.completed), (1, 1));
    server.shutdown().expect("clean shutdown");
}

/// What a [`Faulty`] model does when a batch holds its trigger slot.
#[derive(Clone, Copy, Debug)]
enum Fault {
    Panic,
    NonFinite,
    /// A forecast one step long instead of `T_f`.
    ShortHorizon,
    /// A forecast with one batch row too few.
    MissingRow,
}

/// The time-of-day slot that sets a [`Faulty`] model off.
const FAULT_SLOT: usize = 7;

/// A D2STGNN that fails on any batch whose `tod` holds [`FAULT_SLOT`] and
/// forecasts normally otherwise. With a gate, it stops at the gate before
/// failing, so a test can look at the server while the forward runs.
struct Faulty {
    inner: D2stgnn,
    fault: Fault,
    gate: Option<Arc<Gate>>,
}

/// A handshake between a forward and the test: the forward announces that
/// it has reached the gate, then waits until the test opens it.
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Default)]
struct GateState {
    reached: bool,
    open: bool,
}

impl Gate {
    /// Forward side: announce arrival, then block until opened.
    fn pass(&self) {
        let mut state = self.state.lock().expect("gate lock");
        state.reached = true;
        self.changed.notify_all();
        while !state.open {
            state = self.changed.wait(state).expect("gate lock");
        }
    }

    /// Test side: block until a forward has reached the gate.
    fn await_arrival(&self) {
        let state = self.state.lock().expect("gate lock");
        let (_state, wait) = self
            .changed
            .wait_timeout_while(state, Duration::from_secs(30), |s| !s.reached)
            .expect("gate lock");
        assert!(!wait.timed_out(), "no forward reached the gate");
    }

    fn open(&self) {
        self.state.lock().expect("gate lock").open = true;
        self.changed.notify_all();
    }
}

impl Module for Faulty {
    fn parameters(&self) -> Vec<Tensor> {
        self.inner.parameters()
    }
}

impl TrafficModel for Faulty {
    fn forward(&self, batch: &Batch, training: bool, rng: &mut StdRng) -> Tensor {
        let out = self.inner.forward(batch, training, rng);
        if !batch.tod.contains(&FAULT_SLOT) {
            return out;
        }
        if let Some(gate) = &self.gate {
            gate.pass();
        }
        match self.fault {
            Fault::Panic => panic!("injected forward fault at tod slot {FAULT_SLOT}"),
            Fault::NonFinite => Tensor::constant(Array::full(&out.shape(), f32::NAN)),
            Fault::ShortHorizon => out.slice_axis(1, 0, 1),
            Fault::MissingRow => out.slice_axis(0, 0, out.shape()[0] - 1),
        }
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn horizon(&self) -> usize {
        self.inner.horizon()
    }

    fn steps_per_day(&self) -> Option<usize> {
        self.inner.steps_per_day()
    }
}

#[test]
fn a_failed_forward_is_answered_and_the_worker_survives() {
    let data = dataset();
    for fault in [
        Fault::Panic,
        Fault::NonFinite,
        Fault::ShortHorizon,
        Fault::MissingRow,
    ] {
        for with_fallback in [false, true] {
            let registry = Arc::new(ModelRegistry::new());
            let cfg = model_config(data.num_nodes());
            let network = data.data().network.clone();
            let factory: ModelFactory = Arc::new(move || {
                let mut rng = StdRng::seed_from_u64(7);
                let inner = D2stgnn::new(cfg.clone(), &network, &mut rng);
                Box::new(Faulty {
                    inner,
                    fault,
                    gate: None,
                }) as Box<dyn TrafficModel>
            });
            register_factory(&registry, &data, "faulty", factory);
            // One worker: if the failure ended it, nobody would answer the
            // valid request queued behind the bad one.
            let server = Server::start(
                Arc::clone(&registry),
                ServeConfig {
                    workers: 1,
                    max_batch: 1,
                    max_wait: Duration::from_millis(1),
                    queue_capacity: 8,
                },
            )
            .expect("start server");
            if with_fallback {
                let mut ha = HistoricalAverage::new();
                ha.fit(&data);
                server.set_fallback(ha);
            }

            let mut bad = request_for(&data, Split::Test, 0, "faulty");
            bad.tod.fill(FAULT_SLOT);
            let good = request_for(&data, Split::Test, 1, "faulty");
            assert!(!good.tod.contains(&FAULT_SLOT));
            let bad = server.submit(bad).expect("bad request admitted");
            let good = server.submit(good).expect("good request admitted");

            let case = format!("{fault:?}, fallback {with_fallback}");
            let forecast = good
                .wait_timeout(Duration::from_secs(30))
                .unwrap_or_else(|| panic!("{case}: the worker no longer answers"))
                .unwrap_or_else(|e| panic!("{case}: valid request failed: {e}"));
            assert!(!forecast.fallback, "{case}");
            assert!(
                forecast.values.data().iter().all(|v| v.is_finite()),
                "{case}"
            );

            let answer = bad
                .wait_timeout(Duration::from_secs(30))
                .unwrap_or_else(|| panic!("{case}: the failed request got no answer"));
            match (answer, with_fallback) {
                (Ok(forecast), true) => {
                    assert!(forecast.fallback, "{case}");
                    assert_eq!(forecast.model, "HA", "{case}");
                }
                (Err(ServeError::Internal(_)), false) => {}
                (other, _) => panic!("{case}: unexpected answer {other:?}"),
            }

            let stats = server.stats();
            assert_eq!(stats.requests, 2, "{case}");
            assert_eq!(stats.completed + stats.forward_failures, 2, "{case}");
            assert_eq!(stats.forward_failures, 1, "{case}");
            assert_eq!(stats.fallback_served, u64::from(with_fallback), "{case}");
            assert_eq!(stats.batches, 2, "{case}");
            assert_eq!(stats.in_flight, 0, "{case}");
            server.shutdown().expect("clean shutdown");
        }
    }
}

#[test]
fn in_flight_counts_a_running_forward_and_returns_to_zero_after_it_panics() {
    let data = dataset();
    let gate = Arc::new(Gate::default());
    let registry = Arc::new(ModelRegistry::new());
    let cfg = model_config(data.num_nodes());
    let network = data.data().network.clone();
    let model_gate = Arc::clone(&gate);
    let factory: ModelFactory = Arc::new(move || {
        let mut rng = StdRng::seed_from_u64(7);
        Box::new(Faulty {
            inner: D2stgnn::new(cfg.clone(), &network, &mut rng),
            fault: Fault::Panic,
            gate: Some(Arc::clone(&model_gate)),
        }) as Box<dyn TrafficModel>
    });
    register_factory(&registry, &data, "faulty", factory);
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::from_millis(1),
            queue_capacity: 8,
        },
    )
    .expect("start server");
    assert_eq!(server.stats().in_flight, 0);

    let mut bad = request_for(&data, Split::Test, 0, "faulty");
    bad.tod.fill(FAULT_SLOT);
    let bad = server.submit(bad).expect("bad request admitted");
    // The forward waits at the gate: its one request is in flight.
    gate.await_arrival();
    assert_eq!(server.stats().in_flight, 1);
    gate.open();
    let answer = bad
        .wait_timeout(Duration::from_secs(30))
        .expect("the failed request got no answer");
    assert!(matches!(answer, Err(ServeError::Internal(_))), "{answer:?}");

    let stats = server.stats();
    assert_eq!(stats.forward_failures, 1);
    assert_eq!(
        stats.in_flight, 0,
        "the panic left requests counted in flight"
    );
    server.shutdown().expect("clean shutdown");
}

#[test]
fn registry_rejects_corrupt_checkpoints_and_unknown_reloads() {
    let data = dataset();
    let registry = ModelRegistry::new();
    let factory = factory_for(&data, 7);
    let model = factory();
    let mut ckpt = checkpoint::snapshot(model.as_ref() as &dyn Module, "d2stgnn");
    // Corrupt one weight after the checksum was computed.
    ckpt.parameters[0].data_mut()[0] += 1.0;
    let err = registry
        .register("d2stgnn", factory.clone(), ckpt, *data.scaler(), [12, 6])
        .expect_err("corrupt checkpoint");
    assert!(matches!(err, ServeError::Checkpoint(_)), "got {err}");

    let ckpt = checkpoint::snapshot(model.as_ref() as &dyn Module, "d2stgnn");
    let err = registry.reload("missing", ckpt).expect_err("unknown name");
    assert!(matches!(err, ServeError::UnknownModel(_)));
    assert!(registry.names().is_empty());
}

#[test]
fn v3_training_checkpoint_registers_reloads_and_serves() {
    // The trainer's full-state checkpoints (format v3, with optimizer
    // moments, RNG words, etc.) must be directly servable: the registry
    // restores the parameters and ignores the training payload.
    let data = dataset();
    let registry = Arc::new(ModelRegistry::new());
    let factory = factory_for(&data, 7);
    let model = factory();
    let dir = std::env::temp_dir().join("d2stgnn-serve-v3");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("train.json");
    let cfg = d2stgnn_core::TrainConfig {
        max_epochs: 1,
        checkpoint_path: Some(path.to_string_lossy().into_owned()),
        ..d2stgnn_core::TrainConfig::default()
    };
    d2stgnn_core::Trainer::new(cfg)
        .train(model.as_ref(), &data)
        .expect("training");

    let ckpt = checkpoint::read(&path).expect("v3 checkpoint reads back");
    assert!(ckpt.train.is_some(), "trainer must persist full state");
    registry
        .register(
            "d2stgnn",
            factory.clone(),
            ckpt,
            *data.scaler(),
            [data.th(), data.num_nodes()],
        )
        .expect("serving must accept a v3 full-state checkpoint");

    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::from_millis(1),
            queue_capacity: 8,
        },
    )
    .expect("start server");
    let forecast = server
        .submit(request_for(&data, Split::Test, 0, "d2stgnn"))
        .expect("submit")
        .wait()
        .expect("forecast");
    assert!(!forecast.fallback);
    assert!(forecast.values.data().iter().all(|v| v.is_finite()));
    server.shutdown().expect("clean shutdown");

    // Hot swap with another v3 checkpoint bumps the generation.
    let ckpt = checkpoint::read(&path).expect("v3 checkpoint reads back");
    let gen2 = registry.reload("d2stgnn", ckpt).expect("reload v3");
    assert!(gen2 > 0);
    std::fs::remove_file(&path).ok();
}
