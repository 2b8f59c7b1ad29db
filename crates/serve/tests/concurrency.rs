//! Concurrency-hygiene tests: the lock-order checker must catch an inverted
//! acquisition, and shutdown must surface a hung worker instead of blocking
//! forever.

use d2stgnn_core::{checkpoint, D2stgnn, D2stgnnConfig, TrafficModel};
use d2stgnn_data::{simulate, Batch, SimulatorConfig, WindowedDataset};
use d2stgnn_serve::lockorder::OrderedMutex;
use d2stgnn_serve::{InferRequest, ModelFactory, ModelRegistry, ServeConfig, ServeError, Server};
use d2stgnn_tensor::nn::Module;
use d2stgnn_tensor::{Array, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

#[test]
#[cfg_attr(
    not(any(debug_assertions, feature = "sanitize")),
    ignore = "lock-order checker is compiled out of plain release builds"
)]
fn lock_order_inversion_is_caught() {
    let a = Arc::new(OrderedMutex::new("test.inversion.a", 0u32));
    let b = Arc::new(OrderedMutex::new("test.inversion.b", 0u32));

    // Establish the canonical order a -> b on this thread.
    {
        let ga = a.lock();
        let gb = b.lock();
        drop(gb);
        drop(ga);
    }

    // A thread taking b -> a closes the cycle; the checker must panic
    // instead of letting the program carry a latent deadlock.
    let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
    let result = std::thread::spawn(move || {
        let gb = b2.lock();
        let _ga = a2.lock();
        drop(gb);
    })
    .join();
    let payload = result.expect_err("inverted acquisition must panic");
    let message = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        message.contains("lock-order inversion"),
        "panic should name the inversion, got: {message}"
    );
    assert!(
        message.contains("test.inversion.a") && message.contains("test.inversion.b"),
        "panic should name both locks, got: {message}"
    );
}

/// A model whose forward pass stalls long enough to outlive any reasonable
/// shutdown grace, simulating a wedged replica.
struct SlowModel {
    inner: D2stgnn,
    delay: Duration,
}

impl Module for SlowModel {
    fn parameters(&self) -> Vec<Tensor> {
        self.inner.parameters()
    }
}

impl TrafficModel for SlowModel {
    fn forward(&self, batch: &Batch, training: bool, rng: &mut StdRng) -> Tensor {
        std::thread::sleep(self.delay);
        self.inner.forward(batch, training, rng)
    }

    fn name(&self) -> String {
        "slow".to_string()
    }

    fn horizon(&self) -> usize {
        self.inner.horizon()
    }
}

#[test]
fn hung_worker_surfaces_worker_hung_on_shutdown() {
    let mut sim = SimulatorConfig::tiny();
    sim.num_nodes = 4;
    sim.num_steps = 288;
    sim.knn = 2;
    let data = WindowedDataset::new(simulate(&sim), 12, 12, (0.6, 0.2, 0.2));

    let mut cfg = D2stgnnConfig::small(data.num_nodes());
    cfg.layers = 1;
    let network = data.data().network.clone();
    let factory: ModelFactory = Arc::new(move || {
        let mut rng = StdRng::seed_from_u64(0);
        Box::new(SlowModel {
            inner: D2stgnn::new(cfg.clone(), &network, &mut rng),
            delay: Duration::from_secs(20),
        }) as Box<dyn TrafficModel>
    });
    let probe = factory();
    let ckpt = checkpoint::snapshot(probe.as_ref() as &dyn Module, "slow");

    let registry = Arc::new(ModelRegistry::new());
    registry
        .register(
            "slow",
            factory,
            ckpt,
            *data.scaler(),
            [data.th(), data.num_nodes()],
        )
        .expect("register slow model");

    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::from_millis(1),
            queue_capacity: 4,
        },
    )
    .expect("start server");

    let request = InferRequest {
        model: "slow".to_string(),
        window: Array::zeros(&[data.th(), data.num_nodes(), 1]),
        tod: vec![0; data.th()],
        dow: vec![0; data.th()],
        deadline: None,
        trace: d2stgnn_serve::TraceHandle::inert(),
    };
    let _handle = server.submit(request).expect("submit");

    // Give the worker time to pop the request and enter the stalled forward.
    std::thread::sleep(Duration::from_millis(300));

    let err = server
        .shutdown_timeout(Duration::from_millis(200))
        .expect_err("a worker stuck in forward must not shut down cleanly");
    assert!(
        matches!(err, ServeError::WorkerHung),
        "expected WorkerHung, got: {err}"
    );
}
