//! A day in the life of the inference engine: register a trained model,
//! stream a burst of forecast requests through the micro-batching server,
//! hot-swap to retrained weights without dropping traffic, and watch the
//! fallback absorb an overload.
//!
//! Run with: `cargo run --release --example serve_city`

use d2stgnn::prelude::*;
use d2stgnn::serve::ModelFactory;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn model_config(n: usize) -> D2stgnnConfig {
    let mut cfg = D2stgnnConfig::small(n);
    cfg.layers = 1;
    cfg
}

fn request_at(data: &WindowedDataset, start: usize) -> InferRequest {
    let (window, tod, dow) = data.data().raw_window(start, data.th());
    InferRequest {
        model: "d2stgnn".to_string(),
        window,
        tod,
        dow,
        deadline: None,
        trace: d2stgnn_serve::TraceHandle::inert(),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small city: 12 sensors, two days of five-minute readings.
    let mut sim = SimulatorConfig::tiny();
    sim.num_steps = 2 * 288;
    let data = WindowedDataset::new(simulate(&sim), 12, 12, (0.6, 0.2, 0.2));
    let n = data.num_nodes();

    // Quick training pass, then snapshot v1.
    let mut rng = StdRng::seed_from_u64(0);
    let model = D2stgnn::new(model_config(n), &data.data().network.clone(), &mut rng);
    let trainer = Trainer::new(TrainConfig {
        max_epochs: 1,
        verbose: false,
        ..TrainConfig::default()
    });
    trainer.train(&model, &data).expect("training failed");
    let v1 = checkpoint::snapshot(&model, "d2stgnn-v1");

    let network = data.data().network.clone();
    let factory: ModelFactory = Arc::new(move || {
        let mut rng = StdRng::seed_from_u64(0);
        Box::new(D2stgnn::new(model_config(12), &network, &mut rng))
    });
    let registry = Arc::new(ModelRegistry::new());
    let gen1 = registry.register("d2stgnn", factory, v1, *data.scaler(), [data.th(), n])?;
    println!("registered d2stgnn generation {gen1}");

    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            workers: 2,
            max_batch: 4,
            max_wait: Duration::from_millis(2),
            queue_capacity: 32,
        },
    )
    .expect("start server");
    let mut ha = HistoricalAverage::new();
    ha.fit(&data);
    server.set_fallback(ha);

    // Morning burst: every test window, batched by the server.
    let starts: Vec<usize> = data.window_starts(Split::Test).to_vec();
    let handles: Vec<_> = starts
        .iter()
        .map(|s| server.submit(request_at(&data, *s)))
        .collect::<Result<_, _>>()?;
    let mut served_by_model = 0usize;
    for handle in handles {
        let forecast = handle.wait()?;
        served_by_model += usize::from(!forecast.fallback);
    }
    println!(
        "burst of {} requests served ({} by the model)",
        starts.len(),
        served_by_model
    );

    // Retrain briefly and hot-swap: traffic keeps flowing during the reload.
    trainer.train(&model, &data).expect("training failed");
    let gen2 = registry.reload("d2stgnn", checkpoint::snapshot(&model, "d2stgnn-v2"))?;
    let forecast = server.infer(request_at(&data, starts[0]))?;
    println!(
        "hot-swapped to generation {gen2}; next forecast served by generation {}",
        forecast.generation
    );

    // A request that arrives already late degrades to the HA fallback.
    let mut late = request_at(&data, starts[0]);
    late.deadline = Some(std::time::Instant::now() - Duration::from_millis(1));
    let degraded = server.infer(late)?;
    println!(
        "late request answered by {} (fallback: {})",
        degraded.model, degraded.fallback
    );

    let stats = server.stats();
    println!(
        "\nstats: {} accepted, {} completed in {} batches (mean size {:.2}), \
         {} shed, {} fallback, {} deadline misses, p50 {:?}, p95 {:?}",
        stats.requests,
        stats.completed,
        stats.batches,
        stats.mean_batch_size,
        stats.sheds,
        stats.fallback_served,
        stats.deadline_misses,
        stats.p50_latency,
        stats.p95_latency
    );
    server.shutdown().expect("clean shutdown");
    Ok(())
}
