//! The deployment loop: train a model, checkpoint it to JSON, export the
//! dataset to the CSV interchange format, then — as a separate "service"
//! would — reload both into the inference engine and serve forecasts through
//! it. Demonstrates `d2stgnn::model::checkpoint`, `d2stgnn::data::io`, and
//! `d2stgnn::serve`.
//!
//! Run with: `cargo run --release --example save_and_serve`

use d2stgnn::data::io;
use d2stgnn::prelude::*;
use d2stgnn::serve::ModelFactory;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn model_config(n: usize) -> D2stgnnConfig {
    let mut cfg = D2stgnnConfig::small(n);
    cfg.layers = 1;
    cfg
}

/// Build a raw-scale request for the window whose input starts at `start`.
fn request_at(data: &WindowedDataset, start: usize, model: &str) -> InferRequest {
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("d2stgnn-serve-demo");
    std::fs::create_dir_all(&dir)?;

    // ----- training side ------------------------------------------------
    let mut sim = SimulatorConfig::tiny();
    sim.num_nodes = 10;
    sim.knn = 3;
    sim.num_steps = 3 * 288;
    let raw = simulate(&sim);

    // Export the dataset the way an operator would hand it to us.
    let values_csv = dir.join("values.csv");
    let adj_csv = dir.join("adjacency.csv");
    io::save_dataset(&raw, &values_csv, &adj_csv)?;
    println!("exported dataset to {}", dir.display());

    let data = WindowedDataset::new(raw, 12, 12, (0.7, 0.1, 0.2));
    let mut rng = StdRng::seed_from_u64(0);
    let model = D2stgnn::new(model_config(10), &data.data().network.clone(), &mut rng);
    let trainer = Trainer::new(TrainConfig {
        max_epochs: 2,
        cl_step: 5,
        verbose: true,
        ..TrainConfig::default()
    });
    trainer.train(&model, &data).expect("training failed");

    let ckpt_path = dir.join("model.json");
    checkpoint::save(&model, "d2stgnn-demo", &ckpt_path)?;
    println!("checkpointed model to {}", ckpt_path.display());

    // ----- serving side (fresh process in real life) ---------------------
    let served_data = io::load_dataset(&values_csv, &adj_csv, 288, SignalKind::Speed)?;
    let served = WindowedDataset::new(served_data, 12, 12, (0.7, 0.1, 0.2));

    // The registry holds the checkpoint plus a factory that rebuilds the
    // architecture; integrity (v2 checksum) is verified on read.
    let ckpt = checkpoint::read(&ckpt_path)?;
    println!(
        "read checkpoint '{}' ({} parameters, checksum {:?})",
        ckpt.model,
        ckpt.total_params(),
        ckpt.checksum.map(|c| format!("{c:#x}"))
    );
    let network = served.data().network.clone();
    let factory: ModelFactory = Arc::new(move || {
        let mut rng = StdRng::seed_from_u64(99); // weights come from the checkpoint
        Box::new(D2stgnn::new(model_config(10), &network, &mut rng))
    });
    let registry = Arc::new(ModelRegistry::new());
    registry.register(
        "d2stgnn",
        factory,
        ckpt,
        *served.scaler(),
        [served.th(), served.num_nodes()],
    )?;

    let server =
        Server::start(Arc::clone(&registry), ServeConfig::default()).expect("start server");
    let mut ha = HistoricalAverage::new();
    ha.fit(&served);
    server.set_fallback(ha);

    // Serve the latest test window.
    let last_start = *served
        .window_starts(Split::Test)
        .last()
        .expect("test windows");
    let forecast = server.infer(request_at(&served, last_start, "d2stgnn"))?;
    println!("\n15-minute-ahead forecast per sensor (mph):");
    for i in 0..served.num_nodes() {
        print!("{:6.1}", forecast.values.at(&[2, i]));
    }
    println!();

    // The round trip is exact: served output equals the trained model's own.
    let batch = served.batch(Split::Test, &[served.len(Split::Test) - 1]);
    let mut rng = StdRng::seed_from_u64(1);
    let direct = d2stgnn::tensor::no_grad(|| model.forward(&batch, false, &mut rng)).value();
    let direct = served.scaler().inverse_transform(&direct);
    let mut max_diff = 0f32;
    for t in 0..served.tf() {
        for i in 0..served.num_nodes() {
            max_diff = max_diff.max((direct.at(&[0, t, i, 0]) - forecast.values.at(&[t, i])).abs());
        }
    }
    println!(
        "\nserved vs in-process forecast max |diff| = {max_diff} (identical: {})",
        max_diff == 0.0
    );

    let stats = server.stats();
    println!(
        "server stats: {} requests, {} batches, p50 {:?}, p95 {:?}",
        stats.requests, stats.batches, stats.p50_latency, stats.p95_latency
    );
    server.shutdown().expect("clean shutdown");
    Ok(())
}
