//! Shared experiment harness: builds any model of the paper's tables, trains
//! it at the requested size profile, evaluates it on the test split, and
//! returns the rows the tables print.

use d2stgnn_baselines::{
    evaluate_classical, Astgcn, ClassicalForecaster, Dcrnn, Dgcrn, FcLstm, Gman, GraphWaveNet,
    HistoricalAverage, LinearSvr, Mtgnn, Stgcn, Stsgcn, VectorAutoRegression,
};
use d2stgnn_core::{BlockOrder, D2stgnn, D2stgnnConfig, TrafficModel, TrainConfig, Trainer};
use d2stgnn_data::{DatasetId, Metrics, Profile, Split, WindowedDataset};
use d2stgnn_tensor::pool;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// D²STGNN variants appearing across Tables 3–5.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum D2Variant {
    /// Full model.
    Full,
    /// D²STGNN† — static pre-defined graph (Table 4, `w/o dg`).
    StaticGraph,
    /// D²STGNN‡ — coupled (no gate, no residual), static graph (Table 4).
    Coupled,
    /// `switch`: inherent block first.
    Switch,
    /// `w/o gate`.
    WithoutGate,
    /// `w/o res`.
    WithoutResidual,
    /// `w/o apt`.
    WithoutAdaptive,
    /// `w/o gru`.
    WithoutGru,
    /// `w/o msa`.
    WithoutMsa,
    /// `w/o ar`.
    WithoutAutoregression,
    /// `w/o cl` (training-strategy ablation; model itself is the full one).
    WithoutCurriculum,
}

impl D2Variant {
    /// Paper row label.
    pub fn label(&self) -> &'static str {
        match self {
            D2Variant::Full => "D2STGNN",
            D2Variant::StaticGraph => "D2STGNN+", // dagger
            D2Variant::Coupled => "D2STGNN++",    // double dagger
            D2Variant::Switch => "switch",
            D2Variant::WithoutGate => "w/o gate",
            D2Variant::WithoutResidual => "w/o res",
            D2Variant::WithoutAdaptive => "w/o apt",
            D2Variant::WithoutGru => "w/o gru",
            D2Variant::WithoutMsa => "w/o msa",
            D2Variant::WithoutAutoregression => "w/o ar",
            D2Variant::WithoutCurriculum => "w/o cl",
        }
    }

    /// Apply the variant to a config.
    pub fn apply(&self, cfg: &mut D2stgnnConfig) {
        match self {
            D2Variant::Full | D2Variant::WithoutCurriculum => {}
            D2Variant::StaticGraph => cfg.use_dynamic_graph = false,
            D2Variant::Coupled => {
                cfg.use_gate = false;
                cfg.use_residual = false;
                cfg.use_dynamic_graph = false;
            }
            D2Variant::Switch => cfg.order = BlockOrder::InherentFirst,
            D2Variant::WithoutGate => cfg.use_gate = false,
            D2Variant::WithoutResidual => cfg.use_residual = false,
            D2Variant::WithoutAdaptive => cfg.use_adaptive = false,
            D2Variant::WithoutGru => cfg.use_gru = false,
            D2Variant::WithoutMsa => cfg.use_msa = false,
            D2Variant::WithoutAutoregression => cfg.use_autoregressive = false,
        }
    }

    /// Whether curriculum learning is enabled when training this variant.
    pub fn curriculum(&self) -> bool {
        !matches!(self, D2Variant::WithoutCurriculum)
    }

    /// The "w/o decouple" row of Table 5 is the coupled model with the
    /// dynamic graph still on; expose it for the ablation table.
    pub fn apply_decouple_only(cfg: &mut D2stgnnConfig) {
        cfg.use_gate = false;
        cfg.use_residual = false;
    }
}

/// Any model the experiment binaries can run.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelSpec {
    /// Historical Average.
    Ha,
    /// VAR(3), ridge-regularized.
    Var,
    /// Linear epsilon-insensitive SVR.
    Svr,
    /// FC-LSTM seq2seq.
    FcLstm,
    /// DCRNN-lite.
    Dcrnn,
    /// STGCN-lite.
    Stgcn,
    /// Graph WaveNet-lite.
    GWnet,
    /// ASTGCN-lite (attention-based ST-GCN).
    Astgcn,
    /// STSGCN-lite (synchronous block-graph convolution).
    Stsgcn,
    /// MTGNN-lite (mix-hop + dilated inception).
    Mtgnn,
    /// GMAN-lite (graph multi-attention).
    Gman,
    /// DGCRN-lite; `dynamic = false` is the DGCRN† of Table 4.
    Dgcrn {
        /// Per-step dynamic graph generation on/off.
        dynamic: bool,
    },
    /// D²STGNN family member.
    D2(D2Variant),
    /// The Table 5 `w/o decouple` row (coupled blocks, dynamic graph kept).
    D2WithoutDecouple,
}

impl ModelSpec {
    /// Paper row label.
    pub fn label(&self) -> String {
        match self {
            ModelSpec::Ha => "HA".into(),
            ModelSpec::Var => "VAR".into(),
            ModelSpec::Svr => "SVR".into(),
            ModelSpec::FcLstm => "FC-LSTM".into(),
            ModelSpec::Dcrnn => "DCRNN".into(),
            ModelSpec::Stgcn => "STGCN".into(),
            ModelSpec::GWnet => "GWNet".into(),
            ModelSpec::Astgcn => "ASTGCN".into(),
            ModelSpec::Stsgcn => "STSGCN".into(),
            ModelSpec::Mtgnn => "MTGNN".into(),
            ModelSpec::Gman => "GMAN".into(),
            ModelSpec::Dgcrn { dynamic: true } => "DGCRN".into(),
            ModelSpec::Dgcrn { dynamic: false } => "DGCRN+".into(),
            ModelSpec::D2(v) => v.label().into(),
            ModelSpec::D2WithoutDecouple => "w/o decouple".into(),
        }
    }

    /// The Table 3 lineup, in the paper's order.
    pub fn table3_lineup() -> Vec<ModelSpec> {
        vec![
            ModelSpec::Ha,
            ModelSpec::Var,
            ModelSpec::Svr,
            ModelSpec::FcLstm,
            ModelSpec::Dcrnn,
            ModelSpec::Stgcn,
            ModelSpec::GWnet,
            ModelSpec::D2(D2Variant::Full),
        ]
    }

    /// The full Table 3 lineup including the attention-family baselines
    /// (ASTGCN, STSGCN, MTGNN, GMAN, DGCRN), in the paper's order.
    pub fn table3_extended_lineup() -> Vec<ModelSpec> {
        vec![
            ModelSpec::Ha,
            ModelSpec::Var,
            ModelSpec::Svr,
            ModelSpec::FcLstm,
            ModelSpec::Dcrnn,
            ModelSpec::Stgcn,
            ModelSpec::GWnet,
            ModelSpec::Astgcn,
            ModelSpec::Stsgcn,
            ModelSpec::Mtgnn,
            ModelSpec::Gman,
            ModelSpec::Dgcrn { dynamic: true },
            ModelSpec::D2(D2Variant::Full),
        ]
    }
}

/// One row of an experiment table.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunResult {
    /// Model label.
    pub model: String,
    /// Dataset name.
    pub dataset: String,
    /// Metrics at horizons 3, 6, 12.
    pub horizons: Vec<(usize, Metrics)>,
    /// Mean seconds per training epoch (0 for classical models).
    pub avg_epoch_seconds: f64,
    /// Scalar parameter count (0 for classical models).
    pub params: usize,
}

/// Model sizes per profile: `(hidden, emb, layers, heads)`.
pub fn model_size(profile: Profile) -> (usize, usize, usize, usize) {
    match profile {
        Profile::Fast => (8, 4, 1, 2),
        Profile::Scaled => (16, 8, 2, 2),
        Profile::Full => (32, 12, 2, 4), // Section 6.1
    }
}

/// Training schedule per profile.
pub fn train_config(profile: Profile, curriculum: bool, seed: u64) -> TrainConfig {
    let (max_epochs, patience, cl_step, batch_size) = match profile {
        Profile::Fast => (2, 2, 8, 32),
        Profile::Scaled => (12, 2, 4, 48),
        Profile::Full => (100, 10, 300, 32),
    };
    // D2_MAX_EPOCHS overrides the schedule (used to trim long sweeps).
    let max_epochs = std::env::var("D2_MAX_EPOCHS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(max_epochs);
    TrainConfig {
        max_epochs,
        patience,
        cl_step,
        batch_size,
        curriculum,
        lr_decay: 0.7,
        lr_decay_every: 6,
        verbose: std::env::var_os("D2_VERBOSE").is_some(),
        seed,
        ..TrainConfig::default()
    }
}

/// Build a D²STGNN config for the dataset/profile.
pub fn d2_config(data: &WindowedDataset, profile: Profile) -> D2stgnnConfig {
    let (hidden, emb, layers, heads) = model_size(profile);
    let mut cfg = D2stgnnConfig::new(data.num_nodes());
    cfg.hidden = hidden;
    cfg.emb_dim = emb;
    cfg.layers = layers;
    cfg.heads = heads;
    cfg.th = data.th();
    cfg.tf = data.tf();
    cfg.steps_per_day = data.data().steps_per_day;
    cfg.dropout = 0.1;
    cfg
}

/// Run one model on one dataset; trains neural models, fits classical ones.
pub fn run_model(
    spec: &ModelSpec,
    dataset: DatasetId,
    data: &WindowedDataset,
    profile: Profile,
    seed: u64,
) -> RunResult {
    let null_val = 0.0;
    match spec {
        ModelSpec::Ha => {
            run_classical_model(&mut HistoricalAverage::new(), dataset, data, null_val)
        }
        ModelSpec::Var => run_classical_model(
            &mut VectorAutoRegression::new(3, 1.0),
            dataset,
            data,
            null_val,
        ),
        ModelSpec::Svr => run_classical_model(&mut LinearSvr::new(), dataset, data, null_val),
        _ => {
            let curriculum = match spec {
                ModelSpec::D2(variant) => variant.curriculum(),
                _ => true,
            };
            let cfg = train_config(profile, curriculum, seed);
            run_neural_model(spec, dataset, data, profile, seed, cfg)
        }
    }
}

fn run_classical_model<F: ClassicalForecaster>(
    model: &mut F,
    dataset: DatasetId,
    data: &WindowedDataset,
    null_val: f32,
) -> RunResult {
    model.fit(data);
    let (_, _, horizons) = evaluate_classical(model, data, Split::Test, null_val);
    RunResult {
        model: model.name(),
        dataset: dataset.name().to_string(),
        horizons,
        avg_epoch_seconds: 0.0,
        params: 0,
    }
}

/// Build the neural model for `spec`, train it under `cfg`, and evaluate it
/// on the test split. D²STGNN-family rows carry their paper label.
fn run_neural_model(
    spec: &ModelSpec,
    dataset: DatasetId,
    data: &WindowedDataset,
    profile: Profile,
    seed: u64,
    cfg: TrainConfig,
) -> RunResult {
    let mut result = with_neural_model(spec, data, profile, seed, |model| {
        let trainer = Trainer::new(cfg);
        let report = trainer.train(model, data).expect("training failed");
        let eval = trainer.evaluate(model, data, Split::Test);
        RunResult {
            model: model.name(),
            dataset: dataset.name().to_string(),
            horizons: eval.horizons,
            avg_epoch_seconds: report.avg_epoch_seconds,
            params: model.num_parameters(),
        }
    });
    if matches!(spec, ModelSpec::D2(_) | ModelSpec::D2WithoutDecouple) {
        result.model = spec.label();
    }
    result
}

/// Like [`run_model`] but with a fixed two-epoch schedule: used by the
/// Figure 6 timing comparison, where only seconds-per-epoch matters.
pub fn run_timing(
    spec: &ModelSpec,
    dataset: DatasetId,
    data: &WindowedDataset,
    profile: Profile,
    seed: u64,
) -> RunResult {
    if matches!(spec, ModelSpec::Ha | ModelSpec::Var | ModelSpec::Svr) {
        return run_model(spec, dataset, data, profile, seed);
    }
    let mut cfg = train_config(profile, true, seed);
    cfg.max_epochs = 2;
    cfg.patience = 2;
    run_neural_model(spec, dataset, data, profile, seed, cfg)
}

/// Build the neural model for `spec` and hand it to `f`. Every model draws
/// its weights from a fresh `seed`-seeded generator, so the same seed builds
/// the same weights.
fn with_neural_model<T>(
    spec: &ModelSpec,
    data: &WindowedDataset,
    profile: Profile,
    seed: u64,
    f: impl FnOnce(&dyn TrafficModel) -> T,
) -> T {
    let (hidden, _, _, heads) = model_size(profile);
    let mut rng = StdRng::seed_from_u64(seed);
    let net = data.data().network.clone();
    match spec {
        ModelSpec::FcLstm => f(&FcLstm::new(
            data.num_nodes(),
            hidden * 4,
            data.tf(),
            &mut rng,
        )),
        ModelSpec::Dcrnn => f(&Dcrnn::new(&net, hidden, 2, data.tf(), &mut rng)),
        ModelSpec::Stgcn => f(&Stgcn::new(&net, hidden, data.tf(), &mut rng)),
        ModelSpec::GWnet => f(&GraphWaveNet::new(&net, hidden, data.tf(), true, &mut rng)),
        ModelSpec::Astgcn => f(&Astgcn::new(&net, hidden, data.tf(), &mut rng)),
        ModelSpec::Stsgcn => f(&Stsgcn::new(&net, hidden, data.tf(), &mut rng)),
        ModelSpec::Mtgnn => f(&Mtgnn::new(data.num_nodes(), hidden, data.tf(), &mut rng)),
        ModelSpec::Gman => f(&Gman::new(
            data.num_nodes(),
            data.data().steps_per_day,
            hidden,
            heads,
            2,
            data.tf(),
            &mut rng,
        )),
        ModelSpec::Dgcrn { dynamic } => {
            f(&Dgcrn::new(&net, hidden, 2, data.tf(), *dynamic, &mut rng))
        }
        ModelSpec::D2(variant) => {
            let mut cfg = d2_config(data, profile);
            variant.apply(&mut cfg);
            f(&D2stgnn::new(cfg, &net, &mut rng))
        }
        ModelSpec::D2WithoutDecouple => {
            let mut cfg = d2_config(data, profile);
            D2Variant::apply_decouple_only(&mut cfg);
            f(&D2stgnn::new(cfg, &net, &mut rng))
        }
        ModelSpec::Ha | ModelSpec::Var | ModelSpec::Svr => {
            unreachable!("classical models have no neural constructor")
        }
    }
}

/// Write results as JSON under `target/experiments/<name>.json`, plus the
/// companion `BENCH_<name>.json` telemetry artifact (see
/// [`write_bench_artifact`]).
pub fn save_results(name: &str, results: &[RunResult]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(results).expect("results serialize");
    std::fs::write(&path, &json)?;
    write_bench_artifact(name, "null", &json)?;
    Ok(path)
}

/// Schema tag stamped into every `BENCH_<name>.json` artifact.
pub const BENCH_SCHEMA: &str = "d2stgnn-bench-v1";

/// Write `target/experiments/BENCH_<name>.json`: a self-describing benchmark
/// artifact bundling a unique run id, the configuration that produced the
/// run, its metrics, and the run's results. The metrics are a snapshot of
/// the telemetry registry (counters and histograms, empty unless built with
/// the `obsv` feature) plus, under `pool`, the tensor compute pool's six
/// series read from `pool::stats()` in either build. `config_json` and
/// `results_json` must be valid JSON documents (pass `"null"` when there is
/// nothing to record).
pub fn write_bench_artifact(
    name: &str,
    config_json: &str,
    results_json: &str,
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(
        &path,
        compose_bench_artifact(name, config_json, results_json)?,
    )?;
    Ok(path)
}

fn compose_bench_artifact(
    name: &str,
    config_json: &str,
    results_json: &str,
) -> std::io::Result<String> {
    let parse = |label: &str, s: &str| -> std::io::Result<serde::Value> {
        serde_json::from_str(s).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bench artifact {label} is not valid JSON: {e}"),
            )
        })
    };
    let config = parse("config", config_json)?;
    let results = parse("results", results_json)?;
    let mut metrics = parse("metrics", &d2stgnn_obsv::registry().snapshot().to_json())?;
    if let serde::Value::Object(fields) = &mut metrics {
        let pool = pool::stats().series().into_iter().map(|(name, _, value)| {
            (
                name.to_string(),
                serde::Value::Number(serde::Number::PosInt(value)),
            )
        });
        fields.push(("pool".into(), serde::Value::Object(pool.collect())));
    }
    let doc = serde::Value::Object(vec![
        ("schema".into(), serde::Value::String(BENCH_SCHEMA.into())),
        ("run_id".into(), serde::Value::String(bench_run_id())),
        ("name".into(), serde::Value::String(name.into())),
        ("config".into(), config),
        ("metrics".into(), metrics),
        ("results".into(), results),
    ]);
    let mut json = serde_json::to_string_pretty(&doc).expect("artifact serialize");
    json.push('\n');
    Ok(json)
}

/// Best-effort unique id for one benchmark invocation: wall-clock micros
/// since the epoch plus the process id, both in hex.
fn bench_run_id() -> String {
    let micros = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros())
        .unwrap_or(0);
    format!("{micros:x}-{:x}", std::process::id())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_artifact_carries_schema_run_id_and_payloads() {
        let json = compose_bench_artifact("unit", r#"{"epochs":2}"#, r#"[{"mae":1.5}]"#).unwrap();
        let doc: serde::Value = serde_json::from_str(&json).unwrap();
        let serde::Value::Object(fields) = doc else {
            panic!("artifact must be an object");
        };
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}"))
        };
        assert_eq!(get("schema"), &serde::Value::String(BENCH_SCHEMA.into()));
        assert!(matches!(get("run_id"), serde::Value::String(s) if !s.is_empty()));
        assert_eq!(get("name"), &serde::Value::String("unit".into()));
        assert!(matches!(get("config"), serde::Value::Object(_)));
        let serde::Value::Object(metrics) = get("metrics") else {
            panic!("metrics must be an object");
        };
        let keys: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["counters", "histograms", "pool"]);
        let Some((_, serde::Value::Object(pool))) = metrics.last() else {
            panic!("pool must be an object");
        };
        let names: Vec<&str> = pool.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = pool::stats().series().iter().map(|s| s.0).collect();
        assert_eq!(names, want);
        assert!(matches!(get("results"), serde::Value::Array(_)));
        assert!(compose_bench_artifact("bad", "{not json", "null").is_err());
    }

    #[test]
    fn lineup_matches_paper_order() {
        let labels: Vec<String> = ModelSpec::table3_lineup()
            .iter()
            .map(|s| s.label())
            .collect();
        assert_eq!(
            labels,
            vec!["HA", "VAR", "SVR", "FC-LSTM", "DCRNN", "STGCN", "GWNet", "D2STGNN"]
        );
    }

    #[test]
    fn variants_mutate_configs() {
        let mut cfg = D2stgnnConfig::new(10);
        D2Variant::Coupled.apply(&mut cfg);
        assert!(!cfg.use_gate && !cfg.use_residual && !cfg.use_dynamic_graph);
        let mut cfg = D2stgnnConfig::new(10);
        D2Variant::Switch.apply(&mut cfg);
        assert_eq!(cfg.order, BlockOrder::InherentFirst);
        assert!(D2Variant::Full.curriculum());
        assert!(!D2Variant::WithoutCurriculum.curriculum());
    }

    #[test]
    fn profiles_scale_sizes() {
        let (h1, ..) = model_size(Profile::Fast);
        let (h3, e3, _, heads3) = model_size(Profile::Full);
        assert!(h1 < h3);
        assert_eq!((h3, e3, heads3), (32, 12, 4)); // Section 6.1
    }

    #[test]
    fn classical_run_end_to_end() {
        let data = WindowedDataset::new(
            d2stgnn_data::simulate(&d2stgnn_data::SimulatorConfig::tiny()),
            12,
            12,
            (0.7, 0.1, 0.2),
        );
        let r = run_model(&ModelSpec::Ha, DatasetId::MetrLa, &data, Profile::Fast, 0);
        assert_eq!(r.model, "HA");
        assert_eq!(r.dataset, "METR-LA");
        assert_eq!(r.horizons.len(), 3);
        assert!(r.horizons[0].1.mae > 0.0);
    }
}
