//! Model registry: named, versioned checkpoints plus the recipe to rebuild a
//! live model from each.
//!
//! Tensors in this codebase are `Rc`-based and not `Send`, so a registry
//! cannot hand live models across threads. Instead it stores each version as
//! a `Send + Sync` bundle — checkpoint, scaler, and a factory closure — and
//! every worker thread instantiates its own replica on demand. A reload
//! simply publishes a new generation; workers notice the generation change
//! the next time they start a micro-batch, which gives hot-swap semantics
//! where in-flight batches finish on the version they started with.

use crate::error::ServeError;
use crate::lockorder::OrderedMutex;
use d2stgnn_core::checkpoint::{self, Checkpoint};
use d2stgnn_core::TrafficModel;
use d2stgnn_data::StandardScaler;
use d2stgnn_tensor::nn::Module;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Builds a fresh, un-restored model instance. Must be deterministic in
/// architecture (the checkpoint supplies the weights).
pub type ModelFactory = Arc<dyn Fn() -> Box<dyn TrafficModel> + Send + Sync>;

/// One immutable registered version of a model.
pub struct ModelVersion {
    name: String,
    generation: u64,
    checkpoint: Arc<Checkpoint>,
    scaler: StandardScaler,
    factory: ModelFactory,
    /// Expected input window shape `[T_h, N]` (channel dim fixed at 1).
    input_shape: [usize; 2],
    /// Forecast horizon `T_f` produced by this model.
    horizon: usize,
    /// Time-of-day slots the model's embedding table covers, if it has one.
    steps_per_day: Option<usize>,
}

impl ModelVersion {
    /// Registered model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Monotone generation stamp; bumped by every register/reload.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Train-split scaler applied to inputs and inverted on outputs.
    pub fn scaler(&self) -> StandardScaler {
        self.scaler
    }

    /// Expected input window shape `[T_h, N]`.
    pub fn input_shape(&self) -> [usize; 2] {
        self.input_shape
    }

    /// Forecast horizon `T_f`.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Time-of-day slots per day the model indexes (`None` when it ignores
    /// `tod`); request validation rejects any slot at or past it.
    pub fn steps_per_day(&self) -> Option<usize> {
        self.steps_per_day
    }

    /// Build a live replica of this version (factory + checkpoint restore).
    pub fn instantiate(&self) -> Result<Box<dyn TrafficModel>, ServeError> {
        let model = (self.factory)();
        let module: &dyn Module = model.as_ref();
        checkpoint::restore(module, &self.checkpoint)?;
        Ok(model)
    }
}

/// Thread-safe map of named model versions with hot-swap reload.
pub struct ModelRegistry {
    entries: OrderedMutex<HashMap<String, Arc<ModelVersion>>>,
    generation: AtomicU64,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self {
            entries: OrderedMutex::new("serve.registry.entries", HashMap::new()),
            generation: AtomicU64::new(0),
        }
    }
}

impl ModelRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn next_generation(&self) -> u64 {
        // relaxed: generation stamps only need uniqueness; publication happens under the registry mutex
        self.generation.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Register (or replace) a model under `name`. The checkpoint's
    /// integrity metadata is verified and one replica is instantiated to
    /// prove the factory and checkpoint agree on shapes. Returns the new
    /// generation stamp.
    pub fn register(
        &self,
        name: &str,
        factory: ModelFactory,
        checkpoint: Checkpoint,
        scaler: StandardScaler,
        input_shape: [usize; 2],
    ) -> Result<u64, ServeError> {
        checkpoint.verify_integrity()?;
        let generation = self.next_generation();
        let version = ModelVersion {
            name: name.to_string(),
            generation,
            checkpoint: Arc::new(checkpoint),
            scaler,
            factory,
            input_shape,
            horizon: 0,
            steps_per_day: None,
        };
        let probe = version.instantiate()?;
        let version = ModelVersion {
            horizon: probe.horizon(),
            steps_per_day: probe.steps_per_day(),
            ..version
        };
        self.entries
            .lock()
            .insert(name.to_string(), Arc::new(version));
        Ok(generation)
    }

    /// Swap in a new checkpoint for an existing model, keeping its factory,
    /// scaler, and shapes. Returns the new generation stamp. Requests
    /// already being processed finish on the previous version; new
    /// micro-batches pick up this one.
    pub fn reload(&self, name: &str, checkpoint: Checkpoint) -> Result<u64, ServeError> {
        checkpoint.verify_integrity()?;
        let current = self
            .get(name)
            .ok_or_else(|| ServeError::UnknownModel(name.to_string()))?;
        let generation = self.next_generation();
        let version = ModelVersion {
            name: current.name.clone(),
            generation,
            checkpoint: Arc::new(checkpoint),
            scaler: current.scaler,
            factory: current.factory.clone(),
            input_shape: current.input_shape,
            horizon: current.horizon,
            steps_per_day: current.steps_per_day,
        };
        version.instantiate()?;
        self.entries
            .lock()
            .insert(name.to_string(), Arc::new(version));
        Ok(generation)
    }

    /// Current version of a model, if registered.
    pub fn get(&self, name: &str) -> Option<Arc<ModelVersion>> {
        self.entries.lock().get(name).cloned()
    }

    /// Names of all registered models, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.lock().keys().cloned().collect();
        names.sort();
        names
    }
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelRegistry")
            .field("models", &self.names())
            .finish()
    }
}
