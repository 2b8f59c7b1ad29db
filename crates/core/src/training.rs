//! Training loop (Section 5.4): Adam on masked MAE with curriculum learning
//! (the supervised horizon grows during training) and early stopping on
//! validation MAE, as in the paper's implementation.
//!
//! The loop is fault tolerant: it can persist a full-state checkpoint
//! ([`crate::checkpoint::TrainState`], format v3) at epoch boundaries and at
//! a configurable mid-epoch cadence via crash-safe atomic writes, resume a
//! killed run bit-identically ([`TrainConfig::resume_from`]), and recover
//! from divergence (non-finite loss or gradient norm) by rolling back to the
//! last good state with a halved learning rate, up to
//! [`TrainConfig::divergence_retries`] times before reporting
//! [`TrainError::Diverged`].

use crate::checkpoint::{self, TrainState};
use crate::error::TrainError;
use crate::traits::TrafficModel;
use d2stgnn_data::{metrics, Metrics, Split, WindowedDataset};
use d2stgnn_tensor::losses::masked_mae_loss;
use d2stgnn_tensor::optim::{clip_grad_norm, Adam, Optimizer};
use d2stgnn_tensor::{Array, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Instant;

/// Trainer configuration. Defaults mirror Section 6.1 (Adam, lr 1e-3,
/// batch 32, early stopping) at CPU-friendly epoch counts.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Adam learning rate.
    pub lr: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Maximum epochs.
    pub max_epochs: usize,
    /// Early-stopping patience (epochs without val improvement).
    pub patience: usize,
    /// Global gradient-norm clip.
    pub clip_norm: f32,
    /// Curriculum learning (`w/o cl` disables): the supervised horizon starts
    /// at 1 and increases by one every `cl_step` iterations.
    pub curriculum: bool,
    /// Iterations per curriculum increment.
    pub cl_step: usize,
    /// Multiply the learning rate by this factor every `lr_decay_every`
    /// epochs (1.0 disables; the common traffic-forecasting recipe decays
    /// by 0.5 a few times over training).
    pub lr_decay: f32,
    /// Epochs between learning-rate decays.
    pub lr_decay_every: usize,
    /// Null value masked out of the loss and metrics (0 = failed sensor).
    pub null_val: f32,
    /// RNG seed for shuffling and dropout.
    pub seed: u64,
    /// Print per-epoch progress to stderr.
    pub verbose: bool,
    /// Write a full-state checkpoint (format v3) to this path, crash-safely,
    /// at every epoch boundary and every
    /// [`TrainConfig::checkpoint_every_batches`] batches. `None` disables
    /// persistence (divergence rollback still works from the in-memory
    /// restore point).
    pub checkpoint_path: Option<String>,
    /// Mid-epoch checkpoint cadence in batches (0 = epoch boundaries only).
    /// Also how often the in-memory divergence restore point is refreshed.
    pub checkpoint_every_batches: usize,
    /// Resume from this v3 full-state checkpoint before training: the run
    /// continues exactly where it stopped (same shuffle order, dropout
    /// stream, optimizer moments, curriculum level, and early-stopping
    /// bookkeeping), producing bit-identical final parameters.
    pub resume_from: Option<String>,
    /// Divergence rollbacks allowed before the run fails with
    /// [`TrainError::Diverged`]. Each rollback restores the last good state
    /// and halves the learning rate.
    pub divergence_retries: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            batch_size: 32,
            max_epochs: 30,
            patience: 5,
            clip_norm: 5.0,
            curriculum: true,
            cl_step: 30,
            lr_decay: 1.0,
            lr_decay_every: 10,
            null_val: 0.0,
            seed: 7,
            verbose: false,
            checkpoint_path: None,
            checkpoint_every_batches: 0,
            resume_from: None,
            divergence_retries: 3,
        }
    }
}

impl TrainConfig {
    /// A very short schedule for smoke tests.
    pub fn fast() -> Self {
        Self {
            max_epochs: 3,
            patience: 3,
            cl_step: 10,
            ..Self::default()
        }
    }
}

/// Statistics of one training epoch. After a mid-epoch resume, `seconds`
/// covers only the portion of the epoch run by the resuming process.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss (real-scale masked MAE over supervised horizons).
    pub train_loss: f32,
    /// Validation MAE over all horizons.
    pub val_mae: f32,
    /// Wall-clock seconds for the epoch's training phase.
    pub seconds: f64,
}

/// Result of a training run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainReport {
    /// Per-epoch statistics.
    pub epochs: Vec<EpochStats>,
    /// Best validation MAE seen.
    pub best_val_mae: f32,
    /// Epoch index of the best validation MAE.
    pub best_epoch: usize,
    /// Mean training seconds per epoch (Figure 6's quantity).
    pub avg_epoch_seconds: f64,
    /// Divergence rollbacks consumed over the whole run.
    pub rollbacks: usize,
    /// Learning rate in effect when training finished (after schedules and
    /// divergence halving).
    pub final_lr: f32,
}

/// Per-split evaluation output.
#[derive(Clone, Debug)]
pub struct EvalResult {
    /// Stacked de-normalized predictions `[S, T_f, N]`.
    pub pred: Array,
    /// Stacked raw targets `[S, T_f, N]`.
    pub target: Array,
    /// Metrics over all horizons jointly.
    pub overall: Metrics,
    /// Metrics at the paper's reporting horizons (3, 6, 12 when available).
    pub horizons: Vec<(usize, Metrics)>,
}

/// In-memory rollback target: parameter values plus the matching
/// [`TrainState`], captured at the same points a checkpoint would be written.
struct Restorepoint {
    params: Vec<Array>,
    state: TrainState,
}

/// Orchestrates optimization, curriculum, early stopping, evaluation, and
/// fault tolerance (checkpoint/resume/rollback).
pub struct Trainer {
    cfg: TrainConfig,
}

impl Trainer {
    /// New trainer.
    pub fn new(cfg: TrainConfig) -> Self {
        Self { cfg }
    }

    /// Trainer configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.cfg
    }

    /// Train `model` on the dataset's train split, early-stopping on the
    /// validation split, restoring the best parameters before returning.
    ///
    /// # Errors
    /// * [`TrainError::EmptyValidation`] if the validation split has no
    ///   windows (early stopping would track all-zero metrics and freeze the
    ///   epoch-0 parameters as "best").
    /// * [`TrainError::Diverged`] if a non-finite loss or gradient norm
    ///   survives every rollback in [`TrainConfig::divergence_retries`].
    /// * [`TrainError::Checkpoint`] / [`TrainError::ResumeMismatch`] for
    ///   unreadable, corrupt, or incompatible checkpoint files.
    pub fn train<M: TrafficModel + ?Sized>(
        &self,
        model: &M,
        data: &WindowedDataset,
    ) -> Result<TrainReport, TrainError> {
        if data.is_empty(Split::Val) {
            return Err(TrainError::EmptyValidation);
        }
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut opt = Adam::new(model.parameters(), self.cfg.lr);
        let params = model.parameters();
        let scaler = *data.scaler();
        let tf = data.tf();

        // The loop state. Its config, optimizer, lr, rng and checksum fields
        // are never read: `restorepoint` fills them in from the trainer, the
        // live optimizer and the RNG when it captures the state.
        let mut vars = TrainState {
            config: self.cfg.clone(),
            epoch: 0,
            batch_cursor: 0,
            epoch_order: Vec::new(),
            iteration: 0,
            loss_sum: 0.0,
            loss_count: 0,
            max_level: if self.cfg.curriculum { 1 } else { tf },
            since_best: 0,
            best_val_mae: None,
            best_epoch: 0,
            best_params: None,
            epochs: Vec::new(),
            optimizer: opt.export_state(),
            lr: opt.learning_rate(),
            rng: rng.state().to_vec(),
            rollbacks: 0,
            state_checksum: None,
        };

        if let Some(path) = &self.cfg.resume_from {
            let ckpt = checkpoint::read(Path::new(path))?;
            let state = ckpt.train.as_ref().ok_or_else(|| {
                TrainError::ResumeMismatch(format!(
                    "{path} is a model-only (v{}) checkpoint without training state",
                    ckpt.version
                ))
            })?;
            self.check_resume_config(&state.config)?;
            checkpoint::restore(model, &ckpt)?;
            apply_state(state, &mut vars, &mut opt, &mut rng)?;
            d2stgnn_obsv::counter_add!("d2stgnn_core_train_resume_total", 1);
            d2stgnn_obsv::event!(
                "d2stgnn_core_train_resume",
                epoch = vars.epoch,
                iteration = vars.iteration,
                batch_cursor = vars.batch_cursor
            );
            if self.cfg.verbose {
                d2stgnn_obsv::console_line(&format!(
                    "[{}] resumed from {path}: epoch {} batch {} iteration {}",
                    model.name(),
                    vars.epoch,
                    vars.batch_cursor,
                    vars.iteration
                ));
            }
        }

        let mut last_good = self.restorepoint(&params, &vars, &opt, &rng);

        'training: while vars.epoch < self.cfg.max_epochs {
            let epoch = vars.epoch;
            if vars.epoch_order.is_empty() && vars.batch_cursor == 0 {
                // Fresh epoch (not a mid-epoch resume): apply the lr
                // schedule, then draw the shuffled window order.
                if self.cfg.lr_decay != 1.0
                    && epoch > 0
                    && self.cfg.lr_decay_every > 0
                    && epoch.is_multiple_of(self.cfg.lr_decay_every)
                {
                    opt.set_learning_rate(opt.learning_rate() * self.cfg.lr_decay);
                }
                vars.epoch_order = data
                    .epoch_batches(Split::Train, self.cfg.batch_size, true, &mut rng)
                    .into_iter()
                    .flatten()
                    .collect();
                vars.loss_sum = 0.0;
                vars.loss_count = 0;
            }
            let mut epoch_span = d2stgnn_obsv::span!("d2stgnn_core_train_epoch", epoch = epoch);
            d2stgnn_obsv::record!(epoch_span, lr = f64::from(opt.learning_rate()));
            let start = Instant::now();
            let bs = self.cfg.batch_size.max(1);
            let num_batches = vars.epoch_order.len().div_ceil(bs);
            while vars.batch_cursor < num_batches {
                let mut batch_span = d2stgnn_obsv::span!("d2stgnn_core_train_batch");
                let lo = vars.batch_cursor * bs;
                let hi = (lo + bs).min(vars.epoch_order.len());
                let idx: Vec<usize> = vars.epoch_order[lo..hi].to_vec();
                let batch = data.batch(Split::Train, &idx);
                // Curriculum: supervise horizons 1..=level.
                let level = if self.cfg.curriculum {
                    (1 + vars.iteration / self.cfg.cl_step.max(1)).min(tf)
                } else {
                    tf
                };
                vars.max_level = vars.max_level.max(level);
                let pred_norm = model.forward(&batch, true, &mut rng);
                let pred = pred_norm.scale(scaler.std()).add_scalar(scaler.mean());
                let target = Tensor::constant(batch.y.clone());
                let (pred_sup, target_sup) = if level < tf {
                    (pred.slice_axis(1, 0, level), target.slice_axis(1, 0, level))
                } else {
                    (pred, target)
                };
                let loss = masked_mae_loss(&pred_sup, &target_sup, self.cfg.null_val);
                let loss_val = loss.item();
                let mut grad_norm = f32::NAN;
                let mut diverged = !loss_val.is_finite();
                if !diverged {
                    loss.backward();
                    grad_norm = clip_grad_norm(&params, self.cfg.clip_norm);
                    // A non-finite norm means clipping was a no-op and the
                    // gradients are poisoned; do not let Adam consume them.
                    diverged = !grad_norm.is_finite();
                }
                if diverged {
                    for p in &params {
                        p.zero_grad();
                    }
                    d2stgnn_obsv::counter_add!("d2stgnn_core_train_divergence_total", 1);
                    d2stgnn_obsv::event!(
                        "d2stgnn_core_train_divergence",
                        epoch = epoch,
                        iteration = vars.iteration,
                        loss = f64::from(loss_val),
                        grad_norm = f64::from(grad_norm)
                    );
                    if vars.rollbacks >= self.cfg.divergence_retries {
                        return Err(TrainError::Diverged {
                            epoch,
                            iteration: vars.iteration,
                            rollbacks: vars.rollbacks,
                        });
                    }
                    let consumed = vars.rollbacks + 1;
                    // Halve the restore point's lr so repeated rollbacks
                    // keep shrinking it.
                    last_good.state.lr *= 0.5;
                    for (p, v) in params.iter().zip(&last_good.params) {
                        p.set_value(v.clone());
                    }
                    apply_state(&last_good.state, &mut vars, &mut opt, &mut rng)?;
                    vars.rollbacks = consumed;
                    d2stgnn_obsv::counter_add!("d2stgnn_core_train_rollback_total", 1);
                    if self.cfg.verbose {
                        d2stgnn_obsv::console_line(&format!(
                            "[{}] divergence at epoch {epoch}: rolled back (retry {consumed}/{}) \
                             with lr {:.3e}",
                            model.name(),
                            self.cfg.divergence_retries,
                            opt.learning_rate()
                        ));
                    }
                    continue 'training;
                }
                opt.step();
                d2stgnn_obsv::counter_add!("d2stgnn_core_train_batches_total", 1);
                d2stgnn_obsv::record!(batch_span, level = level);
                d2stgnn_obsv::record!(batch_span, loss = loss_val);
                d2stgnn_obsv::record!(batch_span, grad_norm = grad_norm);
                d2stgnn_obsv::record!(
                    batch_span,
                    grad_norm_clipped = grad_norm.min(self.cfg.clip_norm)
                );
                d2stgnn_obsv::observe!("d2stgnn_core_train_grad_norm", f64::from(grad_norm));
                vars.loss_sum += loss_val as f64;
                vars.loss_count += 1;
                vars.iteration += 1;
                vars.batch_cursor += 1;
                if self.cfg.checkpoint_every_batches > 0
                    && vars
                        .batch_cursor
                        .is_multiple_of(self.cfg.checkpoint_every_batches)
                {
                    last_good = self.restorepoint(&params, &vars, &opt, &rng);
                    if let Some(path) = &self.cfg.checkpoint_path {
                        write_checkpoint(model, &last_good.state, path)?;
                    }
                }
            }
            let seconds = start.elapsed().as_secs_f64();

            let val = self.evaluate(model, data, Split::Val);
            let stats = EpochStats {
                epoch,
                train_loss: (vars.loss_sum / vars.loss_count.max(1) as f64) as f32,
                val_mae: val.overall.mae,
                seconds,
            };
            d2stgnn_obsv::record!(epoch_span, train_loss = stats.train_loss);
            d2stgnn_obsv::record!(epoch_span, val_mae = stats.val_mae);
            d2stgnn_obsv::record!(epoch_span, seconds = seconds);
            drop(epoch_span);
            if self.cfg.verbose {
                d2stgnn_obsv::console_line(&format!(
                    "[{}] epoch {epoch:3}: train {:.4}  val MAE {:.4}  ({seconds:.1}s)",
                    model.name(),
                    stats.train_loss,
                    stats.val_mae
                ));
            }
            vars.epochs.push(stats);

            let improved = vars.best_val_mae.is_none_or(|best| val.overall.mae < best);
            if improved {
                vars.best_val_mae = Some(val.overall.mae);
                vars.best_epoch = epoch;
                vars.best_params = Some(params.iter().map(Tensor::value).collect());
                vars.since_best = 0;
            } else {
                vars.since_best += 1;
            }

            // Epoch boundary: advance, refresh the restore point, persist.
            vars.epoch += 1;
            vars.batch_cursor = 0;
            vars.epoch_order.clear();
            vars.loss_sum = 0.0;
            vars.loss_count = 0;
            last_good = self.restorepoint(&params, &vars, &opt, &rng);
            if let Some(path) = &self.cfg.checkpoint_path {
                write_checkpoint(model, &last_good.state, path)?;
            }
            if !improved && vars.since_best >= self.cfg.patience {
                break;
            }
        }

        if vars.max_level < tf {
            d2stgnn_obsv::event!(
                "d2stgnn_core_train_curriculum_truncated",
                max_level = vars.max_level,
                horizon = tf
            );
            if self.cfg.verbose {
                d2stgnn_obsv::console_line(&format!(
                    "[{}] WARNING: curriculum only reached horizon {}/{tf}; horizons beyond \
                     that were never supervised. Lower cl_step or raise max_epochs.",
                    model.name(),
                    vars.max_level
                ));
            }
        }
        // Restore the best parameters (early-stopping checkpoint).
        if let Some(best) = vars.best_params {
            for (p, v) in params.iter().zip(best) {
                p.set_value(v);
            }
        }
        Ok(TrainReport {
            best_val_mae: vars.best_val_mae.unwrap_or(f32::INFINITY),
            best_epoch: vars.best_epoch,
            avg_epoch_seconds: vars.epochs.iter().map(|e| e.seconds).sum::<f64>()
                / vars.epochs.len().max(1) as f64,
            epochs: vars.epochs,
            rollbacks: vars.rollbacks,
            final_lr: opt.learning_rate(),
        })
    }

    /// Capture the in-memory rollback target (parameters + full state), the
    /// same payload a persisted checkpoint carries.
    fn restorepoint(
        &self,
        params: &[Tensor],
        vars: &TrainState,
        opt: &Adam,
        rng: &StdRng,
    ) -> Restorepoint {
        let mut state = TrainState {
            config: self.cfg.clone(),
            optimizer: opt.export_state(),
            lr: opt.learning_rate(),
            rng: rng.state().to_vec(),
            state_checksum: None,
            ..vars.clone()
        };
        state.state_checksum = Some(state.compute_checksum());
        Restorepoint {
            params: params.iter().map(Tensor::value).collect(),
            state,
        }
    }

    /// Reject resume checkpoints whose trajectory-affecting configuration
    /// differs from this trainer's. Bounds (`max_epochs`, `patience`) and
    /// I/O fields may differ — extending a finished run is legitimate.
    fn check_resume_config(&self, saved: &TrainConfig) -> Result<(), TrainError> {
        let c = &self.cfg;
        let mut diffs: Vec<&str> = Vec::new();
        if saved.lr != c.lr {
            diffs.push("lr");
        }
        if saved.batch_size != c.batch_size {
            diffs.push("batch_size");
        }
        if saved.clip_norm != c.clip_norm {
            diffs.push("clip_norm");
        }
        if saved.curriculum != c.curriculum {
            diffs.push("curriculum");
        }
        if saved.cl_step != c.cl_step {
            diffs.push("cl_step");
        }
        if saved.lr_decay != c.lr_decay {
            diffs.push("lr_decay");
        }
        if saved.lr_decay_every != c.lr_decay_every {
            diffs.push("lr_decay_every");
        }
        if !(saved.null_val == c.null_val || (saved.null_val.is_nan() && c.null_val.is_nan())) {
            diffs.push("null_val");
        }
        if saved.seed != c.seed {
            diffs.push("seed");
        }
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(TrainError::ResumeMismatch(format!(
                "checkpoint was written with different {}; resuming would not reproduce the \
                 interrupted trajectory",
                diffs.join(", ")
            )))
        }
    }

    /// Evaluate on a split: de-normalized predictions, per-horizon metrics.
    pub fn evaluate<M: TrafficModel + ?Sized>(
        &self,
        model: &M,
        data: &WindowedDataset,
        split: Split,
    ) -> EvalResult {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x5eed);
        let n = data.num_nodes();
        let tf = data.tf();
        let total = data.len(split);
        let mut pred = Array::zeros(&[total, tf, n]);
        let mut target = Array::zeros(&[total, tf, n]);
        let mut row = 0usize;
        for idx in data.epoch_batches(split, self.cfg.batch_size, false, &mut rng) {
            let batch = data.batch(split, &idx);
            // Inference mode: no autograd graph is recorded.
            let out = d2stgnn_tensor::no_grad(|| model.forward(&batch, false, &mut rng)).value();
            let out = data.scaler().inverse_transform(&out);
            let b = batch.batch_size();
            let flat_pred = crate::error::require(out.reshape(&[b, tf, n]), "squeeze channel");
            let flat_targ = crate::error::require(batch.y.reshape(&[b, tf, n]), "squeeze channel");
            pred.assign_slice_axis(0, row, &flat_pred);
            target.assign_slice_axis(0, row, &flat_targ);
            row += b;
        }
        let overall = metrics::evaluate_overall(&pred, &target, self.cfg.null_val);
        let hs: Vec<usize> = [3, 6, 12].into_iter().filter(|h| *h <= tf).collect();
        let horizons = metrics::evaluate_horizons(&pred, &target, &hs, self.cfg.null_val);
        EvalResult {
            pred,
            target,
            overall,
            horizons,
        }
    }
}

/// Restore optimizer, RNG, and loop state from a [`TrainState`].
fn apply_state(
    state: &TrainState,
    vars: &mut TrainState,
    opt: &mut Adam,
    rng: &mut StdRng,
) -> Result<(), TrainError> {
    opt.import_state(&state.optimizer)
        .map_err(|e| TrainError::ResumeMismatch(format!("optimizer state: {e}")))?;
    opt.set_learning_rate(state.lr);
    let words: [u64; 4] = state.rng.as_slice().try_into().map_err(|_| {
        TrainError::ResumeMismatch(format!(
            "expected 4 RNG state words, found {}",
            state.rng.len()
        ))
    })?;
    *rng = StdRng::from_state(words);
    *vars = state.clone();
    Ok(())
}

/// Persist a full-state checkpoint (format v3) via the crash-safe writer.
fn write_checkpoint<M: TrafficModel + ?Sized>(
    model: &M,
    state: &TrainState,
    path: &str,
) -> Result<(), TrainError> {
    let mut span = d2stgnn_obsv::span!("d2stgnn_core_train_checkpoint");
    let mut ckpt = checkpoint::snapshot(model, &model.name());
    ckpt.train = Some(state.clone());
    checkpoint::persist(&ckpt, Path::new(path))?;
    d2stgnn_obsv::record!(span, epoch = state.epoch);
    d2stgnn_obsv::record!(span, iteration = state.iteration);
    d2stgnn_obsv::counter_add!("d2stgnn_core_train_checkpoints_total", 1);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::D2stgnnConfig;
    use crate::model::D2stgnn;
    use d2stgnn_data::{simulate, Batch, SimulatorConfig};
    use std::cell::Cell;

    fn tiny_dataset() -> WindowedDataset {
        let mut sim = SimulatorConfig::tiny();
        sim.num_nodes = 6;
        sim.num_steps = 288;
        sim.knn = 2;
        WindowedDataset::new(simulate(&sim), 12, 12, (0.6, 0.2, 0.2))
    }

    fn tiny_model(data: &WindowedDataset) -> D2stgnn {
        let mut cfg = D2stgnnConfig::small(6);
        cfg.layers = 1;
        cfg.hidden = 8;
        cfg.emb_dim = 4;
        cfg.heads = 2;
        let mut rng = StdRng::seed_from_u64(1);
        D2stgnn::new(cfg, &data.data().network.clone(), &mut rng)
    }

    fn params_digest<M: TrafficModel + ?Sized>(model: &M) -> u64 {
        let values: Vec<Array> = model.parameters().iter().map(Tensor::value).collect();
        checkpoint::params_checksum(&values)
    }

    /// Wraps a model and poisons the first `poison` *training* forwards with
    /// NaN predictions, simulating transient numeric blow-ups.
    struct FlakyModel {
        inner: D2stgnn,
        poison: Cell<usize>,
    }

    impl d2stgnn_tensor::nn::Module for FlakyModel {
        fn parameters(&self) -> Vec<Tensor> {
            self.inner.parameters()
        }
    }

    impl TrafficModel for FlakyModel {
        fn forward(&self, batch: &Batch, training: bool, rng: &mut StdRng) -> Tensor {
            let out = self.inner.forward(batch, training, rng);
            if training && self.poison.get() > 0 {
                self.poison.set(self.poison.get() - 1);
                return out.scale(f32::NAN);
            }
            out
        }

        fn name(&self) -> String {
            "flaky".to_string()
        }

        fn horizon(&self) -> usize {
            self.inner.horizon()
        }
    }

    #[test]
    fn training_improves_validation_mae() {
        let data = tiny_dataset();
        let model = tiny_model(&data);
        let trainer = Trainer::new(TrainConfig {
            max_epochs: 4,
            batch_size: 16,
            lr: 3e-3,
            curriculum: false,
            ..TrainConfig::default()
        });
        let before = trainer.evaluate(&model, &data, Split::Val).overall.mae;
        let report = trainer.train(&model, &data).expect("training must succeed");
        assert!(!report.epochs.is_empty());
        assert!(
            report.best_val_mae < before,
            "val MAE did not improve: {before} -> {}",
            report.best_val_mae
        );
        assert!(report.avg_epoch_seconds > 0.0);
        assert_eq!(report.rollbacks, 0);
        assert_eq!(report.final_lr, 3e-3);
    }

    #[test]
    fn early_stopping_restores_best_parameters() {
        let data = tiny_dataset();
        let model = tiny_model(&data);
        let trainer = Trainer::new(TrainConfig {
            max_epochs: 3,
            patience: 1,
            ..TrainConfig::default()
        });
        let report = trainer.train(&model, &data).expect("training must succeed");
        // After restore, evaluating val reproduces the best recorded MAE.
        let val = trainer.evaluate(&model, &data, Split::Val);
        assert!(
            (val.overall.mae - report.best_val_mae).abs() < 1e-4,
            "restored {} vs best {}",
            val.overall.mae,
            report.best_val_mae
        );
    }

    #[test]
    fn curriculum_level_grows() {
        // With curriculum on and a tiny cl_step, the first epoch supervises
        // fewer horizons -> its loss reflects only near horizons. We test the
        // mechanics indirectly: training still works and losses stay finite.
        let data = tiny_dataset();
        let model = tiny_model(&data);
        let trainer = Trainer::new(TrainConfig {
            max_epochs: 2,
            cl_step: 2,
            curriculum: true,
            ..TrainConfig::default()
        });
        let report = trainer.train(&model, &data).expect("training must succeed");
        assert!(report.epochs.iter().all(|e| e.train_loss.is_finite()));
    }

    #[test]
    fn lr_decay_schedule_runs_and_stays_finite() {
        let data = tiny_dataset();
        let model = tiny_model(&data);
        let trainer = Trainer::new(TrainConfig {
            max_epochs: 3,
            patience: 5,
            lr_decay: 0.5,
            lr_decay_every: 1,
            ..TrainConfig::default()
        });
        let report = trainer.train(&model, &data).expect("training must succeed");
        assert_eq!(report.epochs.len(), 3);
        assert!(report.epochs.iter().all(|e| e.train_loss.is_finite()));
        // Decayed at epochs 1 and 2: 1e-3 * 0.5^2.
        assert!(
            (report.final_lr - 0.25e-3).abs() < 1e-9,
            "{}",
            report.final_lr
        );
    }

    #[test]
    fn evaluate_shapes_and_horizons() {
        let data = tiny_dataset();
        let model = tiny_model(&data);
        let trainer = Trainer::new(TrainConfig::fast());
        let eval = trainer.evaluate(&model, &data, Split::Test);
        let s = data.len(Split::Test);
        assert_eq!(eval.pred.shape(), &[s, 12, 6]);
        assert_eq!(eval.target.shape(), &[s, 12, 6]);
        let hs: Vec<usize> = eval.horizons.iter().map(|(h, _)| *h).collect();
        assert_eq!(hs, vec![3, 6, 12]);
        assert!(eval.overall.mae >= 0.0);
    }

    #[test]
    fn empty_validation_split_is_rejected() {
        // Regression: an empty val split used to make every epoch's val MAE
        // exactly 0.0, so epoch 0 was recorded as "best" and early stopping
        // froze the untrained parameters.
        let mut sim = SimulatorConfig::tiny();
        sim.num_nodes = 6;
        sim.num_steps = 288;
        sim.knn = 2;
        let data = WindowedDataset::new(simulate(&sim), 12, 12, (0.8, 0.0, 0.2));
        assert!(
            data.is_empty(Split::Val),
            "fixture must have no val windows"
        );
        let model = tiny_model(&data);
        let err = Trainer::new(TrainConfig::fast())
            .train(&model, &data)
            .expect_err("empty validation split must be rejected");
        assert!(matches!(err, TrainError::EmptyValidation), "got {err}");
    }

    #[test]
    fn transient_divergence_rolls_back_and_halves_lr() {
        let data = tiny_dataset();
        let model = FlakyModel {
            inner: tiny_model(&data),
            poison: Cell::new(1),
        };
        let trainer = Trainer::new(TrainConfig {
            max_epochs: 1,
            curriculum: false,
            ..TrainConfig::default()
        });
        let report = trainer
            .train(&model, &data)
            .expect("a single poisoned batch must be recoverable");
        assert_eq!(report.rollbacks, 1);
        assert!(
            (report.final_lr - 0.5e-3).abs() < 1e-9,
            "rollback must halve the lr, got {}",
            report.final_lr
        );
        assert!(report.epochs.iter().all(|e| e.train_loss.is_finite()));
    }

    #[test]
    fn persistent_divergence_is_a_typed_error_not_a_panic() {
        // Regression: a non-finite loss used to abort the process via
        // `assert!`; it must now surface as `TrainError::Diverged` after the
        // rollback budget is exhausted.
        let data = tiny_dataset();
        let model = FlakyModel {
            inner: tiny_model(&data),
            poison: Cell::new(usize::MAX),
        };
        let trainer = Trainer::new(TrainConfig {
            max_epochs: 1,
            divergence_retries: 2,
            ..TrainConfig::default()
        });
        let err = trainer
            .train(&model, &data)
            .expect_err("permanent NaN must end in Diverged");
        match err {
            TrainError::Diverged {
                epoch, rollbacks, ..
            } => {
                assert_eq!(epoch, 0);
                assert_eq!(rollbacks, 2);
            }
            other => panic!("expected Diverged, got {other}"),
        }
    }

    #[test]
    fn resume_at_epoch_boundary_is_bit_identical() {
        let data = tiny_dataset();
        let dir = std::env::temp_dir().join("d2stgnn-train-resume-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("boundary.json");
        let cfg = TrainConfig {
            max_epochs: 2,
            batch_size: 16,
            curriculum: false,
            ..TrainConfig::default()
        };
        // Reference: uninterrupted 2-epoch run.
        let model_a = tiny_model(&data);
        Trainer::new(cfg.clone())
            .train(&model_a, &data)
            .expect("reference run");
        let reference = params_digest(&model_a);
        // Interrupted: 1 epoch with checkpointing, then resume to 2 epochs.
        let model_b = tiny_model(&data);
        let mut first = cfg.clone();
        first.max_epochs = 1;
        first.checkpoint_path = Some(path.to_string_lossy().into_owned());
        Trainer::new(first)
            .train(&model_b, &data)
            .expect("first leg");
        let model_c = tiny_model(&data);
        let mut second = cfg.clone();
        second.resume_from = Some(path.to_string_lossy().into_owned());
        let report = Trainer::new(second)
            .train(&model_c, &data)
            .expect("resumed leg");
        assert_eq!(report.epochs.len(), 2, "resume must keep epoch-0 stats");
        assert_eq!(
            params_digest(&model_c),
            reference,
            "resumed parameters must be bit-identical to the uninterrupted run"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_model_only_checkpoint() {
        let data = tiny_dataset();
        let model = tiny_model(&data);
        let dir = std::env::temp_dir().join("d2stgnn-train-resume-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("model-only.json");
        checkpoint::save(&model, "m", &path).expect("save");
        let mut cfg = TrainConfig::fast();
        cfg.resume_from = Some(path.to_string_lossy().into_owned());
        let err = Trainer::new(cfg)
            .train(&model, &data)
            .expect_err("model-only checkpoint must not resume");
        assert!(matches!(err, TrainError::ResumeMismatch(_)), "got {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_config_mismatch() {
        let data = tiny_dataset();
        let model = tiny_model(&data);
        let dir = std::env::temp_dir().join("d2stgnn-train-resume-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("mismatch.json");
        let mut cfg = TrainConfig::fast();
        cfg.max_epochs = 1;
        cfg.checkpoint_path = Some(path.to_string_lossy().into_owned());
        Trainer::new(cfg.clone())
            .train(&model, &data)
            .expect("first leg");
        let mut other = cfg;
        other.checkpoint_path = None;
        other.resume_from = Some(path.to_string_lossy().into_owned());
        other.seed = 999;
        let err = Trainer::new(other)
            .train(&model, &data)
            .expect_err("seed mismatch must be rejected");
        match err {
            TrainError::ResumeMismatch(msg) => assert!(msg.contains("seed"), "{msg}"),
            other => panic!("expected ResumeMismatch, got {other}"),
        }
        std::fs::remove_file(&path).ok();
    }
}
