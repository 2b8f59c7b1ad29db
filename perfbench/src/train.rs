//! The `train` workload: Section 6.1's model (d = 32, embeddings 12, two
//! layers, four heads, k_s = 2, k_t = 3, dynamic graph, adaptive matrix and
//! curriculum on) on the 207-sensor METR-LA-shaped simulated network,
//! trained by `Trainer::train` on a fixed schedule of batches of four.
//!
//! The untraced run reports the end-to-end metrics. The traced run replays
//! the trainer's step with the same public calls and the same random
//! stream, inside spans, with the tape profiler armed; its best validation
//! MAE must equal the untraced run's bit for bit, so the replay cannot
//! drift from the real loop.

use crate::probes::{masked_powers_ms, OpTotals, OP_KINDS};
use crate::report::Outcome;
use crate::spans::{totals, Recorder};
use crate::stats::{median, percentile, sorted};
use crate::sysinfo::{peak_rss_mb, start_timed_part};
use crate::Args;
use d2stgnn_core::{D2stgnn, D2stgnnConfig, TrafficModel, TrainConfig, Trainer};
use d2stgnn_data::{simulate, Batch, DatasetId, Split, TrafficData, WindowedDataset};
use d2stgnn_graph::SparseNetwork;
use d2stgnn_tensor::losses::masked_mae_loss;
use d2stgnn_tensor::nn::Module;
use d2stgnn_tensor::optim::{clip_grad_norm, Adam, Optimizer};
use d2stgnn_tensor::{pool, Tape, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::time::Instant;

/// Compute-pool threads (`D2_THREADS`): the host's two vCPUs, with nothing
/// else of the benchmark running.
pub const THREADS: usize = 2;
/// Sensors in METR-LA (Table 2).
const NODES: usize = 207;
const TH: usize = 12;
const TF: usize = 12;
const BATCH: usize = 4;
const VAL_WINDOWS: usize = 4;
const EPOCHS: usize = 4;
/// Schedule sizing: one step per this many seconds of `--seconds`. A fixed
/// conversion, never a speed measured in the run, so the schedule (and the
/// MAE it reaches) depends only on the arguments.
const NOMINAL_STEP_S: f64 = 1.9;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Seeds of the stand-in dataset (fixed, as a recorded dataset would be),
/// of the initial weights, and of the trainer's shuffle and dropout draws.
/// `train` ignores `--seed`: its MAE is then a fingerprint of the numerics
/// alone, and its timing spread across seeds is the host's alone.
const DATA_SEED: u64 = 1001;
const MODEL_SEED: u64 = 17;

struct Plan {
    steps_per_epoch: usize,
    epochs: usize,
    setups: usize,
}

impl Plan {
    fn new(args: &Args) -> Plan {
        if args.smoke {
            return Plan {
                steps_per_epoch: 1,
                epochs: 2,
                setups: 1,
            };
        }
        let steps = ((args.seconds / NOMINAL_STEP_S).round() as usize).max(EPOCHS);
        Plan {
            steps_per_epoch: steps.div_ceil(EPOCHS),
            epochs: EPOCHS,
            // The traced run reports no set-up time.
            setups: if args.trace { 1 } else { SETUPS },
        }
    }

    fn train_windows(&self) -> usize {
        BATCH * self.steps_per_epoch
    }

    fn steps(&self) -> usize {
        self.steps_per_epoch * self.epochs
    }
}

/// The generated input: a METR-LA-shaped series just long enough for the
/// plan's train windows, four validation windows and one test window.
struct Inputs {
    data: TrafficData,
    fractions: (f32, f32, f32),
}

fn inputs(plan: &Plan) -> Inputs {
    let w = TH + TF;
    let train_end = plan.train_windows() + w - 1;
    let val_end = train_end + VAL_WINDOWS + w - 1;
    let total = val_end + w;
    let mut sim = DatasetId::MetrLa.full();
    sim.num_steps = total;
    sim.seed = DATA_SEED;
    // Half-step offsets keep the float split points clear of rounding.
    let ftr = (train_end as f32 + 0.5) / total as f32;
    let fva = (val_end - train_end) as f32 / total as f32;
    Inputs {
        data: simulate(&sim),
        fractions: (ftr, fva, 1.0 - ftr - fva),
    }
}

fn model_config() -> D2stgnnConfig {
    let mut cfg = D2stgnnConfig::new(NODES);
    cfg.th = TH;
    cfg.tf = TF;
    cfg
}

fn train_config(plan: &Plan) -> TrainConfig {
    TrainConfig {
        batch_size: BATCH,
        max_epochs: plan.epochs,
        patience: plan.epochs,
        cl_step: 1,
        seed: MODEL_SEED,
        ..TrainConfig::default()
    }
}

/// One set-up: windowing and scaler fit, model build, and one warm-up
/// step (forward, loss, backward; gradients cleared, weights untouched).
fn setup(inputs: &Inputs) -> (WindowedDataset, D2stgnn, f64) {
    let data = inputs.data.clone();
    let t = Instant::now();
    let ds = WindowedDataset::new(data, TH, TF, inputs.fractions);
    let model = D2stgnn::new(
        model_config(),
        &ds.data().network,
        &mut StdRng::seed_from_u64(MODEL_SEED),
    );
    let batch = ds.batch(Split::Train, &(0..BATCH).collect::<Vec<_>>());
    let loss = step_loss(
        &model,
        &ds,
        &batch,
        TF,
        &mut StdRng::seed_from_u64(!MODEL_SEED),
    );
    loss.backward();
    for p in model.parameters() {
        p.zero_grad();
    }
    let seconds = t.elapsed().as_secs_f64();
    (ds, model, seconds)
}

/// The trainer's loss: de-normalized forecast, curriculum slice, masked MAE.
fn step_loss(
    model: &D2stgnn,
    ds: &WindowedDataset,
    batch: &Batch,
    level: usize,
    rng: &mut StdRng,
) -> Tensor {
    let scaler = ds.scaler();
    let pred = model
        .forward(batch, true, rng)
        .scale(scaler.std())
        .add_scalar(scaler.mean());
    loss_of(pred, batch, level)
}

fn loss_of(pred: Tensor, batch: &Batch, level: usize) -> Tensor {
    let target = Tensor::constant(batch.y.clone());
    let (pred, target) = if level < TF {
        (pred.slice_axis(1, 0, level), target.slice_axis(1, 0, level))
    } else {
        (pred, target)
    };
    masked_mae_loss(&pred, &target, 0.0)
}

/// Set up `plan.setups` times; keep the last set-up, report the median.
fn setups(inputs: &Inputs, plan: &Plan) -> (WindowedDataset, D2stgnn, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..plan.setups {
        // Free the previous set-up before building the next.
        drop(last.take());
        let (ds, model, s) = setup(inputs);
        times.push(s);
        last = Some((ds, model));
    }
    let (ds, model) = last.expect("at least one set-up");
    assert_eq!(
        ds.len(Split::Train),
        plan.train_windows(),
        "train split size"
    );
    assert_eq!(ds.len(Split::Val), VAL_WINDOWS, "validation split size");
    (ds, model, times)
}

/// Forwards the trainer makes, timed by a transparent wrapper.
struct Timed<'a> {
    inner: &'a D2stgnn,
    /// (training?, start, end) per forward call, in call order.
    calls: RefCell<Vec<(bool, Instant, Instant)>>,
}

impl Module for Timed<'_> {
    fn parameters(&self) -> Vec<Tensor> {
        self.inner.parameters()
    }
}

impl TrafficModel for Timed<'_> {
    fn forward(&self, batch: &Batch, training: bool, rng: &mut StdRng) -> Tensor {
        let start = Instant::now();
        let out = self.inner.forward(batch, training, rng);
        self.calls
            .borrow_mut()
            .push((training, start, Instant::now()));
        out
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn horizon(&self) -> usize {
        self.inner.horizon()
    }
}

impl Timed<'_> {
    /// Per training step: (forward ms, step ms). A step runs from its
    /// forward's start to the next forward call (the next step's, or the
    /// validation pass right after the epoch's training phase).
    fn step_latencies(&self) -> (Vec<f64>, Vec<f64>) {
        let calls = self.calls.borrow();
        let mut forward = Vec::new();
        let mut step = Vec::new();
        for (i, &(training, start, end)) in calls.iter().enumerate() {
            if !training {
                continue;
            }
            forward.push((end - start).as_secs_f64() * 1e3);
            if let Some(&(_, next, _)) = calls.get(i + 1) {
                step.push((next - start).as_secs_f64() * 1e3);
            }
        }
        (forward, step)
    }
}

/// Percentile reported as train's latency tail. A run trains 24 steps at
/// `--seconds 40`, so only the median has ten samples beyond it; train's
/// tail is the 75th percentile (nearest rank) and says so with its count.
const TRAIN_TAIL: f64 = 75.0;

/// Untraced run: end-to-end metrics of `Trainer::train`.
pub fn run(args: &Args, out: &mut Outcome) {
    let plan = Plan::new(args);
    let inputs = inputs(&plan);
    let (ds, model, setup_times) = setups(&inputs, &plan);
    out.put_with(
        "setup_s",
        median(&setup_times),
        "s",
        Some(format!("median of {} set-ups", setup_times.len())),
    );

    start_timed_part(out);
    let timed = Timed {
        inner: &model,
        calls: RefCell::new(Vec::new()),
    };
    let trainer = Trainer::new(train_config(&plan));
    let result = trainer.train(&timed, &ds);
    let (forward, step) = timed.step_latencies();
    out.attempted = forward.len() as u64;
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            out.failed = out.attempted.max(1);
            out.check(false, || format!("Trainer::train failed: {e}"));
            return;
        }
    };
    out.failed = report.rollbacks as u64;
    out.check(report.rollbacks == 0, || {
        format!("{} divergence rollbacks", report.rollbacks)
    });
    out.check(report.best_val_mae.is_finite(), || {
        "best validation MAE is not finite".to_string()
    });
    out.check(report.epochs.len() == plan.epochs, || {
        format!(
            "{} epochs run, {} planned",
            report.epochs.len(),
            plan.epochs
        )
    });

    let per_epoch: Vec<f64> = report
        .epochs
        .iter()
        .map(|e| plan.train_windows() as f64 / e.seconds)
        .collect();
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    out.put_with(
        "windows_per_s",
        median(&per_epoch),
        "1/s",
        Some(format!("median of {} epochs", per_epoch.len())),
    );
    out.put("mae", f64::from(report.best_val_mae), "mph");
    for (suffix, samples, what) in [("low", &forward, "forward"), ("high", &step, "step")] {
        let s = sorted(samples);
        out.put_with(
            &format!("lat_p50_ms.{suffix}"),
            percentile(&s, 50.0),
            "ms",
            Some(format!("n={} p50 of training {what} latency", s.len())),
        );
        out.put_with(
            &format!("lat_tail_ms.{suffix}"),
            percentile(&s, TRAIN_TAIL),
            "ms",
            Some(format!(
                "n={} p{TRAIN_TAIL} of training {what} latency",
                s.len()
            )),
        );
    }
    out.note("train.steps", plan.steps());
    out.note("train.windows_per_epoch", plan.train_windows());
    out.note(
        "train.epoch_seconds",
        format!(
            "{:?}",
            report.epochs.iter().map(|e| e.seconds).collect::<Vec<_>>()
        ),
    );
}

/// Traced run: the step replay in spans plus the layer probes.
pub fn run_traced(args: &Args, rec: &Recorder, out: &mut Outcome) {
    let plan = Plan::new(args);
    let inputs = inputs(&plan);
    let (ds, model, _) = setups(&inputs, &plan);
    let cfg = train_config(&plan);
    let trainer = Trainer::new(cfg.clone());

    // Trainer::train's loop, call for call, on the same random stream.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let params = model.parameters();
    let mut opt = Adam::new(model.parameters(), cfg.lr);
    let mut ops = OpTotals::default();
    let mut pool_tasks = 0u64;
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut per_epoch = Vec::new();
    let mut best_val = f32::INFINITY;
    let mut iteration = 0usize;
    for epoch in 0..plan.epochs {
        let order: Vec<usize> = ds
            .epoch_batches(Split::Train, cfg.batch_size, true, &mut rng)
            .into_iter()
            .flatten()
            .collect();
        let pool_before = pool::stats();
        Tape::start_profiling();
        let epoch_start = Instant::now();
        for idx in order.chunks(cfg.batch_size) {
            let step = rec.open("step", None, Some(format!("epoch{epoch}-step{iteration}")));
            let parent = Some(step.id());
            let s = rec.open("data.batch", parent, None);
            let batch = ds.batch(Split::Train, idx);
            rec.close(s);
            let level = (1 + iteration / cfg.cl_step.max(1)).min(TF);
            let s = rec.open("core.forward", parent, None);
            let pred_norm = model.forward(&batch, true, &mut rng);
            rec.close(s);
            let s = rec.open("loss", parent, None);
            let scaler = ds.scaler();
            let pred = pred_norm.scale(scaler.std()).add_scalar(scaler.mean());
            let loss = loss_of(pred, &batch, level);
            let loss_val = loss.item();
            rec.close(s);
            let s = rec.open("tensor.backward", parent, None);
            loss.backward();
            rec.close(s);
            let s = rec.open("tensor.optim", parent, None);
            let grad_norm = clip_grad_norm(&params, cfg.clip_norm);
            opt.step();
            rec.close(s);
            rec.close(step);
            out.check(loss_val.is_finite() && grad_norm.is_finite(), || {
                format!("replay step {iteration} diverged")
            });
            iteration += 1;
        }
        per_epoch.push(plan.train_windows() as f64 / epoch_start.elapsed().as_secs_f64());
        Tape::stop_profiling();
        ops.add(&Tape::profile_report());
        let pool_after = pool::stats();
        pool_tasks += pool_after.pooled_tasks - pool_before.pooled_tasks;
        hits += pool_after.bufpool_hits - pool_before.bufpool_hits;
        misses += pool_after.bufpool_misses - pool_before.bufpool_misses;
        let val = trainer.evaluate(&model, &ds, Split::Val);
        best_val = best_val.min(val.overall.mae);
    }
    out.attempted = iteration as u64;

    let per_step = iteration as f64;
    let t = totals(&rec.spans());
    let span_ms = |name: &str| t.get(name).map_or(0.0, |x| x.total_s * 1e3 / per_step);
    out.put("data.batch_ms", span_ms("data.batch"), "ms");
    out.put("core.forward_ms", span_ms("core.forward"), "ms");
    out.put("tensor.backward_ms", span_ms("tensor.backward"), "ms");
    out.put("tensor.optim_ms", span_ms("tensor.optim"), "ms");
    put_ops(out, &ops, per_step);
    out.put("tensor.pool_tasks", pool_tasks as f64 / per_step, "count");
    out.put("tensor.bufpool_hit_ratio", ratio(hits, misses), "ratio");
    let cfg_model = model_config();
    let sparse = SparseNetwork::from_network(&ds.data().network);
    let power_ms = masked_powers_ms(
        &sparse.forward_transition(),
        &sparse.backward_transition(),
        cfg_model.ks,
        if args.smoke { 3 } else { 20 },
    );
    out.put(
        "graph.masked_power_ms",
        power_ms * cfg_model.layers as f64,
        "ms",
    );
    put_absent_serving(out);
    let step = t.get("step").copied().unwrap_or_default();
    out.put(
        "step.unattributed_pct",
        100.0 * step.self_s / step.total_s.max(f64::MIN_POSITIVE),
        "%",
    );
    let replay = median(&per_epoch);
    put_overhead(out, replay, args.untraced_windows_per_s);
    out.note("replay.windows_per_s", replay);
    out.note("replay.best_val_mae", best_val);
    if let Some(mae) = args.untraced_mae {
        out.check(f64::from(best_val) == mae, || {
            format!("replay best validation MAE {best_val} differs from Trainer::train's {mae}")
        });
    }
}

/// `tensor.op.*`, `tensor.tape_peak_mb` from summed profiler counters.
pub fn put_ops(out: &mut Outcome, ops: &OpTotals, per: f64) {
    for kind in OP_KINDS {
        let (calls, ms) = ops.per(kind, per);
        out.put(&format!("tensor.op.{kind}_ms"), ms, "ms");
        out.put(&format!("tensor.op.{kind}_calls"), calls, "count");
    }
    out.put(
        "tensor.tape_peak_mb",
        ops.peak_tape_bytes as f64 / 1e6,
        "MB",
    );
}

/// Hit share of buffer-pool acquires.
pub fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// `trace.overhead_pct`: how much slower the traced run's throughput is
/// than the untraced run's, in percent of the untraced figure.
pub fn put_overhead(out: &mut Outcome, traced: f64, untraced: Option<f64>) {
    let pct = untraced.map_or(0.0, |u| 100.0 * (u - traced) / u);
    out.put("trace.overhead_pct", pct, "%");
    out.note("trace.windows_per_s_traced", traced);
    if let Some(u) = untraced {
        out.note("trace.windows_per_s_untraced", u);
    }
}

/// Serve and httpd metrics on a workload without a server: zero.
fn put_absent_serving(out: &mut Outcome) {
    for (name, unit) in [
        ("serve.request_ms", "ms"),
        ("serve.queue_wait_ms", "ms"),
        ("serve.mean_batch_size", "req/batch"),
        ("serve.batches", "count"),
        ("serve.sheds", "count"),
        ("serve.fallback_served", "count"),
        ("serve.deadline_misses", "count"),
        ("httpd.overhead_ms", "ms"),
        ("httpd.json_decode_ms", "ms"),
        ("httpd.json_encode_ms", "ms"),
        ("httpd.responses_4xx", "count"),
        ("httpd.responses_5xx", "count"),
        ("httpd.shed", "count"),
    ] {
        out.put(name, 0.0, unit);
    }
}
