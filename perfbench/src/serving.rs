//! The `serve_city` workload: a 1,000-sensor `simulate_city` road network
//! served by `D2stgnn::new_sparse` (d = 8, emb 4, one layer; dynamic graph
//! and adaptive matrix off, the only configuration `new_sparse` accepts),
//! driven through `POST /v1/forecast` into `HttpServer` → `ShardRouter` →
//! `serve::Server` with ~220 KB bodies each way.
//!
//! After set-up it runs a closed loop at [`CONNS`] connections (capacity)
//! and open loops at two fixed rates, interleaved in [`ROUNDS`] rounds so
//! each phase samples the whole run. Every request asks for a distinct
//! window, so a forecast cache cannot win by accident.

use crate::client::{validate_forecast, Failure, Response};
use crate::loadgen::{self, Mode, Phase, Requests, Target};
use crate::probes::{forward_probe, json_ms, masked_powers_ms};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats::{median, percentile, sorted, tail_percentile, TAIL_BEYOND};
use crate::sysinfo::{peak_rss_mb, start_timed_part};
use crate::train::{put_ops, put_overhead, ratio};
use crate::Args;
use d2stgnn_core::{checkpoint, D2stgnn, D2stgnnConfig, TrafficModel};
use d2stgnn_data::{simulate_city, Batch, CityConfig, StandardScaler};
use d2stgnn_graph::SparseNetwork;
use d2stgnn_httpd::api::{ForecastBody, ForecastReply};
use d2stgnn_httpd::{HttpServer, HttpdConfig, ShardRouter};
use d2stgnn_serve::{ModelFactory, ModelRegistry, ServeConfig, Server};
use d2stgnn_tensor::nn::Module;
use d2stgnn_tensor::{pool, Array};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload and served-model name.
const NAME: &str = "serve_city";
const TH: usize = 12;
const TF: usize = 12;
/// Sensors of the city network.
const NODES: usize = 1000;
/// Steps simulated: more distinct windows than any run requests.
const STEPS: usize = 2 * 288;
/// Generator threads, each with one keep-alive connection (= nproc).
const CONNS: usize = 2;
/// Compute-pool threads (`D2_THREADS`): the serve worker computes on one
/// vCPU, httpd and the generator's JSON work use the other.
pub const THREADS: usize = 1;
/// One serve worker without fusion: forwards run one at a time, so the
/// resident memory does not depend on how requests happened to overlap
/// (with two workers and fused batches the peak moved between 62 and
/// 96 MB from run to run).
const SERVE_WORKERS: usize = 1;
const MAX_BATCH: usize = 1;
/// Set-ups per run; `setup_s` is their median. The first
/// [`SETUPS_BEFORE`] precede the timed part (the last of them serves it);
/// the rest follow it, so a host slowdown at one end of the run cannot
/// move the median alone.
const SETUPS: usize = 5;
const SETUPS_BEFORE: usize = 3;
/// Warm-up requests per set-up.
const WARMUP: usize = 4;
/// Seed of the served model's weights: one deployed model for every run.
const MODEL_SEED: u64 = 17;
/// Client timeout; a failed request's latency is recorded as this.
const TIMEOUT: Duration = Duration::from_secs(10);
/// `--seconds` the phase lengths below are given for; others scale them.
const NOMINAL_SECONDS: f64 = 40.0;
/// The timed part is this many rounds, each a slice of the closed loop
/// and of both open loops, so every phase samples the whole run: a host
/// slowdown of a few seconds lands on all three alike instead of on
/// whichever phase it happened to overlap.
const ROUNDS: usize = 8;
/// Closed-loop seconds at [`NOMINAL_SECONDS`], summed over the rounds.
const CLOSED_S: f64 = 5.5;
/// Open-loop rates (req/s) and lengths (s) at [`NOMINAL_SECONDS`], summed
/// over the rounds. At about a quarter and a half of the ~9 req/s
/// closed-loop capacity, below the queueing knee; each phase's fixed
/// count (42 and 48 requests) puts its tail at p75. With the rounds'
/// start-up and drain the timed part lasts about `--seconds`.
const LOW: (f64, f64) = (2.0, 21.0);
const HIGH: (f64, f64) = (4.0, 12.0);
/// Repetitions of each traced-run probe.
const PROBE_REPS: usize = 5;

/// The generated inputs and the model recipe.
struct World {
    /// Raw series `[T, N]`.
    values: Array,
    steps_per_day: usize,
    network: SparseNetwork,
    cfg: D2stgnnConfig,
    factory: ModelFactory,
    /// Window starts in request order: a seeded permutation.
    order: Vec<usize>,
}

fn world(seed: u64) -> World {
    let mut sim = CityConfig::with_nodes(NODES);
    sim.num_steps = STEPS;
    let data = simulate_city(&sim);
    let mut cfg = D2stgnnConfig::small(NODES);
    cfg.hidden = 8;
    cfg.emb_dim = 4;
    cfg.layers = 1;
    cfg.heads = 2;
    cfg.kt = 2;
    cfg.use_dynamic_graph = false;
    cfg.use_adaptive = false;
    cfg.th = TH;
    cfg.tf = TF;
    cfg.steps_per_day = data.steps_per_day;
    let factory: ModelFactory = {
        let (cfg, network) = (cfg.clone(), data.network.clone());
        Arc::new(move || {
            let mut rng = StdRng::seed_from_u64(MODEL_SEED);
            Box::new(D2stgnn::new_sparse(cfg.clone(), &network, &mut rng)) as Box<dyn TrafficModel>
        })
    };
    let mut order: Vec<usize> = (0..=STEPS - TH - TF).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    World {
        values: data.values,
        steps_per_day: data.steps_per_day,
        network: data.network,
        cfg,
        factory,
        order,
    }
}

impl World {
    fn forecast_body(&self, start: usize) -> ForecastBody {
        let v = self.values.data();
        let spd = self.steps_per_day;
        ForecastBody {
            model: NAME.to_string(),
            window: (start..start + TH)
                .map(|t| v[t * NODES..(t + 1) * NODES].to_vec())
                .collect(),
            tod: (start..start + TH).map(|t| t % spd).collect(),
            dow: (start..start + TH).map(|t| (t / spd) % 7).collect(),
            deadline_ms: None,
            sensor: None,
            city: Some(NAME.to_string()),
        }
    }
}

/// Requests for a contiguous slice of the window order.
struct Traffic<'a> {
    world: &'a World,
    windows: &'a [usize],
    /// Score forecasts against the truth (open-loop phases).
    score: bool,
}

impl Requests for Traffic<'_> {
    fn body(&self, i: usize) -> String {
        serde_json::to_string(&self.world.forecast_body(self.windows[i]))
            .expect("a finite window serializes")
    }

    fn check(&self, i: usize, reply: &Response) -> Result<(f64, usize), Failure> {
        let forecast = validate_forecast(reply.status, &reply.body, TF, NODES)?;
        if !self.score {
            return Ok((0.0, 0));
        }
        // Masked MAE as the trainer scores it: a zero truth is a failed
        // sensor and is skipped.
        let first = (self.windows[i] + TH) * NODES;
        let truth = &self.world.values.data()[first..first + TF * NODES];
        let (mut sum, mut count) = (0.0f64, 0usize);
        for (&p, &t) in forecast.iter().zip(truth) {
            if t.abs() >= 1e-5 && t.is_finite() {
                sum += f64::from((p - t).abs());
                count += 1;
            }
        }
        Ok((sum, count))
    }
}

/// A running front end and its shard.
struct Stack {
    server: Arc<Server>,
    router: Arc<ShardRouter>,
    front: HttpServer,
    scaler: StandardScaler,
    /// The model instance built during set-up (probed in the traced run).
    model: Box<dyn TrafficModel>,
}

impl Stack {
    fn target(&self) -> Target {
        Target {
            addr: self.front.local_addr(),
            timeout: TIMEOUT,
        }
    }

    fn shutdown(self) -> Result<(), String> {
        self.front
            .shutdown()
            .map_err(|e| format!("httpd shutdown: {e}"))?;
        self.router.remove_shard(0);
        drop(self.router);
        match Arc::try_unwrap(self.server) {
            Ok(s) => s.shutdown().map_err(|e| format!("serve shutdown: {e}")),
            Err(_) => Err("the serve shard is still referenced".to_string()),
        }
    }
}

/// One set-up: scaler fit, model build, checkpoint + register, server and
/// front-end start, and a fixed warm-up through HTTP.
fn setup(world: &World, warm: &[usize], rec: &Recorder) -> Result<(Stack, f64), String> {
    let t = Instant::now();
    let train_end = STEPS * 7 / 10;
    let scaler = StandardScaler::fit(&world.values.data()[..train_end * NODES]);
    let model = (world.factory)();
    let ckpt = checkpoint::snapshot(model.as_ref() as &dyn Module, NAME);
    let registry = Arc::new(ModelRegistry::new());
    registry
        .register(NAME, Arc::clone(&world.factory), ckpt, scaler, [TH, NODES])
        .map_err(|e| format!("register: {e}"))?;
    let server = Arc::new(
        Server::start(
            registry,
            ServeConfig {
                workers: SERVE_WORKERS,
                max_batch: MAX_BATCH,
                max_wait: Duration::ZERO,
                queue_capacity: 64,
            },
        )
        .map_err(|e| format!("serve start: {e}"))?,
    );
    let router = Arc::new(ShardRouter::new());
    router
        .add_shard(0, Arc::clone(&server))
        .map_err(|e| format!("add shard: {e}"))?;
    router
        .pin_city(NAME, 0)
        .map_err(|e| format!("pin city: {e}"))?;
    let front = HttpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&router),
        HttpdConfig {
            workers: CONNS,
            max_pending_connections: 8,
            keep_alive_requests: usize::MAX,
            read_timeout: Duration::from_secs(30),
            write_timeout: TIMEOUT,
            forecast_wait: TIMEOUT,
            ..HttpdConfig::default()
        },
    )
    .map_err(|e| format!("httpd bind: {e}"))?;
    let stack = Stack {
        server,
        router,
        front,
        scaler,
        model,
    };
    let traffic = Traffic {
        world,
        windows: warm,
        score: false,
    };
    let mode = Mode::Closed {
        seconds: f64::INFINITY,
        max_requests: warm.len(),
    };
    let phase = loadgen::run(stack.target(), CONNS, mode, &traffic, "warmup", rec, None);
    if let Some(r) = phase.records.iter().find(|r| r.result.is_err()) {
        return Err(format!("warm-up request failed: {:?}", r.result));
    }
    Ok((stack, t.elapsed().as_secs_f64()))
}

/// Phase plan derived from the arguments only.
struct Plan {
    closed_s: f64,
    low: usize,
    high: usize,
    setups: usize,
}

impl Plan {
    fn new(args: &Args) -> Plan {
        let scale = args.seconds / NOMINAL_SECONDS;
        // At least one request of each open loop per round.
        let count = |(rate, s): (f64, f64)| ((rate * s * scale).round() as usize).max(ROUNDS);
        Plan {
            closed_s: scale * CLOSED_S,
            low: count(LOW),
            high: count(HIGH),
            // The traced run reports no set-up time.
            setups: if args.smoke || args.trace { 1 } else { SETUPS },
        }
    }
}

/// Round `r`'s share of `total`: contiguous, and even to within one.
fn round_share(total: usize, r: usize) -> std::ops::Range<usize> {
    total * r / ROUNDS..total * (r + 1) / ROUNDS
}

/// Every phase's records.
#[derive(Default)]
struct Phases {
    closed: Phase,
    low: Phase,
    high: Phase,
}

/// Set up, run the three phases round by round, and report; a traced run
/// adds the per-layer measurements.
pub fn run(args: &Args, rec: &Recorder, out: &mut Outcome) {
    let world = world(args.seed);
    let plan = Plan::new(args);
    // Window budget: warm-ups, the two open loops, and the rest for the
    // closed loop; no window is requested twice in a run. The warm-up share
    // does not depend on how many set-ups run, so a traced run (one
    // set-up) scores the same open-loop windows as the untraced run.
    let (warm_all, rest) = world.order.split_at(WARMUP * SETUPS);
    let (low_w, rest) = rest.split_at(plan.low);
    let (high_w, closed_w) = rest.split_at(plan.high);
    let mut warm = warm_all.chunks(WARMUP);

    let mut setup_times = Vec::new();
    let mut stack = None;
    for warm in warm.by_ref().take(plan.setups.min(SETUPS_BEFORE)) {
        if let Some(previous) = stack.take() {
            if let Err(e) = Stack::shutdown(previous) {
                out.check(false, || e);
            }
        }
        match setup(&world, warm, rec) {
            Ok((s, seconds)) => {
                setup_times.push(seconds);
                stack = Some(s);
            }
            Err(e) => {
                out.check(false, || format!("set-up failed: {e}"));
                return;
            }
        }
    }
    let stack = stack.expect("at least one set-up");
    start_timed_part(out);
    let before = Snapshot::take(&stack);

    let block = |label: &'static str, round: usize, mode: Mode, windows: &[usize], score: bool| {
        let traffic = Traffic {
            world: &world,
            windows,
            score,
        };
        let span = rec.open(label, None, None);
        let phase = loadgen::run(
            stack.target(),
            CONNS,
            mode,
            &traffic,
            &format!("{label}.{round}"),
            rec,
            Some(span.id()),
        );
        rec.close(span);
        phase
    };
    let mut phases = Phases::default();
    for r in 0..ROUNDS {
        let used = phases.closed.records.len();
        let closed = Mode::Closed {
            seconds: plan.closed_s / ROUNDS as f64,
            max_requests: closed_w.len() - used,
        };
        phases
            .closed
            .append(block("closed", r, closed, &closed_w[used..], false));
        for (phase, rate, total, windows, label) in [
            (&mut phases.low, LOW.0, plan.low, low_w, "low"),
            (&mut phases.high, HIGH.0, plan.high, high_w, "high"),
        ] {
            let share = round_share(total, r);
            let open = Mode::Open {
                rate,
                count: share.len(),
            };
            phase.append(block(label, r, open, &windows[share], true));
        }
    }
    let after = Snapshot::take(&stack);
    let peak_rss = peak_rss_mb();

    report_end_to_end(&plan, &phases, peak_rss, out);
    if let (true, Some(untraced)) = (args.trace, args.untraced_mae) {
        let traced = out
            .metrics
            .iter()
            .find(|m| m.name == "mae")
            .map(|m| m.value);
        out.check(traced == Some(untraced), || {
            format!("traced MAE {traced:?} differs from the untraced run's {untraced}")
        });
    }
    if args.trace {
        report_layers(args, &world, &stack, &phases, &before, &after, out);
    }
    if let Err(e) = stack.shutdown() {
        out.check(false, || e);
    }
    // The remaining set-ups, each shut down again.
    for warm in warm.take(plan.setups.saturating_sub(SETUPS_BEFORE)) {
        match setup(&world, warm, rec) {
            Ok((s, seconds)) => {
                setup_times.push(seconds);
                if let Err(e) = Stack::shutdown(s) {
                    out.check(false, || e);
                }
            }
            Err(e) => out.check(false, || format!("set-up failed: {e}")),
        }
    }
    out.put_with(
        "setup_s",
        median(&setup_times),
        "s",
        Some(format!("median of {} set-ups", setup_times.len())),
    );
}

fn report_end_to_end(plan: &Plan, p: &Phases, peak_rss: f64, out: &mut Outcome) {
    let all = [("closed", &p.closed), ("low", &p.low), ("high", &p.high)];
    out.attempted = all.iter().map(|(_, ph)| ph.records.len() as u64).sum();
    out.failed = all.iter().map(|(_, ph)| ph.failed() as u64).sum();
    for (label, ph) in all {
        let mut tally: std::collections::BTreeMap<String, usize> = Default::default();
        for r in &ph.records {
            if let Err(f) = &r.result {
                *tally.entry(f.label()).or_default() += 1;
            }
        }
        if !tally.is_empty() {
            let first = ph.records.iter().find_map(|r| r.result.clone().err());
            out.check(false, || {
                format!("{label} phase: {tally:?}, first {first:?}")
            });
        }
        out.note(&format!("requests.{label}"), ph.records.len());
    }
    out.put("peak_rss_mb", peak_rss, "MB");
    let ok = p.closed.ok().count();
    out.put_with(
        "windows_per_s",
        ok as f64 / p.closed.elapsed_s.max(f64::MIN_POSITIVE),
        "1/s",
        Some(format!(
            "{ok} forecasts in {:.2} s, closed loop at {CONNS} connections",
            p.closed.elapsed_s
        )),
    );
    let (sum, count) = [&p.low, &p.high]
        .iter()
        .flat_map(|ph| ph.ok())
        .filter_map(|r| r.result.as_ref().ok())
        .fold((0.0, 0usize), |(s, c), (es, ec)| (s + es, c + ec));
    out.check(count > 0, || "no forecast was scored".to_string());
    out.put_with(
        "mae",
        sum / count.max(1) as f64,
        "mph",
        Some(format!("{count} scored cells of the open-loop forecasts")),
    );
    for (suffix, ph, rate) in [("low", &p.low, LOW.0), ("high", &p.high, HIGH.0)] {
        let latencies: Vec<f64> = ph
            .records
            .iter()
            .map(|r| {
                if r.result.is_ok() {
                    r.latency_ms()
                } else {
                    TIMEOUT.as_secs_f64() * 1e3
                }
            })
            .collect();
        let s = sorted(&latencies);
        let n = s.len();
        out.put_with(
            &format!("lat_p50_ms.{suffix}"),
            percentile(&s, 50.0),
            "ms",
            Some(format!("n={n} p50 at {rate} req/s")),
        );
        let (q, note) = match tail_percentile(n) {
            Some(q) => (
                q,
                format!("n={n} p{q} at {rate} req/s, >= {TAIL_BEYOND} beyond"),
            ),
            None => (
                100.0,
                format!("n={n} max at {rate} req/s (too few for a tail)"),
            ),
        };
        out.put_with(
            &format!("lat_tail_ms.{suffix}"),
            percentile(&s, q),
            "ms",
            Some(note),
        );
        let lateness: Vec<f64> = ph.records.iter().map(|r| r.lateness_ms()).collect();
        let late = sorted(&lateness);
        out.note(
            &format!("generator_lateness_ms.{suffix}"),
            format!(
                "p50 {:.3} p99 {:.3} max {:.3}",
                percentile(&late, 50.0),
                percentile(&late, 99.0),
                late[late.len() - 1]
            ),
        );
    }
    out.note("plan.closed_s", plan.closed_s);
}

/// Counters read before and after the timed phases.
struct Snapshot {
    serve: d2stgnn_serve::ServerStats,
    httpd: d2stgnn_httpd::HttpdStatsSnapshot,
    queue_wait: (u64, f64),
    request: (u64, f64),
    pool: pool::PoolStats,
}

impl Snapshot {
    fn take(stack: &Stack) -> Snapshot {
        let registry = d2stgnn_obsv::registry();
        let wait = registry.histogram("d2stgnn_serve_queue_wait_seconds");
        let request = registry.histogram("d2stgnn_serve_request_seconds");
        Snapshot {
            serve: stack.server.stats(),
            httpd: stack.front.stats(),
            queue_wait: (wait.count(), wait.sum()),
            request: (request.count(), request.sum()),
            pool: pool::stats(),
        }
    }
}

fn report_layers(
    args: &Args,
    world: &World,
    stack: &Stack,
    p: &Phases,
    before: &Snapshot,
    after: &Snapshot,
    out: &mut Outcome,
) {
    let forecasts = (after.serve.completed - before.serve.completed).max(1) as f64;
    let reps = if args.smoke { 2 } else { PROBE_REPS };
    let probe_window = world.order[world.order.len() - 1];

    // The serving path assembles its batches inside serve, not through the
    // data crate's `WindowedDataset`.
    out.put("data.batch_ms", 0.0, "ms");
    let probe = forward_probe(
        stack.model.as_ref(),
        &probe_batch(world, &stack.scaler, probe_window),
        reps,
    );
    out.put("core.forward_ms", probe.forward_ms, "ms");
    out.put("tensor.backward_ms", 0.0, "ms");
    out.put("tensor.optim_ms", 0.0, "ms");
    put_ops(out, &probe.ops, probe.reps as f64);
    let pool_tasks = after.pool.pooled_tasks - before.pool.pooled_tasks;
    out.put("tensor.pool_tasks", pool_tasks as f64 / forecasts, "count");
    out.put(
        "tensor.bufpool_hit_ratio",
        ratio(
            after.pool.bufpool_hits - before.pool.bufpool_hits,
            after.pool.bufpool_misses - before.pool.bufpool_misses,
        ),
        "ratio",
    );
    let power_ms = masked_powers_ms(
        &world.network.forward_transition(),
        &world.network.backward_transition(),
        world.cfg.ks,
        reps,
    );
    out.put(
        "graph.masked_power_ms",
        power_ms * world.cfg.layers as f64,
        "ms",
    );

    out.put(
        "serve.request_ms",
        after.serve.p50_latency.as_secs_f64() * 1e3,
        "ms",
    );
    let mean_ms = |before: (u64, f64), after: (u64, f64)| {
        1e3 * (after.1 - before.1) / (after.0 - before.0).max(1) as f64
    };
    out.put(
        "serve.queue_wait_ms",
        mean_ms(before.queue_wait, after.queue_wait),
        "ms",
    );
    // Means add up where percentiles do not: the attribution below uses the
    // mean serve latency of exactly the timed requests.
    let serve_mean_ms = mean_ms(before.request, after.request);
    let batches = after.serve.batches - before.serve.batches;
    out.put(
        "serve.mean_batch_size",
        (after.serve.completed - before.serve.completed) as f64 / batches.max(1) as f64,
        "req/batch",
    );
    out.put("serve.batches", batches as f64, "count");
    out.put(
        "serve.sheds",
        (after.serve.sheds - before.serve.sheds) as f64,
        "count",
    );
    out.put(
        "serve.fallback_served",
        (after.serve.fallback_served - before.serve.fallback_served) as f64,
        "count",
    );
    out.put(
        "serve.deadline_misses",
        (after.serve.deadline_misses - before.serve.deadline_misses) as f64,
        "count",
    );

    let rtt: Vec<f64> = [&p.closed, &p.low, &p.high]
        .iter()
        .flat_map(|ph| ph.ok())
        .map(|r| r.rtt_ms())
        .collect();
    let rtt_mean = rtt.iter().sum::<f64>() / rtt.len().max(1) as f64;
    out.put("httpd.overhead_ms", rtt_mean - serve_mean_ms, "ms");
    let body = world.forecast_body(probe_window);
    let reply = ForecastReply {
        model: NAME.to_string(),
        generation: 1,
        fallback: false,
        shard: 0,
        values: body.window.clone(),
    };
    let body = serde_json::to_string(&body).expect("a finite window serializes");
    let (decode_ms, encode_ms) = json_ms(&body, &reply, reps);
    out.put("httpd.json_decode_ms", decode_ms, "ms");
    out.put("httpd.json_encode_ms", encode_ms, "ms");
    out.put(
        "httpd.responses_4xx",
        (after.httpd.responses_4xx - before.httpd.responses_4xx) as f64,
        "count",
    );
    out.put(
        "httpd.responses_5xx",
        (after.httpd.responses_5xx - before.httpd.responses_5xx) as f64,
        "count",
    );
    out.put(
        "httpd.shed",
        (after.httpd.shed - before.httpd.shed) as f64,
        "count",
    );
    out.put(
        "step.unattributed_pct",
        100.0 * (rtt_mean - serve_mean_ms - decode_ms - encode_ms)
            / rtt_mean.max(f64::MIN_POSITIVE),
        "%",
    );
    let traced = p.closed.ok().count() as f64 / p.closed.elapsed_s.max(f64::MIN_POSITIVE);
    put_overhead(out, traced, args.untraced_windows_per_s);
    out.note("layers.forecasts", forecasts);
    out.note("layers.rtt_mean_ms", rtt_mean);
    out.note("layers.serve_mean_ms", serve_mean_ms);
}

/// A batch-1 window of the city series, normalized with the served
/// model's scaler, for the forward probe.
fn probe_batch(world: &World, scaler: &StandardScaler, start: usize) -> Batch {
    let v = world.values.data();
    let mut x = Array::zeros(&[1, TH, NODES, 1]);
    for t in 0..TH {
        for i in 0..NODES {
            x.set(
                &[0, t, i, 0],
                (v[(start + t) * NODES + i] - scaler.mean()) / scaler.std(),
            );
        }
    }
    let spd = world.steps_per_day;
    Batch {
        x,
        y: Array::zeros(&[1, TF, NODES, 1]),
        tod: (start..start + TH).map(|t| t % spd).collect(),
        dow: (start..start + TH).map(|t| (t / spd) % 7).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_share_each_request_once_and_evenly() {
        for total in [ROUNDS, 42, 48, 100] {
            let shares: Vec<_> = (0..ROUNDS).map(|r| round_share(total, r)).collect();
            assert_eq!(shares[0].start, 0);
            assert_eq!(shares[ROUNDS - 1].end, total);
            for pair in shares.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            let (min, max) = shares.iter().fold((usize::MAX, 0), |(lo, hi), s| {
                (lo.min(s.len()), hi.max(s.len()))
            });
            assert!(max - min <= 1 && min >= 1, "total {total}: {shares:?}");
        }
    }
}
