//! The d2stgnn benchmark: one workload per run, selected by name, with
//! inputs generated from `--seed`. An untraced build prints the
//! end-to-end metrics; the `trace` build prints the per-layer metrics.
//!
//! ```text
//! perfbench --workload train|serve_city --seed N --seconds S --trace 0|1
//!           [--smoke] [--spans-out PATH]
//!           [--untraced-windows-per-s X] [--untraced-mae Y]
//! ```
//!
//! The last stdout line is `{"correct":..,"attempted":..,"failed":..,
//! "metrics":{name:{"value":..,"unit":..}}}`. The exit code is non-zero
//! when an output check failed. `run.py` builds both variants and runs
//! them; see `README.md`.

mod client;
mod loadgen;
mod probes;
mod report;
mod serving;
mod spans;
mod stats;
mod sysinfo;
mod train;

use report::Outcome;
use spans::Recorder;
use std::path::PathBuf;
use std::time::Instant;
use sysinfo::CpuTimes;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Per-layer (traced) run.
    pub trace: bool,
    /// Shrunken sizes for the test suite's smoke run.
    pub smoke: bool,
    /// Where the traced run writes its spans.
    pub spans_out: Option<PathBuf>,
    /// The untraced run's throughput, for the tracing overhead.
    pub untraced_windows_per_s: Option<f64>,
    /// The untraced run's MAE, which a traced run must reproduce.
    pub untraced_mae: Option<f64>,
}

const USAGE: &str = "usage: perfbench --workload train|serve_city --seed N \
                     --seconds S --trace 0|1 [--smoke] [--spans-out PATH] \
                     [--untraced-windows-per-s X] [--untraced-mae Y]";

/// Every end-to-end metric, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("windows_per_s", "1/s"),
    ("mae", "mph"),
    ("lat_p50_ms.low", "ms"),
    ("lat_tail_ms.low", "ms"),
    ("lat_p50_ms.high", "ms"),
    ("lat_tail_ms.high", "ms"),
];

/// Every per-layer metric, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("data.batch_ms", "ms"),
    ("core.forward_ms", "ms"),
    ("tensor.backward_ms", "ms"),
    ("tensor.optim_ms", "ms"),
    ("tensor.op.permute_ms", "ms"),
    ("tensor.op.permute_calls", "count"),
    ("tensor.op.broadcast_to_ms", "ms"),
    ("tensor.op.broadcast_to_calls", "count"),
    ("tensor.op.matmul_ms", "ms"),
    ("tensor.op.matmul_calls", "count"),
    ("tensor.op.add_ms", "ms"),
    ("tensor.op.add_calls", "count"),
    ("tensor.op.softmax_ms", "ms"),
    ("tensor.op.softmax_calls", "count"),
    ("tensor.op.index_select_ms", "ms"),
    ("tensor.op.index_select_calls", "count"),
    ("tensor.op.spmm_ms", "ms"),
    ("tensor.op.spmm_calls", "count"),
    ("tensor.tape_peak_mb", "MB"),
    ("tensor.pool_tasks", "count"),
    ("tensor.bufpool_hit_ratio", "ratio"),
    ("graph.masked_power_ms", "ms"),
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
    ("step.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        smoke: false,
        spans_out: None,
        untraced_windows_per_s: None,
        untraced_mae: None,
    };
    let (mut seed, mut seconds, mut trace) = (false, false, false);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<f64>()
                .ok()
                .filter(|x| x.is_finite())
                .ok_or_else(|| format!("{flag}: {v:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: {value:?} is not an unsigned integer"))?;
                seed = true;
            }
            "--seconds" => {
                args.seconds = number(&value)?;
                seconds = args.seconds > 0.0;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
                trace = true;
            }
            "--spans-out" => args.spans_out = Some(PathBuf::from(value)),
            "--untraced-windows-per-s" => args.untraced_windows_per_s = Some(number(&value)?),
            "--untraced-mae" => args.untraced_mae = Some(number(&value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seed && seconds && trace) {
        return Err("--seed, --seconds (> 0) and --trace are required".to_string());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let train = match args.workload.as_str() {
        "train" => true,
        "serve_city" => false,
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.trace != cfg!(feature = "trace") {
        eprintln!(
            "perfbench: --trace {} needs a build {} the `trace` feature",
            u8::from(args.trace),
            if args.trace { "with" } else { "without" }
        );
        std::process::exit(2);
    }
    // The compute pool reads D2_THREADS once, on first use; pin it per
    // workload before any tensor work (no other thread exists yet).
    let threads = if train {
        train::THREADS
    } else {
        serving::THREADS
    };
    std::env::set_var("D2_THREADS", threads.to_string());

    let cpu_before = CpuTimes::now();
    let wall = Instant::now();
    let rec = Recorder::new(args.trace);
    let mut out = Outcome::default();
    match (train, args.trace) {
        (true, false) => train::run(&args, &mut out),
        (true, true) => train::run_traced(&args, &rec, &mut out),
        (false, _) => serving::run(&args, &rec, &mut out),
    }

    let pool = d2stgnn_tensor::pool::stats();
    out.note(
        "host.steal_pct",
        CpuTimes::now().steal_pct_since(&cpu_before),
    );
    out.note("process.cpu_s", sysinfo::process_cpu_s());
    out.note("process.wall_s", wall.elapsed().as_secs_f64());
    out.note("pool.threads", pool.threads);
    out.note("pool.simd_kernel", pool.simd_kernel);
    out.note("seed", args.seed);
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        // A traced serving run also drives the end-to-end phases; their
        // figures under tracing are context, not the traced run's metrics.
        let (layers, traced_e2e): (Vec<_>, Vec<_>) = std::mem::take(&mut out.metrics)
            .into_iter()
            .partition(|m| PER_LAYER.iter().any(|(name, _)| *name == m.name));
        out.metrics = layers;
        for m in traced_e2e {
            out.note(&format!("traced.{}", m.name), m.value);
        }
    }
    if out.check_failures.is_empty() {
        let mut printed: Vec<(String, &str)> = out
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit))
            .collect();
        let mut want: Vec<(String, &str)> =
            expected.iter().map(|&(n, u)| (n.to_string(), u)).collect();
        printed.sort_unstable();
        want.sort_unstable();
        out.check(want == printed, || {
            format!("printed metrics {printed:?} differ from the declared set")
        });
    }
    if let Some(path) = &args.spans_out {
        if args.trace {
            if let Err(e) = rec.write_jsonl(path) {
                eprintln!("perfbench: writing spans to {}: {e}", path.display());
            }
        }
    }
    print!("{}", out.render(&args.workload, args.trace));
    std::process::exit(if out.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload train --seed 7 --seconds 30 --trace 0").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("train", 7, 30.0, false)
        );
        assert!(parse("--workload train --seed 7 --seconds 30").is_err());
        assert!(parse("--workload train --seed x --seconds 30 --trace 0").is_err());
        assert!(parse("--workload train --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload train --seed 1 --seconds 3 --trace 2").is_err());
    }

    #[test]
    fn declared_metric_names_are_distinct() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
