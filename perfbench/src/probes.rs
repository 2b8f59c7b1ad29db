//! Probes for the traced run, each timing a layer's public functions on the
//! workload's own inputs from the benchmark's thread: a profiled batch-1
//! `no_grad` forward, the masked transition-power recompute, and the JSON
//! codec on the workload's request and reply.

use crate::stats::median;
use d2stgnn_core::TrafficModel;
use d2stgnn_data::Batch;
use d2stgnn_graph::CsrMatrix;
use d2stgnn_httpd::api::{ForecastBody, ForecastReply};
use d2stgnn_tensor::{no_grad, ProfileReport, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// Tensor op kinds reported per step or per forecast.
pub const OP_KINDS: [&str; 7] = [
    "permute",
    "broadcast_to",
    "matmul",
    "add",
    "softmax",
    "index_select",
    "spmm",
];

/// Summed tape-profiler counters over several profiling windows.
#[derive(Clone, Debug, Default)]
pub struct OpTotals {
    /// kind -> (calls, seconds)
    pub per_kind: BTreeMap<&'static str, (u64, f64)>,
    /// Highest tape high-water mark seen, in bytes.
    pub peak_tape_bytes: usize,
}

impl OpTotals {
    /// Fold one profiler report in.
    pub fn add(&mut self, report: &ProfileReport) {
        for op in &report.ops {
            let e = self.per_kind.entry(op.kind).or_default();
            e.0 += op.calls;
            e.1 += op.seconds;
        }
        self.peak_tape_bytes = self.peak_tape_bytes.max(report.peak_tape_bytes);
    }

    /// `(calls, ms)` of `kind`, divided by `per`.
    pub fn per(&self, kind: &str, per: f64) -> (f64, f64) {
        let (calls, s) = self.per_kind.get(kind).copied().unwrap_or_default();
        (calls as f64 / per, s * 1e3 / per)
    }
}

/// Result of [`forward_probe`].
pub struct ForwardProbe {
    /// Median wall time of one forward, ms.
    pub forward_ms: f64,
    /// Profiler counters summed over all repetitions.
    pub ops: OpTotals,
    /// Repetitions run.
    pub reps: usize,
}

/// Time `reps` `no_grad` forwards of `batch` on this thread with the tape
/// profiler armed.
pub fn forward_probe(model: &dyn TrafficModel, batch: &Batch, reps: usize) -> ForwardProbe {
    let mut rng = StdRng::seed_from_u64(0);
    let mut times = Vec::with_capacity(reps);
    let mut ops = OpTotals::default();
    for _ in 0..reps {
        Tape::start_profiling();
        let t = Instant::now();
        let out = no_grad(|| model.forward(batch, false, &mut rng)).value();
        times.push(t.elapsed().as_secs_f64() * 1e3);
        Tape::stop_profiling();
        ops.add(&Tape::profile_report());
        std::hint::black_box(out);
    }
    ForwardProbe {
        forward_ms: median(&times),
        ops,
        reps,
    }
}

/// Median ms to rebuild the masked transition powers `mask(P^k)`,
/// `k < ks`, of both `P_f` and `P_b` — the recompute one sparse diffusion
/// block does on every forward.
pub fn masked_powers_ms(p_f: &CsrMatrix, p_b: &CsrMatrix, ks: usize, reps: usize) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        for base in [p_f, p_b] {
            let mut power = base.clone();
            for k in 0..ks {
                std::hint::black_box(power.mask_diagonal());
                if k + 1 < ks {
                    power = power
                        .matmul_sparse(base)
                        .expect("a transition power keeps the base matrix's shape");
                }
            }
        }
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

/// Median ms to decode `body` as the server does and to encode a reply of
/// the forecast's size.
pub fn json_ms(body: &str, reply: &ForecastReply, reps: usize) -> (f64, f64) {
    let mut decode = Vec::with_capacity(reps);
    let mut encode = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        let parsed: ForecastBody = serde_json::from_str(body).expect("the workload's body parses");
        decode.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(parsed);
        let t = Instant::now();
        let text = serde_json::to_string(reply).expect("a finite reply serializes");
        encode.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(text);
    }
    (median(&decode), median(&encode))
}
