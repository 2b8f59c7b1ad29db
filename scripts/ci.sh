#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, release build, full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

# perfbench/ is its own workspace, so the builds above never compile it. Its
# tests run every workload briefly and fail on a wrong forecast or a missing
# metric, so a library change that breaks the benchmark fails here instead of
# first surfacing as a failed benchmark run.
echo "==> perfbench tests (untraced and traced)"
cargo test --manifest-path perfbench/Cargo.toml --target-dir target/perfbench-check
cargo test --manifest-path perfbench/Cargo.toml --features trace --target-dir target/perfbench-check

echo "==> cargo test -q"
cargo test -q
# Plain `cargo test` runs only the root package's tests; these crates' own
# unit and integration tests are run by no other stage below, and core's and
# serve's only with `obsv` or `sanitize` on, not in the default build.
cargo test -q -p d2stgnn-graph -p d2stgnn-data -p d2stgnn-baselines -p d2stgnn-bench \
    -p d2stgnn-core -p d2stgnn-serve

# Every other tensor, core and serve stage runs with debug assertions and
# overflow checks on; this one runs those suites (the layout walks' offset
# arithmetic, the threads x SIMD determinism matrix, the dense-vs-sparse
# forecast compare, the serve paths) under the codegen perfbench ships.
echo "==> tensor, core and serve tests with release codegen"
cargo test -q --release -p d2stgnn-tensor -p d2stgnn-core -p d2stgnn-serve

echo "==> xlint (workspace static analysis, ratcheted against xlint_report.json)"
cargo test -q -p xlint
mkdir -p target/experiments
XLINT_START=$(date +%s%N)
cargo run -q --release -p xlint -- --format json > target/experiments/xlint_report.json
XLINT_MS=$(( ($(date +%s%N) - XLINT_START) / 1000000 ))
# Ratchet gate: a clean run rewrites the committed baseline in place when
# findings were fixed (auto-shrink); any resulting diff must be committed.
git diff --exit-code xlint_report.json || {
    echo "xlint baseline shrank (fixed findings): commit the updated xlint_report.json" >&2
    exit 1
}
# Wall-clock budget: the analysis must stay cheap enough to run on every push.
# The budget includes the cargo-run wrapper; the analysis itself reports its
# own elapsed_ms inside the JSON artifact.
if [ "$XLINT_MS" -gt 60000 ]; then
    echo "xlint took ${XLINT_MS} ms, over the 60 s budget" >&2
    exit 1
fi
echo "xlint OK in ${XLINT_MS} ms (artifact: target/experiments/xlint_report.json)"

echo "==> cargo test -q --features sanitize (autograd + lock-order sanitizers)"
cargo test -q --features sanitize
cargo test -q -p d2stgnn-tensor --features sanitize
cargo test -q -p d2stgnn-serve --features sanitize

echo "==> telemetry layer: tests with the obsv feature off and on"
# The kernel crate stores its pool counters itself and pushes nothing into
# the telemetry registry; its `obsv` feature gates only the tape profiler.
# A registry push from d2stgnn-tensor has to add the dependency back, and
# change this check, on purpose.
TENSOR_DEPS=$(cargo tree --offline --locked -p d2stgnn-tensor --features obsv -e normal)
if grep -q d2stgnn-obsv <<<"$TENSOR_DEPS"; then
    echo "d2stgnn-tensor depends on d2stgnn-obsv:" >&2
    echo "$TENSOR_DEPS" >&2
    exit 1
fi
cargo test -q -p d2stgnn-obsv
cargo test -q -p d2stgnn-obsv --features enabled
cargo test -q -p d2stgnn-tensor --features obsv
cargo test -q -p d2stgnn-core --features obsv
cargo test -q -p d2stgnn-serve --features obsv
cargo test -q --features obsv
cargo clippy -p d2stgnn-obsv --all-targets --features enabled -- -D warnings
cargo clippy -p d2stgnn-bench --all-targets --features obsv -- -D warnings

echo "==> obsv smoke run (tiny train + served batch + HTTP forecast trace)"
cargo run -q -p d2stgnn-bench --features obsv --bin obsv_smoke

echo "==> resume fault-injection smoke (SIGKILL mid-epoch, bit-identical resume)"
cargo test -q --test resume_e2e -- --exact sigkill_mid_epoch_then_resume_is_bit_identical

echo "==> tensor kernel bench smoke (release, schema + simd/parallel speedup floors)"
cargo run -q --release -p d2stgnn-bench --bin tensor_kernels -- --fast
python3 - <<'EOF'
import json

def load(path):
    doc = json.load(open(path))
    assert doc["schema"] == "d2stgnn-bench-v1", doc["schema"]
    assert doc["name"] == "tensor_kernels"
    cfg = doc["config"]
    res = doc["results"]
    cfg = json.loads(cfg) if isinstance(cfg, str) else cfg
    res = json.loads(res) if isinstance(res, str) else res
    return cfg, res

def rows_at(res, threads):
    gemm = [r for r in res if r["kernel"] == "gemm" and r["threads"] == threads]
    assert gemm, f"bench artifact has no gemm rows at threads={threads}"
    return max(gemm, key=lambda r: r["flops"])

# Live smoke run: fewer shapes than the full run, but the floors are read off
# the largest GEMM, the full run's 512³ (a 128³ GEMM takes about 0.1 ms, too
# short to time or to split). This checks the wiring (per-thread rows, simd
# column) and guards against gross regressions.
cfg, res = load("target/experiments/BENCH_tensor_kernels.json")
t1 = rows_at(res, 1)
assert t1["speedup"] >= 1.0, (t1["shape"], t1["speedup"])
if cfg["simd_kernel"] != "scalar":
    assert t1["simd_speedup"] > 0.8, (t1["shape"], t1["simd_speedup"])
if cfg["cores"] >= 2:
    # Parallel-speedup floor only where a second core actually exists.
    t2 = rows_at(res, 2)
    assert t2["parallel_speedup"] >= 1.6, (t2["shape"], t2["parallel_speedup"])
    live = f"par {t2['parallel_speedup']:.2f}x@2t"
else:
    # Single-core runner (the loadgen history shows CI can land on one):
    # require only that pool dispatch does not regress the serial path.
    assert t1["parallel_speedup"] >= 0.8, (t1["shape"], t1["parallel_speedup"])
    live = f"1-core, par {t1['parallel_speedup']:.2f}x@1t"

# Committed full-size artifact: the real floors from the PR-9 acceptance
# criteria, evaluated against the machine that produced it.
ccfg, cres = load("BENCH_tensor_kernels.json")
c1 = rows_at(cres, 1)
assert c1["speedup"] >= 2.0, (c1["shape"], c1["speedup"])
if ccfg["simd_kernel"] != "scalar":
    assert c1["simd_speedup"] >= 1.4, (c1["shape"], c1["simd_speedup"])
if ccfg["cores"] >= 2:
    c2 = rows_at(cres, 2)
    assert c2["parallel_speedup"] >= 1.6, (c2["shape"], c2["parallel_speedup"])
else:
    assert c1["parallel_speedup"] >= 0.9, (c1["shape"], c1["parallel_speedup"])
print(
    f"bench smoke OK: live {t1['shape']} speedup {t1['speedup']:.2f}x "
    f"simd {t1['simd_speedup']:.2f}x ({live}); committed {c1['shape']} "
    f"{c1['speedup']:.2f}x seed, simd {c1['simd_speedup']:.2f}x "
    f"[{ccfg['simd_kernel']}, {ccfg['cores']} core(s)]"
)
EOF

echo "==> graph scale bench smoke (sparse path: equivalence matrix + sub-quadratic floor)"
cargo run -q --release -p d2stgnn-bench --bin graph_scale -- --fast
python3 - <<'EOF'
import json

def load(path):
    doc = json.load(open(path))
    assert doc["schema"] == "d2stgnn-bench-v1", doc["schema"]
    assert doc["name"] == "graph_scale"
    res = doc["results"]
    res = json.loads(res) if isinstance(res, str) else res
    return res

# Live smoke run: small networks, so only the wiring and the dense-sparse
# equivalence matrix are enforced (the binary itself asserts the 6-cell
# byte-identity before writing the artifact; re-check here for the record).
res = load("target/experiments/BENCH_graph_scale.json")
eq = res["equivalence"]
assert eq["identical"] is True, "sparse forecasts diverged from dense"
assert eq["runs"] >= 6, eq["runs"]
assert len(res["rows"]) >= 4, len(res["rows"])
assert all(r["epoch_ms"] > 0 and r["serve_ms"] > 0 for r in res["rows"])

# Committed full-run artifact: the PR-10 acceptance criteria — at least 4
# network sizes up to >= 50k nodes, epoch-time scaling exponent < 1.5
# (sub-quadratic: the dense path is >= 2 by construction), equivalence held.
full = load("BENCH_graph_scale.json")
sizes = [r["nodes"] for r in full["rows"]]
assert len(sizes) >= 4, sizes
assert max(sizes) >= 50_000, sizes
assert full["epoch_exponent"] < 1.5, full["epoch_exponent"]
assert full["equivalence"]["identical"] is True
print(
    f"graph scale OK: live exponent {res['epoch_exponent']:.2f} "
    f"({len(res['rows'])} sizes), committed exponent "
    f"{full['epoch_exponent']:.2f} up to {max(sizes)} nodes, "
    f"equivalence {full['equivalence']['runs']} runs identical"
)
EOF

echo "==> httpd front-end: crate tests + 2-shard scale-out smoke"
cargo test -q -p d2stgnn-httpd
cargo test -q -p d2stgnn-httpd --features obsv
cargo test -q -p d2stgnn-httpd --features sanitize
cargo run -q --release -p d2stgnn-bench --bin loadgen -- --fast
python3 - <<'EOF'
import json
doc = json.load(open("target/experiments/BENCH_serve_scaleout.json"))
assert doc["schema"] == "d2stgnn-bench-v1", doc["schema"]
assert doc["name"] == "serve_scaleout"
res = doc["results"]
phases = {r["phase"]: r for r in res["phases"]}
assert set(phases) == {"saturate_1shard", "saturate_2shard", "overload_4x"}
summary = res["summary"]
# The smoke run is short and noisy; require only a clear scaling signal.
# The committed full-run artifact is where the 1.7x+ floor is enforced.
assert summary["scaleout_ratio"] >= 1.3, summary["scaleout_ratio"]
assert summary["overload_shed_503"] > 0, "admission control never engaged"
assert summary["overload_p99_ms"] < 1000.0, summary["overload_p99_ms"]
committed = json.load(open("BENCH_serve_scaleout.json"))
full = json.loads(committed["results"]) if isinstance(committed["results"], str) else committed["results"]
assert full["summary"]["scaleout_ratio"] >= 1.7, full["summary"]["scaleout_ratio"]
print(
    f"scale-out smoke OK: {summary['scaleout_ratio']:.2f}x live, "
    f"{full['summary']['scaleout_ratio']:.2f}x committed, "
    f"p99 {summary['overload_p99_ms']:.0f} ms under 4x load"
)
EOF

echo "==> tracing overhead smoke (obsv inert baseline vs live, same binary; 5 alternated pairs)"
# One inert run and one live run form a pair. The two run seconds apart on a
# shared host whose speed drifts by more than the cost under test, so one
# pair can read well above or below it: the bar applies to the median of
# five alternated pairs. 960 requests keep each trial a few hundred ms long
# at today's serve throughput (96 requests took about 45 ms).
cargo build -q --release -p d2stgnn-bench --bin tracing_overhead
cp target/release/tracing_overhead target/experiments/tracing_overhead_inert
cargo build -q --release -p d2stgnn-bench --features obsv --bin tracing_overhead
cp target/release/tracing_overhead target/experiments/tracing_overhead_live
: > target/experiments/tracing_overhead_pairs.txt
for _ in 1 2 3 4 5; do
  target/experiments/tracing_overhead_inert --fast --requests 960
  target/experiments/tracing_overhead_live --fast --requests 960
  python3 -c '
import json
res = json.load(open("target/experiments/BENCH_tracing_overhead.json"))["results"]
res = json.loads(res) if isinstance(res, str) else res
print(res["overhead_pct"])' >> target/experiments/tracing_overhead_pairs.txt
done
python3 - <<'EOF'
import json
import statistics
doc = json.load(open("target/experiments/BENCH_tracing_overhead.json"))
assert doc["schema"] == "d2stgnn-bench-v1", doc["schema"]
assert doc["name"] == "tracing_overhead"
res = doc["results"]
res = json.loads(res) if isinstance(res, str) else res
assert res["obsv_enabled"] is True
assert res["baseline_req_per_s"] > 0 and res["traced_req_per_s"] > 0
pairs = [float(x) for x in open("target/experiments/tracing_overhead_pairs.txt").read().split()]
assert len(pairs) == 5, pairs
overhead = statistics.median(pairs)
# The smoke run is short and scheduler-noisy; require only that tracing is
# not catastrophically slow. The committed full-run artifact is where the
# < 3% acceptance bar is enforced.
assert overhead < 15.0, pairs
committed = json.load(open("BENCH_tracing_overhead.json"))
full = committed["results"]
full = json.loads(full) if isinstance(full, str) else full
assert full["obsv_enabled"] is True
assert full["overhead_pct"] < 3.0, full["overhead_pct"]
print(
    f"tracing overhead OK: {overhead:+.2f}% live (median of pairs "
    f"{', '.join(f'{p:+.1f}' for p in pairs)}), "
    f"{full['overhead_pct']:+.2f}% committed (bar < 3%)"
)
EOF

echo "CI OK"
