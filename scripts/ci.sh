#!/usr/bin/env bash
# CI gate for the workspace: release build, every workspace test suite,
# the ld-e2e benchmark's smoke suite, the ld-perfbench smoke run on one CPU
# (kernel equivalence asserts + bench schema check), the loadgen replays
# (a traced smoke run whose trace, events, manifest and Prometheus
# exposition must validate, and the response digests of BENCH_serve.json
# and BENCH_resilience.json recomputed), the ld-lint static-analysis
# gate (schema v3 report left in target/lint-report.json and validated, plus
# the zero-edit --fix --dry-run check), and a warning-free
# clippy pass over every target (tests, examples and benches included).
# Run from the repository root:
#
#     ./scripts/ci.sh
#
# Set CI_SKIP_BUILD=1 to reuse an existing release build.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${CI_SKIP_BUILD:-0}" != "1" ]; then
    echo "=== cargo build --release ==="
    cargo build --release
fi

echo "=== cargo test -q --workspace (every crate's unit, integration and property suites) ==="
cargo test -q --workspace

echo "=== ld-e2e smoke suite (every benchmark workload, council's bitwise forecasts-repeat) ==="
cargo test -q --release --offline --manifest-path e2ebench/Cargo.toml

echo "=== ld-perfbench --smoke (kernel equivalence + bench schema + regression gate, one CPU) ==="
# Tolerance 1.8: every row times its before/after legs interleaved
# round-by-round, so host frequency drift cancels out of the ratio and
# the remaining run-to-run noise is leg-local jitter. 1.8 leaves margin
# while still failing on any real kernel regression.
#
# The gate runs on the first CPU this script may use. At smoke shapes the
# train-epoch row is the only one that times rayon-parallel code (trainer
# mini-batches), and on more than one core the vendored rayon shim spawns
# eight scoped threads per parallel call. Unpinned on a 2-vCPU host,
# train-epoch read 0.27x to 3.5x of its baseline and the gate failed 8 of
# 60 runs; pinned, it failed none of 40. On one core the shim runs its
# chunks inline. ld-perfbench forbids `unsafe`, so it cannot pin itself.
first_cpu=$(taskset -cp $$ | sed 's/.*: *//; s/[-,].*//')
taskset -c "$first_cpu" cargo run -q --release -p ld-perfbench -- --smoke --compare BENCH_perf.json --tolerance 1.8

echo "=== ld-loadgen --smoke (serve replay: equivalence, determinism, shed, cache, traced artifact set) ==="
mkdir -p target
rm -f target/ci-serve.json target/ci-serve.json.folded target/ci-serve.json.events.json \
    target/ci-serve.json.manifest.json target/ci-serve.json.prom
LD_TRACE=target/ci-serve.json cargo run -q --release -p ld-serve --bin ld-loadgen -- --smoke
# The batched pass ran traced: its events file carries the engine's serve.*
# series, and the manifest lists the exposition, so trace-validate checks
# all five files and the manifest's totals.
test -s target/ci-serve.json.events.json || { echo "ci.sh: ld-loadgen wrote no events file" >&2; exit 1; }
cargo run -q --release --bin ld-cli -- trace-validate target/ci-serve.json target/ci-serve.json.manifest.json
# Replays BENCH_serve.json's batched pass (its seed, tenants, ticks and mode)
# and fails unless that recomputes the committed response_digest: training
# and batched serving must stay bitwise.
cargo run -q --release -p ld-serve --bin ld-loadgen -- --check BENCH_serve.json

echo "=== ld-loadgen --chaos --smoke (chaos soak: availability, isolation, determinism) ==="
mkdir -p target
cargo run -q --release -p ld-serve --bin ld-loadgen -- --chaos --smoke --out target/ci-resilience.json
# Each replays the document's first chaos pass (its seed, chaos seed,
# tenants, ticks and mode) and fails unless that recomputes the document's
# response_digest.
cargo run -q --release -p ld-serve --bin ld-loadgen -- --check-resilience target/ci-resilience.json
cargo run -q --release -p ld-serve --bin ld-loadgen -- --check-resilience BENCH_resilience.json

echo "=== traced fig6 smoke run (spans, events and run-manifest validation) ==="
mkdir -p target
rm -f target/ci-trace.json target/ci-trace.json.folded target/ci-trace.json.events.json \
    target/ci-trace.json.manifest.json
LD_FAST=1 LD_TRACE=target/ci-trace.json cargo run -q --release -p ld-bench --bin fig6_workflow > /dev/null
# The manifest lists the folded stacks and the events file, so both must
# exist and validate, and its span and event totals must match the files.
test -s target/ci-trace.json.events.json || { echo "ci.sh: fig6 wrote no events file" >&2; exit 1; }
cargo run -q --release --bin ld-cli -- trace-validate target/ci-trace.json target/ci-trace.json.manifest.json

echo "=== ld-lint --deny (static analysis gate, schema_version 3) ==="
mkdir -p target
cargo run -q -p ld-lint -- --deny --format json > target/lint-report.json
cargo run -q -p ld-lint -- --check-report target/lint-report.json

echo "=== ld-lint --fix --dry-run (clean tree proposes zero edits) ==="
fix_out=$(cargo run -q -p ld-lint -- --fix --dry-run 2>&1)
echo "$fix_out"
case "$fix_out" in
    *"0 fix(es) available"*) ;;
    *) echo "ci.sh: --fix --dry-run proposed edits on a supposedly clean tree" >&2; exit 1 ;;
esac

echo "=== cargo clippy --workspace --all-targets -- -D warnings ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "ci.sh: all green"
