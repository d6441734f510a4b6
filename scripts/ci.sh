#!/usr/bin/env bash
# CI gate for the workspace: release build, every workspace test suite,
# the ld-e2e benchmark's smoke suite and its four seed-42 digests, the ld-perfbench regression gate on
# one CPU (bench schema check + per-row cost gate), the loadgen replays
# (a traced smoke run whose trace, events, manifest and Prometheus
# exposition must validate and whose BENCH_serve document must read back,
# and the response digests of BENCH_serve.json and BENCH_resilience.json
# recomputed), a traced `ld-cli optimize --fast` whose events must not
# change between one CPU and all, the ld-lint static-analysis gate
# (schema v3 report left in target/lint-report.json and validated, plus
# the zero-edit --fix --dry-run check), and a warning-free clippy pass
# over every target (tests, examples and benches included).
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

echo "=== ld-e2e seed-42 digests (training, the council and both serving modes stay bitwise) ==="
# Each digest covers a workload's first pass or first set-up, so it does
# not depend on --seconds; one second per workload keeps this short.
for pair in tune:2ce033262f009536 council:0a61be70f0444e96 \
        serve-shared:789f9548ce4b67b4 serve-pertenant:ab2b8ba24683a2e3; do
    workload=${pair%%:*}
    want=${pair#*:}
    got=$(cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
        run --workload "$workload" --seconds 1 --seed 42 | sed -n 's/^  digest //p')
    if [ "$got" != "$want" ]; then
        echo "ci.sh: ld-e2e $workload digest ${got:-missing}, expected $want" >&2
        exit 1
    fi
    echo "$workload digest $got"
done

echo "=== ld-perfbench --compare (bench schema + per-row cost regression gate, one CPU) ==="
# Tolerance 1.8: every row times its shipped path interleaved round by round
# with one fixed host kernel that calls no program code, and is gated on its
# cost in kernel units, so host speed largely cancels out of the cost. The
# rows run at the baseline's shapes, and a row whose params differ from the
# baseline's fails. Over 40 pinned runs on a 2-vCPU host every row's cost
# stayed within 0.63 to 1.20 of its baseline, while an lstm-forward made to
# do twice its work read 1.94 to 2.43: 1.8 leaves margin while still
# failing on a real kernel regression.
#
# The gate runs on the first CPU this script may use. When the pin went
# in, the train-epoch row timed rayon-parallel trainer mini-batches: on
# more than one core the vendored rayon shim spawned eight scoped threads
# per mini-batch, and unpinned on a 2-vCPU host train-epoch read 0.27x to
# 3.5x of its baseline and the gate failed 8 of 60 runs; pinned, it failed
# none of 40. The trainer now runs each mini-batch on the calling thread,
# so no row spawns threads per call, but the pin stays until the unpinned
# gate has run clean as often (40 runs). ld-perfbench forbids `unsafe`, so
# it cannot pin itself.
first_cpu=$(taskset -cp $$ | sed 's/.*: *//; s/[-,].*//')
taskset -c "$first_cpu" cargo run -q --release -p ld-perfbench -- --compare BENCH_perf.json --tolerance 1.8

echo "=== ld-loadgen --smoke (serve replay: equivalence, determinism, shed, cache, traced artifact set) ==="
mkdir -p target
rm -f target/ci-serve.json target/ci-serve.json.folded target/ci-serve.json.events.json \
    target/ci-serve.json.manifest.json target/ci-serve.json.prom \
    target/ci-serve-doc.json target/ci-serve-doc.json.manifest.json
LD_TRACE=target/ci-serve.json cargo run -q --release -p ld-serve --bin ld-loadgen -- --smoke \
    --out target/ci-serve-doc.json
# The batched pass ran traced: its events file carries the engine's serve.*
# series, and the manifest lists the exposition, so trace-validate checks
# all five files and the manifest's totals.
test -s target/ci-serve.json.events.json || { echo "ci.sh: ld-loadgen wrote no events file" >&2; exit 1; }
cargo run -q --release --bin ld-cli -- trace-validate target/ci-serve.json target/ci-serve.json.manifest.json
# Each reads the document back into its report type, replays its batched
# pass (its seed, tenants, ticks and mode) and fails unless that recomputes
# its response_digest: training and batched serving must stay bitwise.
cargo run -q --release -p ld-serve --bin ld-loadgen -- --check target/ci-serve-doc.json
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

echo "=== ld-cli optimize --fast on one CPU and unpinned (identical events) ==="
# The same traced search on one CPU and on every CPU this script may use:
# the rayon shim's fixed chunks and in-order combines keep every float
# reduction, and therefore the logical events file, byte-identical
# whatever the core count. No timing is involved.
mkdir -p target
rm -f target/ci-lcg30.txt target/ci-opt-1cpu.json* target/ci-opt-ncpu.json*
cargo run -q --release --bin ld-cli -- generate LCG-30min target/ci-lcg30.txt > /dev/null
taskset -c "$first_cpu" cargo run -q --release --bin ld-cli -- \
    optimize target/ci-lcg30.txt --fast --trace-out=target/ci-opt-1cpu.json > /dev/null
cargo run -q --release --bin ld-cli -- \
    optimize target/ci-lcg30.txt --fast --trace-out=target/ci-opt-ncpu.json > /dev/null
cmp target/ci-opt-1cpu.json.events.json target/ci-opt-ncpu.json.events.json

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
