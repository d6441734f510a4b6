//! `ld-perfbench` — the reproducible perf-bench harness that seeds the
//! repo's BENCH trajectory.
//!
//! Every named kernel is timed on two paths, each called by name: the
//! retained *reference* implementation ("before": allocating LSTM
//! forward/backward and reference trainer, naive matmul, per-row gate
//! dots, serial Gram build) and the optimized implementation ("after":
//! workspace-reusing LSTM kernels and trainer, packed register-blocked
//! GEMM, fused gate step, the shipped serial-or-packed Gram dispatcher).
//! The `observe-overhead` row instead times one serving engine with its
//! tracer off ("before") and on ("after"), so its speedup is below 1 by
//! the observability plane's cost and falls when that cost grows. Each
//! row reports per-leg medians of `reps` interleaved before/after pairs
//! taken after one discarded pair — medians because a shared CI box
//! produces one-sided latency noise that a mean would absorb and a median
//! rejects.
//!
//! Before anything is timed, every before/after pair is equivalence-checked
//! (1e-9 relative for float paths, bitwise for the paths that guarantee it),
//! so the harness can never publish a speedup between two computations that
//! have silently drifted apart. The CloudInsight walk-forward is timed end
//! to end by the `ld-e2e` benchmark's `council` workload, not here.
//!
//! Modes:
//! - full (default): realistic shapes; writes `BENCH_perf.json` (stable
//!   schema, `schema_version: 2`) into the working directory.
//! - `--smoke`: tiny shapes; all equivalence asserts still run and the
//!   JSON document is built and schema-checked, but nothing is written
//!   unless `--out` is given. Wired into `scripts/ci.sh`.
//!
//! No external benchmark framework: the whole harness is this one file, so
//! its behavior is auditable and identical on every machine.
//!
//! Exit codes: 0 clean, 3 when `--compare` finds a regression, 2 on a usage
//! error (unknown flag, missing or malformed flag value, unreadable or
//! malformed baseline), reported before any row runs.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::hint::black_box;
use std::time::Instant;

use ld_api::MinMaxScaler;
use ld_gp::gram;
use ld_gp::{Kernel, KernelKind};
use ld_linalg::pack::PackedA;
use ld_linalg::Matrix;
use ld_nn::optim::{Adam, AdamConfig};
use ld_nn::reference::ReferenceLstmForecaster;
use ld_nn::{ForecasterConfig, LstmForecaster, Sample, TrainOptions, Trainer};
use ld_serve::{
    response_digest, ClientKey, EngineConfig, ExecMode, LifecycleConfig, ModelSnapshot,
    RegistryConfig, Request, ServeEngine, SnapshotStore,
};
use ld_telemetry::Tracer;
use serde::Value;

/// Bump when the shape of `BENCH_perf.json` changes.
const SCHEMA_VERSION: u64 = 2;

/// Harness configuration resolved from the command line.
struct Cfg {
    smoke: bool,
    reps: usize,
    /// Output path; `None` means "do not write" (smoke default).
    out: Option<String>,
    /// Baseline `BENCH_perf.json` to regression-gate against.
    compare: Option<String>,
    /// Compare tolerance: a kernel regresses when
    /// `current_speedup * tolerance < baseline_speedup`.
    tolerance: f64,
}

/// One before/after measurement.
struct KernelResult {
    name: &'static str,
    params: String,
    before_median_secs: f64,
    after_median_secs: f64,
}

impl KernelResult {
    fn speedup(&self) -> f64 {
        self.before_median_secs / self.after_median_secs.max(1e-12)
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".to_string(), Value::String(self.name.to_string())),
            ("params".to_string(), Value::String(self.params.clone())),
            (
                "before_median_secs".to_string(),
                Value::Float(self.before_median_secs),
            ),
            (
                "after_median_secs".to_string(),
                Value::Float(self.after_median_secs),
            ),
            ("speedup".to_string(), Value::Float(self.speedup())),
        ])
    }
}

/// Per-leg median wall-clock seconds of `rounds` interleaved
/// before/after pairs, after one discarded warmup pair. Every row times
/// through this: the host's load and frequency drift over any measurement
/// window, and timing all "before" runs then all "after" runs folds that
/// drift into the ratio (the later leg reads slower than it is).
/// Alternating the legs round-by-round puts both medians under the same
/// drift, which is what lets the CI `--compare` gate run with a tight
/// tolerance.
fn interleaved_medians(
    rounds: usize,
    mut before: impl FnMut(),
    mut after: impl FnMut(),
) -> (f64, f64) {
    before();
    after();
    let mut before_times = Vec::with_capacity(rounds.max(1));
    let mut after_times = Vec::with_capacity(rounds.max(1));
    for _ in 0..rounds.max(1) {
        let t0 = Instant::now();
        before();
        before_times.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        after();
        after_times.push(t0.elapsed().as_secs_f64());
    }
    before_times.sort_by(f64::total_cmp);
    after_times.sort_by(f64::total_cmp);
    (
        before_times[before_times.len() / 2],
        after_times[after_times.len() / 2],
    )
}

/// Asserts `a` and `b` agree to 1e-9 relative (the repo-wide kernel
/// equivalence gate).
fn assert_close(what: &str, a: f64, b: f64) {
    let scale = a.abs().max(b.abs()).max(1.0);
    assert!(
        (a - b).abs() <= 1e-9 * scale,
        "{what}: reference {a} vs optimized {b} differ beyond 1e-9 relative"
    );
}

/// Deterministic bounded workload series (sine + weekly-ish residue).
fn series(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 0.5 + 0.4 * (i as f64 * 0.13).sin() + 0.01 * (i % 7) as f64)
        .collect()
}

fn bench_lstm_forward(cfg: &Cfg) -> KernelResult {
    let (hist, hidden, layers) = if cfg.smoke { (6, 6, 1) } else { (8, 8, 1) };
    let model = LstmForecaster::new(ForecasterConfig {
        history_len: hist,
        hidden_size: hidden,
        num_layers: layers,
        seed: 42,
    });
    let window = series(hist);
    assert_close(
        "lstm-forward",
        model.predict_reference(&window),
        model.predict(&window),
    );
    // Inner repeats amortize timer-read overhead on a microsecond kernel.
    let inner = 16;
    let (before, after) = interleaved_medians(
        cfg.reps,
        || {
            for _ in 0..inner {
                black_box(model.predict_reference(black_box(&window)));
            }
        },
        || {
            for _ in 0..inner {
                black_box(model.predict(black_box(&window)));
            }
        },
    );
    let (before, after) = (before / inner as f64, after / inner as f64);
    KernelResult {
        name: "lstm-forward",
        params: format!("T={hist} H={hidden} L={layers}"),
        before_median_secs: before,
        after_median_secs: after,
    }
}

fn bench_lstm_bptt(cfg: &Cfg) -> KernelResult {
    let (hist, hidden, layers) = if cfg.smoke { (6, 6, 1) } else { (8, 8, 1) };
    let model = LstmForecaster::new(ForecasterConfig {
        history_len: hist,
        hidden_size: hidden,
        num_layers: layers,
        seed: 43,
    });
    let window = series(hist);
    let target = 0.62;
    let (loss_ref, _) = model.sample_grads_reference(&window, target);
    let mut grads = model.zero_grads();
    let loss_new = model.sample_grads_into(&window, target, &mut grads);
    assert_close("lstm-bptt", loss_ref, loss_new);
    let inner = 8;
    let (before, after) = interleaved_medians(
        cfg.reps,
        || {
            for _ in 0..inner {
                black_box(model.sample_grads_reference(black_box(&window), target));
            }
        },
        || {
            for _ in 0..inner {
                black_box(model.sample_grads_into(black_box(&window), target, &mut grads));
            }
        },
    );
    let (before, after) = (before / inner as f64, after / inner as f64);
    KernelResult {
        name: "lstm-bptt",
        params: format!("T={hist} H={hidden} L={layers}"),
        before_median_secs: before,
        after_median_secs: after,
    }
}

fn bench_train_epoch(cfg: &Cfg) -> KernelResult {
    let (n, hist, hidden, epochs) = if cfg.smoke {
        (80, 6, 6, 1)
    } else {
        (360, 8, 8, 3)
    };
    let data = series(n);
    let samples: Vec<Sample> = (hist..n)
        .map(|i| Sample::new(data[i - hist..i].to_vec(), data[i]))
        .collect();
    let trainer = Trainer::new(TrainOptions {
        batch_size: 32,
        max_epochs: epochs,
        patience: 0, // fixed-length runs: identical epoch counts on both paths
        shuffle_seed: 7,
        ..TrainOptions::default()
    });
    let base = LstmForecaster::new(ForecasterConfig {
        history_len: hist,
        hidden_size: hidden,
        num_layers: 1,
        seed: 9,
    });
    let run_ref = || {
        let mut m = ReferenceLstmForecaster(base.clone());
        let mut opt = Adam::new(AdamConfig::default());
        trainer.fit(&mut m, &mut opt, &samples, &[])
    };
    let run_fast = || {
        let mut m = base.clone();
        let mut opt = Adam::new(AdamConfig::default());
        trainer.fit(&mut m, &mut opt, &samples, &[])
    };
    // Same seed, same schedule: per-epoch losses must agree to the
    // documented 1e-7 relative tolerance (batch-gradient accumulation
    // order differs between the paths, so bitwise equality is not owed).
    let r_ref = run_ref();
    let r_fast = run_fast();
    assert_eq!(
        r_ref.epochs_run, r_fast.epochs_run,
        "train-epoch: epoch counts diverged"
    );
    for (e, (a, b)) in r_ref
        .train_losses
        .iter()
        .zip(&r_fast.train_losses)
        .enumerate()
    {
        let scale = a.abs().max(b.abs()).max(1.0);
        assert!(
            (a - b).abs() <= 1e-7 * scale,
            "train-epoch: epoch {e} loss {a} vs {b} beyond 1e-7 relative"
        );
    }
    // Full fits are expensive; cap rounds independently of --reps.
    let rounds = if cfg.smoke { 3 } else { 5 };
    let (before, after) = interleaved_medians(
        rounds,
        || {
            black_box(run_ref());
        },
        || {
            black_box(run_fast());
        },
    );
    let (before, after) = (before / epochs as f64, after / epochs as f64);
    KernelResult {
        name: "train-epoch",
        params: format!(
            "samples={} T={hist} H={hidden} L=1 batch=32 (per-epoch over {epochs}-epoch fit)",
            samples.len()
        ),
        before_median_secs: before,
        after_median_secs: after,
    }
}

fn bench_gram_build(cfg: &Cfg) -> KernelResult {
    let (n, d) = if cfg.smoke { (24, 3) } else { (256, 8) };
    let x: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..d).map(|j| ((i * d + j) as f64 * 0.29).sin()).collect())
        .collect();
    let kernel = Kernel::new(KernelKind::Matern52, 1.2, 0.45);
    // The packed build must be bitwise identical to the serial reference,
    // and the shipped dispatcher must agree with both.
    let k_serial = gram::build_serial(&kernel, &x, 1e-6);
    let k_packed = gram::build_packed(&kernel, &x, 1e-6);
    assert_eq!(
        k_serial.max_abs_diff(&k_packed),
        0.0,
        "gram-build: packed build is not bitwise identical to serial"
    );
    assert_eq!(gram::build(&kernel, &x, 1e-6).max_abs_diff(&k_serial), 0.0);
    // Interleaved legs: both builds are pair-math-bound (an `exp` per
    // entry), so the layout win is a moderate factor that back-to-back
    // timing would let host frequency drift wash out.
    let inner = cfg.reps.max(2);
    let (before, after) = interleaved_medians(
        cfg.reps.max(3),
        || {
            for _ in 0..inner {
                black_box(gram::build_serial(&kernel, black_box(&x), 1e-6));
            }
        },
        || {
            for _ in 0..inner {
                black_box(gram::build(&kernel, black_box(&x), 1e-6));
            }
        },
    );
    let (before, after) = (before / inner as f64, after / inner as f64);
    KernelResult {
        name: "gram-build",
        params: format!("n={n} d={d} matern52"),
        before_median_secs: before,
        after_median_secs: after,
    }
}

fn bench_packed_gemm(cfg: &Cfg) -> KernelResult {
    // LSTM-batch-shaped rectangular product: (4H x H) * (H x B), the
    // recurrent block of the `4H x (I + H + 1)` fused-panel product
    // `predict_batch_fused` drives per layer step. "Before" is the naive
    // streaming product (`Matrix::matmul`, the kernel's oracle); "after"
    // packs the left operand once (the per-model cached-panel pattern) and
    // runs the register-blocked plain-lane kernel into a reused buffer.
    // Both accumulate each output through a single ascending-k chain, so
    // the results must be bitwise identical. The kernel is microseconds
    // even at the full shape, so smoke mode keeps it — the smoke
    // `--compare` gate then measures the same crossover the committed full
    // baseline records.
    let (h_dim, batch) = (32, 64);
    let (m, k, n) = (4 * h_dim, h_dim, batch);
    let a = Matrix::from_fn(m, k, |i, j| ((i * k + j) as f64 * 0.019).sin());
    let b = Matrix::from_fn(k, n, |i, j| ((i * n + j) as f64 * 0.023).cos());
    let packed = PackedA::from_matrix(&a);
    let reference = a.matmul(&b).expect("conforming shapes");
    let mut out = vec![0.0; m * n];
    packed.matmul_into(&b, &mut out);
    for (i, (r, f)) in reference.as_slice().iter().zip(&out).enumerate() {
        assert_eq!(
            r.to_bits(),
            f.to_bits(),
            "packed-gemm: element {i} differs ({r} vs {f})"
        );
    }
    let inner = 16;
    let (before, after) = interleaved_medians(
        cfg.reps,
        || {
            for _ in 0..inner {
                black_box(black_box(&a).matmul(black_box(&b)).expect("shapes"));
            }
        },
        || {
            for _ in 0..inner {
                black_box(&packed).matmul_into(black_box(&b), &mut out);
            }
        },
    );
    let (before, after) = (before / inner as f64, after / inner as f64);
    KernelResult {
        name: "packed-gemm",
        params: format!("{m}x{k} * {k}x{n} (bitwise plain-lane kernel)"),
        before_median_secs: before,
        after_median_secs: after,
    }
}

fn bench_fused_gate_step(cfg: &Cfg) -> KernelResult {
    // One LSTM gate pre-activation step z = Wx + Uh + b on a stacked
    // layer (input dim = H, the expensive case). "Before" is the retained
    // per-row four-lane-dot step; "after" is one packed mat-vec of the
    // cached [W|U|b] panel against [x|h_prev|1]. The fused chain sums the
    // same terms in one pass, so agreement is the repo-wide 1e-9 relative
    // gate rather than bitwise. Microsecond-scale: smoke keeps the full
    // shape so the smoke `--compare` gate sees the baseline's crossover.
    let h_dim = 32;
    let model = LstmForecaster::new(ForecasterConfig {
        history_len: 8,
        hidden_size: h_dim,
        num_layers: 2,
        seed: 77,
    });
    let layer = &model.layers()[1];
    let x: Vec<f64> = (0..h_dim).map(|i| (i as f64 * 0.31).sin() * 0.5).collect();
    let h_prev: Vec<f64> = (0..h_dim).map(|i| (i as f64 * 0.41).cos() * 0.5).collect();
    let mut gate_in = vec![0.0; 2 * h_dim + 1];
    let mut z_ref = vec![0.0; 4 * h_dim];
    let mut z_fast = vec![0.0; 4 * h_dim];
    layer.gate_step_reference(&x, &h_prev, &mut z_ref);
    layer.gate_step_fused(&x, &h_prev, &mut gate_in, &mut z_fast);
    for (i, (r, f)) in z_ref.iter().zip(&z_fast).enumerate() {
        assert_close(&format!("fused-gate-step row {i}"), *r, *f);
    }
    let inner = 32;
    let (before, after) = interleaved_medians(
        cfg.reps,
        || {
            for _ in 0..inner {
                layer.gate_step_reference(black_box(&x), black_box(&h_prev), &mut z_ref);
                black_box(&z_ref);
            }
        },
        || {
            for _ in 0..inner {
                layer.gate_step_fused(
                    black_box(&x),
                    black_box(&h_prev),
                    &mut gate_in,
                    &mut z_fast,
                );
                black_box(&z_fast);
            }
        },
    );
    let (before, after) = (before / inner as f64, after / inner as f64);
    KernelResult {
        name: "fused-gate-step",
        params: format!("H={h_dim} stacked layer (z = Wx + Uh + b)"),
        before_median_secs: before,
        after_median_secs: after,
    }
}

fn bench_bo_surrogate_gram(cfg: &Cfg) -> KernelResult {
    // The Gram builds a production-budget search performs: one per
    // surrogate refit, on the growing prefixes of a fixed observation set
    // in the paper's four-dimensional Table III space (see
    // `ld_core::space::paper_space`). The paper's tuner runs maxIters=100,
    // growing the surrogate well past n=64; the range starts below the
    // `PACKED_MIN_POINTS` crossover so the shipped dispatcher's serial
    // small-n choice is charged to the "after" leg. "Before" is the serial
    // reference build at every size. Timing whole `optimize` runs (or even
    // whole `GpRegressor::fit`s) instead buries the Gram slice under
    // candidate generation, acquisition sweeps and the factorization, and
    // reads ~1.0x-with-noise regardless of the build. The range stays at
    // full-search scale even in smoke mode — the sequence is
    // sub-millisecond either way.
    let (lo, n_max) = (6usize, 64usize);
    let train_x: Vec<Vec<f64>> = (0..n_max)
        .map(|i| {
            (0..4)
                .map(|j| (((i * 4 + j) as f64 * 0.613).sin() + 1.0) * 0.5)
                .collect()
        })
        .collect();
    let kernel = Kernel::default_matern52();
    // Every timed prefix must build the bitwise-identical matrix on both
    // legs, so the surrogate fits (and the search) cannot tell them apart.
    for n in lo..=n_max {
        let x = &train_x[..n];
        assert_eq!(
            gram::build(&kernel, x, 1e-6).max_abs_diff(&gram::build_serial(&kernel, x, 1e-6)),
            0.0,
            "bo-surrogate-gram: n={n} dispatcher build is not bitwise identical to serial"
        );
    }
    let builds = |build: fn(&Kernel, &[Vec<f64>], f64) -> Matrix| {
        for n in lo..=n_max {
            black_box(build(&kernel, &train_x[..n], 1e-6));
        }
    };
    let rounds = if cfg.smoke { 5 } else { 9 };
    let (before, after) = interleaved_medians(
        rounds,
        || builds(gram::build_serial),
        || builds(gram::build),
    );
    let n_builds = (n_max - lo + 1) as f64;
    KernelResult {
        name: "bo-surrogate-gram",
        params: format!("gram builds for n={lo}..{n_max} growing refits, matern52 d=4 (per build)"),
        before_median_secs: before / n_builds,
        after_median_secs: after / n_builds,
    }
}

fn bench_observe_overhead(cfg: &Cfg) -> KernelResult {
    // Cost of the one observability plane on the serving hot path.
    // "Before" runs a batched multi-tenant tick loop with the engine's
    // tracer OFF, "after" runs the identical schedule with it ON (tick,
    // resolve, batch and per-request spans plus the `serve.*` counters,
    // gauges and log-linear histograms). The tracer is a pure observer, so
    // before anything is timed both engines replay one full schedule and
    // their response streams must agree bitwise (digest equality); the
    // timed ratio is then exactly the recording overhead. Its "speedup" is
    // off/on, below 1 by the overhead, so a costlier plane lowers it and
    // the `--compare` gate fails on that.
    let (tenant_count, ticks) = if cfg.smoke { (8, 12) } else { (24, 40) };
    let hist = 8;
    let model = LstmForecaster::new(ForecasterConfig {
        history_len: hist,
        hidden_size: 8,
        num_layers: 1,
        seed: 21,
    });
    // Per-tenant phase-shifted workload streams (warmup + one value per tick).
    let streams: Vec<Vec<f64>> = (0..tenant_count)
        .map(|t| {
            (0..hist + ticks)
                .map(|i| 40.0 + 20.0 * ((i + 3 * t) as f64 * 0.21).sin() + (t % 5) as f64)
                .collect()
        })
        .collect();
    let keys: Vec<ClientKey> = (0..tenant_count)
        .map(|t| ClientKey::new(format!("tenant-{t:03}"), "bench"))
        .collect();
    let build_engine = |phase: &str, tracer: Tracer| -> ServeEngine {
        let store = SnapshotStore::open(format!("target/ld-perfbench-store/{phase}"))
            .expect("open snapshot store");
        store.clear().expect("clear snapshot store");
        let mut engine = ServeEngine::new(
            EngineConfig {
                mode: ExecMode::Batched,
                queue_capacity: tenant_count * 2,
                registry: RegistryConfig {
                    shard_count: 16,
                    capacity_per_shard: 4,
                },
                lifecycle: LifecycleConfig::default(),
            },
            store,
            tracer,
        );
        for (t, key) in keys.iter().enumerate() {
            let scaler = MinMaxScaler::fit(&streams[t]);
            engine.provision(key.clone(), ModelSnapshot::new(model.clone(), scaler, hist));
        }
        engine
    };
    let mut engine_on = build_engine("observe-on", Tracer::enabled());
    let mut engine_off = build_engine("observe-off", Tracer::disabled());
    let run_round = |engine: &mut ServeEngine| {
        let mut responses = Vec::with_capacity(tenant_count * ticks);
        for tick in 0..ticks {
            for (t, key) in keys.iter().enumerate() {
                let window = streams[t][tick..tick + hist].to_vec();
                let req = Request::new((tick * tenant_count + t) as u64, key.clone(), window);
                engine.submit(req).expect("overhead pass must not shed");
            }
            responses.extend(engine.tick());
        }
        responses
    };
    // Pure-observer gate: identical schedule, bitwise-identical answers.
    let on = run_round(&mut engine_on);
    let off = run_round(&mut engine_off);
    assert_eq!(
        response_digest(&on),
        response_digest(&off),
        "observe-overhead: tracing changed the response stream"
    );
    assert!(
        !engine_on.tracer().snapshot().spans.is_empty()
            && engine_on.tracer().events().counter("serve.responses_total") > 0,
        "observe-overhead: the ON leg recorded no spans or no serve.responses_total"
    );
    assert!(
        !engine_off.tracer().is_enabled(),
        "observe-overhead: the OFF leg has a live tracer"
    );
    // Both engines keep replaying the same schedule, so cache/lifecycle
    // state evolves identically on the two legs round by round.
    let rounds = if cfg.smoke { 15 } else { 7 };
    let (before, after) = interleaved_medians(
        rounds,
        || {
            black_box(run_round(&mut engine_off));
        },
        || {
            black_box(run_round(&mut engine_on));
        },
    );
    let per_tick = ticks as f64;
    KernelResult {
        name: "observe-overhead",
        params: format!(
            "tenants={tenant_count} ticks={ticks} batched engine (before=tracer off, after=on; per tick)"
        ),
        before_median_secs: before / per_tick,
        after_median_secs: after / per_tick,
    }
}

/// Assembles the stable `BENCH_perf.json` document.
fn to_document(cfg: &Cfg, results: &[KernelResult]) -> Value {
    Value::Object(vec![
        ("schema_version".to_string(), Value::Uint(SCHEMA_VERSION)),
        (
            "mode".to_string(),
            Value::String(if cfg.smoke { "smoke" } else { "full" }.to_string()),
        ),
        ("reps".to_string(), Value::Uint(cfg.reps as u64)),
        (
            "kernels".to_string(),
            Value::Array(results.iter().map(KernelResult::to_value).collect()),
        ),
    ])
}

/// Round-trips the document through the JSON layer and checks the schema
/// invariants every downstream BENCH consumer relies on.
fn validate_schema(text: &str, expected_kernels: usize) {
    let doc: Value = serde_json::from_str(text).expect("BENCH document must re-parse");
    let version = doc
        .field("schema_version")
        .ok()
        .and_then(Value::as_u64)
        .expect("schema_version");
    assert_eq!(version, SCHEMA_VERSION, "schema_version drifted");
    for key in ["mode", "reps"] {
        doc.field(key).expect("top-level field");
    }
    let Ok(Value::Array(kernels)) = doc.field("kernels") else {
        panic!("kernels must be an array");
    };
    assert_eq!(kernels.len(), expected_kernels, "kernel entry count");
    for k in kernels {
        for key in [
            "name",
            "params",
            "before_median_secs",
            "after_median_secs",
            "speedup",
        ] {
            k.field(key).expect("kernel entry field");
        }
        let s = k.field("speedup").ok().and_then(Value::as_f64).expect("speedup");
        assert!(s.is_finite() && s > 0.0, "speedup must be positive finite");
    }
}

/// Parses a committed baseline document into its `(kernel, speedup)`
/// entries. Called before any row runs, so a bad baseline is reported as a
/// usage error rather than after minutes of timing.
fn parse_baseline(text: &str) -> Result<Vec<(String, f64)>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let version = doc
        .field("schema_version")
        .ok()
        .and_then(Value::as_u64)
        .ok_or("missing schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version}, expected {SCHEMA_VERSION}"
        ));
    }
    let Ok(Value::Array(kernels)) = doc.field("kernels") else {
        return Err("kernels must be an array".to_string());
    };
    kernels
        .iter()
        .map(|k| {
            let name = k.field("name").ok().and_then(Value::as_str);
            let speedup = k.field("speedup").ok().and_then(Value::as_f64);
            match (name, speedup) {
                (Some(name), Some(speedup)) => Ok((name.to_string(), speedup)),
                _ => Err("every kernel entry needs a name and a numeric speedup".to_string()),
            }
        })
        .collect()
}

/// Compares the current run against a committed baseline's entries.
///
/// Kernels are matched by name; entries present on only one side are
/// reported and skipped. The gate is on *speedup ratios*, not absolute
/// seconds — absolute timings shift with the host, but the before/after
/// ratio of the same two code paths on the same box is comparatively
/// stable. A kernel regresses when `current_speedup * tolerance <
/// baseline_speedup`.
///
/// Returns the number of regressions.
fn compare_against(baseline: &[(String, f64)], results: &[KernelResult], tolerance: f64) -> usize {
    println!(
        "\n{:<22} {:>10} {:>10} {:>10}  verdict (tolerance {tolerance}x)",
        "kernel", "baseline", "current", "ratio"
    );
    let mut regressions = 0usize;
    for r in results {
        let Some((_, base)) = baseline.iter().find(|(n, _)| n == r.name) else {
            println!("{:<22} {:>10} {:>10} {:>10}  skipped (not in baseline)", r.name, "-", "-", "-");
            continue;
        };
        let current = r.speedup();
        let ratio = current / base.max(1e-12);
        let regressed = current * tolerance < *base;
        if regressed {
            regressions += 1;
        }
        println!(
            "{:<22} {:>9.2}x {:>9.2}x {:>10.3}  {}",
            r.name,
            base,
            current,
            ratio,
            if regressed { "REGRESSION" } else { "ok" }
        );
    }
    for (name, _) in baseline {
        if !results.iter().any(|r| r.name == *name) {
            println!("{name:<22} (in baseline, not measured this run)");
        }
    }
    regressions
}

/// Reports a usage error and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("ld-perfbench: {msg}");
    std::process::exit(2);
}

/// Parses `flag`'s value, naming the flag and the expected form on failure.
fn flag_value<T: std::str::FromStr>(
    flag: &str,
    value: Option<String>,
    expected: &str,
) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} requires a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: expected {expected}, got {value:?}"))
}

fn parse_args() -> Result<Cfg, String> {
    let mut smoke = false;
    let mut reps: Option<usize> = None;
    let mut out: Option<String> = None;
    let mut compare: Option<String> = None;
    let mut tolerance: f64 = 2.5;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--reps" => reps = Some(flag_value("--reps", args.next(), "an integer")?),
            "--out" => out = Some(flag_value("--out", args.next(), "a path")?),
            "--compare" => compare = Some(flag_value("--compare", args.next(), "a path")?),
            "--tolerance" => {
                tolerance = flag_value("--tolerance", args.next(), "a number")?;
                if !(tolerance.is_finite() && tolerance >= 1.0) {
                    return Err(format!(
                        "--tolerance must be a finite number >= 1.0, got {tolerance}"
                    ));
                }
            }
            "--help" | "-h" => {
                println!(
                    "ld-perfbench [--smoke] [--reps N] [--out PATH] \
                     [--compare BASELINE.json] [--tolerance F]\n\
                     full mode writes BENCH_perf.json; --smoke asserts equivalence on tiny shapes;\n\
                     --compare gates per-kernel speedup ratios against a committed baseline\n\
                     (regression when current_speedup * tolerance < baseline_speedup; exit 3);\n\
                     usage errors, including an unreadable or malformed baseline, exit 2"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Cfg {
        smoke,
        reps: reps.unwrap_or(if smoke { 3 } else { 9 }),
        // Smoke stays read-only unless an output path is asked for.
        out: out.or_else(|| (!smoke).then(|| "BENCH_perf.json".to_string())),
        compare,
        tolerance,
    })
}

fn main() {
    let cfg = parse_args().unwrap_or_else(|e| usage_error(&e));
    let baseline = cfg.compare.as_deref().map(|path| {
        let entries = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))
            .and_then(|text| parse_baseline(&text).map_err(|e| format!("baseline {path}: {e}")))
            .unwrap_or_else(|e| usage_error(&e));
        (path, entries)
    });
    let results = vec![
        bench_lstm_forward(&cfg),
        bench_lstm_bptt(&cfg),
        bench_train_epoch(&cfg),
        bench_gram_build(&cfg),
        bench_packed_gemm(&cfg),
        bench_fused_gate_step(&cfg),
        bench_bo_surrogate_gram(&cfg),
        bench_observe_overhead(&cfg),
    ];

    println!(
        "{:<22} {:>14} {:>14} {:>9}",
        "kernel", "before (ms)", "after (ms)", "speedup"
    );
    for r in &results {
        println!(
            "{:<22} {:>14.4} {:>14.4} {:>8.2}x",
            r.name,
            r.before_median_secs * 1e3,
            r.after_median_secs * 1e3,
            r.speedup()
        );
    }

    let doc = to_document(&cfg, &results);
    let text = serde_json::to_string_pretty(&doc).expect("BENCH document serializes");
    validate_schema(&text, results.len());
    match &cfg.out {
        Some(path) => {
            std::fs::write(path, text + "\n").expect("write BENCH document");
            println!("wrote {path}");
            // Provenance manifest alongside the results, so a committed
            // BENCH document can always be traced back to its run setup.
            let mut manifest = ld_telemetry::RunManifest::new("ld-perfbench")
                .capture_env()
                .config("mode", if cfg.smoke { "smoke" } else { "full" })
                .config("reps", cfg.reps)
                .config("kernels", results.len())
                .output("bench", path);
            if let Some(baseline) = &cfg.compare {
                manifest = manifest
                    .config("compare", baseline)
                    .config("tolerance", cfg.tolerance);
            }
            let manifest_path = format!("{path}.manifest.json");
            manifest
                .write_json(&manifest_path)
                .expect("write BENCH manifest");
            println!("wrote {manifest_path}");
        }
        None => println!("smoke mode: equivalence + schema checks passed, nothing written"),
    }

    if let Some((baseline_path, baseline)) = &baseline {
        let regressions = compare_against(baseline, &results, cfg.tolerance);
        if regressions > 0 {
            eprintln!("{regressions} kernel(s) regressed vs {baseline_path}");
            std::process::exit(3);
        }
        println!("no regressions vs {baseline_path}");
    }
}
