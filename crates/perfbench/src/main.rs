//! `ld-perfbench` — the reproducible perf-bench harness over the
//! LoadDynamics compute kernels.
//!
//! Every row times one shipped path: the workspace LSTM forward (at a
//! whole 8-unit block of cells and at a tuned-size `H = 5`), the
//! batched forward at one lane, BPTT, a trainer fit, the Gram dispatcher
//! at one size and over a search's growing surrogate refits, the packed
//! GEMM and the fused gate step. Each is timed round by round, interleaved
//! with a fixed reference leg, and reported as its **cost**: its median
//! time in units of the reference leg's median.
//! The reference leg is [`host_kernel`], fixed work that calls no program
//! code (the method of `ld-e2e`'s host-speed adjustment), so host speed
//! largely cancels out of the cost while any slowdown in the shipped path,
//! in code it shares with other paths too, raises it. The `observe-overhead` row
//! instead takes the serving engine with its tracer off as its reference
//! leg and the same engine traced as the shipped path, so its cost is above
//! 1 by the observability plane's overhead. Medians, because a shared CI
//! box produces one-sided latency noise that a mean would absorb and a
//! median rejects.
//!
//! Correctness is not checked here: each shipped path's oracle and the
//! shapes timed here are asserted by tests (`ld-nn`'s unit tests and
//! `tests/kernel_equivalence.rs`). The one assert kept is
//! `observe-overhead`'s: the traced engine must answer bit for bit like the
//! untraced one, since a pure observer's cost is what that row measures.
//! The CloudInsight walk-forward is timed end to end by the `ld-e2e`
//! benchmark's `council` workload, not here.
//!
//! `--out PATH` writes the document (`schema_version: 3`) and its run
//! manifest; without it nothing is written. `--compare BASELINE` matches
//! rows by name: a row regresses when `cost > baseline_cost * tolerance`,
//! and a row whose `params` differ from the baseline's was measured at
//! other shapes and fails too.
//!
//! No external benchmark framework: the whole harness is this one file, so
//! its behavior is auditable and identical on every machine.
//!
//! Exit codes: 0 clean, 3 when `--compare` finds a regression or a params
//! mismatch, 2 on a usage error (unknown flag, missing or malformed flag
//! value, unreadable or malformed baseline), reported before any row runs.

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
use ld_nn::{
    make_windows, BatchScratch, ForecasterConfig, LstmForecaster, TrainOptions, Trainer,
};
use ld_serve::{
    response_digest, ClientKey, EngineConfig, ExecMode, LifecycleConfig, ModelSnapshot,
    RegistryConfig, Request, ServeEngine, SnapshotStore,
};
use ld_telemetry::{parse_versioned, Tracer};

/// Bump when the shape of `BENCH_perf.json` changes.
const SCHEMA_VERSION: u64 = 3;

/// Harness configuration resolved from the command line.
struct Cfg {
    /// Timed rounds per row.
    reps: usize,
    /// Output path; `None` means "do not write".
    out: Option<String>,
    /// Baseline `BENCH_perf.json` to regression-gate against.
    compare: Option<String>,
    /// Compare tolerance: a row regresses when
    /// `cost > baseline_cost * tolerance`.
    tolerance: f64,
}

/// The `BENCH_perf.json` document, written by `--out` and read back as a
/// `--compare` baseline.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct PerfDocument {
    /// [`SCHEMA_VERSION`].
    schema_version: u64,
    /// Timed rounds per row.
    reps: u64,
    kernels: Vec<Row>,
}

impl PerfDocument {
    /// Reads a `BENCH_perf.json`: every row's timings and cost must be
    /// positive finite. Returns the first violation.
    fn parse(text: &str) -> Result<Self, String> {
        let doc: PerfDocument = parse_versioned(text, SCHEMA_VERSION)?;
        for (i, row) in doc.kernels.iter().enumerate() {
            for (key, v) in [
                ("reference_median_secs", row.reference_median_secs),
                ("median_secs", row.median_secs),
                ("cost", row.cost),
            ] {
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!("kernels[{i}].{key} must be positive finite, got {v}"));
                }
            }
        }
        Ok(doc)
    }
}

/// One timed row.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
struct Row {
    name: String,
    params: String,
    /// What the reference leg ran: `"host-kernel"` or `"tracer-off"`.
    reference: String,
    reference_median_secs: f64,
    median_secs: f64,
    /// The shipped path's median time in reference-leg units.
    cost: f64,
}

impl Row {
    fn new(
        name: &str,
        params: String,
        reference: &str,
        reference_median_secs: f64,
        median_secs: f64,
    ) -> Row {
        Row {
            name: name.to_string(),
            params,
            reference: reference.to_string(),
            reference_median_secs,
            median_secs,
            cost: median_secs / reference_median_secs.max(1e-12),
        }
    }
}

/// Per-leg median wall-clock seconds of `rounds` interleaved
/// reference/shipped pairs, after one discarded warmup pair. The host's
/// load and frequency drift over any measurement window; alternating the
/// legs round by round puts both medians under the same drift, so it
/// cancels out of their ratio.
fn interleaved_medians(
    rounds: usize,
    mut reference: impl FnMut(),
    mut shipped: impl FnMut(),
) -> (f64, f64) {
    reference();
    shipped();
    let mut reference_times = Vec::with_capacity(rounds.max(1));
    let mut shipped_times = Vec::with_capacity(rounds.max(1));
    for _ in 0..rounds.max(1) {
        let t0 = Instant::now();
        reference();
        reference_times.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        shipped();
        shipped_times.push(t0.elapsed().as_secs_f64());
    }
    reference_times.sort_by(f64::total_cmp);
    shipped_times.sort_by(f64::total_cmp);
    (
        reference_times[reference_times.len() / 2],
        shipped_times[shipped_times.len() / 2],
    )
}

/// The reference leg of every row but `observe-overhead`: fixed work that
/// calls no program code, so a change to the program never moves it. It
/// mixes the kinds of work the rows do: a 16-wide recurrent mat-vec
/// through `tanh` (an LSTM step), a sort of 1024 keys with a counting pass
/// (branchy integer work), and a chase of dependent loads through 128 KB.
/// When a shared host slows down, the mat-vec and the sort slow more than
/// the LSTM and Gram rows do and the loads less, so the sort is kept short
/// and the chase long: on a 2-vCPU shared VM the LSTM forward's cost then
/// moved about 7% between the host's fast and slow stretches, against 14%
/// with `ld-e2e`'s sort-heavy mix. Inputs are built here; the returned
/// closure runs the timed work.
fn host_kernel() -> impl FnMut() {
    const WIDTH: usize = 16;
    const STEPS: usize = 400;
    const KEYS: usize = 1024;
    const BUCKETS: u64 = 1013;
    const SLOTS: usize = 32768;
    const LOADS: usize = 30000;
    let mix = |i: usize| {
        let z = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^ (z >> 31)
    };
    let weights: Vec<f64> = (0..WIDTH * WIDTH)
        .map(|i| ((i * 37 % 101) as f64 - 50.0) / 400.0)
        .collect();
    let keys: Vec<u64> = (0..KEYS).map(mix).collect();
    let links: Vec<u32> = (0..SLOTS).map(|i| (mix(i) % SLOTS as u64) as u32).collect();
    let (mut state, mut next, mut sorted) = (vec![0.0; WIDTH], vec![0.0; WIDTH], keys.clone());
    let mut counts = [0u32; BUCKETS as usize];
    move || {
        state.fill(0.1);
        for step in 0..STEPS {
            for (out, row) in next.iter_mut().zip(weights.chunks_exact(WIDTH)) {
                let sum: f64 = row.iter().zip(&state).map(|(w, x)| w * x).sum();
                *out = (sum + black_box(step as f64 * 1e-3)).tanh();
            }
            std::mem::swap(&mut state, &mut next);
        }
        black_box(&state);
        sorted.copy_from_slice(&keys);
        sorted.sort_unstable();
        counts.fill(0);
        for key in &sorted {
            counts[(key % BUCKETS) as usize] += 1;
        }
        black_box(&counts);
        let (mut slot, mut sum) = (0usize, 0usize);
        for _ in 0..LOADS {
            slot = links[slot] as usize;
            sum = sum.wrapping_add(slot);
            if sum & 1 == 1 {
                slot = (slot + 7) % SLOTS;
            }
        }
        black_box(sum);
    }
}

/// Times `shipped`, which makes `calls` calls of the row's path per round,
/// against the host kernel. The row's median is per call.
fn host_row(reps: usize, name: &str, params: String, calls: usize, shipped: impl FnMut()) -> Row {
    let (reference, median) = interleaved_medians(reps, host_kernel(), shipped);
    Row::new(name, params, "host-kernel", reference, median / calls as f64)
}

/// Deterministic bounded workload series (sine + weekly-ish residue).
fn series(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 0.5 + 0.4 * (i as f64 * 0.13).sin() + 0.01 * (i % 7) as f64)
        .collect()
}

/// A forecaster over an 8-step window.
fn forecaster(hidden_size: usize, num_layers: usize, seed: u64) -> LstmForecaster {
    LstmForecaster::new(ForecasterConfig {
        history_len: 8,
        hidden_size,
        num_layers,
        seed,
    })
}

fn bench_lstm_forward(reps: usize) -> Row {
    let model = forecaster(8, 1, 42);
    let window = series(8);
    // Inner calls make a round about as long as the host kernel, so the
    // first call's cold caches and the timer reads are amortized.
    let calls = 128;
    host_row(reps, "lstm-forward", "T=8 H=8 L=1".into(), calls, || {
        for _ in 0..calls {
            black_box(model.predict(black_box(&window)));
        }
    })
}

fn bench_lstm_forward_one_lane(reps: usize) -> Row {
    // `lstm-forward`'s model and window as a one-lane batch: the forward
    // serving runs per tenant when every tenant has its own model. It
    // answers bitwise what the `lstm-forward` row's `predict` does, so the
    // two costs compare directly.
    let model = forecaster(8, 1, 42);
    let window = series(8);
    let mut scratch = BatchScratch::new();
    let mut out = [0.0];
    let calls = 128;
    host_row(reps, "lstm-forward-1lane", "T=8 H=8 L=1 B=1".into(), calls, || {
        for _ in 0..calls {
            model.predict_batch_fused(black_box(&window), 1, &mut scratch, &mut out);
            black_box(&out);
        }
    })
}

fn bench_lstm_forward_h5(reps: usize) -> Row {
    // `lstm-forward` at a cell size inside the `tune` preset's space (the
    // golden test's H = 5): every other LSTM row runs H = 8, a whole
    // 8-lane block, so this is the row that sees the cell's tail.
    let model = forecaster(5, 1, 42);
    let window = series(8);
    let calls = 128;
    host_row(reps, "lstm-forward-h5", "T=8 H=5 L=1".into(), calls, || {
        for _ in 0..calls {
            black_box(model.predict(black_box(&window)));
        }
    })
}

fn bench_lstm_bptt(reps: usize) -> Row {
    let model = forecaster(8, 1, 43);
    let window = series(8);
    let mut grads = model.zero_grads();
    let calls = 32;
    host_row(reps, "lstm-bptt", "T=8 H=8 L=1".into(), calls, || {
        for _ in 0..calls {
            black_box(model.sample_grads_into(black_box(&window), 0.62, &mut grads));
        }
    })
}

fn bench_train_epoch(reps: usize) -> Row {
    let epochs = 3;
    let samples = make_windows(&series(360), 8);
    let trainer = Trainer::new(TrainOptions {
        batch_size: 32,
        max_epochs: epochs,
        patience: 0, // fixed-length runs: every fit runs every epoch
        shuffle_seed: 7,
        ..TrainOptions::default()
    });
    let base = forecaster(8, 1, 9);
    let params = format!(
        "samples={} T=8 H=8 L=1 batch=32 (per-epoch over {epochs}-epoch fit)",
        samples.len()
    );
    host_row(reps, "train-epoch", params, epochs, || {
        let mut model = base.clone();
        let mut opt = Adam::new(AdamConfig::default());
        black_box(trainer.fit(&mut model, &mut opt, &samples, &[]));
    })
}

fn bench_gram_build(reps: usize) -> Row {
    let (n, d) = (256, 8);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..d).map(|j| ((i * d + j) as f64 * 0.29).sin()).collect())
        .collect();
    let kernel = Kernel::new(KernelKind::Matern52, 1.2, 0.45);
    let params = format!("n={n} d={d} matern52");
    host_row(reps, "gram-build", params, 1, || {
        black_box(gram::build(&kernel, black_box(&x), 1e-6));
    })
}

fn bench_packed_gemm(reps: usize) -> Row {
    // LSTM-batch-shaped rectangular product: (4H x H) * (H x B), the
    // recurrent block of the `4H x (I + H + 1)` fused-panel product
    // `predict_batch_fused` drives per layer step. The left operand is
    // packed once (the per-model cached-panel pattern) and the
    // register-blocked plain-lane kernel writes into a reused buffer.
    let (h_dim, batch) = (32, 64);
    let (m, k, n) = (4 * h_dim, h_dim, batch);
    let a = Matrix::from_fn(m, k, |i, j| ((i * k + j) as f64 * 0.019).sin());
    let b = Matrix::from_fn(k, n, |i, j| ((i * n + j) as f64 * 0.023).cos());
    let packed = PackedA::from_matrix(&a);
    let mut out = vec![0.0; m * n];
    let calls = 16;
    let params = format!("{m}x{k} * {k}x{n} (plain-lane kernel, packed A)");
    host_row(reps, "packed-gemm", params, calls, || {
        for _ in 0..calls {
            black_box(&packed).matmul_into(black_box(&b), black_box(&mut out));
        }
    })
}

fn bench_fused_gate_step(reps: usize) -> Row {
    // One LSTM gate pre-activation step z = Wx + Uh + b on a stacked layer
    // (input dim = H, the expensive case): one packed mat-vec of the cached
    // [W|U|b] panel against [x|h_prev|1].
    let h_dim = 32;
    let model = forecaster(h_dim, 2, 77);
    let layer = &model.layers()[1];
    let x: Vec<f64> = (0..h_dim).map(|i| (i as f64 * 0.31).sin() * 0.5).collect();
    let h_prev: Vec<f64> = (0..h_dim).map(|i| (i as f64 * 0.41).cos() * 0.5).collect();
    let mut gate_in = vec![0.0; 2 * h_dim + 1];
    let mut z = vec![0.0; 4 * h_dim];
    let calls = 256;
    let params = format!("H={h_dim} stacked layer (z = Wx + Uh + b)");
    host_row(reps, "fused-gate-step", params, calls, || {
        for _ in 0..calls {
            layer.gate_step_fused(black_box(&x), black_box(&h_prev), &mut gate_in, &mut z);
            black_box(&z);
        }
    })
}

fn bench_bo_surrogate_gram(reps: usize) -> Row {
    // The Gram builds a production-budget search performs: one per
    // surrogate refit, on the growing prefixes of a fixed observation set
    // in the paper's four-dimensional Table III space (see
    // `ld_core::space::paper_space`). The paper's tuner runs maxIters=100,
    // growing the surrogate well past n=64; the range starts below the
    // `PACKED_MIN_POINTS` crossover, so the dispatcher's serial small-n
    // choice is charged too. Timing whole `optimize` runs (or even whole
    // `GpRegressor::fit`s) instead buries the Gram slice under candidate
    // generation, acquisition sweeps and the factorization.
    let (lo, n_max) = (6usize, 64usize);
    let train_x: Vec<Vec<f64>> = (0..n_max)
        .map(|i| {
            (0..4)
                .map(|j| (((i * 4 + j) as f64 * 0.613).sin() + 1.0) * 0.5)
                .collect()
        })
        .collect();
    let kernel = Kernel::default_matern52();
    let params =
        format!("gram builds for n={lo}..{n_max} growing refits, matern52 d=4 (per build)");
    host_row(reps, "bo-surrogate-gram", params, n_max - lo + 1, || {
        for n in lo..=n_max {
            black_box(gram::build(&kernel, &train_x[..n], 1e-6));
        }
    })
}

fn bench_observe_overhead(reps: usize) -> Row {
    // Cost of the one observability plane on the serving hot path: a
    // batched multi-tenant tick loop with the engine's tracer ON (tick,
    // resolve, batch and per-request spans plus the `serve.*` counters,
    // gauges and log-linear histograms), in units of the identical
    // schedule with it OFF. The tracer is a pure observer, so before
    // anything is timed both engines replay one full schedule and their
    // response streams must agree bitwise (digest equality); the cost is
    // then exactly the recording overhead, and a costlier plane raises it.
    let (tenant_count, ticks) = (24, 40);
    let hist = 8;
    let model = forecaster(8, 1, 21);
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
    let (off, on) = interleaved_medians(
        reps,
        || {
            black_box(run_round(&mut engine_off));
        },
        || {
            black_box(run_round(&mut engine_on));
        },
    );
    Row::new(
        "observe-overhead",
        format!("tenants={tenant_count} ticks={ticks} batched engine, tracer on (per tick)"),
        "tracer-off",
        off / ticks as f64,
        on / ticks as f64,
    )
}

/// Compares the current run against a committed baseline's rows.
///
/// Rows are matched by name; a row on only one side is reported and
/// skipped. A matched row whose `params` differ from the baseline's was
/// measured at other shapes, so its costs cannot be compared: it fails, and
/// both strings are printed. Otherwise a row regresses when `cost >
/// baseline_cost * tolerance`. Costs are in units of a reference leg timed
/// interleaved on the same host, so host speed cancels out of them.
///
/// Returns the number of failed rows.
fn compare_against(baseline: &[Row], rows: &[Row], tolerance: f64) -> usize {
    println!(
        "\n{:<22} {:>12} {:>12} {:>9}  verdict (tolerance {tolerance}x)",
        "kernel", "baseline", "current", "ratio"
    );
    let mut failures = 0usize;
    for row in rows {
        let Some(base) = baseline.iter().find(|b| b.name == row.name) else {
            println!("{:<22} skipped (not in baseline)", row.name);
            continue;
        };
        if base.params != row.params {
            failures += 1;
            println!(
                "{:<22} PARAMS DIFFER: baseline {:?}, current {:?}",
                row.name, base.params, row.params
            );
            continue;
        }
        let regressed = row.cost > base.cost * tolerance;
        if regressed {
            failures += 1;
        }
        println!(
            "{:<22} {:>12.6} {:>12.6} {:>9.3}  {}",
            row.name,
            base.cost,
            row.cost,
            row.cost / base.cost.max(1e-300),
            if regressed { "REGRESSION" } else { "ok" }
        );
    }
    for base in baseline {
        if !rows.iter().any(|r| r.name == base.name) {
            println!("{:<22} (in baseline, not measured this run)", base.name);
        }
    }
    failures
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
    let mut cfg = Cfg {
        reps: 9,
        out: None,
        compare: None,
        tolerance: 2.5,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--reps" => cfg.reps = flag_value("--reps", args.next(), "an integer")?,
            "--out" => cfg.out = Some(flag_value("--out", args.next(), "a path")?),
            "--compare" => cfg.compare = Some(flag_value("--compare", args.next(), "a path")?),
            "--tolerance" => {
                let tolerance: f64 = flag_value("--tolerance", args.next(), "a number")?;
                if !(tolerance.is_finite() && tolerance >= 1.0) {
                    return Err(format!(
                        "--tolerance must be a finite number >= 1.0, got {tolerance}"
                    ));
                }
                cfg.tolerance = tolerance;
            }
            "--help" | "-h" => {
                println!(
                    "ld-perfbench [--reps N] [--out PATH] [--compare BASELINE.json] [--tolerance F]\n\
                     times each row against a fixed host kernel and reports its cost in kernel units;\n\
                     --out writes the document (nothing is written without it);\n\
                     --compare gates each row's cost against a committed baseline\n\
                     (regression when cost > baseline_cost * tolerance, or params differ; exit 3);\n\
                     usage errors, including an unreadable or malformed baseline, exit 2"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(cfg)
}

fn main() {
    let cfg = parse_args().unwrap_or_else(|e| usage_error(&e));
    let baseline = cfg.compare.as_deref().map(|path| {
        let doc = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))
            .and_then(|text| {
                PerfDocument::parse(&text).map_err(|e| format!("baseline {path}: {e}"))
            })
            .unwrap_or_else(|e| usage_error(&e));
        (path, doc.kernels)
    });
    let doc = PerfDocument {
        schema_version: SCHEMA_VERSION,
        reps: cfg.reps as u64,
        kernels: vec![
            bench_lstm_forward(cfg.reps),
            bench_lstm_forward_one_lane(cfg.reps),
            bench_lstm_forward_h5(cfg.reps),
            bench_lstm_bptt(cfg.reps),
            bench_train_epoch(cfg.reps),
            bench_gram_build(cfg.reps),
            bench_packed_gemm(cfg.reps),
            bench_fused_gate_step(cfg.reps),
            bench_bo_surrogate_gram(cfg.reps),
            bench_observe_overhead(cfg.reps),
        ],
    };

    println!(
        "{:<22} {:<12} {:>14} {:>14} {:>12}",
        "kernel", "reference", "reference (ms)", "median (ms)", "cost"
    );
    for r in &doc.kernels {
        println!(
            "{:<22} {:<12} {:>14.4} {:>14.6} {:>12.6}",
            r.name,
            r.reference,
            r.reference_median_secs * 1e3,
            r.median_secs * 1e3,
            r.cost
        );
    }

    let text = serde_json::to_string_pretty(&doc).expect("BENCH document serializes");
    PerfDocument::parse(&text).expect("the written document must read back");
    if let Some(path) = &cfg.out {
        std::fs::write(path, text + "\n").expect("write BENCH document");
        println!("wrote {path}");
        // Provenance manifest alongside the results, so a committed
        // BENCH document can always be traced back to its run setup.
        let mut manifest = ld_telemetry::RunManifest::new("ld-perfbench")
            .capture_env()
            .config("reps", cfg.reps)
            .config("kernels", doc.kernels.len())
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

    if let Some((baseline_path, baseline)) = &baseline {
        let failures = compare_against(baseline, &doc.kernels, cfg.tolerance);
        if failures > 0 {
            eprintln!("{failures} kernel(s) regressed or changed params vs {baseline_path}");
            std::process::exit(3);
        }
        println!("no regressions vs {baseline_path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../BENCH_perf.json");

    /// The hand-built writer this type replaced wrote the committed
    /// baseline: reading it and writing it again gives back its bytes.
    #[test]
    fn committed_baseline_reads_back_byte_for_byte() {
        let baseline = PerfDocument::parse(COMMITTED).expect("committed BENCH_perf.json");
        let text = serde_json::to_string_pretty(&baseline).expect("serialize");
        assert_eq!(text + "\n", COMMITTED);
    }

    #[test]
    fn reader_rejects_every_broken_key() {
        let doc = serde_json::from_str(COMMITTED).expect("committed BENCH_perf.json");
        let broken = ld_telemetry::document::rejects_broken_keys(&doc, PerfDocument::parse);
        assert_eq!(broken, Ok(14));
        let negative = COMMITTED.replacen("\"cost\": ", "\"cost\": -", 1);
        let err = PerfDocument::parse(&negative).unwrap_err();
        assert!(err.contains("kernels[0].cost"), "{err}");
    }
}
