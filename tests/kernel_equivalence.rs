//! Cross-crate equivalence gates for the allocation-free compute kernels.
//!
//! Every optimized hot path is pinned to an oracle: a reference
//! implementation called by name, or a digest recorded with it. The LSTM's
//! pre-change forward, BPTT, gate step and trainer are compiled only into
//! `ld-nn`'s own tests, which hold the shipped kernels to them (1e-9
//! relative per call, 1e-7 over a fit). This suite pins the rest from
//! outside the owning crates, every shape `ld-perfbench` times included:
//!
//! - BPTT gradients vs central finite differences (the ground truth the
//!   shipped and reference paths must both agree with).
//! - The register-blocked packed-A GEMM vs the naive streaming
//!   `Matrix::matmul`: **bitwise**, including edge tiles, 1xN / Nx1 and
//!   zero-column shapes, the fused `[W | U | b]` panel shapes the batched
//!   forward drives and perfbench's `128x32 * 32x64`; pack/unpack round
//!   trips: **bitwise**.
//! - The batched fused inference path vs the per-window `predict` that
//!   training and validation run: **bitwise**.
//! - The packed-panel Gram build and the shipped `gram::build` dispatcher
//!   vs the serial build, at perfbench's `n=256 d=8` Matérn-5/2 and over
//!   its growing `n=6..=64` surrogate refits: **bitwise**.
//! - Every council member's own forecasts (the rank-keyed CART tree,
//!   forest and boosting members among them) on a continuous and a
//!   tie-heavy integer series, against digests recorded with the
//!   index-sort reference tree builder: **bitwise**; and the whole
//!   council's walk-forwards over a tie-heavy (AZ-30min) and a
//!   distinct-valued (wiki-30min) trace against digests pinned before
//!   the tree search and the SVR kernel build changed. The tree-by-tree
//!   and kernel-matrix comparisons with the reference builders are
//!   `ld-baselines`' own unit tests, where those builders now live.
//! - Both recurrent cells against their own past: a two-layer LSTM fit
//!   (every epoch loss, held-out forecasts, JSON snapshot bytes) digested
//!   **bitwise**, and a two-layer GRU fit's recorded values within 1e-9
//!   per forward or gradient call and 1e-7 over the fit. Both were pinned
//!   before the cells moved onto one recurrent engine.

use ld_gp::gram;
use ld_gp::{Kernel, KernelKind};
use ld_linalg::Matrix;
use ld_nn::forecaster::{ForecasterConfig, ForecasterGrads, LstmForecaster};
use ld_nn::{make_windows, Adam, AdamConfig, TrainOptions, Trainer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_rel(what: &str, a: f64, b: f64, tol: f64) {
    let scale = a.abs().max(b.abs()).max(1.0);
    assert!(
        (a - b).abs() <= tol * scale,
        "{what}: {a} vs {b} (tol {tol} relative)"
    );
}

/// A scaled-JAR-like window in `[0, 1]`.
fn window(len: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(0.0..1.0)).collect()
}

fn grad_matrices(g: &ForecasterGrads) -> Vec<&Matrix> {
    let mut out = Vec::new();
    for layer in &g.layers {
        out.push(&layer.dw);
        out.push(&layer.du);
        out.push(&layer.db);
    }
    out.push(&g.head.dw);
    out.push(&g.head.db);
    out
}

#[test]
fn lstm_grads_match_finite_differences() {
    let mut rng = StdRng::seed_from_u64(0xE0_03);
    let config = ForecasterConfig {
        history_len: 6,
        hidden_size: 5,
        num_layers: 2,
        seed: 13,
    };
    let model = LstmForecaster::new(config);
    let w = window(6, &mut rng);
    let target = 0.4;
    let (_, grads) = model.sample_grads(&w, target);

    // Central difference of the sample loss with respect to a spread of
    // parameter entries in every tensor.
    let loss_of = |m: &LstmForecaster| {
        let d = m.predict(&w) - target;
        d * d
    };
    let perturbed = |slot: usize, entry: usize, eps: f64| {
        let mut m = model.clone();
        let dummy = m.zero_grads();
        let mut current = 0usize;
        m.visit_params(&dummy, &mut |p, _| {
            if current == slot {
                p.as_mut_slice()[entry] += eps;
            }
            current += 1;
        });
        m
    };

    let mut slots = 0usize;
    model
        .clone()
        .visit_params(&grads, &mut |_, _| slots += 1);
    let grad_mats = grad_matrices(&grads);
    assert_eq!(slots, grad_mats.len(), "visit_params order drifted");

    const EPS: f64 = 1e-5;
    for (slot, g) in grad_mats.iter().enumerate() {
        let len = g.as_slice().len();
        for entry in [0, len / 2, len - 1] {
            let up = loss_of(&perturbed(slot, entry, EPS));
            let down = loss_of(&perturbed(slot, entry, -EPS));
            let fd = (up - down) / (2.0 * EPS);
            let analytic = g.as_slice()[entry];
            assert!(
                (fd - analytic).abs() <= 1e-5 * fd.abs().max(analytic.abs()).max(1e-3),
                "slot {slot} entry {entry}: FD {fd} vs analytic {analytic}"
            );
        }
    }
}

#[test]
fn pack_round_trips_are_lossless() {
    // pack followed by unpack restores the flat buffer bitwise, including
    // at shapes that force zero-padded edge panels.
    let mut rng = StdRng::seed_from_u64(0xE0_14);
    for &(r, c) in &[(1usize, 1usize), (1, 10), (10, 1), (7, 5), (16, 12), (31, 33)] {
        let flat: Vec<f64> = (0..r * c).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let a = ld_linalg::pack::PackedA::pack(&flat, r, c);
        assert_eq!(a.unpack(), flat, "{r}x{c} A round trip");
    }
}

#[test]
fn bitwise_packed_gemm_matches_naive() {
    // The plain-lane packed-A kernel must agree **bitwise** with the naive
    // product: per element both are one ascending-k multiply/add chain.
    // Shapes cover full panels, short final panels, column remainders
    // (n % 8), the 1xN / Nx1 and zero-column degenerate edges, and the
    // LSTM-batch shape `ld-perfbench` times.
    let mut rng = StdRng::seed_from_u64(0xE0_24);
    let mut shapes = vec![
        (1usize, 1usize, 1usize),
        (1, 7, 13),
        (13, 7, 1),
        (8, 16, 8),
        (12, 5, 11),
        (33, 65, 17),
        (64, 48, 40),
        (128, 32, 64),
        (1, 1, 0),
        (13, 7, 0),
        (32, 17, 0),
    ];
    // The serving gate shapes: a `4H x (I + H + 1)` fused panel (`I` = 1
    // for layer 0, `H` for deeper layers) against every lane count from
    // one (all remainder columns) to 8 + 1.
    for h in [1usize, 3, 8, 13, 16] {
        for k in [h + 2, 2 * h + 1] {
            shapes.extend((1..=9).map(|n| (4 * h, k, n)));
        }
    }
    for &(m, k, n) in &shapes {
        let a = Matrix::random_uniform(m, k, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, n, 1.0, &mut rng);
        let naive = a.matmul(&b).unwrap();
        let packed = ld_linalg::pack::PackedA::from_matrix(&a);

        let mut fast = vec![0.0; m * n];
        packed.matmul_into(&b, &mut fast);
        for (i, (f, r)) in fast.iter().zip(naive.as_slice()).enumerate() {
            assert_eq!(
                f.to_bits(),
                r.to_bits(),
                "({m}x{k})*({k}x{n}) element {i}: {f} vs {r}"
            );
        }
    }
}

#[test]
fn batched_fused_inference_matches_predict_bitwise() {
    let model = LstmForecaster::new(ForecasterConfig {
        history_len: 9,
        hidden_size: 7,
        num_layers: 2,
        seed: 41,
    });
    let batch = 5;
    let windows: Vec<f64> = (0..batch * 9)
        .map(|i| ((i as f64 * 0.29).sin() + 1.0) * 0.5)
        .collect();
    let mut scratch = ld_nn::BatchScratch::new();
    let mut out = vec![0.0; batch];
    model.predict_batch_fused(&windows, batch, &mut scratch, &mut out);
    for (j, got) in out.iter().enumerate() {
        let want = model.predict(&windows[j * 9..(j + 1) * 9]);
        assert_eq!(got.to_bits(), want.to_bits(), "lane {j}: {got} vs {want}");
    }
}

#[test]
fn packed_gram_matches_serial_bitwise() {
    // The serial and packed builds and the shipped dispatcher, wherever it
    // routes, build one matrix bit for bit.
    let check = |kernel: &Kernel, x: &[Vec<f64>], what: &str| {
        let serial = gram::build_serial(kernel, x, 1e-6);
        let packed = gram::build_packed(kernel, x, 1e-6);
        assert_eq!(serial.max_abs_diff(&packed), 0.0, "{what}");
        let built = gram::build(kernel, x, 1e-6);
        assert_eq!(serial.max_abs_diff(&built), 0.0, "{what}: dispatcher");
    };
    let mut rng = StdRng::seed_from_u64(0xE0_15);
    for n in [1usize, 7, 33, 64] {
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect();
        let kernel = Kernel::new(KernelKind::Rbf, 0.9, 0.4);
        check(&kernel, &x, &format!("rbf n={n}"));
    }
    // The shape perfbench's gram-build row times.
    let x: Vec<Vec<f64>> = (0..256)
        .map(|i| (0..8).map(|j| ((i * 8 + j) as f64 * 0.29).sin()).collect())
        .collect();
    let kernel = Kernel::new(KernelKind::Matern52, 1.2, 0.45);
    check(&kernel, &x, "matern52 n=256 d=8");
    // The growing surrogate refits its bo-surrogate-gram row times: every
    // prefix of one point set in the four-dimensional search space, from
    // below the dispatcher's packed crossover to n=64.
    let x: Vec<Vec<f64>> = (0..64)
        .map(|i| {
            (0..4)
                .map(|j| (((i * 4 + j) as f64 * 0.613).sin() + 1.0) * 0.5)
                .collect()
        })
        .collect();
    let kernel = Kernel::default_matern52();
    for n in 6..=64 {
        check(&kernel, &x[..n], &format!("default matern52 n={n} d=4"));
    }
}

#[test]
fn tree_ensembles_match_golden_digests() {
    // Every Table II member's own forecasts, the tree, forest and boosting
    // members among them, digested bit for bit in pool order and pinned to
    // the values the retained index-sort tree builder produced. The council
    // reports only the forecast of the member it has selected, which is
    // rarely a tree, so each member is fitted and walked on its own.
    use ld_api::Predictor as _;
    let sine: Vec<f64> = (0..120)
        .map(|i| 40.0 + 12.0 * ((i as f64) * 0.21).sin() + (i % 5) as f64)
        .collect();
    // Integer counts taking five distinct values (a level stepping every
    // three intervals plus a 0/1 jitter), like the job-count traces (AZ,
    // FB and LCG have 30, 32 and 84 distinct values): sorted, every window
    // feature is long runs of tied values, through bootstrap duplicates
    // and boosting residuals alike.
    let counts: Vec<f64> = (0..120)
        .map(|i| (2 + (i / 3) % 4 + (i * 5 % 7) / 4) as f64)
        .collect();
    for (series, data, want) in [
        ("sine", &sine, "08b39517224a759c"),
        ("counts", &counts, "2abb01e63d32be3f"),
    ] {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for mut member in ld_baselines::cloudinsight::table2_pool(5) {
            member.fit(&data[..90]);
            for i in 90..120 {
                let forecast = member.predict(&data[..i]);
                fnv1a(&mut digest, &forecast.to_bits().to_le_bytes());
            }
        }
        assert_eq!(format!("{digest:016x}"), want, "{series}");
    }
}

#[test]
fn cloudinsight_walk_forward_matches_golden_digest() {
    // The council's forecasts over LD_FAST-capped (last 400 intervals)
    // traces, digested bit for bit. Unlike the test above it walks the
    // council itself, so it also covers member selection. AZ-30min's job
    // counts repeat a few dozen values, so its split searches sort long
    // tie runs; wiki-30min's request counts are nearly all distinct, so
    // its nodes' rank tables are wide. AZ-30min was pinned with the sort-based
    // tree builder and the full-matrix SVR kernel build, wiki-30min with
    // the rank-keyed builder and the mirrored upper-triangle build.
    use ld_api::Predictor as _;
    for (kind, want) in [
        (ld_traces::WorkloadKind::Azure, "c59d06a9de5dd210"),
        (ld_traces::WorkloadKind::Wikipedia, "de6c63c9ad575fe6"),
    ] {
        let full = ld_traces::TraceConfig {
            kind,
            interval_mins: 30,
        }
        .build(42);
        let values = &full.values[full.len().saturating_sub(400)..];
        let test_start = ld_api::Partition::paper_default(values.len()).val_end;
        let mut ci = ld_baselines::CloudInsight::new(5);
        ci.fit(&values[..test_start]);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for i in test_start..values.len() {
            fnv1a(
                &mut digest,
                &ci.predict(&values[..i]).to_bits().to_le_bytes(),
            );
        }
        assert_eq!(format!("{digest:016x}"), want, "{kind:?}");
    }
}

/// FNV-1a, folding `bytes` into `digest`.
fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// A fixed, seasonal-plus-sawtooth series in `[0, 1]`.
fn golden_series() -> Vec<f64> {
    (0..120)
        .map(|i| 0.5 + 0.35 * (i as f64 * 0.21).sin() + 0.1 * ((i * 7) % 11) as f64 / 11.0)
        .collect()
}

/// The pinned recurrent fit: history 8, width 5, two stacked layers.
fn golden_config() -> ForecasterConfig {
    ForecasterConfig {
        history_len: 8,
        hidden_size: 5,
        num_layers: 2,
        seed: 23,
    }
}

/// Fits `model` for five epochs with the production trainer and Adam.
/// Returns every epoch's train and validation loss and the fitted model's
/// forecasts over the held-out tail.
fn golden_fit<M: ld_nn::trainer::Trainable>(model: &mut M) -> (Vec<f64>, Vec<f64>) {
    let samples = make_windows(&golden_series(), 8);
    let (train, rest) = samples.split_at(80);
    let (val, test) = rest.split_at(16);
    let trainer = Trainer::new(TrainOptions {
        batch_size: 16,
        max_epochs: 5,
        patience: 0,
        shuffle_seed: 5,
        ..TrainOptions::default()
    });
    let report = trainer.fit(model, &mut Adam::new(AdamConfig::default()), train, val);
    assert_eq!(report.epochs_run, 5);
    let losses = report.train_losses.iter().chain(&report.val_losses).copied().collect();
    let preds = test.iter().map(|s| model.predict(&s.window)).collect();
    (losses, preds)
}

#[test]
fn lstm_fit_matches_golden_digest() {
    // The production LSTM path (workspace forward, fused gate step, BPTT
    // over the cached transposes, the trainer's fixed-chunk batch
    // reduction, Adam) digested bit for bit: every epoch loss, the fitted
    // model's held-out forecasts, then its JSON snapshot bytes.
    let mut model = LstmForecaster::new(golden_config());
    let (losses, preds) = golden_fit(&mut model);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for v in losses.iter().chain(&preds) {
        fnv1a(&mut digest, &v.to_bits().to_le_bytes());
    }
    fnv1a(&mut digest, model.to_json().as_bytes());
    assert_eq!(format!("{digest:016x}"), "bd0abad505c6a448");
}

#[test]
fn gru_fit_matches_golden_values() {
    let mut model = ld_nn::GruForecaster::new(golden_config());
    // One forward and one gradient call on the fresh model: 1e-9.
    let probe = &golden_series()[..8];
    let (loss, grads) = model.sample_grads(probe, 0.5);
    let per_call = [model.predict(probe), loss, grads.global_norm()];
    // A whole fit compounds per-call reordering over every step: 1e-7.
    let (losses, preds) = golden_fit(&mut model);
    let want_per_call = [0.10833249899943852, 0.15340343134002482, 1.9997821390658488];
    // Five train-epoch losses, then five validation losses.
    let want_losses = [
        0.23061425040548605,
        0.1790847723401221,
        0.13600320360332935,
        0.09969125923503123,
        0.07584990148445456,
        0.35286788681182285,
        0.2803095415182009,
        0.21798096191472238,
        0.16664350992404095,
        0.12373606353104102,
    ];
    let want_preds = [
        0.44240126854740663,
        0.4295121307126797,
        0.41632792712273214,
        0.39898812481914253,
        0.37563223272957225,
        0.354614489715969,
        0.3318099441765713,
        0.3062491079588824,
        0.28776601855609685,
        0.27193200947943447,
        0.26619902540198154,
        0.2645697215218955,
        0.26466474230249565,
        0.27421761268793965,
        0.28771285572529853,
        0.3022992682751084,
    ];
    for (i, (got, want)) in per_call.iter().zip(&want_per_call).enumerate() {
        assert_rel(&format!("GRU per-call value {i}"), *got, *want, 1e-9);
    }
    assert_eq!(losses.len(), want_losses.len());
    for (e, (got, want)) in losses.iter().zip(&want_losses).enumerate() {
        assert_rel(&format!("GRU loss {e}"), *got, *want, 1e-7);
    }
    assert_eq!(preds.len(), want_preds.len());
    for (j, (got, want)) in preds.iter().zip(&want_preds).enumerate() {
        assert_rel(&format!("GRU held-out forecast {j}"), *got, *want, 1e-7);
    }
}
