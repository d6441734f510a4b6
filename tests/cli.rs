//! The `ld-cli` binary end to end: unknown flags are usage errors, a
//! traced `optimize` writes four artifacts that `trace-validate` accepts
//! only while every artifact its manifest lists is present and agrees
//! with the manifest's totals, wherever the set is moved, and the
//! `LD_FAULT` / `LD_FAULT_SEED` knobs reach the fault sites.

use std::path::{Path, PathBuf};
use std::process::Output;

/// `ld-cli` with exactly the fault knobs in `env` set.
fn ld_cli_env(args: &[&str], env: &[(&str, &str)]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_ld-cli"))
        .args(args)
        .env_remove("LD_FAULT")
        .env_remove("LD_FAULT_SEED")
        .envs(env.iter().copied())
        .output()
        .expect("ld-cli runs")
}

fn ld_cli(args: &[&str]) -> Output {
    ld_cli_env(args, &[])
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh directory under the system temp dir for one test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ld-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    // Flags are checked per command before the trace is read, so the
    // missing file is never reached; `--fast` is `optimize`'s alone.
    for args in [
        ["optimize", "missing.txt", "--fast", "--bogus"],
        ["predict", "missing.txt", "3", "--fast"],
        ["evaluate", "missing.txt", "--trace-out", "--fast"],
        ["trace-validate", "t.json", "t.json.manifest.json", "--trace-out"],
    ] {
        let out = ld_cli(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            stderr(&out).contains(&format!("unknown flag `{}`", args[3])),
            "{args:?}: {}",
            stderr(&out)
        );
        assert!(stderr(&out).contains("usage:"), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn removed_telemetry_flag_exits_2() {
    for args in [
        &["optimize", "missing.txt", "--fast", "--telemetry"][..],
        &["optimize", "missing.txt", "--fast", "--telemetry=t.json"],
        &["optimize", "missing.txt", "--fast", "--metrics"],
        &["optimize", "missing.txt", "--fast", "--metrics=m.json"],
        &["metrics-validate", "m.json"],
    ] {
        let out = ld_cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains("usage:"), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn traced_optimize_writes_four_artifacts_that_validate() {
    let dir = scratch_dir("trace");
    let series = dir.join("lcg.txt");
    let out = ld_cli(&["generate", "LCG-30min", path_str(&series)]);
    assert!(out.status.success(), "{}", stderr(&out));

    let trace = path_str(&dir.join("t.json")).to_string();
    let out = ld_cli(&[
        "optimize",
        path_str(&series),
        "--fast",
        &format!("--trace-out={trace}"),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let folded = format!("{trace}.folded");
    let events = format!("{trace}.events.json");
    let manifest = format!("{trace}.manifest.json");
    for artifact in [&trace, &folded, &events, &manifest] {
        assert!(Path::new(artifact).exists(), "{artifact} not written");
    }
    let validate = || ld_cli(&["trace-validate", &trace, &manifest]);
    let out = validate();
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("valid events"), "{stdout}");

    // A manifest whose event total disagrees with the events file fails.
    let text = std::fs::read_to_string(&manifest).unwrap();
    let mut doc = ld_telemetry::RunManifest::from_json(&text).unwrap();
    assert!(doc.telemetry_events > 0);
    doc.telemetry_events += 1;
    doc.write_json(&manifest).unwrap();
    let out = validate();
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("events"), "{}", stderr(&out));
    std::fs::write(&manifest, text).unwrap();
    assert!(validate().status.success());

    // Every artifact the manifest lists must exist.
    for listed in [&events, &folded] {
        let saved = std::fs::read(listed).unwrap();
        std::fs::remove_file(listed).unwrap();
        let out = validate();
        assert_eq!(out.status.code(), Some(1), "{listed} missing");
        assert!(stderr(&out).contains(listed.as_str()), "{}", stderr(&out));
        std::fs::write(listed, saved).unwrap();
    }

    // Artifacts are found beside the trace, not at the paths the manifest
    // recorded, so a moved set still validates.
    let moved = dir.join("moved");
    std::fs::create_dir_all(&moved).unwrap();
    for artifact in [&trace, &folded, &events, &manifest] {
        let name = Path::new(artifact).file_name().unwrap();
        std::fs::rename(artifact, moved.join(name)).unwrap();
    }
    let moved_trace = path_str(&moved.join("t.json")).to_string();
    let out = ld_cli(&[
        "trace-validate",
        &moved_trace,
        &format!("{moved_trace}.manifest.json"),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ld_fault_reaches_the_sites_through_the_binary() {
    let dir = scratch_dir("faults");
    let generate = |name: &str, env: &[(&str, &str)]| -> (Output, Vec<f64>) {
        let path = dir.join(name);
        let out = ld_cli_env(&["generate", "LCG-30min", path_str(&path)], env);
        assert!(out.status.success(), "{name}: {}", stderr(&out));
        let text = std::fs::read_to_string(&path).expect("generated trace");
        (
            out,
            ld_api::Series::from_text(&text)
                .expect("trace parses")
                .values,
        )
    };
    let (_, clean) = generate("clean.txt", &[]);

    // A `trace=` plan corrupts the build, the sanitizer repairs it, and
    // stderr says the run was faulted.
    let plan = [("LD_FAULT", "trace=0.05"), ("LD_FAULT_SEED", "7")];
    let (out, faulted) = generate("faulted.txt", &plan);
    assert!(
        stderr(&out).contains("fault injection active: LD_FAULT=trace=0.05 (seed 7)"),
        "{}",
        stderr(&out)
    );
    assert_eq!(faulted.len(), clean.len());
    assert_ne!(faulted, clean);
    assert!(faulted.iter().all(|v| v.is_finite() && *v >= 0.0));

    // A malformed seed is reported and the plan ignored, not run under
    // the default seed.
    let typo_seed = [("LD_FAULT", "trace=0.05"), ("LD_FAULT_SEED", "7x")];
    let (out, typo) = generate("typo.txt", &typo_seed);
    assert!(
        stderr(&out).contains("LD_FAULT ignored: bad LD_FAULT_SEED `7x`"),
        "{}",
        stderr(&out)
    );
    assert!(
        !stderr(&out).contains("fault injection active"),
        "{}",
        stderr(&out)
    );
    assert_eq!(typo, clean);

    // The trainer's and the surrogate fit's sites, read back from the
    // traced run's events file.
    let trace = path_str(&dir.join("t.json")).to_string();
    let out = ld_cli_env(
        &[
            "optimize",
            path_str(&dir.join("clean.txt")),
            "--fast",
            &format!("--trace-out={trace}"),
        ],
        &[("LD_FAULT", "nan_loss=0.5,cholesky=1x1")],
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("fault injection active"),
        "{}",
        stderr(&out)
    );
    let events = std::fs::read_to_string(format!("{trace}.events.json")).expect("events file");
    let events = ld_telemetry::Snapshot::from_json(&events).expect("events parse");
    assert!(
        events.counter("pipeline.diverged_trials") >= 1,
        "{:?}",
        events.counters
    );
    assert_eq!(
        events.counter("bayesopt.surrogate_failures"),
        1,
        "{:?}",
        events.counters
    );
    let _ = std::fs::remove_dir_all(&dir);
}
