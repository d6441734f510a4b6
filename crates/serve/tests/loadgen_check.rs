//! CLI contract of `ld-loadgen --check` and `--check-resilience`: the
//! schema check, then a replay of the document's batched pass (a
//! resilience document: its first chaos pass) that must recompute its
//! `response_digest`. Exit 0 when it does, 1 when the digest differs, 2 on
//! a schema violation. Exercised against the real binary on a smoke
//! document it writes itself, then on doctored copies of it. A smoke run
//! under a serving fault plan must complete.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/ld-serve-loadgen-check");
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn loadgen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ld-loadgen"))
        .args(args)
        .output()
        .expect("spawn ld-loadgen")
}

fn check(flag: &str, doc: &Path, store: &Path) -> Output {
    loadgen(&["--store", store.to_str().unwrap(), flag, doc.to_str().unwrap()])
}

/// The document with the first hex digit of its `response_digest` changed:
/// still well-formed, but a digest the replay does not produce.
fn flip_digest(text: &str) -> String {
    let digest_at = text.find("\"response_digest\": \"").expect("digest field") + 20;
    let flipped = if &text[digest_at..=digest_at] == "0" { "1" } else { "0" };
    format!("{}{flipped}{}", &text[..digest_at], &text[digest_at + 1..])
}

fn describe(out: &Output) -> String {
    format!(
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

#[test]
fn check_recomputes_the_response_digest() {
    let dir = scratch();
    let store = dir.join("store");
    let doc = dir.join("smoke.json");
    let run = loadgen(&[
        "--smoke",
        "--store",
        store.to_str().unwrap(),
        "--out",
        doc.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "smoke run failed\n{}", describe(&run));

    let out = check("--check", &doc, &store);
    assert_eq!(out.status.code(), Some(0), "{}", describe(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("recomputed bit for bit"));

    // A well-formed digest the replay does not produce.
    let text = fs::read_to_string(&doc).expect("read smoke document");
    let doctored = dir.join("doctored-digest.json");
    fs::write(&doctored, flip_digest(&text)).expect("write doctored document");
    let out = check("--check", &doctored, &store);
    assert_eq!(out.status.code(), Some(1), "{}", describe(&out));
    assert!(String::from_utf8_lossy(&out.stderr).contains("MISMATCH"));

    // Another seed replays another schedule, so the digest no longer holds.
    let reseeded = dir.join("doctored-seed.json");
    fs::write(&reseeded, text.replacen("\"seed\": 42", "\"seed\": 43", 1))
        .expect("write reseeded document");
    let out = check("--check", &reseeded, &store);
    assert_eq!(out.status.code(), Some(1), "{}", describe(&out));

    // A schema violation still fails before any replay.
    let broken = dir.join("doctored-schema.json");
    fs::write(&broken, text.replacen("\"families\": 5", "\"families\": 4", 1))
        .expect("write broken document");
    let out = check("--check", &broken, &store);
    assert_eq!(out.status.code(), Some(2), "{}", describe(&out));
}

#[test]
fn check_resilience_recomputes_the_response_digest() {
    let dir = scratch();
    let store = dir.join("chaos-store");
    let doc = dir.join("chaos-smoke.json");
    let run = loadgen(&[
        "--chaos",
        "--smoke",
        "--store",
        store.to_str().unwrap(),
        "--out",
        doc.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "chaos smoke run failed\n{}", describe(&run));

    let out = check("--check-resilience", &doc, &store);
    assert_eq!(out.status.code(), Some(0), "{}", describe(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("recomputed bit for bit"));

    let text = fs::read_to_string(&doc).expect("read chaos smoke document");
    let doctored = dir.join("chaos-doctored-digest.json");
    fs::write(&doctored, flip_digest(&text)).expect("write doctored document");
    let out = check("--check-resilience", &doctored, &store);
    assert_eq!(out.status.code(), Some(1), "{}", describe(&out));
    assert!(String::from_utf8_lossy(&out.stderr).contains("MISMATCH"));

    // Another chaos seed replays another fault schedule.
    let seed_at = text.find("\"chaos_seed\": ").expect("chaos_seed field") + 14;
    let seed_end = seed_at + text[seed_at..].find(',').expect("chaos_seed value");
    let reseeded = dir.join("chaos-doctored-seed.json");
    fs::write(&reseeded, format!("{}5{}", &text[..seed_at], &text[seed_end..]))
        .expect("write reseeded document");
    let out = check("--check-resilience", &reseeded, &store);
    assert_eq!(out.status.code(), Some(1), "{}", describe(&out));

    let broken = dir.join("chaos-doctored-schema.json");
    fs::write(&broken, text.replacen("\"families\": 5", "\"families\": 4", 1))
        .expect("write broken document");
    let out = check("--check-resilience", &broken, &store);
    assert_eq!(out.status.code(), Some(2), "{}", describe(&out));
}

#[test]
fn smoke_run_completes_under_a_serving_fault_plan() {
    // Poisoned lanes are parked and looked up again on their retry: the
    // cache accounting must count those lookups, not fail on them. At 0.5
    // some lane is poisoned on every retry and answered from the fallback,
    // which an armed plan makes expected. The plan is set on the child
    // process only.
    for plan in ["batch_nan=0.1", "batch_nan=0.5"] {
        let store = scratch().join(format!("faulted-store-{plan}"));
        let run = Command::new(env!("CARGO_BIN_EXE_ld-loadgen"))
            .args(["--smoke", "--store", store.to_str().unwrap()])
            .env("LD_FAULT", plan)
            .output()
            .expect("spawn ld-loadgen");
        assert_eq!(run.status.code(), Some(0), "{plan}\n{}", describe(&run));
    }
}
