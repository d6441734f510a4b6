//! CLI contract of `ld-loadgen --check` and `--check-resilience`: the
//! schema check, then a replay of the passes the document's counts come
//! from (a serving document: its batched, overload and cache passes; a
//! resilience document: its first chaos pass) that must recompute its
//! `response_digest` and every other deterministic field. Exit 0 when it
//! does, 1 naming the first field that differs, 2 on a schema violation.
//! Exercised against the real binary on a smoke document it writes itself,
//! then on doctored copies of it. Clean smoke runs reproduce pinned
//! digests, and a smoke run under a serving fault plan answers or sheds
//! every request of every pass.

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

/// Where the JSON value of `field` sits in a pretty-printed document.
fn value_at(text: &str, field: &str) -> std::ops::Range<usize> {
    let key = format!("\"{field}\": ");
    let at = text.find(&key).expect("field present") + key.len();
    at..at + text[at..].find([',', '\n']).expect("value ends")
}

/// The document with the JSON value of `field` replaced by `value`.
fn doctor(text: &str, field: &str, value: &str) -> String {
    let at = value_at(text, field);
    format!("{}{value}{}", &text[..at.start], &text[at.end..])
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
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

    // The digest holds, but the cache pass's hit rate does not.
    let doctored = dir.join("doctored-hit-rate.json");
    fs::write(&doctored, doctor(&text, "cache_hit_rate", "0.125")).expect("write doctored document");
    let out = check("--check", &doctored, &store);
    assert_eq!(out.status.code(), Some(1), "{}", describe(&out));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cache_hit_rate MISMATCH"));

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

    // The digest holds, but the retry count does not.
    let retries: u64 = text[value_at(&text, "retries")].parse().expect("retries value");
    let doctored = dir.join("chaos-doctored-retries.json");
    fs::write(&doctored, doctor(&text, "retries", &(retries + 1).to_string()))
        .expect("write doctored document");
    let out = check("--check-resilience", &doctored, &store);
    assert_eq!(out.status.code(), Some(1), "{}", describe(&out));
    assert!(String::from_utf8_lossy(&out.stderr).contains("retries MISMATCH"));

    // Another chaos seed replays another fault schedule.
    let reseeded = dir.join("chaos-doctored-seed.json");
    fs::write(&reseeded, doctor(&text, "chaos_seed", "5")).expect("write reseeded document");
    let out = check("--check-resilience", &reseeded, &store);
    assert_eq!(out.status.code(), Some(1), "{}", describe(&out));

    let broken = dir.join("chaos-doctored-schema.json");
    fs::write(&broken, text.replacen("\"families\": 5", "\"families\": 4", 1))
        .expect("write broken document");
    let out = check("--check-resilience", &broken, &store);
    assert_eq!(out.status.code(), Some(2), "{}", describe(&out));
}

#[test]
fn clean_smoke_runs_reproduce_the_pinned_digests() {
    // A `--check` only compares a run with a replay of itself; these
    // pinned values also catch a change that moves both alike.
    let dir = scratch();
    let doc = dir.join("pinned-smoke.json");
    let run = loadgen(&[
        "--smoke",
        "--store",
        dir.join("pinned-store").to_str().unwrap(),
        "--out",
        doc.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "smoke run failed\n{}", describe(&run));
    assert!(stdout(&run).contains("determinism: digest a7e077c681ea78bd "), "{}", describe(&run));
    let text = fs::read_to_string(&doc).expect("read smoke document");
    assert!(text.contains("\"response_digest\": \"a7e077c681ea78bd\""), "{text}");

    let doc = dir.join("pinned-chaos-smoke.json");
    let run = loadgen(&[
        "--chaos",
        "--smoke",
        "--store",
        dir.join("pinned-chaos-store").to_str().unwrap(),
        "--out",
        doc.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "chaos smoke run failed\n{}", describe(&run));
    let text = fs::read_to_string(&doc).expect("read chaos smoke document");
    assert!(text.contains("\"response_digest\": \"a5f8b6addc6e8c5d\""), "{text}");
}

#[test]
fn smoke_run_completes_under_a_serving_fault_plan() {
    // Poisoned lanes are parked and looked up again on their retry: the
    // cache accounting must count those lookups, not fail on them. At 0.5
    // some lane is poisoned on every retry and answered from the fallback,
    // which an armed plan makes expected. Every pass settles the retries
    // still parked after its last scheduled tick, so the throughput pass
    // answers all 24 tenants x 6 ticks, the overload pass answers every
    // request its half-size queue admits, and the cache pass answers all
    // 16 of its lookups. The plan is set on the child process only.
    for plan in ["batch_nan=0.1", "batch_nan=0.5", "batch_nan=1.0"] {
        let store = scratch().join(format!("faulted-store-{plan}"));
        let run = Command::new(env!("CARGO_BIN_EXE_ld-loadgen"))
            .args(["--smoke", "--store", store.to_str().unwrap()])
            .env("LD_FAULT", plan)
            .output()
            .expect("spawn ld-loadgen");
        assert_eq!(run.status.code(), Some(0), "{plan}\n{}", describe(&run));
        for (line, pass) in [
            ("bitwise equal over 144 responses", "throughput"),
            ("overload: 48 answered + 48 shed of 96 requests", "overload"),
            ("cache: 16 of 16 requests answered", "cache"),
        ] {
            assert!(
                stdout(&run).contains(line),
                "{plan}: the {pass} pass must answer every admitted request\n{}",
                describe(&run)
            );
        }
    }
}
