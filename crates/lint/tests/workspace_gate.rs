//! Tier-1 gate: the workspace itself must scan clean — no violations, no
//! stale suppressions — and the CLI must enforce that with its exit code.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use ld_lint::{find_workspace_root, scan_workspace};

fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(manifest).expect("workspace root above crates/lint")
}

#[test]
fn workspace_is_clean_without_any_baseline() {
    let root = workspace_root();
    let report = scan_workspace(&root, None);
    assert!(report.files_scanned > 50, "scan saw only {} files", report.files_scanned);

    let active: Vec<String> = report
        .violations
        .iter()
        .map(|v| format!("{}:{} [{}] {}", v.file, v.line, v.rule, v.message))
        .collect();
    assert!(
        active.is_empty(),
        "workspace has active violations:\n{}",
        active.join("\n")
    );
    assert!(
        report.stale_suppressions.is_empty(),
        "suppressions that silence nothing must be removed:\n{:?}",
        report.stale_suppressions
    );
}

#[test]
fn changed_files_scan_reaches_the_root_package() {
    // The root package's `src/` is linted like any crate, so its
    // suppression directives are checked for staleness too.
    let root = workspace_root();
    let changed = BTreeSet::from(["src/bin/ld-cli.rs".to_string()]);
    let report = scan_workspace(&root, Some(&changed));
    assert_eq!(report.files_scanned, 1);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(
        report.stale_suppressions.is_empty(),
        "{:?}",
        report.stale_suppressions
    );
}

#[test]
fn removed_flags_are_unknown_arguments() {
    for args in [
        &["--engine", "token"][..],
        &["--baseline", "x.json"],
        &["--write-baseline"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ld-lint"))
            .args(args)
            .output()
            .expect("ld-lint binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown argument"));
    }
}

#[test]
fn cli_deny_passes_on_this_workspace() {
    let root = workspace_root();
    let status = Command::new(env!("CARGO_BIN_EXE_ld-lint"))
        .args(["--deny", "--root"])
        .arg(&root)
        .output()
        .expect("ld-lint binary runs");
    assert!(
        status.status.success(),
        "ld-lint --deny failed on the workspace:\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&status.stdout),
        String::from_utf8_lossy(&status.stderr)
    );
}

#[test]
fn cli_deny_fails_on_a_seeded_violation() {
    // Build a minimal fake workspace with one violating file and check the
    // exit code is non-zero — the property the CI gate relies on.
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ld-lint-seeded");
    let src_dir = tmp.join("crates/demo/src");
    fs::create_dir_all(&src_dir).expect("create fixture tree");
    fs::write(tmp.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/demo\"]\n")
        .expect("write fixture manifest");
    fs::write(
        src_dir.join("lib.rs"),
        "pub fn worst(xs: &mut Vec<f64>) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n",
    )
    .expect("write fixture source");

    let out = Command::new(env!("CARGO_BIN_EXE_ld-lint"))
        .args(["--deny", "--root"])
        .arg(&tmp)
        .output()
        .expect("ld-lint binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "seeded float-ord violation must exit 1\nstdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("float-ord"), "report names the rule:\n{stdout}");
    assert!(stdout.contains("lib.rs:2"), "report carries file:line:\n{stdout}");

    // JSON mode reports the same violation machine-readably and still
    // enforces the exit code.
    let json_out = Command::new(env!("CARGO_BIN_EXE_ld-lint"))
        .args(["--deny", "--format", "json", "--root"])
        .arg(&tmp)
        .output()
        .expect("ld-lint binary runs");
    assert_eq!(json_out.status.code(), Some(1));
    let payload = String::from_utf8_lossy(&json_out.stdout);
    assert!(payload.contains("\"float-ord\""), "json names the rule:\n{payload}");
    assert!(
        payload.contains("\"schema_version\": 3"),
        "json carries the schema version:\n{payload}"
    );
}

#[test]
fn cli_deny_fails_on_a_stale_suppression() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ld-lint-stale-sup");
    let src_dir = tmp.join("crates/demo/src");
    fs::create_dir_all(&src_dir).expect("create fixture tree");
    fs::write(tmp.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/demo\"]\n")
        .expect("write fixture manifest");
    fs::write(
        src_dir.join("lib.rs"),
        "// ld-lint: allow(lossy-cast, \"nothing here anymore\")\n\
         pub fn fine(n: u32) -> usize {\n    n as usize\n}\n",
    )
    .expect("write fixture source");

    let out = Command::new(env!("CARGO_BIN_EXE_ld-lint"))
        .args(["--deny", "--root"])
        .arg(&tmp)
        .output()
        .expect("ld-lint binary runs");
    assert_eq!(
        out.status.code(),
        Some(1),
        "stale suppression must fail --deny\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("stale suppression"),
        "report explains the failure:\n{stdout}"
    );
}

#[test]
fn cli_fix_dry_run_proposes_zero_edits_on_clean_tree() {
    let root = workspace_root();
    let out = Command::new(env!("CARGO_BIN_EXE_ld-lint"))
        .args(["--fix", "--dry-run", "--root"])
        .arg(&root)
        .output()
        .expect("ld-lint binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("0 fix(es) available"),
        "clean tree must propose no edits:\n{stderr}"
    );
}
