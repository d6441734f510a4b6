#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
//! CLI front-end for the workspace static analyzer.
//!
//! ```text
//! ld-lint [--deny] [--format human|json] [--explain RULE]
//!         [--root PATH] [--list] [--changed-files PATHS]
//!         [--fix] [--dry-run] [--check-report PATH]
//! ```
//!
//! Exit status: `0` when the scan is clean (or `--deny` was not given),
//! `1` when `--deny` is set and any unsuppressed violation — or a stale
//! suppression — exists, `2` on usage or I/O errors.

use ld_lint::{engine, fix, report, rules};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Options {
    deny: bool,
    json: bool,
    explain: Option<String>,
    list: bool,
    root: Option<PathBuf>,
    changed_files: Option<Vec<String>>,
    fix: bool,
    dry_run: bool,
    check_report: Option<PathBuf>,
}

const USAGE: &str = "usage: ld-lint [--deny] [--format human|json] [--explain RULE] \
[--root PATH] [--list] [--changed-files P1,P2,...] [--fix] [--dry-run] [--check-report PATH]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        deny: false,
        json: false,
        explain: None,
        list: false,
        root: None,
        changed_files: None,
        fix: false,
        dry_run: false,
        check_report: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => opts.deny = true,
            "--list" => opts.list = true,
            "--fix" => opts.fix = true,
            "--dry-run" => opts.dry_run = true,
            "--format" => match args.next().as_deref() {
                Some("human") => opts.json = false,
                Some("json") => opts.json = true,
                other => return Err(format!("--format expects human|json, got {other:?}")),
            },
            "--explain" => {
                opts.explain = Some(args.next().ok_or("--explain expects a rule id")?);
            }
            "--root" => opts.root = Some(args.next().ok_or("--root expects a path")?.into()),
            "--changed-files" => {
                let list = args.next().ok_or("--changed-files expects a comma-separated list")?;
                let files: Vec<String> = list
                    .split(',')
                    .map(|s| s.trim().trim_start_matches("./").to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                opts.changed_files
                    .get_or_insert_with(Vec::new)
                    .extend(files);
            }
            "--check-report" => {
                opts.check_report =
                    Some(args.next().ok_or("--check-report expects a path")?.into());
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if opts.dry_run && !opts.fix {
        return Err("--dry-run only makes sense with --fix".into());
    }
    Ok(opts)
}

fn explain(rule_id: &str) -> ExitCode {
    match rules::rule_by_id(rule_id) {
        Some(rule) => {
            println!("{} — {}\n", rule.id, rule.summary);
            println!("{}\n", rule.explain);
            println!("fix: {}", rule.fix_hint);
            println!(
                "suppress (justification required): // ld-lint: allow({}, \"why this is sound\")",
                rule.id
            );
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "unknown rule `{rule_id}`; known rules: {}",
                rules::all_rules().iter().map(|r| r.id).collect::<Vec<_>>().join(", ")
            );
            ExitCode::from(2)
        }
    }
}

fn list_rules() -> ExitCode {
    for rule in rules::all_rules() {
        let tag = if rule.semantic { " (semantic)" } else { "" };
        println!("{:<18} {}{}", rule.id, rule.summary, tag);
    }
    ExitCode::SUCCESS
}

fn check_report(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ld-lint: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let problems = report::check_report(&text);
    if problems.is_empty() {
        eprintln!(
            "ld-lint: {} conforms to report schema v{}",
            path.display(),
            report::SCHEMA_VERSION
        );
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("ld-lint: report schema: {p}");
        }
        ExitCode::FAILURE
    }
}

/// Plans and (unless `dry_run`) applies machine-applicable fixes for the
/// active violations of `scan`. Returns the number of edits, or `None` on
/// I/O failure.
fn run_fix(root: &Path, scan: &engine::ScanReport, dry_run: bool) -> Option<usize> {
    use ld_lint::{ast, lexer};
    // Active violations by file, as (rule, line) pairs the planner checks.
    let mut by_file: std::collections::BTreeMap<&str, Vec<(&str, u32)>> =
        std::collections::BTreeMap::new();
    for v in &scan.violations {
        by_file.entry(&v.file).or_default().push((&v.rule, v.line));
    }
    let mut total = 0usize;
    for (rel, sites) in &by_file {
        let path = root.join(rel);
        let source = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ld-lint: cannot read {}: {e}", path.display());
                return None;
            }
        };
        let lexed = lexer::lex(&source);
        let ctx = engine::file_context(rel, &lexed.tokens);
        let parsed = ast::parse(&lexed.tokens);
        let edits = fix::plan_fixes(&ctx, &parsed, &source, &|rule, line| {
            sites.iter().any(|(r, l)| *r == rule && *l == line)
        });
        if edits.is_empty() {
            continue;
        }
        total += edits.len();
        if dry_run {
            print!("{}", fix::render_dry_run(rel, &source, &edits));
            continue;
        }
        let Some(fixed) = fix::apply_edits(&source, &edits) else {
            eprintln!("ld-lint: overlapping edits planned for {rel}; skipping file");
            continue;
        };
        if let Err(e) = fix::write_atomic(&path, &fixed) {
            eprintln!("ld-lint: cannot write {}: {e}", path.display());
            return None;
        }
        eprintln!("ld-lint: fixed {} site(s) in {rel}", edits.len());
    }
    Some(total)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ld-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(rule) = &opts.explain {
        return explain(rule);
    }
    if opts.list {
        return list_rules();
    }
    if let Some(path) = &opts.check_report {
        return check_report(path);
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let Some(root) = opts.root.clone().or_else(|| engine::find_workspace_root(&cwd)) else {
        eprintln!("ld-lint: no workspace root found above {}", cwd.display());
        return ExitCode::from(2);
    };
    let changed: Option<BTreeSet<String>> = opts
        .changed_files
        .as_ref()
        .map(|fs| fs.iter().cloned().collect());

    let scan = engine::scan_workspace(&root, changed.as_ref());

    if opts.fix {
        let Some(n) = run_fix(&root, &scan, opts.dry_run) else {
            return ExitCode::from(2);
        };
        if opts.dry_run {
            eprintln!("ld-lint: {n} fix(es) available (dry run; nothing written)");
            return ExitCode::SUCCESS;
        }
        eprintln!("ld-lint: applied {n} fix(es)");
        // Fall through and report on the post-fix tree so the exit status
        // reflects what is still broken.
        let rescan = engine::scan_workspace(&root, changed.as_ref());
        print!("{}", report::render_human(&rescan));
        return if opts.deny && gate_fails(&rescan) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    if opts.json {
        println!("{}", report::render_json(&scan));
        // Keep the human-readable gate outcome visible even when stdout is
        // redirected to a report file.
        eprint!("{}", report::render_summary(&scan));
        if opts.deny && gate_fails(&scan) {
            for v in &scan.violations {
                eprintln!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
            }
            for s in &scan.stale_suppressions {
                eprintln!("{}:{}: stale suppression of `{}`", s.file, s.line, s.rule);
            }
        }
    } else {
        print!("{}", report::render_human(&scan));
    }

    if opts.deny && gate_fails(&scan) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Whether `--deny` fails: unsuppressed violations or stale suppressions.
fn gate_fails(scan: &engine::ScanReport) -> bool {
    !scan.violations.is_empty() || !scan.stale_suppressions.is_empty()
}
