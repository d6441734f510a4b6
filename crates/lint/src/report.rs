//! Human and JSON rendering of a [`ScanReport`].

use crate::engine::ScanReport;
use serde::Serialize;

/// JSON schema version of [`render_json`]. Bumped to 3 when the envelope
/// dropped `engine` and the baseline keys (`baselined`,
/// `stale_baseline`).
pub const SCHEMA_VERSION: u32 = 3;

/// Renders the report for terminals: `file:line: [rule] message` plus a fix
/// hint, grouped in file/line order, with a one-line summary.
pub fn render_human(report: &ScanReport) -> String {
    let mut out = String::new();
    for v in &report.violations {
        out.push_str(&format!("{}:{}: [{}] {}\n", v.file, v.line, v.rule, v.message));
        if !v.snippet.is_empty() {
            out.push_str(&format!("    | {}\n", v.snippet));
        }
        out.push_str(&format!("    = hint: {}\n", v.hint));
    }
    for stale in &report.stale_suppressions {
        out.push_str(&format!(
            "note: stale suppression at {}:{} — `{}` no longer fires here; remove the allow\n",
            stale.file, stale.line, stale.rule
        ));
    }
    out.push_str(&render_summary(report));
    out
}

/// The one-line summary shared by both formats.
pub fn render_summary(report: &ScanReport) -> String {
    format!(
        "ld-lint: {} file(s), {} violation(s) ({} suppressed, {} stale suppression(s))\n",
        report.files_scanned,
        report.violations.len(),
        report.suppressed,
        report.stale_suppressions.len(),
    )
}

#[derive(Serialize)]
struct JsonSummary {
    files_scanned: usize,
    active: usize,
    suppressed: usize,
    stale_suppressions: usize,
}

// The vendored serde_derive shim does not support generic structs, so the
// JSON envelope owns its violation list.
#[derive(Serialize)]
struct JsonReport {
    schema_version: u32,
    violations: Vec<crate::engine::Violation>,
    stale_suppressions: Vec<crate::engine::StaleSuppression>,
    summary: JsonSummary,
}

/// Renders the full report as pretty JSON for machine consumption in CI.
pub fn render_json(report: &ScanReport) -> String {
    let json = JsonReport {
        schema_version: SCHEMA_VERSION,
        violations: report.violations.clone(),
        stale_suppressions: report.stale_suppressions.clone(),
        summary: JsonSummary {
            files_scanned: report.files_scanned,
            active: report.violations.len(),
            suppressed: report.suppressed,
            stale_suppressions: report.stale_suppressions.len(),
        },
    };
    serde_json::to_string_pretty(&json).unwrap_or_else(|e| format!("{{\"error\":\"{e:?}\"}}"))
}

/// Validates a serialized report against the current schema: correct
/// `schema_version`, required envelope keys, required violation keys.
/// Returns a list of problems (empty means valid). Used by `ld-lint
/// --check-report` so CI can validate the artifact it just wrote without
/// external tooling.
pub fn check_report(text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let value: serde::Value = match serde_json::from_str(text) {
        Ok(v) => v,
        Err(e) => return vec![format!("not valid JSON: {e:?}")],
    };
    if value.as_object().is_none() {
        return vec!["top level is not an object".into()];
    }
    match value.get("schema_version").and_then(|v| v.as_u64()) {
        Some(v) if v == SCHEMA_VERSION as u64 => {}
        Some(v) => problems.push(format!(
            "schema_version is {v}, expected {SCHEMA_VERSION}"
        )),
        None => problems.push("missing numeric `schema_version`".into()),
    }
    match value.get("violations").and_then(|v| v.as_array()) {
        Some(vs) => {
            for (i, v) in vs.iter().enumerate() {
                if v.as_object().is_none() {
                    problems.push(format!("violations[{i}] is not an object"));
                    continue;
                }
                for key in ["file", "line", "rule", "message", "hint", "snippet"] {
                    if v.get(key).is_none() {
                        problems.push(format!("violations[{i}] missing `{key}`"));
                    }
                }
            }
        }
        None => problems.push("missing array `violations`".into()),
    }
    if value.get("stale_suppressions").and_then(|v| v.as_array()).is_none() {
        problems.push("missing array `stale_suppressions`".into());
    }
    match value.get("summary") {
        Some(s) if s.as_object().is_some() => {
            for key in [
                "files_scanned",
                "active",
                "suppressed",
                "stale_suppressions",
            ] {
                if s.get(key).and_then(|v| v.as_u64()).is_none() {
                    problems.push(format!("summary missing numeric `{key}`"));
                }
            }
        }
        _ => problems.push("missing object `summary`".into()),
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_report_passes_its_own_schema_check() {
        let report = ScanReport::default();
        let json = render_json(&report);
        assert_eq!(check_report(&json), Vec::<String>::new());
    }

    #[test]
    fn schema_check_rejects_old_version_and_missing_keys() {
        let problems = check_report("{\"version\": 1, \"violations\": []}");
        assert!(
            problems.iter().any(|p| p.contains("schema_version")),
            "{problems:?}"
        );
        assert!(problems.iter().any(|p| p.contains("summary")), "{problems:?}");
        assert!(check_report("not json").len() == 1);
    }

    #[test]
    fn schema_check_rejects_a_v2_report() {
        let v2 = r#"{
            "schema_version": 2,
            "engine": "ast",
            "violations": [],
            "stale_suppressions": [],
            "summary": {"files_scanned": 135, "active": 0, "baselined": 0,
                        "suppressed": 25, "stale_baseline": 0, "stale_suppressions": 0}
        }"#;
        assert_eq!(check_report(v2), ["schema_version is 2, expected 3"]);
    }
}
