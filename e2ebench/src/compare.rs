//! `ld-e2e compare A.jsonl B.jsonl`: judges B (a change) against A (its
//! parent), per workload and end-to-end metric, from runs appended with
//! `run --out`.
//!
//! - `worse`: B's median is worse than A's by more than the metric's bound.
//! - `unresolved`: either side's spread (quartile distance over median)
//!   exceeds the bound, unless every B run beats every A run; or, for
//!   `job_s` on `tune`, a seed run on both sides searched differently
//!   (trajectory digests differ), so the two did different work.
//! - `better`: over at least ten pairs (runs of one seed when both sides
//!   have it), B wins at least nine tenths, and its median beats A's by
//!   more than A's spread.
//! - `same`: anything else.
//!
//! The exit code is 1 when any metric is worse or any run failed a check.

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde_json::Value;

use crate::metrics::{self, Better};

struct Run {
    workload: String,
    seed: u64,
    digest: String,
    correct: bool,
    metrics: Vec<(String, f64)>,
}

fn parse(line: &str) -> Result<Option<Run>, String> {
    let doc: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let text = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing {key}"))
    };
    if doc.get("traced").and_then(Value::as_bool) != Some(false)
        || doc.get("smoke").and_then(Value::as_bool) != Some(false)
    {
        return Ok(None);
    }
    let result = doc.get("result").ok_or("missing result")?;
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("missing result.metrics")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no value"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Some(Run {
        workload: text(&doc, "workload")?,
        seed: doc
            .get("seed")
            .and_then(Value::as_u64)
            .ok_or("missing seed")?,
        digest: text(&doc, "digest")?,
        correct: result
            .get("correct")
            .and_then(Value::as_bool)
            .ok_or("missing correct")?,
        metrics,
    }))
}

/// Untraced, full-size runs from a JSON-lines file.
fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        if let Some(run) = parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))? {
            runs.push(run);
        }
    }
    Ok(runs)
}

/// Quartile distance over the median; 0 for a single run.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = metrics::quartiles(values);
    (q3 - q1) / metrics::median(values).abs().max(f64::MIN_POSITIVE)
}

/// How much better `b` is than `a`, as a share of `a` (negative = worse).
fn gain(better: Better, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => -change,
        Better::Higher => change,
    }
}

pub fn main(path_a: &str, path_b: &str) -> ExitCode {
    let (runs_a, runs_b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for (side, runs) in [("A", &runs_a), ("B", &runs_b)] {
        for r in runs.iter().filter(|r| !r.correct) {
            println!(
                "{side}: {} seed {} failed a correctness check",
                r.workload, r.seed
            );
            failed = true;
        }
    }
    let workloads: Vec<&str> = crate::Workload::ALL
        .iter()
        .map(|w| w.name())
        .filter(|w| {
            runs_a.iter().any(|r| r.workload == *w) && runs_b.iter().any(|r| r.workload == *w)
        })
        .collect();
    if workloads.is_empty() {
        eprintln!("no workload has untraced runs on both sides");
        return ExitCode::from(2);
    }
    println!(
        "{:<16} {:<18} {:<10} {:>8}  base (A median) -> B median",
        "workload", "metric", "verdict", "B/A"
    );
    for workload in workloads {
        let a: Vec<&Run> = runs_a.iter().filter(|r| r.workload == workload).collect();
        let b: Vec<&Run> = runs_b.iter().filter(|r| r.workload == workload).collect();
        let diverged = a
            .iter()
            .any(|x| b.iter().any(|y| y.seed == x.seed && y.digest != x.digest));
        for def in metrics::END_TO_END {
            // Values by seed, in run order within a seed.
            let by_seed = |runs: &[&Run]| -> BTreeMap<u64, Vec<f64>> {
                let mut out: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
                for r in runs {
                    if let Some((_, v)) = r.metrics.iter().find(|(n, _)| n == def.name) {
                        out.entry(r.seed).or_default().push(*v);
                    }
                }
                out
            };
            let (va, vb) = (by_seed(&a), by_seed(&b));
            let xs: Vec<f64> = va.values().flatten().copied().collect();
            let ys: Vec<f64> = vb.values().flatten().copied().collect();
            if xs.is_empty() || ys.is_empty() {
                continue;
            }
            let (ma, mb) = (metrics::median(&xs), metrics::median(&ys));
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let g = gain(def.better, ma, mb);
            let beats = |x: f64, y: f64| gain(def.better, x, y) > 0.0;
            let dominates = xs.iter().all(|&x| ys.iter().all(|&y| beats(x, y)));
            let mut paired: Vec<(f64, f64)> = va
                .iter()
                .filter_map(|(s, x)| vb.get(s).map(|y| x.iter().copied().zip(y.iter().copied())))
                .flatten()
                .collect();
            if paired.is_empty() {
                paired = xs
                    .iter()
                    .flat_map(|&x| ys.iter().map(move |&y| (x, y)))
                    .collect();
            }
            let wins = paired.iter().filter(|&&(x, y)| beats(x, y)).count();
            let verdict = if (spread(&xs) > bound || spread(&ys) > bound) && !dominates
                || (def.name == "job_s" && workload == "tune" && diverged)
            {
                "unresolved"
            } else if -g > bound {
                failed = true;
                "worse"
            } else if paired.len() >= 10 && 10 * wins >= 9 * paired.len() && g > spread(&xs) {
                "better"
            } else {
                "same"
            };
            println!(
                "{workload:<16} {:<18} {verdict:<10} {:>8.4}  {ma:.6} {unit} (n={}, spread {:.3}) -> {mb:.6} {unit} (n={}, spread {:.3}), bound {bound}",
                def.name,
                mb / ma,
                xs.len(),
                spread(&xs),
                ys.len(),
                spread(&ys),
                unit = def.unit,
            );
        }
        if diverged {
            println!("{workload:<16} note: trajectory digests differ on a shared seed");
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
