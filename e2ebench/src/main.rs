//! `ld-e2e` — the end-to-end, layer-attributed benchmark.
//!
//! ```text
//! ld-e2e run --workload W [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--out F]
//! ld-e2e compare A.jsonl B.jsonl
//! ```
//!
//! `run` measures one workload in this process and prints a table for
//! people, then one JSON line (`correct`, `attempted`, `failed`, `metrics`)
//! as the last line of stdout. `--seconds` and `--trace` are the options a
//! tool running the command in the root `BENCHMARK.json` passes to it: the
//! measured time (that file's `run_seconds`) and whether to report the
//! end-to-end metrics (`--trace 0`, the default) or the per-layer ones
//! (`--trace 1`). The exit code is 1 when any correctness check fails and 2
//! on a usage error or when a fault-injection plan is active. `--out F`
//! appends the run, with its digest and notes, to the JSON-lines file
//! `compare` reads. See README.md.

mod compare;
mod council;
mod metrics;
mod passes;
mod serve;
mod spans;
mod speed;
mod tune;

use std::path::PathBuf;
use std::process::ExitCode;

use serde_json::Value;

/// The four workloads. Each stresses different layers: see README.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Tune,
    Council,
    ServeShared,
    ServePertenant,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Tune,
        Workload::Council,
        Workload::ServeShared,
        Workload::ServePertenant,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Tune => "tune",
            Workload::Council => "council",
            Workload::ServeShared => "serve-shared",
            Workload::ServePertenant => "serve-pertenant",
        }
    }
}

/// What one run was asked to do.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    /// Measured seconds. A traced run splits them between the untraced
    /// reference pass and the traced replay of the same work.
    pub seconds: f64,
    pub traced: bool,
    /// Seconds-scale sizes with every check still on.
    pub smoke: bool,
    /// Private scratch directory for snapshot stores, removed at exit.
    pub scratch: PathBuf,
}

impl Ctx {
    /// Seconds the untraced pass measures for.
    pub fn untraced_seconds(&self) -> f64 {
        if self.traced {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// One correctness check and what it found.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// What a workload reports back.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced) or per-layer metrics (traced). Metrics
    /// a workload leaves out are reported as 0: it never calls that layer.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Digest of the work done, identical across runs of one seed.
    pub digest: u64,
    /// Per-layer metrics the traced replay could not reproduce bitwise.
    pub unresolved: Vec<&'static str>,
    /// Lines for people: sample counts, the tail percentile, profiles.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let def = metrics::find(name).unwrap_or_else(|| panic!("unknown metric {name}"));
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((def.name, value));
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ld-e2e run --workload {} [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--out F]\n  ld-e2e compare A.jsonl B.jsonl",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") if args.len() == 3 => compare::main(&args[1], &args[2]),
        _ => usage(),
    }
}

fn run(args: &[String]) -> ExitCode {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 20u64;
    let mut traced = false;
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned();
        let ok = match arg.as_str() {
            "--workload" => value()
                .and_then(|w| Workload::ALL.into_iter().find(|k| k.name() == w))
                .map(|w| workload = Some(w))
                .is_some(),
            "--seed" => value()
                .and_then(|s| s.parse().ok())
                .map(|s| seed = s)
                .is_some(),
            "--seconds" => value()
                .and_then(|s| s.parse::<u64>().ok())
                .filter(|s| (1..=600).contains(s))
                .map(|s| seconds = s)
                .is_some(),
            "--trace" => match value().as_deref() {
                Some("0") => {
                    traced = false;
                    true
                }
                Some("1") => {
                    traced = true;
                    true
                }
                _ => false,
            },
            "--smoke" => {
                smoke = true;
                true
            }
            "--out" => value().map(|f| out = Some(f)).is_some(),
            _ => false,
        };
        if !ok {
            eprintln!("bad argument near {arg:?}");
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    // The fault plan is process-global: a plan installed by anything else
    // would silently change what is measured.
    if ld_faultinject::is_active() || ld_faultinject::FaultPlan::from_env(seed).is_some() {
        eprintln!("refusing to benchmark with fault injection active (unset LD_FAULT)");
        return ExitCode::from(2);
    }
    let cpu = match pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("cannot restrict the benchmark to one CPU: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        workload,
        seed,
        seconds: seconds as f64,
        traced,
        smoke,
        scratch: PathBuf::from("target").join("ld-e2e").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    };
    let mut outcome = match workload {
        Workload::Tune => tune::run(&ctx),
        Workload::Council => council::run(&ctx),
        Workload::ServeShared | Workload::ServePertenant => serve::run(&ctx),
    };
    // Best effort: workloads without a snapshot store never create it, and
    // the parents stay while another run still uses them.
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    for dir in ctx.scratch.ancestors().skip(1) {
        let _ = std::fs::remove_dir(dir);
    }
    outcome.notes.insert(0, format!("pinned to CPU {cpu}"));
    if outcome.attempted == 0 {
        outcome.check("attempted", false, "no operation was attempted");
    }
    if !traced {
        match metrics::peak_rss_mb() {
            Some(mb) => outcome.set("peak_rss_mb", mb),
            None => outcome.check("peak-rss", false, "VmHWM unreadable from /proc/self/status"),
        }
    }
    report(&ctx, &outcome, out.as_deref())
}

/// Restricts the process to the first CPU it may run on, before any
/// workload code runs, and returns that CPU.
///
/// This is a deliberate restriction: a user's process may use every core,
/// and the benchmark measures none of the shim's parallel paths. The
/// vendored rayon shim keeps no thread pool: on more than one core it
/// spawns eight scoped threads per parallel call, which is every training
/// mini-batch and every council forecast. On a 2-vCPU VM that made a
/// `tune` search five times slower than on one core, with about 60% of its
/// time in the kernel creating threads, so that a 20 s run held one or two
/// passes and the forecast time spread by 0.3 across seeds. A council
/// walk-forward ran about 1.5 times faster, but each of its forecasts about
/// 1.9 times slower. On one core the shim runs its chunks inline, the
/// process stays single-threaded, and every output is bitwise the same,
/// since the shim's chunking never depends on the thread count. A workload
/// on every core belongs beside a shim that keeps a pool.
fn pin_to_one_cpu() -> std::io::Result<usize> {
    // glibc's affinity calls; `std` has no setter. The mask is a
    // `cpu_set_t`: 1024 bits.
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..1024)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread, which is still the only one.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Prints the human table and the final JSON line, appends the run to
/// `--out`, and turns the checks into an exit code.
fn report(ctx: &Ctx, outcome: &Outcome, out: Option<&str>) -> ExitCode {
    let defs = if ctx.traced {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let value_of = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    println!(
        "ld-e2e {} seed {} ({}{}, {} s measured)",
        ctx.workload.name(),
        ctx.seed,
        if ctx.traced { "traced" } else { "untraced" },
        if ctx.smoke { ", smoke" } else { "" },
        ctx.seconds
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    println!("  {:<40} {:>16}  {:<8} bound", "metric", "value", "unit");
    for d in defs {
        let bound = d.bound.map_or(String::new(), |b| {
            format!("{:.0}% ({} is better)", b * 100.0, d.better.as_str())
        });
        let flag = if outcome.unresolved.contains(&d.name) {
            "  unresolved"
        } else {
            ""
        };
        println!(
            "  {:<40} {:>16.6}  {:<8} {bound}{flag}",
            d.name,
            value_of(d.name),
            d.unit
        );
    }
    for c in &outcome.checks {
        let status = if c.ok { "ok  " } else { "FAIL" };
        println!("  check {:<34} {status}  {}", c.name, c.detail);
    }
    println!("  digest {:016x}", outcome.digest);

    let correct = outcome.checks.iter().all(|c| c.ok);
    let metric_values: Vec<(String, Value)> = defs
        .iter()
        .map(|d| {
            let v = value_of(d.name);
            assert!(v.is_finite(), "metric {} is not finite: {v}", d.name);
            let entry = Value::Object(vec![
                ("value".into(), Value::Float(v)),
                ("unit".into(), Value::String(d.unit.into())),
            ]);
            (d.name.to_string(), entry)
        })
        .collect();
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Uint(outcome.attempted)),
        ("failed".into(), Value::Uint(outcome.failed)),
        ("metrics".into(), Value::Object(metric_values)),
    ]);
    if let Some(path) = out {
        let strings =
            |items: Vec<String>| Value::Array(items.into_iter().map(Value::String).collect());
        let record = Value::Object(vec![
            ("workload".into(), Value::String(ctx.workload.name().into())),
            ("seed".into(), Value::Uint(ctx.seed)),
            ("traced".into(), Value::Bool(ctx.traced)),
            ("smoke".into(), Value::Bool(ctx.smoke)),
            (
                "digest".into(),
                Value::String(format!("{:016x}", outcome.digest)),
            ),
            (
                "unresolved".into(),
                strings(outcome.unresolved.iter().map(|n| n.to_string()).collect()),
            ),
            ("notes".into(), strings(outcome.notes.clone())),
            ("result".into(), result.clone()),
        ]);
        let line = serde_json::to_string(&record).expect("run record serializes") + "\n";
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
        if let Err(e) = appended {
            eprintln!("cannot append to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    println!(
        "{}",
        serde_json::to_string(&result).expect("result serializes")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
