//! Benchmark of the A4 reproduction's cold sweep path.
//!
//! ```text
//! a4-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! a4-perfbench steady --workload <name> --runs <n> --seconds <s> [--trace <0|1>] [--seed <n>]
//! ```
//!
//! The first form runs one workload and prints, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The second form runs the first `n` times, each in its own
//! process with seeds `seed, seed+1, ...`, and prints the spread of every
//! metric. See `README.md` beside this file.

mod probe;
mod stats;
mod steady;
mod traced;
mod untraced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Workload, DEFAULT_SEED, WORKLOADS};

/// Parsed command-line flags.
struct Flags {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    reports_out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: a4-perfbench [steady] --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--runs <n>]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut runs = 10;
    let mut reports_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::named(value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--runs" => {
                runs = value.parse().map_err(|e| bad(&e))?;
                if runs < 2 {
                    return Err(bad(&"needs at least 2 runs"));
                }
            }
            "--reports-out" => reports_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Flags {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        runs,
        reports_out,
    })
}

/// The benchmark's own scratch directory; everything it writes stays
/// under it.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs this binary with `args` in a child process and returns its last
/// line of standard output.
pub(crate) fn run_child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("child run {args:?} exited with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .map(str::to_string)
        .ok_or_else(|| format!("child run {args:?} printed nothing"))
}

/// One benchmark run: untraced, or traced against an untraced child run.
fn run(flags: &Flags) -> Result<String, String> {
    let work = out_dir().join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = if flags.trace {
        // The untraced run in its own process: its reports are what the
        // traced run must reproduce byte for byte, and its throughput is
        // the base of the tracing overhead. Each half gets half of the
        // run's seconds.
        let half = flags.seconds / 2.0;
        let reports_path = work.join("untraced-reports.jsonl");
        let line = run_child(&[
            "--workload".into(),
            flags.workload.name.into(),
            "--seed".into(),
            flags.seed.to_string(),
            "--seconds".into(),
            half.to_string(),
            "--trace".into(),
            "0".into(),
            "--reports-out".into(),
            reports_path.display().to_string(),
        ])?;
        let child = stats::RunResult::parse(&line)?;
        let reports: Vec<String> = std::fs::read_to_string(&reports_path)
            .map_err(|e| format!("{}: {e}", reports_path.display()))?
            .lines()
            .map(str::to_string)
            .collect();
        let qps = child.metric("quanta_per_s").unwrap_or(0.0);
        let trace_path = out_dir().join(format!(
            "trace-{}-seed{}.jsonl",
            flags.workload.name, flags.seed
        ));
        let t = traced::run(
            flags.workload,
            flags.seed,
            half,
            &reports,
            qps,
            &work,
            &trace_path,
        );
        eprintln!("[perfbench] spans written to {}", trace_path.display());
        stats::result_line(
            child.correct && t.failed == 0,
            child.attempted + t.attempted,
            child.failed + t.failed,
            &t.metrics,
        )
    } else {
        let u = untraced::run(flags.workload, flags.seed, flags.seconds, &work);
        if let Some(path) = &flags.reports_out {
            let mut text = u.reports.join("\n");
            text.push('\n');
            std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        stats::result_line(u.failed == 0, u.attempted, u.failed, &u.metrics)
    };
    std::fs::remove_dir_all(&work).ok();
    Ok(result)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (steady_mode, rest) = match args.first().map(String::as_str) {
        Some("steady") => (true, &args[1..]),
        _ => (false, &args[..]),
    };
    let flags = match parse(rest) {
        Ok(flags) => flags,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = if steady_mode {
        steady::run(&flags)
    } else {
        run(&flags)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("[perfbench] error: {e}");
            ExitCode::FAILURE
        }
    }
}
