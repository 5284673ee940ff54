//! The steadiness command: one workload run N times, each in its own
//! process and with its own seed, and the spread of every metric.

use crate::stats::{median, quartiles, RunResult};
use crate::Flags;
use std::fmt::Write as _;

/// Runs the workload `flags.runs` times with seeds `seed, seed+1, ...`
/// and prints, per metric, the median, the quartiles (as Python's
/// `statistics.quantiles(n=4)` gives them), their distance as a share of
/// the median, and the max/min ratio. Fails if any run was incorrect.
pub fn run(flags: &Flags) -> Result<String, String> {
    let mut results = Vec::with_capacity(flags.runs);
    for i in 0..flags.runs {
        let seed = flags.seed.wrapping_add(i as u64);
        let line = crate::run_child(&[
            "--workload".into(),
            flags.workload.name.into(),
            "--seed".into(),
            seed.to_string(),
            "--seconds".into(),
            flags.seconds.to_string(),
            "--trace".into(),
            if flags.trace { "1" } else { "0" }.into(),
        ])?;
        eprintln!("[steady] run {} seed {seed}: {line}", i + 1);
        results.push(RunResult::parse(&line)?);
    }
    let first = &results[0];
    let mut out = format!(
        "{} x{} (--seconds {}, --trace {}): {}\n{:<32} {:>10} {:>14} {:>14} {:>14} {:>9} {:>9}\n",
        flags.workload.name,
        flags.runs,
        flags.seconds,
        u8::from(flags.trace),
        flags.workload.why,
        "metric",
        "unit",
        "median",
        "q1",
        "q3",
        "iqr/med",
        "max/min",
    );
    for (name, _, unit) in &first.metrics {
        let values: Vec<f64> = results.iter().filter_map(|r| r.metric(name)).collect();
        let med = median(&values);
        let (q1, q3) = quartiles(&values);
        let (lo, hi) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let share = |x: f64, base: f64| if base == 0.0 { 0.0 } else { x / base };
        writeln!(
            out,
            "{name:<32} {unit:>10} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>8.2}% {:>9.4}",
            100.0 * share(q3 - q1, med),
            share(hi, lo),
        )
        .expect("writing to a String cannot fail");
    }
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let incorrect = results.iter().filter(|r| !r.correct).count();
    write!(
        out,
        "runs incorrect: {incorrect}, cells attempted: {attempted}, cells failed: {failed}"
    )
    .expect("writing to a String cannot fail");
    if incorrect > 0 {
        println!("{out}");
        return Err(format!(
            "{incorrect} of {} runs were not correct",
            flags.runs
        ));
    }
    Ok(out)
}
