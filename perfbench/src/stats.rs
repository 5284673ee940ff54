//! Order statistics and the result line.

use serde::{Deserialize, Value};
use std::fmt::Write as _;

/// Median of `values` (the mean of the middle two for an even count);
/// 0 for none.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile by linear interpolation between closest ranks;
/// 0 for no values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive").
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        // JSON has no NaN or infinity; a metric without a defined value
        // (an empty ratio) is reported as 0.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// A parsed result line.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order printed.
    pub metrics: Vec<(String, f64, String)>,
}

/// Any JSON value, for parsing a result line without a fixed schema.
struct Raw(Value);

impl Deserialize for Raw {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Raw(v.clone()))
    }
}

impl RunResult {
    /// Parses the line [`result_line`] prints.
    pub fn parse(line: &str) -> Result<Self, String> {
        let bad = |e: &dyn std::fmt::Display| format!("malformed result line {line:?}: {e}");
        let Raw(v) = serde_json::from_str(line).map_err(|e| bad(&e))?;
        let field = |name: &str| v.get_field(name).map_err(|e| bad(&e));
        let number = |v: &Value| match *v {
            Value::F64(f) => Ok(f),
            Value::U64(n) => Ok(n as f64),
            Value::I64(n) => Ok(n as f64),
            _ => Err(bad(&"expected a number")),
        };
        let Value::Bool(correct) = *field("correct")? else {
            return Err(bad(&"`correct` is not a bool"));
        };
        let Value::Map(entries) = field("metrics")? else {
            return Err(bad(&"`metrics` is not a map"));
        };
        let mut metrics = Vec::new();
        for (name, m) in entries {
            let value = number(m.get_field("value").map_err(|e| bad(&e))?)?;
            let Value::Str(unit) = m.get_field("unit").map_err(|e| bad(&e))? else {
                return Err(bad(&"`unit` is not a string"));
            };
            metrics.push((name.clone(), value, unit.clone()));
        }
        Ok(RunResult {
            correct,
            attempted: number(field("attempted")?)? as u64,
            failed: number(field("failed")?)? as u64,
            metrics,
        })
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn percentiles_interpolate() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(percentile(&[0.0, 10.0], 90.0), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_lines_parse_back() {
        let metrics = [
            Metric {
                name: "quanta_per_s",
                unit: "1/s",
                value: 1234.5,
            },
            Metric {
                name: "empty_ratio",
                unit: "ratio",
                value: f64::NAN,
            },
        ];
        let r = RunResult::parse(&result_line(true, 3, 1, &metrics)).expect("parses");
        assert!(r.correct);
        assert_eq!((r.attempted, r.failed), (3, 1));
        assert_eq!(r.metric("quanta_per_s"), Some(1234.5));
        assert_eq!(r.metric("empty_ratio"), Some(0.0));
        assert_eq!(r.metrics[0].2, "1/s");
    }
}
