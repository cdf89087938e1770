//! Metric collection, summary statistics and the result line.

use std::collections::BTreeMap;

/// Named metrics with units, printed in insertion order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            !self.entries.iter().any(|(n, _, _)| *n == name),
            "metric {name} reported twice"
        );
        self.entries.push((name, value, unit));
    }

    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        self.put(name, value as f64, "count");
    }

    pub fn bytes(&mut self, name: impl Into<String>, value: u64) {
        self.put(name, value as f64, "B");
    }

    /// One `name value unit` line per metric.
    pub fn lines(&self) -> String {
        self.entries
            .iter()
            .map(|(n, v, u)| format!("  {n:<34} {v:>16} {u}\n"))
            .collect()
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// JSON number with every digit Rust's shortest round-trip form gives.
fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The result object the benchmark prints as its last line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}

/// Flat JSON object of string fields (the environment record).
pub fn string_object(fields: &BTreeMap<&str, String>) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", pwobs::export::json_escape(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs` (not empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Each step index's fastest wall time across repeats of a trajectory
/// (indices no repeat reached are skipped). Every repeat of a step does
/// the same work, so host contention only adds time: the fastest repeat
/// is the step's cost with the least contention seen, and a burst that
/// slows some repeats does not move it. Quantiles over these give the
/// trajectory's step-cost profile.
pub fn per_step_minima(repeats: &[&[f64]]) -> Vec<f64> {
    let len = repeats.iter().map(|r| r.len()).max().unwrap_or(0);
    (0..len)
        .map(|k| {
            repeats
                .iter()
                .filter_map(|r| r.get(k).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.9), 4.6);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        let a = [1.0, 5.0, 2.0];
        let b = [3.0, 4.0];
        let c = [2.0, 6.0];
        assert_eq!(per_step_minima(&[&a, &b, &c]), vec![1.0, 4.0, 2.0]);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("s_per_fs", 10.25, "s");
        m.count("ptim.scf_iters", 514);
        let line = result_line(true, 20, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 20, \"failed\": 0, \"metrics\": \
             {\"s_per_fs\": {\"value\": 10.25, \"unit\": \"s\"}, \
             \"ptim.scf_iters\": {\"value\": 514, \"unit\": \"count\"}}}"
        );
    }
}
