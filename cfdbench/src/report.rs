//! A workload run's result: named metrics with units and sample counts,
//! request counts, and the correctness checks that failed.

use crate::load::Client;
use crate::stats::Summary;
use crate::trace::Tracer;
use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub n: usize,
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            n,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds `<name>_p50_<unit>` and, when the sample supports a tail,
    /// `<name>_p90_<unit>` from durations in milliseconds.
    pub fn latency(&mut self, name: &str, ms: &[f64], unit: &'static str) {
        let Some(s) = Summary::of(ms) else { return };
        let scale = if unit == "us" { 1e3 } else { 1.0 };
        self.add(format!("{name}_p50_{unit}"), s.p50 * scale, unit, s.n);
        if s.p90_supported() {
            self.add(format!("{name}_p90_{unit}"), s.p90 * scale, unit, s.n);
        }
    }

    /// Adds the median of `ms` under `name` in `unit` (`ms` or `us`), when
    /// there is a sample.
    pub fn latency_p50(&mut self, name: &str, ms: &[f64], unit: &'static str) {
        if let Some(s) = Summary::of(ms) {
            let scale = if unit == "us" { 1e3 } else { 1.0 };
            self.add(name, s.p50 * scale, unit, s.n);
        }
    }

    /// The latency figures every workload reports, from its primary request
    /// class: the mean and the 90th percentile. The mean, not the median:
    /// disk writes come in two speeds that alternate in streaks of a second
    /// or two (the store scan alone takes 30 or 50 ms), and the median falls
    /// between them, jumping from one to the other as the mix shifts, where
    /// the mean moves in proportion. The tail is reported whatever the
    /// sample size; the run lengths the benchmark uses give it at least 100
    /// samples.
    pub fn primary(&mut self, ms: &[f64]) {
        if let Some(s) = Summary::of(ms) {
            let mean = ms.iter().sum::<f64>() / ms.len() as f64;
            self.add("primary_mean_ms", mean, "ms", s.n);
            self.add("primary_p90_ms", s.p90, "ms", s.n);
        }
    }

    /// Folds the clients' request counts and failures in.
    pub fn absorb_clients(&mut self, clients: &[Client]) {
        for c in clients {
            self.attempted += c.attempted;
            self.failed += c.failed;
            self.failures.extend(c.errors.iter().cloned());
            self.failures.extend(c.wrong.iter().cloned());
        }
    }

    /// Human-readable metric lines: name, value, unit, sample count.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<44} {:>14.4} {:<6} n={}",
                m.name, m.value, m.unit, m.n
            );
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "  {:<44} {:>14.4} {:<6} n={}",
            "error_rate", error_rate, "ratio", self.attempted
        );
        for f in &self.failures {
            let _ = writeln!(out, "  CHECK FAILED: {f}");
        }
        out
    }

    /// The result line: exactly the named metrics, in that order.
    pub fn json(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, unit) in names {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Per-span-name count, total and self time of a traced run.
pub fn render_profile(tracer: &Tracer) -> String {
    let mut out =
        String::from("  span                                count     total_ms      self_ms\n");
    for (name, (count, total, own)) in tracer.profile() {
        let _ = writeln!(out, "  {name:<34} {count:>7} {total:>12.3} {own:>12.3}");
    }
    out
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_reports_p90_only_with_enough_samples() {
        let mut o = Outcome::default();
        o.latency("write", &[1.0, 2.0, 3.0], "ms");
        assert_eq!(o.get("write_p50_ms"), Some(2.0));
        assert_eq!(o.get("write_p90_ms"), None);
        let many: Vec<f64> = (1..=200).map(|i| f64::from(i) / 1000.0).collect();
        o.latency("explain", &many, "us");
        assert_eq!(o.get("explain_p50_us"), Some(100.0));
        assert_eq!(o.get("explain_p90_us"), Some(180.0));
        assert_eq!(o.metrics.last().map(|m| m.n), Some(200));
    }

    #[test]
    fn json_has_exactly_the_named_metrics() {
        let mut o = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        o.add("a", 1.5, "ms", 4);
        o.add("b", 2.0, "s", 3);
        let line = o.json(&[("b", "s")]).expect("measured");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
             \"metrics\": {\"b\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
        assert!(o.json(&[("c", "ms")]).is_err());
        o.check(false, || "x".into());
        assert!(o
            .json(&[])
            .expect("no metrics")
            .starts_with("{\"correct\": false"));
    }
}
