//! Op accounting, percentiles and the result line.

use std::time::Duration;

/// Ops attempted and failed, with the latency of every op that succeeded
/// and the values it completed.
#[derive(Debug, Default)]
pub struct OpLog {
    ok_ms: Vec<f64>,
    failed: u64,
    values: u64,
    busy: Duration,
}

impl OpLog {
    /// Records one op. A failed op adds to `failed` only: its time and
    /// values are not samples, and it ranks above every sample when a
    /// percentile is taken.
    pub fn record(&mut self, took: Duration, ok: bool, values: u64) {
        if ok {
            self.ok_ms.push(took.as_secs_f64() * 1e3);
            self.values += values;
            self.busy += took;
        } else {
            self.failed += 1;
        }
    }

    /// Adds `other`'s ops to this log.
    pub fn absorb(&mut self, other: &OpLog) {
        self.ok_ms.extend_from_slice(&other.ok_ms);
        self.failed += other.failed;
        self.values += other.values;
        self.busy += other.busy;
    }

    pub fn attempted(&self) -> u64 {
        self.ok_ms.len() as u64 + self.failed
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    #[cfg(test)]
    pub fn samples(&self) -> &[f64] {
        &self.ok_ms
    }

    #[cfg(test)]
    pub fn values(&self) -> u64 {
        self.values
    }

    pub fn busy(&self) -> Duration {
        self.busy
    }

    /// Values completed per timed second, in millions.
    pub fn mvals_per_s(&self) -> f64 {
        self.values as f64 / self.busy.as_secs_f64().max(1e-12) / 1e6
    }

    /// The `q` quantile of latency in ms; see [`percentile`].
    pub fn percentile_ms(&self, q: f64) -> Option<f64> {
        percentile(&self.ok_ms, self.failed, q)
    }
}

/// Nearest-rank `q` quantile of `samples` plus `failed` ops that rank
/// above every sample (a failed op misses any latency limit). Returns
/// `None` unless at least ten ops lie beyond the quantile, and infinity
/// when the quantile lands on a failed op.
pub fn percentile(samples: &[f64], failed: u64, q: f64) -> Option<f64> {
    let n = samples.len() + failed as usize;
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + 10 {
        return None;
    }
    if rank > samples.len() {
        return Some(f64::INFINITY);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Whether `name` is a valid metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result a run prints: the op counts, whether every output was
/// correct, the digest of the work it replayed, and named metrics with
/// units.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks_passed: bool,
    pub inputs_digest: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "bad metric name {name:?}");
        assert!(
            self.metrics.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.metrics.push((name, value, unit));
    }

    pub fn count(&mut self, log: &OpLog) {
        self.attempted += log.attempted();
        self.failed += log.failed();
    }

    pub fn correct(&self) -> bool {
        self.checks_passed && self.failed == 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// What a run prints: one `name value unit` line per metric, the
    /// inputs digest, then the JSON object as the last line.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| format!("{name:<40} {value:>16.6} {unit}"))
            .collect();
        out.push(format!(
            "{:<40} {:>16x}",
            "inputs_digest", self.inputs_digest
        ));
        out.push(self.json());
        out
    }

    /// The one-line JSON object; non-finite values print as `null`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        // p50 of 100: rank 50, fifty beyond it.
        assert_eq!(percentile(&samples, 0, 0.50), Some(50.0));
        // p90 of 100: rank 90, exactly ten beyond it.
        assert_eq!(percentile(&samples, 0, 0.90), Some(90.0));
        // p99 of 100: rank 99, one beyond it.
        assert_eq!(percentile(&samples, 0, 0.99), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&many, 0, 0.99), Some(990.0));
        assert_eq!(percentile(&many[..999], 0, 0.99), None);
        assert_eq!(percentile(&[], 0, 0.5), None);
    }

    #[test]
    fn failed_ops_rank_above_every_sample() {
        let samples: Vec<f64> = (1..=990).map(f64::from).collect();
        // 990 samples + 10 failures: p99 is rank 990, still a sample.
        assert_eq!(percentile(&samples, 10, 0.99), Some(990.0));
        // 989 samples + 11 failures: rank 990 is a failure.
        assert_eq!(percentile(&samples[..989], 11, 0.99), Some(f64::INFINITY));
    }

    #[test]
    fn forced_failure_is_counted_and_not_sampled() {
        let mut log = OpLog::default();
        log.record(Duration::from_millis(2), true, 100);
        log.record(Duration::from_secs(5), false, 100);
        log.record(Duration::from_millis(4), true, 100);
        assert_eq!(log.attempted(), 3);
        assert_eq!(log.failed(), 1);
        assert_eq!(log.samples(), &[2.0, 4.0]);
        assert_eq!(log.values(), 200);
        assert_eq!(log.busy(), Duration::from_millis(6));
    }

    #[test]
    fn metric_names_are_checked() {
        for good in [
            "p50_ms",
            "serve.handle_p50_ms",
            "scheme.dpred.bits_per_value",
            "a-b",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".x", "has space", "slash/no", "ü", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn report_json_is_one_line() {
        let mut r = Report {
            checks_passed: true,
            ..Report::default()
        };
        r.add("p50_ms", 1.25, "ms");
        r.attempted = 3;
        let j = r.json();
        assert!(!j.contains('\n'));
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.failed = 1;
        assert!(!r.correct());
    }

    #[test]
    fn every_run_prints_its_inputs_digest() {
        let r = Report {
            inputs_digest: 0xabc,
            ..Report::default()
        };
        let lines = r.lines();
        assert!(lines
            .iter()
            .any(|l| l.starts_with("inputs_digest") && l.ends_with(" abc")));
        assert_eq!(lines.last(), Some(&r.json()));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
