//! Result plumbing shared by the workloads: metrics with units, order
//! statistics, process memory, the build stamp and the result line.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations (checks, launches, requests) attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, timed out or gave the wrong
    /// verdict.
    pub failed: u64,
    /// Every metric of the run, end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// Counts that depend only on the inputs, so they must repeat exactly
    /// for a seed: warp-instructions, records, instrumented fraction (in
    /// parts per million) and races.
    pub counts: Vec<(&'static str, u64)>,
    /// Human-readable notes printed above the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records one operation's outcome.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Share of attempted operations that failed (0 when none were tried).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Median of `v` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `v`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The median of each group's median: a typical-latency figure that a host
/// hiccup during a few groups does not move. Groups are units of the same
/// work (passes, rounds) or consecutive time windows.
///
/// # Panics
///
/// Panics when there is no group or a group is empty.
pub fn median_of_medians(groups: &[Vec<f64>]) -> f64 {
    median(&groups.iter().map(|g| median(g)).collect::<Vec<_>>())
}

/// Arithmetic mean (0 for no samples).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Largest of `v` (0 when empty).
pub fn max_of(v: impl Iterator<Item = u64>) -> u64 {
    v.max().unwrap_or(0)
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The provenance every result is stamped with; `nproc` is the CPU count
/// the process had when it started.
pub fn stamp(workload: &str, seed: u64, trace: bool, scale: &str, nproc: usize) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \"scale\": \"{scale}\", \
         \"nproc\": {nproc}, \"commit\": \"{}\", \"source_hash\": \"{}\", \"rustc\": \"{}\", \
         \"profile\": \"{}\"}}",
        env!("PERFBENCH_COMMIT"),
        env!("PERFBENCH_SOURCE_HASH"),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    )
}

/// Formats a float for JSON with all its digits (non-finite values become
/// 0, which JSON cannot otherwise carry).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`, restricted to the metric names in `names`.
pub fn result_line(correct: bool, outcome: &Outcome, names: &[&str]) -> String {
    let mut m = String::new();
    for (i, name) in names.iter().enumerate() {
        let metric = outcome
            .metrics
            .iter()
            .find(|x| x.name == *name)
            .unwrap_or_else(|| panic!("workload did not report metric {name}"));
        if i > 0 {
            m.push_str(", ");
        }
        let _ = write!(
            m,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name,
            num(metric.value),
            metric.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        outcome.attempted, outcome.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.tally(true);
        o.push("wall_s", 1.25, "s");
        o.push("other", 2.0, "s");
        let line = result_line(true, &o, &["wall_s"]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
