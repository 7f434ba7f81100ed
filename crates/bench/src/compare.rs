//! The regression detector: pairs current `BENCH_*.json` artifacts with
//! a committed baseline directory and renders verdicts.
//!
//! The statistical rule lives in [`ntr_obs::compare`]; this module
//! handles the artifact-level concerns — matching workloads by name,
//! reporting ones that appear on only one side, formatting the human
//! table, and deciding the gate's exit status.

use crate::artifact::Artifact;
pub use ntr_obs::compare::DEFAULT_THRESHOLD_PCT;
use ntr_obs::compare::{classify, shift_pct, Measurement, Verdict};

/// One workload's baseline-vs-current judgment.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// Baseline median, ns.
    pub base_median_ns: f64,
    /// Current median, ns.
    pub current_median_ns: f64,
    /// Median shift in percent (positive = slower).
    pub shift_pct: f64,
    /// The verdict under the threshold + CI-overlap rule.
    pub verdict: Verdict,
}

/// Result of comparing two artifact sets.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Per-workload verdicts for workloads present on both sides.
    pub comparisons: Vec<Comparison>,
    /// Workloads only in the baseline (removed or not run).
    pub baseline_only: Vec<String>,
    /// Workloads only in the current run (new, no baseline yet).
    pub current_only: Vec<String>,
}

impl Report {
    /// Workloads judged regressed.
    #[must_use]
    pub fn regressions(&self) -> Vec<&Comparison> {
        self.comparisons
            .iter()
            .filter(|c| c.verdict == Verdict::Regressed)
            .collect()
    }

    /// Whether the gate should fail (any regression).
    #[must_use]
    pub fn gate_fails(&self) -> bool {
        !self.regressions().is_empty()
    }
}

fn measurement(a: &Artifact) -> Measurement {
    match a.ci95_ns {
        Some((lo, hi)) => Measurement::with_ci(a.median_ns, lo, hi),
        None => Measurement::point(a.median_ns),
    }
}

/// Compares current artifacts against a baseline set at
/// `threshold_pct`. Matching is by workload name; order follows the
/// current set.
#[must_use]
pub fn compare(baseline: &[Artifact], current: &[Artifact], threshold_pct: f64) -> Report {
    let mut report = Report::default();
    for cur in current {
        match baseline.iter().find(|b| b.workload == cur.workload) {
            Some(base) => report.comparisons.push(Comparison {
                workload: cur.workload.clone(),
                base_median_ns: base.median_ns,
                current_median_ns: cur.median_ns,
                shift_pct: shift_pct(base.median_ns, cur.median_ns),
                verdict: classify(measurement(base), measurement(cur), threshold_pct),
            }),
            None => report.current_only.push(cur.workload.clone()),
        }
    }
    for base in baseline {
        if !current.iter().any(|c| c.workload == base.workload) {
            report.baseline_only.push(base.workload.clone());
        }
    }
    report
}

/// Human-readable comparison table, one workload per row.
#[must_use]
pub fn report_table(report: &Report, threshold_pct: f64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>14} {:>14} {:>8}  verdict (threshold {threshold_pct}%)\n",
        "workload", "base median", "current", "shift"
    ));
    for c in &report.comparisons {
        out.push_str(&format!(
            "{:<20} {:>12.0}ns {:>12.0}ns {:>+7.1}%  {}\n",
            c.workload,
            c.base_median_ns,
            c.current_median_ns,
            c.shift_pct,
            c.verdict.as_str()
        ));
    }
    for name in &report.current_only {
        out.push_str(&format!("{name:<20} (no baseline — new workload)\n"));
    }
    for name in &report.baseline_only {
        out.push_str(&format!("{name:<20} (baseline only — not run)\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(name: &str, median: f64, half_width: f64) -> Artifact {
        Artifact {
            workload: name.to_owned(),
            median_ns: median,
            mad_ns: half_width,
            ci95_ns: Some((median - half_width, median + half_width)),
            git_hash: "test".to_owned(),
        }
    }

    #[test]
    fn regression_and_mismatches_are_reported() {
        let baseline = vec![
            artifact("fast", 100.0, 1.0),
            artifact("slow", 1000.0, 5.0),
            artifact("removed", 10.0, 1.0),
        ];
        let current = vec![
            artifact("fast", 101.0, 1.0),  // +1%: unchanged
            artifact("slow", 1200.0, 5.0), // +20%, disjoint CI: regressed
            artifact("brand_new", 7.0, 1.0),
        ];
        let report = compare(&baseline, &current, DEFAULT_THRESHOLD_PCT);
        assert_eq!(report.comparisons.len(), 2);
        assert_eq!(report.comparisons[0].verdict, Verdict::Unchanged);
        assert_eq!(report.comparisons[1].verdict, Verdict::Regressed);
        assert!((report.comparisons[1].shift_pct - 20.0).abs() < 1e-9);
        assert_eq!(report.current_only, vec!["brand_new".to_owned()]);
        assert_eq!(report.baseline_only, vec!["removed".to_owned()]);
        assert!(report.gate_fails());
        assert_eq!(report.regressions().len(), 1);

        let table = report_table(&report, DEFAULT_THRESHOLD_PCT);
        assert!(table.contains("REGRESSED"), "{table}");
        assert!(table.contains("brand_new"), "{table}");
        assert!(table.contains("removed"), "{table}");
    }

    #[test]
    fn identical_sets_pass_the_gate() {
        let set = vec![artifact("a", 50.0, 1.0), artifact("b", 75.0, 2.0)];
        let report = compare(&set, &set, DEFAULT_THRESHOLD_PCT);
        assert!(!report.gate_fails());
        assert!(report
            .comparisons
            .iter()
            .all(|c| c.verdict == Verdict::Unchanged));
    }
}
