//! The regression detector: pairs current `BENCH_*.json` artifacts with
//! a committed baseline directory and renders verdicts.
//!
//! A [`Measurement`] is a median with an optional confidence interval.
//! [`classify`] renders the three-way verdict the gate acts on:
//!
//! - **Regressed** — the median grew beyond the threshold *and* the
//!   confidence intervals do not overlap. Both conditions must hold:
//!   the threshold keeps statistically-detectable-but-tiny shifts from
//!   paging anyone, and the CI test keeps noisy runners from tripping
//!   the gate on a within-noise wobble.
//! - **Improved** — the mirror image, for celebratory output.
//! - **Unchanged** — everything else.
//!
//! Measurements without intervals (artifacts recorded without a CI)
//! degrade gracefully to a pure threshold test. Around that rule sit
//! the artifact-level concerns — matching workloads by name, reporting
//! ones that appear on only one side, formatting the human table, and
//! deciding the gate's exit status.

use crate::artifact::Artifact;

/// Default shift threshold (percent) a regression must clear in the
/// `ntr-bench` gate.
pub const DEFAULT_THRESHOLD_PCT: f64 = 5.0;

/// A summarized performance number: central value plus an optional
/// confidence interval around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// The central value (median for bench artifacts).
    pub value: f64,
    /// Confidence interval `(lo, hi)` when the producer computed one.
    pub ci: Option<(f64, f64)>,
}

impl Measurement {
    /// A bare value with no interval (threshold-only comparison).
    #[must_use]
    pub fn point(value: f64) -> Self {
        Self { value, ci: None }
    }

    /// A value with a confidence interval.
    #[must_use]
    pub fn with_ci(value: f64, lo: f64, hi: f64) -> Self {
        Self {
            value,
            ci: Some((lo, hi)),
        }
    }
}

/// Outcome of comparing a current measurement against a baseline, for a
/// metric where **larger is worse** (latency, wall time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Shift within threshold, or not statistically separable.
    Unchanged,
    /// Slower beyond the threshold, confirmed by disjoint intervals.
    Regressed,
    /// Faster beyond the threshold, confirmed by disjoint intervals.
    Improved,
}

impl Verdict {
    /// Short human tag for tables.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "improved",
        }
    }
}

/// Relative shift of `current` from `base`, in percent (positive =
/// grew). Zero when the baseline is zero or either input is not finite.
#[must_use]
pub fn shift_pct(base: f64, current: f64) -> f64 {
    if base == 0.0 || !base.is_finite() || !current.is_finite() {
        return 0.0;
    }
    100.0 * (current - base) / base
}

/// Do two intervals share any point?
#[must_use]
pub fn cis_overlap(a: (f64, f64), b: (f64, f64)) -> bool {
    a.0 <= b.1 && b.0 <= a.1
}

/// Classifies `current` against `base` for a larger-is-worse metric.
///
/// A shift is flagged only when it clears `threshold_pct` *and* the two
/// confidence intervals are disjoint; when either side carries no
/// interval, the threshold alone decides.
#[must_use]
pub fn classify(base: Measurement, current: Measurement, threshold_pct: f64) -> Verdict {
    let shift = shift_pct(base.value, current.value);
    let separable = match (base.ci, current.ci) {
        (Some(b), Some(c)) => !cis_overlap(b, c),
        _ => true,
    };
    if shift > threshold_pct && separable {
        Verdict::Regressed
    } else if shift < -threshold_pct && separable {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

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

    #[test]
    fn shift_is_signed_percent() {
        assert!((shift_pct(100.0, 110.0) - 10.0).abs() < 1e-12);
        assert!((shift_pct(100.0, 95.0) + 5.0).abs() < 1e-12);
        assert_eq!(shift_pct(0.0, 50.0), 0.0);
        assert_eq!(shift_pct(f64::NAN, 50.0), 0.0);
    }

    #[test]
    fn overlap_is_symmetric_and_inclusive() {
        assert!(cis_overlap((0.0, 2.0), (2.0, 3.0)));
        assert!(cis_overlap((2.0, 3.0), (0.0, 2.0)));
        assert!(!cis_overlap((0.0, 1.0), (1.1, 2.0)));
    }

    #[test]
    fn both_threshold_and_ci_must_agree_to_regress() {
        let base = Measurement::with_ci(100.0, 98.0, 102.0);
        // 10% slower, disjoint CIs: regression.
        assert_eq!(
            classify(base, Measurement::with_ci(110.0, 108.0, 112.0), 5.0),
            Verdict::Regressed
        );
        // 10% slower but overlapping CIs (noisy run): unchanged.
        assert_eq!(
            classify(base, Measurement::with_ci(110.0, 101.0, 119.0), 5.0),
            Verdict::Unchanged
        );
        // Statistically separable but only 3% slower: below threshold.
        assert_eq!(
            classify(base, Measurement::with_ci(103.0, 102.9, 103.1), 5.0),
            Verdict::Unchanged
        );
    }

    #[test]
    fn improvements_mirror_regressions() {
        let base = Measurement::with_ci(100.0, 98.0, 102.0);
        assert_eq!(
            classify(base, Measurement::with_ci(80.0, 79.0, 81.0), 5.0),
            Verdict::Improved
        );
    }

    #[test]
    fn point_measurements_fall_back_to_threshold_only() {
        let base = Measurement::point(100.0);
        assert_eq!(
            classify(base, Measurement::point(110.0), 5.0),
            Verdict::Regressed
        );
        assert_eq!(
            classify(base, Measurement::point(104.0), 5.0),
            Verdict::Unchanged
        );
        assert_eq!(
            classify(base, Measurement::point(90.0), 5.0),
            Verdict::Improved
        );
    }
}
