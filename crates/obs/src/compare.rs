//! Statistical comparison of performance measurements: the judgment
//! primitive behind the `ntr-bench` regression gate.
//!
//! A [`Measurement`] is a median with an optional confidence interval.
//! [`classify`] renders the three-way verdict the callers act on:
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
//! degrade gracefully to a pure threshold test.

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

#[cfg(test)]
mod tests {
    use super::*;

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
