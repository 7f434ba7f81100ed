//! Deterministic fault injection for exercising retry and degradation.
//!
//! Resilience code that only runs during real incidents is untested code.
//! A [`FaultPlan`] makes the failure paths first-class: it injects
//! transient oracle errors, artificial slowdowns, and worker stalls on a
//! deterministic, seedable schedule, so chaos tests in CI can drive the
//! exact scenarios the retry/backoff and fidelity-degradation machinery
//! exists for.
//!
//! # Plan grammar
//!
//! A plan is a semicolon-separated list of clauses (whitespace around
//! clauses is ignored):
//!
//! ```text
//! seed=U64                    deterministic decision stream (default 0)
//! fail=SCOPE:PROB             oracle evaluations in SCOPE fail with
//!                             probability PROB (an InjectedFault)
//! slow=SCOPE:PROB:MILLIS      oracle evaluations in SCOPE sleep MILLIS
//!                             first with probability PROB
//! stall=PROB:MILLIS           a worker sleeps MILLIS before starting a
//!                             job with probability PROB
//! ```
//!
//! `SCOPE` is a fidelity wire name (`transient`, `transient-fast`,
//! `moment`, `tree`) or `any`; the bare `transient` scope matches both
//! transient rungs. Example — every transient evaluation fails, 5% of
//! jobs stall 2 ms:
//!
//! ```text
//! seed=1994;fail=transient:1.0;stall=0.05:2
//! ```
//!
//! Decisions are drawn from a SplitMix64 stream indexed by a global
//! injection sequence counter, so a plan's behavior depends only on its
//! seed and the order of asks — not on wall-clock time or thread ids.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ntr_graph::RoutingGraph;

use crate::fidelity::Fidelity;
use crate::retry::{splitmix64, unit_f64};
use crate::sweep::{Candidate, CandidateOracle, OracleStats};
use crate::{DelayOracle, DelayReport, OracleError};

/// The error carried by [`OracleError::Injected`]: a fault that exists
/// only because a [`FaultPlan`] said so. Always transient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// 1-based ordinal of this injection within its plan.
    pub seq: u64,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected transient fault #{} (fault plan)", self.seq)
    }
}

impl Error for InjectedFault {}

/// Which fidelity rungs a fault clause applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScope {
    /// Every rung.
    Any,
    /// Both transient rungs ([`Fidelity::Transient`] and
    /// [`Fidelity::TransientFast`]).
    Transient,
    /// Only the fast transient rung.
    TransientFast,
    /// The moment rung.
    Moment,
    /// The tree floor.
    Tree,
}

impl FaultScope {
    fn parse(s: &str) -> Result<FaultScope, String> {
        match s {
            "any" | "*" => Ok(FaultScope::Any),
            "transient" => Ok(FaultScope::Transient),
            "transient-fast" => Ok(FaultScope::TransientFast),
            "moment" => Ok(FaultScope::Moment),
            "tree" => Ok(FaultScope::Tree),
            other => Err(format!(
                "unknown fault scope {other:?} (expected any, transient, transient-fast, moment, or tree)"
            )),
        }
    }

    /// Whether a clause with this scope applies at `fidelity`.
    #[must_use]
    pub fn matches(self, fidelity: Fidelity) -> bool {
        match self {
            FaultScope::Any => true,
            FaultScope::Transient => {
                matches!(fidelity, Fidelity::Transient | Fidelity::TransientFast)
            }
            FaultScope::TransientFast => fidelity == Fidelity::TransientFast,
            FaultScope::Moment => fidelity == Fidelity::Moment,
            FaultScope::Tree => fidelity == Fidelity::Tree,
        }
    }
}

/// A parsed, seedable fault schedule. See the module docs of `faults.rs`
/// for the grammar. Shared behind an [`Arc`]; all state is atomic.
#[derive(Debug)]
pub struct FaultPlan {
    source: String,
    seed: u64,
    fail: Vec<(FaultScope, f64)>,
    slow: Vec<(FaultScope, f64, Duration)>,
    stall: Option<(f64, Duration)>,
    /// Decisions drawn so far (indexes the SplitMix64 stream).
    sequence: AtomicU64,
    /// Faults actually fired (failures, slowdowns, and stalls).
    injected: AtomicU64,
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.source)
    }
}

fn parse_prob(s: &str, clause: &str) -> Result<f64, String> {
    let p: f64 = s
        .parse()
        .map_err(|_| format!("bad probability {s:?} in fault clause {clause:?}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!(
            "probability {p} out of [0, 1] in fault clause {clause:?}"
        ));
    }
    Ok(p)
}

fn parse_millis(s: &str, clause: &str) -> Result<Duration, String> {
    let ms: u64 = s
        .parse()
        .map_err(|_| format!("bad millisecond count {s:?} in fault clause {clause:?}"))?;
    Ok(Duration::from_millis(ms))
}

impl FaultPlan {
    /// Parses a plan from the grammar in the module docs of `faults.rs`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed clause.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan {
            source: text.trim().to_owned(),
            seed: 0,
            fail: Vec::new(),
            slow: Vec::new(),
            stall: None,
            sequence: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        };
        for clause in text.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (key, rest) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault clause {clause:?} has no '='"))?;
            match key.trim() {
                "seed" => {
                    plan.seed = rest
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad seed {rest:?}"))?;
                }
                "fail" => {
                    let (scope, prob) = rest
                        .split_once(':')
                        .ok_or_else(|| format!("fail clause {clause:?} needs SCOPE:PROB"))?;
                    plan.fail
                        .push((FaultScope::parse(scope.trim())?, parse_prob(prob, clause)?));
                }
                "slow" => {
                    let mut parts = rest.splitn(3, ':');
                    let scope = parts
                        .next()
                        .ok_or_else(|| format!("slow clause {clause:?} needs SCOPE:PROB:MILLIS"))?;
                    let (prob, ms) = match (parts.next(), parts.next()) {
                        (Some(p), Some(m)) => (p, m),
                        _ => return Err(format!("slow clause {clause:?} needs SCOPE:PROB:MILLIS")),
                    };
                    plan.slow.push((
                        FaultScope::parse(scope.trim())?,
                        parse_prob(prob, clause)?,
                        parse_millis(ms, clause)?,
                    ));
                }
                "stall" => {
                    let (prob, ms) = rest
                        .split_once(':')
                        .ok_or_else(|| format!("stall clause {clause:?} needs PROB:MILLIS"))?;
                    plan.stall = Some((parse_prob(prob, clause)?, parse_millis(ms, clause)?));
                }
                other => return Err(format!("unknown fault clause key {other:?}")),
            }
        }
        Ok(plan)
    }

    /// The plan's original text (round-trips through [`FaultPlan::parse`]).
    #[must_use]
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Whether the plan has no active clauses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fail.is_empty() && self.slow.is_empty() && self.stall.is_none()
    }

    /// Faults fired so far (failures + slowdowns + stalls).
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Draws the next decision from the deterministic stream.
    fn draw(&self) -> f64 {
        let n = self.sequence.fetch_add(1, Ordering::Relaxed);
        let mut state = self.seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        unit_f64(splitmix64(&mut state))
    }

    fn fire(&self) -> u64 {
        self.injected.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Whether the next oracle evaluation at `fidelity` should fail.
    #[must_use]
    pub fn oracle_fault(&self, fidelity: Fidelity) -> Option<InjectedFault> {
        for &(scope, prob) in &self.fail {
            if scope.matches(fidelity) && self.draw() < prob {
                return Some(InjectedFault { seq: self.fire() });
            }
        }
        None
    }

    /// How long the next oracle evaluation at `fidelity` should sleep
    /// before running, if a slow clause fires.
    #[must_use]
    pub fn oracle_slowdown(&self, fidelity: Fidelity) -> Option<Duration> {
        for &(scope, prob, pause) in &self.slow {
            if scope.matches(fidelity) && self.draw() < prob {
                self.fire();
                return Some(pause);
            }
        }
        None
    }

    /// How long a worker should stall before starting its next job, if
    /// the stall clause fires.
    #[must_use]
    pub fn worker_stall(&self) -> Option<Duration> {
        let &(prob, pause) = self.stall.as_ref()?;
        if self.draw() < prob {
            self.fire();
            Some(pause)
        } else {
            None
        }
    }

    /// Runs the pre-evaluation schedule for one oracle call: sleeps if a
    /// slow clause fires (recorded as a `fault.slow` span), then fails if
    /// a fail clause fires (recorded as a `fault.injected` span).
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::Injected`] when a fail clause fires.
    pub fn before_evaluate(&self, fidelity: Fidelity) -> Result<(), OracleError> {
        if let Some(pause) = self.oracle_slowdown(fidelity) {
            let _span = ntr_obs::span("fault.slow");
            std::thread::sleep(pause);
        }
        if let Some(fault) = self.oracle_fault(fidelity) {
            let _span = ntr_obs::span("fault.injected");
            return Err(fault.into());
        }
        Ok(())
    }
}

/// A [`DelayOracle`] decorator that runs a [`FaultPlan`] before every
/// evaluation, and forwards the inner oracle's incremental engine (also
/// fault-wrapped) so moment-oracle sweeps keep their rank-1 path.
pub struct FaultingOracle<'a> {
    inner: &'a dyn DelayOracle,
    plan: Arc<FaultPlan>,
    fidelity: Fidelity,
}

impl fmt::Debug for FaultingOracle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultingOracle")
            .field("plan", &self.plan)
            .field("fidelity", &self.fidelity)
            .finish_non_exhaustive()
    }
}

impl<'a> FaultingOracle<'a> {
    /// Wraps `inner` so `plan` screens every evaluation, attributed to
    /// `fidelity` for scope matching.
    #[must_use]
    pub fn new(inner: &'a dyn DelayOracle, plan: Arc<FaultPlan>, fidelity: Fidelity) -> Self {
        Self {
            inner,
            plan,
            fidelity,
        }
    }
}

impl DelayOracle for FaultingOracle<'_> {
    fn evaluate(&self, graph: &RoutingGraph) -> Result<DelayReport, OracleError> {
        self.plan.before_evaluate(self.fidelity)?;
        self.inner.evaluate(graph)
    }

    fn incremental(&self) -> Option<Box<dyn CandidateOracle + '_>> {
        let engine = self.inner.incremental()?;
        Some(Box::new(FaultingCandidateOracle {
            engine,
            plan: Arc::clone(&self.plan),
            fidelity: self.fidelity,
        }))
    }
}

/// The candidate-engine counterpart of [`FaultingOracle`]: screens every
/// `prepare` and `score` through the plan.
struct FaultingCandidateOracle<'a> {
    engine: Box<dyn CandidateOracle + 'a>,
    plan: Arc<FaultPlan>,
    fidelity: Fidelity,
}

impl CandidateOracle for FaultingCandidateOracle<'_> {
    fn prepare(&mut self, graph: &RoutingGraph) -> Result<DelayReport, OracleError> {
        self.plan.before_evaluate(self.fidelity)?;
        self.engine.prepare(graph)
    }

    fn score(&self, candidate: &Candidate) -> Result<DelayReport, OracleError> {
        self.plan.before_evaluate(self.fidelity)?;
        self.engine.score(candidate)
    }

    fn stats(&self) -> OracleStats {
        self.engine.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MomentOracle;
    use ntr_circuit::Technology;
    use ntr_geom::{Layout, NetGenerator};
    use ntr_graph::prim_mst;

    #[test]
    fn grammar_round_trips_and_rejects_junk() {
        let p =
            FaultPlan::parse("seed=7; fail=transient:1.0; slow=moment:0.5:3; stall=0.1:2").unwrap();
        assert!(!p.is_empty());
        assert_eq!(
            FaultPlan::parse(&p.to_string()).unwrap().source(),
            p.source()
        );
        assert!(FaultPlan::parse("fail=transient").is_err());
        assert!(FaultPlan::parse("fail=warp:1.0").is_err());
        assert!(FaultPlan::parse("fail=moment:1.5").is_err());
        assert!(FaultPlan::parse("slow=any:0.5").is_err());
        assert!(FaultPlan::parse("frobnicate=1").is_err());
        assert!(FaultPlan::parse("stall").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn certain_failure_always_fires_and_counts() {
        let p = FaultPlan::parse("fail=any:1.0").unwrap();
        for i in 1..=5 {
            let fault = p.oracle_fault(Fidelity::Moment).unwrap();
            assert_eq!(fault.seq, i);
        }
        assert_eq!(p.injected(), 5);
    }

    #[test]
    fn zero_probability_never_fires() {
        let p = FaultPlan::parse("fail=any:0.0; stall=0.0:10").unwrap();
        for _ in 0..100 {
            assert!(p.oracle_fault(Fidelity::Tree).is_none());
            assert!(p.worker_stall().is_none());
        }
        assert_eq!(p.injected(), 0);
    }

    #[test]
    fn scopes_select_rungs() {
        let p = FaultPlan::parse("fail=transient:1.0").unwrap();
        assert!(p.oracle_fault(Fidelity::Transient).is_some());
        assert!(p.oracle_fault(Fidelity::TransientFast).is_some());
        assert!(p.oracle_fault(Fidelity::Moment).is_none());
        assert!(p.oracle_fault(Fidelity::Tree).is_none());
        let fast_only = FaultPlan::parse("fail=transient-fast:1.0").unwrap();
        assert!(fast_only.oracle_fault(Fidelity::Transient).is_none());
        assert!(fast_only.oracle_fault(Fidelity::TransientFast).is_some());
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let draws = |seed: u64| {
            let p = FaultPlan::parse(&format!("seed={seed};fail=any:0.5")).unwrap();
            (0..64)
                .map(|_| p.oracle_fault(Fidelity::Moment).is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(11), draws(11));
        assert_ne!(draws(11), draws(12));
        // A half-probability clause actually fires about half the time.
        let fired = draws(11).iter().filter(|&&b| b).count();
        assert!((16..=48).contains(&fired), "{fired}/64 fired");
    }

    #[test]
    fn faulting_oracle_injects_and_classifies_transient() {
        let net = NetGenerator::new(Layout::date94(), 3)
            .random_net(6)
            .unwrap();
        let mst = prim_mst(&net);
        let tech = Technology::date94();
        let inner = MomentOracle::new(tech);
        let plan = Arc::new(FaultPlan::parse("fail=moment:1.0").unwrap());
        let faulty = FaultingOracle::new(&inner, Arc::clone(&plan), Fidelity::Moment);
        let err = faulty.evaluate(&mst).unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert!(matches!(err, OracleError::Injected(_)));
        // Out-of-scope plan passes evaluations through untouched.
        let benign = Arc::new(FaultPlan::parse("fail=transient:1.0").unwrap());
        let clean = FaultingOracle::new(&inner, benign, Fidelity::Moment);
        assert_eq!(
            clean.evaluate(&mst).unwrap().per_sink(),
            inner.evaluate(&mst).unwrap().per_sink()
        );
    }

    #[test]
    fn faulting_oracle_forwards_the_incremental_engine() {
        let tech = Technology::date94();
        let inner = MomentOracle::new(tech);
        let plan = Arc::new(FaultPlan::parse("fail=tree:1.0").unwrap());
        let faulty = FaultingOracle::new(&inner, plan, Fidelity::Moment);
        assert!(
            faulty.incremental().is_some(),
            "moment rank-1 engine lost through the fault wrapper"
        );
    }
}
