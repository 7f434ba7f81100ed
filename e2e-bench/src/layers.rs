//! Per-layer timing of the search, measured from outside the program.
//!
//! [`TimedOracle`] wraps any [`DelayOracle`] and times every call the
//! greedy searches make into it: `prepare` (extract + factor the
//! committed graph), rank-1 `score`s, and full evaluations (direct
//! `evaluate` calls, plus the from-scratch scores of oracles without an
//! incremental engine, such as transient simulation). It changes no
//! result: the wrapped search commits the same edges and reports
//! bit-identical delays.
//!
//! [`timed_search`] runs one route request's search under the wrapper,
//! then replays extraction and candidate generation over the same graph
//! sequence to time those two sub-steps on their own.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ntr_circuit::{extract, ExtractOptions, Technology};
use ntr_core::{
    h1_with, ldrg_with, Algorithm, CancelToken, Candidate, CandidateGenerator, CandidateOracle,
    DelayOracle, DelayReport, Fidelity, LdrgOptions, LdrgResult, MomentOracle, OracleError,
    OracleStats, ScratchOracle, TransientOracle,
};
use ntr_ert::{elmore_routing_tree, ErtOptions};
use ntr_geom::Net;
use ntr_graph::{prim_mst, RoutingGraph};
use ntr_server::proto::RouteRequest;

/// Call counts and total time per kind of oracle call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleTimes {
    /// `CandidateOracle::prepare` calls.
    pub prepare_count: u64,
    /// Time inside them.
    pub prepare: Duration,
    /// Rank-1 candidate scores.
    pub score_count: u64,
    /// Time inside them.
    pub score: Duration,
    /// Full evaluations: `DelayOracle::evaluate` calls and from-scratch
    /// candidate scores.
    pub eval_count: u64,
    /// Time inside them.
    pub eval: Duration,
}

#[derive(Debug, Default)]
struct Tally {
    count: AtomicU64,
    nanos: AtomicU64,
}

impl Tally {
    fn add(&self, started: Instant) {
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Plain statistics: no other data is published through them.
        self.count.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    fn read(&self) -> (u64, Duration) {
        (
            self.count.load(Ordering::Relaxed),
            Duration::from_nanos(self.nanos.load(Ordering::Relaxed)),
        )
    }
}

/// A [`DelayOracle`] that times every call into the oracle it wraps.
pub struct TimedOracle<'a> {
    inner: &'a dyn DelayOracle,
    prepare: Tally,
    score: Tally,
    eval: Tally,
    /// Every graph `prepare` was called with, in order.
    prepared: Mutex<Vec<RoutingGraph>>,
}

impl<'a> TimedOracle<'a> {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: &'a dyn DelayOracle) -> Self {
        Self {
            inner,
            prepare: Tally::default(),
            score: Tally::default(),
            eval: Tally::default(),
            prepared: Mutex::new(Vec::new()),
        }
    }

    /// The times recorded so far.
    #[must_use]
    pub fn times(&self) -> OracleTimes {
        let (prepare_count, prepare) = self.prepare.read();
        let (score_count, score) = self.score.read();
        let (eval_count, eval) = self.eval.read();
        OracleTimes {
            prepare_count,
            prepare,
            score_count,
            score,
            eval_count,
            eval,
        }
    }

    /// The graphs `prepare` saw, in order.
    #[must_use]
    pub fn prepared_graphs(&self) -> Vec<RoutingGraph> {
        self.prepared
            .lock()
            .expect("prepared-graph log poisoned")
            .clone()
    }
}

impl DelayOracle for TimedOracle<'_> {
    fn evaluate(&self, graph: &RoutingGraph) -> Result<DelayReport, OracleError> {
        let started = Instant::now();
        let report = self.inner.evaluate(graph);
        self.eval.add(started);
        report
    }

    fn incremental(&self) -> Option<Box<dyn CandidateOracle + '_>> {
        // The inner oracle's own engine, or the same from-scratch fallback
        // the searches would have built for it — never one over `self`,
        // whose `evaluate` would count the scores twice.
        let (inner, full_scores): (Box<dyn CandidateOracle + '_>, bool) =
            match self.inner.incremental() {
                Some(engine) => (engine, false),
                None => (Box::new(ScratchOracle::new(self.inner)), true),
            };
        Some(Box::new(TimedCandidates {
            inner,
            full_scores,
            owner: self,
        }))
    }
}

struct TimedCandidates<'s> {
    inner: Box<dyn CandidateOracle + 's>,
    /// Scores are full evaluations (no incremental engine).
    full_scores: bool,
    owner: &'s TimedOracle<'s>,
}

impl CandidateOracle for TimedCandidates<'_> {
    fn prepare(&mut self, graph: &RoutingGraph) -> Result<DelayReport, OracleError> {
        let started = Instant::now();
        let report = self.inner.prepare(graph);
        self.owner.prepare.add(started);
        self.owner
            .prepared
            .lock()
            .expect("prepared-graph log poisoned")
            .push(graph.clone());
        report
    }

    fn score(&self, candidate: &Candidate) -> Result<DelayReport, OracleError> {
        let started = Instant::now();
        let report = self.inner.score(candidate);
        if self.full_scores {
            self.owner.eval.add(started);
        } else {
            self.owner.score.add(started);
        }
        report
    }

    fn stats(&self) -> OracleStats {
        self.inner.stats()
    }
}

/// One route request's search, timed layer by layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchSample {
    /// Wall time of the whole search call.
    pub route: Duration,
    /// Time inside the oracle, by kind of call.
    pub oracle: OracleTimes,
    /// `ntr_circuit::extract` alone, replayed on every prepared graph
    /// (a part of `oracle.prepare`).
    pub extract: Duration,
    /// `CandidateGenerator::generate` alone, replayed on the committed
    /// graph sequence (a part of the search's own work).
    pub generate: Duration,
    /// Candidate edges generated.
    pub generated: u64,
    /// Candidate edges scored.
    pub scored: u64,
    /// Edges committed.
    pub committed: u64,
    /// The search's final delay, ns (the value the reply reports).
    pub delay_ns: f64,
}

impl SearchSample {
    /// Search time outside every oracle call: candidate generation,
    /// selection and bookkeeping.
    #[must_use]
    pub fn other(&self) -> Duration {
        self.route
            .saturating_sub(self.oracle.prepare + self.oracle.score + self.oracle.eval)
    }
}

/// The oracle a fidelity rung uses, and its extraction options.
fn oracle_for(
    fidelity: Fidelity,
    tech: Technology,
) -> Option<(Box<dyn DelayOracle>, ExtractOptions)> {
    Some(match fidelity {
        Fidelity::Moment => {
            let o = MomentOracle::new(tech);
            let opts = o.extract;
            (Box::new(o), opts)
        }
        Fidelity::TransientFast | Fidelity::Transient => {
            let o = if fidelity == Fidelity::Transient {
                TransientOracle::new(tech)
            } else {
                TransientOracle::fast(tech)
            };
            let opts = o.extract;
            (Box::new(o), opts)
        }
        Fidelity::Tree => return None,
    })
}

/// Runs `request`'s search on `net` under a [`TimedOracle`], the way the
/// server's engine runs it for an undegraded request (one sweep thread).
/// Returns `None` for algorithms without a greedy search.
///
/// # Errors
///
/// Returns the search's error as text.
pub fn timed_search(
    request: &RouteRequest,
    net: &Net,
    tech: Technology,
) -> Result<Option<SearchSample>, String> {
    let algorithm = request.algorithm;
    let base = match algorithm {
        Algorithm::Ldrg | Algorithm::H1 => prim_mst(net),
        Algorithm::ErtLdrg => {
            elmore_routing_tree(net, &tech, &ErtOptions::default()).map_err(|e| e.to_string())?
        }
        _ => return Ok(None),
    };
    let Some((oracle, extract_opts)) = oracle_for(request.oracle.fidelity(), tech) else {
        return Ok(None);
    };
    let timed = TimedOracle::new(oracle.as_ref());
    let opts = LdrgOptions {
        max_added_edges: request.max_added_edges,
        parallelism: 1,
        cancel: CancelToken::new(),
        candidates: request.candidates,
        ..LdrgOptions::default()
    };
    let started = Instant::now();
    let result: LdrgResult = if algorithm == Algorithm::H1 {
        h1_with(&base, &timed, &opts)
    } else {
        ldrg_with(&base, &timed, &opts)
    }
    .map_err(|e| e.to_string())?;
    let route = started.elapsed();

    let mut extract_time = Duration::ZERO;
    for graph in timed.prepared_graphs() {
        let t = Instant::now();
        extract(&graph, &tech, &extract_opts).map_err(|e| e.to_string())?;
        extract_time += t.elapsed();
    }

    // H1 scores one fixed candidate per iteration and never generates.
    let mut generate = Duration::ZERO;
    if algorithm != Algorithm::H1 {
        let mut generator = CandidateGenerator::new(request.candidates);
        let mut graph = base.clone();
        for k in 0..=result.iterations.len() {
            if opts.max_added_edges != 0 && k == opts.max_added_edges {
                break;
            }
            let t = Instant::now();
            generator.generate(&graph);
            generate += t.elapsed();
            if let Some(it) = result.iterations.get(k) {
                graph
                    .add_edge(it.added.0, it.added.1)
                    .map_err(|e| e.to_string())?;
            }
        }
    }

    Ok(Some(SearchSample {
        route,
        oracle: timed.times(),
        extract: extract_time,
        generate,
        generated: result.stats.candidates_generated,
        scored: result.stats.candidates_scored,
        committed: result.iterations.len() as u64,
        delay_ns: result.final_delay() * 1e9,
    }))
}
