//! The shared candidate-evaluation engine.
//!
//! Every greedy loop in this crate — [`ldrg_with`](crate::ldrg_with),
//! [`h1_with`](crate::h1_with) and [`wire_size`](crate::wire_size) — has
//! the same inner shape: take the
//! committed routing, enumerate trial modifications, score each one, and
//! keep the best. This module factors that shape into one kernel:
//!
//! - [`Candidate`] — a trial modification (add an edge, widen a wire),
//! - [`CandidateOracle`] — a scorer that is **prepared once** per
//!   committed routing and then evaluates candidates against that
//!   prepared state,
//! - [`sweep_candidates`] — the kernel: scores a candidate list, fanning
//!   the work across the persistent [`WorkerPool`](crate::WorkerPool)
//!   (no per-sweep thread spawning; pool threads keep their thread-local
//!   numeric workspaces warm across sweeps),
//! - [`OracleStats`] — evaluation/factorization/rank-1 counters so the
//!   search cost is observable on results.
//!
//! Two oracle implementations exist. [`ScratchOracle`] is the blanket
//! fallback that works for *any* [`DelayOracle`]: it clones the graph,
//! applies the candidate, and re-evaluates from scratch — `O(n^{1.5})`
//! sparse work per candidate. [`IncrementalMomentOracle`] (reached via
//! [`DelayOracle::incremental`] on a [`MomentOracle`]) extracts and
//! factors the committed routing **once** in `prepare`. It then scores
//! each trial edge by a Sherman–Morrison rank-1 update of the cached
//! factorization, read off a per-iteration endpoint-column table: each
//! graph node's `order + 1` response columns are solved once, on first
//! use, and each candidate then costs `O(sinks)` scalar work, with no
//! triangular solve, no re-extraction and no refactorization.
//!
//! Determinism: [`sweep_candidates`] returns scores *indexed by
//! candidate*, so selection (`best_below`) is independent of thread
//! scheduling — the parallel sweep commits exactly the edge sequence the
//! serial sweep commits.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ntr_circuit::{extract, Extracted};
use ntr_graph::{EdgeId, NodeId, RoutingGraph};
use ntr_sparse::SolveError;
use ntr_spice::{EndpointTable, MomentEngine, Moments, ProbeView, SimError};

use crate::{
    CancelToken, DelayOracle, DelayReport, MomentMetric, MomentOracle, Objective, OracleError,
};

/// One trial modification of the committed routing graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Candidate {
    /// Add a unit-width wire between two nodes (the LDRG/H1 move).
    AddEdge(NodeId, NodeId),
    /// Set an existing edge's width multiplier (the WSORG move).
    SetWidth(EdgeId, f64),
}

/// Search-cost counters accumulated by a [`CandidateOracle`].
///
/// `wall_nanos` covers the time spent inside `prepare` and `score` only
/// (candidate enumeration and selection are excluded); under a parallel
/// sweep it is summed across workers, so it can exceed elapsed time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleStats {
    /// Delay-report computations: one per `prepare` plus one per `score`.
    pub evaluations: u64,
    /// From-scratch or same-pattern matrix factorizations performed.
    pub factorizations: u64,
    /// Candidates scored through a rank-1 (Sherman–Morrison) update of a
    /// cached factorization instead of a fresh one.
    pub rank1_solves: u64,
    /// Candidates emitted by the generator across all iterations.
    pub candidates_generated: u64,
    /// Candidates actually scored by an oracle sweep.
    pub candidates_scored: u64,
    /// Candidates in the exhaustive universe that pruning skipped (zero
    /// under [`CandidateGen::Exhaustive`](crate::CandidateGen)).
    pub candidates_pruned: u64,
    /// Nanoseconds spent inside `prepare`/`score`.
    pub wall_nanos: u64,
}

impl OracleStats {
    /// The accumulated oracle time as a [`Duration`].
    #[must_use]
    pub fn wall(&self) -> Duration {
        Duration::from_nanos(self.wall_nanos)
    }

    /// Field-wise sum of two counters (e.g. oracle + candidate generator).
    #[must_use]
    pub fn merged(self, other: OracleStats) -> OracleStats {
        OracleStats {
            evaluations: self.evaluations + other.evaluations,
            factorizations: self.factorizations + other.factorizations,
            rank1_solves: self.rank1_solves + other.rank1_solves,
            candidates_generated: self.candidates_generated + other.candidates_generated,
            candidates_scored: self.candidates_scored + other.candidates_scored,
            candidates_pruned: self.candidates_pruned + other.candidates_pruned,
            wall_nanos: self.wall_nanos + other.wall_nanos,
        }
    }
}

/// One-line human-readable form:
/// `"184 evaluations, 4 factorizations, 180 rank-1 solves, 180 candidates
/// (180 scored, 0 pruned), 2.173 ms"`.
impl std::fmt::Display for OracleStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} evaluations, {} factorizations, {} rank-1 solves, \
             {} candidates ({} scored, {} pruned), {:.3} ms",
            self.evaluations,
            self.factorizations,
            self.rank1_solves,
            self.candidates_generated,
            self.candidates_scored,
            self.candidates_pruned,
            self.wall().as_secs_f64() * 1e3,
        )
    }
}

/// Interior-mutable counters shared across sweep workers via `&self`.
#[derive(Debug, Default)]
struct SharedStats {
    evaluations: AtomicU64,
    factorizations: AtomicU64,
    rank1_solves: AtomicU64,
    wall_nanos: AtomicU64,
}

impl SharedStats {
    fn snapshot(&self) -> OracleStats {
        OracleStats {
            evaluations: self.evaluations.load(Ordering::Relaxed),
            factorizations: self.factorizations.load(Ordering::Relaxed),
            rank1_solves: self.rank1_solves.load(Ordering::Relaxed),
            wall_nanos: self.wall_nanos.load(Ordering::Relaxed),
            ..OracleStats::default()
        }
    }

    fn record(&self, start: Instant, factorizations: u64, rank1: u64) {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        self.factorizations
            .fetch_add(factorizations, Ordering::Relaxed);
        self.rank1_solves.fetch_add(rank1, Ordering::Relaxed);
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.wall_nanos.fetch_add(nanos, Ordering::Relaxed);
    }
}

/// A candidate scorer bound to one committed routing.
///
/// The contract is *prepare once, score many*: `prepare` is called with
/// the committed graph at the start of every greedy iteration (and after
/// every commit), `score` is then called for each trial candidate —
/// possibly concurrently from several threads, hence the [`Sync`] bound
/// and the `&self` receiver.
pub trait CandidateOracle: Sync {
    /// Binds the oracle to `graph` (extraction, factorization, …) and
    /// returns the committed graph's own delay report.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError`] when the committed graph cannot be
    /// evaluated.
    fn prepare(&mut self, graph: &RoutingGraph) -> Result<DelayReport, OracleError>;

    /// Scores one trial candidate against the prepared graph.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError`] when the modified graph cannot be
    /// evaluated.
    ///
    /// # Panics
    ///
    /// May panic if called before [`CandidateOracle::prepare`].
    fn score(&self, candidate: &Candidate) -> Result<DelayReport, OracleError>;

    /// Snapshot of the counters accumulated so far.
    fn stats(&self) -> OracleStats;
}

/// The incremental engine for `oracle` if it has one, else the
/// [`ScratchOracle`] fallback.
#[must_use]
pub fn candidate_oracle_for(oracle: &dyn DelayOracle) -> Box<dyn CandidateOracle + '_> {
    oracle
        .incremental()
        .unwrap_or_else(|| Box::new(ScratchOracle::new(oracle)))
}

/// Smallest candidate chunk worth shipping to another thread: below this,
/// cross-thread hand-off overhead beats the scoring work itself for the
/// small nets this crate routes.
const MIN_CANDIDATES_PER_WORKER: usize = 4;

/// Scores every candidate with `oracle`, fanning the work across the
/// persistent [`WorkerPool`](crate::WorkerPool) (`parallelism = 0` uses
/// every available core — the pool plus the calling thread, which scores
/// the first chunk itself; `n` caps the worker count at `n`).
///
/// Chunking adapts to both the pool size and the sweep size: the list is
/// split evenly over at most `parallelism` workers, but never into chunks
/// smaller than `MIN_CANDIDATES_PER_WORKER` — a sweep over a handful of
/// candidates stays serial instead of paying thread hand-off latency.
///
/// Returns one objective score per candidate, **in candidate order** —
/// thread scheduling cannot influence which candidate a caller selects,
/// so parallel and serial sweeps commit identical edge sequences. When
/// several candidates fail, the error of the earliest one is returned.
///
/// `cancel` is checked once per candidate (on every worker): a tripped
/// token aborts the sweep with [`OracleError::Cancelled`] within one
/// candidate-scoring latency. Pass `None` for an uncancellable sweep.
///
/// # Errors
///
/// Propagates the first (lowest-index) scoring failure, or
/// [`OracleError::Cancelled`] when `cancel` trips mid-sweep.
pub fn sweep_candidates(
    oracle: &dyn CandidateOracle,
    candidates: &[Candidate],
    objective: &Objective,
    parallelism: usize,
    cancel: Option<&CancelToken>,
) -> Result<Vec<f64>, OracleError> {
    let _span = ntr_obs::span("sweep.score");
    let pool = crate::WorkerPool::global();
    let cap = match parallelism {
        0 => pool.workers() + 1,
        n => n,
    };
    let workers = cap
        .min(candidates.len().div_ceil(MIN_CANDIDATES_PER_WORKER))
        .min(candidates.len());

    let score_one = |c: &Candidate| -> Result<f64, OracleError> {
        if let Some(token) = cancel {
            token.check()?;
        }
        Ok(objective.score(&oracle.score(c)?))
    };

    if workers <= 1 {
        return candidates.iter().map(score_one).collect();
    }

    let chunk = candidates.len().div_ceil(workers);
    let mut slots: Vec<Option<Result<f64, OracleError>>> =
        (0..candidates.len()).map(|_| None).collect();
    pool.scope(|s| {
        let mut chunks = candidates.chunks(chunk).zip(slots.chunks_mut(chunk));
        // The caller scores the first chunk itself (after queueing the
        // rest), so a pool of `k` threads gives `k + 1`-way parallelism.
        let own = chunks.next();
        for (cands, out) in chunks {
            let score_one = &score_one;
            s.spawn(move || {
                for (c, slot) in cands.iter().zip(out.iter_mut()) {
                    *slot = Some(score_one(c));
                }
            });
        }
        if let Some((cands, out)) = own {
            for (c, slot) in cands.iter().zip(out.iter_mut()) {
                *slot = Some(score_one(c));
            }
        }
    });

    let mut scores = Vec::with_capacity(candidates.len());
    for slot in slots {
        scores.push(slot.expect("every candidate chunk is scored")?);
    }
    Ok(scores)
}

/// Index of the smallest score strictly below `threshold`; ties keep the
/// earliest candidate (the tie-break every greedy loop here historically
/// used).
#[must_use]
pub fn best_below(scores: &[f64], threshold: f64) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, &s) in scores.iter().enumerate() {
        if s < threshold && best.is_none_or(|b| s < scores[b]) {
            best = Some(i);
        }
    }
    best
}

/// Every node pair not already joined by an edge, as `AddEdge`
/// candidates in the scan order of the original double loop.
///
/// Kept as the reference implementation the equivalence tests compare
/// [`CandidateGenerator`](crate::CandidateGenerator) against; production
/// paths go through the generator's pooled buffer instead.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn missing_edge_candidates(graph: &RoutingGraph) -> Vec<Candidate> {
    let nodes: Vec<NodeId> = graph.node_ids().collect();
    let mut out = Vec::new();
    for (ai, &a) in nodes.iter().enumerate() {
        for &b in &nodes[ai + 1..] {
            if !graph.has_edge(a, b) {
                out.push(Candidate::AddEdge(a, b));
            }
        }
    }
    out
}

/// The blanket [`CandidateOracle`]: clones the graph, applies the
/// candidate, and runs the wrapped [`DelayOracle`] from scratch.
///
/// Correct for every oracle, including transient simulation; the cost is
/// a full extraction + evaluation per candidate.
pub struct ScratchOracle<'a> {
    oracle: &'a dyn DelayOracle,
    graph: Option<RoutingGraph>,
    stats: SharedStats,
}

impl<'a> ScratchOracle<'a> {
    /// Wraps `oracle` as a from-scratch candidate scorer.
    #[must_use]
    pub fn new(oracle: &'a dyn DelayOracle) -> Self {
        Self {
            oracle,
            graph: None,
            stats: SharedStats::default(),
        }
    }
}

impl CandidateOracle for ScratchOracle<'_> {
    fn prepare(&mut self, graph: &RoutingGraph) -> Result<DelayReport, OracleError> {
        let _span = ntr_obs::span("oracle.prepare");
        let start = Instant::now();
        let report = self.oracle.evaluate(graph)?;
        self.graph = Some(graph.clone());
        self.stats.record(start, 1, 0);
        Ok(report)
    }

    fn score(&self, candidate: &Candidate) -> Result<DelayReport, OracleError> {
        let start = Instant::now();
        let base = self.graph.as_ref().expect("prepare before score");
        let mut trial = base.clone();
        match *candidate {
            Candidate::AddEdge(a, b) => {
                trial.add_edge(a, b).expect("candidate endpoints are live");
            }
            Candidate::SetWidth(e, w) => {
                trial.set_width(e, w).expect("candidate edge is live");
            }
        }
        let report = self.oracle.evaluate(&trial)?;
        self.stats.record(start, 1, 0);
        Ok(report)
    }

    fn stats(&self) -> OracleStats {
        self.stats.snapshot()
    }
}

/// The prepared state of an [`IncrementalMomentOracle`].
struct PreparedMoments {
    graph: RoutingGraph,
    extracted: Extracted,
    engine: MomentEngine,
    /// Endpoint columns at the graph nodes, filled as candidates touch
    /// them; `None` when a full table would exceed [`TABLE_BUDGET_BYTES`].
    table: Option<EndpointTable>,
}

/// The most bytes one prepared routing's [`EndpointTable`] may hold when
/// full. A 1,000-node routing needs 16 MB under Elmore and 24 MB under
/// D2M; a 10,000-node one would need 1.6 GB and scores through
/// [`MomentEngine::wire_moments`] instead.
const TABLE_BUDGET_BYTES: usize = 32 << 20;

/// The incremental [`CandidateOracle`] behind [`MomentOracle`].
///
/// `prepare` extracts the committed routing and factors its static MNA
/// matrix once. Each `AddEdge` candidate is then scored by the exact
/// Sherman–Morrison rank-1 identity (a trial wire's π-chain reduces to a
/// rank-1 conductance between its endpoints; its distributed capacitance
/// enters the moment recursion through boundary-weighted right-hand
/// sides). The identity is evaluated from an [`EndpointTable`] at the
/// graph nodes, which `prepare` clears and `score` fills lazily, so a
/// candidate costs scalar work at its endpoints and the sinks. A routing
/// whose full table would exceed a fixed byte budget (see
/// [`IncrementalMomentOracle::table_fits`]) scores each candidate through
/// [`MomentEngine::wire_moments`] instead: one triangular solve per
/// moment order plus one for the update. Both paths give the same scores
/// to rounding, and each score depends only on the candidate and the
/// prepared routing. `SetWidth` candidates rescale the stamped R/C values
/// of one edge in place and reuse the cached **symbolic** analysis via
/// `refactor_with_same_pattern` — numeric-only refactorization, no
/// ordering or elimination-tree work.
pub struct IncrementalMomentOracle<'a> {
    oracle: &'a MomentOracle,
    state: Option<PreparedMoments>,
    stats: SharedStats,
}

impl<'a> IncrementalMomentOracle<'a> {
    /// An unprepared incremental engine over `oracle`'s technology,
    /// extraction options, and metric.
    #[must_use]
    pub fn new(oracle: &'a MomentOracle) -> Self {
        Self {
            oracle,
            state: None,
            stats: SharedStats::default(),
        }
    }

    /// Whether a prepared routing of `graph_nodes` nodes scores its
    /// `AddEdge` candidates from an [`EndpointTable`] at moment `order`:
    /// the table must support the order and fit the fixed byte budget.
    /// Over budget, candidates score through
    /// [`MomentEngine::wire_moments`].
    #[must_use]
    pub fn table_fits(graph_nodes: usize, order: usize) -> bool {
        order <= EndpointTable::MAX_ORDER
            && EndpointTable::bytes_for(graph_nodes, order) <= TABLE_BUDGET_BYTES
    }

    /// Whether the prepared routing scores `AddEdge` candidates from an
    /// endpoint-column table (`false` before the first `prepare`).
    #[must_use]
    pub fn uses_table(&self) -> bool {
        self.state.as_ref().is_some_and(|s| s.table.is_some())
    }

    fn order(&self) -> usize {
        match self.oracle.metric {
            MomentMetric::Elmore => 1,
            MomentMetric::D2m => 2,
        }
    }

    fn probe_delay(&self, probe: ProbeView<'_>) -> f64 {
        match self.oracle.metric {
            MomentMetric::Elmore => probe.elmore(),
            MomentMetric::D2m => probe.d2m(),
        }
    }

    fn report_from_moments(
        &self,
        moments: &Moments,
        sinks: &[usize],
    ) -> Result<DelayReport, SimError> {
        let mut delays = Vec::with_capacity(sinks.len());
        for &node in sinks {
            delays.push(match self.oracle.metric {
                MomentMetric::Elmore => moments.elmore_of_node(node)?,
                MomentMetric::D2m => moments.d2m_of_node(node)?,
            });
        }
        Ok(DelayReport::new(delays))
    }
}

impl CandidateOracle for IncrementalMomentOracle<'_> {
    fn prepare(&mut self, graph: &RoutingGraph) -> Result<DelayReport, OracleError> {
        let _span = ntr_obs::span("oracle.prepare");
        let start = Instant::now();
        let extracted = extract(graph, &self.oracle.tech, &self.oracle.extract)?;
        let engine =
            MomentEngine::new(&extracted.circuit, self.order()).map_err(OracleError::Sim)?;
        let probes = engine
            .base_probe_moments(&extracted.sink_nodes)
            .map_err(OracleError::Sim)?;
        let report = DelayReport::new(probes.iter().map(|p| self.probe_delay(p.view())).collect());
        let table = if Self::table_fits(extracted.graph_nodes.len(), engine.order()) {
            Some(
                engine
                    .endpoint_table(&extracted.graph_nodes, &extracted.sink_nodes)
                    .map_err(OracleError::Sim)?,
            )
        } else {
            None
        };
        self.state = Some(PreparedMoments {
            graph: graph.clone(),
            extracted,
            engine,
            table,
        });
        self.stats.record(start, 1, 0);
        Ok(report)
    }

    fn score(&self, candidate: &Candidate) -> Result<DelayReport, OracleError> {
        let start = Instant::now();
        let state = self.state.as_ref().expect("prepare before score");
        match *candidate {
            Candidate::AddEdge(a, b) => {
                // New edges default to unit width (RoutingGraph::add_edge).
                let wire = state.extracted.candidate_wire(
                    &state.graph,
                    &self.oracle.tech,
                    &self.oracle.extract,
                    a,
                    b,
                    1.0,
                )?;
                let delays = match &state.table {
                    Some(table) => {
                        let mut delays = Vec::with_capacity(state.extracted.sink_nodes.len());
                        state
                            .engine
                            .table_wire_moments(table, &wire, (a.index(), b.index()), |p| {
                                delays.push(self.probe_delay(p));
                            })
                            .map_err(OracleError::Sim)?;
                        delays
                    }
                    None => state
                        .engine
                        .wire_moments(&wire, &state.extracted.sink_nodes)
                        .map_err(OracleError::Sim)?
                        .iter()
                        .map(|p| self.probe_delay(p.view()))
                        .collect(),
                };
                let report = DelayReport::new(delays);
                self.stats.record(start, 0, 1);
                Ok(report)
            }
            Candidate::SetWidth(e, w) => {
                let old = state
                    .graph
                    .edge(e)
                    .map_err(|_| {
                        OracleError::Extract(ntr_circuit::ExtractError::UnknownEdge {
                            edge: e.index(),
                        })
                    })?
                    .width();
                let mut trial = state.extracted.clone();
                trial.rescale_edge_width(e, w / old)?;
                let moments = match state.engine.moments_with_same_pattern(&trial.circuit) {
                    Ok(m) => m,
                    // Rescaling never changes the pattern, but stay correct
                    // if a zero width product ever cancels an entry.
                    Err(SimError::Solve(SolveError::PatternMismatch { .. })) => {
                        Moments::compute(&trial.circuit, state.engine.order())
                            .map_err(OracleError::Sim)?
                    }
                    Err(err) => return Err(OracleError::Sim(err)),
                };
                let report = self
                    .report_from_moments(&moments, &trial.sink_nodes)
                    .map_err(OracleError::Sim)?;
                self.stats.record(start, 1, 0);
                Ok(report)
            }
        }
    }

    fn stats(&self) -> OracleStats {
        self.stats.snapshot()
    }
}
