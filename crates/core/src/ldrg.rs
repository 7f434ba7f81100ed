use ntr_graph::{EdgeId, NodeId, RoutingGraph};

use crate::candidates::{CandidateGen, CandidateGenerator};
use crate::sweep::{best_below, candidate_oracle_for, sweep_candidates};
use crate::{CancelToken, Candidate, DelayOracle, Objective, OracleError, OracleStats};

/// Options for the [`ldrg_with`] greedy loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LdrgOptions {
    /// Stop after this many added edges (0 = iterate until no improvement,
    /// the paper's termination rule).
    pub max_added_edges: usize,
    /// Minimum relative improvement for an edge to be accepted; guards
    /// against numerical churn. Default `1e-6`.
    pub min_improvement: f64,
    /// The objective to minimize ([`Objective::MaxDelay`] = ORG,
    /// [`Objective::Weighted`] = CSORG).
    pub objective: Objective,
    /// Worker threads for the candidate sweep (0 = one per available
    /// core). The committed edge sequence is identical at every setting.
    pub parallelism: usize,
    /// Cooperative cancellation: checked once per candidate score and at
    /// every iteration boundary; a tripped token aborts the search with
    /// [`OracleError::Cancelled`]. The default token never trips.
    pub cancel: CancelToken,
    /// The candidate universe searched each iteration. The default
    /// [`CandidateGen::Exhaustive`] reproduces the paper's O(|N|²) scan
    /// bit-for-bit; [`CandidateGen::Pruned`] restricts the search to
    /// spatial neighborhoods, unlocking 1k/10k-pin nets.
    pub candidates: CandidateGen,
}

impl Default for LdrgOptions {
    fn default() -> Self {
        Self {
            max_added_edges: 0,
            min_improvement: 1e-6,
            objective: Objective::MaxDelay,
            parallelism: 0,
            cancel: CancelToken::default(),
            candidates: CandidateGen::Exhaustive,
        }
    }
}

/// One committed LDRG iteration: the edge added and the resulting state.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Endpoints of the added edge.
    pub added: (NodeId, NodeId),
    /// Id of the added edge in the result graph.
    pub edge: EdgeId,
    /// Objective value after adding the edge (seconds).
    pub delay: f64,
    /// Total wirelength after adding the edge (µm).
    pub cost: f64,
}

/// The result of an [`ldrg_with`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct LdrgResult {
    /// The final routing graph (the input plus all committed edges).
    pub graph: RoutingGraph,
    /// Objective value of the starting graph (seconds).
    pub initial_delay: f64,
    /// Wirelength of the starting graph (µm).
    pub initial_cost: f64,
    /// Committed iterations, in order.
    pub iterations: Vec<IterationRecord>,
    /// Search-cost counters of the candidate engine that ran the sweeps.
    pub stats: OracleStats,
}

impl LdrgResult {
    /// Objective value of the final graph.
    #[must_use]
    pub fn final_delay(&self) -> f64 {
        self.iterations
            .last()
            .map_or(self.initial_delay, |it| it.delay)
    }

    /// Wirelength of the final graph.
    #[must_use]
    pub fn final_cost(&self) -> f64 {
        self.iterations
            .last()
            .map_or(self.initial_cost, |it| it.cost)
    }

    /// Delay and cost after iteration `k` (`k = 0` is the initial graph;
    /// past the last iteration the final values repeat, matching how the
    /// paper reports "iteration two" on nets where only one edge helped).
    #[must_use]
    pub fn state_after(&self, k: usize) -> (f64, f64) {
        if k == 0 || self.iterations.is_empty() {
            return if k == 0 {
                (self.initial_delay, self.initial_cost)
            } else {
                (self.final_delay(), self.final_cost())
            };
        }
        let idx = k.min(self.iterations.len()) - 1;
        (self.iterations[idx].delay, self.iterations[idx].cost)
    }
}

/// Emits one LDRG convergence record into the process-wide flight
/// recorder ([`ntr_obs::Journal`]): what the iteration considered, what
/// it committed, and how long the generate + sweep took. The terminal
/// iteration of every run appears too (`accepted: false`), so the
/// journal shows *why* a search stopped, not just what it added. One
/// wait-free ring append per ≥100 µs iteration — invisible next to the
/// sweep itself (the `ldrg_iteration` bench baseline holds with the
/// recorder on).
fn record_iteration(
    iteration: u32,
    accepted: Option<(NodeId, NodeId)>,
    best_delay: f64,
    delay_delta: f64,
    candidates_generated: u64,
    candidates_scored: u64,
    started: std::time::Instant,
) {
    ntr_obs::Journal::global().record_iteration(ntr_obs::journal::IterEvent {
        seq: 0,
        trace: ntr_obs::span::current_trace_id(),
        iteration,
        accepted: accepted.is_some(),
        edge: accepted.map_or((0, 0), |(a, b)| (a.index() as u64, b.index() as u64)),
        best_delay,
        delay_delta,
        candidates_generated,
        candidates_scored,
        oracle_us: started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
    });
}

/// The Low Delay Routing Graph algorithm (paper Figure 4).
///
/// Starting from any spanning routing (the paper uses the MST; Table 7
/// starts from an ERT; SLDRG starts from a Steiner tree), repeatedly:
///
/// 1. evaluate every candidate edge `e_{ij} ∈ N×N` not already present,
/// 2. commit the edge that reduces the objective the most,
/// 3. stop when no candidate improves (or `max_added_edges` is reached).
///
/// Each iteration costs O(|N|²) candidate scores, evaluated through the
/// shared [`sweep_candidates`] kernel: with the
/// [`TransientOracle`](crate::TransientOracle) this is the paper's
/// "quadratic number of calls to SPICE"; with the
/// [`MomentOracle`](crate::MomentOracle) each score is a rank-1 update
/// of one cached factorization per iteration.
///
/// # Errors
///
/// Propagates [`OracleError`] from the oracle (e.g. a disconnected input
/// graph).
///
/// # Examples
///
/// See the [crate-level example](crate).
pub fn ldrg_with(
    initial: &RoutingGraph,
    oracle: &dyn DelayOracle,
    opts: &LdrgOptions,
) -> Result<LdrgResult, OracleError> {
    let _span = ntr_obs::span("ldrg");
    let mut graph = initial.clone();
    let mut engine = candidate_oracle_for(oracle);
    let initial_delay = opts.objective.score(&engine.prepare(&graph)?);
    let initial_cost = graph.total_cost();

    let mut iterations = Vec::new();
    let mut current = initial_delay;
    let max_edges = if opts.max_added_edges == 0 {
        usize::MAX
    } else {
        opts.max_added_edges
    };
    let mut generator = CandidateGenerator::new(opts.candidates);
    let mut scored: u64 = 0;
    let mut iter_index: u32 = 0;

    while iterations.len() < max_edges {
        let _iter_span = ntr_obs::span("ldrg.iteration");
        opts.cancel.check()?;
        let iter_started = std::time::Instant::now();
        generator.generate(&graph);
        let scores = sweep_candidates(
            engine.as_ref(),
            generator.candidates(),
            &opts.objective,
            opts.parallelism,
            Some(&opts.cancel),
        )?;
        scored += scores.len() as u64;
        let generated_now = generator.candidates().len() as u64;
        let before = current;
        let accepted = match best_below(&scores, current) {
            Some(i) if scores[i] < current * (1.0 - opts.min_improvement) => {
                let Candidate::AddEdge(a, b) = generator.candidates()[i] else {
                    unreachable!("ldrg sweeps edge candidates only")
                };
                let edge = graph.add_edge(a, b).expect("distinct valid nodes");
                current = scores[i];
                iterations.push(IterationRecord {
                    added: (a, b),
                    edge,
                    delay: current,
                    cost: graph.total_cost(),
                });
                engine.prepare(&graph)?;
                Some((a, b))
            }
            _ => None,
        };
        record_iteration(
            iter_index,
            accepted,
            current,
            before - current,
            generated_now,
            scores.len() as u64,
            iter_started,
        );
        iter_index += 1;
        if accepted.is_none() {
            break;
        }
    }

    let mut stats = engine.stats().merged(generator.stats());
    stats.candidates_scored += scored;
    Ok(LdrgResult {
        graph,
        initial_delay,
        initial_cost,
        iterations,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MomentOracle, TransientOracle};
    use ntr_circuit::Technology;
    use ntr_geom::{Layout, NetGenerator};
    use ntr_graph::prim_mst;

    fn mst(seed: u64, size: usize) -> RoutingGraph {
        let net = NetGenerator::new(Layout::date94(), seed)
            .random_net(size)
            .unwrap();
        prim_mst(&net)
    }

    #[test]
    fn ldrg_never_worsens_the_objective() {
        let oracle = MomentOracle::new(Technology::date94());
        for seed in 0..8 {
            let g = mst(seed, 9);
            let res = ldrg_with(&g, &oracle, &LdrgOptions::default()).unwrap();
            assert!(res.final_delay() <= res.initial_delay);
            assert!(res.graph.is_connected());
            // Monotone improvement per iteration.
            let mut prev = res.initial_delay;
            for it in &res.iterations {
                assert!(it.delay < prev);
                prev = it.delay;
            }
            // Cost grows with each added edge.
            assert!(res.final_cost() >= res.initial_cost);
        }
    }

    #[test]
    fn iterations_flow_into_the_flight_recorder() {
        let oracle = MomentOracle::new(Technology::date94());
        let g = mst(3, 10);
        let journal = ntr_obs::Journal::global();
        let before = journal.snapshot().iteration_stats.recorded;
        let res = ldrg_with(&g, &oracle, &LdrgOptions::default()).unwrap();
        let after = journal.snapshot().iteration_stats.recorded;
        // One record per committed iteration plus the terminal
        // rejection. Other tests may append concurrently, so assert a
        // monotone lower bound, not equality.
        assert!(
            after > before + res.iterations.len() as u64,
            "journal grew by {} for {} iterations",
            after - before,
            res.iterations.len()
        );
        let snap = journal.snapshot();
        assert!(snap
            .iterations
            .iter()
            .any(|e| e.accepted && e.candidates_scored > 0 && e.delay_delta > 0.0));
    }

    #[test]
    fn max_added_edges_caps_iterations() {
        let oracle = MomentOracle::new(Technology::date94());
        let g = mst(4, 12);
        let capped = ldrg_with(
            &g,
            &oracle,
            &LdrgOptions {
                max_added_edges: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(capped.iterations.len() <= 1);
        let free = ldrg_with(&g, &oracle, &LdrgOptions::default()).unwrap();
        assert!(free.final_delay() <= capped.final_delay() + 1e-18);
    }

    #[test]
    fn transient_oracle_improves_most_20_pin_nets() {
        // Small smoke-scale version of Table 2's "percent winners" claim.
        let oracle = TransientOracle::fast(Technology::date94());
        let mut winners = 0;
        for seed in 0..5 {
            let g = mst(100 + seed, 20);
            let res = ldrg_with(
                &g,
                &oracle,
                &LdrgOptions {
                    max_added_edges: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            if res.final_delay() < res.initial_delay {
                winners += 1;
            }
        }
        assert!(winners >= 3, "only {winners}/5 improved");
    }

    #[test]
    fn state_after_clamps_to_final() {
        let oracle = MomentOracle::new(Technology::date94());
        let g = mst(2, 10);
        let res = ldrg_with(&g, &oracle, &LdrgOptions::default()).unwrap();
        assert_eq!(res.state_after(0), (res.initial_delay, res.initial_cost));
        assert_eq!(res.state_after(99), (res.final_delay(), res.final_cost()));
    }

    #[test]
    fn weighted_objective_runs() {
        let g = mst(6, 6);
        let alphas = vec![1.0, 0.0, 0.0, 0.0, 0.0];
        let oracle = MomentOracle::new(Technology::date94());
        let res = ldrg_with(
            &g,
            &oracle,
            &LdrgOptions {
                objective: Objective::Weighted(alphas),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(res.final_delay() <= res.initial_delay);
    }
}
