//! Equivalence suite for endpoint-column table scoring (run in release).
//!
//! [`IncrementalMomentOracle`] scores `AddEdge` candidates from a
//! per-iteration table of endpoint columns instead of running
//! [`MomentEngine::wire_moments`] per candidate. The two are the same
//! algebra, reassociated, so they are not bit-identical. This suite
//! pins down how close they are and what must not change:
//!
//! - (a) table scores agree with `wire_moments` to 1e-12 relative per
//!   sink, and with a from-scratch `MomentOracle::evaluate` to 1e-9,
//!   on MST, cyclic, ERT and Steiner starts under Elmore and D2M;
//! - (b) `ldrg_with` and `sldrg_with` commit the edge sequence a
//!   `wire_moments` reference oracle commits, with final delays within
//!   1e-12, on 20-pin exhaustive and 100-pin pruned searches;
//! - (c) parallel sweeps, and sweeps that fill the table in another
//!   order, equal serial sweeps on `f64::to_bits`;
//! - (d) the table's byte budget holds at its boundary, and a routing
//!   over it scores through `wire_moments`.

use ntr_circuit::{extract, Extracted, Technology};
use ntr_core::{
    ldrg_with, sldrg_with, sweep_candidates, Candidate, CandidateGen, CandidateOracle, DelayOracle,
    DelayReport, IncrementalMomentOracle, LdrgOptions, LdrgResult, MomentMetric, MomentOracle,
    Objective, OracleError, OracleStats,
};
use ntr_ert::{elmore_routing_tree, ErtOptions};
use ntr_geom::{Layout, Net, NetGenerator};
use ntr_graph::{prim_mst, NodeId, RoutingGraph};
use ntr_spice::{MomentEngine, ProbeMoments};
use ntr_steiner::{iterated_one_steiner, SteinerOptions};

/// Twenty seeds per case in release, the mode CI runs this suite in. An
/// unoptimized build runs four, since the 100-pin reference searches and
/// Steiner starts alone take minutes there.
const SEEDS: u64 = if cfg!(debug_assertions) { 4 } else { 20 };
const METRICS: [MomentMetric; 2] = [MomentMetric::Elmore, MomentMetric::D2m];

fn net(seed: u64, size: usize) -> Net {
    NetGenerator::new(Layout::date94(), seed)
        .random_net(size)
        .unwrap()
}

fn oracle(metric: MomentMetric) -> MomentOracle {
    MomentOracle {
        metric,
        ..MomentOracle::new(Technology::date94())
    }
}

fn order(metric: MomentMetric) -> usize {
    if metric == MomentMetric::Elmore {
        1
    } else {
        2
    }
}

fn delay(metric: MomentMetric, probe: &ProbeMoments) -> f64 {
    if metric == MomentMetric::Elmore {
        probe.elmore()
    } else {
        probe.d2m()
    }
}

/// The MST with `extra` chords added by stride, closing cycles.
fn with_cycles(mut g: RoutingGraph, extra: usize) -> RoutingGraph {
    let nodes: Vec<NodeId> = g.node_ids().collect();
    let mut added = 0;
    for stride in 2..nodes.len() {
        for i in 0..nodes.len() - stride {
            if added == extra {
                return g;
            }
            if !g.has_edge(nodes[i], nodes[i + stride]) {
                g.add_edge(nodes[i], nodes[i + stride]).unwrap();
                added += 1;
            }
        }
    }
    g
}

/// The four starting routings of part (a) for one net.
fn starts(n: &Net) -> [(&'static str, RoutingGraph); 4] {
    let tech = Technology::date94();
    [
        ("mst", prim_mst(n)),
        ("mst+cycles", with_cycles(prim_mst(n), 3)),
        (
            "ert",
            elmore_routing_tree(n, &tech, &ErtOptions::default()).unwrap(),
        ),
        (
            "steiner",
            iterated_one_steiner(n, &SteinerOptions::default()),
        ),
    ]
}

fn missing_edges(g: &RoutingGraph) -> Vec<(NodeId, NodeId)> {
    let nodes: Vec<NodeId> = g.node_ids().collect();
    let mut out = Vec::new();
    for (i, &a) in nodes.iter().enumerate() {
        for &b in &nodes[i + 1..] {
            if !g.has_edge(a, b) {
                out.push((a, b));
            }
        }
    }
    out
}

fn assert_rel(got: f64, want: f64, tol: f64, what: &str) {
    assert!(
        (got - want).abs() <= tol * want.abs(),
        "{what}: {got:e} vs {want:e} (rel {:e})",
        (got - want).abs() / want.abs()
    );
}

/// The reference scorer: the per-candidate `wire_moments` path, with the
/// same extraction and the same base report as the table oracle.
struct WireMomentsOracle(MomentOracle);

struct WireMomentsEngine<'a> {
    oracle: &'a MomentOracle,
    state: Option<(RoutingGraph, Extracted, MomentEngine)>,
}

impl DelayOracle for WireMomentsOracle {
    fn evaluate(&self, graph: &RoutingGraph) -> Result<DelayReport, OracleError> {
        self.0.evaluate(graph)
    }

    fn incremental(&self) -> Option<Box<dyn CandidateOracle + '_>> {
        Some(Box::new(WireMomentsEngine {
            oracle: &self.0,
            state: None,
        }))
    }
}

impl CandidateOracle for WireMomentsEngine<'_> {
    fn prepare(&mut self, graph: &RoutingGraph) -> Result<DelayReport, OracleError> {
        let extracted = extract(graph, &self.oracle.tech, &self.oracle.extract)?;
        let engine = MomentEngine::new(&extracted.circuit, order(self.oracle.metric))
            .map_err(OracleError::Sim)?;
        let probes = engine
            .base_probe_moments(&extracted.sink_nodes)
            .map_err(OracleError::Sim)?;
        let metric = self.oracle.metric;
        self.state = Some((graph.clone(), extracted, engine));
        Ok(DelayReport::new(
            probes.iter().map(|p| delay(metric, p)).collect(),
        ))
    }

    fn score(&self, candidate: &Candidate) -> Result<DelayReport, OracleError> {
        let (graph, extracted, engine) = self.state.as_ref().expect("prepare before score");
        let Candidate::AddEdge(a, b) = *candidate else {
            unreachable!("the reference scores edge candidates only")
        };
        let wire =
            extracted.candidate_wire(graph, &self.oracle.tech, &self.oracle.extract, a, b, 1.0)?;
        let probes = engine
            .wire_moments(&wire, &extracted.sink_nodes)
            .map_err(OracleError::Sim)?;
        Ok(DelayReport::new(
            probes
                .iter()
                .map(|p| delay(self.oracle.metric, p))
                .collect(),
        ))
    }

    fn stats(&self) -> OracleStats {
        OracleStats::default()
    }
}

/// (a) Every missing edge of every start, scored by the table, against
/// `wire_moments` (1e-12) and a from-scratch evaluation (1e-9).
#[test]
fn table_scores_match_wire_moments_and_scratch() {
    for seed in 0..SEEDS {
        let n = net(seed, 9);
        for (label, graph) in starts(&n) {
            for metric in METRICS {
                let oracle = oracle(metric);
                let mut table = IncrementalMomentOracle::new(&oracle);
                table.prepare(&graph).unwrap();
                assert!(table.uses_table(), "{label} seed {seed}");
                let reference_oracle = WireMomentsOracle(oracle.clone());
                let mut reference = reference_oracle.incremental().unwrap();
                reference.prepare(&graph).unwrap();
                for (a, b) in missing_edges(&graph) {
                    let what = format!("{label} seed {seed} {metric:?} edge ({a:?},{b:?})");
                    let got = table.score(&Candidate::AddEdge(a, b)).unwrap();
                    let want = reference.score(&Candidate::AddEdge(a, b)).unwrap();
                    let mut trial = graph.clone();
                    trial.add_edge(a, b).unwrap();
                    let scratch = oracle.evaluate(&trial).unwrap();
                    assert_eq!(got.len(), want.len());
                    for ((&g, &w), &s) in got
                        .per_sink()
                        .iter()
                        .zip(want.per_sink())
                        .zip(scratch.per_sink())
                    {
                        assert_rel(g, w, 1e-12, &what);
                        assert_rel(g, s, 1e-9, &what);
                    }
                }
            }
        }
    }
}

fn assert_same_search(label: &str, table: &LdrgResult, reference: &LdrgResult) {
    let added = |r: &LdrgResult| r.iterations.iter().map(|it| it.added).collect::<Vec<_>>();
    assert_eq!(added(table), added(reference), "{label}: edge sequences");
    assert_eq!(
        table.initial_delay.to_bits(),
        reference.initial_delay.to_bits(),
        "{label}: initial delays"
    );
    for (t, r) in table.iterations.iter().zip(&reference.iterations) {
        assert_rel(t.delay, r.delay, 1e-12, label);
    }
    assert_rel(table.final_delay(), reference.final_delay(), 1e-12, label);
}

/// (b) The searches commit the reference's edges: 20-pin exhaustive and
/// 100-pin pruned (k = 8), for both LDRG and SLDRG. At 100 pins the
/// SLDRG Steiner start is capped at one point: each Iterated 1-Steiner
/// round re-evaluates the whole Hanan grid and would dominate the suite.
#[test]
fn searches_commit_the_reference_edge_sequence() {
    let oracle = oracle(MomentMetric::Elmore);
    let reference = WireMomentsOracle(oracle.clone());
    let cases = [
        (20, CandidateGen::Exhaustive, 0),
        (100, CandidateGen::pruned(8), 1),
    ];
    for seed in 0..SEEDS {
        for (size, candidates, max_steiner_points) in cases {
            let n = net(1000 + seed, size);
            let opts = LdrgOptions {
                candidates,
                ..Default::default()
            };
            let steiner = SteinerOptions {
                max_steiner_points,
                ..SteinerOptions::default()
            };
            let mst = prim_mst(&n);
            assert_same_search(
                &format!("ldrg {size} pins seed {seed}"),
                &ldrg_with(&mst, &oracle, &opts).unwrap(),
                &ldrg_with(&mst, &reference, &opts).unwrap(),
            );
            assert_same_search(
                &format!("sldrg {size} pins seed {seed}"),
                &sldrg_with(&n, &steiner, &oracle, &opts).unwrap(),
                &sldrg_with(&n, &steiner, &reference, &opts).unwrap(),
            );
        }
    }
}

/// (c) A score depends only on the candidate and the prepared routing:
/// parallel sweeps, and sweeps that fill the table back to front, equal
/// a serial front-to-back sweep bit for bit, and so do whole searches.
#[test]
fn sweeps_are_bit_identical_across_threads_and_fill_orders() {
    for seed in 0..SEEDS {
        let graph = with_cycles(prim_mst(&net(2000 + seed, 30)), 2);
        let candidates: Vec<Candidate> = missing_edges(&graph)
            .into_iter()
            .map(|(a, b)| Candidate::AddEdge(a, b))
            .collect();
        let reversed: Vec<Candidate> = candidates.iter().rev().copied().collect();
        for metric in METRICS {
            let oracle = oracle(metric);
            let sweep = |list: &[Candidate], parallelism: usize| -> Vec<u64> {
                let mut engine = IncrementalMomentOracle::new(&oracle);
                engine.prepare(&graph).unwrap();
                sweep_candidates(&engine, list, &Objective::MaxDelay, parallelism, None)
                    .unwrap()
                    .into_iter()
                    .map(f64::to_bits)
                    .collect()
            };
            let serial = sweep(&candidates, 1);
            assert_eq!(serial, sweep(&candidates, 4), "seed {seed} {metric:?}");
            let mut back = sweep(&reversed, 1);
            back.reverse();
            assert_eq!(serial, back, "seed {seed} {metric:?} reversed fill");
        }
        let oracle = oracle(MomentMetric::Elmore);
        let run = |parallelism| {
            let opts = LdrgOptions {
                parallelism,
                candidates: CandidateGen::pruned(8),
                ..Default::default()
            };
            ldrg_with(&prim_mst(&net(3000 + seed, 100)), &oracle, &opts).unwrap()
        };
        let (serial, parallel) = (run(1), run(4));
        assert_eq!(serial.graph, parallel.graph, "seed {seed}");
        assert_eq!(
            serial.final_delay().to_bits(),
            parallel.final_delay().to_bits(),
            "seed {seed}"
        );
    }
}

/// (d) The budget admits a full table up to 1,447 graph nodes under
/// Elmore and 1,181 under D2M (32 MiB), so a 1,000-pin net uses the
/// table and a 10,000-pin one does not. One node past the boundary, the
/// oracle scores through `wire_moments`, bit for bit.
#[test]
fn budget_boundary_and_over_budget_fallback() {
    let fits = IncrementalMomentOracle::table_fits;
    assert!(fits(1_447, 1) && !fits(1_448, 1));
    assert!(fits(1_181, 2) && !fits(1_182, 2));
    assert!(fits(1_000, 1) && fits(1_000, 2));
    assert!(!fits(10_000, 1));
    assert!(!fits(10, 3), "orders above the table's are never tabled");

    let oracle = oracle(MomentMetric::Elmore);
    let mut engine = IncrementalMomentOracle::new(&oracle);
    engine.prepare(&prim_mst(&net(7, 1_447))).unwrap();
    assert!(engine.uses_table());

    let over = prim_mst(&net(7, 1_448));
    engine.prepare(&over).unwrap();
    assert!(!engine.uses_table());
    let reference_oracle = WireMomentsOracle(oracle.clone());
    let mut reference = reference_oracle.incremental().unwrap();
    reference.prepare(&over).unwrap();
    let nodes: Vec<NodeId> = over.node_ids().collect();
    let mut scored = 0;
    for (i, j) in [(0, 1_447), (3, 900), (100, 101), (1_200, 5)] {
        if over.has_edge(nodes[i], nodes[j]) {
            continue;
        }
        scored += 1;
        let candidate = Candidate::AddEdge(nodes[i], nodes[j]);
        let got = engine.score(&candidate).unwrap();
        let want = reference.score(&candidate).unwrap();
        let bits = |r: &DelayReport| r.per_sink().iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "edge ({i},{j})");
    }
    assert!(scored > 0);
    assert_eq!(engine.stats().rank1_solves, scored);
}
