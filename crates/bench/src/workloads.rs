//! The named workload registry behind `ntr-bench`: each entry is a
//! deterministic, self-contained measurement of one layer of the stack.
//!
//! Workloads fix their inputs (the `0xBEEF`-seeded [`bench_net`]
//! generator, hardcoded RC chains) so that two runs on the same machine
//! measure the same computation; iteration budgets are fixed per
//! workload — full budgets for trajectory runs, reduced `--quick`
//! budgets for CI smoke — so artifacts from different runs are
//! comparable sample-for-sample.
//!
//! The registry spans the layers a perf regression could hide in:
//!
//! | workload            | layer                                        |
//! |---------------------|----------------------------------------------|
//! | `ldrg_iteration`    | full LDRG candidate pass (prepare + sweep)   |
//! | `sweep_score`       | sweep kernel alone on a prepared engine      |
//! | `sparse_lu_factor`  | symbolic + numeric LU on an RC chain         |
//! | `sparse_lu_refactor`| numeric-only refactor, pattern reused        |
//! | `triangular_solve`  | forward/back solves on a cached factorization|
//! | `moment_sweep`      | from-scratch extract + moment Elmore solve   |
//! | `elmore_eval`       | Elmore analysis over a 100-pin tree          |
//! | `route_end_to_end`  | whole `ldrg` route with the transient oracle |
//! | `incremental_reroute`| session delta reroute (move pin + refactor) |
//! | `server_round_trip` | in-process service submit → response         |
//! | `candidate_gen_1k`  | spatial index build + pruned generation, 1k pins |
//! | `route_1k_pins`     | pruned-mode LDRG iteration at 1k pins        |
//! | `candidate_gen_10k` | index build + first pruned LDRG iteration, 10k pins |

use std::time::Instant;

use crate::bench_net;
use ntr_circuit::Technology;
use ntr_core::{
    candidate_oracle_for, ldrg_with, sweep_candidates, Candidate, CandidateGen, CandidateGenerator,
    LdrgOptions, MomentOracle, Objective, TransientOracle,
};
use ntr_elmore::ElmoreAnalysis;
use ntr_graph::{prim_mst, NodeId, RoutingGraph, TreeView};
use ntr_sparse::{LuWorkspace, Ordering, SparseLu, TripletMatrix};

/// One named benchmark: what it measures and how long to run it.
pub struct Workload {
    /// Registry key; artifact files are named `BENCH_<name>.json`.
    pub name: &'static str,
    /// One-line description for `--list` and the report table.
    pub description: &'static str,
    /// Measured iterations in a full run.
    pub iters: usize,
    /// Measured iterations under `--quick`.
    pub quick_iters: usize,
    /// Warmup iterations (run, timed, discarded) before measuring.
    pub warmup: usize,
    run: fn(iters: usize, warmup: usize) -> Vec<f64>,
}

impl Workload {
    /// Runs the workload and returns per-iteration wall times in
    /// nanoseconds (`iters` samples after `warmup` discarded ones).
    #[must_use]
    pub fn run(&self, quick: bool) -> Vec<f64> {
        let iters = if quick { self.quick_iters } else { self.iters };
        // Quick mode trims measurement, not stabilization: with only a
        // handful of samples, a cold first iteration shifts the median.
        let warmup = if quick {
            self.warmup.min(3)
        } else {
            self.warmup
        };
        (self.run)(iters, warmup)
    }
}

/// Times `body` for `warmup + iters` calls, returning the last `iters`
/// wall times in nanoseconds.
fn time_iters(iters: usize, warmup: usize, mut body: impl FnMut()) -> Vec<f64> {
    let mut samples = Vec::with_capacity(iters);
    for i in 0..warmup + iters {
        let start = Instant::now();
        body();
        let elapsed = start.elapsed().as_nanos() as f64;
        if i >= warmup {
            samples.push(elapsed);
        }
    }
    samples
}

/// All node pairs an LDRG iteration would trial on `graph`.
fn ldrg_candidates(graph: &RoutingGraph) -> Vec<Candidate> {
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

/// The RC-chain conductance matrix the sparse-LU workloads factor.
fn rc_chain(n: usize) -> TripletMatrix {
    let mut t = TripletMatrix::new(n, n);
    for i in 0..n {
        t.push(i, i, 2.5);
        if i + 1 < n {
            t.push(i, i + 1, -1.0);
            t.push(i + 1, i, -1.0);
        }
    }
    t
}

fn run_ldrg_iteration(iters: usize, warmup: usize) -> Vec<f64> {
    let tech = Technology::date94();
    let mst = prim_mst(&bench_net(20));
    let oracle = MomentOracle::new(tech);
    let candidates = ldrg_candidates(&mst);
    let mut engine = candidate_oracle_for(&oracle);
    time_iters(iters, warmup, || {
        engine.prepare(&mst).expect("graph extracts");
        sweep_candidates(engine.as_ref(), &candidates, &Objective::MaxDelay, 1, None)
            .expect("candidates score");
    })
}

fn run_sweep_score(iters: usize, warmup: usize) -> Vec<f64> {
    let tech = Technology::date94();
    let mst = prim_mst(&bench_net(20));
    let oracle = MomentOracle::new(tech);
    let candidates = ldrg_candidates(&mst);
    let mut engine = candidate_oracle_for(&oracle);
    engine.prepare(&mst).expect("graph extracts");
    time_iters(iters, warmup, || {
        sweep_candidates(engine.as_ref(), &candidates, &Objective::MaxDelay, 1, None)
            .expect("candidates score");
    })
}

fn run_sparse_lu_factor(iters: usize, warmup: usize) -> Vec<f64> {
    let csc = rc_chain(200).to_csc();
    time_iters(iters, warmup, || {
        std::hint::black_box(SparseLu::factor(&csc, Ordering::MinDegree).expect("nonsingular"));
    })
}

fn run_sparse_lu_refactor(iters: usize, warmup: usize) -> Vec<f64> {
    let csc = rc_chain(200).to_csc();
    let lu = SparseLu::factor(&csc, Ordering::MinDegree).expect("nonsingular");
    time_iters(iters, warmup, || {
        std::hint::black_box(lu.refactor(&csc).expect("same pattern"));
    })
}

fn run_triangular_solve(iters: usize, warmup: usize) -> Vec<f64> {
    let csc = rc_chain(200).to_csc();
    let mut ws = LuWorkspace::new();
    let lu = SparseLu::factor_with(&csc, Ordering::MinDegree, &mut ws).expect("nonsingular");
    let mut x = vec![0.0f64; 200];
    time_iters(iters, warmup, || {
        // 16 dependent solves per sample: one solve is well under a
        // microsecond, so batching keeps timer noise out of the signal.
        for _ in 0..16 {
            for (i, v) in x.iter_mut().enumerate() {
                *v = 1.0 + (i % 7) as f64;
            }
            lu.solve_in_place_with(&mut x, &mut ws).expect("solves");
            std::hint::black_box(&mut x);
        }
    })
}

fn run_moment_sweep(iters: usize, warmup: usize) -> Vec<f64> {
    use ntr_circuit::{extract, ExtractOptions};
    use ntr_spice::elmore_delays;

    // One from-scratch moment evaluation: extract a routing and compute
    // its graph Elmore delays (one factorization + two solves). This is
    // what `MomentOracle::evaluate` costs, not an incremental candidate
    // score (`sweep_score` times those).
    let tech = Technology::date94();
    let mst = prim_mst(&bench_net(20));
    let opts = ExtractOptions::default();
    time_iters(iters, warmup, || {
        let extracted = extract(&mst, &tech, &opts).expect("extracts");
        std::hint::black_box(elmore_delays(&extracted).expect("moments solve"));
    })
}

fn run_elmore_eval(iters: usize, warmup: usize) -> Vec<f64> {
    let tech = Technology::date94();
    let mst = prim_mst(&bench_net(100));
    time_iters(iters, warmup, || {
        let tree = TreeView::new(&mst).expect("mst is a tree");
        std::hint::black_box(ElmoreAnalysis::compute(&tree, &tech).max_sink_delay());
    })
}

fn run_route_end_to_end(iters: usize, warmup: usize) -> Vec<f64> {
    let tech = Technology::date94();
    let net = bench_net(10);
    let oracle = TransientOracle::fast(tech);
    time_iters(iters, warmup, || {
        let mst = prim_mst(&net);
        std::hint::black_box(
            ldrg_with(&mst, &oracle, &LdrgOptions::default()).expect("net routes"),
        );
    })
}

fn run_candidate_gen_1k(iters: usize, warmup: usize) -> Vec<f64> {
    // The tentpole cost at 1k pins: grid-index construction, Gabriel
    // proximity graph, k-NN partner lists, and one pruned candidate
    // pass. A fresh generator per iteration makes the index build part
    // of the measurement (it is amortized in production, but its cost
    // is exactly what this workload tracks).
    let mst = prim_mst(&bench_net(1_000));
    time_iters(iters, warmup, || {
        let mut generator = CandidateGenerator::new(CandidateGen::pruned(8));
        std::hint::black_box(generator.generate(&mst).len());
    })
}

fn run_route_1k_pins(iters: usize, warmup: usize) -> Vec<f64> {
    // Pruned-mode LDRG at 1k pins: prepare (extract + factor), one
    // pruned candidate sweep (~k·n rank-1 scores), commit, re-prepare.
    // The exhaustive universe here would be ~500k candidates — this
    // workload only exists because pruning makes the net routable.
    let tech = Technology::date94();
    let net = bench_net(1_000);
    let oracle = MomentOracle::new(tech);
    let opts = LdrgOptions {
        max_added_edges: 1,
        candidates: CandidateGen::pruned(8),
        ..Default::default()
    };
    time_iters(iters, warmup, || {
        let mst = prim_mst(&net);
        std::hint::black_box(ldrg_with(&mst, &oracle, &opts).expect("net routes"));
    })
}

fn run_candidate_gen_10k(iters: usize, warmup: usize) -> Vec<f64> {
    // The 10k-pin acceptance workload: index build plus the first full
    // LDRG iteration (prepare + pruned sweep) on a 10,000-pin net. A
    // smaller k than the 1k workloads keeps the sweep proportionate —
    // at this scale each rank-1 score runs against a ~10k-unknown
    // factorization.
    let tech = Technology::date94();
    let mst = prim_mst(&bench_net(10_000));
    let oracle = MomentOracle::new(tech);
    time_iters(iters, warmup, || {
        let mut generator = CandidateGenerator::new(CandidateGen::Pruned {
            k_nearest: 2,
            include_tree_neighbors: false,
        });
        generator.generate(&mst);
        let mut engine = candidate_oracle_for(&oracle);
        engine.prepare(&mst).expect("graph extracts");
        let scores = sweep_candidates(
            engine.as_ref(),
            generator.candidates(),
            &Objective::MaxDelay,
            0,
            None,
        )
        .expect("candidates score");
        std::hint::black_box(scores.len());
    })
}

fn run_incremental_reroute(iters: usize, warmup: usize) -> Vec<f64> {
    use ntr_core::{Algorithm, Budget, DeltaOp, RoutingSession};
    use ntr_geom::Point;

    // The per-delta cost of a live session: one single-pin move plus the
    // reroute that serves it. The move alternates between two nearby
    // offsets so every iteration has exactly one pending delta and the
    // same-pattern refactor path (numeric refactor + solve, no symbolic
    // work, no candidate sweep) answers it. This is the latency the
    // session subsystem exists to beat `route_end_to_end` on.
    let net = bench_net(10);
    let (mut session, _) =
        RoutingSession::create(&net, Algorithm::Ldrg, Budget::new(Technology::date94()))
            .expect("net routes");
    let base = session.pins()[3];
    let mut flip = false;
    time_iters(iters, warmup, || {
        let dx = if flip { 20.0 } else { 40.0 };
        flip = !flip;
        session
            .mutate(DeltaOp::MovePin {
                pin: 3,
                to: Point::new(base.x + dx, base.y),
            })
            .expect("valid move");
        let report = session.reroute().expect("session reroutes");
        std::hint::black_box(report.outcome.final_delay);
    })
}

fn run_server_round_trip(iters: usize, warmup: usize) -> Vec<f64> {
    use ntr_server::proto::{Algorithm, OracleKind, RouteRequest};
    use ntr_server::service::{Service, ServiceConfig};

    let net = bench_net(10);
    let service = Service::start(&ServiceConfig {
        workers: 1,
        queue_depth: 4,
        tech: Technology::date94(),
        ..ServiceConfig::default()
    });
    let samples = time_iters(iters, warmup, || {
        let (tx, rx) = std::sync::mpsc::channel();
        service.submit(
            RouteRequest {
                id: None,
                algorithm: Algorithm::parse("mst").expect("mst is an algorithm"),
                oracle: OracleKind::TransientFast,
                pins: net.pins().to_vec(),
                deadline: None,
                max_added_edges: 0,
                // The cache would turn every iteration after the first
                // into a lookup; bypass it so each round trip routes.
                use_cache: false,
                retries: 0,
                degrade: false,
                candidates: ntr_core::CandidateGen::Exhaustive,
            },
            Box::new(move |response| {
                let _ = tx.send(response);
            }),
        );
        let response = rx.recv().expect("service responds");
        assert!(
            response.get("ok") == Some(&ntr_obs::Json::Bool(true)),
            "round trip failed: {}",
            response.to_line()
        );
    });
    service.shutdown();
    samples
}

/// Every registered workload, in display order.
#[must_use]
pub fn registry() -> Vec<Workload> {
    vec![
        Workload {
            name: "ldrg_iteration",
            description: "full LDRG candidate pass on a 20-pin MST (prepare + sweep)",
            iters: 30,
            quick_iters: 8,
            warmup: 3,
            run: run_ldrg_iteration,
        },
        Workload {
            name: "sweep_score",
            description: "sweep kernel alone on a prepared 20-pin engine",
            iters: 40,
            quick_iters: 10,
            warmup: 4,
            run: run_sweep_score,
        },
        Workload {
            name: "sparse_lu_factor",
            description: "sparse LU factor of a 200-node RC chain",
            iters: 200,
            quick_iters: 20,
            warmup: 10,
            run: run_sparse_lu_factor,
        },
        Workload {
            name: "sparse_lu_refactor",
            description: "numeric-only LU refactor, reusing the symbolic pattern",
            iters: 200,
            quick_iters: 20,
            warmup: 10,
            run: run_sparse_lu_refactor,
        },
        Workload {
            name: "triangular_solve",
            description: "16 forward/back triangular solves on a cached 200-node LU",
            iters: 200,
            quick_iters: 20,
            warmup: 10,
            run: run_triangular_solve,
        },
        Workload {
            name: "moment_sweep",
            description: "extract + graph-Elmore moment solve of a 20-pin MST (from scratch)",
            iters: 100,
            quick_iters: 15,
            warmup: 5,
            run: run_moment_sweep,
        },
        Workload {
            name: "elmore_eval",
            description: "Elmore delay analysis of a 100-pin MST",
            iters: 200,
            quick_iters: 20,
            warmup: 10,
            run: run_elmore_eval,
        },
        Workload {
            name: "route_end_to_end",
            description: "whole ldrg route of a 10-pin net with the fast transient oracle",
            iters: 12,
            quick_iters: 5,
            warmup: 2,
            run: run_route_end_to_end,
        },
        Workload {
            name: "incremental_reroute",
            description: "session single-pin-move delta reroute (same-pattern refactor path)",
            iters: 60,
            quick_iters: 12,
            warmup: 5,
            run: run_incremental_reroute,
        },
        Workload {
            name: "server_round_trip",
            description: "in-process service round trip (submit mst route, await response)",
            iters: 30,
            quick_iters: 8,
            warmup: 3,
            run: run_server_round_trip,
        },
        Workload {
            name: "candidate_gen_1k",
            description: "spatial index build + pruned candidate generation on a 1k-pin MST",
            iters: 20,
            quick_iters: 5,
            warmup: 2,
            run: run_candidate_gen_1k,
        },
        Workload {
            name: "route_1k_pins",
            description: "pruned-mode LDRG iteration (k=8) on a 1k-pin net, moment oracle",
            iters: 10,
            quick_iters: 3,
            warmup: 1,
            run: run_route_1k_pins,
        },
        Workload {
            name: "candidate_gen_10k",
            description: "index build + first pruned LDRG iteration on a 10k-pin net",
            iters: 2,
            quick_iters: 1,
            warmup: 0,
            run: run_candidate_gen_10k,
        },
    ]
}

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<Workload> {
    registry().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_nonempty() {
        let reg = registry();
        assert!(reg.len() >= 6, "acceptance needs >= 6 workloads");
        let mut names: Vec<_> = reg.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len(), "duplicate workload name");
        for w in &reg {
            assert!(w.iters > w.quick_iters, "{}: quick must be smaller", w.name);
            assert!(w.quick_iters > 0, "{}: quick must measure", w.name);
        }
    }

    #[test]
    fn quick_run_produces_the_budgeted_samples() {
        // The cheapest workload end to end, as a smoke test.
        let w = find("sparse_lu_refactor").expect("registered");
        let samples = w.run(true);
        assert_eq!(samples.len(), w.quick_iters);
        assert!(samples.iter().all(|&s| s > 0.0));
    }
}
