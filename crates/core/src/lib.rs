//! Non-tree routing: the algorithms of McCoy & Robins (DATE 1994).
//!
//! Classical routers insist that a signal net's topology be a **tree**.
//! This crate implements the paper's alternative: start from a good tree
//! and add cycle-forming wires whenever the resulting drop in source–sink
//! *resistance* buys more delay than the added wire *capacitance* costs.
//!
//! # The algorithms
//!
//! | item | paper section | function/type |
//! |---|---|---|
//! | Optimal Routing Graph (ORG) objective | §2 | [`Objective`], [`DelayOracle`] |
//! | LDRG greedy edge addition | §3, Fig. 4 | [`ldrg_with`] |
//! | SLDRG (Steiner variant) | §3, Fig. 6 | [`sldrg_with`] |
//! | H1 (iterated SPICE-guided source edge) | §3 | [`h1_with`] |
//! | H2 (Elmore-guided source edge) | §3 | [`h2_with`] |
//! | H3 (pathlength×Elmore/length rule) | §3 | [`h3_with`] |
//! | ERT-based LDRG | §4, Table 7 | [`ldrg_with`] over [`ntr_ert::elmore_routing_tree`] |
//! | CSORG (critical sinks) | §5.1 | [`Objective::Weighted`] |
//! | WSORG (wire sizing) | §5.2 | [`wire_size`] |
//! | HORG (everything combined) | §5.3 | [`horg`] |
//!
//! # Delay oracles
//!
//! The greedy loops are generic over how delay is measured:
//!
//! - [`TransientOracle`] — full transient simulation (the paper's SPICE
//!   runs): accurate, works on any graph, most expensive.
//! - [`MomentOracle`] — exact first moment (graph Elmore) or the D2M
//!   two-moment metric via one sparse solve: the fast graph-capable model.
//! - [`TreeElmoreOracle`] — the O(k) tree-only formula used by H2/H3.
//!
//! # Unified dispatch and resilience
//!
//! [`route_one`] routes one net through any [`Algorithm`] under a
//! [`Budget`] and returns a single [`RoutingOutcome`]. On top of the
//! legacy entry points it adds the serving resilience layer: a
//! [`Fidelity`] ladder the dispatch descends instead of failing when the
//! deadline budget runs out, retry with jittered backoff
//! ([`RetryPolicy`]) for transient oracle failures, and deterministic
//! fault injection ([`FaultPlan`]) so both paths are testable.
//!
//! # Examples
//!
//! The headline experiment — improve an MST by adding one wire:
//!
//! ```
//! use ntr_circuit::Technology;
//! use ntr_core::{ldrg_with, LdrgOptions, TransientOracle};
//! use ntr_geom::{Layout, NetGenerator};
//! use ntr_graph::prim_mst;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = NetGenerator::new(Layout::date94(), 7).random_net(10)?;
//! let mst = prim_mst(&net);
//! let oracle = TransientOracle::new(Technology::date94());
//! let result = ldrg_with(&mst, &oracle, &LdrgOptions { max_added_edges: 1, ..Default::default() })?;
//! // The routing graph never gets worse than the tree it started from.
//! assert!(result.final_delay() <= result.initial_delay);
//! assert!(result.graph.is_connected());
//! # Ok(())
//! # }
//! ```

mod cancel;
mod candidates;
mod exact;
mod faults;
mod fidelity;
mod hashkey;
mod heuristics;
mod horg;
mod ldrg;
mod netlist;
mod objective;
mod oracle;
mod pool;
mod retry;
mod routing;
mod session;
mod sldrg;
mod sweep;
mod trim;
mod wsorg;

pub use cancel::{CancelToken, Cancelled};
pub use candidates::{CandidateGen, CandidateGenerator};
pub use exact::{exact_org, ExactOrgError};
pub use faults::{FaultPlan, FaultScope, FaultingOracle, InjectedFault};
pub use fidelity::{Fidelity, FidelityCosts};
pub use hashkey::{canonical_net_hash, Fnv64};
pub use heuristics::{h1_with, h2_with, h3_with, HeuristicOptions, HeuristicResult};
pub use horg::{horg, HorgOptions, HorgResult};
pub use ldrg::{ldrg_with, IterationRecord, LdrgOptions, LdrgResult};
pub use netlist::{route_netlist, NetlistRouteOptions, RoutedNet};
pub use objective::Objective;
pub use oracle::{
    DelayOracle, DelayReport, MomentMetric, MomentOracle, OracleError, TransientOracle,
    TreeElmoreOracle,
};
pub use pool::{Scope, WorkerPool};
pub use retry::RetryPolicy;
pub use routing::{route_one, Algorithm, Budget, DegradePolicy, RouteError, RoutingOutcome};
pub use session::{
    DeltaOp, ReroutePath, RerouteReport, RoutingSession, SessionError, SessionStats,
};
pub use sldrg::sldrg_with;
pub use sweep::{
    best_below, candidate_oracle_for, sweep_candidates, Candidate, CandidateOracle,
    IncrementalMomentOracle, OracleStats, ScratchOracle,
};
pub use trim::{trim_redundant_edges, TrimOptions, TrimResult};
pub use wsorg::{wire_size, wire_size_guided, WireSizeOptions, WireSizeResult};
