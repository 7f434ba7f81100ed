//! Incremental rerouting sessions: stateful delta-routing over a live
//! net.
//!
//! The paper's non-tree augmentation is inherently incremental — every
//! accepted edge is a rank-1 update of an already-factored system — but
//! the stateless entry points ([`route_one`], [`ldrg_with`]) rebuild
//! that factorization for every request. A [`RoutingSession`] keeps the
//! state alive between requests: the net, the current topology, the last
//! LU factorization with its symbolic pattern, and the spatial
//! [`GridIndex`] over pins and Steiner points. Delta ops
//! ([`RoutingSession::mutate`]) then cost only what they actually
//! invalidate:
//!
//! | delta | sparsity pattern | [`reroute`](RoutingSession::reroute) path |
//! |---|---|---|
//! | none pending | unchanged | `Quiescent` — cached outcome, no solve |
//! | one `add_edge` | unchanged (trial wire) | `Rank1` — Sherman–Morrison against cached factors |
//! | `move_pin`(s) | unchanged (values only)¹ | `Refactor` — same-pattern numeric refactorization |
//! | anything else | grows/shrinks | `Scratch` — from-scratch [`route_one`] |
//!
//! ¹ unless an edge length crosses a segmentation boundary, which the
//! refactorization detects (`PatternMismatch`/`DimensionMismatch`) and
//! the session answers by falling to `Scratch` — the ladder never
//! guesses.
//!
//! This is the dynamic-multicast scenario (terminals joining and leaving
//! a live net): a joining pin is pattern growth and re-derives the
//! topology from scratch; everything short of that reuses the work the
//! previous route already paid for.
//!
//! # Equivalence contract
//!
//! - A `Scratch` reroute is **bit-identical** to calling [`route_one`]
//!   on the mutated net with the session's budget — it *is* that call.
//! - `Rank1` and `Refactor` reroutes keep the retained topology and
//!   report the exact graph-Elmore delay of it: within 1e-9 relative of
//!   re-extracting the same graph and running
//!   [`Moments::compute`](ntr_spice::Moments) from scratch.
//!
//! The release-mode equivalence suite (`tests/session.rs`) pins both
//! claims over 20 seeded nets × mutation sequences.

use std::error::Error;
use std::fmt;

use ntr_circuit::{extract, ExtractOptions, Extracted};
use ntr_geom::{GridIndex, Net, Point};
use ntr_graph::{NodeId, RoutingGraph};
use ntr_sparse::SolveError;
use ntr_spice::{MomentEngine, SimError};

use crate::{
    route_one, Algorithm, Budget, CancelToken, IterationRecord, OracleError, OracleStats,
    RouteError, RoutingOutcome,
};

/// One mutation of a live session's net or topology.
///
/// Pins are addressed by **net pin index** (0 is the source; sinks are
/// `1..len`). [`DeltaOp::RemovePin`] shifts the indices of later pins
/// down by one, exactly like `Vec::remove` — the protocol layer
/// documents the same rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeltaOp {
    /// A terminal joins the net at `0` (dynamic multicast "join").
    AddPin(Point),
    /// Pin `pin` moves to a new location (placement update).
    MovePin {
        /// Net pin index.
        pin: usize,
        /// New location.
        to: Point,
    },
    /// A terminal leaves the net (dynamic multicast "leave"). The source
    /// (pin 0) cannot be removed.
    RemovePin {
        /// Net pin index.
        pin: usize,
    },
    /// An explicit non-tree edge between two pins of the retained
    /// topology.
    AddEdge {
        /// Net pin index of one endpoint.
        a: usize,
        /// Net pin index of the other endpoint.
        b: usize,
    },
    /// Remove the direct edge between two pins. The next reroute
    /// re-derives the topology from scratch (the delay argument that
    /// justified every other edge may no longer hold).
    RemoveEdge {
        /// Net pin index of one endpoint.
        a: usize,
        /// Net pin index of the other endpoint.
        b: usize,
    },
}

/// Why a [`RoutingSession::mutate`] was rejected. The session state is
/// unchanged after any error — mutations are validated before they are
/// applied.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// A pin index past the end of the net.
    PinOutOfRange {
        /// The offending index.
        pin: usize,
        /// Current pin count.
        len: usize,
    },
    /// The op would place two pins on exactly the same point.
    DuplicatePin(Point),
    /// The source (pin 0) cannot be removed.
    SourceRemoval,
    /// Removing the pin would leave fewer than two pins.
    TooFewPins,
    /// Both endpoints are the same pin.
    SelfEdge {
        /// The offending index.
        pin: usize,
    },
    /// The edge already exists in the retained topology.
    EdgeExists {
        /// One endpoint.
        a: usize,
        /// Other endpoint.
        b: usize,
    },
    /// No direct edge between the two pins.
    NoSuchEdge {
        /// One endpoint.
        a: usize,
        /// Other endpoint.
        b: usize,
    },
    /// Edge ops need a current topology; after `add_pin`/`remove_pin`
    /// the topology is stale until the next reroute re-derives it.
    NoTopology,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::PinOutOfRange { pin, len } => {
                write!(f, "pin {pin} out of range (net has {len} pins)")
            }
            SessionError::DuplicatePin(p) => {
                write!(f, "a pin already sits at ({}, {})", p.x, p.y)
            }
            SessionError::SourceRemoval => write!(f, "the source (pin 0) cannot be removed"),
            SessionError::TooFewPins => write!(f, "removing the pin would leave fewer than 2 pins"),
            SessionError::SelfEdge { pin } => write!(f, "edge endpoints are the same pin {pin}"),
            SessionError::EdgeExists { a, b } => write!(f, "edge {a}-{b} already exists"),
            SessionError::NoSuchEdge { a, b } => write!(f, "no direct edge {a}-{b}"),
            SessionError::NoTopology => {
                write!(f, "no current topology (pin set changed); reroute first")
            }
        }
    }
}

impl Error for SessionError {}

/// Which rung of the decision ladder answered a reroute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReroutePath {
    /// No pending deltas: the cached outcome, no solve at all.
    Quiescent,
    /// Sherman–Morrison rank-1 evaluation against the cached LU factors.
    Rank1,
    /// Same-pattern numeric refactorization of the cached factorization.
    Refactor,
    /// From-scratch [`route_one`] on the mutated net.
    Scratch,
}

impl ReroutePath {
    /// Wire/telemetry name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ReroutePath::Quiescent => "quiescent",
            ReroutePath::Rank1 => "rank1",
            ReroutePath::Refactor => "refactor",
            ReroutePath::Scratch => "scratch",
        }
    }
}

impl fmt::Display for ReroutePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The result of one [`RoutingSession::reroute`]: the routing outcome
/// plus which ladder rung produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct RerouteReport {
    /// The routing result for the mutated net.
    pub outcome: RoutingOutcome,
    /// The ladder rung that answered.
    pub path: ReroutePath,
}

/// Monotone per-session counters, mirrored into the server's session
/// telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Accepted mutations.
    pub mutations: u64,
    /// Total reroute calls.
    pub reroutes: u64,
    /// Reroutes answered from the cache (no pending deltas).
    pub quiescent: u64,
    /// Reroutes answered by the rank-1 path.
    pub rank1: u64,
    /// Reroutes answered by same-pattern refactorization.
    pub refactor: u64,
    /// Reroutes that fell to from-scratch [`route_one`].
    pub scratch: u64,
}

/// The cached incremental state: the extraction of the current topology
/// and the moment engine holding its LU factorization (symbolic pattern
/// + numeric factors).
struct Prepared {
    extracted: Extracted,
    engine: MomentEngine,
}

/// How the pending delta batch is answered.
enum Ladder {
    Rank1 { a: usize, b: usize },
    Refactor,
    Scratch,
}

/// A stateful incremental rerouting session over one net. See the module
/// docs of `session.rs` for the decision ladder and equivalence contract.
pub struct RoutingSession {
    algorithm: Algorithm,
    budget: Budget,
    extract_opts: ExtractOptions,
    pins: Vec<Point>,
    /// The retained topology; `None` while the pin set has changed and
    /// no reroute has re-derived it yet.
    graph: Option<RoutingGraph>,
    prepared: Option<Prepared>,
    /// Spatial index over the pins and the retained topology's Steiner
    /// points: pins are inserted incrementally on `add_pin`, Steiner
    /// points incrementally after each scratch reroute.
    index: GridIndex,
    pending: Vec<DeltaOp>,
    last: Option<RoutingOutcome>,
    stats: SessionStats,
}

impl RoutingSession {
    /// Opens a session by routing `net` from scratch under `budget`, and
    /// returns it together with the initial outcome.
    ///
    /// # Errors
    ///
    /// Propagates [`RouteError`] from the initial [`route_one`].
    pub fn create(
        net: &Net,
        algorithm: Algorithm,
        budget: Budget,
    ) -> Result<(Self, RoutingOutcome), RouteError> {
        let outcome = route_one(net, algorithm, &budget)?;
        let mut session = Self {
            algorithm,
            budget,
            extract_opts: ExtractOptions::default(),
            pins: net.pins().to_vec(),
            graph: Some(outcome.graph.clone()),
            prepared: None,
            index: GridIndex::build(net.pins()),
            pending: Vec::new(),
            last: Some(outcome.clone()),
            stats: SessionStats::default(),
        };
        session.insert_steiner_points();
        Ok((session, outcome))
    }

    /// The session's algorithm.
    #[must_use]
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The session's budget (the one every `Scratch` reroute runs
    /// under).
    #[must_use]
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Replaces the budget's cancel token — the hook the serving layer
    /// uses to combine the per-session token with a per-request
    /// deadline.
    pub fn set_cancel(&mut self, cancel: CancelToken) {
        self.budget.cancel = cancel;
    }

    /// Current pin locations (pin 0 is the source).
    #[must_use]
    pub fn pins(&self) -> &[Point] {
        &self.pins
    }

    /// The retained topology, when current.
    #[must_use]
    pub fn graph(&self) -> Option<&RoutingGraph> {
        self.graph.as_ref()
    }

    /// The most recent outcome.
    #[must_use]
    pub fn last_outcome(&self) -> Option<&RoutingOutcome> {
        self.last.as_ref()
    }

    /// Number of pending (not yet rerouted) deltas.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Per-session counters.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The `k` nearest indexed points (pins + retained Steiner points)
    /// to `p`, as `(index-slot, distance)` pairs — the spatial query a
    /// client uses to pick edge endpoints near a hotspot.
    #[must_use]
    pub fn nearest_nodes(&self, p: Point, k: usize) -> Vec<(u32, f64)> {
        self.index.k_nearest(p, k)
    }

    /// Applies one delta. Validation happens before any state changes,
    /// so a rejected mutation leaves the session untouched.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError`] when the delta is inconsistent with the
    /// session's current state.
    pub fn mutate(&mut self, op: DeltaOp) -> Result<(), SessionError> {
        match op {
            DeltaOp::AddPin(p) => {
                if self.pins.contains(&p) {
                    return Err(SessionError::DuplicatePin(p));
                }
                self.pins.push(p);
                self.index.insert(p);
                // The retained topology does not span the new pin: stale
                // until the next (scratch) reroute re-derives it.
                self.graph = None;
                self.prepared = None;
            }
            DeltaOp::MovePin { pin, to } => {
                self.check_pin(pin)?;
                if self
                    .pins
                    .iter()
                    .enumerate()
                    .any(|(i, q)| i != pin && *q == to)
                {
                    return Err(SessionError::DuplicatePin(to));
                }
                self.pins[pin] = to;
                if let Some(graph) = &mut self.graph {
                    let node = pin_node(graph, pin);
                    graph.move_node(node, to).expect("pin node is a valid node");
                }
                self.rebuild_index();
            }
            DeltaOp::RemovePin { pin } => {
                self.check_pin(pin)?;
                if pin == 0 {
                    return Err(SessionError::SourceRemoval);
                }
                if self.pins.len() <= 3 {
                    return Err(SessionError::TooFewPins);
                }
                self.pins.remove(pin);
                self.graph = None;
                self.prepared = None;
                self.rebuild_index();
            }
            DeltaOp::AddEdge { a, b } => {
                self.check_pin(a)?;
                self.check_pin(b)?;
                if a == b {
                    return Err(SessionError::SelfEdge { pin: a });
                }
                let graph = self.graph.as_ref().ok_or(SessionError::NoTopology)?;
                if graph.has_edge(pin_node(graph, a), pin_node(graph, b)) {
                    return Err(SessionError::EdgeExists { a, b });
                }
            }
            DeltaOp::RemoveEdge { a, b } => {
                self.check_pin(a)?;
                self.check_pin(b)?;
                if a == b {
                    return Err(SessionError::SelfEdge { pin: a });
                }
                let graph = self.graph.as_mut().ok_or(SessionError::NoTopology)?;
                let (na, nb) = (pin_node(graph, a), pin_node(graph, b));
                let edge = graph
                    .neighbors(na)
                    .expect("pin node is a valid node")
                    .iter()
                    .find_map(|&(n, e)| (n == nb).then_some(e))
                    .ok_or(SessionError::NoSuchEdge { a, b })?;
                graph.remove_edge(edge).expect("edge id is live");
                // The circuit lost the edge's segment nodes: the cached
                // pattern no longer matches.
                self.prepared = None;
            }
        }
        self.pending.push(op);
        self.stats.mutations += 1;
        Ok(())
    }

    /// Routes the mutated net, choosing the cheapest rung of the
    /// decision ladder that is still exact (see the module docs of
    /// `session.rs`). The chosen rung is reported so callers (and the
    /// serving telemetry) can see what the session actually paid.
    ///
    /// # Errors
    ///
    /// Propagates [`RouteError`] — including cancellation through the
    /// budget's token. Incremental paths that fail for structural
    /// reasons (pattern growth, segmentation boundary) fall to `Scratch`
    /// silently; only real errors surface.
    pub fn reroute(&mut self) -> Result<RerouteReport, RouteError> {
        let _span = ntr_obs::span("session.reroute");
        self.stats.reroutes += 1;
        self.budget.cancel.check().map_err(OracleError::from)?;
        if self.pending.is_empty() {
            if let Some(last) = &self.last {
                self.stats.quiescent += 1;
                return Ok(RerouteReport {
                    outcome: last.clone(),
                    path: ReroutePath::Quiescent,
                });
            }
        }
        match self.classify() {
            Ladder::Rank1 { a, b } => {
                if let Some(report) = self.try_rank1(a, b)? {
                    self.stats.rank1 += 1;
                    return Ok(report);
                }
            }
            Ladder::Refactor => {
                if let Some(report) = self.try_refactor()? {
                    self.stats.refactor += 1;
                    return Ok(report);
                }
            }
            Ladder::Scratch => {}
        }
        self.stats.scratch += 1;
        self.scratch()
    }

    /// Picks the ladder rung for the pending batch.
    fn classify(&self) -> Ladder {
        if self.graph.is_none() {
            return Ladder::Scratch;
        }
        match self.pending.as_slice() {
            [DeltaOp::AddEdge { a, b }] => Ladder::Rank1 { a: *a, b: *b },
            ops if ops.iter().all(|op| matches!(op, DeltaOp::MovePin { .. })) => Ladder::Refactor,
            _ => Ladder::Scratch,
        }
    }

    /// Rank-1 rung: score the trial wire by Sherman–Morrison against the
    /// cached factors, then materialize it. Returns `Ok(None)` to fall
    /// to `Scratch` on structural failure.
    fn try_rank1(&mut self, a: usize, b: usize) -> Result<Option<RerouteReport>, RouteError> {
        let _span = ntr_obs::span("session.rank1");
        if self.ensure_prepared().is_err() {
            return Ok(None);
        }
        let graph = self.graph.as_ref().expect("classify checked the graph");
        let prepared = self.prepared.as_ref().expect("just ensured");
        let (na, nb) = (pin_node(graph, a), pin_node(graph, b));
        let Ok(wire) = prepared.extracted.candidate_wire(
            graph,
            &self.budget.tech,
            &self.extract_opts,
            na,
            nb,
            1.0,
        ) else {
            return Ok(None);
        };
        let Ok(probes) = prepared
            .engine
            .wire_moments(&wire, &prepared.extracted.sink_nodes)
        else {
            return Ok(None);
        };
        let delay = probes.iter().map(|p| p.elmore()).fold(0.0, f64::max);

        let graph = self.graph.as_mut().expect("classify checked the graph");
        let edge = graph.add_edge(na, nb).expect("validated at mutate");
        let cost = graph.total_cost();
        let record = IterationRecord {
            added: (na, nb),
            edge,
            delay,
            cost,
        };
        // The committed edge is not in the cached pattern: re-prepare
        // lazily on the next incremental reroute.
        self.prepared = None;
        let stats = OracleStats {
            evaluations: 1,
            rank1_solves: 1,
            ..OracleStats::default()
        };
        Ok(Some(self.commit_incremental(
            delay,
            vec![record],
            stats,
            ReroutePath::Rank1,
        )))
    }

    /// Refactor rung: re-extract the moved topology and replay the
    /// cached factorization's symbolic pattern with the new values.
    /// Returns `Ok(None)` to fall to `Scratch` when the pattern moved
    /// (segmentation boundary) or on any structural failure.
    fn try_refactor(&mut self) -> Result<Option<RerouteReport>, RouteError> {
        let _span = ntr_obs::span("session.refactor");
        let graph = self.graph.as_ref().expect("classify checked the graph");
        let Ok(extracted) = extract(graph, &self.budget.tech, &self.extract_opts) else {
            return Ok(None);
        };
        let engine = match self.prepared.as_ref() {
            Some(prepared) => match prepared.engine.refactored_same_pattern(&extracted.circuit) {
                Ok(engine) => engine,
                Err(SimError::Solve(
                    SolveError::PatternMismatch { .. } | SolveError::DimensionMismatch { .. },
                )) => return Ok(None),
                Err(_) => return Ok(None),
            },
            // No cached factorization (first incremental reroute, or a
            // rank-1 commit invalidated it): factor fresh — still no
            // candidate sweep, so still far cheaper than Scratch.
            None => match MomentEngine::new(&extracted.circuit, 1) {
                Ok(engine) => engine,
                Err(_) => return Ok(None),
            },
        };
        let Ok(probes) = engine.base_probe_moments(&extracted.sink_nodes) else {
            return Ok(None);
        };
        let delay = probes.iter().map(|p| p.elmore()).fold(0.0, f64::max);
        let stats = OracleStats {
            evaluations: 1,
            factorizations: 1,
            ..OracleStats::default()
        };
        self.prepared = Some(Prepared { extracted, engine });
        Ok(Some(self.commit_incremental(
            delay,
            Vec::new(),
            stats,
            ReroutePath::Refactor,
        )))
    }

    /// Builds the incremental-path outcome from the session's current
    /// graph and caches it.
    fn commit_incremental(
        &mut self,
        delay: f64,
        iterations: Vec<IterationRecord>,
        stats: OracleStats,
        path: ReroutePath,
    ) -> RerouteReport {
        let graph = self.graph.clone().expect("incremental paths keep a graph");
        let (initial_delay, initial_cost) =
            self.last.as_ref().map_or((delay, graph.total_cost()), |o| {
                (o.final_delay, o.final_cost)
            });
        let final_cost = graph.total_cost();
        let outcome = RoutingOutcome {
            graph,
            initial_delay,
            final_delay: delay,
            initial_cost,
            final_cost,
            added_edges: iterations.len(),
            iterations,
            stats,
            // Incremental rungs always measure with the moment engine.
            fidelity: crate::Fidelity::Moment,
            requested_fidelity: crate::Fidelity::Moment,
            retries: 0,
        };
        self.pending.clear();
        self.last = Some(outcome.clone());
        RerouteReport { outcome, path }
    }

    /// Scratch rung: [`route_one`] on the mutated net — bit-identical to
    /// a stateless request, then re-adopt its topology.
    fn scratch(&mut self) -> Result<RerouteReport, RouteError> {
        let _span = ntr_obs::span("session.scratch");
        let net =
            Net::from_points(self.pins.clone()).map_err(|e| RouteError::Build(e.to_string()))?;
        let outcome = route_one(&net, self.algorithm, &self.budget)?;
        self.graph = Some(outcome.graph.clone());
        self.prepared = None;
        self.pending.clear();
        self.rebuild_index();
        self.last = Some(outcome.clone());
        Ok(RerouteReport {
            outcome,
            path: ReroutePath::Scratch,
        })
    }

    /// Extracts + factors the current topology when no cached state is
    /// live.
    fn ensure_prepared(&mut self) -> Result<(), ()> {
        if self.prepared.is_some() {
            return Ok(());
        }
        let graph = self.graph.as_ref().ok_or(())?;
        let extracted = extract(graph, &self.budget.tech, &self.extract_opts).map_err(|_| ())?;
        let engine = MomentEngine::new(&extracted.circuit, 1).map_err(|_| ())?;
        self.prepared = Some(Prepared { extracted, engine });
        Ok(())
    }

    fn check_pin(&self, pin: usize) -> Result<(), SessionError> {
        if pin >= self.pins.len() {
            return Err(SessionError::PinOutOfRange {
                pin,
                len: self.pins.len(),
            });
        }
        Ok(())
    }

    /// Rebuilds the index over the pins, then streams the retained
    /// topology's Steiner points in through the incremental insert.
    fn rebuild_index(&mut self) {
        self.index = GridIndex::build(&self.pins);
        self.insert_steiner_points();
    }

    fn insert_steiner_points(&mut self) {
        if let Some(graph) = &self.graph {
            for node in graph.node_ids() {
                if !graph.kind(node).expect("iterated id is valid").is_pin() {
                    self.index
                        .insert(graph.point(node).expect("iterated id is valid"));
                }
            }
        }
    }
}

/// Node id of net pin `pin` in `graph`. Pins are created in net order by
/// `RoutingGraph::from_net`, but go through the pin table to stay
/// correct for any graph.
fn pin_node(graph: &RoutingGraph, pin: usize) -> NodeId {
    graph
        .pin_nodes()
        .find_map(|(node, p)| (p == pin).then_some(node))
        .expect("pin index validated against the net")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntr_circuit::Technology;
    use ntr_geom::{Layout, NetGenerator};

    fn session(seed: u64, size: usize) -> (RoutingSession, RoutingOutcome) {
        let net = NetGenerator::new(Layout::date94(), seed)
            .random_net(size)
            .unwrap();
        RoutingSession::create(&net, Algorithm::Ldrg, Budget::new(Technology::date94())).unwrap()
    }

    #[test]
    fn quiescent_reroute_returns_the_cached_outcome() {
        let (mut s, initial) = session(1, 8);
        let report = s.reroute().unwrap();
        assert_eq!(report.path, ReroutePath::Quiescent);
        assert_eq!(report.outcome, initial);
        assert_eq!(s.stats().quiescent, 1);
    }

    #[test]
    fn move_pin_reroutes_via_refactor_then_rank1_add_edge() {
        let (mut s, _) = session(2, 9);
        let p = s.pins()[3];
        s.mutate(DeltaOp::MovePin {
            pin: 3,
            to: Point::new(p.x + 40.0, p.y),
        })
        .unwrap();
        let moved = s.reroute().unwrap();
        assert_eq!(moved.path, ReroutePath::Refactor);
        assert!(moved.outcome.final_delay > 0.0);

        // A second move exercises the actual refactorization (the first
        // built the engine fresh).
        let p = s.pins()[4];
        s.mutate(DeltaOp::MovePin {
            pin: 4,
            to: Point::new(p.x, p.y + 25.0),
        })
        .unwrap();
        assert_eq!(s.reroute().unwrap().path, ReroutePath::Refactor);

        // Now a single explicit edge goes through Sherman–Morrison.
        let (a, b) = free_pin_pair(&s);
        s.mutate(DeltaOp::AddEdge { a, b }).unwrap();
        let added = s.reroute().unwrap();
        assert_eq!(added.path, ReroutePath::Rank1);
        assert_eq!(added.outcome.added_edges, 1);
        assert_eq!(s.stats().refactor, 2);
        assert_eq!(s.stats().rank1, 1);
    }

    /// Finds a pin pair with no direct edge in the retained topology.
    fn free_pin_pair(s: &RoutingSession) -> (usize, usize) {
        let graph = s.graph().unwrap();
        for a in 0..s.pins().len() {
            for b in (a + 1)..s.pins().len() {
                if !graph.has_edge(pin_node(graph, a), pin_node(graph, b)) {
                    return (a, b);
                }
            }
        }
        panic!("fully connected graph");
    }

    #[test]
    fn pin_set_changes_fall_to_scratch() {
        let (mut s, _) = session(3, 8);
        s.mutate(DeltaOp::AddPin(Point::new(123.0, 456.0))).unwrap();
        assert!(s.graph().is_none());
        let report = s.reroute().unwrap();
        assert_eq!(report.path, ReroutePath::Scratch);
        assert_eq!(report.outcome.graph.pin_count(), 9);
        assert!(s.graph().is_some());

        s.mutate(DeltaOp::RemovePin { pin: 8 }).unwrap();
        assert_eq!(s.reroute().unwrap().path, ReroutePath::Scratch);
        assert_eq!(s.pins().len(), 8);
    }

    #[test]
    fn mutations_are_validated_without_state_changes() {
        let (mut s, _) = session(4, 8);
        let before = s.pins().to_vec();
        assert!(matches!(
            s.mutate(DeltaOp::MovePin {
                pin: 99,
                to: Point::new(0.0, 0.0)
            }),
            Err(SessionError::PinOutOfRange { .. })
        ));
        assert!(matches!(
            s.mutate(DeltaOp::RemovePin { pin: 0 }),
            Err(SessionError::SourceRemoval)
        ));
        assert!(matches!(
            s.mutate(DeltaOp::AddPin(before[2])),
            Err(SessionError::DuplicatePin(_))
        ));
        assert!(matches!(
            s.mutate(DeltaOp::AddEdge { a: 1, b: 1 }),
            Err(SessionError::SelfEdge { .. })
        ));
        assert_eq!(s.pins(), before.as_slice());
        assert_eq!(s.pending_len(), 0);
        assert_eq!(s.stats().mutations, 0);
    }

    #[test]
    fn remove_edge_requires_the_edge_and_falls_to_scratch() {
        let (mut s, _) = session(5, 8);
        assert!(matches!(
            s.mutate(DeltaOp::RemoveEdge { a: 1, b: 2 }),
            Err(SessionError::NoSuchEdge { .. }) | Ok(())
        ));
        // Find a real edge between two pins.
        let graph = s.graph().unwrap().clone();
        let mut pair = None;
        'outer: for a in 0..s.pins().len() {
            for b in (a + 1)..s.pins().len() {
                if graph.has_edge(pin_node(&graph, a), pin_node(&graph, b)) {
                    pair = Some((a, b));
                    break 'outer;
                }
            }
        }
        let (a, b) = pair.expect("a connected graph has pin-pin edges");
        if s.pending_len() == 0 {
            s.mutate(DeltaOp::RemoveEdge { a, b }).unwrap();
        }
        assert_eq!(s.reroute().unwrap().path, ReroutePath::Scratch);
    }

    #[test]
    fn nearest_nodes_sees_added_pins() {
        let (mut s, _) = session(6, 8);
        let probe = Point::new(77.0, 88.0);
        s.mutate(DeltaOp::AddPin(probe)).unwrap();
        let hits = s.nearest_nodes(probe, 1);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, 0.0);
    }
}
