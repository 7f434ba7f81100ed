use ntr_circuit::{CandidateWire, Circuit};
use ntr_sparse::{Ordering, Rank1Update, SolveError, SparseLu};

use crate::{Mna, Moments, SimError};

mod table;

pub use table::EndpointTable;

/// Step-response moments of one probed node under a candidate
/// perturbation, as raw recursion vectors sampled at the probe.
///
/// Produced by [`MomentEngine::wire_moments`]; `xk[m-1]` is the order-`m`
/// moment vector entry, so the normalized moments are `xk[m-1] / dc` and
/// the Elmore delay is `-xk[0] / dc`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeMoments {
    /// DC (steady-state) value at the probe.
    pub dc: f64,
    /// Raw moment-vector samples `x₁..x_order` at the probe.
    pub xk: Vec<f64>,
}

impl ProbeMoments {
    /// A borrowed view of these moments.
    #[must_use]
    pub fn view(&self) -> ProbeView<'_> {
        ProbeView {
            dc: self.dc,
            xk: &self.xk,
        }
    }

    /// The normalized moment `m_k` (`k` in `1..=order`); `0.0` when no DC
    /// signal arrives.
    ///
    /// # Panics
    ///
    /// Panics when `k` is zero or exceeds the computed order.
    #[must_use]
    pub fn normalized_moment(&self, k: usize) -> f64 {
        self.view().normalized_moment(k)
    }

    /// The Elmore delay `−m₁`, in seconds.
    #[must_use]
    pub fn elmore(&self) -> f64 {
        self.view().elmore()
    }

    /// The D2M delay estimate; see [`ProbeView::d2m`].
    ///
    /// # Panics
    ///
    /// Panics when fewer than two moment orders were computed.
    #[must_use]
    pub fn d2m(&self) -> f64 {
        self.view().d2m()
    }
}

/// The step-response moments of one probe, borrowed: what
/// [`MomentEngine::table_wire_moments`] hands its visitor per probe, and
/// what every [`ProbeMoments`] delay formula runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeView<'a> {
    /// DC (steady-state) value at the probe.
    pub dc: f64,
    /// Raw moment-vector samples `x₁..x_order` at the probe.
    pub xk: &'a [f64],
}

impl ProbeView<'_> {
    /// The normalized moment `m_k` (`k` in `1..=order`); `0.0` when no DC
    /// signal arrives.
    ///
    /// # Panics
    ///
    /// Panics when `k` is zero or exceeds the computed order.
    #[must_use]
    pub fn normalized_moment(&self, k: usize) -> f64 {
        assert!(
            k >= 1 && k <= self.xk.len(),
            "moment order {k} not computed"
        );
        if self.dc.abs() < 1e-300 {
            return 0.0;
        }
        self.xk[k - 1] / self.dc
    }

    /// The Elmore delay `−m₁`, in seconds.
    #[must_use]
    pub fn elmore(&self) -> f64 {
        -self.normalized_moment(1)
    }

    /// The D2M delay estimate `ln 2 · m₁² / √m₂`, matching
    /// [`Moments::d2m_of_node`] including its degenerate-`m₂` fallback.
    ///
    /// # Panics
    ///
    /// Panics when fewer than two moment orders were computed.
    #[must_use]
    pub fn d2m(&self) -> f64 {
        let m1 = self.normalized_moment(1);
        let m2 = self.normalized_moment(2);
        let ln2 = std::f64::consts::LN_2;
        if m2 > 0.0 {
            ln2 * m1 * m1 / m2.sqrt()
        } else {
            ln2 * (-m1)
        }
    }
}

/// Incremental moment evaluator: one cached MNA assembly + sparse LU
/// factorization of the base circuit, against which every candidate
/// perturbation is scored **without refactoring**.
///
/// Three fast paths:
///
/// - [`MomentEngine::wire_moments`] — a trial wire between two existing
///   nodes. The wire's π-segment chain is reduced exactly onto its
///   endpoints (Schur complement of the internal chain nodes, whose
///   discrete Green's function is closed-form), leaving a rank-1
///   perturbation `g_eff·u·uᵀ` of the static matrix that
///   [`Rank1Update`] solves by the Sherman–Morrison identity. Cost per
///   candidate: `order + 1` triangular solves against the *cached*
///   factors — no extraction, no assembly, no factorization.
/// - [`MomentEngine::table_wire_moments`] — the same trial wire scored
///   from an [`EndpointTable`] of response columns that many candidates
///   share: `order + 1` solves per table row, once, then scalar work per
///   candidate.
/// - [`MomentEngine::moments_with_same_pattern`] — a circuit whose element
///   *values* changed but whose topology did not (wire-width rescaling).
///   The cached factorization's symbolic structure is replayed numerically
///   ([`SparseLu::refactor_with_same_pattern`]), skipping ordering and
///   pivot search.
///
/// Results are exact — identical (to rounding) to rebuilding the perturbed
/// circuit and running [`Moments::compute`] from scratch.
#[derive(Debug, Clone)]
pub struct MomentEngine {
    mna: Mna,
    lu: SparseLu,
    /// Base `x₀` (DC values) per unknown.
    dc: Vec<f64>,
    /// Base `x₁..x_order` per order, each per unknown.
    orders: Vec<Vec<f64>>,
}

impl MomentEngine {
    /// Builds the engine: assembles MNA, factors the static matrix once,
    /// and computes the base circuit's moments up to `order` (`>= 1`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyCircuit`] for a ground-only circuit and
    /// [`SimError::Solve`] when the static system is singular.
    pub fn new(circuit: &Circuit, order: usize) -> Result<Self, SimError> {
        let _span = ntr_obs::span("moment.prepare");
        let mna = Mna::build(circuit)?;
        let lu = SparseLu::factor(mna.a_static(), Ordering::MinDegree)?;
        let n = mna.unknowns();

        let mut dc = vec![0.0; n];
        mna.rhs_at(f64::MAX, &mut dc);
        lu.solve_in_place(&mut dc)?;

        let mut orders = Vec::with_capacity(order.max(1));
        let mut prev = dc.clone();
        for _ in 0..order.max(1) {
            let mut next = mna.a_dynamic().matvec(&prev)?;
            for v in &mut next {
                *v = -*v;
            }
            lu.solve_in_place(&mut next)?;
            orders.push(next.clone());
            prev = next;
        }
        Ok(Self {
            mna,
            lu,
            dc,
            orders,
        })
    }

    /// Highest computed moment order.
    #[must_use]
    pub fn order(&self) -> usize {
        self.orders.len()
    }

    /// The base (unperturbed) circuit's moments, cloned into a [`Moments`].
    #[must_use]
    pub fn base_moments(&self) -> Moments {
        Moments::from_parts(self.mna.clone(), self.dc.clone(), self.orders.clone())
    }

    /// The base moments sampled at `probes` as [`ProbeMoments`] (no
    /// perturbation), for uniform handling alongside candidate scores.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProbe`] for a bad probe node.
    pub fn base_probe_moments(&self, probes: &[usize]) -> Result<Vec<ProbeMoments>, SimError> {
        probes
            .iter()
            .map(|&p| {
                Ok(match self.mna.voltage_index(p)? {
                    None => ProbeMoments {
                        dc: 0.0,
                        xk: vec![0.0; self.orders.len()],
                    },
                    Some(i) => ProbeMoments {
                        dc: self.dc[i],
                        xk: self.orders.iter().map(|x| x[i]).collect(),
                    },
                })
            })
            .collect()
    }

    /// Moments at `probes` with a trial wire applied as a pure delta,
    /// with its own triangular solves (compare
    /// [`MomentEngine::table_wire_moments`], which shares them across
    /// candidates).
    ///
    /// The wire's internal chain nodes are eliminated exactly: a chain of
    /// `k` equal resistive segments reduces to an end-to-end conductance
    /// `g_s/k` (rank-1 update of the static matrix), internal capacitor
    /// currents are pushed to the endpoints with the chain's interpolation
    /// weights `(1−j/k, j/k)`, and internal values are recovered by an
    /// `O(k)` tridiagonal (Thomas) solve per order for the next order's
    /// right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProbe`] for a bad probe node and
    /// [`SimError::Solve`] when the perturbed system is singular. A wire
    /// endpoint on ground is rejected as [`SimError::UnknownProbe`].
    pub fn wire_moments(
        &self,
        wire: &CandidateWire,
        probes: &[usize],
    ) -> Result<Vec<ProbeMoments>, SimError> {
        let _span = ntr_obs::span("moment.rank1");
        let ia = self
            .mna
            .voltage_index(wire.node_a)?
            .ok_or(SimError::UnknownProbe { node: wire.node_a })?;
        let ib = self
            .mna
            .voltage_index(wire.node_b)?
            .ok_or(SimError::UnknownProbe { node: wire.node_b })?;
        let g_s = wire.seg_conductance();
        let k = wire.segments;
        let kk = k as f64;
        let internal = k - 1;

        // Chain reduction: k equal series conductances between the
        // endpoints behave as one end-to-end conductance g_s/k.
        let up = Rank1Update::edge(&self.lu, ia, ib, g_s / kk)?;

        // Order 0: the right-hand side is unchanged (no sources on the
        // wire), so the perturbed DC is the cached solution plus the
        // Sherman–Morrison correction — no triangular solve.
        let mut x = self.dc.clone();
        up.correct_in_place(&mut x)?;
        // Internal chain values: Dirichlet problem with zero internal
        // current — solved by the same tridiagonal reduction.
        let mut y = vec![0.0f64; internal];
        let mut rhs_y = vec![0.0f64; internal];
        recover_internal(&mut y, &rhs_y, g_s, x[ia], x[ib]);

        let mut probe_idx = Vec::with_capacity(probes.len());
        for &p in probes {
            probe_idx.push(self.mna.voltage_index(p)?);
        }
        let mut out: Vec<ProbeMoments> = probe_idx
            .iter()
            .map(|idx| ProbeMoments {
                dc: idx.map_or(0.0, |i| x[i]),
                xk: Vec::with_capacity(self.orders.len()),
            })
            .collect();

        for _ in 0..self.orders.len() {
            // rhs = −C'·x_prev on the retained unknowns: the base C matvec
            // plus the wire's endpoint half-capacitances...
            let mut rhs = self.mna.a_dynamic().matvec(&x)?;
            for v in &mut rhs {
                *v = -*v;
            }
            rhs[ia] -= wire.seg_cap_half * x[ia];
            rhs[ib] -= wire.seg_cap_half * x[ib];
            // ...and the internal-node capacitor currents (2 half-caps
            // each), pushed to the endpoints through the eliminated chain
            // with the discrete Green's-function boundary weights.
            for (j0, item) in rhs_y.iter_mut().enumerate() {
                let j = (j0 + 1) as f64;
                let ry = -2.0 * wire.seg_cap_half * y[j0];
                *item = ry;
                rhs[ia] += (kk - j) / kk * ry;
                rhs[ib] += j / kk * ry;
            }
            // One Sherman–Morrison solve against the cached factors.
            up.solve_in_place(&mut rhs)?;
            x = rhs;
            recover_internal(&mut y, &rhs_y, g_s, x[ia], x[ib]);
            for (pm, idx) in out.iter_mut().zip(&probe_idx) {
                pm.xk.push(idx.map_or(0.0, |i| x[i]));
            }
        }
        Ok(out)
    }

    /// Moments of a circuit with the **same topology** as the base but
    /// different element values (e.g. one edge's width rescaled): the MNA
    /// is reassembled, but the cached factorization's symbolic structure
    /// is replayed numerically instead of factoring from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Solve`] with
    /// [`SolveError::PatternMismatch`] when
    /// the circuit's matrix has a different sparsity pattern (callers
    /// should fall back to [`Moments::compute`]), and the usual solve
    /// errors otherwise.
    pub fn moments_with_same_pattern(&self, circuit: &Circuit) -> Result<Moments, SimError> {
        let _span = ntr_obs::span("moment.refactor");
        let mna = Mna::build(circuit)?;
        let n = mna.unknowns();
        if n != self.mna.unknowns() {
            return Err(SimError::Solve(SolveError::DimensionMismatch {
                expected: self.mna.unknowns(),
                got: n,
            }));
        }
        let lu = self.lu.refactor_with_same_pattern(mna.a_static())?;

        let mut dc = vec![0.0; n];
        mna.rhs_at(f64::MAX, &mut dc);
        lu.solve_in_place(&mut dc)?;
        let mut orders = Vec::with_capacity(self.orders.len());
        let mut prev = dc.clone();
        for _ in 0..self.orders.len() {
            let mut next = mna.a_dynamic().matvec(&prev)?;
            for v in &mut next {
                *v = -*v;
            }
            lu.solve_in_place(&mut next)?;
            orders.push(next.clone());
            prev = next;
        }
        Ok(Moments::from_parts(mna, dc, orders))
    }

    /// Like [`MomentEngine::moments_with_same_pattern`], but keeps the
    /// refactored LU: returns a **new engine** for the updated circuit,
    /// ready to score further [`MomentEngine::wire_moments`] candidates
    /// against the new values without a from-scratch symbolic
    /// factorization. This is the numeric-refactorization rung of an
    /// incremental rerouting session's decision ladder: a `move_pin`
    /// delta changes element values but not the sparsity pattern, so the
    /// session swaps in the engine this returns and stays incremental.
    ///
    /// # Errors
    ///
    /// [`SolveError::DimensionMismatch`] when the circuit's unknown count
    /// changed, [`SolveError::PatternMismatch`] when its sparsity pattern
    /// did (both signal the caller to fall back to from-scratch routing),
    /// and the usual singularity errors.
    pub fn refactored_same_pattern(&self, circuit: &Circuit) -> Result<Self, SimError> {
        let _span = ntr_obs::span("moment.refactor");
        let mna = Mna::build(circuit)?;
        let n = mna.unknowns();
        if n != self.mna.unknowns() {
            return Err(SimError::Solve(SolveError::DimensionMismatch {
                expected: self.mna.unknowns(),
                got: n,
            }));
        }
        let lu = self.lu.refactor_with_same_pattern(mna.a_static())?;

        let mut dc = vec![0.0; n];
        mna.rhs_at(f64::MAX, &mut dc);
        lu.solve_in_place(&mut dc)?;
        let mut orders = Vec::with_capacity(self.orders.len());
        let mut prev = dc.clone();
        for _ in 0..self.orders.len() {
            let mut next = mna.a_dynamic().matvec(&prev)?;
            for v in &mut next {
                *v = -*v;
            }
            lu.solve_in_place(&mut next)?;
            orders.push(next.clone());
            prev = next;
        }
        Ok(Self {
            mna,
            lu,
            dc,
            orders,
        })
    }
}

/// Solves the eliminated chain's tridiagonal system
/// `T·y = rhs_y + g_s·(xa·e₁ + xb·e_{k−1})` with
/// `T = tridiag(−g_s, 2g_s, −g_s)` by the Thomas algorithm, writing the
/// internal chain values into `y`.
fn recover_internal(y: &mut [f64], rhs_y: &[f64], g_s: f64, xa: f64, xb: f64) {
    let m = y.len();
    if m == 0 {
        return;
    }
    // Assemble the full right-hand side: internal currents plus the
    // boundary couplings to both endpoints.
    y.copy_from_slice(rhs_y);
    y[0] += g_s * xa;
    y[m - 1] += g_s * xb;
    // Thomas forward sweep on the constant-coefficient tridiagonal.
    let (a, b, c) = (-g_s, 2.0 * g_s, -g_s);
    let mut cp = vec![0.0f64; m];
    let mut denom = b;
    cp[0] = c / denom;
    y[0] /= denom;
    for i in 1..m {
        denom = b - a * cp[i - 1];
        cp[i] = c / denom;
        y[i] = (y[i] - a * y[i - 1]) / denom;
    }
    for i in (0..m - 1).rev() {
        y[i] -= cp[i] * y[i + 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntr_circuit::{extract, ExtractOptions, Segmentation, Technology};
    use ntr_geom::{Net, Point};
    use ntr_graph::prim_mst;

    fn star_net() -> (ntr_graph::RoutingGraph, Technology, ExtractOptions) {
        let net = Net::new(
            Point::new(0.0, 0.0),
            vec![
                Point::new(2000.0, 0.0),
                Point::new(0.0, 1500.0),
                Point::new(-1200.0, -300.0),
                Point::new(800.0, 900.0),
            ],
        )
        .unwrap();
        (
            prim_mst(&net),
            Technology::date94(),
            ExtractOptions::default(),
        )
    }

    /// The incremental wire evaluation must match extracting the committed
    /// edge and recomputing moments from scratch.
    #[test]
    fn wire_moments_match_from_scratch() {
        let (g, tech, opts) = star_net();
        let ex = extract(&g, &tech, &opts).unwrap();
        let engine = MomentEngine::new(&ex.circuit, 2).unwrap();
        let nodes: Vec<_> = g.node_ids().collect();
        for (a, b) in [(1usize, 2usize), (2, 4), (1, 3)] {
            let wire = ex
                .candidate_wire(&g, &tech, &opts, nodes[a], nodes[b], 1.0)
                .unwrap();
            assert!(wire.segments > 1, "want a multi-segment chain");
            let inc = engine.wire_moments(&wire, &ex.sink_nodes).unwrap();

            let mut committed = g.clone();
            committed.add_edge(nodes[a], nodes[b]).unwrap();
            let full = extract(&committed, &tech, &opts).unwrap();
            let scratch = Moments::compute(&full.circuit, 2).unwrap();
            for (pm, &sink) in inc.iter().zip(&full.sink_nodes) {
                let e_inc = pm.elmore();
                let e_ref = scratch.elmore_of_node(sink).unwrap();
                assert!(
                    (e_inc - e_ref).abs() <= 1e-9 * e_ref.abs().max(1e-30),
                    "elmore {e_inc} vs {e_ref} for edge ({a},{b})"
                );
                let d_inc = pm.d2m();
                let d_ref = scratch.d2m_of_node(sink).unwrap();
                assert!(
                    (d_inc - d_ref).abs() <= 1e-9 * d_ref.abs().max(1e-30),
                    "d2m {d_inc} vs {d_ref} for edge ({a},{b})"
                );
            }
        }
    }

    /// Single-segment candidates exercise the no-internal-node path.
    #[test]
    fn single_segment_wire_matches_from_scratch() {
        let (g, tech, _) = star_net();
        let opts = ExtractOptions {
            segmentation: Segmentation::PerEdge(1),
            include_inductance: false,
        };
        let ex = extract(&g, &tech, &opts).unwrap();
        let engine = MomentEngine::new(&ex.circuit, 1).unwrap();
        let nodes: Vec<_> = g.node_ids().collect();
        let wire = ex
            .candidate_wire(&g, &tech, &opts, nodes[1], nodes[4], 1.0)
            .unwrap();
        assert_eq!(wire.segments, 1);
        let inc = engine.wire_moments(&wire, &ex.sink_nodes).unwrap();
        let mut committed = g.clone();
        committed.add_edge(nodes[1], nodes[4]).unwrap();
        let full = extract(&committed, &tech, &opts).unwrap();
        let scratch = Moments::compute(&full.circuit, 1).unwrap();
        for (pm, &sink) in inc.iter().zip(&full.sink_nodes) {
            let e_ref = scratch.elmore_of_node(sink).unwrap();
            assert!((pm.elmore() - e_ref).abs() <= 1e-9 * e_ref.abs());
        }
    }

    /// Base probes with no perturbation must equal Moments::compute.
    #[test]
    fn base_probe_moments_match_plain_moments() {
        let (g, tech, opts) = star_net();
        let ex = extract(&g, &tech, &opts).unwrap();
        let engine = MomentEngine::new(&ex.circuit, 2).unwrap();
        let plain = Moments::compute(&ex.circuit, 2).unwrap();
        let probes = engine.base_probe_moments(&ex.sink_nodes).unwrap();
        for (pm, &sink) in probes.iter().zip(&ex.sink_nodes) {
            assert!(
                (pm.elmore() - plain.elmore_of_node(sink).unwrap()).abs() < 1e-25,
                "base elmore mismatch"
            );
        }
    }

    /// Width rescaling keeps the matrix pattern, so the numeric-only
    /// refactorization must reproduce a from-scratch computation.
    #[test]
    fn same_pattern_moments_match_fresh() {
        let (g, tech, opts) = star_net();
        let ex = extract(&g, &tech, &opts).unwrap();
        let engine = MomentEngine::new(&ex.circuit, 2).unwrap();
        let (edge_id, _) = g.edges().next().unwrap();
        let mut patched = ex.clone();
        patched.rescale_edge_width(edge_id, 3.0).unwrap();
        let inc = engine.moments_with_same_pattern(&patched.circuit).unwrap();
        let fresh = Moments::compute(&patched.circuit, 2).unwrap();
        for &sink in &ex.sink_nodes {
            let a = inc.elmore_of_node(sink).unwrap();
            let b = fresh.elmore_of_node(sink).unwrap();
            assert!((a - b).abs() <= 1e-12 * b.abs().max(1e-30), "{a} vs {b}");
        }
    }

    /// The engine-returning refactor path must agree with a from-scratch
    /// engine on the updated circuit, and stay usable for further
    /// scoring (its cached factors answer `base_probe_moments`).
    #[test]
    fn refactored_engine_matches_fresh_engine() {
        let (g, tech, opts) = star_net();
        let ex = extract(&g, &tech, &opts).unwrap();
        let engine = MomentEngine::new(&ex.circuit, 2).unwrap();
        let (edge_id, _) = g.edges().next().unwrap();
        let mut patched = ex.clone();
        patched.rescale_edge_width(edge_id, 2.5).unwrap();
        let refactored = engine.refactored_same_pattern(&patched.circuit).unwrap();
        let fresh = MomentEngine::new(&patched.circuit, 2).unwrap();
        let a = refactored.base_probe_moments(&ex.sink_nodes).unwrap();
        let b = fresh.base_probe_moments(&ex.sink_nodes).unwrap();
        for (ra, rb) in a.iter().zip(&b) {
            assert!(
                (ra.elmore() - rb.elmore()).abs() <= 1e-12 * rb.elmore().abs().max(1e-30),
                "{} vs {}",
                ra.elmore(),
                rb.elmore()
            );
        }
    }

    /// A short (zero-length) candidate wire is a plain resistive rank-1
    /// update with no capacitance delta.
    #[test]
    fn short_wire_matches_materialized_short() {
        let (g, tech, opts) = star_net();
        let ex = extract(&g, &tech, &opts).unwrap();
        let engine = MomentEngine::new(&ex.circuit, 1).unwrap();
        let wire = CandidateWire {
            node_a: ex.graph_nodes[1],
            node_b: ex.graph_nodes[2],
            segments: 1,
            seg_resistance: 1e-6,
            seg_cap_half: 0.0,
            length: 0.0,
            width: 1.0,
        };
        let inc = engine.wire_moments(&wire, &ex.sink_nodes).unwrap();
        let trial = ex.with_candidate_edge(&wire).unwrap();
        let scratch = Moments::compute(&trial.circuit, 1).unwrap();
        for (pm, &sink) in inc.iter().zip(&trial.sink_nodes) {
            let e_ref = scratch.elmore_of_node(sink).unwrap();
            // The 1e-6 Ω short puts ~1e6 conditioning on both evaluation
            // paths, so agreement is capped near 1e-9·κ here; ordinary
            // (finite-length) candidates match to 1e-9 relative.
            assert!(
                (pm.elmore() - e_ref).abs() <= 1e-6 * e_ref.abs().max(1e-30),
                "{} vs {e_ref}",
                pm.elmore()
            );
        }
    }
}
