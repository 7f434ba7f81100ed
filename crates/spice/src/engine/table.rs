//! The endpoint-column table: scalar-only scoring of trial wires against
//! one [`MomentEngine`].

use std::sync::OnceLock;

use ntr_circuit::CandidateWire;
use ntr_sparse::SolveError;

use super::{MomentEngine, ProbeView};
use crate::SimError;

/// A per-iteration cache of a [`MomentEngine`]'s response columns at a
/// fixed set of rows (the routing graph's nodes). Every trial wire
/// between two rows is then scored from it with scalar work only, by
/// [`MomentEngine::table_wire_moments`].
///
/// A trial wire between unknowns `a` and `b` perturbs the static matrix
/// `A` by the rank-1 term `g·u·uᵀ` (`u = e_a − e_b`) and injects its
/// distributed capacitance at `a` and `b` only. So every vector the
/// Sherman–Morrison recursion of [`MomentEngine::wire_moments`] computes
/// is the base moment vector plus a combination of the **endpoint
/// columns**
///
/// ```text
/// v_j⁽⁰⁾ = A⁻¹·e_j,    v_j⁽ᵗ⁺¹⁾ = A⁻¹·(−C·v_j⁽ᵗ⁾),    j ∈ {a, b}, t < order
/// ```
///
/// and a score needs only those columns' entries at the probes and at
/// the two endpoints. The table keeps each column at its rows only,
/// filled on first use (`order + 1` solves) behind one [`OnceLock`] per
/// row. A column is a pure function of its row and the engine, so which
/// thread fills it never changes a score. A fully filled table holds
/// [`EndpointTable::bytes_for`] bytes of floats.
#[derive(Debug)]
pub struct EndpointTable {
    /// Unknown count of the engine that built the table.
    unknowns: usize,
    /// Circuit node of each row.
    nodes: Vec<usize>,
    /// MNA unknown of each row.
    rows: Vec<usize>,
    /// Row of each probe, in probe order.
    probes: Vec<usize>,
    /// Base moments at the rows: `x_t` at row `r` of `R` is
    /// `base[t·R + r]`, `t = 0` (DC) `..= order`.
    base: Box<[f64]>,
    /// Response column of each row, laid out like `base`.
    columns: Vec<OnceLock<Result<Box<[f64]>, SimError>>>,
}

impl EndpointTable {
    /// Highest moment order the table scores: the closed-form chain
    /// reduction below covers the first two orders (Elmore needs 1, D2M 2).
    pub const MAX_ORDER: usize = 2;

    /// Bytes of floats a fully filled table of `rows` rows holds at moment
    /// `order`: `(order + 1)·rows` per column, `rows` columns plus the
    /// base. Saturates instead of overflowing.
    #[must_use]
    pub fn bytes_for(rows: usize, order: usize) -> usize {
        (order.saturating_add(1))
            .saturating_mul(rows)
            .saturating_mul(rows.saturating_add(1))
            .saturating_mul(std::mem::size_of::<f64>())
    }

    /// The response column of row `r`, filling it on first use.
    fn column(&self, engine: &MomentEngine, r: usize) -> Result<&[f64], SimError> {
        match self.columns[r].get_or_init(|| engine.response_column(self.rows[r], &self.rows)) {
            Ok(column) => Ok(column),
            Err(err) => Err(*err),
        }
    }

    /// The row of wire endpoint `node`, checked against the caller's
    /// claimed row `r`.
    fn endpoint_row(&self, node: usize, r: usize) -> Result<usize, SimError> {
        if self.nodes.get(r) == Some(&node) {
            Ok(r)
        } else {
            Err(SimError::UnknownProbe { node })
        }
    }
}

impl MomentEngine {
    /// An empty [`EndpointTable`] over the circuit nodes `nodes`, scoring
    /// the circuit nodes `probes` (each of which must be one of `nodes`).
    /// Only the base moments are sampled here; columns fill on first use.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProbe`] for a node that is ground or out
    /// of range, or a probe that is not one of `nodes`.
    ///
    /// # Panics
    ///
    /// Panics when the engine's order exceeds
    /// [`EndpointTable::MAX_ORDER`].
    pub fn endpoint_table(
        &self,
        nodes: &[usize],
        probes: &[usize],
    ) -> Result<EndpointTable, SimError> {
        let order = self.order();
        assert!(
            order <= EndpointTable::MAX_ORDER,
            "endpoint tables score moment orders up to {}, not {order}",
            EndpointTable::MAX_ORDER
        );
        let mut rows = Vec::with_capacity(nodes.len());
        let mut row_of_node = vec![usize::MAX; self.mna.node_count()];
        for (r, &node) in nodes.iter().enumerate() {
            let unknown = self
                .mna
                .voltage_index(node)?
                .ok_or(SimError::UnknownProbe { node })?;
            rows.push(unknown);
            row_of_node[node] = r;
        }
        let probes = probes
            .iter()
            .map(|&p| match row_of_node.get(p) {
                Some(&r) if r != usize::MAX => Ok(r),
                _ => Err(SimError::UnknownProbe { node: p }),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut base = Vec::with_capacity((order + 1) * rows.len());
        base.extend(rows.iter().map(|&i| self.dc[i]));
        for x in &self.orders {
            base.extend(rows.iter().map(|&i| x[i]));
        }
        Ok(EndpointTable {
            unknowns: self.mna.unknowns(),
            nodes: nodes.to_vec(),
            columns: (0..rows.len()).map(|_| OnceLock::new()).collect(),
            rows,
            probes,
            base: base.into_boxed_slice(),
        })
    }

    /// `v⁽⁰⁾ = A⁻¹·e_unknown` and its moment recursion
    /// `v⁽ᵗ⁺¹⁾ = A⁻¹·(−C·v⁽ᵗ⁾)`, sampled at `rows`: one endpoint column.
    fn response_column(&self, unknown: usize, rows: &[usize]) -> Result<Box<[f64]>, SimError> {
        let n = self.mna.unknowns();
        let mut out = Vec::with_capacity((self.order() + 1) * rows.len());
        let mut v = vec![0.0f64; n];
        v[unknown] = 1.0;
        self.lu.solve_in_place(&mut v)?;
        out.extend(rows.iter().map(|&i| v[i]));
        let mut next = vec![0.0f64; n];
        for _ in 0..self.order() {
            self.mna.a_dynamic().matvec_into(&v, &mut next)?;
            for x in &mut next {
                *x = -*x;
            }
            self.lu.solve_in_place(&mut next)?;
            std::mem::swap(&mut v, &mut next);
            out.extend(rows.iter().map(|&i| v[i]));
        }
        Ok(out.into_boxed_slice())
    }

    /// [`MomentEngine::wire_moments`] from an [`EndpointTable`]: the
    /// moments of every table probe with `wire` applied, handed to
    /// `visit` in probe order. `ends` are the table rows of the wire's
    /// endpoints `wire.node_a` and `wire.node_b`.
    ///
    /// The same exact algebra as `wire_moments`, reassociated. The
    /// order-`t` perturbed vector is
    ///
    /// ```text
    /// x̃_t = x_t + Σ_{s ≤ t} (π_{t−s}·v_a⁽ˢ⁾ + ρ_{t−s}·v_b⁽ˢ⁾)
    /// ```
    ///
    /// because each order's right-hand side is `−C·x̃_{t−1}` plus
    /// injections at the two endpoints, and the Sherman–Morrison
    /// correction is a multiple of `w = v_a⁽⁰⁾ − v_b⁽⁰⁾`. Each order adds
    /// one coefficient pair `(π_t, ρ_t)`, found from the endpoint values
    /// alone. The eliminated chain's capacitor currents, pushed to the
    /// endpoints, reduce to four closed-form weights of the segment count.
    /// Per wire, once its endpoint columns are filled: two column lookups
    /// and `O(probes·order²)` flops, with no allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProbe`] when an endpoint is not at its
    /// claimed row, [`SimError::Solve`] when the perturbed system is
    /// singular or the table came from an engine of another size, and any
    /// error of filling an endpoint column.
    pub fn table_wire_moments(
        &self,
        table: &EndpointTable,
        wire: &CandidateWire,
        ends: (usize, usize),
        mut visit: impl FnMut(ProbeView<'_>),
    ) -> Result<(), SimError> {
        let _span = ntr_obs::span("moment.table");
        let n = self.mna.unknowns();
        if table.unknowns != n {
            return Err(SimError::Solve(SolveError::DimensionMismatch {
                expected: n,
                got: table.unknowns,
            }));
        }
        let order = self.order();
        // Orders are `stride` apart in `base` and in every column.
        let stride = table.rows.len();
        let pa = table.endpoint_row(wire.node_a, ends.0)?;
        let pb = table.endpoint_row(wire.node_b, ends.1)?;
        let va = table.column(self, pa)?;
        let vb = table.column(self, pb)?;
        let base = &table.base;

        let g_s = wire.seg_conductance();
        let kk = wire.segments as f64;
        let g = g_s / kk;
        let c = wire.seg_cap_half;

        // x̃_t at row r from the coefficients of orders 0..=t.
        let mut pi = [0.0f64; EndpointTable::MAX_ORDER + 1];
        let mut rho = [0.0f64; EndpointTable::MAX_ORDER + 1];
        let value = |pi: &[f64], rho: &[f64], t: usize, r: usize| -> f64 {
            let mut x = base[t * stride + r];
            for s in 0..=t {
                x += pi[t - s] * va[s * stride + r] + rho[t - s] * vb[s * stride + r];
            }
            x
        };

        // Sherman–Morrison denominator 1 + g·uᵀw, checked as
        // `Rank1Update::new` checks it.
        let ut_w = (va[pa] - vb[pa]) - (va[pb] - vb[pb]);
        let denom = 1.0 + g * ut_w;
        if !denom.is_finite() || denom == 0.0 {
            return Err(SimError::Solve(SolveError::Singular { step: n }));
        }

        // Order 0: the cached DC plus the rank-1 correction −α·w.
        let alpha = g * (base[pa] - base[pb]) / denom;
        pi[0] = -alpha;
        rho[0] = alpha;
        let mut xa = [0.0f64; EndpointTable::MAX_ORDER + 1];
        let mut xb = [0.0f64; EndpointTable::MAX_ORDER + 1];
        xa[0] = value(&pi, &rho, 0, pa);
        xb[0] = value(&pi, &rho, 0, pb);

        // The eliminated chain of k segments: its internal values are
        // y_t = Σ_s β^{t−s}·G^{t−s}·I(x̃_s), with I the linear
        // interpolation between the endpoints, G the chain's unit-
        // conductance Green's function and β = −2c/g_s. Pushing the
        // internal capacitor currents −2c·y_t back to the endpoints with
        // the interpolation weights ω gives weights μ_m = ωᵀ·G^m·ω,
        // which are symmetric under chain reversal.
        let (mu0_aa, mu0_ab, mu1_aa, mu1_ab) = chain_weights(kk);
        let beta = -2.0 * c / g_s;

        for t in 0..order {
            let mut push_a = mu0_aa * xa[t] + mu0_ab * xb[t];
            let mut push_b = mu0_ab * xa[t] + mu0_aa * xb[t];
            if t >= 1 {
                push_a += beta * (mu1_aa * xa[t - 1] + mu1_ab * xb[t - 1]);
                push_b += beta * (mu1_ab * xa[t - 1] + mu1_aa * xb[t - 1]);
            }
            // Endpoint injections: the wire's end half-capacitances plus
            // the pushed internal currents.
            let d_a = -c * xa[t] - 2.0 * c * push_a;
            let d_b = -c * xb[t] - 2.0 * c * push_b;
            // A⁻¹ of the right-hand side shifts every column one order up
            // and adds the injections along the order-0 columns; the
            // Sherman–Morrison correction then subtracts γ·w.
            pi[t + 1] = d_a;
            rho[t + 1] = d_b;
            let z_a = value(&pi, &rho, t + 1, pa);
            let z_b = value(&pi, &rho, t + 1, pb);
            let gamma = g * (z_a - z_b) / denom;
            pi[t + 1] -= gamma;
            rho[t + 1] += gamma;
            xa[t + 1] = value(&pi, &rho, t + 1, pa);
            xb[t + 1] = value(&pi, &rho, t + 1, pb);
        }

        let mut xk = [0.0f64; EndpointTable::MAX_ORDER];
        for &r in &table.probes {
            for (t, x) in xk[..order].iter_mut().enumerate() {
                *x = value(&pi, &rho, t + 1, r);
            }
            visit(ProbeView {
                dc: value(&pi, &rho, 0, r),
                xk: &xk[..order],
            });
        }
        Ok(())
    }
}

/// The chain weights `(μ₀ᵃᵃ, μ₀ᵃᵇ, μ₁ᵃᵃ, μ₁ᵃᵇ)` of a `k`-segment wire:
/// `μ_m^{xy} = Σ_{i,j} ω_i^x·(G^m)_{ij}·ω_j^y` over the `k − 1` internal
/// nodes, with `ω_j^a = (k − j)/k`, `ω_j^b = j/k` and `G` the inverse of
/// `tridiag(−1, 2, −1)`. Exact polynomial sums; all zero for `k = 1`.
fn chain_weights(k: f64) -> (f64, f64, f64, f64) {
    let k2 = k * k;
    (
        (k - 1.0) * (2.0 * k - 1.0) / (6.0 * k),
        (k2 - 1.0) / (6.0 * k),
        (k2 - 1.0) * (4.0 * k2 - 1.0) / (180.0 * k),
        (k2 - 1.0) * (7.0 * k2 + 2.0) / (360.0 * k),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntr_circuit::{extract, ExtractOptions, Segmentation, Technology};
    use ntr_geom::{Net, Point};
    use ntr_graph::{prim_mst, RoutingGraph};

    fn star() -> RoutingGraph {
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
        prim_mst(&net)
    }

    fn assert_close(got: f64, want: f64, tol: f64, what: &str) {
        assert!(
            (got - want).abs() <= tol * want.abs().max(1e-300),
            "{what}: {got} vs {want}"
        );
    }

    /// Table scores agree with the per-candidate Sherman–Morrison path on
    /// every raw moment, for every node pair, at both supported orders
    /// and with multi-segment, single-segment and short wires.
    #[test]
    fn table_matches_wire_moments() {
        let g = star();
        let tech = Technology::date94();
        for opts in [
            ExtractOptions::default(),
            ExtractOptions {
                segmentation: Segmentation::PerEdge(1),
                include_inductance: false,
            },
            ExtractOptions {
                segmentation: Segmentation::MaxLength(150.0),
                include_inductance: false,
            },
        ] {
            let ex = extract(&g, &tech, &opts).unwrap();
            for order in 1..=EndpointTable::MAX_ORDER {
                let engine = MomentEngine::new(&ex.circuit, order).unwrap();
                let table = engine
                    .endpoint_table(&ex.graph_nodes, &ex.sink_nodes)
                    .unwrap();
                let nodes: Vec<_> = g.node_ids().collect();
                for (i, &a) in nodes.iter().enumerate() {
                    for &b in &nodes[i + 1..] {
                        let wire = ex.candidate_wire(&g, &tech, &opts, a, b, 1.0).unwrap();
                        let want = engine.wire_moments(&wire, &ex.sink_nodes).unwrap();
                        let mut got = Vec::new();
                        engine
                            .table_wire_moments(&table, &wire, (a.index(), b.index()), |p| {
                                got.push((p.dc, p.xk.to_vec()));
                            })
                            .unwrap();
                        assert_eq!(got.len(), want.len());
                        for ((dc, xk), pm) in got.iter().zip(&want) {
                            assert_close(*dc, pm.dc, 1e-12, "dc");
                            for (x, y) in xk.iter().zip(&pm.xk) {
                                assert_close(*x, *y, 1e-12, "moment");
                            }
                        }
                    }
                }
            }
        }
    }

    /// The closed-form chain weights equal the explicit sums.
    #[test]
    fn chain_weights_match_explicit_sums() {
        for k in 1usize..12 {
            let m = k - 1;
            let kf = k as f64;
            let wa: Vec<f64> = (1..k).map(|j| (kf - j as f64) / kf).collect();
            let wb: Vec<f64> = (1..k).map(|j| j as f64 / kf).collect();
            // G = tridiag(−1, 2, −1)⁻¹ has G_ij = min(i,j)·(k − max(i,j))/k.
            let green = |i: usize, j: usize| (i.min(j) * (k - i.max(j))) as f64 / kf;
            let dot = |x: &[f64], y: &[f64]| x.iter().zip(y).map(|(p, q)| p * q).sum::<f64>();
            let gx = |x: &[f64]| -> Vec<f64> {
                (1..=m)
                    .map(|i| (1..=m).map(|j| green(i, j) * x[j - 1]).sum())
                    .collect()
            };
            let (aa0, ab0, aa1, ab1) = chain_weights(kf);
            let tol = 1e-13;
            assert!((aa0 - dot(&wa, &wa)).abs() <= tol, "k={k}");
            assert!((ab0 - dot(&wa, &wb)).abs() <= tol, "k={k}");
            assert!((aa1 - dot(&wa, &gx(&wa))).abs() <= tol * kf, "k={k}");
            assert!((ab1 - dot(&wb, &gx(&wa))).abs() <= tol * kf, "k={k}");
        }
    }

    /// Every error `wire_moments` raises has its table counterpart, and a
    /// probe outside the rows is refused when the table is built.
    #[test]
    fn table_checks_its_inputs() {
        let g = star();
        let tech = Technology::date94();
        let opts = ExtractOptions::default();
        let ex = extract(&g, &tech, &opts).unwrap();
        let engine = MomentEngine::new(&ex.circuit, 1).unwrap();
        let table = engine
            .endpoint_table(&ex.graph_nodes, &ex.sink_nodes)
            .unwrap();
        let nodes: Vec<_> = g.node_ids().collect();
        let wire = ex
            .candidate_wire(&g, &tech, &opts, nodes[1], nodes[2], 1.0)
            .unwrap();
        // Endpoint rows swapped, or out of range.
        for ends in [(2, 1), (1, 99)] {
            assert!(matches!(
                engine.table_wire_moments(&table, &wire, ends, |_| {}),
                Err(SimError::UnknownProbe { .. })
            ));
        }
        // A zero-resistance wire has an infinite Sherman–Morrison
        // denominator on both paths.
        let ideal = CandidateWire {
            seg_resistance: 0.0,
            ..wire
        };
        assert!(matches!(
            engine.wire_moments(&ideal, &ex.sink_nodes),
            Err(SimError::Solve(SolveError::Singular { .. }))
        ));
        assert!(matches!(
            engine.table_wire_moments(&table, &ideal, (1, 2), |_| {}),
            Err(SimError::Solve(SolveError::Singular { .. }))
        ));
        // Probes must be rows; ground is never a row.
        assert!(matches!(
            engine.endpoint_table(&ex.graph_nodes, &[ex.input_node]),
            Err(SimError::UnknownProbe { .. })
        ));
        assert!(matches!(
            engine.endpoint_table(&[0], &[]),
            Err(SimError::UnknownProbe { node: 0 })
        ));
        // A table from an engine of another size is refused.
        let other = extract(
            &g,
            &tech,
            &ExtractOptions {
                segmentation: Segmentation::PerEdge(1),
                include_inductance: false,
            },
        )
        .unwrap();
        let small = MomentEngine::new(&other.circuit, 1).unwrap();
        assert!(matches!(
            small.table_wire_moments(&table, &wire, (1, 2), |_| {}),
            Err(SimError::Solve(SolveError::DimensionMismatch { .. }))
        ));
    }

    #[test]
    fn bytes_for_counts_columns_and_base() {
        assert_eq!(EndpointTable::bytes_for(100, 1), 2 * 100 * 101 * 8);
        assert_eq!(EndpointTable::bytes_for(0, 2), 0);
        assert_eq!(EndpointTable::bytes_for(usize::MAX, 1), usize::MAX);
    }
}
