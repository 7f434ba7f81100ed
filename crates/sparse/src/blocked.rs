//! Supernodal-style blocked triangular solves.
//!
//! Gilbert–Peierls emits `L` column by column; on matrices with real
//! fill-in (grids, meshes, coupled nets — unlike pure RC chains) runs of
//! consecutive pivot columns share the same below-diagonal row pattern.
//! [`BlockedLu`] detects those runs (*supernodes*), stores their values
//! as dense column-major panels, and solves `L` with dense kernels:
//!
//! ```text
//!        ┌ j0 … j1 ┐
//!   j0.. │ 1       │   w×w unit-lower diagonal block (dense, col-major)
//!        │ *  1    │
//!        │ *  *  1 │
//!        ├─────────┤
//!   R    │ *  *  * │   nr×w panel over the shared row set R (dense)
//!        └─────────┘
//! ```
//!
//! The panel update gathers `y[R]` into a contiguous buffer once, applies
//! `w` contiguous [`axpy_neg`] passes (4-wide SIMD where available), and
//! scatters back — turning `w` indirect scatters into one gather/scatter
//! pair plus dense arithmetic.
//!
//! **Determinism:** each `y[r]` receives exactly the same multiply-
//! subtract sequence as the column-by-column solve (columns ascending,
//! one rounding per update), so blocked solves are bit-exact with
//! [`SparseLu::solve_in_place`]. Entries *within* a column may be applied
//! in a different order, but they target distinct elements, which is
//! precisely why the order is immaterial.

use crate::kernels::{axpy_neg, scatter_fnma};
use crate::workspace::LuWorkspace;
use crate::{SolveError, SparseLu};

/// Maximum supernode width; bounds the dense diagonal block cost.
const MAX_WIDTH: usize = 32;

/// A [`SparseLu`] factorization repackaged with supernodal dense panels
/// for its forward (L) solve.
///
/// # Examples
///
/// ```
/// use ntr_sparse::{BlockedLu, Ordering, SparseLu, TripletMatrix};
/// # fn main() -> Result<(), ntr_sparse::SolveError> {
/// let n = 6;
/// let mut t = TripletMatrix::new(n, n);
/// for i in 0..n {
///     t.push(i, i, 4.0);
///     for j in 0..i {
///         t.push(i, j, -0.3);
///         t.push(j, i, -0.3);
///     }
/// }
/// let a = t.to_csc();
/// let lu = SparseLu::factor(&a, Ordering::MinDegree)?;
/// let reference = lu.solve(&vec![1.0; n])?;
/// let blocked = BlockedLu::new(lu);
/// let mut x = vec![1.0; n];
/// blocked.solve_in_place(&mut x)?;
/// assert_eq!(x, reference); // bit-exact
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BlockedLu {
    base: SparseLu,
    /// Supernode s covers pivot columns `sn_ptr[s]..sn_ptr[s+1]`.
    sn_ptr: Vec<usize>,
    /// Below-panel row sets: supernode s owns
    /// `panel_rows[row_ptr[s]..row_ptr[s+1]]` (pivot row space, sorted).
    row_ptr: Vec<usize>,
    panel_rows: Vec<usize>,
    /// Dense storage per supernode at `val_ptr[s]`: first the w×w
    /// unit-lower diagonal block, then the nr×w panel, both column-major.
    val_ptr: Vec<usize>,
    vals: Vec<f64>,
}

impl BlockedLu {
    /// Builds the supernodal form of `lu`. The base factorization is kept
    /// (it still serves the U back-substitution and the permutations).
    #[must_use]
    pub fn new(lu: SparseLu) -> Self {
        let n = lu.order();
        let (l_colptr, l_rows, l_vals) = lu.l_parts();
        // Sorted below-diagonal pattern of each L column, pivot row space.
        // (Reach order is not sorted; sorting is safe — see module doc.)
        let mut col_pat: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        for j in 0..n {
            let span = (l_colptr[j] + 1)..l_colptr[j + 1];
            let mut pat: Vec<(usize, f64)> = l_rows[span.clone()]
                .iter()
                .copied()
                .zip(l_vals[span].iter().copied())
                .collect();
            pat.sort_unstable_by_key(|&(r, _)| r);
            col_pat.push(pat);
        }
        // Partition into supernodes: extend while the next column's
        // pattern is the current column's minus its own pivot row.
        let mut sn_ptr = vec![0usize];
        let mut j = 0;
        while j < n {
            let mut end = j + 1;
            while end < n && end - j < MAX_WIDTH {
                let prev = &col_pat[end - 1];
                let next = &col_pat[end];
                let matches = prev.len() == next.len() + 1
                    && prev.first().is_some_and(|&(r, _)| r == end)
                    && prev[1..]
                        .iter()
                        .zip(next.iter())
                        .all(|(&(a, _), &(b, _))| a == b);
                if !matches {
                    break;
                }
                end += 1;
            }
            sn_ptr.push(end);
            j = end;
        }
        // Lay out dense blocks.
        let nsn = sn_ptr.len() - 1;
        let mut row_ptr = Vec::with_capacity(nsn + 1);
        let mut panel_rows = Vec::new();
        let mut val_ptr = Vec::with_capacity(nsn + 1);
        let mut vals = Vec::new();
        row_ptr.push(0);
        for s in 0..nsn {
            let (j0, j1) = (sn_ptr[s], sn_ptr[s + 1]);
            let w = j1 - j0;
            // Shared row set = below-pattern of the first column minus the
            // supernode's own pivot rows.
            let rows: Vec<usize> = col_pat[j0]
                .iter()
                .map(|&(r, _)| r)
                .filter(|&r| r >= j1)
                .collect();
            let nr = rows.len();
            val_ptr.push(vals.len());
            vals.resize(vals.len() + w * w + nr * w, 0.0);
            let base_off = *val_ptr.last().expect("just pushed");
            for c in 0..w {
                for &(r, v) in &col_pat[j0 + c] {
                    if r < j1 {
                        // Diagonal block entry (r − j0, c).
                        vals[base_off + c * w + (r - j0)] = v;
                    } else {
                        let pos = rows.binary_search(&r).expect("supernode row set");
                        vals[base_off + w * w + c * nr + pos] = v;
                    }
                }
            }
            panel_rows.extend_from_slice(&rows);
            row_ptr.push(panel_rows.len());
        }
        val_ptr.push(vals.len());
        Self {
            base: lu,
            sn_ptr,
            row_ptr,
            panel_rows,
            val_ptr,
            vals,
        }
    }

    /// The wrapped column-form factorization.
    #[must_use]
    pub fn base(&self) -> &SparseLu {
        &self.base
    }

    /// Number of detected supernodes.
    #[must_use]
    pub fn supernode_count(&self) -> usize {
        self.sn_ptr.len() - 1
    }

    /// Average supernode width — `order / supernode_count`. Near 1.0 the
    /// blocked form degenerates to the column solve plus overhead; callers
    /// can use this to pick a solver per matrix (a structural property,
    /// so the choice stays deterministic).
    #[must_use]
    pub fn mean_width(&self) -> f64 {
        let nsn = self.supernode_count();
        if nsn == 0 {
            return 1.0;
        }
        self.base.order() as f64 / nsn as f64
    }

    /// Solves `A·x = b` in place; bit-exact with
    /// [`SparseLu::solve_in_place`].
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DimensionMismatch`] when `b.len() != order`.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<(), SolveError> {
        let mut ws = LuWorkspace::new();
        self.solve_in_place_with(b, &mut ws)
    }

    /// [`BlockedLu::solve_in_place`] with caller-provided scratch.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::DimensionMismatch`] when `b.len() != order`.
    pub fn solve_in_place_with(
        &self,
        b: &mut [f64],
        ws: &mut LuWorkspace,
    ) -> Result<(), SolveError> {
        let n = self.base.order();
        if b.len() != n {
            return Err(SolveError::DimensionMismatch {
                expected: n,
                got: b.len(),
            });
        }
        ws.y.clear();
        ws.y.resize(n, 0.0);
        // Gather buffer for panel updates (reuses the factor scatter vec).
        ws.x.clear();
        ws.x.resize(n, 0.0);
        let mut y = std::mem::take(&mut ws.y);
        let mut t = std::mem::take(&mut ws.x);
        let result = self.solve_using(b, &mut y, &mut t);
        // Leave the gather buffer zeroed for the next factor() user.
        t.fill(0.0);
        ws.y = y;
        ws.x = t;
        result
    }

    fn solve_using(&self, b: &mut [f64], y: &mut [f64], t: &mut [f64]) -> Result<(), SolveError> {
        let n = self.base.order();
        let pinv = self.base.row_permutation();
        let q = self.base.column_order();
        // y = P·b
        for i in 0..n {
            y[pinv[i]] = b[i];
        }
        // Supernodal forward solve.
        for s in 0..self.supernode_count() {
            let (j0, j1) = (self.sn_ptr[s], self.sn_ptr[s + 1]);
            let w = j1 - j0;
            let off = self.val_ptr[s];
            // Unit-lower diagonal block.
            for c in 0..w {
                let yc = y[j0 + c];
                if yc != 0.0 {
                    let col = &self.vals[off + c * w + c + 1..off + c * w + w];
                    axpy_neg(&mut y[j0 + c + 1..j1], col, yc);
                }
            }
            // Panel update over the shared row set.
            let rows = &self.panel_rows[self.row_ptr[s]..self.row_ptr[s + 1]];
            let nr = rows.len();
            if nr == 0 {
                continue;
            }
            let panel = off + w * w;
            if w == 1 {
                // Single column: scatter directly, no gather round-trip.
                let yc = y[j0];
                if yc != 0.0 {
                    scatter_fnma(y, rows, &self.vals[panel..panel + nr], yc);
                }
                continue;
            }
            let gather = &mut t[..nr];
            for (g, &r) in gather.iter_mut().zip(rows) {
                *g = y[r];
            }
            for c in 0..w {
                let yc = y[j0 + c];
                if yc != 0.0 {
                    axpy_neg(gather, &self.vals[panel + c * nr..panel + (c + 1) * nr], yc);
                }
            }
            for (g, &r) in gather.iter().zip(rows) {
                y[r] = *g;
            }
        }
        // Back substitution on the column-form U (diagonal last).
        let (u_colptr, u_rows, u_vals) = self.base.u_parts();
        for k in (0..n).rev() {
            let diag_idx = u_colptr[k + 1] - 1;
            y[k] /= u_vals[diag_idx];
            let yk = y[k];
            if yk != 0.0 {
                let span = u_colptr[k]..diag_idx;
                scatter_fnma(y, &u_rows[span.clone()], &u_vals[span], yk);
            }
        }
        // x = Q·w
        for k in 0..n {
            b[q[k]] = y[k];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ordering, TripletMatrix};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_dd(seed: u64, n: usize, density: f64) -> TripletMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = TripletMatrix::new(n, n);
        let mut row_sum = vec![0.0; n];
        for (i, sum) in row_sum.iter_mut().enumerate() {
            for j in 0..n {
                if i != j && rng.gen_bool(density) {
                    let v: f64 = rng.gen_range(-1.0..1.0);
                    if v != 0.0 {
                        t.push(i, j, v);
                        *sum += v.abs();
                    }
                }
            }
        }
        for (i, sum) in row_sum.iter().enumerate() {
            t.push(i, i, sum + 1.0 + rng.gen_range(0.0..1.0));
        }
        t
    }

    /// Blocked and column solves agree bit-for-bit across densities
    /// (which exercise both supernodal and width-1 paths) and orderings.
    #[test]
    fn blocked_solve_is_bit_exact() {
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let n = rng.gen_range(1..60);
            let density = [0.02, 0.1, 0.4, 0.9][seed as usize % 4];
            let t = random_dd(seed, n, density);
            let a = t.to_csc();
            for ord in [Ordering::Natural, Ordering::MinDegree] {
                let lu = SparseLu::factor(&a, ord).unwrap();
                let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
                let reference = lu.solve(&b).unwrap();
                let blocked = BlockedLu::new(lu);
                let mut x = b.clone();
                blocked.solve_in_place(&mut x).unwrap();
                assert!(
                    reference
                        .iter()
                        .zip(&x)
                        .all(|(p, q)| p.to_bits() == q.to_bits()),
                    "seed {seed} ord {ord:?}"
                );
            }
        }
    }

    /// Dense-ish matrices actually form multi-column supernodes.
    #[test]
    fn dense_matrices_form_supernodes() {
        let n = 24;
        let t = random_dd(7, n, 0.8);
        let lu = SparseLu::factor(&t.to_csc(), Ordering::MinDegree).unwrap();
        let blocked = BlockedLu::new(lu);
        assert!(blocked.mean_width() > 1.5, "width {}", blocked.mean_width());
    }

    /// Workspace-based solve matches the allocating one.
    #[test]
    fn workspace_solve_matches() {
        let t = random_dd(3, 20, 0.3);
        let lu = SparseLu::factor(&t.to_csc(), Ordering::MinDegree).unwrap();
        let blocked = BlockedLu::new(lu);
        let b: Vec<f64> = (0..20).map(|i| i as f64 - 9.5).collect();
        let mut x1 = b.clone();
        blocked.solve_in_place(&mut x1).unwrap();
        let mut ws = LuWorkspace::new();
        let mut x2 = b.clone();
        blocked.solve_in_place_with(&mut x2, &mut ws).unwrap();
        assert_eq!(x1, x2);
    }
}
