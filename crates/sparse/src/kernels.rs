//! The lane-chunked scatter kernel behind the triangular solves and the
//! left-looking update loops.
//!
//! The inner loop of every sparse solve in this crate is a *scatter
//! fused-negative-multiply-add*: `y[rows[i]] -= vals[i] * xj` over the
//! stored entries of one factor column. Row indices within a column are
//! distinct, so the four updates of a lane chunk touch four different
//! memory cells and can be computed in any order — reordering them is
//! **bit-exact** (each `y[r]` still receives exactly the same single
//! `y[r] - v*xj` rounding). That is the property that lets the kernel
//! claim bit-for-bit equality with the naive loop it replaces.
//!
//! The kernel is a portable 4-wide lane-chunked form (`chunks_exact(4)`),
//! written so LLVM can keep the four independent FLOPs in flight. Scatter
//! targets cannot be vector-stored on the baseline x86-64 feature set, so
//! there is no architecture-specific path.

/// `y[rows[i]] -= vals[i] * xj` for every stored entry of a column.
///
/// Bit-exact with the naive loop (distinct rows ⇒ independent updates).
#[inline]
pub(crate) fn scatter_fnma(y: &mut [f64], rows: &[usize], vals: &[f64], xj: f64) {
    debug_assert_eq!(rows.len(), vals.len());
    // Near-tree factor columns hold one or two entries; skip the chunk
    // machinery entirely for them.
    if rows.len() < 4 {
        for (&r, &v) in rows.iter().zip(vals) {
            y[r] -= v * xj;
        }
        return;
    }
    let mut r4 = rows.chunks_exact(4);
    let mut v4 = vals.chunks_exact(4);
    for (r, v) in (&mut r4).zip(&mut v4) {
        // Four independent read-modify-writes: rows within a column are
        // distinct, so gathering all four before writing is safe.
        let y0 = y[r[0]] - v[0] * xj;
        let y1 = y[r[1]] - v[1] * xj;
        let y2 = y[r[2]] - v[2] * xj;
        let y3 = y[r[3]] - v[3] * xj;
        y[r[0]] = y0;
        y[r[1]] = y1;
        y[r[2]] = y2;
        y[r[3]] = y3;
    }
    for (&r, &v) in r4.remainder().iter().zip(v4.remainder()) {
        y[r] -= v * xj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_scatter(y: &mut [f64], rows: &[usize], vals: &[f64], xj: f64) {
        for (&r, &v) in rows.iter().zip(vals) {
            y[r] -= v * xj;
        }
    }

    #[test]
    fn scatter_is_bit_exact_vs_naive() {
        for n in [0usize, 1, 3, 4, 5, 7, 8, 13, 64] {
            let rows: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % (n.max(1) * 2)).collect();
            // Make the scatter targets distinct, as factor columns are.
            let mut seen = std::collections::HashSet::new();
            let rows: Vec<usize> = rows
                .into_iter()
                .enumerate()
                .map(|(i, r)| if seen.insert(r) { r } else { n * 2 + i })
                .collect();
            let vals: Vec<f64> = (0..n).map(|i| (i as f64) * 0.37 - 1.1).collect();
            let mut y1: Vec<f64> = (0..n * 3 + 1).map(|i| (i as f64).sin()).collect();
            let mut y2 = y1.clone();
            scatter_fnma(&mut y1, &rows, &vals, 0.73);
            naive_scatter(&mut y2, &rows, &vals, 0.73);
            assert!(y1.iter().zip(&y2).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }
}
