//! Property-based cross-validation of the sparse and dense solvers.

use ntr_sparse::{LuWorkspace, Ordering, SparseLu, TripletMatrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random diagonally dominant system (always nonsingular) of order
/// `n` with roughly `density` off-diagonal fill.
fn random_dd_system(seed: u64, n: usize, density: f64) -> TripletMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = TripletMatrix::new(n, n);
    let mut row_sums = vec![0.0f64; n];
    for (i, rs) in row_sums.iter_mut().enumerate() {
        for j in 0..n {
            if i != j && rng.gen_bool(density) {
                let v: f64 = rng.gen_range(-1.0..1.0);
                if v != 0.0 {
                    t.push(i, j, v);
                    *rs += v.abs();
                }
            }
        }
    }
    for (i, s) in row_sums.iter().enumerate() {
        t.push(i, i, s + 1.0 + rng.gen_range(0.0..1.0));
    }
    t
}

/// Builds a random symmetric positive definite system of order `n`:
/// symmetric off-diagonal fill with a strictly dominant positive diagonal
/// (SPD by Gershgorin's circle theorem).
fn random_spd_system(seed: u64, n: usize, density: f64) -> TripletMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = TripletMatrix::new(n, n);
    let mut row_sums = vec![0.0f64; n];
    for i in 0..n {
        for j in i + 1..n {
            if rng.gen_bool(density) {
                let v: f64 = rng.gen_range(-1.0..1.0);
                if v != 0.0 {
                    t.push(i, j, v);
                    t.push(j, i, v);
                    row_sums[i] += v.abs();
                    row_sums[j] += v.abs();
                }
            }
        }
    }
    for (i, s) in row_sums.iter().enumerate() {
        t.push(i, i, s + 1.0 + rng.gen_range(0.0..1.0));
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The lane-chunked column solver matches the dense reference to
    /// 1e-9 relative error on random SPD systems.
    #[test]
    fn column_solves_match_dense_on_spd(
        seed in 0u64..10_000, n in 1usize..40, density in 0.05f64..0.4,
    ) {
        let t = random_spd_system(seed, n, density);
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).cos()).collect();
        let dense = t.to_dense().lu().unwrap().solve(&b).unwrap();
        for ord in [Ordering::Natural, Ordering::MinDegree] {
            let sparse = SparseLu::factor(&t.to_csc(), ord).unwrap().solve(&b).unwrap();
            for (s, d) in sparse.iter().zip(&dense) {
                prop_assert!((s - d).abs() <= 1e-9 * (1.0 + d.abs()), "ord {ord:?}: {s} vs {d}");
            }
        }
    }

    /// Same guarantee on asymmetric (diagonally dominant) systems, through
    /// the workspace-reusing entry points the hot path uses.
    #[test]
    fn column_solves_match_dense_on_asymmetric(
        seed in 0u64..10_000, n in 1usize..40, density in 0.05f64..0.4,
    ) {
        let t = random_dd_system(seed, n, density);
        let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.61).sin() + 0.25).collect();
        let dense = t.to_dense().lu().unwrap().solve(&b).unwrap();
        let mut ws = LuWorkspace::new();
        let lu = SparseLu::factor_with(&t.to_csc(), Ordering::MinDegree, &mut ws).unwrap();
        let mut sparse = b.clone();
        lu.solve_in_place_with(&mut sparse, &mut ws).unwrap();
        for (s, d) in sparse.iter().zip(&dense) {
            prop_assert!((s - d).abs() <= 1e-9 * (1.0 + d.abs()), "{s} vs {d}");
        }
    }

    /// Sparse LU and dense LU agree on random diagonally dominant systems.
    #[test]
    fn sparse_matches_dense(seed in 0u64..10_000, n in 1usize..30, density in 0.05f64..0.5) {
        let t = random_dd_system(seed, n, density);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let dense = t.to_dense().lu().unwrap().solve(&b).unwrap();
        for ord in [Ordering::Natural, Ordering::MinDegree] {
            let sparse = SparseLu::factor(&t.to_csc(), ord).unwrap().solve(&b).unwrap();
            for (s, d) in sparse.iter().zip(&dense) {
                prop_assert!((s - d).abs() < 1e-8 * (1.0 + d.abs()), "ord {ord:?}: {s} vs {d}");
            }
        }
    }

    /// `A·solve(b) == b` to high accuracy.
    #[test]
    fn residual_is_small(seed in 0u64..10_000, n in 1usize..40) {
        let t = random_dd_system(seed, n, 0.2);
        let a = t.to_csc();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
        let x = SparseLu::factor(&a, Ordering::MinDegree).unwrap().solve(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-8);
        }
    }

    /// matvec agrees between CSC and dense forms.
    #[test]
    fn matvec_agrees(seed in 0u64..10_000, n in 1usize..25) {
        let t = random_dd_system(seed, n, 0.3);
        let x: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 1.0).collect();
        let ys = t.to_csc().matvec(&x).unwrap();
        let yd = t.to_dense().matvec(&x).unwrap();
        for (a, b) in ys.iter().zip(&yd) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    /// Identity round-trip: solving with the identity returns b itself.
    #[test]
    fn identity_round_trip(n in 1usize..20) {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 1.0);
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let x = SparseLu::factor(&t.to_csc(), Ordering::MinDegree).unwrap().solve(&b).unwrap();
        prop_assert_eq!(x, b);
    }

    /// Permuted identity (a pure row permutation) is solved exactly.
    #[test]
    fn permutation_matrices_are_exact(seed in 0u64..10_000, n in 2usize..20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let mut t = TripletMatrix::new(n, n);
        for (i, &p) in perm.iter().enumerate() {
            t.push(i, p, 1.0);
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let x = SparseLu::factor(&t.to_csc(), Ordering::Natural).unwrap().solve(&b).unwrap();
        // A x = b with A[i, perm[i]] = 1 means x[perm[i]] = b[i].
        for i in 0..n {
            prop_assert!((x[perm[i]] - b[i]).abs() < 1e-12);
        }
    }
}
