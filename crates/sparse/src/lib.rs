//! Dense and sparse linear solvers for circuit simulation.
//!
//! This crate is the numerical substrate under the `ntr-spice` transient
//! simulator. It provides, implemented from scratch:
//!
//! - [`DenseMatrix`] with LU factorization and partial pivoting
//!   ([`DenseLu`]) — the reference solver,
//! - [`TripletMatrix`] → [`CscMatrix`] sparse storage (duplicate entries
//!   are summed, matching MNA stamping semantics),
//! - [`SparseLu`] — a left-looking Gilbert–Peierls sparse LU with
//!   threshold partial pivoting and an optional minimum-degree fill-in
//!   reducing column preordering, the same family of algorithms SPICE-class
//!   simulators use for their (nearly tree-structured, extremely sparse)
//!   modified-nodal-analysis matrices.
//!
//! Circuit matrices from RC routing trees are almost acyclic, so the sparse
//! LU runs in near-linear time and lets the simulator factor once per time
//! step size and back-substitute per step.
//!
//! # Examples
//!
//! ```
//! use ntr_sparse::{SparseLu, TripletMatrix, Ordering};
//!
//! # fn main() -> Result<(), ntr_sparse::SolveError> {
//! // 2x2 system: [2 1; 1 3] x = [3; 5]  =>  x = [0.8, 1.4]
//! let mut a = TripletMatrix::new(2, 2);
//! a.push(0, 0, 2.0);
//! a.push(0, 1, 1.0);
//! a.push(1, 0, 1.0);
//! a.push(1, 1, 3.0);
//! let lu = SparseLu::factor(&a.to_csc(), Ordering::MinDegree)?;
//! let mut x = vec![3.0, 5.0];
//! lu.solve_in_place(&mut x)?;
//! assert!((x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod csc;
mod csr;
mod dense;
mod error;
mod kernels;
mod lu;
mod ordering;
mod rank1;
mod refine;
mod triplet;
mod workspace;

pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::{DenseLu, DenseMatrix};
pub use error::SolveError;
pub use lu::SparseLu;
pub use ordering::{
    min_degree_ordering, min_degree_ordering_into, min_degree_ordering_with, Ordering,
};
pub use rank1::Rank1Update;
pub use triplet::{CscScratch, TripletMatrix};
pub use workspace::{LuWorkspace, MinDegreeWorkspace};
