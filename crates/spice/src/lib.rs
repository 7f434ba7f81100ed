//! A transient circuit simulator — the SPICE substitute of the
//! reproduction.
//!
//! McCoy & Robins evaluate every routing with Berkeley SPICE. This crate
//! implements the same measurement chain from scratch:
//!
//! 1. [`Mna`] — modified nodal analysis: stamps R, C, L and voltage
//!    sources into the descriptor system `A_s·x + A_d·x' = b(t)` with
//!    branch currents for sources and inductors,
//! 2. [`TransientSim`] — fixed-step Backward-Euler or trapezoidal
//!    integration, factoring the companion matrix once per run with the
//!    sparse LU from [`ntr-sparse`],
//! 3. [`measure_threshold_crossing`] — interpolated 50 % rise-time
//!    extraction, the delay SPICE users script with `.measure`,
//! 4. [`Moments`] — AWE-style moment analysis (`m₁`, `m₂`, …) of the
//!    step response on **arbitrary RC(L) graphs**, giving the exact Elmore
//!    delay of non-tree routings via one sparse solve (the role the paper
//!    delegates to Chan–Karplus tree/link partitioning), plus the D2M
//!    two-moment delay metric.
//!
//! The one-call convenience for routing work is [`sink_delays`], which
//! extracts nothing itself — it consumes an
//! [`Extracted`](ntr_circuit::Extracted) circuit — and returns the 50 %
//! propagation delay of every sink.
//!
//! [`ntr-sparse`]: ../ntr_sparse/index.html
//!
//! # Examples
//!
//! Delay of a 1 mm wire under the paper's technology:
//!
//! ```
//! use ntr_circuit::{extract, ExtractOptions, Technology};
//! use ntr_geom::{Net, Point};
//! use ntr_graph::prim_mst;
//! use ntr_spice::{sink_delays, SimConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = Net::new(Point::new(0.0, 0.0), vec![Point::new(1000.0, 0.0)])?;
//! let extracted = extract(&prim_mst(&net), &Technology::date94(), &ExtractOptions::default())?;
//! let delays = sink_delays(&extracted, &SimConfig::default())?;
//! assert_eq!(delays.len(), 1);
//! assert!(delays[0] > 0.0 && delays[0] < 1e-9); // well under a nanosecond
//! # Ok(())
//! # }
//! ```

mod adaptive;
mod delay;
mod engine;
mod error;
mod mna;
mod moments;
mod tran;
mod workspace;

pub use adaptive::AdaptiveOptions;
pub use delay::{measure_threshold_crossing, sink_delays, sink_delays_with, SimConfig};
pub use engine::{EndpointTable, MomentEngine, ProbeMoments, ProbeView};
pub use error::SimError;
pub use mna::{Mna, MnaScratch};
pub use moments::{d2m_delay, elmore_delays, Moments};
pub use tran::{Integrator, TransientResult, TransientSim};
pub use workspace::SimWorkspace;
