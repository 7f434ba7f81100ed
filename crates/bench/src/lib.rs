//! Benchmark infrastructure: Criterion microbench helpers plus the
//! `ntr-bench` performance observatory.
//!
//! The Criterion benches live in `benches/`:
//!
//! - `tables.rs` — one benchmark per paper table (2–7), running a reduced
//!   sweep of the same experiment code the `repro` binary uses,
//! - `figures.rs` — the figure demonstrations (1, 2, 3, 5),
//! - `micro.rs` — substrate microbenchmarks (MST, Elmore, sparse vs dense
//!   LU, transient step, Steiner, ERT),
//! - `ablations.rs` — design-choice measurements called out in DESIGN.md
//!   (wire segmentation, oracle choice, integrator, inductance).
//!
//! The observatory (the `ntr-bench` binary in `src/bin/`) is built from:
//!
//! - [`workloads`] — the registry of named deterministic workloads,
//! - [`stats`] — median / MAD / bootstrap-CI summaries,
//! - [`artifact`] — `BENCH_<workload>.json` and trajectory-file I/O,
//! - [`compare`] — the baseline regression detector behind `--gate`:
//!   the threshold + CI-overlap verdict rule and the artifact pairing.

use ntr_eval::EvalConfig;
use ntr_geom::{Layout, Net, NetGenerator};

pub mod artifact;
pub mod compare;
pub mod stats;
pub mod workloads;

/// The reduced sweep used by table benches: one size, a handful of nets —
/// enough to exercise the full code path with a stable runtime.
#[must_use]
pub fn bench_config() -> EvalConfig {
    EvalConfig {
        sizes: vec![10],
        nets_per_size: 3,
        ..EvalConfig::full()
    }
}

/// A deterministic random net for microbenchmarks.
#[must_use]
pub fn bench_net(size: usize) -> Net {
    NetGenerator::new(Layout::date94(), 0xBEEF)
        .random_net(size)
        .expect("benchmark sizes are >= 2")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_are_deterministic() {
        assert_eq!(bench_net(10), bench_net(10));
        assert_eq!(bench_config().sizes, vec![10]);
    }
}
