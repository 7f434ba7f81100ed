//! `ntr-obs`: the observability layer — zero external dependencies,
//! consistent with the workspace's offline build.
//!
//! The routing stack has two performance-critical layers (the incremental
//! candidate-evaluation engine and the concurrent server) and one
//! question that keeps coming back: *where does the time go inside a
//! request?* This crate answers it without pulling in `tracing`,
//! `prometheus`, or `serde`:
//!
//! - [`log`] — a leveled logger controlled by the `NTR_LOG` environment
//!   variable (`off`, `error`, `warn`, `info`, `debug`, `trace`), used
//!   through the [`log_error!`](crate::log_error) …
//!   [`log_trace!`](crate::log_trace) macros. A disabled level costs one
//!   `Ordering::Relaxed` atomic load.
//! - [`span`] — span-based tracing: a thread-local span stack with
//!   monotonic timestamps and per-request trace ids. Disabled tracing
//!   (the default) costs one relaxed atomic load per span site.
//! - [`metrics`] — named [`Counter`](metrics::Counter)s,
//!   [`Gauge`](metrics::Gauge)s, and power-of-two-bucket
//!   [`Histogram`](metrics::Histogram)s collected in a
//!   [`MetricsRegistry`](metrics::MetricsRegistry).
//! - [`prometheus`] — renders a registry in Prometheus text exposition
//!   format, plus [`check_exposition`](prometheus::check_exposition), a
//!   tiny format checker shared by unit tests and the CI smoke gate.
//! - [`chrome`] — exports collected spans as Chrome trace-event JSON
//!   (loadable in `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)),
//!   plus a validator used by tests.
//! - [`profile`] — aggregates collected spans into an inclusive/self-time
//!   call tree, exported as flamegraph folded stacks or a top-N
//!   self-time table (`route --profile-out`, the server's
//!   `{"op":"profile"}`).
//! - [`compare`] — statistical verdicts (regressed / improved /
//!   unchanged) over summarized measurements: the primitive behind the
//!   `ntr-bench` regression gate.
//! - [`journal`] — the flight recorder: an always-on wait-free ring of
//!   wide per-request events and per-LDRG-iteration records, plus
//!   tail-sampled full-trace exemplars (slowest-K + every
//!   error/degraded/injected request) and a strict JSON-lines checker.
//! - [`json`] — the workspace's hand-rolled JSON value/parser/printer
//!   (rehomed from `ntr-server`, which re-exports it for compatibility).
//! - [`tsdb`] — an embedded fixed-memory time-series store: periodic
//!   registry snapshots into multi-resolution stamped rings
//!   (1 s/10 s/60 s), queryable (`{"op":"query"}`, `GET /tsdb`) and
//!   rendered as `/statusz` sparklines.
//! - [`slo`] — declarative latency/availability SLOs evaluated with
//!   multi-window burn-rate rules (fire iff fast *and* slow windows
//!   burn hot, clear with hysteresis), edge-counted so chaos tests can
//!   assert exact fire→clear cycles.
//! - [`sampler`] — the always-on sampling profiler: a background thread
//!   reads every live span stack (a seqlock-protected view maintained
//!   by [`span`]) at a fixed rate and aggregates the paths into the
//!   [`profile`] machinery (`GET /profilez`, `route
//!   --sample-profile-out`).
//!
//! # Example
//!
//! ```
//! use ntr_obs::{metrics::MetricsRegistry, span};
//!
//! // Metrics: register once, update from anywhere.
//! let registry = MetricsRegistry::new();
//! let requests = registry.counter("requests_total", "Requests handled");
//! requests.inc();
//! let text = ntr_obs::prometheus::render(&registry);
//! ntr_obs::prometheus::check_exposition(&text).unwrap();
//!
//! // Tracing: enable, record spans, export a Chrome trace.
//! span::set_enabled(true);
//! {
//!     let _request = span::span("request");
//!     let _inner = span::span("inner_phase");
//! }
//! span::set_enabled(false);
//! let spans = span::take_spans();
//! let trace = ntr_obs::chrome::chrome_trace(&spans);
//! ntr_obs::chrome::validate_chrome_trace(&trace).unwrap();
//! ```

pub mod chrome;
pub mod compare;
pub mod journal;
pub mod json;
pub mod log;
pub mod metrics;
pub mod profile;
pub mod prometheus;
pub mod sampler;
pub mod slo;
pub mod span;
pub mod tsdb;

pub use journal::Journal;
pub use json::Json;
pub use log::Level;
pub use metrics::MetricsRegistry;
pub use span::{span, SpanRecord};
