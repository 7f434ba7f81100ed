//! `ntr-server`: a concurrent batch routing service over the
//! non-tree routing algorithms of `ntr-core`.
//!
//! The paper's experiments route one net at a time; a placement flow
//! routes hundreds of thousands. This crate wraps the routers in a
//! long-lived service shaped for that workload:
//!
//! - **Protocol** ([`proto`], [`json`]): JSON-lines — one request
//!   object per line in, one response object per line out, correlated
//!   by `id`. Hand-rolled JSON because the build is offline.
//! - **Concurrency** ([`pool`], [`service`]): a bounded queue feeding
//!   a fixed worker pool. A full queue answers `overloaded`
//!   immediately — backpressure instead of unbounded latency.
//! - **Deadlines**: per-request budgets enforced cooperatively by a
//!   [`CancelToken`](ntr_core::CancelToken) threaded into the greedy
//!   searches; an expiring request stops within one candidate score.
//! - **Resilience** ([`engine`]): rather than answering `deadline`,
//!   requests degrade down the [`Fidelity`](ntr_core::Fidelity) ladder
//!   (transient → moment → tree-only Elmore) when the remaining budget
//!   can't cover the requested oracle; transient oracle failures retry
//!   with jittered backoff; a [`FaultPlan`](ntr_core::FaultPlan)
//!   (`NTR_FAULTS` or the `faults` op) injects faults for chaos testing.
//! - **Caching** ([`cache`], [`engine`]): a content-addressed LRU on
//!   the canonical net hash — pin order, `-0.0`, and duplicate pads
//!   don't defeat it.
//! - **Transports** ([`server`]): `--stdio` for pipelines and tests,
//!   `--listen` for TCP.
//! - **Observability** ([`stats`], [`statusz`], [`http`]): per-service
//!   counters and histograms on `/metrics`, a sliding-window `/statusz`
//!   dashboard, and the process-wide flight recorder
//!   ([`ntr_obs::journal`]) surfaced as `{"op":"journal"}` and
//!   `GET /journal`.
//!
//! One binary ships with the crate: `ntr-serve`, the server. Its live
//! contracts are checked by `cargo test --release -p ntr-server --test
//! live`, which spawns it; throughput and latency under load are
//! measured by `ntr-e2e` in `e2e-bench/`.
//!
//! # Protocol example
//!
//! ```text
//! → {"op":"route","id":1,"algorithm":"ldrg","net":{"source":[0,0],"sinks":[[3000,0],[0,4000]]}}
//! ← {"ok":true,"algorithm":"ldrg",...,"delay_ns":0.72,"id":1,"cached":false,"micros":412}
//! → {"op":"stats"}
//! ← {"ok":true,"op":"stats","received":1,"completed":1,...}
//! ```
//!
//! # Embedding example
//!
//! ```
//! use std::sync::mpsc;
//! use ntr_server::proto::{Algorithm, OracleKind, RouteRequest};
//! use ntr_server::service::{Service, ServiceConfig};
//! use ntr_geom::Point;
//!
//! let service = Service::start(&ServiceConfig { workers: 2, ..Default::default() });
//! let (tx, rx) = mpsc::channel();
//! service.submit(
//!     RouteRequest {
//!         id: None,
//!         algorithm: Algorithm::Ldrg,
//!         oracle: OracleKind::Moment,
//!         pins: vec![Point::new(0.0, 0.0), Point::new(3000.0, 0.0), Point::new(0.0, 4000.0)],
//!         deadline: None,
//!         max_added_edges: 0,
//!         use_cache: true,
//!         retries: 2,
//!         degrade: true,
//!         candidates: ntr_core::CandidateGen::Exhaustive,
//!     },
//!     Box::new(move |response| tx.send(response).unwrap()),
//! );
//! let response = rx.recv().unwrap();
//! assert_eq!(response.get("ok"), Some(&ntr_server::json::Json::Bool(true)));
//! service.shutdown();
//! ```

pub mod cache;
pub mod engine;
pub mod http;
pub mod pool;
pub mod proto;
pub mod server;
pub mod service;
pub mod sessions;
pub mod stats;
pub mod statusz;

/// The hand-rolled JSON module, rehomed to `ntr-obs` (the trace
/// exporters build on it too); re-exported here so existing
/// `ntr_server::json::Json` paths keep working.
pub use ntr_obs::json;

pub use json::Json;
pub use proto::{Algorithm, ErrorCode, OracleKind, Request, RouteRequest};
pub use service::{Respond, Service, ServiceConfig};
