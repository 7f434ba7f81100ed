//! `ntr-e2e`: the end-to-end benchmark of the routing server.
//!
//! It builds `ntr-serve` from the checkout, starts it with two workers on
//! a free local port, and drives it over TCP from this one process: at
//! most two load threads and two load connections. End to end means a
//! client's intended send time to the last byte of the reply. Every
//! reply is verified against an answer re-derived in-process.
//!
//! A traced run (`--trace 1`) reports per-layer metrics instead: it joins
//! the server's wide-event journal to the client's replies, reads the
//! server's counters and `/proc` accounting, and replays the request
//! stream in-process through the program's public functions with a
//! [`layers::TimedOracle`] around the delay oracle. It adds no
//! instrumentation to the program itself.
//!
//! See `E2E.md` for the workloads, the metrics and what each layer
//! metric should move.

pub mod client;
pub mod compare;
pub mod layers;
pub mod metrics;
pub mod replay;
pub mod rng;
pub mod run;
pub mod server;
pub mod trace;
pub mod verify;
pub mod workload;
