//! Service-level counters: request outcomes, per-algorithm tallies,
//! latency histograms, and merged search-cost counters.
//!
//! Every request-driven number here is derived from the request's
//! [`WideEvent`] by [`ServiceStats::observe`], which the service calls
//! at its journal chokepoint next to the SLO engine, whether or not the
//! journal is recording. `/metrics`, `{"op":"stats"}`, the TSDB and
//! `/journal` therefore count the same answered requests. Only three
//! kinds of update stay direct: the `ntr_inflight_requests` gauge, the
//! TTL-eviction count (set by the observability ticker, not by a
//! request), and the snapshot-time gauges and mirror counters of
//! [`refresh_gauges`](ServiceStats::refresh_gauges).
//!
//! Every hot counter is a handle into the service's own
//! [`MetricsRegistry`] (one registry per [`Service`](crate::Service)
//! instance, so embedded services and tests stay isolated), which makes
//! the same numbers available three ways: the `{"op":"stats"}` JSON
//! snapshot, the `{"op":"metrics"}` / `GET /metrics` Prometheus
//! exposition, and direct reads in tests. Updates are single relaxed
//! atomic operations, safe from worker threads and the submission path
//! concurrently. The two cold aggregates (per-algorithm map, merged
//! [`OracleStats`]) sit behind mutexes taken once per routed request.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ntr_core::OracleStats;
use ntr_obs::journal::WideEvent;
use ntr_obs::metrics::{Counter, Gauge, Histogram, MetricsRegistry, WindowedHistogram};

use crate::json::Json;

/// Git revision baked in at build time (absent in plain builds).
const GIT_HASH: Option<&str> = option_env!("NTR_GIT_HASH");

/// The crate version, for deploy identification in scrapes.
#[must_use]
pub fn build_version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// Sliding-window shape behind `/statusz`: 12 windows of 5 s — a
/// 55–60 s view that forgets a load spike within a minute, unlike the
/// lifetime histogram which never does.
pub const STATUSZ_WINDOWS: usize = 12;

/// Length of one `/statusz` latency window.
pub const STATUSZ_WINDOW_LEN: Duration = Duration::from_secs(5);

/// The baked-in git hash, or `"unknown"`.
#[must_use]
pub fn build_git_hash() -> &'static str {
    GIT_HASH.unwrap_or("unknown")
}

/// All counters surfaced by `{"op":"stats"}` and `/metrics`.
#[derive(Debug)]
pub struct ServiceStats {
    registry: MetricsRegistry,
    started: Instant,
    /// Route and session requests accepted off the wire (counted once
    /// answered; unparseable lines are not requests).
    pub received: Arc<Counter>,
    /// Requests answered successfully (cached, coalesced, routed, or a
    /// session op).
    pub completed: Arc<Counter>,
    /// Requests answered with a `route` or `session` error.
    pub errors: Arc<Counter>,
    /// Requests rejected with `overloaded` (queue full).
    pub overloaded: Arc<Counter>,
    /// Requests answered with `deadline`.
    pub deadline_expired: Arc<Counter>,
    /// Responses served from the result cache.
    pub cache_hits: Arc<Counter>,
    /// Cache-eligible requests that missed.
    pub cache_misses: Arc<Counter>,
    /// Duplicate requests that attached to an identical in-flight route
    /// instead of routing again.
    pub coalesced: Arc<Counter>,
    /// Jobs currently waiting in the bounded queue (refreshed at
    /// snapshot time from the queue itself).
    pub queue_depth: Arc<Gauge>,
    /// Jobs a worker has dequeued but not yet answered (incremented at
    /// dequeue, decremented at response — live, not snapshot-refreshed).
    pub inflight_requests: Arc<Gauge>,
    /// Entries currently held by the result cache (refreshed at
    /// snapshot time).
    pub cache_entries: Arc<Gauge>,
    /// End-to-end latency of routed requests (enqueue to response; not
    /// cache hits, coalesced duplicates or session ops).
    pub latency: Arc<Histogram>,
    /// The same latencies over a sliding window (the `/statusz` view;
    /// not in the registry — Prometheus computes its own windows).
    pub window_latency: WindowedHistogram,
    /// Spans lost to collector overflow (mirrors the process-global
    /// [`ntr_obs::span::dropped_spans`]; refreshed at scrape time so
    /// trace truncation is visible in `/metrics`).
    pub spans_dropped: Arc<Counter>,
    /// Flight-recorder events lost to ring contention, requests and
    /// iterations combined (mirrors the process-global
    /// [`Journal`](ntr_obs::Journal) ring drop counts at scrape time —
    /// PR 8 counted these losses, this exports them).
    pub journal_dropped: Arc<Counter>,
    /// Requests served below their requested fidelity (deadline pressure
    /// or exhausted retries walked the degradation ladder).
    pub degraded: Arc<Counter>,
    /// Transient-failure retries spent across all requests.
    pub retries: Arc<Counter>,
    /// Faults injected by the installed fault plan (mirrors the
    /// service's [`Resilience`](crate::engine::Resilience) total at
    /// scrape/snapshot time).
    pub faults_injected: Arc<Counter>,
    /// Candidate edges emitted by the generators of completed requests.
    pub candidates_generated: Arc<Counter>,
    /// Candidate edges actually scored by oracle sweeps.
    pub candidates_scored: Arc<Counter>,
    /// Candidate edges spatial pruning skipped (exhaustive universe
    /// minus generated).
    pub candidates_pruned: Arc<Counter>,
    /// Live incremental-rerouting sessions (refreshed at snapshot time
    /// from the session table).
    pub sessions_active: Arc<Gauge>,
    /// Sessions opened by `session.create`.
    pub sessions_created: Arc<Counter>,
    /// Sessions ended by `session.close`.
    pub sessions_closed: Arc<Counter>,
    /// Sessions reclaimed by TTL eviction.
    pub sessions_evicted: Arc<Counter>,
    /// `session.*` ops rejected with the structured `session` error
    /// (unknown/expired handle, invalid delta, full table).
    pub session_errors: Arc<Counter>,
    /// Delta ops accepted by `session.mutate`.
    pub session_mutations: Arc<Counter>,
    /// Session reroutes answered from the cached outcome (no pending
    /// deltas).
    pub session_reroutes_quiescent: Arc<Counter>,
    /// Session reroutes answered by the Sherman–Morrison rank-1 path.
    pub session_reroutes_rank1: Arc<Counter>,
    /// Session reroutes answered by same-pattern refactorization.
    pub session_reroutes_refactor: Arc<Counter>,
    /// Session reroutes that fell to a from-scratch route.
    pub session_reroutes_scratch: Arc<Counter>,
    per_algorithm: Mutex<BTreeMap<&'static str, u64>>,
    oracle: Mutex<OracleStats>,
}

impl Default for ServiceStats {
    fn default() -> Self {
        let registry = MetricsRegistry::new();
        let counter = |name, help| registry.counter(name, help);
        Self {
            received: counter("ntr_requests_received_total", "Route requests accepted"),
            completed: counter(
                "ntr_requests_completed_total",
                "Route requests answered successfully",
            ),
            errors: counter(
                "ntr_request_errors_total",
                "Route requests answered with a route error",
            ),
            overloaded: counter(
                "ntr_requests_overloaded_total",
                "Requests rejected because the queue was full",
            ),
            deadline_expired: counter(
                "ntr_deadline_expired_total",
                "Requests whose deadline expired before completion",
            ),
            cache_hits: counter(
                "ntr_cache_hits_total",
                "Responses served from the result cache",
            ),
            cache_misses: counter(
                "ntr_cache_misses_total",
                "Cache-eligible requests that missed",
            ),
            coalesced: counter(
                "ntr_requests_coalesced_total",
                "Duplicates attached to an identical in-flight route",
            ),
            queue_depth: registry.gauge("ntr_queue_depth", "Jobs waiting in the bounded queue"),
            inflight_requests: registry.gauge(
                "ntr_inflight_requests",
                "Jobs dequeued by a worker but not yet answered",
            ),
            cache_entries: registry.gauge("ntr_cache_entries", "Entries in the result cache"),
            latency: registry.histogram(
                "ntr_request_latency_us",
                "End-to-end latency of non-cached routes, microseconds",
            ),
            window_latency: WindowedHistogram::new(STATUSZ_WINDOWS, STATUSZ_WINDOW_LEN),
            spans_dropped: counter(
                "ntr_spans_dropped_total",
                "Trace spans lost to collector overflow",
            ),
            journal_dropped: counter(
                "ntr_journal_dropped_total",
                "Flight-recorder events lost to ring contention",
            ),
            degraded: counter(
                "ntr_requests_degraded_total",
                "Requests served below their requested fidelity",
            ),
            retries: counter(
                "ntr_retries_total",
                "Transient-failure retries spent on route requests",
            ),
            faults_injected: counter(
                "ntr_faults_injected_total",
                "Faults injected by the installed fault plan",
            ),
            candidates_generated: counter(
                "ntr_candidates_generated_total",
                "Candidate edges emitted by candidate generators",
            ),
            candidates_scored: counter(
                "ntr_candidates_scored_total",
                "Candidate edges scored by oracle sweeps",
            ),
            candidates_pruned: counter(
                "ntr_candidates_pruned_total",
                "Candidate edges skipped by spatial pruning",
            ),
            sessions_active: registry
                .gauge("ntr_sessions_active", "Live incremental-rerouting sessions"),
            sessions_created: counter(
                "ntr_sessions_created_total",
                "Sessions opened by session.create",
            ),
            sessions_closed: counter(
                "ntr_sessions_closed_total",
                "Sessions ended by session.close",
            ),
            sessions_evicted: counter(
                "ntr_sessions_evicted_total",
                "Sessions reclaimed by TTL eviction",
            ),
            session_errors: counter(
                "ntr_session_errors_total",
                "Session ops rejected with the structured session error",
            ),
            session_mutations: counter(
                "ntr_session_mutations_total",
                "Delta ops accepted by session.mutate",
            ),
            session_reroutes_quiescent: counter(
                "ntr_session_reroutes_quiescent_total",
                "Session reroutes answered from the cached outcome",
            ),
            session_reroutes_rank1: counter(
                "ntr_session_reroutes_rank1_total",
                "Session reroutes answered by the rank-1 path",
            ),
            session_reroutes_refactor: counter(
                "ntr_session_reroutes_refactor_total",
                "Session reroutes answered by same-pattern refactorization",
            ),
            session_reroutes_scratch: counter(
                "ntr_session_reroutes_scratch_total",
                "Session reroutes that fell to a from-scratch route",
            ),
            started: Instant::now(),
            registry,
            per_algorithm: Mutex::new(BTreeMap::new()),
            oracle: Mutex::new(OracleStats::default()),
        }
    }
}

impl ServiceStats {
    /// Counts one answered request from its wide event; the only place
    /// a request changes a counter. Parse errors are not requests and
    /// count nowhere. Latency, degradation, retries, candidates,
    /// `per_algorithm` and the search totals count routed requests
    /// only: answered `ok` by a route of their own, so not cache hits,
    /// coalesced duplicates or session ops.
    pub fn observe(&self, event: &WideEvent) {
        if event.outcome == "parse_error" {
            return;
        }
        self.received.inc();
        match event.outcome {
            "ok" => self.completed.inc(),
            "route_error" => self.errors.inc(),
            "session_error" => {
                self.errors.inc();
                self.session_errors.inc();
            }
            "overloaded" => self.overloaded.inc(),
            "deadline" => self.deadline_expired.inc(),
            _ => {}
        }
        if event.cache_hit {
            self.cache_hits.inc();
        }
        if event.cache_miss {
            self.cache_misses.inc();
        }
        if event.coalesced {
            self.coalesced.inc();
        }
        self.session_mutations.add(u64::from(event.deltas_applied));
        match event.reroute_path {
            "quiescent" => self.session_reroutes_quiescent.inc(),
            "rank1" => self.session_reroutes_rank1.inc(),
            "refactor" => self.session_reroutes_refactor.inc(),
            "scratch" => self.session_reroutes_scratch.inc(),
            _ => {}
        }
        if event.outcome != "ok" {
            return;
        }
        match event.algorithm {
            "session.create" => self.sessions_created.inc(),
            "session.close" => self.sessions_closed.inc(),
            _ => {}
        }
        if event.cache_hit || event.coalesced || event.algorithm.starts_with("session.") {
            return;
        }
        self.latency.record_micros(event.total_us);
        self.window_latency.record_micros(event.total_us);
        if event.degradation_steps > 0 {
            self.degraded.inc();
        }
        self.retries.add(u64::from(event.retries));
        self.candidates_generated.add(event.candidates_generated);
        self.candidates_scored.add(event.candidates_scored);
        self.candidates_pruned.add(event.candidates_pruned);
        *self
            .per_algorithm
            .lock()
            .expect("stats mutex poisoned")
            .entry(event.algorithm)
            .or_insert(0) += 1;
        let mut merged = self.oracle.lock().expect("stats mutex poisoned");
        *merged = merged.merged(OracleStats {
            evaluations: event.evaluations,
            factorizations: event.factorizations,
            rank1_solves: event.rank1_solves,
            candidates_generated: event.candidates_generated,
            candidates_scored: event.candidates_scored,
            candidates_pruned: event.candidates_pruned,
            wall_nanos: event.oracle_us.saturating_mul(1000),
        });
    }

    /// The merged search-cost counters across all routed requests.
    #[must_use]
    pub fn oracle_stats(&self) -> OracleStats {
        *self.oracle.lock().expect("stats mutex poisoned")
    }

    /// Seconds since this service started.
    #[must_use]
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// The registry behind every counter here — what the embedded TSDB
    /// snapshots and the SLO engine registers its gauges into.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Refreshes the snapshot-time gauges and mirror counters — the one
    /// mirror path. `queue_depth`, `cache_entries`, `faults_injected`
    /// and `sessions_active` come from the service, which owns those
    /// structures; it calls this before every stats body and exposition
    /// render, and the observability ticker once a second so the TSDB
    /// snapshots fresh values.
    pub fn refresh_gauges(
        &self,
        queue_depth: usize,
        cache_entries: usize,
        faults_injected: u64,
        sessions_active: usize,
    ) {
        self.queue_depth.set(queue_depth as i64);
        self.cache_entries.set(cache_entries as i64);
        self.sessions_active.set(sessions_active as i64);
        // Mirror externally owned monotone totals into the registry's
        // counters without ever decrementing them.
        let global = ntr_obs::span::dropped_spans();
        self.spans_dropped
            .add(global.saturating_sub(self.spans_dropped.get()));
        self.faults_injected
            .add(faults_injected.saturating_sub(self.faults_injected.get()));
        let journal = ntr_obs::Journal::global();
        let journal_dropped =
            journal.request_ring_stats().dropped + journal.iteration_ring_stats().dropped;
        self.journal_dropped
            .add(journal_dropped.saturating_sub(self.journal_dropped.get()));
    }

    /// Snapshot as the body of a stats response, as of the last
    /// [`refresh_gauges`](Self::refresh_gauges).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let load = |c: &Counter| Json::Num(c.get() as f64);
        let gauge = |g: &Gauge| Json::Num(g.get() as f64);
        let per_algorithm = Json::Obj(
            self.per_algorithm
                .lock()
                .expect("stats mutex poisoned")
                .iter()
                .map(|(k, v)| ((*k).to_owned(), Json::Num(*v as f64)))
                .collect(),
        );
        let search = self.oracle_stats();
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", Json::str("stats")),
            ("uptime_seconds", Json::Num(self.uptime_seconds())),
            ("version", Json::str(build_version())),
            ("git_hash", Json::str(build_git_hash())),
            ("received", load(&self.received)),
            ("completed", load(&self.completed)),
            ("errors", load(&self.errors)),
            ("overloaded", load(&self.overloaded)),
            ("deadline_expired", load(&self.deadline_expired)),
            ("cache_hits", load(&self.cache_hits)),
            ("cache_misses", load(&self.cache_misses)),
            ("coalesced", load(&self.coalesced)),
            ("degraded", load(&self.degraded)),
            ("retries", load(&self.retries)),
            ("faults_injected", load(&self.faults_injected)),
            ("cache_entries", gauge(&self.cache_entries)),
            ("queue_depth", gauge(&self.queue_depth)),
            (
                "sessions",
                Json::obj(vec![
                    ("active", gauge(&self.sessions_active)),
                    ("created", load(&self.sessions_created)),
                    ("closed", load(&self.sessions_closed)),
                    ("evicted", load(&self.sessions_evicted)),
                    ("errors", load(&self.session_errors)),
                    ("mutations", load(&self.session_mutations)),
                    ("reroutes_quiescent", load(&self.session_reroutes_quiescent)),
                    ("reroutes_rank1", load(&self.session_reroutes_rank1)),
                    ("reroutes_refactor", load(&self.session_reroutes_refactor)),
                    ("reroutes_scratch", load(&self.session_reroutes_scratch)),
                ]),
            ),
            ("per_algorithm", per_algorithm),
            ("latency", self.latency.to_json()),
            (
                "search",
                Json::obj(vec![
                    ("evaluations", Json::Num(search.evaluations as f64)),
                    ("factorizations", Json::Num(search.factorizations as f64)),
                    ("rank1_solves", Json::Num(search.rank1_solves as f64)),
                    (
                        "candidates_generated",
                        Json::Num(search.candidates_generated as f64),
                    ),
                    (
                        "candidates_scored",
                        Json::Num(search.candidates_scored as f64),
                    ),
                    (
                        "candidates_pruned",
                        Json::Num(search.candidates_pruned as f64),
                    ),
                    ("wall_ms", Json::Num(search.wall().as_secs_f64() * 1e3)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntr_core::ReroutePath;
    use ntr_obs::prometheus::check_exposition;

    /// A request a worker routed: `ok` after a cache miss, one rung
    /// degraded, with retries and search costs.
    fn routed(algorithm: &'static str, total_us: u64) -> WideEvent {
        WideEvent {
            algorithm,
            cache_miss: true,
            total_us,
            degradation_steps: 1,
            retries: 2,
            candidates_generated: 10,
            candidates_scored: 8,
            candidates_pruned: 3,
            evaluations: 9,
            factorizations: 2,
            rank1_solves: 7,
            oracle_us: 1500,
            ..WideEvent::default()
        }
    }

    fn event(algorithm: &'static str, outcome: &'static str) -> WideEvent {
        WideEvent {
            algorithm,
            outcome,
            ..WideEvent::default()
        }
    }

    #[test]
    fn observe_derives_every_counter_from_the_event() {
        let s = ServiceStats::default();
        let mut events = vec![
            routed("ldrg", 700),
            WideEvent {
                cache_hit: true,
                ..event("h1", "ok")
            },
            // A coalesced waiter carries its primary's columns.
            WideEvent {
                coalesced: true,
                ..routed("ldrg", 900)
            },
            WideEvent {
                coalesced: true,
                cache_miss: true,
                ..event("ldrg", "overloaded")
            },
            event("ldrg", "route_error"),
            WideEvent {
                cache_miss: true,
                ..event("ldrg", "deadline")
            },
            WideEvent {
                cache_miss: true,
                ..event("ldrg", "overloaded")
            },
            event("session.create", "ok"),
            WideEvent {
                deltas_applied: 2,
                ..event("session.mutate", "ok")
            },
            event("session.close", "ok"),
            WideEvent {
                deltas_applied: 1,
                ..event("session.mutate", "session_error")
            },
            event("", "parse_error"),
        ];
        for path in [
            ReroutePath::Quiescent,
            ReroutePath::Rank1,
            ReroutePath::Refactor,
            ReroutePath::Scratch,
        ] {
            events.push(WideEvent {
                reroute_path: path.as_str(),
                ..event("session.reroute", "ok")
            });
        }
        for e in &events {
            s.observe(e);
        }
        for (name, counter, want) in [
            ("received", &s.received, 15),
            ("completed", &s.completed, 10),
            ("errors", &s.errors, 2),
            ("overloaded", &s.overloaded, 2),
            ("deadline_expired", &s.deadline_expired, 1),
            ("cache_hits", &s.cache_hits, 1),
            ("cache_misses", &s.cache_misses, 5),
            ("coalesced", &s.coalesced, 2),
            ("degraded", &s.degraded, 1),
            ("retries", &s.retries, 2),
            ("candidates_generated", &s.candidates_generated, 10),
            ("candidates_scored", &s.candidates_scored, 8),
            ("candidates_pruned", &s.candidates_pruned, 3),
            ("sessions_created", &s.sessions_created, 1),
            ("sessions_closed", &s.sessions_closed, 1),
            ("sessions_evicted", &s.sessions_evicted, 0),
            ("session_errors", &s.session_errors, 1),
            ("session_mutations", &s.session_mutations, 3),
            ("reroutes_quiescent", &s.session_reroutes_quiescent, 1),
            ("reroutes_rank1", &s.session_reroutes_rank1, 1),
            ("reroutes_refactor", &s.session_reroutes_refactor, 1),
            ("reroutes_scratch", &s.session_reroutes_scratch, 1),
        ] {
            assert_eq!(counter.get(), want, "{name}");
        }
        assert_eq!(s.latency.count(), 1);
        assert_eq!(s.latency.sum_micros(), 700);
        assert_eq!(s.window_latency.sliding().count(), 1);
        assert_eq!(s.inflight_requests.get(), 0);
        let j = s.to_json();
        let per = j.get("per_algorithm").unwrap();
        assert_eq!(per.get("ldrg").and_then(Json::as_f64), Some(1.0));
        assert_eq!(per.get("h1"), None, "cache hits are not routed");
        let search = s.oracle_stats();
        assert_eq!(
            (
                search.evaluations,
                search.factorizations,
                search.rank1_solves,
                search.candidates_generated
            ),
            (9, 2, 7, 10)
        );
        assert_eq!(search.wall(), Duration::from_micros(1500));
    }

    #[test]
    fn stats_json_shape() {
        let s = ServiceStats::default();
        for e in [
            routed("ldrg", 100),
            event("ldrg", "overloaded"),
            event("ldrg", "overloaded"),
        ] {
            s.observe(&e);
        }
        s.refresh_gauges(2, 1, 5, 3);
        let j = s.to_json();
        assert_eq!(j.get("cache_entries").and_then(Json::as_f64), Some(1.0));
        assert_eq!(j.get("received").and_then(Json::as_f64), Some(3.0));
        assert_eq!(j.get("completed").and_then(Json::as_f64), Some(1.0));
        assert_eq!(j.get("queue_depth").and_then(Json::as_f64), Some(2.0));
        assert_eq!(j.get("degraded").and_then(Json::as_f64), Some(1.0));
        assert_eq!(j.get("retries").and_then(Json::as_f64), Some(2.0));
        assert_eq!(j.get("faults_injected").and_then(Json::as_f64), Some(5.0));
        let per = j.get("per_algorithm").unwrap();
        assert_eq!(per.get("ldrg").and_then(Json::as_f64), Some(1.0));
        assert!(j.get("latency").unwrap().get("p50_us").is_some());
        assert!(j.get("uptime_seconds").and_then(Json::as_f64).unwrap() >= 0.0);
        assert_eq!(
            j.get("version").and_then(Json::as_str),
            Some(build_version())
        );
        assert!(j.get("git_hash").and_then(Json::as_str).is_some());
    }

    #[test]
    fn prometheus_snapshot_is_valid_and_carries_the_gauges() {
        let s = ServiceStats::default();
        s.observe(&routed("ldrg", 700));
        for _ in 0..4 {
            s.observe(&event("ldrg", "overloaded"));
        }
        s.inflight_requests.inc();
        s.refresh_gauges(4, 9, 3, 2);
        let text = ntr_obs::prometheus::render(s.registry());
        check_exposition(&text).unwrap();
        assert!(text.contains("ntr_requests_received_total 5"));
        assert!(text.contains("ntr_queue_depth 4"));
        assert!(text.contains("ntr_inflight_requests 1"));
        assert!(text.contains("ntr_cache_entries 9"));
        assert!(text.contains("ntr_request_latency_us_count 1"));
        assert!(text.contains("ntr_requests_degraded_total 1"));
        assert!(text.contains("ntr_retries_total 2"));
        assert!(text.contains("ntr_faults_injected_total 3"));
        assert!(
            text.contains("ntr_spans_dropped_total"),
            "dropped-span counter missing from exposition:\n{text}"
        );
        assert!(
            text.contains("ntr_journal_dropped_total"),
            "journal-drop counter missing from exposition:\n{text}"
        );
    }

    #[test]
    fn fault_mirror_never_decrements() {
        let s = ServiceStats::default();
        s.refresh_gauges(0, 0, 7, 0);
        assert_eq!(s.faults_injected.get(), 7);
        s.refresh_gauges(0, 0, 4, 0); // stale reading — ignored
        assert_eq!(s.faults_injected.get(), 7);
        let j = s.to_json();
        assert_eq!(j.get("faults_injected").and_then(Json::as_f64), Some(7.0));
    }

    #[test]
    fn routed_requests_feed_the_sliding_window() {
        let s = ServiceStats::default();
        s.observe(&routed("ldrg", 300));
        s.observe(&WideEvent {
            cache_hit: true,
            ..event("ldrg", "ok")
        });
        assert_eq!(s.window_latency.sliding().count(), 1);
        assert!(s.window_latency.percentile_micros(50.0) >= 256);
    }

    #[test]
    fn two_services_do_not_share_counters() {
        let a = ServiceStats::default();
        let b = ServiceStats::default();
        a.observe(&routed("ldrg", 1));
        assert_eq!(a.received.get(), 1);
        assert_eq!(b.received.get(), 0);
    }
}
