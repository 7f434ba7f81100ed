//! The service: a bounded queue feeding a fixed worker pool, fronted by
//! the result cache.
//!
//! Life of a route request:
//!
//! 1. **Submit** (transport thread): build the net, compute the cache
//!    key, answer straight from the cache on a hit. On a miss,
//!    `try_push` the job — a full queue answers `overloaded`
//!    immediately (backpressure) rather than queueing unboundedly.
//! 2. **Dequeue** (worker thread): a job whose deadline already passed
//!    while queued answers `deadline` without touching a core.
//! 3. **Execute**: the worker routes with a [`CancelToken`] carrying
//!    the deadline; the greedy searches check it once per candidate
//!    score, so an expiring request stops within one oracle call.
//! 4. **Respond**: the job's callback delivers the JSON response on
//!    whatever transport the request arrived on. Successful results
//!    enter the cache.
//!
//! Shutdown closes the queue: submitters get `overloaded`, workers
//! drain the backlog, [`Service::shutdown`] joins them — no in-flight
//! request is dropped.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ntr_circuit::Technology;
use ntr_core::{
    canonical_net_hash, Budget, CancelToken, DegradePolicy, FaultPlan, Fidelity, FidelityCosts,
    OracleStats, RetryPolicy, RoutingOutcome, RoutingSession,
};
use ntr_obs::journal::{self, WideEvent};
use ntr_obs::slo::{BurnRule, SloEngine, SloSpec};
use ntr_obs::tsdb::Tsdb;
use ntr_obs::{log_debug, log_warn, span, Journal};

use crate::cache::LruCache;
use crate::engine::{self, EngineError, Resilience};
use crate::json::Json;
use crate::pool::{BoundedQueue, PushError};
use crate::proto::{error_response, ErrorCode, RouteRequest, SessionAction, SessionRequest};
use crate::sessions::SessionTable;
use crate::stats::ServiceStats;

/// Delivers one response back to the requester's transport.
pub type Respond = Box<dyn FnOnce(Json) + Send>;

/// Tuning knobs for [`Service::start`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (0 = one per available core).
    pub workers: usize,
    /// Pending jobs admitted before `overloaded` (≥1).
    pub queue_depth: usize,
    /// Result-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Interconnect technology used for every request.
    pub tech: Technology,
    /// Fault-injection plan installed at startup (the `NTR_FAULTS` env
    /// var); swappable at runtime via [`Service::set_fault_plan`].
    pub faults: Option<Arc<FaultPlan>>,
    /// Objectives the burn-rate alert engine evaluates (the `--slo`
    /// flag / `NTR_SLOS` env var; defaults to
    /// [`ntr_obs::slo::default_slos`]).
    pub slos: Vec<SloSpec>,
    /// Cadence of the observability ticker (TSDB registry snapshot +
    /// SLO evaluation + session TTL eviction). The 1 s default matches
    /// the TSDB's raw resolution.
    pub obs_tick: Duration,
    /// Live rerouting sessions admitted before `session.create` answers
    /// the structured `session` error (≥1).
    pub session_capacity: usize,
    /// Idle time after which a session is evicted (its cancel token
    /// trips, so an in-flight reroute for it stops mid-search).
    pub session_ttl: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_depth: 64,
            cache_capacity: 1024,
            tech: Technology::date94(),
            faults: None,
            slos: ntr_obs::slo::default_slos(),
            obs_tick: Duration::from_secs(1),
            session_capacity: 64,
            session_ttl: Duration::from_secs(300),
        }
    }
}

struct Job {
    request: RouteRequest,
    key: Option<u64>,
    /// Set when this job is the in-flight primary for its cache key:
    /// concurrent duplicates coalesce onto it instead of routing twice.
    coalesce_key: Option<u64>,
    respond: Respond,
    enqueued: Instant,
    deadline_at: Option<Instant>,
    /// Request trace id, assigned at submission and echoed in the
    /// response; spans and log lines emitted while the worker routes
    /// this job carry it.
    trace: u64,
}

/// A queued `session.*` op. Session ops share the route queue — one
/// backpressure bound, one journal-before-respond chokepoint — and
/// ops on the same session serialize on the entry's lock, so a mutate
/// and a reroute racing through different workers stay ordered.
struct SessionJob {
    request: SessionRequest,
    respond: Respond,
    enqueued: Instant,
    trace: u64,
}

/// Everything the bounded queue carries.
enum Work {
    Route(Job),
    Session(SessionJob),
}

/// A coalesced duplicate waiting on the primary: its own `id`, trace
/// id, and arrival time, plus the callback to deliver the shared
/// result to.
type Waiter = (Option<Json>, u64, Instant, Respond);
type Inflight = Mutex<HashMap<u64, Vec<Waiter>>>;

/// Saturating microseconds for journal timings.
fn micros(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// The wide-event skeleton every path of a request's life fills in.
fn base_event(request: &RouteRequest, trace: u64) -> WideEvent {
    WideEvent {
        trace,
        pins: request.pins.len() as u64,
        algorithm: request.algorithm.as_str(),
        fidelity_requested: request.oracle.fidelity().as_str(),
        ..WideEvent::default()
    }
}

/// The wide-event skeleton of a queued job. A job keeps a cache key
/// only when its lookup missed, so the key marks the miss.
fn job_event(job: &Job, trace: u64) -> WideEvent {
    WideEvent {
        cache_miss: job.key.is_some(),
        ..base_event(&job.request, trace)
    }
}

/// A coalesced duplicate's wide event: its primary's outcome under the
/// duplicate's own trace and timing.
fn waiter_event(primary: &WideEvent, trace: u64, arrived: Instant) -> WideEvent {
    WideEvent {
        trace,
        coalesced: true,
        queue_us: 0,
        rungs: Vec::new(),
        total_us: micros(arrived.elapsed()),
        ..primary.clone()
    }
}

/// Publishes one answered request: derives the service counters from
/// its wide event, feeds the outcome to the SLO engine, and journals
/// the event with its span trace for tail retention (flagged events
/// keep it even span-less). This is the one chokepoint every answered
/// request passes through, so `/metrics`, the error budget and the
/// journal all see exactly the same requests.
fn journal_event(
    event: WideEvent,
    spans: Vec<ntr_obs::SpanRecord>,
    stats: &ServiceStats,
    slo: &SloEngine,
) {
    stats.observe(&event);
    slo.record(event.outcome == "ok", event.total_us);
    Journal::global().record(event, spans);
}

/// The running routing service. Cheap to share: transports hold it in
/// an [`Arc`] and call [`submit`](Self::submit) from any thread.
pub struct Service {
    tech: Technology,
    queue: Arc<BoundedQueue<Work>>,
    cache: Arc<Mutex<LruCache<Json>>>,
    sessions: Arc<SessionTable>,
    inflight: Arc<Inflight>,
    stats: Arc<ServiceStats>,
    resilience: Arc<Resilience>,
    tsdb: Arc<Tsdb>,
    slo: Arc<SloEngine>,
    /// `true` once shutdown has asked the observability ticker to stop;
    /// the Condvar wakes it from its tick sleep immediately.
    obs_stop: Arc<(Mutex<bool>, Condvar)>,
    obs_ticker: Mutex<Option<JoinHandle<()>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Service {
    /// Spawns the worker pool and returns the handle.
    #[must_use]
    pub fn start(config: &ServiceConfig) -> Self {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
        } else {
            config.workers
        };
        let queue = Arc::new(BoundedQueue::new(config.queue_depth));
        let cache = Arc::new(Mutex::new(LruCache::new(config.cache_capacity)));
        let sessions = Arc::new(SessionTable::new(
            config.session_capacity,
            config.session_ttl,
        ));
        let inflight: Arc<Inflight> = Arc::new(Mutex::new(HashMap::new()));
        let stats = Arc::new(ServiceStats::default());
        let resilience = Arc::new(Resilience::with_faults(config.faults.clone()));
        let tsdb = Arc::new(Tsdb::default());
        let slo = Arc::new(SloEngine::new(config.slos.clone(), BurnRule::default()));
        slo.register_metrics(stats.registry());
        let handles = (0..workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let cache = Arc::clone(&cache);
                let sessions = Arc::clone(&sessions);
                let inflight = Arc::clone(&inflight);
                let stats = Arc::clone(&stats);
                let resilience = Arc::clone(&resilience);
                let slo = Arc::clone(&slo);
                let tech = config.tech;
                std::thread::Builder::new()
                    .name(format!("ntr-worker-{i}"))
                    .spawn(move || {
                        worker_loop(
                            &queue,
                            &cache,
                            &sessions,
                            &inflight,
                            &stats,
                            &resilience,
                            &slo,
                            tech,
                        );
                    })
                    .expect("spawning a worker thread failed")
            })
            .collect();
        let obs_stop = Arc::new((Mutex::new(false), Condvar::new()));
        let obs_ticker = {
            let stop = Arc::clone(&obs_stop);
            let tsdb = Arc::clone(&tsdb);
            let slo = Arc::clone(&slo);
            let stats = Arc::clone(&stats);
            let queue = Arc::clone(&queue);
            let cache = Arc::clone(&cache);
            let sessions = Arc::clone(&sessions);
            let resilience = Arc::clone(&resilience);
            let tick = config.obs_tick.max(Duration::from_millis(10));
            std::thread::Builder::new()
                .name("ntr-obs-tick".to_owned())
                .spawn(move || {
                    let (stopped, wake) = &*stop;
                    let mut guard = stopped.lock().expect("obs stop mutex poisoned");
                    while !*guard {
                        // Idle sessions are reclaimed on the same beat
                        // the gauges refresh, so `ntr_sessions_active`
                        // never reports an already-dead session.
                        stats.sessions_evicted.add(sessions.evict_expired());
                        // Gauges refresh before the snapshot so the
                        // TSDB stores live values, not scrape-stale
                        // ones; alerts evaluate on the same beat.
                        let cache_entries = cache.lock().expect("cache mutex poisoned").len();
                        stats.refresh_gauges(
                            queue.len(),
                            cache_entries,
                            resilience.faults_injected(),
                            sessions.len(),
                        );
                        slo.evaluate();
                        tsdb.snapshot_now(stats.registry());
                        guard = wake
                            .wait_timeout(guard, tick)
                            .expect("obs stop mutex poisoned")
                            .0;
                    }
                })
                .expect("spawning the observability ticker failed")
        };
        Self {
            tech: config.tech,
            queue,
            cache,
            sessions,
            inflight,
            stats,
            resilience,
            tsdb,
            slo,
            obs_stop,
            obs_ticker: Mutex::new(Some(obs_ticker)),
            workers: Mutex::new(handles),
        }
    }

    /// Submits one route request; `respond` is called exactly once,
    /// possibly on another thread, possibly before this returns (cache
    /// hits and rejections answer inline).
    pub fn submit(&self, request: RouteRequest, respond: Respond) {
        let arrived = Instant::now();
        let trace = span::next_trace_id();
        let id = request.id.clone();
        let net = match engine::build_net(&request) {
            Ok(net) => net,
            Err(EngineError::Route(detail)) => {
                let mut event = base_event(&request, trace);
                event.outcome = "route_error";
                event.total_us = micros(arrived.elapsed());
                journal_event(event, Vec::new(), &self.stats, &self.slo);
                respond(with_trace(
                    error_response(id.as_ref(), ErrorCode::Route, &detail),
                    trace,
                ));
                return;
            }
            Err(EngineError::Cancelled) => unreachable!("net construction cannot be cancelled"),
        };
        let key = request
            .use_cache
            .then(|| engine::cache_key(&net, &request, &self.tech));
        if let Some(key) = key {
            let mut cache = self.cache.lock().expect("cache mutex poisoned");
            if let Some(hit) = cache.get(key) {
                let mut response = hit.clone();
                response.set("id", id.clone().unwrap_or(Json::Null));
                response.set("cached", Json::Bool(true));
                response.set("trace", Json::Num(trace as f64));
                drop(cache);
                // Cached bodies are never degraded, so served == asked.
                let mut event = base_event(&request, trace);
                event.net_hash = ntr_core::canonical_net_hash(&net, &self.tech);
                event.fidelity_served = event.fidelity_requested;
                event.cache_hit = true;
                event.total_us = micros(arrived.elapsed());
                journal_event(event, Vec::new(), &self.stats, &self.slo);
                respond(response);
                return;
            }
        }
        // Coalesce concurrent duplicates: while an identical request is
        // in flight, later copies wait for its result instead of routing
        // the same net again. Requests with deadlines opt out — a waiter
        // must not inherit someone else's (possibly tighter) budget.
        let coalesce_key = match key.filter(|_| request.deadline.is_none()) {
            Some(key) => {
                let mut inflight = self.inflight.lock().expect("inflight mutex poisoned");
                if let Some(waiters) = inflight.get_mut(&key) {
                    waiters.push((id, trace, arrived, respond));
                    return;
                }
                inflight.insert(key, Vec::new());
                Some(key)
            }
            None => None,
        };
        let enqueued = arrived;
        let job = Job {
            deadline_at: request.deadline.map(|d| enqueued + d),
            request,
            key,
            coalesce_key,
            respond,
            enqueued,
            trace,
        };
        match self.queue.try_push(Work::Route(job)) {
            Ok(()) => {}
            Err(PushError::Full(Work::Route(job))) => {
                self.reject(job, "work queue full, retry later");
            }
            Err(PushError::Closed(Work::Route(job))) => {
                self.reject(job, "service shutting down");
            }
            Err(_) => unreachable!("push returns the work it was given"),
        }
    }

    /// Submits one `session.*` op; `respond` is called exactly once.
    ///
    /// Session ops go through the same bounded queue as routes (one
    /// backpressure bound for all work) but never touch the result
    /// cache or coalescing — a session's net mutates under it, so its
    /// responses are not content-addressable.
    pub fn submit_session(&self, request: SessionRequest, respond: Respond) {
        let job = SessionJob {
            request,
            respond,
            enqueued: Instant::now(),
            trace: span::next_trace_id(),
        };
        match self.queue.try_push(Work::Session(job)) {
            Ok(()) => {}
            Err(PushError::Full(Work::Session(job))) => {
                self.reject_session(job, "work queue full, retry later");
            }
            Err(PushError::Closed(Work::Session(job))) => {
                self.reject_session(job, "service shutting down");
            }
            Err(_) => unreachable!("push returns the work it was given"),
        }
    }

    /// Answers `overloaded` to a rejected session op.
    fn reject_session(&self, job: SessionJob, detail: &str) {
        log_warn!("rejecting session op: {detail}");
        let mut event = base_session_event(&job.request, job.trace);
        event.outcome = "overloaded";
        event.total_us = micros(job.enqueued.elapsed());
        journal_event(event, Vec::new(), &self.stats, &self.slo);
        (job.respond)(with_trace(
            error_response(job.request.id.as_ref(), ErrorCode::Overloaded, detail),
            job.trace,
        ));
    }

    /// Answers `overloaded` to a rejected job and any duplicates that
    /// coalesced onto it between registration and rejection.
    fn reject(&self, job: Job, detail: &str) {
        let waiters = take_waiters(&self.inflight, job.coalesce_key);
        log_warn!("rejecting request: {detail}");
        let mut event = job_event(&job, job.trace);
        event.outcome = "overloaded";
        event.total_us = micros(job.enqueued.elapsed());
        journal_event(event.clone(), Vec::new(), &self.stats, &self.slo);
        (job.respond)(with_trace(
            error_response(job.request.id.as_ref(), ErrorCode::Overloaded, detail),
            job.trace,
        ));
        for (wid, wtrace, warrived, wrespond) in waiters {
            let waited = waiter_event(&event, wtrace, warrived);
            journal_event(waited, Vec::new(), &self.stats, &self.slo);
            wrespond(with_trace(
                error_response(wid.as_ref(), ErrorCode::Overloaded, detail),
                wtrace,
            ));
        }
    }

    /// The counters, with the gauges and mirrors refreshed from the
    /// structures this service owns.
    fn refreshed_stats(&self) -> &ServiceStats {
        self.stats.refresh_gauges(
            self.queue.len(),
            self.cache_len(),
            self.resilience.faults_injected(),
            self.sessions.len(),
        );
        &self.stats
    }

    /// The stats-response body for `{"op":"stats"}`.
    #[must_use]
    pub fn stats_json(&self) -> Json {
        self.refreshed_stats().to_json()
    }

    /// Prometheus text exposition of the service's metrics, for
    /// `{"op":"metrics"}` and `GET /metrics`.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        ntr_obs::prometheus::render(self.refreshed_stats().registry())
    }

    /// The shared counters (for tests and the load generator).
    #[must_use]
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// The embedded time-series store the ticker snapshots into.
    #[must_use]
    pub fn tsdb(&self) -> &Tsdb {
        &self.tsdb
    }

    /// The SLO burn-rate engine fed by every answered request.
    #[must_use]
    pub fn slo(&self) -> &SloEngine {
        &self.slo
    }

    /// The TSDB answer for `{"op":"query"}` and `GET /tsdb`.
    #[must_use]
    pub fn query_json(&self, metric: Option<&str>, res_secs: u64) -> Json {
        self.tsdb.query_json(metric, res_secs)
    }

    /// The alerts answer for `{"op":"alerts"}` and `GET /alertz`.
    #[must_use]
    pub fn alerts_json(&self) -> Json {
        self.slo.alerts_json()
    }

    /// Live per-fidelity EWMA cost estimates (the `/statusz` view of the
    /// degradation gate's inputs).
    #[must_use]
    pub fn fidelity_costs(&self) -> FidelityCosts {
        self.resilience.costs()
    }

    /// Jobs currently waiting in the bounded queue.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Entries currently held by the result cache.
    #[must_use]
    pub fn cache_len(&self) -> usize {
        self.cache.lock().expect("cache mutex poisoned").len()
    }

    /// Live rerouting sessions (the `ntr_sessions_active` gauge).
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Installs (or clears, with `None`) the fault-injection plan for
    /// subsequent requests. In-flight requests keep the plan they
    /// started with.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        self.resilience.set_faults(plan);
    }

    /// The currently installed fault plan.
    #[must_use]
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.resilience.faults()
    }

    /// Total faults injected across every plan this service has run.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.resilience.faults_injected()
    }

    /// Graceful shutdown: reject new work, drain the backlog, join the
    /// workers and the observability ticker. Idempotent.
    pub fn shutdown(&self) {
        self.queue.close();
        let handles: Vec<_> = {
            let mut workers = self.workers.lock().expect("worker mutex poisoned");
            workers.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        let (stopped, wake) = &*self.obs_stop;
        *stopped.lock().expect("obs stop mutex poisoned") = true;
        wake.notify_all();
        if let Some(ticker) = self
            .obs_ticker
            .lock()
            .expect("obs ticker mutex poisoned")
            .take()
        {
            let _ = ticker.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn take_waiters(inflight: &Inflight, key: Option<u64>) -> Vec<Waiter> {
    key.and_then(|key| {
        inflight
            .lock()
            .expect("inflight mutex poisoned")
            .remove(&key)
    })
    .unwrap_or_default()
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    queue: &BoundedQueue<Work>,
    cache: &Mutex<LruCache<Json>>,
    sessions: &SessionTable,
    inflight: &Inflight,
    stats: &ServiceStats,
    resilience: &Resilience,
    slo: &SloEngine,
    tech: Technology,
) {
    while let Some(work) = queue.pop() {
        stats.inflight_requests.inc();
        // Everything this worker does for the job — spans and log lines
        // included — carries the trace id assigned at submission.
        let trace = match &work {
            Work::Route(job) => job.trace,
            Work::Session(job) => job.trace,
        };
        let _trace_guard = span::with_trace_id(trace);
        // Tail sampling has to record up front: the capture buffers
        // every span the job emits, and the journal decides afterwards
        // whether the trace was worth keeping (slow / error / degraded).
        let capture = span::capture();
        let (event, respond, response) = match work {
            Work::Route(job) => run_job(job, cache, inflight, stats, resilience, slo, tech),
            Work::Session(job) => run_session(job, sessions, tech),
        };
        // Journal before responding: a client that has seen the answer
        // can always find the request in `{"op":"journal"}` and in the
        // counters — no window where the response exists but its wide
        // event does not.
        journal_event(event, capture.finish(), stats, slo);
        // The gauge drops before the answer leaves: a client holding
        // the response never observes itself still counted in flight.
        stats.inflight_requests.dec();
        respond(response);
    }
}

/// Routes one dequeued job and delivers any coalesced waiters'
/// responses. The primary's own response is NOT delivered here: it is
/// returned with the wide event and the `respond` callback so the
/// caller can journal the event (with the captured spans) first and
/// only then answer the client.
fn run_job(
    job: Job,
    cache: &Mutex<LruCache<Json>>,
    inflight: &Inflight,
    stats: &ServiceStats,
    resilience: &Resilience,
    slo: &SloEngine,
    tech: Technology,
) -> (WideEvent, Respond, Json) {
    let _request_span = span::span("server.request");
    let id = job.request.id.clone();
    let mut event = job_event(&job, job.trace);
    event.queue_us = micros(job.enqueued.elapsed());
    // A request that spent its whole deadline queued answers without
    // occupying the worker for a full route — unless degradation is
    // on, in which case the engine collapses to the O(k) tree floor
    // and still serves. (Deadline jobs never register as coalescing
    // primaries, so no waiters to serve.)
    if job.deadline_at.is_some_and(|at| Instant::now() >= at) && !job.request.degrade {
        log_debug!("deadline expired while queued");
        event.outcome = "deadline";
        event.total_us = micros(job.enqueued.elapsed());
        let response = with_trace(
            error_response(
                id.as_ref(),
                ErrorCode::Deadline,
                "deadline expired while queued",
            ),
            job.trace,
        );
        return (event, job.respond, response);
    }
    // Injected worker stall: the job holds this worker before
    // routing starts, shrinking the deadline budget it routes with.
    if let Some(pause) = resilience.faults().and_then(|p| p.worker_stall()) {
        let _stall_span = span::span("fault.stall");
        std::thread::sleep(pause);
    }
    let cancel = job
        .deadline_at
        .map_or_else(CancelToken::new, CancelToken::with_deadline);
    let net = match engine::build_net(&job.request) {
        Ok(net) => net,
        Err(_) => unreachable!("submit validated the net"),
    };
    let faults_before = resilience.faults_injected();
    let route_started = Instant::now();
    let result = engine::execute(&job.request, &net, tech, &cancel, resilience);
    event.route_us = micros(route_started.elapsed());
    event.rungs = journal::take_rungs();
    event.injected_faults = resilience.faults_injected().saturating_sub(faults_before);
    let response = match result {
        Ok(outcome) => {
            let latency = job.enqueued.elapsed();
            event.fidelity_served = outcome.fidelity_served;
            event.degradation_steps = outcome.degradation_steps;
            event.retries = outcome.retries;
            event.net_hash = outcome.net_hash;
            fill_search(&mut event, &outcome.search);
            event.ldrg_iterations = outcome.ldrg_iterations;
            event.total_us = micros(latency);
            // Degraded bodies are a product of this request's
            // deadline pressure, not of the net: never cached, so a
            // later unhurried request gets full fidelity.
            if let Some(key) = job.key.filter(|_| !outcome.degraded) {
                cache
                    .lock()
                    .expect("cache mutex poisoned")
                    .insert(key, outcome.body.clone());
            }
            // Waiters are taken only after the cache insert, so a
            // duplicate arriving right now either finds the cache
            // entry or is already in this list — never neither.
            let waiters = take_waiters(inflight, job.coalesce_key);
            log_debug!(
                "routed {} pins with {} in {} us",
                job.request.pins.len(),
                job.request.algorithm.as_str(),
                latency.as_micros()
            );
            for (wid, wtrace, warrived, wrespond) in waiters {
                // Waiters share the primary's result — including its
                // degradation.
                let waited = waiter_event(&event, wtrace, warrived);
                journal_event(waited, Vec::new(), stats, slo);
                let mut shared = outcome.body.clone();
                shared.set("id", wid.unwrap_or(Json::Null));
                shared.set("cached", Json::Bool(true));
                shared.set("trace", Json::Num(wtrace as f64));
                wrespond(shared);
            }
            let mut response = outcome.body;
            response.set("id", id.unwrap_or(Json::Null));
            response.set("cached", Json::Bool(false));
            response.set("micros", Json::Num(latency.as_micros() as f64));
            response.set("trace", Json::Num(job.trace as f64));
            response
        }
        Err(EngineError::Cancelled) => {
            log_debug!("deadline expired during routing");
            event.outcome = "deadline";
            event.total_us = micros(job.enqueued.elapsed());
            with_trace(
                error_response(
                    id.as_ref(),
                    ErrorCode::Deadline,
                    "deadline expired during routing",
                ),
                job.trace,
            )
        }
        Err(EngineError::Route(detail)) => {
            let waiters = take_waiters(inflight, job.coalesce_key);
            log_warn!("route failed: {detail}");
            event.outcome = "route_error";
            event.total_us = micros(job.enqueued.elapsed());
            for (wid, wtrace, warrived, wrespond) in waiters {
                let waited = waiter_event(&event, wtrace, warrived);
                journal_event(waited, Vec::new(), stats, slo);
                wrespond(with_trace(
                    error_response(wid.as_ref(), ErrorCode::Route, &detail),
                    wtrace,
                ));
            }
            with_trace(
                error_response(id.as_ref(), ErrorCode::Route, &detail),
                job.trace,
            )
        }
    };
    (event, job.respond, response)
}

/// The wide-event skeleton for a `session.*` op. The op name rides in
/// the `algorithm` column — one journal schema for all request kinds —
/// and sessions always serve at moment fidelity.
fn base_session_event(request: &SessionRequest, trace: u64) -> WideEvent {
    let pins = match &request.action {
        SessionAction::Create(req) => req.pins.len() as u64,
        _ => 0,
    };
    WideEvent {
        trace,
        pins,
        algorithm: session_op_name(&request.action),
        fidelity_requested: Fidelity::Moment.as_str(),
        ..WideEvent::default()
    }
}

fn session_op_name(action: &SessionAction) -> &'static str {
    match action {
        SessionAction::Create(_) => "session.create",
        SessionAction::Mutate { .. } => "session.mutate",
        SessionAction::Reroute { .. } => "session.reroute",
        SessionAction::Close { .. } => "session.close",
    }
}

/// Answers one dequeued `session.*` op. Same contract as [`run_job`]:
/// the response is returned, not delivered, so the caller journals the
/// wide event first.
fn run_session(
    job: SessionJob,
    sessions: &SessionTable,
    tech: Technology,
) -> (WideEvent, Respond, Json) {
    let _session_span = span::span("server.session");
    let id = job.request.id.clone();
    let mut event = base_session_event(&job.request, job.trace);
    event.queue_us = micros(job.enqueued.elapsed());
    let response = match job.request.action {
        SessionAction::Create(request) => {
            session_create(&request, id.as_ref(), sessions, tech, &mut event)
        }
        SessionAction::Mutate { session, ops } => {
            session_mutate(session, ops, id.as_ref(), sessions, &mut event)
        }
        SessionAction::Reroute { session, deadline } => session_reroute(
            session,
            deadline,
            job.enqueued,
            id.as_ref(),
            sessions,
            &mut event,
        ),
        SessionAction::Close { session } => {
            session_close(session, id.as_ref(), sessions, &mut event)
        }
    };
    event.total_us = micros(job.enqueued.elapsed());
    (event, job.respond, with_trace(response, job.trace))
}

/// Marks the wide event and answers one structured `session` error.
fn session_error(event: &mut WideEvent, id: Option<&Json>, detail: &str) -> Json {
    event.outcome = "session_error";
    log_warn!("session op failed: {detail}");
    error_response(id, ErrorCode::Session, detail)
}

/// The budget every reroute of a session runs under. Sessions pin
/// moment fidelity with degradation and fault injection off: the
/// rank-1/refactor reuse is a moment-engine property, and incremental
/// answers must stay equivalent to their from-scratch counterparts.
fn session_budget(request: &RouteRequest, tech: Technology, net_hash: u64) -> Budget {
    Budget {
        tech,
        fidelity: Fidelity::Moment,
        max_added_edges: request.max_added_edges,
        parallelism: 1,
        candidates: request.candidates,
        cancel: CancelToken::default(),
        retry: RetryPolicy {
            max_retries: request.retries,
            // Deterministic per net: replayed sessions jitter identically.
            seed: net_hash,
            ..RetryPolicy::default()
        },
        degrade: DegradePolicy {
            enabled: false,
            ..DegradePolicy::default()
        },
        faults: None,
    }
}

/// The route-body fields shared by `session.create` and
/// `session.reroute` responses (the same shape `route` answers with).
fn outcome_body(outcome: &RoutingOutcome, algorithm: ntr_core::Algorithm, pins: usize) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("algorithm", Json::str(algorithm.as_str())),
        ("fidelity", Json::str(outcome.fidelity.as_str())),
        (
            "requested_fidelity",
            Json::str(outcome.requested_fidelity.as_str()),
        ),
        ("degraded", Json::Bool(outcome.degraded())),
        (
            "degradation_steps",
            Json::Num(outcome.degradation_steps() as f64),
        ),
        ("retries", Json::Num(f64::from(outcome.retries))),
        ("pins", Json::Num(pins as f64)),
        ("delay_ns", Json::Num(outcome.final_delay * 1e9)),
        ("initial_delay_ns", Json::Num(outcome.initial_delay * 1e9)),
        ("cost_um", Json::Num(outcome.final_cost)),
        ("edges", Json::Num(outcome.graph.edge_count() as f64)),
        ("added_edges", Json::Num(outcome.added_edges as f64)),
        ("tree", Json::Bool(outcome.graph.is_tree())),
        ("search", Json::str(outcome.stats.to_string())),
    ])
}

/// Copies a request's search-cost counters into the wide event.
fn fill_search(event: &mut WideEvent, search: &OracleStats) {
    event.candidates_generated = search.candidates_generated;
    event.candidates_scored = search.candidates_scored;
    event.candidates_pruned = search.candidates_pruned;
    event.evaluations = search.evaluations;
    event.factorizations = search.factorizations;
    event.rank1_solves = search.rank1_solves;
    event.oracle_us = micros(search.wall());
}

/// Copies a routed outcome's observability columns into the wide event.
fn fill_route_event(event: &mut WideEvent, outcome: &RoutingOutcome) {
    event.fidelity_served = outcome.fidelity.as_str();
    event.degradation_steps = outcome.degradation_steps() as u32;
    event.retries = outcome.retries;
    fill_search(event, &outcome.stats);
    event.ldrg_iterations = outcome.iterations.len() as u32;
}

fn session_create(
    request: &RouteRequest,
    id: Option<&Json>,
    sessions: &SessionTable,
    tech: Technology,
    event: &mut WideEvent,
) -> Json {
    let net = match engine::build_net(request) {
        Ok(net) => net,
        Err(EngineError::Route(detail)) => {
            event.outcome = "route_error";
            return error_response(id, ErrorCode::Route, &detail);
        }
        Err(EngineError::Cancelled) => unreachable!("net construction cannot be cancelled"),
    };
    let net_hash = canonical_net_hash(&net, &tech);
    event.net_hash = net_hash;
    let cancel = CancelToken::new();
    let mut budget = session_budget(request, tech, net_hash);
    budget.cancel = cancel.clone();
    let started = Instant::now();
    let created = RoutingSession::create(&net, request.algorithm, budget);
    event.route_us = micros(started.elapsed());
    event.rungs = journal::take_rungs();
    let (session, outcome) = match created {
        Ok(pair) => pair,
        Err(e) => {
            event.outcome = "route_error";
            log_warn!("session create failed to route: {e}");
            return error_response(id, ErrorCode::Route, &e.to_string());
        }
    };
    let pins = session.pins().len();
    let entry = match sessions.insert(session, cancel) {
        Ok(entry) => entry,
        Err(full) => {
            return session_error(
                event,
                id,
                &format!("session table full ({} live sessions)", full.capacity),
            );
        }
    };
    fill_route_event(event, &outcome);
    let mut body = outcome_body(&outcome, request.algorithm, pins);
    body.set("session", Json::Num(entry.id as f64));
    body.set("id", id.cloned().unwrap_or(Json::Null));
    body
}

fn session_mutate(
    handle: u64,
    ops: Vec<ntr_core::DeltaOp>,
    id: Option<&Json>,
    sessions: &SessionTable,
    event: &mut WideEvent,
) -> Json {
    let Some(entry) = sessions.get(handle) else {
        return session_error(event, id, &format!("unknown or expired session {handle}"));
    };
    let mut session = entry.session.lock().expect("session mutex poisoned");
    let total = ops.len();
    let mut applied = 0usize;
    let mut rejection = None;
    for op in ops {
        match session.mutate(op) {
            Ok(()) => applied += 1,
            Err(e) => {
                rejection = Some(e);
                break;
            }
        }
    }
    event.deltas_applied = u32::try_from(applied).unwrap_or(u32::MAX);
    event.pins = session.pins().len() as u64;
    let pending = session.pending_len();
    drop(session);
    if let Some(e) = rejection {
        // Earlier deltas in the batch stay applied — the client sees
        // exactly how far the batch got.
        let mut response = session_error(
            event,
            id,
            &format!("delta {} of {total} rejected: {e}", applied + 1),
        );
        response.set("session", Json::Num(handle as f64));
        response.set("applied", Json::Num(applied as f64));
        response.set("pending", Json::Num(pending as f64));
        return response;
    }
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("session", Json::Num(handle as f64)),
        ("applied", Json::Num(applied as f64)),
        ("pending", Json::Num(pending as f64)),
        ("id", id.cloned().unwrap_or(Json::Null)),
    ])
}

fn session_reroute(
    handle: u64,
    deadline: Option<Duration>,
    enqueued: Instant,
    id: Option<&Json>,
    sessions: &SessionTable,
    event: &mut WideEvent,
) -> Json {
    let Some(entry) = sessions.get(handle) else {
        return session_error(event, id, &format!("unknown or expired session {handle}"));
    };
    let mut session = entry.session.lock().expect("session mutex poisoned");
    event.pins = session.pins().len() as u64;
    // A per-request deadline shares the session's cancel flag, so close
    // and TTL eviction still stop a deadline-bearing reroute mid-search.
    let cancel = deadline.map_or_else(
        || entry.cancel.clone(),
        |d| entry.cancel.with_deadline_from(enqueued + d),
    );
    session.set_cancel(cancel);
    let started = Instant::now();
    let result = session.reroute();
    event.route_us = micros(started.elapsed());
    event.rungs = journal::take_rungs();
    match result {
        Ok(report) => {
            event.reroute_path = report.path.as_str();
            fill_route_event(event, &report.outcome);
            let mut body = outcome_body(&report.outcome, session.algorithm(), session.pins().len());
            drop(session);
            body.set("session", Json::Num(handle as f64));
            body.set("path", Json::str(report.path.as_str()));
            body.set("id", id.cloned().unwrap_or(Json::Null));
            body
        }
        Err(e) if e.is_cancelled() => {
            drop(session);
            log_debug!("session reroute cancelled");
            event.outcome = "deadline";
            error_response(
                id,
                ErrorCode::Deadline,
                "session reroute cancelled (deadline expired or session closed)",
            )
        }
        Err(e) => {
            drop(session);
            log_warn!("session reroute failed: {e}");
            event.outcome = "route_error";
            error_response(id, ErrorCode::Route, &e.to_string())
        }
    }
}

fn session_close(
    handle: u64,
    id: Option<&Json>,
    sessions: &SessionTable,
    event: &mut WideEvent,
) -> Json {
    let Some(entry) = sessions.remove(handle) else {
        return session_error(event, id, &format!("unknown or expired session {handle}"));
    };
    // Trip the session-wide token first: an in-flight reroute for this
    // session aborts at its next cancellation check, releasing the lock.
    entry.cancel.cancel();
    let session = entry.session.lock().expect("session mutex poisoned");
    event.pins = session.pins().len() as u64;
    let s = session.stats();
    drop(session);
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("session", Json::Num(handle as f64)),
        ("mutations", Json::Num(s.mutations as f64)),
        ("reroutes", Json::Num(s.reroutes as f64)),
        ("quiescent", Json::Num(s.quiescent as f64)),
        ("rank1", Json::Num(s.rank1 as f64)),
        ("refactor", Json::Num(s.refactor as f64)),
        ("scratch", Json::Num(s.scratch as f64)),
        ("id", id.cloned().unwrap_or(Json::Null)),
    ])
}

/// Stamps the request's trace id onto a response object.
fn with_trace(mut response: Json, trace: u64) -> Json {
    response.set("trace", Json::Num(trace as f64));
    response
}
