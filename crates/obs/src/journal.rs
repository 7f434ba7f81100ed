//! The flight recorder: an always-on, bounded-overhead journal of wide
//! events plus tail-sampled span exemplars.
//!
//! Aggregate metrics answer *"is the service healthy?"*; whole-run
//! traces answer *"where did this benchmark spend its time?"*. Neither
//! answers the production question — *"which request degraded at 14:03,
//! and what was LDRG doing?"*. The journal does: every request appends
//! one [`WideEvent`] (outcome, fidelities, degradation steps, retries,
//! cache/coalescing flags, queue/route/total timings, per-rung attempt
//! timings, candidate and oracle-work counters, session deltas and
//! reroute rung) to a fixed-size [`Ring`], and every LDRG
//! iteration appends one [`IterEvent`] (delay delta, accepted edge,
//! candidates, sweep time). The rings keep the most recent few thousand
//! records; a crash or a `{"op":"journal"}` pull reads them back.
//!
//! **Overhead** is the design constraint — the recorder is on by
//! default, including under the committed `server_round_trip` and
//! `ldrg_iteration` bench baselines:
//!
//! - An append is wait-free: one `fetch_add` ticket, one slot CAS, one
//!   move, one release store. No allocation beyond what the event itself
//!   carries, no lock, no spinning — a writer that loses its slot CAS
//!   (another writer or a snapshot holds the slot) *drops the record*
//!   and bumps [`RingStats::dropped`] instead of waiting.
//! - Event construction happens once per request (milliseconds of work)
//!   or once per LDRG iteration (at least ~100 µs of sweeps), so the
//!   tens-of-nanoseconds append disappears into the noise.
//! - Exemplar retention takes a mutex, but only after a lock-free
//!   rejection test: flagged requests (error / degraded / injected
//!   fault) and requests slower than the current slowest-K floor (one
//!   relaxed load) are the only ones that touch it.
//!
//! **Tail-based exemplars**: full span traces are kept only where they
//! pay for themselves — the slowest [`SLOW_EXEMPLARS`] requests plus
//! every flagged request (capped at [`FLAGGED_EXEMPLARS`] between
//! drains). Everything else records the wide event alone.
//!
//! The journal is process-global ([`Journal::global`]) so `ntr-core`'s
//! LDRG loop and `ntr-server`'s workers write to the same recorder;
//! tests build private instances with [`Journal::new`].

use std::cell::{RefCell, UnsafeCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json::Json;
use crate::span::SpanRecord;

/// Request-ring capacity of the global journal (~1 MB of wide events).
pub const DEFAULT_REQUEST_CAP: usize = 4096;

/// Iteration-ring capacity of the global journal.
pub const DEFAULT_ITERATION_CAP: usize = 8192;

/// How many slowest-request exemplars are retained.
pub const SLOW_EXEMPLARS: usize = 16;

/// Cap on flagged (error/degraded/injected) exemplars held at once;
/// overflow is counted, not silently ignored.
pub const FLAGGED_EXEMPLARS: usize = 256;

/// One wide event: everything known about one request, denormalized
/// into a single record (the "structured log line done right").
#[derive(Debug, Clone, PartialEq)]
pub struct WideEvent {
    /// Journal sequence number (assigned by [`Journal::record`] or
    /// [`Journal::record_request`]).
    pub seq: u64,
    /// Trace id correlating this event with spans and log lines.
    pub trace: u64,
    /// Canonical content hash of the routed net (0 when unavailable).
    pub net_hash: u64,
    /// Distinct pins in the net.
    pub pins: u64,
    /// Algorithm wire name (`"ldrg"`, `"h1"`, …).
    pub algorithm: &'static str,
    /// `"ok"`, `"route_error"`, `"session_error"`, `"deadline"`,
    /// `"overloaded"`, or `"parse_error"`.
    pub outcome: &'static str,
    /// Fidelity rung the request asked for.
    pub fidelity_requested: &'static str,
    /// Fidelity rung the answer was computed at.
    pub fidelity_served: &'static str,
    /// Rungs descended below the request (0 = served as asked).
    pub degradation_steps: u32,
    /// Transient-failure retries spent.
    pub retries: u32,
    /// Served straight from the result cache.
    pub cache_hit: bool,
    /// Attached to an identical in-flight request instead of routing.
    pub coalesced: bool,
    /// Faults the active plan injected into this request's process-wide
    /// window (0 when no plan was installed).
    pub injected_faults: u64,
    /// Time spent queued before a worker picked the job up, µs.
    pub queue_us: u64,
    /// Time spent inside the routing engine, µs.
    pub route_us: u64,
    /// End-to-end time from submission to response, µs.
    pub total_us: u64,
    /// Candidate edges emitted by the generator.
    pub candidates_generated: u64,
    /// Candidate edges scored by oracle sweeps.
    pub candidates_scored: u64,
    /// Candidate edges spatial pruning skipped.
    pub candidates_pruned: u64,
    /// Committed LDRG iterations (0 for one-shot heuristics).
    pub ldrg_iterations: u32,
    /// Per-rung attempt timings, in attempt order (a degraded request
    /// lists every rung it tried).
    pub rungs: Vec<RungTiming>,
    /// Could have been answered from the result cache but missed (set
    /// on misses that later coalesce or are rejected too).
    pub cache_miss: bool,
    /// Session deltas applied by this op (a rejected batch counts the
    /// deltas applied before the rejection).
    pub deltas_applied: u32,
    /// Decision-ladder path of an answered session reroute
    /// (`"quiescent"`, `"rank1"`, `"refactor"`, `"scratch"`); empty
    /// otherwise.
    pub reroute_path: &'static str,
    /// Oracle delay evaluations (SPICE-equivalent calls).
    pub evaluations: u64,
    /// Matrix factorizations performed.
    pub factorizations: u64,
    /// Candidates scored through a rank-1 update instead of a fresh
    /// factorization.
    pub rank1_solves: u64,
    /// Time spent inside the oracle, µs.
    pub oracle_us: u64,
}

impl Default for WideEvent {
    fn default() -> Self {
        Self {
            seq: 0,
            trace: 0,
            net_hash: 0,
            pins: 0,
            algorithm: "",
            outcome: "ok",
            fidelity_requested: "",
            fidelity_served: "",
            degradation_steps: 0,
            retries: 0,
            cache_hit: false,
            coalesced: false,
            injected_faults: 0,
            queue_us: 0,
            route_us: 0,
            total_us: 0,
            candidates_generated: 0,
            candidates_scored: 0,
            candidates_pruned: 0,
            ldrg_iterations: 0,
            rungs: Vec::new(),
            cache_miss: false,
            deltas_applied: 0,
            reroute_path: "",
            evaluations: 0,
            factorizations: 0,
            rank1_solves: 0,
            oracle_us: 0,
        }
    }
}

impl WideEvent {
    /// Should this event's spans be retained regardless of speed?
    /// (Errors, degradations, and injected faults always keep their
    /// exemplar — they are exactly the requests a post-mortem needs.)
    #[must_use]
    pub fn flagged(&self) -> bool {
        self.outcome != "ok" || self.degradation_steps > 0 || self.injected_faults > 0
    }

    /// The event as a JSON object (one journal line).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        Json::obj(vec![
            ("kind", Json::str("request")),
            ("seq", num(self.seq)),
            ("trace", num(self.trace)),
            ("net_hash", num(self.net_hash)),
            ("pins", num(self.pins)),
            ("algorithm", Json::str(self.algorithm)),
            ("outcome", Json::str(self.outcome)),
            ("fidelity_requested", Json::str(self.fidelity_requested)),
            ("fidelity_served", Json::str(self.fidelity_served)),
            ("degradation_steps", num(u64::from(self.degradation_steps))),
            ("retries", num(u64::from(self.retries))),
            ("cache_hit", Json::Bool(self.cache_hit)),
            ("coalesced", Json::Bool(self.coalesced)),
            ("injected_faults", num(self.injected_faults)),
            ("queue_us", num(self.queue_us)),
            ("route_us", num(self.route_us)),
            ("total_us", num(self.total_us)),
            ("candidates_generated", num(self.candidates_generated)),
            ("candidates_scored", num(self.candidates_scored)),
            ("candidates_pruned", num(self.candidates_pruned)),
            ("ldrg_iterations", num(u64::from(self.ldrg_iterations))),
            (
                "rungs",
                Json::Arr(
                    self.rungs
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("fidelity", Json::str(r.fidelity)),
                                ("micros", Json::Num(r.micros as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("cache_miss", Json::Bool(self.cache_miss)),
            ("deltas_applied", num(u64::from(self.deltas_applied))),
            ("reroute_path", Json::str(self.reroute_path)),
            ("evaluations", num(self.evaluations)),
            ("factorizations", num(self.factorizations)),
            ("rank1_solves", num(self.rank1_solves)),
            ("oracle_us", num(self.oracle_us)),
        ])
    }
}

/// One fidelity-ladder attempt: the rung tried and how long it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RungTiming {
    /// Fidelity rung name (`"transient"`, `"moment"`, …).
    pub fidelity: &'static str,
    /// Wall time of the attempt, µs (failed attempts count too).
    pub micros: u64,
}

/// One LDRG iteration: what the search considered and what it committed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterEvent {
    /// Journal sequence number (assigned by
    /// [`Journal::record_iteration`]).
    pub seq: u64,
    /// Trace id of the request that ran the search (0 outside a server).
    pub trace: u64,
    /// Zero-based iteration index within its `ldrg` run.
    pub iteration: u32,
    /// Whether an edge was committed (the final iteration of every run
    /// is a rejection: no candidate improved enough).
    pub accepted: bool,
    /// Node indices of the committed edge (meaningful when `accepted`).
    pub edge: (u64, u64),
    /// Objective value after the iteration, seconds.
    pub best_delay: f64,
    /// Improvement over the pre-iteration objective, seconds (0 when
    /// rejected).
    pub delay_delta: f64,
    /// Candidate edges the generator emitted this iteration.
    pub candidates_generated: u64,
    /// Candidate edges the sweep scored this iteration.
    pub candidates_scored: u64,
    /// Wall time of this iteration's generate + sweep, µs.
    pub oracle_us: u64,
}

impl IterEvent {
    /// The event as a JSON object (one journal line).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let num = |v: u64| Json::Num(v as f64);
        Json::obj(vec![
            ("kind", Json::str("iteration")),
            ("seq", num(self.seq)),
            ("trace", num(self.trace)),
            ("iteration", num(u64::from(self.iteration))),
            ("accepted", Json::Bool(self.accepted)),
            ("edge", Json::Arr(vec![num(self.edge.0), num(self.edge.1)])),
            ("best_delay", Json::Num(self.best_delay)),
            ("delay_delta", Json::Num(self.delay_delta)),
            ("candidates_generated", num(self.candidates_generated)),
            ("candidates_scored", num(self.candidates_scored)),
            ("oracle_us", num(self.oracle_us)),
        ])
    }
}

/// A retained full-trace exemplar: the wide event plus every span the
/// request produced.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// Why the exemplar was kept: `"slow"`, `"error"`, `"degraded"`, or
    /// `"injected"`.
    pub reason: &'static str,
    /// The request's wide event.
    pub event: WideEvent,
    /// Every span recorded on the worker while it ran the request.
    pub spans: Vec<SpanRecord>,
}

impl Exemplar {
    /// The exemplar as a JSON object (one journal line).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut event = self.event.to_json();
        event.set("kind", Json::str("exemplar"));
        event.set("reason", Json::str(self.reason));
        event.set(
            "spans",
            Json::Arr(
                self.spans
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("name", Json::str(s.name)),
                            ("trace", Json::Num(s.trace as f64)),
                            ("depth", Json::Num(f64::from(s.depth))),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("dur_ns", Json::Num(s.dur_ns as f64)),
                        ])
                    })
                    .collect(),
            ),
        );
        event
    }
}

/// Slot states for the wait-free ring: a slot is either idle or briefly
/// held by exactly one writer/reader.
const SLOT_IDLE: u32 = 0;
const SLOT_BUSY: u32 = 1;

struct Slot<T> {
    state: AtomicU32,
    value: UnsafeCell<Option<T>>,
}

/// Counters describing a ring's lifetime traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RingStats {
    /// Events successfully published (including since-overwritten ones).
    pub recorded: u64,
    /// Events dropped because the slot was momentarily held by another
    /// writer or a snapshot (bounded-overhead guarantee: never wait).
    pub dropped: u64,
}

/// A fixed-capacity, wait-free overwrite ring.
///
/// Writers take a ticket (`fetch_add`), claim `slot = ticket % cap` with
/// a single CAS, move the value in, and release. A failed claim —
/// another writer lapped onto the same slot, or a snapshot is reading
/// it — drops the event rather than spinning, so the hot path never
/// waits on anything. Snapshots claim slots the same way, cloning what
/// they find; a slot mid-write is simply skipped.
pub struct Ring<T> {
    slots: Box<[Slot<T>]>,
    next: AtomicU64,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

// SAFETY: slot values are only touched between a successful
// IDLE -> BUSY CAS (acquire) and the matching BUSY -> IDLE release
// store, which gives the holder exclusive access.
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T: Clone> Ring<T> {
    /// A ring with `cap` slots (at least 1).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Self {
            slots: (0..cap)
                .map(|_| Slot {
                    state: AtomicU32::new(SLOT_IDLE),
                    value: UnsafeCell::new(None),
                })
                .collect(),
            next: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Publishes `make(ticket)` into the ring; returns the ticket. The
    /// closure runs before the slot claim so a dropped event still
    /// consumed a unique sequence number.
    pub fn push_with(&self, make: impl FnOnce(u64) -> T) -> u64 {
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        let value = make(ticket);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        if slot
            .state
            .compare_exchange(SLOT_IDLE, SLOT_BUSY, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            // SAFETY: the CAS gives this thread exclusive slot access
            // until the release store below.
            unsafe { *slot.value.get() = Some(value) };
            slot.state.store(SLOT_IDLE, Ordering::Release);
            self.recorded.fetch_add(1, Ordering::Relaxed);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ticket
    }

    /// Clones out every published event (unordered; callers sort by
    /// their own sequence field). Slots held by in-flight writers are
    /// skipped, never waited on.
    #[must_use]
    pub fn snapshot(&self) -> Vec<T> {
        let mut out = Vec::new();
        for slot in &self.slots {
            if slot
                .state
                .compare_exchange(SLOT_IDLE, SLOT_BUSY, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                // SAFETY: as in `push_with` — the CAS holds the slot.
                let value = unsafe { (*slot.value.get()).clone() };
                slot.state.store(SLOT_IDLE, Ordering::Release);
                if let Some(value) = value {
                    out.push(value);
                }
            }
        }
        out
    }

    /// Lifetime publish/drop counters.
    #[must_use]
    pub fn stats(&self) -> RingStats {
        RingStats {
            recorded: self.recorded.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

impl<T> std::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("cap", &self.slots.len())
            .field("next", &self.next.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

#[derive(Debug, Default)]
struct ExemplarStore {
    /// Slowest-K exemplars, unordered; the floor tracks the minimum.
    slow: Vec<Exemplar>,
    /// Flagged exemplars (error/degraded/injected), capped.
    flagged: Vec<Exemplar>,
    flagged_dropped: u64,
}

/// The flight recorder: request + iteration rings and the tail-sampled
/// exemplar store.
#[derive(Debug)]
pub struct Journal {
    enabled: AtomicBool,
    requests: Ring<WideEvent>,
    iterations: Ring<IterEvent>,
    exemplars: Mutex<ExemplarStore>,
    /// `total_us` of the fastest retained slow exemplar once the slow
    /// set is full; requests at or below it skip the mutex entirely.
    slow_floor_us: AtomicU64,
}

impl Journal {
    /// A private journal (tests, embedded services).
    #[must_use]
    pub fn new(request_cap: usize, iteration_cap: usize) -> Self {
        Self {
            enabled: AtomicBool::new(true),
            requests: Ring::new(request_cap),
            iterations: Ring::new(iteration_cap),
            exemplars: Mutex::new(ExemplarStore::default()),
            slow_floor_us: AtomicU64::new(0),
        }
    }

    /// The process-wide journal every subsystem records into.
    #[must_use]
    pub fn global() -> &'static Journal {
        static GLOBAL: OnceLock<Journal> = OnceLock::new();
        GLOBAL.get_or_init(|| Journal::new(DEFAULT_REQUEST_CAP, DEFAULT_ITERATION_CAP))
    }

    /// Turns recording on or off (on by default).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Is recording on?
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Push/drop counters of the request ring — cheap enough for a
    /// metrics scrape, unlike [`snapshot`](Self::snapshot) which
    /// clones both rings.
    #[must_use]
    pub fn request_ring_stats(&self) -> RingStats {
        self.requests.stats()
    }

    /// Push/drop counters of the iteration ring.
    #[must_use]
    pub fn iteration_ring_stats(&self) -> RingStats {
        self.iterations.stats()
    }

    /// Journals one answered request: appends its wide event, then
    /// offers it, stamped with the assigned sequence number, and its
    /// span trace for exemplar retention. Returns the sequence number
    /// (0 when disabled).
    pub fn record(&self, event: WideEvent, spans: Vec<SpanRecord>) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let seq = self.record_request(event.clone());
        self.offer_exemplar(WideEvent { seq, ..event }, spans);
        seq
    }

    /// Appends one wide event; returns its sequence number (0 when
    /// disabled).
    pub fn record_request(&self, mut event: WideEvent) -> u64 {
        if !self.enabled() {
            return 0;
        }
        self.requests.push_with(move |seq| {
            event.seq = seq;
            event
        })
    }

    /// Appends one LDRG iteration event.
    pub fn record_iteration(&self, mut event: IterEvent) {
        if !self.enabled() {
            return;
        }
        self.iterations.push_with(move |seq| {
            event.seq = seq;
            event
        });
    }

    /// Offers a request's full span trace for retention. Kept iff the
    /// event is flagged (error / degraded / injected fault) or slower
    /// than the current slowest-K floor; everything else is discarded
    /// after one atomic load.
    pub fn offer_exemplar(&self, event: WideEvent, spans: Vec<SpanRecord>) {
        if !self.enabled() {
            return;
        }
        let flagged = event.flagged();
        if !flagged {
            // Fast rejection: the slow set is full (floor > 0) and this
            // request is not slower than its fastest member.
            let floor = self.slow_floor_us.load(Ordering::Relaxed);
            if floor > 0 && event.total_us <= floor {
                return;
            }
        }
        let reason = if event.outcome != "ok" {
            "error"
        } else if event.injected_faults > 0 {
            "injected"
        } else if event.degradation_steps > 0 {
            "degraded"
        } else {
            "slow"
        };
        let exemplar = Exemplar {
            reason,
            event,
            spans,
        };
        let mut store = self.exemplars.lock().expect("exemplar store poisoned");
        if flagged {
            if store.flagged.len() < FLAGGED_EXEMPLARS {
                store.flagged.push(exemplar);
            } else {
                store.flagged_dropped += 1;
            }
            return;
        }
        if store.slow.len() < SLOW_EXEMPLARS {
            store.slow.push(exemplar);
        } else {
            let (min_idx, min_us) = store
                .slow
                .iter()
                .enumerate()
                .map(|(i, e)| (i, e.event.total_us))
                .min_by_key(|&(_, us)| us)
                .expect("slow set is non-empty");
            if exemplar.event.total_us > min_us {
                store.slow[min_idx] = exemplar;
            }
        }
        // Refresh the floor: once full, the minimum retained total_us.
        if store.slow.len() >= SLOW_EXEMPLARS {
            let floor = store
                .slow
                .iter()
                .map(|e| e.event.total_us)
                .min()
                .unwrap_or(0);
            self.slow_floor_us.store(floor, Ordering::Relaxed);
        }
    }

    /// A consistent-enough copy of everything the recorder holds.
    /// Non-destructive: repeated snapshots of a quiesced journal are
    /// identical (what the count-agreement acceptance test pins down).
    #[must_use]
    pub fn snapshot(&self) -> JournalSnapshot {
        let mut requests = self.requests.snapshot();
        requests.sort_by_key(|e| e.seq);
        let mut iterations = self.iterations.snapshot();
        iterations.sort_by_key(|e| e.seq);
        let (exemplars, exemplars_dropped) = {
            let store = self.exemplars.lock().expect("exemplar store poisoned");
            let mut all: Vec<Exemplar> = store
                .flagged
                .iter()
                .chain(store.slow.iter())
                .cloned()
                .collect();
            all.sort_by_key(|e| e.event.seq);
            (all, store.flagged_dropped)
        };
        JournalSnapshot {
            requests,
            iterations,
            exemplars,
            request_stats: self.requests.stats(),
            iteration_stats: self.iterations.stats(),
            exemplars_dropped,
        }
    }
}

/// A point-in-time copy of the journal's contents.
#[derive(Debug, Clone)]
pub struct JournalSnapshot {
    /// Retained wide events, oldest first.
    pub requests: Vec<WideEvent>,
    /// Retained iteration events, oldest first.
    pub iterations: Vec<IterEvent>,
    /// Retained exemplars (flagged + slow), oldest first.
    pub exemplars: Vec<Exemplar>,
    /// Lifetime request-ring counters.
    pub request_stats: RingStats,
    /// Lifetime iteration-ring counters.
    pub iteration_stats: RingStats,
    /// Flagged exemplars discarded because the store was full.
    pub exemplars_dropped: u64,
}

impl JournalSnapshot {
    /// The record and drop counts both dump formats lead with.
    fn summary(&self) -> Vec<(&'static str, Json)> {
        let num = |v: u64| Json::Num(v as f64);
        vec![
            ("requests", num(self.requests.len() as u64)),
            ("iterations", num(self.iterations.len() as u64)),
            ("exemplars", num(self.exemplars.len() as u64)),
            ("requests_recorded", num(self.request_stats.recorded)),
            ("requests_dropped", num(self.request_stats.dropped)),
            ("iterations_recorded", num(self.iteration_stats.recorded)),
            ("iterations_dropped", num(self.iteration_stats.dropped)),
            ("exemplars_dropped", num(self.exemplars_dropped)),
        ]
    }

    /// The snapshot as one JSON object (the `{"op":"journal"}` body).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = self.summary();
        fields.extend([
            (
                "request_events",
                Json::Arr(self.requests.iter().map(WideEvent::to_json).collect()),
            ),
            (
                "iteration_events",
                Json::Arr(self.iterations.iter().map(IterEvent::to_json).collect()),
            ),
            (
                "exemplar_events",
                Json::Arr(self.exemplars.iter().map(Exemplar::to_json).collect()),
            ),
        ]);
        Json::obj(fields)
    }

    /// The snapshot as JSON-lines: one `"kind":"summary"` header, then
    /// one line per request / iteration / exemplar. This is the format
    /// of `route --journal-out`, `GET /journal`, and the post-mortem
    /// dump; [`check_journal_lines`] validates it.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        let mut summary = vec![("kind", Json::str("summary"))];
        summary.extend(self.summary());
        out.push_str(&Json::obj(summary).to_string());
        out.push('\n');
        for e in &self.requests {
            out.push_str(&e.to_json().to_string());
            out.push('\n');
        }
        for e in &self.iterations {
            out.push_str(&e.to_json().to_string());
            out.push('\n');
        }
        for e in &self.exemplars {
            out.push_str(&e.to_json().to_string());
            out.push('\n');
        }
        out
    }
}

/// Per-kind record counts found by [`check_journal_lines`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalCounts {
    /// `"kind":"request"` lines.
    pub requests: usize,
    /// `"kind":"iteration"` lines.
    pub iterations: usize,
    /// `"kind":"exemplar"` lines.
    pub exemplars: usize,
}

/// Strictly validates a journal JSON-lines dump (the sibling of
/// [`prometheus::check_exposition`](crate::prometheus::check_exposition)):
/// every line must parse, carry a known `kind`, and carry that kind's
/// required fields with the right types. Returns the per-kind counts.
///
/// # Errors
///
/// A human-readable description of the first offending line.
pub fn check_journal_lines(text: &str) -> Result<JournalCounts, String> {
    let mut counts = JournalCounts::default();
    let mut saw_summary = false;
    let Json::Obj(columns) = WideEvent::default().to_json() else {
        unreachable!("a wide event serializes to an object")
    };
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.trim().is_empty() {
            return Err(format!("line {lineno}: blank line in journal dump"));
        }
        let doc = Json::parse(line).map_err(|e| format!("line {lineno}: not valid JSON ({e})"))?;
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {lineno}: missing string field \"kind\""))?;
        let need_num = |field: &str| {
            doc.get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("line {lineno}: {kind} line missing number {field:?}"))
        };
        let need_str = |field: &str| {
            doc.get(field)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("line {lineno}: {kind} line missing string {field:?}"))
        };
        let need_bool = |field: &str| {
            doc.get(field)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("line {lineno}: {kind} line missing bool {field:?}"))
        };
        match kind {
            "summary" => {
                if saw_summary {
                    return Err(format!("line {lineno}: duplicate summary line"));
                }
                saw_summary = true;
                for f in ["requests", "iterations", "exemplars", "requests_recorded"] {
                    need_num(f)?;
                }
            }
            "request" | "exemplar" => {
                // The serializer is the schema: every column a wide
                // event writes must be present, with the same JSON type.
                for (field, column) in &columns {
                    if doc.get(field).map(std::mem::discriminant)
                        != Some(std::mem::discriminant(column))
                    {
                        return Err(format!(
                            "line {lineno}: {kind} line missing or mistyped {field:?}"
                        ));
                    }
                }
                if kind == "exemplar" {
                    need_str("reason")?;
                    let Some(Json::Arr(spans)) = doc.get("spans") else {
                        return Err(format!("line {lineno}: exemplar missing array \"spans\""));
                    };
                    for s in spans {
                        for f in ["start_ns", "dur_ns", "depth", "trace"] {
                            s.get(f).and_then(Json::as_f64).ok_or_else(|| {
                                format!("line {lineno}: exemplar span missing number {f:?}")
                            })?;
                        }
                        s.get("name").and_then(Json::as_str).ok_or_else(|| {
                            format!("line {lineno}: exemplar span missing string \"name\"")
                        })?;
                    }
                    counts.exemplars += 1;
                } else {
                    counts.requests += 1;
                }
            }
            "iteration" => {
                for f in [
                    "seq",
                    "trace",
                    "iteration",
                    "best_delay",
                    "delay_delta",
                    "candidates_generated",
                    "candidates_scored",
                    "oracle_us",
                ] {
                    need_num(f)?;
                }
                need_bool("accepted")?;
                if !matches!(doc.get("edge"), Some(Json::Arr(e)) if e.len() == 2) {
                    return Err(format!(
                        "line {lineno}: iteration line missing 2-element array \"edge\""
                    ));
                }
                counts.iterations += 1;
            }
            other => {
                return Err(format!("line {lineno}: unknown journal kind {other:?}"));
            }
        }
    }
    if !saw_summary {
        return Err("journal dump has no summary line".to_owned());
    }
    Ok(counts)
}

// ---------------------------------------------------------------------
// Per-rung attempt timings: a thread-local scratch filled by
// `route_one`'s ladder loop and collected by whoever assembles the
// request's wide event (the server worker or the route CLI).

thread_local! {
    static RUNGS: RefCell<Vec<RungTiming>> = const { RefCell::new(Vec::new()) };
}

/// Clears this thread's rung scratch; `route_one` calls it on entry so
/// a request only ever sees its own attempts.
pub fn begin_rungs() {
    RUNGS.with(|r| r.borrow_mut().clear());
}

/// Appends one ladder attempt to this thread's rung scratch.
pub fn record_rung(fidelity: &'static str, micros: u64) {
    RUNGS.with(|r| {
        let mut rungs = r.borrow_mut();
        // A runaway ladder cannot grow past the rung count × retries;
        // the cap is pure defense.
        if rungs.len() < 64 {
            rungs.push(RungTiming { fidelity, micros });
        }
    });
}

/// Takes (and clears) this thread's rung scratch.
#[must_use]
pub fn take_rungs() -> Vec<RungTiming> {
    RUNGS.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(total_us: u64) -> WideEvent {
        WideEvent {
            algorithm: "ldrg",
            fidelity_requested: "moment",
            fidelity_served: "moment",
            total_us,
            ..WideEvent::default()
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let ring: Ring<u64> = Ring::new(4);
        for i in 0..10u64 {
            ring.push_with(|_| i);
        }
        let mut snap = ring.snapshot();
        snap.sort_unstable();
        assert_eq!(snap, vec![6, 7, 8, 9]);
        let stats = ring.stats();
        assert_eq!(stats.recorded, 10);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn concurrent_pushes_never_lose_more_than_they_drop() {
        let ring: std::sync::Arc<Ring<u64>> = std::sync::Arc::new(Ring::new(64));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let ring = std::sync::Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        ring.push_with(|_| i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = ring.stats();
        assert_eq!(stats.recorded + stats.dropped, 4000);
        assert!(ring.snapshot().len() <= 64);
    }

    #[test]
    fn journal_assigns_monotone_seqs_and_sorts_snapshots() {
        let j = Journal::new(8, 8);
        for i in 0..5 {
            j.record_request(event(i));
        }
        let snap = j.snapshot();
        assert_eq!(snap.requests.len(), 5);
        let seqs: Vec<u64> = snap.requests.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert_eq!(snap.request_stats.recorded, 5);
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let j = Journal::new(8, 8);
        j.set_enabled(false);
        j.record_request(event(10));
        j.record_iteration(IterEvent {
            seq: 0,
            trace: 0,
            iteration: 0,
            accepted: false,
            edge: (0, 0),
            best_delay: 0.0,
            delay_delta: 0.0,
            candidates_generated: 0,
            candidates_scored: 0,
            oracle_us: 0,
        });
        j.offer_exemplar(event(10), Vec::new());
        assert_eq!(j.record(event(10), Vec::new()), 0);
        let snap = j.snapshot();
        assert!(snap.requests.is_empty());
        assert!(snap.iterations.is_empty());
        assert!(snap.exemplars.is_empty());
    }

    #[test]
    fn record_journals_the_event_and_offers_it_with_its_seq() {
        let j = Journal::new(8, 8);
        j.record(event(1), Vec::new());
        let mut errored = event(1);
        errored.outcome = "route_error";
        let seq = j.record(errored, Vec::new());
        assert_eq!(seq, 1);
        let snap = j.snapshot();
        assert_eq!(snap.requests.len(), 2);
        let exemplar = snap
            .exemplars
            .iter()
            .find(|x| x.reason == "error")
            .expect("the errored request keeps its exemplar");
        assert_eq!(exemplar.event.seq, seq);
    }

    #[test]
    fn flagged_exemplars_are_always_kept() {
        let j = Journal::new(8, 8);
        let mut degraded = event(1);
        degraded.degradation_steps = 2;
        j.offer_exemplar(degraded, Vec::new());
        let mut errored = event(1);
        errored.outcome = "route_error";
        j.offer_exemplar(errored, Vec::new());
        let snap = j.snapshot();
        assert_eq!(snap.exemplars.len(), 2);
        let reasons: Vec<_> = snap.exemplars.iter().map(|e| e.reason).collect();
        assert!(reasons.contains(&"degraded"));
        assert!(reasons.contains(&"error"));
    }

    #[test]
    fn slow_set_keeps_the_slowest_k() {
        let j = Journal::new(1024, 8);
        for us in 1..=100u64 {
            j.offer_exemplar(event(us), Vec::new());
        }
        let snap = j.snapshot();
        assert_eq!(snap.exemplars.len(), SLOW_EXEMPLARS);
        let mut kept: Vec<u64> = snap.exemplars.iter().map(|e| e.event.total_us).collect();
        kept.sort_unstable();
        let expected: Vec<u64> = (100 - SLOW_EXEMPLARS as u64 + 1..=100).collect();
        assert_eq!(kept, expected);
    }

    #[test]
    fn json_lines_round_trip_through_the_checker() {
        let j = Journal::new(16, 16);
        let mut ev = event(50);
        ev.rungs = vec![RungTiming {
            fidelity: "moment",
            micros: 42,
        }];
        j.record_request(ev.clone());
        j.record_iteration(IterEvent {
            seq: 0,
            trace: 7,
            iteration: 0,
            accepted: true,
            edge: (1, 3),
            best_delay: 1e-9,
            delay_delta: 2e-10,
            candidates_generated: 20,
            candidates_scored: 20,
            oracle_us: 120,
        });
        ev.degradation_steps = 1;
        j.offer_exemplar(
            ev,
            vec![SpanRecord {
                name: "route_one",
                trace: 7,
                thread: 1,
                depth: 0,
                start_ns: 10,
                dur_ns: 90,
            }],
        );
        let lines = j.snapshot().to_json_lines();
        let counts = check_journal_lines(&lines).unwrap();
        assert_eq!(counts.requests, 1);
        assert_eq!(counts.iterations, 1);
        assert_eq!(counts.exemplars, 1);
    }

    #[test]
    fn checker_rejects_malformed_dumps() {
        assert!(check_journal_lines("").is_err()); // no summary
        assert!(check_journal_lines("{\"kind\":\"summary\"}").is_err()); // missing counts
        assert!(check_journal_lines("not json\n").is_err());
        let ok = Journal::new(4, 4).snapshot().to_json_lines();
        assert!(check_journal_lines(&ok).is_ok());
        let with_garbage = format!("{ok}{{\"kind\":\"martian\"}}\n");
        assert!(check_journal_lines(&with_garbage).is_err());
        // Request lines must carry every wide-event column, typed.
        let j = Journal::new(4, 4);
        j.record_request(event(5));
        let full = j.snapshot().to_json_lines();
        assert!(check_journal_lines(&full).is_ok());
        let dropped = full.replace(",\"oracle_us\":0", "");
        assert_ne!(dropped, full);
        assert!(check_journal_lines(&dropped).is_err());
        let mistyped = full.replace("\"cache_miss\":false", "\"cache_miss\":0");
        assert_ne!(mistyped, full);
        assert!(check_journal_lines(&mistyped).is_err());
    }

    #[test]
    fn rung_scratch_is_per_thread_and_clears() {
        begin_rungs();
        record_rung("transient", 100);
        record_rung("moment", 50);
        let rungs = take_rungs();
        assert_eq!(rungs.len(), 2);
        assert_eq!(rungs[0].fidelity, "transient");
        assert!(take_rungs().is_empty());
        std::thread::spawn(|| {
            assert!(take_rungs().is_empty());
        })
        .join()
        .unwrap();
    }
}
