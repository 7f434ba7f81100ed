//! In-process replay of a workload's request stream through the
//! program's public functions: the verifier uses it to re-derive
//! answers, the traced run to time each layer of the request path.
//!
//! A route request's path, as the server walks it:
//!
//! | layer | public functions |
//! |---|---|
//! | `proto.parse` | `Json::parse` + `proto::parse_request` |
//! | `service.lookup` | `engine::build_net` + `engine::cache_key` + `LruCache::get` (+ `insert` on a miss) |
//! | `engine.route` | `engine::execute` (misses only) |
//! | `proto.serialize` | stamping `id`/`cached`/`micros`/`trace` + `Json::to_line` |
//! | `journal.record` | `Journal::record_request` + `offer_exemplar` |
//!
//! Session ops take the same path with `RoutingSession::create` /
//! `mutate` / `reroute` as the engine layer and no cache lookup.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ntr_circuit::Technology;
use ntr_core::{
    canonical_net_hash, Budget, CancelToken, DegradePolicy, Fidelity, RetryPolicy, RoutingSession,
};
use ntr_obs::journal::WideEvent;
use ntr_obs::Journal;
use ntr_server::cache::LruCache;
use ntr_server::engine::{self, Resilience};
use ntr_server::json::Json;
use ntr_server::proto::{self, Request, RouteRequest, SessionAction, SessionRequest};

use crate::client::Exchange;
use crate::layers::{timed_search, SearchSample};

/// The server's result-cache capacity (its `--cache` default).
const CACHE_ENTRIES: usize = 1024;

/// Parses a request line with the server's own parser.
///
/// # Errors
///
/// Returns the parse error as text.
pub fn parse(line: &str) -> Result<Request, String> {
    let doc = Json::parse(line).map_err(|e| e.to_string())?;
    proto::parse_request(&doc)
}

/// The budget the server gives every session: moment fidelity, one sweep
/// thread, no degradation or fault injection, retries seeded by the net.
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

/// What a replayed session op answered.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionAnswer {
    /// `session.create`: the initial route's delay, ns.
    Created(f64),
    /// `session.mutate`: deltas pending after the batch.
    Mutated(usize),
    /// `session.reroute`: delay, ns, and the ladder rung that answered.
    Rerouted(f64, &'static str),
    /// `session.close`.
    Closed,
}

/// Replays one client's session ops in order. Sessions are keyed by the
/// handles the server assigned, read from its replies.
pub struct SessionReplayer {
    tech: Technology,
    sessions: HashMap<u64, RoutingSession>,
}

impl SessionReplayer {
    /// An empty replayer.
    #[must_use]
    pub fn new(tech: Technology) -> Self {
        Self {
            tech,
            sessions: HashMap::new(),
        }
    }

    /// Applies `request`, which the server answered with `reply`, and
    /// returns the replayed answer and the time the session call took.
    ///
    /// # Errors
    ///
    /// Returns a description when the op cannot be replayed.
    pub fn apply(
        &mut self,
        request: &SessionRequest,
        reply: &Json,
    ) -> Result<(SessionAnswer, Duration), String> {
        let handle = |j: &Json| {
            j.get("session")
                .and_then(Json::as_f64)
                .map(|h| h as u64)
                .ok_or_else(|| "reply carries no session handle".to_owned())
        };
        match &request.action {
            SessionAction::Create(req) => {
                let net = engine::build_net(req).map_err(|e| format!("{e:?}"))?;
                let budget = session_budget(req, self.tech, canonical_net_hash(&net, &self.tech));
                let started = Instant::now();
                let (session, outcome) = RoutingSession::create(&net, req.algorithm, budget)
                    .map_err(|e| e.to_string())?;
                let took = started.elapsed();
                self.sessions.insert(handle(reply)?, session);
                Ok((SessionAnswer::Created(outcome.final_delay * 1e9), took))
            }
            SessionAction::Mutate { session, ops } => {
                let s = self.session(*session)?;
                let started = Instant::now();
                for op in ops {
                    s.mutate(*op).map_err(|e| e.to_string())?;
                }
                Ok((SessionAnswer::Mutated(s.pending_len()), started.elapsed()))
            }
            SessionAction::Reroute { session, .. } => {
                let s = self.session(*session)?;
                let started = Instant::now();
                let report = s.reroute().map_err(|e| e.to_string())?;
                Ok((
                    SessionAnswer::Rerouted(report.outcome.final_delay * 1e9, report.path.as_str()),
                    started.elapsed(),
                ))
            }
            SessionAction::Close { session } => {
                self.sessions
                    .remove(session)
                    .ok_or_else(|| format!("unknown session {session}"))?;
                Ok((SessionAnswer::Closed, Duration::ZERO))
            }
        }
    }

    fn session(&mut self, handle: u64) -> Result<&mut RoutingSession, String> {
        self.sessions
            .get_mut(&handle)
            .ok_or_else(|| format!("unknown session {handle}"))
    }
}

/// Per-layer timings of a replayed request stream.
#[derive(Debug, Default)]
pub struct Replay {
    /// Requests replayed.
    pub requests: usize,
    /// `proto.parse`, per request.
    pub parse: Vec<Duration>,
    /// `service.lookup`, per route request.
    pub lookup: Vec<Duration>,
    /// `engine.route`, per request that routed (cache misses,
    /// `session.create` and `session.reroute`).
    pub engine: Vec<Duration>,
    /// `session.mutate`, per mutate op.
    pub mutate: Vec<Duration>,
    /// `session.reroute`, per reroute op.
    pub reroute: Vec<Duration>,
    /// `proto.serialize`, per request.
    pub serialize: Vec<Duration>,
    /// `journal.record`, per request.
    pub journal: Vec<Duration>,
    /// Sum of every timed layer.
    pub layers_total: Duration,
    /// Wall time of the replay loop around the same requests.
    pub wall_total: Duration,
    /// The timed search of every route request that missed the cache.
    pub searches: Vec<SearchSample>,
}

impl Replay {
    /// `|layers − wall| / wall`: how much of the replayed path the layer
    /// timings fail to cover.
    #[must_use]
    pub fn sum_error(&self) -> f64 {
        let wall = self.wall_total.as_secs_f64();
        if wall == 0.0 {
            return 0.0;
        }
        (self.layers_total.as_secs_f64() - wall).abs() / wall
    }
}

/// Times one closure.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// Replays up to `limit` answered requests of `exchanges`, in order,
/// through the program's public functions, timing each layer.
///
/// # Errors
///
/// Returns a description when a request cannot be replayed.
pub fn replay(exchanges: &[Exchange], limit: usize, tech: Technology) -> Result<Replay, String> {
    let mut out = Replay::default();
    let mut cache: LruCache<Json> = LruCache::new(CACHE_ENTRIES);
    let resilience = Resilience::default();
    let journal = Journal::new(ntr_obs::journal::DEFAULT_REQUEST_CAP, 16);
    let mut sessions: HashMap<usize, SessionReplayer> = HashMap::new();
    let answered = exchanges.iter().filter_map(|x| Some((x, x.reply_json()?)));
    for (x, reply) in answered.take(limit) {
        if reply.get("ok") != Some(&Json::Bool(true)) {
            continue;
        }
        let wall_started = Instant::now();
        // Time spent in the traced search, which is not on the path.
        let mut off_path = Duration::ZERO;
        let (request, parse_time) = timed(|| parse(&x.request));
        let mut layers = parse_time;
        let (body, algorithm, pins) = match request? {
            Request::Route(req) => {
                let (found, mut lookup) = timed(|| {
                    let net = engine::build_net(&req).map_err(|e| format!("{e:?}"))?;
                    let key = engine::cache_key(&net, &req, &tech);
                    let hit = cache.get(key).cloned();
                    Ok::<_, String>((net, key, hit))
                });
                let (net, key, hit) = found?;
                let body = match hit {
                    Some(body) => body,
                    None => {
                        let (result, took) = timed(|| {
                            engine::execute(&req, &net, tech, &CancelToken::new(), &resilience)
                        });
                        out.engine.push(took);
                        layers += took;
                        let body = result.map_err(|e| format!("{e:?}"))?.body;
                        let ((), insert) = timed(|| cache.insert(key, body.clone()));
                        lookup += insert;
                        let (sample, took) = timed(|| timed_search(&req, &net, tech));
                        off_path += took;
                        out.searches.extend(sample?);
                        body
                    }
                };
                out.lookup.push(lookup);
                layers += lookup;
                (body, req.algorithm.as_str(), req.pins.len() as u64)
            }
            Request::Session(req) => {
                let replayer = sessions
                    .entry(x.lane)
                    .or_insert_with(|| SessionReplayer::new(tech));
                let (_, took) = replayer.apply(&req, &reply)?;
                match req.action {
                    SessionAction::Mutate { .. } => out.mutate.push(took),
                    SessionAction::Reroute { .. } => {
                        out.reroute.push(took);
                        out.engine.push(took);
                    }
                    SessionAction::Create(_) => out.engine.push(took),
                    SessionAction::Close { .. } => {}
                }
                layers += took;
                (reply.clone(), "session", 0)
            }
            _ => continue,
        };
        let (_, serialize) = timed(|| {
            let mut response = body;
            response.set("id", Json::Num(1.0));
            response.set("cached", Json::Bool(false));
            response.set("micros", Json::Num(1.0));
            response.set("trace", Json::Num(1.0));
            std::hint::black_box(response.to_line())
        });
        let (_, journal_time) = timed(|| {
            let mut event = WideEvent {
                trace: 1,
                pins,
                algorithm,
                ..WideEvent::default()
            };
            event.seq = journal.record_request(event.clone());
            journal.offer_exemplar(event, Vec::new());
        });
        layers += serialize + journal_time;
        out.parse.push(parse_time);
        out.serialize.push(serialize);
        out.journal.push(journal_time);
        out.layers_total += layers;
        out.wall_total += wall_started.elapsed().saturating_sub(off_path);
        out.requests += 1;
    }
    Ok(out)
}
