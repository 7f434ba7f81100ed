//! The output verifier: every `ok` reply is checked against an answer
//! re-derived in-process.
//!
//! - A route answer is re-computed with `engine::execute` (every
//!   `stride`-th distinct answer, for workloads whose routes are costly).
//! - A repeated net's answer (a cache hit, or a coalesced duplicate)
//!   must equal the first answer given for it.
//! - Session answers are re-derived by replaying each editor's ops on a
//!   `RoutingSession`.
//!
//! Delays must agree within 1e-9 relative.

use std::collections::HashMap;

use ntr_circuit::Technology;
use ntr_core::CancelToken;
use ntr_server::engine::{self, Resilience};
use ntr_server::json::Json;
use ntr_server::proto::{Request, RouteRequest};

use crate::client::Exchange;
use crate::replay::{parse, SessionAnswer, SessionReplayer};

/// Largest relative delay difference accepted as the same answer.
pub const TOLERANCE: f64 = 1e-9;

/// What the verifier found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Replies checked.
    pub checked: usize,
    /// One line per reply that disagreed with its re-derived answer.
    pub mismatches: Vec<String>,
}

fn same(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOLERANCE * a.abs().max(b.abs())
}

fn delay_of(reply: &Json) -> Option<f64> {
    reply.get("delay_ns").and_then(Json::as_f64)
}

/// A route answer to re-derive: the request, its net, and the delay the
/// server reported.
struct Rederive {
    request: RouteRequest,
    delay_ns: f64,
}

/// Checks every `ok` reply in `exchanges`, re-deriving route answers on
/// `threads` threads.
#[must_use]
pub fn verify(exchanges: &[Exchange], stride: usize, threads: usize, tech: Technology) -> Verdict {
    let mut verdict = Verdict::default();
    let mut first_answer: HashMap<u64, f64> = HashMap::new();
    let mut rederive = Vec::new();
    let mut lanes: HashMap<usize, Vec<&Exchange>> = HashMap::new();
    for x in exchanges {
        let Some(reply) = x.reply_json() else {
            continue;
        };
        if reply.get("ok") != Some(&Json::Bool(true)) {
            continue;
        }
        match parse(&x.request) {
            Ok(Request::Route(request)) => {
                verdict.checked += 1;
                let (Ok(net), Some(delay_ns)) = (engine::build_net(&request), delay_of(&reply))
                else {
                    verdict
                        .mismatches
                        .push(format!("unroutable request or reply: {}", x.request));
                    continue;
                };
                let key = engine::cache_key(&net, &request, &tech);
                match first_answer.get(&key) {
                    Some(&first) if !same(first, delay_ns) => verdict.mismatches.push(format!(
                        "repeated net answered {delay_ns} ns, first answer was {first} ns"
                    )),
                    Some(_) => {}
                    None => {
                        first_answer.insert(key, delay_ns);
                        if (first_answer.len() - 1).is_multiple_of(stride.max(1)) {
                            rederive.push(Rederive { request, delay_ns });
                        }
                    }
                }
            }
            Ok(Request::Session(_)) => lanes.entry(x.lane).or_default().push(x),
            Ok(_) => {}
            Err(e) => verdict.mismatches.push(format!("unparsable request: {e}")),
        }
    }

    let chunk = rederive.len().div_ceil(threads.max(1)).max(1);
    let found: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = rederive
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .filter_map(|r| rederive_route(r, tech))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verifier thread panicked"))
            .collect()
    });
    verdict.mismatches.extend(found);

    for (lane, ops) in lanes {
        verify_lane(lane, &ops, tech, &mut verdict);
    }
    verdict
}

/// Re-routes one request; `Some(description)` on disagreement.
fn rederive_route(r: &Rederive, tech: Technology) -> Option<String> {
    let net = engine::build_net(&r.request).ok()?;
    match engine::execute(
        &r.request,
        &net,
        tech,
        &CancelToken::new(),
        &Resilience::default(),
    ) {
        Ok(out) => {
            let expected = delay_of(&out.body).unwrap_or(f64::NAN);
            (!same(expected, r.delay_ns)).then(|| {
                format!(
                    "{} route answered {} ns, re-derived {expected} ns",
                    r.request.algorithm, r.delay_ns
                )
            })
        }
        Err(e) => Some(format!("re-deriving a route failed: {e:?}")),
    }
}

/// Replays one editor's session ops and compares every answer.
fn verify_lane(lane: usize, ops: &[&Exchange], tech: Technology, verdict: &mut Verdict) {
    let mut replayer = SessionReplayer::new(tech);
    for x in ops {
        let (Ok(Request::Session(request)), Some(reply)) = (parse(&x.request), x.reply_json())
        else {
            continue;
        };
        verdict.checked += 1;
        let answer = match replayer.apply(&request, &reply) {
            Ok((answer, _)) => answer,
            Err(e) => {
                verdict
                    .mismatches
                    .push(format!("editor {lane}: cannot replay {}: {e}", x.request));
                // Later ops of this editor depend on the lost state.
                return;
            }
        };
        let agrees = match answer {
            SessionAnswer::Created(delay) => delay_of(&reply).is_some_and(|d| same(d, delay)),
            SessionAnswer::Mutated(pending) => {
                reply.get("pending").and_then(Json::as_f64) == Some(pending as f64)
            }
            SessionAnswer::Rerouted(delay, path) => {
                delay_of(&reply).is_some_and(|d| same(d, delay))
                    && reply.get("path").and_then(Json::as_str) == Some(path)
            }
            SessionAnswer::Closed => true,
        };
        if !agrees {
            verdict.mismatches.push(format!(
                "editor {lane}: reply {} disagrees with replayed {answer:?}",
                x.reply.as_deref().unwrap_or("")
            ));
        }
    }
}
