//! `/metrics` and the flight recorder count the same requests. A mixed
//! run — a cache miss and hit, coalesced duplicates, `overloaded`
//! rejections behind a one-slot queue, a deadline, a one-pin route
//! error, and a session cycle with a rejected delta batch and an
//! unknown-handle probe — must leave every request counter in the
//! `GET /metrics` exposition equal to the count recomputed from the
//! wide events of the `{"op":"journal"}` body, exactly.
//!
//! The journal is process-global, so this binary holds exactly one
//! test: a second one would add its requests to the same journal.

pub mod common;

use std::sync::{mpsc, Arc};
use std::time::Duration;

use common::{http_ok, random_pins, sample};
use ntr_core::DeltaOp;
use ntr_geom::Point;
use ntr_obs::Journal;
use ntr_server::http::spawn_metrics_server;
use ntr_server::json::Json;
use ntr_server::proto::{Algorithm, OracleKind, RouteRequest, SessionAction, SessionRequest};
use ntr_server::service::{Service, ServiceConfig};

fn request(pins: Vec<Point>, oracle: OracleKind) -> RouteRequest {
    RouteRequest {
        id: None,
        algorithm: Algorithm::Ldrg,
        oracle,
        pins,
        deadline: None,
        max_added_edges: 0,
        use_cache: true,
        retries: 2,
        degrade: true,
        candidates: ntr_core::CandidateGen::Exhaustive,
    }
}

/// Submits every request back to back, then waits for every answer.
fn route_all(service: &Service, requests: Vec<RouteRequest>) -> Vec<Json> {
    let (tx, rx) = mpsc::channel();
    let n = requests.len();
    for req in requests {
        let tx = tx.clone();
        service.submit(req, Box::new(move |r| tx.send(r).unwrap()));
    }
    (0..n)
        .map(|_| rx.recv_timeout(Duration::from_secs(120)).unwrap())
        .collect()
}

fn session(service: &Service, action: SessionAction) -> Json {
    let (tx, rx) = mpsc::channel();
    service.submit_session(
        SessionRequest { id: None, action },
        Box::new(move |r| tx.send(r).unwrap()),
    );
    rx.recv_timeout(Duration::from_secs(120)).unwrap()
}

fn error_of(response: &Json) -> Option<&str> {
    response.get("error").and_then(Json::as_str)
}

fn text<'a>(event: &'a Json, field: &str) -> &'a str {
    event
        .get(field)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("journal event without string {field:?}: {event}"))
}

fn num(event: &Json, field: &str) -> u64 {
    event
        .get(field)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("journal event without number {field:?}: {event}")) as u64
}

fn flag(event: &Json, field: &str) -> bool {
    event
        .get(field)
        .and_then(Json::as_bool)
        .unwrap_or_else(|| panic!("journal event without bool {field:?}: {event}"))
}

#[test]
fn metrics_counters_equal_the_counts_recomputed_from_the_journal() {
    let service = Arc::new(Service::start(&ServiceConfig {
        workers: 1,
        queue_depth: 1,
        ..ServiceConfig::default()
    }));
    let (addr, _http) = spawn_metrics_server("127.0.0.1:0", Arc::clone(&service)).unwrap();

    // A miss, then a hit on the same net.
    let small = random_pins(1, 6);
    let first = route_all(&service, vec![request(small.clone(), OracleKind::Moment)]);
    assert_eq!(
        first[0].get("cached"),
        Some(&Json::Bool(false)),
        "{}",
        first[0]
    );
    let again = route_all(&service, vec![request(small, OracleKind::Moment)]);
    assert_eq!(
        again[0].get("cached"),
        Some(&Json::Bool(true)),
        "{}",
        again[0]
    );

    // Three copies of one slow net (two coalesce onto the first), then
    // distinct slow nets: one busy worker and one queue slot reject
    // all but at most one of them.
    let slow = random_pins(77, 16);
    let mut burst: Vec<RouteRequest> = (0..3)
        .map(|_| request(slow.clone(), OracleKind::TransientFast))
        .collect();
    burst
        .extend((0..4).map(|seed| request(random_pins(100 + seed, 16), OracleKind::TransientFast)));
    let answers = route_all(&service, burst);
    let overloaded = answers
        .iter()
        .filter(|r| error_of(r) == Some("overloaded"))
        .count();
    assert!(
        overloaded >= 3,
        "the one-slot queue should reject the burst"
    );

    // A deadline far shorter than the route, with degradation off.
    let mut hurried = request(random_pins(200, 16), OracleKind::TransientFast);
    hurried.deadline = Some(Duration::from_millis(1));
    hurried.degrade = false;
    let late = route_all(&service, vec![hurried]);
    assert_eq!(error_of(&late[0]), Some("deadline"), "{}", late[0]);

    // A net of one pin cannot be routed.
    let lone = route_all(
        &service,
        vec![request(vec![Point::new(1.0, 1.0)], OracleKind::Moment)],
    );
    assert_eq!(error_of(&lone[0]), Some("route"), "{}", lone[0]);

    // A session through every reroute rung the cycle reaches, a batch
    // rejected after one applied delta, and an unknown-handle probe.
    let pins = random_pins(11, 9);
    let created = session(
        &service,
        SessionAction::Create(request(pins.clone(), OracleKind::Moment)),
    );
    assert_eq!(created.get("ok"), Some(&Json::Bool(true)), "{created}");
    let handle = created.get("session").and_then(Json::as_f64).unwrap() as u64;
    let reroute = || SessionAction::Reroute {
        session: handle,
        deadline: None,
    };
    let quiet = session(&service, reroute());
    assert_eq!(quiet.get("path").and_then(Json::as_str), Some("quiescent"));
    session(
        &service,
        SessionAction::Mutate {
            session: handle,
            ops: vec![DeltaOp::MovePin {
                pin: 2,
                to: Point::new(pins[2].x + 40.0, pins[2].y - 25.0),
            }],
        },
    );
    let refactored = session(&service, reroute());
    assert_eq!(
        refactored.get("path").and_then(Json::as_str),
        Some("refactor")
    );
    let rejected = session(
        &service,
        SessionAction::Mutate {
            session: handle,
            ops: vec![
                DeltaOp::AddPin(Point::new(777.0, 777.0)),
                DeltaOp::RemovePin { pin: 0 },
            ],
        },
    );
    assert_eq!(error_of(&rejected), Some("session"), "{rejected}");
    let scratched = session(&service, reroute());
    assert_eq!(
        scratched.get("path").and_then(Json::as_str),
        Some("scratch")
    );
    let closed = session(&service, SessionAction::Close { session: handle });
    assert_eq!(closed.get("ok"), Some(&Json::Bool(true)), "{closed}");
    let probe = session(&service, SessionAction::Close { session: handle });
    assert_eq!(error_of(&probe), Some("session"), "{probe}");

    // Every answer above was journaled before it was delivered, so the
    // journal and the counters are final now.
    let exposition = http_ok(addr, "/metrics");
    let journal = Json::parse(&Journal::global().snapshot().to_json().to_string()).unwrap();
    assert_eq!(
        journal.get("requests_dropped").and_then(Json::as_f64),
        Some(0.0)
    );
    let events = journal
        .get("request_events")
        .and_then(Json::as_arr)
        .unwrap();
    let count = |keep: &dyn Fn(&Json) -> bool| events.iter().filter(|e| keep(e)).count() as u64;
    let outcome = |o: &str| count(&|e| text(e, "outcome") == o);
    let session_ok =
        |op: &str| count(&|e| text(e, "algorithm") == op && text(e, "outcome") == "ok");
    let path = |p: &str| count(&|e| text(e, "reroute_path") == p);
    let routed: Vec<&Json> = events
        .iter()
        .filter(|e| {
            text(e, "outcome") == "ok"
                && !flag(e, "cache_hit")
                && !flag(e, "coalesced")
                && !text(e, "algorithm").starts_with("session.")
        })
        .collect();
    let routed_sum = |field: &str| routed.iter().map(|e| num(e, field)).sum::<u64>();

    let expected = [
        (
            "ntr_requests_received_total",
            count(&|e| text(e, "outcome") != "parse_error"),
        ),
        ("ntr_requests_completed_total", outcome("ok")),
        (
            "ntr_request_errors_total",
            outcome("route_error") + outcome("session_error"),
        ),
        ("ntr_requests_overloaded_total", outcome("overloaded")),
        ("ntr_deadline_expired_total", outcome("deadline")),
        ("ntr_cache_hits_total", count(&|e| flag(e, "cache_hit"))),
        ("ntr_cache_misses_total", count(&|e| flag(e, "cache_miss"))),
        (
            "ntr_requests_coalesced_total",
            count(&|e| flag(e, "coalesced")),
        ),
        (
            "ntr_requests_degraded_total",
            routed
                .iter()
                .filter(|e| num(e, "degradation_steps") > 0)
                .count() as u64,
        ),
        ("ntr_retries_total", routed_sum("retries")),
        (
            "ntr_candidates_generated_total",
            routed_sum("candidates_generated"),
        ),
        (
            "ntr_candidates_scored_total",
            routed_sum("candidates_scored"),
        ),
        (
            "ntr_candidates_pruned_total",
            routed_sum("candidates_pruned"),
        ),
        ("ntr_request_latency_us_count", routed.len() as u64),
        ("ntr_request_latency_us_sum", routed_sum("total_us")),
        ("ntr_sessions_created_total", session_ok("session.create")),
        ("ntr_sessions_closed_total", session_ok("session.close")),
        ("ntr_session_errors_total", outcome("session_error")),
        (
            "ntr_session_mutations_total",
            events.iter().map(|e| num(e, "deltas_applied")).sum(),
        ),
        ("ntr_session_reroutes_quiescent_total", path("quiescent")),
        ("ntr_session_reroutes_rank1_total", path("rank1")),
        ("ntr_session_reroutes_refactor_total", path("refactor")),
        ("ntr_session_reroutes_scratch_total", path("scratch")),
    ];
    for (name, want) in expected {
        assert_eq!(
            sample(&exposition, name),
            want,
            "{name}: /metrics disagrees with the journal"
        );
    }

    // The run really produced every kind it set out to.
    for (name, want) in [
        ("ntr_cache_hits_total", 1),
        ("ntr_requests_coalesced_total", 2),
        ("ntr_deadline_expired_total", 1),
        ("ntr_request_errors_total", 3),
        ("ntr_session_errors_total", 2),
        ("ntr_session_mutations_total", 2),
        ("ntr_session_reroutes_quiescent_total", 1),
        ("ntr_session_reroutes_refactor_total", 1),
        ("ntr_session_reroutes_scratch_total", 1),
    ] {
        assert_eq!(sample(&exposition, name), want, "{name}");
    }
    assert_eq!(
        sample(&exposition, "ntr_requests_overloaded_total"),
        overloaded as u64
    );

    // The stats body's search totals are sums over the same events.
    let stats = service.stats_json();
    let search = stats.get("search").unwrap();
    for field in ["evaluations", "factorizations", "rank1_solves"] {
        assert_eq!(num(search, field), routed_sum(field), "search.{field}");
    }
    let wall_ms = search.get("wall_ms").and_then(Json::as_f64).unwrap();
    assert!((wall_ms * 1e3 - routed_sum("oracle_us") as f64).abs() < 1e-3);
    assert_eq!(
        stats
            .get("per_algorithm")
            .and_then(|p| p.get("ldrg"))
            .and_then(Json::as_f64),
        Some(routed.len() as f64)
    );
    service.shutdown();
}
