//! Session-op behavior at the service layer: the create → mutate →
//! reroute → close lifecycle, the structured `session` error, cache
//! exclusion, and TTL eviction.

pub mod common;

use std::sync::mpsc;
use std::time::Duration;

use common::random_pins;
use ntr_geom::Point;
use ntr_server::json::Json;
use ntr_server::proto::{Algorithm, OracleKind, RouteRequest, SessionAction, SessionRequest};
use ntr_server::service::{Service, ServiceConfig};

fn request(pins: Vec<Point>) -> RouteRequest {
    RouteRequest {
        id: None,
        algorithm: Algorithm::Ldrg,
        oracle: OracleKind::Moment,
        pins,
        deadline: None,
        max_added_edges: 0,
        use_cache: true,
        retries: 2,
        degrade: true,
        candidates: ntr_core::CandidateGen::Exhaustive,
    }
}

fn submit_session(service: &Service, action: SessionAction) -> Json {
    let (tx, rx) = mpsc::channel();
    service.submit_session(
        SessionRequest { id: None, action },
        Box::new(move |r| tx.send(r).unwrap()),
    );
    rx.recv_timeout(Duration::from_secs(120)).unwrap()
}

fn route(service: &Service, req: RouteRequest) -> Json {
    let (tx, rx) = mpsc::channel();
    service.submit(req, Box::new(move |r| tx.send(r).unwrap()));
    rx.recv_timeout(Duration::from_secs(120)).unwrap()
}

fn handle_of(response: &Json) -> u64 {
    response.get("session").and_then(Json::as_f64).unwrap() as u64
}

fn session_stat(service: &Service, field: &str) -> f64 {
    service
        .stats_json()
        .get("sessions")
        .and_then(|s| s.get(field))
        .and_then(Json::as_f64)
        .unwrap()
}

#[test]
fn lifecycle_create_mutate_reroute_close() {
    let service = Service::start(&ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    let pins = random_pins(11, 9);
    let created = submit_session(&service, SessionAction::Create(request(pins.clone())));
    assert_eq!(created.get("ok"), Some(&Json::Bool(true)), "{created}");
    assert_eq!(
        created.get("fidelity").and_then(Json::as_str),
        Some("moment"),
        "sessions always serve at moment fidelity"
    );
    let handle = handle_of(&created);
    assert_eq!(service.session_count(), 1);

    // A quiescent reroute replays the cached outcome.
    let quiet = submit_session(
        &service,
        SessionAction::Reroute {
            session: handle,
            deadline: None,
        },
    );
    assert_eq!(quiet.get("ok"), Some(&Json::Bool(true)), "{quiet}");
    assert_eq!(quiet.get("path").and_then(Json::as_str), Some("quiescent"));
    assert_eq!(quiet.get("delay_ns"), created.get("delay_ns"));

    // One pin move reroutes through the same-pattern refactor path.
    let mutated = submit_session(
        &service,
        SessionAction::Mutate {
            session: handle,
            ops: vec![ntr_core::DeltaOp::MovePin {
                pin: 2,
                to: Point::new(pins[2].x + 40.0, pins[2].y - 25.0),
            }],
        },
    );
    assert_eq!(mutated.get("ok"), Some(&Json::Bool(true)), "{mutated}");
    assert_eq!(mutated.get("applied").and_then(Json::as_f64), Some(1.0));
    assert_eq!(mutated.get("pending").and_then(Json::as_f64), Some(1.0));
    let rerouted = submit_session(
        &service,
        SessionAction::Reroute {
            session: handle,
            deadline: None,
        },
    );
    assert_eq!(rerouted.get("ok"), Some(&Json::Bool(true)), "{rerouted}");
    assert_eq!(
        rerouted.get("path").and_then(Json::as_str),
        Some("refactor"),
        "{rerouted}"
    );

    // Adding a pin grows the matrix pattern: scratch.
    let added = submit_session(
        &service,
        SessionAction::Mutate {
            session: handle,
            ops: vec![ntr_core::DeltaOp::AddPin(Point::new(4321.0, 1234.0))],
        },
    );
    assert_eq!(added.get("ok"), Some(&Json::Bool(true)), "{added}");
    let scratched = submit_session(
        &service,
        SessionAction::Reroute {
            session: handle,
            deadline: None,
        },
    );
    assert_eq!(
        scratched.get("path").and_then(Json::as_str),
        Some("scratch"),
        "{scratched}"
    );
    assert_eq!(scratched.get("pins").and_then(Json::as_f64), Some(10.0));

    let closed = submit_session(&service, SessionAction::Close { session: handle });
    assert_eq!(closed.get("ok"), Some(&Json::Bool(true)), "{closed}");
    assert_eq!(closed.get("mutations").and_then(Json::as_f64), Some(2.0));
    assert_eq!(closed.get("reroutes").and_then(Json::as_f64), Some(3.0));
    assert_eq!(closed.get("quiescent").and_then(Json::as_f64), Some(1.0));
    assert_eq!(closed.get("refactor").and_then(Json::as_f64), Some(1.0));
    assert_eq!(closed.get("scratch").and_then(Json::as_f64), Some(1.0));
    assert_eq!(service.session_count(), 0);

    assert_eq!(session_stat(&service, "created"), 1.0);
    assert_eq!(session_stat(&service, "closed"), 1.0);
    assert_eq!(session_stat(&service, "mutations"), 2.0);
    assert_eq!(session_stat(&service, "reroutes_quiescent"), 1.0);
    assert_eq!(session_stat(&service, "reroutes_refactor"), 1.0);
    assert_eq!(session_stat(&service, "reroutes_scratch"), 1.0);
    assert_eq!(session_stat(&service, "errors"), 0.0);
    service.shutdown();
}

#[test]
fn unknown_session_is_a_structured_error_not_a_crash() {
    let service = Service::start(&ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    for action in [
        SessionAction::Mutate {
            session: 999,
            ops: vec![ntr_core::DeltaOp::AddPin(Point::new(1.0, 1.0))],
        },
        SessionAction::Reroute {
            session: 999,
            deadline: None,
        },
        SessionAction::Close { session: 999 },
    ] {
        let response = submit_session(&service, action);
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{response}");
        assert_eq!(
            response.get("error").and_then(Json::as_str),
            Some("session"),
            "{response}"
        );
    }
    assert_eq!(session_stat(&service, "errors"), 3.0);
    service.shutdown();
}

#[test]
fn rejected_delta_stops_the_batch_but_keeps_earlier_ops() {
    let service = Service::start(&ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let created = submit_session(&service, SessionAction::Create(request(random_pins(3, 7))));
    let handle = handle_of(&created);
    // Second op is invalid (source removal); the first stays applied.
    let response = submit_session(
        &service,
        SessionAction::Mutate {
            session: handle,
            ops: vec![
                ntr_core::DeltaOp::AddPin(Point::new(777.0, 777.0)),
                ntr_core::DeltaOp::RemovePin { pin: 0 },
                ntr_core::DeltaOp::AddPin(Point::new(888.0, 888.0)),
            ],
        },
    );
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{response}");
    assert_eq!(
        response.get("error").and_then(Json::as_str),
        Some("session")
    );
    assert_eq!(response.get("applied").and_then(Json::as_f64), Some(1.0));
    assert_eq!(response.get("pending").and_then(Json::as_f64), Some(1.0));
    assert_eq!(session_stat(&service, "mutations"), 1.0);
    assert_eq!(session_stat(&service, "errors"), 1.0);
    // The session survives its rejected batch: the applied delta routes.
    let rerouted = submit_session(
        &service,
        SessionAction::Reroute {
            session: handle,
            deadline: None,
        },
    );
    assert_eq!(rerouted.get("ok"), Some(&Json::Bool(true)), "{rerouted}");
    assert_eq!(rerouted.get("pins").and_then(Json::as_f64), Some(8.0));
    service.shutdown();
}

#[test]
fn session_responses_bypass_the_result_cache() {
    let service = Service::start(&ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let pins = random_pins(21, 8);
    let created = submit_session(&service, SessionAction::Create(request(pins.clone())));
    let handle = handle_of(&created);
    let moved = Point::new(pins[3].x + 30.0, pins[3].y + 30.0);
    submit_session(
        &service,
        SessionAction::Mutate {
            session: handle,
            ops: vec![ntr_core::DeltaOp::MovePin { pin: 3, to: moved }],
        },
    );
    submit_session(
        &service,
        SessionAction::Reroute {
            session: handle,
            deadline: None,
        },
    );
    assert_eq!(
        service.cache_len(),
        0,
        "session responses must never enter the LRU"
    );
    submit_session(&service, SessionAction::Close { session: handle });

    // After close, the identical full-net request is a miss (nothing
    // was cached by the session) and then a hit (route caches normally).
    let mut full = pins;
    full[3] = moved;
    let first = route(&service, request(full.clone()));
    assert_eq!(first.get("cached"), Some(&Json::Bool(false)), "{first}");
    let second = route(&service, request(full));
    assert_eq!(second.get("cached"), Some(&Json::Bool(true)), "{second}");
    assert_eq!(service.cache_len(), 1);
    let stats = service.stats_json();
    assert_eq!(stats.get("cache_misses").and_then(Json::as_f64), Some(1.0));
    assert_eq!(stats.get("cache_hits").and_then(Json::as_f64), Some(1.0));
    service.shutdown();
}

#[test]
fn incremental_reroute_matches_the_stateless_route_of_the_same_net() {
    let service = Service::start(&ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    // One pin move served by the refactor path must agree with what a
    // stateless route of the mutated net reports, to float tolerance.
    let pins = random_pins(31, 9);
    let created = submit_session(&service, SessionAction::Create(request(pins.clone())));
    let handle = handle_of(&created);
    let moved = Point::new(pins[4].x - 35.0, pins[4].y + 15.0);
    submit_session(
        &service,
        SessionAction::Mutate {
            session: handle,
            ops: vec![ntr_core::DeltaOp::MovePin { pin: 4, to: moved }],
        },
    );
    let incremental = submit_session(
        &service,
        SessionAction::Reroute {
            session: handle,
            deadline: None,
        },
    );
    assert_eq!(
        incremental.get("ok"),
        Some(&Json::Bool(true)),
        "{incremental}"
    );
    submit_session(&service, SessionAction::Close { session: handle });
    let mut full = pins;
    full[4] = moved;
    let mut req = request(full);
    req.use_cache = false;
    let stateless = route(&service, req);
    let inc = incremental.get("delay_ns").and_then(Json::as_f64).unwrap();
    let scratch = stateless.get("delay_ns").and_then(Json::as_f64).unwrap();
    // The refactor path reuses the previous topology (it does not
    // re-run the LDRG search), so delays agree only when the search
    // would not have changed the topology; both must at least be
    // finite, positive, and within the same ballpark.
    assert!(inc.is_finite() && inc > 0.0, "{incremental}");
    assert!(scratch.is_finite() && scratch > 0.0, "{stateless}");
    assert!(
        inc <= scratch * 1.5 + 1e-9,
        "incremental delay {inc} wildly off stateless {scratch}"
    );
    service.shutdown();
}

#[test]
fn table_capacity_answers_the_session_error() {
    let service = Service::start(&ServiceConfig {
        workers: 1,
        session_capacity: 2,
        ..ServiceConfig::default()
    });
    let a = submit_session(&service, SessionAction::Create(request(random_pins(1, 6))));
    let b = submit_session(&service, SessionAction::Create(request(random_pins(2, 6))));
    assert_eq!(a.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(b.get("ok"), Some(&Json::Bool(true)));
    let full = submit_session(&service, SessionAction::Create(request(random_pins(3, 6))));
    assert_eq!(full.get("ok"), Some(&Json::Bool(false)), "{full}");
    assert_eq!(full.get("error").and_then(Json::as_str), Some("session"));
    assert_eq!(service.session_count(), 2);
    // Closing one frees a slot.
    submit_session(
        &service,
        SessionAction::Close {
            session: handle_of(&a),
        },
    );
    let again = submit_session(&service, SessionAction::Create(request(random_pins(3, 6))));
    assert_eq!(again.get("ok"), Some(&Json::Bool(true)), "{again}");
    service.shutdown();
}

#[test]
fn idle_sessions_are_evicted_by_ttl() {
    let service = Service::start(&ServiceConfig {
        workers: 1,
        session_ttl: Duration::from_millis(30),
        obs_tick: Duration::from_millis(10),
        ..ServiceConfig::default()
    });
    let created = submit_session(&service, SessionAction::Create(request(random_pins(5, 6))));
    let handle = handle_of(&created);
    assert_eq!(service.session_count(), 1);
    // Wait out the TTL plus a few ticker beats.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while service.session_count() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        service.session_count(),
        0,
        "ticker should evict idle session"
    );
    assert_eq!(session_stat(&service, "evicted"), 1.0);
    let late = submit_session(
        &service,
        SessionAction::Reroute {
            session: handle,
            deadline: None,
        },
    );
    assert_eq!(late.get("error").and_then(Json::as_str), Some("session"));
    service.shutdown();
}
