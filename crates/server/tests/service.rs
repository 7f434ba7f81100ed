//! Service-level behavior: caching, deadlines, backpressure, drain.

pub mod common;

use std::sync::mpsc;
use std::time::Duration;

use common::random_pins;
use ntr_geom::Point;
use ntr_server::json::Json;
use ntr_server::proto::{Algorithm, OracleKind, RouteRequest};
use ntr_server::service::{Service, ServiceConfig};

fn request(pins: Vec<Point>, algorithm: Algorithm, oracle: OracleKind) -> RouteRequest {
    RouteRequest {
        id: None,
        algorithm,
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

fn route(service: &Service, req: RouteRequest) -> Json {
    let (tx, rx) = mpsc::channel();
    service.submit(req, Box::new(move |r| tx.send(r).unwrap()));
    rx.recv_timeout(Duration::from_secs(120)).unwrap()
}

#[test]
fn cached_result_equals_freshly_routed_across_seeds() {
    let service = Service::start(&ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    });
    for seed in 1..=8u64 {
        let pins = random_pins(seed, 9);
        let fresh = route(
            &service,
            request(pins.clone(), Algorithm::Ldrg, OracleKind::Moment),
        );
        assert_eq!(
            fresh.get("ok"),
            Some(&Json::Bool(true)),
            "seed {seed}: {fresh}"
        );
        assert_eq!(fresh.get("cached"), Some(&Json::Bool(false)));

        // Same net with the sink order permuted must hit the cache and
        // report the identical routing.
        let mut permuted = pins.clone();
        permuted[1..].reverse();
        let cached = route(
            &service,
            request(permuted, Algorithm::Ldrg, OracleKind::Moment),
        );
        assert_eq!(cached.get("cached"), Some(&Json::Bool(true)), "seed {seed}");
        for field in [
            "delay_ns",
            "initial_delay_ns",
            "cost_um",
            "edges",
            "added_edges",
        ] {
            assert_eq!(
                cached.get(field),
                fresh.get(field),
                "seed {seed}: cached {field} differs from fresh"
            );
        }
    }
    let stats = service.stats_json();
    assert_eq!(stats.get("cache_hits").and_then(Json::as_f64), Some(8.0));
    assert_eq!(stats.get("cache_misses").and_then(Json::as_f64), Some(8.0));
    service.shutdown();
}

#[test]
fn cache_opt_out_always_routes() {
    let service = Service::start(&ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let pins = random_pins(42, 6);
    let mut req = request(pins, Algorithm::Ldrg, OracleKind::Moment);
    req.use_cache = false;
    let first = route(&service, req.clone());
    let second = route(&service, req);
    assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
    assert_eq!(second.get("cached"), Some(&Json::Bool(false)));
    let stats = service.stats_json();
    assert_eq!(stats.get("cache_hits").and_then(Json::as_f64), Some(0.0));
    service.shutdown();
}

#[test]
fn one_ms_deadline_on_a_large_net_reports_deadline() {
    let service = Service::start(&ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    // A 28-pin net under the transient oracle takes far longer than 1 ms
    // to sweep; with degradation off the deadline must cut it off, not
    // block the queue. (With degrade on — the default — the same request
    // would answer at a lower fidelity; see tests/chaos.rs.)
    let mut req = request(random_pins(7, 28), Algorithm::Ldrg, OracleKind::Transient);
    req.deadline = Some(Duration::from_millis(1));
    req.degrade = false;
    let response = route(&service, req);
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{response}");
    assert_eq!(
        response.get("error").and_then(Json::as_str),
        Some("deadline"),
        "{response}"
    );
    let stats = service.stats_json();
    assert_eq!(
        stats.get("deadline_expired").and_then(Json::as_f64),
        Some(1.0)
    );
    service.shutdown();
}

#[test]
fn full_queue_answers_overloaded() {
    let service = Service::start(&ServiceConfig {
        workers: 1,
        queue_depth: 1,
        cache_capacity: 0,
        ..ServiceConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    // Slow transient-oracle requests through a 1-deep queue with 1
    // worker: at least one of a burst must be rejected with backpressure.
    for seed in 0..6u64 {
        let tx = tx.clone();
        service.submit(
            request(
                random_pins(seed + 100, 16),
                Algorithm::Ldrg,
                OracleKind::TransientFast,
            ),
            Box::new(move |r| tx.send(r).unwrap()),
        );
    }
    drop(tx);
    let responses: Vec<Json> = rx.iter().collect();
    assert_eq!(responses.len(), 6, "every submit answers exactly once");
    let overloaded = responses
        .iter()
        .filter(|r| r.get("error").and_then(Json::as_str) == Some("overloaded"))
        .count();
    let ok = responses
        .iter()
        .filter(|r| r.get("ok") == Some(&Json::Bool(true)))
        .count();
    assert!(overloaded >= 1, "burst should trip backpressure");
    assert!(ok >= 1, "accepted work still completes");
    assert_eq!(
        service
            .stats_json()
            .get("overloaded")
            .and_then(Json::as_f64),
        Some(overloaded as f64)
    );
    service.shutdown();
}

#[test]
fn concurrent_duplicates_coalesce_onto_one_route() {
    let service = Service::start(&ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    // Submit the same (slow) net three times back-to-back: the first is
    // routed, the two duplicates attach to it rather than routing again.
    let pins = random_pins(77, 16);
    let (tx, rx) = mpsc::channel();
    for _ in 0..3 {
        let tx = tx.clone();
        service.submit(
            request(pins.clone(), Algorithm::Ldrg, OracleKind::TransientFast),
            Box::new(move |r| tx.send(r).unwrap()),
        );
    }
    drop(tx);
    let responses: Vec<Json> = rx.iter().collect();
    assert_eq!(responses.len(), 3);
    assert!(responses
        .iter()
        .all(|r| r.get("ok") == Some(&Json::Bool(true))));
    let routed = responses
        .iter()
        .filter(|r| r.get("cached") == Some(&Json::Bool(false)))
        .count();
    assert_eq!(routed, 1, "exactly one response carries a fresh route");
    let stats = service.stats_json();
    assert_eq!(stats.get("coalesced").and_then(Json::as_f64), Some(2.0));
    assert_eq!(stats.get("completed").and_then(Json::as_f64), Some(3.0));
    // All three report the identical routing.
    for field in ["delay_ns", "cost_um", "edges"] {
        assert!(
            responses
                .windows(2)
                .all(|w| w[0].get(field) == w[1].get(field)),
            "{field} differs between coalesced responses"
        );
    }
    service.shutdown();
}

#[test]
fn shutdown_drains_accepted_work() {
    let service = Service::start(&ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    for seed in 0..4u64 {
        let tx = tx.clone();
        service.submit(
            request(
                random_pins(seed + 200, 8),
                Algorithm::H1,
                OracleKind::Moment,
            ),
            Box::new(move |r| tx.send(r).unwrap()),
        );
    }
    drop(tx);
    service.shutdown(); // must block until all four are answered
    let responses: Vec<Json> = rx.try_iter().collect();
    assert_eq!(responses.len(), 4);
    assert!(responses
        .iter()
        .all(|r| r.get("ok") == Some(&Json::Bool(true))));
}

#[test]
fn degenerate_net_is_a_route_error_not_a_crash() {
    let service = Service::start(&ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    // All pins coincide: dedupe leaves one pin, which cannot be routed.
    let p = Point::new(5.0, 5.0);
    let response = route(
        &service,
        request(vec![p, p, p], Algorithm::Ldrg, OracleKind::Moment),
    );
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(response.get("error").and_then(Json::as_str), Some("route"));
    service.shutdown();
}
