//! The resilience contract, exercised in-process: under a fault plan
//! that fails every transient-fidelity oracle call, requests degrade to
//! the moment rung and still answer `ok` — never `deadline`, never a
//! hard `route` error.

pub mod common;

use std::sync::{mpsc, Arc};
use std::time::Duration;

use common::random_pins;
use ntr_core::FaultPlan;
use ntr_geom::Point;
use ntr_server::json::Json;
use ntr_server::proto::{Algorithm, OracleKind, RouteRequest};
use ntr_server::service::{Service, ServiceConfig};

fn request(pins: Vec<Point>, deadline: Option<Duration>) -> RouteRequest {
    RouteRequest {
        id: None,
        algorithm: Algorithm::Ldrg,
        oracle: OracleKind::TransientFast,
        pins,
        deadline,
        max_added_edges: 0,
        use_cache: false,
        retries: 2,
        degrade: true,
        candidates: ntr_core::CandidateGen::Exhaustive,
    }
}

fn chaos_service() -> Service {
    Service::start(&ServiceConfig {
        workers: 2,
        faults: Some(Arc::new(
            FaultPlan::parse("seed=1994;fail=transient:1.0").unwrap(),
        )),
        ..ServiceConfig::default()
    })
}

#[test]
fn certain_transient_faults_under_deadline_degrade_to_moment() {
    let service = chaos_service();
    let (tx, rx) = mpsc::channel();
    const N: u64 = 12;
    // A 5 s deadline admits the transient-fast attempt (estimated cost
    // ~150 ms), so the injected faults actually fire; the retry budget
    // is then spent before the ladder descends.
    for seed in 0..N {
        let tx = tx.clone();
        service.submit(
            request(random_pins(seed, 8), Some(Duration::from_secs(5))),
            Box::new(move |r| tx.send(r).unwrap()),
        );
    }
    drop(tx);
    let responses: Vec<Json> = rx.iter().collect();
    assert_eq!(responses.len() as u64, N, "every submit answers");
    for r in &responses {
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "hard failure: {r}");
        // The plan fails 100% of transient-rung calls, so after the
        // retry budget every request must land on the moment rung.
        assert_eq!(
            r.get("fidelity").and_then(Json::as_str),
            Some("moment"),
            "{r}"
        );
        assert_eq!(
            r.get("requested_fidelity").and_then(Json::as_str),
            Some("transient-fast")
        );
        assert_eq!(r.get("degraded"), Some(&Json::Bool(true)), "{r}");
        assert_eq!(
            r.get("retries").and_then(Json::as_f64),
            Some(2.0),
            "the retry budget should be spent before degrading: {r}"
        );
    }
    let stats = service.stats_json();
    let field = |k: &str| stats.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    assert_eq!(field("overloaded"), 0.0);
    assert_eq!(field("deadline_expired"), 0.0);
    assert_eq!(field("errors"), 0.0);
    assert_eq!(field("degraded"), N as f64);
    assert_eq!(field("retries"), (2 * N) as f64, "{stats}");
    // Initial attempt + 2 retries, all injected, per request.
    assert_eq!(field("faults_injected"), (3 * N) as f64, "{stats}");

    // Both new counters must be visible on the scrape surface.
    let exposition = service.metrics_text();
    ntr_obs::prometheus::check_exposition(&exposition).unwrap();
    assert!(exposition.contains("ntr_requests_degraded_total 12"));
    assert!(exposition.contains("ntr_retries_total 24"));
    assert!(exposition.contains("ntr_faults_injected_total 36"));
    service.shutdown();
}

#[test]
fn tight_deadlines_preempt_the_transient_rung_entirely() {
    let service = chaos_service();
    let (tx, rx) = mpsc::channel();
    service.submit(
        request(random_pins(21, 8), Some(Duration::from_millis(50))),
        Box::new(move |r| tx.send(r).unwrap()),
    );
    let r = rx.recv_timeout(Duration::from_secs(60)).unwrap();
    assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
    // 50 ms cannot cover the ~150 ms transient-fast estimate, so the
    // engine descends before the oracle (and its fault gate) ever runs:
    // degraded, but zero retries and zero injections.
    assert_eq!(
        r.get("fidelity").and_then(Json::as_str),
        Some("moment"),
        "{r}"
    );
    assert_eq!(r.get("degraded"), Some(&Json::Bool(true)));
    assert_eq!(r.get("retries").and_then(Json::as_f64), Some(0.0));
    assert_eq!(service.faults_injected(), 0);
    service.shutdown();
}

#[test]
fn degraded_results_are_not_cached() {
    let service = chaos_service();
    let pins = random_pins(7, 8);
    let route = |use_cache: bool| {
        let (tx, rx) = mpsc::channel();
        let mut req = request(pins.clone(), None);
        req.use_cache = use_cache;
        service.submit(req, Box::new(move |r| tx.send(r).unwrap()));
        rx.recv_timeout(Duration::from_secs(60)).unwrap()
    };
    let first = route(true);
    assert_eq!(first.get("degraded"), Some(&Json::Bool(true)), "{first}");
    // The identical cache-eligible request routes again: the degraded
    // body never entered the cache.
    let second = route(true);
    assert_eq!(second.get("cached"), Some(&Json::Bool(false)), "{second}");
    assert_eq!(
        service
            .stats_json()
            .get("cache_hits")
            .and_then(Json::as_f64),
        Some(0.0)
    );
    service.shutdown();
}

#[test]
fn fault_plan_swaps_restore_full_fidelity() {
    let service = chaos_service();
    let route = || {
        let (tx, rx) = mpsc::channel();
        service.submit(
            request(random_pins(3, 8), None),
            Box::new(move |r| tx.send(r).unwrap()),
        );
        rx.recv_timeout(Duration::from_secs(60)).unwrap()
    };
    let under_faults = route();
    assert_eq!(
        under_faults.get("fidelity").and_then(Json::as_str),
        Some("moment")
    );
    let injected_before = service.faults_injected();
    assert!(injected_before > 0);

    service.set_fault_plan(None);
    let healthy = route();
    assert_eq!(
        healthy.get("fidelity").and_then(Json::as_str),
        Some("transient-fast"),
        "{healthy}"
    );
    assert_eq!(healthy.get("degraded"), Some(&Json::Bool(false)));
    // The retired plan's injections stay in the monotone total.
    assert_eq!(service.faults_injected(), injected_before);
    service.shutdown();
}

#[test]
fn expired_deadline_with_degradation_serves_the_tree_floor() {
    // No faults here — the pressure is purely the deadline.
    let service = Service::start(&ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let (tx, rx) = mpsc::channel();
    let mut req = request(random_pins(11, 16), Some(Duration::from_millis(1)));
    req.oracle = OracleKind::Transient;
    service.submit(req, Box::new(move |r| tx.send(r).unwrap()));
    let response = rx.recv_timeout(Duration::from_secs(60)).unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
    let fidelity = response.get("fidelity").and_then(Json::as_str).unwrap();
    assert!(
        fidelity == "tree" || fidelity == "moment",
        "1 ms budget should force a low rung: {response}"
    );
    assert_eq!(response.get("degraded"), Some(&Json::Bool(true)));
    assert_eq!(
        service
            .stats_json()
            .get("deadline_expired")
            .and_then(Json::as_f64),
        Some(0.0),
        "degradation replaced the deadline error"
    );
    service.shutdown();
}
