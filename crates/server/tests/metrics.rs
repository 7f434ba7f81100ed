//! Metrics and tracing integration: the in-process `GET /metrics` HTTP
//! responder (plus its `/statusz` and `/journal` siblings) and trace ids
//! in responses — each validated with the in-repo exposition / journal
//! checkers. The `{"op":"metrics"}` protocol op is checked against the
//! real binary by the smoke gate in `live.rs`.

pub mod common;

use std::sync::{mpsc, Arc};
use std::time::Duration;

use common::http_get;
use ntr_geom::Point;
use ntr_obs::prometheus::check_exposition;
use ntr_server::http::{spawn_metrics_server, METRICS_CONTENT_TYPE};
use ntr_server::proto::RouteRequest;
use ntr_server::service::{Service, ServiceConfig};
use ntr_server::Json;

fn route_once(service: &Service) -> Json {
    let (tx, rx) = mpsc::channel();
    service.submit(
        RouteRequest {
            id: Some(Json::Num(1.0)),
            algorithm: ntr_server::Algorithm::Ldrg,
            oracle: ntr_server::OracleKind::Moment,
            pins: vec![
                Point::new(0.0, 0.0),
                Point::new(3000.0, 0.0),
                Point::new(0.0, 4000.0),
            ],
            deadline: None,
            max_added_edges: 0,
            use_cache: true,
            retries: 2,
            degrade: true,
            candidates: ntr_core::CandidateGen::Exhaustive,
        },
        Box::new(move |response| tx.send(response).unwrap()),
    );
    rx.recv_timeout(Duration::from_secs(60))
        .expect("a response")
}

#[test]
fn http_metrics_scrape_is_valid_exposition() {
    let service = Arc::new(Service::start(&ServiceConfig {
        workers: 1,
        ..Default::default()
    }));
    let (addr, _handle) =
        spawn_metrics_server("127.0.0.1:0", Arc::clone(&service)).expect("bind port 0");

    let response = route_once(&service);
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
    let trace = response.get("trace").and_then(Json::as_f64).unwrap();
    assert!(trace >= 1.0, "trace id assigned at submission: {response}");

    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains(METRICS_CONTENT_TYPE), "{head}");
    check_exposition(&body).unwrap();
    assert!(body.contains("ntr_requests_received_total 1"), "{body}");
    assert!(body.contains("ntr_requests_completed_total 1"), "{body}");
    assert!(body.contains("# TYPE ntr_queue_depth gauge"), "{body}");
    assert!(
        body.contains("# TYPE ntr_inflight_requests gauge"),
        "{body}"
    );
    // Nothing is in flight after the response arrived.
    assert!(body.contains("ntr_inflight_requests 0"), "{body}");
    assert!(body.contains("ntr_request_latency_us_count 1"), "{body}");

    // Anything else 404s; only GET is allowed.
    let (head, _) = http_get(addr, "/");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    service.shutdown();
}

#[test]
fn statusz_and_journal_are_served_over_http() {
    let service = Arc::new(Service::start(&ServiceConfig {
        workers: 1,
        ..Default::default()
    }));
    let (addr, _handle) =
        spawn_metrics_server("127.0.0.1:0", Arc::clone(&service)).expect("bind port 0");
    let response = route_once(&service);
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");

    let (head, dashboard) = http_get(addr, "/statusz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("text/html"), "{head}");
    for needle in ["sliding window", "cache hit", "flight recorder"] {
        assert!(dashboard.contains(needle), "statusz missing {needle:?}");
    }

    let (head, journal) = http_get(addr, "/journal");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("application/x-ndjson"), "{head}");
    let counts = ntr_obs::journal::check_journal_lines(&journal).unwrap();
    // The journal is process-global and other tests in this binary
    // route too, so only a lower bound is exact here.
    assert!(counts.requests >= 1, "no request events in {journal}");

    service.shutdown();
}

#[test]
fn tsdb_alertz_and_profilez_are_served_over_http() {
    let service = Arc::new(Service::start(&ServiceConfig {
        workers: 1,
        obs_tick: Duration::from_millis(20),
        ..Default::default()
    }));
    let (addr, _handle) =
        spawn_metrics_server("127.0.0.1:0", Arc::clone(&service)).expect("bind port 0");
    let response = route_once(&service);
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
    // Give the obs ticker a couple of cycles to snapshot the registry.
    std::thread::sleep(Duration::from_millis(120));

    let (head, body) = http_get(addr, "/tsdb?metric=ntr_requests_completed_total&res=1");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("application/json"), "{head}");
    let points = ntr_obs::tsdb::check_query_json(&body).unwrap();
    assert!(points >= 1, "no points in {body}");

    // No metric: the series-listing form.
    let (head, listing) = http_get(addr, "/tsdb");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    ntr_obs::tsdb::check_query_json(&listing).unwrap();
    assert!(
        listing.contains("ntr_requests_completed_total"),
        "{listing}"
    );

    let (head, alerts) = http_get(addr, "/alertz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("application/json"), "{head}");
    let n = ntr_obs::slo::check_alerts_json(&alerts).unwrap();
    assert!(n >= 1, "default SLOs missing from {alerts}");

    let (head, folded) = http_get(addr, "/profilez");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    // The sampler may or may not be running under `cargo test`; the
    // body must be valid folded-stack text either way (possibly empty).
    ntr_obs::profile::check_folded(&folded).unwrap();

    service.shutdown();
}

#[test]
fn distinct_requests_get_distinct_trace_ids() {
    let service = Service::start(&ServiceConfig {
        workers: 1,
        ..Default::default()
    });
    let a = route_once(&service);
    let b = route_once(&service); // cache hit — still gets its own trace
    assert_eq!(b.get("cached"), Some(&Json::Bool(true)), "{b}");
    let ta = a.get("trace").and_then(Json::as_f64).unwrap();
    let tb = b.get("trace").and_then(Json::as_f64).unwrap();
    assert_ne!(ta, tb);
    service.shutdown();
}
