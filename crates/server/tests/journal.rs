//! Flight-recorder acceptance: under a seeded fault plan, every
//! degraded / errored / fault-injected request appears in the journal
//! with a retained exemplar, and the three dump surfaces — the
//! `{"op":"journal"}` snapshot body, `GET /journal`, and the
//! post-mortem JSON-lines dump — agree on record counts.
//!
//! The journal is process-global, so this binary holds exactly one
//! test: parallel tests would interleave their events and make exact
//! count assertions meaningless.

pub mod common;

use std::sync::{mpsc, Arc};
use std::time::Duration;

use common::{http_ok, random_pins};
use ntr_core::FaultPlan;
use ntr_geom::Point;
use ntr_obs::journal::check_journal_lines;
use ntr_obs::Journal;
use ntr_server::http::spawn_metrics_server;
use ntr_server::json::Json;
use ntr_server::proto::{Algorithm, OracleKind, RouteRequest};
use ntr_server::service::{Service, ServiceConfig};

fn request(pins: Vec<Point>) -> RouteRequest {
    RouteRequest {
        id: None,
        algorithm: Algorithm::Ldrg,
        oracle: OracleKind::TransientFast,
        pins,
        deadline: None,
        max_added_edges: 0,
        use_cache: false,
        retries: 2,
        degrade: true,
        candidates: ntr_core::CandidateGen::Exhaustive,
    }
}

#[test]
fn flagged_requests_are_journaled_and_dump_surfaces_agree() {
    let service = Arc::new(Service::start(&ServiceConfig {
        workers: 2,
        faults: Some(Arc::new(
            FaultPlan::parse("seed=1994;fail=transient:1.0").unwrap(),
        )),
        ..ServiceConfig::default()
    }));
    const N: u64 = 8;
    let (tx, rx) = mpsc::channel();
    for seed in 0..N {
        let tx = tx.clone();
        service.submit(
            request(random_pins(seed, 8)),
            Box::new(move |r| tx.send(r).unwrap()),
        );
    }
    // A net of one pin cannot be routed: a guaranteed route_error.
    let (etx, erx) = mpsc::channel();
    service.submit(
        request(vec![Point { x: 1.0, y: 1.0 }]),
        Box::new(move |r| etx.send(r).unwrap()),
    );
    let responses: Vec<Json> = rx.iter().take(N as usize).collect();
    let errored = erx.recv_timeout(Duration::from_secs(60)).unwrap();
    assert_eq!(errored.get("ok"), Some(&Json::Bool(false)), "{errored}");

    // The fault plan fails every transient call, so all N routed
    // responses are degraded (and fault-injected): all flagged.
    let mut flagged: Vec<(u64, bool)> = Vec::new(); // (trace, worker path)
    for r in &responses {
        assert_eq!(r.get("ok"), Some(&Json::Bool(true)), "{r}");
        assert_eq!(r.get("degraded"), Some(&Json::Bool(true)), "{r}");
        let trace = r.get("trace").and_then(Json::as_f64).unwrap() as u64;
        flagged.push((trace, true));
    }
    let errored_trace = errored.get("trace").and_then(Json::as_f64).unwrap() as u64;
    flagged.push((errored_trace, false));

    // Responses are journaled before they are delivered, so the
    // snapshot taken now must already hold every one of them.
    let snapshot = Journal::global().snapshot();
    for &(trace, via_worker) in &flagged {
        let event = snapshot
            .requests
            .iter()
            .find(|e| e.trace == trace)
            .unwrap_or_else(|| panic!("trace {trace} missing from the request journal"));
        assert!(
            event.outcome != "ok" || event.degradation_steps > 0 || event.injected_faults > 0,
            "trace {trace} journaled but not flagged: {event:?}"
        );
        let exemplar = snapshot
            .exemplars
            .iter()
            .find(|x| x.event.trace == trace)
            .unwrap_or_else(|| panic!("trace {trace} has no retained exemplar"));
        assert!(
            ["error", "degraded", "injected"].contains(&exemplar.reason),
            "trace {trace} kept for the wrong reason: {}",
            exemplar.reason
        );
        if via_worker {
            // Worker-path exemplars carry the full span trace of the
            // request, rooted at the server.request span.
            assert!(
                exemplar.spans.iter().any(|s| s.name == "server.request"),
                "trace {trace} exemplar lost its span capture"
            );
            assert!(
                exemplar.spans.iter().all(|s| s.trace == trace),
                "trace {trace} exemplar holds foreign spans"
            );
        }
    }
    // The fault plan forces LDRG to run at the moment rung; its
    // per-iteration telemetry must have reached the journal too.
    assert!(
        !snapshot.iterations.is_empty(),
        "no LDRG iteration events journaled"
    );

    // Surface 1: the `{"op":"journal"}` body is the snapshot object.
    let body = snapshot.to_json();
    let count = |k: &str| body.get(k).and_then(Json::as_f64).unwrap() as usize;
    assert_eq!(count("requests"), snapshot.requests.len());

    // Surface 2: GET /journal serves the same records as JSON-lines
    // that pass the strict checker.
    let (addr, _http) = spawn_metrics_server("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let over_http = check_journal_lines(&http_ok(addr, "/journal")).unwrap();

    // Surface 3: the post-mortem dump is the same JSON-lines writer
    // `ntr-serve --journal-out` invokes at drain or panic.
    let dump_path =
        std::env::temp_dir().join(format!("ntr-journal-test-{}.jsonl", std::process::id()));
    std::fs::write(&dump_path, Journal::global().snapshot().to_json_lines()).unwrap();
    let dumped = check_journal_lines(&std::fs::read_to_string(&dump_path).unwrap()).unwrap();
    let _ = std::fs::remove_file(&dump_path);

    // All work finished before the first snapshot, so the three
    // surfaces saw the identical journal.
    for (label, counts) in [("GET /journal", over_http), ("post-mortem dump", dumped)] {
        assert_eq!(
            counts.requests,
            count("requests"),
            "{label} request count disagrees with the op body"
        );
        assert_eq!(counts.iterations, count("iterations"), "{label}");
        assert_eq!(counts.exemplars, count("exemplars"), "{label}");
    }
    service.shutdown();
}
