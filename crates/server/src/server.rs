//! Transports: JSON-lines over stdin/stdout or TCP.
//!
//! Both transports share one [`Service`]; responses are written
//! line-buffered under a mutex, so replies from different workers
//! interleave at line granularity and never corrupt each other.
//! Responses may arrive out of request order — clients correlate by
//! `id`.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::json::Json;
use crate::proto::{self, error_response, ErrorCode, Request};
use crate::service::Service;

/// A shared line-oriented response sink.
pub type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Writes one response line, flushing so clients see it immediately.
fn write_line(writer: &SharedWriter, response: &Json) {
    let mut w = writer.lock().expect("writer mutex poisoned");
    // A broken pipe means the client went away; nothing useful to do.
    let _ = writeln!(w, "{response}");
    let _ = w.flush();
}

/// A request that never even parsed still leaves a wide event behind —
/// a client speaking garbage is exactly the kind of thing a post-mortem
/// wants to see.
fn record_parse_error() {
    let event = ntr_obs::journal::WideEvent {
        outcome: "parse_error",
        ..ntr_obs::journal::WideEvent::default()
    };
    ntr_obs::Journal::global().record(event, Vec::new());
}

/// The body answering a `faults` op: the installed plan (or `null`) and
/// the monotone injected-fault total.
fn faults_response(service: &Service) -> Json {
    let plan = service
        .fault_plan()
        .map_or(Json::Null, |p| Json::str(p.source()));
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::str("faults")),
        ("plan", plan),
        ("injected", Json::Num(service.faults_injected() as f64)),
    ])
}

/// Handles one request line. Returns `true` when the line asked for
/// shutdown.
fn handle_line(service: &Arc<Service>, writer: &SharedWriter, line: &str) -> bool {
    let line = line.trim();
    if line.is_empty() {
        return false;
    }
    let doc = match Json::parse(line) {
        Ok(doc) => doc,
        Err(e) => {
            record_parse_error();
            write_line(
                writer,
                &error_response(None, ErrorCode::Parse, &e.to_string()),
            );
            return false;
        }
    };
    match proto::parse_request(&doc) {
        Err(reason) => {
            record_parse_error();
            write_line(
                writer,
                &error_response(doc.get("id"), ErrorCode::Parse, &reason),
            );
            false
        }
        Ok(Request::Stats) => {
            write_line(writer, &service.stats_json());
            false
        }
        Ok(Request::Metrics) => {
            write_line(
                writer,
                &Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("op", Json::str("metrics")),
                    ("content_type", Json::str(crate::http::METRICS_CONTENT_TYPE)),
                    ("body", Json::str(service.metrics_text())),
                ]),
            );
            false
        }
        Ok(Request::Profile {
            top,
            enable,
            source,
        }) => {
            let profile = match source {
                proto::ProfileSource::Spans => {
                    if let Some(on) = enable {
                        ntr_obs::span::set_enabled(on);
                    }
                    let spans = ntr_obs::span::take_spans();
                    ntr_obs::profile::build_profile(&spans)
                }
                proto::ProfileSource::Sampler => ntr_obs::sampler::profile(),
            };
            let entries = ntr_obs::profile::top_self(&profile, top)
                .into_iter()
                .map(|e| {
                    Json::obj(vec![
                        ("name", Json::str(e.name)),
                        ("self_ns", Json::Num(e.self_ns as f64)),
                        ("count", Json::Num(e.count as f64)),
                    ])
                })
                .collect();
            let source_name = match source {
                proto::ProfileSource::Spans => "spans",
                proto::ProfileSource::Sampler => "sampler",
            };
            write_line(
                writer,
                &Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("op", Json::str("profile")),
                    ("source", Json::str(source_name)),
                    ("tracing", Json::Bool(ntr_obs::span::enabled())),
                    ("sampling", Json::Bool(ntr_obs::sampler::is_running())),
                    ("spans", Json::Num(profile.spans as f64)),
                    ("total_ns", Json::Num(profile.total_ns() as f64)),
                    (
                        "dropped_total",
                        Json::Num(ntr_obs::span::dropped_spans() as f64),
                    ),
                    ("top", Json::Arr(entries)),
                ]),
            );
            false
        }
        Ok(Request::Query { metric, res_secs }) => {
            write_line(writer, &service.query_json(metric.as_deref(), res_secs));
            false
        }
        Ok(Request::Alerts) => {
            write_line(writer, &service.alerts_json());
            false
        }
        Ok(Request::Faults { plan }) => {
            let response = match plan {
                // No "plan" field: query the installed plan.
                None => faults_response(service),
                Some(text) if text.is_empty() => {
                    service.set_fault_plan(None);
                    faults_response(service)
                }
                Some(text) => match ntr_core::FaultPlan::parse(&text) {
                    Ok(plan) => {
                        service.set_fault_plan(Some(Arc::new(plan)));
                        faults_response(service)
                    }
                    Err(reason) => error_response(doc.get("id"), ErrorCode::Parse, &reason),
                },
            };
            write_line(writer, &response);
            false
        }
        Ok(Request::Journal) => {
            let mut body = ntr_obs::Journal::global().snapshot().to_json();
            body.set("ok", Json::Bool(true));
            body.set("op", Json::str("journal"));
            write_line(writer, &body);
            false
        }
        Ok(Request::Shutdown) => {
            write_line(
                writer,
                &Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("op", Json::str("shutdown")),
                ]),
            );
            true
        }
        Ok(Request::Route(request)) => {
            let writer = Arc::clone(writer);
            service.submit(
                request,
                Box::new(move |response| write_line(&writer, &response)),
            );
            false
        }
        Ok(Request::Session(request)) => {
            let writer = Arc::clone(writer);
            service.submit_session(
                request,
                Box::new(move |response| write_line(&writer, &response)),
            );
            false
        }
    }
}

/// Serves requests from `stdin`, one JSON object per line, answering on
/// `stdout`. Returns after EOF or a `shutdown` request, once all
/// accepted work has been answered.
pub fn serve_stdio(service: Arc<Service>) {
    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(std::io::stdout())));
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if handle_line(&service, &writer, &line) {
            break;
        }
    }
    service.shutdown();
}

/// Serves the same protocol over TCP, one connection per client, a
/// thread per connection. A `shutdown` request from any client stops
/// the whole server (drain semantics identical to stdio).
///
/// # Errors
///
/// Returns the bind error when the address is unavailable.
pub fn serve_tcp(addr: impl ToSocketAddrs, service: Arc<Service>) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut connections = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((socket, _peer)) => {
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                connections.push(std::thread::spawn(move || {
                    let Ok(write_half) = socket.try_clone() else {
                        return;
                    };
                    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(write_half)));
                    let reader = BufReader::new(socket);
                    for line in reader.lines() {
                        let Ok(line) = line else { break };
                        if handle_line(&service, &writer, &line) {
                            stop.store(true, Ordering::Release);
                            break;
                        }
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                    }
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => break,
        }
    }
    for handle in connections {
        let _ = handle.join();
    }
    service.shutdown();
    Ok(())
}
