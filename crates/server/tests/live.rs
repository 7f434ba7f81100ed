//! Live-server gates: each test spawns the real `ntr-serve --stdio`
//! binary and checks one serving contract end to end. The server
//! degrades instead of failing under injected faults, sessions answer
//! through the decision ladder, SLO alerts fire and clear, and every
//! HTTP surface passes the library's own strict checker.
//!
//! ```text
//! cargo test --release -p ntr-server --test live
//! ```
//!
//! Only one server runs at a time (see [`Serve`]): the chaos gate
//! bounds client p99 latency, and a sibling server competing for the
//! same cores would upset that bound.

pub mod common;

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use common::{http_ok, random_pins, sample};
use ntr_geom::Point;
use ntr_obs::journal::check_journal_lines;
use ntr_obs::prometheus::check_exposition;
use ntr_obs::{profile, slo, tsdb};
use ntr_server::json::Json;

/// How long any one reply may take before the test fails.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// The gates' server: two workers behind a 64-slot queue.
const GATE_ARGS: [&str; 4] = ["--workers", "2", "--queue", "64"];

/// In-flight cap of [`pipeline`], below the 64-slot queue, so a healthy
/// run never sees `overloaded`.
const WINDOW: usize = 32;

/// Every transient-fidelity oracle call fails and workers randomly stall
/// for 2 ms; seeded, so runs repeat.
const CHAOS_PLAN: &str = "seed=1994;fail=transient:1.0;stall=0.05:2";

/// Held by each live [`Serve`], so servers never run side by side. It
/// guards no data, so a lock poisoned by a failed test is taken as is.
static ONE_SERVER: Mutex<()> = Mutex::new(());

/// A spawned `ntr-serve --stdio` child, spoken to in JSON lines.
struct Serve {
    child: Child,
    stdin: Option<ChildStdin>,
    replies: mpsc::Receiver<(Instant, String)>,
    /// Replies received but not yet claimed by [`Serve::recv`], in
    /// arrival order.
    unclaimed: Vec<(Instant, Json)>,
    /// The bound address from the `serving GET /metrics on ADDR` log line.
    metrics_addr: mpsc::Receiver<SocketAddr>,
    /// The `id` of the last [`Serve::call`].
    last_id: u64,
    /// The stdout and stderr readers; they end when the server exits.
    readers: Vec<JoinHandle<()>>,
    _one_server: MutexGuard<'static, ()>,
}

impl Serve {
    /// Spawns `ntr-serve --stdio ARGS` with `env`. A fault plan or SLO
    /// list in the test's own environment is never inherited. The
    /// server's log lines are forwarded to the test's captured stderr.
    fn spawn(args: &[&str], env: &[(&str, &str)]) -> Serve {
        let one_server = ONE_SERVER.lock().unwrap_or_else(PoisonError::into_inner);
        let mut child = Command::new(env!("CARGO_BIN_EXE_ntr-serve"))
            .arg("--stdio")
            .args(args)
            .env_remove("NTR_FAULTS")
            .env_remove("NTR_SLOS")
            .envs(env.iter().copied())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("ntr-serve spawns");
        let stdout = child.stdout.take().expect("stdout is piped");
        let (reply_tx, replies) = mpsc::channel();
        let stdout_reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if reply_tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        let stderr = child.stderr.take().expect("stderr is piped");
        let (addr_tx, metrics_addr) = mpsc::channel();
        let stderr_reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(addr) = line.split("serving GET /metrics on ").nth(1) {
                    if let Ok(addr) = addr.trim().parse() {
                        let _ = addr_tx.send(addr);
                    }
                }
                eprintln!("ntr-serve: {line}");
            }
        });
        Serve {
            stdin: child.stdin.take(),
            child,
            replies,
            unclaimed: Vec::new(),
            metrics_addr,
            last_id: 0,
            readers: vec![stdout_reader, stderr_reader],
            _one_server: one_server,
        }
    }

    fn send(&mut self, line: &str) {
        let stdin = self.stdin.as_mut().expect("stdin is open");
        writeln!(stdin, "{line}").expect("ntr-serve reads its stdin");
    }

    /// The first reply `want` accepts, with the time it arrived. Replies
    /// passed over stay unclaimed for later calls.
    fn recv(&mut self, what: &str, want: impl Fn(&Json) -> bool) -> (Json, Instant) {
        if let Some(i) = self.unclaimed.iter().position(|(_, doc)| want(doc)) {
            let (at, doc) = self.unclaimed.remove(i);
            return (doc, at);
        }
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let (at, line) = self
                .replies
                .recv_timeout(left)
                .unwrap_or_else(|e| panic!("no reply to {what}: {e}"));
            let doc = Json::parse(&line).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"));
            if want(&doc) {
                return (doc, at);
            }
            self.unclaimed.push((at, doc));
        }
    }

    fn await_id(&mut self, id: u64) -> Json {
        self.recv(&format!("id {id}"), |d| {
            d.get("id").and_then(Json::as_f64) == Some(id as f64)
        })
        .0
    }

    fn await_op(&mut self, op: &str) -> Json {
        self.recv(op, |d| d.get("op").and_then(Json::as_str) == Some(op))
            .0
    }

    /// Sends one line and returns the next reply, for one-at-a-time
    /// exchanges.
    fn ask(&mut self, line: &str) -> Json {
        self.send(line);
        self.recv(line, |_| true).0
    }

    /// Sends `{"op":OP}` and returns its reply.
    fn op(&mut self, op: &str) -> Json {
        self.send(&format!(r#"{{"op":"{op}"}}"#));
        self.await_op(op)
    }

    /// Sends `{"id":N,FIELDS}` under the next id and returns its reply.
    fn call(&mut self, fields: &str) -> Json {
        self.last_id += 1;
        let id = self.last_id;
        self.send(&format!(r#"{{"id":{id},{fields}}}"#));
        self.await_id(id)
    }

    /// Closes stdin, so the server drains and exits, and asserts a clean
    /// exit. Replies already written stay readable.
    fn wait(&mut self) {
        drop(self.stdin.take());
        let status = self.child.wait().expect("wait for ntr-serve");
        assert!(status.success(), "ntr-serve exited with {status}");
        for reader in self.readers.drain(..) {
            reader.join().expect("a pipe reader panicked");
        }
    }

    /// Asks the server to shut down and asserts a clean exit.
    fn shutdown(mut self) {
        self.op("shutdown");
        self.wait();
    }

    fn metrics_addr(&self) -> SocketAddr {
        self.metrics_addr
            .recv_timeout(REPLY_TIMEOUT)
            .expect("`serving GET /metrics on ADDR` logged at NTR_LOG=info")
    }
}

impl Drop for Serve {
    /// A failed test must not leave its server running.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn pins_json(pins: &[Point]) -> String {
    Json::Arr(
        pins.iter()
            .map(|p| Json::Arr(vec![Json::Num(p.x), Json::Num(p.y)]))
            .collect(),
    )
    .to_line()
}

fn is_true(doc: &Json, field: &str) -> bool {
    doc.get(field) == Some(&Json::Bool(true))
}

fn num(doc: &Json, field: &str) -> Option<f64> {
    doc.get(field).and_then(Json::as_f64)
}

fn text<'a>(doc: &'a Json, field: &str) -> Option<&'a str> {
    doc.get(field).and_then(Json::as_str)
}

fn events<'a>(journal: &'a Json, field: &str) -> &'a [Json] {
    journal
        .get(field)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("journal reply without {field:?}"))
}

fn exposition(serve: &mut Serve) -> String {
    let metrics = serve.op("metrics");
    let body = text(&metrics, "body").expect("a metrics body").to_owned();
    check_exposition(&body).unwrap();
    body
}

/// Sends `lines`, route requests with ids `0..n`, keeping at most
/// [`WINDOW`] in flight. Returns the one reply to each, in arrival
/// order, with its latency from the write of its request.
fn pipeline(serve: &mut Serve, lines: &[String]) -> Vec<(Json, Duration)> {
    let mut sent = HashMap::new();
    let mut replies = Vec::with_capacity(lines.len());
    let next = |serve: &mut Serve, sent: &mut HashMap<u64, Instant>| {
        let (doc, at) = serve.recv("a route", |d| num(d, "id").is_some());
        let id = num(&doc, "id").unwrap() as u64;
        let sent_at = sent.remove(&id).expect("one reply per request");
        (doc, at.saturating_duration_since(sent_at))
    };
    for (i, line) in lines.iter().enumerate() {
        if i >= WINDOW {
            replies.push(next(serve, &mut sent));
        }
        sent.insert(i as u64, Instant::now());
        serve.send(line);
    }
    while !sent.is_empty() {
        replies.push(next(serve, &mut sent));
    }
    replies
}

/// The smoke gate: 50 LDRG/H1 routes over 6-pin nets, 30% of them
/// repeats of an earlier net. All answer ok, the repeats hit the cache,
/// and the `{"op":"metrics"}` body is a valid exposition that counted
/// all 50.
#[test]
fn smoke_routes_answer_ok_hit_the_cache_and_count_in_the_exposition() {
    let mut nets: Vec<(String, &str)> = Vec::new();
    let lines: Vec<String> = (0..50u64)
        .map(|i| {
            let (pins, algorithm) = if i % 10 >= 7 {
                nets[i as usize % nets.len()].clone()
            } else {
                let algorithm = if nets.len().is_multiple_of(2) {
                    "ldrg"
                } else {
                    "h1"
                };
                nets.push((pins_json(&random_pins(1994 + i, 6)), algorithm));
                nets[nets.len() - 1].clone()
            };
            format!(
                r#"{{"op":"route","id":{i},"algorithm":"{algorithm}","oracle":"moment","pins":{pins}}}"#
            )
        })
        .collect();
    let mut serve = Serve::spawn(&GATE_ARGS, &[]);
    let replies = pipeline(&mut serve, &lines);
    for (reply, _) in &replies {
        assert!(is_true(reply, "ok"), "error reply: {reply}");
    }
    assert!(
        replies.iter().any(|(r, _)| is_true(r, "cached")),
        "no cache hits on a 30%-repeat workload"
    );
    let body = exposition(&mut serve);
    assert_eq!(sample(&body, "ntr_requests_received_total"), 50);
    serve.shutdown();
}

/// The chaos gate: under [`CHAOS_PLAN`], 40 `transient-fast` routes,
/// alternately with a 50 ms deadline (the ladder descends before the
/// oracle runs) and with none (the faults fire and the retries are
/// spent). Every one answers ok below transient fidelity, within a
/// bounded p99, and each degraded reply is kept as a journal exemplar.
#[test]
fn chaos_degrades_every_route_below_transient_and_journals_each_one() {
    let lines: Vec<String> = (0..40u64)
        .map(|i| {
            let budget = if i.is_multiple_of(2) {
                r#"{"deadline_ms":50,"retries":2,"degrade":true}"#
            } else {
                r#"{"retries":2,"degrade":true}"#
            };
            format!(
                r#"{{"op":"route","id":{i},"algorithm":"ldrg","params":{{"oracle":"transient-fast","cache":false}},"budget":{budget},"pins":{}}}"#,
                pins_json(&random_pins(1994 + i, 6))
            )
        })
        .collect();
    let mut serve = Serve::spawn(&GATE_ARGS, &[("NTR_FAULTS", CHAOS_PLAN)]);
    let replies = pipeline(&mut serve, &lines);
    let mut served: HashMap<&str, usize> = HashMap::new();
    for (reply, _) in &replies {
        assert!(is_true(reply, "ok"), "hard failure: {reply}");
        let fidelity =
            text(reply, "fidelity").unwrap_or_else(|| panic!("reply without a fidelity: {reply}"));
        *served.entry(fidelity).or_default() += 1;
    }
    assert!(
        !served.contains_key("transient") && !served.contains_key("transient-fast"),
        "served at transient fidelity under a 100% fault plan: {served:?}"
    );
    assert!(
        served.contains_key("moment"),
        "nothing at the moment rung: {served:?}"
    );

    let mut latencies: Vec<Duration> = replies.iter().map(|(_, l)| *l).collect();
    latencies.sort_unstable();
    let p99 = latencies[(latencies.len() * 99).div_ceil(100) - 1];
    assert!(
        p99 <= Duration::from_millis(500),
        "client p99 {p99:?} > 500 ms"
    );

    let body = exposition(&mut serve);
    for metric in [
        "ntr_requests_degraded_total",
        "ntr_retries_total",
        "ntr_faults_injected_total",
    ] {
        assert!(sample(&body, metric) > 0, "{metric} is 0");
    }

    // The flagged-exemplar store (256) is larger than the run, so no
    // degraded reply may be missing from it.
    let journal = serve.op("journal");
    let exemplars: HashSet<u64> = events(&journal, "exemplar_events")
        .iter()
        .filter_map(|e| num(e, "trace"))
        .map(|t| t as u64)
        .collect();
    let degraded: Vec<u64> = replies
        .iter()
        .filter(|(r, _)| is_true(r, "degraded"))
        .map(|(r, _)| num(r, "trace").expect("a trace id") as u64)
        .collect();
    assert!(!degraded.is_empty(), "no degraded replies");
    let missing: Vec<_> = degraded.iter().filter(|t| !exemplars.contains(t)).collect();
    assert!(
        missing.is_empty(),
        "degraded traces without an exemplar: {missing:?}"
    );
    serve.shutdown();
}

/// Rounds of `per_round` routes with `params`, each followed by
/// `{"op":"alerts"}`, until the `chaos-gate` alert satisfies `done`;
/// fails after 30 s.
fn drive_alert(
    serve: &mut Serve,
    per_round: usize,
    params: &str,
    done: impl Fn(&Json) -> bool,
) -> Json {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        for _ in 0..per_round {
            let pins = pins_json(&random_pins(1994 + serve.last_id, 6));
            serve.call(&format!(
                r#""op":"route","algorithm":"ldrg",{params},"pins":{pins}"#
            ));
        }
        let alerts = serve.op("alerts");
        let alert = alerts
            .get("alerts")
            .and_then(Json::as_arr)
            .and_then(|a| a.iter().find(|a| text(a, "name") == Some("chaos-gate")))
            .unwrap_or_else(|| panic!("chaos-gate missing from {alerts}"))
            .clone();
        if done(&alert) {
            return alert;
        }
        assert!(Instant::now() < deadline, "gave up after 30 s at {alert}");
        std::thread::sleep(Duration::from_millis(250));
    }
}

/// The SLO alert cycle, on a 99% availability objective with 2 s fast
/// and 8 s slow burn windows. Under [`CHAOS_PLAN`], routes that may
/// neither retry nor degrade fail hard and the alert fires; once the
/// plan is retired, healthy traffic clears it. The failures are one
/// contiguous burst, so the alert fires exactly once and clears exactly
/// once.
#[test]
fn availability_alert_fires_under_faults_and_clears_after_them() {
    let mut serve = Serve::spawn(
        &GATE_ARGS,
        &[
            ("NTR_FAULTS", CHAOS_PLAN),
            ("NTR_SLOS", "chaos-gate=availability:99:60s:2s:8s"),
        ],
    );
    drive_alert(
        &mut serve,
        4,
        r#""params":{"oracle":"transient-fast","cache":false},"budget":{"retries":0,"degrade":false}"#,
        |a| is_true(a, "firing"),
    );
    serve.send(r#"{"op":"faults","plan":""}"#);
    serve.await_op("faults");
    let alert = drive_alert(
        &mut serve,
        2,
        r#""params":{"oracle":"moment","cache":false}"#,
        |a| a.get("firing") == Some(&Json::Bool(false)) && num(a, "cleared_total") == Some(1.0),
    );
    assert_eq!(num(&alert, "fired_total"), Some(1.0), "{alert}");
    assert_eq!(num(&alert, "cleared_total"), Some(1.0), "{alert}");
    serve.shutdown();
}

/// The session gate: 6 create, 4 × (move_pin, reroute), close cycles on
/// 8-pin nets. Single-pin moves keep the topology, so the refactor rung
/// answers most reroutes. An unknown handle gets the structured
/// `session` error. The counters balance in stats and in the
/// exposition, and the journal holds every session op.
#[test]
fn sessions_reroute_through_the_refactor_rung_and_balance_their_counters() {
    const CYCLES: usize = 6;
    const REROUTES: usize = 4;
    const SIZE: usize = 8;
    let mut serve = Serve::spawn(&GATE_ARGS, &[]);
    let mut refactors = 0u64;
    for cycle in 0..CYCLES {
        let mut pins = random_pins(1994 + cycle as u64, SIZE);
        let created = serve.call(&format!(
            r#""op":"session.create","algorithm":"ldrg","params":{{"oracle":"moment"}},"pins":{}"#,
            pins_json(&pins)
        ));
        assert!(is_true(&created, "ok"), "{created}");
        let handle = num(&created, "session").expect("a session handle") as u64;
        for r in 0..REROUTES {
            // Bounce a sink back and forth so the pins stay near the
            // layout; pin 0, the source, never moves.
            let pin = 1 + (cycle + r) % (SIZE - 1);
            pins[pin].x += if (cycle + r).is_multiple_of(2) {
                35.0
            } else {
                -35.0
            };
            let (x, y) = (pins[pin].x, pins[pin].y);
            let mutated = serve.call(&format!(
                r#""op":"session.mutate","session":{handle},"ops":[{{"op":"move_pin","pin":{pin},"to":[{x},{y}]}}]"#
            ));
            assert!(is_true(&mutated, "ok"), "{mutated}");
            assert_eq!(num(&mutated, "applied"), Some(1.0), "{mutated}");
            let rerouted = serve.call(&format!(r#""op":"session.reroute","session":{handle}"#));
            assert!(is_true(&rerouted, "ok"), "{rerouted}");
            if text(&rerouted, "path").expect("a ladder path") == "refactor" {
                refactors += 1;
            }
        }
        let closed = serve.call(&format!(r#""op":"session.close","session":{handle}"#));
        assert!(is_true(&closed, "ok"), "{closed}");
        assert_eq!(num(&closed, "mutations"), Some(REROUTES as f64), "{closed}");
        assert_eq!(num(&closed, "reroutes"), Some(REROUTES as f64), "{closed}");
    }
    let probe = serve.call(r#""op":"session.reroute","session":999983"#);
    assert_eq!(text(&probe, "error"), Some("session"), "{probe}");
    assert!(
        refactors * 2 >= (CYCLES * REROUTES) as u64,
        "only {refactors} of {} reroutes took the refactor rung",
        CYCLES * REROUTES
    );

    let stats = serve.op("stats");
    let sessions = stats.get("sessions").expect("a sessions object");
    for (key, want) in [
        ("active", 0),
        ("created", 6),
        ("closed", 6),
        ("errors", 1),
        ("mutations", 24),
    ] {
        assert_eq!(num(sessions, key), Some(f64::from(want)), "sessions.{key}");
    }
    let body = exposition(&mut serve);
    for (metric, want) in [
        ("ntr_sessions_active", 0),
        ("ntr_sessions_created_total", 6),
        ("ntr_session_errors_total", 1),
        ("ntr_session_reroutes_refactor_total", refactors),
    ] {
        assert_eq!(sample(&body, metric), want, "{metric}");
    }

    let journal = serve.op("journal");
    let session_events = events(&journal, "request_events")
        .iter()
        .filter(|e| text(e, "algorithm").is_some_and(|a| a.starts_with("session.")))
        .count();
    // 6 × (create, 4 × (mutate, reroute), close), and the probe.
    assert_eq!(session_events, 61);
    assert!(
        events(&journal, "exemplar_events")
            .iter()
            .any(|e| text(e, "outcome") == Some("session_error")),
        "the unknown-handle error left no flagged exemplar"
    );
    serve.shutdown();
}

/// The HTTP surface: every route of `--metrics-addr`, the stdio `query`
/// and `alerts` replies, and the journal dump written at drain, each
/// validated with the library's strict checker.
#[test]
fn http_surfaces_and_the_drain_dump_pass_the_library_checkers() {
    let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join("live-journal-dump.jsonl");
    let _ = std::fs::remove_file(&dump);
    let mut serve = Serve::spawn(
        &[
            "--metrics-addr",
            "127.0.0.1:0",
            "--journal-out",
            dump.to_str().expect("a UTF-8 path"),
        ],
        &[("NTR_LOG", "info")],
    );
    let addr = serve.metrics_addr();
    let routed = serve.call(r#""op":"route","pins":[[0,0],[2500,1500],[800,900]]"#);
    assert!(is_true(&routed, "ok"), "{routed}");

    // The obs ticker snapshots the registry once a second.
    let series = "/tsdb?metric=ntr_requests_completed_total&res=1";
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let body = http_ok(addr, series);
        match tsdb::check_query_json(&body) {
            Ok(points) if points >= 1 => break,
            _ => assert!(
                Instant::now() < deadline,
                "no TSDB point after 30 s: {body}"
            ),
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    let statusz = http_ok(addr, "/statusz").to_lowercase();
    for needle in ["sliding window", "slo burn-rate alerts", "<svg"] {
        assert!(statusz.contains(needle), "/statusz lacks {needle:?}");
    }
    check_journal(&http_ok(addr, "/journal"));
    check_exposition(&http_ok(addr, "/metrics")).unwrap();
    let listing = http_ok(addr, "/tsdb");
    assert!(tsdb::check_query_json(&listing).unwrap() >= 1, "{listing}");
    // Each default SLO records its outcomes into a series of its own.
    for series in [
        "ntr_slo_good_latency_99_50ms",
        "ntr_slo_good_availability_99_9",
    ] {
        assert!(
            listing.contains(&format!("\"{series}\"")),
            "{series}: {listing}"
        );
    }
    assert!(slo::check_alerts_json(&http_ok(addr, "/alertz")).unwrap() >= 1);
    profile::check_folded(&http_ok(addr, "/profilez")).unwrap();

    serve.send(r#"{"op":"query","metric":"ntr_requests_completed_total","res":1}"#);
    let query = serve.await_op("query");
    assert!(
        tsdb::check_query_json(&query.to_line()).unwrap() >= 1,
        "{query}"
    );
    let alerts = serve.op("alerts");
    assert!(
        slo::check_alerts_json(&alerts.to_line()).unwrap() >= 1,
        "{alerts}"
    );
    serve.shutdown();

    check_journal(&std::fs::read_to_string(&dump).expect("journal dumped at drain"));
}

/// Startup refuses SLOs that would share a gauge and a TSDB series, and
/// windows past the TSDB's retention, with a logged reason and exit 1.
#[test]
fn conflicting_or_overlong_slos_are_refused_at_startup() {
    let refused = |args: &[&str], slos: Option<&str>, reason: &str| {
        let mut command = Command::new(env!("CARGO_BIN_EXE_ntr-serve"));
        command
            .arg("--stdio")
            .args(args)
            .env_remove("NTR_FAULTS")
            .env_remove("NTR_SLOS")
            .stdin(Stdio::null());
        if let Some(slos) = slos {
            command.env("NTR_SLOS", slos);
        }
        let out = command.output().expect("ntr-serve runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} {slos:?}: {stderr}");
        assert!(stderr.contains(reason), "{args:?} {slos:?}: {stderr}");
    };
    let slug = "repeats the metric slug \"a_b\"";
    refused(
        &[
            "--slo",
            "a-b=availability:99:1h",
            "--slo",
            "a.b=latency:99:5ms:1h",
        ],
        None,
        slug,
    );
    refused(
        &[],
        Some("a-b=availability:99:1h;a.b=latency:99:5ms:1h"),
        slug,
    );
    refused(&["--slo", "availability:99:7h"], None, "TSDB retention");
}

/// A journal dump opens with its summary line and holds request events.
fn check_journal(lines: &str) {
    let first = lines.lines().next().expect("a nonempty journal");
    assert!(first.contains(r#""kind":"summary""#), "{first}");
    let counts = check_journal_lines(lines).unwrap();
    assert!(counts.requests >= 1, "no request events in {lines}");
}

#[test]
fn stdio_round_trip_with_cache_stats_and_shutdown() {
    let mut serve = Serve::spawn(&["--workers", "2"], &[]);

    // Route, then repeat the identical net: the second answer is cached.
    let route = r#"{"op":"route","id":1,"algorithm":"ldrg","net":{"source":[0,0],"sinks":[[3000,0],[0,4000],[5000,5000]]}}"#;
    let first = serve.ask(route);
    assert!(is_true(&first, "ok"), "{first}");
    assert_eq!(num(&first, "id"), Some(1.0));
    assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
    let second = serve.ask(&route.replace(r#""id":1"#, r#""id":2"#));
    assert!(is_true(&second, "cached"), "{second}");
    assert_eq!(num(&second, "id"), Some(2.0));
    assert_eq!(second.get("delay_ns"), first.get("delay_ns"));

    // Malformed JSON and a bad request both answer parse errors.
    let garbage = serve.ask("{nope");
    assert_eq!(text(&garbage, "error"), Some("parse"));
    let bad = serve.ask(r#"{"op":"route","id":9,"pins":[[0,0]]}"#);
    assert_eq!(text(&bad, "error"), Some("parse"));
    assert_eq!(num(&bad, "id"), Some(9.0));

    // Stats reflect the traffic.
    let stats = serve.op("stats");
    assert!(is_true(&stats, "ok"));
    assert_eq!(num(&stats, "received"), Some(2.0));
    assert_eq!(num(&stats, "completed"), Some(2.0));
    assert_eq!(num(&stats, "cache_hits"), Some(1.0));
    assert!(stats.get("per_algorithm").unwrap().get("ldrg").is_some());

    // Profile: enable tracing, route, then read the attribution.
    let armed = serve.ask(r#"{"op":"profile","enable":true}"#);
    assert!(is_true(&armed, "ok"), "{armed}");
    assert!(is_true(&armed, "tracing"));
    let traced = serve.ask(&route.replace(r#""id":1"#, r#""id":3,"cache":false"#));
    assert!(is_true(&traced, "ok"), "{traced}");
    let profile = serve.ask(r#"{"op":"profile","top":5,"enable":false}"#);
    assert_eq!(text(&profile, "op"), Some("profile"));
    assert!(num(&profile, "spans").unwrap() >= 1.0, "{profile}");
    let top = profile
        .get("top")
        .and_then(Json::as_arr)
        .expect("top array");
    assert!(!top.is_empty() && top.len() <= 5, "{profile}");
    assert!(
        top.iter()
            .any(|e| text(e, "name") == Some("server.request")),
        "server.request span missing from {profile}"
    );
    for e in top {
        assert!(num(e, "self_ns").is_some());
        assert!(num(e, "count").unwrap() >= 1.0);
    }

    serve.shutdown();
}

#[test]
fn eof_is_a_clean_shutdown() {
    let mut serve = Serve::spawn(&["--workers", "1"], &[]);
    serve.send(r#"{"op":"route","id":"last","algorithm":"h1","pins":[[0,0],[2500,1500]]}"#);
    // EOF with a request in flight: it must still be answered.
    serve.wait();
    let response = serve.recv("the in-flight route", |_| true).0;
    assert!(is_true(&response, "ok"), "{response}");
    assert_eq!(text(&response, "id"), Some("last"));
}
