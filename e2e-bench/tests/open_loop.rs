//! The open-loop generator against a stub server that stalls once for
//! 200 ms: requests falling due during the stall are still sent on
//! schedule, and their latency counts from when they were due.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

use ntr_e2e::client::{self, Exchange};
use ntr_e2e::rng::{arrivals, Rng};

const STALL: Duration = Duration::from_millis(200);
const STALL_AT: u64 = 20;
const REQUESTS: usize = 100;

/// Replies `{"id":N,"ok":true}` to each line, sleeping [`STALL`] before
/// answering request [`STALL_AT`].
fn stub() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || {
        let (socket, _) = listener.accept().expect("accept");
        let mut writer = socket.try_clone().expect("clone");
        for line in BufReader::new(socket).lines() {
            let Ok(line) = line else { break };
            let id: u64 = line
                .trim_start_matches(r#"{"id":"#)
                .trim_end_matches('}')
                .parse()
                .expect("id");
            if id == STALL_AT {
                std::thread::sleep(STALL);
            }
            if writeln!(writer, r#"{{"id":{id},"ok":true}}"#).is_err() {
                break;
            }
        }
    });
    addr
}

fn schedule(seed: u64) -> Vec<Duration> {
    arrivals(&mut Rng::new(seed), REQUESTS, 0.5)
        .into_iter()
        .map(Duration::from_secs_f64)
        .collect()
}

fn run() -> Vec<Exchange> {
    let stream = client::connect(stub()).expect("connect");
    let offsets = schedule(11);
    let lines = (0..REQUESTS as u64)
        .map(|i| format!(r#"{{"id":{i}}}"#))
        .collect();
    client::open_loop(&stream, 0, Instant::now(), &offsets, lines, 0).expect("open loop")
}

#[test]
fn the_same_seed_gives_the_same_schedule() {
    assert_eq!(schedule(11), schedule(11));
    assert_ne!(schedule(11), schedule(12));
    assert!(schedule(11).windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn latency_during_a_stall_counts_from_the_scheduled_time() {
    let xs = run();
    assert_eq!(xs.len(), REQUESTS);
    assert!(
        xs.iter().all(|x| x.done.is_some()),
        "every request is answered"
    );
    let stalled = &xs[STALL_AT as usize];
    // Nothing after the stalled request can be answered before the stub
    // wakes up.
    let stall_end = stalled.sent + STALL;
    let mut due_during_stall = 0;
    for x in &xs[STALL_AT as usize..] {
        let done = x.done.expect("answered");
        assert!(done >= stall_end);
        assert_eq!(x.latency(), Some(done - x.due));
        if x.due < stall_end {
            due_during_stall += 1;
            // Measured from the schedule, the stall's wait is counted in
            // full, even for requests sent after it began.
            assert!(x.latency().expect("answered") >= stall_end - x.due);
            // The generator kept sending on schedule through the stall.
            assert!(
                x.sent < stall_end,
                "request due at {:?} was held back",
                x.due
            );
        }
    }
    assert!(
        due_during_stall > 10,
        "the stall covers part of the schedule"
    );
}

#[test]
fn generator_lateness_is_reported() {
    let xs = run();
    for x in &xs {
        assert!(x.sent >= x.due);
        assert_eq!(x.lateness(), x.sent - x.ready);
        assert_eq!(x.slot_wait(), Duration::ZERO);
    }
    let late: Vec<f64> = xs
        .iter()
        .map(|x| x.lateness().as_secs_f64() * 1e3)
        .collect();
    let p99 = ntr_e2e::metrics::quantile(&late, 0.99);
    assert!(
        p99.is_finite() && p99 < 50.0,
        "generator lateness p99 {p99} ms"
    );
}
