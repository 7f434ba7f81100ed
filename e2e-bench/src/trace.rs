//! The traced run's view from the server's own recorders: the wide-event
//! journal, polled once a second and joined to the client's replies by
//! trace id, and `{"op":"stats"}` counter deltas. Nothing here adds
//! instrumentation to the server; it only reads what it already records.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ntr_server::json::Json;

use crate::server::{call, call_on};

/// Journal poll interval.
pub const POLL_EVERY: Duration = Duration::from_secs(1);

/// The server-side timings of one request, from its wide event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerTiming {
    /// Waiting in the bounded queue, µs.
    pub queue_us: u64,
    /// Inside the routing engine, µs.
    pub route_us: u64,
    /// Submission to response, µs.
    pub total_us: u64,
}

/// Polls `{"op":"journal"}` on its own connection until finished.
pub struct JournalPoller {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<std::io::Result<HashMap<u64, ServerTiming>>>,
}

impl JournalPoller {
    /// Starts polling the server at `addr`.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn start(addr: SocketAddr) -> std::io::Result<Self> {
        let mut stream = crate::client::connect(addr)?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut events = HashMap::new();
            loop {
                let last = flag.load(Ordering::Acquire);
                let reply = call_on(&mut stream, r#"{"op":"journal"}"#)?;
                collect_events(&reply, &mut events);
                if last {
                    return Ok(events);
                }
                let next = Instant::now() + POLL_EVERY;
                while Instant::now() < next && !flag.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        });
        Ok(Self { stop, handle })
    }

    /// Takes a last snapshot and returns every wide event seen, by trace
    /// id.
    ///
    /// # Errors
    ///
    /// Returns the poller's I/O error.
    pub fn finish(self) -> std::io::Result<HashMap<u64, ServerTiming>> {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("journal poller panicked")
    }
}

/// The unsigned integer right after `key` at or past `from`, and the
/// position after it.
fn number_after(text: &str, key: &str, from: usize) -> Option<(u64, usize)> {
    let start = from + text.get(from..)?.find(key)? + key.len();
    let digits = text[start..]
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(text.len() - start);
    Some((text[start..start + digits].parse().ok()?, start + digits))
}

/// Collects the `request_events` of a journal reply by scanning for the
/// four fields needed. The dump runs to megabytes, and `Json::parse`
/// re-validates the rest of its input at every string character, which
/// makes it quadratic in the document's length (90 s for a 3 MB dump).
fn collect_events(reply: &str, into: &mut HashMap<u64, ServerTiming>) {
    let Some(begin) = reply.find(r#""request_events":["#) else {
        return;
    };
    let end = reply[begin..]
        .find(r#""iteration_events":"#)
        .map_or(reply.len(), |e| begin + e);
    let events = &reply[..end];
    let mut at = begin;
    while let Some((trace, next)) = number_after(events, r#""trace":"#, at) {
        let field = |key| number_after(events, key, next).map(|(v, _)| v);
        let (Some(queue_us), Some(route_us), Some((total_us, after))) = (
            field(r#""queue_us":"#),
            field(r#""route_us":"#),
            number_after(events, r#""total_us":"#, next),
        ) else {
            break;
        };
        into.insert(
            trace,
            ServerTiming {
                queue_us,
                route_us,
                total_us,
            },
        );
        at = after;
    }
}

/// A `{"op":"stats"}` snapshot.
#[derive(Debug, Clone)]
pub struct Stats(Json);

impl Stats {
    /// Reads the server's counters.
    ///
    /// # Errors
    ///
    /// Returns I/O and parse errors.
    pub fn read(addr: SocketAddr) -> std::io::Result<Stats> {
        let reply = call(addr, r#"{"op":"stats"}"#)?;
        Json::parse(&reply)
            .map(Stats)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// A counter by path (`"cache_hits"`, `"sessions.reroutes_scratch"`).
    #[must_use]
    pub fn get(&self, path: &str) -> f64 {
        path.split('.')
            .try_fold(&self.0, |j, k| j.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    /// `later - self` for one counter.
    #[must_use]
    pub fn delta(&self, later: &Stats, path: &str) -> f64 {
        later.get(path) - self.get(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntr_obs::journal::WideEvent;

    #[test]
    fn journal_scan_reads_every_request_event() {
        let event = |trace, queue_us, route_us, total_us| {
            WideEvent {
                trace,
                queue_us,
                route_us,
                total_us,
                algorithm: "ldrg",
                ..WideEvent::default()
            }
            .to_json()
        };
        let reply = Json::obj(vec![
            ("ok", Json::Bool(true)),
            (
                "request_events",
                Json::Arr(vec![event(7, 1, 20, 25), event(9, 0, 0, 3)]),
            ),
            ("iteration_events", Json::Arr(vec![])),
        ])
        .to_line();
        let mut events = HashMap::new();
        collect_events(&reply, &mut events);
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[&7],
            ServerTiming {
                queue_us: 1,
                route_us: 20,
                total_us: 25
            }
        );
        assert_eq!(events[&9].total_us, 3);
    }
}
