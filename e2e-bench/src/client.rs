//! Load generation over TCP: every sender here records, per request,
//! when it was due, when it was sent and when the final `\n` of its reply
//! arrived.
//!
//! Open-loop senders send on a precomputed schedule whatever the server
//! does, and latency counts from the scheduled time, so a server stall
//! shows up in the latency of every request that fell due during it
//! (no coordinated omission). A closed-loop client sends its next request
//! when the previous reply arrives; its due time is that moment.
//!
//! The generator's own lateness (`sent - ready`) is recorded separately
//! from the time a request waited for a free client connection
//! (`ready - due`), so a slow generator cannot pass for a slow server.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ntr_server::json::Json;

/// How long a reply may take before the request counts as missing.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Read-poll interval of the reply readers.
const POLL: Duration = Duration::from_millis(50);

/// One request and what became of it.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Index of the step (load level) the request belongs to.
    pub step: usize,
    /// Which client sent it (the session editor, for session traffic).
    pub lane: usize,
    /// When the request was due: its scheduled time (open loop) or the
    /// arrival of the client's previous reply (closed loop).
    pub due: Instant,
    /// When the generator was free to act on it: `due`, or later when
    /// every client connection was busy.
    pub ready: Instant,
    /// When the generator started sending (connecting, for
    /// connection-per-request traffic).
    pub sent: Instant,
    /// When the reply's final `\n` arrived.
    pub done: Option<Instant>,
    /// The request line, without its newline.
    pub request: String,
    /// The reply line, without its newline.
    pub reply: Option<String>,
}

impl Exchange {
    fn new(step: usize, due: Instant, ready: Instant, sent: Instant, request: String) -> Self {
        Self {
            step,
            lane: 0,
            due,
            ready,
            sent,
            done: None,
            request,
            reply: None,
        }
    }

    /// Due time to last reply byte.
    #[must_use]
    pub fn latency(&self) -> Option<Duration> {
        self.done.map(|d| d.saturating_duration_since(self.due))
    }

    /// Send start to last reply byte.
    #[must_use]
    pub fn round_trip(&self) -> Option<Duration> {
        self.done.map(|d| d.saturating_duration_since(self.sent))
    }

    /// How late the generator was once it was free to send.
    #[must_use]
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_duration_since(self.ready)
    }

    /// Time spent waiting for a free client connection.
    #[must_use]
    pub fn slot_wait(&self) -> Duration {
        self.ready.saturating_duration_since(self.due)
    }

    /// The parsed reply, when it arrived and is JSON.
    #[must_use]
    pub fn reply_json(&self) -> Option<Json> {
        self.reply.as_deref().and_then(|r| Json::parse(r).ok())
    }

    /// Whether a reply arrived and says `"ok":true`.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.reply_json()
            .is_some_and(|r| r.get("ok") == Some(&Json::Bool(true)))
    }
}

/// Connects to the server with Nagle off, so the generator never holds
/// back its own requests.
///
/// # Errors
///
/// Returns the connect error.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Writes one request line in a single write.
fn send_line(stream: &mut TcpStream, line: &str) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    stream.write_all(&bytes)
}

/// Reads reply lines, stamping each on arrival of its `\n`.
pub struct LineReader {
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl LineReader {
    /// Wraps a clone of `stream`.
    ///
    /// # Errors
    ///
    /// Returns the clone or socket-option error.
    pub fn new(stream: &TcpStream) -> std::io::Result<Self> {
        let read_half = stream.try_clone()?;
        read_half.set_read_timeout(Some(POLL))?;
        Ok(Self {
            reader: BufReader::new(read_half),
            buf: Vec::new(),
        })
    }

    /// The next complete line and its arrival time, or `None` once
    /// `deadline` passes or the peer closes.
    pub fn next_line(&mut self, deadline: Instant) -> Option<(Instant, String)> {
        loop {
            match self.poll_line() {
                Ok(line) => return Some(line),
                Err(ReadEnd::Closed) => return None,
                Err(ReadEnd::Idle) if Instant::now() >= deadline => return None,
                Err(ReadEnd::Idle) => {}
            }
        }
    }

    /// The next complete line, or why none arrived within one poll
    /// interval. A partial line stays buffered for the next call.
    fn poll_line(&mut self) -> Result<(Instant, String), ReadEnd> {
        loop {
            match self.reader.read_until(b'\n', &mut self.buf) {
                Ok(_) if self.buf.ends_with(b"\n") => {
                    let at = Instant::now();
                    self.buf.pop();
                    let line = String::from_utf8_lossy(&self.buf).into_owned();
                    self.buf.clear();
                    return Ok((at, line));
                }
                // EOF, possibly in the middle of a line.
                Ok(_) => return Err(ReadEnd::Closed),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Err(ReadEnd::Idle)
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Err(ReadEnd::Closed),
            }
        }
    }
}

/// Why [`LineReader::poll_line`] returned without a line.
enum ReadEnd {
    /// Nothing complete arrived within one poll interval.
    Idle,
    /// The peer closed the connection or the socket failed.
    Closed,
}

/// The numeric `id` of a reply line.
fn reply_id(line: &str) -> Option<u64> {
    let id = Json::parse(line).ok()?.get("id")?.as_f64()?;
    (id >= 0.0 && id == id.trunc()).then_some(id as u64)
}

/// Sleeps until `at`.
fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Open loop on one persistent connection: request `i` (whose line
/// carries `"id": first_id + i`) is sent at `start + offsets[i]` by a
/// sender thread while this thread collects replies.
///
/// # Errors
///
/// Returns socket setup errors; send and receive failures become missing
/// replies.
pub fn open_loop(
    stream: &TcpStream,
    step: usize,
    start: Instant,
    offsets: &[Duration],
    lines: Vec<String>,
    first_id: u64,
) -> std::io::Result<Vec<Exchange>> {
    assert_eq!(offsets.len(), lines.len(), "one offset per request");
    let mut reader = LineReader::new(stream)?;
    let mut writer = stream.try_clone()?;
    let n = lines.len();
    let deadline = start + offsets.last().copied().unwrap_or_default() + REPLY_TIMEOUT;
    let mut arrived: Vec<Option<(Instant, String)>> = vec![None; n];
    let sends = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut sends = Vec::with_capacity(n);
            for (offset, line) in offsets.iter().zip(&lines) {
                let due = start + *offset;
                sleep_until(due);
                let sent = Instant::now();
                // A failed write leaves the request without a reply.
                let _ = send_line(&mut writer, line);
                sends.push((due, sent));
            }
            sends
        });
        let mut received = 0;
        while received < n {
            let Some((at, line)) = reader.next_line(deadline) else {
                break;
            };
            let slot = reply_id(&line)
                .and_then(|id| id.checked_sub(first_id))
                .and_then(|i| arrived.get_mut(usize::try_from(i).ok()?));
            if let Some(slot @ None) = slot {
                *slot = Some((at, line));
                received += 1;
            }
        }
        sender.join().expect("open-loop sender panicked")
    });
    Ok(sends
        .into_iter()
        .zip(lines)
        .zip(arrived)
        .map(|(((due, sent), line), reply)| {
            let mut x = Exchange::new(step, due, due, sent, line);
            if let Some((at, reply)) = reply {
                x.done = Some(at);
                x.reply = Some(reply);
            }
            x
        })
        .collect())
}

/// Open loop with a new connection per request and at most `slots`
/// connections open at once: each slot thread takes the next request in
/// schedule order, waits for its due time, connects, sends, reads the
/// reply and closes.
#[must_use]
pub fn open_loop_per_request(
    addr: SocketAddr,
    step: usize,
    start: Instant,
    offsets: &[Duration],
    lines: &[String],
    slots: usize,
) -> Vec<Exchange> {
    assert_eq!(offsets.len(), lines.len(), "one offset per request");
    let next = AtomicUsize::new(0);
    let mut all: Vec<(usize, Exchange)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..slots)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= lines.len() {
                            break;
                        }
                        let due = start + offsets[i];
                        let free = Instant::now();
                        sleep_until(due);
                        let ready = due.max(free);
                        let sent = Instant::now();
                        let mut x = Exchange::new(step, due, ready, sent, lines[i].clone());
                        if let Some((at, reply)) = one_shot(addr, &lines[i]) {
                            x.done = Some(at);
                            x.reply = Some(reply);
                        }
                        mine.push((i, x));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("per-request slot panicked"))
            .collect()
    });
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, x)| x).collect()
}

/// Connect, send one line, read one line, close.
fn one_shot(addr: SocketAddr, line: &str) -> Option<(Instant, String)> {
    let mut stream = connect(addr).ok()?;
    let mut reader = LineReader::new(&stream).ok()?;
    send_line(&mut stream, line).ok()?;
    reader.next_line(Instant::now() + REPLY_TIMEOUT)
}

/// One synchronous request on a persistent connection (the session
/// editors' pattern: each request depends on the previous reply).
pub fn request(
    stream: &mut TcpStream,
    reader: &mut LineReader,
    step: usize,
    lane: usize,
    due: Instant,
    line: String,
) -> Exchange {
    let sent = Instant::now();
    let mut x = Exchange::new(step, due, due, sent, line);
    x.lane = lane;
    if send_line(stream, &x.request).is_ok() {
        if let Some((at, reply)) = reader.next_line(sent + REPLY_TIMEOUT) {
            x.done = Some(at);
            x.reply = Some(reply);
        }
    }
    x
}
