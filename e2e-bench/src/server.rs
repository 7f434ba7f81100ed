//! The program under test: building `ntr-serve` from the checkout,
//! spawning it on a free port, timing its start-up, reading its resource
//! use from `/proc`, and stopping it.
//!
//! `serve_tcp` only returns once every client connection has closed, so
//! [`Server::stop`] must be called after the caller dropped its own
//! sockets. A server that still has not exited 5 s after `shutdown` is
//! killed and the stop counts as a failure.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ntr_server::json::Json;

/// Worker threads of the server under test: fixed, so results do not
/// depend on the host's core count.
pub const WORKERS: usize = 2;

/// How long a stopping server may take before it is killed.
pub const STOP_GRACE: Duration = Duration::from_secs(5);

/// How long a starting server may take to accept a connection.
const START_TIMEOUT: Duration = Duration::from_secs(10);

/// Builds `ntr-serve` in release mode from the repository at `root` and
/// returns the binary's path.
///
/// # Errors
///
/// Returns a description when cargo fails or the binary is missing.
pub fn build(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "ntr-server",
            "--bin",
            "ntr-serve",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building ntr-serve failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || root.join("target"),
        |dir| {
            let dir = PathBuf::from(dir);
            if dir.is_absolute() {
                dir
            } else {
                root.join(dir)
            }
        },
    );
    let bin = target.join("release").join("ntr-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

/// A running `ntr-serve --listen`.
pub struct Server {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
}

/// Sends one line on a fresh connection and reads the reply line.
///
/// # Errors
///
/// Returns I/O errors and a closed connection as errors.
pub fn call(addr: SocketAddr, line: &str) -> std::io::Result<String> {
    let mut stream = crate::client::connect(addr)?;
    call_on(&mut stream, line)
}

/// Sends one line on `stream` and reads the reply line.
///
/// # Errors
///
/// Returns I/O errors and a closed connection as errors.
pub fn call_on(stream: &mut TcpStream, line: &str) -> std::io::Result<String> {
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut reply = String::new();
    if reader.read_line(&mut reply)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    Ok(reply.trim_end().to_owned())
}

/// A port nobody listens on right now.
fn free_port() -> std::io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

impl Server {
    /// Spawns the server and waits until `first` — a route request line —
    /// is answered `ok`. Returns the server and the set-up time: spawn to
    /// the last byte of that first reply.
    ///
    /// # Errors
    ///
    /// Returns a description when the server does not start or answers
    /// the first request with an error.
    pub fn start(bin: &Path, first: &str) -> Result<(Server, Duration), String> {
        let mut last_error = String::new();
        // A port picked free can be taken before the server binds it;
        // such a start fails fast and is retried on another port.
        for _ in 0..3 {
            let port = free_port().map_err(|e| format!("no free port: {e}"))?;
            let addr = SocketAddr::from(([127, 0, 0, 1], port));
            let started = Instant::now();
            let child = Command::new(bin)
                .args(["--listen", &addr.to_string()])
                .args(["--workers", &WORKERS.to_string()])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
            let mut server = Server { child, addr };
            match server.first_reply(first, started) {
                Ok(reply) if is_ok(&reply) => return Ok((server, started.elapsed())),
                Ok(reply) => {
                    server.kill();
                    return Err(format!("first request failed: {reply}"));
                }
                Err(e) => {
                    server.kill();
                    last_error = e;
                }
            }
        }
        Err(last_error)
    }

    fn first_reply(&mut self, first: &str, started: Instant) -> Result<String, String> {
        loop {
            match call(self.addr, first) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("server exited during start-up: {status}"));
                    }
                    if started.elapsed() > START_TIMEOUT {
                        return Err(format!("server did not answer: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
    }

    /// The server's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set size (`VmHWM`), MB.
    #[must_use]
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// CPU time (user + system) the server has used so far.
    #[must_use]
    pub fn cpu_time(&self) -> Option<Duration> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).ok()?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line, in USER_HZ (100 Hz) ticks.
        let rest = &stat[stat.rfind(')')? + 2..];
        let mut fields = rest.split_whitespace().skip(11);
        let utime: u64 = fields.next()?.parse().ok()?;
        let stime: u64 = fields.next()?.parse().ok()?;
        Some(Duration::from_millis((utime + stime) * 10))
    }

    /// Asks the server to shut down and waits for it to exit. Returns
    /// `false` when it had to be killed after [`STOP_GRACE`].
    #[must_use]
    pub fn stop(mut self) -> bool {
        // The reply is not needed: the exit is what counts.
        let _ = call(self.addr, r#"{"op":"shutdown"}"#);
        let deadline = Instant::now() + STOP_GRACE;
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
        false
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    /// A server abandoned by an error path is killed, never leaked; after
    /// a clean [`Server::stop`] this only reaps an exited process.
    fn drop(&mut self) {
        self.kill();
    }
}

/// Whether a reply line says `"ok":true`.
#[must_use]
pub fn is_ok(reply: &str) -> bool {
    Json::parse(reply).is_ok_and(|r| r.get("ok") == Some(&Json::Bool(true)))
}
