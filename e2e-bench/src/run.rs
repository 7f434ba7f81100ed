//! One benchmark run: set-up timing, warm-up, the measured steps,
//! verification, and — when traced — the server-side join and the
//! in-process replay.

use std::path::Path;
use std::time::{Duration, Instant};

use ntr_circuit::Technology;
use ntr_server::json::Json;

use crate::client::Exchange;
use crate::metrics::{self, Metric, ServerView};
use crate::replay::replay;
use crate::server::Server;
use crate::trace::{JournalPoller, Stats};
use crate::verify::verify;
use crate::workload::Workload;

/// Server starts timed per run; the median is `setup_s`.
const SETUP_STARTS: usize = 5;

/// Threads re-deriving answers after the server has stopped.
const VERIFY_THREADS: usize = 2;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed of every input stream.
    pub seed: u64,
    /// Measured seconds (split evenly between the two steps).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every output was verified correct and nothing failed.
    pub correct: bool,
    /// Requests attempted in the measured steps.
    pub attempted: usize,
    /// Error replies + missing replies + verification failures + an
    /// unclean server stop.
    pub failed: usize,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// The verifier's disagreements, for the log.
    pub mismatches: Vec<String>,
}

/// What one server lifetime measured.
struct Pass {
    exchanges: Vec<Exchange>,
    setup: Duration,
    rss_mb: f64,
    clean_stop: bool,
    view: Option<ServerView>,
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Progress on stderr, stamped with the seconds since the run began.
fn note(cfg: &Config, started: Instant, what: &str) {
    eprintln!(
        "ntr-e2e: {} seed {}: {what} (+{:.1} s)",
        cfg.workload.name(),
        cfg.seed,
        started.elapsed().as_secs_f64()
    );
}

/// Which steps a server lifetime measures, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Both steps, untraced.
    Plain,
    /// Only the `high` step, untraced: the reference `trace_overhead`
    /// compares a traced run against.
    Reference,
    /// Both steps, with the journal polled and counters read.
    Traced,
}

/// One server lifetime: start, warm up, measure, stop.
fn pass(bin: &Path, cfg: &Config, mode: Mode, started: Instant) -> Result<Pass, String> {
    let traced = mode == Mode::Traced;
    let (server, setup) = Server::start(bin, &Workload::setup_request(cfg.seed))?;
    let addr = server.addr;
    note(cfg, started, &format!("{mode:?} pass: warm-up"));
    cfg.workload
        .warm_up(addr, cfg.seed)
        .map_err(io("warm-up"))?;
    note(cfg, started, "measuring");
    let probe = if traced {
        let before = Stats::read(addr).map_err(io("stats"))?;
        let cpu = server.cpu_time().unwrap_or_default();
        Some((
            before,
            cpu,
            JournalPoller::start(addr).map_err(io("journal"))?,
        ))
    } else {
        None
    };
    let step_secs = cfg.seconds / 2.0;
    let exchanges = if mode == Mode::Reference {
        cfg.workload.measure_high(addr, cfg.seed, step_secs)
    } else {
        cfg.workload.measure(addr, cfg.seed, step_secs)
    }
    .map_err(io("load"))?;
    let view = match probe {
        Some((before, cpu, poller)) => Some(ServerView {
            events: poller.finish().map_err(io("journal"))?,
            after: Stats::read(addr).map_err(io("stats"))?,
            before,
            cpu: server.cpu_time().unwrap_or_default().saturating_sub(cpu),
        }),
        None => None,
    };
    let rss_mb = server.peak_rss_mb().unwrap_or(0.0);
    note(cfg, started, "stopping the server");
    // Every load connection is closed by now, so shutdown can complete.
    let clean_stop = server.stop();
    Ok(Pass {
        exchanges,
        setup,
        rss_mb,
        clean_stop,
        view,
    })
}

/// The median start-up time over [`SETUP_STARTS`] starts, the last of
/// which is `last`.
fn median_setup(bin: &Path, cfg: &Config, last: Duration) -> Result<Duration, String> {
    let mut times = vec![last];
    for _ in 1..SETUP_STARTS {
        let (server, setup) = Server::start(bin, &Workload::setup_request(cfg.seed))?;
        if !server.stop() {
            return Err("a server did not stop within the grace period".to_owned());
        }
        times.push(setup);
    }
    times.sort();
    Ok(times[times.len() / 2])
}

/// The median latency of the last step measured, ms.
fn p50_last_step_ms(exchanges: &[Exchange]) -> f64 {
    let last = exchanges.iter().map(|x| x.step).max().unwrap_or(0);
    metrics::quantile(&metrics::step_latencies_ms(exchanges, last), 0.5)
}

/// Runs `cfg` against the `ntr-serve` binary at `bin`.
///
/// # Errors
///
/// Returns a description when the server cannot be run at all.
pub fn run(bin: &Path, cfg: &Config) -> Result<Outcome, String> {
    let tech = Technology::date94();
    let started = Instant::now();
    // The traced run first measures untraced, for the tracing overhead.
    let mut unclean_stops = 0;
    let reference = if cfg.traced {
        let untraced = pass(bin, cfg, Mode::Reference, started)?;
        unclean_stops += usize::from(!untraced.clean_stop);
        Some(p50_last_step_ms(&untraced.exchanges))
    } else {
        None
    };
    let mode = if cfg.traced {
        Mode::Traced
    } else {
        Mode::Plain
    };
    let measured = pass(bin, cfg, mode, started)?;
    let exchanges = &measured.exchanges;
    note(cfg, started, "verifying");
    let verdict = verify(
        exchanges,
        cfg.workload.verify_stride(),
        VERIFY_THREADS,
        tech,
    );
    let unanswered = exchanges.iter().filter(|x| !x.is_ok()).count();
    unclean_stops += usize::from(!measured.clean_stop);
    let failed = unanswered + verdict.mismatches.len() + unclean_stops;

    let metrics = match (reference, &measured.view) {
        (Some(untraced_p50), Some(view)) => {
            note(cfg, started, "replaying in-process");
            let replayed = replay(exchanges, cfg.workload.replay_limit(), tech)?;
            let overhead = p50_last_step_ms(exchanges) / untraced_p50;
            metrics::per_layer(exchanges, view, &replayed, overhead)
        }
        _ => {
            note(cfg, started, "timing server start-up");
            let setup = median_setup(bin, cfg, measured.setup)?;
            metrics::end_to_end(cfg.workload, exchanges, setup, measured.rss_mb)
        }
    };
    note(cfg, started, "done");
    Ok(Outcome {
        correct: failed == 0 && !exchanges.is_empty(),
        attempted: exchanges.len(),
        failed,
        metrics,
        mismatches: verdict.mismatches,
    })
}

impl Outcome {
    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::obj(vec![
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::str(m.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}
