//! The routing server.
//!
//! ```text
//! ntr-serve --stdio [--workers N] [--queue N] [--cache N]
//! ntr-serve --listen 127.0.0.1:7474 [--workers N] [--queue N] [--cache N]
//! ```
//!
//! Speaks the JSON-lines protocol of `ntr_server::proto`: one request
//! object per line, one response per line, correlated by `id`.

use std::process::ExitCode;
use std::sync::Arc;

use ntr_obs::{log_error, log_info};
use ntr_server::http::spawn_metrics_server;
use ntr_server::server::{serve_stdio, serve_tcp};
use ntr_server::service::{Service, ServiceConfig};

fn usage() -> ! {
    eprintln!(
        "usage: ntr-serve (--stdio | --listen ADDR:PORT)\n\
         \x20              [--workers N]          worker threads (default: one per core)\n\
         \x20              [--queue N]            pending-request capacity (default 64)\n\
         \x20              [--cache N]            result-cache entries (default 1024, 0 disables)\n\
         \x20              [--session-capacity N] live rerouting sessions admitted (default 64)\n\
         \x20              [--session-ttl SECS]   idle-session eviction deadline (default 300)\n\
         \x20              [--metrics-addr A:P]   serve GET /metrics, /statusz, /journal,\n\
         \x20                                     /tsdb, /alertz, /profilez here\n\
         \x20              [--journal-out FILE]   dump the flight recorder (JSON-lines) at\n\
         \x20                                     drain or panic (post-mortem)\n\
         \x20              [--sampler-hz N]       sampling-profiler rate (default 97, 0 off)\n\
         \x20              [--slo SPEC]           add an SLO (repeatable), e.g.\n\
         \x20                                     'latency:99:50ms:1h' or 'availability:99.9:1h'\n\
         \n\
         Logging is controlled by NTR_LOG (off|error|warn|info|debug|trace, default info).\n\
         NTR_SLOS is a ';'-separated SLO list used when no --slo flag is given\n\
         (set it empty to disable the built-in defaults).\n\
         NTR_FAULTS installs a fault-injection plan at startup, e.g.\n\
         NTR_FAULTS='seed=1994;fail=transient:0.5;slow=moment:0.1:5;stall=0.05:2'."
    );
    std::process::exit(2);
}

/// Writes the flight recorder to `path` as JSON-lines. Called on the
/// way out — normal drain or panic — so a crashed server still leaves
/// its last few thousand wide events behind.
fn dump_journal(path: &str) {
    let lines = ntr_obs::Journal::global().snapshot().to_json_lines();
    match std::fs::write(path, &lines) {
        Ok(()) => log_info!("flight recorder dumped to {path}"),
        Err(e) => log_error!("cannot dump flight recorder to {path}: {e}"),
    }
}

fn main() -> ExitCode {
    let mut stdio = false;
    let mut listen: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut journal_out: Option<String> = None;
    let mut sampler_hz = ntr_obs::sampler::DEFAULT_HZ;
    let mut slo_flags: Vec<String> = Vec::new();
    let mut config = ServiceConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stdio" => stdio = true,
            "--listen" => listen = args.next().or_else(|| usage()),
            "--metrics-addr" => metrics_addr = args.next().or_else(|| usage()),
            "--journal-out" => journal_out = args.next().or_else(|| usage()),
            "--sampler-hz" => match args.next().and_then(|v| v.parse().ok()) {
                Some(hz) => sampler_hz = hz,
                None => usage(),
            },
            "--slo" => slo_flags.push(args.next().unwrap_or_else(|| usage())),
            "--workers" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.workers = n,
                None => usage(),
            },
            "--queue" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.queue_depth = n,
                _ => usage(),
            },
            "--cache" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => config.cache_capacity = n,
                None => usage(),
            },
            "--session-capacity" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => config.session_capacity = n,
                _ => usage(),
            },
            "--session-ttl" => match args.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(secs) if secs >= 1 => {
                    config.session_ttl = std::time::Duration::from_secs(secs);
                }
                _ => usage(),
            },
            _ => usage(),
        }
    }

    // SLOs: --slo flags replace the defaults; otherwise NTR_SLOS does
    // (an empty NTR_SLOS disables SLOs entirely); otherwise the
    // built-in defaults stand. Two SLOs whose names slug alike are
    // refused on either path: they would share one gauge and one TSDB
    // series.
    if !slo_flags.is_empty() {
        config.slos.clear();
        for spec in &slo_flags {
            match ntr_obs::slo::SloSpec::parse(spec) {
                Ok(s) => config.slos.push(s),
                Err(reason) => {
                    log_error!("bad --slo {spec:?}: {reason}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Err(reason) = ntr_obs::slo::check_unique_slugs(&config.slos) {
            log_error!("bad --slo: {reason}");
            return ExitCode::FAILURE;
        }
    } else if let Ok(list) = std::env::var("NTR_SLOS") {
        match ntr_obs::slo::SloSpec::parse_list(&list) {
            Ok(specs) => config.slos = specs,
            Err(reason) => {
                log_error!("bad NTR_SLOS: {reason}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Ok(text) = std::env::var("NTR_FAULTS") {
        match ntr_core::FaultPlan::parse(&text) {
            Ok(plan) if plan.is_empty() => {}
            Ok(plan) => {
                log_info!("fault plan installed: {}", plan.source());
                config.faults = Some(Arc::new(plan));
            }
            Err(reason) => {
                log_error!("bad NTR_FAULTS: {reason}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Post-mortem: a panic anywhere in the process dumps the recorder
    // before the default hook prints the backtrace, so the journal
    // survives exactly the runs that need forensics.
    if let Some(path) = journal_out.clone() {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            dump_journal(&path);
            default_hook(info);
        }));
    }

    if sampler_hz > 0 && ntr_obs::sampler::start(sampler_hz) {
        log_info!("sampling profiler on at {sampler_hz} Hz");
    }

    let service = Arc::new(Service::start(&config));
    if let Some(addr) = metrics_addr {
        match spawn_metrics_server(addr.as_str(), Arc::clone(&service)) {
            Ok((local, _handle)) => log_info!("serving GET /metrics on {local}"),
            Err(e) => {
                log_error!("cannot serve metrics on {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let code = match (stdio, listen) {
        (true, None) => {
            serve_stdio(service);
            ExitCode::SUCCESS
        }
        (false, Some(addr)) => {
            log_info!("listening on {addr}");
            match serve_tcp(addr.as_str(), service) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    log_error!("cannot listen on {addr}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    };
    // Normal drain: every accepted request has been answered and
    // journaled by the time the transports return.
    if let Some(path) = journal_out {
        dump_journal(&path);
    }
    code
}
