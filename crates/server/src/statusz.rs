//! `GET /statusz`: a live, human-first dashboard for one glance at a
//! running server.
//!
//! `/metrics` is for scrapers and `{"op":"stats"}` is for programs; both
//! report *lifetime* aggregates, which go stale the moment traffic
//! changes — a morning load spike pollutes the p99 all day. `/statusz`
//! answers the operator's actual question ("how is the server doing
//! *right now*?") from two recency-bounded sources:
//!
//! - **Sliding latency percentiles** from the service's
//!   [`WindowedHistogram`](ntr_obs::metrics::WindowedHistogram) — the
//!   last [`STATUSZ_WINDOWS`](crate::stats::STATUSZ_WINDOWS) ×
//!   [`STATUSZ_WINDOW_LEN`](crate::stats::STATUSZ_WINDOW_LEN) (~1 min),
//!   with expired windows genuinely forgotten.
//! - **Recent request rates** (cache hits, degradations, errors) over
//!   the flight recorder's request ring — the last few thousand wide
//!   events, whatever wall-clock span they cover.
//!
//! Plus the degradation gate's live inputs (the per-fidelity EWMA cost
//! estimates the engine consults before descending the ladder), TSDB
//! sparklines, and the SLO alerts, whose burn rates and good/total
//! counts are sums over the TSDB's `ntr_slo_good_<slug>` series.
//!
//! The page is self-contained HTML with no scripts or external assets —
//! `curl`-able, and renderable in a browser pointed at the metrics port.

use ntr_core::Fidelity;
use ntr_obs::Journal;

use crate::service::Service;
use crate::stats::{build_git_hash, build_version};

/// Content type of the `/statusz` page.
pub const STATUSZ_CONTENT_TYPE: &str = "text/html; charset=utf-8";

fn fmt_rate(hits: usize, total: usize) -> String {
    if total == 0 {
        "n/a".to_owned()
    } else {
        format!(
            "{:.1}% ({hits}/{total})",
            100.0 * hits as f64 / total as f64
        )
    }
}

fn row(out: &mut String, label: &str, value: &str) {
    out.push_str("<tr><td>");
    out.push_str(label);
    out.push_str("</td><td>");
    out.push_str(value);
    out.push_str("</td></tr>\n");
}

fn section(out: &mut String, title: &str) {
    out.push_str("</table>\n<h2>");
    out.push_str(title);
    out.push_str("</h2>\n<table>\n");
}

/// Renders the dashboard for one service.
#[must_use]
pub fn render(service: &Service) -> String {
    let stats = service.stats();
    let sliding = stats.window_latency.sliding();
    let lifetime = &stats.latency;
    let snapshot = Journal::global().snapshot();
    let recent = &snapshot.requests;
    let n = recent.len();
    let cache_hits = recent.iter().filter(|e| e.cache_hit).count();
    let degraded = recent.iter().filter(|e| e.degradation_steps > 0).count();
    let errored = recent.iter().filter(|e| e.outcome != "ok").count();

    let mut out = String::with_capacity(4096);
    out.push_str(
        "<!DOCTYPE html>\n<html><head><title>ntr-serve statusz</title>\n\
         <style>body{font-family:monospace;margin:2em}table{border-collapse:collapse}\
         td{border:1px solid #999;padding:2px 10px}h2{margin-bottom:4px}</style>\n\
         </head><body>\n<h1>ntr-serve /statusz</h1>\n<table>\n",
    );
    row(&mut out, "version", build_version());
    row(&mut out, "git", build_git_hash());
    row(
        &mut out,
        "uptime",
        &format!("{:.1} s", stats.uptime_seconds()),
    );

    section(&mut out, "latency — sliding window (~1 min)");
    row(&mut out, "samples", &sliding.count().to_string());
    for p in [50.0, 90.0, 99.0] {
        row(
            &mut out,
            &format!("p{p:.0}"),
            &format!("{} µs", sliding.percentile_micros(p)),
        );
    }
    row(
        &mut out,
        "lifetime p50 / p99",
        &format!(
            "{} / {} µs",
            lifetime.percentile_micros(50.0),
            lifetime.percentile_micros(99.0)
        ),
    );

    section(
        &mut out,
        &format!("rates — last {n} journaled requests (process-wide)"),
    );
    row(&mut out, "cache hit", &fmt_rate(cache_hits, n));
    row(&mut out, "degraded", &fmt_rate(degraded, n));
    row(&mut out, "errored", &fmt_rate(errored, n));

    section(&mut out, "degradation gate — EWMA cost per fidelity rung");
    let costs = service.fidelity_costs();
    for f in Fidelity::ALL {
        row(
            &mut out,
            f.as_str(),
            &format!("{} µs", costs.estimate(f).as_micros()),
        );
    }

    section(&mut out, "load");
    row(&mut out, "queue depth", &service.queue_len().to_string());
    row(
        &mut out,
        "inflight",
        &stats.inflight_requests.get().to_string(),
    );
    row(&mut out, "cache entries", &service.cache_len().to_string());

    section(&mut out, "lifetime counters");
    for (label, value) in [
        ("received", stats.received.get()),
        ("completed", stats.completed.get()),
        ("errors", stats.errors.get()),
        ("overloaded", stats.overloaded.get()),
        ("deadline expired", stats.deadline_expired.get()),
        ("coalesced", stats.coalesced.get()),
        ("retries", stats.retries.get()),
        ("faults injected", service.faults_injected()),
    ] {
        row(&mut out, label, &value.to_string());
    }

    section(&mut out, "flight recorder");
    row(
        &mut out,
        "requests recorded / dropped",
        &format!(
            "{} / {}",
            snapshot.request_stats.recorded, snapshot.request_stats.dropped
        ),
    );
    row(
        &mut out,
        "iterations recorded / dropped",
        &format!(
            "{} / {}",
            snapshot.iteration_stats.recorded, snapshot.iteration_stats.dropped
        ),
    );
    row(
        &mut out,
        "exemplars held",
        &snapshot.exemplars.len().to_string(),
    );
    row(
        &mut out,
        "journal dropped total",
        &(snapshot.request_stats.dropped + snapshot.iteration_stats.dropped).to_string(),
    );

    section(&mut out, "SLO burn-rate alerts");
    let alerts = service.slo().snapshot();
    if alerts.is_empty() {
        row(&mut out, "(none configured)", "");
    }
    for alert in &alerts {
        row(
            &mut out,
            &alert.name,
            &format!(
                "{} — fast {:.2}x / slow {:.2}x over {}s (fired {}, cleared {})",
                if alert.firing { "FIRING" } else { "ok" },
                alert.fast_burn,
                alert.slow_burn,
                alert.window_secs,
                alert.fired_total,
                alert.cleared_total
            ),
        );
    }

    section(&mut out, "sparklines — last 5 min, 1 s resolution");
    for metric in [
        "ntr_requests_completed_total",
        "ntr_request_latency_us_p99",
        "ntr_queue_depth",
    ] {
        let values = service.tsdb().spark_values(metric, 1);
        row(
            &mut out,
            metric,
            &ntr_obs::tsdb::sparkline_svg(&values, 300, 32),
        );
    }
    out.push_str(
        "</table>\n<p>see also: <a href=\"/metrics\">/metrics</a> · \
         <a href=\"/journal\">/journal</a> · <a href=\"/tsdb\">/tsdb</a> · \
         <a href=\"/alertz\">/alertz</a> · <a href=\"/profilez\">/profilez</a></p>\n\
         </body></html>\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;

    #[test]
    fn statusz_renders_the_core_sections() {
        let service = Service::start(&ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let page = render(&service);
        for needle in [
            "<!DOCTYPE html>",
            "sliding window",
            "cache hit",
            "EWMA cost per fidelity rung",
            "flight recorder",
            "journal dropped total",
            "SLO burn-rate alerts",
            "sparklines",
            "<svg",
            "p99",
        ] {
            assert!(page.contains(needle), "missing {needle:?} in:\n{page}");
        }
        service.shutdown();
    }
}
