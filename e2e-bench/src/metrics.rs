//! Turning exchanges, server counters and replay timings into named
//! metrics.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use ntr_server::json::Json;

use crate::client::Exchange;
use crate::replay::Replay;
use crate::trace::{ServerTiming, Stats};
use crate::workload::Workload;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value, with all its digits.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The `q`-quantile of `values` by the Harrell–Davis estimator: a
/// Beta-weighted average of every order statistic rather than one of
/// them. Reply times fall on the kernel's 4 ms timer ticks (see
/// `E2E.md`, finding 1), where a single order statistic jumps a whole
/// tick between runs; this estimator moves smoothly and varies less.
/// `q <= 0` is the minimum, `q >= 1` the maximum, and no values give 0.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(f64::total_cmp);
    match (v.first(), v.last()) {
        (None, _) | (_, None) => 0.0,
        (Some(&min), _) if q <= 0.0 || v.len() == 1 => min,
        (_, Some(&max)) if q >= 1.0 => max,
        _ => {
            let n = v.len() as f64;
            let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
            let mut below = 0.0;
            let mut sum = 0.0;
            for (i, x) in v.iter().enumerate() {
                let upto = beta_cdf(a, b, (i + 1) as f64 / n);
                sum += (upto - below) * x;
                below = upto;
            }
            sum
        }
    }
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |acc, (i, c)| acc + c / (x + (i + 1) as f64));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The regularized incomplete beta function `I_x(a, b)`: the CDF of
/// Beta(a, b) at `x`.
fn beta_cdf(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

/// The continued fraction of `I_x(a, b)` (modified Lentz).
fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..10_000 {
        let m = f64::from(m);
        for numerator in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + numerator * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + numerator / c;
            if c.abs() < TINY {
                c = TINY;
            }
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-14 {
            break;
        }
    }
    h
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Latencies (due to last byte) of the `ok` replies of one step, ms.
#[must_use]
pub fn step_latencies_ms(exchanges: &[Exchange], step: usize) -> Vec<f64> {
    exchanges
        .iter()
        .filter(|x| x.step == step && x.is_ok())
        .filter_map(|x| x.latency().map(ms))
        .collect()
}

/// Mean `delay_ns / initial_delay_ns` over the distinct answers (a
/// repeated net counts once). For a route this is the paper's quality
/// number, the routing graph's delay against its tree's; for an
/// incremental session reroute the "initial" delay is the previous
/// answer's.
fn delay_ratio(exchanges: &[Exchange]) -> f64 {
    let mut seen = HashSet::new();
    let ratios = exchanges.iter().filter_map(|x| {
        let r = x.reply_json()?;
        if r.get("ok") != Some(&Json::Bool(true)) {
            return None;
        }
        let delay = r.get("delay_ns")?.as_f64()?;
        let initial = r.get("initial_delay_ns")?.as_f64()?;
        (initial > 0.0 && seen.insert((delay.to_bits(), initial.to_bits())))
            .then_some(delay / initial)
    });
    mean(ratios)
}

/// The end-to-end metrics of an untraced run.
#[must_use]
pub fn end_to_end(
    workload: Workload,
    exchanges: &[Exchange],
    setup: Duration,
    rss_mb: f64,
) -> Vec<Metric> {
    let mut out = vec![metric("setup_s", setup.as_secs_f64(), "s")];
    for (i, step) in workload.steps().iter().enumerate() {
        let lat = step_latencies_ms(exchanges, i);
        out.push(metric(
            format!("p50_ms.{}", step.name),
            quantile(&lat, 0.5),
            "ms",
        ));
        out.push(metric(
            format!("p90_ms.{}", step.name),
            quantile(&lat, 0.9),
            "ms",
        ));
    }
    out.push(metric(
        "throughput_rps.high",
        throughput(exchanges, 1),
        "1/s",
    ));
    out.push(metric("delay_ratio", delay_ratio(exchanges), "ratio"));
    out.push(metric("server_rss_mb", rss_mb, "MB"));
    out
}

/// `ok` replies of a step per second, from its first due time to its
/// last reply.
fn throughput(exchanges: &[Exchange], step: usize) -> f64 {
    let in_step: Vec<&Exchange> = exchanges.iter().filter(|x| x.step == step).collect();
    let (Some(start), Some(end)) = (
        in_step.iter().map(|x| x.due).min(),
        in_step.iter().filter_map(|x| x.done).max(),
    ) else {
        return 0.0;
    };
    let ok = in_step.iter().filter(|x| x.is_ok()).count();
    let secs = end.saturating_duration_since(start).as_secs_f64();
    if secs > 0.0 {
        ok as f64 / secs
    } else {
        0.0
    }
}

/// What the traced pass read from the server.
#[derive(Debug)]
pub struct ServerView {
    /// Wide events by trace id.
    pub events: HashMap<u64, ServerTiming>,
    /// Counters before the measured steps.
    pub before: Stats,
    /// Counters after them.
    pub after: Stats,
    /// Server CPU time used during them.
    pub cpu: Duration,
}

/// The per-layer metrics of a traced run.
#[must_use]
pub fn per_layer(
    exchanges: &[Exchange],
    server: &ServerView,
    replay: &Replay,
    trace_overhead: f64,
) -> Vec<Metric> {
    let mut out = Vec::new();

    // The client's round trip, split by the server's wide event.
    let (mut wire, mut queue, mut route, mut other) = (vec![], vec![], vec![], vec![]);
    let mut missing = 0u64;
    let mut ok_ops = 0u64;
    for x in exchanges.iter().filter(|x| x.is_ok()) {
        ok_ops += 1;
        let (Some(rt), Some(trace)) = (
            x.round_trip(),
            x.reply_json()
                .and_then(|r| r.get("trace").and_then(Json::as_f64)),
        ) else {
            continue;
        };
        let Some(t) = server.events.get(&(trace as u64)) else {
            missing += 1;
            continue;
        };
        wire.push(ms(rt) - t.total_us as f64 / 1e3);
        if t.route_us > 0 {
            queue.push(t.queue_us as f64 / 1e3);
            route.push(t.route_us as f64 / 1e3);
        }
        other.push(t.total_us.saturating_sub(t.queue_us + t.route_us) as f64 / 1e3);
    }
    out.push(metric("server.wire_ms.p50", quantile(&wire, 0.5), "ms"));
    out.push(metric("server.wire_ms.p90", quantile(&wire, 0.9), "ms"));
    out.push(metric("service.queue_ms.p50", quantile(&queue, 0.5), "ms"));
    out.push(metric("service.queue_ms.p90", quantile(&queue, 0.9), "ms"));
    out.push(metric("service.route_ms.p50", quantile(&route, 0.5), "ms"));
    out.push(metric("service.route_ms.p90", quantile(&route, 0.9), "ms"));
    out.push(metric("service.other_ms.p50", quantile(&other, 0.5), "ms"));
    out.push(metric("trace.join_missing", missing as f64, "count"));

    let d = |k: &str| server.before.delta(&server.after, k);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let hits = d("cache_hits");
    out.push(metric(
        "service.cache_hit_ratio",
        ratio(hits, hits + d("cache_misses")),
        "ratio",
    ));
    out.push(metric("service.coalesced", d("coalesced"), "count"));
    out.push(metric("service.overloaded", d("overloaded"), "count"));
    out.push(metric(
        "service.deadline_expired",
        d("deadline_expired"),
        "count",
    ));
    out.push(metric(
        "server.cpu_us_per_op",
        ratio(us(server.cpu), ok_ops as f64),
        "us",
    ));
    let reroutes: f64 = ["quiescent", "rank1", "refactor", "scratch"]
        .iter()
        .map(|p| d(&format!("sessions.reroutes_{p}")))
        .sum();
    out.push(metric(
        "session.refactor_ratio",
        ratio(d("sessions.reroutes_refactor"), reroutes),
        "ratio",
    ));
    out.push(metric(
        "session.scratch",
        d("sessions.reroutes_scratch"),
        "count",
    ));

    let p50_us = |v: &[Duration]| quantile(&v.iter().map(|&t| us(t)).collect::<Vec<_>>(), 0.5);
    let p90_us = |v: &[Duration]| quantile(&v.iter().map(|&t| us(t)).collect::<Vec<_>>(), 0.9);
    out.push(metric(
        "session.mutate_us.p50",
        p50_us(&replay.mutate),
        "us",
    ));
    out.push(metric(
        "session.reroute_us.p50",
        p50_us(&replay.reroute),
        "us",
    ));
    out.push(metric("proto.parse_us.p50", p50_us(&replay.parse), "us"));
    out.push(metric(
        "service.lookup_us.p50",
        p50_us(&replay.lookup),
        "us",
    ));
    out.push(metric(
        "proto.serialize_us.p50",
        p50_us(&replay.serialize),
        "us",
    ));
    out.push(metric(
        "journal.record_us.p50",
        p50_us(&replay.journal),
        "us",
    ));
    out.push(metric("engine.route_us.p50", p50_us(&replay.engine), "us"));
    out.push(metric("engine.route_us.p90", p90_us(&replay.engine), "us"));

    // Per timed search, averaged over the replayed searches.
    let s = &replay.searches;
    let per = |f: &dyn Fn(&crate::layers::SearchSample) -> f64| mean(s.iter().map(f));
    out.push(metric("search.route_us", per(&|x| us(x.route)), "us"));
    out.push(metric(
        "oracle.prepare_us",
        per(&|x| us(x.oracle.prepare)),
        "us",
    ));
    out.push(metric(
        "oracle.prepare_count",
        per(&|x| x.oracle.prepare_count as f64),
        "count",
    ));
    out.push(metric(
        "oracle.score_us",
        per(&|x| us(x.oracle.score)),
        "us",
    ));
    out.push(metric(
        "oracle.score_count",
        per(&|x| x.oracle.score_count as f64),
        "count",
    ));
    out.push(metric("oracle.eval_us", per(&|x| us(x.oracle.eval)), "us"));
    out.push(metric(
        "oracle.eval_count",
        per(&|x| x.oracle.eval_count as f64),
        "count",
    ));
    out.push(metric("search.other_us", per(&|x| us(x.other())), "us"));
    out.push(metric("circuit.extract_us", per(&|x| us(x.extract)), "us"));
    out.push(metric("candidates.gen_us", per(&|x| us(x.generate)), "us"));
    out.push(metric(
        "candidates.generated",
        per(&|x| x.generated as f64),
        "count",
    ));
    out.push(metric(
        "candidates.scored",
        per(&|x| x.scored as f64),
        "count",
    ));
    out.push(metric(
        "ldrg.iterations",
        per(&|x| x.committed as f64),
        "count",
    ));
    let committed: u64 = s.iter().map(|x| x.committed).sum();
    let scored: u64 = s.iter().map(|x| x.scored).sum();
    out.push(metric(
        "ldrg.accept_ratio",
        ratio(committed as f64, scored as f64),
        "ratio",
    ));

    let late: Vec<f64> = exchanges.iter().map(|x| ms(x.lateness())).collect();
    out.push(metric("loadgen.late_ms.p99", quantile(&late, 0.99), "ms"));
    let waited = exchanges
        .iter()
        .filter(|x| x.slot_wait() > Duration::ZERO)
        .count();
    out.push(metric(
        "loadgen.slot_wait_share",
        ratio(waited as f64, exchanges.len() as f64),
        "ratio",
    ));
    out.push(metric("replay.requests", replay.requests as f64, "count"));
    out.push(metric("replay.sum_error", replay.sum_error(), "ratio"));
    out.push(metric("trace_overhead", trace_overhead, "ratio"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_quantiles() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12, "symmetric data");
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert!((quantile(&[7.0; 50], 0.9) - 7.0).abs() < 1e-12);
        // Large samples approach the distribution's quantiles.
        let u: Vec<f64> = (0..5000).map(|i| f64::from(i) / 5000.0).collect();
        assert!((quantile(&u, 0.5) - 0.5).abs() < 1e-3);
        assert!((quantile(&u, 0.9) - 0.9).abs() < 1e-3);
        // Weights sum to one even far from the median.
        assert!((quantile(&[3.0; 1000], 0.99) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn beta_cdf_matches_closed_forms() {
        // Beta(1, 1) is uniform; Beta(2, 1) has CDF x².
        assert!((beta_cdf(1.0, 1.0, 0.3) - 0.3).abs() < 1e-12);
        assert!((beta_cdf(2.0, 1.0, 0.3) - 0.09).abs() < 1e-12);
        assert!((beta_cdf(2500.5, 2500.5, 0.5) - 0.5).abs() < 1e-9);
    }
}
