//! Declarative SLOs with multi-window burn-rate alerting.
//!
//! A service-level objective turns raw outcomes into a judgement:
//! "99% of requests answer under 50 ms over any 1 h window" or
//! "99.9% of requests are non-errors". The interesting signal is not
//! the instantaneous error rate but the **burn rate** — how fast the
//! window's error budget is being consumed, where burn 1.0 spends
//! exactly the budget over the window and burn 10 exhausts it ten
//! times over. Following the Google SRE workbook, an alert fires
//! only when *both* a fast window (seconds–minutes, for reaction
//! time) and a slow window (the guard against one bad second paging
//! a human) exceed the threshold, and clears with hysteresis once
//! both fall below a lower one — so a firing alert cannot flap on
//! the boundary.
//!
//! Everything is deterministic under test: outcomes land in
//! per-second stamped ring buckets and the whole engine is driven
//! through `*_at(now_secs)` entry points; production wrappers derive
//! `now_secs` from a process epoch. Transitions are edge-counted
//! (`fired_total` / `cleared_total`), which is what lets the chaos
//! gate assert an *exact* fire→clear cycle rather than sampling a
//! racy boolean.
//!
//! The spec grammar (CLI `--slo` flag and `NTR_SLOS` env, split on
//! `;`):
//!
//! ```text
//! [NAME=]availability:OBJECTIVE:WINDOW[:FAST[:SLOW]]
//! [NAME=]latency:OBJECTIVE:THRESHOLD:WINDOW[:FAST[:SLOW]]
//! ```
//!
//! Durations take `s`/`m`/`h` suffixes, latency thresholds
//! `us`/`ms`/`s`; `OBJECTIVE` is a percentage. Omitted windows
//! default to fast = window/60 and slow = window/12 (the workbook's
//! 1 h → 1 m / 5 m shape), floored at one second.

use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{Gauge, MetricsRegistry};
use crate::{log_info, log_warn};

/// What a request must do to count as "good".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloKind {
    /// Good iff the request succeeded and answered within the
    /// threshold.
    Latency {
        /// Inclusive latency bound in microseconds.
        threshold_us: u64,
    },
    /// Good iff the request succeeded (outcome "ok").
    Availability,
}

/// One parsed objective.
#[derive(Clone, Debug, PartialEq)]
pub struct SloSpec {
    /// Display name (defaults to a slug derived from the fields).
    pub name: String,
    /// Goodness criterion.
    pub kind: SloKind,
    /// Target percentage of good requests, e.g. `99.9`.
    pub objective_pct: f64,
    /// Budget window in seconds.
    pub window_secs: u64,
    /// Fast burn-rate window in seconds.
    pub fast_secs: u64,
    /// Slow burn-rate window in seconds.
    pub slow_secs: u64,
}

/// Fire/clear thresholds on the burn rate. Firing requires *both*
/// windows above `fire`; clearing requires both below `clear` —
/// hysteresis, so the boundary cannot flap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurnRule {
    /// Burn rate at or above which both windows must sit to fire.
    pub fire: f64,
    /// Burn rate below which both windows must fall to clear.
    pub clear: f64,
}

impl Default for BurnRule {
    /// The workbook's page-worthy rule: burning a month of budget in
    /// ~3 days (rate 10), clearing at half that.
    fn default() -> Self {
        Self {
            fire: 10.0,
            clear: 5.0,
        }
    }
}

fn parse_duration_secs(s: &str) -> Option<u64> {
    let (num, mult) = match s.strip_suffix('h') {
        Some(n) => (n, 3600),
        None => match s.strip_suffix('m') {
            Some(n) => (n, 60),
            None => (s.strip_suffix('s').unwrap_or(s), 1),
        },
    };
    let n: u64 = num.parse().ok()?;
    (n > 0).then_some(n * mult)
}

fn parse_threshold_us(s: &str) -> Option<u64> {
    // Order matters: "ms" ends in "s", "us" too.
    if let Some(n) = s.strip_suffix("us") {
        return n.parse().ok().filter(|&v| v > 0);
    }
    if let Some(n) = s.strip_suffix("ms") {
        return n.parse::<u64>().ok().filter(|&v| v > 0)?.checked_mul(1_000);
    }
    let n = s.strip_suffix('s').unwrap_or(s);
    n.parse::<u64>()
        .ok()
        .filter(|&v| v > 0)?
        .checked_mul(1_000_000)
}

impl SloSpec {
    /// Parses one spec in the module grammar.
    ///
    /// # Errors
    /// A description of the offending field.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        let (name, body) = match spec.split_once('=') {
            Some((n, b)) if !n.trim().is_empty() => (Some(n.trim().to_owned()), b.trim()),
            Some(_) => return Err(format!("empty name in SLO spec {spec:?}")),
            None => (None, spec),
        };
        let parts: Vec<&str> = body.split(':').collect();
        let err = |what: &str| format!("{what} in SLO spec {spec:?}");
        let objective = |s: &str| -> Result<f64, String> {
            let pct: f64 = s.parse().map_err(|_| err("unparseable objective"))?;
            if pct <= 0.0 || pct >= 100.0 {
                return Err(err("objective must be in (0, 100)"));
            }
            Ok(pct)
        };
        let windows = |rest: &[&str], window: u64| -> Result<(u64, u64), String> {
            let fast = match rest.first() {
                Some(s) => parse_duration_secs(s).ok_or_else(|| err("unparseable fast window"))?,
                None => (window / 60).max(1),
            };
            let slow = match rest.get(1) {
                Some(s) => parse_duration_secs(s).ok_or_else(|| err("unparseable slow window"))?,
                None => (window / 12).max(1),
            };
            if fast > slow || slow > window {
                return Err(err("windows must satisfy fast <= slow <= window"));
            }
            Ok((fast, slow))
        };
        let (kind, objective_pct, window_secs, fast_secs, slow_secs, default_name) =
            match parts.as_slice() {
                ["availability", obj, window, rest @ ..] if rest.len() <= 2 => {
                    let pct = objective(obj)?;
                    let w = parse_duration_secs(window).ok_or_else(|| err("unparseable window"))?;
                    let (fast, slow) = windows(rest, w)?;
                    (
                        SloKind::Availability,
                        pct,
                        w,
                        fast,
                        slow,
                        format!("availability-{obj}"),
                    )
                }
                ["latency", obj, threshold, window, rest @ ..] if rest.len() <= 2 => {
                    let pct = objective(obj)?;
                    let threshold_us = parse_threshold_us(threshold)
                        .ok_or_else(|| err("unparseable threshold"))?;
                    let w = parse_duration_secs(window).ok_or_else(|| err("unparseable window"))?;
                    let (fast, slow) = windows(rest, w)?;
                    (
                        SloKind::Latency { threshold_us },
                        pct,
                        w,
                        fast,
                        slow,
                        format!("latency-{obj}-{threshold}"),
                    )
                }
                _ => {
                    return Err(err(
                        "expected availability:OBJ:WINDOW or latency:OBJ:THRESHOLD:WINDOW",
                    ))
                }
            };
        Ok(Self {
            name: name.unwrap_or(default_name),
            kind,
            objective_pct,
            window_secs,
            fast_secs,
            slow_secs,
        })
    }

    /// Parses a `;`-separated list (empty segments skipped).
    ///
    /// # Errors
    /// The first segment that fails [`parse`](Self::parse).
    pub fn parse_list(list: &str) -> Result<Vec<Self>, String> {
        list.split(';')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(Self::parse)
            .collect()
    }

    /// Metric-name-safe version of the SLO name.
    #[must_use]
    pub fn slug(&self) -> String {
        self.name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect()
    }
}

/// The objectives a server runs with unless configured otherwise.
#[must_use]
pub fn default_slos() -> Vec<SloSpec> {
    SloSpec::parse_list("latency:99:50ms:1h;availability:99.9:1h")
        .expect("the built-in SLO list must parse")
}

#[derive(Clone, Copy, Default)]
struct Bucket {
    /// Second index + 1; 0 = never written.
    stamp: u64,
    good: u64,
    total: u64,
}

struct SloState {
    spec: SloSpec,
    /// One bucket per second, ring of `window_secs`.
    buckets: Vec<Bucket>,
    firing: bool,
    fired_total: u64,
    cleared_total: u64,
    last_fast_burn: f64,
    last_slow_burn: f64,
    burn_gauge: Option<std::sync::Arc<Gauge>>,
}

impl SloState {
    fn record(&mut self, now_secs: u64, good: bool) {
        let idx = (now_secs % self.buckets.len() as u64) as usize;
        let bucket = &mut self.buckets[idx];
        if bucket.stamp != now_secs + 1 {
            *bucket = Bucket {
                stamp: now_secs + 1,
                good: 0,
                total: 0,
            };
        }
        bucket.total += 1;
        bucket.good += u64::from(good);
    }

    /// (good, total) over the trailing `window` seconds ending at
    /// `now_secs` inclusive.
    fn window_counts(&self, now_secs: u64, window: u64) -> (u64, u64) {
        let oldest = (now_secs + 1).saturating_sub(window);
        let (mut good, mut total) = (0, 0);
        for b in &self.buckets {
            if b.stamp > oldest && b.stamp <= now_secs + 1 {
                good += b.good;
                total += b.total;
            }
        }
        (good, total)
    }

    /// Burn rate over a window: bad-fraction divided by the budget
    /// fraction `1 - objective`. 0.0 with no traffic.
    fn burn_rate(&self, now_secs: u64, window: u64) -> f64 {
        let (good, total) = self.window_counts(now_secs, window);
        if total == 0 {
            return 0.0;
        }
        let bad_frac = (total - good) as f64 / total as f64;
        let budget = 1.0 - self.spec.objective_pct / 100.0;
        bad_frac / budget
    }
}

/// Transition edges produced by one [`SloEngine::evaluate_at`] pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Transition {
    /// The named alert started firing.
    Fired(String),
    /// The named alert stopped firing.
    Cleared(String),
}

/// Point-in-time view of one alert, for `/alertz` and the statusz page.
#[derive(Clone, Debug)]
pub struct AlertSnapshot {
    /// SLO name.
    pub name: String,
    /// Goodness criterion.
    pub kind: SloKind,
    /// Target percentage.
    pub objective_pct: f64,
    /// Budget window in seconds.
    pub window_secs: u64,
    /// Burn rate over the fast window at the last evaluation.
    pub fast_burn: f64,
    /// Burn rate over the slow window at the last evaluation.
    pub slow_burn: f64,
    /// Is the alert currently firing?
    pub firing: bool,
    /// Edge count of fire transitions.
    pub fired_total: u64,
    /// Edge count of clear transitions.
    pub cleared_total: u64,
    /// Good requests in the budget window.
    pub good: u64,
    /// Total requests in the budget window.
    pub total: u64,
}

/// Evaluates a set of SLOs over a stream of request outcomes.
pub struct SloEngine {
    rule: BurnRule,
    states: Mutex<Vec<SloState>>,
    firing_gauge: Mutex<Option<std::sync::Arc<Gauge>>>,
    epoch: Instant,
}

impl SloEngine {
    /// Builds an engine over `specs` with the given burn rule.
    #[must_use]
    pub fn new(specs: Vec<SloSpec>, rule: BurnRule) -> Self {
        let states = specs
            .into_iter()
            .map(|spec| SloState {
                buckets: vec![Bucket::default(); spec.window_secs.max(1) as usize],
                spec,
                firing: false,
                fired_total: 0,
                cleared_total: 0,
                last_fast_burn: 0.0,
                last_slow_burn: 0.0,
                burn_gauge: None,
            })
            .collect();
        Self {
            rule,
            states: Mutex::new(states),
            firing_gauge: Mutex::new(None),
            epoch: Instant::now(),
        }
    }

    /// Registers `ntr_slo_burn_rate_<slug>` per SLO (fast-window burn,
    /// rounded) and `ntr_alerts_firing` on `registry`.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        let mut states = self.states.lock().expect("slo engine poisoned");
        for state in states.iter_mut() {
            state.burn_gauge = Some(registry.gauge(
                &format!("ntr_slo_burn_rate_{}", state.spec.slug()),
                "fast-window error-budget burn rate of this SLO, rounded to the nearest integer",
            ));
        }
        *self.firing_gauge.lock().expect("slo engine poisoned") = Some(registry.gauge(
            "ntr_alerts_firing",
            "number of SLO burn-rate alerts currently firing",
        ));
    }

    /// Seconds since the engine was built.
    #[must_use]
    pub fn now_secs(&self) -> u64 {
        self.epoch.elapsed().as_secs()
    }

    /// Records one request outcome at an explicit second.
    pub fn record_at(&self, now_secs: u64, ok: bool, latency_us: u64) {
        let mut states = self.states.lock().expect("slo engine poisoned");
        for state in states.iter_mut() {
            let good = match state.spec.kind {
                SloKind::Availability => ok,
                SloKind::Latency { threshold_us } => ok && latency_us <= threshold_us,
            };
            state.record(now_secs, good);
        }
    }

    /// Production wrapper for [`record_at`](Self::record_at).
    pub fn record(&self, ok: bool, latency_us: u64) {
        self.record_at(self.now_secs(), ok, latency_us);
    }

    /// Re-evaluates every alert at an explicit second, returning the
    /// transition edges (and logging each one).
    pub fn evaluate_at(&self, now_secs: u64) -> Vec<Transition> {
        let mut transitions = Vec::new();
        let mut firing = 0;
        let mut states = self.states.lock().expect("slo engine poisoned");
        for state in states.iter_mut() {
            let fast = state.burn_rate(now_secs, state.spec.fast_secs);
            let slow = state.burn_rate(now_secs, state.spec.slow_secs);
            state.last_fast_burn = fast;
            state.last_slow_burn = slow;
            if !state.firing && fast >= self.rule.fire && slow >= self.rule.fire {
                state.firing = true;
                state.fired_total += 1;
                log_warn!(
                    "SLO alert FIRING: {} burn fast={fast:.1} slow={slow:.1} (threshold {})",
                    state.spec.name,
                    self.rule.fire
                );
                transitions.push(Transition::Fired(state.spec.name.clone()));
            } else if state.firing && fast < self.rule.clear && slow < self.rule.clear {
                state.firing = false;
                state.cleared_total += 1;
                log_info!(
                    "SLO alert cleared: {} burn fast={fast:.1} slow={slow:.1} (threshold {})",
                    state.spec.name,
                    self.rule.clear
                );
                transitions.push(Transition::Cleared(state.spec.name.clone()));
            }
            firing += i64::from(state.firing);
            if let Some(gauge) = &state.burn_gauge {
                gauge.set(fast.round() as i64);
            }
        }
        if let Some(gauge) = self
            .firing_gauge
            .lock()
            .expect("slo engine poisoned")
            .as_ref()
        {
            gauge.set(firing);
        }
        transitions
    }

    /// Production wrapper for [`evaluate_at`](Self::evaluate_at).
    pub fn evaluate(&self) -> Vec<Transition> {
        self.evaluate_at(self.now_secs())
    }

    /// Snapshots every alert as of the last evaluation, with window
    /// counts recomputed at `now_secs`.
    #[must_use]
    pub fn snapshot_at(&self, now_secs: u64) -> Vec<AlertSnapshot> {
        let states = self.states.lock().expect("slo engine poisoned");
        states
            .iter()
            .map(|state| {
                let (good, total) = state.window_counts(now_secs, state.spec.window_secs);
                AlertSnapshot {
                    name: state.spec.name.clone(),
                    kind: state.spec.kind,
                    objective_pct: state.spec.objective_pct,
                    window_secs: state.spec.window_secs,
                    fast_burn: state.last_fast_burn,
                    slow_burn: state.last_slow_burn,
                    firing: state.firing,
                    fired_total: state.fired_total,
                    cleared_total: state.cleared_total,
                    good,
                    total,
                }
            })
            .collect()
    }

    /// [`snapshot_at`](Self::snapshot_at) against the engine's clock.
    #[must_use]
    pub fn snapshot(&self) -> Vec<AlertSnapshot> {
        self.snapshot_at(self.now_secs())
    }

    /// The wire answer for `{"op":"alerts"}` and `GET /alertz`.
    #[must_use]
    pub fn alerts_json_at(&self, now_secs: u64) -> Json {
        let snaps = self.snapshot_at(now_secs);
        let firing = snaps.iter().filter(|a| a.firing).count();
        let alerts = snaps
            .into_iter()
            .map(|a| {
                let kind = match a.kind {
                    SloKind::Availability => Json::str("availability"),
                    SloKind::Latency { .. } => Json::str("latency"),
                };
                let mut fields = vec![
                    ("name", Json::str(&a.name)),
                    ("kind", kind),
                    ("objective_pct", Json::Num(a.objective_pct)),
                    ("window_secs", Json::Num(a.window_secs as f64)),
                    ("fast_burn", Json::Num(a.fast_burn)),
                    ("slow_burn", Json::Num(a.slow_burn)),
                    ("firing", Json::Bool(a.firing)),
                    ("fired_total", Json::Num(a.fired_total as f64)),
                    ("cleared_total", Json::Num(a.cleared_total as f64)),
                    ("good", Json::Num(a.good as f64)),
                    ("total", Json::Num(a.total as f64)),
                ];
                if let SloKind::Latency { threshold_us } = a.kind {
                    fields.insert(2, ("threshold_us", Json::Num(threshold_us as f64)));
                }
                Json::obj(fields)
            })
            .collect::<Vec<_>>();
        Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", Json::str("alerts")),
            ("firing", Json::Num(firing as f64)),
            ("alerts", Json::Arr(alerts)),
        ])
    }

    /// [`alerts_json_at`](Self::alerts_json_at) against the engine's
    /// clock.
    #[must_use]
    pub fn alerts_json(&self) -> Json {
        self.alerts_json_at(self.now_secs())
    }
}

/// Strict validator for [`SloEngine::alerts_json`] output — used by
/// the unit tests and by the HTTP-surface gate of `ntr-server`'s `live`
/// test binary. Returns the number of alerts.
///
/// # Errors
/// A description of the first malformed element.
pub fn check_alerts_json(text: &str) -> Result<usize, String> {
    let json = Json::parse(text).map_err(|e| format!("unparseable alerts answer: {e}"))?;
    if json.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("alerts answer not ok: {json}"));
    }
    if json.get("op").and_then(Json::as_str) != Some("alerts") {
        return Err(format!("op is not \"alerts\": {json}"));
    }
    let firing = json
        .get("firing")
        .and_then(Json::as_f64)
        .ok_or("missing firing count")?;
    let alerts = json
        .get("alerts")
        .and_then(Json::as_arr)
        .ok_or("missing alerts array")?;
    let mut counted_firing = 0.0;
    for (i, a) in alerts.iter().enumerate() {
        if a.get("name")
            .and_then(Json::as_str)
            .is_none_or(str::is_empty)
        {
            return Err(format!("alerts[{i}].name missing or empty"));
        }
        match a.get("kind").and_then(Json::as_str) {
            Some("availability") => {}
            Some("latency") => {
                if a.get("threshold_us").and_then(Json::as_f64).is_none() {
                    return Err(format!("alerts[{i}] latency kind without threshold_us"));
                }
            }
            _ => return Err(format!("alerts[{i}].kind is not availability|latency")),
        }
        for key in [
            "objective_pct",
            "window_secs",
            "fast_burn",
            "slow_burn",
            "fired_total",
            "cleared_total",
            "good",
            "total",
        ] {
            if a.get(key).and_then(Json::as_f64).is_none() {
                return Err(format!("alerts[{i}].{key} missing or not a number"));
            }
        }
        let good = a.get("good").and_then(Json::as_f64).unwrap_or(0.0);
        let total = a.get("total").and_then(Json::as_f64).unwrap_or(0.0);
        if good > total {
            return Err(format!("alerts[{i}] has good {good} > total {total}"));
        }
        match a.get("firing").and_then(Json::as_bool) {
            Some(f) => counted_firing += f64::from(u8::from(f)),
            None => return Err(format!("alerts[{i}].firing missing or not a bool")),
        }
    }
    if (counted_firing - firing).abs() > f64::EPSILON {
        return Err(format!(
            "firing count {firing} disagrees with per-alert flags {counted_firing}"
        ));
    }
    Ok(alerts.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avail_spec(window: u64, fast: u64, slow: u64) -> SloSpec {
        SloSpec {
            name: "test-availability".to_owned(),
            kind: SloKind::Availability,
            objective_pct: 99.0,
            window_secs: window,
            fast_secs: fast,
            slow_secs: slow,
        }
    }

    #[test]
    fn grammar_parses_both_kinds_with_defaults() {
        let s = SloSpec::parse("availability:99.9:1h").unwrap();
        assert_eq!(s.kind, SloKind::Availability);
        assert!((s.objective_pct - 99.9).abs() < 1e-9);
        assert_eq!((s.window_secs, s.fast_secs, s.slow_secs), (3600, 60, 300));
        assert_eq!(s.name, "availability-99.9");

        let s = SloSpec::parse("fast=latency:99:50ms:10m:30s:2m").unwrap();
        assert_eq!(
            s.kind,
            SloKind::Latency {
                threshold_us: 50_000
            }
        );
        assert_eq!((s.window_secs, s.fast_secs, s.slow_secs), (600, 30, 120));
        assert_eq!(s.name, "fast");
        assert_eq!(s.slug(), "fast");

        let list = SloSpec::parse_list(" availability:99:60s:2s:8s ; ;latency:95:2s:5m").unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(
            list[1].kind,
            SloKind::Latency {
                threshold_us: 2_000_000
            }
        );
        assert!(!default_slos().is_empty());
    }

    #[test]
    fn grammar_rejects_malformed_specs() {
        for bad in [
            "",
            "availability",
            "availability:0:1h",
            "availability:100:1h",
            "availability:99:0s",
            "availability:99:1h:10m:5m", // fast > slow
            "availability:99:1m:30s:2m", // slow > window
            "latency:99:1h",             // threshold missing
            "latency:99:xx:1h",
            "=availability:99:1h",
            "durations:99:1x",
        ] {
            assert!(SloSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn burn_rate_is_bad_fraction_over_budget() {
        let engine = SloEngine::new(vec![avail_spec(60, 5, 20)], BurnRule::default());
        // 10 requests at t=10, 2 bad: bad_frac 0.2, budget 0.01 → burn 20.
        for i in 0..10 {
            engine.record_at(10, i >= 2, 0);
        }
        let snap = &engine.snapshot_at(10)[0];
        assert_eq!((snap.good, snap.total), (8, 10));
        engine.evaluate_at(10);
        let snap = &engine.snapshot_at(10)[0];
        assert!((snap.fast_burn - 20.0).abs() < 1e-9);
        assert!((snap.slow_burn - 20.0).abs() < 1e-9);
    }

    #[test]
    fn alert_needs_both_windows_to_fire_and_clears_with_hysteresis() {
        let engine = SloEngine::new(vec![avail_spec(60, 2, 20)], BurnRule::default());
        // Seconds 0..9: healthy traffic fills the slow window.
        for t in 0..10 {
            for _ in 0..10 {
                engine.record_at(t, true, 0);
            }
            assert!(engine.evaluate_at(t).is_empty());
        }
        // Second 10: total failure. The fast window burns hot at once,
        // but the 20 s slow window holds 100 good / 10 bad → burn 9.1,
        // still under the fire threshold: no alert on one bad second.
        for _ in 0..10 {
            engine.record_at(10, false, 0);
        }
        assert!(engine.evaluate_at(10).is_empty());
        let snap = &engine.snapshot_at(10)[0];
        assert!((snap.fast_burn - 50.0).abs() < 1e-9); // seconds 9..10
        assert!(snap.slow_burn < 10.0, "slow window must lag one bad second");
        // Second 11: still failing → slow burn 100/120 bad_frac … 16.7.
        for _ in 0..10 {
            engine.record_at(11, false, 0);
        }
        let fired = engine.evaluate_at(11);
        assert_eq!(
            fired,
            vec![Transition::Fired("test-availability".to_owned())]
        );
        let snap = &engine.snapshot_at(11)[0];
        assert!(snap.firing);
        assert_eq!((snap.fired_total, snap.cleared_total), (1, 0));
        // Re-evaluating while hot adds no new edge.
        assert!(engine.evaluate_at(11).is_empty());
        // Healthy again: the fast window empties of bad quickly, but
        // the alert holds until the slow window is also below clear.
        let mut cleared_at = None;
        for t in 12..60 {
            for _ in 0..10 {
                engine.record_at(t, true, 0);
            }
            let edges = engine.evaluate_at(t);
            let snap = &engine.snapshot_at(t)[0];
            if snap.firing {
                assert!(edges.is_empty());
            } else {
                assert_eq!(
                    edges,
                    vec![Transition::Cleared("test-availability".to_owned())]
                );
                cleared_at = Some(t);
                break;
            }
        }
        let cleared_at = cleared_at.expect("alert never cleared");
        // Hysteresis: the fast burn is < clear by t=14, but the 20 s
        // slow window remembers the bad seconds until they slide out.
        // The slow burn sits right on 5.0 at t=30 (which side depends
        // on the float rounding of the 1% budget) and is cleanly below
        // at t=31.
        assert!(
            (30..=31).contains(&cleared_at),
            "hysteresis window mis-sized: cleared at t={cleared_at}"
        );
        let snap = &engine.snapshot_at(cleared_at)[0];
        assert_eq!((snap.fired_total, snap.cleared_total), (1, 1));
        assert!(engine.evaluate_at(cleared_at + 1).is_empty());
    }

    #[test]
    fn latency_slo_counts_slow_and_failed_requests_as_bad() {
        let spec = SloSpec {
            name: "lat".to_owned(),
            kind: SloKind::Latency {
                threshold_us: 1_000,
            },
            objective_pct: 50.0,
            window_secs: 60,
            fast_secs: 2,
            slow_secs: 4,
        };
        let engine = SloEngine::new(vec![spec], BurnRule::default());
        engine.record_at(5, true, 500); // good
        engine.record_at(5, true, 1_000); // good (inclusive bound)
        engine.record_at(5, true, 1_001); // bad: too slow
        engine.record_at(5, false, 10); // bad: failed, however fast
        let snap = &engine.snapshot_at(5)[0];
        assert_eq!((snap.good, snap.total), (2, 4));
    }

    #[test]
    fn empty_windows_burn_zero_and_old_buckets_expire() {
        let engine = SloEngine::new(vec![avail_spec(10, 2, 5)], BurnRule::default());
        assert!(engine.evaluate_at(0).is_empty());
        let snap = &engine.snapshot_at(0)[0];
        assert_eq!(snap.total, 0);
        assert!((snap.fast_burn).abs() < 1e-9);
        engine.record_at(1, false, 0);
        // 30 > 1 + 10: the failure has aged out of every window.
        let snap = &engine.snapshot_at(30)[0];
        assert_eq!(snap.total, 0);
        assert!(engine.evaluate_at(30).is_empty());
    }

    #[test]
    fn alerts_json_validates_and_carries_the_counters() {
        let engine = SloEngine::new(default_slos(), BurnRule::default());
        engine.record_at(3, true, 10);
        engine.record_at(3, false, 10);
        engine.evaluate_at(3);
        let line = engine.alerts_json_at(3).to_line();
        assert_eq!(check_alerts_json(&line).unwrap(), 2);
        assert!(check_alerts_json("{\"ok\":true,\"op\":\"alerts\"}").is_err());
        assert!(check_alerts_json("nope").is_err());
    }

    #[test]
    fn registered_gauges_track_evaluation() {
        let registry = MetricsRegistry::new();
        let engine = SloEngine::new(vec![avail_spec(60, 2, 10)], BurnRule::default());
        engine.register_metrics(&registry);
        for t in 0..12 {
            for _ in 0..10 {
                engine.record_at(t, t < 2, 0);
            }
            engine.evaluate_at(t);
        }
        let firing = registry.gauge("ntr_alerts_firing", "");
        assert_eq!(firing.get(), 1);
        let burn = registry.gauge("ntr_slo_burn_rate_test_availability", "");
        assert_eq!(burn.get(), 100);
    }
}
