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
//! a human) reach [`FIRE_BURN`], and clears with hysteresis once both
//! fall below [`CLEAR_BURN`] — so a firing alert cannot flap on the
//! boundary.
//!
//! The engine stores no outcomes of its own. Every answered request
//! records one sample per SLO into the service's [`Tsdb`], in the
//! series `ntr_slo_good_<slug>`: 1.0 if good, 0.0 if bad, so a bucket's
//! `count` is the requests and its `sum` the good ones. A window of W
//! seconds sums the finest tier whose span covers W, counting the
//! buckets that start in `(now − W, now]`. With the default tiers,
//! windows up to 5 min read exact 1 s buckets, up to 1 h 10 s buckets,
//! and up to 6 h 60 s buckets; longer windows are rejected at parse
//! time ([`MAX_WINDOW_SECS`]). SLO memory is one fixed-size TSDB
//! series per objective, whatever the window.
//!
//! Everything is deterministic under test: the whole engine is driven
//! through `*_at(now_secs)` entry points; production wrappers read
//! `now_secs` from the TSDB's clock. Transitions are edge-counted
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
//! `us`/`ms`/`s`; `OBJECTIVE` is a percentage and `WINDOW` at most 6 h.
//! Omitted windows default to fast = window/60 and slow = window/12
//! (the workbook's 1 h → 1 m / 5 m shape), floored at one second.

use std::sync::{Arc, Mutex, OnceLock};

use crate::json::Json;
use crate::metrics::{Gauge, MetricsRegistry};
use crate::tsdb::{Tsdb, DEFAULT_RESOLUTIONS};
use crate::{log_info, log_warn};

/// Burn rate at or above which both windows must sit for an alert to
/// fire: the workbook's page-worthy rule, a month of budget in ~3 days.
pub const FIRE_BURN: f64 = 10.0;

/// Burn rate below which both windows must fall for a firing alert to
/// clear: half the fire rate, so the boundary cannot flap.
pub const CLEAR_BURN: f64 = 5.0;

/// Longest budget window: the span of the default TSDB's coarsest tier
/// (60 s × 360 = 6 h). The store keeps nothing older to sum.
pub const MAX_WINDOW_SECS: u64 = {
    let coarsest = DEFAULT_RESOLUTIONS[DEFAULT_RESOLUTIONS.len() - 1];
    coarsest.period_secs * coarsest.slots as u64
};

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

/// A positive integer followed by the first matching suffix of
/// `units`, scaled by its multiplier. List "us" and "ms" before "s",
/// which ends both, and end with the bare-number unit `""`.
fn parse_scaled(s: &str, units: &[(&str, u64)], unit: &str) -> Result<u64, String> {
    let (num, mult) = units
        .iter()
        .find_map(|&(suffix, mult)| Some((s.strip_suffix(suffix)?, mult)))
        .expect("the last unit has an empty suffix");
    match num.parse::<u64>() {
        Ok(n) if n > 0 => n
            .checked_mul(mult)
            .ok_or_else(|| format!("{s:?} overflows the u64 limit of {} {unit}", u64::MAX)),
        _ => Err(format!("unparseable {s:?}")),
    }
}

impl SloSpec {
    /// Parses one spec in the module grammar.
    ///
    /// # Errors
    /// A description of the offending field, naming the limit when a
    /// duration overflows or the window exceeds [`MAX_WINDOW_SECS`].
    pub fn parse(spec: &str) -> Result<Self, String> {
        let spec = spec.trim();
        let (name, body) = match spec.split_once('=') {
            Some((n, b)) if !n.trim().is_empty() => (Some(n.trim().to_owned()), b.trim()),
            Some(_) => return Err(format!("empty name in SLO spec {spec:?}")),
            None => (None, spec),
        };
        let parts: Vec<&str> = body.split(':').collect();
        let err = |what: &str| format!("{what} in SLO spec {spec:?}");
        let duration = |s: &str, what: &str| {
            parse_scaled(s, &[("h", 3600), ("m", 60), ("s", 1), ("", 1)], "s")
                .map_err(|e| err(&format!("{what}: {e}")))
        };
        // The leading `head` fields (kind, objective, latency threshold)
        // form the default name; the window follows them.
        let (kind, head) = match parts.as_slice() {
            ["availability", _, _, rest @ ..] if rest.len() <= 2 => (SloKind::Availability, 2),
            ["latency", _, threshold, _, rest @ ..] if rest.len() <= 2 => {
                let units = [("us", 1), ("ms", 1_000), ("s", 1_000_000), ("", 1_000_000)];
                let threshold_us = parse_scaled(threshold, &units, "us")
                    .map_err(|e| err(&format!("threshold: {e}")))?;
                (SloKind::Latency { threshold_us }, 3)
            }
            _ => {
                return Err(err(
                    "expected availability:OBJ:WINDOW or latency:OBJ:THRESHOLD:WINDOW",
                ))
            }
        };
        let (objective, window, rest) = (parts[1], parts[head], &parts[head + 1..]);
        let objective_pct: f64 = objective
            .parse()
            .map_err(|_| err("unparseable objective"))?;
        if !(objective_pct > 0.0 && objective_pct < 100.0) {
            return Err(err("objective must be in (0, 100)"));
        }
        let window_secs = duration(window, "window")?;
        if window_secs > MAX_WINDOW_SECS {
            return Err(err(&format!(
                "window {window} exceeds the {}h ({MAX_WINDOW_SECS} s) TSDB retention",
                MAX_WINDOW_SECS / 3600
            )));
        }
        let fast_secs = match rest.first() {
            Some(s) => duration(s, "fast window")?,
            None => (window_secs / 60).max(1),
        };
        let slow_secs = match rest.get(1) {
            Some(s) => duration(s, "slow window")?,
            None => (window_secs / 12).max(1),
        };
        if fast_secs > slow_secs || slow_secs > window_secs {
            return Err(err("windows must satisfy fast <= slow <= window"));
        }
        Ok(Self {
            name: name.unwrap_or_else(|| parts[..head].join("-")),
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
    /// The first segment that fails [`parse`](Self::parse), or two
    /// specs that [`check_unique_slugs`] rejects.
    pub fn parse_list(list: &str) -> Result<Vec<Self>, String> {
        let specs = list
            .split(';')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(Self::parse)
            .collect::<Result<Vec<_>, _>>()?;
        check_unique_slugs(&specs)?;
        Ok(specs)
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

/// Rejects two SLOs whose names slug alike (`a-b` and `a.b`): they
/// would share one burn-rate gauge and mix their requests in one TSDB
/// series.
///
/// # Errors
/// Names the second SLO and the slug it repeats.
pub fn check_unique_slugs(specs: &[SloSpec]) -> Result<(), String> {
    let mut seen = std::collections::HashSet::new();
    match specs.iter().find(|spec| !seen.insert(spec.slug())) {
        Some(dup) => Err(format!(
            "SLO {:?} repeats the metric slug {:?} of an earlier SLO",
            dup.name,
            dup.slug()
        )),
        None => Ok(()),
    }
}

/// The objectives a server runs with unless configured otherwise.
#[must_use]
pub fn default_slos() -> Vec<SloSpec> {
    SloSpec::parse_list("latency:99:50ms:1h;availability:99.9:1h")
        .expect("the built-in SLO list must parse")
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

/// Evaluates a set of SLOs over the request outcomes it records into a
/// [`Tsdb`].
pub struct SloEngine {
    tsdb: Arc<Tsdb>,
    /// Each objective's `ntr_slo_good_<slug>` series, and the objective.
    slos: Vec<(String, SloSpec)>,
    /// Each objective's alert as of the last evaluation (`good` and
    /// `total` are filled in per snapshot).
    alerts: Mutex<Vec<AlertSnapshot>>,
    /// Each objective's burn-rate gauge, then `ntr_alerts_firing`.
    gauges: OnceLock<(Vec<Arc<Gauge>>, Arc<Gauge>)>,
}

impl SloEngine {
    /// Builds an engine over `specs` that records outcomes into `tsdb`
    /// and reads its burn rates back from it.
    #[must_use]
    pub fn new(specs: Vec<SloSpec>, tsdb: Arc<Tsdb>) -> Self {
        let (slos, alerts) = specs
            .into_iter()
            .map(|spec| {
                let alert = AlertSnapshot {
                    name: spec.name.clone(),
                    kind: spec.kind,
                    objective_pct: spec.objective_pct,
                    window_secs: spec.window_secs,
                    fast_burn: 0.0,
                    slow_burn: 0.0,
                    firing: false,
                    fired_total: 0,
                    cleared_total: 0,
                    good: 0,
                    total: 0,
                };
                ((format!("ntr_slo_good_{}", spec.slug()), spec), alert)
            })
            .unzip();
        Self {
            tsdb,
            slos,
            alerts: Mutex::new(alerts),
            gauges: OnceLock::new(),
        }
    }

    /// Registers `ntr_slo_burn_rate_<slug>` per SLO (fast-window burn,
    /// rounded) and `ntr_alerts_firing` on `registry`. Only the first
    /// registry an engine is given receives the evaluations.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        let burn = self.slos.iter().map(|(_, spec)| {
            registry.gauge(
                &format!("ntr_slo_burn_rate_{}", spec.slug()),
                "fast-window error-budget burn rate of this SLO, rounded to the nearest integer",
            )
        });
        let firing = registry.gauge(
            "ntr_alerts_firing",
            "number of SLO burn-rate alerts currently firing",
        );
        let _ = self.gauges.set((burn.collect(), firing));
    }

    /// Records one request outcome at an explicit second: one sample
    /// per SLO into its TSDB series, 1.0 if good and 0.0 if bad.
    pub fn record_at(&self, now_secs: u64, ok: bool, latency_us: u64) {
        for (series, spec) in &self.slos {
            let good = match spec.kind {
                SloKind::Availability => ok,
                SloKind::Latency { threshold_us } => ok && latency_us <= threshold_us,
            };
            self.tsdb
                .record_at(series, now_secs, f64::from(u8::from(good)));
        }
    }

    /// Production wrapper for [`record_at`](Self::record_at).
    pub fn record(&self, ok: bool, latency_us: u64) {
        self.record_at(self.tsdb.now_secs(), ok, latency_us);
    }

    /// Re-evaluates every alert at an explicit second, returning the
    /// transition edges (and logging each one).
    pub fn evaluate_at(&self, now_secs: u64) -> Vec<Transition> {
        let mut transitions = Vec::new();
        let mut alerts = self.alerts.lock().expect("slo engine poisoned");
        for (alert, (series, spec)) in alerts.iter_mut().zip(&self.slos) {
            // Bad fraction over the budget fraction `1 - objective`;
            // 0.0 with no traffic.
            let burn = |window| match self.tsdb.window_sum(series, window, now_secs) {
                (0, _) => 0.0,
                (total, good) => {
                    let bad = (total - good as u64) as f64;
                    bad / total as f64 / (1.0 - spec.objective_pct / 100.0)
                }
            };
            let (fast, slow) = (burn(spec.fast_secs), burn(spec.slow_secs));
            (alert.fast_burn, alert.slow_burn) = (fast, slow);
            let name = &spec.name;
            if !alert.firing && fast >= FIRE_BURN && slow >= FIRE_BURN {
                alert.firing = true;
                alert.fired_total += 1;
                log_warn!(
                    "SLO alert FIRING: {name} burn fast={fast:.1} slow={slow:.1} (threshold {FIRE_BURN})"
                );
                transitions.push(Transition::Fired(name.clone()));
            } else if alert.firing && fast < CLEAR_BURN && slow < CLEAR_BURN {
                alert.firing = false;
                alert.cleared_total += 1;
                log_info!(
                    "SLO alert cleared: {name} burn fast={fast:.1} slow={slow:.1} (threshold {CLEAR_BURN})"
                );
                transitions.push(Transition::Cleared(name.clone()));
            }
        }
        if let Some((burn, firing)) = self.gauges.get() {
            for (gauge, alert) in burn.iter().zip(alerts.iter()) {
                gauge.set(alert.fast_burn.round() as i64);
            }
            firing.set(alerts.iter().filter(|a| a.firing).count() as i64);
        }
        transitions
    }

    /// Production wrapper for [`evaluate_at`](Self::evaluate_at).
    pub fn evaluate(&self) -> Vec<Transition> {
        self.evaluate_at(self.tsdb.now_secs())
    }

    /// Snapshots every alert as of the last evaluation, with window
    /// counts recomputed at `now_secs`.
    #[must_use]
    pub fn snapshot_at(&self, now_secs: u64) -> Vec<AlertSnapshot> {
        let mut alerts = self.alerts.lock().expect("slo engine poisoned").clone();
        for (alert, (series, spec)) in alerts.iter_mut().zip(&self.slos) {
            let (total, good) = self.tsdb.window_sum(series, spec.window_secs, now_secs);
            (alert.good, alert.total) = (good as u64, total);
        }
        alerts
    }

    /// [`snapshot_at`](Self::snapshot_at) against the TSDB's clock.
    #[must_use]
    pub fn snapshot(&self) -> Vec<AlertSnapshot> {
        self.snapshot_at(self.tsdb.now_secs())
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

    /// [`alerts_json_at`](Self::alerts_json_at) against the TSDB's
    /// clock.
    #[must_use]
    pub fn alerts_json(&self) -> Json {
        self.alerts_json_at(self.tsdb.now_secs())
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
    use crate::tsdb::Tsdb;

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
            "availability:nan:1h",
            "availability:99:5124095576030432h", // seconds overflow u64
            "availability:99:7h",                // beyond the 6 h retention
            "availability:99:6h:1m:5124095576030432h",
            "latency:99:18446744073710s:1h", // microseconds overflow u64
        ] {
            assert!(SloSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn windows_stop_at_the_tsdb_retention_and_errors_name_the_limit() {
        let s = SloSpec::parse("availability:99:6h").unwrap();
        assert_eq!(s.window_secs, MAX_WINDOW_SECS);
        assert_eq!(MAX_WINDOW_SECS, 6 * 3600);
        let long = SloSpec::parse("availability:99:7h").unwrap_err();
        assert!(long.contains("6h (21600 s)"), "{long}");
        let huge = SloSpec::parse("availability:99:5124095576030432h").unwrap_err();
        assert!(huge.contains(&u64::MAX.to_string()), "{huge}");
    }

    #[test]
    fn colliding_slugs_are_rejected() {
        let dup = SloSpec::parse_list("a-b=availability:99:1h;a.b=latency:99:5ms:1h").unwrap_err();
        assert!(dup.contains("\"a_b\""), "{dup}");
        let specs = [
            SloSpec::parse("a-b=availability:99:1h").unwrap(),
            SloSpec::parse("a.b=availability:99:1h").unwrap(),
        ];
        assert!(check_unique_slugs(&specs).is_err());
        assert!(check_unique_slugs(&specs[..1]).is_ok());
        assert!(check_unique_slugs(&default_slos()).is_ok());
    }

    #[test]
    fn burn_rate_is_bad_fraction_over_budget() {
        let engine = SloEngine::new(vec![avail_spec(60, 5, 20)], Arc::default());
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
        let engine = SloEngine::new(vec![avail_spec(60, 2, 20)], Arc::default());
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
        let engine = SloEngine::new(vec![spec], Arc::default());
        engine.record_at(5, true, 500); // good
        engine.record_at(5, true, 1_000); // good (inclusive bound)
        engine.record_at(5, true, 1_001); // bad: too slow
        engine.record_at(5, false, 10); // bad: failed, however fast
        let snap = &engine.snapshot_at(5)[0];
        assert_eq!((snap.good, snap.total), (2, 4));
    }

    #[test]
    fn empty_windows_burn_zero_and_old_buckets_expire() {
        let engine = SloEngine::new(vec![avail_spec(10, 2, 5)], Arc::default());
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
        let engine = SloEngine::new(default_slos(), Arc::default());
        engine.record_at(3, true, 10);
        engine.record_at(3, false, 10);
        engine.evaluate_at(3);
        let line = engine.alerts_json_at(3).to_line();
        assert_eq!(check_alerts_json(&line).unwrap(), 2);
        assert!(check_alerts_json("{\"ok\":true,\"op\":\"alerts\"}").is_err());
        assert!(check_alerts_json("nope").is_err());
    }

    /// `/alertz` and `/tsdb` agree: an alert's good/total is the
    /// sum/count of its `ntr_slo_good_<slug>` series over the window,
    /// and at the 1 s tier also the exact count of recorded requests.
    #[test]
    fn alert_counts_are_the_tsdb_series_summed_over_the_window() {
        let tsdb = Arc::new(Tsdb::default());
        let engine = SloEngine::new(
            vec![
                avail_spec(120, 2, 10),
                SloSpec {
                    name: "lat-30m".to_owned(),
                    kind: SloKind::Latency { threshold_us: 500 },
                    objective_pct: 99.0,
                    window_secs: 1800,
                    fast_secs: 60,
                    slow_secs: 300,
                },
            ],
            Arc::clone(&tsdb),
        );
        let mut requests = Vec::new();
        for now in 0..2400u64 {
            for i in 0..now % 4 {
                let ok = (now + i) % 5 != 0;
                let latency_us = (now * 37 + i * 101) % 1000;
                engine.record_at(now, ok, latency_us);
                requests.push((now, ok, ok && latency_us <= 500));
            }
            if ![5, 119, 700, 1799, 2399].contains(&now) {
                continue;
            }
            let snaps = engine.snapshot_at(now);
            for (snap, series, res) in [
                (&snaps[0], "ntr_slo_good_test_availability", 1),
                (&snaps[1], "ntr_slo_good_lat_30m", 10),
            ] {
                let window = snap.window_secs;
                let points = tsdb.query_at(series, res, now).unwrap();
                let live = points.iter().filter(|p| p.t_secs + window > now);
                let sum: f64 = live.clone().map(|p| p.sum).sum();
                let count: u64 = live.map(|p| p.count).sum();
                assert_eq!(
                    (snap.good, snap.total),
                    (sum as u64, count),
                    "{series} at {now}"
                );
                // Buckets that start inside the window hold exactly the
                // requests recorded in those buckets.
                let in_window = |t: u64| (t / res) * res + window > now;
                let good = |r: &&(u64, bool, bool)| if res == 1 { r.1 } else { r.2 };
                let expected = requests.iter().filter(|r| in_window(r.0));
                let want_good = expected.clone().filter(good).count() as u64;
                assert_eq!(
                    (snap.good, snap.total),
                    (want_good, expected.count() as u64),
                    "{series} at {now}"
                );
            }
        }
    }

    #[test]
    fn registered_gauges_track_evaluation() {
        let registry = MetricsRegistry::new();
        let engine = SloEngine::new(vec![avail_spec(60, 2, 10)], Arc::default());
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
