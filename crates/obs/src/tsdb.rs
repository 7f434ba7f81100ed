//! An embedded, fixed-memory time-series store for the metrics
//! registry: every counter, gauge, and histogram percentile gets a
//! short history, so "has this degraded over the last five minutes?"
//! is answerable from inside the process.
//!
//! Design constraints, in order:
//!
//! 1. **Fixed memory.** Every series owns one ring per
//!    [`Resolution`] — by default 1 s × 300, 10 s × 360, 60 s × 360
//!    (5 min raw, 1 h mid, 6 h coarse). Slots are stamped with their
//!    bucket index (+1, so 0 means never written); a lapped slot is
//!    simply overwritten, and a query treats any slot whose stamp
//!    falls outside the live window as absent — the same
//!    stamped-slot idiom as
//!    [`WindowedHistogram`](crate::metrics::WindowedHistogram).
//! 2. **Rollups that can't drift.** Each sample is recorded into
//!    *all* resolutions directly; a 10 s bucket is the aggregate
//!    (count/sum/min/max/last) of the raw samples in its span by
//!    construction, not a separately-scheduled compaction that could
//!    race the raw ring. The property tests assert exactly this.
//! 3. **Deterministic under test.** Everything is driven through
//!    `*_at(t_secs)` entry points; the production wrappers derive
//!    `t_secs` from a process epoch. No wall clock in the core.
//!
//! The server snapshots the registry into the store once a second
//! (counters and gauges as their value; histograms as `<name>_p50` /
//! `<name>_p99` in microseconds), serves queries via
//! `{"op":"query"}` / `GET /tsdb?metric=...&res=...`, and renders
//! [`sparkline_svg`] strips on `/statusz`.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{Metric, MetricsRegistry};

/// One retention tier: `slots` buckets of `period_secs` each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Resolution {
    /// Bucket width in seconds.
    pub period_secs: u64,
    /// Ring capacity in buckets.
    pub slots: usize,
}

/// Default tiers: 5 min of raw seconds, 1 h at 10 s, 6 h at 1 min.
pub const DEFAULT_RESOLUTIONS: [Resolution; 3] = [
    Resolution {
        period_secs: 1,
        slots: 300,
    },
    Resolution {
        period_secs: 10,
        slots: 360,
    },
    Resolution {
        period_secs: 60,
        slots: 360,
    },
];

/// Cap on distinct series; new names beyond it are counted, not stored.
pub const MAX_SERIES: usize = 512;

/// One queryable bucket of a series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    /// Bucket start, in seconds since the store's epoch.
    pub t_secs: u64,
    /// Samples aggregated into this bucket.
    pub count: u64,
    /// Sum of the samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Most recent sample.
    pub last: f64,
}

#[derive(Clone, Copy, Default)]
struct Slot {
    /// Bucket index + 1; 0 = never written. A stale stamp (outside the
    /// ring's live window at query time) reads as absent.
    stamp: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    last: f64,
}

struct Ring {
    period_secs: u64,
    slots: Vec<Slot>,
}

impl Ring {
    fn new(res: Resolution) -> Self {
        Self {
            period_secs: res.period_secs,
            slots: vec![Slot::default(); res.slots.max(1)],
        }
    }

    fn record(&mut self, t_secs: u64, value: f64) {
        let bucket = t_secs / self.period_secs;
        let idx = (bucket % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[idx];
        if slot.stamp != bucket + 1 {
            *slot = Slot {
                stamp: bucket + 1,
                count: 0,
                sum: 0.0,
                min: value,
                max: value,
                last: value,
            };
        }
        slot.count += 1;
        slot.sum += value;
        slot.min = slot.min.min(value);
        slot.max = slot.max.max(value);
        slot.last = value;
    }

    /// Buckets still inside the retention window at time `now_secs`,
    /// oldest first. Empty buckets are absent, not zero.
    fn points(&self, now_secs: u64) -> Vec<Point> {
        let bucket_now = now_secs / self.period_secs;
        let window = self.slots.len() as u64;
        let oldest = (bucket_now + 1).saturating_sub(window);
        let mut out: Vec<Point> = self
            .slots
            .iter()
            .filter(|s| s.stamp > oldest && s.stamp <= bucket_now + 1)
            .map(|s| Point {
                t_secs: (s.stamp - 1) * self.period_secs,
                count: s.count,
                sum: s.sum,
                min: s.min,
                max: s.max,
                last: s.last,
            })
            .collect();
        out.sort_by_key(|p| p.t_secs);
        out
    }
}

struct Series {
    rings: Vec<Ring>,
}

struct Inner {
    /// BTreeMap so the series listing is sorted and stable.
    series: BTreeMap<String, Series>,
    series_dropped: u64,
}

/// The embedded store. One per process in practice (owned by the
/// service), but nothing global — tests build as many as they like.
pub struct Tsdb {
    resolutions: Vec<Resolution>,
    inner: Mutex<Inner>,
    epoch: Instant,
}

impl Default for Tsdb {
    fn default() -> Self {
        Self::new(&DEFAULT_RESOLUTIONS)
    }
}

impl Tsdb {
    /// Builds a store with the given retention tiers.
    ///
    /// # Panics
    /// When `resolutions` is empty or contains a zero period.
    #[must_use]
    pub fn new(resolutions: &[Resolution]) -> Self {
        assert!(!resolutions.is_empty(), "a Tsdb needs at least one tier");
        assert!(
            resolutions.iter().all(|r| r.period_secs > 0 && r.slots > 0),
            "resolution periods and slot counts must be nonzero"
        );
        Self {
            resolutions: resolutions.to_vec(),
            inner: Mutex::new(Inner {
                series: BTreeMap::new(),
                series_dropped: 0,
            }),
            epoch: Instant::now(),
        }
    }

    /// The configured retention tiers.
    #[must_use]
    pub fn resolutions(&self) -> &[Resolution] {
        &self.resolutions
    }

    /// Seconds since this store was built — the `t_secs` the
    /// production wrappers pass to the deterministic core.
    #[must_use]
    pub fn now_secs(&self) -> u64 {
        self.epoch.elapsed().as_secs()
    }

    /// Records one sample at an explicit time (deterministic core).
    pub fn record_at(&self, name: &str, t_secs: u64, value: f64) {
        let mut inner = self.inner.lock().expect("tsdb poisoned");
        if !inner.series.contains_key(name) {
            if inner.series.len() >= MAX_SERIES {
                inner.series_dropped += 1;
                return;
            }
            let series = Series {
                rings: self.resolutions.iter().map(|r| Ring::new(*r)).collect(),
            };
            inner.series.insert(name.to_owned(), series);
        }
        let series = inner.series.get_mut(name).expect("just inserted");
        for ring in &mut series.rings {
            ring.record(t_secs, value);
        }
    }

    /// Snapshots every family in `registry` at an explicit time:
    /// counters and gauges as their value, histograms as
    /// `<name>_p50` / `<name>_p99` (microseconds).
    pub fn snapshot_registry_at(&self, registry: &MetricsRegistry, t_secs: u64) {
        for family in registry.families() {
            match &family.metric {
                Metric::Counter(c) => self.record_at(&family.name, t_secs, c.get() as f64),
                Metric::Gauge(g) => self.record_at(&family.name, t_secs, g.get() as f64),
                Metric::Histogram(h) => {
                    if h.count() == 0 {
                        continue;
                    }
                    for (suffix, pct) in [("_p50", 50.0), ("_p99", 99.0)] {
                        self.record_at(
                            &format!("{}{suffix}", family.name),
                            t_secs,
                            h.percentile_micros(pct) as f64,
                        );
                    }
                }
            }
        }
    }

    /// Production wrapper: snapshot `registry` at the current epoch
    /// offset.
    pub fn snapshot_now(&self, registry: &MetricsRegistry) {
        self.snapshot_registry_at(registry, self.now_secs());
    }

    /// All series names, sorted.
    #[must_use]
    pub fn series_names(&self) -> Vec<String> {
        let inner = self.inner.lock().expect("tsdb poisoned");
        inner.series.keys().cloned().collect()
    }

    /// Series discarded because [`MAX_SERIES`] was reached.
    #[must_use]
    pub fn series_dropped(&self) -> u64 {
        self.inner.lock().expect("tsdb poisoned").series_dropped
    }

    /// Points for `metric` at the tier whose period is `res_secs`,
    /// as of `now_secs`. `None` when the metric or tier is unknown.
    #[must_use]
    pub fn query_at(&self, metric: &str, res_secs: u64, now_secs: u64) -> Option<Vec<Point>> {
        let inner = self.inner.lock().expect("tsdb poisoned");
        let series = inner.series.get(metric)?;
        let ring = series.rings.iter().find(|r| r.period_secs == res_secs)?;
        Some(ring.points(now_secs))
    }

    /// [`query_at`](Self::query_at) against the store's own clock.
    #[must_use]
    pub fn query(&self, metric: &str, res_secs: u64) -> Option<Vec<Point>> {
        self.query_at(metric, res_secs, self.now_secs())
    }

    /// The wire answer for `{"op":"query"}` and `GET /tsdb`.
    ///
    /// With a known metric: `{"ok":true,"op":"query","metric":...,
    /// "res_secs":N,"points":[{"t":..,"count":..,"sum":..,"min":..,
    /// "max":..,"last":..},...]}`. Without one (or `metric` empty):
    /// the series listing `{"ok":true,"op":"query","series":[...]}`.
    /// Unknown metric or tier: `{"ok":false,...}` with an error.
    #[must_use]
    pub fn query_json_at(&self, metric: Option<&str>, res_secs: u64, now_secs: u64) -> Json {
        let metric = metric.filter(|m| !m.is_empty());
        let Some(metric) = metric else {
            let names = self
                .series_names()
                .into_iter()
                .map(Json::str)
                .collect::<Vec<_>>();
            return Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("op", Json::str("query")),
                ("series", Json::Arr(names)),
            ]);
        };
        match self.query_at(metric, res_secs, now_secs) {
            Some(points) => {
                let points = points
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("t", Json::Num(p.t_secs as f64)),
                            ("count", Json::Num(p.count as f64)),
                            ("sum", Json::Num(p.sum)),
                            ("min", Json::Num(p.min)),
                            ("max", Json::Num(p.max)),
                            ("last", Json::Num(p.last)),
                        ])
                    })
                    .collect::<Vec<_>>();
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("op", Json::str("query")),
                    ("metric", Json::str(metric)),
                    ("res_secs", Json::Num(res_secs as f64)),
                    ("points", Json::Arr(points)),
                ])
            }
            None => Json::obj(vec![
                ("ok", Json::Bool(false)),
                ("op", Json::str("query")),
                (
                    "error",
                    Json::str(format!(
                        "unknown metric {metric:?} at res {res_secs}s; query without \
                         a metric for the series list"
                    )),
                ),
            ]),
        }
    }

    /// [`query_json_at`](Self::query_json_at) against the store's own
    /// clock.
    #[must_use]
    pub fn query_json(&self, metric: Option<&str>, res_secs: u64) -> Json {
        self.query_json_at(metric, res_secs, self.now_secs())
    }

    /// The last-value track of a series (up to the tier's full
    /// window), for sparklines. Empty when the series is unknown.
    #[must_use]
    pub fn spark_values(&self, metric: &str, res_secs: u64) -> Vec<f64> {
        self.query(metric, res_secs)
            .unwrap_or_default()
            .iter()
            .map(|p| p.last)
            .collect()
    }
}

/// An inline SVG sparkline of `values`, oldest first — no scripts, no
/// external assets, so it embeds straight into `/statusz`. Returns a
/// small "no data" placeholder for fewer than two points.
#[must_use]
pub fn sparkline_svg(values: &[f64], width: u32, height: u32) -> String {
    if values.len() < 2 {
        return format!(
            "<svg width=\"{width}\" height=\"{height}\" \
             xmlns=\"http://www.w3.org/2000/svg\"><text x=\"2\" y=\"{}\" \
             font-size=\"10\">no data</text></svg>",
            height.saturating_sub(3).max(8)
        );
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = if (hi - lo).abs() < f64::EPSILON {
        1.0
    } else {
        hi - lo
    };
    let (w, h) = (f64::from(width), f64::from(height));
    let step = w / (values.len() - 1) as f64;
    let mut points = String::new();
    for (i, &v) in values.iter().enumerate() {
        let x = i as f64 * step;
        // SVG y grows downward; leave a 1px margin so the stroke
        // isn't clipped at the extremes.
        let y = 1.0 + (h - 2.0) * (1.0 - (v - lo) / span);
        if i > 0 {
            points.push(' ');
        }
        points.push_str(&format!("{x:.1},{y:.1}"));
    }
    format!(
        "<svg width=\"{width}\" height=\"{height}\" \
         xmlns=\"http://www.w3.org/2000/svg\"><polyline fill=\"none\" \
         stroke=\"#06c\" stroke-width=\"1\" points=\"{points}\"/></svg>"
    )
}

/// Strict validator for [`Tsdb::query_json`] output — used by tests
/// and the CI smoke checker. Returns the number of points (metric
/// form) or series names (listing form).
///
/// # Errors
/// A description of the first malformed element.
pub fn check_query_json(text: &str) -> Result<usize, String> {
    let json = Json::parse(text).map_err(|e| format!("unparseable query answer: {e}"))?;
    if json.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("query answer not ok: {json}"));
    }
    if json.get("op").and_then(Json::as_str) != Some("query") {
        return Err(format!("op is not \"query\": {json}"));
    }
    if let Some(series) = json.get("series").and_then(Json::as_arr) {
        for (i, name) in series.iter().enumerate() {
            if name.as_str().is_none_or(str::is_empty) {
                return Err(format!("series[{i}] is not a nonempty string"));
            }
        }
        return Ok(series.len());
    }
    if json.get("metric").and_then(Json::as_str).is_none() {
        return Err("neither series listing nor metric answer".to_owned());
    }
    let res = json
        .get("res_secs")
        .and_then(Json::as_f64)
        .ok_or("missing res_secs")?;
    if res < 1.0 {
        return Err(format!("res_secs {res} < 1"));
    }
    let points = json
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("missing points array")?;
    let mut prev_t = -1.0;
    for (i, p) in points.iter().enumerate() {
        let field = |k: &str| {
            p.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("points[{i}].{k} missing or not a number"))
        };
        let (t, count) = (field("t")?, field("count")?);
        let (min, max, last) = (field("min")?, field("max")?, field("last")?);
        field("sum")?;
        if t <= prev_t {
            return Err(format!("points[{i}].t {t} not strictly increasing"));
        }
        prev_t = t;
        if count < 1.0 {
            return Err(format!(
                "points[{i}] has count {count} < 1 (empty buckets must be absent)"
            ));
        }
        if min > max || last < min || last > max {
            return Err(format!(
                "points[{i}] violates min {min} <= last {last} <= max {max}"
            ));
        }
    }
    Ok(points.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Tsdb {
        Tsdb::new(&[
            Resolution {
                period_secs: 1,
                slots: 30,
            },
            Resolution {
                period_secs: 10,
                slots: 12,
            },
        ])
    }

    #[test]
    fn rollup_buckets_aggregate_raw_samples() {
        let db = small();
        for (t, v) in [(20, 5.0), (21, 1.0), (25, 9.0), (29, 3.0)] {
            db.record_at("m", t, v);
        }
        let raw = db.query_at("m", 1, 29).unwrap();
        assert_eq!(raw.len(), 4);
        let coarse = db.query_at("m", 10, 29).unwrap();
        assert_eq!(coarse.len(), 1);
        let c = coarse[0];
        assert_eq!(c.t_secs, 20);
        assert_eq!(c.count, 4);
        assert!((c.sum - 18.0).abs() < 1e-9);
        assert!((c.min - 1.0).abs() < 1e-9);
        assert!((c.max - 9.0).abs() < 1e-9);
        assert!((c.last - 3.0).abs() < 1e-9);
    }

    #[test]
    fn lapped_slots_are_overwritten_and_stale_ones_excluded() {
        let db = small();
        db.record_at("m", 3, 1.0);
        // 40 > 3 + 30: the raw ring has lapped past t=3.
        db.record_at("m", 40, 2.0);
        let raw = db.query_at("m", 1, 40).unwrap();
        assert_eq!(raw.len(), 1);
        assert_eq!(raw[0].t_secs, 40);
        db.record_at("m", 33, 7.0); // 33 % 30 == 3 % 30: reuses t=3's slot
        let raw = db.query_at("m", 1, 40).unwrap();
        assert_eq!(
            raw.iter().map(|p| p.t_secs).collect::<Vec<_>>(),
            vec![33, 40]
        );
    }

    #[test]
    fn empty_windows_are_absent_not_zero() {
        let db = small();
        db.record_at("m", 5, 1.0);
        db.record_at("m", 8, 2.0);
        let raw = db.query_at("m", 1, 10).unwrap();
        assert_eq!(raw.iter().map(|p| p.t_secs).collect::<Vec<_>>(), vec![5, 8]);
        assert!(raw.iter().all(|p| p.count >= 1));
    }

    #[test]
    fn unknown_metric_and_resolution_answer_none() {
        let db = small();
        db.record_at("m", 1, 1.0);
        assert!(db.query_at("nope", 1, 5).is_none());
        assert!(db.query_at("m", 7, 5).is_none());
    }

    #[test]
    fn registry_snapshot_covers_all_metric_kinds() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("t_total", "a counter");
        let g = registry.gauge("t_gauge", "a gauge");
        let h = registry.histogram("t_latency_us", "a histogram");
        c.add(3);
        g.set(-4);
        h.record_micros(120);
        let db = small();
        db.snapshot_registry_at(&registry, 2);
        let names = db.series_names();
        for expected in ["t_total", "t_gauge", "t_latency_us_p50", "t_latency_us_p99"] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
        assert_eq!(db.query_at("t_total", 1, 2).unwrap()[0].last, 3.0);
        assert_eq!(db.query_at("t_gauge", 1, 2).unwrap()[0].last, -4.0);
        // An empty histogram contributes no percentile series.
        let registry2 = MetricsRegistry::new();
        let _ = registry2.histogram("t_empty_us", "never recorded");
        let db2 = small();
        db2.snapshot_registry_at(&registry2, 1);
        assert!(db2.series_names().is_empty());
    }

    #[test]
    fn query_json_forms_validate() {
        let db = small();
        db.record_at("m", 4, 2.5);
        db.record_at("m", 6, 1.5);
        let listing = db.query_json_at(None, 1, 6).to_line();
        assert_eq!(check_query_json(&listing).unwrap(), 1);
        let answer = db.query_json_at(Some("m"), 1, 6).to_line();
        assert_eq!(check_query_json(&answer).unwrap(), 2);
        let bad = db.query_json_at(Some("nope"), 1, 6).to_line();
        assert!(check_query_json(&bad).is_err());
        assert!(check_query_json("{").is_err());
        assert!(check_query_json("{\"ok\":true,\"op\":\"query\"}").is_err());
    }

    #[test]
    fn series_cap_drops_and_counts() {
        let db = Tsdb::new(&[Resolution {
            period_secs: 1,
            slots: 4,
        }]);
        for i in 0..(MAX_SERIES + 5) {
            db.record_at(&format!("s{i}"), 0, 1.0);
        }
        assert_eq!(db.series_names().len(), MAX_SERIES);
        assert_eq!(db.series_dropped(), 5);
    }

    #[test]
    fn sparkline_svg_is_wellformed() {
        let svg = sparkline_svg(&[1.0, 3.0, 2.0, 5.0], 120, 24);
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("<polyline"));
        assert!(svg.ends_with("</svg>"));
        let empty = sparkline_svg(&[], 120, 24);
        assert!(empty.contains("no data"));
        let flat = sparkline_svg(&[2.0, 2.0, 2.0], 120, 24);
        assert!(flat.contains("<polyline"));
    }
}
