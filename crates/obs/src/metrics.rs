//! Named counters, gauges, and power-of-two-bucket histograms,
//! collected in a [`MetricsRegistry`].
//!
//! Register a metric once (registration takes a lock), then update it
//! from any thread through the returned [`Arc`] handle — updates are
//! single relaxed atomic operations, safe in hot paths. Registration is
//! idempotent: asking for an existing name returns the original handle,
//! so independent subsystems can share a metric by name.
//!
//! The [`Histogram`] generalizes the server's original
//! `LatencyHistogram`: bucket `i` counts samples in `[2^i, 2^(i+1))`
//! microseconds. Percentile answers interpolate linearly within the
//! bucket containing the requested rank (the `histogram_quantile`
//! convention), so they always land inside the sample's own bucket —
//! plenty for spotting queueing collapse, which moves latencies by
//! orders of magnitude.
//!
//! [`WindowedHistogram`] keeps histograms per time window in a
//! stamped-slot ring (the crate's one ring type, shared with the
//! TSDB tiers) behind a mutex, for percentiles over the last minute
//! rather than since boot.
//!
//! [`prometheus::render`](crate::prometheus::render) turns a registry
//! snapshot into text exposition format.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::json::Json;
use crate::ring::StampedRing;

/// A monotonically increasing count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (queue depth, cache entries).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts 1.
    pub fn dec(&self) {
        self.value.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`Histogram`]; the last bucket absorbs
/// everything at or above 2^39 µs (~6.4 days).
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Power-of-two histogram: bucket `i` counts samples in
/// `[2^i, 2^(i+1))` microseconds (bucket 0 also takes sub-microsecond
/// samples).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Index of the bucket that counts a `micros` sample.
    #[must_use]
    pub fn bucket_of(micros: u64) -> usize {
        // 63 - leading_zeros == floor(log2), clamped into range.
        let idx = 63 - micros.max(1).leading_zeros() as usize;
        idx.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Exclusive upper bound (µs) of bucket `i`.
    #[must_use]
    pub fn bucket_upper_bound(i: usize) -> u64 {
        1u64 << (i + 1).min(63)
    }

    /// Records one duration sample.
    pub fn record(&self, latency: Duration) {
        self.record_micros(latency.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one sample already expressed in microseconds.
    pub fn record_micros(&self, micros: u64) {
        self.buckets[Self::bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples, in microseconds.
    #[must_use]
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    /// Snapshot of the per-bucket counts.
    #[must_use]
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// The `p`-th percentile (`p` in 0..=100) in microseconds, or 0
    /// with no samples.
    ///
    /// The answer interpolates linearly within the bucket containing
    /// the requested rank — Prometheus's `histogram_quantile`
    /// convention: a bucket `[lo, hi)` holding `c` samples reports its
    /// `k`-th as `lo + (hi - lo) * k / c`. The result always lies in
    /// `(lo, hi]` of the sample's own bucket, so it is within one
    /// bucket width of the true percentile rather than pinned to the
    /// bucket's upper bound.
    #[must_use]
    pub fn percentile_micros(&self, p: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 && seen + c >= rank {
                let lower = if i == 0 {
                    0
                } else {
                    Self::bucket_upper_bound(i - 1)
                };
                let upper = Self::bucket_upper_bound(i);
                let into = (rank - seen) as f64 / c as f64;
                return lower + ((upper - lower) as f64 * into).round() as u64;
            }
            seen += c;
        }
        Self::bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Mean sample in microseconds, or 0 with no samples.
    #[must_use]
    pub fn mean_micros(&self) -> u64 {
        self.sum_micros().checked_div(self.count()).unwrap_or(0)
    }

    /// Folds `other`'s samples into `self`. Equivalent to having
    /// recorded both sample streams into one histogram (the property
    /// tests pin this down).
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count.fetch_add(other.count(), Ordering::Relaxed);
        self.sum_micros
            .fetch_add(other.sum_micros(), Ordering::Relaxed);
    }

    /// Summary snapshot (`count`, `mean_us`, `p50/p90/p99_us`) for
    /// stats-style JSON responses.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::Num(self.count() as f64)),
            ("mean_us", Json::Num(self.mean_micros() as f64)),
            ("p50_us", Json::Num(self.percentile_micros(50.0) as f64)),
            ("p90_us", Json::Num(self.percentile_micros(90.0) as f64)),
            ("p99_us", Json::Num(self.percentile_micros(99.0) as f64)),
        ])
    }
}

/// A ring of [`Histogram`] windows giving *sliding-window* percentiles:
/// `p50/p99` over the last `windows × window_len`, not since boot.
///
/// Time is divided into consecutive window indices (`elapsed /
/// window_len`), held in a stamped-slot ring behind one mutex: the
/// first sample of a new window clears the slot of the window one lap
/// older, so expired samples vanish exactly one lap later with no
/// background thread, and a reader merges the windows of the live lap
/// into one summary histogram. Rotation happens under the lock, so no
/// sample is lost or counted twice. The `*_at` entry points take an
/// explicit window index instead of the clock, making the rotation
/// logic deterministic for the property tests.
#[derive(Debug)]
pub struct WindowedHistogram {
    ring: Mutex<StampedRing<Histogram>>,
    windows: usize,
    window_len: Duration,
    epoch: std::time::Instant,
}

impl WindowedHistogram {
    /// A ring of `windows` windows of `window_len` each (both clamped to
    /// at least 1 window / 1 ms).
    #[must_use]
    pub fn new(windows: usize, window_len: Duration) -> Self {
        Self {
            ring: Mutex::new(StampedRing::new(windows)),
            windows: windows.max(1),
            window_len: window_len.max(Duration::from_millis(1)),
            epoch: std::time::Instant::now(),
        }
    }

    /// Number of windows in the ring.
    #[must_use]
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// The window index the clock is currently in.
    #[must_use]
    pub fn current_index(&self) -> u64 {
        (self.epoch.elapsed().as_nanos() / self.window_len.as_nanos().max(1)) as u64
    }

    /// Records one sample into the current (clock-derived) window.
    pub fn record_micros(&self, micros: u64) {
        self.record_micros_at(self.current_index(), micros);
    }

    /// Records one duration sample into the current window.
    pub fn record(&self, latency: Duration) {
        self.record_micros(latency.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one sample into window `index` (deterministic entry
    /// point; production uses [`record_micros`](Self::record_micros)).
    /// A sample a full lap behind the clock has expired and is dropped.
    pub fn record_micros_at(&self, index: u64, micros: u64) {
        let mut ring = self.ring.lock().expect("windowed histogram poisoned");
        if let Some(hist) = ring.slot_mut(index) {
            hist.record_micros(micros);
        }
    }

    /// Merge of every live window as of the clock's current index.
    #[must_use]
    pub fn sliding(&self) -> Histogram {
        self.sliding_at(self.current_index())
    }

    /// Merge of every window still live at `index`: windows in
    /// `(index - windows, index]`. Older windows are expired and
    /// excluded — the property tests pin this down.
    #[must_use]
    pub fn sliding_at(&self, index: u64) -> Histogram {
        let merged = Histogram::default();
        let ring = self.ring.lock().expect("windowed histogram poisoned");
        for (_, hist) in ring.live(index) {
            merged.merge(hist);
        }
        merged
    }

    /// Sliding-window percentile (µs), 0 with no live samples.
    #[must_use]
    pub fn percentile_micros(&self, p: f64) -> u64 {
        self.sliding().percentile_micros(p)
    }
}

/// The handle kinds a registry can hold.
#[derive(Debug, Clone)]
pub enum Metric {
    /// Monotonic counter.
    Counter(Arc<Counter>),
    /// Up/down gauge.
    Gauge(Arc<Gauge>),
    /// Power-of-two histogram.
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// One registered metric, as seen by exporters.
#[derive(Debug, Clone)]
pub struct Family {
    /// Metric name (Prometheus-style `snake_case`, e.g.
    /// `ntr_requests_total`).
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// The live handle.
    pub metric: Metric,
}

/// A named collection of metrics.
///
/// Most code uses one registry per server instance (so tests stay
/// isolated); [`global()`] offers a process-wide default for code with
/// no registry at hand.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Mutex<Vec<Family>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            families: Mutex::new(Vec::new()),
        }
    }

    fn register(&self, name: &str, help: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut families = self.families.lock().expect("metrics registry poisoned");
        if let Some(existing) = families.iter().find(|f| f.name == name) {
            return existing.metric.clone();
        }
        let metric = make();
        families.push(Family {
            name: name.to_owned(),
            help: help.to_owned(),
            metric: metric.clone(),
        });
        metric
    }

    /// Registers (or retrieves) the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    #[must_use]
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        match self.register(name, help, || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or retrieves) the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    #[must_use]
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        match self.register(name, help, || Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Registers (or retrieves) the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    #[must_use]
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        match self.register(name, help, || Metric::Histogram(Arc::default())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Snapshot of every registered family, in registration order.
    #[must_use]
    pub fn families(&self) -> Vec<Family> {
        self.families
            .lock()
            .expect("metrics registry poisoned")
            .clone()
    }
}

/// The process-wide default registry.
#[must_use]
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 1);
        assert_eq!(Histogram::bucket_of(1024), 10);
        assert_eq!(Histogram::bucket_of(u64::MAX), 39);
    }

    #[test]
    fn percentiles_bound_the_samples() {
        let h = Histogram::default();
        for micros in [10u64, 20, 40, 80, 5000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 5);
        // Rank 3 of 5 is the 40 µs sample, alone in bucket [32,64):
        // interpolation reports its full bucket, upper bound 64.
        assert_eq!(h.percentile_micros(50.0), 64);
        // p99 falls in the bucket of 5000 µs = [4096,8192).
        assert_eq!(h.percentile_micros(99.0), 8192);
        assert!(h.mean_micros() >= 1000);
    }

    #[test]
    fn percentiles_interpolate_within_a_shared_bucket() {
        // Four samples share bucket [8,16): ranks split the bucket into
        // quarters, 8 + (16-8)*k/4.
        let h = Histogram::default();
        for _ in 0..4 {
            h.record(Duration::from_micros(10));
        }
        assert_eq!(h.percentile_micros(25.0), 10);
        assert_eq!(h.percentile_micros(50.0), 12);
        assert_eq!(h.percentile_micros(75.0), 14);
        assert_eq!(h.percentile_micros(100.0), 16);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::default();
        assert_eq!(h.percentile_micros(99.0), 0);
        assert_eq!(h.mean_micros(), 0);
    }

    #[test]
    fn merge_accumulates_counts_and_sum() {
        let a = Histogram::default();
        let b = Histogram::default();
        a.record_micros(10);
        b.record_micros(1000);
        b.record_micros(600);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum_micros(), 1610);
        // 600 and 1000 µs both land in the [512, 1024) bucket.
        assert_eq!(a.bucket_counts()[Histogram::bucket_of(1000)], 2);
    }

    #[test]
    fn registration_is_idempotent() {
        let r = MetricsRegistry::new();
        let c1 = r.counter("requests_total", "Requests handled");
        let c2 = r.counter("requests_total", "ignored duplicate help");
        c1.inc();
        c2.add(2);
        assert_eq!(c1.get(), 3);
        assert_eq!(r.families().len(), 1);
        assert_eq!(r.families()[0].help, "Requests handled");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        let _c = r.counter("depth", "");
        let _g = r.gauge("depth", "");
    }

    #[test]
    fn windowed_histogram_expires_old_windows() {
        let w = WindowedHistogram::new(3, Duration::from_secs(10));
        w.record_micros_at(0, 100);
        w.record_micros_at(1, 200);
        w.record_micros_at(2, 400);
        assert_eq!(w.sliding_at(2).count(), 3);
        // Window 0 expires at index 3 (ring of 3: live = {1, 2, 3}),
        // even before anything is recorded into window 3.
        assert_eq!(w.sliding_at(3).count(), 2);
        w.record_micros_at(3, 800);
        assert_eq!(w.sliding_at(3).count(), 3);
        assert_eq!(w.sliding_at(3).sum_micros(), 200 + 400 + 800);
        // Jumping far ahead expires everything.
        assert_eq!(w.sliding_at(100).count(), 0);
    }

    #[test]
    fn windowed_histogram_rotation_reclaims_slots() {
        let w = WindowedHistogram::new(2, Duration::from_secs(1));
        w.record_micros_at(0, 50);
        // Index 2 reuses slot 0 and must not inherit index 0's samples.
        w.record_micros_at(2, 70);
        let live = w.sliding_at(2);
        assert_eq!(live.count(), 1);
        assert_eq!(live.sum_micros(), 70);
    }

    #[test]
    fn windowed_histogram_drops_samples_a_lap_behind() {
        let w = WindowedHistogram::new(2, Duration::from_secs(1));
        w.record_micros_at(4, 10);
        w.record_micros_at(2, 999); // same slot, older lap: dropped
        assert_eq!(w.sliding_at(4).sum_micros(), 10);
    }

    #[test]
    fn windowed_histogram_clock_path_records() {
        let w = WindowedHistogram::new(4, Duration::from_secs(60));
        w.record(Duration::from_micros(123));
        w.record_micros(456);
        assert_eq!(w.sliding().count(), 2);
        assert!(w.percentile_micros(99.0) >= 123);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let r = MetricsRegistry::new();
        let g = r.gauge("queue_depth", "Jobs waiting");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-4);
        assert_eq!(g.get(), -4);
    }
}
