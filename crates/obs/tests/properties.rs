//! Property-based checks of the power-of-two latency histogram: bucket
//! boundaries, percentile ordering, and merge equivalence — and of the
//! sliding-window ring built on it: rotation keeps percentiles
//! monotone, the live merge equals the concatenated live samples, and
//! expired windows stop influencing the answer.
//!
//! Plus the continuous-observability stores built on the same
//! stamped-slot idiom: TSDB rollups must equal the aggregate of the
//! raw ring over the same span (with expiry excluding stale laps and
//! empty buckets absent, not zero), and the SLO engine's burn-rate
//! alerting must track a from-scratch reference model exactly — fire
//! iff both windows exceed the threshold, clear with hysteresis.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use ntr_obs::metrics::{Histogram, WindowedHistogram, HISTOGRAM_BUCKETS};
use ntr_obs::slo::{SloEngine, SloKind, SloSpec, CLEAR_BURN, FIRE_BURN};
use ntr_obs::tsdb::{Resolution, Tsdb};
use proptest::prelude::*;

/// A histogram loaded with the given samples.
fn histogram_of(samples: &[u64]) -> Histogram {
    let h = Histogram::default();
    for &s in samples {
        h.record_micros(s);
    }
    h
}

/// A windowed ring with `batches[i]` recorded into window index `i`,
/// via the deterministic entry point (no clock involved).
fn windowed_of(windows: usize, batches: &[Vec<u64>]) -> WindowedHistogram {
    let w = WindowedHistogram::new(windows, Duration::from_secs(60));
    for (i, batch) in batches.iter().enumerate() {
        for &s in batch {
            w.record_micros_at(i as u64, s);
        }
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every sample lands in the bucket whose half-open power-of-two
    /// range `[2^i, 2^(i+1))` contains it; the last bucket absorbs the
    /// overflow tail, and bucket 0 takes sub-microsecond samples.
    #[test]
    fn bucket_boundaries_are_powers_of_two(micros in 0u64..u64::MAX) {
        let i = Histogram::bucket_of(micros);
        prop_assert!(i < HISTOGRAM_BUCKETS);
        if i < HISTOGRAM_BUCKETS - 1 {
            prop_assert!(micros < Histogram::bucket_upper_bound(i),
                "{micros} below upper bound of bucket {i}");
        }
        if i > 0 {
            prop_assert!(micros >= Histogram::bucket_upper_bound(i - 1),
                "{micros} at or above lower bound of bucket {i}");
        }
    }

    /// Exact powers of two open a new bucket: 2^k is the first value of
    /// bucket k, and 2^k - 1 is the last value of bucket k-1.
    #[test]
    fn power_of_two_samples_open_their_bucket(k in 1u32..HISTOGRAM_BUCKETS as u32 - 1) {
        let v = 1u64 << k;
        prop_assert_eq!(Histogram::bucket_of(v), k as usize);
        prop_assert_eq!(Histogram::bucket_of(v - 1), k as usize - 1);
    }

    /// Percentiles never run backwards: p50 ≤ p90 ≤ p99, and every
    /// interpolated percentile lands inside a bucket that actually holds
    /// samples (the answer is never pulled outside the recorded data's
    /// own power-of-two ranges).
    #[test]
    fn percentiles_are_monotone(samples in proptest::collection::vec(0u64..1_000_000_000, 1..200)) {
        let h = histogram_of(&samples);
        let (p50, p90, p99) = (
            h.percentile_micros(50.0),
            h.percentile_micros(90.0),
            h.percentile_micros(99.0),
        );
        prop_assert!(p50 <= p90, "p50 {p50} > p90 {p90}");
        prop_assert!(p90 <= p99, "p90 {p90} > p99 {p99}");
        let counts = h.bucket_counts();
        let in_nonempty_bucket = |v: u64| (0..HISTOGRAM_BUCKETS).any(|i| {
            let lower = if i == 0 { 0 } else { Histogram::bucket_upper_bound(i - 1) };
            counts[i] > 0 && v >= lower && v <= Histogram::bucket_upper_bound(i)
        });
        for (label, v) in [("p50", p50), ("p90", p90), ("p99", p99)] {
            prop_assert!(in_nonempty_bucket(v), "{label} {v} outside all nonempty buckets");
        }
    }

    /// Merging two histograms is indistinguishable from recording the
    /// concatenated sample stream into one: same buckets, count, sum,
    /// and therefore same percentiles.
    #[test]
    fn merge_equals_concatenated_samples(
        a in proptest::collection::vec(0u64..1_000_000_000, 0..100),
        b in proptest::collection::vec(0u64..1_000_000_000, 0..100),
    ) {
        let merged = histogram_of(&a);
        merged.merge(&histogram_of(&b));

        let concatenated: Vec<u64> = a.iter().chain(&b).copied().collect();
        let expected = histogram_of(&concatenated);

        prop_assert_eq!(merged.bucket_counts(), expected.bucket_counts());
        prop_assert_eq!(merged.count(), expected.count());
        prop_assert_eq!(merged.sum_micros(), expected.sum_micros());
        for p in [50.0, 90.0, 99.0] {
            prop_assert_eq!(merged.percentile_micros(p), expected.percentile_micros(p));
        }
    }

    /// Rotation never breaks percentile ordering: however the sample
    /// stream is scattered across window indices (with slots being
    /// reused and reset along the way), the live merge still reports
    /// p50 ≤ p90 ≤ p99.
    #[test]
    fn windowed_rotation_preserves_percentile_order(
        windows in 1usize..6,
        batches in proptest::collection::vec(
            proptest::collection::vec(0u64..1_000_000_000, 0..30), 1..12),
    ) {
        let w = windowed_of(windows, &batches);
        let live = w.sliding_at(batches.len() as u64 - 1);
        let (p50, p90, p99) = (
            live.percentile_micros(50.0),
            live.percentile_micros(90.0),
            live.percentile_micros(99.0),
        );
        prop_assert!(p50 <= p90, "p50 {p50} > p90 {p90} after rotation");
        prop_assert!(p90 <= p99, "p90 {p90} > p99 {p99} after rotation");
    }

    /// The sliding merge is exactly the histogram of the concatenated
    /// samples of the windows still live at the query index — same
    /// buckets, count, sum, percentiles. Windows older than one lap
    /// have been rotated out and contribute nothing.
    #[test]
    fn windowed_merge_equals_concatenated_live_windows(
        windows in 1usize..6,
        batches in proptest::collection::vec(
            proptest::collection::vec(0u64..1_000_000_000, 0..30), 1..12),
    ) {
        let w = windowed_of(windows, &batches);
        let last = batches.len() - 1;
        // Live indices at `last`: the most recent `windows` of them.
        let live_from = (last + 1).saturating_sub(windows);
        let concatenated: Vec<u64> = batches[live_from..=last]
            .iter()
            .flatten()
            .copied()
            .collect();
        let expected = histogram_of(&concatenated);
        let merged = w.sliding_at(last as u64);
        prop_assert_eq!(merged.bucket_counts(), expected.bucket_counts());
        prop_assert_eq!(merged.count(), expected.count());
        prop_assert_eq!(merged.sum_micros(), expected.sum_micros());
        for p in [50.0, 90.0, 99.0] {
            prop_assert_eq!(merged.percentile_micros(p), expected.percentile_micros(p));
        }
    }

    /// Once the clock laps a window, its samples stop influencing the
    /// sliding percentiles entirely: huge old samples recorded one lap
    /// ago cannot drag up the percentiles of the small fresh ones.
    #[test]
    fn windowed_expired_samples_stop_influencing_percentiles(
        windows in 1usize..6,
        old in proptest::collection::vec(500_000_000u64..1_000_000_000, 1..30),
        fresh in proptest::collection::vec(0u64..1_000, 1..30),
        gap in 0u64..5,
    ) {
        let w = WindowedHistogram::new(windows, Duration::from_secs(60));
        for &s in &old {
            w.record_micros_at(0, s);
        }
        // The first index at which window 0 has expired, plus some gap.
        let later = windows as u64 + gap;
        for &s in &fresh {
            w.record_micros_at(later, s);
        }
        let live = w.sliding_at(later);
        prop_assert_eq!(live.count(), fresh.len() as u64);
        let expected = histogram_of(&fresh);
        prop_assert_eq!(live.bucket_counts(), expected.bucket_counts());
        // Every fresh sample is < 1 ms; every old one ≥ 500 s worth of
        // µs. A p99 still inside the sub-millisecond buckets proves the
        // old lap is gone.
        let sub_ms_cap = Histogram::bucket_upper_bound(Histogram::bucket_of(999));
        prop_assert!(
            live.percentile_micros(99.0) <= sub_ms_cap,
            "expired samples leaked into p99"
        );
    }
}

/// A two-tier store where both rings comfortably retain the whole
/// 0..500 s test horizon, so rollup comparisons never race expiry
/// (expiry gets its own dedicated property below).
fn two_tier(coarse_period: u64) -> Tsdb {
    Tsdb::new(&[
        Resolution {
            period_secs: 1,
            slots: 512,
        },
        Resolution {
            period_secs: coarse_period,
            slots: 512,
        },
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The downsampled series is the aggregate of the raw ring over
    /// each coarse bucket's span: counts and sums add up, min/max are
    /// the extremes of the raw extremes, and `last` is the raw `last`
    /// of the latest raw bucket. No separately-scheduled compaction,
    /// so nothing to drift.
    #[test]
    fn tsdb_rollups_aggregate_the_raw_ring(
        coarse_period in 2u64..20,
        samples in proptest::collection::vec((0u64..500, 0u64..2000), 1..150),
    ) {
        let db = two_tier(coarse_period);
        // A monotone time stream, like the snapshotter produces.
        // Values span negative and positive (gauges go both ways).
        let mut samples: Vec<(u64, f64)> = samples
            .into_iter()
            .map(|(t, v)| (t, v as f64 - 1000.0))
            .collect();
        samples.sort_by_key(|s| s.0);
        let now = samples.last().expect("nonempty").0;
        for &(t, v) in &samples {
            db.record_at("m", t, v);
        }
        let raw = db.query_at("m", 1, now).expect("raw series");
        let coarse = db.query_at("m", coarse_period, now).expect("coarse series");
        for c in &coarse {
            let span: Vec<_> = raw
                .iter()
                .filter(|p| p.t_secs >= c.t_secs && p.t_secs < c.t_secs + coarse_period)
                .collect();
            prop_assert!(!span.is_empty(), "coarse bucket at {} with no raw points", c.t_secs);
            prop_assert_eq!(c.count, span.iter().map(|p| p.count).sum::<u64>());
            let sum: f64 = span.iter().map(|p| p.sum).sum();
            prop_assert!((c.sum - sum).abs() < 1e-6, "sum {} != {}", c.sum, sum);
            let min = span.iter().map(|p| p.min).fold(f64::INFINITY, f64::min);
            let max = span.iter().map(|p| p.max).fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(c.min, min);
            prop_assert_eq!(c.max, max);
            prop_assert_eq!(c.last, span.last().expect("nonempty span").last);
        }
        // And the other direction: every raw point is covered by
        // exactly one coarse bucket.
        let raw_count: u64 = raw.iter().map(|p| p.count).sum();
        let coarse_count: u64 = coarse.iter().map(|p| p.count).sum();
        prop_assert_eq!(raw_count, coarse_count);
    }

    /// Ring expiry: once the clock laps the raw ring, old samples are
    /// excluded from the answer — and a stale slot can never shadow a
    /// fresh one.
    #[test]
    fn tsdb_expiry_excludes_stale_points(
        slots in 4usize..40,
        old_ts in proptest::collection::vec(0u64..50, 1..20),
        gap in 0u64..30,
    ) {
        let db = Tsdb::new(&[Resolution { period_secs: 1, slots }]);
        for &t in &old_ts {
            db.record_at("m", t, 1.0);
        }
        let oldest_live = old_ts.iter().max().expect("nonempty") + gap + slots as u64;
        let fresh_t = oldest_live + 1;
        db.record_at("m", fresh_t, 2.0);
        let points = db.query_at("m", 1, fresh_t).expect("series");
        prop_assert_eq!(points.len(), 1, "stale laps leaked: {:?}", points);
        prop_assert_eq!(points[0].t_secs, fresh_t);
    }

    /// Buckets nothing was recorded into are absent from the answer —
    /// not zero-filled — and the present ones are exactly the distinct
    /// recorded seconds, in order.
    #[test]
    fn tsdb_empty_windows_are_absent(
        raw_ts in proptest::collection::vec(0u64..200, 1..40),
    ) {
        let ts: std::collections::BTreeSet<u64> = raw_ts.into_iter().collect();
        let db = Tsdb::new(&[Resolution { period_secs: 1, slots: 256 }]);
        for &t in &ts {
            db.record_at("m", t, t as f64);
        }
        let now = *ts.iter().max().expect("nonempty");
        let points = db.query_at("m", 1, now).expect("series");
        let expected: Vec<u64> = ts.iter().copied().collect();
        prop_assert_eq!(
            points.iter().map(|p| p.t_secs).collect::<Vec<_>>(),
            expected
        );
        prop_assert!(points.iter().all(|p| p.count >= 1));
    }

    /// The burn-rate alert tracks a from-scratch reference model
    /// exactly, at every second of an arbitrary good/bad traffic
    /// shape: it fires iff *both* windows reach the fire threshold,
    /// holds while either window still burns past the clear
    /// threshold (hysteresis), and edge-counts every transition.
    #[test]
    fn burn_rate_alerts_match_the_reference_model(
        fast in 1u64..5,
        slow_extra in 0u64..15,
        objective_tenths in 900u64..999,
        seconds in proptest::collection::vec((0u8..20, 0u8..20), 1..80),
    ) {
        let fast_secs = fast;
        let slow_secs = fast + slow_extra;
        let window_secs = slow_secs.max(30);
        let objective_pct = objective_tenths as f64 / 10.0;
        let spec = SloSpec {
            name: "prop".to_owned(),
            kind: SloKind::Availability,
            objective_pct,
            window_secs,
            fast_secs,
            slow_secs,
        };
        let engine = SloEngine::new(vec![spec], Arc::default());

        let mut history: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        let mut model_firing = false;
        let (mut model_fired, mut model_cleared) = (0u64, 0u64);
        let budget = 1.0 - objective_pct / 100.0;
        for (t, &(good, bad)) in seconds.iter().enumerate() {
            let t = t as u64;
            for _ in 0..good {
                engine.record_at(t, true, 0);
            }
            for _ in 0..bad {
                engine.record_at(t, false, 0);
            }
            let entry = history.entry(t).or_insert((0, 0));
            entry.0 += u64::from(good);
            entry.1 += u64::from(good) + u64::from(bad);

            let burn_over = |w: u64| {
                let from = (t + 1).saturating_sub(w);
                let (mut g, mut n) = (0u64, 0u64);
                for (_, &(wg, wn)) in history.range(from..=t) {
                    g += wg;
                    n += wn;
                }
                if n == 0 {
                    0.0
                } else {
                    ((n - g) as f64 / n as f64) / budget
                }
            };
            let (fast_burn, slow_burn) = (burn_over(fast_secs), burn_over(slow_secs));
            if !model_firing && fast_burn >= FIRE_BURN && slow_burn >= FIRE_BURN {
                model_firing = true;
                model_fired += 1;
            } else if model_firing && fast_burn < CLEAR_BURN && slow_burn < CLEAR_BURN {
                model_firing = false;
                model_cleared += 1;
            }

            engine.evaluate_at(t);
            let snap = &engine.snapshot_at(t)[0];
            prop_assert_eq!(
                snap.firing, model_firing,
                "firing diverged at t={} (fast {:.2} slow {:.2})", t, fast_burn, slow_burn
            );
            prop_assert_eq!(snap.fired_total, model_fired);
            prop_assert_eq!(snap.cleared_total, model_cleared);
            prop_assert!((snap.fast_burn - fast_burn).abs() < 1e-9);
            prop_assert!((snap.slow_burn - slow_burn).abs() < 1e-9);
        }
    }
}
