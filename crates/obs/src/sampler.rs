//! The always-on sampling profiler: a background thread that reads
//! every registered [`LiveStack`](crate::span::LiveStack) at a fixed
//! rate and aggregates the observed call paths.
//!
//! Span tracing ([`crate::span`](mod@crate::span)) answers "what happened to *this*
//! request" but costs a clock read and a record per span — too much to
//! leave on for every request forever. The sampler inverts the deal:
//! span sites pay only a live-stack push/pop (a few uncontended atomic
//! stores, no clock), and one background thread wakes `hz` times a
//! second, snapshots each thread's stack of open span names, and counts
//! identical paths. Sampled counts approximate wall time (`samples ×
//! period`), which is exactly what a flamegraph wants; the bench gate
//! pins the overhead on `server_round_trip` at ≤ the regression
//! threshold.
//!
//! One process-global sampler matches the one process-global span
//! state: [`start`] is idempotent, [`stop`] joins the thread and turns
//! live-stack maintenance off again. [`profile`] converts the
//! aggregate into the existing [`Profile`]
//! tree (nanoseconds = samples × period), so
//! [`folded_stacks`](crate::profile::folded_stacks) and
//! [`top_self`](crate::profile::top_self) work unchanged — the server's
//! `GET /profilez` and `{"op":"profile","source":"sampler"}` are thin
//! wrappers, and `route --sample-profile-out` writes the same format.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::profile::{Profile, ProfileNode};
use crate::span;

/// Default sampling rate. Prime, the profiler tradition: a rate that
/// shares no factor with periodic work is less likely to alias onto it.
pub const DEFAULT_HZ: u32 = 97;

/// Cap on distinct call paths retained; beyond it new paths are counted
/// in `paths_dropped` instead of growing memory.
pub const MAX_PATHS: usize = 4096;

#[derive(Default)]
struct Agg {
    /// Observed call path → number of samples that saw it.
    stacks: HashMap<Vec<&'static str>, u64>,
    /// Samples that found at least one open span.
    samples: u64,
    /// Sampler wake-ups, busy or not.
    ticks: u64,
    /// Samples discarded because [`MAX_PATHS`] was reached.
    paths_dropped: u64,
}

struct Sampler {
    agg: Mutex<Agg>,
    running: AtomicBool,
    stop: AtomicBool,
    period_ns: AtomicU64,
    handle: Mutex<Option<JoinHandle<()>>>,
}

fn global() -> &'static Sampler {
    static GLOBAL: OnceLock<Sampler> = OnceLock::new();
    GLOBAL.get_or_init(|| Sampler {
        agg: Mutex::new(Agg::default()),
        running: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        period_ns: AtomicU64::new(0),
        handle: Mutex::new(None),
    })
}

/// Starts the global sampler at `hz` samples per second. Returns `false`
/// (and does nothing) when `hz` is 0 or a sampler is already running.
pub fn start(hz: u32) -> bool {
    let s = global();
    if hz == 0 || s.running.swap(true, Ordering::AcqRel) {
        return false;
    }
    let period = Duration::from_secs(1) / hz;
    s.period_ns.store(
        period.as_nanos().min(u128::from(u64::MAX)) as u64,
        Ordering::Relaxed,
    );
    s.stop.store(false, Ordering::Release);
    span::set_sampling(true);
    let handle = std::thread::Builder::new()
        .name("ntr-sampler".to_owned())
        .spawn(move || sample_loop(global(), period))
        .expect("spawning the sampler thread failed");
    *s.handle.lock().expect("sampler handle poisoned") = Some(handle);
    true
}

/// Stops the global sampler and turns live-stack maintenance off.
/// Idempotent; the aggregate survives for post-hoc [`profile`] reads.
pub fn stop() {
    let s = global();
    if !s.running.load(Ordering::Acquire) {
        return;
    }
    s.stop.store(true, Ordering::Release);
    if let Some(handle) = s.handle.lock().expect("sampler handle poisoned").take() {
        let _ = handle.join();
    }
    span::set_sampling(false);
    s.running.store(false, Ordering::Release);
}

/// Is the global sampler currently running?
#[must_use]
pub fn is_running() -> bool {
    global().running.load(Ordering::Acquire)
}

/// The configured sampling rate in Hz (0 before the first [`start`]).
#[must_use]
pub fn rate_hz() -> u32 {
    let period = global().period_ns.load(Ordering::Relaxed);
    1_000_000_000u64.checked_div(period).unwrap_or(0) as u32
}

/// Samples taken so far that observed at least one open span.
#[must_use]
pub fn sample_count() -> u64 {
    global()
        .agg
        .lock()
        .expect("sampler aggregate poisoned")
        .samples
}

/// Sampler wake-ups so far (busy or idle).
#[must_use]
pub fn tick_count() -> u64 {
    global()
        .agg
        .lock()
        .expect("sampler aggregate poisoned")
        .ticks
}

/// Discards the aggregate (tests, and `route`'s one-shot runs).
pub fn reset() {
    let mut agg = global().agg.lock().expect("sampler aggregate poisoned");
    *agg = Agg::default();
}

fn sample_loop(s: &'static Sampler, period: Duration) {
    let mut buf: Vec<&'static str> = Vec::with_capacity(span::MAX_LIVE_DEPTH);
    while !s.stop.load(Ordering::Acquire) {
        let stacks = span::live_stacks();
        {
            let mut agg = s.agg.lock().expect("sampler aggregate poisoned");
            agg.ticks += 1;
            for stack in stacks {
                stack.read_into(&mut buf);
                if buf.is_empty() {
                    continue;
                }
                if let Some(count) = agg.stacks.get_mut(buf.as_slice()) {
                    *count += 1;
                } else if agg.stacks.len() < MAX_PATHS {
                    agg.stacks.insert(buf.clone(), 1);
                } else {
                    agg.paths_dropped += 1;
                    continue;
                }
                agg.samples += 1;
            }
        }
        std::thread::sleep(period);
    }
}

fn blank(name: &'static str) -> ProfileNode {
    ProfileNode {
        name,
        inclusive_ns: 0,
        self_ns: 0,
        count: 0,
        children: Vec::new(),
    }
}

fn fill_inclusive(node: &mut ProfileNode) -> u64 {
    let children: u64 = node.children.iter_mut().map(fill_inclusive).sum();
    node.inclusive_ns = node.self_ns.saturating_add(children);
    node.inclusive_ns
}

/// The sampled aggregate as a [`Profile`] tree: each sample contributes
/// one sampling period of self time to the deepest frame of its path,
/// so subtree self-time sums reconstruct inclusive time exactly — the
/// same invariant the span-based profile keeps, which is what lets
/// [`folded_stacks`](crate::profile::folded_stacks) and
/// [`top_self`](crate::profile::top_self) consume it unchanged.
#[must_use]
pub fn profile() -> Profile {
    let s = global();
    let period = s.period_ns.load(Ordering::Relaxed).max(1);
    let agg = s.agg.lock().expect("sampler aggregate poisoned");
    // Deterministic output: HashMap order is arbitrary, folded stacks
    // should not be.
    let mut paths: Vec<(&Vec<&'static str>, u64)> =
        agg.stacks.iter().map(|(p, &n)| (p, n)).collect();
    paths.sort_by(|a, b| a.0.cmp(b.0));
    let mut root = blank("");
    for (path, n) in paths {
        let mut node = &mut root;
        for name in path {
            let idx = match node.children.iter().position(|c| c.name == *name) {
                Some(i) => i,
                None => {
                    node.children.push(blank(name));
                    node.children.len() - 1
                }
            };
            node = &mut node.children[idx];
        }
        node.self_ns = node.self_ns.saturating_add(n.saturating_mul(period));
        node.count += n;
    }
    for r in &mut root.children {
        fill_inclusive(r);
    }
    Profile {
        roots: root.children,
        spans: agg.samples as usize,
    }
}

/// The sampled aggregate as flamegraph folded stacks (values are
/// approximate nanoseconds, samples × period).
#[must_use]
pub fn folded() -> String {
    crate::profile::folded_stacks(&profile())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sampler tests drive the one process-global sampler, so they
    /// run under one lock.
    static SAMPLER_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn sampler_observes_live_spans() {
        let _guard = SAMPLER_LOCK.lock().unwrap();
        reset();
        assert!(start(500));
        assert!(is_running());
        assert!(!start(500), "second start must refuse");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut seen = 0;
        while std::time::Instant::now() < deadline {
            let _outer = span::span("sampled.request");
            let _inner = span::span("sampled.solve");
            std::thread::sleep(Duration::from_millis(5));
            seen = sample_count();
            if seen > 3 {
                break;
            }
        }
        stop();
        assert!(!is_running());
        assert!(seen > 3, "sampler took no samples in 5 s");
        let p = profile();
        assert!(p.spans > 0);
        let folded = folded();
        assert!(
            folded.contains("sampled.request"),
            "missing root frame in {folded:?}"
        );
        crate::profile::check_folded(&folded).unwrap();
        // Self times decompose: folded totals equal root inclusive.
        let total: u64 = folded
            .lines()
            .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
            .sum();
        let inclusive: u64 = p.roots.iter().map(|r| r.inclusive_ns).sum();
        assert_eq!(total, inclusive);
    }

    #[test]
    fn stopped_sampler_restores_the_fast_path() {
        let _guard = SAMPLER_LOCK.lock().unwrap();
        reset();
        assert!(start(250));
        stop();
        assert!(!span::sampling());
        assert!(!start(0), "hz 0 must refuse");
        assert!(!is_running());
    }

    #[test]
    fn profile_of_empty_aggregate_is_empty() {
        let _guard = SAMPLER_LOCK.lock().unwrap();
        reset();
        let p = profile();
        assert!(p.roots.is_empty());
        assert_eq!(p.spans, 0);
        assert!(folded().is_empty());
    }
}
