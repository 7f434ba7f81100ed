//! Span-based tracing: a thread-local span stack with monotonic
//! timestamps and per-request trace ids.
//!
//! A *span* is one timed region of code, opened with [`span()`] and
//! closed when the returned guard drops. Spans nest lexically: the
//! thread-local depth counter records how deep each span sat on its
//! thread's stack, and the monotonic `start`/`duration` pair makes the
//! nesting reconstructible from timestamps alone (what the
//! [`chrome`](crate::chrome) exporter relies on).
//!
//! **Cost when disabled** (the default): one `Ordering::Relaxed` atomic
//! load per [`span()`] call — no clock read, no allocation. This is the
//! property the `crates/bench` overhead benchmark pins down.
//!
//! **Trace ids** correlate spans and log lines with the request that
//! caused them: a transport assigns one id per request
//! ([`next_trace_id`]) and wraps the request's execution in
//! [`with_trace_id`]; every span and log line produced on that thread
//! while the guard lives carries the id.
//!
//! Records accumulate in a global collector ([`take_spans`] drains it),
//! capped at [`MAX_RECORDED_SPANS`] so a forgotten `set_enabled(true)`
//! cannot grow memory without bound; overflow is counted in
//! [`dropped_spans`].
//!
//! **Per-thread capture** ([`capture`]) is the second consumer: a
//! server worker opens a capture guard around one request, and every
//! span the thread closes while the guard lives is *also* buffered
//! thread-locally (capped at [`MAX_CAPTURED_SPANS`]), independent of
//! the global switch. The journal's tail-sampled exemplars are built
//! from these buffers. All switches fold into one atomic word
//! (`STATE`: bit 0 = global, bit 1 = sampling profiler, upper bits =
//! live capture guards), so the fully-disabled fast path is still
//! exactly one relaxed load.
//!
//! **The live stack** ([`LiveStack`]) is the third consumer: when
//! sampling is on ([`set_sampling`]), every thread that opens spans
//! maintains a fixed-depth stack of the *currently open* span names,
//! readable lock-free by the sampling profiler's background thread
//! ([`crate::sampler`]). Each stack slot is a per-slot seqlock over the
//! `(ptr, len)` pair of a `&'static str`: the owning thread is the only
//! writer, and a reader that observes an unchanged even sequence number
//! on both sides of its loads has read a consistent pair — a torn
//! pointer/length combination is impossible, which is what makes the
//! `unsafe` reconstruction of the `&'static str` sound.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{
    fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering,
};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Upper bound on buffered span records (~48 MB worst case).
pub const MAX_RECORDED_SPANS: usize = 1 << 20;

/// Upper bound on spans buffered by one capture guard (bounds exemplar
/// size; a request past the cap keeps its first spans).
pub const MAX_CAPTURED_SPANS: usize = 4096;

/// Bit 0: global collection on. Bit 1: the sampling profiler wants
/// live stacks maintained. Each live [`CaptureGuard`] adds
/// [`CAPTURE_UNIT`]. Zero means "nothing to do" — the one-relaxed-load
/// fast path the overhead benchmark pins down.
static STATE: AtomicU32 = AtomicU32::new(0);
const GLOBAL_BIT: u32 = 1;
const SAMPLER_BIT: u32 = 2;
const CAPTURE_UNIT: u32 = 4;

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static COLLECTOR: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
    static TRACE_ID: Cell<u64> = const { Cell::new(0) };
    static DEPTH: Cell<u16> = const { Cell::new(0) };
    /// `Some` while a capture guard is live on this thread.
    static CAPTURE: RefCell<Option<Vec<SpanRecord>>> = const { RefCell::new(None) };
}

/// One completed span, timestamped in nanoseconds since the trace epoch
/// (the first moment tracing was enabled in this process).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (static, from the instrumentation site).
    pub name: &'static str,
    /// Trace id active on the thread when the span closed (0 = none).
    pub trace: u64,
    /// Small stable id of the recording thread.
    pub thread: u64,
    /// Nesting depth on the recording thread (0 = top level).
    pub depth: u16,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Depth cap of the lock-free live stack each sampled thread maintains.
/// Spans opened deeper than this still record normally — they just do
/// not appear in sampled stacks.
pub const MAX_LIVE_DEPTH: usize = 64;

/// One slot of a [`LiveStack`]: a single-writer seqlock over the
/// `(ptr, len)` pair of a `&'static str` span name. The owning thread
/// bumps `seq` to odd, stores the pair, bumps `seq` to even; a reader
/// that sees the same even `seq` on both sides of its pair loads has a
/// consistent name.
struct LiveSlot {
    seq: AtomicU32,
    ptr: AtomicPtr<u8>,
    len: AtomicUsize,
}

impl LiveSlot {
    fn new() -> Self {
        Self {
            seq: AtomicU32::new(0),
            ptr: AtomicPtr::new(std::ptr::null_mut()),
            len: AtomicUsize::new(0),
        }
    }
}

/// The per-thread stack of currently open span names, maintained by
/// the owning thread on span open/close and read lock-free by the
/// sampling profiler's background thread (see [`crate::sampler`]).
///
/// Never freed: stacks are leaked once per OS thread that ever opened a
/// span while sampling was on, parked on a free list when the thread
/// exits, and reused by later threads — bounded by the process's peak
/// thread count, a few KB each.
pub struct LiveStack {
    in_use: AtomicBool,
    depth: AtomicUsize,
    slots: [LiveSlot; MAX_LIVE_DEPTH],
}

impl LiveStack {
    fn new() -> Self {
        Self {
            in_use: AtomicBool::new(false),
            depth: AtomicUsize::new(0),
            slots: std::array::from_fn(|_| LiveSlot::new()),
        }
    }

    /// Pushes `name` (owning thread only).
    fn push(&self, name: &'static str) {
        let d = self.depth.load(Ordering::Relaxed);
        if d < MAX_LIVE_DEPTH {
            let slot = &self.slots[d];
            // Seqlock write: odd seq marks the pair as in flux. The
            // release fence orders the data stores after the odd store
            // from a reader's perspective; the final release store
            // publishes the even seq after the data.
            let seq = slot.seq.load(Ordering::Relaxed);
            slot.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
            fence(Ordering::Release);
            slot.ptr.store(name.as_ptr().cast_mut(), Ordering::Relaxed);
            slot.len.store(name.len(), Ordering::Relaxed);
            slot.seq.store(seq.wrapping_add(2), Ordering::Release);
        }
        self.depth.store(d + 1, Ordering::Release);
    }

    /// Pops the top entry (owning thread only). The slot contents are
    /// left behind; depth alone bounds what readers see.
    fn pop(&self) {
        let d = self.depth.load(Ordering::Relaxed);
        self.depth.store(d.saturating_sub(1), Ordering::Release);
    }

    /// Reads the current stack into `out` (any thread). The result is a
    /// consistent-per-frame snapshot: every name is a real `&'static
    /// str` from some instrumentation site (the seqlock forbids torn
    /// `(ptr, len)` pairs), though frames racing a concurrent push/pop
    /// may mix adjacent instants — acceptable noise for a statistical
    /// profiler. A frame that stays in flux is skipped, never spun on
    /// unboundedly.
    pub fn read_into(&self, out: &mut Vec<&'static str>) {
        out.clear();
        let depth = self.depth.load(Ordering::Acquire).min(MAX_LIVE_DEPTH);
        'frames: for slot in &self.slots[..depth] {
            for _ in 0..64 {
                let before = slot.seq.load(Ordering::Acquire);
                if before % 2 == 1 {
                    std::hint::spin_loop();
                    continue;
                }
                let ptr = slot.ptr.load(Ordering::Relaxed);
                let len = slot.len.load(Ordering::Relaxed);
                fence(Ordering::Acquire);
                let after = slot.seq.load(Ordering::Relaxed);
                if before != after {
                    std::hint::spin_loop();
                    continue;
                }
                if ptr.is_null() {
                    continue 'frames;
                }
                // SAFETY: the seqlock read protocol above guarantees
                // `(ptr, len)` were stored together by one `push` of a
                // `&'static str`, whose bytes live for the program's
                // lifetime — so the slice is valid UTF-8 forever.
                let name =
                    unsafe { std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr, len)) };
                out.push(name);
                continue 'frames;
            }
            // Frame stayed in flux: give up on it (and deeper frames
            // would be even noisier — stop here).
            break;
        }
    }
}

/// Every live stack ever registered (leaked; see [`LiveStack`]).
static LIVE_REGISTRY: Mutex<Vec<&'static LiveStack>> = Mutex::new(Vec::new());

/// Claims a parked stack or leaks a fresh one.
fn acquire_live() -> &'static LiveStack {
    let mut registry = LIVE_REGISTRY.lock().expect("live-stack registry poisoned");
    for stack in registry.iter() {
        if !stack.in_use.swap(true, Ordering::Acquire) {
            stack.depth.store(0, Ordering::Release);
            return stack;
        }
    }
    let stack: &'static LiveStack = Box::leak(Box::new(LiveStack::new()));
    stack.in_use.store(true, Ordering::Relaxed);
    registry.push(stack);
    stack
}

/// Owns this thread's claim on a registry stack; parks it on drop so a
/// dead thread's stale frames never reach the sampler.
struct LiveHandle(&'static LiveStack);

impl Drop for LiveHandle {
    fn drop(&mut self) {
        self.0.depth.store(0, Ordering::Release);
        self.0.in_use.store(false, Ordering::Release);
    }
}

thread_local! {
    static LIVE: LiveHandle = LiveHandle(acquire_live());
}

/// Pushes onto this thread's live stack; `false` when the thread is
/// tearing down (its handle is gone, so there is nothing to pop later).
fn live_push(name: &'static str) -> bool {
    LIVE.try_with(|h| h.0.push(name)).is_ok()
}

fn live_pop() {
    let _ = LIVE.try_with(|h| h.0.pop());
}

/// Every registered live stack, for the sampler to read. Parked stacks
/// (exited threads) report depth 0 and contribute nothing.
#[must_use]
pub fn live_stacks() -> Vec<&'static LiveStack> {
    LIVE_REGISTRY
        .lock()
        .expect("live-stack registry poisoned")
        .clone()
}

/// Turns live-stack maintenance on or off (process-global). On only
/// while the sampling profiler runs; [`span()`] keeps its
/// one-relaxed-load fast path when both this and collection are off.
pub fn set_sampling(on: bool) {
    if on {
        STATE.fetch_or(SAMPLER_BIT, Ordering::Relaxed);
    } else {
        STATE.fetch_and(!SAMPLER_BIT, Ordering::Relaxed);
    }
}

/// Is live-stack maintenance currently on?
#[inline]
#[must_use]
pub fn sampling() -> bool {
    STATE.load(Ordering::Relaxed) & SAMPLER_BIT != 0
}

/// Turns span collection on or off (process-global).
pub fn set_enabled(on: bool) {
    if on {
        EPOCH.get_or_init(Instant::now);
        STATE.fetch_or(GLOBAL_BIT, Ordering::Relaxed);
    } else {
        STATE.fetch_and(!GLOBAL_BIT, Ordering::Relaxed);
    }
}

/// Is span collection currently on?
#[inline]
#[must_use]
pub fn enabled() -> bool {
    STATE.load(Ordering::Relaxed) & GLOBAL_BIT != 0
}

/// Starts buffering this thread's spans until the guard is dropped or
/// [`finish`](CaptureGuard::finish)ed. Not nestable: a second guard on
/// the same thread restarts the buffer. The spans double-report — a
/// capture does not remove them from the global collector when that is
/// also enabled.
#[must_use]
pub fn capture() -> CaptureGuard {
    EPOCH.get_or_init(Instant::now);
    STATE.fetch_add(CAPTURE_UNIT, Ordering::Relaxed);
    CAPTURE.with(|c| *c.borrow_mut() = Some(Vec::new()));
    CaptureGuard { finished: false }
}

/// Active per-thread span capture; see [`capture`].
#[derive(Debug)]
pub struct CaptureGuard {
    finished: bool,
}

impl CaptureGuard {
    /// Ends the capture and returns the buffered spans.
    #[must_use]
    pub fn finish(mut self) -> Vec<SpanRecord> {
        self.finished = true;
        self.teardown()
    }

    fn teardown(&self) -> Vec<SpanRecord> {
        let spans = CAPTURE.with(|c| c.borrow_mut().take()).unwrap_or_default();
        STATE.fetch_sub(CAPTURE_UNIT, Ordering::Relaxed);
        spans
    }
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.teardown();
        }
    }
}

fn thread_id() -> u64 {
    THREAD_ID.with(|id| {
        let mut v = id.get();
        if v == 0 {
            v = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            id.set(v);
        }
        v
    })
}

/// A fresh process-unique trace id (never 0).
#[must_use]
pub fn next_trace_id() -> u64 {
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

/// The trace id active on this thread (0 = none).
#[must_use]
pub fn current_trace_id() -> u64 {
    TRACE_ID.with(Cell::get)
}

/// Marks this thread as working on trace `id` until the guard drops
/// (the previous id is restored, so nested scopes compose).
#[must_use]
pub fn with_trace_id(id: u64) -> TraceGuard {
    TraceGuard {
        prev: TRACE_ID.with(|t| t.replace(id)),
    }
}

/// Restores the thread's previous trace id on drop.
#[derive(Debug)]
pub struct TraceGuard {
    prev: u64,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        TRACE_ID.with(|t| t.set(self.prev));
    }
}

/// An open span; the region ends (and the record is emitted) when this
/// guard drops. An inert payload means tracing was disabled at open.
#[must_use = "a span measures the region until the guard drops"]
#[derive(Debug)]
pub struct Span(SpanInner);

#[derive(Debug)]
enum SpanInner {
    /// Nothing to do at close.
    Inert,
    /// Only the sampler's live stack holds this span: pop it at close,
    /// no clock read, no record.
    SampledOnly,
    /// A timed span headed for the collector and/or a capture buffer.
    Recorded { live: LiveSpan, sampled: bool },
}

#[derive(Debug)]
struct LiveSpan {
    name: &'static str,
    start: Instant,
    start_ns: u64,
    depth: u16,
    /// Destined for the global collector.
    global: bool,
}

/// Opens a span named `name`. When tracing, sampling, and capture are
/// all off, this is one relaxed atomic load and returns an inert guard.
/// With only sampling on, the span costs a live-stack push/pop (a few
/// uncontended atomic stores) — no clock read, no allocation.
#[inline]
pub fn span(name: &'static str) -> Span {
    let state = STATE.load(Ordering::Relaxed);
    if state == 0 {
        return Span(SpanInner::Inert);
    }
    let sampled = state & SAMPLER_BIT != 0 && live_push(name);
    let global = state & GLOBAL_BIT != 0;
    // A capture guard on *some* thread forces this (cheap) thread-local
    // check; only the capturing thread pays for the record itself.
    let capturing = state >= CAPTURE_UNIT
        && CAPTURE.with(|c| {
            c.borrow()
                .as_ref()
                .is_some_and(|buf| buf.len() < MAX_CAPTURED_SPANS)
        });
    if !global && !capturing {
        return Span(if sampled {
            SpanInner::SampledOnly
        } else {
            SpanInner::Inert
        });
    }
    let epoch = *EPOCH.get_or_init(Instant::now);
    let start = Instant::now();
    let start_ns = u64::try_from(start.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX);
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v.saturating_add(1));
        v
    });
    Span(SpanInner::Recorded {
        live: LiveSpan {
            name,
            start,
            start_ns,
            depth,
            global,
        },
        sampled,
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        let (live, sampled) = match std::mem::replace(&mut self.0, SpanInner::Inert) {
            SpanInner::Inert => return,
            SpanInner::SampledOnly => {
                live_pop();
                return;
            }
            SpanInner::Recorded { live, sampled } => (live, sampled),
        };
        if sampled {
            live_pop();
        }
        let dur_ns = u64::try_from(live.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let record = SpanRecord {
            name: live.name,
            trace: current_trace_id(),
            thread: thread_id(),
            depth: live.depth,
            start_ns: live.start_ns,
            dur_ns,
        };
        CAPTURE.with(|c| {
            if let Some(buf) = c.borrow_mut().as_mut() {
                if buf.len() < MAX_CAPTURED_SPANS {
                    buf.push(record);
                }
            }
        });
        if live.global {
            let mut collector = COLLECTOR.lock().expect("span collector poisoned");
            if collector.len() < MAX_RECORDED_SPANS {
                collector.push(record);
            } else {
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Drains and returns every span recorded so far.
#[must_use]
pub fn take_spans() -> Vec<SpanRecord> {
    std::mem::take(&mut *COLLECTOR.lock().expect("span collector poisoned"))
}

/// Spans lost to the [`MAX_RECORDED_SPANS`] cap since process start.
#[must_use]
pub fn dropped_spans() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The span tests toggle the process-global collector, so they run
    /// under one lock to avoid draining each other's records.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        let before = take_spans().len();
        {
            let _s = span("ignored");
        }
        assert_eq!(take_spans().len().min(before), 0);
    }

    #[test]
    fn nested_spans_record_depth_and_containment() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let _drain = take_spans();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                std::hint::black_box(1 + 1);
            }
        }
        set_enabled(false);
        let spans = take_spans();
        assert_eq!(spans.len(), 2);
        // Drop order: inner closes first.
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.thread, outer.thread);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn trace_ids_nest_and_restore() {
        let _guard = TEST_LOCK.lock().unwrap();
        assert_eq!(current_trace_id(), 0);
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
        {
            let _ga = with_trace_id(a);
            assert_eq!(current_trace_id(), a);
            {
                let _gb = with_trace_id(b);
                assert_eq!(current_trace_id(), b);
            }
            assert_eq!(current_trace_id(), a);
        }
        assert_eq!(current_trace_id(), 0);
    }

    #[test]
    fn capture_buffers_spans_without_global_collection() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        let _drain = take_spans();
        let cap = capture();
        {
            let _a = span("captured.outer");
            let _b = span("captured.inner");
        }
        let spans = cap.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "captured.inner");
        // Nothing leaked into the global collector, and dropping the
        // guard restored the one-load fast path.
        assert!(take_spans().is_empty());
        {
            let _c = span("after");
        }
        assert!(take_spans().is_empty());
    }

    #[test]
    fn capture_and_global_collection_compose() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let _drain = take_spans();
        let cap = capture();
        {
            let _s = span("both");
        }
        let captured = cap.finish();
        set_enabled(false);
        let global = take_spans();
        assert_eq!(captured.len(), 1);
        assert_eq!(global.len(), 1);
        assert_eq!(captured[0], global[0]);
    }

    #[test]
    fn capture_is_thread_local() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        let cap = capture();
        std::thread::spawn(|| {
            let _s = span("other-thread");
        })
        .join()
        .unwrap();
        assert!(cap.finish().is_empty());
    }

    #[test]
    fn live_stack_tracks_open_spans_without_collection() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(false);
        set_sampling(true);
        let mut read = Vec::new();
        let mine = LIVE.with(|h| h.0 as *const LiveStack);
        let my_stack = || {
            live_stacks()
                .into_iter()
                .find(|s| std::ptr::eq(*s, mine))
                .expect("this thread's stack is registered")
        };
        {
            let _outer = span("live.outer");
            {
                let _inner = span("live.inner");
                my_stack().read_into(&mut read);
                assert_eq!(read, vec!["live.outer", "live.inner"]);
            }
            my_stack().read_into(&mut read);
            assert_eq!(read, vec!["live.outer"]);
        }
        my_stack().read_into(&mut read);
        assert!(read.is_empty());
        set_sampling(false);
        // With sampling off again the fast path is restored and the
        // stack stays untouched.
        {
            let _s = span("live.after");
            my_stack().read_into(&mut read);
            assert!(read.is_empty());
        }
        assert!(take_spans().is_empty());
    }

    #[test]
    fn live_stack_and_collection_compose() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        set_sampling(true);
        let _drain = take_spans();
        {
            let _s = span("both.worlds");
            let mut read = Vec::new();
            let mine = LIVE.with(|h| h.0 as *const LiveStack);
            live_stacks()
                .into_iter()
                .find(|s| std::ptr::eq(*s, mine))
                .unwrap()
                .read_into(&mut read);
            assert_eq!(read, vec!["both.worlds"]);
        }
        set_sampling(false);
        set_enabled(false);
        let spans = take_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "both.worlds");
    }

    #[test]
    fn exited_threads_park_their_live_stack() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_sampling(true);
        std::thread::spawn(|| {
            let _s = span("dying.thread");
        })
        .join()
        .unwrap();
        set_sampling(false);
        // Every registered stack that is not claimed reports depth 0.
        let mut read = Vec::new();
        for stack in live_stacks() {
            if !stack.in_use.load(Ordering::Acquire) {
                stack.read_into(&mut read);
                assert!(read.is_empty(), "parked stack still shows {read:?}");
            }
        }
    }

    #[test]
    fn live_stack_depth_overflow_is_clamped() {
        let stack = LiveStack::new();
        for _ in 0..(MAX_LIVE_DEPTH + 8) {
            stack.push("deep");
        }
        let mut read = Vec::new();
        stack.read_into(&mut read);
        assert_eq!(read.len(), MAX_LIVE_DEPTH);
        for _ in 0..(MAX_LIVE_DEPTH + 8) {
            stack.pop();
        }
        stack.read_into(&mut read);
        assert!(read.is_empty());
    }

    #[test]
    fn spans_carry_the_active_trace_id() {
        let _guard = TEST_LOCK.lock().unwrap();
        set_enabled(true);
        let _drain = take_spans();
        let id = next_trace_id();
        {
            let _g = with_trace_id(id);
            let _s = span("traced");
        }
        set_enabled(false);
        let spans = take_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].trace, id);
    }
}
