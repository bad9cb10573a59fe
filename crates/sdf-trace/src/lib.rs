//! Zero-dependency observability for the synthesis pipeline.
//!
//! The paper's flow (balance equations → APGAN/RPMC → loop DP → lifetime
//! triples → WIG → first-fit) is a staged compiler pipeline; this crate
//! turns its opaque wall times into actionable data with three pieces:
//!
//! * **spans** — RAII guards created with the [`span!`] macro, capturing
//!   name, key-value arguments, thread, start time and duration, with
//!   nesting tracked per thread so engine → candidate → stage →
//!   inner-algorithm hierarchies survive into the export;
//! * **instruments** — monotonic [counters](counter_add), last-value
//!   [gauges](gauge_set) and power-of-two-bucketed
//!   [histograms](histogram_record) keyed by dotted static names
//!   (`sched.dppo.cells`, `alloc.first_fit.probes`, …);
//! * **exporters** — a chrome://tracing / Perfetto `trace_events` JSON
//!   file, a JSONL event stream, and a self-profile text tree with
//!   inclusive/exclusive times (see [`TraceSnapshot`]).
//!
//! Everything is hand-rolled on `std` only — no external dependencies —
//! and compiles to a no-op when no [`Recorder`] is installed, globally or
//! for a thread ([`scoped_thread`]): the
//! disabled fast path is a single relaxed atomic load, so instrumented
//! algorithms behave bit-for-bit identically with tracing off.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use sdf_trace::{Recorder, span};
//!
//! let recorder = Arc::new(Recorder::new());
//! sdf_trace::scoped(&recorder, || {
//!     let _outer = span!("engine.run", graph = "fig2");
//!     {
//!         let _inner = span!("sched.dppo");
//!         sdf_trace::counter_add("sched.dppo.cells", 3);
//!     }
//! });
//! let snapshot = recorder.snapshot();
//! assert_eq!(snapshot.events.len(), 2);
//! assert_eq!(snapshot.counters, vec![("sched.dppo.cells".to_string(), 3)]);
//! ```

#![warn(missing_docs)]

pub mod expo;
pub mod export;
pub mod flight;
pub mod json;
mod metrics;

pub use export::{CounterTrack, TraceSnapshot};
pub use flight::{CacheStatus, FlightRecord, FlightRecorder, StageSpan};
pub use metrics::{quantile_from_buckets, Histogram};

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Version stamp written into every machine-readable artefact this
/// workspace emits (engine reports, chrome traces, JSONL streams,
/// baseline profiles, `BENCH_*.json`) so downstream parsers can detect
/// format changes.
///
/// History: `1` was the PR 1 `EngineReport` JSON (implicit, no field);
/// `2` added the `schema_version` and `counters` fields plus the trace
/// exports; `3` added per-candidate counter deltas to the engine report
/// and the regression-sentinel baseline/diff documents
/// (`bench/baselines/*.json`, `sdfmem compare --format json`); `4` added
/// the engine report's `dp_mode` field and retimed the DP probe counters
/// to count actual crossing-cost evaluations; `5` added the
/// `executable_plan` and `simulation_report` documents (`sdfmem
/// simulate --report json`) plus the `codegen.*` / `exec.*` counters in
/// baseline profiles (a deliberate baseline refresh, see
/// `docs/file-format.md`); `6` unified the document envelope — every
/// top-level document now opens with the same `kind` +
/// `schema_version` header written by [`json::document`]
/// (`engine_report` gained its `kind` field) — and added the
/// `service_request` / `service_response` / `service_stats` documents
/// of the `sdfmemd` daemon plus its `service.*` counter namespace
/// (another deliberate baseline refresh); `7` added the operational
/// telemetry layer: response envelopes gained a per-request `telemetry`
/// member (composed outside the cached payload bytes), `service_stats`
/// gained histogram summaries, and the daemon grew the
/// `service_metrics` (Prometheus-style exposition) and `service_events`
/// (flight-recorder drain) documents plus the `metrics` / `events` ops
/// (another deliberate baseline refresh); `8` added the allocation
/// provenance layer: the `allocation_explain` document (`sdfmem
/// explain`, the daemon's `explain` op), the per-run
/// `alloc.first_fit.fragmentation` counter next to the last-writer-wins
/// gauge, and Perfetto counter-track (`"ph":"C"`) events in the chrome
/// trace export (another deliberate baseline refresh); `9` added the
/// incremental re-synthesis layer: the `edit` op and its `edit_report`
/// document, the `engine.incremental.*` counter/gauge namespace
/// (session and memo-store accounting in stats, metrics and per-request
/// telemetry), and the `edit_bench` trajectory in `BENCH_9.json`
/// (another deliberate baseline refresh); `10` added the multi-mode
/// layer: the `modes` op and its `mode_report` document (per-mode
/// plans, merged cross-mode pool, persistent-buffer table, transition
/// oracle verdict), the `switch` op in `executable_plan` ops arrays,
/// the `modes.*` counter namespace, and the `mode_bench` trajectory in
/// `BENCH_10.json` (another deliberate baseline refresh).
pub const SCHEMA_VERSION: u32 = 10;

/// Number of event shards; a small power of two keeps cross-thread
/// contention low without wasting memory on mostly-serial runs.
const SHARDS: usize = 8;

/// One completed span, as stored by the collector.
#[derive(Clone, Debug)]
pub struct Event {
    /// Process-wide unique id (monotonic in creation order).
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Static span name (dotted, see `docs/observability.md`).
    pub name: &'static str,
    /// Key-value annotations captured by the [`span!`] macro.
    pub args: Vec<(&'static str, String)>,
    /// Dense id of the thread that recorded the span.
    pub thread: u64,
    /// Start time in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (saturating).
    pub dur_ns: u64,
}

/// The thread-safe collector behind the global tracing facade.
///
/// Spans land in one of [`SHARDS`] mutex-protected vectors selected by
/// thread id; instruments live in one mutex-protected map (increments
/// are batched by the instrumented algorithms, so the lock is cold).
pub struct Recorder {
    epoch: Instant,
    shards: Vec<Mutex<Vec<Event>>>,
    metrics: Mutex<metrics::MetricsMap>,
}

impl Recorder {
    /// A fresh, empty recorder; its epoch (time zero of every event) is
    /// the moment of construction.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            metrics: Mutex::new(metrics::MetricsMap::default()),
        }
    }

    fn record(&self, event: Event) {
        let shard = event.thread as usize % self.shards.len();
        lock(&self.shards[shard]).push(event);
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        let mut m = lock(&self.metrics);
        let slot = m.counters.entry(name).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge_set(&self, name: &'static str, value: u64) {
        lock(&self.metrics).gauges.insert(name, value);
    }

    /// Records `value` into the named power-of-two histogram.
    pub fn histogram_record(&self, name: &'static str, value: u64) {
        lock(&self.metrics)
            .histograms
            .entry(name)
            .or_default()
            .record(value);
    }

    /// Nanoseconds elapsed since this recorder's epoch — the time base
    /// of every event it stores. Pairs with [`Recorder::record_span`]
    /// for callers that measure their own intervals.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a completed span directly on this recorder, bypassing
    /// the process-global facade.
    ///
    /// This is for subsystems that *own* a recorder — the `sdfmemd`
    /// daemon records per-job lifecycle spans on its private recorder
    /// without installing it globally, so job execution stays
    /// bit-for-bit identical to an untraced run. `start_ns` is relative
    /// to this recorder's epoch (see [`Recorder::now_ns`]); the span is
    /// recorded parentless on the calling thread.
    pub fn record_span(
        &self,
        name: &'static str,
        args: Vec<(&'static str, String)>,
        start_ns: u64,
        dur_ns: u64,
    ) {
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let thread = THREAD_ID.with(|t| *t);
        self.record(Event {
            id,
            parent: None,
            name,
            args,
            thread,
            start_ns,
            dur_ns,
        });
    }

    /// Current counter values, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        lock(&self.metrics)
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    /// Current gauge values, sorted by name.
    pub fn gauges(&self) -> Vec<(String, u64)> {
        lock(&self.metrics)
            .gauges
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    /// Copies of the current histograms, sorted by name.
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        lock(&self.metrics)
            .histograms
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    /// A consistent copy of everything recorded so far: events sorted by
    /// start time (ties by id), plus all instruments.
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut events: Vec<Event> = self.shards.iter().flat_map(|s| lock(s).clone()).collect();
        events.sort_by_key(|e| (e.start_ns, e.id));
        let m = lock(&self.metrics);
        TraceSnapshot {
            schema_version: SCHEMA_VERSION,
            events,
            counters: m
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            gauges: m.gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            histograms: m
                .histograms
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

// ---------------------------------------------------------------------
// Global facade.

/// Bit 0: a global recorder is installed; the bits above count live
/// [`scoped_thread`] scopes.  Non-zero means some recorder may listen.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);
const GLOBAL_INSTALLED: usize = 1;
const THREAD_SCOPE: usize = 2;
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn slot() -> &'static Mutex<Option<Arc<Recorder>>> {
    static SLOT: OnceLock<Mutex<Option<Arc<Recorder>>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

fn scope_lock() -> &'static Mutex<()> {
    static SCOPE: OnceLock<Mutex<()>> = OnceLock::new();
    SCOPE.get_or_init(|| Mutex::new(()))
}

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_RECORDER: RefCell<Option<Arc<Recorder>>> = const { RefCell::new(None) };
}

/// Installs `recorder` as the process-global collector, enabling all
/// spans and instruments. Prefer [`scoped`] where possible — it pairs
/// the install with the uninstall and serialises concurrent scopes.
pub fn install(recorder: Arc<Recorder>) {
    *lock(slot()) = Some(recorder);
    ACTIVE.fetch_or(GLOBAL_INSTALLED, Ordering::SeqCst);
}

/// Removes the global recorder (tracing becomes a no-op again) and
/// returns it, if one was installed.
pub fn uninstall() -> Option<Arc<Recorder>> {
    ACTIVE.fetch_and(!GLOBAL_INSTALLED, Ordering::SeqCst);
    lock(slot()).take()
}

/// Whether a global recorder is installed or some thread runs inside
/// [`scoped_thread`]. This is the disabled fast path: one relaxed atomic
/// load.
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// The recorder the calling thread reports to: its [`scoped_thread`]
/// recorder if it has one, else the globally installed one, if any.
pub fn current() -> Option<Arc<Recorder>> {
    if !enabled() {
        return None;
    }
    THREAD_RECORDER
        .with(|r| r.borrow().clone())
        .or_else(|| lock(slot()).clone())
}

/// Runs `f` with `recorder` installed, uninstalling on the way out
/// (including on panic). Concurrent `scoped` calls — e.g. parallel
/// tests in one binary — are serialised on a global lock so their
/// events never interleave.
pub fn scoped<T>(recorder: &Arc<Recorder>, f: impl FnOnce() -> T) -> T {
    let _serial = lock(scope_lock());
    struct Uninstall;
    impl Drop for Uninstall {
        fn drop(&mut self) {
            uninstall();
        }
    }
    install(Arc::clone(recorder));
    let _uninstall = Uninstall;
    f()
}

/// Runs `f` with `recorder` receiving the spans and instruments of the
/// calling thread only, restoring the thread's previous scope on the way
/// out (including on panic).
///
/// Unlike [`scoped`] this takes no global lock and is isolated both
/// ways: work on other threads — concurrently running tests, other
/// requests — never reaches `recorder`, and the calling thread reports
/// nothing to a globally installed one meanwhile. It therefore suits
/// serial regions only; work `f` hands to other threads goes unrecorded.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use sdf_trace::Recorder;
///
/// let recorder = Arc::new(Recorder::new());
/// sdf_trace::scoped_thread(&recorder, || {
///     sdf_trace::counter_add("mine", 1);
///     std::thread::spawn(|| sdf_trace::counter_add("elsewhere", 1))
///         .join()
///         .unwrap();
/// });
/// assert_eq!(recorder.counters(), vec![("mine".to_string(), 1)]);
/// ```
pub fn scoped_thread<T>(recorder: &Arc<Recorder>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Arc<Recorder>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let previous = self.0.take();
            THREAD_RECORDER.with(|r| *r.borrow_mut() = previous);
            ACTIVE.fetch_sub(THREAD_SCOPE, Ordering::SeqCst);
        }
    }
    ACTIVE.fetch_add(THREAD_SCOPE, Ordering::SeqCst);
    let previous = THREAD_RECORDER.with(|r| r.borrow_mut().replace(Arc::clone(recorder)));
    let _restore = Restore(previous);
    f()
}

/// Adds `delta` to a counter on the installed recorder (no-op when
/// tracing is disabled).
pub fn counter_add(name: &'static str, delta: u64) {
    if let Some(recorder) = current() {
        recorder.counter_add(name, delta);
    }
}

/// Increments a counter by one (no-op when tracing is disabled).
pub fn counter_inc(name: &'static str) {
    counter_add(name, 1);
}

/// Sets a gauge (no-op when tracing is disabled).
pub fn gauge_set(name: &'static str, value: u64) {
    if let Some(recorder) = current() {
        recorder.gauge_set(name, value);
    }
}

/// Records a histogram sample (no-op when tracing is disabled).
pub fn histogram_record(name: &'static str, value: u64) {
    if let Some(recorder) = current() {
        recorder.histogram_record(name, value);
    }
}

/// Current counter values of the installed recorder (empty when tracing
/// is disabled). Used by `EngineReport` to embed its counters section.
pub fn counter_values() -> Vec<(String, u64)> {
    current().map(|r| r.counters()).unwrap_or_default()
}

/// A point-in-time copy of the installed recorder's counters, used to
/// attribute work to a region by differencing two captures.
///
/// This is the profile-snapshot primitive behind per-candidate counter
/// deltas in the engine report and the regression sentinel's baseline
/// profiles: capture once, run the region, then ask for the
/// [delta](CounterSnapshot::delta_since) — every counter that moved, by
/// how much, sorted by name.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use sdf_trace::{CounterSnapshot, Recorder};
///
/// let recorder = Arc::new(Recorder::new());
/// sdf_trace::scoped(&recorder, || {
///     sdf_trace::counter_add("work.before", 2);
///     let snap = CounterSnapshot::capture();
///     sdf_trace::counter_add("work.inner", 5);
///     sdf_trace::counter_add("work.before", 1);
///     assert_eq!(
///         snap.delta_since(),
///         vec![("work.before".to_string(), 1), ("work.inner".to_string(), 5)]
///     );
/// });
/// ```
#[derive(Clone, Debug, Default)]
pub struct CounterSnapshot {
    values: Vec<(String, u64)>,
}

impl CounterSnapshot {
    /// Captures the current counter values (empty when tracing is
    /// disabled, making the later delta the full counter set).
    pub fn capture() -> Self {
        CounterSnapshot {
            values: counter_values(),
        }
    }

    /// Captures the counter values of a *specific* recorder, bypassing
    /// the global facade. This is how the `sdfmemd` daemon attributes
    /// `service.*` counter movement to an individual request on its
    /// private recorder without installing it globally.
    pub fn capture_from(recorder: &Recorder) -> Self {
        CounterSnapshot {
            values: recorder.counters(),
        }
    }

    /// Counters that increased since this capture, as sorted
    /// `(name, delta)` pairs; unchanged counters are omitted.
    ///
    /// Counters are monotonic, so the current value is never below the
    /// captured one while the same recorder stays installed; a recorder
    /// swap in between saturates at zero instead of underflowing.
    pub fn delta_since(&self) -> Vec<(String, u64)> {
        self.delta_against(counter_values())
    }

    /// Like [`delta_since`](CounterSnapshot::delta_since) but against a
    /// specific recorder's current counters — the pair of
    /// [`capture_from`](CounterSnapshot::capture_from).
    pub fn delta_since_from(&self, recorder: &Recorder) -> Vec<(String, u64)> {
        self.delta_against(recorder.counters())
    }

    fn delta_against(&self, now: Vec<(String, u64)>) -> Vec<(String, u64)> {
        let mut base = self.values.iter().peekable();
        let mut delta = Vec::new();
        for (name, value) in now {
            let mut previous = 0;
            while let Some((base_name, base_value)) = base.peek() {
                match base_name.as_str().cmp(name.as_str()) {
                    std::cmp::Ordering::Less => {
                        base.next();
                    }
                    std::cmp::Ordering::Equal => {
                        previous = *base_value;
                        base.next();
                        break;
                    }
                    std::cmp::Ordering::Greater => break,
                }
            }
            let moved = value.saturating_sub(previous);
            if moved > 0 {
                delta.push((name, moved));
            }
        }
        delta
    }
}

// ---------------------------------------------------------------------
// Spans.

/// An RAII span guard: created by [`span!`] (or [`Span::enter`]), it
/// records one [`Event`] when dropped. When no recorder is installed the
/// guard is an inert `None` and costs one atomic load.
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    recorder: Arc<Recorder>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    args: Vec<(&'static str, String)>,
    thread: u64,
    start_ns: u64,
    started: Instant,
}

impl Span {
    /// Opens a span; prefer the [`span!`] macro, which skips evaluating
    /// `args` entirely when tracing is disabled.
    pub fn enter(name: &'static str, args: Vec<(&'static str, String)>) -> Span {
        let Some(recorder) = current() else {
            return Span { inner: None };
        };
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let thread = THREAD_ID.with(|t| *t);
        let parent = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let parent = stack.last().copied();
            stack.push(id);
            parent
        });
        let started = Instant::now();
        let start_ns = u64::try_from(started.saturating_duration_since(recorder.epoch).as_nanos())
            .unwrap_or(u64::MAX);
        Span {
            inner: Some(SpanInner {
                recorder,
                id,
                parent,
                name,
                args,
                thread,
                start_ns,
                started,
            }),
        }
    }

    /// Whether this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_ns = u64::try_from(inner.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if stack.last() == Some(&inner.id) {
                stack.pop();
            } else {
                // Out-of-order drop (guards dropped non-LIFO): remove
                // just this id so siblings keep correct parents.
                stack.retain(|&id| id != inner.id);
            }
        });
        inner.recorder.record(Event {
            id: inner.id,
            parent: inner.parent,
            name: inner.name,
            args: inner.args,
            thread: inner.thread,
            start_ns: inner.start_ns,
            dur_ns,
        });
    }
}

/// Opens a named, optionally annotated span:
///
/// ```
/// # use sdf_trace::span;
/// let _guard = span!("sched.dppo");
/// let _guard = span!("engine.order", heuristic = "apgan", actors = 7);
/// ```
///
/// Argument values only need `Display`; they are **not evaluated** when
/// tracing is disabled, so annotating hot paths is free.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($name, ::std::vec::Vec::new())
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::Span::enter(
            $name,
            if $crate::enabled() {
                vec![$((stringify!($key), ($value).to_string())),+]
            } else {
                ::std::vec::Vec::new()
            },
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracing_is_inert() {
        // Not scoped: no recorder installed (scoped tests serialise on
        // the scope lock; this one only asserts the disabled path).
        let _serial = lock(scope_lock());
        assert!(!enabled());
        let guard = span!("nothing", graph = "g");
        assert!(!guard.is_recording());
        counter_add("nothing.count", 5);
        histogram_record("nothing.hist", 5);
        gauge_set("nothing.gauge", 5);
        assert!(counter_values().is_empty());
    }

    #[test]
    fn span_nesting_is_captured() {
        let recorder = Arc::new(Recorder::new());
        scoped(&recorder, || {
            let _root = span!("root", graph = "fig2");
            {
                let _child = span!("child");
                let _grandchild = span!("grandchild");
            }
            let _sibling = span!("child");
        });
        let snap = recorder.snapshot();
        assert_eq!(snap.events.len(), 4);
        let by_name = |name: &str| {
            snap.events
                .iter()
                .filter(|e| e.name == name)
                .collect::<Vec<_>>()
        };
        let root = &by_name("root")[0];
        assert_eq!(root.parent, None);
        assert_eq!(root.args, vec![("graph", "fig2".to_string())]);
        for child in by_name("child") {
            assert_eq!(child.parent, Some(root.id));
            assert!(child.start_ns >= root.start_ns);
            assert!(child.dur_ns <= root.dur_ns);
        }
        let grandchild = &by_name("grandchild")[0];
        assert_eq!(grandchild.parent, Some(by_name("child")[0].id));
    }

    #[test]
    fn events_visible_from_spawned_threads() {
        let recorder = Arc::new(Recorder::new());
        scoped(&recorder, || {
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        let _worker = span!("worker");
                        counter_inc("worker.count");
                    });
                }
            });
        });
        let snap = recorder.snapshot();
        assert_eq!(snap.events.len(), 4);
        // Fresh threads have empty span stacks: workers are roots.
        assert!(snap.events.iter().all(|e| e.parent.is_none()));
        assert_eq!(snap.counters, vec![("worker.count".to_string(), 4)]);
    }

    #[test]
    fn scoped_uninstalls_and_instruments_accumulate() {
        let recorder = Arc::new(Recorder::new());
        scoped(&recorder, || {
            counter_add("c", 2);
            counter_add("c", 3);
            gauge_set("g", 7);
            gauge_set("g", 9);
            histogram_record("h", 4);
        });
        assert!(!enabled());
        let before = recorder.snapshot();
        // After the scope ends, further traffic is not recorded.
        counter_add("c", 100);
        let _ignored = span!("ignored");
        drop(_ignored);
        let after = recorder.snapshot();
        assert_eq!(before.counters, vec![("c".to_string(), 5)]);
        assert_eq!(after.counters, before.counters);
        assert_eq!(after.events.len(), before.events.len());
        assert_eq!(after.gauges, vec![("g".to_string(), 9)]);
        assert_eq!(after.histograms.len(), 1);
        assert_eq!(after.histograms[0].1.count(), 1);
    }

    #[test]
    fn counter_snapshot_deltas() {
        let recorder = Arc::new(Recorder::new());
        scoped(&recorder, || {
            counter_add("a", 3);
            counter_add("c", 1);
            let snap = CounterSnapshot::capture();
            assert!(snap.delta_since().is_empty());
            counter_add("a", 2);
            counter_add("b", 7);
            assert_eq!(
                snap.delta_since(),
                vec![("a".to_string(), 2), ("b".to_string(), 7)]
            );
        });
        // Disabled tracing: capture is empty and the delta stays empty.
        let snap = CounterSnapshot::capture();
        counter_add("a", 9);
        assert!(snap.delta_since().is_empty());
    }

    #[test]
    fn thread_scope_is_isolated_both_ways() {
        // Holds the scope lock so `disabled_tracing_is_inert` never sees
        // this test's global install.
        let _serial = lock(scope_lock());
        let global = Arc::new(Recorder::new());
        let local = Arc::new(Recorder::new());
        install(Arc::clone(&global));
        scoped_thread(&local, || {
            counter_add("mine", 1);
            let _span = span!("local");
            std::thread::spawn(|| counter_add("other", 1))
                .join()
                .unwrap();
            // Nested scopes restore the outer one on exit.
            scoped_thread(&Arc::new(Recorder::new()), || counter_add("inner", 1));
            counter_add("mine", 1);
        });
        counter_add("after", 1);
        uninstall();
        assert!(!enabled());
        assert_eq!(local.counters(), vec![("mine".to_string(), 2)]);
        assert_eq!(local.snapshot().events.len(), 1);
        // Other tests may add unscoped traffic to the global recorder, so
        // check only the names this test owns.
        let global = global.counters();
        let owned = |name: &str| global.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        assert_eq!(owned("other"), Some(1));
        assert_eq!(owned("after"), Some(1));
        assert_eq!(owned("mine"), None);
        assert_eq!(owned("inner"), None);
    }

    #[test]
    fn snapshot_is_sorted_by_start() {
        let recorder = Arc::new(Recorder::new());
        scoped(&recorder, || {
            for _ in 0..10 {
                let _s = span!("tick");
            }
        });
        let snap = recorder.snapshot();
        let starts: Vec<(u64, u64)> = snap.events.iter().map(|e| (e.start_ns, e.id)).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }
}
