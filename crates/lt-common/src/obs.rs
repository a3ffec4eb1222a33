//! Structured tracing and metrics for the tuning pipeline.
//!
//! The paper's evaluation (§6) is about *where time goes*: tuning-phase vs
//! measurement-phase cost, per-round LLM calls, the ILP compression solve.
//! This module gives every crate in the workspace a shared, zero-dependency
//! registry of **spans** (named phases with wall-clock and, optionally,
//! virtual-clock durations), **counters** and **gauges**, so a run can emit
//! a machine-readable cost breakdown next to its `results/*.json`.
//!
//! Everything is gated by `LT_TRACE=1` (or [`set_enabled`]): when tracing is
//! off, [`span`] returns an inert guard and [`counter`]/[`gauge`] return
//! after a single relaxed atomic load — no allocation, no locking — so
//! instrumented hot paths cost nothing in normal benchmark runs (the micro
//! benches verify this).
//!
//! The registry is process-global and thread-safe (atomics plus short
//! `Mutex` sections), compatible with the `std::thread::scope` benchmark
//! matrix: spans opened on worker threads become roots of their own span
//! trees, and counters merge across threads. Span parentage is tracked per
//! thread with a thread-local stack, so nesting works without passing
//! context around.
//!
//! ```
//! use lt_common::obs;
//! obs::set_enabled(true);
//! {
//!     let mut outer = obs::span("tune.select");
//!     outer.vt_start(lt_common::secs(0.0));
//!     let _inner = obs::span("eval.config");
//!     obs::counter("eval.calls", 1);
//!     outer.vt_end(lt_common::secs(12.5));
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.events.len(), 2);
//! # obs::reset();
//! # obs::set_enabled(false);
//! ```

use crate::json::Value;
use crate::Secs;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---- enablement -----------------------------------------------------------

/// 0 = not yet read from the environment, 1 = enabled, 2 = disabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// True when tracing is on (`LT_TRACE=1`/`true`/`on`, or [`set_enabled`]).
/// The environment is consulted once; after that this is one relaxed load.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => init_enabled(),
    }
}

#[cold]
fn init_enabled() -> bool {
    let on = crate::env::flag("LT_TRACE");
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    on
}

/// Overrides the `LT_TRACE` decision for this process (used by tests and by
/// binaries with their own tracing flags).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

// ---- registry -------------------------------------------------------------

/// One completed span, as recorded in the event log.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Process-unique id (creation order).
    pub id: u64,
    /// Id of the span that was open on the same thread when this one
    /// started; `None` for thread-root spans.
    pub parent: Option<u64>,
    /// Per-process thread index (0 = first thread that traced).
    pub thread: u64,
    /// Nesting depth on its thread (0 = root).
    pub depth: u32,
    /// Phase name.
    pub name: &'static str,
    /// Wall-clock start, seconds since the registry's anchor.
    pub wall_start: f64,
    /// Wall-clock duration in seconds.
    pub wall_dur: f64,
    /// Virtual-clock start, if the caller supplied one.
    pub vt_start: Option<f64>,
    /// Virtual-clock duration, if the caller supplied both endpoints.
    pub vt_dur: Option<f64>,
}

#[derive(Debug, Default)]
struct Registry {
    events: Mutex<Vec<SpanEvent>>,
    counters: Mutex<Vec<(&'static str, u64)>>,
    gauges: Mutex<Vec<(&'static str, f64)>>,
    next_id: AtomicU64,
    next_thread: AtomicU64,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Wall-clock anchor: all `wall_start` values are offsets from this instant
/// (initialized on first use).
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

thread_local! {
    /// Open-span stack of this thread (ids, innermost last).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// This thread's index in the registry (assigned on first span).
    static THREAD_IDX: RefCell<Option<u64>> = const { RefCell::new(None) };
}

fn thread_index() -> u64 {
    THREAD_IDX.with(|idx| {
        *idx.borrow_mut()
            .get_or_insert_with(|| registry().next_thread.fetch_add(1, Ordering::Relaxed))
    })
}

// ---- spans ----------------------------------------------------------------

/// RAII guard for one phase: records a [`SpanEvent`] when dropped. Inert
/// (and allocation-free) when tracing is disabled.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    id: u64,
    parent: Option<u64>,
    thread: u64,
    depth: u32,
    name: &'static str,
    start: Instant,
    wall_start: f64,
    vt_start: Option<f64>,
    vt_end: Option<f64>,
}

/// Opens a span named `name`. Nesting is tracked per thread: a span opened
/// while another is open on the same thread becomes its child.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    let reg = registry();
    let id = reg.next_id.fetch_add(1, Ordering::Relaxed);
    let start = Instant::now();
    let wall_start = start.duration_since(anchor()).as_secs_f64();
    let (parent, depth) = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied();
        let depth = stack.len() as u32;
        stack.push(id);
        (parent, depth)
    });
    SpanGuard {
        inner: Some(SpanInner {
            id,
            parent,
            thread: thread_index(),
            depth,
            name,
            start,
            wall_start,
            vt_start: None,
            vt_end: None,
        }),
    }
}

/// Opens a span with its virtual-clock start already set.
pub fn span_vt(name: &'static str, now: Secs) -> SpanGuard {
    let mut guard = span(name);
    guard.vt_start(now);
    guard
}

impl SpanGuard {
    /// True when this guard will record an event (tracing was enabled at
    /// creation).
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the virtual-clock start of the phase.
    pub fn vt_start(&mut self, now: Secs) {
        if let Some(inner) = &mut self.inner {
            inner.vt_start = Some(now.as_f64());
        }
    }

    /// Sets the virtual-clock end of the phase; the recorded event carries
    /// `vt_dur = vt_end − vt_start` when both endpoints were set.
    pub fn vt_end(&mut self, now: Secs) {
        if let Some(inner) = &mut self.inner {
            inner.vt_end = Some(now.as_f64());
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let wall_dur = inner.start.elapsed().as_secs_f64();
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Spans are dropped LIFO in correct code; tolerate (and repair)
            // out-of-order drops instead of panicking mid-unwind.
            if let Some(pos) = stack.iter().rposition(|&id| id == inner.id) {
                stack.truncate(pos);
            }
        });
        let vt_dur = match (inner.vt_start, inner.vt_end) {
            (Some(s), Some(e)) => Some(e - s),
            _ => None,
        };
        registry().events.lock().unwrap().push(SpanEvent {
            id: inner.id,
            parent: inner.parent,
            thread: inner.thread,
            depth: inner.depth,
            name: inner.name,
            wall_start: inner.wall_start,
            wall_dur,
            vt_start: inner.vt_start,
            vt_dur,
        });
    }
}

// ---- counters and gauges --------------------------------------------------

/// Well-known counter names shared between emitters and consumers (traces,
/// `/metrics`), so the string constants live in one place.
pub mod names {
    /// csg–cmp pairs enumerated by the DPccp join planner.
    pub const PLANNER_CCP_PAIRS: &str = "planner.ccp_pairs";
    /// DP subsets discarded by the pilot-bound branch-and-bound prune.
    pub const PLANNER_CCP_PRUNED: &str = "planner.ccp_pruned";
    /// Queries planned by full DP (DPccp).
    pub const PLANNER_DP_PLANS: &str = "planner.dp_plans";
    /// Queries whose final join order came from the greedy heuristic
    /// (width above the DP limit, or greedy beat DP in the safety net).
    pub const PLANNER_GREEDY_PLANS: &str = "planner.greedy_plans";
}

/// Adds `delta` to the counter named `name`. No-op when tracing is off.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    let mut counters = registry().counters.lock().unwrap();
    match counters.iter_mut().find(|(n, _)| *n == name) {
        Some((_, v)) => *v += delta,
        None => counters.push((name, delta)),
    }
}

/// Sets the gauge named `name` (last write wins). No-op when tracing is off.
#[inline]
pub fn gauge(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    let mut gauges = registry().gauges.lock().unwrap();
    match gauges.iter_mut().find(|(n, _)| *n == name) {
        Some((_, v)) => *v = value,
        None => gauges.push((name, value)),
    }
}

// ---- snapshots and reports -------------------------------------------------

/// Aggregated statistics of one phase (all spans sharing a name).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Phase (span) name.
    pub name: &'static str,
    /// Number of spans recorded under this name.
    pub count: u64,
    /// Total wall-clock seconds (inclusive of child spans).
    pub wall: f64,
    /// Total wall-clock seconds exclusive of child spans. Summed over all
    /// phases this equals the total duration of the root spans, so a run
    /// wrapped in one root span gets a breakdown that adds up to its wall
    /// time.
    pub wall_self: f64,
    /// Total virtual-clock seconds, over spans that recorded them.
    pub vt: f64,
}

/// A point-in-time copy of the registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counters, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(&'static str, f64)>,
    /// Completed spans, in completion order.
    pub events: Vec<SpanEvent>,
}

/// Copies the current registry contents.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let events = reg.events.lock().unwrap().clone();
    let mut counters = reg.counters.lock().unwrap().clone();
    let mut gauges = reg.gauges.lock().unwrap().clone();
    counters.sort_by_key(|(n, _)| *n);
    gauges.sort_by(|a, b| a.0.cmp(b.0));
    Snapshot {
        counters,
        gauges,
        events,
    }
}

/// Clears all events, counters and gauges (used between independent runs
/// and by tests).
pub fn reset() {
    let reg = registry();
    reg.events.lock().unwrap().clear();
    reg.counters.lock().unwrap().clear();
    reg.gauges.lock().unwrap().clear();
}

impl Snapshot {
    /// Per-phase aggregation, sorted by exclusive wall time (descending).
    pub fn phases(&self) -> Vec<PhaseStat> {
        use std::collections::HashMap;
        // Exclusive time: each span's duration minus its direct children's.
        let mut child_sum: HashMap<u64, f64> = HashMap::new();
        for ev in &self.events {
            if let Some(p) = ev.parent {
                *child_sum.entry(p).or_insert(0.0) += ev.wall_dur;
            }
        }
        let mut stats: Vec<PhaseStat> = Vec::new();
        for ev in &self.events {
            let self_dur = (ev.wall_dur - child_sum.get(&ev.id).copied().unwrap_or(0.0)).max(0.0);
            match stats.iter_mut().find(|s| s.name == ev.name) {
                Some(s) => {
                    s.count += 1;
                    s.wall += ev.wall_dur;
                    s.wall_self += self_dur;
                    s.vt += ev.vt_dur.unwrap_or(0.0);
                }
                None => stats.push(PhaseStat {
                    name: ev.name,
                    count: 1,
                    wall: ev.wall_dur,
                    wall_self: self_dur,
                    vt: ev.vt_dur.unwrap_or(0.0),
                }),
            }
        }
        stats.sort_by(|a, b| {
            b.wall_self
                .partial_cmp(&a.wall_self)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        stats
    }

    /// Renders the end-of-run phase summary table.
    pub fn summary_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<26} {:>7} {:>12} {:>12} {:>14}\n",
            "phase", "count", "wall [s]", "self [s]", "virtual [s]"
        ));
        for p in self.phases() {
            out.push_str(&format!(
                "{:<26} {:>7} {:>12.3} {:>12.3} {:>14.1}\n",
                p.name, p.count, p.wall, p.wall_self, p.vt
            ));
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("\n{:<40} {:>14}\n", "counter", "value"));
            for (name, value) in &self.counters {
                out.push_str(&format!("{name:<40} {value:>14}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str(&format!("\n{:<40} {:>14}\n", "gauge", "value"));
            for (name, value) in &self.gauges {
                out.push_str(&format!("{name:<40} {value:>14.3}\n"));
            }
        }
        out
    }

    /// Serializes the *aggregate* view only — counters, gauges and
    /// per-phase span totals, without the raw event log. This is the
    /// `GET /metrics` payload of the serving layer: it stays small no
    /// matter how many sessions have accumulated events, while the full
    /// [`Snapshot::to_json`] sidecar grows with every span.
    pub fn to_metrics_json(&self) -> Value {
        let phases: Vec<Value> = self
            .phases()
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("name".into(), Value::from(p.name)),
                    ("count".into(), Value::from(p.count)),
                    ("wall_s".into(), Value::from(p.wall)),
                    ("wall_self_s".into(), Value::from(p.wall_self)),
                    ("vt_s".into(), Value::from(p.vt)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("version".into(), Value::Int(1)),
            (
                "counters".into(),
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(n, v)| ((*n).to_string(), Value::from(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                Value::Object(
                    self.gauges
                        .iter()
                        .map(|(n, v)| ((*n).to_string(), Value::from(*v)))
                        .collect(),
                ),
            ),
            ("phases".into(), Value::Array(phases)),
            ("spans_recorded".into(), Value::from(self.events.len())),
        ])
    }

    /// Merges parsed `/metrics` documents from several *processes* into
    /// fleet totals.
    ///
    /// The in-process [`Snapshot`] cannot do this — its counter names are
    /// `&'static str` interned per process — so cross-shard aggregation
    /// happens at the parsed-JSON level: objects merge recursively in
    /// first-seen key order, `Int`/`Float` leaves sum, and everything
    /// non-numeric (strings, arrays such as `phases`, booleans) keeps the
    /// first document's value. The schema `version` field takes the max
    /// rather than the sum, so a merged document still declares a valid
    /// version.
    pub fn merge_metrics_json(docs: &[Value]) -> Value {
        fn merge_into(acc: &mut Value, next: &Value, key: &str) {
            match (acc, next) {
                (Value::Object(a), Value::Object(b)) => {
                    for (k, v) in b {
                        match a.iter_mut().find(|(ak, _)| ak == k) {
                            Some((_, slot)) => merge_into(slot, v, k),
                            None => a.push((k.clone(), v.clone())),
                        }
                    }
                }
                (Value::Int(a), Value::Int(b)) => {
                    *a = if key == "version" {
                        (*a).max(*b)
                    } else {
                        a.saturating_add(*b)
                    };
                }
                (acc @ (Value::Int(_) | Value::Float(_)), next) => {
                    if let (Some(a), Some(b)) = (acc.as_f64(), next.as_f64()) {
                        *acc = Value::Float(a + b);
                    }
                }
                _ => {} // non-numeric leaves keep the first value
            }
        }
        let mut merged = Value::Object(Vec::new());
        for doc in docs {
            merge_into(&mut merged, doc, "");
        }
        merged
    }

    /// Serializes the snapshot as the trace sidecar document (see the
    /// README's event-log schema).
    pub fn to_json(&self) -> Value {
        let phases: Vec<Value> = self
            .phases()
            .iter()
            .map(|p| {
                Value::Object(vec![
                    ("name".into(), Value::from(p.name)),
                    ("count".into(), Value::from(p.count)),
                    ("wall_s".into(), Value::from(p.wall)),
                    ("wall_self_s".into(), Value::from(p.wall_self)),
                    ("vt_s".into(), Value::from(p.vt)),
                ])
            })
            .collect();
        let events: Vec<Value> = self
            .events
            .iter()
            .map(|e| {
                Value::Object(vec![
                    ("id".into(), Value::from(e.id)),
                    (
                        "parent".into(),
                        e.parent.map(Value::from).unwrap_or(Value::Null),
                    ),
                    ("thread".into(), Value::from(e.thread)),
                    ("depth".into(), Value::from(e.depth)),
                    ("name".into(), Value::from(e.name)),
                    ("wall_start_s".into(), Value::from(e.wall_start)),
                    ("wall_s".into(), Value::from(e.wall_dur)),
                    (
                        "vt_start_s".into(),
                        e.vt_start.map(Value::from).unwrap_or(Value::Null),
                    ),
                    (
                        "vt_s".into(),
                        e.vt_dur.map(Value::from).unwrap_or(Value::Null),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("version".into(), Value::Int(1)),
            (
                "counters".into(),
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(n, v)| ((*n).to_string(), Value::from(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                Value::Object(
                    self.gauges
                        .iter()
                        .map(|(n, v)| ((*n).to_string(), Value::from(*v)))
                        .collect(),
                ),
            ),
            ("phases".into(), Value::Array(phases)),
            ("events".into(), Value::Array(events)),
        ])
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::secs;

    /// The registry is process-global, so tests that mutate it serialize on
    /// this lock (cargo runs `#[test]`s on concurrent threads).
    pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        match LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[test]
    fn disabled_records_no_events_and_no_counters() {
        let _guard = test_lock();
        set_enabled(false);
        reset();
        {
            let s = span("phase.a");
            assert!(!s.is_recording());
            counter("c", 5);
            gauge("g", 1.0);
        }
        let snap = snapshot();
        assert!(snap.events.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
    }

    #[test]
    fn span_nesting_tracks_parent_and_depth() {
        let _guard = test_lock();
        set_enabled(true);
        reset();
        {
            let _outer = span("outer");
            {
                let _mid = span("mid");
                let _inner = span("inner");
            }
            let _sibling = span("mid");
        }
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.events.len(), 4);
        let outer = snap.events.iter().find(|e| e.name == "outer").unwrap();
        let inner = snap.events.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(outer.parent, None);
        assert_eq!(inner.depth, 2);
        let mids: Vec<_> = snap.events.iter().filter(|e| e.name == "mid").collect();
        assert_eq!(mids.len(), 2);
        for mid in &mids {
            assert_eq!(mid.parent, Some(outer.id));
            assert_eq!(mid.depth, 1);
        }
        assert_eq!(
            inner.parent,
            Some(mids.iter().min_by_key(|m| m.id).unwrap().id)
        );
        // Exclusive times sum to the root's duration.
        let phases = snap.phases();
        let total_self: f64 = phases.iter().map(|p| p.wall_self).sum();
        assert!((total_self - outer.wall_dur).abs() <= 1e-9 + outer.wall_dur * 1e-6);
        reset();
    }

    #[test]
    fn concurrent_counters_merge_across_scoped_threads() {
        let _guard = test_lock();
        set_enabled(true);
        reset();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        counter("test.concurrent", 1);
                    }
                    let _s = span("worker");
                });
            }
        });
        set_enabled(false);
        let snap = snapshot();
        let total = snap
            .counters
            .iter()
            .find(|(n, _)| *n == "test.concurrent")
            .map(|(_, v)| *v);
        assert_eq!(total, Some(4000));
        // Worker spans are thread roots with distinct thread indexes.
        let workers: Vec<_> = snap.events.iter().filter(|e| e.name == "worker").collect();
        assert_eq!(workers.len(), 4);
        assert!(workers.iter().all(|w| w.parent.is_none() && w.depth == 0));
        let mut threads: Vec<u64> = workers.iter().map(|w| w.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        assert_eq!(threads.len(), 4);
        reset();
    }

    #[test]
    fn virtual_time_is_recorded_when_both_endpoints_set() {
        let _guard = test_lock();
        set_enabled(true);
        reset();
        {
            let mut s = span_vt("with.vt", secs(10.0));
            s.vt_end(secs(35.5));
            let _partial = span_vt("only.start", secs(1.0));
        }
        set_enabled(false);
        let snap = snapshot();
        let full = snap.events.iter().find(|e| e.name == "with.vt").unwrap();
        assert_eq!(full.vt_start, Some(10.0));
        assert_eq!(full.vt_dur, Some(25.5));
        let partial = snap.events.iter().find(|e| e.name == "only.start").unwrap();
        assert_eq!(partial.vt_start, Some(1.0));
        assert_eq!(partial.vt_dur, None);
        reset();
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let _guard = test_lock();
        set_enabled(true);
        reset();
        counter("a", 2);
        counter("a", 3);
        gauge("b", 1.0);
        gauge("b", 9.5);
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.counters, vec![("a", 5)]);
        assert_eq!(snap.gauges, vec![("b", 9.5)]);
        reset();
    }

    #[test]
    fn snapshot_serializes_and_parses_back() {
        let _guard = test_lock();
        set_enabled(true);
        reset();
        {
            let mut s = span_vt("fase", secs(0.0));
            s.vt_end(secs(2.0));
            counter("n", 7);
            gauge("v", 0.5);
        }
        set_enabled(false);
        let snap = snapshot();
        let doc = snap.to_json();
        let text = doc.to_string_pretty();
        let parsed = crate::json::parse(&text).expect("round trip");
        assert_eq!(parsed.get("version").and_then(Value::as_i64), Some(1));
        let counters = parsed.get("counters").unwrap();
        assert_eq!(counters.get("n").and_then(Value::as_i64), Some(7));
        let phases = parsed.get("phases").and_then(Value::as_array).unwrap();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].get("name").and_then(Value::as_str), Some("fase"));
        assert_eq!(phases[0].get("vt_s").and_then(Value::as_f64), Some(2.0));
        reset();
    }

    #[test]
    fn metrics_json_has_aggregates_but_no_event_log() {
        let _guard = test_lock();
        set_enabled(true);
        reset();
        {
            let mut s = span_vt("serve.tune", secs(0.0));
            s.vt_end(secs(3.0));
            counter("sessions", 2);
            gauge("queue_depth", 4.0);
        }
        set_enabled(false);
        let snap = snapshot();
        let doc = snap.to_metrics_json();
        let parsed = crate::json::parse(&doc.to_string_pretty()).expect("round trip");
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("sessions"))
                .and_then(Value::as_i64),
            Some(2)
        );
        assert_eq!(
            parsed
                .get("gauges")
                .and_then(|g| g.get("queue_depth"))
                .and_then(Value::as_f64),
            Some(4.0)
        );
        let phases = parsed.get("phases").and_then(Value::as_array).unwrap();
        assert_eq!(
            phases[0].get("name").and_then(Value::as_str),
            Some("serve.tune")
        );
        assert_eq!(
            parsed.get("spans_recorded").and_then(Value::as_i64),
            Some(1)
        );
        assert!(parsed.get("events").is_none(), "no raw event log");
        reset();
    }

    #[test]
    fn summary_table_lists_phases_and_counters() {
        let _guard = test_lock();
        set_enabled(true);
        reset();
        {
            let _s = span("alpha");
        }
        counter("hits", 3);
        set_enabled(false);
        let table = snapshot().summary_table();
        assert!(table.contains("alpha"), "{table}");
        assert!(table.contains("hits"), "{table}");
        reset();
    }

    #[test]
    fn merge_metrics_json_sums_numeric_leaves_across_processes() {
        let a = crate::json::parse(
            r#"{"version": 1, "counters": {"serve.http_requests": 10, "only_a": 2},
                "gauges": {"queue": 3}, "phases": [{"name": "x"}], "label": "shard-0"}"#,
        )
        .unwrap();
        let b = crate::json::parse(
            r#"{"version": 1, "counters": {"serve.http_requests": 5, "only_b": 7},
                "gauges": {"queue": 1.5}, "phases": [], "label": "shard-1"}"#,
        )
        .unwrap();
        let merged = Snapshot::merge_metrics_json(&[a, b]);
        let counters = merged.get("counters").unwrap();
        assert_eq!(
            counters.get("serve.http_requests").and_then(Value::as_i64),
            Some(15)
        );
        assert_eq!(counters.get("only_a").and_then(Value::as_i64), Some(2));
        assert_eq!(counters.get("only_b").and_then(Value::as_i64), Some(7));
        // Int + Float widens to Float.
        assert_eq!(
            merged
                .get("gauges")
                .and_then(|g| g.get("queue"))
                .and_then(Value::as_f64),
            Some(4.5)
        );
        // `version` is a schema tag, not a tally; non-numeric leaves keep
        // the first document's value.
        assert_eq!(merged.get("version").and_then(Value::as_i64), Some(1));
        assert_eq!(merged.get("label").and_then(Value::as_str), Some("shard-0"));
        assert_eq!(merged.get("phases").unwrap().as_array().unwrap().len(), 1);
    }
}
