//! Lock-free event tracing: per-thread ring buffers of fixed-size binary
//! events behind a branch-predictable global enable flag, drained and merged
//! into Chrome `trace_event` JSON for `chrome://tracing` / Perfetto.
//!
//! Emission is wait-free for the owning thread: each thread writes to its own
//! ring (registered globally so drains can reach it), every slot is guarded by
//! a seqlock word so a concurrent drain never observes a torn event, and the
//! ring overwrites its oldest entries once full. When tracing is disabled the
//! entire layer costs one relaxed atomic load and a predictable branch per
//! call site — verified by the `obs_smoke` microbench.

use std::cell::RefCell;
use std::sync::atomic::{fence, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::clock::{self, Clock};

// ---------------------------------------------------------------------------
// Categories
// ---------------------------------------------------------------------------

/// What a trace event describes. Every category maps to a named track slice
/// in the exported Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum Category {
    /// A writer blocked waiting for exclusive admission to a gate
    /// (payload: gate id).
    GateWait = 0,
    /// Rebalancer claim phase: acquiring the gates of a window
    /// (payload: first gate id).
    RebalanceClaim = 1,
    /// Rebalancer settle phase: draining queued ops of the claimed window
    /// (payload: ops settled).
    RebalanceSettle = 2,
    /// Rebalancer install phase: publishing rewritten chunks back into the
    /// window's gates (payload: gates in window).
    RebalanceInstall = 3,
    /// Rebalancer release phase: reopening the window's gates
    /// (payload: gates released).
    RebalanceRelease = 4,
    /// A whole redistribute window, claim to release
    /// (payload: gates in window).
    Redistribute = 5,
    /// A full resize: rebuild plus publication (payload: new gate count).
    Resize = 6,
    /// The publication step of a resize: instance swap plus retirement
    /// (payload: new gate count).
    ResizePublish = 7,
    /// An incremental-split fence: installing or uninstalling a delta log
    /// (payload: shard index).
    SplitFence = 8,
    /// One chase round of an incremental split (payload: ops chased).
    ChaseRound = 9,
    /// The closing fold of an incremental split: final capped round plus
    /// fold-in under the fence (payload: ops folded).
    ClosingFold = 10,
    /// A `frozen()` snapshot capture (payload: gates captured by a PMA, the
    /// pinned directory generation by the sharded engine).
    FrozenCapture = 11,
    /// Epoch-protected garbage reclamation (payload: instances reclaimed).
    EpochReclaim = 12,
    /// Combining-queue depth sample (instant; payload: queued ops).
    QueueDepth = 13,
    /// A shard merge in the sharded engine (payload: surviving shard index).
    ShardMerge = 14,
    /// An op shipped to a core-affine worker: enqueue plus, for sync ops,
    /// the completion wait (payload: worker index).
    OpShip = 15,
    /// One ingress-queue drain run of a core-affine worker
    /// (payload: ops drained).
    IngressDrain = 16,
}

impl Category {
    /// Every category, in discriminant order (index = discriminant).
    pub const ALL: &'static [Category] = &[
        Category::GateWait,
        Category::RebalanceClaim,
        Category::RebalanceSettle,
        Category::RebalanceInstall,
        Category::RebalanceRelease,
        Category::Redistribute,
        Category::Resize,
        Category::ResizePublish,
        Category::SplitFence,
        Category::ChaseRound,
        Category::ClosingFold,
        Category::FrozenCapture,
        Category::EpochReclaim,
        Category::QueueDepth,
        Category::ShardMerge,
        Category::OpShip,
        Category::IngressDrain,
    ];

    /// Stable display name used in the exported trace.
    pub fn name(self) -> &'static str {
        match self {
            Category::GateWait => "gate wait",
            Category::RebalanceClaim => "rebalance claim",
            Category::RebalanceSettle => "rebalance settle",
            Category::RebalanceInstall => "rebalance install",
            Category::RebalanceRelease => "rebalance release",
            Category::Redistribute => "redistribute window",
            Category::Resize => "resize",
            Category::ResizePublish => "resize publication",
            Category::SplitFence => "split fence",
            Category::ChaseRound => "chase round",
            Category::ClosingFold => "closing fold",
            Category::FrozenCapture => "frozen capture",
            Category::EpochReclaim => "epoch reclaim",
            Category::QueueDepth => "queue depth",
            Category::ShardMerge => "shard merge",
            Category::OpShip => "op ship",
            Category::IngressDrain => "ingress drain",
        }
    }

    /// Inverse of the `repr(u16)` discriminant, for decoding ring slots.
    pub fn from_u16(value: u16) -> Option<Category> {
        Category::ALL.get(value as usize).copied()
    }
}

// ---------------------------------------------------------------------------
// Events and rings
// ---------------------------------------------------------------------------

/// One fixed-size binary trace event. Timestamps are *raw* clock readings
/// (TSC ticks or nanoseconds, see [`crate::clock`]); durations of 0 mark
/// instant events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Raw start timestamp.
    pub start_raw: u64,
    /// Raw duration (0 for instant events).
    pub dur_raw: u64,
    /// Event category.
    pub cat: Category,
    /// Small id of the emitting thread (assigned at ring registration).
    pub tid: u32,
    /// Category-specific payload (gate id, ops settled, generation, ...).
    pub payload: u64,
}

/// One ring slot: a seqlock word plus the four event words. The sequence for
/// global index `i` is `2*i + 1` while the owner writes and `2*i + 2` once
/// complete, so a reader can tell exactly which logical event (if any) a slot
/// coherently holds.
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; 4],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
        }
    }
}

/// A single-producer ring buffer of trace events. The owning thread pushes;
/// any thread may drain concurrently (each event is delivered at most once).
/// Once full, new events overwrite the oldest.
pub struct EventRing {
    mask: u64,
    /// Total events ever pushed (the next global index).
    head: AtomicU64,
    /// Global index below which events have already been drained.
    floor: AtomicU64,
    slots: Box<[Slot]>,
}

impl EventRing {
    /// Creates a ring holding `capacity` events (rounded up to a power of
    /// two, minimum 8).
    pub fn with_capacity(capacity: usize) -> EventRing {
        let cap = capacity.max(8).next_power_of_two();
        EventRing {
            mask: (cap - 1) as u64,
            head: AtomicU64::new(0),
            floor: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot::new()).collect(),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever pushed (including ones already overwritten).
    pub fn pushed(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Appends an event. Must only be called by the ring's owning thread
    /// (single producer); concurrent [`EventRing::drain`] calls are safe.
    pub fn push(&self, event: &TraceEvent) {
        let index = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(index & self.mask) as usize];
        // Seqlock write protocol: odd sequence while the words are in flux.
        slot.seq.store(2 * index + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.words[0].store(event.start_raw, Ordering::Relaxed);
        slot.words[1].store(event.dur_raw, Ordering::Relaxed);
        slot.words[2].store(
            (u64::from(event.cat as u16) << 32) | u64::from(event.tid),
            Ordering::Relaxed,
        );
        slot.words[3].store(event.payload, Ordering::Relaxed);
        slot.seq.store(2 * index + 2, Ordering::Release);
        self.head.store(index + 1, Ordering::Release);
    }

    /// Drains every event not yet delivered by a previous drain, oldest
    /// first. Events overwritten before being drained are lost (overwrite
    /// semantics); events whose slot is concurrently being rewritten are
    /// skipped rather than returned torn.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        // Claim [floor, head); concurrent drains each get disjoint ranges.
        let claimed = self.floor.swap(head, Ordering::AcqRel);
        let lo = claimed.max(head.saturating_sub(self.slots.len() as u64));
        let mut out = Vec::with_capacity((head - lo) as usize);
        for index in lo..head {
            let slot = &self.slots[(index & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq != 2 * index + 2 {
                // In-progress write or already overwritten by a newer event.
                continue;
            }
            let words = [
                slot.words[0].load(Ordering::Relaxed),
                slot.words[1].load(Ordering::Relaxed),
                slot.words[2].load(Ordering::Relaxed),
                slot.words[3].load(Ordering::Relaxed),
            ];
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != seq {
                continue;
            }
            let Some(cat) = Category::from_u16((words[2] >> 32) as u16) else {
                continue;
            };
            out.push(TraceEvent {
                start_raw: words[0],
                dur_raw: words[1],
                cat,
                tid: words[2] as u32,
                payload: words[3],
            });
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Global enable flag and per-thread registration
// ---------------------------------------------------------------------------

const FLAG_UNINIT: u8 = 0;
const FLAG_OFF: u8 = 1;
const FLAG_ON: u8 = 2;

/// Tri-state so the very first call can consult `PMA_TRACE` without putting
/// an environment read on the steady-state path.
static ENABLED: AtomicU8 = AtomicU8::new(FLAG_UNINIT);

#[cold]
fn init_enabled() -> bool {
    let on = std::env::var("PMA_TRACE")
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false);
    ENABLED.store(if on { FLAG_ON } else { FLAG_OFF }, Ordering::Relaxed);
    on
}

/// Whether tracing is on. The steady-state cost is one relaxed load and a
/// branch; the first call resolves the `PMA_TRACE` environment variable.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        FLAG_ON => true,
        FLAG_OFF => false,
        _ => init_enabled(),
    }
}

/// Turns tracing on or off programmatically (overrides `PMA_TRACE`).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { FLAG_ON } else { FLAG_OFF }, Ordering::Relaxed);
}

struct Registry {
    rings: Mutex<Vec<Arc<EventRing>>>,
    next_tid: AtomicU32,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        rings: Mutex::new(Vec::new()),
        next_tid: AtomicU32::new(0),
    })
}

fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("PMA_TRACE_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(8192)
    })
}

thread_local! {
    static LOCAL_RING: RefCell<Option<(u32, Arc<EventRing>)>> = const { RefCell::new(None) };
}

/// Emits a completed event into the calling thread's ring (registering the
/// ring on first use). No-op when tracing is disabled.
#[inline]
pub fn emit(cat: Category, start_raw: u64, dur_raw: u64, payload: u64) {
    if !enabled() {
        return;
    }
    emit_always(cat, start_raw, dur_raw, payload);
}

#[cold]
fn register_local_ring() -> (u32, Arc<EventRing>) {
    let ring = Arc::new(EventRing::with_capacity(ring_capacity()));
    let reg = registry();
    let tid = reg.next_tid.fetch_add(1, Ordering::Relaxed);
    reg.rings.lock().unwrap().push(Arc::clone(&ring));
    (tid, ring)
}

fn emit_always(cat: Category, start_raw: u64, dur_raw: u64, payload: u64) {
    LOCAL_RING.with(|cell| {
        let mut slot = cell.borrow_mut();
        let (tid, ring) = slot.get_or_insert_with(register_local_ring);
        ring.push(&TraceEvent {
            start_raw,
            dur_raw,
            cat,
            tid: *tid,
            payload,
        });
    });
}

/// Emits an instant event (duration 0) stamped now.
#[inline]
pub fn instant(cat: Category, payload: u64) {
    if !enabled() {
        return;
    }
    emit_always(cat, clock::raw_now(), 0, payload);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// An RAII phase timer: started by [`span`], emits one duration event when
/// dropped. When tracing is disabled the guard is inert and its drop is a
/// single predictable branch.
pub struct Span {
    start_raw: u64,
    cat: Category,
    payload: u64,
    armed: bool,
}

impl Span {
    /// Updates the payload recorded at drop (e.g. a count only known at the
    /// end of the phase).
    #[inline]
    pub fn set_payload(&mut self, payload: u64) {
        self.payload = payload;
    }

    /// Whether this span will record an event on drop.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.armed
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if self.armed {
            let end = clock::raw_now();
            emit_always(
                self.cat,
                self.start_raw,
                end.saturating_sub(self.start_raw),
                self.payload,
            );
        }
    }
}

/// Starts a phase span. Disabled cost: one relaxed load, a branch, and a
/// four-word struct the optimiser can see is inert.
#[inline]
pub fn span(cat: Category, payload: u64) -> Span {
    if enabled() {
        Span {
            start_raw: clock::raw_now(),
            cat,
            payload,
            armed: true,
        }
    } else {
        Span {
            start_raw: 0,
            cat,
            payload,
            armed: false,
        }
    }
}

// ---------------------------------------------------------------------------
// Drain and export
// ---------------------------------------------------------------------------

/// Drains every registered ring and returns the merged events sorted by
/// start timestamp. Each event is delivered at most once across drains.
pub fn drain_all() -> Vec<TraceEvent> {
    let mut events: Vec<TraceEvent> = Vec::new();
    for ring in registry().rings.lock().unwrap().iter() {
        events.extend(ring.drain());
    }
    events.sort_by_key(|e| e.start_raw);
    events
}

/// Renders events as Chrome `trace_event` JSON (the "JSON Array Format" with
/// a `traceEvents` wrapper), loadable in `chrome://tracing` and Perfetto.
/// Durations use the `X` (complete) phase; instant events use `i`.
pub fn export_chrome_trace(events: &[TraceEvent]) -> String {
    let clock = Clock::global();
    let mut out = String::with_capacity(events.len() * 96 + 128);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts_us = clock.raw_to_ns(event.start_raw) as f64 / 1000.0;
        let dur_us = clock.raw_delta_to_ns(event.dur_raw) as f64 / 1000.0;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"pma\",\"pid\":1,\"tid\":{},\"ts\":{ts_us:.3},",
            event.cat.name(),
            event.tid,
        ));
        if event.dur_raw == 0 {
            out.push_str("\"ph\":\"i\",\"s\":\"t\",");
        } else {
            out.push_str(&format!("\"ph\":\"X\",\"dur\":{dur_us:.3},"));
        }
        out.push_str(&format!("\"args\":{{\"payload\":{}}}}}", event.payload));
    }
    out.push_str("]}\n");
    out
}

/// Drains all rings and writes a Chrome trace to `path`. Returns the number
/// of events written.
pub fn write_chrome_trace(path: &str) -> std::io::Result<usize> {
    let events = drain_all();
    std::fs::write(path, export_chrome_trace(&events))?;
    Ok(events.len())
}

/// [`write_chrome_trace`] if tracing is enabled, `None` otherwise — the
/// one-liner examples and drivers call after a run.
pub fn write_if_enabled(path: &str) -> Option<usize> {
    if !enabled() {
        return None;
    }
    match write_chrome_trace(path) {
        Ok(n) => Some(n),
        Err(e) => {
            eprintln!("obs: cannot write trace {path}: {e}");
            None
        }
    }
}

/// Structural validation of Chrome-trace JSON produced by
/// [`export_chrome_trace`]: the wrapper object parses, brackets balance, and
/// every event object carries `name`, `ph` and `ts`. Returns the event count.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let text = text.trim();
    if !text.starts_with('{') || !text.ends_with('}') {
        return Err("not a JSON object".into());
    }
    if !text.contains("\"traceEvents\"") {
        return Err("missing traceEvents key".into());
    }
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut events = 0usize;
    let mut event_start = None;
    for (i, c) in text.char_indices() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => {
                depth += 1;
                if c == '{' && depth == 3 {
                    event_start = Some(i);
                }
            }
            '}' | ']' => {
                if depth == 0 {
                    return Err(format!("unbalanced bracket at byte {i}"));
                }
                if c == '}' && depth == 3 {
                    let start = event_start.take().ok_or("brace mismatch")?;
                    let body = &text[start..=i];
                    for key in ["\"name\"", "\"ph\"", "\"ts\""] {
                        if !body.contains(key) {
                            return Err(format!("event {events} missing {key}"));
                        }
                    }
                    events += 1;
                }
                depth -= 1;
            }
            _ => {}
        }
    }
    if depth != 0 || in_string {
        return Err("unterminated JSON".into());
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64) -> TraceEvent {
        TraceEvent {
            start_raw: 100 + i,
            dur_raw: i,
            cat: Category::GateWait,
            tid: 7,
            payload: i.wrapping_mul(0x9E37_79B9),
        }
    }

    #[test]
    fn ring_roundtrips_events_in_order() {
        let ring = EventRing::with_capacity(16);
        for i in 0..10 {
            ring.push(&ev(i));
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), 10);
        for (i, event) in drained.iter().enumerate() {
            assert_eq!(*event, ev(i as u64));
        }
        // A second drain delivers nothing: events are consumed exactly once.
        assert!(ring.drain().is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_at_wrap() {
        let ring = EventRing::with_capacity(8);
        for i in 0..20 {
            ring.push(&ev(i));
        }
        let drained = ring.drain();
        // Only the newest `capacity` events survive.
        assert_eq!(drained.len(), 8);
        for (k, event) in drained.iter().enumerate() {
            assert_eq!(*event, ev(12 + k as u64));
        }
    }

    #[test]
    fn drain_after_partial_drain_resumes_at_floor() {
        let ring = EventRing::with_capacity(8);
        for i in 0..5 {
            ring.push(&ev(i));
        }
        assert_eq!(ring.drain().len(), 5);
        for i in 5..9 {
            ring.push(&ev(i));
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), 4);
        assert_eq!(drained[0], ev(5));
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(EventRing::with_capacity(1000).capacity(), 1024);
        assert_eq!(EventRing::with_capacity(0).capacity(), 8);
    }

    #[test]
    fn category_discriminants_roundtrip() {
        for (i, cat) in Category::ALL.iter().enumerate() {
            assert_eq!(*cat as u16, i as u16);
            assert_eq!(Category::from_u16(i as u16), Some(*cat));
            assert!(!cat.name().is_empty());
        }
        assert_eq!(Category::from_u16(Category::ALL.len() as u16), None);
    }

    #[test]
    fn chrome_export_is_structurally_valid() {
        let events: Vec<TraceEvent> = (0..5).map(ev).collect();
        let json = export_chrome_trace(&events);
        assert_eq!(validate_chrome_trace(&json).unwrap(), 5);
        assert!(json.contains("\"name\":\"gate wait\""));
        // Instant event (dur 0) uses the `i` phase.
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"X\""));
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"name\":\"x\"}]}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[").is_err());
        assert_eq!(validate_chrome_trace("{\"traceEvents\":[]}").unwrap(), 0);
    }

    #[test]
    fn disabled_span_is_inert() {
        // Tests in this binary that exercise the global flag all leave it
        // off; `span` must not register a ring or record anything.
        set_enabled(false);
        {
            let mut s = span(Category::Redistribute, 1);
            s.set_payload(2);
            assert!(!s.is_armed());
        }
        assert!(!enabled());
    }
}
