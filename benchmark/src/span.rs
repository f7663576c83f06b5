//! Benchmark-side span recorder, self-time arithmetic and Chrome-trace
//! writer. Spans are recorded from the benchmark's own files, around the
//! calls into each layer; they stay in memory until the run ends.
//!
//! A span is `{name, start, end, parent, op_id}`. A layer's **self time** is
//! its span's duration minus the part of that interval its child spans
//! cover. One clock: benchmark spans are stamped in nanoseconds since the
//! recorder was created, and the program's own `pma_obs::trace` events are
//! converted onto that clock when they are drained (see [`ClockBridge`]).

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use pma_obs::clock::Clock;
use pma_obs::trace::TraceEvent;

use crate::json::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct State {
    spans: Vec<SpanRec>,
    /// Ids of the spans that are open right now, outermost first. The layer
    /// probes keep one synchronous op in flight, so a single stack links
    /// parents correctly even when the op hops to a router worker thread.
    open: Vec<u32>,
    op_id: u64,
}

/// Thread-safe span recorder.
pub struct Recorder {
    base: Instant,
    state: Mutex<State>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            base: Instant::now(),
            state: Mutex::new(State {
                spans: Vec::new(),
                open: Vec::new(),
                op_id: 0,
            }),
        }
    }

    /// Nanoseconds since the recorder was created: the benchmark's clock.
    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("a span recorder user panicked")
    }

    /// Starts the next operation; spans begun until the next call share its
    /// identifier.
    pub fn next_op(&self) -> u64 {
        let mut state = self.lock();
        state.op_id += 1;
        state.op_id
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&self, name: &'static str) -> u32 {
        let mut state = self.lock();
        let id = state.spans.len() as u32;
        let span = SpanRec {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: state.open.last().copied(),
            op_id: state.op_id,
        };
        state.spans.push(span);
        state.open.push(id);
        // Stamp last, so the recorder's own work stays outside the span.
        state.spans[id as usize].start_ns = self.now_ns();
        id
    }

    /// Closes span `id` (and any span still open inside it).
    pub fn end(&self, id: u32) {
        let end_ns = self.now_ns();
        let mut state = self.lock();
        state.spans[id as usize].end_ns = end_ns;
        while let Some(open) = state.open.pop() {
            if open == id {
                break;
            }
        }
    }

    /// Records a *replayed* child of the closed span `parent`: the same key
    /// run again through a benchmark-side replica of an inner layer the
    /// benchmark cannot wrap in place, measured as `dur_ns`, and laid into
    /// the parent's interval after its earlier children.
    pub fn add_replayed_child(&self, parent: u32, name: &'static str, dur_ns: u64) {
        let mut state = self.lock();
        let start_ns = state
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(state.spans[parent as usize].start_ns);
        let op_id = state.spans[parent as usize].op_id;
        state.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            op_id,
        });
    }

    /// Id of the most recent span called `name`.
    pub fn last_named(&self, name: &str) -> Option<u32> {
        let state = self.lock();
        state
            .spans
            .iter()
            .rposition(|s| s.name == name)
            .map(|i| i as u32)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.lock().spans.clone()
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<SpanRec> {
        std::mem::take(&mut self.lock().spans)
    }
}

/// Aggregate time of one layer (all spans of one name).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-layer totals and self times. A span's self time is its duration minus
/// the part of its interval that its children cover.
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, LayerTime> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let lo = span.start_ns.max(p.start_ns);
            let hi = span.end_ns.min(p.end_ns);
            covered[parent as usize] += hi.saturating_sub(lo);
        }
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, covered) in spans.iter().zip(covered) {
        let layer = layers.entry(span.name).or_default();
        layer.count += 1;
        layer.total_ns += span.dur_ns();
        layer.self_ns += span.dur_ns().saturating_sub(covered);
    }
    layers
}

/// Converts the program's raw trace timestamps onto the recorder's clock.
/// The offset is sampled when the bridge is made: make one per drain, so the
/// program clock's calibration error cannot accumulate over a long run.
pub struct ClockBridge {
    /// Benchmark nanoseconds minus program nanoseconds, at sampling time.
    offset_ns: i64,
}

impl ClockBridge {
    pub fn sample(recorder: &Recorder) -> Self {
        let clock = Clock::global();
        let program_ns = clock.raw_to_ns(clock.raw_now());
        ClockBridge {
            offset_ns: recorder.now_ns() as i64 - program_ns as i64,
        }
    }

    /// `(start_ns, dur_ns)` of a program event on the benchmark clock.
    pub fn convert(&self, event: &TraceEvent) -> (u64, u64) {
        let clock = Clock::global();
        let start = clock.raw_to_ns(event.start_raw) as i64 + self.offset_ns;
        (start.max(0) as u64, clock.raw_delta_to_ns(event.dur_raw))
    }
}

/// One program event already converted onto the benchmark clock.
#[derive(Debug, Clone)]
pub struct ProgramEvent {
    pub name: &'static str,
    pub tid: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub payload: u64,
}

/// Chrome `trace_event` JSON: benchmark spans in process 1 (they nest on one
/// track by time containment), the program's own events in process 2.
pub fn chrome_trace(spans: &[SpanRec], program: &[ProgramEvent]) -> String {
    let us = |ns: u64| Json::Num(ns as f64 / 1000.0);
    let mut events = Vec::with_capacity(spans.len() + program.len());
    for (id, span) in spans.iter().enumerate() {
        events.push(Json::obj([
            ("name", Json::Str(span.name.to_string())),
            ("cat", Json::Str("bench".into())),
            ("ph", Json::Str("X".into())),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(0.0)),
            ("ts", us(span.start_ns)),
            ("dur", us(span.dur_ns())),
            (
                "args",
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("op_id", Json::Num(span.op_id as f64)),
                    (
                        "parent",
                        span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ]),
            ),
        ]));
    }
    for event in program {
        let mut fields = vec![
            ("name", Json::Str(event.name.to_string())),
            ("cat", Json::Str("pma".into())),
            ("pid", Json::Num(2.0)),
            ("tid", Json::Num(event.tid as f64)),
            ("ts", us(event.start_ns)),
            (
                "args",
                Json::obj([("payload", Json::Num(event.payload as f64))]),
            ),
        ];
        if event.dur_ns == 0 {
            fields.push(("ph", Json::Str("i".into())));
            fields.push(("s", Json::Str("t".into())));
        } else {
            fields.push(("ph", Json::Str("X".into())));
            fields.push(("dur", us(event.dur_ns)));
        }
        events.push(Json::obj(fields));
    }
    Json::obj([
        ("displayTimeUnit", Json::Str("ns".into())),
        ("traceEvents", Json::Arr(events)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_on_a_hand_built_tree() {
        // router [0,100] > sharded [10,70] > pma [20,60] > {index [20,30], chunk [35,50]}
        let spans = vec![
            span("router", 0, 100, None),
            span("sharded", 10, 70, Some(0)),
            span("pma", 20, 60, Some(1)),
            span("index", 20, 30, Some(2)),
            span("chunk", 35, 50, Some(2)),
        ];
        let layers = self_times(&spans);
        assert_eq!(layers["router"].self_ns, 40);
        assert_eq!(layers["sharded"].self_ns, 20);
        assert_eq!(layers["pma"].self_ns, 15);
        assert_eq!(layers["index"].self_ns, 10);
        assert_eq!(layers["chunk"].self_ns, 15);
        let total: u64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(total, layers["router"].total_ns, "self times tile the root");
    }

    #[test]
    fn a_child_only_counts_where_it_overlaps_its_parent() {
        let spans = vec![
            span("pma", 100, 200, None),
            span("chunk", 180, 260, Some(0)),
        ];
        assert_eq!(self_times(&spans)["pma"].self_ns, 80);
    }

    #[test]
    fn recorder_links_parents_and_lays_replayed_children_inside() {
        let rec = Recorder::new();
        let op = rec.next_op();
        let outer = rec.begin("outer");
        let inner = rec.begin("inner");
        rec.end(inner);
        rec.end(outer);
        rec.add_replayed_child(inner, "leaf-a", 5);
        rec.add_replayed_child(inner, "leaf-b", 7);
        let spans = rec.take();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.op_id == op));
        assert_eq!(spans[2].start_ns, spans[1].start_ns);
        assert_eq!(
            spans[3].start_ns, spans[2].end_ns,
            "replays queue up in order"
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn program_events_land_on_the_benchmark_clock() {
        let rec = Recorder::new();
        pma_obs::trace::set_enabled(true);
        let before = rec.now_ns();
        pma_obs::trace::instant(pma_obs::Category::QueueDepth, 42);
        let after = rec.now_ns();
        pma_obs::trace::set_enabled(false);
        let bridge = ClockBridge::sample(&rec);
        let event = pma_obs::trace::drain_all()
            .into_iter()
            .find(|e| e.payload == 42)
            .expect("the instant event is drained");
        let (start_ns, dur_ns) = bridge.convert(&event);
        // 100 µs of slack covers the program clock's calibration error.
        assert!(start_ns + 100_000 >= before && start_ns <= after + 100_000);
        assert_eq!(dur_ns, 0);
        let text = chrome_trace(
            &[span("bench", before, after, None)],
            &[ProgramEvent {
                name: event.cat.name(),
                tid: event.tid,
                start_ns,
                dur_ns,
                payload: event.payload,
            }],
        );
        let doc = crate::json::parse(&text).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
        assert!(pma_obs::trace::validate_chrome_trace(&text).is_ok());
    }
}
