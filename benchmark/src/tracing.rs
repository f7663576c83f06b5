//! The traced window: turns the program's own tracing on around a measured
//! window, and collects — from outside — the deltas of the counters it
//! already exports (`observe_metrics`) and per-`Category` totals of the
//! events it already emits (`pma_obs::trace::drain_all`). Nothing is added
//! inside the program.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pma_common::ConcurrentMap;
use pma_obs::metrics::Observations;
use pma_obs::trace::{self, Category};

use crate::hist::Histogram;
use crate::span::{ClockBridge, ProgramEvent, Recorder};

/// How often the sampler drains the trace rings and samples gauges. The
/// rings hold 8192 events per thread and overwrite when full.
const SAMPLE_INTERVAL: Duration = Duration::from_millis(10);

/// Program events kept verbatim for `trace.json` (totals count all of them).
const KEPT_EVENTS: usize = 20_000;

#[derive(Debug, Clone, Copy, Default)]
pub struct CategoryTotal {
    pub count: u64,
    pub dur_ns: u64,
    pub payload: u64,
}

/// Everything collected over the traced windows of one run.
pub struct Tracer {
    pub recorder: Arc<Recorder>,
    /// Counter deltas over the windows, by exported name.
    pub counters: BTreeMap<String, f64>,
    /// Totals per `Category`, indexed by discriminant.
    pub categories: Vec<CategoryTotal>,
    /// Durations of `OpShip` spans.
    pub op_ship: Histogram,
    /// `ingress_depth` gauge samples.
    pub ingress_depth: Histogram,
    pub events: Vec<ProgramEvent>,
}

fn counters_of(map: &dyn ConcurrentMap) -> BTreeMap<String, f64> {
    let mut sink = Observations::new();
    map.observe_metrics(&mut sink);
    sink.into_snapshot()
        .metrics
        .into_iter()
        .map(|m| (m.name, m.value.as_f64()))
        .collect()
}

impl Tracer {
    pub fn new(recorder: Arc<Recorder>) -> Self {
        Tracer {
            recorder,
            counters: BTreeMap::new(),
            categories: vec![CategoryTotal::default(); Category::ALL.len()],
            op_ship: Histogram::new(),
            ingress_depth: Histogram::new(),
            events: Vec::new(),
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn category(&self, cat: Category) -> CategoryTotal {
        self.categories[cat as usize]
    }

    fn drain(&mut self) {
        let bridge = ClockBridge::sample(&self.recorder);
        for event in trace::drain_all() {
            let (start_ns, dur_ns) = bridge.convert(&event);
            let total = &mut self.categories[event.cat as usize];
            total.count += 1;
            total.dur_ns += dur_ns;
            total.payload += event.payload;
            if event.cat == Category::OpShip {
                self.op_ship.record(dur_ns);
            }
            if self.events.len() < KEPT_EVENTS {
                self.events.push(ProgramEvent {
                    name: event.cat.name(),
                    tid: event.tid,
                    start_ns,
                    dur_ns,
                    payload: event.payload,
                });
            }
        }
    }

    /// Runs `body` as one traced window over `map`.
    pub fn window<R>(&mut self, map: &Arc<dyn ConcurrentMap>, body: impl FnOnce() -> R) -> R {
        let before = counters_of(map.as_ref());
        // Only a routed stack has the gauge; collecting every counter of a
        // 64-shard engine a hundred times a second for nothing would be a
        // tax on the traced window.
        let routed = before.contains_key("ingress_depth");
        trace::drain_all(); // events from before the window are not ours
        trace::set_enabled(true);
        let stop = AtomicBool::new(false);
        let result = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(SAMPLE_INTERVAL);
                    self.drain();
                    if routed {
                        let depth = counters_of(map.as_ref())["ingress_depth"];
                        self.ingress_depth.record(depth as u64);
                    }
                }
            });
            let result = body();
            stop.store(true, Ordering::Relaxed);
            sampler.join().expect("the trace sampler panicked");
            result
        });
        trace::set_enabled(false);
        self.drain();
        for (name, after) in counters_of(map.as_ref()) {
            let delta = after - before.get(&name).copied().unwrap_or(0.0);
            *self.counters.entry(name).or_default() += delta;
        }
        result
    }
}
