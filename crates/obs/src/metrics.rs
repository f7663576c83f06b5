//! The metrics registry: named counters, gauges and histograms collected
//! from [`MetricSource`]s through the [`Observe`] sink trait, an interval
//! sampler producing time-series buffers, and Prometheus-style text / JSON
//! exposition.
//!
//! Sources are held weakly, so a structure that registers itself (or its
//! stats block) needs no unregistration: dropping the structure silently
//! removes it from future snapshots.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Values, sinks and sources
// ---------------------------------------------------------------------------

/// A point-in-time histogram: `(upper_bound, count)` per bucket plus the
/// total sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Per-bucket `(inclusive upper bound, samples in bucket)` pairs.
    pub buckets: Vec<(u64, u64)>,
    /// Total samples across all buckets.
    pub count: u64,
}

/// The value of one named metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// Instantaneous level (queue depth, epoch lag, ...).
    Gauge(f64),
    /// Bucketed distribution.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// The value as a float: counters and gauges directly, histograms by
    /// total count.
    pub fn as_f64(&self) -> f64 {
        match self {
            MetricValue::Counter(v) => *v as f64,
            MetricValue::Gauge(v) => *v,
            MetricValue::Histogram(h) => h.count as f64,
        }
    }
}

/// How a gauge of several instances combines into one (the shards of an
/// engine, say), stated where the gauge is emitted: levels that add up, like
/// queued operations, are summed; levels of independent clocks, like an
/// epoch lag, take the largest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// The instances' levels add up.
    Sum,
    /// The largest instance's level stands for all of them.
    Max,
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Full (prefixed) metric name.
    pub name: String,
    /// Current value.
    pub value: MetricValue,
}

/// The sink side: where a [`MetricSource`] writes its metrics during
/// collection.
pub trait Observe {
    /// Records a monotonic counter.
    fn counter(&mut self, name: &str, value: u64);
    /// Records an instantaneous gauge, with the rule that combines it
    /// across instances.
    fn gauge(&mut self, name: &str, value: f64, fold: Fold);
    /// Records a bucketed distribution as `(upper_bound, count)` pairs.
    fn histogram(&mut self, name: &str, buckets: &[(u64, u64)], count: u64);
}

/// The provider side: anything that can dump its current metrics into an
/// [`Observe`] sink. Implemented by the live counter blocks of the PMA stack
/// (the PMA's and the engine's stats, the router's counters, latency
/// histograms).
pub trait MetricSource: Send + Sync {
    /// Writes every metric this source knows about into `out`.
    fn observe(&self, out: &mut dyn Observe);
}

/// A buffering [`Observe`] implementation that collects metrics into a
/// [`MetricsSnapshot`], prefixing every name.
#[derive(Debug, Default)]
pub struct Observations {
    prefix: String,
    metrics: Vec<Metric>,
}

impl Observations {
    /// An empty collection with no name prefix.
    pub fn new() -> Observations {
        Observations::default()
    }

    /// An empty collection prefixing every metric name with `prefix_`.
    pub fn with_prefix(prefix: &str) -> Observations {
        Observations {
            prefix: prefix.to_string(),
            metrics: Vec::new(),
        }
    }

    fn full_name(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}_{name}", self.prefix)
        }
    }

    /// The collected metrics as a snapshot.
    pub fn into_snapshot(self) -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: self.metrics,
        }
    }
}

impl Observe for Observations {
    fn counter(&mut self, name: &str, value: u64) {
        let name = self.full_name(name);
        self.metrics.push(Metric {
            name,
            value: MetricValue::Counter(value),
        });
    }

    fn gauge(&mut self, name: &str, value: f64, _fold: Fold) {
        let name = self.full_name(name);
        self.metrics.push(Metric {
            name,
            value: MetricValue::Gauge(value),
        });
    }

    fn histogram(&mut self, name: &str, buckets: &[(u64, u64)], count: u64) {
        let name = self.full_name(name);
        self.metrics.push(Metric {
            name,
            value: MetricValue::Histogram(HistogramSnapshot {
                buckets: buckets.to_vec(),
                count,
            }),
        });
    }
}

/// An [`Observe`] sink that folds what several instances emit into one
/// value per name: counters add up, gauges combine by the [`Fold`] they
/// were emitted with, histograms add up bucket by bucket. As a
/// [`MetricSource`] it emits the folded values, in name order.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, (f64, Fold)>,
    histograms: BTreeMap<String, (BTreeMap<u64, u64>, u64)>,
}

impl Totals {
    /// The folded counters, by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters
            .iter()
            .map(|(name, &value)| (name.as_str(), value))
    }

    /// A folded counter's value; 0 when no instance emitted it.
    pub fn total(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

impl Observe for Totals {
    fn counter(&mut self, name: &str, value: u64) {
        match self.counters.get_mut(name) {
            Some(total) => *total = total.wrapping_add(value),
            None => {
                self.counters.insert(name.to_string(), value);
            }
        }
    }

    fn gauge(&mut self, name: &str, value: f64, fold: Fold) {
        match self.gauges.get_mut(name) {
            Some((total, _)) => match fold {
                Fold::Sum => *total += value,
                Fold::Max => *total = total.max(value),
            },
            None => {
                self.gauges.insert(name.to_string(), (value, fold));
            }
        }
    }

    fn histogram(&mut self, name: &str, buckets: &[(u64, u64)], count: u64) {
        let (total, total_count) = self.histograms.entry(name.to_string()).or_default();
        for &(bound, samples) in buckets {
            *total.entry(bound).or_default() += samples;
        }
        *total_count += count;
    }
}

impl MetricSource for Totals {
    fn observe(&self, out: &mut dyn Observe) {
        for (name, &value) in &self.counters {
            out.counter(name, value);
        }
        for (name, &(value, fold)) in &self.gauges {
            out.gauge(name, value, fold);
        }
        for (name, (buckets, count)) in &self.histograms {
            let buckets: Vec<(u64, u64)> = buckets.iter().map(|(&b, &n)| (b, n)).collect();
            out.histogram(name, &buckets, *count);
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A point-in-time collection of named metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// The metrics, in collection order.
    pub metrics: Vec<Metric>,
}

impl MetricsSnapshot {
    /// Looks up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.value)
    }

    /// A counter's value, if `name` is a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// A metric's value as a float (counter, gauge, or histogram count).
    pub fn value(&self, name: &str) -> Option<f64> {
        self.get(name).map(MetricValue::as_f64)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct SourceEntry {
    prefix: String,
    source: Weak<dyn MetricSource>,
}

/// A registry of weakly-held [`MetricSource`]s, snapshotted on demand (or on
/// an interval by [`sample_registry`]).
#[derive(Default)]
pub struct MetricsRegistry {
    sources: Mutex<Vec<SourceEntry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The process-wide registry used by long-lived structures and the
    /// exposition endpoints.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// Registers `source` under `prefix` (every metric it emits is renamed
    /// `prefix_<name>`). The registry holds only a weak reference.
    pub fn register<S: MetricSource + 'static>(&self, prefix: &str, source: &Arc<S>) {
        let weak: Weak<dyn MetricSource> = Arc::downgrade(source) as Weak<dyn MetricSource>;
        self.sources.lock().unwrap().push(SourceEntry {
            prefix: prefix.to_string(),
            source: weak,
        });
    }

    /// Number of still-live registered sources (pruning dead ones).
    pub fn len(&self) -> usize {
        let mut sources = self.sources.lock().unwrap();
        sources.retain(|e| e.source.strong_count() > 0);
        sources.len()
    }

    /// Whether no live source is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Collects every live source into a snapshot, pruning dropped ones.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut collected = Vec::new();
        let mut sources = self.sources.lock().unwrap();
        sources.retain(|entry| match entry.source.upgrade() {
            Some(source) => {
                let mut obs = Observations::with_prefix(&entry.prefix);
                source.observe(&mut obs);
                collected.extend(obs.metrics);
                true
            }
            None => false,
        });
        MetricsSnapshot { metrics: collected }
    }
}

// ---------------------------------------------------------------------------
// Time series and sampler
// ---------------------------------------------------------------------------

/// One sampled snapshot with its offset from the start of sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Milliseconds since sampling began.
    pub elapsed_ms: u64,
    /// The metrics at that instant.
    pub snapshot: MetricsSnapshot,
}

/// A time-ordered buffer of sampled snapshots — what the drivers attach to a
/// measurement so a run's internal behaviour is visible over time, not just
/// as end-of-run totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSeries {
    /// The sampled points, oldest first.
    pub points: Vec<SeriesPoint>,
}

impl MetricsSeries {
    /// An empty series.
    pub fn new() -> MetricsSeries {
        MetricsSeries::default()
    }

    /// Appends a sampled snapshot.
    pub fn push(&mut self, elapsed_ms: u64, snapshot: MetricsSnapshot) {
        self.points.push(SeriesPoint {
            elapsed_ms,
            snapshot,
        });
    }

    /// Number of sampled points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether nothing was sampled.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The newest snapshot.
    pub fn last(&self) -> Option<&MetricsSnapshot> {
        self.points.last().map(|p| &p.snapshot)
    }

    /// The `q`-quantile (0..=1) of a metric's value across the series —
    /// e.g. `percentile("queue_depth", 0.99)` for a p99 of sampled depths.
    pub fn percentile(&self, name: &str, q: f64) -> Option<f64> {
        let mut values: Vec<f64> = self
            .points
            .iter()
            .filter_map(|p| p.snapshot.value(name))
            .collect();
        if values.is_empty() {
            return None;
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let rank = ((values.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        Some(values[rank])
    }

    /// The maximum of a metric's value across the series.
    pub fn max_value(&self, name: &str) -> Option<f64> {
        self.points
            .iter()
            .filter_map(|p| p.snapshot.value(name))
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

/// Handle to a background sampler thread started by [`sample_registry`].
pub struct SamplerHandle {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<MetricsSeries>,
}

impl SamplerHandle {
    /// Stops the sampler and returns the collected series (always including
    /// one final snapshot taken at stop time).
    pub fn stop(self) -> MetricsSeries {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().unwrap_or_default()
    }
}

/// Spawns a thread snapshotting `registry` every `interval` into a
/// [`MetricsSeries`] until [`SamplerHandle::stop`] is called.
pub fn sample_registry(registry: &'static MetricsRegistry, interval: Duration) -> SamplerHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        let started = Instant::now();
        let mut series = MetricsSeries::new();
        loop {
            series.push(started.elapsed().as_millis() as u64, registry.snapshot());
            if stop_flag.load(Ordering::Relaxed) {
                return series;
            }
            // Sleep in short slices so stop() returns promptly.
            let deadline = Instant::now() + interval;
            while Instant::now() < deadline {
                if stop_flag.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2).min(interval));
            }
        }
    });
    SamplerHandle { stop, thread }
}

// ---------------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------------

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn format_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders a snapshot in the Prometheus text exposition format (`# TYPE`
/// lines, `name value` samples, cumulative `_bucket{le=...}` histograms).
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for metric in &snapshot.metrics {
        let name = sanitize(&metric.name);
        match &metric.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", format_f64(*v)));
            }
            MetricValue::Histogram(h) => {
                out.push_str(&format!("# TYPE {name} histogram\n"));
                let mut cumulative = 0u64;
                for (bound, count) in &h.buckets {
                    cumulative += count;
                    out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
                }
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
                out.push_str(&format!("{name}_count {}\n", h.count));
            }
        }
    }
    out
}

/// Renders a snapshot as a flat JSON object `{"name": value, ...}`
/// (histograms contribute `<name>_count`).
pub fn render_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("{");
    for (i, metric) in snapshot.metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let name = sanitize(&metric.name);
        match &metric.value {
            MetricValue::Counter(v) => out.push_str(&format!("\"{name}\":{v}")),
            MetricValue::Gauge(v) => out.push_str(&format!("\"{name}\":{}", format_f64(*v))),
            MetricValue::Histogram(h) => {
                out.push_str(&format!("\"{name}_count\":{}", h.count));
            }
        }
    }
    out.push_str("}\n");
    out
}

/// Validates Prometheus-style exposition text: every non-comment line is
/// `name[{labels}] value` with a parseable value. Returns the sample count.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {line:?}", lineno + 1))?;
        let bare_name = name_part.split('{').next().unwrap_or("");
        if bare_name.is_empty()
            || !bare_name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!(
                "line {}: bad metric name: {name_part:?}",
                lineno + 1
            ));
        }
        value_part
            .parse::<f64>()
            .map_err(|_| format!("line {}: bad value: {value_part:?}", lineno + 1))?;
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FixedSource;

    impl MetricSource for FixedSource {
        fn observe(&self, out: &mut dyn Observe) {
            out.counter("ops", 42);
            out.gauge("depth", 3.5, Fold::Sum);
            out.histogram("lat", &[(1, 2), (2, 3)], 5);
        }
    }

    #[test]
    fn observations_prefix_names() {
        let mut obs = Observations::with_prefix("pma");
        FixedSource.observe(&mut obs);
        let snap = obs.into_snapshot();
        assert_eq!(snap.counter("pma_ops"), Some(42));
        assert_eq!(snap.value("pma_depth"), Some(3.5));
        assert_eq!(snap.value("pma_lat"), Some(5.0));
        assert_eq!(snap.get("ops"), None);
    }

    #[test]
    fn totals_fold_each_name_once_by_its_rule() {
        let mut totals = Totals::default();
        for (depth, lag) in [(2.0, 3.0), (5.0, 1.0)] {
            totals.counter("ops", 10);
            totals.gauge("depth", depth, Fold::Sum);
            totals.gauge("lag", lag, Fold::Max);
            totals.histogram("lat", &[(1, 2), (4, 1)], 3);
        }
        assert_eq!(totals.total("ops"), 20);
        assert_eq!(totals.total("missing"), 0);
        let mut obs = Observations::new();
        totals.observe(&mut obs);
        let snap = obs.into_snapshot();
        assert_eq!(snap.metrics.len(), 4, "one metric per name: {snap:?}");
        assert_eq!(snap.counter("ops"), Some(20));
        assert_eq!(snap.value("depth"), Some(7.0));
        assert_eq!(snap.value("lag"), Some(3.0));
        assert_eq!(
            snap.get("lat"),
            Some(&MetricValue::Histogram(HistogramSnapshot {
                buckets: vec![(1, 4), (4, 2)],
                count: 6,
            }))
        );
    }

    #[test]
    fn registry_holds_sources_weakly() {
        let registry = MetricsRegistry::new();
        let source = Arc::new(FixedSource);
        registry.register("a", &source);
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.snapshot().counter("a_ops"), Some(42));
        drop(source);
        assert!(registry.is_empty());
        assert!(registry.snapshot().metrics.is_empty());
    }

    #[test]
    fn series_percentile_and_max() {
        let mut series = MetricsSeries::new();
        for (t, depth) in [(0u64, 1.0), (10, 9.0), (20, 5.0), (30, 2.0)] {
            let mut obs = Observations::new();
            obs.gauge("depth", depth, Fold::Max);
            series.push(t, obs.into_snapshot());
        }
        assert_eq!(series.len(), 4);
        assert_eq!(series.percentile("depth", 1.0), Some(9.0));
        assert_eq!(series.percentile("depth", 0.0), Some(1.0));
        assert_eq!(series.max_value("depth"), Some(9.0));
        assert_eq!(series.percentile("missing", 0.5), None);
    }

    #[test]
    fn sampler_collects_points() {
        // A leaked registry satisfies the `'static` bound of
        // `sample_registry` without touching the global one.
        let registry: &'static MetricsRegistry = Box::leak(Box::new(MetricsRegistry::new()));
        let source = Arc::new(FixedSource);
        registry.register("s", &source);
        let handle = sample_registry(registry, Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(25));
        let series = handle.stop();
        assert!(!series.is_empty());
        assert_eq!(series.last().unwrap().counter("s_ops"), Some(42));
    }

    #[test]
    fn prometheus_exposition_validates() {
        let mut obs = Observations::with_prefix("pma");
        FixedSource.observe(&mut obs);
        let snap = obs.into_snapshot();
        let text = render_prometheus(&snap);
        let samples = validate_exposition(&text).unwrap();
        // counter + gauge + 2 buckets + +Inf bucket + count = 6 samples.
        assert_eq!(samples, 6);
        assert!(text.contains("# TYPE pma_ops counter"));
        assert!(text.contains("pma_lat_bucket{le=\"+Inf\"} 5"));
        assert!(validate_exposition("bad line with spaces but no number x").is_err());
    }

    #[test]
    fn json_exposition_is_flat() {
        let mut obs = Observations::new();
        FixedSource.observe(&mut obs);
        let json = render_json(&obs.into_snapshot());
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"ops\":42"));
        assert!(json.contains("\"lat_count\":5"));
    }
}
