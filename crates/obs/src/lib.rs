//! Unified observability layer for the PMA stack: lock-free event tracing,
//! a metrics registry and phase-level profiling spans.
//!
//! Like `pma_common::simd`, this crate is hand-rolled on `std` alone — no
//! crates.io dependencies — so it can sit *below* every other crate in the
//! workspace (including `pma-common`) and be reached from the hottest paths
//! without dependency cycles.
//!
//! Three layers:
//!
//! 1. [`trace`] — per-thread lock-free ring buffers of fixed-size binary
//!    events behind a branch-predictable global enable flag. Disabled cost is
//!    one relaxed load plus a branch (enforced by the `obs_smoke` microbench).
//!    A drain API merges the rings and exports Chrome `trace_event` JSON that
//!    opens in `chrome://tracing` / Perfetto.
//! 2. [`metrics`] — named counters/gauges/histograms behind the
//!    [`metrics::Observe`]/[`metrics::MetricSource`] traits, a registry of
//!    weakly-held sources, an interval sampler producing time-series buffers,
//!    and Prometheus-style text / JSON exposition.
//! 3. Profiling spans — [`trace::span`] RAII timers used by the rebalancer
//!    (claim/settle/install/release), the incremental split machinery (fence,
//!    chase rounds, closing fold), resize publication, epoch reclamation and
//!    `frozen()` capture.
//!
//! Capture a trace from any example or bench:
//!
//! ```text
//! PMA_TRACE=1 cargo run --release --example mixed_workload
//! # -> trace.json, load it at https://ui.perfetto.dev
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod metrics;
pub mod trace;

pub use metrics::{
    Fold, MetricSource, MetricsRegistry, MetricsSeries, MetricsSnapshot, Observations, Observe,
    Totals,
};
pub use trace::{span, Category, Span, TraceEvent};
