//! Workload generators, multi-threaded drivers and the measurement harness
//! used to reproduce the paper's evaluation (section 4).
//!
//! * [`distribution`] — uniform and Zipfian key streams over `beta = 2^27`.
//! * [`spec`] — experiment descriptions (thread splits, update patterns).
//! * [`drivers`] — the measured insert-only and mixed-update phases with
//!   concurrent scanner threads.
//! * [`open_loop`] — arrival-rate-scheduled (open-loop) driver with deficit
//!   accounting, per-op sojourn times and a saturation sweep that ramps the
//!   offered load until deadline misses exceed a threshold.
//! * [`latency`] — fixed-bucket per-operation latency histograms; the
//!   drivers report p50/p99/p999 update latency next to throughput.
//! * [`harness`] — median-of-repeats measurement and paper-style tables.
//! * [`factory`] — registry-backed construction of every structure of the
//!   evaluation by spec string (see [`pma_common::registry`]).
//! * [`urlcorpus`] — deterministic shared-prefix-heavy URL key corpus.

#![warn(missing_docs)]

pub mod distribution;
pub mod drivers;
pub mod factory;
pub mod harness;
pub mod latency;
pub mod open_loop;
pub mod spec;
pub mod urlcorpus;

pub use distribution::{Distribution, KeyGenerator, DEFAULT_KEY_RANGE};
pub use drivers::{preload, run_insert_only, run_mixed_updates, run_workload, Measurement};
pub use factory::{
    ablation_leaf_specs, ablation_segment_specs, build, build_bytes, build_bytes_loaded,
    build_loaded, build_or_panic, byte_label, ensure_builtin_backends, figure3_specs,
    figure4_specs, label,
};
pub use harness::{measure_median, render_speedup_table, render_table, ResultRow};
pub use latency::{LatencyHistogram, LATENCY_SAMPLE_INTERVAL};
pub use open_loop::{
    run_open_loop, saturation_sweep, OpenLoopMeasurement, OpenLoopSpec, SweepConfig,
};
pub use spec::{ThreadSplit, UpdatePattern, WorkloadSpec};
pub use urlcorpus::UrlCorpus;
