//! Shared vocabulary for the `rma-concurrent` workspace.
//!
//! This crate defines the key/value types used by the evaluation of the paper
//! *Fast Concurrent Reads and Updates with PMAs* (De Leo & Boncz, GRADES-NDA
//! 2019), the [`ConcurrentMap`] trait that every data structure in the
//! workspace implements (the concurrent PMA and all tree baselines) —
//! including the bulk-load constructor `from_sorted` — the string-addressable
//! backend [`registry`] with its `build`/`build_loaded` dispatch, and a few
//! small utilities shared by the workload drivers and tests.

#![warn(missing_docs)]

pub mod bytemap;
pub mod error;
pub mod map;
pub mod registry;
pub mod simd;
pub mod types;
pub mod util;

/// The observability layer (tracing, metrics, profiling spans), re-exported
/// so every crate that depends on `pma-common` can reach it without a direct
/// manifest edge.
pub use pma_obs as obs;

pub use bytemap::{
    check_sorted_bytes, dedup_sorted_bytes_last_wins, ByteMemoryStats, ByteScanStats, ByteView64,
    ConcurrentByteMap, FrozenByteView,
};
pub use error::PmaError;
pub use map::{
    check_sorted, count_distinct_sorted, dedup_sorted_last_wins, elements_from_runs, metrics_of,
    runs_from_elements, CombiningStats, ConcurrentMap, FrozenView, MaintenanceStats, ScanStats,
};
pub use registry::{BackendDef, BackendSpec, ByteBackendDef, Registry};
pub use types::{ByteKey, Key, KeyValue, Value, KEY_MAX, KEY_MIN};
