//! # Packed Memory Arrays with concurrent reads and updates
//!
//! This crate implements the data structure of the paper *Fast Concurrent
//! Reads and Updates with PMAs* (Dean De Leo and Peter Boncz, GRADES-NDA
//! 2019):
//!
//! * The classic PMA of paper section 2 — a sorted array with gaps, a
//!   calibrator tree with interpolated density thresholds, traditional and
//!   adaptive rebalancing — lives in [`calibrator`], [`adaptive`] and one
//!   *chunk* of the concurrent array (`concurrent/chunk.rs`).
//! * [`concurrent::ConcurrentPma`] — the paper's contribution (section 3): the
//!   PMA is split into chunks protected by *gates*, point operations hold at
//!   most one gate latch, a *static index* routes lookups to gates in
//!   `O(log_B N)`, a *rebalancer service* thread executes rebalances
//!   that span multiple gates, resizes are published through a single entry
//!   pointer and reclaimed with epoch-based garbage collection, and contended
//!   writers combine their updates asynchronously (one-by-one or batched with
//!   a `t_delay` throttle).
//!
//! The PMA additionally ships a bulk-load constructor (`from_sorted`) that
//! presizes the array from the calibrated density bounds
//! ([`params::PmaParams::presized_segments`]) and lays the sorted input out
//! in one pass with zero rebalances — see `docs/ARCHITECTURE.md` for the full
//! map from paper sections to modules.
//!
//! ## Quick start
//!
//! ```
//! use pma_core::concurrent::ConcurrentPma;
//! use pma_core::params::PmaParams;
//! use pma_common::ConcurrentMap;
//!
//! let pma = ConcurrentPma::new(PmaParams::small()).unwrap();
//! pma.insert(10, 100);
//! pma.insert(20, 200);
//! assert_eq!(pma.get(10), Some(100));
//! let stats = pma.scan_all();
//! assert_eq!(stats.count, 2);
//! ```

#![warn(missing_docs)]

pub mod adaptive;
pub mod backends;
pub mod bytepma;
pub mod calibrator;
pub mod concurrent;
pub mod params;
pub mod stats;

pub use backends::{register_backends, register_byte_backends};
pub use bytepma::{BytePma, BytePmaConfig};
pub use concurrent::ConcurrentPma;
pub use params::{DensityThresholds, PmaParams, RebalancePolicy, UpdateMode};
pub use stats::Stats;
