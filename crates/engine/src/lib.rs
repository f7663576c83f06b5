//! # The range-sharded engine
//!
//! The first layer of the workspace that composes *whole paper-instances*
//! instead of growing one: [`ShardedMap`] range-partitions the key domain
//! across N inner [`pma_common::ConcurrentMap`] instances — each with its own
//! rebalancer service and epoch domain — behind a fence-key shard directory.
//!
//! * Point operations binary-search the directory in `O(log S)` and run
//!   entirely inside one shard.
//! * Ordered scans (`scan_all`, `scan_range`, `range`) concatenate the
//!   per-shard ordered streams in directory order: the ranges are disjoint
//!   and ascending, so nothing is merged or buffered, and the stats-folding
//!   scans run the per-shard streams concurrently.
//! * `insert_batch`/bulk loading split the input at the shard fences and
//!   ingest per-shard in parallel through the inner native batch/load paths.
//! * A load monitor splits hot shards and merges cold neighbours
//!   **copy-on-write**, both through one rebuild routine: the replacement
//!   shards are built from an ordered live-scan while writers keep landing
//!   (their concurrent delta is captured in a striped op log and folded in
//!   under a short final fence), then published by atomically swapping the
//!   directory — exactly the paper's §3.4 resize protocol (single entry
//!   pointer + epoch garbage collection). Hysteresis on the monitor's
//!   thresholds prevents split↔merge thrash when load hovers at a boundary.
//! * `snapshot()` pins one directory generation for its whole lifetime, so
//!   multi-call scans stay consistent across concurrent splits/merges.
//!
//! The engine registers in the backend registry as
//! `sharded:<n>:<inner-spec>` (see [`backends`]), so every driver, bench and
//! test that selects structures by spec string can run it unchanged.
//!
//! ## Quick start
//!
//! ```
//! use pma_common::{ConcurrentMap, Registry};
//!
//! pma_core::register_backends(Registry::global());
//! pma_engine::register_backends(Registry::global());
//!
//! let map = Registry::global().build("sharded:4:pma-batch:1").unwrap();
//! map.insert(7, 70);
//! map.insert(-7, -70);
//! assert_eq!(map.get(7), Some(70));
//! assert_eq!(map.scan_all().count, 2);
//! ```

#![warn(missing_docs)]

pub mod affinity;
pub mod backends;
pub mod bytesharded;
mod park;
mod ring;
pub mod router;
pub mod sharded;
pub mod stats;

pub use backends::register_backends;
pub use bytesharded::{ByteShardConfig, ShardedByteMap};
pub use router::{CoreRouter, CoreRouterConfig, CoreRouterStats, OverloadPolicy};
pub use sharded::{ShardSnapshot, ShardedConfig, ShardedFrozen, ShardedMap};
pub use stats::EngineStats;
