//! Registry entries for the range-sharded engine and the thread-per-core
//! router.
//!
//! [`register_backends`] installs the `sharded` and `cores` backends into a
//! [`Registry`]; they are then constructible by spec string without any
//! consumer naming the concrete types:
//!
//! ```text
//! sharded[:<n>[:<inner-spec>]]
//! cores[:<n>[:<inner-spec>]]
//! ```
//!
//! For `sharded`, `<n>` is the shard count an empty map starts with and the
//! minimum a bulk load opens with (default 8; a load plans as many shards as
//! keep each at or under `split_above`) and `<inner-spec>` is the registry spec each shard instantiates (default
//! `pma-batch:100`; it may itself contain colons, e.g.
//! `sharded:8:pma-batch:100` or `sharded:4:btree:8k`). For `cores`, `<n>`
//! is the pinned worker count (default: available parallelism, capped at 8)
//! and `<inner-spec>` is the structure the workers apply into (default
//! `sharded:8:pma-batch:100`, the intended shard-affine pairing — but any
//! registered backend works). Inner specs are resolved against the **same
//! registry that dispatched the build** (its definition is captured once at
//! construction), so a backend set registered into a local [`Registry`]
//! composes without any global state; labels fall back to
//! [`Registry::global`] only for rendering the inner name. Nested `sharded`
//! inner specs (and `cores` inside `cores`) are rejected.

use std::sync::Arc;

use pma_common::bytemap::ConcurrentByteMap;
use pma_common::registry::{BackendDef, BackendSpec, ByteBackendDef, Registry};
use pma_common::{ConcurrentMap, Key, PmaError, Value};

use crate::bytesharded::{ByteShardConfig, ShardedByteMap};
use crate::router::{CoreRouter, CoreRouterConfig};
use crate::sharded::{ShardedConfig, ShardedMap};

/// The inner spec used when the spec string does not name one.
pub const DEFAULT_INNER_SPEC: &str = "pma-batch:100";

/// The shard count used when the spec string does not name one.
pub const DEFAULT_SHARDS: usize = 8;

/// The inner spec a bare `cores` spec wraps.
pub const DEFAULT_CORES_INNER_SPEC: &str = "sharded:8:pma-batch:100";

/// Parses the `sharded` argument grammar: `<n>` or `<n>:<inner-spec>`.
fn parse_config(spec: &BackendSpec<'_>) -> Result<ShardedConfig, PmaError> {
    let (count, inner) = match spec.arg {
        None => (None, DEFAULT_INNER_SPEC),
        Some(arg) => match arg.split_once(':') {
            Some((n, rest)) => (Some(n.trim()), rest.trim()),
            None => (Some(arg.trim()), DEFAULT_INNER_SPEC),
        },
    };
    let shards = match count {
        None => DEFAULT_SHARDS,
        Some(n) => n.parse().map_err(|_| {
            PmaError::invalid(
                "backend_spec",
                format!("`{}`: shard count `{n}` is not an integer", spec.raw),
            )
        })?,
    };
    let config = ShardedConfig {
        shards,
        inner_spec: inner.to_string(),
        ..ShardedConfig::default()
    };
    config.validate()?;
    Ok(config)
}

fn build_sharded(
    registry: &Registry,
    spec: &BackendSpec<'_>,
) -> Result<Arc<dyn ConcurrentMap>, PmaError> {
    Ok(Arc::new(ShardedMap::new(parse_config(spec)?, registry)?))
}

/// Native bulk loader: fan-out and fences adapt to the data and the shards
/// are built side by side, each through its inner backend's native loader.
fn build_loaded_sharded(
    registry: &Registry,
    spec: &BackendSpec<'_>,
    items: &[(Key, Value)],
) -> Result<Arc<dyn ConcurrentMap>, PmaError> {
    Ok(Arc::new(ShardedMap::from_sorted(
        parse_config(spec)?,
        registry,
        items,
    )?))
}

fn label_sharded(spec: &BackendSpec<'_>) -> String {
    match parse_config(spec) {
        Ok(config) => {
            let inner = Registry::global()
                .label(&config.inner_spec)
                .unwrap_or_else(|_| config.inner_spec.clone());
            format!("Sharded {}x {}", config.shards, inner)
        }
        Err(_) => format!("Sharded[{}]", spec.raw),
    }
}

/// Parses the `cores` argument grammar: `<n>` or `<n>:<inner-spec>`.
/// Returns the router config plus the inner spec string.
fn parse_cores(spec: &BackendSpec<'_>) -> Result<(CoreRouterConfig, String), PmaError> {
    let (count, inner) = match spec.arg {
        None => (None, DEFAULT_CORES_INNER_SPEC),
        Some(arg) => match arg.split_once(':') {
            Some((n, rest)) => (Some(n.trim()), rest.trim()),
            None => (Some(arg.trim()), DEFAULT_CORES_INNER_SPEC),
        },
    };
    let mut config = CoreRouterConfig::default();
    if let Some(n) = count {
        config.workers = n.parse().map_err(|_| {
            PmaError::invalid(
                "backend_spec",
                format!("`{}`: worker count `{n}` is not an integer", spec.raw),
            )
        })?;
    }
    if inner.is_empty() {
        return Err(PmaError::invalid(
            "backend_spec",
            format!("`{}`: empty inner spec", spec.raw),
        ));
    }
    if inner == "cores" || inner.starts_with("cores:") {
        // A router inside a router would ship every op across two queues
        // for no routing gain.
        return Err(PmaError::invalid(
            "backend_spec",
            format!("`{}`: `cores` cannot nest inside `cores`", spec.raw),
        ));
    }
    Ok((config, inner.to_string()))
}

fn build_cores(
    registry: &Registry,
    spec: &BackendSpec<'_>,
) -> Result<Arc<dyn ConcurrentMap>, PmaError> {
    let (config, inner_spec) = parse_cores(spec)?;
    let inner = registry.build(&inner_spec)?;
    Ok(Arc::new(CoreRouter::new(config, inner)?))
}

/// Native bulk loader: the inner structure is bulk-loaded through its own
/// native loader, then wrapped behind the router (the load happens before
/// any worker can ship, so no ordering interplay exists).
fn build_loaded_cores(
    registry: &Registry,
    spec: &BackendSpec<'_>,
    items: &[(Key, Value)],
) -> Result<Arc<dyn ConcurrentMap>, PmaError> {
    let (config, inner_spec) = parse_cores(spec)?;
    let inner = registry.build_loaded(&inner_spec, items)?;
    Ok(Arc::new(CoreRouter::new(config, inner)?))
}

/// The inner byte spec used when a `bsharded` spec does not name one.
pub const DEFAULT_BYTE_INNER_SPEC: &str = "bpma:128";

/// Parses the `bsharded` argument grammar: `<n>` or `<n>:<inner-byte-spec>`.
fn parse_byte_config(spec: &BackendSpec<'_>) -> Result<ByteShardConfig, PmaError> {
    let (count, inner) = match spec.arg {
        None => (None, DEFAULT_BYTE_INNER_SPEC),
        Some(arg) => match arg.split_once(':') {
            Some((n, rest)) => (Some(n.trim()), rest.trim()),
            None => (Some(arg.trim()), DEFAULT_BYTE_INNER_SPEC),
        },
    };
    let shards = match count {
        None => DEFAULT_SHARDS,
        Some(n) => n.parse().map_err(|_| {
            PmaError::invalid(
                "backend_spec",
                format!("`{}`: shard count `{n}` is not an integer", spec.raw),
            )
        })?,
    };
    Ok(ByteShardConfig {
        shards,
        inner_spec: inner.to_string(),
    })
}

fn build_bsharded(
    registry: &Registry,
    spec: &BackendSpec<'_>,
) -> Result<Arc<dyn ConcurrentByteMap>, PmaError> {
    Ok(Arc::new(ShardedByteMap::new(
        parse_byte_config(spec)?,
        registry,
    )?))
}

fn build_loaded_bsharded(
    registry: &Registry,
    spec: &BackendSpec<'_>,
    items: &[(Vec<u8>, Value)],
) -> Result<Arc<dyn ConcurrentByteMap>, PmaError> {
    Ok(Arc::new(ShardedByteMap::from_sorted_bytes(
        parse_byte_config(spec)?,
        registry,
        items,
    )?))
}

fn label_bsharded(spec: &BackendSpec<'_>) -> String {
    match parse_byte_config(spec) {
        Ok(config) => {
            let inner = Registry::global()
                .byte_label(&config.inner_spec)
                .unwrap_or_else(|_| config.inner_spec.clone());
            format!("ByteSharded {}x {}", config.shards, inner)
        }
        Err(_) => format!("ByteSharded[{}]", spec.raw),
    }
}

fn label_cores(spec: &BackendSpec<'_>) -> String {
    match parse_cores(spec) {
        Ok((config, inner_spec)) => {
            let inner = Registry::global()
                .label(&inner_spec)
                .unwrap_or_else(|_| inner_spec.clone());
            format!("Cores {}x {}", config.workers, inner)
        }
        Err(_) => format!("Cores[{}]", spec.raw),
    }
}

/// Registers the `sharded` and `cores` backends. Inner specs resolve
/// through [`Registry::global`], so the providers of the inner structures
/// (e.g. `pma_core::register_backends`) must be installed there as well.
pub fn register_backends(registry: &Registry) {
    registry.register(BackendDef {
        name: "sharded",
        description: "range-sharded engine over N inner instances; \
                      arg = <n>[:<inner-spec>] (default 8:pma-batch:100)",
        label: label_sharded,
        build: build_sharded,
        build_loaded: Some(build_loaded_sharded),
    });
    registry.register(BackendDef {
        name: "cores",
        description: "thread-per-core router shipping ops to N pinned workers \
                      over an inner structure; arg = <n>[:<inner-spec>] \
                      (default sharded:8:pma-batch:100)",
        label: label_cores,
        build: build_cores,
        build_loaded: Some(build_loaded_cores),
    });
    registry.register_bytes(ByteBackendDef {
        name: "bsharded",
        description: "range-sharded engine over N byte-keyed inner instances \
                      routed by byte fences; arg = <n>[:<inner-byte-spec>] \
                      (default 8:bpma:128)",
        label: label_bsharded,
        build: build_bsharded,
        build_loaded: Some(build_loaded_bsharded),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> &'static Registry {
        pma_core::register_backends(Registry::global());
        register_backends(Registry::global());
        Registry::global()
    }

    #[test]
    fn spec_grammar_roundtrip() {
        let registry = registry();
        for (spec, shards) in [
            ("sharded", DEFAULT_SHARDS),
            ("sharded:4", 4),
            ("sharded:2:pma-batch:1", 2),
        ] {
            let map = registry.build(spec).unwrap();
            for k in 0..300i64 {
                map.insert(k * 1_000_003, k);
            }
            map.flush();
            assert_eq!(map.len(), 300, "{spec}");
            assert_eq!(map.scan_all().count, 300, "{spec}");
            let parsed = parse_config(&BackendSpec::parse(spec)).unwrap();
            assert_eq!(parsed.shards, shards, "{spec}");
        }
    }

    #[test]
    fn labels_name_count_and_inner() {
        let registry = registry();
        assert_eq!(
            registry.label("sharded:4:pma-batch:100").unwrap(),
            "Sharded 4x PMA Batch 100ms"
        );
        assert_eq!(
            registry.label("sharded").unwrap(),
            "Sharded 8x PMA Batch 100ms"
        );
    }

    #[test]
    fn bulk_load_dispatches_to_the_native_loader() {
        let registry = registry();
        let items: Vec<(i64, i64)> = (0..5_000i64).map(|k| (k * 3, -k)).collect();
        let map = registry
            .build_loaded("sharded:4:pma-batch:1", &items)
            .unwrap();
        assert_eq!(map.len(), 5_000);
        assert_eq!(map.get(300), Some(-100));
        assert_eq!(map.scan_all().count, 5_000);
    }

    #[test]
    fn composes_inside_a_local_registry_without_global_state() {
        // The inner spec must resolve against the registry that dispatched
        // the build — a purely local registry works end to end, including
        // the splits the inner definition is captured for.
        let local = Registry::new();
        pma_core::register_backends(&local);
        register_backends(&local);
        let map = local.build("sharded:2:pma-batch:1").unwrap();
        for k in 0..500i64 {
            map.insert(k, k);
        }
        map.flush();
        assert_eq!(map.len(), 500);
        assert_eq!(map.scan_all().count, 500);
        let loaded = local
            .build_loaded("sharded:3:pma-sync", &[(1, 10), (2, 20), (3, 30)])
            .unwrap();
        assert_eq!(loaded.len(), 3);
        // An inner spec the local registry does not know is rejected even if
        // some other registry (e.g. the global one) would resolve it.
        let bare = Registry::new();
        register_backends(&bare);
        assert!(bare.build("sharded:2:pma-batch:1").is_err());
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let registry = registry();
        assert!(registry.build("sharded:0").is_err());
        assert!(registry.build("sharded:abc").is_err());
        assert!(registry.build("sharded:2:sharded:2:pma-sync").is_err());
        assert!(registry.build("sharded:2:warp-drive").is_err());
    }

    #[test]
    fn cores_spec_grammar_roundtrip() {
        let registry = registry();
        for spec in [
            "cores",
            "cores:2",
            "cores:2:sharded:2:pma-batch:1",
            "cores:4:pma-sync",
        ] {
            let map = registry.build(spec).unwrap();
            for k in 0..300i64 {
                map.insert(k * 1_000_003, k);
            }
            map.flush();
            assert_eq!(map.len(), 300, "{spec}");
            assert_eq!(map.scan_all().count, 300, "{spec}");
            assert_eq!(map.get(1_000_003), Some(1), "{spec}");
        }
    }

    #[test]
    fn cores_labels_name_workers_and_inner() {
        let registry = registry();
        assert_eq!(
            registry.label("cores:2:sharded:4:pma-batch:100").unwrap(),
            "Cores 2x Sharded 4x PMA Batch 100ms"
        );
        assert_eq!(
            registry.label("cores:2:pma-batch:100").unwrap(),
            "Cores 2x PMA Batch 100ms"
        );
    }

    #[test]
    fn cores_bulk_load_dispatches_to_the_inner_native_loader() {
        let registry = registry();
        let items: Vec<(i64, i64)> = (0..5_000i64).map(|k| (k * 3, -k)).collect();
        let map = registry
            .build_loaded("cores:2:sharded:4:pma-batch:1", &items)
            .unwrap();
        assert_eq!(map.len(), 5_000);
        assert_eq!(map.get(300), Some(-100));
        assert_eq!(map.scan_all().count, 5_000);
    }

    #[test]
    fn invalid_cores_specs_are_rejected() {
        let registry = registry();
        assert!(registry.build("cores:0").is_err());
        assert!(registry.build("cores:abc").is_err());
        assert!(registry.build("cores:2:cores:2:pma-sync").is_err());
        assert!(registry.build("cores:2:warp-drive").is_err());
    }

    #[test]
    fn bsharded_spec_grammar_roundtrip() {
        let registry = registry();
        for spec in ["bsharded", "bsharded:4", "bsharded:2:bpma:16"] {
            let map = registry.build_bytes(spec).unwrap();
            for i in 0..200 {
                map.insert(format!("user:{i:04}").as_bytes(), i);
            }
            assert_eq!(map.len(), 200, "{spec}");
            assert_eq!(map.scan_all().count, 200, "{spec}");
            assert_eq!(map.prefix_stats(b"user:01").count, 100, "{spec}");
        }
        let items: Vec<(Vec<u8>, i64)> = (0..500)
            .map(|i| (format!("k{i:06}").into_bytes(), i))
            .collect();
        let loaded = registry
            .build_bytes_loaded("bsharded:4:bpma:32", &items)
            .unwrap();
        assert_eq!(loaded.len(), 500);
        assert_eq!(loaded.get(b"k000123"), Some(123));
    }

    #[test]
    fn bsharded_labels_name_count_and_inner() {
        let registry = registry();
        assert_eq!(
            registry.byte_label("bsharded:4:bpma:128").unwrap(),
            "ByteSharded 4x BytePMA chunk=128"
        );
    }

    #[test]
    fn invalid_bsharded_specs_are_rejected() {
        let registry = registry();
        assert!(registry.build_bytes("bsharded:0").is_err());
        assert!(registry.build_bytes("bsharded:abc").is_err());
        assert!(registry.build_bytes("bsharded:2:bsharded:2:bpma").is_err());
        assert!(registry.build_bytes("bsharded:2:warp-drive").is_err());
    }
}
