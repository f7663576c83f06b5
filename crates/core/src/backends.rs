//! Registry entries for the concurrent PMA variants evaluated in the paper.
//!
//! [`register_backends`] installs the PMA configurations of Figures 3/4 and
//! the section 4.1 ablation into a [`Registry`]; they are then constructible
//! by spec string (`"pma-batch:100"`, `"pma-sync"`, ...) without any consumer
//! naming a concrete type.

use std::sync::Arc;
use std::time::Duration;

use pma_common::bytemap::{dedup_sorted_bytes_last_wins, ConcurrentByteMap};
use pma_common::registry::{BackendDef, BackendSpec, ByteBackendDef, Registry};
use pma_common::types::decode_key;
use pma_common::{ByteView64, ConcurrentMap, PmaError, Value};

use crate::bytepma::{BytePma, BytePmaConfig};
use crate::concurrent::ConcurrentPma;
use crate::params::{PmaParams, RebalancePolicy, UpdateMode};

/// The paper's PMA configuration with a configurable segment capacity and
/// update mode.
pub fn paper_pma_params(update_mode: UpdateMode, segment_capacity: usize) -> PmaParams {
    PmaParams {
        segment_capacity,
        update_mode,
        ..PmaParams::default()
    }
}

/// Parameters for the spec's PMA variant (shared by `build` and
/// `build_loaded` so both construction paths configure identically).
fn spec_params(spec: &BackendSpec<'_>) -> Result<PmaParams, PmaError> {
    match spec.name {
        "pma-sync" => Ok(paper_pma_params(UpdateMode::Synchronous, 128)),
        "pma-1by1" => {
            let mut params = paper_pma_params(UpdateMode::OneByOne, 128);
            params.rebalance_policy = RebalancePolicy::Adaptive;
            Ok(params)
        }
        "pma-batch" => {
            let t_delay = Duration::from_millis(spec.u64_arg(100)?);
            Ok(paper_pma_params(UpdateMode::Batch { t_delay }, 128))
        }
        "pma-seg" => {
            let segment_capacity = spec.u64_arg(256)? as usize;
            Ok(paper_pma_params(
                UpdateMode::Batch {
                    t_delay: Duration::from_millis(100),
                },
                segment_capacity,
            ))
        }
        other => Err(PmaError::NotFound(format!("unknown PMA variant `{other}`"))),
    }
}

fn build_pma(
    _registry: &Registry,
    spec: &BackendSpec<'_>,
) -> Result<Arc<dyn ConcurrentMap>, PmaError> {
    Ok(Arc::new(ConcurrentPma::new(spec_params(spec)?)?))
}

/// Native bulk loader: presized [`ConcurrentPma::from_sorted`] construction,
/// zero rebalances during the load.
fn build_loaded_pma(
    _registry: &Registry,
    spec: &BackendSpec<'_>,
    items: &[(pma_common::Key, pma_common::Value)],
) -> Result<Arc<dyn ConcurrentMap>, PmaError> {
    Ok(Arc::new(ConcurrentPma::from_sorted(
        spec_params(spec)?,
        items,
    )?))
}

/// Registers every PMA variant: `pma-sync`, `pma-1by1`, `pma-batch[:ms]` and
/// `pma-seg[:capacity]`. All variants register the native bulk loader, so
/// `Registry::build_loaded` constructs them through
/// [`ConcurrentPma::from_sorted`].
pub fn register_backends(registry: &Registry) {
    registry.register(BackendDef {
        name: "pma-sync",
        description: "concurrent PMA, synchronous updates (Figure 4 baseline)",
        label: |_| "PMA Baseline".to_string(),
        build: build_pma,
        build_loaded: Some(build_loaded_pma),
    });
    registry.register(BackendDef {
        name: "pma-1by1",
        description: "concurrent PMA, one-by-one asynchronous updates (Figure 4 \"1by1\")",
        label: |_| "PMA 1by1".to_string(),
        build: build_pma,
        build_loaded: Some(build_loaded_pma),
    });
    registry.register(BackendDef {
        name: "pma-batch",
        description:
            "concurrent PMA, batch asynchronous updates; arg = t_delay in ms (default 100)",
        label: |spec| format!("PMA Batch {}ms", spec.u64_arg(100).unwrap_or(100)),
        build: build_pma,
        build_loaded: Some(build_loaded_pma),
    });
    registry.register(BackendDef {
        name: "pma-seg",
        description: "concurrent PMA, batch updates with a custom segment capacity; \
                      arg = elements per segment (default 256, section 4.1 ablation)",
        label: |spec| format!("PMA seg={}", spec.u64_arg(256).unwrap_or(256)),
        build: build_pma,
        build_loaded: Some(build_loaded_pma),
    });
    register_byte_backends(registry);
}

fn bpma_config(spec: &BackendSpec<'_>) -> Result<BytePmaConfig, PmaError> {
    Ok(BytePmaConfig {
        chunk_target: spec.u64_arg(128)? as usize,
    })
}

/// Default inner spec for the `b64` adapter when no argument is given.
const B64_DEFAULT_INNER: &str = "pma-batch:100";

fn build_b64(
    registry: &Registry,
    spec: &BackendSpec<'_>,
) -> Result<Arc<dyn ConcurrentByteMap>, PmaError> {
    let inner = spec.arg.unwrap_or(B64_DEFAULT_INNER);
    Ok(Arc::new(ByteView64::new(registry.build(inner)?)))
}

/// Native `b64` loader: decode the 8-byte keys once and hand the run to the
/// inner backend's own native loader through `Registry::build_loaded`.
fn build_loaded_b64(
    registry: &Registry,
    spec: &BackendSpec<'_>,
    items: &[(Vec<u8>, Value)],
) -> Result<Arc<dyn ConcurrentByteMap>, PmaError> {
    let inner = spec.arg.unwrap_or(B64_DEFAULT_INNER);
    let items = dedup_sorted_bytes_last_wins(items);
    let native: Vec<(pma_common::Key, Value)> = items
        .iter()
        .map(|(key, value)| {
            let arr: [u8; 8] = key.as_slice().try_into().map_err(|_| {
                PmaError::invalid(
                    "items",
                    format!("b64 keys must be exactly 8 bytes, got {}", key.len()),
                )
            })?;
            Ok((decode_key(arr), *value))
        })
        .collect::<Result<_, PmaError>>()?;
    Ok(Arc::new(ByteView64::new(
        registry.build_loaded(inner, &native)?,
    )))
}

/// Registers the byte-keyed backends provided by this crate:
///
/// * `bpma[:<chunk_target>]` — the prefix-compressed byte PMA;
/// * `b64[:<inner-u64-spec>]` — any u64 backend adapted to the byte surface
///   via the order-preserving 8-byte key encoding (default inner:
///   `pma-batch:100`), which also routes byte traffic through `sharded:*`
///   fences and the `cores:*` router once those are registered.
pub fn register_byte_backends(registry: &Registry) {
    registry.register_bytes(ByteBackendDef {
        name: "bpma",
        description: "byte-keyed PMA with prefix-compressed chunks; \
                      arg = target entries per chunk (default 128)",
        label: |spec| format!("BytePMA chunk={}", spec.u64_arg(128).unwrap_or(128)),
        build: |_, spec| Ok(Arc::new(BytePma::new(bpma_config(spec)?)?)),
        build_loaded: Some(|_, spec, items| {
            Ok(Arc::new(BytePma::from_sorted_bytes(
                bpma_config(spec)?,
                items,
            )?))
        }),
    });
    registry.register_bytes(ByteBackendDef {
        name: "b64",
        description: "byte view over a u64 backend (fixed 8-byte keys); \
                      arg = inner u64 spec (default pma-batch:100)",
        label: |spec| format!("ByteView64[{}]", spec.arg.unwrap_or(B64_DEFAULT_INNER)),
        build: build_b64,
        build_loaded: Some(build_loaded_b64),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pma_backend_builds_and_works() {
        let registry = Registry::new();
        register_backends(&registry);
        for spec in ["pma-sync", "pma-1by1", "pma-batch:1", "pma-seg:64"] {
            let map = registry.build(spec).unwrap();
            for k in 0..300i64 {
                map.insert(k, k);
            }
            map.flush();
            assert_eq!(map.len(), 300, "{spec}");
            assert_eq!(map.scan_range(10, 19).count, 10, "{spec}");
        }
    }

    #[test]
    fn every_pma_backend_bulk_loads_natively() {
        let registry = Registry::new();
        register_backends(&registry);
        let items: Vec<(i64, i64)> = (0..2_000i64).map(|k| (k * 2, -k)).collect();
        for spec in ["pma-sync", "pma-1by1", "pma-batch:1", "pma-seg:64"] {
            let map = registry.build_loaded(spec, &items).unwrap();
            assert_eq!(map.len(), 2_000, "{spec}");
            assert_eq!(map.get(100), Some(-50), "{spec}");
            assert_eq!(map.scan_all().count, 2_000, "{spec}");
        }
    }

    #[test]
    fn labels_match_paper_names() {
        let registry = Registry::new();
        register_backends(&registry);
        assert_eq!(registry.label("pma-sync").unwrap(), "PMA Baseline");
        assert_eq!(registry.label("pma-1by1").unwrap(), "PMA 1by1");
        assert_eq!(registry.label("pma-batch:100").unwrap(), "PMA Batch 100ms");
        assert_eq!(registry.label("pma-batch").unwrap(), "PMA Batch 100ms");
        assert_eq!(registry.label("pma-seg:256").unwrap(), "PMA seg=256");
    }

    #[test]
    fn invalid_arguments_are_rejected() {
        let registry = Registry::new();
        register_backends(&registry);
        assert!(registry.build("pma-batch:abc").is_err());
        assert!(
            registry.build("pma-seg:0").is_err(),
            "capacity 0 is invalid"
        );
        assert!(registry.build_bytes("bpma:1").is_err(), "chunk target 1");
        assert!(registry.build_bytes("b64:nope").is_err(), "unknown inner");
    }

    #[test]
    fn byte_backends_build_and_roundtrip() {
        let registry = Registry::new();
        register_backends(&registry);
        for spec in ["bpma:16", "b64:pma-batch:1"] {
            let map = registry.build_bytes(spec).unwrap();
            for k in 0..300_i64 {
                map.insert(&pma_common::types::encode_key(k), k);
            }
            map.flush();
            assert_eq!(map.len(), 300, "{spec}");
            assert_eq!(
                map.get(&pma_common::types::encode_key(7)),
                Some(7),
                "{spec}"
            );
            assert_eq!(map.scan_all().count, 300, "{spec}");
        }
        assert_eq!(registry.byte_label("bpma:16").unwrap(), "BytePMA chunk=16");
        assert_eq!(
            registry.byte_label("b64:pma-sync").unwrap(),
            "ByteView64[pma-sync]"
        );
    }

    #[test]
    fn b64_native_loader_dispatches_to_inner_loader() {
        let registry = Registry::new();
        register_backends(&registry);
        let mut items: Vec<(Vec<u8>, i64)> = (0..2_000_i64)
            .map(|k| (pma_common::types::encode_key(k * 2).to_vec(), -k))
            .collect();
        items.push(items[50].clone());
        items[2000].1 = 999; // duplicate of key 100: last wins
        items.sort();
        let map = registry
            .build_bytes_loaded("b64:pma-batch:1", &items)
            .unwrap();
        assert_eq!(map.len(), 2_000);
        assert_eq!(map.get(&pma_common::types::encode_key(100)), Some(999));
        let rejected = registry.build_bytes_loaded("b64", &[(b"short".to_vec(), 1)]);
        assert!(rejected.is_err(), "non-8-byte keys must be rejected");
    }
}
