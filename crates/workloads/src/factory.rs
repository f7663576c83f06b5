//! Registry-backed construction of the structures compared in the paper's
//! evaluation.
//!
//! The experiment binaries, examples and tests select structures by
//! *backend spec string* (see [`pma_common::registry`]) — e.g.
//! `"pma-batch:100"`, `"btree:8k"` — and this module provides:
//!
//! * [`ensure_builtin_backends`] — one-time installation of every built-in
//!   backend (the PMA variants from `pma_core` and the tree baselines from
//!   `pma_baselines`) into the global [`Registry`];
//! * [`build`] / [`label`] — convenience wrappers over the global registry;
//! * the spec sets of the paper's figures ([`figure3_specs`],
//!   [`figure4_specs`], [`ablation_segment_specs`], [`ablation_leaf_specs`]).
//!
//! Adding a brand-new backend does **not** require touching this crate:
//! register it on [`Registry::global`] at startup and select it by name
//! (e.g. via the experiment binaries' `--structures` flag).

use std::sync::Arc;
use std::sync::Once;

use pma_common::{ConcurrentMap, PmaError, Registry};

/// Installs the built-in backends into [`Registry::global`] (idempotent):
/// the PMA variants from `pma_core`, the tree baselines from
/// `pma_baselines`, and the range-sharded engine from `pma_engine` (whose
/// `sharded:<n>:<inner-spec>` specs resolve their inner structure through
/// the same global registry).
pub fn ensure_builtin_backends() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        pma_core::register_backends(Registry::global());
        pma_baselines::register_backends(Registry::global());
        pma_engine::register_backends(Registry::global());
    });
}

/// Builds the structure selected by `spec` via the global registry.
pub fn build(spec: &str) -> Result<Arc<dyn ConcurrentMap>, PmaError> {
    ensure_builtin_backends();
    Registry::global().build(spec)
}

/// Builds the structure selected by `spec`, panicking with the registry's
/// descriptive error on failure (for binaries and tests).
pub fn build_or_panic(spec: &str) -> Arc<dyn ConcurrentMap> {
    build(spec).unwrap_or_else(|e| panic!("cannot build `{spec}`: {e}"))
}

/// Builds the structure selected by `spec` pre-populated with the sorted
/// `items`, dispatching to the backend's native bulk loader when it has one
/// (see `Registry::build_loaded` in [`pma_common::registry`]).
pub fn build_loaded(
    spec: &str,
    items: &[(pma_common::Key, pma_common::Value)],
) -> Result<Arc<dyn ConcurrentMap>, PmaError> {
    ensure_builtin_backends();
    Registry::global().build_loaded(spec, items)
}

/// Display label for `spec`, matching the paper's figures; falls back to the
/// spec itself for unknown backends.
pub fn label(spec: &str) -> String {
    ensure_builtin_backends();
    Registry::global()
        .label(spec)
        .unwrap_or_else(|_| spec.to_string())
}

/// Builds the **byte-keyed** structure selected by `spec` via the global
/// registry's byte-backend table (`bpma:<chunk>`, `bbtree`, `b64:<inner>`,
/// `bsharded:<n>:<inner>`).
pub fn build_bytes(spec: &str) -> Result<Arc<dyn pma_common::ConcurrentByteMap>, PmaError> {
    ensure_builtin_backends();
    Registry::global().build_bytes(spec)
}

/// Builds the byte-keyed structure selected by `spec` pre-populated with the
/// key-sorted `items`, through the backend's native bulk loader when it has
/// one.
pub fn build_bytes_loaded(
    spec: &str,
    items: &[(Vec<u8>, pma_common::Value)],
) -> Result<Arc<dyn pma_common::ConcurrentByteMap>, PmaError> {
    ensure_builtin_backends();
    Registry::global().build_bytes_loaded(spec, items)
}

/// Display label for a byte-backend `spec`; falls back to the spec itself.
pub fn byte_label(spec: &str) -> String {
    ensure_builtin_backends();
    Registry::global()
        .byte_label(spec)
        .unwrap_or_else(|_| spec.to_string())
}

/// The four structures of Figure 3.
pub fn figure3_specs() -> Vec<String> {
    ["masstree", "bwtree", "btree", "pma-batch:100"]
        .map(String::from)
        .to_vec()
}

/// The PMA variants of Figure 4.
pub fn figure4_specs() -> Vec<String> {
    [
        "pma-sync",
        "pma-1by1",
        "pma-batch:0",
        "pma-batch:100",
        "pma-batch:200",
        "pma-batch:400",
        "pma-batch:800",
    ]
    .map(String::from)
    .to_vec()
}

/// The section 4.1 segment-size ablation (128 vs 256 elements per segment).
pub fn ablation_segment_specs() -> Vec<String> {
    ["pma-batch:100", "pma-seg:256"].map(String::from).to_vec()
}

/// The section 4.1 B+-tree leaf-size ablation (4 KiB vs 8 KiB leaves).
pub fn ablation_leaf_specs() -> Vec<String> {
    ["btree:4k", "btree:8k"].map(String::from).to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_sets_have_expected_sizes() {
        assert_eq!(figure3_specs().len(), 4);
        assert_eq!(figure4_specs().len(), 7);
        assert_eq!(ablation_segment_specs().len(), 2);
        assert_eq!(ablation_leaf_specs().len(), 2);
    }

    #[test]
    fn every_registered_byte_backend_builds_and_works() {
        ensure_builtin_backends();
        let names = Registry::global().byte_names();
        assert!(names.contains(&"bpma".to_string()), "{names:?}");
        assert!(names.contains(&"bsharded".to_string()), "{names:?}");
        assert!(names.contains(&"bbtree".to_string()), "{names:?}");
        for name in names {
            let map = build_bytes(&name).unwrap_or_else(|e| panic!("{name}: {e}"));
            for i in 0..200 {
                map.insert(format!("key/{i:04}").as_bytes(), i);
            }
            map.flush();
            assert_eq!(map.len(), 200, "{name}");
            assert_eq!(map.get(b"key/0042"), Some(42), "{name}");
            assert_eq!(map.prefix_stats(b"key/01").count, 100, "{name}");
            assert!(!byte_label(&name).is_empty());
        }
    }

    #[test]
    fn every_registered_backend_builds_and_works() {
        ensure_builtin_backends();
        for name in Registry::global().names() {
            let map = build_or_panic(&name);
            for k in 0..500i64 {
                map.insert(k, k);
            }
            map.flush();
            assert_eq!(map.len(), 500, "{name}");
            assert_eq!(map.get(123), Some(123), "{name}");
            assert_eq!(map.scan_all().count, 500, "{name}");
            assert!(!label(&name).is_empty());
        }
    }

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(label("masstree"), "MassTree");
        assert_eq!(label("pma-batch:100"), "PMA Batch 100ms");
        assert_eq!(label("pma-seg:256"), "PMA seg=256");
        assert_eq!(label("btree:8k"), "ART/B+tree 8KB");
        assert_eq!(
            label("sharded:4:pma-batch:100"),
            "Sharded 4x PMA Batch 100ms"
        );
        // Unknown specs fall back to themselves so tables stay renderable.
        assert_eq!(label("not-a-backend:3"), "not-a-backend:3");
    }

    #[test]
    fn figure_specs_resolve_through_the_registry() {
        for spec in figure3_specs()
            .into_iter()
            .chain(figure4_specs())
            .chain(ablation_segment_specs())
            .chain(ablation_leaf_specs())
        {
            assert!(build(&spec).is_ok(), "{spec}");
        }
    }
}
