//! String-addressable registry of [`ConcurrentMap`] backends.
//!
//! Every data structure evaluated in the workspace registers itself here as a
//! `(name, description, labeler, builder)` entry; consumers — the workload
//! drivers, the `fig3`/`fig4`/`ablation` experiment binaries, the benchmark,
//! the examples and the cross-structure tests — construct instances
//! exclusively through [`Registry::build`] with a *backend spec* string.
//! Adding a new structure (or a new ablation of an existing one) is therefore
//! one `register` call at startup, not a new enum variant matched across
//! crates.
//!
//! # Spec-string grammar
//!
//! A spec is one token of the form
//!
//! ```text
//! spec    ::=  name [ ":" arg ]
//! name    ::=  registered backend name (no ":")
//! arg     ::=  backend-specific argument, uninterpreted by the registry
//! ```
//!
//! `name` — everything before the **first** `:` — selects the registered
//! entry; the optional `arg` (everything after that `:`, so it may itself
//! contain colons) parameterises it. The registry never interprets the
//! argument: each backend parses it in its `build`/`label` functions and
//! documents the accepted values in its `description` (the experiment
//! binaries print those with `--help`). Whitespace around the two parts is
//! trimmed. Examples from the built-in set:
//!
//! * `"pma-batch:100"` — concurrent PMA, batch asynchronous updates with a
//!   `t_delay` of 100 ms (the paper's headline configuration);
//! * `"pma-sync"` — the synchronous-update PMA (Figure 4's baseline);
//! * `"btree:8k"` — the lock-coupled B+-tree with 8 KiB leaves (section 4.1
//!   ablation);
//! * `"masstree"` — the Masstree-like write-optimised tree.
//!
//! # Registration
//!
//! Provider crates expose a `register_backends(&Registry)` function (see
//! `pma_core` and `pma_baselines`); the workload factory installs the
//! built-in set into [`Registry::global`] exactly once. Downstream code —
//! including tests and examples — can register additional backends directly:
//!
//! ```
//! use std::sync::Arc;
//! use pma_common::registry::{BackendDef, BackendSpec, Registry};
//!
//! let registry = Registry::new();
//! registry.register(BackendDef {
//!     name: "null",
//!     description: "discards everything (demo)",
//!     label: |spec| format!("Null[{}]", spec.raw),
//!     build: |_registry, _spec| Err(pma_common::PmaError::NotFound("demo only".into())),
//!     build_loaded: None,
//! });
//! assert!(registry.contains("null"));
//! assert_eq!(registry.label("null:x").unwrap(), "Null[null:x]");
//! ```
//!
//! # Bulk loading (`build_loaded`)
//!
//! [`Registry::build_loaded`] constructs a backend *pre-populated* with a
//! sorted run of key/value pairs. Dispatch works like [`Registry::build`],
//! with one extra step: if the entry registered a native loader
//! ([`BackendDef::build_loaded`]), the sorted run is handed to it so the
//! backend can lay out its final shape in one pass (the concurrent PMA
//! presizes the array from its calibrated density bounds and performs zero
//! rebalances; the B+-tree builds its leaf level bottom-up; and so on).
//! Entries without a native loader fall back to `build` followed by
//! [`crate::map::ConcurrentMap::insert_batch`] + `flush`, so every backend is
//! loadable either way. The input contract (ascending keys, duplicates
//! resolve to the last entry) is validated once, up front.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

use crate::bytemap::ConcurrentByteMap;
use crate::error::PmaError;
use crate::map::{check_sorted, ConcurrentMap};
use crate::types::{Key, Value};

/// A parsed backend spec string: `name` or `name:arg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendSpec<'a> {
    /// The spec as written (for labels and error messages).
    pub raw: &'a str,
    /// The registry entry name (everything before the first `:`).
    pub name: &'a str,
    /// The backend-specific argument (everything after the first `:`).
    pub arg: Option<&'a str>,
}

impl<'a> BackendSpec<'a> {
    /// Splits `raw` at the first `:` into name and argument.
    pub fn parse(raw: &'a str) -> Self {
        match raw.split_once(':') {
            Some((name, arg)) => Self {
                raw,
                name: name.trim(),
                arg: Some(arg.trim()),
            },
            None => Self {
                raw,
                name: raw.trim(),
                arg: None,
            },
        }
    }

    /// Parses the argument as a `u64`, with a default when absent.
    pub fn u64_arg(&self, default: u64) -> Result<u64, PmaError> {
        match self.arg {
            None => Ok(default),
            Some(arg) => arg.parse().map_err(|_| {
                PmaError::invalid(
                    "backend_spec",
                    format!("`{}`: argument `{arg}` is not an integer", self.raw),
                )
            }),
        }
    }
}

/// Builds one backend instance from a parsed spec.
///
/// The first argument is the **dispatching registry** — the one whose
/// `build` resolved the spec. Simple backends ignore it; composite backends
/// (e.g. the range-sharded engine, whose argument names an *inner* spec)
/// resolve their constituent specs against it, so a backend set registered
/// into a local [`Registry`] composes without reaching for
/// [`Registry::global`].
pub type BuildFn = fn(&Registry, &BackendSpec<'_>) -> Result<Arc<dyn ConcurrentMap>, PmaError>;

/// Renders the display label (matching the paper's figures) for a spec.
pub type LabelFn = fn(&BackendSpec<'_>) -> String;

/// Builds one backend instance pre-populated with a sorted run of pairs.
/// The first argument is the dispatching registry, as for [`BuildFn`].
///
/// The registry guarantees the keys are in non-decreasing order
/// ([`check_sorted`] runs before dispatch) but duplicates may still be
/// present: the loader is responsible for resolving them to the **last**
/// entry (use [`crate::map::dedup_sorted_last_wins`]), matching
/// `insert_batch` upsert semantics.
pub type LoadFn =
    fn(&Registry, &BackendSpec<'_>, &[(Key, Value)]) -> Result<Arc<dyn ConcurrentMap>, PmaError>;

/// One registered backend.
#[derive(Clone, Copy)]
pub struct BackendDef {
    /// Registry name, the part of a spec before `:`.
    pub name: &'static str,
    /// Human-readable description, including the accepted argument.
    pub description: &'static str,
    /// Display-label renderer.
    pub label: LabelFn,
    /// Instance builder.
    pub build: BuildFn,
    /// Native bulk loader used by [`Registry::build_loaded`]; `None` falls
    /// back to `build` + `insert_batch`.
    pub build_loaded: Option<LoadFn>,
}

impl std::fmt::Debug for BackendDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendDef")
            .field("name", &self.name)
            .field("description", &self.description)
            .finish()
    }
}

/// Builds one byte-keyed backend instance from a parsed spec (the
/// [`ConcurrentByteMap`] counterpart of [`BuildFn`]). The first argument is
/// the dispatching registry, so composite byte backends (`bsharded`) and
/// adapters over u64 backends (`b64`) resolve inner specs against it.
pub type ByteBuildFn =
    fn(&Registry, &BackendSpec<'_>) -> Result<Arc<dyn ConcurrentByteMap>, PmaError>;

/// Builds one byte-keyed backend pre-populated with a sorted run (the
/// [`ConcurrentByteMap`] counterpart of [`LoadFn`]). Keys arrive in
/// non-decreasing order; duplicates resolve to the last entry (use
/// [`crate::bytemap::dedup_sorted_bytes_last_wins`]).
pub type ByteLoadFn = fn(
    &Registry,
    &BackendSpec<'_>,
    &[(Vec<u8>, Value)],
) -> Result<Arc<dyn ConcurrentByteMap>, PmaError>;

/// One registered byte-keyed backend.
///
/// Byte backends live in a table *parallel* to the u64 [`BackendDef`] set —
/// same spec grammar, separate namespace — so the existing u64 surface
/// (every spec, test, and bench iterating [`Registry::names`]) is untouched
/// by the byte-key generalisation.
#[derive(Clone, Copy)]
pub struct ByteBackendDef {
    /// Registry name, the part of a spec before `:`.
    pub name: &'static str,
    /// Human-readable description, including the accepted argument.
    pub description: &'static str,
    /// Display-label renderer.
    pub label: LabelFn,
    /// Instance builder.
    pub build: ByteBuildFn,
    /// Native bulk loader used by [`Registry::build_bytes_loaded`]; `None`
    /// falls back to `build` + `insert_batch`.
    pub build_loaded: Option<ByteLoadFn>,
}

impl std::fmt::Debug for ByteBackendDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByteBackendDef")
            .field("name", &self.name)
            .field("description", &self.description)
            .finish()
    }
}

/// A set of named backends, addressable by spec string.
///
/// Holds two parallel tables: the original u64-keyed [`BackendDef`] entries
/// and the byte-keyed [`ByteBackendDef`] entries (`bpma`, `bbtree`,
/// `bsharded`, `b64`, …), dispatched through `build`/`build_loaded` and
/// `build_bytes`/`build_bytes_loaded` respectively.
#[derive(Debug, Default)]
pub struct Registry {
    entries: RwLock<BTreeMap<&'static str, BackendDef>>,
    byte_entries: RwLock<BTreeMap<&'static str, ByteBackendDef>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide registry used by the experiment harness.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Registers (or replaces) a backend definition.
    pub fn register(&self, def: BackendDef) {
        self.entries
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(def.name, def);
    }

    /// Whether a backend with `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(name)
    }

    /// Names of all registered backends, sorted.
    pub fn names(&self) -> Vec<String> {
        self.entries
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .map(|n| n.to_string())
            .collect()
    }

    /// `(name, description)` of every registered backend, sorted by name.
    pub fn entries(&self) -> Vec<(String, String)> {
        self.entries
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(|d| (d.name.to_string(), d.description.to_string()))
            .collect()
    }

    fn lookup(&self, spec: &BackendSpec<'_>) -> Result<BackendDef, PmaError> {
        self.entries
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(spec.name)
            .copied()
            .ok_or_else(|| {
                PmaError::NotFound(format!(
                    "backend `{}` (from spec `{}`); registered: {}",
                    spec.name,
                    spec.raw,
                    self.names().join(", ")
                ))
            })
    }

    /// The display label for `spec` (e.g. `"pma-batch:100"` → "PMA Batch
    /// 100ms"), matching the paper's figures.
    pub fn label(&self, spec: &str) -> Result<String, PmaError> {
        let spec = BackendSpec::parse(spec);
        Ok((self.lookup(&spec)?.label)(&spec))
    }

    /// The registered definition resolving `spec`, for callers that need to
    /// capture a backend's constructors (e.g. a composite backend resolving
    /// its inner structure once, at its own construction time).
    pub fn definition(&self, spec: &str) -> Result<BackendDef, PmaError> {
        self.lookup(&BackendSpec::parse(spec))
    }

    /// Builds a fresh instance of the backend selected by `spec`, passing
    /// `self` as the dispatching registry (see [`BuildFn`]).
    pub fn build(&self, spec: &str) -> Result<Arc<dyn ConcurrentMap>, PmaError> {
        let spec = BackendSpec::parse(spec);
        (self.lookup(&spec)?.build)(self, &spec)
    }

    /// Builds an instance of the backend selected by `spec`, pre-populated
    /// with `items` (which must be sorted by key in non-decreasing order;
    /// the last entry wins on duplicate keys).
    ///
    /// Dispatches to the backend's native [`BackendDef::build_loaded`] when
    /// one is registered — the bulk-load fast path — and otherwise falls back
    /// to [`Registry::build`] followed by
    /// [`ConcurrentMap::insert_batch`] and [`ConcurrentMap::flush`]. Unsorted
    /// input is rejected with [`PmaError::InvalidParameter`] before any
    /// construction happens.
    pub fn build_loaded(
        &self,
        spec: &str,
        items: &[(Key, Value)],
    ) -> Result<Arc<dyn ConcurrentMap>, PmaError> {
        check_sorted(items)?;
        self.build_loaded_presorted(spec, items)
    }

    /// [`Registry::build_loaded`] for `items` already known to be sorted —
    /// a slice of an input its caller checked with [`check_sorted`], or the
    /// ordered contents of another structure — so a composite loader (the
    /// sharded engine's shards, a router's inner structure) does not read
    /// its input once more per layer. Unsorted `items` break the contract:
    /// debug builds assert, release builds build whatever the loader makes
    /// of them.
    pub fn build_loaded_presorted(
        &self,
        spec: &str,
        items: &[(Key, Value)],
    ) -> Result<Arc<dyn ConcurrentMap>, PmaError> {
        debug_assert!(check_sorted(items).is_ok(), "unsorted presorted input");
        let spec = BackendSpec::parse(spec);
        let def = self.lookup(&spec)?;
        match def.build_loaded {
            Some(load) => load(self, &spec, items),
            None => {
                let map = (def.build)(self, &spec)?;
                map.insert_batch(items);
                map.flush();
                Ok(map)
            }
        }
    }

    // -----------------------------------------------------------------
    // Byte-keyed backends (parallel table)
    // -----------------------------------------------------------------

    /// Registers (or replaces) a byte-keyed backend definition.
    pub fn register_bytes(&self, def: ByteBackendDef) {
        self.byte_entries
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(def.name, def);
    }

    /// Whether a byte-keyed backend with `name` is registered.
    pub fn contains_bytes(&self, name: &str) -> bool {
        self.byte_entries
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(name)
    }

    /// Names of all registered byte-keyed backends, sorted.
    pub fn byte_names(&self) -> Vec<String> {
        self.byte_entries
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .map(|n| n.to_string())
            .collect()
    }

    /// `(name, description)` of every registered byte-keyed backend, sorted
    /// by name.
    pub fn byte_entries(&self) -> Vec<(String, String)> {
        self.byte_entries
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .map(|d| (d.name.to_string(), d.description.to_string()))
            .collect()
    }

    fn lookup_bytes(&self, spec: &BackendSpec<'_>) -> Result<ByteBackendDef, PmaError> {
        self.byte_entries
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(spec.name)
            .copied()
            .ok_or_else(|| {
                PmaError::NotFound(format!(
                    "byte backend `{}` (from spec `{}`); registered: {}",
                    spec.name,
                    spec.raw,
                    self.byte_names().join(", ")
                ))
            })
    }

    /// The display label for a byte-backend `spec`.
    pub fn byte_label(&self, spec: &str) -> Result<String, PmaError> {
        let spec = BackendSpec::parse(spec);
        Ok((self.lookup_bytes(&spec)?.label)(&spec))
    }

    /// Builds a fresh byte-keyed backend selected by `spec`, passing `self`
    /// as the dispatching registry (see [`ByteBuildFn`]).
    pub fn build_bytes(&self, spec: &str) -> Result<Arc<dyn ConcurrentByteMap>, PmaError> {
        let spec = BackendSpec::parse(spec);
        (self.lookup_bytes(&spec)?.build)(self, &spec)
    }

    /// Builds a byte-keyed backend pre-populated with `items` (sorted by key
    /// in non-decreasing byte order; the last entry wins on duplicates).
    ///
    /// Dispatches to the entry's native [`ByteBackendDef::build_loaded`] when
    /// registered, and otherwise falls back to [`Registry::build_bytes`]
    /// followed by `insert_batch` + `flush`.
    pub fn build_bytes_loaded(
        &self,
        spec: &str,
        items: &[(Vec<u8>, Value)],
    ) -> Result<Arc<dyn ConcurrentByteMap>, PmaError> {
        for pair in items.windows(2) {
            if pair[0].0 > pair[1].0 {
                return Err(PmaError::invalid(
                    "items",
                    "bulk-load input must be sorted by key in non-decreasing byte order"
                        .to_string(),
                ));
            }
        }
        let spec = BackendSpec::parse(spec);
        let def = self.lookup_bytes(&spec)?;
        match def.build_loaded {
            Some(load) => load(self, &spec, items),
            None => {
                let map = (def.build)(self, &spec)?;
                map.insert_batch(items);
                map.flush();
                Ok(map)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::ScanStats;
    use crate::types::{Key, Value};

    #[derive(Default)]
    struct Dummy(std::sync::Mutex<std::collections::BTreeMap<Key, Value>>);

    impl ConcurrentMap for Dummy {
        fn insert(&self, key: Key, value: Value) {
            self.0.lock().unwrap().insert(key, value);
        }
        fn remove(&self, key: Key) -> Option<Value> {
            self.0.lock().unwrap().remove(&key)
        }
        fn get(&self, key: Key) -> Option<Value> {
            self.0.lock().unwrap().get(&key).copied()
        }
        fn len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
        fn scan_all(&self) -> ScanStats {
            self.scan_range(Key::MIN, Key::MAX)
        }
        fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
            if lo > hi {
                return;
            }
            for (&k, &v) in self.0.lock().unwrap().range(lo..=hi) {
                visitor(k, v);
            }
        }
        fn name(&self) -> &'static str {
            "dummy"
        }
    }

    fn dummy_def() -> BackendDef {
        BackendDef {
            name: "dummy",
            description: "test backend; arg = ignored",
            label: |spec| match spec.arg {
                Some(arg) => format!("Dummy {arg}"),
                None => "Dummy".to_string(),
            },
            build: |_, _| Ok(Arc::new(Dummy::default())),
            build_loaded: None,
        }
    }

    #[test]
    fn parse_splits_on_first_colon() {
        let spec = BackendSpec::parse("pma-batch:100");
        assert_eq!(spec.name, "pma-batch");
        assert_eq!(spec.arg, Some("100"));
        let spec = BackendSpec::parse("masstree");
        assert_eq!(spec.name, "masstree");
        assert_eq!(spec.arg, None);
        let spec = BackendSpec::parse("a:b:c");
        assert_eq!(spec.name, "a");
        assert_eq!(spec.arg, Some("b:c"));
    }

    #[test]
    fn u64_arg_parses_with_default() {
        assert_eq!(BackendSpec::parse("x").u64_arg(7).unwrap(), 7);
        assert_eq!(BackendSpec::parse("x:42").u64_arg(7).unwrap(), 42);
        assert!(BackendSpec::parse("x:no").u64_arg(7).is_err());
    }

    #[test]
    fn register_build_label_roundtrip() {
        let registry = Registry::new();
        registry.register(dummy_def());
        assert!(registry.contains("dummy"));
        assert_eq!(registry.names(), vec!["dummy".to_string()]);
        assert_eq!(registry.label("dummy:8k").unwrap(), "Dummy 8k");
        let map = registry.build("dummy").unwrap();
        map.insert(1, 2);
        assert_eq!(map.get(1), Some(2));
    }

    #[test]
    fn unknown_backend_lists_registered_names() {
        let registry = Registry::new();
        registry.register(dummy_def());
        let msg = match registry.build("nope:1") {
            Ok(_) => panic!("unknown backend must not build"),
            Err(e) => e.to_string(),
        };
        assert!(msg.contains("nope"), "{msg}");
        assert!(msg.contains("dummy"), "{msg}");
    }

    #[test]
    fn re_registering_replaces() {
        let registry = Registry::new();
        registry.register(dummy_def());
        registry.register(BackendDef {
            description: "replacement",
            ..dummy_def()
        });
        assert_eq!(registry.entries()[0].1, "replacement");
        assert_eq!(registry.entries().len(), 1);
    }

    #[test]
    fn build_loaded_falls_back_to_insert_batch() {
        let registry = Registry::new();
        registry.register(dummy_def());
        let map = registry
            .build_loaded("dummy", &[(1, 10), (2, 20), (2, 22)])
            .unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(2), Some(22), "later duplicates must win");
        assert!(
            registry.build_loaded("dummy", &[(5, 0), (1, 0)]).is_err(),
            "unsorted input must be rejected"
        );
    }

    #[test]
    fn build_loaded_prefers_the_native_loader() {
        let registry = Registry::new();
        registry.register(BackendDef {
            build_loaded: Some(|_, _, items| {
                let map = Dummy::default();
                // A native loader that deliberately tags the first value so
                // the test can tell which path ran.
                for &(k, v) in items {
                    map.insert(k, v + 1000);
                }
                Ok(Arc::new(map))
            }),
            ..dummy_def()
        });
        let map = registry.build_loaded("dummy", &[(7, 70)]).unwrap();
        assert_eq!(map.get(7), Some(1070), "native loader must be dispatched");
    }

    #[derive(Default)]
    struct ByteDummy(std::sync::Mutex<std::collections::BTreeMap<Vec<u8>, Value>>);

    impl crate::bytemap::ConcurrentByteMap for ByteDummy {
        fn insert(&self, key: &[u8], value: Value) {
            self.0.lock().unwrap().insert(key.to_vec(), value);
        }
        fn remove(&self, key: &[u8]) -> Option<Value> {
            self.0.lock().unwrap().remove(key)
        }
        fn get(&self, key: &[u8]) -> Option<Value> {
            self.0.lock().unwrap().get(key).copied()
        }
        fn len(&self) -> usize {
            self.0.lock().unwrap().len()
        }
        fn range(&self, lo: &[u8], hi: Option<&[u8]>, visitor: &mut dyn FnMut(&[u8], Value)) {
            for (k, &v) in self.0.lock().unwrap().iter() {
                if k.as_slice() >= lo && hi.is_none_or(|h| k.as_slice() < h) {
                    visitor(k, v);
                }
            }
        }
        fn name(&self) -> &'static str {
            "byte-dummy"
        }
    }

    fn byte_dummy_def() -> ByteBackendDef {
        ByteBackendDef {
            name: "byte-dummy",
            description: "test byte backend; arg = ignored",
            label: |spec| format!("ByteDummy[{}]", spec.raw),
            build: |_, _| Ok(Arc::new(ByteDummy::default())),
            build_loaded: None,
        }
    }

    #[test]
    fn byte_table_is_a_separate_namespace() {
        let registry = Registry::new();
        registry.register(dummy_def());
        registry.register_bytes(byte_dummy_def());
        // The u64 surface does not see the byte entry and vice versa.
        assert_eq!(registry.names(), vec!["dummy".to_string()]);
        assert_eq!(registry.byte_names(), vec!["byte-dummy".to_string()]);
        assert!(!registry.contains("byte-dummy"));
        assert!(!registry.contains_bytes("dummy"));
        assert!(registry.build("byte-dummy").is_err());
        assert!(registry.build_bytes("dummy").is_err());
        assert_eq!(
            registry.byte_label("byte-dummy:x").unwrap(),
            "ByteDummy[byte-dummy:x]"
        );
        assert_eq!(registry.byte_entries().len(), 1);
    }

    #[test]
    fn build_bytes_roundtrips_point_ops() {
        let registry = Registry::new();
        registry.register_bytes(byte_dummy_def());
        let map = registry.build_bytes("byte-dummy").unwrap();
        map.insert(b"user:1", 10);
        assert_eq!(map.get(b"user:1"), Some(10));
        assert_eq!(map.remove(b"user:1"), Some(10));
        assert!(map.is_empty());
    }

    #[test]
    fn build_bytes_loaded_falls_back_and_validates_order() {
        let registry = Registry::new();
        registry.register_bytes(byte_dummy_def());
        let map = registry
            .build_bytes_loaded(
                "byte-dummy",
                &[(b"a".to_vec(), 1), (b"b".to_vec(), 2), (b"b".to_vec(), 3)],
            )
            .unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(b"b"), Some(3), "later duplicates must win");
        assert!(
            registry
                .build_bytes_loaded("byte-dummy", &[(b"b".to_vec(), 1), (b"a".to_vec(), 2)])
                .is_err(),
            "unsorted byte input must be rejected"
        );
    }

    #[test]
    fn global_registry_is_shared() {
        // Use a unique name so other tests' registrations don't interfere.
        Registry::global().register(BackendDef {
            name: "registry-test-unique",
            ..dummy_def()
        });
        assert!(Registry::global().contains("registry-test-unique"));
    }
}
