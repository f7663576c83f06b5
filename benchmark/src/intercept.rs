//! A `ConcurrentMap` that forwards everything to an inner map, with hooks
//! around the point ops. The layer probes use it to record a span where one
//! layer calls into the next; the fault-injection test uses it to put a
//! wrong answer between the generator and the program.

use std::sync::Arc;

use pma_common::obs::Observe;
use pma_common::{
    CombiningStats, ConcurrentMap, FrozenView, Key, MaintenanceStats, PmaError, ScanStats, Value,
};

/// What to do around the inner map's point ops. Defaults forward.
pub trait Hooks: Send + Sync {
    fn insert(&self, inner: &dyn ConcurrentMap, key: Key, value: Value) {
        inner.insert(key, value)
    }
    fn get(&self, inner: &dyn ConcurrentMap, key: Key) -> Option<Value> {
        inner.get(key)
    }
}

pub struct Intercept<H> {
    pub inner: Arc<dyn ConcurrentMap>,
    pub hooks: H,
}

impl<H: Hooks> ConcurrentMap for Intercept<H> {
    fn insert(&self, key: Key, value: Value) {
        self.hooks.insert(self.inner.as_ref(), key, value)
    }
    fn try_insert(&self, key: Key, value: Value) -> Result<(), PmaError> {
        self.inner.try_insert(key, value)
    }
    fn remove(&self, key: Key) -> Option<Value> {
        self.inner.remove(key)
    }
    fn get(&self, key: Key) -> Option<Value> {
        self.hooks.get(self.inner.as_ref(), key)
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn scan_all(&self) -> ScanStats {
        self.inner.scan_all()
    }
    fn range(&self, lo: Key, hi: Key, visitor: &mut dyn FnMut(Key, Value)) {
        self.inner.range(lo, hi, visitor)
    }
    fn scan_range(&self, lo: Key, hi: Key) -> ScanStats {
        self.inner.scan_range(lo, hi)
    }
    fn collect_range(&self, lo: Key, hi: Key) -> Vec<(Key, Value)> {
        self.inner.collect_range(lo, hi)
    }
    fn collect_block(
        &self,
        lo: Key,
        hi: Key,
        min_len: usize,
        keys: &mut Vec<Key>,
        values: &mut Vec<Value>,
    ) -> Option<Key> {
        self.inner.collect_block(lo, hi, min_len, keys, values)
    }
    fn insert_batch(&self, items: &[(Key, Value)]) {
        self.inner.insert_batch(items)
    }
    fn flush(&self) {
        self.inner.flush()
    }
    fn combining_stats(&self) -> Option<CombiningStats> {
        self.inner.combining_stats()
    }
    fn maintenance_stats(&self) -> Option<MaintenanceStats> {
        self.inner.maintenance_stats()
    }
    fn frozen(&self) -> Option<Box<dyn FrozenView>> {
        self.inner.frozen()
    }
    fn observe_metrics(&self, out: &mut dyn Observe) {
        self.inner.observe_metrics(out)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
