//! State shared between the client-facing [`super::ConcurrentPma`] handle and
//! the rebalancer service threads.

use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::params::PmaParams;
use crate::stats::Stats;

use super::chunk::ChunkData;
use super::epoch::{EpochGuard, EpochRegistry, GarbageBin};
use super::gate::Gate;
use super::instance::PmaInstance;
use super::version::CowGen;

/// Everything the clients, the rebalancer master and the workers share.
pub(crate) struct Shared {
    /// Immutable configuration.
    pub params: PmaParams,
    /// The single entry pointer to the current instance (paper section 3.4).
    pub instance: AtomicPtr<PmaInstance>,
    /// Number of elements currently stored (maintained by whoever applies an
    /// update).
    pub len: AtomicUsize,
    /// Operation counters.
    pub stats: Stats,
    /// Epoch registry protecting retired instances.
    pub registry: EpochRegistry,
    /// Retired instances awaiting reclamation.
    pub garbage: GarbageBin<Box<PmaInstance>>,
    /// Write-generation counter and snapshot pin set for chunk-level
    /// copy-on-write versioning. `Arc` so [`super::version::FrozenSnapshot`]s
    /// can outlive the map handle.
    pub cow: Arc<CowGen>,
}

impl Shared {
    /// Creates the shared state with an empty single-gate instance.
    pub fn new(params: PmaParams) -> Self {
        let instance = Box::new(PmaInstance::empty(&params));
        Self::with_instance(params, instance, 0)
    }

    /// Creates the shared state around a pre-built instance holding `len`
    /// elements (the bulk-load construction path).
    pub fn with_instance(params: PmaParams, instance: Box<PmaInstance>, len: usize) -> Self {
        Self {
            params,
            instance: AtomicPtr::new(Box::into_raw(instance)),
            len: AtomicUsize::new(len),
            stats: Stats::new(),
            registry: EpochRegistry::new(),
            garbage: GarbageBin::new(),
            cow: Arc::new(CowGen::new()),
        }
    }

    /// Exclusive access to a gate's chunk for in-place mutation, copying the
    /// payload first if a frozen snapshot still holds the current version
    /// (and counting the copy in `stats.cow_copies`).
    ///
    /// # Safety
    /// Same contract as [`Gate::chunk_mut_cow`]: the caller must hold the
    /// gate's latch in an exclusive mode (`Write`/`Rebalance`) or otherwise
    /// own the gate (service-owned during a window claim).
    #[inline]
    #[allow(clippy::mut_from_ref)] // exclusivity comes from the gate latch, not the borrow
    pub unsafe fn chunk_mut<'a>(&self, gate: &'a Gate) -> &'a mut ChunkData {
        let (chunk, copied) = gate.chunk_mut_cow(self.cow.current());
        if copied {
            Stats::bump(&self.stats.cow_copies);
        }
        chunk
    }

    /// Enters an epoch-protected critical section.
    #[inline]
    pub fn pin(&self) -> EpochGuard<'_> {
        self.registry.pin()
    }

    /// Dereferences the current instance pointer.
    ///
    /// # Safety
    /// The caller must hold an [`EpochGuard`] obtained from [`Shared::pin`]
    /// *before* loading, and must not use the returned reference after
    /// dropping that guard: the instance may be retired and freed as soon as
    /// no pre-retirement pin remains.
    #[inline]
    pub unsafe fn instance_ref(&self) -> &PmaInstance {
        &*self.instance.load(Ordering::Acquire)
    }

    /// Publishes `new` as the current instance and returns the previous one
    /// for retirement. Only the rebalancer master calls this (resizes are
    /// serialised through it).
    pub fn publish_instance(&self, new: Box<PmaInstance>) -> Box<PmaInstance> {
        let old = self.instance.swap(Box::into_raw(new), Ordering::AcqRel);
        // SAFETY: `old` was produced by `Box::into_raw` in `new()` or a
        // previous `publish_instance` call and has not been freed: retirement
        // goes through the garbage bin, and this method returns before the
        // caller retires it.
        unsafe { Box::from_raw(old) }
    }

    /// Number of stored elements.
    #[inline]
    pub fn element_count(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether `inst`, holding `len` elements, is under-full *and* a rebuild
    /// would actually shrink it. The second half matters after a bulk load:
    /// presizing rounds the gate count up to a power of two, so a loaded
    /// density can sit below `downsize_at` while the presizing rule still
    /// lands on the same capacity — a downsize would then rebuild the whole
    /// array for nothing, and so would the one requested by the next remove.
    pub fn should_downsize(&self, inst: &PmaInstance, len: usize) -> bool {
        inst.num_gates() > 1
            && (len as f64) < self.params.downsize_at * inst.capacity() as f64
            && self.params.presized_gates(len) < inst.num_gates()
    }
}

impl Drop for Shared {
    fn drop(&mut self) {
        // No client can be active once the last Arc<Shared> is dropped.
        let ptr = self.instance.load(Ordering::Acquire);
        if !ptr.is_null() {
            // SAFETY: the pointer was created by Box::into_raw and ownership
            // was never transferred elsewhere.
            unsafe { drop(Box::from_raw(ptr)) };
        }
        self.garbage.clear();
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("len", &self.element_count())
            .field("params", &self.params)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_shared_has_empty_single_gate_instance() {
        let shared = Shared::new(PmaParams::small());
        let _pin = shared.pin();
        // SAFETY: pinned above.
        let inst = unsafe { shared.instance_ref() };
        assert_eq!(inst.num_gates(), 1);
        assert_eq!(shared.element_count(), 0);
    }

    #[test]
    fn publish_instance_swaps_and_returns_old() {
        let shared = Shared::new(PmaParams::small());
        let new_inst = Box::new(PmaInstance::from_sorted(
            &[1, 2, 3],
            &[10, 20, 30],
            1,
            &PmaParams::small(),
        ));
        let old = shared.publish_instance(new_inst);
        assert_eq!(old.num_gates(), 1);
        let _pin = shared.pin();
        let inst = unsafe { shared.instance_ref() };
        // SAFETY (test): single-threaded access to the gate's chunk.
        let chunk = unsafe { inst.gates[0].chunk() };
        assert_eq!(chunk.cardinality(), 3);
        // Old instance can be retired through the garbage bin.
        shared.garbage.retire(&shared.registry, old);
        assert_eq!(shared.garbage.len(), 1);
    }
}
