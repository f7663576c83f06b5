//! State shared between the client-facing [`super::ConcurrentPma`] handle and
//! the rebalancer service threads.

use std::sync::atomic::{AtomicPtr, Ordering};

use crate::params::PmaParams;
use crate::stats::Stats;

use super::chunk::ChunkData;
use super::epoch::{EpochGuard, EpochRegistry, GarbageBin};
use super::instance::PmaInstance;

/// Everything the clients, the rebalancer master and the workers share.
///
/// Laid out (`repr(C)`, in declaration order) around the line every
/// operation of every client starts from: `pin` reads the registry head,
/// `instance_ref` the entry pointer, and the update mode comes out of
/// `params` — all read-only to clients. No client operation stores to those
/// lines: the counters an operation bumps are in its own thread's stripe
/// of `stats`, the remaining counters behind them, and there is no shared
/// element counter ([`Shared::element_count`] sums the stripes). Only the
/// rebalancer master writes near the entry pointer — the pointer itself and
/// the epoch when it publishes a resized instance, the garbage list when it
/// retires one.
#[repr(C)]
pub(crate) struct Shared {
    /// Operation counters, the per-thread stripes first. Cache-line aligned
    /// and a whole number of lines long.
    pub stats: Stats,
    /// The single entry pointer to the current instance (paper section 3.4).
    pub instance: AtomicPtr<PmaInstance>,
    /// Epoch registry protecting retired instances.
    pub registry: EpochRegistry,
    /// Immutable configuration.
    pub params: PmaParams,
    /// Retired instances awaiting reclamation.
    pub garbage: GarbageBin<Box<PmaInstance>>,
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
        let stats = Stats::new();
        stats.adjust_len(len as i64);
        Self {
            stats,
            instance: AtomicPtr::new(Box::into_raw(instance)),
            registry: EpochRegistry::new(),
            params,
            garbage: GarbageBin::new(),
        }
    }

    /// Exclusive access to the chunk of gate `g` of `inst` for in-place
    /// mutation, copying the payload first if a frozen snapshot still holds
    /// the current version (counting the copy in `stats.cow_copies`, and
    /// re-pointing the index's slab hint at it).
    ///
    /// # Safety
    /// Same contract as [`super::gate::Gate::chunk_mut_cow`]: the caller
    /// must hold the gate's latch in an exclusive mode (`Write`/`Rebalance`)
    /// or otherwise own the gate (service-owned during a window claim).
    #[inline]
    #[allow(clippy::mut_from_ref)] // exclusivity comes from the gate latch, not the borrow
    pub unsafe fn chunk_mut<'a>(&self, inst: &'a PmaInstance, g: usize) -> &'a mut ChunkData {
        let (chunk, copied) = inst.chunk_mut_cow(g);
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

    /// Number of stored elements: what the instance was built with plus
    /// every thread's additions minus its removals. Exact once the writers
    /// are quiescent (after `flush` / a join), within the number of in-flight
    /// operations — and never negative — while they run; see [`Stats::len`].
    #[inline]
    pub fn element_count(&self) -> usize {
        self.stats.len()
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
    use std::mem::{offset_of, size_of};

    /// Every operation of every client starts from the entry pointer and
    /// the registry head and reads `params`; nothing a client operation
    /// stores to may share a cache line with them. The only stores a client
    /// makes to `Shared` are counter bumps, and all counters live in `stats`.
    /// (`garbage`, behind `params`, is the rebalancer master's.)
    #[test]
    fn the_entry_pointer_line_is_written_by_no_client_operation() {
        use crate::stats::OpStripe;
        let lines = |offset: usize, size: usize| offset / 64..=(offset + size - 1) / 64;
        let counters = lines(offset_of!(Shared, stats), size_of::<Stats>());
        for (field, read_only) in [
            ("instance", lines(offset_of!(Shared, instance), 8)),
            (
                "registry",
                lines(offset_of!(Shared, registry), size_of::<EpochRegistry>()),
            ),
            (
                "params",
                lines(offset_of!(Shared, params), size_of::<PmaParams>()),
            ),
        ] {
            assert!(
                read_only.start() > counters.end() || read_only.end() < counters.start(),
                "`{field}` (lines {read_only:?}) shares a line with the counters ({counters:?})"
            );
        }
        // One line starts an operation: the pin and the entry-pointer load
        // do not wait for memory twice.
        assert_eq!(
            lines(offset_of!(Shared, instance), 8),
            lines(offset_of!(Shared, registry), size_of::<EpochRegistry>())
        );
        // The stripes are whole lines of a line-aligned struct.
        assert_eq!(std::mem::align_of::<Shared>(), 64);
        assert_eq!(offset_of!(Shared, stats) % 64, 0);
        assert!(size_of::<OpStripe>() <= 64);
        // No larger than before the element counter left (allocation sizes
        // next to the bulk-load buffers have moved `setup_s` before).
        assert!(size_of::<Shared>() <= 1408, "{}", size_of::<Shared>());
    }

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
            [(1, 10), (2, 20), (3, 30)].into_iter(),
            3,
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
