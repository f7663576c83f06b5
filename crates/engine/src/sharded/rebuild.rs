//! The one copy-on-write rebuild behind every split and merge, its chase
//! rounds, and the load monitor that decides when to run it.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pma_common::obs::{self, Observe, Totals};
use pma_common::{ConcurrentMap, Key, PmaError, KEY_MAX, KEY_MIN};

use super::delta::DeltaLog;
use super::directory::{Directory, Shard, ShardFence};
use super::Engine;
use crate::stats::EngineStats;

/// Once a split's delta log shrinks below this many ops, chasing stops and
/// the split proceeds to the closing phase (draining fewer ops than this in
/// an unfenced round is not worth another round-trip).
const CHASE_TARGET: usize = 256;

/// Upper bound on unfenced chase rounds, so a write rate that outruns the
/// drain cannot keep a split in the copy phase forever.
const MAX_CHASE_ROUNDS: usize = 8;

/// Delta-log backpressure cap during the copy phase: while a split's log
/// holds more than this many undrained ops, writers routed to the shard
/// back off briefly instead of appending. Without it, a write rate that
/// outruns the copy (e.g. spinning writers on an oversubscribed core) grows
/// the log — and the replacement shards' combining queues behind it —
/// without bound. One million ops caps the capture at tens of MB while
/// staying far above what a chase round drains in one pass.
pub(super) const DELTA_BACKPRESSURE: usize = 1 << 20;

/// Delta-log cap during the closing phase (replacements built, chase
/// converging): low enough that a chase round drains faster than throttled
/// writers can refill, so the loop converges and the final *fenced* fold
/// only ever sees on the order of a hundred ops — regardless of how badly
/// the write rate outran the copy.
const CLOSING_CAP: usize = 128;

/// The closing phase keeps draining until the log is at most this small (or
/// its round budget runs out): the remnant the final fence folds.
const CLOSING_TARGET: usize = 64;

impl Engine {
    /// Folds into the engine-level accumulators whatever a soon-to-be (or
    /// just) retired shard's inner map counted beyond `already`, returning
    /// its current counters. Called first **before** the directory swap
    /// with nothing absorbed yet: a concurrent reader may transiently count
    /// the shard twice (once live, once absorbed), which only overstates —
    /// the reverse order would open a window where a `late_replays` hit is
    /// counted in neither place and a protocol violation could be masked.
    /// Called again, with the first call's result, after the post-publish
    /// settling flush: applying the inner queue backlog still ticks
    /// `owned_applies` — and must still surface a `late_replays` hit.
    fn absorb_counters(&self, shard: &Shard, already: &Totals) -> Totals {
        let mut now = Totals::default();
        shard.map.observe_metrics(&mut now);
        let mut retired = self.retired_counters.lock();
        for (name, value) in now.counters() {
            let delta = value.saturating_sub(already.total(name));
            if delta > 0 {
                retired.counter(name, delta);
            }
        }
        now
    }

    /// Publishes `shards` as the next directory generation and retires the
    /// old directory into the epoch garbage bin (freed once no pinned reader
    /// can still observe it). Must be called under the `maintenance` lock.
    fn publish(&self, generation: u64, shards: Vec<Arc<Shard>>) {
        let dir = Directory::new(generation, shards);
        #[cfg(debug_assertions)]
        dir.check_invariants();
        let fresh = Box::into_raw(Box::new(dir));
        let old = self.dir.swap(fresh, Ordering::AcqRel);
        // SAFETY: `old` was the uniquely-owned published directory; it is now
        // unreachable from the entry pointer and owned by the garbage bin.
        self.garbage
            .retire(&self.epoch, unsafe { Box::from_raw(old) });
    }

    /// Installs `delta` into the shard's write gate under a short exclusive
    /// fence (microseconds: one latch acquisition and a pointer store), then
    /// settles the inner combining queues *unfenced*, so every operation is
    /// either visible to the upcoming base copy or captured by the log.
    /// Returns the fence duration (write stall).
    ///
    /// The unfenced flush terminates precisely because the log is already
    /// installed: writers record into it instead of the inner map, so the
    /// map's queues only shrink — the flush drains the pre-install backlog
    /// (which can be large when the service lags the writers) without ever
    /// chasing new arrivals, and without charging that drain to the write
    /// stall. After it returns the inner map is quiescent for the copy.
    fn install_delta(&self, shard: &Shard, delta: &Arc<DeltaLog>) -> Duration {
        let fence = Instant::now();
        let mut gate = shard.fence();
        gate.delta = Some(Arc::clone(delta));
        drop(gate);
        let stall = fence.elapsed();
        shard.map.flush();
        stall
    }

    /// Removes the delta log installed over `shards` again (the abort path
    /// of a rebuild that found nothing to do or whose loader failed),
    /// folding every recorded op back into the shard that owns its key
    /// first: the ops were *only* in the log (the live structures stayed
    /// quiescent), so dropping them would lose acknowledged writes. The
    /// fold runs with every latch held exclusively — no append can be in
    /// flight, one drain pass is complete, and the per-key append order is
    /// the linearization order the quiescent bases are caught up with.
    pub(super) fn uninstall_delta(&self, shards: &[Arc<Shard>]) {
        let mut gates: Vec<ShardFence<'_>> = shards.iter().map(|s| s.fence()).collect();
        // Every shard holds the same log: take it out of all of them.
        if let Some(delta) = gates.iter_mut().filter_map(|g| g.delta.take()).last() {
            let owners: Vec<_> = shards.iter().map(|s| (s.lo, s.map.as_ref())).collect();
            Self::fold_delta(&delta, &owners);
        }
    }

    /// One drain pass: takes whatever the delta log currently holds and
    /// folds each record into the map of `targets` that owns its key (see
    /// `DeltaRecord::apply_routed`). Returns the number of ops folded.
    /// Deliberately a *single* pass: during the unfenced chase phase writers
    /// keep appending, and looping until the log reads empty would race them
    /// forever. Under the final fence one pass is also *complete*: a
    /// writer's record (append + overlay update) runs entirely under the
    /// shard's shared latch, so once the exclusive latch is held no append
    /// can be in flight or arrive.
    fn fold_delta(delta: &DeltaLog, targets: &[(Key, &dyn ConcurrentMap)]) -> u64 {
        let mut folded = 0u64;
        for rec in delta.take_all() {
            folded += rec.count() as u64;
            rec.apply_routed(targets);
        }
        folded
    }

    /// Unfenced chase rounds: drains the delta log into the replacements
    /// while writers keep appending, until the log is small enough for the
    /// final fenced drain or the round budget runs out — then settles the
    /// replacements' combining queues. The settling must happen *here*,
    /// unfenced: the structural thread is the replacements' only writer
    /// before publication, so their flush terminates, and moving the bulk
    /// of the queue-settling out of the final fence keeps that fence
    /// O(remnant) instead of O(delta). Must be called by the (single)
    /// structural thread so the per-key drain order is preserved across
    /// rounds.
    fn chase_delta(&self, delta: &DeltaLog, targets: &[(Key, &dyn ConcurrentMap)]) -> u64 {
        let mut folded = {
            let mut round_span = obs::span(obs::Category::ChaseRound, 0);
            let n = Self::fold_delta(delta, targets);
            round_span.set_payload(n);
            n
        };
        EngineStats::bump(&self.stats.chase_rounds);
        let mut rounds = 1usize;
        while delta.len() > CHASE_TARGET && rounds < MAX_CHASE_ROUNDS {
            rounds += 1;
            EngineStats::bump(&self.stats.chase_rounds);
            let mut round_span = obs::span(obs::Category::ChaseRound, 0);
            let n = Self::fold_delta(delta, targets);
            round_span.set_payload(n);
            folded += n;
        }
        // Closing phase: when the write rate outran the chase (the rounds
        // above cannot converge on an oversubscribed core — appending is
        // cheaper than draining), lower the backpressure cap so writers are
        // throttled to what one round drains. The next drains then shrink
        // geometrically and the final *fenced* fold sees at most a few
        // hundred ops, no matter how hot the shard is.
        delta.set_cap(CLOSING_CAP);
        let mut closing_span = obs::span(obs::Category::ClosingFold, 0);
        let mut closing = 0usize;
        let closing_before = folded;
        while delta.len() > CLOSING_TARGET && closing < 2 * MAX_CHASE_ROUNDS {
            closing += 1;
            EngineStats::bump(&self.stats.chase_rounds);
            folded += Self::fold_delta(delta, targets);
        }
        closing_span.set_payload(folded - closing_before);
        for (_, map) in targets {
            map.flush();
        }
        folded
    }

    /// Splits the shard at directory index `idx` into two halves at its
    /// median key (see [`Engine::rebuild`]). Returns `Ok(false)` when the
    /// shard holds fewer than two elements (nothing to split) or the index
    /// is stale.
    pub(super) fn split_shard(&self, idx: usize) -> Result<bool, PmaError> {
        self.rebuild(idx, 1)
    }

    /// Merges the shards at directory indices `idx` and `idx + 1` into one
    /// (see [`Engine::rebuild`]). Returns `Ok(false)` when `idx + 1` is out
    /// of bounds.
    pub(super) fn merge_shards(&self, idx: usize) -> Result<bool, PmaError> {
        let _span = obs::span(obs::Category::ShardMerge, idx as u64);
        self.rebuild(idx, 2)
    }

    /// Replaces the `k` shards at directory indices `[idx, idx + k)` with
    /// replacements cut from their contents, copy-on-write: a split is
    /// `k = 1` cut at the median key, a merge is `k = 2` with no cut. Writers
    /// keep landing throughout the copy and chase phases (recording into one
    /// delta log shared by the `k` shards — their keys are disjoint, so one
    /// log keeps every key's order — with reads served through its overlay)
    /// and are only fenced for the delta-log install and the final drain +
    /// publish (see the [module docs](self)). Returns `Ok(false)` when the
    /// indices are stale or a split finds fewer than two elements.
    fn rebuild(&self, idx: usize, k: usize) -> Result<bool, PmaError> {
        let split = k == 1;
        let _structural = self.maintenance.lock();
        let _pin = self.epoch.pin();
        // SAFETY: pinned above.
        let dir = unsafe { self.dir_ref() };
        let Some(old) = dir.shards.get(idx..idx.saturating_add(k)) else {
            return Ok(false);
        };
        if split && old[0].map.len() < 2 {
            return Ok(false);
        }

        // Phase 1 — install fences, one shard at a time in fence order (the
        // `maintenance` lock already excludes other structural ops, so the
        // order only has to be self-consistent): hook the delta log, settle
        // the queues.
        let delta = Arc::new(DeltaLog::with_cap(DELTA_BACKPRESSURE));
        let mut stall = {
            let _fence_span = split.then(|| obs::span(obs::Category::SplitFence, 0));
            old.iter()
                .map(|s| self.install_delta(s, &delta))
                .sum::<Duration>()
        };

        // Phase 2 — copy-on-write (writers recording into the log): ordered
        // live-scans of the now-quiescent bases — exact, since nothing
        // mutates the inner structures — concatenated (the runs are disjoint
        // and ascending) and cut into replacements built with the presized
        // bulk loader. The full-domain range is identical to a shard's fence
        // span (its instance only holds keys inside the fences) and is the
        // range the PMA's presized collect fast-path recognises.
        let copied = (|| -> Result<Option<Vec<_>>, PmaError> {
            let mut items = old[0].map.collect_range(KEY_MIN, KEY_MAX);
            for s in &old[1..] {
                items.extend(s.map.collect_range(KEY_MIN, KEY_MAX));
            }
            let (lo, hi) = (old[0].lo, old[k - 1].hi);
            let pieces = if !split {
                vec![(lo, hi, &items[..])]
            } else if items.len() < 2 {
                return Ok(None); // raced deletes emptied it: nothing to split
            } else {
                // The boundary is the median key; keys are distinct and
                // ascending, so `boundary > items[0].0 >= lo` and both
                // halves are non-empty.
                let (left, right) = items.split_at(items.len() / 2);
                let boundary = right[0].0;
                debug_assert!(boundary > lo && boundary <= hi);
                vec![(lo, boundary - 1, left), (boundary, hi, right)]
            };
            let spec = &self.config.inner_spec;
            pieces
                .into_iter()
                .map(|(lo, hi, run)| Ok((lo, hi, self.inner.build_loaded_presorted(spec, run)?)))
                .collect::<Result<_, PmaError>>()
                .map(Some)
        })();
        let parts = match copied {
            Ok(Some(parts)) => parts,
            Ok(None) => {
                self.uninstall_delta(old);
                return Ok(false);
            }
            Err(e) => {
                self.uninstall_delta(old);
                return Err(e);
            }
        };
        let targets: Vec<(Key, &dyn ConcurrentMap)> = parts
            .iter()
            .map(|(lo, _, map)| (*lo, map.as_ref()))
            .collect();

        // Phase 3 — chase (writers live): shrink the final fenced drain.
        let mut captured = self.chase_delta(&delta, &targets);

        // Phase 4 — final fence: drain the remnant while the key ranges are
        // still exclusively owned, publish, retire.
        let mut fence_span = split.then(|| obs::span(obs::Category::SplitFence, 1));
        let fence = Instant::now();
        let mut gates: Vec<ShardFence<'_>> = old.iter().map(|s| s.fence()).collect();
        // One pass drains everything (no append can be in flight under the
        // exclusive latches). The remnant ops land in the replacements'
        // combining queues and settle within the inner mode's delay window —
        // the same deferred visibility those ops would have had without a
        // rebuild.
        captured += Self::fold_delta(&delta, &targets);
        debug_assert!(delta.is_empty(), "a fenced fold must drain the log");
        let absorbed: Vec<Totals> = old
            .iter()
            .map(|s| self.absorb_counters(s, &Totals::default()))
            .collect();
        let wrote = old.iter().any(|s| s.wrote.load(Ordering::Relaxed));
        let mut shards = Vec::with_capacity(dir.shards.len() + parts.len() - k);
        shards.extend(dir.shards[..idx].iter().cloned());
        shards.extend(
            parts
                .iter()
                .map(|(lo, hi, map)| Shard::new(*lo, *hi, Arc::clone(map), wrote)),
        );
        shards.extend(dir.shards[idx + k..].iter().cloned());
        self.publish(dir.generation + 1, shards);
        // Publish-then-retire, all under the exclusive latches: writers that
        // were blocked on a latch wake to a retired shard and re-route
        // through the directory we just published.
        for (s, gate) in old.iter().zip(&mut gates) {
            s.retired.store(true, Ordering::Release);
            gate.delta = None;
        }
        drop(gates);
        stall += fence.elapsed();
        if let Some(span) = &mut fence_span {
            span.set_payload(captured);
        }
        drop(fence_span);

        // Post-publish settling (writers already re-routed, so none of this
        // is write stall): apply the retired instances' queue backlogs so
        // scans still pinned to the old generation observe complete frozen
        // shards and the instances drop clean, then fold the counters that
        // settling accrued.
        for (s, absorbed) in old.iter().zip(&absorbed) {
            s.map.flush();
            self.absorb_counters(s, absorbed);
        }
        let count = if split {
            &self.stats.shard_splits
        } else {
            &self.stats.shard_merges
        };
        EngineStats::bump(count);
        EngineStats::add(&self.stats.split_stall_ns, stall.as_nanos() as u64);
        EngineStats::add(&self.stats.delta_ops, captured);
        self.garbage.collect(&self.epoch);
        Ok(true)
    }

    /// One monitor round: decay the per-shard heat counters, advance the
    /// hysteresis streaks, then split the hottest persistently-oversized
    /// shard or merge the coldest persistently-undersized neighbours. A
    /// threshold crossing only triggers once it has held for
    /// `hysteresis_rounds` consecutive rounds; a crossing that lapses before
    /// that resets its streak and counts as thrash averted.
    pub(super) fn maintain(&self) {
        enum Plan {
            Split(usize),
            Merge(usize),
        }
        let hysteresis = self.config.hysteresis_rounds.max(1);
        let plan = {
            let _pin = self.epoch.pin();
            // SAFETY: pinned above.
            let dir = unsafe { self.dir_ref() };
            // One `len()` per shard per round: each call sums the inner
            // map's per-thread counter lines.
            let lens: Vec<usize> = dir.shards.iter().map(|s| s.map.len()).collect();
            let mut split: Option<(usize, u64)> = None;
            for (i, shard) in dir.shards.iter().enumerate() {
                let heat = shard.load.ops.load(Ordering::Relaxed);
                shard.load.ops.store(heat / 2, Ordering::Relaxed);
                if lens[i] > self.config.split_above {
                    let streak = shard.split_rounds.fetch_add(1, Ordering::Relaxed) + 1;
                    if streak >= hysteresis && split.is_none_or(|(_, best)| heat > best) {
                        split = Some((i, heat));
                    }
                } else if shard.split_rounds.swap(0, Ordering::Relaxed) > 0 {
                    EngineStats::bump(&self.stats.split_thrash_averted);
                }
            }
            if let Some((i, _)) = split {
                Some(Plan::Split(i))
            } else {
                let mut merge: Option<(usize, usize)> = None;
                for i in 0..dir.shards.len().saturating_sub(1) {
                    let pair_left = &dir.shards[i];
                    // A pair is only a merge candidate once both members have
                    // seen a write: seed shards of a map the workload has not
                    // reached yet are empty by construction, not by cooling
                    // down, and merging them away would pre-shrink the
                    // directory the workload is about to fill. `wrote` is
                    // monotone, so an eligible streak can never lapse through
                    // this guard.
                    let eligible = pair_left.wrote.load(Ordering::Relaxed)
                        && dir.shards[i + 1].wrote.load(Ordering::Relaxed);
                    let sum = lens[i] + lens[i + 1];
                    if eligible && sum < self.config.merge_below {
                        let streak = pair_left.merge_rounds.fetch_add(1, Ordering::Relaxed) + 1;
                        if streak >= hysteresis && merge.is_none_or(|(_, best)| sum < best) {
                            merge = Some((i, sum));
                        }
                    } else if pair_left.merge_rounds.swap(0, Ordering::Relaxed) > 0 {
                        EngineStats::bump(&self.stats.split_thrash_averted);
                    }
                }
                merge.map(|(i, _)| Plan::Merge(i))
            }
        };
        // Structural ops re-read the directory under the maintenance lock, so
        // a stale index at worst splits/merges a different (still live) shard.
        let result = match plan {
            Some(Plan::Split(i)) => self.split_shard(i),
            Some(Plan::Merge(i)) => self.merge_shards(i),
            None => Ok(false),
        };
        // The monitor must survive a failed attempt (e.g. the inner loader
        // erroring) — count it and keep serving the remaining shards rather
        // than dying and silently disabling auto management.
        if result.is_err() {
            EngineStats::bump(&self.stats.monitor_errors);
        }
    }
}

pub(super) fn monitor_loop(engine: Arc<Engine>) {
    let step = Duration::from_millis(2);
    let mut since_round = Duration::ZERO;
    while !engine.stop.load(Ordering::Acquire) {
        std::thread::sleep(step);
        since_round += step;
        if since_round < engine.config.monitor_interval {
            continue;
        }
        since_round = Duration::ZERO;
        engine.garbage.collect(&engine.epoch);
        if engine.config.auto_manage {
            engine.maintain();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded::tests::{config, counter, flaky_registry, registry, FAIL_LOADS};
    use crate::sharded::{ShardedConfig, ShardedMap};
    use pma_common::{metrics_of, FrozenView};
    use std::time::Duration;

    #[test]
    fn split_and_merge_keep_contents() {
        let map = ShardedMap::new(config(1), registry()).unwrap();
        for k in 0..2_000i64 {
            map.insert(k, -k);
        }
        map.flush();
        assert!(map.split_shard(0).unwrap());
        assert_eq!(map.num_shards(), 2);
        assert!(map.split_shard(1).unwrap());
        assert_eq!(map.num_shards(), 3);
        assert_eq!(map.len(), 2_000);
        assert_eq!(map.scan_all().count, 2_000);
        for k in (0..2_000i64).step_by(97) {
            assert_eq!(map.get(k), Some(-k));
        }
        let layout = map.shard_layout();
        assert_eq!(layout[0].0, KEY_MIN);
        assert_eq!(layout[layout.len() - 1].1, KEY_MAX);
        // Updates keep flowing through the new directory.
        map.insert(5_000, 5);
        assert_eq!(map.get(5_000), Some(5));
        while map.num_shards() > 1 {
            assert!(map.merge_shards(0).unwrap());
        }
        map.flush();
        assert_eq!(map.len(), 2_001);
        assert_eq!(map.scan_all().count, 2_001);
        assert_eq!(counter(&map, "splits"), 2);
        assert_eq!(counter(&map, "merges"), 2);
        // Every fence (install + final, splits and merges) counts as stall.
        assert!(counter(&map, "stall_ns") > 0);
        // Splitting an empty or single-element shard, or a stale index, is
        // a no-op.
        let empty = ShardedMap::new(config(1), registry()).unwrap();
        assert!(!empty.split_shard(0).unwrap());
        assert!(!map.split_shard(99).unwrap());
        assert!(!empty.merge_shards(0).unwrap());
    }

    #[test]
    fn incremental_split_folds_concurrent_writes() {
        let map = ShardedMap::new(config(1), registry()).unwrap();
        for k in 0..60_000i64 {
            map.insert(k * 2, k);
        }
        map.flush();
        // Writers land odd keys while the split copies the even preload.
        std::thread::scope(|scope| {
            let map = &map;
            let writers: Vec<_> = (0..2)
                .map(|t| {
                    scope.spawn(move || {
                        for i in 0..15_000i64 {
                            let key = (i * 2 + 1) * (t + 1);
                            map.insert(key, -key);
                        }
                    })
                })
                .collect();
            assert!(map.split_shard(0).unwrap());
            for w in writers {
                w.join().unwrap();
            }
        });
        map.flush();
        assert_eq!(map.num_shards(), 2);
        // Model: preload + both writers' odd keys (upserts may overlap
        // between writers at odd multiples, last-wins either way since the
        // value depends only on the key).
        let mut model = std::collections::BTreeMap::new();
        for k in 0..60_000i64 {
            model.insert(k * 2, k);
        }
        for t in 0..2i64 {
            for i in 0..15_000i64 {
                let key = (i * 2 + 1) * (t + 1);
                model.insert(key, -key);
            }
        }
        assert_eq!(map.len(), model.len(), "split lost or duplicated keys");
        let stats = map.scan_all();
        assert_eq!(stats.count as usize, model.len());
        assert_eq!(
            stats.key_sum,
            model.keys().map(|&k| k as i128).sum::<i128>()
        );
        for (&k, &v) in model.iter().step_by(313) {
            assert_eq!(map.get(k), Some(v), "key {k}");
        }
        assert_eq!(counter(&map, "splits"), 1);
    }

    #[test]
    fn auto_monitor_splits_hot_and_merges_cold_shards() {
        let cfg = ShardedConfig {
            shards: 1,
            inner_spec: "pma-batch:1".to_string(),
            split_above: 1_000,
            merge_below: 64,
            hysteresis_rounds: 2,
            monitor_interval: Duration::from_millis(5),
            auto_manage: true,
        };
        let map = ShardedMap::new(cfg, registry()).unwrap();
        for k in 0..6_000i64 {
            map.insert(k, k);
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        while counter(&map, "splits") == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(counter(&map, "splits") > 0, "monitor never split");
        map.flush();
        assert_eq!(map.len(), 6_000);
        assert_eq!(map.scan_all().count, 6_000);
        // Empty the map; the monitor merges the now-cold shards back down.
        for k in 0..6_000i64 {
            map.remove(k);
        }
        map.flush();
        while counter(&map, "merges") == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(counter(&map, "merges") > 0, "monitor never merged");
        assert_eq!(map.len(), 0);
    }

    #[test]
    fn hysteresis_defers_and_averts_boundary_thrash() {
        // No background monitor (interval zero); drive rounds by hand.
        let cfg = ShardedConfig {
            shards: 1,
            inner_spec: "pma-batch:1".to_string(),
            split_above: 100,
            merge_below: 50,
            hysteresis_rounds: 3,
            monitor_interval: Duration::ZERO,
            auto_manage: true,
        };
        let map = ShardedMap::new(cfg, registry()).unwrap();
        for k in 0..150i64 {
            map.insert(k, k);
        }
        map.flush();
        // Two rounds above threshold: streak at 2 < 3, no split yet.
        map.maintain_once();
        map.maintain_once();
        assert_eq!(counter(&map, "splits"), 0, "split fired before hysteresis");
        // Load drops back under the boundary: the streak resets and the
        // suppressed crossing is counted as thrash averted.
        for k in 0..100i64 {
            map.remove(k);
        }
        map.flush();
        map.maintain_once();
        assert_eq!(counter(&map, "splits"), 0);
        assert!(
            counter(&map, "thrash_averted") >= 1,
            "lapsed crossing must count as thrash averted: {:?}",
            metrics_of(&map)
        );
        // A crossing that persists for the full window does split.
        for k in 0..150i64 {
            map.insert(k, k);
        }
        map.flush();
        map.maintain_once();
        map.maintain_once();
        assert_eq!(counter(&map, "splits"), 0);
        map.maintain_once();
        assert_eq!(counter(&map, "splits"), 1, "persistent crossing must split");
        // Fresh shards restart their merge streaks: three more rounds of
        // cold load are needed before the halves merge back.
        for k in 0..200i64 {
            map.remove(k);
        }
        map.flush();
        map.maintain_once();
        map.maintain_once();
        assert_eq!(counter(&map, "merges"), 0, "merge fired before hysteresis");
        map.maintain_once();
        assert_eq!(counter(&map, "merges"), 1, "persistent cold must merge");
    }

    #[test]
    fn aborted_split_folds_captured_ops_back_into_the_live_shard() {
        let local = flaky_registry();
        let cfg = ShardedConfig {
            shards: 1,
            inner_spec: "flaky".to_string(),
            auto_manage: false,
            monitor_interval: Duration::ZERO,
            ..ShardedConfig::default()
        };
        let map = ShardedMap::new(cfg, &local).unwrap();
        for k in 0..1_000i64 {
            map.insert(k, k);
        }
        map.flush();

        // Writers land while splits keep aborting (loader failure injected
        // after the log is installed): every op they record in a capture
        // window must survive the abort.
        FAIL_LOADS.store(true, Ordering::Relaxed);
        std::thread::scope(|scope| {
            let map = &map;
            let writer = scope.spawn(move || {
                for k in 10_000..11_000i64 {
                    map.insert(k, -k);
                }
            });
            for _ in 0..20 {
                assert!(map.split_shard(0).is_err(), "injected failure expected");
            }
            writer.join().unwrap();
        });
        FAIL_LOADS.store(false, Ordering::Relaxed);
        map.flush();
        assert_eq!(map.num_shards(), 1, "aborted splits must not publish");
        assert_eq!(map.len(), 2_000, "an aborted split lost captured ops");
        for k in (10_000..11_000i64).step_by(97) {
            assert_eq!(map.get(k), Some(-k));
        }
        // With the injection off the same shard still splits fine.
        assert!(map.split_shard(0).unwrap());
        assert_eq!(map.num_shards(), 2);
        assert_eq!(map.scan_all().count, 2_000);

        // Merges abort the same way, with writers on both sides of the
        // fence recording into the one log the two shards share: the
        // fold-back must route every op to the shard that owns its key.
        let boundary = map.shard_layout()[1].0;
        FAIL_LOADS.store(true, Ordering::Relaxed);
        std::thread::scope(|scope| {
            let map = &map;
            let writers: Vec<_> = [1_000..2_000i64, 20_000..21_000]
                .into_iter()
                .map(|keys| {
                    scope.spawn(move || {
                        for k in keys {
                            map.insert(k, -k);
                        }
                    })
                })
                .collect();
            for _ in 0..20 {
                assert!(map.merge_shards(0).is_err(), "injected failure expected");
            }
            for writer in writers {
                writer.join().unwrap();
            }
        });
        FAIL_LOADS.store(false, Ordering::Relaxed);
        map.flush();
        assert_eq!(map.num_shards(), 2, "aborted merges must not publish");
        for k in (1_000..2_000i64).chain(20_000..21_000) {
            assert_eq!(map.get(k), Some(-k), "key {k}");
        }
        let keys = || (0..2_000i64).chain(10_000..11_000).chain(20_000..21_000);
        let layout = map.shard_layout();
        assert_eq!(layout[1].0, boundary);
        for (lo, hi, len) in layout {
            let owned = keys().filter(|k| (lo..=hi).contains(k)).count();
            assert_eq!(len, owned, "shard [{lo}, {hi}]");
        }
        assert_eq!(map.len(), 4_000);
    }

    #[test]
    fn sampled_heat_still_picks_the_split_candidate() {
        // Lookups and updates tick the heat counter the same way
        // (overwrites here: the lengths must not move).
        heat_picks_the_split_candidate("lookups", |map, key| assert_eq!(map.get(key), Some(key)));
        heat_picks_the_split_candidate("updates", |map, key| map.insert(key, key));
    }

    fn heat_picks_the_split_candidate(what: &str, op: fn(&ShardedMap, Key)) {
        // Two shards loaded under the threshold and grown past it by one
        // batch (a load that opens oversized is fanned out wider instead);
        // with the batch's write heat cleared, only the point operations
        // that follow tell them apart, and those are sampled.
        let (seed, growth): (Vec<_>, Vec<_>) = (0..4_000i64)
            .map(|k| (k, k))
            .partition(|&(k, _)| k % 4 == 0);
        let cfg = ShardedConfig {
            shards: 2,
            split_above: 1_000,
            merge_below: 64,
            hysteresis_rounds: 1,
            monitor_interval: Duration::ZERO,
            ..config(2)
        };
        let map = ShardedMap::from_sorted(cfg, registry(), &seed).unwrap();
        map.insert_batch(&growth);
        map.flush();
        {
            let _pin = map.engine.epoch.pin();
            // SAFETY: pinned above.
            for shard in &unsafe { map.engine.dir_ref() }.shards {
                shard.load.ops.store(0, Ordering::Relaxed);
            }
        }
        let routed_before = counter(&map, "routed_ops");
        let before = map.shard_layout();
        assert_eq!(before.len(), 2);
        assert!(before.iter().all(|&(_, _, len)| len == 2_000));
        let (cold, hot) = (before[0], before[1]);
        // Fifteen operations on the hot shard, then one on the cold one: a
        // period equal to the sample interval, which a sample taken on every
        // sixteenth operation would credit to one shard alone.
        const ROUNDS: i64 = 500;
        for round in 0..ROUNDS {
            for i in 0..15 {
                op(&map, hot.0 + (round * 15 + i) % 1_000);
            }
            op(&map, round);
        }
        map.flush();
        assert_eq!(
            counter(&map, "routed_ops") - routed_before,
            16 * ROUNDS as u64,
            "{what}: the engine counter is exact"
        );
        let heat = |idx: usize| {
            let _pin = map.engine.epoch.pin();
            // SAFETY: pinned above.
            let dir = unsafe { map.engine.dir_ref() };
            dir.shards[idx].load.ops.load(Ordering::Relaxed)
        };
        // 7500 and 500 operations, each sampled one time in sixteen.
        let (cold_heat, hot_heat) = (heat(0), heat(1));
        assert!(
            (6_000..9_000).contains(&hot_heat),
            "{what}, hot shard: {hot_heat}"
        );
        assert!(
            (100..1_500).contains(&cold_heat),
            "{what}, cold shard: {cold_heat}"
        );
        map.maintain_once();
        let after = map.shard_layout();
        assert_eq!(after.len(), 3, "{what}: one split per round");
        assert_eq!(after[0], cold, "{what}: the cold shard was left alone");
        assert_eq!((after[1].0, after[2].1), (hot.0, hot.1));
    }

    /// A split retires the shard's inner map with everything it counted:
    /// the copies a frozen view cost stay in `cow_copies` (also through the
    /// typed view), and the inner gauges are forwarded by their rule.
    #[test]
    fn a_split_keeps_the_retired_shards_copies_and_gauges() {
        let map = ShardedMap::new(config(2), registry()).unwrap();
        for k in 0..4_000i64 {
            map.insert(k, k);
        }
        map.flush();
        let frozen = map.frozen().expect("pma shards freeze");
        // Overwrites of settled keys under a live view: copy-on-write.
        for k in 0..4_000i64 {
            map.insert(k, -k);
        }
        map.flush();
        let copied = counter(&map, "cow_copies");
        assert!(copied > 0, "the overwrites copied no chunk");
        assert!(map.split_shard(1).unwrap());
        let after = metrics_of(&map);
        assert!(after.counter("cow_copies").unwrap() >= copied, "{after:?}");
        assert_eq!(
            map.maintenance_stats().unwrap().cow_copies,
            after.counter("cow_copies").unwrap()
        );
        for gauge in ["garbage_pending", "epoch_lag", "queue_depth"] {
            assert!(after.value(gauge).is_some(), "{gauge} not exported");
        }
        assert_eq!(frozen.get(17), Some(17));
    }

    #[test]
    fn merge_waits_for_both_shards_to_see_writes() {
        let map = ShardedMap::new(config(2), registry()).unwrap();
        // Two empty seed shards sum far below merge_below, but neither has
        // seen a write: the monitor must leave the directory alone no matter
        // how many rounds elapse.
        for _ in 0..10 {
            map.maintain_once();
        }
        assert_eq!(map.num_shards(), 2, "never-written seed shards merged");

        // A write to only one member keeps the pair ineligible.
        map.insert(KEY_MIN + 1, 1);
        for _ in 0..10 {
            map.maintain_once();
        }
        assert_eq!(map.num_shards(), 2, "half-written pair merged");

        // Once both members have seen a write, the cold pair merges after
        // the hysteresis streak completes.
        map.insert(KEY_MAX - 1, 2);
        for _ in 0..10 {
            map.maintain_once();
        }
        assert_eq!(map.num_shards(), 1);
        assert_eq!(map.get(KEY_MIN + 1), Some(1));
        assert_eq!(map.get(KEY_MAX - 1), Some(2));
    }
}
