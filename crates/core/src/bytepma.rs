//! [`BytePma`]: the concurrent PMA generalised to variable-length byte keys.
//!
//! The u64 engine keeps a packed array of fixed 8-byte keys; a byte-keyed
//! store cannot, so this engine keeps the *chunk* discipline (bounded sorted
//! runs behind a routed directory, rebuilt wholesale at structural changes)
//! and swaps the chunk payload for a **prefix-compressed run**:
//!
//! ```text
//! ByteChunk
//! ├── prefix:   Vec<u8>     shared by every key in the chunk
//! ├── suffixes: Vec<u8>     the keys' distinct tails, concatenated (arena)
//! ├── offsets:  Vec<u32>    n+1 cut points into the arena
//! └── values:   Vec<Value>  one 8-byte value per key
//! ```
//!
//! Key `i` is `prefix ++ suffixes[offsets[i]..offsets[i+1]]`. The shared
//! prefix is stored **once per chunk** instead of once per key, which is
//! where the bytes/key win over a naive `Vec<u8>`-per-key layout comes from
//! (one URL corpus chunk typically shares `https://domain/…` across its ~128
//! keys; see `docs/INTERNALS.md` for the measured numbers). The prefix is
//! recomputed whenever a chunk is rebuilt — bulk load, split, or an insert
//! whose key falls outside the current prefix — mirroring how the u64 engine
//! already reconstructs chunks at redistribute/resize.
//!
//! Routing uses [`ByteFences`]: fences' first eight bytes ride the existing
//! SIMD `route` kernel (scalar tie-break on equal heads), so byte routing
//! obeys `PMA_FORCE_SCALAR` like every other kernel.
//!
//! Concurrency follows the chunk-level copy-on-write design of the u64
//! engine: point ops take the directory read lock plus one chunk lock;
//! structural changes (split, empty-chunk merge) take the directory write
//! lock; [`BytePma::frozen`] pins every chunk's current [`std::sync::Arc`]
//! version under a brief directory write lock, and a later writer that finds
//! its chunk pinned copies it instead of mutating in place (`cow_copies`).

use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Arc;

use parking_lot::RwLock;
use pma_common::bytemap::{
    dedup_sorted_bytes_last_wins, ByteMemoryStats, ConcurrentByteMap, FrozenByteView,
};
use pma_common::simd::ByteFences;
use pma_common::{MaintenanceStats, PmaError, Value};

/// Tuning knobs for [`BytePma`].
#[derive(Debug, Clone, Copy)]
pub struct BytePmaConfig {
    /// Target entries per chunk: bulk load fills chunks to this size, and a
    /// chunk exceeding twice it is split.
    pub chunk_target: usize,
}

impl Default for BytePmaConfig {
    fn default() -> Self {
        Self { chunk_target: 128 }
    }
}

/// Longest common prefix of two byte strings.
fn lcp(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// One prefix-compressed sorted run (see the module docs for the layout).
#[derive(Debug, Clone, Default)]
struct ByteChunk {
    prefix: Vec<u8>,
    suffixes: Vec<u8>,
    offsets: Vec<u32>,
    values: Vec<Value>,
}

impl ByteChunk {
    fn empty() -> Self {
        Self {
            prefix: Vec::new(),
            suffixes: Vec::new(),
            offsets: vec![0],
            values: Vec::new(),
        }
    }

    /// Builds a chunk from a strictly sorted run, computing the shared
    /// prefix as the LCP of the first and last key (equal to the LCP of the
    /// whole sorted run).
    fn from_run(items: &[(Vec<u8>, Value)]) -> Self {
        let Some((first, _)) = items.first() else {
            return Self::empty();
        };
        let (last, _) = items.last().expect("non-empty");
        let prefix = first[..lcp(first, last)].to_vec();
        let suffix_bytes: usize = items.iter().map(|(key, _)| key.len() - prefix.len()).sum();
        let mut chunk = Self {
            prefix,
            suffixes: Vec::with_capacity(suffix_bytes),
            offsets: Vec::with_capacity(items.len() + 1),
            values: Vec::with_capacity(items.len()),
        };
        chunk.offsets.push(0);
        for (key, value) in items {
            debug_assert!(key.starts_with(&chunk.prefix));
            chunk.suffixes.extend_from_slice(&key[chunk.prefix.len()..]);
            chunk.offsets.push(chunk.suffixes.len() as u32);
            chunk.values.push(*value);
        }
        chunk
    }

    fn len(&self) -> usize {
        self.values.len()
    }

    fn suffix(&self, i: usize) -> &[u8] {
        &self.suffixes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Compares stored key `i` (= `prefix ++ suffix(i)`) to `key` without
    /// materialising it.
    fn cmp_key(&self, i: usize, key: &[u8]) -> Ordering {
        let shared = self.prefix.len().min(key.len());
        match self.prefix[..shared].cmp(&key[..shared]) {
            Ordering::Equal if key.len() < self.prefix.len() => {
                // `key` is a proper prefix of the chunk prefix, so every
                // stored key (which extends the prefix) is greater.
                Ordering::Greater
            }
            Ordering::Equal => self.suffix(i).cmp(&key[self.prefix.len()..]),
            ord => ord,
        }
    }

    /// `slice::binary_search`-shaped probe for `key`.
    fn search(&self, key: &[u8]) -> Result<usize, usize> {
        let mut lo = 0;
        let mut hi = self.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.cmp_key(mid, key) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// Shrinks the shared prefix to `keep` bytes, pushing the cut bytes back
    /// into every suffix (a full arena rebuild). Required before inserting a
    /// key that does not extend the current prefix.
    fn reprefix(&mut self, keep: usize) {
        debug_assert!(keep <= self.prefix.len());
        if keep == self.prefix.len() {
            return;
        }
        let moved = self.prefix[keep..].to_vec();
        let mut suffixes = Vec::with_capacity(self.suffixes.len() + moved.len() * self.len());
        let mut offsets = Vec::with_capacity(self.offsets.len());
        offsets.push(0_u32);
        for i in 0..self.len() {
            suffixes.extend_from_slice(&moved);
            suffixes.extend_from_slice(self.suffix(i));
            offsets.push(suffixes.len() as u32);
        }
        self.prefix.truncate(keep);
        self.suffixes = suffixes;
        self.offsets = offsets;
    }

    /// Splices `key` in at slot `idx` (which must be its sorted position).
    /// Handles prefix shrinkage when `key` falls outside the shared prefix;
    /// returns true when that rebuild happened.
    fn insert_at(&mut self, idx: usize, key: &[u8], value: Value) -> bool {
        let rebuilt = !key.starts_with(&self.prefix);
        if rebuilt {
            self.reprefix(lcp(&self.prefix, key));
        }
        let suffix = &key[self.prefix.len()..];
        let at = self.offsets[idx] as usize;
        self.suffixes.splice(at..at, suffix.iter().copied());
        let delta = suffix.len() as u32;
        self.offsets.insert(idx + 1, self.offsets[idx] + delta);
        for offset in &mut self.offsets[idx + 2..] {
            *offset += delta;
        }
        self.values.insert(idx, value);
        rebuilt
    }

    fn remove_at(&mut self, idx: usize) -> Value {
        let start = self.offsets[idx] as usize;
        let end = self.offsets[idx + 1] as usize;
        self.suffixes.drain(start..end);
        let delta = (end - start) as u32;
        self.offsets.remove(idx + 1);
        for offset in &mut self.offsets[idx + 1..] {
            *offset -= delta;
        }
        self.values.remove(idx)
    }

    /// Materialises key `i` into `buf` (cleared first).
    fn write_key(&self, i: usize, buf: &mut Vec<u8>) {
        buf.clear();
        buf.extend_from_slice(&self.prefix);
        buf.extend_from_slice(self.suffix(i));
    }

    /// Materialises every entry as owned pairs (split/debug path).
    fn to_pairs(&self) -> Vec<(Vec<u8>, Value)> {
        (0..self.len())
            .map(|i| {
                let mut key = Vec::with_capacity(self.prefix.len() + self.suffix(i).len());
                key.extend_from_slice(&self.prefix);
                key.extend_from_slice(self.suffix(i));
                (key, self.values[i])
            })
            .collect()
    }

    /// Logical key payload: what the keys would occupy fully expanded.
    fn key_bytes(&self) -> usize {
        self.prefix.len() * self.len() + self.suffixes.len()
    }

    /// Heap actually owned by the chunk.
    fn heap_bytes(&self) -> usize {
        self.prefix.capacity()
            + self.suffixes.capacity()
            + self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.values.capacity() * std::mem::size_of::<Value>()
            + std::mem::size_of::<Self>()
    }
}

struct Directory {
    fences: Arc<ByteFences>,
    chunks: Vec<RwLock<Arc<ByteChunk>>>,
}

impl Directory {
    fn fence_keys(&self) -> Vec<Vec<u8>> {
        (0..self.fences.len())
            .map(|i| self.fences.fence(i).to_vec())
            .collect()
    }
}

/// A concurrent, byte-keyed PMA: prefix-compressed chunks behind a SIMD-
/// routed fence directory, with chunk-level copy-on-write snapshots.
///
/// Registry spec: `bpma[:<chunk_target>]` (default 128).
///
/// ```
/// use pma_core::bytepma::{BytePma, BytePmaConfig};
/// use pma_common::bytemap::ConcurrentByteMap;
///
/// let map = BytePma::new(BytePmaConfig { chunk_target: 4 }).unwrap();
/// for id in 0..64_i64 {
///     map.insert(format!("user:{id:04}").as_bytes(), id);
/// }
/// assert_eq!(map.len(), 64);
/// assert_eq!(map.get(b"user:0007"), Some(7));
///
/// // First-class prefix scan: exactly the "user:000x" decade.
/// assert_eq!(map.prefix_stats(b"user:000").count, 10);
///
/// // Point-in-time snapshot, unaffected by later writes.
/// let frozen = map.frozen().unwrap();
/// map.insert(b"user:9999", -1);
/// assert_eq!(frozen.len(), 64);
/// assert_eq!(frozen.get(b"user:9999"), None);
/// ```
pub struct BytePma {
    dir: RwLock<Directory>,
    config: BytePmaConfig,
    len: AtomicUsize,
    splits: AtomicU64,
    merges: AtomicU64,
    cow_copies: AtomicU64,
    reprefix_rebuilds: AtomicU64,
}

impl BytePma {
    /// Creates an empty byte PMA.
    pub fn new(config: BytePmaConfig) -> Result<Self, PmaError> {
        if config.chunk_target < 2 {
            return Err(PmaError::invalid(
                "chunk_target",
                format!("must be at least 2, got {}", config.chunk_target),
            ));
        }
        Ok(Self {
            dir: RwLock::new(Directory {
                fences: Arc::new(ByteFences::from_keys::<&[u8]>(&[b""])),
                chunks: vec![RwLock::new(Arc::new(ByteChunk::empty()))],
            }),
            config,
            len: AtomicUsize::new(0),
            splits: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            cow_copies: AtomicU64::new(0),
            reprefix_rebuilds: AtomicU64::new(0),
        })
    }

    /// Bulk-loads from a key-sorted run (non-decreasing; later duplicates
    /// win), laying out chunks at exactly `chunk_target` entries with their
    /// shared prefixes computed once — the byte counterpart of the u64
    /// engine's native `from_sorted` loaders.
    pub fn from_sorted_bytes(
        config: BytePmaConfig,
        items: &[(Vec<u8>, Value)],
    ) -> Result<Self, PmaError> {
        let map = Self::new(config)?;
        let items = dedup_sorted_bytes_last_wins(items);
        if items.is_empty() {
            return Ok(map);
        }
        let mut fences: Vec<Vec<u8>> = vec![Vec::new()];
        let mut chunks = Vec::new();
        for run in items.chunks(config.chunk_target.max(2)) {
            if !chunks.is_empty() {
                fences.push(run[0].0.clone());
            }
            chunks.push(RwLock::new(Arc::new(ByteChunk::from_run(run))));
        }
        *map.dir.write() = Directory {
            fences: Arc::new(ByteFences::from_keys(&fences)),
            chunks,
        };
        map.len.store(items.len(), AtomicOrdering::Relaxed);
        Ok(map)
    }

    /// Copy-on-write aware mutable access to a chunk version.
    fn chunk_mut<'a>(&self, slot: &'a mut Arc<ByteChunk>) -> &'a mut ByteChunk {
        if Arc::strong_count(slot) > 1 {
            self.cow_copies.fetch_add(1, AtomicOrdering::Relaxed);
        }
        Arc::make_mut(slot)
    }

    /// Splits the chunk currently holding `key` if it is still over the
    /// split threshold (re-validated under the directory write lock).
    fn split_covering_chunk(&self, key: &[u8]) {
        let mut dir = self.dir.write();
        let idx = dir.fences.route(key);
        let pairs = {
            let chunk = dir.chunks[idx].read();
            if chunk.len() <= self.config.chunk_target * 2 {
                return; // a concurrent split already handled it
            }
            chunk.to_pairs()
        };
        let mid = pairs.len() / 2;
        let (left, right) = pairs.split_at(mid);
        let right_fence = right[0].0.clone();
        let mut fences = dir.fence_keys();
        fences.insert(idx + 1, right_fence);
        dir.chunks[idx] = RwLock::new(Arc::new(ByteChunk::from_run(left)));
        dir.chunks
            .insert(idx + 1, RwLock::new(Arc::new(ByteChunk::from_run(right))));
        dir.fences = Arc::new(ByteFences::from_keys(&fences));
        self.splits.fetch_add(1, AtomicOrdering::Relaxed);
    }

    /// Drops one empty chunk (folding its key range into the left
    /// neighbour), keeping the directory dense after heavy removals.
    fn merge_empty_chunk(&self) {
        let mut dir = self.dir.write();
        if dir.chunks.len() <= 1 {
            return;
        }
        let Some(idx) = dir.chunks.iter().position(|c| c.read().len() == 0) else {
            return;
        };
        let mut fences = dir.fence_keys();
        fences.remove(idx);
        dir.chunks.remove(idx);
        dir.fences = Arc::new(ByteFences::from_keys(&fences));
        self.merges.fetch_add(1, AtomicOrdering::Relaxed);
    }
}

impl ConcurrentByteMap for BytePma {
    fn insert(&self, key: &[u8], value: Value) {
        let needs_split = {
            let dir = self.dir.read();
            let idx = dir.fences.route(key);
            let mut slot = dir.chunks[idx].write();
            match slot.search(key) {
                Ok(pos) => {
                    self.chunk_mut(&mut slot).values[pos] = value;
                    false
                }
                Err(pos) => {
                    let chunk = self.chunk_mut(&mut slot);
                    if chunk.insert_at(pos, key, value) {
                        self.reprefix_rebuilds.fetch_add(1, AtomicOrdering::Relaxed);
                    }
                    self.len.fetch_add(1, AtomicOrdering::Relaxed);
                    chunk.len() > self.config.chunk_target * 2
                }
            }
        };
        if needs_split {
            self.split_covering_chunk(key);
        }
    }

    fn remove(&self, key: &[u8]) -> Option<Value> {
        let (removed, emptied) = {
            let dir = self.dir.read();
            let idx = dir.fences.route(key);
            let mut slot = dir.chunks[idx].write();
            match slot.search(key) {
                Ok(pos) => {
                    let chunk = self.chunk_mut(&mut slot);
                    let value = chunk.remove_at(pos);
                    self.len.fetch_sub(1, AtomicOrdering::Relaxed);
                    (Some(value), chunk.len() == 0)
                }
                Err(_) => (None, false),
            }
        };
        if emptied {
            self.merge_empty_chunk();
        }
        removed
    }

    fn get(&self, key: &[u8]) -> Option<Value> {
        let dir = self.dir.read();
        let chunk = {
            let idx = dir.fences.route(key);
            dir.chunks[idx].read()
        };
        let pos = chunk.search(key).ok()?;
        Some(chunk.values[pos])
    }

    fn len(&self) -> usize {
        self.len.load(AtomicOrdering::Relaxed)
    }

    fn range(&self, lo: &[u8], hi: Option<&[u8]>, visitor: &mut dyn FnMut(&[u8], Value)) {
        // Pin the chunk versions covering the range under the directory read
        // lock, then visit without holding any chunk lock: each chunk is a
        // consistent snapshot, writers are never blocked by the visitor.
        let pinned: Vec<Arc<ByteChunk>> = {
            let dir = self.dir.read();
            let start = dir.fences.route(lo);
            (start..dir.chunks.len())
                .take_while(|&idx| idx == start || hi.is_none_or(|hi| dir.fences.fence(idx) < hi))
                .map(|idx| Arc::clone(&dir.chunks[idx].read()))
                .collect()
        };
        let mut key = Vec::new();
        for chunk in pinned {
            let first = chunk.search(lo).unwrap_or_else(|pos| pos);
            for i in first..chunk.len() {
                chunk.write_key(i, &mut key);
                if let Some(hi) = hi {
                    if key.as_slice() >= hi {
                        return;
                    }
                }
                visitor(&key, chunk.values[i]);
            }
        }
    }

    fn flush(&self) {}

    fn frozen(&self) -> Option<Box<dyn FrozenByteView>> {
        // The write lock excludes every point op for the O(chunks) capture,
        // pinning one consistent version of each chunk.
        let dir = self.dir.write();
        let chunks: Vec<Arc<ByteChunk>> =
            dir.chunks.iter().map(|c| Arc::clone(&c.read())).collect();
        let len = chunks.iter().map(|c| c.len()).sum();
        Some(Box::new(FrozenBytePma {
            fences: Arc::clone(&dir.fences),
            chunks,
            len,
        }))
    }

    fn memory_stats(&self) -> Option<ByteMemoryStats> {
        let dir = self.dir.read();
        let mut stats = ByteMemoryStats {
            entries: 0,
            heap_bytes: dir.fences.heap_bytes()
                + dir.chunks.capacity() * std::mem::size_of::<RwLock<Arc<ByteChunk>>>(),
            key_bytes: 0,
        };
        for chunk in &dir.chunks {
            let chunk = chunk.read();
            stats.entries += chunk.len();
            stats.heap_bytes += chunk.heap_bytes();
            stats.key_bytes += chunk.key_bytes();
        }
        Some(stats)
    }

    fn maintenance_stats(&self) -> Option<MaintenanceStats> {
        Some(MaintenanceStats {
            splits: self.splits.load(AtomicOrdering::Relaxed),
            merges: self.merges.load(AtomicOrdering::Relaxed),
            cow_copies: self.cow_copies.load(AtomicOrdering::Relaxed),
            // Reprefix rebuilds are chunk reconstructions forced by a key
            // escaping the shared prefix — the byte engine's analogue of a
            // redistribute, reported in the closest existing column.
            chase_rounds: self.reprefix_rebuilds.load(AtomicOrdering::Relaxed),
            ..MaintenanceStats::default()
        })
    }

    fn name(&self) -> &'static str {
        "byte-pma"
    }
}

/// Point-in-time snapshot of a [`BytePma`] (see [`BytePma::frozen`]).
struct FrozenBytePma {
    fences: Arc<ByteFences>,
    chunks: Vec<Arc<ByteChunk>>,
    len: usize,
}

impl FrozenByteView for FrozenBytePma {
    fn get(&self, key: &[u8]) -> Option<Value> {
        let chunk = &self.chunks[self.fences.route(key)];
        let pos = chunk.search(key).ok()?;
        Some(chunk.values[pos])
    }

    fn len(&self) -> usize {
        self.len
    }

    fn range(&self, lo: &[u8], hi: Option<&[u8]>, visitor: &mut dyn FnMut(&[u8], Value)) {
        let start = self.fences.route(lo);
        let mut key = Vec::new();
        for idx in start..self.chunks.len() {
            if idx > start && hi.is_some_and(|hi| self.fences.fence(idx) >= hi) {
                return;
            }
            let chunk = &self.chunks[idx];
            let first = chunk.search(lo).unwrap_or_else(|pos| pos);
            for i in first..chunk.len() {
                chunk.write_key(i, &mut key);
                if let Some(hi) = hi {
                    if key.as_slice() >= hi {
                        return;
                    }
                }
                visitor(&key, chunk.values[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pma_common::bytemap::ByteScanStats;
    use std::collections::BTreeMap;

    fn pma(target: usize) -> BytePma {
        BytePma::new(BytePmaConfig {
            chunk_target: target,
        })
        .unwrap()
    }

    fn url(i: usize) -> Vec<u8> {
        format!("https://example.com/users/{i:05}/profile").into_bytes()
    }

    #[test]
    fn point_ops_agree_with_model_across_splits() {
        let map = pma(4);
        let mut model = BTreeMap::new();
        for i in (0..200).rev() {
            map.insert(&url(i), i as Value);
            model.insert(url(i), i as Value);
        }
        for i in (0..200).step_by(3) {
            assert_eq!(map.remove(&url(i)), model.remove(&url(i)));
        }
        assert_eq!(map.len(), model.len());
        for i in 0..200 {
            assert_eq!(map.get(&url(i)), model.get(&url(i)).copied(), "key {i}");
        }
        let stats = map.maintenance_stats().unwrap();
        assert!(stats.splits > 0, "200 keys at target 4 must split");
    }

    #[test]
    fn chunks_share_prefixes() {
        let items: Vec<(Vec<u8>, Value)> = (0..256).map(|i| (url(i), i as Value)).collect();
        let map = BytePma::from_sorted_bytes(BytePmaConfig { chunk_target: 64 }, &items).unwrap();
        let mem = map.memory_stats().unwrap();
        assert_eq!(mem.entries, 256);
        // Every key is 39 bytes; the chunk prefix (>= "https://example.com/
        // users/") is stored once per chunk, so the arena holds far less
        // than the logical key payload.
        assert_eq!(mem.key_bytes, 256 * url(0).len());
        assert!(
            mem.heap_bytes < mem.key_bytes,
            "prefix compression must beat the expanded key payload: {mem:?}"
        );
    }

    #[test]
    fn insert_outside_prefix_triggers_reprefix() {
        // Point inserts into a fresh chunk never grow the prefix (it is
        // computed at rebuild time), so establish it with a bulk load.
        let items = vec![(b"aaaa-0001".to_vec(), 1), (b"aaaa-0002".to_vec(), 2)];
        let map = BytePma::from_sorted_bytes(BytePmaConfig { chunk_target: 64 }, &items).unwrap();
        // The chunk's prefix is now "aaaa-000"; this key shares only "aa".
        map.insert(b"aab", 3);
        assert_eq!(map.get(b"aaaa-0001"), Some(1));
        assert_eq!(map.get(b"aaaa-0002"), Some(2));
        assert_eq!(map.get(b"aab"), Some(3));
        let stats = map.maintenance_stats().unwrap();
        assert!(stats.chase_rounds > 0, "reprefix rebuild must be counted");
    }

    #[test]
    fn range_and_prefix_scans_are_ordered_and_bounded() {
        let map = pma(8);
        for i in 0..100 {
            map.insert(&url(i), i as Value);
        }
        map.insert(b"aaa", -1);
        map.insert(b"zzz", -2);
        let mut seen = Vec::new();
        map.prefix(b"https://example.com/users/0000", &mut |key, value| {
            seen.push((key.to_vec(), value));
        });
        assert_eq!(seen.len(), 10);
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0), "ascending order");
        assert_eq!(seen[0].1, 0);
        assert_eq!(seen[9].1, 9);

        // Half-open range semantics: hi is excluded.
        let stats = map.scan_range(&url(10), Some(&url(20)));
        assert_eq!(stats.count, 10);
        assert_eq!(map.scan_all().count, 102);
    }

    #[test]
    fn empty_and_tiny_keys_are_valid() {
        let map = pma(4);
        map.insert(b"", 0);
        map.insert(&[0x00], 1);
        map.insert(&[0x00, 0x00], 2);
        map.insert(&[0xFF], 3);
        assert_eq!(map.get(b""), Some(0));
        assert_eq!(map.get(&[0x00]), Some(1));
        assert_eq!(map.len(), 4);
        let mut keys = Vec::new();
        map.range(&[], None, &mut |key, _| keys.push(key.to_vec()));
        assert_eq!(keys, vec![vec![], vec![0x00], vec![0x00, 0x00], vec![0xFF]]);
        assert_eq!(map.remove(b""), Some(0));
        assert_eq!(map.get(b""), None);
    }

    #[test]
    fn frozen_views_are_point_in_time_and_count_cow() {
        let map = pma(4);
        for i in 0..40 {
            map.insert(&url(i), i as Value);
        }
        let frozen = map.frozen().unwrap();
        for i in 0..40 {
            map.insert(&url(i), -(i as Value));
            map.insert(&url(i + 100), 7);
        }
        assert_eq!(frozen.len(), 40);
        for i in 0..40 {
            assert_eq!(frozen.get(&url(i)), Some(i as Value), "old value pinned");
            assert_eq!(frozen.get(&url(i + 100)), None, "new key invisible");
        }
        let mut stats = ByteScanStats::default();
        frozen.range(&[], None, &mut |key, value| stats.visit(key, value));
        assert_eq!(stats.count, 40);
        assert!(
            map.maintenance_stats().unwrap().cow_copies > 0,
            "writes under a pinned snapshot must copy"
        );
    }

    #[test]
    fn bulk_load_matches_point_inserts() {
        let mut items: Vec<(Vec<u8>, Value)> = (0..333).map(|i| (url(i), i as Value)).collect();
        items.push((url(100), 999)); // duplicate, sorts after (url(100), 100): last wins
        items.sort();
        let loaded =
            BytePma::from_sorted_bytes(BytePmaConfig { chunk_target: 16 }, &items).unwrap();
        let pointwise = pma(16);
        for (key, value) in &items {
            pointwise.insert(key, *value);
        }
        assert_eq!(loaded.len(), 333);
        assert_eq!(loaded.len(), pointwise.len());
        assert_eq!(loaded.scan_all(), pointwise.scan_all());
        assert_eq!(loaded.get(&url(100)), Some(999));
    }

    #[test]
    fn removing_whole_chunks_merges_them_away() {
        let items: Vec<(Vec<u8>, Value)> = (0..128).map(|i| (url(i), i as Value)).collect();
        let map = BytePma::from_sorted_bytes(BytePmaConfig { chunk_target: 8 }, &items).unwrap();
        for (key, _) in &items {
            map.remove(key);
        }
        assert_eq!(map.len(), 0);
        assert!(map.maintenance_stats().unwrap().merges > 0);
        // The directory still routes correctly after the merges.
        map.insert(&url(5), 55);
        assert_eq!(map.get(&url(5)), Some(55));
        assert_eq!(map.scan_all().count, 1);
    }

    #[test]
    fn concurrent_writers_and_scanners_converge() {
        let map = Arc::new(pma(8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    for i in 0..250 {
                        let key = format!("w{t}:{i:04}").into_bytes();
                        map.insert(&key, (t * 1000 + i) as Value);
                        if i % 16 == 0 {
                            let _ = map.scan_range(b"w0", Some(b"w3"));
                            let _ = map.frozen();
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(map.len(), 1000);
        let stats = map.scan_all();
        assert_eq!(stats.count, 1000);
    }
}
