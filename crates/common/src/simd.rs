//! Hand-rolled hot-path kernels: vectorised search over small sorted key
//! runs, bulk run copies, exact run sums, and cache-line-aligned key layouts.
//!
//! The structures of this workspace (PMA segments, gate chunks, the static
//! index, the shard directory) all route probes through short sorted `i64`
//! runs — exactly the shape where a branchless compare-and-popcount beats a
//! branchy binary search. The build environment has no crates.io access, so
//! the kernels are written directly against `core::arch`:
//!
//! * **AVX2** (x86_64, runtime-detected): 4 keys per compare.
//! * **SSE2** (x86_64 baseline, always available): 2 keys per compare, with
//!   the classic sign-select emulation of the missing 64-bit compare.
//! * **NEON** (aarch64 baseline): 2 keys per compare.
//! * **Scalar** fallback (every other target, and `PMA_FORCE_SCALAR=1`).
//!
//! Dispatch is resolved **once per process** ([`active_variant`]): runs
//! detect CPU features at startup, and setting the environment variable
//! `PMA_FORCE_SCALAR=1` pins the scalar fallback for debugging and for the
//! CI job that keeps that path covered. Every kernel is defined to be
//! bit-identical to its scalar twin — the searches on sorted input
//! (duplicates, empty runs and `i64::MIN`/`MAX` boundaries included), the
//! run sum ([`sum_run`], the fold of every ordered scan) on any input —
//! property-tested in `tests/simd_kernels.rs`.
//!
//! A chunk whose keys span less than 2^32 stores them as `u32` offsets from
//! a base key; the `*_u32` twins of the searches and of the run sum, and
//! the widening [`decode_run`] / [`append_decoded`], work on such runs (8
//! offsets per AVX2 compare, 4 per SSE2 one; NEON uses the scalar arm).
//!
//! Long runs use a hybrid: a scalar binary search narrows the window to at
//! most [`SMALL_RUN`] elements, then the vector kernel counts the remainder
//! branchlessly, so the kernels stay cheap on multi-thousand-entry separator
//! arrays. Runs of at most [`SHORT_RUN`] keys — a chunk's routing prefix, an
//! index node — never reach a vector kernel: the kernels are
//! `#[target_feature]` functions, which cannot be inlined into their
//! callers, and a call plus a horizontal reduction costs more than the eight
//! compares it would replace. They are counted inline, in portable code
//! (bit-identical by construction, whatever the active variant).

use crate::types::Key;
use std::sync::atomic::{AtomicI64, AtomicU8, Ordering};

/// Window size below which the count is fully vectorised; above it a scalar
/// binary search narrows the window first.
pub const SMALL_RUN: usize = 64;

/// Runs up to this long are counted inline, compare by compare, without
/// reaching a vector kernel.
pub const SHORT_RUN: usize = 16;

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

/// The kernel implementation selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// AVX2 (x86_64, runtime-detected).
    Avx2,
    /// SSE2 (x86_64 compile-time baseline).
    Sse2,
    /// NEON (aarch64 compile-time baseline).
    Neon,
    /// Portable scalar fallback.
    Scalar,
}

impl Variant {
    /// Short lower-case name (recorded in bench reports).
    pub fn name(self) -> &'static str {
        match self {
            Variant::Avx2 => "avx2",
            Variant::Sse2 => "sse2",
            Variant::Neon => "neon",
            Variant::Scalar => "scalar",
        }
    }

    /// Whether this variant can execute on the current CPU.
    pub fn supported(self) -> bool {
        match self {
            Variant::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Variant::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            Variant::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            Variant::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }
}

/// 0 = unresolved; otherwise `Variant` discriminant + 1.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

fn resolve_variant() -> Variant {
    let forced = std::env::var("PMA_FORCE_SCALAR")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    if forced {
        return Variant::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Variant::Avx2;
        }
        return Variant::Sse2;
    }
    #[cfg(target_arch = "aarch64")]
    {
        return Variant::Neon;
    }
    #[allow(unreachable_code)]
    Variant::Scalar
}

/// The kernel variant every dispatching entry point uses, resolved once per
/// process (CPU detection + the `PMA_FORCE_SCALAR` override).
#[inline]
pub fn active_variant() -> Variant {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => Variant::Avx2,
        2 => Variant::Sse2,
        3 => Variant::Neon,
        4 => Variant::Scalar,
        _ => {
            let v = resolve_variant();
            let code = match v {
                Variant::Avx2 => 1,
                Variant::Sse2 => 2,
                Variant::Neon => 3,
                Variant::Scalar => 4,
            };
            ACTIVE.store(code, Ordering::Relaxed);
            v
        }
    }
}

/// Name of the active kernel variant (`avx2`/`sse2`/`neon`/`scalar`).
pub fn kernel_variant() -> &'static str {
    active_variant().name()
}

// ---------------------------------------------------------------------
// Counting kernels
// ---------------------------------------------------------------------

/// Number of elements `<= key` in the sorted run — identical to
/// `run.partition_point(|&x| x <= key)`.
#[inline]
pub fn count_le(run: &[Key], key: Key) -> usize {
    if run.len() <= SHORT_RUN {
        count_le_inline(run, |&x| x <= key)
    } else {
        count_le_dispatch(active_variant(), run, key)
    }
}

/// Number of elements `< key` in the sorted run — identical to
/// `run.partition_point(|&x| x < key)`.
#[inline]
pub fn count_lt(run: &[Key], key: Key) -> usize {
    // x < key  ⟺  x <= key - 1 for integer keys; nothing is below MIN.
    match key.checked_sub(1) {
        Some(pred) => count_le(run, pred),
        None => 0,
    }
}

/// `slice::binary_search`-compatible probe over a sorted run: `Ok(pos)` of
/// the first occurrence of `key`, or `Err(pos)` of its insertion point.
#[inline]
pub fn search(run: &[Key], key: Key) -> Result<usize, usize> {
    let pos = count_lt(run, key);
    if pos < run.len() && run[pos] == key {
        Ok(pos)
    } else {
        Err(pos)
    }
}

/// Routing probe over a sorted separator array: index of the last separator
/// `<= key`, or 0 when every separator is greater (the first entry acts as
/// `-inf`). This is the shape of both the static index's per-node scan and
/// the shard directory lookup.
#[inline]
pub fn route(separators: &[Key], key: Key) -> usize {
    count_le(separators, key).saturating_sub(1)
}

/// [`count_le`] pinned to an explicit variant (bench/test hook).
///
/// # Panics
/// Panics when `variant` is not [`Variant::supported`] on this CPU.
pub fn count_le_with(variant: Variant, run: &[Key], key: Key) -> usize {
    assert!(variant.supported(), "{variant:?} not supported on this CPU");
    count_le_dispatch(variant, run, key)
}

/// The narrowing search and the window count of `variant`, which the caller
/// vouches for: [`active_variant`] only ever returns a supported variant,
/// [`count_le_with`] checks the one it is handed.
#[inline]
fn count_le_dispatch(variant: Variant, run: &[Key], key: Key) -> usize {
    // Narrow long runs with a branchless (cmov) binary search first: the
    // vector kernel then counts a window of at most SMALL_RUN elements.
    // Data-dependent branches here would mispredict on ~half the probes.
    let mut lo = 0usize;
    let mut hi = run.len();
    while hi - lo > SMALL_RUN {
        let mid = lo + (hi - lo) / 2;
        let le = run[mid] <= key;
        lo = if le { mid + 1 } else { lo };
        hi = if le { hi } else { mid };
    }
    let window = &run[lo..hi];
    lo + match variant {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller vouches that the CPU has AVX2 (see above).
        Variant::Avx2 => unsafe { count_le_avx2(window, key) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline.
        Variant::Sse2 => unsafe { count_le_sse2(window, key) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is part of the aarch64 baseline.
        Variant::Neon => unsafe { count_le_neon(window, key) },
        _ => count_le_scalar(window, key),
    }
}

/// Length of the leading run of elements that satisfy `le` — on a sorted
/// run and `le = (x <= key)`, the count of elements `<= key` — worked out
/// inline, eight compares at a time: each block's outcomes are gathered
/// into a bit mask and its trailing ones counted. (A sum of the eight
/// outcomes is what one would write; LLVM turns that sum into a vector mask
/// plus a software popcount, several times the cost of the compares.) A
/// block that is not all hits ends the scan.
#[inline(always)]
fn count_le_inline<T>(run: &[T], le: impl Fn(&T) -> bool) -> usize {
    let leading_hits = |block: &[T]| -> usize {
        let mut mask = 0u32;
        for (i, x) in block.iter().enumerate() {
            mask |= u32::from(le(x)) << i;
        }
        (!mask).trailing_zeros() as usize
    };
    let mut count = 0usize;
    let mut blocks = run.chunks_exact(8);
    for block in blocks.by_ref() {
        // A fixed-size block: the eight compares unroll.
        let block: &[T; 8] = block.try_into().expect("chunks_exact(8)");
        let n = leading_hits(block);
        count += n;
        if n < 8 {
            return count;
        }
    }
    count + leading_hits(blocks.remainder())
}

/// Scalar twin of the vector window count (branchless popcount loop).
#[inline]
fn count_le_scalar(window: &[Key], key: Key) -> usize {
    window.iter().map(|&x| usize::from(x <= key)).sum()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn count_le_avx2(window: &[Key], key: Key) -> usize {
    use std::arch::x86_64::*;
    let vkey = _mm256_set1_epi64x(key);
    // x <= key ⟺ !(x > key); true lanes of the compare are all-ones (-1),
    // so a running vector add counts -(lanes above key) with no per-chunk
    // mask extraction — one horizontal reduction at the very end.
    let mut acc = _mm256_setzero_si256();
    let mut chunks = window.chunks_exact(4);
    for chunk in chunks.by_ref() {
        let v = _mm256_loadu_si256(chunk.as_ptr() as *const __m256i);
        acc = _mm256_add_epi64(acc, _mm256_cmpgt_epi64(v, vkey));
    }
    // Reduced in registers: a store and four scalar loads would stall on
    // store forwarding for longer than the compares above took.
    let halves = _mm_add_epi64(
        _mm256_castsi256_si128(acc),
        _mm256_extracti128_si256::<1>(acc),
    );
    let sum = _mm_add_epi64(halves, _mm_unpackhi_epi64(halves, halves));
    let gt = (-_mm_cvtsi128_si64(sum)) as usize;
    (window.len() - chunks.remainder().len() - gt) + count_le_scalar(chunks.remainder(), key)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn count_le_sse2(window: &[Key], key: Key) -> usize {
    use std::arch::x86_64::*;
    let vkey = _mm_set1_epi64x(key);
    // SSE2 has no 64-bit signed compare; select the deciding sign bit:
    // when the signs of x and key differ, x > key iff key is negative;
    // when they agree, key - x cannot overflow and its sign decides.
    // Shift that sign down to bit 0 and accumulate — one horizontal sum at
    // the end instead of a mask extraction per chunk.
    let mut acc = _mm_setzero_si128();
    let mut chunks = window.chunks_exact(2);
    for chunk in chunks.by_ref() {
        let v = _mm_loadu_si128(chunk.as_ptr() as *const __m128i);
        let sub = _mm_sub_epi64(vkey, v);
        let flip = _mm_xor_si128(v, vkey);
        let gt = _mm_or_si128(_mm_and_si128(flip, vkey), _mm_andnot_si128(flip, sub));
        acc = _mm_add_epi64(acc, _mm_srli_epi64::<63>(gt));
    }
    let sum = _mm_add_epi64(acc, _mm_unpackhi_epi64(acc, acc));
    let gt = _mm_cvtsi128_si64(sum) as usize;
    (window.len() - chunks.remainder().len() - gt) + count_le_scalar(chunks.remainder(), key)
}

#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn count_le_neon(window: &[Key], key: Key) -> usize {
    use std::arch::aarch64::*;
    let vkey = vdupq_n_s64(key);
    let mut acc = vdupq_n_s64(0);
    let mut chunks = window.chunks_exact(2);
    for chunk in chunks.by_ref() {
        let v = vld1q_s64(chunk.as_ptr());
        // x <= key ⟺ key >= x; true lanes are all-ones (-1), so subtracting
        // the mask accumulates one per hit.
        let le = vreinterpretq_s64_u64(vcgeq_s64(vkey, v));
        acc = vsubq_s64(acc, le);
    }
    let count = (vgetq_lane_s64(acc, 0) + vgetq_lane_s64(acc, 1)) as usize;
    count + count_le_scalar(chunks.remainder(), key)
}

// ---------------------------------------------------------------------
// Run copy
// ---------------------------------------------------------------------

/// Appends `src` to `dst` through wide vector loads/stores (the bulk-copy
/// half of the cross-shard block merge). Bit-identical to
/// `dst.extend_from_slice(src)`.
#[inline]
pub fn append_run(dst: &mut Vec<i64>, src: &[i64]) {
    match active_variant() {
        #[cfg(target_arch = "x86_64")]
        Variant::Avx2 => {
            dst.reserve(src.len());
            let len = dst.len();
            // SAFETY: reserved above; AVX2 verified by the active variant.
            unsafe {
                append_run_avx2(dst.as_mut_ptr().add(len), src);
                dst.set_len(len + src.len());
            }
        }
        _ => dst.extend_from_slice(src),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn append_run_avx2(mut dst: *mut i64, src: &[i64]) {
    use std::arch::x86_64::*;
    let mut chunks = src.chunks_exact(4);
    for chunk in chunks.by_ref() {
        let v = _mm256_loadu_si256(chunk.as_ptr() as *const __m256i);
        _mm256_storeu_si256(dst as *mut __m256i, v);
        dst = dst.add(4);
    }
    for (i, &x) in chunks.remainder().iter().enumerate() {
        *dst.add(i) = x;
    }
}

// ---------------------------------------------------------------------
// Run sum
// ---------------------------------------------------------------------

/// Elements summed between two reductions of the vector accumulators: each
/// 64-bit lane adds one 32-bit half per element it sees, so it cannot wrap
/// before 2^32 elements.
const SUM_BLOCK: usize = 1 << 30;

/// Exact sum of a run as `i128` — identical to
/// `run.iter().map(|&x| x as i128).sum()`, without that loop's per-element
/// add/adc carry chain (the fold of every ordered scan).
///
/// The vector arms bias each element to unsigned (flip the sign bit) and
/// accumulate its low and high 32-bit halves in separate 64-bit lanes; the
/// halves are recombined and the bias removed once per run.
#[inline]
pub fn sum_run(run: &[i64]) -> i128 {
    sum_run_dispatch(active_variant(), run)
}

/// [`sum_run`] pinned to an explicit variant (bench/test hook).
///
/// # Panics
/// Panics when `variant` is not [`Variant::supported`] on this CPU.
pub fn sum_run_with(variant: Variant, run: &[i64]) -> i128 {
    assert!(variant.supported(), "{variant:?} not supported on this CPU");
    sum_run_dispatch(variant, run)
}

/// [`sum_run`] with `variant`, which the caller vouches for (see
/// [`count_le_dispatch`]).
#[inline]
fn sum_run_dispatch(variant: Variant, run: &[i64]) -> i128 {
    let mut total = 0i128;
    for block in run.chunks(SUM_BLOCK) {
        let (lo, hi, rest) = match variant {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the caller vouches that the CPU has AVX2.
            Variant::Avx2 => unsafe { sum_halves_avx2(block) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: SSE2 is part of the x86_64 baseline.
            Variant::Sse2 => unsafe { sum_halves_sse2(block) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is part of the aarch64 baseline.
            Variant::Neon => unsafe { sum_halves_neon(block) },
            _ => (0, 0, block),
        };
        // `lo`/`hi` are the half sums of the biased elements `x + 2^63`.
        let vectorised = (block.len() - rest.len()) as i128;
        total += ((hi as i128) << 32) + lo as i128 - (vectorised << 63);
        total += rest.iter().map(|&x| x as i128).sum::<i128>();
    }
    total
}

/// Sums of the low and high 32-bit halves of `x ^ i64::MIN` over the whole
/// vectors of `block` (at most [`SUM_BLOCK`] elements), and the scalar tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sum_halves_avx2(block: &[i64]) -> (u64, u64, &[i64]) {
    use std::arch::x86_64::*;
    let sign = _mm256_set1_epi64x(i64::MIN);
    let low_half = _mm256_set1_epi64x(0xFFFF_FFFF);
    let mut lo = _mm256_setzero_si256();
    let mut hi = _mm256_setzero_si256();
    let mut chunks = block.chunks_exact(4);
    for chunk in chunks.by_ref() {
        let v = _mm256_loadu_si256(chunk.as_ptr() as *const __m256i);
        lo = _mm256_add_epi64(lo, _mm256_and_si256(v, low_half));
        hi = _mm256_add_epi64(hi, _mm256_srli_epi64::<32>(_mm256_xor_si256(v, sign)));
    }
    let mut lanes = [0u64; 8];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, lo);
    _mm256_storeu_si256(lanes.as_mut_ptr().add(4) as *mut __m256i, hi);
    // A lane holds at most 2^30 / 4 halves below 2^32: the sums fit.
    (
        lanes[..4].iter().sum(),
        lanes[4..].iter().sum(),
        chunks.remainder(),
    )
}

/// SSE2 twin of [`sum_halves_avx2`], two elements per step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn sum_halves_sse2(block: &[i64]) -> (u64, u64, &[i64]) {
    use std::arch::x86_64::*;
    let sign = _mm_set1_epi64x(i64::MIN);
    let low_half = _mm_set1_epi64x(0xFFFF_FFFF);
    let mut lo = _mm_setzero_si128();
    let mut hi = _mm_setzero_si128();
    let mut chunks = block.chunks_exact(2);
    for chunk in chunks.by_ref() {
        let v = _mm_loadu_si128(chunk.as_ptr() as *const __m128i);
        lo = _mm_add_epi64(lo, _mm_and_si128(v, low_half));
        hi = _mm_add_epi64(hi, _mm_srli_epi64::<32>(_mm_xor_si128(v, sign)));
    }
    let mut lanes = [0u64; 4];
    _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, lo);
    _mm_storeu_si128(lanes.as_mut_ptr().add(2) as *mut __m128i, hi);
    (lanes[0] + lanes[1], lanes[2] + lanes[3], chunks.remainder())
}

/// NEON twin of [`sum_halves_avx2`], two elements per step.
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn sum_halves_neon(block: &[i64]) -> (u64, u64, &[i64]) {
    use std::arch::aarch64::*;
    let sign = vdupq_n_u64(1 << 63);
    let low_half = vdupq_n_u64(0xFFFF_FFFF);
    let mut lo = vdupq_n_u64(0);
    let mut hi = vdupq_n_u64(0);
    let mut chunks = block.chunks_exact(2);
    for chunk in chunks.by_ref() {
        let v = vreinterpretq_u64_s64(vld1q_s64(chunk.as_ptr()));
        lo = vaddq_u64(lo, vandq_u64(v, low_half));
        hi = vaddq_u64(hi, vshrq_n_u64::<32>(veorq_u64(v, sign)));
    }
    (
        vgetq_lane_u64(lo, 0) + vgetq_lane_u64(lo, 1),
        vgetq_lane_u64(hi, 0) + vgetq_lane_u64(hi, 1),
        chunks.remainder(),
    )
}

// ---------------------------------------------------------------------
// Narrow runs: `u32` offsets from a base key
// ---------------------------------------------------------------------
//
// A chunk whose keys span less than 2^32 stores them as `u32` offsets from
// a per-slab base (`pma-core`'s chunk, *narrow* layout). These are the
// `u32` twins of the kernels above: the counts and the search compare
// offsets unsigned, 8 per AVX2 compare (4 per SSE2 one); `sum_run_u32`
// is the exact offset sum a scan folds; `decode_run` / `append_decoded`
// widen offsets back into keys. NEON routes to the scalar arm.

/// Number of offsets `<= key` in the sorted run — identical to
/// `run.partition_point(|&x| x <= key)`.
#[inline]
pub fn count_le_u32(run: &[u32], key: u32) -> usize {
    if run.len() <= SHORT_RUN {
        count_le_inline(run, |&x| x <= key)
    } else {
        count_le_u32_dispatch(active_variant(), run, key)
    }
}

/// Number of offsets `< key` in the sorted run — identical to
/// `run.partition_point(|&x| x < key)`.
#[inline]
pub fn count_lt_u32(run: &[u32], key: u32) -> usize {
    match key.checked_sub(1) {
        Some(pred) => count_le_u32(run, pred),
        None => 0,
    }
}

/// [`search`] over a sorted run of offsets.
#[inline]
pub fn search_u32(run: &[u32], key: u32) -> Result<usize, usize> {
    let pos = count_lt_u32(run, key);
    if pos < run.len() && run[pos] == key {
        Ok(pos)
    } else {
        Err(pos)
    }
}

/// [`count_le_u32`] pinned to an explicit variant (bench/test hook).
///
/// # Panics
/// Panics when `variant` is not [`Variant::supported`] on this CPU.
pub fn count_le_u32_with(variant: Variant, run: &[u32], key: u32) -> usize {
    assert!(variant.supported(), "{variant:?} not supported on this CPU");
    count_le_u32_dispatch(variant, run, key)
}

/// [`count_le_dispatch`] over offsets: a branchless binary search narrows
/// long runs to [`SMALL_RUN`] elements, the vector arm counts the window.
#[inline]
fn count_le_u32_dispatch(variant: Variant, run: &[u32], key: u32) -> usize {
    let mut lo = 0usize;
    let mut hi = run.len();
    while hi - lo > SMALL_RUN {
        let mid = lo + (hi - lo) / 2;
        let le = run[mid] <= key;
        lo = if le { mid + 1 } else { lo };
        hi = if le { hi } else { mid };
    }
    let window = &run[lo..hi];
    lo + match variant {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the caller vouches that the CPU has AVX2.
        Variant::Avx2 => unsafe { count_le_u32_avx2(window, key) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline.
        Variant::Sse2 => unsafe { count_le_u32_sse2(window, key) },
        _ => count_le_u32_scalar(window, key),
    }
}

/// Scalar twin of the vector window count over offsets.
#[inline]
fn count_le_u32_scalar(window: &[u32], key: u32) -> usize {
    window.iter().map(|&x| usize::from(x <= key)).sum()
}

/// x86 has only a signed 32-bit compare: flipping the sign bit of both
/// sides maps unsigned order onto signed order (`0 → i32::MIN`,
/// `u32::MAX → i32::MAX`). True lanes are -1, so a running add counts
/// `-(offsets above key)` per lane; a window of at most [`SMALL_RUN`]
/// offsets cannot wrap a lane.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn count_le_u32_avx2(window: &[u32], key: u32) -> usize {
    use std::arch::x86_64::*;
    let flip = _mm256_set1_epi32(i32::MIN);
    let vkey = _mm256_set1_epi32((key ^ 0x8000_0000) as i32);
    let mut acc = _mm256_setzero_si256();
    let mut chunks = window.chunks_exact(8);
    for chunk in chunks.by_ref() {
        let v = _mm256_loadu_si256(chunk.as_ptr() as *const __m256i);
        acc = _mm256_add_epi32(acc, _mm256_cmpgt_epi32(_mm256_xor_si256(v, flip), vkey));
    }
    let halves = _mm_add_epi32(
        _mm256_castsi256_si128(acc),
        _mm256_extracti128_si256::<1>(acc),
    );
    let gt = (-horizontal_sum_epi32(halves)) as usize;
    (window.len() - chunks.remainder().len() - gt) + count_le_u32_scalar(chunks.remainder(), key)
}

/// SSE2 twin of [`count_le_u32_avx2`], four offsets per compare.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn count_le_u32_sse2(window: &[u32], key: u32) -> usize {
    use std::arch::x86_64::*;
    let flip = _mm_set1_epi32(i32::MIN);
    let vkey = _mm_set1_epi32((key ^ 0x8000_0000) as i32);
    let mut acc = _mm_setzero_si128();
    let mut chunks = window.chunks_exact(4);
    for chunk in chunks.by_ref() {
        let v = _mm_loadu_si128(chunk.as_ptr() as *const __m128i);
        acc = _mm_add_epi32(acc, _mm_cmpgt_epi32(_mm_xor_si128(v, flip), vkey));
    }
    let gt = (-horizontal_sum_epi32(acc)) as usize;
    (window.len() - chunks.remainder().len() - gt) + count_le_u32_scalar(chunks.remainder(), key)
}

/// Sum of the four 32-bit lanes of `v`, reduced in registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn horizontal_sum_epi32(v: std::arch::x86_64::__m128i) -> i32 {
    use std::arch::x86_64::*;
    let pairs = _mm_add_epi32(v, _mm_shuffle_epi32::<0b01_00_11_10>(v));
    _mm_cvtsi128_si32(_mm_add_epi32(
        pairs,
        _mm_shuffle_epi32::<0b10_11_00_01>(pairs),
    ))
}

/// Exact sum of a run of offsets — identical to
/// `run.iter().map(|&x| x as u128).sum()`. The vector arms add the even
/// and the odd offsets of each vector into 64-bit lanes, reduced every 2^30
/// offsets, long before a lane could wrap.
#[inline]
pub fn sum_run_u32(run: &[u32]) -> u128 {
    sum_run_u32_dispatch(active_variant(), run)
}

/// [`sum_run_u32`] pinned to an explicit variant (bench/test hook).
///
/// # Panics
/// Panics when `variant` is not [`Variant::supported`] on this CPU.
pub fn sum_run_u32_with(variant: Variant, run: &[u32]) -> u128 {
    assert!(variant.supported(), "{variant:?} not supported on this CPU");
    sum_run_u32_dispatch(variant, run)
}

#[inline]
fn sum_run_u32_dispatch(variant: Variant, run: &[u32]) -> u128 {
    let mut total = 0u128;
    for block in run.chunks(SUM_BLOCK) {
        let (sum, rest) = match variant {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the caller vouches that the CPU has AVX2.
            Variant::Avx2 => unsafe { sum_u32_avx2(block) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: SSE2 is part of the x86_64 baseline.
            Variant::Sse2 => unsafe { sum_u32_sse2(block) },
            _ => (0, block),
        };
        total += sum as u128 + rest.iter().map(|&x| x as u64).sum::<u64>() as u128;
    }
    total
}

/// Sum of the whole vectors of `block` (at most [`SUM_BLOCK`] offsets), and
/// the scalar tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sum_u32_avx2(block: &[u32]) -> (u64, &[u32]) {
    use std::arch::x86_64::*;
    let low_half = _mm256_set1_epi64x(0xFFFF_FFFF);
    let mut acc = _mm256_setzero_si256();
    let mut chunks = block.chunks_exact(8);
    for chunk in chunks.by_ref() {
        let v = _mm256_loadu_si256(chunk.as_ptr() as *const __m256i);
        acc = _mm256_add_epi64(acc, _mm256_and_si256(v, low_half));
        acc = _mm256_add_epi64(acc, _mm256_srli_epi64::<32>(v));
    }
    let halves = _mm_add_epi64(
        _mm256_castsi256_si128(acc),
        _mm256_extracti128_si256::<1>(acc),
    );
    let sum = _mm_add_epi64(halves, _mm_unpackhi_epi64(halves, halves));
    (_mm_cvtsi128_si64(sum) as u64, chunks.remainder())
}

/// SSE2 twin of [`sum_u32_avx2`], four offsets per step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn sum_u32_sse2(block: &[u32]) -> (u64, &[u32]) {
    use std::arch::x86_64::*;
    let low_half = _mm_set1_epi64x(0xFFFF_FFFF);
    let mut acc = _mm_setzero_si128();
    let mut chunks = block.chunks_exact(4);
    for chunk in chunks.by_ref() {
        let v = _mm_loadu_si128(chunk.as_ptr() as *const __m128i);
        acc = _mm_add_epi64(acc, _mm_and_si128(v, low_half));
        acc = _mm_add_epi64(acc, _mm_srli_epi64::<32>(v));
    }
    let sum = _mm_add_epi64(acc, _mm_unpackhi_epi64(acc, acc));
    (_mm_cvtsi128_si64(sum) as u64, chunks.remainder())
}

/// Widens offsets into keys: `dst[i] = base + src[i]` (wrapping, as the
/// vector adds do; a chunk's window never wraps).
///
/// # Panics
/// Panics when the lengths differ.
#[inline]
pub fn decode_run(dst: &mut [Key], base: Key, src: &[u32]) {
    decode_run_with_unchecked(active_variant(), dst, base, src);
}

/// [`decode_run`] pinned to an explicit variant (bench/test hook).
///
/// # Panics
/// Panics when `variant` is not [`Variant::supported`] on this CPU, or the
/// lengths differ.
pub fn decode_run_with(variant: Variant, dst: &mut [Key], base: Key, src: &[u32]) {
    assert!(variant.supported(), "{variant:?} not supported on this CPU");
    decode_run_with_unchecked(variant, dst, base, src);
}

#[inline]
fn decode_run_with_unchecked(variant: Variant, dst: &mut [Key], base: Key, src: &[u32]) {
    assert_eq!(dst.len(), src.len(), "decode_run: lengths differ");
    // SAFETY: `dst` has room for `src.len()` keys (checked above); the
    // caller vouches for the variant.
    unsafe { decode_raw(variant, dst.as_mut_ptr(), base, src) }
}

/// Appends the keys of `src` (offsets from `base`) to `dst` — the narrow
/// twin of [`append_run`], bit-identical to
/// `dst.extend(src.iter().map(|&x| base.wrapping_add(x as i64)))`.
#[inline]
pub fn append_decoded(dst: &mut Vec<Key>, base: Key, src: &[u32]) {
    dst.reserve(src.len());
    let len = dst.len();
    // SAFETY: reserved above; the active variant is supported.
    unsafe {
        decode_raw(active_variant(), dst.as_mut_ptr().add(len), base, src);
        dst.set_len(len + src.len());
    }
}

/// Writes `base + src[i]` to `dst.add(i)` for every `i`.
///
/// # Safety
/// `dst` must be valid for `src.len()` writes, and `variant` supported.
#[inline]
unsafe fn decode_raw(variant: Variant, dst: *mut Key, base: Key, src: &[u32]) {
    match variant {
        #[cfg(target_arch = "x86_64")]
        Variant::Avx2 => decode_avx2(dst, base, src),
        #[cfg(target_arch = "x86_64")]
        Variant::Sse2 => decode_sse2(dst, base, src),
        _ => decode_scalar(dst, base, src),
    }
}

#[inline]
unsafe fn decode_scalar(dst: *mut Key, base: Key, src: &[u32]) {
    for (i, &x) in src.iter().enumerate() {
        *dst.add(i) = base.wrapping_add(x as i64);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn decode_avx2(mut dst: *mut Key, base: Key, src: &[u32]) {
    use std::arch::x86_64::*;
    let vbase = _mm256_set1_epi64x(base);
    let mut chunks = src.chunks_exact(4);
    for chunk in chunks.by_ref() {
        let v = _mm_loadu_si128(chunk.as_ptr() as *const __m128i);
        let keys = _mm256_add_epi64(_mm256_cvtepu32_epi64(v), vbase);
        _mm256_storeu_si256(dst as *mut __m256i, keys);
        dst = dst.add(4);
    }
    decode_scalar(dst, base, chunks.remainder());
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn decode_sse2(mut dst: *mut Key, base: Key, src: &[u32]) {
    use std::arch::x86_64::*;
    let vbase = _mm_set1_epi64x(base);
    let zero = _mm_setzero_si128();
    let mut chunks = src.chunks_exact(4);
    for chunk in chunks.by_ref() {
        let v = _mm_loadu_si128(chunk.as_ptr() as *const __m128i);
        let low = _mm_add_epi64(_mm_unpacklo_epi32(v, zero), vbase);
        let high = _mm_add_epi64(_mm_unpackhi_epi32(v, zero), vbase);
        _mm_storeu_si128(dst as *mut __m128i, low);
        _mm_storeu_si128(dst.add(2) as *mut __m128i, high);
        dst = dst.add(4);
    }
    decode_scalar(dst, base, chunks.remainder());
}

// ---------------------------------------------------------------------
// Prefetch
// ---------------------------------------------------------------------

/// Software-prefetches the cache line holding `ptr` for reading. A hint
/// only — no-op on targets without a stable prefetch intrinsic.
#[inline(always)]
pub fn prefetch_read(ptr: *const Key) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it cannot fault even on dangling input.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(ptr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

// ---------------------------------------------------------------------
// Atomic separator scan (static index)
// ---------------------------------------------------------------------

/// [`count_le`] over a run of atomically-updated separators, counted
/// straight from the atomics with `Relaxed` loads (racing separator updates
/// stay well-defined — the caller's protocol tolerates stale values): eight
/// compares per eight-entry block, no staging buffer and no kernel call,
/// whatever the length (an index node is `fanout` entries). Identical to
/// `partition_point(x <= key)` on a sorted run; on a run a racing update has
/// left momentarily unsorted, the length of its leading run of hits.
#[inline]
pub fn count_le_atomic(entries: &[AtomicI64], key: Key) -> usize {
    count_le_inline(entries, |entry| entry.load(Ordering::Relaxed) <= key)
}

// ---------------------------------------------------------------------
// Cache-line-aligned key layouts
// ---------------------------------------------------------------------

/// One cache line of keys.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct KeyLine([Key; 8]);

/// A flat, 64-byte-aligned, immutable sorted key array — the layout the
/// routing kernels ([`route`]) are fed with so a probe touches the fewest
/// possible cache lines and vector loads never split a line.
pub struct AlignedKeys {
    lines: Box<[KeyLine]>,
    len: usize,
}

impl AlignedKeys {
    /// Copies `keys` into an aligned buffer (tail padding stays unread:
    /// every kernel respects `len`).
    pub fn from_slice(keys: &[Key]) -> Self {
        let mut lines = vec![KeyLine([0; 8]); keys.len().div_ceil(8)].into_boxed_slice();
        for (i, &k) in keys.iter().enumerate() {
            lines[i / 8].0[i % 8] = k;
        }
        Self {
            lines,
            len: keys.len(),
        }
    }

    /// The keys as a contiguous slice.
    #[inline]
    pub fn as_slice(&self) -> &[Key] {
        // SAFETY: `KeyLine` is `repr(C)`, so a boxed slice of lines is one
        // contiguous array of keys; `len <= lines.len() * 8` by construction.
        unsafe { std::slice::from_raw_parts(self.lines.as_ptr() as *const Key, self.len) }
    }

    /// Number of keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the array is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Deref for AlignedKeys {
    type Target = [Key];
    #[inline]
    fn deref(&self) -> &[Key] {
        self.as_slice()
    }
}

impl std::fmt::Debug for AlignedKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedKeys")
            .field("len", &self.len)
            .finish()
    }
}

/// One cache line of atomically-updated separators.
#[repr(C, align(64))]
struct AtomicLine([AtomicI64; 8]);

/// A flat, 64-byte-aligned array of atomic separators — the storage of one
/// static-index level. Values mutate (`Relaxed`/`Release` stores under the
/// owning gate's latch); the shape is immutable.
pub struct AlignedAtomicKeys {
    lines: Box<[AtomicLine]>,
    len: usize,
}

impl AlignedAtomicKeys {
    /// Builds an aligned level from its initial separator values.
    pub fn from_slice(keys: &[Key]) -> Self {
        let lines = (0..keys.len().div_ceil(8))
            .map(|line| {
                AtomicLine(std::array::from_fn(|lane| {
                    AtomicI64::new(keys.get(line * 8 + lane).copied().unwrap_or(0))
                }))
            })
            .collect();
        Self {
            lines,
            len: keys.len(),
        }
    }

    /// The separators as a contiguous slice of atomics.
    #[inline]
    pub fn as_slice(&self) -> &[AtomicI64] {
        // SAFETY: `AtomicLine` is `repr(C)`, so a boxed slice of lines is
        // one contiguous array; `len <= lines.len() * 8` by construction.
        unsafe { std::slice::from_raw_parts(self.lines.as_ptr() as *const AtomicI64, self.len) }
    }

    /// Number of separators.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the level is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Deref for AlignedAtomicKeys {
    type Target = [AtomicI64];
    #[inline]
    fn deref(&self) -> &[AtomicI64] {
        self.as_slice()
    }
}

// ---------------------------------------------------------------------
// Byte-key fence routing
// ---------------------------------------------------------------------

/// Routing directory over sorted variable-length byte fences: the byte-key
/// variant of [`route`].
///
/// The trick is that lexicographic byte order can be *approximated* by a
/// fixed-stride integer comparison: each fence's first eight bytes
/// (zero-padded, big-endian — [`crate::types::key_head`]) are packed into the
/// signed separator domain and probed with the existing SIMD [`route`]
/// kernel. Because the head is a monotone weakening of byte order, the
/// vector probe lands either on the right fence or inside the run of fences
/// sharing the probe key's head; a short scalar walk comparing full byte
/// slices breaks those ties. The fast path therefore inherits the dispatch
/// machinery unchanged — including the `PMA_FORCE_SCALAR` escape hatch.
///
/// ```
/// use pma_common::simd::ByteFences;
///
/// let fences = ByteFences::from_keys(&[&b""[..], b"g", b"user:", b"user:5"]);
/// assert_eq!(fences.route(b"apple"), 0);
/// assert_eq!(fences.route(b"user:"), 2);  // exact fence hit
/// assert_eq!(fences.route(b"user:4999"), 2);
/// assert_eq!(fences.route(b"user:7"), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ByteFences {
    /// First-8-byte heads mapped into the signed separator domain, one per
    /// fence, in fence order (ties between fences share a head).
    heads: Vec<Key>,
    /// The full fence keys, for tie-breaking and introspection.
    fences: Vec<Box<[u8]>>,
}

impl ByteFences {
    /// Builds a directory from sorted (ascending, duplicate-free) fences.
    /// The first fence acts as `-inf`: keys below it still route to slot 0.
    ///
    /// # Panics
    /// Panics when `fences` is not strictly ascending.
    pub fn from_keys<K: AsRef<[u8]>>(fences: &[K]) -> Self {
        let fences: Vec<Box<[u8]>> = fences.iter().map(|f| f.as_ref().into()).collect();
        assert!(
            fences.windows(2).all(|w| w[0] < w[1]),
            "byte fences must be strictly ascending"
        );
        let heads = fences
            .iter()
            .map(|f| crate::types::head_separator(crate::types::key_head(f)))
            .collect();
        Self { heads, fences }
    }

    /// Number of fences (= routable slots).
    pub fn len(&self) -> usize {
        self.fences.len()
    }

    /// True when no fences are installed.
    pub fn is_empty(&self) -> bool {
        self.fences.is_empty()
    }

    /// The full byte fence at `slot`.
    pub fn fence(&self, slot: usize) -> &[u8] {
        &self.fences[slot]
    }

    /// Index of the last fence `<= key`, or 0 when every fence is greater
    /// (the first fence acts as `-inf`) — identical semantics to [`route`].
    ///
    /// # Panics
    /// Panics when the directory is empty.
    pub fn route(&self, key: &[u8]) -> usize {
        assert!(!self.fences.is_empty(), "routing over an empty directory");
        let head = crate::types::head_separator(crate::types::key_head(key));
        // Fences past this point have a strictly greater head, hence are
        // strictly greater byte strings — never candidates.
        let mut candidates = count_le(&self.heads, head);
        // Inside the equal-head run the integer probe is blind; compare the
        // full byte slices. The walk is bounded by the number of fences
        // sharing the key's first eight bytes.
        while candidates > 0
            && self.heads[candidates - 1] == head
            && *self.fences[candidates - 1] > *key
        {
            candidates -= 1;
        }
        candidates.saturating_sub(1)
    }

    /// Bytes of heap owned by the directory (for memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.heads.capacity() * std::mem::size_of::<Key>()
            + self.fences.capacity() * std::mem::size_of::<Box<[u8]>>()
            + self.fences.iter().map(|f| f.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_count_le(run: &[Key], key: Key) -> usize {
        run.partition_point(|&x| x <= key)
    }

    fn sorted_runs() -> Vec<Vec<Key>> {
        vec![
            vec![],
            vec![0],
            vec![i64::MIN, i64::MIN, -1, 0, 0, 1, i64::MAX, i64::MAX],
            (0..100).map(|i| i * 3).collect(),
            (0..1000)
                .map(|i| (i % 7) * (i / 7))
                .collect::<Vec<_>>()
                .tap_sort(),
            vec![5; 129],
        ]
    }

    trait TapSort {
        fn tap_sort(self) -> Self;
    }
    impl TapSort for Vec<Key> {
        fn tap_sort(mut self) -> Self {
            self.sort_unstable();
            self
        }
    }

    #[test]
    fn every_supported_variant_matches_partition_point() {
        for variant in [Variant::Avx2, Variant::Sse2, Variant::Neon, Variant::Scalar] {
            if !variant.supported() {
                continue;
            }
            for run in sorted_runs() {
                for key in [i64::MIN, -1, 0, 1, 5, 14, 15, 16, 99, 297, 300, i64::MAX] {
                    assert_eq!(
                        count_le_with(variant, &run, key),
                        reference_count_le(&run, key),
                        "{variant:?} len={} key={key}",
                        run.len()
                    );
                }
            }
        }
    }

    #[test]
    fn search_matches_binary_search_semantics() {
        let run: Vec<Key> = (0..50).map(|i| i * 2).collect();
        for key in -2..102 {
            match search(&run, key) {
                Ok(pos) => assert_eq!(run[pos], key),
                Err(pos) => {
                    assert!(pos == run.len() || run[pos] > key);
                    assert!(pos == 0 || run[pos - 1] < key);
                }
            }
        }
    }

    #[test]
    fn route_picks_last_covering_separator() {
        let seps: Vec<Key> = vec![i64::MIN, 10, 20, 30];
        assert_eq!(route(&seps, i64::MIN), 0);
        assert_eq!(route(&seps, 9), 0);
        assert_eq!(route(&seps, 10), 1);
        assert_eq!(route(&seps, 29), 2);
        assert_eq!(route(&seps, i64::MAX), 3);
        assert_eq!(route(&[], 7), 0, "empty separator array routes to 0");
    }

    #[test]
    fn append_run_matches_extend_from_slice() {
        for n in [0usize, 1, 3, 4, 5, 64, 127] {
            let src: Vec<i64> = (0..n as i64).map(|i| i * 7 - 3).collect();
            let mut dst = vec![-1i64, -2];
            append_run(&mut dst, &src);
            let mut expect = vec![-1i64, -2];
            expect.extend_from_slice(&src);
            assert_eq!(dst, expect, "n={n}");
        }
    }

    #[test]
    fn atomic_count_matches_plain_count() {
        let keys: Vec<Key> = (0..37).map(|i| i * 5).collect();
        let level = AlignedAtomicKeys::from_slice(&keys);
        for key in [-1, 0, 4, 5, 90, 179, 180, 1000] {
            assert_eq!(
                count_le_atomic(level.as_slice(), key),
                reference_count_le(&keys, key),
                "key={key}"
            );
        }
        assert_eq!(level.len(), 37);
        assert!(!level.is_empty());
    }

    #[test]
    fn aligned_keys_roundtrip_and_alignment() {
        for n in [0usize, 1, 7, 8, 9, 40] {
            let keys: Vec<Key> = (0..n as i64).collect();
            let aligned = AlignedKeys::from_slice(&keys);
            assert_eq!(aligned.as_slice(), keys.as_slice());
            assert_eq!(aligned.len(), n);
            assert_eq!(aligned.is_empty(), n == 0);
            if n > 0 {
                assert_eq!(aligned.as_slice().as_ptr() as usize % 64, 0);
            }
        }
    }

    #[test]
    fn active_variant_is_stable_and_named() {
        let v = active_variant();
        assert_eq!(v, active_variant());
        assert!(["avx2", "sse2", "neon", "scalar"].contains(&kernel_variant()));
        assert!(v.supported());
    }

    fn reference_byte_route(fences: &[Box<[u8]>], key: &[u8]) -> usize {
        fences
            .partition_point(|f| f.as_ref() <= key)
            .saturating_sub(1)
    }

    #[test]
    fn byte_route_matches_reference_on_shared_head_fences() {
        // Fences deliberately heavy on shared 8-byte heads so the vector
        // probe must fall back to the scalar tie-break.
        let fences: Vec<&[u8]> = vec![
            b"",
            b"aaaaaaaa",
            b"aaaaaaaa\x00",
            b"aaaaaaaa\x00\x01",
            b"aaaaaaaab",
            b"aaaaaaaac",
            b"b",
            b"user:0000",
            b"user:0001",
            b"user:00010",
            b"zzzzzzzzzzzz",
        ];
        let dir = ByteFences::from_keys(&fences);
        let boxed: Vec<Box<[u8]>> = fences.iter().map(|f| (*f).into()).collect();
        let probes: Vec<Vec<u8>> = fences
            .iter()
            .flat_map(|f| {
                let f = f.to_vec();
                let mut below = f.clone();
                below.pop();
                let mut above = f.clone();
                above.push(0);
                [below, f, above]
            })
            .collect();
        for probe in &probes {
            assert_eq!(
                dir.route(probe),
                reference_byte_route(&boxed, probe),
                "probe {probe:?}"
            );
        }
    }

    #[test]
    fn byte_route_handles_short_and_empty_keys() {
        let dir = ByteFences::from_keys(&[&b""[..], &[0x01], &[0x01, 0x00], &[0x02]]);
        assert_eq!(dir.route(b""), 0);
        assert_eq!(dir.route(&[0x00]), 0);
        assert_eq!(dir.route(&[0x01]), 1);
        assert_eq!(dir.route(&[0x01, 0x00]), 2);
        assert_eq!(dir.route(&[0x01, 0x00, 0x00]), 2);
        assert_eq!(dir.route(&[0xFF; 16]), 3);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn byte_fences_reject_unsorted_input() {
        let _ = ByteFences::from_keys(&[&b"b"[..], b"a"]);
    }
}
