//! Key and value types.
//!
//! The paper's evaluation stores 8-byte key / 8-byte value integer pairs; the
//! concurrent data structures in this workspace use these concrete aliases so
//! that the shared-mutation storage of the PMA can be kept simple and its
//! safety argument auditable.

/// The key type used by the concurrent data structures (8-byte signed integer).
pub type Key = i64;

/// The value type used by the concurrent data structures (8-byte signed integer).
pub type Value = i64;

/// Smallest representable key, used as the `-inf` fence key of the first gate.
pub const KEY_MIN: Key = Key::MIN;

/// Largest representable key, used as the `+inf` fence key of the last gate.
pub const KEY_MAX: Key = Key::MAX;

/// A key/value pair, the element stored by every structure in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct KeyValue {
    /// The ordering key.
    pub key: Key,
    /// The payload associated with `key`.
    pub value: Value,
}

impl KeyValue {
    /// Creates a new key/value pair.
    #[inline]
    pub const fn new(key: Key, value: Value) -> Self {
        Self { key, value }
    }
}

impl From<(Key, Value)> for KeyValue {
    #[inline]
    fn from((key, value): (Key, Value)) -> Self {
        Self { key, value }
    }
}

impl From<KeyValue> for (Key, Value) {
    #[inline]
    fn from(kv: KeyValue) -> Self {
        (kv.key, kv.value)
    }
}

/// An ordering key with an order-preserving byte encoding.
///
/// The single law every implementation must uphold is that the native order
/// and the lexicographic order of the encodings agree:
///
/// ```text
/// a.cmp(&b) == a.to_bytes().as_slice().cmp(b.to_bytes().as_slice())
/// ```
///
/// This is what lets the byte-keyed structures (`ConcurrentByteMap`
/// implementations) store *any* `ByteKey` as a plain sorted byte slice and
/// route on raw byte prefixes: integers, strings, and composite keys all end
/// up in one comparison domain.
///
/// The `u64` impl is zero cost: the big-endian encoding of an unsigned
/// integer is already order preserving, so `to_bytes` is a single
/// `to_be_bytes` and no per-key allocation is required on the borrow path
/// (`as_encoded` for `Vec<u8>` keys, the array for integers).
///
/// ```
/// use pma_common::types::ByteKey;
///
/// let a = 3_u64.to_bytes();
/// let b = 10_u64.to_bytes();
/// assert!(a < b); // big-endian keeps numeric order under byte comparison
///
/// let s = b"user:42".to_vec();
/// assert_eq!(s.as_encoded(), Some(&s[..])); // byte keys borrow for free
/// ```
pub trait ByteKey: Ord + Send + Sync + Sized {
    /// Encoded length in bytes when every key of this type encodes to the
    /// same length (`None` for variable-length keys such as `Vec<u8>`).
    const ENCODED_LEN: Option<usize>;

    /// Appends the order-preserving encoding of `self` to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Returns the encoding as an owned buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::ENCODED_LEN.unwrap_or(16));
        self.encode_into(&mut out);
        out
    }

    /// Borrows the encoding without copying, when the in-memory
    /// representation *is* the encoding (true for `Vec<u8>`, not for
    /// integers, whose encoding is materialised on the stack instead).
    fn as_encoded(&self) -> Option<&[u8]> {
        None
    }

    /// Decodes a key from its exact encoding; `None` if `bytes` is not a
    /// valid encoding of this type.
    fn from_bytes(bytes: &[u8]) -> Option<Self>;
}

impl ByteKey for u64 {
    const ENCODED_LEN: Option<usize> = Some(8);

    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }

    #[inline]
    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let arr: [u8; 8] = bytes.try_into().ok()?;
        Some(u64::from_be_bytes(arr))
    }
}

impl ByteKey for i64 {
    const ENCODED_LEN: Option<usize> = Some(8);

    // Flipping the sign bit maps i64 order onto u64 order, after which
    // big-endian bytes compare lexicographically in numeric order.
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&((*self as u64) ^ SIGN_BIT).to_be_bytes());
    }

    #[inline]
    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let arr: [u8; 8] = bytes.try_into().ok()?;
        Some((u64::from_be_bytes(arr) ^ SIGN_BIT) as i64)
    }
}

impl ByteKey for Vec<u8> {
    const ENCODED_LEN: Option<usize> = None;

    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }

    #[inline]
    fn as_encoded(&self) -> Option<&[u8]> {
        Some(self)
    }

    #[inline]
    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        Some(bytes.to_vec())
    }
}

const SIGN_BIT: u64 = 1 << 63;

/// Order-preserving fixed 8-byte encoding of a native [`Key`]
/// (sign-flipped big-endian; equivalent to `ByteKey::to_bytes` for `i64`
/// without the allocation).
#[inline]
pub fn encode_key(key: Key) -> [u8; 8] {
    ((key as u64) ^ SIGN_BIT).to_be_bytes()
}

/// Inverse of [`encode_key`].
#[inline]
pub fn decode_key(bytes: [u8; 8]) -> Key {
    (u64::from_be_bytes(bytes) ^ SIGN_BIT) as Key
}

/// First eight bytes of `key` as a big-endian integer, zero-padded on the
/// right for shorter keys.
///
/// The head is a *monotone weakening* of lexicographic order: `a <= b`
/// implies `key_head(a) <= key_head(b)`, and therefore
/// `key_head(a) < key_head(b)` implies `a < b`. Keys agreeing on their first
/// eight bytes (and short keys vs their zero-padding) collapse to the same
/// head, which is exactly the tie a full byte comparison must break — see
/// [`crate::simd::ByteFences`].
#[inline]
pub fn key_head(key: &[u8]) -> u64 {
    let mut buf = [0_u8; 8];
    let n = key.len().min(8);
    buf[..n].copy_from_slice(&key[..n]);
    u64::from_be_bytes(buf)
}

/// Maps a [`key_head`] into the signed domain of the SIMD kernels, preserving
/// unsigned order (`h1 <= h2` iff `head_separator(h1) <= head_separator(h2)`).
#[inline]
pub fn head_separator(head: u64) -> Key {
    (head ^ SIGN_BIT) as Key
}

/// Smallest byte string strictly greater than every key that starts with
/// `prefix`, or `None` when no such bound exists (empty or all-`0xFF`
/// prefixes), in which case the prefix range is unbounded above.
///
/// This is the exclusive upper bound that turns a `prefix(p)` scan into the
/// half-open range `[p, prefix_upper_bound(p))`.
///
/// ```
/// use pma_common::types::prefix_upper_bound;
///
/// assert_eq!(prefix_upper_bound(b"user:"), Some(b"user;".to_vec()));
/// assert_eq!(prefix_upper_bound(&[0x61, 0xFF]), Some(vec![0x62]));
/// assert_eq!(prefix_upper_bound(&[0xFF, 0xFF]), None);
/// assert_eq!(prefix_upper_bound(b""), None);
/// ```
pub fn prefix_upper_bound(prefix: &[u8]) -> Option<Vec<u8>> {
    let last_incrementable = prefix.iter().rposition(|&b| b != 0xFF)?;
    let mut bound = prefix[..=last_incrementable].to_vec();
    bound[last_incrementable] += 1;
    Some(bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_value_roundtrip() {
        let kv = KeyValue::new(42, -7);
        let tuple: (Key, Value) = kv.into();
        assert_eq!(tuple, (42, -7));
        assert_eq!(KeyValue::from(tuple), kv);
    }

    #[test]
    fn key_value_ordering_is_by_key_then_value() {
        let a = KeyValue::new(1, 100);
        let b = KeyValue::new(2, 0);
        let c = KeyValue::new(2, 1);
        assert!(a < b);
        assert!(b < c);
    }

    #[test]
    // The assertions are trivially true for i64 — that is exactly what the
    // test documents: the fence sentinels must bracket every representable
    // key, which would stop holding if `Key`/`KEY_MIN`/`KEY_MAX` were changed
    // to a type or values without that property.
    #[allow(clippy::absurd_extreme_comparisons)]
    fn fence_sentinels_bracket_all_keys() {
        for k in [-1_000_000_i64, 0, 1, Key::MAX - 1] {
            assert!(KEY_MIN <= k);
            assert!(k <= KEY_MAX);
        }
    }

    fn assert_order_preserving<K: ByteKey + std::fmt::Debug>(keys: &[K]) {
        for a in keys {
            for b in keys {
                assert_eq!(
                    a.cmp(b),
                    a.to_bytes().as_slice().cmp(b.to_bytes().as_slice()),
                    "encoding of {a:?} vs {b:?} must preserve order"
                );
            }
            if let Some(len) = K::ENCODED_LEN {
                assert_eq!(a.to_bytes().len(), len);
            }
            assert_eq!(K::from_bytes(&a.to_bytes()).as_ref(), Some(a));
        }
    }

    #[test]
    fn u64_encoding_preserves_order() {
        assert_order_preserving(&[0_u64, 1, 2, 255, 256, 1 << 20, u64::MAX - 1, u64::MAX]);
    }

    #[test]
    fn i64_encoding_preserves_order() {
        assert_order_preserving(&[i64::MIN, -1 << 40, -256, -1, 0, 1, 255, 1 << 40, i64::MAX]);
    }

    #[test]
    fn byte_key_encoding_is_identity() {
        let keys: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![0, 0],
            b"user:1".to_vec(),
            b"user:10".to_vec(),
            vec![0xFF],
        ];
        assert_order_preserving(&keys);
        assert_eq!(keys[3].as_encoded(), Some(&b"user:1"[..]));
    }

    #[test]
    fn key_head_is_monotone() {
        let keys: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![1],
            vec![1, 0],
            vec![1, 0, 5],
            vec![1, 255],
            vec![2],
            b"user:4".to_vec(),
            b"user:42-and-then-some".to_vec(),
            b"user:43".to_vec(),
            vec![0xFF; 12],
        ];
        for a in &keys {
            for b in &keys {
                if a <= b {
                    assert!(key_head(a) <= key_head(b), "{a:?} vs {b:?}");
                    assert!(head_separator(key_head(a)) <= head_separator(key_head(b)));
                }
            }
        }
    }

    #[test]
    fn prefix_upper_bound_brackets_exactly_the_prefix() {
        let cases: &[&[u8]] = &[b"user:", b"a", &[0x00], &[0x61, 0xFF, 0xFF]];
        for &p in cases {
            let hi = prefix_upper_bound(p).expect("incrementable prefix");
            // Every extension of p is < hi; hi itself does not start with p.
            let mut ext = p.to_vec();
            ext.push(0xFF);
            assert!(ext.as_slice() < hi.as_slice());
            assert!(p < hi.as_slice());
            assert!(!hi.starts_with(p));
        }
        assert_eq!(prefix_upper_bound(&[]), None);
        assert_eq!(prefix_upper_bound(&[0xFF]), None);
    }
}
