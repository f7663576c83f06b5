//! Deterministic URL-corpus generator.
//!
//! Variable-length keys change *which* costs dominate: with u64 keys every
//! slot is 8 bytes and layout economics reduce to fill factors, while a URL
//! corpus is long (tens of bytes), wildly shared-prefix-heavy (scheme +
//! host + path stem repeat across millions of keys) and non-uniform in
//! length. [`UrlCorpus`] produces exactly that shape, deterministically:
//!
//! * a small pool of hosts (Zipf-ish popularity via square-rank skew), so
//!   host prefixes repeat heavily;
//! * per-host path stems (`/users/`, `/posts/`, ...) shared across many
//!   keys;
//! * a numeric tail that makes every key unique.
//!
//! `examples/byte_keys.rs` loads it into the byte-keyed backends and prints
//! each structure's **bytes/key** — the column `docs/INTERNALS.md`'s
//! layout-economics table is built from.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pma_common::Value;

/// Host pool of the corpus: a handful of "big" sites plus a tail, so the
/// generated keys share long prefixes at realistic (skewed) frequencies.
const HOSTS: &[&str] = &[
    "https://example.com",
    "https://api.example.com",
    "https://cdn.example.org",
    "https://forum.rust-lang.org",
    "https://news.ycombinator.com",
    "https://en.wikipedia.org",
    "https://github.com",
    "https://docs.rs",
];

/// Path stems shared by many keys under one host.
const STEMS: &[&str] = &[
    "/users/", "/posts/", "/items/", "/t/", "/wiki/", "/repos/", "/v1/", "/img/",
];

/// Deterministic generator of a shared-prefix-heavy URL corpus.
#[derive(Debug, Clone)]
pub struct UrlCorpus {
    rng: SmallRng,
}

impl UrlCorpus {
    /// Creates a generator; equal seeds yield byte-identical corpora.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Draws one URL key. Host popularity is skewed (square-rank), so a few
    /// hosts dominate and their prefixes compress well.
    pub fn next_key(&mut self) -> Vec<u8> {
        // Squaring a uniform rank pushes mass towards index 0: the first
        // host receives ~35% of keys, the last ~4%.
        let r: f64 = self.rng.gen_range(0.0..1.0);
        let host = HOSTS[((r * r) * HOSTS.len() as f64) as usize % HOSTS.len()];
        let stem = STEMS[self.rng.gen_range(0..STEMS.len())];
        let id: u64 = self.rng.gen_range(0..100_000_000);
        let mut key = Vec::with_capacity(host.len() + stem.len() + 8);
        key.extend_from_slice(host.as_bytes());
        key.extend_from_slice(stem.as_bytes());
        key.extend_from_slice(format!("{id:08}").as_bytes());
        key
    }

    /// Generates `count` distinct `(key, value)` pairs, key-sorted and ready
    /// for a native bulk load. Values are a function of the key tail so
    /// agreement checks can recompute them.
    pub fn sorted_corpus(&mut self, count: usize) -> Vec<(Vec<u8>, Value)> {
        let mut items: Vec<(Vec<u8>, Value)> = Vec::with_capacity(count + count / 8);
        while items.len() < count + count / 8 {
            let key = self.next_key();
            let value = key.len() as Value;
            items.push((key, value));
        }
        items.sort();
        items.dedup_by(|a, b| a.0 == b.0);
        items.truncate(count);
        items
    }

    /// The most popular host's prefix — the natural target for the driver's
    /// prefix scans.
    pub fn hot_prefix() -> &'static [u8] {
        HOSTS[0].as_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_sorted() {
        let a = UrlCorpus::new(7).sorted_corpus(2_000);
        let b = UrlCorpus::new(7).sorted_corpus(2_000);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2_000);
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0), "strictly sorted");
        let c = UrlCorpus::new(8).sorted_corpus(2_000);
        assert_ne!(a, c, "different seeds differ");
    }

    #[test]
    fn corpus_is_shared_prefix_heavy() {
        let items = UrlCorpus::new(1).sorted_corpus(5_000);
        let hot = items
            .iter()
            .filter(|(k, _)| k.starts_with(UrlCorpus::hot_prefix()))
            .count();
        // The skew must concentrate a large share on the hottest host.
        assert!(hot > items.len() / 5, "hot host got {hot}/5000");
        // Average key length is URL-like: tens of bytes, not 8.
        let total: usize = items.iter().map(|(k, _)| k.len()).sum();
        assert!(total / items.len() > 25, "keys too short to be URLs");
    }
}
