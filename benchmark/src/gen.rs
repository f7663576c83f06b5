//! Deterministic, seed-driven input generators. `--seed` is the only input
//! that changes what the program under test is fed: the same seed yields
//! byte-identical key sets, op streams and arrival schedules.
//!
//! Key layout. Every key is `16 * p + r`, its value is always `p` (so any
//! reader can check a result without a shared model):
//!
//! * preloaded keys have `r == 0` and are never updated;
//! * update traffic uses `r == 1 + client`, so each client thread owns a
//!   residue class and knows the outcome of every one of its ops;
//! * `p` ranges over `[0, 2^36)` for preloaded and update keys alike, so
//!   updates land uniformly among the preloaded keys.

use pma_common::{Key, Value};

/// Width of the `p` domain.
pub const P_BITS: u32 = 36;
const P_MASK: u64 = (1 << P_BITS) - 1;

/// Every generator draws from its own stream of the seed; a stream tag
/// leaves its low 32 bits to the generator (client number, rate, ...).
pub mod stream {
    pub const PRELOAD: u64 = 1 << 32;
    pub const OWN_KEYS: u64 = 2 << 32;
    pub const OPS: u64 = 3 << 32;
    pub const ARRIVALS: u64 = 4 << 32;
    pub const URLS: u64 = 5 << 32;
    /// Re-seeding per round or segment of a workload.
    pub const ROUND: u64 = 6 << 32;
    /// The layer probes, numbered.
    pub const PROBE: u64 = 7 << 32;
}

/// SplitMix64: tiny, seedable, good enough for workload generation.
#[derive(Clone)]
pub struct Rng(u64);

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stateless hash of `(seed, x)`.
pub fn hash2(seed: u64, x: u64) -> u64 {
    let mut s = seed ^ x.wrapping_mul(0xd6e8_feb8_6659_fd93);
    splitmix(&mut s)
}

impl Rng {
    /// Independent stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(hash2(seed, stream))
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        splitmix(&mut self.0)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias below 2^-32 for our `n`).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The pair stored for payload `p` in residue class `r`.
#[inline]
pub fn pair(p: u64, residue: u64) -> (Key, Value) {
    ((p * 16 + residue) as Key, p as Value)
}

/// The preloaded key set of a workload: `n` keys, one per stride of the `p`
/// domain with a seeded jitter inside the stride — sorted by construction,
/// and any member is recomputable from its index in O(1).
#[derive(Clone, Copy)]
pub struct Preload {
    seed: u64,
    pub n: u64,
    stride: u64,
}

impl Preload {
    pub fn new(seed: u64, n: u64) -> Self {
        assert!(n > 0 && n <= 1 << 30);
        Preload {
            seed: hash2(seed, stream::PRELOAD),
            n,
            stride: (1 << P_BITS) / n,
        }
    }

    /// Payload of the `j`-th smallest preloaded key.
    #[inline]
    pub fn p(&self, j: u64) -> u64 {
        j * self.stride + hash2(self.seed, j) % self.stride
    }

    /// The `j`-th smallest preloaded pair.
    #[inline]
    pub fn pair(&self, j: u64) -> (Key, Value) {
        pair(self.p(j), 0)
    }

    /// All pairs in ascending key order, ready for a bulk load.
    pub fn items(&self) -> Vec<(Key, Value)> {
        (0..self.n).map(|j| self.pair(j)).collect()
    }
}

/// The keys one client thread may insert and remove: a seeded bijection of
/// `[0, 2^36)` in the client's residue class, so the `i`-th key is unique,
/// uniform over the preload's domain, and recomputable from `i`.
#[derive(Clone, Copy)]
pub struct OwnKeys {
    mul_a: u64,
    mul_b: u64,
    residue: u64,
}

impl OwnKeys {
    pub fn new(seed: u64, client: u64) -> Self {
        assert!(client < 15, "residues 1..=15 only");
        OwnKeys {
            // Odd multipliers are invertible modulo 2^36.
            mul_a: hash2(seed, stream::OWN_KEYS + 2 * client) | 1,
            mul_b: hash2(seed, stream::OWN_KEYS + 2 * client + 1) | 1,
            residue: 1 + client,
        }
    }

    /// The `i`-th pair of this client (`i < 2^36`).
    #[inline]
    pub fn pair(&self, i: u64) -> (Key, Value) {
        // multiply / xorshift rounds: each step is a bijection on 36 bits.
        let mut x = i.wrapping_mul(self.mul_a) & P_MASK;
        x ^= x >> 18;
        x = x.wrapping_mul(self.mul_b) & P_MASK;
        x ^= x >> 18;
        pair(x, self.residue)
    }
}

/// Zipf(a = 1) ranks over `[0, n)` by inverse-CDF table lookup (exact).
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for rank in 1..=n {
            sum += 1.0 / rank as f64;
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.cdf.len()
    }

    /// Rank 0 is the most popular.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64
    }
}

/// One operation of a client's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert the client's own pair number `i`.
    Insert(u64),
    /// Remove the client's own pair number `i` (inserted `LAG` updates ago).
    Remove(u64),
    /// Look up preloaded key number `j`.
    Get(u64),
    /// Look up the client's own pair number `i` (inserted and flushed).
    GetOwn(u64),
    /// Scan the `RANGE_LEN` preloaded keys starting at number `j`.
    Range(u64),
}

/// Elements covered by one [`Op::Range`].
pub const RANGE_LEN: u64 = 100;

/// Own keys a client keeps live between an insert and its matching remove:
/// the structure's size stays constant while removes hit settled keys.
pub const LAG: u64 = 4096;

/// Shape of a closed-loop client's op stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Fresh inserts; every 16th op looks up one of the `warm` own keys the
    /// client inserted (and flushed) during warm-up.
    Grow { warm: u64 },
    /// Alternating insert / remove of own keys; every 16th op looks up a
    /// preloaded key.
    Update,
    /// 90 % get, 5 % 100-element range, 5 % alternating insert / remove.
    ReadMostly,
    /// 45 % insert, 45 % remove, 10 % get (the sharded-mix layer probe).
    Interleaved,
}

/// A closed-loop client's deterministic op stream. Clients using `Update`,
/// `ReadMostly` or `Interleaved` must have their own pairs `0..LAG` inserted
/// before the stream starts (see [`OpStream::primed`]).
pub struct OpStream {
    mix: Mix,
    rng: Rng,
    preload_n: u64,
    issued: u64,
    next_insert: u64,
    next_remove: u64,
    insert_turn: bool,
}

impl OpStream {
    pub fn new(seed: u64, client: u64, mix: Mix, preload_n: u64) -> Self {
        let first = match mix {
            Mix::Grow { warm } => warm,
            _ => LAG,
        };
        OpStream {
            mix,
            rng: Rng::new(seed, stream::OPS + client),
            preload_n,
            issued: 0,
            next_insert: first,
            next_remove: 0,
            insert_turn: true,
        }
    }

    /// Own pairs that must be live before the first op of this stream.
    pub fn primed(&self) -> std::ops::Range<u64> {
        match self.mix {
            Mix::Grow { warm } => 0..warm,
            _ => 0..LAG,
        }
    }

    fn update(&mut self) -> Op {
        let op = if self.insert_turn {
            self.next_insert += 1;
            Op::Insert(self.next_insert - 1)
        } else {
            self.next_remove += 1;
            Op::Remove(self.next_remove - 1)
        };
        self.insert_turn = !self.insert_turn;
        op
    }

    /// Own pairs live once every op issued so far has been applied.
    pub fn live(&self) -> std::ops::Range<u64> {
        self.next_remove..self.next_insert
    }
}

impl Iterator for OpStream {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        self.issued += 1;
        Some(match self.mix {
            Mix::Grow { warm } => {
                if self.issued.is_multiple_of(16) {
                    Op::GetOwn(self.rng.below(warm))
                } else {
                    self.next_insert += 1;
                    Op::Insert(self.next_insert - 1)
                }
            }
            Mix::Update => {
                if self.issued.is_multiple_of(16) {
                    Op::Get(self.rng.below(self.preload_n))
                } else {
                    self.update()
                }
            }
            Mix::ReadMostly => match self.rng.below(100) {
                0..=89 => Op::Get(self.rng.below(self.preload_n)),
                90..=94 => Op::Range(self.rng.below(self.preload_n - RANGE_LEN)),
                _ => self.update(),
            },
            Mix::Interleaved => match self.rng.below(10) {
                0 => Op::Get(self.rng.below(self.preload_n)),
                _ => self.update(),
            },
        })
    }
}

/// One arrival of the open-loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Nanoseconds after the start of the window at which the op is due.
    pub due_ns: u64,
    /// Zipf rank of the key (rank order = key order, so low ranks share a
    /// shard: the hot-shard case).
    pub rank: u32,
    /// Synchronous `get` probe (else an asynchronous `try_insert`).
    pub probe: bool,
}

/// Every `PROBE_EVERY`-th arrival is a synchronous probe (10 %).
pub const PROBE_EVERY: u64 = 10;

/// The open-loop schedule: evenly spaced arrivals at `rate` ops/s for
/// `seconds`, keys drawn Zipf(a = 1).
pub fn arrivals(seed: u64, zipf: &Zipf, rate: u64, seconds: f64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, stream::ARRIVALS + rate);
    let count = (rate as f64 * seconds) as u64;
    (0..count)
        .map(|i| Arrival {
            due_ns: (i as u128 * 1_000_000_000 / rate as u128) as u64,
            rank: zipf.sample(&mut rng) as u32,
            probe: i % PROBE_EVERY == PROBE_EVERY - 1,
        })
        .collect()
}

/// `n` distinct URL-shaped byte keys in ascending order (few hot hosts, long
/// shared prefixes — what the prefix-compressed byte PMA is built for).
pub fn url_keys(seed: u64, n: usize) -> Vec<(Vec<u8>, Value)> {
    let mut rng = Rng::new(seed, stream::URLS);
    let mut keys = std::collections::BTreeSet::new();
    while keys.len() < n {
        // Square-root skew: host h is drawn with weight ~ 1/sqrt(h).
        let u = rng.next_f64();
        let host = (u * u * 5000.0) as u64;
        let section = rng.below(40);
        let item = rng.below(1 << 24);
        keys.insert(
            format!("https://www.host{host:04}.example.com/s{section:02}/item/{item:07x}")
                .into_bytes(),
        );
    }
    keys.into_iter()
        .enumerate()
        .map(|(i, k)| (k, i as Value))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(seed: u64, mix: Mix) -> Vec<u8> {
        OpStream::new(seed, 1, mix, 1 << 20)
            .take(10_000)
            .flat_map(|op| format!("{op:?};").into_bytes())
            .collect()
    }

    #[test]
    fn same_seed_same_streams_other_seed_differs() {
        for mix in [
            Mix::Grow { warm: 1000 },
            Mix::Update,
            Mix::ReadMostly,
            Mix::Interleaved,
        ] {
            assert_eq!(stream_bytes(7, mix), stream_bytes(7, mix));
            assert_ne!(stream_bytes(7, mix), stream_bytes(8, mix));
        }
        let zipf = Zipf::new(1000);
        assert_eq!(arrivals(7, &zipf, 5000, 0.5), arrivals(7, &zipf, 5000, 0.5));
        assert_ne!(arrivals(7, &zipf, 5000, 0.5), arrivals(8, &zipf, 5000, 0.5));
        assert_eq!(Preload::new(7, 1000).items(), Preload::new(7, 1000).items());
        assert_ne!(Preload::new(7, 1000).items(), Preload::new(8, 1000).items());
        assert_eq!(url_keys(7, 500), url_keys(7, 500));
        assert_ne!(url_keys(7, 500), url_keys(8, 500));
    }

    #[test]
    fn preload_is_sorted_distinct_and_carries_its_value() {
        let items = Preload::new(3, 100_000).items();
        assert!(items.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(items.iter().all(|&(k, v)| k % 16 == 0 && v == k / 16));
    }

    #[test]
    fn own_keys_are_distinct_and_stay_in_their_residue_class() {
        for client in 0..2 {
            let own = OwnKeys::new(11, client);
            let mut seen = std::collections::HashSet::new();
            for i in 0..200_000 {
                let (k, v) = own.pair(i);
                assert_eq!(k % 16, 1 + client as i64);
                assert_eq!(v, k / 16);
                assert!(seen.insert(k), "own key {i} repeats");
            }
        }
    }

    #[test]
    fn update_streams_remove_only_what_they_inserted() {
        let mut stream = OpStream::new(5, 0, Mix::ReadMostly, 1 << 20);
        let mut live: std::collections::BTreeSet<u64> = stream.primed().collect();
        for _ in 0..200_000 {
            match stream.next().unwrap() {
                Op::Insert(i) => assert!(live.insert(i)),
                Op::Remove(i) => assert!(live.remove(&i)),
                _ => {}
            }
        }
        assert_eq!(
            live.into_iter().collect::<Vec<_>>(),
            stream.live().collect::<Vec<_>>()
        );
    }

    #[test]
    fn zipf_favours_low_ranks_and_schedule_is_evenly_spaced() {
        let zipf = Zipf::new(1 << 17);
        let sched = arrivals(1, &zipf, 100_000, 1.0);
        assert_eq!(sched.len(), 100_000);
        assert_eq!(sched[1].due_ns - sched[0].due_ns, 10_000);
        let head = sched.iter().filter(|a| a.rank < 1 << 15).count();
        assert!(
            head > 85_000 && head < 93_000,
            "hottest quarter drew {head}"
        );
        assert_eq!(sched.iter().filter(|a| a.probe).count(), 10_000);
    }

    #[test]
    fn url_keys_are_sorted_and_distinct() {
        let keys = url_keys(9, 2000);
        assert_eq!(keys.len(), 2000);
        assert!(keys.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(keys.iter().all(|(k, _)| k.starts_with(b"https://www.host")));
    }
}
