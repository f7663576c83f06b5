//! The four workloads. Names are fixed — later issues cite them.
//!
//! Every workload has exactly [`CLIENTS`] load-generating threads (constants,
//! not derived from `nproc`), checks every result it can know, and ends with
//! the same end-state check: `flush()`, then `scan_all()` totals, `len()` and
//! `late_replays == 0` against what the generators say must be there.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pma_common::{ConcurrentMap, PmaError, Registry, ScanStats};
use pma_engine::{CoreRouter, CoreRouterConfig, OverloadPolicy};

use crate::alloc::live_bytes;
use crate::gen::{self, hash2, stream, Mix, Op, OpStream, OwnKeys, Preload, Zipf, RANGE_LEN};
use crate::hist::Histogram;
use crate::tracing::Tracer;

/// Preloaded keys of `read-mostly-sharded`: 0.6 x 2^23, 77 MiB of key/value
/// payload (19x the 4 MiB L2) in structures of about 134 MB.
///
/// The factor matters. A bulk load rounds the array up to a power-of-two
/// number of segments, so the loaded density lands anywhere in (0.375, 0.75],
/// and below 0.5 every `remove` makes the PMA rebuild the whole array (it asks
/// for a downsize, and the rebuilt array is presized to the same capacity).
/// 0.6 x 2^k loads at density 0.6 — in a bare PMA and, because halving keeps
/// the factor, in every shard the engine splits down to — so neither the
/// downsize nor the upsize threshold is within reach of the few thousand
/// keys the updaters keep live.
pub const LARGE_KEYS: u64 = 5_033_164;
/// Preloaded keys of `scan-update-large` and of the layer probes: 0.6 x 2^24,
/// 154 MiB of payload in a 268 MB array — past the host's 260 MiB L3 as well,
/// which the whole host shares: a scan loop over an array that fits in it runs
/// at two speeds, depending on how much of it the neighbours leave us.
pub const SCAN_KEYS: u64 = 10_066_329;
/// Preloaded keys of the in-cache workload: 2 MiB of payload, fits L2. (Loads
/// at density 0.5, which is safe here: `serve-skew-small` never removes.)
pub const SMALL_KEYS: u64 = 131_072;
/// Preloaded keys of the small interleaved insert / remove probe: 0.6 x 2^18,
/// density 0.6 bare and per shard of `sharded:4`.
pub const MIX_KEYS: u64 = 157_286;
/// Load-generating threads in every workload (`serve-skew-small`: one
/// producer plus the router's single worker).
pub const CLIENTS: u64 = 2;

/// Offered rates of `serve-skew-small` in ops/s: 25 / 50 / 75 % of the
/// closed-loop saturation of its mix (`engine.router_sat_kops`) measured on
/// the commit that introduced the benchmark. Frozen: never recalibrated.
pub const RATES: [u64; 3] = [40_000, 80_000, 120_000];
/// Latency limit of `serve-skew-small`: probe sojourn p99.
pub const SOJOURN_LIMIT_NS: u64 = 1_000_000;
/// A `serve-skew-small` run whose generator ran later than this at p99 is
/// reported invalid.
pub const GEN_LAG_LIMIT_US: f64 = 100.0;

pub const GROW_SPEC: &str = "pma-batch:100";
pub const SCAN_SPEC: &str = "pma-batch:100";
pub const READ_SPEC: &str = "sharded:8:pma-batch:100";
pub const SERVE_INNER_SPEC: &str = "sharded:4:pma-batch:100";

/// Untimed closed-loop warm-up before each measured window.
const WARMUP: Duration = Duration::from_secs(1);
/// Untimed head of each open-loop schedule.
const SERVE_WARMUP_S: f64 = 0.5;
/// Zipf ranks of `serve-skew-small` (rank r = the r-th smallest preloaded
/// key, so the hot keys share a shard). Below the 65 536 distinct writes at
/// which a router worker settles its read overlay with a blocking flush of
/// 100 ms and more: a segment would reach that point in some runs and not in
/// others, and the tail would say which, not how the router performs.
pub const SERVE_RANKS: usize = 49_152;
/// Ops of the fixed-work warm-up that is part of `serve-skew-small`'s
/// set-up. The build alone takes 2 ms, mostly thread spawns, and did not
/// repeat within 30 % from run to run.
const SERVE_WARM_OPS: u64 = 40_000;
/// Every n-th op of each class is timed: per-op timing would tax the
/// measured throughput.
const SAMPLE_EVERY: u64 = 8;
/// `grow-insert`: own pairs each client inserts during the (fixed-work)
/// warm-up, and timed inserts per client per round.
const GROW_WARM: u64 = 1 << 18;
const GROW_ROUND: u64 = 1 << 21;

pub const WORKLOADS: [&str; 4] = [
    "grow-insert",
    "scan-update-large",
    "read-mostly-sharded",
    "serve-skew-small",
];

/// Lets a test put a faulty structure between the generator and the program.
pub type Wrap = fn(Arc<dyn ConcurrentMap>) -> Arc<dyn ConcurrentMap>;

pub fn no_wrap(map: Arc<dyn ConcurrentMap>) -> Arc<dyn ConcurrentMap> {
    map
}

/// A private registry holding every backend of the program under test.
pub fn registry() -> Registry {
    let registry = Registry::new();
    pma_core::register_backends(&registry);
    pma_baselines::register_backends(&registry);
    pma_engine::register_backends(&registry);
    registry
}

pub struct RunCfg<'a> {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    pub wrap: Wrap,
    /// `Some` turns the window into a traced one.
    pub tracer: Option<&'a mut Tracer>,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Harness-side extras reported with the per-layer metrics.
    pub extras: BTreeMap<&'static str, f64>,
    /// Why the run is not correct, for the log.
    pub problems: Vec<String>,
}

impl Outcome {
    /// No op failed and the end state checked out.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// `count / key_sum / value_sum` of a key set, folded the way a scan folds
/// what it visits.
pub fn totals(items: impl IntoIterator<Item = (i64, i64)>) -> ScanStats {
    let mut totals = ScanStats::default();
    items
        .into_iter()
        .for_each(|(key, value)| totals.visit(key, value));
    totals
}

/// Counters and latency samples of one load-generating thread.
pub struct ClientStats {
    pub updates: u64,
    pub gets: u64,
    pub scans: u64,
    /// Elements returned by gets and scans.
    pub elements: u64,
    pub failed: u64,
    /// Latency of inserts only: with removes mixed in, the distribution has
    /// two modes and its median flips between them from run to run.
    pub insert_lat: Histogram,
    pub get_lat: Histogram,
    pub scan_lat: Histogram,
    pub elapsed: Duration,
}

impl Default for ClientStats {
    fn default() -> Self {
        ClientStats {
            updates: 0,
            gets: 0,
            scans: 0,
            elements: 0,
            failed: 0,
            insert_lat: Histogram::new(),
            get_lat: Histogram::new(),
            scan_lat: Histogram::new(),
            elapsed: Duration::ZERO,
        }
    }
}

impl ClientStats {
    pub fn ops(&self) -> u64 {
        self.updates + self.gets + self.scans
    }

    fn merge(&mut self, other: &ClientStats) {
        self.updates += other.updates;
        self.gets += other.gets;
        self.scans += other.scans;
        self.elements += other.elements;
        self.failed += other.failed;
        self.insert_lat.merge(&other.insert_lat);
        self.get_lat.merge(&other.get_lat);
        self.scan_lat.merge(&other.scan_lat);
    }

    fn per_second(&self, count: u64) -> f64 {
        count as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

const WARM: u8 = 0;
const MEASURE: u8 = 1;
const STOP: u8 = 2;

/// A load-generating thread's view of the run's phase: it starts its own
/// clock when it first sees `MEASURE` and leaves when it sees `STOP`.
struct PhaseClock<'a> {
    phase: &'a AtomicU8,
    measuring: bool,
    started: Instant,
}

impl<'a> PhaseClock<'a> {
    fn new(phase: &'a AtomicU8) -> Self {
        PhaseClock {
            phase,
            measuring: false,
            started: Instant::now(),
        }
    }

    /// `false` once the run is over.
    fn poll(&mut self) -> bool {
        match self.phase.load(Ordering::Relaxed) {
            STOP => return false,
            MEASURE if !self.measuring => {
                self.measuring = true;
                self.started = Instant::now();
            }
            _ => {}
        }
        true
    }
}

/// A closed-loop client: issues its next op when the previous one returns.
pub struct Client {
    stream: OpStream,
    own: OwnKeys,
    /// Stop after this many inserts in the measured phase (fixed work).
    insert_budget: Option<u64>,
    pub stats: ClientStats,
}

impl Client {
    pub fn new(seed: u64, id: u64, mix: Mix, preload_n: u64) -> Self {
        Client {
            stream: OpStream::new(seed, id, mix, preload_n),
            own: OwnKeys::new(seed, id),
            insert_budget: None,
            stats: ClientStats::default(),
        }
    }

    /// Inserts the own pairs the stream expects to find (untimed).
    fn prime(&self, map: &dyn ConcurrentMap) {
        for i in self.stream.primed() {
            let (key, value) = self.own.pair(i);
            map.insert(key, value);
        }
    }

    /// Totals of the own pairs that are live once every issued op is applied.
    fn live_totals(&self) -> ScanStats {
        totals(self.stream.live().map(|i| self.own.pair(i)))
    }

    /// One lookup of a key whose value is known.
    fn get(&mut self, map: &dyn ConcurrentMap, (key, value): (i64, i64), measuring: bool) {
        let stats = &mut self.stats;
        let timer = (measuring && stats.gets.is_multiple_of(SAMPLE_EVERY)).then(Instant::now);
        let got = map.get(key);
        if let Some(t) = timer {
            stats.get_lat.record(t.elapsed().as_nanos() as u64);
        }
        stats.gets += measuring as u64;
        stats.elements += measuring as u64;
        if got != Some(value) {
            stats.failed += 1;
        }
    }

    fn run(&mut self, map: &dyn ConcurrentMap, preload: &Preload, phase: &AtomicU8) {
        let mut clock = PhaseClock::new(phase);
        let mut inserts = 0u64;
        while clock.poll() {
            let measuring = clock.measuring;
            // Warm-up ops are issued and checked like any other, only not
            // counted.
            let count = measuring as u64;
            let stats = &mut self.stats;
            match self.stream.next().expect("op streams are endless") {
                Op::Insert(i) => {
                    let (key, value) = self.own.pair(i);
                    let timer =
                        (measuring && inserts.is_multiple_of(SAMPLE_EVERY)).then(Instant::now);
                    map.insert(key, value);
                    if let Some(t) = timer {
                        stats.insert_lat.record(t.elapsed().as_nanos() as u64);
                    }
                    inserts += count;
                    stats.updates += count;
                }
                Op::Remove(i) => {
                    // The result is not checked: an asynchronous-mode PMA may
                    // delegate the removal and return `None`. The end-state
                    // check catches a lost one.
                    map.remove(self.own.pair(i).0);
                    stats.updates += count;
                }
                Op::Get(j) => self.get(map, preload.pair(j), measuring),
                Op::GetOwn(i) => self.get(map, self.own.pair(i), measuring),
                Op::Range(j) => {
                    let (lo, hi) = (preload.pair(j).0, preload.pair(j + RANGE_LEN - 1).0);
                    let timer = measuring.then(Instant::now);
                    let seen = map.scan_range(lo, hi);
                    if let Some(t) = timer {
                        stats.scan_lat.record(t.elapsed().as_nanos() as u64);
                    }
                    stats.scans += count;
                    stats.elements += count * seen.count;
                    // Exactly the 100 preloaded keys, plus whatever own keys
                    // the clients have live in between; every 8th clean
                    // range is compared sum for sum.
                    let mut ok = plausible(seen, RANGE_LEN);
                    if seen.count == RANGE_LEN && stats.scans.is_multiple_of(SAMPLE_EVERY) {
                        let exact = totals((j..j + RANGE_LEN).map(|j| preload.pair(j)));
                        ok = (seen.key_sum, seen.value_sum) == (exact.key_sum, exact.value_sum);
                    }
                    if !ok {
                        stats.failed += 1;
                    }
                }
            }
            if measuring && self.insert_budget.is_some_and(|budget| inserts >= budget) {
                break;
            }
        }
        self.stats.elapsed = clock.started.elapsed();
    }
}

/// Whether scan totals can be `preloaded` preloaded pairs plus some own pairs:
/// every pair is `(16p + r, p)` with `r == 0` for preloaded keys and
/// `1 <= r <= 15` for own keys, so `key_sum - 16 * value_sum` is the sum of
/// the residues.
fn plausible(seen: ScanStats, preloaded: u64) -> bool {
    let extras = seen.count as i128 - preloaded as i128;
    let residues = seen.key_sum - 16 * seen.value_sum;
    extras >= 0 && residues >= extras && residues <= 15 * extras
}

/// A client that loops `scan_all()`.
fn run_scanner(map: &dyn ConcurrentMap, preloaded: u64, stats: &mut ClientStats, phase: &AtomicU8) {
    let mut clock = PhaseClock::new(phase);
    while clock.poll() {
        let timer = Instant::now();
        let seen = map.scan_all();
        if clock.measuring {
            stats.scan_lat.record(timer.elapsed().as_nanos() as u64);
            stats.scans += 1;
            stats.elements += seen.count;
        }
        // Preloaded keys are never removed: a pass that under-counts them
        // or returns implausible sums is wrong.
        if !plausible(seen, preloaded) {
            stats.failed += 1;
        }
    }
    stats.elapsed = clock.started.elapsed();
}

/// Runs the clients (and the scanner) against `map`: untimed warm-up, then
/// the measured window, which ends after `measure` or once every client with
/// an insert budget has spent it.
fn drive(
    map: &Arc<dyn ConcurrentMap>,
    preload: &Preload,
    clients: &mut [Client],
    scanner: Option<&mut ClientStats>,
    warm: Duration,
    measure: Duration,
    tracer: Option<&mut Tracer>,
) {
    let phase = AtomicU8::new(if warm.is_zero() { MEASURE } else { WARM });
    let budgeted = clients.iter().filter(|c| c.insert_budget.is_some()).count();
    let finished = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let (phase, finished) = (&phase, &finished);
            scope.spawn(move || {
                client.run(map.as_ref(), preload, phase);
                finished.fetch_add(1, Ordering::Relaxed);
            });
        }
        if let Some(stats) = scanner {
            let phase = &phase;
            scope.spawn(move || run_scanner(map.as_ref(), preload.n, stats, phase));
        }
        std::thread::sleep(warm);
        let window = || {
            phase.store(MEASURE, Ordering::Relaxed);
            let deadline = Instant::now() + measure;
            while Instant::now() < deadline
                && (budgeted == 0 || finished.load(Ordering::Relaxed) < budgeted)
            {
                std::thread::sleep(Duration::from_millis(1).min(deadline - Instant::now()));
            }
            phase.store(STOP, Ordering::Relaxed);
        };
        match tracer {
            Some(tracer) => tracer.window(map, window),
            None => window(),
        }
    });
}

/// Inserts the own keys the clients' streams expect to find, then
/// [`drive`]s them.
pub fn prime_and_drive(
    map: &Arc<dyn ConcurrentMap>,
    preload: &Preload,
    clients: &mut [Client],
    scanner: Option<&mut ClientStats>,
    warm: Duration,
    measure: Duration,
    tracer: Option<&mut Tracer>,
) {
    for client in clients.iter() {
        client.prime(map.as_ref());
    }
    map.flush();
    drive(map, preload, clients, scanner, warm, measure, tracer);
}

/// The end-state check shared by every workload. Returns the time it took.
fn check_end_state(
    map: &dyn ConcurrentMap,
    expected: ScanStats,
    problems: &mut Vec<String>,
) -> Duration {
    let started = Instant::now();
    map.flush();
    let seen = map.scan_all();
    if seen != expected {
        problems.push(format!(
            "end state: scan_all saw {seen:?}, expected {expected:?}"
        ));
    }
    if map.len() as u64 != expected.count {
        problems.push(format!(
            "end state: len() = {}, expected {}",
            map.len(),
            expected.count
        ));
    }
    if let Some(late) = map
        .combining_stats()
        .map(|c| c.late_replays)
        .filter(|&l| l > 0)
    {
        problems.push(format!("end state: late_replays = {late}"));
    }
    started.elapsed()
}

fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty());
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Builds `spec` loaded with `items` `setups` times and keeps the last:
/// `(map, seconds per set-up, live bytes before the kept build)`.
fn build_loaded(
    registry: &Registry,
    spec: &str,
    items: &[(i64, i64)],
    cfg: &RunCfg,
    settle: bool,
) -> (Arc<dyn ConcurrentMap>, Vec<f64>, usize) {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..cfg.setups.max(1) {
        drop(kept.take());
        let before = live_bytes();
        let started = Instant::now();
        let map = registry.build_loaded(spec, items).expect("bulk load");
        if settle {
            wait_for_splits_to_settle(map.as_ref());
        }
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some((map, before));
    }
    let (map, before) = kept.expect("at least one set-up");
    ((cfg.wrap)(map), setup_s, before)
}

/// A bulk-loaded sharded engine keeps splitting oversized shards in the
/// background; the window must not start until it has stopped (no split for
/// 300 ms), and that work is part of the set-up.
fn wait_for_splits_to_settle(map: &dyn ConcurrentMap) {
    let splits = || map.maintenance_stats().map_or(0, |m| m.splits);
    let (mut last, mut quiet_since) = (splits(), Instant::now());
    let started = Instant::now();
    while quiet_since.elapsed() < Duration::from_millis(300)
        && started.elapsed() < Duration::from_secs(60)
    {
        std::thread::sleep(Duration::from_millis(5));
        let now = splits();
        if now != last {
            (last, quiet_since) = (now, Instant::now());
        }
    }
}

/// Fills in what every workload reports from its clients' merged counters.
fn report_clients(out: &mut Outcome, all: &ClientStats) {
    out.attempted = all.ops();
    out.failed = all.failed;
    for (name, hist) in [
        ("insert_p50_ns", &all.insert_lat),
        ("get_p50_ns", &all.get_lat),
    ] {
        match hist.percentile(0.5) {
            Some(value) => {
                out.metrics.insert(name, value);
            }
            None => out.problems.push(format!(
                "{name}: only {} samples, too few for the percentile",
                hist.samples()
            )),
        }
    }
    // The tails do not repeat within any bound on this machine (see the
    // README): they ride with the per-layer metrics, 0 when the window was
    // too short to support them.
    for (name, hist, q) in [
        ("e2e.insert_p90_ns", &all.insert_lat, 0.9),
        ("e2e.insert_p99_ns", &all.insert_lat, 0.99),
        ("e2e.get_p90_ns", &all.get_lat, 0.9),
        ("e2e.get_p99_ns", &all.get_lat, 0.99),
        ("e2e.scan_op_p50_ns", &all.scan_lat, 0.5),
    ] {
        out.extras.insert(name, hist.percentile(q).unwrap_or(0.0));
    }
    out.extras
        .insert("e2e.insert_samples", all.insert_lat.samples() as f64);
    out.extras
        .insert("e2e.get_samples", all.get_lat.samples() as f64);
    // Open-loop only; `serve-skew-small` overwrites them.
    out.extras.insert("e2e.deadline_miss_frac", 0.0);
    out.extras.insert("bench.gen_lag_p99_us", 0.0);
}

pub fn run(name: &str, cfg: RunCfg) -> Result<Outcome, String> {
    match name {
        "grow-insert" => Ok(grow_insert(cfg)),
        "scan-update-large" => Ok(scan_update_large(cfg)),
        "read-mostly-sharded" => Ok(read_mostly_sharded(cfg)),
        "serve-skew-small" => Ok(serve_skew_small(cfg)),
        other => Err(format!(
            "unknown workload `{other}`; known: {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// Paper Fig. 3a: two clients grow an empty PMA by uniform inserts. Fixed
/// work per round (the rebalancer, resizes and epoch reclamation do most of
/// the work here); rounds repeat on fresh structures until the window is
/// spent, and throughput, space and set-up are medians over rounds.
fn grow_insert(mut cfg: RunCfg) -> Outcome {
    let registry = registry();
    let mut out = Outcome::default();
    let preload = Preload::new(cfg.seed, 1); // never consulted: Grow has no preload
    let (mut setup_s, mut mops, mut meps, mut bytes) = (vec![], vec![], vec![], vec![]);
    let mut all = ClientStats::default();
    let mut remaining = cfg.seconds;
    let mut check = Duration::ZERO;
    let mut round = 0u64;
    while remaining > 0.0 {
        let seed = hash2(cfg.seed, stream::ROUND + round);
        let mix = Mix::Grow { warm: GROW_WARM };
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|id| Client::new(seed, id, mix, 1))
            .collect();
        for client in &mut clients {
            client.insert_budget = Some(GROW_ROUND);
        }

        let before = live_bytes();
        let started = Instant::now();
        let map = (cfg.wrap)(registry.build(GROW_SPEC).expect("empty build"));
        std::thread::scope(|scope| {
            for client in &clients {
                let map = &map;
                scope.spawn(move || client.prime(map.as_ref()));
            }
        });
        map.flush();
        setup_s.push(started.elapsed().as_secs_f64());

        let started = Instant::now();
        drive(
            &map,
            &preload,
            &mut clients,
            None,
            Duration::ZERO,
            Duration::from_secs_f64(remaining),
            cfg.tracer.as_deref_mut(),
        );
        map.flush();
        let round_s = started.elapsed().as_secs_f64();
        remaining -= round_s;

        let mut expected = ScanStats::default();
        let mut stats = ClientStats::default();
        for client in &clients {
            expected.merge(&client.live_totals());
            stats.merge(&client.stats);
        }
        let complete = stats.updates == CLIENTS * GROW_ROUND;
        // Medians are over complete rounds; a window too short for one
        // falls back to its only, partial round.
        if complete || mops.is_empty() {
            mops.push(stats.updates as f64 / round_s / 1e6);
            meps.push(stats.elements as f64 / round_s / 1e6);
        }
        all.merge(&stats);
        all.elapsed += Duration::from_secs_f64(round_s);
        check += check_end_state(map.as_ref(), expected, &mut out.problems);
        if complete || bytes.is_empty() {
            bytes.push((live_bytes() - before) as f64 / expected.count as f64);
        }
        round += 1;
    }
    report_clients(&mut out, &all);
    out.metrics.insert("setup_s", median(&mut setup_s));
    out.metrics.insert("update_mops", median(&mut mops));
    out.metrics.insert("read_meps", median(&mut meps));
    out.metrics.insert("bytes_per_key", median(&mut bytes));
    out.extras.insert("e2e.window_s", all.elapsed.as_secs_f64());
    out.extras.insert("bench.check_s", check.as_secs_f64());
    out
}

/// Shared tail of the two preloaded closed-loop workloads.
fn preloaded_closed_loop(
    mut cfg: RunCfg,
    spec: &str,
    settle: bool,
    mut clients: Vec<Client>,
    with_scanner: bool,
    preload: Preload,
) -> Outcome {
    let registry = registry();
    let mut out = Outcome::default();
    let items = preload.items();
    let mut expected = totals(items.iter().copied());
    let mut scanner = ClientStats::default();

    let (map, mut setup_s, before) = build_loaded(&registry, spec, &items, &cfg, settle);
    prime_and_drive(
        &map,
        &preload,
        &mut clients,
        with_scanner.then_some(&mut scanner),
        WARMUP,
        Duration::from_secs_f64(cfg.seconds),
        cfg.tracer.as_deref_mut(),
    );

    let mut updaters = ClientStats::default();
    let (mut update_mops, mut read_meps, mut window_s) = (0.0, 0.0, 0.0f64);
    for client in &clients {
        expected.merge(&client.live_totals());
        updaters.merge(&client.stats);
        // Each thread's rate is over its own elapsed time.
        update_mops += client.stats.per_second(client.stats.updates) / 1e6;
        read_meps += client.stats.per_second(client.stats.elements) / 1e6;
        window_s = window_s.max(client.stats.elapsed.as_secs_f64());
    }
    read_meps += scanner.per_second(scanner.elements) / 1e6;
    let check = check_end_state(map.as_ref(), expected, &mut out.problems);
    let bytes_per_key = (live_bytes() - before) as f64 / expected.count as f64;

    updaters.merge(&scanner);
    report_clients(&mut out, &updaters);
    out.metrics.insert("setup_s", median(&mut setup_s));
    out.metrics.insert("update_mops", update_mops);
    out.metrics.insert("read_meps", read_meps);
    out.metrics.insert("bytes_per_key", bytes_per_key);
    out.extras.insert("e2e.window_s", window_s);
    out.extras.insert("bench.check_s", check.as_secs_f64());
    out
}

/// Paper Fig. 3d-f: one client loops `scan_all()` over a large PMA while the
/// other alternates insert / remove of its own uniform keys (size constant).
fn scan_update_large(cfg: RunCfg) -> Outcome {
    let preload = Preload::new(cfg.seed, SCAN_KEYS);
    let clients = vec![Client::new(cfg.seed, 0, Mix::Update, SCAN_KEYS)];
    preloaded_closed_loop(cfg, SCAN_SPEC, false, clients, true, preload)
}

/// Point reads through the sharded engine over a large preload: 90 % get,
/// 5 % 100-element range, 5 % insert-or-remove, two clients.
fn read_mostly_sharded(cfg: RunCfg) -> Outcome {
    let preload = Preload::new(cfg.seed, LARGE_KEYS);
    let clients = (0..CLIENTS)
        .map(|id| Client::new(cfg.seed, id, Mix::ReadMostly, LARGE_KEYS))
        .collect();
    preloaded_closed_loop(cfg, READ_SPEC, true, clients, false, preload)
}

/// What one open-loop segment (fresh structure, one offered rate) measured.
pub struct ServeSegment {
    /// `insert_lat` / `get_lat` hold sojourn times: completion minus the
    /// *scheduled* arrival.
    pub stats: ClientStats,
    /// How late the generator itself issued each op: behind its schedule
    /// and behind the return of the previous op, whichever came last.
    pub lag: Histogram,
    pub shed: u64,
    /// Probes over [`SOJOURN_LIMIT_NS`].
    pub over_limit: u64,
    pub end_depth: usize,
    pub setup_s: f64,
    pub bytes_per_key: f64,
    pub check: Duration,
    pub router: pma_engine::CoreRouterStats,
    pub problems: Vec<String>,
}

impl ServeSegment {
    /// Probe p99 within the limit, nothing shed, backlog not growing.
    pub fn meets_limit(&self) -> bool {
        self.stats
            .get_lat
            .percentile(0.99)
            .is_some_and(|p99| p99 <= SOJOURN_LIMIT_NS as f64)
            && self.shed == 0
            && self.end_depth < ROUTER_QUEUE_DEPTH / 2
    }
}

const ROUTER_QUEUE_DEPTH: usize = 4096;

/// Builds the served stack: `cores:1:sharded:4:pma-batch:100` with the
/// router's `Shed` policy (which the `cores:` spec string cannot select).
pub fn build_router(
    registry: &Registry,
    items: &[(i64, i64)],
) -> Result<Arc<CoreRouter>, PmaError> {
    let inner = registry.build_loaded(SERVE_INNER_SPEC, items)?;
    let config = CoreRouterConfig {
        workers: 1,
        queue_depth: ROUTER_QUEUE_DEPTH,
        policy: OverloadPolicy::Shed,
        pin: true,
    };
    Ok(Arc::new(CoreRouter::new(config, inner)?))
}

/// What can go wrong with one served op.
enum ServeFault {
    WrongValue,
    Shed,
}

/// Issues one arrival's op: a synchronous probe of a preloaded key, or an
/// asynchronous insert of the own key next to it.
fn serve_op(
    map: &dyn ConcurrentMap,
    preload: &Preload,
    arrival: &gen::Arrival,
) -> Result<(), ServeFault> {
    let p = preload.p(arrival.rank as u64);
    if arrival.probe {
        let (key, value) = gen::pair(p, 0);
        (map.get(key) == Some(value))
            .then_some(())
            .ok_or(ServeFault::WrongValue)
    } else {
        let (key, value) = gen::pair(p, 1);
        map.try_insert(key, value).map_err(|_| ServeFault::Shed)
    }
}

/// One open-loop segment at `rate` ops/s: a single producer on a fixed
/// schedule, Zipf keys, 90 % `try_insert` / 10 % synchronous `get` probes.
/// The set-up is the build plus a fixed-work warm-up: [`SERVE_WARM_OPS`] ops
/// of the same mix issued back to back.
pub fn serve_segment(
    registry: &Registry,
    seed: u64,
    zipf: &Zipf,
    rate: u64,
    seconds: f64,
    wrap: Wrap,
    tracer: Option<&mut Tracer>,
) -> ServeSegment {
    let preload = Preload::new(seed, SMALL_KEYS);
    let items = preload.items();
    let schedule = gen::arrivals(seed, zipf, rate, SERVE_WARMUP_S + seconds);
    let warm_up = gen::arrivals(seed + 1, zipf, SERVE_WARM_OPS, 1.0);
    let warm_ns = (SERVE_WARMUP_S * 1e9) as u64;
    let mut inserted = vec![false; zipf.ranks()];
    let mut stats = ClientStats::default();
    let mut lag = Histogram::new();
    let (mut shed, mut over_limit) = (0u64, 0u64);

    let before = live_bytes();
    let started = Instant::now();
    let router = build_router(registry, &items).expect("router build");
    let map = wrap(Arc::clone(&router) as Arc<dyn ConcurrentMap>);
    let mut setup_s = 0.0;

    let mut produce = || {
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // The router pins its worker to CPU 0; keep the generator
                // off it so it can hold its schedule.
                pma_engine::affinity::pin_current_thread(1);
                for arrival in &warm_up {
                    // Closed loop: a shed insert is retried until the queue
                    // takes it.
                    loop {
                        match serve_op(map.as_ref(), &preload, arrival) {
                            Ok(()) => inserted[arrival.rank as usize] |= !arrival.probe,
                            Err(ServeFault::Shed) => continue,
                            Err(ServeFault::WrongValue) => stats.failed += 1,
                        }
                        break;
                    }
                }
                setup_s = started.elapsed().as_secs_f64();
                let start = Instant::now();
                let now_ns = || start.elapsed().as_nanos() as u64;
                let mut measured_from = None;
                let mut previous_done = 0;
                for arrival in &schedule {
                    let mut issued = now_ns();
                    while issued < arrival.due_ns {
                        std::hint::spin_loop();
                        issued = now_ns();
                    }
                    let measuring = arrival.due_ns >= warm_ns;
                    if measuring && measured_from.is_none() {
                        measured_from = Some(Instant::now());
                    }
                    match serve_op(map.as_ref(), &preload, arrival) {
                        Ok(()) => inserted[arrival.rank as usize] |= !arrival.probe,
                        Err(ServeFault::Shed) => shed += 1,
                        Err(ServeFault::WrongValue) => stats.failed += 1,
                    }
                    if measuring {
                        let sojourn = now_ns() - arrival.due_ns;
                        if arrival.probe {
                            stats.get_lat.record(sojourn);
                            stats.gets += 1;
                            stats.elements += 1;
                            over_limit += (sojourn > SOJOURN_LIMIT_NS) as u64;
                        } else {
                            stats.insert_lat.record(sojourn);
                            stats.updates += 1;
                        }
                    }
                    // The generator's own lateness: an op whose predecessor
                    // returned after it was due was held up by the program
                    // (its sojourn time shows that), not by the generator.
                    if measuring {
                        lag.record(issued - arrival.due_ns.max(previous_done));
                    }
                    previous_done = now_ns();
                }
                stats.elapsed = measured_from.map_or(Duration::ZERO, |t| t.elapsed());
            });
        })
    };
    match tracer {
        Some(tracer) => tracer.window(&map, produce),
        None => produce(),
    }
    let end_depth = router.ingress_depth();

    let mut expected = totals(items.iter().copied());
    for (rank, _) in inserted.iter().enumerate().filter(|(_, &done)| done) {
        let (key, value) = gen::pair(preload.p(rank as u64), 1);
        expected.visit(key, value);
    }
    let mut problems = Vec::new();
    let check = check_end_state(map.as_ref(), expected, &mut problems);
    let bytes_per_key = (live_bytes() - before) as f64 / expected.count as f64;
    stats.failed += shed;
    ServeSegment {
        stats,
        lag,
        shed,
        over_limit,
        end_depth,
        setup_s,
        bytes_per_key,
        check,
        router: router.stats(),
        problems,
    }
}

/// The service use-case: working set in L2, open loop. `setups` segments at
/// the middle rate, a fresh structure each; latencies are sojourn times
/// from the scheduled arrival.
fn serve_skew_small(mut cfg: RunCfg) -> Outcome {
    let registry = registry();
    let zipf = Zipf::new(SERVE_RANKS);
    let mut out = Outcome::default();
    let segments = cfg.setups.max(1);
    let mut all = ClientStats::default();
    let mut lag = Histogram::new();
    let (mut setup_s, mut mops, mut meps, mut bytes) = (vec![], vec![], vec![], vec![]);
    let (mut check, mut over_limit) = (Duration::ZERO, 0);
    for segment in 0..segments {
        let seg = serve_segment(
            &registry,
            hash2(cfg.seed, stream::ROUND + segment as u64),
            &zipf,
            RATES[1],
            cfg.seconds / segments as f64,
            cfg.wrap,
            cfg.tracer.as_deref_mut(),
        );
        setup_s.push(seg.setup_s);
        mops.push(
            seg.stats
                .per_second(seg.stats.updates - seg.shed.min(seg.stats.updates))
                / 1e6,
        );
        meps.push(seg.stats.per_second(seg.stats.elements) / 1e6);
        bytes.push(seg.bytes_per_key);
        all.merge(&seg.stats);
        all.elapsed += seg.stats.elapsed;
        lag.merge(&seg.lag);
        check += seg.check;
        over_limit += seg.over_limit;
        out.problems.extend(seg.problems);
    }
    report_clients(&mut out, &all);
    let lag_p99_us = lag.percentile(0.99).unwrap_or(f64::MAX) / 1e3;
    if lag_p99_us > GEN_LAG_LIMIT_US {
        // Reported, not fatal: the numbers stand but say less about the
        // program than about the generator.
        eprintln!("serve-skew-small: INVALID, generator lag p99 {lag_p99_us:.1} us");
    }
    out.metrics.insert("setup_s", median(&mut setup_s));
    out.metrics.insert("update_mops", median(&mut mops));
    out.metrics.insert("read_meps", median(&mut meps));
    out.metrics.insert("bytes_per_key", median(&mut bytes));
    out.extras.insert("e2e.window_s", all.elapsed.as_secs_f64());
    out.extras.insert(
        "e2e.deadline_miss_frac",
        over_limit as f64 / all.gets.max(1) as f64,
    );
    out.extras.insert("bench.gen_lag_p99_us", lag_p99_us);
    out.extras.insert("bench.check_s", check.as_secs_f64());
    out
}
