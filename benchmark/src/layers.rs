//! The layer probes of the traced run: single-threaded, quiescent
//! measurements of each layer at the size of the large workloads, taken from
//! outside through the program's public functions. None of them depends on
//! the workload being traced.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use pma_common::{simd, ConcurrentMap, Key, Registry, ScanStats, Value, KEY_MIN};
use pma_core::concurrent::chunk::ChunkData;
use pma_core::concurrent::static_index::StaticIndex;
use pma_core::{ConcurrentPma, UpdateMode};
use pma_engine::{CoreRouter, CoreRouterConfig, OverloadPolicy, ShardedConfig, ShardedMap};
use pma_obs::trace::Category;

use crate::alloc::live_bytes;
use crate::gen::{self, stream, Mix, OwnKeys, Preload, Rng, Zipf, RANGE_LEN};
use crate::intercept::{Hooks, Intercept};
use crate::span::{self_times, Recorder};
use crate::tracing::Tracer;
use crate::workloads::{
    self, build_router, serve_segment, Client, ClientStats, MIX_KEYS, RATES, SCAN_KEYS,
    SERVE_RANKS, SMALL_KEYS,
};

pub type Metrics = BTreeMap<&'static str, f64>;

/// The update mode behind the `pma-batch:100` spec.
const BATCH_100MS: UpdateMode = UpdateMode::Batch {
    t_delay: Duration::from_millis(100),
};

/// Nanoseconds per call of `op` over `n` calls.
fn ns_per_op(n: u64, mut op: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    for i in 0..n {
        op(i);
    }
    started.elapsed().as_nanos() as f64 / n as f64
}

/// Millions of elements per second: the median of three `pass`es, each
/// returning how many elements it covered.
fn meps(mut pass: impl FnMut() -> u64) -> f64 {
    let mut rates: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            let elements = pass();
            elements as f64 / started.elapsed().as_secs_f64() / 1e6
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[1]
}

/// Benchmark-side replicas of a bulk-loaded PMA's static index and chunks:
/// the same public `StaticIndex` / `ChunkData` types, laid out like a PMA of
/// `gates` gates holding `items`, so the two innermost layers can be timed
/// without the latches and epochs around them.
struct Replica {
    index: StaticIndex,
    chunks: Vec<ChunkData>,
}

impl Replica {
    fn new(items: &[(Key, Value)], gates: usize) -> Self {
        let params = pma_core::backends::paper_pma_params(UpdateMode::Synchronous, 128);
        let segments = params.segments_per_gate;
        let mut stream = items.iter().copied();
        let mut chunks = Vec::with_capacity(gates);
        let mut separators = Vec::with_capacity(gates);
        for gate in 0..gates {
            // Spread what is left evenly over the gates (and segments) left.
            let share = stream.len().div_ceil(gates - gate);
            let targets: Vec<usize> = (0..segments)
                .map(|s| share / segments + (s < share % segments) as usize)
                .collect();
            let chunk =
                ChunkData::from_stream(segments, params.segment_capacity, &targets, &mut stream);
            separators.push(if gate == 0 {
                KEY_MIN
            } else {
                chunk.min_key().expect("no empty gate")
            });
            chunks.push(chunk);
        }
        Replica {
            index: StaticIndex::new(params.index_node_fanout, &separators),
            chunks,
        }
    }
}

fn probe_common(m: &mut Metrics, seed: u64) {
    let mut rng = Rng::new(seed, stream::PROBE);
    let run: Vec<Key> = (0..128).map(|i| i * 1000).collect();
    let separators = simd::AlignedKeys::from_slice(&run[..64]);
    let probes: Vec<Key> = (0..4096).map(|_| rng.below(128_000) as Key).collect();
    let mut sink = 0usize;
    m.insert(
        "common.simd_count_le_ns",
        ns_per_op(4_000_000, |i| {
            sink += simd::count_le(black_box(&run), probes[i as usize % 4096])
        }),
    );
    m.insert(
        "common.simd_route_ns",
        ns_per_op(4_000_000, |i| {
            sink += simd::route(black_box(&separators), probes[i as usize % 4096] / 2)
        }),
    );
    black_box(sink);
    let src: Vec<i64> = (0..1024).collect();
    let mut dst: Vec<i64> = Vec::with_capacity(1 << 20);
    m.insert(
        "common.simd_append_run_meps",
        meps(|| {
            let mut appended = 0;
            for _ in 0..64 {
                dst.clear();
                for _ in 0..1024 {
                    simd::append_run(&mut dst, black_box(&src));
                    appended += 1024;
                }
            }
            black_box(dst.len());
            appended
        }),
    );
}

const POINT_PROBES: u64 = 400_000;

/// `(gate, key)` of random preloaded keys, precomputed so a chunk probe
/// times the chunk alone.
fn routed_keys(replica: &Replica, preload: &Preload, rng: &mut Rng, n: u64) -> Vec<(u32, Key)> {
    (0..n)
        .map(|_| {
            let key = preload.pair(rng.below(preload.n)).0;
            (replica.index.find_gate(key) as u32, key)
        })
        .collect()
}

fn probe_index_and_chunks(m: &mut Metrics, seed: u64, replica: &mut Replica, preload: &Preload) {
    let mut rng = Rng::new(seed, stream::PROBE + 1);
    let keys: Vec<Key> = (0..POINT_PROBES)
        .map(|_| preload.pair(rng.below(preload.n)).0)
        .collect();
    let mut sink = 0usize;
    m.insert(
        "core.index_find_gate_ns",
        ns_per_op(POINT_PROBES, |i| {
            sink += replica.index.find_gate(keys[i as usize])
        }),
    );
    let routed = routed_keys(replica, preload, &mut rng, POINT_PROBES);
    let mut hits = 0u64;
    m.insert(
        "core.chunk_get_ns",
        ns_per_op(POINT_PROBES, |i| {
            let (gate, key) = routed[i as usize];
            hits += replica.chunks[gate as usize].get(key).is_some() as u64;
        }),
    );
    assert_eq!(
        hits, POINT_PROBES,
        "replica chunks hold every preloaded key"
    );
    black_box(sink);

    m.insert(
        "core.chunk_scan_meps",
        meps(|| {
            let mut stats = ScanStats::default();
            replica
                .chunks
                .iter()
                .for_each(|chunk| chunk.scan(&mut stats));
            assert_eq!(stats.count, preload.n);
            stats.count
        }),
    );

    // Mutating probes last. Merge: a sorted 32-key batch into every 16th
    // chunk (a coalesced run landing on one gate); throughput in elements of
    // the rewritten chunk.
    let started = Instant::now();
    let mut rewritten = 0u64;
    for chunk in replica.chunks.iter_mut().step_by(16) {
        let mut members = Vec::new();
        let step = (chunk.cardinality() / 32).max(1);
        chunk
            .iter()
            .step_by(step)
            .for_each(|(key, value)| members.push((key + 1, value)));
        members.truncate(32);
        chunk.merge_batch(&members);
        rewritten += chunk.cardinality() as u64;
    }
    m.insert(
        "core.chunk_merge_batch_meps",
        rewritten as f64 / started.elapsed().as_secs_f64() / 1e6,
    );
    let routed = routed_keys(replica, preload, &mut rng, POINT_PROBES);
    m.insert(
        "core.chunk_insert_ns",
        ns_per_op(POINT_PROBES, |i| {
            let (gate, key) = routed[i as usize];
            // Next to a preloaded key; a full segment answers in about the
            // same time and is left alone.
            black_box(replica.chunks[gate as usize].try_insert(key + 2, key / 16));
        }),
    );
}

/// One updater plus one `scan_all` looper for `seconds` on `map`: the
/// `scan-update-large` shape as a layer probe. Returns (scan Melem/s, update
/// Mops/s).
fn contended(
    map: &Arc<dyn ConcurrentMap>,
    preload: &Preload,
    seed: u64,
    seconds: f64,
) -> (f64, f64) {
    let mut clients = vec![Client::new(seed, 3, Mix::Update, preload.n)];
    let mut scanner = ClientStats::default();
    workloads::prime_and_drive(
        map,
        preload,
        &mut clients,
        Some(&mut scanner),
        Duration::from_millis(200),
        Duration::from_secs_f64(seconds),
        None,
    );
    assert_eq!(
        clients[0].stats.failed + scanner.failed,
        0,
        "contended probe saw a wrong answer"
    );
    (
        scanner.elements as f64 / scanner.elapsed.as_secs_f64() / 1e6,
        clients[0].stats.updates as f64 / clients[0].stats.elapsed.as_secs_f64() / 1e6,
    )
}

/// What [`probe_map`] measured.
struct MapProbe {
    get_ns: f64,
    insert_ns: f64,
    remove_ns: f64,
    range100_ns: f64,
    scan_meps: f64,
}

/// Point, range and scan probes shared by the PMA and the B+-tree. `own`
/// keys are inserted and removed again, so the map ends as it started.
fn probe_map(map: &dyn ConcurrentMap, preload: &Preload, own: &OwnKeys, rng: &mut Rng) -> MapProbe {
    let keys: Vec<(Key, Value)> = (0..POINT_PROBES)
        .map(|_| preload.pair(rng.below(preload.n)))
        .collect();
    let mut wrong = 0u64;
    let get_ns = ns_per_op(POINT_PROBES, |i| {
        let (key, value) = keys[i as usize];
        wrong += (map.get(key) != Some(value)) as u64;
    });
    let insert_ns = ns_per_op(POINT_PROBES, |i| {
        let (key, value) = own.pair(i);
        map.insert(key, value);
    });
    map.flush();
    let remove_ns = ns_per_op(POINT_PROBES, |i| {
        map.remove(own.pair(i).0);
    });
    map.flush();
    let starts: Vec<u64> = (0..100_000)
        .map(|_| rng.below(preload.n - RANGE_LEN))
        .collect();
    let range100_ns = ns_per_op(starts.len() as u64, |i| {
        let j = starts[i as usize];
        let seen = map.scan_range(preload.pair(j).0, preload.pair(j + RANGE_LEN - 1).0);
        wrong += (seen.count != RANGE_LEN) as u64;
    });
    let scan_meps = meps(|| {
        let seen = map.scan_all();
        wrong += (seen.count != preload.n) as u64;
        seen.count
    });
    assert_eq!(wrong, 0, "a layer probe saw a wrong answer");
    MapProbe {
        get_ns,
        insert_ns,
        remove_ns,
        range100_ns,
        scan_meps,
    }
}

fn probe_pma(m: &mut Metrics, seed: u64, items: &[(Key, Value)], preload: &Preload) -> usize {
    let params = pma_core::backends::paper_pma_params(BATCH_100MS, 128);
    let started = Instant::now();
    let pma = Arc::new(ConcurrentPma::from_sorted(params, items).expect("bulk load"));
    m.insert(
        "core.bulk_load_mkeys_s",
        items.len() as f64 / started.elapsed().as_secs_f64() / 1e6,
    );
    let gates = pma.num_gates();
    let mut rng = Rng::new(seed, stream::PROBE + 2);
    let probe = probe_map(pma.as_ref(), preload, &OwnKeys::new(seed, 2), &mut rng);
    m.insert("core.pma_get_ns", probe.get_ns);
    m.insert("core.pma_insert_ns", probe.insert_ns);
    m.insert("core.pma_remove_ns", probe.remove_ns);
    m.insert("core.pma_range100_ns", probe.range100_ns);
    m.insert("core.pma_scan_meps", probe.scan_meps);

    let started = Instant::now();
    let mut view = None;
    for _ in 0..10 {
        view = Some(ConcurrentPma::frozen(&pma));
    }
    m.insert(
        "core.frozen_capture_us",
        started.elapsed().as_secs_f64() * 1e6 / 10.0,
    );
    let view = view.expect("ten captures");
    m.insert(
        "core.frozen_scan_meps",
        meps(|| pma_common::FrozenView::scan_all(&view).count),
    );
    drop(view);

    let map: Arc<dyn ConcurrentMap> = pma;
    let (scan_meps, update_mops) = contended(&map, preload, seed, 2.0);
    m.insert("core.pma_contended_scan_meps", scan_meps);
    m.insert("core.pma_contended_update_mops", update_mops);
    gates
}

/// A bulk load below density 0.5 leaves the PMA one `remove` away from a
/// downsize that rebuilds the whole array into the same capacity — and so
/// does the next remove. The workloads' sizes stay clear of this; the probe
/// keeps a number on it: microseconds per remove (flush included) on 100 000
/// keys loaded at density 0.38.
fn probe_downsize_thrash(m: &mut Metrics, seed: u64, registry: &Registry) {
    let preload = Preload::new(seed, 100_000);
    let map = registry
        .build_loaded("pma-batch:100", &preload.items())
        .expect("load");
    let started = Instant::now();
    for j in 0..50 {
        map.remove(preload.pair(j * 1000).0);
    }
    map.flush();
    m.insert(
        "core.downsize_thrash_us",
        started.elapsed().as_secs_f64() * 1e6 / 50.0,
    );
}

fn probe_baselines(
    m: &mut Metrics,
    seed: u64,
    registry: &Registry,
    items: &[(Key, Value)],
    preload: &Preload,
) {
    let before = live_bytes();
    let btree = registry.build_loaded("btree", items).expect("btree load");
    m.insert(
        "baselines.btree_bytes_per_key",
        (live_bytes() - before) as f64 / items.len() as f64,
    );
    let mut rng = Rng::new(seed, stream::PROBE + 3);
    let probe = probe_map(btree.as_ref(), preload, &OwnKeys::new(seed, 2), &mut rng);
    m.insert("baselines.btree_get_ns", probe.get_ns);
    m.insert("baselines.btree_insert_ns", probe.insert_ns);
    m.insert("baselines.btree_range100_ns", probe.range100_ns);
    m.insert("baselines.btree_scan_meps", probe.scan_meps);
    let (scan_meps, update_mops) = contended(&btree, preload, seed, 2.0);
    m.insert("baselines.btree_contended_scan_meps", scan_meps);
    m.insert("baselines.btree_contended_update_mops", update_mops);
    drop(btree);

    let art = registry.build_loaded("art", items).expect("art load");
    let keys: Vec<(Key, Value)> = (0..POINT_PROBES)
        .map(|_| preload.pair(rng.below(preload.n)))
        .collect();
    let mut wrong = 0u64;
    m.insert(
        "baselines.art_get_ns",
        ns_per_op(POINT_PROBES, |i| {
            let (key, value) = keys[i as usize];
            wrong += (art.get(key) != Some(value)) as u64;
        }),
    );
    assert_eq!(wrong, 0, "art returned a wrong value");
}

/// The recorder the span hooks write to. A registry backend is built by a
/// plain `fn`, which cannot capture one, hence the process-wide slot.
static STACK_RECORDER: OnceLock<Arc<Recorder>> = OnceLock::new();
/// Span hooks record only while the stack probe issues its ops.
static STACK_RECORDING: AtomicBool = AtomicBool::new(false);

/// Records a span named after the layer around each `get` into it.
struct SpanHooks(&'static str);

impl Hooks for SpanHooks {
    fn get(&self, inner: &dyn ConcurrentMap, key: Key) -> Option<Value> {
        if !STACK_RECORDING.load(Ordering::Relaxed) {
            return inner.get(key);
        }
        let recorder = STACK_RECORDER.get().expect("set before recording starts");
        let span = recorder.begin(self.0);
        let result = inner.get(key);
        recorder.end(span);
        result
    }
}

const STACK_OPS: u64 = 20_000;

/// The workloads' PMA (`pma-batch:100`) behind a `core.pma` span. Built
/// directly: the sharded engine hands its inner builder a private registry
/// that holds nothing else to delegate to.
fn spanned_pma(items: &[(Key, Value)]) -> Arc<dyn ConcurrentMap> {
    let params = pma_core::backends::paper_pma_params(BATCH_100MS, 128);
    Arc::new(Intercept {
        inner: Arc::new(ConcurrentPma::from_sorted(params, items).expect("bulk load")),
        hooks: SpanHooks("core.pma"),
    })
}

/// The nested probe: one synchronous `get` at a time through
/// router > sharded > pma, each boundary wrapped in a benchmark-side span
/// (real nesting, one clock, across the hop to the router's worker thread).
/// The two layers inside the PMA cannot be wrapped in place: the same key is
/// replayed through the replica's index and chunk and laid into the PMA span.
fn probe_stack(
    m: &mut Metrics,
    seed: u64,
    recorder: &Arc<Recorder>,
    items: &[(Key, Value)],
    preload: &Preload,
    replica: &Replica,
) {
    STACK_RECORDER.get_or_init(|| Arc::clone(recorder));
    let registry = Registry::new();
    registry.register(pma_common::BackendDef {
        name: "spanpma",
        description: "pma-batch:100 with a benchmark span around get (layer probe)",
        label: |_| "PMA Batch 100ms (spanned)".into(),
        build: |_, _| Ok(spanned_pma(&[])),
        build_loaded: Some(|_, _, items| Ok(spanned_pma(items))),
    });
    // Eight shards that stay eight: the probe wants a fixed shape, not the
    // load monitor's splits.
    let config = ShardedConfig {
        shards: 8,
        inner_spec: "spanpma".into(),
        auto_manage: false,
        ..ShardedConfig::default()
    };
    let sharded =
        Arc::new(ShardedMap::from_sorted(config, &registry, items).expect("sharded load"));
    m.insert(
        "engine.sharded_scan_meps",
        meps(|| sharded.scan_all().count),
    );
    let spanned: Arc<dyn ConcurrentMap> = Arc::new(Intercept {
        inner: sharded,
        hooks: SpanHooks("engine.sharded"),
    });
    let router_config = CoreRouterConfig {
        workers: 1,
        queue_depth: 4096,
        policy: OverloadPolicy::Block,
        pin: true,
    };
    let router = CoreRouter::new(router_config, spanned).expect("router");

    // What one begin/end pair costs its parent span.
    let pair_ns = ns_per_op(100_000, |_| recorder.end(recorder.begin("bench.pair")));
    recorder.take();
    m.insert("bench.span_pair_ns", pair_ns);

    let mut rng = Rng::new(seed, stream::PROBE + 4);
    let mut wrong = 0u64;
    STACK_RECORDING.store(true, Ordering::Relaxed);
    for _ in 0..STACK_OPS {
        let (key, value) = preload.pair(rng.below(preload.n));
        recorder.next_op();
        let root = recorder.begin("engine.router");
        wrong += (router.get(key) != Some(value)) as u64;
        recorder.end(root);
        let started = Instant::now();
        let gate = black_box(replica.index.find_gate(key));
        let index_ns = started.elapsed().as_nanos() as u64;
        let started = Instant::now();
        black_box(replica.chunks[gate].get(key));
        let chunk_ns = started.elapsed().as_nanos() as u64;
        // Spans of this op: router, sharded, pma — the PMA's is the last.
        let pma = recorder
            .last_named("core.pma")
            .expect("the get reached a PMA");
        recorder.add_replayed_child(pma, "core.index", index_ns);
        recorder.add_replayed_child(pma, "core.chunk", chunk_ns);
    }
    STACK_RECORDING.store(false, Ordering::Relaxed);
    assert_eq!(wrong, 0, "the stack probe saw a wrong answer");

    let layers = self_times(&recorder.spans());
    let per_op = |name: &str, pick: fn(&crate::span::LayerTime) -> u64| {
        layers
            .get(name)
            .map_or(0.0, |l| pick(l) as f64 / l.count as f64)
    };
    // A parent's self time contains the begin/end pair of its one real child.
    m.insert(
        "engine.router_ship_sync_us",
        (per_op("engine.router", |l| l.self_ns) - pair_ns).max(0.0) / 1e3,
    );
    m.insert(
        "engine.sharded_get_ns",
        per_op("engine.sharded", |l| l.total_ns) - pair_ns,
    );
    m.insert(
        "engine.route_overhead_ns",
        (per_op("engine.sharded", |l| l.self_ns) - pair_ns).max(0.0),
    );
    let self_sum: u64 = layers.values().map(|l| l.self_ns).sum();
    m.insert(
        "bench.self_time_cover_frac",
        self_sum as f64 / layers["engine.router"].total_ns as f64,
    );
}

fn probe_sharded_mix(m: &mut Metrics, seed: u64, registry: &Registry) {
    let preload = Preload::new(seed, MIX_KEYS);
    let items = preload.items();
    let mut rates = [0.0; 2];
    for (rate, spec) in rates
        .iter_mut()
        .zip(["sharded:4:pma-batch:100", "pma-batch:100"])
    {
        let map = registry.build_loaded(spec, &items).expect("small load");
        let mut clients = vec![Client::new(seed, 0, Mix::Interleaved, preload.n)];
        workloads::prime_and_drive(
            &map,
            &preload,
            &mut clients,
            None,
            Duration::from_millis(200),
            Duration::from_secs(1),
            None,
        );
        assert_eq!(clients[0].stats.failed, 0);
        *rate = clients[0].stats.ops() as f64 / clients[0].stats.elapsed.as_secs_f64();
    }
    m.insert("engine.sharded_mixed_ratio", rates[0] / rates[1]);
}

/// Closed-loop saturation of the serve mix: one client, back to back, a shed
/// insert retried until the queue takes it.
fn router_saturation(seed: u64, registry: &Registry, zipf: &Zipf) -> f64 {
    let preload = Preload::new(seed, SMALL_KEYS);
    let router = build_router(registry, &preload.items()).expect("router build");
    let mut rng = Rng::new(seed, stream::PROBE + 5);
    let window = Duration::from_millis(1500);
    let (mut ops, mut started) = (0u64, Instant::now());
    let mut warm = true;
    loop {
        if warm && started.elapsed() > Duration::from_millis(300) {
            (warm, ops, started) = (false, 0, Instant::now());
        } else if !warm && started.elapsed() > window {
            break;
        }
        for i in 0..256 {
            let p = preload.p(zipf.sample(&mut rng));
            if i % gen::PROBE_EVERY == gen::PROBE_EVERY - 1 {
                black_box(router.get(gen::pair(p, 0).0));
            } else {
                let (key, value) = gen::pair(p, 1);
                while router.try_insert(key, value).is_err() {
                    std::hint::spin_loop();
                }
            }
        }
        ops += 256;
    }
    let rate = ops as f64 / started.elapsed().as_secs_f64();
    router.flush();
    rate
}

fn probe_router(m: &mut Metrics, seed: u64, registry: &Registry, recorder: &Arc<Recorder>) {
    let zipf = Zipf::new(SERVE_RANKS);
    m.insert(
        "engine.router_sat_kops",
        router_saturation(seed, registry, &zipf) / 1e3,
    );

    // Asynchronous ship: what `try_insert` costs its caller, in bursts the
    // queue can hold.
    let preload = Preload::new(seed, SMALL_KEYS);
    let router = build_router(registry, &preload.items()).expect("router build");
    let mut total = Duration::ZERO;
    for burst in 0..50u64 {
        let started = Instant::now();
        for i in 0..2000 {
            let (key, value) = gen::pair(preload.p((burst * 2000 + i) % SMALL_KEYS), 1);
            black_box(router.try_insert(key, value).is_ok());
        }
        total += started.elapsed();
        router.flush();
    }
    m.insert(
        "engine.router_ship_async_ns",
        total.as_nanos() as f64 / 100_000.0,
    );
    drop(router);

    // The three frozen rates, 1.5 s each; the router's own spans and
    // counters are read off the heaviest.
    let mut max_rate = 0.0;
    for (rate, name) in RATES.into_iter().zip([
        "engine.sojourn_p99_us_r1",
        "engine.sojourn_p99_us_r2",
        "engine.sojourn_p99_us_r3",
    ]) {
        let mut tracer = Tracer::new(Arc::clone(recorder));
        let heaviest = rate == RATES[2];
        let seg = serve_segment(
            registry,
            seed ^ rate,
            &zipf,
            rate,
            1.5,
            workloads::no_wrap,
            heaviest.then_some(&mut tracer),
        );
        assert!(seg.problems.is_empty(), "router probe: {:?}", seg.problems);
        m.insert(
            name,
            seg.stats.get_lat.percentile(0.99).unwrap_or(0.0) / 1e3,
        );
        if seg.meets_limit() {
            max_rate = rate as f64 / 1e3;
        }
        if heaviest {
            let shipped = seg.router.shipped_ops + seg.router.ops_shed;
            m.insert(
                "engine.shed_frac",
                seg.router.ops_shed as f64 / shipped.max(1) as f64,
            );
            m.insert(
                "engine.coalesced_frac",
                seg.router.coalesced_inserts as f64 / seg.router.shipped_ops.max(1) as f64,
            );
            m.insert(
                "engine.ingress_depth_p99",
                tracer.ingress_depth.percentile(0.99).unwrap_or(0.0),
            );
            m.insert(
                "engine.op_ship_ns_p50",
                tracer.op_ship.percentile(0.5).unwrap_or(0.0),
            );
            let drains = tracer.category(Category::IngressDrain);
            m.insert(
                "engine.ingress_drain_ops_mean",
                drains.payload as f64 / drains.count.max(1) as f64,
            );
        }
    }
    m.insert("engine.router_max_rate_kops", max_rate);
}

fn probe_bpma(m: &mut Metrics, seed: u64, registry: &Registry) {
    let keys = gen::url_keys(seed, 500_000);
    let started = Instant::now();
    let map = registry
        .build_bytes_loaded("bpma:128", &keys)
        .expect("bpma load");
    m.insert(
        "core.bpma_load_mkeys_s",
        keys.len() as f64 / started.elapsed().as_secs_f64() / 1e6,
    );
    m.insert(
        "core.bpma_bytes_per_key",
        map.memory_stats()
            .map_or(0.0, |stats| stats.bytes_per_key()),
    );
    m.insert(
        "core.bpma_prefix_scan_meps",
        meps(|| {
            let seen = map.prefix_stats(b"https://www.host0");
            assert!(seen.count > 0);
            seen.count
        }),
    );
}

fn probe_graph(m: &mut Metrics, seed: u64) {
    let mut rng = Rng::new(seed, stream::PROBE + 6);
    let vertices = 1 << 17;
    let edges: Vec<(u32, u32, i64)> = (0..1_000_000)
        .map(|_| {
            let src = rng.below(vertices) as u32;
            let dst = (src as u64 + 1 + rng.below(vertices - 1)) as u32 % vertices as u32;
            (src, dst, 1)
        })
        .collect();
    let graph = pma_graph::DynamicGraph::new();
    let started = Instant::now();
    for &(src, dst, weight) in &edges[..250_000] {
        graph.add_edge(src, dst, weight).expect("add_edge");
    }
    graph.flush();
    m.insert(
        "graph.ingest_medges_s",
        0.25 / started.elapsed().as_secs_f64(),
    );
    drop(graph);
    let params = pma_core::PmaParams::default();
    let graph = pma_graph::DynamicGraph::from_edges(params, &edges).expect("from_edges");
    let started = Instant::now();
    let ranks = pma_graph::pagerank(&graph, 2, 0.85);
    assert!(!ranks.is_empty());
    m.insert(
        "graph.pagerank_medges_s",
        2.0 * graph.num_edges() as f64 / started.elapsed().as_secs_f64() / 1e6,
    );
}

fn probe_obs_and_clock(m: &mut Metrics) {
    pma_obs::trace::set_enabled(false);
    m.insert(
        "obs.span_disabled_ns",
        ns_per_op(10_000_000, |i| {
            drop(black_box(pma_obs::span(Category::GateWait, i)))
        }),
    );
    pma_obs::trace::set_enabled(true);
    m.insert(
        "obs.span_enabled_ns",
        ns_per_op(1_000_000, |i| {
            drop(black_box(pma_obs::span(Category::GateWait, i)))
        }),
    );
    pma_obs::trace::set_enabled(false);
    pma_obs::trace::drain_all();
    m.insert(
        "bench.clock_pair_ns",
        ns_per_op(2_000_000, |_| {
            black_box(black_box(Instant::now()).elapsed());
        }),
    );
}

/// Runs every layer probe.
pub fn probe_all(seed: u64, recorder: &Arc<Recorder>) -> Metrics {
    let mut m = Metrics::new();
    let registry = workloads::registry();
    let preload = Preload::new(seed, SCAN_KEYS);
    let items = preload.items();

    probe_common(&mut m, seed);
    probe_obs_and_clock(&mut m);
    let gates = probe_pma(&mut m, seed, &items, &preload);
    let mut replica = Replica::new(&items, gates);
    probe_stack(&mut m, seed, recorder, &items, &preload, &replica);
    probe_index_and_chunks(&mut m, seed, &mut replica, &preload);
    drop(replica);
    probe_baselines(&mut m, seed, &registry, &items, &preload);
    drop(items);
    probe_downsize_thrash(&mut m, seed, &registry);
    probe_sharded_mix(&mut m, seed, &registry);
    probe_router(&mut m, seed, &registry, recorder);
    probe_bpma(&mut m, seed, &registry);
    probe_graph(&mut m, seed);

    m.insert(
        "core.gate_admission_ns",
        m["core.pma_get_ns"] - m["core.index_find_gate_ns"] - m["core.chunk_get_ns"],
    );
    m.insert(
        "core.scan_latch_overhead_frac",
        1.0 - m["core.pma_scan_meps"] / m["core.chunk_scan_meps"],
    );
    m.insert(
        "core.scan_contended_ratio",
        m["core.pma_contended_scan_meps"] / m["core.pma_scan_meps"],
    );
    m.insert(
        "core.scan_vs_btree",
        m["core.pma_scan_meps"] / m["baselines.btree_scan_meps"],
    );
    m.insert(
        "engine.scan_merge_ratio",
        m["engine.sharded_scan_meps"] / m["core.pma_scan_meps"],
    );
    m
}

/// Per-layer numbers read off a workload's traced window: deltas of the
/// counters the program exports and totals of the spans it already emits,
/// per thousand ops of the workload where a rate makes sense.
pub fn window_metrics(m: &mut Metrics, tracer: &Tracer, ops: u64) {
    let kops = ops.max(1) as f64 / 1e3;
    for (name, counter) in [
        ("core.local_rebalances_per_kop", "local_rebalances"),
        ("core.global_rebalances_per_kop", "global_rebalances"),
        ("core.combined_ops_per_kop", "combined_ops"),
        ("core.gate_misses_per_kop", "gate_misses"),
    ] {
        m.insert(name, tracer.counter(counter) / kops);
    }
    for (name, counter) in [
        ("core.resizes", "resizes"),
        ("core.resize_restarts", "resize_restarts"),
        ("core.owned_applies", "owned_applies"),
        ("core.late_replays", "late_replays"),
        ("core.cow_copies", "cow_copies"),
        ("engine.splits", "splits"),
        ("engine.merges", "merges"),
        ("engine.chase_rounds", "chase_rounds"),
    ] {
        m.insert(name, tracer.counter(counter));
    }
    m.insert("engine.split_stall_us", tracer.counter("stall_ns") / 1e3);
    let per_op = |cat| tracer.category(cat).dur_ns as f64 / ops.max(1) as f64;
    m.insert("core.gate_wait_ns_per_op", per_op(Category::GateWait));
    m.insert(
        "core.redistribute_ns_per_op",
        per_op(Category::Redistribute),
    );
    m.insert(
        "core.resize_ns_total",
        tracer.category(Category::Resize).dur_ns as f64,
    );
    m.insert(
        "core.epoch_reclaims",
        tracer.category(Category::EpochReclaim).count as f64,
    );
}
