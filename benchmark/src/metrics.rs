//! The metric tables: every name `pmabench` prints, with its unit and
//! better-direction. `BENCHMARK.json` carries the same tables (plus the
//! regression bound of each end-to-end metric); `pmabench validate` checks
//! the two against each other.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn up(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn down(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

/// End-to-end metrics: measured with tracing off, reported by every
/// workload. Latencies are measured from when the op was due — its issue
/// time in the closed loops, its scheduled arrival in the open loop.
pub const END_TO_END: &[MetricDef] = &[
    down("setup_s", "s"),
    up("update_mops", "Mops/s"),
    up("read_meps", "Melem/s"),
    down("insert_p50_ns", "ns"),
    down("get_p50_ns", "ns"),
    down("bytes_per_key", "B"),
];

/// Per-layer metrics: the separate traced run. Layer = crate/module name.
pub const PER_LAYER: &[MetricDef] = &[
    // common: the SIMD kernels.
    down("common.simd_count_le_ns", "ns"),
    down("common.simd_route_ns", "ns"),
    up("common.simd_append_run_meps", "Melem/s"),
    // core: static index and chunk, on benchmark-side replicas.
    down("core.index_find_gate_ns", "ns"),
    down("core.chunk_get_ns", "ns"),
    down("core.chunk_insert_ns", "ns"),
    up("core.chunk_scan_meps", "Melem/s"),
    up("core.chunk_merge_batch_meps", "Melem/s"),
    // core: the concurrent PMA, quiescent and single-threaded.
    down("core.pma_get_ns", "ns"),
    down("core.gate_admission_ns", "ns"),
    down("core.pma_insert_ns", "ns"),
    down("core.pma_remove_ns", "ns"),
    down("core.pma_range100_ns", "ns"),
    up("core.pma_scan_meps", "Melem/s"),
    down("core.scan_latch_overhead_frac", "ratio"),
    up("core.pma_contended_scan_meps", "Melem/s"),
    up("core.pma_contended_update_mops", "Mops/s"),
    up("core.scan_contended_ratio", "ratio"),
    up("core.bulk_load_mkeys_s", "Mkeys/s"),
    down("core.frozen_capture_us", "us"),
    up("core.frozen_scan_meps", "Melem/s"),
    down("core.downsize_thrash_us", "us"),
    // core: rebalancer / epoch / CoW counters over the traced window.
    down("core.local_rebalances_per_kop", "1/kop"),
    down("core.global_rebalances_per_kop", "1/kop"),
    down("core.resizes", "count"),
    down("core.resize_restarts", "count"),
    down("core.combined_ops_per_kop", "1/kop"),
    down("core.gate_misses_per_kop", "1/kop"),
    up("core.owned_applies", "count"),
    down("core.late_replays", "count"),
    down("core.cow_copies", "count"),
    down("core.gate_wait_ns_per_op", "ns"),
    down("core.redistribute_ns_per_op", "ns"),
    down("core.resize_ns_total", "ns"),
    down("core.epoch_reclaims", "count"),
    // core: the byte PMA.
    down("core.bpma_bytes_per_key", "B"),
    up("core.bpma_load_mkeys_s", "Mkeys/s"),
    up("core.bpma_prefix_scan_meps", "Melem/s"),
    // engine: the sharded map.
    down("engine.sharded_get_ns", "ns"),
    down("engine.route_overhead_ns", "ns"),
    up("engine.sharded_scan_meps", "Melem/s"),
    up("engine.scan_merge_ratio", "ratio"),
    up("engine.sharded_mixed_ratio", "ratio"),
    down("engine.splits", "count"),
    down("engine.merges", "count"),
    down("engine.split_stall_us", "us"),
    down("engine.chase_rounds", "count"),
    // engine: the router.
    down("engine.router_ship_sync_us", "us"),
    down("engine.router_ship_async_ns", "ns"),
    up("engine.router_sat_kops", "kops/s"),
    up("engine.router_max_rate_kops", "kops/s"),
    down("engine.sojourn_p99_us_r1", "us"),
    down("engine.sojourn_p99_us_r2", "us"),
    down("engine.sojourn_p99_us_r3", "us"),
    down("engine.ingress_depth_p99", "count"),
    up("engine.coalesced_frac", "ratio"),
    down("engine.shed_frac", "ratio"),
    down("engine.op_ship_ns_p50", "ns"),
    up("engine.ingress_drain_ops_mean", "count"),
    // baselines: reference rows.
    down("baselines.btree_get_ns", "ns"),
    down("baselines.btree_insert_ns", "ns"),
    down("baselines.btree_range100_ns", "ns"),
    up("baselines.btree_scan_meps", "Melem/s"),
    down("baselines.btree_bytes_per_key", "B"),
    up("baselines.btree_contended_scan_meps", "Melem/s"),
    up("baselines.btree_contended_update_mops", "Mops/s"),
    down("baselines.art_get_ns", "ns"),
    up("core.scan_vs_btree", "ratio"),
    // obs: the cost of the tracing layer.
    down("obs.span_disabled_ns", "ns"),
    down("obs.span_enabled_ns", "ns"),
    down("obs.trace_overhead_frac", "ratio"),
    // graph.
    up("graph.ingest_medges_s", "Medges/s"),
    up("graph.pagerank_medges_s", "Medges/s"),
    // bench: the harness itself — validity, not performance.
    down("bench.gen_lag_p99_us", "us"),
    down("bench.clock_pair_ns", "ns"),
    down("bench.span_pair_ns", "ns"),
    down("bench.check_s", "s"),
    up("bench.self_time_cover_frac", "ratio"),
    // e2e: workload-side numbers that not every workload has (0 where the
    // workload has no such op), and the sample counts of the percentiles.
    down("e2e.insert_p90_ns", "ns"),
    down("e2e.insert_p99_ns", "ns"),
    down("e2e.get_p90_ns", "ns"),
    down("e2e.get_p99_ns", "ns"),
    down("e2e.scan_op_p50_ns", "ns"),
    down("e2e.deadline_miss_frac", "ratio"),
    up("e2e.window_s", "s"),
    up("e2e.insert_samples", "count"),
    up("e2e.get_samples", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_use_the_allowed_characters_once() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} is listed twice", m.name);
            assert!(m.name.len() <= 64 && m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16 && !m.unit.is_empty());
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
