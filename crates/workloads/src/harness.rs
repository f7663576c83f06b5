//! The measurement harness: repeats a workload, reports the median (as the
//! paper does), and renders paper-style result tables.

use pma_common::ConcurrentMap;

use crate::drivers::{run_workload, Measurement};
use crate::spec::WorkloadSpec;

/// Runs `spec` `repeats` times against fresh structures produced by `factory`
/// and returns the run with the median update throughput (the paper reports
/// medians over 5 repetitions).
pub fn measure_median<F, M>(factory: F, spec: &WorkloadSpec, repeats: usize) -> Measurement
where
    F: Fn() -> M,
    M: std::ops::Deref,
    M::Target: ConcurrentMap,
{
    assert!(repeats >= 1);
    let mut runs: Vec<Measurement> = (0..repeats)
        .map(|_| {
            let map = factory();
            run_workload(&*map, spec)
        })
        .collect();
    runs.sort_by(|a, b| {
        a.update_throughput()
            .partial_cmp(&b.update_throughput())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mid = runs.len() / 2;
    runs.swap_remove(mid)
}

/// One row of a result table.
#[derive(Debug, Clone)]
pub struct ResultRow {
    /// Structure label (e.g. "PMA Batch 100ms").
    pub structure: String,
    /// Workload label (e.g. "Zipf a=1.5").
    pub workload: String,
    /// The measurement.
    pub measurement: Measurement,
}

/// Renders rows the way the paper's figures report them: update throughput in
/// millions of elements per second and scan throughput in hundreds of
/// millions of elements per second, plus the update tail latencies
/// (p50/p99/p999 in microseconds, power-of-two bucket resolution) so effects
/// that average out of the throughput column — batch flushes, delegated
/// rebalances, shard splits — stay visible. The last three columns surface
/// the background machinery: `owned` is how many queued operations were
/// resolved while their window was owned, `late` (replays outside an owned
/// window) must read 0, `stall[us]` is how long writers were fenced out
/// by structural maintenance (the sharded engine's split/merge fences),
/// `cow` is how many chunk payloads the copy-on-write path had to copy for
/// live snapshots, `bp` counts writer back-offs under delta-log
/// backpressure, and `samples` is how many update latencies the histogram
/// columns rest on (one in `lat_sample_interval` operations) — structures
/// without the respective machinery show a dash.
pub fn render_table(title: &str, rows: &[ResultRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    out.push_str(&format!(
        "{:<20} {:<14} {:>14} {:>16} {:>9} {:>9} {:>9} {:>10} {:>10} {:>6} {:>9} {:>8} {:>6} {:>9}\n",
        "structure",
        "workload",
        "updates [M/s]",
        "scans [x10^8/s]",
        "p50[us]",
        "p99[us]",
        "p999[us]",
        "elements",
        "owned",
        "late",
        "stall[us]",
        "cow",
        "bp",
        "samples"
    ));
    for row in rows {
        let m = &row.measurement;
        let scan = if m.scan_seconds > 0.0 {
            format!("{:.3}", m.scan_throughput() / 1.0e8)
        } else {
            "-".to_string()
        };
        let (owned, late) = match m.combining {
            Some(c) => (c.owned_applies.to_string(), c.late_replays.to_string()),
            None => ("-".to_string(), "-".to_string()),
        };
        let (stall, cow, bp) = match m.maintenance {
            Some(s) => (
                (s.stall_ns / 1_000).to_string(),
                s.cow_copies.to_string(),
                s.delta_backpressure_waits.to_string(),
            ),
            None => ("-".to_string(), "-".to_string(), "-".to_string()),
        };
        out.push_str(&format!(
            "{:<20} {:<14} {:>14.3} {:>16} {:>9} {:>9} {:>9} {:>10} {:>10} {:>6} {:>9} {:>8} {:>6} {:>9}\n",
            row.structure,
            row.workload,
            m.update_throughput() / 1.0e6,
            scan,
            m.update_latency.render_us(0.50),
            m.update_latency.render_us(0.99),
            m.update_latency.render_us(0.999),
            m.final_len,
            owned,
            late,
            stall,
            cow,
            bp,
            m.update_latency.count(),
        ));
    }
    out
}

/// Renders a speed-up table (Figure 4): every row's update throughput is
/// reported relative to the row with the `baseline` structure label within
/// the same workload.
pub fn render_speedup_table(title: &str, rows: &[ResultRow], baseline: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n== {title} (speed-up vs {baseline}) ==\n"));
    out.push_str(&format!(
        "{:<20} {:<14} {:>14} {:>10}\n",
        "structure", "workload", "updates [M/s]", "speed-up"
    ));
    for row in rows {
        let base = rows
            .iter()
            .find(|r| r.workload == row.workload && r.structure == baseline)
            .map(|r| r.measurement.update_throughput())
            .unwrap_or(0.0);
        let speedup = if base > 0.0 {
            row.measurement.update_throughput() / base
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<20} {:<14} {:>14.3} {:>9.2}x\n",
            row.structure,
            row.workload,
            row.measurement.update_throughput() / 1.0e6,
            speedup,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Distribution;
    use crate::spec::{ThreadSplit, UpdatePattern};
    use pma_baselines::btree::BPlusTree;
    use std::sync::Arc;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            distribution: Distribution::Uniform,
            key_range: 1 << 14,
            total_elements: 5_000,
            threads: ThreadSplit {
                update_threads: 2,
                scan_threads: 1,
            },
            pattern: UpdatePattern::InsertOnly,
            ..WorkloadSpec::default()
        }
    }

    #[test]
    fn measure_median_runs_requested_repeats() {
        let m = measure_median(|| Arc::new(BPlusTree::with_defaults()), &spec(), 3);
        assert_eq!(m.update_ops, 5_000);
        assert!(m.update_throughput() > 0.0);
    }

    #[test]
    fn render_table_contains_rows_and_headers() {
        let m = measure_median(|| Arc::new(BPlusTree::with_defaults()), &spec(), 1);
        let rows = vec![ResultRow {
            structure: "B+tree".to_string(),
            workload: "Uniform".to_string(),
            measurement: m,
        }];
        let table = render_table("test table", &rows);
        assert!(table.contains("test table"));
        assert!(table.contains("B+tree"));
        assert!(table.contains("updates [M/s]"));
        assert!(table.contains("p50[us]"));
        assert!(table.contains("p99[us]"));
        assert!(table.contains("p999[us]"));
        assert!(table.contains("owned"));
        assert!(table.contains("late"));
        assert!(table.contains("stall[us]"));
        assert!(table.contains("cow"));
        assert!(table.contains("bp"));
        assert!(table.contains("samples"));
    }

    #[test]
    fn speedup_table_is_relative_to_baseline() {
        let fast = Measurement {
            update_ops: 200,
            update_seconds: 1.0,
            ..Measurement::default()
        };
        let slow = Measurement {
            update_ops: 100,
            update_seconds: 1.0,
            ..Measurement::default()
        };
        let rows = vec![
            ResultRow {
                structure: "Baseline".to_string(),
                workload: "Uniform".to_string(),
                measurement: slow,
            },
            ResultRow {
                structure: "Batch".to_string(),
                workload: "Uniform".to_string(),
                measurement: fast,
            },
        ];
        let table = render_speedup_table("fig4", &rows, "Baseline");
        assert!(table.contains("2.00x"));
        assert!(table.contains("1.00x"));
    }
}
