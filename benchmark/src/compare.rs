//! `pmabench agree` and `pmabench validate`: the checks that read
//! `BENCHMARK.json`.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;

const BENCHMARK_JSON: &str = "BENCHMARK.json";

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The regression bound of every end-to-end metric, from `BENCHMARK.json`.
fn bounds(benchmark: &Json) -> Result<BTreeMap<String, f64>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Json::as_str);
            let bound = entry.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(name, bound)| (name.to_string(), bound))
                .ok_or_else(|| format!("BENCHMARK.json: bad end_to_end entry {}", entry.render()))
        })
        .collect()
}

/// How two values of one metric compare under its bound.
pub fn verdict(a: Option<f64>, b: Option<f64>, bound: f64) -> &'static str {
    match (a, b) {
        (Some(a), Some(b)) if a > 0.0 && b > 0.0 => {
            if a.max(b) / a.min(b) - 1.0 <= bound {
                "agree"
            } else {
                "disagree"
            }
        }
        // Not reported on one side (too few samples for the percentile, a
        // failed run): nothing to hold against the bound.
        _ => "unresolved",
    }
}

/// `agree A.json B.json`: one row per (workload, end-to-end metric); `Ok(false)`
/// on any `disagree`.
pub fn agree(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("usage: pmabench agree A.json B.json".into());
    };
    let bounds = bounds(&load(BENCHMARK_JSON)?)?;
    let (a, b) = (load(a)?, load(b)?);
    let value = |set: &Json, workload: &str, metric: &str| {
        set.get("workloads")?
            .get(workload)?
            .get("metrics")?
            .get(metric)?
            .get("value")?
            .as_f64()
    };
    let mut all_agree = true;
    for workload in WORKLOADS {
        for def in END_TO_END {
            let bound = *bounds
                .get(def.name)
                .ok_or(format!("BENCHMARK.json: no bound for {}", def.name))?;
            let (x, y) = (value(&a, workload, def.name), value(&b, workload, def.name));
            let verdict = verdict(x, y, bound);
            all_agree &= verdict != "disagree";
            println!(
                "{workload} {} {} {} bound {bound} {verdict}",
                def.name,
                x.map_or("-".into(), |v| v.to_string()),
                y.map_or("-".into(), |v| v.to_string()),
            );
        }
    }
    Ok(all_agree)
}

fn check_table(
    benchmark: &Json,
    key: &str,
    table: &'static [MetricDef],
    problems: &mut Vec<String>,
) {
    let listed: BTreeMap<&str, &Json> = benchmark
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|entry| Some((entry.get("name")?.as_str()?, entry)))
        .collect();
    for def in table {
        match listed.get(def.name) {
            None => problems.push(format!(
                "{key}: `{}` is printed but not in BENCHMARK.json",
                def.name
            )),
            Some(entry) => {
                let field = |f| entry.get(f).and_then(Json::as_str);
                if field("unit") != Some(def.unit) || field("better") != Some(def.better.as_str()) {
                    problems.push(format!(
                        "{key}: `{}` has another unit or direction in BENCHMARK.json",
                        def.name
                    ));
                }
            }
        }
    }
    for name in listed.keys() {
        if !table.iter().any(|def| def.name == *name) {
            problems.push(format!(
                "{key}: `{name}` is in BENCHMARK.json but never printed"
            ));
        }
        let clean = name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        if !clean || name.is_empty() || name.len() > 64 {
            problems.push(format!("{key}: `{name}` is not a valid metric name"));
        }
    }
}

/// `validate`: every name `run` / `trace` print is in `BENCHMARK.json` with
/// the same unit and direction, and the other way round.
pub fn validate() -> Result<bool, String> {
    let benchmark = load(BENCHMARK_JSON)?;
    let mut problems = Vec::new();
    check_table(&benchmark, "end_to_end", END_TO_END, &mut problems);
    check_table(&benchmark, "per_layer", PER_LAYER, &mut problems);
    let listed: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    if listed != WORKLOADS {
        problems.push(format!(
            "workloads: BENCHMARK.json lists {listed:?}, pmabench runs {WORKLOADS:?}"
        ));
    }
    let bounds = bounds(&benchmark)?;
    let widest = bounds.values().copied().fold(0.0, f64::max);
    if bounds.get("setup_s") != Some(&widest) || widest > 0.25 {
        problems.push(
            "end_to_end: setup_s must carry the largest bound, and none may pass 0.25".into(),
        );
    }
    for problem in &problems {
        eprintln!("validate: {problem}");
    }
    if problems.is_empty() {
        println!(
            "validate: {} end-to-end and {} per-layer metrics, {} workloads: consistent",
            END_TO_END.len(),
            PER_LAYER.len(),
            WORKLOADS.len()
        );
    }
    Ok(problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_bound_in_both_directions() {
        assert_eq!(verdict(Some(100.0), Some(109.0), 0.10), "agree");
        assert_eq!(verdict(Some(109.0), Some(100.0), 0.10), "agree");
        assert_eq!(verdict(Some(100.0), Some(111.0), 0.10), "disagree");
        assert_eq!(verdict(Some(111.0), Some(100.0), 0.10), "disagree");
        assert_eq!(verdict(None, Some(100.0), 0.10), "unresolved");
        assert_eq!(verdict(Some(0.0), Some(100.0), 0.10), "unresolved");
    }
}
