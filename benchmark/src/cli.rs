//! Command line of `pmabench`.
//!
//! ```text
//! pmabench --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line
//! pmabench run   --seed N --out F [--seconds S]             all four, tracing off
//! pmabench trace --seed N --out F [--seconds S]             all four, the per-layer traced run
//! pmabench agree A.json B.json                              compare two result sets
//! pmabench validate                                         metric tables vs BENCHMARK.json
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::compare;
use crate::json::Json;
use crate::layers::{self, Metrics};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::span::{chrome_trace, Recorder};
use crate::tracing::Tracer;
use crate::workloads::{self, no_wrap, Outcome, RunCfg, WORKLOADS};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of a traced run's window measured with tracing off, for
/// `obs.trace_overhead_frac`.
const UNTRACED_SHARE: f64 = 0.4;
/// Benchmark spans kept in `trace.json`.
const KEPT_SPANS: usize = 20_000;
const TRACE_DIR: &str = "benchmark/out";

/// One workload's results, ready to print.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static MetricDef, f64)>,
    pub problems: Vec<String>,
}

impl Report {
    fn new(table: &'static [MetricDef], values: &Metrics, outcomes: &[&Outcome]) -> Report {
        let mut problems: Vec<String> = outcomes.iter().flat_map(|o| o.problems.clone()).collect();
        let mut metrics = Vec::new();
        for def in table {
            match values.get(def.name) {
                Some(&value) if value.is_finite() => metrics.push((def, value)),
                other => problems.push(format!("{}: not measured ({other:?})", def.name)),
            }
        }
        Report {
            correct: problems.is_empty() && outcomes.iter().all(|o| o.correct()),
            attempted: outcomes.iter().map(|o| o.attempted).sum(),
            failed: outcomes.iter().map(|o| o.failed).sum(),
            metrics,
            problems,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(def, value)| {
                    (
                        def.name,
                        Json::obj([
                            ("value", Json::Num(*value)),
                            ("unit", Json::Str(def.unit.into())),
                        ]),
                    )
                })),
            ),
        ])
    }
}

/// The end-to-end run of one workload: tracing off.
pub fn run_workload(name: &str, seed: u64, seconds: f64) -> Result<Report, String> {
    let outcome = workloads::run(
        name,
        RunCfg {
            seed,
            seconds,
            setups: SETUPS,
            wrap: no_wrap,
            tracer: None,
        },
    )?;
    Ok(Report::new(END_TO_END, &outcome.metrics, &[&outcome]))
}

/// The traced run of one workload on top of the (workload-independent)
/// layer probes: part of the window untraced, the rest traced, and their
/// difference is the tracing overhead. End-to-end numbers are never taken
/// from here.
fn trace_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    probes: &Metrics,
    recorder: &Arc<Recorder>,
) -> Result<Report, String> {
    let cfg = |seconds, tracer| RunCfg {
        seed,
        seconds,
        setups: 1,
        wrap: no_wrap,
        tracer,
    };
    let untraced = workloads::run(name, cfg(seconds * UNTRACED_SHARE, None))?;
    let mut tracer = Tracer::new(Arc::clone(recorder));
    let traced = workloads::run(
        name,
        cfg(seconds * (1.0 - UNTRACED_SHARE), Some(&mut tracer)),
    )?;

    let mut values = probes.clone();
    layers::window_metrics(&mut values, &tracer, traced.attempted);
    values.extend(traced.extras.iter().map(|(name, value)| (*name, *value)));
    let rate = |o: &Outcome| o.metrics.get("update_mops").copied().unwrap_or(f64::NAN);
    values.insert(
        "obs.trace_overhead_frac",
        1.0 - rate(&traced) / rate(&untraced),
    );

    let spans = recorder.spans();
    let text = chrome_trace(&spans[..spans.len().min(KEPT_SPANS)], &tracer.events);
    std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(format!("{TRACE_DIR}/trace-{name}.json"), &text))
        .and_then(|()| std::fs::write(format!("{TRACE_DIR}/trace.json"), &text))
        .map_err(|e| format!("cannot write the trace under {TRACE_DIR}: {e}"))?;
    Ok(Report::new(PER_LAYER, &values, &[&untraced, &traced]))
}

struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some(flag) => {
                    let value = iter.next().ok_or(format!("--{flag} needs a value"))?;
                    flags.insert(flag.to_string(), value.clone());
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Args { flags, positional })
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: Option<T>) -> Result<T, String> {
        match (self.flags.get(flag), default) {
            (Some(text), _) => text
                .parse()
                .map_err(|_| format!("--{flag} {text}: not a number")),
            (None, Some(default)) => Ok(default),
            (None, None) => Err(format!("--{flag} is required")),
        }
    }
}

fn print_report(workload: &str, report: &Report) {
    for (def, value) in &report.metrics {
        println!("{workload} {} {value} {}", def.name, def.unit);
    }
    for problem in &report.problems {
        eprintln!("{workload}: {problem}");
    }
}

/// `rustc -V` of the toolchain on the path, for the result-set header.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string())
}

/// `run` / `trace`: all four workloads into one result set.
fn run_all(mode: &str, args: &Args) -> Result<bool, String> {
    let seed: u64 = args.number("seed", None)?;
    let seconds: f64 = args.number("seconds", Some(20.0))?;
    let out_path = args.flags.get("out").ok_or("--out FILE is required")?;
    let recorder = Arc::new(Recorder::new());
    let probes = (mode == "trace").then(|| layers::probe_all(seed, &recorder));
    let mut results = BTreeMap::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        let report = match &probes {
            Some(probes) => trace_workload(workload, seed, seconds, probes, &recorder)?,
            None => run_workload(workload, seed, seconds)?,
        };
        print_report(workload, &report);
        all_correct &= report.correct;
        results.insert(workload.to_string(), report.to_json());
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Json::obj([
        ("mode", Json::Str(mode.into())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("nproc", Json::Num(nproc as f64)),
        (
            "kernel",
            Json::Str(pma_common::simd::kernel_variant().into()),
        ),
        ("rustc", Json::Str(rustc_version())),
        ("workloads", Json::Obj(results)),
    ]);
    std::fs::write(out_path, doc.render() + "\n").map_err(|e| format!("{out_path}: {e}"))?;
    Ok(all_correct)
}

/// The one-workload form the benchmark driver calls: the last line of
/// standard output is the result object.
fn run_one(args: &Args) -> Result<bool, String> {
    let workload = args
        .flags
        .get("workload")
        .ok_or("--workload NAME is required")?;
    let seed: u64 = args.number("seed", None)?;
    let seconds: f64 = args.number("seconds", None)?;
    let report = match args.number::<u8>("trace", Some(0))? {
        0 => run_workload(workload, seed, seconds)?,
        1 => {
            let recorder = Arc::new(Recorder::new());
            let probes = layers::probe_all(seed, &recorder);
            trace_workload(workload, seed, seconds, &probes, &recorder)?
        }
        other => return Err(format!("--trace {other}: 0 or 1")),
    };
    for problem in &report.problems {
        eprintln!("{workload}: {problem}");
    }
    println!("{}", report.to_json().render());
    Ok(report.correct)
}

pub fn main(argv: Vec<String>) -> i32 {
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(cmd @ ("run" | "trace" | "agree" | "validate")) => (cmd, &argv[1..]),
        _ => ("one", &argv[..]),
    };
    let outcome = Args::parse(rest).and_then(|args| match command {
        "run" | "trace" => run_all(command, &args),
        "agree" => compare::agree(&args.positional),
        "validate" => compare::validate(),
        _ => run_one(&args),
    });
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(message) => {
            eprintln!("pmabench: {message}");
            2
        }
    }
}
