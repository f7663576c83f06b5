//! Shared helpers for the experiment binaries (`fig3`, `fig4`, `ablation`):
//! a tiny command-line parser and the common experiment-loop plumbing.

#![warn(missing_docs)]

use pma_workloads::{Distribution, ThreadSplit, UpdatePattern, WorkloadSpec};

/// Options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Elements inserted (insert-only) or preloaded (mixed) per cell.
    pub elements: usize,
    /// Total number of threads to partition between updaters and scanners.
    pub threads: usize,
    /// Repetitions per cell (the median is reported).
    pub repeats: usize,
    /// Key domain.
    pub key_range: u64,
    /// Restrict to a single scenario (binary-specific meaning).
    pub scenario: Option<String>,
    /// Structures to evaluate, as registry backend specs (`--structures
    /// a,b,c`); `None` keeps the binary's default set.
    pub structures: Option<Vec<String>>,
    /// Quick smoke-test mode (drastically smaller workloads).
    pub quick: bool,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(8)
            .clamp(2, 16);
        Self {
            elements: 1_000_000,
            threads,
            repeats: 1,
            key_range: pma_workloads::DEFAULT_KEY_RANGE,
            scenario: None,
            structures: None,
            quick: false,
        }
    }
}

impl ExperimentOptions {
    /// Parses `--elements N --threads N --repeats N --key-range N
    /// --scenario X --structures a,b,c --quick` from the given iterator
    /// (typically `std::env::args().skip(1)`). Unknown flags abort with a
    /// usage message.
    pub fn parse<I: Iterator<Item = String>>(mut args: I) -> Self {
        let mut options = Self::default();
        while let Some(flag) = args.next() {
            let mut value = |flag: &str| {
                args.next()
                    .unwrap_or_else(|| panic!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--elements" => options.elements = value("--elements").parse().expect("--elements"),
                "--threads" => options.threads = value("--threads").parse().expect("--threads"),
                "--repeats" => options.repeats = value("--repeats").parse().expect("--repeats"),
                "--key-range" => {
                    options.key_range = value("--key-range").parse().expect("--key-range")
                }
                "--scenario" => options.scenario = Some(value("--scenario")),
                "--structures" => {
                    let specs: Vec<String> = value("--structures")
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                    assert!(
                        !specs.is_empty(),
                        "--structures: expected a comma-separated list of backend specs \
                         (try --help for the registered names)"
                    );
                    options.structures = Some(specs);
                }
                "--quick" => options.quick = true,
                "--help" | "-h" => {
                    println!(
                        "usage: [--elements N] [--threads N] [--repeats N] \
                         [--key-range N] [--scenario S] [--structures a,b,c] [--quick]"
                    );
                    println!("\nregistered structure backends (for --structures):");
                    pma_workloads::ensure_builtin_backends();
                    for (name, description) in pma_common::Registry::global().entries() {
                        println!("  {name:<12} {description}");
                    }
                    std::process::exit(0);
                }
                other => panic!("unknown flag: {other} (try --help)"),
            }
        }
        if options.quick {
            options.elements = options.elements.min(100_000);
            options.key_range = options.key_range.min(1 << 20);
            options.repeats = 1;
        }
        options
    }

    /// Effective element count for one experiment cell.
    pub fn cell_elements(&self) -> usize {
        self.elements.max(1)
    }

    /// The structure specs to evaluate: the `--structures` override when
    /// given (validated against the registry, aborting with the registry's
    /// descriptive error on an unknown name or malformed argument),
    /// otherwise `default`.
    pub fn resolve_structures(&self, default: Vec<String>) -> Vec<String> {
        pma_workloads::ensure_builtin_backends();
        let specs = self.structures.clone().unwrap_or(default);
        for spec in &specs {
            // A full trial build (immediately dropped) also rejects malformed
            // arguments, which label() alone would silently default away —
            // better to abort here than minutes into the experiment.
            if let Err(e) = pma_common::Registry::global().build(spec) {
                panic!("--structures: {e}");
            }
        }
        specs
    }

    /// Builds the workload spec for one cell.
    pub fn spec(
        &self,
        distribution: Distribution,
        threads: ThreadSplit,
        pattern: UpdatePattern,
    ) -> WorkloadSpec {
        WorkloadSpec {
            distribution,
            key_range: self.key_range,
            total_elements: self.cell_elements(),
            threads,
            pattern,
            ..WorkloadSpec::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ExperimentOptions {
        ExperimentOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_sensible() {
        let o = ExperimentOptions::default();
        assert!(o.threads >= 2);
        assert_eq!(o.elements, 1_000_000);
        assert!(o.scenario.is_none());
    }

    #[test]
    fn parse_all_flags() {
        let o = parse(&[
            "--elements",
            "5000",
            "--threads",
            "4",
            "--repeats",
            "3",
            "--key-range",
            "1024",
            "--scenario",
            "b",
        ]);
        assert_eq!(o.elements, 5000);
        assert_eq!(o.threads, 4);
        assert_eq!(o.repeats, 3);
        assert_eq!(o.key_range, 1024);
        assert_eq!(o.scenario.as_deref(), Some("b"));
    }

    #[test]
    fn quick_mode_caps_sizes() {
        let o = parse(&["--elements", "50000000", "--quick"]);
        assert!(o.elements <= 100_000);
        assert_eq!(o.repeats, 1);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        let _ = parse(&["--bogus"]);
    }

    #[test]
    fn structures_flag_splits_and_resolves() {
        let o = parse(&["--structures", "pma-batch:5, btree:8k"]);
        assert_eq!(
            o.structures,
            Some(vec!["pma-batch:5".to_string(), "btree:8k".to_string()])
        );
        let resolved = o.resolve_structures(vec!["masstree".to_string()]);
        assert_eq!(resolved, vec!["pma-batch:5", "btree:8k"]);
        // Without the flag the default set is kept.
        let o = parse(&[]);
        assert_eq!(
            o.resolve_structures(vec!["masstree".to_string()]),
            vec!["masstree"]
        );
    }

    #[test]
    #[should_panic(expected = "--structures")]
    fn unknown_structure_panics_with_registry_error() {
        let o = parse(&["--structures", "warp-drive"]);
        let _ = o.resolve_structures(vec![]);
    }

    #[test]
    fn spec_builder_uses_options() {
        let o = parse(&["--elements", "1234", "--key-range", "4096"]);
        let spec = o.spec(
            Distribution::Zipf { alpha: 1.5 },
            ThreadSplit {
                update_threads: 3,
                scan_threads: 1,
            },
            UpdatePattern::InsertOnly,
        );
        assert_eq!(spec.total_elements, 1234);
        assert_eq!(spec.key_range, 4096);
        assert_eq!(spec.threads.update_threads, 3);
    }
}
