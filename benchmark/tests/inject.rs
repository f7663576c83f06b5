//! A wrong answer between the generator and the program must fail the run:
//! the workloads check what they can know op by op (every looked-up key has
//! one right value) and everything else against the end state.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pma_common::{ConcurrentMap, Key, Value};
use pmabench::intercept::{Hooks, Intercept};
use pmabench::workloads::{self, RunCfg, Wrap};

/// Swallows the first insert it sees.
struct DropOneInsert(AtomicBool);

impl Hooks for DropOneInsert {
    fn insert(&self, inner: &dyn ConcurrentMap, key: Key, value: Value) {
        if self.0.swap(true, Ordering::Relaxed) {
            inner.insert(key, value);
        }
    }
}

/// Answers the first lookup with a value that was never stored.
struct OneStaleGet(AtomicBool);

impl Hooks for OneStaleGet {
    fn get(&self, inner: &dyn ConcurrentMap, key: Key) -> Option<Value> {
        let value = inner.get(key);
        if self.0.swap(true, Ordering::Relaxed) {
            value
        } else {
            value.map(|v| v + 1)
        }
    }
}

fn drop_one_insert(inner: Arc<dyn ConcurrentMap>) -> Arc<dyn ConcurrentMap> {
    Arc::new(Intercept {
        inner,
        hooks: DropOneInsert(AtomicBool::new(false)),
    })
}

fn one_stale_get(inner: Arc<dyn ConcurrentMap>) -> Arc<dyn ConcurrentMap> {
    Arc::new(Intercept {
        inner,
        hooks: OneStaleGet(AtomicBool::new(false)),
    })
}

// `grow-insert` is the cheapest workload to set up, never removes what it
// inserted (a dropped insert cannot be masked by its own later removal), and
// looks up keys it inserted itself.
fn grow_insert(wrap: Wrap) -> workloads::Outcome {
    let cfg = RunCfg {
        seed: 42,
        seconds: 0.3,
        setups: 1,
        wrap,
        tracer: None,
    };
    workloads::run("grow-insert", cfg).expect("known workload")
}

#[test]
fn a_clean_run_is_correct() {
    let outcome = grow_insert(workloads::no_wrap);
    assert!(outcome.correct(), "{:?}", outcome.problems);
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted > 0);
}

#[test]
fn a_dropped_insert_fails_the_end_state_check() {
    let outcome = grow_insert(drop_one_insert);
    assert!(!outcome.correct());
    assert!(
        outcome.problems.iter().any(|p| p.starts_with("end state")),
        "{:?}",
        outcome.problems
    );
}

#[test]
fn a_stale_get_is_counted_as_a_failed_op() {
    let outcome = grow_insert(one_stale_get);
    assert!(!outcome.correct());
    assert_eq!(outcome.failed, 1);
}
