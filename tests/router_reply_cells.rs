//! A router's reply cells are pooled, not leaked: a client thread takes one
//! on its first sync op and gives it back when it exits, so however many
//! threads come and go, the process holds no more cells than it ever had
//! client threads alive at once. One `#[test]` in its own binary, so no
//! other test's threads take cells while it counts.

use std::sync::Arc;

use pma_common::{ConcurrentMap, Registry};
use rma_concurrent::engine::router::reply_cells_made;
use rma_concurrent::engine::{CoreRouter, CoreRouterConfig, OverloadPolicy};
use rma_concurrent::workloads::ensure_builtin_backends;

const THREADS: i64 = 1_000;

#[test]
fn short_lived_client_threads_reuse_reply_cells() {
    ensure_builtin_backends();
    let inner = Registry::global()
        .build("pma-batch:1")
        .expect("inner spec builds");
    let config = CoreRouterConfig {
        workers: 1,
        queue_depth: 64,
        policy: OverloadPolicy::Block,
        pin: false,
    };
    let map = Arc::new(CoreRouter::new(config, inner).expect("valid router config"));
    for key in 0..2 * THREADS {
        map.insert(key, key * 10);
    }
    assert_eq!(reply_cells_made(), 0, "inserts need no reply cell");

    // One client thread alive at a time: every thread after the first takes
    // the cell its predecessor gave back.
    for key in 0..THREADS {
        let map = Arc::clone(&map);
        std::thread::spawn(move || {
            assert_eq!(map.get(key), Some(key * 10), "key {key}");
            assert_eq!(map.remove(key), Some(key * 10), "key {key}");
            assert_eq!(map.get(key), None, "key {key}");
        })
        .join()
        .expect("client thread");
    }
    assert_eq!(reply_cells_made(), 1);

    // Four at a time, plus this thread once it waits on a barrier. Each
    // lane is joined, not scoped: a scope returns once its closures have
    // returned, before their threads have run the thread-local destructor
    // that gives the cell back, so the next round could find the pool empty
    // with up to eight lanes alive. A join waits for the thread to exit.
    for round in 0..THREADS / 4 {
        let lanes: Vec<_> = (0..4)
            .map(|lane| {
                let map = Arc::clone(&map);
                std::thread::spawn(move || {
                    let key = THREADS + round * 4 + lane;
                    assert_eq!(map.remove(key), Some(key * 10), "key {key}");
                    assert_eq!(map.get(key), None, "key {key}");
                })
            })
            .collect();
        for lane in lanes {
            lane.join().expect("client thread");
        }
    }
    map.flush();
    assert!(reply_cells_made() <= 5, "{} cells", reply_cells_made());
    assert!(map.is_empty());
    assert_eq!(
        map.stats().shipped_ops,
        2 * THREADS as u64 + 5 * THREADS as u64
    );
}
