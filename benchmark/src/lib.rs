//! `pmabench`: the repository's one benchmark. See `benchmark/README.md`.
//!
//! The benchmark owns its inputs — key generators, op schedules, the
//! open-loop clock, the latency histogram, the span recorder and the
//! allocation counter all live here — and the program under test receives
//! only generated keys through its public functions, so a later performance
//! or simplicity change is measured by code it is not allowed to edit.

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod gen;
pub mod hist;
pub mod intercept;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod span;
pub mod tracing;
pub mod workloads;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;
