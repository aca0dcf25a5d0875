//! The repository benchmark: host wall time and simulated time of `bfs`,
//! `msbfs` and `mcl` on the shared and distributed backends, plus a
//! traced run that splits each call by layer. See `README.md`.

pub mod cpu;
pub mod heap;
pub mod runner;
pub mod stamp;
pub mod stats;
pub mod traced;
pub mod workload;

#[global_allocator]
static GLOBAL: heap::CountingAlloc = heap::CountingAlloc;
