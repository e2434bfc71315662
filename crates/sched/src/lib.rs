//! # pce-sched
//!
//! A small work-stealing task scheduler: the substrate the paper's
//! fine-grained parallel algorithms need from Intel TBB (§3.2), rebuilt from
//! scratch on top of `crossbeam-deque` so that idle workers and steal events
//! are visible to the algorithm layer — which is what lets the paper's
//! fine-grained searches copy their state only when another worker can take
//! the copy.
//!
//! The crate provides two building blocks:
//!
//! * [`ThreadPool`] — persistent worker threads with per-worker LIFO deques, a
//!   global FIFO injector and a [`ThreadPool::scope`] API for submitting tasks
//!   that borrow stack data. Tasks spawned from inside a task go to the
//!   spawning worker's local deque (depth-first execution, breadth-first
//!   stealing — the classic Cilk/TBB discipline). A running task can read
//!   how many workers are idle ([`WorkerCtx::idle_workers`]) and split off
//!   work only when one could take it; every fine-grained search splits
//!   this way, copying its state at the split.
//! * [`WorkerMetrics`] / [`PoolMetrics`] — per-worker busy time, task and
//!   steal counters, used to regenerate the per-thread execution-time plot of
//!   Figure 1 and the load-balance statistics of §8.
//!
//! The pool is deliberately simple (no priorities, no task groups, no
//! cancellation): the enumeration algorithms only need dynamic load balancing
//! of a flat task pool plus visibility into which worker runs which task.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod metrics;
pub mod parallel;
pub mod pool;

pub use metrics::{PoolMetrics, WorkerMetrics};
pub use parallel::{parallel_for_dynamic, DynamicCounter};
pub use pool::{Scope, ThreadPool, WorkerCtx};

/// Returns the number of logical CPUs available to this process, falling back
/// to 1 if it cannot be determined. Used as the default pool size.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
