//! # parallel-cycle-enumeration
//!
//! A Rust reproduction of *"Scalable Fine-Grained Parallel Cycle Enumeration
//! Algorithms"* (Blanuša, Ienne, Atasu — SPAA 2022): fine-grained parallel
//! versions of the Johnson and Read-Tarjan simple-cycle enumeration
//! algorithms, their coarse-grained and sequential baselines, and the
//! temporal-cycle extensions (cycle-union preprocessing, closing-time pruning,
//! path bundling), all built on an in-repo work-stealing task scheduler.
//!
//! This crate is a thin façade that re-exports the public API of the
//! workspace crates:
//!
//! * [`graph`] (`pce-graph`) — temporal graph substrate, generators, IO.
//! * [`sched`] (`pce-sched`) — work-stealing thread pool.
//! * [`core`](mod@core) (`pce-core`) — the enumeration algorithms.
//! * [`store`] (`pce-store`) — durability: segment log, checkpoints, replay
//!   recovery for the streaming engines.
//! * [`workloads`] (`pce-workloads`) — the synthetic dataset suite used by the
//!   benchmark harness.
//!
//! ## Quick start
//!
//! Construct one [`Engine`](pce_core::Engine) per process — it owns one
//! thread pool for its lifetime — and issue any number of
//! [`Query`](pce_core::Query)s against it:
//!
//! ```
//! use parallel_cycle_enumeration::prelude::*;
//!
//! // A small financial-transaction-like graph with a planted temporal cycle.
//! let graph = GraphBuilder::new()
//!     .add_edge(0, 1, 10)
//!     .add_edge(1, 2, 20)
//!     .add_edge(2, 0, 30)
//!     .add_edge(2, 3, 40)
//!     .build();
//!
//! let engine = Engine::with_threads(2);
//! let query = Query::temporal()
//!     .algorithm(Algorithm::Johnson)
//!     .granularity(Granularity::FineGrained)
//!     .collect(CollectMode::Collect);
//!
//! let result = engine.run(&query, &graph).unwrap();
//! assert_eq!(result.stats.cycles, 1);
//!
//! // The same engine serves the next query without pool churn, and can stop
//! // early: take just the first cycle of a potentially huge enumeration.
//! let first = engine.first_k(1, &Query::simple(), &graph).unwrap();
//! assert_eq!(first.cycles.unwrap().len(), 1);
//! ```

#![warn(missing_docs)]

pub use pce_core as core;
pub use pce_graph as graph;
pub use pce_sched as sched;
pub use pce_store as store;
pub use pce_workloads as workloads;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use pce_core::{
        Algorithm, BatchReport, ChannelSink, CohortBatchStats, CohortKey, CollectMode,
        CollectingSink, CountingSink, Cycle, CycleKind, CycleSink, CycleStream, Engine,
        EnumerationError, EnumerationResult, FanOutReport, FanOutStrategy, FirstKSink, Granularity,
        LatencyStats, MultiBatchReport, MultiStreamingEngine, Query, QueryId, RunStats,
        SimpleCycleOptions, StreamCycle, StreamingEngine, StreamingError, StreamingQuery,
        SubscriptionIndex, SubscriptionSnapshot, TemporalCycleOptions, WorkMetrics,
    };
    pub use pce_graph::{
        generators, CyclePredicate, DeltaBatch, EdgePredicate, GraphBuilder, GraphStats, GraphView,
        LabelFilter, Position, SlidingWindowGraph, StreamError, TemporalEdge, TemporalGraph,
        TimeWindow, VertexFilter,
    };
    pub use pce_sched::{ThreadPool, WorkerMetrics};
    pub use pce_store::{
        recover, Checkpoint, DurableConfig, DurableMultiStreamingEngine, FsStore, MemoryStore,
        RecoveryReport, SegmentLog, SegmentStore, StoreError,
    };
    pub use pce_workloads::{dataset, dataset_suite, DatasetId};
}
