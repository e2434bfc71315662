//! # pce-core
//!
//! Simple- and temporal-cycle enumeration algorithms: the primary
//! contribution of *"Scalable Fine-Grained Parallel Cycle Enumeration
//! Algorithms"* (SPAA 2022) together with every baseline it is evaluated
//! against.
//!
//! | Family | Sequential | Coarse-grained parallel | Fine-grained parallel |
//! |---|---|---|---|
//! | Tiernan (brute force) | [`seq::tiernan`] | — | — |
//! | Johnson | [`seq::johnson`] | [`par::coarse`] | [`par::fine_johnson`] |
//! | Read-Tarjan | [`seq::read_tarjan`] | [`par::coarse`] | [`par::fine_read_tarjan`] |
//! | Temporal (2SCENT-style) | [`seq::temporal`] | [`par::coarse`] | [`par::fine_temporal`] (in-place search, branches split off on demand for idle workers) |
//! | Delta (max-edge-rooted, streaming; [`delta::run`]) | [`delta::Schedule::Sequential`] | [`delta::Schedule::PerRoot`] | [`delta::Schedule::Fine`] |
//! | Multi-query subscriptions (one shared delta pass, per-query fan-out) | [`MultiStreamingEngine`] at [`Granularity::Sequential`] | … at [`Granularity::CoarseGrained`] (default) | … at [`Granularity::FineGrained`] (via [`MultiStreamingEngine::with_granularity`]) |
//!
//! All enumerators share the same problem definitions (see [`cycle`]), report
//! cycles through a statically-dispatched [`CycleSink`] and record work into
//! [`WorkMetrics`]. The high-level entry point for applications is the
//! long-lived [`Engine`]: it owns one thread pool for its lifetime and serves
//! any number of [`Query`]s — counting, collecting, first-`k` with early
//! termination, or streaming.
//!
//! For *continuously arriving* edges there is an incremental layer on top:
//! [`StreamingEngine`] ingests timestamp-ordered batches into a sliding
//! window and enumerates only the cycles each batch closes (the [`delta`]
//! enumerators, rooted at a cycle's maximum edge instead of its minimum) —
//! sequentially, coarse-grained, or with the paper's fine-grained stealable
//! task decomposition ([`StreamingQuery::granularity`]). For *many*
//! concurrent standing queries over one stream, [`MultiStreamingEngine`]
//! shares the ingest, the delta root scan and the per-root pruning pass
//! across all subscriptions and fans per-query results out by [`QueryId`]
//! through a constraint-indexed dispatcher ([`SubscriptionIndex`]) whose
//! cost scales with *distinct constraint profiles*, not subscribers — N
//! subscriptions cost far less than N engines, and portfolios that repeat a
//! handful of alert profiles dispatch in near-constant time per candidate.
//!
//! Cross-implementation correctness is checked everywhere against the shared
//! brute-force oracles in the `testing` module (unit tests see it always;
//! external differential harnesses enable the `testing` cargo feature —
//! production builds exclude it).
//!
//! ```
//! use pce_core::{Engine, Query, Algorithm, Granularity};
//! use pce_graph::generators::directed_cycle;
//!
//! let engine = Engine::with_threads(2);
//! let graph = directed_cycle(4);
//! let query = Query::simple()
//!     .algorithm(Algorithm::Johnson)
//!     .granularity(Granularity::FineGrained);
//! let result = engine.run(&query, &graph).unwrap();
//! assert_eq!(result.stats.cycles, 1);
//! ```
//!
//! The legacy [`CycleEnumerator`] builder remains as a thin compatibility
//! wrapper over a per-call engine (see [`api`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod bundle;
pub mod cycle;
pub mod delta;
pub mod engine;
pub mod metrics;
pub mod options;
pub mod par;
pub mod seq;
pub mod streaming;
#[cfg(any(test, feature = "testing"))]
pub mod testing;
pub(crate) mod union;
pub mod util;

pub use api::CycleEnumerator;
pub use cycle::{
    BoundedSink, ChannelSink, CollectingSink, CountingSink, Cycle, CycleSink, FirstKSink,
};
pub use engine::{
    Algorithm, CollectMode, CycleKind, CycleStream, Engine, EnumerationError, EnumerationResult,
    Granularity, Query, SchedStrategy, ShardSpec,
};
pub use metrics::{LatencyStats, RunStats, WorkMetrics, WorkSnapshot, WorkerWork};
pub use options::{SimpleCycleOptions, TemporalCycleOptions};
pub use streaming::{
    BatchReport, CohortBatchStats, CohortKey, FanOutReport, FanOutStrategy, MultiBatchReport,
    MultiStreamingEngine, QueryId, StreamCycle, StreamingEngine, StreamingError, StreamingQuery,
    SubscriptionIndex, SubscriptionSnapshot, PARALLEL_FAN_OUT_SUBS,
};

// Predicate types surface in the streaming API (`StreamingQuery::predicate`,
// `StreamingQuery::cycle_predicate`, `CohortKey::predicate`), so re-export
// them at the root alongside it.
pub use pce_graph::{CyclePredicate, EdgePredicate, LabelFilter, Position, VertexFilter};

// Re-export the substrate crates so downstream users can depend on `pce-core`
// alone.
pub use pce_graph as graph;
pub use pce_sched as sched;
