//! # pce-workloads
//!
//! The workload suite for the benchmark harness: seeded synthetic temporal
//! graphs that stand in for the 15 public datasets of the paper's Table 4
//! (SNAP / Konect / Harvard Dataverse collections), plus the adversarial
//! gadget graphs of Figures 3a/4a/5a and the experiment configuration types
//! shared by the figure-reproduction binaries.
//!
//! The real datasets range from thousands to tens of millions of edges and
//! were evaluated on a 256-core cluster; the synthetic stand-ins keep each
//! dataset's *shape* — the ratio of edges to vertices, the degree skew that
//! causes the coarse-grained load imbalance, the time span, and a time-window
//! size that produces a comparable cycle density — at a scale that runs on a
//! laptop in seconds to minutes. Every generator is deterministic given the
//! seed recorded in the descriptor, so benchmark numbers are reproducible.
//!
//! The [`streaming`] module adds the suite's first continuous-traffic
//! scenario: a transaction stream replayed as timed batches through the
//! incremental [`StreamingEngine`](pce_core::StreamingEngine), measuring
//! sustained ingest throughput and per-batch detection latency. The
//! [`durability`] module measures what making that stream crash-safe costs:
//! logged-versus-plain ingest overhead and recovery time through
//! [`pce_store`]. The [`predicate`] module replays attribute-bearing
//! streams (AML layering chains, labelled intrusion loops) through
//! predicate-filtered portfolios twice — predicate union pushed into the
//! shared pass versus filter-at-fan-out — and checks that the reports are
//! byte-identical while the pushdown run does strictly less work.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod datasets;
pub mod durability;
pub mod experiment;
pub mod predicate;
pub mod streaming;

pub use datasets::{dataset, dataset_suite, scaling_suite, DatasetId, DatasetSpec, WorkloadGraph};
pub use durability::{run_durability, DurabilityConfig, DurabilityReport, StoreBackend};
pub use experiment::{ExperimentConfig, MeasuredRow, ResultTable};
pub use predicate::{
    run_predicate_comparison, run_predicate_scenario, PredicateComparison, PredicateRunReport,
    PredicateScenario, PredicateScenarioConfig,
};
pub use streaming::{
    mixed_portfolio, replay_batches, run_independent_portfolio, run_multi_tenant,
    run_stream_scenario, MultiTenantConfig, MultiTenantReport, StreamBatchRow,
    StreamScenarioConfig, StreamingReport, TenantRow,
};
