//! # pce-graph
//!
//! Directed temporal graph substrate for the parallel cycle enumeration
//! library. This crate provides everything the enumeration algorithms in
//! [`pce-core`](../pce_core/index.html) need from a graph:
//!
//! * [`TemporalGraph`] — an immutable, CSR-encoded directed multigraph whose
//!   edges carry integer timestamps. Both outgoing and incoming adjacency are
//!   stored, sorted by timestamp, so time-window slices are O(log d) per
//!   vertex.
//! * [`GraphBuilder`] — the mutable builder used to construct graphs from edge
//!   lists, generators or files.
//! * [`TimeWindow`] — half-open/closed interval helpers used by the
//!   window-constrained enumeration problems of the paper (§3.4, §8).
//! * [`scc`] — Tarjan's strongly connected components (iterative), used by the
//!   classic vertex-rooted Johnson algorithm and by tests.
//! * [`reach`] — temporal forward/backward reachability, the *cycle-union*
//!   preprocessing of §7 of the paper and the static *closing time* bound used
//!   to prune temporal searches.
//! * [`generators`] — the adversarial gadget graphs from the paper's Figures
//!   3a, 4a and 5a, plus random temporal graph generators (uniform, power-law,
//!   transaction-like) that stand in for the paper's dataset suite.
//! * [`io`] — plain-text temporal edge-list reading/writing.
//! * [`predicate`] — attribute predicates ([`EdgePredicate`]) evaluated
//!   during traversal so rejected edges never enter a search, plus the
//!   predicate-union algebra behind multi-query pushdown.
//! * [`view`] — the [`GraphView`] access trait shared by static and streaming
//!   graphs; [`stream`] — the incrementally-maintained [`SlidingWindowGraph`]
//!   behind the streaming enumeration subsystem.
//!
//! The crate is deliberately free of parallelism: it is a passive data
//! substrate that is shared read-only (`&TemporalGraph` is `Sync`) across
//! the worker threads of the scheduler crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod generators;
pub mod io;
pub mod predicate;
pub mod reach;
pub mod scc;
pub mod stats;
pub mod stream;
pub mod temporal;
pub mod types;
pub mod view;
pub mod window;

pub use builder::GraphBuilder;
pub use predicate::{CyclePredicate, EdgePredicate, LabelFilter, Position, VertexFilter};
pub use stats::GraphStats;
pub use stream::{DeltaBatch, SlidingWindowGraph, StreamError};
pub use temporal::{AdjEntry, TemporalGraph};
pub use types::{Amount, EdgeId, Label, TemporalEdge, Timestamp, VertexId};
pub use view::GraphView;
pub use window::TimeWindow;
