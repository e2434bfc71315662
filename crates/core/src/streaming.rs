//! The incremental sliding-window enumeration subsystem: continuous cycle
//! detection over a stream of temporal edge batches.
//!
//! [`StreamingEngine`] glues the three streaming pieces together:
//!
//! 1. **Ingest** — each [`StreamingEngine::ingest`] call appends one batch to
//!    an incrementally-maintained
//!    [`SlidingWindowGraph`] (`O(batch)`
//!    amortised, no rebuild) and slides the retention window forward,
//!    expiring edges older than `watermark - retention`.
//! 2. **Delta query** — only cycles *closed by the new batch* are enumerated:
//!    every cycle is rooted at its maximum `(timestamp, id)` edge, which lies
//!    in exactly one batch (see [`crate::delta`]). The batch's roots are
//!    processed at the standing query's [`Granularity`] on the engine's
//!    reusable thread pool: sequentially, as one dynamically-scheduled task
//!    per root (coarse), or as copyable recursion-level tasks stolen
//!    mid-search (fine — the right choice for skewed batches whose cycles
//!    hang off one hot root).
//! 3. **Resolution** — discovered cycles are resolved to concrete
//!    [`TemporalEdge`] sequences ([`StreamCycle`]) before returning, because
//!    dense edge ids are re-based when the window compacts.
//!
//! # The equivalence guarantee
//!
//! Over any replayed stream, each cycle is reported exactly once — at the
//! batch whose arrival completes it — and the reports are **independent of
//! how the stream is chopped into batches**: `window_delta <= retention`
//! (enforced at construction) guarantees that every edge a closing root can
//! need is still stored when it arrives, so a cycle spanning at most δ is
//! announced with its closing edge no matter the batch boundaries.
//! Consequently:
//!
//! * every cycle that lies fully inside the **final** window has been
//!   reported by some batch, and
//! * the union of per-batch delta results, restricted to cycles whose edges
//!   all survive in the final window, equals a one-shot enumeration of
//!   [`StreamingEngine::snapshot`]. With no expiry (retention spanning the
//!   whole stream) the union is exactly the one-shot result.
//!
//! `tests/streaming.rs` asserts this equivalence across seeds, batch sizes
//! (including batches that straddle window expiry), algorithms, delta
//! granularities and thread counts — byte-identical results for every
//! configuration.
//!
//! # Serving many queries from one stream
//!
//! A [`StreamingEngine`] owns its graph, so N standing queries over the same
//! stream would cost N ingest/expiry passes and N delta scans per batch.
//! [`MultiStreamingEngine`] is the multi-tenant front end:
//! [`subscribe`](MultiStreamingEngine::subscribe) any number of
//! [`StreamingQuery`]s (each gets a stable [`QueryId`]), and every
//! [`ingest`](MultiStreamingEngine::ingest) pays **one** append/expiry pass,
//! **one** delta root scan and **one** per-root backward union/pruning pass —
//! at the widest subscribed window and the *union hull* of the subscribed
//! [`CyclePredicate`]s (per-edge constraints union, aggregate bounds loosen
//! to the widest interval, positional constraints to per-position unions,
//! vertex sets to set-union — pushed into traversal, so rejected edges never
//! enter the cycle unions; see
//! [`MultiStreamingEngine::with_pushdown`]) — then routes each candidate
//! cycle to the subscriptions that accept it before fanning results out to
//! per-query [`BatchReport`]s. Routing uses a constraint-indexed
//! [`SubscriptionIndex`] by default ([`FanOutStrategy::Indexed`]):
//! subscriptions are bucketed into `(kind, self-loops, predicate-profile)`
//! cohorts and deduplicated into `(δ, max_len)` constraint groups, so
//! per-candidate dispatch cost scales with *distinct constraint profiles*
//! rather than with the subscriber count, and large portfolios dispatch as
//! parallel tasks on the engine's pool. The per-query outputs are
//! byte-identical to dedicated engines — and to the naive per-candidate loop
//! ([`FanOutStrategy::Naive`]) — proven by the differential harnesses in
//! `tests/streaming.rs`.
//!
//! # Relation to [`Engine::stream`]
//!
//! [`Engine::stream`] pushes the results of **one** query to a consumer with
//! backpressure; `StreamingEngine` answers **many** incremental queries as
//! the *graph* changes. They compose: each batch's resolved cycles are
//! returned synchronously precisely so that a serving layer can forward them
//! into any transport — including a backpressured channel — without the
//! enumeration pipeline ever blocking on a slow consumer.

use crate::cycle::{CollectingSink, CountingSink, Cycle, CycleSink};
use crate::delta::{self, DeltaKind, DeltaPlan, Schedule};
use crate::engine::{CollectMode, CycleKind, Engine, EnumerationError, Granularity, SchedStrategy};
use crate::metrics::{LatencyStats, RunStats};
use crate::options::{SimpleCycleOptions, TemporalCycleOptions};
use crate::seq::RootScratch;
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use pce_graph::stream::{SlidingWindowGraph, StreamError};
use pce_graph::{
    Amount, CyclePredicate, EdgeId, EdgePredicate, GraphView, Label, TemporalEdge, TemporalGraph,
    TimeWindow, Timestamp, VertexFilter, VertexId,
};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Errors produced by the streaming subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamingError {
    /// The ingest path rejected a batch (e.g. out-of-order timestamps); the
    /// graph is unchanged and the stream can continue with a corrected batch.
    Stream(StreamError),
    /// The streaming query failed validation (zero window, zero max length,
    /// or a combination with no implementation such as temporal self-loops).
    Query(EnumerationError),
    /// The query's time window is wider than the graph's retention span, so
    /// cycles could silently vanish before their closing edge arrives. Grow
    /// the retention or shrink the window.
    RetentionTooSmall {
        /// The requested enumeration window size δ.
        delta: Timestamp,
        /// The configured retention span.
        retention: Timestamp,
    },
    /// A [`restore_subscription`](MultiStreamingEngine::restore_subscription)
    /// call presented an id at or below one this engine already issued —
    /// restores must replay a checkpointed registry in ascending-id order
    /// onto an engine that has not subscribed on its own.
    RestoreIdCollision {
        /// The rejected id.
        id: QueryId,
        /// The smallest id this engine would accept.
        next_id: u64,
    },
}

impl std::fmt::Display for StreamingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamingError::Stream(e) => write!(f, "stream ingest error: {e}"),
            StreamingError::Query(e) => write!(f, "invalid streaming query: {e}"),
            StreamingError::RetentionTooSmall { delta, retention } => write!(
                f,
                "window delta {delta} exceeds retention {retention}: cycles would expire \
                 before their closing edge arrives"
            ),
            StreamingError::RestoreIdCollision { id, next_id } => write!(
                f,
                "restored subscription id {id} collides with issued ids \
                 (smallest acceptable is {next_id})"
            ),
        }
    }
}

impl std::error::Error for StreamingError {}

impl From<StreamError> for StreamingError {
    fn from(e: StreamError) -> Self {
        StreamingError::Stream(e)
    }
}

impl From<EnumerationError> for StreamingError {
    fn from(e: EnumerationError) -> Self {
        StreamingError::Query(e)
    }
}

/// The standing query a [`StreamingEngine`] evaluates against every batch:
/// cycle kind, window size and constraints. Plain data, like
/// [`Query`](crate::Query).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamingQuery {
    kind: CycleKind,
    granularity: Granularity,
    window_delta: Timestamp,
    max_len: Option<usize>,
    include_self_loops: bool,
    collect: CollectMode,
    predicate: CyclePredicate,
}

impl StreamingQuery {
    /// A window-constrained simple-cycle query: report cycles whose edge
    /// timestamps span at most `delta`, as they are closed by new batches.
    ///
    /// Defaults to [`Granularity::CoarseGrained`] parallelism — see
    /// [`StreamingQuery::granularity`] for when to pick fine-grained instead.
    pub fn simple(delta: Timestamp) -> Self {
        Self {
            kind: CycleKind::Simple,
            granularity: Granularity::CoarseGrained,
            window_delta: delta,
            max_len: None,
            include_self_loops: false,
            collect: CollectMode::Collect,
            predicate: CyclePredicate::pass_all(),
        }
    }

    /// A temporal-cycle query (strictly increasing timestamps) with window
    /// size `delta`.
    pub fn temporal(delta: Timestamp) -> Self {
        Self {
            kind: CycleKind::Temporal,
            ..Self::simple(delta)
        }
    }

    /// Selects how each batch's delta enumeration is split across the
    /// engine's workers, mirroring [`Query::granularity`](crate::Query):
    ///
    /// * [`Granularity::Sequential`] — one thread sweeps the batch's roots.
    /// * [`Granularity::CoarseGrained`] (the default) — one dynamically
    ///   scheduled task per closing root: the cheapest dispatch, ideal when a
    ///   batch closes many small, independent searches.
    /// * [`Granularity::FineGrained`] — every recursion level of a rooted
    ///   search is a stealable task: pick this when batches are *skewed* (a
    ///   hub vertex closes most of a batch's cycles through few roots), where
    ///   the coarse driver collapses to a single worker.
    ///
    /// With a single-threaded engine every granularity runs sequentially; the
    /// per-batch [`RunStats`] record what effectively executed.
    pub fn granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Accepts and ignores a [`SchedStrategy`]: fine-grained passes always
    /// run on the pool's work-stealing deques.
    ///
    /// Kept only because the `perfbench` benchmark calls it; it goes in the
    /// next change that edits `perfbench/`.
    pub fn sched(self, _strategy: SchedStrategy) -> Self {
        self
    }

    /// Constrains cycles to at most `len` edges (must be >= 1; validated when
    /// the engine is built). This is also the per-batch work cap: every
    /// driver — including the fine-grained one, which checks the bound before
    /// spawning a task — prunes extensions that can no longer close within
    /// `len` edges.
    pub fn max_len(mut self, len: usize) -> Self {
        self.max_len = Some(len);
        self
    }

    /// Also report length-1 cycles (self-loops). Only meaningful for
    /// simple-cycle queries: temporal cycles have strictly increasing
    /// timestamps, so a length-1 temporal cycle cannot exist and requesting
    /// the combination is rejected by [`StreamingQuery::validate`] (the seed
    /// API silently ignored the flag instead).
    pub fn include_self_loops(mut self, yes: bool) -> Self {
        self.include_self_loops = yes;
        self
    }

    /// Selects whether per-batch cycles are materialised
    /// ([`CollectMode::Collect`], the default — streaming callers usually
    /// want the alerts) or only counted ([`CollectMode::Count`]).
    pub fn collect(mut self, mode: CollectMode) -> Self {
        self.collect = mode;
        self
    }

    /// Constrains reported cycles to edges accepted by `predicate`: **every**
    /// edge of a reported cycle must pass the attribute check (amount
    /// interval, label filter). The predicate is *pushed down* into the
    /// enumeration — rejected edges never enter the per-root cycle union and
    /// never extend a path — so a selective predicate shrinks the searched
    /// subgraph, it does not just filter reports. Defaults to
    /// [`EdgePredicate::pass_all`] (no attribute constraint, no per-edge
    /// overhead).
    ///
    /// Shorthand for [`cycle_predicate`](Self::cycle_predicate) with a
    /// predicate whose only constraint is per-edge; it **replaces** the whole
    /// predicate, cycle-level constraints included.
    pub fn predicate(mut self, predicate: EdgePredicate) -> Self {
        self.predicate = predicate.into();
        self
    }

    /// Constrains reported cycles by a full [`CyclePredicate`]: per-edge
    /// attribute checks plus cycle-level constraints — a total-amount
    /// interval, strict amount monotonicity along the path, position-indexed
    /// edge predicates and a vertex allow/deny set. Like the per-edge check,
    /// every component that admits a sound partial test is pushed into the
    /// traversal itself (see [`crate::delta`]); constraints only decidable on
    /// the complete cycle (the total-amount floor, positions indexed from the
    /// closing edge) are re-checked exactly when a cycle closes. Replaces any
    /// previously set predicate.
    pub fn cycle_predicate(mut self, predicate: CyclePredicate) -> Self {
        self.predicate = predicate;
        self
    }

    /// The cycle kind this query asks about.
    pub fn kind(&self) -> CycleKind {
        self.kind
    }

    /// The requested parallelisation granularity (what actually executes per
    /// batch may degrade to sequential — see [`StreamingQuery::granularity`]).
    pub fn requested_granularity(&self) -> Granularity {
        self.granularity
    }

    /// The enumeration window size δ.
    pub fn window_delta(&self) -> Timestamp {
        self.window_delta
    }

    /// The cycle-length bound, if any.
    pub fn max_len_bound(&self) -> Option<usize> {
        self.max_len
    }

    /// Whether length-1 cycles (self-loops) are reported.
    pub fn includes_self_loops(&self) -> bool {
        self.include_self_loops
    }

    /// Whether per-batch cycles are materialised or only counted.
    pub fn collect_mode(&self) -> CollectMode {
        self.collect
    }

    /// The edge predicate every reported cycle's edges must satisfy
    /// ([`EdgePredicate::pass_all`] unless [`StreamingQuery::predicate`] set
    /// one) — the per-edge component of
    /// [`extended_predicate`](Self::extended_predicate).
    pub fn edge_predicate(&self) -> &EdgePredicate {
        self.predicate.edge_predicate()
    }

    /// The full cycle predicate this query evaluates: the per-edge component
    /// of [`edge_predicate`](Self::edge_predicate) plus any cycle-level
    /// constraints set via [`cycle_predicate`](Self::cycle_predicate)
    /// ([`CyclePredicate::pass_all`] when none were).
    pub fn extended_predicate(&self) -> &CyclePredicate {
        &self.predicate
    }

    /// Checks the query for values that can never return anything and for
    /// combinations that have no implementation, mirroring
    /// [`Query::validate`](crate::Query::validate). Called when the
    /// [`StreamingEngine`] is built, so an engine never holds an invalid
    /// standing query.
    pub fn validate(&self) -> Result<(), EnumerationError> {
        if self.window_delta < 1 {
            return Err(EnumerationError::InvalidWindow {
                delta: self.window_delta,
            });
        }
        if self.max_len == Some(0) {
            return Err(EnumerationError::InvalidMaxLen);
        }
        if self.kind == CycleKind::Temporal && self.include_self_loops {
            // Strictly increasing timestamps leave no room for a length-1
            // cycle; refuse instead of silently dropping the flag.
            return Err(EnumerationError::SelfLoopsUnsupported);
        }
        if let Err(reason) = self.predicate.validate() {
            // An unsatisfiable predicate (empty amount interval, empty
            // allow-list, inverted total-amount bounds) rejects every cycle
            // and can never report anything.
            return Err(EnumerationError::InvalidPredicate { reason });
        }
        Ok(())
    }

    /// The delta plan this query runs against every batch.
    fn plan(&self) -> DeltaPlan {
        delta_plan(
            self.kind,
            self.window_delta,
            self.max_len,
            self.include_self_loops,
            self.predicate.clone(),
        )
    }
}

/// The delta plan enumerating `kind` cycles within window `delta`.
fn delta_plan(
    kind: CycleKind,
    delta: Timestamp,
    max_len: Option<usize>,
    include_self_loops: bool,
    predicate: CyclePredicate,
) -> DeltaPlan {
    let kind = match kind {
        CycleKind::Simple => DeltaKind::Simple(SimpleCycleOptions {
            window_delta: Some(delta),
            max_len,
            include_self_loops,
        }),
        CycleKind::Temporal => DeltaKind::Temporal(TemporalCycleOptions {
            window_delta: delta,
            max_len,
        }),
    };
    DeltaPlan { kind, predicate }
}

/// The schedule one batch's delta run executes under: the requested
/// granularity, degraded to sequential when there is nothing to parallelise
/// over. Per-root degrades on single-root batches (one task per root cannot
/// occupy a second worker); fine-grained splits *within* a root, so a single
/// hot root is exactly where it must stay parallel. Only a parallel
/// schedule touches the engine's lazily created pool.
fn schedule_for(engine: &Engine, granularity: Granularity, batch_roots: usize) -> Schedule<'_> {
    if engine.threads() <= 1 || batch_roots == 0 {
        return Schedule::Sequential;
    }
    match granularity {
        Granularity::Sequential => Schedule::Sequential,
        Granularity::CoarseGrained if batch_roots <= 1 => Schedule::Sequential,
        Granularity::CoarseGrained => Schedule::PerRoot(engine.pool()),
        Granularity::FineGrained => Schedule::Fine(engine.pool()),
    }
}

/// A cycle reported by the streaming engine, resolved to concrete temporal
/// edges (dense ids are re-based when the sliding window compacts, so they
/// are not stable across batches — the edges themselves are).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StreamCycle {
    /// Vertices in traversal order (same convention as
    /// [`Cycle`]).
    pub vertices: Vec<VertexId>,
    /// The traversed edges: `edges[i]` connects `vertices[i]` to
    /// `vertices[i + 1]`, wrapping at the end.
    pub edges: Vec<TemporalEdge>,
}

impl StreamCycle {
    /// Number of edges (equivalently, vertices) in the cycle.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` when the cycle has no edges (never the case for cycles
    /// produced by the engine; paired with [`StreamCycle::len`]).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Rotates the cycle so that its lexicographically smallest
    /// `(ts, src, dst)` edge comes first. Two reports are the same cyclic
    /// edge sequence iff their canonical forms are equal — this is how the
    /// streaming-equivalence tests compare per-batch results (found under
    /// different edge ids) against one-shot results.
    pub fn canonicalize(&self) -> StreamCycle {
        let k = self.len();
        let key = |e: &TemporalEdge| (e.ts, e.src, e.dst);
        let min_pos = (0..k).min_by_key(|&i| key(&self.edges[i])).unwrap_or(0);
        StreamCycle {
            vertices: (0..k).map(|i| self.vertices[(min_pos + i) % k]).collect(),
            edges: (0..k).map(|i| self.edges[(min_pos + i) % k]).collect(),
        }
    }
}

/// Stable identifier of one standing query.
///
/// A [`MultiStreamingEngine`] assigns a fresh id to every
/// [`subscribe`](MultiStreamingEngine::subscribe) call and never reuses one —
/// not even after [`unsubscribe`](MultiStreamingEngine::unsubscribe) — so
/// multi-tenant callers can attribute per-batch results to the right consumer
/// for the whole lifetime of the stream. A single-query [`StreamingEngine`]
/// stamps its reports with [`QueryId::SOLO`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(u64);

impl QueryId {
    /// The id a single-query [`StreamingEngine`] stamps on its reports.
    /// [`MultiStreamingEngine`] subscription ids start above it.
    pub const SOLO: QueryId = QueryId(0);

    /// The raw id value (stable, monotonically assigned).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its raw value, for durability layers re-hydrating
    /// a checkpointed subscription registry. The engine still enforces id
    /// discipline: [`MultiStreamingEngine::restore_subscription`] rejects ids
    /// that would break monotonicity, so a decoded id cannot collide with a
    /// live one.
    pub fn from_raw(raw: u64) -> Self {
        QueryId(raw)
    }
}

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// What one [`StreamingEngine::ingest`] call produced.
#[derive(Debug)]
pub struct BatchReport {
    /// The standing query these results belong to: [`QueryId::SOLO`] from a
    /// [`StreamingEngine`], the subscription's id from a
    /// [`MultiStreamingEngine`] — so multi-tenant callers can attribute
    /// per-query cycle counts without re-sorting.
    pub query: QueryId,
    /// 0-based index of this batch in the stream.
    pub batch: u64,
    /// Edges appended by this batch.
    pub appended: usize,
    /// Edges that expired out of the window during this ingest.
    pub expired: usize,
    /// Edges inside the window after the ingest.
    pub live_edges: usize,
    /// The live window after the ingest; `None` until the first edge sets a
    /// watermark.
    pub window: Option<TimeWindow>,
    /// Cycles closed by this batch (count; equals `cycles.len()` when the
    /// query materialises them).
    pub cycles_found: u64,
    /// The closed cycles, resolved to temporal edges (empty in
    /// [`CollectMode::Count`]).
    pub cycles: Vec<StreamCycle>,
    /// Wall-clock seconds spent appending + expiring.
    pub ingest_secs: f64,
    /// Wall-clock seconds spent in the delta enumeration.
    pub enumerate_secs: f64,
    /// Work statistics of the delta enumeration.
    pub stats: RunStats,
}

/// A long-lived incremental enumeration engine: owns the sliding-window graph
/// and one [`Engine`] (and therefore one reusable thread pool) and evaluates
/// its standing [`StreamingQuery`] against every ingested batch.
///
/// # Example
/// ```
/// use pce_core::streaming::{StreamingEngine, StreamingQuery};
/// use pce_core::graph::TemporalEdge;
///
/// let mut engine =
///     StreamingEngine::with_threads(1_000, StreamingQuery::temporal(100), 1).unwrap();
///
/// // The first two transfers open a path, the third closes the ring.
/// let quiet = engine
///     .ingest(&[TemporalEdge::new(0, 1, 10), TemporalEdge::new(1, 2, 20)])
///     .unwrap();
/// assert_eq!(quiet.cycles_found, 0);
///
/// let alert = engine.ingest(&[TemporalEdge::new(2, 0, 30)]).unwrap();
/// assert_eq!(alert.cycles_found, 1);
/// assert_eq!(alert.cycles[0].vertices.len(), 3);
/// ```
#[derive(Debug)]
pub struct StreamingEngine {
    engine: Engine,
    graph: SlidingWindowGraph,
    query: StreamingQuery,
    /// The query's delta plan, built once.
    plan: DeltaPlan,
    /// Reused across every delta run (epoch-stamped, grown as the vertex set
    /// grows) so ingests pay no per-batch allocation.
    scratches: Vec<RootScratch>,
    batches: u64,
    total_cycles: u64,
}

impl StreamingEngine {
    /// Creates a streaming engine sized to the machine. `retention` is the
    /// sliding-window span: edges expire once their timestamp drops below
    /// `watermark - retention`.
    pub fn new(retention: Timestamp, query: StreamingQuery) -> Result<Self, StreamingError> {
        Self::with_threads(retention, query, 0)
    }

    /// Creates a streaming engine with `threads` workers (0 = one per
    /// available core; 1 = strictly sequential delta queries, no pool).
    pub fn with_threads(
        retention: Timestamp,
        query: StreamingQuery,
        threads: usize,
    ) -> Result<Self, StreamingError> {
        query.validate()?;
        if query.window_delta > retention {
            return Err(StreamingError::RetentionTooSmall {
                delta: query.window_delta,
                retention,
            });
        }
        Ok(Self {
            engine: Engine::with_threads(threads),
            graph: SlidingWindowGraph::new(retention),
            plan: query.plan(),
            query,
            scratches: Vec::new(),
            batches: 0,
            total_cycles: 0,
        })
    }

    /// Ingests one batch of edges (non-decreasing timestamps across batches;
    /// any order within a batch) and returns the cycles it closed.
    ///
    /// A rejected batch ([`StreamingError::Stream`]) leaves the graph — and
    /// the stream — fully intact.
    pub fn ingest(&mut self, batch: &[TemporalEdge]) -> Result<BatchReport, StreamingError> {
        let t0 = Instant::now();
        let ingested = self.graph.append_batch(batch)?;
        let ingest_secs = t0.elapsed().as_secs_f64();

        // `window_delta <= retention` (enforced at construction) guarantees
        // that every edge a root's search can need — timestamps in
        // `[root_ts - δ : root_ts]` — is still physically stored when the
        // root arrives, because compaction only removes edges below the
        // *previous* batch's window start and `root_ts >= watermark` held at
        // append time. Reports are therefore independent of batch
        // boundaries: a cycle is announced exactly when its closing edge
        // arrives, no matter how the stream is chopped.
        let t1 = Instant::now();
        let schedule = schedule_for(&self.engine, self.query.granularity, ingested.roots.len());
        let (cycles, stats) = match self.query.collect {
            CollectMode::Collect => {
                let sink = CollectingSink::new();
                let stats = delta::run(
                    &self.plan,
                    schedule,
                    &self.graph,
                    ingested.roots.clone(),
                    &sink,
                    &mut self.scratches,
                );
                let resolved = sink
                    .into_cycles()
                    .into_iter()
                    .map(|c| resolve_cycle(&self.graph, c))
                    .collect();
                (resolved, stats)
            }
            CollectMode::Count => {
                let sink = CountingSink::new();
                let stats = delta::run(
                    &self.plan,
                    schedule,
                    &self.graph,
                    ingested.roots.clone(),
                    &sink,
                    &mut self.scratches,
                );
                (Vec::new(), stats)
            }
        };
        let enumerate_secs = t1.elapsed().as_secs_f64();

        let report = BatchReport {
            query: QueryId::SOLO,
            batch: self.batches,
            appended: ingested.appended,
            expired: ingested.expired,
            live_edges: self.graph.live_edges().len(),
            window: ingested.window,
            cycles_found: stats.cycles,
            cycles,
            ingest_secs,
            enumerate_secs,
            stats,
        };
        self.batches += 1;
        self.total_cycles += report.cycles_found;
        Ok(report)
    }

    /// The sliding-window graph (for inspection: window, watermark, live
    /// edges, ingest totals).
    pub fn graph(&self) -> &SlidingWindowGraph {
        &self.graph
    }

    /// The standing query.
    pub fn query(&self) -> &StreamingQuery {
        &self.query
    }

    /// The inner [`Engine`] (and its reusable pool), e.g. to issue one-shot
    /// queries against a [`StreamingEngine::snapshot`] on the same pool.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Number of batches ingested so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Total cycles reported across all batches.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Materialises the current window as an immutable [`TemporalGraph`] —
    /// the reference for the one-shot side of the equivalence guarantee (see
    /// the [module docs](self)).
    pub fn snapshot(&self) -> TemporalGraph {
        self.graph.snapshot()
    }
}

/// Resolves a raw cycle (dense edge ids) to concrete temporal edges against
/// the current window — dense ids are re-based when the window compacts, so
/// nothing id-based may outlive the batch that produced it.
fn resolve_cycle(graph: &SlidingWindowGraph, c: Cycle) -> StreamCycle {
    StreamCycle {
        edges: c
            .edges
            .iter()
            .map(|&id| GraphView::edge(graph, id))
            .collect(),
        vertices: c.vertices,
    }
}

/// One active subscription of a [`MultiStreamingEngine`].
#[derive(Debug)]
struct Subscription {
    id: QueryId,
    query: StreamingQuery,
    total_cycles: u64,
    latency: LatencyStats,
}

/// A point-in-time copy of one subscription's durable state: its id, its
/// standing query, and the lifetime total of cycles reported to it.
///
/// This is exactly what a checkpoint must capture to resurrect the
/// subscription after a restart —
/// [`MultiStreamingEngine::restore_subscription`] accepts the same three
/// fields. Latency percentiles are deliberately absent: they are
/// observability, not state, and restart fresh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscriptionSnapshot {
    /// The subscription's stable id.
    pub id: QueryId,
    /// The standing query, as subscribed.
    pub query: StreamingQuery,
    /// Lifetime total of cycles reported to this subscription.
    pub total_cycles: u64,
}

/// The parameters of the **one** shared enumeration pass a batch runs for all
/// subscriptions: the loosest constraint on every axis, so each query's
/// result set is a filterable subset of what the pass discovers.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SharedPass {
    /// [`CycleKind::Simple`] as soon as any subscription asks for simple
    /// cycles (every temporal cycle is also a vertex-simple cycle rooted at
    /// the same maximum edge, so one simple pass serves both kinds);
    /// [`CycleKind::Temporal`] only for an all-temporal portfolio, where the
    /// strictly-increasing constraint prunes the search far harder.
    kind: CycleKind,
    /// The widest subscribed window: the per-root backward union/pruning pass
    /// runs once at this δ, and narrower queries filter by time span.
    delta: Timestamp,
    /// The loosest length bound (`None` as soon as any query is unbounded).
    max_len: Option<usize>,
    /// Whether any simple subscription wants self-loops reported.
    include_self_loops: bool,
    /// The [`CyclePredicate::union`] hull of every subscription's predicate —
    /// the weakest predicate implied by the whole portfolio. Pushing it into
    /// the shared pass is sound by the same argument as the other axes, in
    /// reverse: the hull *rejects* a cycle only when **every** subscription
    /// rejects it. Per-edge constraints union, total-amount bounds loosen to
    /// the widest interval, monotonicity survives only when every
    /// subscription demands it, positional constraints keep only positions
    /// every subscription constrains (as per-position unions), and vertex
    /// sets take the set-union — each axis individually the loosest member,
    /// so the hull admits a superset of every subscription's cycles. Exact
    /// per-subscription predicates are re-checked at fan-out (they may be
    /// strictly narrower than the hull).
    predicate: CyclePredicate,
}

impl SharedPass {
    /// Computes the loosest-constraint pass covering `subs`, or `None` when
    /// there is nothing subscribed (the batch is ingested but not enumerated).
    fn covering(subs: &[Subscription]) -> Option<SharedPass> {
        let first = subs.first()?;
        let mut pass = SharedPass {
            kind: CycleKind::Temporal,
            delta: first.query.window_delta,
            max_len: first.query.max_len,
            include_self_loops: false,
            predicate: first.query.predicate.clone(),
        };
        for sub in subs {
            let q = &sub.query;
            if q.kind == CycleKind::Simple {
                pass.kind = CycleKind::Simple;
                pass.include_self_loops |= q.include_self_loops;
            }
            pass.delta = pass.delta.max(q.window_delta);
            pass.max_len = match (pass.max_len, q.max_len) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
            pass.predicate = pass.predicate.union(&q.predicate);
        }
        Some(pass)
    }

    /// The delta plan of the one shared run.
    fn into_plan(self) -> DeltaPlan {
        delta_plan(
            self.kind,
            self.delta,
            self.max_len,
            self.include_self_loops,
            self.predicate,
        )
    }
}

/// Selects how a [`MultiStreamingEngine`] routes each candidate cycle of the
/// shared enumeration pass to the subscriptions that accept it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FanOutStrategy {
    /// The reference dispatcher: every candidate is re-checked against every
    /// subscription — `O(candidates × subscriptions)`. Kept as the oracle the
    /// indexed strategy is differentially tested (and benchmarked) against.
    Naive,
    /// Constraint-indexed dispatch via a [`SubscriptionIndex`] (the default):
    /// subscriptions are bucketed into *cohorts* keyed by
    /// `(CycleKind, include_self_loops)` and, within a cohort, deduplicated
    /// into constraint *groups* ordered by `(delta, max_len)`, so a
    /// candidate's time-span binary-searches the acceptance frontier and each
    /// candidate only visits the groups that can possibly accept it. Large
    /// portfolios additionally run cohort dispatch as parallel tasks on the
    /// engine's thread pool.
    #[default]
    Indexed,
}

/// Default portfolio size from which the indexed strategy defers dispatch and
/// runs it as parallel `(cohort, candidate-chunk)` tasks on the engine's
/// pool. Below it, per-candidate inline dispatch is cheaper than buffering
/// candidates. Override per engine with
/// [`MultiStreamingEngine::with_parallel_fan_out_threshold`].
pub const PARALLEL_FAN_OUT_SUBS: usize = 64;

/// Candidates per parallel dispatch task: the copyable unit of fan-out work,
/// sized so a task amortises its scheduling cost but a skewed batch still
/// splits across workers.
const FAN_OUT_CHUNK: usize = 128;

/// The `max_len` stand-in for unbounded queries inside the index (every
/// candidate length compares `<=` against it).
const LEN_UNBOUNDED: usize = usize::MAX;

/// The cohort key of the [`SubscriptionIndex`]: subscriptions that share the
/// same *kind-level* acceptance semantics **and** the same predicate profile.
/// Within a cohort, acceptance of a candidate is monotone in the remaining
/// two constraints (window δ and `max_len`), which is what makes the
/// sorted-frontier dispatch sound; the predicate is part of the key rather
/// than the frontier because attribute acceptance is not ordered along any
/// single axis, but subscriptions sharing a profile — the common case for
/// templated alerting rules — pay its check **once per cohort** instead of
/// once per subscription.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CohortKey {
    /// Cycle kind every subscription in the cohort asks for.
    pub kind: CycleKind,
    /// Whether the cohort's subscriptions report length-1 cycles.
    pub include_self_loops: bool,
    /// The exact cycle predicate every subscription in the cohort evaluates
    /// (pass-all for unfiltered subscriptions) — per-edge constraints plus
    /// any aggregate, positional and vertex-set constraints. Because cohort
    /// members share it exactly, the cohort-level check *is* the
    /// per-subscription check.
    pub predicate: CyclePredicate,
}

impl CohortKey {
    fn of(query: &StreamingQuery) -> Self {
        Self {
            kind: query.kind,
            include_self_loops: query.include_self_loops,
            predicate: query.predicate.clone(),
        }
    }

    /// The kind-level half of [`admits`](Self::admits): whether a candidate
    /// of this shape passes the cohort's structural gate (cycle kind,
    /// self-loop policy, strictness), before any attribute predicate runs.
    fn admits_structure(&self, shape: &CandidateShape) -> bool {
        if shape.len == 1 {
            // Temporal queries never report self-loops (strictly increasing
            // timestamps leave no room for one) and simple queries only when
            // asked — both exactly as the naive per-subscription checks.
            if !(self.kind == CycleKind::Simple && self.include_self_loops) {
                return false;
            }
        } else if self.kind == CycleKind::Temporal && !shape.strict {
            return false;
        }
        true
    }

    /// Whether a candidate of this shape can be accepted by *any* member of
    /// the cohort — the kind-level and predicate gate the per-subscription
    /// loop of the naive dispatcher evaluates per subscription, evaluated
    /// once per cohort here. (Because cohort members share their predicate
    /// exactly, the cohort-level predicate check *is* the exact
    /// per-subscription predicate check, paid once per cohort.) The
    /// dispatcher itself runs the two halves separately so it can count the
    /// predicate evaluation; this combined form is the differential-test
    /// oracle.
    #[cfg(test)]
    fn admits(&self, shape: &CandidateShape, vertices: &[VertexId]) -> bool {
        self.admits_structure(shape)
            && predicate_accepts_candidate(&self.predicate, shape, vertices)
    }
}

impl std::fmt::Display for CohortKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            CycleKind::Simple => "simple",
            CycleKind::Temporal => "temporal",
        };
        if self.include_self_loops {
            write!(f, "{kind}+self-loops")?;
        } else {
            write!(f, "{kind}")?;
        }
        if !self.predicate.is_pass_all() {
            write!(f, " [{}]", self.predicate)?;
        }
        Ok(())
    }
}

/// One subscription's slot inside a constraint group.
#[derive(Debug, Clone)]
struct GroupMember {
    id: QueryId,
    /// Whether this member materialises cycles ([`CollectMode::Collect`]).
    collect: bool,
}

/// One *distinct* constraint profile `(delta, max_len)` within a cohort,
/// carrying every subscription that shares it. Dispatch work scales with the
/// number of groups, not the number of subscriptions: a candidate accepted by
/// a group is counted (and, if any member collects, stored) **once**, and
/// members receive the group's result at report time.
#[derive(Debug, Clone)]
struct ConstraintGroup {
    delta: Timestamp,
    /// [`LEN_UNBOUNDED`] when the profile has no length bound.
    max_len: usize,
    /// Cached `members.iter().any(|m| m.collect)`, kept in sync by the
    /// index's insert/remove paths (checked on the per-candidate hot path).
    collects: bool,
    members: Vec<GroupMember>,
}

impl ConstraintGroup {
    fn refresh_collects(&mut self) {
        self.collects = self.members.iter().any(|m| m.collect);
    }
}

/// One cohort of the index: the constraint groups sharing a [`CohortKey`],
/// sorted by `(delta, max_len)` so a candidate's time-span binary-searches
/// the acceptance frontier.
#[derive(Debug, Clone)]
struct Cohort {
    key: CohortKey,
    /// Sorted ascending by `(delta, max_len)`; a candidate with span `s` can
    /// only be accepted by the suffix starting at the first group with
    /// `delta >= s`.
    groups: Vec<ConstraintGroup>,
    /// `suffix_max_len[i] = max(groups[i..].max_len)` — lets dispatch skip a
    /// whole suffix when no remaining group can accept the candidate's
    /// length.
    suffix_max_len: Vec<usize>,
}

impl Cohort {
    fn rebuild_suffix(&mut self) {
        self.suffix_max_len.clear();
        self.suffix_max_len.resize(self.groups.len(), 0);
        let mut max = 0usize;
        for i in (0..self.groups.len()).rev() {
            max = max.max(self.groups[i].max_len);
            self.suffix_max_len[i] = max;
        }
    }

    fn subscriptions(&self) -> usize {
        self.groups.iter().map(|g| g.members.len()).sum()
    }
}

/// The constraint index behind [`FanOutStrategy::Indexed`]: buckets a
/// [`MultiStreamingEngine`]'s subscriptions into [`CohortKey`] cohorts and
/// deduplicates them into `(delta, max_len)` constraint groups, so each
/// candidate cycle of the shared pass is dispatched only to the groups that
/// can possibly accept it:
///
/// 1. the cohort gate (kind, strict timestamp increase, self-loops) runs
///    **once per cohort** instead of once per subscription;
/// 2. the candidate's time-span **binary-searches** the cohort's
///    `(delta, max_len)`-sorted groups for the acceptance frontier — groups
///    with a narrower window are never visited;
/// 3. a precomputed suffix maximum of `max_len` skips the whole remainder
///    when no surviving group can accept the candidate's length;
/// 4. subscriptions sharing a constraint profile cost **one** check (and one
///    stored cycle) per candidate, not one each — the index's work scales
///    with *distinct profiles*, not subscribers.
///
/// The index is maintained incrementally by
/// [`subscribe`](MultiStreamingEngine::subscribe) /
/// [`unsubscribe`](MultiStreamingEngine::unsubscribe) — `O(cohort)` per
/// update, never rebuilt per batch.
#[derive(Debug, Clone, Default)]
pub struct SubscriptionIndex {
    cohorts: Vec<Cohort>,
}

impl SubscriptionIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cohorts (distinct `(kind, include_self_loops)` keys).
    pub fn num_cohorts(&self) -> usize {
        self.cohorts.len()
    }

    /// Number of constraint groups (distinct full constraint profiles)
    /// across all cohorts. Dispatch work per candidate is bounded by this,
    /// not by [`SubscriptionIndex::num_subscriptions`].
    pub fn num_groups(&self) -> usize {
        self.cohorts.iter().map(|c| c.groups.len()).sum()
    }

    /// Number of indexed subscriptions.
    pub fn num_subscriptions(&self) -> usize {
        self.cohorts.iter().map(Cohort::subscriptions).sum()
    }

    /// Per-cohort summary rows `(key, groups, subscriptions)`, in index
    /// order — the shape a capacity dashboard wants.
    pub fn summaries(&self) -> Vec<(CohortKey, usize, usize)> {
        self.cohorts
            .iter()
            .map(|c| (c.key.clone(), c.groups.len(), c.subscriptions()))
            .collect()
    }

    fn insert(&mut self, id: QueryId, query: &StreamingQuery) {
        let key = CohortKey::of(query);
        let max_len = query.max_len.unwrap_or(LEN_UNBOUNDED);
        let cohort = match self.cohorts.iter().position(|c| c.key == key) {
            Some(i) => &mut self.cohorts[i],
            None => {
                self.cohorts.push(Cohort {
                    key,
                    groups: Vec::new(),
                    suffix_max_len: Vec::new(),
                });
                self.cohorts.last_mut().expect("just pushed")
            }
        };
        let member = GroupMember {
            id,
            collect: query.collect == CollectMode::Collect,
        };
        match cohort
            .groups
            .binary_search_by_key(&(query.window_delta, max_len), |g| (g.delta, g.max_len))
        {
            Ok(pos) => {
                cohort.groups[pos].members.push(member);
                cohort.groups[pos].refresh_collects();
            }
            Err(pos) => {
                let collects = member.collect;
                cohort.groups.insert(
                    pos,
                    ConstraintGroup {
                        delta: query.window_delta,
                        max_len,
                        collects,
                        members: vec![member],
                    },
                );
            }
        }
        cohort.rebuild_suffix();
    }

    fn remove(&mut self, id: QueryId) -> bool {
        for ci in 0..self.cohorts.len() {
            let cohort = &mut self.cohorts[ci];
            for gi in 0..cohort.groups.len() {
                if let Some(mi) = cohort.groups[gi].members.iter().position(|m| m.id == id) {
                    cohort.groups[gi].members.remove(mi);
                    if cohort.groups[gi].members.is_empty() {
                        cohort.groups.remove(gi);
                    } else {
                        cohort.groups[gi].refresh_collects();
                    }
                    cohort.rebuild_suffix();
                    if cohort.groups.is_empty() {
                        self.cohorts.remove(ci);
                    }
                    return true;
                }
            }
        }
        false
    }

    /// Fresh per-batch group accumulators, parallel to `cohorts[*].groups`.
    fn make_accums(&self) -> Vec<Vec<GroupAccum>> {
        self.cohorts
            .iter()
            .map(|c| c.groups.iter().map(|_| GroupAccum::new()).collect())
            .collect()
    }

    /// Fresh per-batch cohort counters, parallel to `cohorts`.
    fn make_counters(&self) -> Vec<CohortCounters> {
        self.cohorts.iter().map(|_| CohortCounters::new()).collect()
    }
}

/// Per-batch, per-group accumulator of the indexed fan-out: one atomic count
/// and (only if some member collects) the accepted cycles, stored **once per
/// group** no matter how many subscriptions share the profile.
#[derive(Debug)]
struct GroupAccum {
    count: AtomicU64,
    cycles: Mutex<Vec<Cycle>>,
}

impl GroupAccum {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            cycles: Mutex::new(Vec::new()),
        }
    }
}

/// Per-batch, per-cohort dispatch accounting (threaded into
/// [`CohortBatchStats`] and the engine's per-cohort [`LatencyStats`]).
#[derive(Debug)]
struct CohortCounters {
    /// Candidates that passed the cohort gate (kind/strictness/self-loops).
    offered: AtomicU64,
    /// Constraint groups examined past the binary-searched frontier.
    checks: AtomicU64,
    /// Subscription-level acceptances (each accepted group counts once per
    /// member — the deliveries the naive loop would have performed).
    accepted: AtomicU64,
    /// Busy nanoseconds of this cohort's parallel dispatch tasks (0 when
    /// dispatch ran inline inside the shared pass).
    busy_nanos: AtomicU64,
}

impl CohortCounters {
    fn new() -> Self {
        Self {
            offered: AtomicU64::new(0),
            checks: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
        }
    }
}

/// The per-candidate summary every dispatcher needs, computed once per
/// candidate: the structural shape (time-span, length, strictness) plus the
/// attribute shape ([`EdgePredicate::accepts_shape`] re-checks exact
/// per-subscription predicates against it without re-walking the edges).
#[derive(Debug)]
struct CandidateShape {
    /// Root timestamp minus minimum timestamp (the delta searches report
    /// path edges in traversal order with the root, maximum, edge last).
    span: Timestamp,
    /// Number of edges.
    len: usize,
    /// Whether timestamps strictly increase in traversal order.
    strict: bool,
    /// The smallest edge amount in the candidate.
    min_amount: Amount,
    /// The largest edge amount in the candidate.
    max_amount: Amount,
    /// The distinct edge labels, sorted (cycles are short, so this stays
    /// tiny; dedup keeps repeated-label rings to one filter probe each).
    labels: Vec<Label>,
    /// The resolved edges in reported order (path edges in traversal order,
    /// the root — maximum — edge last): exactly the order
    /// [`CyclePredicate::accepts_cycle`] is defined over, so predicates with
    /// cycle-level constraints re-check candidates without another id
    /// resolution pass.
    edge_attrs: Vec<TemporalEdge>,
}

/// Derives the [`CandidateShape`] of one candidate cycle.
fn candidate_shape(graph: &SlidingWindowGraph, edges: &[EdgeId]) -> CandidateShape {
    let root_ts = GraphView::edge(graph, *edges.last().expect("cycles have edges")).ts;
    let mut min_ts = root_ts;
    let mut strict = true;
    let mut prev: Option<Timestamp> = None;
    let mut min_amount = Amount::MAX;
    let mut max_amount = Amount::MIN;
    let mut labels: Vec<Label> = Vec::with_capacity(edges.len());
    let mut edge_attrs: Vec<TemporalEdge> = Vec::with_capacity(edges.len());
    for &e in edges {
        let edge = GraphView::edge(graph, e);
        min_ts = min_ts.min(edge.ts);
        if let Some(p) = prev {
            strict &= p < edge.ts;
        }
        prev = Some(edge.ts);
        min_amount = min_amount.min(edge.amount);
        max_amount = max_amount.max(edge.amount);
        labels.push(edge.label);
        edge_attrs.push(edge);
    }
    labels.sort_unstable();
    labels.dedup();
    CandidateShape {
        span: root_ts.saturating_sub(min_ts),
        len: edges.len(),
        strict,
        min_amount,
        max_amount,
        labels,
        edge_attrs,
    }
}

/// The exact predicate evaluation every dispatcher shares. A pure per-edge
/// predicate is decided from the precomputed attribute shape (amount hull and
/// deduplicated labels — no per-edge walk); a predicate carrying cycle-level
/// constraints (total-amount interval, monotonicity, positional constraints)
/// or a vertex filter re-checks the resolved edge sequence and vertex list
/// exactly. Candidates arrive in reported order with the maximum edge last —
/// the order [`CyclePredicate::accepts_cycle`] is defined over.
fn predicate_accepts_candidate(
    predicate: &CyclePredicate,
    shape: &CandidateShape,
    vertices: &[VertexId],
) -> bool {
    if predicate.has_cycle_constraints() || *predicate.vertex_filter() != VertexFilter::Any {
        predicate.accepts_cycle(&shape.edge_attrs, vertices)
    } else {
        predicate
            .edge_predicate()
            .accepts_shape(shape.min_amount, shape.max_amount, &shape.labels)
    }
}

/// Dispatches one candidate into one cohort: gate once (kind, strictness,
/// self-loops, the cohort's exact predicate), binary-search the
/// `(delta, max_len)` frontier, then visit only the surviving groups. The
/// shared helper of the inline sink and the parallel dispatch tasks.
#[inline]
fn dispatch_into_cohort(
    cohort: &Cohort,
    accums: &[GroupAccum],
    counters: &CohortCounters,
    shape: &CandidateShape,
    vertices: &[VertexId],
    edges: &[EdgeId],
) {
    if !cohort.key.admits_structure(shape) {
        return;
    }
    // The cohort-level predicate evaluation is a real constraint check the
    // dispatcher pays per structurally-admissible candidate (once per
    // cohort, since members share the predicate exactly) — count it, except
    // for pass-all cohorts where there is nothing to evaluate.
    if !cohort.key.predicate.is_pass_all() {
        counters.checks.fetch_add(1, Ordering::Relaxed);
        if !predicate_accepts_candidate(&cohort.key.predicate, shape, vertices) {
            return;
        }
    }
    counters.offered.fetch_add(1, Ordering::Relaxed);
    // Acceptance on the window axis is monotone: exactly the groups with
    // `delta >= span` remain, and they form the sorted suffix starting here.
    let start = cohort.groups.partition_point(|g| g.delta < shape.span);
    if start == cohort.groups.len() || cohort.suffix_max_len[start] < shape.len {
        return;
    }
    let mut checks = 0u64;
    for (offset, group) in cohort.groups[start..].iter().enumerate() {
        checks += 1;
        if group.max_len < shape.len {
            continue;
        }
        let accum = &accums[start + offset];
        accum.count.fetch_add(1, Ordering::Relaxed);
        counters
            .accepted
            .fetch_add(group.members.len() as u64, Ordering::Relaxed);
        if group.collects {
            accum
                .cycles
                .lock()
                .push(Cycle::new(vertices.to_vec(), edges.to_vec()));
        }
    }
    counters.checks.fetch_add(checks, Ordering::Relaxed);
}

/// Per-subscription accumulator of one batch's naive fan-out (see
/// [`FanOutSink`]).
#[derive(Debug, Default)]
struct SubAccum {
    count: AtomicU64,
    cycles: Mutex<Vec<Cycle>>,
}

/// The naive fan-out sink of the shared enumeration pass: every candidate
/// cycle the pass discovers is re-checked against each subscription's own
/// constraints — narrower window δ (time span), `max_len`, cycle kind
/// (strictly increasing timestamps for temporal queries), self-loops — and
/// accepted into the per-query accumulators it satisfies. Workers push
/// concurrently, so counts are atomic and collected cycles go through a
/// mutex, exactly like [`CollectingSink`]. This is the
/// [`FanOutStrategy::Naive`] reference the [`SubscriptionIndex`] dispatcher
/// is differentially tested against.
struct FanOutSink<'a> {
    graph: &'a SlidingWindowGraph,
    subs: &'a [Subscription],
    accums: Vec<SubAccum>,
    /// Candidate cycles the shared pass discovered (before per-query
    /// filtering) — what [`CycleSink::count`] reports, and therefore what the
    /// shared [`RunStats::cycles`] means for a multi-query batch.
    candidates: AtomicU64,
    /// Subscription constraint checks performed (`subscriptions` per
    /// candidate — the linear cost the index avoids).
    checks: AtomicU64,
}

impl<'a> FanOutSink<'a> {
    fn new(graph: &'a SlidingWindowGraph, subs: &'a [Subscription]) -> Self {
        Self {
            graph,
            subs,
            accums: subs.iter().map(|_| SubAccum::default()).collect(),
            candidates: AtomicU64::new(0),
            checks: AtomicU64::new(0),
        }
    }
}

impl CycleSink for FanOutSink<'_> {
    fn push(&self, vertices: &[VertexId], edges: &[EdgeId]) -> ControlFlow<()> {
        self.candidates.fetch_add(1, Ordering::Relaxed);
        self.checks
            .fetch_add(self.subs.len() as u64, Ordering::Relaxed);
        let shape = candidate_shape(self.graph, edges);
        for (sub, accum) in self.subs.iter().zip(&self.accums) {
            let q = &sub.query;
            if shape.len == 1 && !(q.kind == CycleKind::Simple && q.include_self_loops) {
                continue;
            }
            if q.kind == CycleKind::Temporal && !shape.strict {
                continue;
            }
            if shape.span > q.window_delta {
                continue;
            }
            if let Some(m) = q.max_len {
                if shape.len > m {
                    continue;
                }
            }
            // The exact per-subscription predicate (per-edge, aggregate,
            // positional and vertex constraints): the shared pass only
            // enforced the portfolio hull, which may be strictly weaker.
            if !predicate_accepts_candidate(&q.predicate, &shape, vertices) {
                continue;
            }
            accum.count.fetch_add(1, Ordering::Relaxed);
            if q.collect == CollectMode::Collect {
                accum
                    .cycles
                    .lock()
                    .push(Cycle::new(vertices.to_vec(), edges.to_vec()));
            }
        }
        ControlFlow::Continue(())
    }

    fn count(&self) -> u64 {
        self.candidates.load(Ordering::Relaxed)
    }
}

/// The inline indexed fan-out sink: dispatches each candidate through the
/// [`SubscriptionIndex`] as it is discovered, inside the shared pass itself
/// (the pass's workers already push concurrently, so dispatch parallelises
/// with the search). Used below the [`PARALLEL_FAN_OUT_SUBS`] threshold.
struct IndexedFanOutSink<'a> {
    graph: &'a SlidingWindowGraph,
    index: &'a SubscriptionIndex,
    accums: &'a [Vec<GroupAccum>],
    counters: &'a [CohortCounters],
    candidates: AtomicU64,
}

impl CycleSink for IndexedFanOutSink<'_> {
    fn push(&self, vertices: &[VertexId], edges: &[EdgeId]) -> ControlFlow<()> {
        self.candidates.fetch_add(1, Ordering::Relaxed);
        let shape = candidate_shape(self.graph, edges);
        for (ci, cohort) in self.index.cohorts.iter().enumerate() {
            dispatch_into_cohort(
                cohort,
                &self.accums[ci],
                &self.counters[ci],
                &shape,
                vertices,
                edges,
            );
        }
        ControlFlow::Continue(())
    }

    fn count(&self) -> u64 {
        self.candidates.load(Ordering::Relaxed)
    }
}

/// One buffered candidate of the deferred (parallel) dispatch path: the
/// resolved shape plus the raw cycle, captured during the shared pass and
/// fanned out afterwards by `(cohort, chunk)` tasks.
#[derive(Debug)]
struct BufferedCandidate {
    vertices: Vec<VertexId>,
    edges: Vec<EdgeId>,
    shape: CandidateShape,
}

/// Returns a stable per-thread shard index in `0..n`: each thread that ever
/// calls this is assigned the next slot of a process-wide counter once, so
/// the shared pass's workers land on distinct shards (modulo `n`) without
/// the sink needing a worker id in the [`CycleSink`] signature.
fn thread_shard(n: usize) -> usize {
    static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static THREAD_SLOT: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    }
    THREAD_SLOT.with(|slot| (*slot % n.max(1) as u64) as usize)
}

/// The buffering sink of the deferred dispatch path: the shared pass only
/// records each candidate's shape; dispatch happens afterwards, in parallel,
/// over the whole candidate set (see [`dispatch_deferred`]). The buffer is
/// sharded per pushing thread (cache-line padded, like the per-worker
/// [`WorkMetrics`](crate::WorkMetrics) blocks) so the pass's workers do not
/// serialize on one mutex on exactly the multi-threaded path this sink is
/// chosen for.
struct BufferingFanOutSink<'a> {
    graph: &'a SlidingWindowGraph,
    shards: Vec<CachePadded<Mutex<Vec<BufferedCandidate>>>>,
}

impl<'a> BufferingFanOutSink<'a> {
    fn new(graph: &'a SlidingWindowGraph, threads: usize) -> Self {
        Self {
            graph,
            shards: (0..threads.max(1))
                .map(|_| CachePadded::new(Mutex::new(Vec::new())))
                .collect(),
        }
    }

    /// Drains every shard into one candidate list (order is arbitrary, like
    /// any concurrent sink's; dispatch is order-independent).
    fn into_candidates(self) -> Vec<BufferedCandidate> {
        let mut all = Vec::with_capacity(
            self.shards
                .iter()
                .map(|shard| shard.lock().len())
                .sum::<usize>(),
        );
        for shard in self.shards {
            all.append(&mut CachePadded::into_inner(shard).into_inner());
        }
        all
    }
}

impl CycleSink for BufferingFanOutSink<'_> {
    fn push(&self, vertices: &[VertexId], edges: &[EdgeId]) -> ControlFlow<()> {
        let shape = candidate_shape(self.graph, edges);
        self.shards[thread_shard(self.shards.len())]
            .lock()
            .push(BufferedCandidate {
                vertices: vertices.to_vec(),
                edges: edges.to_vec(),
                shape,
            });
        ControlFlow::Continue(())
    }

    fn count(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.lock().len() as u64)
            .sum()
    }
}

/// Runs the deferred fan-out as parallel tasks on the engine's pool: one
/// dynamically-scheduled task per `(cohort, candidate chunk)` pair — the same
/// fine-grained copyable-unit discipline the delta drivers use, applied to
/// dispatch. Tasks of one cohort share that cohort's group accumulators
/// (atomic counts, mutex-guarded cycle lists), and each task adds its busy
/// time to its cohort's counters so per-cohort dispatch cost stays visible.
fn dispatch_deferred(
    pool: &pce_sched::ThreadPool,
    index: &SubscriptionIndex,
    candidates: &[BufferedCandidate],
    accums: &[Vec<GroupAccum>],
    counters: &[CohortCounters],
) {
    let chunks = candidates.len().div_ceil(FAN_OUT_CHUNK);
    let cohorts = index.cohorts.len();
    if chunks == 0 || cohorts == 0 {
        return;
    }
    let body = |_worker: usize, task: usize| {
        let ci = task / chunks;
        let chunk_idx = task % chunks;
        let start = chunk_idx * FAN_OUT_CHUNK;
        let end = (start + FAN_OUT_CHUNK).min(candidates.len());
        let t0 = Instant::now();
        let cohort = &index.cohorts[ci];
        for cand in &candidates[start..end] {
            dispatch_into_cohort(
                cohort,
                &accums[ci],
                &counters[ci],
                &cand.shape,
                &cand.vertices,
                &cand.edges,
            );
        }
        counters[ci]
            .busy_nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    };
    pce_sched::parallel_for_dynamic(pool, chunks * cohorts, 1, body);
}

/// Per-cohort accounting of one batch's fan-out (indexed strategy only — the
/// naive loop has no cohorts to attribute to).
#[derive(Debug, Clone)]
pub struct CohortBatchStats {
    /// The cohort's key.
    pub key: CohortKey,
    /// Subscriptions in the cohort when the batch ran.
    pub subscriptions: usize,
    /// Distinct constraint groups in the cohort.
    pub groups: usize,
    /// Candidates that passed the cohort's kind-level gate.
    pub offered: u64,
    /// Constraint groups examined past the binary-searched window frontier.
    pub checks: u64,
    /// Subscription-level acceptances (one per member of each accepted
    /// group — the deliveries the naive loop performs individually).
    pub accepted: u64,
    /// Summed busy seconds of this cohort's parallel dispatch *tasks* (CPU
    /// time, not wall clock — across cohorts it can exceed the phase's
    /// [`FanOutReport::fan_out_secs`] on a multi-worker batch; 0 when the
    /// batch dispatched inline inside the shared pass).
    pub busy_secs: f64,
}

/// How one batch's fan-out executed, and what it cost (see
/// [`MultiBatchReport::fan_out`]).
#[derive(Debug, Clone)]
pub struct FanOutReport {
    /// The strategy that dispatched this batch.
    pub strategy: FanOutStrategy,
    /// Whether dispatch ran as deferred parallel `(cohort, chunk)` tasks on
    /// the pool (large portfolios) instead of inline inside the shared pass.
    pub parallel: bool,
    /// Subscription-constraint checks performed: `subscriptions × candidates`
    /// for the naive loop; cohort-level predicate evaluations (for cohorts
    /// that constrain attributes) plus examined constraint *groups* for the
    /// index. The deterministic cost measure `streaming_bench`'s `fan_out`
    /// and `predicate` sections compare across strategies and pushdown
    /// settings.
    pub checks: u64,
    /// Wall-clock seconds of the deferred dispatch phase (0 when dispatch
    /// ran inline; inline dispatch is part of
    /// [`MultiBatchReport::enumerate_secs`] either way).
    pub fan_out_secs: f64,
    /// Per-cohort accounting rows (empty for the naive strategy).
    pub cohorts: Vec<CohortBatchStats>,
}

impl FanOutReport {
    fn empty(strategy: FanOutStrategy) -> Self {
        Self {
            strategy,
            parallel: false,
            checks: 0,
            fan_out_secs: 0.0,
            cohorts: Vec::new(),
        }
    }
}

/// What one [`MultiStreamingEngine::ingest`] call produced: the **shared**
/// ingest/enumeration measurements (paid once, no matter how many queries are
/// subscribed) plus one per-subscription [`BatchReport`] attributing cycles
/// to each [`QueryId`].
#[derive(Debug)]
pub struct MultiBatchReport {
    /// 0-based index of this batch in the stream.
    pub batch: u64,
    /// Edges appended by this batch.
    pub appended: usize,
    /// Edges that expired out of the window during this ingest.
    pub expired: usize,
    /// Edges inside the window after the ingest.
    pub live_edges: usize,
    /// The live window after the ingest; `None` until the first edge sets a
    /// watermark.
    pub window: Option<TimeWindow>,
    /// Wall-clock seconds of the one shared append/expiry pass.
    pub ingest_secs: f64,
    /// Wall-clock seconds of the one shared delta enumeration + fan-out.
    pub enumerate_secs: f64,
    /// Candidate cycles the shared pass discovered before per-query
    /// filtering (each candidate is checked against every subscription).
    pub candidates: u64,
    /// Work statistics of the shared pass. `stats.cycles` counts the
    /// candidates, not any single query's results.
    pub stats: RunStats,
    /// How the batch's fan-out executed and what it cost: strategy, checks,
    /// parallel-dispatch engagement and per-cohort accounting.
    pub fan_out: FanOutReport,
    /// One report per active subscription, in subscription order. Each
    /// carries its [`BatchReport::query`] id, its own `cycles_found` /
    /// `cycles`, and the shared ingest/window figures.
    pub reports: Vec<BatchReport>,
}

impl MultiBatchReport {
    /// The per-query report for `id`, if that query is subscribed.
    pub fn report(&self, id: QueryId) -> Option<&BatchReport> {
        self.reports.iter().find(|r| r.query == id)
    }

    /// Total cycles reported across all subscriptions this batch (a cycle
    /// matched by several queries counts once per query).
    pub fn total_cycles(&self) -> u64 {
        self.reports.iter().map(|r| r.cycles_found).sum()
    }
}

/// A multi-query streaming engine: **one** ingest pass serving many
/// concurrent cycle subscriptions over the same edge stream.
///
/// Where N independent [`StreamingEngine`]s over the same stream pay N
/// append/expiry passes, N delta root scans and N per-root backward
/// union/pruning passes per batch, a `MultiStreamingEngine` pays each of
/// those **once**:
///
/// 1. one [`SlidingWindowGraph`] append + expiry per batch;
/// 2. one delta root scan (the batch's id range);
/// 3. one backward union/pruning pass per root, at the **widest** subscribed
///    window (and loosest length/kind constraints — see the cost model below);
/// 4. one shared search per root, whose candidate cycles are re-checked
///    against each subscription (narrower δ as a time-span test, `max_len`,
///    temporal strictness, self-loops) and fanned out to per-query results.
///
/// The per-query results are **byte-identical** (after canonicalisation) to
/// what each query's own dedicated [`StreamingEngine`] would have reported —
/// the differential harness in `tests/streaming.rs` proves this across
/// granularities, thread counts and batch sizes.
///
/// # Cost model
///
/// The shared pass runs at the *union* of the subscribed constraints: the
/// maximum window δ, the loosest `max_len` (unbounded as soon as one query is
/// unbounded), and the simple-cycle search as soon as one query asks for
/// simple cycles (temporal-only portfolios keep the far stronger temporal
/// pruning). Adding a subscription whose constraints are inside the current
/// union is therefore almost free — one extra per-candidate check — while a
/// single much-looser query widens the shared search for everyone. Portfolios
/// of similar windows are the sweet spot; `streaming_bench`'s `multi_query`
/// section measures the sublinear scaling.
///
/// # Example
/// ```
/// use pce_core::streaming::{MultiStreamingEngine, StreamingQuery};
/// use pce_core::graph::TemporalEdge;
///
/// let mut engine = MultiStreamingEngine::with_threads(1_000, 1).unwrap();
/// let fast = engine.subscribe(StreamingQuery::temporal(15)).unwrap();
/// let slow = engine.subscribe(StreamingQuery::temporal(500)).unwrap();
///
/// engine
///     .ingest(&[TemporalEdge::new(0, 1, 10), TemporalEdge::new(1, 2, 20)])
///     .unwrap();
/// let report = engine.ingest(&[TemporalEdge::new(2, 0, 30)]).unwrap();
/// // The ring spans 20 ticks: inside `slow`'s window, outside `fast`'s.
/// assert_eq!(report.report(fast).unwrap().cycles_found, 0);
/// assert_eq!(report.report(slow).unwrap().cycles_found, 1);
/// ```
#[derive(Debug)]
pub struct MultiStreamingEngine {
    engine: Engine,
    graph: SlidingWindowGraph,
    retention: Timestamp,
    granularity: Granularity,
    strategy: FanOutStrategy,
    subs: Vec<Subscription>,
    /// The constraint index over `subs`, maintained incrementally by
    /// subscribe/unsubscribe (used by [`FanOutStrategy::Indexed`]; kept in
    /// sync regardless of the active strategy so switching costs nothing).
    index: SubscriptionIndex,
    /// Per-cohort dispatch-latency accumulators, recorded for every batch
    /// whose fan-out ran as deferred parallel tasks (inline dispatch is not
    /// separable from the shared pass, so it records nothing here).
    cohort_latency: Vec<(CohortKey, LatencyStats)>,
    /// Whether the portfolio's predicate union is pushed into the shared
    /// pass (the default). Off, the pass runs pass-all and predicates are
    /// only enforced at fan-out — the reference configuration the pushdown
    /// differential tests and `streaming_bench`'s `predicate` section
    /// compare against (reports must be byte-identical either way).
    pushdown: bool,
    /// Portfolio size from which indexed fan-out defers dispatch into
    /// parallel tasks (see [`with_parallel_fan_out_threshold`]
    /// (Self::with_parallel_fan_out_threshold)). Defaults to
    /// [`PARALLEL_FAN_OUT_SUBS`].
    fan_out_threshold: usize,
    next_id: u64,
    scratches: Vec<RootScratch>,
    batches: u64,
}

impl MultiStreamingEngine {
    /// Creates a multi-query engine sized to the machine. `retention` is the
    /// sliding-window span shared by every subscription; a query's window δ
    /// must fit inside it ([`subscribe`](Self::subscribe) enforces this), so
    /// retention is always at least the maximum subscribed δ.
    pub fn new(retention: Timestamp) -> Result<Self, StreamingError> {
        Self::with_threads(retention, 0)
    }

    /// Creates a multi-query engine with `threads` workers (0 = one per
    /// available core; 1 = strictly sequential delta passes, no pool).
    pub fn with_threads(retention: Timestamp, threads: usize) -> Result<Self, StreamingError> {
        if retention < 0 {
            return Err(StreamingError::RetentionTooSmall {
                delta: 1,
                retention,
            });
        }
        Ok(Self {
            engine: Engine::with_threads(threads),
            graph: SlidingWindowGraph::new(retention),
            retention,
            granularity: Granularity::CoarseGrained,
            strategy: FanOutStrategy::default(),
            subs: Vec::new(),
            index: SubscriptionIndex::new(),
            cohort_latency: Vec::new(),
            pushdown: true,
            fan_out_threshold: PARALLEL_FAN_OUT_SUBS,
            next_id: QueryId::SOLO.0 + 1,
            scratches: Vec::new(),
            batches: 0,
        })
    }

    /// Sets the portfolio size from which [`FanOutStrategy::Indexed`] defers
    /// dispatch and runs it as parallel `(cohort, candidate-chunk)` tasks on
    /// the engine's pool (defaults to [`PARALLEL_FAN_OUT_SUBS`] = 64). Below
    /// the threshold, per-candidate inline dispatch skips the buffering of
    /// candidates entirely. Tuning it trades dispatch latency against task
    /// overhead; reports are byte-identical at every setting.
    pub fn with_parallel_fan_out_threshold(mut self, subs: usize) -> Self {
        self.fan_out_threshold = subs;
        self
    }

    /// The portfolio size from which indexed fan-out goes parallel (see
    /// [`with_parallel_fan_out_threshold`](Self::with_parallel_fan_out_threshold)).
    pub fn parallel_fan_out_threshold(&self) -> usize {
        self.fan_out_threshold
    }

    /// Selects how the shared delta pass is split across workers (the same
    /// knob as [`StreamingQuery::granularity`], but engine-wide: the pass is
    /// shared, so its schedule is too). Defaults to
    /// [`Granularity::CoarseGrained`].
    pub fn with_granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Selects how candidates of the shared pass are routed to subscriptions
    /// (defaults to [`FanOutStrategy::Indexed`]). [`FanOutStrategy::Naive`]
    /// is the linear reference dispatcher, kept for differential testing and
    /// benchmarking; both produce byte-identical per-query reports.
    pub fn with_fan_out(mut self, strategy: FanOutStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The active fan-out strategy.
    pub fn fan_out_strategy(&self) -> FanOutStrategy {
        self.strategy
    }

    /// Enables or disables predicate pushdown (on by default). On, the
    /// shared pass evaluates the portfolio's [`EdgePredicate::union`] during
    /// traversal, so attribute-rejected edges never enter the per-root cycle
    /// union or extend a path; off, the pass runs unfiltered and predicates
    /// are enforced only by the exact per-subscription re-check at fan-out.
    /// Per-query reports are **byte-identical** either way (the union rejects
    /// an edge only when every subscription does) — the off position exists
    /// as the differential oracle and benchmark baseline.
    pub fn with_pushdown(mut self, on: bool) -> Self {
        self.pushdown = on;
        self
    }

    /// Whether the shared pass pushes the portfolio's predicate union down
    /// into traversal (see [`with_pushdown`](Self::with_pushdown)).
    pub fn pushdown_enabled(&self) -> bool {
        self.pushdown
    }

    /// The constraint index over the current subscriptions (read-only — the
    /// engine maintains it incrementally across subscribe/unsubscribe).
    pub fn subscription_index(&self) -> &SubscriptionIndex {
        &self.index
    }

    /// Per-batch dispatch latency attributed to the cohort `key`, accumulated
    /// over every batch whose fan-out ran as deferred parallel tasks (see
    /// [`FanOutReport::parallel`]; inline dispatch is folded into the shared
    /// pass and records nothing here). `None` when no such batch has run for
    /// that cohort.
    pub fn cohort_latency(&self, key: &CohortKey) -> Option<&LatencyStats> {
        self.cohort_latency
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, l)| l)
    }

    /// Registers a standing query against the shared stream and returns its
    /// stable [`QueryId`]. The query only observes cycles **closed** by
    /// batches ingested *after* this call, but those cycles may reach back
    /// through the window's retained history — the semantics of a dedicated
    /// engine that had been ingesting the same stream all along and starts
    /// *reporting* now (the right behaviour for alerting: a ring completed
    /// after you subscribe is a ring, even when its older transfers predate
    /// the subscription). A subscriber that must ignore pre-subscription
    /// edges entirely should filter reported cycles by edge timestamp.
    ///
    /// Fails with [`StreamingError::Query`] on an invalid query and
    /// [`StreamingError::RetentionTooSmall`] when the query's window δ
    /// exceeds the engine's retention.
    pub fn subscribe(&mut self, query: StreamingQuery) -> Result<QueryId, StreamingError> {
        query.validate()?;
        if query.window_delta > self.retention {
            return Err(StreamingError::RetentionTooSmall {
                delta: query.window_delta,
                retention: self.retention,
            });
        }
        let id = QueryId(self.next_id);
        self.next_id += 1;
        self.index.insert(id, &query);
        self.subs.push(Subscription {
            id,
            query,
            total_cycles: 0,
            latency: LatencyStats::new(),
        });
        Ok(id)
    }

    /// Removes a subscription; later batches stop reporting for it. Returns
    /// `false` when `id` was not subscribed. Ids are never reused.
    pub fn unsubscribe(&mut self, id: QueryId) -> bool {
        let before = self.subs.len();
        self.subs.retain(|s| s.id != id);
        let removed = self.subs.len() != before;
        if removed {
            let indexed = self.index.remove(id);
            debug_assert!(indexed, "index tracks every subscription");
        }
        removed
    }

    /// The active subscriptions, in subscription order.
    pub fn subscriptions(&self) -> impl Iterator<Item = (QueryId, &StreamingQuery)> {
        self.subs.iter().map(|s| (s.id, &s.query))
    }

    /// A point-in-time snapshot of every subscription's durable state — id,
    /// query, lifetime cycle total — in subscription (ascending-id) order.
    /// This is the registry a checkpoint persists; feeding each entry back
    /// through [`restore_subscription`](Self::restore_subscription) on a
    /// fresh engine reproduces the registry exactly.
    pub fn subscription_snapshots(&self) -> Vec<SubscriptionSnapshot> {
        self.subs
            .iter()
            .map(|s| SubscriptionSnapshot {
                id: s.id,
                query: s.query.clone(),
                total_cycles: s.total_cycles,
            })
            .collect()
    }

    /// Re-registers a checkpointed subscription under its original id with
    /// its lifetime cycle total, for recovery paths rebuilding an engine from
    /// persistent state.
    ///
    /// The same validation as [`subscribe`](Self::subscribe) applies, plus an
    /// id-discipline check: `snapshot.id` must be at least the next id this
    /// engine would assign — i.e. greater than every id ever issued — so
    /// restores must replay the registry in ascending-id order, typically
    /// onto a fresh engine. This preserves the two invariants the
    /// engine relies on (`subs` sorted by id; ids never reused) and keeps
    /// post-recovery [`subscribe`](Self::subscribe) calls collision-free:
    /// `next_id` is bumped past the restored id. Latency percentiles restart
    /// fresh — they are observability, not durable state.
    ///
    /// Fails with [`StreamingError::Query`] on an invalid query,
    /// [`StreamingError::RetentionTooSmall`] when the query's window δ
    /// exceeds the engine's retention, and
    /// [`StreamingError::RestoreIdCollision`] when the id would break
    /// monotonicity.
    pub fn restore_subscription(
        &mut self,
        snapshot: SubscriptionSnapshot,
    ) -> Result<QueryId, StreamingError> {
        snapshot.query.validate()?;
        if snapshot.query.window_delta > self.retention {
            return Err(StreamingError::RetentionTooSmall {
                delta: snapshot.query.window_delta,
                retention: self.retention,
            });
        }
        if snapshot.id.0 < self.next_id {
            return Err(StreamingError::RestoreIdCollision {
                id: snapshot.id,
                next_id: self.next_id,
            });
        }
        self.next_id = snapshot.id.0 + 1;
        self.index.insert(snapshot.id, &snapshot.query);
        self.subs.push(Subscription {
            id: snapshot.id,
            query: snapshot.query,
            total_cycles: snapshot.total_cycles,
            latency: LatencyStats::new(),
        });
        Ok(snapshot.id)
    }

    /// Aligns the engine's batch counter with a resumed stream so that
    /// post-recovery [`BatchReport::batch`] indices continue the original
    /// numbering instead of restarting at zero. Recovery calls this after
    /// hydrating the window and before replaying logged batches.
    pub fn resume_at_batch(&mut self, batch: u64) {
        self.batches = batch;
    }

    /// The id the next [`subscribe`](Self::subscribe) call would be assigned.
    /// Checkpoints persist this so that ids stay never-reused **across
    /// restarts** even when the highest id ever issued was unsubscribed
    /// before the checkpoint (restoring the live registry alone would let it
    /// be handed out again).
    pub fn next_query_id(&self) -> u64 {
        self.next_id
    }

    /// Raises the next-id floor to at least `next_id` (never lowers it).
    /// Recovery calls this with the checkpointed
    /// [`next_query_id`](Self::next_query_id) after restoring the registry.
    pub fn advance_query_ids(&mut self, next_id: u64) {
        self.next_id = self.next_id.max(next_id);
    }

    /// The engine-wide granularity of the shared delta pass (set by
    /// [`with_granularity`](Self::with_granularity)).
    pub fn granularity(&self) -> Granularity {
        self.granularity
    }

    /// Number of active subscriptions.
    pub fn num_subscriptions(&self) -> usize {
        self.subs.len()
    }

    /// Per-batch latency percentiles observed by subscription `id` since it
    /// subscribed (each batch's shared ingest + enumeration time counts once
    /// per query — that is the latency its consumer experiences).
    pub fn latency(&self, id: QueryId) -> Option<&LatencyStats> {
        self.subs.iter().find(|s| s.id == id).map(|s| &s.latency)
    }

    /// Total cycles reported to subscription `id` since it subscribed.
    pub fn total_cycles(&self, id: QueryId) -> Option<u64> {
        self.subs
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.total_cycles)
    }

    /// The shared sliding-window graph.
    pub fn graph(&self) -> &SlidingWindowGraph {
        &self.graph
    }

    /// The inner [`Engine`] (and its reusable pool).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Number of batches ingested so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Materialises the current window as an immutable [`TemporalGraph`].
    pub fn snapshot(&self) -> TemporalGraph {
        self.graph.snapshot()
    }

    /// Ingests one batch of edges — **one** append/expiry pass and **one**
    /// shared delta enumeration, fanned out to every subscription — and
    /// returns the per-query reports.
    ///
    /// A rejected batch ([`StreamingError::Stream`]) leaves the graph, the
    /// stream and every subscription fully intact. A batch ingested with no
    /// subscriptions still advances the window: the retained history is
    /// shared state, available to any later subscriber (see
    /// [`subscribe`](Self::subscribe) for the exact semantics).
    pub fn ingest(&mut self, batch: &[TemporalEdge]) -> Result<MultiBatchReport, StreamingError> {
        let t0 = Instant::now();
        let ingested = self.graph.append_batch(batch)?;
        let ingest_secs = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let (per_query, candidates, stats, fan_out) = match SharedPass::covering(&self.subs) {
            None => (
                Vec::new(),
                0,
                RunStats::default(),
                FanOutReport::empty(self.strategy),
            ),
            Some(mut pass) => {
                if !self.pushdown {
                    // The oracle configuration: enumerate unfiltered, rely
                    // on the fan-out re-checks alone.
                    pass.predicate = CyclePredicate::pass_all();
                }
                let plan = pass.into_plan();
                let schedule = schedule_for(&self.engine, self.granularity, ingested.roots.len());
                match self.strategy {
                    FanOutStrategy::Naive => {
                        let sink = FanOutSink::new(&self.graph, &self.subs);
                        let stats = delta::run(
                            &plan,
                            schedule,
                            &self.graph,
                            ingested.roots.clone(),
                            &sink,
                            &mut self.scratches,
                        );
                        let candidates = sink.candidates.load(Ordering::Relaxed);
                        // Resolve ids to concrete edges *now*: dense ids are
                        // re-based when the window compacts, so nothing may
                        // outlive the batch.
                        let per_query: Vec<(u64, Vec<StreamCycle>)> = sink
                            .accums
                            .iter()
                            .map(|accum| {
                                let resolved = std::mem::take(&mut *accum.cycles.lock())
                                    .into_iter()
                                    .map(|c| resolve_cycle(&self.graph, c))
                                    .collect();
                                (accum.count.load(Ordering::Relaxed), resolved)
                            })
                            .collect();
                        let fan_out = FanOutReport {
                            strategy: FanOutStrategy::Naive,
                            parallel: false,
                            checks: sink.checks.load(Ordering::Relaxed),
                            fan_out_secs: 0.0,
                            cohorts: Vec::new(),
                        };
                        (per_query, candidates, stats, fan_out)
                    }
                    FanOutStrategy::Indexed => {
                        let accums = self.index.make_accums();
                        let counters = self.index.make_counters();
                        // Large portfolios defer dispatch and fan out as
                        // parallel (cohort, chunk) tasks after the pass;
                        // below the threshold, inline dispatch inside the
                        // pass avoids buffering the candidates.
                        let deferred =
                            self.engine.threads() > 1 && self.subs.len() >= self.fan_out_threshold;
                        let (stats, candidates, fan_out_secs, parallel) = if deferred {
                            let sink = BufferingFanOutSink::new(&self.graph, self.engine.threads());
                            let stats = delta::run(
                                &plan,
                                schedule,
                                &self.graph,
                                ingested.roots.clone(),
                                &sink,
                                &mut self.scratches,
                            );
                            let buffered = sink.into_candidates();
                            let t_fan = Instant::now();
                            dispatch_deferred(
                                self.engine.pool(),
                                &self.index,
                                &buffered,
                                &accums,
                                &counters,
                            );
                            (
                                stats,
                                buffered.len() as u64,
                                t_fan.elapsed().as_secs_f64(),
                                !buffered.is_empty(),
                            )
                        } else {
                            let sink = IndexedFanOutSink {
                                graph: &self.graph,
                                index: &self.index,
                                accums: &accums,
                                counters: &counters,
                                candidates: AtomicU64::new(0),
                            };
                            let stats = delta::run(
                                &plan,
                                schedule,
                                &self.graph,
                                ingested.roots.clone(),
                                &sink,
                                &mut self.scratches,
                            );
                            let candidates = sink.candidates.load(Ordering::Relaxed);
                            (stats, candidates, 0.0, false)
                        };
                        // Distribute group results to members: one resolution
                        // per group, cloned only into collecting members.
                        let mut per_query: Vec<(u64, Vec<StreamCycle>)> =
                            self.subs.iter().map(|_| (0u64, Vec::new())).collect();
                        for (ci, cohort) in self.index.cohorts.iter().enumerate() {
                            for (gi, group) in cohort.groups.iter().enumerate() {
                                let accum = &accums[ci][gi];
                                let count = accum.count.load(Ordering::Relaxed);
                                let resolved: Vec<StreamCycle> =
                                    std::mem::take(&mut *accum.cycles.lock())
                                        .into_iter()
                                        .map(|c| resolve_cycle(&self.graph, c))
                                        .collect();
                                for member in &group.members {
                                    // Subscription ids are assigned
                                    // monotonically and `subs` keeps
                                    // subscription order, so it is sorted by
                                    // id.
                                    let slot = self
                                        .subs
                                        .binary_search_by_key(&member.id, |s| s.id)
                                        .expect("index tracks every subscription");
                                    per_query[slot].0 = count;
                                    if member.collect {
                                        per_query[slot].1 = resolved.clone();
                                    }
                                }
                            }
                        }
                        let cohorts: Vec<CohortBatchStats> = self
                            .index
                            .cohorts
                            .iter()
                            .zip(&counters)
                            .map(|(c, k)| CohortBatchStats {
                                key: c.key.clone(),
                                subscriptions: c.subscriptions(),
                                groups: c.groups.len(),
                                offered: k.offered.load(Ordering::Relaxed),
                                checks: k.checks.load(Ordering::Relaxed),
                                accepted: k.accepted.load(Ordering::Relaxed),
                                busy_secs: k.busy_nanos.load(Ordering::Relaxed) as f64 / 1e9,
                            })
                            .collect();
                        let fan_out = FanOutReport {
                            strategy: FanOutStrategy::Indexed,
                            parallel,
                            checks: cohorts.iter().map(|c| c.checks).sum(),
                            fan_out_secs,
                            cohorts,
                        };
                        (per_query, candidates, stats, fan_out)
                    }
                }
            }
        };
        let enumerate_secs = t1.elapsed().as_secs_f64();
        if fan_out.parallel {
            // Per-cohort dispatch latency is only separable when the batch
            // ran the deferred parallel dispatcher.
            for c in &fan_out.cohorts {
                match self.cohort_latency.iter_mut().find(|(k, _)| *k == c.key) {
                    Some((_, latency)) => latency.record(c.busy_secs),
                    None => {
                        let mut latency = LatencyStats::new();
                        latency.record(c.busy_secs);
                        self.cohort_latency.push((c.key.clone(), latency));
                    }
                }
            }
        }
        let latency_secs = ingest_secs + enumerate_secs;
        let live_edges = self.graph.live_edges().len();

        // The accumulators were built parallel to `subs` (None pass only when
        // `subs` is empty), so the zip below is index-aligned by construction.
        debug_assert_eq!(per_query.len(), self.subs.len());
        let mut reports = Vec::with_capacity(self.subs.len());
        for (sub, (cycles_found, cycles)) in self.subs.iter_mut().zip(per_query) {
            sub.total_cycles += cycles_found;
            sub.latency.record(latency_secs);
            let mut query_stats = stats.clone();
            query_stats.cycles = cycles_found;
            reports.push(BatchReport {
                query: sub.id,
                batch: self.batches,
                appended: ingested.appended,
                expired: ingested.expired,
                live_edges,
                window: ingested.window,
                cycles_found,
                cycles,
                ingest_secs,
                enumerate_secs,
                stats: query_stats,
            });
        }

        let report = MultiBatchReport {
            batch: self.batches,
            appended: ingested.appended,
            expired: ingested.expired,
            live_edges,
            window: ingested.window,
            ingest_secs,
            enumerate_secs,
            candidates,
            stats,
            fan_out,
            reports,
        };
        self.batches += 1;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pce_graph::{GraphBuilder, LabelFilter};

    fn e(src: VertexId, dst: VertexId, ts: Timestamp) -> TemporalEdge {
        TemporalEdge::new(src, dst, ts)
    }

    fn ea(
        src: VertexId,
        dst: VertexId,
        ts: Timestamp,
        amount: Amount,
        label: Label,
    ) -> TemporalEdge {
        TemporalEdge::with_attrs(src, dst, ts, amount, label)
    }

    #[test]
    fn window_is_none_until_the_first_watermark() {
        let query = StreamingQuery::simple(10);
        let mut engine = StreamingEngine::with_threads(100, query.clone(), 1).unwrap();
        assert_eq!(engine.ingest(&[]).unwrap().window, None);
        let report = engine.ingest(&[e(0, 1, 50)]).unwrap();
        assert_eq!(report.window, Some(TimeWindow::new(-50, 50)));

        let mut multi = MultiStreamingEngine::with_threads(100, 1).unwrap();
        multi.subscribe(query).unwrap();
        let report = multi.ingest(&[]).unwrap();
        assert_eq!(report.window, None);
        assert_eq!(report.reports[0].window, None);
        let report = multi.ingest(&[e(0, 1, 50)]).unwrap();
        assert_eq!(report.window, Some(TimeWindow::new(-50, 50)));
        assert_eq!(report.reports[0].window, report.window);
    }

    #[test]
    fn construction_validates_query_and_retention() {
        assert!(matches!(
            StreamingEngine::new(100, StreamingQuery::simple(0)),
            Err(StreamingError::Query(EnumerationError::InvalidWindow {
                delta: 0
            }))
        ));
        assert!(matches!(
            StreamingEngine::new(100, StreamingQuery::temporal(10).max_len(0)),
            Err(StreamingError::Query(EnumerationError::InvalidMaxLen))
        ));
        assert!(matches!(
            StreamingEngine::new(10, StreamingQuery::temporal(50)),
            Err(StreamingError::RetentionTooSmall {
                delta: 50,
                retention: 10
            })
        ));
        assert!(StreamingEngine::new(50, StreamingQuery::temporal(50)).is_ok());
        // Temporal self-loops have no implementation; the combination is a
        // typed error instead of a silently ignored flag.
        assert!(matches!(
            StreamingEngine::new(100, StreamingQuery::temporal(10).include_self_loops(true)),
            Err(StreamingError::Query(
                EnumerationError::SelfLoopsUnsupported
            ))
        ));
        assert!(
            StreamingEngine::new(100, StreamingQuery::simple(10).include_self_loops(true)).is_ok()
        );
    }

    #[test]
    fn cycles_are_reported_at_the_closing_batch_only() {
        let mut eng =
            StreamingEngine::with_threads(1_000, StreamingQuery::simple(1_000), 1).unwrap();
        let r = eng.ingest(&[e(0, 1, 1), e(1, 2, 2)]).unwrap();
        assert_eq!(r.cycles_found, 0);
        let r = eng.ingest(&[e(2, 0, 3), e(3, 4, 3)]).unwrap();
        assert_eq!(r.cycles_found, 1);
        assert_eq!(r.cycles.len(), 1);
        let c = &r.cycles[0].canonicalize();
        assert_eq!(c.edges[0], e(0, 1, 1));
        assert_eq!(c.vertices.len(), 3);
        // Re-ingesting unrelated edges does not re-report the triangle.
        let r = eng.ingest(&[e(4, 3, 4)]).unwrap();
        assert_eq!(r.cycles_found, 1, "only the new 3↔4 cycle");
        assert_eq!(eng.total_cycles(), 2);
        assert_eq!(eng.batches(), 3);
    }

    #[test]
    fn reports_do_not_depend_on_batch_boundaries() {
        // Regression: the closing edge (2→0, t=100) used to be skipped when
        // a much newer edge in the *same* batch advanced the watermark (and
        // therefore the window floor) past it. With delta <= retention every
        // edge the root needs is still stored, so the ring must be reported
        // whether or not the batch also carries the newer edge.
        let one_batch = {
            let mut eng =
                StreamingEngine::with_threads(100, StreamingQuery::temporal(100), 1).unwrap();
            eng.ingest(&[e(0, 1, 1), e(1, 2, 50)]).unwrap();
            eng.ingest(&[e(2, 0, 100), e(8, 9, 250)])
                .unwrap()
                .cycles_found
        };
        let split = {
            let mut eng =
                StreamingEngine::with_threads(100, StreamingQuery::temporal(100), 1).unwrap();
            eng.ingest(&[e(0, 1, 1), e(1, 2, 50)]).unwrap();
            let n = eng.ingest(&[e(2, 0, 100)]).unwrap().cycles_found;
            n + eng.ingest(&[e(8, 9, 250)]).unwrap().cycles_found
        };
        assert_eq!(
            one_batch, 1,
            "ring closes even when its batch spans far ahead"
        );
        assert_eq!(one_batch, split);
    }

    #[test]
    fn expired_edges_no_longer_close_cycles() {
        let mut eng = StreamingEngine::with_threads(10, StreamingQuery::simple(10), 1).unwrap();
        eng.ingest(&[e(0, 1, 0)]).unwrap();
        // The closing edge arrives after 0→1 fell out of the window.
        let r = eng.ingest(&[e(1, 0, 50)]).unwrap();
        assert_eq!(r.expired, 1);
        assert_eq!(r.cycles_found, 0);
        // A fresh pair inside one window closes normally.
        let r = eng.ingest(&[e(0, 1, 55)]).unwrap();
        assert_eq!(r.cycles_found, 1);
    }

    #[test]
    fn out_of_order_batches_propagate_and_preserve_state() {
        let mut eng = StreamingEngine::with_threads(100, StreamingQuery::simple(100), 1).unwrap();
        eng.ingest(&[e(0, 1, 10)]).unwrap();
        let err = eng.ingest(&[e(1, 0, 5)]).unwrap_err();
        assert!(matches!(
            err,
            StreamingError::Stream(StreamError::OutOfOrder { .. })
        ));
        // The stream keeps going; the corrected batch closes the cycle.
        let r = eng.ingest(&[e(1, 0, 15)]).unwrap();
        assert_eq!(r.cycles_found, 1);
    }

    #[test]
    fn count_mode_skips_materialisation() {
        let mut eng = StreamingEngine::with_threads(
            1_000,
            StreamingQuery::temporal(100).collect(CollectMode::Count),
            1,
        )
        .unwrap();
        eng.ingest(&[e(0, 1, 1), e(1, 2, 2)]).unwrap();
        let r = eng.ingest(&[e(2, 0, 3)]).unwrap();
        assert_eq!(r.cycles_found, 1);
        assert!(r.cycles.is_empty());
    }

    #[test]
    fn union_of_batches_matches_one_shot_on_final_window() {
        // A small deterministic stream with no expiry: the union of per-batch
        // cycles must equal a one-shot run over the final snapshot. (The full
        // seeded sweep with expiry lives in tests/streaming.rs.)
        let edges = [
            e(0, 1, 1),
            e(1, 2, 2),
            e(2, 0, 3),
            e(2, 3, 4),
            e(3, 2, 5),
            e(0, 2, 6),
            e(2, 1, 7),
            e(1, 0, 8),
        ];
        for batch_size in [1, 3, 8] {
            let mut eng =
                StreamingEngine::with_threads(1_000, StreamingQuery::temporal(1_000), 1).unwrap();
            let mut union: Vec<StreamCycle> = Vec::new();
            for chunk in edges.chunks(batch_size) {
                union.extend(eng.ingest(chunk).unwrap().cycles);
            }
            let snapshot = eng.snapshot();
            let one_shot = crate::Engine::with_threads(1)
                .run(
                    &crate::Query::temporal()
                        .window(1_000)
                        .collect(CollectMode::Collect),
                    &snapshot,
                )
                .unwrap();
            let mut union: Vec<StreamCycle> = union.iter().map(StreamCycle::canonicalize).collect();
            union.sort_by(|a, b| a.edges.cmp(&b.edges));
            let mut reference: Vec<StreamCycle> = one_shot
                .cycles
                .unwrap()
                .iter()
                .map(|c| {
                    StreamCycle {
                        vertices: c.vertices.clone(),
                        edges: c.edges.iter().map(|&id| snapshot.edge(id)).collect(),
                    }
                    .canonicalize()
                })
                .collect();
            reference.sort_by(|a, b| a.edges.cmp(&b.edges));
            assert_eq!(union, reference, "batch_size {batch_size}");
            assert!(!reference.is_empty());
        }
    }

    #[test]
    fn granularities_agree_and_are_recorded() {
        // Deterministic stream with a couple of overlapping rings; every
        // granularity must report the same cycles at the same batches.
        let edges = [
            e(0, 1, 1),
            e(1, 2, 2),
            e(2, 0, 3),
            e(2, 3, 4),
            e(3, 2, 5),
            e(0, 2, 6),
            e(2, 1, 7),
            e(1, 0, 8),
        ];
        let mut reference: Option<Vec<u64>> = None;
        for granularity in [
            Granularity::Sequential,
            Granularity::CoarseGrained,
            Granularity::FineGrained,
        ] {
            let mut eng = StreamingEngine::with_threads(
                1_000,
                StreamingQuery::temporal(1_000).granularity(granularity),
                4,
            )
            .unwrap();
            assert_eq!(eng.query().requested_granularity(), granularity);
            let mut per_batch = Vec::new();
            for chunk in edges.chunks(3) {
                let report = eng.ingest(chunk).unwrap();
                per_batch.push(report.cycles_found);
                if granularity == Granularity::FineGrained && !chunk.is_empty() {
                    assert_eq!(
                        report.stats.granularity,
                        Some(Granularity::FineGrained),
                        "fine runs must be tagged as such"
                    );
                }
            }
            match &reference {
                None => reference = Some(per_batch),
                Some(expected) => assert_eq!(&per_batch, expected, "{granularity:?}"),
            }
        }
    }

    #[test]
    fn single_threaded_engine_degrades_every_granularity_to_sequential() {
        let mut eng = StreamingEngine::with_threads(
            1_000,
            StreamingQuery::simple(1_000).granularity(Granularity::FineGrained),
            1,
        )
        .unwrap();
        eng.ingest(&[e(0, 1, 1)]).unwrap();
        let report = eng.ingest(&[e(1, 0, 2)]).unwrap();
        assert_eq!(report.cycles_found, 1);
        assert_eq!(report.stats.granularity, Some(Granularity::Sequential));
        assert_eq!(report.stats.threads, 1);
    }

    #[test]
    fn stream_cycle_canonicalisation_is_rotation_invariant() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 2, 2)
            .add_edge(2, 0, 3)
            .build();
        let a = StreamCycle {
            vertices: vec![1, 2, 0],
            edges: vec![g.edge(1), g.edge(2), g.edge(0)],
        };
        let b = StreamCycle {
            vertices: vec![0, 1, 2],
            edges: vec![g.edge(0), g.edge(1), g.edge(2)],
        };
        assert_eq!(a.canonicalize(), b.canonicalize());
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
    }

    /// Replays `batches` through one dedicated [`StreamingEngine`] and
    /// returns its canonicalised per-batch cycle unions.
    fn dedicated_per_batch(
        batches: &[Vec<TemporalEdge>],
        retention: Timestamp,
        query: StreamingQuery,
        threads: usize,
    ) -> Vec<Vec<StreamCycle>> {
        let mut engine = StreamingEngine::with_threads(retention, query, threads).unwrap();
        batches
            .iter()
            .map(|b| {
                let mut cycles: Vec<StreamCycle> = engine
                    .ingest(b)
                    .unwrap()
                    .cycles
                    .iter()
                    .map(StreamCycle::canonicalize)
                    .collect();
                cycles.sort_by(|a, b| a.edges.cmp(&b.edges));
                cycles
            })
            .collect()
    }

    #[test]
    fn multi_engine_construction_and_subscribe_validation() {
        assert!(matches!(
            MultiStreamingEngine::with_threads(-1, 1),
            Err(StreamingError::RetentionTooSmall { .. })
        ));
        let mut engine = MultiStreamingEngine::with_threads(100, 1).unwrap();
        assert!(matches!(
            engine.subscribe(StreamingQuery::simple(0)),
            Err(StreamingError::Query(EnumerationError::InvalidWindow {
                delta: 0
            }))
        ));
        assert!(matches!(
            engine.subscribe(StreamingQuery::temporal(10).include_self_loops(true)),
            Err(StreamingError::Query(
                EnumerationError::SelfLoopsUnsupported
            ))
        ));
        assert!(matches!(
            engine.subscribe(StreamingQuery::temporal(500)),
            Err(StreamingError::RetentionTooSmall {
                delta: 500,
                retention: 100
            })
        ));
        // An unsatisfiable predicate is refused up front, like every other
        // can-never-match query shape.
        assert!(matches!(
            engine.subscribe(
                StreamingQuery::temporal(10)
                    .predicate(EdgePredicate::pass_all().min_amount(5).max_amount(4)),
            ),
            Err(StreamingError::Query(
                EnumerationError::InvalidPredicate { .. }
            ))
        ));
        assert!(matches!(
            engine.subscribe(
                StreamingQuery::temporal(10)
                    .predicate(EdgePredicate::pass_all().labels(LabelFilter::allow(Vec::new()))),
            ),
            Err(StreamingError::Query(
                EnumerationError::InvalidPredicate { .. }
            ))
        ));
        assert_eq!(engine.num_subscriptions(), 0);
        let id = engine.subscribe(StreamingQuery::temporal(100)).unwrap();
        assert_eq!(engine.num_subscriptions(), 1);
        assert_eq!(engine.subscriptions().next().unwrap().0, id);
        assert_ne!(id, QueryId::SOLO, "subscription ids start above SOLO");
    }

    #[test]
    fn multi_engine_matches_dedicated_engines_per_batch() {
        // A stream with overlapping rings of several spans and lengths, cut
        // into batches; every subscription must report, batch by batch,
        // exactly what its own dedicated engine reports.
        let edges = [
            e(0, 1, 1),
            e(1, 2, 2),
            e(2, 0, 3),
            e(2, 3, 4),
            e(3, 2, 5),
            e(0, 2, 6),
            e(2, 1, 7),
            e(1, 0, 8),
            e(3, 3, 9),
            e(1, 3, 10),
            e(3, 0, 11),
            e(0, 1, 12),
        ];
        let batches: Vec<Vec<TemporalEdge>> = edges.chunks(3).map(<[_]>::to_vec).collect();
        let retention = 1_000;
        let portfolio = [
            StreamingQuery::temporal(1_000),
            StreamingQuery::temporal(4),
            StreamingQuery::simple(1_000).include_self_loops(true),
            StreamingQuery::simple(6).max_len(2),
            // Predicate-bearing member: deny-list that the stream's
            // unattributed (label 0) edges all pass, so the predicate path
            // is exercised end to end without changing what is reportable.
            StreamingQuery::temporal(1_000)
                .predicate(EdgePredicate::pass_all().labels(LabelFilter::deny(vec![9]))),
        ];
        for threads in [1, 4] {
            let mut multi = MultiStreamingEngine::with_threads(retention, threads).unwrap();
            let ids: Vec<QueryId> = portfolio
                .iter()
                .map(|q| multi.subscribe(q.clone()).unwrap())
                .collect();
            let mut per_query: Vec<Vec<Vec<StreamCycle>>> =
                portfolio.iter().map(|_| Vec::new()).collect();
            for batch in &batches {
                let report = multi.ingest(batch).unwrap();
                assert_eq!(report.reports.len(), portfolio.len());
                for (slot, id) in per_query.iter_mut().zip(&ids) {
                    let r = report.report(*id).unwrap();
                    assert_eq!(r.query, *id);
                    assert_eq!(r.cycles_found, r.cycles.len() as u64);
                    let mut cycles: Vec<StreamCycle> =
                        r.cycles.iter().map(StreamCycle::canonicalize).collect();
                    cycles.sort_by(|a, b| a.edges.cmp(&b.edges));
                    slot.push(cycles);
                }
            }
            for ((query, id), observed) in portfolio.iter().zip(&ids).zip(&per_query) {
                let expected = dedicated_per_batch(&batches, retention, query.clone(), threads);
                assert_eq!(observed, &expected, "query {id} threads {threads}");
                let total: u64 = expected.iter().map(|b| b.len() as u64).sum();
                assert_eq!(multi.total_cycles(*id), Some(total));
            }
        }
    }

    #[test]
    fn shared_pass_covers_the_loosest_constraints() {
        let subs = |queries: &[StreamingQuery]| -> Vec<Subscription> {
            queries
                .iter()
                .enumerate()
                .map(|(i, q)| Subscription {
                    id: QueryId(i as u64 + 1),
                    query: q.clone(),
                    total_cycles: 0,
                    latency: LatencyStats::new(),
                })
                .collect()
        };
        assert_eq!(SharedPass::covering(&[]), None);
        // All-temporal portfolio keeps the temporal pruning.
        let pass = SharedPass::covering(&subs(&[
            StreamingQuery::temporal(10).max_len(3),
            StreamingQuery::temporal(40).max_len(5),
        ]))
        .unwrap();
        assert_eq!(pass.kind, CycleKind::Temporal);
        assert_eq!(pass.delta, 40);
        assert_eq!(pass.max_len, Some(5));
        assert!(!pass.include_self_loops);
        // One simple query switches the pass to the simple search; one
        // unbounded query drops the length bound.
        let pass = SharedPass::covering(&subs(&[
            StreamingQuery::temporal(50).max_len(4),
            StreamingQuery::simple(20).include_self_loops(true),
        ]))
        .unwrap();
        assert_eq!(pass.kind, CycleKind::Simple);
        assert_eq!(pass.delta, 50);
        assert_eq!(pass.max_len, None);
        assert!(pass.include_self_loops);
        assert!(
            pass.predicate.is_pass_all(),
            "unfiltered portfolios keep the zero-cost pass-all predicate"
        );

        // The predicate axis takes the union (amount hull, label-filter
        // union): the weakest predicate implied by every subscription.
        let pass = SharedPass::covering(&subs(&[
            StreamingQuery::temporal(10)
                .predicate(EdgePredicate::pass_all().min_amount(100).max_amount(500)),
            StreamingQuery::temporal(10)
                .predicate(EdgePredicate::pass_all().min_amount(50).max_amount(200)),
        ]))
        .unwrap();
        assert_eq!(pass.predicate.edge_predicate().amount_min(), 50);
        assert_eq!(pass.predicate.edge_predicate().amount_max(), 500);
        // One unfiltered subscription widens the union to pass-all.
        let pass = SharedPass::covering(&subs(&[
            StreamingQuery::temporal(10)
                .predicate(EdgePredicate::pass_all().labels(LabelFilter::allow(vec![1]))),
            StreamingQuery::temporal(10),
        ]))
        .unwrap();
        assert!(pass.predicate.is_pass_all());

        // Extended constraints take the sound hull: total bounds widen to
        // the loosest interval, monotonicity survives only when unanimous,
        // vertex deny-sets intersect.
        let pass = SharedPass::covering(&subs(&[
            StreamingQuery::temporal(10).cycle_predicate(
                CyclePredicate::pass_all()
                    .total_min(100)
                    .total_max(500)
                    .monotone_amounts(true)
                    .vertices(VertexFilter::deny(vec![3, 4])),
            ),
            StreamingQuery::temporal(10).cycle_predicate(
                CyclePredicate::pass_all()
                    .total_min(50)
                    .total_max(900)
                    .vertices(VertexFilter::deny(vec![4, 5])),
            ),
        ]))
        .unwrap();
        assert_eq!(pass.predicate.total_amount_min(), 50);
        assert_eq!(pass.predicate.total_amount_max(), 900);
        assert!(
            !pass.predicate.requires_monotone(),
            "one non-monotone subscription drops the shared monotone prune"
        );
        assert_eq!(
            *pass.predicate.vertex_filter(),
            VertexFilter::deny(vec![4]),
            "only vertices denied by every subscription stay denied"
        );
        // One subscription without extended constraints loosens the hull all
        // the way back to pass-all on those axes.
        let pass = SharedPass::covering(&subs(&[
            StreamingQuery::temporal(10).cycle_predicate(CyclePredicate::pass_all().total_max(500)),
            StreamingQuery::temporal(10),
        ]))
        .unwrap();
        assert!(pass.predicate.is_pass_all());
    }

    #[test]
    fn mid_stream_subscribe_and_unsubscribe() {
        let mut engine = MultiStreamingEngine::with_threads(1_000, 1).unwrap();
        let early = engine.subscribe(StreamingQuery::simple(1_000)).unwrap();
        // First ring closes while only `early` is subscribed.
        engine.ingest(&[e(0, 1, 1), e(1, 2, 2)]).unwrap();
        let r = engine.ingest(&[e(2, 0, 3)]).unwrap();
        assert_eq!(r.report(early).unwrap().cycles_found, 1);

        // A late subscriber misses the already-closed ring but sees the next.
        let late = engine.subscribe(StreamingQuery::simple(1_000)).unwrap();
        assert_ne!(late, early, "ids are unique");
        let r = engine.ingest(&[e(3, 4, 4), e(4, 3, 5)]).unwrap();
        assert_eq!(r.report(early).unwrap().cycles_found, 1);
        assert_eq!(r.report(late).unwrap().cycles_found, 1);
        assert_eq!(engine.total_cycles(early), Some(2));
        assert_eq!(engine.total_cycles(late), Some(1));
        assert_eq!(engine.latency(late).unwrap().count(), 1);
        assert_eq!(engine.latency(early).unwrap().count(), 3);

        // Unsubscribing stops the reports (and the id is gone for good).
        assert!(engine.unsubscribe(early));
        assert!(!engine.unsubscribe(early));
        let r = engine.ingest(&[e(5, 6, 6), e(6, 5, 7)]).unwrap();
        assert!(r.report(early).is_none());
        assert_eq!(r.report(late).unwrap().cycles_found, 1);
        assert_eq!(engine.total_cycles(early), None);
        assert_eq!(engine.latency(early), None);
    }

    #[test]
    fn ingest_without_subscriptions_still_advances_the_window() {
        let mut engine = MultiStreamingEngine::with_threads(10, 1).unwrap();
        let r = engine.ingest(&[e(0, 1, 0)]).unwrap();
        assert!(r.reports.is_empty());
        assert_eq!(r.candidates, 0);
        assert_eq!(r.total_cycles(), 0);
        // The un-subscribed batch slid the window; a subscriber added now
        // queries against the shared retained history.
        let id = engine.subscribe(StreamingQuery::simple(10)).unwrap();
        let r = engine.ingest(&[e(1, 0, 50)]).unwrap();
        assert_eq!(r.expired, 1, "the t=0 edge aged out");
        assert_eq!(r.report(id).unwrap().cycles_found, 0);
        assert_eq!(engine.batches(), 2);
    }

    /// Pins the documented late-subscription semantics: a new subscriber
    /// reports cycles *closed* after it subscribed even when their older
    /// edges predate the subscription (the shared window's retained history
    /// is visible to everyone) — it is a dedicated engine that starts
    /// *reporting* now, not one that starts *ingesting* now.
    #[test]
    fn late_subscriber_sees_cycles_closing_through_retained_history() {
        let mut engine = MultiStreamingEngine::with_threads(1_000, 1).unwrap();
        engine.ingest(&[e(0, 1, 1)]).unwrap();
        let late = engine.subscribe(StreamingQuery::simple(1_000)).unwrap();
        let r = engine.ingest(&[e(1, 0, 2)]).unwrap();
        assert_eq!(
            r.report(late).unwrap().cycles_found,
            1,
            "the closing batch arrived after the subscription, so the ring \
             is reported even though its first edge predates it"
        );
    }

    #[test]
    fn self_loops_fan_out_only_to_requesting_queries() {
        let mut engine = MultiStreamingEngine::with_threads(1_000, 1).unwrap();
        let with = engine
            .subscribe(StreamingQuery::simple(1_000).include_self_loops(true))
            .unwrap();
        let without = engine.subscribe(StreamingQuery::simple(1_000)).unwrap();
        let temporal = engine.subscribe(StreamingQuery::temporal(1_000)).unwrap();
        let r = engine.ingest(&[e(7, 7, 1)]).unwrap();
        assert_eq!(r.report(with).unwrap().cycles_found, 1);
        assert_eq!(r.report(without).unwrap().cycles_found, 0);
        assert_eq!(r.report(temporal).unwrap().cycles_found, 0);
    }

    /// Subscription churn must not disturb compaction, and compaction timing
    /// must not disturb reports: the same stream replayed with and without
    /// mid-stream churn yields identical per-query results.
    #[test]
    fn reports_are_unaffected_by_compaction_and_subscription_churn() {
        // Retention 10 over a 0..~120 stream: plenty of expiry and several
        // compactions (dead prefix outweighs live edges repeatedly).
        let query = StreamingQuery::simple(10);
        let batches: Vec<Vec<TemporalEdge>> = (0..40)
            .map(|i| {
                let t = i as Timestamp * 3;
                vec![e(i % 5, (i + 1) % 5, t), e((i + 1) % 5, i % 5, t + 1)]
            })
            .collect();

        let mut churn = MultiStreamingEngine::with_threads(10, 1).unwrap();
        let keeper = churn.subscribe(query.clone()).unwrap();
        let mut keeper_union: Vec<Vec<StreamCycle>> = Vec::new();
        for (i, batch) in batches.iter().enumerate() {
            // Churn an unrelated subscription every third batch.
            if i % 3 == 0 {
                let transient = churn.subscribe(StreamingQuery::temporal(5)).unwrap();
                assert!(churn.unsubscribe(transient));
            }
            let report = churn.ingest(batch).unwrap();
            let mut cycles: Vec<StreamCycle> = report
                .report(keeper)
                .unwrap()
                .cycles
                .iter()
                .map(StreamCycle::canonicalize)
                .collect();
            cycles.sort_by(|a, b| a.edges.cmp(&b.edges));
            keeper_union.push(cycles);
        }
        assert!(
            churn.graph().total_expired() > 0,
            "the stream must exercise expiry"
        );
        let quiet = dedicated_per_batch(&batches, 10, query, 1);
        assert_eq!(keeper_union, quiet, "churn must not change reports");
    }

    #[test]
    fn subscription_index_buckets_cohorts_and_deduplicates_groups() {
        let mut engine = MultiStreamingEngine::with_threads(1_000, 1).unwrap();
        assert_eq!(engine.subscription_index().num_cohorts(), 0);
        // Two identical temporal profiles share one constraint group …
        let a = engine
            .subscribe(StreamingQuery::temporal(100).max_len(4))
            .unwrap();
        let b = engine
            .subscribe(StreamingQuery::temporal(100).max_len(4))
            .unwrap();
        // … a different bound opens a second group in the same cohort …
        let c = engine
            .subscribe(StreamingQuery::temporal(100).max_len(6))
            .unwrap();
        // … and simple / self-loop queries land in their own cohorts.
        let d = engine.subscribe(StreamingQuery::simple(50)).unwrap();
        let e = engine
            .subscribe(StreamingQuery::simple(50).include_self_loops(true))
            .unwrap();
        let index = engine.subscription_index();
        assert_eq!(index.num_cohorts(), 3);
        assert_eq!(index.num_groups(), 4);
        assert_eq!(index.num_subscriptions(), 5);
        let summaries = index.summaries();
        let temporal = summaries
            .iter()
            .find(|(k, _, _)| k.kind == CycleKind::Temporal)
            .unwrap();
        assert_eq!((temporal.1, temporal.2), (2, 3), "2 groups over 3 subs");

        // Unsubscribing one sharer keeps the group; removing the last member
        // drops the group, and the cohort once it empties.
        assert!(engine.unsubscribe(a));
        assert_eq!(engine.subscription_index().num_groups(), 4);
        assert!(engine.unsubscribe(b));
        assert_eq!(engine.subscription_index().num_groups(), 3);
        assert!(engine.unsubscribe(c));
        assert_eq!(engine.subscription_index().num_cohorts(), 2);
        assert!(engine.unsubscribe(d));
        assert!(engine.unsubscribe(e));
        assert_eq!(engine.subscription_index().num_cohorts(), 0);
        assert!(!engine.unsubscribe(a), "ids are gone for good");
    }

    /// A [`CandidateShape`] with the given structure and pass-all-compatible
    /// attributes (amount 0, label 0 — what unattributed edges carry).
    fn shape(len: usize, strict: bool) -> CandidateShape {
        CandidateShape {
            span: 0,
            len,
            strict,
            min_amount: 0,
            max_amount: 0,
            labels: vec![0],
            edge_attrs: (0..len)
                .map(|i| {
                    TemporalEdge::new(
                        (i % 2) as VertexId,
                        ((i + 1) % 2) as VertexId,
                        i as Timestamp,
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn predicate_profiles_key_separate_cohorts() {
        let mut engine = MultiStreamingEngine::with_threads(1_000, 1).unwrap();
        let p = EdgePredicate::pass_all().min_amount(100);
        let a = engine.subscribe(StreamingQuery::temporal(100)).unwrap();
        let b = engine
            .subscribe(StreamingQuery::temporal(100).predicate(p.clone()))
            .unwrap();
        let c = engine
            .subscribe(StreamingQuery::temporal(200).predicate(p.clone()))
            .unwrap();
        let index = engine.subscription_index();
        assert_eq!(
            index.num_cohorts(),
            2,
            "same kind, distinct predicate profiles → distinct cohorts"
        );
        assert_eq!(index.num_groups(), 3, "(δ, max_len) still dedups inside");
        let summaries = index.summaries();
        assert!(
            summaries
                .iter()
                .any(|(k, _, _)| k.to_string().contains("amount[100..")),
            "cohort display names the predicate profile"
        );
        // Sharing the full profile (predicate included) shares the group.
        let d = engine
            .subscribe(StreamingQuery::temporal(200).predicate(p.clone()))
            .unwrap();
        assert_eq!(engine.subscription_index().num_groups(), 3);
        for id in [a, b, c, d] {
            assert!(engine.unsubscribe(id));
        }
        assert_eq!(engine.subscription_index().num_cohorts(), 0);
    }

    /// The pushdown differential oracle: the same attributed stream and
    /// predicate portfolio, ingested with pushdown on and off, must produce
    /// byte-identical per-query reports — while the pushdown side admits
    /// strictly fewer union members and discovers no more candidates.
    #[test]
    fn predicate_pushdown_matches_post_filter_and_shrinks_unions() {
        // A cheap ring over {0,1,2} (amount 10, label 1) interleaved with an
        // expensive ring over {3,4} (amounts 600–1000, label 7).
        let batches: Vec<Vec<TemporalEdge>> = vec![
            vec![ea(0, 1, 1, 10, 1), ea(3, 4, 2, 1_000, 7)],
            vec![ea(1, 2, 3, 10, 1), ea(4, 3, 4, 600, 7)],
            vec![ea(2, 0, 5, 10, 1)],
        ];
        // Both subscriptions constrain the amount floor, so the portfolio
        // union keeps min_amount 200 (the hull of 500 and 200) and the cheap
        // ring's amount-10 edges are union-rejected during the shared pass.
        let portfolio = [
            StreamingQuery::simple(1_000).predicate(EdgePredicate::pass_all().min_amount(500)),
            StreamingQuery::simple(1_000).predicate(
                EdgePredicate::pass_all()
                    .min_amount(200)
                    .labels(LabelFilter::allow(vec![7])),
            ),
        ];
        for strategy in [FanOutStrategy::Naive, FanOutStrategy::Indexed] {
            let mut push = MultiStreamingEngine::with_threads(1_000, 1)
                .unwrap()
                .with_fan_out(strategy);
            let mut post = MultiStreamingEngine::with_threads(1_000, 1)
                .unwrap()
                .with_fan_out(strategy)
                .with_pushdown(false);
            assert!(push.pushdown_enabled());
            assert!(!post.pushdown_enabled());
            let ids: Vec<QueryId> = portfolio
                .iter()
                .map(|q| {
                    let id = push.subscribe(q.clone()).unwrap();
                    assert_eq!(post.subscribe(q.clone()).unwrap(), id);
                    id
                })
                .collect();
            let (mut push_union, mut post_union) = (0u64, 0u64);
            let mut cycles_seen = 0u64;
            for batch in &batches {
                let rp = push.ingest(batch).unwrap();
                let rq = post.ingest(batch).unwrap();
                push_union += rp.stats.work.total_union_members();
                post_union += rq.stats.work.total_union_members();
                assert!(
                    rp.candidates <= rq.candidates,
                    "pushdown can only discover fewer candidates"
                );
                for id in &ids {
                    let a = rp.report(*id).unwrap();
                    let b = rq.report(*id).unwrap();
                    assert_eq!(a.cycles_found, b.cycles_found, "query {id}");
                    let mut ca: Vec<StreamCycle> =
                        a.cycles.iter().map(StreamCycle::canonicalize).collect();
                    let mut cb: Vec<StreamCycle> =
                        b.cycles.iter().map(StreamCycle::canonicalize).collect();
                    ca.sort_by(|x, y| x.edges.cmp(&y.edges));
                    cb.sort_by(|x, y| x.edges.cmp(&y.edges));
                    assert_eq!(ca, cb, "query {id}");
                    cycles_seen += a.cycles_found;
                }
            }
            assert!(cycles_seen > 0, "the expensive ring must be reported");
            assert!(
                push_union < post_union,
                "pushdown must strictly shrink the union passes \
                 ({push_union} vs {post_union})"
            );
        }
    }

    /// Extended predicates (aggregates, positions, vertex sets) through the
    /// multi-query engine: every fan-out strategy, with pushdown on and off,
    /// must report byte-identically to each query's own dedicated engine —
    /// and the portfolio must actually separate the three planted rings.
    #[test]
    fn extended_predicates_fan_out_exactly_like_dedicated_engines() {
        // Ring A (0→1→2→0): amounts 10,20,30 — monotone, total 60.
        // Ring B (3→4→3): amounts 500,400 — non-monotone, total 900.
        // Ring C (5→6→5): amounts 50,60 — monotone, total 110, touches 6.
        let batches: Vec<Vec<TemporalEdge>> = vec![
            vec![ea(0, 1, 1, 10, 1), ea(1, 2, 2, 20, 1)],
            vec![ea(2, 0, 3, 30, 1), ea(3, 4, 4, 500, 2)],
            vec![ea(4, 3, 5, 400, 2), ea(5, 6, 6, 50, 1)],
            vec![ea(6, 5, 7, 60, 1)],
        ];
        let portfolio = [
            // Monotone amounts → rings A and C.
            StreamingQuery::temporal(1_000)
                .cycle_predicate(CyclePredicate::pass_all().monotone_amounts(true)),
            // Total-amount floor → ring B only.
            StreamingQuery::temporal(1_000)
                .cycle_predicate(CyclePredicate::pass_all().total_min(200)),
            // Vertex deny-set → rings A and B (C passes through vertex 6).
            StreamingQuery::temporal(1_000)
                .cycle_predicate(CyclePredicate::pass_all().vertices(VertexFilter::deny(vec![6]))),
            // Closing-edge amount floor → ring B only (closing amounts are
            // 30, 400 and 60).
            StreamingQuery::temporal(1_000).cycle_predicate(CyclePredicate::pass_all().at(
                pce_graph::Position::FromEnd(0),
                EdgePredicate::pass_all().min_amount(100),
            )),
        ];
        let expected_totals = [2u64, 1, 2, 1];
        for threads in [1usize, 4] {
            let dedicated: Vec<Vec<Vec<StreamCycle>>> = portfolio
                .iter()
                .map(|q| dedicated_per_batch(&batches, 1_000, q.clone(), threads))
                .collect();
            for strategy in [FanOutStrategy::Naive, FanOutStrategy::Indexed] {
                for pushdown in [true, false] {
                    let mut multi = MultiStreamingEngine::with_threads(1_000, threads)
                        .unwrap()
                        .with_fan_out(strategy)
                        .with_pushdown(pushdown);
                    let ids: Vec<QueryId> = portfolio
                        .iter()
                        .map(|q| multi.subscribe(q.clone()).unwrap())
                        .collect();
                    for (bi, batch) in batches.iter().enumerate() {
                        let report = multi.ingest(batch).unwrap();
                        for (qi, id) in ids.iter().enumerate() {
                            let r = report.report(*id).unwrap();
                            let mut cycles: Vec<StreamCycle> =
                                r.cycles.iter().map(StreamCycle::canonicalize).collect();
                            cycles.sort_by(|a, b| a.edges.cmp(&b.edges));
                            assert_eq!(
                                cycles, dedicated[qi][bi],
                                "query {qi} batch {bi} {strategy:?} pushdown={pushdown} \
                                 threads {threads}"
                            );
                        }
                    }
                    for (id, want) in ids.iter().zip(expected_totals) {
                        assert_eq!(multi.total_cycles(*id), Some(want));
                    }
                }
            }
        }
    }

    #[test]
    fn cohort_gate_matches_the_naive_per_subscription_checks() {
        let verts = [0, 1, 0];
        let simple = CohortKey {
            kind: CycleKind::Simple,
            include_self_loops: false,
            predicate: CyclePredicate::pass_all(),
        };
        let loops = CohortKey {
            kind: CycleKind::Simple,
            include_self_loops: true,
            predicate: CyclePredicate::pass_all(),
        };
        let temporal = CohortKey {
            kind: CycleKind::Temporal,
            include_self_loops: false,
            predicate: CyclePredicate::pass_all(),
        };
        // Self-loops (len 1) only pass the opted-in simple cohort.
        assert!(!simple.admits(&shape(1, true), &verts[..1]));
        assert!(loops.admits(&shape(1, true), &verts[..1]));
        assert!(!temporal.admits(&shape(1, true), &verts[..1]));
        // Non-strict candidates only pass simple cohorts.
        assert!(simple.admits(&shape(3, false), &verts));
        assert!(loops.admits(&shape(3, false), &verts));
        assert!(!temporal.admits(&shape(3, false), &verts));
        assert!(temporal.admits(&shape(3, true), &verts));
        // A predicate-bearing cohort additionally gates on the attribute
        // shape, exactly as the naive per-subscription check does.
        let fenced = CohortKey {
            kind: CycleKind::Simple,
            include_self_loops: false,
            predicate: EdgePredicate::pass_all().min_amount(100).into(),
        };
        assert!(
            !fenced.admits(&shape(3, true), &verts),
            "amount 0 < min 100"
        );
        let mut rich = shape(3, true);
        rich.min_amount = 100;
        rich.max_amount = 250;
        assert!(fenced.admits(&rich, &verts));
        // Cycle-level constraints re-check the resolved edge sequence
        // exactly: the total of three amount-0 edges misses a 100 floor, and
        // a denied vertex on the path rejects regardless of attributes.
        let total = CohortKey {
            kind: CycleKind::Simple,
            include_self_loops: false,
            predicate: CyclePredicate::pass_all().total_min(100),
        };
        assert!(!total.admits(&shape(3, true), &verts), "total 0 < min 100");
        let denied = CohortKey {
            kind: CycleKind::Simple,
            include_self_loops: false,
            predicate: CyclePredicate::pass_all().vertices(VertexFilter::deny(vec![1])),
        };
        assert!(!denied.admits(&shape(3, true), &verts));
        assert!(denied.admits(&shape(3, true), &[0, 2, 3]));
    }

    /// Replays one deterministic stream (rings of several spans, lengths and
    /// a self-loop) through both fan-out strategies and asserts per-query,
    /// per-batch byte-identical reports plus the indexed dispatcher doing
    /// strictly less checking work than the linear loop.
    #[test]
    fn indexed_fan_out_matches_naive_loop_batch_by_batch() {
        let edges = [
            e(0, 1, 1),
            e(1, 2, 2),
            e(2, 0, 3),
            e(2, 3, 4),
            e(3, 2, 5),
            e(0, 2, 6),
            e(2, 1, 7),
            e(1, 0, 8),
            e(3, 3, 9),
            e(1, 3, 10),
            e(3, 0, 11),
            e(0, 1, 12),
        ];
        let portfolio = [
            StreamingQuery::temporal(1_000),
            StreamingQuery::temporal(4),
            StreamingQuery::simple(1_000).include_self_loops(true),
            StreamingQuery::simple(6).max_len(2),
            StreamingQuery::temporal(4), // duplicate profile: one group
        ];
        for threads in [1usize, 4] {
            let mut naive = MultiStreamingEngine::with_threads(1_000, threads)
                .unwrap()
                .with_fan_out(FanOutStrategy::Naive);
            let mut indexed = MultiStreamingEngine::with_threads(1_000, threads).unwrap();
            assert_eq!(naive.fan_out_strategy(), FanOutStrategy::Naive);
            assert_eq!(indexed.fan_out_strategy(), FanOutStrategy::Indexed);
            let ids: Vec<QueryId> = portfolio
                .iter()
                .map(|q| {
                    let id = naive.subscribe(q.clone()).unwrap();
                    assert_eq!(indexed.subscribe(q.clone()).unwrap(), id);
                    id
                })
                .collect();
            assert!(indexed.subscription_index().num_groups() < portfolio.len());
            for chunk in edges.chunks(3) {
                let rn = naive.ingest(chunk).unwrap();
                let ri = indexed.ingest(chunk).unwrap();
                assert_eq!(rn.candidates, ri.candidates);
                assert_eq!(rn.fan_out.strategy, FanOutStrategy::Naive);
                assert_eq!(ri.fan_out.strategy, FanOutStrategy::Indexed);
                assert!(
                    ri.fan_out.checks <= rn.fan_out.checks,
                    "the index can never check more than the linear loop"
                );
                for id in &ids {
                    let a = rn.report(*id).unwrap();
                    let b = ri.report(*id).unwrap();
                    assert_eq!(a.cycles_found, b.cycles_found, "query {id}");
                    let mut ca: Vec<StreamCycle> =
                        a.cycles.iter().map(StreamCycle::canonicalize).collect();
                    let mut cb: Vec<StreamCycle> =
                        b.cycles.iter().map(StreamCycle::canonicalize).collect();
                    ca.sort_by(|x, y| x.edges.cmp(&y.edges));
                    cb.sort_by(|x, y| x.edges.cmp(&y.edges));
                    assert_eq!(ca, cb, "query {id}");
                }
                // Per-cohort accounting is internally consistent: offered
                // never exceeds candidates, accepted is delivered work.
                for cohort in &ri.fan_out.cohorts {
                    assert!(cohort.offered <= ri.candidates);
                    let delivered: u64 = ids
                        .iter()
                        .zip(&portfolio)
                        .filter(|(_, q)| CohortKey::of(q) == cohort.key)
                        .map(|(id, _)| ri.report(*id).unwrap().cycles_found)
                        .sum();
                    assert_eq!(cohort.accepted, delivered, "cohort {}", cohort.key);
                }
            }
            for id in &ids {
                assert_eq!(naive.total_cycles(*id), indexed.total_cycles(*id));
            }
        }
    }

    /// A portfolio at the [`PARALLEL_FAN_OUT_SUBS`] threshold must take the
    /// deferred parallel dispatch path — and still report exactly what the
    /// naive loop reports, with per-cohort dispatch latency recorded.
    #[test]
    fn large_portfolio_dispatches_in_parallel_with_identical_results() {
        let build = |strategy: FanOutStrategy| {
            let mut engine = MultiStreamingEngine::with_threads(1_000, 4)
                .unwrap()
                .with_fan_out(strategy);
            for i in 0..PARALLEL_FAN_OUT_SUBS {
                // A handful of distinct profiles, repeated: realistic
                // portfolio shape and a stable group count.
                let delta = 1_000 - (i % 8) as Timestamp * 100;
                let q = match i % 3 {
                    0 => StreamingQuery::temporal(delta),
                    1 => StreamingQuery::temporal(delta).max_len(4),
                    _ => StreamingQuery::simple(delta).max_len(5),
                };
                engine.subscribe(q).unwrap();
            }
            engine
        };
        let mut naive = build(FanOutStrategy::Naive);
        let mut indexed = build(FanOutStrategy::Indexed);
        assert_eq!(indexed.subscription_index().num_subscriptions(), 64);
        assert!(indexed.subscription_index().num_groups() <= 24);

        let edges = [
            e(0, 1, 1),
            e(1, 2, 2),
            e(2, 0, 3),
            e(0, 2, 4),
            e(2, 1, 5),
            e(1, 0, 6),
            e(2, 3, 7),
            e(3, 2, 8),
        ];
        let mut saw_parallel = false;
        for chunk in edges.chunks(4) {
            let rn = naive.ingest(chunk).unwrap();
            let ri = indexed.ingest(chunk).unwrap();
            if ri.candidates > 0 {
                assert!(ri.fan_out.parallel, "64 subs must defer to the pool");
                saw_parallel = true;
                assert!(ri.fan_out.checks < rn.fan_out.checks);
            }
            for (a, b) in rn.reports.iter().zip(&ri.reports) {
                assert_eq!(a.query, b.query);
                assert_eq!(a.cycles_found, b.cycles_found, "query {}", a.query);
            }
        }
        assert!(saw_parallel, "the stream must close cycles");
        // Deferred batches record per-cohort dispatch latency.
        let (key, _, _) = indexed
            .subscription_index()
            .summaries()
            .into_iter()
            .next()
            .unwrap();
        let latency = indexed
            .cohort_latency(&key)
            .expect("parallel batches recorded cohort latency");
        assert!(latency.count() > 0);
        assert!(
            naive.cohort_latency(&key).is_none(),
            "the naive loop has no cohort accounting"
        );
    }

    #[test]
    fn multi_granularities_agree_with_recorded_stats() {
        let edges = [
            e(0, 1, 1),
            e(1, 2, 2),
            e(2, 0, 3),
            e(2, 3, 4),
            e(3, 2, 5),
            e(0, 2, 6),
            e(2, 1, 7),
            e(1, 0, 8),
        ];
        let mut reference: Option<Vec<u64>> = None;
        for granularity in [
            Granularity::Sequential,
            Granularity::CoarseGrained,
            Granularity::FineGrained,
        ] {
            let mut engine = MultiStreamingEngine::with_threads(1_000, 4)
                .unwrap()
                .with_granularity(granularity);
            let a = engine.subscribe(StreamingQuery::temporal(1_000)).unwrap();
            let b = engine.subscribe(StreamingQuery::simple(1_000)).unwrap();
            let mut per_batch = Vec::new();
            for chunk in edges.chunks(3) {
                let report = engine.ingest(chunk).unwrap();
                per_batch.push(report.report(a).unwrap().cycles_found);
                per_batch.push(report.report(b).unwrap().cycles_found);
                assert!(report.candidates >= report.report(a).unwrap().cycles_found);
            }
            match &reference {
                None => reference = Some(per_batch),
                Some(expected) => assert_eq!(&per_batch, expected, "{granularity:?}"),
            }
        }
    }

    #[test]
    fn subscription_snapshots_track_churn() {
        let mut engine = MultiStreamingEngine::with_threads(1_000, 1).unwrap();
        assert!(engine.subscription_snapshots().is_empty());

        let a = engine.subscribe(StreamingQuery::temporal(100)).unwrap();
        let b = engine.subscribe(StreamingQuery::simple(200)).unwrap();
        let c = engine
            .subscribe(StreamingQuery::simple(15).max_len(4))
            .unwrap();
        let snaps = engine.subscription_snapshots();
        assert_eq!(
            snaps.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![a, b, c]
        );
        assert!(snaps.iter().all(|s| s.total_cycles == 0));
        assert_eq!(snaps[1].query, StreamingQuery::simple(200));

        // A reported cycle shows up in the owning snapshot's lifetime total.
        engine.ingest(&[e(0, 1, 10), e(1, 2, 20)]).unwrap();
        engine.ingest(&[e(2, 0, 30)]).unwrap();
        let snaps = engine.subscription_snapshots();
        assert_eq!(snaps[0].total_cycles, 1, "temporal δ=100 sees the ring");
        assert_eq!(snaps[1].total_cycles, 1, "simple δ=200 sees the ring");
        assert_eq!(
            snaps[2].total_cycles, 0,
            "δ=15 is narrower than the 20-tick span"
        );

        // Unsubscribe drops the entry; ids of survivors are untouched; a
        // fresh subscribe never reuses the dropped id.
        assert!(engine.unsubscribe(b));
        let snaps = engine.subscription_snapshots();
        assert_eq!(snaps.iter().map(|s| s.id).collect::<Vec<_>>(), vec![a, c]);
        let d = engine.subscribe(StreamingQuery::temporal(300)).unwrap();
        assert!(d > c && d > b);
        let snaps = engine.subscription_snapshots();
        assert_eq!(snaps.last().unwrap().id, d);
        assert_eq!(snaps.last().unwrap().total_cycles, 0);
    }

    #[test]
    fn restore_subscription_rebuilds_registry_and_enforces_monotonicity() {
        // Build a registry with history, snapshot it, resurrect it on a
        // fresh engine, and check the restored engine reports identically.
        let mut original = MultiStreamingEngine::with_threads(1_000, 1).unwrap();
        let a = original.subscribe(StreamingQuery::temporal(100)).unwrap();
        original.subscribe(StreamingQuery::simple(200)).unwrap();
        let warmup = [e(0, 1, 10), e(1, 2, 20), e(2, 0, 30)];
        for chunk in warmup.chunks(2) {
            original.ingest(chunk).unwrap();
        }
        let snaps = original.subscription_snapshots();

        let mut restored = MultiStreamingEngine::with_threads(1_000, 1).unwrap();
        // Hydrate the window exactly as recovery does: ingest with no
        // subscriptions, then restore the registry and align the counter.
        for chunk in warmup.chunks(2) {
            restored.ingest(chunk).unwrap();
        }
        restored.resume_at_batch(original.batches());
        for snap in snaps {
            let id = restored.restore_subscription(snap).unwrap();
            assert_eq!(
                restored.total_cycles(id),
                original.total_cycles(id),
                "lifetime totals survive the round trip"
            );
        }
        assert_eq!(restored.batches(), original.batches());

        // Both engines see the same next batch identically.
        let next = [e(0, 2, 40), e(2, 1, 50), e(1, 0, 60)];
        let r_orig = original.ingest(&next).unwrap();
        let r_rest = restored.ingest(&next).unwrap();
        assert_eq!(r_orig.batch, r_rest.batch);
        for (o, r) in r_orig.reports.iter().zip(r_rest.reports.iter()) {
            assert_eq!(o.query, r.query);
            assert_eq!(o.cycles_found, r.cycles_found);
        }

        // New ids keep ascending past the restored registry.
        let fresh = restored.subscribe(StreamingQuery::temporal(10)).unwrap();
        assert!(fresh.as_u64() > a.as_u64() + 1);

        // Restoring below the issued-id floor is a typed error.
        let stale = SubscriptionSnapshot {
            id: QueryId::from_raw(1),
            query: StreamingQuery::temporal(10),
            total_cycles: 0,
        };
        assert!(matches!(
            restored.restore_subscription(stale),
            Err(StreamingError::RestoreIdCollision { .. })
        ));
        // Validation still applies to the query itself.
        let too_wide = SubscriptionSnapshot {
            id: QueryId::from_raw(10_000),
            query: StreamingQuery::temporal(5_000),
            total_cycles: 0,
        };
        assert!(matches!(
            restored.restore_subscription(too_wide),
            Err(StreamingError::RetentionTooSmall { .. })
        ));
    }
}
