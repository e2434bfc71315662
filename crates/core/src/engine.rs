//! The long-lived enumeration engine: one thread pool, many queries.
//!
//! The paper's fine-grained algorithms are built for sustained, scalable
//! enumeration, and a serving deployment issues many queries against the same
//! machine. [`Engine`] is the front end for that shape of traffic: construct
//! it once, let it own one [`ThreadPool`] for its whole lifetime, and answer
//! any number of [`Query`]s with no per-call thread spawn/teardown.
//!
//! ```
//! use pce_core::{Engine, Query};
//! use pce_graph::generators::fig4a_exponential_cycles;
//!
//! let engine = Engine::with_threads(2);
//! let graph = fig4a_exponential_cycles(10);
//!
//! // Counting query (the default collection mode).
//! let result = engine.run(&Query::simple(), &graph).unwrap();
//! assert_eq!(result.stats.cycles, 256);
//!
//! // The same engine (and pool) serves the next query.
//! let first = engine.first_k(10, &Query::simple(), &graph).unwrap();
//! assert_eq!(first.cycles.unwrap().len(), 10);
//! ```
//!
//! Execution is fallible: a [`Query`] is validated before anything runs, and
//! unsupported combinations (e.g. Tiernan has no fine-grained decomposition)
//! return an [`EnumerationError`] instead of silently running something else.
//! Early termination is built into the sink pipeline ([`CycleSink::push`]
//! returns a `ControlFlow`), which is what makes [`Engine::first_k`] and the
//! streaming [`Engine::stream`] safe on graphs whose cycle count is
//! exponential in the graph size.

use crate::cycle::{ChannelSink, CollectingSink, CountingSink, CycleSink, FirstKSink};
use crate::metrics::RunStats;
use crate::options::{SimpleCycleOptions, TemporalCycleOptions};
use crate::par::coarse::{
    coarse_johnson_simple, coarse_read_tarjan_simple, coarse_temporal, coarse_tiernan_simple,
};
use crate::par::fine_johnson::fine_johnson_simple;
use crate::par::fine_read_tarjan::fine_read_tarjan_simple;
use crate::par::fine_temporal::{fine_temporal_johnson, fine_temporal_read_tarjan};
use crate::seq::johnson::johnson_simple;
use crate::seq::read_tarjan::read_tarjan_simple;
use crate::seq::temporal::temporal_simple;
use crate::seq::tiernan::tiernan_simple;
use crate::Cycle;
use pce_graph::{TemporalGraph, Timestamp};
use pce_sched::ThreadPool;
use serde::{Deserialize, Serialize};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, OnceLock};

/// Which enumeration algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Algorithm {
    /// The Johnson algorithm (default): fastest in most of the paper's
    /// experiments, not work efficient in its fine-grained parallel form.
    #[default]
    Johnson,
    /// The Read-Tarjan algorithm: work efficient and strongly scalable in its
    /// fine-grained parallel form; slightly more edge visits.
    ReadTarjan,
    /// The brute-force Tiernan algorithm (baseline; sequential or
    /// coarse-grained only, simple cycles only).
    Tiernan,
}

/// How the work is split across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Granularity {
    /// Single-threaded reference execution.
    Sequential,
    /// One task per starting edge (§4): work efficient, not scalable.
    CoarseGrained,
    /// The paper's fine-grained task decomposition (§5/§6): scalable.
    #[default]
    FineGrained,
}

/// The scheduler fine-grained parallel passes run on: always the pool's
/// work-stealing deques (the paper's copy-on-steal discipline).
///
/// Kept only because the `perfbench` benchmark names it; it goes in the next
/// change that edits `perfbench/`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SchedStrategy {
    /// Each split-off branch is a boxed task on the pool's work-stealing
    /// deques; idle workers steal.
    #[default]
    Stealing,
}

/// A window-sharding layout with one shard: the sliding-window graph is not
/// sharded.
///
/// Kept only because the `perfbench` benchmark names it; it goes in the next
/// change that edits `perfbench/`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec;

impl ShardSpec {
    /// The one layout there is.
    pub const fn single() -> Self {
        Self
    }
}

/// Which cycle definition a query asks about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum CycleKind {
    /// (Window-constrained) simple cycles: no vertex repeats.
    #[default]
    Simple,
    /// Temporal cycles: additionally, edge timestamps strictly increase.
    Temporal,
}

/// Whether a run materialises the cycles it finds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CollectMode {
    /// Only count cycles (no allocation per cycle).
    #[default]
    Count,
    /// Collect every cycle into the result.
    Collect,
}

/// Why a query was rejected without running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnumerationError {
    /// The time window must be positive (`delta >= 1`). A zero or negative
    /// window almost always indicates a unit mistake in the caller, so it is
    /// rejected by policy. (Strictly, the window is the closed interval
    /// `[t : t+δ]`, so `δ = 0` would name the degenerate "all edges share
    /// one timestamp" query — the seed accepted it for simple cycles; callers
    /// who really mean that can enumerate with `δ = 1` and filter, or use
    /// `SimpleCycleOptions` with the enumerator functions directly.)
    InvalidWindow {
        /// The rejected window size.
        delta: Timestamp,
    },
    /// `max_len == 0` excludes every cycle.
    InvalidMaxLen,
    /// The requested algorithm/granularity/kind combination has no
    /// implementation (e.g. Tiernan has no fine-grained decomposition and no
    /// temporal variant). The seed API silently substituted a different
    /// configuration here; the engine refuses instead.
    UnsupportedCombination {
        /// Requested algorithm.
        algorithm: Algorithm,
        /// Requested granularity.
        granularity: Granularity,
        /// Requested cycle kind.
        kind: CycleKind,
    },
    /// Self-loop reporting was requested for a temporal-cycle query. A
    /// temporal cycle has strictly increasing timestamps, so a length-1
    /// cycle cannot exist; the flag used to be silently ignored, which hid
    /// caller mistakes — now the combination is refused up front.
    SelfLoopsUnsupported,
    /// The operating system refused to spawn a thread the run needs (e.g.
    /// the [`Engine::stream`] coordinator) — typically resource exhaustion.
    /// The seed `expect`-panicked here; the engine surfaces it instead so a
    /// serving process can shed load and keep answering other queries.
    SpawnFailed {
        /// The OS error message.
        reason: String,
    },
    /// The query's edge predicate is unsatisfiable — it would reject every
    /// edge (empty amount interval or empty label allow-list), so the query
    /// could never report a cycle. Always a caller mistake; refused up front.
    InvalidPredicate {
        /// Why the predicate is unsatisfiable (from
        /// [`pce_graph::EdgePredicate::validate`]).
        reason: &'static str,
    },
}

impl std::fmt::Display for EnumerationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnumerationError::InvalidWindow { delta } => {
                write!(f, "invalid time window delta {delta}: must be >= 1")
            }
            EnumerationError::InvalidMaxLen => {
                write!(f, "max_len 0 excludes every cycle; use at least 1")
            }
            EnumerationError::UnsupportedCombination {
                algorithm,
                granularity,
                kind,
            } => write!(
                f,
                "no implementation for {algorithm:?} with {granularity:?} on {kind:?} cycles"
            ),
            EnumerationError::SelfLoopsUnsupported => write!(
                f,
                "temporal cycles have strictly increasing timestamps, so self-loops \
                 cannot exist; drop include_self_loops or query simple cycles"
            ),
            EnumerationError::SpawnFailed { reason } => {
                write!(f, "failed to spawn enumeration thread: {reason}")
            }
            EnumerationError::InvalidPredicate { reason } => {
                write!(f, "unsatisfiable edge predicate: {reason}")
            }
        }
    }
}

impl std::error::Error for EnumerationError {}

/// A validated-on-run description of one enumeration request: algorithm,
/// granularity, cycle kind, constraints and collection mode. `Query` is plain
/// data — build it once, reuse it across graphs and engines.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Query {
    kind: CycleKind,
    algorithm: Algorithm,
    granularity: Granularity,
    window_delta: Option<Timestamp>,
    max_len: Option<usize>,
    include_self_loops: bool,
    collect: CollectMode,
}

impl Default for Query {
    fn default() -> Self {
        Self::simple()
    }
}

impl Query {
    /// A simple-cycle query with the defaults: fine-grained Johnson, no
    /// constraints, counting only.
    pub fn simple() -> Self {
        Self {
            kind: CycleKind::Simple,
            algorithm: Algorithm::Johnson,
            granularity: Granularity::FineGrained,
            window_delta: None,
            max_len: None,
            include_self_loops: false,
            collect: CollectMode::Count,
        }
    }

    /// A temporal-cycle query with the defaults. Without an explicit
    /// [`Query::window`], the window defaults to the graph's full time span
    /// at run time.
    pub fn temporal() -> Self {
        Self {
            kind: CycleKind::Temporal,
            ..Self::simple()
        }
    }

    /// Selects the algorithm.
    ///
    /// For **temporal** queries the algorithm choice only exists at
    /// [`Granularity::FineGrained`], where it selects the search discipline
    /// (§7 of the paper). At `Sequential` and `CoarseGrained`
    /// granularity there is a single temporal search (a Johnson-style rooted
    /// DFS); requesting `ReadTarjan` there is accepted and runs that one
    /// implementation, which the result reports honestly as
    /// `stats.algorithm == Some(Algorithm::Johnson)`. `Tiernan` has no
    /// temporal variant at all and is rejected by [`Query::validate`].
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the parallelisation granularity.
    pub fn granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Constrains cycles to a time window of size `delta` (must be >= 1;
    /// validated when the query runs — see
    /// [`EnumerationError::InvalidWindow`] for why zero is rejected).
    pub fn window(mut self, delta: Timestamp) -> Self {
        self.window_delta = Some(delta);
        self
    }

    /// Constrains cycles to at most `len` edges (must be >= 1; validated when
    /// the query runs).
    pub fn max_len(mut self, len: usize) -> Self {
        self.max_len = Some(len);
        self
    }

    /// Also report length-1 cycles (self-loops). Simple-cycle queries only:
    /// temporal cycles cannot contain self-loops, and requesting the
    /// combination is rejected by [`Query::validate`] instead of silently
    /// ignored.
    pub fn include_self_loops(mut self, yes: bool) -> Self {
        self.include_self_loops = yes;
        self
    }

    /// Selects whether cycles are materialised in the result.
    pub fn collect(mut self, mode: CollectMode) -> Self {
        self.collect = mode;
        self
    }

    /// The cycle kind this query asks about.
    pub fn kind(&self) -> CycleKind {
        self.kind
    }

    /// Checks the query for combinations that have no implementation or can
    /// never return anything. Called by every `Engine` entry point.
    pub fn validate(&self) -> Result<(), EnumerationError> {
        if let Some(delta) = self.window_delta {
            if delta < 1 {
                return Err(EnumerationError::InvalidWindow { delta });
            }
        }
        if self.max_len == Some(0) {
            return Err(EnumerationError::InvalidMaxLen);
        }
        if self.kind == CycleKind::Temporal && self.include_self_loops {
            // Mirrors StreamingQuery::validate: the flag used to be silently
            // dropped by the temporal dispatch.
            return Err(EnumerationError::SelfLoopsUnsupported);
        }
        let unsupported = match (self.kind, self.algorithm, self.granularity) {
            // Tiernan has no fine-grained decomposition in the paper (§5
            // discusses why the naive one degenerates).
            (_, Algorithm::Tiernan, Granularity::FineGrained) => true,
            // Tiernan has no temporal variant at all.
            (CycleKind::Temporal, Algorithm::Tiernan, _) => true,
            _ => false,
        };
        if unsupported {
            return Err(EnumerationError::UnsupportedCombination {
                algorithm: self.algorithm,
                granularity: self.granularity,
                kind: self.kind,
            });
        }
        Ok(())
    }

    fn simple_options(&self) -> SimpleCycleOptions {
        SimpleCycleOptions {
            window_delta: self.window_delta,
            max_len: self.max_len,
            include_self_loops: self.include_self_loops,
        }
    }

    fn temporal_options(&self, graph: &TemporalGraph) -> TemporalCycleOptions {
        TemporalCycleOptions {
            window_delta: self
                .window_delta
                .unwrap_or_else(|| graph.time_span().max(1)),
            max_len: self.max_len,
        }
    }
}

/// Result of an enumeration run.
#[derive(Debug)]
pub struct EnumerationResult {
    /// The discovered cycles, if the query's collection mode materialises
    /// them (`None` for counting-only runs — the count is `stats.cycles`).
    pub cycles: Option<Vec<Cycle>>,
    /// Timing and work statistics, tagged with the effective algorithm and
    /// granularity.
    pub stats: RunStats,
}

/// A long-lived enumeration engine: owns one [`ThreadPool`] for its lifetime
/// and serves any number of queries over it.
///
/// The pool is created lazily on the first parallel query (an engine that
/// only ever answers [`Granularity::Sequential`] queries never spawns a
/// thread) and shut down when the engine drops. See the [module
/// docs](self) for a usage example.
///
/// This is the *one-shot* front end (each query sweeps a static graph). For
/// continuously arriving edges use
/// [`StreamingEngine`](crate::streaming::StreamingEngine), and for many
/// concurrent standing queries over one stream
/// [`MultiStreamingEngine`](crate::streaming::MultiStreamingEngine) — both
/// embed an `Engine` for its reusable pool.
///
/// # Example
/// ```
/// use pce_core::{Engine, Query};
/// use pce_core::graph::GraphBuilder;
///
/// let graph = GraphBuilder::new()
///     .add_edge(0, 1, 10)
///     .add_edge(1, 2, 20)
///     .add_edge(2, 0, 30)
///     .build();
///
/// // One engine per process; any number of queries against it.
/// let engine = Engine::with_threads(2);
/// assert_eq!(engine.count(&Query::simple(), &graph).unwrap(), 1);
/// assert_eq!(engine.count(&Query::temporal().window(60), &graph).unwrap(), 1);
/// ```
pub struct Engine {
    threads: usize,
    pool: OnceLock<Arc<ThreadPool>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.threads)
            .field("pool_started", &self.pool.get().is_some())
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Creates an engine sized to the machine (one worker per available
    /// core).
    pub fn new() -> Self {
        Self::with_threads(0)
    }

    /// Creates an engine with `threads` workers (0 = one per available core).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            pool: OnceLock::new(),
        }
    }

    /// The engine's thread pool, created on first use and reused for every
    /// subsequent parallel query.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        self.pool.get_or_init(|| {
            Arc::new(if self.threads == 0 {
                ThreadPool::with_available_parallelism()
            } else {
                ThreadPool::new(self.threads)
            })
        })
    }

    /// Number of worker threads parallel queries will use.
    pub fn threads(&self) -> usize {
        if self.threads == 0 {
            pce_sched::available_parallelism()
        } else {
            self.threads
        }
    }

    /// Runs `query` against `graph`, materialising cycles according to the
    /// query's collection mode.
    pub fn run(
        &self,
        query: &Query,
        graph: &TemporalGraph,
    ) -> Result<EnumerationResult, EnumerationError> {
        match query.collect {
            CollectMode::Count => {
                let sink = CountingSink::new();
                let stats = self.run_with_sink(query, graph, &sink)?;
                Ok(EnumerationResult {
                    cycles: None,
                    stats,
                })
            }
            CollectMode::Collect => {
                let sink = CollectingSink::new();
                let stats = self.run_with_sink(query, graph, &sink)?;
                Ok(EnumerationResult {
                    cycles: Some(sink.into_cycles()),
                    stats,
                })
            }
        }
    }

    /// Counts the cycles `query` matches without materialising them
    /// (regardless of the query's collection mode).
    pub fn count(&self, query: &Query, graph: &TemporalGraph) -> Result<u64, EnumerationError> {
        let sink = CountingSink::new();
        Ok(self.run_with_sink(query, graph, &sink)?.cycles)
    }

    /// Enumerates until `k` cycles have been found, then terminates the run
    /// early. The result holds exactly `min(k, total)` cycles; on graphs with
    /// exponentially many cycles the run stops after a small fraction of the
    /// full work (see `RunStats::work`).
    pub fn first_k(
        &self,
        k: usize,
        query: &Query,
        graph: &TemporalGraph,
    ) -> Result<EnumerationResult, EnumerationError> {
        let sink = FirstKSink::new(k);
        let stats = self.run_with_sink(query, graph, &sink)?;
        Ok(EnumerationResult {
            cycles: Some(sink.into_cycles()),
            stats,
        })
    }

    /// Runs `query` with a caller-provided sink (the zero-cost extension
    /// point all other entry points are built on): the sink's
    /// [`CycleSink::push`] is statically dispatched in every enumerator, and
    /// returning `ControlFlow::Break` terminates the run early.
    pub fn run_with_sink<S: CycleSink>(
        &self,
        query: &Query,
        graph: &TemporalGraph,
        sink: &S,
    ) -> Result<RunStats, EnumerationError> {
        query.validate()?;
        Ok(match query.kind {
            CycleKind::Simple => self.dispatch_simple(query, graph, sink),
            CycleKind::Temporal => self.dispatch_temporal(query, graph, sink),
        })
    }

    /// Streams cycles to the returned iterator while the enumeration runs in
    /// the background, fed from one coordinator thread. Dropping the stream
    /// early cancels the enumeration: the sink observes the hang-up and every
    /// worker winds down — nothing is left deadlocked, and the engine can
    /// serve the next query.
    ///
    /// The streamed enumeration runs on its **own** pool (sized like the
    /// engine's, created lazily by the coordinator, torn down when the stream
    /// finishes), not on the engine's shared pool. A backpressured stream
    /// parks its workers in channel sends until the consumer catches up; on a
    /// shared pool those parked workers would starve — and, if the consumer
    /// ever issues a blocking query on this engine before draining, deadlock —
    /// every other request. Streams are for long enumerations, so the extra
    /// pool spawn is noise next to the work it isolates.
    ///
    /// The graph is taken as an `Arc` (serving processes keep graphs shared
    /// anyway) so the background enumeration can own a handle past the
    /// caller's stack frame.
    pub fn stream(
        &self,
        query: &Query,
        graph: impl Into<Arc<TemporalGraph>>,
    ) -> Result<CycleStream, EnumerationError> {
        query.validate()?;
        let graph = graph.into();
        let query = query.clone();
        // Buffered channel: workers block (backpressure) once the consumer
        // lags this far behind, and unblock with an error once it hangs up.
        let (tx, rx): (SyncSender<Cycle>, Receiver<Cycle>) = std::sync::mpsc::sync_channel(1024);
        let threads = self.threads;
        let feeder = std::thread::Builder::new()
            .name("pce-engine-stream".to_string())
            .spawn(move || {
                // A private engine for this stream: its pool (if the query is
                // parallel at all) exists only for the stream's duration.
                let engine = Engine::with_threads(threads);
                let sink = ChannelSink::new(tx);
                engine
                    .run_with_sink(&query, &graph, &sink)
                    .expect("query was validated before spawning")
            })
            // Spawning can genuinely fail under resource exhaustion; surface
            // it as a typed error instead of panicking inside a serving call.
            .map_err(|e| EnumerationError::SpawnFailed {
                reason: e.to_string(),
            })?;
        Ok(CycleStream {
            receiver: Some(rx),
            feeder: Some(feeder),
            stats: None,
        })
    }

    fn dispatch_simple<S: CycleSink>(
        &self,
        query: &Query,
        graph: &TemporalGraph,
        sink: &S,
    ) -> RunStats {
        let opts = query.simple_options();
        match query.granularity {
            Granularity::Sequential => match query.algorithm {
                Algorithm::Johnson => johnson_simple(graph, &opts, sink),
                Algorithm::ReadTarjan => read_tarjan_simple(graph, &opts, sink),
                Algorithm::Tiernan => tiernan_simple(graph, &opts, sink),
            },
            Granularity::CoarseGrained => {
                let pool = self.pool();
                match query.algorithm {
                    Algorithm::Johnson => coarse_johnson_simple(graph, &opts, sink, pool),
                    Algorithm::ReadTarjan => coarse_read_tarjan_simple(graph, &opts, sink, pool),
                    Algorithm::Tiernan => coarse_tiernan_simple(graph, &opts, sink, pool),
                }
            }
            Granularity::FineGrained => {
                let pool = self.pool();
                match query.algorithm {
                    Algorithm::Johnson => fine_johnson_simple(graph, &opts, sink, pool),
                    Algorithm::ReadTarjan => fine_read_tarjan_simple(graph, &opts, sink, pool),
                    // Rejected by validate().
                    Algorithm::Tiernan => unreachable!("validated"),
                }
            }
        }
    }

    fn dispatch_temporal<S: CycleSink>(
        &self,
        query: &Query,
        graph: &TemporalGraph,
        sink: &S,
    ) -> RunStats {
        let opts = query.temporal_options(graph);
        // At Sequential/CoarseGrained granularity there is one temporal
        // search regardless of the requested algorithm; the stats it returns
        // are tagged Johnson (its style) so callers can see that a ReadTarjan
        // request ran the same code — see `Query::algorithm`.
        match query.granularity {
            Granularity::Sequential => temporal_simple(graph, &opts, sink),
            Granularity::CoarseGrained => coarse_temporal(graph, &opts, sink, self.pool()),
            Granularity::FineGrained => match query.algorithm {
                Algorithm::ReadTarjan => fine_temporal_read_tarjan(graph, &opts, sink, self.pool()),
                Algorithm::Johnson => fine_temporal_johnson(graph, &opts, sink, self.pool()),
                // Rejected by validate().
                Algorithm::Tiernan => unreachable!("validated"),
            },
        }
    }
}

/// A live cycle stream returned by [`Engine::stream`]: iterate to receive
/// cycles as the background enumeration discovers them; drop it (or stop
/// iterating and drop) to cancel the rest of the run.
#[derive(Debug)]
pub struct CycleStream {
    receiver: Option<Receiver<Cycle>>,
    feeder: Option<std::thread::JoinHandle<RunStats>>,
    stats: Option<RunStats>,
}

impl CycleStream {
    /// Disconnects from the producer (cancelling any remaining enumeration)
    /// and waits for it to wind down, returning the run's statistics.
    ///
    /// When the stream was fully drained first, the statistics describe the
    /// complete run; after an early drop-off they describe the truncated run.
    pub fn finish(mut self) -> RunStats {
        self.shutdown();
        self.stats.take().expect("shutdown collects stats")
    }

    fn shutdown(&mut self) {
        // Drop the receiver first so that producers blocked on a full channel
        // observe the hang-up instead of deadlocking against the join below.
        self.receiver = None;
        if let Some(feeder) = self.feeder.take() {
            match feeder.join() {
                Ok(stats) => self.stats = Some(stats),
                // Re-raising while the consumer is already unwinding would be
                // a panic-in-drop (process abort) and would mask the original
                // panic; in that case the producer's panic is dropped.
                Err(payload) if !std::thread::panicking() => std::panic::resume_unwind(payload),
                Err(_) => {}
            }
        }
    }
}

impl Iterator for CycleStream {
    type Item = Cycle;

    fn next(&mut self) -> Option<Cycle> {
        self.receiver.as_ref()?.recv().ok()
    }
}

impl Drop for CycleStream {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pce_graph::generators;

    #[test]
    fn queries_validate_their_combinations() {
        assert!(Query::simple().validate().is_ok());
        assert!(Query::temporal().window(10).validate().is_ok());
        assert_eq!(
            Query::simple().window(0).validate(),
            Err(EnumerationError::InvalidWindow { delta: 0 })
        );
        assert_eq!(
            Query::simple().window(-5).validate(),
            Err(EnumerationError::InvalidWindow { delta: -5 })
        );
        assert_eq!(
            Query::simple().max_len(0).validate(),
            Err(EnumerationError::InvalidMaxLen)
        );
        let err = Query::simple()
            .algorithm(Algorithm::Tiernan)
            .granularity(Granularity::FineGrained)
            .validate()
            .unwrap_err();
        assert!(matches!(
            err,
            EnumerationError::UnsupportedCombination { .. }
        ));
        assert!(Query::temporal()
            .algorithm(Algorithm::Tiernan)
            .granularity(Granularity::Sequential)
            .validate()
            .is_err());
    }

    #[test]
    fn errors_render_helpfully() {
        let message = EnumerationError::InvalidWindow { delta: 0 }.to_string();
        assert!(message.contains("delta 0"));
        let message = EnumerationError::UnsupportedCombination {
            algorithm: Algorithm::Tiernan,
            granularity: Granularity::FineGrained,
            kind: CycleKind::Simple,
        }
        .to_string();
        assert!(message.contains("Tiernan"));
        assert!(message.contains("FineGrained"));
        let message = EnumerationError::SpawnFailed {
            reason: "resource temporarily unavailable".to_string(),
        }
        .to_string();
        assert!(message.contains("spawn"));
        assert!(message.contains("resource temporarily unavailable"));
    }

    #[test]
    fn sequential_queries_never_spawn_a_pool() {
        let engine = Engine::with_threads(4);
        let graph = generators::directed_cycle(5);
        let query = Query::simple().granularity(Granularity::Sequential);
        let result = engine.run(&query, &graph).unwrap();
        assert_eq!(result.stats.cycles, 1);
        assert!(engine.pool.get().is_none(), "no pool for sequential runs");
    }

    #[test]
    fn pool_is_created_once_and_reused() {
        let engine = Engine::with_threads(2);
        let graph = generators::directed_cycle(6);
        let query = Query::simple();
        engine.run(&query, &graph).unwrap();
        let first = Arc::as_ptr(engine.pool());
        engine.run(&query, &graph).unwrap();
        assert_eq!(first, Arc::as_ptr(engine.pool()), "pool must be reused");
    }

    #[test]
    fn effective_algorithm_and_granularity_are_recorded() {
        let engine = Engine::with_threads(2);
        let graph = generators::directed_cycle(4);
        let query = Query::simple()
            .algorithm(Algorithm::ReadTarjan)
            .granularity(Granularity::CoarseGrained);
        let stats = engine.run(&query, &graph).unwrap().stats;
        assert_eq!(stats.algorithm, Some(Algorithm::ReadTarjan));
        assert_eq!(stats.granularity, Some(Granularity::CoarseGrained));
    }
}
