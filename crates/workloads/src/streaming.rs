//! The streaming fraud-detection scenario: replay a transaction dataset as
//! timed batches through a [`StreamingEngine`] and measure sustained ingest
//! throughput and per-batch enumeration latency.
//!
//! This is the first *continuous-traffic* workload of the suite: where the
//! one-shot scenarios ask "how fast can we enumerate this graph once", this
//! one asks "how many transactions per second can we absorb while reporting
//! every laundering ring the moment its closing transfer arrives". The
//! replayed dataset is the planted-ring transaction generator
//! ([`transaction_rings`]) the one-shot fraud example uses, cut into
//! timestamp-ordered batches of a configurable size.
//!
//! The scenario is deterministic given the config's seed, so benchmark
//! numbers are reproducible; [`StreamScenarioConfig::smoke`] provides a
//! seconds-scale configuration for CI smoke runs.

use pce_core::{
    CollectMode, FanOutStrategy, Granularity, LatencyStats, MultiStreamingEngine, QueryId,
    RunStats, StreamingEngine, StreamingError, StreamingQuery,
};
use pce_graph::generators::{self, transaction_rings, TransactionRingConfig};
use pce_graph::{TemporalEdge, TemporalGraph, Timestamp};

/// Configuration of one streaming fraud-detection run.
#[derive(Debug, Clone)]
pub struct StreamScenarioConfig {
    /// The synthetic transaction dataset to replay (planted temporal rings
    /// over background traffic).
    pub ring: TransactionRingConfig,
    /// Number of edges per ingest batch.
    pub batch_edges: usize,
    /// Sliding-window retention span handed to the [`StreamingEngine`].
    /// Must be at least `window_delta` (the engine enforces this); beyond
    /// that it only trades memory for how far back the window reaches —
    /// detection is independent of batch boundaries.
    pub retention: Timestamp,
    /// Enumeration window size δ (cycles span at most this much time).
    pub window_delta: Timestamp,
    /// Optional bound on cycle length (hop count).
    pub max_len: Option<usize>,
    /// `true` enumerates temporal cycles (strictly increasing timestamps —
    /// the fraud-ring definition); `false` window-constrained simple cycles.
    pub temporal: bool,
    /// Whether per-batch cycles are materialised (alerts) or only counted
    /// (pure throughput measurement).
    pub collect: CollectMode,
    /// How each batch's delta enumeration is split across workers
    /// (coarse-grained — one task per closing root — by default; fine-grained
    /// steals recursion levels mid-search and wins on skewed batches).
    pub granularity: Granularity,
}

impl Default for StreamScenarioConfig {
    fn default() -> Self {
        Self {
            ring: TransactionRingConfig {
                num_accounts: 5_000,
                background_edges: 60_000,
                num_rings: 120,
                ring_len: (3, 6),
                time_span: 1_000_000,
                ring_span: 5_000,
                seed: 77,
            },
            batch_edges: 2_000,
            retention: 60_000,
            window_delta: 5_000,
            max_len: Some(8),
            temporal: true,
            collect: CollectMode::Count,
            granularity: Granularity::CoarseGrained,
        }
    }
}

impl StreamScenarioConfig {
    /// A tiny configuration that completes in well under a second — used by
    /// the CI smoke invocation of the streaming benchmark binary.
    pub fn smoke() -> Self {
        Self {
            ring: TransactionRingConfig {
                num_accounts: 300,
                background_edges: 2_000,
                num_rings: 15,
                ring_len: (3, 5),
                time_span: 50_000,
                ring_span: 1_000,
                seed: 7,
            },
            batch_edges: 250,
            retention: 12_000,
            window_delta: 1_000,
            max_len: Some(6),
            temporal: true,
            collect: CollectMode::Count,
            granularity: Granularity::CoarseGrained,
        }
    }

    /// The same scenario at a different delta-enumeration granularity.
    pub fn with_granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// The streaming query this configuration stands for.
    pub fn query(&self) -> StreamingQuery {
        let q = if self.temporal {
            StreamingQuery::temporal(self.window_delta)
        } else {
            StreamingQuery::simple(self.window_delta)
        };
        let q = match self.max_len {
            Some(len) => q.max_len(len),
            None => q,
        };
        q.granularity(self.granularity).collect(self.collect)
    }
}

/// Per-batch measurements of a streaming run.
#[derive(Debug, Clone, Copy)]
pub struct StreamBatchRow {
    /// 0-based batch index.
    pub batch: u64,
    /// Edges appended by the batch.
    pub appended: usize,
    /// Edges expired out of the window during the batch.
    pub expired: usize,
    /// Live window size (edges) after the batch.
    pub live_edges: usize,
    /// Cycles closed by the batch.
    pub cycles: u64,
    /// Seconds spent in ingest (append + expiry).
    pub ingest_secs: f64,
    /// Seconds spent in the delta enumeration.
    pub enumerate_secs: f64,
}

impl StreamBatchRow {
    /// Total per-batch latency: ingest plus enumeration.
    pub fn latency_secs(&self) -> f64 {
        self.ingest_secs + self.enumerate_secs
    }
}

/// The result of one streaming scenario run.
#[derive(Debug, Clone)]
pub struct StreamingReport {
    /// Worker threads the delta queries used.
    pub threads: usize,
    /// Per-batch rows in stream order.
    pub rows: Vec<StreamBatchRow>,
    /// Total edges ingested.
    pub total_edges: u64,
    /// Total cycles reported across all batches.
    pub total_cycles: u64,
    /// End-to-end wall-clock seconds for the whole replay.
    pub wall_secs: f64,
}

impl StreamingReport {
    /// Sustained ingest throughput over the whole replay, in edges/second
    /// (including enumeration time — the number a capacity planner wants).
    pub fn sustained_edges_per_sec(&self) -> f64 {
        if self.wall_secs <= f64::EPSILON {
            0.0
        } else {
            self.total_edges as f64 / self.wall_secs
        }
    }

    /// Mean per-batch latency in seconds.
    pub fn mean_latency_secs(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows
            .iter()
            .map(StreamBatchRow::latency_secs)
            .sum::<f64>()
            / self.rows.len() as f64
    }

    /// Per-batch latency percentile (`p` in `0.0..=1.0`), in seconds — the
    /// nearest-rank percentile (1-based rank `⌈p·n⌉`), matching
    /// [`LatencyStats::percentile_secs`]. Total-order comparison keeps a NaN
    /// sample (which would have made the old `partial_cmp` sort panic) at the
    /// top instead of aborting the report.
    pub fn latency_percentile_secs(&self, p: f64) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        let mut latencies: Vec<f64> = self.rows.iter().map(StreamBatchRow::latency_secs).collect();
        latencies.sort_by(f64::total_cmp);
        let n = latencies.len();
        let idx = ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize)
            .saturating_sub(1)
            .min(n - 1);
        latencies[idx]
    }

    /// Worst per-batch latency in seconds.
    pub fn max_latency_secs(&self) -> f64 {
        self.latency_percentile_secs(1.0)
    }
}

/// Cuts a timestamp-sorted graph's edge list into ingest batches of
/// `batch_edges` edges (the last batch may be shorter). Edges of a
/// [`TemporalGraph`] are already in ascending `(ts, src, dst)` order, so the
/// chunks replay the dataset in stream order.
pub fn replay_batches(graph: &TemporalGraph, batch_edges: usize) -> Vec<Vec<TemporalEdge>> {
    assert!(batch_edges > 0, "batches must be non-empty");
    graph
        .edges()
        .chunks(batch_edges)
        .map(<[TemporalEdge]>::to_vec)
        .collect()
}

/// Runs the streaming fraud-detection scenario at the given thread count:
/// generates the dataset, replays it batch by batch through a
/// [`StreamingEngine`], and collects per-batch and aggregate measurements.
pub fn run_stream_scenario(
    cfg: &StreamScenarioConfig,
    threads: usize,
) -> Result<StreamingReport, StreamingError> {
    let (graph, _planted) = transaction_rings(cfg.ring);
    let batches = replay_batches(&graph, cfg.batch_edges);
    let mut engine = StreamingEngine::with_threads(cfg.retention, cfg.query(), threads)?;

    let start = std::time::Instant::now();
    let mut rows = Vec::with_capacity(batches.len());
    for batch in &batches {
        let report = engine.ingest(batch)?;
        rows.push(StreamBatchRow {
            batch: report.batch,
            appended: report.appended,
            expired: report.expired,
            live_edges: report.live_edges,
            cycles: report.cycles_found,
            ingest_secs: report.ingest_secs,
            enumerate_secs: report.enumerate_secs,
        });
    }
    let wall_secs = start.elapsed().as_secs_f64();

    Ok(StreamingReport {
        threads,
        rows,
        total_edges: engine.graph().total_ingested(),
        total_cycles: engine.total_cycles(),
        wall_secs,
    })
}

/// Configuration of the **hub-burst** scenario: the adversarially skewed
/// stream where fine-grained delta enumeration earns its keep. The lead-in
/// batches lay down [`generators::hub_burst`]'s layered lattice (no cycles
/// yet); the final one-edge burst batch closes all `width^depth` cycles at
/// once through a single root — the fraud-ring shape where one hub account
/// suddenly completes every ring.
#[derive(Debug, Clone, Copy)]
pub struct HubBurstConfig {
    /// Vertices per lattice layer.
    pub width: usize,
    /// Number of lattice layers (cycle count is `width^depth`).
    pub depth: usize,
    /// Edges per lead-in batch.
    pub batch_edges: usize,
    /// `true` runs the temporal query, `false` the simple one (the gadget's
    /// cycle set is identical either way).
    pub temporal: bool,
}

impl Default for HubBurstConfig {
    fn default() -> Self {
        Self {
            width: 2,
            depth: 16,
            batch_edges: 16,
            temporal: true,
        }
    }
}

impl HubBurstConfig {
    /// A seconds-scale configuration for CI smoke runs.
    pub fn smoke() -> Self {
        Self {
            depth: 12,
            ..Self::default()
        }
    }

    /// The number of cycles the burst batch must report.
    pub fn expected_cycles(&self) -> u64 {
        generators::hub_burst_cycle_count(self.width, self.depth)
    }
}

/// The measurements of one hub-burst run; the interesting part is the burst
/// batch's [`RunStats`], which show whether the work spread across workers
/// (fine granularity: steals > 0, several busy workers) or pinned to one
/// (coarse: a single-root batch has a single task).
#[derive(Debug, Clone)]
pub struct HubBurstReport {
    /// Worker threads the engine was built with.
    pub threads: usize,
    /// The granularity the standing query requested.
    pub granularity: Granularity,
    /// Cycles the burst batch reported (must equal
    /// [`HubBurstConfig::expected_cycles`] — asserted by the runner).
    pub cycles: u64,
    /// Seconds the burst batch spent in delta enumeration.
    pub burst_secs: f64,
    /// Work statistics of the burst batch's delta enumeration.
    pub burst_stats: RunStats,
}

impl HubBurstReport {
    /// Number of workers that executed at least one recursive call during the
    /// burst.
    pub fn busy_workers(&self) -> usize {
        self.burst_stats
            .work
            .workers
            .iter()
            .filter(|w| w.recursive_calls > 0)
            .count()
    }
}

/// Runs the hub-burst scenario: replays the lattice as lead-in batches, then
/// ingests the single closing edge and reports how the burst's work was
/// distributed.
pub fn run_hub_burst(
    cfg: &HubBurstConfig,
    threads: usize,
    granularity: Granularity,
) -> Result<HubBurstReport, StreamingError> {
    let graph = generators::hub_burst(cfg.width, cfg.depth);
    let edges = graph.edges();
    let (lead_in, burst) = edges.split_at(edges.len() - 1);
    // A window (and retention) covering the whole gadget: every lattice edge
    // is still live when the closing edge arrives.
    let delta = graph.time_span().max(1);
    let query = if cfg.temporal {
        StreamingQuery::temporal(delta)
    } else {
        StreamingQuery::simple(delta)
    };
    let mut engine = StreamingEngine::with_threads(delta, query.granularity(granularity), threads)?;
    for batch in lead_in.chunks(cfg.batch_edges.max(1)) {
        let quiet = engine.ingest(batch)?;
        debug_assert_eq!(quiet.cycles_found, 0, "the lattice alone closes nothing");
    }
    let report = engine.ingest(burst)?;
    assert_eq!(
        report.cycles_found,
        cfg.expected_cycles(),
        "hub burst must close exactly width^depth cycles"
    );
    Ok(HubBurstReport {
        threads,
        granularity,
        cycles: report.cycles_found,
        burst_secs: report.enumerate_secs,
        burst_stats: report.stats,
    })
}

/// A heterogeneous standing-query portfolio for multi-tenant scenarios:
/// `k` queries cycling through different kinds, window sizes and length
/// bounds around the scenario's base window `delta` — the "many analysts,
/// one stream" shape. Deterministic, so shared-vs-independent comparisons
/// run the exact same portfolio.
pub fn mixed_portfolio(k: usize, delta: Timestamp) -> Vec<StreamingQuery> {
    (0..k)
        .map(|i| match i % 4 {
            // The compliance team: every ring in the full window.
            0 => StreamingQuery::temporal(delta).max_len(8),
            // The real-time desk: short rings that complete quickly.
            1 => StreamingQuery::temporal((delta / 4).max(1)).max_len(4),
            // The graph-analytics tenant: simple cycles, medium window.
            2 => StreamingQuery::simple((delta / 2).max(1)).max_len(5),
            // A second compliance profile with a tighter hop bound.
            _ => StreamingQuery::temporal(delta).max_len(6),
        })
        .map(|q| q.collect(CollectMode::Count))
        .collect()
}

/// A subscription-scale standing-query portfolio: `k` queries drawn from a
/// fixed pool of 16 distinct constraint *profiles* (cycle kind × window
/// divisor × length bound, cycling deterministically), the "millions of
/// users, a handful of alert profiles" shape. Because the profile pool is
/// fixed, the [`SubscriptionIndex`](pce_core::SubscriptionIndex) collapses
/// any `k >= 16` portfolio to the same 16 constraint groups — per-candidate
/// dispatch work stays **constant** as the subscriber count grows, which is
/// exactly what `streaming_bench`'s `fan_out` section measures against the
/// `O(k)` naive loop.
pub fn large_portfolio(k: usize, delta: Timestamp) -> Vec<StreamingQuery> {
    (0..k)
        .map(|i| {
            let profile = i % 16;
            // Residues mod 3/4/5 are jointly unique for profile < 16, so the
            // pool really contains 16 distinct constraint profiles.
            let d = (delta / (1 << (profile % 4))).max(1);
            let max_len = 3 + profile % 5;
            let q = match profile % 3 {
                0 | 1 => StreamingQuery::temporal(d),
                _ => StreamingQuery::simple(d),
            };
            q.max_len(max_len).collect(CollectMode::Count)
        })
        .collect()
}

/// Configuration of the **multi-tenant** fraud-detection scenario: one
/// transaction stream serving a portfolio of concurrent standing queries
/// through a single [`MultiStreamingEngine`] ingest pass.
#[derive(Debug, Clone)]
pub struct MultiTenantConfig {
    /// The synthetic transaction dataset replayed for every tenant.
    pub ring: TransactionRingConfig,
    /// Number of edges per ingest batch.
    pub batch_edges: usize,
    /// Sliding-window retention span (must cover the widest query window).
    pub retention: Timestamp,
    /// Base enumeration window δ the portfolio is built around.
    pub window_delta: Timestamp,
    /// Number of subscriptions ([`mixed_portfolio`] of this size).
    pub subscriptions: usize,
    /// How the shared delta pass is split across workers.
    pub granularity: Granularity,
    /// How candidates are routed to subscriptions (indexed by default; the
    /// naive loop is the differential/benchmark baseline).
    pub strategy: FanOutStrategy,
}

impl Default for MultiTenantConfig {
    fn default() -> Self {
        let base = StreamScenarioConfig::default();
        Self {
            ring: base.ring,
            batch_edges: base.batch_edges,
            retention: base.retention,
            window_delta: base.window_delta,
            subscriptions: 4,
            granularity: Granularity::CoarseGrained,
            strategy: FanOutStrategy::Indexed,
        }
    }
}

impl MultiTenantConfig {
    /// A seconds-scale configuration for CI smoke runs.
    pub fn smoke() -> Self {
        let base = StreamScenarioConfig::smoke();
        Self {
            ring: base.ring,
            batch_edges: base.batch_edges,
            retention: base.retention,
            window_delta: base.window_delta,
            subscriptions: 4,
            granularity: Granularity::CoarseGrained,
            strategy: FanOutStrategy::Indexed,
        }
    }

    /// The same scenario with a different portfolio size.
    pub fn with_subscriptions(mut self, k: usize) -> Self {
        self.subscriptions = k;
        self
    }

    /// The same scenario with a different fan-out strategy.
    pub fn with_strategy(mut self, strategy: FanOutStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The portfolio this configuration subscribes.
    pub fn portfolio(&self) -> Vec<StreamingQuery> {
        mixed_portfolio(self.subscriptions, self.window_delta)
    }
}

/// Per-subscription measurements of one multi-tenant run.
#[derive(Debug, Clone)]
pub struct TenantRow {
    /// The subscription's stable id.
    pub query: QueryId,
    /// The standing query itself.
    pub spec: StreamingQuery,
    /// Total cycles attributed to this subscription across the replay.
    pub cycles: u64,
    /// Per-batch latency percentiles observed by this subscription.
    pub latency: LatencyStats,
}

/// The result of one multi-tenant scenario run: shared-cost aggregates plus
/// one [`TenantRow`] per subscription.
#[derive(Debug, Clone)]
pub struct MultiTenantReport {
    /// Worker threads the shared delta pass used.
    pub threads: usize,
    /// Per-subscription rows, in subscription order.
    pub tenants: Vec<TenantRow>,
    /// Total edges ingested (once, no matter how many tenants).
    pub total_edges: u64,
    /// Candidate cycles the shared passes discovered before per-query
    /// filtering, summed over all batches.
    pub candidates: u64,
    /// Subscription-constraint checks the fan-out performed across all
    /// batches (see [`pce_core::FanOutReport::checks`]) — the deterministic
    /// dispatch-cost measure compared across strategies.
    pub fan_out_checks: u64,
    /// Batches whose fan-out ran as deferred parallel tasks on the pool.
    pub parallel_batches: usize,
    /// End-to-end wall-clock seconds for the whole replay.
    pub wall_secs: f64,
}

impl MultiTenantReport {
    /// Total cycles across all tenants (a cycle matched by several queries
    /// counts once per query).
    pub fn total_cycles(&self) -> u64 {
        self.tenants.iter().map(|t| t.cycles).sum()
    }

    /// Sustained shared-ingest throughput in edges/second.
    pub fn sustained_edges_per_sec(&self) -> f64 {
        if self.wall_secs <= f64::EPSILON {
            0.0
        } else {
            self.total_edges as f64 / self.wall_secs
        }
    }
}

/// Runs the multi-tenant fraud scenario: subscribes the mixed portfolio,
/// replays the transaction stream through **one** [`MultiStreamingEngine`]
/// and reports per-tenant attributions plus the shared cost.
pub fn run_multi_tenant(
    cfg: &MultiTenantConfig,
    threads: usize,
) -> Result<MultiTenantReport, StreamingError> {
    let (graph, _planted) = transaction_rings(cfg.ring);
    let batches = replay_batches(&graph, cfg.batch_edges);
    let mut engine = MultiStreamingEngine::with_threads(cfg.retention, threads)?
        .with_granularity(cfg.granularity)
        .with_fan_out(cfg.strategy);
    let ids: Vec<QueryId> = cfg
        .portfolio()
        .into_iter()
        .map(|q| engine.subscribe(q))
        .collect::<Result<_, _>>()?;

    let start = std::time::Instant::now();
    let mut candidates = 0u64;
    let mut fan_out_checks = 0u64;
    let mut parallel_batches = 0usize;
    for batch in &batches {
        let report = engine.ingest(batch)?;
        candidates += report.candidates;
        fan_out_checks += report.fan_out.checks;
        parallel_batches += usize::from(report.fan_out.parallel);
    }
    let wall_secs = start.elapsed().as_secs_f64();

    let tenants = ids
        .iter()
        .map(|&id| TenantRow {
            query: id,
            spec: engine
                .subscriptions()
                .find(|(q, _)| *q == id)
                .expect("subscribed")
                .1
                .clone(),
            cycles: engine.total_cycles(id).expect("subscribed"),
            latency: engine.latency(id).expect("subscribed").clone(),
        })
        .collect();

    Ok(MultiTenantReport {
        threads,
        tenants,
        total_edges: engine.graph().total_ingested(),
        candidates,
        fan_out_checks,
        parallel_batches,
        wall_secs,
    })
}

/// Configuration of the **fan-out scaling** scenario: one shared
/// [`MultiStreamingEngine`] serving a [`large_portfolio`] of subscription-
/// scale size, replayed once per [`FanOutStrategy`] so the dispatch cost of
/// the constraint index can be compared against the naive per-candidate loop
/// on the *same* stream and portfolio.
#[derive(Debug, Clone)]
pub struct FanOutScaleConfig {
    /// The synthetic transaction dataset replayed for every subscription.
    pub ring: TransactionRingConfig,
    /// Number of edges per ingest batch.
    pub batch_edges: usize,
    /// Sliding-window retention span (must cover the widest profile window).
    pub retention: Timestamp,
    /// Base enumeration window δ the portfolio profiles divide down from.
    pub window_delta: Timestamp,
    /// Number of subscriptions ([`large_portfolio`] of this size).
    pub subscriptions: usize,
}

impl Default for FanOutScaleConfig {
    fn default() -> Self {
        let base = StreamScenarioConfig::default();
        Self {
            ring: base.ring,
            batch_edges: base.batch_edges,
            retention: base.retention,
            window_delta: base.window_delta,
            subscriptions: 256,
        }
    }
}

impl FanOutScaleConfig {
    /// A seconds-scale configuration for CI smoke runs.
    pub fn smoke() -> Self {
        let base = StreamScenarioConfig::smoke();
        Self {
            ring: base.ring,
            batch_edges: base.batch_edges,
            retention: base.retention,
            window_delta: base.window_delta,
            subscriptions: 256,
        }
    }

    /// The same scenario at a different portfolio size.
    pub fn with_subscriptions(mut self, k: usize) -> Self {
        self.subscriptions = k;
        self
    }

    /// The portfolio this configuration subscribes.
    pub fn portfolio(&self) -> Vec<StreamingQuery> {
        large_portfolio(self.subscriptions, self.window_delta)
    }
}

/// The result of one fan-out scaling run (one strategy over one portfolio).
#[derive(Debug, Clone)]
pub struct FanOutScaleReport {
    /// Worker threads the shared pass (and any deferred dispatch) used.
    pub threads: usize,
    /// The strategy that dispatched every batch.
    pub strategy: FanOutStrategy,
    /// Portfolio size.
    pub subscriptions: usize,
    /// Distinct constraint groups the index collapsed the portfolio to.
    pub groups: usize,
    /// Candidate cycles the shared passes discovered (identical across
    /// strategies and across portfolio sizes `>= 16`: the profile pool fixes
    /// the loosest-constraint shared pass).
    pub candidates: u64,
    /// Subscription-constraint checks performed across the replay — the
    /// deterministic dispatch-cost measure.
    pub fan_out_checks: u64,
    /// Batches whose fan-out ran as deferred parallel tasks.
    pub parallel_batches: usize,
    /// Per-subscription lifetime cycle totals, in subscription order (must
    /// be identical across strategies — asserted by `streaming_bench`).
    pub per_query_cycles: Vec<u64>,
    /// End-to-end wall-clock seconds for the whole replay.
    pub wall_secs: f64,
}

/// Runs the fan-out scaling scenario: subscribes the [`large_portfolio`],
/// replays the transaction stream through one [`MultiStreamingEngine`] using
/// `strategy`, and reports dispatch cost plus per-query totals.
pub fn run_fan_out_scale(
    cfg: &FanOutScaleConfig,
    threads: usize,
    strategy: FanOutStrategy,
) -> Result<FanOutScaleReport, StreamingError> {
    let (graph, _planted) = transaction_rings(cfg.ring);
    let batches = replay_batches(&graph, cfg.batch_edges);
    let mut engine =
        MultiStreamingEngine::with_threads(cfg.retention, threads)?.with_fan_out(strategy);
    let ids: Vec<QueryId> = cfg
        .portfolio()
        .into_iter()
        .map(|q| engine.subscribe(q))
        .collect::<Result<_, _>>()?;
    let groups = engine.subscription_index().num_groups();

    let start = std::time::Instant::now();
    let mut candidates = 0u64;
    let mut fan_out_checks = 0u64;
    let mut parallel_batches = 0usize;
    for batch in &batches {
        let report = engine.ingest(batch)?;
        candidates += report.candidates;
        fan_out_checks += report.fan_out.checks;
        parallel_batches += usize::from(report.fan_out.parallel);
    }
    let wall_secs = start.elapsed().as_secs_f64();

    Ok(FanOutScaleReport {
        threads,
        strategy,
        subscriptions: cfg.subscriptions,
        groups,
        candidates,
        fan_out_checks,
        parallel_batches,
        per_query_cycles: ids
            .iter()
            .map(|&id| engine.total_cycles(id).expect("subscribed"))
            .collect(),
        wall_secs,
    })
}

/// The independent-engines baseline for [`run_multi_tenant`]: the same
/// portfolio over the same stream, but through one dedicated
/// [`StreamingEngine`] per query — N ingest passes, N delta scans, N pruning
/// passes. Returns the end-to-end wall time and per-query cycle totals (which
/// [`run_multi_tenant`] must match exactly; the differential harness and the
/// `multi_query` bench section both assert this).
pub fn run_independent_portfolio(
    cfg: &MultiTenantConfig,
    threads: usize,
) -> Result<(f64, Vec<u64>), StreamingError> {
    let (graph, _planted) = transaction_rings(cfg.ring);
    let batches = replay_batches(&graph, cfg.batch_edges);
    let mut engines = cfg
        .portfolio()
        .into_iter()
        .map(|q| {
            StreamingEngine::with_threads(cfg.retention, q.granularity(cfg.granularity), threads)
        })
        .collect::<Result<Vec<_>, _>>()?;

    let start = std::time::Instant::now();
    for batch in &batches {
        for engine in &mut engines {
            engine.ingest(batch)?;
        }
    }
    let wall_secs = start.elapsed().as_secs_f64();
    Ok((
        wall_secs,
        engines.iter().map(|e| e.total_cycles()).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_preserves_every_edge_in_order() {
        let (graph, _) = transaction_rings(StreamScenarioConfig::smoke().ring);
        let batches = replay_batches(&graph, 300);
        let replayed: Vec<TemporalEdge> = batches.iter().flatten().copied().collect();
        assert_eq!(replayed, graph.edges());
        assert!(batches[..batches.len() - 1].iter().all(|b| b.len() == 300));
    }

    #[test]
    fn smoke_scenario_finds_the_planted_rings() {
        let cfg = StreamScenarioConfig::smoke();
        let report = run_stream_scenario(&cfg, 1).expect("valid scenario");
        assert_eq!(report.total_edges as usize, {
            let (g, _) = transaction_rings(cfg.ring);
            g.num_edges()
        });
        // Ring spans fit inside the window, so at least the planted rings
        // must be reported across the stream.
        assert!(
            report.total_cycles >= cfg.ring.num_rings as u64,
            "found {} cycles, planted {}",
            report.total_cycles,
            cfg.ring.num_rings
        );
        assert!(report.sustained_edges_per_sec() > 0.0);
        assert!(report.max_latency_secs() >= report.latency_percentile_secs(0.5));
    }

    #[test]
    fn thread_counts_agree_on_the_cycle_total() {
        let cfg = StreamScenarioConfig::smoke();
        let seq = run_stream_scenario(&cfg, 1).unwrap();
        let par = run_stream_scenario(&cfg, 4).unwrap();
        assert_eq!(seq.total_cycles, par.total_cycles);
        assert_eq!(seq.rows.len(), par.rows.len());
        for (a, b) in seq.rows.iter().zip(&par.rows) {
            assert_eq!(a.cycles, b.cycles, "batch {}", a.batch);
            assert_eq!(a.live_edges, b.live_edges);
        }
    }

    #[test]
    fn granularities_agree_on_the_smoke_scenario() {
        let coarse = run_stream_scenario(&StreamScenarioConfig::smoke(), 4).unwrap();
        let fine = run_stream_scenario(
            &StreamScenarioConfig::smoke().with_granularity(Granularity::FineGrained),
            4,
        )
        .unwrap();
        assert_eq!(coarse.total_cycles, fine.total_cycles);
        for (a, b) in coarse.rows.iter().zip(&fine.rows) {
            assert_eq!(a.cycles, b.cycles, "batch {}", a.batch);
        }
    }

    #[test]
    fn mixed_portfolio_is_heterogeneous_and_fits_the_retention() {
        let cfg = MultiTenantConfig::smoke();
        let portfolio = cfg.portfolio();
        assert_eq!(portfolio.len(), 4);
        let kinds: std::collections::HashSet<_> = portfolio.iter().map(|q| q.kind()).collect();
        assert!(kinds.len() > 1, "kinds must vary across the portfolio");
        let deltas: std::collections::HashSet<_> =
            portfolio.iter().map(|q| q.window_delta()).collect();
        assert!(deltas.len() > 1, "windows must vary across the portfolio");
        assert!(portfolio.iter().all(|q| q.window_delta() <= cfg.retention));
    }

    #[test]
    fn multi_tenant_matches_independent_engines() {
        let cfg = MultiTenantConfig::smoke();
        let shared = run_multi_tenant(&cfg, 2).expect("valid multi-tenant config");
        let (_, independent) = run_independent_portfolio(&cfg, 2).expect("valid baseline");
        assert_eq!(shared.tenants.len(), independent.len());
        for (tenant, expected) in shared.tenants.iter().zip(&independent) {
            assert_eq!(
                tenant.cycles, *expected,
                "query {} diverged from its dedicated engine",
                tenant.query
            );
        }
        // The compliance tenant (widest temporal window) must see at least
        // the planted rings.
        assert!(shared.tenants[0].cycles >= cfg.ring.num_rings as u64);
        // Every tenant observed every batch.
        let batches = shared.tenants[0].latency.count();
        assert!(batches > 0);
        assert!(shared.tenants.iter().all(|t| t.latency.count() == batches));
        assert!(shared.candidates >= shared.tenants.iter().map(|t| t.cycles).max().unwrap());
        assert!(shared.sustained_edges_per_sec() > 0.0);
    }

    #[test]
    fn multi_tenant_thread_counts_agree() {
        let cfg = MultiTenantConfig::smoke().with_subscriptions(3);
        let seq = run_multi_tenant(&cfg, 1).unwrap();
        let par = run_multi_tenant(&cfg, 4).unwrap();
        for (a, b) in seq.tenants.iter().zip(&par.tenants) {
            assert_eq!(a.cycles, b.cycles, "query {}", a.query);
        }
        assert_eq!(seq.total_cycles(), par.total_cycles());
    }

    #[test]
    fn large_portfolio_cycles_sixteen_distinct_profiles() {
        let p = large_portfolio(64, 1_000);
        assert_eq!(p.len(), 64);
        let distinct: std::collections::HashSet<_> = p
            .iter()
            .map(|q| {
                (
                    q.kind(),
                    q.window_delta(),
                    q.max_len_bound(),
                    q.includes_self_loops(),
                )
            })
            .collect();
        assert_eq!(distinct.len(), 16, "the profile pool holds 16 profiles");
        assert_eq!(p[0], p[16], "subscriptions past the pool repeat it");
        assert!(p.iter().all(|q| q.window_delta() <= 1_000));
    }

    #[test]
    fn fan_out_strategies_agree_and_the_index_dispatches_less() {
        let cfg = FanOutScaleConfig::smoke().with_subscriptions(64);
        let naive = run_fan_out_scale(&cfg, 2, FanOutStrategy::Naive).unwrap();
        let indexed = run_fan_out_scale(&cfg, 2, FanOutStrategy::Indexed).unwrap();
        assert_eq!(naive.per_query_cycles, indexed.per_query_cycles);
        assert_eq!(naive.candidates, indexed.candidates);
        assert_eq!(indexed.groups, 16, "64 subs collapse to the profile pool");
        assert!(
            indexed.fan_out_checks < naive.fan_out_checks,
            "indexed {} vs naive {}",
            indexed.fan_out_checks,
            naive.fan_out_checks
        );
        // 64 subscriptions on a 2-thread engine take the deferred path.
        assert!(indexed.parallel_batches > 0);
        assert_eq!(naive.parallel_batches, 0);
        // The planted rings reach someone in the portfolio.
        assert!(indexed.per_query_cycles.iter().sum::<u64>() > 0);
    }

    #[test]
    fn hub_burst_fine_engages_extra_workers_where_coarse_cannot() {
        let cfg = HubBurstConfig::smoke();
        let coarse = run_hub_burst(&cfg, 4, Granularity::CoarseGrained).unwrap();
        let fine = run_hub_burst(&cfg, 4, Granularity::FineGrained).unwrap();
        assert_eq!(coarse.cycles, fine.cycles);
        assert_eq!(fine.cycles, cfg.expected_cycles());
        // The burst batch has one root: coarse degrades to a single worker.
        assert_eq!(coarse.busy_workers(), 1, "coarse pins to one worker");
        assert_eq!(coarse.burst_stats.work.total_steals(), 0);
        // Fine splits the rooted search itself.
        assert!(fine.busy_workers() > 1, "fine must spread the burst");
        assert!(fine.burst_stats.work.total_steals() > 0);
    }
}
