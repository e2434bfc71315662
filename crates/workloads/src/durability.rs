//! The **durability** scenario: what does crash-safety cost, and how fast is
//! recovery?
//!
//! The scenario replays the transaction-ring stream three ways over the same
//! batches and portfolio:
//!
//! 1. a plain in-memory [`MultiStreamingEngine`] — the baseline,
//! 2. a [`DurableMultiStreamingEngine`] on a chosen
//!    [store backend](StoreBackend) — measuring the log-then-apply overhead,
//! 3. a [`recover`] call over the store the durable run left behind —
//!    measuring restart time (hydration + registry restore + replay of the
//!    post-checkpoint suffix).
//!
//! The run asserts along the way that the three agree: the durable engine
//! must report exactly what the plain engine reports, and the recovered
//! engine must reproduce the registry and lifetime totals byte-for-byte —
//! so benchmark numbers can only come from a run where durability was
//! actually invisible.

use crate::streaming::{mixed_portfolio, replay_batches};
use pce_core::{FanOutStrategy, Granularity, MultiStreamingEngine, QueryId, StreamingError};
use pce_graph::generators::{transaction_rings, TransactionRingConfig};
use pce_graph::Timestamp;
use pce_store::{
    recover, DurableConfig, DurableMultiStreamingEngine, FsStore, MemoryStore, SegmentStore,
    StoreError,
};

/// Which [`SegmentStore`] backend the durable leg of the scenario runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreBackend {
    /// [`MemoryStore`]: isolates the pure encoding/bookkeeping overhead.
    Memory,
    /// [`FsStore`] in a scenario-owned temporary directory: includes real
    /// file appends and checkpoint renames.
    Fs,
}

impl StoreBackend {
    /// Stable lowercase label used in benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            StoreBackend::Memory => "memory",
            StoreBackend::Fs => "fs",
        }
    }
}

/// Configuration of one durability scenario run.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The synthetic transaction dataset to replay.
    pub ring: TransactionRingConfig,
    /// Number of edges per ingest batch.
    pub batch_edges: usize,
    /// Sliding-window retention span.
    pub retention: Timestamp,
    /// Base enumeration window δ of the portfolio.
    pub window_delta: Timestamp,
    /// Number of standing queries ([`mixed_portfolio`] of this size).
    pub subscriptions: usize,
    /// Segment-rotation threshold of the durable leg's log.
    pub segment_bytes: u64,
    /// Cadence checkpoint interval (`0` = rotation/churn checkpoints only).
    pub checkpoint_every_batches: u64,
}

impl Default for DurabilityConfig {
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
            subscriptions: 4,
            segment_bytes: 256 * 1024,
            checkpoint_every_batches: 8,
        }
    }
}

impl DurabilityConfig {
    /// A seconds-scale configuration for CI smoke runs.
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
            subscriptions: 4,
            segment_bytes: 16 * 1024,
            checkpoint_every_batches: 4,
        }
    }

    /// The portfolio this configuration subscribes.
    pub fn portfolio(&self) -> Vec<pce_core::StreamingQuery> {
        mixed_portfolio(self.subscriptions, self.window_delta)
    }

    fn durable(&self, threads: usize) -> DurableConfig {
        DurableConfig {
            segment_bytes: self.segment_bytes,
            checkpoint_every_batches: self.checkpoint_every_batches,
            threads,
            granularity: Granularity::CoarseGrained,
            strategy: FanOutStrategy::Indexed,
            ..DurableConfig::default()
        }
    }
}

/// The result of one durability scenario run.
#[derive(Debug, Clone)]
pub struct DurabilityReport {
    /// The store backend the durable leg ran on.
    pub backend: StoreBackend,
    /// Worker threads of every engine involved.
    pub threads: usize,
    /// Edges ingested by each leg.
    pub total_edges: u64,
    /// Batches ingested by each leg.
    pub batches: u64,
    /// Cycles reported per subscription (identical across all three legs).
    pub total_cycles: u64,
    /// Ingest wall-clock of the plain in-memory engine.
    pub plain_secs: f64,
    /// Ingest wall-clock of the durable engine (log-then-apply).
    pub durable_secs: f64,
    /// Wall-clock of [`recover`] over the durable run's store.
    pub recovery_secs: f64,
    /// Batches replayed (post-checkpoint) during recovery.
    pub replayed_batches: u64,
    /// Batches re-ingested subscription-free to rebuild the window.
    pub hydrated_batches: u64,
    /// Fully-expired batches recovery skipped outright.
    pub skipped_batches: u64,
    /// Total bytes in the segment log after the run.
    pub log_bytes: u64,
    /// Segments the log rotated through.
    pub segments: u64,
    /// Checkpoints written during the durable leg.
    pub checkpoints: u64,
}

impl DurabilityReport {
    /// Logged-over-plain ingest slowdown (`1.0` = free durability).
    pub fn overhead(&self) -> f64 {
        if self.plain_secs <= f64::EPSILON {
            0.0
        } else {
            self.durable_secs / self.plain_secs
        }
    }
}

/// Runs the durability scenario on the given backend. See the
/// [module docs](self) for the three legs and the equivalence assertions.
pub fn run_durability(
    cfg: &DurabilityConfig,
    threads: usize,
    backend: StoreBackend,
) -> Result<DurabilityReport, StoreError> {
    match backend {
        StoreBackend::Memory => run_with_store(cfg, threads, backend, MemoryStore::new()),
        StoreBackend::Fs => {
            let dir = std::env::temp_dir().join(format!(
                "pce_durability_scenario_{}_{}",
                std::process::id(),
                cfg.ring.seed
            ));
            std::fs::remove_dir_all(&dir).ok();
            let store = FsStore::open(&dir)?;
            let result = run_with_store(cfg, threads, backend, store);
            std::fs::remove_dir_all(&dir).ok();
            result
        }
    }
}

fn run_with_store<S: SegmentStore>(
    cfg: &DurabilityConfig,
    threads: usize,
    backend: StoreBackend,
    store: S,
) -> Result<DurabilityReport, StoreError> {
    let (graph, _planted) = transaction_rings(cfg.ring);
    let batches = replay_batches(&graph, cfg.batch_edges);
    let portfolio = cfg.portfolio();

    // Leg 1: the plain in-memory baseline.
    let mut plain = MultiStreamingEngine::with_threads(cfg.retention, threads)?
        .with_granularity(Granularity::CoarseGrained)
        .with_fan_out(FanOutStrategy::Indexed);
    let ids: Vec<QueryId> = portfolio
        .iter()
        .map(|q| plain.subscribe(q.clone()))
        .collect::<Result<_, StreamingError>>()?;
    let start = std::time::Instant::now();
    for batch in &batches {
        plain.ingest(batch)?;
    }
    let plain_secs = start.elapsed().as_secs_f64();

    // Leg 2: the same replay, logged.
    let dcfg = cfg.durable(threads);
    let mut durable = DurableMultiStreamingEngine::create(store, cfg.retention, &dcfg)?;
    for q in &portfolio {
        durable.subscribe(q.clone())?;
    }
    let start = std::time::Instant::now();
    for batch in &batches {
        durable.ingest(batch)?;
    }
    let durable_secs = start.elapsed().as_secs_f64();

    let total_cycles: u64 = ids
        .iter()
        .map(|&id| plain.total_cycles(id).expect("subscribed"))
        .sum();
    assert_eq!(
        durable.engine().subscription_snapshots(),
        plain.subscription_snapshots(),
        "durability must be invisible to the registry and lifetime totals"
    );

    let log_bytes = durable.log().total_bytes();
    let segments = durable.log().current_segment() + 1;
    let checkpoints = durable.checkpoints_written();

    // Leg 3: a restart from the store the durable leg left behind.
    let start = std::time::Instant::now();
    let (recovered, info) = recover(durable.into_store(), &dcfg)?;
    let recovery_secs = start.elapsed().as_secs_f64();
    assert_eq!(
        recovered.engine().subscription_snapshots(),
        plain.subscription_snapshots(),
        "recovery must reproduce the registry and lifetime totals"
    );
    assert_eq!(recovered.engine().batches(), batches.len() as u64);

    Ok(DurabilityReport {
        backend,
        threads,
        total_edges: plain.graph().total_ingested(),
        batches: batches.len() as u64,
        total_cycles,
        plain_secs,
        durable_secs,
        recovery_secs,
        replayed_batches: info.replayed.len() as u64,
        hydrated_batches: info.hydrated_batches,
        skipped_batches: info.skipped_batches,
        log_bytes,
        segments,
        checkpoints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_on_both_backends() {
        let cfg = DurabilityConfig::smoke();
        for backend in [StoreBackend::Memory, StoreBackend::Fs] {
            let report = run_durability(&cfg, 2, backend).expect("scenario");
            assert_eq!(report.backend, backend);
            assert!(report.batches > 0);
            assert!(report.total_cycles > 0, "smoke stream must close rings");
            assert!(report.log_bytes > 0);
            assert!(report.checkpoints > 0);
            assert_eq!(
                report.replayed_batches + report.hydrated_batches + report.skipped_batches,
                report.batches
            );
        }
    }
}
