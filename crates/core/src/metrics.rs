//! Work and load-balance instrumentation.
//!
//! §8 of the paper quantifies work as the number of edges visited during a
//! run and load balance as per-thread execution time (Figure 1). Every
//! enumerator in this crate takes a [`WorkMetrics`] handle and records edge
//! visits, recursive calls / tasks, copy-on-steal events and unblock
//! operations into per-worker, cache-line-padded atomic counters; the
//! aggregate is returned alongside the cycle count in a [`RunStats`].

use crate::engine::{Algorithm, Granularity};
use crossbeam_utils::CachePadded;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Per-worker counter block (cache-line padded so that workers do not false
/// share).
#[derive(Debug, Default)]
struct WorkerBlock {
    edge_visits: AtomicU64,
    recursive_calls: AtomicU64,
    copy_events: AtomicU64,
    steal_events: AtomicU64,
    unblock_ops: AtomicU64,
    roots_processed: AtomicU64,
    union_members: AtomicU64,
    aggregate_prunes: AtomicU64,
    positional_prunes: AtomicU64,
    vertex_prunes: AtomicU64,
    busy_nanos: AtomicU64,
}

/// Shared, thread-safe work counters for one enumeration run.
///
/// `worker_id` arguments index into per-worker slots; sequential enumerators
/// pass `0`. Ids greater than the configured worker count are clamped to the
/// last slot rather than panicking, so callers may size the metrics for the
/// pool and still record from an external helper thread.
#[derive(Debug)]
pub struct WorkMetrics {
    workers: Vec<CachePadded<WorkerBlock>>,
}

impl WorkMetrics {
    /// Creates metrics with one slot per worker (at least one slot).
    pub fn new(num_workers: usize) -> Self {
        let n = num_workers.max(1);
        Self {
            workers: (0..n)
                .map(|_| CachePadded::new(WorkerBlock::default()))
                .collect(),
        }
    }

    #[inline]
    fn slot(&self, worker: usize) -> &WorkerBlock {
        &self.workers[worker.min(self.workers.len() - 1)]
    }

    /// Records one edge visit (the paper's work metric).
    #[inline]
    pub fn edge_visit(&self, worker: usize) {
        self.slot(worker)
            .edge_visits
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` edge visits at once.
    #[inline]
    pub fn edge_visits(&self, worker: usize, n: u64) {
        self.slot(worker)
            .edge_visits
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Records one recursive call / task execution.
    #[inline]
    pub fn recursive_call(&self, worker: usize) {
        self.slot(worker)
            .recursive_calls
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one copy of the search state (copy-on-steal or task copy).
    /// The fine temporal enumerators copy only when they split work off for
    /// an idle worker, so for them the count depends on scheduling, like
    /// steals do.
    #[inline]
    pub fn copy_event(&self, worker: usize) {
        self.slot(worker)
            .copy_events
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one successful branch steal.
    #[inline]
    pub fn steal_event(&self, worker: usize) {
        self.slot(worker)
            .steal_events
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one (recursive) unblock operation.
    #[inline]
    pub fn unblock_op(&self, worker: usize) {
        self.slot(worker)
            .unblock_ops
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records that a worker finished processing one root edge.
    #[inline]
    pub fn root_processed(&self, worker: usize) {
        self.slot(worker)
            .roots_processed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records the size of one root's cycle-union. The per-run total is a
    /// deterministic measure of how much state the union passes admitted —
    /// the counter predicate pushdown is expected to shrink.
    #[inline]
    pub fn union_members(&self, worker: usize, n: u64) {
        self.slot(worker)
            .union_members
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Records one partial path pruned by an *aggregate* bound of the pushed
    /// cycle predicate: the running total exceeded the maximum, or a hop
    /// broke required amount-monotonicity. Deterministic per configuration
    /// (pruning happens at fixed points of the traversal, independent of
    /// scheduling).
    #[inline]
    pub fn aggregate_prune(&self, worker: usize) {
        self.slot(worker)
            .aggregate_prunes
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one partial path pruned by a *positional* edge constraint
    /// (the edge placed at a fixed `FromStart` index failed it).
    #[inline]
    pub fn positional_prune(&self, worker: usize) {
        self.slot(worker)
            .positional_prunes
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one expansion pruned by the vertex allow/deny filter of the
    /// pushed cycle predicate.
    #[inline]
    pub fn vertex_prune(&self, worker: usize) {
        self.slot(worker)
            .vertex_prunes
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Adds busy wall-clock time for a worker.
    #[inline]
    pub fn add_busy(&self, worker: usize, time: Duration) {
        self.slot(worker)
            .busy_nanos
            .fetch_add(time.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Takes a plain-value snapshot of every worker's counters.
    pub fn snapshot(&self) -> WorkSnapshot {
        WorkSnapshot {
            workers: self
                .workers
                .iter()
                .map(|w| WorkerWork {
                    edge_visits: w.edge_visits.load(Ordering::Relaxed),
                    recursive_calls: w.recursive_calls.load(Ordering::Relaxed),
                    copy_events: w.copy_events.load(Ordering::Relaxed),
                    steal_events: w.steal_events.load(Ordering::Relaxed),
                    unblock_ops: w.unblock_ops.load(Ordering::Relaxed),
                    roots_processed: w.roots_processed.load(Ordering::Relaxed),
                    union_members: w.union_members.load(Ordering::Relaxed),
                    aggregate_prunes: w.aggregate_prunes.load(Ordering::Relaxed),
                    positional_prunes: w.positional_prunes.load(Ordering::Relaxed),
                    vertex_prunes: w.vertex_prunes.load(Ordering::Relaxed),
                    busy_nanos: w.busy_nanos.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// Snapshot of one worker's work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerWork {
    /// Edges visited.
    pub edge_visits: u64,
    /// Recursive calls / tasks executed.
    pub recursive_calls: u64,
    /// Search-state copies performed. For the fine temporal enumerators this
    /// counts on-demand splits (one per task handed to an idle worker), not
    /// recursive calls, and depends on scheduling like `steal_events`.
    pub copy_events: u64,
    /// Branches stolen from other workers.
    pub steal_events: u64,
    /// Unblock operations performed.
    pub unblock_ops: u64,
    /// Root edges processed.
    pub roots_processed: u64,
    /// Summed cycle-union sizes over processed roots.
    pub union_members: u64,
    /// Partial paths pruned by aggregate bounds (running total above the
    /// maximum, or a broken monotone chain).
    pub aggregate_prunes: u64,
    /// Partial paths pruned by a positional (`FromStart`) edge constraint.
    pub positional_prunes: u64,
    /// Expansions pruned by the vertex allow/deny filter.
    pub vertex_prunes: u64,
    /// Busy wall-clock nanoseconds.
    pub busy_nanos: u64,
}

/// Snapshot of all workers' counters plus aggregate helpers.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkSnapshot {
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerWork>,
}

impl WorkSnapshot {
    /// Total edges visited across all workers — the paper's work metric.
    pub fn total_edge_visits(&self) -> u64 {
        self.workers.iter().map(|w| w.edge_visits).sum()
    }

    /// Total recursive calls / tasks.
    pub fn total_recursive_calls(&self) -> u64 {
        self.workers.iter().map(|w| w.recursive_calls).sum()
    }

    /// Total search-state copies.
    pub fn total_copies(&self) -> u64 {
        self.workers.iter().map(|w| w.copy_events).sum()
    }

    /// Total successful branch steals.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steal_events).sum()
    }

    /// Total unblock operations.
    pub fn total_unblocks(&self) -> u64 {
        self.workers.iter().map(|w| w.unblock_ops).sum()
    }

    /// Total root edges processed.
    pub fn total_roots(&self) -> u64 {
        self.workers.iter().map(|w| w.roots_processed).sum()
    }

    /// Total cycle-union members summed over all processed roots. A
    /// deterministic, thread-count-independent proxy for how much search
    /// state the union passes admitted; predicate pushdown strictly shrinks
    /// it whenever a predicate rejects any edge on a union path.
    pub fn total_union_members(&self) -> u64 {
        self.workers.iter().map(|w| w.union_members).sum()
    }

    /// Total partial paths pruned by aggregate bounds. Deterministic per
    /// configuration and identical across scheduling strategies (the prune
    /// points are fixed in the traversal), so differential tests may compare
    /// it exactly. The counter moves the *opposite* way of
    /// [`WorkSnapshot::total_union_members`]: a post-filter run pushes no
    /// predicate down and records zero prunes, while its
    /// `union_members`/`edge_visits` stay at least as large as the pushdown
    /// run's.
    pub fn total_aggregate_prunes(&self) -> u64 {
        self.workers.iter().map(|w| w.aggregate_prunes).sum()
    }

    /// Total partial paths pruned by positional constraints.
    pub fn total_positional_prunes(&self) -> u64 {
        self.workers.iter().map(|w| w.positional_prunes).sum()
    }

    /// Total expansions pruned by the vertex filter.
    pub fn total_vertex_prunes(&self) -> u64 {
        self.workers.iter().map(|w| w.vertex_prunes).sum()
    }

    /// Per-worker busy time in seconds (the series plotted in Figure 1).
    pub fn busy_secs_per_worker(&self) -> Vec<f64> {
        self.workers
            .iter()
            .map(|w| w.busy_nanos as f64 / 1e9)
            .collect()
    }

    /// Load-imbalance factor: max busy time / mean busy time (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let busy = self.busy_secs_per_worker();
        if busy.is_empty() {
            return 1.0;
        }
        let mean: f64 = busy.iter().sum::<f64>() / busy.len() as f64;
        if mean <= f64::EPSILON {
            1.0
        } else {
            busy.iter().cloned().fold(0.0, f64::max) / mean
        }
    }
}

/// Per-query latency accumulator for multi-tenant streaming: records one
/// sample per ingested batch (seconds) and answers the percentile questions a
/// capacity planner asks per subscription — p50/p95/max — without the caller
/// re-sorting raw rows.
///
/// Used by [`MultiStreamingEngine`](crate::streaming::MultiStreamingEngine)
/// to attribute per-batch latency to each [`QueryId`](crate::streaming::QueryId)
/// over the subscription's lifetime (a query subscribed mid-stream only
/// accumulates samples from its first batch on), and to attribute fan-out
/// dispatch time to each subscription cohort
/// ([`MultiStreamingEngine::cohort_latency`](crate::streaming::MultiStreamingEngine::cohort_latency))
/// whenever a batch's dispatch runs as deferred parallel tasks.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Raw per-batch latency samples in seconds, in arrival order.
    samples: Vec<f64>,
}

impl LatencyStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one per-batch latency sample (seconds).
    pub fn record(&mut self, secs: f64) {
        self.samples.push(secs);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean latency in seconds (0 with no samples).
    pub fn mean_secs(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Latency percentile (`p` clamped to `0.0..=1.0`) in seconds, by
    /// nearest-rank over the sorted samples (0 with no samples): the value at
    /// rank `⌈p·n⌉` (1-based), so p95 over 20 samples is the 19th smallest,
    /// never an interpolated or rounded-down rank. Sorting uses
    /// [`f64::total_cmp`], so a NaN sample (e.g. from a poisoned timer)
    /// sorts to the end instead of panicking. Sorts a copy of the samples
    /// per call — a reporting-time operation, not one for the per-batch hot
    /// path.
    pub fn percentile_secs(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let idx = ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize)
            .saturating_sub(1)
            .min(n - 1);
        sorted[idx]
    }

    /// Worst recorded latency in seconds (one linear scan, no sort).
    pub fn max_secs(&self) -> f64 {
        self.samples.iter().fold(0.0, |acc, &s| f64::max(acc, s))
    }

    /// Sum of every recorded sample in seconds — the aggregate a capacity
    /// planner divides budgets by (e.g. total dispatch seconds a cohort cost
    /// over a replay).
    pub fn total_secs(&self) -> f64 {
        self.samples.iter().sum()
    }
}

/// The result summary returned by every enumerator: cycle count, wall-clock
/// time and the work snapshot, tagged with what actually ran.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunStats {
    /// Number of cycles reported to the sink.
    pub cycles: u64,
    /// Wall-clock execution time in seconds.
    pub wall_secs: f64,
    /// Work counters.
    pub work: WorkSnapshot,
    /// Number of worker threads used (1 for sequential enumerators).
    pub threads: usize,
    /// The algorithm that effectively executed. Set by every enumerator; a
    /// compatibility fallback (e.g. the legacy Tiernan fine-grained → coarse
    /// mapping of `CycleEnumerator`) is therefore visible here.
    pub algorithm: Option<Algorithm>,
    /// The granularity that effectively executed (see
    /// [`RunStats::algorithm`]).
    pub granularity: Option<Granularity>,
}

impl RunStats {
    /// Tags the stats with the algorithm/granularity that produced them.
    pub(crate) fn tagged(mut self, algorithm: Algorithm, granularity: Granularity) -> Self {
        self.algorithm = Some(algorithm);
        self.granularity = Some(granularity);
        self
    }

    /// Throughput in cycles per second (0 when the run took no measurable
    /// time).
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            0.0
        } else {
            self.cycles as f64 / self.wall_secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_worker() {
        let m = WorkMetrics::new(3);
        m.edge_visit(0);
        m.edge_visits(1, 10);
        m.edge_visit(2);
        m.recursive_call(1);
        m.copy_event(2);
        m.steal_event(2);
        m.unblock_op(0);
        m.root_processed(0);
        m.union_members(0, 3);
        m.union_members(2, 4);
        m.aggregate_prune(0);
        m.aggregate_prune(1);
        m.positional_prune(2);
        m.vertex_prune(0);
        m.add_busy(1, Duration::from_millis(2));
        let s = m.snapshot();
        assert_eq!(s.total_edge_visits(), 12);
        assert_eq!(s.total_union_members(), 7);
        assert_eq!(s.total_aggregate_prunes(), 2);
        assert_eq!(s.total_positional_prunes(), 1);
        assert_eq!(s.total_vertex_prunes(), 1);
        assert_eq!(s.total_recursive_calls(), 1);
        assert_eq!(s.total_copies(), 1);
        assert_eq!(s.total_steals(), 1);
        assert_eq!(s.total_unblocks(), 1);
        assert_eq!(s.total_roots(), 1);
        assert_eq!(s.workers[1].edge_visits, 10);
        assert!(s.busy_secs_per_worker()[1] > 0.0);
    }

    #[test]
    fn out_of_range_worker_is_clamped() {
        let m = WorkMetrics::new(2);
        m.edge_visit(99);
        assert_eq!(m.snapshot().workers[1].edge_visits, 1);
    }

    #[test]
    fn zero_worker_request_clamps_to_one() {
        let m = WorkMetrics::new(0);
        m.edge_visit(0);
        assert_eq!(m.snapshot().total_edge_visits(), 1);
    }

    #[test]
    fn imbalance_of_even_and_skewed_loads() {
        let even = WorkSnapshot {
            workers: vec![
                WorkerWork {
                    busy_nanos: 1_000,
                    ..Default::default()
                };
                4
            ],
        };
        assert!((even.imbalance() - 1.0).abs() < 1e-9);
        let skewed = WorkSnapshot {
            workers: vec![
                WorkerWork {
                    busy_nanos: 4_000,
                    ..Default::default()
                },
                WorkerWork::default(),
                WorkerWork::default(),
                WorkerWork::default(),
            ],
        };
        assert!((skewed.imbalance() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn latency_stats_percentiles() {
        let mut l = LatencyStats::new();
        assert_eq!(l.count(), 0);
        assert_eq!(l.mean_secs(), 0.0);
        assert_eq!(l.percentile_secs(0.5), 0.0);
        // Record out of order: percentiles must sort, not trust arrival order.
        for secs in [0.5, 0.1, 0.4, 0.2, 0.3] {
            l.record(secs);
        }
        assert_eq!(l.count(), 5);
        assert!((l.mean_secs() - 0.3).abs() < 1e-12);
        assert!((l.percentile_secs(0.5) - 0.3).abs() < 1e-12);
        assert!((l.percentile_secs(0.0) - 0.1).abs() < 1e-12);
        assert!((l.max_secs() - 0.5).abs() < 1e-12);
        assert!((l.total_secs() - 1.5).abs() < 1e-12);
        // Out-of-range percentiles clamp instead of panicking.
        assert_eq!(l.percentile_secs(7.0), l.max_secs());
    }

    #[test]
    fn percentile_is_nearest_rank_on_ten_samples() {
        // Regression: the rank used to be `round((n-1)·p)`, which is neither
        // nearest-rank nor monotone in n. Pin the nearest-rank values: rank
        // ⌈p·n⌉ (1-based) over the sorted samples.
        let mut l = LatencyStats::new();
        for i in 1..=10 {
            l.record(i as f64 / 10.0);
        }
        // p95 of 10 samples: rank ⌈9.5⌉ = 10 → the maximum.
        assert!((l.percentile_secs(0.95) - 1.0).abs() < 1e-12);
        // p50 of 10 samples: rank ⌈5.0⌉ = 5 → 0.5 (the old rounding picked
        // rank 6 = 0.6).
        assert!((l.percentile_secs(0.50) - 0.5).abs() < 1e-12);
        // p10: rank ⌈1.0⌉ = 1 → the minimum.
        assert!((l.percentile_secs(0.10) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank_on_twenty_samples() {
        let mut l = LatencyStats::new();
        for i in 1..=20 {
            l.record(i as f64 / 20.0);
        }
        // p95 of 20 samples: rank ⌈19.0⌉ = 19 → 0.95, not the maximum.
        assert!((l.percentile_secs(0.95) - 0.95).abs() < 1e-12);
        // p99: rank ⌈19.8⌉ = 20 → the maximum.
        assert!((l.percentile_secs(0.99) - 1.0).abs() < 1e-12);
        // p50: rank ⌈10.0⌉ = 10 → 0.5.
        assert!((l.percentile_secs(0.50) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_survives_nan_sample() {
        // Regression: `partial_cmp(..).expect(..)` panicked if any sample was
        // NaN (e.g. a poisoned timer). `total_cmp` sorts NaN after every
        // finite value instead.
        let mut l = LatencyStats::new();
        l.record(0.2);
        l.record(f64::NAN);
        l.record(0.1);
        assert!((l.percentile_secs(0.0) - 0.1).abs() < 1e-12);
        assert!((l.percentile_secs(0.5) - 0.2).abs() < 1e-12);
        // The NaN occupies the top rank; asking for it must not panic.
        assert!(l.percentile_secs(1.0).is_nan());
    }

    #[test]
    fn run_stats_throughput() {
        let stats = RunStats {
            cycles: 100,
            wall_secs: 2.0,
            work: WorkSnapshot::default(),
            threads: 4,
            ..RunStats::default()
        };
        assert!((stats.cycles_per_sec() - 50.0).abs() < 1e-9);
        let zero = RunStats::default();
        assert_eq!(zero.cycles_per_sec(), 0.0);
    }
}
