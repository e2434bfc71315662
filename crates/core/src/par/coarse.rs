//! Coarse-grained parallel enumeration (§4).
//!
//! The search rooted at every edge is an independent task; tasks are
//! dynamically scheduled over the pool's workers (each worker repeatedly
//! claims the next unprocessed root edge). This is work efficient — every root
//! search performs exactly the work its sequential counterpart would — but not
//! scalable: a single root edge can own almost all of the work (Figure 4a has
//! `2^(n-2)` cycles behind one root edge), in which case adding workers cannot
//! reduce the execution time (Theorem 4.2).

use crate::cycle::{CycleSink, HaltingSink};
use crate::metrics::{RunStats, WorkMetrics};
use crate::options::{SimpleCycleOptions, TemporalCycleOptions};
use crate::seq::johnson::johnson_root;
use crate::seq::read_tarjan::read_tarjan_root;
use crate::seq::temporal::temporal_root;
use crate::seq::tiernan::tiernan_root;
use crate::seq::RootScratch;
use crate::{Algorithm, Granularity};
use pce_graph::{EdgeId, TemporalGraph};
use pce_sched::{DynamicCounter, ThreadPool};
use std::time::Instant;

/// The shared coarse-grained driver: workers claim root edges from a dynamic
/// counter and run `per_root` on each, winding down early when the sink stops
/// the run. Every coarse entry point (simple *and* temporal) is this loop
/// with a different per-root search plugged in.
fn run_coarse<S, F>(
    graph: &TemporalGraph,
    sink: &S,
    pool: &ThreadPool,
    algorithm: Algorithm,
    per_root: F,
) -> RunStats
where
    S: CycleSink,
    F: Fn(EdgeId, &mut RootScratch, &HaltingSink<'_, S>, &WorkMetrics, usize) + Sync,
{
    let threads = pool.num_threads();
    let metrics = WorkMetrics::new(threads);
    let start = Instant::now();
    let counter = DynamicCounter::new(graph.num_edges(), 1);
    let sink = HaltingSink::new(sink);

    pool.scope(|scope| {
        for _ in 0..threads {
            let counter = &counter;
            let metrics = &metrics;
            let sink = &sink;
            let per_root = &per_root;
            scope.spawn(move |_, ctx| {
                let worker = ctx.worker_id();
                let mut scratch = RootScratch::new(graph.num_vertices());
                while let Some(root) = counter.next() {
                    if sink.stopped() {
                        break;
                    }
                    let t0 = Instant::now();
                    per_root(root as EdgeId, &mut scratch, sink, metrics, worker);
                    metrics.add_busy(worker, t0.elapsed());
                }
            });
        }
    });

    RunStats {
        cycles: sink.count(),
        wall_secs: start.elapsed().as_secs_f64(),
        work: metrics.snapshot(),
        threads,
        ..RunStats::default()
    }
    .tagged(algorithm, Granularity::CoarseGrained)
}

/// Coarse-grained parallel Johnson: one dynamically scheduled task per root
/// edge, each running the sequential Johnson search.
pub fn coarse_johnson_simple<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &SimpleCycleOptions,
    sink: &S,
    pool: &ThreadPool,
) -> RunStats {
    run_coarse(
        graph,
        sink,
        pool,
        Algorithm::Johnson,
        |root, scratch, sink, metrics, worker| {
            johnson_root(graph, root, opts, scratch, sink, metrics, worker, |_| {})
        },
    )
}

/// Coarse-grained parallel Read-Tarjan: one dynamically scheduled task per
/// root edge, each running the sequential Read-Tarjan search.
pub fn coarse_read_tarjan_simple<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &SimpleCycleOptions,
    sink: &S,
    pool: &ThreadPool,
) -> RunStats {
    run_coarse(
        graph,
        sink,
        pool,
        Algorithm::ReadTarjan,
        |root, scratch, sink, metrics, worker| {
            read_tarjan_root(graph, root, opts, scratch, sink, metrics, worker, |_| {})
        },
    )
}

/// Coarse-grained parallel Tiernan (included for completeness as the
/// brute-force comparison point).
pub fn coarse_tiernan_simple<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &SimpleCycleOptions,
    sink: &S,
    pool: &ThreadPool,
) -> RunStats {
    run_coarse(
        graph,
        sink,
        pool,
        Algorithm::Tiernan,
        |root, _scratch, sink, metrics, worker| {
            tiernan_root(graph, root, opts, sink, metrics, worker)
        },
    )
}

/// Coarse-grained parallel temporal-cycle enumeration: one dynamically
/// scheduled task per root edge, each running the sequential temporal search
/// with cycle-union and closing-time pruning.
pub fn coarse_temporal<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &TemporalCycleOptions,
    sink: &S,
    pool: &ThreadPool,
) -> RunStats {
    run_coarse(
        graph,
        sink,
        pool,
        Algorithm::Johnson,
        |root, scratch, sink, metrics, worker| {
            temporal_root(graph, root, opts, scratch, sink, metrics, worker)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{CollectingSink, CountingSink};
    use crate::seq::johnson::johnson_simple;
    use crate::seq::temporal::temporal_simple;
    use pce_graph::generators::{self, RandomTemporalConfig};

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn coarse_johnson_matches_sequential() {
        let g = generators::uniform_temporal(RandomTemporalConfig {
            num_vertices: 20,
            num_edges: 90,
            time_span: 50,
            seed: 1,
        });
        let opts = SimpleCycleOptions::with_window(15);
        let seq = CollectingSink::new();
        johnson_simple(&g, &opts, &seq);
        let par = CollectingSink::new();
        coarse_johnson_simple(&g, &opts, &par, &pool());
        assert_eq!(seq.canonical_cycles(), par.canonical_cycles());
    }

    #[test]
    fn coarse_read_tarjan_matches_sequential() {
        let g = generators::uniform_temporal(RandomTemporalConfig {
            num_vertices: 18,
            num_edges: 80,
            time_span: 60,
            seed: 2,
        });
        let opts = SimpleCycleOptions::with_window(18);
        let seq = CollectingSink::new();
        johnson_simple(&g, &opts, &seq);
        let par = CollectingSink::new();
        coarse_read_tarjan_simple(&g, &opts, &par, &pool());
        assert_eq!(seq.canonical_cycles(), par.canonical_cycles());
    }

    #[test]
    fn coarse_tiernan_matches_sequential() {
        let g = generators::uniform_temporal(RandomTemporalConfig {
            num_vertices: 12,
            num_edges: 40,
            time_span: 30,
            seed: 3,
        });
        let opts = SimpleCycleOptions::unconstrained();
        let seq = CollectingSink::new();
        johnson_simple(&g, &opts, &seq);
        let par = CollectingSink::new();
        coarse_tiernan_simple(&g, &opts, &par, &pool());
        assert_eq!(seq.canonical_cycles(), par.canonical_cycles());
    }

    #[test]
    fn coarse_temporal_matches_sequential() {
        let g = generators::power_law_temporal(RandomTemporalConfig {
            num_vertices: 50,
            num_edges: 250,
            time_span: 120,
            seed: 4,
        });
        let opts = TemporalCycleOptions::with_window(60);
        let seq = CollectingSink::new();
        temporal_simple(&g, &opts, &seq);
        let par = CollectingSink::new();
        coarse_temporal(&g, &opts, &par, &pool());
        assert_eq!(seq.canonical_cycles(), par.canonical_cycles());
    }

    #[test]
    fn fig4a_single_root_counts_are_exact_for_any_thread_count() {
        let g = generators::fig4a_exponential_cycles(10);
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let sink = CountingSink::new();
            let stats =
                coarse_johnson_simple(&g, &SimpleCycleOptions::unconstrained(), &sink, &pool);
            assert_eq!(sink.count(), generators::fig4a_cycle_count(10));
            assert_eq!(stats.threads, threads);
        }
    }

    #[test]
    fn results_are_independent_of_thread_count() {
        let g = generators::uniform_temporal(RandomTemporalConfig {
            num_vertices: 16,
            num_edges: 70,
            time_span: 45,
            seed: 5,
        });
        let opts = SimpleCycleOptions::with_window(20);
        let reference = CollectingSink::new();
        coarse_johnson_simple(&g, &opts, &reference, &ThreadPool::new(1));
        for threads in [2, 3, 8] {
            let sink = CollectingSink::new();
            coarse_johnson_simple(&g, &opts, &sink, &ThreadPool::new(threads));
            assert_eq!(
                reference.canonical_cycles(),
                sink.canonical_cycles(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn busy_time_is_recorded_per_worker() {
        let g = generators::fig4a_exponential_cycles(12);
        let sink = CountingSink::new();
        let stats = coarse_johnson_simple(
            &g,
            &SimpleCycleOptions::unconstrained(),
            &sink,
            &ThreadPool::new(4),
        );
        // All of the work of fig4a hangs off a single root edge, so exactly
        // one worker should carry essentially all the busy time — the load
        // imbalance the paper's Figure 1a illustrates.
        assert!(stats.work.imbalance() > 1.5);
    }
}
