//! The fine-grained parallel Johnson algorithm (§5).
//!
//! Workers claim root edges dynamically and run each rooted search on the
//! sequential Johnson loop over frames (`seq::johnson`), in place on their
//! own scratch. Work moves only on demand, under the split policy shared with
//! every other fine search (the `split` module): before a descent, if the
//! pool reports an idle worker that no earlier split is still waiting for,
//! the owner splits the first half of its shallowest frame's unscanned edges
//! off to one new task.
//!
//! The split carries §5's copy: the owner's path `Π`, its blocked set `Blk`
//! and the unblock lists `Blist`. The worker that runs it truncates the path
//! back to the split frame and invokes the **recursive unblocking procedure**
//! for every vertex it removes, so blocked vertices the owner found below
//! the frame stay blocked when they remain valid for the shorter path. It
//! recomputes the root's cycle union in its own workspace, uncounted, unless
//! the workspace still holds it, and then searches on as an independent
//! search that may split in turn.
//!
//! This is copy-on-split rather than copy-on-steal: the same data is copied,
//! but at the owner's moment, between two descents, instead of the thief's.
//! The owner's search therefore needs no lock, and an idle worker waits in
//! the pool's find-task loop instead of polling searches for branches. It is
//! the principle of Frigo, Leiserson & Randall, "The Implementation of the
//! Cilk-5 Multithreaded Language" (PLDI 1998): put the overhead on the split
//! path, not on the work path. A lone busy worker never copies, and a split
//! counts one copy.
//!
//! When the owner later backtracks over a frame that lost edges to a split,
//! it conservatively treats the split-off subtrees as if they had found a
//! cycle, i.e. it unblocks the frame vertex. Unblocking too eagerly can only
//! cost pruning (this is the source of the algorithm's work inefficiency,
//! Theorem 5.1 — up to `min(s, p·c)` vertex visits); it can never cause a
//! cycle to be missed, and the on-path check guarantees that only simple
//! cycles are reported. Every edge of a frame is scanned by exactly one
//! worker, so no cycle is reported twice. At one thread no split happens and
//! every counter equals the sequential search's.

use super::split::SimpleRun;
use crate::cycle::CycleSink;
use crate::metrics::RunStats;
use crate::options::SimpleCycleOptions;
use crate::seq::johnson::{johnson_root, resume_split, Search};
use crate::Algorithm;
use pce_graph::TemporalGraph;
use pce_sched::{Scope, ThreadPool, WorkerCtx};

/// Whether a search splits before its next descent.
type Policy<S> = fn(&SimpleRun<'_, S>, &WorkerCtx<'_>) -> bool;

/// Splits part of `search` off to a new task if `policy` asks for one.
fn split<'scope, 'g, S: CycleSink>(
    run: &'scope SimpleRun<'g, S>,
    search: &mut Search<'_, 'g>,
    scope: &Scope<'scope>,
    ctx: &WorkerCtx<'_>,
    policy: Policy<S>,
) {
    if !policy(run, ctx) {
        return;
    }
    let Some(task) = search.split_off() else {
        return;
    };
    run.metrics.copy_event(ctx.worker_id());
    run.spawn_split(scope, ctx, move |state, scope, ctx| {
        state.hold_union(run.graph, task.root, run.window(task.root));
        resume_split(
            run.graph,
            run.opts,
            task,
            &mut state.scratch,
            run.sink,
            run.metrics,
            ctx.worker_id(),
            |search| split(run, search, scope, ctx, policy),
        );
    });
}

/// Runs fine Johnson on `pool`, splitting whenever `policy` asks.
fn run_fine<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &SimpleCycleOptions,
    sink: &S,
    pool: &ThreadPool,
    policy: Policy<S>,
) -> RunStats {
    SimpleRun::execute(
        graph,
        opts,
        sink,
        pool,
        Algorithm::Johnson,
        |run, root, scratch, scope, ctx| {
            johnson_root(
                run.graph,
                root,
                run.opts,
                scratch,
                run.sink,
                run.metrics,
                ctx.worker_id(),
                |search| split(run, search, scope, ctx, policy),
            )
        },
    )
}

/// Fine-grained parallel Johnson enumeration of all (window-constrained)
/// simple cycles.
pub fn fine_johnson_simple<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &SimpleCycleOptions,
    sink: &S,
    pool: &ThreadPool,
) -> RunStats {
    run_fine(graph, opts, sink, pool, |run, ctx| {
        run.workers.wants_split(ctx)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{CollectingSink, CountingSink};
    use crate::seq::johnson::johnson_simple;
    use pce_graph::generators::{self, RandomTemporalConfig};

    #[test]
    fn matches_sequential_on_small_graphs() {
        for n in 2..=9 {
            let g = generators::fig4a_exponential_cycles(n);
            let sink = CountingSink::new();
            fine_johnson_simple(
                &g,
                &SimpleCycleOptions::unconstrained(),
                &sink,
                &ThreadPool::new(4),
            );
            assert_eq!(sink.count(), generators::fig4a_cycle_count(n), "n={n}");
        }
    }

    #[test]
    fn matches_sequential_on_random_graphs() {
        for seed in 0..6 {
            let g = generators::uniform_temporal(RandomTemporalConfig {
                num_vertices: 16,
                num_edges: 70,
                time_span: 50,
                seed: 900 + seed,
            });
            let opts = SimpleCycleOptions::with_window(25);
            let seq = CollectingSink::new();
            johnson_simple(&g, &opts, &seq);
            let par = CollectingSink::new();
            fine_johnson_simple(&g, &opts, &par, &ThreadPool::new(4));
            assert_eq!(
                seq.canonical_cycles(),
                par.canonical_cycles(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn results_independent_of_thread_count() {
        let g = generators::power_law_temporal(RandomTemporalConfig {
            num_vertices: 50,
            num_edges: 160,
            time_span: 120,
            seed: 55,
        });
        let opts = SimpleCycleOptions::with_window(18);
        let reference = CollectingSink::new();
        johnson_simple(&g, &opts, &reference);
        for threads in [1, 2, 4, 8] {
            let sink = CollectingSink::new();
            fine_johnson_simple(&g, &opts, &sink, &ThreadPool::new(threads));
            assert_eq!(
                reference.canonical_cycles(),
                sink.canonical_cycles(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn max_len_constraint_matches_sequential() {
        let g = generators::complete_digraph(5);
        for max_len in 2..=4 {
            let opts = SimpleCycleOptions::unconstrained().max_len(max_len);
            let seq = CountingSink::new();
            johnson_simple(&g, &opts, &seq);
            let par = CountingSink::new();
            fine_johnson_simple(&g, &opts, &par, &ThreadPool::new(3));
            assert_eq!(seq.count(), par.count(), "max_len={max_len}");
        }
    }

    #[test]
    fn stress_with_many_threads_and_tiny_tasks() {
        // Many tiny rooted searches with aggressive splitting opportunities:
        // checks that the termination protocol and the copy-on-split state
        // reconstruction never lose or duplicate cycles.
        let g = generators::uniform_temporal(RandomTemporalConfig {
            num_vertices: 30,
            num_edges: 130,
            time_span: 70,
            seed: 321,
        });
        let opts = SimpleCycleOptions::with_window(14);
        let reference = CollectingSink::new();
        johnson_simple(&g, &opts, &reference);
        for _ in 0..3 {
            let sink = CollectingSink::new();
            fine_johnson_simple(&g, &opts, &sink, &ThreadPool::new(8));
            assert_eq!(reference.canonical_cycles(), sink.canonical_cycles());
        }
    }

    #[test]
    fn forced_splits_at_two_threads_match_sequential() {
        // Splitting before every descent runs the split path as often as it
        // can go: the copy, the receiver's truncation with its unblocking,
        // and the owner's stolen frames. The cycles stay the sequential
        // search's, with blocking and without (under a length bound).
        let g = generators::uniform_temporal(RandomTemporalConfig {
            num_vertices: 16,
            num_edges: 90,
            time_span: 50,
            seed: 77,
        });
        let window = SimpleCycleOptions::with_window(25);
        for opts in [window, window.max_len(4)] {
            let seq = CollectingSink::new();
            johnson_simple(&g, &opts, &seq);
            let par = CollectingSink::new();
            let stats = run_fine(&g, &opts, &par, &ThreadPool::new(2), |_, _| true);
            assert_eq!(seq.canonical_cycles(), par.canonical_cycles());
            assert!(stats.work.total_copies() > 0, "no split ran");
        }
        let g = generators::fig4a_exponential_cycles(9);
        let sink = CountingSink::new();
        let opts = SimpleCycleOptions::unconstrained();
        run_fine(&g, &opts, &sink, &ThreadPool::new(2), |_, _| true);
        assert_eq!(sink.count(), generators::fig4a_cycle_count(9));
    }

    #[test]
    fn acyclic_graph_terminates_quickly() {
        let g = generators::directed_path(50);
        let sink = CountingSink::new();
        let stats = fine_johnson_simple(
            &g,
            &SimpleCycleOptions::unconstrained(),
            &sink,
            &ThreadPool::new(4),
        );
        assert_eq!(stats.cycles, 0);
    }
}
