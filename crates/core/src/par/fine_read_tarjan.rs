//! The fine-grained parallel Read-Tarjan algorithm (§6).
//!
//! A Read-Tarjan recursive call receives copies of the current path and of
//! its parent's blocked set and never communicates anything back, so any
//! pending call can run on any worker, in any order. Workers claim root edges
//! dynamically and run each rooted search on the sequential driver's loop
//! over pending calls (`run_calls`). Work moves only on demand: when a call
//! pushes a child and the pool reports an idle worker that no earlier
//! hand-off is still waiting for (the policy of the `split` module), the
//! oldest pending call — the shallowest, with the largest subtree — goes to
//! one new task. The worker that runs it recomputes the root's cycle union in
//! its own workspace, unless the workspace still holds it; that pass is not
//! counted again, so roots and union members stay the sequential search's.
//!
//! Because the pruning state of the sequential algorithm is already private to
//! each call, the parallel version performs the same `O((n+e)(c+1))` work as
//! the sequential one: it is *work efficient* (Theorem 6.1) as well as
//! scalable (Theorem 6.2). Edge visits, recursive calls and copies equal the
//! sequential search's at every thread count.

use super::split::{SimpleRun, WorkerState};
use crate::cycle::CycleSink;
use crate::metrics::RunStats;
use crate::options::SimpleCycleOptions;
use crate::seq::read_tarjan::{read_tarjan_root, run_calls, RtCallState, RtContext};
use crate::seq::RootScratch;
use crate::Algorithm;
use pce_graph::{EdgeId, TemporalGraph};
use pce_sched::{Scope, ThreadPool, WorkerCtx};
use std::collections::VecDeque;

/// Moves the oldest pending call of `root`'s search to a new task when the
/// split policy sees an idle worker. The call already owns its copies
/// (counted when it was spawned), so the hand-off copies nothing.
fn hand_off<'scope, S: CycleSink>(
    run: &'scope SimpleRun<'_, S>,
    root: EdgeId,
    pending: &mut VecDeque<RtCallState>,
    scope: &Scope<'scope>,
    ctx: &WorkerCtx<'_>,
) {
    if !run.workers.wants_split(ctx) {
        return;
    }
    let call = pending.pop_front().expect("a child was just pushed");
    run.spawn_split(scope, ctx, move |state, scope, ctx| {
        resume(run, state, root, call, scope, ctx)
    });
}

/// Runs a handed-off call of `root` and its descendants on this worker's
/// state, recomputing the root's union unless the workspace holds it.
fn resume<'scope, S: CycleSink>(
    run: &'scope SimpleRun<'_, S>,
    state: &mut WorkerState,
    root: EdgeId,
    call: RtCallState,
    scope: &Scope<'scope>,
    ctx: &WorkerCtx<'_>,
) {
    let window = run.window(root);
    state.hold_union(run.graph, root, window);
    let RootScratch { union, rt, .. } = &mut state.scratch;
    let rt_ctx = RtContext {
        graph: run.graph,
        sink: run.sink,
        metrics: run.metrics,
        opts: run.opts,
        union,
        root,
        v0: run.graph.edge(root).src,
        window,
    };
    run_calls(&rt_ctx, rt, ctx.worker_id(), call, |pending| {
        hand_off(run, root, pending, scope, ctx)
    });
}

/// Fine-grained parallel Read-Tarjan enumeration of all (window-constrained)
/// simple cycles.
pub fn fine_read_tarjan_simple<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &SimpleCycleOptions,
    sink: &S,
    pool: &ThreadPool,
) -> RunStats {
    SimpleRun::execute(
        graph,
        opts,
        sink,
        pool,
        Algorithm::ReadTarjan,
        |run, root, scratch, scope, ctx| {
            read_tarjan_root(
                run.graph,
                root,
                run.opts,
                scratch,
                run.sink,
                run.metrics,
                ctx.worker_id(),
                |pending| hand_off(run, root, pending, scope, ctx),
            )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{CollectingSink, CountingSink};
    use crate::seq::johnson::johnson_simple;
    use crate::seq::read_tarjan::read_tarjan_simple;
    use pce_graph::generators::{self, RandomTemporalConfig};

    #[test]
    fn matches_sequential_read_tarjan() {
        let g = generators::uniform_temporal(RandomTemporalConfig {
            num_vertices: 18,
            num_edges: 80,
            time_span: 50,
            seed: 11,
        });
        let opts = SimpleCycleOptions::with_window(30);
        let seq = CollectingSink::new();
        read_tarjan_simple(&g, &opts, &seq);
        let par = CollectingSink::new();
        fine_read_tarjan_simple(&g, &opts, &par, &ThreadPool::new(4));
        assert_eq!(seq.canonical_cycles(), par.canonical_cycles());
    }

    #[test]
    fn results_are_independent_of_thread_count() {
        let g = generators::power_law_temporal(RandomTemporalConfig {
            num_vertices: 40,
            num_edges: 140,
            time_span: 90,
            seed: 13,
        });
        let opts = SimpleCycleOptions::with_window(16);
        let reference = CollectingSink::new();
        johnson_simple(&g, &opts, &reference);
        for threads in [1, 2, 4, 8] {
            let sink = CollectingSink::new();
            fine_read_tarjan_simple(&g, &opts, &sink, &ThreadPool::new(threads));
            assert_eq!(
                reference.canonical_cycles(),
                sink.canonical_cycles(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn max_len_constraint_respected() {
        let g = generators::complete_digraph(5);
        let opts = SimpleCycleOptions::unconstrained().max_len(3);
        let seq = CountingSink::new();
        read_tarjan_simple(&g, &opts, &seq);
        let par = CountingSink::new();
        fine_read_tarjan_simple(&g, &opts, &par, &ThreadPool::new(3));
        assert_eq!(seq.count(), par.count());
    }

    #[test]
    fn empty_and_acyclic_graphs() {
        let g = generators::directed_path(20);
        let sink = CountingSink::new();
        let stats = fine_read_tarjan_simple(
            &g,
            &SimpleCycleOptions::unconstrained(),
            &sink,
            &ThreadPool::new(2),
        );
        assert_eq!(stats.cycles, 0);
    }
}
