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

use super::split::Workers;
use crate::cycle::{CycleSink, HaltingSink};
use crate::metrics::{RunStats, WorkMetrics};
use crate::options::SimpleCycleOptions;
use crate::seq::read_tarjan::{read_tarjan_root, run_calls, RtCallState, RtContext};
use crate::seq::RootScratch;
use crate::{Algorithm, Granularity};
use pce_graph::{EdgeId, TemporalGraph, TimeWindow};
use pce_sched::{DynamicCounter, Scope, ThreadPool, WorkerCtx};
use std::collections::VecDeque;
use std::time::Instant;

struct Shared<'a, S> {
    graph: &'a TemporalGraph,
    sink: &'a HaltingSink<'a, S>,
    metrics: &'a WorkMetrics,
    opts: &'a SimpleCycleOptions,
    workers: Workers<WorkerState>,
}

/// A worker's scratch and the root whose union it holds: a handed-off call of
/// that root runs without a pass.
struct WorkerState {
    scratch: RootScratch,
    union_root: Option<EdgeId>,
}

impl<S: CycleSink> Shared<'_, S> {
    /// Claims roots until none are left and runs each rooted search on this
    /// worker's workspace, handing pending calls to idle workers.
    fn claim_roots<'scope>(
        &'scope self,
        counter: &DynamicCounter,
        scope: &Scope<'scope>,
        ctx: &WorkerCtx<'_>,
    ) {
        let worker = ctx.worker_id();
        let state = &mut *self.workers.lock(worker);
        while let Some(root) = counter.next() {
            if self.sink.stopped() {
                break;
            }
            let root = root as EdgeId;
            let start = Instant::now();
            state.union_root = Some(root);
            read_tarjan_root(
                self.graph,
                root,
                self.opts,
                &mut state.scratch,
                self.sink,
                self.metrics,
                worker,
                |pending| self.hand_off(root, pending, scope, ctx),
            );
            self.metrics.add_busy(worker, start.elapsed());
        }
    }

    /// Moves the oldest pending call of `root`'s search to a new task when
    /// the split policy sees an idle worker. The call already owns its copies
    /// (counted when it was spawned), so the hand-off copies nothing.
    fn hand_off<'scope>(
        &'scope self,
        root: EdgeId,
        pending: &mut VecDeque<RtCallState>,
        scope: &Scope<'scope>,
        ctx: &WorkerCtx<'_>,
    ) {
        if !self.workers.wants_split(ctx) {
            return;
        }
        let call = pending.pop_front().expect("a child was just pushed");
        self.workers.spawn_split(
            self.metrics,
            || self.sink.stopped(),
            scope,
            ctx,
            move |state, scope, ctx| self.resume(state, root, call, scope, ctx),
        );
    }

    /// Runs a handed-off call of `root` and its descendants on this worker's
    /// state, recomputing the root's union unless the workspace holds it.
    fn resume<'scope>(
        &'scope self,
        state: &mut WorkerState,
        root: EdgeId,
        call: RtCallState,
        scope: &Scope<'scope>,
        ctx: &WorkerCtx<'_>,
    ) {
        let e0 = self.graph.edge(root);
        let window = TimeWindow::from_start(e0.ts, self.opts.effective_delta());
        let RootScratch { union, rt, .. } = &mut state.scratch;
        if state.union_root != Some(root) {
            state.union_root = Some(root);
            let nonempty = union.compute_simple(self.graph, root, window);
            debug_assert!(nonempty, "a handed-off root has a non-empty union");
        }
        let rt_ctx = RtContext {
            graph: self.graph,
            sink: self.sink,
            metrics: self.metrics,
            opts: self.opts,
            union,
            root,
            v0: e0.src,
            window,
        };
        run_calls(&rt_ctx, rt, ctx.worker_id(), call, |pending| {
            self.hand_off(root, pending, scope, ctx)
        });
    }
}

/// Fine-grained parallel Read-Tarjan enumeration of all (window-constrained)
/// simple cycles.
pub fn fine_read_tarjan_simple<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &SimpleCycleOptions,
    sink: &S,
    pool: &ThreadPool,
) -> RunStats {
    let threads = pool.num_threads();
    let metrics = WorkMetrics::new(threads);
    let start = Instant::now();
    let counter = DynamicCounter::new(graph.num_edges(), 1);
    let sink = HaltingSink::new(sink);
    let shared = Shared {
        graph,
        sink: &sink,
        metrics: &metrics,
        opts,
        workers: Workers::new((0..threads).map(|_| WorkerState {
            scratch: RootScratch::new(graph.num_vertices()),
            union_root: None,
        })),
    };

    pool.scope(|scope| {
        for _ in 0..threads {
            let (shared, counter) = (&shared, &counter);
            scope.spawn(move |scope, ctx| shared.claim_roots(counter, scope, ctx));
        }
    });

    RunStats {
        cycles: sink.count(),
        wall_secs: start.elapsed().as_secs_f64(),
        work: metrics.snapshot(),
        threads,
        ..RunStats::default()
    }
    .tagged(Algorithm::ReadTarjan, Granularity::FineGrained)
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
