//! Fine-grained parallel temporal-cycle enumeration (§7).
//!
//! The temporal searches are built on the scalable per-root preprocessing
//! (cycle-union + static closing times), which makes their per-call pruning
//! state read-only: a recursive call only needs its path, so any unexplored
//! branch can run as an independent task that carries a private copy of the
//! path prefix — the temporal analogue of the fine-grained decomposition of
//! §5/§6.
//!
//! The worker that claims a root runs the rooted search in place on the
//! split skeleton it shares with the streaming delta search, and splits
//! branches off only when the pool reports an idle worker; the worker that
//! takes a split recomputes the root's union in its own workspace, unless
//! the workspace still holds it. This module keeps only the extension step
//! and the Read-Tarjan-style probe.
//!
//! Two disciplines are provided, mirroring the two algorithm families the
//! paper evaluates on temporal graphs:
//!
//! * [`fine_temporal_johnson`] — descend into every admissible branch (the
//!   Johnson-style decomposition: claim first, discover dead ends as you go).
//!   Edge visits, recursive calls and roots equal the sequential search's.
//! * [`fine_temporal_read_tarjan`] — before descending into a branch, a
//!   depth-first probe verifies that the branch can still be completed into a
//!   cycle (the Read-Tarjan-style "path extension must exist" discipline).
//!   This performs more edge visits — the paper reports ~47% more for the
//!   Read-Tarjan family — but never explores a branch that cannot produce a
//!   cycle.

use super::split::{self, Buffers, Driver, Frame, Split, Workers};
use crate::cycle::{CycleSink, HaltingSink};
use crate::metrics::{RunStats, WorkMetrics};
use crate::options::TemporalCycleOptions;
use crate::seq::RootScratch;
use crate::util::{FxHashSet, VertexMarks};
use crate::{Algorithm, Granularity};
use pce_graph::reach::CycleUnionWorkspace;
use pce_graph::{EdgeId, TemporalGraph, TimeWindow, Timestamp, VertexId};
use pce_sched::{DynamicCounter, Scope, ThreadPool, WorkerCtx};
use std::time::Instant;

/// Which fine-grained discipline to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemporalStyle {
    /// Descend into every admissible branch (Johnson-style).
    Johnson,
    /// Probe for a feasible completion before descending (Read-Tarjan-style).
    ReadTarjan,
}

struct Shared<'g, S> {
    graph: &'g TemporalGraph,
    sink: &'g HaltingSink<'g, S>,
    metrics: &'g WorkMetrics,
    opts: &'g TemporalCycleOptions,
    style: TemporalStyle,
    workers: Workers<WorkerState<'g>>,
}

/// A worker's reusable search state.
struct WorkerState<'g> {
    buf: Buffers<'g>,
    /// The cycle union of the root being searched.
    scratch: RootScratch,
    /// The root whose union `scratch` holds: a split of that root resumes
    /// without a pass.
    union_root: Option<EdgeId>,
    probe: Probe,
}

/// Read-Tarjan-style probe stack and its visited `(vertex, arrival)` set.
#[derive(Default)]
struct Probe {
    stack: Vec<(VertexId, Timestamp)>,
    seen: FxHashSet<(VertexId, Timestamp)>,
}

/// The read-only facts of one rooted search.
struct Rooted<'u> {
    root: EdgeId,
    v0: VertexId,
    t_end: Timestamp,
    union: &'u CycleUnionWorkspace,
}

impl<'g, S: CycleSink> Shared<'g, S> {
    /// Claims roots until none are left and runs each rooted search in place
    /// on this worker's state.
    fn claim_roots<'scope>(
        &'scope self,
        counter: &DynamicCounter,
        scope: &Scope<'scope>,
        ctx: &WorkerCtx<'_>,
    ) {
        let worker = ctx.worker_id();
        let graph = self.graph;
        let mut state = self.workers.lock(worker);
        let WorkerState {
            buf,
            scratch,
            union_root,
            probe,
        } = &mut *state;
        while let Some(root) = counter.next() {
            if self.sink.stopped() {
                break;
            }
            let root = root as EdgeId;
            let e0 = graph.edge(root);
            if e0.src == e0.dst {
                continue;
            }
            let start = Instant::now();
            *union_root = Some(root);
            if self
                .metrics
                .counted_union_pass(worker, &mut scratch.union, |u| {
                    u.compute_temporal(graph, root, self.opts.window_delta)
                })
            {
                let rooted = self.rooted(root, &scratch.union);
                let window = TimeWindow::new(e0.ts.saturating_add(1), rooted.t_end);
                buf.load(
                    &[e0.src, e0.dst],
                    &[root],
                    Frame::new(graph.out_edges_in_window(e0.dst, window)),
                );
                self.metrics.recursive_call(worker);
                self.search(buf, probe, &rooted, scope, ctx);
            }
            self.metrics.add_busy(worker, start.elapsed());
        }
    }

    fn rooted<'u>(&self, root: EdgeId, union: &'u CycleUnionWorkspace) -> Rooted<'u> {
        let e0 = self.graph.edge(root);
        Rooted {
            root,
            v0: e0.src,
            t_end: e0.ts.saturating_add(self.opts.window_delta),
            union,
        }
    }

    /// Runs the search loaded in `buf` on the split skeleton with this
    /// discipline's extension step.
    fn search<'scope>(
        &'scope self,
        buf: &mut Buffers<'g>,
        probe: &mut Probe,
        rooted: &Rooted<'_>,
        scope: &Scope<'scope>,
        ctx: &WorkerCtx<'_>,
    ) {
        let worker = ctx.worker_id();
        let (graph, union) = (self.graph, rooted.union);
        let split = Some((scope, ctx));
        let mut probe_visits = 0;
        split::search(self, buf, rooted.root, worker, split, |buf, _, entry| {
            let w = entry.neighbor;
            if w == rooted.v0 {
                if self.opts.len_ok(buf.path_edges.len() + 1) {
                    buf.path_edges.push(entry.edge);
                    self.sink.push(&buf.path, &buf.path_edges);
                    buf.path_edges.pop();
                }
                return None;
            }
            if buf.on_path.contains(w)
                || !union.in_union(w)
                || !union.can_close_after(w, entry.ts)
                || !self.opts.len_ok(buf.path_edges.len() + 2)
                || (self.style == TemporalStyle::ReadTarjan
                    && !self.has_completion(
                        &buf.on_path,
                        probe,
                        &mut probe_visits,
                        rooted,
                        w,
                        entry.ts,
                    ))
            {
                return None;
            }
            let window = TimeWindow::new(entry.ts.saturating_add(1), rooted.t_end);
            Some(Frame::new(graph.out_edges_in_window(w, window)))
        });
        self.metrics.add_search_work(worker, probe_visits, 0);
    }

    /// Depth-first probe: does a temporal path from `start` (reached at
    /// `arrival`) back to the root tail exist that avoids the path and
    /// `start` itself? Uses the static closing-time bound for pruning;
    /// visited dead ends are memoised for the duration of the probe. Adds
    /// its edge visits to `visits`.
    fn has_completion(
        &self,
        on_path: &VertexMarks,
        probe: &mut Probe,
        visits: &mut u64,
        rooted: &Rooted<'_>,
        start: VertexId,
        arrival: Timestamp,
    ) -> bool {
        let Probe { stack, seen } = probe;
        stack.clear();
        seen.clear();
        stack.push((start, arrival));
        seen.insert((start, arrival));
        while let Some((v, t)) = stack.pop() {
            let window = TimeWindow::new(t.saturating_add(1), rooted.t_end);
            for &entry in self.graph.out_edges_in_window(v, window) {
                *visits += 1;
                let w = entry.neighbor;
                if w == rooted.v0 {
                    return true;
                }
                if w == start
                    || on_path.contains(w)
                    || !rooted.union.in_union(w)
                    || !rooted.union.can_close_after(w, entry.ts)
                {
                    continue;
                }
                if seen.insert((w, entry.ts)) {
                    stack.push((w, entry.ts));
                }
            }
        }
        false
    }
}

impl<'g, S: CycleSink> Driver<'g> for Shared<'g, S> {
    type State = WorkerState<'g>;

    fn workers(&self) -> &Workers<WorkerState<'g>> {
        &self.workers
    }

    fn metrics(&self) -> &WorkMetrics {
        self.metrics
    }

    fn stopped(&self) -> bool {
        self.sink.stopped()
    }

    /// Recomputes the root's union in this worker's workspace unless it
    /// already holds it: at most one union pass per split, where the
    /// searcher itself would pay a hash lookup per edge on a shared
    /// snapshot.
    fn resume<'scope>(
        &'scope self,
        state: &mut WorkerState<'g>,
        task: Split<'g>,
        scope: &Scope<'scope>,
        ctx: &WorkerCtx<'_>,
    ) where
        'g: 'scope,
    {
        let WorkerState {
            buf,
            scratch,
            union_root,
            probe,
        } = state;
        if *union_root != Some(task.root) {
            *union_root = Some(task.root);
            let nonempty =
                scratch
                    .union
                    .compute_temporal(self.graph, task.root, self.opts.window_delta);
            debug_assert!(nonempty, "a split root has a non-empty union");
        }
        buf.load(&task.path, &task.path_edges, task.frame);
        self.search(
            buf,
            probe,
            &self.rooted(task.root, &scratch.union),
            scope,
            ctx,
        );
    }
}

fn run_fine_temporal<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &TemporalCycleOptions,
    sink: &S,
    pool: &ThreadPool,
    style: TemporalStyle,
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
        style,
        workers: Workers::new((0..threads).map(|_| {
            let mut scratch = RootScratch::new(graph.num_vertices());
            WorkerState {
                buf: std::mem::take(&mut scratch.search).recycle(),
                scratch,
                union_root: None,
                probe: Probe::default(),
            }
        })),
    };

    pool.scope(|scope| {
        for _ in 0..threads {
            let counter = &counter;
            let shared = &shared;
            scope.spawn(move |scope, ctx| shared.claim_roots(counter, scope, ctx));
        }
    });

    let algorithm = match style {
        TemporalStyle::Johnson => Algorithm::Johnson,
        TemporalStyle::ReadTarjan => Algorithm::ReadTarjan,
    };
    RunStats {
        cycles: sink.count(),
        wall_secs: start.elapsed().as_secs_f64(),
        work: metrics.snapshot(),
        threads,
        ..RunStats::default()
    }
    .tagged(algorithm, Granularity::FineGrained)
}

/// Fine-grained parallel temporal-cycle enumeration, Johnson-style
/// decomposition.
pub fn fine_temporal_johnson<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &TemporalCycleOptions,
    sink: &S,
    pool: &ThreadPool,
) -> RunStats {
    run_fine_temporal(graph, opts, sink, pool, TemporalStyle::Johnson)
}

/// Fine-grained parallel temporal-cycle enumeration, Read-Tarjan-style
/// decomposition (probe before descending).
pub fn fine_temporal_read_tarjan<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &TemporalCycleOptions,
    sink: &S,
    pool: &ThreadPool,
) -> RunStats {
    run_fine_temporal(graph, opts, sink, pool, TemporalStyle::ReadTarjan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{CollectingSink, CountingSink, FirstKSink};
    use crate::seq::temporal::temporal_simple;
    use pce_graph::generators::{self, RandomTemporalConfig, TransactionRingConfig};

    const STYLES: [TemporalStyle; 2] = [TemporalStyle::Johnson, TemporalStyle::ReadTarjan];

    /// The graphs of the differential table, each with its window.
    fn cases() -> Vec<(&'static str, TemporalGraph, TemporalCycleOptions)> {
        let uniform = generators::uniform_temporal(RandomTemporalConfig {
            num_vertices: 25,
            num_edges: 160,
            time_span: 90,
            seed: 31,
        });
        let power_law = generators::power_law_temporal(RandomTemporalConfig {
            num_vertices: 40,
            num_edges: 220,
            time_span: 100,
            seed: 32,
        });
        let (rings, _) = generators::transaction_rings(TransactionRingConfig {
            num_accounts: 150,
            background_edges: 400,
            num_rings: 10,
            ring_len: (3, 5),
            time_span: 500_000,
            ring_span: 3_000,
            seed: 34,
        });
        let fig4a = generators::fig4a_exponential_cycles(16);
        let fig4a_window = TemporalCycleOptions::with_window(fig4a.time_span());
        vec![
            ("uniform", uniform, TemporalCycleOptions::with_window(40)),
            (
                "power_law",
                power_law,
                TemporalCycleOptions::with_window(50),
            ),
            ("rings", rings, TemporalCycleOptions::with_window(3_000)),
            ("fig4a", fig4a, fig4a_window),
        ]
    }

    #[test]
    fn differential_table_against_sequential() {
        for (name, g, opts) in cases() {
            let seq = CollectingSink::new();
            let seq_work = temporal_simple(&g, &opts, &seq).work;
            let expected = seq.canonical_cycles();
            assert!(expected.len() >= 2, "{name}: too few cycles to test");
            let seq_counters = (
                seq_work.total_edge_visits(),
                seq_work.total_recursive_calls(),
                seq_work.total_roots(),
            );
            for style in STYLES {
                let mut first_counters = None;
                // 8 workers on a small machine leave several idle at once:
                // splits then wait and run concurrently.
                for threads in [1, 2, 4, 8] {
                    let label = format!("{name} {style:?} threads={threads}");
                    let pool = ThreadPool::new(threads);
                    let sink = CollectingSink::new();
                    let work = run_fine_temporal(&g, &opts, &sink, &pool, style).work;
                    assert_eq!(sink.canonical_cycles(), expected, "{label}");
                    let counters = (
                        work.total_edge_visits(),
                        work.total_recursive_calls(),
                        work.total_roots(),
                    );
                    assert_eq!(counters.2, seq_counters.2, "{label}: roots");
                    match style {
                        TemporalStyle::Johnson => assert_eq!(counters, seq_counters, "{label}"),
                        TemporalStyle::ReadTarjan => {
                            assert_eq!(*first_counters.get_or_insert(counters), counters, "{label}")
                        }
                    }
                    if threads == 1 {
                        // A 1-worker pool is never idle mid-run: nothing splits.
                        assert_eq!(work.total_copies(), 0, "{label}");
                        assert_eq!(work.total_steals(), 0, "{label}");
                    } else {
                        let k = expected.len() / 2;
                        let first_k = FirstKSink::new(k);
                        run_fine_temporal(&g, &opts, &first_k, &pool, style);
                        let cycles = first_k.into_cycles();
                        assert_eq!(cycles.len(), k, "{label}: first-k");
                        for c in cycles {
                            assert!(expected.contains(&c.canonicalize()), "{label}: first-k");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn single_root_search_is_split_on_demand() {
        // Every cycle of Figure 4a hangs off the single root edge v0 → v1, so
        // only splitting spreads the search. n = 20 makes the search outlast
        // an OS time slice: at n = 16 it takes about a millisecond, and on a
        // loaded test runner the other workers are often not scheduled
        // before it ends. Deflaked like the fine Read-Tarjan spread test: on
        // one core the spread check is skipped, on a multicore it gets a few
        // attempts. The cycle count and the copy bound hold on every run.
        let n = 20;
        let g = generators::fig4a_exponential_cycles(n);
        let opts = TemporalCycleOptions::with_window(g.time_span());
        let single_core = pce_sched::available_parallelism() < 2;
        let attempts = if single_core { 1 } else { 5 };
        for style in STYLES {
            for threads in [2, 4] {
                let mut active = 0;
                for attempt in 0..attempts {
                    let label = format!("{style:?} threads={threads} attempt {attempt}");
                    let pool = ThreadPool::new(threads);
                    let sink = CountingSink::new();
                    let work = run_fine_temporal(&g, &opts, &sink, &pool, style).work;
                    assert_eq!(sink.count(), generators::fig4a_cycle_count(n), "{label}");
                    let calls = work.total_recursive_calls();
                    assert!(
                        work.total_copies() <= calls / 4,
                        "{label}: {} copies for {calls} calls",
                        work.total_copies()
                    );
                    active = work
                        .workers
                        .iter()
                        .filter(|w| w.recursive_calls > 0)
                        .count();
                    if active > 1 {
                        break;
                    }
                }
                assert!(
                    active > 1 || single_core,
                    "{style:?} threads={threads}: one worker ran every call in {attempts} runs"
                );
            }
        }
    }

    #[test]
    fn read_tarjan_style_visits_more_edges() {
        let g = generators::uniform_temporal(RandomTemporalConfig {
            num_vertices: 30,
            num_edges: 250,
            time_span: 60,
            seed: 33,
        });
        let opts = TemporalCycleOptions::with_window(40);
        let pool = ThreadPool::new(2);
        let a = CountingSink::new();
        let stats_j = fine_temporal_johnson(&g, &opts, &a, &pool);
        let b = CountingSink::new();
        let stats_rt = fine_temporal_read_tarjan(&g, &opts, &b, &pool);
        assert_eq!(a.count(), b.count());
        assert!(
            stats_rt.work.total_edge_visits() >= stats_j.work.total_edge_visits(),
            "probing discipline should not visit fewer edges"
        );
    }

    #[test]
    fn max_len_respected() {
        let g = generators::directed_cycle(6);
        let opts = TemporalCycleOptions::with_window(100).max_len(5);
        let sink = CountingSink::new();
        fine_temporal_johnson(&g, &opts, &sink, &ThreadPool::new(2));
        assert_eq!(sink.count(), 0);
        let opts = TemporalCycleOptions::with_window(100).max_len(6);
        let sink = CountingSink::new();
        fine_temporal_johnson(&g, &opts, &sink, &ThreadPool::new(2));
        assert_eq!(sink.count(), 1);
    }
}
