//! Fine-grained parallel temporal-cycle enumeration (§7).
//!
//! The temporal searches are built on the scalable per-root preprocessing
//! (cycle-union + static closing times), which makes their per-call pruning
//! state read-only: a recursive call only needs its path, so any unexplored
//! branch can run as an independent task that carries a private copy of the
//! path prefix — the temporal analogue of the fine-grained decomposition of
//! §5/§6.
//!
//! Tasks are split off **on demand** (copy-on-steal). The worker that claims
//! a root runs the rooted search in place, depth-first, on its own reusable
//! buffers and an explicit frame stack — one frame per recursion level,
//! holding the level's not yet scanned out-edges — so a recursive call
//! allocates nothing and spawns nothing. Before each descent the worker asks
//! the pool whether a worker is idle ([`WorkerCtx::idle_workers`]) that no
//! earlier split is still waiting for. Only then does it split: the first
//! half of the shallowest frame's unscanned edges (the largest unexplored
//! subtrees) goes to one new task with a copy of the path prefix, and the
//! worker that runs it recomputes the root's union in its own workspace. A
//! lone busy worker never copies; a worker that falls idle is handed work at
//! the busy worker's next descent.
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

use crate::cycle::{CycleSink, HaltingSink};
use crate::metrics::{RunStats, WorkMetrics};
use crate::options::TemporalCycleOptions;
use crate::seq::RootScratch;
use crate::util::FxHashSet;
use crate::{Algorithm, Granularity};
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use pce_graph::reach::CycleUnionWorkspace;
use pce_graph::{AdjEntry, EdgeId, TemporalGraph, TimeWindow, Timestamp, VertexId};
use pce_sched::{DynamicCounter, Scope, ThreadPool, WorkerCtx};
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// Split tasks spawned but not started yet: an idle worker is only worth
    /// a new split while no earlier one is waiting for it.
    waiting: AtomicUsize,
    /// One search state per worker. A worker runs one task at a time, so its
    /// slot is never contended. Padded so that one worker's frame and path
    /// writes do not invalidate the cache line holding a neighbour's state.
    workers: Vec<CachePadded<Mutex<WorkerState<'g>>>>,
}

/// A worker's reusable search state.
struct WorkerState<'g> {
    buf: Buffers<'g>,
    /// The cycle union of the root being searched.
    scratch: RootScratch,
}

/// The path of the search a worker runs and one frame per recursion level.
#[derive(Default)]
struct Buffers<'g> {
    /// Path length when the search was loaded: `frames[i]` extends a path of
    /// `base + i` vertices.
    base: usize,
    /// The not yet scanned out-edges of each level, shallowest first.
    frames: Vec<&'g [AdjEntry]>,
    path: Vec<VertexId>,
    path_edges: Vec<EdgeId>,
    on_path: FxHashSet<VertexId>,
    /// Read-Tarjan-style probe stack and its visited `(vertex, arrival)` set.
    probe_stack: Vec<(VertexId, Timestamp)>,
    probe_seen: FxHashSet<(VertexId, Timestamp)>,
}

impl<'g> Buffers<'g> {
    /// Loads a search: the path so far and the unscanned out-edges of its tip.
    fn load(&mut self, path: &[VertexId], path_edges: &[EdgeId], edges: &'g [AdjEntry]) {
        self.base = path.len();
        self.frames.clear();
        self.frames.push(edges);
        self.path.clear();
        self.path.extend_from_slice(path);
        self.path_edges.clear();
        self.path_edges.extend_from_slice(path_edges);
        self.on_path.clear();
        self.on_path.extend(path.iter().copied());
    }
}

/// The read-only facts of one rooted search.
struct Rooted<'u> {
    root: EdgeId,
    v0: VertexId,
    t_end: Timestamp,
    union: &'u CycleUnionWorkspace,
}

/// Unscanned edges of one frame of a rooted search, split off for an idle
/// worker together with a copy of the path up to that frame.
struct Split<'g> {
    root: EdgeId,
    path: Vec<VertexId>,
    path_edges: Vec<EdgeId>,
    edges: &'g [AdjEntry],
    /// Worker that split it off; running it elsewhere is a steal.
    spawned_by: usize,
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
        let mut state = self.workers[worker].lock();
        let WorkerState { buf, scratch } = &mut *state;
        while let Some(root) = counter.next() {
            if self.sink.stopped() {
                break;
            }
            let root = root as EdgeId;
            let e0 = graph.edge(root);
            if e0.src == e0.dst {
                continue;
            }
            // Counted before the union pass, as the sequential search does.
            self.metrics.root_processed(worker);
            let start = Instant::now();
            if scratch
                .union
                .compute_temporal(graph, root, self.opts.window_delta)
            {
                let rooted = self.rooted(root, &scratch.union);
                let window = TimeWindow::new(e0.ts.saturating_add(1), rooted.t_end);
                buf.load(
                    &[e0.src, e0.dst],
                    &[root],
                    graph.out_edges_in_window(e0.dst, window),
                );
                self.metrics.recursive_call(worker);
                self.search(buf, &rooted, scope, ctx);
            }
            self.metrics.add_busy(worker, start.elapsed());
        }
    }

    /// Runs a split-off part of a rooted search to completion. The worker
    /// recomputes the root's union in its own workspace: one union pass per
    /// split, where the searcher itself would pay a hash lookup per edge on a
    /// shared snapshot.
    fn run_split<'scope>(
        &'scope self,
        task: Split<'g>,
        scope: &Scope<'scope>,
        ctx: &WorkerCtx<'_>,
    ) {
        self.waiting.fetch_sub(1, Ordering::Relaxed);
        // A task scheduled after the sink stopped the run returns immediately
        // (and splits nothing), so the scope drains quickly.
        if self.sink.stopped() {
            return;
        }
        let worker = ctx.worker_id();
        if worker != task.spawned_by {
            // The pool's deques moved the task; record the steal where it runs.
            self.metrics.steal_event(worker);
        }
        let start = Instant::now();
        let mut state = self.workers[worker].lock();
        let WorkerState { buf, scratch } = &mut *state;
        let nonempty =
            scratch
                .union
                .compute_temporal(self.graph, task.root, self.opts.window_delta);
        debug_assert!(nonempty, "a split root has a non-empty union");
        buf.load(&task.path, &task.path_edges, task.edges);
        self.search(buf, &self.rooted(task.root, &scratch.union), scope, ctx);
        drop(state);
        self.metrics.add_busy(worker, start.elapsed());
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

    /// Depth-first search over the frames loaded in `buf`, in the sequential
    /// order; splits work off for idle workers before descending. Winds down
    /// early once the sink stops the run.
    fn search<'scope>(
        &'scope self,
        buf: &mut Buffers<'g>,
        rooted: &Rooted<'_>,
        scope: &Scope<'scope>,
        ctx: &WorkerCtx<'_>,
    ) {
        let worker = ctx.worker_id();
        let (graph, union) = (self.graph, rooted.union);
        while let Some(frame) = buf.frames.last_mut() {
            let edges = *frame;
            let Some((&entry, rest)) = edges.split_first() else {
                buf.frames.pop();
                if !buf.frames.is_empty() {
                    // Backtrack over the exhausted level's vertex.
                    let v = buf
                        .path
                        .pop()
                        .expect("a deeper frame has its vertex on the path");
                    buf.path_edges.pop();
                    buf.on_path.remove(&v);
                }
                continue;
            };
            *frame = rest;
            if self.sink.stopped() {
                return;
            }
            self.metrics.edge_visit(worker);
            let w = entry.neighbor;
            if w == rooted.v0 {
                if self.opts.len_ok(buf.path_edges.len() + 1) {
                    buf.path_edges.push(entry.edge);
                    self.sink.push(&buf.path, &buf.path_edges);
                    buf.path_edges.pop();
                }
                continue;
            }
            if buf.on_path.contains(&w)
                || !union.in_union(w)
                || !union.can_close_after(w, entry.ts)
                || !self.opts.len_ok(buf.path_edges.len() + 2)
            {
                continue;
            }
            buf.on_path.insert(w);
            if self.style == TemporalStyle::ReadTarjan
                && !self.has_completion(buf, worker, rooted, w, entry.ts)
            {
                buf.on_path.remove(&w);
                continue;
            }
            let idle = ctx.idle_workers();
            if idle > 0 && idle > self.waiting.load(Ordering::Relaxed) {
                self.split(buf, rooted.root, scope, ctx);
            }
            self.metrics.recursive_call(worker);
            buf.path.push(w);
            buf.path_edges.push(entry.edge);
            let window = TimeWindow::new(entry.ts.saturating_add(1), rooted.t_end);
            buf.frames.push(graph.out_edges_in_window(w, window));
        }
    }

    /// Hands the first half of the shallowest frame that still has unscanned
    /// edges to a new task. Shallow frames hold the largest subtrees, and
    /// within a frame the earliest edges leave the most of the window to
    /// extend in.
    fn split<'scope>(
        &'scope self,
        buf: &mut Buffers<'g>,
        root: EdgeId,
        scope: &Scope<'scope>,
        ctx: &WorkerCtx<'_>,
    ) {
        let Some(depth) = buf.frames.iter().position(|f| !f.is_empty()) else {
            return;
        };
        let frame = buf.frames[depth];
        let (give, keep) = frame.split_at(frame.len().div_ceil(2));
        buf.frames[depth] = keep;
        let prefix = buf.base + depth;
        let worker = ctx.worker_id();
        self.metrics.copy_event(worker);
        self.waiting.fetch_add(1, Ordering::Relaxed);
        let task = Split {
            root,
            path: buf.path[..prefix].to_vec(),
            path_edges: buf.path_edges[..prefix - 1].to_vec(),
            edges: give,
            spawned_by: worker,
        };
        ctx.spawn(scope, move |scope, ctx| self.run_split(task, scope, ctx));
    }

    /// Depth-first probe: does a temporal path from `start` (reached at
    /// `arrival` and already on the path) back to the root tail exist that
    /// avoids the path? Uses the static closing-time bound for pruning;
    /// visited dead ends are memoised for the duration of the probe.
    fn has_completion(
        &self,
        buf: &mut Buffers<'g>,
        worker: usize,
        rooted: &Rooted<'_>,
        start: VertexId,
        arrival: Timestamp,
    ) -> bool {
        let Buffers {
            on_path,
            probe_stack: stack,
            probe_seen: seen,
            ..
        } = buf;
        stack.clear();
        seen.clear();
        stack.push((start, arrival));
        seen.insert((start, arrival));
        while let Some((v, t)) = stack.pop() {
            let window = TimeWindow::new(t.saturating_add(1), rooted.t_end);
            for &entry in self.graph.out_edges_in_window(v, window) {
                self.metrics.edge_visit(worker);
                let w = entry.neighbor;
                if w == rooted.v0 {
                    return true;
                }
                if on_path.contains(&w)
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
        waiting: AtomicUsize::new(0),
        workers: (0..threads)
            .map(|_| {
                CachePadded::new(Mutex::new(WorkerState {
                    buf: Buffers::default(),
                    scratch: RootScratch::new(graph.num_vertices()),
                }))
            })
            .collect(),
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
