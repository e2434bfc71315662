//! The Johnson algorithm (§3.4): simple-cycle enumeration with blocked
//! vertices, unblock lists and recursive unblocking.
//!
//! A vertex is *blocked* when it is visited; after backtracking it stays
//! blocked unless a cycle was found in its subtree, in which case it (and,
//! transitively, everything recorded in its unblock list `Blist`) is
//! unblocked. This delayed unblocking is what bounds the work per discovered
//! cycle to `O(n+e)` and gives the overall `O((n+e)(c+1))` complexity.
//!
//! Every granularity runs the same search: `CIRCUIT` as an in-place loop
//! over an explicit stack of frames, on the running worker's scratch. The
//! path and its marks are the split skeleton's [`Buffers`]; the blocked set
//! is epoch-stamped [`VertexMarks`] and `Blist` is one list per vertex, valid
//! for the running search by another epoch stamp, so neither a frame nor an
//! edge allocates or hashes. Before each descent the search calls a split
//! hook: sequential and coarse-grained runs pass a no-op, and the
//! fine-grained driver ([`crate::par::fine_johnson`]) hands part of the
//! search to an idle worker through [`Search::split_off`].
//!
//! The work counters have one definition at every granularity: an edge
//! visit per scanned edge after the root, a recursive call per `CIRCUIT`
//! invocation (the root's included) and an unblock operation per vertex
//! unblocked. The root's own frame runs no closing unblock: it would change
//! nothing, because the next search starts a fresh epoch.
//!
//! When a maximum cycle length is configured, delayed blocking would be
//! unsound (a vertex may fail only because the remaining length budget was
//! too small), so the search transparently falls back to a pruned DFS that
//! relies on the cycle-union and on-path checks only.

use crate::cycle::{CycleSink, HaltingSink};
use crate::metrics::{RunStats, WorkMetrics};
use crate::options::SimpleCycleOptions;
use crate::par::split::Buffers;
use crate::seq::{handle_self_loop_root, timed_run, RootScratch};
use crate::util::VertexMarks;
use crate::{Algorithm, Granularity};
use pce_graph::reach::CycleUnionWorkspace;
use pce_graph::{AdjEntry, EdgeId, TemporalGraph, TimeWindow, VertexId};

/// A worker's Johnson state kept between searches: the blocked set `Blk`,
/// the unblock lists `Blist` and the allocation of the frame stack.
#[derive(Debug, Default)]
pub(crate) struct JohnsonMarks {
    blocked: VertexMarks,
    /// The vertices whose list in `blist` belongs to the running search.
    listed: VertexMarks,
    /// `blist[w]`: the blocked vertices to unblock when `w` is, each once;
    /// stale unless `listed` holds `w`. Sized by the first search, so a
    /// scratch that never runs Johnson keeps none.
    blist: Vec<Vec<VertexId>>,
    /// The pending vertices of an unblocking cascade.
    cascade: Vec<VertexId>,
    frames: Vec<Frame<'static>>,
}

impl JohnsonMarks {
    pub(crate) fn ensure_vertices(&mut self, n: usize) {
        self.blocked.ensure_vertices(n);
        self.listed.ensure_vertices(n);
    }

    /// Starts a search on a graph of `n` vertices, with nothing blocked.
    fn start(&mut self, n: usize) {
        self.blocked.clear();
        self.listed.clear();
        if self.blist.len() < n {
            self.blist.resize_with(n, Vec::new);
        }
    }

    /// `w`'s unblock list in the running search.
    fn list(&mut self, w: VertexId) -> &mut Vec<VertexId> {
        let list = &mut self.blist[w as usize];
        if !self.listed.contains(w) {
            self.listed.insert(w);
            list.clear();
        }
        list
    }

    /// The recursive unblocking procedure, as a loop: unblocks `v` and every
    /// blocked vertex listed under a vertex it unblocks. Returns how many
    /// vertices it unblocked.
    fn unblock(&mut self, v: VertexId) -> u64 {
        let mut unblocked = 0;
        self.cascade.push(v);
        while let Some(u) = self.cascade.pop() {
            if !self.blocked.contains(u) {
                continue;
            }
            self.blocked.remove(u);
            unblocked += 1;
            if self.listed.contains(u) {
                self.listed.remove(u);
                self.cascade.extend_from_slice(&self.blist[u as usize]);
            }
        }
        unblocked
    }

    #[cfg(test)]
    pub(crate) fn skip_to_epoch_wrap(&mut self, stale: u32) {
        self.blocked.skip_to_epoch_wrap(stale);
        self.listed.skip_to_epoch_wrap(stale);
    }

    #[cfg(test)]
    pub(crate) fn epochs(&self) -> [u32; 2] {
        [self.blocked.epoch(), self.listed.epoch()]
    }
}

/// One `CIRCUIT` call: its vertex and the out-edges of that vertex in the
/// root's window that it has not scanned yet.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame<'g> {
    vertex: VertexId,
    edges: &'g [AdjEntry],
    /// A cycle was found below this frame.
    found: bool,
    /// Part of `edges` went to another worker.
    stolen: bool,
}

impl<'g> Frame<'g> {
    fn new(vertex: VertexId, edges: &'g [AdjEntry]) -> Self {
        Self {
            vertex,
            edges,
            found: false,
            stolen: false,
        }
    }
}

/// An emptied frame stack, retyped for a graph borrowed for another
/// lifetime so that the scratch can keep its allocation between searches.
// `filter` cannot change the frames' lifetime; `filter_map` can. Collecting
// nothing from an owning iterator of the same layout reuses its allocation.
#[allow(clippy::unnecessary_filter_map)]
fn recycle<'h>(frames: Vec<Frame<'_>>) -> Vec<Frame<'h>> {
    frames.into_iter().filter_map(|_| None).collect()
}

/// Unscanned edges of one frame of a rooted search, split off for another
/// worker with a copy of the owner's `Π`, `Blk` and `Blist` (§5).
pub(crate) struct JohnsonSplit<'g> {
    pub(crate) root: EdgeId,
    /// The owner's whole path. The receiver keeps its first `keep` vertices,
    /// the path up to the frame, and unblocks the others.
    path: Vec<VertexId>,
    path_edges: Vec<EdgeId>,
    keep: usize,
    blocked: Vec<VertexId>,
    /// `(w, v)` for every `v` in `Blist[w]`.
    waiting: Vec<(VertexId, VertexId)>,
    frame: Frame<'g>,
}

/// A rooted Johnson search running in place on a worker's scratch.
pub(crate) struct Search<'s, 'g> {
    graph: &'g TemporalGraph,
    opts: &'s SimpleCycleOptions,
    union: &'s CycleUnionWorkspace,
    root: EdgeId,
    window: TimeWindow,
    /// Delayed blocking is only sound without a length constraint.
    use_blocking: bool,
    /// The path, its edges and its marks.
    buf: &'s mut Buffers<'static>,
    marks: &'s mut JohnsonMarks,
    /// Shallowest first: `frames[i]` is the call of `path[base - 1 + i]`.
    frames: Vec<Frame<'g>>,
    base: usize,
}

impl<'s, 'g> Search<'s, 'g> {
    /// Loads the search of `root` ending in `frame` after `path` (which ends
    /// at the frame's vertex), with nothing blocked yet. `scratch` holds the
    /// root's union.
    fn load(
        graph: &'g TemporalGraph,
        opts: &'s SimpleCycleOptions,
        root: EdgeId,
        scratch: &'s mut RootScratch,
        path: &[VertexId],
        path_edges: &[EdgeId],
        frame: Frame<'g>,
    ) -> Self {
        let RootScratch {
            union,
            search: buf,
            johnson: marks,
            ..
        } = scratch;
        buf.start(path, path_edges);
        marks.start(graph.num_vertices());
        let mut frames = recycle(std::mem::take(&mut marks.frames));
        frames.push(frame);
        Self {
            graph,
            opts,
            union,
            root,
            window: TimeWindow::from_start(graph.edge(root).ts, opts.effective_delta()),
            use_blocking: opts.max_len.is_none(),
            buf,
            marks,
            frames,
            base: path.len(),
        }
    }

    /// Runs the loaded search depth-first, in the sequential order, and winds
    /// down early once the sink stops the run. `split` may split part of the
    /// search off before each descent. `calls` counts the loaded frame's
    /// `CIRCUIT` call if no other worker did. Edge visits, calls and
    /// unblocks are counted in locals and flushed into `worker`'s counters
    /// once, when the search returns.
    fn run<S: CycleSink>(
        mut self,
        sink: &HaltingSink<'_, S>,
        metrics: &WorkMetrics,
        worker: usize,
        mut calls: u64,
        mut unblocks: u64,
        mut split: impl FnMut(&mut Self),
    ) {
        let (graph, root, window) = (self.graph, self.root, self.window);
        let v0 = self.buf.path[0];
        let mut visits = 0;
        while let Some(frame) = self.frames.last_mut() {
            let Some((&entry, rest)) = frame.edges.split_first() else {
                let done = self.frames.pop().expect("a frame was just read");
                // The search's first frame closes nothing.
                let Some(parent) = self.frames.last_mut() else {
                    break;
                };
                let v = done.vertex;
                self.buf.path.pop();
                self.buf.path_edges.pop();
                self.buf.on_path.remove(v);
                // A frame that lost edges to another worker counts as having
                // found a cycle: unblocking too eagerly only costs pruning.
                let found = done.found || done.stolen;
                parent.found |= found;
                if !self.use_blocking {
                    continue;
                }
                if found {
                    unblocks += self.marks.unblock(v);
                } else {
                    // Delayed unblocking: v is unblocked with any of its
                    // admissible successors.
                    for &e in graph.out_edges_in_window(v, window) {
                        if e.edge > root && self.union.in_union(e.neighbor) {
                            let list = self.marks.list(e.neighbor);
                            if !list.contains(&v) {
                                list.push(v);
                            }
                        }
                    }
                }
                continue;
            };
            frame.edges = rest;
            if sink.stopped() {
                break;
            }
            if entry.edge <= root {
                continue;
            }
            visits += 1;
            let w = entry.neighbor;
            let len = self.buf.path_edges.len();
            if w == v0 {
                if self.opts.len_ok(len + 1) {
                    self.buf.path_edges.push(entry.edge);
                    sink.push(&self.buf.path, &self.buf.path_edges);
                    self.buf.path_edges.pop();
                    frame.found = true;
                }
                continue;
            }
            if !self.union.in_union(w)
                || self.buf.on_path.contains(w)
                || (self.use_blocking && self.marks.blocked.contains(w))
                || !self.opts.len_ok(len + 2)
            {
                continue;
            }
            split(&mut self);
            calls += 1;
            self.buf.path.push(w);
            self.buf.path_edges.push(entry.edge);
            self.buf.on_path.insert(w);
            if self.use_blocking {
                self.marks.blocked.insert(w);
            }
            self.frames
                .push(Frame::new(w, graph.out_edges_in_window(w, window)));
        }
        metrics.add_search_work(worker, visits, calls);
        metrics.unblock_ops(worker, unblocks);
        self.frames.clear();
        self.marks.frames = recycle(self.frames);
    }

    /// Splits the first half of the shallowest frame's unscanned edges off
    /// for another worker, or returns `None` when no frame has any left.
    /// Shallow frames hold the largest subtrees. The split carries copies of
    /// the path and of the blocked vertices with their unblock lists, and
    /// marks the frame stolen, so the owner unblocks its vertex on backtrack.
    pub(crate) fn split_off(&mut self) -> Option<JohnsonSplit<'g>> {
        let depth = self.frames.iter().position(|f| !f.edges.is_empty())?;
        let frame = &mut self.frames[depth];
        let (give, keep) = frame.edges.split_at(frame.edges.len().div_ceil(2));
        frame.edges = keep;
        frame.stolen = true;
        let (mut blocked, mut waiting) = (Vec::new(), Vec::new());
        if self.use_blocking {
            // Only union members are ever blocked, and only blocked
            // vertices have unblock lists, so the union's member list finds
            // them all without a list kept up to date on every block.
            for &v in self.union.union_members() {
                if self.marks.blocked.contains(v) {
                    blocked.push(v);
                    if self.marks.listed.contains(v) {
                        let list = &self.marks.blist[v as usize];
                        waiting.extend(list.iter().map(|&u| (v, u)));
                    }
                }
            }
        }
        Some(JohnsonSplit {
            root: self.root,
            path: self.buf.path.clone(),
            path_edges: self.buf.path_edges.clone(),
            keep: self.base + depth,
            blocked,
            waiting,
            frame: Frame::new(frame.vertex, give),
        })
    }
}

/// Runs the Johnson search rooted at edge `root`: enumerates every cycle
/// whose minimum `(timestamp, id)` edge is `root` and whose edges all lie
/// within the window `[ts(root) : ts(root) + δ]`. Before each descent,
/// `split` may split part of the search off ([`Search::split_off`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn johnson_root<'g, S: CycleSink>(
    graph: &'g TemporalGraph,
    root: EdgeId,
    opts: &SimpleCycleOptions,
    scratch: &mut RootScratch,
    sink: &HaltingSink<'_, S>,
    metrics: &WorkMetrics,
    worker: usize,
    split: impl FnMut(&mut Search<'_, 'g>),
) {
    if handle_self_loop_root(graph, root, opts, sink) {
        return;
    }
    let e0 = graph.edge(root);
    let window = TimeWindow::from_start(e0.ts, opts.effective_delta());
    // Cycle-union preprocessing: skip roots that cannot close any cycle and
    // restrict the search to vertices on at least one cycle through the root.
    if !metrics.counted_union_pass(worker, &mut scratch.union, |u| {
        u.compute_simple(graph, root, window)
    }) {
        return;
    }
    let frame = Frame::new(e0.dst, graph.out_edges_in_window(e0.dst, window));
    let search = Search::load(
        graph,
        opts,
        root,
        scratch,
        &[e0.src, e0.dst],
        &[root],
        frame,
    );
    if search.use_blocking {
        search.marks.blocked.insert(e0.src);
        search.marks.blocked.insert(e0.dst);
    }
    search.run(sink, metrics, worker, 1, 0, split);
}

/// Runs a split-off part of a rooted search on this worker's `scratch`,
/// which must hold the root's union: truncates the copied path to the
/// split frame, unblocking every vertex it removes (§5), and searches on
/// from there. The frame's own call was counted by its owner.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resume_split<'g, S: CycleSink>(
    graph: &'g TemporalGraph,
    opts: &SimpleCycleOptions,
    task: JohnsonSplit<'g>,
    scratch: &mut RootScratch,
    sink: &HaltingSink<'_, S>,
    metrics: &WorkMetrics,
    worker: usize,
    split: impl FnMut(&mut Search<'_, 'g>),
) {
    let (path, edges) = (&task.path[..task.keep], &task.path_edges[..task.keep - 1]);
    let search = Search::load(graph, opts, task.root, scratch, path, edges, task.frame);
    for &v in &task.blocked {
        search.marks.blocked.insert(v);
    }
    for &(w, v) in &task.waiting {
        search.marks.list(w).push(v);
    }
    let unblocks = task.path[task.keep..]
        .iter()
        .map(|&v| search.marks.unblock(v))
        .sum();
    search.run(sink, metrics, worker, 0, unblocks, split);
}

/// Sequential Johnson enumeration of all (window-constrained) simple cycles.
pub fn johnson_simple<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &SimpleCycleOptions,
    sink: &S,
) -> RunStats {
    let metrics = WorkMetrics::new(1);
    let sink = HaltingSink::new(sink);
    timed_run(&sink, &metrics, 1, || {
        let mut scratch = RootScratch::new(graph.num_vertices());
        for root in 0..graph.num_edges() as EdgeId {
            if sink.stopped() {
                break;
            }
            johnson_root(graph, root, opts, &mut scratch, &sink, &metrics, 0, |_| {});
        }
    })
    .tagged(Algorithm::Johnson, Granularity::Sequential)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{CollectingSink, CountingSink};
    use crate::seq::tiernan::tiernan_simple;
    use pce_graph::generators::{self, RandomTemporalConfig};
    use pce_graph::GraphBuilder;

    #[test]
    fn triangle_and_path() {
        let g = generators::directed_cycle(5);
        let sink = CountingSink::new();
        johnson_simple(&g, &SimpleCycleOptions::unconstrained(), &sink);
        assert_eq!(sink.count(), 1);

        let p = generators::directed_path(6);
        let sink = CountingSink::new();
        johnson_simple(&p, &SimpleCycleOptions::unconstrained(), &sink);
        assert_eq!(sink.count(), 0);
    }

    #[test]
    fn fig4a_counts_match_closed_form() {
        for n in 2..=10 {
            let g = generators::fig4a_exponential_cycles(n);
            let sink = CountingSink::new();
            johnson_simple(&g, &SimpleCycleOptions::unconstrained(), &sink);
            assert_eq!(sink.count(), generators::fig4a_cycle_count(n));
        }
    }

    #[test]
    fn fig5a_and_fig3a_gadgets() {
        let g = generators::fig5a_infeasible_regions(8);
        let sink = CountingSink::new();
        johnson_simple(&g, &SimpleCycleOptions::unconstrained(), &sink);
        assert_eq!(sink.count(), generators::FIG5A_CYCLE_COUNT);

        // Figure 3a: cycles are v0→v1→v0 and v0→v1→v2→v0.
        let g = generators::fig3a_pruning_gadget(4, 5);
        let sink = CountingSink::new();
        johnson_simple(&g, &SimpleCycleOptions::unconstrained(), &sink);
        assert_eq!(sink.count(), 2);
    }

    #[test]
    fn johnson_visits_fewer_edges_than_tiernan_on_fig3a() {
        let g = generators::fig3a_pruning_gadget(6, 12);
        let opts = SimpleCycleOptions::unconstrained();
        let sink_j = CountingSink::new();
        let stats_j = johnson_simple(&g, &opts, &sink_j);
        let sink_t = CountingSink::new();
        let stats_t = tiernan_simple(&g, &opts, &sink_t);
        assert_eq!(sink_j.count(), sink_t.count());
        assert!(
            stats_j.work.total_edge_visits() < stats_t.work.total_edge_visits(),
            "johnson {} visits should be below tiernan {}",
            stats_j.work.total_edge_visits(),
            stats_t.work.total_edge_visits()
        );
    }

    #[test]
    fn matches_tiernan_on_random_graphs() {
        for seed in 0..6 {
            let g = generators::uniform_temporal(RandomTemporalConfig {
                num_vertices: 14,
                num_edges: 50,
                time_span: 40,
                seed,
            });
            for delta in [5, 20, i64::MAX] {
                let opts = if delta == i64::MAX {
                    SimpleCycleOptions::unconstrained()
                } else {
                    SimpleCycleOptions::with_window(delta)
                };
                let sink_j = CollectingSink::new();
                johnson_simple(&g, &opts, &sink_j);
                let sink_t = CollectingSink::new();
                tiernan_simple(&g, &opts, &sink_t);
                assert_eq!(
                    sink_j.canonical_cycles(),
                    sink_t.canonical_cycles(),
                    "seed {seed} delta {delta}"
                );
            }
        }
    }

    #[test]
    fn window_constraint_is_respected() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 0)
            .add_edge(1, 2, 50)
            .add_edge(2, 0, 100)
            .add_edge(1, 0, 10)
            .build();
        let sink = CollectingSink::new();
        johnson_simple(&g, &SimpleCycleOptions::with_window(20), &sink);
        let cycles = sink.canonical_cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 2);
        for c in &cycles {
            assert!(c.validate(&g).is_ok());
            assert!(c.time_span(&g) <= 20);
        }
    }

    #[test]
    fn max_len_matches_tiernan() {
        let g = generators::complete_digraph(5);
        for max_len in 2..=5 {
            let opts = SimpleCycleOptions::unconstrained().max_len(max_len);
            let sink_j = CountingSink::new();
            johnson_simple(&g, &opts, &sink_j);
            let sink_t = CountingSink::new();
            tiernan_simple(&g, &opts, &sink_t);
            assert_eq!(sink_j.count(), sink_t.count(), "max_len={max_len}");
        }
    }

    #[test]
    fn parallel_edge_cycles_counted_separately() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 0)
            .add_edge(1, 2, 1)
            .add_edge(1, 2, 2)
            .add_edge(2, 0, 3)
            .build();
        let sink = CountingSink::new();
        johnson_simple(&g, &SimpleCycleOptions::unconstrained(), &sink);
        assert_eq!(sink.count(), 2);
    }

    #[test]
    fn reported_cycles_are_simple_and_valid() {
        let g = generators::uniform_temporal(RandomTemporalConfig {
            num_vertices: 20,
            num_edges: 80,
            time_span: 60,
            seed: 99,
        });
        let sink = CollectingSink::new();
        johnson_simple(&g, &SimpleCycleOptions::with_window(18), &sink);
        for c in sink.canonical_cycles() {
            c.validate(&g).expect("cycle must be valid");
            assert!(c.time_span(&g) <= 18);
        }
    }

    #[test]
    fn self_loop_handling() {
        let g = GraphBuilder::new()
            .add_edge(3, 3, 5)
            .add_edge(0, 1, 1)
            .add_edge(1, 0, 2)
            .build();
        let sink = CountingSink::new();
        johnson_simple(
            &g,
            &SimpleCycleOptions::unconstrained().include_self_loops(true),
            &sink,
        );
        assert_eq!(sink.count(), 2);
    }
}
