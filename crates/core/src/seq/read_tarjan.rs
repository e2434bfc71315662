//! The Read-Tarjan algorithm (§3.4): simple-cycle enumeration driven by
//! *path extensions*.
//!
//! A recursive call owns a current path `Π` (from `v0` to a frontier vertex)
//! together with one already-discovered *path extension* `Π_E` — a simple path
//! from the frontier back to `v0` that is vertex-disjoint from `Π`. The call
//! is responsible for enumerating **every** cycle that has `Π` as a prefix.
//! It walks along `Π_E`; before committing each extension vertex it probes,
//! with a depth-first search, every other admissible edge leaving the current
//! frontier:
//!
//! * a probe that reaches `v0` directly closes a cycle, which is reported
//!   immediately;
//! * a probe that finds a longer extension spawns a **child call** whose path
//!   is the current path plus that first probe edge — the child becomes
//!   responsible for every cycle with that longer prefix;
//! * a probe that fails marks every vertex it visited as *blocked* for the
//!   remainder of this call (none of them can reach `v0` while avoiding the
//!   current path, and the path only grows).
//!
//! When the walk finally commits the last extension edge, `Π · Π_E` itself is
//! reported. Partitioning responsibility by "first edge where the cycle
//! deviates from the witness extension" makes every cycle reported exactly
//! once, and because each call reports at least the cycle `Π · Π_E`, the
//! number of calls is at most the number of cycles `c`. A call performs
//! `O(n + e)` work (failed probes are amortised by the blocked set; each
//! successful probe is charged to the child it spawns), giving the same
//! `O((n+e)(c+1))` bound as Johnson.
//!
//! Crucially, and unlike Johnson, calls only pass information *down* (each
//! child receives copies of `Π` and `Blk`), never back up — which is what
//! makes the fine-grained parallelisation of §6 work efficient: any pending
//! child call can run on any worker. Every granularity runs the same loop
//! over a stack of pending calls (`run_calls`); the fine-grained driver
//! only adds a hook that hands the oldest pending call to an idle worker.

use crate::cycle::{CycleSink, HaltingSink};
use crate::metrics::{RunStats, WorkMetrics};
use crate::options::SimpleCycleOptions;
use crate::seq::{handle_self_loop_root, timed_run, RootScratch};
use crate::util::VertexMarks;
use crate::{Algorithm, Granularity};
use pce_graph::reach::CycleUnionWorkspace;
use pce_graph::{AdjEntry, EdgeId, TemporalGraph, TimeWindow, VertexId};
use std::collections::VecDeque;

/// A path extension: a sequence of `(edge, target-vertex)` steps leading from
/// the current frontier back to the root vertex `v0`. The final step always
/// targets `v0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Extension {
    /// `(edge, vertex)` steps in order; the last vertex is always `v0`.
    pub steps: Vec<(EdgeId, VertexId)>,
}

/// The state a Read-Tarjan recursive call owns: a plain owned value, so the
/// fine-grained driver can hand a pending call to another worker.
#[derive(Debug, Clone)]
pub(crate) struct RtCallState {
    /// Current path vertices (starting with `v0`).
    pub path: Vec<VertexId>,
    /// Edges of the current path: `path.len() - 1` entries, the root edge
    /// first.
    pub path_edges: Vec<EdgeId>,
    /// The witness extension to walk.
    pub extension: Extension,
    /// Vertices that provably cannot reach `v0` while avoiding the current
    /// path; private to this call (copied, never merged back). Each vertex
    /// appears once: a probe never visits a vertex the call avoids.
    pub blocked: Vec<VertexId>,
}

/// A worker's marks for the Read-Tarjan calls it runs, one call at a time:
/// the running call's path and blocked vertices, and the buffers of its
/// probes, so that neither a call nor a probe allocates or hashes.
#[derive(Debug, Default)]
pub(crate) struct RtMarks {
    /// The running call's path and blocked vertices: what its probes avoid.
    /// Both only grow during a call, so one set serves both.
    avoid: VertexMarks,
    /// The vertices the running probe visited.
    visited: VertexMarks,
    /// The running probe's DFS stack.
    stack: Vec<ProbeFrame>,
    /// The running probe's visited vertices, in visit order.
    visited_list: Vec<VertexId>,
}

impl RtMarks {
    pub(crate) fn ensure_vertices(&mut self, n: usize) {
        self.avoid.ensure_vertices(n);
        self.visited.ensure_vertices(n);
    }

    /// Starts a call: exactly `path` and `blocked` are avoided.
    fn start_call(&mut self, path: &[VertexId], blocked: &[VertexId]) {
        self.avoid.clear();
        for &v in path.iter().chain(blocked) {
            self.avoid.insert(v);
        }
    }

    #[cfg(test)]
    pub(crate) fn skip_to_epoch_wrap(&mut self, stale: u32) {
        self.avoid.skip_to_epoch_wrap(stale);
        self.visited.skip_to_epoch_wrap(stale);
    }

    #[cfg(test)]
    pub(crate) fn epochs(&self) -> [u32; 2] {
        [self.avoid.epoch(), self.visited.epoch()]
    }
}

/// One level of a probe's DFS: a vertex, the edge that entered it, and the
/// unscanned part of its out-edges in the root's window, as indices into
/// its whole out-adjacency (sliced once, when the level is pushed).
#[derive(Debug, Clone, Copy)]
struct ProbeFrame {
    vertex: VertexId,
    edge: EdgeId,
    next: usize,
    end: usize,
}

/// Immutable per-root context shared by all recursive calls of one rooted
/// Read-Tarjan search.
pub(crate) struct RtContext<'a, S> {
    pub graph: &'a TemporalGraph,
    pub sink: &'a HaltingSink<'a, S>,
    pub metrics: &'a WorkMetrics,
    pub opts: &'a SimpleCycleOptions,
    /// The root's cycle union, in the running worker's own workspace.
    pub union: &'a CycleUnionWorkspace,
    pub root: EdgeId,
    pub v0: VertexId,
    pub window: TimeWindow,
}

impl<S: CycleSink> RtContext<'_, S> {
    /// Is `entry` an admissible edge for this rooted search?
    #[inline]
    pub(crate) fn admissible(&self, entry: &AdjEntry) -> bool {
        entry.edge > self.root
            && entry.ts <= self.window.end
            && (entry.neighbor == self.v0 || self.union.in_union(entry.neighbor))
    }

    /// The probe level of `vertex`, entered by `edge`.
    fn probe_frame(&self, vertex: VertexId, edge: EdgeId) -> ProbeFrame {
        let out = self.graph.out_edges(vertex);
        let next = out.partition_point(|a| a.ts < self.window.start);
        let end = next + out[next..].partition_point(|a| a.ts <= self.window.end);
        ProbeFrame {
            vertex,
            edge,
            next,
            end,
        }
    }

    /// Depth-first search for a path extension that starts with the edge
    /// `start_edge → start_vertex` (leaving the current frontier) and ends at
    /// `v0`, avoiding what `marks` holds for the running call (its path and
    /// `blocked`). Adds its edge visits to `visits`.
    ///
    /// `budget` bounds the number of edges the extension may use (`None` =
    /// unbounded). On complete failure every vertex visited by the DFS is
    /// added to `blocked` and to the call's avoid marks.
    pub(crate) fn find_extension(
        &self,
        marks: &mut RtMarks,
        visits: &mut u64,
        start_edge: EdgeId,
        start_vertex: VertexId,
        blocked: &mut Vec<VertexId>,
        budget: Option<usize>,
    ) -> Option<Extension> {
        if let Some(b) = budget {
            if b == 0 {
                return None;
            }
        }
        *visits += 1;
        if start_vertex == self.v0 {
            return Some(Extension {
                steps: vec![(start_edge, start_vertex)],
            });
        }
        let RtMarks {
            avoid,
            visited,
            stack,
            visited_list,
        } = marks;
        if avoid.contains(start_vertex) || !self.union.in_union(start_vertex) {
            return None;
        }
        if let Some(b) = budget {
            if b < 2 {
                return None;
            }
        }

        stack.clear();
        stack.push(self.probe_frame(start_vertex, start_edge));
        visited.clear();
        visited.insert(start_vertex);
        visited_list.clear();
        visited_list.push(start_vertex);

        loop {
            if self.sink.stopped() {
                break;
            }
            let Some(top) = stack.last_mut() else {
                break;
            };
            if top.next == top.end {
                stack.pop();
                continue;
            }
            let entry = self.graph.out_edges(top.vertex)[top.next];
            top.next += 1;
            if !self.admissible(&entry) {
                continue;
            }
            *visits += 1;
            let w = entry.neighbor;
            if w == self.v0 {
                if let Some(b) = budget {
                    if stack.len() + 1 > b {
                        continue;
                    }
                }
                let mut steps: Vec<(EdgeId, VertexId)> =
                    stack.iter().map(|f| (f.edge, f.vertex)).collect();
                steps.push((entry.edge, self.v0));
                return Some(Extension { steps });
            }
            if visited.contains(w) || avoid.contains(w) {
                continue;
            }
            if let Some(b) = budget {
                if stack.len() + 2 > b {
                    continue;
                }
            }
            visited.insert(w);
            visited_list.push(w);
            stack.push(self.probe_frame(w, entry.edge));
        }

        // Complete failure: nothing visited can reach v0 while avoiding the
        // current path, now or later in this call (the avoided sets only
        // grow), so block it all.
        for &v in visited_list.iter() {
            blocked.push(v);
            avoid.insert(v);
        }
        None
    }
}

/// One recursive Read-Tarjan call on this worker's `marks`. Cycles are
/// reported to the context's sink; every child call produced is handed to
/// `spawn_child`, which [`run_calls`] pushes onto its stack of pending calls.
/// The call's edge visits are counted locally and flushed once, when it
/// returns.
pub(crate) fn rt_call<S: CycleSink>(
    ctx: &RtContext<'_, S>,
    marks: &mut RtMarks,
    worker: usize,
    mut state: RtCallState,
    spawn_child: &mut impl FnMut(RtCallState),
) {
    let mut visits = 0;
    walk_extension(ctx, marks, worker, &mut visits, &mut state, spawn_child);
    ctx.metrics.add_search_work(worker, visits, 1);
}

/// The body of [`rt_call`]: walks the call's witness extension, probing
/// every other admissible edge at each step.
fn walk_extension<S: CycleSink>(
    ctx: &RtContext<'_, S>,
    marks: &mut RtMarks,
    worker: usize,
    visits: &mut u64,
    state: &mut RtCallState,
    spawn_child: &mut impl FnMut(RtCallState),
) {
    marks.start_call(&state.path, &state.blocked);
    for step_idx in 0..state.extension.steps.len() {
        if ctx.sink.stopped() {
            return;
        }
        let (ext_edge, ext_vertex) = state.extension.steps[step_idx];
        let frontier = *state.path.last().expect("path never empty");

        // Probe every other admissible edge leaving the frontier: each one is
        // the first edge of a prefix this call is responsible for but will not
        // walk itself.
        for &entry in ctx.graph.out_edges_in_window(frontier, ctx.window) {
            if ctx.sink.stopped() {
                return;
            }
            if entry.edge == ext_edge || !ctx.admissible(&entry) {
                continue;
            }
            *visits += 1;
            let budget = ctx
                .opts
                .max_len
                .map(|m| m.saturating_sub(state.path_edges.len()));
            if budget == Some(0) {
                break;
            }
            let Some(alt) = ctx.find_extension(
                marks,
                visits,
                entry.edge,
                entry.neighbor,
                &mut state.blocked,
                budget,
            ) else {
                continue;
            };
            if alt.steps.len() == 1 {
                // The probe edge closes a cycle directly; no other cycle can
                // have this exact prefix, so report it here.
                if ctx.opts.len_ok(state.path_edges.len() + 1) {
                    state.path_edges.push(entry.edge);
                    ctx.sink.push(&state.path, &state.path_edges);
                    state.path_edges.pop();
                }
            } else {
                // Spawn a child responsible for every cycle whose prefix is
                // the current path extended by this probe edge. The child
                // receives copies of the path and of the blocked set.
                ctx.metrics.copy_event(worker);
                let (first_edge, first_vertex) = alt.steps[0];
                let mut child_path = state.path.clone();
                let mut child_edges = state.path_edges.clone();
                child_path.push(first_vertex);
                child_edges.push(first_edge);
                spawn_child(RtCallState {
                    path: child_path,
                    path_edges: child_edges,
                    extension: Extension {
                        steps: alt.steps[1..].to_vec(),
                    },
                    blocked: state.blocked.clone(),
                });
            }
        }

        // Commit the next step of the witness extension.
        state.path_edges.push(ext_edge);
        if ext_vertex == ctx.v0 {
            debug_assert_eq!(step_idx, state.extension.steps.len() - 1);
            if ctx.opts.len_ok(state.path_edges.len()) {
                ctx.sink.push(&state.path, &state.path_edges);
            }
        } else {
            state.path.push(ext_vertex);
            marks.avoid.insert(ext_vertex);
        }
    }
}
/// Builds the initial call state for the search rooted at `root`, or `None`
/// when no cycle passes through the root edge. Shared by the sequential and
/// parallel drivers.
pub(crate) fn rt_initial_state<S: CycleSink>(
    ctx: &RtContext<'_, S>,
    marks: &mut RtMarks,
    worker: usize,
    root: EdgeId,
) -> Option<RtCallState> {
    let e0 = ctx.graph.edge(root);
    marks.start_call(&[e0.src, e0.dst], &[]);
    let mut blocked = Vec::new();
    let mut visits = 0;
    let mut first: Option<Extension> = None;
    for &entry in ctx.graph.out_edges_in_window(e0.dst, ctx.window) {
        if !ctx.admissible(&entry) {
            continue;
        }
        visits += 1;
        let budget = ctx.opts.max_len.map(|m| m.saturating_sub(1));
        if let Some(ext) = ctx.find_extension(
            marks,
            &mut visits,
            entry.edge,
            entry.neighbor,
            &mut blocked,
            budget,
        ) {
            first = Some(ext);
            break;
        }
    }
    ctx.metrics.add_search_work(worker, visits, 0);
    first.map(|extension| RtCallState {
        path: vec![e0.src, e0.dst],
        path_edges: vec![root],
        extension,
        blocked,
    })
}

/// Runs the Read-Tarjan search rooted at edge `root` on the running worker's
/// `scratch` (see [`run_calls`] for `hand_off`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn read_tarjan_root<S: CycleSink>(
    graph: &TemporalGraph,
    root: EdgeId,
    opts: &SimpleCycleOptions,
    scratch: &mut RootScratch,
    sink: &HaltingSink<'_, S>,
    metrics: &WorkMetrics,
    worker: usize,
    hand_off: impl FnMut(&mut VecDeque<RtCallState>),
) {
    if handle_self_loop_root(graph, root, opts, sink) {
        return;
    }
    let e0 = graph.edge(root);
    let window = TimeWindow::from_start(e0.ts, opts.effective_delta());
    let RootScratch { union, rt, .. } = scratch;
    if !metrics.counted_union_pass(worker, union, |u| u.compute_simple(graph, root, window)) {
        return;
    }
    let ctx = RtContext {
        graph,
        sink,
        metrics,
        opts,
        union,
        root,
        v0: e0.src,
        window,
    };
    let Some(initial) = rt_initial_state(&ctx, rt, worker, root) else {
        return;
    };
    run_calls(&ctx, rt, worker, initial, hand_off);
}

/// Executes an `rt_call` and every child it spawns on this worker's `marks`,
/// depth-first from an explicit stack of pending calls so that deeply nested
/// spawn chains cannot overflow the call stack. After each child is pushed,
/// `hand_off` may take calls off the front of the stack to run elsewhere:
/// the oldest pending call is the shallowest, with the largest subtree.
/// Sequential and coarse-grained runs hand nothing off.
pub(crate) fn run_calls<S: CycleSink>(
    ctx: &RtContext<'_, S>,
    marks: &mut RtMarks,
    worker: usize,
    initial: RtCallState,
    mut hand_off: impl FnMut(&mut VecDeque<RtCallState>),
) {
    let mut pending = VecDeque::from([initial]);
    while let Some(next) = pending.pop_back() {
        if ctx.sink.stopped() {
            return;
        }
        rt_call(ctx, marks, worker, next, &mut |child| {
            pending.push_back(child);
            hand_off(&mut pending);
        });
    }
}

/// Sequential Read-Tarjan enumeration of all (window-constrained) simple
/// cycles.
pub fn read_tarjan_simple<S: CycleSink>(
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
            read_tarjan_root(graph, root, opts, &mut scratch, &sink, &metrics, 0, |_| {});
        }
    })
    .tagged(Algorithm::ReadTarjan, Granularity::Sequential)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{CollectingSink, CountingSink};
    use crate::seq::johnson::johnson_simple;
    use crate::seq::tiernan::tiernan_simple;
    use pce_graph::generators::{self, RandomTemporalConfig};
    use pce_graph::GraphBuilder;

    #[test]
    fn basic_shapes() {
        let g = generators::directed_cycle(4);
        let sink = CountingSink::new();
        read_tarjan_simple(&g, &SimpleCycleOptions::unconstrained(), &sink);
        assert_eq!(sink.count(), 1);

        let p = generators::directed_path(5);
        let sink = CountingSink::new();
        read_tarjan_simple(&p, &SimpleCycleOptions::unconstrained(), &sink);
        assert_eq!(sink.count(), 0);
    }

    #[test]
    fn fig4a_counts_match_closed_form() {
        for n in 2..=10 {
            let g = generators::fig4a_exponential_cycles(n);
            let sink = CountingSink::new();
            read_tarjan_simple(&g, &SimpleCycleOptions::unconstrained(), &sink);
            assert_eq!(
                sink.count(),
                generators::fig4a_cycle_count(n),
                "fig4a n={n}"
            );
        }
    }

    #[test]
    fn fig5a_and_fig3a_gadgets() {
        let g = generators::fig5a_infeasible_regions(7);
        let sink = CountingSink::new();
        read_tarjan_simple(&g, &SimpleCycleOptions::unconstrained(), &sink);
        assert_eq!(sink.count(), generators::FIG5A_CYCLE_COUNT);

        let g = generators::fig3a_pruning_gadget(5, 6);
        let sink = CountingSink::new();
        read_tarjan_simple(&g, &SimpleCycleOptions::unconstrained(), &sink);
        assert_eq!(sink.count(), 2);
    }

    #[test]
    fn complete_digraphs_match_johnson() {
        for n in 2..=5 {
            let g = generators::complete_digraph(n);
            let opts = SimpleCycleOptions::unconstrained();
            let sink_rt = CollectingSink::new();
            read_tarjan_simple(&g, &opts, &sink_rt);
            let sink_j = CollectingSink::new();
            johnson_simple(&g, &opts, &sink_j);
            assert_eq!(
                sink_rt.canonical_cycles(),
                sink_j.canonical_cycles(),
                "complete digraph n={n}"
            );
        }
    }

    #[test]
    fn matches_johnson_and_tiernan_on_random_graphs() {
        for seed in 0..8 {
            let g = generators::uniform_temporal(RandomTemporalConfig {
                num_vertices: 12,
                num_edges: 45,
                time_span: 30,
                seed: 100 + seed,
            });
            for delta in [8, 25, i64::MAX] {
                let opts = if delta == i64::MAX {
                    SimpleCycleOptions::unconstrained()
                } else {
                    SimpleCycleOptions::with_window(delta)
                };
                let rt = CollectingSink::new();
                read_tarjan_simple(&g, &opts, &rt);
                let j = CollectingSink::new();
                johnson_simple(&g, &opts, &j);
                let t = CollectingSink::new();
                tiernan_simple(&g, &opts, &t);
                let rt_c = rt.canonical_cycles();
                assert_eq!(rt_c, j.canonical_cycles(), "seed {seed} delta {delta}");
                assert_eq!(rt_c, t.canonical_cycles(), "seed {seed} delta {delta}");
            }
        }
    }

    #[test]
    fn power_law_graph_agreement() {
        let g = generators::power_law_temporal(RandomTemporalConfig {
            num_vertices: 40,
            num_edges: 150,
            time_span: 100,
            seed: 77,
        });
        let opts = SimpleCycleOptions::with_window(15);
        let rt = CollectingSink::new();
        read_tarjan_simple(&g, &opts, &rt);
        let j = CollectingSink::new();
        johnson_simple(&g, &opts, &j);
        assert_eq!(rt.canonical_cycles(), j.canonical_cycles());
    }

    #[test]
    fn max_len_constraint_matches_johnson() {
        let g = generators::complete_digraph(5);
        for max_len in 2..=5 {
            let opts = SimpleCycleOptions::unconstrained().max_len(max_len);
            let rt = CountingSink::new();
            read_tarjan_simple(&g, &opts, &rt);
            let j = CountingSink::new();
            johnson_simple(&g, &opts, &j);
            assert_eq!(rt.count(), j.count(), "max_len={max_len}");
        }
    }

    #[test]
    fn window_constraint_respected() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 0)
            .add_edge(1, 2, 5)
            .add_edge(2, 0, 9)
            .add_edge(1, 0, 100)
            .build();
        let sink = CollectingSink::new();
        read_tarjan_simple(&g, &SimpleCycleOptions::with_window(10), &sink);
        let cycles = sink.canonical_cycles();
        assert_eq!(cycles.len(), 1);
        assert!(cycles[0].validate(&g).is_ok());
    }

    #[test]
    fn recursive_call_count_is_bounded_by_cycle_count() {
        // Work efficiency sanity check (Theorem 6.1): every call reports at
        // least one cycle, so the number of calls never exceeds the number of
        // cycles.
        let g = generators::fig4a_exponential_cycles(9);
        let sink = CountingSink::new();
        let stats = read_tarjan_simple(&g, &SimpleCycleOptions::unconstrained(), &sink);
        assert!(stats.work.total_recursive_calls() <= sink.count());
        assert!(sink.count() > 0);
    }
}
