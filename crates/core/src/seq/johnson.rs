//! The Johnson algorithm (§3.4): simple-cycle enumeration with blocked
//! vertices, unblock lists and recursive unblocking.
//!
//! A vertex is *blocked* when it is visited; after backtracking it stays
//! blocked unless a cycle was found in its subtree, in which case it (and,
//! transitively, everything recorded in its unblock list `Blist`) is
//! unblocked. This delayed unblocking is what bounds the work per discovered
//! cycle to `O(n+e)` and gives the overall `O((n+e)(c+1))` complexity.
//!
//! This module contains the sequential implementation; the coarse-grained
//! parallel version simply runs `johnson_root` for different root edges on
//! different workers, and the fine-grained version (in
//! [`crate::par::fine_johnson`]) re-implements the same recursion with
//! explicit frames so that unexplored branches can be stolen.
//!
//! When a maximum cycle length is configured, delayed blocking would be
//! unsound (a vertex may fail only because the remaining length budget was
//! too small), so the search transparently falls back to a pruned DFS that
//! relies on the cycle-union and on-path checks only.

use crate::cycle::{CycleSink, HaltingSink};
use crate::metrics::{RunStats, WorkMetrics};
use crate::options::SimpleCycleOptions;
use crate::seq::{handle_self_loop_root, timed_run, RootScratch};
use crate::util::{fx_map, fx_set, FxHashMap, FxHashSet};
use crate::{Algorithm, Granularity};
use pce_graph::reach::CycleUnionWorkspace;
use pce_graph::{EdgeId, TemporalGraph, TimeWindow, VertexId};

/// The per-root Johnson search state. Exposed (crate-internally) because the
/// coarse-grained driver reuses it directly.
struct JohnsonSearch<'a, S> {
    graph: &'a TemporalGraph,
    sink: &'a HaltingSink<'a, S>,
    metrics: &'a WorkMetrics,
    worker: usize,
    opts: &'a SimpleCycleOptions,
    union: &'a CycleUnionWorkspace,
    root: EdgeId,
    v0: VertexId,
    window: TimeWindow,
    /// Delayed blocking is only sound without a length constraint.
    use_blocking: bool,
    path: Vec<VertexId>,
    path_edges: Vec<EdgeId>,
    on_path: FxHashSet<VertexId>,
    blocked: FxHashSet<VertexId>,
    blist: FxHashMap<VertexId, FxHashSet<VertexId>>,
    /// Edge visits and recursive calls so far, flushed once per root.
    visits: u64,
    calls: u64,
}

impl<S: CycleSink> JohnsonSearch<'_, S> {
    /// The recursive `CIRCUIT(v)` procedure. Returns `true` if at least one
    /// cycle was found in the subtree rooted at `v`.
    fn circuit(&mut self, v: VertexId) -> bool {
        self.calls += 1;
        let mut found = false;
        let graph = self.graph;
        for &entry in graph.out_edges_in_window(v, self.window) {
            if self.sink.stopped() {
                return found;
            }
            if entry.edge <= self.root {
                continue;
            }
            self.visits += 1;
            let w = entry.neighbor;
            if w == self.v0 {
                if self.opts.len_ok(self.path_edges.len() + 1) {
                    self.path_edges.push(entry.edge);
                    self.sink.push(&self.path, &self.path_edges);
                    self.path_edges.pop();
                    found = true;
                }
                continue;
            }
            if !self.union.in_union(w) || self.on_path.contains(&w) {
                continue;
            }
            if self.use_blocking && self.blocked.contains(&w) {
                continue;
            }
            if !self.opts.len_ok(self.path_edges.len() + 2) {
                continue;
            }
            self.path.push(w);
            self.path_edges.push(entry.edge);
            self.on_path.insert(w);
            if self.use_blocking {
                self.blocked.insert(w);
            }
            if self.circuit(w) {
                found = true;
            }
            self.on_path.remove(&w);
            self.path_edges.pop();
            self.path.pop();
        }
        if self.use_blocking {
            if found {
                self.unblock(v);
            } else {
                // Delayed unblocking: v will be unblocked when any of its
                // admissible successors is unblocked.
                for &entry in graph.out_edges_in_window(v, self.window) {
                    if entry.edge <= self.root || !self.union.in_union(entry.neighbor) {
                        continue;
                    }
                    self.blist.entry(entry.neighbor).or_default().insert(v);
                }
            }
        }
        found
    }

    /// The recursive unblocking procedure.
    fn unblock(&mut self, v: VertexId) {
        if !self.blocked.remove(&v) {
            return;
        }
        self.metrics.unblock_op(self.worker);
        if let Some(list) = self.blist.remove(&v) {
            for u in list {
                self.unblock(u);
            }
        }
    }
}

/// Runs the Johnson search rooted at edge `root`: enumerates every cycle whose
/// minimum `(timestamp, id)` edge is `root` and whose edges all lie within the
/// window `[ts(root) : ts(root) + δ]`.
pub(crate) fn johnson_root<S: CycleSink>(
    graph: &TemporalGraph,
    root: EdgeId,
    opts: &SimpleCycleOptions,
    scratch: &mut RootScratch,
    sink: &HaltingSink<'_, S>,
    metrics: &WorkMetrics,
    worker: usize,
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
    let mut on_path = fx_set();
    on_path.insert(e0.src);
    on_path.insert(e0.dst);
    let mut blocked = fx_set();
    blocked.insert(e0.src);
    blocked.insert(e0.dst);
    let mut search = JohnsonSearch {
        graph,
        sink,
        metrics,
        worker,
        opts,
        union: &scratch.union,
        root,
        v0: e0.src,
        window,
        use_blocking: opts.max_len.is_none(),
        path: vec![e0.src, e0.dst],
        path_edges: vec![root],
        on_path,
        blocked,
        blist: fx_map(),
        visits: 0,
        calls: 0,
    };
    search.circuit(e0.dst);
    metrics.add_search_work(worker, search.visits, search.calls);
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
            johnson_root(graph, root, opts, &mut scratch, &sink, &metrics, 0);
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
