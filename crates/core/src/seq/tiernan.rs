//! The Tiernan algorithm: brute-force simple-cycle enumeration (§3.4).
//!
//! Tiernan extends a simple path by any admissible edge whose head is not yet
//! on the path, with no memory of previously failed explorations. It explores
//! every maximal simple path of the graph, so its worst-case complexity is
//! `O(s·(n+e))` where `s` can be exponentially larger than the number of
//! cycles `c`. It is included as the lower baseline of the paper's Table 2
//! discussion and because the naïve parallelisation of Johnson degenerates to
//! it (§5, "the naïve approach").

use crate::cycle::{CycleSink, HaltingSink};
use crate::metrics::{RunStats, WorkMetrics};
use crate::options::SimpleCycleOptions;
use crate::seq::{handle_self_loop_root, timed_run};
use crate::util::{fx_set, FxHashSet};
use crate::{Algorithm, Granularity};
use pce_graph::{EdgeId, TemporalGraph, TimeWindow, VertexId};

struct TiernanSearch<'a, S> {
    graph: &'a TemporalGraph,
    sink: &'a HaltingSink<'a, S>,
    opts: &'a SimpleCycleOptions,
    root: EdgeId,
    v0: VertexId,
    window: TimeWindow,
    path: Vec<VertexId>,
    path_edges: Vec<EdgeId>,
    on_path: FxHashSet<VertexId>,
    /// Edge visits so far, flushed once per root.
    visits: u64,
}

impl<S: CycleSink> TiernanSearch<'_, S> {
    fn extend(&mut self, v: VertexId) {
        for entry in self.graph.out_edges_in_window(v, self.window) {
            if self.sink.stopped() {
                return;
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
                }
            } else if !self.on_path.contains(&w) && self.opts.len_ok(self.path_edges.len() + 2) {
                self.path.push(w);
                self.path_edges.push(entry.edge);
                self.on_path.insert(w);
                self.extend(w);
                self.on_path.remove(&w);
                self.path_edges.pop();
                self.path.pop();
            }
        }
    }
}

/// Runs the Tiernan search rooted at edge `root`: enumerates every cycle whose
/// minimum `(timestamp, id)` edge is `root` and whose edges all lie within the
/// window `[ts(root) : ts(root) + δ]`.
pub(crate) fn tiernan_root<S: CycleSink>(
    graph: &TemporalGraph,
    root: EdgeId,
    opts: &SimpleCycleOptions,
    sink: &HaltingSink<'_, S>,
    metrics: &WorkMetrics,
    worker: usize,
) {
    if handle_self_loop_root(graph, root, opts, sink) {
        return;
    }
    metrics.recursive_call(worker);
    metrics.root_processed(worker);
    let e0 = graph.edge(root);
    let window = TimeWindow::from_start(e0.ts, opts.effective_delta());
    let mut on_path = fx_set();
    on_path.insert(e0.src);
    on_path.insert(e0.dst);
    let mut search = TiernanSearch {
        graph,
        sink,
        opts,
        root,
        v0: e0.src,
        window,
        path: vec![e0.src, e0.dst],
        path_edges: vec![root],
        on_path,
        visits: 0,
    };
    search.extend(e0.dst);
    metrics.add_search_work(worker, search.visits, 0);
}

/// Sequential Tiernan enumeration of all (window-constrained) simple cycles.
pub fn tiernan_simple<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &SimpleCycleOptions,
    sink: &S,
) -> RunStats {
    let metrics = WorkMetrics::new(1);
    let sink = HaltingSink::new(sink);
    timed_run(&sink, &metrics, 1, || {
        for root in 0..graph.num_edges() as EdgeId {
            if sink.stopped() {
                break;
            }
            tiernan_root(graph, root, opts, &sink, &metrics, 0);
        }
    })
    .tagged(Algorithm::Tiernan, Granularity::Sequential)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{CollectingSink, CountingSink};
    use pce_graph::generators;
    use pce_graph::GraphBuilder;

    #[test]
    fn triangle_has_one_cycle() {
        let g = generators::directed_cycle(3);
        let sink = CountingSink::new();
        let stats = tiernan_simple(&g, &SimpleCycleOptions::unconstrained(), &sink);
        assert_eq!(stats.cycles, 1);
        assert_eq!(sink.count(), 1);
    }

    #[test]
    fn acyclic_graph_has_no_cycles() {
        let g = generators::directed_path(10);
        let sink = CountingSink::new();
        let stats = tiernan_simple(&g, &SimpleCycleOptions::unconstrained(), &sink);
        assert_eq!(stats.cycles, 0);
    }

    #[test]
    fn fig4a_counts_match_closed_form() {
        for n in 2..=8 {
            let g = generators::fig4a_exponential_cycles(n);
            let sink = CountingSink::new();
            tiernan_simple(&g, &SimpleCycleOptions::unconstrained(), &sink);
            assert_eq!(
                sink.count(),
                generators::fig4a_cycle_count(n),
                "fig4a with n={n}"
            );
        }
    }

    #[test]
    fn fig5a_has_exactly_four_cycles() {
        let g = generators::fig5a_infeasible_regions(6);
        let sink = CountingSink::new();
        tiernan_simple(&g, &SimpleCycleOptions::unconstrained(), &sink);
        assert_eq!(sink.count(), generators::FIG5A_CYCLE_COUNT);
    }

    #[test]
    fn complete_digraph_cycle_count() {
        // K4 (directed, both directions) has 6 + 8 + 6 = 20 simple cycles of
        // lengths 2, 3, 4 respectively.
        let g = generators::complete_digraph(4);
        let sink = CountingSink::new();
        tiernan_simple(&g, &SimpleCycleOptions::unconstrained(), &sink);
        assert_eq!(sink.count(), 20);
    }

    #[test]
    fn reported_cycles_are_valid_and_window_bounded() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 0)
            .add_edge(1, 2, 5)
            .add_edge(2, 0, 9)
            .add_edge(1, 0, 100)
            .build();
        let sink = CollectingSink::new();
        tiernan_simple(&g, &SimpleCycleOptions::with_window(10), &sink);
        let cycles = sink.canonical_cycles();
        // Only the 0->1->2->0 triangle fits in a window of 10; the 2-cycle
        // 0->1->0 spans 100.
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 3);
        assert!(cycles[0].validate(&g).is_ok());
        assert!(cycles[0].time_span(&g) <= 10);

        let sink_wide = CountingSink::new();
        tiernan_simple(&g, &SimpleCycleOptions::with_window(1000), &sink_wide);
        assert_eq!(sink_wide.count(), 2);
    }

    #[test]
    fn parallel_edges_produce_distinct_cycles() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 0)
            .add_edge(0, 1, 1)
            .add_edge(1, 0, 2)
            .add_edge(1, 0, 3)
            .build();
        let sink = CountingSink::new();
        tiernan_simple(&g, &SimpleCycleOptions::unconstrained(), &sink);
        // Each (0->1 edge, 1->0 edge) pair is a distinct cycle: 2 * 2 = 4.
        assert_eq!(sink.count(), 4);
    }

    #[test]
    fn max_len_constraint_filters_long_cycles() {
        let g = generators::complete_digraph(4);
        let sink = CountingSink::new();
        tiernan_simple(&g, &SimpleCycleOptions::unconstrained().max_len(2), &sink);
        // Only the 6 two-cycles qualify.
        assert_eq!(sink.count(), 6);
        let sink3 = CountingSink::new();
        tiernan_simple(&g, &SimpleCycleOptions::unconstrained().max_len(3), &sink3);
        assert_eq!(sink3.count(), 14);
    }

    #[test]
    fn self_loops_are_reported_only_when_requested() {
        let g = GraphBuilder::new()
            .add_edge(0, 0, 1)
            .add_edge(0, 1, 2)
            .add_edge(1, 0, 3)
            .build();
        let without = CountingSink::new();
        tiernan_simple(&g, &SimpleCycleOptions::unconstrained(), &without);
        assert_eq!(without.count(), 1);
        let with = CountingSink::new();
        tiernan_simple(
            &g,
            &SimpleCycleOptions::unconstrained().include_self_loops(true),
            &with,
        );
        assert_eq!(with.count(), 2);
    }

    #[test]
    fn work_metrics_are_recorded() {
        let g = generators::complete_digraph(4);
        let sink = CountingSink::new();
        let stats = tiernan_simple(&g, &SimpleCycleOptions::unconstrained(), &sink);
        assert!(stats.work.total_edge_visits() > 0);
        assert_eq!(stats.work.total_roots(), g.num_edges() as u64);
        assert_eq!(stats.threads, 1);
    }
}
