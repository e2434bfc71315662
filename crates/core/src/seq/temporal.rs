//! Temporal-cycle enumeration (§7): cycles whose edges appear in strictly
//! increasing timestamp order within a time window.
//!
//! The search rooted at edge `e0 = v0 → v1` (timestamp `t0`) enumerates every
//! temporal cycle whose first — and therefore strictly smallest — edge is
//! `e0` and whose edges all lie in `[t0 : t0 + δ]`. Because the first edge of
//! a temporal cycle is unique, enumerating from every root edge yields every
//! temporal cycle exactly once.
//!
//! Two prunings keep the search tight, mirroring the design of §7 of the
//! paper:
//!
//! 1. **Cycle-union preprocessing**: only vertices that are temporally
//!    reachable from `v1` *and* can temporally reach `v0` within the window
//!    are ever visited ([`pce_graph::reach::CycleUnionWorkspace`]).
//! 2. **Closing times**: the same backward pass computes, for every vertex
//!    `w`, the latest timestamp at which a temporal path can still leave `w`
//!    towards `v0`; arriving later than that is pruned immediately. This is a
//!    static, per-root form of 2SCENT's closing-time pruning: it ignores the
//!    simple-path constraint, so it can never prune a real cycle, and unlike
//!    2SCENT's sequential preprocessing it parallelises trivially across
//!    roots.
//!
//! [`two_scent_baseline`] packages the same rooted search behind a strictly
//! sequential, timestamp-ordered driver and stands in for the serial 2SCENT
//! implementation that Figure 9 of the paper compares against.

use crate::cycle::{CycleSink, HaltingSink};
use crate::metrics::{RunStats, WorkMetrics};
use crate::options::TemporalCycleOptions;
use crate::par::split::Buffers;
use crate::seq::{timed_run, RootScratch};
use crate::{Algorithm, Granularity};
use pce_graph::reach::CycleUnionWorkspace;
use pce_graph::{EdgeId, TemporalGraph, TimeWindow, Timestamp, VertexId};

struct TemporalSearch<'a, S> {
    graph: &'a TemporalGraph,
    sink: &'a HaltingSink<'a, S>,
    opts: &'a TemporalCycleOptions,
    union: &'a CycleUnionWorkspace,
    v0: VertexId,
    t_end: Timestamp,
    /// The path, its edges and its marks, in the worker's scratch.
    buf: &'a mut Buffers<'static>,
    /// Edge visits and recursive calls so far, flushed once per root.
    visits: u64,
    calls: u64,
}

impl<S: CycleSink> TemporalSearch<'_, S> {
    /// Depth-first extension of the current temporal path; `arrival` is the
    /// timestamp of the last edge on the path, so the next edge must be
    /// strictly later.
    fn extend(&mut self, v: VertexId, arrival: Timestamp) {
        self.calls += 1;
        let graph = self.graph;
        let window = TimeWindow::new(arrival.saturating_add(1), self.t_end);
        for &entry in graph.out_edges_in_window(v, window) {
            if self.sink.stopped() {
                return;
            }
            self.visits += 1;
            let w = entry.neighbor;
            let buf = &mut *self.buf;
            if w == self.v0 {
                if self.opts.len_ok(buf.path_edges.len() + 1) {
                    buf.path_edges.push(entry.edge);
                    self.sink.push(&buf.path, &buf.path_edges);
                    buf.path_edges.pop();
                }
                continue;
            }
            if buf.on_path.contains(w)
                || !self.union.in_union(w)
                || !self.union.can_close_after(w, entry.ts)
                || !self.opts.len_ok(buf.path_edges.len() + 2)
            {
                continue;
            }
            buf.path.push(w);
            buf.path_edges.push(entry.edge);
            buf.on_path.insert(w);
            self.extend(w, entry.ts);
            let buf = &mut *self.buf;
            buf.on_path.remove(w);
            buf.path_edges.pop();
            buf.path.pop();
        }
    }
}

/// Runs the temporal search rooted at edge `root`.
pub(crate) fn temporal_root<S: CycleSink>(
    graph: &TemporalGraph,
    root: EdgeId,
    opts: &TemporalCycleOptions,
    scratch: &mut RootScratch,
    sink: &HaltingSink<'_, S>,
    metrics: &WorkMetrics,
    worker: usize,
) {
    let e0 = graph.edge(root);
    if e0.src == e0.dst {
        // Self-loops are degenerate temporal cycles of length 1 and are not
        // reported, matching the simple-cycle default.
        return;
    }
    let RootScratch { union, search, .. } = scratch;
    if !metrics.counted_union_pass(worker, union, |u| {
        u.compute_temporal(graph, root, opts.window_delta)
    }) {
        return;
    }
    search.start(&[e0.src, e0.dst], &[root]);
    let mut search = TemporalSearch {
        graph,
        sink,
        opts,
        union,
        v0: e0.src,
        t_end: e0.ts.saturating_add(opts.window_delta),
        buf: search,
        visits: 0,
        calls: 0,
    };
    search.extend(e0.dst, e0.ts);
    metrics.add_search_work(worker, search.visits, search.calls);
}

/// Sequential temporal-cycle enumeration using the scalable per-root
/// preprocessing of §7.
pub fn temporal_simple<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &TemporalCycleOptions,
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
            temporal_root(graph, root, opts, &mut scratch, &sink, &metrics, 0);
        }
    })
    .tagged(Algorithm::Johnson, Granularity::Sequential)
}

/// The 2SCENT-style serial baseline of Kumar and Calders used as the
/// reference point of the paper's Figure 9.
///
/// Algorithmically it performs the same rooted temporal searches with
/// closing-time pruning, but the driver is strictly sequential: root edges are
/// processed one by one in ascending timestamp order and the reachability
/// preprocessing for root *i+1* is only started after the search for root *i*
/// finished — exactly the dependency structure that makes the original
/// 2SCENT preprocessing impossible to parallelise and motivates the paper's
/// replacement preprocessing.
pub fn two_scent_baseline<S: CycleSink>(
    graph: &TemporalGraph,
    opts: &TemporalCycleOptions,
    sink: &S,
) -> RunStats {
    let metrics = WorkMetrics::new(1);
    let sink = HaltingSink::new(sink);
    timed_run(&sink, &metrics, 1, || {
        let mut scratch = RootScratch::new(graph.num_vertices());
        // Root edges are already stored in ascending (timestamp, id) order, so
        // iterating ids ascending is the timestamp-ordered sweep of 2SCENT.
        for root in 0..graph.num_edges() as EdgeId {
            if sink.stopped() {
                break;
            }
            temporal_root(graph, root, opts, &mut scratch, &sink, &metrics, 0);
        }
    })
    .tagged(Algorithm::Johnson, Granularity::Sequential)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{CollectingSink, CountingSink};
    use pce_graph::generators::{self, RandomTemporalConfig, TransactionRingConfig};
    use pce_graph::GraphBuilder;

    // The brute-force oracle that used to live here moved to the shared
    // differential-test module; see `crate::testing::oracle_temporal`.
    use crate::testing::oracle_temporal;

    #[test]
    fn directed_cycle_is_a_temporal_cycle() {
        let g = generators::directed_cycle(5);
        let sink = CountingSink::new();
        temporal_simple(&g, &TemporalCycleOptions::with_window(100), &sink);
        assert_eq!(sink.count(), 1);
    }

    #[test]
    fn non_increasing_timestamps_are_rejected() {
        // Triangle with timestamps (1, 3, 2) in traversal order: no rotation
        // of the cycle has strictly increasing timestamps, so it is a simple
        // cycle but not a temporal one.
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 2, 3)
            .add_edge(2, 0, 2)
            .build();
        let sink = CountingSink::new();
        temporal_simple(&g, &TemporalCycleOptions::with_window(100), &sink);
        assert_eq!(sink.count(), 0);

        // A 2-cycle with distinct timestamps, by contrast, can always be
        // rooted at its earlier edge and is therefore temporal.
        let g = GraphBuilder::new()
            .add_edge(0, 1, 5)
            .add_edge(1, 0, 3)
            .build();
        let sink = CountingSink::new();
        temporal_simple(&g, &TemporalCycleOptions::with_window(100), &sink);
        assert_eq!(sink.count(), 1);
    }

    #[test]
    fn window_constraint_limits_cycles() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 0)
            .add_edge(1, 2, 10)
            .add_edge(2, 0, 20)
            .build();
        let tight = CountingSink::new();
        temporal_simple(&g, &TemporalCycleOptions::with_window(15), &tight);
        assert_eq!(tight.count(), 0);
        let wide = CountingSink::new();
        temporal_simple(&g, &TemporalCycleOptions::with_window(20), &wide);
        assert_eq!(wide.count(), 1);
    }

    #[test]
    fn equal_timestamps_do_not_chain() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 5)
            .add_edge(1, 2, 5)
            .add_edge(2, 0, 6)
            .build();
        let sink = CountingSink::new();
        temporal_simple(&g, &TemporalCycleOptions::with_window(100), &sink);
        assert_eq!(sink.count(), 0);
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..8 {
            let g = generators::uniform_temporal(RandomTemporalConfig {
                num_vertices: 12,
                num_edges: 60,
                time_span: 40,
                seed: 500 + seed,
            });
            for delta in [10, 25, 60] {
                let sink = CollectingSink::new();
                temporal_simple(&g, &TemporalCycleOptions::with_window(delta), &sink);
                let expected = oracle_temporal(&g, delta);
                assert_eq!(
                    sink.canonical_cycles(),
                    expected,
                    "seed {seed} delta {delta}"
                );
            }
        }
    }

    #[test]
    fn reported_cycles_are_temporal_and_within_window() {
        let g = generators::power_law_temporal(RandomTemporalConfig {
            num_vertices: 60,
            num_edges: 300,
            time_span: 200,
            seed: 9,
        });
        let delta = 80;
        let sink = CollectingSink::new();
        temporal_simple(&g, &TemporalCycleOptions::with_window(delta), &sink);
        for c in sink.canonical_cycles() {
            c.validate(&g).expect("valid cycle");
            assert!(c.is_temporal(&g), "timestamps must strictly increase");
            assert!(c.time_span(&g) <= delta);
        }
    }

    #[test]
    fn planted_transaction_rings_are_found() {
        let cfg = TransactionRingConfig {
            num_accounts: 200,
            background_edges: 400,
            num_rings: 8,
            ring_len: (3, 5),
            time_span: 1_000_000,
            ring_span: 2_000,
            seed: 21,
        };
        let (g, planted) = generators::transaction_rings(cfg);
        let sink = CountingSink::new();
        temporal_simple(&g, &TemporalCycleOptions::with_window(cfg.ring_span), &sink);
        assert!(
            sink.count() >= planted as u64,
            "expected at least {planted} planted rings, found {}",
            sink.count()
        );
    }

    #[test]
    fn max_len_constraint() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 0, 2)
            .add_edge(1, 2, 3)
            .add_edge(2, 0, 4)
            .build();
        let all = CountingSink::new();
        temporal_simple(&g, &TemporalCycleOptions::with_window(100), &all);
        assert_eq!(all.count(), 2);
        let short = CountingSink::new();
        temporal_simple(
            &g,
            &TemporalCycleOptions::with_window(100).max_len(2),
            &short,
        );
        assert_eq!(short.count(), 1);
    }

    #[test]
    fn baseline_matches_scalable_sequential() {
        let g = generators::uniform_temporal(RandomTemporalConfig {
            num_vertices: 25,
            num_edges: 150,
            time_span: 80,
            seed: 4242,
        });
        let opts = TemporalCycleOptions::with_window(30);
        let a = CollectingSink::new();
        temporal_simple(&g, &opts, &a);
        let b = CollectingSink::new();
        two_scent_baseline(&g, &opts, &b);
        assert_eq!(a.canonical_cycles(), b.canonical_cycles());
    }

    #[test]
    fn parallel_temporal_edges_counted_separately() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 0, 5)
            .add_edge(1, 0, 7)
            .build();
        let sink = CountingSink::new();
        temporal_simple(&g, &TemporalCycleOptions::with_window(100), &sink);
        assert_eq!(sink.count(), 2);
    }
}
