//! Path bundling for temporal-cycle counting (§7).
//!
//! 2SCENT's *path bundles* let a single search step traverse all parallel
//! edges between two vertices at once: instead of branching per temporal edge,
//! the search branches per neighbouring **vertex** and carries, for every
//! reachable arrival time, the number of strictly-increasing timestamp
//! assignments that realise it. A cycle of vertices then contributes the
//! number of increasing sequences through its per-hop timestamp lists, which
//! is computed by a running prefix-sum DP instead of explicit enumeration.
//!
//! Bundling only accelerates *counting* (the individual cycles are not
//! materialised); [`bundled_temporal_count`] therefore returns a count, and
//! the test suite checks it against the unbundled enumerators. Graphs with
//! many parallel transactions between the same accounts (the financial
//! workloads that motivate the paper) are exactly where this matters.

use crate::metrics::{RunStats, WorkMetrics};
use crate::options::TemporalCycleOptions;
use crate::seq::{timed_run, RootScratch};
use crate::util::{fx_set, FxHashSet};
use pce_graph::reach::CycleUnionWorkspace;
use pce_graph::{EdgeId, TemporalGraph, TimeWindow, Timestamp, VertexId};
use std::sync::atomic::{AtomicU64, Ordering};

/// A multiset of possible arrival times at the current vertex, with the number
/// of strictly-increasing edge choices that realise each. Kept sorted by time.
type ArrivalProfile = Vec<(Timestamp, u64)>;

/// Given the arrival profile at `v` and the sorted timestamps of the bundle
/// `v → w`, computes the arrival profile at `w`: for every bundle timestamp
/// `t`, the number of ways is the number of ways to arrive at `v` strictly
/// before `t`.
fn advance_profile(profile: &ArrivalProfile, bundle_ts: &[Timestamp]) -> ArrivalProfile {
    let mut out = Vec::with_capacity(bundle_ts.len());
    let mut prefix = 0u64;
    let mut idx = 0usize;
    for &t in bundle_ts {
        while idx < profile.len() && profile[idx].0 < t {
            prefix += profile[idx].1;
            idx += 1;
        }
        if prefix > 0 {
            out.push((t, prefix));
        }
    }
    out
}

struct BundledSearch<'a> {
    graph: &'a TemporalGraph,
    opts: &'a TemporalCycleOptions,
    union: &'a CycleUnionWorkspace,
    root: EdgeId,
    v0: VertexId,
    t_end: Timestamp,
    on_path: FxHashSet<VertexId>,
    total: &'a AtomicU64,
    /// Edge visits and recursive calls so far, flushed once per root.
    visits: u64,
    calls: u64,
}

impl BundledSearch<'_> {
    /// Sorted timestamps of admissible edges `v → w` later than `after`.
    fn bundle(&self, v: VertexId, w: VertexId, after: Timestamp) -> Vec<Timestamp> {
        let window = TimeWindow::new(after.saturating_add(1), self.t_end);
        let mut ts: Vec<Timestamp> = self
            .graph
            .out_edges_in_window(v, window)
            .iter()
            .filter(|e| e.neighbor == w && e.edge > self.root)
            .map(|e| e.ts)
            .collect();
        ts.sort_unstable();
        ts
    }

    fn extend(&mut self, v: VertexId, profile: &ArrivalProfile, depth: usize) {
        self.calls += 1;
        let min_arrival = match profile.first() {
            Some(&(t, _)) => t,
            None => return,
        };
        // Distinct successor vertices reachable by at least one admissible
        // edge strictly later than the earliest arrival.
        let window = TimeWindow::new(min_arrival.saturating_add(1), self.t_end);
        let mut successors: Vec<VertexId> = Vec::new();
        for entry in self.graph.out_edges_in_window(v, window) {
            self.visits += 1;
            if entry.edge <= self.root {
                continue;
            }
            let w = entry.neighbor;
            if (w == self.v0 || (self.union.in_union(w) && !self.on_path.contains(&w)))
                && !successors.contains(&w)
            {
                successors.push(w);
            }
        }
        for w in successors {
            let bundle = self.bundle(v, w, min_arrival);
            if bundle.is_empty() {
                continue;
            }
            let next_profile = advance_profile(profile, &bundle);
            if next_profile.is_empty() {
                continue;
            }
            if w == self.v0 {
                if self.opts.len_ok(depth + 1) {
                    let ways: u64 = next_profile.iter().map(|&(_, c)| c).sum();
                    self.total.fetch_add(ways, Ordering::Relaxed);
                }
                continue;
            }
            if !self.opts.len_ok(depth + 2) {
                continue;
            }
            self.on_path.insert(w);
            self.extend(w, &next_profile, depth + 1);
            self.on_path.remove(&w);
        }
    }
}

/// Counts all temporal cycles within the window using path bundling. Returns
/// the count together with run statistics; the count equals what
/// [`crate::seq::temporal::temporal_simple`] would report, but parallel
/// temporal edges between the same endpoints are handled by a counting DP
/// instead of explicit branching.
pub fn bundled_temporal_count(
    graph: &TemporalGraph,
    opts: &TemporalCycleOptions,
) -> (u64, RunStats) {
    let metrics = WorkMetrics::new(1);
    let total = AtomicU64::new(0);
    let sink = crate::cycle::CountingSink::new();
    let halting = crate::cycle::HaltingSink::new(&sink);
    let stats = timed_run(&halting, &metrics, 1, || {
        let mut scratch = RootScratch::new(graph.num_vertices());
        for root in 0..graph.num_edges() as EdgeId {
            let e0 = graph.edge(root);
            if e0.src == e0.dst {
                continue;
            }
            if !metrics.counted_union_pass(0, &mut scratch.union, |u| {
                u.compute_temporal(graph, root, opts.window_delta)
            }) {
                continue;
            }
            let mut on_path = fx_set();
            on_path.insert(e0.src);
            on_path.insert(e0.dst);
            let mut search = BundledSearch {
                graph,
                opts,
                union: &scratch.union,
                root,
                v0: e0.src,
                t_end: e0.ts.saturating_add(opts.window_delta),
                on_path,
                total: &total,
                visits: 0,
                calls: 0,
            };
            let profile = vec![(e0.ts, 1u64)];
            search.extend(e0.dst, &profile, 1);
            metrics.add_search_work(0, search.visits, search.calls);
        }
    });
    let mut stats = stats;
    stats.cycles = total.load(Ordering::Relaxed);
    (stats.cycles, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{CountingSink, CycleSink};
    use crate::seq::temporal::temporal_simple;
    use pce_graph::generators::{self, RandomTemporalConfig, TransactionRingConfig};
    use pce_graph::GraphBuilder;

    #[test]
    fn advance_profile_counts_increasing_choices() {
        let profile = vec![(1, 1), (3, 2)];
        // Bundle timestamps 2 and 5: at t=2 only the t=1 arrival counts (1);
        // at t=5 both arrivals count (1 + 2 = 3).
        let out = advance_profile(&profile, &[2, 5]);
        assert_eq!(out, vec![(2, 1), (5, 3)]);
        assert!(advance_profile(&profile, &[0, 1]).is_empty());
    }

    #[test]
    fn single_cycle_counts_once() {
        let g = generators::directed_cycle(5);
        let (count, stats) = bundled_temporal_count(&g, &TemporalCycleOptions::with_window(100));
        assert_eq!(count, 1);
        assert_eq!(stats.cycles, 1);
    }

    #[test]
    fn parallel_edges_multiply_correctly() {
        // Two choices on the first hop (after the root) and three on the
        // second, but only increasing assignments count.
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1) // root
            .add_edge(1, 2, 2)
            .add_edge(1, 2, 4)
            .add_edge(2, 0, 3)
            .add_edge(2, 0, 5)
            .add_edge(2, 0, 6)
            .build();
        let opts = TemporalCycleOptions::with_window(100);
        let (count, _) = bundled_temporal_count(&g, &opts);
        let sink = CountingSink::new();
        temporal_simple(&g, &opts, &sink);
        assert_eq!(count, sink.count());
        // (1,2,3),(1,2,5),(1,2,6),(1,4,5),(1,4,6) = 5 assignments.
        assert_eq!(count, 5);
    }

    #[test]
    fn matches_unbundled_on_random_multigraphs() {
        for seed in 0..6 {
            let g = generators::uniform_temporal(RandomTemporalConfig {
                num_vertices: 10,
                num_edges: 80,
                time_span: 25,
                seed: 700 + seed,
            });
            for delta in [10, 25] {
                let opts = TemporalCycleOptions::with_window(delta);
                let (count, _) = bundled_temporal_count(&g, &opts);
                let sink = CountingSink::new();
                temporal_simple(&g, &opts, &sink);
                assert_eq!(count, sink.count(), "seed {seed} delta {delta}");
            }
        }
    }

    #[test]
    fn matches_unbundled_on_transaction_graph() {
        let (g, _) = generators::transaction_rings(TransactionRingConfig {
            num_accounts: 60,
            background_edges: 250,
            num_rings: 6,
            ring_len: (3, 4),
            time_span: 50_000,
            ring_span: 1_500,
            seed: 8,
        });
        let opts = TemporalCycleOptions::with_window(1_500);
        let (count, _) = bundled_temporal_count(&g, &opts);
        let sink = CountingSink::new();
        temporal_simple(&g, &opts, &sink);
        assert_eq!(count, sink.count());
    }

    #[test]
    fn respects_max_len() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 0, 2)
            .add_edge(1, 2, 3)
            .add_edge(2, 0, 4)
            .build();
        let (count, _) =
            bundled_temporal_count(&g, &TemporalCycleOptions::with_window(100).max_len(2));
        assert_eq!(count, 1);
    }
}
