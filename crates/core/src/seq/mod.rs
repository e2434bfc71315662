//! Sequential enumeration algorithms: Tiernan (brute force), Johnson,
//! Read-Tarjan and the temporal-cycle DFS (the 2SCENT-style baseline).
//!
//! Every algorithm is organised around *rooted searches*: the graph's edges
//! are processed in ascending `(timestamp, id)` order, and the search rooted
//! at edge `e = v0 → v1` enumerates exactly the cycles whose minimum edge is
//! `e` (all other edges must come strictly after `e` and lie within the time
//! window anchored at `e`). Processing every edge therefore enumerates every
//! cycle exactly once — sequentially here, and in parallel (one task per root,
//! or finer) in [`crate::par`].

pub mod johnson;
pub mod read_tarjan;
pub mod temporal;
pub mod tiernan;

use crate::cycle::{CycleSink, HaltingSink};
use crate::metrics::{RunStats, WorkMetrics};
use crate::options::SimpleCycleOptions;
use pce_graph::{EdgeId, TemporalGraph};
use std::time::Instant;

/// A per-worker scratch area reused across rooted searches: the cycle-union
/// workspace, the in-place search's path and frame buffers, and Johnson's and
/// Read-Tarjan's marks. Each sequential run owns one; parallel runs own one per worker.
/// Every per-vertex array in it is epoch-stamped, so reuse costs nothing.
#[derive(Debug)]
pub struct RootScratch {
    /// Cycle-union / reachability workspace (epoch-stamped, reused per root).
    pub union: pce_graph::reach::CycleUnionWorkspace,
    /// The path, path marks and frames of the in-place searches (the split
    /// skeleton, Johnson and the sequential temporal search), kept between
    /// runs so that a long-lived engine allocates none per root.
    pub(crate) search: crate::par::split::Buffers<'static>,
    /// Johnson's blocked set, unblock lists and frames.
    pub(crate) johnson: johnson::JohnsonMarks,
    /// Read-Tarjan's per-call avoid marks and probe buffers.
    pub(crate) rt: read_tarjan::RtMarks,
}

impl RootScratch {
    /// Creates scratch buffers for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        let mut scratch = Self {
            union: pce_graph::reach::CycleUnionWorkspace::new(n),
            search: Default::default(),
            johnson: Default::default(),
            rt: Default::default(),
        };
        scratch.ensure_vertices(n);
        scratch
    }

    /// Grows the scratch to cover `n` vertices (no-op when already large
    /// enough). Lets long-lived owners — the streaming engine keeps one
    /// scratch across every ingest — track a growing vertex set without
    /// reallocating per run.
    pub fn ensure_vertices(&mut self, n: usize) {
        self.union.ensure_vertices(n);
        self.search.on_path.ensure_vertices(n);
        self.johnson.ensure_vertices(n);
        self.rt.ensure_vertices(n);
    }

    /// Moves every epoch-stamped mark of the search buffers two clears
    /// before its wrap-around, with stale stamps of epoch `stale` on every
    /// vertex (see `VertexMarks::skip_to_epoch_wrap`).
    #[cfg(test)]
    pub(crate) fn skip_to_epoch_wrap(&mut self, stale: u32) {
        self.search.on_path.skip_to_epoch_wrap(stale);
        self.johnson.skip_to_epoch_wrap(stale);
        self.rt.skip_to_epoch_wrap(stale);
    }

    /// The epochs of the path marks, Read-Tarjan's avoid marks and its probe
    /// marks, and Johnson's blocked set and list stamps: small again once
    /// they wrapped.
    #[cfg(test)]
    pub(crate) fn mark_epochs(&self) -> [u32; 5] {
        let [avoid, visited] = self.rt.epochs();
        let [blocked, listed] = self.johnson.epochs();
        [self.search.on_path.epoch(), avoid, visited, blocked, listed]
    }
}

/// Handles a self-loop root edge: reports it if the options allow self-loops.
/// Returns `true` if the edge was a self-loop (and therefore fully handled).
pub(crate) fn handle_self_loop_root<S: CycleSink>(
    graph: &TemporalGraph,
    root: EdgeId,
    opts: &SimpleCycleOptions,
    sink: &HaltingSink<'_, S>,
) -> bool {
    let e = graph.edge(root);
    if e.src != e.dst {
        return false;
    }
    if opts.include_self_loops && opts.len_ok(1) {
        sink.push(&[e.src], &[root]);
    }
    true
}

/// Convenience used by the public entry points: time `body`, then assemble
/// [`RunStats`] from the sink and metrics.
pub(crate) fn timed_run<S: CycleSink>(
    sink: &HaltingSink<'_, S>,
    metrics: &WorkMetrics,
    threads: usize,
    body: impl FnOnce(),
) -> RunStats {
    let start = Instant::now();
    body();
    RunStats {
        cycles: sink.count(),
        wall_secs: start.elapsed().as_secs_f64(),
        work: metrics.snapshot(),
        threads,
        ..RunStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::johnson::johnson_root;
    use super::read_tarjan::read_tarjan_root;
    use super::temporal::temporal_root;
    use super::*;
    use crate::cycle::{CollectingSink, Cycle};
    use crate::delta::{self, DeltaKind, DeltaPlan, Schedule};
    use crate::options::TemporalCycleOptions;
    use pce_graph::generators::{self, RandomTemporalConfig};
    use pce_graph::CyclePredicate;

    /// The cycles and deterministic work counters of one run.
    type Outcome = (Vec<Cycle>, [u64; 5]);

    fn outcome(sink: &CollectingSink, stats: &RunStats) -> Outcome {
        let w = &stats.work;
        let counters = [
            w.total_edge_visits(),
            w.total_recursive_calls(),
            w.total_copies(),
            w.total_union_members(),
            w.total_unblocks(),
        ];
        (sink.canonical_cycles(), counters)
    }

    /// Runs `per_root` over every root of `graph` on `scratch`.
    fn sweep(
        graph: &TemporalGraph,
        scratch: &mut RootScratch,
        per_root: impl Fn(EdgeId, &mut RootScratch, &HaltingSink<'_, CollectingSink>, &WorkMetrics),
    ) -> Outcome {
        let sink = CollectingSink::new();
        let halting = HaltingSink::new(&sink);
        let metrics = WorkMetrics::new(1);
        let stats = timed_run(&halting, &metrics, 1, || {
            for root in 0..graph.num_edges() as EdgeId {
                per_root(root, scratch, &halting, &metrics);
            }
        });
        outcome(&sink, &stats)
    }

    /// Every kernel that keeps epoch-stamped marks in the scratch gives the
    /// same cycles and counters when its marks wrap around mid-run as on a
    /// fresh scratch. The skip leaves stale stamps of one small epoch on
    /// every vertex, for the restarted epochs to collide with if the wrap did
    /// not clear them; each of the first eight epochs after the wrap gets
    /// its turn. Which early searches such a collision would change depends
    /// on the graph, so there are two: a sparse power-law graph and a dense
    /// uniform one.
    #[test]
    fn searches_across_the_epoch_wrap_match_a_fresh_scratch() {
        let sparse = generators::power_law_temporal(RandomTemporalConfig {
            num_vertices: 30,
            num_edges: 200,
            time_span: 80,
            seed: 71,
        });
        let dense = generators::uniform_temporal(RandomTemporalConfig {
            num_vertices: 12,
            num_edges: 160,
            time_span: 60,
            seed: 71,
        });
        check_epoch_wrap(&sparse, 30, 40);
        check_epoch_wrap(&dense, 12, 20);
    }

    fn check_epoch_wrap(g: &TemporalGraph, simple_delta: i64, temporal_delta: i64) {
        let n = g.num_vertices();
        let simple = SimpleCycleOptions::with_window(simple_delta);
        let temporal = TemporalCycleOptions::with_window(temporal_delta);
        // Which of `RootScratch::mark_epochs` each kernel advances.
        type Kernel<'a> = Box<dyn Fn(&mut RootScratch) -> Outcome + 'a>;
        let kernels: [(&str, Kernel<'_>, &[usize]); 5] = [
            (
                "johnson",
                Box::new(|scratch: &mut RootScratch| {
                    sweep(g, scratch, |root, scratch, sink, metrics| {
                        johnson_root(g, root, &simple, scratch, sink, metrics, 0, |_| {})
                    })
                }),
                &[0, 3, 4],
            ),
            (
                "read_tarjan",
                Box::new(|scratch: &mut RootScratch| {
                    sweep(g, scratch, |root, scratch, sink, metrics| {
                        read_tarjan_root(g, root, &simple, scratch, sink, metrics, 0, |_| {})
                    })
                }),
                &[1, 2],
            ),
            (
                "temporal",
                Box::new(|scratch: &mut RootScratch| {
                    sweep(g, scratch, |root, scratch, sink, metrics| {
                        temporal_root(g, root, &temporal, scratch, sink, metrics, 0)
                    })
                }),
                &[0],
            ),
            (
                "delta simple",
                Box::new(|scratch: &mut RootScratch| {
                    delta_sweep(g, scratch, DeltaKind::Simple(simple))
                }),
                &[0],
            ),
            (
                "delta temporal",
                Box::new(|scratch: &mut RootScratch| {
                    delta_sweep(g, scratch, DeltaKind::Temporal(temporal))
                }),
                &[0],
            ),
        ];
        for (label, kernel, marks) in kernels {
            let fresh = kernel(&mut RootScratch::new(n));
            assert!(fresh.0.len() >= 5, "{label}: too few cycles to test");
            for stale in 1..=8 {
                let mut scratch = RootScratch::new(n);
                scratch.skip_to_epoch_wrap(stale);
                assert_eq!(kernel(&mut scratch), fresh, "{label} stale {stale}");
                let epochs = scratch.mark_epochs();
                for &m in marks {
                    assert!(epochs[m] < u32::MAX - 1, "{label}: marks {m} did not wrap");
                }
            }
        }
    }

    fn delta_sweep(g: &TemporalGraph, scratch: &mut RootScratch, kind: DeltaKind) -> Outcome {
        let plan = DeltaPlan {
            kind,
            predicate: CyclePredicate::pass_all(),
        };
        let sink = CollectingSink::new();
        let mut scratches = vec![std::mem::replace(scratch, RootScratch::new(0))];
        let roots = 0..g.num_edges() as EdgeId;
        let stats = delta::run(&plan, Schedule::Sequential, g, roots, &sink, &mut scratches);
        *scratch = scratches.pop().expect("one scratch");
        outcome(&sink, &stats)
    }
}
