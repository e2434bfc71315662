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
/// workspace plus the in-place search's path and frame buffers. Each
/// sequential run owns one; parallel runs own one per worker.
#[derive(Debug)]
pub struct RootScratch {
    /// Cycle-union / reachability workspace (epoch-stamped, reused per root).
    pub union: pce_graph::reach::CycleUnionWorkspace,
    /// The delta search's buffers, kept between runs so that a long-lived
    /// engine allocates none per root.
    pub(crate) search: crate::par::split::Buffers<'static>,
}

impl RootScratch {
    /// Creates scratch buffers for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            union: pce_graph::reach::CycleUnionWorkspace::new(n),
            search: Default::default(),
        }
    }

    /// Grows the scratch to cover `n` vertices (no-op when already large
    /// enough). Lets long-lived owners — the streaming engine keeps one
    /// scratch across every ingest — track a growing vertex set without
    /// reallocating per run.
    pub fn ensure_vertices(&mut self, n: usize) {
        self.union.ensure_vertices(n);
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
