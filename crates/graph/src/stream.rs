//! Incremental sliding-window graph ingest for streaming enumeration.
//!
//! The paper's motivating workload is cycle detection over *continuously
//! arriving* temporal edges (fraud rings in transaction streams).
//! [`SlidingWindowGraph`] is the ingest side of that pipeline: it accepts
//! edge **batches** in non-decreasing timestamp order, keeps only the edges of
//! a sliding time window `[watermark - retention : watermark]`, and maintains
//! the same time-indexed adjacency the enumeration algorithms use — without
//! rebuilding anything per batch.
//!
//! # Why appends are cheap
//!
//! The enumeration algorithms rely on two ordering invariants (see
//! [`crate::view::GraphView`]): edge ids ascend with timestamps, and
//! per-vertex adjacency is sorted by `(ts, edge)`. A stream delivers edges
//! in timestamp order, so a new batch is always an **id suffix**: appending
//! it to the edge array and to the tail of each endpoint's adjacency list
//! preserves both invariants with no sorting or rebuilding. Only the batch
//! itself is sorted (`O(b log b)` for a batch of `b` edges); ingest is
//! `O(b)` beyond that. Note that unlike [`crate::GraphBuilder`], ids here
//! refine `(ts, arrival order)`, not `(ts, src, dst)`: equal-timestamp edges
//! in *different* batches keep arrival order — which is all the enumerators
//! need.
//!
//! # Expiry and compaction
//!
//! Expired edges (timestamp before the window start) are first retired
//! *logically*: a cursor marks the dead prefix of the edge array, and the
//! time-windowed accessors of [`GraphView`] simply never look below the
//! window start. Physical removal is deferred until more than half of the
//! stored edges are dead, at which point one `O(live)` compaction drops the
//! prefix and re-bases the dense edge ids — amortised `O(1)` per edge over
//! the stream's lifetime.
//!
//! Because compaction re-bases ids, the dense edge ids (and the
//! [`DeltaBatch::roots`] range returned by [`SlidingWindowGraph::append_batch`])
//! are only stable **until the next append**. The streaming engine in
//! `pce-core` runs its delta query between appends and resolves cycles to
//! concrete [`TemporalEdge`]s immediately, so nothing outlives a batch.

use crate::builder::GraphBuilder;
use crate::temporal::{AdjEntry, TemporalGraph};
use crate::types::{EdgeId, TemporalEdge, Timestamp, VertexId};
use crate::view::GraphView;
use crate::window::TimeWindow;
use std::ops::Range;

/// Errors produced by the streaming ingest path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A batch contained an edge with a timestamp below the stream's
    /// watermark (the largest timestamp ever ingested). Batches must arrive
    /// in non-decreasing timestamp order; edges *within* a batch may be in
    /// any order.
    OutOfOrder {
        /// The offending edge's timestamp.
        ts: Timestamp,
        /// The stream's watermark at the time of the append.
        watermark: Timestamp,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::OutOfOrder { ts, watermark } => write!(
                f,
                "out-of-order edge: timestamp {ts} is below the stream watermark {watermark}"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

/// What one [`SlidingWindowGraph::append_batch`] call did: the id range of
/// the appended edges (the **delta roots** for incremental enumeration), the
/// window after the append, and ingest/expiry counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaBatch {
    /// Dense ids assigned to the appended edges, in ascending `(ts, src,
    /// dst)` order. Valid until the next append (compaction re-bases ids).
    pub roots: Range<EdgeId>,
    /// The live window `[watermark - retention : watermark]` after the
    /// append; `None` while the graph has no watermark yet (an empty batch on
    /// a never-ingested graph) — see [`SlidingWindowGraph::window`].
    pub window: Option<TimeWindow>,
    /// Number of edges appended by this batch.
    pub appended: usize,
    /// Number of edges that expired out of the window during this append
    /// (possibly including edges of this very batch, when a batch straddles
    /// more than the retention span).
    pub expired: usize,
}

/// A directed temporal multigraph over a sliding time window, maintained
/// incrementally from timestamp-ordered edge batches.
///
/// See the [module docs](self) for the design. The graph implements
/// [`GraphView`], so the delta-enumeration path in `pce-core` runs on it
/// directly; [`SlidingWindowGraph::snapshot`] materialises the current window
/// as an immutable CSR [`TemporalGraph`] for one-shot queries and
/// verification.
///
/// # Example
/// ```
/// use pce_graph::stream::SlidingWindowGraph;
/// use pce_graph::TemporalEdge;
///
/// let mut g = SlidingWindowGraph::new(100);
/// let batch = g
///     .append_batch(&[TemporalEdge::new(0, 1, 10), TemporalEdge::new(1, 0, 20)])
///     .unwrap();
/// assert_eq!(batch.appended, 2);
/// assert_eq!(g.live_edges().len(), 2);
///
/// // Much later edges slide the window forward and expire the old ones.
/// g.append_batch(&[TemporalEdge::new(2, 3, 500)]).unwrap();
/// assert_eq!(g.live_edges().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindowGraph {
    retention: Timestamp,
    /// All stored edges in id order: timestamps non-decreasing, sorted by
    /// `(ts, src, dst)` within a batch, arrival-ordered across batches;
    /// the prefix `[..expired]` is logically dead (below the window start).
    edges: Vec<TemporalEdge>,
    expired: usize,
    /// Per-vertex out- and in-lists, indexed by vertex id and sorted by
    /// `(ts, edge)`.
    out_adj: Vec<Vec<AdjEntry>>,
    in_adj: Vec<Vec<AdjEntry>>,
    /// Largest timestamp ever ingested; `Timestamp::MIN` before any append.
    watermark: Timestamp,
    total_ingested: u64,
    total_expired: u64,
}

impl SlidingWindowGraph {
    /// Creates an empty sliding-window graph that retains edges with
    /// timestamps in `[watermark - retention : watermark]`.
    ///
    /// # Panics
    /// Panics if `retention < 0` (a negative retention would make every edge
    /// expire the moment it arrives).
    pub fn new(retention: Timestamp) -> Self {
        assert!(retention >= 0, "retention must be non-negative");
        Self {
            retention,
            edges: Vec::new(),
            expired: 0,
            out_adj: Vec::new(),
            in_adj: Vec::new(),
            watermark: Timestamp::MIN,
            total_ingested: 0,
            total_expired: 0,
        }
    }

    /// The retention span `R`: edges live while their timestamp is at least
    /// `watermark - R`.
    #[inline]
    pub fn retention(&self) -> Timestamp {
        self.retention
    }

    /// The largest timestamp ever ingested (`Timestamp::MIN` before the
    /// first append).
    #[inline]
    pub fn watermark(&self) -> Timestamp {
        self.watermark
    }

    /// The live window `[watermark - retention : watermark]` (closed on both
    /// ends), or `None` before the first edge has been ingested — there is
    /// no watermark yet, so no window exists. (This used to return the bogus
    /// sentinel `[i64::MIN : i64::MIN]`, which *contains* `i64::MIN` and
    /// read as a real window.)
    #[inline]
    pub fn window(&self) -> Option<TimeWindow> {
        (self.total_ingested > 0).then(|| {
            TimeWindow::new(
                self.watermark.saturating_sub(self.retention),
                self.watermark,
            )
        })
    }

    /// Number of vertices ever observed (vertex ids are never recycled, so
    /// this only grows).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out_adj.len()
    }

    /// The edges currently inside the window, in ascending `(ts, id)` order.
    /// The dense id of `live_edges()[i]` is `self.first_live_id() + i`.
    #[inline]
    pub fn live_edges(&self) -> &[TemporalEdge] {
        &self.edges[self.expired..]
    }

    /// The smallest dense edge id that is still inside the window.
    #[inline]
    pub fn first_live_id(&self) -> EdgeId {
        self.expired as EdgeId
    }

    /// Returns `true` if no edges are currently inside the window.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.expired == self.edges.len()
    }

    /// Total number of edges ever appended.
    #[inline]
    pub fn total_ingested(&self) -> u64 {
        self.total_ingested
    }

    /// Total number of edges that have expired out of the window.
    #[inline]
    pub fn total_expired(&self) -> u64 {
        self.total_expired
    }

    /// Appends one batch of edges and slides the window forward to the
    /// batch's largest timestamp.
    ///
    /// Every edge must have a timestamp at or above the current
    /// [`watermark`](Self::watermark) (batches arrive in stream order; edges
    /// within the batch may be unordered — they are sorted here). On success
    /// returns the [`DeltaBatch`] describing the appended id range; on an
    /// out-of-order edge returns [`StreamError::OutOfOrder`] and leaves the
    /// graph untouched.
    pub fn append_batch(&mut self, batch: &[TemporalEdge]) -> Result<DeltaBatch, StreamError> {
        // Validate before mutating anything so a failed append is a no-op.
        for e in batch {
            if e.ts < self.watermark {
                return Err(StreamError::OutOfOrder {
                    ts: e.ts,
                    watermark: self.watermark,
                });
            }
        }
        // Compact *before* assigning ids so the returned root range stays
        // valid until the next append.
        self.maybe_compact();

        if batch.is_empty() {
            let at = self.edges.len() as EdgeId;
            return Ok(DeltaBatch {
                roots: at..at,
                window: self.window(),
                appended: 0,
                expired: 0,
            });
        }

        let mut sorted: Vec<TemporalEdge> = batch.to_vec();
        // Full edge order (attributes break ties) keeps intra-batch id
        // assignment deterministic for attribute-distinct parallel edges.
        sorted.sort_unstable();

        let max_endpoint = sorted
            .iter()
            .map(|e| e.src.max(e.dst) as usize + 1)
            .max()
            .unwrap_or(0);
        if max_endpoint > self.out_adj.len() {
            self.out_adj.resize_with(max_endpoint, Vec::new);
            self.in_adj.resize_with(max_endpoint, Vec::new);
        }

        let first_id = self.edges.len();
        assert!(
            first_id + sorted.len() <= EdgeId::MAX as usize,
            "sliding window exceeds the dense edge-id space"
        );
        for (offset, e) in sorted.iter().enumerate() {
            let id = (first_id + offset) as EdgeId;
            self.out_adj[e.src as usize].push(AdjEntry {
                neighbor: e.dst,
                ts: e.ts,
                edge: id,
            });
            self.in_adj[e.dst as usize].push(AdjEntry {
                neighbor: e.src,
                ts: e.ts,
                edge: id,
            });
        }
        self.edges.extend_from_slice(&sorted);
        self.total_ingested += sorted.len() as u64;
        self.watermark = self.watermark.max(sorted.last().expect("non-empty").ts);

        // Slide the window: logically retire everything before the new start.
        let start = self.watermark.saturating_sub(self.retention);
        let newly_expired = {
            let cut = self.edges.partition_point(|e| e.ts < start);
            let newly = cut - self.expired;
            self.expired = cut;
            newly
        };
        self.total_expired += newly_expired as u64;

        Ok(DeltaBatch {
            roots: first_id as EdgeId..self.edges.len() as EdgeId,
            window: self.window(),
            appended: sorted.len(),
            expired: newly_expired,
        })
    }

    /// Materialises the current window as an immutable CSR [`TemporalGraph`]
    /// (vertex ids preserved, edge ids re-based to `0..live`). Used for
    /// one-shot queries and for verifying delta results, not on the
    /// per-batch hot path (the builder re-sorts, so this is `O(live log
    /// live)`; equal-timestamp edges from different batches may receive ids
    /// in a different relative order than here — cycle *sets* are unaffected
    /// because enumeration only relies on timestamp-refining ids).
    pub fn snapshot(&self) -> TemporalGraph {
        GraphBuilder::from_edges(self.num_vertices(), self.live_edges().to_vec()).build()
    }

    /// Physically removes the logically-expired prefix once it outweighs the
    /// live edges, re-basing dense ids. Amortised `O(1)` per ingested edge.
    fn maybe_compact(&mut self) {
        let drop = self.expired;
        if drop == 0 || drop * 2 <= self.edges.len() {
            return;
        }
        self.edges.drain(..drop);
        let drop_id = drop as EdgeId;
        for adj in self.out_adj.iter_mut().chain(self.in_adj.iter_mut()) {
            // Expired entries are exactly those with `edge < drop_id`, and
            // they form a prefix of the `(ts, edge)`-sorted list.
            let dead = adj.partition_point(|a| a.edge < drop_id);
            adj.drain(..dead);
            for a in adj.iter_mut() {
                a.edge -= drop_id;
            }
        }
        self.expired = 0;
    }

    fn window_slice(adj: &[AdjEntry], window: TimeWindow) -> &[AdjEntry] {
        let lo = adj.partition_point(|a| a.ts < window.start);
        let hi = adj.partition_point(|a| a.ts <= window.end);
        &adj[lo..hi]
    }
}

impl GraphView for SlidingWindowGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.out_adj.len()
    }

    #[inline]
    fn edge(&self, id: EdgeId) -> TemporalEdge {
        self.edges[id as usize]
    }

    #[inline]
    fn out_edges_in_window(&self, v: VertexId, window: TimeWindow) -> &[AdjEntry] {
        Self::window_slice(&self.out_adj[v as usize], window)
    }

    #[inline]
    fn in_edges_in_window(&self, v: VertexId, window: TimeWindow) -> &[AdjEntry] {
        Self::window_slice(&self.in_adj[v as usize], window)
    }

    #[inline]
    fn edge_ids_in_window(&self, window: TimeWindow) -> Range<EdgeId> {
        let lo = self.edges.partition_point(|e| e.ts < window.start) as EdgeId;
        let hi = self.edges.partition_point(|e| e.ts <= window.end) as EdgeId;
        lo..hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(list: &[(VertexId, VertexId, Timestamp)]) -> Vec<TemporalEdge> {
        list.iter()
            .map(|&(s, d, t)| TemporalEdge::new(s, d, t))
            .collect()
    }

    #[test]
    fn append_assigns_suffix_ids_in_sorted_order() {
        let mut g = SlidingWindowGraph::new(1_000);
        let b = g
            .append_batch(&edges(&[(1, 2, 10), (0, 1, 5), (2, 0, 10)]))
            .unwrap();
        assert_eq!(b.roots, 0..3);
        assert_eq!(b.appended, 3);
        assert_eq!(g.edge(0), TemporalEdge::new(0, 1, 5));
        assert_eq!(g.edge(1), TemporalEdge::new(1, 2, 10));
        assert_eq!(g.edge(2), TemporalEdge::new(2, 0, 10));
        assert_eq!(g.watermark(), 10);

        let b = g.append_batch(&edges(&[(0, 2, 12)])).unwrap();
        assert_eq!(b.roots, 3..4);
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.total_ingested(), 4);
    }

    #[test]
    fn out_of_order_batches_are_rejected_without_mutation() {
        let mut g = SlidingWindowGraph::new(100);
        g.append_batch(&edges(&[(0, 1, 50)])).unwrap();
        let err = g
            .append_batch(&edges(&[(1, 2, 60), (2, 0, 49)]))
            .unwrap_err();
        assert_eq!(
            err,
            StreamError::OutOfOrder {
                ts: 49,
                watermark: 50
            }
        );
        // The whole batch was refused, including its in-order edge.
        assert_eq!(g.live_edges().len(), 1);
        assert_eq!(g.watermark(), 50);
        // Equal-to-watermark timestamps are fine.
        assert!(g.append_batch(&edges(&[(1, 2, 50)])).is_ok());
    }

    #[test]
    fn window_slides_and_expires_old_edges() {
        let mut g = SlidingWindowGraph::new(10);
        g.append_batch(&edges(&[(0, 1, 0), (1, 0, 5)])).unwrap();
        assert_eq!(g.live_edges().len(), 2);
        let b = g.append_batch(&edges(&[(1, 2, 12)])).unwrap();
        // Window is now [2 : 12]: the t=0 edge expired, t=5 survives.
        assert_eq!(b.window, Some(TimeWindow::new(2, 12)));
        assert_eq!(b.expired, 1);
        assert_eq!(g.live_edges(), &edges(&[(1, 0, 5), (1, 2, 12)])[..]);
        assert_eq!(g.total_expired(), 1);
        assert_eq!(g.first_live_id(), 1);
    }

    #[test]
    fn batch_straddling_the_retention_span_expires_its_own_edges() {
        let mut g = SlidingWindowGraph::new(5);
        let b = g.append_batch(&edges(&[(0, 1, 0), (1, 2, 50)])).unwrap();
        // Window [45 : 50]: the t=0 edge of this very batch is already gone.
        assert_eq!(b.expired, 1);
        assert_eq!(g.live_edges(), &edges(&[(1, 2, 50)])[..]);
    }

    #[test]
    fn compaction_rebases_ids_and_preserves_adjacency() {
        let mut g = SlidingWindowGraph::new(10);
        g.append_batch(&edges(&[(0, 1, 0), (1, 0, 1), (0, 2, 2)]))
            .unwrap();
        // Slide far enough to expire everything so far.
        g.append_batch(&edges(&[(2, 0, 100), (0, 1, 101)])).unwrap();
        assert_eq!(g.live_edges().len(), 2);
        // The next append triggers compaction (3 dead > 2 live) before
        // assigning ids, so the new root range starts at the re-based end.
        let b = g.append_batch(&edges(&[(1, 2, 102)])).unwrap();
        assert_eq!(b.roots, 2..3);
        assert_eq!(g.first_live_id(), 0);
        assert_eq!(g.edge(0), TemporalEdge::new(2, 0, 100));
        assert_eq!(g.edge(2), TemporalEdge::new(1, 2, 102));
        // Adjacency ids were re-based consistently.
        let w = g.window().unwrap();
        let out0: Vec<EdgeId> = g.out_edges_in_window(0, w).iter().map(|a| a.edge).collect();
        assert_eq!(out0, vec![1]);
        for v in 0..g.num_vertices() as VertexId {
            for a in g.out_edges_in_window(v, w) {
                let e = g.edge(a.edge);
                assert_eq!((e.src, e.dst, e.ts), (v, a.neighbor, a.ts));
            }
        }
    }

    #[test]
    fn windowed_accessors_never_see_expired_edges() {
        let mut g = SlidingWindowGraph::new(10);
        g.append_batch(&edges(&[(0, 1, 0), (0, 1, 5)])).unwrap();
        g.append_batch(&edges(&[(0, 1, 14)])).unwrap();
        // Window [4 : 14]: the t=0 edge is logically dead but still stored.
        let w = g.window().unwrap();
        let out: Vec<Timestamp> = g.out_edges_in_window(0, w).iter().map(|a| a.ts).collect();
        assert_eq!(out, vec![5, 14]);
        assert_eq!(g.edge_ids_in_window(w), 1..3);
        let ins: Vec<Timestamp> = g.in_edges_in_window(1, w).iter().map(|a| a.ts).collect();
        assert_eq!(ins, vec![5, 14]);
    }

    #[test]
    fn snapshot_matches_live_window() {
        let mut g = SlidingWindowGraph::new(20);
        g.append_batch(&edges(&[(0, 1, 1), (1, 2, 2), (2, 0, 3)]))
            .unwrap();
        g.append_batch(&edges(&[(2, 3, 25)])).unwrap();
        let snap = g.snapshot();
        assert_eq!(snap.num_vertices(), g.num_vertices());
        assert_eq!(snap.edges(), g.live_edges());
    }

    #[test]
    fn equal_timestamps_across_batches_keep_arrival_id_order() {
        // A later batch may legally contain an edge with ts == watermark that
        // is (src, dst)-smaller than an already-stored edge: ids then refine
        // (ts, arrival), not (ts, src, dst). The stream invariants the
        // enumerators rely on still hold; the snapshot re-sorts, so it is
        // edge-multiset-equal rather than sequence-equal.
        let mut g = SlidingWindowGraph::new(100);
        g.append_batch(&edges(&[(5, 0, 10)])).unwrap();
        g.append_batch(&edges(&[(0, 5, 10)])).unwrap();
        assert_eq!(g.edge(0), TemporalEdge::new(5, 0, 10));
        assert_eq!(g.edge(1), TemporalEdge::new(0, 5, 10));
        // Ids ascend with (non-decreasing) timestamps...
        assert!(g.live_edges().windows(2).all(|w| w[0].ts <= w[1].ts));
        // ...and per-vertex adjacency is sorted by (ts, edge).
        let w = g.window().unwrap();
        for v in 0..g.num_vertices() as VertexId {
            for adj in [g.out_edges_in_window(v, w), g.in_edges_in_window(v, w)] {
                assert!(adj
                    .windows(2)
                    .all(|p| (p[0].ts, p[0].edge) <= (p[1].ts, p[1].edge)));
            }
        }
        let snap = g.snapshot();
        let mut live = g.live_edges().to_vec();
        live.sort();
        assert_eq!(snap.edges(), &live[..]);
    }

    #[test]
    fn empty_batches_are_noops() {
        let mut g = SlidingWindowGraph::new(10);
        let b = g.append_batch(&[]).unwrap();
        assert_eq!(b.appended, 0);
        assert_eq!(b.roots, 0..0);
        assert!(g.is_empty());
        g.append_batch(&edges(&[(0, 1, 3)])).unwrap();
        let b = g.append_batch(&[]).unwrap();
        assert_eq!(b.roots, 1..1);
        assert_eq!(b.expired, 0);
    }

    #[test]
    fn edges_exactly_at_the_window_boundary_stay_live() {
        // The window is closed on both ends: an edge with ts == watermark -
        // retention is the oldest live edge; one tick older expires.
        let mut g = SlidingWindowGraph::new(10);
        g.append_batch(&edges(&[(0, 1, 39), (1, 2, 40)])).unwrap();
        let b = g.append_batch(&edges(&[(2, 0, 50)])).unwrap();
        assert_eq!(b.window, Some(TimeWindow::new(40, 50)));
        assert_eq!(b.expired, 1, "ts=39 is exactly one tick below the boundary");
        assert_eq!(g.live_edges(), &edges(&[(1, 2, 40), (2, 0, 50)])[..]);
        // A new batch at exactly the boundary timestamp is accepted and live.
        let mut g = SlidingWindowGraph::new(10);
        g.append_batch(&edges(&[(0, 1, 50)])).unwrap();
        let b = g.append_batch(&edges(&[(1, 0, 40)])).unwrap_err();
        assert!(matches!(b, StreamError::OutOfOrder { ts: 40, .. }));
        // ...while an edge *arriving* at the watermark lands on the boundary
        // of a later window and expires exactly when the window passes it.
        g.append_batch(&edges(&[(1, 0, 50)])).unwrap();
        let b = g.append_batch(&edges(&[(2, 3, 60)])).unwrap();
        assert_eq!(b.expired, 0, "ts=50 edges sit exactly at window start 50");
        let b = g.append_batch(&edges(&[(3, 4, 61)])).unwrap();
        assert_eq!(b.expired, 2, "one tick later both boundary edges age out");
    }

    #[test]
    fn empty_batch_can_trigger_compaction_and_stays_consistent() {
        // Build a dead prefix that outweighs the live edges, then append an
        // empty batch: `append_batch` compacts before assigning ids, so even
        // a no-op batch must return a root range based on the re-based ids.
        let mut g = SlidingWindowGraph::new(5);
        g.append_batch(&edges(&[(0, 1, 0), (1, 2, 1), (2, 0, 2)]))
            .unwrap();
        g.append_batch(&edges(&[(0, 2, 100)])).unwrap();
        assert_eq!(g.first_live_id(), 3, "dead prefix not yet compacted");
        let b = g.append_batch(&[]).unwrap();
        assert_eq!(b.appended, 0);
        assert_eq!(b.expired, 0);
        assert_eq!(b.roots, 1..1, "ids re-based by the compaction");
        assert_eq!(g.first_live_id(), 0);
        assert_eq!(g.live_edges(), &edges(&[(0, 2, 100)])[..]);
        assert_eq!(
            g.window(),
            Some(TimeWindow::new(95, 100)),
            "window unchanged"
        );
    }

    #[test]
    fn observable_state_is_independent_of_compaction_timing() {
        // The same stream chopped into different batch sizes compacts at
        // different moments; every observable — window, watermark, live
        // edges, windowed adjacency, snapshot — must be identical after any
        // common prefix of the stream.
        let all: Vec<TemporalEdge> = (0..60)
            .map(|i| TemporalEdge::new(i % 4, (i + 1) % 4, i as Timestamp * 2))
            .collect();
        let mut fine = SlidingWindowGraph::new(15);
        let mut coarse = SlidingWindowGraph::new(15);
        for (i, e) in all.iter().enumerate() {
            fine.append_batch(std::slice::from_ref(e)).unwrap();
            if (i + 1) % 20 == 0 {
                coarse.append_batch(&all[i + 1 - 20..=i]).unwrap();
                assert_eq!(fine.window(), coarse.window());
                assert_eq!(fine.watermark(), coarse.watermark());
                assert_eq!(fine.live_edges(), coarse.live_edges());
                assert_eq!(fine.total_expired(), coarse.total_expired());
                let w = fine.window().unwrap();
                for v in 0..fine.num_vertices() as VertexId {
                    let ts = |adj: &[AdjEntry]| -> Vec<(VertexId, Timestamp)> {
                        adj.iter().map(|a| (a.neighbor, a.ts)).collect()
                    };
                    assert_eq!(
                        ts(fine.out_edges_in_window(v, w)),
                        ts(coarse.out_edges_in_window(v, w)),
                        "vertex {v} after edge {i}"
                    );
                    assert_eq!(
                        ts(fine.in_edges_in_window(v, w)),
                        ts(coarse.in_edges_in_window(v, w)),
                    );
                }
                assert_eq!(fine.snapshot().edges(), coarse.snapshot().edges());
            }
        }
        // The one-edge-per-batch replay compacted more often; both end equal.
        assert_eq!(fine.live_edges(), coarse.live_edges());
    }

    #[test]
    fn window_is_none_before_first_append() {
        // Regression: this used to return the bogus sentinel
        // `[i64::MIN : i64::MIN]`, which contains i64::MIN and looked live.
        let mut g = SlidingWindowGraph::new(10);
        assert_eq!(g.window(), None);
        g.append_batch(&[]).unwrap();
        assert_eq!(g.window(), None, "an empty batch ingests nothing");
        let b = g.append_batch(&[]).unwrap();
        assert_eq!(b.window, None, "no window before the first watermark");
        let b = g.append_batch(&edges(&[(0, 1, 5)])).unwrap();
        assert_eq!(g.window(), Some(TimeWindow::new(-5, 5)));
        assert_eq!(b.window, g.window());
    }

    #[test]
    fn long_stream_keeps_storage_bounded() {
        let mut g = SlidingWindowGraph::new(50);
        for i in 0..2_000i64 {
            g.append_batch(&edges(&[(
                (i % 7) as VertexId,
                ((i + 1) % 7) as VertexId,
                i,
            )]))
            .unwrap();
            // Storage (live + not-yet-compacted dead prefix) stays within a
            // small multiple of the window size.
            assert!(g.edges.len() <= 2 * 52 + 2, "at t={i}: {}", g.edges.len());
        }
        assert_eq!(g.total_ingested(), 2_000);
        assert_eq!(g.live_edges().len(), 51);
        assert_eq!(g.total_expired(), 2_000 - 51);
    }
}
