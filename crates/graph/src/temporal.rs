//! The immutable, CSR-encoded directed temporal multigraph.
//!
//! [`TemporalGraph`] is the single graph type shared by every enumeration
//! algorithm in the workspace. It stores the edge list (sorted by
//! `(timestamp, source, destination)`), a forward CSR (outgoing adjacency,
//! per-vertex sorted by timestamp) and a backward CSR (incoming adjacency,
//! also sorted by timestamp). All algorithms access it through shared
//! references, so it is `Send + Sync` by construction.

use crate::types::{EdgeId, TemporalEdge, Timestamp, VertexId};
use crate::window::TimeWindow;

/// One entry of a CSR adjacency list: the neighbouring vertex, the timestamp
/// of the connecting edge and the dense id of that edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjEntry {
    /// The neighbour on the other side of the edge (the destination for
    /// outgoing adjacency, the source for incoming adjacency).
    pub neighbor: VertexId,
    /// Timestamp of the connecting edge.
    pub ts: Timestamp,
    /// Dense edge id of the connecting edge.
    pub edge: EdgeId,
}

/// The entries of a `(ts, edge)`-sorted adjacency list whose timestamps fall
/// inside `window`. The end is searched for only past the start, so an empty
/// window (`end < start`) yields an empty slice.
pub(crate) fn window_slice(adj: &[AdjEntry], window: TimeWindow) -> &[AdjEntry] {
    let lo = adj.partition_point(|a| a.ts < window.start);
    let rest = &adj[lo..];
    &rest[..rest.partition_point(|a| a.ts <= window.end)]
}

/// An immutable directed temporal multigraph in CSR form.
///
/// Construct one with [`crate::GraphBuilder`], a generator from
/// [`crate::generators`], or [`crate::io::read_edge_list`].
///
/// # Ordering guarantees
///
/// * Edge ids are assigned in ascending `(ts, src, dst, insertion)` order, so
///   `a.ts < b.ts` implies `a_id < b_id`.
/// * `out_edges(v)` and `in_edges(v)` are sorted by `(ts, edge)` ascending.
///
/// These guarantees let the enumeration algorithms express "strictly after
/// the root edge in `(timestamp, id)` order" as a plain edge-id comparison and
/// find time-window slices of an adjacency list by binary search.
#[derive(Debug, Clone)]
pub struct TemporalGraph {
    num_vertices: usize,
    edges: Vec<TemporalEdge>,
    out_offsets: Vec<u32>,
    out_adj: Vec<AdjEntry>,
    in_offsets: Vec<u32>,
    in_adj: Vec<AdjEntry>,
}

impl TemporalGraph {
    /// Builds a graph directly from parts. Intended for use by
    /// [`crate::GraphBuilder`]; library users should prefer the builder.
    pub(crate) fn from_parts(num_vertices: usize, edges: Vec<TemporalEdge>) -> Self {
        debug_assert!(edges
            .windows(2)
            .all(|w| (w[0].ts, w[0].src, w[0].dst) <= (w[1].ts, w[1].src, w[1].dst)));

        let mut out_counts = vec![0u32; num_vertices + 1];
        let mut in_counts = vec![0u32; num_vertices + 1];
        for e in &edges {
            out_counts[e.src as usize + 1] += 1;
            in_counts[e.dst as usize + 1] += 1;
        }
        for v in 0..num_vertices {
            out_counts[v + 1] += out_counts[v];
            in_counts[v + 1] += in_counts[v];
        }
        let out_offsets = out_counts;
        let in_offsets = in_counts;

        let mut out_adj = vec![
            AdjEntry {
                neighbor: 0,
                ts: 0,
                edge: 0
            };
            edges.len()
        ];
        let mut in_adj = out_adj.clone();
        let mut out_cursor: Vec<u32> = out_offsets[..num_vertices].to_vec();
        let mut in_cursor: Vec<u32> = in_offsets[..num_vertices].to_vec();
        for (id, e) in edges.iter().enumerate() {
            let id = id as EdgeId;
            let oc = &mut out_cursor[e.src as usize];
            out_adj[*oc as usize] = AdjEntry {
                neighbor: e.dst,
                ts: e.ts,
                edge: id,
            };
            *oc += 1;
            let ic = &mut in_cursor[e.dst as usize];
            in_adj[*ic as usize] = AdjEntry {
                neighbor: e.src,
                ts: e.ts,
                edge: id,
            };
            *ic += 1;
        }
        // Because the global edge list is sorted by (ts, src, dst) and we fill
        // adjacency in edge-id order, each per-vertex slice is already sorted
        // by (ts, edge). Assert it in debug builds.
        debug_assert!((0..num_vertices).all(|v| {
            let s = &out_adj[out_offsets[v] as usize..out_offsets[v + 1] as usize];
            s.windows(2)
                .all(|w| (w[0].ts, w[0].edge) <= (w[1].ts, w[1].edge))
        }));

        Self {
            num_vertices,
            edges,
            out_offsets,
            out_adj,
            in_offsets,
            in_adj,
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges `e` (counting parallel temporal edges separately).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The edge with the given dense id.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> TemporalEdge {
        self.edges[id as usize]
    }

    /// All edges in ascending `(ts, src, dst)` (= ascending id) order.
    #[inline]
    pub fn edges(&self) -> &[TemporalEdge] {
        &self.edges
    }

    /// Iterator over `(EdgeId, TemporalEdge)` pairs in id order.
    pub fn edge_ids(&self) -> impl Iterator<Item = (EdgeId, TemporalEdge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .map(|(i, &e)| (i as EdgeId, e))
    }

    /// Outgoing adjacency of `v`, sorted by `(ts, edge)` ascending.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> &[AdjEntry] {
        let v = v as usize;
        &self.out_adj[self.out_offsets[v] as usize..self.out_offsets[v + 1] as usize]
    }

    /// Incoming adjacency of `v`, sorted by `(ts, edge)` ascending.
    #[inline]
    pub fn in_edges(&self, v: VertexId) -> &[AdjEntry] {
        let v = v as usize;
        &self.in_adj[self.in_offsets[v] as usize..self.in_offsets[v + 1] as usize]
    }

    /// Out-degree of `v` (counting parallel edges).
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_edges(v).len()
    }

    /// In-degree of `v` (counting parallel edges).
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_edges(v).len()
    }

    /// Outgoing edges of `v` whose timestamps fall inside `window`
    /// (inclusive on both ends), located by binary search.
    pub fn out_edges_in_window(&self, v: VertexId, window: TimeWindow) -> &[AdjEntry] {
        window_slice(self.out_edges(v), window)
    }

    /// Incoming edges of `v` whose timestamps fall inside `window`
    /// (inclusive on both ends), located by binary search.
    pub fn in_edges_in_window(&self, v: VertexId, window: TimeWindow) -> &[AdjEntry] {
        window_slice(self.in_edges(v), window)
    }

    /// The smallest and largest timestamps in the graph, or `None` for an
    /// empty graph. Because edges are sorted by timestamp this is O(1).
    pub fn time_range(&self) -> Option<(Timestamp, Timestamp)> {
        if self.edges.is_empty() {
            None
        } else {
            Some((self.edges[0].ts, self.edges[self.edges.len() - 1].ts))
        }
    }

    /// The total time span covered by the edges (`0` for graphs with fewer
    /// than two distinct timestamps).
    pub fn time_span(&self) -> Timestamp {
        self.time_range().map(|(lo, hi)| hi - lo).unwrap_or(0)
    }

    /// Ids of all edges whose timestamp lies in `window`, in ascending id
    /// order. Because the global edge list is timestamp-sorted this is a
    /// contiguous id range found by binary search.
    pub fn edge_ids_in_window(&self, window: TimeWindow) -> std::ops::Range<EdgeId> {
        let lo = self.edges.partition_point(|e| e.ts < window.start) as EdgeId;
        let hi = self.edges.partition_point(|e| e.ts <= window.end) as EdgeId;
        lo..hi
    }

    /// Returns the reverse graph (every edge `u → v` becomes `v → u`,
    /// timestamps preserved).
    pub fn reversed(&self) -> TemporalGraph {
        let edges: Vec<TemporalEdge> = self
            .edges
            .iter()
            .map(|e| TemporalEdge::new(e.dst, e.src, e.ts))
            .collect();
        crate::GraphBuilder::from_edges(self.num_vertices, edges).build()
    }

    /// Checks whether the graph contains the directed edge `u → v` (with any
    /// timestamp). O(log d) via binary search on the timestamp-sorted
    /// adjacency would not help here (the adjacency is not sorted by
    /// neighbour), so this is a linear scan of `u`'s out-list; it is intended
    /// for tests and small-scale validation, not hot loops.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out_edges(u).iter().any(|a| a.neighbor == v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> TemporalGraph {
        // 0 -> 1 (t=1), 0 -> 2 (t=2), 1 -> 3 (t=3), 2 -> 3 (t=4), 3 -> 0 (t=5)
        GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(0, 2, 2)
            .add_edge(1, 3, 3)
            .add_edge(2, 3, 4)
            .add_edge(3, 0, 5)
            .build()
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 5);
        assert!(!g.is_empty());
        assert_eq!(g.time_range(), Some((1, 5)));
        assert_eq!(g.time_span(), 4);
    }

    #[test]
    fn inverted_window_selects_no_edges() {
        // `end < start`, with edges at ts 9 strictly inside the gap.
        let g = GraphBuilder::new()
            .add_edge(0, 1, 5)
            .add_edge(0, 2, 9)
            .add_edge(0, 3, 12)
            .add_edge(1, 0, 9)
            .build();
        let window = TimeWindow::new(10, 8);
        assert!(window.is_empty());
        assert!(g.out_edges_in_window(0, window).is_empty());
        assert!(g.in_edges_in_window(0, window).is_empty());
    }

    #[test]
    fn adjacency_sorted_by_timestamp() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 10)
            .add_edge(0, 2, 5)
            .add_edge(0, 3, 7)
            .build();
        let ts: Vec<_> = g.out_edges(0).iter().map(|a| a.ts).collect();
        assert_eq!(ts, vec![5, 7, 10]);
        let nbrs: Vec<_> = g.out_edges(0).iter().map(|a| a.neighbor).collect();
        assert_eq!(nbrs, vec![2, 3, 1]);
    }

    #[test]
    fn edge_ids_follow_timestamp_order() {
        let g = GraphBuilder::new()
            .add_edge(5, 6, 100)
            .add_edge(1, 2, 10)
            .add_edge(3, 4, 50)
            .build();
        assert_eq!(g.edge(0), TemporalEdge::new(1, 2, 10));
        assert_eq!(g.edge(1), TemporalEdge::new(3, 4, 50));
        assert_eq!(g.edge(2), TemporalEdge::new(5, 6, 100));
    }

    #[test]
    fn in_edges_match_out_edges() {
        let g = diamond();
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.out_degree(3), 1);
        let srcs: Vec<_> = g.in_edges(3).iter().map(|a| a.neighbor).collect();
        assert_eq!(srcs, vec![1, 2]);
        // Every out entry appears as exactly one in entry for the neighbour.
        let mut total_in = 0;
        for v in 0..g.num_vertices() as VertexId {
            total_in += g.in_degree(v);
        }
        assert_eq!(total_in, g.num_edges());
    }

    #[test]
    fn window_slicing() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(0, 2, 3)
            .add_edge(0, 3, 5)
            .add_edge(0, 4, 7)
            .build();
        let w = TimeWindow::new(3, 5);
        let slice = g.out_edges_in_window(0, w);
        assert_eq!(slice.len(), 2);
        assert_eq!(slice[0].ts, 3);
        assert_eq!(slice[1].ts, 5);
        let empty = g.out_edges_in_window(0, TimeWindow::new(8, 10));
        assert!(empty.is_empty());
        let all = g.out_edges_in_window(0, TimeWindow::new(i64::MIN, i64::MAX));
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn edge_ids_in_window_contiguous() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 2, 3)
            .add_edge(2, 3, 5)
            .add_edge(3, 0, 7)
            .build();
        let r = g.edge_ids_in_window(TimeWindow::new(3, 6));
        assert_eq!(r, 1..3);
        assert_eq!(g.edge_ids_in_window(TimeWindow::new(100, 200)), 4..4);
    }

    #[test]
    fn reversed_graph() {
        let g = diamond();
        let r = g.reversed();
        assert_eq!(r.num_edges(), g.num_edges());
        assert!(r.has_edge(1, 0));
        assert!(r.has_edge(0, 3));
        assert!(!r.has_edge(0, 1));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_empty());
        assert_eq!(g.time_range(), None);
        assert_eq!(g.time_span(), 0);
    }

    #[test]
    fn isolated_vertices_have_empty_adjacency() {
        let g = GraphBuilder::with_vertices(10).add_edge(0, 1, 1).build();
        assert_eq!(g.num_vertices(), 10);
        for v in 2..10 {
            assert_eq!(g.out_degree(v), 0);
            assert_eq!(g.in_degree(v), 0);
        }
    }
}
