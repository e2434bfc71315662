//! Abstraction over the per-root simple-cycle union membership queries.
//!
//! The sequential and coarse-grained enumerators borrow the reusable
//! [`CycleUnionWorkspace`] directly (array lookups, zero allocation per
//! query). Fine Johnson and fine Read-Tarjan hand simple-cycle work to tasks
//! that may outlive the root driver's stack frame, so they snapshot the
//! union's membership into an owned, shareable [`UnionView`] instead. Both
//! implement [`UnionQuery`], which the Johnson and Read-Tarjan searches are
//! written against. The temporal and delta searches read the workspace
//! itself, closing times included: the in-place searches need no snapshot,
//! because a worker that takes a split recomputes the union in its own
//! workspace (or finds it there already).

use crate::util::{fx_set, FxHashSet};
use pce_graph::reach::CycleUnionWorkspace;
use pce_graph::VertexId;

/// Read-only queries against a per-root cycle union.
pub(crate) trait UnionQuery: Sync {
    /// Is `v` part of the cycle union (i.e. on at least one cycle through the
    /// root edge, ignoring vertex-disjointness)?
    fn in_union(&self, v: VertexId) -> bool;
}

impl UnionQuery for CycleUnionWorkspace {
    #[inline]
    fn in_union(&self, v: VertexId) -> bool {
        CycleUnionWorkspace::in_union(self, v)
    }
}

/// An owned snapshot of a simple-cycle union's members, shareable across
/// tasks via `Arc`; its size is proportional to the union, not to the
/// graph.
#[derive(Debug, Clone, Default)]
pub(crate) struct UnionView {
    members: FxHashSet<VertexId>,
}

impl UnionView {
    /// Snapshot of a simple-cycle union (membership only).
    pub(crate) fn from_simple(ws: &CycleUnionWorkspace) -> Self {
        let mut members = fx_set();
        members.extend(ws.union_members().iter().copied());
        Self { members }
    }

    /// Number of vertices in the snapshot.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }
}

impl UnionQuery for UnionView {
    #[inline]
    fn in_union(&self, v: VertexId) -> bool {
        self.members.contains(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pce_graph::{GraphBuilder, TimeWindow};

    #[test]
    fn simple_view_matches_workspace() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 2, 2)
            .add_edge(2, 0, 3)
            .add_edge(1, 3, 2)
            .build();
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        assert!(ws.compute_simple(&g, 0, TimeWindow::from_start(1, 100)));
        let view = UnionView::from_simple(&ws);
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(UnionQuery::in_union(&ws, v), view.in_union(v), "vertex {v}");
        }
        assert_eq!(view.len(), 3);
    }
}
