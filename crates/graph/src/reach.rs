//! Per-root reachability preprocessing: the *cycle-union* of §7 of the paper
//! and the static *closing time* (latest-departure) bound used to prune
//! temporal searches.
//!
//! For every starting edge `v0 → v1` (timestamp `t0`, window `[t0 : t0 + δ]`)
//! the paper computes the **cycle-union**: the set of vertices that lie on at
//! least one cycle starting with that edge. It is the intersection of
//!
//! * the set of vertices reachable from `v1` using admissible edges, and
//! * the set of vertices from which `v0` is reachable using admissible edges,
//!
//! where *admissible* means "inside the time window and after the root edge"
//! for window-constrained simple cycles, and "strictly increasing timestamps
//! inside the window" for temporal cycles.
//!
//! For temporal cycles the backward pass additionally yields, for every vertex
//! `w`, the **latest departure time** `ld(w)`: the largest timestamp of the
//! first edge of any temporal path `w → … → v0` inside the window. Arriving at
//! `w` at time `t ≥ ld(w)` can never be completed into a temporal cycle, which
//! is exactly the (static form of the) closing-time pruning of 2SCENT that the
//! paper incorporates into its parallel algorithms.
//!
//! The computation reuses buffers across roots ([`CycleUnionWorkspace`]) and
//! uses epoch-stamping instead of clearing, so no pass pays for the size of
//! the graph. A simple pass grows the forward and backward sets in lockstep
//! and stops as soon as either runs dry, so when the head cannot reach the
//! tail it costs about the cheaper of the two sides; when it can, it costs
//! the window-sliced out-edges of the forward-reachable set plus the in-edges
//! of the union and of what the backward side stamped before the sides met.
//! A temporal pass scans the window's edges twice. The union's members are
//! gathered during the passes, never by a scan over all vertices.

use crate::predicate::{CyclePredicate, VertexFilter};
use crate::temporal::{AdjEntry, TemporalGraph};
use crate::types::{EdgeId, Timestamp, VertexId};
use crate::view::GraphView;
use crate::window::TimeWindow;

/// Reusable workspace for per-root cycle-union computations.
///
/// A single workspace is owned by one worker thread and reused for every root
/// edge that worker processes; it never needs clearing because vertex marks
/// are stamped with the current epoch.
#[derive(Debug, Clone)]
pub struct CycleUnionWorkspace {
    epoch: u32,
    fwd_epoch: Vec<u32>,
    bwd_epoch: Vec<u32>,
    /// Earliest arrival time at each vertex (temporal forward pass).
    earliest: Vec<Timestamp>,
    /// Latest departure time from each vertex towards the root (temporal
    /// backward pass).
    latest_dep: Vec<Timestamp>,
    queue: Vec<VertexId>,
    /// Vertices of the current union (for cheap iteration / size queries).
    union_members: Vec<VertexId>,
}

impl CycleUnionWorkspace {
    /// Creates a workspace for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            epoch: 0,
            fwd_epoch: vec![0; n],
            bwd_epoch: vec![0; n],
            earliest: vec![Timestamp::MAX; n],
            latest_dep: vec![Timestamp::MIN; n],
            queue: Vec::new(),
            union_members: Vec::new(),
        }
    }

    #[inline]
    fn bump_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap-around: reset all stamps.
            self.fwd_epoch.iter_mut().for_each(|x| *x = 0);
            self.bwd_epoch.iter_mut().for_each(|x| *x = 0);
            self.epoch = 1;
        }
        self.union_members.clear();
    }

    /// Moves the epoch to two passes before it wraps, so that a test can
    /// run passes across the wrap-around, and stamps every vertex with epoch
    /// 1 in both directions, as if a first pass had reached every vertex: the
    /// union after the wrap then holds every vertex unless the wrap clears
    /// stale stamps.
    #[cfg(test)]
    fn skip_to_epoch_wrap(&mut self) {
        self.fwd_epoch.fill(1);
        self.bwd_epoch.fill(1);
        self.epoch = u32::MAX - 1;
    }

    /// Is `v` in the cycle-union computed by the most recent `compute_*` call?
    #[inline]
    pub fn in_union(&self, v: VertexId) -> bool {
        let v = v as usize;
        self.fwd_epoch[v] == self.epoch && self.bwd_epoch[v] == self.epoch
    }

    /// Vertices of the current cycle-union (unordered).
    #[inline]
    pub fn union_members(&self) -> &[VertexId] {
        &self.union_members
    }

    /// Size of the current cycle-union.
    #[inline]
    pub fn union_size(&self) -> usize {
        self.union_members.len()
    }

    /// Latest departure time from `v` towards the root (`Timestamp::MIN` if
    /// `v` cannot reach the root at all). Only meaningful after a temporal
    /// pass: towards the root's *tail* `v0` after
    /// [`Self::compute_temporal`], or — mirrored — towards the root's tail
    /// `u` after [`Self::compute_temporal_before`].
    #[inline]
    pub fn latest_departure(&self, v: VertexId) -> Timestamp {
        if self.bwd_epoch[v as usize] == self.epoch {
            self.latest_dep[v as usize]
        } else {
            Timestamp::MIN
        }
    }

    /// Earliest arrival time at `v` from the root head (`Timestamp::MAX` if
    /// unreachable). Only meaningful after [`Self::compute_temporal`] or
    /// [`Self::compute_temporal_before`] (both walk forward from the root's
    /// head).
    #[inline]
    pub fn earliest_arrival(&self, v: VertexId) -> Timestamp {
        if self.fwd_epoch[v as usize] == self.epoch {
            self.earliest[v as usize]
        } else {
            Timestamp::MAX
        }
    }

    /// Static closing-time check: can a temporal path leave `v` strictly after
    /// time `t` and reach the root tail inside the window? Sound (never prunes
    /// a real cycle) because it ignores the simple-path constraint. Works for
    /// both temporal passes — min-rooted ([`Self::compute_temporal`]) and
    /// max-rooted ([`Self::compute_temporal_before`]) — since each stores the
    /// latest departure towards its own root tail.
    #[inline]
    pub fn can_close_after(&self, v: VertexId, t: Timestamp) -> bool {
        self.latest_departure(v) > t
    }

    /// Computes the cycle-union for **window-constrained simple cycles**
    /// rooted at `root`: admissible edges are those with id greater than the
    /// root edge id and timestamp at most `window.end` (edge-id order refines
    /// timestamp order, so `id > root` already implies `ts ≥ window.start`).
    ///
    /// Returns `true` if the union is non-empty in the sense that the head of
    /// the root edge can reach its tail (i.e. at least one cycle through the
    /// root edge may exist); when the head cannot reach the tail the union is
    /// left empty. When the head cannot reach the tail, costs about the
    /// cheaper of the forward and backward reachability sets' adjacency;
    /// otherwise the forward-reachable set's out-edges plus about the union's
    /// in-edges.
    ///
    /// Generic over [`GraphView`], so it runs on both the static
    /// [`TemporalGraph`] and the streaming
    /// [`SlidingWindowGraph`](crate::stream::SlidingWindowGraph).
    pub fn compute_simple<G: GraphView + ?Sized>(
        &mut self,
        graph: &G,
        root: EdgeId,
        window: TimeWindow,
    ) -> bool {
        self.bump_epoch();
        let e = graph.edge(root);
        // "After the root in (ts, id) order" is the id test; the windowed
        // accessors enforce the timestamp bounds. (A self-loop root is
        // handled by the caller.)
        self.simple_union(graph, window, e.dst, e.src, |entry| entry.edge > root)
    }

    /// Computes the cycle-union, earliest arrival times and latest departure
    /// times for **temporal cycles** rooted at `root` with window size
    /// `delta`. Admissible paths have *strictly increasing* timestamps (the
    /// standard temporal-cycle definition used by 2SCENT and by the paper):
    /// the first edge after the root must have `ts > t0` and every timestamp
    /// must be at most `t0 + delta`.
    ///
    /// Returns `true` if the root's head can reach its tail, i.e. at least one
    /// temporal cycle through the root edge may exist.
    pub fn compute_temporal<G: GraphView + ?Sized>(
        &mut self,
        graph: &G,
        root: EdgeId,
        delta: Timestamp,
    ) -> bool {
        self.bump_epoch();
        let e0 = graph.edge(root);
        let (v0, v1, t0) = (e0.src, e0.dst, e0.ts);
        let window = TimeWindow::from_start(t0, delta);
        let id_range = graph.edge_ids_in_window(window);
        // Edges strictly after the root edge in (ts, id) order.
        let lo = id_range.start.max(root + 1);
        let hi = id_range.end;

        // Forward pass: earliest arrival with strictly increasing timestamps.
        // Scanning edge ids in ascending order scans timestamps in ascending
        // order, so each edge sees the final earliest-arrival value of its
        // source with respect to strictly smaller timestamps. Each vertex
        // becomes a union candidate when first stamped.
        self.earliest[v1 as usize] = t0;
        self.fwd_epoch[v1 as usize] = self.epoch;
        self.union_members.push(v1);
        for id in lo..hi {
            let e = graph.edge(id);
            let su = e.src as usize;
            if self.fwd_epoch[su] == self.epoch && self.earliest[su] < e.ts {
                let sd = e.dst as usize;
                if self.fwd_epoch[sd] != self.epoch || self.earliest[sd] > e.ts {
                    if self.fwd_epoch[sd] != self.epoch {
                        self.union_members.push(e.dst);
                    }
                    self.earliest[sd] = e.ts;
                    self.fwd_epoch[sd] = self.epoch;
                }
            }
        }

        // Backward pass: latest departure towards v0, scanning descending.
        self.latest_dep[v0 as usize] = Timestamp::MAX;
        self.bwd_epoch[v0 as usize] = self.epoch;
        for id in (lo..hi).rev() {
            let e = graph.edge(id);
            let sd = e.dst as usize;
            if self.bwd_epoch[sd] == self.epoch && self.latest_dep[sd] > e.ts {
                let su = e.src as usize;
                if self.bwd_epoch[su] != self.epoch || self.latest_dep[su] < e.ts {
                    self.latest_dep[su] = e.ts;
                    self.bwd_epoch[su] = self.epoch;
                }
            }
        }

        self.retain_backward_reachable_members();
        self.fwd_epoch[v0 as usize] == self.epoch && self.bwd_epoch[v1 as usize] == self.epoch
    }

    /// Mirror of [`Self::compute_simple`] for **incremental (delta)
    /// enumeration**, where the root is the cycle's *maximum* edge in
    /// `(timestamp, id)` order — the edge whose arrival closes the cycle.
    ///
    /// For root `u → w` (timestamp `t0`), admissible edges have id *less*
    /// than the root and timestamp at least `window.start` (callers pass
    /// `[max(t0 - δ, floor) : t0]`, where `floor` is the sliding-window start
    /// — edges below it have expired and must not be matched). The union is
    /// the set of vertices on at least one path `w → … → u` over admissible
    /// edges; returns `true` if any such path (and therefore possibly a
    /// cycle closed by the root) exists. Like [`Self::compute_simple`], it
    /// leaves the union empty when there is none, and then costs about the
    /// cheaper of the forward and backward sides.
    ///
    /// `predicate` filters admissible edges and vertices by attribute: an
    /// edge rejected by the predicate's per-edge part — or a vertex rejected
    /// by its [`VertexFilter`] — never enters the BFS, so the union already
    /// reflects the pushdown (the predicate's aggregate and positional parts
    /// cannot prune a reachability pass and are ignored here). Pass
    /// [`CyclePredicate::pass_all`] for unfiltered enumeration (the pass-all
    /// case is detected once and adds no per-edge work). Callers admit only
    /// roots whose endpoints the filter accepts; a filtered-out `u` leaves
    /// the union empty.
    pub fn compute_simple_before<G: GraphView + ?Sized>(
        &mut self,
        graph: &G,
        root: EdgeId,
        window: TimeWindow,
        predicate: &CyclePredicate,
    ) -> bool {
        self.bump_epoch();
        let e = graph.edge(root);
        let edge_pred = predicate.edge_predicate();
        let pass_all = edge_pred.is_pass_all();
        let vf = predicate.vertex_filter();
        let vf_any = *vf == VertexFilter::Any;
        // Beyond the windowed accessors' timestamp bounds, admissibility is
        // "before the root" on ids and the attribute predicate (attributes
        // live on the edge record, not the adjacency entry, hence the
        // `graph.edge` lookup on the slow path).
        self.simple_union(graph, window, e.dst, e.src, |entry| {
            entry.edge < root
                && (vf_any || vf.accepts(entry.neighbor))
                && (pass_all || edge_pred.accepts(&graph.edge(entry.edge)))
        })
    }

    /// Mirror of [`Self::compute_temporal`] for **incremental (delta)
    /// enumeration**, where the root `u → w` (timestamp `t0`) is the cycle's
    /// *last* — and therefore strictly largest — edge.
    ///
    /// Admissible paths `w → … → u` have strictly increasing timestamps, all
    /// strictly below `t0` and at least `window.start` (callers pass
    /// `[max(t0 - δ, floor) : t0]`; the first edge's timestamp bounds the
    /// cycle's window anchor, so `first_ts ≥ t0 - δ` is exactly the temporal
    /// window constraint). The forward pass computes earliest arrivals from
    /// `w`; the backward pass computes, for every vertex `x`, the **latest
    /// departure time** towards `u` — [`Self::can_close_after`] then works
    /// unchanged for the mirrored search. Returns `true` if `w` can reach `u`.
    ///
    /// Like [`Self::compute_temporal`], [`Self::union_members`] is gathered
    /// during the traversal (each vertex is recorded when its forward stamp
    /// is first set, then filtered by the backward stamp). Neither temporal
    /// pass stops early when the tail is unreachable: a vertex can carry both
    /// stamps with arrival and departure times that do not join into a path,
    /// and such vertices are part of the union these passes report.
    ///
    /// `predicate` filters admissible edges and vertices by attribute,
    /// exactly as in [`Self::compute_simple_before`].
    pub fn compute_temporal_before<G: GraphView + ?Sized>(
        &mut self,
        graph: &G,
        root: EdgeId,
        window: TimeWindow,
        predicate: &CyclePredicate,
    ) -> bool {
        self.bump_epoch();
        let e0 = graph.edge(root);
        let (u, w, t0) = (e0.src, e0.dst, e0.ts);
        let edge_pred = predicate.edge_predicate();
        let pass_all = edge_pred.is_pass_all();
        let vf = predicate.vertex_filter();
        let vf_any = *vf == VertexFilter::Any;
        // Path edges live in [window.start : t0 - 1]; this also keeps every
        // scanned id strictly below the root (ids refine timestamp order).
        let scan = TimeWindow::new(window.start, t0.saturating_sub(1));
        let ids = graph.edge_ids_in_window(scan);

        // Forward pass: earliest strictly-increasing arrival from w. Seeding
        // one below the window start admits exactly first edges with
        // ts >= window.start.
        self.earliest[w as usize] = window.start.saturating_sub(1);
        self.fwd_epoch[w as usize] = self.epoch;
        self.union_members.push(w);
        for id in ids.clone() {
            let e = graph.edge(id);
            if !pass_all && !edge_pred.accepts(&e) {
                continue;
            }
            if !vf_any && !vf.accepts(e.dst) {
                continue;
            }
            let su = e.src as usize;
            if self.fwd_epoch[su] == self.epoch && self.earliest[su] < e.ts {
                let sd = e.dst as usize;
                if self.fwd_epoch[sd] != self.epoch || self.earliest[sd] > e.ts {
                    if self.fwd_epoch[sd] != self.epoch {
                        self.union_members.push(e.dst);
                    }
                    self.earliest[sd] = e.ts;
                    self.fwd_epoch[sd] = self.epoch;
                }
            }
        }

        // Backward pass: latest departure towards u. Seeding u with t0 admits
        // exactly closing edges with ts < t0.
        self.latest_dep[u as usize] = t0;
        self.bwd_epoch[u as usize] = self.epoch;
        for id in ids.rev() {
            let e = graph.edge(id);
            if !pass_all && !edge_pred.accepts(&e) {
                continue;
            }
            if !vf_any && !vf.accepts(e.src) {
                continue;
            }
            let sd = e.dst as usize;
            if self.bwd_epoch[sd] == self.epoch && self.latest_dep[sd] > e.ts {
                let su = e.src as usize;
                if self.bwd_epoch[su] != self.epoch || self.latest_dep[su] < e.ts {
                    self.latest_dep[su] = e.ts;
                    self.bwd_epoch[su] = self.epoch;
                }
            }
        }

        self.retain_backward_reachable_members();
        self.fwd_epoch[u as usize] == self.epoch && self.bwd_epoch[w as usize] == self.epoch
    }

    /// The bidirectional search of a simple pass from the root's `head` to
    /// its `tail`. A forward BFS from `head` and a backward BFS from `tail`
    /// advance in lockstep, one vertex at a time on the side that has
    /// scanned fewer adjacency entries so far, until a newly stamped vertex
    /// carries the other side's stamp. If either queue runs dry first, no
    /// vertex carries both stamps and `head` cannot reach `tail`: the union
    /// stays empty and the pass has cost about its cheaper side. Once the
    /// sides meet, the forward BFS runs to completion and the backward one
    /// goes on inside the forward-reachable set: every vertex on a path from
    /// a union member to `tail` is forward-reachable through that member, so
    /// the forward-stamped part of its queue is exactly the union. Returns
    /// whether the sides met, i.e. whether `head` reaches `tail`.
    fn simple_union<G: GraphView + ?Sized>(
        &mut self,
        graph: &G,
        window: TimeWindow,
        head: VertexId,
        tail: VertexId,
        admissible: impl Fn(&AdjEntry) -> bool,
    ) -> bool {
        let epoch = self.epoch;
        let (fwd, bwd) = (&mut self.fwd_epoch, &mut self.bwd_epoch);
        // The backward queue becomes the union; `bump_epoch` cleared it.
        let (fwd_queue, bwd_queue) = (&mut self.queue, &mut self.union_members);
        fwd_queue.clear();
        fwd[head as usize] = epoch;
        fwd_queue.push(head);
        bwd[tail as usize] = epoch;
        bwd_queue.push(tail);
        let (mut fwd_next, mut bwd_next) = (0, 0);
        // Adjacency entries scanned per side, plus one per expanded vertex.
        let (mut fwd_cost, mut bwd_cost) = (0, 0);
        let mut met = fwd[tail as usize] == epoch;
        while !met {
            if fwd_next == fwd_queue.len() || bwd_next == bwd_queue.len() {
                bwd_queue.clear();
                return false;
            }
            if fwd_cost <= bwd_cost {
                let x = fwd_queue[fwd_next];
                fwd_next += 1;
                let out = graph.out_edges_in_window(x, window);
                fwd_cost += out.len() + 1;
                met = stamp_neighbors(out, &admissible, epoch, fwd, bwd, fwd_queue);
            } else {
                let x = bwd_queue[bwd_next];
                bwd_next += 1;
                let into = graph.in_edges_in_window(x, window);
                bwd_cost += into.len() + 1;
                met = stamp_neighbors(into, &admissible, epoch, bwd, fwd, bwd_queue);
            }
        }
        while let Some(&x) = fwd_queue.get(fwd_next) {
            fwd_next += 1;
            let out = graph.out_edges_in_window(x, window);
            stamp_neighbors(out, &admissible, epoch, fwd, bwd, fwd_queue);
        }
        let fwd = &*fwd;
        let inside = |entry: &AdjEntry| fwd[entry.neighbor as usize] == epoch && admissible(entry);
        while let Some(&x) = bwd_queue.get(bwd_next) {
            bwd_next += 1;
            // A vertex outside the forward-reachable set has no in-neighbour
            // inside it, so there is nothing to scan.
            if fwd[x as usize] == epoch {
                let into = graph.in_edges_in_window(x, window);
                stamp_neighbors(into, inside, epoch, bwd, fwd, bwd_queue);
            }
        }
        bwd_queue.retain(|&v| fwd[v as usize] == epoch);
        true
    }

    /// Filters the forward-reachable candidates recorded by a temporal pass
    /// down to the union (candidates that also carry the current backward
    /// stamp). `O(candidates)`.
    fn retain_backward_reachable_members(&mut self) {
        let mut members = std::mem::take(&mut self.union_members);
        members.retain(|&v| self.bwd_epoch[v as usize] == self.epoch);
        self.union_members = members;
    }

    /// Grows the workspace to cover `n` vertices (no-op when already large
    /// enough). Streaming graphs only ever grow their vertex set, so a
    /// long-lived workspace can be resized in place instead of reallocated
    /// per batch; new slots carry epoch stamp 0, which is never current.
    pub fn ensure_vertices(&mut self, n: usize) {
        if self.fwd_epoch.len() >= n {
            return;
        }
        self.fwd_epoch.resize(n, 0);
        self.bwd_epoch.resize(n, 0);
        self.earliest.resize(n, Timestamp::MAX);
        self.latest_dep.resize(n, Timestamp::MIN);
    }
}

/// One BFS step of [`CycleUnionWorkspace::simple_union`]: stamps with
/// `epoch` every unmarked neighbour in `adjacency` that `admissible` accepts
/// and queues it. Returns whether a newly stamped vertex already carries the
/// other side's stamp in `other`.
fn stamp_neighbors(
    adjacency: &[AdjEntry],
    admissible: impl Fn(&AdjEntry) -> bool,
    epoch: u32,
    marks: &mut [u32],
    other: &[u32],
    queue: &mut Vec<VertexId>,
) -> bool {
    let mut met = false;
    for entry in adjacency {
        if !admissible(entry) {
            continue;
        }
        let y = entry.neighbor as usize;
        if marks[y] != epoch {
            marks[y] = epoch;
            queue.push(entry.neighbor);
            met |= other[y] == epoch;
        }
    }
    met
}

/// Convenience wrapper: the set of vertices reachable from `start` ignoring
/// timestamps. Used by tests and by the vertex-rooted classic Johnson mode.
pub fn reachable_from(graph: &TemporalGraph, start: VertexId) -> Vec<bool> {
    let n = graph.num_vertices();
    let mut seen = vec![false; n];
    let mut queue = vec![start];
    seen[start as usize] = true;
    while let Some(u) = queue.pop() {
        for entry in graph.out_edges(u) {
            if !seen[entry.neighbor as usize] {
                seen[entry.neighbor as usize] = true;
                queue.push(entry.neighbor);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TemporalEdge;
    use crate::GraphBuilder;

    /// Every pass gives the same result across the epoch wrap-around as on a
    /// fresh workspace, whose stale stamps of epoch 1 the wrap must clear.
    #[test]
    fn passes_across_the_epoch_wrap_match_a_fresh_workspace() {
        use crate::generators::{power_law_temporal, RandomTemporalConfig};
        let g = power_law_temporal(RandomTemporalConfig {
            num_vertices: 30,
            num_edges: 200,
            time_span: 80,
            seed: 71,
        });
        let n = g.num_vertices() as VertexId;
        let delta = 30;
        let pass_all = CyclePredicate::pass_all();
        let passes = |ws: &mut CycleUnionWorkspace| {
            let mut out = Vec::new();
            for (root, e0) in g.edge_ids() {
                let after = TimeWindow::from_start(e0.ts, delta);
                let before = TimeWindow::new(e0.ts - delta, e0.ts);
                for pass in 0..4 {
                    let nonempty = match pass {
                        0 => ws.compute_simple(&g, root, after),
                        1 => ws.compute_temporal(&g, root, delta),
                        2 => ws.compute_simple_before(&g, root, before, &pass_all),
                        _ => ws.compute_temporal_before(&g, root, before, &pass_all),
                    };
                    let mut members = ws.union_members().to_vec();
                    members.sort_unstable();
                    // Arrival and departure times are only kept by the
                    // temporal passes.
                    let timed = pass % 2 == 1;
                    let marks: Vec<_> = (0..n)
                        .map(|v| {
                            let times = (ws.earliest_arrival(v), ws.latest_departure(v));
                            (ws.in_union(v), timed.then_some(times))
                        })
                        .collect();
                    out.push((nonempty, members, marks));
                }
            }
            out
        };
        let fresh = passes(&mut CycleUnionWorkspace::new(n as usize));
        assert!(fresh.iter().any(|(nonempty, ..)| *nonempty));
        let mut ws = CycleUnionWorkspace::new(n as usize);
        ws.skip_to_epoch_wrap();
        assert!(passes(&mut ws) == fresh, "passes differ across the wrap");
        assert!(ws.epoch < u32::MAX - 1, "the epoch wrapped");
    }

    #[test]
    fn simple_union_on_triangle() {
        // Root edge 0->1 at t=1; triangle closes 1->2 (t=2), 2->0 (t=3).
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 2, 2)
            .add_edge(2, 0, 3)
            .build();
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        let ok = ws.compute_simple(&g, 0, TimeWindow::from_start(1, 10));
        assert!(ok);
        assert!(ws.in_union(0));
        assert!(ws.in_union(1));
        assert!(ws.in_union(2));
        assert_eq!(ws.union_size(), 3);
    }

    #[test]
    fn simple_union_respects_window() {
        // Same triangle but the closing edge is outside the window.
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 2, 2)
            .add_edge(2, 0, 100)
            .build();
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        let ok = ws.compute_simple(&g, 0, TimeWindow::from_start(1, 10));
        assert!(!ok);
    }

    #[test]
    fn simple_union_excludes_dead_ends() {
        // Triangle 0-1-2 plus a dangling path 1 -> 3 -> 4 that never returns.
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 2, 2)
            .add_edge(1, 3, 2)
            .add_edge(3, 4, 3)
            .add_edge(2, 0, 4)
            .build();
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        let root = g
            .edge_ids()
            .find(|(_, e)| e.src == 0 && e.dst == 1)
            .unwrap()
            .0;
        assert!(ws.compute_simple(&g, root, TimeWindow::from_start(1, 10)));
        assert!(ws.in_union(2));
        assert!(!ws.in_union(3));
        assert!(!ws.in_union(4));
    }

    #[test]
    fn earlier_edges_are_not_admissible_for_simple_union() {
        // A cycle exists, but only through an edge that precedes the root in
        // (ts, id) order, so the rooted union must be empty.
        let g = GraphBuilder::new()
            .add_edge(1, 0, 0) // earlier than the root edge
            .add_edge(0, 1, 1) // root
            .build();
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        let root = g
            .edge_ids()
            .find(|(_, e)| e.src == 0 && e.dst == 1)
            .unwrap()
            .0;
        assert!(!ws.compute_simple(&g, root, TimeWindow::from_start(1, 10)));
    }

    #[test]
    fn temporal_union_requires_increasing_timestamps() {
        // 0 ->(1) 1 ->(5) 2 ->(3) 0 : timestamps not increasing on the way
        // back, so no temporal cycle even though a simple cycle exists.
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 2, 5)
            .add_edge(2, 0, 3)
            .build();
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        let root = g
            .edge_ids()
            .find(|(_, e)| e.src == 0 && e.dst == 1)
            .unwrap()
            .0;
        assert!(!ws.compute_temporal(&g, root, 100));

        // Fix the ordering and it becomes reachable.
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 2, 3)
            .add_edge(2, 0, 5)
            .build();
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        assert!(ws.compute_temporal(&g, 0, 100));
        assert_eq!(ws.earliest_arrival(2), 3);
        // From vertex 1 the only departure towards 0 is via the t=3 edge.
        assert_eq!(ws.latest_departure(1), 3);
        assert!(ws.can_close_after(1, 2));
        assert!(!ws.can_close_after(1, 3));
    }

    #[test]
    fn temporal_union_respects_delta() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 2, 3)
            .add_edge(2, 0, 50)
            .build();
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        assert!(!ws.compute_temporal(&g, 0, 10));
        assert!(ws.compute_temporal(&g, 0, 49));
    }

    #[test]
    fn latest_departure_picks_the_best_alternative() {
        // Two ways back to 0 from vertex 1: via t=4 or via t=9 (both valid).
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 0, 4)
            .add_edge(1, 0, 9)
            .build();
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        assert!(ws.compute_temporal(&g, 0, 100));
        assert_eq!(ws.latest_departure(1), 9);
        assert!(ws.can_close_after(1, 8));
        assert!(!ws.can_close_after(1, 9));
    }

    #[test]
    fn workspace_reuse_across_roots() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 0, 2)
            .add_edge(2, 3, 3)
            .add_edge(3, 2, 4)
            .build();
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        let e01 = g.edge_ids().find(|(_, e)| e.src == 0).unwrap().0;
        let e23 = g.edge_ids().find(|(_, e)| e.src == 2).unwrap().0;
        assert!(ws.compute_simple(&g, e01, TimeWindow::from_start(1, 10)));
        assert!(ws.in_union(0) && ws.in_union(1));
        assert!(!ws.in_union(2) && !ws.in_union(3));
        assert!(ws.compute_simple(&g, e23, TimeWindow::from_start(3, 10)));
        assert!(ws.in_union(2) && ws.in_union(3));
        assert!(!ws.in_union(0) && !ws.in_union(1));
    }

    #[test]
    fn simple_before_union_on_triangle() {
        // Triangle 0 →(1) 1 →(2) 2 →(3) 0; root the *closing* edge 2→0 and
        // look backwards: the union must contain the whole triangle.
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 2, 2)
            .add_edge(2, 0, 3)
            .build();
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        let root = 2; // the t=3 edge 2→0
        assert!(ws.compute_simple_before(
            &g,
            root,
            TimeWindow::new(0, 3),
            &CyclePredicate::pass_all()
        ));
        assert!(ws.in_union(0) && ws.in_union(1) && ws.in_union(2));
        // The members list is gathered during the pass itself (O(touched),
        // not O(num_vertices)), so snapshots cost nothing extra.
        let mut members = ws.union_members().to_vec();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 2]);
        // A window floor above the earlier edges empties the union.
        assert!(!ws.compute_simple_before(
            &g,
            root,
            TimeWindow::new(2, 3),
            &CyclePredicate::pass_all()
        ));
        assert_eq!(ws.union_size(), 0);
    }

    #[test]
    fn later_edges_are_not_admissible_for_before_union() {
        // The only way back from 1 to 0 comes *after* the root in (ts, id)
        // order, so the max-rooted union must be empty.
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1) // root candidate (max edge of nothing)
            .add_edge(1, 0, 5)
            .build();
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        assert!(!ws.compute_simple_before(
            &g,
            0,
            TimeWindow::new(0, 1),
            &CyclePredicate::pass_all()
        ));
        // Rooting the later edge instead finds the 2-cycle.
        assert!(ws.compute_simple_before(
            &g,
            1,
            TimeWindow::new(0, 5),
            &CyclePredicate::pass_all()
        ));
    }

    #[test]
    fn temporal_before_union_mirrors_closing_times() {
        // 0 →(1) 1 →(3) 2 →(5) 0, rooted at the closing t=5 edge: the path
        // 0 → 1 → 2 must be found with strictly increasing timestamps.
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 2, 3)
            .add_edge(2, 0, 5)
            .build();
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        let root = 2; // 2→0 at t=5
        assert!(ws.compute_temporal_before(
            &g,
            root,
            TimeWindow::new(0, 5),
            &CyclePredicate::pass_all()
        ));
        assert!(ws.in_union(0) && ws.in_union(1) && ws.in_union(2));
        // Members are gathered during the pass, mirroring the simple case.
        let mut members = ws.union_members().to_vec();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 2]);
        // Latest departure towards the root tail (vertex 2): from 1 only the
        // t=3 edge leads on; from 0 only the t=1 edge.
        assert_eq!(ws.latest_departure(1), 3);
        assert!(ws.can_close_after(1, 2));
        assert!(!ws.can_close_after(1, 3));
        // A floor above t=1 removes the only first hop.
        assert!(!ws.compute_temporal_before(
            &g,
            root,
            TimeWindow::new(2, 5),
            &CyclePredicate::pass_all()
        ));
    }

    #[test]
    fn temporal_before_rejects_non_increasing_paths() {
        // 0 →(4) 1 →(2) 2 →(5) 0: rooted at t=5, the way back 0 → 1 → 2 has
        // timestamps 4, 2 — not increasing, so no temporal cycle closes.
        let g = GraphBuilder::new()
            .add_edge(0, 1, 4)
            .add_edge(1, 2, 2)
            .add_edge(2, 0, 5)
            .build();
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        let root = g
            .edge_ids()
            .find(|(_, e)| e.src == 2 && e.dst == 0)
            .unwrap()
            .0;
        assert!(!ws.compute_temporal_before(
            &g,
            root,
            TimeWindow::new(0, 5),
            &CyclePredicate::pass_all()
        ));
        // Equal timestamps do not chain either: an edge at exactly t0 cannot
        // be part of the path below a t0 root.
        let g = GraphBuilder::new()
            .add_edge(0, 1, 5)
            .add_edge(1, 0, 5)
            .build();
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        assert!(!ws.compute_temporal_before(
            &g,
            1,
            TimeWindow::new(0, 5),
            &CyclePredicate::pass_all()
        ));
    }

    #[test]
    fn predicates_filter_union_passes() {
        use crate::predicate::{EdgePredicate, LabelFilter};
        use crate::types::TemporalEdge;
        // Two disjoint return paths from 1 to 0: a cheap one (amounts 10)
        // through vertex 2 and an expensive one (amounts 1000) through 3.
        // Rooting the closing edge 0→1? No — root is the max edge 3→0 below.
        let mut b = GraphBuilder::new();
        b.push_attr_edge(TemporalEdge::with_attrs(0, 1, 1, 1000, 7));
        b.push_attr_edge(TemporalEdge::with_attrs(1, 2, 2, 10, 1));
        b.push_attr_edge(TemporalEdge::with_attrs(1, 3, 2, 1000, 7));
        b.push_attr_edge(TemporalEdge::with_attrs(2, 0, 3, 10, 1));
        b.push_attr_edge(TemporalEdge::with_attrs(3, 0, 3, 1000, 7));
        let g = b.build();
        let root = g
            .edge_ids()
            .find(|(_, e)| e.src == 3 && e.dst == 0)
            .unwrap()
            .0;
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        // Unfiltered: both middle vertices are in the union.
        assert!(ws.compute_simple_before(
            &g,
            root,
            TimeWindow::new(0, 3),
            &CyclePredicate::pass_all()
        ));
        assert!(ws.in_union(2) && ws.in_union(3));
        // Amount floor 100 prunes the cheap path through 2 from the union.
        let big = CyclePredicate::from(EdgePredicate::pass_all().min_amount(100));
        assert!(ws.compute_simple_before(&g, root, TimeWindow::new(0, 3), &big));
        assert!(!ws.in_union(2) && ws.in_union(3));
        // A label allow-list that rejects every path edge empties the union.
        let none = CyclePredicate::from(EdgePredicate::pass_all().labels(LabelFilter::allow([9])));
        assert!(!ws.compute_simple_before(&g, root, TimeWindow::new(0, 3), &none));
        assert_eq!(ws.union_size(), 0);
        // Temporal mirror: amount floor keeps only the expensive chain.
        assert!(ws.compute_temporal_before(&g, root, TimeWindow::new(0, 3), &big));
        assert!(!ws.in_union(2) && ws.in_union(3));
        assert!(!ws.compute_temporal_before(&g, root, TimeWindow::new(0, 3), &none));
    }

    #[test]
    fn vertex_filters_prune_union_passes() {
        use crate::predicate::VertexFilter;
        // Two disjoint return paths from 1 to 0, through vertex 2 or 3.
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 2, 2)
            .add_edge(1, 3, 2)
            .add_edge(2, 0, 3)
            .add_edge(3, 0, 3)
            .add_edge(0, 1, 4) // the max root edge closing both cycles
            .build();
        let root = g.edge_ids().find(|(_, e)| e.ts == 4).unwrap().0;
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        let all = CyclePredicate::pass_all();
        // Root u→w = 0→1 at t=4: the backward union walks w=1 → … → u=0.
        assert!(ws.compute_simple_before(&g, root, TimeWindow::new(0, 4), &all));
        assert!(ws.in_union(2) && ws.in_union(3));
        // Denying vertex 2 removes the path through it from the union.
        let deny2 = CyclePredicate::pass_all().vertices(VertexFilter::deny(vec![2]));
        assert!(ws.compute_simple_before(&g, root, TimeWindow::new(0, 4), &deny2));
        assert!(!ws.in_union(2) && ws.in_union(3));
        // An allow-list without either middle vertex empties the union.
        let narrow = CyclePredicate::pass_all().vertices(VertexFilter::allow(vec![0, 1]));
        assert!(!ws.compute_simple_before(&g, root, TimeWindow::new(0, 4), &narrow));
        // Temporal mirror.
        assert!(ws.compute_temporal_before(&g, root, TimeWindow::new(0, 4), &deny2));
        assert!(!ws.in_union(2) && ws.in_union(3));
        assert!(!ws.compute_temporal_before(&g, root, TimeWindow::new(0, 4), &narrow));
    }

    /// The oracle's view of one union pass: the two reachability sets,
    /// each computed to a fixpoint over a plain edge list, then intersected
    /// by a full scan.
    struct Oracle {
        /// Earliest arrival from the root's head (simple passes: any
        /// timestamp), `None` if unreached.
        fwd: Vec<Option<Timestamp>>,
        /// Latest departure towards the root's tail (simple passes: any
        /// timestamp), `None` if the tail is unreachable.
        bwd: Vec<Option<Timestamp>>,
    }

    impl Oracle {
        /// Relaxes both directions to a fixpoint. A forward triple
        /// `(src, dst, ts)` extends an arrival at `src` to `dst`, and a
        /// backward one a departure from `dst` to `src`; when `timed`, only
        /// an arrival strictly before `ts` and a departure strictly after it.
        fn new(
            n: usize,
            timed: bool,
            (head, head_t): (VertexId, Timestamp),
            (tail, tail_t): (VertexId, Timestamp),
            fwd_edges: &[(VertexId, VertexId, Timestamp)],
            bwd_edges: &[(VertexId, VertexId, Timestamp)],
        ) -> Self {
            let (mut fwd, mut bwd) = (vec![None; n], vec![None; n]);
            fwd[head as usize] = Some(head_t);
            bwd[tail as usize] = Some(tail_t);
            let mut changed = true;
            while changed {
                changed = false;
                for &(src, dst, ts) in fwd_edges {
                    if fwd[src as usize].is_some_and(|a: Timestamp| !timed || a < ts)
                        && fwd[dst as usize].is_none_or(|b| timed && b > ts)
                    {
                        fwd[dst as usize] = Some(ts);
                        changed = true;
                    }
                }
                for &(src, dst, ts) in bwd_edges {
                    if bwd[dst as usize].is_some_and(|d: Timestamp| !timed || d > ts)
                        && bwd[src as usize].is_none_or(|c| timed && c < ts)
                    {
                        bwd[src as usize] = Some(ts);
                        changed = true;
                    }
                }
            }
            Self { fwd, bwd }
        }

        /// Every vertex carrying both marks, as `in_union` reports them.
        fn both(&self) -> Vec<bool> {
            (0..self.fwd.len())
                .map(|v| self.fwd[v].is_some() && self.bwd[v].is_some())
                .collect()
        }

        /// Checks the workspace after a pass over `head → … → tail` that
        /// returned `got`. With `early_exit` (the simple passes) the union is
        /// empty unless the head reaches the tail; the temporal passes report
        /// every vertex with both marks, and their latest departures.
        fn check(
            &self,
            ws: &CycleUnionWorkspace,
            got: bool,
            (head, tail): (VertexId, VertexId),
            early_exit: bool,
            what: &str,
        ) {
            let reaches = self.fwd[tail as usize].is_some();
            assert_eq!(
                got,
                reaches && self.bwd[head as usize].is_some(),
                "{what}: return"
            );
            let mut union = self.both();
            if early_exit && !reaches {
                union.fill(false);
            }
            for (v, &member) in union.iter().enumerate() {
                assert_eq!(ws.in_union(v as VertexId), member, "{what}: in_union({v})");
            }
            let mut members = ws.union_members().to_vec();
            members.sort_unstable();
            let want: Vec<VertexId> = (0..union.len() as VertexId)
                .filter(|&v| union[v as usize])
                .collect();
            assert_eq!(members, want, "{what}: union_members");
            if !early_exit {
                for &v in &members {
                    let want = self.bwd[v as usize].expect("a member reaches the tail");
                    assert_eq!(
                        ws.latest_departure(v),
                        want,
                        "{what}: latest_departure({v})"
                    );
                }
            }
        }
    }

    /// `(src, dst, ts)` of the `edges` that `keep` admits.
    fn triples(
        edges: &[(EdgeId, TemporalEdge)],
        keep: impl Fn(EdgeId, &TemporalEdge) -> bool,
    ) -> Vec<(VertexId, VertexId, Timestamp)> {
        edges
            .iter()
            .filter(|(id, e)| keep(*id, e))
            .map(|(_, e)| (e.src, e.dst, e.ts))
            .collect()
    }

    #[test]
    fn union_passes_match_a_from_scratch_oracle() {
        use crate::generators::{power_law_temporal, uniform_temporal, RandomTemporalConfig};
        use crate::predicate::EdgePredicate;
        let mut unreachable_roots = [0usize; 4];
        for seed in [3u64, 11] {
            let cfg = RandomTemporalConfig {
                num_vertices: 40,
                num_edges: 240,
                time_span: 600,
                seed,
            };
            for plain in [uniform_temporal(cfg), power_law_temporal(cfg)] {
                // Amounts and labels give the edge predicate something to
                // filter.
                let mut b = GraphBuilder::with_vertices(plain.num_vertices());
                for (id, e) in plain.edge_ids() {
                    let (amount, label) = (u64::from(id * 37 % 100), (id % 3) as u16);
                    b.push_attr_edge(TemporalEdge::with_attrs(e.src, e.dst, e.ts, amount, label));
                }
                let g = b.build();
                let n = g.num_vertices();
                let edges: Vec<(EdgeId, TemporalEdge)> = g.edge_ids().collect();
                let predicates = [
                    CyclePredicate::pass_all(),
                    CyclePredicate::from(EdgePredicate::pass_all().min_amount(30))
                        .vertices(VertexFilter::deny(vec![0, 5, 7])),
                ];
                // One workspace for every pass over this graph, so epochs
                // advance between roots, windows and passes.
                let mut ws = CycleUnionWorkspace::new(n);
                for (delta, floor) in [(40, 0), (150, 0), (600, 0), (40, 200), (600, 200)] {
                    for &(root, e0) in &edges {
                        let (t0, v0, v1) = (e0.ts, e0.src, e0.dst);
                        let at = |p: &str| format!("{p} root {root} δ {delta} floor {floor}");

                        // Min-rooted: edges after the root, up to t0 + δ.
                        let window = TimeWindow::from_start(t0, delta);
                        let after = triples(&edges, |id, e| id > root && window.contains(e.ts));
                        let oracle = Oracle::new(n, false, (v1, t0), (v0, t0), &after, &after);
                        let got = ws.compute_simple(&g, root, window);
                        oracle.check(&ws, got, (v1, v0), true, &at("simple"));
                        unreachable_roots[0] += usize::from(oracle.fwd[v0 as usize].is_none());

                        let late = Timestamp::MAX;
                        let oracle = Oracle::new(n, true, (v1, t0), (v0, late), &after, &after);
                        let got = ws.compute_temporal(&g, root, delta);
                        oracle.check(&ws, got, (v1, v0), false, &at("temporal"));
                        unreachable_roots[1] += usize::from(oracle.fwd[v0 as usize].is_none());

                        // Max-rooted, over the window the delta search
                        // passes: [max(t0 - δ, floor) : t0], below the root.
                        let (u, w) = (v0, v1);
                        let window = TimeWindow::new(t0.saturating_sub(delta).max(floor), t0);
                        for (p, predicate) in predicates.iter().enumerate() {
                            let vf = predicate.vertex_filter();
                            if !vf.accepts(u) || !vf.accepts(w) {
                                // The delta search admits no such root.
                                continue;
                            }
                            let at = |pass: &str| at(&format!("{pass} predicate {p}"));
                            // A vertex enters a pass only if the filter
                            // accepts it: the destination going forward, the
                            // source going back.
                            // Temporal paths stay strictly below t0, simple
                            // ones below the root in (ts, id) order.
                            let before = |timed, id: EdgeId, e: &TemporalEdge| {
                                (if timed { e.ts < t0 } else { id < root })
                                    && window.contains(e.ts)
                                    && predicate.edge_predicate().accepts(e)
                            };
                            let fwd = |timed| {
                                triples(&edges, |id, e| before(timed, id, e) && vf.accepts(e.dst))
                            };
                            let bwd = |timed| {
                                triples(&edges, |id, e| before(timed, id, e) && vf.accepts(e.src))
                            };

                            let oracle =
                                Oracle::new(n, false, (w, t0), (u, t0), &fwd(false), &bwd(false));
                            let got = ws.compute_simple_before(&g, root, window, predicate);
                            oracle.check(&ws, got, (w, u), true, &at("simple_before"));
                            unreachable_roots[2] += usize::from(oracle.fwd[u as usize].is_none());

                            let first = window.start.saturating_sub(1);
                            let oracle =
                                Oracle::new(n, true, (w, first), (u, t0), &fwd(true), &bwd(true));
                            let got = ws.compute_temporal_before(&g, root, window, predicate);
                            oracle.check(&ws, got, (w, u), false, &at("temporal_before"));
                            unreachable_roots[3] += usize::from(oracle.fwd[u as usize].is_none());
                        }
                    }
                }
            }
        }
        // Every pass met roots whose head cannot reach the tail, not only
        // reachable ones.
        assert!(
            unreachable_roots.iter().all(|&c| c > 0),
            "{unreachable_roots:?}"
        );
    }

    /// The id of the `src → dst` edge at `ts`.
    fn edge_id(g: &TemporalGraph, src: VertexId, dst: VertexId, ts: Timestamp) -> EdgeId {
        g.edge_ids()
            .find(|(_, e)| (e.src, e.dst, e.ts) == (src, dst, ts))
            .expect("edge exists")
            .0
    }

    /// Runs [`CycleUnionWorkspace::compute_simple`] on `root` and checks it
    /// against the from-scratch oracle; returns the pass's result.
    fn check_simple(
        ws: &mut CycleUnionWorkspace,
        g: &TemporalGraph,
        root: EdgeId,
        window: TimeWindow,
        what: &str,
    ) -> bool {
        let edges: Vec<(EdgeId, TemporalEdge)> = g.edge_ids().collect();
        let e0 = g.edge(root);
        let after = triples(&edges, |id, e| id > root && window.contains(e.ts));
        let (head, tail) = ((e0.dst, e0.ts), (e0.src, e0.ts));
        let oracle = Oracle::new(g.num_vertices(), false, head, tail, &after, &after);
        let got = ws.compute_simple(g, root, window);
        oracle.check(ws, got, (e0.dst, e0.src), true, what);
        got
    }

    /// [`check_simple`] for [`CycleUnionWorkspace::compute_simple_before`].
    fn check_simple_before(
        ws: &mut CycleUnionWorkspace,
        g: &TemporalGraph,
        root: EdgeId,
        window: TimeWindow,
        predicate: &CyclePredicate,
        what: &str,
    ) -> bool {
        let edges: Vec<(EdgeId, TemporalEdge)> = g.edge_ids().collect();
        let e0 = g.edge(root);
        let (u, w) = (e0.src, e0.dst);
        let vf = predicate.vertex_filter();
        let before = |id: EdgeId, e: &TemporalEdge| {
            id < root && window.contains(e.ts) && predicate.edge_predicate().accepts(e)
        };
        let fwd = triples(&edges, |id, e| before(id, e) && vf.accepts(e.dst));
        let bwd = triples(&edges, |id, e| before(id, e) && vf.accepts(e.src));
        let oracle = Oracle::new(g.num_vertices(), false, (w, e0.ts), (u, e0.ts), &fwd, &bwd);
        let got = ws.compute_simple_before(g, root, window, predicate);
        oracle.check(ws, got, (w, u), true, what);
        got
    }

    #[test]
    fn lockstep_pass_stops_when_the_backward_side_runs_dry() {
        // Root 2 → 1: the head 1 fans out to 10..=29 and on to 40..=59, while
        // the tail 2's only in-edges are the earlier 0 → 2 and, outside a
        // narrow window, 29 → 2. The forward side expands the head first and
        // queues the whole fan; the backward side then expands the tail,
        // admits nothing and runs dry with the fan still queued.
        let mut b = GraphBuilder::new().add_edge(2, 1, 1).add_edge(0, 2, 1);
        for i in 10..30 {
            b = b.add_edge(1, i, 2).add_edge(i, i + 30, 3);
        }
        let g = b.add_edge(29, 2, 50).build();
        let root = edge_id(&g, 2, 1, 1);
        assert!(edge_id(&g, 0, 2, 1) < root, "0 → 2 precedes the root");
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        let narrow = TimeWindow::from_start(1, 10);
        assert!(!check_simple(&mut ws, &g, root, narrow, "narrow"));
        assert!(!ws.in_union(10) && !ws.in_union(2));
        // A window that admits 29 → 2 closes the cycle 2 → 1 → 29 → 2.
        let wide = TimeWindow::from_start(1, 100);
        assert!(check_simple(&mut ws, &g, root, wide, "wide"));
        let mut members = ws.union_members().to_vec();
        members.sort_unstable();
        assert_eq!(members, vec![1, 2, 29]);
    }

    #[test]
    fn lockstep_pass_stops_when_the_forward_side_runs_dry() {
        // The mirror: root 2 → 1, the head's only way on is 1 → 3, a dead
        // end inside a narrow window, while 10..=29 (fed by 40..=59) all
        // lead into the tail. The backward side queues the whole in-fan; the
        // forward side then expands 3, admits nothing and runs dry.
        let mut b = GraphBuilder::new().add_edge(2, 1, 1).add_edge(1, 3, 2);
        for i in 10..30 {
            b = b.add_edge(i, 2, 3).add_edge(i + 30, i, 2);
        }
        let g = b.add_edge(3, 29, 50).build();
        let root = edge_id(&g, 2, 1, 1);
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        let narrow = TimeWindow::from_start(1, 10);
        assert!(!check_simple(&mut ws, &g, root, narrow, "narrow"));
        assert!(!ws.in_union(29) && !ws.in_union(3));
        // A window that admits 3 → 29 closes 2 → 1 → 3 → 29 → 2.
        let wide = TimeWindow::from_start(1, 100);
        assert!(check_simple(&mut ws, &g, root, wide, "wide"));
        let mut members = ws.union_members().to_vec();
        members.sort_unstable();
        assert_eq!(members, vec![1, 2, 3, 29]);
    }

    #[test]
    fn lockstep_pass_meets_on_the_first_hop() {
        // A 2-cycle 0 → 1 → 0 inside a dead-end out-fan of 1 (to 10..=14)
        // and an unreachable in-fan of 0 (from 20..=24): the head's first
        // expansion stamps the tail, and the fans stay out of the union.
        let mut b = GraphBuilder::new().add_edge(0, 1, 1).add_edge(1, 0, 2);
        for i in 0..5 {
            b = b.add_edge(1, 10 + i, 2).add_edge(20 + i, 0, 2);
        }
        let g = b.build();
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        let window = TimeWindow::from_start(1, 10);
        let root = edge_id(&g, 0, 1, 1);
        assert!(check_simple(&mut ws, &g, root, window, "min"));
        assert_eq!(ws.union_size(), 2);
        // Max-rooted at the closing edge, the first hop 0 → 1 meets too.
        let root = edge_id(&g, 1, 0, 2);
        let all = CyclePredicate::pass_all();
        let window = TimeWindow::new(0, 2);
        assert!(check_simple_before(&mut ws, &g, root, window, &all, "max"));
        assert_eq!(ws.union_size(), 2);
    }

    #[test]
    fn lockstep_pass_meets_deep_after_both_sides_pass_hubs() {
        // Root 0 → 1. The head 1 fans out to 10..=19, the tail 0 is fed by
        // 20..=29, and the only bridges are 15 → 30 → 31 → 25 and 17 → 31.
        // Both hubs are expanded and half their fans walked before 17 → 31
        // meets the backward side; 30 and 15 join the union only in the
        // backward phase after the meeting, and 50 → 31 comes from outside
        // the forward-reachable set.
        let mut b = GraphBuilder::new().add_edge(0, 1, 1);
        for i in 0..10 {
            b = b.add_edge(1, 10 + i, 2).add_edge(20 + i, 0, 2);
        }
        let g = b
            .add_edge(15, 30, 3)
            .add_edge(30, 31, 3)
            .add_edge(31, 25, 3)
            .add_edge(17, 31, 3)
            .add_edge(50, 31, 3)
            .build();
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        let window = TimeWindow::from_start(1, 10);
        let root = edge_id(&g, 0, 1, 1);
        assert!(check_simple(&mut ws, &g, root, window, "deep"));
        let mut members = ws.union_members().to_vec();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 15, 17, 25, 30, 31]);
        assert!(!ws.in_union(20) && !ws.in_union(50) && !ws.in_union(10));
    }

    #[test]
    fn filters_can_remove_the_only_meeting_vertex() {
        use crate::predicate::EdgePredicate;
        // Root 0 → 1 at t = 10 closes w = 1 → … → u = 0. The head fans out
        // to 10..=14 and 20..=24 fan into the tail; vertex 3 is the only
        // bridge, entered by the cheap 12 → 3 and left by 3 → 22.
        let mut b = GraphBuilder::new();
        let mut edge = |src, dst, ts, amount| {
            b.push_attr_edge(TemporalEdge::with_attrs(src, dst, ts, amount, 0));
        };
        edge(0, 1, 10, 100);
        for i in 0..5 {
            edge(1, 10 + i, 1, 100);
            edge(20 + i, 0, 5, 100);
        }
        edge(12, 3, 2, 5);
        edge(3, 22, 3, 100);
        let g = b.build();
        let root = edge_id(&g, 0, 1, 10);
        let window = TimeWindow::new(0, 10);
        let mut ws = CycleUnionWorkspace::new(g.num_vertices());
        let all = CyclePredicate::pass_all();
        assert!(check_simple_before(
            &mut ws, &g, root, window, &all, "pass-all"
        ));
        let mut members = ws.union_members().to_vec();
        members.sort_unstable();
        assert_eq!(members, vec![0, 1, 3, 12, 22]);
        // Denying 3 keeps both sides away from it.
        let deny = CyclePredicate::pass_all().vertices(VertexFilter::deny(vec![3]));
        assert!(!check_simple_before(
            &mut ws, &g, root, window, &deny, "deny 3"
        ));
        // An amount floor drops 12 → 3: the backward side still stamps 3,
        // but the forward side never does.
        let floor = CyclePredicate::from(EdgePredicate::pass_all().min_amount(50));
        assert!(!check_simple_before(
            &mut ws, &g, root, window, &floor, "floor"
        ));
        assert!(!ws.in_union(3) && !ws.in_union(12) && !ws.in_union(22));
    }

    #[test]
    fn plain_reachability() {
        let g = GraphBuilder::new()
            .add_static_edge(0, 1)
            .add_static_edge(1, 2)
            .add_static_edge(3, 0)
            .build();
        let r = reachable_from(&g, 0);
        assert_eq!(r, vec![true, true, true, false]);
    }
}
