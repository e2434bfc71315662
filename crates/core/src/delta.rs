//! Incremental (delta) enumeration: cycles **closed** by newly arrived edges.
//!
//! The batch-rooted dual of the one-shot enumerators in [`crate::seq`] /
//! [`crate::par`]. Those root every cycle at its *minimum* edge in
//! `(timestamp, id)` order and sweep all edges; here a cycle is rooted at its
//! *maximum* edge — the edge whose arrival completes it. Because the maximum
//! edge of a cycle is unique and belongs to exactly one ingest batch,
//! enumerating only the roots of the newest batch reports every cycle exactly
//! once over the lifetime of a stream: no duplicates across batches, nothing
//! missed.
//!
//! The search rooted at `e = u → w` (timestamp `t0`) therefore runs
//! *backwards in stream order*: it enumerates simple paths `w → … → u` over
//! edges strictly earlier than `e` in `(timestamp, id)` order, reusing the
//! same per-root machinery as the forward enumerators —
//! [`CycleUnionWorkspace`] pruning via the mirrored
//! [`compute_simple_before`](CycleUnionWorkspace::compute_simple_before) /
//! [`compute_temporal_before`](CycleUnionWorkspace::compute_temporal_before)
//! passes (including the latest-departure closing-time bound for temporal
//! cycles).
//!
//! # One plan, one entry point
//!
//! [`run`] executes a [`DeltaPlan`] — the cycle kind with its constraints
//! plus the pushed-down predicate — over a root range under one
//! [`Schedule`]. Every schedule runs the same per-root preamble (root
//! admission, self-loop handling, δ-window, union pass) and the same
//! in-place, frame-stack search on the split skeleton that fine temporal
//! enumeration uses, so reported cycles and deterministic work counters are
//! identical across schedules. The schedules differ only in who claims the
//! roots and whether the search may split, mirroring the one-shot
//! granularities:
//!
//! * [`Schedule::Sequential`] — one thread sweeps the batch's roots and never
//!   splits;
//! * [`Schedule::PerRoot`] — workers claim roots dynamically and never split
//!   (§4, coarse-grained): work efficient, but a batch whose cycles all hang
//!   off one hot root collapses to a single worker;
//! * [`Schedule::Fine`] — workers claim roots the same way and split a
//!   rooted search on demand (copy-on-steal, §5/§7 applied to the backward
//!   search): before a descent, if a worker is idle, the shallowest frame's
//!   first half goes to a new task with a copy of the path prefix, and the
//!   worker that takes it recomputes the root's union in its own scratch
//!   unless the scratch still holds it. So even a single-root burst engages
//!   every worker, while a lone busy worker copies nothing.
//!
//! Everything here is generic over [`GraphView`], so the same code serves the
//! immutable [`TemporalGraph`](pce_graph::TemporalGraph) and the streaming
//! [`SlidingWindowGraph`](pce_graph::stream::SlidingWindowGraph).
//!
//! # One pass, many queries
//!
//! Because the search rooted at an edge enumerates a *superset* of every
//! narrower query's results — a cycle that fits a window δ′ ≤ δ, a length
//! bound L′ ≤ L, or the temporal definition is also found by the simple
//! search at (δ, L) rooted at the same maximum edge — a single delta pass at
//! the loosest constraints can serve many standing queries at once, with
//! per-cycle re-checking instead of per-query re-searching. That is exactly
//! what [`MultiStreamingEngine`](crate::streaming::MultiStreamingEngine)
//! does: one union/pruning pass and one search per root at the widest
//! subscribed window, fanned out through per-query filters. The fan-out
//! itself is constraint-indexed (see
//! [`SubscriptionIndex`](crate::streaming::SubscriptionIndex)): because
//! acceptance is *monotone* in the window and length constraints, the
//! subscriptions sort into a frontier each candidate's time-span can
//! binary-search, so the per-cycle re-check costs `O(distinct constraint
//! profiles)` rather than `O(subscriptions)`.
//!
//! # Predicate pushdown
//!
//! The plan's [`CyclePredicate`] components are evaluated as early as
//! soundness allows:
//!
//! * the **per-edge** part (amount interval + label filter) is evaluated
//!   *during* traversal: a rejected edge is skipped by the union passes and
//!   by path extension alike, so it never enters scratch state or spawns
//!   work;
//! * the **vertex filter** prunes the same way — a denied vertex is skipped
//!   by the union passes, by path extension, and by root preparation (both
//!   root endpoints are cycle vertices);
//! * the **aggregate** constraints prune via monotone partial bounds: edge
//!   amounts are non-negative, so a partial path whose running total (root
//!   edge included) already exceeds `total_amount_max` can never complete a
//!   satisfying cycle, and under strict amount monotonicity a hop that fails
//!   to escalate past the previous one — or that reaches the closing root's
//!   amount — cuts the branch. The non-monotone parts (the total *minimum*,
//!   which later hops could still reach) are re-checked exactly when a cycle
//!   closes;
//! * **positional** constraints are checked the moment their position is
//!   determined: `FromStart(k)` when the path holds exactly `k` edges (the
//!   prefix is fixed, so the index is final) and `FromEnd(0)` at root
//!   preparation (the root *is* the last reported edge); the remaining
//!   `FromEnd` positions are only decidable — and are checked — at close.
//!
//! Each pruned branch is recorded in the deterministic work counters
//! (`aggregate_prunes`, `positional_prunes`, `vertex_prunes` — see
//! [`crate::metrics::WorkSnapshot`]), which the differential sweeps compare
//! against post-filtered runs. Since a subscription requires its whole
//! predicate on every reported cycle, the streaming engine pushes the *union
//! hull* of its subscriptions' predicates into this shared pass (see
//! [`crate::streaming`]) and re-checks exact per-subscription predicates at
//! fan-out. Pass [`CyclePredicate::pass_all`] for unfiltered enumeration —
//! that case is detected once per run and adds no per-edge work.

use crate::cycle::{CycleSink, HaltingSink};
use crate::metrics::{RunStats, WorkMetrics};
use crate::options::{SimpleCycleOptions, TemporalCycleOptions};
use crate::par::split::{self, Buffers, Driver, Frame, Split, Workers};
use crate::seq::RootScratch;
use crate::{Algorithm, Granularity};
use pce_graph::reach::CycleUnionWorkspace;
use pce_graph::{
    AdjEntry, Amount, CyclePredicate, EdgeId, GraphView, Position, TemporalEdge, TimeWindow,
    Timestamp, VertexFilter, VertexId,
};
use pce_sched::{DynamicCounter, Scope, ThreadPool, WorkerCtx};
use std::ops::Range;
use std::time::Instant;

/// The cycle definition a delta run enumerates, with its constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaKind {
    /// Simple cycles (no repeated vertex) fitting the options' window.
    Simple(SimpleCycleOptions),
    /// Temporal cycles (strictly increasing timestamps) fitting the options'
    /// window. Self-loops never qualify.
    Temporal(TemporalCycleOptions),
}

/// What one delta [`run`] enumerates: the cycle kind and the predicate
/// pushed into its traversal (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaPlan {
    /// Cycle definition and window/length constraints.
    pub kind: DeltaKind,
    /// Whole-cycle predicate every reported cycle satisfies —
    /// [`CyclePredicate::pass_all`] for unfiltered enumeration.
    pub predicate: CyclePredicate,
}

impl DeltaPlan {
    /// The window size δ (`Timestamp::MAX` for an unwindowed simple plan).
    fn delta(&self) -> Timestamp {
        match &self.kind {
            DeltaKind::Simple(o) => o.effective_delta(),
            DeltaKind::Temporal(o) => o.window_delta,
        }
    }

    fn max_len(&self) -> Option<usize> {
        match &self.kind {
            DeltaKind::Simple(o) => o.max_len,
            DeltaKind::Temporal(o) => o.max_len,
        }
    }
}

/// How a delta [`run`] spreads the roots across workers (see the
/// [module docs](self)). Reports and deterministic work counters are the
/// same under every schedule.
#[derive(Clone, Copy)]
pub enum Schedule<'a> {
    /// One thread sweeps the roots in ascending id order; no pool is touched.
    Sequential,
    /// Workers claim roots dynamically and search each one alone
    /// (coarse-grained).
    PerRoot(&'a ThreadPool),
    /// Workers claim roots dynamically and split a rooted search on demand
    /// for idle workers (fine-grained).
    Fine(&'a ThreadPool),
}

/// Enumerates the cycles of `plan` whose maximum edge lies in `roots`
/// (typically the id range of the newest ingest batch) under `schedule`.
///
/// `scratches` is caller-owned and reused across runs: it is grown to one
/// scratch per worker and each is sized to `graph.num_vertices()`, so a
/// long-lived caller pays no per-run allocation (the scratch's
/// epoch-stamping makes reuse free).
pub fn run<G: GraphView + ?Sized, S: CycleSink>(
    plan: &DeltaPlan,
    schedule: Schedule<'_>,
    graph: &G,
    roots: Range<EdgeId>,
    sink: &S,
    scratches: &mut Vec<RootScratch>,
) -> RunStats {
    let (pool, fine, granularity) = match schedule {
        Schedule::Sequential => (None, false, Granularity::Sequential),
        Schedule::PerRoot(pool) => (Some(pool), false, Granularity::CoarseGrained),
        Schedule::Fine(pool) => (Some(pool), true, Granularity::FineGrained),
    };
    // One caller scratch per worker.
    let threads = pool.map_or(1, ThreadPool::num_threads);
    if scratches.len() < threads {
        scratches.resize_with(threads, || RootScratch::new(0));
    }
    let num_vertices = graph.num_vertices();
    let metrics = WorkMetrics::new(threads);
    let halting = HaltingSink::new(sink);
    let shared = Shared {
        graph,
        plan,
        push: Pushdown::of(&plan.predicate),
        sink: &halting,
        metrics: &metrics,
        workers: Workers::new(scratches[..threads].iter_mut().map(|scratch| {
            scratch.ensure_vertices(num_vertices);
            WorkerState {
                buf: std::mem::take(&mut scratch.search).recycle(),
                scratch,
                union_root: None,
                edge_buf: Vec::new(),
            }
        })),
    };
    let start = Instant::now();
    let counter = DynamicCounter::new(roots.len(), 1);
    let base = roots.start;
    match pool {
        None => shared.claim_roots(&counter, base, 0, None),
        Some(pool) => pool.scope(|scope| {
            for _ in 0..threads {
                let (shared, counter) = (&shared, &counter);
                scope.spawn(move |scope, ctx| {
                    let split = fine.then_some((scope, ctx));
                    shared.claim_roots(counter, base, ctx.worker_id(), split);
                });
            }
        }),
    }
    for state in shared.workers.into_states() {
        state.scratch.search = state.buf.recycle();
    }
    RunStats {
        cycles: sink.count(),
        wall_secs: start.elapsed().as_secs_f64(),
        work: metrics.snapshot(),
        threads,
        ..RunStats::default()
    }
    .tagged(Algorithm::Johnson, granularity)
}

/// Predicate-derived pushdown flags, computed once per run and read by the
/// extension step under every schedule, so every schedule takes identical
/// per-edge fast paths.
#[derive(Clone, Copy)]
struct Pushdown {
    /// `predicate.edge_predicate().is_pass_all()` — skips the attribute
    /// lookup on the unfiltered hot path.
    pred_all: bool,
    /// Does any pushed-down check need the edge record at all?
    attrs_needed: bool,
    /// `predicate.has_cycle_constraints()` — gates the exact whole-cycle
    /// re-check at close time.
    cycle_check: bool,
    /// Is there a finite total-amount ceiling to prune on?
    check_total: bool,
    /// `predicate.requires_monotone()`.
    monotone: bool,
    /// Any `FromStart` positional constraints to check on the fixed prefix?
    has_from_start: bool,
    /// `*predicate.vertex_filter() == VertexFilter::Any`.
    vf_any: bool,
}

impl Pushdown {
    fn of(predicate: &CyclePredicate) -> Self {
        let pred_all = predicate.edge_predicate().is_pass_all();
        let check_total = predicate.total_amount_max() != Amount::MAX;
        let monotone = predicate.requires_monotone();
        let has_from_start = predicate
            .positions()
            .any(|(p, _)| matches!(p, Position::FromStart(_)));
        Self {
            pred_all,
            attrs_needed: !pred_all || check_total || monotone || has_from_start,
            cycle_check: predicate.has_cycle_constraints(),
            check_total,
            monotone,
            has_from_start,
            vf_any: *predicate.vertex_filter() == VertexFilter::Any,
        }
    }
}

/// Immutable state shared by every worker and task of one [`run`], and the
/// workers' search states.
struct Shared<'a, G: ?Sized, S> {
    graph: &'a G,
    plan: &'a DeltaPlan,
    /// Cached pushdown flags of `plan.predicate` (see [`Pushdown`]).
    push: Pushdown,
    sink: &'a HaltingSink<'a, S>,
    metrics: &'a WorkMetrics,
    workers: Workers<WorkerState<'a>>,
}

/// A worker's search state: its caller-owned scratch, holding the union of
/// the root being searched, and the scratch's frame buffers on loan for the
/// run.
struct WorkerState<'a> {
    buf: Buffers<'a>,
    scratch: &'a mut RootScratch,
    /// The root whose union `scratch` holds, if it was computed in this run:
    /// a split of that root resumes without a pass. Every run starts without
    /// one, because the stream graph changes between runs.
    union_root: Option<EdgeId>,
    /// Scratch for the close-time whole-cycle re-check.
    edge_buf: Vec<TemporalEdge>,
}

/// The read-only facts of one rooted search.
struct Rooted {
    /// The root (maximum) edge id; simple-mode path edges stay below it.
    root: EdgeId,
    /// The root edge `u → w`: the search runs from `w` back to `u`.
    edge: TemporalEdge,
    /// The root's δ-window.
    window: TimeWindow,
}

impl<'a, G: GraphView + ?Sized, S: CycleSink> Shared<'a, G, S> {
    /// Root-edge admission: the pushed-down predicate parts decidable from
    /// the root edge alone. The root is part of every cycle it closes, so it
    /// must satisfy the per-edge predicate, the vertex filter on both
    /// endpoints, any constraint pinned at `FromEnd(0)` (the root *is* the
    /// last reported edge), and leave room under the total-amount ceiling.
    /// Records the matching prune counter and returns `false` when the root
    /// can close nothing.
    fn admit_root(&self, e: &TemporalEdge, worker: usize) -> bool {
        let (predicate, metrics) = (&self.plan.predicate, self.metrics);
        let edge_pred = predicate.edge_predicate();
        if !edge_pred.is_pass_all() && !edge_pred.accepts(e) {
            return false;
        }
        let vf = predicate.vertex_filter();
        if *vf != VertexFilter::Any && (!vf.accepts(e.src) || !vf.accepts(e.dst)) {
            metrics.vertex_prune(worker);
            return false;
        }
        if let Some(p) = predicate.from_end_at(0) {
            if !p.accepts(e) {
                metrics.positional_prune(worker);
                return false;
            }
        }
        if e.amount > predicate.total_amount_max() {
            metrics.aggregate_prune(worker);
            return false;
        }
        true
    }

    /// Per-edge admission of the extension step: evaluates the pushed-down
    /// predicate parts decidable from the candidate edge `id` and the fixed
    /// path prefix of `prefix_len` edges scanned by `level` — the per-edge
    /// attribute predicate, the monotone aggregate bounds (running total vs.
    /// ceiling, strict amount escalation below the root's amount), and the
    /// `FromStart(prefix_len)` positional constraint (the prefix is fixed, so
    /// the candidate's index is final). Returns the running total and amount
    /// the extended path would carry, or `None` when the branch is pruned
    /// (with the matching counter recorded). `level.last_amount` is
    /// meaningful iff `prefix_len > 0`.
    #[inline]
    fn admit_edge(
        &self,
        id: EdgeId,
        prefix_len: usize,
        root_amount: Amount,
        level: &Frame<'_>,
        worker: usize,
    ) -> Option<(Amount, Amount)> {
        let (push, predicate, metrics) = (self.push, &self.plan.predicate, self.metrics);
        if !push.attrs_needed {
            return Some((level.sum, 0));
        }
        let e = self.graph.edge(id);
        if !push.pred_all && !predicate.edge_predicate().accepts(&e) {
            return None;
        }
        if push.monotone
            && (e.amount >= root_amount || (prefix_len > 0 && e.amount <= level.last_amount))
        {
            // Amounts must strictly escalate along the reported order and the
            // closing root edge is the largest of all, so a non-escalating
            // hop — or one at/above the root's amount — can never be
            // completed.
            metrics.aggregate_prune(worker);
            return None;
        }
        let sum = level.sum.saturating_add(e.amount);
        if push.check_total && sum > predicate.total_amount_max() {
            // Amounts are non-negative: a partial total above the ceiling
            // stays above it.
            metrics.aggregate_prune(worker);
            return None;
        }
        if push.has_from_start {
            if let Some(p) = predicate.from_start_at(prefix_len as u32) {
                if !p.accepts(&e) {
                    metrics.positional_prune(worker);
                    return None;
                }
            }
        }
        Some((sum, e.amount))
    }

    fn rooted(&self, root: EdgeId) -> Rooted {
        let edge = self.graph.edge(root);
        Rooted {
            root,
            edge,
            // A cycle whose maximum edge has timestamp t0 fits in a δ-window
            // iff all of its edges have ts >= t0 - δ (for temporal cycles,
            // the first edge anchors the window).
            window: TimeWindow::new(edge.ts.saturating_sub(self.plan.delta()), edge.ts),
        }
    }

    /// The mirrored union pass of `rooted` into `union`, whose root is then
    /// `union_root`; `false` when the root closes nothing.
    fn union_pass(
        &self,
        rooted: &Rooted,
        union: &mut CycleUnionWorkspace,
        union_root: &mut Option<EdgeId>,
    ) -> bool {
        let (graph, predicate) = (self.graph, &self.plan.predicate);
        *union_root = Some(rooted.root);
        match self.plan.kind {
            DeltaKind::Simple(_) => {
                union.compute_simple_before(graph, rooted.root, rooted.window, predicate)
            }
            DeltaKind::Temporal(_) => {
                union.compute_temporal_before(graph, rooted.root, rooted.window, predicate)
            }
        }
    }

    /// The per-root preamble: root admission, self-loop handling, the
    /// δ-window and the union pass into `scratch`. Returns the root's facts,
    /// or `None` when the root closes nothing beyond a reported self-loop.
    fn prepare_root(
        &self,
        root: EdgeId,
        scratch: &mut RootScratch,
        union_root: &mut Option<EdgeId>,
        worker: usize,
    ) -> Option<Rooted> {
        let rooted = self.rooted(root);
        let e = rooted.edge;
        let predicate = &self.plan.predicate;
        if e.src == e.dst {
            // Strictly increasing timestamps leave no temporal self-loop.
            if let DeltaKind::Simple(opts) = &self.plan.kind {
                if self.admit_root(&e, worker)
                    && opts.include_self_loops
                    && opts.len_ok(1)
                    && (!self.push.cycle_check
                        || predicate.accepts_cycle_edges(std::slice::from_ref(&e)))
                {
                    self.sink.push(&[e.src], &[root]);
                }
            }
            return None;
        }
        if !self.admit_root(&e, worker) {
            return None;
        }
        self.metrics
            .counted_union_pass(worker, &mut scratch.union, |u| {
                self.union_pass(&rooted, u, union_root)
            })
            .then_some(rooted)
    }

    /// The out-edges along which a path reaching `v` at `arrival` may
    /// continue.
    fn frame_edges(&self, rooted: &Rooted, v: VertexId, arrival: Timestamp) -> &'a [AdjEntry] {
        let window = if matches!(self.plan.kind, DeltaKind::Temporal(_)) {
            // Timestamps strictly increase along the path and stay strictly
            // below the root's.
            TimeWindow::new(arrival.saturating_add(1), rooted.edge.ts.saturating_sub(1))
        } else {
            rooted.window
        };
        self.graph.out_edges_in_window(v, window)
    }

    /// Claims roots until none are left and searches each in place on this
    /// worker's state. With `split`, the searches split work off for idle
    /// workers.
    fn claim_roots<'scope>(
        &'scope self,
        counter: &DynamicCounter,
        base: EdgeId,
        worker: usize,
        split: Option<(&Scope<'scope>, &WorkerCtx<'_>)>,
    ) {
        let mut state = self.workers.lock(worker);
        let WorkerState {
            buf,
            scratch,
            union_root,
            edge_buf,
        } = &mut *state;
        while let Some(i) = counter.next() {
            if self.sink.stopped() {
                break;
            }
            let start = Instant::now();
            if let Some(rooted) = self.prepare_root(base + i as EdgeId, scratch, union_root, worker)
            {
                let e = rooted.edge;
                // Seeding the arrival one below the window start admits
                // exactly first hops with ts >= start.
                let edges = self.frame_edges(&rooted, e.dst, rooted.window.start.saturating_sub(1));
                let frame = Frame {
                    edges,
                    sum: e.amount,
                    last_amount: 0,
                };
                buf.load(&[e.dst], &[], frame);
                buf.on_path.insert(e.src);
                self.metrics.recursive_call(worker);
                self.search(buf, &scratch.union, edge_buf, &rooted, worker, split);
            }
            self.metrics.add_busy(worker, start.elapsed());
        }
    }

    /// Runs the search loaded in `buf` on the split skeleton. The extension
    /// step, for both cycle kinds: every admissible earlier edge may continue
    /// the path; reaching the root's tail closes a cycle.
    fn search<'scope>(
        &'scope self,
        buf: &mut Buffers<'a>,
        union: &CycleUnionWorkspace,
        edge_buf: &mut Vec<TemporalEdge>,
        rooted: &Rooted,
        worker: usize,
        split: Option<(&Scope<'scope>, &WorkerCtx<'_>)>,
    ) {
        let (graph, push, metrics) = (self.graph, self.push, self.metrics);
        let predicate = &self.plan.predicate;
        let temporal = matches!(self.plan.kind, DeltaKind::Temporal(_));
        let max_len = self.plan.max_len();
        let len_ok = |len: usize| max_len.is_none_or(|m| len <= m);
        let (root, target) = (rooted.root, rooted.edge.src);
        split::search(self, buf, root, worker, split, |buf, frame, entry| {
            // Temporal admissibility is already timestamp-bounded below t0
            // (ids refine timestamp order).
            if !temporal && entry.edge >= root {
                return None;
            }
            let prefix_len = buf.path_edges.len();
            let (sum, amount) =
                self.admit_edge(entry.edge, prefix_len, rooted.edge.amount, frame, worker)?;
            let w = entry.neighbor;
            if w == target {
                if len_ok(buf.path_edges.len() + 2) {
                    // Emit `path ∪ {entry, root}` on the buffers. When the
                    // predicate carries cycle-level constraints, the exact
                    // whole-cycle re-check decides the non-monotone ones
                    // (total minimum, `FromEnd(i >= 1)` positions); vertex
                    // membership was enforced during expansion.
                    buf.path.push(target);
                    buf.path_edges.extend([entry.edge, root]);
                    let accepted = !push.cycle_check || {
                        edge_buf.clear();
                        edge_buf.extend(buf.path_edges.iter().map(|&id| graph.edge(id)));
                        predicate.accepts_cycle_edges(edge_buf)
                    };
                    if accepted {
                        self.sink.push(&buf.path, &buf.path_edges);
                    }
                    buf.path_edges.truncate(buf.path_edges.len() - 2);
                    buf.path.pop();
                }
                return None;
            }
            if !push.vf_any && !predicate.vertex_filter().accepts(w) {
                metrics.vertex_prune(worker);
                return None;
            }
            if buf.on_path.contains(w)
                || !union.in_union(w)
                || (temporal && !union.can_close_after(w, entry.ts))
                || !len_ok(buf.path_edges.len() + 3)
            {
                return None;
            }
            Some(Frame {
                edges: self.frame_edges(rooted, w, entry.ts),
                sum,
                last_amount: amount,
            })
        });
    }
}

impl<'a, G: GraphView + ?Sized, S: CycleSink> Driver<'a> for Shared<'a, G, S> {
    type State = WorkerState<'a>;

    fn workers(&self) -> &Workers<WorkerState<'a>> {
        &self.workers
    }

    fn metrics(&self) -> &WorkMetrics {
        self.metrics
    }

    fn stopped(&self) -> bool {
        self.sink.stopped()
    }

    /// Recomputes the root's union in this worker's scratch, unless the
    /// scratch already holds it (most splits return to their splitter). The
    /// pass is not counted again: union members and roots stay the
    /// sequential search's.
    fn resume<'scope>(
        &'scope self,
        state: &mut WorkerState<'a>,
        task: Split<'a>,
        scope: &Scope<'scope>,
        ctx: &WorkerCtx<'_>,
    ) where
        'a: 'scope,
    {
        let WorkerState {
            buf,
            scratch,
            union_root,
            edge_buf,
        } = state;
        let rooted = self.rooted(task.root);
        if *union_root != Some(task.root) {
            let nonempty = self.union_pass(&rooted, &mut scratch.union, union_root);
            debug_assert!(nonempty, "a split root has a non-empty union");
        }
        buf.load(&task.path, &task.path_edges, task.frame);
        buf.on_path.insert(rooted.edge.src);
        let worker = ctx.worker_id();
        self.search(
            buf,
            &scratch.union,
            edge_buf,
            &rooted,
            worker,
            Some((scope, ctx)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{CollectingSink, CountingSink, FirstKSink};
    use crate::seq::johnson::johnson_simple;
    use crate::seq::temporal::temporal_simple;
    use pce_graph::generators::{self, RandomTemporalConfig};
    use pce_graph::{EdgePredicate, GraphBuilder, TemporalGraph};

    fn simple(opts: SimpleCycleOptions) -> DeltaPlan {
        DeltaPlan {
            kind: DeltaKind::Simple(opts),
            predicate: CyclePredicate::pass_all(),
        }
    }

    fn temporal(opts: TemporalCycleOptions) -> DeltaPlan {
        DeltaPlan {
            kind: DeltaKind::Temporal(opts),
            predicate: CyclePredicate::pass_all(),
        }
    }

    /// Runs `plan` over every edge of `g` as a root, on fresh scratch.
    fn run_all<S: CycleSink>(
        plan: &DeltaPlan,
        schedule: Schedule<'_>,
        g: &TemporalGraph,
        sink: &S,
    ) -> RunStats {
        run(
            plan,
            schedule,
            g,
            0..g.num_edges() as EdgeId,
            sink,
            &mut Vec::new(),
        )
    }

    /// Rooting every edge as the *maximum* must enumerate exactly the same
    /// cycle set as rooting every edge as the *minimum* (the one-shot path)
    /// — and both must match the shared brute-force oracle.
    #[test]
    fn max_rooted_matches_min_rooted_simple() {
        for seed in 0..6 {
            let g = generators::uniform_temporal(RandomTemporalConfig {
                num_vertices: 14,
                num_edges: 70,
                time_span: 50,
                seed: 900 + seed,
            });
            for delta in [12, 30, 100] {
                let opts = SimpleCycleOptions::with_window(delta);
                let oracle = crate::testing::oracle_simple(&g, &opts);
                let fwd = CollectingSink::new();
                johnson_simple(&g, &opts, &fwd);
                assert_eq!(fwd.canonical_cycles(), oracle, "seed {seed} delta {delta}");
                let bwd = CollectingSink::new();
                run_all(&simple(opts), Schedule::Sequential, &g, &bwd);
                assert_eq!(bwd.canonical_cycles(), oracle, "seed {seed} delta {delta}");
            }
        }
    }

    #[test]
    fn max_rooted_matches_min_rooted_temporal() {
        for seed in 0..6 {
            let g = generators::power_law_temporal(RandomTemporalConfig {
                num_vertices: 20,
                num_edges: 110,
                time_span: 70,
                seed: 1_300 + seed,
            });
            for delta in [15, 40, 100] {
                let opts = TemporalCycleOptions::with_window(delta);
                let oracle = crate::testing::oracle_temporal(&g, delta);
                let fwd = CollectingSink::new();
                temporal_simple(&g, &opts, &fwd);
                assert_eq!(fwd.canonical_cycles(), oracle, "seed {seed} delta {delta}");
                let bwd = CollectingSink::new();
                run_all(&temporal(opts), Schedule::Sequential, &g, &bwd);
                assert_eq!(bwd.canonical_cycles(), oracle, "seed {seed} delta {delta}");
            }
        }
    }

    #[test]
    fn unconstrained_and_bounded_options_are_respected() {
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(1, 0, 2)
            .add_edge(1, 2, 3)
            .add_edge(2, 0, 4)
            .build();
        let all = CollectingSink::new();
        let opts = SimpleCycleOptions::unconstrained();
        run_all(&simple(opts), Schedule::Sequential, &g, &all);
        assert_eq!(all.count(), 2);
        for c in all.canonical_cycles() {
            c.validate(&g).expect("structurally valid");
        }
        let short = CountingSink::new();
        run_all(&simple(opts.max_len(2)), Schedule::Sequential, &g, &short);
        assert_eq!(short.count(), 1);
    }

    #[test]
    fn self_loops_only_when_requested() {
        let g = GraphBuilder::new()
            .add_edge(0, 0, 1)
            .add_edge(0, 1, 2)
            .add_edge(1, 0, 3)
            .build();
        let opts = SimpleCycleOptions::unconstrained();
        let without = CountingSink::new();
        run_all(&simple(opts), Schedule::Sequential, &g, &without);
        assert_eq!(without.count(), 1);
        let with = CountingSink::new();
        let plan = simple(opts.include_self_loops(true));
        run_all(&plan, Schedule::Sequential, &g, &with);
        assert_eq!(with.count(), 2);
        let pool = ThreadPool::new(2);
        let with = CountingSink::new();
        run_all(&plan, Schedule::Fine(&pool), &g, &with);
        assert_eq!(with.count(), 2);
        // A temporal self-loop closes nothing.
        let t = CountingSink::new();
        let plan = temporal(TemporalCycleOptions::with_window(10));
        run_all(&plan, Schedule::Fine(&pool), &g, &t);
        assert_eq!(t.count(), 1);
    }

    /// Every schedule runs the same preamble and search: for both cycle
    /// kinds, unfiltered and under an extended predicate hull (total
    /// ceiling, monotone amounts, a `FromEnd(0)` pin, a vertex deny-set),
    /// each schedule must report exactly the sequential cycles with
    /// identical deterministic work counters.
    #[test]
    fn every_schedule_matches_sequential() {
        use pce_graph::generators::MonotoneLayeringConfig;
        let cfg = MonotoneLayeringConfig {
            num_accounts: 150,
            background_edges: 900,
            time_span: 150_000,
            num_chains: 5,
            num_decoys: 6,
            seed: 777,
            ..MonotoneLayeringConfig::default()
        };
        let (g, _) = generators::monotone_layering(cfg);
        let hull = CyclePredicate::pass_all()
            .total_max(cfg.alert_total_max())
            .monotone_amounts(true)
            .at(
                Position::FromEnd(0),
                EdgePredicate::pass_all().min_amount(cfg.alert_floor()),
            )
            .vertices(VertexFilter::deny(vec![0, 1]));
        let pools: Vec<ThreadPool> = [1, 2, 4, 8].into_iter().map(ThreadPool::new).collect();
        let counters = |s: &RunStats| {
            [
                s.work.total_edge_visits(),
                s.work.total_recursive_calls(),
                s.work.total_union_members(),
                s.work.total_roots(),
                s.work.total_aggregate_prunes(),
                s.work.total_positional_prunes(),
                s.work.total_vertex_prunes(),
            ]
        };
        for kind in [
            DeltaKind::Simple(SimpleCycleOptions::with_window(cfg.chain_span)),
            DeltaKind::Temporal(TemporalCycleOptions::with_window(cfg.chain_span)),
        ] {
            for predicate in [CyclePredicate::pass_all(), hull.clone()] {
                let filtered = !predicate.is_pass_all();
                let plan = DeltaPlan {
                    kind: kind.clone(),
                    predicate,
                };
                let seq = CollectingSink::new();
                let seq_stats = run_all(&plan, Schedule::Sequential, &g, &seq);
                assert!(seq.count() > 0, "{kind:?}");
                if filtered {
                    let work = &seq_stats.work;
                    assert!(work.total_aggregate_prunes() > 0, "{kind:?}");
                    assert!(work.total_positional_prunes() > 0, "{kind:?}");
                    assert!(work.total_vertex_prunes() > 0, "{kind:?}");
                }
                for pool in &pools {
                    let threads = pool.num_threads();
                    for (name, schedule) in [
                        ("per-root", Schedule::PerRoot(pool)),
                        ("fine", Schedule::Fine(pool)),
                    ] {
                        let sink = CollectingSink::new();
                        let stats = run_all(&plan, schedule, &g, &sink);
                        let case = format!("{name} threads={threads} {kind:?} filtered={filtered}");
                        assert_eq!(sink.canonical_cycles(), seq.canonical_cycles(), "{case}");
                        assert_eq!(counters(&stats), counters(&seq_stats), "{case}");
                        assert_eq!(stats.threads, threads, "{case}");
                        if threads == 1 {
                            // A 1-worker pool is never idle mid-run: nothing
                            // splits.
                            assert_eq!(stats.work.total_copies(), 0, "{case}");
                            assert_eq!(stats.work.total_steals(), 0, "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fine_results_independent_of_thread_count() {
        let g = generators::power_law_temporal(RandomTemporalConfig {
            num_vertices: 20,
            num_edges: 110,
            time_span: 70,
            seed: 1_301,
        });
        let plan = temporal(TemporalCycleOptions::with_window(30));
        let reference = CollectingSink::new();
        run_all(&plan, Schedule::Sequential, &g, &reference);
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let sink = CollectingSink::new();
            let stats = run_all(&plan, Schedule::Fine(&pool), &g, &sink);
            assert_eq!(
                reference.canonical_cycles(),
                sink.canonical_cycles(),
                "threads {threads}"
            );
            assert_eq!(stats.granularity, Some(Granularity::FineGrained));
        }
    }

    /// Early termination: the sink stops the run under every schedule, and
    /// the scope still finishes.
    #[test]
    fn early_termination_stops_every_schedule() {
        let g = generators::fig4a_exponential_cycles(12);
        let plan = simple(SimpleCycleOptions::unconstrained());
        let pool = ThreadPool::new(2);
        let wide = ThreadPool::new(8);
        for schedule in [
            Schedule::Sequential,
            Schedule::PerRoot(&pool),
            Schedule::Fine(&pool),
            Schedule::PerRoot(&wide),
            Schedule::Fine(&wide),
        ] {
            let sink = FirstKSink::new(3);
            run_all(&plan, schedule, &g, &sink);
            assert_eq!(sink.into_cycles().len(), 3);
        }
    }

    /// The delta mirror of `fine_temporal::single_root_search_is_split_on_demand`:
    /// every cycle of the hub-burst gadget is closed by one root edge, so the
    /// per-root schedule pins to a single worker while the fine one must
    /// split the rooted search for idle workers. A split needs an idle
    /// worker to be scheduled before the search ends, so the spread check
    /// gets a few attempts on a multicore and is skipped on one core; the
    /// cycle count and the copy bound hold on every run.
    #[test]
    fn partial_root_ranges_report_only_their_cycles() {
        // Two vertex-disjoint 2-cycles; each closes at its own later edge.
        let g = GraphBuilder::new()
            .add_edge(0, 1, 1)
            .add_edge(2, 3, 2)
            .add_edge(1, 0, 3)
            .add_edge(3, 2, 4)
            .build();
        // Roots {2} (the 1→0 edge) close exactly the 0/1 cycle.
        let sink = CollectingSink::new();
        run(
            &simple(SimpleCycleOptions::unconstrained()),
            Schedule::Sequential,
            &g,
            2..3,
            &sink,
            &mut Vec::new(),
        );
        let cycles = sink.into_cycles();
        assert_eq!(cycles.len(), 1);
        assert!(cycles[0].vertices.contains(&0) && cycles[0].vertices.contains(&1));
    }

    /// Canonical post-filter baseline: pass-all enumeration re-checked per
    /// cycle with the exact predicate over the reported (max-edge-last)
    /// order.
    fn post_filtered(
        g: &TemporalGraph,
        cycles: Vec<crate::cycle::Cycle>,
        p: &CyclePredicate,
    ) -> Vec<crate::cycle::Cycle> {
        crate::testing::canonicalized(cycles.into_iter().filter(|c| {
            let edges: Vec<TemporalEdge> = c.edges.iter().map(|&id| g.edge(id)).collect();
            p.accepts_cycle(&edges, &c.vertices)
        }))
    }

    /// Hand-sized graph exercising every predicate class end to end: two
    /// 3-cycles share the closing max edge `2→0` but differ in their middle
    /// vertex, labels and amounts, so each predicate class separates them a
    /// different way. Every pushed predicate must report exactly the
    /// post-filtered pass-all results, and the classes whose bounds are
    /// decidable early must record their prune counters.
    #[test]
    fn cycle_predicate_pushdown_matches_post_filter() {
        use pce_graph::LabelFilter;
        let mut b = GraphBuilder::new();
        for (src, dst, ts, amount, label) in [
            (0, 1, 1, 5, 1),
            (1, 2, 2, 6, 1),
            (0, 3, 1, 4, 2),
            (3, 2, 2, 5, 2),
            (2, 0, 3, 7, 9),
        ] {
            b.push_attr_edge(TemporalEdge::with_attrs(src, dst, ts, amount, label));
        }
        let g = b.build();
        let mut plan = simple(SimpleCycleOptions::unconstrained());
        let all = CollectingSink::new();
        run_all(&plan, Schedule::Sequential, &g, &all);
        let raw = all.into_cycles();
        assert_eq!(raw.len(), 2, "both 3-cycles close at the 2→0 root");

        // (predicate, expected survivors, which prune counter must fire;
        // None = the constraint is only decidable at close).
        let wire2 = EdgePredicate::pass_all().labels(LabelFilter::allow(vec![2]));
        let cases: Vec<(CyclePredicate, usize, Option<&str>)> = vec![
            (
                CyclePredicate::pass_all().vertices(VertexFilter::deny(vec![3])),
                1,
                Some("vertex"),
            ),
            (
                CyclePredicate::pass_all().at(Position::FromStart(0), wire2.clone()),
                1,
                Some("positional"),
            ),
            (
                CyclePredicate::pass_all().at(Position::FromEnd(1), wire2.clone()),
                1,
                None,
            ),
            (
                CyclePredicate::pass_all().at(
                    Position::FromEnd(0),
                    EdgePredicate::pass_all().min_amount(8),
                ),
                0,
                Some("positional"),
            ),
            // Totals: 5+6+7 = 18 and 4+5+7 = 16.
            (
                CyclePredicate::pass_all().total_max(17),
                1,
                Some("aggregate"),
            ),
            (CyclePredicate::pass_all().total_min(17), 1, None),
            // 5,6,7 escalates strictly; 4,5,7 does too — deny label 1 to
            // leave one, then break it with a per-edge amount cap instead.
            (CyclePredicate::pass_all().monotone_amounts(true), 2, None),
            (
                CyclePredicate::pass_all().total_max(5),
                0,
                Some("aggregate"),
            ),
        ];
        for (i, (p, expect, counter)) in cases.into_iter().enumerate() {
            let expected = post_filtered(&g, raw.clone(), &p);
            assert_eq!(expected.len(), expect, "case {i}: oracle cardinality");
            plan.predicate = p;
            let sink = CollectingSink::new();
            let stats = run_all(&plan, Schedule::Sequential, &g, &sink);
            assert_eq!(sink.canonical_cycles(), expected, "case {i}: pushdown");
            match counter {
                Some("vertex") => assert!(stats.work.total_vertex_prunes() > 0, "case {i}"),
                Some("positional") => {
                    assert!(stats.work.total_positional_prunes() > 0, "case {i}")
                }
                Some("aggregate") => {
                    assert!(stats.work.total_aggregate_prunes() > 0, "case {i}")
                }
                _ => {}
            }
        }
    }

    /// The monotone-layering workload separates signal from decoys *only*
    /// through the aggregate constraints: the pushed-down alert predicate
    /// must report exactly the post-filtered planted chains, pruning the
    /// decoys mid-path rather than at close.
    #[test]
    fn aggregate_pushdown_prunes_decoys_mid_path() {
        use pce_graph::generators::MonotoneLayeringConfig;
        let cfg = MonotoneLayeringConfig {
            num_accounts: 150,
            background_edges: 900,
            num_chains: 5,
            num_decoys: 6,
            seed: 777,
            ..MonotoneLayeringConfig::default()
        };
        let (g, planted) = generators::monotone_layering(cfg);
        assert!(planted > 0);
        let mut plan = temporal(TemporalCycleOptions::with_window(cfg.chain_span));
        let all = CollectingSink::new();
        run_all(&plan, Schedule::Sequential, &g, &all);
        plan.predicate = cfg.alert_predicate();
        let expected = post_filtered(&g, all.into_cycles(), &plan.predicate);
        assert_eq!(expected.len(), planted, "only the planted chains survive");

        let seq = CollectingSink::new();
        let stats = run_all(&plan, Schedule::Sequential, &g, &seq);
        assert_eq!(seq.canonical_cycles(), expected);
        assert!(
            stats.work.total_aggregate_prunes() > 0,
            "decoys must be pruned mid-path, not post-filtered"
        );
    }
}
