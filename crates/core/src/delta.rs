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
//! search, so reported cycles and deterministic work counters are identical
//! across schedules; only how the work is split differs, mirroring the
//! one-shot granularities:
//!
//! * [`Schedule::Sequential`] — one thread sweeps the batch's roots;
//! * [`Schedule::Sharded`] — one task per shard, each sweeping the roots
//!   whose source vertex it owns (sequential searches, parallel across
//!   shards);
//! * [`Schedule::PerRoot`] — one dynamically scheduled task per root (§4,
//!   coarse-grained): work efficient, but a batch whose cycles all hang off
//!   one hot root collapses to a single worker;
//! * [`Schedule::Fine`] — every recursion level of a rooted search is a
//!   copyable task (§5/§7 applied to the backward search), so even a
//!   single-root burst engages all workers. The per-root pruning state is
//!   snapshot into a shared `UnionView` once and read-only thereafter. Under
//!   [`SchedStrategy::Stealing`] the tasks go onto the pool's work-stealing
//!   deques; under [`SchedStrategy::Assisting`] idle workers join per-level
//!   [`WorkAssistingLoop`]s in place (one packed atomic per level). Both
//!   expand tasks through the same body, which makes them mutual
//!   differential oracles.
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
use crate::metrics::{RunStats, ShardStats, WorkMetrics};
use crate::options::{SimpleCycleOptions, TemporalCycleOptions};
use crate::seq::RootScratch;
use crate::union::{UnionQuery, UnionView};
use crate::util::{fx_set, FxHashSet};
use crate::{Algorithm, Granularity, SchedStrategy};
use parking_lot::Mutex;
use pce_graph::reach::CycleUnionWorkspace;
use pce_graph::{
    Amount, CyclePredicate, EdgeId, GraphView, Position, ShardSpec, TemporalEdge, TimeWindow,
    Timestamp, VertexFilter, VertexId,
};
use pce_sched::{DynamicCounter, Scope, ThreadPool, WorkAssistingLoop, WorkerCtx};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
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

    #[inline]
    fn len_ok(&self, len: usize) -> bool {
        match &self.kind {
            DeltaKind::Simple(o) => o.len_ok(len),
            DeltaKind::Temporal(o) => o.len_ok(len),
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
    /// One task per shard of the spec, each sweeping the roots whose source
    /// vertex it owns. Per-shard attribution lands in [`RunStats::shards`].
    Sharded(&'a ThreadPool, ShardSpec),
    /// One dynamically scheduled task per root (coarse-grained).
    PerRoot(&'a ThreadPool),
    /// Every recursion level of a rooted search is a task (fine-grained),
    /// scheduled by the given strategy.
    Fine(&'a ThreadPool, SchedStrategy),
}

impl Schedule<'_> {
    /// Workers the schedule runs on — one caller scratch each.
    fn threads(&self) -> usize {
        match self {
            Schedule::Sequential => 1,
            Schedule::Sharded(pool, _) | Schedule::PerRoot(pool) | Schedule::Fine(pool, _) => {
                pool.num_threads()
            }
        }
    }
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
    let threads = schedule.threads();
    if scratches.len() < threads {
        scratches.resize_with(threads, || RootScratch::new(0));
    }
    let scratches = &mut scratches[..threads];
    for scratch in scratches.iter_mut() {
        scratch.ensure_vertices(graph.num_vertices());
    }
    let metrics = WorkMetrics::new(threads);
    let halting = HaltingSink::new(sink);
    let shared = Shared {
        graph,
        plan,
        push: Pushdown::of(&plan.predicate),
        sink: &halting,
        metrics: &metrics,
    };
    let start = Instant::now();
    let (granularity, shards) = match schedule {
        Schedule::Sequential => {
            let scratch = &mut scratches[0];
            for root in roots {
                if halting.stopped() {
                    break;
                }
                shared.search_root(root, scratch, 0);
            }
            (Granularity::Sequential, Vec::new())
        }
        // Sharding parallelises *across* shards, not inside a root: each
        // root still runs the sequential search, hence the tag.
        Schedule::Sharded(pool, spec) => (
            Granularity::Sequential,
            run_sharded(&shared, roots, spec, sink, pool, scratches),
        ),
        Schedule::PerRoot(pool) => {
            run_per_root(&shared, roots, pool, scratches);
            (Granularity::CoarseGrained, Vec::new())
        }
        Schedule::Fine(pool, SchedStrategy::Stealing) => {
            run_fine(&shared, roots, pool, scratches);
            (Granularity::FineGrained, Vec::new())
        }
        Schedule::Fine(pool, SchedStrategy::Assisting) => {
            run_fine_assist(&shared, roots, pool, scratches);
            (Granularity::FineGrained, Vec::new())
        }
    };
    RunStats {
        cycles: sink.count(),
        wall_secs: start.elapsed().as_secs_f64(),
        work: metrics.snapshot(),
        threads,
        shards,
        ..RunStats::default()
    }
    .tagged(Algorithm::Johnson, granularity)
}

/// Predicate-derived pushdown flags, computed once per run and copied into
/// the search state — the sequential [`DeltaSearch`] and the fine-grained
/// tasks cache the same set, so every schedule takes identical per-edge fast
/// paths.
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

/// Root-edge admission: the pushed-down predicate parts decidable from the
/// root edge alone. The root is part of every cycle it closes, so it must
/// satisfy the per-edge predicate, the vertex filter on both endpoints, any
/// constraint pinned at `FromEnd(0)` (the root *is* the last reported edge),
/// and leave room under the total-amount ceiling. Records the matching prune
/// counter and returns `false` when the root can close nothing.
fn admit_root(
    e: &TemporalEdge,
    predicate: &CyclePredicate,
    metrics: &WorkMetrics,
    worker: usize,
) -> bool {
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

/// Per-edge admission shared verbatim by the sequential search and the
/// fine-grained task expansion: evaluates the pushed-down predicate parts
/// decidable from the candidate edge and the fixed path prefix — the
/// per-edge attribute predicate, the monotone aggregate bounds (running
/// total vs. ceiling, strict amount escalation below the root's amount), and
/// the `FromStart(prefix_len)` positional constraint (the prefix is fixed,
/// so the candidate's index is final). Returns the running total and amount
/// the extended path would carry, or `None` when the branch is pruned (with
/// the matching counter recorded). `last_amount` is meaningful iff
/// `prefix_len > 0`.
#[inline]
#[allow(clippy::too_many_arguments)] // the mirrored per-edge hot path
fn admit_edge<G: GraphView + ?Sized>(
    graph: &G,
    predicate: &CyclePredicate,
    push: Pushdown,
    id: EdgeId,
    prefix_len: usize,
    root_amount: Amount,
    sum: Amount,
    last_amount: Amount,
    metrics: &WorkMetrics,
    worker: usize,
) -> Option<(Amount, Amount)> {
    if !push.attrs_needed {
        return Some((sum, 0));
    }
    let e = graph.edge(id);
    if !push.pred_all && !predicate.edge_predicate().accepts(&e) {
        return None;
    }
    if push.monotone && (e.amount >= root_amount || (prefix_len > 0 && e.amount <= last_amount)) {
        // Amounts must strictly escalate along the reported order and the
        // closing root edge is the largest of all, so a non-escalating hop —
        // or one at/above the root's amount — can never be completed.
        metrics.aggregate_prune(worker);
        return None;
    }
    let sum = sum.saturating_add(e.amount);
    if push.check_total && sum > predicate.total_amount_max() {
        // Amounts are non-negative: a partial total above the ceiling stays
        // above it.
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

/// The exact [`CyclePredicate::accepts_cycle_edges`] re-check at close time,
/// over the assembled edge-id buffer. Vertex membership is already enforced
/// during expansion, so only the edge-sequence parts are re-checked — this is
/// where the non-monotone constraints (total minimum, `FromEnd(i >= 1)`
/// positions) are decided.
fn cycle_accepted<G: GraphView + ?Sized>(
    graph: &G,
    predicate: &CyclePredicate,
    edge_buf: &mut Vec<TemporalEdge>,
    path_edges: &[EdgeId],
) -> bool {
    edge_buf.clear();
    edge_buf.extend(path_edges.iter().map(|&id| graph.edge(id)));
    predicate.accepts_cycle_edges(edge_buf)
}

/// The path state every rooted search starts from: the root's head, with
/// both root endpoints already on the path.
fn seed_path(e: &TemporalEdge) -> (Vec<VertexId>, FxHashSet<VertexId>) {
    let mut on_path = fx_set();
    on_path.insert(e.src);
    on_path.insert(e.dst);
    (vec![e.dst], on_path)
}

/// Immutable state shared by every worker and task of one [`run`].
struct Shared<'a, G: ?Sized, S> {
    graph: &'a G,
    plan: &'a DeltaPlan,
    /// Cached pushdown flags of `plan.predicate` (see [`Pushdown`]).
    push: Pushdown,
    sink: &'a HaltingSink<'a, S>,
    metrics: &'a WorkMetrics,
}

impl<'a, G: GraphView + ?Sized, S: CycleSink> Shared<'a, G, S> {
    /// The same run state reporting into `sink` instead.
    fn with_sink<'b, T>(&self, sink: &'b HaltingSink<'b, T>) -> Shared<'b, G, T>
    where
        'a: 'b,
    {
        Shared {
            graph: self.graph,
            plan: self.plan,
            push: self.push,
            sink,
            metrics: self.metrics,
        }
    }

    /// The per-root preamble every schedule shares: root admission,
    /// self-loop handling, the δ-window and the mirrored union pass into
    /// `scratch`. Returns the root edge and its window, or `None` when the
    /// root closes nothing beyond a reported self-loop.
    fn prepare_root(
        &self,
        root: EdgeId,
        scratch: &mut RootScratch,
        worker: usize,
    ) -> Option<(TemporalEdge, TimeWindow)> {
        let e = self.graph.edge(root);
        let predicate = &self.plan.predicate;
        if e.src == e.dst {
            // Strictly increasing timestamps leave no temporal self-loop.
            if let DeltaKind::Simple(opts) = &self.plan.kind {
                if admit_root(&e, predicate, self.metrics, worker)
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
        if !admit_root(&e, predicate, self.metrics, worker) {
            return None;
        }
        self.metrics.root_processed(worker);
        // A cycle whose maximum edge has timestamp t0 fits in a δ-window iff
        // all of its edges have ts >= t0 - δ (for temporal cycles, the first
        // edge anchors the window).
        let window = TimeWindow::new(e.ts.saturating_sub(self.plan.delta()), e.ts);
        let reachable = match self.plan.kind {
            DeltaKind::Simple(_) => scratch
                .union
                .compute_simple_before(self.graph, root, window, predicate),
            DeltaKind::Temporal(_) => scratch
                .union
                .compute_temporal_before(self.graph, root, window, predicate),
        };
        self.metrics
            .union_members(worker, scratch.union.union_size() as u64);
        reachable.then_some((e, window))
    }

    /// Runs the sequential search rooted at `root` (the cycle's maximum
    /// edge) — the unit of work of the sequential, sharded and per-root
    /// schedules.
    fn search_root(&self, root: EdgeId, scratch: &mut RootScratch, worker: usize) {
        let Some((e, window)) = self.prepare_root(root, scratch, worker) else {
            return;
        };
        let (path, on_path) = seed_path(&e);
        let mut search = DeltaSearch {
            graph: self.graph,
            sink: self.sink,
            metrics: self.metrics,
            worker,
            union: &scratch.union,
            root,
            target: e.src,
            max_len: self.plan.max_len(),
            predicate: &self.plan.predicate,
            push: self.push,
            root_amount: e.amount,
            sum: e.amount,
            last_amount: 0,
            path,
            path_edges: Vec::new(),
            on_path,
            edge_buf: Vec::new(),
        };
        match self.plan.kind {
            DeltaKind::Simple(_) => search.extend_simple(e.dst, window),
            // Seeding the arrival one below the window start admits exactly
            // first hops with ts >= start; path timestamps stay strictly
            // below t0.
            DeltaKind::Temporal(_) => search.extend_temporal(
                e.dst,
                window.start.saturating_sub(1),
                e.ts.saturating_sub(1),
            ),
        }
    }
}

/// Shared state of one max-rooted backwards search.
struct DeltaSearch<'a, G: ?Sized, S> {
    graph: &'a G,
    sink: &'a HaltingSink<'a, S>,
    metrics: &'a WorkMetrics,
    worker: usize,
    union: &'a CycleUnionWorkspace,
    /// The root (maximum) edge id; path edges must be strictly below it.
    root: EdgeId,
    /// The root's tail `u` — reaching it closes a cycle.
    target: VertexId,
    max_len: Option<usize>,
    /// Whole-cycle predicate pushed into this search.
    predicate: &'a CyclePredicate,
    /// Cached pushdown flags (see [`Pushdown`]).
    push: Pushdown,
    /// Amount of the root edge — under monotonicity every path edge must
    /// stay strictly below it.
    root_amount: Amount,
    /// Running saturating total of the root and all path edges.
    sum: Amount,
    /// Amount of the last path edge (meaningful iff `path_edges` is
    /// non-empty).
    last_amount: Amount,
    path: Vec<VertexId>,
    path_edges: Vec<EdgeId>,
    on_path: FxHashSet<VertexId>,
    /// Scratch for the close-time whole-cycle re-check.
    edge_buf: Vec<TemporalEdge>,
}

impl<G: GraphView + ?Sized, S: CycleSink> DeltaSearch<'_, G, S> {
    #[inline]
    fn len_ok(&self, len: usize) -> bool {
        self.max_len.map(|m| len <= m).unwrap_or(true)
    }

    /// Emits the cycle `path ∪ {entry, root}` where `entry` steps onto the
    /// target — after the exact whole-cycle re-check when the predicate
    /// carries cycle-level constraints.
    fn close(&mut self, entry_edge: EdgeId) {
        self.path.push(self.target);
        self.path_edges.push(entry_edge);
        self.path_edges.push(self.root);
        if !self.push.cycle_check
            || cycle_accepted(
                self.graph,
                self.predicate,
                &mut self.edge_buf,
                &self.path_edges,
            )
        {
            self.sink.push(&self.path, &self.path_edges);
        }
        self.path_edges.pop();
        self.path_edges.pop();
        self.path.pop();
    }

    /// Simple-cycle extension: every admissible earlier edge inside `window`
    /// may continue the path.
    fn extend_simple(&mut self, v: VertexId, window: TimeWindow) {
        self.metrics.recursive_call(self.worker);
        for &entry in self.graph.out_edges_in_window(v, window) {
            if self.sink.stopped() {
                return;
            }
            self.metrics.edge_visit(self.worker);
            if entry.edge >= self.root {
                continue;
            }
            let Some((sum, amount)) = admit_edge(
                self.graph,
                self.predicate,
                self.push,
                entry.edge,
                self.path_edges.len(),
                self.root_amount,
                self.sum,
                self.last_amount,
                self.metrics,
                self.worker,
            ) else {
                continue;
            };
            let w = entry.neighbor;
            if w == self.target {
                if self.len_ok(self.path_edges.len() + 2) {
                    self.close(entry.edge);
                }
                continue;
            }
            if !self.push.vf_any && !self.predicate.vertex_filter().accepts(w) {
                self.metrics.vertex_prune(self.worker);
                continue;
            }
            if self.on_path.contains(&w)
                || !self.union.in_union(w)
                || !self.len_ok(self.path_edges.len() + 3)
            {
                continue;
            }
            self.path.push(w);
            self.path_edges.push(entry.edge);
            self.on_path.insert(w);
            let (prev_sum, prev_last) = (self.sum, self.last_amount);
            self.sum = sum;
            self.last_amount = amount;
            self.extend_simple(w, window);
            self.sum = prev_sum;
            self.last_amount = prev_last;
            self.on_path.remove(&w);
            self.path_edges.pop();
            self.path.pop();
        }
    }

    /// Temporal extension: timestamps strictly increase along the path and
    /// stay strictly below the root's timestamp (`t_last` is `t0 - 1`).
    fn extend_temporal(&mut self, v: VertexId, arrival: Timestamp, t_last: Timestamp) {
        self.metrics.recursive_call(self.worker);
        let window = TimeWindow::new(arrival.saturating_add(1), t_last);
        for &entry in self.graph.out_edges_in_window(v, window) {
            if self.sink.stopped() {
                return;
            }
            self.metrics.edge_visit(self.worker);
            let Some((sum, amount)) = admit_edge(
                self.graph,
                self.predicate,
                self.push,
                entry.edge,
                self.path_edges.len(),
                self.root_amount,
                self.sum,
                self.last_amount,
                self.metrics,
                self.worker,
            ) else {
                continue;
            };
            let w = entry.neighbor;
            if w == self.target {
                if self.len_ok(self.path_edges.len() + 2) {
                    self.close(entry.edge);
                }
                continue;
            }
            if !self.push.vf_any && !self.predicate.vertex_filter().accepts(w) {
                self.metrics.vertex_prune(self.worker);
                continue;
            }
            if self.on_path.contains(&w)
                || !self.union.in_union(w)
                || !self.union.can_close_after(w, entry.ts)
                || !self.len_ok(self.path_edges.len() + 3)
            {
                continue;
            }
            self.path.push(w);
            self.path_edges.push(entry.edge);
            self.on_path.insert(w);
            let (prev_sum, prev_last) = (self.sum, self.last_amount);
            self.sum = sum;
            self.last_amount = amount;
            self.extend_temporal(w, entry.ts, t_last);
            self.sum = prev_sum;
            self.last_amount = prev_last;
            self.on_path.remove(&w);
            self.path_edges.pop();
            self.path.pop();
        }
    }
}

/// The per-root schedule: workers claim roots from the batch range via a
/// dynamic counter, exactly like the coarse-grained one-shot driver (one task
/// per root edge, §4 of the paper), each searching into its own scratch.
fn run_per_root<G: GraphView + ?Sized, S: CycleSink>(
    shared: &Shared<'_, G, S>,
    roots: Range<EdgeId>,
    pool: &ThreadPool,
    scratches: &mut [RootScratch],
) {
    let base = roots.start;
    let counter = DynamicCounter::new(roots.len(), 1);

    pool.scope(|scope| {
        for scratch in scratches.iter_mut() {
            let counter = &counter;
            scope.spawn(move |_, ctx| {
                let worker = ctx.worker_id();
                while let Some(i) = counter.next() {
                    if shared.sink.stopped() {
                        break;
                    }
                    let t0 = Instant::now();
                    shared.search_root(base + i as EdgeId, scratch, worker);
                    shared.metrics.add_busy(worker, t0.elapsed());
                }
            });
        }
    });
}

/// A sink adaptor attributing accepted cycles to one shard: forwards every
/// push to the shared inner sink and bumps the shard's counter. The counter
/// assumes a non-halting inner sink (the streaming engine's counting and
/// collecting sinks never return `Break`); under an early-stopping sink the
/// per-shard attribution may over-count by in-flight pushes, exactly like
/// the global count across workers.
struct ShardCountingSink<'a, S> {
    inner: &'a S,
    cycles: &'a AtomicU64,
}

impl<S: CycleSink> CycleSink for ShardCountingSink<'_, S> {
    fn push(&self, vertices: &[VertexId], edges: &[EdgeId]) -> std::ops::ControlFlow<()> {
        self.cycles.fetch_add(1, Ordering::Relaxed);
        self.inner.push(vertices, edges)
    }

    fn count(&self) -> u64 {
        self.inner.count()
    }
}

/// The sharded schedule: the root range is partitioned by *shard ownership
/// of the root's source vertex* ([`ShardSpec::owner`]), workers claim whole
/// shards from a dynamic counter, and every claimed shard sweeps the batch's
/// roots sequentially in ascending id order, skipping roots it does not own.
/// Ownership partitions the roots, so together the shards process every root
/// exactly once — and because a cycle is reported only by the search rooted
/// at its maximum `(ts, id)` edge, a cycle whose path crosses shard
/// boundaries is still reported exactly once, by the shard owning that
/// closing edge. Cross-shard paths need no messaging: the backward
/// union/search passes read sibling shards' adjacency directly (immutable
/// between appends), which is the shared-memory form of the boundary-frontier
/// exchange.
///
/// Returns the per-shard cycle/root attribution.
fn run_sharded<G: GraphView + ?Sized, S: CycleSink>(
    shared: &Shared<'_, G, S>,
    roots: Range<EdgeId>,
    spec: ShardSpec,
    sink: &S,
    pool: &ThreadPool,
    scratches: &mut [RootScratch],
) -> Vec<ShardStats> {
    let nshards = spec.shards();
    let counter = DynamicCounter::new(nshards, 1);
    let shard_cycles: Vec<AtomicU64> = (0..nshards).map(|_| AtomicU64::new(0)).collect();
    let shard_roots: Vec<AtomicU64> = (0..nshards).map(|_| AtomicU64::new(0)).collect();
    // A sink's Break latches per shard (each shard wraps its own
    // HaltingSink); this flag propagates the stop to shards other workers
    // are sweeping.
    let stop = AtomicBool::new(false);

    pool.scope(|scope| {
        for scratch in scratches.iter_mut().take(nshards) {
            let counter = &counter;
            let shard_cycles = &shard_cycles;
            let shard_roots = &shard_roots;
            let stop = &stop;
            let roots = roots.clone();
            scope.spawn(move |_, ctx| {
                let worker = ctx.worker_id();
                while let Some(s) = counter.next() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let t0 = Instant::now();
                    let shard_sink = ShardCountingSink {
                        inner: sink,
                        cycles: &shard_cycles[s],
                    };
                    let halting = HaltingSink::new(&shard_sink);
                    let shard = shared.with_sink(&halting);
                    let mut owned = 0u64;
                    for root in roots.clone() {
                        if halting.stopped() || stop.load(Ordering::Relaxed) {
                            break;
                        }
                        if spec.owner(shared.graph.edge(root).src) != s {
                            continue;
                        }
                        owned += 1;
                        shard.search_root(root, scratch, worker);
                    }
                    shard_roots[s].store(owned, Ordering::Relaxed);
                    if halting.stopped() {
                        stop.store(true, Ordering::Relaxed);
                    }
                    shared.metrics.add_busy(worker, t0.elapsed());
                }
            });
        }
    });

    shard_roots
        .iter()
        .zip(shard_cycles.iter())
        .enumerate()
        .map(|(shard, (r, c))| ShardStats {
            shard,
            roots: r.load(Ordering::Relaxed),
            cycles: c.load(Ordering::Relaxed),
        })
        .collect()
}

/// One copyable recursion level of a fine-grained delta search: extend the
/// path from its tip. The per-root pruning state ([`UnionView`], the mirrored
/// closing-time bounds) is read-only, so a task only needs private copies of
/// the path buffers — the same property that makes the one-shot temporal
/// searches decomposable in [`crate::par::fine_temporal`], applied to the
/// backward, max-edge-rooted search. Unlike the one-shot driver, which copies
/// only when it splits work off for an idle worker, every recursion level
/// here is still spawned as its own task with its own copies.
struct FineDeltaTask {
    /// The root (maximum) edge; simple-mode path edges must stay below it.
    root: EdgeId,
    /// The root's tail `u` — reaching it closes a cycle.
    target: VertexId,
    /// Admissible window for simple extensions (fixed per root).
    window: TimeWindow,
    /// Temporal: upper timestamp bound for path edges (`t0 - 1`).
    t_last: Timestamp,
    /// Temporal: arrival time at the tip (the next edge must be later).
    arrival: Timestamp,
    /// Amount of the root edge — under monotonicity every path edge must
    /// stay strictly below it.
    root_amount: Amount,
    /// Running saturating total of the root and all path edges.
    sum: Amount,
    /// Amount of the last path edge (meaningful iff `path_edges` is
    /// non-empty).
    last_amount: Amount,
    union: Arc<UnionView>,
    path: Vec<VertexId>,
    path_edges: Vec<EdgeId>,
    on_path: FxHashSet<VertexId>,
    /// Worker that spawned this task; executing it elsewhere is a steal.
    spawned_by: usize,
}

/// Expands one task: scans the admissible out-edges of the path tip, reports
/// the cycles it closes and hands every continuable branch to `emit` as a
/// fresh child task (stamped `spawned_by: worker`). The expansion — and its
/// per-task metrics: one recursive call, one edge visit per scanned entry,
/// one copy per emitted child — is shared verbatim by the two fine-grained
/// strategies, which differ only in where children go: *stealing* spawns
/// them onto the worker's deque, *assisting* collects them into the next
/// frontier level. That shared body is what makes the two strategies
/// differentially comparable counter-for-counter.
fn expand_fine_task<G: GraphView + ?Sized, S: CycleSink>(
    shared: &Shared<'_, G, S>,
    task: &mut FineDeltaTask,
    worker: usize,
    mut emit: impl FnMut(FineDeltaTask),
) {
    shared.metrics.recursive_call(worker);
    let v = *task.path.last().expect("path never empty");
    let (window, temporal) = match shared.plan.kind {
        DeltaKind::Simple(_) => (task.window, false),
        DeltaKind::Temporal(_) => (
            TimeWindow::new(task.arrival.saturating_add(1), task.t_last),
            true,
        ),
    };
    let predicate = &shared.plan.predicate;
    let mut edge_buf = Vec::new();
    for &entry in shared.graph.out_edges_in_window(v, window) {
        if shared.sink.stopped() {
            break;
        }
        shared.metrics.edge_visit(worker);
        if !temporal && entry.edge >= task.root {
            // Temporal admissibility is already timestamp-bounded by
            // `t_last < t0` (ids refine timestamp order).
            continue;
        }
        let Some((sum, amount)) = admit_edge(
            shared.graph,
            predicate,
            shared.push,
            entry.edge,
            task.path_edges.len(),
            task.root_amount,
            task.sum,
            task.last_amount,
            shared.metrics,
            worker,
        ) else {
            continue;
        };
        let w = entry.neighbor;
        if w == task.target {
            if shared.plan.len_ok(task.path_edges.len() + 2) {
                // Close on the owned buffers (push/pop, no allocation per
                // cycle), mirroring the sequential DeltaSearch::close.
                task.path.push(task.target);
                task.path_edges.push(entry.edge);
                task.path_edges.push(task.root);
                if !shared.push.cycle_check
                    || cycle_accepted(shared.graph, predicate, &mut edge_buf, &task.path_edges)
                {
                    shared.sink.push(&task.path, &task.path_edges);
                }
                task.path_edges.pop();
                task.path_edges.pop();
                task.path.pop();
            }
            continue;
        }
        if !shared.push.vf_any && !predicate.vertex_filter().accepts(w) {
            shared.metrics.vertex_prune(worker);
            continue;
        }
        if task.on_path.contains(&w)
            || !task.union.in_union(w)
            || !task.union.can_close_after(w, entry.ts)
            || !shared.plan.len_ok(task.path_edges.len() + 3)
        {
            continue;
        }
        // Spawn the child call as an independent task with its own copies.
        shared.metrics.copy_event(worker);
        let mut child_path = task.path.clone();
        let mut child_edges = task.path_edges.clone();
        let mut child_on_path = task.on_path.clone();
        child_path.push(w);
        child_edges.push(entry.edge);
        child_on_path.insert(w);
        emit(FineDeltaTask {
            root: task.root,
            target: task.target,
            window: task.window,
            t_last: task.t_last,
            arrival: entry.ts,
            root_amount: task.root_amount,
            sum,
            last_amount: amount,
            union: Arc::clone(&task.union),
            path: child_path,
            path_edges: child_edges,
            on_path: child_on_path,
            spawned_by: worker,
        });
    }
}

/// Runs one task under the *stealing* scheduler: children are spawned onto
/// the executing worker's LIFO deque, so a lone busy worker keeps the
/// sequential depth-first order while idle workers steal the shallowest —
/// largest — subtrees.
fn execute_fine_delta<'scope, G: GraphView + ?Sized, S: CycleSink>(
    shared: &'scope Shared<'scope, G, S>,
    mut task: FineDeltaTask,
    scope: &Scope<'scope>,
    ctx: &WorkerCtx<'_>,
) {
    // A task scheduled after the sink stopped the run returns immediately
    // (and spawns nothing), so the scope drains quickly.
    if shared.sink.stopped() {
        return;
    }
    let worker = ctx.worker_id();
    if worker != task.spawned_by {
        // The pool's deques did the actual theft; record it here, where the
        // migrated task starts executing.
        shared.metrics.steal_event(worker);
    }
    let start = Instant::now();
    expand_fine_task(shared, &mut task, worker, |child| {
        ctx.spawn(scope, move |scope, ctx| {
            execute_fine_delta(shared, child, scope, ctx);
        });
    });
    shared.metrics.add_busy(worker, start.elapsed());
}

/// The shared per-root preamble plus the snapshot the root's fine-grained
/// tasks will share. Returns `None` when the root closes nothing.
fn prepare_fine_root<G: GraphView + ?Sized, S: CycleSink>(
    shared: &Shared<'_, G, S>,
    root: EdgeId,
    scratch: &mut RootScratch,
    worker: usize,
) -> Option<FineDeltaTask> {
    let (e, window) = shared.prepare_root(root, scratch, worker)?;
    let union = Arc::new(match shared.plan.kind {
        DeltaKind::Simple(_) => UnionView::from_simple(&scratch.union),
        DeltaKind::Temporal(_) => UnionView::from_temporal(&scratch.union),
    });
    let (path, on_path) = seed_path(&e);
    Some(FineDeltaTask {
        root,
        target: e.src,
        window,
        // Temporal seeding, as in the sequential search (simple tasks
        // ignore both bounds).
        t_last: e.ts.saturating_sub(1),
        arrival: window.start.saturating_sub(1),
        root_amount: e.amount,
        sum: e.amount,
        last_amount: 0,
        union,
        path,
        path_edges: Vec::new(),
        on_path,
        spawned_by: worker,
    })
}

/// The fine-grained stealing schedule: workers claim roots from the batch
/// range via a dynamic counter (like the per-root schedule), but every
/// recursion level of a claimed root's search is spawned as a copyable task
/// on the pool's work-stealing deques — a batch whose cycles all hang off one
/// hot root still engages every worker (§5/§7 of the paper, applied to the
/// max-edge-rooted backward search).
fn run_fine<G: GraphView + ?Sized, S: CycleSink>(
    shared: &Shared<'_, G, S>,
    roots: Range<EdgeId>,
    pool: &ThreadPool,
    scratches: &mut [RootScratch],
) {
    let base = roots.start;
    let counter = DynamicCounter::new(roots.len(), 1);

    pool.scope(|scope| {
        for scratch in scratches.iter_mut() {
            let counter = &counter;
            scope.spawn(move |scope, ctx| {
                let worker = ctx.worker_id();
                while let Some(i) = counter.next() {
                    if shared.sink.stopped() {
                        break;
                    }
                    let prep = Instant::now();
                    let task = prepare_fine_root(shared, base + i as EdgeId, scratch, worker);
                    shared.metrics.add_busy(worker, prep.elapsed());
                    if let Some(task) = task {
                        execute_fine_delta(shared, task, scope, ctx);
                    }
                }
            });
        }
    });
}

/// One frontier level of the work-assisting fine schedule: the branch tasks
/// to expand, the packed claim loop idle workers join, and the bucket the
/// next level is gathered from. Each task slot is claimed exactly once
/// through the loop; the mutex-wrapped `Option` only arbitrates ownership
/// transfer, never contended work.
struct AssistLevel {
    tasks: Vec<Mutex<Option<FineDeltaTask>>>,
    claims: WorkAssistingLoop,
    next: Mutex<Vec<FineDeltaTask>>,
}

impl AssistLevel {
    fn new(frontier: Vec<FineDeltaTask>) -> Self {
        let claims = WorkAssistingLoop::new(frontier.len(), 1);
        Self {
            tasks: frontier.into_iter().map(|t| Mutex::new(Some(t))).collect(),
            claims,
            next: Mutex::new(Vec::new()),
        }
    }
}

/// How the work-assisting schedule's participants find the current level:
/// the coordinator publishes each level under the mutex and bumps `epoch`;
/// helpers spin on the epoch (yielding, so a 1-core machine still makes
/// progress) and join whatever is published. `done` releases the helpers when
/// the last frontier drains — set through a drop guard, so a panicking
/// coordinator cannot wedge them.
struct AssistCoordination {
    epoch: AtomicUsize,
    done: AtomicBool,
    current: Mutex<Option<Arc<AssistLevel>>>,
}

/// Sets the coordination `done` flag on drop (including unwinds).
struct DoneGuard<'a>(&'a AtomicBool);

impl Drop for DoneGuard<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Joins one level's claim loop and expands every task it wins, collecting
/// children locally and appending them to the level's output bucket once —
/// the per-root branch expansion of the assisting scheduler. Records one
/// `join` per entered loop and one `assist` when the loop was already being
/// run by another worker (the assisting analogue of a steal).
fn assist_level<G: GraphView + ?Sized, S: CycleSink>(
    shared: &Shared<'_, G, S>,
    level: &AssistLevel,
    worker: usize,
) {
    let Some(guard) = level.claims.try_join() else {
        return;
    };
    shared.metrics.join_event(worker);
    if guard.assisted() {
        shared.metrics.assist_event(worker);
    }
    let mut children = Vec::new();
    while let Some(i) = guard.next() {
        if shared.sink.stopped() {
            // Keep claiming so the loop exhausts and `is_complete` fires —
            // each drained claim is one compare-exchange, no work.
            continue;
        }
        let Some(mut task) = level.tasks[i].lock().take() else {
            continue;
        };
        let t0 = Instant::now();
        expand_fine_task(shared, &mut task, worker, |child| children.push(child));
        shared.metrics.add_busy(worker, t0.elapsed());
    }
    if !children.is_empty() {
        level.next.lock().append(&mut children);
    }
}

/// The fine-grained work-assisting schedule: the same root preparation and
/// branch expansion as [`run_fine`], scheduled through packed-atomic
/// [`WorkAssistingLoop`]s instead of boxed tasks on the stealing deques.
///
/// The run is level-synchronous: all participants first claim root edges
/// cooperatively from one assisting loop (each preparing roots into its own
/// scratch), then the coordinator — the first spawned participant — publishes
/// the prepared tasks as frontier level 0 and republishes each level's
/// children as the next, while the remaining participants spin on the epoch
/// and join every published loop in place. Joining, claiming and completion
/// detection are all single operations on each loop's packed word, so no
/// barriers or parked tasks are needed; a worker that arrives mid-level
/// simply joins it (recorded as an `assist`).
///
/// Trade-off vs. stealing: no per-branch `Job` allocation or deque
/// round-trip, but the frontier is breadth-first, so peak memory is bounded
/// by the widest recursion level rather than the search depth. Reported
/// cycles and the deterministic work counters (edge visits, recursive calls,
/// copies, union members, roots) are identical to stealing's — only the
/// steal/join/assist scheduling counters differ — which is what the
/// differential sweeps assert.
fn run_fine_assist<G: GraphView + ?Sized, S: CycleSink>(
    shared: &Shared<'_, G, S>,
    roots: Range<EdgeId>,
    pool: &ThreadPool,
    scratches: &mut [RootScratch],
) {
    let base = roots.start;
    let root_claims = WorkAssistingLoop::new(roots.len(), 1);
    let root_out: Mutex<Vec<FineDeltaTask>> = Mutex::new(Vec::new());
    let coord = AssistCoordination {
        epoch: AtomicUsize::new(0),
        done: AtomicBool::new(false),
        current: Mutex::new(None),
    };

    pool.scope(|scope| {
        for (slot, scratch) in scratches.iter_mut().enumerate() {
            let root_claims = &root_claims;
            let root_out = &root_out;
            let coord = &coord;
            scope.spawn(move |_, ctx| {
                let worker = ctx.worker_id();
                // Phase 1: every participant joins the root-claim loop and
                // prepares roots into its own scratch.
                if let Some(guard) = root_claims.try_join() {
                    shared.metrics.join_event(worker);
                    if guard.assisted() {
                        shared.metrics.assist_event(worker);
                    }
                    let mut prepared = Vec::new();
                    while let Some(i) = guard.next() {
                        if shared.sink.stopped() {
                            continue; // drain claims so the loop exhausts
                        }
                        let prep = Instant::now();
                        let task = prepare_fine_root(shared, base + i as EdgeId, scratch, worker);
                        shared.metrics.add_busy(worker, prep.elapsed());
                        if let Some(task) = task {
                            prepared.push(task);
                        }
                    }
                    if !prepared.is_empty() {
                        root_out.lock().append(&mut prepared);
                    }
                }
                if slot == 0 {
                    // Phase 2, coordinator: wait for the root loop to drain
                    // (single packed load — exhausted and everyone left),
                    // then publish one assisting loop per frontier level,
                    // working each level itself.
                    let _done = DoneGuard(&coord.done);
                    while !root_claims.is_complete() {
                        std::hint::spin_loop();
                        std::thread::yield_now();
                    }
                    let mut frontier = std::mem::take(&mut *root_out.lock());
                    while !frontier.is_empty() && !shared.sink.stopped() {
                        let level = Arc::new(AssistLevel::new(frontier));
                        *coord.current.lock() = Some(Arc::clone(&level));
                        coord.epoch.fetch_add(1, Ordering::Release);
                        assist_level(shared, &level, worker);
                        while !level.claims.is_complete() {
                            std::hint::spin_loop();
                            std::thread::yield_now();
                        }
                        frontier = std::mem::take(&mut *level.next.lock());
                    }
                } else {
                    // Phase 2, helper: assist every published level until the
                    // coordinator declares the run finished. A joined loop is
                    // drained to exhaustion before re-checking the epoch, so
                    // a helper is either working or one load away from it.
                    let mut seen = 0;
                    loop {
                        if coord.done.load(Ordering::Acquire) {
                            break;
                        }
                        let epoch = coord.epoch.load(Ordering::Acquire);
                        if epoch == seen {
                            std::hint::spin_loop();
                            std::thread::yield_now();
                            continue;
                        }
                        seen = epoch;
                        let level = coord.current.lock().clone();
                        if let Some(level) = level {
                            assist_level(shared, &level, worker);
                        }
                    }
                }
            });
        }
    });
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
        for schedule in [
            Schedule::Fine(&pool, SchedStrategy::Stealing),
            Schedule::Fine(&pool, SchedStrategy::Assisting),
        ] {
            let with = CountingSink::new();
            run_all(&plan, schedule, &g, &with);
            assert_eq!(with.count(), 2);
        }
        // A temporal self-loop closes nothing.
        let t = CountingSink::new();
        let plan = temporal(TemporalCycleOptions::with_window(10));
        run_all(
            &plan,
            Schedule::Fine(&pool, SchedStrategy::Stealing),
            &g,
            &t,
        );
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
        let pool = ThreadPool::new(4);
        let schedules = [
            ("sharded", Schedule::Sharded(&pool, ShardSpec::new(2))),
            ("per-root", Schedule::PerRoot(&pool)),
            ("stealing", Schedule::Fine(&pool, SchedStrategy::Stealing)),
            ("assisting", Schedule::Fine(&pool, SchedStrategy::Assisting)),
        ];
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
                for (name, schedule) in schedules {
                    let sink = CollectingSink::new();
                    let stats = run_all(&plan, schedule, &g, &sink);
                    let case = format!("{name} {kind:?} filtered={filtered}");
                    assert_eq!(sink.canonical_cycles(), seq.canonical_cycles(), "{case}");
                    assert_eq!(counters(&stats), counters(&seq_stats), "{case}");
                    assert_eq!(stats.threads, 4, "{case}");
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
            let stats = run_all(
                &plan,
                Schedule::Fine(&pool, SchedStrategy::Stealing),
                &g,
                &sink,
            );
            assert_eq!(
                reference.canonical_cycles(),
                sink.canonical_cycles(),
                "threads {threads}"
            );
            assert_eq!(stats.granularity, Some(Granularity::FineGrained));
        }
    }

    /// Early termination: the sink stops the run under every schedule, and
    /// drained claim loops must still let the scope finish (no wedged
    /// coordinator).
    #[test]
    fn early_termination_stops_every_schedule() {
        let g = generators::fig4a_exponential_cycles(12);
        let plan = simple(SimpleCycleOptions::unconstrained());
        let pool = ThreadPool::new(2);
        for schedule in [
            Schedule::Sequential,
            Schedule::Sharded(&pool, ShardSpec::new(2)),
            Schedule::PerRoot(&pool),
            Schedule::Fine(&pool, SchedStrategy::Stealing),
            Schedule::Fine(&pool, SchedStrategy::Assisting),
        ] {
            let sink = FirstKSink::new(3);
            run_all(&plan, schedule, &g, &sink);
            assert_eq!(sink.into_cycles().len(), 3);
        }
    }

    /// The delta mirror of `fine_johnson::fig4a_work_is_spread_across_workers`:
    /// every cycle of the hub-burst gadget is closed by one root edge, so the
    /// per-root schedule pins to a single worker while the fine one must
    /// spread the search across workers via task steals.
    #[test]
    fn hub_burst_work_is_spread_across_workers() {
        let g = generators::hub_burst(2, 13);
        let expected = generators::hub_burst_cycle_count(2, 13);
        let pool = ThreadPool::new(4);
        let fine = Schedule::Fine(&pool, SchedStrategy::Stealing);
        let sink = CountingSink::new();
        let stats = run_all(
            &simple(SimpleCycleOptions::unconstrained()),
            fine,
            &g,
            &sink,
        );
        assert_eq!(sink.count(), expected);
        eprintln!(
            "hub_burst steals={} copies={} per-worker calls={:?}",
            stats.work.total_steals(),
            stats.work.total_copies(),
            stats
                .work
                .workers
                .iter()
                .map(|w| w.recursive_calls)
                .collect::<Vec<_>>()
        );
        assert!(stats.work.total_steals() > 0, "steals should have happened");
        let active_workers = stats
            .work
            .workers
            .iter()
            .filter(|w| w.recursive_calls > 0)
            .count();
        assert!(
            active_workers > 1,
            "fine-grained delta should use several workers on a hub burst"
        );

        // The temporal variant agrees on the count (every hub-burst cycle is
        // temporal by construction).
        let sink = CountingSink::new();
        let plan = temporal(TemporalCycleOptions::with_window(1_000));
        run_all(&plan, fine, &g, &sink);
        assert_eq!(sink.count(), expected);
    }

    /// The work-assisting strategy is a drop-in replacement for stealing:
    /// identical reported cycles at every thread count, and join events
    /// instead of steal events.
    #[test]
    fn assist_matches_stealing_at_every_thread_count() {
        for (seed, delta) in [(1_401, 20), (1_402, 35)] {
            let g = generators::uniform_temporal(RandomTemporalConfig {
                num_vertices: 18,
                num_edges: 90,
                time_span: 60,
                seed,
            });
            for plan in [
                simple(SimpleCycleOptions::with_window(delta)),
                temporal(TemporalCycleOptions::with_window(delta)),
            ] {
                let seq = CollectingSink::new();
                run_all(&plan, Schedule::Sequential, &g, &seq);
                for threads in [1, 2, 4] {
                    let pool = ThreadPool::new(threads);
                    let steal = CollectingSink::new();
                    let steal_stats = run_all(
                        &plan,
                        Schedule::Fine(&pool, SchedStrategy::Stealing),
                        &g,
                        &steal,
                    );
                    let assist = CollectingSink::new();
                    let assist_stats = run_all(
                        &plan,
                        Schedule::Fine(&pool, SchedStrategy::Assisting),
                        &g,
                        &assist,
                    );
                    let case = format!("seed {seed} threads {threads} {:?}", plan.kind);
                    assert_eq!(seq.canonical_cycles(), assist.canonical_cycles(), "{case}");
                    assert_eq!(
                        steal.canonical_cycles(),
                        assist.canonical_cycles(),
                        "{case}"
                    );
                    // Same expansion body => identical copy counts; only the
                    // scheduling counters differ in kind.
                    assert_eq!(
                        steal_stats.work.total_copies(),
                        assist_stats.work.total_copies()
                    );
                    assert_eq!(assist_stats.work.total_steals(), 0);
                    assert!(assist_stats.work.total_joins() > 0);
                    assert_eq!(steal_stats.work.total_joins(), 0);
                }
            }
        }
    }

    /// The assisting analogue of `hub_burst_work_is_spread_across_workers`:
    /// where stealing records steals on the single-root burst, assisting must
    /// record assists (a second worker joining an active claim loop).
    /// Requires real parallelism, so it is skipped on a 1-core executor;
    /// joining hub workers race real work, so a handful of attempts are
    /// allowed before declaring the scheduler broken.
    #[test]
    fn hub_burst_assisting_records_assists() {
        let g = generators::hub_burst(2, 13);
        let expected = generators::hub_burst_cycle_count(2, 13);
        let plan = simple(SimpleCycleOptions::unconstrained());
        let pool = ThreadPool::new(4);
        let assisting = Schedule::Fine(&pool, SchedStrategy::Assisting);
        if pce_sched::available_parallelism() < 2 {
            // Still check correctness single-threaded before skipping.
            let sink = CountingSink::new();
            run_all(&plan, assisting, &g, &sink);
            assert_eq!(sink.count(), expected);
            eprintln!("skipping assist-spread assertion: single-core executor");
            return;
        }
        let mut last_assists = 0;
        for attempt in 0..5 {
            let sink = CountingSink::new();
            let stats = run_all(&plan, assisting, &g, &sink);
            assert_eq!(sink.count(), expected, "attempt {attempt}");
            assert_eq!(stats.work.total_steals(), 0);
            last_assists = stats.work.total_assists();
            if last_assists > 0 {
                return;
            }
        }
        panic!("no assists recorded in 5 hub-burst runs (last={last_assists})");
    }

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
