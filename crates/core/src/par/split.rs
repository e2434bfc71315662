//! The split-on-demand skeleton of the in-place searches, fine temporal (§7)
//! and every schedule of the streaming delta search, and the split policy
//! that fine Read-Tarjan shares with them.
//!
//! A worker runs a rooted search depth-first, in place, on its own reusable
//! [`Buffers`]: the path, and an explicit stack of [`Frame`]s — one per
//! recursion level, holding the level's not yet scanned out-edges — so a
//! recursive call allocates nothing and spawns nothing. A driver supplies
//! only its extension step: given the next out-edge of the path's tip, it
//! reports the cycle that edge closes or returns the frame to descend into.
//!
//! Work is split off **on demand** (copy-on-steal, §5–§7). When a search may
//! split, the worker asks the pool before each descent whether a worker is
//! idle ([`WorkerCtx::idle_workers`]) that no earlier split is still waiting
//! for ([`Workers::wants_split`]). Only then does it split: the first half of
//! the shallowest frame's unscanned edges (the largest unexplored subtrees)
//! goes to one new task with a copy of the path prefix, and the worker that
//! runs it re-derives the root's per-root state in its own scratch
//! ([`Driver::resume`]) unless that scratch still holds it. A lone busy
//! worker never copies; a worker that falls idle is handed work at the busy
//! worker's next descent.

use crate::metrics::WorkMetrics;
use crate::util::VertexMarks;
use crossbeam_utils::CachePadded;
use parking_lot::{Mutex, MutexGuard};
use pce_graph::{AdjEntry, Amount, EdgeId, VertexId};
use pce_sched::{Scope, WorkerCtx};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// One recursion level: the not yet scanned out-edges of the path's tip,
/// with the running amounts of that path (read by the delta search's
/// aggregate pushdown, zero elsewhere).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame<'g> {
    pub(crate) edges: &'g [AdjEntry],
    /// Saturating amount total of the root and the path's edges.
    pub(crate) sum: Amount,
    /// Amount of the path's last edge.
    pub(crate) last_amount: Amount,
}

impl<'g> Frame<'g> {
    /// A frame over `edges` that carries no amounts.
    pub(crate) fn new(edges: &'g [AdjEntry]) -> Self {
        Self {
            edges,
            sum: 0,
            last_amount: 0,
        }
    }
}

/// The path of the search a worker runs and one frame per recursion level.
/// The owner sizes the path's vertex marks, like its cycle-union workspace.
#[derive(Debug, Default)]
pub(crate) struct Buffers<'g> {
    /// Path length when the search was loaded: `frames[i]` extends a path of
    /// `base + i` vertices.
    base: usize,
    /// Shallowest first.
    frames: Vec<Frame<'g>>,
    pub(crate) path: Vec<VertexId>,
    pub(crate) path_edges: Vec<EdgeId>,
    /// The vertices on `path`, and any the driver marks besides.
    pub(crate) on_path: VertexMarks,
}

impl<'g> Buffers<'g> {
    /// Starts a path without frames: a fresh epoch of marks holding exactly
    /// the vertices of `path`.
    pub(crate) fn start(&mut self, path: &[VertexId], path_edges: &[EdgeId]) {
        self.base = path.len();
        self.frames.clear();
        self.path.clear();
        self.path.extend_from_slice(path);
        self.path_edges.clear();
        self.path_edges.extend_from_slice(path_edges);
        self.on_path.clear();
        for &v in path {
            self.on_path.insert(v);
        }
    }

    /// Loads a search: the path so far and the frame of its tip.
    pub(crate) fn load(&mut self, path: &[VertexId], path_edges: &[EdgeId], frame: Frame<'g>) {
        self.start(path, path_edges);
        self.frames.push(frame);
    }

    /// The same buffers without frames, for a graph borrowed for another
    /// lifetime, so that an owner can keep them between runs.
    // `filter` cannot change the frames' lifetime; `filter_map` can.
    #[allow(clippy::unnecessary_filter_map)]
    pub(crate) fn recycle<'h>(self) -> Buffers<'h> {
        Buffers {
            base: 0,
            // Collecting nothing from an owning iterator of the same layout
            // reuses its allocation.
            frames: self.frames.into_iter().filter_map(|_| None).collect(),
            path: self.path,
            path_edges: self.path_edges,
            on_path: self.on_path,
        }
    }
}

/// Unscanned edges of one frame of a rooted search, split off for an idle
/// worker together with a copy of the path up to that frame.
pub(crate) struct Split<'g> {
    pub(crate) root: EdgeId,
    pub(crate) path: Vec<VertexId>,
    pub(crate) path_edges: Vec<EdgeId>,
    pub(crate) frame: Frame<'g>,
}

/// The per-worker states of one run and its count of waiting splits.
pub(crate) struct Workers<W> {
    /// Split tasks spawned but not started yet: an idle worker is only worth
    /// a new split while no earlier one is waiting for it.
    waiting: AtomicUsize,
    /// One state per worker. A worker runs one task at a time, so its slot is
    /// never contended. Padded so that one worker's frame and path writes do
    /// not invalidate the cache line holding a neighbour's state.
    states: Vec<CachePadded<Mutex<W>>>,
}

impl<W> Workers<W> {
    pub(crate) fn new(states: impl IntoIterator<Item = W>) -> Self {
        Self {
            waiting: AtomicUsize::new(0),
            states: states
                .into_iter()
                .map(|s| CachePadded::new(Mutex::new(s)))
                .collect(),
        }
    }

    pub(crate) fn lock(&self, worker: usize) -> MutexGuard<'_, W> {
        self.states[worker].lock()
    }

    /// Whether a worker is idle that no split spawned earlier is still
    /// waiting for: the one test every fine search asks before it splits.
    pub(crate) fn wants_split(&self, ctx: &WorkerCtx<'_>) -> bool {
        let idle = ctx.idle_workers();
        idle > 0 && idle > self.waiting.load(Ordering::Relaxed)
    }

    /// Spawns `run` as a split task onto this worker's deque. The task does
    /// nothing once `stopped()` holds (so the scope drains quickly); else it
    /// records a steal if the pool moved it off its spawner, runs on the
    /// receiving worker's state and counts its busy time there.
    pub(crate) fn spawn_split<'scope>(
        &'scope self,
        metrics: &'scope WorkMetrics,
        stopped: impl Fn() -> bool + Send + 'scope,
        scope: &Scope<'scope>,
        ctx: &WorkerCtx<'_>,
        run: impl FnOnce(&mut W, &Scope<'scope>, &WorkerCtx<'_>) + Send + 'scope,
    ) where
        W: Send,
    {
        let spawned_by = ctx.worker_id();
        self.waiting.fetch_add(1, Ordering::Relaxed);
        ctx.spawn(scope, move |scope, ctx| {
            self.waiting.fetch_sub(1, Ordering::Relaxed);
            if stopped() {
                return;
            }
            let worker = ctx.worker_id();
            if worker != spawned_by {
                metrics.steal_event(worker);
            }
            let start = Instant::now();
            run(&mut self.lock(worker), scope, ctx);
            metrics.add_busy(worker, start.elapsed());
        });
    }

    pub(crate) fn into_states(self) -> impl Iterator<Item = W> {
        self.states.into_iter().map(|s| s.into_inner().into_inner())
    }
}

/// The run-wide state of a search that the skeleton runs and splits.
pub(crate) trait Driver<'g>: Sync {
    /// What a worker keeps between tasks, its [`Buffers`] among it.
    type State: Send;

    fn workers(&self) -> &Workers<Self::State>;

    fn metrics(&self) -> &WorkMetrics;

    /// Whether the sink stopped the run.
    fn stopped(&self) -> bool;

    /// Runs a split-off part of a rooted search on this worker's `state`:
    /// re-derives the root's per-root state unless `state` holds it already
    /// (a split often returns to its splitter), loads `task` and calls
    /// [`search`] with splitting on.
    fn resume<'scope>(
        &'scope self,
        state: &mut Self::State,
        task: Split<'g>,
        scope: &Scope<'scope>,
        ctx: &WorkerCtx<'_>,
    ) where
        'g: 'scope;
}

/// Runs the search loaded in `buf` (rooted at `root`) depth-first, in the
/// sequential order, and winds down early once the sink stops the run. Edge
/// visits and descents are counted in locals and flushed into `worker`'s
/// counters once, when the search returns.
///
/// For each scanned edge `step(buf, frame, entry)` decides: it reports the
/// cycle `entry` closes, or returns the frame of `entry.neighbor`'s
/// out-edges to descend into. With `split` (the run's scope and this
/// worker's context) the search hands work to idle workers before a
/// descent; without it, it never splits.
pub(crate) fn search<'g, 'scope, D: Driver<'g>>(
    driver: &'scope D,
    buf: &mut Buffers<'g>,
    root: EdgeId,
    worker: usize,
    split: Option<(&Scope<'scope>, &WorkerCtx<'_>)>,
    mut step: impl FnMut(&mut Buffers<'g>, &Frame<'g>, AdjEntry) -> Option<Frame<'g>>,
) where
    'g: 'scope,
{
    let (mut visits, mut calls) = (0, 0);
    while let Some(frame) = buf.frames.last_mut() {
        let Some((&entry, rest)) = frame.edges.split_first() else {
            buf.frames.pop();
            if !buf.frames.is_empty() {
                // Backtrack over the exhausted level's vertex.
                let v = buf
                    .path
                    .pop()
                    .expect("a deeper frame has its vertex on the path");
                buf.path_edges.pop();
                buf.on_path.remove(v);
            }
            continue;
        };
        frame.edges = rest;
        let frame = *frame;
        if driver.stopped() {
            break;
        }
        visits += 1;
        let Some(child) = step(buf, &frame, entry) else {
            continue;
        };
        if let Some((scope, ctx)) = split {
            if driver.workers().wants_split(ctx) {
                split_shallowest(driver, buf, root, scope, ctx);
            }
        }
        calls += 1;
        buf.on_path.insert(entry.neighbor);
        buf.path.push(entry.neighbor);
        buf.path_edges.push(entry.edge);
        buf.frames.push(child);
    }
    driver.metrics().add_search_work(worker, visits, calls);
}

/// Hands the first half of the shallowest frame that still has unscanned
/// edges to a new task. Shallow frames hold the largest subtrees, and within
/// a frame the earliest edges leave the most of the window to extend in.
fn split_shallowest<'g, 'scope, D: Driver<'g>>(
    driver: &'scope D,
    buf: &mut Buffers<'g>,
    root: EdgeId,
    scope: &Scope<'scope>,
    ctx: &WorkerCtx<'_>,
) where
    'g: 'scope,
{
    let Some(depth) = buf.frames.iter().position(|f| !f.edges.is_empty()) else {
        return;
    };
    let frame = &mut buf.frames[depth];
    let (give, keep) = frame.edges.split_at(frame.edges.len().div_ceil(2));
    frame.edges = keep;
    let prefix = buf.base + depth;
    let task = Split {
        root,
        path: buf.path[..prefix].to_vec(),
        path_edges: buf.path_edges[..prefix - 1].to_vec(),
        frame: Frame {
            edges: give,
            ..*frame
        },
    };
    driver.metrics().copy_event(ctx.worker_id());
    driver.workers().spawn_split(
        driver.metrics(),
        || driver.stopped(),
        scope,
        ctx,
        move |state, scope, ctx| driver.resume(state, task, scope, ctx),
    );
}
