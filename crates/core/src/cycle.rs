//! Cycle representation, canonicalisation and result sinks.
//!
//! Throughout the workspace a cycle is a **sequence of edges**
//! `e_1, e_2, …, e_k` such that consecutive edges share endpoints and the last
//! edge returns to the first edge's source, visiting no vertex twice. Two
//! cycles that traverse the same vertices through different parallel edges are
//! therefore distinct — this is the natural definition for temporal graphs
//! (it is the one used by 2SCENT) and it gives every cycle a unique *root*:
//! its minimum edge in `(timestamp, edge-id)` order, which is how the
//! window-constrained enumeration avoids duplicates.
//!
//! Enumerators do not return `Vec<Cycle>` directly; they push every discovered
//! cycle into a [`CycleSink`]. Sinks are shared across worker threads, so they
//! are required to be `Sync`, and every enumerator is **generic over the sink
//! type** — the per-cycle [`CycleSink::push`] is statically dispatched and
//! inlinable, with no virtual call on the hot path. `push` returns a
//! [`ControlFlow`] so a sink can terminate the enumeration early (see
//! [`FirstKSink`] and the streaming [`ChannelSink`]); returning
//! `ControlFlow::Break(())` makes every worker wind down promptly.
//!
//! The standard implementations are [`CountingSink`] (an atomic counter, no
//! allocation per cycle), [`CollectingSink`] (per-thread flat buffers, used
//! by tests, examples and anything that needs the actual cycles),
//! [`FirstKSink`] (stops the run after `k` cycles) and [`ChannelSink`] (streams cycles to a
//! consumer, stopping when the consumer hangs up).

use crate::util::fx_set;
use crossbeam_utils::CachePadded;
use parking_lot::Mutex;
use pce_graph::{EdgeId, TemporalGraph, Timestamp, VertexId};
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::SyncSender;

/// A simple (or temporal) cycle, stored as the vertex sequence in traversal
/// order plus the edge ids used between consecutive vertices (the last edge
/// closes back to `vertices[0]`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Cycle {
    /// Vertices in traversal order; `vertices[0]` is the cycle's root vertex
    /// (the source of its minimum edge when produced by the rooted
    /// enumerators).
    pub vertices: Vec<VertexId>,
    /// Edge ids in traversal order: `edges[i]` connects `vertices[i]` to
    /// `vertices[i+1]` (wrapping around at the end). Always the same length as
    /// `vertices`.
    pub edges: Vec<EdgeId>,
}

impl Cycle {
    /// Creates a cycle from parallel vertex/edge sequences.
    ///
    /// # Panics
    /// Panics if the two sequences have different lengths or are empty.
    pub fn new(vertices: Vec<VertexId>, edges: Vec<EdgeId>) -> Self {
        assert_eq!(vertices.len(), edges.len(), "cycle arity mismatch");
        assert!(!vertices.is_empty(), "empty cycle");
        Self { vertices, edges }
    }

    /// Number of edges (equivalently, vertices) in the cycle.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` for a length-1 cycle (self-loop).
    pub fn is_self_loop(&self) -> bool {
        self.len() == 1
    }

    /// Returns `true` when the cycle has no edges. The constructor forbids
    /// empty cycles, so this is always `false` for constructed values; it
    /// exists (and honestly inspects the storage) to pair with [`Cycle::len`].
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Rotates the cycle so that its lexicographically smallest edge id comes
    /// first. Two cycles are equal as cyclic edge sequences iff their
    /// canonical forms are equal, which is how the cross-algorithm equivalence
    /// tests compare results produced by different enumeration orders.
    pub fn canonicalize(&self) -> Cycle {
        let k = self.len();
        let min_pos = (0..k).min_by_key(|&i| self.edges[i]).unwrap_or(0);
        let vertices = (0..k).map(|i| self.vertices[(min_pos + i) % k]).collect();
        let edges = (0..k).map(|i| self.edges[(min_pos + i) % k]).collect();
        Cycle { vertices, edges }
    }

    /// Checks that this cycle is structurally valid in `graph`: every edge
    /// exists, connects the right pair of consecutive vertices, and no vertex
    /// repeats. Returns a description of the first violation, if any.
    pub fn validate(&self, graph: &TemporalGraph) -> Result<(), String> {
        let k = self.len();
        let mut seen = fx_set();
        for (i, &v) in self.vertices.iter().enumerate() {
            if !seen.insert(v) {
                return Err(format!("vertex {v} repeats in cycle at position {i}"));
            }
        }
        for i in 0..k {
            let e = self.edges[i];
            if e as usize >= graph.num_edges() {
                return Err(format!("edge id {e} out of bounds"));
            }
            let edge = graph.edge(e);
            let src = self.vertices[i];
            let dst = self.vertices[(i + 1) % k];
            if edge.src != src || edge.dst != dst {
                return Err(format!(
                    "edge {e} connects {}→{} but cycle expects {src}→{dst}",
                    edge.src, edge.dst
                ));
            }
        }
        Ok(())
    }

    /// Checks that the cycle's edge timestamps are strictly increasing in
    /// traversal order (the temporal-cycle property).
    pub fn is_temporal(&self, graph: &TemporalGraph) -> bool {
        self.timestamps(graph).windows(2).all(|w| w[0] < w[1])
    }

    /// The timestamps of the cycle's edges in traversal order.
    pub fn timestamps(&self, graph: &TemporalGraph) -> Vec<Timestamp> {
        self.edges.iter().map(|&e| graph.edge(e).ts).collect()
    }

    /// The difference between the largest and smallest edge timestamp.
    pub fn time_span(&self, graph: &TemporalGraph) -> Timestamp {
        let ts = self.timestamps(graph);
        match (ts.iter().min(), ts.iter().max()) {
            (Some(lo), Some(hi)) => hi - lo,
            _ => 0,
        }
    }
}

/// Destination for discovered cycles. Implementations must be cheap and
/// thread-safe: the fine-grained enumerators call [`CycleSink::push`] from
/// many worker threads concurrently.
///
/// Enumerators take sinks as a generic `S: CycleSink` parameter, so `push` is
/// statically dispatched on the per-cycle hot path.
pub trait CycleSink: Sync {
    /// Called once per discovered cycle with the vertex sequence and the edge
    /// ids in traversal order (see [`Cycle`] for the exact convention).
    ///
    /// Returning [`ControlFlow::Break`] asks the enumeration to terminate
    /// early: no further cycles will be pushed once every worker has observed
    /// the stop signal (a handful of in-flight cycles may still arrive from
    /// concurrent workers — sinks that need an exact cutoff enforce it
    /// themselves, as [`FirstKSink`] does).
    fn push(&self, vertices: &[VertexId], edges: &[EdgeId]) -> ControlFlow<()>;

    /// Number of cycles accepted so far.
    fn count(&self) -> u64;
}

/// A sink that only counts cycles (one atomic increment per cycle).
#[derive(Debug, Default)]
pub struct CountingSink {
    count: AtomicU64,
}

impl CountingSink {
    /// Creates a sink with a zero count.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CycleSink for CountingSink {
    #[inline]
    fn push(&self, _vertices: &[VertexId], _edges: &[EdgeId]) -> ControlFlow<()> {
        self.count.fetch_add(1, Ordering::Relaxed);
        ControlFlow::Continue(())
    }

    fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// A sink that stores every cycle.
///
/// Each thread appends to a shard of its own: a flat vertex and edge buffer
/// behind a lock that other threads rarely take. So concurrent workers
/// neither queue on one lock nor allocate per cycle; on a hub burst, one
/// shared lock cost the fine delta search more than the search itself.
#[derive(Debug)]
pub struct CollectingSink {
    shards: [CachePadded<Mutex<Shard>>; SHARDS],
}

/// Shards of a [`CollectingSink`]. Threads take slots in turn on their first
/// push, so up to this many threads that start pushing together get distinct
/// shards; threads that share one only contend for its lock.
const SHARDS: usize = 16;

/// The shard the calling thread pushes to.
fn shard_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local!(static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS);
    SLOT.with(|slot| *slot)
}

/// One shard's cycles, back to back, and the end of each in the buffers.
#[derive(Debug, Default)]
struct Shard {
    vertices: Vec<VertexId>,
    edges: Vec<EdgeId>,
    ends: Vec<usize>,
}

impl Shard {
    /// The vertex and edge slices of the shard's cycles, in push order.
    fn cycles(&self) -> impl Iterator<Item = (&[VertexId], &[EdgeId])> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| (&self.vertices[start..end], &self.edges[start..end]))
    }
}

impl Default for CollectingSink {
    fn default() -> Self {
        Self {
            shards: std::array::from_fn(|_| CachePadded::default()),
        }
    }
}

impl CollectingSink {
    /// Creates an empty collecting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the sink and returns the collected cycles: each thread's in
    /// the order it pushed them, threads in nondeterministic order.
    pub fn into_cycles(self) -> Vec<Cycle> {
        self.into_mapped(|vertices, edges| Cycle::new(vertices.to_vec(), edges.to_vec()))
    }

    /// Consumes the sink and maps each collected cycle's vertex and edge
    /// slices through `f`, in [`CollectingSink::into_cycles`] order, without
    /// building a [`Cycle`] first.
    pub fn into_mapped<T>(self, mut f: impl FnMut(&[VertexId], &[EdgeId]) -> T) -> Vec<T> {
        let mut out = Vec::with_capacity(self.count() as usize);
        for shard in self.shards {
            let shard = shard.into_inner().into_inner();
            out.extend(shard.cycles().map(|(vertices, edges)| f(vertices, edges)));
        }
        out
    }

    /// Returns the collected cycles in canonical form, sorted, which gives a
    /// deterministic value suitable for equality comparison across algorithms
    /// and thread counts.
    pub fn canonical_cycles(&self) -> Vec<Cycle> {
        let mut cycles = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            cycles.extend(
                shard
                    .cycles()
                    .map(|(v, e)| Cycle::new(v.to_vec(), e.to_vec()).canonicalize()),
            );
        }
        cycles.sort_by(|a, b| a.edges.cmp(&b.edges));
        cycles
    }
}

impl CycleSink for CollectingSink {
    fn push(&self, vertices: &[VertexId], edges: &[EdgeId]) -> ControlFlow<()> {
        assert_eq!(vertices.len(), edges.len(), "cycle arity mismatch");
        assert!(!vertices.is_empty(), "empty cycle");
        let mut shard = self.shards[shard_slot()].lock();
        shard.vertices.extend_from_slice(vertices);
        shard.edges.extend_from_slice(edges);
        let end = shard.vertices.len();
        shard.ends.push(end);
        ControlFlow::Continue(())
    }

    fn count(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().ends.len() as u64).sum()
    }
}

/// A sink that accepts exactly the first `k` cycles and then stops the
/// enumeration: the `k+1`-th push returns [`ControlFlow::Break`] and is *not*
/// recorded, so the result holds exactly `min(k, total)` cycles regardless of
/// how many workers race on the sink. Powers `Engine::first_k`.
#[derive(Debug)]
pub struct FirstKSink {
    limit: usize,
    cycles: Mutex<Vec<Cycle>>,
}

impl FirstKSink {
    /// Creates a sink that accepts at most `k` cycles.
    pub fn new(k: usize) -> Self {
        Self {
            limit: k,
            cycles: Mutex::new(Vec::new()),
        }
    }

    /// The accepted cycles (at most `k` of them).
    pub fn into_cycles(self) -> Vec<Cycle> {
        self.cycles.into_inner()
    }
}

impl CycleSink for FirstKSink {
    fn push(&self, vertices: &[VertexId], edges: &[EdgeId]) -> ControlFlow<()> {
        let mut guard = self.cycles.lock();
        if guard.len() >= self.limit {
            return ControlFlow::Break(());
        }
        guard.push(Cycle::new(vertices.to_vec(), edges.to_vec()));
        if guard.len() >= self.limit {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    fn count(&self) -> u64 {
        self.cycles.lock().len() as u64
    }
}

/// A sink that forwards every cycle into a bounded channel, blocking when the
/// consumer lags (backpressure) and returning [`ControlFlow::Break`] once the
/// consumer hangs up. Powers `Engine::stream`.
#[derive(Debug)]
pub struct ChannelSink {
    sender: SyncSender<Cycle>,
    sent: AtomicU64,
}

impl ChannelSink {
    /// Creates a sink feeding `sender`.
    pub fn new(sender: SyncSender<Cycle>) -> Self {
        Self {
            sender,
            sent: AtomicU64::new(0),
        }
    }
}

impl CycleSink for ChannelSink {
    fn push(&self, vertices: &[VertexId], edges: &[EdgeId]) -> ControlFlow<()> {
        let cycle = Cycle::new(vertices.to_vec(), edges.to_vec());
        match self.sender.send(cycle) {
            Ok(()) => {
                self.sent.fetch_add(1, Ordering::Relaxed);
                ControlFlow::Continue(())
            }
            // The receiving end was dropped: the consumer is done listening.
            Err(_) => ControlFlow::Break(()),
        }
    }

    fn count(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }
}

/// Crate-internal adaptor every enumerator wraps around the caller's sink: it
/// forwards pushes and latches the first [`ControlFlow::Break`] into a flag
/// that all workers poll to wind the run down. Keeping the latch here (rather
/// than in each sink) means sinks stay stateless about termination and the
/// poll is one relaxed atomic load.
pub(crate) struct HaltingSink<'a, S> {
    inner: &'a S,
    stopped: AtomicBool,
}

impl<'a, S: CycleSink> HaltingSink<'a, S> {
    /// Wraps `inner`.
    pub(crate) fn new(inner: &'a S) -> Self {
        Self {
            inner,
            stopped: AtomicBool::new(false),
        }
    }

    /// Forwards one cycle to the wrapped sink unless the run is already
    /// stopping; latches a `Break` response.
    #[inline]
    pub(crate) fn push(&self, vertices: &[VertexId], edges: &[EdgeId]) {
        if self.stopped() {
            return;
        }
        if self.inner.push(vertices, edges).is_break() {
            self.stopped.store(true, Ordering::Release);
        }
    }

    /// Whether a sink asked the enumeration to stop. Workers poll this at
    /// every branch claim / task start and wind down when it flips.
    #[inline]
    pub(crate) fn stopped(&self) -> bool {
        self.stopped.load(Ordering::Relaxed)
    }

    /// Number of cycles the wrapped sink accepted.
    pub(crate) fn count(&self) -> u64 {
        self.inner.count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pce_graph::generators::directed_cycle;

    #[test]
    fn cycle_basics() {
        let c = Cycle::new(vec![0, 1, 2], vec![0, 1, 2]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_self_loop());
        assert!(!c.is_empty());
        assert!(Cycle::new(vec![5], vec![9]).is_self_loop());
    }

    #[test]
    #[should_panic(expected = "cycle arity mismatch")]
    fn mismatched_lengths_panic() {
        let _ = Cycle::new(vec![0, 1], vec![0]);
    }

    #[test]
    fn canonicalisation_is_rotation_invariant() {
        let a = Cycle::new(vec![2, 0, 1], vec![7, 3, 5]);
        let b = Cycle::new(vec![0, 1, 2], vec![3, 5, 7]);
        assert_eq!(a.canonicalize(), b.canonicalize());
        assert_eq!(a.canonicalize().edges[0], 3);
    }

    #[test]
    fn validation_against_graph() {
        let g = directed_cycle(3);
        let ok = Cycle::new(vec![0, 1, 2], vec![0, 1, 2]);
        assert!(ok.validate(&g).is_ok());
        assert!(ok.is_temporal(&g));
        assert_eq!(ok.time_span(&g), 2);

        let wrong_edge = Cycle::new(vec![0, 1, 2], vec![0, 2, 1]);
        assert!(wrong_edge.validate(&g).is_err());

        let repeated = Cycle::new(vec![0, 1, 0], vec![0, 1, 2]);
        assert!(repeated.validate(&g).is_err());
    }

    #[test]
    fn counting_sink_counts() {
        let sink = CountingSink::new();
        assert!(sink.push(&[0, 1], &[0, 1]).is_continue());
        assert!(sink.push(&[0, 2], &[2, 3]).is_continue());
        assert_eq!(sink.count(), 2);
    }

    #[test]
    fn collecting_sink_collects_and_canonicalises() {
        let sink = CollectingSink::new();
        assert!(sink.push(&[1, 2, 0], &[5, 7, 3]).is_continue());
        assert!(sink.push(&[0, 1], &[0, 1]).is_continue());
        assert_eq!(sink.count(), 2);
        let canon = sink.canonical_cycles();
        assert_eq!(canon.len(), 2);
        assert!(canon[0].edges[0] <= canon[1].edges[0]);
        assert_eq!(canon[1].edges, vec![3, 5, 7]);
    }

    #[test]
    fn collecting_sink_keeps_every_threads_cycles_in_push_order() {
        let sink = CollectingSink::new();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let sink = &sink;
                s.spawn(move || {
                    for i in 0..100u32 {
                        let id = t * 1_000 + i;
                        assert!(sink.push(&[t, id], &[id, id + 1]).is_continue());
                    }
                });
            }
        });
        assert_eq!(sink.count(), 400);
        let cycles = sink.into_cycles();
        assert_eq!(cycles.len(), 400);
        for c in &cycles {
            assert_eq!(c.edges, vec![c.vertices[1], c.vertices[1] + 1]);
        }
        for t in 0..4u32 {
            let ids: Vec<u32> = cycles
                .iter()
                .filter(|c| c.vertices[0] == t)
                .map(|c| c.edges[0])
                .collect();
            let pushed: Vec<u32> = (0..100).map(|i| t * 1_000 + i).collect();
            assert_eq!(ids, pushed);
        }
    }

    #[test]
    fn first_k_sink_stops_at_k_and_keeps_exactly_k() {
        let sink = FirstKSink::new(3);
        assert!(sink.push(&[0, 1], &[0, 1]).is_continue());
        assert!(sink.push(&[1, 2], &[2, 3]).is_continue());
        // The k-th push is accepted but already signals Break.
        assert!(sink.push(&[2, 3], &[4, 5]).is_break());
        // Further pushes are rejected outright.
        assert!(sink.push(&[3, 4], &[6, 7]).is_break());
        assert_eq!(sink.count(), 3);
        assert_eq!(sink.into_cycles().len(), 3);
    }

    #[test]
    fn first_k_sink_with_zero_limit_rejects_everything() {
        let sink = FirstKSink::new(0);
        assert!(sink.push(&[0, 1], &[0, 1]).is_break());
        assert_eq!(sink.count(), 0);
    }

    #[test]
    fn channel_sink_streams_and_detects_hangup() {
        let (tx, rx) = std::sync::mpsc::sync_channel(4);
        let sink = ChannelSink::new(tx);
        assert!(sink.push(&[0, 1], &[0, 1]).is_continue());
        assert_eq!(rx.recv().unwrap().len(), 2);
        assert_eq!(sink.count(), 1);
        drop(rx);
        assert!(sink.push(&[1, 2], &[2, 3]).is_break());
        assert_eq!(sink.count(), 1);
    }

    #[test]
    fn halting_sink_latches_break_and_stops_forwarding() {
        let inner = FirstKSink::new(1);
        let halting = HaltingSink::new(&inner);
        assert!(!halting.stopped());
        halting.push(&[0, 1], &[0, 1]);
        assert!(halting.stopped());
        // Forwarding stops once halted; the inner sink sees nothing more.
        halting.push(&[1, 2], &[2, 3]);
        assert_eq!(halting.count(), 1);
    }
}
