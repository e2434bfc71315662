//! Crash recovery: checkpoint + log → a live, equivalent engine.
//!
//! ## The algorithm
//!
//! 1. **Scan** the log ([`SegmentLog::open`]): validate every record,
//!    truncate a torn tail in the newest segment.
//! 2. **Select** the newest checkpoint that decodes *and* whose `batches`
//!    the log actually holds (a checkpoint is always written after the
//!    records it covers, so under real crash orderings the newest valid
//!    checkpoint qualifies; the check also makes recovery robust to a
//!    hand-damaged store).
//! 3. **Hydrate** the window: re-ingest the logged batches *before* the
//!    checkpoint through a fresh engine with **zero** subscriptions — by
//!    engine semantics that is a pure append/expiry pass (no enumeration, no
//!    reports). Batches wholly below the checkpoint's compaction base are
//!    fully expired and skipped — and because the stream's watermark rule
//!    makes per-batch maxima non-decreasing, the skippable batches are
//!    exactly a prefix.
//! 4. **Restore** the registry: align the batch counter
//!    ([`resume_at_batch`]), re-register every checkpointed subscription
//!    with its id and lifetime total, and raise the next-id floor.
//! 5. **Replay** the logged batches *at or after* the checkpoint through the
//!    full engine, regenerating their per-query reports. Max-edge rooting
//!    makes these byte-identical to the reports of the uninterrupted run —
//!    delivery across a crash is therefore *at-least-once*: reports after
//!    the last checkpoint are the replayed ones, re-delivered.
//!
//! Hydration intentionally reproduces only what the reports can observe:
//! the live edge set, watermark and batch numbering match the original
//! exactly, while lifetime ingest/expiry totals of the *graph* (not of the
//! subscriptions) may differ when fully-expired batches were skipped.
//!
//! [`resume_at_batch`]: pce_core::MultiStreamingEngine::resume_at_batch

use crate::engine::{DurableConfig, DurableMultiStreamingEngine};
use crate::log::SegmentLog;
use crate::{Checkpoint, SegmentStore, StoreError};
use pce_core::{MultiBatchReport, MultiStreamingEngine};

/// What a [`recover`] call did, alongside the rebuilt engine.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint recovery started from.
    pub checkpoint_seq: u64,
    /// Batches covered by that checkpoint (replay starts here).
    pub checkpoint_batches: u64,
    /// Pre-checkpoint batches re-ingested to rebuild the window.
    pub hydrated_batches: u64,
    /// Pre-checkpoint batches skipped as fully expired.
    pub skipped_batches: u64,
    /// Bytes dropped from the newest segment as a torn tail.
    pub truncated_bytes: u64,
    /// Post-checkpoint batches whose log records the engine rejected on
    /// replay, dropped from the log. Non-zero only when a crash interrupted
    /// the rollback of a rejected ingest — those batches were never
    /// acknowledged.
    pub dropped_batches: u64,
    /// The regenerated reports of every replayed batch, in batch order —
    /// byte-identical (per query: same cycles, same counts, same batch
    /// indices) to the reports the uninterrupted run produced for the same
    /// batches.
    pub replayed: Vec<MultiBatchReport>,
}

/// Rebuilds a durable engine from a store previously written by
/// [`DurableMultiStreamingEngine`]. See the [module docs](self) for the
/// algorithm and its guarantees.
///
/// The engine-behaviour configuration (retention, granularity, fan-out
/// strategy) comes from the checkpoint; `cfg` supplies only the operational
/// knobs (threads, segment size, checkpoint cadence).
///
/// Fails with [`StoreError::NoCheckpoint`] when the store holds no usable
/// checkpoint and [`StoreError::Corrupt`] when a segment is damaged anywhere
/// other than the newest segment's tail.
pub fn recover<S: SegmentStore>(
    store: S,
    cfg: &DurableConfig,
) -> Result<(DurableMultiStreamingEngine<S>, RecoveryReport), StoreError> {
    let (mut log, scan) = SegmentLog::open(store, cfg.segment_bytes)?;
    let logged_batches = scan.batches.len() as u64;

    // Newest usable checkpoint: decodes, and the log holds every batch it
    // covers. Undecodable candidates are skipped, not fatal — an older
    // checkpoint plus a longer replay recovers the same state.
    let mut seqs = log.store().checkpoint_seqs()?;
    seqs.reverse();
    let mut chosen: Option<Checkpoint> = None;
    let mut max_seq_seen = 0u64;
    for seq in seqs {
        max_seq_seen = max_seq_seen.max(seq);
        let Ok(bytes) = log.store().read_checkpoint(seq) else {
            continue;
        };
        let Ok(ckpt) = Checkpoint::decode(&bytes) else {
            continue;
        };
        if ckpt.batches <= logged_batches {
            chosen = Some(ckpt);
            break;
        }
    }
    let ckpt = chosen.ok_or(StoreError::NoCheckpoint)?;

    let mut engine = MultiStreamingEngine::with_threads(ckpt.retention, cfg.threads)?
        .with_granularity(ckpt.granularity)
        .with_fan_out(ckpt.strategy);

    // Hydration: rebuild the window as of the checkpoint. Zero
    // subscriptions → pure append/expiry, no enumeration.
    let floor = ckpt.compaction_base;
    let mut hydrated = 0u64;
    let mut skipped = 0u64;
    let mut started = false;
    for (_, edges) in scan.batches.iter().filter(|(m, _)| m.batch < ckpt.batches) {
        let max_ts = edges.iter().map(|e| e.ts).max();
        if !started && max_ts.is_none_or(|t| t < floor) {
            skipped += 1;
            continue;
        }
        started = true;
        engine.ingest(edges).map_err(StoreError::Streaming)?;
        hydrated += 1;
    }
    engine.resume_at_batch(ckpt.batches);

    // Registry restore, ascending-id order (checkpoints store it sorted).
    for snap in &ckpt.subscriptions {
        engine.restore_subscription(snap.clone())?;
    }
    engine.advance_query_ids(ckpt.next_query_id);

    // Replay: regenerate the post-checkpoint reports.
    let mut replayed = Vec::new();
    let mut dropped_batches = 0u64;
    for (meta, edges) in scan.batches.iter().filter(|(m, _)| m.batch >= ckpt.batches) {
        match engine.ingest(edges) {
            Ok(report) => replayed.push(report),
            Err(_) => {
                // A logged batch the engine rejects was never acknowledged
                // (the crash interrupted the ingest path's rollback). Drop
                // it and everything after it.
                dropped_batches = logged_batches - meta.batch;
                log.truncate_from(*meta)?;
                break;
            }
        }
    }

    let report = RecoveryReport {
        checkpoint_seq: ckpt.seq,
        checkpoint_batches: ckpt.batches,
        hydrated_batches: hydrated,
        skipped_batches: skipped,
        truncated_bytes: scan.truncated_bytes,
        dropped_batches,
        replayed,
    };
    let durable = DurableMultiStreamingEngine::from_parts(engine, log, max_seq_seen + 1, cfg);
    Ok((durable, report))
}
