//! Group commit: coalesce concurrent autocommit transactions into one
//! incremental pass per view.
//!
//! Clients that never call `begin`/`commit` pay one strategy evaluation
//! per statement under the PR-3 design. This module gives them
//! batch-level throughput anyway: each shard has a `GroupCommitter`
//! queue; an autocommit transaction enqueues itself and the first
//! submitter to win the shard's write lock becomes the **epoch leader**,
//! draining everything queued at that moment and applying it as one
//! *net* delta per view (Algorithm 2 over the concatenated statements —
//! exactly the coalescing a session batch gets). Followers find their
//! result filled in when the leader releases the lock. With the default
//! zero epoch window the epoch is simply the leader's lock tenure:
//! uncontended clients keep single-statement latency, contended shards
//! batch automatically. A non-zero window additionally parks each
//! submitter before its first leadership attempt, trading latency for
//! deeper epochs (the fixed-epoch design of Obladi, arXiv:1809.10559).
//!
//! ## Semantics
//!
//! An epoch commits **atomically per view**: every member transaction
//! gets its own commit sequence number (assigned in epoch order, so the
//! global sequence stays dense and replayable), but the integrity
//! constraints are checked once against the epoch's net effect — the
//! same contract a multi-statement session batch has. When the net
//! delta is rejected, the leader falls back to replaying the members
//! individually, so per-transaction error attribution (and the
//! one-bad-transaction-doesn't-abort-its-neighbours property) is
//! preserved on the failure path. Member stats report the epoch's
//! totals, not a per-statement split.
//!
//! ## Durability
//!
//! With a WAL attached (`EpochWal`), every applied group is appended
//! to the shard's segment — the epoch *is* the WAL batch — while the
//! shard lock is still held, and **no member learns it committed until
//! the epoch's records are on disk** (per the fsync policy): result
//! slots are filled only after the epoch-end sync. A sync or append
//! failure turns the affected members' results into
//! [`ServiceError::Durability`] — the transaction may have applied in
//! memory, but it was never acknowledged, so "commit returned OK ⇒
//! survives a crash" still holds.
//!
//! Panic safety: the queue and result slots are `Mutex`es; if a leader
//! panics mid-epoch, waiters see the poisoned mutex and surface
//! [`ServiceError::Poisoned`] instead of panicking their own connection
//! threads (satellite of the sharding work — see `locks.rs` for why the
//! shard locks themselves recover instead).

use crate::error::{ServiceError, ServiceResult};
use birds_engine::{Engine, EngineResult, ExecutionStats, UndoJournal};
use birds_sql::DmlStatement;
use birds_store::Delta;
use birds_wal::{FsyncPolicy, SegmentWriter, WalRecord};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What a completed transaction hands back to its submitter.
pub(crate) type TxResult = ServiceResult<(u64, ExecutionStats)>;

/// The durability hookup an epoch leader writes through: the owning
/// shard's segment writer plus the service's fsync policy.
pub(crate) struct EpochWal<'a> {
    pub(crate) writer: &'a Mutex<SegmentWriter>,
    pub(crate) fsync: FsyncPolicy,
}

impl EpochWal<'_> {
    /// Append one record under the writer mutex. The segment writer
    /// seals itself on a real IO failure, so a shard whose log may be
    /// torn mid-file refuses every further append — no commit is ever
    /// acknowledged with its record buried behind a torn region.
    pub(crate) fn append(&self, record: &WalRecord) -> ServiceResult<()> {
        let mut writer = self
            .writer
            .lock()
            .map_err(|_| ServiceError::Poisoned("wal segment writer".into()))?;
        writer
            .append(record, self.fsync)
            .map_err(|e| ServiceError::Durability(format!("wal append failed: {e}")))
    }

    /// The epoch-end sync, when the policy defers to epoch granularity.
    pub(crate) fn sync_epoch(&self) -> ServiceResult<()> {
        if self.fsync.sync_each_epoch() && !self.fsync.sync_each_record() {
            let mut writer = self
                .writer
                .lock()
                .map_err(|_| ServiceError::Poisoned("wal segment writer".into()))?;
            writer
                .sync()
                .map_err(|e| ServiceError::Durability(format!("wal sync failed: {e}")))?;
        }
        Ok(())
    }
}

/// One autocommit transaction waiting for an epoch leader.
pub(crate) struct PendingTx {
    /// The single view (or, erroneously, base relation — the engine
    /// rejects it) every statement targets.
    view: String,
    statements: Vec<DmlStatement>,
    result: Mutex<Option<TxResult>>,
}

impl PendingTx {
    pub(crate) fn new(view: String, statements: Vec<DmlStatement>) -> Arc<PendingTx> {
        Arc::new(PendingTx {
            view,
            statements,
            result: Mutex::new(None),
        })
    }

    /// The view every statement of this transaction targets — the
    /// routing key a live re-shard uses to move a queued transaction to
    /// its new shard's committer.
    pub(crate) fn view(&self) -> &str {
        &self.view
    }

    /// Take the finished result, `Ok(None)` while still pending. A
    /// poisoned slot means the epoch leader panicked mid-fill; surface
    /// that as a typed error rather than propagating the panic.
    pub(crate) fn take_result(&self) -> ServiceResult<Option<TxResult>> {
        match self.result.lock() {
            Ok(mut slot) => Ok(slot.take()),
            Err(_) => Err(ServiceError::Poisoned(
                "group-commit result slot (epoch leader panicked)".into(),
            )),
        }
    }

    /// Deliver the result. `pub(crate)` so a live re-shard can fail a
    /// queued transaction whose view was just unregistered.
    pub(crate) fn fill(&self, result: TxResult) {
        if let Ok(mut slot) = self.result.lock() {
            *slot = Some(result);
        }
        // A poisoned slot belongs to a submitter that already panicked;
        // nothing is waiting for the result.
    }
}

/// Per-shard queue of pending autocommit transactions.
///
/// A committer belongs to one topology generation. When a live re-shard
/// retires its shard, the registrar **closes** the queue under the same
/// mutex it drains it with ([`GroupCommitter::close_and_drain`]) and
/// moves every queued transaction to the successor topology's
/// committers — so a transaction is only ever queued in a committer
/// whose shard is live, and an enqueue that raced the close is told so
/// ([`GroupCommitter::enqueue`] returns `false`) and retries against
/// the current topology.
#[derive(Default)]
pub(crate) struct GroupCommitter {
    queue: Mutex<CommitterQueue>,
}

#[derive(Default)]
struct CommitterQueue {
    pending: VecDeque<Arc<PendingTx>>,
    /// Set once, by the re-shard that retired this committer's shard.
    closed: bool,
}

impl GroupCommitter {
    pub(crate) fn new() -> GroupCommitter {
        GroupCommitter::default()
    }

    /// Queue a transaction for the next epoch. Returns `false` (without
    /// queueing) when the committer was closed by a live re-shard — the
    /// submitter reloads the topology and enqueues there instead.
    pub(crate) fn enqueue(&self, tx: Arc<PendingTx>) -> ServiceResult<bool> {
        let mut queue = self
            .queue
            .lock()
            .map_err(|_| ServiceError::Poisoned("group-commit queue".into()))?;
        if queue.closed {
            return Ok(false);
        }
        queue.pending.push_back(tx);
        Ok(true)
    }

    /// Drain everything queued right now (the epoch of whichever leader
    /// holds the shard lock). May be empty when an earlier leader
    /// already processed this submitter's transaction.
    pub(crate) fn drain(&self) -> ServiceResult<Vec<Arc<PendingTx>>> {
        let mut queue = self
            .queue
            .lock()
            .map_err(|_| ServiceError::Poisoned("group-commit queue".into()))?;
        Ok(queue.pending.drain(..).collect())
    }

    /// Close the committer and hand back whatever was queued — called
    /// exactly once, by the re-shard retiring this committer's shard,
    /// while that shard's write lock is held. Close and drain happen
    /// under one mutex acquisition, so no transaction can slip in
    /// between them; poisoning is recovered (the queue is structurally
    /// sound either way) because the re-shard must complete.
    pub(crate) fn close_and_drain(&self) -> Vec<Arc<PendingTx>> {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        queue.closed = true;
        queue.pending.drain(..).collect()
    }
}

/// Derive the net delta of `statements` against the in-lock state of
/// `view` and apply it in one incremental pass, recording its effects
/// in `journal` (a failed application has already undone its own). The
/// derived delta is normalized against that same state, so it is
/// exactly what gets applied: with `log` set, a copy is returned as the
/// replay-log entry, unless it is empty (no durable effect). The
/// in-memory hot path pays no clone.
pub(crate) fn derive_and_apply(
    engine: &mut Engine,
    view: &str,
    statements: &[DmlStatement],
    log: bool,
    journal: &mut UndoJournal,
) -> EngineResult<(Option<Delta>, ExecutionStats)> {
    let delta = engine.derive_delta(view, statements)?;
    let log_copy = (log && !delta.is_empty()).then(|| delta.clone());
    let stats = engine.apply_delta_journaled(view, delta, journal)?;
    Ok((log_copy, stats))
}

/// Apply one epoch under the shard's write lock: group members by view
/// (first appearance order, preserving queue order within a view),
/// coalesce each group into one net delta and apply it in a single
/// incremental pass; on rejection, replay that group's members
/// individually. Assigns commit sequence numbers (successes only) in
/// application order and, with a WAL attached, appends one record per
/// applied delta. Every member's result slot is filled at the end —
/// after the epoch-end fsync, so a filled `Ok` means durable under the
/// configured policy.
///
/// When at least one delta was applied, `publish` is invoked — still
/// under the shard lock, after the epoch-end sync but **before any
/// result slot fills** — with the engine and the epoch's highest
/// applied commit seq. The caller uses it to publish the shard's MVCC
/// snapshot: filling first would let a member observe `Ok` and then
/// miss its own write on the lock-free read path.
pub(crate) fn process_epoch(
    engine: &mut Engine,
    commit_seq: &AtomicU64,
    epoch: Vec<Arc<PendingTx>>,
    wal: Option<&EpochWal<'_>>,
    publish: impl FnOnce(&mut Engine, u64),
) {
    let mut groups: Vec<(String, Vec<Arc<PendingTx>>)> = Vec::new();
    for tx in epoch {
        match groups.iter_mut().find(|(view, _)| *view == tx.view) {
            Some((_, group)) => group.push(tx),
            None => groups.push((tx.view.clone(), vec![tx])),
        }
    }
    // Results are gathered here and filled only after the epoch-end
    // sync: an autocommit client must never observe `Ok` before its
    // record is durable under the configured policy.
    let mut fills: Vec<(Arc<PendingTx>, TxResult)> = Vec::new();
    let mut appended_any = false;
    // Highest seq whose delta actually reached the engine (regardless
    // of later durability failures — memory changed either way): the
    // snapshot publication tag.
    let mut max_applied: Option<u64> = None;
    let log = wal.is_some();
    // Every application below commits on its own, so each gets a fresh
    // journal, read only by the engine's undo of a failed application.
    for (view, group) in groups {
        let coalesced: Vec<DmlStatement> = group
            .iter()
            .flat_map(|tx| tx.statements.iter().cloned())
            .collect();
        match derive_and_apply(engine, &view, &coalesced, log, &mut UndoJournal::new()) {
            Ok((log_copy, stats)) => {
                let seqs: Vec<u64> = group
                    .iter()
                    .map(|_| commit_seq.fetch_add(1, Ordering::SeqCst) + 1)
                    .collect();
                max_applied = seqs.last().copied().or(max_applied);
                let logged = match (wal, log_copy) {
                    // An empty net delta (`log_copy` is None) has no
                    // durable effect and is not logged — matching
                    // the batch-commit path; such a transaction's seq is
                    // not persisted (see `Service::commits`).
                    (Some(wal), Some(delta)) => wal
                        .append(&WalRecord::Commit {
                            seqs: seqs.clone(),
                            deltas: vec![(view.clone(), delta)],
                        })
                        .map(|()| {
                            appended_any = true;
                        }),
                    _ => Ok(()),
                };
                for (tx, seq) in group.into_iter().zip(seqs) {
                    let result = match &logged {
                        Ok(()) => Ok((seq, stats.clone())),
                        Err(e) => Err(e.clone()),
                    };
                    fills.push((tx, result));
                }
            }
            Err(_) if group.len() > 1 => {
                // The coalesced epoch was rejected; preserve
                // per-transaction semantics by replaying individually
                // (each successful member logged as its own record).
                for tx in group {
                    let journal = &mut UndoJournal::new();
                    match derive_and_apply(engine, &tx.view, &tx.statements, log, journal) {
                        Ok((log_copy, stats)) => {
                            let seq = commit_seq.fetch_add(1, Ordering::SeqCst) + 1;
                            max_applied = Some(seq);
                            let logged = match (wal, log_copy) {
                                (Some(wal), Some(delta)) => wal
                                    .append(&WalRecord::Commit {
                                        seqs: vec![seq],
                                        deltas: vec![(tx.view.clone(), delta)],
                                    })
                                    .map(|()| {
                                        appended_any = true;
                                    }),
                                _ => Ok(()),
                            };
                            let result = match logged {
                                Ok(()) => Ok((seq, stats)),
                                Err(e) => Err(e),
                            };
                            fills.push((tx, result));
                        }
                        Err(e) => fills.push((tx, Err(ServiceError::Engine(e)))),
                    }
                }
            }
            Err(e) => {
                // Single-member group: the net path *is* the individual
                // path (derive + normalize + apply); report its error.
                for tx in group {
                    fills.push((tx, Err(ServiceError::Engine(e.clone()))));
                }
            }
        }
    }
    // Epoch-end sync: one fdatasync covers every record this epoch
    // appended (the group-commit durability amortization). If it fails,
    // no member is acknowledged.
    if let Some(wal) = wal {
        if appended_any {
            if let Err(e) = wal.sync_epoch() {
                for (_, result) in &mut fills {
                    if result.is_ok() {
                        *result = Err(e.clone());
                    }
                }
            }
        }
    }
    // Publish before filling: a member must find its own write on the
    // lock-free read path the moment it learns it committed.
    if let Some(seq) = max_applied {
        publish(engine, seq);
    }
    for (tx, result) in fills {
        tx.fill(result);
    }
}
