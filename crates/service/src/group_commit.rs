//! Group commit: coalesce concurrent autocommit transactions into one
//! incremental pass per view, by leader–follower parking.
//!
//! Each shard has a `GroupCommitter` queue. An autocommit transaction
//! enqueues itself and parks until one of three things happens:
//!
//! * its result slot fills: another submitter's epoch committed it;
//! * leadership falls vacant: it becomes the **epoch leader**, takes
//!   the shard's write lock, drains everything queued, commits it as one
//!   epoch, resigns and wakes the parked submitters;
//! * a live re-shard closes the committer: its transaction moved to the
//!   successor topology's committer, and it parks there instead.
//!
//! There is no gather window: an epoch is whatever queued while the
//! previous leader held the shard — including its log sync, on a durable
//! service. An uncontended client keeps single-statement latency; a
//! contended shard batches by itself. Followers never take the shard
//! lock, so each transaction is committed by exactly one epoch, and each
//! epoch pays one sync.
//!
//! ## Semantics
//!
//! An epoch commits **atomically per view**: each view's members form
//! one commit (`commit::apply_commit`) whose constraints are
//! checked once against their net effect — a session batch's contract —
//! and each member gets its own commit seq (adjacent, in queue order).
//! When a view's net delta is rejected, its members are committed one
//! by one instead, so one bad transaction fails alone with its own
//! error. Member stats report their commit's totals.
//!
//! ## Durability
//!
//! The leader logs the epoch's records with one sync and publishes
//! before it fills any result slot (`Service::log_and_publish`). A failed
//! append or sync turns every committed member's result into
//! [`ServiceError::Durability`]: the transaction may have applied in
//! memory, but it was never acknowledged.
//!
//! Panic safety: a leader that unwinds mid-epoch fails the members it
//! drained with [`ServiceError::Poisoned`] and resigns, so followers
//! surface a typed error instead of parking forever (see `locks.rs` for
//! why the shard locks themselves recover instead).

use crate::commit::{apply_commit, group_by_view, Commit, ShardGuards};
use crate::error::{ServiceError, ServiceResult};
use birds_engine::ExecutionStats;
use birds_sql::DmlStatement;
use std::collections::VecDeque;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// What a completed transaction hands back to its submitter.
pub(crate) type TxResult = ServiceResult<(u64, ExecutionStats)>;

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

    /// Deliver the result unless one is already waiting. `pub(crate)`
    /// so a live re-shard can fail a queued transaction whose view was
    /// just unregistered.
    pub(crate) fn fill(&self, result: TxResult) {
        if let Ok(mut slot) = self.result.lock() {
            slot.get_or_insert(result);
        }
        // A poisoned slot belongs to a submitter that already panicked;
        // nothing is waiting for the result.
    }
}

/// Per-shard queue of pending autocommit transactions, plus the
/// leadership flag its submitters park on.
///
/// A committer belongs to one topology generation. When a live re-shard
/// retires its shard, the registrar **closes** the queue under the same
/// mutex it drains it with ([`GroupCommitter::close_and_drain`]) and
/// moves every queued transaction to the successor topology's
/// committers — so a transaction is only ever queued in a committer
/// whose shard is live. An enqueue that raced the close is told so
/// ([`GroupCommitter::enqueue`] returns `false`) and retries against
/// the current topology; a parked submitter wakes to
/// [`Turn::Closed`] and follows its transaction.
#[derive(Default)]
pub(crate) struct GroupCommitter {
    queue: Mutex<CommitterQueue>,
    /// Signalled when leadership falls vacant or the committer closes.
    turn: Condvar,
}

#[derive(Default)]
struct CommitterQueue {
    pending: VecDeque<Arc<PendingTx>>,
    /// A submitter holds leadership (it may still be waiting for the
    /// shard lock).
    leading: bool,
    /// Set once, by the re-shard that retired this committer's shard.
    closed: bool,
}

/// What a parked submitter wakes up to.
pub(crate) enum Turn<'a> {
    /// An epoch committed (or rejected) the transaction.
    Done(TxResult),
    /// Leadership was vacant and is now the caller's.
    Lead(Leadership<'a>),
    /// A live re-shard closed the committer and moved the transaction.
    Closed,
}

/// The epoch leader's claim. Dropping it resigns and wakes every parked
/// submitter; if the leader is unwinding, the members it drained are
/// failed first, so nobody parks forever on a slot that never fills.
pub(crate) struct Leadership<'a> {
    committer: &'a GroupCommitter,
    drained: Vec<Arc<PendingTx>>,
}

impl Leadership<'_> {
    /// Drain everything queued right now: the leader's epoch.
    pub(crate) fn drain(&mut self) -> ServiceResult<Vec<Arc<PendingTx>>> {
        self.drained = self.committer.queue()?.pending.drain(..).collect();
        Ok(self.drained.clone())
    }
}

impl Drop for Leadership<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            for tx in &self.drained {
                tx.fill(Err(ServiceError::Poisoned(
                    "group-commit epoch (its leader panicked)".into(),
                )));
            }
        }
        let mut queue = self
            .committer
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        queue.leading = false;
        self.committer.turn.notify_all();
    }
}

impl GroupCommitter {
    fn queue(&self) -> ServiceResult<MutexGuard<'_, CommitterQueue>> {
        self.queue
            .lock()
            .map_err(|_| ServiceError::Poisoned("group-commit queue".into()))
    }

    /// Queue a transaction for the next epoch. Returns `false` (without
    /// queueing) when the committer was closed by a live re-shard — the
    /// submitter reloads the topology and enqueues there instead.
    pub(crate) fn enqueue(&self, tx: Arc<PendingTx>) -> ServiceResult<bool> {
        let mut queue = self.queue()?;
        if queue.closed {
            return Ok(false);
        }
        queue.pending.push_back(tx);
        Ok(true)
    }

    /// Park the submitter of the queued `tx` until its result is in,
    /// leadership is vacant (the caller then holds it) or the committer
    /// closes. The slot is read under the queue mutex and leaders fill
    /// before they resign under it, so no wake-up is lost.
    pub(crate) fn wait_turn(&self, tx: &PendingTx) -> ServiceResult<Turn<'_>> {
        let mut queue = self.queue()?;
        loop {
            if let Some(result) = tx.take_result()? {
                return Ok(Turn::Done(result));
            }
            if queue.closed {
                return Ok(Turn::Closed);
            }
            if !queue.leading {
                queue.leading = true;
                return Ok(Turn::Lead(Leadership {
                    committer: self,
                    drained: Vec::new(),
                }));
            }
            queue = self
                .turn
                .wait(queue)
                .map_err(|_| ServiceError::Poisoned("group-commit queue".into()))?;
        }
    }

    /// Transactions queued right now.
    pub(crate) fn queued(&self) -> usize {
        self.queue.lock().map_or(0, |queue| queue.pending.len())
    }

    /// Close the committer and hand back whatever was queued — called
    /// exactly once, by the re-shard retiring this committer's shard,
    /// while that shard's write lock is held. Close and drain happen
    /// under one mutex acquisition, so no transaction can slip in
    /// between them, and every parked submitter is woken to follow its
    /// transaction. Poisoning is recovered (the queue is structurally
    /// sound either way) because the re-shard must complete.
    pub(crate) fn close_and_drain(&self) -> Vec<Arc<PendingTx>> {
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        queue.closed = true;
        self.turn.notify_all();
        queue.pending.drain(..).collect()
    }
}

/// One epoch applied under its shard's write lock: the commits in
/// application order and the members each one acknowledges.
pub(crate) struct Epoch {
    pub(crate) commits: Vec<Commit>,
    members: Vec<Vec<Arc<PendingTx>>>,
}

impl Epoch {
    /// Group `txs` by view (first-appearance order, queue order within
    /// a view) and commit each group's coalesced statements at once; a
    /// rejected group is committed member by member, and a rejected
    /// member learns its error at once: it changed nothing that needs
    /// publishing. `guards` holds exactly the epoch's shard.
    pub(crate) fn apply(
        guards: &mut ShardGuards<'_>,
        txs: Vec<Arc<PendingTx>>,
        commit_seq: &AtomicU64,
        log: bool,
    ) -> Epoch {
        let shard = guards[0].0;
        let mut epoch = Epoch {
            commits: Vec::new(),
            members: Vec::new(),
        };
        for (view, group) in group_by_view(txs, |tx| tx.view()) {
            let coalesced: Vec<DmlStatement> = group
                .iter()
                .flat_map(|tx| tx.statements.iter().cloned())
                .collect();
            let statements = [(view.as_str(), coalesced.as_slice())];
            let members = group.len() as u64;
            match apply_commit(guards, |_| shard, statements, members, commit_seq, log) {
                Ok(commit) => {
                    epoch.commits.push(commit);
                    epoch.members.push(group);
                }
                Err(_) => {
                    for tx in group {
                        let statements = [(tx.view(), tx.statements.as_slice())];
                        match apply_commit(guards, |_| shard, statements, 1, commit_seq, log) {
                            Ok(commit) => {
                                epoch.commits.push(commit);
                                epoch.members.push(vec![tx]);
                            }
                            Err(e) => tx.fill(Err(ServiceError::Engine(e))),
                        }
                    }
                }
            }
        }
        epoch
    }

    /// Deliver every committed member's result: its seq and its
    /// commit's stats — or `logged`'s error, if the epoch could not be
    /// made durable.
    pub(crate) fn fill(self, logged: ServiceResult<()>) {
        for (commit, members) in self.commits.iter().zip(self.members) {
            for (tx, seq) in members.into_iter().zip(commit.seqs.clone()) {
                tx.fill(logged.clone().map(|()| (seq, commit.stats.clone())));
            }
        }
    }
}
