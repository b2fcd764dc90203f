//! The one commit core of session batches and group-commit epochs: a
//! batch is one [`apply_commit`] over the shards it locked; an epoch is
//! one per view group (or per member, on rejection) over its shard.
//! Both then log and publish their [`Commit`]s in one step
//! (`Service::log_and_publish`) before anyone learns the outcome.

use crate::error::{ServiceError, ServiceResult};
use crate::locks::LockId;
use birds_engine::{Engine, EngineResult, ExecutionStats, UndoJournal};
use birds_sql::DmlStatement;
use birds_wal::{FsyncPolicy, SegmentWriter, WalRecord};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLockWriteGuard};

/// A commit's write-locked shards, ascending by [`LockId`].
pub(crate) type ShardGuards<'a> = [(LockId, RwLockWriteGuard<'a, Option<Engine>>)];

/// One applied commit: the seqs its members took and its WAL record.
pub(crate) struct Commit {
    /// The member transactions' consecutive seqs.
    pub(crate) seqs: Range<u64>,
    /// The record to log; `None` when nothing durable changed (an empty
    /// net delta) or the service is in-memory.
    pub(crate) record: Option<WalRecord>,
    /// Summed over the commit's view applications.
    pub(crate) stats: ExecutionStats,
}

/// Group `items` by view, keeping the first-appearance order of views
/// and the arrival order within each view.
pub(crate) fn group_by_view<T>(
    items: impl IntoIterator<Item = T>,
    view: impl Fn(&T) -> &str,
) -> Vec<(String, Vec<T>)> {
    let mut groups: Vec<(String, Vec<T>)> = Vec::new();
    for item in items {
        match groups.iter_mut().find(|(name, _)| name == view(&item)) {
            Some((_, group)) => group.push(item),
            None => groups.push((view(&item).to_owned(), vec![item])),
        }
    }
    groups
}

/// Apply `groups` to the write-locked `guards` as **one** commit, all or
/// nothing. Each group's statements are folded by Algorithm 2 into one
/// net delta derived against the in-lock state (so earlier groups'
/// cascades are visible) and applied in a single incremental pass into
/// the shard `shard_of(view)` names among `guards`. If any group fails,
/// every group applied before it is undone and the error comes back:
/// the commit took no seq and has nothing to log.
///
/// On success the commit takes `members` consecutive seqs from
/// `commit_seq` — all at once, so an epoch's members stay adjacent in
/// the global order — and, with `log` set, carries the one
/// [`WalRecord::Commit`] of its non-empty deltas.
pub(crate) fn apply_commit<'g>(
    guards: &mut ShardGuards<'_>,
    shard_of: impl Fn(&str) -> LockId,
    groups: impl IntoIterator<Item = (&'g str, &'g [DmlStatement])>,
    members: u64,
    commit_seq: &AtomicU64,
    log: bool,
) -> EngineResult<Commit> {
    let mut journals: Vec<UndoJournal> = guards.iter().map(|_| UndoJournal::new()).collect();
    let mut deltas = Vec::new();
    let mut stats = ExecutionStats::default();
    for (view, statements) in groups {
        let shard = shard_of(view);
        let at = guards
            .iter()
            .position(|(id, _)| *id == shard)
            .expect("footprint guards cover every target view");
        let engine = guards[at].1.as_mut().expect("commit holds live slots");
        // A failed application has already undone its own effects.
        let applied = engine.derive_delta(view, statements).and_then(|delta| {
            // The derived delta is normalized against the in-lock state,
            // so it is exactly what gets applied; the in-memory path
            // pays no clone.
            let log_copy = (log && !delta.is_empty()).then(|| delta.clone());
            Ok((
                log_copy,
                engine.apply_delta_journaled(view, delta, &mut journals[at])?,
            ))
        });
        match applied {
            Ok((log_copy, applied)) => {
                stats.view_delta_size += applied.view_delta_size;
                stats.source_delta_size += applied.source_delta_size;
                stats.cascades += applied.cascades;
                deltas.extend(log_copy.map(|delta| (view.to_owned(), delta)));
            }
            Err(e) => {
                for ((_, slot), journal) in guards.iter_mut().zip(&mut journals) {
                    slot.as_mut()
                        .expect("commit holds live slots")
                        .undo(journal);
                }
                return Err(e);
            }
        }
    }
    let first = commit_seq.fetch_add(members, Ordering::SeqCst) + 1;
    let seqs = first..first + members;
    let record = (!deltas.is_empty()).then(|| WalRecord::Commit {
        seqs: seqs.clone().collect(),
        deltas,
    });
    Ok(Commit {
        seqs,
        record,
        stats,
    })
}

/// Append `records` to `writer` in order, then sync once per `fsync`
/// — one log step covers a whole epoch. Stops at the first failure: the
/// segment writer seals itself on a real IO failure, so a shard whose
/// log may be torn mid-file refuses every further append, and no commit
/// is ever acknowledged with its record buried behind a torn region.
pub(crate) fn log_records<'r>(
    writer: &Mutex<SegmentWriter>,
    fsync: FsyncPolicy,
    records: impl IntoIterator<Item = &'r WalRecord>,
) -> ServiceResult<()> {
    let mut writer = writer
        .lock()
        .map_err(|_| ServiceError::Poisoned("wal segment writer".into()))?;
    let mut appended = false;
    for record in records {
        writer
            .append(record, fsync)
            .map_err(|e| ServiceError::Durability(format!("wal append failed: {e}")))?;
        appended = true;
    }
    if appended && fsync.sync_each_epoch() && !fsync.sync_each_record() {
        writer
            .sync()
            .map_err(|e| ServiceError::Durability(format!("wal sync failed: {e}")))?;
    }
    Ok(())
}
