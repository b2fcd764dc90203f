//! MVCC snapshots: the lock-free read side of the service.
//!
//! The service publishes **one image**: a [`ServiceSnapshot`] holding
//! an `Arc` to every shard's latest [`ShardSnapshot`] — an immutable
//! image of the shard's relations ([`RelationVersion`]s, `Arc`-shared
//! version buffers) tagged with the shard's **high-water commit seq** —
//! plus the routing table. The image sits behind one pointer cell;
//! every publication, whatever it touched (one shard, many, or a whole
//! re-shard), builds the successor image and swaps the pointer in one
//! read-modify-write under that cell's lock.
//!
//! ## Visibility rule
//!
//! A shard snapshot tagged `commit_seq = s` contains the effects of
//! *exactly* the commits with seq ≤ `s` that touched this shard, and
//! nothing of any later commit. Publication happens while the shard's
//! write lock is still held, after deltas are applied (and after the
//! commit's WAL record is appended, on durable services): a reader can
//! never observe a commit's effects before that commit is logged. A
//! commit that fails publishes nothing — its mutations were undone
//! under the same locks.
//!
//! ## Prefix closure
//!
//! A snapshot is one pointer load. Publications are totally ordered by
//! the cell lock, and each successor image copies every entry it does
//! not replace, so an image that holds a commit also holds every commit
//! published before it — in particular every commit acknowledged before
//! it started, on whatever shard. A multi-shard batch swaps all of its
//! shards in the same write, so no reader ever sees half of one.
//!
//! ## Why readers never block writers (and vice versa)
//!
//! Readers load the cell pointer — a nanosecond-scale `RwLock` critical
//! section around an `Arc` clone, never a shard's engine lock — and
//! then work entirely against the immutable image. Writers capture
//! their shards under their own locks and take the cell lock only for
//! the swap; it is a leaf lock (nothing else is acquired while holding
//! it). The engine's left-right versioned tuple sets
//! ([`birds_store::Relation`]) make capture `O(delta)`, not
//! `O(tuples)`: an epoch that touched two relations replays its ops
//! into their shadow buffers and re-shares every untouched one.

use crate::footprint::ShardMap;
use birds_engine::Engine;
use birds_store::RelationVersion;
use std::sync::Arc;

/// An immutable image of one shard's relations at a commit boundary.
///
/// Produced under the shard's write lock, shared with readers through
/// the published [`ServiceSnapshot`]. Once published it never changes;
/// holding the `Arc` pins the image for as long as the reader likes,
/// at the cost of keeping the (structurally shared) tuple sets alive.
#[derive(Debug)]
pub struct ShardSnapshot {
    /// High-water commit seq: the effects of every commit with seq ≤
    /// this that touched the shard are visible, and nothing newer.
    commit_seq: u64,
    /// Every relation in the shard, in name order (base tables and
    /// materialized views alike).
    relations: Vec<RelationVersion>,
    /// Names of the shard's registered updatable views, in name order.
    views: Vec<String>,
}

impl ShardSnapshot {
    /// Capture the current contents of `engine` as of commit
    /// `commit_seq`. Cost: `O(delta)` per touched relation plus an
    /// `O(1)` re-share per untouched one (left-right publication in
    /// `birds_store`); `&mut` because each relation's publication state
    /// advances. Call only while the shard's write lock is held (or
    /// before the service is shared), so the image is a commit
    /// boundary.
    pub(crate) fn capture(engine: &mut Engine, commit_seq: u64) -> ShardSnapshot {
        let relations = engine.relation_versions();
        ShardSnapshot {
            commit_seq,
            relations,
            views: engine.view_names().map(str::to_owned).collect(),
        }
    }

    /// An empty image — what a *retired* shard slot publishes after a
    /// live re-shard moved its relations elsewhere. No route entry ever
    /// points at a retired slot, so the image is unreachable through
    /// normal reads; it exists so the image stays indexed by slot.
    pub(crate) fn empty(commit_seq: u64) -> ShardSnapshot {
        ShardSnapshot {
            commit_seq,
            relations: Vec::new(),
            views: Vec::new(),
        }
    }

    /// The shard's high-water commit seq (see the visibility rule in
    /// the module docs).
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq
    }

    /// Look up a relation by name (`None` if the shard doesn't own it).
    pub fn relation(&self, name: &str) -> Option<&RelationVersion> {
        self.relations
            .binary_search_by(|rel| rel.name().cmp(name))
            .ok()
            .map(|i| &self.relations[i])
    }

    /// Is `name` one of this shard's registered updatable views?
    pub fn is_view(&self, name: &str) -> bool {
        self.views
            .binary_search_by(|v| v.as_str().cmp(name))
            .is_ok()
    }

    /// The shard's relations, in name order.
    pub fn relations(&self) -> impl Iterator<Item = &RelationVersion> {
        self.relations.iter()
    }

    /// The shard's view names, in name order.
    pub fn view_names(&self) -> impl Iterator<Item = &str> {
        self.views.iter().map(String::as_str)
    }
}

/// A consistent, pinnable, lock-free view over every shard: the
/// published service image that [`crate::Service::snapshot`] returns
/// and [`crate::Service::read`] lends its closure.
///
/// Loading it takes no shard lock, and it never changes: keep it as
/// long as you like; it observes none of the commits published after
/// it. Holding it keeps every shard's image alive, so short reads of
/// one relation should use [`crate::Service::query`] instead.
pub struct ServiceSnapshot {
    shards: Vec<Arc<ShardSnapshot>>,
    route: Arc<ShardMap>,
}

impl ServiceSnapshot {
    pub(crate) fn new(shards: Vec<Arc<ShardSnapshot>>, route: Arc<ShardMap>) -> ServiceSnapshot {
        ServiceSnapshot { shards, route }
    }

    /// The image that replaces this one: the `fresh` shard images (by
    /// slot index, ascending; indices past the end extend the image)
    /// swapped in, every other shard carried over, and `route` if the
    /// topology changed.
    pub(crate) fn successor(
        &self,
        route: Option<Arc<ShardMap>>,
        fresh: impl IntoIterator<Item = (usize, Arc<ShardSnapshot>)>,
    ) -> ServiceSnapshot {
        let mut shards = self.shards.clone();
        for (index, shard) in fresh {
            if index < shards.len() {
                shards[index] = shard;
            } else {
                debug_assert_eq!(index, shards.len(), "a new slot extends the image");
                shards.push(shard);
            }
        }
        ServiceSnapshot {
            shards,
            route: route.unwrap_or_else(|| Arc::clone(&self.route)),
        }
    }

    /// The image of the shard in slot `index`.
    pub(crate) fn shard(&self, index: usize) -> &Arc<ShardSnapshot> {
        &self.shards[index]
    }

    /// Read access to any relation (base table or materialized view);
    /// `None` for names no shard owns.
    pub fn relation(&self, name: &str) -> Option<&RelationVersion> {
        let shard = self.route.shard_of(name)?;
        self.shards[shard.index()].relation(name)
    }

    /// Is `name` a registered updatable view?
    pub fn is_view(&self, name: &str) -> bool {
        self.route
            .shard_of(name)
            .is_some_and(|shard| self.shards[shard.index()].is_view(name))
    }

    /// Names of all registered views, in name order.
    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|shard| shard.view_names().map(str::to_owned))
            .collect();
        names.sort();
        names
    }

    /// Iterate every relation across all shards (shard-internal name
    /// order; not globally sorted).
    pub fn relations(&self) -> impl Iterator<Item = &RelationVersion> {
        self.shards.iter().flat_map(|shard| shard.relations())
    }

    /// The snapshot's overall high-water commit seq (the max over its
    /// shards): every commit with seq ≤ the *per-shard* seq is visible
    /// on that shard.
    pub fn commit_seq(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.commit_seq())
            .max()
            .unwrap_or(0)
    }

    /// Per-shard high-water commit seqs, in shard (lock-id) order.
    pub fn shard_seqs(&self) -> Vec<u64> {
        self.shards.iter().map(|shard| shard.commit_seq()).collect()
    }

    /// Number of shards covered.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}
