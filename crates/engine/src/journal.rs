//! The undo journal: every effective tuple mutation of an in-flight
//! transaction, in application order, so a failure anywhere in the
//! trigger pipeline puts every touched relation back.
//!
//! A view update mutates the materialized view, applies `ΔS` to the
//! base tables and cascades into sub-views; any of those steps (or a
//! constraint check between them) can fail after earlier ones already
//! changed the database. [`Engine::apply_delta_journaled`] records each
//! mutation here and, on error, replays its own entries in reverse. A
//! caller that groups several applications into one transaction (a
//! multi-view service batch) keeps one journal across them and undoes
//! all of it with [`Engine::undo`] when a later one fails.
//!
//! Only *effective* operations are recorded — an insert of a present
//! tuple or a delete of an absent one changes nothing and needs no undo
//! — so the cost is one push per tuple the transaction really changes.
//!
//! [`Engine::apply_delta_journaled`]: crate::Engine::apply_delta_journaled
//! [`Engine::undo`]: crate::Engine::undo

use birds_store::{Database, Delta, Relation, StoreResult, Tuple};

/// The effective mutations one delta made to one relation.
#[derive(Debug)]
struct Step {
    relation: String,
    removed: Vec<Tuple>,
    inserted: Vec<Tuple>,
}

/// The effective mutations of one transaction, in application order.
#[derive(Debug, Default)]
pub struct UndoJournal {
    steps: Vec<Step>,
}

impl UndoJournal {
    /// An empty journal.
    pub fn new() -> UndoJournal {
        UndoJournal::default()
    }

    /// A position to undo back to (see [`UndoJournal::undo_to`]).
    pub(crate) fn mark(&self) -> usize {
        self.steps.len()
    }

    /// Apply `delta` to `rel` — deletions first, then insertions, per
    /// the paper's `(R \ Δ⁻) ∪ Δ⁺` — recording what actually changed.
    /// On an insertion error the deletions and insertions already made
    /// stay recorded, so the caller's undo covers them.
    pub(crate) fn apply(&mut self, rel: &mut Relation, delta: &Delta) -> StoreResult<()> {
        self.steps.push(Step {
            relation: rel.name().to_owned(),
            removed: Vec::new(),
            inserted: Vec::new(),
        });
        let step = self.steps.last_mut().expect("just pushed");
        for t in &delta.deletions {
            if rel.remove(t) {
                step.removed.push(t.clone());
            }
        }
        for t in &delta.insertions {
            if rel.insert(t.clone())? {
                step.inserted.push(t.clone());
            }
        }
        Ok(())
    }

    /// Revert every step recorded after `mark`, newest first, and drop
    /// them from the journal.
    pub(crate) fn undo_to(&mut self, db: &mut Database, mark: usize) {
        for step in self.steps.drain(mark..).rev() {
            let rel = db
                .relation_mut(&step.relation)
                .expect("a journaled relation outlives its transaction");
            for t in &step.inserted {
                rel.remove(t);
            }
            for t in step.removed {
                rel.insert(t).expect("a removed tuple fits its relation");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use birds_store::tuple;

    #[test]
    fn undo_restores_only_effective_mutations() {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r", 1, vec![tuple![1], tuple![2]]).unwrap())
            .unwrap();
        let mut journal = UndoJournal::new();
        let mut first = Delta::new();
        first.push_delete(tuple![1]);
        first.push_delete(tuple![7]); // absent: no effect, nothing to undo
        first.push_insert(tuple![2]); // present: no effect
        first.push_insert(tuple![3]);
        journal
            .apply(db.relation_mut("r").unwrap(), &first)
            .unwrap();
        let mark = journal.mark();
        let mut second = Delta::new();
        second.push_delete(tuple![3]);
        second.push_insert(tuple![1]);
        journal
            .apply(db.relation_mut("r").unwrap(), &second)
            .unwrap();

        journal.undo_to(&mut db, mark);
        let mut now: Vec<Tuple> = db.relation("r").unwrap().iter().cloned().collect();
        now.sort();
        assert_eq!(now, vec![tuple![2], tuple![3]]);

        journal.undo_to(&mut db, 0);
        let mut now: Vec<Tuple> = db.relation("r").unwrap().iter().cloned().collect();
        now.sort();
        assert_eq!(now, vec![tuple![1], tuple![2]]);
    }
}
