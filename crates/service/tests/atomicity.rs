//! All-or-nothing commits: a rejected transaction leaves no trace — not
//! in engine memory, not in the published image, not in the commit
//! sequence, not in the WAL.
//!
//! Two ways a transaction can fail after it already mutated something:
//!
//! * a **cascade** (a view over a view) passes the outer view's checks
//!   and is rejected by the inner view's constraint;
//! * a **multi-view batch** applies its first view and is rejected on a
//!   later one, possibly on another shard.

use birds_core::UpdateStrategy;
use birds_engine::{Engine, EngineError, StrategyMode};
use birds_service::{DurabilityConfig, Service, ServiceConfig, ServiceError};
use birds_store::{tuple, Database, DatabaseSchema, Relation, Schema, SortKind, Tuple};
use std::path::PathBuf;

/// `view = σ_{bound}(source)` over unary int relations, with the bound
/// as a constraint: inserting a tuple outside it is rejected.
fn selection(source: &str, view: &str, bound: &str) -> UpdateStrategy {
    UpdateStrategy::parse(
        DatabaseSchema::new().with(Schema::new(source, vec![("a", SortKind::Int)])),
        Schema::new(view, vec![("a", SortKind::Int)]),
        &format!(
            "false :- {view}(X), not {bound}.
             +{source}(X) :- {view}(X), not {source}(X).
             m{view}(X) :- {source}(X), {bound}.
             -{source}(X) :- m{view}(X), not {view}(X)."
        ),
        None,
    )
    .unwrap()
}

/// `w = σ_{a>2}(v)` over `v = σ_{a<100}(r)`, r = {1, 3}: one shard.
fn cascade_engine(mode: StrategyMode) -> Engine {
    let mut db = Database::new();
    db.add_relation(Relation::with_tuples("r", 1, vec![tuple![1], tuple![3]]).unwrap())
        .unwrap();
    let mut engine = Engine::new(db);
    engine
        .register_view(selection("r", "v", "X < 100"), mode)
        .unwrap();
    engine
        .register_view(selection("v", "w", "X > 2"), mode)
        .unwrap();
    engine
}

/// `v0 = σ_{a<100}(r0)` and `v1 = σ_{a<100}(r1)`, each over {1}: two
/// disjoint footprints, so two shards.
fn two_view_engine(mode: StrategyMode) -> Engine {
    let mut db = Database::new();
    for i in 0..2 {
        db.add_relation(Relation::with_tuples(format!("r{i}"), 1, vec![tuple![1]]).unwrap())
            .unwrap();
    }
    let mut engine = Engine::new(db);
    for i in 0..2 {
        engine
            .register_view(
                selection(&format!("r{i}"), &format!("v{i}"), "X < 100"),
                mode,
            )
            .unwrap();
    }
    engine
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "birds-atomicity-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sorted(rel: &Relation) -> Vec<Tuple> {
    let mut tuples: Vec<Tuple> = rel.iter().cloned().collect();
    tuples.sort();
    tuples
}

/// Every relation of the published image, sorted, with the image's seq.
fn image(service: &Service) -> (u64, Vec<(String, Vec<Tuple>)>) {
    let snapshot = service.snapshot();
    let mut rels: Vec<(String, Vec<Tuple>)> = snapshot
        .relations()
        .map(|rel| {
            let mut tuples: Vec<Tuple> = rel.iter().cloned().collect();
            tuples.sort();
            (rel.name().to_owned(), tuples)
        })
        .collect();
    rels.sort();
    (snapshot.commit_seq(), rels)
}

fn assert_constraint_violation(err: ServiceError, on: &str) {
    assert!(
        matches!(
            &err,
            ServiceError::Engine(EngineError::ConstraintViolation { view, .. }) if view == on
        ),
        "expected a violation on {on}, got {err:?}"
    );
}

#[test]
fn failed_cascade_leaves_memory_and_image_unchanged() {
    for mode in [StrategyMode::Original, StrategyMode::Incremental] {
        let service = Service::new(cascade_engine(mode));
        let before = image(&service);
        let mut session = service.session();
        // w accepts 500; the cascaded insert into v violates v's bound.
        let err = session.execute("INSERT INTO w VALUES (500);").unwrap_err();
        assert_constraint_violation(err, "v");
        assert_eq!(image(&service), before, "{mode:?}: the image moved");
        assert_eq!(service.commits(), 0);
        assert_eq!(service.query("w").unwrap(), vec![tuple![3]]);

        // The published image and the engine agree relation by relation.
        drop(session);
        let engine = service.into_engine().ok().expect("sole owner");
        for (name, published) in &before.1 {
            let live = sorted(engine.relation(name).unwrap());
            assert_eq!(&live, published, "{mode:?}: engine {name} drifted");
        }
    }
}

#[test]
fn failed_multi_view_batch_is_all_or_nothing_in_memory() {
    for mode in [StrategyMode::Original, StrategyMode::Incremental] {
        let service = Service::new(two_view_engine(mode));
        assert_eq!(service.shard_count(), 2);
        let before = image(&service);
        let mut session = service.session();
        session.begin().unwrap();
        session
            .execute("INSERT INTO v0 VALUES (5); INSERT INTO v1 VALUES (500);")
            .unwrap();
        assert_constraint_violation(session.commit().unwrap_err(), "v1");
        assert_eq!(service.query("v0").unwrap(), vec![tuple![1]], "{mode:?}");
        assert_eq!(image(&service), before, "{mode:?}: the image moved");
        assert_eq!(service.commits(), 0);

        // The service keeps working, and the engine matches the image.
        session.execute("INSERT INTO v0 VALUES (6);").unwrap();
        assert_eq!(service.commits(), 1);
        drop(session);
        let engine = service.into_engine().ok().expect("sole owner");
        assert_eq!(
            sorted(engine.relation("v0").unwrap()),
            vec![tuple![1], tuple![6]]
        );
        assert_eq!(
            sorted(engine.relation("r0").unwrap()),
            vec![tuple![1], tuple![6]]
        );
    }
}

#[test]
fn failed_multi_view_batch_is_all_or_nothing_durably() {
    for mode in [StrategyMode::Original, StrategyMode::Incremental] {
        let dir = temp_dir(&format!("batch-{mode:?}"));
        let open = || {
            Service::open(
                two_view_engine(mode),
                ServiceConfig::default(),
                DurabilityConfig::new(&dir),
            )
            .unwrap()
        };
        let service = open();
        let mut session = service.session();
        session.execute("INSERT INTO v1 VALUES (7);").unwrap();
        let before = image(&service);
        let commits = service.commits();

        session.begin().unwrap();
        session
            .execute("INSERT INTO v0 VALUES (5); INSERT INTO v1 VALUES (500);")
            .unwrap();
        assert_constraint_violation(session.commit().unwrap_err(), "v1");
        assert_eq!(service.query("v0").unwrap(), vec![tuple![1]], "{mode:?}");
        assert_eq!(
            service.commits(),
            commits,
            "{mode:?}: a failed commit took a seq"
        );
        assert_eq!(image(&service), before, "{mode:?}: the image moved");
        drop((session, service));

        // Recovery replays the log: the failed batch left no record.
        let recovered = open();
        assert_eq!(image(&recovered), before, "{mode:?}: recovery diverged");
        assert_eq!(recovered.commits(), commits);
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
