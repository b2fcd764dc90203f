//! `bulk_batches`: an in-process `Service` (no WAL, no TCP) over the
//! four Figure 6 views in incremental mode — `luxuryitems` (selection),
//! `officeinfo` (projection), `vw_brands` (union) and `outstanding_task`
//! (join) — each over base tables far larger than any CPU cache.
//!
//! One writer thread runs a closed loop of `begin` / ~2,000 statements /
//! `commit`, round-robin over the views; one reader thread, also closed
//! loop, pins `Service::snapshot()` and scans a whole view. Inserts and
//! deletes balance within every batch, so view sizes stay constant.

use crate::gen::Rng;
use crate::machine;
use crate::metrics::{Outcome, BULK};
use crate::stats;
use crate::trace::{Depth, EvalView, Spans};
use birds_benchmarks::corpus;
use birds_core::UpdateStrategy;
use birds_datalog::{parse_program, PredRef, Program};
use birds_engine::{Engine, StrategyMode};
use birds_eval::{evaluate_query, EvalContext};
use birds_service::{Json, Service};
use birds_store::{Database, Delta, Relation, Tuple, Value};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Rows per generated base table.
pub const BASE_ROWS: usize = 300_000;
/// Statements per batch.
pub const BATCH: usize = 2000;
/// Set-ups measured for `setup_s`.
const SETUPS: usize = 3;

/// The Figure 6 views, in round-robin order.
const VIEWS: [&str; 4] = ["luxuryitems", "officeinfo", "vw_brands", "outstanding_task"];

/// One view's generated rows: those in the view and fresh ones that a
/// statement may insert, plus how to key a delete.
struct ViewRows {
    name: &'static str,
    key: &'static str,
    present: Vec<Vec<Value>>,
    absent: Vec<Vec<Value>>,
    size: usize,
}

fn int(i: i64) -> Value {
    Value::Int(i)
}

fn s(text: String) -> Value {
    Value::str(text)
}

fn add(db: &mut Database, name: &str, arity: usize, rows: Vec<Vec<Value>>) {
    let rel = Relation::with_tuples(name, arity, rows.into_iter().map(Tuple::new)).expect("arity");
    db.add_relation(rel).expect("fresh table");
}

/// Generate every base table and the statement pools from `seed`.
fn generate(seed: u64, n: usize) -> (Database, Vec<ViewRows>) {
    let mut db = Database::new();
    let fresh = n / 8;
    let mut views = Vec::new();

    let mut rng = Rng::new(seed, 11);
    let (mut items, mut present, mut absent) = (Vec::new(), Vec::new(), Vec::new());
    for id in 0..n as i64 {
        let price = if rng.chance(0.5) {
            rng.range(1001, 4999)
        } else {
            rng.range(1, 1000)
        };
        items.push(vec![int(id), int(price)]);
        if price > 1000 {
            present.push(vec![int(id), int(price)]);
        }
    }
    for k in 0..fresh as i64 {
        absent.push(vec![int(n as i64 + k), int(rng.range(1001, 4999))]);
    }
    add(&mut db, "items", 2, items);
    views.push(ViewRows {
        name: VIEWS[0],
        key: "id",
        size: present.len(),
        present,
        absent,
    });

    let mut rng = Rng::new(seed, 12);
    let (mut office, mut present, mut absent) = (Vec::new(), Vec::new(), Vec::new());
    for oid in 0..n as i64 {
        let (name, phone) = (s(format!("office{oid}")), s(format!("+81-{oid:08}")));
        office.push(vec![int(oid), name, int(rng.range(1, 39)), phone]);
        present.push(vec![int(oid), name, phone]);
    }
    for oid in n as i64..(n + fresh) as i64 {
        absent.push(vec![
            int(oid),
            s(format!("annex{oid}")),
            s(format!("+81-{oid:08}")),
        ]);
    }
    add(&mut db, "office", 4, office);
    views.push(ViewRows {
        name: VIEWS[1],
        key: "oid",
        size: present.len(),
        present,
        absent,
    });

    let mut rng = Rng::new(seed, 13);
    let (mut a, mut b, mut present, mut absent) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for bid in 1..=n as i64 {
        let name = s(format!("brand{bid}"));
        if rng.chance(0.5) {
            a.push(vec![int(bid), name, s("JP".into())]);
        } else {
            b.push(vec![int(bid), name]);
        }
        present.push(vec![int(bid), name]);
    }
    for bid in (n + 1) as i64..=(n + fresh) as i64 {
        absent.push(vec![int(bid), s(format!("newbrand{bid}"))]);
    }
    add(&mut db, "brands_a", 3, a);
    add(&mut db, "brands_b", 2, b);
    views.push(ViewRows {
        name: VIEWS[2],
        key: "bid",
        size: present.len(),
        present,
        absent,
    });

    let mut rng = Rng::new(seed, 14);
    let (mut tasks, mut assignment, mut present, mut absent) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for tid in 1..=n as i64 {
        let open = rng.chance(0.5);
        let due = s(format!("2020-06-{:02}", rng.range(1, 28)));
        let owner = s(format!("owner{}", tid % 97));
        let title = s(format!("task{tid}"));
        let status = s(if open { "open" } else { "done" }.into());
        tasks.push(vec![int(tid), title, due, owner, status]);
        if rng.chance(0.75) {
            assignment.push(vec![int(tid), s(format!("worker{}", tid % 31))]);
            if open {
                present.push(vec![int(tid), title, due, owner]);
            } else if absent.len() < fresh {
                // A closed, assigned task may be reopened through the view.
                absent.push(vec![int(tid), s(format!("reopened{tid}")), due, owner]);
            }
        }
    }
    add(&mut db, "tasks", 5, tasks);
    add(&mut db, "assignment", 2, assignment);
    views.push(ViewRows {
        name: VIEWS[3],
        key: "tid",
        size: present.len(),
        present,
        absent,
    });
    (db, views)
}

fn corpus_view(name: &str) -> (UpdateStrategy, Program) {
    let entry = corpus::entry(name).expect("Figure 6 view is in the corpus");
    let strategy = entry.strategy().expect("Figure 6 view is expressible");
    let get = parse_program(entry.expected_get).expect("corpus get parses");
    (strategy, get)
}

fn sql_value(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Str(text) => format!("'{}'", text.as_str()),
        other => panic!("unexpected value {other:?}"),
    }
}

/// The seeded statement stream: batch `k` targets view `k mod 4`; each
/// statement deletes a row in the view or inserts one that is not,
/// keeping the view at its initial size.
struct Batches {
    rng: Rng,
    views: Vec<ViewRows>,
    next: usize,
}

impl Batches {
    fn new(seed: u64, views: Vec<ViewRows>) -> Batches {
        Batches {
            rng: Rng::new(seed, 2),
            views,
            next: 0,
        }
    }

    fn next_batch(&mut self) -> (usize, Vec<String>) {
        let v = self.next % self.views.len();
        self.next += 1;
        let rng = &mut self.rng;
        let view = &mut self.views[v];
        let stmts = (0..BATCH)
            .map(|_| {
                let delete = match view.present.len().cmp(&view.size) {
                    std::cmp::Ordering::Greater => true,
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Equal => rng.chance(0.5),
                };
                if delete {
                    let row = view.present.swap_remove(rng.below(view.present.len()));
                    let sql = format!(
                        "DELETE FROM {} WHERE {} = {};",
                        view.name,
                        view.key,
                        sql_value(&row[0])
                    );
                    view.absent.push(row);
                    sql
                } else {
                    let row = view.absent.swap_remove(rng.below(view.absent.len()));
                    let values: Vec<String> = row.iter().map(sql_value).collect();
                    let sql = format!("INSERT INTO {} VALUES ({});", view.name, values.join(", "));
                    view.present.push(row);
                    sql
                }
            })
            .collect();
        (v, stmts)
    }
}

/// A set-up: generated tables and registered, materialized views.
struct Setup {
    service: Service,
    views: Vec<ViewRows>,
    datagen_s: f64,
    register_s: f64,
}

fn set_up(seed: u64) -> Setup {
    let t = Instant::now();
    let (db, views) = generate(seed, BASE_ROWS);
    let datagen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let engine = registered_engine(db);
    let service = Service::new(engine);
    let register_s = t.elapsed().as_secs_f64();
    Setup {
        service,
        views,
        datagen_s,
        register_s,
    }
}

/// Register the four views (Table 1 already validated them; Figure 6
/// measures runtime, so registration skips re-validation).
fn registered_engine(db: Database) -> Engine {
    let mut engine = Engine::new(db);
    for name in VIEWS {
        let (strategy, get) = corpus_view(name);
        engine
            .register_view_unchecked(strategy, get, StrategyMode::Incremental)
            .expect("Figure 6 view registers");
    }
    engine
}

/// What the writer observed.
#[derive(Default)]
struct Written {
    batch_ms: Vec<f64>,
    /// Per batch: its view and the writer thread's CPU time, ms.
    batch_cpu_ms: Vec<(usize, f64)>,
    cpu_s: f64,
    statements: usize,
    busy_s: f64,
    view_delta: usize,
    source_delta: usize,
}

fn write_phase(
    service: &Service,
    batches: &mut Batches,
    secs: f64,
    spans: Option<&mut Spans>,
    first_id: u64,
) -> Written {
    let mut out = Written::default();
    let mut spans = spans;
    let mut session = service.session();
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let mut id = first_id;
    while Instant::now() < deadline {
        let (v, stmts) = batches.next_batch();
        let t = Instant::now();
        let cpu = machine::thread_cpu();
        session.begin().expect("begin");
        for sql in &stmts {
            match spans.as_deref_mut() {
                Some(spans) => spans.time(id, Depth::Service, "buffer", || session.execute(sql)),
                None => session.execute(sql),
            }
            .expect("statement buffers");
        }
        let outcome = match spans.as_deref_mut() {
            Some(spans) => spans.time(id, Depth::Service, "commit", || session.commit()),
            None => session.commit(),
        }
        .expect("batch commits");
        let dt = t.elapsed().as_secs_f64();
        let dcpu = (machine::thread_cpu() - cpu).as_secs_f64();
        out.batch_ms.push(dt * 1e3);
        out.batch_cpu_ms.push((v, dcpu * 1e3));
        out.cpu_s += dcpu;
        out.busy_s += dt;
        out.statements += outcome.statements;
        out.view_delta += outcome.stats.view_delta_size;
        out.source_delta += outcome.stats.source_delta_size;
        id += 1;
    }
    out
}

/// The reader: pin, scan a whole view, repeat until `stop`.
fn read_loop(service: &Service, sizes: &[usize], stop: &AtomicBool, trace: bool) -> Scans {
    let mut out = Scans::default();
    let mut k = 0;
    while !stop.load(Ordering::Acquire) {
        let v = k % VIEWS.len();
        k += 1;
        let t = Instant::now();
        let cpu = machine::thread_cpu();
        let snapshot = service.snapshot();
        if trace {
            out.pins_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let rel = snapshot.relation(VIEWS[v]).expect("view in snapshot");
        let mut count = 0usize;
        let mut checksum = 0u64;
        for t in rel.iter() {
            count += 1;
            checksum = checksum.wrapping_add(t.arity() as u64);
        }
        black_box(checksum);
        drop(snapshot);
        out.wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.cpu_ms
            .push((v, (machine::thread_cpu() - cpu).as_secs_f64() * 1e3));
        // Commits keep every view within one row of its initial size.
        if count.abs_diff(sizes[v]) > 1 {
            out.errors.push(format!(
                "pinned scan of {} saw {count} rows, expected {}±1",
                VIEWS[v], sizes[v]
            ));
        }
    }
    out
}

/// What the reader observed.
#[derive(Default)]
struct Scans {
    wall_ms: Vec<f64>,
    /// Per scan: its view and the reader thread's CPU time, ms.
    cpu_ms: Vec<(usize, f64)>,
    pins_us: Vec<f64>,
    errors: Vec<String>,
}

/// Geometric mean over views of each view's median.
fn per_view_geomean(samples: &[(usize, f64)]) -> f64 {
    let views: Vec<usize> = (0..VIEWS.len()).collect();
    stats::geomean_of_medians(&views, samples)
}

/// Run the workload for about `seconds` seconds.
pub fn run(seed: u64, seconds: u64, trace: bool, dir: &std::path::Path) -> Outcome {
    let mut outcome = Outcome::new(BULK);
    outcome.note("machine", machine::fingerprint(dir));
    outcome.note(
        "knobs",
        Json::Obj(vec![
            ("base_rows".into(), Json::Int(BASE_ROWS as i64)),
            ("batch_statements".into(), Json::Int(BATCH as i64)),
            ("mode".into(), Json::str("incremental")),
            ("wal".into(), Json::Bool(false)),
            ("epoch_window_us".into(), Json::Int(0)),
            ("writer_threads".into(), Json::Int(1)),
            ("reader_threads".into(), Json::Int(1)),
        ]),
    );
    let mut setup_times = Vec::new();
    let mut setup = None;
    for _ in 0..if trace { 1 } else { SETUPS } {
        drop(setup.take());
        let t = Instant::now();
        setup = Some(set_up(seed));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let Setup {
        service,
        views,
        datagen_s,
        register_s,
    } = setup.expect("one set-up");
    outcome.set("setup_s", stats::median(&setup_times));
    let sizes: Vec<usize> = views.iter().map(|v| v.size).collect();
    let mut batches = Batches::new(seed, views);

    // Warm-up: one untimed batch per view builds the lazy indexes.
    let mut warm = service.session();
    for _ in 0..VIEWS.len() {
        let (_, stmts) = batches.next_batch();
        warm.begin().expect("begin");
        for sql in &stmts {
            warm.execute(sql).expect("statement buffers");
        }
        warm.commit().expect("warm-up batch commits");
    }
    drop(warm);
    let warmup_batches = batches.next;
    let stop = AtomicBool::new(false);
    let mut spans = Spans::default();
    let secs = seconds as f64;
    let (written, untraced, mut scans) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_loop(&service, &sizes, &stop, trace));
        // Traced, then (in a traced run) the same again untraced: the
        // difference is the tracing overhead.
        let phase_secs = if trace { secs * 0.25 } else { secs };
        let written = write_phase(
            &service,
            &mut batches,
            phase_secs,
            trace.then_some(&mut spans),
            warmup_batches as u64,
        );
        let untraced = trace.then(|| write_phase(&service, &mut batches, phase_secs, None, 0));
        stop.store(true, Ordering::Release);
        (written, untraced, reader.join().expect("reader thread"))
    });
    let mut batch_ms = written.batch_ms.clone();
    outcome.attempted = (written.statements + scans.wall_ms.len()) as u64
        + untraced.as_ref().map_or(0, |u| u.statements as u64);
    for e in std::mem::take(&mut scans.errors) {
        outcome.mismatch(e);
    }
    // A traced run's phases are short; it reports no tail figure.
    let tail = if trace { 50.0 } else { 95.0 };
    for (what, n, pct) in [
        ("batches", batch_ms.len(), tail),
        ("scans", scans.wall_ms.len(), 50.0),
    ] {
        if !stats::tail_ok(n, pct) {
            outcome.mismatch(format!(
                "only {n} {what}: p{pct} needs {} beyond it",
                stats::MIN_BEYOND
            ));
        }
    }
    outcome.note(
        "samples",
        Json::Obj(vec![
            ("batches".into(), Json::Int(batch_ms.len() as i64)),
            ("scans".into(), Json::Int(scans.wall_ms.len() as i64)),
            (
                "batches_highest_percentile".into(),
                stats::highest_percentile(batch_ms.len()).map_or(Json::Null, Json::Float),
            ),
        ]),
    );
    outcome.set("batch_p50_ms", stats::percentile_of(&mut batch_ms, 50.0));
    if !trace {
        outcome.set("batch_p95_ms", stats::percentile_of(&mut batch_ms, 95.0));
    }
    outcome.set("stmts_per_s", written.statements as f64 / written.busy_s);
    outcome.set(
        "scan_p50_ms",
        stats::percentile_of(&mut scans.wall_ms, 50.0),
    );
    outcome.set("batch_cpu_ms", per_view_geomean(&written.batch_cpu_ms));
    outcome.set("stmts_per_cpu_s", written.statements as f64 / written.cpu_s);
    outcome.set("scan_cpu_ms", per_view_geomean(&scans.cpu_ms));

    // Before the oracles, which copy the base tables.
    outcome.set(
        "peak_rss_mb",
        machine::status_mb("self", "VmHWM").unwrap_or(f64::NAN),
    );

    // Oracles: each view equals its pool of generated rows, and equals
    // its `get` evaluated over the final base tables (PutGet).
    let snapshot = service.snapshot();
    for (v, rows) in batches.views.iter().enumerate() {
        let rel = snapshot.relation(VIEWS[v]).expect("view in snapshot");
        let expected: HashSet<Tuple> = rows.present.iter().cloned().map(Tuple::new).collect();
        let actual: HashSet<Tuple> = rel.iter().cloned().collect();
        if actual != expected {
            outcome.mismatch(format!(
                "{}: {} rows, the statements imply {}",
                VIEWS[v],
                actual.len(),
                expected.len()
            ));
        }
        let (strategy, get) = corpus_view(VIEWS[v]);
        let mut base = Database::new();
        for source in &strategy.source_schema.relations {
            base.add_relation(
                snapshot
                    .relation(&source.name)
                    .expect("base table")
                    .to_relation(),
            )
            .expect("fresh copy");
        }
        let derived = evaluate_query(
            &get,
            &PredRef::plain(VIEWS[v]),
            &mut EvalContext::new(&mut base),
        )
        .expect("get evaluates");
        let derived: HashSet<Tuple> = derived.iter().cloned().collect();
        if derived != actual {
            outcome.mismatch(format!(
                "{}: PutGet fails, get(S') has {} rows, the view {}",
                VIEWS[v],
                derived.len(),
                actual.len()
            ));
        }
    }
    drop(snapshot);
    outcome.set(
        "failed_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );

    if trace {
        let untraced = untraced.expect("untraced phase");
        let base = stats::median(&untraced.batch_ms);
        outcome.layer(
            "trace.overhead_pct",
            (outcome.e2e["batch_p50_ms"] - base) / base * 100.0,
        );
        outcome.layer("setup.datagen_s", datagen_s);
        outcome.layer("setup.register_s", register_s);
        outcome.layer(
            "snapshot.pin_us",
            stats::percentile_of(&mut scans.pins_us, 50.0),
        );
        outcome.layer(
            "engine.source_per_view_delta",
            written.source_delta as f64 / written.view_delta.max(1) as f64,
        );
        let stats = service.relation_stats();
        let hits: u64 = stats.iter().map(|r| r.index_hits).sum();
        let misses: u64 = stats.iter().map(|r| r.index_misses).sum();
        outcome.layer(
            "store.index_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        drop((service, batches));
        replay(seed, warmup_batches, written.batch_ms.len(), &mut spans);
        let ms = |depth, name| spans.p50_per_id_us(depth, name) / 1e3;
        let (derive, apply, commit) = (
            ms(Depth::Engine, "derive"),
            ms(Depth::Engine, "apply"),
            ms(Depth::Service, "commit"),
        );
        outcome.layer("service.buffer_ms", ms(Depth::Service, "buffer"));
        outcome.layer("service.commit_ms", commit);
        outcome.layer("engine.derive_ms", derive);
        outcome.layer("engine.apply_ms", apply);
        outcome.layer("service.publish_ms", commit - derive - apply);
        outcome.layer("eval.dput_ms", ms(Depth::Eval, "dput"));
        outcome.note("spans", Json::Int(spans.len() as i64));
    }
    outcome
}

/// Replay the seeded batches on an engine twin, then their derived
/// deltas on a database twin: the first `skip` (the warm-up) untimed,
/// so each twin reaches the service's state, then `count` timed.
fn replay(seed: u64, skip: usize, count: usize, spans: &mut Spans) {
    let (db, views) = generate(seed, BASE_ROWS);
    let mut batches = Batches::new(seed, views);
    let mut untimed = Spans::default();
    let mut engine = registered_engine(db);
    let mut deltas: Vec<(usize, Delta)> = Vec::with_capacity(skip + count);
    for id in 0..skip + count {
        let (v, stmts) = batches.next_batch();
        let sp = if id >= skip {
            &mut *spans
        } else {
            &mut untimed
        };
        let id = id as u64;
        let mut parsed = Vec::with_capacity(stmts.len());
        for sql in &stmts {
            parsed.extend(
                sp.time(id, Depth::Engine, "parse", || birds_sql::parse_script(sql))
                    .expect("parse"),
            );
        }
        let delta = sp
            .time(id, Depth::Engine, "derive", || {
                engine.derive_delta(VIEWS[v], &parsed)
            })
            .expect("derive");
        deltas.push((v, delta.clone()));
        sp.time(id, Depth::Engine, "apply", || {
            engine.apply_delta(VIEWS[v], delta)
        })
        .expect("apply");
    }
    drop(engine);
    // The database twin: base tables plus each view materialized by its get.
    let (mut db, _) = generate(seed, BASE_ROWS);
    let mut evals = Vec::new();
    for name in VIEWS {
        let (strategy, get) = corpus_view(name);
        let view = evaluate_query(&get, &PredRef::plain(name), &mut EvalContext::new(&mut db))
            .expect("get evaluates");
        db.add_relation(view.renamed(name)).expect("fresh view");
        evals.push(EvalView::new(&strategy));
    }
    for (id, (v, delta)) in deltas.into_iter().enumerate() {
        let sp = if id >= skip {
            &mut *spans
        } else {
            &mut untimed
        };
        evals[v].apply(&mut db, &delta, sp, id as u64, false);
    }
}
