//! Spans recorded from outside the program, around calls into each
//! layer's public entry points, plus the lowest replay depth: the
//! incremental ∂put program evaluated straight on a database twin.
//!
//! A traced run replays one seeded request sequence at successively
//! lower entry points, each on a fresh twin: [`Depth::Wire`] (TCP),
//! [`Depth::Protocol`] (`LocalClient::request_line`), [`Depth::Service`]
//! (`Session` / `Service`), [`Depth::Engine`] (`parse_script`,
//! `Engine::derive_delta`, `Engine::apply_delta`) and [`Depth::Eval`]
//! (`evaluate_program` on `incrementalize(..)`). A layer's self time is
//! its depth's time minus the next depth's.

use birds_core::UpdateStrategy;
use birds_datalog::{DeltaKind, Literal, PredRef, Program};
use birds_eval::{evaluate_program, violated_constraints, EvalContext};
use birds_store::{Database, Delta, Relation};
use std::time::{Duration, Instant};

/// Replay depth of a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// A request over TCP, send to receive.
    Wire,
    /// `LocalClient::request_line`.
    Protocol,
    /// `Session::execute` / `Session::commit` / `Service::query`.
    Service,
    /// `birds_sql::parse_script` and `Engine::{derive,apply}_delta`.
    Engine,
    /// `birds_eval::evaluate_program` / `violated_constraints`.
    Eval,
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request (or batch) id the call served.
    pub id: u64,
    /// Replay depth.
    pub depth: Depth,
    /// Which call.
    pub name: &'static str,
    /// Duration.
    pub dur: Duration,
}

/// Spans kept in memory until the run ends.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Time `f` as one span.
    pub fn time<R>(
        &mut self,
        id: u64,
        depth: Depth,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(id, depth, name, start.elapsed());
        out
    }

    /// Record an already-measured span.
    pub fn record(&mut self, id: u64, depth: Depth, name: &'static str, dur: Duration) {
        self.spans.push(Span {
            id,
            depth,
            name,
            dur,
        });
    }

    /// Durations of the spans `(depth, name)`, in microseconds.
    pub fn micros(&self, depth: Depth, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.depth == depth && s.name == name)
            .map(|s| s.dur.as_secs_f64() * 1e6)
            .collect()
    }

    /// Median of `(depth, name)` in microseconds (NaN when absent).
    pub fn p50_us(&self, depth: Depth, name: &str) -> f64 {
        let v = self.micros(depth, name);
        if v.is_empty() {
            f64::NAN
        } else {
            crate::stats::median(&v)
        }
    }

    /// Median over ids of the summed `(depth, name)` spans per id, in
    /// microseconds — e.g. the buffering time of a whole batch.
    pub fn p50_per_id_us(&self, depth: Depth, name: &str) -> f64 {
        let mut per_id: std::collections::BTreeMap<u64, f64> = Default::default();
        for s in self
            .spans
            .iter()
            .filter(|s| s.depth == depth && s.name == name)
        {
            *per_id.entry(s.id).or_default() += s.dur.as_secs_f64() * 1e6;
        }
        let v: Vec<f64> = per_id.into_values().collect();
        if v.is_empty() {
            f64::NAN
        } else {
            crate::stats::median(&v)
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// The [`Depth::Eval`] twin of one view: its ∂put program and its
/// Δ⁺-restricted constraint checks, evaluated against a database that
/// the replay keeps in step by applying each ΔS itself.
pub struct EvalView {
    view: String,
    arity: usize,
    dput: Program,
    constraints: Program,
}

impl EvalView {
    /// Incrementalize `strategy` and restrict each constraint's
    /// positive view atom to the inserted tuples (the engine's fast path).
    pub fn new(strategy: &UpdateStrategy) -> EvalView {
        let view = strategy.view.name.clone();
        let dput =
            birds_core::incrementalize(strategy).expect("benchmark strategies incrementalize");
        let constraints = strategy
            .constraints()
            .into_iter()
            .map(|rule| {
                let mut rule = rule.clone();
                for lit in &mut rule.body {
                    if let Literal::Atom {
                        atom,
                        negated: false,
                    } = lit
                    {
                        if atom.pred.kind == DeltaKind::None && atom.pred.name == view {
                            atom.pred = PredRef::ins(&view);
                        }
                    }
                }
                rule
            })
            .collect();
        EvalView {
            arity: strategy.view.arity(),
            view,
            dput,
            constraints: Program::new(constraints),
        }
    }

    /// Evaluate ∂put for `delta` (timed), update the view, check the
    /// constraints (timed) and apply ΔS to the base tables of `db`.
    pub fn apply(&self, db: &mut Database, delta: &Delta, spans: &mut Spans, id: u64, check: bool) {
        let overlay = |pred: PredRef, tuples: &std::collections::HashSet<birds_store::Tuple>| {
            Relation::with_tuples(pred.flat_name(), self.arity, tuples.iter().cloned())
                .expect("delta tuples have the view's arity")
        };
        let out = {
            let mut ctx = EvalContext::new(db);
            ctx.insert_overlay(overlay(PredRef::ins(&self.view), &delta.insertions));
            ctx.insert_overlay(overlay(PredRef::del(&self.view), &delta.deletions));
            spans.time(id, Depth::Eval, "dput", || {
                evaluate_program(&self.dput, &mut ctx)
            })
        }
        .expect("∂put evaluates");
        let view = db.relation_mut(&self.view).expect("view is materialized");
        for t in &delta.deletions {
            view.remove(t);
        }
        for t in &delta.insertions {
            view.insert(t.clone()).expect("view arity");
        }
        if check {
            let mut ctx = EvalContext::new(db);
            ctx.insert_overlay(overlay(PredRef::ins(&self.view), &delta.insertions));
            let violated = spans.time(id, Depth::Eval, "constraints", || {
                violated_constraints(&self.constraints, &mut ctx)
            });
            assert!(
                violated.expect("constraints evaluate").is_empty(),
                "replayed update violates a constraint"
            );
        }
        for (pred, rel) in &out.relations {
            let Some(target) = db.relation_mut(&pred.name) else {
                continue;
            };
            match pred.kind {
                DeltaKind::Delete => rel.iter().for_each(|t| {
                    target.remove(t);
                }),
                DeltaKind::Insert => rel.iter().for_each(|t| {
                    target.insert(t.clone()).expect("source arity");
                }),
                _ => {}
            }
        }
    }
}
