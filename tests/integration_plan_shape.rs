//! Plan-shape regression suite for the incremental ∂put programs.
//!
//! The paper's incremental strategies (§5, Figure 6) cost `O(|ΔV|)` only
//! if every ∂put join starts from the view delta. This suite plans every
//! rule with a positive `+v` / `-v` atom, in every expressible LVGN corpus
//! strategy, against base tables of 100k rows and 10-tuple view deltas,
//! and asserts that the first scan of each plan reads that delta. A base
//! atom carrying a constant selection (`city(I, N, C, P), C = 'USA'`,
//! `works(E, 'research')`) must not outrank the delta. No index exists,
//! so the planner estimates those selections with its fixed selectivity.

use birds::benchmarks::corpus;
use birds::core::incrementalize;
use birds::datalog::{DeltaKind, Literal, PredRef, Rule};
use birds::eval::plan::StepOp;
use birds::eval::{plan_rule, EvalContext};
use birds::store::{Database, Relation, Schema, Tuple, Value, ValueSort};

const BASE_ROWS: usize = 100_000;
const DELTA_ROWS: usize = 10;

/// Row `i` of a synthetic relation: column 0 is unique per row, the other
/// columns draw from 100 distinct values each.
fn row(sorts: &[ValueSort], i: usize) -> Tuple {
    sorts
        .iter()
        .enumerate()
        .map(|(c, sort)| {
            let v = if c == 0 { i } else { i % 100 };
            match sort {
                ValueSort::Int => Value::Int(v as i64),
                ValueSort::Float => Value::float(v as f64),
                ValueSort::Str => Value::str(format!("s{v}")),
                ValueSort::Bool => Value::Bool(v % 2 == 1),
            }
        })
        .collect()
}

fn relation(name: &str, schema: &Schema, n: usize) -> Relation {
    let sorts: Vec<ValueSort> = schema.attributes.iter().map(|a| a.sort).collect();
    let rel = Relation::with_tuples(name, sorts.len(), (0..n).map(|i| row(&sorts, i))).unwrap();
    assert_eq!(rel.len(), n, "{name}: synthetic rows must be distinct");
    rel
}

/// The positive view-delta atoms of a ∂put rule, as flat relation names.
fn view_delta_atoms(rule: &Rule, view: &str) -> Vec<String> {
    rule.body
        .iter()
        .filter_map(|lit| match lit {
            Literal::Atom {
                atom,
                negated: false,
            } if atom.pred.name == view
                && matches!(atom.pred.kind, DeltaKind::Insert | DeltaKind::Delete) =>
            {
                Some(atom.pred.flat_name())
            }
            _ => None,
        })
        .collect()
}

/// Relation read by the plan's first `Scan` / `RangeScan` step.
fn first_scan(rule: &Rule, ctx: &EvalContext) -> String {
    let plan = plan_rule(rule, ctx).unwrap_or_else(|e| panic!("{rule}: {e}"));
    plan.steps
        .iter()
        .find_map(|step| match &step.op {
            StepOp::Scan(atom) | StepOp::RangeScan { atom, .. } => Some(atom.rel.clone()),
            _ => None,
        })
        .unwrap_or_else(|| panic!("{rule}: plan has no scan"))
}

#[test]
fn every_dput_join_starts_from_the_view_delta() {
    let mut checked_rules = 0;
    let mut checked_entries = 0;
    let mut violations = Vec::new();
    for entry in corpus::entries() {
        let Some(strategy) = entry.strategy() else {
            continue;
        };
        if !strategy.is_lvgn() {
            continue;
        }
        let program = incrementalize(&strategy).unwrap();
        let view = &strategy.view.name;
        let rules: Vec<(&Rule, Vec<String>)> = program
            .rules
            .iter()
            .map(|r| (r, view_delta_atoms(r, view)))
            .filter(|(_, deltas)| !deltas.is_empty())
            .collect();
        if rules.is_empty() {
            continue;
        }
        checked_entries += 1;

        let mut db = Database::new();
        for schema in &strategy.source_schema.relations {
            db.add_relation(relation(&schema.name, schema, BASE_ROWS))
                .unwrap();
        }
        let mut ctx = EvalContext::new(&mut db);
        for delta in [PredRef::ins(view.as_str()), PredRef::del(view.as_str())] {
            ctx.insert_overlay(relation(&delta.flat_name(), &strategy.view, DELTA_ROWS));
        }
        for (rule, deltas) in &rules {
            checked_rules += 1;
            let first = first_scan(rule, &ctx);
            if !deltas.contains(&first) {
                violations.push(format!(
                    "#{} {}: `{rule}` starts from {first}",
                    entry.id, entry.name
                ));
            }
        }
    }
    assert_eq!(checked_entries, 20, "every LVGN corpus strategy is covered");
    assert!(
        checked_rules >= 55,
        "expected ≥55 ∂put rules, got {checked_rules}"
    );
    assert!(
        violations.is_empty(),
        "∂put rules not driven by their view delta:\n{}",
        violations.join("\n")
    );
}
