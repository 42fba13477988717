//! Adversarial round-trip property for the DL parser and pretty-printer:
//! `parse(pretty(decl)) == decl` — exactly, as abstract syntax — over
//!
//! * every declaration of the bundled medical example, and
//! * hundreds of seeded random query classes covering the whole grammar:
//!   empty and multi-superclass `isA` clauses, labeled and unlabeled
//!   derived paths with class / singleton / wildcard filters, `where`
//!   equalities, and deeply nested constraint expressions (quantifiers as
//!   operands of `not`/`and`/`or` are the historically fragile corner —
//!   the printer must parenthesize them or the re-parse associates the
//!   quantifier body wrongly).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use subq_dl::pretty::{render_model, render_query};
use subq_dl::{
    parse_model, samples, ConstraintExpr, LabeledPath, PathFilter, PathStep, QueryClassDecl, Term,
};

const CLASSES: [&str; 5] = ["Alpha", "Beta", "Gamma", "Delta", "Epsilon"];
const ATTRS: [&str; 4] = ["attr_a", "attr_b", "rel_c", "rel_d"];
const LABELS: [&str; 4] = ["l_1", "l_2", "l_3", "l_4"];
const OBJECTS: [&str; 3] = ["obj_x", "obj_y", "obj_z"];
const VARS: [&str; 3] = ["v1", "v2", "v3"];

fn pick<'a>(rng: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool[rng.gen_range(0..pool.len())]
}

fn random_term(rng: &mut StdRng) -> Term {
    match rng.gen_range(0..3u8) {
        0 => Term::This,
        1 => Term::Ident(pick(rng, &LABELS).to_owned()),
        _ => Term::Ident(pick(rng, &OBJECTS).to_owned()),
    }
}

fn random_constraint(rng: &mut StdRng, depth: usize) -> ConstraintExpr {
    let atom = depth == 0 || rng.gen_bool(0.35);
    if atom {
        return match rng.gen_range(0..3u8) {
            0 => ConstraintExpr::In(random_term(rng), pick(rng, &CLASSES).to_owned()),
            1 => ConstraintExpr::HasAttr(
                random_term(rng),
                pick(rng, &ATTRS).to_owned(),
                random_term(rng),
            ),
            _ => ConstraintExpr::Eq(random_term(rng), random_term(rng)),
        };
    }
    match rng.gen_range(0..5u8) {
        0 => ConstraintExpr::Not(Box::new(random_constraint(rng, depth - 1))),
        1 => ConstraintExpr::And(
            Box::new(random_constraint(rng, depth - 1)),
            Box::new(random_constraint(rng, depth - 1)),
        ),
        2 => ConstraintExpr::Or(
            Box::new(random_constraint(rng, depth - 1)),
            Box::new(random_constraint(rng, depth - 1)),
        ),
        3 => ConstraintExpr::Forall(
            pick(rng, &VARS).to_owned(),
            pick(rng, &CLASSES).to_owned(),
            Box::new(random_constraint(rng, depth - 1)),
        ),
        _ => ConstraintExpr::Exists(
            pick(rng, &VARS).to_owned(),
            pick(rng, &CLASSES).to_owned(),
            Box::new(random_constraint(rng, depth - 1)),
        ),
    }
}

fn random_path(rng: &mut StdRng, label: Option<String>) -> LabeledPath {
    let steps = (0..rng.gen_range(1..=3usize))
        .map(|_| PathStep {
            attr: pick(rng, &ATTRS).to_owned(),
            filter: match rng.gen_range(0..3u8) {
                0 => PathFilter::Any,
                1 => PathFilter::Class(pick(rng, &CLASSES).to_owned()),
                _ => PathFilter::Singleton(pick(rng, &OBJECTS).to_owned()),
            },
        })
        .collect();
    LabeledPath { label, steps }
}

fn random_query(rng: &mut StdRng, index: usize) -> QueryClassDecl {
    let is_a: Vec<String> = {
        let count = rng.gen_range(0..=3usize);
        let mut names = Vec::new();
        for _ in 0..count {
            let name = pick(rng, &CLASSES).to_owned();
            if !names.contains(&name) {
                names.push(name);
            }
        }
        names
    };
    let mut labels_in_use = Vec::new();
    let derived: Vec<LabeledPath> = (0..rng.gen_range(0..=3usize))
        .map(|_| {
            let label = if rng.gen_bool(0.7) {
                let label = pick(rng, &LABELS).to_owned();
                labels_in_use.push(label.clone());
                Some(label)
            } else {
                None
            };
            random_path(rng, label)
        })
        .collect();
    let where_eqs: Vec<(String, String)> = if labels_in_use.len() >= 2 {
        (0..rng.gen_range(0..=2usize))
            .map(|_| {
                (
                    labels_in_use[rng.gen_range(0..labels_in_use.len())].clone(),
                    labels_in_use[rng.gen_range(0..labels_in_use.len())].clone(),
                )
            })
            .collect()
    } else {
        vec![]
    };
    // At most 4 levels high, far inside `subq_dl::parser::MAX_NESTING`.
    let constraint = if rng.gen_bool(0.6) {
        Some(random_constraint(rng, 3))
    } else {
        None
    };
    QueryClassDecl {
        name: format!("Q{index}"),
        is_a,
        derived,
        where_eqs,
        constraint,
    }
}

/// The bundled medical example survives printing and re-parsing exactly —
/// full abstract-syntax equality, not just per-clause spot checks.
#[test]
fn medical_model_round_trips_exactly() {
    let model = samples::medical_model();
    let printed = render_model(&model);
    let reparsed = parse_model(&printed).expect("printed model parses");
    assert_eq!(reparsed, model);
}

/// 300 seeded random query classes round-trip exactly through the
/// printer and parser.
#[test]
fn random_query_classes_round_trip_exactly() {
    let mut rng = StdRng::seed_from_u64(0xD1_5EED);
    for case in 0..300usize {
        let query = random_query(&mut rng, case);
        let printed = render_query(&query);
        let model = parse_model(&printed).unwrap_or_else(|e| {
            panic!("case {case}: printed query fails to parse: {e}\n{printed}")
        });
        assert_eq!(
            model.queries.len(),
            1,
            "case {case}: expected one query\n{printed}"
        );
        assert_eq!(
            model.queries[0], query,
            "case {case}: round trip changed the AST\n{printed}"
        );
    }
}

/// The historically fragile corners, pinned explicitly: quantifiers as
/// operands of `not` / `and` / `or`.
#[test]
fn quantifiers_in_operand_position_round_trip() {
    let atom = || ConstraintExpr::In(Term::This, "Alpha".into());
    let forall =
        |body: ConstraintExpr| ConstraintExpr::Forall("v1".into(), "Beta".into(), Box::new(body));
    for constraint in [
        // not (forall v1/Beta (this in Alpha))
        ConstraintExpr::Not(Box::new(forall(atom()))),
        // (forall v1/Beta (this in Alpha)) and (this in Alpha) — without
        // parentheses the `and` would be swallowed by the quantifier body.
        ConstraintExpr::And(Box::new(forall(atom())), Box::new(atom())),
        ConstraintExpr::Or(Box::new(forall(atom())), Box::new(atom())),
        // Quantifier body that itself ends in a conjunction stays inside.
        forall(ConstraintExpr::And(Box::new(atom()), Box::new(atom()))),
        ConstraintExpr::Not(Box::new(ConstraintExpr::Not(Box::new(forall(atom()))))),
    ] {
        let query = QueryClassDecl {
            name: "Q0".into(),
            is_a: vec![],
            derived: vec![],
            where_eqs: vec![],
            constraint: Some(constraint),
        };
        let printed = render_query(&query);
        let model =
            parse_model(&printed).unwrap_or_else(|e| panic!("fails to parse: {e}\n{printed}"));
        assert_eq!(model.queries[0], query, "round trip changed\n{printed}");
    }
}
