//! The transformational (first-order) semantics of SL and QL
//! (Table 1, column 2).
//!
//! Every QL concept `C` is mapped to a first-order formula `F_C(α)` with
//! one free variable, every attribute and path to a formula with two free
//! variables, and every schema axiom to a closed formula, exactly as in
//! Table 1 and Figure 2 of the paper. The formulas can be evaluated over a
//! finite [`Interpretation`], which lets property tests verify that the two
//! columns of Table 1 agree (`tests/semantics_props.rs`).

use crate::attribute::Attr;
use crate::interpretation::{Element, Interpretation};
use crate::schema::{SchemaAxiom, SlConcept};
use crate::symbol::{AttrId, ClassId, ConstId, Vocabulary};
use crate::term::{Concept, ConceptId, Path, PathId, TermArena};
use std::collections::HashMap;
use std::fmt::Write as _;

/// A first-order variable.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub u32);

/// A first-order term: a variable or a constant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A variable.
    Var(Var),
    /// A constant of the vocabulary.
    Const(ConstId),
}

/// A first-order formula over unary (class) and binary (attribute) atoms.
#[derive(Clone, Debug, PartialEq)]
pub enum Formula {
    /// The true formula.
    True,
    /// `A(t)` — membership of `t` in the primitive class `A`.
    ClassAtom(ClassId, Term),
    /// `P(s, t)` — the attribute atom.
    AttrAtom(AttrId, Term, Term),
    /// `s ≐ t` — equality.
    Eq(Term, Term),
    /// Negation.
    Not(Box<Formula>),
    /// Finite conjunction.
    And(Vec<Formula>),
    /// Finite disjunction.
    Or(Vec<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Existential quantification.
    Exists(Var, Box<Formula>),
    /// Universal quantification.
    Forall(Var, Box<Formula>),
}

impl Formula {
    /// Conjunction that flattens trivial cases.
    pub fn and(conjuncts: Vec<Formula>) -> Formula {
        let filtered: Vec<Formula> = conjuncts
            .into_iter()
            .filter(|f| !matches!(f, Formula::True))
            .collect();
        match filtered.len() {
            0 => Formula::True,
            1 => filtered.into_iter().next().expect("len checked"),
            _ => Formula::And(filtered),
        }
    }

    /// Number of connectives and atoms in the formula.
    pub fn size(&self) -> usize {
        match self {
            Formula::True | Formula::ClassAtom(..) | Formula::AttrAtom(..) | Formula::Eq(..) => 1,
            Formula::Not(f) => 1 + f.size(),
            Formula::And(fs) | Formula::Or(fs) => 1 + fs.iter().map(Formula::size).sum::<usize>(),
            Formula::Implies(a, b) => 1 + a.size() + b.size(),
            Formula::Exists(_, f) | Formula::Forall(_, f) => 1 + f.size(),
        }
    }

    /// Renders the formula with vocabulary names, in a notation close to
    /// the paper's Figures 2 and 4.
    pub fn render(&self, voc: &Vocabulary) -> String {
        let mut out = String::new();
        self.render_into(voc, &mut out);
        out
    }

    fn render_term(term: Term, out: &mut String, voc: &Vocabulary) {
        match term {
            Term::Var(Var(i)) => {
                let _ = write!(out, "x{i}");
            }
            Term::Const(c) => out.push_str(voc.const_name(c)),
        }
    }

    fn render_into(&self, voc: &Vocabulary, out: &mut String) {
        match self {
            Formula::True => out.push_str("true"),
            Formula::ClassAtom(class, t) => {
                out.push_str(voc.class_name(*class));
                out.push('(');
                Self::render_term(*t, out, voc);
                out.push(')');
            }
            Formula::AttrAtom(attr, s, t) => {
                out.push_str(voc.attr_name(*attr));
                out.push('(');
                Self::render_term(*s, out, voc);
                out.push_str(", ");
                Self::render_term(*t, out, voc);
                out.push(')');
            }
            Formula::Eq(s, t) => {
                Self::render_term(*s, out, voc);
                out.push_str(" ≐ ");
                Self::render_term(*t, out, voc);
            }
            Formula::Not(f) => {
                out.push('¬');
                out.push('(');
                f.render_into(voc, out);
                out.push(')');
            }
            Formula::And(fs) => {
                out.push('(');
                for (i, f) in fs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" ∧ ");
                    }
                    f.render_into(voc, out);
                }
                out.push(')');
            }
            Formula::Or(fs) => {
                out.push('(');
                for (i, f) in fs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" ∨ ");
                    }
                    f.render_into(voc, out);
                }
                out.push(')');
            }
            Formula::Implies(a, b) => {
                out.push('(');
                a.render_into(voc, out);
                out.push_str(" ⇒ ");
                b.render_into(voc, out);
                out.push(')');
            }
            Formula::Exists(Var(i), f) => {
                let _ = write!(out, "∃x{i}. ");
                f.render_into(voc, out);
            }
            Formula::Forall(Var(i), f) => {
                let _ = write!(out, "∀x{i}. ");
                f.render_into(voc, out);
            }
        }
    }
}

/// Generator of fresh first-order variables.
#[derive(Debug, Default)]
pub struct VarGen {
    next: u32,
}

impl VarGen {
    /// Creates a generator whose first variable is `x0`.
    pub fn new() -> Self {
        VarGen::default()
    }

    /// Returns a fresh variable.
    pub fn fresh(&mut self) -> Var {
        let v = Var(self.next);
        self.next += 1;
        v
    }
}

/// Translates a QL concept into a formula with free variable `free`
/// (Table 1, column 2).
pub fn concept_to_formula(
    arena: &TermArena,
    concept: ConceptId,
    free: Var,
    gen: &mut VarGen,
) -> Formula {
    match arena.concept(concept) {
        Concept::Prim(class) => Formula::ClassAtom(class, Term::Var(free)),
        Concept::Top => Formula::True,
        Concept::Singleton(constant) => Formula::Eq(Term::Var(free), Term::Const(constant)),
        Concept::And(l, r) => Formula::and(vec![
            concept_to_formula(arena, l, free, gen),
            concept_to_formula(arena, r, free, gen),
        ]),
        Concept::Exists(path) => {
            let end = gen.fresh();
            let body = path_to_formula(arena, path, Term::Var(free), Term::Var(end), gen);
            Formula::Exists(end, Box::new(body))
        }
        Concept::Agree(p, q) => {
            let end = gen.fresh();
            let left = path_to_formula(arena, p, Term::Var(free), Term::Var(end), gen);
            let right = path_to_formula(arena, q, Term::Var(free), Term::Var(end), gen);
            Formula::Exists(end, Box::new(Formula::and(vec![left, right])))
        }
    }
}

/// Translates a possibly inverted attribute into the formula `R(s, t)`.
pub fn attr_to_formula(attr: Attr, s: Term, t: Term) -> Formula {
    if attr.is_inverted() {
        Formula::AttrAtom(attr.base(), t, s)
    } else {
        Formula::AttrAtom(attr.base(), s, t)
    }
}

/// Translates a path into a formula relating `from` and `to`
/// (`F_p(α, β)` of Table 1).
pub fn path_to_formula(
    arena: &TermArena,
    path: PathId,
    from: Term,
    to: Term,
    gen: &mut VarGen,
) -> Formula {
    match arena.path(path) {
        Path::Empty => Formula::Eq(from, to),
        Path::Step(restriction, rest) => {
            if arena.is_empty_path(rest) {
                // Last step: relate `from` directly to `to`.
                let attr_f = attr_to_formula(restriction.attr, from, to);
                let to_var = match to {
                    Term::Var(v) => v,
                    Term::Const(_) => {
                        // Constants as endpoints only arise in hand-written
                        // formulas; introduce an intermediate variable.
                        let v = gen.fresh();
                        let c_f = concept_to_formula(arena, restriction.concept, v, gen);
                        let eq = Formula::Eq(Term::Var(v), to);
                        return Formula::and(vec![
                            attr_to_formula(restriction.attr, from, Term::Var(v)),
                            c_f,
                            eq,
                        ]);
                    }
                };
                let c_f = concept_to_formula(arena, restriction.concept, to_var, gen);
                Formula::and(vec![attr_f, c_f])
            } else {
                let mid = gen.fresh();
                let attr_f = attr_to_formula(restriction.attr, from, Term::Var(mid));
                let c_f = concept_to_formula(arena, restriction.concept, mid, gen);
                let rest_f = path_to_formula(arena, rest, Term::Var(mid), to, gen);
                Formula::Exists(mid, Box::new(Formula::and(vec![attr_f, c_f, rest_f])))
            }
        }
    }
}

/// Translates an SL concept into a formula with free variable `free`.
pub fn sl_concept_to_formula(concept: SlConcept, free: Var, gen: &mut VarGen) -> Formula {
    match concept {
        SlConcept::Prim(class) => Formula::ClassAtom(class, Term::Var(free)),
        SlConcept::All(attr, class) => {
            let y = gen.fresh();
            Formula::Forall(
                y,
                Box::new(Formula::Implies(
                    Box::new(Formula::AttrAtom(attr, Term::Var(free), Term::Var(y))),
                    Box::new(Formula::ClassAtom(class, Term::Var(y))),
                )),
            )
        }
        SlConcept::Exists(attr) => {
            let y = gen.fresh();
            Formula::Exists(
                y,
                Box::new(Formula::AttrAtom(attr, Term::Var(free), Term::Var(y))),
            )
        }
        SlConcept::AtMostOne(attr) => {
            let y = gen.fresh();
            let z = gen.fresh();
            Formula::Forall(
                y,
                Box::new(Formula::Forall(
                    z,
                    Box::new(Formula::Implies(
                        Box::new(Formula::And(vec![
                            Formula::AttrAtom(attr, Term::Var(free), Term::Var(y)),
                            Formula::AttrAtom(attr, Term::Var(free), Term::Var(z)),
                        ])),
                        Box::new(Formula::Eq(Term::Var(y), Term::Var(z))),
                    )),
                )),
            )
        }
    }
}

/// Translates a schema axiom into a closed formula (Figure 2 style).
pub fn axiom_to_formula(axiom: &SchemaAxiom, gen: &mut VarGen) -> Formula {
    match *axiom {
        SchemaAxiom::Inclusion(class, rhs) => {
            let x = gen.fresh();
            let body = Formula::Implies(
                Box::new(Formula::ClassAtom(class, Term::Var(x))),
                Box::new(sl_concept_to_formula(rhs, x, gen)),
            );
            Formula::Forall(x, Box::new(body))
        }
        SchemaAxiom::AttrTyping(attr, dom, rng) => {
            let x = gen.fresh();
            let y = gen.fresh();
            let body = Formula::Implies(
                Box::new(Formula::AttrAtom(attr, Term::Var(x), Term::Var(y))),
                Box::new(Formula::And(vec![
                    Formula::ClassAtom(dom, Term::Var(x)),
                    Formula::ClassAtom(rng, Term::Var(y)),
                ])),
            );
            Formula::Forall(x, Box::new(Formula::Forall(y, Box::new(body))))
        }
    }
}

/// A variable assignment used during formula evaluation.
pub type Assignment = HashMap<Var, Element>;

/// Evaluates a formula over a finite interpretation under an assignment of
/// its free variables. Quantifiers range over the whole domain.
///
/// Equalities and atoms mentioning a constant that the interpretation does
/// not map evaluate to `false`, matching the set semantics where an
/// unmapped singleton denotes the empty set.
pub fn eval_formula(
    interp: &Interpretation,
    formula: &Formula,
    assignment: &mut Assignment,
) -> bool {
    fn term_value(interp: &Interpretation, term: Term, assignment: &Assignment) -> Option<Element> {
        match term {
            Term::Var(v) => assignment.get(&v).copied(),
            Term::Const(c) => interp.constant(c),
        }
    }

    match formula {
        Formula::True => true,
        Formula::ClassAtom(class, t) => {
            term_value(interp, *t, assignment).is_some_and(|e| interp.is_in_class(*class, e))
        }
        Formula::AttrAtom(attr, s, t) => {
            match (
                term_value(interp, *s, assignment),
                term_value(interp, *t, assignment),
            ) {
                (Some(a), Some(b)) => interp.has_attr_pair(*attr, a, b),
                _ => false,
            }
        }
        Formula::Eq(s, t) => {
            match (
                term_value(interp, *s, assignment),
                term_value(interp, *t, assignment),
            ) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            }
        }
        Formula::Not(f) => !eval_formula(interp, f, assignment),
        Formula::And(fs) => fs.iter().all(|f| eval_formula(interp, f, assignment)),
        Formula::Or(fs) => fs.iter().any(|f| eval_formula(interp, f, assignment)),
        Formula::Implies(a, b) => {
            !eval_formula(interp, a, assignment) || eval_formula(interp, b, assignment)
        }
        Formula::Exists(v, f) => {
            let saved = assignment.get(v).copied();
            let mut holds = false;
            for e in interp.domain() {
                assignment.insert(*v, e);
                if eval_formula(interp, f, assignment) {
                    holds = true;
                    break;
                }
            }
            restore(assignment, *v, saved);
            holds
        }
        Formula::Forall(v, f) => {
            let saved = assignment.get(v).copied();
            let mut holds = true;
            for e in interp.domain() {
                assignment.insert(*v, e);
                if !eval_formula(interp, f, assignment) {
                    holds = false;
                    break;
                }
            }
            restore(assignment, *v, saved);
            holds
        }
    }
}

fn restore(assignment: &mut Assignment, var: Var, saved: Option<Element>) {
    match saved {
        Some(e) => {
            assignment.insert(var, e);
        }
        None => {
            assignment.remove(&var);
        }
    }
}

/// Evaluates `F_C(x)` at a specific domain element: the transformational
/// counterpart of [`Interpretation::satisfies_concept`].
pub fn concept_holds_at(
    arena: &TermArena,
    interp: &Interpretation,
    concept: ConceptId,
    element: Element,
) -> bool {
    let mut gen = VarGen::new();
    let free = gen.fresh();
    let formula = concept_to_formula(arena, concept, free, &mut gen);
    let mut assignment = Assignment::new();
    assignment.insert(free, element);
    eval_formula(interp, &formula, &mut assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Vocabulary;

    fn medical() -> (Vocabulary, TermArena, Interpretation) {
        let mut voc = Vocabulary::new();
        let patient = voc.class("Patient");
        let doctor = voc.class("Doctor");
        let consults = voc.attribute("consults");
        let arena = TermArena::new();
        let mut interp = Interpretation::new(2);
        interp.add_class_member(patient, Element(0));
        interp.add_class_member(doctor, Element(1));
        interp.add_attr_pair(consults, Element(0), Element(1));
        (voc, arena, interp)
    }

    #[test]
    fn class_atom_evaluation() {
        let (mut voc, mut arena, interp) = medical();
        let patient = voc.class("Patient");
        let c = arena.prim(patient);
        assert!(concept_holds_at(&arena, &interp, c, Element(0)));
        assert!(!concept_holds_at(&arena, &interp, c, Element(1)));
    }

    #[test]
    fn exists_path_formula_matches_set_semantics() {
        let (mut voc, mut arena, interp) = medical();
        let doctor = voc.class("Doctor");
        let consults = voc.attribute("consults");
        let d = arena.prim(doctor);
        let path = arena.path1(Attr::primitive(consults), d);
        let c = arena.exists(path);
        for e in interp.domain() {
            assert_eq!(
                concept_holds_at(&arena, &interp, c, e),
                interp.satisfies_concept(&arena, c, e),
                "transformational and set semantics must agree at {e:?}"
            );
        }
    }

    #[test]
    fn agreement_formula_requires_common_filler() {
        let (mut voc, mut arena, mut interp) = medical();
        let consults = voc.attribute("consults");
        let treats = voc.attribute("treats");
        let top = arena.top();
        let p = arena.path1(Attr::primitive(consults), top);
        let q = arena.path1(Attr::primitive(treats), top);
        let agree = arena.agree(p, q);
        assert!(!concept_holds_at(&arena, &interp, agree, Element(0)));
        interp.add_attr_pair(treats, Element(0), Element(1));
        assert!(concept_holds_at(&arena, &interp, agree, Element(0)));
    }

    #[test]
    fn sl_formulas_match_sl_set_semantics() {
        let (mut voc, _arena, interp) = medical();
        let doctor = voc.class("Doctor");
        let consults = voc.attribute("consults");
        for sl in [
            SlConcept::Prim(doctor),
            SlConcept::All(consults, doctor),
            SlConcept::Exists(consults),
            SlConcept::AtMostOne(consults),
        ] {
            let mut gen = VarGen::new();
            let x = gen.fresh();
            let formula = sl_concept_to_formula(sl, x, &mut gen);
            for e in interp.domain() {
                let mut assignment = Assignment::new();
                assignment.insert(x, e);
                assert_eq!(
                    eval_formula(&interp, &formula, &mut assignment),
                    interp.eval_sl_concept(sl).contains(&e),
                    "SL semantics disagree on {sl:?} at {e:?}"
                );
            }
        }
    }

    #[test]
    fn axiom_formulas_match_axiom_satisfaction() {
        let (mut voc, _arena, interp) = medical();
        let patient = voc.class("Patient");
        let doctor = voc.class("Doctor");
        let consults = voc.attribute("consults");
        let axioms = [
            SchemaAxiom::Inclusion(patient, SlConcept::All(consults, doctor)),
            SchemaAxiom::Inclusion(doctor, SlConcept::Exists(consults)),
            SchemaAxiom::AttrTyping(consults, patient, doctor),
            SchemaAxiom::AttrTyping(consults, doctor, doctor),
        ];
        for axiom in &axioms {
            let mut gen = VarGen::new();
            let formula = axiom_to_formula(axiom, &mut gen);
            let mut assignment = Assignment::new();
            assert_eq!(
                eval_formula(&interp, &formula, &mut assignment),
                interp.satisfies_axiom(axiom),
                "axiom semantics disagree on {axiom:?}"
            );
        }
    }

    #[test]
    fn rendering_uses_vocabulary_names() {
        let (voc, mut arena, _interp) = medical();
        let patient = voc.find_class("Patient").expect("interned");
        let consults = voc.find_attribute("consults").expect("interned");
        let doctor = voc.find_class("Doctor").expect("interned");
        let d = arena.prim(doctor);
        let path = arena.path1(Attr::primitive(consults), d);
        let p = arena.prim(patient);
        let ex = arena.exists(path);
        let c = arena.and(p, ex);
        let mut gen = VarGen::new();
        let x = gen.fresh();
        let f = concept_to_formula(&arena, c, x, &mut gen);
        let rendered = f.render(&voc);
        assert!(rendered.contains("Patient(x0)"));
        assert!(rendered.contains("consults(x0, x1)"));
        assert!(rendered.contains("Doctor(x1)"));
        assert!(rendered.contains('∧'));
        assert!(rendered.contains("∃x1"));
    }

    #[test]
    fn formula_size_counts_connectives() {
        let f = Formula::And(vec![Formula::True, Formula::Not(Box::new(Formula::True))]);
        assert_eq!(f.size(), 4);
        assert_eq!(Formula::and(vec![]).size(), 1);
    }

    #[test]
    fn unmapped_constant_atoms_are_false() {
        let (mut voc, mut arena, interp) = medical();
        let aspirin = voc.constant("Aspirin");
        let sing = arena.singleton(aspirin);
        assert!(!concept_holds_at(&arena, &interp, sing, Element(0)));
    }
}
