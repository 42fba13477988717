//! The role-free (propositional) fragment of the extended language, a
//! complete decision procedure by valuation enumeration, and the hard
//! instance families used by experiment E6.
//!
//! Proposition 4.12 of the paper: adding disjunction to either language
//! gives, together with conjunction, "the power of propositional logic",
//! making subsumption co-NP-hard. The procedure below is the canonical
//! complete method for that fragment — enumerate all `2^k` valuations of
//! the `k` primitive concepts — so its cost is exactly the lower-bound
//! intuition of the paper made executable.

use crate::concept::ExtConcept;
use std::collections::BTreeSet;
use subq_concepts::symbol::{ClassId, Vocabulary};

/// Result of a propositional subsumption check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PropOutcome {
    /// Whether the subsumption holds.
    pub subsumed: bool,
    /// Number of valuations enumerated (`2^k` unless a counterexample was
    /// found earlier).
    pub valuations: u64,
}

/// Collects the primitive concepts of a role-free concept; `None` if the
/// concept mentions a quantifier (not propositional).
pub fn propositional_classes(concept: &ExtConcept) -> Option<BTreeSet<ClassId>> {
    let mut out = BTreeSet::new();
    if collect(concept, &mut out) {
        Some(out)
    } else {
        None
    }
}

fn collect(concept: &ExtConcept, out: &mut BTreeSet<ClassId>) -> bool {
    match concept {
        ExtConcept::Top | ExtConcept::Bottom => true,
        ExtConcept::Prim(c) => {
            out.insert(*c);
            true
        }
        ExtConcept::Not(inner) => collect(inner, out),
        ExtConcept::And(parts) | ExtConcept::Or(parts) => parts.iter().all(|p| collect(p, out)),
        ExtConcept::Exists(..) | ExtConcept::All(..) => false,
    }
}

fn eval(concept: &ExtConcept, truth: &dyn Fn(ClassId) -> bool) -> bool {
    match concept {
        ExtConcept::Top => true,
        ExtConcept::Bottom => false,
        ExtConcept::Prim(c) => truth(*c),
        ExtConcept::Not(inner) => !eval(inner, truth),
        ExtConcept::And(parts) => parts.iter().all(|p| eval(p, truth)),
        ExtConcept::Or(parts) => parts.iter().any(|p| eval(p, truth)),
        ExtConcept::Exists(..) | ExtConcept::All(..) => {
            unreachable!("propositional evaluation of a quantified concept")
        }
    }
}

/// Decides `sub ⊑ sup` for role-free concepts by enumerating all valuations
/// of their primitive concepts. Returns `None` when either concept
/// contains a quantifier.
pub fn prop_subsumes(sub: &ExtConcept, sup: &ExtConcept) -> Option<PropOutcome> {
    let mut classes = propositional_classes(sub)?;
    classes.extend(propositional_classes(sup)?);
    let classes: Vec<ClassId> = classes.into_iter().collect();
    assert!(
        classes.len() < 63,
        "valuation enumeration only supports up to 62 primitive concepts"
    );
    let total = 1u64 << classes.len();
    let mut checked = 0u64;
    for bits in 0..total {
        checked += 1;
        let truth = |class: ClassId| {
            classes
                .iter()
                .position(|c| *c == class)
                .is_some_and(|i| bits & (1 << i) != 0)
        };
        if eval(sub, &truth) && !eval(sup, &truth) {
            return Some(PropOutcome {
                subsumed: false,
                valuations: checked,
            });
        }
    }
    Some(PropOutcome {
        subsumed: true,
        valuations: checked,
    })
}

/// The family `⊓_{i<n} (A_i ⊔ B_i)` of independent binary choices; any
/// complete method based on case analysis inspects exponentially many
/// cases on it.
pub fn independent_choices(voc: &mut Vocabulary, n: usize) -> ExtConcept {
    let parts = (0..n)
        .map(|i| {
            ExtConcept::Or(vec![
                ExtConcept::Prim(voc.class(&format!("A{i}"))),
                ExtConcept::Prim(voc.class(&format!("B{i}"))),
            ])
        })
        .collect();
    ExtConcept::And(parts)
}

/// The conjunction `⊓_{i<n} (¬A_i ⊔ ¬B_i)`: together with
/// [`independent_choices`] it forces every case analysis to pick exactly
/// one of `A_i`, `B_i` per position.
pub fn exclusive_choices(voc: &mut Vocabulary, n: usize) -> ExtConcept {
    let parts = (0..n)
        .map(|i| {
            ExtConcept::Or(vec![
                ExtConcept::Not(Box::new(ExtConcept::Prim(voc.class(&format!("A{i}"))))),
                ExtConcept::Not(Box::new(ExtConcept::Prim(voc.class(&format!("B{i}"))))),
            ])
        })
        .collect();
    ExtConcept::And(parts)
}

/// The pigeonhole concept `PHP(n)`: `n+1` pigeons cannot sit in `n` holes.
/// The concept is unsatisfiable, and refutation-based procedures need
/// exponential effort on it.
pub fn pigeonhole(voc: &mut Vocabulary, holes: usize) -> ExtConcept {
    let var = |voc: &mut Vocabulary, pigeon: usize, hole: usize| {
        ExtConcept::Prim(voc.class(&format!("P_{pigeon}_{hole}")))
    };
    let mut conjuncts = Vec::new();
    // Every pigeon sits somewhere.
    for pigeon in 0..=holes {
        conjuncts.push(ExtConcept::Or(
            (0..holes).map(|h| var(voc, pigeon, h)).collect(),
        ));
    }
    // No two pigeons share a hole.
    for hole in 0..holes {
        for p1 in 0..=holes {
            for p2 in (p1 + 1)..=holes {
                conjuncts.push(ExtConcept::Or(vec![
                    ExtConcept::Not(Box::new(var(voc, p1, hole))),
                    ExtConcept::Not(Box::new(var(voc, p2, hole))),
                ]));
            }
        }
    }
    ExtConcept::And(conjuncts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tableau::is_satisfiable;

    #[test]
    fn basic_propositional_laws() {
        let mut voc = Vocabulary::new();
        let a = ExtConcept::Prim(voc.class("A"));
        let b = ExtConcept::Prim(voc.class("B"));
        let ab = ExtConcept::And(vec![a.clone(), b.clone()]);
        let a_or_b = ExtConcept::Or(vec![a.clone(), b.clone()]);
        assert!(prop_subsumes(&ab, &a).expect("propositional").subsumed);
        assert!(prop_subsumes(&a, &a_or_b).expect("propositional").subsumed);
        assert!(!prop_subsumes(&a_or_b, &a).expect("propositional").subsumed);
        assert!(!prop_subsumes(&a, &ab).expect("propositional").subsumed);
    }

    #[test]
    fn quantified_concepts_are_rejected() {
        let mut voc = Vocabulary::new();
        let a = ExtConcept::Prim(voc.class("A"));
        let r = subq_concepts::attribute::Attr::primitive(voc.attribute("r"));
        let quantified = ExtConcept::Exists(r, Box::new(a.clone()));
        assert!(prop_subsumes(&quantified, &a).is_none());
        assert!(propositional_classes(&quantified).is_none());
    }

    #[test]
    fn valuation_count_doubles_per_extra_choice() {
        let mut voc = Vocabulary::new();
        let c4 = independent_choices(&mut voc, 2);
        let c8 = independent_choices(&mut voc, 4);
        let bottom = ExtConcept::Bottom;
        let o4 = prop_subsumes(&c4, &bottom).expect("propositional");
        let o8 = prop_subsumes(&c8, &bottom).expect("propositional");
        assert!(!o4.subsumed && !o8.subsumed);
        // Finding the counterexample still requires walking past the
        // all-false valuations; the full check (subsumed case) is 2^k.
        let o_full = prop_subsumes(&c4, &c4).expect("propositional");
        assert!(o_full.subsumed);
        assert_eq!(o_full.valuations, 1 << 4);
        let o_full8 = prop_subsumes(&c8, &c8).expect("propositional");
        assert_eq!(o_full8.valuations, 1 << 8);
        let c12 = independent_choices(&mut voc, 6);
        let o_full12 = prop_subsumes(&c12, &c12).expect("propositional");
        assert!(o_full12.subsumed);
        assert_eq!(o_full12.valuations, 1 << 12);
    }

    #[test]
    fn pigeonhole_is_unsatisfiable() {
        let mut voc = Vocabulary::new();
        let php2 = pigeonhole(&mut voc, 2);
        assert!(!is_satisfiable(&php2));
        let out = prop_subsumes(&php2, &ExtConcept::Bottom).expect("propositional");
        assert!(out.subsumed, "an unsatisfiable concept is subsumed by ⊥");
        assert!(!is_satisfiable(&pigeonhole(&mut voc, 3)));
    }

    #[test]
    fn choices_plus_exclusions_remain_satisfiable() {
        let mut voc = Vocabulary::new();
        let choices = independent_choices(&mut voc, 3);
        let exclusions = exclusive_choices(&mut voc, 3);
        let both = ExtConcept::And(vec![choices, exclusions]);
        assert!(is_satisfiable(&both));
        let out = prop_subsumes(&both, &ExtConcept::Bottom).expect("propositional");
        assert!(!out.subsumed);
    }
}
