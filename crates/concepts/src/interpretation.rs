//! Finite interpretations and the set semantics of SL and QL (Table 1,
//! column 3).
//!
//! An interpretation `I = (Δ, ·^I)` consists of a finite domain and an
//! extension function mapping every primitive concept to a subset of the
//! domain, every primitive attribute to a binary relation over it, and
//! every constant to an element (distinct constants to distinct elements —
//! the Unique Name Assumption). Complex concepts and paths are interpreted
//! by the equations of Table 1.
//!
//! Finite interpretations serve three purposes in this reproduction:
//! they are the reference semantics for `tests/semantics_props.rs`, they
//! cross-check the calculus by model enumeration, and the canonical
//! interpretation constructed by the calculus (Section 4.2) is exported in
//! this representation so the soundness proofs can be exercised as code.

use crate::attribute::Attr;
use crate::schema::{Schema, SchemaAxiom, SlConcept};
use crate::symbol::{AttrId, ClassId, ConstId};
use crate::term::{Concept, ConceptId, Path, PathId, TermArena};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// An element of the domain of an interpretation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Element(pub u32);

impl Element {
    /// Raw index of the element.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A finite interpretation.
#[derive(Clone, Debug, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Interpretation {
    domain_size: u32,
    class_ext: BTreeMap<ClassId, BTreeSet<Element>>,
    attr_ext: BTreeMap<AttrId, BTreeSet<(Element, Element)>>,
    const_map: HashMap<ConstId, Element>,
}

impl Interpretation {
    /// Creates an interpretation with a domain of `domain_size` elements
    /// `Element(0) … Element(domain_size - 1)` and empty extensions.
    pub fn new(domain_size: u32) -> Self {
        Interpretation {
            domain_size,
            ..Default::default()
        }
    }

    /// The number of domain elements.
    pub fn domain_size(&self) -> usize {
        self.domain_size as usize
    }

    /// Iterates over the domain.
    pub fn domain(&self) -> impl Iterator<Item = Element> + '_ {
        (0..self.domain_size).map(Element)
    }

    /// Grows the domain to contain at least `size` elements.
    pub fn ensure_domain(&mut self, size: u32) {
        self.domain_size = self.domain_size.max(size);
    }

    /// Adds a fresh element to the domain and returns it.
    pub fn add_element(&mut self) -> Element {
        let e = Element(self.domain_size);
        self.domain_size += 1;
        e
    }

    /// Asserts that `element` is an instance of the primitive class.
    pub fn add_class_member(&mut self, class: ClassId, element: Element) {
        self.ensure_domain(element.0 + 1);
        self.class_ext.entry(class).or_default().insert(element);
    }

    /// Asserts the attribute pair `(from, to)`.
    pub fn add_attr_pair(&mut self, attr: AttrId, from: Element, to: Element) {
        self.ensure_domain(from.0.max(to.0) + 1);
        self.attr_ext.entry(attr).or_default().insert((from, to));
    }

    /// Maps a constant to a domain element.
    ///
    /// The Unique Name Assumption is *not* checked here (workload
    /// generators may build candidate mappings incrementally); call
    /// [`Interpretation::respects_unique_names`] to verify it.
    pub fn set_constant(&mut self, constant: ConstId, element: Element) {
        self.ensure_domain(element.0 + 1);
        self.const_map.insert(constant, element);
    }

    /// The element denoted by a constant, if mapped.
    pub fn constant(&self, constant: ConstId) -> Option<Element> {
        self.const_map.get(&constant).copied()
    }

    /// Whether distinct constants denote distinct elements.
    pub fn respects_unique_names(&self) -> bool {
        let mut seen: HashMap<Element, ConstId> = HashMap::new();
        for (&c, &e) in &self.const_map {
            if let Some(&other) = seen.get(&e) {
                if other != c {
                    return false;
                }
            }
            seen.insert(e, c);
        }
        true
    }

    /// The extension of a primitive class.
    pub fn class_extension(&self, class: ClassId) -> impl Iterator<Item = Element> + '_ {
        self.class_ext
            .get(&class)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Whether `element ∈ A^I` for a primitive class `A`.
    pub fn is_in_class(&self, class: ClassId, element: Element) -> bool {
        self.class_ext
            .get(&class)
            .is_some_and(|s| s.contains(&element))
    }

    /// The extension of a primitive attribute.
    pub fn attr_extension(&self, attr: AttrId) -> impl Iterator<Item = (Element, Element)> + '_ {
        self.attr_ext
            .get(&attr)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Whether `(from, to) ∈ P^I`.
    pub fn has_attr_pair(&self, attr: AttrId, from: Element, to: Element) -> bool {
        self.attr_ext
            .get(&attr)
            .is_some_and(|s| s.contains(&(from, to)))
    }

    /// The fillers `{ y | (x, y) ∈ R^I }` of a possibly inverted attribute.
    pub fn fillers(&self, attr: Attr, from: Element) -> BTreeSet<Element> {
        let mut out = BTreeSet::new();
        if let Some(pairs) = self.attr_ext.get(&attr.base()) {
            for &(a, b) in pairs {
                if attr.is_inverted() {
                    if b == from {
                        out.insert(a);
                    }
                } else if a == from {
                    out.insert(b);
                }
            }
        }
        out
    }

    // ----- set semantics of QL (Table 1, column 3) -----------------------

    /// `R^I` for a possibly inverted attribute.
    pub fn eval_attr(&self, attr: Attr) -> BTreeSet<(Element, Element)> {
        let mut out = BTreeSet::new();
        if let Some(pairs) = self.attr_ext.get(&attr.base()) {
            for &(a, b) in pairs {
                if attr.is_inverted() {
                    out.insert((b, a));
                } else {
                    out.insert((a, b));
                }
            }
        }
        out
    }

    /// `(R:C)^I = { (d₁, d₂) ∈ R^I | d₂ ∈ C^I }`.
    pub fn eval_restriction(
        &self,
        arena: &TermArena,
        attr: Attr,
        concept: ConceptId,
    ) -> BTreeSet<(Element, Element)> {
        let c_ext = self.eval_concept(arena, concept);
        self.eval_attr(attr)
            .into_iter()
            .filter(|&(_, d2)| c_ext.contains(&d2))
            .collect()
    }

    /// `p^I`: composition of the restricted attributes along the path; the
    /// empty path denotes the identity relation on the domain.
    pub fn eval_path(&self, arena: &TermArena, path: PathId) -> BTreeSet<(Element, Element)> {
        match arena.path(path) {
            Path::Empty => self.domain().map(|d| (d, d)).collect(),
            Path::Step(restriction, rest) => {
                let first = self.eval_restriction(arena, restriction.attr, restriction.concept);
                let rest_rel = self.eval_path(arena, rest);
                let mut out = BTreeSet::new();
                for &(d1, d2) in &first {
                    for &(e1, e2) in &rest_rel {
                        if d2 == e1 {
                            out.insert((d1, e2));
                        }
                    }
                }
                out
            }
        }
    }

    /// `C^I` for a QL concept.
    pub fn eval_concept(&self, arena: &TermArena, concept: ConceptId) -> BTreeSet<Element> {
        match arena.concept(concept) {
            Concept::Prim(class) => self.class_extension(class).collect(),
            Concept::Top => self.domain().collect(),
            Concept::Singleton(constant) => match self.constant(constant) {
                Some(e) => std::iter::once(e).collect(),
                None => BTreeSet::new(),
            },
            Concept::And(l, r) => {
                let left = self.eval_concept(arena, l);
                let right = self.eval_concept(arena, r);
                left.intersection(&right).copied().collect()
            }
            Concept::Exists(path) => self
                .eval_path(arena, path)
                .into_iter()
                .map(|(d1, _)| d1)
                .collect(),
            Concept::Agree(p, q) => {
                let p_rel = self.eval_path(arena, p);
                let q_rel = self.eval_path(arena, q);
                self.domain()
                    .filter(|&d1| {
                        p_rel
                            .iter()
                            .any(|&(a, b)| a == d1 && q_rel.contains(&(d1, b)))
                    })
                    .collect()
            }
        }
    }

    /// Whether `element ∈ C^I`.
    pub fn satisfies_concept(
        &self,
        arena: &TermArena,
        concept: ConceptId,
        element: Element,
    ) -> bool {
        self.eval_concept(arena, concept).contains(&element)
    }

    // ----- set semantics of SL -------------------------------------------

    /// `D^I` for an SL concept.
    pub fn eval_sl_concept(&self, concept: SlConcept) -> BTreeSet<Element> {
        match concept {
            SlConcept::Prim(class) => self.class_extension(class).collect(),
            SlConcept::All(attr, class) => self
                .domain()
                .filter(|&d1| {
                    self.fillers(Attr::primitive(attr), d1)
                        .iter()
                        .all(|&d2| self.is_in_class(class, d2))
                })
                .collect(),
            SlConcept::Exists(attr) => self
                .domain()
                .filter(|&d1| !self.fillers(Attr::primitive(attr), d1).is_empty())
                .collect(),
            SlConcept::AtMostOne(attr) => self
                .domain()
                .filter(|&d1| self.fillers(Attr::primitive(attr), d1).len() <= 1)
                .collect(),
        }
    }

    /// Whether the interpretation satisfies a single schema axiom.
    pub fn satisfies_axiom(&self, axiom: &SchemaAxiom) -> bool {
        match *axiom {
            SchemaAxiom::Inclusion(class, rhs) => {
                let lhs_ext: BTreeSet<Element> = self.class_extension(class).collect();
                let rhs_ext = self.eval_sl_concept(rhs);
                lhs_ext.is_subset(&rhs_ext)
            }
            SchemaAxiom::AttrTyping(attr, dom, rng) => self
                .attr_extension(attr)
                .all(|(d1, d2)| self.is_in_class(dom, d1) && self.is_in_class(rng, d2)),
        }
    }

    /// Whether the interpretation is a Σ-interpretation (satisfies every
    /// axiom of the schema) and respects the Unique Name Assumption.
    pub fn satisfies_schema(&self, schema: &Schema) -> bool {
        self.respects_unique_names() && schema.axioms().iter().all(|ax| self.satisfies_axiom(ax))
    }

    /// Checks Σ-subsumption on this single interpretation: whether
    /// `C^I ⊆ D^I`. Used by the model-enumeration oracle.
    pub fn subsumed_here(&self, arena: &TermArena, sub: ConceptId, sup: ConceptId) -> bool {
        let sub_ext = self.eval_concept(arena, sub);
        let sup_ext = self.eval_concept(arena, sup);
        sub_ext.is_subset(&sup_ext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Vocabulary;

    struct Fixture {
        voc: Vocabulary,
        arena: TermArena,
        interp: Interpretation,
        patient: ClassId,
        doctor: ClassId,
        disease: ClassId,
        consults: AttrId,
        suffers: AttrId,
    }

    /// Three-element interpretation: e0 a patient consulting doctor e1 and
    /// suffering from disease e2; the doctor is skilled in nothing.
    fn fixture() -> Fixture {
        let mut voc = Vocabulary::new();
        let patient = voc.class("Patient");
        let doctor = voc.class("Doctor");
        let disease = voc.class("Disease");
        let consults = voc.attribute("consults");
        let suffers = voc.attribute("suffers");
        let arena = TermArena::new();
        let mut interp = Interpretation::new(3);
        interp.add_class_member(patient, Element(0));
        interp.add_class_member(doctor, Element(1));
        interp.add_class_member(disease, Element(2));
        interp.add_attr_pair(consults, Element(0), Element(1));
        interp.add_attr_pair(suffers, Element(0), Element(2));
        Fixture {
            voc,
            arena,
            interp,
            patient,
            doctor,
            disease,
            consults,
            suffers,
        }
    }

    #[test]
    fn primitive_top_and_intersection() {
        let mut f = fixture();
        let p = f.arena.prim(f.patient);
        let d = f.arena.prim(f.doctor);
        let top = f.arena.top();
        let pd = f.arena.and(p, d);
        assert_eq!(
            f.interp.eval_concept(&f.arena, p),
            BTreeSet::from([Element(0)])
        );
        assert_eq!(f.interp.eval_concept(&f.arena, top).len(), 3);
        assert!(f.interp.eval_concept(&f.arena, pd).is_empty());
    }

    #[test]
    fn exists_path_follows_restrictions() {
        let mut f = fixture();
        let doctor = f.arena.prim(f.doctor);
        let path = f.arena.path1(Attr::primitive(f.consults), doctor);
        let c = f.arena.exists(path);
        assert_eq!(
            f.interp.eval_concept(&f.arena, c),
            BTreeSet::from([Element(0)])
        );

        // Restricting the filler to Disease kills the path.
        let disease = f.arena.prim(f.disease);
        let bad_path = f.arena.path1(Attr::primitive(f.consults), disease);
        let bad = f.arena.exists(bad_path);
        assert!(f.interp.eval_concept(&f.arena, bad).is_empty());
    }

    #[test]
    fn inverse_attribute_reverses_pairs() {
        let mut f = fixture();
        let patient = f.arena.prim(f.patient);
        let path = f.arena.path1(Attr::inverse_of(f.consults), patient);
        let c = f.arena.exists(path);
        // The doctor (e1) has a consults⁻¹ filler that is a patient.
        assert_eq!(
            f.interp.eval_concept(&f.arena, c),
            BTreeSet::from([Element(1)])
        );
    }

    #[test]
    fn empty_path_is_identity_and_agree_epsilon_is_cycle() {
        let mut f = fixture();
        let eps = f.arena.empty_path();
        let rel = f.interp.eval_path(&f.arena, eps);
        assert_eq!(rel.len(), 3);
        assert!(rel.contains(&(Element(1), Element(1))));

        // ∃(consults:⊤)(consults⁻¹:⊤) ≐ ε holds at e0 (go to the doctor and back).
        let top = f.arena.top();
        let fwd = Attr::primitive(f.consults);
        let path = f.arena.path_of(&[(fwd, top), (fwd.inverse(), top)]);
        let agree = f.arena.agree_epsilon(path);
        assert_eq!(
            f.interp.eval_concept(&f.arena, agree),
            BTreeSet::from([Element(0)])
        );
    }

    #[test]
    fn agreement_of_two_paths_requires_common_filler() {
        let mut f = fixture();
        let top = f.arena.top();
        let p = f.arena.path1(Attr::primitive(f.consults), top);
        let q = f.arena.path1(Attr::primitive(f.suffers), top);
        let agree = f.arena.agree(p, q);
        // e0 consults e1 but suffers e2, so no common filler.
        assert!(f.interp.eval_concept(&f.arena, agree).is_empty());

        // Add a suffers edge to e1: now the paths agree at e0.
        f.interp.add_attr_pair(f.suffers, Element(0), Element(1));
        assert_eq!(
            f.interp.eval_concept(&f.arena, agree),
            BTreeSet::from([Element(0)])
        );
    }

    #[test]
    fn singleton_uses_constant_mapping() {
        let mut f = fixture();
        let aspirin = f.voc.constant("Aspirin");
        let sing = f.arena.singleton(aspirin);
        assert!(f.interp.eval_concept(&f.arena, sing).is_empty());
        f.interp.set_constant(aspirin, Element(2));
        assert_eq!(
            f.interp.eval_concept(&f.arena, sing),
            BTreeSet::from([Element(2)])
        );
    }

    #[test]
    fn unique_name_assumption_detection() {
        let mut f = fixture();
        let a = f.voc.constant("a");
        let b = f.voc.constant("b");
        f.interp.set_constant(a, Element(0));
        f.interp.set_constant(b, Element(0));
        assert!(!f.interp.respects_unique_names());
        f.interp.set_constant(b, Element(1));
        assert!(f.interp.respects_unique_names());
    }

    #[test]
    fn sl_semantics_and_axiom_satisfaction() {
        let f = fixture();
        // ∀consults.Doctor holds everywhere (only e0 has a filler, a doctor).
        let all = SlConcept::All(f.consults, f.doctor);
        assert_eq!(f.interp.eval_sl_concept(all).len(), 3);
        // ∃consults holds only at e0.
        let ex = SlConcept::Exists(f.consults);
        assert_eq!(f.interp.eval_sl_concept(ex), BTreeSet::from([Element(0)]));
        // (≤1 consults) holds everywhere.
        let f1 = SlConcept::AtMostOne(f.consults);
        assert_eq!(f.interp.eval_sl_concept(f1).len(), 3);

        let mut schema = Schema::new();
        schema.add_value_restriction(f.patient, f.consults, f.doctor);
        schema.add_necessary(f.patient, f.suffers);
        schema.add_attr_typing(f.suffers, f.patient, f.disease);
        assert!(f.interp.satisfies_schema(&schema));

        // Declaring consults as necessary for Doctor breaks the state.
        schema.add_necessary(f.doctor, f.consults);
        assert!(!f.interp.satisfies_schema(&schema));
    }

    #[test]
    fn attr_typing_axiom_checks_both_ends() {
        let f = fixture();
        let ok = SchemaAxiom::AttrTyping(f.consults, f.patient, f.doctor);
        assert!(f.interp.satisfies_axiom(&ok));
        let bad = SchemaAxiom::AttrTyping(f.consults, f.doctor, f.doctor);
        assert!(!f.interp.satisfies_axiom(&bad));
    }

    #[test]
    fn subsumed_here_compares_extensions() {
        let mut f = fixture();
        let p = f.arena.prim(f.patient);
        let top = f.arena.top();
        assert!(f.interp.subsumed_here(&f.arena, p, top));
        assert!(!f.interp.subsumed_here(&f.arena, top, p));
    }
}
