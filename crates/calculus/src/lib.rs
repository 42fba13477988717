//! The polynomial subsumption calculus of Buchheit, Jeusfeld, Nutt and
//! Staudt (EDBT'94), Section 4.
//!
//! Given an SL schema Σ and two QL concepts `C` (the query) and `D` (the
//! view), the calculus decides whether `C ⊑_Σ D`, i.e. whether in every
//! Σ-interpretation the extension of `C` is contained in the extension of
//! `D`. It works on a pair `F : G` of constraint systems — the *facts*
//! describing a prototypical instance of `C` and the *goals* guiding the
//! evaluation of `D` over those facts — and saturates them with four groups
//! of deterministic rules:
//!
//! * decomposition rules **D1–D7** break the query concept into primitive
//!   constraints (Figure 7),
//! * schema rules **S1–S5** add consequences of Σ (Figure 8),
//! * goal rules **G1–G3** derive subgoals of the view concept (Figure 9),
//! * composition rules **C1–C6** rebuild complex facts bottom-up as
//!   directed by the goals (Figure 10).
//!
//! Decomposition rules have priority over schema rules; rule S5 creates new
//! individuals only when a goal asks for them. The completion is unique up
//! to renaming of variables, has at most `M · N` individuals
//! (Proposition 4.8), and `C ⊑_Σ D` holds iff the completed facts contain
//! the constraint `o : D` or a clash (Theorem 4.7).
//!
//! ```
//! use subq_concepts::prelude::*;
//! use subq_calculus::SubsumptionChecker;
//!
//! let mut voc = Vocabulary::new();
//! let mut arena = TermArena::new();
//! let patient = voc.class("Patient");
//! let person = voc.class("Person");
//! let mut schema = Schema::new();
//! schema.add_isa(patient, person);
//!
//! let c = arena.prim(patient);
//! let d = arena.prim(person);
//! let checker = SubsumptionChecker::new(&schema);
//! assert!(checker.subsumes(&mut arena, c, d));
//! assert!(!checker.subsumes(&mut arena, d, c));
//! ```

pub mod canonical;
pub mod checker;
pub mod constraint;
pub mod engine;
pub mod ind;
pub mod metrics;
pub mod reference;
pub mod rules;
pub mod trace;

pub use checker::{
    SharedSubsumptionMemo, SubsumptionCache, SubsumptionChecker, SubsumptionOutcome,
    SubsumptionVerdict,
};
pub use constraint::{Constraint, ConstraintSet};
pub use engine::{Completion, CompletionStats, SaturatedFacts};
pub use ind::Ind;
pub use rules::RuleId;
pub use trace::{DerivationTrace, TraceStep};
