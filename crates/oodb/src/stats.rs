//! The planner's cost model over the store's own counters.
//!
//! The store maintains exact O(1) cardinalities: extent lengths
//! ([`Database::class_cardinality`]) and per-attribute pair/source/target
//! counts ([`Database::attr_cardinality`]). [`CostModel`] reads them
//! straight from the [`Database`] it is given — the writer's live state or
//! the snapshot a [`Reader`] pinned — so its estimates always describe the
//! state the query is evaluated against, and there is no second copy to
//! keep fresh.
//!
//! The cost of filtering a candidate set is `|candidates| ×
//! membership_cost(query)`, where the per-candidate membership cost
//! follows the evaluator's actual work — every derived path of the query
//! fans out by the average out-fanout (or in-fanout, for inverse
//! synonyms) of its attributes, and a constraint clause re-walks its
//! paths per binding. The optimizer uses it to pick the cheapest
//! subsuming view of a plan frontier and the cheapest intersection order
//! for candidate narrowing (see [`OptimizedDatabase::execute`]).

use crate::objset::ObjSet;
use crate::store::Database;
use subq_dl::{ConstraintExpr, LabeledPath, QueryClassDecl};

#[cfg(doc)]
use crate::{optimizer::OptimizedDatabase, snapshot::Reader};

/// Plan-cost estimation over one database state's cardinalities.
///
/// Costs are in abstract "index probes"; only *ratios* matter — the
/// optimizer compares alternatives, it never interprets the absolute
/// number.
pub struct CostModel<'a> {
    /// Cardinalities are read from, and synonym directions resolved
    /// through, this state — so inverse synonyms charge the in-fanout of
    /// their primitive.
    db: &'a Database,
}

impl<'a> CostModel<'a> {
    /// A cost model over `db`'s cardinalities and schema.
    pub fn new(db: &'a Database) -> Self {
        CostModel { db }
    }

    /// Average fanout of one (possibly synonym) attribute step: how many
    /// values a candidate reaches through it, on average.
    fn step_fanout(&self, attribute: &str) -> f64 {
        let (name, inverted) = self.db.resolve_attr_direction(attribute);
        let card = self.db.attr_cardinality(name);
        let fanout = if inverted {
            card.avg_in_fanout()
        } else {
            card.avg_fanout()
        };
        // A never-asserted attribute still costs its lookup.
        fanout.max(f64::EPSILON)
    }

    /// Estimated probes for walking one derived path from a single
    /// candidate: each step visits the frontier reached so far and fans
    /// it out by the step attribute's average fanout.
    fn path_cost(&self, path: &LabeledPath) -> f64 {
        let mut frontier = 1.0;
        let mut cost = 0.0;
        for step in &path.steps {
            cost += frontier;
            frontier *= self.step_fanout(&step.attr);
        }
        cost.max(1.0)
    }

    /// Estimated probes in the constraint clause per candidate: a
    /// quantifier evaluates its body once per member of its range class;
    /// atoms are single index probes.
    fn constraint_cost(&self, expr: &ConstraintExpr) -> f64 {
        match expr {
            ConstraintExpr::Forall(_, class, body) | ConstraintExpr::Exists(_, class, body) => {
                let range = self.db.class_cardinality(class) as f64;
                range.max(1.0) * self.constraint_cost(body)
            }
            ConstraintExpr::And(a, b) | ConstraintExpr::Or(a, b) => {
                self.constraint_cost(a) + self.constraint_cost(b)
            }
            ConstraintExpr::Not(inner) => self.constraint_cost(inner),
            ConstraintExpr::In(..) | ConstraintExpr::HasAttr(..) | ConstraintExpr::Eq(..) => 1.0,
        }
    }

    /// Estimated probes for one full membership check of the query: class
    /// memberships, derived paths, `where` equalities, constraint clause.
    pub fn membership_cost(&self, query: &QueryClassDecl) -> f64 {
        let classes = query.is_a.len().max(1) as f64;
        let paths: f64 = query.derived.iter().map(|p| self.path_cost(p)).sum();
        let wheres = query.where_eqs.len() as f64;
        let constraint = query
            .constraint
            .as_ref()
            .map_or(0.0, |c| self.constraint_cost(c));
        classes + paths + wheres + constraint
    }

    /// Estimated total cost of filtering `candidates` objects through the
    /// query's membership condition — the quantity the optimizer
    /// minimizes when choosing among subsuming views.
    pub fn filter_cost(&self, candidates: usize, query: &QueryClassDecl) -> f64 {
        candidates as f64 * self.membership_cost(query)
    }

    /// The query's *schema* superclasses ordered by extent
    /// cardinality, ascending — the cheapest intersection order for
    /// candidate narrowing (intersecting the smallest sets first keeps
    /// every intermediate result minimal). Superclasses naming query
    /// classes are excluded: they restrict by recursive membership, not
    /// by stored extents (mirroring
    /// [`crate::eval::initial_candidates`]).
    pub fn intersection_order<'q>(&self, query: &'q QueryClassDecl) -> Vec<(&'q str, usize)> {
        let mut order: Vec<(&str, usize)> = query
            .is_a
            .iter()
            .filter(|class| self.db.model().class(class).is_some())
            .map(|class| (class.as_str(), self.db.class_cardinality(class)))
            .collect();
        order.sort_by_key(|&(_, cardinality)| cardinality);
        order
    }

    /// Narrows a candidate base (typically a subsuming view's extension)
    /// by intersecting it with the query's schema-superclass extents in
    /// the cheapest (ascending-cardinality) order, breaking early when
    /// empty. Sound: every answer belongs to every schema superclass, so
    /// the intersection never loses one — it only spares the expensive
    /// per-object membership filter the objects a word-parallel bitmap
    /// intersection can rule out. A declared superclass with no stored
    /// extent empties the candidates outright (mirroring
    /// [`crate::eval::initial_candidates`]).
    pub fn narrow_candidates(&self, base: &ObjSet, query: &QueryClassDecl) -> ObjSet {
        let mut narrowed = base.clone();
        for (class, _) in self.intersection_order(query) {
            if narrowed.is_empty() {
                break;
            }
            match self.db.class_extent_ref(class) {
                Some(extent) => narrowed.and_inplace(extent),
                None => return ObjSet::new(),
            }
        }
        narrowed
    }

    /// Estimated candidate count after intersecting a base set of size
    /// `base` with the query's schema-superclass extents: bounded by the
    /// smallest participating set (intersections only shrink).
    pub fn estimated_candidates(&self, base: usize, query: &QueryClassDecl) -> usize {
        query
            .is_a
            .iter()
            .filter(|class| self.db.model().class(class).is_some())
            .map(|class| self.db.class_cardinality(class))
            .fold(base, usize::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hospital() -> Database {
        crate::store::tests::hospital()
    }

    #[test]
    fn cost_model_orders_intersections_by_cardinality() {
        let db = hospital();
        let model = CostModel::new(&db);
        let query = QueryClassDecl {
            name: "Q".into(),
            is_a: vec!["Person".into(), "Patient".into()],
            derived: vec![],
            where_eqs: vec![],
            constraint: None,
        };
        let order = model.intersection_order(&query);
        assert_eq!(order.len(), 2);
        assert!(order[0].1 <= order[1].1, "ascending cardinality");
        assert_eq!(order[0].0, "Patient", "smaller extent first");
        let est = model.estimated_candidates(usize::MAX, &query);
        assert_eq!(est, db.class_cardinality("Patient"));
        // Filter cost is monotone in the candidate count — the property
        // that makes the cost-based frontier choice never worse than the
        // smallest-extension choice.
        assert!(model.filter_cost(10, &query) < model.filter_cost(11, &query));
        assert!(model.membership_cost(&query) >= 2.0);
    }

    #[test]
    fn derived_paths_and_constraints_raise_membership_cost() {
        let db = hospital();
        let model = CostModel::new(&db);
        let plain = QueryClassDecl {
            name: "Plain".into(),
            is_a: vec!["Patient".into()],
            derived: vec![],
            where_eqs: vec![],
            constraint: None,
        };
        let with_path = QueryClassDecl {
            derived: vec![LabeledPath {
                label: Some("d".into()),
                steps: vec![subq_dl::PathStep {
                    attr: "consults".into(),
                    filter: subq_dl::PathFilter::Any,
                }],
            }],
            ..plain.clone()
        };
        assert!(model.membership_cost(&with_path) > model.membership_cost(&plain));
    }
}
