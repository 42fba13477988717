//! Cardinality statistics and the planner's cost model.
//!
//! The store already maintains exact O(1) counters — extent lengths
//! ([`Database::class_cardinality`]) and per-attribute pair/source/target
//! counts ([`Database::attr_cardinality`]). [`Statistics`] snapshots them
//! into a catalog stamped with the [`Database::data_version`] it reflects,
//! and keeps that catalog fresh **incrementally**: a refresh replays the
//! delta-log suffix after the stamp, re-reads the counters of only the
//! classes and attributes the suffix actually touched, and falls back to
//! a full collection only when the log was truncated past the stamp.
//!
//! [`CostModel`] turns the catalog into plan-cost estimates: the cost of
//! filtering a candidate set is `|candidates| × membership_cost(query)`,
//! where the per-candidate membership cost follows the evaluator's actual
//! work — every derived path of the query fans out by the average
//! out-fanout (or in-fanout, for inverse synonyms) of its attributes, and
//! a constraint clause re-walks its paths per binding. The optimizer uses
//! it to pick the cheapest subsuming view of a plan frontier and the
//! cheapest intersection order for candidate narrowing (see
//! [`OptimizedDatabase::execute`]).

use crate::maintain::Delta;
use crate::objset::ObjSet;
use crate::store::{AttrCardinality, Database};
use fxhash::{FxHashMap, FxHashSet};
use subq_dl::{ConstraintExpr, LabeledPath, QueryClassDecl};

#[cfg(doc)]
use crate::optimizer::OptimizedDatabase;

/// A versioned catalog of per-class and per-attribute cardinality
/// statistics, refreshed incrementally from the database's delta log.
#[derive(Clone, Debug, Default)]
pub struct Statistics {
    /// Class name → extent cardinality.
    classes: FxHashMap<String, usize>,
    /// Primitive attribute name → pair/source/target counts.
    attrs: FxHashMap<String, AttrCardinality>,
    /// Total number of objects (ids are dense `0..objects`).
    objects: usize,
    /// The data version the catalog reflects.
    as_of: u64,
    /// How many full collections ran (initial + truncation fallbacks).
    pub full_collections: u64,
    /// How many refreshes were answered incrementally from the log.
    pub incremental_refreshes: u64,
    /// Class/attribute entries re-read across all incremental refreshes.
    pub entries_touched: u64,
    /// View name → number of recorded executions that chose it as the
    /// frontier member to filter — the writer's tally, folded in from the
    /// harvested shape events of each advisor pass and surfaced through
    /// the `subq_view_hits{view=…}` gauges in `STATS`. Observed, not
    /// derivable from the store, so it is preserved verbatim across full
    /// collections and incremental refreshes.
    view_hits: FxHashMap<String, u64>,
}

impl Statistics {
    /// An empty catalog at version 0; [`Statistics::refresh`] populates
    /// it on first use.
    pub fn new() -> Self {
        Statistics::default()
    }

    /// A full collection: every class extent and attribute index counter,
    /// read once.
    pub fn collect(db: &Database) -> Self {
        let mut stats = Statistics::new();
        stats.collect_from(db);
        stats
    }

    fn collect_from(&mut self, db: &Database) {
        self.classes = db
            .class_names()
            .map(|name| (name.to_owned(), db.class_cardinality(name)))
            .collect();
        self.attrs = db
            .attribute_names()
            .map(|name| (name.to_owned(), db.attr_cardinality(name)))
            .collect();
        self.objects = db.object_count();
        self.as_of = db.data_version();
        self.full_collections += 1;
        crate::metrics::metrics().stats_full_collections.inc();
    }

    /// Brings the catalog up to the database's current data version.
    ///
    /// The common path replays the delta-log suffix after
    /// [`Statistics::as_of`], gathers the class and attribute names it
    /// touches, and re-reads **only** their O(1) store counters — cost
    /// proportional to the churn, not the schema. A log truncated past
    /// the stamp forces a full collection.
    pub fn refresh(&mut self, db: &Database) {
        let now = db.data_version();
        if self.as_of == now && self.objects == db.object_count() {
            return;
        }
        let Some(suffix) = db.delta_log().since(self.as_of) else {
            self.collect_from(db);
            return;
        };
        let mut classes: FxHashSet<&str> = FxHashSet::default();
        let mut attrs: FxHashSet<&str> = FxHashSet::default();
        for (_, delta) in suffix {
            match delta {
                Delta::AddObject { .. } => {}
                Delta::AssertClass { class, .. } | Delta::RetractClass { class, .. } => {
                    classes.insert(class.as_str());
                }
                Delta::AssertAttr { attribute, .. } | Delta::RetractAttr { attribute, .. } => {
                    attrs.insert(attribute.as_str());
                }
            }
        }
        self.entries_touched += (classes.len() + attrs.len()) as u64;
        crate::metrics::metrics()
            .stats_entries_touched
            .add((classes.len() + attrs.len()) as u64);
        for class in classes {
            self.classes
                .insert(class.to_owned(), db.class_cardinality(class));
        }
        for attr in attrs {
            self.attrs
                .insert(attr.to_owned(), db.attr_cardinality(attr));
        }
        self.objects = db.object_count();
        self.as_of = now;
        self.incremental_refreshes += 1;
        crate::metrics::metrics().stats_incremental_refreshes.inc();
    }

    /// The data version the catalog reflects.
    pub fn as_of(&self) -> u64 {
        self.as_of
    }

    /// Total number of objects at the catalog's version.
    pub fn object_count(&self) -> usize {
        self.objects
    }

    /// Cached extent cardinality of a class (0 when never asserted).
    pub fn class_cardinality(&self, class: &str) -> usize {
        self.classes.get(class).copied().unwrap_or(0)
    }

    /// Cached index counters of a primitive attribute (zeros when never
    /// asserted).
    pub fn attr_cardinality(&self, attribute: &str) -> AttrCardinality {
        self.attrs.get(attribute).copied().unwrap_or_default()
    }

    /// Tallies one harvested execution that routed through `view`. The
    /// process-wide `subq_view_hits_total` is not touched here: the
    /// executor already counted the execution when it ran.
    pub fn record_view_hit(&mut self, view: &str) {
        *self.view_hits.entry(view.to_owned()).or_insert(0) += 1;
    }

    /// Executions that chose `view` as the frontier member to filter.
    pub fn view_hits(&self, view: &str) -> u64 {
        self.view_hits.get(view).copied().unwrap_or(0)
    }

    /// Every `(view, hits)` tally, unordered.
    pub fn view_hit_counts(&self) -> impl Iterator<Item = (&str, u64)> {
        self.view_hits
            .iter()
            .map(|(name, &hits)| (name.as_str(), hits))
    }
}

/// Plan-cost estimation over a [`Statistics`] catalog.
///
/// Costs are in abstract "index probes"; only *ratios* matter — the
/// optimizer compares alternatives, it never interprets the absolute
/// number.
pub struct CostModel<'a> {
    stats: &'a Statistics,
    /// Resolved attribute fanouts are looked up through the database so
    /// inverse synonyms charge the in-fanout of their primitive.
    db: &'a Database,
}

impl<'a> CostModel<'a> {
    /// A cost model reading cardinalities from `stats` and resolving
    /// synonym directions through `db`'s schema.
    pub fn new(stats: &'a Statistics, db: &'a Database) -> Self {
        CostModel { stats, db }
    }

    /// Average fanout of one (possibly synonym) attribute step: how many
    /// values a candidate reaches through it, on average.
    fn step_fanout(&self, attribute: &str) -> f64 {
        let (name, inverted) = self.db.resolve_attr_direction(attribute);
        let card = self.stats.attr_cardinality(name);
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
                let range = self.stats.class_cardinality(class) as f64;
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

    /// The query's *schema* superclasses ordered by cached extent
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
            .map(|class| (class.as_str(), self.stats.class_cardinality(class)))
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
            .map(|class| self.stats.class_cardinality(class))
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
    fn collection_snapshots_store_counters() {
        let db = hospital();
        let stats = Statistics::collect(&db);
        assert_eq!(stats.as_of(), db.data_version());
        assert_eq!(stats.object_count(), db.object_count());
        assert_eq!(
            stats.class_cardinality("Patient"),
            db.class_cardinality("Patient")
        );
        assert_eq!(stats.class_cardinality("Nonsense"), 0);
        assert_eq!(
            stats.attr_cardinality("consults"),
            db.attr_cardinality("consults")
        );
        assert_eq!(stats.full_collections, 1);
    }

    #[test]
    fn refresh_replays_only_the_touched_suffix() {
        let mut db = hospital();
        let mut stats = Statistics::collect(&db);
        let touched_before = stats.entries_touched;

        // One transaction touching one class and one attribute.
        let anna = db.add_object("anna");
        let welby = db.object("welby").expect("exists");
        db.assert_class(anna, "Patient");
        db.assert_attr(anna, "consults", welby);

        stats.refresh(&db);
        assert_eq!(stats.as_of(), db.data_version());
        assert_eq!(stats.full_collections, 1, "no fallback");
        assert_eq!(stats.incremental_refreshes, 1);
        // `assert_class(anna, "Patient")` propagates upward along isA
        // (Patient → Person → …), so a handful of classes plus the one
        // attribute are touched — but nowhere near the whole catalog.
        let touched = stats.entries_touched - touched_before;
        assert!((2..=6).contains(&touched), "touched {touched}");
        assert_eq!(
            stats.class_cardinality("Patient"),
            db.class_cardinality("Patient")
        );
        assert_eq!(
            stats.attr_cardinality("consults"),
            db.attr_cardinality("consults")
        );
        assert_eq!(stats.object_count(), db.object_count());

        // A refresh with no new deltas is a no-op.
        stats.refresh(&db);
        assert_eq!(stats.incremental_refreshes, 1);
    }

    #[test]
    fn truncated_logs_fall_back_to_full_collection() {
        let mut db = hospital();
        let mut stats = Statistics::collect(&db);
        let mary = db.object("mary").expect("exists");
        db.assert_class(mary, "Doctor");
        db.truncate_log(db.data_version());
        stats.refresh(&db);
        assert_eq!(stats.full_collections, 2);
        assert_eq!(
            stats.class_cardinality("Doctor"),
            db.class_cardinality("Doctor")
        );
        assert_eq!(stats.as_of(), db.data_version());
    }

    #[test]
    fn cost_model_orders_intersections_by_cardinality() {
        let db = hospital();
        let stats = Statistics::collect(&db);
        let model = CostModel::new(&stats, &db);
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

    /// Satellite 2: per-view hit tallies are observed state — a full
    /// collection (the truncation fallback) must not wipe them.
    #[test]
    fn view_hit_tallies_survive_refresh_and_full_collection() {
        let mut db = hospital();
        let mut stats = Statistics::collect(&db);
        stats.record_view_hit("ViewPatient");
        stats.record_view_hit("ViewPatient");
        for _ in 0..3 {
            stats.record_view_hit("Person");
        }
        assert_eq!(stats.view_hits("ViewPatient"), 2);
        assert_eq!(stats.view_hits("Person"), 3);
        assert_eq!(stats.view_hits("Nonsense"), 0);

        let mary = db.object("mary").expect("exists");
        db.assert_class(mary, "Doctor");
        stats.refresh(&db);
        assert_eq!(stats.view_hits("ViewPatient"), 2, "incremental refresh");

        let anna = db.add_object("anna");
        db.assert_class(anna, "Patient");
        db.truncate_log(db.data_version());
        stats.refresh(&db);
        assert_eq!(stats.full_collections, 2, "truncation forced a fallback");
        assert_eq!(stats.view_hits("ViewPatient"), 2, "full collection");
        let mut tallies: Vec<(&str, u64)> = stats.view_hit_counts().collect();
        tallies.sort();
        assert_eq!(tallies, vec![("Person", 3), ("ViewPatient", 2)]);
    }

    #[test]
    fn derived_paths_and_constraints_raise_membership_cost() {
        let db = hospital();
        let stats = Statistics::collect(&db);
        let model = CostModel::new(&stats, &db);
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
