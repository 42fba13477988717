//! Deductive evaluation of query classes over a database state.
//!
//! The membership conditions of a query class are necessary and sufficient
//! (Section 2.2), so an object is recognized as an instance as soon as the
//! state satisfies the translated formula of Figure 4: it belongs to all
//! superclasses, every derived path can be bound, labels equated in the
//! `where` clause can be bound to a common object, and the constraint
//! clause holds for some such binding.

use crate::objset::ObjSet;
use crate::store::{Database, ObjId};
use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;
use subq_dl::{ConstraintExpr, LabeledPath, PathFilter, QueryClassDecl, Term};

/// Evaluates a query class over the whole database, materializing the
/// answers as an ordered set (the observable API boundary).
pub fn evaluate_query(db: &Database, query: &QueryClassDecl) -> BTreeSet<ObjId> {
    evaluate_query_set(db, query, None).to_btree()
}

/// Evaluates a query class over a restricted candidate set (used by the
/// optimizer to filter a subsuming view's extension instead of scanning the
/// database). `None` means all objects are candidates.
pub fn evaluate_query_over(
    db: &Database,
    query: &QueryClassDecl,
    candidates: Option<&ObjSet>,
) -> BTreeSet<ObjId> {
    evaluate_query_set(db, query, candidates).to_btree()
}

/// [`evaluate_query_over`] without the ordered materialization: the
/// answers stay a compressed bitmap. This is the physical evaluation path
/// views and the maintainer run on.
pub fn evaluate_query_set(
    db: &Database,
    query: &QueryClassDecl,
    candidates: Option<&ObjSet>,
) -> ObjSet {
    match candidates {
        Some(set) => filter_members(db, query, set),
        None => {
            let base = initial_candidates(db, query);
            filter_members(db, query, &base)
        }
    }
}

/// The candidate set used when evaluating from scratch: the intersection of
/// the extents of the schema superclasses (all objects when there is none).
/// Intersections run word-parallel on the store's maintained bitmap
/// extents, smallest first; the unrestricted case returns the
/// run-compressed universe instead of materializing every id.
pub fn initial_candidates(db: &Database, query: &QueryClassDecl) -> ObjSet {
    let mut sets: Vec<&ObjSet> = Vec::new();
    for sup in &query.is_a {
        if db.model().class(sup).is_some() {
            match db.class_extent_ref(sup) {
                Some(extent) => sets.push(extent),
                // A declared superclass nothing was ever asserted into:
                // the intersection is empty.
                None => return ObjSet::new(),
            }
        }
    }
    if sets.is_empty() {
        return db.object_universe();
    }
    sets.sort_by_key(|s| s.len());
    let (smallest, rest) = sets.split_first().expect("non-empty");
    let mut acc = (*smallest).clone();
    for set in rest {
        acc.and_inplace(set);
        if acc.is_empty() {
            break;
        }
    }
    acc
}

/// Candidate sets below this many objects are filtered on the calling
/// thread: the membership checks are cheaper than the spawns.
const PARALLEL_EVAL_THRESHOLD: usize = 4096;

/// The machine's core count, resolved once per process.
/// `available_parallelism` re-reads cgroup limits and the affinity mask on
/// every call (≈ 11 µs), so it must stay off the per-request path: only
/// the first evaluation of [`PARALLEL_EVAL_THRESHOLD`] or more candidates
/// pays for it.
#[allow(clippy::disallowed_methods)]
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Filters a candidate set down to the query's members: one shard per
/// core once the set reaches [`PARALLEL_EVAL_THRESHOLD`], the calling
/// thread alone below it (see [`filter_members_sharded`]).
pub fn filter_members(db: &Database, query: &QueryClassDecl, base: &ObjSet) -> ObjSet {
    let shards = if base.len() >= PARALLEL_EVAL_THRESHOLD {
        cores()
    } else {
        1
    };
    filter_members_sharded(db, query, base, shards)
}

/// [`filter_members`] with the shard count chosen by the caller. With
/// `shards <= 1` the candidates are checked in one sequential fold;
/// otherwise the set is split into at most `shards` cardinality-balanced
/// id ranges ([`ObjSet::shards`]), each checked on its own scoped worker
/// thread, and the partial answers are gathered with a bitmap union.
/// Membership is decided per object, so the result is the same set for
/// every shard count.
pub fn filter_members_sharded(
    db: &Database,
    query: &QueryClassDecl,
    base: &ObjSet,
    shards: usize,
) -> ObjSet {
    if shards <= 1 {
        return base
            .iter()
            .filter(|&obj| is_member(db, query, obj))
            .collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = base
            .shards(shards)
            .into_iter()
            .map(|shard| {
                scope.spawn(move || {
                    shard
                        .filter(|&obj| is_member(db, query, obj))
                        .collect::<ObjSet>()
                })
            })
            .collect();
        let mut gathered = ObjSet::new();
        for handle in handles {
            gathered.or_inplace(&handle.join().expect("evaluation worker panicked"));
        }
        gathered
    })
}

/// Whether one object is an answer of the query class.
pub fn is_member(db: &Database, query: &QueryClassDecl, object: ObjId) -> bool {
    // Superclasses: schema classes by stored membership, query classes
    // recursively (they are completely defined by their declarations).
    for sup in &query.is_a {
        if let Some(sup_query) = db.model().query_class(sup) {
            if !is_member(db, sup_query, object) {
                return false;
            }
        } else if sup != "Object" && !db.is_instance_of(object, sup) {
            return false;
        }
    }

    // Bind every derived path.
    let mut endpoints: HashMap<&str, ObjSet> = HashMap::new();
    for path in &query.derived {
        let ends = path_endpoints(db, object, path);
        if ends.is_empty() {
            return false;
        }
        if let Some(label) = &path.label {
            endpoints.insert(label.as_str(), ends);
        }
    }

    // `where` equalities restrict equated labels to a common binding.
    let mut constrained: HashMap<&str, ObjSet> = endpoints.clone();
    for (left, right) in &query.where_eqs {
        let (Some(l), Some(r)) = (endpoints.get(left.as_str()), endpoints.get(right.as_str()))
        else {
            return false;
        };
        let common = l.and(r);
        if common.is_empty() {
            return false;
        }
        constrained.insert(left.as_str(), common.clone());
        constrained.insert(right.as_str(), common);
    }

    // Constraint clause: there must be a binding of the labels it mentions
    // (consistent with the `where` restrictions) that satisfies it.
    match &query.constraint {
        None => true,
        Some(constraint) => {
            let free: std::collections::HashSet<String> =
                constraint.free_idents().into_iter().collect();
            let domains: Vec<(&str, Vec<ObjId>)> = constrained
                .iter()
                .filter(|&(label, _)| free.contains(*label))
                .map(|(label, objs)| (*label, objs.iter().collect()))
                .collect();
            exists_binding(db, constraint, object, &domains, &mut HashMap::new(), 0)
        }
    }
}

/// Searches for a label binding that satisfies the constraint.
fn exists_binding(
    db: &Database,
    constraint: &ConstraintExpr,
    this: ObjId,
    domains: &[(&str, Vec<ObjId>)],
    bound: &mut HashMap<String, ObjId>,
    index: usize,
) -> bool {
    if index == domains.len() {
        return eval_constraint(db, constraint, this, bound);
    }
    let (label, candidates) = &domains[index];
    for &candidate in candidates {
        bound.insert((*label).to_owned(), candidate);
        if exists_binding(db, constraint, this, domains, bound, index + 1) {
            return true;
        }
    }
    bound.remove(*label);
    false
}

/// The objects reachable from `start` along a labeled path. Synonyms are
/// resolved once per step; values are read from the store's maintained
/// posting bitmaps, so an unfiltered step is a union and a class-filtered
/// step is a union of intersections — both word-parallel.
pub fn path_endpoints(db: &Database, start: ObjId, path: &LabeledPath) -> ObjSet {
    let mut current = ObjSet::new();
    current.insert(start);
    for step in &path.steps {
        let (name, inverted) = db.resolve_attr_direction(&step.attr);
        let class_filter = match &step.filter {
            PathFilter::Class(class) if class != "Object" => {
                match db.class_extent_ref(class) {
                    Some(extent) => Some(extent),
                    // A filter class with no members blocks the step.
                    None => {
                        current = ObjSet::new();
                        break;
                    }
                }
            }
            _ => None,
        };
        let mut next = ObjSet::new();
        for obj in &current {
            let values = if inverted {
                db.attr_in(obj, name)
            } else {
                db.attr_out(obj, name)
            };
            let Some(values) = values else { continue };
            match (&step.filter, class_filter) {
                (PathFilter::Singleton(singleton), _) => {
                    if let Some(id) = db.object(singleton) {
                        if values.contains(&id) {
                            next.insert(id);
                        }
                    }
                }
                (_, Some(extent)) => next.or_inplace(&values.and(extent)),
                _ => next.or_inplace(values),
            }
        }
        current = next;
        if current.is_empty() {
            break;
        }
    }
    current
}

/// Evaluates a constraint-clause formula with `this` bound and labels bound
/// by `env`; other identifiers denote objects by name.
pub fn eval_constraint(
    db: &Database,
    expr: &ConstraintExpr,
    this: ObjId,
    env: &HashMap<String, ObjId>,
) -> bool {
    let resolve = |term: &Term, env: &HashMap<String, ObjId>| -> Option<ObjId> {
        match term {
            Term::This => Some(this),
            Term::Ident(name) => env.get(name).copied().or_else(|| db.object(name)),
        }
    };
    match expr {
        ConstraintExpr::In(t, class) => {
            resolve(t, env).is_some_and(|obj| class == "Object" || db.is_instance_of(obj, class))
        }
        ConstraintExpr::HasAttr(s, attr, t) => match (resolve(s, env), resolve(t, env)) {
            (Some(from), Some(to)) => db.has_attr_value(from, attr, to),
            _ => false,
        },
        ConstraintExpr::Eq(s, t) => match (resolve(s, env), resolve(t, env)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        },
        ConstraintExpr::Not(inner) => !eval_constraint(db, inner, this, env),
        ConstraintExpr::And(a, b) => {
            eval_constraint(db, a, this, env) && eval_constraint(db, b, this, env)
        }
        ConstraintExpr::Or(a, b) => {
            eval_constraint(db, a, this, env) || eval_constraint(db, b, this, env)
        }
        ConstraintExpr::Forall(var, class, body) => {
            db.class_extent_ref(class).into_iter().flatten().all(|obj| {
                let mut env = env.clone();
                env.insert(var.clone(), obj);
                eval_constraint(db, body, this, &env)
            })
        }
        ConstraintExpr::Exists(var, class, body) => {
            db.class_extent_ref(class).into_iter().flatten().any(|obj| {
                let mut env = env.clone();
                env.insert(var.clone(), obj);
                eval_constraint(db, body, this, &env)
            })
        }
    }
}

/// Evaluates a class constraint clause for one object (no label bindings).
pub fn eval_constraint_for(db: &Database, expr: &ConstraintExpr, this: ObjId) -> bool {
    eval_constraint(db, expr, this, &HashMap::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Database;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use subq_dl::{samples, AttrDecl, ClassDecl, DlModel, PathFilter, PathStep};

    /// The hospital of the store tests extended with a male patient that
    /// satisfies every condition of QueryPatient.
    fn hospital_with_john() -> Database {
        let mut db = crate::store::tests::hospital();
        let john = db.add_object("john");
        let john_name = db.add_object("john_name");
        let welby = db.object("welby").expect("exists");
        let flu = db.object("flu").expect("exists");
        let aspirin = db.object("Aspirin").expect("exists");
        db.assert_class(john, "Patient");
        db.assert_class(john, "Male");
        db.assert_class(john_name, "String");
        db.assert_attr(john, "suffers", flu);
        db.assert_attr(john, "consults", welby);
        db.assert_attr(john, "takes", aspirin);
        db.assert_attr(john, "name", john_name);
        db
    }

    #[test]
    fn view_patient_contains_both_patients() {
        let db = hospital_with_john();
        let model = samples::medical_model();
        let view = model.query_class("ViewPatient").expect("declared");
        let answers = evaluate_query(&db, view);
        let mary = db.object("mary").expect("exists");
        let john = db.object("john").expect("exists");
        assert_eq!(answers, BTreeSet::from([mary, john]));
    }

    #[test]
    fn query_patient_contains_only_john() {
        let db = hospital_with_john();
        let model = samples::medical_model();
        let query = model.query_class("QueryPatient").expect("declared");
        let answers = evaluate_query(&db, query);
        let john = db.object("john").expect("exists");
        assert_eq!(answers, BTreeSet::from([john]));
    }

    #[test]
    fn query_answers_are_contained_in_view_answers() {
        let db = hospital_with_john();
        let model = samples::medical_model();
        let query = model.query_class("QueryPatient").expect("declared");
        let view = model.query_class("ViewPatient").expect("declared");
        let query_answers = evaluate_query(&db, query);
        let view_answers = evaluate_query(&db, view);
        assert!(query_answers.is_subset(&view_answers));
    }

    #[test]
    fn constraint_clause_filters_answers() {
        let mut db = hospital_with_john();
        let model = samples::medical_model();
        let query = model.query_class("QueryPatient").expect("declared");
        let john = db.object("john").expect("exists");
        assert!(is_member(&db, query, john));
        // Taking another drug besides Aspirin violates the constraint.
        let ibuprofen = db.add_object("ibuprofen");
        db.assert_class(ibuprofen, "Drug");
        db.assert_attr(john, "takes", ibuprofen);
        assert!(!is_member(&db, query, john));
    }

    #[test]
    fn where_clause_requires_a_common_filler() {
        let mut db = hospital_with_john();
        let model = samples::medical_model();
        let view = model.query_class("ViewPatient").expect("declared");
        let mary = db.object("mary").expect("exists");
        assert!(is_member(&db, view, mary));
        // Replace the doctor's skill with a different disease: the paths
        // l_1 (consulted doctor's skill) and l_2 (suffered disease) no
        // longer agree for a new patient similar to mary.
        let anna = db.add_object("anna");
        let anna_name = db.add_object("anna_name");
        let measles = db.add_object("measles");
        let welby = db.object("welby").expect("exists");
        db.assert_class(anna, "Patient");
        db.assert_class(anna_name, "String");
        db.assert_class(measles, "Disease");
        db.assert_attr(anna, "name", anna_name);
        db.assert_attr(anna, "suffers", measles);
        db.assert_attr(anna, "consults", welby);
        assert!(!is_member(&db, view, anna));
    }

    #[test]
    fn path_endpoints_follow_filters_and_synonyms() {
        let db = hospital_with_john();
        let model = samples::medical_model();
        let query = model.query_class("QueryPatient").expect("declared");
        let john = db.object("john").expect("exists");
        let welby = db.object("welby").expect("exists");
        // l_2: suffers.(specialist: Doctor) reaches the doctor through the
        // inverse synonym.
        let ends = path_endpoints(&db, john, &query.derived[1]);
        assert_eq!(ends, BTreeSet::from([welby]));
    }

    #[test]
    fn candidate_restriction_only_limits_the_search_space() {
        let db = hospital_with_john();
        let model = samples::medical_model();
        let view = model.query_class("ViewPatient").expect("declared");
        let mary = db.object("mary").expect("exists");
        let john = db.object("john").expect("exists");
        let only_mary: ObjSet = [mary].into_iter().collect();
        let restricted = evaluate_query_over(&db, view, Some(&only_mary));
        assert_eq!(restricted, BTreeSet::from([mary]));
        let full = evaluate_query_over(&db, view, None);
        assert_eq!(full, BTreeSet::from([mary, john]));
    }

    /// A query with no schema superclass starts from the all-objects
    /// candidate set — both with an empty `isA` clause and with an `isA`
    /// clause naming only query classes (which restrict by recursive
    /// membership, not by stored extents).
    #[test]
    fn query_without_schema_superclasses_scans_all_objects() {
        let db = hospital_with_john();
        let unrestricted = subq_dl::QueryClassDecl {
            name: "Everything".into(),
            is_a: vec![],
            derived: vec![],
            where_eqs: vec![],
            constraint: None,
        };
        let all: BTreeSet<ObjId> = db.objects().collect();
        assert_eq!(initial_candidates(&db, &unrestricted), all);
        assert_eq!(evaluate_query(&db, &unrestricted), all);

        // `isA ViewPatient` names a query class: no stored extent to
        // intersect, so the candidate set stays all objects, and the
        // recursive membership check does the filtering.
        let via_query_class = subq_dl::QueryClassDecl {
            name: "ViaView".into(),
            is_a: vec!["ViewPatient".into()],
            derived: vec![],
            where_eqs: vec![],
            constraint: None,
        };
        assert_eq!(initial_candidates(&db, &via_query_class), all);
        let model = samples::medical_model();
        let view = model.query_class("ViewPatient").expect("declared");
        assert_eq!(
            evaluate_query(&db, &via_query_class),
            evaluate_query(&db, view)
        );
    }

    /// A `where` equality between labels whose paths bind disjoint object
    /// sets recognizes no member, even when each path binds on its own.
    #[test]
    fn where_equality_binding_no_common_object_rejects_members() {
        let db = hospital_with_john();
        let john = db.object("john").expect("exists");
        // l_1: the consulted doctor (welby); l_2: the taken drug
        // (Aspirin). Both bind, but never to a common object.
        let query = subq_dl::QueryClassDecl {
            name: "Impossible".into(),
            is_a: vec!["Patient".into()],
            derived: vec![
                LabeledPath {
                    label: Some("l_1".into()),
                    steps: vec![PathStep {
                        attr: "consults".into(),
                        filter: PathFilter::Any,
                    }],
                },
                LabeledPath {
                    label: Some("l_2".into()),
                    steps: vec![PathStep {
                        attr: "takes".into(),
                        filter: PathFilter::Any,
                    }],
                },
            ],
            where_eqs: vec![("l_1".into(), "l_2".into())],
            constraint: None,
        };
        // Each path binds for john…
        assert!(!path_endpoints(&db, john, &query.derived[0]).is_empty());
        assert!(!path_endpoints(&db, john, &query.derived[1]).is_empty());
        // …but the equality has no common witness.
        assert!(!is_member(&db, &query, john));
        assert!(evaluate_query(&db, &query).is_empty());
        // A `where` clause over an unbound (undeclared) label also
        // rejects instead of panicking.
        let dangling = subq_dl::QueryClassDecl {
            name: "Dangling".into(),
            is_a: vec!["Patient".into()],
            derived: vec![],
            where_eqs: vec![("ghost".into(), "ghost".into())],
            constraint: None,
        };
        assert!(evaluate_query(&db, &dangling).is_empty());
    }

    /// Evaluation over an explicitly empty restricted candidate set is
    /// empty — the optimizer's degenerate case of filtering an empty view
    /// extension.
    #[test]
    fn evaluation_over_an_empty_candidate_set_is_empty() {
        let db = hospital_with_john();
        let model = samples::medical_model();
        let view = model.query_class("ViewPatient").expect("declared");
        let restricted = evaluate_query_over(&db, view, Some(&ObjSet::new()));
        assert!(restricted.is_empty());
    }

    #[test]
    fn evaluating_a_schema_class_turned_query() {
        // "Every schema class can be turned into a query class": a query
        // with only an isA clause returns the class extent.
        let db = hospital_with_john();
        let query = subq_dl::QueryClassDecl {
            name: "AllPatients".into(),
            is_a: vec!["Patient".into()],
            derived: vec![],
            where_eqs: vec![],
            constraint: None,
        };
        let answers = evaluate_query(&db, &query);
        assert_eq!(answers, db.class_extent("Patient"));
    }

    /// A churn-style store (the shape `subq_workload::churn_trace`
    /// generates, which this crate cannot depend on): six classes in a
    /// binary isA tree under `K0`, a `link` attribute with the inverse
    /// synonym `rev_link`, `objects` objects spread over the classes and
    /// linked at random, and three path views per class — one step, two
    /// steps, one inverse step, each ending in a class filter.
    fn churn_store(objects: usize) -> Database {
        let mut model = DlModel::new();
        for i in 0..6usize {
            model.classes.push(ClassDecl {
                name: format!("K{i}"),
                is_a: if i == 0 {
                    vec![]
                } else {
                    vec![format!("K{}", (i - 1) / 2)]
                },
                attributes: vec![],
                constraint: None,
            });
        }
        model.attributes.push(AttrDecl {
            name: "link".into(),
            domain: "Object".into(),
            range: "Object".into(),
            inverse: Some("rev_link".into()),
        });
        let step = |attr: &str, filter: PathFilter| PathStep {
            attr: attr.into(),
            filter,
        };
        for i in 0..6usize {
            let target = PathFilter::Class(format!("K{}", (i + 1) % 6));
            for (kind, steps) in [
                ("one", vec![step("link", target.clone())]),
                (
                    "two",
                    vec![step("link", PathFilter::Any), step("link", target.clone())],
                ),
                ("inv", vec![step("rev_link", target)]),
            ] {
                model.queries.push(QueryClassDecl {
                    name: format!("V{i}{kind}"),
                    is_a: vec![format!("K{i}")],
                    derived: vec![LabeledPath { label: None, steps }],
                    where_eqs: vec![],
                    constraint: None,
                });
            }
        }
        let mut db = Database::new(model);
        let mut rng = StdRng::seed_from_u64(17);
        let ids: Vec<ObjId> = (0..objects)
            .map(|i| db.add_object(&format!("o{i}")))
            .collect();
        for &id in &ids {
            db.assert_class(id, &format!("K{}", rng.gen_range(0..6usize)));
            if rng.gen_bool(0.6) {
                db.assert_attr(id, "link", ids[rng.gen_range(0..objects)]);
            }
        }
        db
    }

    /// Scatter-gather returns the sequential answer set whatever the shard
    /// count — fewer shards than members, more shards than members, and
    /// no members at all.
    #[test]
    fn sharded_filtering_equals_the_sequential_fold_at_every_shard_count() {
        let db = churn_store(300);
        for view in &db.model().queries {
            let base = initial_candidates(&db, view);
            let expected: BTreeSet<ObjId> = base
                .iter()
                .filter(|&object| is_member(&db, view, object))
                .collect();
            assert!(
                !expected.is_empty() && expected.len() < base.len(),
                "{}: the path must select a proper, non-empty part of the class",
                view.name
            );
            for shards in [1, 2, 3, 8, base.len() + 1] {
                assert_eq!(
                    filter_members_sharded(&db, view, &base, shards),
                    expected,
                    "{} over {shards} shards",
                    view.name
                );
                assert!(
                    filter_members_sharded(&db, view, &ObjSet::new(), shards).is_empty(),
                    "{} over {shards} shards of an empty base",
                    view.name
                );
            }
        }
    }

    /// `filter_members` starts scattering at 4096 candidates; on either
    /// side of that threshold it returns what the sequential fold does.
    #[test]
    fn automatic_sharding_agrees_with_the_sequential_fold_across_the_threshold() {
        let mut db = churn_store(PARALLEL_EVAL_THRESHOLD - 1);
        let view = db.model().query_class("V0two").expect("declared").clone();
        let agrees_at = |db: &Database, members: usize| {
            // Every object is a K0 through the isA tree.
            let base = initial_candidates(db, &view);
            assert_eq!(base.len(), members);
            assert_eq!(
                filter_members(db, &view, &base),
                filter_members_sharded(db, &view, &base, 1),
                "{members} candidates"
            );
        };
        agrees_at(&db, PARALLEL_EVAL_THRESHOLD - 1);
        let extra = db.add_object("extra");
        let first = db.object("o0").expect("exists");
        db.assert_class(extra, "K0");
        db.assert_attr(extra, "link", first);
        agrees_at(&db, PARALLEL_EVAL_THRESHOLD);
    }
}
