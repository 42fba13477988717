//! Equivalence suite for the subsumption-lattice planner: on hundreds of
//! workload-generated and random catalogs, the lattice traversal must be
//! observationally equivalent to the flat linear scan it replaced —
//!
//! * the executed answer set equals the flat-scan plan's filtered answers
//!   **and** a from-scratch `evaluate_query`;
//! * the subsuming-view set reported by the traversal is exactly the flat
//!   scan's subsumer set restricted to its maximal-specific frontier
//!   (verified against direct pairwise view-vs-view subsumption checks);
//! * the chosen views of both planners have extensions of the same
//!   (minimal) size, so neither filters through a larger set;
//! * the lattice itself satisfies its structural invariants after every
//!   batch of insertions;
//! * the writer and a snapshot reader — two contexts over the one planner
//!   and executor — agree on every plan, answer set and execution
//!   statistic, and `EXPLAIN` reports the plan and the pick that run;
//! * a reader's cost estimates are those of the snapshot it pinned: a
//!   commit moves them only once the reader syncs.

use std::collections::{BTreeSet, HashMap};
use subq::dl::QueryClassDecl;
use subq::oodb::{
    evaluate_query, evaluate_query_over, ExplainReport, OptimizedDatabase, QueryPlan, Reader,
};
use subq::workload::{
    hierarchical_catalog, synthetic_hospital, FamilyShape, HierarchyParams, HospitalParams,
};

/// Runs the full battery of equivalence assertions for one catalog and
/// query batch.
fn check_catalog(
    mut odb: OptimizedDatabase,
    view_names: &[String],
    queries: &[QueryClassDecl],
    label: &str,
) {
    let db = odb.database().clone();
    check_writer_reader_parity(
        || {
            let mut engine = OptimizedDatabase::new(db.clone()).expect("translates");
            for name in view_names {
                engine.materialize_view(name).expect("materializes");
            }
            engine.publish_snapshot();
            engine
        },
        queries,
        label,
    );

    for name in view_names {
        odb.materialize_view(name)
            .unwrap_or_else(|e| panic!("{label}: materializing {name}: {e}"));
    }
    let violations = odb.catalog().lattice_violations();
    assert!(violations.is_empty(), "{label}: {violations:?}");

    for query in queries {
        let lattice = odb.plan(query);
        let flat = odb.plan_flat(query);

        // --- Frontier: the flat subsumer set restricted to its
        // maximal-specific elements, computed from direct pairwise
        // view-vs-view subsumption probes.
        let flat_set = flat.subsuming_views.clone();
        let mut strictly_below: HashMap<(usize, usize), bool> = HashMap::new();
        for (i, a) in flat_set.iter().enumerate() {
            for (j, b) in flat_set.iter().enumerate() {
                if i == j {
                    continue;
                }
                let a_in_b = odb.view_subsumes(a, b).expect("views translate");
                let b_in_a = odb.view_subsumes(b, a).expect("views translate");
                strictly_below.insert((i, j), a_in_b && !b_in_a);
            }
        }
        let expected_frontier: BTreeSet<&String> = flat_set
            .iter()
            .enumerate()
            .filter(|(j, _)| {
                // Maximal-specific: no other subsumer strictly below it.
                !(0..flat_set.len()).any(|i| i != *j && strictly_below.get(&(i, *j)) == Some(&true))
            })
            .map(|(_, name)| name)
            .collect();
        let reported: BTreeSet<&String> = lattice.subsuming_views.iter().collect();
        assert_eq!(
            reported, expected_frontier,
            "{label}: query {} frontier mismatch (flat set {flat_set:?})",
            query.name
        );

        // --- Chosen views: both planners pick a minimal extension.
        assert_eq!(
            lattice.chosen_view.is_some(),
            flat.chosen_view.is_some(),
            "{label}: query {}",
            query.name
        );
        if let (Some(l), Some(f)) = (&lattice.chosen_view, &flat.chosen_view) {
            let l_size = odb.catalog().view(l).expect("stored").len();
            let f_size = odb.catalog().view(f).expect("stored").len();
            assert_eq!(
                l_size, f_size,
                "{label}: query {} chose extensions of different size ({l} vs {f})",
                query.name
            );
        }

        // --- Answers: executed (lattice) == flat-filtered == scratch.
        let scratch = evaluate_query(odb.database(), query);
        let (executed, stats) = odb.execute(query);
        assert_eq!(
            executed, scratch,
            "{label}: query {} lattice answers differ from scratch",
            query.name
        );
        if let Some(f) = &flat.chosen_view {
            let extent = odb.catalog().view(f).expect("stored").extent;
            let flat_answers = evaluate_query_over(odb.database(), query, Some(&extent));
            assert_eq!(
                flat_answers, scratch,
                "{label}: query {} flat-plan answers differ from scratch",
                query.name
            );
            assert!(
                stats.used_view.is_some(),
                "{label}: query {} must use a view when one subsumes",
                query.name
            );
        }
    }
}

/// The writer and a snapshot reader are two contexts over one planner and
/// executor, so over the same catalog they must agree field for field.
///
/// `build` returns a published engine with every view materialized; it is
/// called three times so that nothing under comparison shares a cache: the
/// writer plans on its own engine, the reader pins the snapshot of a second
/// engine that never plans (same arena, its own memo), and a twin reader on
/// a third engine — always in the same cache state as the reader — is the
/// one `EXPLAIN` is asked of.
///
/// The one asymmetry is not in the query path: classifying the catalog
/// leaves view-vs-view verdicts and saturated view closures in the writer's
/// private cache, so a first-pass plan of a query whose concept *is* a view
/// concept can be answered warmer by the writer than by any reader. First
/// passes are therefore compared whole only where the writer answered
/// nothing from its cache (elsewhere the frontier, the pruning, the depth
/// and the probe total must still agree, and the writer must be the warmer
/// side); the second pass — everything cached on both sides — is compared
/// whole for every query.
fn check_writer_reader_parity(
    build: impl Fn() -> OptimizedDatabase,
    queries: &[QueryClassDecl],
    label: &str,
) {
    let whole = |plan: &QueryPlan| format!("{plan:?}");
    let mut writer = build();
    let (published, mut twin_engine) = (build(), build());
    let (mut reader, mut twin) = (published.reader(), twin_engine.reader());
    for pass in ["cold", "warm"] {
        for query in queries {
            let tag = format!("{label}: {pass} plan of {}", query.name);
            let by_writer = writer.plan(query);
            let by_reader = reader.plan(query);
            assert_eq!(
                whole(&twin.explain(query).plan),
                whole(&by_reader),
                "{tag}: explain().plan differs from plan() in the same cache state"
            );
            let probes = |plan: &QueryPlan| plan.cached_probes + plan.fresh_probes;
            assert_eq!(
                by_writer.subsuming_views, by_reader.subsuming_views,
                "{tag}"
            );
            assert_eq!(by_writer.chosen_view, by_reader.chosen_view, "{tag}");
            assert_eq!(by_writer.probes_pruned, by_reader.probes_pruned, "{tag}");
            assert_eq!(by_writer.lattice_depth, by_reader.lattice_depth, "{tag}");
            assert_eq!(probes(&by_writer), probes(&by_reader), "{tag}");
            if pass == "warm" || by_writer.cached_probes == 0 {
                assert_eq!(whole(&by_writer), whole(&by_reader), "{tag}");
            } else {
                assert!(by_writer.fresh_probes <= by_reader.fresh_probes, "{tag}");
                assert!(
                    by_writer.fact_saturations <= by_reader.fact_saturations,
                    "{tag}"
                );
            }
        }
    }
    for query in queries {
        let tag = format!("{label}: execution of {}", query.name);
        let by_writer = writer.execute(query);
        let by_reader = reader.execute(query);
        assert_eq!(by_writer, by_reader, "{tag}");
        let report = twin.explain(query);
        let (_, stats) = by_reader;
        assert_eq!(report.chosen, stats.used_view, "{tag}: explain().chosen");
        if stats.used_view.is_some() {
            assert_eq!(
                report.actual_candidates,
                Some(stats.candidates_examined),
                "{tag}: explain().actual_candidates"
            );
        }
    }
    check_pinned_estimates(&mut twin_engine, &mut twin, queries, label);
}

/// The cost model reads the snapshot a reader pinned. Three new objects
/// committed into a class the first narrowable query intersects with
/// leave the reader's `EXPLAIN` estimates as they were until it syncs;
/// after the sync they are the store's new counts.
fn check_pinned_estimates(
    engine: &mut OptimizedDatabase,
    reader: &mut Reader,
    queries: &[QueryClassDecl],
    label: &str,
) {
    let estimates = |report: &ExplainReport| {
        let frontier: Vec<(String, usize)> = report
            .frontier
            .iter()
            .map(|view| (view.name.clone(), view.estimated_candidates))
            .collect();
        (report.narrowing_order.clone(), frontier)
    };
    let Some((query, before)) = queries.iter().find_map(|query| {
        let report = reader.explain(query);
        (!report.narrowing_order.is_empty()).then_some((query, report))
    }) else {
        return;
    };
    let tag = format!("{label}: estimates of {}", query.name);
    let (class, count) = before.narrowing_order[0].clone();
    engine
        .commit_durable(|db| {
            for i in 0..3 {
                let object = db.add_object(&format!("pinned_estimate_probe_{i}"));
                db.assert_class(object, &class);
            }
        })
        .expect("commits");
    assert_eq!(
        estimates(&reader.explain(query)),
        estimates(&before),
        "{tag}: moved before the reader synced"
    );
    assert!(reader.sync(), "{tag}: the commit was published");
    let after = reader.explain(query);
    let db = engine.database();
    for (narrowing, cardinality) in &after.narrowing_order {
        assert_eq!(
            *cardinality,
            db.class_cardinality(narrowing),
            "{tag}: {narrowing}"
        );
    }
    assert!(
        after.narrowing_order.contains(&(class.clone(), count + 3)),
        "{tag}: {class} did not grow by the three commits"
    );
    for view in &after.frontier {
        let bound = after
            .narrowing_order
            .iter()
            .map(|(_, cardinality)| *cardinality)
            .fold(view.extent, usize::min);
        assert_eq!(view.estimated_candidates, bound, "{tag}: {}", view.name);
    }
}

fn hierarchy_instance(seed: u64, params: HierarchyParams, label: &str) {
    let instance = hierarchical_catalog(seed, params);
    let odb = OptimizedDatabase::new(instance.db.clone()).expect("translates");
    check_catalog(odb, &instance.view_names, &instance.queries, label);
}

/// 160 deterministic-shape catalogs: every family × sizes × seeds.
#[test]
fn workload_families_are_plan_equivalent() {
    for shape in [
        FamilyShape::Chain,
        FamilyShape::Tree,
        FamilyShape::Diamond,
        FamilyShape::Flat,
        FamilyShape::Random,
    ] {
        for views in [3usize, 6, 10, 14] {
            for seed in 0..8u64 {
                let params = HierarchyParams {
                    shape,
                    views,
                    members_per_class: 2,
                    queries: 5,
                    intersect_percent: 0,
                    duplicate_percent: 0,
                };
                hierarchy_instance(
                    seed,
                    params,
                    &format!("{}/views={views}/seed={seed}", shape.name()),
                );
            }
        }
    }
}

/// 60 random catalogs with intersection views and Σ-equivalent duplicate
/// views (peer collapse on multi-parent DAGs).
#[test]
fn random_catalogs_with_intersections_and_duplicates_are_plan_equivalent() {
    for views in [5usize, 9, 13] {
        for seed in 100..120u64 {
            let params = HierarchyParams {
                shape: FamilyShape::Random,
                views,
                members_per_class: 2,
                queries: 5,
                intersect_percent: 40,
                duplicate_percent: 25,
            };
            hierarchy_instance(seed, params, &format!("random+/views={views}/seed={seed}"));
        }
    }
}

/// Medical catalogs over synthetic hospital states: real derived-path and
/// `where`-clause concepts (ViewPatient) mixed with trivial class views,
/// growing subsets of the catalog, and the paper's QueryPatient plus
/// structural queries as the incoming workload.
#[test]
fn medical_catalog_subsets_are_plan_equivalent() {
    let all_views = [
        "ViewPatient",
        "Person",
        "Patient",
        "Doctor",
        "Male",
        "Female",
        "Drug",
        "Disease",
        "Topic",
        "String",
    ];
    let model = subq::dl::samples::medical_model();
    let mut queries: Vec<QueryClassDecl> = vec![
        model.query_class("QueryPatient").expect("declared").clone(),
        model.query_class("ViewPatient").expect("declared").clone(),
    ];
    for (name, classes) in [
        ("AllPatients", vec!["Patient"]),
        ("AllFemales", vec!["Female"]),
        ("FemalePatients", vec!["Female", "Patient"]),
        ("MaleDoctors", vec!["Male", "Doctor"]),
    ] {
        queries.push(QueryClassDecl {
            name: name.into(),
            is_a: classes.into_iter().map(str::to_owned).collect(),
            derived: vec![],
            where_eqs: vec![],
            constraint: None,
        });
    }
    let mut checked = 0usize;
    for seed in 0..5u64 {
        let db = synthetic_hospital(
            seed,
            HospitalParams {
                patients: 120,
                view_match_percent: 25,
                query_match_percent: 50,
                ..HospitalParams::default()
            },
        );
        // Growing prefixes of the catalog, and a rotated order per seed so
        // different insertion sequences classify the same sets.
        for take in [2usize, 4, 7, 10] {
            let names: Vec<String> = (0..take)
                .map(|i| all_views[(i + seed as usize) % all_views.len()].to_owned())
                .collect();
            let odb = OptimizedDatabase::new(db.clone()).expect("translates");
            check_catalog(
                odb,
                &names,
                &queries,
                &format!("medical/seed={seed}/n={take}"),
            );
            checked += 1;
        }
    }
    assert_eq!(checked, 20);
}
