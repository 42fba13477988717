//! Equivalence suite for the incremental view-maintenance engine: over
//! hundreds of random churn traces (mixed class/attribute asserts and
//! retracts applied in transactions), after **every** transaction the
//! incrementally maintained extensions must equal
//!
//! * the [`refresh_full`](subq::oodb::ViewCatalog::refresh_full) oracle's
//!   extensions on an identically mutated twin database, and
//! * a from-scratch `evaluate_query` of every view definition,
//!
//! and the maintenance counters must stay sane: memberships evaluated
//! never exceed candidates examined, candidates per pass never exceed
//! `stale views × objects`, and lattice prunes only occur when the
//! catalog actually has Hasse edges or equivalence peers to prune
//! through.

use subq::oodb::{evaluate_query, MaintenanceStats, OptimizedDatabase};
use subq::workload::{churn_trace, ChurnParams, FamilyShape};

/// Runs one churn trace through an incrementally maintained catalog and a
/// full-re-evaluation twin, checking equivalence after every transaction.
/// Returns the number of transactions checked.
fn check_trace(seed: u64, params: ChurnParams, label: &str) -> usize {
    let trace = churn_trace(seed, params);
    let mut incremental = OptimizedDatabase::new(trace.db.clone()).expect("translates");
    let mut oracle = OptimizedDatabase::new(trace.db).expect("translates");
    for name in &trace.view_names {
        incremental
            .materialize_view(name)
            .unwrap_or_else(|e| panic!("{label}: materializing {name}: {e}"));
        oracle
            .materialize_view(name)
            .unwrap_or_else(|e| panic!("{label}: materializing {name}: {e}"));
    }
    let has_lattice_structure = !incremental.catalog().lattice_edges().is_empty();

    let mut checked = 0usize;
    for (t, txn) in trace.transactions.iter().enumerate() {
        incremental.update(|db| {
            for op in txn {
                op.apply(db);
            }
        });
        oracle.update(|db| {
            for op in txn {
                op.apply(db);
            }
        });

        let before: MaintenanceStats = incremental.maintenance_stats();
        incremental.refresh_views();
        let after: MaintenanceStats = incremental.maintenance_stats();
        oracle.catalog().refresh_full(oracle.database());

        // --- Extensions: incremental ≡ full oracle ≡ scratch.
        for name in &trace.view_names {
            let inc = incremental.catalog().view(name).expect("stored");
            let full = oracle.catalog().view(name).expect("stored");
            assert_eq!(
                inc.extent, full.extent,
                "{label}: txn {t}: view {name}: incremental ≠ refresh_full"
            );
            let scratch = evaluate_query(incremental.database(), &inc.definition);
            assert_eq!(
                *inc.extent, scratch,
                "{label}: txn {t}: view {name}: incremental ≠ scratch"
            );
            // A refresh that found the log suffix routing zero views
            // returns without touching view state (PR 5) — including
            // silently, when a previous pass already scanned through the
            // current version — so `fresh_as_of` may legitimately lag;
            // freshness *in substance* is the scratch comparison above.
            // After a pass that actually propagated (scanned deltas or
            // re-evaluated in full), every view must be version-fresh.
            let propagated = after.deltas_applied > before.deltas_applied
                || after.full_reevaluations > before.full_reevaluations;
            if propagated {
                assert_eq!(
                    inc.fresh_as_of,
                    incremental.database().data_version(),
                    "{label}: txn {t}: view {name} left stale"
                );
            }
        }

        // --- Stats sanity for this pass.
        let candidates = after.candidates_examined - before.candidates_examined;
        let evaluated = after.memberships_evaluated - before.memberships_evaluated;
        let prunes = after.lattice_prunes - before.lattice_prunes;
        assert!(
            evaluated <= candidates,
            "{label}: txn {t}: evaluated {evaluated} > candidates {candidates}"
        );
        assert!(
            prunes <= candidates,
            "{label}: txn {t}: prunes {prunes} > candidates {candidates}"
        );
        let ceiling = (trace.view_names.len() * incremental.database().object_count()
            + incremental.maintenance_stats().full_reevaluations as usize
                * incremental.database().object_count()) as u64;
        assert!(
            candidates <= ceiling,
            "{label}: txn {t}: candidates {candidates} > views × objects ceiling {ceiling}"
        );
        if !has_lattice_structure {
            assert_eq!(
                prunes, 0,
                "{label}: txn {t}: prunes without lattice edges or peers"
            );
        }
        checked += 1;
    }
    checked
}

/// 220 traces: every shape × two catalog configurations × 20 seeds, plus
/// 20 seeds of a Diamond catalog whose twelve views wrap around six
/// classes, so Σ-equivalent peers and path views share one lattice.
#[test]
fn incremental_maintenance_is_equivalent_on_200_churn_traces() {
    let mut traces = 0usize;
    let mut transactions = 0usize;
    for shape in [
        FamilyShape::Chain,
        FamilyShape::Tree,
        FamilyShape::Diamond,
        FamilyShape::Flat,
        FamilyShape::Random,
    ] {
        for (config, params) in [
            (
                "classviews",
                ChurnParams {
                    shape,
                    classes: 5,
                    views: 7,
                    path_view_percent: 0,
                    objects: 24,
                    transactions: 6,
                    ops_per_transaction: 4,
                    retract_percent: 40,
                },
            ),
            (
                "pathviews",
                ChurnParams {
                    shape,
                    classes: 6,
                    views: 9,
                    path_view_percent: 60,
                    objects: 30,
                    transactions: 6,
                    ops_per_transaction: 5,
                    retract_percent: 40,
                },
            ),
        ] {
            for seed in 0..20u64 {
                transactions += check_trace(
                    seed,
                    params,
                    &format!("{}/{config}/seed={seed}", shape.name()),
                );
                traces += 1;
            }
        }
    }
    for seed in 0..20u64 {
        transactions += check_trace(
            seed,
            ChurnParams {
                shape: FamilyShape::Diamond,
                classes: 6,
                views: 12,
                path_view_percent: 30,
                objects: 40,
                transactions: 6,
                ops_per_transaction: 5,
                retract_percent: 40,
            },
            &format!("diamond/wraparound/seed={seed}"),
        );
        traces += 1;
    }
    assert_eq!(traces, 220);
    assert!(
        transactions >= 220,
        "only {transactions} transactions across all traces"
    );
}

/// Retraction-heavy traces drill the downward isA propagation path
/// (retracting a class strips its subclasses too) and attribute-index
/// shrinkage much harder than the default blend — the crash-recovery
/// suite replays the same mixes from the write-ahead log, so the
/// in-memory maintenance must hold up on them first.
#[test]
fn retraction_heavy_churn_stays_equivalent() {
    let mut transactions = 0usize;
    for shape in [FamilyShape::Chain, FamilyShape::Tree, FamilyShape::Random] {
        for seed in 300..305u64 {
            transactions += check_trace(
                seed,
                ChurnParams {
                    shape,
                    classes: 6,
                    views: 8,
                    path_view_percent: 40,
                    objects: 24,
                    transactions: 8,
                    ops_per_transaction: 5,
                    retract_percent: 85,
                },
                &format!("{}/retract-heavy/seed={seed}", shape.name()),
            );
        }
    }
    assert!(transactions >= 100, "only {transactions} transactions");
}

/// Views with no schema superclass have the *all objects* candidate set,
/// so even a bare `AddObject` delta (an object with no classes and no
/// attributes yet) must reach them incrementally.
#[test]
fn unrestricted_views_see_bare_new_objects() {
    let mut model = subq::dl::DlModel::new();
    model.classes.push(subq::dl::ClassDecl {
        name: "K".into(),
        is_a: vec![],
        attributes: vec![],
        constraint: None,
    });
    model.queries.push(subq::dl::QueryClassDecl {
        name: "Everything".into(),
        is_a: vec![],
        derived: vec![],
        where_eqs: vec![],
        constraint: None,
    });
    model.queries.push(subq::dl::QueryClassDecl {
        name: "AllK".into(),
        is_a: vec!["K".into()],
        derived: vec![],
        where_eqs: vec![],
        constraint: None,
    });
    let mut db = subq::oodb::Database::new(model);
    let first = db.add_object("first");
    db.assert_class(first, "K");
    let mut odb = OptimizedDatabase::new(db).expect("translates");
    odb.materialize_view("Everything").expect("materializes");
    odb.materialize_view("AllK").expect("materializes");

    odb.update(|db| {
        db.add_object("bare");
    });
    odb.refresh_views();
    let everything = odb.catalog().view("Everything").expect("stored");
    assert_eq!(everything.extent.len(), 2, "the bare object is an answer");
    let all_k = odb.catalog().view("AllK").expect("stored");
    assert_eq!(all_k.extent.len(), 1, "the bare object is not a K");
    for view in [&everything, &all_k] {
        assert_eq!(
            *view.extent,
            evaluate_query(odb.database(), &view.definition)
        );
    }
}

/// Regression: a constraint clause can reference an object *by name*
/// (`Term::Ident` falls back to `db.object(name)`), so creating that
/// object — a bare `AddObject` delta with no class or attribute — changes
/// memberships of a schema-restricted view. The delta must reach the view
/// (volatile routing) even though it is not `unrestricted`.
#[test]
fn object_creation_reaches_views_with_name_referencing_constraints() {
    use subq::dl::{ClassDecl, ConstraintExpr, DlModel, QueryClassDecl, Term};
    let mut model = DlModel::new();
    model.classes.push(ClassDecl {
        name: "K".into(),
        is_a: vec![],
        attributes: vec![],
        constraint: None,
    });
    // Q keeps its members only while no object named `bob` exists.
    model.queries.push(QueryClassDecl {
        name: "Q".into(),
        is_a: vec!["K".into()],
        derived: vec![],
        where_eqs: vec![],
        constraint: Some(ConstraintExpr::Not(Box::new(ConstraintExpr::Eq(
            Term::Ident("bob".into()),
            Term::Ident("bob".into()),
        )))),
    });
    // The materializable view: restricted by the schema class K, volatile
    // through its query-class superclass Q.
    model.queries.push(QueryClassDecl {
        name: "ViaQ".into(),
        is_a: vec!["Q".into(), "K".into()],
        derived: vec![],
        where_eqs: vec![],
        constraint: None,
    });
    let mut db = subq::oodb::Database::new(model);
    let mary = db.add_object("mary");
    db.assert_class(mary, "K");
    let mut odb = OptimizedDatabase::new(db).expect("translates");
    odb.materialize_view("ViaQ").expect("materializes");
    assert_eq!(odb.catalog().view("ViaQ").expect("stored").extent.len(), 1);

    // The only delta is the bare creation of `bob`.
    odb.update(|db| {
        db.add_object("bob");
    });
    odb.refresh_views();
    let view = odb.catalog().view("ViaQ").expect("stored");
    assert!(
        view.extent.is_empty(),
        "bare AddObject delta missed the name-referencing constraint"
    );
    assert_eq!(
        *view.extent,
        evaluate_query(odb.database(), &view.definition)
    );
}

/// The equivalence also holds when the lattice has something to prune:
/// deep chain catalogs with duplicate (Σ-equivalent) views, heavier
/// churn, and a prune counter that actually fires.
#[test]
fn chain_catalogs_prune_through_the_lattice_and_stay_equivalent() {
    let params = ChurnParams {
        shape: FamilyShape::Chain,
        classes: 8,
        views: 16, // wraps around: V8..V15 duplicate V0..V7's classes
        path_view_percent: 0,
        objects: 40,
        transactions: 10,
        ops_per_transaction: 6,
        retract_percent: 40,
    };
    let mut pruned_total = 0u64;
    for seed in 100..110u64 {
        let trace = churn_trace(seed, params);
        let mut odb = OptimizedDatabase::new(trace.db).expect("translates");
        for name in &trace.view_names {
            odb.materialize_view(name).expect("materializes");
        }
        assert!(odb.catalog().lattice_violations().is_empty());
        for txn in &trace.transactions {
            odb.update(|db| {
                for op in txn {
                    op.apply(db);
                }
            });
            odb.refresh_views();
            for name in &trace.view_names {
                let view = odb.catalog().view(name).expect("stored");
                let scratch = evaluate_query(odb.database(), &view.definition);
                assert_eq!(*view.extent, scratch, "seed {seed}: view {name}");
            }
        }
        pruned_total += odb.maintenance_stats().lattice_prunes;
    }
    assert!(
        pruned_total > 0,
        "chain catalogs with duplicates must prune at least once"
    );
}
