//! E10 — incremental versus full view maintenance after a single-object
//! update. Per `(objects, views)` ∈ {100, 1k, 10k} × {10, 50}: a seeded
//! churn instance (seed 13, tree-shaped hierarchy, one class view per
//! class, 20% with a derived `link` path), every view materialized and
//! fresh, then **one** update — a new object asserted into the deepest
//! class, so membership propagates up the tree, one delta per ancestor —
//! refreshed incrementally and, on a twin, by full re-evaluation. Both
//! must land on identical extensions.
//!
//! Counters: log deltas consumed, candidates examined, membership
//! conditions evaluated (the headline), lattice prunes, and the
//! memberships a full refresh evaluates (every view's whole initial
//! candidate set). Wall-clock is single-shot, for orientation.
//!
//! Bound (both sources): at 10k objects × 50 views the incremental
//! refresh evaluates at least 10× fewer memberships than the full one.
//! `check` re-runs the table and compares every counter exactly.

use crate::{Experiment, Row, Source};
use std::time::Instant;
use subq::oodb::eval::initial_candidates;
use subq::oodb::OptimizedDatabase;
use subq::workload::{churn_trace, ChurnParams, FamilyShape};

pub const EXPERIMENT: Experiment = Experiment {
    id: "e10",
    title: "incremental vs full refresh after a single-object update",
    file: "BENCH_e10.json",
    rows: 6,
    table,
    live: None,
    counters: &[
        "objects",
        "views",
        "deltas",
        "inc_candidates",
        "inc_memberships",
        "inc_prunes",
        "full_memberships",
    ],
    gate,
};

fn table() -> Vec<Row> {
    let mut rows = Vec::new();
    for objects in [100usize, 1_000, 10_000] {
        for views in [10usize, 50] {
            rows.push(arm(objects, views));
        }
    }
    rows
}

fn arm(objects: usize, views: usize) -> Row {
    let params = ChurnParams {
        shape: FamilyShape::Tree,
        classes: views,
        views,
        path_view_percent: 20,
        objects,
        transactions: 0,
        ops_per_transaction: 1,
        retract_percent: 40,
    };
    let trace = churn_trace(13, params);
    let mut incremental = OptimizedDatabase::new(trace.db.clone()).expect("translates");
    let mut full = OptimizedDatabase::new(trace.db).expect("translates");
    for name in &trace.view_names {
        incremental.materialize_view(name).expect("materializes");
        full.materialize_view(name).expect("materializes");
    }

    let deepest = format!("K{}", views - 1);
    for odb in [&mut incremental, &mut full] {
        odb.update(|db| {
            let obj = db.add_object("update_target");
            db.assert_class(obj, &deepest);
        });
    }

    let before = incremental.maintenance_stats();
    let start = Instant::now();
    incremental.refresh_views();
    let inc_ns = start.elapsed().as_nanos();
    let after = incremental.maintenance_stats();

    let full_memberships: usize = trace
        .view_names
        .iter()
        .map(|name| {
            let view = full.catalog().view(name).expect("stored");
            initial_candidates(full.database(), &view.definition).len()
        })
        .sum();
    let start = Instant::now();
    full.catalog().refresh_full(full.database());
    let full_ns = start.elapsed().as_nanos();

    for name in &trace.view_names {
        let a = incremental.catalog().view(name).expect("stored");
        let b = full.catalog().view(name).expect("stored");
        assert_eq!(a.extent, b.extent, "E10 {objects}×{views}: view {name}");
    }

    Row::new("e10_maintenance")
        .int("objects", objects)
        .int("views", views)
        .int("deltas", after.deltas_applied - before.deltas_applied)
        .int(
            "inc_candidates",
            after.candidates_examined - before.candidates_examined,
        )
        .int(
            "inc_memberships",
            after.memberships_evaluated - before.memberships_evaluated,
        )
        .int("inc_prunes", after.lattice_prunes - before.lattice_prunes)
        .int("full_memberships", full_memberships)
        .int("inc_refresh_ns", inc_ns)
        .int("full_refresh_ns", full_ns)
}

fn gate(rows: &[Row], _: Source, failures: &mut Vec<String>) -> Result<(), String> {
    for row in rows {
        let (inc, full) = (row.u64("inc_memberships")?, row.u64("full_memberships")?);
        if row.u64("objects")? == 10_000 && row.u64("views")? == 50 && full < 10 * inc.max(1) {
            failures.push(format!(
                "objects=10000 views=50: incremental refresh evaluated {inc} memberships, full {full} — below the 10× acceptance bound"
            ));
        }
    }
    Ok(())
}
