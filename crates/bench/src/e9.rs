//! E9 — flat scan versus subsumption-lattice traversal when planning over
//! hierarchical view catalogs. Per catalog shape (tree, chain, diamond,
//! flat) and size (10/50/200 views): `hierarchical_catalog` with seed 11,
//! 2 members per class, 8 fresh queries, no intersections or duplicates.
//! The flat arm probes every view once per query; the lattice arm (a
//! fresh store, cold caches) prunes the sub-DAG under every failed probe
//! and must find the same subsumers.
//!
//! Counters: probes per query batch (the headline), views pruned, lattice
//! depth, classification probes. Wall-clock is single-shot, for
//! orientation.
//!
//! Bound (both sources): on the hierarchical catalogs of 50 views the
//! traversal performs at most 50% of the flat scan's probes; the flat
//! anti-hierarchy is the adversarial case where it degenerates to the
//! scan. `check` re-runs the table and compares every counter exactly.

use crate::{Experiment, Row, Source};
use std::time::Instant;
use subq::oodb::OptimizedDatabase;
use subq::workload::{hierarchical_catalog, FamilyShape, HierarchyInstance, HierarchyParams};

pub const EXPERIMENT: Experiment = Experiment {
    id: "e9",
    title: "flat scan vs subsumption-lattice traversal (8 fresh queries per row)",
    file: "BENCH_e9.json",
    rows: 12,
    table,
    live: None,
    counters: &[
        "shape",
        "views",
        "queries",
        "flat_probes",
        "lattice_probes",
        "probes_pruned",
        "max_depth",
        "classify_probes",
    ],
    gate,
};

/// The four catalog shapes, in table order (E12's plan-quality arm walks
/// the same catalogs).
pub(crate) const SHAPES: [FamilyShape; 4] = [
    FamilyShape::Tree,
    FamilyShape::Chain,
    FamilyShape::Diamond,
    FamilyShape::Flat,
];

/// The seeded catalog of one `(shape, views)` cell.
pub(crate) fn catalog(shape: FamilyShape, views: usize) -> HierarchyInstance {
    let params = HierarchyParams {
        shape,
        views,
        members_per_class: 2,
        queries: 8,
        intersect_percent: 0,
        duplicate_percent: 0,
    };
    hierarchical_catalog(11, params)
}

/// A store with every view of the instance materialized and classified,
/// and the number of subsumption probes classification performed.
pub(crate) fn build(instance: &HierarchyInstance) -> (OptimizedDatabase, u64) {
    let mut odb = OptimizedDatabase::new(instance.db.clone()).expect("translates");
    let (_, misses_before) = odb.subsumption_cache_stats();
    for name in &instance.view_names {
        odb.materialize_view(name).expect("materializes");
    }
    let (_, misses_after) = odb.subsumption_cache_stats();
    assert!(odb.catalog().lattice_violations().is_empty());
    (odb, misses_after - misses_before)
}

fn table() -> Vec<Row> {
    let mut rows = Vec::new();
    for shape in SHAPES {
        for views in [10usize, 50, 200] {
            let instance = catalog(shape, views);

            let (mut flat_odb, _) = build(&instance);
            let start = Instant::now();
            let mut flat_probes = 0usize;
            let mut flat_subsumers = Vec::new();
            for query in &instance.queries {
                let plan = flat_odb.plan_flat(query);
                flat_probes += plan.fresh_probes + plan.cached_probes;
                flat_subsumers.push(plan.subsuming_views);
            }
            let flat_time = start.elapsed();

            let (mut lattice_odb, classify_probes) = build(&instance);
            let start = Instant::now();
            let (mut lattice_probes, mut pruned, mut max_depth) = (0usize, 0usize, 0usize);
            for query in &instance.queries {
                let plan = lattice_odb.plan(query);
                lattice_probes += plan.fresh_probes + plan.cached_probes;
                pruned += plan.probes_pruned;
                max_depth = max_depth.max(plan.lattice_depth);
            }
            let lattice_time = start.elapsed();

            // The traversal's frontier choice must agree with the flat
            // scan (smallest-extension containment argument).
            for (query, flat_set) in instance.queries.iter().zip(&flat_subsumers) {
                let plan = lattice_odb.plan(query);
                for name in &plan.subsuming_views {
                    assert!(flat_set.contains(name), "{name} not found by flat scan");
                }
                assert_eq!(plan.subsuming_views.is_empty(), flat_set.is_empty());
            }

            rows.push(
                Row::new("e9_lattice")
                    .text("shape", shape.name())
                    .int("views", views)
                    .int("queries", instance.queries.len())
                    .int("flat_probes", flat_probes)
                    .int("lattice_probes", lattice_probes)
                    .int("probes_pruned", pruned)
                    .int("max_depth", max_depth)
                    .int("classify_probes", classify_probes)
                    .int("flat_plan_ns", flat_time.as_nanos())
                    .int("lattice_plan_ns", lattice_time.as_nanos()),
            );
        }
    }
    rows
}

fn gate(rows: &[Row], _: Source, failures: &mut Vec<String>) -> Result<(), String> {
    for row in rows {
        let (shape, lattice, flat) = (
            row.str("shape")?,
            row.u64("lattice_probes")?,
            row.u64("flat_probes")?,
        );
        if row.u64("views")? == 50 && shape != "flat" && 2 * lattice > flat {
            failures.push(format!(
                "{shape} views=50: {lattice} lattice probes exceed 50% of the flat scan's {flat}"
            ));
        }
    }
    Ok(())
}
