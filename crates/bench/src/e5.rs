//! E5 — polynomial scaling of the subsumption calculus (Theorem 4.9,
//! Proposition 4.8). Four deterministic families each grow one size
//! parameter `n` ∈ {2, 4, 8, 16, 32}; every instance is subsumed by
//! construction and runs through the delta engine and the retained
//! full-scan reference engine, which must agree on the outcome.
//!
//! Counters: sizes, individuals, rule applications and the constraints
//! each engine examined (`examined_delta` grows with the derived
//! constraints, `examined_full_scan` with rounds × |F ∪ G|). Wall-clock
//! is best-of per instance, for orientation.
//!
//! Bound (both sources): the individual count never exceeds the M·N bound
//! of Proposition 4.8. `check` re-runs the table and compares every
//! counter exactly.

use crate::{run_instance, run_reference_instance, time_best, Experiment, Row, Source};
use subq::workload::scaling::{
    conjunction_width_instance, path_depth_instance, schema_size_instance, view_growth_instance,
};
use subq::workload::ScalingInstance;

pub const EXPERIMENT: Experiment = Experiment {
    id: "e5",
    title: "polynomial scaling of the subsumption calculus (Theorem 4.9, Prop. 4.8)",
    file: "BENCH_e5.json",
    rows: 20,
    table,
    live: None,
    counters: &[
        "family",
        "n",
        "query_size",
        "view_size",
        "schema_size",
        "individuals",
        "rule_applications",
        "examined_delta",
        "examined_full_scan",
    ],
    gate,
};

fn table() -> Vec<Row> {
    type Family = fn(usize) -> ScalingInstance;
    let families: [(&str, Family); 4] = [
        ("path_depth", path_depth_instance),
        ("conjunction_width", conjunction_width_instance),
        ("schema_size", schema_size_instance),
        ("view_growth", view_growth_instance),
    ];
    let mut rows = Vec::new();
    for (name, family) in families {
        for n in [2usize, 4, 8, 16, 32] {
            let mut instance = family(n);
            let sizes = (
                instance.query_size(),
                instance.view_size(),
                instance.schema_size(),
            );
            let (subsumed, stats) = run_instance(&mut instance);
            assert!(subsumed, "{name} n={n} must stay subsumed");
            let (ref_subsumed, ref_stats) = run_reference_instance(&mut family(n));
            assert_eq!(subsumed, ref_subsumed);
            assert_eq!(stats.outcome_only(), ref_stats.outcome_only());

            let delta_time = time_best(
                || family(n),
                |mut instance| {
                    run_instance(&mut instance);
                },
            );
            let naive_time = time_best(
                || family(n),
                |mut instance| {
                    run_reference_instance(&mut instance);
                },
            );
            let speedup = naive_time.as_secs_f64() / delta_time.as_secs_f64().max(1e-12);
            rows.push(
                Row::new("e5_polynomial_scaling")
                    .text("family", name)
                    .int("n", n)
                    .int("query_size", sizes.0)
                    .int("view_size", sizes.1)
                    .int("schema_size", sizes.2)
                    .int("individuals", stats.individuals)
                    .int("rule_applications", stats.rule_applications)
                    .int("examined_delta", stats.constraints_examined)
                    .int("examined_full_scan", ref_stats.constraints_examined)
                    .int("delta_ns", delta_time.as_nanos())
                    .int("full_scan_ns", naive_time.as_nanos())
                    .float("speedup", speedup, 3),
            );
        }
    }
    rows
}

fn gate(rows: &[Row], _: Source, failures: &mut Vec<String>) -> Result<(), String> {
    for row in rows {
        let (individuals, bound) = (
            row.u64("individuals")?,
            row.u64("query_size")? * row.u64("view_size")?,
        );
        if individuals > bound {
            let (family, n) = (row.str("family")?, row.u64("n")?);
            failures.push(format!(
                "{family} n={n}: {individuals} individuals exceed the M·N bound {bound}"
            ));
        }
    }
    Ok(())
}
