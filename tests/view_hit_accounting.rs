//! A routed execution is counted once.
//!
//! `subq_view_hits_total` is bumped by the executor when a query is
//! filtered through a view; the advisor pass that later harvests the same
//! execution from the reader's shape ring only folds it into the
//! advisor's per-view tally. This lives in a binary of its own because the metrics
//! registry is process-wide: any other test executing a query in the same
//! process would move the counter.

use subq::oodb::{AdvisorConfig, AdvisorMode, OptimizedDatabase};
use subq::workload::{synthetic_hospital, HospitalParams};

#[test]
fn reader_hits_are_counted_once_with_the_advisor_on() {
    const EXECUTIONS: u64 = 40;
    let db = synthetic_hospital(3, HospitalParams::default());
    // A structural query: constrained ones are executed through views too
    // but are not recorded as shapes, so the advisor never sees them.
    let query = db
        .model()
        .query_class("ViewPatient")
        .expect("declared")
        .clone();
    let mut writer = OptimizedDatabase::new(db).expect("translates");
    writer
        .materialize_view("ViewPatient")
        .expect("materializes");
    writer.set_advisor_config(AdvisorConfig {
        mode: AdvisorMode::Observe,
        ..AdvisorConfig::default()
    });
    writer.publish_snapshot();

    let total = subq::telemetry::counter("subq_view_hits_total");
    let before = total.get();
    let mut reader = writer.reader();
    for _ in 0..EXECUTIONS {
        let (_, stats) = reader.execute(&query);
        assert_eq!(stats.used_view.as_deref(), Some("ViewPatient"));
    }
    assert_eq!(total.get() - before, EXECUTIONS, "counted as they ran");

    let pass = writer.run_advisor().expect("pass");
    assert_eq!(pass.harvested as u64, EXECUTIONS);
    assert_eq!(
        total.get() - before,
        EXECUTIONS,
        "harvesting an execution must not count it again"
    );
    assert_eq!(writer.advisor().view_hits("ViewPatient"), EXECUTIONS);

    // The writer's own executions go through the same executor and the
    // same kind of ring.
    for _ in 0..3 {
        writer.execute(&query);
    }
    writer.run_advisor().expect("pass");
    assert_eq!(total.get() - before, EXECUTIONS + 3);
    assert_eq!(writer.advisor().view_hits("ViewPatient"), EXECUTIONS + 3);
}
