//! Process-wide telemetry of the storage and optimizer layer.
//!
//! Latency histograms span the writer's plan/execute/commit/checkpoint
//! paths and the WAL's fsync barrier; counters mirror the per-catalog
//! [`MaintenanceStats`](crate::maintain::MaintenanceStats) by bumping at
//! the same sites, so the registry aggregates every catalog in the
//! process without double-counting.

use std::sync::OnceLock;
use subq_telemetry::{Counter, Histogram};

/// Handles to the oodb metrics in the global registry.
pub struct OodbMetrics {
    /// Writer-side `plan` latency (nanoseconds).
    pub plan_ns: Histogram,
    /// Writer-side `execute` latency (nanoseconds).
    pub execute_ns: Histogram,
    /// Reader-side `plan` latency (nanoseconds).
    pub reader_plan_ns: Histogram,
    /// Reader-side `execute` latency (nanoseconds).
    pub reader_execute_ns: Histogram,
    /// [`Reader::sync`](crate::snapshot::Reader::sync) when it adopts a
    /// newer snapshot, freeing the replaced one included (nanoseconds).
    pub reader_sync_ns: Histogram,
    /// [`commit_durable`](crate::optimizer::OptimizedDatabase::commit_durable)
    /// latency: mutation, WAL append (with its fsync when it closes a
    /// group), view refresh and, once synced, snapshot publication
    /// (nanoseconds).
    pub commit_publish_ns: Histogram,
    /// Checkpoint image write latency (nanoseconds).
    pub checkpoint_ns: Histogram,
    /// Durable-open latency: recovery replay (or genesis checkpoint)
    /// through first publication (nanoseconds).
    pub recovery_ns: Histogram,
    /// WAL fsync barrier latency (nanoseconds).
    pub wal_fsync_ns: Histogram,
    /// Records covered per fsync (the group-commit batch size).
    pub wal_batch_records: Histogram,
    /// Candidate-ball size routed to one view by one refresh pass.
    pub maintenance_candidates: Histogram,
    /// Mirrors of [`MaintenanceStats`](crate::maintain::MaintenanceStats).
    pub maint_deltas_applied: Counter,
    pub maint_candidates_examined: Counter,
    pub maint_memberships_evaluated: Counter,
    pub maint_lattice_prunes: Counter,
    pub maint_full_reevaluations: Counter,
    pub maint_empty_refreshes: Counter,
    /// Advisor lifecycle counters (see [`crate::advisor`]).
    pub advisor_materialized: Counter,
    pub advisor_evicted: Counter,
    pub advisor_rejected_subsumed: Counter,
    /// Gain estimate (cost-model probes) of each auto-materialized shape.
    pub advisor_gain_estimate: Histogram,
    /// Queries routed through each chosen frontier view, summed over all
    /// views (per-view tallies live in the [`Advisor`](crate::advisor::Advisor),
    /// which surfaces them as `subq_view_hits{view=…}` gauges registered
    /// lazily by name).
    pub view_hits: Counter,
}

/// The oodb metrics, registered on first use.
pub fn metrics() -> &'static OodbMetrics {
    static METRICS: OnceLock<OodbMetrics> = OnceLock::new();
    METRICS.get_or_init(|| OodbMetrics {
        plan_ns: subq_telemetry::histogram("subq_plan_ns"),
        execute_ns: subq_telemetry::histogram("subq_execute_ns"),
        reader_plan_ns: subq_telemetry::histogram("subq_reader_plan_ns"),
        reader_execute_ns: subq_telemetry::histogram("subq_reader_execute_ns"),
        reader_sync_ns: subq_telemetry::histogram("subq_reader_sync_ns"),
        commit_publish_ns: subq_telemetry::histogram("subq_commit_publish_ns"),
        checkpoint_ns: subq_telemetry::histogram("subq_checkpoint_ns"),
        recovery_ns: subq_telemetry::histogram("subq_recovery_ns"),
        wal_fsync_ns: subq_telemetry::histogram("subq_wal_fsync_ns"),
        wal_batch_records: subq_telemetry::histogram("subq_wal_batch_records"),
        maintenance_candidates: subq_telemetry::histogram("subq_maintenance_candidates"),
        maint_deltas_applied: subq_telemetry::counter("subq_maintenance_deltas_applied_total"),
        maint_candidates_examined: subq_telemetry::counter(
            "subq_maintenance_candidates_examined_total",
        ),
        maint_memberships_evaluated: subq_telemetry::counter(
            "subq_maintenance_memberships_evaluated_total",
        ),
        maint_lattice_prunes: subq_telemetry::counter("subq_maintenance_lattice_prunes_total"),
        maint_full_reevaluations: subq_telemetry::counter(
            "subq_maintenance_full_reevaluations_total",
        ),
        maint_empty_refreshes: subq_telemetry::counter("subq_maintenance_empty_refreshes_total"),
        advisor_materialized: subq_telemetry::counter("subq_advisor_materialized_total"),
        advisor_evicted: subq_telemetry::counter("subq_advisor_evicted_total"),
        advisor_rejected_subsumed: subq_telemetry::counter("subq_advisor_rejected_subsumed_total"),
        advisor_gain_estimate: subq_telemetry::histogram("subq_advisor_gain_estimate"),
        view_hits: subq_telemetry::counter("subq_view_hits_total"),
    })
}
