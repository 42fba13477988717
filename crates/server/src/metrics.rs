//! Process-wide telemetry of the serving layer.
//!
//! Histograms time each op class at the session boundary (parse to
//! reply); counters mirror [`ServerStats`](crate::server::ServerStats)
//! by bumping at the same sites, so the registry carries one aggregate
//! enumeration of every server counter; gauges track the write queue's
//! depth and the number of open sessions.

use std::sync::OnceLock;
use subq_telemetry::{Counter, Gauge, Histogram};

/// Handles to the server metrics in the global registry.
pub struct SrvMetrics {
    /// Query round trip inside the worker: validate, execute, name the
    /// answers (nanoseconds).
    pub query_ns: Histogram,
    /// Transaction latency from write-queue submission to the writer's
    /// `COMMITTED` completion (nanoseconds).
    pub commit_ns: Histogram,
    /// DDL latency (DEFVIEW/MATERIALIZE) from submission to completion
    /// (nanoseconds).
    pub ddl_ns: Histogram,
    /// EXPLAIN round trip inside the worker (nanoseconds).
    pub explain_ns: Histogram,
    /// Write commands queued but not yet drained by the writer.
    pub queue_depth: Gauge,
    /// Sessions currently open across all workers.
    pub active_sessions: Gauge,
    /// Payload bytes read from client sockets.
    pub bytes_in: Counter,
    /// Payload bytes written to client sockets.
    pub bytes_out: Counter,
    /// Mirrors of [`ServerStats`](crate::server::ServerStats).
    pub accepted: Counter,
    pub closed: Counter,
    pub queries: Counter,
    pub commits: Counter,
    pub busy_replies: Counter,
    pub protocol_errors: Counter,
    pub frame_errors: Counter,
    pub idle_closes: Counter,
    pub worker_wakeups: Counter,
    /// Wakes sent to a worker or the acceptor: dealt connections,
    /// completed write batches, shutdown, a failed durable engine.
    pub waker_signals: Counter,
}

/// The server metrics, registered on first use.
pub fn metrics() -> &'static SrvMetrics {
    static METRICS: OnceLock<SrvMetrics> = OnceLock::new();
    METRICS.get_or_init(|| SrvMetrics {
        query_ns: subq_telemetry::histogram("subq_server_query_ns"),
        commit_ns: subq_telemetry::histogram("subq_server_commit_ns"),
        ddl_ns: subq_telemetry::histogram("subq_server_ddl_ns"),
        explain_ns: subq_telemetry::histogram("subq_server_explain_ns"),
        queue_depth: subq_telemetry::gauge("subq_server_queue_depth"),
        active_sessions: subq_telemetry::gauge("subq_server_active_sessions"),
        bytes_in: subq_telemetry::counter("subq_server_bytes_in_total"),
        bytes_out: subq_telemetry::counter("subq_server_bytes_out_total"),
        accepted: subq_telemetry::counter("subq_server_accepted_total"),
        closed: subq_telemetry::counter("subq_server_closed_total"),
        queries: subq_telemetry::counter("subq_server_queries_total"),
        commits: subq_telemetry::counter("subq_server_commits_total"),
        busy_replies: subq_telemetry::counter("subq_server_busy_total"),
        protocol_errors: subq_telemetry::counter("subq_server_protocol_errors_total"),
        frame_errors: subq_telemetry::counter("subq_server_frame_errors_total"),
        idle_closes: subq_telemetry::counter("subq_server_idle_closes_total"),
        worker_wakeups: subq_telemetry::counter("subq_server_worker_wakeups_total"),
        waker_signals: subq_telemetry::counter("subq_server_waker_signals_total"),
    })
}
