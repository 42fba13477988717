//! E14 — the `subqd` server under mixed churn+query load over loopback
//! TCP, through the real wire path: frames, sessions, the single-writer
//! command queue, group commit (64) into an in-memory durable backend —
//! the WAL encode and batching are real, the fsync is free, so rows
//! measure the server, not a disk. The trace is the standard churn schema
//! (seed 0xE14) with 120 objects, enough for non-trivial answers, and 64
//! transactions, enough that a fleet's round-robin shares stay disjoint;
//! every view is materialized and checkpointed before the server starts.
//! The `tests/server_*.rs` suites are the correctness side. Three arms:
//!
//! * `mixed` — 1/2/4/8 clients of 70%-query traffic, 200 ops each.
//!   Queries scale across the worker pool's lock-free readers;
//!   transactions serialize on the writer but amortize its fsync.
//! * `queue_depth` — 4 clients of write-heavy (40%-query) traffic against
//!   write queues of 1/4/16/64: how much each depth sheds as `BUSY`.
//! * `saturation` — 8 clients of 90%-write traffic against a queue of 1.
//!
//! Every column is a count. Served latency is `benchmark/`'s to time; what
//! only this closed loop shows is how the server sheds and whether it ever
//! answers valid traffic with an error. `ops`, `queries`, `txns` and the
//! typed-`ERR` columns follow from the seeded schedules, so `check` re-runs
//! the table and compares them exactly. `BUSY` counts depend on timing and
//! are recorded, not compared.
//!
//! Bounds (both sources):
//!
//! * every row: zero typed `ERR` replies — mixed traffic over a valid
//!   trace never produces one;
//! * the saturation row records at least one `BUSY` — admission control
//!   visibly engaged — while completing every operation.

use crate::{Experiment, Row, Source};
use std::sync::Arc;
use subq::oodb::{AdvisorConfig, AdvisorMode, DurableOptions, FaultyBackend, OptimizedDatabase};
use subq::server::{run_mixed_load, LoadParams, LoadReport, Server, ServerConfig};
use subq::workload::traffic::TrafficParams;
use subq::workload::{churn_trace, ChurnParams, ChurnTrace};

pub const EXPERIMENT: Experiment = Experiment {
    id: "e14",
    title: "the subqd server under mixed churn+query load over loopback TCP",
    file: "BENCH_e14.json",
    rows: 9,
    table,
    live: None,
    counters: &[
        "ops",
        "queries",
        "txns",
        "errors",
        "query_errors",
        "txn_errors",
    ],
    gate,
};

fn table() -> Vec<Row> {
    let mut rows = Vec::new();
    for clients in [1usize, 2, 4, 8] {
        let report = run(clients, 64, 70, 200, AdvisorMode::Off);
        let head = Row::new("e14_server")
            .text("arm", "mixed")
            .int("clients", clients);
        rows.push(shed_cells(head, &report));
    }
    for queue in [1usize, 4, 16, 64] {
        let clients = 4;
        let report = run(clients, queue, 40, 200, AdvisorMode::Off);
        let head = Row::new("e14_server")
            .text("arm", "queue_depth")
            .int("queue", queue)
            .int("clients", clients);
        rows.push(shed_cells(head, &report));
    }
    let (clients, queue) = (8, 1);
    let report = run(clients, queue, 10, 150, AdvisorMode::Off);
    let head = Row::new("e14_server")
        .text("arm", "saturation")
        .int("clients", clients)
        .int("queue", queue);
    rows.push(shed_cells(head, &report));
    rows
}

fn gate(rows: &[Row], _: Source, failures: &mut Vec<String>) -> Result<(), String> {
    for row in rows {
        let (arm, errors) = (row.str("arm")?, row.u64("errors")?);
        if errors != 0 {
            let clients = row.u64("clients")?;
            failures.push(format!(
                "the {arm} row at {clients} clients records {errors} typed ERR replies (must be 0)"
            ));
        }
        match arm {
            "mixed" | "queue_depth" => {}
            "saturation" => {
                if row.u64("busy")? == 0 {
                    failures.push(
                        "the saturation row records zero BUSY replies — admission control never engaged"
                            .to_string(),
                    );
                }
            }
            _ => return Err(row.unexpected("arm", "a known arm")),
        }
    }
    Ok(())
}

/// Drives `clients` threads of mixed traffic (each `ops` operations,
/// `query_percent`% queries) at the served E14 trace with the advisor in
/// `mode` — E15's observe-overhead gate compares `Off` against `Observe`
/// on this otherwise identical stationary mix.
pub(crate) fn run(
    clients: usize,
    queue: usize,
    query_percent: u8,
    ops: usize,
    mode: AdvisorMode,
) -> LoadReport {
    let params = ChurnParams {
        objects: 120,
        transactions: 64,
        ..ChurnParams::default()
    };
    let advisor = AdvisorConfig {
        mode,
        ..AdvisorConfig::default()
    };
    let config = ServerConfig {
        write_queue: queue,
        advisor,
        ..ServerConfig::default()
    };
    let load = LoadParams {
        clients,
        traffic: TrafficParams { query_percent, ops },
        ..LoadParams::default()
    };
    serve(&churn_trace(0xE14, params), true, config, load)
}

/// Opens the trace's store on an in-memory durable backend (group commit
/// 64), materializes every view by hand if asked (and checkpoints), serves
/// it under `config` and drives `load` at it.
pub(crate) fn serve(
    trace: &ChurnTrace,
    hand_tuned: bool,
    config: ServerConfig,
    load: LoadParams,
) -> LoadReport {
    let backend = Arc::new(FaultyBackend::new());
    let options = DurableOptions { group_commit: 64 };
    let mut odb =
        OptimizedDatabase::open(backend, options, || trace.db.clone()).expect("genesis open");
    if hand_tuned {
        for name in &trace.view_names {
            odb.materialize_view(name).expect("materializes");
        }
        odb.checkpoint().expect("checkpoint after materialization");
    }
    let server = Server::start(odb, config).expect("binds loopback");
    let report = run_mixed_load(server.addr(), trace, load).expect("load run");
    server.shutdown();
    report
}

/// The cells every arm records after its own head: the operations
/// completed by class, then `BUSY` and typed `ERR` replies, each split by
/// the op class that drew them.
fn shed_cells(row: Row, report: &LoadReport) -> Row {
    row.int("ops", report.ops)
        .int("queries", report.queries)
        .int("txns", report.txns)
        .int("busy", report.busy)
        .int("query_busy", report.query_busy)
        .int("txn_busy", report.txn_busy)
        .int("errors", report.errors)
        .int("query_errors", report.query_errors)
        .int("txn_errors", report.txn_errors)
}
