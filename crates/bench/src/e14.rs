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
//!   write queues of 1/4/16/64: deeper queues trade `BUSY` shedding for
//!   queueing delay in the transaction p99.
//! * `saturation` — 8 clients of 90%-write traffic against a queue of 1.
//!
//! Bounds:
//!
//! * every row, both sources: zero typed `ERR` replies — mixed traffic
//!   over a valid trace never produces one;
//! * the 4-client speedup over 1 client: [`scaling_gate`] — committed, the
//!   core-scaled bound (only the write minority serializes on the single
//!   writer); live (1 and 4 clients of 120 ops, best of up to three
//!   attempts), only the anti-collapse floor is hard — only a wedged
//!   worker pool or a serialized read path falls below it;
//! * committed: the saturation row records at least one `BUSY` —
//!   admission control visibly engaged — while completing every operation.

use crate::{
    attempts, best_speedup, core_scaled_bound, cores, scaling_gate, Experiment, Row, Source,
};
use std::sync::Arc;
use subq::oodb::{AdvisorConfig, AdvisorMode, DurableOptions, FaultyBackend, OptimizedDatabase};
use subq::server::{percentile, run_mixed_load, LoadParams, LoadReport, Server, ServerConfig};
use subq::workload::traffic::TrafficParams;
use subq::workload::{churn_trace, ChurnParams, ChurnTrace};

pub const EXPERIMENT: Experiment = Experiment {
    id: "e14",
    title: "the subqd server under mixed churn+query load over loopback TCP",
    file: "BENCH_e14.json",
    rows: 9,
    table,
    live: Some(live),
    counters: &[],
    gate,
};

fn table() -> Vec<Row> {
    let mut rows = mixed_rows(&[1, 2, 4, 8], 200);
    for queue in [1usize, 4, 16, 64] {
        let clients = 4;
        let report = run(clients, queue, 40, 200, AdvisorMode::Off);
        let head = Row::new("e14_server")
            .text("arm", "queue_depth")
            .int("queue", queue)
            .int("clients", clients)
            .int("cores", cores())
            .int("ops", report.ops);
        rows.push(
            shed_cells(head, &report)
                .int("txn_p50_ns", percentile(&report.txn_ns, 50.0))
                .int("txn_p99_ns", percentile(&report.txn_ns, 99.0)),
        );
    }
    let (clients, queue) = (8, 1);
    let report = run(clients, queue, 10, 150, AdvisorMode::Off);
    let head = Row::new("e14_server")
        .text("arm", "saturation")
        .int("clients", clients)
        .int("queue", queue)
        .int("cores", cores())
        .int("ops", report.ops);
    let busy_per_op = report.busy as f64 / report.ops.max(1) as f64;
    rows.push(shed_cells(head, &report).float("busy_per_op", busy_per_op, 3));
    rows
}

fn live() -> Vec<Row> {
    let target = core_scaled_bound(Source::Live, cores() as u64);
    attempts(
        || mixed_rows(&[1, 4], 120),
        |rows| best_speedup(rows, four_clients).is_ok_and(|(best, _)| best >= target),
    )
}

fn four_clients(row: &Row) -> bool {
    row.str("arm") == Ok("mixed") && row.u64("clients") == Ok(4)
}

fn gate(rows: &[Row], source: Source, failures: &mut Vec<String>) -> Result<(), String> {
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
    let best = best_speedup(rows, four_clients)?;
    scaling_gate("4-client mixed-traffic speedup", best, source, failures);
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

/// Acknowledged operations per second (retried `BUSY` rounds not counted).
pub(crate) fn ops_per_sec(report: &LoadReport) -> f64 {
    report.ops as f64 / report.elapsed.as_secs_f64().max(1e-9)
}

/// The cells every arm records between its own head and tail: `BUSY` and
/// typed `ERR` replies, each split by the op class that drew them, and
/// the rate.
fn shed_cells(row: Row, report: &LoadReport) -> Row {
    row.int("busy", report.busy)
        .int("query_busy", report.query_busy)
        .int("txn_busy", report.txn_busy)
        .int("errors", report.errors)
        .int("query_errors", report.query_errors)
        .int("txn_errors", report.txn_errors)
        .float("ops_per_sec", ops_per_sec(report), 1)
}

/// One `mixed` row per fleet size, the first being the baseline of
/// `speedup_vs_1`.
fn mixed_rows(fleet: &[usize], ops: usize) -> Vec<Row> {
    let mut base_rate = None;
    let mut rows = Vec::new();
    for &clients in fleet {
        let report = run(clients, 64, 70, ops, AdvisorMode::Off);
        let base_rate = *base_rate.get_or_insert(ops_per_sec(&report));
        let head = Row::new("e14_server")
            .text("arm", "mixed")
            .int("clients", clients)
            .int("cores", cores())
            .int("ops", report.ops)
            .int("queries", report.queries)
            .int("txns", report.txns);
        rows.push(
            shed_cells(head, &report)
                .int("query_p50_ns", percentile(&report.query_ns, 50.0))
                .int("query_p99_ns", percentile(&report.query_ns, 99.0))
                .int("txn_p50_ns", percentile(&report.txn_ns, 50.0))
                .int("txn_p99_ns", percentile(&report.txn_ns, 99.0))
                .float("speedup_vs_1", ops_per_sec(&report) / base_rate.max(1.0), 2),
        );
    }
    rows
}
