//! E15 — the workload-adaptive view advisor under an adversarial
//! phase-shifting mix over loopback TCP (`tests/advisor_*.rs` is the
//! correctness side). One seeded trace (0xE15): 12 declared views over 8
//! classes and 240 objects — a wider catalog than E14's, so the hot window
//! has somewhere to move — and 96 transactions to keep maintenance
//! pressure on whatever is materialized. Traffic is 85% queries whose hot
//! window of 3 views rotates every 120 ops per client, so a static guess
//! about "the hot views" goes stale mid-run; the advisor passes every
//! 10 ms, because it must react within a phase of a short run. 4 clients
//! of 600 ops, three arms:
//!
//! * `hand_tuned` — every view materialized up front by hand (12 manual
//!   DDL statements), advisor off: the static oracle, which pays
//!   maintenance for the whole catalog but never misses.
//! * `cold` — zero materialized views, advisor off: the floor.
//! * `auto` — zero materialized views, advisor `auto`: it mines the query
//!   stream, materializes the winners under the gain score and evicts
//!   views that go cold when the window rotates away.
//!
//! Bounds (live: `hand_tuned` and `auto` at 2 clients of 300 ops, up to
//! three attempts, stopping at the first in which the advisor fires):
//!
//! * every row, both sources: zero typed `ERR` replies —
//!   auto-materialization must never turn valid traffic into errors;
//! * every auto row, both sources: zero manual DDL (the arm must win
//!   without hand tuning), and at least one auto row shows an
//!   auto-materialization — an advisor that never fires "matches"
//!   hand-tuned only because the trace is small.
//!
//! The latency and throughput columns are one closed-loop run each and
//! gate nothing; timing the arms is `benchmark/`'s method, not this one.
//!
//! The live rows also carry the **observe-overhead** gate. With
//! `--advisor observe` every reader pays one relaxed flag load plus a
//! shape normalization and ring push per query; on E14's stationary
//! 2-client mix that may cost at most 1.10× the advisor-off run, and warns
//! above the 1.02× target ([`overhead_ratio`], 5 interleaved pairs a
//! round): a real per-query regression — an allocation storm, a lock on
//! the read path — blows far past 10%.

use crate::{attempts, ceiling, cores, e14, overhead_ratio, Experiment, Row, Source};
use std::time::Duration;
use subq::oodb::{AdvisorConfig, AdvisorMode};
use subq::server::{percentile, LoadParams, LoadReport, ServerConfig};
use subq::telemetry::counter;
use subq::workload::traffic::{ShiftParams, TrafficParams};
use subq::workload::{churn_trace, ChurnParams};

pub const EXPERIMENT: Experiment = Experiment {
    id: "e15",
    title: "the view advisor under a shifting mixed workload (85% query, hot window rotates)",
    file: "BENCH_e15.json",
    rows: 3,
    table,
    live: Some(live),
    counters: &[],
    gate,
};

const HAND_TUNED: (&str, AdvisorMode, bool) = ("hand_tuned", AdvisorMode::Off, true);
const COLD: (&str, AdvisorMode, bool) = ("cold", AdvisorMode::Off, false);
const AUTO: (&str, AdvisorMode, bool) = ("auto", AdvisorMode::Auto, false);

fn table() -> Vec<Row> {
    arm_rows(&[HAND_TUNED, COLD, AUTO], 4, 600)
}

fn live() -> Vec<Row> {
    let mut rows = attempts(
        || arm_rows(&[HAND_TUNED, AUTO], 2, 300),
        |rows| {
            rows.iter()
                .any(|row| row.u64("auto_materialized").is_ok_and(|n| n > 0))
        },
    );
    let ratio = overhead_ratio(5, 1.02, |observe| {
        let mode = match observe {
            true => AdvisorMode::Observe,
            false => AdvisorMode::Off,
        };
        1e9 / ops_per_sec(&e14::run(2, 64, 70, 120, mode)).max(1.0)
    });
    rows.push(
        Row::new("e15_advisor")
            .text("arm", "observe_overhead")
            .float("on_vs_off", ratio, 3),
    );
    rows
}

fn gate(rows: &[Row], _: Source, failures: &mut Vec<String>) -> Result<(), String> {
    let mut fired = 0;
    for row in rows {
        let arm = row.str("arm")?;
        if arm == "observe_overhead" {
            let what = "observe-mode E14 mixed traffic vs advisor off:";
            ceiling(what, row.f64("on_vs_off")?, 1.10, 1.02, failures);
            continue;
        }
        let errors = row.u64("errors")?;
        if errors != 0 {
            failures.push(format!(
                "the {arm} row records {errors} typed ERR replies (must be 0)"
            ));
        }
        match arm {
            "hand_tuned" | "cold" => {}
            "auto" => {
                let manual_ddl = row.u64("manual_ddl")?;
                if manual_ddl != 0 {
                    failures.push(format!(
                        "the auto row records {manual_ddl} manual DDL statements (must be 0 — the arm must win without hand tuning)"
                    ));
                }
                fired = fired.max(row.u64("auto_materialized")?);
            }
            _ => return Err(row.unexpected("arm", "a known arm")),
        }
    }
    if fired == 0 {
        failures
            .push("no auto row records an auto-materialization — the advisor never fired".into());
    }
    Ok(())
}

/// Acknowledged operations per second (retried `BUSY` rounds not counted).
fn ops_per_sec(report: &LoadReport) -> f64 {
    report.ops as f64 / report.elapsed.as_secs_f64().max(1e-9)
}

/// One row per `(arm, advisor mode, hand-tuned)`, the first being the
/// baseline of `p50_vs_hand_tuned`. A hand-tuned arm materializes the full
/// catalog up front and counts it as `manual_ddl`; the others start with
/// zero materialized views.
fn arm_rows(arms: &[(&str, AdvisorMode, bool)], clients: usize, ops: usize) -> Vec<Row> {
    let params = ChurnParams {
        classes: 8,
        views: 12,
        objects: 240,
        transactions: 96,
        ..ChurnParams::default()
    };
    let trace = churn_trace(0xE15, params);
    let advisor_counters = || {
        [
            "subq_advisor_materialized_total",
            "subq_advisor_evicted_total",
            "subq_advisor_rejected_subsumed_total",
        ]
        .map(|name| counter(name).get())
    };
    let mut base_p50 = None;
    let mut rows = Vec::new();
    for &(arm, mode, hand_tuned) in arms {
        let manual_ddl = if hand_tuned {
            trace.view_names.len()
        } else {
            0
        };
        let advisor = AdvisorConfig {
            mode,
            ..AdvisorConfig::default()
        };
        let config = ServerConfig {
            write_queue: 64,
            advisor,
            advisor_interval: Duration::from_millis(10),
            ..ServerConfig::default()
        };
        let shift = ShiftParams {
            phase_ops: 120,
            views_per_phase: 3,
        };
        let traffic = TrafficParams {
            query_percent: 85,
            ops,
        };
        let load = LoadParams {
            clients,
            seed: 0xE15,
            traffic,
            shift: Some(shift),
            ..LoadParams::default()
        };
        let before = advisor_counters();
        let report = e14::serve(&trace, hand_tuned, config, load);
        let after = advisor_counters();
        let query_p50_ns = percentile(&report.query_ns, 50.0);
        let base_p50 = *base_p50.get_or_insert(query_p50_ns.max(1));
        rows.push(
            Row::new("e15_advisor")
                .text("arm", arm)
                .int("clients", clients)
                .int("cores", cores())
                .int("ops", report.ops)
                .int("queries", report.queries)
                .int("txns", report.txns)
                .int("errors", report.errors)
                .int("manual_ddl", manual_ddl)
                .int("auto_materialized", after[0] - before[0])
                .int("auto_evicted", after[1] - before[1])
                .int("rejected_subsumed", after[2] - before[2])
                .float("ops_per_sec", ops_per_sec(&report), 1)
                .int("query_p50_ns", query_p50_ns)
                .int("query_p99_ns", percentile(&report.query_ns, 99.0))
                .float(
                    "p50_vs_hand_tuned",
                    query_p50_ns as f64 / base_p50 as f64,
                    3,
                ),
        );
    }
    rows
}
