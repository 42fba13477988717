//! E15: the workload-adaptive view advisor under an adversarial
//! phase-shifting mixed workload over loopback TCP.
//!
//! Three arms, all through the real wire path against the same seeded
//! trace (12 declared views over 8 classes, 85%-query traffic whose hot
//! window of 3 views rotates every 120 ops per client):
//!
//! 1. **hand_tuned** — every view materialized up front by hand (12
//!    manual DDL statements), advisor off. The static oracle baseline:
//!    it pays maintenance for the whole catalog but never misses.
//! 2. **cold** — zero materialized views, advisor off. Every query
//!    evaluates from scratch; this is the floor the advisor must beat.
//! 3. **auto** — zero materialized views, `--advisor auto` with a 10 ms
//!    pass interval. The advisor mines the query stream, materializes
//!    the winners under the gain score, and evicts views that go cold
//!    when the hot window rotates away. Zero manual DDL by construction.
//!
//! The headline ratio is the auto arm's query p50 over the hand-tuned
//! arm's; `perf_smoke` gates it (core-clamped) at ~2× on the committed
//! table and re-checks the anti-collapse floor live, plus the
//! zero-manual-DDL and advisor-activity assertions.

use subq::oodb::AdvisorMode;
use subq_bench::e15::advisor_arm;
use subq_bench::{json_object, json_str, row, write_json_rows};

fn main() {
    let cores = subq_bench::cores();
    let clients = 4usize;
    let ops = 600usize;
    let mut json_rows = Vec::new();

    println!("E15: shifting mixed workload (85% query, hot window rotates) — {cores} cores");
    println!();
    let headers = [
        "arm",
        "manual DDL",
        "auto mat.",
        "auto evict",
        "rej. subsumed",
        "ops/s",
        "query p50 ns",
        "query p99 ns",
        "vs hand-tuned",
    ];
    println!("{}", row(&headers.map(String::from)));
    println!("{}", row(&headers.map(|_| "---".into())));

    let arms = [
        ("hand_tuned", AdvisorMode::Off, true),
        ("cold", AdvisorMode::Off, false),
        ("auto", AdvisorMode::Auto, false),
    ];
    let mut hand_tuned_p50 = 0u64;
    for (arm, mode, tuned) in arms {
        let r = advisor_arm(arm, mode, tuned, clients, ops);
        if arm == "hand_tuned" {
            hand_tuned_p50 = r.query_p50_ns.max(1);
        }
        let ratio = r.query_p50_ns as f64 / hand_tuned_p50.max(1) as f64;
        println!(
            "{}",
            row(&[
                arm.to_owned(),
                r.manual_ddl.to_string(),
                r.auto_materialized.to_string(),
                r.auto_evicted.to_string(),
                r.rejected_subsumed.to_string(),
                format!("{:.0}", r.ops_per_sec),
                r.query_p50_ns.to_string(),
                r.query_p99_ns.to_string(),
                format!("{ratio:.2}×"),
            ])
        );
        json_rows.push(json_object(&[
            ("experiment", json_str("e15_advisor")),
            ("arm", json_str(arm)),
            ("clients", clients.to_string()),
            ("cores", cores.to_string()),
            ("ops", r.ops.to_string()),
            ("queries", r.queries.to_string()),
            ("txns", r.txns.to_string()),
            ("errors", r.errors.to_string()),
            ("manual_ddl", r.manual_ddl.to_string()),
            ("auto_materialized", r.auto_materialized.to_string()),
            ("auto_evicted", r.auto_evicted.to_string()),
            ("rejected_subsumed", r.rejected_subsumed.to_string()),
            ("ops_per_sec", format!("{:.1}", r.ops_per_sec)),
            ("query_p50_ns", r.query_p50_ns.to_string()),
            ("query_p99_ns", r.query_p99_ns.to_string()),
            ("p50_vs_hand_tuned", format!("{ratio:.3}")),
        ]));
    }

    write_json_rows("BENCH_e15.json", &json_rows);
}
