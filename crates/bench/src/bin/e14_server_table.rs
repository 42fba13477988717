//! E14: the `subqd` server under mixed churn+query load over loopback
//! TCP — throughput and latency per op class, queue depth vs latency,
//! and saturation behavior.
//!
//! Three arms, all through the real wire path (frames, sessions, the
//! single-writer command queue, group commit into an in-memory durable
//! backend):
//!
//! 1. **Throughput vs fleet size** — 1/2/4/8 clients of 70%-query mixed
//!    traffic. Queries scale across the worker pool's lock-free readers;
//!    transactions serialize on the writer but amortize its fsync. The
//!    acceptance gate (core-clamped, like E11/E12) is on the 4-client
//!    aggregate speedup over 1 client.
//! 2. **Queue depth vs latency** — 4 clients of write-heavy traffic
//!    against write queues of 1/4/16/64: deeper queues trade `BUSY`
//!    shedding for queueing delay in the transaction p99.
//! 3. **Saturation** — 8 clients of 90%-write traffic against a queue of
//!    1: admission control must shed load as typed `BUSY` replies (the
//!    gate requires some) while every acknowledged op still succeeds
//!    (zero typed errors).
//!
//! Wall-clock columns are machine-bound; rows land in `BENCH_e14.json`
//! so `perf_smoke` can gate the ratios on the committed table and
//! re-check the anti-collapse floor live.

use subq_bench::e14::mixed_arm;
use subq_bench::{json_object, json_str, row, write_json_rows};

fn main() {
    let cores = subq_bench::cores();
    let mut json_rows = Vec::new();

    // Arm 1: aggregate throughput and per-op-class latency vs fleet size.
    println!("E14a: mixed traffic (70% query) vs fleet size ({cores} cores)");
    println!();
    let headers = [
        "clients",
        "ops",
        "ops/s",
        "query p50 ns",
        "query p99 ns",
        "txn p50 ns",
        "txn p99 ns",
        "busy",
        "vs 1 client",
    ];
    println!("{}", row(&headers.map(String::from)));
    println!("{}", row(&headers.map(|_| "---".into())));
    let mut one_client_rate = 0.0f64;
    for clients in [1usize, 2, 4, 8] {
        let r = mixed_arm(clients, 64, 70, 200);
        if clients == 1 {
            one_client_rate = r.ops_per_sec;
        }
        let speedup = r.ops_per_sec / one_client_rate;
        println!(
            "{}",
            row(&[
                clients.to_string(),
                r.ops.to_string(),
                format!("{:.0}", r.ops_per_sec),
                r.query_p50_ns.to_string(),
                r.query_p99_ns.to_string(),
                r.txn_p50_ns.to_string(),
                r.txn_p99_ns.to_string(),
                r.busy.to_string(),
                format!("{speedup:.2}×"),
            ])
        );
        json_rows.push(json_object(&[
            ("experiment", json_str("e14_server")),
            ("arm", json_str("mixed")),
            ("clients", clients.to_string()),
            ("cores", cores.to_string()),
            ("ops", r.ops.to_string()),
            ("queries", r.queries.to_string()),
            ("txns", r.txns.to_string()),
            ("busy", r.busy.to_string()),
            ("query_busy", r.query_busy.to_string()),
            ("txn_busy", r.txn_busy.to_string()),
            ("errors", r.errors.to_string()),
            ("query_errors", r.query_errors.to_string()),
            ("txn_errors", r.txn_errors.to_string()),
            ("ops_per_sec", format!("{:.1}", r.ops_per_sec)),
            ("query_p50_ns", r.query_p50_ns.to_string()),
            ("query_p99_ns", r.query_p99_ns.to_string()),
            ("txn_p50_ns", r.txn_p50_ns.to_string()),
            ("txn_p99_ns", r.txn_p99_ns.to_string()),
            ("speedup_vs_1", format!("{speedup:.2}")),
        ]));
    }

    // Arm 2: write-queue depth vs transaction latency and shedding.
    println!();
    println!("E14b: 4 clients of write-heavy traffic (40% query) vs queue depth");
    println!();
    let headers = ["queue", "ops", "ops/s", "txn p50 ns", "txn p99 ns", "busy"];
    println!("{}", row(&headers.map(String::from)));
    println!("{}", row(&headers.map(|_| "---".into())));
    for queue in [1usize, 4, 16, 64] {
        let r = mixed_arm(4, queue, 40, 200);
        println!(
            "{}",
            row(&[
                queue.to_string(),
                r.ops.to_string(),
                format!("{:.0}", r.ops_per_sec),
                r.txn_p50_ns.to_string(),
                r.txn_p99_ns.to_string(),
                r.busy.to_string(),
            ])
        );
        json_rows.push(json_object(&[
            ("experiment", json_str("e14_server")),
            ("arm", json_str("queue_depth")),
            ("queue", queue.to_string()),
            ("clients", "4".to_string()),
            ("cores", cores.to_string()),
            ("ops", r.ops.to_string()),
            ("busy", r.busy.to_string()),
            ("query_busy", r.query_busy.to_string()),
            ("txn_busy", r.txn_busy.to_string()),
            ("errors", r.errors.to_string()),
            ("query_errors", r.query_errors.to_string()),
            ("txn_errors", r.txn_errors.to_string()),
            ("ops_per_sec", format!("{:.1}", r.ops_per_sec)),
            ("txn_p50_ns", r.txn_p50_ns.to_string()),
            ("txn_p99_ns", r.txn_p99_ns.to_string()),
        ]));
    }

    // Arm 3: saturation — overload must shed as typed BUSY, never error.
    println!();
    println!("E14c: saturation — 8 clients, 90% writes, write queue of 1");
    println!();
    let r = mixed_arm(8, 1, 10, 150);
    let busy_per_op = r.busy as f64 / r.ops.max(1) as f64;
    println!(
        "ops={} busy={} ({busy_per_op:.2} BUSY/op) errors={} ops/s={:.0}",
        r.ops, r.busy, r.errors, r.ops_per_sec
    );
    json_rows.push(json_object(&[
        ("experiment", json_str("e14_server")),
        ("arm", json_str("saturation")),
        ("clients", "8".to_string()),
        ("queue", "1".to_string()),
        ("cores", cores.to_string()),
        ("ops", r.ops.to_string()),
        ("busy", r.busy.to_string()),
        ("query_busy", r.query_busy.to_string()),
        ("txn_busy", r.txn_busy.to_string()),
        ("errors", r.errors.to_string()),
        ("query_errors", r.query_errors.to_string()),
        ("txn_errors", r.txn_errors.to_string()),
        ("ops_per_sec", format!("{:.1}", r.ops_per_sec)),
        ("busy_per_op", format!("{busy_per_op:.3}")),
    ]));

    write_json_rows("BENCH_e14.json", &json_rows);
}
