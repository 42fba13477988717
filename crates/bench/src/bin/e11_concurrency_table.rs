//! Prints the E11 table: aggregate plan+answer throughput of the
//! snapshot-isolated read path at 1/2/4/8 reader threads with a
//! concurrent churn writer (committing and publishing a transaction
//! every ~1 ms), p50/p99 plan latency under that churn, and the cost of a
//! whole commit (mutations, maintenance, publication, and a reader
//! adopting it) versus transaction size at two store sizes. Writes the
//! rows to `BENCH_e11.json`; `perf_smoke` enforces the scalability bounds
//! and the small commit's independence of the store size (see
//! its module doc for how the wall-clock bound scales with the cores the
//! machine actually has) and the deterministic zero-resaturation
//! invariant.
//!
//! Throughput and latency are wall-clock and machine-dependent — the
//! `cores` field records the parallelism available when the table was
//! generated, and the committed JSON must be read against it (a 1-core
//! container cannot show parallel speedup; an ≥8-core machine must show
//! ≥4× at 8 readers). `fresh_probes_after_warmup` is deterministic: the
//! read path performs **zero** fact saturations after warmup regardless
//! of thread count, churn, or snapshot swaps — scaling comes from not
//! redoing work, not from faster work.

use std::time::Duration;
use subq_bench::e11::{publish_cost_arm, throughput_arm};
use subq_bench::{json_object, json_str, write_json_rows};

fn main() {
    let cores = subq_bench::cores();
    let window = Duration::from_millis(400);
    let mut json_rows = Vec::new();

    println!("E11 — snapshot-isolated concurrent reads under churn ({cores} cores)");
    println!("| threads | ops | ops/s | speedup | p50 plan | p99 plan | snapshots adopted | fresh probes after warmup |");
    println!("|---|---|---|---|---|---|---|---|");

    let mut base_rate = 0.0f64;
    for threads in [1usize, 2, 4, 8] {
        let row = throughput_arm(threads, window);
        let rate = row.total_ops as f64 / (row.elapsed_ns as f64 / 1e9);
        if threads == 1 {
            base_rate = rate;
        }
        let speedup = rate / base_rate.max(1.0);
        println!(
            "| {} | {} | {:.0} | {:.2}× | {:.1} µs | {:.1} µs | {} | {} |",
            row.threads,
            row.total_ops,
            rate,
            speedup,
            row.p50_plan_ns as f64 / 1e3,
            row.p99_plan_ns as f64 / 1e3,
            row.snapshots_adopted,
            row.fresh_probes_after_warmup,
        );
        json_rows.push(json_object(&[
            ("experiment", json_str("e11_concurrency")),
            ("cores", cores.to_string()),
            ("threads", row.threads.to_string()),
            ("total_ops", row.total_ops.to_string()),
            ("elapsed_ns", row.elapsed_ns.to_string()),
            ("ops_per_s", format!("{rate:.0}")),
            ("speedup_vs_1", format!("{speedup:.3}")),
            ("p50_plan_ns", row.p50_plan_ns.to_string()),
            ("p99_plan_ns", row.p99_plan_ns.to_string()),
            ("snapshots_adopted", row.snapshots_adopted.to_string()),
            (
                "fresh_probes_after_warmup",
                row.fresh_probes_after_warmup.to_string(),
            ),
        ]));
    }

    println!();
    println!(
        "Commit cost (update + publish + one reader sync, 12 views) vs transaction and store size:"
    );
    println!("| objects | txn ops | commit + sync |");
    println!("|---|---|---|");
    for objects in [10_000usize, 40_000] {
        for txn_ops in [1usize, 8, 64, 512] {
            let commit_ns = publish_cost_arm(objects, txn_ops);
            println!(
                "| {objects} | {txn_ops} | {:.1} µs |",
                commit_ns as f64 / 1e3
            );
            json_rows.push(json_object(&[
                ("experiment", json_str("e11_commit_cost")),
                ("cores", cores.to_string()),
                ("objects", objects.to_string()),
                ("txn_ops", txn_ops.to_string()),
                ("commit_ns", commit_ns.to_string()),
            ]));
        }
    }

    write_json_rows("BENCH_e11.json", &json_rows);
    println!();
    println!("Readers plan and answer over immutable snapshots with no locks and no");
    println!("writer involvement; the writer maintains views incrementally (one pass");
    println!("over the lattice order) and publishes with one atomic swap;");
    println!("a commit copies the extents, views and attribute chunks it touched, not the store.");
}
