//! E11 — snapshot-isolated concurrent reads under churn. The instance: a
//! tree hierarchy with 12 class and path views (seed 17, 30% path views,
//! 64 transactions of 4 ops, 40% retractions), every view materialized
//! and every query shape planned once by the writer, so the shared memo
//! and the published arena carry them. Two arms:
//!
//! * `e11_concurrency` — aggregate plan+answer throughput of 1/2/4/8
//!   reader threads over 2 000 objects for 400 ms each, while the writer
//!   commits and publishes a transaction every ~1 ms; p50/p99 plan
//!   latency under that churn. Deterministic in *work shape*, wall-clock
//!   in *rate*: a 1-core box cannot show parallel speedup, so the rows
//!   record the cores they ran on.
//! * `e11_commit_cost` — the wall-clock of a whole commit (the
//!   transaction's mutations, its WAL record for the volatile store's
//!   discarding backend, view maintenance, the publication, and
//!   an attached reader's `sync()` adopting it, where the state the commit
//!   replaced is freed), best of 7, versus transaction size (1/8/64/512
//!   effective mutations of existing objects) at 10k and 40k objects.
//!
//! Bounds:
//!
//! * every throughput row, both sources: **zero** fresh subsumption probes
//!   after warmup — every probe is answered from the shared memo or a
//!   private cache whatever the thread count, churn or snapshot swaps.
//!   Scaling comes from not redoing work, and this is the invariant it
//!   rests on;
//! * the 8-reader speedup over 1 reader: [`scaling_gate`] — committed, the
//!   core-scaled bound; live (1 and 8 readers, best of up to three
//!   attempts), only the anti-collapse floor is hard;
//! * committed: a 1-op commit at 40k objects costs at most 1.5× the one at
//!   10k — a small transaction pays for what it touches, not for the
//!   population.

use crate::{
    attempts, best_speedup, core_scaled_bound, cores, scaling_gate, Experiment, Row, Source,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use subq::oodb::{ObjId, OptimizedDatabase};
use subq::server::view_query;
use subq::workload::{churn_trace, ChurnParams, ChurnTrace, FamilyShape};

pub const EXPERIMENT: Experiment = Experiment {
    id: "e11",
    title: "snapshot-isolated concurrent reads under churn, and what a commit costs",
    file: "BENCH_e11.json",
    rows: 12,
    table,
    live: Some(live),
    counters: &[],
    gate,
};

fn table() -> Vec<Row> {
    let mut rows = throughput_rows(&[1, 2, 4, 8]);
    for objects in [10_000usize, 40_000] {
        for txn_ops in [1usize, 8, 64, 512] {
            rows.push(
                Row::new("e11_commit_cost")
                    .int("cores", cores())
                    .int("objects", objects)
                    .int("txn_ops", txn_ops)
                    .int("commit_ns", commit_cost_ns(objects, txn_ops)),
            );
        }
    }
    rows
}

fn live() -> Vec<Row> {
    let target = core_scaled_bound(Source::Live, cores() as u64);
    attempts(
        || throughput_rows(&[1, 8]),
        |rows| best_speedup(rows, eight_readers).is_ok_and(|(best, _)| best >= target),
    )
}

fn eight_readers(row: &Row) -> bool {
    row.u64("threads") == Ok(8)
}

fn gate(rows: &[Row], source: Source, failures: &mut Vec<String>) -> Result<(), String> {
    let (mut commit_10k, mut commit_40k) = (None, None);
    for row in rows {
        if row.str("experiment")? == "e11_concurrency" {
            let (threads, fresh) = (row.u64("threads")?, row.u64("fresh_probes_after_warmup")?);
            if fresh != 0 {
                failures.push(format!(
                    "threads={threads}: {fresh} fresh probes after warmup (readers must answer from caches)"
                ));
            }
        } else if row.u64("txn_ops")? == 1 {
            match row.u64("objects")? {
                10_000 => commit_10k = Some(row.f64("commit_ns")?),
                40_000 => commit_40k = Some(row.f64("commit_ns")?),
                _ => {}
            }
        }
    }
    let best = best_speedup(rows, eight_readers)?;
    scaling_gate("8-reader speedup", best, source, failures);
    if source == Source::Committed {
        let (Some(small), Some(large)) = (commit_10k, commit_40k) else {
            return Err("no 1-op commit rows at 10k and 40k objects".to_string());
        };
        if large > 1.5 * small {
            failures.push(format!(
                "a 1-op commit costs {:.1} µs at 40k objects, more than 1.5× the {:.1} µs at 10k — commit cost follows the population",
                large / 1e3,
                small / 1e3
            ));
        }
    }
    Ok(())
}

/// The shared E11 instance with every view materialized.
fn setup(objects: usize) -> (OptimizedDatabase, ChurnTrace) {
    let params = ChurnParams {
        shape: FamilyShape::Tree,
        classes: 12,
        views: 12,
        path_view_percent: 30,
        objects,
        transactions: 64,
        ops_per_transaction: 4,
        retract_percent: 40,
    };
    let trace = churn_trace(17, params);
    let mut writer = OptimizedDatabase::new(trace.db.clone()).expect("translates");
    for name in &trace.view_names {
        writer.materialize_view(name).expect("materializes");
    }
    (writer, trace)
}

/// One throughput row per thread count, the first being the baseline of
/// `speedup_vs_1`.
fn throughput_rows(thread_counts: &[usize]) -> Vec<Row> {
    let mut base_rate = None;
    let arms = thread_counts.iter();
    arms.map(|&threads| throughput_arm(threads, &mut base_rate))
        .collect()
}

fn throughput_arm(threads: usize, base_rate: &mut Option<f64>) -> Row {
    let (mut writer, trace) = setup(2_000);
    let views = 0..trace.view_names.len();
    let queries: Vec<_> = views.map(|view| view_query(&trace, view)).collect();
    for query in &queries {
        let _ = writer.plan(query);
    }
    writer.publish_snapshot();

    let stop = AtomicBool::new(false);
    let total_ops = AtomicU64::new(0);
    let adopted = AtomicU64::new(0);
    let fresh_after_warmup = AtomicU64::new(0);
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let readers: Vec<_> = (0..threads).map(|_| writer.reader()).collect();

    let started = Instant::now();
    std::thread::scope(|scope| {
        for mut reader in readers {
            let (stop, total_ops, adopted) = (&stop, &total_ops, &adopted);
            let (fresh_after_warmup, latencies, queries) =
                (&fresh_after_warmup, &latencies, &queries);
            scope.spawn(move || {
                // Per-reader warmup: one pass so private caches hold
                // every (query, view) pair under the initial snapshot.
                for query in queries {
                    let _ = reader.execute(query);
                }
                let (mut ops, mut swaps, mut fresh) = (0u64, 0u64, 0u64);
                let mut lats: Vec<u64> = Vec::with_capacity(4096);
                let mut at = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    if at.is_multiple_of(64) && reader.sync() {
                        swaps += 1;
                    }
                    let query = &queries[at % queries.len()];
                    let t0 = Instant::now();
                    let plan = reader.plan(query);
                    lats.push(t0.elapsed().as_nanos() as u64);
                    fresh += plan.fresh_probes as u64;
                    let _ = reader.execute(query);
                    ops += 1;
                    at += 1;
                }
                total_ops.fetch_add(ops, Ordering::Relaxed);
                adopted.fetch_add(swaps, Ordering::Relaxed);
                fresh_after_warmup.fetch_add(fresh, Ordering::Relaxed);
                latencies.lock().expect("latency lock").extend(lats);
            });
        }

        let deadline = started + Duration::from_millis(400);
        let mut t = 0usize;
        while Instant::now() < deadline {
            let txn = &trace.transactions[t % trace.transactions.len()];
            t += 1;
            writer
                .commit_durable(|db| {
                    for op in txn {
                        op.apply(db);
                    }
                })
                .expect("a volatile commit cannot fail");
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed_ns = started.elapsed().as_nanos();

    let mut lats = latencies.into_inner().expect("latency lock");
    lats.sort_unstable();
    let pick = |q: f64| lats.get(((lats.len().max(1) - 1) as f64 * q) as usize);
    let total_ops = total_ops.into_inner();
    let rate = total_ops as f64 / (elapsed_ns as f64 / 1e9);
    let base_rate = *base_rate.get_or_insert(rate);
    Row::new("e11_concurrency")
        .int("cores", cores())
        .int("threads", threads)
        .int("total_ops", total_ops)
        .int("elapsed_ns", elapsed_ns)
        .int("ops_per_s", rate.round() as u64)
        .float("speedup_vs_1", rate / base_rate.max(1.0), 3)
        .int("p50_plan_ns", pick(0.50).copied().unwrap_or(0))
        .int("p99_plan_ns", pick(0.99).copied().unwrap_or(0))
        .int("snapshots_adopted", adopted.into_inner())
        .int("fresh_probes_after_warmup", fresh_after_warmup.into_inner())
}

/// A transaction is `txn_ops` effective mutations of objects that already
/// exist, attribute pairs and class memberships alternating and never the
/// same object twice, which is what a served `TXN` mostly is; creating
/// objects would add the name index's copy of one shard in 32, which
/// grows with the population by design.
fn commit_cost_ns(objects: usize, txn_ops: usize) -> u128 {
    let (mut writer, trace) = setup(objects);
    writer.publish_snapshot();
    let mut reader = writer.reader();
    let classes: Vec<String> = (0..trace.view_names.len())
        .map(|k| format!("K{k}"))
        .collect();
    // 7919 is prime to both store sizes: a walk that visits every
    // object once before it repeats.
    let mut walk = (0..).map(|i: usize| ObjId((i * 7919 % objects) as u32));
    let mut best = u128::MAX;
    for _ in 0..7 {
        let before = writer.database().data_version();
        let start = Instant::now();
        let committed = writer.commit_durable(|db| {
            for (j, from) in walk.by_ref().take(txn_ops).enumerate() {
                if j % 2 == 0 {
                    let to = (from.0..objects as u32)
                        .chain(0..from.0)
                        .map(ObjId)
                        .find(|&to| !db.has_attr_value(from, "link", to))
                        .expect("no object links to every object");
                    db.assert_attr(from, "link", to);
                } else {
                    let class = classes
                        .iter()
                        .find(|class| !db.is_instance_of(from, class))
                        .expect("no object is in every class of a tree");
                    db.assert_class(from, class);
                }
            }
        });
        committed.expect("a volatile commit cannot fail");
        reader.sync();
        best = best.min(start.elapsed().as_nanos());
        assert!(
            writer.database().data_version() >= before + txn_ops as u64,
            "commit-cost transaction must be effective"
        );
        assert_eq!(reader.data_version(), writer.database().data_version());
    }
    best
}
