//! Equivalence suite for the snapshot-isolated concurrent read path:
//! reader threads answering queries while a churn writer commits
//! transactions.
//!
//! The invariants, checked over ≥100 seeded churn traces:
//!
//! * **No torn states.** Every snapshot a reader observes carries a data
//!   version the writer actually published (a transaction boundary) —
//!   never a mid-transaction version.
//! * **Snapshot answers ≡ scratch.** Every query a reader executes
//!   against an observed snapshot returns exactly the from-scratch
//!   evaluation of that query over the snapshot's own database state, and
//!   every published view extension equals the scratch evaluation of its
//!   definition at that state.
//!
//! The writer waits for every reader to adopt each published snapshot
//! before committing the next transaction, so each trace
//! deterministically exercises every version while the threads genuinely
//! run concurrently.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use subq::oodb::{evaluate_query, OptimizedDatabase, Reader};
use subq::workload::{churn_trace, ChurnParams, FamilyShape};

/// Verifies one snapshot a reader currently pins: version is a published
/// boundary, views ≡ scratch, executions ≡ scratch.
fn verify_snapshot(reader: &mut Reader, published: &Mutex<BTreeSet<u64>>, label: &str) {
    let version = reader.data_version();
    {
        let published = published.lock().expect("published-set lock");
        assert!(
            published.contains(&version),
            "{label}: reader observed torn data version {version} (published: {published:?})"
        );
    }
    let snapshot = reader.snapshot().clone();
    assert_eq!(
        snapshot.database().data_version(),
        version,
        "{label}: snapshot version disagrees with its database"
    );
    // Every published extension is the scratch evaluation at this state.
    for view in snapshot.views() {
        let scratch = evaluate_query(snapshot.database(), &view.definition);
        assert_eq!(
            *view.extent, scratch,
            "{label}: v{version}: view {} diverged from scratch",
            view.definition.name
        );
    }
    // Executing through the planner (view filtering, lattice traversal,
    // shared memo) gives the same answers as scratch evaluation.
    for view in snapshot.views() {
        let (answers, _) = reader.execute(&view.definition);
        let scratch = evaluate_query(snapshot.database(), &view.definition);
        assert_eq!(
            answers, scratch,
            "{label}: v{version}: execute({}) diverged from scratch",
            view.definition.name
        );
    }
}

/// One churn trace under concurrent reads: `readers` threads continuously
/// sync + verify while the writer commits every transaction, waiting for
/// all readers to adopt each published version before the next commit.
fn run_trace(seed: u64, params: ChurnParams, readers: usize, label: &str) {
    let trace = churn_trace(seed, params);
    let mut writer = OptimizedDatabase::new(trace.db).expect("translates");
    for name in &trace.view_names {
        writer.materialize_view(name).expect("materializes");
    }
    let published = Mutex::new(BTreeSet::new());
    published
        .lock()
        .expect("published-set lock")
        .insert(writer.database().data_version());
    writer.publish_snapshot();

    let done = AtomicBool::new(false);
    let adopted: Vec<AtomicU64> = (0..readers).map(|_| AtomicU64::new(0)).collect();
    let handles: Vec<Reader> = (0..readers).map(|_| writer.reader()).collect();

    std::thread::scope(|scope| {
        for (slot, mut reader) in handles.into_iter().enumerate() {
            let published = &published;
            let done = &done;
            let adopted = &adopted;
            scope.spawn(move || {
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    loop {
                        reader.sync();
                        verify_snapshot(&mut reader, published, label);
                        adopted[slot].store(reader.data_version(), Ordering::Release);
                        if done.load(Ordering::Acquire) && !reader.sync() {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    // Final verification on the last published state.
                    verify_snapshot(&mut reader, published, label);
                }));
                if let Err(panic) = result {
                    // Unblock the writer's adoption wait before dying, so
                    // a failed assertion surfaces as a test failure (the
                    // scope re-raises it) instead of a deadlock.
                    adopted[slot].store(u64::MAX, Ordering::Release);
                    std::panic::resume_unwind(panic);
                }
            });
        }

        for txn in &trace.transactions {
            writer.update(|db| {
                for op in txn {
                    op.apply(db);
                }
            });
            let version = writer.database().data_version();
            published
                .lock()
                .expect("published-set lock")
                .insert(version);
            writer.publish_snapshot();
            // Wait until every reader has adopted this version: the trace
            // deterministically exercises every published state.
            while adopted
                .iter()
                .any(|seen| seen.load(Ordering::Acquire) < version)
            {
                std::thread::yield_now();
            }
        }
        done.store(true, Ordering::Release);
    });
}

/// The headline suite: 100 seeded traces × concurrent readers, across
/// hierarchy shapes, with and without derived-path views.
#[test]
fn readers_observe_only_published_equivalent_snapshots_on_100_traces() {
    let mut traces = 0;
    for seed in 0..100u64 {
        let shape = match seed % 4 {
            0 => FamilyShape::Chain,
            1 => FamilyShape::Tree,
            2 => FamilyShape::Diamond,
            _ => FamilyShape::Flat,
        };
        let params = ChurnParams {
            shape,
            classes: 5,
            views: 6,
            path_view_percent: if seed % 2 == 0 { 0 } else { 50 },
            objects: 16,
            transactions: 4,
            ops_per_transaction: 3,
            retract_percent: 40,
        };
        run_trace(seed, params, 2, &format!("{shape:?}/seed={seed}"));
        traces += 1;
    }
    assert_eq!(traces, 100);
}

/// A deeper run with more readers and a larger state, so several
/// snapshots are alive at once and the shared memo sees real contention.
#[test]
fn a_heavier_trace_with_four_readers_stays_equivalent() {
    let params = ChurnParams {
        shape: FamilyShape::Tree,
        classes: 8,
        views: 12,
        path_view_percent: 40,
        objects: 60,
        transactions: 10,
        ops_per_transaction: 6,
        retract_percent: 40,
    };
    run_trace(424_242, params, 4, "heavy/tree");
}
