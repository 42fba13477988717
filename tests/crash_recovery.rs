//! Kill-and-recover property suite for the durable storage engine: over
//! a hundred seeded churn traces, a golden run commits every transaction
//! through the write-ahead log, and the disk state is then re-opened
//! from **every** prefix a crash could leave behind — each record
//! boundary, torn cuts inside each record (mid-header, one byte short,
//! seeded interior offsets), and seeded single-bit flips modelling
//! silent corruption. Every recovery must
//!
//! * never panic,
//! * land exactly on the committed-transaction boundary implied by the
//!   surviving bytes (no phantom transactions, no lost durable commits),
//! * reproduce the store bit-identically to a from-scratch replay of the
//!   committed prefix (objects, class extents, attribute indexes both
//!   directions, versions), and
//! * restore every checkpointed view to the extent a scratch evaluation
//!   produces.
//!
//! Satellite regressions ride along: the in-memory delta-log cap must
//! never outrun the durable floor (a transaction bigger than the cap
//! survives recovery), the PR 5 routing watermark stays correct when
//! committing across a recovery boundary, and retraction-heavy traces
//! replay downward isA propagation and attribute-index shrinkage
//! exactly.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use subq::oodb::durable::codec::decode_records;
use subq::oodb::durable::record_boundaries;
use subq::oodb::durable::wal::WAL_FILE;
use subq::oodb::{
    evaluate_query, Database, DurableError, DurableOptions, FaultyBackend, OptimizedDatabase,
};
use subq::workload::{
    churn_trace, crash_points, flip_points, ChurnParams, ChurnTrace, FamilyShape,
};

/// Everything the golden (uncrashed) run leaves behind.
struct Golden {
    /// The backend's files after the run: the newest checkpoint image
    /// and the WAL.
    files: HashMap<String, Vec<u8>>,
    /// `data_version` before any transaction and after each one — the
    /// only versions a recovery may land on.
    committed: Vec<u64>,
}

/// Replays a churn trace through a durably opened database: open
/// (genesis), materialize the views, checkpoint (so every image carries
/// the view catalog), commit each transaction, optionally checkpoint
/// again mid-run, and sync the tail.
fn golden_run(
    seed: u64,
    params: ChurnParams,
    group_commit: usize,
    checkpoint_after: Option<usize>,
) -> Golden {
    let trace = churn_trace(seed, params);
    let backend = Arc::new(FaultyBackend::new());
    let mut odb = OptimizedDatabase::open(backend.clone(), DurableOptions { group_commit }, || {
        trace.db.clone()
    })
    .expect("genesis open");
    for name in &trace.view_names {
        odb.materialize_view(name).expect("materializes");
    }
    odb.checkpoint().expect("checkpoint after materialization");
    let mut committed = vec![odb.database().data_version()];
    for (t, txn) in trace.transactions.iter().enumerate() {
        odb.commit_durable(|db| {
            for op in txn {
                op.apply(db);
            }
        })
        .expect("commit");
        committed.push(odb.database().data_version());
        if checkpoint_after == Some(t) {
            odb.checkpoint().expect("mid-run checkpoint");
        }
    }
    odb.sync_durable().expect("final sync");

    // The golden run's own counters must be non-trivial.
    let stats = odb.durability_stats().expect("opened durably");
    let nonempty = committed.windows(2).filter(|w| w[1] > w[0]).count() as u64;
    assert_eq!(stats.wal_records, nonempty, "one WAL record per real txn");
    assert!(stats.wal_bytes > 0);
    assert!(stats.checkpoints >= 2, "genesis + post-materialization");
    if nonempty > 0 {
        assert!(stats.fsyncs >= 1);
    }

    Golden {
        files: backend.surviving_files(),
        committed,
    }
}

/// The version of the newest checkpoint image on the backend.
fn newest_image_version(files: &HashMap<String, Vec<u8>>) -> u64 {
    files
        .keys()
        .filter_map(|name| {
            name.strip_prefix("checkpoint_")?
                .strip_suffix(".img")?
                .parse()
                .ok()
        })
        .max()
        .expect("an image exists after any durable open")
}

/// The disk state a crash at WAL byte offset `wal_prefix` leaves.
fn crashed_files(files: &HashMap<String, Vec<u8>>, wal_prefix: usize) -> HashMap<String, Vec<u8>> {
    let mut out = files.clone();
    out.get_mut(WAL_FILE)
        .expect("the WAL file exists")
        .truncate(wal_prefix);
    out
}

/// From-scratch replay of the committed prefix ending at `version`:
/// re-applies whole transactions to a fresh copy of the initial state.
fn scratch_at(trace: &ChurnTrace, committed: &[u64], version: u64, label: &str) -> Database {
    let idx = committed
        .iter()
        .position(|&c| c == version)
        .unwrap_or_else(|| panic!("{label}: version {version} is not a committed boundary"));
    let mut db = trace.db.clone();
    for txn in &trace.transactions[..idx] {
        for op in txn {
            op.apply(&mut db);
        }
    }
    assert_eq!(db.data_version(), version, "{label}: scratch replay drift");
    db
}

/// Bit-identical store equivalence: versions, object names, every class
/// extent, and every attribute index in both directions.
fn assert_state_matches(label: &str, recovered: &Database, expect: &Database) {
    assert_eq!(
        recovered.data_version(),
        expect.data_version(),
        "{label}: data version"
    );
    assert_eq!(
        recovered.schema_version(),
        expect.schema_version(),
        "{label}: schema version"
    );
    assert_eq!(recovered.model(), expect.model(), "{label}: model");
    let names = |db: &Database| -> BTreeSet<String> {
        db.objects()
            .map(|o| db.object_name(o).to_string())
            .collect()
    };
    assert_eq!(names(recovered), names(expect), "{label}: object names");
    for class in expect.class_names().map(str::to_string).collect::<Vec<_>>() {
        assert_eq!(
            recovered.class_extent(&class),
            expect.class_extent(&class),
            "{label}: extent of {class}"
        );
    }
    for attr in expect
        .attribute_names()
        .map(str::to_string)
        .collect::<Vec<_>>()
    {
        assert_eq!(
            recovered.attr_pairs(&attr),
            expect.attr_pairs(&attr),
            "{label}: pairs of {attr}"
        );
    }
}

/// Re-opens the crashed disk state and checks the full recovery
/// contract against the golden history.
fn check_recovery(
    label: &str,
    files: HashMap<String, Vec<u8>>,
    trace: &ChurnTrace,
    golden: &Golden,
) {
    let wal = files.get(WAL_FILE).expect("the WAL file exists");
    let image_version = newest_image_version(&files);
    let (records, valid) = decode_records(wal);
    let expected = records.iter().fold(image_version, |v, r| {
        v.max(r.start_version + r.deltas.len() as u64)
    });
    let truncated = (wal.len() - valid) as u64;
    let replayed = records.len() as u64;

    let backend = Arc::new(FaultyBackend::with_files(files));
    let odb = OptimizedDatabase::open(backend, DurableOptions::default(), || {
        panic!("{label}: an image exists, genesis must not run")
    })
    .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));

    // No phantom transactions, no lost durable commits: the recovered
    // version is exactly what the surviving bytes imply, and it is a
    // committed-transaction boundary.
    assert_eq!(
        odb.database().data_version(),
        expected,
        "{label}: recovered version"
    );
    assert!(
        golden.committed.contains(&expected),
        "{label}: {expected} is not a transaction boundary of {:?}",
        golden.committed
    );

    // The store is bit-identical to a scratch replay of the prefix.
    let scratch = scratch_at(trace, &golden.committed, expected, label);
    assert_state_matches(label, odb.database(), &scratch);

    // Every checkpointed view is restored and exact.
    for name in &trace.view_names {
        let view = odb
            .catalog()
            .view(name)
            .unwrap_or_else(|| panic!("{label}: view {name} lost in recovery"));
        let fresh = evaluate_query(odb.database(), &view.definition);
        assert_eq!(*view.extent, fresh, "{label}: view {name} stale");
        assert_eq!(
            fresh,
            evaluate_query(&scratch, &view.definition),
            "{label}: view {name} disagrees with scratch"
        );
    }

    // The recovery counters report exactly what happened.
    let stats = odb.durability_stats().expect("opened durably");
    assert_eq!(stats.recovered_records, replayed, "{label}: replay count");
    assert_eq!(
        stats.truncated_tail_bytes, truncated,
        "{label}: truncated tail"
    );
}

/// One trace, every torn-write crash point.
fn sweep_torn_writes(
    seed: u64,
    params: ChurnParams,
    group_commit: usize,
    checkpoint_after: Option<usize>,
    label: &str,
) {
    let golden = golden_run(seed, params, group_commit, checkpoint_after);
    let trace = churn_trace(seed, params);
    let wal = golden.files.get(WAL_FILE).expect("the WAL file exists");
    for cut in crash_points(wal, 1, seed) {
        check_recovery(
            &format!("{label}/cut={cut}"),
            crashed_files(&golden.files, cut),
            &trace,
            &golden,
        );
    }
}

/// The tentpole property: 105 traces (five shapes × three durability
/// configurations × seven seeds), each recovered at every record
/// boundary and every torn cut inside every record.
#[test]
fn recovery_is_exact_at_every_torn_write_across_105_churn_traces() {
    let mut traces = 0usize;
    for shape in [
        FamilyShape::Chain,
        FamilyShape::Tree,
        FamilyShape::Diamond,
        FamilyShape::Flat,
        FamilyShape::Random,
    ] {
        for (config, group_commit, checkpoint_after, params) in [
            (
                "sync-every-commit",
                1,
                None,
                ChurnParams {
                    shape,
                    classes: 4,
                    views: 5,
                    path_view_percent: 0,
                    objects: 14,
                    transactions: 5,
                    ops_per_transaction: 3,
                    retract_percent: 40,
                },
            ),
            (
                "group-commit",
                3,
                None,
                ChurnParams {
                    shape,
                    classes: 5,
                    views: 6,
                    path_view_percent: 50,
                    objects: 18,
                    transactions: 6,
                    ops_per_transaction: 4,
                    retract_percent: 70,
                },
            ),
            (
                "mid-run-checkpoint",
                2,
                Some(2),
                ChurnParams {
                    shape,
                    classes: 4,
                    views: 5,
                    path_view_percent: 30,
                    objects: 16,
                    transactions: 6,
                    ops_per_transaction: 3,
                    retract_percent: 50,
                },
            ),
        ] {
            for seed in 0..7u64 {
                sweep_torn_writes(
                    seed,
                    params,
                    group_commit,
                    checkpoint_after,
                    &format!("{}/{config}/seed={seed}", shape.name()),
                );
                traces += 1;
            }
        }
    }
    assert_eq!(traces, 105);
}

/// Silent corruption: a single flipped bit anywhere in the WAL must
/// truncate the log at the poisoned record — cleanly, to a committed
/// boundary, never a panic, never a half-applied record.
#[test]
fn bit_flips_anywhere_in_the_log_truncate_cleanly() {
    let params = ChurnParams {
        shape: FamilyShape::Tree,
        classes: 5,
        views: 6,
        path_view_percent: 40,
        objects: 20,
        transactions: 8,
        ops_per_transaction: 5,
        retract_percent: 50,
    };
    for seed in 20..30u64 {
        let golden = golden_run(seed, params, 1, None);
        let trace = churn_trace(seed, params);
        let wal = golden.files.get(WAL_FILE).expect("the WAL file exists");
        for (offset, bit) in flip_points(wal.len(), 24, seed) {
            let mut files = golden.files.clone();
            files.get_mut(WAL_FILE).expect("exists")[offset] ^= 1 << bit;
            check_recovery(
                &format!("flip/seed={seed}/offset={offset}/bit={bit}"),
                files,
                &trace,
                &golden,
            );
        }
    }
}

/// A corrupt checkpoint image (bit rot under the trailing CRC) is a
/// reported [`DurableError::Corrupt`], never a panic and never a silent
/// fall-back to genesis.
#[test]
fn a_corrupt_checkpoint_image_is_a_clean_error() {
    let params = ChurnParams {
        shape: FamilyShape::Diamond,
        classes: 5,
        views: 6,
        path_view_percent: 30,
        objects: 18,
        transactions: 5,
        ops_per_transaction: 4,
        retract_percent: 40,
    };
    let golden = golden_run(3, params, 1, None);
    let image = golden
        .files
        .keys()
        .find(|name| name.ends_with(".img"))
        .expect("an image exists")
        .clone();
    let len = golden.files[&image].len();
    for offset in [0, len / 3, len / 2, len - 1] {
        let backend = Arc::new(FaultyBackend::with_files(golden.files.clone()));
        assert!(backend.flip_bit(&image, offset, 3), "flip applied");
        match OptimizedDatabase::open(backend, DurableOptions::default(), || {
            panic!("a corrupt image must not fall back to genesis")
        }) {
            Err(DurableError::Corrupt(_)) => {}
            Ok(_) => panic!("offset {offset}: corrupt image recovered as valid"),
            Err(e) => panic!("offset {offset}: unexpected error kind: {e}"),
        }
    }
}

/// Satellite (delta-log cap): a transaction larger than the in-memory
/// delta-log cap must reach the WAL in full — the durable floor pins
/// the unlogged suffix against the cap's truncation — and a second
/// oversized transaction may evict the first from memory (the WAL owns
/// that history now) yet recovery still replays both exactly.
#[test]
fn transactions_larger_than_the_delta_log_cap_survive_recovery() {
    let mut model = subq::dl::DlModel::new();
    model.classes.push(subq::dl::ClassDecl {
        name: "K".into(),
        is_a: vec![],
        attributes: vec![],
        constraint: None,
    });
    let backend = Arc::new(FaultyBackend::new());
    let mut odb = OptimizedDatabase::open(backend.clone(), DurableOptions::default(), || {
        Database::new(model.clone())
    })
    .expect("genesis open");

    // Two transactions of 40_000 deltas each: the log crosses the 2^16
    // cap during the second one.
    const BULK: usize = 40_000;
    for round in 0..2usize {
        odb.commit_durable(|db| {
            for i in 0..BULK {
                db.add_object(&format!("bulk{}", round * BULK + i));
            }
        })
        .expect("oversized commit");
    }
    assert_eq!(odb.database().data_version(), 2 * BULK as u64);
    assert_eq!(odb.database().durable_floor(), Some(2 * BULK as u64));
    assert!(
        odb.database().delta_log().len() < 2 * BULK,
        "the cap never fired — the regression is untested"
    );

    let files = backend.surviving_files();
    drop(odb);
    let odb = OptimizedDatabase::open(
        Arc::new(FaultyBackend::with_files(files)),
        DurableOptions::default(),
        || panic!("recovery must find the genesis image"),
    )
    .expect("recovers");
    assert_eq!(odb.database().data_version(), 2 * BULK as u64);
    assert_eq!(odb.database().object_count(), 2 * BULK);
    assert!(odb.database().object("bulk0").is_some());
    assert!(odb
        .database()
        .object(&format!("bulk{}", 2 * BULK - 1))
        .is_some());
    let stats = odb.durability_stats().expect("opened durably");
    assert_eq!(stats.recovered_records, 2);
    assert_eq!(stats.truncated_tail_bytes, 0);

    // A volatile store logs the same way, to a backend that keeps
    // nothing: its first transaction is pinned against the cap too.
    let mut volatile = OptimizedDatabase::new(Database::new(model)).expect("translates");
    volatile
        .commit_durable(|db| {
            for i in 0..2 * BULK {
                db.add_object(&format!("bulk{i}"));
            }
        })
        .expect("oversized volatile commit");
    assert_eq!(volatile.database().data_version(), 2 * BULK as u64);
}

/// Satellite (PR 5 routing watermark): committing across a recovery
/// boundary — views restored from the image, the delta log re-based at
/// the image version — must keep every view exactly fresh after every
/// subsequent transaction.
#[test]
fn views_stay_equivalent_when_committing_across_a_recovery_boundary() {
    let params = ChurnParams {
        shape: FamilyShape::Diamond,
        classes: 5,
        views: 8,
        path_view_percent: 50,
        objects: 20,
        transactions: 8,
        ops_per_transaction: 5,
        retract_percent: 50,
    };
    for seed in 40..46u64 {
        let trace = churn_trace(seed, params);
        let backend = Arc::new(FaultyBackend::new());
        let mut odb =
            OptimizedDatabase::open(backend.clone(), DurableOptions { group_commit: 2 }, || {
                trace.db.clone()
            })
            .expect("genesis open");
        for name in &trace.view_names {
            odb.materialize_view(name).expect("materializes");
        }
        odb.checkpoint().expect("checkpoint");
        let half = trace.transactions.len() / 2;
        for txn in &trace.transactions[..half] {
            odb.commit_durable(|db| {
                for op in txn {
                    op.apply(db);
                }
            })
            .expect("commit");
        }
        odb.sync_durable().expect("sync");
        let files = backend.surviving_files();
        drop(odb);

        let mut odb = OptimizedDatabase::open(
            Arc::new(FaultyBackend::with_files(files)),
            DurableOptions::default(),
            || panic!("recovery must find the image"),
        )
        .expect("recovers");
        // A refresh that routes zero views must consolidate silently…
        odb.refresh_views();
        // …and every later commit must still reach every view.
        for (t, txn) in trace.transactions[half..].iter().enumerate() {
            odb.commit_durable(|db| {
                for op in txn {
                    op.apply(db);
                }
            })
            .expect("commit after recovery");
            for name in &trace.view_names {
                let view = odb.catalog().view(name).expect("restored");
                assert_eq!(
                    *view.extent,
                    evaluate_query(odb.database(), &view.definition),
                    "seed {seed}: post-recovery txn {t}: view {name}"
                );
            }
        }
    }
}

/// Satellite (retraction churn): retraction-heavy chain traces replayed
/// from the WAL reproduce downward isA propagation (retracting a class
/// strips subclasses too) and the attribute index in both directions,
/// at every transaction boundary.
#[test]
fn retraction_heavy_traces_replay_propagation_and_attr_indexes_exactly() {
    let params = ChurnParams {
        shape: FamilyShape::Chain,
        classes: 7,
        views: 7,
        path_view_percent: 30,
        objects: 24,
        transactions: 8,
        ops_per_transaction: 6,
        retract_percent: 90,
    };
    for seed in 70..78u64 {
        let trace = churn_trace(seed, params);
        let retracts = trace
            .transactions
            .iter()
            .flatten()
            .filter(|op| {
                matches!(
                    op,
                    subq::workload::ChurnOp::RetractClass(..)
                        | subq::workload::ChurnOp::RetractAttr(..)
                )
            })
            .count();
        assert!(retracts > 0, "seed {seed}: the trace never retracts");

        let golden = golden_run(seed, params, 1, None);
        let wal = golden.files.get(WAL_FILE).expect("the WAL file exists");
        for boundary in record_boundaries(wal) {
            let label = format!("retract/seed={seed}/boundary={boundary}");
            let backend = Arc::new(FaultyBackend::with_files(crashed_files(
                &golden.files,
                boundary,
            )));
            let odb = OptimizedDatabase::open(backend, DurableOptions::default(), || {
                panic!("{label}: genesis must not run")
            })
            .unwrap_or_else(|e| panic!("{label}: {e}"));
            let recovered = odb.database();
            let scratch = scratch_at(&trace, &golden.committed, recovered.data_version(), &label);
            assert_state_matches(&label, recovered, &scratch);
            // The attribute index agrees object-by-object in both the
            // forward and the inverse direction, and the two directions
            // agree with each other.
            for obj in scratch.objects() {
                for attr in ["link", "rev_link"] {
                    assert_eq!(
                        recovered.attr_values(obj, attr),
                        scratch.attr_values(obj, attr),
                        "{label}: {attr} of {}",
                        scratch.object_name(obj)
                    );
                }
            }
            for (from, to) in recovered.attr_pairs("link") {
                assert!(
                    recovered.attr_values(to, "rev_link").contains(&from),
                    "{label}: inverse index misses ({from:?}, {to:?})"
                );
            }
        }
    }
}

/// Nothing is visible before its fsync at `group_commit` 8: three
/// commits leave their records in an open batch, and a reader attached
/// to the store adopts none of them until `sync_durable` forces the
/// batch to disk — then it adopts all three at once.
#[test]
fn nothing_is_visible_before_its_fsync_at_group_commit_8() {
    let trace = churn_trace(5, ChurnParams::default());
    let backend = Arc::new(FaultyBackend::new());
    let mut odb = OptimizedDatabase::open(backend, DurableOptions { group_commit: 8 }, || {
        trace.db.clone()
    })
    .expect("genesis open");
    for name in &trace.view_names {
        odb.materialize_view(name).expect("materializes");
    }
    odb.checkpoint().expect("checkpoint after materialization");
    let mut reader = odb.reader();
    reader.sync();
    let published = reader.data_version();
    let fsyncs = odb.durability_stats().expect("durable").fsyncs;
    for i in 0..3 {
        let before = odb.database().data_version();
        odb.commit_durable(|db| {
            for op in &trace.transactions[i] {
                op.apply(db);
            }
            db.add_object(&format!("unsynced{i}"));
        })
        .expect("commit");
        assert!(
            odb.database().data_version() > before,
            "commit {i} changed nothing"
        );
        assert!(!reader.sync(), "commit {i} was published before its fsync");
        assert_eq!(reader.data_version(), published);
    }
    assert_eq!(
        odb.durability_stats().expect("durable").fsyncs,
        fsyncs,
        "an open batch of three must not have synced"
    );

    let watermark = odb.sync_durable().expect("sync");
    assert_eq!(watermark, odb.database().data_version());
    assert!(reader.sync(), "the synced batch must be published");
    assert_eq!(reader.data_version(), watermark);
    for name in &trace.view_names {
        let view = reader.snapshot().view(name).expect("published");
        assert_eq!(
            *view.extent,
            evaluate_query(odb.database(), &view.definition),
            "view {name} published stale"
        );
    }
}
