//! E13 — the durable storage engine: write-ahead logging with group
//! commit, checkpoint images and crash recovery, on the real file backend
//! in a scratch directory (`tests/crash_recovery.rs` is the correctness
//! side). The schema is eight classes and a `link` attribute. Four arms:
//!
//! * `wal_latency` — the *durability portion* of a commit (encode, append
//!   and the amortized fsync of a representative 4-delta record) driven
//!   directly against the backend, 256 transactions at 1/8/32 records per
//!   fsync. The full commit also pays the in-memory update and snapshot
//!   publication, identical at every batch size; isolating the log write
//!   is what makes the amortization visible on any store.
//! * `commit_latency` — `commit_durable` through the whole engine, 128
//!   two-delta transactions at the same batch sizes, for context.
//! * `recovery` — cold `open()` of a 64k-entry committed history (512
//!   transactions × 64 edge toggles × 2 deltas over 4 096 objects), once
//!   with the whole history in the WAL and once with all but an
//!   8-transaction suffix absorbed into a checkpoint image. Every
//!   transaction asserts fresh `link` edges and retracts the batch
//!   asserted sixteen transactions earlier, so the log is long while the
//!   store, and hence the fixed image-load cost, stays small — the regime
//!   the checkpoint exists for.
//! * `checkpoint_size` — image bytes per object at 10k/40k/100k objects
//!   (names, eight class extents as compressed bitmaps, one `link` edge
//!   per four objects).
//!
//! Bounds (the filesystem the committed rows were measured on is part of
//! the record):
//!
//! * the batch-32 WAL write is ≥ 5× cheaper per transaction than batch-1:
//!   on any real store the fsync barrier dominates the append. Live (64
//!   transactions) this only warns below 4.5× — a runner whose scratch
//!   directory is tmpfs has, legitimately, nearly free fsyncs;
//! * image+suffix recovery is ≥ 5× faster than full-log replay of the
//!   same 64k entries. Live at 16k entries the floor is 2× (replay is
//!   CPU-bound, so a runner can dilute but not erase the advantage) and
//!   4.5× the warning;
//! * every checkpoint image stays under 200 bytes per object (≈ 16: names
//!   dominate, the extents are compressed bitmaps).
//!
//! The live rows also carry the **telemetry-overhead** gate, because one of
//! its two paths is this experiment's commit arm: telemetry must be free
//! when unread. The two hottest instrumented paths — E8's memoized repeat
//! plan (counter bumps in the subsumption cache plus the plan-latency
//! span) and the durable commit (WAL fsync span plus batch-size
//! histogram) — are timed with spans enabled and disabled. Counters are
//! always-on relaxed atomics on both sides; `set_enabled` gates only the
//! span clock reads, which is exactly the cost this bounds, at 1.10×
//! ([`overhead_ratio`]: 5 resp. 3 interleaved pairs a round).

use crate::{ceiling, cores, e8, floor, overhead_ratio, Experiment, Row, Source};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use subq::dl::{AttrDecl, ClassDecl, DlModel};
use subq::oodb::durable::codec::{encode_record, WalRecord};
use subq::oodb::maintain::Delta;
use subq::oodb::{Database, DurableOptions, FileBackend, ObjId, OptimizedDatabase, StorageBackend};

pub const EXPERIMENT: Experiment = Experiment {
    id: "e13",
    title: "the durable engine: group commit, recovery, checkpoint size",
    file: "BENCH_e13.json",
    rows: 11,
    table,
    live: Some(live),
    counters: &[],
    gate,
};

fn table() -> Vec<Row> {
    let mut rows = wal_latency_rows(&[1, 8, 32], 256);
    for batch in [1usize, 8, 32] {
        let txns = 128;
        let (per_commit_ns, fsyncs, group_commits) = commit_latency(batch, txns);
        rows.push(
            Row::new("e13_durability")
                .text("arm", "commit_latency")
                .int("batch", batch)
                .int("txns", txns)
                .int("per_commit_ns", per_commit_ns)
                .int("fsyncs", fsyncs)
                .int("group_commits", group_commits),
        );
    }
    rows.extend(recovery_rows(4096, 512, 8));
    for objects in [10_000usize, 40_000, 100_000] {
        rows.push(checkpoint_size_arm(objects));
    }
    rows
}

fn live() -> Vec<Row> {
    let mut rows = recovery_rows(2048, 128, 4);
    rows.extend(wal_latency_rows(&[1, 32], 64));

    let overhead = |path: &str, ratio: f64| {
        Row::new("e13_durability")
            .text("arm", "telemetry_overhead")
            .text("path", path)
            .float("on_vs_off", ratio, 3)
    };
    let (mut odb, query) = e8::warm_optimizer();
    let plan = overhead_ratio(5, 1.10, |enabled| {
        subq::telemetry::set_enabled(enabled);
        e8::repeat_plan_ns(&mut odb, &query, 64) as f64
    });
    let commit = overhead_ratio(3, 1.10, |enabled| {
        subq::telemetry::set_enabled(enabled);
        commit_latency(8, 192).0 as f64
    });
    subq::telemetry::set_enabled(true);
    rows.push(overhead("E8 repeat plan", plan));
    rows.push(overhead("E13 durable commit", commit));
    rows
}

fn gate(rows: &[Row], source: Source, failures: &mut Vec<String>) -> Result<(), String> {
    let (mut wal_1, mut wal_32, mut full_log, mut image_suffix) = (None, None, None, None);
    for row in rows {
        match row.str("arm")? {
            "wal_latency" => match row.u64("batch")? {
                1 => wal_1 = Some(row.f64("per_txn_ns")?),
                32 => wal_32 = Some(row.f64("per_txn_ns")?),
                _ => {}
            },
            "recovery" => {
                let (mode, entries) = (row.str("mode")?, row.u64("log_entries")?);
                if source == Source::Committed && entries != 65_536 {
                    failures.push(format!(
                        "the {mode} recovery row covers {entries} log entries, not the 64k the bound is stated for"
                    ));
                }
                let slot = match mode {
                    "full_log" => &mut full_log,
                    _ => &mut image_suffix,
                };
                *slot = Some(row.f64("recovery_ns")?);
            }
            "checkpoint_size" => {
                let (objects, density) = (row.u64("objects")?, row.f64("bytes_per_object")?);
                if density > 200.0 {
                    failures.push(format!(
                        "the checkpoint image of the {objects}-object store weighs {density:.1} B/object (ceiling 200)"
                    ));
                }
            }
            "telemetry_overhead" => {
                let what = format!("instrumented {} vs telemetry disabled:", row.str("path")?);
                ceiling(&what, row.f64("on_vs_off")?, 1.10, 1.10, failures);
            }
            "commit_latency" => {}
            _ => return Err(row.unexpected("arm", "a known arm")),
        }
    }
    let (Some(wal_1), Some(wal_32)) = (wal_1, wal_32) else {
        return Err("no WAL rows at batch 1 and batch 32".to_string());
    };
    let (Some(full_log), Some(image_suffix)) = (full_log, image_suffix) else {
        return Err("no full_log and image_suffix recovery rows".to_string());
    };
    let (wal_floor, recovery_floor, target) = match source {
        Source::Committed => (5.0, 5.0, 5.0),
        Source::Live => (0.0, 2.0, 4.5),
    };
    let what = "batch-32 WAL write vs batch-1, per transaction:";
    floor(what, wal_1 / wal_32, wal_floor, target, failures);
    let what = "image+suffix recovery vs full-log replay:";
    floor(
        what,
        full_log / image_suffix,
        recovery_floor,
        target,
        failures,
    );
    Ok(())
}

/// A fresh scratch directory for one arm (the arm removes it).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("subq_e13_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating the scratch directory");
    dir
}

fn bench_model() -> DlModel {
    let mut model = DlModel::new();
    for i in 0..8 {
        model.classes.push(ClassDecl {
            name: format!("K{i}"),
            is_a: vec![],
            attributes: vec![],
            constraint: None,
        });
    }
    model.attributes.push(AttrDecl {
        name: "link".into(),
        domain: "Object".into(),
        range: "Object".into(),
        inverse: None,
    });
    model
}

/// One row per batch size, the first being the baseline of `speedup_vs_1`.
fn wal_latency_rows(batches: &[usize], txns: usize) -> Vec<Row> {
    let record = WalRecord {
        start_version: 0,
        deltas: (0..4u32)
            .map(|i| {
                let delta = Delta::AddObject { object: ObjId(i) };
                (delta, Some(format!("object{i}")))
            })
            .collect(),
    };
    let mut bytes = Vec::new();
    encode_record(&record, &mut bytes);
    let mut base_ns = None;
    let mut rows = Vec::new();
    for &batch in batches {
        let dir = scratch_dir(&format!("wal{batch}"));
        let backend = FileBackend::new(&dir).expect("backend");
        for _ in 0..4 {
            backend.append("wal.log", &bytes).expect("warmup append");
            backend.sync("wal.log").expect("warmup sync");
        }
        let (mut fsyncs, mut pending) = (0u64, 0usize);
        let start = Instant::now();
        for _ in 0..txns {
            backend.append("wal.log", &bytes).expect("append");
            pending += 1;
            if pending >= batch {
                backend.sync("wal.log").expect("sync");
                fsyncs += 1;
                pending = 0;
            }
        }
        if pending > 0 {
            backend.sync("wal.log").expect("sync");
            fsyncs += 1;
        }
        let per_txn_ns = (start.elapsed().as_nanos() / txns as u128).max(1);
        drop(backend);
        let _ = std::fs::remove_dir_all(&dir);
        let base_ns = *base_ns.get_or_insert(per_txn_ns);
        rows.push(
            Row::new("e13_durability")
                .text("arm", "wal_latency")
                .int("batch", batch)
                .int("txns", txns)
                .int("cores", cores())
                .int("record_bytes", bytes.len())
                .int("per_txn_ns", per_txn_ns)
                .int("fsyncs", fsyncs)
                .float("speedup_vs_1", base_ns as f64 / per_txn_ns as f64, 2),
        );
    }
    rows
}

/// `(ns per commit_durable, fsyncs issued, batches covering more than one
/// record)` of `txns` two-delta transactions at group-commit size `batch`.
fn commit_latency(batch: usize, txns: usize) -> (u128, u64, u64) {
    let dir = scratch_dir(&format!("commit{batch}"));
    let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::new(&dir).expect("backend"));
    let options = DurableOptions {
        group_commit: batch,
    };
    let genesis = || Database::new(bench_model());
    let mut odb = OptimizedDatabase::open(backend, options, genesis).expect("genesis open");
    let start = Instant::now();
    for t in 0..txns {
        odb.commit_durable(|db| {
            let obj = db.add_object(&format!("c{t}"));
            db.assert_class(obj, &format!("K{}", t % 8));
        })
        .expect("commit");
    }
    odb.sync_durable().expect("final sync");
    let per_commit_ns = (start.elapsed().as_nanos() / txns as u128).max(1);
    let stats = odb.durability_stats().expect("opened durably");
    drop(odb);
    let _ = std::fs::remove_dir_all(&dir);
    (per_commit_ns, stats.fsyncs, stats.group_commits)
}

/// The `full_log` row, then the `image_suffix` row that checkpoints with
/// `tail_txns` transactions still to come: each builds a `txns`-transaction
/// history of 64 edge toggles (128 deltas) a transaction over `objects`
/// objects, then times a cold `open()`.
fn recovery_rows(objects: usize, txns: usize, tail_txns: usize) -> Vec<Row> {
    const WINDOW: usize = 16;
    const EDGES: usize = 64;
    let entries = (2 * EDGES * txns) as u64;
    // Edge `k` is unique for every `k` this arm touches: the `to`
    // endpoint shifts by one per wrap of the `from` endpoint.
    let edge = |k: usize| (k % objects, (k + k / objects) % objects);
    let mut full_ns = None;
    let mut rows = Vec::new();
    for (mode, checkpoint_at) in [("full_log", None), ("image_suffix", Some(tail_txns))] {
        let dir = scratch_dir(&format!("recover_{mode}_{entries}"));
        let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::new(&dir).expect("backend"));
        {
            let mut initial = Database::new(bench_model());
            let ids: Vec<_> = (0..objects)
                .map(|i| {
                    let obj = initial.add_object(&format!("o{i}"));
                    initial.assert_class(obj, &format!("K{}", i % 8));
                    obj
                })
                .collect();
            // Pre-assert the first WINDOW batches so every transaction
            // retracts a full batch.
            for k in 0..WINDOW * EDGES {
                let (from, to) = edge(k);
                initial.assert_attr(ids[from], "link", ids[to]);
            }
            let options = DurableOptions { group_commit: 64 };
            let mut odb = OptimizedDatabase::open(backend.clone(), options, || initial)
                .expect("genesis open");
            let genesis_version = odb.database().data_version();
            for t in 0..txns {
                odb.commit_durable(|db| {
                    for i in 0..EDGES {
                        let (from, to) = edge((WINDOW + t) * EDGES + i);
                        db.assert_attr(ids[from], "link", ids[to]);
                        let (from, to) = edge(t * EDGES + i);
                        db.retract_attr(ids[from], "link", ids[to]);
                    }
                })
                .expect("commit");
                if checkpoint_at == Some(txns - t - 1) {
                    odb.checkpoint().expect("checkpoint");
                }
            }
            odb.sync_durable().expect("final sync");
            assert_eq!(
                odb.database().data_version(),
                genesis_version + entries,
                "every assert and retract must be a real delta"
            );
        }
        let start = Instant::now();
        let odb = OptimizedDatabase::open(backend, DurableOptions::default(), || {
            panic!("a committed store must recover, not re-seed")
        })
        .expect("recovers");
        let recovery_ns = start.elapsed().as_nanos().max(1);
        assert_eq!(odb.database().object_count(), objects);
        assert_eq!(
            odb.database().attr_pairs("link").len(),
            WINDOW * EDGES,
            "the sliding edge window must survive recovery"
        );
        let stats = odb.durability_stats().expect("opened durably");
        drop(odb);
        let _ = std::fs::remove_dir_all(&dir);
        let full_ns = *full_ns.get_or_insert(recovery_ns);
        rows.push(
            Row::new("e13_durability")
                .text("arm", "recovery")
                .text("mode", mode)
                .int("cores", cores())
                .int("log_entries", entries)
                .int("replayed_records", stats.recovered_records)
                .int("recovery_ns", recovery_ns)
                .float("speedup_vs_full", full_ns as f64 / recovery_ns as f64, 2),
        );
    }
    rows
}

/// Builds the store in memory, opens it durably (genesis), and times one
/// explicit checkpoint.
fn checkpoint_size_arm(objects: usize) -> Row {
    let dir = scratch_dir(&format!("ckpt{objects}"));
    let mut db = Database::new(bench_model());
    for i in 0..objects {
        let obj = db.add_object(&format!("o{i}"));
        db.assert_class(obj, &format!("K{}", i % 8));
    }
    let mut edges = 0usize;
    for i in (0..objects).step_by(4) {
        let from = db.object(&format!("o{i}")).expect("created above");
        let to = db.object(&format!("o{}", i / 2)).expect("created above");
        db.assert_attr(from, "link", to);
        edges += 1;
    }
    let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::new(&dir).expect("backend"));
    let mut odb = OptimizedDatabase::open(backend.clone(), DurableOptions::default(), || db)
        .expect("genesis open");
    let start = Instant::now();
    odb.checkpoint().expect("checkpoint");
    let checkpoint_ns = start.elapsed().as_nanos().max(1);
    let mut names = backend.list().expect("list").into_iter();
    let image = names.find(|name| name.ends_with(".img"));
    let image = backend.read(&image.expect("an image exists"));
    let image_bytes = image.expect("read").expect("exists").len();
    drop(odb);
    let _ = std::fs::remove_dir_all(&dir);
    Row::new("e13_durability")
        .text("arm", "checkpoint_size")
        .int("objects", objects)
        .int("edges", edges)
        .int("image_bytes", image_bytes)
        .float("bytes_per_object", image_bytes as f64 / objects as f64, 2)
        .int("checkpoint_ns", checkpoint_ns)
}
