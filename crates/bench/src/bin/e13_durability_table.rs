//! E13: the durable storage engine — write-ahead logging with group
//! commit, checkpoint images, and crash recovery.
//!
//! Four arms:
//!
//! 1. **WAL latency vs fsync batch** — the durability portion of a
//!    commit (encode + append + amortized fsync) driven directly against
//!    the real file backend at batch sizes 1/8/32. The acceptance gate
//!    is ≥5× per-transaction improvement at batch 32 over batch 1: the
//!    stable-storage barrier is the dominant cost, and group commit
//!    divides it by the batch size.
//! 2. **End-to-end commit latency** — `commit_durable` through the whole
//!    engine at the same batch sizes, for context (the in-memory update
//!    and snapshot publication dilute the visible ratio; the absolute
//!    saving per transaction is the same).
//! 3. **Recovery time vs log length** — cold `open()` against a
//!    64k-entry committed history, once with the whole history in the
//!    WAL and once with all but a 1k-entry suffix absorbed into a
//!    checkpoint image. The acceptance gate is ≥5×: recovery cost is
//!    proportional to the replayed suffix, not the store size.
//! 4. **Checkpoint size vs store size** — image bytes per object at
//!    10k/40k/100k objects (names, eight class extents as compressed
//!    bitmaps, one `link` edge per four objects).
//!
//! Wall-clock columns are machine- and filesystem-bound; rows land in
//! `BENCH_e13.json` so `perf_smoke` can gate the two ratios on the
//! committed table and re-check the CPU-bound recovery ratio live.

use subq_bench::e13::{checkpoint_size_arm, commit_latency_arm, recovery_arm, wal_latency_arm};
use subq_bench::{json_object, json_str, row, write_json_rows};

fn main() {
    let cores = subq_bench::cores();
    let mut json_rows = Vec::new();

    // Arm 1: the WAL portion of commit latency versus fsync batch size.
    println!("E13a: WAL append+fsync per transaction vs group-commit batch ({cores} cores)");
    println!();
    let headers = [
        "batch",
        "txns",
        "record B",
        "per-txn ns",
        "fsyncs",
        "vs batch=1",
    ];
    println!("{}", row(&headers.map(String::from)));
    println!("{}", row(&headers.map(|_| "---".into())));
    let mut batch1_ns = 0u128;
    for batch in [1usize, 8, 32] {
        let r = wal_latency_arm(batch, 256);
        if batch == 1 {
            batch1_ns = r.per_txn_ns;
        }
        let speedup = batch1_ns as f64 / r.per_txn_ns as f64;
        println!(
            "{}",
            row(&[
                batch.to_string(),
                r.txns.to_string(),
                r.record_bytes.to_string(),
                r.per_txn_ns.to_string(),
                r.fsyncs.to_string(),
                format!("{speedup:.1}×"),
            ])
        );
        json_rows.push(json_object(&[
            ("experiment", json_str("e13_durability")),
            ("arm", json_str("wal_latency")),
            ("batch", batch.to_string()),
            ("txns", r.txns.to_string()),
            ("cores", cores.to_string()),
            ("record_bytes", r.record_bytes.to_string()),
            ("per_txn_ns", r.per_txn_ns.to_string()),
            ("fsyncs", r.fsyncs.to_string()),
            ("speedup_vs_1", format!("{speedup:.2}")),
        ]));
    }

    // Arm 2: end-to-end commit latency at the same batch sizes.
    println!();
    println!("E13b: end-to-end commit_durable per transaction vs batch (context)");
    println!();
    let headers = ["batch", "txns", "per-commit ns", "fsyncs", "group commits"];
    println!("{}", row(&headers.map(String::from)));
    println!("{}", row(&headers.map(|_| "---".into())));
    for batch in [1usize, 8, 32] {
        let r = commit_latency_arm(batch, 128);
        println!(
            "{}",
            row(&[
                batch.to_string(),
                r.txns.to_string(),
                r.per_commit_ns.to_string(),
                r.fsyncs.to_string(),
                r.group_commits.to_string(),
            ])
        );
        json_rows.push(json_object(&[
            ("experiment", json_str("e13_durability")),
            ("arm", json_str("commit_latency")),
            ("batch", batch.to_string()),
            ("txns", r.txns.to_string()),
            ("per_commit_ns", r.per_commit_ns.to_string()),
            ("fsyncs", r.fsyncs.to_string()),
            ("group_commits", r.group_commits.to_string()),
        ]));
    }

    // Arm 3: recovery time, full-log replay vs image + suffix.
    println!();
    println!("E13c: cold open() of a 64k-entry committed history");
    println!();
    let headers = [
        "mode",
        "log entries",
        "replayed records",
        "recovery ns",
        "speedup",
    ];
    println!("{}", row(&headers.map(String::from)));
    println!("{}", row(&headers.map(|_| "---".into())));
    // 512 txns × 64 edge toggles × 2 deltas = 65_536 entries over a
    // 4096-object store; the image run keeps an 8-txn (1024-entry)
    // suffix in the WAL.
    let full = recovery_arm(4096, 64, 512, None);
    let suffix = recovery_arm(4096, 64, 512, Some(8));
    let ratio = full.recovery_ns as f64 / suffix.recovery_ns as f64;
    for r in [&full, &suffix] {
        let speedup = full.recovery_ns as f64 / r.recovery_ns as f64;
        println!(
            "{}",
            row(&[
                r.mode.to_string(),
                r.log_entries.to_string(),
                r.replayed_records.to_string(),
                r.recovery_ns.to_string(),
                format!("{speedup:.1}×"),
            ])
        );
        json_rows.push(json_object(&[
            ("experiment", json_str("e13_durability")),
            ("arm", json_str("recovery")),
            ("mode", json_str(r.mode)),
            ("cores", cores.to_string()),
            ("log_entries", r.log_entries.to_string()),
            ("replayed_records", r.replayed_records.to_string()),
            ("recovery_ns", r.recovery_ns.to_string()),
            ("speedup_vs_full", format!("{speedup:.2}")),
        ]));
    }
    println!();
    println!("image+suffix recovery is {ratio:.1}× faster than full-log replay");

    // Arm 4: checkpoint image size versus store size.
    println!();
    println!("E13d: checkpoint image size vs store size");
    println!();
    let headers = [
        "objects",
        "edges",
        "image bytes",
        "B/object",
        "checkpoint ns",
    ];
    println!("{}", row(&headers.map(String::from)));
    println!("{}", row(&headers.map(|_| "---".into())));
    for objects in [10_000usize, 40_000, 100_000] {
        let r = checkpoint_size_arm(objects);
        println!(
            "{}",
            row(&[
                r.objects.to_string(),
                r.edges.to_string(),
                r.image_bytes.to_string(),
                format!("{:.1}", r.bytes_per_object),
                r.checkpoint_ns.to_string(),
            ])
        );
        json_rows.push(json_object(&[
            ("experiment", json_str("e13_durability")),
            ("arm", json_str("checkpoint_size")),
            ("objects", r.objects.to_string()),
            ("edges", r.edges.to_string()),
            ("image_bytes", r.image_bytes.to_string()),
            ("bytes_per_object", format!("{:.2}", r.bytes_per_object)),
            ("checkpoint_ns", r.checkpoint_ns.to_string()),
        ]));
    }

    write_json_rows("BENCH_e13.json", &json_rows);
}
