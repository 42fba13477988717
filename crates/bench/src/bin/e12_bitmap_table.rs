//! E12: the physical layer — compressed bitmap extents, cardinality
//! statistics, and sharded scatter-gather evaluation.
//!
//! Four arms, all over the same store primitives the engine runs on:
//!
//! 1. **Intersection throughput** — two ≈100k-id candidate sets
//!    intersected as compressed bitmaps versus the ordered-set
//!    (`BTreeSet`) baseline, across occupancy densities. The acceptance
//!    gate is ≥5× at the dense end.
//! 2. **Scatter-gather** — full evaluation of a path view over a
//!    400k-object store over 1/2/4/8 id-range shards
//!    (`filter_members_sharded`). The answer set must be identical at
//!    every shard count; the speedup is core-bound, so the table records
//!    the cores it ran on.
//! 3. **Plan quality** — on the seeded E9 catalogs (tree, chain,
//!    diamond, flat × 50 views), the cost-based view choice versus every
//!    enumerable subsuming view: worst `chosen/best`
//!    candidates-examined ratio, and how often the choice was worse than
//!    the smallest-extension heuristic (must be never).
//! 4. **Large-store latency** — p50/p99 of plan+execute over the view
//!    queries of a 1M-object store, sub-ms on ≥4-core hardware
//!    (core-proportionally relaxed below).
//!
//! Counters and ratios are deterministic; wall-clock columns are
//! machine-bound. Rows land in `BENCH_e12.json` with the core count so
//! `perf_smoke` can enforce the bounds proportionally.

use subq::workload::FamilyShape;
use subq_bench::e12::{intersect_arm, latency_arm, plan_quality_arm, scatter_arm, scatter_setup};
use subq_bench::{json_object, json_str, row, write_json_rows};

fn main() {
    let cores = subq_bench::cores();
    let mut json_rows = Vec::new();

    // Arm 1: intersection throughput versus density.
    println!("E12a: candidate-set intersection, compressed bitmap vs ordered set (n≈100k)");
    println!();
    let headers = [
        "density",
        "universe",
        "|a∩b|",
        "bitmap ns/op",
        "btree ns/op",
        "speedup",
    ];
    println!("{}", row(&headers.map(String::from)));
    println!("{}", row(&headers.map(|_| "---".into())));
    for density in [90, 10, 1] {
        let r = intersect_arm(density);
        println!(
            "{}",
            row(&[
                format!("{density}%"),
                r.universe.to_string(),
                r.intersection.to_string(),
                r.bitmap_ns.to_string(),
                r.btree_ns.to_string(),
                format!("{:.1}×", r.speedup),
            ])
        );
        json_rows.push(json_object(&[
            ("experiment", json_str("e12_bitmap")),
            ("arm", json_str("intersect")),
            ("density_percent", density.to_string()),
            ("universe", r.universe.to_string()),
            ("n", r.n.to_string()),
            ("intersection", r.intersection.to_string()),
            ("bitmap_ns", r.bitmap_ns.to_string()),
            ("btree_ns", r.btree_ns.to_string()),
            ("speedup", format!("{:.2}", r.speedup)),
        ]));
    }

    // Arm 2: scatter-gather speedup versus shard count.
    println!();
    println!("E12b: scatter-gather path-view evaluation, 400k objects ({cores} cores)");
    println!();
    let headers = ["shards", "eval ns", "answers", "speedup vs 1"];
    println!("{}", row(&headers.map(String::from)));
    println!("{}", row(&headers.map(|_| "---".into())));
    let (db, query) = scatter_setup(400_000);
    let rows = [1usize, 2, 4, 8].map(|shards| scatter_arm(&db, &query, shards));
    let base = &rows[0];
    for r in &rows {
        assert!(
            r.answers == base.answers,
            "scatter-gather must return the same answer set at every shard count"
        );
        let speedup = base.elapsed_ns as f64 / r.elapsed_ns as f64;
        println!(
            "{}",
            row(&[
                r.shards.to_string(),
                r.elapsed_ns.to_string(),
                r.answers.len().to_string(),
                format!("{speedup:.2}×"),
            ])
        );
        json_rows.push(json_object(&[
            ("experiment", json_str("e12_bitmap")),
            ("arm", json_str("scatter")),
            ("workers", r.shards.to_string()),
            ("cores", cores.to_string()),
            ("elapsed_ns", r.elapsed_ns.to_string()),
            ("answers", r.answers.len().to_string()),
            ("speedup_vs_1", format!("{speedup:.2}")),
        ]));
    }
    drop(db);

    // Arm 3: cost-model plan quality on the E9 catalog shapes.
    println!();
    println!("E12c: cost-based view choice vs enumerated alternatives (E9 catalogs, 50 views)");
    println!();
    let headers = [
        "shape",
        "queries",
        "chosen cand.",
        "best cand.",
        "worst ratio",
        "worse than smallest-ext",
    ];
    println!("{}", row(&headers.map(String::from)));
    println!("{}", row(&headers.map(|_| "---".into())));
    for shape in [
        FamilyShape::Tree,
        FamilyShape::Chain,
        FamilyShape::Diamond,
        FamilyShape::Flat,
    ] {
        let r = plan_quality_arm(shape, 50);
        println!(
            "{}",
            row(&[
                r.shape.to_string(),
                r.queries.to_string(),
                r.chosen_candidates.to_string(),
                r.best_candidates.to_string(),
                format!("{:.3}", r.worst_ratio),
                r.worse_than_smallest.to_string(),
            ])
        );
        json_rows.push(json_object(&[
            ("experiment", json_str("e12_bitmap")),
            ("arm", json_str("plan_quality")),
            ("shape", json_str(r.shape)),
            ("views", r.views.to_string()),
            ("queries", r.queries.to_string()),
            ("chosen_candidates", r.chosen_candidates.to_string()),
            ("best_candidates", r.best_candidates.to_string()),
            ("worst_ratio", format!("{:.3}", r.worst_ratio)),
            ("worse_than_smallest", r.worse_than_smallest.to_string()),
        ]));
    }

    // Arm 4: plan+execute latency on the 1M-object store.
    println!();
    println!("E12d: plan+execute latency, 1M objects, 64 views ({cores} cores)");
    println!();
    let r = latency_arm(1_000_000, 256);
    let headers = ["objects", "views", "ops", "p50 ns", "p99 ns"];
    println!("{}", row(&headers.map(String::from)));
    println!("{}", row(&headers.map(|_| "---".into())));
    println!(
        "{}",
        row(&[
            r.objects.to_string(),
            r.views.to_string(),
            r.ops.to_string(),
            r.p50_ns.to_string(),
            r.p99_ns.to_string(),
        ])
    );
    json_rows.push(json_object(&[
        ("experiment", json_str("e12_bitmap")),
        ("arm", json_str("latency")),
        ("objects", r.objects.to_string()),
        ("views", r.views.to_string()),
        ("cores", cores.to_string()),
        ("ops", r.ops.to_string()),
        ("p50_ns", r.p50_ns.to_string()),
        ("p99_ns", r.p99_ns.to_string()),
    ]));

    write_json_rows("BENCH_e12.json", &json_rows);
}
