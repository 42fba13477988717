//! Perf smoke check: deterministic counters must not regress past the
//! ceilings recorded in the committed `BENCH_*.json` baselines.
//!
//! * the delta engine's `examined_delta` counters versus `BENCH_e5.json`
//!   (every `(family, n)` instance of the E5 table);
//! * the lattice planner's subsumption-probe counts versus
//!   `BENCH_e9.json` (every `(shape, views)` instance of the E9 table),
//!   plus the hard acceptance bound that on hierarchical catalogs of 50
//!   views the traversal performs at most 50% of the flat scan's probes;
//! * the incremental maintainer's membership-evaluation counts versus
//!   `BENCH_e10.json` (every `(objects, views)` instance of the E10
//!   table), plus the hard acceptance bound that a single-object update
//!   against a 10k-object / 50-view catalog refreshes with at least 10×
//!   fewer membership evaluations than a full refresh;
//! * the concurrent read path versus `BENCH_e11.json`: the deterministic
//!   zero-resaturation invariant on every row and live, plus the
//!   core-proportional 8-reader throughput bound (the full ≥4× on
//!   machines with ≥9 cores — see [`e11_checks`]), and the committed
//!   1-op whole-commit cost at 40k objects within 1.5× of the 10k row;
//! * the physical layer versus `BENCH_e12.json`: the ≥5× dense bitmap
//!   intersection gate (committed and live), the core-proportional
//!   8-shard scatter-gather bound, the cost-model plan-quality bounds
//!   (committed and live), and the core-clamped 1M-object p99
//!   plan+execute bound (see [`e12_checks`]);
//! * the durable engine versus `BENCH_e13.json`: the ≥5× group-commit
//!   amortization of the WAL write at batch 32, the ≥5× image+suffix
//!   recovery advantage over full-log replay at 64k-entry logs, and the
//!   checkpoint-image density ceiling (see [`e13_checks`]);
//! * the `subqd` server versus `BENCH_e14.json`: the core-clamped
//!   4-client mixed-traffic speedup, zero typed errors on every row, and
//!   the saturation row shedding load as typed `BUSY` (see
//!   [`e14_checks`]);
//! * the view advisor versus `BENCH_e15.json`: the auto arm within a
//!   core-clamped 2× of the hand-tuned static catalog with zero manual
//!   DDL and at least one auto-materialization, plus the live
//!   anti-collapse floor and the ≤2%-target observe-mode recording
//!   overhead on the E14 mixed path (see [`e15_checks`] and
//!   [`advisor_observe_overhead_checks`]);
//! * the telemetry layer's cost when unread: the instrumented E8
//!   repeat-plan and E13 durable-commit paths, re-timed with spans
//!   enabled versus disabled, must stay within 10% of each other (see
//!   [`overhead_checks`]).
//!
//! Counters (unlike wall-clock) are deterministic, so these are hard
//! assertions suitable for CI (with a small slack for intentional
//! bookkeeping changes — a real complexity regression blows far past it).
//!
//! Run from the repository root (where the `BENCH_*.json` files live),
//! *before* regenerating the tables: `cargo run --release -p subq-bench
//! --bin perf_smoke`.

use subq::oodb::OptimizedDatabase;
use subq::workload::scaling::{
    conjunction_width_instance, path_depth_instance, schema_size_instance, view_growth_instance,
};
use subq::workload::{hierarchical_catalog, FamilyShape, HierarchyParams, ScalingInstance};
use subq_bench::run_instance;

/// Allowed growth over the committed ceiling before the check fails.
const SLACK_PERCENT: usize = 10;

/// Extracts `"key": value` for a numeric or string value out of one flat
/// JSON row (the `BENCH_*.json` rows are flat objects on a single line).
fn field<'a>(row: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": ");
    let start = row.find(&needle)? + needle.len();
    let rest = &row[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

/// Re-runs one E9 lattice arm and returns `(flat probes, lattice probes)`.
/// Must mirror the construction in `e9_lattice_table.rs` (same seed and
/// parameters) so the counters are comparable.
fn e9_probe_counts(shape: FamilyShape, views: usize) -> (usize, usize) {
    let params = HierarchyParams {
        shape,
        views,
        members_per_class: 2,
        queries: 8,
        intersect_percent: 0,
        duplicate_percent: 0,
    };
    let instance = hierarchical_catalog(11, params);
    let mut odb = OptimizedDatabase::new(instance.db.clone()).expect("translates");
    for name in &instance.view_names {
        odb.materialize_view(name).expect("materializes");
    }
    let mut lattice_probes = 0usize;
    for query in &instance.queries {
        let plan = odb.plan(query);
        lattice_probes += plan.fresh_probes + plan.cached_probes;
    }
    // The flat scan deterministically probes every view once per query.
    let flat_probes = instance.view_names.len() * instance.queries.len();
    (flat_probes, lattice_probes)
}

fn e9_checks(failures: &mut Vec<String>) -> usize {
    let baseline = std::fs::read_to_string("BENCH_e9.json").unwrap_or_else(|error| {
        panic!("cannot read BENCH_e9.json (run from the repository root): {error}")
    });
    let shapes = [
        ("tree", FamilyShape::Tree),
        ("chain", FamilyShape::Chain),
        ("diamond", FamilyShape::Diamond),
        ("flat", FamilyShape::Flat),
    ];
    let mut checked = 0usize;
    for row in baseline.lines() {
        if !row.contains("\"e9_lattice\"") {
            continue;
        }
        let shape_name = field(row, "shape").expect("shape field");
        let views: usize = field(row, "views")
            .expect("views field")
            .parse()
            .expect("numeric views");
        let ceiling: usize = field(row, "lattice_probes")
            .expect("lattice_probes field")
            .parse()
            .expect("numeric lattice_probes");
        let (_, shape) = shapes
            .iter()
            .find(|(name, _)| *name == shape_name)
            .unwrap_or_else(|| panic!("unknown shape `{shape_name}` in BENCH_e9.json"));
        let (flat_probes, lattice_probes) = e9_probe_counts(*shape, views);
        let allowed = ceiling + ceiling * SLACK_PERCENT / 100;
        if lattice_probes > allowed {
            failures.push(format!(
                "e9 {shape_name} views={views}: {lattice_probes} lattice probes > committed ceiling {ceiling} (+{SLACK_PERCENT}% slack = {allowed})"
            ));
        }
        // The acceptance bound of the lattice planner: on hierarchical
        // catalogs of 50 views, at most half the flat scan's probes.
        if views == 50 && *shape != FamilyShape::Flat && 2 * lattice_probes > flat_probes {
            failures.push(format!(
                "e9 {shape_name} views=50: {lattice_probes} lattice probes exceed 50% of the flat scan's {flat_probes}"
            ));
        }
        checked += 1;
    }
    assert!(
        checked >= 12,
        "BENCH_e9.json yielded only {checked} rows; baseline looks truncated"
    );
    checked
}

fn e10_checks(failures: &mut Vec<String>) -> usize {
    let baseline = std::fs::read_to_string("BENCH_e10.json").unwrap_or_else(|error| {
        panic!("cannot read BENCH_e10.json (run from the repository root): {error}")
    });
    let mut checked = 0usize;
    for row in baseline.lines() {
        if !row.contains("\"e10_maintenance\"") {
            continue;
        }
        let objects: usize = field(row, "objects")
            .expect("objects field")
            .parse()
            .expect("numeric objects");
        let views: usize = field(row, "views")
            .expect("views field")
            .parse()
            .expect("numeric views");
        let ceiling: u64 = field(row, "inc_memberships")
            .expect("inc_memberships field")
            .parse()
            .expect("numeric inc_memberships");
        let arm = subq_bench::e10_maintenance_arm(objects, views);
        let allowed = ceiling + ceiling * SLACK_PERCENT as u64 / 100;
        if arm.inc_memberships > allowed {
            failures.push(format!(
                "e10 objects={objects} views={views}: {} incremental membership evaluations > committed ceiling {ceiling} (+{SLACK_PERCENT}% slack = {allowed})",
                arm.inc_memberships
            ));
        }
        // The acceptance bound of the maintenance engine: a single-object
        // update against the 10k-object / 50-view catalog must evaluate
        // at least 10× fewer memberships than a full refresh.
        if objects == 10_000
            && views == 50
            && arm.full_memberships < 10 * arm.inc_memberships.max(1)
        {
            failures.push(format!(
                "e10 objects=10000 views=50: incremental refresh evaluated {} memberships, full {} — below the 10× acceptance bound",
                arm.inc_memberships, arm.full_memberships
            ));
        }
        checked += 1;
    }
    assert!(
        checked >= 6,
        "BENCH_e10.json yielded only {checked} rows; baseline looks truncated"
    );
    checked
}

/// The E11 ceilings. The acceptance bound — ≥4× aggregate plan+answer
/// throughput at 8 reader threads versus 1 — is a *parallel wall-clock*
/// property and can only manifest on a machine with cores to scale onto,
/// so it is enforced proportionally to the parallelism actually present:
///
/// * the committed `BENCH_e11.json` must show an 8-reader speedup of at
///   least `clamp(0.45 × cores, 0.7, 4.0)` for the `cores` it records —
///   the full 4× when the table was generated on a machine with ≥ 9
///   cores, and never a collapse below a single reader;
/// * the live re-measurement hard-fails only on a **collapse** (8-reader
///   throughput below 0.5× of 1-reader, best of three attempts — only a
///   real serialization bug does that); the core-scaled target
///   `clamp(0.35 × cores, 0.7, 4.0)` is printed as a warning when missed
///   live, because wall-clock on a shared runner is noisy;
/// * the committed 1-op whole-commit row (update + publish + reader
///   sync) at 40k objects may cost at most 1.5× the one at 10k: a small
///   transaction pays for what it touches, not for the population;
/// * deterministically, on any machine and every attempt: readers
///   perform **zero** fresh subsumption probes after warmup
///   (`fresh_probes_after_warmup == 0`) — every probe is answered from
///   the shared memo or a private cache, the invariant the scaling
///   rests on.
fn e11_checks(failures: &mut Vec<String>) -> usize {
    let baseline = std::fs::read_to_string("BENCH_e11.json").unwrap_or_else(|error| {
        panic!("cannot read BENCH_e11.json (run from the repository root): {error}")
    });
    let bound = |cores: usize| -> f64 { (0.45 * cores as f64).clamp(0.7, 4.0) };
    let mut checked = 0usize;
    for row in baseline.lines() {
        if !row.contains("\"e11_concurrency\"") {
            continue;
        }
        let threads: usize = field(row, "threads")
            .expect("threads field")
            .parse()
            .expect("numeric threads");
        let cores: usize = field(row, "cores")
            .expect("cores field")
            .parse()
            .expect("numeric cores");
        let speedup: f64 = field(row, "speedup_vs_1")
            .expect("speedup_vs_1 field")
            .parse()
            .expect("numeric speedup_vs_1");
        let fresh: u64 = field(row, "fresh_probes_after_warmup")
            .expect("fresh_probes_after_warmup field")
            .parse()
            .expect("numeric fresh_probes_after_warmup");
        if fresh != 0 {
            failures.push(format!(
                "e11 threads={threads}: committed table records {fresh} fresh probes after warmup (must be 0)"
            ));
        }
        if threads == 8 && speedup < bound(cores) {
            failures.push(format!(
                "e11 committed table: 8-reader speedup {speedup:.2}× below the {:.2}× bound for its {cores} recorded cores",
                bound(cores)
            ));
        }
        checked += 1;
    }
    assert!(
        checked >= 4,
        "BENCH_e11.json yielded only {checked} throughput rows; baseline looks truncated"
    );

    // A 1-op commit copies what it touches, not the store: the committed
    // whole-commit row at 40k objects may cost at most 1.5× the 10k row.
    let one_op_commit_ns = |objects: &str| -> f64 {
        baseline
            .lines()
            .find(|row| {
                row.contains("\"e11_commit_cost\"")
                    && field(row, "objects") == Some(objects)
                    && field(row, "txn_ops") == Some("1")
            })
            .and_then(|row| field(row, "commit_ns"))
            .unwrap_or_else(|| panic!("BENCH_e11.json has no 1-op commit row at {objects} objects"))
            .parse()
            .expect("numeric commit_ns")
    };
    let (small, large) = (one_op_commit_ns("10000"), one_op_commit_ns("40000"));
    if large > 1.5 * small {
        failures.push(format!(
            "e11 committed table: a 1-op commit costs {:.1} µs at 40k objects, more than 1.5× the {:.1} µs at 10k — commit cost follows the population",
            large / 1e3,
            small / 1e3
        ));
    }
    checked += 2;

    // Live re-measurement: 1 reader vs 8 readers. Wall-clock on a shared
    // runner is noisy, so only two live checks are *hard*: the
    // deterministic zero-resaturation counter, and an anti-collapse floor
    // (8 readers must never fall below half a single reader's throughput
    // — only a real serialization bug, not scheduler noise, can do that;
    // best of three attempts). The core-scaled speedup target itself is
    // enforced on the committed table above, where it is reproducible;
    // live it is printed as a warning so a slow runner cannot fail CI.
    let cores = subq_bench::cores();
    let live_target = (0.35 * cores as f64).clamp(0.7, 4.0);
    let collapse_floor = 0.5;
    let window = std::time::Duration::from_millis(400);
    let rate =
        |row: &subq_bench::e11::ThroughputRow| row.total_ops as f64 / (row.elapsed_ns as f64 / 1e9);
    let mut best_live = 0.0f64;
    for attempt in 0..3 {
        let one = subq_bench::e11::throughput_arm(1, window);
        let eight = subq_bench::e11::throughput_arm(8, window);
        for arm in [&one, &eight] {
            if arm.fresh_probes_after_warmup != 0 {
                failures.push(format!(
                    "e11 live attempt {attempt} threads={}: {} fresh probes after warmup (readers must answer from caches)",
                    arm.threads, arm.fresh_probes_after_warmup
                ));
            }
        }
        best_live = best_live.max(rate(&eight) / rate(&one).max(1.0));
        if best_live >= live_target {
            break;
        }
    }
    if best_live < collapse_floor {
        failures.push(format!(
            "e11 live: best 8-reader speedup {best_live:.2}× over 3 attempts below the {collapse_floor:.2}× anti-collapse floor — the read path is serializing"
        ));
    } else if best_live < live_target {
        eprintln!(
            "warning: e11 live 8-reader speedup {best_live:.2}× below the {live_target:.2}× core-scaled target for {cores} cores (non-fatal: wall-clock on a shared runner)"
        );
    }
    checked
}

/// The E12 physical-layer bounds. Deterministic counters (plan quality)
/// are re-measured live and hard-asserted; wall-clock properties follow
/// the E11 scheme — enforced on the committed table proportionally to
/// the cores it records, and live only where the margin is categorical:
///
/// * **intersection**: the committed dense (90%) row and a live
///   re-measurement must both show the compressed bitmap beating the
///   ordered-set baseline by ≥5× — the word-parallel-vs-pointer-chase
///   margin is orders of magnitude, so this is safe on any runner;
/// * **scatter-gather**: the committed 8-shard row must reach
///   `clamp(0.45 × cores, 0.7, 4.0)` for its recorded cores (the same
///   clamp as E11 — never a collapse below ~1×, full scaling only with
///   the cores to scale onto), and every committed row must report the
///   same answer count;
/// * **plan quality**: re-measured live per catalog shape — the
///   cost-based choice examines at most 10% more candidates than the
///   best enumerated subsuming view, and is never worse than the
///   smallest-extension heuristic;
/// * **latency**: the committed 1M-object p99 must be sub-ms when the
///   table was generated on ≥4 cores, relaxed to `1 ms × 4/cores` below
///   that (not re-measured live: building the 1M-object store would
///   dominate the smoke run).
fn e12_checks(failures: &mut Vec<String>) -> usize {
    let baseline = std::fs::read_to_string("BENCH_e12.json").unwrap_or_else(|error| {
        panic!("cannot read BENCH_e12.json (run from the repository root): {error}")
    });
    let mut checked = 0usize;
    let mut scatter_answers: Option<&str> = None;
    for line in baseline.lines() {
        if !line.contains("\"e12_bitmap\"") {
            continue;
        }
        match field(line, "arm").expect("arm field") {
            "intersect" => {
                let density: u32 = field(line, "density_percent")
                    .expect("density_percent field")
                    .parse()
                    .expect("numeric density_percent");
                let speedup: f64 = field(line, "speedup")
                    .expect("speedup field")
                    .parse()
                    .expect("numeric speedup");
                if density == 90 && speedup < 5.0 {
                    failures.push(format!(
                        "e12 committed table: dense intersection speedup {speedup:.2}× below the 5× acceptance gate"
                    ));
                }
            }
            "scatter" => {
                let workers: usize = field(line, "workers")
                    .expect("workers field")
                    .parse()
                    .expect("numeric workers");
                let cores: usize = field(line, "cores")
                    .expect("cores field")
                    .parse()
                    .expect("numeric cores");
                let speedup: f64 = field(line, "speedup_vs_1")
                    .expect("speedup_vs_1 field")
                    .parse()
                    .expect("numeric speedup_vs_1");
                let answers = field(line, "answers").expect("answers field");
                match scatter_answers {
                    None => scatter_answers = Some(answers),
                    Some(expected) if expected != answers => failures.push(format!(
                        "e12 committed table: scatter answers {answers} at {workers} shards differ from {expected} — sharding changed the result"
                    )),
                    Some(_) => {}
                }
                let bound = (0.45 * cores as f64).clamp(0.7, 4.0);
                if workers == 8 && speedup < bound {
                    failures.push(format!(
                        "e12 committed table: 8-shard scatter speedup {speedup:.2}× below the {bound:.2}× bound for its {cores} recorded cores"
                    ));
                }
            }
            "plan_quality" => {
                let ratio: f64 = field(line, "worst_ratio")
                    .expect("worst_ratio field")
                    .parse()
                    .expect("numeric worst_ratio");
                let worse: usize = field(line, "worse_than_smallest")
                    .expect("worse_than_smallest field")
                    .parse()
                    .expect("numeric worse_than_smallest");
                let shape = field(line, "shape").expect("shape field");
                if ratio > 1.10 {
                    failures.push(format!(
                        "e12 committed table: {shape} worst plan ratio {ratio:.3} exceeds the 10% accuracy bound"
                    ));
                }
                if worse != 0 {
                    failures.push(format!(
                        "e12 committed table: {shape} cost-based choice was worse than smallest-extension {worse} times (must be 0)"
                    ));
                }
            }
            "latency" => {
                let cores: usize = field(line, "cores")
                    .expect("cores field")
                    .parse()
                    .expect("numeric cores");
                let p99: u64 = field(line, "p99_ns")
                    .expect("p99_ns field")
                    .parse()
                    .expect("numeric p99_ns");
                let allowed = (1_000_000.0 * (4.0 / cores as f64).max(1.0)) as u64;
                if p99 > allowed {
                    failures.push(format!(
                        "e12 committed table: 1M-object p99 plan+execute {p99} ns exceeds the {allowed} ns bound for its {cores} recorded cores"
                    ));
                }
            }
            other => panic!("unknown arm `{other}` in BENCH_e12.json"),
        }
        checked += 1;
    }
    assert!(
        checked >= 12,
        "BENCH_e12.json yielded only {checked} rows; baseline looks truncated"
    );

    // Live: the dense intersection gate (categorical margin) and the
    // deterministic plan-quality counters per catalog shape.
    let live = subq_bench::e12::intersect_arm(90);
    if live.speedup < 5.0 {
        failures.push(format!(
            "e12 live: dense intersection speedup {:.2}× below the 5× acceptance gate",
            live.speedup
        ));
    }
    for shape in [
        FamilyShape::Tree,
        FamilyShape::Chain,
        FamilyShape::Diamond,
        FamilyShape::Flat,
    ] {
        let arm = subq_bench::e12::plan_quality_arm(shape, 50);
        if arm.worst_ratio > 1.10 {
            failures.push(format!(
                "e12 live: {} worst plan ratio {:.3} exceeds the 10% accuracy bound",
                arm.shape, arm.worst_ratio
            ));
        }
        if arm.worse_than_smallest != 0 {
            failures.push(format!(
                "e12 live: {} cost-based choice was worse than smallest-extension {} times (must be 0)",
                arm.shape, arm.worse_than_smallest
            ));
        }
    }
    checked
}

/// The E13 durability bounds. Both acceptance ratios are enforced on the
/// committed table, where the filesystem they were measured on is part
/// of the record:
///
/// * **group commit**: the committed batch-32 WAL write must be ≥5×
///   cheaper per transaction than batch-1 — on any real store the fsync
///   barrier dominates the append, so sharing it across 32 records
///   clears 5× with an order of magnitude to spare. Live this is
///   re-measured as a *warning* only: a runner whose scratch directory
///   is tmpfs has (legitimately) nearly free fsyncs and no amortization
///   to show;
/// * **recovery**: the committed image+suffix recovery of a 64k-entry
///   history must be ≥5× faster than full-log replay. This one *is*
///   re-measured live as a hard check at a smaller size (16k entries,
///   ≥2× floor — replay is CPU-bound, so a runner can dilute but not
///   erase the advantage), with the full 4.5× printed as a warning when
///   missed;
/// * **image density**: every committed checkpoint-size row stays under
///   200 bytes per object (the table records ≈17 — names dominate, the
///   extents are compressed bitmaps).
fn e13_checks(failures: &mut Vec<String>) -> usize {
    let baseline = std::fs::read_to_string("BENCH_e13.json").unwrap_or_else(|error| {
        panic!("cannot read BENCH_e13.json (run from the repository root): {error}")
    });
    let mut checked = 0usize;
    let mut wal_ns: Vec<(usize, u64)> = Vec::new();
    let mut recovery_ns: Vec<(String, u64, u64)> = Vec::new();
    for line in baseline.lines() {
        if !line.contains("\"e13_durability\"") {
            continue;
        }
        match field(line, "arm").expect("arm field") {
            "wal_latency" => {
                let batch: usize = field(line, "batch")
                    .expect("batch field")
                    .parse()
                    .expect("numeric batch");
                let per_txn: u64 = field(line, "per_txn_ns")
                    .expect("per_txn_ns field")
                    .parse()
                    .expect("numeric per_txn_ns");
                wal_ns.push((batch, per_txn));
            }
            "commit_latency" => {}
            "recovery" => {
                let mode = field(line, "mode").expect("mode field").to_string();
                let entries: u64 = field(line, "log_entries")
                    .expect("log_entries field")
                    .parse()
                    .expect("numeric log_entries");
                let ns: u64 = field(line, "recovery_ns")
                    .expect("recovery_ns field")
                    .parse()
                    .expect("numeric recovery_ns");
                recovery_ns.push((mode, entries, ns));
            }
            "checkpoint_size" => {
                let objects: usize = field(line, "objects")
                    .expect("objects field")
                    .parse()
                    .expect("numeric objects");
                let density: f64 = field(line, "bytes_per_object")
                    .expect("bytes_per_object field")
                    .parse()
                    .expect("numeric bytes_per_object");
                if density > 200.0 {
                    failures.push(format!(
                        "e13 committed table: checkpoint image of the {objects}-object store weighs {density:.1} B/object (ceiling 200)"
                    ));
                }
            }
            other => panic!("unknown arm `{other}` in BENCH_e13.json"),
        }
        checked += 1;
    }
    assert!(
        checked >= 11,
        "BENCH_e13.json yielded only {checked} rows; baseline looks truncated"
    );

    let per_txn = |batch: usize| -> u64 {
        wal_ns
            .iter()
            .find(|(b, _)| *b == batch)
            .unwrap_or_else(|| panic!("BENCH_e13.json lacks the batch={batch} WAL row"))
            .1
    };
    let committed_amortization = per_txn(1) as f64 / per_txn(32) as f64;
    if committed_amortization < 5.0 {
        failures.push(format!(
            "e13 committed table: batch-32 WAL write only {committed_amortization:.2}× cheaper than batch-1, below the 5× acceptance gate"
        ));
    }

    let recovery = |mode: &str| -> (u64, u64) {
        recovery_ns
            .iter()
            .find(|(m, _, _)| m == mode)
            .map(|(_, entries, ns)| (*entries, *ns))
            .unwrap_or_else(|| panic!("BENCH_e13.json lacks the {mode} recovery row"))
    };
    let (full_entries, full_ns) = recovery("full_log");
    let (suffix_entries, suffix_ns) = recovery("image_suffix");
    if full_entries != 65_536 || suffix_entries != 65_536 {
        failures.push(format!(
            "e13 committed table: recovery rows cover {full_entries}/{suffix_entries} log entries, not the 64k the acceptance bound is stated for"
        ));
    }
    let committed_recovery = full_ns as f64 / suffix_ns as f64;
    if committed_recovery < 5.0 {
        failures.push(format!(
            "e13 committed table: image+suffix recovery only {committed_recovery:.2}× faster than full-log replay, below the 5× acceptance gate"
        ));
    }

    // Live: the recovery ratio is CPU-bound (replay work), so even a
    // slow shared runner must show a clear advantage at 16k entries.
    let live_full = subq_bench::e13::recovery_arm(2048, 64, 128, None);
    let live_suffix = subq_bench::e13::recovery_arm(2048, 64, 128, Some(4));
    let live_recovery = live_full.recovery_ns as f64 / live_suffix.recovery_ns as f64;
    if live_recovery < 2.0 {
        failures.push(format!(
            "e13 live: image+suffix recovery only {live_recovery:.2}× faster than full-log replay at 16k entries — replay is not suffix-proportional"
        ));
    } else if live_recovery < 4.5 {
        eprintln!(
            "warning: e13 live recovery advantage {live_recovery:.2}× below the 4.5× target at 16k entries (non-fatal: wall-clock on a shared runner)"
        );
    }

    // Live: the WAL amortization is a property of the backing store's
    // fsync cost — warn-only, because a tmpfs scratch dir has nothing
    // to amortize.
    let live_one = subq_bench::e13::wal_latency_arm(1, 64);
    let live_batch = subq_bench::e13::wal_latency_arm(32, 64);
    let live_amortization = live_one.per_txn_ns as f64 / live_batch.per_txn_ns as f64;
    if live_amortization < 4.5 {
        eprintln!(
            "warning: e13 live WAL amortization {live_amortization:.2}× below the 4.5× target (non-fatal: the scratch filesystem may have free fsyncs)"
        );
    }
    checked
}

/// The E14 server bounds. Wall-clock follows the E11/E12 scheme —
/// core-clamped gates on the committed table, anti-collapse live:
///
/// * **fleet scaling**: the committed 4-client mixed-traffic speedup
///   over 1 client must reach `clamp(0.45 × cores, 0.7, 4.0)` for the
///   cores the table records — full scaling only with cores to scale
///   onto, and never a collapse below ~1× (queries run on lock-free
///   readers; only the write minority serializes on the single writer);
/// * **no typed errors**: every committed row (all three arms) must
///   record zero `ERR` replies — mixed churn+query traffic over a valid
///   trace never produces one;
/// * **saturation sheds as BUSY**: the committed saturation row (8
///   write-heavy clients against a write queue of 1) must record at
///   least one `BUSY` — admission control visibly engaged — while still
///   completing every operation;
/// * **live anti-collapse**: a live 4-vs-1-client re-measurement (best
///   of three) hard-fails only below the 0.5× floor — only a wedged
///   worker pool or a serialized read path does that; the core-scaled
///   target is printed as a warning when missed, wall-clock on a shared
///   runner being noisy.
fn e14_checks(failures: &mut Vec<String>) -> usize {
    let baseline = std::fs::read_to_string("BENCH_e14.json").unwrap_or_else(|error| {
        panic!("cannot read BENCH_e14.json (run from the repository root): {error}")
    });
    let mut checked = 0usize;
    let mut saw_saturation = false;
    for line in baseline.lines() {
        if !line.contains("\"e14_server\"") {
            continue;
        }
        let arm = field(line, "arm").expect("arm field");
        let errors: usize = field(line, "errors")
            .expect("errors field")
            .parse()
            .expect("numeric errors");
        if errors != 0 {
            failures.push(format!(
                "e14 committed table: {arm} row records {errors} typed ERR replies (must be 0)"
            ));
        }
        match arm {
            "mixed" => {
                let clients: usize = field(line, "clients")
                    .expect("clients field")
                    .parse()
                    .expect("numeric clients");
                let cores: usize = field(line, "cores")
                    .expect("cores field")
                    .parse()
                    .expect("numeric cores");
                let speedup: f64 = field(line, "speedup_vs_1")
                    .expect("speedup_vs_1 field")
                    .parse()
                    .expect("numeric speedup_vs_1");
                let bound = (0.45 * cores as f64).clamp(0.7, 4.0);
                if clients == 4 && speedup < bound {
                    failures.push(format!(
                        "e14 committed table: 4-client speedup {speedup:.2}× below the {bound:.2}× bound for its {cores} recorded cores"
                    ));
                }
            }
            "queue_depth" => {}
            "saturation" => {
                saw_saturation = true;
                let busy: usize = field(line, "busy")
                    .expect("busy field")
                    .parse()
                    .expect("numeric busy");
                if busy == 0 {
                    failures.push(
                        "e14 committed table: the saturation row records zero BUSY replies — admission control never engaged"
                            .to_string(),
                    );
                }
            }
            other => panic!("unknown arm `{other}` in BENCH_e14.json"),
        }
        checked += 1;
    }
    assert!(
        checked >= 9,
        "BENCH_e14.json yielded only {checked} rows; baseline looks truncated"
    );
    assert!(saw_saturation, "BENCH_e14.json lacks the saturation row");

    // Live: 1 vs 4 clients, anti-collapse floor only (the full
    // core-scaled bound is enforced on the committed table above).
    let cores = subq_bench::cores();
    let live_target = (0.35 * cores as f64).clamp(0.7, 4.0);
    let collapse_floor = 0.5;
    let mut best_live = 0.0f64;
    for attempt in 0..3 {
        let one = subq_bench::e14::mixed_arm(1, 64, 70, 120);
        let four = subq_bench::e14::mixed_arm(4, 64, 70, 120);
        for arm in [&one, &four] {
            if arm.errors != 0 {
                failures.push(format!(
                    "e14 live attempt {attempt} clients={}: {} typed ERR replies (must be 0)",
                    arm.clients, arm.errors
                ));
            }
        }
        best_live = best_live.max(four.ops_per_sec / one.ops_per_sec.max(1.0));
        if best_live >= live_target {
            break;
        }
    }
    if best_live < collapse_floor {
        failures.push(format!(
            "e14 live: best 4-client speedup {best_live:.2}× over 3 attempts below the {collapse_floor:.2}× anti-collapse floor — the serving path is serializing"
        ));
    } else if best_live < live_target {
        eprintln!(
            "warning: e14 live 4-client speedup {best_live:.2}× below the {live_target:.2}× core-scaled target for {cores} cores (non-fatal: wall-clock on a shared runner)"
        );
    }
    checked
}

/// The E15 advisor bounds. The headline claim — a store that starts with
/// **zero** materialized views and `--advisor auto` lands within ~2× of
/// a hand-tuned static catalog on the adversarial shifting workload —
/// follows the committed-hard/live-floor scheme:
///
/// * **zero manual DDL**: the committed auto row must record
///   `manual_ddl == 0` — the arm construction materializes nothing by
///   hand, and the gate pins that;
/// * **the advisor acted**: the committed auto row must record at least
///   one auto-materialization — an advisor that never fires trivially
///   "matches" hand-tuned only because this trace is small;
/// * **≤2× of hand-tuned**: the committed auto query p50 must stay
///   within `2× × max(1, 2/cores)` of the committed hand-tuned p50 —
///   the full 2× with ≥2 recorded cores, relaxed on a single-core
///   runner where client threads, workers, and the writer all contend
///   for one CPU;
/// * **no typed errors**: every committed row records zero `ERR`
///   replies — auto-materialization must never turn valid traffic into
///   errors;
/// * **live anti-collapse**: a live auto-vs-hand-tuned re-measurement
///   (best of three) must keep auto throughput above 0.25× of
///   hand-tuned and must materialize at least one view — only a wedged
///   advisor pass or a catalog-corrupting one falls below that.
fn e15_checks(failures: &mut Vec<String>) -> usize {
    use subq::oodb::AdvisorMode;

    let baseline = std::fs::read_to_string("BENCH_e15.json").unwrap_or_else(|error| {
        panic!("cannot read BENCH_e15.json (run from the repository root): {error}")
    });
    let mut checked = 0usize;
    let mut hand_p50: Option<u64> = None;
    let mut auto_p50: Option<(u64, usize)> = None;
    for line in baseline.lines() {
        if !line.contains("\"e15_advisor\"") {
            continue;
        }
        let arm = field(line, "arm").expect("arm field");
        let errors: usize = field(line, "errors")
            .expect("errors field")
            .parse()
            .expect("numeric errors");
        if errors != 0 {
            failures.push(format!(
                "e15 committed table: {arm} row records {errors} typed ERR replies (must be 0)"
            ));
        }
        let p50: u64 = field(line, "query_p50_ns")
            .expect("query_p50_ns field")
            .parse()
            .expect("numeric query_p50_ns");
        match arm {
            "hand_tuned" => hand_p50 = Some(p50),
            "cold" => {}
            "auto" => {
                let manual_ddl: usize = field(line, "manual_ddl")
                    .expect("manual_ddl field")
                    .parse()
                    .expect("numeric manual_ddl");
                let materialized: u64 = field(line, "auto_materialized")
                    .expect("auto_materialized field")
                    .parse()
                    .expect("numeric auto_materialized");
                let cores: usize = field(line, "cores")
                    .expect("cores field")
                    .parse()
                    .expect("numeric cores");
                if manual_ddl != 0 {
                    failures.push(format!(
                        "e15 committed table: auto row records {manual_ddl} manual DDL statements (must be 0 — the arm must win without hand tuning)"
                    ));
                }
                if materialized == 0 {
                    failures.push(
                        "e15 committed table: auto row records zero auto-materializations — the advisor never fired"
                            .to_string(),
                    );
                }
                auto_p50 = Some((p50, cores));
            }
            other => panic!("unknown arm `{other}` in BENCH_e15.json"),
        }
        checked += 1;
    }
    assert!(
        checked >= 3,
        "BENCH_e15.json yielded only {checked} rows; baseline looks truncated"
    );
    let hand_p50 = hand_p50.expect("BENCH_e15.json lacks the hand_tuned row");
    let (auto_p50, cores) = auto_p50.expect("BENCH_e15.json lacks the auto row");
    let ratio = auto_p50 as f64 / hand_p50.max(1) as f64;
    let bound = 2.0 * (2.0 / cores as f64).max(1.0);
    if ratio > bound {
        failures.push(format!(
            "e15 committed table: auto query p50 is {ratio:.2}× hand-tuned, above the {bound:.2}× bound for its {cores} recorded cores"
        ));
    }

    // Live: anti-collapse floor on throughput plus the advisor-activity
    // assertion (best of three — loopback wall-clock is noisy, but an
    // advisor that materializes nothing or collapses the serving path
    // fails every attempt).
    let floor = 0.25;
    let mut best_live = 0.0f64;
    let mut live_materialized = 0u64;
    for attempt in 0..3 {
        let hand = subq_bench::e15::advisor_arm("hand_tuned", AdvisorMode::Off, true, 2, 300);
        let auto = subq_bench::e15::advisor_arm("auto", AdvisorMode::Auto, false, 2, 300);
        for arm in [&hand, &auto] {
            if arm.errors != 0 {
                failures.push(format!(
                    "e15 live attempt {attempt} arm={}: {} typed ERR replies (must be 0)",
                    arm.arm, arm.errors
                ));
            }
        }
        live_materialized = live_materialized.max(auto.auto_materialized);
        best_live = best_live.max(auto.ops_per_sec / hand.ops_per_sec.max(1.0));
        if best_live >= 1.0 && live_materialized > 0 {
            break;
        }
    }
    if live_materialized == 0 {
        failures.push(
            "e15 live: the auto arm materialized zero views over 3 attempts — the advisor never fired"
                .to_string(),
        );
    }
    if best_live < floor {
        failures.push(format!(
            "e15 live: best auto-vs-hand-tuned throughput {best_live:.2}× over 3 attempts below the {floor:.2}× anti-collapse floor — auto-materialization is wrecking the serving path"
        ));
    }
    checked
}

/// The advisor-observation overhead gate: with `--advisor observe`, every
/// reader pays one relaxed flag load plus a shape normalization and ring
/// push per query — the acceptance bound says that costs ≤2% on the E14
/// stationary mixed path. Wall-clock over loopback TCP is noisy, so the
/// scheme mirrors [`overhead_checks`]: interleaved best-of-5 pairs, three
/// attempts, the 2% target printed as a warning when missed and only a
/// 10% blowout failing hard (a real per-query regression — an allocation
/// storm, a lock on the read path — blows far past 10%).
fn advisor_observe_overhead_checks(failures: &mut Vec<String>) {
    use subq::oodb::AdvisorMode;

    const TARGET: f64 = 1.02;
    const CEILING: f64 = 1.10;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let (mut observe, mut off) = (f64::MAX, f64::MAX);
        for _ in 0..5 {
            let on_row = subq_bench::e14::mixed_arm_advisor(2, 64, 70, 120, AdvisorMode::Observe);
            let off_row = subq_bench::e14::mixed_arm_advisor(2, 64, 70, 120, AdvisorMode::Off);
            // Per-op wall-clock, lower is better; keep each side's best.
            observe = observe.min(1e9 / on_row.ops_per_sec.max(1.0));
            off = off.min(1e9 / off_row.ops_per_sec.max(1.0));
        }
        best = best.min(observe / off);
        if best <= TARGET {
            break;
        }
    }
    if best > CEILING {
        failures.push(format!(
            "advisor overhead: observe-mode E14 mixed traffic is {best:.3}× the advisor-off baseline (hard ceiling {CEILING:.2}×) — shape recording is not cheap"
        ));
    } else if best > TARGET {
        eprintln!(
            "warning: advisor observe overhead {best:.3}× above the {TARGET:.2}× target (non-fatal: loopback wall-clock on a shared runner)"
        );
    }
}

/// The instrumentation-overhead gate: telemetry must be free when
/// unread. The two hottest instrumented paths — the E8 memoized repeat
/// plan (counter bumps in the subsumption cache plus the plan-latency
/// span) and the E13 durable commit (WAL fsync span plus batch-size
/// histogram) — are timed with telemetry spans enabled and disabled.
/// Counters are always-on relaxed atomics on both sides; `set_enabled`
/// gates only the span clock reads, which is exactly the cost this
/// bounds. Measurements are interleaved best-of-5 pairs so scheduler
/// noise hits both sides alike, with three attempts before the 10%
/// ceiling fails hard.
fn overhead_checks(failures: &mut Vec<String>) {
    const CEILING: f64 = 1.10;
    let (mut odb, query) = subq_bench::e8::repeat_plan_setup();
    let mut best_plan = f64::INFINITY;
    for _ in 0..3 {
        let (mut on, mut off) = (u64::MAX, u64::MAX);
        for _ in 0..5 {
            subq::telemetry::set_enabled(true);
            on = on.min(subq_bench::e8::repeat_plan_ns(&mut odb, &query, 64));
            subq::telemetry::set_enabled(false);
            off = off.min(subq_bench::e8::repeat_plan_ns(&mut odb, &query, 64));
        }
        best_plan = best_plan.min(on as f64 / off.max(1) as f64);
        if best_plan <= CEILING {
            break;
        }
    }
    let mut best_commit = f64::INFINITY;
    for _ in 0..3 {
        let (mut on, mut off) = (u128::MAX, u128::MAX);
        for _ in 0..3 {
            subq::telemetry::set_enabled(true);
            on = on.min(subq_bench::e13::commit_latency_arm(8, 192).per_commit_ns);
            subq::telemetry::set_enabled(false);
            off = off.min(subq_bench::e13::commit_latency_arm(8, 192).per_commit_ns);
        }
        best_commit = best_commit.min(on as f64 / off.max(1) as f64);
        if best_commit <= CEILING {
            break;
        }
    }
    subq::telemetry::set_enabled(true);
    if best_plan > CEILING {
        failures.push(format!(
            "overhead: instrumented E8 repeat plan is {best_plan:.3}× the disabled baseline (ceiling {CEILING:.2}×) — telemetry is not free when unread"
        ));
    }
    if best_commit > CEILING {
        failures.push(format!(
            "overhead: instrumented E13 durable commit is {best_commit:.3}× the disabled baseline (ceiling {CEILING:.2}×) — telemetry is not free when unread"
        ));
    }
}

fn main() {
    let baseline = std::fs::read_to_string("BENCH_e5.json").unwrap_or_else(|error| {
        panic!("cannot read BENCH_e5.json (run from the repository root): {error}")
    });
    type Family = fn(usize) -> ScalingInstance;
    let families: [(&str, Family); 4] = [
        ("path_depth", path_depth_instance),
        ("conjunction_width", conjunction_width_instance),
        ("schema_size", schema_size_instance),
        ("view_growth", view_growth_instance),
    ];

    let mut checked = 0usize;
    let mut failures = Vec::new();
    for row in baseline.lines() {
        if !row.contains("\"e5_polynomial_scaling\"") {
            continue;
        }
        let family_name = field(row, "family").expect("family field");
        let n: usize = field(row, "n")
            .expect("n field")
            .parse()
            .expect("numeric n");
        let ceiling: usize = field(row, "examined_delta")
            .expect("examined_delta field")
            .parse()
            .expect("numeric examined_delta");
        let (_, family) = families
            .iter()
            .find(|(name, _)| *name == family_name)
            .unwrap_or_else(|| panic!("unknown family `{family_name}` in BENCH_e5.json"));
        let mut instance = family(n);
        let (subsumed, stats) = run_instance(&mut instance);
        assert!(subsumed, "{family_name} n={n} must stay subsumed");
        let allowed = ceiling + ceiling * SLACK_PERCENT / 100;
        if stats.constraints_examined > allowed {
            failures.push(format!(
                "{family_name} n={n}: examined {} > committed ceiling {ceiling} (+{SLACK_PERCENT}% slack = {allowed})",
                stats.constraints_examined
            ));
        }
        checked += 1;
    }
    assert!(
        checked >= 16,
        "BENCH_e5.json yielded only {checked} rows; baseline looks truncated"
    );
    let e9_checked = e9_checks(&mut failures);
    let e10_checked = e10_checks(&mut failures);
    let e11_checked = e11_checks(&mut failures);
    let e12_checked = e12_checks(&mut failures);
    let e13_checked = e13_checks(&mut failures);
    let e14_checked = e14_checks(&mut failures);
    let e15_checked = e15_checks(&mut failures);
    advisor_observe_overhead_checks(&mut failures);
    overhead_checks(&mut failures);
    if !failures.is_empty() {
        eprintln!("perf regressions:");
        for failure in &failures {
            eprintln!("  {failure}");
        }
        std::process::exit(1);
    }
    println!(
        "perf smoke OK: {checked} E5 instances within committed examined_delta ceilings, \
         {e9_checked} E9 instances within committed lattice-probe ceilings (hierarchical N=50 ≤ 50% of flat), \
         {e10_checked} E10 instances within committed incremental membership-evaluation ceilings (10k×50 ≥ 10× fewer than full), \
         {e11_checked} E11 rows within the concurrency bounds (core-scaled 8-reader speedup, zero post-warmup saturations, 1-op commit at 40k objects ≤ 1.5× the 10k row), \
         {e12_checked} E12 rows within the physical-layer bounds (≥5× dense bitmap intersection, core-scaled scatter-gather, cost-based plans within 10% of best enumerated), \
         {e13_checked} E13 rows within the durability bounds (≥5× group-commit amortization at batch 32, ≥5× image+suffix recovery at 64k entries, ≤200 B/object images), \
         {e14_checked} E14 rows within the server bounds (core-scaled 4-client mixed-traffic speedup, saturation shed as typed BUSY, zero typed errors), \
         {e15_checked} E15 rows within the advisor bounds (auto within core-clamped 2× of hand-tuned with zero manual DDL, the advisor visibly fired, observe-mode recording cheap), \
         and the instrumented E8 repeat-plan and E13 commit paths within 10% of the telemetry-disabled baseline"
    );
}
