//! E12 — the physical layer: compressed bitmap extents, the cost model
//! over the store's cardinalities and sharded scatter-gather evaluation. Four arms over the
//! store primitives the engine runs on:
//!
//! * `intersect` — two ≈100k-id candidate sets (SplitMix64-sampled,
//!   seeds 7 + density and 1 007 + density) intersected as compressed
//!   bitmaps versus the ordered-set (`BTreeSet`) baseline at 90/10/1%
//!   occupancy; both must count the same intersection.
//! * `scatter` — full evaluation of a path view (seed 19: four classes,
//!   every view strengthened with a derived `link` path, the first view's
//!   definition as the query, so a quarter of the store is candidate) over
//!   a 400k-object store on 1/2/4/8 id-range shards, best of 3. The answer
//!   set must be the same at every shard count.
//! * `plan_quality` — on E9's seeded 50-view catalogs, the cost-based
//!   view choice against every enumerable subsuming view: the worst
//!   `chosen / best` candidates-examined ratio, and how often the choice
//!   examined more than the smallest-extension heuristic would have.
//!   Deterministic.
//! * `latency` — p50/p99 of 256 plan+execute round trips over the view
//!   queries of a 1M-object store (seed 23: 256 flat classes, so each
//!   extent holds ≈4k ids and the samples measure selective plan+execute,
//!   not bulk answer materialization; 64 views, 20% with a path), warm.
//!
//! Bounds, each on every row of its arm from either source (live
//! re-measures the dense intersection and plan quality; the 400k- and
//! 1M-object stores would dominate `check`):
//!
//! * the dense (90%) intersection beats the ordered set by ≥ 5× — the
//!   word-parallel-vs-pointer-chase margin is orders of magnitude, so this
//!   is safe on any runner;
//! * every scatter row reports the same answer count, and the 8-shard
//!   speedup reaches the core-scaled bound ([`scaling_gate`]);
//! * the cost-based choice examines at most 10% more candidates than the
//!   best enumerated view and is never worse than smallest-extension;
//! * the 1M-object p99 is sub-millisecond on ≥ 4 cores, relaxed to
//!   1 ms × 4/cores below that.

use crate::{best_speedup, ceiling, cores, e9, floor, scaling_gate, Experiment, Row, Source};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;
use subq::oodb::eval::{filter_members_sharded, initial_candidates};
use subq::oodb::{CostModel, ObjId, ObjSet, OptimizedDatabase};
use subq::server::view_query;
use subq::workload::{churn_trace, ChurnParams, FamilyShape};

pub const EXPERIMENT: Experiment = Experiment {
    id: "e12",
    title:
        "the physical layer: bitmap intersection, scatter-gather, plan quality, 1M-object latency",
    file: "BENCH_e12.json",
    rows: 12,
    table,
    live: Some(live),
    counters: &[],
    gate,
};

fn table() -> Vec<Row> {
    let mut rows: Vec<Row> = [90, 10, 1].into_iter().map(intersect_arm).collect();
    rows.extend(scatter_rows());
    rows.extend(e9::SHAPES.map(plan_quality_arm));
    rows.push(latency_arm());
    rows
}

fn live() -> Vec<Row> {
    let mut rows = vec![intersect_arm(90)];
    rows.extend(e9::SHAPES.map(plan_quality_arm));
    rows
}

fn gate(rows: &[Row], source: Source, failures: &mut Vec<String>) -> Result<(), String> {
    let mut scatter_answers = None;
    for row in rows {
        match row.str("arm")? {
            "intersect" => {
                if row.u64("density_percent")? == 90 {
                    let speedup = row.f64("speedup")?;
                    floor("dense intersection speedup", speedup, 5.0, 5.0, failures);
                }
            }
            "scatter" => {
                let answers = row.u64("answers")?;
                if *scatter_answers.get_or_insert(answers) != answers {
                    let workers = row.u64("workers")?;
                    failures.push(format!(
                        "scatter answers differ at {workers} shards — sharding changed the result"
                    ));
                }
            }
            "plan_quality" => {
                let (shape, worse) = (row.str("shape")?, row.u64("worse_than_smallest")?);
                let what = format!("{shape}: worst chosen/best plan ratio");
                ceiling(&what, row.f64("worst_ratio")?, 1.10, 1.10, failures);
                if worse != 0 {
                    failures.push(format!(
                        "{shape}: the cost-based choice was worse than smallest-extension {worse} times (must be 0)"
                    ));
                }
            }
            "latency" => {
                let (p99, cores) = (row.u64("p99_ns")?, row.u64("cores")?);
                let allowed = (1_000_000.0 * (4.0 / cores as f64).max(1.0)) as u64;
                if p99 > allowed {
                    failures.push(format!(
                        "1M-object p99 plan+execute {p99} ns exceeds the {allowed} ns bound for its {cores} recorded cores"
                    ));
                }
            }
            _ => return Err(row.unexpected("arm", "a known arm")),
        }
    }
    if scatter_answers.is_some() {
        let best = best_speedup(rows, |row| row.u64("workers") == Ok(8))?;
        scaling_gate("8-shard scatter speedup", best, source, failures);
    }
    Ok(())
}

/// SplitMix64 — a tiny seeded generator so the arm needs no RNG crate.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples ids from `0..universe`, each kept with probability
/// `target/universe` (deterministic per seed, ≈`target` ids).
fn sample_ids(seed: u64, universe: u32, target: usize) -> Vec<u32> {
    let mut state = seed;
    let threshold = ((target as u128) << 64) / universe as u128;
    (0..universe)
        .filter(|_| (splitmix(&mut state) as u128) < threshold)
        .collect()
}

/// Best per-op wall-clock of `op` (self-calibrating iteration count,
/// best of 5 rounds).
fn best_op_ns(mut op: impl FnMut() -> usize) -> u128 {
    let start = Instant::now();
    let mut sink = op();
    let once = start.elapsed().as_nanos().max(1);
    let iters = (5_000_000 / once).clamp(1, 10_000) as u32;
    let mut best = u128::MAX;
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..iters {
            sink = sink.wrapping_add(op());
        }
        best = best.min(start.elapsed().as_nanos() / iters as u128);
    }
    black_box(sink);
    best.max(1)
}

fn intersect_arm(density_percent: u32) -> Row {
    let n = 100_000usize;
    let universe = (n as u64 * 100 / density_percent as u64).max(n as u64) as u32;
    let a_ids = sample_ids(7 + density_percent as u64, universe, n);
    let b_ids = sample_ids(1_007 + density_percent as u64, universe, n);
    let a_bm: ObjSet = a_ids.iter().map(|&i| ObjId(i)).collect();
    let b_bm: ObjSet = b_ids.iter().map(|&i| ObjId(i)).collect();
    let a_bt: BTreeSet<ObjId> = a_ids.iter().map(|&i| ObjId(i)).collect();
    let b_bt: BTreeSet<ObjId> = b_ids.iter().map(|&i| ObjId(i)).collect();
    let intersection = a_bm.intersect_len(&b_bm);
    assert_eq!(
        intersection,
        a_bt.intersection(&b_bt).count(),
        "bitmap and ordered-set intersections must agree"
    );
    let bitmap_ns = best_op_ns(|| a_bm.intersect_len(&b_bm));
    let btree_ns = best_op_ns(|| a_bt.intersection(&b_bt).count());
    Row::new("e12_bitmap")
        .text("arm", "intersect")
        .int("density_percent", density_percent)
        .int("universe", universe)
        .int("n", a_ids.len().min(b_ids.len()))
        .int("intersection", intersection)
        .int("bitmap_ns", bitmap_ns)
        .int("btree_ns", btree_ns)
        .float("speedup", btree_ns as f64 / bitmap_ns as f64, 2)
}

fn scatter_rows() -> Vec<Row> {
    let params = ChurnParams {
        shape: FamilyShape::Tree,
        classes: 4,
        views: 4,
        path_view_percent: 100,
        objects: 400_000,
        transactions: 0,
        ops_per_transaction: 1,
        retract_percent: 40,
    };
    let db = churn_trace(19, params).db;
    let query = db
        .model()
        .query_class("V0")
        .expect("generated view")
        .clone();
    let mut base: Option<(u128, ObjSet)> = None;
    let mut rows = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let mut elapsed_ns = u128::MAX;
        let mut answers = ObjSet::new();
        for _ in 0..3 {
            let start = Instant::now();
            let candidates = initial_candidates(&db, &query);
            answers = filter_members_sharded(&db, &query, &candidates, shards);
            elapsed_ns = elapsed_ns.min(start.elapsed().as_nanos());
        }
        let (base_ns, base_answers) = base.get_or_insert((elapsed_ns, answers.clone()));
        assert!(
            answers == *base_answers,
            "scatter-gather must return the same answer set at every shard count"
        );
        rows.push(
            Row::new("e12_bitmap")
                .text("arm", "scatter")
                .int("workers", shards)
                .int("cores", cores())
                .int("elapsed_ns", elapsed_ns)
                .int("answers", answers.len())
                .float("speedup_vs_1", *base_ns as f64 / elapsed_ns as f64, 2),
        );
    }
    rows
}

fn plan_quality_arm(shape: FamilyShape) -> Row {
    let instance = e9::catalog(shape, 50);
    let (mut odb, _) = e9::build(&instance);
    let mut worst_ratio = 1.0f64;
    let (mut queries, mut worse_than_smallest) = (0usize, 0usize);
    let (mut chosen_candidates, mut best_candidates) = (0usize, 0usize);
    for query in &instance.queries {
        let plan = odb.plan(query);
        if plan.subsuming_views.is_empty() {
            continue;
        }
        let (_, exec) = odb.execute(query);
        let cost = CostModel::new(odb.database());
        let mut best = usize::MAX;
        let mut smallest_extent = usize::MAX;
        let mut smallest_realized = 0usize;
        for name in &plan.subsuming_views {
            let view = odb.catalog().view(name).expect("stored");
            let realized = cost.narrow_candidates(&view.extent, query).len();
            best = best.min(realized);
            if view.extent.len() < smallest_extent {
                smallest_extent = view.extent.len();
                smallest_realized = realized;
            }
        }
        let chosen = exec.candidates_examined;
        worse_than_smallest += usize::from(chosen > smallest_realized);
        if best != 0 {
            worst_ratio = worst_ratio.max(chosen as f64 / best as f64);
        }
        chosen_candidates += chosen;
        best_candidates += best;
        queries += 1;
    }
    Row::new("e12_bitmap")
        .text("arm", "plan_quality")
        .text("shape", shape.name())
        .int("views", instance.view_names.len())
        .int("queries", queries)
        .int("chosen_candidates", chosen_candidates)
        .int("best_candidates", best_candidates)
        .float("worst_ratio", worst_ratio, 3)
        .int("worse_than_smallest", worse_than_smallest)
}

fn latency_arm() -> Row {
    let (objects, views, ops) = (1_000_000usize, 64usize, 256usize);
    let params = ChurnParams {
        shape: FamilyShape::Flat,
        classes: 256,
        views,
        path_view_percent: 20,
        objects,
        transactions: 0,
        ops_per_transaction: 1,
        retract_percent: 40,
    };
    let trace = churn_trace(23, params);
    let queries: Vec<_> = (0..views).map(|view| view_query(&trace, view)).collect();
    let mut odb = OptimizedDatabase::new(trace.db).expect("translates");
    for name in &trace.view_names {
        odb.materialize_view(name).expect("materializes");
    }
    // Warm the subsumption memo and the view catalog so the
    // sampled latencies measure the steady state, not first-touch.
    for query in &queries {
        let _ = odb.plan(query);
        let _ = odb.execute(query);
    }
    let mut lats: Vec<u64> = Vec::with_capacity(ops);
    for at in 0..ops {
        let query = &queries[at % queries.len()];
        let start = Instant::now();
        let plan = odb.plan(query);
        let (answers, _) = odb.execute(query);
        lats.push(start.elapsed().as_nanos() as u64);
        black_box((plan.subsuming_views.len(), answers.len()));
    }
    lats.sort_unstable();
    let pick = |q: f64| lats[((lats.len() - 1) as f64 * q) as usize];
    Row::new("e12_bitmap")
        .text("arm", "latency")
        .int("objects", objects)
        .int("views", views)
        .int("cores", cores())
        .int("ops", ops)
        .int("p50_ns", pick(0.50))
        .int("p99_ns", pick(0.99))
}
