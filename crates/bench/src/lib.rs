//! Shared helpers for the experiment harness (benches and the table
//! binaries under `src/bin`).
//!
//! Each experiment (E1–E8, see DESIGN.md) has a Criterion bench measuring
//! wall-clock time and, where the paper's claim is about growth rates, a
//! binary that prints the corresponding table of counters (individuals,
//! rule applications, branches, valuations, candidates examined) so the
//! shape can be compared with the paper's statements without relying on
//! absolute timings. The table binaries additionally write their rows as
//! `BENCH_*.json` files so successive PRs can track the perf trajectory
//! mechanically.

use std::time::{Duration, Instant};
use subq::calculus::reference::ReferenceCompletion;
use subq::calculus::{CompletionStats, SubsumptionChecker};
use subq::concepts::normalize::normalize_concept;
use subq::workload::ScalingInstance;

/// The machine's core count, recorded by every table whose wall-clock
/// columns depend on it. Uncached: ask once per process and keep the
/// value.
#[allow(clippy::disallowed_methods)]
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs a scaling instance through the checker (delta engine) and returns
/// whether it was subsumed together with the completion statistics.
pub fn run_instance(instance: &mut ScalingInstance) -> (bool, CompletionStats) {
    let checker = SubsumptionChecker::new(&instance.schema);
    let outcome = checker.check(&mut instance.arena, instance.query, instance.view);
    (outcome.subsumed(), outcome.stats)
}

/// Runs a scaling instance through the retained full-scan reference
/// engine, for the naive-versus-incremental counter and timing columns.
pub fn run_reference_instance(instance: &mut ScalingInstance) -> (bool, CompletionStats) {
    let query = normalize_concept(&mut instance.arena, instance.query);
    let view = normalize_concept(&mut instance.arena, instance.view);
    let mut completion =
        ReferenceCompletion::new(&mut instance.arena, &instance.schema, query, view, false);
    let stats = completion.run();
    let derived = completion.view_fact_derived() || completion.find_clash().is_some();
    (derived, stats)
}

/// One row of the E10 incremental-maintenance experiment: the maintenance
/// work caused by a single-object update against an `objects`-object,
/// `views`-view catalog, incremental versus full refresh.
pub struct E10Row {
    /// Number of objects in the initial state.
    pub objects: usize,
    /// Number of materialized views.
    pub views: usize,
    /// Log entries the incremental pass consumed.
    pub deltas: u64,
    /// Candidate objects the incremental pass examined.
    pub inc_candidates: u64,
    /// Membership conditions the incremental pass evaluated.
    pub inc_memberships: u64,
    /// Evaluations the subsumption lattice pruned.
    pub inc_prunes: u64,
    /// Membership conditions a full refresh evaluates for the same update
    /// (every view re-checks its whole initial candidate set).
    pub full_memberships: u64,
    /// Wall-clock of the incremental refresh.
    pub inc_ns: u128,
    /// Wall-clock of the full refresh (on an identically mutated twin).
    pub full_ns: u128,
}

/// Builds the E10 arm: a seeded churn instance (tree-shaped hierarchy,
/// one class view per class, 20% with a derived `link` path), all views
/// materialized and fresh, then **one** single-object update — a new
/// object asserted into the deepest class — refreshed incrementally and,
/// on a twin, by full re-evaluation. Deterministic per `(objects, views)`.
pub fn e10_maintenance_arm(objects: usize, views: usize) -> E10Row {
    use subq::oodb::eval::initial_candidates;
    use subq::oodb::OptimizedDatabase;
    use subq::workload::{churn_trace, ChurnParams, FamilyShape};

    let params = ChurnParams {
        shape: FamilyShape::Tree,
        classes: views,
        views,
        path_view_percent: 20,
        objects,
        transactions: 0,
        ops_per_transaction: 1,
        retract_percent: 40,
    };
    let trace = churn_trace(13, params);
    let mut incremental = OptimizedDatabase::new(trace.db.clone()).expect("translates");
    let mut full = OptimizedDatabase::new(trace.db).expect("translates");
    for name in &trace.view_names {
        incremental.materialize_view(name).expect("materializes");
        full.materialize_view(name).expect("materializes");
    }

    // The single-object update: a new object enters the deepest class
    // (membership propagates up the tree, one delta per ancestor).
    let deepest = format!("K{}", views - 1);
    for odb in [&mut incremental, &mut full] {
        odb.update(|db| {
            let obj = db.add_object("update_target");
            db.assert_class(obj, &deepest);
        });
    }

    let before = incremental.maintenance_stats();
    let start = Instant::now();
    incremental.refresh_views();
    let inc_ns = start.elapsed().as_nanos();
    let after = incremental.maintenance_stats();

    // The full baseline evaluates every view's whole candidate set.
    let full_memberships: u64 = trace
        .view_names
        .iter()
        .map(|name| {
            let view = full.catalog().view(name).expect("stored");
            initial_candidates(full.database(), &view.definition).len() as u64
        })
        .sum();
    let start = Instant::now();
    full.catalog().refresh_full(full.database());
    let full_ns = start.elapsed().as_nanos();

    // Both strategies must land on identical extensions.
    for name in &trace.view_names {
        let a = incremental.catalog().view(name).expect("stored");
        let b = full.catalog().view(name).expect("stored");
        assert_eq!(a.extent, b.extent, "E10 {objects}×{views}: view {name}");
    }

    E10Row {
        objects,
        views,
        deltas: after.deltas_applied - before.deltas_applied,
        inc_candidates: after.candidates_examined - before.candidates_examined,
        inc_memberships: after.memberships_evaluated - before.memberships_evaluated,
        inc_prunes: after.lattice_prunes - before.lattice_prunes,
        full_memberships,
        inc_ns,
        full_ns,
    }
}

/// The default E11 concurrency instance: object count, view count, and
/// the per-arm measurement window.
pub mod e11 {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::{Duration, Instant};
    use subq::oodb::{ObjId, OptimizedDatabase};
    use subq::workload::{churn_trace, ChurnParams, ChurnTrace, FamilyShape};

    /// One throughput arm of the E11 table.
    pub struct ThroughputRow {
        /// Reader threads measured.
        pub threads: usize,
        /// Plan+answer operations completed across all readers.
        pub total_ops: u64,
        /// Measurement window.
        pub elapsed_ns: u128,
        /// Median plan latency (over all readers' sampled plans).
        pub p50_plan_ns: u64,
        /// 99th-percentile plan latency.
        pub p99_plan_ns: u64,
        /// Snapshots the readers adopted during the window (lower bound:
        /// sum over readers of observed swaps).
        pub snapshots_adopted: u64,
        /// Per-op probe work after warmup: fresh probes observed across
        /// all readers (0 = every probe answered from a cache — the
        /// deterministic scalability invariant `perf_smoke` asserts).
        pub fresh_probes_after_warmup: u64,
    }

    /// Builds the shared E11 instance: a tree hierarchy with class and
    /// path views, a churny transaction stream, and a warmed writer
    /// (every query shape planned once, so the shared memo and the
    /// published arena carry them).
    pub fn setup(objects: usize, views: usize) -> (OptimizedDatabase, ChurnTrace) {
        let params = ChurnParams {
            shape: FamilyShape::Tree,
            classes: views.max(2),
            views,
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

    /// Measures aggregate plan+answer throughput with `threads` readers
    /// and a concurrent churn writer committing (and publishing) the
    /// trace's transactions at ~1 ms intervals. Deterministic in *work
    /// shape* (same queries, same churn), wall-clock in *rate*.
    pub fn throughput_arm(threads: usize, run: Duration) -> ThroughputRow {
        let (mut writer, trace) = setup(2_000, 12);
        let queries: Vec<_> = trace
            .view_names
            .iter()
            .map(|name| {
                writer
                    .database()
                    .model()
                    .query_class(name)
                    .expect("declared")
                    .clone()
            })
            .collect();
        // Warm every query shape through the writer: interned in the
        // published arena, verdicts in the shared memo.
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
                let stop = &stop;
                let total_ops = &total_ops;
                let adopted = &adopted;
                let fresh_after_warmup = &fresh_after_warmup;
                let latencies = &latencies;
                let queries = &queries;
                scope.spawn(move || {
                    // Per-reader warmup: one pass so private caches hold
                    // every (query, view) pair under the initial snapshot.
                    for query in queries {
                        let _ = reader.execute(query);
                    }
                    let mut ops = 0u64;
                    let mut swaps = 0u64;
                    let mut fresh = 0u64;
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

            // The churn writer: commit + publish a transaction roughly
            // every millisecond until the window closes.
            let deadline = started + run;
            let mut t = 0usize;
            while Instant::now() < deadline {
                let txn = &trace.transactions[t % trace.transactions.len()];
                t += 1;
                writer.commit(|db| {
                    for op in txn {
                        op.apply(db);
                    }
                });
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.store(true, Ordering::Relaxed);
        });
        let elapsed_ns = started.elapsed().as_nanos();

        let mut lats = latencies.into_inner().expect("latency lock");
        lats.sort_unstable();
        let pick = |q: f64| -> u64 {
            if lats.is_empty() {
                0
            } else {
                lats[((lats.len() - 1) as f64 * q) as usize]
            }
        };
        ThroughputRow {
            threads,
            total_ops: total_ops.into_inner(),
            elapsed_ns,
            p50_plan_ns: pick(0.50),
            p99_plan_ns: pick(0.99),
            snapshots_adopted: adopted.into_inner(),
            fresh_probes_after_warmup: fresh_after_warmup.into_inner(),
        }
    }

    /// One commit-cost arm: the wall-clock of a whole commit — the
    /// transaction's mutations (where the store copies what the last
    /// snapshot still shares), view maintenance and `publish_snapshot` —
    /// plus an attached reader's `sync()` adopting it (where the state
    /// the commit replaced is freed), best of 7, on a store of `objects`
    /// objects. Timing `publish_snapshot` alone, as this arm used to,
    /// starts the clock after the copies have been paid for. A
    /// transaction is `txn_ops` effective mutations of objects that
    /// already exist, attribute pairs and class memberships alternating
    /// and never the same object twice, which is what a served `TXN`
    /// mostly is; creating objects would add the name index's copy of
    /// one shard in 32, which grows with the population by design.
    pub fn publish_cost_arm(objects: usize, txn_ops: usize) -> u128 {
        let (mut writer, trace) = setup(objects, 12);
        writer.publish_snapshot();
        let mut reader = writer.reader();
        let classes: Vec<String> = (0..trace.view_names.len().max(2))
            .map(|k| format!("K{k}"))
            .collect();
        // 7919 is prime to both store sizes: a walk that visits every
        // object once before it repeats.
        let mut walk = (0..).map(|i: usize| ObjId((i * 7919 % objects) as u32));
        let mut best = u128::MAX;
        for _ in 0..7 {
            let before = writer.database().data_version();
            let start = Instant::now();
            writer.commit(|db| {
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
}

/// The E12 physical-layer arms: compressed-bitmap intersection throughput
/// against the ordered-set baseline, scatter-gather evaluation speedup
/// versus shard count, cost-model plan quality against the enumerated
/// alternatives, and plan+execute latency on a large store.
pub mod e12 {
    use std::collections::BTreeSet;
    use std::hint::black_box;
    use std::time::Instant;
    use subq::dl::QueryClassDecl;
    use subq::oodb::eval::{filter_members_sharded, initial_candidates};
    use subq::oodb::{CostModel, Database, ObjId, ObjSet, OptimizedDatabase, Statistics};
    use subq::workload::{
        churn_trace, hierarchical_catalog, ChurnParams, FamilyShape, HierarchyParams,
    };

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

    /// One intersection-throughput arm: two ≈100k-id sets at the given
    /// density, intersected as compressed bitmaps versus ordered sets.
    pub struct IntersectRow {
        /// Occupancy of the id universe, percent.
        pub density_percent: u32,
        /// Universe size the ids are drawn from.
        pub universe: u32,
        /// Ids in each operand (≈100k).
        pub n: usize,
        /// Cardinality of the intersection (identical for both engines).
        pub intersection: usize,
        /// Best per-intersection wall-clock, compressed bitmap.
        pub bitmap_ns: u128,
        /// Best per-intersection wall-clock, `BTreeSet` baseline.
        pub btree_ns: u128,
        /// `btree_ns / bitmap_ns`.
        pub speedup: f64,
    }

    /// Runs the intersection arm at `density_percent` occupancy with
    /// n≈100k operands. The E12 acceptance gate is ≥5× at the dense end.
    pub fn intersect_arm(density_percent: u32) -> IntersectRow {
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
        IntersectRow {
            density_percent,
            universe,
            n: a_ids.len().min(b_ids.len()),
            intersection,
            bitmap_ns,
            btree_ns,
            speedup: btree_ns as f64 / bitmap_ns as f64,
        }
    }

    /// Builds the scatter-gather instance: `objects` objects over four
    /// classes, every view strengthened with a derived `link` path, and
    /// the first view's definition as the measured query (its candidate
    /// set is a quarter of the store, its membership check walks paths).
    pub fn scatter_setup(objects: usize) -> (Database, QueryClassDecl) {
        let params = ChurnParams {
            shape: FamilyShape::Tree,
            classes: 4,
            views: 4,
            path_view_percent: 100,
            objects,
            transactions: 0,
            ops_per_transaction: 1,
            retract_percent: 40,
        };
        let trace = churn_trace(19, params);
        let query = trace
            .db
            .model()
            .query_class("V0")
            .expect("generated view")
            .clone();
        (trace.db, query)
    }

    /// One scatter-gather arm: full evaluation over `shards` id-range
    /// shards (1 = sequential baseline), best of 3.
    pub struct ScatterRow {
        /// Id-range shards (= worker threads) of this arm.
        pub shards: usize,
        /// Best full-evaluation wall-clock.
        pub elapsed_ns: u128,
        /// The answers — must be the same set at every shard count.
        pub answers: ObjSet,
    }

    /// Measures one scatter-gather arm: the query's initial candidates
    /// filtered over `shards` shards.
    pub fn scatter_arm(db: &Database, query: &QueryClassDecl, shards: usize) -> ScatterRow {
        let mut best = u128::MAX;
        let mut answers = ObjSet::new();
        for _ in 0..3 {
            let start = Instant::now();
            let base = initial_candidates(db, query);
            let result = filter_members_sharded(db, query, &base, shards);
            best = best.min(start.elapsed().as_nanos());
            answers = result;
        }
        ScatterRow {
            shards,
            elapsed_ns: best,
            answers,
        }
    }

    /// One plan-quality arm: how close the cost-based view choice lands
    /// to the best enumerable choice, per E9 catalog shape. Candidate
    /// counts are deterministic, so these are hard CI numbers.
    pub struct PlanRow {
        /// Catalog shape name.
        pub shape: &'static str,
        /// Views in the catalog.
        pub views: usize,
        /// Queries that had at least one subsuming view.
        pub queries: usize,
        /// Worst `chosen / best` candidates-examined ratio over those
        /// queries (1.0 = the planner always picked the cheapest member).
        pub worst_ratio: f64,
        /// Queries where the cost-based choice examined *more* candidates
        /// than the smallest-extension heuristic would have (must be 0).
        pub worse_than_smallest: usize,
        /// Total candidates the chosen plans examined.
        pub chosen_candidates: usize,
        /// Total candidates the per-query best enumerated plans examine.
        pub best_candidates: usize,
    }

    /// Runs the plan-quality arm on the same seeded catalogs as E9
    /// (seed 11, 2 members per class, 8 queries, no intersections).
    pub fn plan_quality_arm(shape: FamilyShape, views: usize) -> PlanRow {
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
        let stats = Statistics::collect(odb.database());
        let mut worst_ratio = 1.0f64;
        let mut worse_than_smallest = 0usize;
        let mut chosen_candidates = 0usize;
        let mut best_candidates = 0usize;
        let mut queries = 0usize;
        for query in &instance.queries {
            let plan = odb.plan(query);
            if plan.subsuming_views.is_empty() {
                continue;
            }
            let (_, exec) = odb.execute(query);
            let cost = CostModel::new(&stats, odb.database());
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
            if chosen > smallest_realized {
                worse_than_smallest += 1;
            }
            worst_ratio = worst_ratio.max(if best == 0 {
                1.0
            } else {
                chosen as f64 / best as f64
            });
            chosen_candidates += chosen;
            best_candidates += best;
            queries += 1;
        }
        PlanRow {
            shape: shape.name(),
            views,
            queries,
            worst_ratio,
            worse_than_smallest,
            chosen_candidates,
            best_candidates,
        }
    }

    /// One large-store latency arm: p50/p99 of plan+execute over the view
    /// queries of an `objects`-object store — 256 flat classes (so each
    /// extent holds ≈`objects/256` ids and the sampled latencies measure
    /// selective plan+execute, not bulk answer materialization), 64
    /// views, 20% of them with a derived `link` path.
    pub struct LatencyRow {
        /// Objects in the store.
        pub objects: usize,
        /// Views materialized (one per class, wrapping).
        pub views: usize,
        /// Plan+execute operations sampled.
        pub ops: usize,
        /// Median latency.
        pub p50_ns: u64,
        /// 99th-percentile latency — the E12 bound is sub-ms on ≥4-core
        /// hardware, relaxed core-proportionally below that.
        pub p99_ns: u64,
    }

    /// Builds the latency store once, warms every query shape, then
    /// samples `ops` plan+execute round trips.
    pub fn latency_arm(objects: usize, ops: usize) -> LatencyRow {
        let params = ChurnParams {
            shape: FamilyShape::Flat,
            classes: 256,
            views: 64,
            path_view_percent: 20,
            objects,
            transactions: 0,
            ops_per_transaction: 1,
            retract_percent: 40,
        };
        let trace = churn_trace(23, params);
        let mut odb = OptimizedDatabase::new(trace.db).expect("translates");
        for name in &trace.view_names {
            odb.materialize_view(name).expect("materializes");
        }
        let queries: Vec<QueryClassDecl> = trace
            .view_names
            .iter()
            .map(|name| {
                odb.database()
                    .model()
                    .query_class(name)
                    .expect("declared")
                    .clone()
            })
            .collect();
        // Warm the subsumption memo and the statistics catalog so the
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
        let pick = |q: f64| -> u64 { lats[((lats.len() - 1) as f64 * q) as usize] };
        LatencyRow {
            objects,
            views: 64,
            ops,
            p50_ns: pick(0.50),
            p99_ns: pick(0.99),
        }
    }
}

pub mod e8 {
    //! The E8 repeat-plan arm, shared between the table binary's numbers
    //! and the perf-smoke instrumentation-overhead gate: a warm optimizer
    //! over the hospital store with the full ten-view catalog, planning
    //! the same query until every probe answers from the verdict cache.

    use std::time::Instant;
    use subq::dl::{samples, QueryClassDecl};
    use subq::oodb::OptimizedDatabase;
    use subq::workload::{synthetic_hospital, HospitalParams};

    /// The catalog of the E8 table's section 2 (every schema class
    /// doubles as a trivial view, after the one structural view).
    pub const VIEW_NAMES: [&str; 10] = [
        "ViewPatient",
        "Person",
        "Patient",
        "Doctor",
        "Disease",
        "Drug",
        "String",
        "Topic",
        "Male",
        "Female",
    ];

    /// A warm optimizer (the first plan already taken, so repeats are
    /// fully memoized) plus the query it plans.
    pub fn repeat_plan_setup() -> (OptimizedDatabase, QueryClassDecl) {
        let params = HospitalParams {
            patients: 2_000,
            doctors: 50,
            diseases: 20,
            view_match_percent: 15,
            query_match_percent: 40,
        };
        let query = samples::medical_model()
            .query_class("QueryPatient")
            .expect("declared")
            .clone();
        let mut odb = OptimizedDatabase::new(synthetic_hospital(7, params)).expect("translates");
        for view in VIEW_NAMES {
            odb.materialize_view(view).expect("materializes");
        }
        odb.plan(&query);
        (odb, query)
    }

    /// Wall-clock nanoseconds per memoized repeat plan on the warm
    /// optimizer, averaged over `repeats` plans.
    pub fn repeat_plan_ns(
        odb: &mut OptimizedDatabase,
        query: &QueryClassDecl,
        repeats: u32,
    ) -> u64 {
        let start = Instant::now();
        for _ in 0..repeats {
            odb.plan(query);
        }
        (start.elapsed().as_nanos() as u64 / repeats as u64).max(1)
    }
}

/// E13: the durable storage engine — write-ahead logging with group
/// commit, checkpoint images, and crash recovery (see
/// `e13_durability_table.rs` for the arms and `tests/crash_recovery.rs`
/// for the correctness side).
pub mod e13 {
    use std::path::PathBuf;
    use std::sync::Arc;
    use std::time::Instant;
    use subq::dl::{AttrDecl, ClassDecl, DlModel};
    use subq::oodb::durable::codec::{encode_record, WalRecord};
    use subq::oodb::maintain::Delta;
    use subq::oodb::{
        Database, DurableOptions, FileBackend, ObjId, OptimizedDatabase, StorageBackend,
    };

    /// A fresh scratch directory for one arm (the arm removes it).
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("subq_e13_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creating the scratch directory");
        dir
    }

    /// The durable-bench schema: eight classes and a `link` attribute.
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

    /// One row of the WAL-latency arm: the *durability portion* of a
    /// commit — encode, append, and the (possibly amortized) fsync —
    /// driven directly against the real [`FileBackend`]. The full commit
    /// also pays the in-memory update and snapshot publication, which is
    /// identical at every batch size; isolating the log write is what
    /// makes the fsync amortization visible on any store.
    pub struct WalLatencyRow {
        /// Records per fsync.
        pub batch: usize,
        /// Transactions appended.
        pub txns: usize,
        /// Encoded bytes of the representative record.
        pub record_bytes: usize,
        /// Wall-clock per transaction, append + amortized fsync.
        pub per_txn_ns: u128,
        /// Fsyncs actually issued.
        pub fsyncs: u64,
    }

    /// Appends `txns` representative 4-delta records through the file
    /// backend, fsyncing every `batch` records.
    pub fn wal_latency_arm(batch: usize, txns: usize) -> WalLatencyRow {
        let dir = scratch_dir(&format!("wal{batch}"));
        let backend = FileBackend::new(&dir).expect("backend");
        let record = WalRecord {
            start_version: 0,
            deltas: (0..4u32)
                .map(|i| {
                    (
                        Delta::AddObject { object: ObjId(i) },
                        Some(format!("object{i}")),
                    )
                })
                .collect(),
        };
        let mut bytes = Vec::new();
        encode_record(&record, &mut bytes);
        for _ in 0..4 {
            backend.append("wal.log", &bytes).expect("warmup append");
            backend.sync("wal.log").expect("warmup sync");
        }
        let mut fsyncs = 0u64;
        let mut pending = 0usize;
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
        WalLatencyRow {
            batch,
            txns,
            record_bytes: bytes.len(),
            per_txn_ns,
            fsyncs,
        }
    }

    /// One row of the end-to-end commit arm: `commit_durable` through
    /// the whole engine (update, WAL, snapshot publication) on the file
    /// backend. Context for the WAL arm — the durability saving is the
    /// same, the in-memory work dilutes the ratio.
    pub struct CommitLatencyRow {
        /// Records per fsync.
        pub batch: usize,
        /// Transactions committed.
        pub txns: usize,
        /// Wall-clock per `commit_durable` (two deltas each).
        pub per_commit_ns: u128,
        /// Fsyncs the engine issued.
        pub fsyncs: u64,
        /// Batches that covered more than one record.
        pub group_commits: u64,
    }

    /// Commits `txns` two-delta transactions at the given group-commit
    /// batch size.
    pub fn commit_latency_arm(batch: usize, txns: usize) -> CommitLatencyRow {
        let dir = scratch_dir(&format!("commit{batch}"));
        let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::new(&dir).expect("backend"));
        let mut odb = OptimizedDatabase::open(
            backend,
            DurableOptions {
                group_commit: batch,
            },
            || Database::new(bench_model()),
        )
        .expect("genesis open");
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
        CommitLatencyRow {
            batch,
            txns,
            per_commit_ns,
            fsyncs: stats.fsyncs,
            group_commits: stats.group_commits,
        }
    }

    /// One row of the recovery arm: wall-clock of `open()` against a
    /// disk state holding `log_entries` committed deltas — either all of
    /// them in the WAL (`full_log`) or all but a short suffix absorbed
    /// into a checkpoint image (`image_suffix`).
    pub struct RecoveryRow {
        /// `"full_log"` or `"image_suffix"`.
        pub mode: &'static str,
        /// Deltas committed after the genesis image.
        pub log_entries: u64,
        /// WAL records recovery replayed.
        pub replayed_records: u64,
        /// Wall-clock of `open()` (image load + WAL replay + classify).
        pub recovery_ns: u128,
    }

    /// Builds a `txns`-transaction committed history of `2 ×
    /// edges_per_txn` deltas each over a fixed `objects`-object store —
    /// every transaction asserts `edges_per_txn` fresh `link` edges and
    /// retracts the batch asserted sixteen transactions earlier, so the
    /// log is long while the store (and hence the fixed image-load cost)
    /// stays small, the regime the checkpoint exists for. Optionally
    /// checkpoints so only the last `tail_txns` transactions stay in the
    /// WAL, then times a cold `open()`.
    pub fn recovery_arm(
        objects: usize,
        edges_per_txn: usize,
        txns: usize,
        tail_txns: Option<usize>,
    ) -> RecoveryRow {
        const WINDOW: usize = 16;
        let mode = if tail_txns.is_some() {
            "image_suffix"
        } else {
            "full_log"
        };
        let entries = (2 * edges_per_txn * txns) as u64;
        // Edge `k` is unique for every `k` this arm touches: the `to`
        // endpoint shifts by one per wrap of the `from` endpoint.
        let edge = |k: usize| (k % objects, (k + k / objects) % objects);
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
            for k in 0..WINDOW * edges_per_txn {
                let (from, to) = edge(k);
                initial.assert_attr(ids[from], "link", ids[to]);
            }
            let mut odb = OptimizedDatabase::open(
                backend.clone(),
                DurableOptions { group_commit: 64 },
                || initial,
            )
            .expect("genesis open");
            let genesis_version = odb.database().data_version();
            for t in 0..txns {
                odb.commit_durable(|db| {
                    for i in 0..edges_per_txn {
                        let (from, to) = edge((WINDOW + t) * edges_per_txn + i);
                        db.assert_attr(ids[from], "link", ids[to]);
                        let (from, to) = edge(t * edges_per_txn + i);
                        db.retract_attr(ids[from], "link", ids[to]);
                    }
                })
                .expect("commit");
                if tail_txns == Some(txns - t - 1) {
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
            WINDOW * edges_per_txn,
            "the sliding edge window must survive recovery"
        );
        let stats = odb.durability_stats().expect("opened durably");
        drop(odb);
        let _ = std::fs::remove_dir_all(&dir);
        RecoveryRow {
            mode,
            log_entries: entries,
            replayed_records: stats.recovered_records,
            recovery_ns,
        }
    }

    /// One row of the checkpoint-size arm: the on-disk image of an
    /// `objects`-object store (eight class extents, one `link` edge per
    /// four objects).
    pub struct CheckpointSizeRow {
        /// Objects in the store.
        pub objects: usize,
        /// `link` edges in the store.
        pub edges: usize,
        /// Bytes of the checkpoint image.
        pub image_bytes: u64,
        /// `image_bytes / objects`.
        pub bytes_per_object: f64,
        /// Wall-clock of writing the image (checkpoint call).
        pub checkpoint_ns: u128,
    }

    /// Builds the store in memory, opens it durably (genesis), and
    /// times one explicit checkpoint.
    pub fn checkpoint_size_arm(objects: usize) -> CheckpointSizeRow {
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
        let image = backend
            .list()
            .expect("list")
            .into_iter()
            .find(|name| name.ends_with(".img"))
            .expect("an image exists");
        let image_bytes = backend.read(&image).expect("read").expect("exists").len() as u64;
        drop(odb);
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointSizeRow {
            objects,
            edges,
            image_bytes,
            bytes_per_object: image_bytes as f64 / objects as f64,
            checkpoint_ns,
        }
    }
}

/// E14: the `subqd` server — mixed churn+query traffic from a fleet of
/// loopback TCP clients through the load generator (see
/// `e14_server_table.rs` for the arms and the `tests/server_*.rs` suites
/// for the correctness side).
pub mod e14 {
    use std::sync::Arc;
    use subq::oodb::{
        AdvisorConfig, AdvisorMode, DurableOptions, FaultyBackend, OptimizedDatabase,
    };
    use subq::server::{percentile, run_mixed_load, LoadParams, Server, ServerConfig};
    use subq::workload::traffic::TrafficParams;
    use subq::workload::{churn_trace, ChurnParams, ChurnTrace};

    /// One mixed-traffic run: a fleet of clients, per-op-class latency.
    pub struct MixedRow {
        pub clients: usize,
        pub queue: usize,
        /// Acknowledged operations (queries + commits); retried `BUSY`
        /// rounds are counted separately.
        pub ops: usize,
        pub queries: usize,
        pub txns: usize,
        pub busy: usize,
        /// `BUSY` replies split by the op class that drew them.
        pub query_busy: usize,
        pub txn_busy: usize,
        pub errors: usize,
        /// Typed `ERR` replies split by the op class that drew them.
        pub query_errors: usize,
        pub txn_errors: usize,
        pub elapsed_ns: u128,
        pub ops_per_sec: f64,
        pub query_p50_ns: u64,
        pub query_p99_ns: u64,
        pub txn_p50_ns: u64,
        pub txn_p99_ns: u64,
    }

    /// The E14 trace: the standard churn schema with enough objects for
    /// non-trivial answers and enough transactions that a fleet's
    /// round-robin shares stay disjoint.
    fn trace() -> ChurnTrace {
        churn_trace(
            0xE14,
            ChurnParams {
                objects: 120,
                transactions: 64,
                ..ChurnParams::default()
            },
        )
    }

    /// Runs `clients` threads of mixed traffic (each `ops` operations,
    /// `query_percent`% queries) against a freshly served durable store
    /// (in-memory backend: the WAL encode + group-commit batching is
    /// real, the fsync is free, so rows measure the server, not a disk).
    pub fn mixed_arm(clients: usize, queue: usize, query_percent: u8, ops: usize) -> MixedRow {
        mixed_arm_advisor(clients, queue, query_percent, ops, AdvisorMode::Off)
    }

    /// Like [`mixed_arm`] but with the advisor in the given mode — the
    /// `observe`-overhead gate compares `Off` against `Observe` on the
    /// otherwise identical stationary mix.
    pub fn mixed_arm_advisor(
        clients: usize,
        queue: usize,
        query_percent: u8,
        ops: usize,
        mode: AdvisorMode,
    ) -> MixedRow {
        let trace = trace();
        let backend = Arc::new(FaultyBackend::new());
        let mut odb = OptimizedDatabase::open(backend, DurableOptions { group_commit: 64 }, || {
            trace.db.clone()
        })
        .expect("genesis open");
        for name in &trace.view_names {
            odb.materialize_view(name).expect("materializes");
        }
        odb.checkpoint().expect("checkpoint after materialization");
        let server = Server::start(
            odb,
            ServerConfig {
                write_queue: queue,
                advisor: AdvisorConfig {
                    mode,
                    ..AdvisorConfig::default()
                },
                ..ServerConfig::default()
            },
        )
        .expect("binds loopback");
        let report = run_mixed_load(
            server.addr(),
            &trace,
            LoadParams {
                clients,
                traffic: TrafficParams { query_percent, ops },
                ..LoadParams::default()
            },
        )
        .expect("load run");
        server.shutdown();
        let elapsed_ns = report.elapsed.as_nanos().max(1);
        MixedRow {
            clients,
            queue,
            ops: report.ops,
            queries: report.queries,
            txns: report.txns,
            busy: report.busy,
            query_busy: report.query_busy,
            txn_busy: report.txn_busy,
            errors: report.errors,
            query_errors: report.query_errors,
            txn_errors: report.txn_errors,
            elapsed_ns,
            ops_per_sec: report.ops as f64 / (elapsed_ns as f64 / 1e9),
            query_p50_ns: percentile(&report.query_ns, 50.0),
            query_p99_ns: percentile(&report.query_ns, 99.0),
            txn_p50_ns: percentile(&report.txn_ns, 50.0),
            txn_p99_ns: percentile(&report.txn_ns, 99.0),
        }
    }
}

/// E15: the workload-adaptive view advisor under an adversarial
/// phase-shifting mix — a hand-tuned static catalog (every view
/// materialized up front, advisor off) versus a cold store that starts
/// with **zero** materialized views and `--advisor auto` (see
/// `e15_advisor_table.rs` for the arms and `tests/advisor_*.rs` for the
/// correctness side).
pub mod e15 {
    use std::sync::Arc;
    use std::time::Duration;
    use subq::oodb::{
        AdvisorConfig, AdvisorMode, DurableOptions, FaultyBackend, OptimizedDatabase,
    };
    use subq::server::{percentile, run_mixed_load, LoadParams, Server, ServerConfig};
    use subq::workload::traffic::{ShiftParams, TrafficParams};
    use subq::workload::{churn_trace, ChurnParams, ChurnTrace};

    /// One arm of the advisor experiment.
    pub struct AdvisorRow {
        pub arm: &'static str,
        pub clients: usize,
        pub ops: usize,
        pub queries: usize,
        pub txns: usize,
        pub errors: usize,
        /// Views materialized by hand before the run (the DDL budget the
        /// auto arm must win without).
        pub manual_ddl: usize,
        /// Advisor lifecycle activity during the run, from the process
        /// counters (`subq_advisor_*_total` deltas).
        pub auto_materialized: u64,
        pub auto_evicted: u64,
        pub rejected_subsumed: u64,
        pub elapsed_ns: u128,
        pub ops_per_sec: f64,
        pub query_p50_ns: u64,
        pub query_p99_ns: u64,
    }

    /// The E15 trace: a wider catalog (12 views over 8 classes) than E14
    /// so the shifting hot window has somewhere to move, and enough
    /// transactions to keep maintenance pressure on materialized views.
    fn trace() -> ChurnTrace {
        churn_trace(
            0xE15,
            ChurnParams {
                classes: 8,
                views: 12,
                objects: 240,
                transactions: 96,
                ..ChurnParams::default()
            },
        )
    }

    /// The adversarial schedule: the hot window (3 of 12 views) rotates
    /// every 120 ops per client, so a static guess about "the hot views"
    /// goes stale mid-run.
    pub fn shift() -> ShiftParams {
        ShiftParams {
            phase_ops: 120,
            views_per_phase: 3,
        }
    }

    /// Runs one arm of the shifting workload. `hand_tuned` materializes
    /// the full catalog up front (and counts it as `manual_ddl`); the
    /// auto arm starts with zero materialized views and must earn its
    /// catalog from the advisor alone.
    pub fn advisor_arm(
        arm: &'static str,
        mode: AdvisorMode,
        hand_tuned: bool,
        clients: usize,
        ops: usize,
    ) -> AdvisorRow {
        let trace = trace();
        let backend = Arc::new(FaultyBackend::new());
        let mut odb = OptimizedDatabase::open(backend, DurableOptions { group_commit: 64 }, || {
            trace.db.clone()
        })
        .expect("genesis open");
        let mut manual_ddl = 0usize;
        if hand_tuned {
            for name in &trace.view_names {
                odb.materialize_view(name).expect("materializes");
                manual_ddl += 1;
            }
            odb.checkpoint().expect("checkpoint after materialization");
        }
        let materialized_before = subq::telemetry::counter("subq_advisor_materialized_total").get();
        let evicted_before = subq::telemetry::counter("subq_advisor_evicted_total").get();
        let rejected_before =
            subq::telemetry::counter("subq_advisor_rejected_subsumed_total").get();
        let server = Server::start(
            odb,
            ServerConfig {
                write_queue: 64,
                advisor: AdvisorConfig {
                    mode,
                    ..AdvisorConfig::default()
                },
                // Frequent passes: the run is short, the advisor must
                // react within a phase, not once per wall-clock second.
                advisor_interval: Duration::from_millis(10),
                ..ServerConfig::default()
            },
        )
        .expect("binds loopback");
        let report = run_mixed_load(
            server.addr(),
            &trace,
            LoadParams {
                clients,
                seed: 0xE15,
                traffic: TrafficParams {
                    query_percent: 85,
                    ops,
                },
                shift: Some(shift()),
                ..LoadParams::default()
            },
        )
        .expect("load run");
        server.shutdown();
        let elapsed_ns = report.elapsed.as_nanos().max(1);
        AdvisorRow {
            arm,
            clients,
            ops: report.ops,
            queries: report.queries,
            txns: report.txns,
            errors: report.errors,
            manual_ddl,
            auto_materialized: subq::telemetry::counter("subq_advisor_materialized_total").get()
                - materialized_before,
            auto_evicted: subq::telemetry::counter("subq_advisor_evicted_total").get()
                - evicted_before,
            rejected_subsumed: subq::telemetry::counter("subq_advisor_rejected_subsumed_total")
                .get()
                - rejected_before,
            elapsed_ns,
            ops_per_sec: report.ops as f64 / (elapsed_ns as f64 / 1e9),
            query_p50_ns: percentile(&report.query_ns, 50.0),
            query_p99_ns: percentile(&report.query_ns, 99.0),
        }
    }
}

/// Times `work` on fresh instances from `make` until ~50 ms of measurement
/// (at least 3 runs) and returns the best per-run time.
pub fn time_best<T>(mut make: impl FnMut() -> T, mut work: impl FnMut(T)) -> Duration {
    let mut best = Duration::MAX;
    let mut spent = Duration::ZERO;
    let mut runs = 0u32;
    while runs < 3 || (spent < Duration::from_millis(50) && runs < 1000) {
        let input = make();
        let start = Instant::now();
        work(input);
        let elapsed = start.elapsed();
        best = best.min(elapsed);
        spent += elapsed;
        runs += 1;
    }
    best
}

/// Formats one row of a markdown-style table.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// A machine-readable benchmark row: `(key, value)` pairs serialized as
/// one flat JSON object. Values are emitted verbatim, so pass numbers as
/// numbers (`"3"`) and strings pre-quoted (`"\"path_depth\""`).
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Quotes a string for use as a [`json_object`] value.
pub fn json_str(value: &str) -> String {
    format!("\"{}\"", value.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Writes rows as a JSON array to `path` (one `BENCH_*.json` per table
/// binary).
pub fn write_json_rows(path: &str, rows: &[String]) {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("  ");
        out.push_str(row);
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    if let Err(error) = std::fs::write(path, out) {
        eprintln!("warning: could not write {path}: {error}");
    } else {
        eprintln!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subq::workload::scaling::path_depth_instance;

    #[test]
    fn run_instance_reports_subsumption_and_stats() {
        let mut instance = path_depth_instance(3);
        let (subsumed, stats) = run_instance(&mut instance);
        assert!(subsumed);
        assert!(stats.rule_applications > 0);
    }

    #[test]
    fn reference_instance_agrees_with_delta() {
        let mut delta = path_depth_instance(4);
        let mut naive = path_depth_instance(4);
        let (a, delta_stats) = run_instance(&mut delta);
        let (b, ref_stats) = run_reference_instance(&mut naive);
        assert_eq!(a, b);
        assert_eq!(delta_stats.outcome_only(), ref_stats.outcome_only());
        assert!(ref_stats.constraints_examined >= delta_stats.constraints_examined);
    }

    #[test]
    fn row_formats_markdown() {
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
    }

    #[test]
    fn json_rows_are_well_formed() {
        let row = json_object(&[("family", json_str("path_depth")), ("n", "4".into())]);
        assert_eq!(row, "{\"family\": \"path_depth\", \"n\": 4}");
    }
}
