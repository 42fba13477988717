//! Experiment E8 — the optimization payoff of Sections 1 and 6: answering a
//! query by filtering a subsuming materialized view versus evaluating it
//! from scratch, across database sizes and view selectivities.
//!
//! `subq-bench table e8` prints the candidate-count table (the
//! size-independent measure of the search-space reduction).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use subq::dl::samples;
use subq::oodb::OptimizedDatabase;
use subq::workload::{synthetic_hospital, HospitalParams};

fn bench_optimizer(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_optimizer");
    group.sample_size(10);

    let model = samples::medical_model();
    let query = model.query_class("QueryPatient").expect("declared").clone();

    for &patients in &[500usize, 2_000, 8_000] {
        let params = HospitalParams {
            patients,
            doctors: (patients / 40).max(5),
            diseases: 20,
            view_match_percent: 15,
            query_match_percent: 40,
        };
        let db = synthetic_hospital(7, params);
        let mut odb = OptimizedDatabase::new(db).expect("translates");
        odb.materialize_view("ViewPatient").expect("materializes");
        // Warm up the materialization and check correctness once.
        let (optimized, stats) = odb.execute(&query);
        let (baseline, base_stats) = odb.execute_unoptimized(&query);
        assert_eq!(optimized, baseline);
        assert!(stats.candidates_examined <= base_stats.candidates_examined);

        group.bench_with_input(
            BenchmarkId::new("optimized_via_view", patients),
            &patients,
            |b, _| b.iter(|| odb.execute(&query).1.answers),
        );
        group.bench_with_input(
            BenchmarkId::new("from_scratch", patients),
            &patients,
            |b, _| b.iter(|| odb.execute_unoptimized(&query).1.answers),
        );
    }

    // Sweep view selectivity at a fixed size: the payoff shrinks as the
    // view covers more of the database.
    for &selectivity in &[5u8, 25, 60] {
        let params = HospitalParams {
            patients: 2_000,
            doctors: 50,
            diseases: 20,
            view_match_percent: selectivity,
            query_match_percent: 40,
        };
        let db = synthetic_hospital(11, params);
        let mut odb = OptimizedDatabase::new(db).expect("translates");
        odb.materialize_view("ViewPatient").expect("materializes");
        let _ = odb.execute(&query);
        group.bench_with_input(
            BenchmarkId::new("optimized_by_selectivity", selectivity),
            &selectivity,
            |b, _| b.iter(|| odb.execute(&query).1.answers),
        );
    }

    group.finish();
}

criterion_group!(benches, bench_optimizer);
criterion_main!(benches);
