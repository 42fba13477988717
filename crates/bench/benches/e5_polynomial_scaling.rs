//! Experiment E5 — Theorem 4.9 and Proposition 4.8: the subsumption check
//! scales polynomially in the size of the query, the view, and the schema,
//! and the number of individuals stays below `M · N`.
//!
//! Four deterministic families (see `subq-workload::scaling`) each grow one
//! size parameter; the bench measures wall-clock time per instance and
//! `subq-bench table e5` prints the individual counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use subq::calculus::SubsumptionChecker;
use subq::workload::scaling::{
    conjunction_width_instance, path_depth_instance, schema_size_instance, view_growth_instance,
};
use subq::workload::ScalingInstance;

fn run(mut instance: ScalingInstance) -> usize {
    let checker = SubsumptionChecker::new(&instance.schema);
    let outcome = checker.check(&mut instance.arena, instance.query, instance.view);
    assert!(
        outcome.subsumed(),
        "scaling instances are subsumed by construction"
    );
    // Proposition 4.8, asserted on every measured instance.
    let bound = instance.arena.concept_size(outcome.normalized_query)
        * instance.arena.concept_size(outcome.normalized_view)
        + 1;
    assert!(outcome.stats.individuals <= bound);
    outcome.stats.rule_applications
}

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_polynomial_scaling");
    group.sample_size(15);

    type Family = fn(usize) -> ScalingInstance;
    let families: [(&str, Family); 4] = [
        ("path_depth", path_depth_instance),
        ("conjunction_width", conjunction_width_instance),
        ("schema_size", schema_size_instance),
        ("view_growth", view_growth_instance),
    ];
    for (name, family) in families {
        for n in [2usize, 4, 8, 16, 32] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, &n| {
                b.iter_batched(|| family(n), run, criterion::BatchSize::SmallInput)
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
