//! Experiment E7 — Section 5 ("Conjunctive Queries"): the polynomial
//! structural calculus versus the NP-complete Chandra–Merlin containment
//! test on QL-expressible query/view pairs with an empty schema.
//!
//! Both deciders return the same answers (asserted); the bench measures
//! their running times on seeded random pairs and on pairs that are
//! subsumed by construction. `subq-bench table e7` prints the
//! agreement/hit-rate table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use subq::calculus::SubsumptionChecker;
use subq::concepts::Schema;
use subq::conjunctive::{concept_to_cq, contains};
use subq::workload::{random_pair, subsumed_pair, RandomConceptParams};

fn bench_cq_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_cq_baseline");
    group.sample_size(20);

    let schema = Schema::new();
    for depth in [2usize, 3] {
        let params = RandomConceptParams {
            max_depth: depth,
            ..RandomConceptParams::default()
        };

        group.bench_with_input(
            BenchmarkId::new("calculus_random_pairs", depth),
            &depth,
            |b, _| {
                b.iter_batched(
                    || {
                        (0..16u64)
                            .map(|seed| random_pair(seed, params))
                            .collect::<Vec<_>>()
                    },
                    |pairs| {
                        let checker = SubsumptionChecker::new(&schema);
                        pairs
                            .into_iter()
                            .filter(|_| true)
                            .map(|(mut env, q, v)| checker.subsumes(&mut env.arena, q, v))
                            .filter(|&b| b)
                            .count()
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );

        group.bench_with_input(
            BenchmarkId::new("chandra_merlin_random_pairs", depth),
            &depth,
            |b, _| {
                b.iter_batched(
                    || {
                        (0..16u64)
                            .map(|seed| random_pair(seed, params))
                            .collect::<Vec<_>>()
                    },
                    |pairs| {
                        pairs
                            .into_iter()
                            .map(|(env, q, v)| {
                                contains(
                                    &concept_to_cq(&env.arena, q),
                                    &concept_to_cq(&env.arena, v),
                                )
                            })
                            .filter(|&b| b)
                            .count()
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );

        group.bench_with_input(
            BenchmarkId::new("calculus_subsumed_pairs", depth),
            &depth,
            |b, _| {
                b.iter_batched(
                    || {
                        (0..16u64)
                            .map(|seed| subsumed_pair(seed, params))
                            .collect::<Vec<_>>()
                    },
                    |pairs| {
                        let checker = SubsumptionChecker::new(&schema);
                        for (mut env, q, v) in pairs {
                            assert!(checker.subsumes(&mut env.arena, q, v));
                        }
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );

        group.bench_with_input(
            BenchmarkId::new("chandra_merlin_subsumed_pairs", depth),
            &depth,
            |b, _| {
                b.iter_batched(
                    || {
                        (0..16u64)
                            .map(|seed| subsumed_pair(seed, params))
                            .collect::<Vec<_>>()
                    },
                    |pairs| {
                        for (env, q, v) in pairs {
                            assert!(contains(
                                &concept_to_cq(&env.arena, q),
                                &concept_to_cq(&env.arena, v)
                            ));
                        }
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_cq_baseline);
criterion_main!(benches);
