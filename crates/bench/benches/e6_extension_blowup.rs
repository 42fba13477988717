//! Experiment E6 — Propositions 4.10–4.12: the cost of complete reasoning
//! for the harmful language extensions, contrasted with the polynomial core
//! on comparable SL/QL instances.
//!
//! Measured quantities: the filler demand of qualified-existential schemas,
//! the expansion size for inverse-attribute schemas, the valuation count
//! for disjunctive (propositional) subsumption, and tableau satisfiability
//! on pigeonhole instances. `subq-bench table e6` prints the counter
//! table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use subq::concepts::Vocabulary;
use subq::extensions::expansion::{
    expand_and_detect, filler_demand, inverse_chain, qualified_chain, unqualified_chain,
};
use subq::extensions::propositional::{independent_choices, pigeonhole, prop_subsumes};
use subq::extensions::tableau::is_satisfiable;

fn bench_extensions(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_extension_blowup");
    group.sample_size(10);

    // Proposition 4.10 case 1: qualified existentials vs the SL
    // approximation.
    for n in [4usize, 8, 12] {
        group.bench_with_input(
            BenchmarkId::new("qualified_exists_demand", n),
            &n,
            |b, &n| {
                b.iter_batched(
                    || {
                        let mut voc = Vocabulary::new();
                        qualified_chain(&mut voc, n)
                    },
                    |(schema, root)| filler_demand(&schema, root, n),
                    criterion::BatchSize::SmallInput,
                )
            },
        );
        group.bench_with_input(
            BenchmarkId::new("sl_approximation_demand", n),
            &n,
            |b, &n| {
                b.iter_batched(
                    || {
                        let mut voc = Vocabulary::new();
                        unqualified_chain(&mut voc, n)
                    },
                    |(schema, root)| filler_demand(&schema, root, n),
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }

    // Proposition 4.10 case 2: inverse attributes force the full expansion.
    for n in [4usize, 6, 8] {
        group.bench_with_input(BenchmarkId::new("inverse_expansion", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    let mut voc = Vocabulary::new();
                    inverse_chain(&mut voc, n)
                },
                |(schema, root, target)| {
                    let outcome = expand_and_detect(&schema, root, n);
                    assert!(outcome.root_classes.contains(&target));
                    outcome.individuals_created
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }

    // Proposition 4.12: disjunction — valuation enumeration.
    for n in [6usize, 10, 14] {
        group.bench_with_input(
            BenchmarkId::new("disjunction_valuations", n),
            &n,
            |b, &n| {
                b.iter_batched(
                    || {
                        let mut voc = Vocabulary::new();
                        independent_choices(&mut voc, n)
                    },
                    |concept| {
                        let outcome = prop_subsumes(&concept, &concept).expect("propositional");
                        assert!(outcome.subsumed);
                        outcome.valuations
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }

    // Propositions 4.11/4.13: the complete tableau on pigeonhole instances.
    for holes in [2usize, 3, 4] {
        group.bench_with_input(
            BenchmarkId::new("tableau_pigeonhole", holes),
            &holes,
            |b, &holes| {
                b.iter_batched(
                    || {
                        let mut voc = Vocabulary::new();
                        pigeonhole(&mut voc, holes)
                    },
                    |concept| {
                        assert!(!is_satisfiable(&concept));
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_extensions);
criterion_main!(benches);
