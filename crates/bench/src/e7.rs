//! E7 — the structural calculus versus conjunctive-query containment
//! (Theorem 4.7 with Σ = ∅). Per concept depth ∈ {2, 3}: 300 seeded
//! random QL pairs decided by the polynomial calculus and by the
//! Chandra–Merlin containment oracle, and 300 pairs subsumed by
//! construction. Counters only.
//!
//! Bound (both sources): the two deciders agree on every pair and every
//! constructed subsumption is detected. `check` re-runs the table and
//! compares every column exactly.

use crate::{Experiment, Row, Source};
use subq::calculus::SubsumptionChecker;
use subq::concepts::Schema;
use subq::conjunctive::{concept_to_cq, contains};
use subq::workload::{random_pair, subsumed_pair, RandomConceptParams};

pub const EXPERIMENT: Experiment = Experiment {
    id: "e7",
    title: "the structural calculus versus conjunctive-query containment (empty schema)",
    file: "BENCH_e7.json",
    rows: 2,
    table,
    live: None,
    counters: &[
        "depth",
        "pairs",
        "agreement",
        "positives_calculus",
        "positives_cq",
        "detected",
    ],
    gate,
};

fn table() -> Vec<Row> {
    let schema = Schema::new();
    let checker = SubsumptionChecker::new(&schema);
    let mut rows = Vec::new();
    for depth in [2usize, 3] {
        let params = RandomConceptParams {
            max_depth: depth,
            ..RandomConceptParams::default()
        };
        let pairs = 300u64;
        let (mut agreement, mut positives_calculus, mut positives_cq) = (0u64, 0u64, 0u64);
        for seed in 0..pairs {
            let (mut env, q, v) = random_pair(seed, params);
            let calc = checker.subsumes(&mut env.arena, q, v);
            let cq = contains(&concept_to_cq(&env.arena, q), &concept_to_cq(&env.arena, v));
            agreement += u64::from(calc == cq);
            positives_calculus += u64::from(calc);
            positives_cq += u64::from(cq);
        }
        let mut detected = 0u64;
        for seed in 0..pairs {
            let (mut env, q, v) = subsumed_pair(seed, params);
            detected += u64::from(checker.subsumes(&mut env.arena, q, v));
        }
        rows.push(
            Row::new("e7_agreement")
                .int("depth", depth)
                .int("pairs", pairs)
                .int("agreement", agreement)
                .int("positives_calculus", positives_calculus)
                .int("positives_cq", positives_cq)
                .int("detected", detected),
        );
    }
    rows
}

fn gate(rows: &[Row], _: Source, failures: &mut Vec<String>) -> Result<(), String> {
    for row in rows {
        let (depth, pairs) = (row.u64("depth")?, row.u64("pairs")?);
        for column in ["agreement", "detected"] {
            let count = row.u64(column)?;
            if count != pairs {
                failures.push(format!("depth {depth}: {column} {count} of {pairs} pairs"));
            }
        }
    }
    Ok(())
}
