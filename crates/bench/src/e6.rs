//! E6 — the tractability frontier of Section 4.4: the cost counters of
//! complete reasoning for the harmful extensions, next to the polynomial
//! core, for `n` ∈ 1..=10. The core column is the `view_growth` family of
//! E5; `∃P.A` filler demand (qualified against the SL approximation),
//! `P⁻¹` expansion individuals and `⊔` valuations are the extensions of
//! Propositions 4.10 and 4.12. Counters only.
//!
//! Bound (both sources): from each `n` to the next the core grows by a
//! constant while every extension column at least doubles. `check` re-runs
//! the table and compares every column exactly.

use crate::{Experiment, Row, Source};
use subq::calculus::SubsumptionChecker;
use subq::concepts::Vocabulary;
use subq::extensions::expansion::{
    expand_and_detect, filler_demand, inverse_chain, qualified_chain, unqualified_chain,
};
use subq::extensions::propositional::{independent_choices, prop_subsumes};
use subq::workload::scaling::view_growth_instance;

pub const EXPERIMENT: Experiment = Experiment {
    id: "e6",
    title: "the tractability frontier of Section 4.4",
    file: "BENCH_e6.json",
    rows: 10,
    table,
    live: None,
    counters: &[
        "n",
        "core_individuals",
        "core_examined",
        "qualified_filler_demand",
        "unqualified_filler_demand",
        "inverse_expansion_individuals",
        "disjunction_valuations",
    ],
    gate,
};

fn table() -> Vec<Row> {
    let mut rows = Vec::new();
    for n in 1..=10usize {
        let mut instance = view_growth_instance(n);
        let checker = SubsumptionChecker::new(&instance.schema);
        let outcome = checker.check(&mut instance.arena, instance.query, instance.view);
        assert!(outcome.subsumed());

        let (qschema, qroot) = qualified_chain(&mut Vocabulary::new(), n);
        let (uschema, uroot) = unqualified_chain(&mut Vocabulary::new(), n);
        let (ischema, iroot, itarget) = inverse_chain(&mut Vocabulary::new(), n);
        let expansion = expand_and_detect(&ischema, iroot, n);
        assert!(expansion.root_classes.contains(&itarget));
        let choices = independent_choices(&mut Vocabulary::new(), n);
        let prop = prop_subsumes(&choices, &choices).expect("propositional");

        rows.push(
            Row::new("e6_extension_blowup")
                .int("n", n)
                .int("core_individuals", outcome.stats.individuals)
                .int("core_examined", outcome.stats.constraints_examined)
                .int("qualified_filler_demand", filler_demand(&qschema, qroot, n))
                .int(
                    "unqualified_filler_demand",
                    filler_demand(&uschema, uroot, n),
                )
                .int(
                    "inverse_expansion_individuals",
                    expansion.individuals_created,
                )
                .int("disjunction_valuations", prop.valuations),
        );
    }
    rows
}

fn gate(rows: &[Row], _: Source, failures: &mut Vec<String>) -> Result<(), String> {
    for pair in rows.windows(2) {
        let n = pair[1].u64("n")?;
        if pair[1].u64("core_individuals")? != pair[0].u64("core_individuals")? + 1 {
            failures.push(format!("n={n}: the core did not grow by one individual"));
        }
        for column in [
            "qualified_filler_demand",
            "inverse_expansion_individuals",
            "disjunction_valuations",
        ] {
            if pair[1].u64(column)? < 2 * pair[0].u64(column)? {
                failures.push(format!("n={n}: `{column}` did not double"));
            }
        }
    }
    Ok(())
}
