//! Equivalence suite for the two-phase fact/goal split: for arbitrary
//! `(Σ, C, [D1..Dk])`, forking one saturated fact closure of `C` and
//! probing each view `Di` must be observationally identical — verdict,
//! clash, final fact and goal sets, outcome statistics — to a fresh
//! single-shot completion of `(C, Di)` and to the full-scan reference
//! engine, in any probe order, with forks independent of one another.

use proptest::prelude::*;
use subq_calculus::reference::ReferenceCompletion;
use subq_calculus::{
    Completion, Constraint, SaturatedFacts, SharedSubsumptionMemo, SubsumptionCache,
    SubsumptionChecker,
};
use subq_concepts::normalize::normalize_concept;
use subq_concepts::prelude::*;
use subq_workload::{RandomConceptParams, RandomEnv};

const N_CLASSES: usize = 4;
const N_ATTRS: usize = 3;
const N_CONSTS: usize = 2;

/// Concept description, including constants so the substitution rules D3
/// and S4 and both clash kinds are exercised (mirrors
/// `delta_equivalence.rs`).
#[derive(Clone, Debug)]
enum Desc {
    Prim(usize),
    Top,
    Singleton(usize),
    And(Box<Desc>, Box<Desc>),
    Exists(Vec<(usize, bool, Desc)>),
    Agree(Vec<(usize, bool, Desc)>, Vec<(usize, bool, Desc)>),
}

fn desc() -> impl Strategy<Value = Desc> {
    let leaf = prop_oneof![
        (0..N_CLASSES).prop_map(Desc::Prim),
        Just(Desc::Top),
        (0..N_CONSTS).prop_map(Desc::Singleton),
    ];
    leaf.prop_recursive(3, 20, 4, |inner| {
        let step = (0..N_ATTRS, any::<bool>(), inner.clone());
        let path = prop::collection::vec(step, 1..3);
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Desc::And(Box::new(a), Box::new(b))),
            path.clone().prop_map(Desc::Exists),
            (path.clone(), path).prop_map(|(p, q)| Desc::Agree(p, q)),
        ]
    })
}

#[derive(Clone, Debug)]
struct SchemaDesc {
    isa: Vec<(usize, usize)>,
    all: Vec<(usize, usize, usize)>,
    necessary: Vec<(usize, usize)>,
    functional: Vec<(usize, usize)>,
    typings: Vec<(usize, usize, usize)>,
}

fn schema_desc() -> impl Strategy<Value = SchemaDesc> {
    (
        prop::collection::vec((0..N_CLASSES, 0..N_CLASSES), 0..4),
        prop::collection::vec((0..N_CLASSES, 0..N_ATTRS, 0..N_CLASSES), 0..4),
        prop::collection::vec((0..N_CLASSES, 0..N_ATTRS), 0..3),
        prop::collection::vec((0..N_CLASSES, 0..N_ATTRS), 0..2),
        prop::collection::vec((0..N_ATTRS, 0..N_CLASSES, 0..N_CLASSES), 0..2),
    )
        .prop_map(|(isa, all, necessary, functional, typings)| SchemaDesc {
            isa,
            all,
            necessary,
            functional,
            typings,
        })
}

struct World {
    arena: TermArena,
    classes: Vec<ClassId>,
    attrs: Vec<AttrId>,
    consts: Vec<ConstId>,
}

fn world() -> World {
    let mut voc = Vocabulary::new();
    let classes = (0..N_CLASSES)
        .map(|i| voc.class(&format!("K{i}")))
        .collect();
    let attrs = (0..N_ATTRS)
        .map(|i| voc.attribute(&format!("r{i}")))
        .collect();
    let consts = (0..N_CONSTS)
        .map(|i| voc.constant(&format!("c{i}")))
        .collect();
    World {
        arena: TermArena::new(),
        classes,
        attrs,
        consts,
    }
}

fn intern(world: &mut World, d: &Desc) -> ConceptId {
    match d {
        Desc::Prim(i) => world.arena.prim(world.classes[*i]),
        Desc::Top => world.arena.top(),
        Desc::Singleton(i) => world.arena.singleton(world.consts[*i]),
        Desc::And(a, b) => {
            let l = intern(world, a);
            let r = intern(world, b);
            world.arena.and(l, r)
        }
        Desc::Exists(steps) => {
            let p = intern_path(world, steps);
            world.arena.exists(p)
        }
        Desc::Agree(p, q) => {
            let pp = intern_path(world, p);
            let qq = intern_path(world, q);
            world.arena.agree(pp, qq)
        }
    }
}

fn intern_path(world: &mut World, steps: &[(usize, bool, Desc)]) -> PathId {
    let interned: Vec<(Attr, ConceptId)> = steps
        .iter()
        .map(|(a, inv, d)| {
            let c = intern(world, d);
            let attr = if *inv {
                Attr::inverse_of(world.attrs[*a])
            } else {
                Attr::primitive(world.attrs[*a])
            };
            (attr, c)
        })
        .collect();
    world.arena.path_of(&interned)
}

fn build_schema(world: &World, d: &SchemaDesc) -> Schema {
    let mut schema = Schema::new();
    for (a, b) in &d.isa {
        schema.add_isa(world.classes[*a], world.classes[*b]);
    }
    for (a, p, b) in &d.all {
        schema.add_value_restriction(world.classes[*a], world.attrs[*p], world.classes[*b]);
    }
    for (a, p) in &d.necessary {
        schema.add_necessary(world.classes[*a], world.attrs[*p]);
    }
    for (a, p) in &d.functional {
        schema.add_functional(world.classes[*a], world.attrs[*p]);
    }
    for (p, a, b) in &d.typings {
        schema.add_attr_typing(world.attrs[*p], world.classes[*a], world.classes[*b]);
    }
    schema
}

/// Everything a completion exposes, collected for comparison.
#[derive(PartialEq, Debug)]
struct Observed {
    facts: Vec<Constraint>,
    goals: Vec<Constraint>,
    derived: bool,
    clash: Option<subq_calculus::engine::Clash>,
    outcome: subq_calculus::CompletionStats,
}

fn observe_probe(
    arena: &mut TermArena,
    schema: &Schema,
    base: &SaturatedFacts,
    normalized_view: ConceptId,
) -> Observed {
    let mut completion = Completion::resume(arena, schema, base, normalized_view);
    let stats = completion.run();
    assert!(
        stats.fact_phase_reused,
        "a resumed completion must report fact-phase reuse"
    );
    assert!(
        stats.probe_examined <= stats.constraints_examined,
        "probe work is a suffix of the total"
    );
    let mut facts: Vec<Constraint> = completion.facts().iter().copied().collect();
    let mut goals: Vec<Constraint> = completion.goals().iter().copied().collect();
    facts.sort();
    goals.sort();
    Observed {
        facts,
        goals,
        derived: completion.view_fact_derived(),
        clash: completion.find_clash(),
        outcome: stats.outcome_only(),
    }
}

fn observe_fresh(
    arena: &mut TermArena,
    schema: &Schema,
    normalized_query: ConceptId,
    normalized_view: ConceptId,
) -> Observed {
    let mut completion = Completion::new(arena, schema, normalized_query, normalized_view, false);
    let stats = completion.run();
    assert!(!stats.fact_phase_reused);
    assert_eq!(stats.probe_examined, 0);
    let mut facts: Vec<Constraint> = completion.facts().iter().copied().collect();
    let mut goals: Vec<Constraint> = completion.goals().iter().copied().collect();
    facts.sort();
    goals.sort();
    Observed {
        facts,
        goals,
        derived: completion.view_fact_derived(),
        clash: completion.find_clash(),
        outcome: stats.outcome_only(),
    }
}

fn observe_reference(
    arena: &mut TermArena,
    schema: &Schema,
    normalized_query: ConceptId,
    normalized_view: ConceptId,
) -> Observed {
    let mut completion =
        ReferenceCompletion::new(arena, schema, normalized_query, normalized_view, false);
    let stats = completion.run();
    let mut facts: Vec<Constraint> = completion.facts().iter().copied().collect();
    let mut goals: Vec<Constraint> = completion.goals().iter().copied().collect();
    facts.sort();
    goals.sort();
    Observed {
        facts,
        goals,
        derived: completion.view_fact_derived(),
        clash: completion.find_clash(),
        outcome: stats.outcome_only(),
    }
}

/// Saturates `query` once and checks that probing every view — forward,
/// reversed, and repeated — agrees with fresh single-shot completions and
/// with the full-scan reference engine.
fn assert_probes_agree(
    arena: &mut TermArena,
    schema: &Schema,
    query: ConceptId,
    views: &[ConceptId],
) -> Result<(), String> {
    let normalized_query = normalize_concept(arena, query);
    let normalized_views: Vec<ConceptId> = views
        .iter()
        .map(|&view| normalize_concept(arena, view))
        .collect();
    let base = SaturatedFacts::saturate(arena, schema, normalized_query);

    let forward: Vec<Observed> = normalized_views
        .iter()
        .map(|&view| observe_probe(arena, schema, &base, view))
        .collect();
    let backward: Vec<Observed> = normalized_views
        .iter()
        .rev()
        .map(|&view| observe_probe(arena, schema, &base, view))
        .collect();

    for (i, (&view, probe)) in normalized_views.iter().zip(&forward).enumerate() {
        // Forks are independent: probing in reverse order changes nothing.
        let again = &backward[normalized_views.len() - 1 - i];
        if probe != again {
            return Err(format!("probe {i} depends on probe order"));
        }
        let fresh = observe_fresh(arena, schema, normalized_query, view);
        if *probe != fresh {
            return Err(format!(
                "probe {i} diverges from the fresh single-shot completion: probe {probe:?} vs fresh {fresh:?}"
            ));
        }
        let reference = observe_reference(arena, schema, normalized_query, view);
        if *probe != reference {
            return Err(format!(
                "probe {i} diverges from the reference engine: probe {probe:?} vs reference {reference:?}"
            ));
        }
    }
    Ok(())
}

/// The checker's one cached path must agree with the uncached `check`
/// verdict-for-verdict, and saturate the query's facts exactly once for
/// all the views.
fn assert_checker_probe_agrees(
    arena: &mut TermArena,
    schema: &Schema,
    query: ConceptId,
    views: &[ConceptId],
) -> Result<(), String> {
    let checker = SubsumptionChecker::new(schema);
    let mut cache = SubsumptionCache::new();
    let no_memo = SharedSubsumptionMemo::new();
    for (i, &view) in views.iter().enumerate() {
        let direct = checker.check(arena, query, view).verdict;
        let cached = checker.probe(arena, query, view, &mut cache, &no_memo, 0);
        if cached != direct {
            return Err(format!(
                "verdicts diverge on view {i}: direct {direct:?}, cached {cached:?}"
            ));
        }
    }
    match cache.saturation_stats() {
        (1, _) => Ok(()),
        (saturations, _) => Err(format!(
            "{saturations} fact saturations for {} views",
            views.len()
        )),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline property: saturate once, probe many — equivalent to
    /// fresh per-pair completions on arbitrary inputs, in any order.
    #[test]
    fn probe_equals_fresh_and_reference_on_random_inputs(
        c in desc(),
        ds in prop::collection::vec(desc(), 1..4),
        s in schema_desc(),
    ) {
        let mut w = world();
        let query = intern(&mut w, &c);
        let views: Vec<ConceptId> = ds.iter().map(|d| intern(&mut w, d)).collect();
        let schema = build_schema(&w, &s);
        if let Err(msg) = assert_probes_agree(&mut w.arena, &schema, query, &views) {
            prop_assert!(false, "{} on query {:?} / views {:?} / schema {:?}", msg, c, ds, s);
        }
        if let Err(msg) = assert_checker_probe_agrees(&mut w.arena, &schema, query, &views) {
            prop_assert!(false, "{} on query {:?} / views {:?} / schema {:?}", msg, c, ds, s);
        }
    }
}

/// The same equivalence over the seeded `workload` generators the benches
/// use: per seed, one query probed against three drawn views.
#[test]
fn probe_equals_fresh_on_workload_instances() {
    for seed in 0..100u64 {
        let mut env = RandomEnv::new(seed, RandomConceptParams::default());
        let query = env.concept();
        let views = [env.concept(), env.concept(), env.concept()];
        let schema = Schema::new();
        assert_probes_agree(&mut env.arena, &schema, query, &views)
            .unwrap_or_else(|msg| panic!("workload seed {seed}: {msg}"));
    }
}

/// Subsumed-by-construction pairs flow through the probe path with the
/// expected verdict.
#[test]
fn probe_confirms_constructed_subsumptions() {
    for seed in 0..100u64 {
        let mut env = RandomEnv::new(seed, RandomConceptParams::default());
        let (query, view) = env.subsumed_pair();
        let schema = Schema::new();
        let normalized_query = normalize_concept(&mut env.arena, query);
        let normalized_view = normalize_concept(&mut env.arena, view);
        let base = SaturatedFacts::saturate(&mut env.arena, &schema, normalized_query);
        // `observe_probe` asserts the fork reported fact-phase reuse.
        let probe = observe_probe(&mut env.arena, &schema, &base, normalized_view);
        assert!(
            probe.derived || probe.clash.is_some(),
            "constructed subsumption must hold (seed {seed})"
        );
    }
}
