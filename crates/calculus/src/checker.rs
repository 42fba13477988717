//! The public subsumption checking API.
//!
//! [`SubsumptionChecker`] wraps the completion engine into the decision
//! procedure of Theorem 4.7: `C ⊑_Σ D` iff the completed facts contain
//! `o : D` or a clash. There are two ways to ask it:
//!
//! * **uncached** — [`SubsumptionChecker::subsumes`],
//!   [`SubsumptionChecker::check`] and
//!   [`SubsumptionChecker::check_with_trace`] normalize path agreements,
//!   run one full completion, and report the verdict together with
//!   statistics and (on request) the full derivation trace;
//! * **cached** — [`SubsumptionChecker::probe`], the one path the query
//!   optimizer asks through. It splits the check into two phases: the
//!   fact-side closure of the query depends only on the schema and the
//!   query and is saturated once ([`SaturatedFacts`]); each view forks that
//!   closure and runs only the goal-side rules. A caller's private
//!   [`SubsumptionCache`] keeps normalizations, verdicts and the retained
//!   closures, and a [`SharedSubsumptionMemo`] shares verdicts between the
//!   callers of one schema epoch: a repeated `(query, view)` pair skips the
//!   probe entirely, and a *fresh* pair for an already-saturated query
//!   skips the fact saturation.

use crate::engine::{Completion, CompletionStats, SaturatedFacts};
use crate::trace::DerivationTrace;
use fxhash::{FxHashMap, FxHasher};
use std::collections::VecDeque;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use subq_concepts::normalize::normalize_concept;
use subq_concepts::schema::Schema;
use subq_concepts::term::{ConceptId, TermArena};

/// How a subsumption was established (or refuted).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubsumptionVerdict {
    /// The completed facts contain the constraint `o : D`.
    SubsumedByFact,
    /// The completed facts contain a clash, so the query is unsatisfiable
    /// with respect to Σ and therefore subsumed by every concept.
    SubsumedByClash,
    /// Neither holds: the canonical interpretation is a counter-model.
    NotSubsumed,
}

impl SubsumptionVerdict {
    /// Whether the verdict means the subsumption holds.
    pub fn holds(self) -> bool {
        !matches!(self, SubsumptionVerdict::NotSubsumed)
    }
}

/// The result of an uncached subsumption check.
#[derive(Clone, Debug)]
pub struct SubsumptionOutcome {
    /// The verdict.
    pub verdict: SubsumptionVerdict,
    /// Statistics of the completion run.
    pub stats: CompletionStats,
    /// The normalized query concept that was actually checked.
    pub normalized_query: ConceptId,
    /// The normalized view concept that was actually checked.
    pub normalized_view: ConceptId,
    /// The derivation trace, when requested.
    pub trace: Option<DerivationTrace>,
}

impl SubsumptionOutcome {
    /// Whether the subsumption holds.
    pub fn subsumed(&self) -> bool {
        self.verdict.holds()
    }

    /// Whether the subsumption was established through a clash
    /// (unsatisfiable query).
    pub fn via_clash(&self) -> bool {
        self.verdict == SubsumptionVerdict::SubsumedByClash
    }
}

/// `(normalized query, normalized view) → verdict`.
type VerdictMap = FxHashMap<(ConceptId, ConceptId), SubsumptionVerdict>;

/// A caller's private memo tables for [`SubsumptionChecker::probe`] over
/// one arena and schema.
///
/// Hash-consing makes `ConceptId` equality coincide with structural
/// equality, so the verdict of a check is fully determined by the pair of
/// *normalized* concept identifiers (for a fixed schema). The cache
/// exploits that twice:
///
/// * `concept → normalized concept`, so a query probed against N views
///   pays for one normalization pass instead of N, and a view probed by
///   every incoming query is normalized once ever;
/// * `(normalized query, normalized view) → verdict`, so the whole
///   saturation is skipped on a repeat probe — the usage pattern of the
///   query optimizer, which tests every incoming query against every
///   materialized view.
///
/// A third level keeps the fork-able fact closures: `normalized query →
/// SaturatedFacts`, capped at
/// [`SubsumptionCache::SATURATED_QUERIES_CAP`] entries with
/// **least-recently-used** eviction, so a *fresh* `(query, view)` pair
/// pays only a goal-side probe when the query was saturated before (the
/// first plan against N views: one saturation, N probes) — and hot query
/// shapes keep their closures even when a churny stream of one-off queries
/// rolls through the cache.
///
/// Only the closure level has a cap of its own; the other two grow with
/// the concepts interned in the arena they key into. Their bound is the
/// owner's: a cache is only meaningful for the `(TermArena, Schema)` pair
/// it was populated with, so whoever rolls the arena back (a
/// `subq_oodb::Reader` past its private-concept budget) or re-translates
/// the schema clears the cache with it.
#[derive(Clone, Debug, Default)]
pub struct SubsumptionCache {
    normalized: FxHashMap<ConceptId, ConceptId>,
    outcomes: VerdictMap,
    saturated: FxHashMap<ConceptId, SaturatedFacts>,
    /// Recency queue over `saturated`: front = least recently used.
    saturated_order: VecDeque<ConceptId>,
    hits: u64,
    misses: u64,
    fact_saturations: u64,
    saturation_evictions: u64,
}

impl SubsumptionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SubsumptionCache::default()
    }

    /// Number of cached `(query, view)` verdicts.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether no verdict has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Most saturated fact closures retained at once; the **least
    /// recently used** is evicted first, so hot query shapes survive
    /// churny streams of one-off queries. Repeat `(query, view)` pairs
    /// are unaffected (they hit the verdict level), so the cap only
    /// bounds memory for streams of many *distinct* queries.
    pub const SATURATED_QUERIES_CAP: usize = 64;

    /// `(hits, misses)` counters over the cache's lifetime.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// `(fact saturations, goal probes)` run on behalf of this cache over
    /// its lifetime. Every miss is one probe; saturations count only the
    /// fact closures that could not be reused.
    pub fn saturation_stats(&self) -> (u64, u64) {
        (self.fact_saturations, self.misses)
    }

    /// Number of saturated queries currently retained.
    pub fn saturated_len(&self) -> usize {
        self.saturated.len()
    }

    /// Number of saturated fact closures evicted over the cache's
    /// lifetime (LRU order — see
    /// [`SubsumptionCache::SATURATED_QUERIES_CAP`]).
    pub fn saturation_evictions(&self) -> u64 {
        self.saturation_evictions
    }

    /// Drops all cached verdicts, normalizations and saturated queries
    /// (keeps the counters).
    pub fn clear(&mut self) {
        self.normalized.clear();
        self.outcomes.clear();
        self.saturated.clear();
        self.saturated_order.clear();
    }

    /// The memoized normalization of `concept`.
    fn normalize(&mut self, arena: &mut TermArena, concept: ConceptId) -> ConceptId {
        if let Some(&normalized) = self.normalized.get(&concept) {
            return normalized;
        }
        let normalized = normalize_concept(arena, concept);
        self.normalized.insert(concept, normalized);
        // Normalization is idempotent; remember that too so probing with
        // an already-normalized concept also hits.
        self.normalized.insert(normalized, normalized);
        normalized
    }

    /// The retained fact closure of `query`: touched in the recency queue
    /// when present (O(cap), and the cap is small), otherwise saturated
    /// and retained, evicting the least recently used entry once the cap
    /// is reached.
    fn saturated(
        &mut self,
        arena: &mut TermArena,
        schema: &Schema,
        query: ConceptId,
    ) -> &SaturatedFacts {
        if self.saturated.contains_key(&query) {
            if let Some(pos) = self.saturated_order.iter().position(|&q| q == query) {
                self.saturated_order.remove(pos);
            }
        } else {
            if self.saturated.len() >= Self::SATURATED_QUERIES_CAP {
                if let Some(coldest) = self.saturated_order.pop_front() {
                    self.saturated.remove(&coldest);
                    self.saturation_evictions += 1;
                    crate::metrics::metrics().saturation_evictions.inc();
                }
            }
            let base = SaturatedFacts::saturate(arena, schema, query);
            self.saturated.insert(query, base);
            self.fact_saturations += 1;
            crate::metrics::metrics().fact_saturations.inc();
        }
        self.saturated_order.push_back(query);
        &self.saturated[&query]
    }
}

/// Number of independently locked shards of a [`SharedSubsumptionMemo`].
const MEMO_SHARDS: usize = 16;

/// A thread-safe subsumption memo shared by concurrent readers of one
/// optimized database: the verdict level of a [`SubsumptionCache`],
/// sharded over [`MEMO_SHARDS`] RwLocks so readers on different cores
/// rarely contend, with atomic hit/miss counters.
///
/// # Which concept ids may enter the memo
///
/// `ConceptId`s are arena indexes. Readers work on *clones* of a
/// published arena and intern fresh concepts locally, so an id is
/// meaningful across threads only while it lies **below the published
/// arena's concept count** (the arena is append-only and hash-consed, so
/// the shared prefix denotes the same terms in every clone). Callers pass
/// that bound to [`SubsumptionChecker::probe`]; pairs with a locally
/// interned id stay in the caller's private cache.
///
/// # Size
///
/// There is no cap: only pairs below the published concept count are
/// admitted, so one memo holds at most (published concepts)² verdicts,
/// and it grows only when the single writer interns. A memo is only
/// meaningful for one schema epoch — discard it (as
/// `subq_oodb::OptimizedDatabase` does) whenever the schema is
/// re-translated.
#[derive(Debug)]
pub struct SharedSubsumptionMemo {
    shards: [RwLock<VerdictMap>; MEMO_SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for SharedSubsumptionMemo {
    fn default() -> Self {
        SharedSubsumptionMemo {
            shards: std::array::from_fn(|_| RwLock::new(FxHashMap::default())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl SharedSubsumptionMemo {
    /// Creates an empty memo.
    pub fn new() -> Self {
        SharedSubsumptionMemo::default()
    }

    fn shard(&self, key: (ConceptId, ConceptId)) -> &RwLock<VerdictMap> {
        let mut hasher = FxHasher::default();
        hasher.write_u64(((key.0.index() as u64) << 32) | key.1.index() as u64);
        &self.shards[(hasher.finish() as usize) % MEMO_SHARDS]
    }

    fn get(&self, key: (ConceptId, ConceptId)) -> Option<SubsumptionVerdict> {
        let found = self
            .shard(key)
            .read()
            .expect("shared memo shard poisoned")
            .get(&key)
            .copied();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    fn insert(&self, key: (ConceptId, ConceptId), verdict: SubsumptionVerdict) {
        self.shard(key)
            .write()
            .expect("shared memo shard poisoned")
            .insert(key, verdict);
    }

    /// `(hits, misses)` of the shared level over its lifetime.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of memoized `(query, view)` verdicts.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("shared memo shard poisoned").len())
            .sum()
    }

    /// Whether no verdict has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A clash means the query is Σ-unsatisfiable and hence subsumed by every
/// concept; check it first so `SubsumedByClash` doubles as an
/// unsatisfiability signal even when the view fact also happens to be
/// derivable.
fn completion_verdict(completion: &Completion<'_>) -> SubsumptionVerdict {
    if completion.find_clash().is_some() {
        SubsumptionVerdict::SubsumedByClash
    } else if completion.view_fact_derived() {
        SubsumptionVerdict::SubsumedByFact
    } else {
        SubsumptionVerdict::NotSubsumed
    }
}

/// A Σ-subsumption checker for QL concepts.
///
/// The checker is cheap to construct and borrows the schema; one checker
/// can serve many queries against many views, which is exactly the usage
/// pattern of the query optimizer described in the paper (test each
/// incoming query against every materialized view).
#[derive(Clone, Copy, Debug)]
pub struct SubsumptionChecker<'a> {
    schema: &'a Schema,
}

impl<'a> SubsumptionChecker<'a> {
    /// Creates a checker for the given schema.
    pub fn new(schema: &'a Schema) -> Self {
        SubsumptionChecker { schema }
    }

    /// The schema this checker reasons with respect to.
    pub fn schema(&self) -> &Schema {
        self.schema
    }

    /// Decides `sub ⊑_Σ sup`.
    pub fn subsumes(&self, arena: &mut TermArena, sub: ConceptId, sup: ConceptId) -> bool {
        self.run(arena, sub, sup, false).subsumed()
    }

    /// Decides `sub ⊑_Σ sup` and returns the full outcome (verdict,
    /// statistics, normalized concepts).
    pub fn check(
        &self,
        arena: &mut TermArena,
        sub: ConceptId,
        sup: ConceptId,
    ) -> SubsumptionOutcome {
        self.run(arena, sub, sup, false)
    }

    /// Like [`SubsumptionChecker::check`] but also records the derivation
    /// trace (Figure 11 style).
    pub fn check_with_trace(
        &self,
        arena: &mut TermArena,
        sub: ConceptId,
        sup: ConceptId,
    ) -> SubsumptionOutcome {
        self.run(arena, sub, sup, true)
    }

    /// Decides `sub ⊑_Σ sup` through the caller's private `cache` and the
    /// `shared` memo — the one cached path. The normalizations of both
    /// concepts are memoized. The pair's verdict is looked up in `cache`,
    /// then in `shared` (a shared hit counts as a private hit too, so
    /// per-caller counters keep their meaning). A full miss forks the
    /// query's retained fact closure (saturating it first if absent), runs
    /// the goal-side probe, and memoizes the verdict in `cache` — and in
    /// `shared` **only** when both normalized ids lie below
    /// `shared_bound`, the published arena's concept count (ids at or
    /// above it were interned locally by this caller and mean nothing to
    /// other arenas). Pass `usize::MAX` when the arena *is* the published
    /// one (the single writer), and an empty memo with bound 0 when there
    /// is no shared tier.
    pub fn probe(
        &self,
        arena: &mut TermArena,
        sub: ConceptId,
        sup: ConceptId,
        cache: &mut SubsumptionCache,
        shared: &SharedSubsumptionMemo,
        shared_bound: usize,
    ) -> SubsumptionVerdict {
        let metrics = crate::metrics::metrics();
        let key = (cache.normalize(arena, sub), cache.normalize(arena, sup));
        let shareable = key.0.index() < shared_bound && key.1.index() < shared_bound;
        let known = cache.outcomes.get(&key).copied().or_else(|| {
            let verdict = shareable.then(|| shared.get(key)).flatten()?;
            cache.outcomes.insert(key, verdict);
            Some(verdict)
        });
        if let Some(verdict) = known {
            cache.hits += 1;
            metrics.cache_hits.inc();
            return verdict;
        }
        cache.misses += 1;
        metrics.cache_misses.inc();
        metrics.probes.inc();
        let base = cache.saturated(arena, self.schema, key.0);
        let mut completion = Completion::resume(arena, self.schema, base, key.1);
        let stats = completion.run();
        let verdict = completion_verdict(&completion);
        metrics
            .rule_applications
            .add(stats.rule_applications as u64);
        metrics
            .constraints_examined
            .add(stats.constraints_examined as u64);
        cache.outcomes.insert(key, verdict);
        if shareable {
            shared.insert(key, verdict);
        }
        verdict
    }

    fn run(
        &self,
        arena: &mut TermArena,
        sub: ConceptId,
        sup: ConceptId,
        record_trace: bool,
    ) -> SubsumptionOutcome {
        let normalized_query = normalize_concept(arena, sub);
        let normalized_view = normalize_concept(arena, sup);
        let mut completion = Completion::new(
            arena,
            self.schema,
            normalized_query,
            normalized_view,
            record_trace,
        );
        let stats = completion.run();
        SubsumptionOutcome {
            verdict: completion_verdict(&completion),
            stats,
            normalized_query,
            normalized_view,
            trace: completion.trace().cloned(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subq_concepts::attribute::Attr;
    use subq_concepts::symbol::Vocabulary;

    struct Medical {
        voc: Vocabulary,
        arena: TermArena,
        schema: Schema,
        query: ConceptId,
        view: ConceptId,
    }

    /// The running example of the paper: the medical schema of Figure 6 and
    /// the concepts C_Q / D_V of Section 3.2.
    fn medical_example() -> Medical {
        let mut voc = Vocabulary::new();
        let patient = voc.class("Patient");
        let person = voc.class("Person");
        let doctor = voc.class("Doctor");
        let disease = voc.class("Disease");
        let drug = voc.class("Drug");
        let string = voc.class("String");
        let topic = voc.class("Topic");
        let male = voc.class("Male");
        let female = voc.class("Female");
        let takes = voc.attribute("takes");
        let consults = voc.attribute("consults");
        let suffers = voc.attribute("suffers");
        let name = voc.attribute("name");
        let skilled_in = voc.attribute("skilled_in");

        let mut schema = Schema::new();
        schema.add_isa(patient, person);
        schema.add_value_restriction(patient, takes, drug);
        schema.add_value_restriction(patient, consults, doctor);
        schema.add_value_restriction(patient, suffers, disease);
        schema.add_necessary(patient, suffers);
        schema.add_value_restriction(person, name, string);
        schema.add_necessary(person, name);
        schema.add_functional(person, name);
        schema.add_value_restriction(doctor, skilled_in, disease);
        schema.add_attr_typing(skilled_in, person, topic);

        let mut arena = TermArena::new();
        // C_Q = Male ⊓ Patient ⊓
        //       ∃(consults: Female) ≐ (suffers: ⊤)(skilled_in⁻¹: Doctor)
        let male_c = arena.prim(male);
        let patient_c = arena.prim(patient);
        let female_c = arena.prim(female);
        let doctor_c = arena.prim(doctor);
        let top = arena.top();
        let p = arena.path1(Attr::primitive(consults), female_c);
        let q = arena.path_of(&[
            (Attr::primitive(suffers), top),
            (Attr::inverse_of(skilled_in), doctor_c),
        ]);
        let agree = arena.agree(p, q);
        let query = arena.and_all([male_c, patient_c, agree]);

        // D_V = Patient ⊓ ∃(name: String) ⊓
        //       ∃(consults: Doctor)(skilled_in: Disease) ≐ (suffers: Disease)
        let string_c = arena.prim(string);
        let disease_c = arena.prim(disease);
        let name_path = arena.path1(Attr::primitive(name), string_c);
        let has_name = arena.exists(name_path);
        let vp = arena.path_of(&[
            (Attr::primitive(consults), doctor_c),
            (Attr::primitive(skilled_in), disease_c),
        ]);
        let vq = arena.path1(Attr::primitive(suffers), disease_c);
        let vagree = arena.agree(vp, vq);
        let view = arena.and_all([patient_c, has_name, vagree]);

        Medical {
            voc,
            arena,
            schema,
            query,
            view,
        }
    }

    /// The headline result of the worked example: C_Q ⊑_Σ D_V (Figure 11),
    /// while the converse fails.
    #[test]
    fn paper_example_subsumption_holds_one_way() {
        let mut m = medical_example();
        let checker = SubsumptionChecker::new(&m.schema);
        let outcome = checker.check_with_trace(&mut m.arena, m.query, m.view);
        assert_eq!(outcome.verdict, SubsumptionVerdict::SubsumedByFact);
        let trace = outcome.trace.as_ref().expect("trace requested");
        assert!(!trace.is_empty());
        // The derivation must use the schema: the necessary-name filler is
        // created by S5 and the inverse-attribute reasoning by D2.
        assert!(trace.count_rule(crate::rules::RuleId::S5) >= 1);
        assert!(trace.count_rule(crate::rules::RuleId::D2) >= 1);
        assert!(trace.count_rule(crate::rules::RuleId::C5) >= 1);

        let reverse = checker.check(&mut m.arena, m.view, m.query);
        assert_eq!(reverse.verdict, SubsumptionVerdict::NotSubsumed);
    }

    /// The trace renders in the style of Figure 11 and mentions the
    /// individuals and concepts of the example.
    #[test]
    fn paper_example_trace_renders() {
        let mut m = medical_example();
        let checker = SubsumptionChecker::new(&m.schema);
        let outcome = checker.check_with_trace(&mut m.arena, m.query, m.view);
        let trace = outcome.trace.expect("trace requested");
        let rendered = trace.render(&m.voc, &m.arena);
        assert!(rendered.contains("[D1]"));
        assert!(rendered.contains("[S1]"));
        assert!(rendered.contains("x: Person"));
        assert!(rendered.contains("consults"));
    }

    /// Subsumption without the schema fails: the schema information is what
    /// makes the example work (inverse of skilled_in, necessary name,
    /// suffers typing).
    #[test]
    fn paper_example_needs_the_schema() {
        let mut m = medical_example();
        let empty = Schema::new();
        let checker = SubsumptionChecker::new(&empty);
        assert!(!checker.subsumes(&mut m.arena, m.query, m.view));
    }

    /// Basic algebraic sanity: reflexivity, ⊤ as greatest element, and the
    /// conjunct-projection `C ⊓ D ⊑ C`.
    #[test]
    fn algebraic_properties() {
        let mut m = medical_example();
        let checker = SubsumptionChecker::new(&m.schema);
        let top = m.arena.top();
        assert!(checker.subsumes(&mut m.arena, m.query, m.query));
        assert!(checker.subsumes(&mut m.arena, m.view, m.view));
        assert!(checker.subsumes(&mut m.arena, m.query, top));
        assert!(!checker.subsumes(&mut m.arena, top, m.query));

        let patient = m.voc.find_class("Patient").expect("interned");
        let patient_c = m.arena.prim(patient);
        assert!(checker.subsumes(&mut m.arena, m.query, patient_c));
        assert!(!checker.subsumes(&mut m.arena, patient_c, m.query));
    }

    /// Unsatisfiability detection through singleton clashes.
    #[test]
    fn unsatisfiable_concepts_are_subsumed_by_everything() {
        let mut voc = Vocabulary::new();
        let a = voc.constant("a");
        let b = voc.constant("b");
        let thing = voc.class("Thing");
        let schema = Schema::new();
        let mut arena = TermArena::new();
        let sa = arena.singleton(a);
        let sb = arena.singleton(b);
        let both = arena.and(sa, sb);
        let thing_c = arena.prim(thing);
        let top = arena.top();
        let checker = SubsumptionChecker::new(&schema);
        assert!(checker.check(&mut arena, both, top).via_clash());
        let outcome = checker.check(&mut arena, both, thing_c);
        assert_eq!(outcome.verdict, SubsumptionVerdict::SubsumedByClash);
        assert!(!checker.check(&mut arena, thing_c, top).via_clash());
    }

    /// Equivalence is mutual subsumption; `C ⊓ ⊤` is equivalent to `C`.
    #[test]
    fn equivalence_modulo_top() {
        let mut m = medical_example();
        let checker = SubsumptionChecker::new(&m.schema);
        let top = m.arena.top();
        let query_and_top = m.arena.and(m.query, top);
        assert!(checker.subsumes(&mut m.arena, m.query, query_and_top));
        assert!(checker.subsumes(&mut m.arena, query_and_top, m.query));
        assert!(!checker.subsumes(&mut m.arena, m.view, m.query));
    }

    /// The cache memoizes verdicts: a repeated probe is a lookup, the
    /// verdicts agree with the uncached path (clash included), and N
    /// fresh views cost one fact saturation of the query.
    #[test]
    fn cached_checks_agree_and_hit() {
        let mut m = medical_example();
        let checker = SubsumptionChecker::new(&m.schema);
        let mut cache = SubsumptionCache::new();
        let no_memo = SharedSubsumptionMemo::new();
        let patient = m.voc.find_class("Patient").expect("interned");
        let patient_c = m.arena.prim(patient);
        let views = [m.view, patient_c, m.query];

        let uncached: Vec<SubsumptionVerdict> = views
            .iter()
            .map(|&v| checker.check(&mut m.arena, m.query, v).verdict)
            .collect();
        let probe_all = |arena: &mut TermArena, cache: &mut SubsumptionCache| {
            views
                .iter()
                .map(|&v| checker.probe(arena, m.query, v, cache, &no_memo, 0))
                .collect::<Vec<_>>()
        };
        assert_eq!(probe_all(&mut m.arena, &mut cache), uncached);
        assert_eq!(cache.stats(), (0, 3));
        assert_eq!(cache.saturation_stats(), (1, 3));

        // Second round: all hits, same verdicts, no new verdicts.
        assert_eq!(probe_all(&mut m.arena, &mut cache), uncached);
        assert_eq!(cache.stats(), (3, 3));
        assert_eq!(cache.saturation_stats(), (1, 3));
        assert_eq!(cache.len(), 3);
        assert!(no_memo.is_empty(), "bound 0 publishes nothing");
        assert_eq!(no_memo.stats(), (0, 0), "bound 0 never consults the memo");

        cache.clear();
        assert!(cache.is_empty());
    }

    /// The saturation level evicts **least-recently-used** closures: a
    /// query shape kept hot by repeated probes survives a churny stream
    /// of `CAP` one-off queries that would have rolled it out under the
    /// old FIFO policy, and the eviction counter accounts for exactly the
    /// cold entries dropped.
    #[test]
    fn saturation_cache_evicts_least_recently_used() {
        let mut voc = Vocabulary::new();
        let schema = Schema::new();
        let mut arena = TermArena::new();
        let checker = SubsumptionChecker::new(&schema);
        let mut cache = SubsumptionCache::new();
        let no_memo = SharedSubsumptionMemo::new();
        let top = arena.top();
        let cap = SubsumptionCache::SATURATED_QUERIES_CAP;

        // The hot query, saturated once.
        let hot = arena.prim(voc.class("Hot"));
        assert!(checker
            .probe(&mut arena, hot, top, &mut cache, &no_memo, 0)
            .holds());
        assert_eq!(cache.saturation_stats().0, 1);

        // A churny stream of `cap` distinct one-off queries, the hot
        // query re-probed (against a fresh view, so the outcome level
        // does not short-circuit the closure reuse) between every few.
        let mut churn_saturations = 0;
        for i in 0..cap {
            let cold = arena.prim(voc.class(&format!("Cold{i}")));
            assert!(checker
                .probe(&mut arena, cold, top, &mut cache, &no_memo, 0)
                .holds());
            churn_saturations += 1;
            if i % 8 == 0 {
                let view = arena.prim(voc.class(&format!("View{i}")));
                let before = cache.saturation_stats().0;
                checker.probe(&mut arena, hot, view, &mut cache, &no_memo, 0);
                assert_eq!(
                    cache.saturation_stats().0,
                    before,
                    "touching the hot query must reuse its closure"
                );
            }
        }

        // Under FIFO the hot query (the oldest insertion) would be gone;
        // under LRU it survived the whole stream.
        let view = arena.prim(voc.class("FinalView"));
        let before = cache.saturation_stats().0;
        checker.probe(&mut arena, hot, view, &mut cache, &no_memo, 0);
        assert_eq!(
            cache.saturation_stats().0,
            before,
            "the hot closure must still be retained after {cap} churny queries"
        );
        // 1 hot + `cap` churn saturations into a `cap`-slot cache: the
        // overflow is exactly the eviction count, and every eviction hit
        // a cold entry.
        assert_eq!(cache.saturated_len(), cap);
        assert_eq!(
            cache.saturation_evictions(),
            (1 + churn_saturations - cap) as u64
        );
    }

    /// The shared memo agrees with the private path, counts hits and
    /// misses, and refuses pairs above the shared bound (locally interned
    /// concepts stay private).
    #[test]
    fn shared_memo_agrees_and_respects_the_bound() {
        let mut m = medical_example();
        let checker = SubsumptionChecker::new(&m.schema);
        let shared = SharedSubsumptionMemo::new();
        assert!(shared.is_empty());

        // Warm the base arena first (normalization interns the normal
        // forms), as the single writer does before publishing a snapshot;
        // only then do the "readers" clone it.
        let expect = checker.subsumes(&mut m.arena, m.query, m.view);
        let mut arena_a = m.arena.clone();
        let mut arena_b = m.arena.clone();
        let bound = m.arena.concept_count();
        let mut cache_a = SubsumptionCache::new();
        let mut cache_b = SubsumptionCache::new();
        let a = checker.probe(&mut arena_a, m.query, m.view, &mut cache_a, &shared, bound);
        assert_eq!(a.holds(), expect);
        let published = shared.len();
        assert!(published >= 1, "verdict must be published");

        // The second reader answers from the memo: no new saturation.
        let b = checker.probe(&mut arena_b, m.query, m.view, &mut cache_b, &shared, bound);
        assert_eq!(b.holds(), expect);
        assert_eq!(cache_b.saturation_stats(), (0, 0));
        assert_eq!(shared.len(), published);
        let (hits, _) = shared.stats();
        assert!(hits >= 1);

        // A pair involving a locally interned concept stays private.
        let local = arena_b.and(m.query, m.view);
        assert!(local.index() >= bound, "freshly interned above the bound");
        checker.probe(&mut arena_b, local, m.view, &mut cache_b, &shared, bound);
        assert_eq!(shared.len(), published, "local pair must not be published");
        // …but is still memoized privately: a repeat is a hit.
        let (hits_before, misses_before) = cache_b.stats();
        checker.probe(&mut arena_b, local, m.view, &mut cache_b, &shared, bound);
        assert_eq!(cache_b.stats(), (hits_before + 1, misses_before));
    }

    /// The outcome reports completion statistics compatible with the
    /// polynomial bound.
    #[test]
    fn stats_are_reported_and_bounded() {
        let mut m = medical_example();
        let checker = SubsumptionChecker::new(&m.schema);
        let outcome = checker.check(&mut m.arena, m.query, m.view);
        let msize = m.arena.concept_size(outcome.normalized_query);
        let nsize = m.arena.concept_size(outcome.normalized_view);
        assert!(outcome.stats.individuals >= 2);
        assert!(
            outcome.stats.individuals <= msize * nsize + 1,
            "individuals {} exceed M·N = {}·{}",
            outcome.stats.individuals,
            msize,
            nsize
        );
        assert!(outcome.stats.rule_applications > 0);
        assert!(outcome.stats.facts >= outcome.stats.goals);
    }
}
