//! The one query path: planning, execution and `EXPLAIN`.
//!
//! This is the procedure sketched in Sections 1 and 3.2 of the paper:
//! "instead of just employing conventional compilation techniques …, a
//! subsumption checker tests whether an incoming query is subsumed by one
//! of the views currently materialized in the database. The system modifies
//! the query evaluation plans by adding access operations to the stored
//! extensions of subsuming views, thus restricting the search space."
//!
//! It is implemented exactly once, over a borrowed `PlanContext`:
//! translate the query class into its QL concept, find the materialized
//! views that subsume it by traversing the catalog's subsumption lattice
//! from its roots (`PlanContext::plan` — a failed probe prunes every
//! strictly more specific view below it), pick the subsuming frontier
//! member that is cheapest to filter (`PlanContext::choose_frontier`),
//! and evaluate the query's full membership condition only over that
//! view's narrowed extension (`PlanContext::execute`). Soundness rests
//! on Proposition 3.1: Σ-subsumption of the structural abstractions
//! implies containment of the answer sets in every database state.
//!
//! Two callers build the context, and they differ only in where its
//! parts come from:
//!
//! * the **writer** ([`OptimizedDatabase`]) lends its live state — the
//!   catalog under its read guard, its own translation and subsumption
//!   cache, and an unbounded memo bound (its arena is the canonical one) —
//!   after its two writer-only preludes (classifying pending views,
//!   refreshing stale extensions);
//! * a **[`Reader`]** lends its pinned [`Snapshot`](crate::Snapshot) and
//!   its private arena and cache.
//!
//! Every public `plan` / `execute` / `explain` on either type is a short
//! delegation into this module. The flat linear scan
//! (`PlanContext::plan_flat`) is kept beside the traversal as the
//! reference whose answers it must reproduce on the maximal-specific
//! frontier (`tests/lattice_equivalence.rs`) and the baseline of
//! experiment E9.

use crate::advisor::{normalize_shape, ShapeEvent, ShapeRing};
use crate::eval::{evaluate_query_over, initial_candidates};
use crate::stats::CostModel;
use crate::store::{Database, ObjId};
use crate::views::{lattice_depth, traverse_lattice, MaterializedView, TraversalTrace};
use std::collections::BTreeSet;
use std::sync::Arc;
use subq_calculus::{SharedSubsumptionMemo, SubsumptionCache, SubsumptionChecker};
use subq_concepts::schema::Schema;
use subq_concepts::symbol::Vocabulary;
use subq_concepts::term::{ConceptId, TermArena};
use subq_dl::QueryClassDecl;
use subq_telemetry::Histogram;
use subq_translate::translate_query;

#[cfg(doc)]
use crate::{optimizer::OptimizedDatabase, snapshot::Reader};

/// The plan chosen for a query.
#[derive(Clone, Debug, Default)]
pub struct QueryPlan {
    /// The subsuming views the planner reports. For [`OptimizedDatabase::plan`]
    /// this is the **maximal-specific frontier** — subsuming views with no
    /// strictly more specific subsuming view below them (plus Σ-equivalent
    /// peers); for [`OptimizedDatabase::plan_flat`] it is every subsuming
    /// view. Both are sorted by extent size, smallest first.
    pub subsuming_views: Vec<String>,
    /// The subsuming view with the smallest stored extension, if any. This
    /// is the *planner's* summary, not necessarily the view `execute`
    /// filters: the executor compares the whole frontier by estimated
    /// filter cost after narrowing (`PlanContext::choose_frontier`), and
    /// its pick — reported as [`ExecutionStats::used_view`] and
    /// [`ExplainReport::chosen`] — can be a different frontier member.
    pub chosen_view: Option<String>,
    /// How many view probes were answered from the subsumption cache.
    pub cached_probes: usize,
    /// How many view probes ran a goal-side probe (fresh `(query, view)`
    /// pairs).
    pub fresh_probes: usize,
    /// How many fact saturations this plan paid for. At most 1: all fresh
    /// probes of one plan fork the same saturated query, and 0 when the
    /// query was saturated by an earlier plan (or every pair hit the
    /// cache).
    pub fact_saturations: usize,
    /// How many views the lattice traversal did *not* probe: descendants
    /// of failed probes and equivalence peers. Always 0 for the flat scan.
    pub probes_pruned: usize,
    /// Depth of the deepest lattice node probed (roots = 1); 0 for
    /// empty catalogs. The flat scan reports the full classified depth —
    /// the depth a traversal probing everything reaches.
    pub lattice_depth: usize,
}

/// Statistics of one query execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecutionStats {
    /// Number of candidate objects whose membership condition was
    /// evaluated.
    pub candidates_examined: usize,
    /// The materialized view whose extension was used, if any.
    pub used_view: Option<String>,
    /// Number of answers.
    pub answers: usize,
}

/// One frontier member of an [`ExplainReport`] with the cost model's
/// estimates the executor compares.
#[derive(Clone, Debug)]
pub struct FrontierEstimate {
    /// The view's name.
    pub name: String,
    /// Stored extension size.
    pub extent: usize,
    /// Estimated candidates left after narrowing by the query's
    /// schema-superclass extents.
    pub estimated_candidates: usize,
    /// Estimated filter cost — the quantity the executor minimizes over
    /// the frontier.
    pub estimated_cost: f64,
}

/// The structured answer of [`Reader::explain`]: the plan the planner
/// returns for the query in this cache state, the traversal's per-view
/// events, and the cost model's reasoning for the executor's choice.
#[derive(Clone, Debug, Default)]
pub struct ExplainReport {
    /// The plan, with counters from exactly this traversal.
    pub plan: QueryPlan,
    /// Fired probes in traversal order and the views pruned without a
    /// probe.
    pub trace: TraversalTrace,
    /// The frontier in plan order (smallest extent first) with cost
    /// estimates.
    pub frontier: Vec<FrontierEstimate>,
    /// The frontier member the executor would filter (cheapest estimated
    /// cost), if any view subsumes.
    pub chosen: Option<String>,
    /// The narrowing order: the query's schema superclasses, ascending
    /// by estimated cardinality, as the executor intersects them.
    pub narrowing_order: Vec<(String, usize)>,
    /// Candidates actually left after narrowing the chosen view's
    /// extension (the number the executor's filter examines).
    pub actual_candidates: Option<usize>,
}

impl ExplainReport {
    /// Renders the report as structured text, one datum per line, no
    /// blank lines — the payload of the server's `EXPLAIN` command.
    ///
    /// Line grammar: a `plan` line carrying every `QueryPlan` counter,
    /// one `probe` line per fired probe (in traversal order), one
    /// `pruned` line per unprobed view, one `frontier` line per frontier
    /// member (`chosen=true` on the executor's pick), one `narrow` line
    /// per intersected superclass, and a final `candidates` line.
    pub fn render_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        lines.push(format!(
            "plan chosen={} subsuming={} cached_probes={} fresh_probes={} fact_saturations={} probes_pruned={} lattice_depth={}",
            self.chosen.as_deref().unwrap_or("-"),
            self.plan.subsuming_views.len(),
            self.plan.cached_probes,
            self.plan.fresh_probes,
            self.plan.fact_saturations,
            self.plan.probes_pruned,
            self.plan.lattice_depth,
        ));
        for (i, (name, verdict)) in self.trace.probed.iter().enumerate() {
            lines.push(format!(
                "probe {i} {name} {}",
                if *verdict { "subsumes" } else { "rejected" }
            ));
        }
        for name in &self.trace.skipped {
            lines.push(format!("pruned {name}"));
        }
        for f in &self.frontier {
            lines.push(format!(
                "frontier {} extent={} est_candidates={} est_cost={:.3} chosen={}",
                f.name,
                f.extent,
                f.estimated_candidates,
                f.estimated_cost,
                self.chosen.as_deref() == Some(f.name.as_str()),
            ));
        }
        for (i, (class, cardinality)) in self.narrowing_order.iter().enumerate() {
            lines.push(format!("narrow {i} {class} card={cardinality}"));
        }
        lines.push(match self.actual_candidates {
            Some(n) => format!("candidates actual={n}"),
            None => "candidates actual=-".to_owned(),
        });
        lines
    }
}

/// Everything one plan or execution touches, borrowed from whoever owns
/// it for the duration of a single call. Building one allocates nothing.
pub(crate) struct PlanContext<'a> {
    /// The state queries are evaluated against, and whose extent and
    /// attribute-index counters the cost model reads.
    pub db: &'a Database,
    /// The classified views with their Hasse edges and stored extensions,
    /// fresh as of `db`.
    pub views: &'a [MaterializedView],
    /// The SL schema Σ subsumption is decided under.
    pub schema: &'a Schema,
    pub vocabulary: &'a mut Vocabulary,
    /// The arena the view concepts live in; queries are interned on top.
    pub arena: &'a mut TermArena,
    /// The caller's private verdict table and saturated fact closures.
    pub cache: &'a mut SubsumptionCache,
    /// The verdict level shared by every context of one schema epoch.
    pub memo: &'a SharedSubsumptionMemo,
    /// Concept ids below this bound denote the same term in every arena
    /// probing through `memo`; pairs above it stay in `cache`.
    pub shared_bound: usize,
    /// The histogram planning time is charged to.
    pub plan_ns: &'a Histogram,
    /// Where executions are recorded for the advisor; `None` while the
    /// advisor is off.
    pub shapes: Option<&'a ShapeRing>,
}

/// `(hits, misses, fact saturations)` of a subsumption cache — sampled
/// before a plan's probes and subtracted after them by [`plan_of`].
fn probe_counters(cache: &SubsumptionCache) -> [u64; 3] {
    let (hits, misses) = cache.stats();
    [hits, misses, cache.saturation_stats().0]
}

/// The plan for one finished round of probes: what the cache counters
/// moved by since `before`, and the subsuming `(view, extent size)` pairs
/// sorted smallest extension first.
fn plan_of(
    before: [u64; 3],
    cache: &SubsumptionCache,
    mut subsuming: Vec<(String, usize)>,
    probes_pruned: usize,
    lattice_depth: usize,
) -> QueryPlan {
    let after = probe_counters(cache);
    subsuming.sort_by_key(|(_, size)| *size);
    QueryPlan {
        chosen_view: subsuming.first().map(|(name, _)| name.clone()),
        subsuming_views: subsuming.into_iter().map(|(name, _)| name).collect(),
        cached_probes: (after[0] - before[0]) as usize,
        fresh_probes: (after[1] - before[1]) as usize,
        fact_saturations: (after[2] - before[2]) as usize,
        probes_pruned,
        lattice_depth,
    }
}

/// Evaluates a query without using any materialized view (the baseline
/// the paper's optimization is compared against, and the executor's
/// fallback when no view subsumes).
pub(crate) fn execute_unoptimized(
    db: &Database,
    query: &QueryClassDecl,
) -> (BTreeSet<ObjId>, ExecutionStats) {
    let candidates = initial_candidates(db, query);
    let answers = evaluate_query_over(db, query, Some(&candidates));
    let stats = ExecutionStats {
        candidates_examined: candidates.len(),
        used_view: None,
        answers: answers.len(),
    };
    (answers, stats)
}

impl<'a> PlanContext<'a> {
    fn translate(&mut self, query: &QueryClassDecl) -> Option<ConceptId> {
        translate_query(query, self.db.model(), self.vocabulary, self.arena).ok()
    }

    fn cost(&self) -> CostModel<'a> {
        CostModel::new(self.db)
    }

    /// Plans a query by traversing the view lattice from its roots: a
    /// view is probed only while every one of its Hasse parents subsumes
    /// the query — since `V₂ ⊑ V₁` and `Q ⋢ V₁` imply `Q ⋢ V₂`, a failed
    /// probe prunes the whole sub-DAG below it. The reported views are the
    /// **maximal-specific subsuming frontier**; their extensions are
    /// contained in every other subsuming view's extension, so picking
    /// among them is never worse than the flat scan's globally smallest
    /// pick, and the filtered answer set is identical
    /// (`tests/lattice_equivalence.rs` proves both properties against
    /// [`PlanContext::plan_flat`]). With a `trace`, every fired probe and
    /// every pruned view is logged by name — what `EXPLAIN` shows beyond
    /// the counters. `None` when the query does not translate.
    ///
    /// Probes go through the shared memo: a shape planned in one context
    /// is pre-warmed for every other context of the same schema epoch.
    pub fn plan(
        &mut self,
        query: &QueryClassDecl,
        trace: Option<&mut TraversalTrace>,
    ) -> Option<QueryPlan> {
        let _span = self.plan_ns.span();
        let query_concept = self.translate(query)?;
        let checker = SubsumptionChecker::new(self.schema);
        let before = probe_counters(self.cache);
        let (arena, cache) = (&mut *self.arena, &mut *self.cache);
        let (memo, bound) = (self.memo, self.shared_bound);
        let traversal = traverse_lattice(
            self.views,
            |view_concept| {
                checker
                    .probe(arena, query_concept, view_concept, cache, memo, bound)
                    .holds()
            },
            trace,
        );
        Some(plan_of(
            before,
            self.cache,
            traversal.frontier,
            traversal.pruned,
            traversal.depth,
        ))
    }

    /// The flat reference planner: probes the query against **every**
    /// translated view (through the same cached path as
    /// [`PlanContext::plan`], so the query is normalized and
    /// fact-saturated once for all N views) and reports all subsuming
    /// views, smallest extension first.
    ///
    /// Counter parity with [`PlanContext::plan`]: every `QueryPlan` field
    /// is populated with the flat scan's honest value — `probes_pruned`
    /// is 0 (the flat scan probes everything) and `lattice_depth` is the
    /// full classified depth — so bench tables and tests can diff the two
    /// planners field by field.
    pub fn plan_flat(&mut self, query: &QueryClassDecl) -> QueryPlan {
        let Some(query_concept) = self.translate(query) else {
            return QueryPlan::default();
        };
        let checker = SubsumptionChecker::new(self.schema);
        let before = probe_counters(self.cache);
        let (arena, cache) = (&mut *self.arena, &mut *self.cache);
        let (memo, bound) = (self.memo, self.shared_bound);
        let subsuming = self
            .views
            .iter()
            .filter(|view| {
                view.concept.is_some_and(|view_concept| {
                    checker
                        .probe(arena, query_concept, view_concept, cache, memo, bound)
                        .holds()
                })
            })
            .map(|view| (view.definition.name.clone(), view.extent.len()))
            .collect();
        plan_of(before, self.cache, subsuming, 0, lattice_depth(self.views))
    }

    /// What the cost model expects of filtering `query` through `view`:
    /// the candidates left after narrowing, and the filter cost the
    /// executor minimizes over the frontier.
    fn estimate(&self, view: &MaterializedView, query: &QueryClassDecl) -> (usize, f64) {
        let cost = self.cost();
        let candidates = cost.estimated_candidates(view.extent.len(), query);
        (candidates, cost.filter_cost(candidates, query))
    }

    /// The plan's subsuming views, in plan order.
    fn frontier<'p>(&self, plan: &'p QueryPlan) -> impl Iterator<Item = &'a MaterializedView> + 'p
    where
        'a: 'p,
    {
        let views = self.views;
        plan.subsuming_views
            .iter()
            .filter_map(move |name| views.iter().find(|view| view.definition.name == *name))
    }

    /// The frontier member the executor filters: the one with the lowest
    /// estimated filter cost after narrowing — never worse than the
    /// smallest-extension pick ([`QueryPlan::chosen_view`]), because the
    /// estimate is monotone in the candidate count. Both
    /// [`PlanContext::execute`] and [`PlanContext::explain`] ask here, so
    /// what `EXPLAIN` reports is what runs.
    pub fn choose_frontier(
        &self,
        plan: &QueryPlan,
        query: &QueryClassDecl,
    ) -> Option<&'a MaterializedView> {
        let cost = |view| self.estimate(view, query).1;
        self.frontier(plan)
            .min_by(|a, b| cost(a).total_cmp(&cost(b)))
    }

    /// Executes a query: plans, narrows the chosen view's stored
    /// extension by the query's schema-superclass extents in the cost
    /// model's cheapest (ascending-cardinality) intersection order, and
    /// filters the narrowed candidates through the full membership
    /// condition. Falls back to [`execute_unoptimized`] when no view
    /// subsumes the query.
    pub fn execute(&mut self, query: &QueryClassDecl) -> (BTreeSet<ObjId>, ExecutionStats) {
        let plan = self.plan(query, None).unwrap_or_default();
        let (answers, exec) = match self.choose_frontier(&plan, query) {
            Some(view) => {
                let candidates = self.cost().narrow_candidates(&view.extent, query);
                let answers = evaluate_query_over(self.db, query, Some(&candidates));
                crate::metrics::metrics().view_hits.inc();
                let stats = ExecutionStats {
                    candidates_examined: candidates.len(),
                    used_view: Some(view.definition.name.clone()),
                    answers: answers.len(),
                };
                (answers, stats)
            }
            None => execute_unoptimized(self.db, query),
        };
        // Constrained queries are skipped — their shapes cannot be
        // materialized.
        if let (Some(shapes), None) = (self.shapes, &query.constraint) {
            shapes.push(ShapeEvent {
                shape: Arc::new(normalize_shape(query)),
                used_view: exec.used_view.clone(),
                candidates_examined: exec.candidates_examined as u64,
                answers: exec.answers as u64,
            });
        }
        (answers, exec)
    }

    /// Explains how the query would be planned and executed:
    /// [`PlanContext::plan`] with a trace (so the report's counters are
    /// exactly the `QueryPlan` a plan returns in this cache state, and
    /// explaining warms the caches the same way planning does), the cost
    /// model's estimate for each frontier member with the executor's
    /// pick, and the narrowing (intersection) order.
    pub fn explain(&mut self, query: &QueryClassDecl) -> ExplainReport {
        let mut trace = TraversalTrace::default();
        let Some(plan) = self.plan(query, Some(&mut trace)) else {
            return ExplainReport::default();
        };
        let cost = self.cost();
        let frontier = self
            .frontier(&plan)
            .map(|view| {
                let (estimated_candidates, estimated_cost) = self.estimate(view, query);
                FrontierEstimate {
                    name: view.definition.name.clone(),
                    extent: view.extent.len(),
                    estimated_candidates,
                    estimated_cost,
                }
            })
            .collect();
        let chosen = self.choose_frontier(&plan, query);
        ExplainReport {
            chosen: chosen.map(|view| view.definition.name.clone()),
            actual_candidates: chosen.map(|view| cost.narrow_candidates(&view.extent, query).len()),
            narrowing_order: cost
                .intersection_order(query)
                .into_iter()
                .map(|(class, cardinality)| (class.to_owned(), cardinality))
                .collect(),
            plan,
            trace,
            frontier,
        }
    }
}
