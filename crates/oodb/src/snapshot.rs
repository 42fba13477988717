//! Snapshot-isolated concurrent reads: immutable published states and
//! lock-free reader handles.
//!
//! The engine follows the writer/reader asymmetry of the paper's serving
//! scenario (and of the deductive-database integrity-checking literature):
//! mutations are rare and funnel through the single writer
//! ([`OptimizedDatabase`]), reads dominate and must scale with cores. The
//! split is:
//!
//! * the **writer** mutates its state in place, brings the materialized
//!   views up to date (incrementally and, across independent lattice
//!   components, in parallel — see [`crate::maintain::propagate`]), and
//!   then *publishes* the result as one [`Snapshot`] with a single atomic
//!   swap ([`OptimizedDatabase::publish_snapshot`]);
//! * any number of **readers** ([`Reader`]) hold an `Arc` of a published
//!   snapshot and answer plans, view probes, and query executions against
//!   it with **no locking and no `&mut` on any shared structure** — a
//!   reader that keeps serving an old snapshot simply observes an older,
//!   internally consistent state (snapshot isolation; there is no
//!   write-write concurrency to reason about).
//!
//! Publishing is cheap because every bulky component is copy-on-write at
//! a granularity a small transaction touches little of: the store shares
//! per-class extents, per-attribute id-range *chunks* of postings and
//! name-table chunks ([`crate::store`]), the catalog clones per-view
//! `Arc`'d definitions and extensions
//! ([`crate::views::MaterializedView`]), and
//! the translation (vocabulary, term arena, schema) is frozen into an
//! `Arc` that is rebuilt only when the writer actually interned new
//! concepts.
//!
//! # Subsumption caching across threads
//!
//! `ConceptId`s are indexes into a hash-consed, append-only arena. A
//! reader clones the frozen arena once and interns locally, so ids below
//! the frozen concept count denote identical terms in *every* clone —
//! those pairs go through the snapshot's shared, sharded
//! [`SharedSubsumptionMemo`]; pairs involving a locally interned concept
//! stay in the reader's small private [`SubsumptionCache`] (which also
//! keeps the saturated fact closures, LRU-capped). The writer probes with
//! the same memo, so query shapes it has planned are pre-warmed for every
//! reader.

use crate::advisor::{normalize_shape, ShapeEvent, ShapeRing, SHAPE_RING_CAPACITY};
use crate::eval::{evaluate_query_over, initial_candidates};
use crate::optimizer::{ExecutionStats, QueryPlan};
use crate::stats::{CostModel, Statistics};
use crate::store::{Database, ObjId};
use crate::views::{traverse_lattice, traverse_lattice_traced, MaterializedView, TraversalTrace};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};
use subq_calculus::{SharedSubsumptionMemo, SubsumptionCache, SubsumptionChecker};
use subq_concepts::schema::Schema;
use subq_concepts::symbol::Vocabulary;
use subq_concepts::term::{ConceptId, TermArena};
use subq_dl::QueryClassDecl;
use subq_translate::{translate_query, TranslatedModel};

#[cfg(doc)]
use crate::optimizer::OptimizedDatabase;

/// The frozen structural translation a snapshot carries: everything a
/// reader needs to translate and probe queries, cloned from the writer's
/// `TranslatedModel` at publish time (and only when it changed).
#[derive(Debug)]
pub struct FrozenTranslation {
    /// The vocabulary shared by the schema and all published concepts.
    pub vocabulary: Vocabulary,
    /// The term arena holding all published concepts (readers clone it
    /// and intern on top).
    pub arena: TermArena,
    /// The SL schema Σ.
    pub schema: Schema,
    /// Pre-translated query-class concepts, by name.
    pub queries: HashMap<String, ConceptId>,
}

impl FrozenTranslation {
    pub(crate) fn of(translated: &TranslatedModel) -> Self {
        FrozenTranslation {
            vocabulary: translated.vocabulary.clone(),
            arena: translated.arena.clone(),
            schema: translated.schema.clone(),
            queries: translated.queries.clone(),
        }
    }

    /// Concept ids below this bound are shared-arena ids, identical in
    /// every reader clone — the bound of the shared subsumption memo.
    pub fn shared_bound(&self) -> usize {
        self.arena.concept_count()
    }
}

/// One published, immutable, internally consistent state: the database at
/// a data version together with view extensions that are exactly the
/// scratch evaluations of their definitions at that version.
#[derive(Debug)]
pub struct Snapshot {
    pub(crate) db: Database,
    pub(crate) views: Vec<MaterializedView>,
    pub(crate) translated: Arc<FrozenTranslation>,
    pub(crate) memo: Arc<SharedSubsumptionMemo>,
}

impl Snapshot {
    /// The database state of this snapshot.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The materialized views, in catalog order, with their lattice
    /// edges.
    pub fn views(&self) -> &[MaterializedView] {
        &self.views
    }

    /// One view by name.
    pub fn view(&self, name: &str) -> Option<&MaterializedView> {
        self.views.iter().find(|v| v.definition.name == name)
    }

    /// The data version this snapshot was published at.
    pub fn data_version(&self) -> u64 {
        self.db.data_version()
    }

    /// The schema version this snapshot was published at.
    pub fn schema_version(&self) -> u64 {
        self.db.schema_version()
    }

    /// The frozen translation.
    pub fn translated(&self) -> &FrozenTranslation {
        &self.translated
    }

    /// `(hits, misses)` of the shared subsumption memo attached to this
    /// snapshot's schema epoch.
    pub fn shared_memo_stats(&self) -> (u64, u64) {
        self.memo.stats()
    }
}

/// The publication point: the writer swaps a new [`Snapshot`] in, readers
/// take `Arc` clones out. The lock is held only for the pointer swap /
/// pointer clone — never while planning or evaluating — so it is a
/// handover point, not a serialization point.
pub struct SnapshotCell {
    current: RwLock<Arc<Snapshot>>,
    /// Whether readers record query shapes for the advisor. One relaxed
    /// load per execution when off — the entire read-path cost of a
    /// disabled advisor.
    record_shapes: AtomicBool,
    /// The shape rings of every reader minted from this cell, harvested
    /// by the writer at the publish boundary. Touched only at reader
    /// creation and harvest time — never on the query path.
    rings: Mutex<Vec<Weak<ShapeRing>>>,
}

impl std::fmt::Debug for SnapshotCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("record_shapes", &self.record_shapes)
            .finish_non_exhaustive()
    }
}

impl SnapshotCell {
    pub(crate) fn new(snapshot: Arc<Snapshot>) -> Self {
        SnapshotCell {
            current: RwLock::new(snapshot),
            record_shapes: AtomicBool::new(false),
            rings: Mutex::new(Vec::new()),
        }
    }

    /// Turns reader-side shape recording on or off (the writer flips this
    /// when the advisor mode changes).
    pub fn set_recording(&self, on: bool) {
        self.record_shapes.store(on, Ordering::Relaxed);
    }

    /// Whether readers currently record query shapes.
    pub fn recording(&self) -> bool {
        self.record_shapes.load(Ordering::Relaxed)
    }

    pub(crate) fn register_ring(&self, ring: &Arc<ShapeRing>) {
        self.rings
            .lock()
            .expect("shape ring registry poisoned")
            .push(Arc::downgrade(ring));
    }

    /// Drains every live reader ring into `into` and prunes rings whose
    /// readers are gone. Writer-side, at the publish boundary.
    pub(crate) fn harvest_shapes(&self, into: &mut Vec<ShapeEvent>) {
        let mut rings = self.rings.lock().expect("shape ring registry poisoned");
        rings.retain(|weak| match weak.upgrade() {
            Some(ring) => {
                ring.harvest(into);
                true
            }
            None => false,
        });
    }

    /// The latest published snapshot.
    pub fn load(&self) -> Arc<Snapshot> {
        self.current.read().expect("snapshot cell poisoned").clone()
    }

    pub(crate) fn store(&self, snapshot: Arc<Snapshot>) {
        *self.current.write().expect("snapshot cell poisoned") = snapshot;
    }

    /// A new lock-free read handle over this cell — the snapshot handout
    /// for components (like a server's worker threads) that hold the
    /// shared cell but not the [`OptimizedDatabase`](crate::OptimizedDatabase)
    /// itself, which a writer thread may own exclusively.
    pub fn reader(self: &Arc<Self>) -> Reader {
        Reader::new(self.clone())
    }
}

/// A read handle over published snapshots: plans, probes, and executes
/// queries with zero locking and no `&mut` on shared state.
///
/// A reader owns private clones of the frozen vocabulary and arena (so
/// translating an unseen query interns locally, without touching the
/// writer) plus a private [`SubsumptionCache`]; verdicts about
/// shared-arena concept pairs flow through the snapshot's
/// [`SharedSubsumptionMemo`], so readers warm each other. The handle
/// pins one snapshot until [`Reader::sync`] adopts a newer one —
/// in-between, every answer is consistent with the pinned state.
///
/// Readers are independent: create one per thread
/// ([`OptimizedDatabase::reader`]); the creation cost is the clone of the
/// frozen arena and vocabulary.
pub struct Reader {
    cell: Arc<SnapshotCell>,
    snapshot: Arc<Snapshot>,
    vocabulary: Vocabulary,
    arena: TermArena,
    cache: SubsumptionCache,
    shared_bound: usize,
    /// Cardinality statistics of the pinned snapshot, collected lazily on
    /// first execution and dropped when [`Reader::sync`] adopts a newer
    /// snapshot (published snapshots carry an empty log positioned at
    /// their version, so a fresh collection is the incremental path's
    /// truncation fallback anyway).
    stats: Option<Statistics>,
    /// This reader's shape log: executions are pushed here (lock-free,
    /// bounded) when the cell has recording enabled; the writer harvests
    /// at the publish boundary. See [`crate::advisor`].
    shapes: Arc<ShapeRing>,
}

impl Reader {
    pub(crate) fn new(cell: Arc<SnapshotCell>) -> Self {
        let snapshot = cell.load();
        let translated = &snapshot.translated;
        let (vocabulary, arena) = (translated.vocabulary.clone(), translated.arena.clone());
        let shared_bound = translated.shared_bound();
        let shapes = ShapeRing::new(SHAPE_RING_CAPACITY);
        cell.register_ring(&shapes);
        Reader {
            cell,
            snapshot,
            vocabulary,
            arena,
            cache: SubsumptionCache::new(),
            shared_bound,
            stats: None,
            shapes,
        }
    }

    /// The snapshot this reader currently answers from.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.snapshot
    }

    /// The data version of the pinned snapshot.
    pub fn data_version(&self) -> u64 {
        self.snapshot.data_version()
    }

    /// Read access to the pinned database state.
    pub fn database(&self) -> &Database {
        self.snapshot.database()
    }

    /// Adopts the latest published snapshot; returns whether it changed.
    /// When the new snapshot carries a different frozen translation (the
    /// writer interned new concepts or re-translated after a schema
    /// change), the private arena, vocabulary, and cache are rebuilt —
    /// locally interned ids would otherwise collide with the new shared
    /// prefix. Data-only publications keep all private state. Adopting is
    /// also where a publication costs the read path time: the last
    /// reader to let go of the replaced snapshot frees whatever the
    /// writer copied since (`subq_reader_sync_ns`).
    pub fn sync(&mut self) -> bool {
        let latest = self.cell.load();
        if Arc::ptr_eq(&latest, &self.snapshot) {
            return false;
        }
        let _span = crate::metrics::metrics().reader_sync_ns.span();
        if !Arc::ptr_eq(&latest.translated, &self.snapshot.translated) {
            self.vocabulary = latest.translated.vocabulary.clone();
            self.arena = latest.translated.arena.clone();
            self.shared_bound = latest.translated.shared_bound();
            self.cache.clear();
        }
        self.snapshot = latest;
        self.stats = None;
        true
    }

    /// `(hits, misses)` of this reader's private subsumption cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Plans a query against the pinned snapshot's view lattice — the
    /// same root-down, prune-on-failure traversal as
    /// [`OptimizedDatabase::plan`], but over the immutable published view
    /// list: no catalog lock, no classification pass (published views are
    /// classified), no writer involvement.
    pub fn plan(&mut self, query: &QueryClassDecl) -> QueryPlan {
        let _span = crate::metrics::metrics().reader_plan_ns.span();
        let snapshot = Arc::clone(&self.snapshot);
        let query_concept = match translate_query(
            query,
            snapshot.db.model(),
            &mut self.vocabulary,
            &mut self.arena,
        ) {
            Ok(concept) => concept,
            Err(_) => return QueryPlan::default(),
        };
        let checker = SubsumptionChecker::new(&snapshot.translated.schema);
        let arena = &mut self.arena;
        let cache = &mut self.cache;
        let bound = self.shared_bound;
        let (hits_before, misses_before) = cache.stats();
        let (saturations_before, _) = cache.saturation_stats();
        let traversal = traverse_lattice(&snapshot.views, |view_concept| {
            checker.subsumes_shared(
                arena,
                query_concept,
                view_concept,
                cache,
                &snapshot.memo,
                bound,
            )
        });
        let (hits_after, misses_after) = cache.stats();
        let (saturations_after, _) = cache.saturation_stats();
        let mut subsuming = traversal.frontier;
        subsuming.sort_by_key(|(_, size)| *size);
        QueryPlan {
            chosen_view: subsuming.first().map(|(name, _)| name.clone()),
            subsuming_views: subsuming.into_iter().map(|(name, _)| name).collect(),
            cached_probes: (hits_after - hits_before) as usize,
            fresh_probes: (misses_after - misses_before) as usize,
            fact_saturations: (saturations_after - saturations_before) as usize,
            probes_pruned: traversal.pruned,
            lattice_depth: traversal.depth,
        }
    }

    /// Executes a query against the pinned snapshot: plans, chooses the
    /// cheapest subsuming frontier view by estimated filter cost, narrows
    /// its stored extension by the query's schema-superclass extents
    /// (cheapest intersection first — same cost model as
    /// [`OptimizedDatabase::execute`]), filters the narrowed candidates,
    /// and falls back to a full evaluation when no view subsumes — all
    /// over immutable state.
    pub fn execute(&mut self, query: &QueryClassDecl) -> (BTreeSet<ObjId>, ExecutionStats) {
        let _span = crate::metrics::metrics().reader_execute_ns.span();
        let plan = self.plan(query);
        let snapshot = Arc::clone(&self.snapshot);
        let stats = self
            .stats
            .get_or_insert_with(|| Statistics::collect(&snapshot.db));
        let cost = CostModel::new(stats, &snapshot.db);
        let chosen = plan
            .subsuming_views
            .iter()
            .filter_map(|name| snapshot.view(name))
            .min_by(|a, b| {
                let estimate = |v: &&MaterializedView| {
                    cost.filter_cost(cost.estimated_candidates(v.extent.len(), query), query)
                };
                estimate(a).total_cmp(&estimate(b))
            });
        let (answers, exec) = match chosen {
            Some(view) => {
                let candidates = cost.narrow_candidates(&view.extent, query);
                let answers = evaluate_query_over(&snapshot.db, query, Some(&candidates));
                let stats = ExecutionStats {
                    candidates_examined: candidates.len(),
                    used_view: Some(view.definition.name.clone()),
                    answers: answers.len(),
                };
                (answers, stats)
            }
            None => self.execute_unoptimized(query),
        };
        if let Some(view) = exec.used_view.as_deref() {
            if let Some(stats) = self.stats.as_mut() {
                stats.record_view_hit(view);
            }
        }
        // Shape recording for the advisor: one relaxed load when off;
        // when on, normalize and push into this reader's bounded ring
        // (never blocks, never allocates past the ring). Constrained
        // queries are skipped — their shapes cannot be materialized.
        if self.cell.recording() && query.constraint.is_none() {
            self.shapes.push(ShapeEvent {
                shape: Arc::new(normalize_shape(query)),
                used_view: exec.used_view.clone(),
                candidates_examined: exec.candidates_examined as u64,
                answers: exec.answers as u64,
            });
        }
        (answers, exec)
    }

    /// Executes a query against the pinned snapshot without using any
    /// materialized view.
    pub fn execute_unoptimized(&self, query: &QueryClassDecl) -> (BTreeSet<ObjId>, ExecutionStats) {
        let candidates = initial_candidates(&self.snapshot.db, query);
        let answers = evaluate_query_over(&self.snapshot.db, query, Some(&candidates));
        let stats = ExecutionStats {
            candidates_examined: candidates.len(),
            used_view: None,
            answers: answers.len(),
        };
        (answers, stats)
    }

    /// Whether one object is an answer of the query in the pinned
    /// snapshot (the membership check of [`crate::eval::is_member`], over
    /// immutable state).
    pub fn is_member(&self, query: &QueryClassDecl, object: ObjId) -> bool {
        crate::eval::is_member(&self.snapshot.db, query, object)
    }

    /// Explains how the query would be planned and executed against the
    /// pinned snapshot: the same traversal as [`Reader::plan`] (so the
    /// report's counters are exactly the `QueryPlan` the planner would
    /// return for this query in this cache state), plus the per-view
    /// probe order, the pruned views, the cost model's estimate for each
    /// frontier member with the executor's pick, and the narrowing
    /// (intersection) order. Probes go through the shared memo like any
    /// plan, so explaining warms the caches the same way planning does.
    pub fn explain(&mut self, query: &QueryClassDecl) -> ExplainReport {
        let snapshot = Arc::clone(&self.snapshot);
        let query_concept = match translate_query(
            query,
            snapshot.db.model(),
            &mut self.vocabulary,
            &mut self.arena,
        ) {
            Ok(concept) => concept,
            Err(_) => return ExplainReport::default(),
        };
        let checker = SubsumptionChecker::new(&snapshot.translated.schema);
        let arena = &mut self.arena;
        let cache = &mut self.cache;
        let bound = self.shared_bound;
        let (hits_before, misses_before) = cache.stats();
        let (saturations_before, _) = cache.saturation_stats();
        let (traversal, trace) = traverse_lattice_traced(&snapshot.views, |view_concept| {
            checker.subsumes_shared(
                arena,
                query_concept,
                view_concept,
                cache,
                &snapshot.memo,
                bound,
            )
        });
        let (hits_after, misses_after) = cache.stats();
        let (saturations_after, _) = cache.saturation_stats();
        let mut subsuming = traversal.frontier;
        subsuming.sort_by_key(|(_, size)| *size);
        let plan = QueryPlan {
            chosen_view: subsuming.first().map(|(name, _)| name.clone()),
            subsuming_views: subsuming.into_iter().map(|(name, _)| name).collect(),
            cached_probes: (hits_after - hits_before) as usize,
            fresh_probes: (misses_after - misses_before) as usize,
            fact_saturations: (saturations_after - saturations_before) as usize,
            probes_pruned: traversal.pruned,
            lattice_depth: traversal.depth,
        };
        let stats = self
            .stats
            .get_or_insert_with(|| Statistics::collect(&snapshot.db));
        let cost = CostModel::new(stats, &snapshot.db);
        let frontier: Vec<FrontierEstimate> = plan
            .subsuming_views
            .iter()
            .filter_map(|name| snapshot.view(name))
            .map(|v| {
                let estimated_candidates = cost.estimated_candidates(v.extent.len(), query);
                FrontierEstimate {
                    name: v.definition.name.clone(),
                    extent: v.extent.len(),
                    estimated_candidates,
                    estimated_cost: cost.filter_cost(estimated_candidates, query),
                }
            })
            .collect();
        // The executor's pick, chosen exactly like `Reader::execute`
        // (iterator `min_by` keeps the *last* of equal minima).
        let chosen = frontier
            .iter()
            .min_by(|a, b| a.estimated_cost.total_cmp(&b.estimated_cost))
            .map(|f| f.name.clone());
        let actual_candidates = chosen
            .as_deref()
            .and_then(|name| snapshot.view(name))
            .map(|v| cost.narrow_candidates(&v.extent, query).len());
        let narrowing_order = cost
            .intersection_order(query)
            .into_iter()
            .map(|(class, cardinality)| (class.to_owned(), cardinality))
            .collect();
        ExplainReport {
            plan,
            trace,
            frontier,
            chosen,
            narrowing_order,
            actual_candidates,
        }
    }
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
    /// Estimated filter cost — the quantity [`Reader::execute`]
    /// minimizes over the frontier.
    pub estimated_cost: f64,
}

/// The structured answer of [`Reader::explain`]: the plan the planner
/// would return for the query (identical counters), the traversal's
/// per-view events, and the cost model's reasoning for the executor's
/// choice.
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
