//! Materialized views, organized into a subsumption lattice.
//!
//! A view is a query class whose constraint part is empty (Section 2.2);
//! its answers may be materialized — stored explicitly — so that access to
//! them is as fast as to any schema class. The catalog below stores the
//! extensions, refreshes them when the database changes, and is shared
//! behind a read–write lock so that many queries can consult it
//! concurrently (the "trader" scenario sketched in Section 6).
//!
//! # The subsumption lattice
//!
//! Beyond the flat list of extensions, the catalog maintains the **Hasse
//! diagram** of the Σ-subsumption order over the view concepts: an edge
//! `P → C` records that `C ⊑_Σ P` with no other view strictly between
//! them. Views whose concepts are Σ-equivalent collapse into one node —
//! the first-materialized view stays the *representative* and later
//! equivalent views attach to it as peers.
//!
//! The planner ([`crate::planner`]) exploits the diagram by traversing it:
//! because `C ⊑ P` and `Q ⋢ P` imply `Q ⋢ C`, a failed probe of a parent
//! prunes every view below it, so a query is tested against a pruned
//! top-down frontier instead of the whole catalog (the flat `O(N)` scan
//! the paper's Section 3.2 sketches).
//!
//! # Insertion-time classification cost
//!
//! Classification is incremental ([`ViewCatalog::classify_pending`]): each
//! newly materialized view is inserted into the existing DAG with one
//! top-down parent search (probes `new ⊑ existing`, descending only below
//! views that subsume the newcomer) and one bottom-up child search (probes
//! `existing ⊑ new` below the found parents, stopping at the first
//! subsumed node of every branch). All probes take the planner's cached
//! path ([`subq_calculus::SubsumptionChecker::probe`] over the writer's
//! cache and the shared memo), so the newcomer's fact closure is
//! saturated **once** for its whole top-down phase and every existing
//! view's closure is reused from its own insertion — an insertion pays one
//! fact saturation plus a number of goal-side probes bounded by the size
//! of the two search frontiers (at worst `O(N)` on a flat anti-hierarchy,
//! `O(depth × fan-out)` on hierarchical catalogs). The whole diagram is
//! dropped and rebuilt only when the schema changes (the subsumption
//! relation itself may then change); data updates never touch it.

use crate::eval::evaluate_query_set;
use crate::maintain::{refresh_views, routes_nothing, DependencyIndex, MaintenanceStats};
use crate::objset::ObjSet;
use crate::store::Database;
use std::collections::BTreeSet;
use std::sync::{Arc, RwLock};
use subq_concepts::term::ConceptId;
use subq_dl::QueryClassDecl;

/// A materialized view: a structural query class together with its stored
/// extension and its position in the catalog's subsumption lattice.
///
/// The definition and the extension sit behind [`Arc`]s, so cloning a
/// view — and with it the whole catalog, when a read
/// [`Snapshot`](crate::snapshot::Snapshot) is published — shares the
/// bulky parts; a refresh that changes an extension unshares just that
/// one (`Arc::make_mut`).
#[derive(Clone, Debug)]
pub struct MaterializedView {
    /// The view definition (a query class without a constraint clause).
    pub definition: Arc<QueryClassDecl>,
    /// The stored extension, as a compressed bitmap over dense object
    /// ids (see [`crate::objset`]).
    pub extent: Arc<ObjSet>,
    /// The [`Database::data_version`] the extension reflects: the view is
    /// fresh iff `fresh_as_of == db.data_version()`, and a refresh replays
    /// exactly the deltas after this version.
    pub fresh_as_of: u64,
    /// Forces full re-derivation on the next refresh regardless of
    /// versions — set by [`ViewCatalog::invalidate`] when the extension
    /// may be wrong for reasons the delta log cannot see (e.g. a schema
    /// mutation changed evaluation semantics without any data delta).
    pub force_refresh: bool,
    /// The translated QL concept of the definition, cached by the planner
    /// after the first translation (valid for one `TranslatedModel`;
    /// dropped by [`ViewCatalog::invalidate_concepts`] on schema change).
    pub concept: Option<ConceptId>,
    /// Hasse parents: indices of the most-specific views strictly *more
    /// general* than this one. Empty for roots and for equivalence peers.
    pub parents: Vec<usize>,
    /// Hasse children: indices of the most-general views strictly *more
    /// specific* than this one. Empty for leaves and equivalence peers.
    pub children: Vec<usize>,
    /// `Some(rep)` when this view's concept is Σ-equivalent to the earlier
    /// view `rep`, which represents the shared lattice node.
    pub equiv: Option<usize>,
    /// Whether this view has been inserted into the lattice since the last
    /// schema change.
    pub classified: bool,
}

impl MaterializedView {
    /// The number of stored answers.
    pub fn len(&self) -> usize {
        self.extent.len()
    }

    /// Whether the view is currently empty.
    pub fn is_empty(&self) -> bool {
        self.extent.is_empty()
    }
}

/// Errors raised when materializing a query class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViewError {
    /// The query class has a constraint clause; it is not a view and using
    /// its stored answers for subsumed queries would be unsound.
    NotStructural { query: String },
    /// A view with this name is already materialized.
    AlreadyMaterialized { query: String },
    /// The name denotes neither a query class nor a schema class.
    UnknownQuery { query: String },
}

impl std::fmt::Display for ViewError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewError::NotStructural { query } => write!(
                f,
                "query class `{query}` has a constraint clause and cannot be materialized as a view"
            ),
            ViewError::AlreadyMaterialized { query } => {
                write!(f, "view `{query}` is already materialized")
            }
            ViewError::UnknownQuery { query } => {
                write!(f, "`{query}` is neither a query class nor a schema class")
            }
        }
    }
}

impl std::error::Error for ViewError {}

/// The oracle driving lattice classification: translates view definitions
/// into concepts and decides Σ-subsumption between two concepts.
///
/// Both capabilities live on one trait (rather than two closures) because
/// a caller typically backs them with the *same* mutable state — the term
/// arena and the subsumption cache of an optimized database.
pub trait ClassifyOracle {
    /// The QL concept of a view definition, or `None` if it does not
    /// translate under the current schema (the view is skipped and retried
    /// on the next classification pass).
    fn concept_of(&mut self, definition: &QueryClassDecl) -> Option<ConceptId>;
    /// Whether `sub ⊑_Σ sup`.
    fn subsumes(&mut self, sub: ConceptId, sup: ConceptId) -> bool;
}

/// The outcome of one lattice traversal.
#[derive(Clone, Debug, Default)]
pub struct LatticeTraversal {
    /// The maximal-specific subsuming views (`(name, extent size)`): every
    /// view on the frontier subsumes the query, and no strictly more
    /// specific view does. Order follows the traversal; callers sort.
    pub frontier: Vec<(String, usize)>,
    /// Number of subsumption probes performed.
    pub probes: usize,
    /// Number of views whose probe was skipped: descendants of a failed
    /// probe, and equivalence peers (their verdict is the representative's).
    pub pruned: usize,
    /// Depth of the deepest node probed, counting roots as 1 (0 when the
    /// catalog is empty).
    pub depth: usize,
}

/// The per-view event log of one traced traversal
/// ([`traverse_lattice`] with a trace) — what EXPLAIN reports beyond the
/// [`LatticeTraversal`] counters. `probed.len()` equals the traversal's
/// `probes`; `skipped.len()` equals its `pruned`.
#[derive(Clone, Debug, Default)]
pub struct TraversalTrace {
    /// Fired probes in traversal order: `(view name, subsumed?)`.
    pub probed: Vec<(String, bool)>,
    /// Classified views never probed — descendants of a failed probe and
    /// Σ-equivalence peers — in catalog order.
    pub skipped: Vec<String>,
}

/// The maintenance side-state of a catalog: the dependency index (rebuilt
/// when the set of views or the schema changes) and the cumulative
/// counters.
#[derive(Debug, Default)]
struct MaintState {
    index: Option<DependencyIndex>,
    /// Number of views the index was built for.
    indexed_views: usize,
    /// Schema version the index was built against.
    indexed_schema: u64,
    /// Data version up to which the log suffix is known to route **zero**
    /// views (see [`ViewCatalog::refresh`]'s empty-refresh early return):
    /// views may lag behind it by `fresh_as_of` without being stale in
    /// substance. Reset when the index is rebuilt.
    routed_through: u64,
    stats: MaintenanceStats,
}

/// How far (in data versions) views may lag behind a routed-nothing log
/// suffix before an empty refresh consolidates their `fresh_as_of`
/// stamps. Small enough that the writer's log truncation keeps the log
/// (and with it every snapshot clone) bounded by ~this many irrelevant
/// deltas, large enough that the common empty refresh stays a pure read.
const ROUTED_LAG_CONSOLIDATE: u64 = 1024;

/// The catalog of materialized views.
#[derive(Debug, Default)]
pub struct ViewCatalog {
    views: RwLock<Vec<MaterializedView>>,
    maint: RwLock<MaintState>,
}

impl ViewCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        ViewCatalog::default()
    }

    /// The views under the shared lock — what the writer lends its
    /// [`PlanContext`](crate::planner) for the length of one call.
    pub(crate) fn read(&self) -> std::sync::RwLockReadGuard<'_, Vec<MaterializedView>> {
        self.views.read().expect("view catalog lock poisoned")
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Vec<MaterializedView>> {
        self.views.write().expect("view catalog lock poisoned")
    }

    /// Materializes a view: evaluates it once and stores the extension.
    /// The view enters the lattice on the next
    /// [`ViewCatalog::classify_pending`] pass.
    pub fn materialize(&self, db: &Database, definition: &QueryClassDecl) -> Result<(), ViewError> {
        if !definition.is_view() {
            return Err(ViewError::NotStructural {
                query: definition.name.clone(),
            });
        }
        let mut views = self.write();
        if views.iter().any(|v| v.definition.name == definition.name) {
            return Err(ViewError::AlreadyMaterialized {
                query: definition.name.clone(),
            });
        }
        let extent = evaluate_query_set(db, definition, None);
        views.push(MaterializedView {
            definition: Arc::new(definition.clone()),
            extent: Arc::new(extent),
            fresh_as_of: db.data_version(),
            force_refresh: false,
            concept: None,
            parents: Vec::new(),
            children: Vec::new(),
            equiv: None,
            classified: false,
        });
        Ok(())
    }

    /// Reinstalls checkpointed views into an empty catalog: definitions,
    /// stored extensions, and freshness stamps come from the image; the
    /// lattice position is left pending, because concepts are bound to
    /// the term arena of one process and cannot survive a restart —
    /// classification re-derives the (deterministic) Hasse edges the
    /// image recorded, which recovery tests assert against. The restored
    /// `fresh_as_of` is the checkpoint version, so the WAL suffix
    /// replayed after the restore catches every view up through the
    /// ordinary incremental path.
    pub(crate) fn restore(&self, restored: Vec<(Arc<QueryClassDecl>, Arc<ObjSet>, u64)>) {
        let mut views = self.write();
        debug_assert!(views.is_empty(), "restore targets a fresh catalog");
        for (definition, extent, fresh_as_of) in restored {
            views.push(MaterializedView {
                definition,
                extent,
                fresh_as_of,
                force_refresh: false,
                concept: None,
                parents: Vec::new(),
                children: Vec::new(),
                equiv: None,
                classified: false,
            });
        }
    }

    /// The names of all materialized views.
    pub fn view_names(&self) -> Vec<String> {
        self.read()
            .iter()
            .map(|v| v.definition.name.clone())
            .collect()
    }

    /// A snapshot of one view.
    pub fn view(&self, name: &str) -> Option<MaterializedView> {
        self.read()
            .iter()
            .find(|v| v.definition.name == name)
            .cloned()
    }

    /// A snapshot of all views.
    pub fn snapshot(&self) -> Vec<MaterializedView> {
        self.read().clone()
    }

    /// A snapshot of definitions and extent sizes only — without cloning
    /// the stored extents.
    pub fn summaries(&self) -> Vec<(QueryClassDecl, usize)> {
        self.read()
            .iter()
            .map(|v| ((*v.definition).clone(), v.extent.len()))
            .collect()
    }

    /// Inserts every not-yet-classified view into the subsumption lattice,
    /// in materialization order, using the oracle for translation and
    /// subsumption probes. Idempotent: a fully classified catalog returns
    /// without probing.
    pub fn classify_pending(&self, oracle: &mut impl ClassifyOracle) {
        // Fast path under the shared lock: the writer calls this on every
        // plan, and in steady state (views classified eagerly on
        // materialization) nothing is pending.
        if self.read().iter().all(|v| v.classified) {
            return;
        }
        let mut views = self.write();
        for index in 0..views.len() {
            if views[index].concept.is_none() {
                views[index].concept = oracle.concept_of(&views[index].definition);
            }
        }
        for index in 0..views.len() {
            if views[index].classified {
                continue;
            }
            let Some(concept) = views[index].concept else {
                // Untranslatable under the current schema: stays out of the
                // lattice (and out of plans) until a later pass succeeds.
                continue;
            };
            classify_one(&mut views, index, concept, oracle);
        }
    }

    /// Structural invariants of the lattice, as human-readable violations
    /// (empty = consistent). Checks index validity, parent/child edge
    /// mirroring, duplicate and self edges, equivalence-peer shape, edge
    /// cleanliness of unclassified views, and acyclicity.
    pub fn lattice_violations(&self) -> Vec<String> {
        let views = self.read();
        let n = views.len();
        let mut out = Vec::new();
        let name = |i: usize| views[i].definition.name.clone();
        for (i, view) in views.iter().enumerate() {
            if (!view.classified || view.equiv.is_some())
                && (!view.parents.is_empty() || !view.children.is_empty())
            {
                out.push(format!(
                    "`{}` is {} but has Hasse edges",
                    name(i),
                    if view.classified {
                        "an equivalence peer"
                    } else {
                        "unclassified"
                    }
                ));
            }
            if let Some(rep) = view.equiv {
                if !view.classified {
                    out.push(format!(
                        "`{}` has an equiv link but is unclassified",
                        name(i)
                    ));
                }
                if rep >= n {
                    out.push(format!("`{}` equiv index {rep} out of range", name(i)));
                } else if views[rep].equiv.is_some() || !views[rep].classified {
                    out.push(format!(
                        "`{}` equiv target `{}` is not a classified representative",
                        name(i),
                        name(rep)
                    ));
                }
            }
            for (edges, mirror, what) in [
                (&view.parents, true, "parent"),
                (&view.children, false, "child"),
            ] {
                let mut seen = BTreeSet::new();
                for &other in edges.iter() {
                    if other >= n {
                        out.push(format!("`{}` {what} index {other} out of range", name(i)));
                        continue;
                    }
                    if other == i {
                        out.push(format!("`{}` has a self {what} edge", name(i)));
                    }
                    if !seen.insert(other) {
                        out.push(format!(
                            "`{}` has duplicate {what} `{}`",
                            name(i),
                            name(other)
                        ));
                    }
                    let back = if mirror {
                        &views[other].children
                    } else {
                        &views[other].parents
                    };
                    if back.iter().filter(|&&b| b == i).count() != 1 {
                        out.push(format!(
                            "{what} edge `{}` ↔ `{}` is not mirrored exactly once",
                            name(i),
                            name(other)
                        ));
                    }
                }
            }
        }
        // Acyclicity: every representative must sort topologically.
        let (order, reps) = representative_topo_order(&views);
        if order.len() != reps {
            out.push(format!(
                "lattice contains a cycle ({} of {reps} representatives sort topologically)",
                order.len()
            ));
        }
        out
    }

    /// The Hasse edges as `(parent name, child name)` pairs, plus
    /// equivalence links as `(representative, peer)` — for tests and
    /// diagnostics.
    pub fn lattice_edges(&self) -> Vec<(String, String)> {
        let views = self.read();
        let mut out = Vec::new();
        for view in views.iter() {
            for &c in &view.children {
                out.push((
                    view.definition.name.clone(),
                    views[c].definition.name.clone(),
                ));
            }
            if let Some(rep) = view.equiv {
                out.push((
                    views[rep].definition.name.clone(),
                    view.definition.name.clone(),
                ));
            }
        }
        out
    }

    /// Number of views inserted into the lattice since the last schema
    /// change.
    pub fn classified_count(&self) -> usize {
        self.read().iter().filter(|v| v.classified).count()
    }

    /// Drops every cached translated concept **and the whole lattice**
    /// (called when the schema — and with it both the arena the
    /// `ConceptId`s point into and the subsumption relation itself — is
    /// re-translated). Views are reclassified on the next
    /// [`ViewCatalog::classify_pending`] pass.
    pub fn invalidate_concepts(&self) {
        for view in self.write().iter_mut() {
            view.concept = None;
            view.parents.clear();
            view.children.clear();
            view.equiv = None;
            view.classified = false;
        }
    }

    /// Forces every view to be fully re-derived on the next refresh
    /// (incremental or full), regardless of data versions. Needed when an
    /// extension may be wrong for reasons the delta log cannot express —
    /// [`OptimizedDatabase::update`](crate::OptimizedDatabase::update)
    /// calls this on schema mutations, whose semantic effects (changed
    /// query-class definitions, synonym rewiring) produce no data deltas.
    /// Ordinary staleness needs no marking: it is the per-view comparison
    /// `fresh_as_of < db.data_version()`. The lattice is untouched:
    /// subsumption never depends on the state.
    pub fn invalidate(&self) {
        for view in self.write().iter_mut() {
            view.force_refresh = true;
        }
    }

    /// Brings every stale view up to the current data version by
    /// **incremental propagation**: the unseen suffix of the database's
    /// delta log is routed through the dependency index to the affected
    /// views, only candidate objects are re-checked, and the subsumption
    /// lattice prunes evaluations top-down (see [`crate::maintain`]).
    /// Views whose snapshot predates the log's truncation point fall back
    /// to full re-evaluation. Equivalent to [`ViewCatalog::refresh_full`]
    /// on every state (`tests/incremental_equivalence.rs`).
    pub fn refresh(&self, db: &Database) {
        let now = db.data_version();
        // Fast path under the shared lock: nothing stale, nothing to do.
        if self
            .read()
            .iter()
            .all(|v| !v.force_refresh && v.fresh_as_of >= now)
        {
            return;
        }
        let mut maint = self.maint.write().expect("maintenance lock poisoned");
        {
            let views = self.read();
            let index_stale = maint.index.is_none()
                || maint.indexed_views != views.len()
                || maint.indexed_schema != db.schema_version();
            if index_stale {
                maint.index = Some(DependencyIndex::build(
                    db.model(),
                    views.iter().map(|v| v.definition.as_ref()),
                ));
                maint.indexed_views = views.len();
                maint.indexed_schema = db.schema_version();
                maint.routed_through = 0;
            }
            let forced = views.iter().any(|v| v.force_refresh);
            // Empty-refresh early return: when the unseen log suffix
            // routes **zero** views through the dependency index (and no
            // view is forced or beyond the log's reach), no view state is
            // touched at all — no write lock, no candidate sets, no
            // per-view bookkeeping. The scanned-through version is cached
            // so the next refresh does not even re-scan the suffix.
            if !forced && maint.routed_through >= now {
                return;
            }
            let index = maint.index.as_ref().expect("index built above");
            if !forced && routes_nothing(db, &views, index) {
                maint.routed_through = now;
                maint.stats.empty_refreshes += 1;
                crate::metrics::metrics().maint_empty_refreshes.inc();
                // Consolidate once the lag grows: views that are fresh in
                // substance but lag by version hold back the writer's log
                // truncation (the log would grow toward its cap, bloat
                // snapshot clones, and eventually force full
                // re-evaluations when the cap drops entries). Bumping
                // `fresh_as_of` is sound — the whole suffix routes
                // nothing to them — and costs one u64 store per view, no
                // allocation, no evaluation.
                let lag = views
                    .iter()
                    .map(|v| now.saturating_sub(v.fresh_as_of))
                    .max()
                    .unwrap_or(0);
                if lag > ROUTED_LAG_CONSOLIDATE {
                    drop(views);
                    for view in self.write().iter_mut() {
                        view.fresh_as_of = now;
                    }
                }
                return;
            }
        }
        let mut views = self.write();
        let MaintState { index, stats, .. } = &mut *maint;
        let before = *stats;
        refresh_views(
            db,
            &mut views,
            index.as_ref().expect("index built above"),
            stats,
        );
        let metrics = crate::metrics::metrics();
        metrics
            .maint_deltas_applied
            .add(stats.deltas_applied - before.deltas_applied);
        metrics
            .maint_candidates_examined
            .add(stats.candidates_examined - before.candidates_examined);
        metrics
            .maint_memberships_evaluated
            .add(stats.memberships_evaluated - before.memberships_evaluated);
        metrics
            .maint_lattice_prunes
            .add(stats.lattice_prunes - before.lattice_prunes);
        metrics
            .maint_full_reevaluations
            .add(stats.full_reevaluations - before.full_reevaluations);
        maint.routed_through = now;
    }

    /// Removes one materialized view from the catalog — the advisor's
    /// eviction primitive. Because Hasse edges and equivalence links are
    /// positional indices, removing an element invalidates every edge in
    /// the catalog: the whole lattice is reset (cached concepts are kept
    /// — they are still valid for the current schema epoch) and the
    /// survivors are reclassified on the next
    /// [`ViewCatalog::classify_pending`] pass, which re-derives the
    /// deterministic sub-diagram from memoized probes. The dependency
    /// index is dropped so maintenance stops routing deltas to the
    /// evicted extension. Returns whether the view existed.
    pub fn evict(&self, name: &str) -> bool {
        let mut views = self.write();
        let Some(position) = views.iter().position(|v| v.definition.name == name) else {
            return false;
        };
        views.remove(position);
        for view in views.iter_mut() {
            view.parents.clear();
            view.children.clear();
            view.equiv = None;
            view.classified = false;
        }
        drop(views);
        let mut maint = self.maint.write().expect("maintenance lock poisoned");
        maint.index = None;
        maint.indexed_views = usize::MAX;
        maint.routed_through = 0;
        true
    }

    /// Re-evaluates every stale view from scratch — the maintenance
    /// oracle the incremental [`ViewCatalog::refresh`] is verified
    /// against, and the baseline of experiment E10.
    pub fn refresh_full(&self, db: &Database) {
        let now = db.data_version();
        for view in self.write().iter_mut() {
            if view.force_refresh || view.fresh_as_of < now {
                view.extent = Arc::new(evaluate_query_set(db, &view.definition, None));
                view.fresh_as_of = now;
                view.force_refresh = false;
            }
        }
    }

    /// The cumulative counters of the incremental maintainer.
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        self.maint.read().expect("maintenance lock poisoned").stats
    }

    /// The oldest data version any view's extension still reflects
    /// (`None` for an empty catalog): log entries at or below it can be
    /// truncated without impairing incremental refresh.
    pub fn oldest_snapshot(&self) -> Option<u64> {
        self.read().iter().map(|v| v.fresh_as_of).min()
    }

    /// Number of materialized views.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }
}

/// Depth of the classified lattice (longest root-to-leaf chain, counting
/// roots as 1; 0 when nothing is classified) — the depth a traversal
/// reports when no probe fails. The flat planner
/// ([`OptimizedDatabase::plan_flat`](crate::OptimizedDatabase::plan_flat))
/// reports this for counter parity with the lattice planner.
pub(crate) fn lattice_depth(views: &[MaterializedView]) -> usize {
    let (order, _) = representative_topo_order(views);
    let mut depth: Vec<usize> = vec![0; views.len()];
    let mut max = 0;
    for &i in &order {
        depth[i] = 1 + views[i]
            .parents
            .iter()
            .map(|&p| depth[p])
            .max()
            .unwrap_or(0);
        max = max.max(depth[i]);
    }
    max
}

/// One lattice traversal over a slice of views — the engine behind every
/// plan (see [`crate::planner`]): `probe` decides whether the query is
/// subsumed by a view concept, probes run root-down, a failed probe
/// prunes the whole sub-DAG below it (soundly, since subsumption is
/// transitive), and the result is the maximal-specific subsuming
/// frontier. Views not yet classified are ignored. A `trace` collects the
/// per-view events EXPLAIN reports — kept optional because filling it
/// clones one name per classified view.
pub(crate) fn traverse_lattice(
    views: &[MaterializedView],
    mut probe: impl FnMut(ConceptId) -> bool,
    mut trace: Option<&mut TraversalTrace>,
) -> LatticeTraversal {
    let n = views.len();
    let mut result = LatticeTraversal::default();
    // Verdicts per representative: None = not yet decided.
    let mut subsumed: Vec<Option<bool>> = vec![None; n];
    let mut depth: Vec<usize> = vec![0; n];
    let mut fired = if trace.is_some() {
        vec![false; n]
    } else {
        Vec::new()
    };
    // Topological sweep over the representatives so a node is decided
    // only after all of its parents (diamonds are probed once, after
    // the *last* parent).
    let (order, reps) = representative_topo_order(views);
    debug_assert_eq!(order.len(), reps, "lattice must be acyclic");
    let classified_total = views.iter().filter(|v| v.classified).count();
    for &i in &order {
        let view = &views[i];
        let all_parents_hold = view.parents.iter().all(|&p| subsumed[p] == Some(true));
        depth[i] = 1 + view.parents.iter().map(|&p| depth[p]).max().unwrap_or(0);
        let verdict = if all_parents_hold {
            result.probes += 1;
            result.depth = result.depth.max(depth[i]);
            let verdict = probe(views[i].concept.expect("classified views have concepts"));
            if let Some(trace) = trace.as_deref_mut() {
                fired[i] = true;
                trace.probed.push((view.definition.name.clone(), verdict));
            }
            verdict
        } else {
            false
        };
        subsumed[i] = Some(verdict);
    }
    result.pruned = classified_total - result.probes;
    if let Some(trace) = trace {
        for (i, view) in views.iter().enumerate() {
            if view.classified && !fired[i] {
                trace.skipped.push(view.definition.name.clone());
            }
        }
    }
    // The frontier: subsuming representatives none of whose children
    // subsume, expanded by their equivalence peers.
    for (i, view) in views.iter().enumerate() {
        let rep = view.equiv.unwrap_or(i);
        if !view.classified || subsumed[rep] != Some(true) {
            continue;
        }
        let maximal_specific = views[rep]
            .children
            .iter()
            .all(|&c| subsumed[c] != Some(true));
        if maximal_specific {
            result
                .frontier
                .push((view.definition.name.clone(), view.extent.len()));
        }
    }
    result
}

/// The topological order of the classified representatives (parents
/// strictly before children, Kahn over the Hasse edges), paired with the
/// number of representatives: an order shorter than the count signals a
/// cycle. Tolerates malformed edge lists (out-of-range or duplicate
/// children), which [`ViewCatalog::lattice_violations`] reports
/// separately. Shared by the planner traversal, the invariant checker,
/// and the incremental maintainer's refresh order.
pub(crate) fn representative_topo_order(views: &[MaterializedView]) -> (Vec<usize>, usize) {
    let n = views.len();
    let is_rep = |i: usize| views[i].classified && views[i].equiv.is_none();
    let mut pending: Vec<usize> = views.iter().map(|v| v.parents.len()).collect();
    let mut queue: Vec<usize> = (0..n).filter(|&i| is_rep(i) && pending[i] == 0).collect();
    let reps = (0..n).filter(|&i| is_rep(i)).count();
    let mut order = Vec::with_capacity(reps);
    while let Some(i) = queue.pop() {
        order.push(i);
        for &c in &views[i].children {
            if c < n && pending[c] > 0 {
                pending[c] -= 1;
                if pending[c] == 0 {
                    queue.push(c);
                }
            }
        }
    }
    (order, reps)
}

/// Inserts view `index` (with concept `concept`) into the lattice built
/// from the already-classified views.
///
/// Top-down parent search, equivalence collapse, bottom-up child search,
/// then Hasse rewiring (dropping parent→child edges the new node now
/// mediates). See the module doc for the cost argument.
fn classify_one(
    views: &mut [MaterializedView],
    index: usize,
    concept: ConceptId,
    oracle: &mut impl ClassifyOracle,
) {
    let n = views.len();
    let is_rep = |views: &[MaterializedView], j: usize| {
        j != index && views[j].classified && views[j].equiv.is_none()
    };

    // Phase 1 — top-down parent search: `sup[j]` memoizes `new ⊑ view j`.
    // Descend only below subsuming views (a non-subsumer's descendants
    // cannot subsume either).
    let mut sup: Vec<Option<bool>> = vec![None; n];
    let mut stack: Vec<usize> = (0..n)
        .filter(|&j| is_rep(views, j) && views[j].parents.is_empty())
        .collect();
    while let Some(j) = stack.pop() {
        if sup[j].is_some() {
            continue;
        }
        let holds = oracle.subsumes(concept, views[j].concept.expect("reps have concepts"));
        sup[j] = Some(holds);
        if holds {
            for &c in &views[j].children {
                if sup[c].is_none() {
                    stack.push(c);
                }
            }
        }
    }
    let parents: Vec<usize> = (0..n)
        .filter(|&j| {
            sup[j] == Some(true) && views[j].children.iter().all(|&c| sup[c] != Some(true))
        })
        .collect();

    // Phase 2 — equivalence: a parent that is also subsumed by the new
    // view shares its concept up to Σ-equivalence; collapse into its node.
    for &p in &parents {
        if oracle.subsumes(views[p].concept.expect("reps have concepts"), concept) {
            views[index].equiv = Some(p);
            views[index].classified = true;
            return;
        }
    }

    // Phase 3 — bottom-up child search below the parents (or from the
    // roots when the newcomer is a new root): walk down through
    // non-subsumed views, stopping at the first `view ⊑ new` of every
    // branch — those are the candidate children.
    let mut sub: Vec<Option<bool>> = vec![None; n];
    let mut candidates: Vec<usize> = Vec::new();
    let mut stack: Vec<usize> = if parents.is_empty() {
        (0..n)
            .filter(|&j| is_rep(views, j) && views[j].parents.is_empty())
            .collect()
    } else {
        parents
            .iter()
            .flat_map(|&p| views[p].children.iter().copied())
            .collect()
    };
    while let Some(j) = stack.pop() {
        if sub[j].is_some() {
            continue;
        }
        let holds = oracle.subsumes(views[j].concept.expect("reps have concepts"), concept);
        sub[j] = Some(holds);
        if holds {
            candidates.push(j);
        } else {
            for &c in &views[j].children {
                if sub[c].is_none() {
                    stack.push(c);
                }
            }
        }
    }
    // Keep only the maximal (most general) candidates: drop a candidate
    // when one of its strict ancestors is also a candidate — the ancestor
    // subsumes it, so the descendant's edge would be transitive. DAG
    // reachability decides this without further probes.
    let mut is_candidate: Vec<bool> = vec![false; n];
    for &c in &candidates {
        is_candidate[c] = true;
    }
    let children: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&c| {
            let mut up: Vec<usize> = views[c].parents.clone();
            let mut seen: Vec<bool> = vec![false; n];
            while let Some(a) = up.pop() {
                if seen[a] {
                    continue;
                }
                seen[a] = true;
                if is_candidate[a] {
                    return false;
                }
                up.extend(views[a].parents.iter().copied());
            }
            true
        })
        .collect();

    // Phase 4 — rewire: the new node now mediates every parent→child pair
    // it sits between.
    for &p in &parents {
        for &c in &children {
            views[p].children.retain(|&x| x != c);
            views[c].parents.retain(|&x| x != p);
        }
    }
    for &p in &parents {
        views[p].children.push(index);
    }
    for &c in &children {
        views[c].parents.push(index);
    }
    views[index].parents = parents;
    views[index].children = children;
    views[index].classified = true;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_query;
    use subq_dl::samples;

    fn db() -> Database {
        crate::store::tests::hospital()
    }

    #[test]
    fn materializing_a_view_stores_its_extent() {
        let db = db();
        let model = samples::medical_model();
        let catalog = ViewCatalog::new();
        let view = model.query_class("ViewPatient").expect("declared");
        catalog.materialize(&db, view).expect("materializes");
        let stored = catalog.view("ViewPatient").expect("stored");
        assert_eq!(stored.fresh_as_of, db.data_version());
        assert!(!stored.classified);
        assert_eq!(*stored.extent, evaluate_query(&db, view));
        assert_eq!(catalog.len(), 1);
        assert_eq!(catalog.view_names(), vec!["ViewPatient".to_owned()]);
    }

    #[test]
    fn non_structural_queries_cannot_be_materialized() {
        let db = db();
        let model = samples::medical_model();
        let catalog = ViewCatalog::new();
        let query = model.query_class("QueryPatient").expect("declared");
        let err = catalog.materialize(&db, query).expect_err("must fail");
        assert!(matches!(err, ViewError::NotStructural { .. }));
        assert!(catalog.is_empty());
    }

    #[test]
    fn double_materialization_is_rejected() {
        let db = db();
        let model = samples::medical_model();
        let catalog = ViewCatalog::new();
        let view = model.query_class("ViewPatient").expect("declared");
        catalog.materialize(&db, view).expect("first");
        let err = catalog
            .materialize(&db, view)
            .expect_err("second must fail");
        assert!(matches!(err, ViewError::AlreadyMaterialized { .. }));
    }

    #[test]
    fn versioned_staleness_tracks_database_changes() {
        let mut db = db();
        let model = samples::medical_model();
        let catalog = ViewCatalog::new();
        let view = model.query_class("ViewPatient").expect("declared");
        catalog.materialize(&db, view).expect("materializes");
        let before = catalog.view("ViewPatient").expect("stored").extent.len();

        // A new conforming patient appears; the view's snapshot version
        // now lags the database's.
        let anna = db.add_object("anna");
        let anna_name = db.add_object("anna_name");
        let flu = db.object("flu").expect("exists");
        let welby = db.object("welby").expect("exists");
        db.assert_class(anna, "Patient");
        db.assert_class(anna_name, "String");
        db.assert_attr(anna, "name", anna_name);
        db.assert_attr(anna, "suffers", flu);
        db.assert_attr(anna, "consults", welby);

        let stored = catalog.view("ViewPatient").expect("stored");
        assert!(stored.fresh_as_of < db.data_version(), "stale by version");
        catalog.refresh(&db);
        let after = catalog.view("ViewPatient").expect("stored");
        assert_eq!(after.fresh_as_of, db.data_version());
        assert_eq!(after.extent.len(), before + 1);
        let stats = catalog.maintenance_stats();
        assert!(stats.deltas_applied > 0);
        assert!(stats.memberships_evaluated <= stats.candidates_examined);

        // The incremental result agrees with the full-re-evaluation
        // oracle and with a scratch evaluation.
        assert_eq!(*after.extent, evaluate_query(&db, view));
        catalog.invalidate();
        catalog.refresh_full(&db);
        assert_eq!(
            catalog.view("ViewPatient").expect("stored").extent,
            after.extent
        );
    }

    #[test]
    fn forced_invalidation_and_truncated_logs_reevaluate_in_full() {
        let mut db = db();
        let model = samples::medical_model();
        let catalog = ViewCatalog::new();
        let view = model.query_class("ViewPatient").expect("declared");
        catalog.materialize(&db, view).expect("materializes");
        let expected = catalog.view("ViewPatient").expect("stored").extent;

        // `invalidate` forces a full re-derivation even though no delta
        // was logged since the snapshot.
        catalog.invalidate();
        catalog.refresh(&db);
        assert_eq!(
            catalog.view("ViewPatient").expect("stored").extent,
            expected
        );
        assert_eq!(catalog.maintenance_stats().full_reevaluations, 1);
        // The flag is consumed: refreshing again does nothing.
        catalog.refresh(&db);
        assert_eq!(catalog.maintenance_stats().full_reevaluations, 1);

        // A log truncated past a view's snapshot also falls back to full
        // re-evaluation.
        db.assert_class(db.object("mary").expect("exists"), "Doctor");
        db.truncate_log(db.data_version());
        catalog.refresh(&db);
        assert_eq!(
            *catalog.view("ViewPatient").expect("stored").extent,
            evaluate_query(&db, view)
        );
        assert_eq!(catalog.maintenance_stats().full_reevaluations, 2);
    }

    /// Satellite regression test: a transaction whose deltas route to
    /// **zero** views through the dependency index must not touch any
    /// view state — no write lock, no per-view bookkeeping, no
    /// candidate allocation. The `MaintenanceStats` account for the
    /// short-circuit, and the scanned-through version is cached so the
    /// next refresh skips even the scan.
    #[test]
    fn refreshes_routing_zero_views_return_early() {
        let mut db = db();
        let catalog = ViewCatalog::new();
        // A view on doctors only: it depends on the `Doctor` extent and
        // nothing else.
        let doctors = QueryClassDecl {
            name: "AllDoctors".into(),
            is_a: vec!["Doctor".into()],
            derived: vec![],
            where_eqs: vec![],
            constraint: None,
        };
        catalog.materialize(&db, &doctors).expect("materializes");
        let fresh_as_of = catalog.view("AllDoctors").expect("stored").fresh_as_of;

        // A transaction that touches only the Disease extent.
        let measles = db.add_object("measles");
        db.assert_class(measles, "Disease");
        assert!(db.data_version() > fresh_as_of);

        let before = catalog.maintenance_stats();
        catalog.refresh(&db);
        let after = catalog.maintenance_stats();
        assert_eq!(after.empty_refreshes, before.empty_refreshes + 1);
        assert_eq!(after.deltas_applied, before.deltas_applied);
        assert_eq!(after.candidates_examined, before.candidates_examined);
        assert_eq!(after.full_reevaluations, before.full_reevaluations);
        // No view state was touched: the snapshot version is unchanged.
        let view = catalog.view("AllDoctors").expect("stored");
        assert_eq!(view.fresh_as_of, fresh_as_of);

        // The second refresh takes the cached-scan fast path: not even a
        // new empty-refresh pass is recorded.
        catalog.refresh(&db);
        assert_eq!(
            catalog.maintenance_stats().empty_refreshes,
            after.empty_refreshes
        );

        // A delta that *does* route to the view still propagates, across
        // the whole lagging window, and the extension stays correct.
        let house = db.add_object("house");
        db.assert_class(house, "Doctor");
        catalog.refresh(&db);
        let view = catalog.view("AllDoctors").expect("stored");
        assert_eq!(view.fresh_as_of, db.data_version());
        assert_eq!(*view.extent, evaluate_query(&db, &doctors));
        assert!(view.extent.contains(&house));
        let stats = catalog.maintenance_stats();
        assert!(stats.deltas_applied > after.deltas_applied);
    }

    /// When routed-nothing churn accumulates past the consolidation lag,
    /// an empty refresh bumps `fresh_as_of` (one u64 store per view, no
    /// evaluation) so the writer's log truncation is not held back
    /// forever — without it the log would grow to its cap and eventually
    /// force full re-evaluations of views that were never affected.
    #[test]
    fn long_routed_nothing_churn_consolidates_fresh_as_of() {
        let mut db = db();
        let catalog = ViewCatalog::new();
        let doctors = QueryClassDecl {
            name: "AllDoctors".into(),
            is_a: vec!["Doctor".into()],
            derived: vec![],
            where_eqs: vec![],
            constraint: None,
        };
        catalog.materialize(&db, &doctors).expect("materializes");
        let start = catalog.view("AllDoctors").expect("stored").fresh_as_of;

        // Irrelevant churn well past the consolidation lag, refreshing
        // along the way (each refresh is empty).
        let mut refreshed_at = Vec::new();
        while db.data_version() < start + super::ROUTED_LAG_CONSOLIDATE + 64 {
            let obj = db.add_object(&format!("d{}", db.data_version()));
            db.assert_class(obj, "Disease");
            if db.data_version().is_multiple_of(256) {
                catalog.refresh(&db);
                refreshed_at.push(db.data_version());
            }
        }
        catalog.refresh(&db);
        let view = catalog.view("AllDoctors").expect("stored");
        assert!(
            view.fresh_as_of > start + super::ROUTED_LAG_CONSOLIDATE,
            "fresh_as_of {} never consolidated past the lag (start {start})",
            view.fresh_as_of
        );
        // Consolidation never evaluated anything, and correctness under a
        // later *relevant* delta is preserved.
        let stats = catalog.maintenance_stats();
        assert_eq!(stats.memberships_evaluated, 0);
        assert!(stats.empty_refreshes > 0);
        let house = db.add_object("house");
        db.assert_class(house, "Doctor");
        catalog.refresh(&db);
        let view = catalog.view("AllDoctors").expect("stored");
        assert_eq!(*view.extent, evaluate_query(&db, &doctors));
        assert!(view.extent.contains(&house));
    }

    /// `invalidate` must force re-derivation even at data version 0,
    /// where every version comparison says "fresh" — the flag, not the
    /// version, carries the invalidation (regression: schema mutations
    /// produce no data deltas).
    #[test]
    fn invalidate_forces_rederivation_even_at_data_version_zero() {
        let db = Database::new(subq_dl::DlModel::new());
        assert_eq!(db.data_version(), 0);
        let catalog = ViewCatalog::new();
        catalog
            .materialize(&db, &trivial_view("V0"))
            .expect("materializes");
        catalog.invalidate();
        catalog.refresh(&db);
        assert_eq!(catalog.maintenance_stats().full_reevaluations, 1);
        // `refresh_full` honours and consumes the flag too.
        catalog.invalidate();
        catalog.refresh_full(&db);
        catalog.refresh(&db);
        assert_eq!(catalog.maintenance_stats().full_reevaluations, 1);
    }

    /// A scripted oracle over toy concepts lets the graph algorithm be
    /// tested without the calculus: subsumption is the divisibility order
    /// on small integers (a ⊑ b iff b divides a), whose Hasse diagram over
    /// {1,2,3,4,6,12} is the classic diamond-of-diamonds. Each number is
    /// interned as one real arena concept so `ConceptId`s stay opaque.
    struct DivisibilityOracle {
        voc: subq_concepts::symbol::Vocabulary,
        arena: subq_concepts::term::TermArena,
        numbers: std::collections::HashMap<ConceptId, u32>,
    }

    impl DivisibilityOracle {
        fn new() -> Self {
            DivisibilityOracle {
                voc: subq_concepts::symbol::Vocabulary::new(),
                arena: subq_concepts::term::TermArena::new(),
                numbers: std::collections::HashMap::new(),
            }
        }

        fn concept_for(&mut self, n: u32) -> ConceptId {
            let class = self.voc.class(&format!("N{n}"));
            let concept = self.arena.prim(class);
            self.numbers.insert(concept, n);
            concept
        }

        fn number(&self, concept: ConceptId) -> u32 {
            self.numbers[&concept]
        }
    }

    impl ClassifyOracle for DivisibilityOracle {
        fn concept_of(&mut self, definition: &QueryClassDecl) -> Option<ConceptId> {
            // Concept = the number encoded in the view name "D<number>".
            let n = definition.name[1..].parse::<u32>().ok()?;
            Some(self.concept_for(n))
        }
        fn subsumes(&mut self, sub: ConceptId, sup: ConceptId) -> bool {
            self.number(sub).is_multiple_of(self.number(sup))
        }
    }

    fn trivial_view(name: &str) -> QueryClassDecl {
        QueryClassDecl {
            name: name.into(),
            is_a: vec![],
            derived: vec![],
            where_eqs: vec![],
            constraint: None,
        }
    }

    fn divisibility_catalog(numbers: &[u32]) -> (ViewCatalog, DivisibilityOracle) {
        let db = Database::new(subq_dl::DlModel::new());
        let catalog = ViewCatalog::new();
        for n in numbers {
            catalog
                .materialize(&db, &trivial_view(&format!("D{n}")))
                .expect("materializes");
        }
        let mut oracle = DivisibilityOracle::new();
        catalog.classify_pending(&mut oracle);
        (catalog, oracle)
    }

    #[test]
    fn classification_builds_the_divisibility_hasse_diagram() {
        // 1 is the top (divides everything ⇒ everything ⊑ 1).
        let (catalog, _) = divisibility_catalog(&[1, 2, 3, 4, 6, 12]);
        assert!(catalog.lattice_violations().is_empty());
        let mut edges = catalog.lattice_edges();
        edges.sort();
        let expect = |p: &str, c: &str| (p.to_owned(), c.to_owned());
        assert_eq!(
            edges,
            vec![
                expect("D1", "D2"),
                expect("D1", "D3"),
                expect("D2", "D4"),
                expect("D2", "D6"),
                expect("D3", "D6"),
                expect("D4", "D12"),
                expect("D6", "D12"),
            ]
        );
    }

    #[test]
    fn classification_is_insertion_order_independent() {
        let mut expected: Option<Vec<(String, String)>> = None;
        for order in [
            vec![1u32, 2, 3, 4, 6, 12],
            vec![12, 6, 4, 3, 2, 1],
            vec![6, 1, 12, 2, 4, 3],
        ] {
            let (catalog, _) = divisibility_catalog(&order);
            assert!(catalog.lattice_violations().is_empty(), "order {order:?}");
            let mut edges = catalog.lattice_edges();
            edges.sort();
            match &expected {
                None => expected = Some(edges),
                Some(first) => assert_eq!(&edges, first, "order {order:?}"),
            }
        }
    }

    #[test]
    fn equivalent_views_collapse_into_one_node() {
        // D6 and E6 encode the same number — the second becomes a peer of
        // the first.
        let db = Database::new(subq_dl::DlModel::new());
        let catalog = ViewCatalog::new();
        for name in ["D2", "D6", "E6", "D12"] {
            catalog
                .materialize(&db, &trivial_view(name))
                .expect("materializes");
        }
        let mut oracle = DivisibilityOracle::new();
        catalog.classify_pending(&mut oracle);
        assert!(catalog.lattice_violations().is_empty());
        let e6 = catalog.view("E6").expect("stored");
        assert_eq!(e6.equiv, Some(1), "E6 collapses onto D6");
        // Traversal: a query equal to 12 is subsumed by everything; the
        // frontier is D12 alone (most specific).
        let result = traverse_lattice(&catalog.read(), |c| 12 % oracle.number(c) == 0, None);
        let names: Vec<&str> = result.frontier.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["D12"]);
        // A query equal to 6: frontier is the equivalence class {D6, E6}.
        let result = traverse_lattice(&catalog.read(), |c| 6 % oracle.number(c) == 0, None);
        let mut names: Vec<&str> = result.frontier.iter().map(|(n, _)| n.as_str()).collect();
        names.sort();
        assert_eq!(names, vec!["D6", "E6"]);
    }

    #[test]
    fn traversal_prunes_failed_subtrees() {
        let (catalog, oracle) = divisibility_catalog(&[1, 2, 3, 4, 6, 12]);
        // Query = 4: subsumed by 1, 2, 4. The probe of 3 fails, pruning 6;
        // 12 is below the failed 6 (and below 4) — probed only when every
        // parent holds, so it is pruned too.
        let mut probed = Vec::new();
        let result = traverse_lattice(
            &catalog.read(),
            |c| {
                probed.push(oracle.number(c));
                4 % oracle.number(c) == 0
            },
            None,
        );
        let names: Vec<&str> = result.frontier.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["D4"]);
        assert!(!probed.contains(&6), "6 must be pruned after 3 fails");
        assert!(!probed.contains(&12), "12 must be pruned");
        assert_eq!(result.probes, 4); // 1, 2, 3, 4
        assert_eq!(result.pruned, 2); // 6, 12
        assert_eq!(result.depth, 3); // 1 → 2 → 4
        assert!(result.probes + result.pruned == catalog.len());
    }

    /// Eviction removes a node, resets positional edges, and the next
    /// classification pass rebuilds a consistent sub-diagram; putting the
    /// view back restores the original diagram exactly.
    #[test]
    fn evicting_and_rematerializing_keeps_the_lattice_consistent() {
        let db = Database::new(subq_dl::DlModel::new());
        let (catalog, mut oracle) = divisibility_catalog(&[1, 2, 3, 4, 6, 12]);
        let mut full_edges = catalog.lattice_edges();
        full_edges.sort();

        assert!(catalog.evict("D6"), "view existed");
        assert!(!catalog.evict("D6"), "second evict is a no-op");
        assert_eq!(catalog.len(), 5);
        assert!(
            catalog.lattice_violations().is_empty(),
            "reset lattice is clean"
        );
        catalog.classify_pending(&mut oracle);
        assert!(catalog.lattice_violations().is_empty());
        let mut edges = catalog.lattice_edges();
        edges.sort();
        let expect = |p: &str, c: &str| (p.to_owned(), c.to_owned());
        assert_eq!(
            edges,
            vec![
                expect("D1", "D2"),
                expect("D1", "D3"),
                expect("D2", "D4"),
                expect("D3", "D12"),
                expect("D4", "D12"),
            ],
            "D12 reattaches to D3 and D4 once D6 is gone"
        );

        catalog
            .materialize(&db, &trivial_view("D6"))
            .expect("re-materializes after eviction");
        catalog.classify_pending(&mut oracle);
        assert!(catalog.lattice_violations().is_empty());
        let mut edges = catalog.lattice_edges();
        edges.sort();
        assert_eq!(edges, full_edges, "re-materialization restores the diagram");
    }

    #[test]
    fn schema_invalidation_resets_the_lattice() {
        let (catalog, _) = divisibility_catalog(&[1, 2, 4]);
        assert_eq!(catalog.classified_count(), 3);
        catalog.invalidate_concepts();
        assert_eq!(catalog.classified_count(), 0);
        assert!(catalog.lattice_edges().is_empty());
        assert!(catalog.lattice_violations().is_empty());
        // Reclassification rebuilds the same diagram.
        catalog.classify_pending(&mut DivisibilityOracle::new());
        let mut edges = catalog.lattice_edges();
        edges.sort();
        assert_eq!(edges.len(), 2);
        assert!(catalog.lattice_violations().is_empty());
    }
}
