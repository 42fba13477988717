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
//!   views up to date (incrementally, in one pass over the lattice
//!   order — see [`crate::maintain::propagate`]), and
//!   then *publishes* the result as one [`Snapshot`] with a single atomic
//!   swap ([`OptimizedDatabase::publish_snapshot`]);
//! * any number of **readers** ([`Reader`]) hold an `Arc` of a published
//!   snapshot and answer plans, view probes, and query executions against
//!   it with **no locking and no `&mut` on any shared structure** — a
//!   reader that keeps serving an old snapshot simply observes an older,
//!   internally consistent state (snapshot isolation; there is no
//!   write-write concurrency to reason about).
//!
//! A reader has no planner or executor of its own: [`Reader::plan`],
//! [`Reader::execute`] and [`Reader::explain`] lend the pinned snapshot
//! and the reader's private arena and cache to the one query path in
//! [`crate::planner`] — the code the writer runs over its live state.
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
//! the same memo — its arena is the canonical one, so its bound is
//! unlimited — and query shapes it has planned are pre-warmed for every
//! reader.

use crate::advisor::{ShapeEvent, ShapeRing, SHAPE_RING_CAPACITY};
use crate::planner::{self, ExecutionStats, ExplainReport, PlanContext, QueryPlan};
use crate::stats::Statistics;
use crate::store::{Database, ObjId};
use crate::views::MaterializedView;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};
use subq_calculus::{SharedSubsumptionMemo, SubsumptionCache};
use subq_concepts::schema::Schema;
use subq_concepts::symbol::Vocabulary;
use subq_concepts::term::{ConceptId, TermArena};
use subq_dl::QueryClassDecl;
use subq_translate::TranslatedModel;

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
    /// The shape rings of the writer and of every reader minted from this
    /// cell, harvested by the writer at the publish boundary. Touched only at reader
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
    /// Cardinality statistics, brought up to the pinned snapshot on first
    /// execution after [`Reader::sync`] adopted it. Published snapshots
    /// carry an empty log positioned at their version, so each catch-up
    /// is one full collection — the incremental path's truncation
    /// fallback.
    stats: Statistics,
    /// This reader's shape log: executions are pushed here (bounded)
    /// when the cell has recording enabled; the writer harvests at the
    /// publish boundary. See [`crate::advisor`].
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
            stats: Statistics::new(),
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
        true
    }

    /// `(hits, misses)` of this reader's private subsumption cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Lends the pinned snapshot and this reader's private arena and
    /// cache to the one query path. Verdicts about concepts below the
    /// frozen arena's size go through the snapshot's shared memo.
    fn context(&mut self) -> PlanContext<'_> {
        let snapshot = &*self.snapshot;
        PlanContext {
            db: &snapshot.db,
            views: &snapshot.views,
            schema: &snapshot.translated.schema,
            vocabulary: &mut self.vocabulary,
            arena: &mut self.arena,
            cache: &mut self.cache,
            memo: &snapshot.memo,
            shared_bound: self.shared_bound,
            stats: &self.stats,
            plan_ns: &crate::metrics::metrics().reader_plan_ns,
            shapes: self.cell.recording().then_some(&*self.shapes),
        }
    }

    /// Plans a query against the pinned snapshot's view lattice — the
    /// same planner as [`OptimizedDatabase::plan`] (see
    /// [`crate::planner`]), over the immutable published view list: no
    /// catalog lock, no classification pass (published views are
    /// classified), no writer involvement.
    pub fn plan(&mut self, query: &QueryClassDecl) -> QueryPlan {
        self.context().plan(query, None).unwrap_or_default()
    }

    /// Executes a query against the pinned snapshot — the same executor
    /// as [`OptimizedDatabase::execute`] (see [`crate::planner`]), all
    /// over immutable state.
    pub fn execute(&mut self, query: &QueryClassDecl) -> (BTreeSet<ObjId>, ExecutionStats) {
        let _span = crate::metrics::metrics().reader_execute_ns.span();
        self.stats.refresh(&self.snapshot.db);
        self.context().execute(query)
    }

    /// Executes a query against the pinned snapshot without using any
    /// materialized view.
    pub fn execute_unoptimized(&self, query: &QueryClassDecl) -> (BTreeSet<ObjId>, ExecutionStats) {
        planner::execute_unoptimized(&self.snapshot.db, query)
    }

    /// Whether one object is an answer of the query in the pinned
    /// snapshot (the membership check of [`crate::eval::is_member`], over
    /// immutable state).
    pub fn is_member(&self, query: &QueryClassDecl, object: ObjId) -> bool {
        crate::eval::is_member(&self.snapshot.db, query, object)
    }

    /// Explains how the query would be planned and executed against the
    /// pinned snapshot: the plan [`Reader::plan`] returns in this cache
    /// state, the per-view probe order, the pruned views, the cost
    /// model's estimate for each frontier member with the pick
    /// [`Reader::execute`] makes, and the narrowing order.
    pub fn explain(&mut self, query: &QueryClassDecl) -> ExplainReport {
        self.stats.refresh(&self.snapshot.db);
        self.context().explain(query)
    }
}
