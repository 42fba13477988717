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
//! reader clones the frozen arena and interns locally, so ids below the
//! frozen concept count denote identical terms in *every* clone — those
//! pairs go through the snapshot's shared, sharded
//! [`SharedSubsumptionMemo`]; pairs involving a locally interned concept
//! stay in the reader's private [`SubsumptionCache`] (which also keeps the
//! saturated fact closures, LRU-capped). The writer probes — plans and
//! lattice classification alike — through the same memo: its arena is the
//! canonical one, so its bound is unlimited, and every verdict it reaches
//! is pre-warmed for every reader.
//!
//! Both tiers are bounded. The memo admits only pairs below the frozen
//! concept count, so it holds at most (frozen concepts)² verdicts per
//! schema epoch and grows only when the writer interns. A reader's
//! private state — arena, vocabulary and cache — grows with every query
//! shape it has not seen; once it has interned more than
//! `PRIVATE_CONCEPT_BUDGET` concepts of its own, the next query first
//! rolls it back to the pinned frozen translation.

use crate::advisor::{ShapeEvent, ShapeRing, SHAPE_RING_CAPACITY};
use crate::planner::{self, ExecutionStats, ExplainReport, PlanContext, QueryPlan};
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

/// Most concepts a [`Reader`] interns on top of the frozen arena before
/// its next query rolls arena, vocabulary and cache back to the frozen
/// translation. Against a 240-view catalog a fresh query shape interns
/// about two concepts and caches about twenty verdicts, so the budget
/// spans some 8 000 fresh shapes and holds a reader's private state to
/// about 5 MiB; a reset costs one clone of the frozen arena and
/// vocabulary.
pub(crate) const PRIVATE_CONCEPT_BUDGET: usize = 16_384;

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

    /// Registers a new ring, pruning the rings of dropped readers first,
    /// so the registry is bounded by the live readers even when nobody
    /// harvests.
    pub(crate) fn register_ring(&self, ring: &Arc<ShapeRing>) {
        let mut rings = self.rings.lock().expect("shape ring registry poisoned");
        rings.retain(|weak| weak.strong_count() > 0);
        rings.push(Arc::downgrade(ring));
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
/// [`SharedSubsumptionMemo`], so readers warm each other. The private
/// state is rebuilt from the frozen translation whenever it has grown
/// past `PRIVATE_CONCEPT_BUDGET` concepts. The handle pins one snapshot
/// until [`Reader::sync`] adopts a newer one — in-between, every answer
/// is consistent with the pinned state.
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
    /// This reader's shape log: executions are pushed here (bounded)
    /// when the cell has recording enabled; the writer harvests at the
    /// publish boundary. See [`crate::advisor`].
    shapes: Arc<ShapeRing>,
}

impl Reader {
    pub(crate) fn new(cell: Arc<SnapshotCell>) -> Self {
        let snapshot = cell.load();
        let shapes = ShapeRing::new(SHAPE_RING_CAPACITY);
        cell.register_ring(&shapes);
        Reader {
            cell,
            vocabulary: snapshot.translated.vocabulary.clone(),
            arena: snapshot.translated.arena.clone(),
            snapshot,
            cache: SubsumptionCache::new(),
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
    /// change), the private state is reset — locally interned ids would
    /// otherwise collide with the new shared prefix. Data-only
    /// publications keep all private state. Adopting is
    /// also where a publication costs the read path time: the last
    /// reader to let go of the replaced snapshot frees whatever the
    /// writer copied since (`subq_reader_sync_ns`).
    pub fn sync(&mut self) -> bool {
        let latest = self.cell.load();
        if Arc::ptr_eq(&latest, &self.snapshot) {
            return false;
        }
        let _span = crate::metrics::metrics().reader_sync_ns.span();
        let retranslated = !Arc::ptr_eq(&latest.translated, &self.snapshot.translated);
        self.snapshot = latest;
        if retranslated {
            self.reset();
        }
        true
    }

    /// Rolls the private arena, vocabulary and cache back to the pinned
    /// frozen translation. The cache keeps its counters.
    fn reset(&mut self) {
        let translated = &self.snapshot.translated;
        self.vocabulary = translated.vocabulary.clone();
        self.arena = translated.arena.clone();
        self.cache.clear();
    }

    /// `(hits, misses)` of this reader's private subsumption cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Lends the pinned snapshot and this reader's private arena and
    /// cache to the one query path, after resetting them if they have
    /// outgrown `PRIVATE_CONCEPT_BUDGET`. Verdicts about concepts below
    /// the frozen arena's size go through the snapshot's shared memo.
    fn context(&mut self) -> PlanContext<'_> {
        let shared_bound = self.snapshot.translated.shared_bound();
        if self.arena.concept_count() - shared_bound > PRIVATE_CONCEPT_BUDGET {
            self.reset();
        }
        let snapshot = &*self.snapshot;
        PlanContext {
            db: &snapshot.db,
            views: &snapshot.views,
            schema: &snapshot.translated.schema,
            vocabulary: &mut self.vocabulary,
            arena: &mut self.arena,
            cache: &mut self.cache,
            memo: &snapshot.memo,
            shared_bound,
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
        self.context().explain(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::OptimizedDatabase;
    use subq_calculus::SubsumptionChecker;
    use subq_dl::{LabeledPath, PathFilter, PathStep};

    fn hospital_with_views(views: &[&str]) -> OptimizedDatabase {
        let mut odb = OptimizedDatabase::new(crate::store::tests::hospital()).expect("translates");
        for view in views {
            odb.materialize_view(view).expect("materializes");
        }
        odb.publish_snapshot();
        odb
    }

    fn query(name: String, is_a: &str, path: &[(&str, PathFilter)]) -> QueryClassDecl {
        let steps = path
            .iter()
            .map(|(attr, filter)| PathStep {
                attr: (*attr).to_owned(),
                filter: filter.clone(),
            })
            .collect();
        QueryClassDecl {
            name,
            is_a: vec![is_a.to_owned()],
            derived: vec![LabeledPath { label: None, steps }],
            where_eqs: vec![],
            constraint: None,
        }
    }

    fn private_concepts(reader: &Reader) -> usize {
        reader.arena.concept_count() - reader.snapshot.translated.shared_bound()
    }

    /// Readers created and dropped one after another leave the shape-ring
    /// registry at the live readers plus the writer's own ring, whether or
    /// not anybody harvests.
    #[test]
    fn ring_registry_is_bounded_by_live_readers() {
        let odb = hospital_with_views(&[]);
        for _ in 0..10_000 {
            let reader = odb.reader();
            let registered = odb.cell.rings.lock().expect("registry").len();
            assert!(registered <= 2, "{registered} rings for one live reader");
            drop(reader);
        }
    }

    /// One reader driven through twice its concept budget with distinct
    /// queries resets at least twice, never holds more than the budget
    /// plus one query's concepts, keeps its cache counters, and answers
    /// every query — on both sides of each reset — exactly like the
    /// unoptimized evaluation.
    #[test]
    fn reader_private_state_stays_within_its_budget() {
        const CLASSES: [&str; 8] = [
            "Person", "Patient", "Doctor", "Male", "Female", "Drug", "Disease", "String",
        ];
        const ATTRS: [&str; 5] = ["takes", "consults", "suffers", "name", "skilled_in"];
        // The budget is checked before a query translates, so the query
        // that crosses it may overshoot until the next one resets.
        const ONE_QUERY: usize = 64;
        let odb = hospital_with_views(&["Patient", "Doctor"]);
        let mut reader = odb.reader();
        // Repeated shapes with non-empty answers, re-interned after every
        // reset: a verdict or normal form surviving a reset would misroute
        // them.
        let anchors = [
            query("Named".into(), "Person", &[("name", PathFilter::Any)]),
            query(
                "NamedPatient".into(),
                "Patient",
                &[("name", PathFilter::Any)],
            ),
            query(
                "Skilled".into(),
                "Doctor",
                &[("skilled_in", PathFilter::Class("Disease".into()))],
            ),
        ];
        let fresh = |i: u64| {
            let path: Vec<(&str, PathFilter)> = (0..5)
                .map(|digit| {
                    let class = CLASSES[((i / 4) >> (3 * digit)) as usize % CLASSES.len()];
                    (ATTRS[digit], PathFilter::Class(class.to_owned()))
                })
                .collect();
            query(format!("F{i}"), CLASSES[i as usize % 4], &path)
        };
        let (mut resets, mut previous, mut misses, mut i) = (0, 0, 0, 0u64);
        while resets < 2 {
            let q = if i % 16 == 0 {
                anchors[(i / 16) as usize % anchors.len()].clone()
            } else {
                fresh(i)
            };
            let (answers, _) = reader.execute(&q);
            assert_eq!(answers, reader.execute_unoptimized(&q).0, "query {i}");
            let private = private_concepts(&reader);
            if previous > PRIVATE_CONCEPT_BUDGET {
                assert!(private <= ONE_QUERY, "query {i} did not reset");
                resets += 1;
            } else {
                assert!(private >= previous, "query {i} reset early");
            }
            assert!(private <= PRIVATE_CONCEPT_BUDGET + ONE_QUERY);
            assert!(reader.cache_stats().1 >= misses, "counters survive resets");
            (previous, misses) = (private, reader.cache_stats().1);
            i += 1;
        }
    }

    /// Lattice classification probes through the shared memo: after
    /// `materialize_view` + `publish_snapshot`, a reader asking a
    /// view-vs-parent pair on the one cached path answers from the memo
    /// without a fact saturation.
    #[test]
    fn classification_verdicts_warm_the_readers() {
        let odb = hospital_with_views(&["Patient", "ViewPatient"]);
        let mut reader = odb.reader();
        let snapshot = reader.snapshot().clone();
        let concept = |name| {
            snapshot
                .view(name)
                .and_then(|v| v.concept)
                .expect("classified")
        };
        let (view, parent) = (concept("ViewPatient"), concept("Patient"));
        let (memo_hits, _) = snapshot.shared_memo_stats();
        let verdict = SubsumptionChecker::new(&snapshot.translated.schema).probe(
            &mut reader.arena,
            view,
            parent,
            &mut reader.cache,
            &snapshot.memo,
            snapshot.translated.shared_bound(),
        );
        assert!(verdict.holds());
        assert_eq!(reader.cache.saturation_stats(), (0, 0));
        assert_eq!(reader.cache_stats(), (1, 0));
        assert_eq!(snapshot.shared_memo_stats().0, memo_hits + 1);
    }
}
