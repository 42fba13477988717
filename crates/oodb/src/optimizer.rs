//! The writer: engine lifecycle, transactions, publication and durability
//! around the one query path.
//!
//! [`OptimizedDatabase`] owns the live state — the store, its structural
//! translation, the view catalog with its subsumption lattice, the
//! subsumption cache — and is the single place that mutates it. There is
//! one write sequence, whatever the store:
//! update → WAL append → fsync → publish → acknowledge.
//! [`OptimizedDatabase::commit_durable`] applies and logs a transaction,
//! [`OptimizedDatabase::sync_durable`] ends a group-commit batch, and
//! [`OptimizedDatabase::checkpoint`] writes an image; each of them hands
//! the result to the lock-free [`Reader`]s only once its log is on disk
//! (the one snapshot swap takes a `Synced` proof, which only a sync
//! mints). [`OptimizedDatabase::update`] bypasses the log: its deltas
//! reach readers with the next publication and disk with the next image.
//! A store built with [`OptimizedDatabase::new`] is volatile only
//! because its engine writes to a
//! [`DiscardBackend`](crate::durable::DiscardBackend), which keeps
//! nothing and syncs at once; [`OptimizedDatabase::open`] ties the same
//! engine to a real backend (see [`crate::durable`]).
//!
//! Queries are **not** implemented here. [`OptimizedDatabase::plan`],
//! [`OptimizedDatabase::execute`] and friends lend the live state to a
//! [`crate::planner`] context — the same planner and executor a
//! [`Reader`] runs over its pinned snapshot — after the two steps only
//! the writer can take: classifying views that are pending in the
//! lattice and refreshing stale extensions. The writer never answers
//! from its own published snapshot: an [`OptimizedDatabase::update`] that
//! has not been published is visible to the writer's own queries and to
//! nobody else. The advisor's driver (`run_advisor`) lives beside the
//! advisor in [`crate::advisor`].

use crate::advisor::{Advisor, ShapeRing, SHAPE_RING_CAPACITY};
use crate::durable::{
    recover, DurabilityStats, DurableEngine, DurableError, DurableOptions, StorageBackend, Synced,
};
use crate::maintain::Delta;
use crate::planner::{self, ExecutionStats, PlanContext, QueryPlan};
use crate::snapshot::{FrozenTranslation, Reader, Snapshot, SnapshotCell};
use crate::store::{Database, ObjId};
use crate::views::{ClassifyOracle, ViewCatalog, ViewError};
use std::collections::BTreeSet;
use std::sync::Arc;
use subq_calculus::{SharedSubsumptionMemo, SubsumptionCache, SubsumptionChecker};
use subq_concepts::term::{ConceptId, TermArena};
use subq_dl::QueryClassDecl;
use subq_translate::{translate_query, TranslateError, TranslatedModel};

/// A database bundled with its structural translation, a view catalog, and
/// the subsumption checker glue.
pub struct OptimizedDatabase {
    pub(crate) db: Database,
    translated: TranslatedModel,
    pub(crate) catalog: ViewCatalog,
    /// Memoized `(query, view) → verdict` table plus the saturated fact
    /// closures behind it. Subsumption depends only on the translated
    /// schema and the concepts, never on the database *state*, so the
    /// cache survives data updates and view refreshes unchanged — but a
    /// schema mutation re-translates the model and drops it wholesale
    /// (see [`OptimizedDatabase::update`]).
    subsumption_cache: SubsumptionCache,
    /// The verdict level shared with every [`Reader`] of the current
    /// schema epoch: writer probes — plans and lattice classification
    /// alike — publish into it, so every pair the writer has decided is
    /// pre-warmed for all readers. Replaced wholesale on schema mutation.
    memo: Arc<SharedSubsumptionMemo>,
    /// The publication point readers attach to.
    pub(crate) cell: Arc<SnapshotCell>,
    /// The frozen translation of the last publication, with the arena
    /// fingerprint it was taken at — rebuilt only when the writer has
    /// interned new concepts since (data-only churn publishes without
    /// cloning the arena).
    frozen: Option<(Arc<FrozenTranslation>, (u64, usize, usize))>,
    /// The durable engine: [`OptimizedDatabase::commit_durable`]
    /// write-ahead logs every transaction before publishing, and
    /// [`OptimizedDatabase::checkpoint`] compacts the log into an image.
    /// Over a [`DiscardBackend`](crate::durable::DiscardBackend) unless
    /// opened through [`OptimizedDatabase::open`].
    pub(crate) durable: DurableEngine,
    /// The workload-adaptive view advisor (see [`crate::advisor`]):
    /// mined shapes, budget, and lifecycle counters. Acts only inside
    /// [`OptimizedDatabase::run_advisor`].
    pub(crate) advisor: Advisor,
    /// Shapes recorded by the writer's own executions — a ring like
    /// every reader's, registered with the cell and harvested with
    /// theirs.
    shapes: Arc<ShapeRing>,
}

impl OptimizedDatabase {
    /// Wraps a database, translating its model into SL/QL once, and
    /// publishes the initial snapshot. The store is volatile: its engine
    /// logs to a [`DiscardBackend`](crate::durable::DiscardBackend), so
    /// nothing survives the process.
    pub fn new(db: Database) -> Result<Self, TranslateError> {
        let translated = subq_translate::translate_model(db.model())?;
        let memo = Arc::new(SharedSubsumptionMemo::new());
        let frozen_translation = Arc::new(FrozenTranslation::of(&translated));
        let fingerprint = (
            db.schema_version(),
            translated.arena.concept_count(),
            translated.arena.path_count(),
        );
        let cell = Arc::new(SnapshotCell::new(Arc::new(Snapshot {
            db: db.snapshot_clone(),
            views: Vec::new(),
            translated: frozen_translation.clone(),
            memo: memo.clone(),
        })));
        let shapes = ShapeRing::new(SHAPE_RING_CAPACITY);
        cell.register_ring(&shapes);
        let durable = DurableEngine::discarding(db.data_version());
        Ok(OptimizedDatabase {
            db,
            translated,
            catalog: ViewCatalog::new(),
            subsumption_cache: SubsumptionCache::new(),
            memo,
            cell,
            frozen: Some((frozen_translation, fingerprint)),
            durable,
            advisor: Advisor::default(),
            shapes,
        })
    }

    /// Opens a durable database over `backend`: loads the newest valid
    /// checkpoint image, replays the WAL suffix (truncating any torn or
    /// corrupt tail), restores and re-classifies the materialized views,
    /// and publishes the recovered state. When the backend holds no
    /// image at all, `initial` supplies the genesis state, which is
    /// checkpointed immediately so the first commit already has an image
    /// to recover against.
    ///
    /// The recovered state is always the committed history cut at a
    /// transaction boundary — never a partial transaction, never a
    /// transaction that was not durably logged.
    pub fn open(
        backend: Arc<dyn StorageBackend>,
        options: DurableOptions,
        initial: impl FnOnce() -> Database,
    ) -> Result<Self, DurableError> {
        let _span = crate::metrics::metrics().recovery_ns.span();
        let mut stats = DurabilityStats::default();
        let recovered = recover::recover(backend.as_ref(), &mut stats)?;
        let genesis = recovered.is_none();
        let recovered = recovered.unwrap_or_else(|| recover::Recovered {
            db: initial(),
            views: Vec::new(),
            edges: Vec::new(),
        });
        let mut odb = OptimizedDatabase::new(recovered.db)
            .map_err(|e| DurableError::Corrupt(format!("the model does not translate: {e:?}")))?;
        odb.durable = DurableEngine::resume(backend, options, odb.db.data_version(), stats);
        // Restore the views under their image-stamped freshness: replayed
        // suffix deltas sit in the in-memory log with base = image
        // version, so the next refresh propagates exactly what the image
        // had not seen. Definitions are recovered from the model — every
        // view names a declared query class or a schema class
        // (materialized as the trivial `isA C`).
        let mut restored = Vec::with_capacity(recovered.views.len());
        for (name, fresh_as_of, extent) in recovered.views {
            let definition = Self::view_definition(&odb.db, &name).ok_or_else(|| {
                DurableError::Corrupt(format!(
                    "checkpoint view {name} is not declared by the recovered model"
                ))
            })?;
            restored.push((Arc::new(definition), Arc::new(extent), fresh_as_of));
        }
        odb.catalog.restore(restored);
        odb.classify_catalog();
        // Re-classification must reproduce the Hasse diagram the image
        // recorded: subsumption depends only on the schema and the
        // definitions, both of which the image carries.
        let mut derived = odb.catalog.lattice_edges();
        derived.sort();
        let mut recorded = recovered.edges;
        recorded.sort();
        if derived != recorded {
            return Err(DurableError::Corrupt(
                "re-classified lattice disagrees with the checkpointed edges".into(),
            ));
        }
        if genesis {
            odb.checkpoint()?;
        } else {
            odb.publish_snapshot();
        }
        Ok(odb)
    }

    /// Read access to the underlying database.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The view catalog.
    pub fn catalog(&self) -> &ViewCatalog {
        &self.catalog
    }

    /// `(hits, misses)` of the subsumption memo table since construction.
    pub fn subsumption_cache_stats(&self) -> (u64, u64) {
        self.subsumption_cache.stats()
    }

    /// Mutates the database state as one transaction. Data mutations are
    /// routed through the store's delta log, so no explicit invalidation
    /// happens here: staleness is the per-view comparison of
    /// [`MaterializedView::fresh_as_of`](crate::views::MaterializedView)
    /// against [`Database::data_version`], and the next refresh (lazily,
    /// on [`OptimizedDatabase::execute`], or eagerly via
    /// [`OptimizedDatabase::refresh_views`]) propagates exactly this
    /// transaction's deltas to exactly the affected views — the counters
    /// are available through [`OptimizedDatabase::maintenance_stats`].
    /// Log entries every view has already consumed are truncated on
    /// entry, bounding the log by the churn since the staleest view.
    /// Nothing is logged or published: the next
    /// [`OptimizedDatabase::commit_durable`] or
    /// [`OptimizedDatabase::checkpoint`] makes it durable through an image.
    ///
    /// If the closure also mutates the *schema* (through
    /// [`Database::model_mut`]), the structural translation is redone and
    /// every piece of state derived from the old one is dropped: the
    /// subsumption cache (verdicts and saturated queries — they answer
    /// with respect to the old Σ and point into the old arena), the
    /// catalog's cached view concepts, and — since schema changes can
    /// alter evaluation semantics without producing data deltas — every
    /// materialized extension (forced full re-derivation on the next
    /// refresh). Data-only updates keep all of it: subsumption never
    /// depends on the database state.
    ///
    /// # Panics
    ///
    /// Panics if the mutated model no longer translates; schema evolution
    /// must keep the model structurally well formed.
    pub fn update<R>(&mut self, mutate: impl FnOnce(&mut Database) -> R) -> R {
        // Only this transaction's deltas may still be missing from disk:
        // earlier ones are logged, or — after an unlogged `update` — are
        // covered by the image the next `commit_durable` takes first. Pin
        // just these against the log cap until the WAL has them.
        self.db.set_durable_floor(self.db.data_version());
        if let Some(oldest) = self.catalog.oldest_snapshot() {
            self.db.truncate_log(oldest);
        } else {
            // No views to maintain: nothing will ever replay the log.
            self.db.truncate_log(self.db.data_version());
        }
        let version_before = self.db.schema_version();
        let result = mutate(&mut self.db);
        if self.db.schema_version() != version_before {
            self.translated = subq_translate::translate_model(self.db.model())
                .expect("schema mutation left the model untranslatable");
            self.subsumption_cache.clear();
            // The shared memo answers with respect to the old Σ and old
            // arena ids: start a fresh epoch (readers on old snapshots
            // keep the old memo, consistent with their old arenas).
            self.memo = Arc::new(SharedSubsumptionMemo::new());
            self.frozen = None;
            self.catalog.invalidate_concepts();
            // Schema changes can alter evaluation semantics (query-class
            // definitions, synonym resolution, isA recursion) without a
            // single data delta — force full re-derivation of every
            // extension.
            self.catalog.invalidate();
        }
        result
    }

    /// Brings every materialized view up to the current data version by
    /// incremental propagation (see [`crate::maintain`]); called lazily by
    /// [`OptimizedDatabase::execute`], exposed for callers that want to
    /// refresh eagerly or measure maintenance work in isolation.
    pub fn refresh_views(&self) {
        self.catalog.refresh(&self.db);
    }

    /// The cumulative counters of the incremental view maintainer.
    pub fn maintenance_stats(&self) -> crate::maintain::MaintenanceStats {
        self.catalog.maintenance_stats()
    }

    /// Mutates the database as one transaction
    /// ([`OptimizedDatabase::update`]) and runs the write sequence on it:
    /// the append of its delta batch to the write-ahead log, the refresh
    /// of the materialized views, and the publication of the refreshed
    /// state — once its record is on disk. The append fsyncs when it
    /// fills a [`DurableOptions::group_commit`] group; before that the
    /// refreshed state is only staged, the snapshot cell keeps the last
    /// synced state, and [`OptimizedDatabase::sync_durable`] publishes
    /// it. A volatile store syncs at once, so every commit publishes.
    /// `AddObject` deltas are logged with the names the store minted, so
    /// replay reproduces the name table exactly. A transaction that
    /// mutated the schema is not expressible as data deltas — it
    /// triggers an immediate [`OptimizedDatabase::checkpoint`] instead,
    /// making the new model durable through the image. So does an
    /// unlogged [`OptimizedDatabase::update`] since the last commit: the
    /// checkpoint comes first, because the WAL cannot chain over its
    /// deltas.
    ///
    /// On an I/O error the in-memory mutation has already happened but
    /// was neither made durable nor published; the caller should treat
    /// the database as lost (that is the crash the recovery suite
    /// drills).
    pub fn commit_durable<R>(
        &mut self,
        mutate: impl FnOnce(&mut Database) -> R,
    ) -> Result<R, DurableError> {
        let _span = crate::metrics::metrics().commit_publish_ns.span();
        if self.db.data_version() != self.durable.logged_version() {
            // An unlogged `update` left a gap the WAL cannot chain over:
            // an image makes those deltas durable and realigns the log.
            self.checkpoint()?;
        }
        let version_before = self.db.data_version();
        let schema_before = self.db.schema_version();
        let result = self.update(mutate);
        let deltas: Vec<(Delta, Option<String>)> = self
            .db
            .delta_log()
            .since(version_before)
            .expect("the durable floor pins entries the WAL has not seen")
            .map(|(_, delta)| {
                let name = match delta {
                    Delta::AddObject { object } => Some(self.db.object_name(*object).to_owned()),
                    _ => None,
                };
                (delta.clone(), name)
            })
            .collect();
        if !deltas.is_empty() {
            self.durable.log_transaction(version_before, deltas)?;
            // Appended records are on the log (an OS crash may still
            // lose the unsynced tail — recovery truncates it); the
            // in-memory delta log no longer needs to pin them for
            // durability.
            self.db.set_durable_floor(self.db.data_version());
        }
        if self.db.schema_version() != schema_before {
            self.checkpoint()?;
        } else {
            self.publish_snapshot();
        }
        Ok(result)
    }

    /// Serializes the current state into a checkpoint image — model,
    /// object names, extents, attribute postings, and the view catalog
    /// with its lattice edges, written atomically — and then publishes
    /// it. The order is: classify and refresh the catalog, sync the WAL
    /// and write the image, swap the snapshot cell. A view or schema
    /// change therefore becomes visible to readers only once it is on
    /// disk; when the image fails, the published snapshot is the one
    /// before the call. The WAL prefix the image covers (all of it — the
    /// image is taken at the current version) is dropped, bounding
    /// recovery time by the churn since the last checkpoint instead of
    /// the full history. Returns the image's data version.
    pub fn checkpoint(&mut self) -> Result<u64, DurableError> {
        let _span = crate::metrics::metrics().checkpoint_ns.span();
        // Refreshing first is what makes stamping every view with the
        // image version sound: each view is either refreshed through the
        // current version or confirmed untouched by the deltas in
        // between.
        self.stage();
        let synced = self.durable.checkpoint(&self.db, &self.catalog)?;
        let version = synced.version();
        self.publish(synced);
        Ok(version)
    }

    /// Forces the pending group-commit batch to stable storage, then
    /// publishes the state it covers if readers are behind it, and
    /// returns the durability watermark: every transaction at or below it
    /// survives any crash.
    pub fn sync_durable(&mut self) -> Result<u64, DurableError> {
        let synced = self.durable.sync()?;
        let version = synced.version();
        if self.cell.load().data_version() < self.db.data_version() {
            self.publish(synced);
        }
        Ok(version)
    }

    /// The durable engine's cumulative counters. Always `Some`: a
    /// volatile store counts the records and images its backend drops.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        Some(self.durable.stats().clone())
    }

    /// Publishes the current state as an immutable [`Snapshot`] if the
    /// log has nothing unsynced, and returns the published snapshot.
    /// Either way it brings every view up to the current data version
    /// first, so the pair (state, extensions) is internally consistent
    /// whenever it is swapped in. While a group-commit batch awaits its
    /// fsync the cell keeps the last synced state: this hardens every
    /// caller, and [`OptimizedDatabase::sync_durable`] publishes the
    /// batch. Mutations made through [`OptimizedDatabase::update`] are
    /// never logged; they reach readers with the next publication.
    pub fn publish_snapshot(&mut self) -> Arc<Snapshot> {
        match self.durable.synced() {
            Some(synced) => self.publish(synced),
            None => {
                self.stage();
                self.snapshot()
            }
        }
    }

    /// Classifies pending views and refreshes stale extensions: what a
    /// publication needs and only the writer can do.
    fn stage(&mut self) {
        // Published views must be classified — readers have no oracle to
        // classify with, and an unclassified catalog would traverse (and
        // accelerate) nothing. Pending views exist after raw
        // materialization or a schema mutation reset the lattice.
        self.classify_catalog();
        self.catalog.refresh(&self.db);
    }

    /// The one snapshot swap. It takes the proof of a sync, so a reader
    /// never adopts a logged transaction before its record is on disk
    /// (unlogged [`OptimizedDatabase::update`]s ride along). The publication
    /// itself clones one `Arc` per class, attribute, name chunk and view;
    /// what a transaction pays for being published is the copy its
    /// *next* mutation makes of whatever it touches that the snapshot now
    /// shares — a class extent, a view extension, one forward and one
    /// reverse id-range chunk per attribute pair (see [`crate::store`]) —
    /// and a reader pays for freeing the replaced copies when it lets the
    /// old snapshot go. Neither depends on how much of the store the
    /// transaction left alone.
    fn publish(&mut self, _synced: Synced) -> Arc<Snapshot> {
        self.stage();
        let translated = self.frozen_translation();
        let snapshot = Arc::new(Snapshot {
            db: self.db.snapshot_clone(),
            views: self.catalog.snapshot(),
            translated,
            memo: self.memo.clone(),
        });
        self.cell.store(snapshot.clone());
        snapshot
    }

    /// The latest published snapshot.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.cell.load()
    }

    /// A new lock-free read handle over the published snapshots. Hand one
    /// to each reader thread; the writer keeps mutating and publishing
    /// concurrently, and readers adopt newer snapshots via
    /// [`Reader::sync`] whenever they choose.
    pub fn reader(&self) -> Reader {
        Reader::new(self.cell.clone())
    }

    /// The shared publication cell. A server hands this to its worker
    /// threads *before* moving the database into its writer thread; each
    /// worker then mints its own [`Reader`] via [`SnapshotCell::reader`]
    /// and follows publications without ever touching the writer.
    pub fn snapshot_cell(&self) -> Arc<SnapshotCell> {
        self.cell.clone()
    }

    /// The frozen translation for the next snapshot, recloned from the
    /// live one only when the writer interned new concepts (or the schema
    /// epoch changed) since the last publication.
    fn frozen_translation(&mut self) -> Arc<FrozenTranslation> {
        let fingerprint = (
            self.db.schema_version(),
            self.translated.arena.concept_count(),
            self.translated.arena.path_count(),
        );
        match &self.frozen {
            Some((frozen, at)) if *at == fingerprint => frozen.clone(),
            _ => {
                let frozen = Arc::new(FrozenTranslation::of(&self.translated));
                self.frozen = Some((frozen.clone(), fingerprint));
                frozen
            }
        }
    }

    /// Materializes a view: the name must denote a structural query class,
    /// or a schema class (which the paper notes can always be turned into a
    /// query class `isA C`). The new view is classified into the catalog's
    /// subsumption lattice immediately — one fact saturation for its
    /// top-down parent search, goal-side probes for the rest (reusing the
    /// cached closures of the views already classified).
    pub fn materialize_view(&mut self, name: &str) -> Result<(), ViewError> {
        let definition =
            Self::view_definition(&self.db, name).ok_or_else(|| ViewError::UnknownQuery {
                query: name.to_owned(),
            })?;
        self.catalog.materialize(&self.db, &definition)?;
        self.classify_catalog();
        Ok(())
    }

    /// The definition a view name denotes: the declared query class, or
    /// the trivial `isA C` query synthesized for a schema class `C`.
    /// Checkpoint images store only the name — this lookup is what makes
    /// the name recoverable as a definition.
    fn view_definition(db: &Database, name: &str) -> Option<QueryClassDecl> {
        if let Some(query) = db.model().query_class(name) {
            Some(query.clone())
        } else if db.model().class(name).is_some() {
            Some(QueryClassDecl {
                name: name.to_owned(),
                is_a: vec![name.to_owned()],
                derived: vec![],
                where_eqs: vec![],
                constraint: None,
            })
        } else {
            None
        }
    }

    /// Inserts every not-yet-classified view into the subsumption lattice.
    /// Called after materialization, before publication, and before every
    /// plan — so that a schema change, which resets the lattice, is
    /// repaired first and classification probes are never attributed to a
    /// plan's counters.
    fn classify_catalog(&mut self) {
        let mut oracle = DatabaseOracle {
            db: &self.db,
            queries: &self.translated.queries,
            vocabulary: &mut self.translated.vocabulary,
            arena: &mut self.translated.arena,
            cache: &mut self.subsumption_cache,
            memo: &self.memo,
            checker: SubsumptionChecker::new(&self.translated.schema),
        };
        self.catalog.classify_pending(&mut oracle);
    }

    /// Runs `query_path` over the writer's live state: the catalog under
    /// its read guard, the writer's own translation and cache. The
    /// writer's arena is the canonical one, so every concept id is
    /// shareable through the memo (no bound) and a shape planned here is
    /// pre-warmed for every reader of the current epoch.
    fn with_context<R>(&mut self, query_path: impl FnOnce(&mut PlanContext<'_>) -> R) -> R {
        let views = self.catalog.read();
        query_path(&mut PlanContext {
            db: &self.db,
            views: &views,
            schema: &self.translated.schema,
            vocabulary: &mut self.translated.vocabulary,
            arena: &mut self.translated.arena,
            cache: &mut self.subsumption_cache,
            memo: &self.memo,
            shared_bound: usize::MAX,
            plan_ns: &crate::metrics::metrics().plan_ns,
            shapes: self.cell.recording().then_some(&*self.shapes),
        })
    }

    /// Computes the evaluation plan for a query by traversing the view
    /// lattice from its roots; the reported views are the
    /// maximal-specific subsuming frontier (see [`crate::planner`]).
    pub fn plan(&mut self, query: &QueryClassDecl) -> QueryPlan {
        self.classify_catalog();
        self.with_context(|context| context.plan(query, None))
            .unwrap_or_default()
    }

    /// The flat reference planner: probes the query against **every**
    /// materialized view and reports all subsuming views, smallest
    /// extension first. Kept as the baseline the lattice traversal is
    /// verified against and measured relative to (experiment E9); every
    /// `QueryPlan` field carries the flat scan's honest value, so the two
    /// planners diff field by field.
    pub fn plan_flat(&mut self, query: &QueryClassDecl) -> QueryPlan {
        self.classify_catalog();
        self.with_context(|context| context.plan_flat(query))
    }

    /// Whether the concept of view `sub` is Σ-subsumed by the concept of
    /// view `sup` (both must be materialized and translatable). This is
    /// the probe the lattice classification is built from, exposed so
    /// tests can verify the classified edges against direct pairwise
    /// checks.
    pub fn view_subsumes(&mut self, sub: &str, sup: &str) -> Option<bool> {
        self.classify_catalog();
        let concept_of = |name: &str| self.catalog.view(name)?.concept;
        let (a, b) = (concept_of(sub)?, concept_of(sup)?);
        let checker = SubsumptionChecker::new(&self.translated.schema);
        let verdict = checker.probe(
            &mut self.translated.arena,
            a,
            b,
            &mut self.subsumption_cache,
            &self.memo,
            usize::MAX,
        );
        Some(verdict.holds())
    }

    /// Executes a query with the optimizer: refreshes stale views, then
    /// plans, chooses the cheapest frontier member and filters its
    /// narrowed extension (see [`crate::planner`]). Falls back to a full
    /// evaluation when no view subsumes the query.
    pub fn execute(&mut self, query: &QueryClassDecl) -> (BTreeSet<ObjId>, ExecutionStats) {
        let _span = crate::metrics::metrics().execute_ns.span();
        self.catalog.refresh(&self.db);
        self.classify_catalog();
        self.with_context(|context| context.execute(query))
    }

    /// Executes a query without using any materialized view (the baseline
    /// the paper's optimization is compared against).
    pub fn execute_unoptimized(&self, query: &QueryClassDecl) -> (BTreeSet<ObjId>, ExecutionStats) {
        planner::execute_unoptimized(&self.db, query)
    }
}

/// The lattice-classification oracle of an optimized database: translates
/// view definitions with the shared vocabulary and arena (preferring the
/// model's pre-translated query classes) and answers view-vs-view
/// subsumption probes through the writer's cache and the shared memo —
/// the path plans take — so each view's fact closure is saturated at most
/// once across all insertions, and every verdict is published for the
/// readers of the epoch.
struct DatabaseOracle<'a> {
    db: &'a Database,
    queries: &'a std::collections::HashMap<String, ConceptId>,
    vocabulary: &'a mut subq_concepts::symbol::Vocabulary,
    arena: &'a mut TermArena,
    cache: &'a mut SubsumptionCache,
    memo: &'a SharedSubsumptionMemo,
    checker: SubsumptionChecker<'a>,
}

impl ClassifyOracle for DatabaseOracle<'_> {
    fn concept_of(&mut self, definition: &QueryClassDecl) -> Option<ConceptId> {
        // The model's pre-translated query classes first, a fresh
        // translation of the definition otherwise (e.g. for the
        // synthesized `isA C` views of schema classes). Looked up once
        // per view, at classification; the catalog caches the result.
        self.queries.get(&definition.name).copied().or_else(|| {
            translate_query(definition, self.db.model(), self.vocabulary, self.arena).ok()
        })
    }

    fn subsumes(&mut self, sub: ConceptId, sup: ConceptId) -> bool {
        self.checker
            .probe(self.arena, sub, sup, self.cache, self.memo, usize::MAX)
            .holds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subq_dl::samples;

    fn hospital_with_many_patients(extra: usize) -> Database {
        let mut db = crate::store::tests::hospital();
        let welby = db.object("welby").expect("exists");
        let flu = db.object("flu").expect("exists");
        let aspirin = db.object("Aspirin").expect("exists");
        // One fully-matching male patient.
        let john = db.add_object("john");
        let john_name = db.add_object("john_name");
        db.assert_class(john, "Patient");
        db.assert_class(john, "Male");
        db.assert_class(john_name, "String");
        db.assert_attr(john, "suffers", flu);
        db.assert_attr(john, "consults", welby);
        db.assert_attr(john, "takes", aspirin);
        db.assert_attr(john, "name", john_name);
        // Many male patients that do not consult anyone: they are scanned
        // by a from-scratch evaluation of QueryPatient (they are in all its
        // superclasses) but are absent from ViewPatient's extension.
        for i in 0..extra {
            let p = db.add_object(&format!("p{i}"));
            let n = db.add_object(&format!("p{i}_name"));
            db.assert_class(p, "Patient");
            db.assert_class(p, "Male");
            db.assert_class(n, "String");
            db.assert_attr(p, "suffers", flu);
            db.assert_attr(p, "name", n);
        }
        db
    }

    #[test]
    fn plan_finds_the_subsuming_view() {
        let db = hospital_with_many_patients(10);
        let model = samples::medical_model();
        let mut odb = OptimizedDatabase::new(db).expect("translates");
        odb.materialize_view("ViewPatient").expect("materializes");
        let query = model.query_class("QueryPatient").expect("declared");
        let plan = odb.plan(query);
        assert_eq!(plan.subsuming_views, vec!["ViewPatient".to_owned()]);
        assert_eq!(plan.chosen_view.as_deref(), Some("ViewPatient"));
    }

    #[test]
    fn optimized_and_unoptimized_execution_agree() {
        let db = hospital_with_many_patients(25);
        let model = samples::medical_model();
        let mut odb = OptimizedDatabase::new(db).expect("translates");
        odb.materialize_view("ViewPatient").expect("materializes");
        let query = model.query_class("QueryPatient").expect("declared");
        let (optimized, opt_stats) = odb.execute(query);
        let (baseline, base_stats) = odb.execute_unoptimized(query);
        assert_eq!(optimized, baseline);
        assert_eq!(opt_stats.answers, base_stats.answers);
        assert_eq!(opt_stats.used_view.as_deref(), Some("ViewPatient"));
        assert!(base_stats.used_view.is_none());
        assert!(
            opt_stats.candidates_examined < base_stats.candidates_examined,
            "the view filter must shrink the search space ({} vs {})",
            opt_stats.candidates_examined,
            base_stats.candidates_examined
        );
    }

    #[test]
    fn repeated_plans_are_answered_from_the_subsumption_cache() {
        let db = hospital_with_many_patients(10);
        let model = samples::medical_model();
        let mut odb = OptimizedDatabase::new(db).expect("translates");
        odb.materialize_view("ViewPatient").expect("materializes");
        odb.materialize_view("Person").expect("materializes");
        let query = model.query_class("QueryPatient").expect("declared");

        let first = odb.plan(query);
        assert_eq!(first.cached_probes, 0);
        assert_eq!(first.fresh_probes, 2);

        let second = odb.plan(query);
        assert_eq!(second.subsuming_views, first.subsuming_views);
        assert_eq!(second.chosen_view, first.chosen_view);
        assert_eq!(second.cached_probes, 2);
        assert_eq!(second.fresh_probes, 0);

        // Database updates invalidate view extents but not subsumption:
        // the memo table keeps answering.
        odb.update(|db| {
            let p = db.add_object("extra");
            db.assert_class(p, "Patient");
        });
        let (answers_a, _) = odb.execute(query);
        let third = odb.plan(query);
        assert_eq!(third.cached_probes, 2);
        assert_eq!(third.fresh_probes, 0);
        let (answers_b, _) = odb.execute(query);
        assert_eq!(answers_a, answers_b);
        let (hits, misses) = odb.subsumption_cache_stats();
        assert!(hits >= 2 * misses, "hits {hits} misses {misses}");
    }

    /// The acceptance criterion of the two-phase split: planning against
    /// N fresh views performs exactly one fact saturation (plus N goal
    /// probes), and repeat plans perform none at all.
    #[test]
    fn planning_against_n_fresh_views_saturates_the_query_once() {
        let db = hospital_with_many_patients(10);
        let model = samples::medical_model();
        let mut odb = OptimizedDatabase::new(db).expect("translates");
        for view in ["ViewPatient", "Person", "Patient", "Doctor", "Male"] {
            odb.materialize_view(view).expect("materializes");
        }
        let query = model.query_class("QueryPatient").expect("declared");

        let first = odb.plan(query);
        assert_eq!(first.fresh_probes, 5);
        assert_eq!(
            first.fact_saturations, 1,
            "all five fresh probes must fork one saturated query"
        );

        let second = odb.plan(query);
        assert_eq!(second.cached_probes, 5);
        assert_eq!(second.fresh_probes, 0);
        assert_eq!(second.fact_saturations, 0);

        // A view added later: its first probe reuses the retained
        // saturated query — still no new saturation.
        odb.materialize_view("Female").expect("materializes");
        let third = odb.plan(query);
        assert_eq!(third.cached_probes, 5);
        assert_eq!(third.fresh_probes, 1);
        assert_eq!(third.fact_saturations, 0);
        assert_eq!(third.subsuming_views, first.subsuming_views);
    }

    /// View concepts are translated once — at classification time — and
    /// cached in the catalog; plans before and after the cache is warm are
    /// identical.
    #[test]
    fn view_concepts_are_translated_once_and_cached_in_the_catalog() {
        let db = hospital_with_many_patients(5);
        let model = samples::medical_model();
        let mut odb = OptimizedDatabase::new(db).expect("translates");
        odb.materialize_view("ViewPatient").expect("materializes");
        odb.materialize_view("Person").expect("materializes");
        // Classification at materialization time already translated and
        // cached every view concept.
        assert!(odb
            .catalog()
            .snapshot()
            .iter()
            .all(|view| view.concept.is_some()));
        let query = model.query_class("QueryPatient").expect("declared");
        let first = odb.plan(query);
        let second = odb.plan(query);
        assert_eq!(first.subsuming_views, second.subsuming_views);
        assert_eq!(first.chosen_view, second.chosen_view);
    }

    /// Satellite regression test: mutating the *schema* through `update`
    /// must drop the memoized verdicts and saturated-query state — a
    /// verdict computed against the old Σ must not survive.
    #[test]
    fn schema_mutation_through_update_drops_stale_verdicts() {
        let db = hospital_with_many_patients(5);
        let model = samples::medical_model();
        let mut odb = OptimizedDatabase::new(db).expect("translates");
        odb.materialize_view("ViewPatient").expect("materializes");
        let query = model.query_class("QueryPatient").expect("declared");

        let before = odb.plan(query);
        assert_eq!(before.subsuming_views, vec!["ViewPatient".to_owned()]);

        // Drop `Person.name` being necessary+single: the subsumption
        // QueryPatient ⊑_Σ ViewPatient depends on it (the S5-created name
        // filler), so the old cached verdict is now wrong.
        odb.update(|db| {
            let person = db
                .model_mut()
                .classes
                .iter_mut()
                .find(|c| c.name == "Person")
                .expect("Person declared");
            for attr in &mut person.attributes {
                if attr.name == "name" {
                    attr.necessary = false;
                    attr.single = false;
                }
            }
        });

        let after = odb.plan(query);
        assert!(
            after.subsuming_views.is_empty(),
            "stale verdict survived the schema mutation: {:?}",
            after.subsuming_views
        );
        // The plan was recomputed, not served from the (dropped) cache.
        assert_eq!(after.cached_probes, 0);
        assert_eq!(after.fresh_probes, 1);
        assert_eq!(after.fact_saturations, 1);

        // Data-only updates keep the cache (the documented behaviour).
        odb.update(|db| {
            let p = db.add_object("one_more");
            db.assert_class(p, "Patient");
        });
        let data_only = odb.plan(query);
        assert_eq!(data_only.cached_probes, 1);
        assert_eq!(data_only.fresh_probes, 0);
    }

    /// Regression: a *schema-only* mutation (no data deltas) can change
    /// what a view's membership condition means — here the constraint of
    /// a query-class superclass — so `update` must force full
    /// re-derivation of the extensions; the delta log has nothing to say
    /// about it.
    #[test]
    fn schema_only_mutations_force_extension_rederivation() {
        use subq_dl::{ConstraintExpr, Term};
        let db = hospital_with_many_patients(3);
        let mut odb = OptimizedDatabase::new(db).expect("translates");
        // A view over the constrained query class (no constraint of its
        // own, so it is materializable; its answers still depend on
        // QueryPatient's clause through the recursive membership check).
        odb.update(|db| {
            db.model_mut().queries.push(QueryClassDecl {
                name: "ViaQuery".into(),
                is_a: vec!["QueryPatient".into()],
                derived: vec![],
                where_eqs: vec![],
                constraint: None,
            });
        });
        odb.materialize_view("ViaQuery").expect("materializes");
        let before = odb.catalog().view("ViaQuery").expect("stored");
        assert!(!before.extent.is_empty(), "john matches QueryPatient");

        // Make QueryPatient's constraint unsatisfiable — purely a schema
        // edit, the data version does not move.
        let data_version = odb.database().data_version();
        odb.update(|db| {
            let qp = db
                .model_mut()
                .queries
                .iter_mut()
                .find(|q| q.name == "QueryPatient")
                .expect("declared");
            qp.constraint = Some(ConstraintExpr::Not(Box::new(ConstraintExpr::Eq(
                Term::This,
                Term::This,
            ))));
        });
        assert_eq!(odb.database().data_version(), data_version);
        odb.refresh_views();
        let after = odb.catalog().view("ViaQuery").expect("stored");
        assert!(
            after.extent.is_empty(),
            "stale extension survived the schema mutation: {:?}",
            after.extent
        );
        assert_eq!(
            *after.extent,
            crate::eval::evaluate_query(odb.database(), &after.definition)
        );
    }

    #[test]
    fn queries_not_subsumed_by_any_view_fall_back_to_full_evaluation() {
        let db = hospital_with_many_patients(5);
        let mut odb = OptimizedDatabase::new(db).expect("translates");
        odb.materialize_view("ViewPatient").expect("materializes");
        // "All patients" is not subsumed by ViewPatient.
        let query = subq_dl::QueryClassDecl {
            name: "AllPatients".into(),
            is_a: vec!["Patient".into()],
            derived: vec![],
            where_eqs: vec![],
            constraint: None,
        };
        let plan = odb.plan(&query);
        assert!(plan.subsuming_views.is_empty());
        let (answers, stats) = odb.execute(&query);
        assert!(stats.used_view.is_none());
        assert_eq!(answers, odb.database().class_extent("Patient"));
    }

    #[test]
    fn updates_invalidate_views_and_execution_stays_correct() {
        let db = hospital_with_many_patients(3);
        let model = samples::medical_model();
        let mut odb = OptimizedDatabase::new(db).expect("translates");
        odb.materialize_view("ViewPatient").expect("materializes");
        let query = model.query_class("QueryPatient").expect("declared");
        let (before, _) = odb.execute(query);

        // A new matching male patient arrives.
        odb.update(|db| {
            let welby = db.object("welby").expect("exists");
            let flu = db.object("flu").expect("exists");
            let paul = db.add_object("paul");
            let paul_name = db.add_object("paul_name");
            db.assert_class(paul, "Patient");
            db.assert_class(paul, "Male");
            db.assert_class(paul_name, "String");
            db.assert_attr(paul, "suffers", flu);
            db.assert_attr(paul, "consults", welby);
            db.assert_attr(paul, "name", paul_name);
        });
        let (after, stats) = odb.execute(query);
        assert_eq!(after.len(), before.len() + 1);
        assert_eq!(stats.used_view.as_deref(), Some("ViewPatient"));
        // Cross-check against the baseline.
        let (baseline, _) = odb.execute_unoptimized(query);
        assert_eq!(after, baseline);
    }

    /// The lattice traversal reports the maximal-specific frontier of the
    /// flat scan's subsumer set, prunes probes under failed parents, and
    /// chooses a view with the same (smallest) extension.
    #[test]
    fn lattice_plan_agrees_with_the_flat_scan() {
        let db = hospital_with_many_patients(10);
        let model = samples::medical_model();
        let mut odb = OptimizedDatabase::new(db).expect("translates");
        for view in [
            "Person",
            "Patient",
            "Doctor",
            "Male",
            "Female",
            "ViewPatient",
        ] {
            odb.materialize_view(view).expect("materializes");
        }
        assert!(odb.catalog().lattice_violations().is_empty());
        let query = model.query_class("QueryPatient").expect("declared");
        let lattice = odb.plan(query);
        let flat = odb.plan_flat(query);
        // Flat subsumers: Person, Patient, Male, ViewPatient. The frontier
        // keeps only ViewPatient and Male (Patient and Person have a more
        // specific subsumer below them).
        let mut flat_set = flat.subsuming_views.clone();
        flat_set.sort();
        assert_eq!(flat_set, vec!["Male", "Patient", "Person", "ViewPatient"]);
        let mut frontier = lattice.subsuming_views.clone();
        frontier.sort();
        assert_eq!(frontier, vec!["Male", "ViewPatient"]);
        // Same chosen extension size (the frontier contains a smallest
        // subsumer), hence identical filtered answers.
        let extent = |name: &str| odb.catalog().view(name).expect("stored").len();
        assert_eq!(
            extent(lattice.chosen_view.as_deref().expect("chosen")),
            extent(flat.chosen_view.as_deref().expect("chosen")),
        );
        assert_eq!(lattice.chosen_view, flat.chosen_view);
        // Doctor and Female fail but have no descendants here, so every
        // view is probed; probes + pruned always covers the catalog.
        assert_eq!(lattice.fresh_probes + lattice.cached_probes, 6);
        assert_eq!(lattice.probes_pruned, 0);
        assert!(lattice.lattice_depth >= 3, "Person → Patient → ViewPatient");
        // Counter parity: the flat scan populates the same fields — zero
        // prunes by definition, and the full classified depth (here no
        // probe failed above a deeper node, so both planners report the
        // same depth and the plans diff field by field).
        assert_eq!(flat.probes_pruned, 0);
        assert_eq!(flat.lattice_depth, lattice.lattice_depth);
    }

    /// Satellite regression test: a rejected double materialization and
    /// data-update refreshes leave the lattice consistent — no dangling
    /// nodes, no duplicate edges, identical edge set.
    #[test]
    fn rejected_materialization_and_refresh_keep_the_lattice_consistent() {
        let db = hospital_with_many_patients(4);
        let model = samples::medical_model();
        let mut odb = OptimizedDatabase::new(db).expect("translates");
        for view in ["Person", "Patient", "ViewPatient"] {
            odb.materialize_view(view).expect("materializes");
        }
        let mut edges_before = odb.catalog().lattice_edges();
        edges_before.sort();
        assert!(odb.catalog().lattice_violations().is_empty());

        // Double materialization is rejected and must not disturb the DAG.
        let err = odb.materialize_view("ViewPatient").expect_err("duplicate");
        assert!(matches!(err, ViewError::AlreadyMaterialized { .. }));
        let mut edges = odb.catalog().lattice_edges();
        edges.sort();
        assert_eq!(edges, edges_before);
        assert!(odb.catalog().lattice_violations().is_empty());

        // Data mutations invalidate extents, and the refresh performed by
        // `execute` re-evaluates them — the lattice is untouched.
        odb.update(|db| {
            let p = db.add_object("newcomer");
            db.assert_class(p, "Patient");
        });
        let query = model.query_class("QueryPatient").expect("declared");
        let (answers, _) = odb.execute(query);
        let (baseline, _) = odb.execute_unoptimized(query);
        assert_eq!(answers, baseline);
        let mut edges = odb.catalog().lattice_edges();
        edges.sort();
        assert_eq!(edges, edges_before);
        assert!(odb.catalog().lattice_violations().is_empty());
        assert_eq!(odb.catalog().classified_count(), 3);

        // A schema mutation rebuilds the lattice; the rebuilt diagram is
        // consistent again (and in this case identical).
        odb.update(|db| {
            db.model_mut();
        });
        let _ = odb.plan(query);
        let mut edges = odb.catalog().lattice_edges();
        edges.sort();
        assert_eq!(edges, edges_before);
        assert!(odb.catalog().lattice_violations().is_empty());
    }

    /// Deep chains give the traversal something to prune: a query not
    /// subsumed by the chain root skips the entire chain below it.
    #[test]
    fn failed_root_probe_prunes_the_whole_chain() {
        let db = hospital_with_many_patients(3);
        let mut odb = OptimizedDatabase::new(db).expect("translates");
        for view in ["Doctor", "Person", "Patient", "ViewPatient"] {
            odb.materialize_view(view).expect("materializes");
        }
        // "All females" is subsumed by Person only — the Patient →
        // ViewPatient chain is pruned once Patient fails; Doctor fails on
        // its own.
        let query = subq_dl::QueryClassDecl {
            name: "AllFemales".into(),
            is_a: vec!["Female".into()],
            derived: vec![],
            where_eqs: vec![],
            constraint: None,
        };
        let plan = odb.plan(&query);
        assert_eq!(plan.subsuming_views, vec!["Person".to_owned()]);
        // Probed: Person ✓, Patient ✗, Doctor ✗ — ViewPatient pruned.
        assert_eq!(plan.fresh_probes + plan.cached_probes, 3);
        assert_eq!(plan.probes_pruned, 1);
    }

    /// Review regression test: a schema-mutating commit resets the
    /// lattice (`invalidate_concepts`), and readers cannot classify —
    /// `publish_snapshot` must re-classify before capturing the views,
    /// or every published snapshot after a schema change would serve
    /// full scans forever.
    #[test]
    fn published_snapshots_stay_classified_after_schema_commits() {
        let db = hospital_with_many_patients(6);
        let model = samples::medical_model();
        let mut odb = OptimizedDatabase::new(db).expect("translates");
        odb.materialize_view("ViewPatient").expect("materializes");
        odb.publish_snapshot();
        let query = model.query_class("QueryPatient").expect("declared");
        let mut reader = odb.reader();
        assert_eq!(
            reader.plan(query).chosen_view.as_deref(),
            Some("ViewPatient")
        );

        // A no-op model mutation still bumps the schema version: the
        // lattice and all derived state are rebuilt.
        odb.commit_durable(|db| {
            db.model_mut();
        })
        .expect("a volatile commit cannot fail");
        assert!(reader.sync(), "commit must publish a new snapshot");
        let snapshot = reader.snapshot().clone();
        assert!(
            snapshot.views().iter().all(|v| v.classified),
            "published views must be classified after a schema commit"
        );
        let plan = reader.plan(query);
        assert_eq!(plan.chosen_view.as_deref(), Some("ViewPatient"));
        let (answers, stats) = reader.execute(query);
        assert_eq!(stats.used_view.as_deref(), Some("ViewPatient"));
        assert_eq!(
            answers,
            crate::eval::evaluate_query(snapshot.database(), query)
        );
    }

    /// A volatile store may mix unlogged `update`s with `commit_durable`:
    /// the commit closes the version gap with a (declined) image instead
    /// of breaking the WAL's chain, and the floor it leaves does not pin
    /// later `update`s, so the log cap still bounds the delta log.
    #[test]
    fn volatile_updates_mix_with_commits_and_stay_capped() {
        use crate::store::DELTA_LOG_CAP;
        let db = hospital_with_many_patients(3);
        let mut odb = OptimizedDatabase::new(db).expect("translates");
        // A view that is never refreshed again: only the cap bounds the log.
        odb.materialize_view("ViewPatient").expect("materializes");
        let mut reader = odb.reader();
        odb.update(|db| {
            db.add_object("unlogged");
        });
        let before = odb.durability_stats().expect("always some");
        odb.commit_durable(|db| {
            db.add_object("logged");
        })
        .expect("a volatile commit cannot fail");
        let after = odb.durability_stats().expect("always some");
        assert_eq!(after.checkpoints, before.checkpoints + 1);
        assert_eq!(after.wal_records, before.wal_records + 1);
        assert!(reader.sync(), "the commit publishes");
        let published = reader.snapshot().database();
        assert!(published.object("unlogged").is_some());
        assert!(published.object("logged").is_some());
        for i in 0..DELTA_LOG_CAP + 1_000 {
            odb.update(|db| {
                db.add_object(&format!("bulk{i}"));
            });
        }
        assert!(
            odb.database().delta_log().len() <= DELTA_LOG_CAP,
            "a stale durable floor pinned {} unlogged deltas",
            odb.database().delta_log().len()
        );
    }

    /// The durable lifecycle end to end: genesis open, logged commits,
    /// a checkpoint, more commits, crash (drop), reopen — the recovered
    /// database answers exactly like the one that never went down, the
    /// restored views are classified, and later commits keep working.
    #[test]
    fn durable_open_commit_checkpoint_and_reopen_roundtrip() {
        use crate::durable::{DurableOptions, FaultyBackend};
        let backend = Arc::new(FaultyBackend::new());
        let model = samples::medical_model();
        let query = model.query_class("QueryPatient").expect("declared").clone();

        let mut odb = OptimizedDatabase::open(backend.clone(), DurableOptions::default(), || {
            hospital_with_many_patients(8)
        })
        .expect("genesis open");
        odb.materialize_view("ViewPatient").expect("materializes");
        odb.materialize_view("Patient").expect("materializes");
        odb.commit_durable(|db| {
            let welby = db.object("welby").expect("exists");
            let flu = db.object("flu").expect("exists");
            let paul = db.add_object("paul");
            let paul_name = db.add_object("paul_name");
            db.assert_class(paul, "Patient");
            db.assert_class(paul, "Male");
            db.assert_class(paul_name, "String");
            db.assert_attr(paul, "suffers", flu);
            db.assert_attr(paul, "consults", welby);
            db.assert_attr(paul, "name", paul_name);
        })
        .expect("commit");
        let checkpoint_version = odb.checkpoint().expect("checkpoint");
        assert_eq!(checkpoint_version, odb.database().data_version());
        // Two more commits land in the WAL only.
        for i in 0..2 {
            odb.commit_durable(|db| {
                let p = db.add_object(&format!("late{i}"));
                db.assert_class(p, "Patient");
            })
            .expect("commit");
        }
        let (expected_answers, _) = odb.execute(&query);
        let expected_version = odb.database().data_version();
        let expected_edges = {
            let mut edges = odb.catalog().lattice_edges();
            edges.sort();
            edges
        };
        let stats = odb.durability_stats().expect("durable");
        assert_eq!(stats.wal_records, 3);
        assert!(stats.wal_bytes > 0);
        assert!(stats.fsyncs >= 3, "group_commit=1 syncs every commit");
        assert_eq!(stats.checkpoints, 2, "genesis image + explicit checkpoint");
        drop(odb); // The crash: in-memory state is gone.

        let mut reopened =
            OptimizedDatabase::open(backend.clone(), DurableOptions::default(), || {
                panic!("an image exists; genesis must not run")
            })
            .expect("recovery");
        assert_eq!(reopened.database().data_version(), expected_version);
        let stats = reopened.durability_stats().expect("durable");
        assert_eq!(
            stats.recovered_records, 2,
            "the two post-checkpoint commits"
        );
        assert_eq!(stats.truncated_tail_bytes, 0, "nothing was torn");
        // Views came back classified with the recorded lattice.
        let mut edges = reopened.catalog().lattice_edges();
        edges.sort();
        assert_eq!(edges, expected_edges);
        let plan = reopened.plan(&query);
        assert_eq!(plan.chosen_view.as_deref(), Some("ViewPatient"));
        let (answers, stats_exec) = reopened.execute(&query);
        assert_eq!(answers, expected_answers);
        assert_eq!(stats_exec.used_view.as_deref(), Some("ViewPatient"));
        let (baseline, _) = reopened.execute_unoptimized(&query);
        assert_eq!(answers, baseline);
        // The engine keeps going: another durable commit, another view.
        reopened
            .commit_durable(|db| {
                let welby = db.object("welby").expect("exists");
                let flu = db.object("flu").expect("exists");
                let q = db.add_object("quincy");
                let q_name = db.add_object("quincy_name");
                db.assert_class(q, "Patient");
                db.assert_class(q, "Male");
                db.assert_class(q_name, "String");
                db.assert_attr(q, "suffers", flu);
                db.assert_attr(q, "consults", welby);
                db.assert_attr(q, "name", q_name);
            })
            .expect("commit after recovery");
        let (after, _) = reopened.execute(&query);
        assert_eq!(after.len(), expected_answers.len() + 1);
        let (baseline, _) = reopened.execute_unoptimized(&query);
        assert_eq!(after, baseline);
    }

    /// A checkpoint publishes only after its image is written: a view
    /// whose image failed is not visible to readers.
    #[test]
    fn a_failed_checkpoint_publishes_nothing() {
        use crate::durable::{DurableOptions, FaultyBackend};
        let backend = Arc::new(FaultyBackend::new());
        let mut odb = OptimizedDatabase::open(backend.clone(), DurableOptions::default(), || {
            hospital_with_many_patients(4)
        })
        .expect("genesis open");
        odb.materialize_view("ViewPatient").expect("materializes");
        backend.crash_after_bytes(0);
        assert!(odb.checkpoint().is_err(), "the image cannot land");
        assert!(
            odb.snapshot()
                .views()
                .iter()
                .all(|v| v.definition.name != "ViewPatient"),
            "a view was published before its image was on disk"
        );
    }

    /// A schema-mutating durable commit cannot be expressed as data
    /// deltas: it must checkpoint immediately, and the new model must be
    /// what recovery sees.
    #[test]
    fn schema_mutations_checkpoint_immediately_and_recover() {
        use crate::durable::{DurableOptions, FaultyBackend};
        use subq_dl::QueryClassDecl;
        let backend = Arc::new(FaultyBackend::new());
        let mut odb = OptimizedDatabase::open(backend.clone(), DurableOptions::default(), || {
            hospital_with_many_patients(4)
        })
        .expect("genesis open");
        let images_before = odb.durability_stats().expect("durable").checkpoints;
        odb.commit_durable(|db| {
            db.model_mut().queries.push(QueryClassDecl {
                name: "EveryPatient".into(),
                is_a: vec!["Patient".into()],
                derived: vec![],
                where_eqs: vec![],
                constraint: None,
            });
        })
        .expect("schema commit");
        assert_eq!(
            odb.durability_stats().expect("durable").checkpoints,
            images_before + 1,
            "schema commits checkpoint immediately"
        );
        odb.materialize_view("EveryPatient").expect("materializes");
        odb.checkpoint().expect("checkpoint the view");
        drop(odb);

        let mut reopened = OptimizedDatabase::open(backend, DurableOptions::default(), || {
            panic!("an image exists; genesis must not run")
        })
        .expect("recovery");
        assert!(
            reopened
                .database()
                .model()
                .query_class("EveryPatient")
                .is_some(),
            "the mutated schema survived through the image"
        );
        let query = QueryClassDecl {
            name: "Probe".into(),
            is_a: vec!["Patient".into()],
            derived: vec![],
            where_eqs: vec![],
            constraint: None,
        };
        let plan = reopened.plan(&query);
        assert_eq!(plan.chosen_view.as_deref(), Some("EveryPatient"));
    }

    #[test]
    fn every_schema_class_can_be_materialized_as_a_trivial_view() {
        let db = hospital_with_many_patients(2);
        let mut odb = OptimizedDatabase::new(db).expect("translates");
        // "Person" is a schema class, not a query class; materializing it
        // builds the trivial query class `isA Person` — the paper's remark
        // that every schema class can be turned into a query class.
        odb.materialize_view("Person").expect("materializes");
        let view = odb.catalog().view("Person").expect("stored");
        assert_eq!(*view.extent, odb.database().class_extent("Person"));
        // An undeclared name is rejected.
        let err = odb.materialize_view("Nonsense").expect_err("must fail");
        assert!(matches!(err, ViewError::UnknownQuery { .. }));
    }
}
