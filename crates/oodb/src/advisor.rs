//! The workload-adaptive view advisor: query-shape mining, gain-scored
//! auto-materialization, and cold-view eviction.
//!
//! The paper's optimization only pays off when the views a workload needs
//! are actually materialized — and PRs 1–9 left that choice to a human.
//! This module closes the loop: the executor ([`crate::planner`]) records
//! the *shape* of each executed query into the bounded ring
//! ([`ShapeRing`]) of whoever ran it — every [`Reader`](crate::Reader)
//! and the writer own one. At the publish boundary the writer
//! ([`OptimizedDatabase::run_advisor`], the driver at the bottom of this
//! file) harvests the rings, mines frequent shapes with exponential
//! decay, scores each candidate by expected gain under the
//! [`CostModel`](crate::stats::CostModel), and — in
//! [`AdvisorMode::Auto`] — materializes the winners through the ordinary
//! [`ViewCatalog`](crate::views::ViewCatalog) path and evicts auto-views
//! the workload has gone cold on. User-declared views are
//! never touched, and the advisor acts only between transactions, so
//! snapshot isolation and read-your-writes are untouched.
//!
//! # Shape normalization
//!
//! Two queries that differ only in a bound constant — a `{obj}` path
//! filter or a `where` literal — are the *same* shape: the advisor
//! generalizes the constant away ([`normalize_shape`]), because a view
//! over the generalized shape Σ-subsumes every constant-bound instance
//! and can therefore serve all of them. Labels are renamed positionally
//! and clauses are sorted, so the normalized declaration is a canonical
//! form fit for hashing ([`shape_key`]).

use crate::durable::DurableError;
use crate::optimizer::OptimizedDatabase;
use crate::stats::CostModel;
use fxhash::{FxHashMap, FxHasher};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use subq_dl::{LabeledPath, PathFilter, QueryClassDecl};

/// The reserved name prefix of advisor-declared views. User `DEFVIEW`s
/// under this prefix are rejected at the server boundary, which is what
/// lets the advisor evict anything carrying it without ever touching a
/// view a user declared by hand.
pub const AUTO_VIEW_PREFIX: &str = "__adv_";

/// Capacity of one reader's shape ring. Full rings drop the newest event
/// (and count the drop) — recording must never block or allocate
/// unboundedly on the read path.
pub(crate) const SHAPE_RING_CAPACITY: usize = 256;

/// Canonicalizes a query into its *shape*: bound constants are
/// generalized away (`(attr: {obj})` becomes `attr`, `where` clauses
/// mentioning anything but a declared label are dropped), derived paths
/// are sorted structurally, labels are renamed positionally (`l0`,
/// `l1`, …) with the surviving `where` equalities rewritten to match,
/// superclasses are sorted and deduplicated, and the name is blanked.
///
/// The result is both a canonical hash key (two queries differing only
/// in a literal normalize identically) and a *materializable
/// generalization*: it Σ-subsumes every query it was derived from, so a
/// view over it serves them all through the ordinary subsumption route.
pub fn normalize_shape(query: &QueryClassDecl) -> QueryClassDecl {
    let mut is_a = query.is_a.clone();
    is_a.sort();
    is_a.dedup();
    // Generalize constants out of the paths, remember each old label with
    // its path, and sort the paths by structure so label numbering does
    // not depend on source order.
    let mut derived: Vec<(Option<String>, LabeledPath)> = query
        .derived
        .iter()
        .map(|path| {
            let steps = path
                .steps
                .iter()
                .map(|step| subq_dl::PathStep {
                    attr: step.attr.clone(),
                    filter: match &step.filter {
                        PathFilter::Singleton(_) => PathFilter::Any,
                        other => other.clone(),
                    },
                })
                .collect();
            (path.label.clone(), LabeledPath { label: None, steps })
        })
        .collect();
    derived.sort_by(|(_, a), (_, b)| format!("{:?}", a.steps).cmp(&format!("{:?}", b.steps)));
    let mut rename: FxHashMap<&str, String> = FxHashMap::default();
    for (index, (old, path)) in derived.iter_mut().enumerate() {
        let new = format!("l{index}");
        if let Some(old) = old.as_deref() {
            rename.insert(old, new.clone());
        }
        path.label = Some(new);
    }
    // Keep only label-to-label equalities (they are structural); a side
    // naming anything else is a bound literal and is generalized away.
    let mut where_eqs: Vec<(String, String)> = query
        .where_eqs
        .iter()
        .filter_map(|(a, b)| {
            let (a, b) = (rename.get(a.as_str())?, rename.get(b.as_str())?);
            let mut pair = [a.clone(), b.clone()];
            pair.sort();
            let [a, b] = pair;
            Some((a, b))
        })
        .collect();
    where_eqs.sort();
    where_eqs.dedup();
    QueryClassDecl {
        name: String::new(),
        is_a,
        derived: derived.into_iter().map(|(_, path)| path).collect(),
        where_eqs,
        constraint: query.constraint.clone(),
    }
}

/// The hash key of a query's canonical shape.
pub fn shape_key(shape: &QueryClassDecl) -> u64 {
    let mut hasher = FxHasher::default();
    format!("{:?}|{:?}|{:?}", shape.is_a, shape.derived, shape.where_eqs).hash(&mut hasher);
    hasher.finish()
}

/// One recorded query execution: the normalized shape plus what the
/// executor observed — enough for the advisor to estimate both the cost
/// the query paid and the cost a dedicated view would have left.
#[derive(Clone, Debug)]
pub struct ShapeEvent {
    /// The canonical shape ([`normalize_shape`]).
    pub shape: Arc<QueryClassDecl>,
    /// The view the executor routed through, if any.
    pub used_view: Option<String>,
    /// Candidates whose membership condition was evaluated.
    pub candidates_examined: u64,
    /// Answers returned — the size a view over this shape would store.
    pub answers: u64,
}

/// A bounded queue of [`ShapeEvent`]s: the producer is the one
/// [`Reader`](crate::Reader) (or the writer) owning the ring, the consumer
/// is the writer harvesting at the publish boundary. A full ring drops the
/// newest event and counts it, so recording never blocks on the harvester
/// for longer than one push or drain and never grows past the capacity.
/// The lock is uncontended except while a harvest drains this very ring.
pub struct ShapeRing {
    events: Mutex<VecDeque<ShapeEvent>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl ShapeRing {
    pub(crate) fn new(capacity: usize) -> Arc<Self> {
        Arc::new(ShapeRing {
            events: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            dropped: AtomicU64::new(0),
        })
    }

    /// Producer side: appends one event, dropping it (counted) when the
    /// consumer has fallen a full ring behind.
    pub(crate) fn push(&self, event: ShapeEvent) {
        let mut events = self.events.lock().expect("shape ring poisoned");
        if events.len() >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            events.push_back(event);
        }
    }

    /// Consumer side: moves every recorded event into `into`, oldest
    /// first.
    pub(crate) fn harvest(&self, into: &mut Vec<ShapeEvent>) {
        into.extend(self.events.lock().expect("shape ring poisoned").drain(..));
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// What the advisor is allowed to do.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdvisorMode {
    /// No recording, no mining — zero read-path cost beyond one relaxed
    /// atomic load per execution.
    #[default]
    Off,
    /// Record and mine shapes, score candidates (visible via `ADVISE`),
    /// but never touch the catalog.
    Observe,
    /// Observe *and* auto-materialize winners / evict cold auto-views at
    /// the publish boundary.
    Auto,
}

impl AdvisorMode {
    /// Parses the `--advisor` flag values.
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "off" => Some(AdvisorMode::Off),
            "observe" => Some(AdvisorMode::Observe),
            "auto" => Some(AdvisorMode::Auto),
            _ => None,
        }
    }
}

impl std::fmt::Display for AdvisorMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AdvisorMode::Off => "off",
            AdvisorMode::Observe => "observe",
            AdvisorMode::Auto => "auto",
        })
    }
}

/// The advisor's budget and sensitivity knobs.
#[derive(Clone, Debug)]
pub struct AdvisorConfig {
    pub mode: AdvisorMode,
    /// Upper bound on concurrently materialized auto-views.
    pub max_auto_views: usize,
    /// Minimum expected gain (in cost-model probes per pass) before a
    /// shape is worth materializing.
    pub min_gain: f64,
    /// Multiplier applied to every shape's decayed frequency per advisor
    /// pass — recent traffic dominates, stale phases fade.
    pub decay: f64,
    /// Consecutive cold passes (no routed query) before an auto-view is
    /// evicted.
    pub evict_after: u32,
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        AdvisorConfig {
            mode: AdvisorMode::Off,
            max_auto_views: 8,
            min_gain: 1.0,
            decay: 0.8,
            evict_after: 8,
        }
    }
}

/// One mined shape with its decayed heat and latest observations.
#[derive(Clone, Debug)]
struct ShapeStat {
    shape: Arc<QueryClassDecl>,
    /// Exponentially decayed execution frequency.
    freq: f64,
    /// Total executions ever observed.
    total: u64,
    /// Latest observed candidate count (what the query paid).
    last_candidates: u64,
    /// Latest observed answer count (what a dedicated view would store).
    last_answers: u64,
    /// Latest scoring verdict, for the `ADVISE` report.
    status: ShapeStatus,
    /// Latest computed gain estimate.
    gain: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ShapeStatus {
    /// Seen but not yet scored (or not scorable: constrained shapes are
    /// not materializable).
    Pending,
    /// Scored below `min_gain` (or the budget was exhausted).
    BelowMinGain,
    /// An existing view already serves it about as cheaply.
    RejectedSubsumed,
    /// Materialized as an auto-view.
    Materialized,
    /// Its auto-view went cold and was evicted.
    Evicted,
}

impl ShapeStatus {
    fn as_str(self) -> &'static str {
        match self {
            ShapeStatus::Pending => "pending",
            ShapeStatus::BelowMinGain => "below_min_gain",
            ShapeStatus::RejectedSubsumed => "rejected_subsumed",
            ShapeStatus::Materialized => "materialized",
            ShapeStatus::Evicted => "evicted",
        }
    }
}

/// The writer-side mining and scoring state. Owned by
/// [`OptimizedDatabase`](crate::OptimizedDatabase); all mutation happens
/// on the writer, at the publish boundary.
#[derive(Debug, Default)]
pub struct Advisor {
    config: AdvisorConfig,
    shapes: FxHashMap<u64, ShapeStat>,
    /// Shape key → the auto-view name minted for it. Survives eviction:
    /// the declaration stays in the model (checkpoint images may refer to
    /// it), so re-materialization is a catalog-only operation.
    auto_views: FxHashMap<u64, String>,
    /// Auto-view name → consecutive passes without a routed query.
    cold_passes: FxHashMap<String, u32>,
    next_id: usize,
    /// Data version at the last pass — the delta count since scales the
    /// estimated maintenance cost of a candidate view.
    last_version: u64,
    /// View name → harvested executions that chose it as the frontier
    /// member to filter, surfaced as the `subq_view_hits{view=…}` gauges.
    /// Observed traffic, which the store cannot derive.
    view_hits: FxHashMap<String, u64>,
    /// Cumulative counters, mirrored into telemetry.
    pub materialized_total: u64,
    pub evicted_total: u64,
    pub rejected_subsumed_total: u64,
    pub events_harvested: u64,
}

/// What one advisor pass did — the writer logs it and tests assert on it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdvisorPass {
    /// Auto-views materialized this pass.
    pub materialized: Vec<String>,
    /// Auto-views evicted this pass.
    pub evicted: Vec<String>,
    /// Events consumed from the shape rings (every reader's and the
    /// writer's own).
    pub harvested: usize,
}

/// A scored decision the pass hands back to the database layer, which
/// owns the catalog and the model.
#[derive(Debug)]
pub(crate) struct AdvisorPlan {
    /// `(shape key, existing auto-view name if any, definition, expected
    /// extent size)` to materialize, best gain first. The expected size is
    /// the latest observed answer count — what the subsumption-rejection
    /// test compares the incumbent view's cost against.
    pub winners: Vec<(u64, Option<String>, QueryClassDecl, u64)>,
    /// Auto-view names to evict.
    pub evict: Vec<String>,
}

impl Advisor {
    /// The active configuration.
    pub fn config(&self) -> &AdvisorConfig {
        &self.config
    }

    pub(crate) fn set_config(&mut self, config: AdvisorConfig) {
        self.config = config;
    }

    /// Whether a view name belongs to the advisor (and is therefore
    /// evictable).
    pub fn is_auto_view(name: &str) -> bool {
        name.starts_with(AUTO_VIEW_PREFIX)
    }

    /// Folds one harvested batch into the decayed shape table and the
    /// per-view hit tallies, then sets every tally's gauge (set, not
    /// bumped, so passes are idempotent). The process-wide
    /// `subq_view_hits_total` is not touched: the executor counted each
    /// execution once, when it ran.
    pub(crate) fn absorb(&mut self, events: &[ShapeEvent]) {
        self.events_harvested += events.len() as u64;
        for event in events {
            let key = shape_key(&event.shape);
            let stat = self.shapes.entry(key).or_insert_with(|| ShapeStat {
                shape: event.shape.clone(),
                freq: 0.0,
                total: 0,
                last_candidates: 0,
                last_answers: 0,
                status: ShapeStatus::Pending,
                gain: 0.0,
            });
            stat.freq += 1.0;
            stat.total += 1;
            stat.last_candidates = event.candidates_examined;
            stat.last_answers = event.answers;
            if let Some(view) = &event.used_view {
                *self.view_hits.entry(view.clone()).or_insert(0) += 1;
                if Self::is_auto_view(view) {
                    self.cold_passes.insert(view.clone(), 0);
                }
            }
        }
        for (view, &hits) in &self.view_hits {
            subq_telemetry::gauge(&format!("subq_view_hits{{view=\"{view}\"}}")).set(hits as i64);
        }
    }

    /// Harvested executions that chose `view` as the frontier member to
    /// filter.
    pub fn view_hits(&self, view: &str) -> u64 {
        self.view_hits.get(view).copied().unwrap_or(0)
    }

    /// Decays every shape's heat and returns the materialize/evict plan
    /// under the current budget. `cost` estimates per-query work,
    /// `maintenance_per_delta` the membership checks one delta costs an
    /// average view, and `deltas` how many deltas landed since the last
    /// pass. `served_views` lists currently materialized view names.
    pub(crate) fn plan_pass(
        &mut self,
        cost: &CostModel<'_>,
        maintenance_per_delta: f64,
        deltas: u64,
        served_views: &[String],
    ) -> AdvisorPlan {
        for stat in self.shapes.values_mut() {
            stat.freq *= self.config.decay;
        }
        self.shapes.retain(|_, stat| stat.freq > 1e-3);
        let mut plan = AdvisorPlan {
            winners: Vec::new(),
            evict: Vec::new(),
        };
        // Eviction first: auto-views no query routed through for
        // `evict_after` consecutive passes free budget for this pass's
        // winners. Only names the advisor minted are ever candidates.
        let materialized_auto: Vec<&String> = served_views
            .iter()
            .filter(|name| Self::is_auto_view(name))
            .collect();
        for name in &materialized_auto {
            let cold = self.cold_passes.entry((*name).clone()).or_insert(0);
            *cold += 1;
            if *cold > self.config.evict_after {
                plan.evict.push((*name).clone());
            }
        }
        for name in &plan.evict {
            self.cold_passes.remove(name);
            if let Some((&key, _)) = self.auto_views.iter().find(|(_, v)| *v == name) {
                if let Some(stat) = self.shapes.get_mut(&key) {
                    stat.status = ShapeStatus::Evicted;
                    // Residual decayed heat must not re-materialize an
                    // evicted view on the next pass (an idle writer would
                    // oscillate evict→materialize until the decay drops
                    // below min_gain); only fresh traffic re-heats it.
                    stat.freq = 0.0;
                }
            }
        }
        let mut live_auto = materialized_auto.len() - plan.evict.len();

        // Score every mined shape. Ranked best gain first so the budget
        // goes to the hottest candidates.
        let mut scored: Vec<(u64, f64)> = Vec::new();
        for (&key, stat) in self.shapes.iter_mut() {
            if stat.shape.constraint.is_some() {
                // Not a view; its stored answers would be unsound.
                stat.status = ShapeStatus::Pending;
                continue;
            }
            if let Some(name) = self.auto_views.get(&key) {
                if plan.evict.contains(name) {
                    // Evicted this very pass for being cold — do not
                    // re-materialize it from its residual heat; it must
                    // earn its way back through fresh traffic.
                    stat.status = ShapeStatus::Evicted;
                    continue;
                }
                if served_views.iter().any(|v| v == name) {
                    stat.status = ShapeStatus::Materialized;
                    continue;
                }
            }
            // Gain per query: what the last execution paid minus what
            // filtering a dedicated extension would cost.
            let paid = cost.filter_cost(stat.last_candidates as usize, &stat.shape);
            let with_view = cost.filter_cost(stat.last_answers as usize, &stat.shape);
            let maintenance =
                deltas as f64 * maintenance_per_delta * cost.membership_cost(&stat.shape);
            stat.gain = stat.freq * (paid - with_view).max(0.0) - maintenance;
            if stat.gain < self.config.min_gain {
                stat.status = ShapeStatus::BelowMinGain;
                continue;
            }
            scored.push((key, stat.gain));
        }
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (key, _) in scored {
            if live_auto >= self.config.max_auto_views {
                let stat = self.shapes.get_mut(&key).expect("scored above");
                stat.status = ShapeStatus::BelowMinGain;
                continue;
            }
            let stat = self.shapes.get_mut(&key).expect("scored above");
            let mut definition = (*stat.shape).clone();
            let existing = self.auto_views.get(&key).cloned();
            definition.name = existing
                .clone()
                .unwrap_or_else(|| format!("{AUTO_VIEW_PREFIX}{}", self.next_id));
            plan.winners
                .push((key, existing, definition, stat.last_answers));
            live_auto += 1;
        }
        plan
    }

    /// Records the outcome of one materialization the database performed.
    pub(crate) fn note_materialized(&mut self, key: u64, name: &str, fresh_declaration: bool) {
        if fresh_declaration {
            self.next_id += 1;
        }
        self.auto_views.insert(key, name.to_owned());
        self.cold_passes.insert(name.to_owned(), 0);
        self.materialized_total += 1;
        if let Some(stat) = self.shapes.get_mut(&key) {
            stat.status = ShapeStatus::Materialized;
        }
        let metrics = crate::metrics::metrics();
        metrics.advisor_materialized.inc();
        if let Some(stat) = self.shapes.get(&key) {
            metrics.advisor_gain_estimate.record(stat.gain as u64);
        }
    }

    /// Records that a candidate was rejected because the lattice already
    /// serves it cheaply through an existing view.
    pub(crate) fn note_rejected_subsumed(&mut self, key: u64) {
        self.rejected_subsumed_total += 1;
        crate::metrics::metrics().advisor_rejected_subsumed.inc();
        if let Some(stat) = self.shapes.get_mut(&key) {
            stat.status = ShapeStatus::RejectedSubsumed;
        }
    }

    /// Records one performed eviction.
    pub(crate) fn note_evicted(&mut self, _name: &str) {
        self.evicted_total += 1;
        crate::metrics::metrics().advisor_evicted.inc();
    }

    /// The auto-view name minted for a shape key, if any.
    pub fn auto_view_name(&self, key: u64) -> Option<&str> {
        self.auto_views.get(&key).map(String::as_str)
    }

    /// The current candidate table, one line per mined shape, hottest
    /// first — the payload of the `ADVISE` wire verb. Line grammar:
    /// `candidate <key> freq=<decayed> total=<n> gain=<estimate>
    /// status=<status> view=<name|-> shape=<debug>` followed by a final
    /// `advisor` summary line.
    pub fn report_lines(&self) -> Vec<String> {
        let mut stats: Vec<(&u64, &ShapeStat)> = self.shapes.iter().collect();
        stats.sort_by(|a, b| b.1.freq.total_cmp(&a.1.freq));
        let mut lines: Vec<String> = stats
            .into_iter()
            .map(|(key, stat)| {
                format!(
                    "candidate {key:016x} freq={:.2} total={} gain={:.1} status={} view={} shape={:?}+{:?}",
                    stat.freq,
                    stat.total,
                    stat.gain,
                    stat.status.as_str(),
                    self.auto_views.get(key).map_or("-", String::as_str),
                    stat.shape.is_a,
                    stat.shape.derived.len(),
                )
            })
            .collect();
        lines.push(format!(
            "advisor mode={} shapes={} auto_views={} materialized={} evicted={} rejected_subsumed={} harvested={}",
            self.config.mode,
            self.shapes.len(),
            self.auto_views.len(),
            self.materialized_total,
            self.evicted_total,
            self.rejected_subsumed_total,
            self.events_harvested,
        ));
        lines
    }
}

/// The advisor's driver: the part of the pass that needs the catalog, the
/// model and the publication path, which the database owns.
impl OptimizedDatabase {
    /// Configures the workload-adaptive view advisor. Any mode other than
    /// [`AdvisorMode::Off`] turns on shape recording in the writer and in
    /// every reader; `Off` turns it back off (an execution then pays one
    /// relaxed atomic load and nothing else).
    pub fn set_advisor_config(&mut self, config: AdvisorConfig) {
        self.cell.set_recording(config.mode != AdvisorMode::Off);
        self.advisor.set_config(config);
    }

    /// The advisor's mined-shape state and lifecycle counters.
    pub fn advisor(&self) -> &Advisor {
        &self.advisor
    }

    /// The `ADVISE` report: one line per mined candidate (hottest first)
    /// plus a summary line.
    pub fn advisor_report(&self) -> Vec<String> {
        self.advisor.report_lines()
    }

    /// One advisor pass at the publish boundary: harvests every shape
    /// ring (the readers' and the writer's own), folds the events into
    /// the decayed frequency table, and — in [`AdvisorMode::Auto`] —
    /// evicts cold auto-views and materializes the gain-scored winners
    /// through the ordinary catalog path. A winner the lattice already
    /// serves about as cheaply through an existing view is rejected
    /// instead of materialized. The advisor only ever evicts names it
    /// minted itself (`__adv_*`); user-declared views are never touched.
    ///
    /// Runs strictly between transactions: a pass that declared a new
    /// query class checkpoints (schema changes are not expressible as WAL
    /// deltas), any other catalog change republishes, and a pass that
    /// changed nothing publishes nothing.
    pub fn run_advisor(&mut self) -> Result<AdvisorPass, DurableError> {
        if self.advisor.config().mode == AdvisorMode::Off {
            return Ok(AdvisorPass::default());
        }
        let mut events = Vec::new();
        self.cell.harvest_shapes(&mut events);
        self.advisor.absorb(&events);
        let version = self.db.data_version();
        let deltas = version.saturating_sub(self.advisor.last_version);
        self.advisor.last_version = version;
        // Estimated membership checks one delta costs an average view,
        // from the maintainer's cumulative candidate-ball sizes.
        let maint = self.catalog.maintenance_stats();
        let maintenance_per_delta =
            maint.candidates_examined as f64 / maint.deltas_applied.max(1) as f64;
        let served = self.catalog.view_names();
        let cost = CostModel::new(&self.db);
        let plan = self
            .advisor
            .plan_pass(&cost, maintenance_per_delta, deltas, &served);
        let mut pass = AdvisorPass {
            harvested: events.len(),
            ..AdvisorPass::default()
        };
        if self.advisor.config().mode != AdvisorMode::Auto {
            return Ok(pass);
        }
        // Evictions first — they free budget for this pass's winners.
        // Defense in depth: only advisor-minted names are ever evicted.
        for name in &plan.evict {
            if Advisor::is_auto_view(name) && self.catalog.evict(name) {
                self.advisor.note_evicted(name);
                pass.evicted.push(name.clone());
            }
        }
        let mut schema_changed = false;
        for (key, existing, definition, expected_extent) in plan.winners {
            // Subsumption rejection: when the lattice already routes this
            // shape through a view whose estimated filter cost is within
            // 2x of a dedicated extension's, a new view buys almost
            // nothing — leave the existing one to serve it.
            let current = self.plan(&definition);
            let incumbent = current
                .chosen_view
                .as_deref()
                .and_then(|name| self.catalog.view(name));
            if let Some(view) = incumbent {
                let cost = CostModel::new(&self.db);
                let via_existing = cost.filter_cost(
                    cost.estimated_candidates(view.extent.len(), &definition),
                    &definition,
                );
                let dedicated = cost.filter_cost(expected_extent as usize, &definition);
                if via_existing <= dedicated * 2.0 + 1.0 {
                    self.advisor.note_rejected_subsumed(key);
                    continue;
                }
            }
            let name = definition.name.clone();
            let fresh = existing.is_none();
            if fresh {
                // The declaration enters the model through the ordinary
                // schema path (`update` panics on an untranslatable
                // model, so pre-validate and skip losers). The served
                // model may carry pre-existing validation warnings, so
                // only problems the new declaration *adds* disqualify
                // it. Evicted auto-views keep their declaration —
                // checkpoint images refer to views by name — so a
                // re-materialization is catalog-only.
                let baseline = subq_dl::validate_model(self.db.model()).len();
                let mut probe = self.db.model().clone();
                probe.queries.push(definition.clone());
                if subq_dl::validate_model(&probe).len() > baseline
                    || subq_translate::translate_model(&probe).is_err()
                {
                    continue;
                }
                self.update(|db| db.model_mut().queries.push(definition.clone()));
                schema_changed = true;
            }
            match self.materialize_view(&name) {
                Ok(()) => {
                    self.advisor.note_materialized(key, &name, fresh);
                    pass.materialized.push(name);
                }
                Err(_) => continue,
            }
        }
        if !pass.materialized.is_empty() || !pass.evicted.is_empty() {
            if schema_changed {
                self.checkpoint()?;
            } else {
                self.publish_snapshot();
            }
        }
        Ok(pass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subq_dl::PathStep;

    fn shape_with(filter: PathFilter, literal: &str) -> QueryClassDecl {
        QueryClassDecl {
            name: "Q".into(),
            is_a: vec!["Patient".into(), "Male".into(), "Patient".into()],
            derived: vec![
                LabeledPath {
                    label: Some("d".into()),
                    steps: vec![PathStep {
                        attr: "suffers".into(),
                        filter,
                    }],
                },
                LabeledPath {
                    label: Some("c".into()),
                    steps: vec![PathStep {
                        attr: "consults".into(),
                        filter: PathFilter::Class("Doctor".into()),
                    }],
                },
            ],
            where_eqs: vec![("d".into(), literal.into()), ("c".into(), "d".into())],
            constraint: None,
        }
    }

    /// Satellite 1: the canonical form is pinned — constants are
    /// generalized away, labels are positional, clauses are sorted.
    #[test]
    fn normalization_pins_the_canonical_form() {
        let shape = normalize_shape(&shape_with(PathFilter::Singleton("flu".into()), "aspirin"));
        assert_eq!(shape.name, "");
        assert_eq!(shape.is_a, vec!["Male".to_owned(), "Patient".to_owned()]);
        // Paths sorted structurally: `consults.(…: Doctor)` before the
        // generalized `suffers` (labels are positional after the sort).
        assert_eq!(shape.derived.len(), 2);
        assert_eq!(shape.derived[0].label.as_deref(), Some("l0"));
        assert_eq!(shape.derived[0].steps[0].attr, "consults");
        assert_eq!(
            shape.derived[0].steps[0].filter,
            PathFilter::Class("Doctor".into())
        );
        assert_eq!(shape.derived[1].label.as_deref(), Some("l1"));
        assert_eq!(shape.derived[1].steps[0].attr, "suffers");
        assert_eq!(
            shape.derived[1].steps[0].filter,
            PathFilter::Any,
            "constant generalized"
        );
        // The `where d = aspirin` literal is dropped; `c = d` survives as
        // the positional pair, sides sorted.
        assert_eq!(shape.where_eqs, vec![("l0".to_owned(), "l1".to_owned())]);
        assert!(shape.constraint.is_none());
    }

    /// Two queries differing only in bound constants hash identically;
    /// a structurally different query does not.
    #[test]
    fn constants_do_not_split_shapes() {
        let a = shape_with(PathFilter::Singleton("flu".into()), "aspirin");
        let b = shape_with(PathFilter::Singleton("measles".into()), "penicillin");
        assert_eq!(normalize_shape(&a), normalize_shape(&b));
        assert_eq!(
            shape_key(&normalize_shape(&a)),
            shape_key(&normalize_shape(&b))
        );
        let c = shape_with(PathFilter::Class("Disease".into()), "aspirin");
        assert_ne!(
            shape_key(&normalize_shape(&a)),
            shape_key(&normalize_shape(&c))
        );
    }

    #[test]
    fn ring_is_bounded_and_harvestable() {
        let ring = ShapeRing::new(4);
        let event = |n: u64| ShapeEvent {
            shape: Arc::new(normalize_shape(&shape_with(PathFilter::Any, "x"))),
            used_view: None,
            candidates_examined: n,
            answers: n,
        };
        for n in 0..6 {
            ring.push(event(n));
        }
        assert_eq!(ring.dropped(), 2, "two events over capacity dropped");
        let mut out = Vec::new();
        ring.harvest(&mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0].candidates_examined, 0);
        assert_eq!(out[3].candidates_examined, 3);
        // The ring is reusable after a harvest.
        ring.push(event(9));
        out.clear();
        ring.harvest(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].candidates_examined, 9);
    }

    /// Two producers push while the consumer harvests: nothing is lost
    /// or duplicated (harvested + dropped == pushed) and each producer's
    /// events come out in the order it pushed them.
    #[test]
    fn concurrent_pushes_and_harvests_lose_nothing_and_keep_order() {
        const PER_PRODUCER: u64 = 20_000;
        let ring = ShapeRing::new(8);
        let shape = Arc::new(normalize_shape(&shape_with(PathFilter::Any, "x")));
        let start = std::sync::Barrier::new(3);
        let mut harvested = Vec::new();
        std::thread::scope(|scope| {
            let producers: Vec<_> = (0..2u64)
                .map(|producer| {
                    let (ring, shape, start) = (&ring, &shape, &start);
                    scope.spawn(move || {
                        start.wait();
                        for sequence in 0..PER_PRODUCER {
                            ring.push(ShapeEvent {
                                shape: shape.clone(),
                                used_view: None,
                                candidates_examined: producer,
                                answers: sequence,
                            });
                        }
                    })
                })
                .collect();
            start.wait();
            while !producers.iter().all(|handle| handle.is_finished()) {
                ring.harvest(&mut harvested);
            }
        });
        ring.harvest(&mut harvested);
        assert_eq!(
            harvested.len() as u64 + ring.dropped(),
            2 * PER_PRODUCER,
            "every push is either harvested or counted as dropped"
        );
        assert!(!harvested.is_empty());
        for producer in 0..2 {
            let sequences: Vec<u64> = harvested
                .iter()
                .filter(|event| event.candidates_examined == producer)
                .map(|event| event.answers)
                .collect();
            assert!(
                sequences.windows(2).all(|pair| pair[0] < pair[1]),
                "producer {producer} came out reordered or duplicated"
            );
        }
    }

    /// Per-view hit tallies are observed state the advisor alone keeps:
    /// they accumulate across passes, and every pass sets each tally's
    /// gauge, touched this pass or not.
    #[test]
    fn view_hit_tallies_accumulate_across_passes_and_surface_as_gauges() {
        let event = |used_view: Option<&str>| ShapeEvent {
            shape: Arc::new(normalize_shape(&shape_with(PathFilter::Any, "x"))),
            used_view: used_view.map(str::to_owned),
            candidates_examined: 1,
            answers: 1,
        };
        let gauge =
            |view: &str| subq_telemetry::gauge(&format!("subq_view_hits{{view=\"{view}\"}}"));
        let mut advisor = Advisor::default();
        let mut first = vec![event(None)];
        first.extend((0..2).map(|_| event(Some("TallyHot"))));
        first.extend((0..3).map(|_| event(Some("TallyCold"))));
        advisor.absorb(&first);
        assert_eq!(advisor.view_hits("TallyHot"), 2);
        assert_eq!(advisor.view_hits("TallyCold"), 3);
        assert_eq!(advisor.view_hits("Nonsense"), 0);
        assert_eq!(advisor.events_harvested, 6);

        advisor.absorb(&[event(Some("TallyHot"))]);
        assert_eq!(advisor.view_hits("TallyHot"), 3, "accumulates");
        assert_eq!(advisor.view_hits("TallyCold"), 3, "kept while idle");
        assert_eq!(gauge("TallyHot").get(), 3);
        assert_eq!(gauge("TallyCold").get(), 3);
    }

    #[test]
    fn advisor_mode_parses_the_flag_values() {
        assert_eq!(AdvisorMode::parse("off"), Some(AdvisorMode::Off));
        assert_eq!(AdvisorMode::parse("observe"), Some(AdvisorMode::Observe));
        assert_eq!(AdvisorMode::parse("auto"), Some(AdvisorMode::Auto));
        assert_eq!(AdvisorMode::parse("bogus"), None);
        assert_eq!(AdvisorMode::Auto.to_string(), "auto");
    }
}
