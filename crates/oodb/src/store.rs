//! The object store: objects, class memberships, attribute assertions, and
//! schema conformance checking.
//!
//! A database state (Section 2.1) relates objects to classes by
//! instance-relationships and to each other by attribute values. Explicit
//! class membership is propagated upwards along the isA hierarchy ("any
//! instance of a class is also an instance of the superclasses"), and
//! attribute assertions made through an inverse synonym are stored in the
//! primitive direction. Retraction propagates the other way: removing an
//! object from a class also removes it from every subclass, since any
//! subclass membership would immediately re-imply the retracted one.
//!
//! Every effective mutation — object creation, class assertion and
//! retraction (including the propagated ones), attribute assertion and
//! retraction — is recorded in a [`DeltaLog`] stamped with a monotonically
//! increasing [`Database::data_version`]; the incremental view maintainer
//! ([`crate::maintain`]) consumes the log to refresh only affected views.
//!
//! Attribute pairs are held in Fx-hashed forward *and* reverse indexes per
//! attribute, so [`Database::attr_values`] is a lookup proportional to the
//! answer instead of a scan over every pair of the attribute, and the
//! maintainer can walk paths backwards when computing candidate objects.
//! How finely those indexes are shared between a state and its clones —
//! per chunk of `ATTR_CHUNK` object ids, in each direction — is decided
//! here and nowhere else: every other module reads through
//! [`Database::attr_out`] / [`Database::attr_in`] and writes through
//! [`Database::assert_attr`] / [`Database::retract_attr`].

use crate::maintain::{Delta, DeltaLog};
use crate::objset::ObjSet;
use fxhash::{FxHashMap, FxHashSet, FxHasher};
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::fmt;
use std::hash::Hasher;
use std::sync::Arc;
use subq_dl::{DlModel, PathFilter};

/// An object identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjId(pub u32);

impl ObjId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A violation of the schema found by conformance checking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConformanceViolation {
    /// An attribute value is not an instance of the class required by the
    /// declaring class or the attribute's global range.
    IllTypedValue {
        object: String,
        attribute: String,
        value: String,
        required: String,
    },
    /// A `necessary` attribute has no value for a member of its class.
    MissingNecessaryValue {
        object: String,
        attribute: String,
        class: String,
    },
    /// A `single` attribute has more than one value for a member of its
    /// class.
    MultipleValuesForSingle {
        object: String,
        attribute: String,
        class: String,
    },
    /// An object violates a class constraint clause.
    ConstraintViolated { object: String, class: String },
}

impl fmt::Display for ConformanceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConformanceViolation::IllTypedValue {
                object,
                attribute,
                value,
                required,
            } => write!(
                f,
                "value `{value}` of attribute `{attribute}` on `{object}` is not an instance of `{required}`"
            ),
            ConformanceViolation::MissingNecessaryValue {
                object,
                attribute,
                class,
            } => write!(
                f,
                "`{object}` is a `{class}` but has no value for the necessary attribute `{attribute}`"
            ),
            ConformanceViolation::MultipleValuesForSingle {
                object,
                attribute,
                class,
            } => write!(
                f,
                "`{object}` is a `{class}` but has several values for the single attribute `{attribute}`"
            ),
            ConformanceViolation::ConstraintViolated { object, class } => {
                write!(f, "`{object}` violates the constraint clause of `{class}`")
            }
        }
    }
}

/// Object ids per copy-on-write chunk of an attribute's postings: the
/// unit a mutation after a snapshot copies, in each direction.
const ATTR_CHUNK: usize = 256;

/// One direction of an attribute index, key → posting list, split by key
/// id range: `chunks[key / ATTR_CHUNK]` holds the keys of that range.
/// A clone shares every chunk; a mutation after a clone copies only the
/// chunk its key falls in. Ranges that hold no key are unallocated.
#[derive(Clone, Debug, Default)]
struct Postings {
    chunks: Vec<Option<Arc<FxHashMap<ObjId, ObjSet>>>>,
    /// Number of keys over all chunks (kept in step with them).
    keys: usize,
}

impl Postings {
    fn get(&self, key: ObjId) -> Option<&ObjSet> {
        self.chunks
            .get(key.index() / ATTR_CHUNK)?
            .as_ref()?
            .get(&key)
    }

    fn iter(&self) -> impl Iterator<Item = (ObjId, &ObjSet)> {
        self.chunks
            .iter()
            .flatten()
            .flat_map(|chunk| chunk.iter().map(|(&key, values)| (key, values)))
    }

    /// The posting list under `key`, created empty when absent, in a
    /// chunk this index owns alone (copied first if a clone shares it).
    fn entry(&mut self, key: ObjId) -> &mut ObjSet {
        let at = key.index() / ATTR_CHUNK;
        if self.chunks.len() <= at {
            self.chunks.resize(at + 1, None);
        }
        let chunk = Arc::make_mut(self.chunks[at].get_or_insert_with(Arc::default));
        match chunk.entry(key) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => {
                self.keys += 1;
                slot.insert(ObjSet::new())
            }
        }
    }

    /// Removes `value` from under `key`, the key with its last value and
    /// the chunk with its last key. Callers probe that the pair is
    /// present first, so the chunk copy this may cause is never wasted.
    fn remove(&mut self, key: ObjId, value: ObjId) {
        let at = key.index() / ATTR_CHUNK;
        let Some(Some(chunk)) = self.chunks.get_mut(at) else {
            return;
        };
        let chunk = Arc::make_mut(chunk);
        let Some(values) = chunk.get_mut(&key) else {
            return;
        };
        values.remove(&value);
        if values.is_empty() {
            chunk.remove(&key);
            self.keys -= 1;
            if chunk.is_empty() {
                self.chunks[at] = None;
            }
        }
    }
}

/// The pairs of one primitive attribute, indexed in both directions.
///
/// `forward` maps a source to its values, `reverse` a value to its
/// sources; the two always describe the same pair set. Posting lists are
/// compressed bitmaps ([`ObjSet`]) held in copy-on-write chunks of
/// [`ATTR_CHUNK`] ids ([`Postings`]), so changing one pair of an index a
/// snapshot shares copies one forward and one reverse chunk, not the
/// attribute. Pair and key counts are maintained as O(1) statistics for
/// the cost model.
#[derive(Clone, Debug, Default)]
struct AttrIndex {
    forward: Postings,
    reverse: Postings,
    /// Number of stored pairs (kept in step with the indexes).
    pairs: usize,
}

impl AttrIndex {
    fn contains(&self, from: ObjId, to: ObjId) -> bool {
        self.forward
            .get(from)
            .is_some_and(|values| values.contains(&to))
    }

    /// Adds a pair to a possibly shared index; returns whether it was
    /// absent. Probes first: a re-assertion copies nothing. An effective
    /// one copies the two tables of chunk pointers and, through
    /// [`Postings::entry`], the two chunks the pair lands in.
    fn insert(index: &mut Arc<AttrIndex>, from: ObjId, to: ObjId) -> bool {
        if index.contains(from, to) {
            return false;
        }
        let index = Arc::make_mut(index);
        index.forward.entry(from).insert(to);
        index.reverse.entry(to).insert(from);
        index.pairs += 1;
        true
    }

    /// Removes a pair from a possibly shared index; returns whether it
    /// was present. Probes first: a miss copies nothing.
    fn remove(index: &mut Arc<AttrIndex>, from: ObjId, to: ObjId) -> bool {
        if !index.contains(from, to) {
            return false;
        }
        let index = Arc::make_mut(index);
        index.forward.remove(from, to);
        index.reverse.remove(to, from);
        index.pairs -= 1;
        true
    }
}

/// O(1) physical statistics of one primitive attribute's index, for the
/// cost model: total pair count, distinct sources, distinct targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct AttrCardinality {
    pub pairs: usize,
    pub sources: usize,
    pub targets: usize,
}

impl AttrCardinality {
    /// Average out-fanout (values per source), 0 when unused.
    pub fn avg_fanout(&self) -> f64 {
        if self.sources == 0 {
            0.0
        } else {
            self.pairs as f64 / self.sources as f64
        }
    }

    /// Average in-fanout (sources per target), 0 when unused.
    pub fn avg_in_fanout(&self) -> f64 {
        if self.targets == 0 {
            0.0
        } else {
            self.pairs as f64 / self.targets as f64
        }
    }
}

/// Retained delta-log entries are capped: when the log grows past this
/// bound, the oldest half is dropped. Consumers whose snapshot predates
/// the truncation point (a catalog refreshed less often than every ~32k
/// mutations) detect it through [`DeltaLog::since`] and fall back to full
/// re-evaluation, so the cap bounds memory for log-oblivious users of
/// [`Database`] without affecting correctness.
pub(crate) const DELTA_LOG_CAP: usize = 1 << 16;

/// Objects per copy-on-write chunk of the name table.
const NAME_CHUNK: usize = 512;

/// Copy-on-write shards of the name → id index.
const NAME_SHARDS: usize = 32;

/// The object name table, chunked so that a clone shares all full chunks
/// and appending after a clone copies at most [`NAME_CHUNK`] names.
#[derive(Clone, Debug, Default)]
struct ObjectNames {
    chunks: Vec<Arc<Vec<String>>>,
    len: usize,
}

impl ObjectNames {
    fn push(&mut self, name: String) {
        if self.len.is_multiple_of(NAME_CHUNK) {
            self.chunks.push(Arc::new(Vec::with_capacity(NAME_CHUNK)));
        }
        Arc::make_mut(self.chunks.last_mut().expect("pushed above")).push(name);
        self.len += 1;
    }

    fn get(&self, index: usize) -> &str {
        &self.chunks[index / NAME_CHUNK][index % NAME_CHUNK]
    }
}

/// The name → id index, sharded by name hash so that a clone shares every
/// shard and an insertion after a clone copies one shard (1/[`NAME_SHARDS`]
/// of the objects), not the whole map.
#[derive(Clone, Debug)]
struct NameIndex {
    shards: Vec<Arc<FxHashMap<String, ObjId>>>,
}

impl Default for NameIndex {
    fn default() -> Self {
        NameIndex {
            shards: std::iter::repeat_with(|| Arc::new(FxHashMap::default()))
                .take(NAME_SHARDS)
                .collect(),
        }
    }
}

impl NameIndex {
    fn shard_of(name: &str) -> usize {
        let mut hasher = FxHasher::default();
        hasher.write(name.as_bytes());
        (hasher.finish() as usize) % NAME_SHARDS
    }

    fn get(&self, name: &str) -> Option<ObjId> {
        self.shards[Self::shard_of(name)].get(name).copied()
    }

    fn insert(&mut self, name: String, id: ObjId) {
        Arc::make_mut(&mut self.shards[Self::shard_of(&name)]).insert(name, id);
    }
}

/// An in-memory database state over a DL model.
///
/// Every bulky component — the model, the name table, the name index, and
/// each per-class extent and per-attribute index — sits behind its own
/// [`Arc`] shard, so `Database::clone` is proportional to the number of
/// *shards* (classes + attributes + name chunks), not to the number of
/// objects or assertions, and a mutation after a clone copies only what
/// it touches: the extent of the class, the chunk of names, or — per
/// attribute pair — one forward and one reverse chunk of [`ATTR_CHUNK`]
/// ids plus the attribute's table of chunk pointers. This is what makes
/// publishing a read [`Snapshot`](crate::snapshot::Snapshot) after a
/// small transaction cheap, and keeps what a reader frees when it lets
/// go of the replaced snapshot just as small.
#[derive(Clone, Debug)]
pub struct Database {
    model: Arc<DlModel>,
    object_names: ObjectNames,
    object_by_name: NameIndex,
    /// Explicit (and upward-propagated) class memberships, one
    /// copy-on-write compressed-bitmap shard per class.
    extents: FxHashMap<String, Arc<ObjSet>>,
    /// Attribute assertions in the primitive direction, indexed both
    /// ways; each attribute's postings are copy-on-write per id-range
    /// chunk.
    attrs: FxHashMap<String, Arc<AttrIndex>>,
    /// Bumped whenever the model is mutated through [`Database::model_mut`];
    /// lets wrappers (the optimizer) detect schema changes and drop any
    /// state derived from the old model.
    schema_version: u64,
    /// The change log behind incremental view maintenance.
    log: DeltaLog,
    /// When the durable engine owns history (`Some`), log entries with
    /// `data_version > floor` are not yet on disk and must never be
    /// dropped: both [`Database::truncate_log`] and the
    /// [`DELTA_LOG_CAP`] enforcement clamp their truncation point to the
    /// floor. `OptimizedDatabase::update` raises it to the version each
    /// transaction starts at, and `commit_durable` past the transaction
    /// once its WAL record is appended.
    durable_floor: Option<u64>,
}

impl Database {
    /// Creates an empty state over the given model.
    pub fn new(model: DlModel) -> Self {
        Database {
            model: Arc::new(model),
            object_names: ObjectNames::default(),
            object_by_name: NameIndex::default(),
            extents: FxHashMap::default(),
            attrs: FxHashMap::default(),
            schema_version: 0,
            log: DeltaLog::new(),
            durable_floor: None,
        }
    }

    /// Rebuilds a state from checkpoint-image parts: names in id order,
    /// extents, and the forward halves of the attribute indexes (the
    /// reverse indexes and pair counts are derived). The log starts empty
    /// at `data_version`, exactly like a snapshot clone, so the WAL
    /// suffix replays on top and view maintenance sees the replayed
    /// entries as a normal log suffix. Returns `None` when any stored id
    /// is out of the name-table range (a corrupt image must fail to
    /// load, not build a state that panics later).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_checkpoint(
        model: DlModel,
        schema_version: u64,
        data_version: u64,
        names: Vec<String>,
        extents: Vec<(String, ObjSet)>,
        attrs: Vec<(String, Vec<(ObjId, ObjSet)>)>,
    ) -> Option<Database> {
        let count = names.len() as u64;
        let mut object_names = ObjectNames::default();
        let mut object_by_name = NameIndex::default();
        for (index, name) in names.into_iter().enumerate() {
            object_by_name.insert(name.clone(), ObjId(index as u32));
            object_names.push(name);
        }
        let mut extent_map: FxHashMap<String, Arc<ObjSet>> = FxHashMap::default();
        let in_range = |set: &ObjSet| set.last().is_none_or(|id| u64::from(id.0) < count);
        for (class, extent) in extents {
            if !in_range(&extent) {
                return None;
            }
            extent_map.insert(class, Arc::new(extent));
        }
        let mut attr_map: FxHashMap<String, Arc<AttrIndex>> = FxHashMap::default();
        for (attribute, postings) in attrs {
            let mut index = AttrIndex::default();
            for (from, values) in postings {
                if u64::from(from.0) >= count || !in_range(&values) {
                    return None;
                }
                index.pairs += values.len();
                for to in &values {
                    index.reverse.entry(to).insert(from);
                }
                *index.forward.entry(from) = values;
            }
            attr_map.insert(attribute, Arc::new(index));
        }
        Some(Database {
            model: Arc::new(model),
            object_names,
            object_by_name,
            extents: extent_map,
            attrs: attr_map,
            schema_version,
            log: DeltaLog::at_version(data_version),
            durable_floor: None,
        })
    }

    /// The DL model this state conforms to.
    pub fn model(&self) -> &DlModel {
        &self.model
    }

    /// Mutable access to the model, for schema evolution. Every call bumps
    /// [`Database::schema_version`], pessimistically treating the model as
    /// changed: anything derived from it (translations, subsumption
    /// verdicts, saturated queries) must be recomputed.
    pub fn model_mut(&mut self) -> &mut DlModel {
        self.schema_version += 1;
        Arc::make_mut(&mut self.model)
    }

    /// The current schema version (0 until the first [`Database::model_mut`]).
    pub fn schema_version(&self) -> u64 {
        self.schema_version
    }

    /// The current data version: stamped on the last effective state
    /// mutation, strictly increasing, 0 for a fresh state.
    pub fn data_version(&self) -> u64 {
        self.log.version()
    }

    /// Clamps a truncation point to the durable floor: entries newer than
    /// the floor exist nowhere on disk yet and must stay in memory.
    fn clamp_to_durable_floor(&self, through: u64) -> u64 {
        match self.durable_floor {
            Some(floor) => through.min(floor),
            None => through,
        }
    }

    /// Marks every entry with `data_version <= floor` as safely on disk
    /// (WAL or checkpoint image, or covered by the image taken before the
    /// next logged commit); newer entries are pinned in memory.
    /// Monotone: the floor never moves backwards.
    pub(crate) fn set_durable_floor(&mut self, floor: u64) {
        let floor = self.durable_floor.map_or(floor, |prev| prev.max(floor));
        self.durable_floor = Some(floor);
    }

    /// The durable floor, when a durable engine owns history.
    pub fn durable_floor(&self) -> Option<u64> {
        self.durable_floor
    }

    /// Appends a delta, enforcing [`DELTA_LOG_CAP`] by dropping the
    /// oldest half when the log outgrows it (amortized O(1)). Under a
    /// durable engine the drop point is clamped to the durable floor, so
    /// the log may temporarily exceed the cap rather than lose entries
    /// that are not yet on disk.
    fn record(&mut self, delta: Delta) {
        self.log.record(delta);
        if self.log.len() > DELTA_LOG_CAP {
            let through =
                self.clamp_to_durable_floor(self.log.version() - (DELTA_LOG_CAP as u64) / 2);
            self.log.truncate_through(through);
        }
    }

    /// The change log (deltas since the last truncation).
    pub fn delta_log(&self) -> &DeltaLog {
        &self.log
    }

    /// A clone for publication as an immutable read snapshot: shares
    /// every copy-on-write shard like `Clone` does, but carries an
    /// **empty** delta log at the same data version — readers never
    /// replay the log, and the retained entries (Strings per delta) are
    /// the one component a plain clone would deep-copy.
    pub fn snapshot_clone(&self) -> Self {
        let mut clone = self.clone_without_log();
        clone.log = DeltaLog::at_version(self.log.version());
        clone
    }

    /// `Clone` minus the log entries (helper for
    /// [`Database::snapshot_clone`]; the log field is overwritten by the
    /// caller, so an empty placeholder avoids the entry deep-copy).
    fn clone_without_log(&self) -> Self {
        Database {
            model: self.model.clone(),
            object_names: self.object_names.clone(),
            object_by_name: self.object_by_name.clone(),
            extents: self.extents.clone(),
            attrs: self.attrs.clone(),
            schema_version: self.schema_version,
            log: DeltaLog::new(),
            // Snapshot clones are read-only; they never truncate, so the
            // floor is irrelevant — but carrying it costs nothing.
            durable_floor: self.durable_floor,
        }
    }

    /// Drops log entries with `data_version <= through`; call with the
    /// oldest version any view maintainer still needs (see
    /// [`DeltaLog::truncate_through`]). Under a durable engine the point
    /// is clamped to the durable floor — truncation never outruns what
    /// the WAL and checkpoint have persisted.
    pub fn truncate_log(&mut self, through: u64) {
        let through = self.clamp_to_durable_floor(through);
        self.log.truncate_through(through);
    }

    /// Creates (or finds) an object by name.
    pub fn add_object(&mut self, name: &str) -> ObjId {
        if let Some(id) = self.object_by_name.get(name) {
            return id;
        }
        let id = ObjId(self.object_names.len as u32);
        self.object_names.push(name.to_owned());
        self.object_by_name.insert(name.to_owned(), id);
        self.record(Delta::AddObject { object: id });
        id
    }

    /// Looks up an object by name.
    pub fn object(&self, name: &str) -> Option<ObjId> {
        self.object_by_name.get(name)
    }

    /// The name of an object.
    pub fn object_name(&self, id: ObjId) -> &str {
        self.object_names.get(id.index())
    }

    /// Number of objects.
    pub fn object_count(&self) -> usize {
        self.object_names.len
    }

    /// All objects.
    pub fn objects(&self) -> impl Iterator<Item = ObjId> + '_ {
        (0..self.object_names.len as u32).map(ObjId)
    }

    /// The full object universe `0..object_count` as a run-compressed
    /// bitmap — O(objects / 65 536) to build, so unrestricted candidate
    /// sets stop paying a per-object materialization.
    pub fn object_universe(&self) -> ObjSet {
        ObjSet::universe(self.object_names.len as u32)
    }

    /// Asserts that an object is an instance of a class; membership is
    /// propagated to all declared superclasses. Every extent actually
    /// grown is logged as its own delta.
    pub fn assert_class(&mut self, object: ObjId, class: &str) {
        if self
            .extents
            .get(class)
            .is_some_and(|ext| ext.contains(&object))
        {
            return;
        }
        Arc::make_mut(self.extents.entry(class.to_owned()).or_default()).insert(object);
        self.record(Delta::AssertClass {
            object,
            class: class.to_owned(),
        });
        let supers: Vec<String> = self
            .model
            .class(class)
            .map(|decl| decl.is_a.clone())
            .unwrap_or_default();
        for sup in supers {
            self.assert_class(object, &sup);
        }
    }

    /// Retracts an object from a class. Because explicit membership in any
    /// subclass would immediately re-imply the retracted one (upward
    /// propagation), retraction propagates *downwards*: the object also
    /// leaves every declared subclass it is in. Every extent actually
    /// shrunk is logged as its own delta. Retracting a non-member is a
    /// no-op that looks at nothing but the class's own extent, which
    /// relies on `isA` edges being declared before members are asserted
    /// beneath them (an edge added later through [`Database::model_mut`]
    /// is not propagated to existing members).
    pub fn retract_class(&mut self, object: ObjId, class: &str) {
        // Extents are upward-closed along `isA` (assertion propagates up,
        // retraction down, replay is physical over a log that recorded
        // both), so a non-member of `class` is in no subclass either.
        if self.is_instance_of(object, class) {
            self.retract_class_and_subclasses(object, class);
        }
    }

    /// [`Database::retract_class`] without the non-member early-out.
    fn retract_class_and_subclasses(&mut self, object: ObjId, class: &str) {
        // The retracted class plus its transitive subclasses, via a
        // subclass adjacency built in one pass over the declarations.
        let affected: Vec<String> = {
            let mut children: FxHashMap<&str, Vec<&str>> = FxHashMap::default();
            for decl in &self.model.classes {
                for sup in &decl.is_a {
                    children
                        .entry(sup.as_str())
                        .or_default()
                        .push(decl.name.as_str());
                }
            }
            let mut seen: FxHashSet<&str> = FxHashSet::default();
            seen.insert(class);
            let mut out: Vec<String> = Vec::new();
            let mut frontier: Vec<&str> = vec![class];
            while let Some(current) = frontier.pop() {
                out.push(current.to_owned());
                for &child in children.get(current).map(Vec::as_slice).unwrap_or(&[]) {
                    if seen.insert(child) {
                        frontier.push(child);
                    }
                }
            }
            out
        };
        for name in affected {
            let removed = match self.extents.get_mut(&name) {
                // Probe before `make_mut`: a miss must not copy the shard.
                Some(ext) if ext.contains(&object) => Arc::make_mut(ext).remove(&object),
                _ => false,
            };
            if removed {
                self.record(Delta::RetractClass {
                    object,
                    class: name,
                });
            }
        }
    }

    /// Asserts an attribute value; inverse synonyms are stored in the
    /// primitive direction. Logged when the pair is new.
    pub fn assert_attr(&mut self, from: ObjId, attribute: &str, to: ObjId) {
        let (name, (from, to)) = self.resolve_pair(attribute, from, to);
        if AttrIndex::insert(self.attrs.entry(name.clone()).or_default(), from, to) {
            self.record(Delta::AssertAttr {
                from,
                attribute: name,
                to,
            });
        }
    }

    /// Retracts an attribute value (inverse synonyms are resolved like in
    /// [`Database::assert_attr`]). Logged when the pair existed.
    pub fn retract_attr(&mut self, from: ObjId, attribute: &str, to: ObjId) {
        let (name, (from, to)) = self.resolve_pair(attribute, from, to);
        let removed = self
            .attrs
            .get_mut(&name)
            .is_some_and(|index| AttrIndex::remove(index, from, to));
        if removed {
            self.record(Delta::RetractAttr {
                from,
                attribute: name,
                to,
            });
        }
    }

    /// Applies one WAL-decoded delta *physically*: no isA propagation and
    /// no synonym resolution, because the log already contains every
    /// propagated membership as its own entry and every attribute pair in
    /// the primitive direction. Each applied delta is recorded, so the
    /// in-memory log (and [`Database::data_version`]) advances exactly as
    /// it did when the delta was first produced — which is what lets view
    /// maintenance catch restored extents up through the ordinary
    /// `since(fresh_as_of)` path after recovery.
    ///
    /// Returns `false` (leaving the state untouched) when the delta is
    /// inconsistent with the current state — a non-sequential object id,
    /// an out-of-range reference, a retraction of something absent. The
    /// original log records only *effective* mutations, so on an intact
    /// WAL every replay is effective; an ineffective one means the record
    /// stream is corrupt in a way the CRC did not catch, and recovery
    /// stops there instead of panicking.
    pub(crate) fn apply_replayed(&mut self, delta: Delta, add_object_name: Option<&str>) -> bool {
        let count = self.object_names.len as u32;
        let applied = match &delta {
            Delta::AddObject { object } => match add_object_name {
                Some(name) if object.0 == count && self.object_by_name.get(name).is_none() => {
                    self.object_names.push(name.to_owned());
                    self.object_by_name.insert(name.to_owned(), *object);
                    true
                }
                _ => false,
            },
            Delta::AssertClass { object, class } => {
                object.0 < count
                    && !self
                        .extents
                        .get(class)
                        .is_some_and(|ext| ext.contains(object))
                    && Arc::make_mut(self.extents.entry(class.clone()).or_default()).insert(*object)
            }
            Delta::RetractClass { object, class } => match self.extents.get_mut(class) {
                Some(ext) if ext.contains(object) => Arc::make_mut(ext).remove(object),
                _ => false,
            },
            Delta::AssertAttr {
                from,
                attribute,
                to,
            } => {
                from.0 < count
                    && to.0 < count
                    && AttrIndex::insert(
                        self.attrs.entry(attribute.clone()).or_default(),
                        *from,
                        *to,
                    )
            }
            Delta::RetractAttr {
                from,
                attribute,
                to,
            } => self
                .attrs
                .get_mut(attribute)
                .is_some_and(|index| AttrIndex::remove(index, *from, *to)),
        };
        if applied {
            self.record(delta);
        }
        applied
    }

    /// Every class extent, sorted by class name — the deterministic
    /// enumeration the checkpoint image is written from.
    pub(crate) fn checkpoint_extents(&self) -> Vec<(&str, &ObjSet)> {
        let mut out: Vec<(&str, &ObjSet)> = self
            .extents
            .iter()
            .map(|(name, ext)| (name.as_str(), ext.as_ref()))
            .collect();
        out.sort_unstable_by_key(|&(name, _)| name);
        out
    }

    /// Every attribute's forward postings, sorted by attribute name and
    /// source id — the reverse half is derived again at load time.
    pub(crate) fn checkpoint_attrs(&self) -> Vec<(&str, Vec<(ObjId, &ObjSet)>)> {
        let mut out: Vec<(&str, Vec<(ObjId, &ObjSet)>)> = self
            .attrs
            .iter()
            .map(|(name, index)| {
                let mut postings: Vec<(ObjId, &ObjSet)> = index.forward.iter().collect();
                postings.sort_unstable_by_key(|&(from, _)| from);
                (name.as_str(), postings)
            })
            .collect();
        out.sort_unstable_by_key(|&(name, _)| name);
        out
    }

    /// Resolves a possibly-synonym attribute to its primitive name and
    /// pair direction.
    fn resolve_pair(&self, attribute: &str, from: ObjId, to: ObjId) -> (String, (ObjId, ObjId)) {
        match self.model.resolve_attribute(attribute) {
            Some((decl, true)) => (decl.name.clone(), (to, from)),
            Some((decl, false)) => (decl.name.clone(), (from, to)),
            None => (attribute.to_owned(), (from, to)),
        }
    }

    /// Whether the object is a (direct or inherited) instance of the class.
    pub fn is_instance_of(&self, object: ObjId, class: &str) -> bool {
        self.extents
            .get(class)
            .is_some_and(|ext| ext.contains(&object))
    }

    /// The stored extent of a class (explicit members plus members of
    /// subclasses, which were propagated at assertion time), materialized
    /// as an ordered set. This form copies; every hot path reads the
    /// bitmap through [`Database::class_extent_ref`] instead, leaving
    /// this for tests and ordered API boundaries.
    pub fn class_extent(&self, class: &str) -> BTreeSet<ObjId> {
        self.class_extent_ref(class)
            .map(ObjSet::to_btree)
            .unwrap_or_default()
    }

    /// The stored extent of a class without cloning (`None` when no object
    /// was ever asserted into it) — the maintained compressed-bitmap
    /// index behind [`Database::class_extent`], for hot read paths.
    pub fn class_extent_ref(&self, class: &str) -> Option<&ObjSet> {
        self.extents.get(class).map(Arc::as_ref)
    }

    /// Cardinality of a class extent (0 when nothing was asserted) — an
    /// O(containers) read off the maintained index, for the cost model.
    pub fn class_cardinality(&self, class: &str) -> usize {
        self.extents.get(class).map_or(0, |ext| ext.len())
    }

    /// Names of every class that ever had a member asserted (the keys of
    /// the maintained extent shards).
    pub fn class_names(&self) -> impl Iterator<Item = &str> {
        self.extents.keys().map(String::as_str)
    }

    /// Names of every *primitive* attribute that ever had a pair asserted
    /// (the keys of the maintained index shards).
    pub fn attribute_names(&self) -> impl Iterator<Item = &str> {
        self.attrs.keys().map(String::as_str)
    }

    /// The primitive name and direction behind a possibly-synonym
    /// attribute: `(name, true)` when `attribute` is an inverse synonym.
    /// Resolve once per step, then read through [`Database::attr_out`] /
    /// [`Database::attr_in`] on hot paths.
    pub fn resolve_attr_direction<'a>(&'a self, attribute: &'a str) -> (&'a str, bool) {
        match self.model.resolve_attribute(attribute) {
            Some((decl, inv)) => (decl.name.as_str(), inv),
            None => (attribute, false),
        }
    }

    /// The values of a (possibly synonym) attribute for an object,
    /// materialized as an ordered set. This form copies; hot paths read
    /// the postings through [`Database::attr_values_ref`] /
    /// [`Database::attr_out`] / [`Database::attr_in`] instead, leaving
    /// this for tests and ordered API boundaries.
    pub fn attr_values(&self, object: ObjId, attribute: &str) -> BTreeSet<ObjId> {
        self.attr_values_ref(object, attribute)
            .map(ObjSet::to_btree)
            .unwrap_or_default()
    }

    /// The posting list of a (possibly synonym) attribute for an object,
    /// without cloning — `None` when the object has no values.
    pub fn attr_values_ref(&self, object: ObjId, attribute: &str) -> Option<&ObjSet> {
        let (name, inverted) = self.resolve_attr_direction(attribute);
        if inverted {
            self.attr_in(object, name)
        } else {
            self.attr_out(object, name)
        }
    }

    /// Whether `to` is a value of the (possibly synonym) attribute for
    /// `from` — a containment probe on the maintained indexes, no clone.
    pub fn has_attr_value(&self, from: ObjId, attribute: &str, to: ObjId) -> bool {
        let (name, inverted) = self.resolve_attr_direction(attribute);
        let lookup = if inverted {
            self.attr_in(from, name)
        } else {
            self.attr_out(from, name)
        };
        lookup.is_some_and(|values| values.contains(&to))
    }

    /// The values of a *primitive* attribute for a source object, from the
    /// forward index (no clone; `None` when the object has no values).
    pub fn attr_out(&self, from: ObjId, attribute: &str) -> Option<&ObjSet> {
        self.attrs.get(attribute)?.forward.get(from)
    }

    /// The sources of a *primitive* attribute for a value object, from the
    /// reverse index (no clone; `None` when nothing points at the object).
    pub fn attr_in(&self, to: ObjId, attribute: &str) -> Option<&ObjSet> {
        self.attrs.get(attribute)?.reverse.get(to)
    }

    /// O(1) cardinality statistics of a *primitive* attribute's index:
    /// pair count, distinct sources, distinct targets. Default (all
    /// zeros) when the attribute was never asserted.
    pub fn attr_cardinality(&self, attribute: &str) -> AttrCardinality {
        self.attrs
            .get(attribute)
            .map(|index| AttrCardinality {
                pairs: index.pairs,
                sources: index.forward.keys,
                targets: index.reverse.keys,
            })
            .unwrap_or_default()
    }

    /// All pairs of a primitive attribute (rebuilt from the forward
    /// index; prefer [`Database::attr_out`] / [`Database::attr_in`] on hot
    /// paths).
    pub fn attr_pairs(&self, attribute: &str) -> BTreeSet<(ObjId, ObjId)> {
        let mut out = BTreeSet::new();
        if let Some(index) = self.attrs.get(attribute) {
            for (from, values) in index.forward.iter() {
                for to in values {
                    out.insert((from, to));
                }
            }
        }
        out
    }

    /// Whether an object satisfies a path-step filter.
    pub fn satisfies_filter(&self, object: ObjId, filter: &PathFilter) -> bool {
        match filter {
            PathFilter::Any => true,
            PathFilter::Class(class) => class == "Object" || self.is_instance_of(object, class),
            PathFilter::Singleton(name) => self.object(name) == Some(object),
        }
    }

    /// Checks the state against the structural schema (attribute typing,
    /// `necessary`, `single`, and global domain/range declarations) and the
    /// class constraint clauses.
    pub fn check_conformance(&self) -> Vec<ConformanceViolation> {
        let mut violations = Vec::new();
        // Per-class attribute restrictions, read off the maintained
        // indexes without cloning extents or postings.
        for class in &self.model.classes {
            let members = self.class_extent_ref(&class.name);
            for spec in &class.attributes {
                for member in members.into_iter().flatten() {
                    let values = self.attr_values_ref(member, &spec.name);
                    if spec.necessary && values.is_none_or(ObjSet::is_empty) {
                        violations.push(ConformanceViolation::MissingNecessaryValue {
                            object: self.object_name(member).to_owned(),
                            attribute: spec.name.clone(),
                            class: class.name.clone(),
                        });
                    }
                    if spec.single && values.is_some_and(|v| v.len() > 1) {
                        violations.push(ConformanceViolation::MultipleValuesForSingle {
                            object: self.object_name(member).to_owned(),
                            attribute: spec.name.clone(),
                            class: class.name.clone(),
                        });
                    }
                    for value in values.into_iter().flatten() {
                        if spec.range != "Object" && !self.is_instance_of(value, &spec.range) {
                            violations.push(ConformanceViolation::IllTypedValue {
                                object: self.object_name(member).to_owned(),
                                attribute: spec.name.clone(),
                                value: self.object_name(value).to_owned(),
                                required: spec.range.clone(),
                            });
                        }
                    }
                }
            }
            if let Some(constraint) = &class.constraint {
                for member in members.into_iter().flatten() {
                    if !crate::eval::eval_constraint_for(self, constraint, member) {
                        violations.push(ConformanceViolation::ConstraintViolated {
                            object: self.object_name(member).to_owned(),
                            class: class.name.clone(),
                        });
                    }
                }
            }
        }
        // Global attribute domain/range typing.
        for attr in &self.model.attributes {
            for (from, to) in self.attr_pairs(&attr.name) {
                if attr.domain != "Object" && !self.is_instance_of(from, &attr.domain) {
                    violations.push(ConformanceViolation::IllTypedValue {
                        object: self.object_name(from).to_owned(),
                        attribute: attr.name.clone(),
                        value: self.object_name(to).to_owned(),
                        required: attr.domain.clone(),
                    });
                }
                if attr.range != "Object" && !self.is_instance_of(to, &attr.range) {
                    violations.push(ConformanceViolation::IllTypedValue {
                        object: self.object_name(from).to_owned(),
                        attribute: attr.name.clone(),
                        value: self.object_name(to).to_owned(),
                        required: attr.range.clone(),
                    });
                }
            }
        }
        violations
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use subq_dl::samples;

    /// The small hospital state used across the OODB tests: one compliant
    /// patient, one doctor, one disease, one drug.
    pub(crate) fn hospital() -> Database {
        let mut db = Database::new(samples::medical_model());
        let mary = db.add_object("mary");
        let welby = db.add_object("welby");
        let flu = db.add_object("flu");
        let aspirin = db.add_object("Aspirin");
        let mary_name = db.add_object("mary_name");
        let welby_name = db.add_object("welby_name");
        db.assert_class(mary, "Patient");
        db.assert_class(mary, "Female");
        db.assert_class(welby, "Doctor");
        db.assert_class(welby, "Female");
        db.assert_class(flu, "Disease");
        db.assert_class(aspirin, "Drug");
        db.assert_class(mary_name, "String");
        db.assert_class(welby_name, "String");
        db.assert_attr(mary, "suffers", flu);
        db.assert_attr(mary, "consults", welby);
        db.assert_attr(mary, "takes", aspirin);
        db.assert_attr(mary, "name", mary_name);
        db.assert_attr(welby, "name", welby_name);
        db.assert_attr(welby, "skilled_in", flu);
        db
    }

    #[test]
    fn class_membership_propagates_to_superclasses() {
        let db = hospital();
        let mary = db.object("mary").expect("exists");
        assert!(db.is_instance_of(mary, "Patient"));
        assert!(db.is_instance_of(mary, "Person"));
        assert!(!db.is_instance_of(mary, "Doctor"));
        assert!(db.class_extent("Person").len() >= 2);
    }

    #[test]
    fn attribute_values_and_synonyms() {
        let db = hospital();
        let welby = db.object("welby").expect("exists");
        let flu = db.object("flu").expect("exists");
        let mary = db.object("mary").expect("exists");
        assert_eq!(db.attr_values(welby, "skilled_in"), BTreeSet::from([flu]));
        // The inverse synonym reads the same pairs backwards.
        assert_eq!(db.attr_values(flu, "specialist"), BTreeSet::from([welby]));
        assert_eq!(db.attr_values(mary, "consults"), BTreeSet::from([welby]));
        assert!(db.attr_values(welby, "consults").is_empty());
    }

    #[test]
    fn asserting_via_synonym_stores_primitive_direction() {
        let mut db = hospital();
        let welby = db.object("welby").expect("exists");
        let measles = db.add_object("measles");
        db.assert_class(measles, "Disease");
        // "measles' specialist is welby" == "welby is skilled_in measles".
        db.assert_attr(measles, "specialist", welby);
        assert!(db.attr_values(welby, "skilled_in").contains(&measles));
    }

    #[test]
    fn conformant_state_has_no_violations() {
        let db = hospital();
        let violations = db.check_conformance();
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    #[test]
    fn missing_necessary_value_is_reported() {
        let mut db = hospital();
        let bob = db.add_object("bob");
        db.assert_class(bob, "Patient");
        let violations = db.check_conformance();
        assert!(violations.iter().any(|v| matches!(
            v,
            ConformanceViolation::MissingNecessaryValue { object, attribute, .. }
                if object == "bob" && attribute == "suffers"
        )));
        // bob also lacks a name (necessary on Person).
        assert!(violations.iter().any(|v| matches!(
            v,
            ConformanceViolation::MissingNecessaryValue { object, attribute, .. }
                if object == "bob" && attribute == "name"
        )));
    }

    #[test]
    fn single_and_typing_violations_are_reported() {
        let mut db = hospital();
        let mary = db.object("mary").expect("exists");
        let other_name = db.add_object("other_name");
        db.assert_class(other_name, "String");
        db.assert_attr(mary, "name", other_name);
        let violations = db.check_conformance();
        assert!(violations.iter().any(|v| matches!(
            v,
            ConformanceViolation::MultipleValuesForSingle { object, attribute, .. }
                if object == "mary" && attribute == "name"
        )));

        let mut db = hospital();
        let mary = db.object("mary").expect("exists");
        let rock = db.add_object("rock");
        db.assert_attr(mary, "suffers", rock); // not a Disease
        let violations = db.check_conformance();
        assert!(violations.iter().any(|v| matches!(
            v,
            ConformanceViolation::IllTypedValue { value, required, .. }
                if value == "rock" && required == "Disease"
        )));
    }

    #[test]
    fn retract_class_propagates_to_subclasses() {
        let mut db = hospital();
        let mary = db.object("mary").expect("exists");
        assert!(db.is_instance_of(mary, "Patient"));
        assert!(db.is_instance_of(mary, "Person"));
        // Retracting the superclass takes every subclass membership with
        // it (otherwise upward propagation would re-imply it immediately):
        // mary leaves Patient and Female along with Person.
        db.retract_class(mary, "Person");
        assert!(!db.is_instance_of(mary, "Person"));
        assert!(!db.is_instance_of(mary, "Patient"));
        assert!(!db.is_instance_of(mary, "Female"));
        // A hierarchy the object never belonged to is untouched.
        assert!(db.is_instance_of(db.object("flu").expect("exists"), "Disease"));

        // Retracting a subclass leaves the superclass membership alone.
        let welby = db.object("welby").expect("exists");
        db.retract_class(welby, "Doctor");
        assert!(!db.is_instance_of(welby, "Doctor"));
        assert!(db.is_instance_of(welby, "Person"));
        // Idempotent: a second retraction changes nothing and logs nothing.
        let version = db.data_version();
        db.retract_class(welby, "Doctor");
        assert_eq!(db.data_version(), version);
    }

    #[test]
    fn retract_attr_resolves_synonyms_and_keeps_indexes_consistent() {
        let mut db = hospital();
        let welby = db.object("welby").expect("exists");
        let flu = db.object("flu").expect("exists");
        assert_eq!(db.attr_values(welby, "skilled_in"), BTreeSet::from([flu]));
        // Retract through the inverse synonym: "flu's specialist welby".
        db.retract_attr(flu, "specialist", welby);
        assert!(db.attr_values(welby, "skilled_in").is_empty());
        assert!(db.attr_values(flu, "specialist").is_empty());
        assert!(db.attr_out(welby, "skilled_in").is_none());
        assert!(db.attr_in(flu, "skilled_in").is_none());
        assert!(!db.attr_pairs("skilled_in").contains(&(welby, flu)));
        // Retracting a pair that never existed logs nothing.
        let version = db.data_version();
        db.retract_attr(flu, "specialist", welby);
        assert_eq!(db.data_version(), version);
        // Re-assertion works after retraction.
        db.assert_attr(welby, "skilled_in", flu);
        assert_eq!(db.attr_values(flu, "specialist"), BTreeSet::from([welby]));
    }

    #[test]
    fn reverse_indexes_mirror_forward_lookups() {
        let db = hospital();
        let mary = db.object("mary").expect("exists");
        let welby = db.object("welby").expect("exists");
        assert_eq!(
            db.attr_out(mary, "consults").expect("indexed"),
            &BTreeSet::from([welby])
        );
        assert_eq!(
            db.attr_in(welby, "consults").expect("indexed"),
            &BTreeSet::from([mary])
        );
        assert_eq!(
            db.class_extent_ref("Patient").expect("asserted"),
            &db.class_extent("Patient")
        );
        assert!(db.class_extent_ref("Nonsense").is_none());
        assert_eq!(db.class_cardinality("Patient"), 1);
        assert_eq!(db.class_cardinality("Nonsense"), 0);
        let consults = db.attr_cardinality("consults");
        assert_eq!(
            (consults.pairs, consults.sources, consults.targets),
            (1, 1, 1)
        );
        assert_eq!(db.attr_cardinality("nonsense"), AttrCardinality::default());
    }

    #[test]
    fn the_delta_log_records_effective_changes_once() {
        use crate::maintain::Delta;
        let mut db = Database::new(subq_dl::samples::medical_model());
        assert_eq!(db.data_version(), 0);
        let mary = db.add_object("mary");
        assert_eq!(db.data_version(), 1);
        // Re-adding is a no-op.
        assert_eq!(db.add_object("mary"), mary);
        assert_eq!(db.data_version(), 1);
        // Asserting Patient propagates to Person: two class deltas, each
        // under its own class symbol.
        db.assert_class(mary, "Patient");
        let classes: Vec<String> = db
            .delta_log()
            .since(1)
            .expect("replayable")
            .filter_map(|(_, d)| match d {
                Delta::AssertClass { class, .. } => Some(class.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(classes, vec!["Patient".to_owned(), "Person".to_owned()]);
        // Re-asserting either is silent.
        let version = db.data_version();
        db.assert_class(mary, "Patient");
        db.assert_class(mary, "Person");
        assert_eq!(db.data_version(), version);
        // Attribute assertions through an inverse synonym log the
        // primitive direction.
        let flu = db.add_object("flu");
        let welby = db.add_object("welby");
        db.assert_attr(flu, "specialist", welby); // inverse of skilled_in
        let last: Vec<Delta> = db
            .delta_log()
            .since(db.data_version() - 1)
            .expect("replayable")
            .map(|(_, d)| d.clone())
            .collect();
        assert_eq!(
            last,
            vec![Delta::AssertAttr {
                from: welby,
                attribute: "skilled_in".to_owned(),
                to: flu,
            }]
        );
        // Retraction propagates downwards and logs both extents.
        db.retract_class(mary, "Person");
        let retracted: Vec<String> = db
            .delta_log()
            .since(version + 2)
            .expect("replayable")
            .filter_map(|(_, d)| match d {
                Delta::RetractClass { class, .. } => Some(class.clone()),
                _ => None,
            })
            .collect();
        assert!(retracted.contains(&"Person".to_owned()));
        assert!(retracted.contains(&"Patient".to_owned()));
        // Truncation below a consumer's snapshot blocks its replay.
        let now = db.data_version();
        db.truncate_log(now);
        assert!(db.delta_log().since(version).is_none());
        assert!(db.delta_log().since(now).is_some());
    }

    #[test]
    fn durable_floor_pins_log_against_truncation_and_cap() {
        let mut db = Database::new(subq_dl::samples::medical_model());
        let mary = db.add_object("mary");
        db.assert_class(mary, "Patient"); // + Person (propagated)
        let floor = db.data_version();
        db.set_durable_floor(floor);
        let flu = db.add_object("flu");
        db.assert_attr(mary, "suffers", flu);
        // Explicit truncation clamps to the floor: entries above it are
        // not yet on disk and must survive.
        db.truncate_log(db.data_version());
        assert_eq!(db.delta_log().base_version(), floor);
        assert!(db.delta_log().since(floor).is_some());

        // The 64k cap also clamps: the log grows past the cap rather
        // than dropping undurable entries.
        while db.delta_log().len() <= DELTA_LOG_CAP + 10 {
            let next = db.object_count();
            db.add_object(&format!("o{next}"));
        }
        assert_eq!(db.delta_log().base_version(), floor);
        assert!(db.delta_log().len() > DELTA_LOG_CAP);

        // Once the engine advances the floor (WAL append / checkpoint),
        // cap enforcement resumes on the next recorded delta.
        let now = db.data_version();
        db.set_durable_floor(now);
        db.add_object("one_more");
        assert!(db.delta_log().len() <= DELTA_LOG_CAP);
        assert!(db.delta_log().base_version() > floor);
        // The floor is monotone: a stale (lower) floor cannot re-pin.
        db.set_durable_floor(floor);
        assert_eq!(db.durable_floor(), Some(now));
    }

    #[test]
    fn apply_replayed_mirrors_original_mutations_without_propagation() {
        // Drive a state through the public API, then replay its log into
        // a fresh state delta-by-delta: versions, extents, and attribute
        // indexes must match exactly.
        let original = hospital();
        let mut replayed = Database::new(samples::medical_model());
        for (version, delta) in original.delta_log().since(0).expect("full log") {
            let name = match delta {
                Delta::AddObject { object } => Some(original.object_name(*object)),
                _ => None,
            };
            assert!(
                replayed.apply_replayed(delta.clone(), name),
                "replay of {delta:?} at {version} must be effective"
            );
            assert_eq!(replayed.data_version(), version);
        }
        assert_eq!(replayed.object_count(), original.object_count());
        for class in original.class_names() {
            assert_eq!(
                replayed.class_extent(class),
                original.class_extent(class),
                "extent {class}"
            );
        }
        for attr in original.attribute_names() {
            assert_eq!(
                replayed.attr_pairs(attr),
                original.attr_pairs(attr),
                "pairs {attr}"
            );
            assert_eq!(
                replayed.attr_cardinality(attr),
                original.attr_cardinality(attr),
                "cardinality {attr}"
            );
        }
        // Inconsistent replays are rejected without touching the state.
        let version = replayed.data_version();
        assert!(!replayed.apply_replayed(Delta::AddObject { object: ObjId(999) }, Some("gap")));
        assert!(!replayed.apply_replayed(
            Delta::RetractClass {
                object: ObjId(0),
                class: "Nonsense".to_owned()
            },
            None
        ));
        assert_eq!(replayed.data_version(), version);
    }

    #[test]
    fn checkpoint_parts_roundtrip_through_from_checkpoint() {
        let original = hospital();
        let names: Vec<String> = (0..original.object_count())
            .map(|i| original.object_name(ObjId(i as u32)).to_owned())
            .collect();
        let extents: Vec<(String, ObjSet)> = original
            .checkpoint_extents()
            .into_iter()
            .map(|(name, ext)| (name.to_owned(), ext.clone()))
            .collect();
        let attrs: Vec<(String, Vec<(ObjId, ObjSet)>)> = original
            .checkpoint_attrs()
            .into_iter()
            .map(|(name, postings)| {
                (
                    name.to_owned(),
                    postings
                        .into_iter()
                        .map(|(from, values)| (from, values.clone()))
                        .collect(),
                )
            })
            .collect();
        let restored = Database::from_checkpoint(
            original.model().clone(),
            original.schema_version(),
            original.data_version(),
            names,
            extents,
            attrs,
        )
        .expect("consistent parts");
        assert_eq!(restored.data_version(), original.data_version());
        assert_eq!(restored.object_count(), original.object_count());
        assert_eq!(restored.object("mary"), original.object("mary"));
        for class in original.class_names() {
            assert_eq!(restored.class_extent(class), original.class_extent(class));
        }
        for attr in original.attribute_names() {
            assert_eq!(restored.attr_pairs(attr), original.attr_pairs(attr));
            assert_eq!(
                restored.attr_cardinality(attr),
                original.attr_cardinality(attr)
            );
        }
        // Out-of-range ids in any part must fail the load.
        let bogus = Database::from_checkpoint(
            original.model().clone(),
            0,
            1,
            vec!["only".to_owned()],
            vec![("C".to_owned(), [ObjId(7)].into_iter().collect())],
            Vec::new(),
        );
        assert!(bogus.is_none());
    }

    /// The ids on and next to chunk borders (`k·CHUNK − 1`, `k·CHUNK`,
    /// `k·CHUNK + 1`) of a state made by [`spanning`]: the ones an
    /// off-by-one in the chunk arithmetic files under the wrong chunk.
    fn border_ids(chunks: usize) -> Vec<ObjId> {
        (0..=chunks)
            .flat_map(|k| [k * ATTR_CHUNK, k * ATTR_CHUNK + 1, (k + 1) * ATTR_CHUNK - 1])
            .filter(|&id| id < chunks * ATTR_CHUNK + 2)
            .map(|id| ObjId(id as u32))
            .collect()
    }

    /// A state whose objects span `chunks` chunks plus the border ids
    /// past the last one, every object a `Patient` or a `Drug`.
    fn spanning(chunks: usize) -> Database {
        let mut db = Database::new(samples::medical_model());
        for i in 0..chunks * ATTR_CHUNK + 2 {
            let object = db.add_object(&format!("o{i}"));
            db.assert_class(object, if i % 3 == 0 { "Drug" } else { "Patient" });
        }
        db
    }

    #[test]
    fn chunked_postings_agree_with_a_plain_map_under_random_updates() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        type Oracle = std::collections::HashMap<ObjId, BTreeSet<ObjId>>;
        fn unlink(map: &mut Oracle, key: ObjId, value: ObjId) {
            let values = map.get_mut(&key).expect("mirrors the other direction");
            values.remove(&value);
            if values.is_empty() {
                map.remove(&key);
            }
        }
        const ATTRS: [&str; 2] = ["consults", "takes"];
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut db = spanning(4);
            let ids = border_ids(4);
            let mut forward = [Oracle::new(), Oracle::new()];
            let mut reverse = [Oracle::new(), Oracle::new()];
            for step in 0..3_000 {
                let which = rng.gen_range(0..ATTRS.len());
                let attribute = ATTRS[which];
                let from = ids[rng.gen_range(0..ids.len())];
                let to = ids[rng.gen_range(0..ids.len())];
                let (forward, reverse) = (&mut forward[which], &mut reverse[which]);
                let present = forward.get(&from).is_some_and(|v| v.contains(&to));
                // Fill and drain by turns, so keys (and whole chunks)
                // come and go instead of settling half full.
                let assert = rng.gen_bool(if (step / 750) % 2 == 0 { 0.6 } else { 0.1 });
                let effective = assert != present;
                let before = db.data_version();
                if rng.gen_bool(0.3) {
                    let attribute = attribute.to_owned();
                    let delta = if assert {
                        Delta::AssertAttr {
                            from,
                            attribute,
                            to,
                        }
                    } else {
                        Delta::RetractAttr {
                            from,
                            attribute,
                            to,
                        }
                    };
                    assert_eq!(db.apply_replayed(delta, None), effective, "step {step}");
                } else if assert {
                    db.assert_attr(from, attribute, to);
                } else {
                    db.retract_attr(from, attribute, to);
                }
                assert_eq!(
                    db.data_version(),
                    before + u64::from(effective),
                    "step {step}"
                );
                if effective && assert {
                    forward.entry(from).or_default().insert(to);
                    reverse.entry(to).or_default().insert(from);
                } else if effective {
                    unlink(forward, from, to);
                    unlink(reverse, to, from);
                }
                if step % 100 != 99 {
                    continue;
                }
                // Removing a key's last value removes the key: lookups
                // are `None` exactly where the oracle has no entry.
                for &id in &ids {
                    assert_eq!(
                        db.attr_out(id, attribute).map(ObjSet::to_btree),
                        forward.get(&id).cloned()
                    );
                    assert_eq!(
                        db.attr_in(id, attribute).map(ObjSet::to_btree),
                        reverse.get(&id).cloned()
                    );
                }
                let pairs: BTreeSet<(ObjId, ObjId)> = forward
                    .iter()
                    .flat_map(|(&from, values)| values.iter().map(move |&to| (from, to)))
                    .collect();
                assert_eq!(
                    db.attr_cardinality(attribute),
                    AttrCardinality {
                        pairs: pairs.len(),
                        sources: forward.len(),
                        targets: reverse.len(),
                    }
                );
                assert_eq!(db.attr_pairs(attribute), pairs);
            }
        }
    }

    /// How many chunk slots of `now` are not the very allocation `then`
    /// holds at the same place.
    fn chunks_copied(now: &Postings, then: &Postings) -> usize {
        let slot = |of: &Postings, at: usize| {
            let chunk = of.chunks.get(at).and_then(Option::as_ref);
            chunk.map(Arc::as_ptr)
        };
        (0..now.chunks.len().max(then.chunks.len()))
            .filter(|&at| slot(now, at) != slot(then, at))
            .count()
    }

    #[test]
    fn a_mutation_after_a_snapshot_copies_one_chunk_in_each_direction() {
        let mut db = spanning(4);
        let ids = border_ids(4);
        for (i, &from) in ids.iter().enumerate() {
            db.assert_attr(from, "consults", ids[(i + 5) % ids.len()]);
            db.assert_attr(from, "takes", ids[(i + 2) % ids.len()]);
        }
        let snapshot = db.snapshot_clone();

        // A re-assertion and a missed retraction copy nothing at all.
        db.assert_attr(ids[0], "consults", ids[5]);
        db.retract_attr(ids[0], "consults", ids[6]);
        for attr in ["consults", "takes"] {
            assert!(Arc::ptr_eq(&db.attrs[attr], &snapshot.attrs[attr]));
        }

        // One new pair: the source's forward chunk and the target's
        // reverse chunk are copied, every other chunk of the attribute
        // and every other attribute stay shared with the snapshot.
        let (from, to) = (
            ObjId(ATTR_CHUNK as u32 + 7),
            ObjId(3 * ATTR_CHUNK as u32 + 9),
        );
        db.assert_attr(from, "consults", to);
        let (now, then) = (&db.attrs["consults"], &snapshot.attrs["consults"]);
        assert_eq!(chunks_copied(&now.forward, &then.forward), 1);
        assert_eq!(chunks_copied(&now.reverse, &then.reverse), 1);
        assert!(Arc::ptr_eq(&db.attrs["takes"], &snapshot.attrs["takes"]));
        assert!(db.has_attr_value(from, "consults", to));
        assert!(!snapshot.has_attr_value(from, "consults", to));

        // Taking it back again touches the same two chunks.
        let snapshot = db.snapshot_clone();
        db.retract_attr(from, "consults", to);
        let (now, then) = (&db.attrs["consults"], &snapshot.attrs["consults"]);
        assert_eq!(chunks_copied(&now.forward, &then.forward), 1);
        assert_eq!(chunks_copied(&now.reverse, &then.reverse), 1);
        assert!(snapshot.has_attr_value(from, "consults", to));
    }

    #[test]
    fn checkpoint_images_keep_the_bytes_of_the_unchunked_layout() {
        use crate::durable::checkpoint::{image_name, parse_image, write_checkpoint};
        use crate::durable::{FaultyBackend, StorageBackend};
        let image_of = |db: &Database| {
            let backend = FaultyBackend::new();
            let version =
                write_checkpoint(&backend, db, &crate::views::ViewCatalog::new()).expect("written");
            backend
                .read(&image_name(version))
                .expect("readable")
                .expect("present")
        };
        let mut db = spanning(3);
        let ids = border_ids(3);
        for (i, &from) in ids.iter().enumerate() {
            db.assert_attr(from, "consults", ids[(i + 5) % ids.len()]);
            db.assert_attr(from, "takes", ids[(i * 3 + 1) % ids.len()]);
            db.assert_attr(ObjId(i as u32 * 40), "takes", from);
        }
        db.retract_attr(ids[2], "consults", ids[7]);
        let bytes = image_of(&db);
        // Length and trailing CRC of the image the whole-attribute index
        // (the commit before chunking) wrote for this very state: images
        // written before the layout change and after it are the same
        // bytes, so either side reads the other's.
        let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        assert_eq!((bytes.len(), crc), (10_752, 3_906_086_961));

        let image = parse_image(&bytes).expect("own image parses");
        let restored = Database::from_checkpoint(
            image.model,
            image.schema_version,
            image.data_version,
            image.names,
            image.extents,
            image.attrs,
        )
        .expect("consistent image");
        assert_eq!(image_of(&restored), bytes);
        for attr in ["consults", "takes"] {
            assert_eq!(restored.attr_cardinality(attr), db.attr_cardinality(attr));
            for &id in &ids {
                assert_eq!(restored.attr_in(id, attr), db.attr_in(id, attr));
            }
        }
    }

    #[test]
    fn extents_stay_upward_closed_and_the_retraction_early_out_changes_nothing() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // A diamond with a tail, so propagation has more than one level
        // and more than one route in both directions.
        let model = subq_dl::parse_model(
            "Class A with end A  Class B isA A with end B  Class C isA A with end C \
             Class D isA B, C with end D  Class E isA D with end E  Class F with end F",
        )
        .expect("parses");
        let classes = ["A", "B", "C", "D", "E", "F"];
        let assert_closed = |db: &Database, when: &str| {
            for decl in &db.model().classes {
                for sup in &decl.is_a {
                    assert!(
                        db.class_extent(&decl.name).is_subset(&db.class_extent(sup)),
                        "{when}: extent({}) ⊄ extent({sup})",
                        decl.name
                    );
                }
            }
        };
        let log_of = |db: &Database| -> Vec<(u64, Delta)> {
            let log = db.delta_log().since(0).expect("never truncated");
            log.map(|(version, delta)| (version, delta.clone()))
                .collect()
        };
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fast = Database::new(model.clone());
            let mut slow = Database::new(model.clone());
            let objects: Vec<ObjId> = (0..6)
                .map(|i| {
                    slow.add_object(&format!("o{i}"));
                    fast.add_object(&format!("o{i}"))
                })
                .collect();
            let mut early_outs = 0;
            for step in 0..400 {
                let object = objects[rng.gen_range(0..objects.len())];
                let class = classes[rng.gen_range(0..classes.len())];
                if rng.gen_bool(0.5) {
                    fast.assert_class(object, class);
                    slow.assert_class(object, class);
                } else {
                    early_outs += usize::from(!fast.is_instance_of(object, class));
                    fast.retract_class(object, class);
                    slow.retract_class_and_subclasses(object, class);
                }
                assert_closed(&fast, &format!("seed {seed} step {step}"));
                assert_eq!(fast.data_version(), slow.data_version());
            }
            assert!(early_outs > 50, "the early-out must be exercised");
            assert_eq!(log_of(&fast), log_of(&slow));
            for class in classes {
                assert_eq!(fast.class_extent(class), slow.class_extent(class));
            }
            // Physical replay of the log lands in the same closed state.
            let mut replayed = Database::new(model.clone());
            for (_, delta) in log_of(&fast) {
                let name = match &delta {
                    Delta::AddObject { object } => Some(fast.object_name(*object).to_owned()),
                    _ => None,
                };
                assert!(replayed.apply_replayed(delta, name.as_deref()));
            }
            assert_closed(&replayed, &format!("seed {seed} replayed"));
            for class in classes {
                assert_eq!(replayed.class_extent(class), fast.class_extent(class));
            }
        }
    }

    #[test]
    fn class_constraints_are_checked() {
        let mut db = hospital();
        let mary = db.object("mary").expect("exists");
        // Making the patient also a doctor violates Patient's constraint
        // `not (this in Doctor)`.
        db.assert_class(mary, "Doctor");
        let violations = db.check_conformance();
        assert!(violations.iter().any(|v| matches!(
            v,
            ConformanceViolation::ConstraintViolated { object, class }
                if object == "mary" && class == "Patient"
        )));
    }
}
