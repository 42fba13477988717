//! The durable storage engine: write-ahead logging, checkpointed
//! snapshots, and crash recovery.
//!
//! The paper's scenario is an interactive design session over an OODB —
//! exactly the setting where losing a morning of schema population to a
//! crash is unacceptable. This module makes the in-memory store of
//! [`crate::store`] durable without giving up its copy-on-write read
//! path:
//!
//! * every committed transaction's [`Delta`](crate::maintain::Delta)
//!   batch is appended to a **write-ahead log** ([`wal`]) as one
//!   CRC-framed record ([`codec`]), fsynced with configurable group
//!   commit;
//! * a **checkpoint** ([`checkpoint`]) serializes a published state —
//!   model, object names, extents and attribute postings as compressed
//!   bitmap containers, the view catalog with its lattice edges — into a
//!   single image written atomically (temp file + rename), after which
//!   the WAL prefix it covers is dropped;
//! * **recovery** ([`recover`]) loads the newest valid image and replays
//!   the WAL suffix through the store's physical replay path, stopping
//!   cleanly at the first torn or corrupt record (the tail is truncated,
//!   never trusted);
//! * all I/O goes through a [`StorageBackend`] so the crash-recovery
//!   suite can inject short writes and bit flips at scripted byte
//!   offsets ([`backend::FaultyBackend`]) and prove that every crash
//!   point recovers to a prefix of the committed history, and so a
//!   volatile store is this same engine over
//!   [`backend::DiscardBackend`], which keeps nothing;
//! * a snapshot swap takes a `Synced` proof, which only a sync mints, so
//!   readers never see a logged transaction before its record is on
//!   disk (an unlogged `OptimizedDatabase::update` bypasses the log).

pub mod backend;
pub mod checkpoint;
pub mod codec;
pub mod recover;
pub mod wal;

pub use backend::{DiscardBackend, FaultyBackend, FileBackend, StorageBackend};
pub use codec::{record_boundaries, WalRecord};

use crate::maintain::Delta;
use crate::store::Database;
use crate::views::ViewCatalog;
use std::sync::Arc;

/// Why a durable operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DurableError {
    /// The storage backend reported an I/O failure (for
    /// [`FaultyBackend`], an injected crash).
    Io(String),
    /// An on-disk structure failed validation beyond what recovery can
    /// truncate away (e.g. every checkpoint image is unreadable while a
    /// WAL suffix exists, or an image decodes to an inconsistent state).
    Corrupt(String),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(message) => write!(f, "storage I/O failed: {message}"),
            DurableError::Corrupt(message) => write!(f, "durable state corrupt: {message}"),
        }
    }
}

impl std::error::Error for DurableError {}

/// Tuning knobs of the durable engine.
#[derive(Clone, Copy, Debug)]
pub struct DurableOptions {
    /// How many committed transactions share one fsync. `1` syncs every
    /// commit (classic write-ahead logging); larger values amortize the
    /// sync over a group at the cost of the unsynced tail on an OS-level
    /// crash (the tail is still torn-write safe: recovery truncates it).
    pub group_commit: usize,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions { group_commit: 1 }
    }
}

/// Cumulative counters of the durable engine, exposed through
/// [`OptimizedDatabase::durability_stats`](crate::OptimizedDatabase::durability_stats).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// WAL records appended (one per committed transaction).
    pub wal_records: u64,
    /// Bytes appended to the WAL (framing included).
    pub wal_bytes: u64,
    /// Fsync batches that covered more than one record.
    pub group_commits: u64,
    /// Fsyncs issued against the WAL.
    pub fsyncs: u64,
    /// Checkpoints taken (images written, or declined by the backend).
    pub checkpoints: u64,
    /// WAL records replayed by the last recovery.
    pub recovered_records: u64,
    /// Bytes cut off the WAL tail by the last recovery (torn or corrupt
    /// suffix).
    pub truncated_tail_bytes: u64,
}

/// Proof that no appended WAL record awaits its fsync: every
/// transaction the log has seen is on stable storage. Only the engine
/// mints one — after a sync, or when the last sync already covers every
/// append — and the writer's snapshot swap takes one.
pub(crate) struct Synced(u64);

impl Synced {
    /// The durability watermark the proof was minted at.
    pub(crate) fn version(&self) -> u64 {
        self.0
    }
}

/// The engine bundling a backend, the WAL, and checkpoint bookkeeping.
/// Owned by every [`OptimizedDatabase`](crate::OptimizedDatabase) —
/// over [`DiscardBackend`] when the store is volatile; every mutation of
/// durable state flows through here.
pub struct DurableEngine {
    backend: Arc<dyn StorageBackend>,
    wal: wal::Wal,
    stats: DurabilityStats,
}

impl DurableEngine {
    /// An engine over a backend whose durable state was just recovered
    /// (or freshly initialized) through `wal_version`.
    pub(crate) fn resume(
        backend: Arc<dyn StorageBackend>,
        options: DurableOptions,
        wal_version: u64,
        stats: DurabilityStats,
    ) -> Self {
        DurableEngine {
            wal: wal::Wal::resume(backend.clone(), options.group_commit, wal_version),
            backend,
            stats,
        }
    }

    /// The engine of a volatile store: the same WAL and images, over a
    /// backend that keeps nothing, positioned at `version`.
    pub(crate) fn discarding(version: u64) -> Self {
        let backend = Arc::new(DiscardBackend);
        let options = DurableOptions::default();
        Self::resume(backend, options, version, DurabilityStats::default())
    }

    /// Appends one committed transaction to the WAL and returns the
    /// highest data version known durable (advanced by the fsync when
    /// this append filled a group-commit batch).
    pub(crate) fn log_transaction(
        &mut self,
        start_version: u64,
        deltas: Vec<(Delta, Option<String>)>,
    ) -> Result<u64, DurableError> {
        self.wal
            .append_commit(start_version, deltas, &mut self.stats)
    }

    /// The data version the WAL's last record ends at.
    pub(crate) fn logged_version(&self) -> u64 {
        self.wal.appended_version()
    }

    /// Forces the pending group-commit batch to disk.
    pub(crate) fn sync(&mut self) -> Result<Synced, DurableError> {
        self.wal.sync(&mut self.stats).map(Synced)
    }

    /// The proof that nothing awaits an fsync, when nothing does.
    pub(crate) fn synced(&self) -> Option<Synced> {
        self.wal.fully_synced().map(Synced)
    }

    /// Writes a checkpoint image of `(db, catalog)` and drops the WAL
    /// prefix it covers. The caller must have refreshed first: every
    /// view's extension is consistent with `db.data_version()`.
    pub(crate) fn checkpoint(
        &mut self,
        db: &Database,
        catalog: &ViewCatalog,
    ) -> Result<Synced, DurableError> {
        // Whatever the batch state, the image must not get ahead of the
        // log on disk.
        self.wal.sync(&mut self.stats)?;
        let version = if self.backend.declines_images() {
            db.data_version()
        } else {
            checkpoint::write_checkpoint(self.backend.as_ref(), db, catalog)?
        };
        self.stats.checkpoints += 1;
        // Every WAL record starts at or below the image version, so the
        // covered prefix is the whole log.
        self.wal.reset(version)?;
        checkpoint::remove_images_before(self.backend.as_ref(), version);
        Ok(Synced(version))
    }

    /// The cumulative counters.
    pub fn stats(&self) -> &DurabilityStats {
        &self.stats
    }
}
