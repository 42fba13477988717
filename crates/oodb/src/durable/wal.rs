//! The write-ahead log: append-only CRC-framed records with group
//! commit.
//!
//! One record per committed transaction ([`codec::WalRecord`]); the
//! append is buffered by the backend's page cache and made durable by
//! `fsync`. With `group_commit = n`, one fsync covers up to `n`
//! appended records — the classic amortization: the *log write* is
//! cheap, the *stable-storage barrier* is what costs, so sharing the
//! barrier across a batch divides the per-transaction durability price
//! by the batch size (experiment E13 measures the curve). Records
//! appended but not yet synced are exactly the commits an OS-level
//! crash may lose; a torn append among them is detected and truncated
//! by recovery, never replayed.

use super::codec::{self, WalRecord};
use super::{DurabilityStats, DurableError, StorageBackend};
use crate::maintain::Delta;
use std::sync::Arc;

/// The WAL file name inside the backend namespace.
pub const WAL_FILE: &str = "wal.log";

pub(crate) struct Wal {
    backend: Arc<dyn StorageBackend>,
    /// Records per fsync (≥ 1).
    group_commit: usize,
    /// Records appended since the last fsync.
    pending: usize,
    /// `data_version` after the last appended record.
    appended_version: u64,
    /// `data_version` after the last record covered by an fsync — the
    /// durability watermark.
    synced_version: u64,
}

impl Wal {
    /// A WAL positioned at `version` (everything at or below it already
    /// durable — just recovered or checkpointed).
    pub(crate) fn resume(
        backend: Arc<dyn StorageBackend>,
        group_commit: usize,
        version: u64,
    ) -> Self {
        Wal {
            backend,
            group_commit: group_commit.max(1),
            pending: 0,
            appended_version: version,
            synced_version: version,
        }
    }

    /// Appends one transaction and fsyncs when the batch is full.
    /// Returns the durability watermark after the call.
    pub(crate) fn append_commit(
        &mut self,
        start_version: u64,
        deltas: Vec<(Delta, Option<String>)>,
        stats: &mut DurabilityStats,
    ) -> Result<u64, DurableError> {
        debug_assert_eq!(
            start_version, self.appended_version,
            "WAL records must chain without version gaps"
        );
        let end_version = start_version + deltas.len() as u64;
        let record = WalRecord {
            start_version,
            deltas,
        };
        let mut bytes = Vec::new();
        codec::encode_record(&record, &mut bytes);
        self.backend.append(WAL_FILE, &bytes)?;
        stats.wal_records += 1;
        stats.wal_bytes += bytes.len() as u64;
        self.appended_version = end_version;
        self.pending += 1;
        if self.pending >= self.group_commit {
            self.sync(stats)?;
        }
        Ok(self.synced_version)
    }

    /// Forces the pending batch to stable storage; no-op when nothing
    /// is pending. Returns the durability watermark.
    pub(crate) fn sync(&mut self, stats: &mut DurabilityStats) -> Result<u64, DurableError> {
        if self.pending > 0 {
            let metrics = crate::metrics::metrics();
            metrics.wal_batch_records.record(self.pending as u64);
            {
                let _span = metrics.wal_fsync_ns.span();
                self.backend.sync(WAL_FILE)?;
            }
            stats.fsyncs += 1;
            if self.pending > 1 {
                stats.group_commits += 1;
            }
            self.pending = 0;
            self.synced_version = self.appended_version;
        }
        Ok(self.synced_version)
    }

    /// Empties the log after a checkpoint covered it: atomically
    /// replaces the file with zero bytes and repositions at `version`.
    pub(crate) fn reset(&mut self, version: u64) -> Result<(), DurableError> {
        self.backend.write_atomic(WAL_FILE, &[])?;
        self.pending = 0;
        self.appended_version = version;
        self.synced_version = version;
        Ok(())
    }

    /// The data version the last appended record ends at.
    pub(crate) fn appended_version(&self) -> u64 {
        self.appended_version
    }

    /// The durability watermark when no appended record awaits its
    /// fsync; `None` while a group-commit batch is open.
    pub(crate) fn fully_synced(&self) -> Option<u64> {
        (self.pending == 0).then_some(self.synced_version)
    }

    /// The durability watermark: every commit at or below it survives
    /// any crash.
    #[cfg(test)]
    pub(crate) fn synced_version(&self) -> u64 {
        self.synced_version
    }
}

#[cfg(test)]
mod tests {
    use super::super::FaultyBackend;
    use super::*;
    use crate::store::ObjId;

    fn txn(start: u64, n: usize) -> Vec<(Delta, Option<String>)> {
        (0..n)
            .map(|i| {
                (
                    Delta::AddObject {
                        object: ObjId((start as usize + i) as u32),
                    },
                    Some(format!("o{}", start as usize + i)),
                )
            })
            .collect()
    }

    #[test]
    fn group_commit_amortizes_fsyncs_over_batches() {
        let backend = Arc::new(FaultyBackend::new());
        let mut wal = Wal::resume(backend.clone(), 4, 0);
        let mut stats = DurabilityStats::default();
        let mut version = 0u64;
        for _ in 0..7 {
            let watermark = wal
                .append_commit(version, txn(version, 1), &mut stats)
                .expect("append");
            version += 1;
            // Only the full batch (at commit 4) has synced so far.
            assert!(watermark <= version);
        }
        assert_eq!(stats.wal_records, 7);
        assert_eq!(stats.fsyncs, 1, "one full batch of four");
        assert_eq!(stats.group_commits, 1);
        assert_eq!(wal.synced_version(), 4);
        // An explicit sync drains the partial batch.
        assert_eq!(wal.sync(&mut stats).expect("sync"), 7);
        assert_eq!(stats.fsyncs, 2);
        assert_eq!(stats.group_commits, 2);
        // Every record is on the backend and parses back.
        let bytes = backend.read(WAL_FILE).expect("read").expect("exists");
        let (records, valid) = codec::decode_records(&bytes);
        assert_eq!(valid, bytes.len());
        assert_eq!(records.len(), 7);
        assert!(records
            .iter()
            .enumerate()
            .all(|(i, r)| r.start_version == i as u64));
    }

    #[test]
    fn batch_of_one_syncs_every_commit() {
        let backend = Arc::new(FaultyBackend::new());
        let mut wal = Wal::resume(backend, 1, 10);
        let mut stats = DurabilityStats::default();
        assert_eq!(
            wal.append_commit(10, txn(10, 3), &mut stats)
                .expect("append"),
            13
        );
        assert_eq!(
            wal.append_commit(13, txn(13, 2), &mut stats)
                .expect("append"),
            15
        );
        assert_eq!(stats.fsyncs, 2);
        assert_eq!(stats.group_commits, 0, "no batch held more than one record");
        assert_eq!(wal.synced_version(), 15);
    }

    #[test]
    fn reset_truncates_the_file_and_repositions() {
        let backend = Arc::new(FaultyBackend::new());
        let mut wal = Wal::resume(backend.clone(), 1, 0);
        let mut stats = DurabilityStats::default();
        wal.append_commit(0, txn(0, 2), &mut stats).expect("append");
        assert!(!backend
            .read(WAL_FILE)
            .expect("read")
            .expect("exists")
            .is_empty());
        wal.reset(2).expect("reset");
        assert!(backend
            .read(WAL_FILE)
            .expect("read")
            .expect("exists")
            .is_empty());
        assert_eq!(wal.synced_version(), 2);
        wal.append_commit(2, txn(2, 1), &mut stats).expect("append");
        let (records, _) =
            codec::decode_records(&backend.read(WAL_FILE).expect("read").expect("exists"));
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].start_version, 2);
    }
}
