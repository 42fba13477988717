//! Crash recovery: newest valid checkpoint image + WAL suffix replay.
//!
//! `open()` trusts nothing on disk it cannot verify. The newest image
//! whose CRC and structure validate seeds a [`Database`] through the
//! store's checkpoint loader; the WAL's valid record prefix (CRC-framed,
//! see [`super::codec`]) is replayed through the store's physical replay
//! path. The first torn or corrupt record ends the replay — its bytes
//! and everything after are truncated from the log, never interpreted —
//! so the recovered state is always the committed history cut at a
//! transaction boundary: no partial transaction, no phantom.

use super::checkpoint::{self, CheckpointImage};
use super::codec::{self, WalRecord};
use super::wal::WAL_FILE;
use super::{DurabilityStats, DurableError, StorageBackend};
use crate::objset::ObjSet;
use crate::store::Database;

/// What recovery hands back to [`crate::OptimizedDatabase::open`].
pub(crate) struct Recovered {
    /// The store at the recovered version (image state plus the replayed
    /// WAL suffix, its in-memory delta log holding exactly the suffix).
    pub(crate) db: Database,
    /// `(name, fresh_as_of, extension)` of every view the image carried.
    pub(crate) views: Vec<(String, u64, ObjSet)>,
    /// The Hasse diagram recorded at checkpoint time; re-classification
    /// must reproduce it.
    pub(crate) edges: Vec<(String, String)>,
}

/// Replays `records` on top of a clone of `base`. Returns the replayed
/// store, how many leading records were consumed (applied, or skipped
/// as already covered by the image), how many of those were actually
/// applied, and whether the replay was clean — `false` means record
/// `consumed` was inconsistent (version gap, or a delta the state
/// rejects) and the caller must discard everything from it on.
fn replay(
    base: &Database,
    image_version: u64,
    records: &[WalRecord],
) -> (Database, usize, u64, bool) {
    let mut db = base.clone();
    let mut applied = 0u64;
    for (index, record) in records.iter().enumerate() {
        let end_version = record.start_version + record.deltas.len() as u64;
        if end_version <= image_version {
            // Fully covered by the checkpoint (a crash between the image
            // rename and the log truncation leaves such records behind).
            continue;
        }
        if record.start_version != db.data_version() {
            return (db, index, applied, false);
        }
        for (delta, name) in &record.deltas {
            if !db.apply_replayed(delta.clone(), name.as_deref()) {
                // The record framing was valid but the transaction does
                // not fit the state — mid-record, so the store now holds
                // a partial transaction. The caller re-replays the known
                // good prefix from scratch.
                return (db, index, applied, false);
            }
        }
        applied += 1;
    }
    (db, records.len(), applied, true)
}

/// Loads the newest valid durable state behind `backend`.
///
/// * `Ok(None)` — no checkpoint image exists: a fresh directory, the
///   caller initializes genesis state.
/// * `Ok(Some(..))` — recovered; the WAL on disk has been truncated to
///   the prefix the recovered state reflects.
/// * `Err(Corrupt)` — images exist but none validates: there is durable
///   history that cannot be trusted, which must not be silently
///   reinitialized.
pub(crate) fn recover(
    backend: &dyn StorageBackend,
    stats: &mut DurabilityStats,
) -> Result<Option<Recovered>, DurableError> {
    let mut image_versions: Vec<u64> = backend
        .list()?
        .iter()
        .filter_map(|name| checkpoint::image_version(name))
        .collect();
    if image_versions.is_empty() {
        return Ok(None);
    }
    image_versions.sort_unstable_by(|a, b| b.cmp(a));
    let mut image: Option<CheckpointImage> = None;
    for &version in &image_versions {
        if let Some(bytes) = backend.read(&checkpoint::image_name(version))? {
            if let Some(parsed) = checkpoint::parse_image(&bytes) {
                image = Some(parsed);
                break;
            }
        }
    }
    let Some(image) = image else {
        return Err(DurableError::Corrupt(
            "no checkpoint image validates".into(),
        ));
    };

    let wal_bytes = backend.read(WAL_FILE)?.unwrap_or_default();
    let (records, valid_len) = codec::decode_records(&wal_bytes);
    let boundaries = codec::record_boundaries(&wal_bytes[..valid_len]);

    let base = Database::from_checkpoint(
        image.model,
        image.schema_version,
        image.data_version,
        image.names,
        image.extents,
        image.attrs,
    )
    .ok_or_else(|| DurableError::Corrupt("checkpoint image state is inconsistent".into()))?;

    let (db, consumed, applied, clean) = match replay(&base, image.data_version, &records) {
        (db, consumed, applied, true) => (db, consumed, applied, true),
        (_, consumed, _, false) => {
            // Redo over the known good prefix only; every record in it
            // replayed successfully a moment ago, so this pass is clean.
            let (db, redone, applied, clean) =
                replay(&base, image.data_version, &records[..consumed]);
            debug_assert!(clean && redone == consumed, "prefix replay must be clean");
            (db, consumed, applied, false)
        }
    };
    stats.recovered_records += applied;

    // Cut the log back to the bytes the recovered state reflects: the
    // torn/corrupt byte tail past the valid prefix, plus any framed but
    // inconsistent records behind it.
    let keep = if clean {
        valid_len
    } else {
        boundaries[consumed]
    };
    if keep < wal_bytes.len() {
        stats.truncated_tail_bytes += (wal_bytes.len() - keep) as u64;
        backend.write_atomic(WAL_FILE, &wal_bytes[..keep])?;
    }

    Ok(Some(Recovered {
        db,
        views: image.views,
        edges: image.edges,
    }))
}

#[cfg(test)]
mod tests {
    use super::super::checkpoint::write_checkpoint;
    use super::super::FaultyBackend;
    use super::*;
    use crate::maintain::Delta;
    use crate::store::tests::hospital;
    use crate::store::ObjId;
    use crate::views::ViewCatalog;

    /// A backend holding a checkpoint of the hospital state and a WAL
    /// with two committed transactions on top.
    fn seeded() -> (FaultyBackend, Database) {
        let db = hospital();
        let backend = FaultyBackend::new();
        write_checkpoint(&backend, &db, &ViewCatalog::new()).expect("image");
        let mut after = db.clone();
        let mut wal = Vec::new();
        for batch in 0..2u32 {
            let start = after.data_version();
            let id = ObjId(after.object_count() as u32);
            let name = format!("extra{batch}");
            after.apply_replayed(Delta::AddObject { object: id }, Some(&name));
            after.apply_replayed(
                Delta::AssertClass {
                    object: id,
                    class: "Patient".into(),
                },
                None,
            );
            codec::encode_record(
                &WalRecord {
                    start_version: start,
                    deltas: vec![
                        (Delta::AddObject { object: id }, Some(name)),
                        (
                            Delta::AssertClass {
                                object: id,
                                class: "Patient".into(),
                            },
                            None,
                        ),
                    ],
                },
                &mut wal,
            );
        }
        backend.append(WAL_FILE, &wal).expect("append");
        (backend, after)
    }

    fn states_match(a: &Database, b: &Database) {
        assert_eq!(a.data_version(), b.data_version());
        assert_eq!(a.object_count(), b.object_count());
        for class in a.class_names() {
            assert_eq!(a.class_extent(class), b.class_extent(class), "{class}");
        }
        for attr in a.attribute_names() {
            assert_eq!(a.attr_pairs(attr), b.attr_pairs(attr), "{attr}");
        }
    }

    #[test]
    fn image_plus_suffix_recovers_the_committed_state() {
        let (backend, expected) = seeded();
        let mut stats = DurabilityStats::default();
        let recovered = recover(&backend, &mut stats)
            .expect("recovers")
            .expect("image exists");
        states_match(&recovered.db, &expected);
        assert_eq!(stats.recovered_records, 2);
        assert_eq!(stats.truncated_tail_bytes, 0);
        // The replayed suffix sits in the in-memory log, replayable from
        // the image version (what restored views refresh from).
        assert_eq!(
            recovered.db.delta_log().base_version(),
            hospital().data_version()
        );
        assert_eq!(recovered.db.delta_log().len(), 4);
    }

    #[test]
    fn empty_backend_is_genesis_not_corruption() {
        let backend = FaultyBackend::new();
        let mut stats = DurabilityStats::default();
        assert!(recover(&backend, &mut stats).expect("ok").is_none());
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        let (backend, expected) = seeded();
        let wal = backend.read(WAL_FILE).expect("read").expect("exists");
        let boundaries = codec::record_boundaries(&wal);
        let image_version = hospital().data_version();
        for cut in 0..=wal.len() {
            let survivor = FaultyBackend::with_files(backend.surviving_files().into_iter().map(
                |(name, bytes)| match name.as_str() {
                    WAL_FILE => (name, wal[..cut].to_vec()),
                    _ => (name, bytes),
                },
            ));
            let mut stats = DurabilityStats::default();
            let recovered = recover(&survivor, &mut stats)
                .expect("recovers")
                .expect("image exists");
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(stats.recovered_records, whole as u64, "cut at {cut}");
            // The version is a transaction boundary of the committed
            // history: image version + 2 deltas per surviving record.
            assert_eq!(
                recovered.db.data_version(),
                image_version + 2 * whole as u64,
                "cut at {cut}"
            );
            if whole == 2 {
                states_match(&recovered.db, &expected);
            }
            // The on-disk WAL was truncated to the reflected prefix …
            let remaining = survivor.read(WAL_FILE).expect("read").unwrap_or_default();
            assert_eq!(remaining, wal[..boundaries[whole]], "cut at {cut}");
            assert_eq!(
                stats.truncated_tail_bytes,
                (cut - boundaries[whole]) as u64,
                "cut at {cut}"
            );
            // … so a second recovery is idempotent.
            let mut stats2 = DurabilityStats::default();
            let again = recover(&survivor, &mut stats2)
                .expect("recovers")
                .expect("image exists");
            states_match(&again.db, &recovered.db);
            assert_eq!(stats2.truncated_tail_bytes, 0, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_image_without_fallback_is_reported_not_reinitialized() {
        let (backend, _) = seeded();
        let image_name = backend
            .list()
            .expect("list")
            .into_iter()
            .find(|n| n.ends_with(".img"))
            .expect("image");
        assert!(backend.flip_bit(&image_name, 100, 2));
        let mut stats = DurabilityStats::default();
        match recover(&backend, &mut stats) {
            Err(DurableError::Corrupt(_)) => {}
            Err(other) => panic!("expected corruption, got {other}"),
            Ok(_) => panic!("a flipped image must not recover or reinitialize"),
        }
    }

    #[test]
    fn stale_records_below_the_image_version_are_skipped() {
        // A crash between writing the image and truncating the WAL: the
        // log still holds records the image already covers.
        let db = hospital();
        let backend = FaultyBackend::new();
        let mut wal = Vec::new();
        // Re-encode the hospital history itself as WAL records…
        let mut start = 0u64;
        let deltas: Vec<(Delta, Option<String>)> = db
            .delta_log()
            .since(0)
            .expect("full log")
            .map(|(_, d)| {
                let name = match d {
                    Delta::AddObject { object } => Some(db.object_name(*object).to_owned()),
                    _ => None,
                };
                (d.clone(), name)
            })
            .collect();
        for chunk in deltas.chunks(3) {
            codec::encode_record(
                &WalRecord {
                    start_version: start,
                    deltas: chunk.to_vec(),
                },
                &mut wal,
            );
            start += chunk.len() as u64;
        }
        backend.append(WAL_FILE, &wal).expect("append");
        // …and checkpoint the final state on top.
        write_checkpoint(&backend, &db, &ViewCatalog::new()).expect("image");
        let mut stats = DurabilityStats::default();
        let recovered = recover(&backend, &mut stats)
            .expect("recovers")
            .expect("image exists");
        states_match(&recovered.db, &db);
        assert_eq!(
            stats.recovered_records, 0,
            "records the image covers are skipped, not replayed"
        );
        assert_eq!(stats.truncated_tail_bytes, 0);
    }
}
