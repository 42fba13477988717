//! Checkpoint images: one published state serialized into a single
//! atomically-replaced file.
//!
//! ```text
//! image  := magic:"SUBQCKPT"  format:u32
//!           schema_version:u64  data_version:u64  stats_version:u64
//!           model:str                      (DL surface syntax — the same
//!                                           text the parser round-trips)
//!           name_count:u32  str*           (object names in id order)
//!           extent_count:u32 (class:str  set:bytes)*
//!           attr_count:u32   (attr:str  posting_count:u32
//!                             (from:u32  set:bytes)*)*   (forward only;
//!                                           the reverse index and pair
//!                                           set are re-derived at load)
//!           view_count:u32   (name:str  fresh_as_of:u64  set:bytes)*
//!           edge_count:u32   (parent:str  child:str)*    (Hasse edges of
//!                                           the classified lattice)
//!           crc:u32                        (CRC32 of everything above)
//! set    := len:u32  bitmap-containers    (see croaring's serializer)
//! ```
//!
//! The image is written as `checkpoint_<version>.img.tmp`, fsynced, and
//! renamed into place — a crash leaves either the previous image or the
//! new one, never a torn hybrid, and the trailing CRC rejects bit rot.
//! View definitions are *not* stored: every view name denotes either a
//! declared query class or a schema class (materialized as the trivial
//! `isA C`), both recoverable from the model text, so the name is the
//! definition. The lattice edges are stored for verification — the
//! recovered catalog re-classifies from scratch (concept ids are bound
//! to the in-memory term arena and cannot survive a restart) and the
//! crash suite asserts the re-derived diagram matches the recorded one.

use super::codec::{crc32, put_bytes, put_str, put_u32, put_u64, Cursor};
use super::{DurableError, StorageBackend};
use crate::objset::ObjSet;
use crate::store::{Database, ObjId};
use crate::views::ViewCatalog;
use subq_dl::DlModel;

const MAGIC: &[u8; 8] = b"SUBQCKPT";
const FORMAT: u32 = 1;

/// The image file name of a checkpoint at `version` (zero-padded so
/// lexical and numeric order agree).
pub(crate) fn image_name(version: u64) -> String {
    format!("checkpoint_{version:020}.img")
}

/// Parses `checkpoint_<version>.img` back to its version.
pub(crate) fn image_version(name: &str) -> Option<u64> {
    name.strip_prefix("checkpoint_")?
        .strip_suffix(".img")?
        .parse()
        .ok()
}

/// A decoded checkpoint image.
pub(crate) struct CheckpointImage {
    pub(crate) schema_version: u64,
    pub(crate) data_version: u64,
    pub(crate) model: DlModel,
    pub(crate) names: Vec<String>,
    pub(crate) extents: Vec<(String, ObjSet)>,
    pub(crate) attrs: Vec<(String, Vec<(ObjId, ObjSet)>)>,
    /// `(view name, fresh_as_of, extension)` per materialized view.
    pub(crate) views: Vec<(String, u64, ObjSet)>,
    /// The recorded Hasse diagram, `(parent, child)` pairs.
    pub(crate) edges: Vec<(String, String)>,
}

/// Serializes the current state of `(db, catalog)` and writes it
/// atomically; returns the image's data version. The caller must have
/// refreshed every view through `db.data_version()` first (the engine
/// publishes before checkpointing), which is what justifies stamping
/// each view's `fresh_as_of` with the image version.
pub(crate) fn write_checkpoint(
    backend: &dyn StorageBackend,
    db: &Database,
    catalog: &ViewCatalog,
) -> Result<u64, DurableError> {
    let version = db.data_version();
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, FORMAT);
    put_u64(&mut out, db.schema_version());
    put_u64(&mut out, version);
    // `stats_version` repeats the data version: nothing reads it back, and
    // the slot stays so images keep their format.
    put_u64(&mut out, version);
    put_str(&mut out, &subq_dl::pretty::render_model(db.model()));

    let count = db.object_count();
    put_u32(&mut out, count as u32);
    for index in 0..count {
        put_str(&mut out, db.object_name(ObjId(index as u32)));
    }

    let extents = db.checkpoint_extents();
    put_u32(&mut out, extents.len() as u32);
    let mut scratch = Vec::new();
    for (class, set) in extents {
        put_str(&mut out, class);
        scratch.clear();
        set.serialize_into(&mut scratch);
        put_bytes(&mut out, &scratch);
    }

    let attrs = db.checkpoint_attrs();
    put_u32(&mut out, attrs.len() as u32);
    for (attr, postings) in attrs {
        put_str(&mut out, attr);
        put_u32(&mut out, postings.len() as u32);
        for (from, values) in postings {
            put_u32(&mut out, from.0);
            scratch.clear();
            values.serialize_into(&mut scratch);
            put_bytes(&mut out, &scratch);
        }
    }

    let views = catalog.snapshot();
    put_u32(&mut out, views.len() as u32);
    for view in &views {
        put_str(&mut out, &view.definition.name);
        put_u64(&mut out, version);
        scratch.clear();
        view.extent.serialize_into(&mut scratch);
        put_bytes(&mut out, &scratch);
    }

    let edges = catalog.lattice_edges();
    put_u32(&mut out, edges.len() as u32);
    for (parent, child) in &edges {
        put_str(&mut out, parent);
        put_str(&mut out, child);
    }

    let crc = crc32(&out);
    put_u32(&mut out, crc);
    backend.write_atomic(&image_name(version), &out)?;
    Ok(version)
}

/// Parses and validates an image; `None` on any structural damage —
/// recovery then falls back to an older image or reports corruption.
pub(crate) fn parse_image(bytes: &[u8]) -> Option<CheckpointImage> {
    if bytes.len() < MAGIC.len() + 4 {
        return None;
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 4);
    let stored_crc = u32::from_le_bytes(trailer.try_into().expect("4 bytes"));
    if crc32(body) != stored_crc {
        return None;
    }
    let mut cursor = Cursor::new(body);
    if cursor.take(MAGIC.len())? != MAGIC || cursor.u32()? != FORMAT {
        return None;
    }
    let schema_version = cursor.u64()?;
    let data_version = cursor.u64()?;
    let _stats_version = cursor.u64()?;
    let model = subq_dl::parse_model(&cursor.str()?).ok()?;

    let name_count = cursor.u32()? as usize;
    let mut names = Vec::with_capacity(name_count.min(1 << 20));
    for _ in 0..name_count {
        names.push(cursor.str()?);
    }

    let extent_count = cursor.u32()? as usize;
    let mut extents = Vec::with_capacity(extent_count.min(1 << 20));
    for _ in 0..extent_count {
        let class = cursor.str()?;
        let set = ObjSet::deserialize(cursor.bytes()?)?;
        extents.push((class, set));
    }

    let attr_count = cursor.u32()? as usize;
    let mut attrs = Vec::with_capacity(attr_count.min(1 << 20));
    for _ in 0..attr_count {
        let attr = cursor.str()?;
        let posting_count = cursor.u32()? as usize;
        let mut postings = Vec::with_capacity(posting_count.min(1 << 20));
        for _ in 0..posting_count {
            let from = ObjId(cursor.u32()?);
            let values = ObjSet::deserialize(cursor.bytes()?)?;
            postings.push((from, values));
        }
        attrs.push((attr, postings));
    }

    let view_count = cursor.u32()? as usize;
    let mut views = Vec::with_capacity(view_count.min(1 << 20));
    for _ in 0..view_count {
        let name = cursor.str()?;
        let fresh_as_of = cursor.u64()?;
        let extent = ObjSet::deserialize(cursor.bytes()?)?;
        views.push((name, fresh_as_of, extent));
    }

    let edge_count = cursor.u32()? as usize;
    let mut edges = Vec::with_capacity(edge_count.min(1 << 20));
    for _ in 0..edge_count {
        let parent = cursor.str()?;
        let child = cursor.str()?;
        edges.push((parent, child));
    }

    cursor.done().then_some(CheckpointImage {
        schema_version,
        data_version,
        model,
        names,
        extents,
        attrs,
        views,
        edges,
    })
}

/// Drops every image strictly older than `version` (best effort — a
/// leftover stale image is harmless, recovery prefers the newest valid
/// one).
pub(crate) fn remove_images_before(backend: &dyn StorageBackend, version: u64) {
    let Ok(names) = backend.list() else {
        return;
    };
    for name in names {
        if image_version(&name).is_some_and(|v| v < version) {
            let _ = backend.remove(&name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::FaultyBackend;
    use super::*;
    use crate::store::tests::hospital;

    #[test]
    fn image_names_roundtrip_and_sort_numerically() {
        assert_eq!(image_version(&image_name(0)), Some(0));
        assert_eq!(image_version(&image_name(u64::MAX)), Some(u64::MAX));
        assert!(image_name(9) < image_name(10), "zero padding keeps order");
        assert_eq!(image_version("wal.log"), None);
        assert_eq!(image_version("checkpoint_x.img"), None);
    }

    #[test]
    fn images_roundtrip_and_reject_any_bit_flip() {
        let db = hospital();
        let catalog = ViewCatalog::new();
        let backend = FaultyBackend::new();
        let version = write_checkpoint(&backend, &db, &catalog).expect("write");
        assert_eq!(version, db.data_version());
        let bytes = backend
            .read(&image_name(version))
            .expect("read")
            .expect("exists");
        let image = parse_image(&bytes).expect("own image parses");
        assert_eq!(image.data_version, db.data_version());
        assert_eq!(image.schema_version, db.schema_version());
        assert_eq!(image.names.len(), db.object_count());
        assert_eq!(image.extents.len(), db.checkpoint_extents().len());
        assert!(image.views.is_empty());
        assert!(image.edges.is_empty());

        // Every single-bit corruption is caught by the trailing CRC (or
        // by structural validation when the flip hits the CRC itself).
        for offset in (0..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
            let mut corrupted = bytes.clone();
            corrupted[offset] ^= 0x04;
            assert!(parse_image(&corrupted).is_none(), "flip at {offset}");
        }
        // Truncations never panic.
        for cut in (0..bytes.len()).step_by(131) {
            assert!(parse_image(&bytes[..cut]).is_none(), "cut at {cut}");
        }
    }
}
