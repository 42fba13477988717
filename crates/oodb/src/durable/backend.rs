//! The storage abstraction the durable engine writes through.
//!
//! Everything the engine persists — WAL appends, checkpoint images,
//! truncations — goes through [`StorageBackend`], so the crash-recovery
//! suite can swap the real filesystem ([`FileBackend`]) for an in-memory
//! [`FaultyBackend`] that fails, short-writes, or bit-flips at a
//! scripted byte offset and then hands the surviving bytes to a fresh
//! `open()`. A volatile store is the same engine over
//! [`DiscardBackend`], which keeps nothing.

use super::DurableError;
use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Mutex;

/// A flat namespace of durable byte files. Names never contain path
/// separators; the engine uses `wal.log` and `checkpoint_<version>.img`.
pub trait StorageBackend: Send + Sync {
    /// The full contents of `name`, or `None` when it does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DurableError>;
    /// Appends `bytes` to `name`, creating it when missing. A crash may
    /// apply any prefix of the write (torn write) — recovery relies on
    /// record framing, never on append atomicity.
    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), DurableError>;
    /// Forces previous appends to `name` to stable storage.
    fn sync(&self, name: &str) -> Result<(), DurableError>;
    /// Replaces `name` with `bytes` atomically: after a crash the file
    /// holds either the old contents or the new, never a mixture.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), DurableError>;
    /// Removes `name` (no error when already absent).
    fn remove(&self, name: &str) -> Result<(), DurableError>;
    /// The names currently stored.
    fn list(&self) -> Result<Vec<String>, DurableError>;
    /// Whether checkpoint images are wasted on this backend: the engine
    /// then takes the checkpoint without encoding one.
    fn declines_images(&self) -> bool {
        false
    }
}

fn io_err(context: &str, error: std::io::Error) -> DurableError {
    DurableError::Io(format!("{context}: {error}"))
}

/// The real filesystem backend: one directory, append handles cached so
/// group commit pays one `fsync` per batch, atomic replacement via a
/// temp file, `fsync`, and `rename`.
pub struct FileBackend {
    root: PathBuf,
    /// Cached append handles (one open per WAL lifetime, not per
    /// record). Invalidated by `write_atomic`/`remove`, which change the
    /// inode behind the name.
    appenders: Mutex<HashMap<String, fs::File>>,
}

impl FileBackend {
    /// Opens (creating if needed) the directory the files live in.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self, DurableError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| io_err("create backend dir", e))?;
        Ok(FileBackend {
            root,
            appenders: Mutex::new(HashMap::new()),
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Fsyncs the directory itself so renames and removals survive a
    /// power failure (best effort on platforms where directories cannot
    /// be opened).
    fn sync_dir(&self) {
        if let Ok(dir) = fs::File::open(&self.root) {
            let _ = dir.sync_all();
        }
    }
}

impl StorageBackend for FileBackend {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DurableError> {
        match fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", e)),
        }
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), DurableError> {
        let mut appenders = self.appenders.lock().expect("appender lock");
        if !appenders.contains_key(name) {
            let file = fs::OpenOptions::new()
                .append(true)
                .create(true)
                .open(self.path(name))
                .map_err(|e| io_err("open for append", e))?;
            appenders.insert(name.to_owned(), file);
        }
        appenders
            .get_mut(name)
            .expect("just inserted")
            .write_all(bytes)
            .map_err(|e| io_err("append", e))
    }

    fn sync(&self, name: &str) -> Result<(), DurableError> {
        let appenders = self.appenders.lock().expect("appender lock");
        match appenders.get(name) {
            Some(file) => file.sync_data().map_err(|e| io_err("fsync", e)),
            // Nothing appended since open: nothing to make durable.
            None => Ok(()),
        }
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), DurableError> {
        // The replaced name gets a fresh inode: drop any cached handle.
        self.appenders.lock().expect("appender lock").remove(name);
        let tmp = self.path(&format!("{name}.tmp"));
        let mut file = fs::File::create(&tmp).map_err(|e| io_err("create temp", e))?;
        file.write_all(bytes).map_err(|e| io_err("write temp", e))?;
        file.sync_all().map_err(|e| io_err("fsync temp", e))?;
        drop(file);
        fs::rename(&tmp, self.path(name)).map_err(|e| io_err("rename", e))?;
        self.sync_dir();
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<(), DurableError> {
        self.appenders.lock().expect("appender lock").remove(name);
        match fs::remove_file(self.path(name)) {
            Ok(()) => {
                self.sync_dir();
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", e)),
        }
    }

    fn list(&self) -> Result<Vec<String>, DurableError> {
        let mut names = Vec::new();
        let entries = fs::read_dir(&self.root).map_err(|e| io_err("list", e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list entry", e))?;
            if let Some(name) = entry.file_name().to_str() {
                if !name.ends_with(".tmp") {
                    names.push(name.to_owned());
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

/// The backend of a volatile store: every write is dropped, `sync`
/// returns at once, and nothing is ever found. The engine runs its one
/// write order over it unchanged; there is simply nothing to recover.
/// It declines images, whose encoding would cost a volatile `DEFVIEW`
/// milliseconds for bytes nobody reads.
pub struct DiscardBackend;

impl StorageBackend for DiscardBackend {
    fn read(&self, _name: &str) -> Result<Option<Vec<u8>>, DurableError> {
        Ok(None)
    }

    fn append(&self, _name: &str, _bytes: &[u8]) -> Result<(), DurableError> {
        Ok(())
    }

    fn sync(&self, _name: &str) -> Result<(), DurableError> {
        Ok(())
    }

    fn write_atomic(&self, _name: &str, _bytes: &[u8]) -> Result<(), DurableError> {
        Ok(())
    }

    fn remove(&self, _name: &str) -> Result<(), DurableError> {
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>, DurableError> {
        Ok(Vec::new())
    }

    fn declines_images(&self) -> bool {
        true
    }
}

#[derive(Default)]
struct FaultyState {
    files: HashMap<String, Vec<u8>>,
    /// Durable bytes the next writes may still consume before the
    /// scripted crash; `None` disables injection.
    budget: Option<u64>,
    crashed: bool,
}

/// An in-memory backend with scripted fault injection.
///
/// A *crash* is armed with [`FaultyBackend::crash_after_bytes`]: once
/// the armed number of written bytes is consumed, the write in flight
/// is applied only up to the budget (a torn write), the backend enters
/// the crashed state, and every later operation fails — modelling the
/// process dying mid-I/O. [`FaultyBackend::revive`] clears the crash so
/// a fresh `open()` can recover from exactly the bytes that survived.
/// [`FaultyBackend::flip_bit`] corrupts a stored byte in place, the
/// bit-rot the CRC framing must catch.
#[derive(Default)]
pub struct FaultyBackend {
    state: Mutex<FaultyState>,
}

impl FaultyBackend {
    /// An empty backend with no fault armed.
    pub fn new() -> Self {
        FaultyBackend::default()
    }

    /// A backend seeded with an explicit disk state — the way the crash
    /// suite replays a recorded history prefix as "what survived".
    pub fn with_files(files: impl IntoIterator<Item = (String, Vec<u8>)>) -> Self {
        let backend = FaultyBackend::new();
        backend.state.lock().expect("faulty lock").files = files.into_iter().collect();
        backend
    }

    /// Arms the crash: after `budget` more written bytes, writes tear
    /// and every subsequent operation fails until [`FaultyBackend::revive`].
    pub fn crash_after_bytes(&self, budget: u64) {
        let mut state = self.state.lock().expect("faulty lock");
        state.budget = Some(budget);
        state.crashed = false;
    }

    /// Clears the crashed state and disarms injection, as if the
    /// process restarted over the surviving bytes.
    pub fn revive(&self) {
        let mut state = self.state.lock().expect("faulty lock");
        state.budget = None;
        state.crashed = false;
    }

    /// Whether the armed crash has fired.
    pub fn crashed(&self) -> bool {
        self.state.lock().expect("faulty lock").crashed
    }

    /// Flips bit `bit` (0–7) of the byte at `offset` in `name`. Returns
    /// whether the target existed.
    pub fn flip_bit(&self, name: &str, offset: usize, bit: u8) -> bool {
        let mut state = self.state.lock().expect("faulty lock");
        match state.files.get_mut(name) {
            Some(bytes) if offset < bytes.len() => {
                bytes[offset] ^= 1 << (bit & 7);
                true
            }
            _ => false,
        }
    }

    /// A copy of the surviving files (what a post-crash disk holds).
    pub fn surviving_files(&self) -> HashMap<String, Vec<u8>> {
        self.state.lock().expect("faulty lock").files.clone()
    }

    /// Consumes budget for a write of `len` bytes; returns how many of
    /// them actually land.
    fn consume(state: &mut FaultyState, len: usize) -> Result<usize, usize> {
        match state.budget {
            None => Ok(len),
            Some(budget) if (len as u64) <= budget => {
                state.budget = Some(budget - len as u64);
                Ok(len)
            }
            Some(budget) => {
                state.budget = Some(0);
                state.crashed = true;
                Err(budget as usize)
            }
        }
    }

    fn check_alive(state: &FaultyState) -> Result<(), DurableError> {
        if state.crashed {
            Err(DurableError::Io("injected crash".into()))
        } else {
            Ok(())
        }
    }
}

impl StorageBackend for FaultyBackend {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, DurableError> {
        let state = self.state.lock().expect("faulty lock");
        Self::check_alive(&state)?;
        Ok(state.files.get(name).cloned())
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), DurableError> {
        let mut state = self.state.lock().expect("faulty lock");
        Self::check_alive(&state)?;
        match Self::consume(&mut state, bytes.len()) {
            Ok(_) => {
                state
                    .files
                    .entry(name.to_owned())
                    .or_default()
                    .extend_from_slice(bytes);
                Ok(())
            }
            Err(survived) => {
                // The torn write: only a prefix reaches the file.
                state
                    .files
                    .entry(name.to_owned())
                    .or_default()
                    .extend_from_slice(&bytes[..survived]);
                Err(DurableError::Io("injected crash during append".into()))
            }
        }
    }

    fn sync(&self, _name: &str) -> Result<(), DurableError> {
        let state = self.state.lock().expect("faulty lock");
        Self::check_alive(&state)
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), DurableError> {
        let mut state = self.state.lock().expect("faulty lock");
        Self::check_alive(&state)?;
        match Self::consume(&mut state, bytes.len()) {
            Ok(_) => {
                state.files.insert(name.to_owned(), bytes.to_vec());
                Ok(())
            }
            // Atomic replacement mid-crash leaves the old contents —
            // that is the whole point of temp-file + rename.
            Err(_) => Err(DurableError::Io(
                "injected crash during atomic write".into(),
            )),
        }
    }

    fn remove(&self, name: &str) -> Result<(), DurableError> {
        let mut state = self.state.lock().expect("faulty lock");
        Self::check_alive(&state)?;
        state.files.remove(name);
        Ok(())
    }

    fn list(&self) -> Result<Vec<String>, DurableError> {
        let state = self.state.lock().expect("faulty lock");
        Self::check_alive(&state)?;
        let mut names: Vec<String> = state.files.keys().cloned().collect();
        names.sort();
        Ok(names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_backend_appends_syncs_and_replaces_atomically() {
        let dir = std::env::temp_dir().join(format!("subq_backend_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let backend = FileBackend::new(&dir).expect("create");
        assert_eq!(backend.read("wal.log").expect("read"), None);
        backend.append("wal.log", b"hello ").expect("append");
        backend.append("wal.log", b"world").expect("append");
        backend.sync("wal.log").expect("sync");
        assert_eq!(
            backend.read("wal.log").expect("read"),
            Some(b"hello world".to_vec())
        );
        backend.write_atomic("img", b"image").expect("atomic");
        let names = backend.list().expect("list");
        assert_eq!(names, vec!["img".to_owned(), "wal.log".to_owned()]);
        // Replacing the WAL drops the cached appender: later appends see
        // the new inode.
        backend.write_atomic("wal.log", b"fresh").expect("atomic");
        backend.append("wal.log", b"+tail").expect("append");
        assert_eq!(
            backend.read("wal.log").expect("read"),
            Some(b"fresh+tail".to_vec())
        );
        backend.remove("img").expect("remove");
        backend.remove("img").expect("idempotent remove");
        assert_eq!(backend.list().expect("list"), vec!["wal.log".to_owned()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn discard_backend_keeps_nothing_and_declines_images() {
        let backend = DiscardBackend;
        backend.append("wal.log", b"record").expect("append");
        backend.sync("wal.log").expect("sync");
        backend.write_atomic("img", b"image").expect("atomic");
        assert_eq!(backend.read("wal.log").expect("read"), None);
        assert!(backend.list().expect("list").is_empty());
        assert!(backend.declines_images());
        assert!(!FaultyBackend::new().declines_images());
    }

    #[test]
    fn faulty_backend_tears_writes_at_the_scripted_offset() {
        let backend = FaultyBackend::new();
        backend.append("wal.log", b"0123456789").expect("append");
        backend.crash_after_bytes(4);
        let err = backend.append("wal.log", b"abcdefgh").expect_err("crashes");
        assert!(matches!(err, DurableError::Io(_)));
        assert!(backend.crashed());
        // Everything fails until revival…
        assert!(backend.read("wal.log").is_err());
        assert!(backend.sync("wal.log").is_err());
        backend.revive();
        // …and the surviving bytes hold the torn prefix.
        assert_eq!(
            backend.read("wal.log").expect("read"),
            Some(b"0123456789abcd".to_vec())
        );
    }

    #[test]
    fn faulty_backend_keeps_old_contents_through_a_torn_atomic_write() {
        let backend = FaultyBackend::new();
        backend.write_atomic("img", b"old contents").expect("write");
        backend.crash_after_bytes(3);
        backend
            .write_atomic("img", b"new contents")
            .expect_err("crashes");
        backend.revive();
        assert_eq!(
            backend.read("img").expect("read"),
            Some(b"old contents".to_vec())
        );
    }

    #[test]
    fn faulty_backend_flips_bits_in_place() {
        let backend = FaultyBackend::new();
        backend
            .append("wal.log", &[0b0000_0000, 0b1111_1111])
            .expect("append");
        assert!(backend.flip_bit("wal.log", 0, 3));
        assert!(backend.flip_bit("wal.log", 1, 0));
        assert!(!backend.flip_bit("wal.log", 2, 0), "out of range");
        assert!(!backend.flip_bit("missing", 0, 0));
        assert_eq!(
            backend.read("wal.log").expect("read"),
            Some(vec![0b0000_1000, 0b1111_1110])
        );
    }
}
