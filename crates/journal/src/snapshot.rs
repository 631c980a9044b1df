//! Snapshot persistence for WAL compaction.
//!
//! A snapshot is an opaque payload (the server's serialized state) tagged
//! with `covers_seq`, the highest journal sequence number whose effects
//! the payload includes. Recovery loads the snapshot first, then replays
//! only journal frames with `seq > covers_seq` — which is why WAL frames
//! carry explicit sequence numbers.
//!
//! Crash ordering: the snapshot is made durable (file backends write a
//! temporary, atomically rename it, and fsync the directory so the
//! rename itself survives) *before* compaction empties the WAL, whose
//! frames it all covers.
//! A crash between the two steps leaves covered frames on disk; replay
//! skips them by sequence, so the overlap is harmless. Because the save
//! is atomic, a snapshot that fails its checksum was damaged after it
//! was written, and compaction has already dropped the frames it
//! covers: `load` reports it as an [`io::ErrorKind::InvalidData`]
//! error, and recovery refuses rather than replay only the tail.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::storage::sync_parent_dir;
use crate::wal::frame_check;

/// Magic prefix identifying a snapshot blob (and its format version).
const MAGIC: &[u8; 8] = b"GJSNAP01";

/// A serialized state snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotBlob {
    /// Highest journal sequence number this snapshot's state includes.
    pub covers_seq: u64,
    /// The serialized state (opaque to this crate).
    pub payload: Vec<u8>,
}

impl SnapshotBlob {
    /// Encodes the blob with its magic, length and checksum framing.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(MAGIC.len() + 8 + 4 + 8 + self.payload.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.covers_seq.to_le_bytes());
        out.extend_from_slice(
            &u32::try_from(self.payload.len()).expect("snapshot bounded").to_le_bytes(),
        );
        out.extend_from_slice(&frame_check(self.covers_seq, &self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decodes and verifies an encoded blob; `None` when the bytes are
    /// torn, truncated, or fail the checksum.
    pub fn decode(bytes: &[u8]) -> Option<SnapshotBlob> {
        let header = MAGIC.len() + 8 + 4 + 8;
        if bytes.len() < header || &bytes[..MAGIC.len()] != MAGIC {
            return None;
        }
        let covers_seq = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")) as usize;
        let check = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
        if bytes.len() != header + len {
            return None;
        }
        let payload = &bytes[header..];
        if frame_check(covers_seq, payload) != check {
            return None;
        }
        Some(SnapshotBlob { covers_seq, payload: payload.to_vec() })
    }
}

/// Decodes stored snapshot bytes; bytes that are there but fail to
/// decode are an [`io::ErrorKind::InvalidData`] error.
fn decode_stored(bytes: &[u8]) -> io::Result<SnapshotBlob> {
    SnapshotBlob::decode(bytes).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("snapshot of {} bytes is torn or fails its checksum", bytes.len()),
        )
    })
}

/// Where snapshots live.
pub trait SnapshotStore: Send {
    /// Loads the saved snapshot; `None` when none was ever saved.
    ///
    /// # Errors
    ///
    /// An [`io::ErrorKind::InvalidData`] error when snapshot bytes are
    /// stored but torn or fail their checksum. The journal no longer
    /// holds the frames such a snapshot covered, so the caller must not
    /// carry on as if there were none.
    fn load(&mut self) -> io::Result<Option<SnapshotBlob>>;

    /// Durably saves `blob`, replacing any previous snapshot. Must be
    /// atomic with respect to crashes.
    fn save(&mut self, blob: &SnapshotBlob) -> io::Result<()>;
}

/// File-backed snapshot store (write-temporary-then-rename).
#[derive(Debug)]
pub struct FileSnapshotStore {
    path: PathBuf,
}

impl FileSnapshotStore {
    /// A store persisting to `path`.
    pub fn new(path: impl Into<PathBuf>) -> FileSnapshotStore {
        FileSnapshotStore { path: path.into() }
    }

    /// The snapshot file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl SnapshotStore for FileSnapshotStore {
    fn load(&mut self) -> io::Result<Option<SnapshotBlob>> {
        let mut bytes = Vec::new();
        match File::open(&self.path) {
            Ok(mut f) => {
                f.read_to_end(&mut bytes)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        }
        decode_stored(&bytes).map(Some)
    }

    fn save(&mut self, blob: &SnapshotBlob) -> io::Result<()> {
        let tmp = self.path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&blob.encode())?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &self.path)?;
        // The rename must be durable before the caller compacts the
        // journal through this snapshot.
        sync_parent_dir(&self.path)
    }
}

/// In-memory snapshot store; clones share contents, so a test can hold a
/// handle across a simulated crash.
#[derive(Debug, Clone, Default)]
pub struct MemSnapshotStore {
    bytes: Arc<Mutex<Option<Vec<u8>>>>,
}

impl MemSnapshotStore {
    /// An empty store.
    pub fn new() -> MemSnapshotStore {
        MemSnapshotStore::default()
    }

    /// True once a snapshot has been saved.
    pub fn has_snapshot(&self) -> bool {
        self.bytes.lock().expect("snapshot mutex poisoned").is_some()
    }
}

impl SnapshotStore for MemSnapshotStore {
    fn load(&mut self) -> io::Result<Option<SnapshotBlob>> {
        let bytes = self.bytes.lock().expect("snapshot mutex poisoned");
        bytes.as_deref().map(decode_stored).transpose()
    }

    fn save(&mut self, blob: &SnapshotBlob) -> io::Result<()> {
        *self.bytes.lock().expect("snapshot mutex poisoned") = Some(blob.encode());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_round_trips() {
        let blob = SnapshotBlob { covers_seq: 42, payload: b"state".to_vec() };
        let decoded = SnapshotBlob::decode(&blob.encode()).unwrap();
        assert_eq!(decoded, blob);
    }

    #[test]
    fn torn_or_corrupt_blob_decodes_to_none() {
        let blob = SnapshotBlob { covers_seq: 7, payload: vec![1, 2, 3, 4] };
        let encoded = blob.encode();
        for cut in 0..encoded.len() {
            assert_eq!(SnapshotBlob::decode(&encoded[..cut]), None, "cut at {cut}");
        }
        let mut flipped = encoded.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_eq!(SnapshotBlob::decode(&flipped), None);
    }

    #[test]
    fn stores_refuse_corrupt_bytes() {
        let blob = SnapshotBlob { covers_seq: 5, payload: b"state".to_vec() };
        let mut flipped = blob.encode();
        flipped[MAGIC.len() + 20] ^= 1;

        let mut mem = MemSnapshotStore::new();
        *mem.bytes.lock().unwrap() = Some(flipped.clone());
        assert_eq!(mem.load().unwrap_err().kind(), io::ErrorKind::InvalidData);

        let dir = std::env::temp_dir().join(format!("gridauthz-snap-bad-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snapshot");
        let mut file = FileSnapshotStore::new(&path);
        file.save(&blob).unwrap();
        fs::write(&path, &flipped).unwrap();
        assert_eq!(file.load().unwrap_err().kind(), io::ErrorKind::InvalidData);
        fs::write(&path, b"").unwrap();
        assert_eq!(file.load().unwrap_err().kind(), io::ErrorKind::InvalidData);
        let _ = fs::remove_file(&path);
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn mem_store_shares_between_clones() {
        let mut a = MemSnapshotStore::new();
        let mut b = a.clone();
        assert_eq!(b.load().unwrap(), None);
        a.save(&SnapshotBlob { covers_seq: 1, payload: vec![9] }).unwrap();
        assert!(b.has_snapshot());
        assert_eq!(b.load().unwrap().unwrap().covers_seq, 1);
    }

    #[test]
    fn file_store_saves_and_reloads() {
        let dir = std::env::temp_dir().join(format!("gridauthz-snap-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snapshot");
        let _ = fs::remove_file(&path);
        let mut store = FileSnapshotStore::new(&path);
        assert_eq!(store.load().unwrap(), None);
        let blob = SnapshotBlob { covers_seq: 3, payload: b"abc".to_vec() };
        store.save(&blob).unwrap();
        assert_eq!(store.load().unwrap().unwrap(), blob);
        let _ = fs::remove_file(&path);
        let _ = fs::remove_dir(&dir);
    }
}
