//! The byte-level device under the WAL: a real file, an in-memory buffer
//! for tests, or the fault-injecting [`crate::crashsim::FaultFile`].
//!
//! The trait splits *writing* from *durability*: [`Storage::append`] may
//! buffer (a real file write lands in the OS page cache), and only
//! [`Storage::sync`] makes the bytes crash-durable. The WAL's commit
//! point — the instant after which an acknowledged mutation must survive
//! a crash — is therefore the return of `sync`, and the fault-injection
//! layer models exactly that: bytes appended but not yet synced are lost
//! (or torn) when the simulated machine dies.
//!
//! A device may hold zero bytes past the log's tail. [`FileStorage`]
//! preallocates: it writes frames into space it has already filled with
//! zeros and synced, in [`PREALLOC_CHUNK`] steps, so an fsync after an
//! append flushes data blocks and never a new file size. The WAL finds
//! the tail by scanning (an all-zero frame header ends the log) and
//! hands it to [`Storage::truncate`] at every open; a device never
//! guesses its tail by trimming zeros, since a payload may end in them.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The step in which [`FileStorage`] grows its file: zero-filled and
/// synced ahead of the frames written into it.
pub const PREALLOC_CHUNK: u64 = 256 * 1024;

/// An append-only byte device with an explicit durability barrier.
pub trait Storage: Send {
    /// Reads the device's entire current contents, including any zero
    /// bytes preallocated past the log's tail. Called once, at open.
    fn read_all(&mut self) -> io::Result<Vec<u8>>;

    /// Appends bytes at the device's tail. May buffer; the bytes are
    /// not durable until [`Storage::sync`] returns.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Makes every previously appended byte durable (fsync).
    fn sync(&mut self) -> io::Result<()>;

    /// Sets the tail to `len` bytes — called at every open with the
    /// length of the intact frames, so a torn tail is cut away. After it
    /// returns, every byte past `len` is zero (or absent) durably, and
    /// the next append lands at `len`. A device may keep zero-filled
    /// space past `len`. The discarded region is already known-garbage,
    /// so this does not need to be atomic.
    fn truncate(&mut self, len: u64) -> io::Result<()>;

    /// Atomically replaces the device's entire contents with `bytes`
    /// and sets the tail after them. Snapshot compaction passes an empty
    /// image, so the device holds zeros only. Must be all-or-nothing with
    /// respect to crashes (file backends write a temporary and rename
    /// over the original) and durable on return. Space past the tail is
    /// zero; a device never reuses the old contents' space.
    fn replace(&mut self, bytes: &[u8]) -> io::Result<()>;
}

/// File-backed storage: the production device. Frames are written at
/// the tail into zero-filled, synced space ([`PREALLOC_CHUNK`]); see the
/// module docs.
#[derive(Debug)]
pub struct FileStorage {
    path: PathBuf,
    file: File,
    /// Where the next append is written.
    tail: u64,
    /// The file's length: every byte below it was written (zeros or
    /// frames) and synced before a frame was placed there.
    allocated: u64,
}

impl FileStorage {
    /// Opens (creating if absent) the journal file at `path`. Until
    /// [`Storage::truncate`] names the tail, appends go to the end of
    /// the file.
    ///
    /// # Errors
    ///
    /// Any I/O error opening the file or syncing its directory.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<FileStorage> {
        let path = path.into();
        // An existing journal must be kept, never truncated at open.
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        // A journal just created must not lose its directory entry.
        sync_parent_dir(&path)?;
        let len = file.metadata()?.len();
        Ok(FileStorage { path, file, tail: len, allocated: len })
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Zero-fills and syncs the file up to the chunk boundary past `end`,
    /// so the frames about to be written there need no size update.
    fn preallocate(&mut self, end: u64) -> io::Result<()> {
        let target = chunk_end(end);
        let zeros = vec![0u8; usize::try_from(target - self.allocated).expect("chunk fits memory")];
        self.file.write_all_at(&zeros, self.allocated)?;
        self.file.sync_data()?;
        self.allocated = target;
        Ok(())
    }
}

/// The first chunk boundary strictly past `len`.
fn chunk_end(len: u64) -> u64 {
    (len / PREALLOC_CHUNK + 1) * PREALLOC_CHUNK
}

/// Makes a create or rename in `path`'s directory durable.
pub(crate) fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

impl Storage for FileStorage {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::new();
        self.file.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let end = self.tail + bytes.len() as u64;
        if end > self.allocated {
            self.preallocate(end)?;
        }
        self.file.write_all_at(bytes, self.tail)?;
        self.tail = end;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        let file_len = self.file.metadata()?.len();
        if len > file_len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("journal tail {len} past the end of a {file_len}-byte file"),
            ));
        }
        // Zero what lies past the tail, up to its last non-zero byte,
        // and keep the preallocated space.
        let mut rest = vec![0u8; usize::try_from(file_len - len).expect("journal fits memory")];
        self.file.read_exact_at(&mut rest, len)?;
        if let Some(last) = rest.iter().rposition(|&b| b != 0) {
            rest[..=last].fill(0);
            self.file.write_all_at(&rest[..=last], len)?;
            self.file.sync_data()?;
        }
        self.tail = len;
        self.allocated = file_len;
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        let tail = bytes.len() as u64;
        let allocated = chunk_end(tail);
        let tmp = self.path.with_extension("tmp");
        {
            let f = File::create(&tmp)?;
            let mut image = bytes.to_vec();
            image.resize(usize::try_from(allocated).expect("journal fits memory"), 0);
            f.write_all_at(&image, 0)?;
            f.sync_data()?;
        }
        fs::rename(&tmp, &self.path)?;
        sync_parent_dir(&self.path)?;
        // Reopen: `self.file` still refers to the pre-rename inode.
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.tail = tail;
        self.allocated = allocated;
        Ok(())
    }
}

/// In-memory storage whose bytes are shared between clones, so a test can
/// keep a handle, "crash" the journal by dropping it, and reopen a new
/// journal over the surviving bytes.
#[derive(Debug, Clone, Default)]
pub struct MemStorage {
    bytes: Arc<Mutex<Vec<u8>>>,
}

impl MemStorage {
    /// An empty in-memory device.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }

    /// A device pre-loaded with `bytes` (e.g. the durable contents a
    /// fault-injected run left behind).
    pub fn from_bytes(bytes: Vec<u8>) -> MemStorage {
        MemStorage { bytes: Arc::new(Mutex::new(bytes)) }
    }

    /// A copy of the device's current contents.
    pub fn contents(&self) -> Vec<u8> {
        self.bytes.lock().expect("storage mutex poisoned").clone()
    }
}

impl Storage for MemStorage {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        Ok(self.contents())
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.bytes.lock().expect("storage mutex poisoned").extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.bytes.lock().expect("storage mutex poisoned").truncate(len as usize);
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        *self.bytes.lock().expect("storage mutex poisoned") = bytes.to_vec();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{Journal, Replay, FRAME_HEADER_LEN};

    #[test]
    fn mem_storage_clones_share_bytes() {
        let mut a = MemStorage::new();
        let b = a.clone();
        a.append(b"hello").unwrap();
        a.sync().unwrap();
        assert_eq!(b.contents(), b"hello");
        a.truncate(2).unwrap();
        assert_eq!(b.contents(), b"he");
        a.replace(b"xyz").unwrap();
        assert_eq!(b.contents(), b"xyz");
    }

    #[test]
    fn file_storage_round_trips_and_replaces() {
        let dir = TestDir::new("round-trip");
        let path = dir.wal();

        let mut s = FileStorage::open(&path).unwrap();
        s.append(b"abcdef").unwrap();
        s.sync().unwrap();
        assert_eq!(logical(&s.read_all().unwrap(), 6), b"abcdef");
        s.truncate(3).unwrap();
        assert_eq!(logical(&s.read_all().unwrap(), 3), b"abc");
        s.replace(b"zz").unwrap();
        assert_eq!(logical(&s.read_all().unwrap(), 2), b"zz");
        s.append(b"!").unwrap();
        s.sync().unwrap();

        // A fresh handle sees the post-replace, post-append contents.
        let mut again = FileStorage::open(&path).unwrap();
        assert_eq!(logical(&again.read_all().unwrap(), 3), b"zz!");
    }

    /// The first `len` bytes of a preallocated image, after checking
    /// that the image is one chunk and holds only zeros past them.
    fn logical(image: &[u8], len: usize) -> &[u8] {
        assert_eq!(image.len() as u64, PREALLOC_CHUNK, "one preallocated chunk");
        assert!(image[len..].iter().all(|&b| b == 0), "non-zero bytes past the tail");
        &image[..len]
    }

    /// A fresh directory of the test's own (tests run in parallel).
    struct TestDir(PathBuf);

    impl TestDir {
        fn new(name: &str) -> TestDir {
            let dir = std::env::temp_dir()
                .join(format!("gridauthz-journal-{name}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }

        fn wal(&self) -> PathBuf {
            self.0.join("journal.wal")
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn open_file(path: &Path) -> (Journal, Replay) {
        Journal::open(Box::new(FileStorage::open(path).unwrap())).unwrap()
    }

    fn payloads(replay: &Replay) -> Vec<Vec<u8>> {
        replay.records.iter().map(|r| r.payload.clone()).collect()
    }

    fn file_len(path: &Path) -> u64 {
        fs::metadata(path).unwrap().len()
    }

    /// Frames `1..=n` of the given payloads, encoded as the WAL writes
    /// them (taken from an in-memory journal).
    fn encoded(payloads: &[&[u8]]) -> Vec<u8> {
        let device = MemStorage::new();
        let (journal, _) = Journal::open(Box::new(device.clone())).unwrap();
        for payload in payloads {
            journal.append(payload).unwrap();
        }
        device.contents()
    }

    #[test]
    fn reopened_file_keeps_its_allocation_and_appends_after_the_last_frame() {
        let dir = TestDir::new("reopen");
        let (journal, _) = open_file(&dir.wal());
        for i in 0..3u8 {
            journal.append(&[i; 10]).unwrap();
        }
        drop(journal);
        assert_eq!(file_len(&dir.wal()), PREALLOC_CHUNK);

        let (journal, replay) = open_file(&dir.wal());
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.truncated_bytes, 0, "preallocated zeros are not a torn tail");
        assert_eq!(journal.append(b"fourth").unwrap(), 4);
        drop(journal);
        assert_eq!(file_len(&dir.wal()), PREALLOC_CHUNK, "reopen kept the allocation");

        let (journal, replay) = open_file(&dir.wal());
        assert_eq!(
            payloads(&replay),
            vec![vec![0; 10], vec![1; 10], vec![2; 10], b"fourth".to_vec()]
        );
        // A batch that crosses the allocated end grows the file by
        // whole chunks, and the log stays readable across the boundary.
        let big = vec![7u8; PREALLOC_CHUNK as usize];
        assert_eq!(journal.append(&big).unwrap(), 5);
        drop(journal);
        assert_eq!(file_len(&dir.wal()), 2 * PREALLOC_CHUNK);
        let (_, replay) = open_file(&dir.wal());
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.records[4].payload, big);
    }

    #[test]
    fn torn_frame_before_zeros_is_zeroed_and_a_shorter_frame_replaces_it() {
        let dir = TestDir::new("torn");
        let (journal, _) = open_file(&dir.wal());
        journal.append(b"acked-one").unwrap();
        journal.append(b"acked-two").unwrap();
        drop(journal);

        // The machine died while writing a third frame: a strict prefix
        // of it sits at the tail, followed by preallocated zeros.
        let full = encoded(&[b"acked-one", b"acked-two", b"an in-flight record, long"]);
        let tail = 2 * FRAME_HEADER_LEN + 18;
        let torn = &full[tail..full.len() - 5];
        let file = OpenOptions::new().write(true).open(dir.wal()).unwrap();
        file.write_all_at(torn, tail as u64).unwrap();
        drop(file);

        let (journal, replay) = open_file(&dir.wal());
        assert_eq!(payloads(&replay), vec![b"acked-one".to_vec(), b"acked-two".to_vec()]);
        assert_eq!(replay.truncated_bytes, torn.len() as u64);
        let image = fs::read(dir.wal()).unwrap();
        assert_eq!(logical(&image, tail), &full[..tail], "recovery zeroed the torn frame");

        // A shorter frame lands at the tail; the machine dies (drop,
        // no further sync) and the reopen sees exactly the acked frames.
        assert_eq!(journal.append(b"short").unwrap(), 3);
        drop(journal);
        let (_, replay) = open_file(&dir.wal());
        assert_eq!(
            payloads(&replay),
            vec![b"acked-one".to_vec(), b"acked-two".to_vec(), b"short".to_vec()]
        );
        assert_eq!(replay.truncated_bytes, 0);
    }

    #[test]
    fn a_valid_frame_past_a_corrupt_one_never_resurrects() {
        let dir = TestDir::new("stale");
        let (journal, _) = open_file(&dir.wal());
        journal.append(b"acked").unwrap();
        drop(journal);

        // Frames 2 and 3 reached the platter out of order: frame 2 is
        // corrupt, frame 3 behind it is intact but was never acked.
        let full = encoded(&[b"acked", b"lost-two", b"lost-three"]);
        let tail = FRAME_HEADER_LEN + 5;
        let mut batch = full[tail..].to_vec();
        batch[FRAME_HEADER_LEN] ^= 0x01;
        let file = OpenOptions::new().write(true).open(dir.wal()).unwrap();
        file.write_all_at(&batch, tail as u64).unwrap();
        drop(file);

        let (journal, replay) = open_file(&dir.wal());
        assert_eq!(payloads(&replay), vec![b"acked".to_vec()]);
        // A new frame 2 of the same length ends exactly where the stale
        // frame 3 began; recovery zeroed it, so it cannot follow on.
        assert_eq!(journal.append(b"new-two!").unwrap(), 2);
        drop(journal);
        let (_, replay) = open_file(&dir.wal());
        assert_eq!(payloads(&replay), vec![b"acked".to_vec(), b"new-two!".to_vec()]);
    }

    #[test]
    fn compacted_file_holds_zeros_past_the_tail() {
        let dir = TestDir::new("compact");
        let (journal, _) = open_file(&dir.wal());
        for i in 1..=5u8 {
            journal.append(&[i; 7]).unwrap();
        }
        drop(journal);
        // Replace the file with its last two frames.
        let frame = FRAME_HEADER_LEN + 7;
        let kept = fs::read(dir.wal()).unwrap()[3 * frame..5 * frame].to_vec();
        FileStorage::open(dir.wal()).unwrap().replace(&kept).unwrap();
        let image = fs::read(dir.wal()).unwrap();
        assert_eq!(logical(&image, 2 * frame), kept.as_slice());
        assert!(!dir.wal().with_extension("tmp").exists(), "the temporary was renamed");

        // Appends continue into the fresh file's preallocated space.
        let (journal, _) = open_file(&dir.wal());
        assert_eq!(journal.append(&[6; 7]).unwrap(), 6);
        drop(journal);
        assert_eq!(file_len(&dir.wal()), PREALLOC_CHUNK);
        let (_, replay) = open_file(&dir.wal());
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![4, 5, 6]);
    }

    #[test]
    fn payloads_ending_in_zero_bytes_round_trip() {
        let dir = TestDir::new("zeros");
        let records: [&[u8]; 3] = [b"trailing\0\0\0", &[0; 16], b"x\0"];
        let (journal, _) = open_file(&dir.wal());
        for record in &records[..2] {
            journal.append(record).unwrap();
        }
        drop(journal);

        let (journal, replay) = open_file(&dir.wal());
        assert_eq!(payloads(&replay), vec![records[0].to_vec(), records[1].to_vec()]);
        // The tail is after the zeros the last payload ends in, not
        // inside them.
        journal.append(records[2]).unwrap();
        drop(journal);
        let (_, replay) = open_file(&dir.wal());
        let expected: Vec<Vec<u8>> = records.iter().map(|r| r.to_vec()).collect();
        assert_eq!(payloads(&replay), expected);
    }

    #[test]
    fn old_layout_journal_opens_and_continues() {
        let dir = TestDir::new("old-layout");
        // Frames up to the end of the file, no zeros: the layout before
        // preallocation.
        let old = encoded(&[b"old-one", b"old-two"]);
        fs::write(dir.wal(), &old).unwrap();

        let (journal, replay) = open_file(&dir.wal());
        assert_eq!(payloads(&replay), vec![b"old-one".to_vec(), b"old-two".to_vec()]);
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(journal.append(b"new-three").unwrap(), 3);
        drop(journal);
        assert_eq!(file_len(&dir.wal()), PREALLOC_CHUNK, "growth rounds up to a chunk");

        let (_, replay) = open_file(&dir.wal());
        assert_eq!(
            payloads(&replay),
            vec![b"old-one".to_vec(), b"old-two".to_vec(), b"new-three".to_vec()]
        );
    }
}
