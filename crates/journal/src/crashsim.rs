//! Deterministic crash-point fault injection for the WAL, in the spirit
//! of `gram::torture`: a seeded [`FaultFile`] device that models the OS
//! page cache (appends buffer; only `sync` makes bytes durable) and kills
//! the simulated machine at a scripted durability barrier, optionally
//! tearing or short-writing the in-flight batch.
//!
//! The crash taxonomy:
//!
//! * [`CrashMode::Kill`] — power loss before the write reaches the
//!   platter: nothing of the in-flight batch survives.
//! * [`CrashMode::Torn`] — the device wrote a strict prefix of the batch
//!   (a torn multi-sector write): a seeded cut somewhere before its last
//!   non-zero byte. A cut after it would leave the whole batch on the
//!   zero-filled platter, which is a complete write, not a torn one.
//! * [`CrashMode::Short`] — only the first few header bytes landed (a
//!   short sector write): the cut falls inside the frame header.
//!
//! Because the crash fires *during* `sync`, the appender never observes a
//! successful commit for the in-flight batch — which is exactly the WAL's
//! contract: an acknowledged record is durable, an unacknowledged one may
//! or may not leave torn bytes behind, and recovery's torn-tail
//! truncation removes them. `gram::crashsim` builds the full invariant
//! matrix on top of this device.
//!
//! The disk models a preallocated device, as [`crate::FileStorage`] is:
//! its image is the durable frames followed by zeros up to a 4 KiB
//! boundary, and appends land at a tail inside it. A crash therefore
//! leaves frames, then the torn or short prefix of the in-flight batch,
//! then zeros — the shape recovery meets on a real file.

use std::io;
use std::sync::{Arc, Mutex};

use crate::storage::Storage;
use crate::wal::FRAME_HEADER_LEN;

/// SplitMix64 — the one deterministic generator behind fault plans, the
/// front-end's retry jitter and `gram::torture`'s storms, so each derives
/// everything from one seed algebra.
#[derive(Debug, Clone)]
pub struct CrashRng {
    state: u64,
}

impl CrashRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> CrashRng {
        CrashRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound` must be nonzero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// An independent generator derived from this seed and `index`.
    pub fn substream(&self, index: u64) -> CrashRng {
        let mut rng = CrashRng::new(self.state ^ index.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }
}

/// How the simulated machine dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Nothing of the in-flight batch survives.
    Kill,
    /// A seeded strict prefix of the batch survives, cut before its last
    /// non-zero byte.
    Torn,
    /// Only a prefix of the first frame's header survives.
    Short,
}

impl CrashMode {
    /// Every mode, for matrix sweeps.
    pub const ALL: [CrashMode; 3] = [CrashMode::Kill, CrashMode::Torn, CrashMode::Short];

    /// Stable label for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            CrashMode::Kill => "kill",
            CrashMode::Torn => "torn",
            CrashMode::Short => "short",
        }
    }
}

/// When and how to crash: the device dies during its
/// `crash_after_syncs`-th successful-so-far durability barrier (0-based:
/// `crash_after_syncs == 0` kills the very first sync).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Index of the sync call that dies (previous syncs succeed).
    pub crash_after_syncs: u64,
    /// What the platter keeps of the in-flight batch.
    pub mode: CrashMode,
    /// Seed for the torn/short cut position.
    pub seed: u64,
}

/// The step in which a [`FaultDisk`]'s image grows with zeros: the
/// layout of [`crate::storage::PREALLOC_CHUNK`] at page size, so the
/// matrix's images stay small and its crashes also cross a boundary.
const FAULT_CHUNK: usize = 4096;

#[derive(Debug)]
struct DiskInner {
    /// The platter: frames, then zeros up to a [`FAULT_CHUNK`] boundary.
    durable: Vec<u8>,
    /// Where the next synced batch lands in `durable`.
    tail: usize,
    pending: Vec<u8>,
    syncs: u64,
    plan: Option<FaultPlan>,
    crashed: bool,
}

/// A shared simulated disk; [`FaultDisk::storage`] hands out the
/// [`FaultFile`] device a journal writes through, while the disk handle
/// survives the "crash" so the harness can read what the platter kept.
#[derive(Debug, Clone)]
pub struct FaultDisk {
    inner: Arc<Mutex<DiskInner>>,
}

impl FaultDisk {
    /// A disk that dies per `plan` (or never, when `None`).
    pub fn new(plan: Option<FaultPlan>) -> FaultDisk {
        FaultDisk {
            inner: Arc::new(Mutex::new(DiskInner {
                durable: Vec::new(),
                tail: 0,
                pending: Vec::new(),
                syncs: 0,
                plan,
                crashed: false,
            })),
        }
    }

    /// A disk pre-loaded with `bytes` (recovered contents). Until the
    /// journal's open names the tail, it sits at the end of `bytes`.
    pub fn from_bytes(bytes: Vec<u8>) -> FaultDisk {
        let disk = FaultDisk::new(None);
        {
            let mut inner = disk.inner.lock().expect("disk mutex poisoned");
            inner.tail = bytes.len();
            inner.durable = bytes;
        }
        disk
    }

    /// The device handle to open a journal over.
    pub fn storage(&self) -> FaultFile {
        FaultFile { inner: Arc::clone(&self.inner) }
    }

    /// True once the planned crash has fired.
    pub fn crashed(&self) -> bool {
        self.inner.lock().expect("disk mutex poisoned").crashed
    }

    /// What the platter holds — exactly the bytes a post-crash recovery
    /// would read, zeros past the tail included.
    pub fn durable_bytes(&self) -> Vec<u8> {
        self.inner.lock().expect("disk mutex poisoned").durable.clone()
    }

    /// Durability barriers completed so far.
    pub fn syncs(&self) -> u64 {
        self.inner.lock().expect("disk mutex poisoned").syncs
    }
}

/// The [`Storage`] device a [`FaultDisk`] exposes.
#[derive(Debug)]
pub struct FaultFile {
    inner: Arc<Mutex<DiskInner>>,
}

fn died() -> io::Error {
    io::Error::other("simulated crash: device is gone")
}

/// The first [`FAULT_CHUNK`] boundary strictly past `len`.
fn fault_chunk_end(len: usize) -> usize {
    (len / FAULT_CHUNK + 1) * FAULT_CHUNK
}

impl DiskInner {
    /// Writes `bytes` at the tail, growing the image with zeros to the
    /// next chunk boundary when they would cross its end.
    fn write_at_tail(&mut self, bytes: &[u8]) {
        let end = self.tail + bytes.len();
        if end > self.durable.len() {
            self.durable.resize(fault_chunk_end(end), 0);
        }
        self.durable[self.tail..end].copy_from_slice(bytes);
    }
}

impl Storage for FaultFile {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        let inner = self.inner.lock().expect("disk mutex poisoned");
        if inner.crashed {
            return Err(died());
        }
        let mut all = inner.durable.clone();
        let end = inner.tail + inner.pending.len();
        if end > all.len() {
            all.resize(end, 0);
        }
        all[inner.tail..end].copy_from_slice(&inner.pending);
        Ok(all)
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("disk mutex poisoned");
        if inner.crashed {
            return Err(died());
        }
        inner.pending.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("disk mutex poisoned");
        if inner.crashed {
            return Err(died());
        }
        if let Some(plan) = inner.plan {
            if inner.syncs == plan.crash_after_syncs {
                let mut rng = CrashRng::new(plan.seed).substream(inner.syncs);
                let pending = std::mem::take(&mut inner.pending);
                // The platter past the tail is already zero, so a cut
                // after the batch's last non-zero byte leaves the whole
                // batch on it: an incomplete write ends before that byte.
                let landed = pending.iter().rposition(|&b| b != 0).map_or(0, |last| last + 1);
                let kept = match plan.mode {
                    CrashMode::Kill => 0,
                    // A strict prefix: never the complete batch.
                    CrashMode::Torn => {
                        if landed > 1 {
                            1 + rng.below(landed as u64 - 1) as usize
                        } else {
                            0
                        }
                    }
                    CrashMode::Short => {
                        let limit = landed.min(FRAME_HEADER_LEN);
                        if limit > 0 {
                            rng.below(limit as u64) as usize
                        } else {
                            0
                        }
                    }
                };
                inner.write_at_tail(&pending[..kept]);
                inner.crashed = true;
                return Err(died());
            }
        }
        inner.syncs += 1;
        let pending = std::mem::take(&mut inner.pending);
        inner.write_at_tail(&pending);
        inner.tail += pending.len();
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("disk mutex poisoned");
        if inner.crashed {
            return Err(died());
        }
        let len = usize::try_from(len).expect("disk fits memory");
        if len > inner.durable.len() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "tail past the device's end"));
        }
        // The preallocated space is kept; only what lies past the tail
        // is zeroed.
        inner.pending.clear();
        inner.durable[len..].fill(0);
        inner.tail = len;
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("disk mutex poisoned");
        if inner.crashed {
            return Err(died());
        }
        // Rename-style replacement is atomic: it happens entirely or not
        // at all, independent of the sync-counter crash plan.
        inner.pending.clear();
        let mut image = bytes.to_vec();
        image.resize(fault_chunk_end(bytes.len()), 0);
        inner.durable = image;
        inner.tail = bytes.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::Journal;

    fn journal_over(disk: &FaultDisk) -> Journal {
        Journal::open(Box::new(disk.storage())).unwrap().0
    }

    #[test]
    fn kill_loses_exactly_the_inflight_record() {
        let disk = FaultDisk::new(Some(FaultPlan {
            crash_after_syncs: 2,
            mode: CrashMode::Kill,
            seed: 1,
        }));
        let journal = journal_over(&disk);
        assert!(journal.append(b"a").is_ok());
        assert!(journal.append(b"b").is_ok());
        assert!(journal.append(b"c").is_err());
        assert!(journal.append(b"d").is_err(), "journal must be dead after the crash");
        assert!(disk.crashed());

        let recovered = FaultDisk::from_bytes(disk.durable_bytes());
        let (_, replay) = Journal::open(Box::new(recovered.storage())).unwrap();
        let payloads: Vec<&[u8]> = replay.records.iter().map(|r| r.payload.as_slice()).collect();
        assert_eq!(payloads, vec![b"a".as_slice(), b"b".as_slice()]);
    }

    #[test]
    fn torn_and_short_never_surface_the_inflight_record() {
        for mode in [CrashMode::Torn, CrashMode::Short] {
            for seed in 0..32u64 {
                let disk = FaultDisk::new(Some(FaultPlan { crash_after_syncs: 1, mode, seed }));
                let journal = journal_over(&disk);
                assert!(journal.append(b"acknowledged-record").is_ok());
                assert!(journal.append(b"in-flight-record").is_err());

                let recovered = FaultDisk::from_bytes(disk.durable_bytes());
                let (_, replay) = Journal::open(Box::new(recovered.storage())).unwrap();
                assert_eq!(replay.records.len(), 1, "mode {mode:?} seed {seed}");
                assert_eq!(replay.records[0].payload, b"acknowledged-record");
            }
        }
    }

    #[test]
    fn a_crash_leaves_frames_then_the_torn_prefix_then_zeros() {
        // The acknowledged record ends just short of a chunk boundary,
        // so some seeds tear the in-flight record across it.
        let acked = vec![0xa5; FAULT_CHUNK - FRAME_HEADER_LEN - 16];
        let acked_len = FRAME_HEADER_LEN + acked.len();
        for mode in CrashMode::ALL {
            for seed in 0..32u64 {
                let disk = FaultDisk::new(Some(FaultPlan { crash_after_syncs: 1, mode, seed }));
                let journal = journal_over(&disk);
                assert!(journal.append(&acked).is_ok());
                assert!(journal.append(b"an in-flight record").is_err());

                let image = disk.durable_bytes();
                assert_eq!(image.len() % FAULT_CHUNK, 0, "the image is whole chunks");
                // Past the in-flight frame's prefix, only zeros.
                let torn_end = image.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
                assert!(torn_end < acked_len + FRAME_HEADER_LEN + 19, "{mode:?} seed {seed}");
                if mode == CrashMode::Kill {
                    assert_eq!(torn_end, acked_len, "{mode:?} seed {seed}");
                }

                // Recovery zeroes the torn prefix and keeps the space.
                let recovered = FaultDisk::from_bytes(image.clone());
                let (journal, replay) = Journal::open(Box::new(recovered.storage())).unwrap();
                assert_eq!(replay.records.len(), 1, "{mode:?} seed {seed}");
                let after_open = recovered.durable_bytes();
                assert_eq!(after_open.len(), image.len());
                assert!(after_open[acked_len..].iter().all(|&b| b == 0));

                // A shorter frame, a crash (drop), a reopen: exactly the
                // acknowledged records.
                assert_eq!(journal.append(b"next").unwrap(), 2);
                drop(journal);
                let (_, replay) = Journal::open(Box::new(recovered.storage())).unwrap();
                let payloads: Vec<&[u8]> =
                    replay.records.iter().map(|r| r.payload.as_slice()).collect();
                assert_eq!(payloads, vec![acked.as_slice(), b"next".as_slice()]);
            }
        }
    }

    #[test]
    fn a_write_missing_only_trailing_zeros_is_complete() {
        // On zero-filled space, a frame whose payload ends in zeros is
        // whole once its last non-zero byte lands: recovery replays it.
        // So a torn crash always cuts before that byte.
        let disk = FaultDisk::new(None);
        let journal = journal_over(&disk);
        journal.append(b"ends-in-zeros\0\0\0\0").unwrap();
        drop(journal);
        let mut image = disk.durable_bytes();
        let frame = FRAME_HEADER_LEN + 17;
        image[frame - 4..frame].fill(0);
        let (_, replay) = Journal::open(Box::new(FaultDisk::from_bytes(image).storage())).unwrap();
        assert_eq!(replay.records.len(), 1);

        for seed in 0..64u64 {
            let plan = FaultPlan { crash_after_syncs: 0, mode: CrashMode::Torn, seed };
            let disk = FaultDisk::new(Some(plan));
            let journal = journal_over(&disk);
            assert!(journal.append(b"ends-in-zeros\0\0\0\0").is_err());
            let (_, replay) =
                Journal::open(Box::new(FaultDisk::from_bytes(disk.durable_bytes()).storage()))
                    .unwrap();
            assert!(replay.records.is_empty(), "seed {seed}: the torn record replayed");
        }
    }

    #[test]
    fn replace_writes_a_fresh_zero_filled_image() {
        let disk = FaultDisk::new(None);
        let journal = journal_over(&disk);
        for _ in 0..40 {
            journal.append(&[0xee; 200]).unwrap();
        }
        drop(journal);
        assert!(disk.durable_bytes().len() > FAULT_CHUNK);
        let frame = FRAME_HEADER_LEN + 200;
        let last = disk.durable_bytes()[39 * frame..40 * frame].to_vec();
        disk.storage().replace(&last).unwrap();
        let image = disk.durable_bytes();
        assert_eq!(image.len(), FAULT_CHUNK, "no old space is recycled");
        assert_eq!(&image[..frame], last.as_slice());
        assert!(image[frame..].iter().all(|&b| b == 0));
        let (_, replay) = Journal::open(Box::new(disk.storage())).unwrap();
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![40]);
    }

    #[test]
    fn crash_rng_is_deterministic() {
        let mut a = CrashRng::new(99);
        let mut b = CrashRng::new(99);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut s1 = a.substream(1);
        let mut s2 = a.substream(2);
        assert_ne!(s1.next_u64(), s2.next_u64());
    }
}
