//! The write-ahead log: checksummed frames, group-commit batching, and
//! torn-tail truncation on open.
//!
//! # Commit protocol
//!
//! [`Journal::append`] encodes the payload into a frame and parks it on a
//! shared pending buffer. The first appender to find no leader in flight
//! becomes the *leader*: it takes the whole pending buffer (its own frame
//! plus every frame that queued behind earlier batches), writes it with
//! one `Storage::append`, and makes it durable with one `Storage::sync`.
//! Followers block on a condition variable until the committed sequence
//! covers their frame. Under concurrency this amortizes the fsync — N
//! appenders pay ~1 sync per batch, not per record — while a
//! single-threaded caller degenerates to one sync per append.
//!
//! [`Journal::append_relaxed`] enqueues a frame without waiting: it
//! becomes durable with whatever batch the next leader commits, or at an
//! explicit [`Journal::flush`]. Best-effort records (the audit trail)
//! ride acknowledged mutations' batches this way, so even a
//! single-threaded mutation stream commits about two records per sync.
//!
//! # Fail-stop
//!
//! The first write or sync error poisons the journal: the failed batch's
//! appenders and every later appender get [`JournalError::Dead`]. A
//! half-written device is never silently reused — the server built on top
//! refuses further mutations, and the operator restarts into recovery.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

use gridauthz_credential::sha256::Sha256;

use crate::storage::Storage;

/// Bytes of frame header preceding the payload: `len: u32`, `seq: u64`,
/// `check: u64`.
pub const FRAME_HEADER_LEN: usize = 4 + 8 + 8;

/// Upper bound on one frame's payload — anything larger on disk is
/// treated as corruption rather than an allocation request.
pub const MAX_PAYLOAD_LEN: usize = 1 << 24;

/// Why an append failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The I/O device reported an error; the journal is now dead.
    Io(String),
    /// A previous batch failed; the journal refuses all further appends.
    Dead(String),
    /// The payload exceeds [`MAX_PAYLOAD_LEN`].
    Oversized(usize),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O failed: {e}"),
            JournalError::Dead(e) => write!(f, "journal is dead: {e}"),
            JournalError::Oversized(n) => write!(f, "journal payload of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for JournalError {}

/// One record recovered at open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayRecord {
    /// The frame's sequence number.
    pub seq: u64,
    /// The payload as appended.
    pub payload: Vec<u8>,
}

/// What [`Journal::open`] found on the device.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Every intact record, in sequence order.
    pub records: Vec<ReplayRecord>,
    /// Bytes of torn/corrupt tail truncated away.
    pub truncated_bytes: u64,
    /// Bytes of intact frames retained.
    pub valid_bytes: u64,
}

/// Counters the server publishes as telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records successfully committed.
    pub appends: u64,
    /// Physical `sync` calls issued (group commit makes this ≤ appends).
    pub fsyncs: u64,
    /// Durable journal length in bytes (post-compaction).
    pub durable_bytes: u64,
}

struct State {
    next_seq: u64,
    committed_seq: u64,
    /// Encoded frames waiting for a leader, and the seq of the last one.
    pending: Vec<u8>,
    pending_last_seq: u64,
    /// Frames in `pending` — the leader folds this into the `appends`
    /// counter once the batch is durable.
    pending_count: u64,
    /// A leader is currently writing+syncing a batch.
    leader_active: bool,
    /// Appenders parked on the condition variable. The leader skips the
    /// wakeup syscall entirely when nobody is waiting (the common
    /// single-threaded case).
    waiters: usize,
    dead: Option<String>,
}

/// The write-ahead log over a [`Storage`] device.
pub struct Journal {
    state: Mutex<State>,
    committed: Condvar,
    io: Mutex<Box<dyn Storage>>,
    appends: AtomicU64,
    fsyncs: AtomicU64,
    durable_bytes: AtomicU64,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").field("stats", &self.stats()).finish_non_exhaustive()
    }
}

fn encode_frame(out: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    out.extend_from_slice(&u32::try_from(payload.len()).expect("payload bounded").to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&frame_check(seq, payload).to_le_bytes());
    out.extend_from_slice(payload);
}

fn frame_check(seq: u64, payload: &[u8]) -> u64 {
    let mut hasher = Sha256::new();
    hasher.update(&seq.to_le_bytes());
    hasher.update(payload);
    let digest = hasher.finalize();
    u64::from_be_bytes(digest[..8].try_into().expect("digest has 32 bytes"))
}

/// Scans `bytes` for intact frames; returns the records plus the byte
/// length of the valid prefix. Scanning stops at the first frame that is
/// incomplete, fails its checksum, or breaks sequence contiguity.
fn scan_frames(bytes: &[u8]) -> (Vec<ReplayRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut expect_seq: Option<u64> = None;
    while bytes.len() - pos >= FRAME_HEADER_LEN {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_PAYLOAD_LEN {
            break;
        }
        let seq = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        let check = u64::from_le_bytes(bytes[pos + 12..pos + 20].try_into().expect("8 bytes"));
        let body_start = pos + FRAME_HEADER_LEN;
        let Some(body_end) = body_start.checked_add(len) else { break };
        if body_end > bytes.len() {
            break;
        }
        let payload = &bytes[body_start..body_end];
        if frame_check(seq, payload) != check {
            break;
        }
        if let Some(expected) = expect_seq {
            if seq != expected {
                break;
            }
        }
        expect_seq = Some(seq + 1);
        records.push(ReplayRecord { seq, payload: payload.to_vec() });
        pos = body_end;
    }
    (records, pos)
}

impl Journal {
    /// Opens a journal over `storage`: scans for the longest intact
    /// checksummed prefix, truncates any torn tail, and returns the
    /// journal (positioned to append after the last intact frame) plus
    /// everything it replayed.
    ///
    /// # Errors
    ///
    /// Any I/O error reading or truncating the device.
    pub fn open(storage: Box<dyn Storage>) -> io::Result<(Journal, Replay)> {
        Journal::open_after(storage, 0)
    }

    /// [`open`](Self::open) for a journal compacted through `covered`
    /// (the recovered snapshot's `covers_seq`): new frames are numbered
    /// after both the last intact frame and `covered`. Compaction can
    /// leave the device empty, and frames renumbered from 1 would sit
    /// at or below the snapshot's cover, where recovery skips them.
    ///
    /// # Errors
    ///
    /// Any I/O error reading or truncating the device.
    pub fn open_after(
        mut storage: Box<dyn Storage>,
        covered: u64,
    ) -> io::Result<(Journal, Replay)> {
        let bytes = storage.read_all()?;
        let (records, valid_len) = scan_frames(&bytes);
        if valid_len < bytes.len() {
            storage.truncate(valid_len as u64)?;
        }
        let next_seq = records.last().map_or(1, |r| r.seq + 1).max(covered + 1);
        let replay = Replay {
            truncated_bytes: (bytes.len() - valid_len) as u64,
            valid_bytes: valid_len as u64,
            records,
        };
        let journal = Journal {
            state: Mutex::new(State {
                next_seq,
                committed_seq: next_seq - 1,
                pending: Vec::new(),
                pending_last_seq: 0,
                pending_count: 0,
                leader_active: false,
                waiters: 0,
                dead: None,
            }),
            committed: Condvar::new(),
            io: Mutex::new(storage),
            appends: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            durable_bytes: AtomicU64::new(valid_len as u64),
        };
        Ok((journal, replay))
    }

    /// Appends `payload` and blocks until it is durable (its batch has
    /// been written and synced). Returns the record's sequence number.
    ///
    /// # Errors
    ///
    /// [`JournalError::Oversized`] for payloads over the frame limit;
    /// [`JournalError::Io`]/[`JournalError::Dead`] once the device fails.
    pub fn append(&self, payload: &[u8]) -> Result<u64, JournalError> {
        let state = self.enqueue(payload)?;
        let seq = state.pending_last_seq;
        self.wait_durable(state, seq)?;
        Ok(seq)
    }

    /// Enqueues `payload` without waiting for durability: the frame is
    /// encoded onto the pending buffer and rides whatever batch the next
    /// leader commits (or an explicit [`Journal::flush`]). For
    /// best-effort records — the audit trail — whose loss in a crash is
    /// acceptable but whose cost must stay off the acknowledged hot
    /// path's sync count. Returns the record's sequence number.
    ///
    /// # Errors
    ///
    /// [`JournalError::Oversized`] for payloads over the frame limit;
    /// [`JournalError::Dead`] once the device has failed.
    pub fn append_relaxed(&self, payload: &[u8]) -> Result<u64, JournalError> {
        let state = self.enqueue(payload)?;
        Ok(state.pending_last_seq)
    }

    /// Blocks until every enqueued frame — including relaxed ones — is
    /// durable. Graceful shutdown and checkpointing drain riders here.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`]/[`JournalError::Dead`] once the device fails.
    pub fn flush(&self) -> Result<(), JournalError> {
        let state = self.state.lock().expect("journal state poisoned");
        if let Some(cause) = &state.dead {
            return Err(JournalError::Dead(cause.clone()));
        }
        let target = state.next_seq - 1;
        self.wait_durable(state, target)
    }

    /// Validates and encodes `payload` as the next frame on the pending
    /// buffer, returning the state guard (with `pending_last_seq` set to
    /// the new frame's seq).
    fn enqueue(&self, payload: &[u8]) -> Result<std::sync::MutexGuard<'_, State>, JournalError> {
        if payload.len() > MAX_PAYLOAD_LEN {
            return Err(JournalError::Oversized(payload.len()));
        }
        let mut state = self.state.lock().expect("journal state poisoned");
        if let Some(cause) = &state.dead {
            return Err(JournalError::Dead(cause.clone()));
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        encode_frame(&mut state.pending, seq, payload);
        state.pending_last_seq = seq;
        state.pending_count += 1;
        Ok(state)
    }

    /// Group-commit loop: drives the pending buffer to the device until
    /// `seq` is covered. The first caller to find no leader in flight
    /// becomes the leader and commits the whole pending batch; the rest
    /// park on the condition variable.
    fn wait_durable<'a>(
        &'a self,
        mut state: std::sync::MutexGuard<'a, State>,
        seq: u64,
    ) -> Result<(), JournalError> {
        loop {
            if state.committed_seq >= seq {
                return Ok(());
            }
            if let Some(cause) = &state.dead {
                return Err(JournalError::Io(cause.clone()));
            }
            if !state.leader_active && !state.pending.is_empty() {
                // Become leader for everything queued so far.
                state.leader_active = true;
                let batch = std::mem::take(&mut state.pending);
                let batch_last = state.pending_last_seq;
                let batch_count = std::mem::take(&mut state.pending_count);
                drop(state);

                let result = {
                    let mut io = self.io.lock().expect("journal io poisoned");
                    io.append(&batch).and_then(|()| io.sync())
                };

                state = self.state.lock().expect("journal state poisoned");
                state.leader_active = false;
                match result {
                    Ok(()) => {
                        state.committed_seq = state.committed_seq.max(batch_last);
                        self.appends.fetch_add(batch_count, Ordering::Relaxed);
                        self.fsyncs.fetch_add(1, Ordering::Relaxed);
                        self.durable_bytes.fetch_add(batch.len() as u64, Ordering::Relaxed);
                    }
                    Err(e) => state.dead = Some(e.to_string()),
                }
                if state.waiters > 0 {
                    self.committed.notify_all();
                }
            } else {
                state.waiters += 1;
                state = self.committed.wait(state).expect("journal state poisoned");
                state.waiters -= 1;
            }
        }
    }

    /// The highest durable sequence number (0 before the first commit).
    pub fn committed_seq(&self) -> u64 {
        self.state.lock().expect("journal state poisoned").committed_seq
    }

    /// Counters for telemetry.
    pub fn stats(&self) -> JournalStats {
        JournalStats {
            appends: self.appends.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            durable_bytes: self.durable_bytes.load(Ordering::Relaxed),
        }
    }

    /// Drops every durable frame with `seq <= covered`, atomically
    /// rewriting the device — snapshot compaction's second half. The
    /// caller must already have saved a snapshot covering `covered`.
    ///
    /// # Errors
    ///
    /// Any I/O error; the journal stays usable on read errors but is
    /// poisoned if the rewrite itself fails partway.
    pub fn compact_through(&self, covered: u64) -> Result<(), JournalError> {
        let mut io = self.io.lock().expect("journal io poisoned");
        let bytes = io.read_all().map_err(|e| JournalError::Io(e.to_string()))?;
        let (records, valid_len) = scan_frames(&bytes);
        debug_assert_eq!(valid_len, bytes.len(), "durable region must be intact");
        let mut retained = Vec::new();
        for record in &records {
            if record.seq > covered {
                encode_frame(&mut retained, record.seq, &record.payload);
            }
        }
        let retained_len = retained.len() as u64;
        io.replace(&retained).map_err(|e| {
            let mut state = self.state.lock().expect("journal state poisoned");
            state.dead = Some(format!("compaction failed: {e}"));
            JournalError::Io(e.to_string())
        })?;
        self.durable_bytes.store(retained_len, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use proptest::prelude::*;

    use super::*;
    use crate::storage::MemStorage;

    fn open_mem(storage: &MemStorage) -> (Journal, Replay) {
        Journal::open(Box::new(storage.clone())).unwrap()
    }

    #[test]
    fn appends_replay_in_order() {
        let device = MemStorage::new();
        let (journal, replay) = open_mem(&device);
        assert!(replay.records.is_empty());
        for i in 0..10u8 {
            journal.append(&[i; 3]).unwrap();
        }
        assert_eq!(journal.committed_seq(), 10);
        drop(journal);

        let (_, replay) = open_mem(&device);
        assert_eq!(replay.records.len(), 10);
        assert_eq!(replay.truncated_bytes, 0);
        for (i, r) in replay.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.payload, vec![i as u8; 3]);
        }
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        journal.append(b"first-record").unwrap();
        journal.append(b"second-record").unwrap();
        drop(journal);
        let full = device.contents();
        let first_len = FRAME_HEADER_LEN + b"first-record".len();

        for cut in 0..full.len() {
            let torn = MemStorage::from_bytes(full[..cut].to_vec());
            let (_, replay) = open_mem(&torn);
            let expected = usize::from(cut >= first_len) + usize::from(cut >= full.len());
            assert_eq!(replay.records.len(), expected, "cut at {cut}");
            // The device itself was cut back to the valid prefix.
            let expected_len = if cut >= first_len { first_len } else { 0 };
            assert_eq!(torn.contents().len(), expected_len, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_byte_truncates_from_that_frame() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        journal.append(b"aaaa").unwrap();
        journal.append(b"bbbb").unwrap();
        drop(journal);
        let mut bytes = device.contents();
        // Flip a payload byte of the second frame.
        let second_payload = FRAME_HEADER_LEN * 2 + 4;
        bytes[second_payload] ^= 0x40;
        let corrupt = MemStorage::from_bytes(bytes);
        let (_, replay) = open_mem(&corrupt);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].payload, b"aaaa");
        assert!(replay.truncated_bytes > 0);
    }

    #[test]
    fn reopen_after_compaction_numbers_past_the_cover() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        for i in 0..3u8 {
            journal.append(&[i]).unwrap();
        }
        let covered = journal.committed_seq();
        journal.compact_through(covered).unwrap();
        drop(journal);

        let (journal, replay) = Journal::open_after(Box::new(device.clone()), covered).unwrap();
        assert!(replay.records.is_empty());
        let seq = journal.append(b"after").unwrap();
        assert!(seq > covered, "seq {seq} reused at or below the cover {covered}");
        drop(journal);

        let (_, replay) = Journal::open_after(Box::new(device.clone()), covered).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].seq, seq);
    }

    #[test]
    fn append_continues_sequence_after_reopen() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        journal.append(b"one").unwrap();
        drop(journal);
        let (journal, replay) = open_mem(&device);
        assert_eq!(replay.records.len(), 1);
        let seq = journal.append(b"two").unwrap();
        assert_eq!(seq, 2);
        drop(journal);
        let (_, replay) = open_mem(&device);
        assert_eq!(replay.records.len(), 2);
    }

    #[test]
    fn compaction_drops_covered_frames_and_replay_skips_them() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        for i in 0..6u8 {
            journal.append(&[i]).unwrap();
        }
        journal.compact_through(4).unwrap();
        journal.append(&[9]).unwrap();
        drop(journal);

        let (journal, replay) = open_mem(&device);
        let seqs: Vec<u64> = replay.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![5, 6, 7]);
        // Sequence numbering continues from the surviving tail.
        assert_eq!(journal.append(&[1]).unwrap(), 8);
    }

    #[test]
    fn group_commit_batches_concurrent_appends() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        let journal = Arc::new(journal);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let journal = Arc::clone(&journal);
                std::thread::spawn(move || {
                    for i in 0..50u8 {
                        journal.append(&[t as u8, i]).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = journal.stats();
        assert_eq!(stats.appends, 400);
        // Batching may or may not kick in depending on scheduling, but it
        // can never take more syncs than appends.
        assert!(stats.fsyncs <= stats.appends);
        drop(journal);
        let (_, replay) = open_mem(&device);
        assert_eq!(replay.records.len(), 400);
        for (i, r) in replay.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64 + 1);
        }
    }

    #[test]
    fn oversized_payload_is_refused() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        let huge = vec![0u8; MAX_PAYLOAD_LEN + 1];
        assert!(matches!(journal.append(&huge), Err(JournalError::Oversized(_))));
    }

    #[test]
    fn relaxed_append_rides_the_next_committed_batch() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        let rider = journal.append_relaxed(b"audit-rider").unwrap();
        assert_eq!(rider, 1);
        // Not durable yet: nothing has committed it.
        assert_eq!(journal.committed_seq(), 0);
        assert_eq!(journal.stats().fsyncs, 0);

        // The blocking append's batch carries the rider: two records,
        // one sync, both durable.
        let seq = journal.append(b"mutation").unwrap();
        assert_eq!(seq, 2);
        assert_eq!(journal.committed_seq(), 2);
        let stats = journal.stats();
        assert_eq!(stats.appends, 2);
        assert_eq!(stats.fsyncs, 1);

        drop(journal);
        let (_, replay) = open_mem(&device);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[0].payload, b"audit-rider");
        assert_eq!(replay.records[1].payload, b"mutation");
    }

    #[test]
    fn flush_drains_relaxed_riders() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        journal.append_relaxed(b"one").unwrap();
        journal.append_relaxed(b"two").unwrap();
        journal.flush().unwrap();
        assert_eq!(journal.committed_seq(), 2);
        assert_eq!(journal.stats().fsyncs, 1);
        // Flushing with nothing pending is a no-op.
        journal.flush().unwrap();
        assert_eq!(journal.stats().fsyncs, 1);

        drop(journal);
        let (_, replay) = open_mem(&device);
        assert_eq!(replay.records.len(), 2);
    }

    #[test]
    fn unflushed_riders_are_lost_like_a_crash() {
        let device = MemStorage::new();
        let (journal, _) = open_mem(&device);
        journal.append(b"durable").unwrap();
        journal.append_relaxed(b"pending-rider").unwrap();
        drop(journal);
        let (_, replay) = open_mem(&device);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].payload, b"durable");
    }

    #[derive(Debug, Clone)]
    enum Op {
        Append(u8),
        /// Compact through the committed seq (a checkpoint).
        Compact,
        /// Drop the journal and reopen it after the current cover.
        Reopen,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => any::<u8>().prop_map(Op::Append),
            1 => Just(Op::Compact),
            1 => Just(Op::Reopen),
        ]
    }

    proptest! {
        /// Over any interleaving of appends, compactions and reopens,
        /// every returned seq exceeds all earlier seqs and the cover, and
        /// a reopen replays exactly the uncovered records, in order.
        #[test]
        fn seqs_stay_monotonic_across_compaction_and_reopen(
            ops in proptest::collection::vec(arb_op(), 1..40),
        ) {
            let device = MemStorage::new();
            let (mut journal, _) = open_mem(&device);
            let (mut covered, mut last_seq) = (0u64, 0u64);
            let mut uncovered: Vec<ReplayRecord> = Vec::new();
            for op in ops {
                match op {
                    Op::Append(byte) => {
                        let seq = journal.append(&[byte]).unwrap();
                        prop_assert!(seq > last_seq, "seq {} after {}", seq, last_seq);
                        prop_assert!(seq > covered, "seq {} within cover {}", seq, covered);
                        last_seq = seq;
                        uncovered.push(ReplayRecord { seq, payload: vec![byte] });
                    }
                    Op::Compact => {
                        covered = journal.committed_seq();
                        journal.compact_through(covered).unwrap();
                        uncovered.retain(|record| record.seq > covered);
                    }
                    Op::Reopen => {
                        drop(journal);
                        let replay;
                        (journal, replay) =
                            Journal::open_after(Box::new(device.clone()), covered).unwrap();
                        prop_assert_eq!(&replay.records, &uncovered);
                    }
                }
            }
        }
    }
}
