//! Durability substrate for the GRAM service: an append-only, checksummed,
//! length-prefixed write-ahead log with group-commit batching, torn-tail
//! truncation on open, and periodic snapshot compaction.
//!
//! The paper's companion implementation report (cs/0311025) relies on the
//! job manager recovering managed jobs after failure; this crate supplies
//! the storage half of that contract. It is deliberately *untyped*: the
//! log stores opaque payload byte strings, and the typed record taxonomy
//! (submits, cancels, leases, revocations, audit entries) lives in the
//! `gram` crate, which owns the types those records reference.
//!
//! Layout of one frame (all integers little-endian):
//!
//! ```text
//! +----------------+----------------+----------------+---------...---+
//! | len: u32       | seq: u64       | check: u64     | payload       |
//! +----------------+----------------+----------------+---------...---+
//! ```
//!
//! `check` is the first eight bytes of `sha256(seq_le || payload)`
//! (reusing `credential::sha256`), so a torn or bit-flipped tail is
//! detected and truncated when the journal is reopened. Sequence numbers
//! are assigned at append time and must be contiguous on disk; after
//! snapshot compaction the on-disk tail starts at an arbitrary sequence,
//! which is how replay knows to skip records a snapshot already covers.
//!
//! The [`crashsim`] module provides the deterministic fault-injection
//! layer (`FaultDisk`/`FaultFile`, SplitMix64-seeded) used by the
//! crash-point torture matrix in `gram::crashsim`.

pub mod codec;
pub mod crashsim;
pub mod snapshot;
pub mod storage;
pub mod wal;

pub use codec::{ByteReader, ByteWriter, CodecError};
pub use crashsim::{CrashMode, CrashRng, FaultDisk, FaultFile, FaultPlan};
pub use snapshot::{FileSnapshotStore, MemSnapshotStore, SnapshotBlob, SnapshotStore};
pub use storage::{FileStorage, MemStorage, Storage};
pub use wal::{Journal, JournalError, JournalStats, Replay, ReplayRecord, FRAME_HEADER_LEN};
