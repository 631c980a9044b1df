//! The GRAM server's durable record taxonomy and durability
//! configuration.
//!
//! The WAL layer ([`gridauthz_journal`]) carries opaque byte payloads;
//! this module defines what GRAM writes into them. One [`JournalRecord`]
//! is appended — and made durable by the group-commit fsync — *before*
//! the wire acknowledgement of every acknowledged state mutation:
//!
//! | record                | mutation it makes durable                    |
//! |-----------------------|----------------------------------------------|
//! | `Submit`              | a job admitted by the local scheduler        |
//! | `Cancel`              | a job cancelled and retired                  |
//! | `Signal`              | suspend / resume / priority change           |
//! | `LeaseGrant`          | a dynamic account leased to a subject (§7)   |
//! | `LeaseRelease`        | a dynamic-account lease returned to the pool |
//! | `SetGridmap`          | an administrative grid-mapfile swap          |
//! | `RevokeCredential`    | one CRL entry loaded into the trust store    |
//! | `Audit`               | one audit record, as the audit ring holds it |
//! | `NextContact`         | snapshot only: the next contact index        |
//!
//! An `Audit` payload is written once, by `encode_audit`, when the
//! request is audited: the server's audit ring keeps those bytes, a
//! durable server journals them as a best-effort rider (an append
//! failure never fails the audited operation), and a checkpoint copies
//! them into the snapshot.
//!
//! A `Cancel` also retires its job: replay drops it, as the live server
//! did. So a snapshot holds only live jobs, and its `NextContact` keeps
//! recovery from reissuing the contact of a job no record names any
//! more. Snapshots written before `NextContact` existed recover without
//! it.
//!
//! Records carry state only, never cache invalidations: each cache's
//! owner invalidates it in memory, and every cache starts empty after a
//! restart. Older journals still recover. Tags 5 and 6 decode their
//! earlier layout and drop its trailing gatekeeper generation. Tags 7
//! (policy reload) and 8 (generation floor) decode to `None`, which
//! recovery skips.
//!
//! The snapshot payload is simply a length-prefixed sequence of these
//! same records re-expressing the server's current state (a *logical*
//! snapshot), so recovery has exactly one apply path: replay the
//! snapshot's records, then the journal tail past the snapshot's
//! covering sequence number.

use std::io;
use std::path::Path;

use gridauthz_clock::SimTime;
use gridauthz_core::Action;
use gridauthz_credential::DistinguishedName;
use gridauthz_journal::{
    ByteReader, ByteWriter, CodecError, FileSnapshotStore, FileStorage, MemSnapshotStore,
    MemStorage, SnapshotStore, Storage,
};

use crate::audit::{AuditOutcome, AuditRecord};
use crate::protocol::GramSignal;

/// One durable mutation of GRAM server state. Field types are wire
/// primitives (strings, integers) rather than domain types so the
/// record codec cannot fail on encode and decodes strictly; conversion
/// to domain types (DN parse, RSL parse) happens during recovery apply,
/// where a failure is a recovery error with context. The exception is
/// `Audit`, which holds the [`AuditRecord`] the server's audit log
/// decodes its stored payloads back into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A job the scheduler admitted and the server acknowledged.
    Submit {
        /// The server's job index (restores the `next_job` counter).
        index: u64,
        /// The full job contact URL handed to the client.
        contact: String,
        /// The owner's distinguished name.
        owner: String,
        /// The job's RSL text, post-substitution (RSL display
        /// round-trips, so replay re-derives the description, jobtag
        /// and sandbox profile from this).
        rsl: String,
        /// The resolved local account.
        account: String,
        /// True when `account` came from the dynamic pool.
        dynamic: bool,
        /// The job's true computation time, microseconds.
        work_micros: u64,
        /// Submission instant, microseconds since epoch.
        at_micros: u64,
    },
    /// A job cancellation the server acknowledged.
    Cancel {
        /// The cancelled job's contact URL.
        contact: String,
        /// Cancellation instant, microseconds since epoch.
        at_micros: u64,
    },
    /// A management signal the server acknowledged.
    Signal {
        /// The signalled job's contact URL.
        contact: String,
        /// The signal delivered.
        signal: GramSignal,
        /// Delivery instant, microseconds since epoch.
        at_micros: u64,
    },
    /// A dynamic-account lease granted to `subject`.
    LeaseGrant {
        /// The leaseholder's distinguished name.
        subject: String,
        /// The leased pool account's name.
        account: String,
        /// Lease expiry, microseconds since epoch.
        expires_micros: u64,
    },
    /// A dynamic-account lease released back to the pool.
    LeaseRelease {
        /// The former leaseholder's distinguished name.
        subject: String,
    },
    /// An administrative grid-mapfile replacement.
    SetGridmap {
        /// Every mapping: subject DN → permitted local accounts.
        entries: Vec<(String, Vec<String>)>,
    },
    /// One CRL entry loaded into the trust store.
    RevokeCredential {
        /// The revoked certificate's issuer DN.
        issuer: String,
        /// The revoked certificate's serial number.
        serial: u64,
    },
    /// One audit record, journaled when it is written. Best-effort: an
    /// audit append failure never fails the audited operation. The
    /// subject is parsed at decode, so a corrupt one is a decode error.
    Audit(AuditRecord),
    /// Snapshot only: the server's next contact index when the snapshot
    /// was taken. Replay raises the counter to at least `index`.
    NextContact {
        /// The next contact index to issue.
        index: u64,
    },
}

const TAG_SUBMIT: u8 = 0;
const TAG_CANCEL: u8 = 1;
const TAG_SIGNAL: u8 = 2;
const TAG_LEASE_GRANT: u8 = 3;
const TAG_LEASE_RELEASE: u8 = 4;
// Tags 5-8 are decode-only, for older journals (see the module docs).
const TAG_LEGACY_SET_GRIDMAP: u8 = 5;
const TAG_LEGACY_REVOKE: u8 = 6;
const TAG_LEGACY_POLICY_RELOAD: u8 = 7;
const TAG_LEGACY_GENERATION: u8 = 8;
const TAG_AUDIT: u8 = 9;
const TAG_SET_GRIDMAP: u8 = 10;
const TAG_REVOKE: u8 = 11;
const TAG_NEXT_CONTACT: u8 = 12;

const SIGNAL_SUSPEND: u8 = 0;
const SIGNAL_RESUME: u8 = 1;
const SIGNAL_PRIORITY: u8 = 2;

impl JournalRecord {
    /// Encodes this record as a journal payload.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            JournalRecord::Submit {
                index,
                contact,
                owner,
                rsl,
                account,
                dynamic,
                work_micros,
                at_micros,
            } => {
                w.u8(TAG_SUBMIT);
                w.u64(*index);
                w.string(contact);
                w.string(owner);
                w.string(rsl);
                w.string(account);
                w.bool(*dynamic);
                w.u64(*work_micros);
                w.u64(*at_micros);
            }
            JournalRecord::Cancel { contact, at_micros } => {
                w.u8(TAG_CANCEL);
                w.string(contact);
                w.u64(*at_micros);
            }
            JournalRecord::Signal { contact, signal, at_micros } => {
                w.u8(TAG_SIGNAL);
                w.string(contact);
                match signal {
                    GramSignal::Suspend => w.u8(SIGNAL_SUSPEND),
                    GramSignal::Resume => w.u8(SIGNAL_RESUME),
                    GramSignal::Priority(p) => {
                        w.u8(SIGNAL_PRIORITY);
                        w.i64(*p);
                    }
                }
                w.u64(*at_micros);
            }
            JournalRecord::LeaseGrant { subject, account, expires_micros } => {
                w.u8(TAG_LEASE_GRANT);
                w.string(subject);
                w.string(account);
                w.u64(*expires_micros);
            }
            JournalRecord::LeaseRelease { subject } => {
                w.u8(TAG_LEASE_RELEASE);
                w.string(subject);
            }
            JournalRecord::SetGridmap { entries } => {
                w.u8(TAG_SET_GRIDMAP);
                w.u32(u32::try_from(entries.len()).unwrap_or(u32::MAX));
                for (subject, accounts) in entries {
                    w.string(subject);
                    w.u32(u32::try_from(accounts.len()).unwrap_or(u32::MAX));
                    for account in accounts {
                        w.string(account);
                    }
                }
            }
            JournalRecord::RevokeCredential { issuer, serial } => {
                w.u8(TAG_REVOKE);
                w.string(issuer);
                w.u64(*serial);
            }
            JournalRecord::Audit(record) => {
                return encode_audit(&AuditFields {
                    at: record.at,
                    subject: &record.subject,
                    action: record.action,
                    job: record.job.as_deref(),
                    account: record.account.as_deref(),
                    refused: match &record.outcome {
                        AuditOutcome::Permitted => None,
                        AuditOutcome::Refused(reason) => Some(reason),
                    },
                    trace_id: record.trace_id,
                    degraded: record.degraded,
                    note: record.note.as_deref(),
                });
            }
            JournalRecord::NextContact { index } => {
                w.u8(TAG_NEXT_CONTACT);
                w.u64(*index);
            }
        }
        w.into_bytes()
    }

    /// Decodes one record from a journal payload, rejecting trailing
    /// bytes. `None` is a retired record (tags 7 and 8) that carries no
    /// state and that recovery skips.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on truncation, trailing bytes, or an unknown tag.
    pub fn decode(bytes: &[u8]) -> Result<Option<JournalRecord>, CodecError> {
        let mut r = ByteReader::new(bytes);
        let record = JournalRecord::decode_from(&mut r)?;
        r.finish()?;
        Ok(record)
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Option<JournalRecord>, CodecError> {
        let tag = r.u8()?;
        Ok(Some(match tag {
            TAG_SUBMIT => JournalRecord::Submit {
                index: r.u64()?,
                contact: r.string()?,
                owner: r.string()?,
                rsl: r.string()?,
                account: r.string()?,
                dynamic: r.bool()?,
                work_micros: r.u64()?,
                at_micros: r.u64()?,
            },
            TAG_CANCEL => JournalRecord::Cancel { contact: r.string()?, at_micros: r.u64()? },
            TAG_SIGNAL => {
                let contact = r.string()?;
                let signal = match r.u8()? {
                    SIGNAL_SUSPEND => GramSignal::Suspend,
                    SIGNAL_RESUME => GramSignal::Resume,
                    SIGNAL_PRIORITY => GramSignal::Priority(r.i64()?),
                    other => {
                        return Err(CodecError(format!("unknown signal tag {other}")));
                    }
                };
                JournalRecord::Signal { contact, signal, at_micros: r.u64()? }
            }
            TAG_LEASE_GRANT => JournalRecord::LeaseGrant {
                subject: r.string()?,
                account: r.string()?,
                expires_micros: r.u64()?,
            },
            TAG_LEASE_RELEASE => JournalRecord::LeaseRelease { subject: r.string()? },
            TAG_SET_GRIDMAP | TAG_LEGACY_SET_GRIDMAP => {
                let count = r.u32()? as usize;
                let mut entries = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let subject = r.string()?;
                    let accounts_len = r.u32()? as usize;
                    let mut accounts = Vec::with_capacity(accounts_len.min(1024));
                    for _ in 0..accounts_len {
                        accounts.push(r.string()?);
                    }
                    entries.push((subject, accounts));
                }
                if tag == TAG_LEGACY_SET_GRIDMAP {
                    r.u64()?;
                }
                JournalRecord::SetGridmap { entries }
            }
            TAG_REVOKE | TAG_LEGACY_REVOKE => {
                let record =
                    JournalRecord::RevokeCredential { issuer: r.string()?, serial: r.u64()? };
                if tag == TAG_LEGACY_REVOKE {
                    r.u64()?;
                }
                record
            }
            TAG_LEGACY_POLICY_RELOAD => return Ok(None),
            TAG_LEGACY_GENERATION => {
                r.u64()?;
                return Ok(None);
            }
            TAG_AUDIT => JournalRecord::Audit(AuditRecord {
                at: SimTime::from_micros(r.u64()?),
                subject: r
                    .string()?
                    .parse()
                    .map_err(|e| CodecError(format!("audit subject: {e}")))?,
                action: action_from_tag(r.u8()?),
                job: r.opt_string()?,
                account: r.opt_string()?,
                outcome: match r.opt_string()? {
                    None => AuditOutcome::Permitted,
                    Some(reason) => AuditOutcome::Refused(reason),
                },
                trace_id: r.opt_u64()?,
                degraded: r.bool()?,
                note: r.opt_string()?,
            }),
            TAG_NEXT_CONTACT => JournalRecord::NextContact { index: r.u64()? },
            other => return Err(CodecError(format!("unknown record tag {other}"))),
        }))
    }
}

/// One audit record's fields, borrowed, for [`encode_audit`].
pub(crate) struct AuditFields<'a> {
    pub at: SimTime,
    pub subject: &'a DistinguishedName,
    pub action: Action,
    pub job: Option<&'a str>,
    pub account: Option<&'a str>,
    /// The refusal's text; `None` for a permit.
    pub refused: Option<&'a str>,
    pub trace_id: Option<u64>,
    pub degraded: bool,
    pub note: Option<&'a str>,
}

/// Encodes one audit record as its journal payload (tag 9, the bytes
/// `JournalRecord::Audit` encodes to) into one buffer sized exactly. The
/// subject is written from its components, so it is never first built
/// as a string.
pub(crate) fn encode_audit(fields: &AuditFields<'_>) -> Vec<u8> {
    let subject = || {
        fields.subject.components().iter().flat_map(|(key, value)| {
            [b"/".as_slice(), key.as_bytes(), b"=".as_slice(), value.as_bytes()]
        })
    };
    let opt_len = |s: Option<&str>| s.map_or(1, |s| 5 + s.len());
    // Tag, instant, subject length prefix, action, degraded.
    let fixed = 1 + 8 + 4 + 1 + 1;
    let capacity = fixed
        + fields.trace_id.map_or(1, |_| 9)
        + subject().map(<[u8]>::len).sum::<usize>()
        + [fields.job, fields.account, fields.refused, fields.note]
            .into_iter()
            .map(opt_len)
            .sum::<usize>();
    let mut w = ByteWriter::with_capacity(capacity);
    w.u8(TAG_AUDIT);
    w.u64(fields.at.as_micros());
    w.concat(subject());
    w.u8(action_tag(fields.action));
    w.opt_string(fields.job);
    w.opt_string(fields.account);
    w.opt_string(fields.refused);
    w.opt_u64(fields.trace_id);
    w.bool(fields.degraded);
    w.opt_string(fields.note);
    debug_assert_eq!(w.len(), capacity, "an audit payload is sized exactly");
    w.into_bytes()
}

/// True when an audit payload (as [`encode_audit`] writes it) records a
/// refusal. It reads only up to the refusal's presence byte, so counting
/// refusals builds no record.
pub(crate) fn audit_is_refusal(payload: &[u8]) -> bool {
    let refused = |r: &mut ByteReader<'_>| -> Result<bool, CodecError> {
        r.u8()?;
        r.u64()?;
        r.bytes()?;
        r.u8()?;
        for _ in 0..2 {
            if r.bool()? {
                r.bytes()?;
            }
        }
        r.bool()
    };
    refused(&mut ByteReader::new(payload)).expect("an audit payload holds a refusal flag")
}

/// An audit record's action tag.
fn action_tag(action: Action) -> u8 {
    match action {
        Action::Start => 0,
        Action::Cancel => 1,
        Action::Information => 2,
        Action::Signal => 3,
    }
}

/// Decodes an audit record's action tag (unknown tags conservatively
/// decode to `Information`, the least privileged action).
fn action_from_tag(tag: u8) -> Action {
    match tag {
        0 => Action::Start,
        1 => Action::Cancel,
        3 => Action::Signal,
        _ => Action::Information,
    }
}

/// Encodes a record sequence as one length-prefixed byte stream — the
/// snapshot payload format.
#[must_use]
pub fn encode_records(records: &[JournalRecord]) -> Vec<u8> {
    let encoded: Vec<Vec<u8>> = records.iter().map(JournalRecord::encode).collect();
    frame_records(0, encoded.iter().map(Vec::as_slice))
}

/// The payload [`encode_records`] writes, built from records that are
/// already encoded (`JournalRecord::encode` of each), with `capacity`
/// bytes reserved up front.
pub(crate) fn frame_records<'a>(
    capacity: usize,
    encoded: impl Iterator<Item = &'a [u8]>,
) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(capacity);
    w.u32(0);
    let mut count = 0u32;
    for record in encoded {
        w.bytes(record);
        count += 1;
    }
    let mut payload = w.into_bytes();
    payload[..4].copy_from_slice(&count.to_le_bytes());
    payload
}

/// Decodes a snapshot payload back into its record sequence, dropping
/// retired records.
///
/// # Errors
///
/// [`CodecError`] on truncation, trailing bytes, or any malformed
/// record.
pub fn decode_records(bytes: &[u8]) -> Result<Vec<JournalRecord>, CodecError> {
    let mut r = ByteReader::new(bytes);
    let count = r.u32()? as usize;
    let mut records = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        records.extend(JournalRecord::decode(r.bytes()?)?);
    }
    r.finish()?;
    Ok(records)
}

/// Where the server journals and snapshots its state.
pub struct DurabilityConfig {
    /// The write-ahead log's backing storage.
    pub storage: Box<dyn Storage>,
    /// The snapshot store compaction writes through.
    pub snapshots: Box<dyn SnapshotStore>,
    /// Checkpoint after this many appends (0 disables automatic
    /// checkpoints; [`crate::GramServer::checkpoint`] still works).
    pub snapshot_every: u64,
}

impl std::fmt::Debug for DurabilityConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityConfig").field("snapshot_every", &self.snapshot_every).finish()
    }
}

impl DurabilityConfig {
    /// File-backed durability under `dir` (created when absent):
    /// `journal.wal` plus `state.snapshot`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and journal-open failures.
    pub fn at_dir(dir: impl AsRef<Path>) -> io::Result<DurabilityConfig> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        Ok(DurabilityConfig {
            storage: Box::new(FileStorage::open(dir.join("journal.wal"))?),
            snapshots: Box::new(FileSnapshotStore::new(dir.join("state.snapshot"))),
            snapshot_every: 1024,
        })
    }

    /// Memory-backed durability (tests, the crash simulator). Clone the
    /// handles first to keep a view of what "disk" retains.
    #[must_use]
    pub fn in_memory(storage: MemStorage, snapshots: MemSnapshotStore) -> DurabilityConfig {
        DurabilityConfig {
            storage: Box::new(storage),
            snapshots: Box::new(snapshots),
            snapshot_every: 1024,
        }
    }

    /// Overrides the automatic-checkpoint threshold.
    #[must_use]
    pub fn snapshot_every(mut self, appends: u64) -> DurabilityConfig {
        self.snapshot_every = appends;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Submit {
                index: 7,
                contact: "gram://r/jobs/7".into(),
                owner: "/O=Grid/CN=Alice".into(),
                rsl: "&(executable=/bin/sim)(count=2)".into(),
                account: "alice".into(),
                dynamic: false,
                work_micros: 1_000_000,
                at_micros: 42,
            },
            JournalRecord::Cancel { contact: "gram://r/jobs/7".into(), at_micros: 43 },
            JournalRecord::Signal {
                contact: "gram://r/jobs/8".into(),
                signal: GramSignal::Priority(-3),
                at_micros: 44,
            },
            JournalRecord::LeaseGrant {
                subject: "/O=Grid/CN=Bob".into(),
                account: "pool0001".into(),
                expires_micros: 99,
            },
            JournalRecord::LeaseRelease { subject: "/O=Grid/CN=Bob".into() },
            JournalRecord::SetGridmap {
                entries: vec![("/O=Grid/CN=Alice".into(), vec!["alice".into(), "ops".into()])],
            },
            JournalRecord::RevokeCredential { issuer: "/O=Grid/CN=CA".into(), serial: 11 },
            JournalRecord::Audit(AuditRecord {
                at: SimTime::from_micros(50),
                subject: "/O=Grid/CN=Alice".parse().unwrap(),
                action: Action::Cancel,
                job: Some("gram://r/jobs/7".into()),
                account: None,
                outcome: AuditOutcome::Refused("denied".into()),
                trace_id: Some(9),
                degraded: true,
                note: None,
            }),
            JournalRecord::NextContact { index: 12 },
        ]
    }

    #[test]
    fn every_variant_round_trips() {
        for record in samples() {
            let bytes = record.encode();
            assert_eq!(JournalRecord::decode(&bytes).unwrap(), Some(record));
        }
    }

    #[test]
    fn record_sequences_round_trip() {
        let records = samples();
        let bytes = encode_records(&records);
        assert_eq!(decode_records(&bytes).unwrap(), records);
    }

    #[test]
    fn decode_rejects_corruption() {
        let mut bytes = samples()[0].encode();
        bytes.push(0);
        assert!(JournalRecord::decode(&bytes).is_err());
        assert!(JournalRecord::decode(&[0xFF]).is_err());
        let mut seq = encode_records(&samples());
        seq.truncate(seq.len() - 1);
        assert!(decode_records(&seq).is_err());
        // The retired records decode just as strictly.
        assert_eq!(JournalRecord::decode(&[TAG_LEGACY_POLICY_RELOAD]).unwrap(), None);
        assert!(JournalRecord::decode(&[TAG_LEGACY_POLICY_RELOAD, 0]).is_err());
        assert!(JournalRecord::decode(&[TAG_LEGACY_GENERATION, 4]).is_err());
    }

    #[test]
    fn action_tags_round_trip() {
        for action in [Action::Start, Action::Cancel, Action::Information, Action::Signal] {
            assert_eq!(action_from_tag(action_tag(action)), action);
        }
        assert_eq!(action_from_tag(200), Action::Information);
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The tag-9 bytes of one permit and one refusal record, as the
    /// encoder before audit records were stored encoded wrote them:
    /// journals and snapshots written then still decode, and the ring's
    /// encodings are what those journals hold.
    #[test]
    fn audit_payloads_match_the_golden_bytes() {
        let permit = AuditRecord {
            at: SimTime::from_micros(1_500_000),
            subject: "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu".parse().unwrap(),
            action: Action::Start,
            job: Some("gram://anl-cluster/jobs/7".into()),
            account: Some("bliu".into()),
            outcome: AuditOutcome::Permitted,
            trace_id: Some(42),
            degraded: false,
            note: None,
        };
        let refusal = AuditRecord {
            at: SimTime::from_micros(2_000_000),
            subject: "/O=Grid/CN=Kate".parse().unwrap(),
            action: Action::Cancel,
            job: Some("gram://anl-cluster/jobs/7".into()),
            account: None,
            outcome: AuditOutcome::Refused("not authorized: denied".into()),
            trace_id: None,
            degraded: true,
            note: Some("breaker open".into()),
        };
        let golden = [
            (
                permit,
                "0960e3160000000000290000002f4f3d477269642f4f3d476c6f6275732f4f553d6d63732e616e\
                 6c2e676f762f434e3d426f204c69750001190000006772616d3a2f2f616e6c2d636c7573746572\
                 2f6a6f62732f370104000000626c697500012a000000000000000000",
            ),
            (
                refusal,
                "0980841e00000000000f0000002f4f3d477269642f434e3d4b6174650101190000006772616d3a\
                 2f2f616e6c2d636c75737465722f6a6f62732f370001160000006e6f7420617574686f72697a65\
                 643a2064656e6965640001010c000000627265616b6572206f70656e",
            ),
        ];
        for (record, bytes) in golden {
            let record = JournalRecord::Audit(record);
            assert_eq!(hex(&record.encode()), bytes);
            let decoded: Vec<u8> = (0..bytes.len() / 2)
                .map(|i| u8::from_str_radix(&bytes[2 * i..2 * i + 2], 16).unwrap())
                .collect();
            assert_eq!(JournalRecord::decode(&decoded).unwrap(), Some(record));
        }
    }

    /// A subject that no longer parses as a distinguished name is a
    /// decode error, which recovery reports as a corrupt record.
    #[test]
    fn audit_decode_rejects_a_corrupt_subject() {
        let mut bytes = samples()[7].encode();
        // The subject's leading '/' sits after the tag, the instant and
        // the length prefix.
        assert_eq!(bytes[13], b'/');
        bytes[13] = b'x';
        let err = JournalRecord::decode(&bytes).unwrap_err();
        assert!(err.0.contains("audit subject"), "{err}");
    }
}
