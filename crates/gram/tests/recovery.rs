//! Crash-recovery integration tests: the headline regression (an
//! acknowledged submit survives a crash and stays manageable), the
//! lease-table reconciliation rule, audit-trail and revocation
//! durability, recovery of journals in the earlier record format,
//! snapshot coverage of non-initial job states, contacts of retired
//! jobs never being reissued, jobs replayed out of index order staying
//! sweepable, a server on the file-backed devices recovering across
//! checkpoints, recovery refusing a corrupt snapshot, recovery from a
//! snapshot whose journal was never compacted, a property
//! test of the WAL's longest-checksummed-prefix contract, and a small
//! sweep of the deterministic crash-point torture matrix.

use gridauthz_clock::{SimClock, SimDuration, SimTime};
use gridauthz_core::Action;
use gridauthz_credential::{
    Certificate, CertificateAuthority, Credential, GridMapEntry, GridMapFile, TrustStore,
};
use gridauthz_enforcement::DynamicAccountPool;
use gridauthz_gram::crashsim::{run_matrix, CrashWorld};
use gridauthz_gram::{
    AuditOutcome, AuditRecord, DurabilityConfig, GramError, GramServerBuilder, GramSignal,
    JournalRecord,
};
use gridauthz_journal::{
    ByteWriter, CrashMode, FaultDisk, FaultPlan, Journal, MemSnapshotStore, MemStorage,
    SnapshotBlob, SnapshotStore,
};
use gridauthz_scheduler::JobState;
use proptest::prelude::*;

const RSL: &str = "&(executable = transp)(directory = /sandbox/run)(count = 1)";

/// The fixed cast: Alice is grid-mapped, Bob is unmapped and leases a
/// dynamic account.
struct World {
    clock: SimClock,
    ca_certificate: Certificate,
    alice: Credential,
    bob: Credential,
}

impl World {
    fn new() -> World {
        let clock = SimClock::new();
        let ca = CertificateAuthority::new_root("/O=Grid/CN=Recovery CA", &clock).unwrap();
        let day = SimDuration::from_hours(24);
        let alice = ca.issue_identity("/O=Grid/CN=Alice", day).unwrap();
        let bob = ca.issue_identity("/O=Grid/CN=Bob", day).unwrap();
        World { clock, ca_certificate: ca.certificate().clone(), alice, bob }
    }

    /// The deployment configuration every recovery starts from; state
    /// beyond it must come back from the journal.
    fn builder(&self) -> GramServerBuilder {
        let mut trust = TrustStore::new();
        trust.add_anchor(self.ca_certificate.clone());
        let mut gridmap = GridMapFile::new();
        gridmap.insert(GridMapEntry::new(
            self.alice.certificate().subject().clone(),
            vec!["alice".into()],
        ));
        GramServerBuilder::new("recovery-site", &self.clock)
            .trust(trust)
            .gridmap(gridmap)
            .dynamic_accounts(DynamicAccountPool::new(
                "grid",
                2,
                60_000,
                SimDuration::from_hours(8),
            ))
    }
}

fn config(disk: &FaultDisk, snapshots: &MemSnapshotStore) -> DurabilityConfig {
    DurabilityConfig {
        storage: Box::new(disk.storage()),
        snapshots: Box::new(snapshots.clone()),
        snapshot_every: 0,
    }
}

fn mins(n: u64) -> SimDuration {
    SimDuration::from_mins(n)
}

/// Decodes every record the platter kept, skipping any snapshot.
fn durable_records(disk: &FaultDisk) -> Vec<JournalRecord> {
    let survivor = FaultDisk::from_bytes(disk.durable_bytes());
    let (_, replay) = Journal::open(Box::new(survivor.storage())).unwrap();
    replay
        .records
        .iter()
        .filter_map(|frame| JournalRecord::decode(&frame.payload).unwrap())
        .collect()
}

/// The headline regression: a submit the client saw acknowledged is
/// still there after the machine dies and recovers — present, in a live
/// state, and cancelable by its owner (which retires it). Without
/// write-ahead journaling before the acknowledgement this cannot hold:
/// the restarted server would come up empty.
#[test]
fn acknowledged_submit_survives_crash_and_stays_cancelable() {
    let world = World::new();
    let disk = FaultDisk::new(None);
    let snapshots = MemSnapshotStore::new();
    let server = world.builder().recover(config(&disk, &snapshots)).unwrap();
    let contact = server.submit(world.alice.chain(), RSL, None, mins(30)).unwrap();
    // The machine dies after the ACK: drop the process, keep only what
    // the platter synced.
    drop(server);

    let survivor = FaultDisk::from_bytes(disk.durable_bytes());
    let recovered = world.builder().recover(config(&survivor, &snapshots)).unwrap();
    assert!(recovered.job_exists(&contact), "acknowledged job lost across the crash");
    assert!(!recovered.job_state(&contact).unwrap().is_terminal(), "live job recovered terminal");
    recovered.cancel(world.alice.chain(), &contact).unwrap();
    assert!(!recovered.job_exists(&contact), "a cancelled job is retired");
    assert_eq!(recovered.job_count(), 0);
}

/// A submit that dies inside the commit barrier is refused, and the
/// refusal is honest: no phantom job exists after recovery, in any
/// crash mode.
#[test]
fn unacknowledged_submit_leaves_no_phantom() {
    let world = World::new();
    for mode in CrashMode::ALL {
        let disk = FaultDisk::new(Some(FaultPlan { crash_after_syncs: 0, mode, seed: 9 }));
        let snapshots = MemSnapshotStore::new();
        let server = world.builder().recover(config(&disk, &snapshots)).unwrap();
        let refusal = server.submit(world.alice.chain(), RSL, None, mins(30));
        assert!(
            matches!(
                &refusal,
                Err(GramError::AuthorizationSystemFailure(msg)) if msg.starts_with("durability:")
            ),
            "submit at a dead barrier must refuse with a durability failure, got {refusal:?}"
        );
        drop(server);

        let survivor = FaultDisk::from_bytes(disk.durable_bytes());
        let recovered = world.builder().recover(config(&survivor, &snapshots)).unwrap();
        assert_eq!(recovered.job_count(), 0, "phantom job after {} crash", mode.as_str());
    }
}

/// The classic allocate-then-crash leak (§4.3 dynamic accounts): the
/// lease grant's barrier completes, the machine dies before the job's
/// own record syncs. Recovery must reconcile — the grant is durable but
/// backs no job, so the account returns to the pool, and the next
/// lease is a single fresh grant, not a double allocation.
#[test]
fn lease_grant_without_job_is_reclaimed_not_leaked() {
    let world = World::new();
    // Sync 0 is Bob's LeaseGrant; the crash fires during sync 1, the
    // Submit record's own barrier.
    let disk =
        FaultDisk::new(Some(FaultPlan { crash_after_syncs: 1, mode: CrashMode::Kill, seed: 3 }));
    let snapshots = MemSnapshotStore::new();
    let server = world.builder().recover(config(&disk, &snapshots)).unwrap();
    let refusal = server.submit(world.bob.chain(), RSL, None, mins(30));
    assert!(refusal.is_err(), "the submit died at its own barrier");
    drop(server);

    // The platter kept exactly the grant — the window under test.
    let kept = durable_records(&disk);
    assert!(
        kept.iter().any(|r| matches!(r, JournalRecord::LeaseGrant { .. })),
        "lease grant must be durable: {kept:?}"
    );
    assert!(
        !kept.iter().any(|r| matches!(r, JournalRecord::Submit { .. })),
        "submit must not be durable: {kept:?}"
    );

    let survivor = FaultDisk::from_bytes(disk.durable_bytes());
    let recovered = world.builder().recover(config(&survivor, &snapshots)).unwrap();
    assert_eq!(recovered.job_count(), 0);
    assert_eq!(
        recovered.active_lease_count(),
        Some(0),
        "orphaned lease must be reclaimed at recovery"
    );
    // Bob retries on the recovered server: one job, one lease.
    recovered.submit(world.bob.chain(), RSL, None, mins(30)).unwrap();
    assert_eq!(recovered.job_count(), 1);
    assert_eq!(recovered.active_lease_count(), Some(1), "retry must not double-grant");
}

/// An acknowledged revocation survives the crash: the revoked chain
/// fails authentication on the recovered server even though the
/// builder's trust store never saw the CRL entry.
#[test]
fn acknowledged_revocation_outlives_crash() {
    let world = World::new();
    let disk = FaultDisk::new(None);
    let snapshots = MemSnapshotStore::new();
    let server = world.builder().recover(config(&disk, &snapshots)).unwrap();
    let contact = server.submit(world.alice.chain(), RSL, None, mins(30)).unwrap();
    let issuer = world.bob.certificate().issuer().clone();
    server.revoke_credential(&issuer, world.bob.certificate().serial()).unwrap();
    drop(server);

    let survivor = FaultDisk::from_bytes(disk.durable_bytes());
    let recovered = world.builder().recover(config(&survivor, &snapshots)).unwrap();
    assert!(matches!(
        recovered.status(world.bob.chain(), &contact),
        Err(GramError::AuthenticationFailed(_))
    ));
    // Alice is untouched by Bob's revocation.
    assert!(recovered.status(world.alice.chain(), &contact).is_ok());
}

/// The audit trail is journaled as it is written, so the recovered
/// server still answers "who asked for what" about decisions made
/// before the crash — including refusals. The recovered trail equals
/// the live one record for record, after a clean restart and after a
/// checkpoint followed by more audited requests.
#[test]
fn audit_trail_survives_recovery() {
    let world = World::new();
    let disk = FaultDisk::new(None);
    let snapshots = MemSnapshotStore::new();
    let server = world.builder().recover(config(&disk, &snapshots)).unwrap();
    let contact = server.submit(world.alice.chain(), RSL, None, mins(30)).unwrap();
    // Bob (unmapped) is refused; the refusal is audited too.
    assert!(server.cancel(world.bob.chain(), &contact).is_err());
    let live = server.audit_snapshot();
    drop(server);

    let restarted = FaultDisk::from_bytes(disk.durable_bytes());
    let recovered = world.builder().recover(config(&restarted, &snapshots)).unwrap();
    let after = recovered.audit_snapshot();
    assert_eq!(after, live, "audit trail changed by a clean restart");
    assert!(after
        .iter()
        .any(|r| r.subject == *world.alice.certificate().subject() && r.outcome.is_permitted()));
    assert!(after.iter().any(|r| !r.outcome.is_permitted()), "refusal lost from audit trail");
    assert_eq!(recovered.audit_refusal_count(), 1);

    // The snapshot carries the ring; the journal tail carries what was
    // audited after it.
    recovered.checkpoint().unwrap();
    recovered.status(world.alice.chain(), &contact).unwrap();
    assert!(recovered.cancel(world.bob.chain(), &contact).is_err());
    let live = recovered.audit_snapshot();
    assert_eq!(live.len(), after.len() + 2);
    drop(recovered);

    let restarted = FaultDisk::from_bytes(restarted.durable_bytes());
    let recovered = world.builder().recover(config(&restarted, &snapshots)).unwrap();
    assert_eq!(recovered.audit_snapshot(), live, "audit trail changed across a checkpoint");
    assert_eq!(recovered.audit_refusal_count(), 2);
}

/// A suspended job recovers suspended even when a checkpoint compacted
/// the suspend's journal record away: the logical snapshot re-expresses
/// the suspension, not just the submit.
#[test]
fn suspended_job_recovers_suspended_across_checkpoint() {
    let world = World::new();
    let disk = FaultDisk::new(None);
    let snapshots = MemSnapshotStore::new();
    let server = world.builder().recover(config(&disk, &snapshots)).unwrap();
    let contact = server.submit(world.alice.chain(), RSL, None, mins(30)).unwrap();
    server.signal(world.alice.chain(), &contact, GramSignal::Suspend).unwrap();
    // Compact: the Signal record is dropped from the journal; only the
    // snapshot can carry the suspension across the crash now.
    server.checkpoint().unwrap();
    drop(server);

    let survivor = FaultDisk::from_bytes(disk.durable_bytes());
    let recovered = world.builder().recover(config(&survivor, &snapshots)).unwrap();
    assert!(
        matches!(recovered.job_state(&contact), Some(JobState::Suspended { .. })),
        "suspension lost across checkpointed recovery: {:?}",
        recovered.job_state(&contact)
    );
    // And it resumes, proving the recovered scheduler state is live.
    recovered.signal(world.alice.chain(), &contact, GramSignal::Resume).unwrap();
    assert!(matches!(recovered.job_state(&contact), Some(JobState::Running { .. })));
}

/// Cancelled jobs are retired, and a checkpoint taken after their
/// cancels names none of them. Recovery must still issue the next
/// contact above theirs: the snapshot's `NextContact` record carries the
/// counter. A snapshot written before that record existed still
/// recovers, with each terminal job as `Submit` then `Cancel`; replay
/// retires those jobs and raises the counter past their indices.
#[test]
fn retired_contacts_are_never_reissued_after_recovery() {
    let world = World::new();
    let storage = MemStorage::new();
    let snapshots = MemSnapshotStore::new();
    let durable = || {
        world
            .builder()
            .recover(
                DurabilityConfig::in_memory(storage.clone(), snapshots.clone()).snapshot_every(0),
            )
            .unwrap()
    };
    let server = durable();
    let contacts: Vec<_> =
        (0..3).map(|_| server.submit(world.alice.chain(), RSL, None, mins(30)).unwrap()).collect();
    for contact in &contacts {
        server.cancel(world.alice.chain(), contact).unwrap();
        let refusal = server.status(world.alice.chain(), contact);
        assert!(matches!(refusal, Err(GramError::UnknownJob(_))), "{refusal:?}");
    }
    assert_eq!(server.job_count(), 0);
    server.checkpoint().unwrap();
    drop(server);

    let blob = snapshots.clone().load().unwrap().expect("checkpoint saved a snapshot");
    let records = gridauthz_gram::journal::decode_records(&blob.payload).unwrap();
    assert!(!records.iter().any(|r| matches!(r, JournalRecord::Submit { .. })), "{records:?}");
    assert!(records.contains(&JournalRecord::NextContact { index: 4 }), "{records:?}");

    let recovered = durable();
    assert_eq!(recovered.job_count(), 0);
    let next = recovered.submit(world.alice.chain(), RSL, None, mins(30)).unwrap();
    assert_eq!(next.index(), Some(4), "a retired contact was reissued");

    // The same history as an older snapshot: Submit + Cancel per job.
    let legacy: Vec<JournalRecord> = contacts
        .iter()
        .flat_map(|contact| {
            [
                JournalRecord::Submit {
                    index: contact.index().unwrap(),
                    contact: contact.as_str().to_string(),
                    owner: world.alice.certificate().subject().to_string(),
                    rsl: RSL.to_string(),
                    account: "alice".into(),
                    dynamic: false,
                    work_micros: mins(30).as_micros(),
                    at_micros: 0,
                },
                JournalRecord::Cancel { contact: contact.as_str().to_string(), at_micros: 0 },
            ]
        })
        .collect();
    let mut old_snapshots = MemSnapshotStore::new();
    let payload = gridauthz_gram::journal::encode_records(&legacy);
    old_snapshots.save(&SnapshotBlob { covers_seq: 0, payload }).unwrap();
    let config = DurabilityConfig::in_memory(MemStorage::new(), old_snapshots).snapshot_every(0);
    let recovered = world.builder().recover(config).unwrap();
    assert_eq!(recovered.job_count(), 0, "replayed cancels retire their jobs");
    let next = recovered.submit(world.alice.chain(), RSL, None, mins(30)).unwrap();
    assert_eq!(next.index(), Some(4));
}

/// The production devices end to end: a server on a preallocated file
/// journal and a file snapshot store checkpoints several times (each
/// compaction renames a fresh zero-filled file over the journal), dies
/// with a tail past the last checkpoint, and recovers every live job
/// from the directory alone.
#[test]
fn file_backed_server_recovers_across_checkpoints() {
    let world = World::new();
    let dir =
        std::env::temp_dir().join(format!("gridauthz-recovery-file-backed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = || {
        let config = DurabilityConfig::at_dir(&dir).unwrap().snapshot_every(3);
        world.builder().recover(config).unwrap()
    };
    let server = durable();
    let contacts: Vec<_> =
        (0..8).map(|_| server.submit(world.alice.chain(), RSL, None, mins(30)).unwrap()).collect();
    for contact in &contacts[..3] {
        server.cancel(world.alice.chain(), contact).unwrap();
    }
    drop(server);
    let journal_len = std::fs::metadata(dir.join("journal.wal")).unwrap().len();
    assert_eq!(journal_len % gridauthz_journal::storage::PREALLOC_CHUNK, 0, "{journal_len}");

    let recovered = durable();
    assert_eq!(recovered.job_count(), 5);
    for contact in &contacts[3..] {
        assert!(recovered.job_exists(contact), "{} lost", contact.as_str());
    }
    let next = recovered.submit(world.alice.chain(), RSL, None, mins(30)).unwrap();
    assert_eq!(next.index(), Some(9), "a contact was reissued");
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot damaged after it was saved fails recovery closed: the
/// checkpoint emptied the journal of the five jobs it covered, so a
/// recovery that went on without the snapshot would come back with the
/// sixth job alone. Restoring the intact bytes recovers all six.
#[test]
fn corrupt_snapshot_fails_recovery_closed() {
    let world = World::new();
    let dir = std::env::temp_dir()
        .join(format!("gridauthz-recovery-corrupt-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable =
        || world.builder().recover(DurabilityConfig::at_dir(&dir).unwrap().snapshot_every(0));
    let server = durable().unwrap();
    for _ in 0..5 {
        server.submit(world.alice.chain(), RSL, None, mins(30)).unwrap();
    }
    server.checkpoint().unwrap();
    server.submit(world.alice.chain(), RSL, None, mins(30)).unwrap();
    drop(server);

    let path = dir.join("state.snapshot");
    let intact = std::fs::read(&path).unwrap();
    let mut flipped = intact.clone();
    let middle = flipped.len() / 2;
    flipped[middle] ^= 0x01;
    std::fs::write(&path, &flipped).unwrap();
    match durable() {
        Err(GramError::AuthorizationSystemFailure(detail)) => {
            assert!(detail.contains("snapshot"), "{detail}");
        }
        Err(other) => panic!("unexpected error {other}"),
        Ok(server) => panic!("recovered {} jobs from a corrupt snapshot", server.job_count()),
    }

    std::fs::write(&path, &intact).unwrap();
    assert_eq!(durable().unwrap().job_count(), 6);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The four record layouts the generation-journaling format wrote:
/// grid-map (tag 5) and revocation (tag 6) with a trailing gatekeeper
/// generation, policy reload (tag 7) and generation floor (tag 8).
fn legacy_frames(gridmap: &[(&Credential, &str)], revoked: &Credential) -> Vec<Vec<u8>> {
    let mut set_gridmap = ByteWriter::new();
    set_gridmap.u8(5);
    set_gridmap.u32(gridmap.len() as u32);
    for (credential, account) in gridmap {
        set_gridmap.string(&credential.certificate().subject().to_string());
        set_gridmap.u32(1);
        set_gridmap.string(account);
    }
    set_gridmap.u64(7);
    let mut revoke = ByteWriter::new();
    revoke.u8(6);
    revoke.string(&revoked.certificate().issuer().to_string());
    revoke.u64(revoked.certificate().serial());
    revoke.u64(8);
    let mut floor = ByteWriter::new();
    floor.u8(8);
    floor.u64(8);
    vec![set_gridmap.into_bytes(), revoke.into_bytes(), vec![7], floor.into_bytes()]
}

/// A snapshot and a journal tail written in the earlier record format
/// still recover: the grid-map and both revocations come back, and the
/// retired records are skipped. A checkpoint rewrites them in the
/// current format, which recovers to the same state.
#[test]
fn legacy_generation_records_still_recover() {
    let clock = SimClock::new();
    let ca = CertificateAuthority::new_root("/O=Grid/CN=Legacy CA", &clock).unwrap();
    let day = SimDuration::from_hours(24);
    let [alice, bob, carol, dave] = ["Alice", "Bob", "Carol", "Dave"]
        .map(|name| ca.issue_identity(&format!("/O=Grid/CN={name}"), day).unwrap());
    let builder = || {
        let mut trust = TrustStore::new();
        trust.add_anchor(ca.certificate().clone());
        let mut gridmap = GridMapFile::new();
        for (credential, account) in
            [(&alice, "alice"), (&bob, "bob"), (&carol, "carol"), (&dave, "dave")]
        {
            gridmap.insert(GridMapEntry::new(
                credential.certificate().subject().clone(),
                vec![account.into()],
            ));
        }
        GramServerBuilder::new("legacy-site", &clock).trust(trust).gridmap(gridmap)
    };

    // The snapshot revokes Carol; the journal tail then maps everyone
    // but Dave and revokes Bob.
    let mut snapshot = ByteWriter::new();
    let snapshot_records = legacy_frames(&[(&alice, "alice")], &carol);
    snapshot.u32(snapshot_records.len() as u32);
    for record in &snapshot_records {
        snapshot.bytes(record);
    }
    let mut snapshots = MemSnapshotStore::new();
    snapshots.save(&SnapshotBlob { covers_seq: 0, payload: snapshot.into_bytes() }).unwrap();
    let storage = MemStorage::new();
    let (journal, _) = Journal::open(Box::new(storage.clone())).unwrap();
    for frame in legacy_frames(&[(&alice, "alice"), (&bob, "bob"), (&carol, "carol")], &bob) {
        journal.append(&frame).unwrap();
    }
    drop(journal);

    let check = |server: &gridauthz_gram::GramServer| {
        server.submit(alice.chain(), RSL, None, mins(30)).unwrap();
        for revoked in [&bob, &carol] {
            let refusal = server.submit(revoked.chain(), RSL, None, mins(30));
            assert!(matches!(refusal, Err(GramError::AuthenticationFailed(_))), "{refusal:?}");
        }
        let refusal = server.submit(dave.chain(), RSL, None, mins(30));
        assert!(matches!(refusal, Err(GramError::GridMapDenied(_))), "{refusal:?}");
    };
    let server = builder()
        .recover(DurabilityConfig::in_memory(storage.clone(), snapshots.clone()))
        .expect("legacy records recover");
    check(&server);
    server.checkpoint().unwrap();
    drop(server);
    let recovered =
        builder().recover(DurabilityConfig::in_memory(storage, snapshots)).expect("re-recovers");
    check(&recovered);
}

/// Replay submits jobs in journal order, which with concurrent lanes is
/// not index order. A journal tail holding two jobs of one tag in
/// descending index order recovers to a tag index a VO-wide sweep can
/// retire both jobs from, and the next contact is above both.
#[test]
fn jobs_replayed_out_of_index_order_stay_sweepable() {
    let world = World::new();
    let tagged = "&(executable = transp)(directory = /sandbox/run)(jobtag = NFC)(count = 1)";
    let storage = MemStorage::new();
    let (journal, _) = Journal::open(Box::new(storage.clone())).unwrap();
    for index in [6, 5] {
        let submit = JournalRecord::Submit {
            index,
            contact: format!("gram://recovery-site/jobs/{index}"),
            owner: world.alice.certificate().subject().to_string(),
            rsl: tagged.to_string(),
            account: "alice".into(),
            dynamic: false,
            work_micros: mins(30).as_micros(),
            at_micros: 0,
        };
        journal.append(&submit.encode()).unwrap();
    }
    drop(journal);

    let config = DurabilityConfig::in_memory(storage, MemSnapshotStore::new()).snapshot_every(0);
    let recovered = world.builder().recover(config).unwrap();
    assert_eq!(recovered.jobs_with_tag("NFC").len(), 2);
    let swept = recovered.cancel_by_tag(world.alice.chain(), "NFC").unwrap();
    assert_eq!(swept.len(), 2);
    assert!(swept.iter().all(|(_, outcome)| outcome.is_ok()), "{swept:?}");
    assert!(recovered.jobs_with_tag("NFC").is_empty());
    assert_eq!(recovered.job_count(), 0);
    let next = recovered.submit(world.alice.chain(), RSL, None, mins(30)).unwrap();
    assert_eq!(next.index(), Some(7));
}

/// The full torture matrix — every durability barrier × every crash
/// mode × 25 seeds, replaying the whole journal and with mid-workload
/// checkpoints at two cadences.
#[test]
fn crash_matrix_smoke_holds_all_invariants() {
    let seeds: Vec<u64> = (1..=25).collect();
    let world = CrashWorld::new();
    for snapshot_every in [0, 5, 6] {
        let report = run_matrix(&world, &seeds, snapshot_every);
        assert!(report.crashes > 0, "the sweep must actually crash");
        assert_eq!(
            report.violations,
            Vec::<String>::new(),
            "invariant violations (snapshot_every={snapshot_every})"
        );
    }
}

// ---------------------------------------------------------------------
// A recovered server equals the live one, for every mutation kind.
// ---------------------------------------------------------------------

/// Where a recovery-equivalence run checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Checkpoint {
    Never,
    MidRun,
    AtEnd,
}

/// The cast of the recovery-equivalence test: Alice is grid-mapped, Bob
/// is unmapped (a dynamic account, later revoked) and Carol is mapped
/// only by the script's grid-map swap.
struct MutationWorld {
    clock: SimClock,
    ca_certificate: Certificate,
    alice: Credential,
    bob: Credential,
    carol: Credential,
}

/// Contacts the script issues (1–7) plus the next one (8).
const ISSUED: u64 = 8;

impl MutationWorld {
    fn new() -> MutationWorld {
        let clock = SimClock::new();
        let ca = CertificateAuthority::new_root("/O=Grid/CN=Equivalence CA", &clock).unwrap();
        let day = SimDuration::from_hours(24);
        let [alice, bob, carol] =
            ["Alice", "Bob", "Carol"].map(|n| ca.issue_identity(&format!("/O=Grid/CN={n}"), day));
        MutationWorld {
            clock,
            ca_certificate: ca.certificate().clone(),
            alice: alice.unwrap(),
            bob: bob.unwrap(),
            carol: carol.unwrap(),
        }
    }

    fn gridmap(&self, mapped: &[(&Credential, &str)]) -> GridMapFile {
        let mut gridmap = GridMapFile::new();
        for (credential, account) in mapped {
            gridmap.insert(GridMapEntry::new(
                credential.certificate().subject().clone(),
                vec![account.to_string()],
            ));
        }
        gridmap
    }

    /// A durable server over `storage` and `snapshots`, with automatic
    /// checkpoints off so each run checkpoints exactly where it says.
    fn durable(
        &self,
        storage: &MemStorage,
        snapshots: &MemSnapshotStore,
    ) -> gridauthz_gram::GramServer {
        let mut trust = TrustStore::new();
        trust.add_anchor(self.ca_certificate.clone());
        GramServerBuilder::new("equivalence-site", &self.clock)
            .trust(trust)
            .gridmap(self.gridmap(&[(&self.alice, "alice")]))
            .dynamic_accounts(DynamicAccountPool::new(
                "grid",
                2,
                60_000,
                SimDuration::from_hours(8),
            ))
            .recover(
                DurabilityConfig::in_memory(storage.clone(), snapshots.clone()).snapshot_every(0),
            )
            .unwrap()
    }

    /// Every journaled mutation kind plus refused requests, issuing
    /// contacts 1–7: a static (1) and a dynamic (2) submit, a
    /// multi-request whose second part no cluster can hold (3 is
    /// admitted, then rolled back), suspend/resume/priority/suspend on 1,
    /// a cancel (4), a tag sweep over 5 and 6, refused management by
    /// Bob, a grid-map swap that maps Carol, Carol's submit (7), and
    /// Bob's revocation.
    fn drive(&self, server: &gridauthz_gram::GramServer, checkpoint: Checkpoint) {
        let alice = self.alice.chain();
        let j1 = server.submit(alice, RSL, None, mins(30)).unwrap();
        server.submit(self.bob.chain(), RSL, None, mins(30)).unwrap();
        let multi = format!("+({RSL})(&(executable = transp)(count = 4096))");
        assert!(server.submit_multi(alice, &multi, &[mins(30), mins(30)]).is_err());
        for signal in
            [GramSignal::Suspend, GramSignal::Resume, GramSignal::Priority(7), GramSignal::Suspend]
        {
            server.signal(alice, &j1, signal).unwrap();
        }
        let j4 = server.submit(alice, RSL, None, mins(30)).unwrap();
        server.cancel(alice, &j4).unwrap();
        let tagged = format!("{RSL}(jobtag = nfc)");
        for _ in 0..2 {
            server.submit(alice, &tagged, None, mins(30)).unwrap();
        }
        let swept = server.cancel_by_tag(alice, "nfc").unwrap();
        assert_eq!(swept.len(), 2);
        assert!(swept.iter().all(|(_, outcome)| outcome.is_ok()), "{swept:?}");
        if checkpoint == Checkpoint::MidRun {
            server.checkpoint().unwrap();
        }
        assert!(server.cancel(self.bob.chain(), &j1).is_err());
        assert!(server.signal(self.bob.chain(), &j1, GramSignal::Resume).is_err());
        server
            .set_gridmap(self.gridmap(&[(&self.alice, "alice"), (&self.carol, "carol")]))
            .unwrap();
        server.submit(self.carol.chain(), RSL, None, mins(30)).unwrap();
        server
            .revoke_credential(self.bob.certificate().issuer(), self.bob.certificate().serial())
            .unwrap();
        if checkpoint == Checkpoint::AtEnd {
            server.checkpoint().unwrap();
        }
    }

    /// What the test compares. The audit trail is read first, because
    /// the status probes add to it; the next submit comes last.
    fn observe(&self, server: &gridauthz_gram::GramServer) -> Observed {
        let audit = server.audit_snapshot();
        let contacts: Vec<gridauthz_gram::JobContact> = (1..=ISSUED)
            .map(|i| {
                gridauthz_gram::JobContact::from_wire(&format!("gram://equivalence-site/jobs/{i}"))
            })
            .collect();
        let states = contacts
            .iter()
            .map(|contact| {
                let class = match server.job_state(contact) {
                    None => "missing",
                    Some(JobState::Suspended { .. }) => "suspended",
                    Some(state) if state.is_terminal() => "terminal",
                    Some(_) => "live",
                };
                (server.job_exists(contact), class)
            })
            .collect();
        let reports = contacts
            .iter()
            .flat_map(|contact| {
                [&self.alice, &self.bob, &self.carol].map(|caller| {
                    server
                        .status(caller.chain(), contact)
                        .map(|report| (report.owner.to_string(), report.jobtag, report.account))
                        .map_err(|e| e.to_string())
                })
            })
            .collect();
        let jobs = server.job_count();
        let leases = server.active_lease_count();
        let next = server.submit(self.carol.chain(), RSL, None, mins(30)).unwrap();
        let account = server.status(self.carol.chain(), &next).unwrap().account;
        Observed { audit, jobs, states, leases, reports, next: (next.as_str().into(), account) }
    }
}

/// A status report's owner, jobtag and account, or the refusal.
type Report = Result<(String, Option<String>, String), String>;

/// One server's observable state, as [`MutationWorld::observe`] reads it.
#[derive(Debug, PartialEq)]
struct Observed {
    audit: Vec<gridauthz_gram::AuditRecord>,
    jobs: usize,
    /// Per contact: whether the server holds the job, and its state class.
    states: Vec<(bool, &'static str)>,
    leases: Option<usize>,
    /// Per contact and per caller (Alice, Bob, Carol).
    reports: Vec<Report>,
    /// Carol's next submit: its contact and the account it mapped to.
    next: (String, String),
}

/// A recovered server equals the live one after every mutation kind —
/// submits, a multi-request rollback, signals, a cancel, a tag sweep,
/// grid-map swap, revocation and refused requests — whether it recovers
/// from the journal alone, from a mid-run checkpoint plus tail, or from
/// a final checkpoint. The script is deterministic (the clock never
/// moves and trace ids count from 1 per server), so one run is observed
/// live and identical runs are recovered.
#[test]
fn recovered_server_equals_the_live_one_for_every_mutation_kind() {
    let world = MutationWorld::new();
    let live = world.durable(&MemStorage::new(), &MemSnapshotStore::new());
    world.drive(&live, Checkpoint::Never);
    let expected = world.observe(&live);
    // The rolled-back multi-request part (3), the cancel (4) and the
    // sweep (5, 6) retired their jobs.
    assert_eq!(
        expected.states,
        [
            (true, "suspended"),
            (true, "live"),
            (false, "missing"),
            (false, "missing"),
            (false, "missing"),
            (false, "missing"),
            (true, "live"),
            (false, "missing"),
        ]
    );
    assert_eq!(expected.jobs, 3);
    assert_eq!(expected.leases, Some(1));
    assert_eq!(expected.next, ("gram://equivalence-site/jobs/8".into(), "carol".into()));
    assert!(expected
        .reports
        .iter()
        .skip(1)
        .step_by(3)
        .all(|bob| bob.as_ref().is_err_and(|e| e.starts_with("authentication failed"))));
    assert!(expected.audit.iter().any(|record| !record.outcome.is_permitted()));

    for checkpoint in [Checkpoint::Never, Checkpoint::MidRun, Checkpoint::AtEnd] {
        let storage = MemStorage::new();
        let snapshots = MemSnapshotStore::new();
        let server = world.durable(&storage, &snapshots);
        world.drive(&server, checkpoint);
        assert_eq!(server.audit_snapshot(), expected.audit, "{checkpoint:?} run diverged");
        drop(server);
        assert_eq!(snapshots.has_snapshot(), checkpoint != Checkpoint::Never);
        let recovered = world.durable(&storage, &snapshots);
        assert_eq!(world.observe(&recovered), expected, "recovered after {checkpoint:?}");
    }
}

/// A crash after the snapshot's rename and before the journal's leaves
/// the frames the snapshot covers on the device. Recovery applies the
/// snapshot and skips every frame at or below its cover, so no record
/// (an audit rider, say) is applied twice.
#[test]
fn recovery_skips_frames_of_a_journal_compaction_never_emptied() {
    let world = MutationWorld::new();
    let storage = MemStorage::new();
    let snapshots = MemSnapshotStore::new();
    let live = world.durable(&storage, &snapshots);
    world.drive(&live, Checkpoint::Never);
    let uncompacted = storage.contents();
    live.checkpoint().unwrap();
    assert!(storage.contents().is_empty(), "compaction emptied the journal");

    let recovered = world.durable(&MemStorage::from_bytes(uncompacted), &snapshots);
    assert_eq!(recovered.audit_snapshot(), live.audit_snapshot());
    assert_eq!(world.observe(&recovered), world.observe(&live));
}

// ---------------------------------------------------------------------
// Property: WAL replay returns exactly the longest checksummed prefix.
// ---------------------------------------------------------------------

fn arb_signal() -> impl Strategy<Value = GramSignal> {
    prop_oneof![
        Just(GramSignal::Suspend),
        Just(GramSignal::Resume),
        any::<i64>().prop_map(GramSignal::Priority),
    ]
}

fn arb_record() -> impl Strategy<Value = JournalRecord> {
    prop_oneof![
        (
            any::<u64>(),
            ".{0,40}",
            ".{0,40}",
            ".{0,64}",
            ".{0,16}",
            any::<bool>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(index, contact, owner, rsl, account, dynamic, work, at)| {
                JournalRecord::Submit {
                    index,
                    contact,
                    owner,
                    rsl,
                    account,
                    dynamic,
                    work_micros: work,
                    at_micros: at,
                }
            }),
        (".{0,40}", any::<u64>())
            .prop_map(|(contact, at_micros)| JournalRecord::Cancel { contact, at_micros }),
        (".{0,40}", arb_signal(), any::<u64>()).prop_map(|(contact, signal, at_micros)| {
            JournalRecord::Signal { contact, signal, at_micros }
        }),
        (".{0,40}", ".{0,16}", any::<u64>()).prop_map(|(subject, account, expires_micros)| {
            JournalRecord::LeaseGrant { subject, account, expires_micros }
        }),
        ".{0,40}".prop_map(|subject| JournalRecord::LeaseRelease { subject }),
        proptest::collection::vec((".{0,32}", proptest::collection::vec(".{0,12}", 0..3)), 0..4)
            .prop_map(|entries| JournalRecord::SetGridmap { entries }),
        (".{0,40}", any::<u64>())
            .prop_map(|(issuer, serial)| JournalRecord::RevokeCredential { issuer, serial }),
        (
            any::<u64>(),
            "(/[A-Za-z0-9]{1,4}=[^/]{1,10}){1,4}",
            prop_oneof![
                Just(Action::Start),
                Just(Action::Cancel),
                Just(Action::Information),
                Just(Action::Signal)
            ],
            proptest::option::of(".{0,40}"),
            proptest::option::of(".{0,16}"),
            proptest::option::of(".{0,40}"),
            proptest::option::of(any::<u64>()),
            any::<bool>(),
            proptest::option::of(".{0,40}"),
        )
            .prop_map(
                |(at, subject, action, job, account, refused, trace_id, degraded, note)| {
                    JournalRecord::Audit(AuditRecord {
                        at: SimTime::from_micros(at),
                        subject: subject.parse().expect("the strategy draws valid DNs"),
                        action,
                        job,
                        account,
                        outcome: refused.map_or(AuditOutcome::Permitted, AuditOutcome::Refused),
                        trace_id,
                        degraded,
                        note,
                    })
                }
            ),
    ]
}

proptest! {
    /// Any record sequence appended through the WAL, then cut at any
    /// byte position (a torn tail), reopens to exactly the longest
    /// prefix of intact frames: every replayed record decodes to the
    /// record appended at that position, nothing is reordered, and an
    /// uncut log replays in full.
    #[test]
    fn wal_replay_is_longest_checksummed_prefix(
        records in proptest::collection::vec(arb_record(), 1..16),
        cut_back in 0usize..256,
    ) {
        let device = MemStorage::new();
        let (journal, empty) = Journal::open(Box::new(device.clone())).unwrap();
        prop_assert!(empty.records.is_empty());
        for record in &records {
            journal.append(&record.encode()).unwrap();
        }
        drop(journal);

        let mut bytes = device.contents();
        let cut = bytes.len().saturating_sub(cut_back);
        bytes.truncate(cut);

        let (_, replay) = Journal::open(Box::new(MemStorage::from_bytes(bytes))).unwrap();
        prop_assert!(replay.records.len() <= records.len());
        if cut_back == 0 {
            prop_assert_eq!(replay.records.len(), records.len(), "uncut log must replay fully");
        }
        for (i, frame) in replay.records.iter().enumerate() {
            prop_assert_eq!(frame.seq, i as u64 + 1, "replay reordered or skipped a frame");
            let decoded = JournalRecord::decode(&frame.payload).unwrap();
            prop_assert_eq!(decoded.as_ref(), Some(&records[i]));
        }
    }
}
