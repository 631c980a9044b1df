//! Bounded job state: a cancel retires its job, so a durable server
//! that runs many submit+cancel pairs holds, checkpoints and sweeps only
//! its live jobs. Events go only to subscribers: one registered before
//! the churn receives every retired job's final `cancelled` event, and
//! with no subscriber the churn leaves no event behind.

use std::collections::HashSet;

use gridauthz_clock::{SimClock, SimDuration};
use gridauthz_credential::{
    CertificateAuthority, Credential, GridMapEntry, GridMapFile, TrustStore,
};
use gridauthz_gram::journal::decode_records;
use gridauthz_gram::{
    DurabilityConfig, GramError, GramServer, GramServerBuilder, JobContact, JournalRecord,
};
use gridauthz_journal::{MemSnapshotStore, MemStorage, SnapshotStore};
use gridauthz_scheduler::{Cluster, JobState};

const RSL: &str = "&(executable = transp)(directory = /sandbox/run)(jobtag = NFC)(count = 1)";

fn mins(n: u64) -> SimDuration {
    SimDuration::from_mins(n)
}

/// A GT2 site mapping `members`, journaling to memory with automatic
/// checkpoints every 64 appends.
fn durable_site(
    clock: &SimClock,
    ca: &CertificateAuthority,
    members: &[&Credential],
    snapshots: &MemSnapshotStore,
) -> GramServer {
    let mut trust = TrustStore::new();
    trust.add_anchor(ca.certificate().clone());
    let mut gridmap = GridMapFile::new();
    for (i, member) in members.iter().enumerate() {
        gridmap.insert(GridMapEntry::new(
            member.certificate().subject().clone(),
            vec![format!("user{i}")],
        ));
    }
    GramServerBuilder::new("bounded-site", clock)
        .trust(trust)
        .gridmap(gridmap)
        .cluster(Cluster::uniform(4, 8, 16_384))
        .recover(
            DurabilityConfig::in_memory(MemStorage::new(), snapshots.clone()).snapshot_every(64),
        )
        .unwrap()
}

/// Each of `members`, on its own thread, runs `pairs` submit+cancel
/// pairs; returns every cancelled contact.
fn churn(server: &GramServer, members: &[&Credential], pairs: usize) -> Vec<JobContact> {
    std::thread::scope(|scope| {
        let lanes: Vec<_> = members
            .iter()
            .map(|member| {
                scope.spawn(move || {
                    (0..pairs)
                        .map(|_| {
                            let contact =
                                server.submit(member.chain(), RSL, None, mins(30)).unwrap();
                            server.cancel(member.chain(), &contact).unwrap();
                            contact
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        lanes.into_iter().flat_map(|lane| lane.join().unwrap()).collect()
    })
}

/// Checkpoints and returns the snapshot's records, split into the
/// audit ring and everything else.
fn checkpoint_records(
    server: &GramServer,
    snapshots: &MemSnapshotStore,
) -> (Vec<JournalRecord>, usize) {
    server.checkpoint().unwrap();
    let blob = snapshots.clone().load().unwrap().expect("a checkpoint saved a snapshot");
    let records = decode_records(&blob.payload).unwrap();
    let audits = records.iter().filter(|r| matches!(r, JournalRecord::Audit(_))).count();
    let state = records.into_iter().filter(|r| !matches!(r, JournalRecord::Audit(_))).collect();
    (state, audits)
}

#[test]
fn churn_keeps_state_and_checkpoints_bounded_and_events_delivered() {
    let clock = SimClock::new();
    let ca = CertificateAuthority::new_root("/O=Grid/CN=Bounded CA", &clock).unwrap();
    let day = SimDuration::from_hours(24);
    let alice = ca.issue_identity("/O=Grid/CN=Alice", day).unwrap();
    let bob = ca.issue_identity("/O=Grid/CN=Bob", day).unwrap();
    let members = [&alice, &bob];
    let snapshots = MemSnapshotStore::new();
    let server = durable_site(&clock, &ca, &members, &snapshots);

    // One long-lived job per member stays live throughout.
    let keepers: Vec<JobContact> = members
        .iter()
        .map(|member| server.submit(member.chain(), RSL, None, mins(600)).unwrap())
        .collect();

    let early = server.subscribe();
    let mut cancelled = churn(&server, &members, 100);
    assert_eq!(server.job_count(), keepers.len());
    let (after_100, _) = checkpoint_records(&server, &snapshots);

    cancelled.extend(churn(&server, &members, 900));
    assert_eq!(cancelled.len(), 2_000);
    assert_eq!(server.job_count(), keepers.len(), "cancelled jobs must be retired");
    let (after_1000, audits) = checkpoint_records(&server, &snapshots);

    // The snapshot is the live jobs plus the bounded audit ring: its
    // state records are the same after 1 000 pairs as after 100, apart
    // from the next contact index.
    let without_next = |records: &[JournalRecord]| -> Vec<JournalRecord> {
        records
            .iter()
            .filter(|r| !matches!(r, JournalRecord::NextContact { .. }))
            .cloned()
            .collect()
    };
    assert_eq!(without_next(&after_1000), without_next(&after_100));
    assert!(audits <= 4_096, "audit ring holds {audits} records");
    let gone: HashSet<&str> = cancelled.iter().map(JobContact::as_str).collect();
    let submitted: Vec<&str> = after_1000
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Submit { contact, .. } => Some(contact.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(submitted.len(), keepers.len());
    assert!(submitted.iter().all(|contact| !gone.contains(contact)), "{submitted:?}");
    assert!(after_1000.contains(&JournalRecord::NextContact { index: 2_003 }), "{after_1000:?}");

    // A retired job answers UNKNOWN_JOB, and its final event still
    // reached the subscriber registered before the churn. One
    // registered after it receives nothing: no event was kept for it.
    let refusal = server.status(alice.chain(), &cancelled[0]);
    assert!(matches!(refusal, Err(GramError::UnknownJob(_))), "{refusal:?}");
    let late = server.subscribe();
    assert!(late.try_recv().is_err());
    let finals: HashSet<u64> = early
        .try_iter()
        .filter(|event| matches!(event.state, JobState::Cancelled { .. }))
        .map(|event| event.job.0)
        .collect();
    assert_eq!(finals.len(), cancelled.len());
    assert!(cancelled.iter().all(|contact| finals.contains(&contact.index().unwrap())));

    // VO-wide management sees only the live jobs.
    let mut tagged = server.jobs_with_tag("NFC");
    tagged.sort();
    let mut live = keepers.clone();
    live.sort();
    assert_eq!(tagged, live);
    let swept = server.cancel_by_tag(alice.chain(), "NFC").unwrap();
    assert_eq!(swept.len(), keepers.len());
    assert!(matches!(swept.iter().find(|(c, _)| *c == keepers[0]), Some((_, Ok(())))));
    assert_eq!(server.job_count(), 1, "Alice's sweep retired her own job only");
    let events: Vec<_> = late.try_iter().collect();
    assert!(events
        .iter()
        .any(|e| Some(e.job.0) == keepers[0].index()
            && matches!(e.state, JobState::Cancelled { .. })));
}
