//! Whole-server crash-point torture: a scripted workload against a
//! durable [`GramServer`] whose journal lives on a seeded
//! [`FaultDisk`], killed at every durability barrier in turn, recovered,
//! and checked against an oracle of exactly which operations were
//! acknowledged before the lights went out.
//!
//! The five recovery invariants, checked after every crash point:
//!
//! 1. **No acknowledged mutation is lost.** Every submit whose contact
//!    was returned and that was not cancelled is present after
//!    recovery; every acknowledged cancel and signal is still in
//!    effect; an acknowledged grid-map update still maps the identities
//!    it added.
//! 2. **No unacknowledged mutation is visible.** The recovered server
//!    holds exactly the acknowledged live jobs (a cancel retires its
//!    job) — a submit that died inside the commit barrier must not
//!    leave a phantom job (or a torn frame that replays into one).
//! 3. **No cancelled job is resurrected.** An acknowledged cancel stays
//!    in effect across the crash, whatever the journal's tail looked
//!    like: the job is absent (retired) or at most cancelled, never
//!    live.
//! 4. **No stale identity is honored.** After an acknowledged
//!    revocation, the revoked chain fails authentication on the
//!    recovered server — recovery may not roll the trust store back.
//! 5. **No contact is reissued.** A submit on the recovered server gets
//!    a contact index above every index issued before the crash, also
//!    when the job that held the highest one was cancelled, retired
//!    and checkpointed away.
//!
//! Plus the lease-table reconciliation rule (§4.3 dynamic accounts): the
//! recovered pool holds a lease exactly for each live dynamic-account
//! job. A crash *between* a lease grant's durability barrier and its
//! job's admission — the classic allocate-then-crash leak — must neither
//! leak the account nor double-grant it.
//!
//! Determinism: the workload is fixed; the only randomness is the torn
//! cut position inside the in-flight batch, driven by the case seed.
//! Every case is therefore replayable from `(boundary, mode, seed)`.

use gridauthz_clock::{SimClock, SimDuration};
use gridauthz_credential::{
    Certificate, CertificateAuthority, Credential, DistinguishedName, GridMapEntry, GridMapFile,
    TrustStore,
};
use gridauthz_enforcement::DynamicAccountPool;
use gridauthz_journal::{CrashMode, FaultDisk, FaultPlan, MemSnapshotStore};
use gridauthz_scheduler::JobState;

use crate::journal::DurabilityConfig;
use crate::protocol::{GramError, GramSignal, JobContact};
use crate::server::{GramServer, GramServerBuilder};

/// The scripted job request (one CPU so every cluster in the fixture
/// admits it immediately and deterministically).
const JOB_RSL: &str = "&(executable = transp)(directory = /sandbox/run)(count = 1)";

/// The fixed cast and deployment configuration a torture run is built
/// from. Credentials are issued once and shared by every case in a
/// matrix: the workload is identical, only the crash point moves.
pub struct CrashWorld {
    clock: SimClock,
    ca_certificate: Certificate,
    /// Mapped in the grid-mapfile from the start.
    alice: Credential,
    /// Unmapped — leases a dynamic account; later revoked.
    bob: Credential,
    /// Mapped only by the mid-workload grid-map update.
    carol: Credential,
    /// Unmapped — leases a dynamic account that stays live to the end.
    kate: Credential,
    issuer: DistinguishedName,
    bob_serial: u64,
}

impl CrashWorld {
    /// Issues the fixture identities under a fresh CA.
    pub fn new() -> CrashWorld {
        let clock = SimClock::new();
        let ca =
            CertificateAuthority::new_root("/O=Grid/CN=Torture CA", &clock).expect("fixture CA");
        let day = SimDuration::from_hours(24);
        let alice = ca.issue_identity("/O=Grid/CN=Alice", day).expect("alice");
        let bob = ca.issue_identity("/O=Grid/CN=Bob", day).expect("bob");
        let carol = ca.issue_identity("/O=Grid/CN=Carol", day).expect("carol");
        let kate = ca.issue_identity("/O=Grid/CN=Kate", day).expect("kate");
        let issuer = bob.certificate().issuer().clone();
        let bob_serial = bob.certificate().serial();
        CrashWorld {
            clock,
            ca_certificate: ca.certificate().clone(),
            alice,
            bob,
            carol,
            kate,
            issuer,
            bob_serial,
        }
    }

    /// The deployment configuration every recovery starts from — the
    /// same trust anchors and *initial* grid-mapfile; everything the
    /// workload changed afterwards must come back from the journal, not
    /// from this builder.
    fn builder(&self) -> GramServerBuilder {
        let mut trust = TrustStore::new();
        trust.add_anchor(self.ca_certificate.clone());
        let mut gridmap = GridMapFile::new();
        gridmap.insert(GridMapEntry::new(
            self.alice.certificate().subject().clone(),
            vec!["alice".into()],
        ));
        GramServerBuilder::new("torture-site", &self.clock)
            .trust(trust)
            .gridmap(gridmap)
            .dynamic_accounts(DynamicAccountPool::new(
                "grid",
                4,
                60_000,
                SimDuration::from_hours(8),
            ))
    }

    /// The updated grid-mapfile step 6 installs.
    fn updated_gridmap(&self) -> GridMapFile {
        let mut gridmap = GridMapFile::new();
        gridmap.insert(GridMapEntry::new(
            self.alice.certificate().subject().clone(),
            vec!["alice".into()],
        ));
        gridmap.insert(GridMapEntry::new(
            self.carol.certificate().subject().clone(),
            vec!["carol".into()],
        ));
        gridmap
    }

    /// Runs the scripted workload until it completes or the machine
    /// dies, recording every acknowledged mutation in `oracle`.
    ///
    /// The script covers every journaled mutation class: static and
    /// dynamic-lease submits, a signal, cancels (single-job and a
    /// VO-wide tag sweep), a grid-map update and a credential revocation
    /// — so the crash-point sweep exercises every commit barrier the
    /// server has — plus a checkpoint right after the newest job was
    /// cancelled and retired.
    fn run_workload(&self, server: &GramServer, oracle: &mut Oracle) {
        let work = SimDuration::from_mins(30);
        // 1. Alice submits J1 under her grid-mapfile account.
        let Some(j1) = oracle.submit(server.submit(self.alice.chain(), JOB_RSL, None, work), false)
        else {
            return;
        };
        // 2. Bob (unmapped) submits J2 under a leased dynamic account.
        let Some(j2) = oracle.submit(server.submit(self.bob.chain(), JOB_RSL, None, work), true)
        else {
            return;
        };
        // 3. Kate (unmapped) submits J3; her lease outlives the crash.
        if oracle.submit(server.submit(self.kate.chain(), JOB_RSL, None, work), true).is_none() {
            return;
        }
        // 4. Alice suspends J1.
        if !oracle.step(server.signal(self.alice.chain(), &j1, GramSignal::Suspend), |o| {
            o.job_mut(&j1).suspended = true;
        }) {
            return;
        }
        // 5. Bob cancels J2 — his dynamic account must be reclaimable.
        if !oracle.step(server.cancel(self.bob.chain(), &j2), |o| {
            o.job_mut(&j2).cancelled = true;
        }) {
            return;
        }
        // 6. The administrator maps Carol.
        if !oracle.step(server.set_gridmap(self.updated_gridmap()), |o| {
            o.gridmap_updated = true;
        }) {
            return;
        }
        // 7. Carol submits J4 under her newly mapped account.
        if oracle.submit(server.submit(self.carol.chain(), JOB_RSL, None, work), false).is_none() {
            return;
        }
        // 8. The administrator revokes Bob's credential.
        if !oracle.step(server.revoke_credential(&self.issuer, self.bob_serial), |o| {
            o.bob_revoked = true;
        }) {
            return;
        }
        // 9. Alice cancels the suspended J1.
        if !oracle.step(server.cancel(self.alice.chain(), &j1), |o| {
            o.job_mut(&j1).cancelled = true;
        }) {
            return;
        }
        // 10. Alice submits two NFC-tagged jobs and cancels both with
        // one VO-wide sweep; each swept job commits, and is
        // acknowledged, on its own.
        let tagged = format!("{JOB_RSL}(jobtag = nfc)");
        for _ in 0..2 {
            if oracle
                .submit(server.submit(self.alice.chain(), &tagged, None, work), false)
                .is_none()
            {
                return;
            }
        }
        let swept = server.cancel_by_tag(self.alice.chain(), "nfc").expect("alice authenticates");
        for (contact, outcome) in swept {
            if !oracle.step(outcome, |o| o.job_mut(&contact).cancelled = true) {
                return;
            }
        }
        // 11. Alice submits J5, the highest contact issued so far.
        let Some(j5) = oracle.submit(server.submit(self.alice.chain(), JOB_RSL, None, work), false)
        else {
            return;
        };
        // 12. Alice cancels J5 and the operator checkpoints: no record
        // names J5 any more, so only the snapshot's next-contact index
        // keeps recovery from reissuing its contact.
        if !oracle.step(server.cancel(self.alice.chain(), &j5), |o| {
            o.job_mut(&j5).cancelled = true;
        }) {
            return;
        }
        if let Err(e) = server.checkpoint() {
            assert_durability_failure(&e);
            return;
        }
        // 13. Alice submits J6, the final acknowledged job.
        oracle.submit(server.submit(self.alice.chain(), JOB_RSL, None, work), false);
    }

    /// Checks the recovery invariants of `server` against what `oracle`
    /// saw acknowledged, returning one message per violation.
    fn check_invariants(&self, server: &GramServer, oracle: &Oracle) -> Vec<String> {
        let mut violations = Vec::new();
        for job in &oracle.jobs {
            let contact = JobContact::from_wire(&job.contact);
            match (server.job_state(&contact), job.cancelled) {
                // Invariant 3: an acknowledged cancel retired the job;
                // it may read as cancelled, never as live.
                (None | Some(JobState::Cancelled { .. }), true) => {}
                (Some(state), true) => violations.push(format!(
                    "cancelled job {} resurrected as {}",
                    job.contact,
                    state.label()
                )),
                // Invariant 1: acknowledged live jobs survive.
                (None, false) => violations.push(format!("acknowledged job {} lost", job.contact)),
                (Some(state), false) => {
                    if job.suspended && !matches!(state, JobState::Suspended { .. }) {
                        violations.push(format!(
                            "acknowledged suspend of {} lost (state {})",
                            job.contact,
                            state.label()
                        ));
                    }
                    if !job.suspended && state.is_terminal() {
                        violations.push(format!(
                            "live job {} recovered terminal ({})",
                            job.contact,
                            state.label()
                        ));
                    }
                }
            }
        }
        // Invariant 2: exactly the acknowledged live jobs, no phantoms.
        let live = oracle.jobs.iter().filter(|j| !j.cancelled).count();
        if server.job_count() != live {
            violations
                .push(format!("recovered {} jobs, {live} acknowledged live", server.job_count()));
        }
        // Lease reconciliation: one live lease per live dynamic job.
        let expected_leases = oracle.jobs.iter().filter(|j| j.dynamic && !j.cancelled).count();
        let active = server.active_lease_count();
        if active != Some(expected_leases) {
            violations.push(format!(
                "lease table recovered with {active:?} leases, {expected_leases} live \
                 dynamic jobs"
            ));
        }
        // Invariant 4: a revoked identity stays revoked.
        if oracle.bob_revoked {
            if let Some(job) = oracle.jobs.first() {
                let probe = server.status(self.bob.chain(), &JobContact::from_wire(&job.contact));
                if !matches!(probe, Err(GramError::AuthenticationFailed(_))) {
                    violations
                        .push(format!("revoked credential honored after recovery: {probe:?}"));
                }
            }
        }
        // Invariant 1, grid-map half: an acknowledged mapping keeps
        // working. Carol submits on the recovered server; losing the
        // update would either refuse her or silently lease her a
        // dynamic account (visible as a lease-count bump).
        if oracle.gridmap_updated {
            let work = SimDuration::from_mins(30);
            match server.submit(self.carol.chain(), JOB_RSL, None, work) {
                Ok(_) => {
                    if server.active_lease_count() != Some(expected_leases) {
                        violations.push(
                            "acknowledged grid-map update lost: post-recovery submit leased a \
                             dynamic account"
                                .into(),
                        );
                    }
                }
                Err(e) => violations
                    .push(format!("acknowledged grid-map update lost: carol refused ({e})")),
            }
        }
        // Invariant 5: the next contact is above every issued one.
        let issued =
            oracle.jobs.iter().filter_map(|j| JobContact::from_wire(&j.contact).index()).max();
        match server.submit(self.alice.chain(), JOB_RSL, None, SimDuration::from_mins(30)) {
            Ok(next) if next.index() > issued => {}
            Ok(next) => violations.push(format!(
                "contact {next} reissued after recovery (highest issued before the crash: \
                 {issued:?})"
            )),
            Err(e) => violations.push(format!("post-recovery submit refused: {e}")),
        }
        violations
    }
}

impl Default for CrashWorld {
    fn default() -> CrashWorld {
        CrashWorld::new()
    }
}

/// One acknowledged job and the acknowledged operations on it.
#[derive(Debug, Clone)]
struct OracleJob {
    contact: String,
    dynamic: bool,
    cancelled: bool,
    suspended: bool,
}

/// What the workload driver saw acknowledged before the crash — the
/// ground truth recovery is checked against.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    jobs: Vec<OracleJob>,
    /// Acknowledged mutations, total.
    pub acked: usize,
    gridmap_updated: bool,
    bob_revoked: bool,
}

impl Oracle {
    /// Records a submit outcome; `None` stops the workload (the machine
    /// is dead).
    fn submit(
        &mut self,
        result: Result<JobContact, GramError>,
        dynamic: bool,
    ) -> Option<JobContact> {
        match result {
            Ok(contact) => {
                self.acked += 1;
                self.jobs.push(OracleJob {
                    contact: contact.as_str().to_string(),
                    dynamic,
                    cancelled: false,
                    suspended: false,
                });
                Some(contact)
            }
            Err(e) => {
                assert_durability_failure(&e);
                None
            }
        }
    }

    /// Records a non-submit step; `false` stops the workload.
    fn step(&mut self, result: Result<(), GramError>, on_ack: impl FnOnce(&mut Oracle)) -> bool {
        match result {
            Ok(()) => {
                self.acked += 1;
                on_ack(self);
                true
            }
            Err(e) => {
                assert_durability_failure(&e);
                false
            }
        }
    }

    fn job_mut(&mut self, contact: &JobContact) -> &mut OracleJob {
        self.jobs
            .iter_mut()
            .find(|j| j.contact == contact.as_str())
            .expect("oracle tracks every acknowledged contact")
    }
}

/// The scripted workload only ever fails at a durability barrier;
/// anything else is a harness bug, not a crash outcome.
fn assert_durability_failure(e: &GramError) {
    assert!(
        matches!(e, GramError::AuthorizationSystemFailure(msg) if msg.starts_with("durability:")),
        "scripted step refused for a non-durability reason: {e}"
    );
}

/// One cell of the torture matrix.
#[derive(Debug, Clone, Copy)]
pub struct CrashCase {
    /// Which durability barrier dies (0-based sync index).
    pub boundary: u64,
    /// What the platter keeps of the in-flight batch.
    pub mode: CrashMode,
    /// Seed for the torn/short cut position.
    pub seed: u64,
}

/// What one crash-recover cycle produced.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Whether the planned crash actually fired (a boundary beyond the
    /// workload's sync count never does).
    pub crashed: bool,
    /// Mutations acknowledged before the crash.
    pub acked: usize,
    /// Invariant violations (empty = the case passed).
    pub violations: Vec<String>,
}

/// Runs one crash-recover cycle: workload against a disk scripted to die
/// at `case.boundary`, then recovery from exactly the bytes the platter
/// kept, then the invariant checks.
pub fn run_case(world: &CrashWorld, case: CrashCase, snapshot_every: u64) -> CaseOutcome {
    let disk = FaultDisk::new(Some(FaultPlan {
        crash_after_syncs: case.boundary,
        mode: case.mode,
        seed: case.seed,
    }));
    // The snapshot store is non-volatile and atomic (rename-style), so
    // it survives the crash alongside the platter.
    let snapshots = MemSnapshotStore::new();
    let config = DurabilityConfig {
        storage: Box::new(disk.storage()),
        snapshots: Box::new(snapshots.clone()),
        snapshot_every,
    };
    let server = world.builder().recover(config).expect("fresh durable server");
    let mut oracle = Oracle::default();
    world.run_workload(&server, &mut oracle);
    drop(server);

    let survivor = FaultDisk::from_bytes(disk.durable_bytes());
    let config = DurabilityConfig {
        storage: Box::new(survivor.storage()),
        snapshots: Box::new(snapshots.clone()),
        snapshot_every,
    };
    let violations = match world.builder().recover(config) {
        Ok(recovered) => world.check_invariants(&recovered, &oracle),
        Err(e) => vec![format!("recovery failed: {e}")],
    };
    CaseOutcome { crashed: disk.crashed(), acked: oracle.acked, violations }
}

/// Durability barriers the full workload crosses (the sweep's boundary
/// range), measured by running it once on a disk that never fails.
pub fn baseline_syncs(world: &CrashWorld, snapshot_every: u64) -> u64 {
    let disk = FaultDisk::new(None);
    let snapshots = MemSnapshotStore::new();
    let config = DurabilityConfig {
        storage: Box::new(disk.storage()),
        snapshots: Box::new(snapshots.clone()),
        snapshot_every,
    };
    let server = world.builder().recover(config).expect("baseline server");
    let mut oracle = Oracle::default();
    world.run_workload(&server, &mut oracle);
    assert!(!disk.crashed(), "baseline disk has no fault plan");
    disk.syncs()
}

/// A full matrix sweep's tally.
#[derive(Debug, Clone, Default)]
pub struct MatrixReport {
    /// Cases where the planned crash fired.
    pub crashes: u64,
    /// Every violation, labeled with its case coordinates.
    pub violations: Vec<String>,
}

/// Sweeps every durability barrier × every [`CrashMode`] × every seed:
/// the deterministic crash-point torture matrix. An empty
/// `violations` is the headline robustness claim.
pub fn run_matrix(world: &CrashWorld, seeds: &[u64], snapshot_every: u64) -> MatrixReport {
    let boundaries = baseline_syncs(world, snapshot_every);
    let mut report = MatrixReport::default();
    for &seed in seeds {
        for boundary in 0..boundaries {
            for mode in CrashMode::ALL {
                let outcome = run_case(world, CrashCase { boundary, mode, seed }, snapshot_every);
                if outcome.crashed {
                    report.crashes += 1;
                }
                report.violations.extend(outcome.violations.into_iter().map(|v| {
                    format!("seed {seed} boundary {boundary} mode {}: {v}", mode.as_str())
                }));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_completes_without_faults() {
        let world = CrashWorld::new();
        let syncs = baseline_syncs(&world, 0);
        // The script journals every mutation class; the barrier count
        // pins the workload's durability surface so the sweep range
        // cannot silently shrink. Audit frames ride their mutation's
        // batch, so the count tracks acknowledged mutations (plus the
        // shutdown flush), not total records.
        assert!(syncs >= 12, "workload crossed only {syncs} durability barriers");
    }

    #[test]
    fn uncrashed_case_recovers_cleanly() {
        let world = CrashWorld::new();
        let boundaries = baseline_syncs(&world, 0);
        // Boundary beyond the workload: the crash never fires; recovery
        // replays a complete journal.
        let outcome = run_case(
            &world,
            CrashCase { boundary: boundaries + 10, mode: CrashMode::Kill, seed: 1 },
            0,
        );
        assert!(!outcome.crashed);
        assert_eq!(outcome.violations, Vec::<String>::new());
        assert_eq!(outcome.acked, 16, "every scripted mutation acknowledged");
    }

    #[test]
    fn first_and_middle_boundaries_hold_invariants() {
        let world = CrashWorld::new();
        for boundary in [0, 3, 7] {
            for mode in CrashMode::ALL {
                let outcome = run_case(&world, CrashCase { boundary, mode, seed: 42 }, 0);
                assert!(outcome.crashed, "boundary {boundary} must crash");
                assert_eq!(
                    outcome.violations,
                    Vec::<String>::new(),
                    "boundary {boundary} mode {}",
                    mode.as_str()
                );
            }
        }
    }

    #[test]
    fn checkpointing_cases_hold_invariants() {
        let world = CrashWorld::new();
        // snapshot_every = 4: checkpoints fire mid-workload, so these
        // crashes land on snapshot+tail recoveries, not pure replay.
        for boundary in [2, 6, 10] {
            for mode in CrashMode::ALL {
                let outcome = run_case(&world, CrashCase { boundary, mode, seed: 7 }, 4);
                assert_eq!(
                    outcome.violations,
                    Vec::<String>::new(),
                    "boundary {boundary} mode {} (with checkpoints)",
                    mode.as_str()
                );
            }
        }
    }
}
