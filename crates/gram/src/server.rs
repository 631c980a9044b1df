//! The GRAM resource service: Gatekeeper + per-job Job Manager Instances
//! over the local job control system.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use gridauthz_clock::{SimClock, SimDuration, SimTime};
use gridauthz_core::{
    Action, AdmissionClass, AuthorizationCallout, AuthzEngine, AuthzFailure, AuthzRequest,
    BreakerState, DenyReason, JobDescription, RequestContext, SnapshotCell, SupervisionReport,
};
use gridauthz_credential::{
    Certificate, DistinguishedName, GridMapFile, TrustStore, VerifiedIdentity,
};
use gridauthz_journal::{Journal, SnapshotBlob, SnapshotStore};
use gridauthz_rsl::Conjunction;
use gridauthz_scheduler::{Cluster, JobEvent, JobId, JobState, LocalScheduler, SchedulerQueue};
use gridauthz_telemetry::{
    labels, DecisionTrace, Gauge, RegistrySnapshot, Stage, TelemetryRegistry,
};

use gridauthz_enforcement::{DynamicAccountPool, Sandbox};

use crate::audit::{AuditLog, AuditOutcome, AuditRecord};
use crate::authcache::{AuthCache, AuthCacheStats, AuthEntry};
use crate::gatekeeper::Gatekeeper;
use crate::jobspec::job_spec_from_rsl;
use crate::journal::{
    action_from_tag, action_tag, decode_records, encode_records, DurabilityConfig, JournalRecord,
};
use crate::protocol::{error_label, GramError, GramSignal, JobContact, JobReport};
use crate::provisioning::{request_groups, sandbox_profile_for, AccountStrategy, JobOperation};
use crate::shard::ShardedMap;
use crate::wire::{self, ParsedFrame, WireDecodeError, WireRequestRef};

/// Which GRAM the server behaves as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GramMode {
    /// Figure 1: grid-mapfile authorization only; the Job Manager does no
    /// policy evaluation; only the initiator manages a job.
    Gt2,
    /// Figure 2: the authorization callout chain is invoked "before
    /// creating a job manager request, and before calls to cancel, query,
    /// and signal a running job".
    Extended,
}

/// Per-job outcomes of a VO-wide sweep
/// ([`cancel_by_tag`](GramServer::cancel_by_tag),
/// [`status_by_tag`](GramServer::status_by_tag)), in working-set order.
pub type SweepOutcomes<T> = Vec<(JobContact, Result<T, GramError>)>;

/// One Job Manager Instance's record: who started the job, its tag, its
/// description, and the local job it drives.
///
/// The description is a shared [`JobDescription`] because every
/// management request evaluates against it: the per-request
/// [`AuthzRequest`] reuses the record's conjunction *and* its extracted
/// attribute table instead of deep-cloning or rescanning either.
#[derive(Debug, Clone)]
struct JmiRecord {
    contact: JobContact,
    owner: DistinguishedName,
    jobtag: Option<String>,
    rsl: JobDescription,
    /// The job's one number: the index its contact URL ends with, its
    /// scheduler id and its key in the job map. Journaled, so recovery
    /// restores the `next_job` counter past every issued contact.
    id: JobId,
    account: String,
    sandbox: Option<Sandbox>,
    /// The job's true computation time — journaled so recovery can
    /// re-admit the job with the original simulation input.
    work: SimDuration,
    /// True when `account` was leased from the dynamic pool; recovery
    /// uses this to reconcile the lease table against live jobs.
    dynamic: bool,
}

/// Builder for [`GramServer`].
pub struct GramServerBuilder {
    resource_name: String,
    trust: TrustStore,
    gridmap: GridMapFile,
    callouts: Vec<Arc<dyn AuthorizationCallout>>,
    mode: GramMode,
    cluster: Cluster,
    queues: Vec<SchedulerQueue>,
    accounts: AccountStrategy,
    sandboxing: bool,
    clock: SimClock,
    telemetry: Option<Arc<TelemetryRegistry>>,
}

impl GramServerBuilder {
    /// Starts a builder for a resource named `resource_name`.
    pub fn new(resource_name: impl Into<String>, clock: &SimClock) -> GramServerBuilder {
        GramServerBuilder {
            resource_name: resource_name.into(),
            trust: TrustStore::new(),
            gridmap: GridMapFile::new(),
            callouts: Vec::new(),
            mode: GramMode::Gt2,
            cluster: Cluster::uniform(4, 8, 16_384),
            queues: Vec::new(),
            accounts: AccountStrategy::GridMapOnly,
            sandboxing: false,
            clock: clock.clone(),
            telemetry: None,
        }
    }

    /// Shares a caller-owned telemetry registry (e.g. one registry over
    /// several servers, or over a server plus a load generator). Without
    /// this the server creates its own.
    #[must_use]
    pub fn telemetry(mut self, registry: Arc<TelemetryRegistry>) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// Installs the trust anchors.
    #[must_use]
    pub fn trust(mut self, trust: TrustStore) -> Self {
        self.trust = trust;
        self
    }

    /// Installs the grid-mapfile.
    #[must_use]
    pub fn gridmap(mut self, gridmap: GridMapFile) -> Self {
        self.gridmap = gridmap;
        self
    }

    /// Installs the authorization callout chain and switches to
    /// [`GramMode::Extended`].
    #[must_use]
    pub fn callouts(mut self, callouts: Vec<Arc<dyn AuthorizationCallout>>) -> Self {
        self.callouts = callouts;
        self.mode = GramMode::Extended;
        self
    }

    /// Forces an explicit mode (e.g. `Extended` with an empty chain).
    #[must_use]
    pub fn mode(mut self, mode: GramMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the compute cluster.
    #[must_use]
    pub fn cluster(mut self, cluster: Cluster) -> Self {
        self.cluster = cluster;
        self
    }

    /// Adds a scheduler queue.
    #[must_use]
    pub fn queue(mut self, queue: SchedulerQueue) -> Self {
        self.queues.push(queue);
        self
    }

    /// Enables GT3-style dynamic accounts (§7): identities without a
    /// grid-mapfile entry are provisioned from `pool`, configured per
    /// request.
    #[must_use]
    pub fn dynamic_accounts(mut self, pool: DynamicAccountPool) -> Self {
        self.accounts = AccountStrategy::DynamicPool(pool);
        self
    }

    /// Enables per-job sandboxes derived from the authorized job
    /// description (§6.1 continuous enforcement).
    #[must_use]
    pub fn sandboxing(mut self, enabled: bool) -> Self {
        self.sandboxing = enabled;
        self
    }

    /// Builds the server.
    ///
    /// Extended mode with an *empty* callout chain would authorize
    /// nothing-but-gridmap while claiming fine-grained enforcement — a
    /// misconfiguration. The server refuses to run that way: it falls
    /// back to [`GramMode::Gt2`] (grid-mapfile plus initiator-only
    /// management, strictly default-deny) and writes an audit record so
    /// the operator can see the downgrade.
    pub fn build(self) -> GramServer {
        let mut scheduler = LocalScheduler::new(self.cluster, &self.clock);
        for queue in self.queues {
            scheduler.add_queue(queue);
        }
        // The configured callouts become the engine's chain; PDP-backed
        // callouts keep their own snapshots.
        let mut engine = AuthzEngine::pass_through(self.resource_name.clone());
        for callout in self.callouts {
            engine.push_callout(callout);
        }
        let telemetry = self.telemetry.unwrap_or_else(|| Arc::new(TelemetryRegistry::new()));
        engine.set_telemetry(Arc::clone(&telemetry));
        let mut mode = self.mode;
        let mut audit = AuditLog::new(4096);
        if mode == GramMode::Extended && engine.is_vacuous() {
            mode = GramMode::Gt2;
            audit.record(AuditRecord {
                at: self.clock.now(),
                subject: "/CN=gram-configuration".parse().expect("static configuration DN parses"),
                action: Action::Information,
                job: None,
                account: None,
                outcome: AuditOutcome::Refused(
                    "extended mode configured with an empty callout chain; \
                     falling back to GT2 grid-mapfile authorization"
                        .into(),
                ),
                trace_id: None,
                degraded: false,
                note: None,
            });
        }
        GramServer {
            resource_name: self.resource_name,
            gatekeeper: SnapshotCell::new(Gatekeeper::new(self.trust, self.gridmap, &self.clock)),
            engine,
            mode,
            jobs: ShardedMap::new(),
            scheduler: RwLock::new(scheduler),
            accounts: Accounts::from(self.accounts),
            sandboxing: self.sandboxing,
            audit: Mutex::new(audit),
            supervision_seen: Mutex::new(HashMap::new()),
            telemetry,
            auth_cache: AuthCache::new(),
            clock: self.clock,
            next_job: AtomicU64::new(1),
            admin: Mutex::new(()),
            durability: None,
            audit_evicted: AtomicU64::new(0),
        }
    }

    /// Builds the server with crash-safe durability: the journal is
    /// opened (its torn tail truncated), the latest intact snapshot is
    /// loaded, and both are replayed to rebuild the job table, the
    /// dynamic-account lease table, the audit log and the gatekeeper's
    /// administrative state before the server accepts requests. A fresh
    /// (empty) journal yields a fresh durable server, so this is also
    /// how a durable server starts the first time.
    ///
    /// Recovery restores the *control-plane* record of every
    /// acknowledged mutation, not temporal position: recovered jobs are
    /// re-admitted from zero executed work (restart semantics). A
    /// replayed `Cancel` retires its job, as the live cancel did, so a
    /// cancelled job does not come back; nor does a job that had ended
    /// inside the scheduler before the snapshot, which the snapshot
    /// leaves out (an older snapshot expresses it as `Submit` then
    /// `Cancel`, and replay retires it). The snapshot's `NextContact`
    /// record raises the contact counter past every contact issued
    /// before the snapshot, so no contact is reissued. Dynamic-account
    /// leases backing no live job after replay are released (a crash
    /// between lease grant and job submit must not leak the account).
    ///
    /// # Errors
    ///
    /// [`GramError::AuthorizationSystemFailure`] when the journal or
    /// snapshot cannot be opened, or when a durable record fails to
    /// re-apply (e.g. the recovered configuration no longer admits a
    /// journaled job).
    pub fn recover(self, durability: DurabilityConfig) -> Result<GramServer, GramError> {
        let DurabilityConfig { storage, mut snapshots, snapshot_every } = durability;
        let mut server = self.build();
        let start = Instant::now();
        let snapshot =
            snapshots.load().map_err(|e| durability_error(format!("snapshot load failed: {e}")))?;
        let covers = snapshot.as_ref().map_or(0, |blob| blob.covers_seq);
        let (journal, tail) = Journal::open_after(storage, covers)
            .map_err(|e| durability_error(format!("journal open failed: {e}")))?;
        if let Some(blob) = &snapshot {
            let records = decode_records(&blob.payload)
                .map_err(|e| durability_error(format!("snapshot payload corrupt: {e}")))?;
            for record in &records {
                server.apply_recovered(record)?;
                server.telemetry.record(Stage::Recovery, labels::REPLAY);
            }
        }
        for frame in &tail.records {
            if frame.seq <= covers {
                continue;
            }
            let record = JournalRecord::decode(&frame.payload).map_err(|e| {
                durability_error(format!("journal record {} corrupt: {e}", frame.seq))
            })?;
            if let Some(record) = record {
                server.apply_recovered(&record)?;
                server.telemetry.record(Stage::Recovery, labels::REPLAY);
            }
        }
        server.reclaim_orphaned_leases();
        let stats = journal.stats();
        server.telemetry.set_gauge(Gauge::JournalBytes, stats.durable_bytes);
        server.telemetry.record_timed(Stage::Recovery, labels::PERMIT, elapsed_nanos(start));
        server.durability = Some(Durability {
            journal,
            snapshots: Mutex::new(snapshots),
            snapshot_every,
            appends_since_checkpoint: AtomicU64::new(0),
            barrier: RwLock::new(()),
            fsyncs_seen: AtomicU64::new(stats.fsyncs),
        });
        Ok(server)
    }
}

impl Drop for GramServer {
    fn drop(&mut self) {
        // Graceful shutdown drains relaxed riders (audit frames queued
        // behind the last committed batch) so a clean restart recovers
        // the full audit trail. On a crashed or dead device the flush
        // fails and is ignored — exactly the loss a crash implies.
        if let Some(durability) = &self.durability {
            let _ = durability.journal.flush();
        }
    }
}

/// Journal/snapshot failures surface as authorization-system failures:
/// the paper's protocol distinguishes "the system refused you" from
/// "the system could not decide", and a mutation that cannot be made
/// durable is the latter.
fn durability_error(detail: String) -> GramError {
    GramError::AuthorizationSystemFailure(format!("durability: {detail}"))
}

/// The grid-mapfile as journalable `(subject, accounts)` pairs, sorted
/// for deterministic snapshots.
fn gridmap_entries(gridmap: &GridMapFile) -> Vec<(String, Vec<String>)> {
    let mut entries: Vec<(String, Vec<String>)> = gridmap
        .iter()
        .map(|entry| (entry.subject().to_string(), entry.accounts().to_vec()))
        .collect();
    entries.sort();
    entries
}

/// An audit-trail record in journal form.
fn audit_record_to_journal(record: &AuditRecord) -> JournalRecord {
    JournalRecord::Audit {
        at_micros: record.at.as_micros(),
        subject: record.subject.to_string(),
        action: action_tag(record.action),
        job: record.job.clone(),
        account: record.account.clone(),
        refused: match &record.outcome {
            AuditOutcome::Permitted => None,
            AuditOutcome::Refused(reason) => Some(reason.clone()),
        },
        trace_id: record.trace_id,
        degraded: record.degraded,
        note: record.note.clone(),
    }
}

/// The inverse of [`audit_record_to_journal`], for replay.
///
/// # Errors
///
/// A durability error when the recorded subject no longer parses as a
/// distinguished name (journal corruption the checksums cannot see).
fn journal_to_audit(record: &JournalRecord) -> Result<AuditRecord, GramError> {
    let JournalRecord::Audit {
        at_micros,
        subject,
        action,
        job,
        account,
        refused,
        trace_id,
        degraded,
        note,
    } = record
    else {
        return Err(durability_error("not an audit record".into()));
    };
    Ok(AuditRecord {
        at: SimTime::from_micros(*at_micros),
        subject: subject
            .parse()
            .map_err(|e| durability_error(format!("recovered audit DN: {e}")))?,
        action: action_from_tag(*action),
        job: job.clone(),
        account: account.clone(),
        outcome: match refused {
            None => AuditOutcome::Permitted,
            Some(reason) => AuditOutcome::Refused(reason.clone()),
        },
        trace_id: *trace_id,
        degraded: *degraded,
        note: note.clone(),
    })
}

/// Nanoseconds since `start`, saturating.
fn elapsed_nanos(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `body` as one traced pipeline stage: the elapsed time and the
/// outcome's telemetry label ([`labels::PERMIT`] or the error's
/// [`error_label`]) become a span in `trace`.
fn timed_stage<T>(
    trace: &mut DecisionTrace,
    stage: Stage,
    body: impl FnOnce() -> Result<T, GramError>,
) -> Result<T, GramError> {
    let start = Instant::now();
    let result = body();
    let label = match &result {
        Ok(_) => labels::PERMIT,
        Err(e) => error_label(e),
    };
    trace.record(stage, label, elapsed_nanos(start));
    result
}

/// How a request's initiator enters the pipeline: as a raw certificate
/// chain (typed API — fresh chain verification on every call) or as an
/// identity the authentication cache already verified under the current
/// gatekeeper generation (the wire front-end's warm path, which must not
/// pay for RSA verification twice).
#[derive(Clone, Copy)]
enum Caller<'a> {
    Chain(&'a [Certificate]),
    Verified(&'a VerifiedIdentity),
}

/// Account resolution state, narrowed from a whole-strategy
/// reader/writer lock: the grid-map-only path shares no mutable state
/// and takes no lock at all; only the dynamic pool's lease table needs
/// mutual exclusion, and only while a lease is resolved.
enum Accounts {
    GridMapOnly,
    DynamicPool(Mutex<DynamicAccountPool>),
}

impl From<AccountStrategy> for Accounts {
    fn from(strategy: AccountStrategy) -> Accounts {
        match strategy {
            AccountStrategy::GridMapOnly => Accounts::GridMapOnly,
            AccountStrategy::DynamicPool(pool) => Accounts::DynamicPool(Mutex::new(pool)),
        }
    }
}

/// The server's durable state: the write-ahead log every acknowledged
/// mutation is appended to before its wire acknowledgement, plus the
/// snapshot store checkpoints compact it through.
struct Durability {
    journal: Journal,
    snapshots: Mutex<Box<dyn SnapshotStore>>,
    /// Checkpoint after this many appends (0 = manual checkpoints only).
    snapshot_every: u64,
    appends_since_checkpoint: AtomicU64,
    /// Pairs a mutation's in-memory effect with its journal append into
    /// one unit the checkpointer cannot split. Every mutator holds the
    /// read side across both steps: a submit across append + publish, a
    /// cancel or signal (single-job, swept, or a multi-request's
    /// rollback) across scheduler effect + append, a grid-map swap or
    /// revocation across append + gatekeeper store, and every audit
    /// record, supervision riders included, across append + ring
    /// insert. [`GramServer::checkpoint`] holds the write side while it
    /// captures the covered sequence number and serializes state, so a
    /// snapshot covering sequence N observes the effect of every append
    /// at or below N and of no later one. Lock order is `admin` →
    /// barrier → audit ring / scheduler, as in the checkpoint. A lease
    /// grant appends without it (it holds the pool lock, which the
    /// checkpoint takes under the write side); recovery reconciles
    /// leases against live jobs instead.
    barrier: RwLock<()>,
    /// Physical syncs already folded into telemetry, so the per-append
    /// fsync counter reports deltas exactly once under group commit.
    fsyncs_seen: AtomicU64,
}

/// A GRAM resource: thread-safe, shared via `Arc` in concurrent
/// benchmarks (experiment T5).
pub struct GramServer {
    resource_name: String,
    /// Swap-on-update: every request loads one published `Arc`;
    /// administrative changes (grid-mapfile swap, CRL load) clone the
    /// gatekeeper, mutate the clone, and publish it under `admin`.
    /// Authentication never blocks on administration.
    gatekeeper: SnapshotCell<Gatekeeper>,
    /// The authorization engine: the configured callout chain (policy
    /// callouts hold their own published snapshots); no lock is held
    /// across a decision.
    engine: AuthzEngine,
    mode: GramMode,
    /// Keyed by the job's one number, the index its contact ends with
    /// (see [`record_for`](GramServer::record_for)). Records are shared
    /// (`Arc`): the management hot path looks one up per request, and a
    /// lookup must be a refcount bump, not a deep clone of the record's
    /// strings and job description.
    jobs: ShardedMap<JobId, Arc<JmiRecord>>,
    /// Deliberately still a lock: the discrete-event scheduler mutates
    /// shared queue/placement state on nearly every call (even status
    /// polls race against `catch_up`), so swap-on-update would copy the
    /// whole cluster per operation. The critical sections are short and
    /// sit *after* authorization, off the decision path.
    scheduler: RwLock<LocalScheduler>,
    accounts: Accounts,
    sandboxing: bool,
    audit: Mutex<AuditLog>,
    /// Highest breaker-transition sequence number already copied into
    /// the audit log, per supervised callout — the lazy supervision
    /// audit sync ([`GramServer::audit_snapshot`]) appends only what is
    /// new since the last poll.
    supervision_seen: Mutex<HashMap<String, u64>>,
    /// One registry for the whole decision pipeline: counters/histograms
    /// accumulate from both the server's own stages and the engine's
    /// interior ones, and every completed decision's trace lands here.
    telemetry: Arc<TelemetryRegistry>,
    /// Verified-chain cache in front of the PEM wire path. Entries are
    /// stamped with the generation of the gatekeeper snapshot that
    /// verified them, so the clone-bump-publish cycle of a revocation or
    /// other trust-store change strands every cached verification; a
    /// grid-mapfile swap leaves them live.
    auth_cache: AuthCache,
    clock: SimClock,
    next_job: AtomicU64,
    /// Serializes gatekeeper clone-modify-publish sequences so two
    /// concurrent administrative updates cannot lose each other's write.
    admin: Mutex<()>,
    /// Crash-safety, when configured: every acknowledged mutation is
    /// journaled before its acknowledgement. `None` runs the server
    /// memory-only (the pre-durability behaviour, and the default).
    durability: Option<Durability>,
    /// Audit records evicted from the bounded in-memory ring. With
    /// durability configured the evicted records were already rotated
    /// into the journal at write time; without, this counter is the
    /// only trace that the ring overflowed.
    audit_evicted: AtomicU64,
}

impl std::fmt::Debug for GramServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GramServer")
            .field("resource", &self.resource_name)
            .field("mode", &self.mode)
            .field("jobs", &self.jobs.len())
            .finish()
    }
}

impl GramServer {
    /// The resource's name (appears in job contacts).
    pub fn resource_name(&self) -> &str {
        &self.resource_name
    }

    /// The operating mode.
    pub fn mode(&self) -> GramMode {
        self.mode
    }

    /// Administrative access to the gatekeeper's grid-mapfile: a new
    /// gatekeeper is built off-path and published by pointer swap. The
    /// grid-map is applied per request, after authentication and before
    /// any policy callout, so cached chain verifications and cached
    /// decisions both stay live: neither reads the grid-map.
    ///
    /// # Errors
    ///
    /// [`GramError::AuthorizationSystemFailure`] when the change cannot
    /// be journaled (durable servers only) — nothing is published on
    /// failure, so the acknowledged and durable states never diverge.
    pub fn set_gridmap(&self, gridmap: GridMapFile) -> Result<(), GramError> {
        let record = JournalRecord::SetGridmap { entries: gridmap_entries(&gridmap) };
        self.commit_gatekeeper(&record, |gatekeeper| gatekeeper.set_gridmap(gridmap))
    }

    /// Loads one CRL entry: credentials whose chain includes the
    /// certificate with `serial` issued by `issuer` stop authenticating
    /// as soon as the updated gatekeeper is published — in-flight
    /// requests finish against the snapshot they hold; every later
    /// request sees the revocation. The revocation moves the
    /// gatekeeper's generation, which strands every cached chain
    /// verification; cached decisions stay live, because a revoked
    /// chain is refused at authentication before any callout runs.
    ///
    /// # Errors
    ///
    /// [`GramError::AuthorizationSystemFailure`] when the revocation
    /// cannot be journaled — it is not published either, so a recovered
    /// server never honors an identity the pre-crash server had
    /// acknowledged revoking.
    pub fn revoke_credential(
        &self,
        issuer: &DistinguishedName,
        serial: u64,
    ) -> Result<(), GramError> {
        let record = JournalRecord::RevokeCredential { issuer: issuer.to_string(), serial };
        self.commit_gatekeeper(&record, |gatekeeper| gatekeeper.trust_mut().revoke(issuer, serial))
    }

    /// The effect of a `SetGridmap` or `RevokeCredential` record, live
    /// and on replay: clones the published gatekeeper, applies `change`,
    /// journals `record` and publishes the clone. `admin` serializes the
    /// clone-modify-publish so two concurrent changes cannot lose each
    /// other's write; nothing is published when the append fails.
    fn commit_gatekeeper(
        &self,
        record: &JournalRecord,
        change: impl FnOnce(&mut Gatekeeper),
    ) -> Result<(), GramError> {
        {
            let _admin = self.admin.lock();
            let mut gatekeeper = (*self.gatekeeper.load()).clone();
            change(&mut gatekeeper);
            let _publish = self.publish_guard();
            self.journal_append(record)?;
            self.gatekeeper.store(gatekeeper);
        }
        self.maybe_checkpoint();
        Ok(())
    }

    /// Submits a job (`action = start`).
    ///
    /// `work` is the job's true computation time (simulation input);
    /// `requested_account` optionally selects an alternate grid-mapfile
    /// account.
    ///
    /// # Errors
    ///
    /// Every [`GramError`] variant is possible: authentication, mapping,
    /// authorization (including the VO requirement violations of §5.1),
    /// bad RSL, and scheduler admission failures.
    pub fn submit(
        &self,
        chain: &[Certificate],
        rsl_text: &str,
        requested_account: Option<&str>,
        work: SimDuration,
    ) -> Result<JobContact, GramError> {
        self.traced("submit", |trace| {
            self.submit_inner(
                &RequestContext::unbounded(),
                Caller::Chain(chain),
                rsl_text,
                requested_account,
                work,
                trace,
            )
        })
    }

    fn submit_inner(
        &self,
        ctx: &RequestContext,
        caller: Caller<'_>,
        rsl_text: &str,
        requested_account: Option<&str>,
        work: SimDuration,
        trace: &mut DecisionTrace,
    ) -> Result<JobContact, GramError> {
        let identity = self.authenticate_caller(caller, trace)?;
        let subject = identity.subject().clone();
        let result =
            self.submit_authenticated(ctx, &identity, rsl_text, requested_account, work, trace);
        let account =
            result.as_ref().ok().and_then(|c| self.record_for(c)).map(|r| r.account.clone());
        self.record_audit(
            &subject,
            Action::Start,
            result.as_ref().ok().map(|c| c.as_str()),
            account.as_deref(),
            &result,
            trace,
        );
        result
    }

    fn submit_authenticated(
        &self,
        ctx: &RequestContext,
        identity: &VerifiedIdentity,
        rsl_text: &str,
        requested_account: Option<&str>,
        work: SimDuration,
        trace: &mut DecisionTrace,
    ) -> Result<JobContact, GramError> {
        // GSI refuses job startup with limited proxies in both modes.
        if identity.is_limited() {
            trace.record(Stage::Authenticate, labels::POLICY_DENIED, 0);
            return Err(GramError::NotAuthorized(DenyReason::LimitedProxy));
        }
        let subject = identity.subject().clone();

        // Figure 1 ordering: the Gatekeeper's grid-mapfile authorization
        // precedes everything the Job Manager does. With a dynamic pool,
        // unmapped identities legitimately pass the gate (§7) and are
        // provisioned after policy authorization succeeds.
        let premapped = match &self.accounts {
            Accounts::GridMapOnly => Some(timed_stage(trace, Stage::GridMap, || {
                self.gatekeeper.load().authorize_and_map(&subject, requested_account)
            })?),
            Accounts::DynamicPool(_) => None,
        };

        let spec = gridauthz_rsl::parse(rsl_text)
            .map_err(|e| GramError::BadRequest(format!("RSL parse error: {e}")))?;
        let conj = spec
            .as_conjunction()
            .ok_or_else(|| GramError::BadRequest("job request must be a conjunction".into()))?;
        // Resolve the request's own $(VAR) definitions before anything
        // (including policy) sees the description.
        let resolved = spec.substitute(&conj.substitution_bindings());
        if resolved.has_variables() {
            return Err(GramError::BadRequest(
                "job request contains unresolved $(VAR) references".into(),
            ));
        }
        let job = JobDescription::new(crate::jobspec::normalize_job(
            resolved.as_conjunction().expect("substitution preserves shape"),
        ));

        if self.mode == GramMode::Extended {
            let request = AuthzRequest::start(subject.clone(), job.clone())
                .with_restrictions(restriction_values(identity));
            self.engine
                .authorize_within(ctx, &request, Some(trace))
                .map_err(authz_failure_to_error)?;
        }

        // Dynamic-account resolution happens only after authorization so
        // a denied request never consumes a lease.
        let (account, dynamic) = match premapped {
            Some(account) => (account, false),
            None => timed_stage(trace, Stage::GridMap, || {
                self.resolve_account(&subject, requested_account, job.conjunction())
            })?,
        };

        let record = timed_stage(trace, Stage::Enforce, || {
            self.admit(None, subject, job, account, dynamic, work)
        })?;
        self.commit_submit(record)
    }

    /// The commit point of a live submit: the `Submit` record must be
    /// durable before the job is published (and before the caller sees
    /// the contact). The barrier read guard keeps append + publish
    /// atomic with respect to a concurrent checkpoint; on append failure
    /// the admission is rolled back so the unacknowledged job is not
    /// visible either. A checkpoint may land between
    /// [`admit`](Self::admit), which drew the contact index, and this
    /// append: its `NextContact` record already covers the index.
    fn commit_submit(&self, record: JmiRecord) -> Result<JobContact, GramError> {
        let contact = record.contact.clone();
        let journal_record = self.submit_record(&record, self.clock.now());
        {
            let _publish = self.publish_guard();
            if let Err(e) = self.journal_append(&journal_record) {
                let _ = self.apply_effect(&record, JobEffect::Cancel);
                return Err(e);
            }
            self.publish(record);
        }
        self.maybe_checkpoint();
        Ok(contact)
    }

    /// The effect of a `Submit` record, live and on replay: admits `job`
    /// to the scheduler under `account` and builds its Job Manager
    /// Instance record. A live submit passes no `slot` and draws the
    /// next contact index, which becomes the job's scheduler id; replay
    /// passes the journaled index and contact. Either way the counter
    /// moves past the index under the scheduler write lock and only once
    /// the scheduler has accepted the job, so a refused submit consumes
    /// no index and no index is issued twice.
    fn admit(
        &self,
        slot: Option<(u64, JobContact)>,
        owner: DistinguishedName,
        job: JobDescription,
        account: String,
        dynamic: bool,
        work: SimDuration,
    ) -> Result<JmiRecord, GramError> {
        let job_spec = job_spec_from_rsl(job.conjunction(), &account, work)?;
        let id = {
            let mut scheduler = self.scheduler.write();
            let index = slot.as_ref().map_or_else(|| self.next_job.load(Ordering::SeqCst), |s| s.0);
            scheduler.submit(JobId(index), job_spec)?;
            self.next_job.fetch_max(index + 1, Ordering::SeqCst);
            JobId(index)
        };
        let contact = slot.map_or_else(|| JobContact::new(&self.resource_name, id.0), |s| s.1);
        Ok(JmiRecord {
            contact,
            owner,
            jobtag: job
                .conjunction()
                .first_value(gridauthz_rsl::attributes::JOBTAG)
                .and_then(gridauthz_rsl::Value::as_str)
                .map(str::to_string),
            sandbox: self.sandboxing.then(|| Sandbox::new(sandbox_profile_for(job.conjunction()))),
            rsl: job,
            id,
            account,
            work,
            dynamic,
        })
    }

    /// Publishes an admitted job to the job map: the last step of a
    /// submit, after its commit point, and of its replay.
    fn publish(&self, record: JmiRecord) {
        self.jobs.insert(record.id, Arc::new(record));
    }

    /// The record of the job `contact` names: the job its index names,
    /// if that job was issued under exactly this contact. `None` for a
    /// contact this server did not issue, whether its index does not
    /// parse or names a job held under another contact.
    fn record_for(&self, contact: &JobContact) -> Option<Arc<JmiRecord>> {
        let record = self.jobs.get_cloned(&JobId(contact.index()?))?;
        (record.contact == *contact).then_some(record)
    }

    /// Submits an RSL *multi-request* (`+(&(...))(&(...))`) — GT2's
    /// DUROC-style co-allocation — atomically: every sub-request must
    /// authenticate, authorize and schedule, or none runs. `works[i]` is
    /// the i-th sub-job's true computation time.
    ///
    /// # Errors
    ///
    /// Any [`GramError`] from any sub-request; on failure, sub-jobs
    /// already admitted are cancelled before the error returns.
    /// `BadRequest` when the RSL is not a multi-request or `works` has
    /// the wrong length.
    pub fn submit_multi(
        &self,
        chain: &[Certificate],
        rsl_text: &str,
        works: &[SimDuration],
    ) -> Result<Vec<JobContact>, GramError> {
        let spec = gridauthz_rsl::parse(rsl_text)
            .map_err(|e| GramError::BadRequest(format!("RSL parse error: {e}")))?;
        let gridauthz_rsl::Rsl::Multi(parts) = spec else {
            return Err(GramError::BadRequest("expected a '+' multi-request".into()));
        };
        if parts.len() != works.len() {
            return Err(GramError::BadRequest(format!(
                "multi-request has {} parts but {} work durations were supplied",
                parts.len(),
                works.len()
            )));
        }
        let mut contacts = Vec::with_capacity(parts.len());
        for (part, &work) in parts.iter().zip(works) {
            match self.submit(chain, &part.to_string(), None, work) {
                Ok(contact) => contacts.push(contact),
                Err(e) => {
                    // All-or-nothing: roll back what already started.
                    // Each rollback commits (best-effort) like any other
                    // cancellation: the sub-jobs' Submit records are
                    // already durable, so recovery would otherwise
                    // resurrect jobs the multi-request never
                    // acknowledged.
                    self.traced("cancel", |trace| {
                        for contact in &contacts {
                            if let Some(record) = self.record_for(contact) {
                                let _ = self.commit_effect(&record, JobEffect::Cancel, trace);
                            }
                        }
                    });
                    return Err(e);
                }
            }
        }
        Ok(contacts)
    }

    /// Cancels a job (`action = cancel`) and retires it: GT2's Job
    /// Manager Instance exits once its job ends, so every later request
    /// on `contact` answers [`GramError::UnknownJob`]. The job's final
    /// `cancelled` event reaches every [`subscribe`](Self::subscribe)
    /// receiver before the job is forgotten. The contact is never
    /// reissued.
    ///
    /// # Errors
    ///
    /// [`GramError`] on authentication, authorization or scheduler
    /// failure; [`GramError::UnknownJob`] for a contact the server does
    /// not hold, including a job already cancelled.
    pub fn cancel(&self, chain: &[Certificate], contact: &JobContact) -> Result<(), GramError> {
        self.traced("cancel", |trace| {
            let ctx = RequestContext::unbounded();
            self.manage(&ctx, Caller::Chain(chain), contact, Some(JobEffect::Cancel), trace)
                .map(drop)
        })
    }

    /// Queries job status (`action = information`). A job that ended
    /// inside the scheduler reports its terminal state; a cancelled job
    /// was retired and answers [`GramError::UnknownJob`].
    ///
    /// # Errors
    ///
    /// [`GramError`] on authentication, authorization or unknown job.
    pub fn status(
        &self,
        chain: &[Certificate],
        contact: &JobContact,
    ) -> Result<JobReport, GramError> {
        self.traced("status", |trace| {
            self.status_inner(&RequestContext::unbounded(), Caller::Chain(chain), contact, trace)
        })
    }

    fn status_inner(
        &self,
        ctx: &RequestContext,
        caller: Caller<'_>,
        contact: &JobContact,
        trace: &mut DecisionTrace,
    ) -> Result<JobReport, GramError> {
        let record = self.manage(ctx, caller, contact, None, trace)?;
        timed_stage(trace, Stage::Enforce, || self.report_for(&record))
    }

    /// Delivers a management signal (`action = signal`): suspend, resume
    /// or priority change.
    ///
    /// # Errors
    ///
    /// [`GramError`] on authentication, authorization or scheduler
    /// failure.
    pub fn signal(
        &self,
        chain: &[Certificate],
        contact: &JobContact,
        signal: GramSignal,
    ) -> Result<(), GramError> {
        self.traced("signal", |trace| {
            let ctx = RequestContext::unbounded();
            let effect = Some(JobEffect::Signal(signal));
            self.manage(&ctx, Caller::Chain(chain), contact, effect, trace).map(drop)
        })
    }

    /// Runs `body` under a fresh decision trace named `operation`, then
    /// finishes the trace into the registry.
    fn traced<T>(&self, operation: &'static str, body: impl FnOnce(&mut DecisionTrace) -> T) -> T {
        let mut trace = self.telemetry.start_trace(operation, self.clock.now());
        let result = body(&mut trace);
        self.telemetry.finish_trace(trace);
        result
    }

    /// One management request on one job — the PEP in front of the Job
    /// Manager's `information`, `cancel` and `signal` actions (Figure 2):
    /// authenticate, find the job, authorize, then
    /// [`settle`](Self::settle) `effect` (`None` for a status query).
    /// Returns the job's record so a status query can build its report
    /// after the audit.
    fn manage(
        &self,
        ctx: &RequestContext,
        caller: Caller<'_>,
        contact: &JobContact,
        effect: Option<JobEffect>,
        trace: &mut DecisionTrace,
    ) -> Result<Arc<JmiRecord>, GramError> {
        let (identity, record) = self.authenticate_and_find(caller, contact, trace)?;
        let verdict =
            self.authorize_management(ctx, &identity, &record, requested_action(effect), trace);
        self.settle(&identity, &record, effect, verdict, trace)?;
        Ok(record)
    }

    /// The per-job body of every management request, single-job or
    /// swept, once its authorization verdict is in: an authorized
    /// `effect` commits, the outcome is audited, and a request that
    /// asked for an effect may then checkpoint. A status query commits
    /// nothing, so its audit records the verdict.
    fn settle(
        &self,
        identity: &VerifiedIdentity,
        record: &JmiRecord,
        effect: Option<JobEffect>,
        verdict: Result<(), GramError>,
        trace: &mut DecisionTrace,
    ) -> Result<(), GramError> {
        let result = match effect {
            Some(effect) => verdict.and_then(|()| self.commit_effect(record, effect, trace)),
            None => verdict,
        };
        self.record_audit(
            identity.subject(),
            requested_action(effect),
            Some(record.contact.as_str()),
            Some(record.account.as_str()),
            &result,
            trace,
        );
        if effect.is_some() {
            self.maybe_checkpoint();
        }
        result
    }

    /// Commits `effect` on `record`'s job: the scheduler change as one
    /// traced enforce stage, then its journal record. This is the commit
    /// point of every cancel and signal, single-job, swept or a
    /// multi-request's rollback: a crash before the append recovers the
    /// job unchanged (the effect was never acknowledged), a crash after
    /// recovers it changed, and a cancelled job stays retired. The
    /// barrier read guard spans both steps, so no checkpoint captures the
    /// effect without its record.
    fn commit_effect(
        &self,
        record: &JmiRecord,
        effect: JobEffect,
        trace: &mut DecisionTrace,
    ) -> Result<(), GramError> {
        let _publish = self.publish_guard();
        timed_stage(trace, Stage::Enforce, || self.apply_effect(record, effect))?;
        self.journal_append(&effect.record(&record.contact, self.clock.now()))
    }

    /// The effect of a `Cancel` or `Signal` record on `record`'s job,
    /// live and on replay. A cancel also retires the job, as GT2's Job
    /// Manager Instance exits once its job ends: the scheduler sends its
    /// final `cancelled` event to the subscribers, then the job leaves
    /// the scheduler and the job map, and later requests on its contact
    /// answer [`GramError::UnknownJob`].
    fn apply_effect(&self, record: &JmiRecord, effect: JobEffect) -> Result<(), GramError> {
        let id = record.id;
        let mut scheduler = self.scheduler.write();
        match effect {
            JobEffect::Cancel => {
                scheduler.cancel(id)?;
                scheduler.retire(id)?;
                self.jobs.remove(&id);
            }
            JobEffect::Signal(GramSignal::Suspend) => scheduler.suspend(id)?,
            JobEffect::Signal(GramSignal::Resume) => scheduler.resume(id)?,
            JobEffect::Signal(GramSignal::Priority(p)) => scheduler.set_priority(id, p)?,
        }
        Ok(())
    }

    /// Authenticates `caller`. A raw chain pays for full verification as
    /// one traced Authenticate stage; a cache-verified identity skips it
    /// entirely (the hit was counted by [`GramServer::authenticate_pem`])
    /// and is borrowed as-is — the warm path never clones the identity.
    fn authenticate_caller<'c>(
        &self,
        caller: Caller<'c>,
        trace: &mut DecisionTrace,
    ) -> Result<Cow<'c, VerifiedIdentity>, GramError> {
        match caller {
            Caller::Chain(chain) => timed_stage(trace, Stage::Authenticate, || {
                self.gatekeeper.load().authenticate(chain)
            })
            .map(Cow::Owned),
            Caller::Verified(identity) => Ok(Cow::Borrowed(identity)),
        }
    }

    fn authenticate_and_find<'c>(
        &self,
        caller: Caller<'c>,
        contact: &JobContact,
        trace: &mut DecisionTrace,
    ) -> Result<(Cow<'c, VerifiedIdentity>, Arc<JmiRecord>), GramError> {
        let identity = self.authenticate_caller(caller, trace)?;
        // A failed job lookup is deliberately unrecorded: UnknownJob is a
        // routing miss, not an authorization stage.
        let record =
            self.record_for(contact).ok_or_else(|| GramError::UnknownJob(contact.clone()))?;
        Ok((identity, record))
    }

    /// The authorization request for a management action on one job —
    /// shared by the single-job and fan-out paths so both are judged on
    /// identical evidence. DN clones are refcount bumps and the job
    /// description is shared with the record, so the build costs only the
    /// request's own attribute table.
    fn management_request(
        identity: &VerifiedIdentity,
        record: &JmiRecord,
        action: Action,
    ) -> AuthzRequest {
        AuthzRequest::manage_job(
            identity.subject().clone(),
            action,
            record.owner.clone(),
            record.jobtag.clone(),
            record.rsl.clone(),
            record.contact.as_str(),
            restriction_values(identity),
        )
    }

    fn authorize_management(
        &self,
        ctx: &RequestContext,
        identity: &VerifiedIdentity,
        record: &JmiRecord,
        action: Action,
        trace: &mut DecisionTrace,
    ) -> Result<(), GramError> {
        match self.mode {
            GramMode::Gt2 => owner_check(identity, record, trace),
            GramMode::Extended => self
                .engine
                .authorize_within(
                    ctx,
                    &GramServer::management_request(identity, record, action),
                    Some(trace),
                )
                .map_err(authz_failure_to_error),
        }
    }

    /// Authorizes one management action per record. In extended mode the
    /// whole batch is judged through
    /// [`AuthzEngine::authorize_batch_within`], i.e. against **one**
    /// policy snapshot: a VO-wide sweep can never see the pre-reload
    /// policy for some jobs and the post-reload policy for others.
    fn authorize_management_batch(
        &self,
        ctx: &RequestContext,
        identity: &VerifiedIdentity,
        records: &[Arc<JmiRecord>],
        action: Action,
        traces: &mut [DecisionTrace],
    ) -> Vec<Result<(), GramError>> {
        debug_assert_eq!(records.len(), traces.len());
        match self.mode {
            GramMode::Gt2 => records
                .iter()
                .zip(traces.iter_mut())
                .map(|(record, trace)| owner_check(identity, record, trace))
                .collect(),
            GramMode::Extended => {
                let requests: Vec<AuthzRequest> = records
                    .iter()
                    .map(|record| GramServer::management_request(identity, record, action))
                    .collect();
                self.engine
                    .authorize_batch_within(ctx, &requests, traces)
                    .into_iter()
                    .map(|outcome| outcome.map_err(authz_failure_to_error))
                    .collect()
            }
        }
    }

    /// Contacts of non-terminal jobs carrying `tag` — the VO-wide
    /// management working set (requirement 3 of §2).
    pub fn jobs_with_tag(&self, tag: &str) -> Vec<JobContact> {
        self.tagged_records(tag).into_iter().map(|record| record.contact.clone()).collect()
    }

    /// The live records behind [`jobs_with_tag`](Self::jobs_with_tag).
    fn tagged_records(&self, tag: &str) -> Vec<Arc<JmiRecord>> {
        self.scheduler
            .read()
            .jobs_with_tag(tag)
            .into_iter()
            .filter_map(|id| self.jobs.get_cloned(&id))
            .collect()
    }

    /// Cancels every live job carrying `tag` the caller is authorized to
    /// manage — requirement 3 of §2 ("allow actions on sets of jobs
    /// sharing a tag") as one operation. The fan-out is authorized as a
    /// batch under a single policy snapshot, then applied per job;
    /// outcomes come back in working-set order and every job is audited
    /// individually.
    ///
    /// # Errors
    ///
    /// [`GramError::AuthenticationFailed`] when the chain does not
    /// verify; per-job errors are reported in the result vector.
    pub fn cancel_by_tag(
        &self,
        chain: &[Certificate],
        tag: &str,
    ) -> Result<SweepOutcomes<()>, GramError> {
        self.sweep("cancel-by-tag", chain, tag, Some(JobEffect::Cancel), |_, _| Ok(()))
    }

    /// Reports every live job carrying `tag` the caller is authorized to
    /// query — the admin's poll loop over a VO working set, authorized
    /// as one batch under a single policy snapshot.
    ///
    /// # Errors
    ///
    /// [`GramError::AuthenticationFailed`] when the chain does not
    /// verify; per-job errors are reported in the result vector.
    pub fn status_by_tag(
        &self,
        chain: &[Certificate],
        tag: &str,
    ) -> Result<SweepOutcomes<JobReport>, GramError> {
        self.sweep("status-by-tag", chain, tag, None, |record, trace| {
            timed_stage(trace, Stage::Enforce, || self.report_for(record))
        })
    }

    /// A VO-wide sweep: one authentication on the sweep's own trace, one
    /// decision trace per job carrying `tag`, the batch authorized under
    /// a single policy snapshot, then per job the same
    /// [`settle`](Self::settle) as a single-job request, followed by
    /// `answer` for each job it let through.
    fn sweep<T>(
        &self,
        operation: &'static str,
        chain: &[Certificate],
        tag: &str,
        effect: Option<JobEffect>,
        answer: impl Fn(&JmiRecord, &mut DecisionTrace) -> Result<T, GramError>,
    ) -> Result<SweepOutcomes<T>, GramError> {
        self.traced(operation, |sweep| {
            let identity = timed_stage(sweep, Stage::Authenticate, || {
                self.gatekeeper.load().authenticate(chain)
            })?;
            let targets = self.tagged_records(tag);
            let mut traces: Vec<DecisionTrace> = targets
                .iter()
                .map(|_| self.telemetry.start_trace(operation, self.clock.now()))
                .collect();
            let verdicts = self.authorize_management_batch(
                &RequestContext::unbounded(),
                &identity,
                &targets,
                requested_action(effect),
                &mut traces,
            );
            Ok(targets
                .into_iter()
                .zip(verdicts)
                .zip(traces)
                .map(|((record, verdict), mut trace)| {
                    let result = self
                        .settle(&identity, &record, effect, verdict, &mut trace)
                        .and_then(|()| answer(&record, &mut trace));
                    self.telemetry.finish_trace(trace);
                    (record.contact.clone(), result)
                })
                .collect())
        })
    }

    fn report_for(&self, record: &JmiRecord) -> Result<JobReport, GramError> {
        let status = self.scheduler.read().status(record.id)?;
        Ok(JobReport {
            contact: record.contact.clone(),
            owner: record.owner.clone(),
            jobtag: record.jobtag.clone(),
            account: record.account.clone(),
            state: status.state,
            executed: status.executed,
            submitted: status.submitted,
        })
    }

    /// Appends one audit entry. `account` is the target job's local
    /// account when the caller already holds the record — passing it
    /// through avoids re-locking the job map for a second lookup on
    /// every audited request.
    fn record_audit<T>(
        &self,
        subject: &DistinguishedName,
        action: Action,
        job: Option<&str>,
        account: Option<&str>,
        result: &Result<T, GramError>,
        trace: &DecisionTrace,
    ) {
        let account = account.map(str::to_string);
        self.push_audit(AuditRecord {
            at: self.clock.now(),
            subject: subject.clone(),
            action,
            job: job.map(str::to_string),
            account,
            outcome: match result {
                Ok(_) => AuditOutcome::Permitted,
                Err(e) => AuditOutcome::Refused(e.to_string()),
            },
            trace_id: Some(trace.id()),
            degraded: trace.is_degraded(),
            note: None,
        });
    }

    /// Journals an audit record (best-effort: the frame rides the next
    /// committed batch rather than forcing its own fsync — audit
    /// durability must never fail or slow the audited operation, and
    /// the preceding mutation record is already durable) and inserts it
    /// into the bounded in-memory ring. A record the full ring evicts was already
    /// rotated into the journal here, so eviction only bumps the
    /// [`Gauge::AuditEvicted`] counter instead of silently dropping it.
    fn push_audit(&self, record: AuditRecord) {
        let _publish = self.publish_guard();
        if let Some(durability) = &self.durability {
            let _ = durability.journal.append_relaxed(&audit_record_to_journal(&record).encode());
            durability.appends_since_checkpoint.fetch_add(1, Ordering::Relaxed);
        }
        if self.audit.lock().record(record).is_some() {
            self.audit_evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The server's telemetry registry — live counters, histograms,
    /// gauges and recent decision traces for the whole pipeline.
    pub fn telemetry(&self) -> &Arc<TelemetryRegistry> {
        &self.telemetry
    }

    /// A consistent registry snapshot with the sampled gauges (cache
    /// hit/miss/occupancy, live jobs) refreshed first.
    pub fn telemetry_snapshot(&self) -> RegistrySnapshot {
        self.engine.refresh_telemetry_gauges();
        self.telemetry.set_gauge(Gauge::LiveJobs, self.jobs.len() as u64);
        if let Some(durability) = &self.durability {
            self.telemetry.set_gauge(Gauge::JournalBytes, durability.journal.stats().durable_bytes);
        }
        self.telemetry.set_gauge(Gauge::AuditEvicted, self.audit_evicted.load(Ordering::Relaxed));
        self.telemetry.snapshot()
    }

    /// A snapshot of the audit log, oldest first. Breaker transitions
    /// of supervised callouts that happened since the last snapshot are
    /// folded in first, so the returned log carries one administrative
    /// record per state change.
    pub fn audit_snapshot(&self) -> Vec<AuditRecord> {
        self.sync_supervision_audit();
        self.audit.lock().records().cloned().collect()
    }

    /// Number of refusals currently retained in the audit log.
    pub fn audit_refusal_count(&self) -> usize {
        self.sync_supervision_audit();
        self.audit.lock().refusals().count()
    }

    /// Supervision state (breaker position, transitions, degradation
    /// counters) of every supervised callout in the engine's chain, in
    /// invocation order.
    pub fn supervision_reports(&self) -> Vec<(String, SupervisionReport)> {
        self.engine.supervision_reports()
    }

    /// Copies breaker transitions the audit log has not seen yet into
    /// it, one administrative record per transition. Transitions into
    /// the open state are recorded as refusals (the callout stopped
    /// answering); recoveries (half-open, closed) as permitted records.
    /// Idempotent: each callout's transitions are tracked by their
    /// monotone sequence number, and `supervision_seen` stays locked
    /// across the pushes so concurrent syncs copy each transition once.
    /// Each record goes through [`GramServer::push_audit`], which takes
    /// the barrier before the audit lock, as every mutator does.
    fn sync_supervision_audit(&self) {
        let reports = self.engine.supervision_reports();
        if reports.is_empty() {
            return;
        }
        let subject: DistinguishedName =
            "/CN=gram-supervision".parse().expect("static supervision DN parses");
        let mut seen = self.supervision_seen.lock();
        for (name, report) in reports {
            let last = seen.get(&name).copied().unwrap_or(0);
            let mut newest = last;
            for transition in report.transitions.iter().filter(|t| t.seq > last) {
                newest = newest.max(transition.seq);
                let note =
                    format!("callout {name}: breaker {} -> {}", transition.from, transition.to);
                self.push_audit(AuditRecord {
                    at: transition.at,
                    subject: subject.clone(),
                    action: Action::Information,
                    job: None,
                    account: None,
                    outcome: match transition.to {
                        BreakerState::Open => AuditOutcome::Refused(note.clone()),
                        BreakerState::HalfOpen | BreakerState::Closed => AuditOutcome::Permitted,
                    },
                    trace_id: None,
                    degraded: transition.to == BreakerState::Open,
                    note: Some(note),
                });
            }
            seen.insert(name, newest);
        }
    }

    /// Resolves the local account per the configured
    /// [`AccountStrategy`]: grid-mapfile entries always win; the dynamic
    /// pool (when configured) serves unmapped identities with a lease
    /// configured from the request (§7's trusted-service provisioning).
    fn resolve_account(
        &self,
        subject: &DistinguishedName,
        requested_account: Option<&str>,
        job: &Conjunction,
    ) -> Result<(String, bool), GramError> {
        let mapped = self.gatekeeper.load().authorize_and_map(subject, requested_account);
        match (mapped, &self.accounts) {
            (Ok(account), _) => Ok((account, false)),
            (Err(e @ GramError::AccountNotPermitted { .. }), _) => Err(e),
            (Err(e), Accounts::GridMapOnly) => Err(e),
            (Err(_), Accounts::DynamicPool(pool)) => {
                if let Some(account) = requested_account {
                    return Err(GramError::AccountNotPermitted {
                        subject: subject.clone(),
                        account: account.to_string(),
                    });
                }
                let mut pool = pool.lock();
                let (account, expires) = {
                    let lease = pool
                        .lease(subject, request_groups(job), self.clock.now())
                        .map_err(|e| GramError::ProvisioningFailed(e.to_string()))?;
                    (lease.account.name().to_string(), lease.expires)
                };
                let grant = JournalRecord::LeaseGrant {
                    subject: subject.to_string(),
                    account: account.clone(),
                    expires_micros: expires.as_micros(),
                };
                // Commit point for the lease: a grant that cannot be
                // made durable is returned to the pool before the
                // provisioning error surfaces, so a recovered server
                // neither leaks the account nor double-grants it.
                if let Err(e) = self.journal_append(&grant) {
                    pool.release(subject);
                    return Err(e);
                }
                Ok((account, true))
            }
        }
    }

    /// Checks a runtime operation of a running job against its sandbox
    /// (no-op when sandboxing is disabled). The local operating system
    /// would perform these checks in a deployed system; the simulation
    /// surfaces them so enforcement coverage is testable.
    ///
    /// # Errors
    ///
    /// [`GramError::UnknownJob`] or [`GramError::SandboxViolation`].
    pub fn check_job_operation(
        &self,
        contact: &JobContact,
        operation: JobOperation,
    ) -> Result<(), GramError> {
        let unknown = || GramError::UnknownJob(contact.clone());
        let id = JobId(contact.index().ok_or_else(unknown)?);
        self.jobs
            .update(&id, |record| {
                if record.contact != *contact {
                    return Err(unknown());
                }
                // Copy-on-write through the shared record: concurrent
                // readers keep their snapshot, the map gets the updated
                // sandbox state.
                let Some(sandbox) = Arc::make_mut(record).sandbox.as_mut() else {
                    return Ok(());
                };
                let result = match operation {
                    JobOperation::Exec(executable) => sandbox.check_exec(&executable),
                    JobOperation::FileRead(path) => sandbox.check_path(&path, false),
                    JobOperation::FileWrite(path) => sandbox.check_path(&path, true),
                    JobOperation::AllocateMemory(mb) => sandbox.check_memory(mb),
                    JobOperation::SpawnProcesses(n) => sandbox.check_processes(n),
                    JobOperation::ConsumeCpu(d) => sandbox.consume_cpu(d),
                };
                result.map_err(|v| GramError::SandboxViolation(v.to_string()))
            })
            .ok_or_else(unknown)?
    }

    /// Violations recorded by a job's sandbox so far (audit).
    ///
    /// # Errors
    ///
    /// [`GramError::UnknownJob`].
    pub fn sandbox_violation_count(&self, contact: &JobContact) -> Result<usize, GramError> {
        self.record_for(contact)
            .map(|record| record.sandbox.as_ref().map_or(0, |s| s.violations().len()))
            .ok_or_else(|| GramError::UnknownJob(contact.clone()))
    }

    /// Current cluster utilization (0.0–1.0).
    pub fn utilization(&self) -> f64 {
        self.scheduler.read().utilization()
    }

    /// Processes scheduler events up to the shared clock's current
    /// instant (multi-component simulations drive the clock externally).
    pub fn pump(&self) {
        self.scheduler.write().catch_up();
    }

    /// Subscribes to job lifecycle transitions — the JMI's
    /// progress-monitoring duty (§4.2), which GT2 forwarded to the
    /// clients that registered a callback. The receiver gets every
    /// transition from now on and none from before; an event's `job` is
    /// the contact index ([`JobContact::index`]). A cancelled job's final
    /// `cancelled` event is sent before the job is retired, GT2's last
    /// callback before the JMI exits. Dropping the receiver ends the
    /// subscription; with no subscriber, no event is kept.
    pub fn subscribe(&self) -> Receiver<JobEvent> {
        self.scheduler.write().subscribe()
    }

    /// Advances the shared clock to `t`, processing scheduler events in
    /// order.
    pub fn run_until(&self, t: SimTime) {
        self.scheduler.write().run_until(t);
    }

    /// Runs the scheduler dry (all submitted jobs reach terminal states).
    pub fn drain(&self) -> SimTime {
        self.scheduler.write().drain()
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Appends one record to the journal and waits for its group-commit
    /// fsync — the commit point every acknowledged mutation passes
    /// *before* its acknowledgement. No-op on memory-only servers.
    ///
    /// # Errors
    ///
    /// [`GramError::AuthorizationSystemFailure`]: the mutation could
    /// not be made durable and must not be acknowledged.
    fn journal_append(&self, record: &JournalRecord) -> Result<(), GramError> {
        let Some(durability) = &self.durability else {
            return Ok(());
        };
        let start = Instant::now();
        let result = durability.journal.append(&record.encode());
        let nanos = elapsed_nanos(start);
        match result {
            Ok(_) => {
                self.telemetry.record_timed(Stage::JournalAppend, labels::PERMIT, nanos);
                let fsyncs = durability.journal.stats().fsyncs;
                let seen = durability.fsyncs_seen.fetch_max(fsyncs, Ordering::Relaxed);
                for _ in seen..fsyncs {
                    self.telemetry.record(Stage::JournalAppend, labels::FSYNC);
                }
                durability.appends_since_checkpoint.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                self.telemetry.record_timed(Stage::JournalAppend, labels::AUTHZ_SYSTEM, nanos);
                Err(durability_error(format!("append failed: {e}")))
            }
        }
    }

    /// The read side of [`Durability::barrier`], held by a mutator from
    /// its effect through its append to its publication; `None` on
    /// memory-only servers.
    fn publish_guard(&self) -> Option<parking_lot::RwLockReadGuard<'_, ()>> {
        self.durability.as_ref().map(|durability| durability.barrier.read())
    }

    /// Checkpoints when the configured append budget is spent. Called
    /// at the end of mutation entry points, where no barrier or admin
    /// lock is held. The caller that finds the budget spent claims it by
    /// zeroing the count atomically, so two lanes crossing it together
    /// take one checkpoint between them, not two.
    fn maybe_checkpoint(&self) {
        let Some(durability) = &self.durability else {
            return;
        };
        let every = durability.snapshot_every;
        let claimed = every != 0
            && durability
                .appends_since_checkpoint
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| (n >= every).then_some(0))
                .is_ok();
        if claimed {
            // Best-effort: a failed checkpoint leaves the journal longer
            // than intended but never loses state (the snapshot store
            // replaces atomically; compaction only drops covered
            // frames). A failure that poisons the journal surfaces on
            // the next mutation's append.
            let _ = self.checkpoint();
        }
    }

    /// Serializes the server's durable state into a snapshot, saves it,
    /// and compacts the journal through the snapshot's covering
    /// sequence number. No-op on memory-only servers. The append budget
    /// restarts from the appends the snapshot does not cover, and each
    /// checkpoint is one timed [`labels::CHECKPOINT`] sample on the
    /// [`Stage::JournalAppend`] stage.
    ///
    /// The snapshot is *logical*: a record sequence re-expressing the
    /// current state in the same vocabulary the journal uses, so
    /// recovery has one apply path for both. Save-before-compact
    /// ordering makes a crash anywhere in between safe — the old
    /// journal frames a torn snapshot would have covered are still
    /// present.
    ///
    /// # Errors
    ///
    /// [`GramError::AuthorizationSystemFailure`] when the snapshot
    /// cannot be saved or the journal cannot be compacted.
    pub fn checkpoint(&self) -> Result<(), GramError> {
        let Some(durability) = &self.durability else {
            return Ok(());
        };
        let start = Instant::now();
        let _admin = self.admin.lock();
        let (covers, records) = {
            let _exclusive = durability.barrier.write();
            // Drain relaxed riders first so the snapshot's covering
            // sequence includes them — otherwise a rider flushed after
            // compaction would replay on top of a snapshot that already
            // contains it.
            durability
                .journal
                .flush()
                .map_err(|e| durability_error(format!("flush failed: {e}")))?;
            // Every append counted so far is covered; the ones counted
            // from here on, while the snapshot saves, are not.
            durability.appends_since_checkpoint.store(0, Ordering::Relaxed);
            (durability.journal.committed_seq(), self.serialize_state())
        };
        let blob = SnapshotBlob { covers_seq: covers, payload: encode_records(&records) };
        durability
            .snapshots
            .lock()
            .save(&blob)
            .map_err(|e| durability_error(format!("snapshot save failed: {e}")))?;
        durability
            .journal
            .compact_through(covers)
            .map_err(|e| durability_error(format!("compaction failed: {e}")))?;
        self.telemetry.set_gauge(Gauge::JournalBytes, durability.journal.stats().durable_bytes);
        self.telemetry.record_timed(Stage::JournalAppend, labels::CHECKPOINT, elapsed_nanos(start));
        Ok(())
    }

    /// The server's current state as a journal-record sequence (the
    /// snapshot payload): the gatekeeper, the leases, the next contact
    /// index, every live job and the audit ring. Cancelled jobs are
    /// retired and jobs that ended inside the scheduler are left out,
    /// so a snapshot grows with the live jobs, not with history. Caller
    /// holds the barrier write guard.
    fn serialize_state(&self) -> Vec<JournalRecord> {
        let mut records = Vec::new();
        let gatekeeper = self.gatekeeper.load();
        records.push(JournalRecord::SetGridmap { entries: gridmap_entries(gatekeeper.gridmap()) });
        let mut revocations: Vec<(String, u64)> = gatekeeper
            .trust()
            .revocations()
            .map(|(issuer, serial)| (issuer.to_string(), serial))
            .collect();
        revocations.sort();
        for (issuer, serial) in revocations {
            records.push(JournalRecord::RevokeCredential { issuer, serial });
        }
        if let Accounts::DynamicPool(pool) = &self.accounts {
            let pool = pool.lock();
            let mut leases: Vec<(String, String, u64)> = pool
                .active_leases()
                .map(|lease| {
                    (
                        lease.subject.to_string(),
                        lease.account.name().to_string(),
                        lease.expires.as_micros(),
                    )
                })
                .collect();
            leases.sort();
            for (subject, account, expires_micros) in leases {
                records.push(JournalRecord::LeaseGrant { subject, account, expires_micros });
            }
        }
        let mut jobs: Vec<Arc<JmiRecord>> = Vec::new();
        self.jobs.for_each(|_, record| jobs.push(Arc::clone(record)));
        jobs.sort_by_key(|record| record.id);
        {
            // Read under the scheduler lock, which `admit` holds from
            // drawing an index to advancing the counter past it.
            let scheduler = self.scheduler.read();
            let next = self.next_job.load(Ordering::SeqCst);
            records.push(JournalRecord::NextContact { index: next });
            for record in &jobs {
                let Ok(status) = scheduler.status(record.id) else { continue };
                if status.state.is_terminal() {
                    continue;
                }
                records.push(self.submit_record(record, status.submitted));
                // A suspended job is re-expressed as the signal that
                // suspended it, so one replay path (Submit then Signal)
                // covers snapshot and tail alike. Execution progress is
                // not snapshotted (restart semantics).
                if let JobState::Suspended { .. } = status.state {
                    let suspend = JobEffect::Signal(GramSignal::Suspend);
                    records.push(suspend.record(&record.contact, status.submitted));
                }
            }
        }
        for record in self.audit.lock().records() {
            records.push(audit_record_to_journal(record));
        }
        records
    }

    /// The journal record making one admitted job durable.
    fn submit_record(&self, record: &JmiRecord, at: SimTime) -> JournalRecord {
        JournalRecord::Submit {
            index: record.id.0,
            contact: record.contact.as_str().to_string(),
            owner: record.owner.to_string(),
            rsl: gridauthz_rsl::Rsl::Conjunction(record.rsl.conjunction().clone()).to_string(),
            account: record.account.clone(),
            dynamic: record.dynamic,
            work_micros: record.work.as_micros(),
            at_micros: at.as_micros(),
        }
    }

    /// Re-applies one recovered record through the same effect functions
    /// the live path calls. Recovery attaches the journal only after
    /// replay, so those functions journal nothing here. Replay is
    /// idempotent: a record the snapshot already expressed (the benign
    /// snapshot/tail overlap) is skipped or re-applies harmlessly.
    fn apply_recovered(&self, record: &JournalRecord) -> Result<(), GramError> {
        match record {
            JournalRecord::Submit {
                index,
                contact,
                owner,
                rsl,
                account,
                dynamic,
                work_micros,
                at_micros: _,
            } => {
                if self.jobs.get_cloned(&JobId(*index)).is_some() {
                    return Ok(());
                }
                let owner: DistinguishedName = owner
                    .parse()
                    .map_err(|e| durability_error(format!("recovered owner DN: {e}")))?;
                let spec = gridauthz_rsl::parse(rsl)
                    .map_err(|e| durability_error(format!("recovered RSL: {e}")))?;
                let conj = spec
                    .as_conjunction()
                    .ok_or_else(|| durability_error("recovered RSL is not a conjunction".into()))?;
                let job = JobDescription::new(crate::jobspec::normalize_job(conj));
                let slot = Some((*index, JobContact::from_wire(contact)));
                let work = SimDuration::from_micros(*work_micros);
                let admitted =
                    self.admit(slot, owner, job, account.clone(), *dynamic, work).map_err(|e| {
                        durability_error(format!("recovered job {contact} rejected: {e}"))
                    })?;
                self.publish(admitted);
            }
            JournalRecord::Cancel { contact, at_micros: _ } => {
                self.replay_effect(contact, JobEffect::Cancel);
            }
            JournalRecord::Signal { contact, signal, at_micros: _ } => {
                self.replay_effect(contact, JobEffect::Signal(*signal));
            }
            JournalRecord::LeaseGrant { subject, account, expires_micros } => {
                if let Accounts::DynamicPool(pool) = &self.accounts {
                    let subject: DistinguishedName = subject
                        .parse()
                        .map_err(|e| durability_error(format!("recovered lease DN: {e}")))?;
                    // A refused restore (unknown or double-booked
                    // account) is conservative: the reclamation pass
                    // reconciles the table against live jobs.
                    let _ = pool.lock().restore_lease(
                        &subject,
                        account,
                        SimTime::from_micros(*expires_micros),
                    );
                }
            }
            JournalRecord::LeaseRelease { subject } => {
                if let Accounts::DynamicPool(pool) = &self.accounts {
                    let subject: DistinguishedName = subject
                        .parse()
                        .map_err(|e| durability_error(format!("recovered lease DN: {e}")))?;
                    pool.lock().release(&subject);
                }
            }
            JournalRecord::SetGridmap { entries } => {
                let mut file = GridMapFile::new();
                for (subject, accounts) in entries {
                    let subject: DistinguishedName = subject
                        .parse()
                        .map_err(|e| durability_error(format!("recovered gridmap DN: {e}")))?;
                    file.insert(gridauthz_credential::GridMapEntry::new(subject, accounts.clone()));
                }
                self.commit_gatekeeper(record, |gatekeeper| gatekeeper.set_gridmap(file))?;
            }
            JournalRecord::RevokeCredential { issuer, serial } => {
                let issuer: DistinguishedName = issuer
                    .parse()
                    .map_err(|e| durability_error(format!("recovered issuer DN: {e}")))?;
                self.commit_gatekeeper(record, |gatekeeper| {
                    gatekeeper.trust_mut().revoke(&issuer, *serial);
                })?;
            }
            JournalRecord::Audit { .. } => self.push_audit(journal_to_audit(record)?),
            JournalRecord::NextContact { index } => {
                self.next_job.fetch_max(*index, Ordering::SeqCst);
            }
        }
        Ok(())
    }

    /// Replays a `Cancel` or `Signal` record. A job no record names any
    /// more was retired (or ended) before the snapshot; scheduler
    /// refusals are ignored because the job may already be terminal
    /// (idempotent replay).
    fn replay_effect(&self, contact: &str, effect: JobEffect) {
        if let Some(record) = self.record_for(&JobContact::from_wire(contact)) {
            let _ = self.apply_effect(&record, effect);
        }
    }

    /// Releases every dynamic-account lease backing no live
    /// (non-terminal) job — the post-replay reconciliation that keeps a
    /// crash between lease grant and job submit from leaking the
    /// account or double-granting it after restart.
    fn reclaim_orphaned_leases(&self) {
        let Accounts::DynamicPool(pool) = &self.accounts else {
            return;
        };
        let mut dynamic_jobs: Vec<(JobId, String)> = Vec::new();
        self.jobs.for_each(|_, record| {
            if record.dynamic {
                dynamic_jobs.push((record.id, record.account.clone()));
            }
        });
        let mut live = std::collections::HashSet::new();
        {
            let scheduler = self.scheduler.read();
            for (id, account) in dynamic_jobs {
                if scheduler.status(id).is_ok_and(|status| !status.state.is_terminal()) {
                    live.insert(account);
                }
            }
        }
        let mut pool = pool.lock();
        let orphaned: Vec<DistinguishedName> = pool
            .active_leases()
            .filter(|lease| !live.contains(lease.account.name()))
            .map(|lease| lease.subject.clone())
            .collect();
        for subject in orphaned {
            pool.release(&subject);
        }
    }

    /// True when the server holds a record for `contact` — the recovery
    /// oracle's existence check (operator-local, unauthenticated, like
    /// [`GramServer::audit_snapshot`]). False for a cancelled job, which
    /// was retired.
    pub fn job_exists(&self, contact: &JobContact) -> bool {
        self.record_for(contact).is_some()
    }

    /// The scheduler state of `contact`'s job (operator-local). `None`
    /// for a contact this server did not issue and for a cancelled job,
    /// which was retired; a job that ended inside the scheduler reports
    /// its terminal state.
    pub fn job_state(&self, contact: &JobContact) -> Option<JobState> {
        let id = self.record_for(contact)?.id;
        self.scheduler.read().status(id).ok().map(|status| status.state)
    }

    /// Live dynamic-account leases, when a pool is configured
    /// (operator-local).
    pub fn active_lease_count(&self) -> Option<usize> {
        match &self.accounts {
            Accounts::GridMapOnly => None,
            Accounts::DynamicPool(pool) => Some(pool.lock().active_leases().count()),
        }
    }

    /// Number of Job Manager Instance records the server holds
    /// (operator-local): every acknowledged job not yet cancelled,
    /// since a cancel retires its job. The recovery oracle's phantom-job
    /// check: a recovered server must hold exactly the acknowledged live
    /// jobs, no more.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Audit records evicted from the bounded in-memory ring so far.
    pub fn audit_evicted(&self) -> u64 {
        self.audit_evicted.load(Ordering::Relaxed)
    }

    /// Journal counters (appends, fsyncs, durable bytes); `None` on
    /// memory-only servers.
    pub fn journal_stats(&self) -> Option<gridauthz_journal::JournalStats> {
        self.durability.as_ref().map(|durability| durability.journal.stats())
    }

    /// Authenticates the PEM-armored chain `pem_text` through the
    /// authentication cache: the exact armor text is looked up first,
    /// and only a miss pays for PEM decoding and chain verification.
    /// Entries are stamped with the generation of the gatekeeper
    /// snapshot that verified them and carry the chain's composite
    /// validity window, so revocations, trust-store changes and
    /// credential expiry all force a fresh verification. A grid-mapfile
    /// swap does not: the grid-map is applied per request by
    /// [`Gatekeeper::authorize_and_map`], after authentication. Failed
    /// verifications are never cached.
    ///
    /// # Errors
    ///
    /// [`GramError::AuthenticationFailed`] for bad armor or a chain the
    /// current trust state rejects.
    pub fn authenticate_pem(&self, pem_text: &str) -> Result<Arc<AuthEntry>, GramError> {
        let start = Instant::now();
        let gatekeeper = self.gatekeeper.load();
        let generation = gatekeeper.generation();
        let now = self.clock.now();
        if let Some(entry) = self.auth_cache.lookup(pem_text, generation, now) {
            self.telemetry.record_timed(Stage::Authenticate, labels::HIT, elapsed_nanos(start));
            return Ok(entry);
        }
        let verified = gridauthz_credential::pem::decode_chain(pem_text)
            .map_err(GramError::AuthenticationFailed)
            .and_then(|chain| {
                let identity = gatekeeper.authenticate(&chain)?;
                Ok(Arc::new(AuthEntry::new(generation, pem_text, &chain, identity)))
            });
        let label = match &verified {
            Ok(entry) => {
                self.auth_cache.insert(Arc::clone(entry), now);
                labels::MISS
            }
            Err(e) => error_label(e),
        };
        self.telemetry.record_timed(Stage::Authenticate, label, elapsed_nanos(start));
        verified
    }

    /// Hit/miss counters of the authentication cache.
    pub fn auth_cache_stats(&self) -> AuthCacheStats {
        self.auth_cache.stats()
    }

    /// A [`RequestContext`] for `class` stamped against this server's
    /// clock, with the class's default budget and a telemetry-allocated
    /// trace id — what callers without a front-end (typed API wrappers,
    /// tests, the simulator) use to enter the `*_within` paths.
    pub fn request_context(&self, class: AdmissionClass) -> RequestContext {
        RequestContext::new(Arc::new(self.clock.clone()), class)
            .with_trace_id(self.telemetry.allocate_trace_id())
    }

    /// Serves a fully self-contained wire message: PEM-armored credential
    /// chain (see [`gridauthz_credential::pem`]) followed by the
    /// wire-encoded request. This is the complete network surface — the
    /// caller ships text, nothing else crosses the boundary.
    pub fn handle_wire_pem(&self, message: &str) -> String {
        let mut out = String::new();
        self.handle_wire_pem_into(message, &mut out);
        out
    }

    /// [`GramServer::handle_wire_pem`] against a caller-owned buffer —
    /// the front-end's hot path. The response text is appended to `out`
    /// and the outcome's telemetry label is returned so the caller can
    /// time the whole service under it. Runs unbounded: no deadline, no
    /// admission accounting.
    pub fn handle_wire_pem_into(&self, message: &str, out: &mut String) -> &'static str {
        self.handle_wire_pem_within(&RequestContext::unbounded(), message, out)
    }

    /// [`GramServer::handle_wire_pem_into`] under a request lifecycle
    /// context: the frame is parsed, then served as the TCP front-end
    /// serves it. The context's deadline is enforced before
    /// authentication and again before dispatch (an expired request is
    /// answered with a fast `BUSY` frame, never evaluated), its queue
    /// wait becomes the decision trace's [`Stage::Admission`] span, and
    /// its trace id (when assigned) becomes the decision trace's id — one
    /// id joins the front-end, engine, callout and audit views of the
    /// request. A malformed frame is answered with its typed decode error
    /// before any authentication.
    pub fn handle_wire_pem_within(
        &self,
        ctx: &RequestContext,
        message: &str,
        out: &mut String,
    ) -> &'static str {
        match self.parse_frame(message) {
            Ok(frame) => self.serve_frame(ctx, &frame, out),
            Err(e) => wire::answer_refusal(out, &e),
        }
    }

    /// Parses one frame (see [`crate::wire`]), timed as the frame's one
    /// [`Stage::FrameDecode`] sample; a failure is classified under its
    /// decode label ([`wire::decode_error_label`]).
    pub(crate) fn parse_frame<'a>(
        &self,
        message: &'a str,
    ) -> Result<ParsedFrame<'a>, WireDecodeError> {
        let start = Instant::now();
        let parsed = wire::parse_frame(message);
        let label = match &parsed {
            Ok(_) => labels::PERMIT,
            Err(e) => wire::decode_error_label(e),
        };
        self.telemetry.record_timed(Stage::FrameDecode, label, elapsed_nanos(start));
        parsed
    }

    /// Answers an expired request with the fast `BUSY` frame, recording
    /// the refusal as an [`Stage::Admission`] deadline-expired span under
    /// the request's own trace id so the refusal is attributable.
    fn refuse_expired(&self, ctx: &RequestContext, out: &mut String) -> &'static str {
        let mut trace =
            self.telemetry.start_trace_with_id(ctx.trace_id(), "expired", self.clock.now());
        trace.record(Stage::Admission, labels::EXPIRED, queue_wait_nanos(ctx));
        self.telemetry.finish_trace(trace);
        wire::encode_busy(out, ctx.class().default_budget().as_micros());
        labels::EXPIRED
    }

    /// Serves one parsed frame under `ctx` as the typed API would:
    /// authenticates its PEM chain through the authentication cache,
    /// dispatches the request and appends the answer to `out`. Returns
    /// the outcome's telemetry label.
    pub(crate) fn serve_frame(
        &self,
        ctx: &RequestContext,
        frame: &ParsedFrame<'_>,
        out: &mut String,
    ) -> &'static str {
        if ctx.expired() {
            return self.refuse_expired(ctx, out);
        }
        let entry = match self.authenticate_pem(frame.pem) {
            Ok(entry) => entry,
            Err(e) => {
                wire::answer_failure(out, &e);
                return error_label(&e);
            }
        };
        // Authentication may have consumed the rest of the budget: check
        // once more on the way into the engine, so an expired request is
        // answered without paying for policy evaluation.
        if ctx.expired() {
            return self.refuse_expired(ctx, out);
        }
        let caller = Caller::Verified(entry.identity());
        let operation = match frame.request {
            WireRequestRef::Submit { .. } => "submit",
            WireRequestRef::Cancel { .. } => "cancel",
            WireRequestRef::Status { .. } => "status",
            WireRequestRef::Signal { .. } => "signal",
        };
        let mut trace =
            self.telemetry.start_trace_with_id(ctx.trace_id(), operation, self.clock.now());
        if ctx.queue_wait() > SimDuration::ZERO {
            trace.record(Stage::Admission, labels::PERMIT, queue_wait_nanos(ctx));
        }
        let written = match frame.request {
            WireRequestRef::Submit { rsl, account, work } => self
                .submit_inner(ctx, caller, rsl, account, work, &mut trace)
                .map(|contact| wire::encode_submitted(out, contact.as_str())),
            WireRequestRef::Cancel { contact } => {
                let contact = JobContact::from_wire(contact);
                self.manage(ctx, caller, &contact, Some(JobEffect::Cancel), &mut trace)
                    .map(|_| wire::encode_done(out))
            }
            WireRequestRef::Status { contact } => {
                let contact = JobContact::from_wire(contact);
                self.status_inner(ctx, caller, &contact, &mut trace).map(|report| {
                    wire::encode_report(
                        out,
                        report.contact.as_str(),
                        &report.owner,
                        &report.account,
                        report.state.label(),
                        report.executed.as_micros(),
                        report.jobtag.as_deref(),
                    )
                })
            }
            WireRequestRef::Signal { contact, signal } => {
                let contact = JobContact::from_wire(contact);
                self.manage(ctx, caller, &contact, Some(JobEffect::Signal(signal)), &mut trace)
                    .map(|_| wire::encode_done(out))
            }
        };
        self.telemetry.finish_trace(trace);
        match written {
            Ok(written) => {
                wire::or_fallback(out, written);
                labels::PERMIT
            }
            Err(e) => {
                wire::answer_failure(out, &e);
                error_label(&e)
            }
        }
    }
}

/// A context's queue wait as span nanoseconds (saturating).
pub(crate) fn queue_wait_nanos(ctx: &RequestContext) -> u64 {
    ctx.queue_wait().as_micros().saturating_mul(1_000)
}

/// A journaled change to one job's scheduler state: what the `cancel`
/// and `signal` actions commit and what `Cancel` and `Signal` records
/// replay.
#[derive(Debug, Clone, Copy)]
enum JobEffect {
    Cancel,
    Signal(GramSignal),
}

impl JobEffect {
    /// The journal record that makes the effect on `contact` durable.
    fn record(self, contact: &JobContact, at: SimTime) -> JournalRecord {
        let contact = contact.as_str().to_string();
        let at_micros = at.as_micros();
        match self {
            JobEffect::Cancel => JournalRecord::Cancel { contact, at_micros },
            JobEffect::Signal(signal) => JournalRecord::Signal { contact, signal, at_micros },
        }
    }
}

/// The policy action a management request asks for: `information` when
/// it changes nothing.
fn requested_action(effect: Option<JobEffect>) -> Action {
    match effect {
        None => Action::Information,
        Some(JobEffect::Cancel) => Action::Cancel,
        Some(JobEffect::Signal(_)) => Action::Signal,
    }
}

/// GT2 management authorization (§4.2): "the Grid identity of the user
/// making the request must match the Grid identity of the user who
/// initiated the job." The owner check *is* GT2's combine stage.
fn owner_check(
    identity: &VerifiedIdentity,
    record: &JmiRecord,
    trace: &mut DecisionTrace,
) -> Result<(), GramError> {
    timed_stage(trace, Stage::Combine, || {
        if identity.subject() == &record.owner {
            Ok(())
        } else {
            Err(GramError::NotAuthorized(DenyReason::NotJobOwner))
        }
    })
}

fn restriction_values(identity: &VerifiedIdentity) -> Vec<String> {
    identity.restrictions().iter().map(|e| e.value.clone()).collect()
}

fn authz_failure_to_error(failure: AuthzFailure) -> GramError {
    match failure {
        AuthzFailure::Denied(reason) => GramError::NotAuthorized(reason),
        AuthzFailure::SystemError(msg) => GramError::AuthorizationSystemFailure(msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridauthz_core::{paper, CombinedPdp, Combiner, PdpCallout, PolicyOrigin, PolicySource};
    use gridauthz_credential::{CertificateAuthority, Credential, GridMapEntry};
    use gridauthz_scheduler::JobState;
    use std::sync::Arc;

    struct Fixture {
        clock: SimClock,
        bo: Credential,
        kate: Credential,
        outsider: Credential,
        server: GramServer,
    }

    /// Shared credential material: one CA, three identities, all mapped.
    struct Identities {
        clock: SimClock,
        trust: TrustStore,
        gridmap: GridMapFile,
        bo: Credential,
        kate: Credential,
        outsider: Credential,
    }

    fn identities() -> Identities {
        let clock = SimClock::new();
        let ca = CertificateAuthority::new_root("/O=Grid/CN=CA", &clock).unwrap();
        let mut trust = TrustStore::new();
        trust.add_anchor(ca.certificate().clone());
        let day = SimDuration::from_hours(24);
        let bo = ca.issue_identity(paper::BO_LIU_DN, day).unwrap();
        let kate = ca.issue_identity(paper::KATE_KEAHEY_DN, day).unwrap();
        let outsider = ca.issue_identity(paper::OUTSIDER_DN, day).unwrap();

        let mut gridmap = GridMapFile::new();
        gridmap.insert(GridMapEntry::new(paper::bo_liu(), vec!["bliu".into()]));
        gridmap.insert(GridMapEntry::new(paper::kate_keahey(), vec!["keahey".into()]));
        gridmap.insert(GridMapEntry::new(paper::outsider(), vec!["eve".into()]));
        Identities { clock, trust, gridmap, bo, kate, outsider }
    }

    fn fixture(mode: GramMode) -> Fixture {
        let Identities { clock, trust, gridmap, bo, kate, outsider } = identities();

        let mut builder = GramServerBuilder::new("anl-cluster", &clock)
            .trust(trust)
            .gridmap(gridmap)
            .cluster(Cluster::uniform(4, 8, 16_384));
        if mode == GramMode::Extended {
            builder = builder.callouts(vec![figure3_callout()]);
        }
        Fixture { clock, bo, kate, outsider, server: builder.build() }
    }

    /// The paper's Figure 3 VO policy as an uncached PDP callout.
    fn figure3_callout() -> Arc<PdpCallout> {
        let vo_source = PolicySource::new(
            "fusion-vo",
            PolicyOrigin::VirtualOrganization("fusion".into()),
            paper::figure3_policy(),
        );
        let pdp = CombinedPdp::new(vec![vo_source], Combiner::DenyOverrides);
        Arc::new(PdpCallout::new("fig3", pdp))
    }

    const BO_TEST1: &str =
        "&(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count = 2)";
    const KATE_TRANSP: &str =
        "&(executable = TRANSP)(directory = /sandbox/test)(jobtag = NFC)(count = 4)";

    fn mins(m: u64) -> SimDuration {
        SimDuration::from_mins(m)
    }

    #[test]
    fn gt2_submit_needs_only_gridmap() {
        let f = fixture(GramMode::Gt2);
        // Any RSL goes through for mapped users, even untagged arbitrary
        // executables — the coarse-grained shortcoming (§4.3 item 1).
        let contact = f
            .server
            .submit(f.bo.chain(), "&(executable = anything)(count = 1)", None, mins(5))
            .unwrap();
        let report = f.server.status(f.bo.chain(), &contact).unwrap();
        assert!(matches!(report.state, JobState::Running { .. }));
        assert_eq!(report.account, "bliu");
    }

    #[test]
    fn gt2_management_is_initiator_only() {
        let f = fixture(GramMode::Gt2);
        let contact = f.server.submit(f.bo.chain(), BO_TEST1, None, mins(30)).unwrap();
        // Kate cannot even query Bo's job in GT2.
        assert!(matches!(
            f.server.status(f.kate.chain(), &contact),
            Err(GramError::NotAuthorized(DenyReason::NotJobOwner))
        ));
        assert!(matches!(
            f.server.cancel(f.kate.chain(), &contact),
            Err(GramError::NotAuthorized(DenyReason::NotJobOwner))
        ));
        // Bo manages his own job.
        f.server.cancel(f.bo.chain(), &contact).unwrap();
    }

    #[test]
    fn extended_enforces_fine_grain_startup_policy() {
        let f = fixture(GramMode::Extended);
        // Sanctioned request passes.
        f.server.submit(f.bo.chain(), BO_TEST1, None, mins(5)).unwrap();
        // Wrong executable denied even though Bo is in the gridmap.
        // The combiner wraps the per-source reason in `SourceDenied`
        // naming the denying source.
        fn unwrap_source(err: GramError) -> DenyReason {
            match err {
                GramError::NotAuthorized(DenyReason::SourceDenied { source, reason }) => {
                    assert_eq!(source, "fusion-vo");
                    *reason
                }
                other => panic!("expected SourceDenied, got {other:?}"),
            }
        }
        let err = f
            .server
            .submit(
                f.bo.chain(),
                "&(executable = rogue)(directory = /sandbox/test)(jobtag = ADS)(count = 1)",
                None,
                mins(5),
            )
            .unwrap_err();
        assert_eq!(unwrap_source(err), DenyReason::NoApplicableGrant);
        // Untagged request violates the VO requirement.
        let err = f
            .server
            .submit(
                f.bo.chain(),
                "&(executable = test1)(directory = /sandbox/test)(count = 1)",
                None,
                mins(5),
            )
            .unwrap_err();
        assert!(matches!(unwrap_source(err), DenyReason::RequirementViolated { .. }));
        // Outsider has no grant at all.
        let err = f.server.submit(f.outsider.chain(), BO_TEST1, None, mins(5)).unwrap_err();
        assert_eq!(unwrap_source(err), DenyReason::NoApplicableGrant);
    }

    #[test]
    fn extended_vo_wide_management() {
        let f = fixture(GramMode::Extended);
        // Bo starts an NFC job (test2 is his NFC-tagged grant).
        let contact = f
            .server
            .submit(
                f.bo.chain(),
                "&(executable = test2)(directory = /sandbox/test)(jobtag = NFC)(count = 2)",
                None,
                mins(30),
            )
            .unwrap();
        // Kate cancels Bo's NFC job — the paper's headline capability.
        f.server.cancel(f.kate.chain(), &contact).unwrap();
        let report = f.server.status(f.kate.chain(), &contact).err();
        // Kate's information grant doesn't exist in Figure 3 → denied.
        assert!(report.is_some());
    }

    #[test]
    fn extended_denies_what_policy_does_not_grant() {
        let f = fixture(GramMode::Extended);
        let contact = f.server.submit(f.bo.chain(), BO_TEST1, None, mins(30)).unwrap();
        // ADS-tagged job: Kate's cancel grant covers only NFC.
        let err = f.server.cancel(f.kate.chain(), &contact).unwrap_err();
        assert!(matches!(err, GramError::NotAuthorized(_)));
        // Figure 3 gives Bo no cancel grant either (no self rule!).
        let err = f.server.cancel(f.bo.chain(), &contact).unwrap_err();
        assert!(matches!(err, GramError::NotAuthorized(_)));
    }

    /// The extended server's callout runs the compiled PDP; its outcomes
    /// must be indistinguishable from evaluating Figure 3 with the
    /// interpreted oracle on the same requests the server constructs.
    #[test]
    fn extended_decisions_match_interpreted_oracle() {
        use gridauthz_core::Pdp;

        let compiled = Pdp::new(paper::figure3_policy());
        let oracle = Pdp::interpreted(paper::figure3_policy());
        assert!(compiled.is_compiled());

        type Requester = fn(&Fixture) -> &Credential;
        let submissions: [(Requester, &str); 8] = [
            (|f| &f.bo, BO_TEST1),
            (|f| &f.bo, KATE_TRANSP),
            (
                |f| &f.bo,
                "&(executable = test2)(directory = /sandbox/test)(jobtag = NFC)(count = 2)",
            ),
            (
                |f| &f.bo,
                "&(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count = 9)",
            ),
            (|f| &f.bo, "&(executable = test1)(directory = /sandbox/test)(count = 2)"),
            (|f| &f.kate, KATE_TRANSP),
            (|f| &f.kate, BO_TEST1),
            (|f| &f.outsider, BO_TEST1),
        ];
        for (who, rsl) in submissions {
            // Fresh fixture per case: a permitted submit consumes cluster
            // capacity, and scheduler rejection must not masquerade as an
            // authorization denial.
            let f = fixture(GramMode::Extended);
            let cred = who(&f);
            let spec = gridauthz_rsl::parse(rsl).unwrap();
            let job = crate::jobspec::normalize_job(spec.as_conjunction().unwrap());
            let request = AuthzRequest::start(cred.certificate().subject().clone(), job);
            let expected = oracle.decide(&request);
            assert_eq!(compiled.decide(&request), expected, "compiled vs interpreted: {rsl}");
            assert_eq!(
                f.server.submit(cred.chain(), rsl, None, mins(5)).is_ok(),
                expected.is_permit(),
                "server disagrees with oracle for submit {rsl}"
            );
        }

        // Management: Kate cancelling Bo's jobs is permitted iff the job
        // is tagged NFC (Figure 3's VO-wide cancel grant).
        let management = [
            ("NFC", "&(executable = test2)(directory = /sandbox/test)(jobtag = NFC)(count = 2)"),
            ("ADS", BO_TEST1),
        ];
        for (tag, rsl) in management {
            let f = fixture(GramMode::Extended);
            let contact = f.server.submit(f.bo.chain(), rsl, None, mins(30)).unwrap();
            let request = AuthzRequest::manage(
                f.kate.certificate().subject().clone(),
                Action::Cancel,
                f.bo.certificate().subject().clone(),
                Some(tag.to_string()),
            );
            let expected = oracle.decide(&request);
            assert_eq!(
                compiled.decide(&request),
                expected,
                "compiled vs interpreted: cancel {tag}"
            );
            assert_eq!(
                f.server.cancel(f.kate.chain(), &contact).is_ok(),
                expected.is_permit(),
                "server disagrees with oracle for cancel of {tag} job"
            );
        }
    }

    #[test]
    fn limited_proxy_cannot_start_jobs() {
        let f = fixture(GramMode::Gt2);
        let limited =
            f.bo.delegate_limited_proxy(f.clock.now(), SimDuration::from_hours(1)).unwrap();
        let err = f.server.submit(limited.chain(), BO_TEST1, None, mins(5)).unwrap_err();
        assert!(matches!(err, GramError::NotAuthorized(DenyReason::LimitedProxy)));
    }

    #[test]
    fn unauthenticated_chains_are_rejected() {
        let f = fixture(GramMode::Gt2);
        let rogue_clock = SimClock::new();
        let rogue_ca = CertificateAuthority::new_root("/O=Rogue/CN=CA", &rogue_clock).unwrap();
        let rogue = rogue_ca.issue_identity("/O=Rogue/CN=Eve", SimDuration::from_hours(1)).unwrap();
        assert!(matches!(
            f.server.submit(rogue.chain(), BO_TEST1, None, mins(5)),
            Err(GramError::AuthenticationFailed(_))
        ));
    }

    #[test]
    fn unmapped_identity_is_denied_by_gatekeeper() {
        let f = fixture(GramMode::Gt2);
        f.server.set_gridmap(GridMapFile::new()).unwrap();
        assert!(matches!(
            f.server.submit(f.bo.chain(), BO_TEST1, None, mins(5)),
            Err(GramError::GridMapDenied(_))
        ));
    }

    #[test]
    fn signals_map_to_scheduler_operations() {
        let f = fixture(GramMode::Gt2);
        let contact = f.server.submit(f.bo.chain(), BO_TEST1, None, mins(30)).unwrap();
        f.server.signal(f.bo.chain(), &contact, GramSignal::Suspend).unwrap();
        let report = f.server.status(f.bo.chain(), &contact).unwrap();
        assert!(matches!(report.state, JobState::Suspended { .. }));
        f.server.signal(f.bo.chain(), &contact, GramSignal::Resume).unwrap();
        f.server.signal(f.bo.chain(), &contact, GramSignal::Priority(9)).unwrap();
        let report = f.server.status(f.bo.chain(), &contact).unwrap();
        assert!(matches!(report.state, JobState::Running { .. }));
    }

    #[test]
    fn unknown_contacts_error() {
        let f = fixture(GramMode::Gt2);
        let ghost = JobContact::new("anl-cluster", 999);
        assert!(matches!(f.server.status(f.bo.chain(), &ghost), Err(GramError::UnknownJob(_))));
    }

    /// Jobs are keyed by the index their contact ends with, so a lookup
    /// must also match the whole contact: a contact this server did not
    /// issue names no job, even when its index is held.
    #[test]
    fn contacts_this_server_did_not_issue_are_unknown() {
        let f = fixture(GramMode::Gt2);
        let chain = f.bo.chain();
        let job = f.server.submit(chain, BO_TEST1, None, mins(30)).unwrap();
        let index = job.index().unwrap();
        for forged in [
            format!("gram://other-site/jobs/{index}"),
            format!("gram://anl-cluster/jobs/0{index}"),
            "gram://anl-cluster/jobs/x".to_string(),
        ] {
            let forged = JobContact::from_wire(&forged);
            let unknown = |result: Result<(), GramError>| {
                assert!(matches!(result, Err(GramError::UnknownJob(_))), "{forged}: {result:?}");
            };
            unknown(f.server.status(chain, &forged).map(drop));
            unknown(f.server.cancel(chain, &forged));
            unknown(f.server.signal(chain, &forged, GramSignal::Suspend));
            unknown(f.server.sandbox_violation_count(&forged).map(drop));
            let exec = JobOperation::Exec("test1".into());
            unknown(f.server.check_job_operation(&forged, exec));
            assert!(!f.server.job_exists(&forged));
            assert_eq!(f.server.job_state(&forged), None);
        }
        assert!(matches!(f.server.job_state(&job), Some(JobState::Running { .. })));
    }

    #[test]
    fn bad_rsl_is_rejected() {
        let f = fixture(GramMode::Gt2);
        assert!(matches!(
            f.server.submit(f.bo.chain(), "this is not rsl", None, mins(5)),
            Err(GramError::BadRequest(_))
        ));
        assert!(matches!(
            f.server.submit(f.bo.chain(), "&(count = 1)", None, mins(5)),
            Err(GramError::BadRequest(_))
        ));
    }

    #[test]
    fn jobs_with_tag_lists_live_jobs() {
        let f = fixture(GramMode::Extended);
        let c1 = f.server.submit(f.kate.chain(), KATE_TRANSP, None, mins(30)).unwrap();
        let _c2 = f
            .server
            .submit(
                f.bo.chain(),
                "&(executable = test2)(directory = /sandbox/test)(jobtag = NFC)(count = 2)",
                None,
                mins(30),
            )
            .unwrap();
        assert_eq!(f.server.jobs_with_tag("NFC").len(), 2);
        f.server.cancel(f.kate.chain(), &c1).unwrap();
        assert_eq!(f.server.jobs_with_tag("NFC").len(), 1);
        assert!(f.server.jobs_with_tag("ADS").is_empty());
    }

    #[test]
    fn cancel_by_tag_sweeps_only_authorized_jobs() {
        let f = fixture(GramMode::Extended);
        // Two NFC jobs (Bo's and Kate's) and one ADS job.
        f.server
            .submit(
                f.bo.chain(),
                "&(executable = test2)(directory = /sandbox/test)(jobtag = NFC)(count = 2)",
                None,
                mins(60),
            )
            .unwrap();
        f.server.submit(f.kate.chain(), KATE_TRANSP, None, mins(60)).unwrap();
        f.server.submit(f.bo.chain(), BO_TEST1, None, mins(60)).unwrap();

        // Kate's Figure 3 cancel grant covers every NFC job: the whole
        // working set cancels in one authenticated, batch-authorized call.
        let outcomes = f.server.cancel_by_tag(f.kate.chain(), "NFC").unwrap();
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|(_, r)| r.is_ok()), "{outcomes:?}");
        assert!(f.server.jobs_with_tag("NFC").is_empty());
        assert_eq!(f.server.jobs_with_tag("ADS").len(), 1);

        // The grant does not extend to ADS: the sweep runs but every
        // element is individually denied, and nothing is cancelled.
        let outcomes = f.server.cancel_by_tag(f.kate.chain(), "ADS").unwrap();
        assert_eq!(outcomes.len(), 1);
        assert!(matches!(outcomes[0].1, Err(GramError::NotAuthorized(_))));
        assert_eq!(f.server.jobs_with_tag("ADS").len(), 1);
    }

    #[test]
    fn status_by_tag_respects_gt2_owner_only_management() {
        let f = fixture(GramMode::Gt2);
        let bo_job = f.server.submit(f.bo.chain(), BO_TEST1, None, mins(60)).unwrap();
        let kate_job = f.server.submit(f.kate.chain(), KATE_TRANSP, None, mins(60)).unwrap();

        // GT2 has no jobtag grants: each requester sees only their own
        // job's report; the other element is a per-job owner denial.
        let mut outcomes = f.server.status_by_tag(f.bo.chain(), "ADS").unwrap();
        assert_eq!(outcomes.len(), 1);
        let (contact, report) = outcomes.remove(0);
        assert_eq!(contact, bo_job);
        assert_eq!(report.unwrap().account, "bliu");

        let outcomes = f.server.status_by_tag(f.bo.chain(), "NFC").unwrap();
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].0, kate_job);
        assert!(matches!(outcomes[0].1, Err(GramError::NotAuthorized(DenyReason::NotJobOwner))));
        // Unauthenticated sweeps fail before touching the working set.
        let rogue_clock = SimClock::new();
        let rogue_ca = CertificateAuthority::new_root("/O=Rogue/CN=CA", &rogue_clock).unwrap();
        let rogue = rogue_ca.issue_identity("/O=Rogue/CN=Eve", SimDuration::from_hours(1)).unwrap();
        assert!(matches!(
            f.server.status_by_tag(rogue.chain(), "NFC"),
            Err(GramError::AuthenticationFailed(_))
        ));
    }

    #[test]
    fn by_tag_sweeps_are_audited_per_job() {
        let f = fixture(GramMode::Extended);
        f.server
            .submit(
                f.bo.chain(),
                "&(executable = test2)(directory = /sandbox/test)(jobtag = NFC)(count = 2)",
                None,
                mins(60),
            )
            .unwrap();
        f.server.submit(f.kate.chain(), KATE_TRANSP, None, mins(60)).unwrap();
        let before = f.server.audit_snapshot().len();
        f.server.cancel_by_tag(f.kate.chain(), "NFC").unwrap();
        let audit = f.server.audit_snapshot();
        // One record per swept job, each naming its contact.
        assert_eq!(audit.len(), before + 2);
        assert!(audit[before..].iter().all(|r| r.action == Action::Cancel && r.job.is_some()));
    }

    #[test]
    fn jobs_complete_over_simulated_time() {
        let f = fixture(GramMode::Gt2);
        let contact = f.server.submit(f.bo.chain(), BO_TEST1, None, mins(10)).unwrap();
        f.server.run_until(f.clock.now() + mins(11));
        let report = f.server.status(f.bo.chain(), &contact).unwrap();
        assert!(matches!(report.state, JobState::Completed { .. }));
        assert_eq!(report.executed, mins(10));
    }

    /// A server with dynamic accounts + sandboxing and an empty
    /// grid-mapfile entry set for visitors.
    fn provisioned_fixture() -> Fixture {
        let clock = SimClock::new();
        let ca = CertificateAuthority::new_root("/O=Grid/CN=CA", &clock).unwrap();
        let mut trust = TrustStore::new();
        trust.add_anchor(ca.certificate().clone());
        let day = SimDuration::from_hours(24);
        let bo = ca.issue_identity(paper::BO_LIU_DN, day).unwrap();
        let kate = ca.issue_identity(paper::KATE_KEAHEY_DN, day).unwrap();
        let outsider = ca.issue_identity(paper::OUTSIDER_DN, day).unwrap();
        // Only Bo has a static mapping; Kate and the outsider are served
        // by the pool.
        let mut gridmap = GridMapFile::new();
        gridmap.insert(GridMapEntry::new(paper::bo_liu(), vec!["bliu".into()]));
        let pool = gridauthz_enforcement::DynamicAccountPool::new(
            "grid",
            2,
            70_000,
            SimDuration::from_mins(30),
        );
        let server = GramServerBuilder::new("anl-cluster", &clock)
            .trust(trust)
            .gridmap(gridmap)
            .cluster(Cluster::uniform(4, 8, 16_384))
            .dynamic_accounts(pool)
            .sandboxing(true)
            .mode(GramMode::Gt2)
            .build();
        Fixture { clock, bo, kate, outsider, server }
    }

    #[test]
    fn dynamic_accounts_serve_unmapped_identities() {
        let f = provisioned_fixture();
        // Bo keeps the static mapping.
        let c1 = f.server.submit(f.bo.chain(), BO_TEST1, None, mins(5)).unwrap();
        assert_eq!(f.server.status(f.bo.chain(), &c1).unwrap().account, "bliu");
        // Kate gets a pool account.
        let c2 = f.server.submit(f.kate.chain(), KATE_TRANSP, None, mins(5)).unwrap();
        let account = f.server.status(f.kate.chain(), &c2).unwrap().account;
        assert!(account.starts_with("grid"), "pool account, got {account}");
        // The same identity reuses its lease.
        let c3 = f.server.submit(f.kate.chain(), KATE_TRANSP, None, mins(5)).unwrap();
        assert_eq!(f.server.status(f.kate.chain(), &c3).unwrap().account, account);
        // A different identity gets a different account.
        let c4 = f.server.submit(f.outsider.chain(), BO_TEST1, None, mins(5)).unwrap();
        assert_ne!(f.server.status(f.outsider.chain(), &c4).unwrap().account, account);
    }

    #[test]
    fn dynamic_pool_exhaustion_is_a_provisioning_failure() {
        let f = provisioned_fixture();
        // Two pool accounts: Kate and the outsider take them.
        f.server.submit(f.kate.chain(), KATE_TRANSP, None, mins(5)).unwrap();
        f.server.submit(f.outsider.chain(), BO_TEST1, None, mins(5)).unwrap();
        // A third unmapped identity hits the exhausted pool. Recreating
        // the root CA reproduces the same (name-seeded) key, so the new
        // identity chains to the already-installed trust anchor.
        let ca = CertificateAuthority::new_root("/O=Grid/CN=CA", &f.clock).unwrap();
        let third = ca
            .issue_identity(
                "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Third User",
                SimDuration::from_hours(1),
            )
            .unwrap();
        let err = f.server.submit(third.chain(), BO_TEST1, None, mins(5)).unwrap_err();
        assert!(matches!(err, GramError::ProvisioningFailed(_)));
    }

    #[test]
    fn unmapped_identity_cannot_request_specific_account() {
        let f = provisioned_fixture();
        let err =
            f.server.submit(f.kate.chain(), KATE_TRANSP, Some("keahey"), mins(5)).unwrap_err();
        assert!(matches!(err, GramError::AccountNotPermitted { .. }));
    }

    #[test]
    fn sandbox_tracks_the_authorized_request() {
        use crate::provisioning::JobOperation;
        let f = provisioned_fixture();
        let contact = f
            .server
            .submit(
                f.bo.chain(),
                "&(executable = test1)(directory = /sandbox/test)(maxmemory = 512)(count = 2)(jobtag = ADS)",
                None,
                mins(30),
            )
            .unwrap();
        // Operations inside the authorized envelope pass.
        f.server.check_job_operation(&contact, JobOperation::Exec("test1".into())).unwrap();
        f.server
            .check_job_operation(&contact, JobOperation::FileWrite("/sandbox/test/out".into()))
            .unwrap();
        f.server.check_job_operation(&contact, JobOperation::AllocateMemory(256)).unwrap();
        // Escapes are violations.
        let err = f
            .server
            .check_job_operation(&contact, JobOperation::Exec("/bin/sh".into()))
            .unwrap_err();
        assert!(matches!(err, GramError::SandboxViolation(_)));
        let err = f
            .server
            .check_job_operation(&contact, JobOperation::FileRead("/home/other/x".into()))
            .unwrap_err();
        assert!(matches!(err, GramError::SandboxViolation(_)));
        let err =
            f.server.check_job_operation(&contact, JobOperation::AllocateMemory(4096)).unwrap_err();
        assert!(matches!(err, GramError::SandboxViolation(_)));
        assert_eq!(f.server.sandbox_violation_count(&contact).unwrap(), 3);
    }

    #[test]
    fn sandboxing_disabled_means_no_checks() {
        let f = fixture(GramMode::Gt2);
        let contact = f.server.submit(f.bo.chain(), BO_TEST1, None, mins(10)).unwrap();
        f.server
            .check_job_operation(
                &contact,
                crate::provisioning::JobOperation::Exec("/bin/sh".into()),
            )
            .unwrap();
        assert_eq!(f.server.sandbox_violation_count(&contact).unwrap(), 0);
    }

    #[test]
    fn extended_mode_with_empty_chain_falls_back_to_gt2() {
        let ids = identities();
        // `.mode(Extended)` without `.callouts(...)`: nothing would ever
        // be evaluated. The build downgrades to GT2 and records why.
        let server = GramServerBuilder::new("anl-cluster", &ids.clock)
            .trust(ids.trust)
            .gridmap(ids.gridmap)
            .mode(GramMode::Extended)
            .build();
        assert_eq!(server.mode(), GramMode::Gt2);
        let audit = server.audit_snapshot();
        assert!(
            audit.iter().any(|r| matches!(
                &r.outcome,
                AuditOutcome::Refused(msg) if msg.contains("empty callout chain")
            )),
            "expected a downgrade audit record, got {audit:?}"
        );
        // Default-deny is preserved: only the initiator manages a job.
        let contact = server.submit(ids.bo.chain(), BO_TEST1, None, mins(30)).unwrap();
        assert!(matches!(
            server.status(ids.kate.chain(), &contact),
            Err(GramError::NotAuthorized(DenyReason::NotJobOwner))
        ));
    }

    /// Every decision through the server — submit, cancel, status,
    /// signal, and the by-tag sweeps — must produce a [`DecisionTrace`]
    /// with per-stage spans and feed the shared registry's counters.
    #[test]
    fn every_operation_produces_a_trace_with_stage_spans() {
        use gridauthz_telemetry::Stage;

        let f = fixture(GramMode::Extended);
        let telemetry = Arc::clone(f.server.telemetry());

        let spans_of = |operation: &str| -> Vec<(Stage, &'static str)> {
            let traces = telemetry.recent_traces();
            let trace = traces
                .iter()
                .rev()
                .find(|t| t.operation() == operation)
                .unwrap_or_else(|| panic!("no finished trace for {operation}"));
            trace.spans().iter().map(|s| (s.stage, s.label)).collect()
        };

        // Submit (extended): authenticate → callout → gridmap → enforce.
        let nfc = "&(executable = test2)(directory = /sandbox/test)(jobtag = NFC)(count = 2)";
        let contact = f.server.submit(f.bo.chain(), nfc, None, mins(30)).unwrap();
        let spans = spans_of("submit");
        assert_eq!(spans[0], (Stage::Authenticate, labels::PERMIT), "{spans:?}");
        assert!(spans.contains(&(Stage::Callout, labels::PERMIT)), "{spans:?}");
        assert!(spans.contains(&(Stage::GridMap, labels::PERMIT)), "{spans:?}");
        assert_eq!(spans.last(), Some(&(Stage::Enforce, labels::PERMIT)), "{spans:?}");

        // Status: Kate has no information grant in Figure 3 — the
        // callout span carries the denial label and enforcement never
        // runs.
        f.server.status(f.kate.chain(), &contact).unwrap_err();
        let spans = spans_of("status");
        assert_eq!(spans[0], (Stage::Authenticate, labels::PERMIT), "{spans:?}");
        assert_eq!(spans.last(), Some(&(Stage::Callout, labels::POLICY_DENIED)), "{spans:?}");

        // Signal: Figure 3 grants nobody `signal` — denied at the
        // callout, traced all the same.
        f.server.signal(f.bo.chain(), &contact, GramSignal::Suspend).unwrap_err();
        assert_eq!(spans_of("signal").last(), Some(&(Stage::Callout, labels::POLICY_DENIED)));

        // Cancel: Kate's VO-wide NFC cancel grant.
        f.server.cancel(f.kate.chain(), &contact).unwrap();
        let spans = spans_of("cancel");
        assert!(spans.contains(&(Stage::Callout, labels::PERMIT)), "{spans:?}");
        assert_eq!(spans.last(), Some(&(Stage::Enforce, labels::PERMIT)), "{spans:?}");

        // By-tag sweeps: a sweep trace (authenticate only) plus one trace
        // per swept job carrying its own authorization + enforcement.
        f.server.submit(f.bo.chain(), nfc, None, mins(30)).unwrap();
        let outcomes = f.server.cancel_by_tag(f.kate.chain(), "NFC").unwrap();
        assert_eq!(outcomes.len(), 1);
        let traces = telemetry.recent_traces();
        let sweep_traces: Vec<_> =
            traces.iter().filter(|t| t.operation() == "cancel-by-tag").collect();
        assert_eq!(sweep_traces.len(), 2, "sweep + one per-job trace");
        assert!(sweep_traces.iter().any(|t| t.spans().iter().any(|s| s.stage == Stage::Enforce)));
        let before = telemetry.traces_finished();
        f.server.status_by_tag(f.bo.chain(), "ADS").unwrap();
        assert_eq!(telemetry.traces_finished(), before + 1, "empty sweep still traces");

        // The stage counters accumulated from the folded traces are
        // queryable from the one registry.
        assert!(telemetry.counter(Stage::Authenticate, labels::PERMIT) >= 6);
        assert!(telemetry.counter(Stage::Callout, labels::PERMIT) >= 3);
        assert!(telemetry.counter(Stage::Callout, labels::POLICY_DENIED) >= 2);
        assert!(telemetry.counter(Stage::Enforce, labels::PERMIT) >= 3);
    }

    /// Audit records carry the trace id of the decision that produced
    /// them, joining the audit trail to the span-level telemetry.
    #[test]
    fn audit_records_join_to_decision_traces() {
        let f = fixture(GramMode::Gt2);
        let contact = f.server.submit(f.bo.chain(), BO_TEST1, None, mins(30)).unwrap();
        f.server.status(f.kate.chain(), &contact).unwrap_err();

        let audit = f.server.audit_snapshot();
        assert_eq!(audit.len(), 2);
        let traces = f.server.telemetry().recent_traces();
        for record in &audit {
            let id = record.trace_id.expect("decision audit records carry a trace id");
            let trace = traces
                .iter()
                .find(|t| t.id() == id)
                .unwrap_or_else(|| panic!("no trace {id} for {record:?}"));
            assert!(!trace.spans().is_empty());
        }
        // The GT2 denial is attributed to the owner check (combine).
        let denied = traces.iter().find(|t| t.id() == audit[1].trace_id.unwrap()).unwrap();
        assert!(denied
            .spans()
            .iter()
            .any(|s| s.stage == gridauthz_telemetry::Stage::Combine
                && s.label == labels::POLICY_DENIED));
    }

    /// Gauges sampled by [`GramServer::telemetry_snapshot`]: snapshot
    /// generation tracks the PDP callout's policy publications, live jobs
    /// tracks the JMI table, and the cache gauges aggregate the callout
    /// chain.
    #[test]
    fn telemetry_snapshot_refreshes_gauges() {
        let Identities { clock, trust, gridmap, bo, .. } = identities();
        let callout = figure3_callout();
        let server = GramServerBuilder::new("anl-cluster", &clock)
            .trust(trust)
            .gridmap(gridmap)
            .cluster(Cluster::uniform(4, 8, 16_384))
            .callouts(vec![callout.clone()])
            .build();
        server.submit(bo.chain(), BO_TEST1, None, mins(30)).unwrap();
        callout.policy_updated();

        let snapshot = server.telemetry_snapshot();
        let gauge = |g: Gauge| {
            snapshot
                .gauges
                .iter()
                .find(|(name, _)| *name == g)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("gauge {g:?} missing"))
        };
        assert_eq!(gauge(Gauge::LiveJobs), 1);
        assert!(gauge(Gauge::SnapshotGeneration) >= 1, "policy_updated bumps the generation");
        assert!(snapshot.traces_finished >= 1);
    }

    /// A GT2 fixture server journaling to `storage` and `snapshots`,
    /// checkpointing every `snapshot_every` appends.
    fn durable_fixture(
        storage: &gridauthz_journal::MemStorage,
        snapshots: &gridauthz_journal::MemSnapshotStore,
        snapshot_every: u64,
    ) -> Fixture {
        let Identities { clock, trust, gridmap, bo, kate, outsider } = identities();
        let config = DurabilityConfig::in_memory(storage.clone(), snapshots.clone())
            .snapshot_every(snapshot_every);
        let server = GramServerBuilder::new("anl-cluster", &clock)
            .trust(trust)
            .gridmap(gridmap)
            .cluster(Cluster::uniform(16, 8, 16_384))
            .recover(config)
            .unwrap();
        Fixture { clock, bo, kate, outsider, server }
    }

    /// Checkpoints taken so far, read from the telemetry snapshot.
    fn checkpoints_taken(server: &GramServer) -> u64 {
        let snapshot = server.telemetry_snapshot();
        snapshot
            .counters
            .iter()
            .find(|(stage, label, _)| {
                *stage == Stage::JournalAppend && *label == labels::CHECKPOINT
            })
            .map_or(0, |(_, _, count)| *count)
    }

    /// Two lanes crossing the append budget together take one
    /// checkpoint between them, and a manual checkpoint restarts the
    /// budget. Each submit counts two appends (its `Submit` and its
    /// audit rider), so 2 × 6 submits spend 24 of a 16-append budget:
    /// one crossing, whatever the interleaving.
    #[test]
    fn one_checkpoint_per_spent_budget() {
        let storage = gridauthz_journal::MemStorage::new();
        let snapshots = gridauthz_journal::MemSnapshotStore::new();
        let f = durable_fixture(&storage, &snapshots, 16);
        let start = std::sync::Barrier::new(2);
        let cross = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for who in [&f.bo, &f.kate] {
                let (start, cross, server) = (&start, &cross, &f.server);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..4 {
                        server.submit(who.chain(), BO_TEST1, None, mins(30)).unwrap();
                    }
                    // Both lanes step over the budget at the same time.
                    cross.wait();
                    for _ in 0..2 {
                        server.submit(who.chain(), BO_TEST1, None, mins(30)).unwrap();
                    }
                });
            }
        });
        assert_eq!(checkpoints_taken(&f.server), 1);
        let snapshot = f.server.telemetry_snapshot();
        let journal = snapshot.histograms.iter().find(|h| h.stage == Stage::JournalAppend);
        assert!(journal.is_some_and(|h| h.count >= 13), "appends and the checkpoint are timed");

        // At most 8 appends are left over; a manual checkpoint zeroes
        // them, so 7 more submits (14 appends) stay under the budget.
        f.server.checkpoint().unwrap();
        for _ in 0..7 {
            f.server.submit(f.bo.chain(), BO_TEST1, None, mins(30)).unwrap();
        }
        assert_eq!(checkpoints_taken(&f.server), 2);
    }

    /// A checkpoint that lands between a submit's admission, which draws
    /// the contact index, and its `Submit` append must not let recovery
    /// reissue that index — whether the submit then commits (and is
    /// cancelled, so no `Submit` in any snapshot names it) or dies
    /// before its append.
    #[test]
    fn checkpoint_between_admit_and_append_never_reissues_a_contact() {
        for commits in [true, false] {
            let storage = gridauthz_journal::MemStorage::new();
            let snapshots = gridauthz_journal::MemSnapshotStore::new();
            let f = durable_fixture(&storage, &snapshots, 0);
            let first = f.server.submit(f.bo.chain(), BO_TEST1, None, mins(30)).unwrap();
            let spec = gridauthz_rsl::parse(BO_TEST1).unwrap();
            let job =
                JobDescription::new(crate::jobspec::normalize_job(spec.as_conjunction().unwrap()));
            let owner = f.bo.certificate().subject().clone();
            let admitted =
                f.server.admit(None, owner, job, "bliu".into(), false, mins(30)).unwrap();
            let drawn = admitted.id.0;
            f.server.checkpoint().unwrap();
            if commits {
                let contact = f.server.commit_submit(admitted).unwrap();
                f.server.cancel(f.bo.chain(), &contact).unwrap();
                assert!(!f.server.job_exists(&contact));
            }
            drop(f);

            let f = durable_fixture(&storage, &snapshots, 0);
            assert_eq!(f.server.job_count(), 1);
            assert!(f.server.job_exists(&first));
            let next = f.server.submit(f.bo.chain(), BO_TEST1, None, mins(30)).unwrap();
            assert_eq!(
                next,
                JobContact::new("anl-cluster", drawn + 1),
                "commits={commits}: index {drawn} was drawn before the crash"
            );
        }
    }

    /// A hostile job description cannot smuggle forged headers into the
    /// server's wire response: the response encoder refuses values with
    /// line breaks and the server answers with the static fallback.
    #[test]
    fn wire_response_encoding_failure_serves_fallback() {
        use crate::wire::{WireDecodeError, WireResponse};
        let forged = WireResponse::Error {
            code: "BAD_REQUEST".into(),
            message: "oops\ncode: FORGED".into(),
        };
        assert!(forged.encode().is_err());
        // The fallback itself is well-formed protocol text.
        let decoded: Result<WireResponse, WireDecodeError> =
            WireResponse::decode(WireResponse::FALLBACK);
        assert!(matches!(
            decoded.unwrap(),
            WireResponse::Error { code, .. } if code == "INTERNAL_ENCODING_FAILURE"
        ));
    }

    /// Satellite of the decision-cache work: N threads hammer the server
    /// with submits and status queries through a *cached* callout while
    /// the policy is reloaded (revoking Kate's grants) and the
    /// grid-mapfile is re-set. Once a thread has
    /// observed the revocation flag, every later decision it sees must
    /// reflect the new policy — a stale cached permit is a failure.
    #[test]
    fn concurrent_requests_never_see_stale_cached_permits() {
        use std::sync::atomic::AtomicBool;

        let ids = identities();
        let make_pdp = |text: &str| {
            let policy: gridauthz_core::Policy = text.parse().unwrap();
            CombinedPdp::new(
                vec![PolicySource::new("local", PolicyOrigin::ResourceOwner, policy)],
                Combiner::DenyOverrides,
            )
        };
        let bo_grant = format!("{}: &(action = start)(executable = test1)", paper::BO_LIU_DN);
        let before = format!(
            "{bo_grant}\n{kate}: &(action = information)\n{kate}: &(action = cancel)",
            kate = paper::KATE_KEAHEY_DN
        );
        let callout = Arc::new(PdpCallout::cached("local", make_pdp(&before)));
        let server = GramServerBuilder::new("anl-cluster", &ids.clock)
            .trust(ids.trust)
            .gridmap(ids.gridmap.clone())
            .cluster(Cluster::uniform(64, 8, 16_384))
            .callouts(vec![callout.clone()])
            .build();

        let job = "&(executable = test1)(directory = /sandbox/test)(jobtag = NFC)(count = 1)";
        let contact = server.submit(ids.bo.chain(), job, None, mins(60)).unwrap();
        // Warm the cache with a permit Kate must later lose.
        server.status(ids.kate.chain(), &contact).unwrap();

        let revoked = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for i in 0..200 {
                        let saw_revocation = revoked.load(Ordering::SeqCst);
                        let result = server.status(ids.kate.chain(), &contact);
                        if saw_revocation {
                            assert!(
                                matches!(result, Err(GramError::NotAuthorized(_))),
                                "stale cached permit after revocation: {result:?}"
                            );
                        }
                        if i % 16 == 0 {
                            // Churn the sharded job map from every thread.
                            server.submit(ids.bo.chain(), job, None, mins(1)).unwrap();
                        }
                    }
                });
            }
            scope.spawn(|| {
                // Grid-map swaps that change nothing semantically must
                // not corrupt anything, and they leave the cache warm.
                for _ in 0..8 {
                    server.set_gridmap(ids.gridmap.clone()).unwrap();
                    std::thread::yield_now();
                }
                callout.reload(make_pdp(&bo_grant));
                revoked.store(true, Ordering::SeqCst);
            });
        });

        // Steady state under the new policy: Kate is denied, Bo still
        // permitted, and the cache actually served repeat decisions.
        assert!(matches!(
            server.status(ids.kate.chain(), &contact),
            Err(GramError::NotAuthorized(_))
        ));
        server.submit(ids.bo.chain(), job, None, mins(1)).unwrap();
        let stats = callout.cache_stats().expect("cached callout reports stats");
        assert!(stats.hits > 0, "expected cache hits, got {stats:?}");
    }
}
