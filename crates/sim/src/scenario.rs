//! The figure scenarios as runnable comparisons (experiments F1–F3).
//!
//! Each function returns printable rows so tests assert them and the
//! bench harness prints them — one source of truth for the paper's
//! behavioural claims.

use std::sync::Arc;

use gridauthz_clock::{SimClock, SimDuration, SimTime};
use gridauthz_core::{
    paper, Action, AuthorizationCallout, AuthzRequest, BreakerTransition, DegradationPolicy, Pdp,
    ResilienceConfig, SupervisedCallout, SupervisionStats,
};
use gridauthz_gram::{GramClient, GramError, GramMode, GramSignal};
use gridauthz_rsl::Conjunction;

use crate::fault::FlakyCallout;
use crate::testbed::TestbedBuilder;

/// One behavioural comparison row: the same operation attempted against
/// GT2 (Figure 1) and extended (Figure 2) GRAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComparisonRow {
    /// What was attempted.
    pub case: &'static str,
    /// Did GT2 permit it?
    pub gt2: bool,
    /// Did extended GRAM permit it?
    pub extended: bool,
}

/// One F3 decision-matrix row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixRow {
    /// Case description.
    pub case: String,
    /// Expected decision per the paper.
    pub expected_permit: bool,
    /// Decision produced by this implementation.
    pub actual_permit: bool,
}

const SANCTIONED: &str = "&(executable = TRANSP)(jobtag = NFC)(count = 2)";
const ARBITRARY: &str = "&(executable = rogue-binary)(count = 1)";
const UNTAGGED: &str = "&(executable = TRANSP)(count = 2)";

fn mins(m: u64) -> SimDuration {
    SimDuration::from_mins(m)
}

/// Runs the F1/F2 comparison: six operations that distinguish coarse
/// grid-mapfile authorization from fine-grain callout authorization.
pub fn figure1_vs_figure2() -> Vec<ComparisonRow> {
    let run = |mode: GramMode| -> Vec<bool> {
        let tb = TestbedBuilder::new().members(2).mode(mode).build();
        let member = tb.member_client(0);
        let admin = GramClient::new(tb.admin.clone());
        let outsider = GramClient::new(tb.outsider.clone());
        let mut outcomes = Vec::new();

        // 1. Mapped member starts a sanctioned, tagged job.
        let sanctioned = member.submit(&tb.server, SANCTIONED, mins(30));
        outcomes.push(sanctioned.is_ok());
        // 2. Mapped member starts an arbitrary executable.
        outcomes.push(member.submit(&tb.server, ARBITRARY, mins(5)).is_ok());
        // 3. Mapped member starts an untagged job.
        outcomes.push(member.submit(&tb.server, UNTAGGED, mins(5)).is_ok());
        // 4. Unmapped outsider starts a sanctioned job.
        outcomes.push(outsider.submit(&tb.server, SANCTIONED, mins(5)).is_ok());
        // 5. The VO admin (not the initiator) suspends the member's job.
        let contact = sanctioned.expect("case 1 must be admitted in both modes");
        outcomes.push(admin.signal(&tb.server, &contact, GramSignal::Suspend).is_ok());
        // 6. The initiating member cancels their own job.
        outcomes.push(member.cancel(&tb.server, &contact).is_ok());
        outcomes
    };

    let gt2 = run(GramMode::Gt2);
    let extended = run(GramMode::Extended);
    let cases = [
        "member starts sanctioned tagged job",
        "member starts arbitrary executable",
        "member starts untagged job",
        "unmapped outsider starts job",
        "VO admin suspends member's NFC job",
        "initiator cancels own job",
    ];
    cases
        .iter()
        .zip(gt2.iter().zip(extended.iter()))
        .map(|(case, (&gt2, &extended))| ComparisonRow { case, gt2, extended })
        .collect()
}

/// The expected F1/F2 outcomes (asserted in tests, printed by the
/// harness): extended GRAM closes §4.3's shortcomings 1 and 2 while
/// adding VO-wide management.
pub fn figure1_vs_figure2_expected() -> Vec<ComparisonRow> {
    vec![
        ComparisonRow { case: "member starts sanctioned tagged job", gt2: true, extended: true },
        ComparisonRow { case: "member starts arbitrary executable", gt2: true, extended: false },
        ComparisonRow { case: "member starts untagged job", gt2: true, extended: false },
        ComparisonRow { case: "unmapped outsider starts job", gt2: false, extended: false },
        ComparisonRow { case: "VO admin suspends member's NFC job", gt2: false, extended: true },
        ComparisonRow { case: "initiator cancels own job", gt2: true, extended: true },
    ]
}

/// Runs the F3 matrix: the exact Figure 3 policy evaluated over the
/// paper's worked cases (a superset of the text's examples).
pub fn figure3_matrix() -> Vec<MatrixRow> {
    let pdp = Pdp::new(paper::figure3_policy());
    let conj = |s: &str| -> Conjunction {
        gridauthz_rsl::parse(s)
            .expect("fixture RSL parses")
            .as_conjunction()
            .expect("fixture RSL is a conjunction")
            .clone()
    };
    let bo = paper::bo_liu();
    let kate = paper::kate_keahey();
    let eve = paper::outsider();

    let cases: Vec<(String, AuthzRequest, bool)> = vec![
        (
            "Bo starts test1 (ADS, 2 cpus, /sandbox/test)".into(),
            AuthzRequest::start(
                bo.clone(),
                conj("&(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count = 2)"),
            ),
            true,
        ),
        (
            "Bo starts test2 (NFC, 3 cpus)".into(),
            AuthzRequest::start(
                bo.clone(),
                conj("&(executable = test2)(directory = /sandbox/test)(jobtag = NFC)(count = 3)"),
            ),
            true,
        ),
        (
            "Bo starts test1 with 4 cpus (count < 4)".into(),
            AuthzRequest::start(
                bo.clone(),
                conj("&(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count = 4)"),
            ),
            false,
        ),
        (
            "Bo starts test1 untagged (group requirement)".into(),
            AuthzRequest::start(
                bo.clone(),
                conj("&(executable = test1)(directory = /sandbox/test)(count = 2)"),
            ),
            false,
        ),
        (
            "Bo starts TRANSP (not sanctioned for Bo)".into(),
            AuthzRequest::start(
                bo.clone(),
                conj("&(executable = TRANSP)(directory = /sandbox/test)(jobtag = NFC)(count = 2)"),
            ),
            false,
        ),
        (
            "Kate starts TRANSP (NFC)".into(),
            AuthzRequest::start(
                kate.clone(),
                conj("&(executable = TRANSP)(directory = /sandbox/test)(jobtag = NFC)"),
            ),
            true,
        ),
        (
            "Kate cancels Bo's NFC job".into(),
            AuthzRequest::manage(kate.clone(), Action::Cancel, bo.clone(), Some("NFC".into())),
            true,
        ),
        (
            "Kate cancels Bo's ADS job".into(),
            AuthzRequest::manage(kate.clone(), Action::Cancel, bo.clone(), Some("ADS".into())),
            false,
        ),
        (
            "Bo cancels Kate's NFC job".into(),
            AuthzRequest::manage(bo.clone(), Action::Cancel, kate.clone(), Some("NFC".into())),
            false,
        ),
        (
            "outsider starts test1 (tagged)".into(),
            AuthzRequest::start(
                eve,
                conj("&(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count = 2)"),
            ),
            false,
        ),
    ];

    cases
        .into_iter()
        .map(|(case, request, expected_permit)| MatrixRow {
            case,
            expected_permit,
            actual_permit: pdp.decide(&request).is_permit(),
        })
        .collect()
}

/// One phase of the callout outage-and-recovery scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutagePhase {
    /// Phase name (`healthy-warmup`, `outage-warm`, …).
    pub label: &'static str,
    /// Submissions attempted in this phase.
    pub requests: usize,
    /// Submissions admitted.
    pub permits: usize,
    /// Submissions refused by policy.
    pub denials: usize,
    /// Submissions refused as authorization-system failures.
    pub failures: usize,
    /// Decisions that completed in degraded mode during this phase.
    pub degraded: u64,
    /// Worst simulated decision latency observed, in microseconds.
    pub max_decision_micros: u64,
}

/// The full outage-and-recovery run for one supervision mode.
#[derive(Debug, Clone)]
pub struct OutageReport {
    /// `"unsupervised"`, `"fail-closed"`, `"fail-open"` or `"serve-stale"`.
    pub mode: String,
    /// Phase-by-phase outcome counts.
    pub phases: Vec<OutagePhase>,
    /// Breaker transitions over the whole run (empty when unsupervised).
    pub transitions: Vec<BreakerTransition>,
    /// Supervision counters at the end of the run (zeroes when
    /// unsupervised).
    pub stats: SupervisionStats,
    /// The configured decision budget in microseconds (0 when
    /// unsupervised — nothing bounds the decision).
    pub budget_micros: u64,
}

impl OutageReport {
    /// The phase with the given label (phases have fixed names).
    #[must_use]
    pub fn phase(&self, label: &str) -> &OutagePhase {
        self.phases.iter().find(|p| p.label == label).expect("known phase label")
    }
}

/// Drives a supervised (or, with `policy = None`, a bare) flaky VO
/// policy-service callout through a scripted 100%-failure outage and
/// recovery on a full GRAM testbed (experiment T10):
///
/// 1. **healthy-warmup** — five identical sanctioned submissions while
///    the service is healthy (these warm the serve-stale store);
/// 2. **outage-warm** — the same request repeated during the outage;
/// 3. **outage-novel** — a request never seen before the outage;
/// 4. **recovery** — the service is healthy again, the breaker's open
///    window has expired, and probes re-close it.
///
/// The outage runs from t=10 s to t=40 s of simulated time; supervision
/// uses a 50 ms deadline, 3 attempts, 5→20 ms backoff, a breaker that
/// opens after 3 consecutive failures for 8 s with 2 probes, and the
/// given degradation policy.
pub fn callout_outage_recovery(policy: Option<DegradationPolicy>) -> OutageReport {
    let clock = SimClock::new();
    let outage_from = SimTime::from_secs(10);
    let outage_until = SimTime::from_secs(40);
    let flaky: Arc<FlakyCallout> = Arc::new(
        FlakyCallout::new("vo-policy-service", &clock)
            .with_base_latency(SimDuration::from_millis(1))
            .fail_between(outage_from, outage_until),
    );

    let (mode, supervised, callout): (
        String,
        Option<Arc<SupervisedCallout>>,
        Arc<dyn AuthorizationCallout>,
    ) = match policy {
        None => ("unsupervised".into(), None, flaky.clone()),
        Some(policy) => {
            let config = ResilienceConfig {
                deadline: SimDuration::from_millis(50),
                max_attempts: 3,
                base_backoff: SimDuration::from_millis(5),
                max_backoff: SimDuration::from_millis(20),
                failure_threshold: 3,
                open_for: SimDuration::from_secs(8),
                probe_budget: 2,
                close_after: 2,
                degradation: policy.clone(),
            };
            let mode = match policy {
                DegradationPolicy::FailClosed => "fail-closed",
                DegradationPolicy::FailOpenAdvisory => "fail-open",
                DegradationPolicy::ServeStale { .. } => "serve-stale",
            };
            let supervised = Arc::new(SupervisedCallout::new(flaky.clone(), &clock, config));
            (mode.into(), Some(supervised.clone()), supervised)
        }
    };
    let budget_micros = supervised.as_ref().map_or(0, |s| s.config().decision_budget().as_micros());

    let tb = TestbedBuilder::new().members(1).clock(clock.clone()).extra_callout(callout).build();
    let member = tb.member_client(0);

    const WARM: &str = "&(executable = TRANSP)(jobtag = NFC)(count = 2)";
    const NOVEL: &str = "&(executable = TRANSP)(jobtag = NFC)(count = 3)";

    let stats_now = |s: &Option<Arc<SupervisedCallout>>| {
        s.as_ref().map_or(SupervisionStats::default(), |s| s.stats())
    };
    let mut phases = Vec::new();
    let mut run_phase = |label: &'static str, rsl: &str, n: usize, gap: SimDuration| {
        let degraded_before = stats_now(&supervised).degraded;
        let (mut permits, mut denials, mut failures) = (0, 0, 0);
        let mut max_decision_micros = 0u64;
        for _ in 0..n {
            let start = clock.now();
            match member.submit(&tb.server, rsl, SimDuration::from_mins(5)) {
                Ok(_) => permits += 1,
                Err(GramError::NotAuthorized(_)) => denials += 1,
                Err(_) => failures += 1,
            }
            max_decision_micros =
                max_decision_micros.max(clock.now().saturating_since(start).as_micros());
            clock.advance(gap);
        }
        phases.push(OutagePhase {
            label,
            requests: n,
            permits,
            denials,
            failures,
            degraded: stats_now(&supervised).degraded - degraded_before,
            max_decision_micros,
        });
    };

    run_phase("healthy-warmup", WARM, 5, SimDuration::from_secs(1));
    clock.advance_to(outage_from);
    run_phase("outage-warm", WARM, 10, SimDuration::from_secs(2));
    run_phase("outage-novel", NOVEL, 4, SimDuration::from_secs(2));
    // Past the outage end *and* past the breaker's open window.
    clock.advance_to(SimTime::from_secs(48));
    run_phase("recovery", WARM, 5, SimDuration::from_secs(1));

    OutageReport {
        mode,
        phases,
        transitions: supervised.as_ref().map_or(Vec::new(), |s| s.transitions()),
        stats: stats_now(&supervised),
        budget_micros,
    }
}

/// What one crash/recover cycle of a durable testbed produced.
#[derive(Debug, Clone)]
pub struct CrashRecoveryReport {
    /// Jobs acknowledged before the crash.
    pub submitted: usize,
    /// Of those, cancels acknowledged before the crash.
    pub cancelled: usize,
    /// WAL bytes on the device at crash time — the tail recovery replays.
    pub journal_bytes: u64,
    /// Snapshot bytes recovery loaded before the tail (0 when no
    /// checkpoint fired before the crash).
    pub snapshot_bytes: u64,
    /// Wall time of the post-crash rebuild, nanoseconds.
    pub recovery_nanos: u64,
    /// Continuity violations on the recovered site (empty = pass).
    pub violations: Vec<String>,
}

/// Crash/recover at the site level: a full extended-mode testbed (VO
/// policy chain, grid-mapfile, paper identities) journals a member
/// workload, the process dies, and an identically configured testbed is
/// rebuilt over the surviving journal. Because testbed credentials are
/// derived deterministically from their DNs, the rebuilt site must
/// honor every pre-crash acknowledgement: live jobs are still standing
/// and manageable by their owners, cancelled jobs stay retired (absent,
/// or at most cancelled, never live), the site holds exactly the live
/// jobs, the VO admin's tag sweep still sees every live `NFC` job, and
/// the next contact is issued above every contact issued before the
/// crash.
/// `snapshot_every` is the checkpoint cadence in journal appends (0
/// disables checkpointing, so recovery replays the full history).
#[must_use]
pub fn crash_recovery(jobs: usize, snapshot_every: u64) -> CrashRecoveryReport {
    use gridauthz_gram::DurabilityConfig;
    use gridauthz_journal::{MemSnapshotStore, MemStorage, SnapshotStore};
    use gridauthz_scheduler::JobState;

    const RSL: &str = "&(executable = TRANSP)(jobtag = NFC)(count = 1)";
    let storage = MemStorage::new();
    let snapshots = MemSnapshotStore::new();
    let members = 4;
    let build = || {
        TestbedBuilder::new()
            .members(members)
            .durability(
                DurabilityConfig::in_memory(storage.clone(), snapshots.clone())
                    .snapshot_every(snapshot_every),
            )
            .build()
    };

    let tb = build();
    let work = SimDuration::from_hours(4);
    let mut live = Vec::new();
    let mut cancelled = Vec::new();
    for i in 0..jobs {
        let client = tb.member_client(i % members);
        let contact = client.submit(&tb.server, RSL, work).expect("scripted submit admits");
        // Every third job is cancelled before the crash.
        if i % 3 == 2 {
            client.cancel(&tb.server, &contact).expect("owner cancels own job");
            cancelled.push((i % members, contact));
        } else {
            live.push((i % members, contact));
        }
    }
    // The machine dies: drop the whole site; only the journal survives.
    drop(tb);
    // Measure what the platter kept *before* the rebuild touches it —
    // recovery itself may checkpoint and compact the tail away.
    let journal_bytes = storage.contents().len() as u64;
    let snapshot_bytes =
        snapshots.clone().load().ok().flatten().map_or(0, |blob| blob.encode().len() as u64);

    let start = std::time::Instant::now();
    let tb = build();
    let recovery_nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let mut violations = Vec::new();
    for (owner, contact) in &live {
        match tb.member_client(*owner).status(&tb.server, contact) {
            Ok(report) if report.state.is_terminal() => {
                violations.push(format!("live job {} recovered terminal", contact.as_str()));
            }
            Ok(_) => {}
            Err(e) => {
                violations.push(format!("owner lost access to {}: {e}", contact.as_str()));
            }
        }
    }
    for (_, contact) in &cancelled {
        match tb.server.job_state(contact) {
            None | Some(JobState::Cancelled { .. }) => {}
            Some(other) => violations
                .push(format!("cancelled job {} recovered as {other:?}", contact.as_str())),
        }
    }
    if tb.server.job_count() != live.len() {
        violations.push(format!(
            "recovered {} jobs, {} acknowledged live",
            tb.server.job_count(),
            live.len()
        ));
    }
    // The admin's VO-wide sweep still covers every live NFC job.
    match tb.server.status_by_tag(tb.admin.chain(), "NFC") {
        Ok(reports) => {
            let standing = reports
                .iter()
                .filter(|(_, report)| report.as_ref().is_ok_and(|r| !r.state.is_terminal()))
                .count();
            if standing != live.len() {
                violations.push(format!(
                    "admin sweep sees {standing} live NFC jobs, {} acknowledged",
                    live.len()
                ));
            }
        }
        Err(e) => violations.push(format!("admin sweep refused after recovery: {e}")),
    }
    // Contacts are never reissued, not even those of retired jobs.
    let issued = live.iter().chain(&cancelled).filter_map(|(_, contact)| contact.index()).max();
    match tb.member_client(0).submit(&tb.server, RSL, work) {
        Ok(next) if next.index() > issued => {}
        Ok(next) => violations.push(format!(
            "post-recovery submit reissued {} (highest issued before the crash: {issued:?})",
            next.as_str()
        )),
        Err(e) => violations.push(format!("post-recovery submit refused: {e}")),
    }

    CrashRecoveryReport {
        submitted: jobs,
        cancelled: cancelled.len(),
        journal_bytes,
        snapshot_bytes,
        recovery_nanos,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridauthz_core::BreakerState;

    #[test]
    fn f1_f2_comparison_matches_expected() {
        assert_eq!(figure1_vs_figure2(), figure1_vs_figure2_expected());
    }

    #[test]
    fn f3_matrix_has_no_mismatches() {
        let rows = figure3_matrix();
        assert_eq!(rows.len(), 10);
        for row in rows {
            assert_eq!(row.actual_permit, row.expected_permit, "mismatch on {:?}", row.case);
        }
    }

    #[test]
    fn outage_fail_closed_bounds_every_decision_and_recovers() {
        let report = callout_outage_recovery(Some(DegradationPolicy::FailClosed));
        assert_eq!(report.mode, "fail-closed");

        let warmup = report.phase("healthy-warmup");
        assert_eq!((warmup.permits, warmup.failures, warmup.degraded), (5, 0, 0));

        // 100% outage: every answer is a bounded authorization-system
        // failure — no unbounded retry storm, no hung request.
        for label in ["outage-warm", "outage-novel"] {
            let phase = report.phase(label);
            assert_eq!(phase.permits, 0, "{label}: fail-closed must not permit");
            assert_eq!(phase.failures, phase.requests, "{label}");
            assert!(
                phase.max_decision_micros <= report.budget_micros,
                "{label}: {}us exceeds the {}us decision budget",
                phase.max_decision_micros,
                report.budget_micros
            );
        }
        assert_eq!(report.phase("outage-warm").degraded, 10);

        // Recovery: the breaker re-closed and service resumed in full.
        let recovery = report.phase("recovery");
        assert_eq!((recovery.permits, recovery.failures), (5, 0));
        let shape: Vec<(BreakerState, BreakerState)> =
            report.transitions.iter().map(|t| (t.from, t.to)).collect();
        assert!(shape.contains(&(BreakerState::Closed, BreakerState::Open)));
        assert!(
            shape.contains(&(BreakerState::HalfOpen, BreakerState::Open)),
            "a mid-outage probe must have failed: {shape:?}"
        );
        assert_eq!(shape.last(), Some(&(BreakerState::HalfOpen, BreakerState::Closed)));

        // The breaker turned most outage decisions into instant
        // rejections instead of retry storms.
        assert!(report.stats.breaker_rejections >= 8, "{:?}", report.stats);
        assert!(report.stats.retries > 0);
    }

    #[test]
    fn outage_serve_stale_keeps_answering_warm_requests() {
        let report = callout_outage_recovery(Some(DegradationPolicy::ServeStale {
            ttl: SimDuration::from_secs(60),
        }));
        assert_eq!(report.mode, "serve-stale");

        // Previously-seen requests keep being answered — flagged
        // degraded — for the whole outage.
        let warm = report.phase("outage-warm");
        assert_eq!((warm.permits, warm.failures), (10, 0));
        assert_eq!(warm.degraded, 10);
        assert!(warm.max_decision_micros <= report.budget_micros);

        // A request the store has never seen still fails closed.
        let novel = report.phase("outage-novel");
        assert_eq!((novel.permits, novel.failures), (0, 4));

        assert_eq!(report.stats.stale_served, 10);
        let recovery = report.phase("recovery");
        assert_eq!((recovery.permits, recovery.degraded), (5, 0));
    }

    #[test]
    fn crash_recovery_preserves_every_acknowledged_outcome() {
        let report = crash_recovery(12, 64);
        assert_eq!(report.submitted, 12);
        assert_eq!(report.cancelled, 4);
        assert!(report.journal_bytes > 0, "the workload must have journaled something");
        assert_eq!(report.violations, Vec::<String>::new());
    }

    #[test]
    fn crash_recovery_checkpoint_bounds_the_replayed_tail() {
        // Enough jobs that the checkpoint cadence fires mid-run: the
        // snapshot absorbs history and the tail stays bounded.
        let checkpointed = crash_recovery(60, 32);
        assert_eq!(checkpointed.violations, Vec::<String>::new());
        assert!(checkpointed.snapshot_bytes > 0, "a checkpoint must have fired");

        let replay_only = crash_recovery(60, 0);
        assert_eq!(replay_only.violations, Vec::<String>::new());
        assert_eq!(replay_only.snapshot_bytes, 0);
        assert!(
            checkpointed.journal_bytes < replay_only.journal_bytes,
            "compaction must shorten the tail ({} vs {})",
            checkpointed.journal_bytes,
            replay_only.journal_bytes
        );
    }

    #[test]
    fn outage_unsupervised_baseline_has_no_resilience() {
        let report = callout_outage_recovery(None);
        assert_eq!(report.mode, "unsupervised");
        assert!(report.transitions.is_empty());
        assert_eq!(report.stats, SupervisionStats::default());
        // Every outage request fails, warm or not — no stale store, no
        // degradation, nothing flagged.
        assert_eq!(report.phase("outage-warm").failures, 10);
        assert_eq!(report.phase("outage-warm").degraded, 0);
        assert_eq!(report.phase("outage-novel").failures, 4);
        assert_eq!(report.phase("recovery").permits, 5);
    }
}
