//! Callout resilience end-to-end: a GRAM server whose authorization
//! callout is supervised (deadlines, retries, circuit breaker,
//! degradation policy) keeps answering within its decision budget
//! through a total policy-service outage, and the audit trail records
//! both the degraded decisions and the breaker's state changes.

use std::sync::Arc;

use gridauthz::clock::{SimClock, SimDuration, SimTime};
use gridauthz::core::{BreakerState, DegradationPolicy, ResilienceConfig, SupervisedCallout};
use gridauthz::credential::{CertificateAuthority, GridMapEntry, GridMapFile, TrustStore};
use gridauthz::gram::{GramClient, GramError, GramServer, GramServerBuilder};
use gridauthz::scheduler::Cluster;
use gridauthz::sim::FlakyCallout;

const OUTAGE_FROM: SimTime = SimTime::from_secs(10);
const OUTAGE_UNTIL: SimTime = SimTime::from_secs(40);

fn resilience(policy: DegradationPolicy) -> ResilienceConfig {
    ResilienceConfig {
        deadline: SimDuration::from_millis(50),
        max_attempts: 3,
        base_backoff: SimDuration::from_millis(5),
        max_backoff: SimDuration::from_millis(20),
        failure_threshold: 3,
        open_for: SimDuration::from_secs(8),
        probe_budget: 2,
        close_after: 2,
        degradation: policy,
    }
}

struct Site {
    clock: SimClock,
    server: GramServer,
    client: GramClient,
    flaky: Arc<FlakyCallout>,
}

/// A site whose only callout is a supervised policy service that
/// is down (fast failures) from t=10 s to t=40 s.
fn site(policy: DegradationPolicy) -> Site {
    let clock = SimClock::new();
    let ca = CertificateAuthority::new_root("/O=Grid/CN=CA", &clock).unwrap();
    let mut trust = TrustStore::new();
    trust.add_anchor(ca.certificate().clone());
    let user = ca.issue_identity("/O=Grid/CN=U", SimDuration::from_hours(8)).unwrap();
    let mut gridmap = GridMapFile::new();
    gridmap.insert(GridMapEntry::new(user.identity(), vec!["u".into()]));

    let flaky =
        Arc::new(FlakyCallout::new("vo-policy", &clock).fail_between(OUTAGE_FROM, OUTAGE_UNTIL));
    let supervised = Arc::new(SupervisedCallout::new(flaky.clone(), &clock, resilience(policy)));

    let server = GramServerBuilder::new("site", &clock)
        .trust(trust)
        .gridmap(gridmap)
        .cluster(Cluster::uniform(4, 8, 8192))
        .callouts(vec![supervised])
        .build();
    let client = GramClient::new(user);
    Site { clock, server, client, flaky }
}

fn mins(m: u64) -> SimDuration {
    SimDuration::from_mins(m)
}

/// Submits and returns the outcome together with the simulated time the
/// decision consumed.
fn timed_submit(site: &Site, rsl: &str) -> (Result<String, GramError>, SimDuration) {
    let before = site.clock.now();
    let result = site.client.submit(&site.server, rsl, mins(1)).map(|contact| contact.to_string());
    (result, site.clock.now().saturating_since(before))
}

#[test]
fn fail_closed_outage_is_bounded_and_audited() {
    let site = site(DegradationPolicy::FailClosed);
    let budget = resilience(DegradationPolicy::FailClosed).decision_budget();

    // Healthy before the outage.
    let (ok, _) = timed_submit(&site, "&(executable = a)(count = 1)");
    ok.unwrap();

    // Total outage: every decision is refused as a *system failure*
    // (never a permit, never a hang) and stays inside the budget. The
    // breaker trips after `failure_threshold` failed decisions, so the
    // later requests are rejected without touching the dead service.
    site.clock.advance_to(OUTAGE_FROM);
    let calls_before = site.flaky.calls();
    for i in 0..6 {
        let (result, elapsed) = timed_submit(&site, "&(executable = a)(count = 1)");
        assert!(
            matches!(result, Err(GramError::AuthorizationSystemFailure(_))),
            "outage request {i} must fail closed, got {result:?}"
        );
        assert!(elapsed <= budget, "outage request {i} took {elapsed}, budget is {budget}");
        site.clock.advance(SimDuration::from_secs(1));
    }
    // Breaker-open rejections never reach the inner callout: six
    // decisions at three attempts each would be eighteen calls unbroken.
    assert!(site.flaky.calls() - calls_before < 18, "breaker never opened");

    let reports = site.server.supervision_reports();
    assert_eq!(reports.len(), 1);
    let (name, report) = &reports[0];
    assert_eq!(name, "vo-policy");
    assert_eq!(report.state, BreakerState::Open);
    assert!(report.stats.retries > 0);
    assert!(report.stats.breaker_rejections > 0);
    assert_eq!(report.decision_budget, budget);

    // Recovery: once the service is back and the open interval has
    // lapsed, probes close the breaker and submissions flow again.
    site.clock.advance_to(SimTime::from_secs(48));
    for _ in 0..2 {
        let (result, _) = timed_submit(&site, "&(executable = a)(count = 1)");
        result.unwrap();
    }
    assert_eq!(site.server.supervision_reports()[0].1.state, BreakerState::Closed);

    // The audit trail carries one administrative record per breaker
    // transition under the supervision subject, refusal-shaped for
    // openings and permit-shaped for recoveries.
    let audit = site.server.audit_snapshot();
    let supervision: Vec<_> =
        audit.iter().filter(|r| r.subject.to_string() == "/CN=gram-supervision").collect();
    assert!(!supervision.is_empty(), "no breaker transitions audited");
    assert!(supervision.iter().all(|r| r.note.as_deref().is_some_and(|n| n.contains("vo-policy"))));
    let openings: Vec<_> = supervision
        .iter()
        .filter(|r| r.note.as_deref().is_some_and(|n| n.ends_with("-> open")))
        .collect();
    assert!(!openings.is_empty());
    assert!(openings.iter().all(|r| r.degraded && !r.outcome.is_permitted()));
    let last = supervision.last().unwrap();
    assert!(last.note.as_deref().unwrap().ends_with("half-open -> closed"));
    assert!(last.outcome.is_permitted() && !last.degraded);

    // Snapshotting twice does not duplicate transition records.
    assert_eq!(
        site.server
            .audit_snapshot()
            .iter()
            .filter(|r| r.subject.to_string() == "/CN=gram-supervision")
            .count(),
        supervision.len()
    );
}

#[test]
fn serve_stale_answers_warm_requests_degraded_during_outage() {
    let ttl = SimDuration::from_secs(60);
    let site = site(DegradationPolicy::ServeStale { ttl });

    // Warm the stale store with a healthy decision.
    let (ok, _) = timed_submit(&site, "&(executable = a)(count = 1)");
    ok.unwrap();

    site.clock.advance_to(OUTAGE_FROM);

    // The warm request keeps being permitted from the remembered
    // decision; a request the callout never answered fails closed.
    let (warm, _) = timed_submit(&site, "&(executable = a)(count = 1)");
    warm.unwrap();
    let (novel, _) = timed_submit(&site, "&(executable = b)(count = 1)");
    assert!(matches!(novel, Err(GramError::AuthorizationSystemFailure(_))));

    let report = &site.server.supervision_reports()[0].1;
    assert!(report.stats.stale_served >= 1);
    assert!(report.stats.degraded >= 2);

    // The stale-served permit is audited as a degraded decision tied to
    // its telemetry trace — the operator's cue that the permit did not
    // come from a live policy evaluation.
    let audit = site.server.audit_snapshot();
    let degraded_permits: Vec<_> = audit
        .iter()
        .filter(|r| r.degraded && r.trace_id.is_some() && r.outcome.is_permitted())
        .collect();
    assert!(!degraded_permits.is_empty(), "stale-served permit missing its degraded audit marker");
    assert!(degraded_permits.iter().all(|r| r.subject.to_string() == "/O=Grid/CN=U"));
}
