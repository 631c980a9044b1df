//! End-to-end integration tests: full GRAM flows across every crate.

use gridauthz::clock::SimDuration;
use gridauthz::core::DenyReason;
use gridauthz::gram::{GramClient, GramError, GramMode, GramSignal};
use gridauthz::scheduler::JobState;
use gridauthz::sim::{run_workload, TestbedBuilder, WorkloadGenerator};

fn mins(m: u64) -> SimDuration {
    SimDuration::from_mins(m)
}

const SANCTIONED: &str = "&(executable = TRANSP)(jobtag = NFC)(count = 4)";

#[test]
fn full_job_lifecycle_under_fine_grain_policy() {
    let tb = TestbedBuilder::new().members(2).build();
    let member = tb.member_client(0);

    let contact = member.submit(&tb.server, SANCTIONED, mins(30)).unwrap();
    let report = member.status(&tb.server, &contact).unwrap();
    assert!(matches!(report.state, JobState::Running { .. }));
    assert_eq!(report.jobtag.as_deref(), Some("NFC"));

    // Run 10 minutes, suspend, run 5 more, resume, drain.
    tb.clock.advance(mins(10));
    tb.server.pump();
    member.signal(&tb.server, &contact, GramSignal::Suspend).unwrap();
    tb.clock.advance(mins(5));
    tb.server.pump();
    member.signal(&tb.server, &contact, GramSignal::Resume).unwrap();
    tb.server.drain();

    let report = member.status(&tb.server, &contact).unwrap();
    assert!(matches!(report.state, JobState::Completed { .. }));
    assert_eq!(report.executed, mins(30));
    // Wall clock: 10 running + 5 suspended + 20 remaining.
    assert_eq!(tb.clock.now().as_secs(), 35 * 60);
}

#[test]
fn members_cannot_manage_each_others_jobs_but_admin_can() {
    let tb = TestbedBuilder::new().members(2).build();
    let alice = tb.member_client(0);
    let bob = tb.member_client(1);
    let admin = GramClient::new(tb.admin.clone());

    let contact = alice.submit(&tb.server, SANCTIONED, mins(30)).unwrap();

    // Bob (an analyst with self-only management) is denied.
    let err = bob.cancel(&tb.server, &contact).unwrap_err();
    assert!(matches!(err, GramError::NotAuthorized(_)));
    // The admin role's (jobtag = NFC) grant permits.
    admin.cancel(&tb.server, &contact).unwrap();
    // The cancel retired the job, as GT2's JMI exits with its job.
    let err = alice.status(&tb.server, &contact).unwrap_err();
    assert!(matches!(err, GramError::UnknownJob(_)));
}

#[test]
fn proxy_delegation_works_through_the_whole_stack() {
    let tb = TestbedBuilder::new().members(1).build();
    let proxy =
        tb.members[0].delegate_proxy_at(tb.clock.now(), SimDuration::from_hours(2)).unwrap();
    let client = GramClient::new(proxy);
    // Proxy authenticates as the member; policy applies to the effective
    // identity, not the proxy subject.
    let contact = client.submit(&tb.server, SANCTIONED, mins(5)).unwrap();
    let report = client.status(&tb.server, &contact).unwrap();
    assert_eq!(report.owner, tb.members[0].identity());
}

#[test]
fn expired_proxy_fails_authentication_but_job_keeps_running() {
    let tb = TestbedBuilder::new().members(1).build();
    let short_proxy = tb.members[0].delegate_proxy_at(tb.clock.now(), mins(10)).unwrap();
    let client = GramClient::new(short_proxy);
    let contact = client.submit(&tb.server, SANCTIONED, mins(60)).unwrap();

    // The proxy expires while the job runs.
    tb.clock.advance(mins(20));
    tb.server.pump();
    let err = client.status(&tb.server, &contact).unwrap_err();
    assert!(matches!(err, GramError::AuthenticationFailed(_)));

    // A fresh proxy from the long-lived identity regains access.
    let fresh = tb.members[0].delegate_proxy_at(tb.clock.now(), mins(60)).unwrap();
    let client = GramClient::new(fresh);
    let report = client.status(&tb.server, &contact).unwrap();
    assert!(matches!(report.state, JobState::Running { .. }));
    assert_eq!(report.executed, mins(20));
}

#[test]
fn vo_wide_tag_sweep_cancels_only_tagged_jobs() {
    let tb = TestbedBuilder::new().members(3).cluster(16, 8).build();
    let admin = GramClient::new(tb.admin.clone());

    let mut nfc = Vec::new();
    for i in 0..3 {
        let client = tb.member_client(i);
        nfc.push(client.submit(&tb.server, SANCTIONED, mins(60)).unwrap());
    }
    assert_eq!(tb.server.jobs_with_tag("NFC").len(), 3);

    let events = tb.server.subscribe();
    for contact in tb.server.jobs_with_tag("NFC") {
        admin.cancel(&tb.server, &contact).unwrap();
    }
    assert!(tb.server.jobs_with_tag("NFC").is_empty());
    // Every swept job was retired; its final event still reaches the
    // grid layer.
    let events: Vec<_> = events.try_iter().collect();
    for contact in &nfc {
        let err = admin.status(&tb.server, contact).unwrap_err();
        assert!(matches!(err, GramError::UnknownJob(_)));
        assert!(events
            .iter()
            .any(|e| Some(e.job.0) == contact.index()
                && matches!(e.state, JobState::Cancelled { .. })));
    }
}

#[test]
fn denial_reasons_surface_through_the_protocol() {
    let tb = TestbedBuilder::new().members(1).build();
    let member = tb.member_client(0);

    let err = member.submit(&tb.server, "&(executable = TRANSP)(count = 2)", mins(1)).unwrap_err();
    let GramError::NotAuthorized(DenyReason::SourceDenied { source, reason }) = err else {
        panic!("expected a sourced policy denial");
    };
    assert_eq!(source, "fusion-vo");
    assert!(matches!(*reason, DenyReason::RequirementViolated { .. }));
}

#[test]
fn workload_denial_rates_differ_between_modes() {
    let extended = TestbedBuilder::new().members(4).cluster(16, 8).build();
    let load = WorkloadGenerator::new(99).jobs(40).violation_rate(0.5);
    let workload = load.generate(&extended);
    let ext_metrics = run_workload(&extended, &workload);

    let gt2 = TestbedBuilder::new().members(4).cluster(16, 8).mode(GramMode::Gt2).build();
    let workload = load.generate(&gt2);
    let gt2_metrics = run_workload(&gt2, &workload);

    assert_eq!(gt2_metrics.denied, 0, "GT2 admits every mapped user");
    assert!(ext_metrics.denied > 0, "extended mode catches violations");
    assert!(ext_metrics.denial_rate() > gt2_metrics.denial_rate());
}

#[test]
fn gt2_and_extended_agree_on_authentication_failures() {
    use gridauthz::credential::CertificateAuthority;
    for mode in [GramMode::Gt2, GramMode::Extended] {
        let tb = TestbedBuilder::new().members(0).mode(mode).build();
        let rogue_clock = gridauthz::clock::SimClock::new();
        let rogue_ca = CertificateAuthority::new_root("/O=Rogue/CN=CA", &rogue_clock).unwrap();
        let eve = rogue_ca.issue_identity("/O=Rogue/CN=Eve", SimDuration::from_hours(1)).unwrap();
        let client = GramClient::new(eve);
        assert!(matches!(
            client.submit(&tb.server, SANCTIONED, mins(1)),
            Err(GramError::AuthenticationFailed(_))
        ));
    }
}

#[test]
fn revocation_cuts_off_a_compromised_credential_mid_session() {
    let tb = TestbedBuilder::new().members(1).build();
    let member = tb.member_client(0);
    let contact = member.submit(&tb.server, SANCTIONED, mins(60)).unwrap();

    // The VO reports the credential compromised; the site loads the CRL
    // entry for the member's end-entity certificate.
    let cert = tb.members[0].certificate();
    tb.server.revoke_credential(cert.issuer(), cert.serial()).unwrap();

    // Every further request — even reading status — fails authentication.
    let err = member.status(&tb.server, &contact).unwrap_err();
    assert!(matches!(err, GramError::AuthenticationFailed(_)));
    let err = member.submit(&tb.server, SANCTIONED, mins(1)).unwrap_err();
    assert!(matches!(err, GramError::AuthenticationFailed(_)));

    // The VO admin (unrevoked) can still clean up the running job.
    let admin = GramClient::new(tb.admin.clone());
    admin.cancel(&tb.server, &contact).unwrap();
}

#[test]
fn multi_request_submission_is_atomic() {
    let tb = TestbedBuilder::new().members(1).cluster(2, 8).build();
    let member = tb.member_client(0);
    let chain = tb.members[0].chain();

    // Two sanctioned sub-jobs co-allocate.
    let contacts = tb
        .server
        .submit_multi(
            chain,
            "+(&(executable = TRANSP)(jobtag = NFC)(count = 4))(&(executable = TRANSP)(jobtag = NFC)(count = 4))",
            &[mins(10), mins(20)],
        )
        .unwrap();
    assert_eq!(contacts.len(), 2);
    for contact in &contacts {
        assert!(matches!(
            member.status(&tb.server, contact).unwrap().state,
            JobState::Running { .. }
        ));
    }

    // A multi-request with one unauthorized part admits nothing.
    let before = tb.server.jobs_with_tag("NFC").len();
    let err = tb
        .server
        .submit_multi(
            chain,
            "+(&(executable = TRANSP)(jobtag = NFC)(count = 2))(&(executable = rogue)(jobtag = NFC)(count = 2))",
            &[mins(5), mins(5)],
        )
        .unwrap_err();
    assert!(matches!(err, GramError::NotAuthorized(_)));
    assert_eq!(
        tb.server.jobs_with_tag("NFC").len(),
        before,
        "rollback cancelled the admitted part"
    );

    // Shape errors are BadRequest.
    assert!(matches!(
        tb.server.submit_multi(chain, SANCTIONED, &[mins(1)]),
        Err(GramError::BadRequest(_))
    ));
    assert!(matches!(
        tb.server.submit_multi(
            chain,
            "+(&(executable = TRANSP)(jobtag = NFC))",
            &[mins(1), mins(2)]
        ),
        Err(GramError::BadRequest(_))
    ));
}

#[test]
fn lifecycle_events_reach_the_grid_layer() {
    let tb = TestbedBuilder::new().members(1).build();
    let member = tb.member_client(0);
    let stream = tb.server.subscribe();
    let contact = member.submit(&tb.server, SANCTIONED, mins(10)).unwrap();

    // Submission produced pending + running events, numbered by the
    // contact's index.
    let events: Vec<_> = stream.try_iter().collect();
    let labels: Vec<&str> = events.iter().map(|e| e.state.label()).collect();
    assert_eq!(labels, vec!["pending", "running"]);
    assert!(events.iter().all(|e| Some(e.job.0) == contact.index()));

    // Suspend/resume/complete arrive as they happen.
    member.signal(&tb.server, &contact, GramSignal::Suspend).unwrap();
    member.signal(&tb.server, &contact, GramSignal::Resume).unwrap();
    tb.server.drain();
    let labels: Vec<&str> = stream.try_iter().map(|e| e.state.label()).collect();
    assert_eq!(labels, vec!["suspended", "pending", "running", "completed"]);
    assert!(stream.try_recv().is_err());
}
