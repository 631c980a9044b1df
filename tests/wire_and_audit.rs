//! Integration tests for the wire protocol boundary and the audit trail.

use gridauthz::clock::SimDuration;
use gridauthz::credential::{pem::encode_chain, Certificate};
use gridauthz::gram::wire::{WireRequestRef, WireResponse};
use gridauthz::gram::{AuditOutcome, GramServer, GramSignal};
use gridauthz::sim::TestbedBuilder;

fn mins(m: u64) -> SimDuration {
    SimDuration::from_mins(m)
}

/// Sends `body` behind `chain`'s PEM armor and returns the answer text.
fn serve_pem(server: &GramServer, chain: &[Certificate], body: &str) -> String {
    server.handle_wire_pem(&format!("{}{body}", encode_chain(chain)))
}

#[test]
fn full_job_lifecycle_over_the_wire() {
    let tb = TestbedBuilder::new().members(1).build();
    let chain = tb.members[0].chain();

    // Submit.
    let submit = WireRequestRef::Submit {
        rsl: "&(executable = TRANSP)(jobtag = NFC)(count = 2)",
        account: None,
        work: mins(30),
    };
    let response =
        WireResponse::decode(&serve_pem(&tb.server, chain, &submit.encode().unwrap())).unwrap();
    let WireResponse::Submitted { contact } = response else {
        panic!("expected Submitted, got {response:?}");
    };

    // Status.
    let status = WireRequestRef::Status { contact: &contact };
    let response =
        WireResponse::decode(&serve_pem(&tb.server, chain, &status.encode().unwrap())).unwrap();
    let WireResponse::Report { state, jobtag, owner, .. } = response else {
        panic!("expected Report, got {response:?}");
    };
    assert_eq!(state, "running");
    assert_eq!(jobtag.as_deref(), Some("NFC"));
    assert_eq!(owner, tb.members[0].identity().to_string());

    // Suspend via signal, then cancel.
    let signal = WireRequestRef::Signal { contact: &contact, signal: GramSignal::Suspend };
    let response =
        WireResponse::decode(&serve_pem(&tb.server, chain, &signal.encode().unwrap())).unwrap();
    assert_eq!(response, WireResponse::Done);
    let cancel = WireRequestRef::Cancel { contact: &contact };
    let response =
        WireResponse::decode(&serve_pem(&tb.server, chain, &cancel.encode().unwrap())).unwrap();
    assert_eq!(response, WireResponse::Done);
}

#[test]
fn wire_denials_carry_protocol_error_codes() {
    let tb = TestbedBuilder::new().members(1).build();
    let chain = tb.members[0].chain();

    let rogue = WireRequestRef::Submit {
        rsl: "&(executable = rogue)(jobtag = NFC)(count = 1)",
        account: None,
        work: mins(1),
    };
    let response =
        WireResponse::decode(&serve_pem(&tb.server, chain, &rogue.encode().unwrap())).unwrap();
    let WireResponse::Error { code, message } = response else {
        panic!("expected Error, got {response:?}");
    };
    assert_eq!(code, "AUTHORIZATION_DENIED");
    assert!(message.contains("fusion-vo"));

    // Garbage framing comes back as BAD_REQUEST, never a panic.
    let response = WireResponse::decode(&serve_pem(&tb.server, chain, "EHLO mail")).unwrap();
    let WireResponse::Error { code, .. } = response else {
        panic!("expected Error");
    };
    assert_eq!(code, "BAD_REQUEST");

    // Unknown contacts are UNKNOWN_JOB.
    let cancel = WireRequestRef::Cancel { contact: "gram://nowhere/jobs/99" };
    let response =
        WireResponse::decode(&serve_pem(&tb.server, chain, &cancel.encode().unwrap())).unwrap();
    let WireResponse::Error { code, .. } = response else {
        panic!("expected Error");
    };
    assert_eq!(code, "UNKNOWN_JOB");
}

#[test]
fn audit_log_records_permits_and_refusals_with_identities() {
    let tb = TestbedBuilder::new().members(2).build();
    let alice = tb.member_client(0);
    let bob = tb.member_client(1);

    let contact = alice
        .submit(&tb.server, "&(executable = TRANSP)(jobtag = NFC)(count = 2)", mins(30))
        .unwrap();
    // Bob tries to cancel Alice's job and is refused.
    let _ = bob.cancel(&tb.server, &contact);
    // Alice cancels her own job.
    alice.cancel(&tb.server, &contact).unwrap();

    let records = tb.server.audit_snapshot();
    assert_eq!(records.len(), 3);

    assert_eq!(records[0].subject, tb.members[0].identity());
    assert!(records[0].outcome.is_permitted());
    assert_eq!(records[0].action, gridauthz::core::Action::Start);

    assert_eq!(records[1].subject, tb.members[1].identity());
    let AuditOutcome::Refused(reason) = &records[1].outcome else {
        panic!("Bob's cancel must be recorded as refused");
    };
    assert!(reason.contains("denied"));
    // The audit record names the job and the account even for refusals.
    assert_eq!(records[1].job.as_deref(), Some(contact.as_str()));
    assert_eq!(records[1].account.as_deref(), Some("member0000"));

    assert!(records[2].outcome.is_permitted());
    assert_eq!(tb.server.audit_refusal_count(), 1);

    // Every decision record joins to a finished telemetry trace with
    // per-stage spans: audit answers *what* was decided, the trace
    // answers *where* the decision spent its time.
    let traces = tb.server.telemetry().recent_traces();
    for record in &records {
        let id = record.trace_id.expect("decision records carry a trace id");
        let trace = traces.iter().find(|t| t.id() == id).expect("trace id resolves");
        assert!(!trace.spans().is_empty());
    }
}

#[test]
fn header_injection_is_rejected_at_both_codec_boundaries() {
    let tb = TestbedBuilder::new().members(1).build();
    let chain = tb.members[0].chain();

    // Encode side: a jobtag (or any header value) carrying a newline
    // would smuggle a forged header into the message; encode refuses.
    let smuggle = WireRequestRef::Submit {
        rsl: "&(executable = TRANSP)(jobtag = NFC)(count = 1)\nowner: /O=Grid/CN=Forged",
        account: None,
        work: mins(1),
    };
    assert!(smuggle.encode().is_err());

    // Decode side: hand-built wire text with a duplicate header (the
    // result of a successful injection) is refused before dispatch, with
    // its own protocol code.
    let forged = "GRAM/1 SUBMIT\nrsl: &(executable = TRANSP)(jobtag = NFC)(count = 1)\n\
                  work-micros: 60000000\nwork-micros: 1\n";
    let response = WireResponse::decode(&serve_pem(&tb.server, chain, forged)).unwrap();
    let WireResponse::Error { code, message } = response else {
        panic!("expected Error");
    };
    assert_eq!(code, "DUPLICATE_HEADER");
    assert!(message.contains("duplicate header"), "{message}");

    // Nothing reached the authorization pipeline or the audit log.
    assert_eq!(tb.server.audit_snapshot().len(), 0);
}

#[test]
fn audit_survives_shared_dynamic_accounts() {
    // The motivating case: once jobs share pool accounts, only the audit
    // log ties actions back to Grid identities.
    use gridauthz::credential::{CertificateAuthority, GridMapFile, TrustStore};
    use gridauthz::enforcement::DynamicAccountPool;
    use gridauthz::gram::GramServerBuilder;
    use gridauthz::scheduler::Cluster;

    let clock = gridauthz::clock::SimClock::new();
    let ca = CertificateAuthority::new_root("/O=Grid/CN=CA", &clock).unwrap();
    let mut trust = TrustStore::new();
    trust.add_anchor(ca.certificate().clone());
    let a = ca.issue_identity("/O=Grid/CN=A", SimDuration::from_hours(8)).unwrap();
    let b = ca.issue_identity("/O=Grid/CN=B", SimDuration::from_hours(8)).unwrap();

    let server = GramServerBuilder::new("site", &clock)
        .trust(trust)
        .gridmap(GridMapFile::new())
        .cluster(Cluster::uniform(2, 4, 4096))
        .dynamic_accounts(DynamicAccountPool::new("grid", 4, 80_000, SimDuration::from_mins(30)))
        .build();

    server.submit(a.chain(), "&(executable = x)(count = 1)", None, mins(1)).unwrap();
    server.submit(b.chain(), "&(executable = x)(count = 1)", None, mins(1)).unwrap();

    let records = server.audit_snapshot();
    assert_eq!(records.len(), 2);
    let subjects: Vec<String> = records.iter().map(|r| r.subject.to_string()).collect();
    assert_eq!(subjects, vec!["/O=Grid/CN=A", "/O=Grid/CN=B"]);
}

#[test]
fn self_contained_pem_wire_messages_work_end_to_end() {
    let tb = TestbedBuilder::new().members(1).build();
    let request = WireRequestRef::Submit {
        rsl: "&(executable = TRANSP)(jobtag = NFC)(count = 2)",
        account: None,
        work: mins(10),
    };
    // One text blob: credential + request.
    let message = format!("{}{}", encode_chain(tb.members[0].chain()), request.encode().unwrap());
    let response = WireResponse::decode(&tb.server.handle_wire_pem(&message)).unwrap();
    assert!(matches!(response, WireResponse::Submitted { .. }));

    // A corrupted credential fails authentication, not parsing.
    let corrupted = message.replace("Member 0000", "Member 9999");
    let response = WireResponse::decode(&tb.server.handle_wire_pem(&corrupted)).unwrap();
    let WireResponse::Error { code, .. } = response else {
        panic!("expected Error");
    };
    assert_eq!(code, "AUTHENTICATION_FAILED");

    // A message without a request at all is a BAD_REQUEST.
    let response =
        WireResponse::decode(&tb.server.handle_wire_pem(&encode_chain(tb.members[0].chain())))
            .unwrap();
    let WireResponse::Error { code, .. } = response else {
        panic!("expected Error");
    };
    assert_eq!(code, "BAD_REQUEST");
}
