//! Failure injection: the authorization system must fail *closed* and
//! report failures distinctly from denials (§5.2's error extension).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gridauthz::clock::{SimClock, SimDuration};
use gridauthz::core::{
    AuthorizationCallout, AuthzFailure, AuthzRequest, CalloutConfig, CalloutRegistry,
    DecisionTrace, DenyReason, RequestContext,
};
use gridauthz::credential::{CertificateAuthority, GridMapEntry, GridMapFile, TrustStore};
use gridauthz::gram::{GramClient, GramError, GramServerBuilder};
use gridauthz::scheduler::Cluster;

/// A callout that can be flipped into a failing state at runtime —
/// simulating an unreachable policy server.
#[derive(Debug, Default)]
struct FlakyCallout {
    broken: AtomicBool,
}

impl AuthorizationCallout for FlakyCallout {
    fn name(&self) -> &str {
        "flaky-authz"
    }

    fn authorize_within(
        &self,
        _ctx: &RequestContext,
        _request: &AuthzRequest,
        _trace: Option<&mut DecisionTrace>,
    ) -> Result<(), AuthzFailure> {
        if self.broken.load(Ordering::SeqCst) {
            Err(AuthzFailure::SystemError("policy server unreachable".into()))
        } else {
            Ok(())
        }
    }
}

fn mins(m: u64) -> SimDuration {
    SimDuration::from_mins(m)
}

#[test]
fn authorization_system_failure_fails_closed() {
    let clock = SimClock::new();
    let ca = CertificateAuthority::new_root("/O=Grid/CN=CA", &clock).unwrap();
    let mut trust = TrustStore::new();
    trust.add_anchor(ca.certificate().clone());
    let user = ca.issue_identity("/O=Grid/CN=U", SimDuration::from_hours(8)).unwrap();
    let mut gridmap = GridMapFile::new();
    gridmap.insert(GridMapEntry::new(user.identity(), vec!["u".into()]));

    let flaky = Arc::new(FlakyCallout::default());
    let server = GramServerBuilder::new("site", &clock)
        .trust(trust)
        .gridmap(gridmap)
        .cluster(Cluster::uniform(1, 4, 4096))
        .callouts(vec![flaky.clone()])
        .build();
    let client = GramClient::new(user);

    // Healthy: the request passes.
    let contact = client.submit(&server, "&(executable = a)", mins(30)).unwrap();

    // Break the authorization system: *everything* is refused, including
    // management of a job that is already running, and the error is a
    // system failure, not a policy denial.
    flaky.broken.store(true, Ordering::SeqCst);
    match client.submit(&server, "&(executable = a)", mins(1)) {
        Err(GramError::AuthorizationSystemFailure(msg)) => {
            assert!(msg.contains("unreachable"));
        }
        other => panic!("expected fail-closed system failure, got {other:?}"),
    }
    assert!(matches!(
        client.cancel(&server, &contact),
        Err(GramError::AuthorizationSystemFailure(_))
    ));

    // Recovery restores service; the job was unaffected.
    flaky.broken.store(false, Ordering::SeqCst);
    client.cancel(&server, &contact).unwrap();
}

/// A callout whose failure message carries an embedded line break — as a
/// compromised or careless policy server might — trying to smuggle a
/// forged header into the wire response.
#[derive(Debug)]
struct ForgingCallout;

impl AuthorizationCallout for ForgingCallout {
    fn name(&self) -> &str {
        "forging-authz"
    }

    fn authorize_within(
        &self,
        _ctx: &RequestContext,
        _request: &AuthzRequest,
        _trace: Option<&mut DecisionTrace>,
    ) -> Result<(), AuthzFailure> {
        Err(AuthzFailure::SystemError("policy server down\ncode: OK".into()))
    }
}

#[test]
fn newline_bearing_failure_messages_cannot_forge_wire_headers() {
    use gridauthz::credential::pem::encode_chain;
    use gridauthz::gram::wire::{WireRequestRef, WireResponse};
    use gridauthz::telemetry::{labels, Stage};

    let clock = SimClock::new();
    let ca = CertificateAuthority::new_root("/O=Grid/CN=CA", &clock).unwrap();
    let mut trust = TrustStore::new();
    trust.add_anchor(ca.certificate().clone());
    let user = ca.issue_identity("/O=Grid/CN=U", SimDuration::from_hours(8)).unwrap();
    let mut gridmap = GridMapFile::new();
    gridmap.insert(GridMapEntry::new(user.identity(), vec!["u".into()]));
    let server = GramServerBuilder::new("site", &clock)
        .trust(trust)
        .gridmap(gridmap)
        .cluster(Cluster::uniform(1, 4, 4096))
        .callouts(vec![Arc::new(ForgingCallout)])
        .build();

    let request = WireRequestRef::Submit {
        rsl: "&(executable = a)(count = 1)",
        account: None,
        work: mins(1),
    };
    let text = server.handle_wire_pem(&format!(
        "{}{}",
        encode_chain(user.chain()),
        request.encode().unwrap()
    ));
    // The poisoned message cannot be encoded; the server answers with
    // the static fallback instead of leaking a forged `code:` header.
    let response = WireResponse::decode(&text).unwrap();
    let WireResponse::Error { code, message } = response else {
        panic!("expected Error, got {response:?}");
    };
    assert_eq!(code, "INTERNAL_ENCODING_FAILURE");
    assert!(!message.contains('\n'));

    // The failure is still accounted as an authorization-system error in
    // the shared registry — fail closed, observable, unforgeable.
    assert_eq!(server.telemetry().counter(Stage::Callout, labels::AUTHZ_SYSTEM), 1);
}

#[test]
fn misconfigured_callout_is_a_system_error_at_instantiation() {
    let registry = CalloutRegistry::new();
    let config = CalloutConfig::parse("authz libnot_installed.so authorize").unwrap();
    match registry.instantiate(&config) {
        Err(AuthzFailure::SystemError(msg)) => assert!(msg.contains("libnot_installed.so")),
        other => panic!("expected SystemError, got {other:?}"),
    }
}

#[test]
fn garbage_restriction_payload_fails_closed_through_gram() {
    use gridauthz::cas::RestrictionCallout;

    let clock = SimClock::new();
    let ca = CertificateAuthority::new_root("/O=Grid/CN=CA", &clock).unwrap();
    let mut trust = TrustStore::new();
    trust.add_anchor(ca.certificate().clone());
    let user = ca.issue_identity("/O=Grid/CN=U", SimDuration::from_hours(8)).unwrap();
    // A proxy carrying an unparsable policy payload (corrupted in
    // transit, or from an incompatible CAS version).
    let bad_proxy = user
        .delegate_restricted_proxy(clock.now(), SimDuration::from_hours(1), "%%garbage%%".into())
        .unwrap();
    let mut gridmap = GridMapFile::new();
    gridmap.insert(GridMapEntry::new(user.identity(), vec!["u".into()]));
    let server = GramServerBuilder::new("site", &clock)
        .trust(trust)
        .gridmap(gridmap)
        .cluster(Cluster::uniform(1, 4, 4096))
        .callouts(vec![Arc::new(RestrictionCallout::new("cas-enforce"))])
        .build();

    let err = server.submit(bad_proxy.chain(), "&(executable = a)", None, mins(1)).unwrap_err();
    assert!(matches!(err, GramError::AuthorizationSystemFailure(_)));
    // The plain credential (no restrictions) still works.
    let ok = server.submit(user.chain(), "&(executable = a)", None, mins(1));
    assert!(ok.is_ok());
}

#[test]
fn denials_and_failures_are_distinguishable() {
    let denial = GramError::NotAuthorized(DenyReason::NoApplicableGrant);
    let failure = GramError::AuthorizationSystemFailure("x".into());
    assert_ne!(std::mem::discriminant(&denial), std::mem::discriminant(&failure));
}
