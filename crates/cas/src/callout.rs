//! Resource-side enforcement of restricted-proxy capability policies.

use gridauthz_core::{
    AuthorizationCallout, AuthzFailure, AuthzRequest, DecisionTrace, DenyReason, Pdp, Policy,
    RequestContext,
};

/// A callout enforcing every restriction payload attached to the request's
/// credential: each embedded policy must independently permit the request
/// (rights *intersection*). Requests without restrictions pass — ordinary
/// (non-CAS) credentials are not constrained by this callout; combine it
/// with a `PdpCallout` for site policy.
#[derive(Debug, Clone, Default)]
pub struct RestrictionCallout {
    name: String,
}

impl RestrictionCallout {
    /// Creates the callout with a configured name.
    pub fn new(name: impl Into<String>) -> RestrictionCallout {
        RestrictionCallout { name: name.into() }
    }
}

impl AuthorizationCallout for RestrictionCallout {
    fn name(&self) -> &str {
        &self.name
    }

    fn authorize_within(
        &self,
        _ctx: &RequestContext,
        request: &AuthzRequest,
        _trace: Option<&mut DecisionTrace>,
    ) -> Result<(), AuthzFailure> {
        for (i, payload) in request.restrictions().iter().enumerate() {
            let policy: Policy = payload.parse().map_err(|e| {
                AuthzFailure::SystemError(format!("unparsable restriction payload {i}: {e}"))
            })?;
            let decision = Pdp::new(policy).decide(request);
            if let Some(reason) = decision.deny_reason() {
                return Err(AuthzFailure::Denied(DenyReason::RestrictionViolated {
                    detail: format!("payload {i}: {reason}"),
                }));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridauthz_core::Action;
    use gridauthz_credential::DistinguishedName;
    use gridauthz_rsl::parse;

    fn dn(s: &str) -> DistinguishedName {
        s.parse().unwrap()
    }

    fn start(job: &str) -> AuthzRequest {
        AuthzRequest::start(
            dn("/O=Grid/CN=Fusion CAS"),
            parse(job).unwrap().as_conjunction().unwrap().clone(),
        )
    }

    const CAPS: &str = "*: &(action = start)(executable = TRANSP)(jobtag = NFC)(count < 32)";

    #[test]
    fn unrestricted_requests_pass() {
        let c = RestrictionCallout::new("cas-enforce");
        assert!(c
            .authorize_within(
                &RequestContext::unbounded(),
                &start("&(executable = anything)"),
                None
            )
            .is_ok());
        assert_eq!(c.name(), "cas-enforce");
    }

    #[test]
    fn capability_permits_matching_request() {
        let c = RestrictionCallout::new("cas-enforce");
        let r = start("&(executable = TRANSP)(jobtag = NFC)(count = 8)")
            .with_restrictions(vec![CAPS.into()]);
        assert!(c.authorize_within(&RequestContext::unbounded(), &r, None).is_ok());
    }

    #[test]
    fn capability_denies_excess_request() {
        let c = RestrictionCallout::new("cas-enforce");
        let r = start("&(executable = TRANSP)(jobtag = NFC)(count = 64)")
            .with_restrictions(vec![CAPS.into()]);
        let err = c.authorize_within(&RequestContext::unbounded(), &r, None).unwrap_err();
        assert!(matches!(err, AuthzFailure::Denied(DenyReason::RestrictionViolated { .. })));
    }

    #[test]
    fn all_payloads_must_permit() {
        // Double delegation narrows rights: the inner payload forbids
        // cancel even though the outer allows it.
        let outer = "*: &(action = start)(executable = TRANSP)(jobtag = NFC) &(action = cancel)(jobtag = NFC)";
        let inner = "*: &(action = start)(executable = TRANSP)(jobtag = NFC)";
        let c = RestrictionCallout::new("cas-enforce");

        let start_req = start("&(executable = TRANSP)(jobtag = NFC)")
            .with_restrictions(vec![inner.into(), outer.into()]);
        assert!(c.authorize_within(&RequestContext::unbounded(), &start_req, None).is_ok());

        let cancel_req = AuthzRequest::manage(
            dn("/O=Grid/CN=Fusion CAS"),
            Action::Cancel,
            dn("/O=Grid/CN=Fusion CAS"),
            Some("NFC".into()),
        )
        .with_restrictions(vec![inner.into(), outer.into()]);
        assert!(c.authorize_within(&RequestContext::unbounded(), &cancel_req, None).is_err());
    }

    #[test]
    fn garbage_payload_is_a_system_error() {
        let c = RestrictionCallout::new("cas-enforce");
        let r = start("&(executable = TRANSP)").with_restrictions(vec!["not a policy".into()]);
        match c.authorize_within(&RequestContext::unbounded(), &r, None) {
            Err(AuthzFailure::SystemError(msg)) => assert!(msg.contains("payload 0")),
            other => panic!("expected SystemError, got {other:?}"),
        }
    }

    #[test]
    fn supervision_preserves_decisions_and_retries_corrupt_payloads() {
        use std::sync::Arc;

        use gridauthz_clock::SimClock;
        use gridauthz_core::{ResilienceConfig, SupervisedCallout};

        let clock = SimClock::new();
        let config = ResilienceConfig { max_attempts: 2, ..ResilienceConfig::default() };
        let supervised = SupervisedCallout::new(
            Arc::new(RestrictionCallout::new("cas-enforce")),
            &clock,
            config,
        );

        // Permits and capability denials pass through unchanged — a
        // denial is an answer, not an authorization-system failure.
        let permit = start("&(executable = TRANSP)(jobtag = NFC)(count = 8)")
            .with_restrictions(vec![CAPS.into()]);
        assert!(supervised.authorize_within(&RequestContext::unbounded(), &permit, None).is_ok());
        let deny = start("&(executable = TRANSP)(jobtag = NFC)(count = 64)")
            .with_restrictions(vec![CAPS.into()]);
        assert!(matches!(
            supervised.authorize_within(&RequestContext::unbounded(), &deny, None),
            Err(AuthzFailure::Denied(_))
        ));
        assert_eq!(supervised.stats().retries, 0);

        // A corrupt payload is a system failure: retried once under the
        // two-attempt budget, then failed closed and counted degraded.
        let garbage = start("&(executable = TRANSP)").with_restrictions(vec!["%%".into()]);
        match supervised.authorize_within(&RequestContext::unbounded(), &garbage, None) {
            Err(AuthzFailure::SystemError(msg)) => assert!(msg.contains("failing closed")),
            other => panic!("expected fail-closed SystemError, got {other:?}"),
        }
        assert_eq!(supervised.stats().retries, 1);
        assert_eq!(supervised.stats().degraded, 1);
    }
}
