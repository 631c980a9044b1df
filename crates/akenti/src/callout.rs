//! Adapter exposing the Akenti engine through the paper's GRAM
//! authorization callout API (§5: "In order to show generality of our
//! approach" the same policies were represented in Akenti and invoked
//! through the callout).

use std::sync::Arc;

use gridauthz_clock::SimClock;
use gridauthz_core::{
    AuthorizationCallout, AuthzFailure, AuthzRequest, DecisionTrace, DenyReason, RequestContext,
};
use gridauthz_rsl::attributes;

use crate::engine::AkentiEngine;

/// How the callout derives Akenti's *resource name* from a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceNaming {
    /// Use the job's `executable` attribute — protects *application
    /// services* (the paper's Fusion Collaboratory model, where VO members
    /// "should not be running arbitrary code, but only applications
    /// sanctioned by VO policy").
    Executable,
    /// Use a fixed resource name — protects the GRAM service as a whole.
    Fixed(&'static str),
}

/// [`AuthorizationCallout`] implementation backed by an [`AkentiEngine`].
pub struct AkentiCallout {
    name: String,
    engine: Arc<AkentiEngine>,
    clock: SimClock,
    naming: ResourceNaming,
}

impl AkentiCallout {
    /// Wraps `engine`, deriving resource names per `naming`.
    pub fn new(
        name: impl Into<String>,
        engine: Arc<AkentiEngine>,
        clock: SimClock,
        naming: ResourceNaming,
    ) -> AkentiCallout {
        AkentiCallout { name: name.into(), engine, clock, naming }
    }

    fn resource_for(&self, request: &AuthzRequest) -> Result<String, AuthzFailure> {
        match self.naming {
            ResourceNaming::Fixed(resource) => Ok(resource.to_string()),
            ResourceNaming::Executable => {
                if let Some(job) = request.job() {
                    if let Some(executable) =
                        job.first_value(attributes::EXECUTABLE).and_then(|v| v.as_str())
                    {
                        return Ok(executable.to_string());
                    }
                }
                Err(AuthzFailure::Denied(DenyReason::NoApplicableGrant))
            }
        }
    }
}

impl std::fmt::Debug for AkentiCallout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AkentiCallout")
            .field("name", &self.name)
            .field("naming", &self.naming)
            .finish()
    }
}

impl AuthorizationCallout for AkentiCallout {
    fn name(&self) -> &str {
        &self.name
    }

    fn authorize_within(
        &self,
        _ctx: &RequestContext,
        request: &AuthzRequest,
        _trace: Option<&mut DecisionTrace>,
    ) -> Result<(), AuthzFailure> {
        let resource = self.resource_for(request)?;
        self.engine
            .check_access(request.subject(), &resource, request.action(), self.clock.now())
            .map_err(|e| {
                AuthzFailure::Denied(DenyReason::RestrictionViolated {
                    detail: format!("akenti: {e}"),
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AttributeAuthority, UseCondition};
    use gridauthz_clock::SimDuration;
    use gridauthz_core::Action;
    use gridauthz_credential::DistinguishedName;
    use gridauthz_rsl::parse;

    fn dn(s: &str) -> DistinguishedName {
        s.parse().unwrap()
    }

    fn request(subject: &str, job: &str) -> AuthzRequest {
        AuthzRequest::start(dn(subject), parse(job).unwrap().as_conjunction().unwrap().clone())
    }

    fn callout() -> AkentiCallout {
        let clock = SimClock::new();
        let authority = AttributeAuthority::new("/O=Grid/CN=AA", &clock).unwrap();
        let mut engine = AkentiEngine::new();
        engine.trust_authority("group", &authority);
        engine.add_use_condition(UseCondition::new(
            dn("/O=LBL/CN=S"),
            "TRANSP",
            [Action::Start],
            vec![vec![("group".into(), "fusion".into())]],
        ));
        engine.deposit(authority.issue(
            &dn("/O=G/CN=Kate"),
            "group",
            "fusion",
            SimDuration::from_hours(1),
        ));
        AkentiCallout::new("akenti", Arc::new(engine), clock, ResourceNaming::Executable)
    }

    #[test]
    fn authorized_member_passes() {
        let c = callout();
        assert!(c
            .authorize_within(
                &RequestContext::unbounded(),
                &request("/O=G/CN=Kate", "&(executable = TRANSP)"),
                None
            )
            .is_ok());
        assert_eq!(c.name(), "akenti");
    }

    #[test]
    fn nonmember_is_denied() {
        let c = callout();
        let err = c
            .authorize_within(
                &RequestContext::unbounded(),
                &request("/O=G/CN=Eve", "&(executable = TRANSP)"),
                None,
            )
            .unwrap_err();
        assert!(err.is_denial());
    }

    #[test]
    fn unsanctioned_executable_is_denied() {
        let c = callout();
        let err = c
            .authorize_within(
                &RequestContext::unbounded(),
                &request("/O=G/CN=Kate", "&(executable = rogue)"),
                None,
            )
            .unwrap_err();
        assert!(err.is_denial());
    }

    #[test]
    fn missing_executable_is_denied() {
        let c = callout();
        let err = c
            .authorize_within(
                &RequestContext::unbounded(),
                &request("/O=G/CN=Kate", "&(count = 1)"),
                None,
            )
            .unwrap_err();
        assert!(err.is_denial());
    }

    #[test]
    fn supervised_akenti_denials_do_not_trip_the_breaker() {
        use gridauthz_core::{BreakerState, ResilienceConfig, SupervisedCallout};

        let clock = SimClock::new();
        let config = ResilienceConfig { failure_threshold: 2, ..ResilienceConfig::default() };
        let supervised = SupervisedCallout::new(Arc::new(callout()), &clock, config);

        // Repeated denials are answers from a healthy engine, far past
        // the two-failure threshold — the breaker must stay closed.
        for _ in 0..5 {
            let err = supervised
                .authorize_within(
                    &RequestContext::unbounded(),
                    &request("/O=G/CN=Eve", "&(executable = TRANSP)"),
                    None,
                )
                .unwrap_err();
            assert!(err.is_denial());
        }
        assert_eq!(supervised.breaker_state(), BreakerState::Closed);
        assert!(supervised
            .authorize_within(
                &RequestContext::unbounded(),
                &request("/O=G/CN=Kate", "&(executable = TRANSP)"),
                None
            )
            .is_ok());

        // The supervision report surfaces through the callout trait.
        let report = AuthorizationCallout::supervision_report(&supervised).unwrap();
        assert_eq!(report.state, BreakerState::Closed);
        assert!(report.transitions.is_empty());
        assert_eq!(report.stats.retries, 0);
    }
}
