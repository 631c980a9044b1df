//! A callout validating `jobtag` values against the VO's administered
//! registry (§5.1: "At present jobtags are statically defined by a policy
//! administrator") — a second demonstration, alongside Akenti and CAS,
//! that the paper's callout API composes independent authorization
//! concerns.

use std::sync::Arc;

use gridauthz_core::{
    Action, AuthorizationCallout, AuthzFailure, AuthzRequest, DecisionTrace, DenyReason,
    RequestContext,
};

use crate::tags::JobTagRegistry;

/// Refuses job startup with a `jobtag` the VO never defined — catching
/// typos (`NCF` for `NFC`) that would otherwise create an unmanageable
/// job group. Requests *without* a tag pass: mandatory tagging is the
/// requirement statement's concern, not this callout's.
#[derive(Debug, Clone)]
pub struct TagRegistryCallout {
    name: String,
    registry: Arc<JobTagRegistry>,
}

impl TagRegistryCallout {
    /// Wraps `registry` as a callout named `name`.
    pub fn new(name: impl Into<String>, registry: Arc<JobTagRegistry>) -> TagRegistryCallout {
        TagRegistryCallout { name: name.into(), registry }
    }
}

impl AuthorizationCallout for TagRegistryCallout {
    fn name(&self) -> &str {
        &self.name
    }

    fn authorize_within(
        &self,
        _ctx: &RequestContext,
        request: &AuthzRequest,
        _trace: Option<&mut DecisionTrace>,
    ) -> Result<(), AuthzFailure> {
        if request.action() != Action::Start {
            return Ok(());
        }
        match request.jobtag() {
            Some(tag) if !self.registry.contains(tag) => {
                Err(AuthzFailure::Denied(DenyReason::RestrictionViolated {
                    detail: format!("jobtag {tag:?} is not registered with the VO"),
                }))
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridauthz_credential::DistinguishedName;
    use gridauthz_rsl::parse;

    fn request(job: &str) -> AuthzRequest {
        let dn: DistinguishedName = "/O=G/CN=Bo".parse().unwrap();
        AuthzRequest::start(dn, parse(job).unwrap().as_conjunction().unwrap().clone())
    }

    fn callout() -> TagRegistryCallout {
        let mut registry = JobTagRegistry::new();
        registry.register("NFC", "fusion runs", None).unwrap();
        TagRegistryCallout::new("tag-check", Arc::new(registry))
    }

    #[test]
    fn registered_tags_pass() {
        let c = callout();
        assert!(c
            .authorize_within(
                &RequestContext::unbounded(),
                &request("&(executable = a)(jobtag = NFC)"),
                None
            )
            .is_ok());
        assert_eq!(c.name(), "tag-check");
    }

    #[test]
    fn unregistered_tags_are_denied() {
        let c = callout();
        let err = c
            .authorize_within(
                &RequestContext::unbounded(),
                &request("&(executable = a)(jobtag = NCF)"),
                None,
            )
            .unwrap_err();
        assert!(err.is_denial());
        assert!(err.to_string().contains("NCF"));
    }

    #[test]
    fn untagged_requests_pass_through() {
        let c = callout();
        assert!(c
            .authorize_within(&RequestContext::unbounded(), &request("&(executable = a)"), None)
            .is_ok());
    }

    #[test]
    fn management_actions_are_ignored() {
        let c = callout();
        let dn: DistinguishedName = "/O=G/CN=Kate".parse().unwrap();
        let manage =
            AuthzRequest::manage(dn.clone(), Action::Cancel, dn, Some("UNREGISTERED".into()));
        assert!(c.authorize_within(&RequestContext::unbounded(), &manage, None).is_ok());
    }
}
