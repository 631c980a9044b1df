//! Combining policies from different sources (requirement 1, §2): "the
//! policy enforcement mechanism on the resource needs to be able to
//! combine policies from two different sources: the resource owner and
//! the VO."

use std::fmt;
use std::sync::Arc;

use crate::decision::{Decision, DenyReason};
use crate::eval::Pdp;
use crate::policy::Policy;
use crate::request::AuthzRequest;

/// Where a policy came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyOrigin {
    /// The local resource owner's policy.
    ResourceOwner,
    /// A Virtual Organization's policy (carried in VO credentials in a
    /// deployed system; named here).
    VirtualOrganization(String),
}

impl fmt::Display for PolicyOrigin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyOrigin::ResourceOwner => write!(f, "resource-owner"),
            PolicyOrigin::VirtualOrganization(vo) => write!(f, "vo:{vo}"),
        }
    }
}

/// One named policy source with its own PDP.
///
/// The name is reference-counted so per-decision audit breakdowns can
/// carry it without allocating on the hot path.
#[derive(Debug, Clone)]
pub struct PolicySource {
    name: Arc<str>,
    origin: PolicyOrigin,
    pdp: Pdp,
}

impl PolicySource {
    /// Wraps `policy` as a named source.
    pub fn new(name: impl Into<String>, origin: PolicyOrigin, policy: Policy) -> PolicySource {
        PolicySource { name: Arc::from(name.into()), origin, pdp: Pdp::new(policy) }
    }

    /// The source's name (used in combined denial reasons).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shared handle to the source's name.
    pub(crate) fn name_handle(&self) -> Arc<str> {
        Arc::clone(&self.name)
    }

    /// The source's origin.
    pub fn origin(&self) -> &PolicyOrigin {
        &self.origin
    }

    /// This source's own PDP.
    pub fn pdp(&self) -> &Pdp {
        &self.pdp
    }
}

/// How per-source decisions combine into one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combiner {
    /// Every source must permit (the paper's model: the request "is
    /// evaluated against both local and VO policies by different policy
    /// evaluation points" and must be "authorized by both PEPs").
    DenyOverrides,
    /// Any single permit suffices (ablation A3).
    PermitOverrides,
    /// The first source that *applies* (permits, or denies for a reason
    /// other than having no applicable grant) decides (ablation A3).
    FirstApplicable,
}

/// The combined decision plus the per-source breakdown for audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombinedDecision {
    decision: Decision,
    per_source: Vec<(Arc<str>, Decision)>,
}

impl CombinedDecision {
    /// The overall decision.
    pub fn decision(&self) -> &Decision {
        &self.decision
    }

    /// True when the combined outcome is a permit.
    pub fn is_permit(&self) -> bool {
        self.decision.is_permit()
    }

    /// Each source's individual decision, in source order.
    pub fn per_source(&self) -> &[(Arc<str>, Decision)] {
        &self.per_source
    }
}

/// A multi-source policy decision point.
#[derive(Debug, Clone)]
pub struct CombinedPdp {
    sources: Vec<PolicySource>,
    combiner: Combiner,
}

impl CombinedPdp {
    /// Builds a combined PDP. With [`Combiner::DenyOverrides`] and zero
    /// sources every request is denied (fail closed).
    pub fn new(sources: Vec<PolicySource>, combiner: Combiner) -> CombinedPdp {
        CombinedPdp { sources, combiner }
    }

    /// The configured sources.
    pub fn sources(&self) -> &[PolicySource] {
        &self.sources
    }

    /// The active combining algorithm.
    pub fn combiner(&self) -> Combiner {
        self.combiner
    }

    /// Evaluates `request` against every source and combines.
    pub fn decide(&self, request: &AuthzRequest) -> CombinedDecision {
        let per_source: Vec<(Arc<str>, Decision)> =
            self.sources.iter().map(|s| (s.name_handle(), s.pdp().decide(request))).collect();

        let decision = match self.combiner {
            Combiner::DenyOverrides => {
                if per_source.is_empty() {
                    Decision::Deny(DenyReason::NoApplicableGrant)
                } else {
                    match per_source.iter().find(|(_, d)| !d.is_permit()) {
                        Some((name, denied)) => Decision::Deny(DenyReason::SourceDenied {
                            source: name.to_string(),
                            reason: Box::new(
                                denied.deny_reason().expect("non-permit has a reason").clone(),
                            ),
                        }),
                        None => per_source[0].1.clone(),
                    }
                }
            }
            Combiner::PermitOverrides => per_source
                .iter()
                .find(|(_, d)| d.is_permit())
                .map(|(_, d)| d.clone())
                .unwrap_or(Decision::Deny(DenyReason::NoApplicableGrant)),
            Combiner::FirstApplicable => {
                let mut outcome = Decision::Deny(DenyReason::NoApplicableGrant);
                for (name, d) in &per_source {
                    match d {
                        Decision::Permit { .. } => {
                            outcome = d.clone();
                            break;
                        }
                        Decision::Deny(DenyReason::NoApplicableGrant) => continue,
                        Decision::Deny(reason) => {
                            outcome = Decision::Deny(DenyReason::SourceDenied {
                                source: name.to_string(),
                                reason: Box::new(reason.clone()),
                            });
                            break;
                        }
                    }
                }
                outcome
            }
        };

        CombinedDecision { decision, per_source }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridauthz_credential::DistinguishedName;
    use gridauthz_rsl::parse;

    fn dn(s: &str) -> DistinguishedName {
        s.parse().unwrap()
    }

    fn start(subject: &str, job: &str) -> AuthzRequest {
        AuthzRequest::start(dn(subject), parse(job).unwrap().as_conjunction().unwrap().clone())
    }

    fn source(name: &str, origin: PolicyOrigin, text: &str) -> PolicySource {
        PolicySource::new(name, origin, text.parse().unwrap())
    }

    fn local_and_vo() -> Vec<PolicySource> {
        vec![
            source(
                "local",
                PolicyOrigin::ResourceOwner,
                "/O=G/CN=Bo: &(action = start)(count < 16)",
            ),
            source(
                "fusion-vo",
                PolicyOrigin::VirtualOrganization("fusion".into()),
                "/O=G/CN=Bo: &(action = start)(executable = test1)",
            ),
        ]
    }

    #[test]
    fn deny_overrides_requires_both_permits() {
        let pdp = CombinedPdp::new(local_and_vo(), Combiner::DenyOverrides);
        let ok = start("/O=G/CN=Bo", "&(executable = test1)(count = 2)");
        assert!(pdp.decide(&ok).is_permit());

        // Local permits (count < 16) but VO denies (wrong executable).
        let vo_denied = start("/O=G/CN=Bo", "&(executable = other)(count = 2)");
        let d = pdp.decide(&vo_denied);
        assert!(!d.is_permit());
        match d.decision().deny_reason().unwrap() {
            DenyReason::SourceDenied { source, .. } => assert_eq!(source, "fusion-vo"),
            other => panic!("expected SourceDenied, got {other:?}"),
        }

        // VO permits but local denies (too many CPUs).
        let local_denied = start("/O=G/CN=Bo", "&(executable = test1)(count = 64)");
        let d = pdp.decide(&local_denied);
        match d.decision().deny_reason().unwrap() {
            DenyReason::SourceDenied { source, .. } => assert_eq!(source, "local"),
            other => panic!("expected SourceDenied, got {other:?}"),
        }
    }

    #[test]
    fn deny_overrides_with_no_sources_fails_closed() {
        let pdp = CombinedPdp::new(vec![], Combiner::DenyOverrides);
        assert!(!pdp.decide(&start("/O=G/CN=Bo", "&(executable = x)")).is_permit());
    }

    #[test]
    fn permit_overrides_needs_one_permit() {
        let pdp = CombinedPdp::new(local_and_vo(), Combiner::PermitOverrides);
        let only_local = start("/O=G/CN=Bo", "&(executable = other)(count = 2)");
        assert!(pdp.decide(&only_local).is_permit());
        let neither = start("/O=G/CN=Bo", "&(executable = other)(count = 64)");
        assert!(!pdp.decide(&neither).is_permit());
    }

    #[test]
    fn first_applicable_skips_inapplicable_sources() {
        let sources = vec![
            source(
                "vo",
                PolicyOrigin::VirtualOrganization("v".into()),
                "/O=G/CN=Kate: &(action = start)",
            ),
            source("local", PolicyOrigin::ResourceOwner, "/O=G/CN=Bo: &(action = start)"),
        ];
        let pdp = CombinedPdp::new(sources, Combiner::FirstApplicable);
        // Bo is inapplicable in source 1, permitted by source 2.
        assert!(pdp.decide(&start("/O=G/CN=Bo", "&(executable = x)")).is_permit());
        // Nobody grants Eve.
        assert!(!pdp.decide(&start("/O=G/CN=Eve", "&(executable = x)")).is_permit());
    }

    #[test]
    fn first_applicable_stops_on_real_denial() {
        let sources = vec![
            source(
                "vo",
                PolicyOrigin::VirtualOrganization("v".into()),
                "&/O=G: (action = start)(jobtag != NULL)\n/O=G/CN=Bo: &(action = start)",
            ),
            source("local", PolicyOrigin::ResourceOwner, "/O=G/CN=Bo: &(action = start)"),
        ];
        let pdp = CombinedPdp::new(sources, Combiner::FirstApplicable);
        // Requirement violation in source 1 is a real denial, not a skip.
        let d = pdp.decide(&start("/O=G/CN=Bo", "&(executable = x)"));
        match d.decision().deny_reason().unwrap() {
            DenyReason::SourceDenied { source, .. } => assert_eq!(source, "vo"),
            other => panic!("expected SourceDenied, got {other:?}"),
        }
    }

    #[test]
    fn per_source_breakdown_is_complete() {
        let pdp = CombinedPdp::new(local_and_vo(), Combiner::DenyOverrides);
        let d = pdp.decide(&start("/O=G/CN=Bo", "&(executable = test1)(count = 2)"));
        assert_eq!(d.per_source().len(), 2);
        assert!(d.per_source().iter().all(|(_, d)| d.is_permit()));
    }

    #[test]
    fn origin_display() {
        assert_eq!(PolicyOrigin::ResourceOwner.to_string(), "resource-owner");
        assert_eq!(PolicyOrigin::VirtualOrganization("fusion".into()).to_string(), "vo:fusion");
    }
}
