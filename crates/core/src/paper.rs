//! The paper's Figure 3 policy and identities, as reusable fixtures.
//!
//! Figure 3 ("Simple VO-wide policy for job management") is the paper's
//! worked evaluation example. It ships here verbatim (modulo fixing the
//! figure's typography: the original text drops a `/` and inserts stray
//! spaces in Kate Keahey's DN) so tests, examples and the benchmarks
//! all reproduce the same scenario:
//!
//! * everyone under `mcs.anl.gov` must supply a `jobtag` on job startup;
//! * **Bo Liu** may start `test1` (jobtag `ADS`) and `test2` (jobtag
//!   `NFC`) from `/sandbox/test` with fewer than 4 processors;
//! * **Kate Keahey** may start `TRANSP` from `/sandbox/test` with jobtag
//!   `NFC`, and may cancel *every* job tagged `NFC` — including jobs
//!   started by Bo Liu.

use gridauthz_credential::DistinguishedName;

use crate::policy::Policy;

/// The mcs.anl.gov group prefix used by the requirement statement.
pub const MCS_PREFIX: &str = "/O=Grid/O=Globus/OU=mcs.anl.gov";

/// Bo Liu's Grid identity.
pub const BO_LIU_DN: &str = "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu";

/// Kate Keahey's Grid identity.
pub const KATE_KEAHEY_DN: &str = "/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey";

/// An identity *outside* the mcs.anl.gov group (for negative cases).
pub const OUTSIDER_DN: &str = "/O=Grid/O=Globus/OU=cs.wisc.edu/CN=Eve Mallory";

/// The Figure 3 policy, in this crate's policy-file syntax.
pub const FIGURE3_TEXT: &str = "\
# Figure 3: Simple VO-wide policy for job management
&/O=Grid/O=Globus/OU=mcs.anl.gov: (action = start)(jobtag != NULL)

/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu:
  &(action = start)(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count < 4)
  &(action = start)(executable = test2)(directory = /sandbox/test)(jobtag = NFC)(count < 4)

/O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey:
  &(action = start)(executable = TRANSP)(directory = /sandbox/test)(jobtag = NFC)
  &(action = cancel)(jobtag = NFC)
";

/// Parses [`FIGURE3_TEXT`].
///
/// # Panics
///
/// Never — the fixture is validated by this module's tests.
pub fn figure3_policy() -> Policy {
    FIGURE3_TEXT.parse().expect("Figure 3 fixture parses")
}

/// Bo Liu's DN, parsed.
pub fn bo_liu() -> DistinguishedName {
    BO_LIU_DN.parse().expect("fixture DN parses")
}

/// Kate Keahey's DN, parsed.
pub fn kate_keahey() -> DistinguishedName {
    KATE_KEAHEY_DN.parse().expect("fixture DN parses")
}

/// The outsider's DN, parsed.
pub fn outsider() -> DistinguishedName {
    OUTSIDER_DN.parse().expect("fixture DN parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::decision::{Decision, DenyReason};
    use crate::eval::Pdp;
    use crate::request::AuthzRequest;
    use gridauthz_rsl::{parse, Conjunction};

    fn conj(s: &str) -> Conjunction {
        parse(s).unwrap().as_conjunction().unwrap().clone()
    }

    fn pdp() -> Pdp {
        Pdp::new(figure3_policy())
    }

    fn start(subject: DistinguishedName, job: &str) -> AuthzRequest {
        AuthzRequest::start(subject, conj(job))
    }

    /// The full decision matrix for the paper's worked example. Each row is
    /// (description, request, expected-permit).
    fn matrix() -> Vec<(&'static str, AuthzRequest, bool)> {
        let bo = bo_liu();
        let kate = kate_keahey();
        let eve = outsider();
        vec![
            (
                "Bo starts test1 with ADS tag and 2 cpus",
                start(
                    bo.clone(),
                    "&(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count = 2)",
                ),
                true,
            ),
            (
                "Bo starts test2 with NFC tag and 3 cpus",
                start(
                    bo.clone(),
                    "&(executable = test2)(directory = /sandbox/test)(jobtag = NFC)(count = 3)",
                ),
                true,
            ),
            (
                "Bo starts test1 with 4 cpus (count < 4 violated)",
                start(
                    bo.clone(),
                    "&(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count = 4)",
                ),
                false,
            ),
            (
                "Bo starts test1 with wrong jobtag",
                start(
                    bo.clone(),
                    "&(executable = test1)(directory = /sandbox/test)(jobtag = NFC)(count = 2)",
                ),
                false,
            ),
            (
                "Bo starts test1 without jobtag (group requirement)",
                start(bo.clone(), "&(executable = test1)(directory = /sandbox/test)(count = 2)"),
                false,
            ),
            (
                "Bo starts test1 from the wrong directory",
                start(
                    bo.clone(),
                    "&(executable = test1)(directory = /tmp)(jobtag = ADS)(count = 2)",
                ),
                false,
            ),
            (
                "Bo starts an unsanctioned executable",
                start(
                    bo.clone(),
                    "&(executable = TRANSP)(directory = /sandbox/test)(jobtag = NFC)(count = 2)",
                ),
                false,
            ),
            (
                "Kate starts TRANSP with NFC tag",
                start(
                    kate.clone(),
                    "&(executable = TRANSP)(directory = /sandbox/test)(jobtag = NFC)",
                ),
                true,
            ),
            (
                "Kate starts TRANSP with large cpu count (no count limit for Kate)",
                start(
                    kate.clone(),
                    "&(executable = TRANSP)(directory = /sandbox/test)(jobtag = NFC)(count = 64)",
                ),
                true,
            ),
            (
                "Kate starts test1 (not sanctioned for her)",
                start(
                    kate.clone(),
                    "&(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count = 2)",
                ),
                false,
            ),
            (
                "Kate starts TRANSP without jobtag (group requirement)",
                start(kate.clone(), "&(executable = TRANSP)(directory = /sandbox/test)"),
                false,
            ),
            (
                "Kate cancels Bo's NFC-tagged job (VO-wide management!)",
                AuthzRequest::manage(kate.clone(), Action::Cancel, bo.clone(), Some("NFC".into())),
                true,
            ),
            (
                "Kate cancels her own NFC job",
                AuthzRequest::manage(
                    kate.clone(),
                    Action::Cancel,
                    kate.clone(),
                    Some("NFC".into()),
                ),
                true,
            ),
            (
                "Kate cancels an ADS-tagged job (wrong tag)",
                AuthzRequest::manage(kate.clone(), Action::Cancel, bo.clone(), Some("ADS".into())),
                false,
            ),
            (
                "Kate cancels an untagged job",
                AuthzRequest::manage(kate.clone(), Action::Cancel, bo.clone(), None),
                false,
            ),
            (
                "Bo cancels Kate's NFC job (no cancel grant for Bo)",
                AuthzRequest::manage(bo.clone(), Action::Cancel, kate.clone(), Some("NFC".into())),
                false,
            ),
            (
                "Bo cancels his own job (paper policy has no self rule)",
                AuthzRequest::manage(bo.clone(), Action::Cancel, bo.clone(), Some("ADS".into())),
                false,
            ),
            (
                "Kate signals an NFC job (only cancel was granted)",
                AuthzRequest::manage(kate.clone(), Action::Signal, bo.clone(), Some("NFC".into())),
                false,
            ),
            (
                "outsider starts test1 with a tag",
                start(
                    eve.clone(),
                    "&(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count = 2)",
                ),
                false,
            ),
            (
                "outsider cancels an NFC job",
                AuthzRequest::manage(eve, Action::Cancel, bo, Some("NFC".into())),
                false,
            ),
        ]
    }

    #[test]
    fn figure3_parses_into_three_statements() {
        assert_eq!(figure3_policy().len(), 3);
    }

    #[test]
    fn figure3_decision_matrix() {
        let pdp = pdp();
        for (desc, request, expected) in matrix() {
            let decision = pdp.decide(&request);
            assert_eq!(decision.is_permit(), expected, "case {desc:?}: got {decision}");
        }
    }

    #[test]
    fn untagged_start_is_a_requirement_violation() {
        let pdp = pdp();
        let d = pdp.decide(&start(
            bo_liu(),
            "&(executable = test1)(directory = /sandbox/test)(count = 2)",
        ));
        assert!(matches!(d, Decision::Deny(DenyReason::RequirementViolated { statement: 0, .. })));
    }

    #[test]
    fn outsider_is_not_subject_to_group_requirement() {
        // The outsider is denied for lack of a grant, not because of the
        // mcs.anl.gov requirement.
        let pdp = pdp();
        let d = pdp.decide(&start(outsider(), "&(executable = test1)"));
        assert_eq!(d, Decision::Deny(DenyReason::NoApplicableGrant));
    }

    #[test]
    fn matrix_covers_both_outcomes() {
        let cases = matrix();
        assert!(cases.len() >= 20, "matrix should be substantial");
        assert!(cases.iter().any(|(_, _, e)| *e));
        assert!(cases.iter().any(|(_, _, e)| !*e));
    }
}
