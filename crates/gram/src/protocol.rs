//! GRAM protocol types: job contacts, management signals, status reports,
//! and the extended error vocabulary (§5.2: "We further extended the GRAM
//! protocol to return authorization errors describing reasons for
//! authorization denial as well as authorization system failures").

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use gridauthz_clock::{SimDuration, SimTime};
use gridauthz_core::{DenyReason, ShedReason};
use gridauthz_credential::{CredentialError, DistinguishedName};
use gridauthz_scheduler::{JobState, SchedulerError};

/// The job contact string identifying a job at a resource (GT2 returns a
/// `https://host:port/...` URL; this simulation uses `gram://...`).
///
/// The string is shared: contacts travel from job records into reports,
/// audit entries and sweep outcomes on every management request, so a
/// clone is a refcount bump.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobContact(Arc<str>);

impl JobContact {
    pub(crate) fn new(resource: &str, index: u64) -> JobContact {
        JobContact(format!("gram://{resource}/jobs/{index}").into())
    }

    /// The contact URL.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The server-side job index the contact URL ends with; `None` for a
    /// contact this server did not issue in that form.
    pub fn index(&self) -> Option<u64> {
        self.0.rsplit('/').next()?.parse().ok()
    }

    /// Reconstructs a contact received over the wire. No validation is
    /// performed: an unknown or malformed contact simply fails job lookup
    /// with [`GramError::UnknownJob`].
    pub fn from_wire(contact: &str) -> JobContact {
        JobContact(contact.into())
    }
}

impl fmt::Display for JobContact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A management signal, mapped onto the local job control system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GramSignal {
    /// Suspend execution, freeing processors.
    Suspend,
    /// Resume a suspended job.
    Resume,
    /// Change scheduling priority.
    Priority(i64),
}

impl fmt::Display for GramSignal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GramSignal::Suspend => write!(f, "suspend"),
            GramSignal::Resume => write!(f, "resume"),
            GramSignal::Priority(p) => write!(f, "priority({p})"),
        }
    }
}

/// A job status report (the `information` action's response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport {
    /// The job contact.
    pub contact: JobContact,
    /// The Grid identity that initiated the job.
    pub owner: DistinguishedName,
    /// VO management tag, if any.
    pub jobtag: Option<String>,
    /// Local account the job runs under.
    pub account: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Work completed so far.
    pub executed: SimDuration,
    /// Submission instant.
    pub submitted: SimTime,
}

/// The extended GRAM protocol errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GramError {
    /// GSI authentication failed (bad chain, expired certificate, ...).
    AuthenticationFailed(CredentialError),
    /// The Gatekeeper's grid-mapfile does not authorize the identity.
    GridMapDenied(DistinguishedName),
    /// The identity asked for a local account the grid-mapfile does not
    /// permit.
    AccountNotPermitted {
        /// The requesting identity.
        subject: DistinguishedName,
        /// The refused account.
        account: String,
    },
    /// Authorization was evaluated and denied, with the reason (the
    /// paper's headline protocol extension).
    NotAuthorized(DenyReason),
    /// The authorization system itself failed; the resource fails closed.
    AuthorizationSystemFailure(String),
    /// The job request's RSL was malformed or incomplete.
    BadRequest(String),
    /// No job with this contact exists.
    UnknownJob(JobContact),
    /// The local job control system refused the operation.
    Scheduler(SchedulerError),
    /// No local account could be provided for the identity (unmapped and
    /// the dynamic-account pool, if any, could not serve the request).
    ProvisioningFailed(String),
    /// A runtime operation violated the job's sandbox profile (§6.1
    /// continuous enforcement).
    SandboxViolation(String),
    /// The resource refused the request without evaluating it: the
    /// admission queue was full, the request's deadline expired before a
    /// worker reached it, or the front-end was shutting down. Carries a
    /// retry hint so well-behaved clients back off instead of hammering
    /// an overloaded Gatekeeper.
    Overloaded {
        /// Why admission refused the request.
        reason: ShedReason,
        /// How long the client should wait before retrying.
        retry_after: SimDuration,
    },
}

/// The stable telemetry label for a [`GramError`] — one short metric key
/// per protocol error class, drawn from the fixed vocabulary of
/// [`gridauthz_telemetry::labels`]. The gram server's decision traces
/// and the simulator's `DecisionTally` both key on these, so the mapping
/// is part of the public API and pinned by an exhaustive test: adding a
/// `GramError` variant without extending this match is a compile error,
/// and changing a label breaks the pin test.
#[must_use]
pub fn error_label(error: &GramError) -> &'static str {
    use gridauthz_telemetry::labels;
    match error {
        GramError::AuthenticationFailed(_) => labels::AUTHENTICATION,
        GramError::GridMapDenied(_) => labels::GRIDMAP,
        GramError::AccountNotPermitted { .. } => labels::ACCOUNT_MAPPING,
        GramError::NotAuthorized(_) => labels::POLICY_DENIED,
        GramError::AuthorizationSystemFailure(_) => labels::AUTHZ_SYSTEM,
        GramError::BadRequest(_) => labels::BAD_REQUEST,
        GramError::UnknownJob(_) => labels::UNKNOWN_JOB,
        GramError::Scheduler(_) => labels::SCHEDULER,
        GramError::ProvisioningFailed(_) => labels::PROVISIONING,
        GramError::SandboxViolation(_) => labels::SANDBOX,
        GramError::Overloaded { .. } => labels::SHED,
    }
}

impl fmt::Display for GramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GramError::AuthenticationFailed(e) => write!(f, "authentication failed: {e}"),
            GramError::GridMapDenied(dn) => {
                write!(f, "gatekeeper: {dn} is not in the grid-mapfile")
            }
            GramError::AccountNotPermitted { subject, account } => {
                write!(f, "gatekeeper: {subject} may not map to account {account:?}")
            }
            GramError::NotAuthorized(reason) => write!(f, "authorization denied: {reason}"),
            GramError::AuthorizationSystemFailure(msg) => {
                write!(f, "authorization system failure: {msg}")
            }
            GramError::BadRequest(msg) => write!(f, "bad job request: {msg}"),
            GramError::UnknownJob(contact) => write!(f, "unknown job {contact}"),
            GramError::Scheduler(e) => write!(f, "job control system: {e}"),
            GramError::ProvisioningFailed(msg) => {
                write!(f, "local account provisioning failed: {msg}")
            }
            GramError::SandboxViolation(msg) => write!(f, "sandbox violation: {msg}"),
            GramError::Overloaded { reason, retry_after } => {
                write!(
                    f,
                    "resource overloaded ({reason}); retry after {}us",
                    retry_after.as_micros()
                )
            }
        }
    }
}

impl Error for GramError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GramError::AuthenticationFailed(e) => Some(e),
            GramError::Scheduler(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SchedulerError> for GramError {
    fn from(e: SchedulerError) -> Self {
        GramError::Scheduler(e)
    }
}

impl From<CredentialError> for GramError {
    fn from(e: CredentialError) -> Self {
        GramError::AuthenticationFailed(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contact_format() {
        let c = JobContact::new("anl-cluster", 7);
        assert_eq!(c.as_str(), "gram://anl-cluster/jobs/7");
        assert_eq!(c.to_string(), c.as_str());
        assert_eq!(c.index(), Some(7));
        assert_eq!(JobContact::from_wire("gram://anl-cluster/jobs/x").index(), None);
    }

    #[test]
    fn signal_display() {
        assert_eq!(GramSignal::Suspend.to_string(), "suspend");
        assert_eq!(GramSignal::Priority(9).to_string(), "priority(9)");
    }

    #[test]
    fn error_display_distinguishes_denial_from_failure() {
        let denial = GramError::NotAuthorized(DenyReason::NoApplicableGrant);
        assert!(denial.to_string().contains("denied"));
        let failure = GramError::AuthorizationSystemFailure("callout missing".into());
        assert!(failure.to_string().contains("failure"));
    }

    #[test]
    fn errors_convert_from_substrates() {
        let e: GramError = SchedulerError::UnknownJob(gridauthz_scheduler::JobId(1)).into();
        assert!(matches!(e, GramError::Scheduler(_)));
        let e: GramError = CredentialError::EmptyChain.into();
        assert!(matches!(e, GramError::AuthenticationFailed(_)));
    }

    /// Pins the public [`error_label`] mapping: every `GramError`
    /// variant, its exact label, and the label's membership in the fixed
    /// telemetry vocabulary. A new variant fails `error_label`'s match at
    /// compile time; a changed label fails here.
    #[test]
    fn every_error_variant_has_a_pinned_stable_label() {
        use gridauthz_telemetry::labels;

        let all: [(GramError, &str); 11] = [
            (GramError::AuthenticationFailed(CredentialError::EmptyChain), "authentication"),
            (GramError::GridMapDenied("/O=G/CN=X".parse().unwrap()), "gridmap"),
            (
                GramError::AccountNotPermitted {
                    subject: "/O=G/CN=X".parse().unwrap(),
                    account: "root".into(),
                },
                "account-mapping",
            ),
            (GramError::NotAuthorized(DenyReason::NoApplicableGrant), "policy-denied"),
            (GramError::AuthorizationSystemFailure("x".into()), "authz-system"),
            (GramError::BadRequest("x".into()), "bad-request"),
            (GramError::UnknownJob(JobContact::from_wire("gram://r/jobs/1")), "unknown-job"),
            (
                GramError::Scheduler(SchedulerError::UnknownJob(gridauthz_scheduler::JobId(1))),
                "scheduler",
            ),
            (GramError::ProvisioningFailed("x".into()), "provisioning"),
            (GramError::SandboxViolation("x".into()), "sandbox"),
            (
                GramError::Overloaded {
                    reason: ShedReason::QueueFull,
                    retry_after: SimDuration::from_millis(5),
                },
                "shed",
            ),
        ];
        for (error, expected) in &all {
            assert_eq!(error_label(error), *expected, "{error:?}");
            assert!(
                labels::index_of(error_label(error)).is_some(),
                "label {:?} missing from labels::ALL",
                error_label(error)
            );
        }
        // Distinct variants map to distinct labels: a collapsed mapping
        // would make two error classes indistinguishable in metrics.
        let mut seen: Vec<&str> = all.iter().map(|(e, _)| error_label(e)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), all.len());
    }

    #[test]
    fn error_is_std_error_with_source() {
        let e = GramError::Scheduler(SchedulerError::UnknownJob(gridauthz_scheduler::JobId(1)));
        assert!(e.source().is_some());
        assert!(GramError::GridMapDenied("/O=G/CN=X".parse().unwrap()).source().is_none());
    }
}
