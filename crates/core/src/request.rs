//! The authorization request passed to the PEP/PDP — the information the
//! paper's callout API hands to the authorization module (§5.2): requester
//! credential, job initiator credential, action, job identifier, and the
//! RSL job description.

use std::collections::HashMap;
use std::sync::Arc;

use gridauthz_credential::DistinguishedName;
use gridauthz_rsl::{attributes, Conjunction, FxBuildHasher, RelOp, Value};

use crate::action::Action;

/// A parsed RSL job description paired with its pre-extracted table of
/// `=`-relation values.
///
/// Both halves sit behind `Arc`s and are immutable, so the description is
/// built **once** — when the RSL first enters the system at submission —
/// and shared from then on: the resource's job record and every
/// authorization request against that job reuse the same conjunction and
/// the same attribute table. Constructing a management request therefore
/// never rescans the description's relations or re-allocates their
/// values; a clone is two refcount bumps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobDescription {
    conjunction: Arc<Conjunction>,
    /// `=`-relation values keyed by the normalized attribute name; values
    /// stay in description order. Names arrive pre-normalized
    /// ([`gridauthz_rsl::Attribute`] lowercases on parse), so building the
    /// table never re-folds them.
    attrs: Arc<HashMap<String, Vec<Value>, FxBuildHasher>>,
}

impl JobDescription {
    /// Extracts the attribute table from `job`. This is the one place the
    /// description's relations are scanned.
    pub fn new(job: impl Into<Arc<Conjunction>>) -> JobDescription {
        let conjunction = job.into();
        let mut attrs: HashMap<String, Vec<Value>, FxBuildHasher> = HashMap::default();
        for relation in conjunction.relations().filter(|r| r.op() == RelOp::Eq) {
            attrs
                .entry(relation.attribute().as_str().to_string())
                .or_default()
                .extend(relation.values().iter().cloned());
        }
        JobDescription { conjunction, attrs: Arc::new(attrs) }
    }

    /// The underlying RSL conjunction.
    pub fn conjunction(&self) -> &Conjunction {
        &self.conjunction
    }

    /// The values the description's `=` relations present for a
    /// (normalized) attribute name.
    fn values(&self, attribute: &str) -> &[Value] {
        self.attrs.get(attribute).map_or(&[], Vec::as_slice)
    }
}

impl From<Conjunction> for JobDescription {
    fn from(job: Conjunction) -> JobDescription {
        JobDescription::new(job)
    }
}

impl From<Arc<Conjunction>> for JobDescription {
    fn from(job: Arc<Conjunction>) -> JobDescription {
        JobDescription::new(job)
    }
}

/// The per-request synthesized attribute values, built **lazily** on the
/// first policy evaluation so [`AuthzRequest::values_for`] — called for
/// every relation of every candidate statement — returns borrowed slices
/// instead of allocating, while a request whose decision is served from
/// the cache (the warm front-end path; the digest reads the raw fields)
/// never materializes the table at all. Job-description attributes live
/// in the shared [`JobDescription`] table instead; `action` values come
/// from a static singleton table.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AttrTable {
    job_owner: Vec<Value>,
    jobtag: Vec<Value>,
    /// The requester's identity as a policy value, resolved once so
    /// `self` comparisons never allocate per relation.
    subject_value: Value,
}

/// The singleton policy-value slice for each action, so synthesizing the
/// `action` attribute — present on every request — never allocates.
fn action_values(action: Action) -> &'static [Value] {
    static TABLE: std::sync::OnceLock<[Value; Action::ALL.len()]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| Action::ALL.map(|a| Value::literal(a.as_str())));
    let index = Action::ALL.iter().position(|a| *a == action).expect("Action::ALL is exhaustive");
    std::slice::from_ref(&table[index])
}

/// Everything the policy evaluator may inspect about one request.
///
/// The job description is a shared [`JobDescription`], so requests built
/// from a long-lived job record (the management hot path) reuse the
/// record's conjunction *and* its extracted attribute table instead of
/// deep-cloning or rescanning either per request.
#[derive(Debug, Clone)]
pub struct AuthzRequest {
    subject: DistinguishedName,
    action: Action,
    job: Option<JobDescription>,
    job_id: Option<Arc<str>>,
    job_owner: Option<DistinguishedName>,
    jobtag: Option<String>,
    limited_proxy: bool,
    restrictions: Vec<String>,
    attrs: std::sync::OnceLock<AttrTable>,
}

// Equality ignores `attrs`: the table is a derived cache, and whether it
// has been materialized yet says nothing about the request itself.
impl PartialEq for AuthzRequest {
    fn eq(&self, other: &AuthzRequest) -> bool {
        self.subject == other.subject
            && self.action == other.action
            && self.job == other.job
            && self.job_id == other.job_id
            && self.job_owner == other.job_owner
            && self.jobtag == other.jobtag
            && self.limited_proxy == other.limited_proxy
            && self.restrictions == other.restrictions
    }
}

impl Eq for AuthzRequest {}

impl AuthzRequest {
    /// A job-startup request: `subject` asks to run `job`.
    pub fn start(subject: DistinguishedName, job: impl Into<JobDescription>) -> AuthzRequest {
        AuthzRequest {
            subject,
            action: Action::Start,
            job: Some(job.into()),
            job_id: None,
            job_owner: None,
            jobtag: None,
            limited_proxy: false,
            restrictions: Vec::new(),
            attrs: std::sync::OnceLock::new(),
        }
    }

    /// A job-management request: `subject` asks to perform `action` on an
    /// existing job started by `job_owner` and tagged `jobtag`.
    pub fn manage(
        subject: DistinguishedName,
        action: Action,
        job_owner: DistinguishedName,
        jobtag: Option<String>,
    ) -> AuthzRequest {
        AuthzRequest {
            subject,
            action,
            job: None,
            job_id: None,
            job_owner: Some(job_owner),
            jobtag,
            limited_proxy: false,
            restrictions: Vec::new(),
            attrs: std::sync::OnceLock::new(),
        }
    }

    /// A fully-populated management request in one construction: subject,
    /// action, the target job's owner/tag/description/identifier and the
    /// requester's restriction payloads. Equivalent to
    /// [`manage`](Self::manage) followed by the `with_*` builders — this
    /// is what the wire front-end builds per management request.
    #[allow(clippy::too_many_arguments)]
    pub fn manage_job(
        subject: DistinguishedName,
        action: Action,
        job_owner: DistinguishedName,
        jobtag: Option<String>,
        job: impl Into<JobDescription>,
        job_id: impl Into<Arc<str>>,
        restrictions: Vec<String>,
    ) -> AuthzRequest {
        AuthzRequest {
            subject,
            action,
            job: Some(job.into()),
            job_id: Some(job_id.into()),
            job_owner: Some(job_owner),
            jobtag,
            limited_proxy: false,
            restrictions,
            attrs: std::sync::OnceLock::new(),
        }
    }

    /// The synthesized attribute table, materialized on first use. The
    /// decision-cache digest reads the raw fields instead, so a cache-hit
    /// request never pays for these strings.
    fn attrs(&self) -> &AttrTable {
        self.attrs.get_or_init(|| AttrTable {
            job_owner: vec![Value::literal(self.job_owner().to_string())],
            jobtag: match self.jobtag() {
                Some(tag) => vec![Value::literal(tag)],
                None => Vec::new(),
            },
            subject_value: Value::literal(self.subject.to_string()),
        })
    }

    /// Rebuilds the request as if `subject` had made it (what-if
    /// analysis; see [`crate::analysis`]).
    #[must_use]
    pub fn with_subject(mut self, subject: DistinguishedName) -> Self {
        self.subject = subject;
        // A start request's jobowner is the subject itself, so the
        // synthesized table (if already materialized) is stale.
        self.attrs = std::sync::OnceLock::new();
        self
    }

    /// Attaches the unique job identifier (the callout API passes one).
    #[must_use]
    pub fn with_job_id(mut self, id: impl Into<Arc<str>>) -> Self {
        self.job_id = Some(id.into());
        self
    }

    /// Attaches the job description (management requests may carry the
    /// original description for evaluation).
    #[must_use]
    pub fn with_job(mut self, job: impl Into<JobDescription>) -> Self {
        self.job = Some(job.into());
        // The description can supply the fallback jobtag.
        self.attrs = std::sync::OnceLock::new();
        self
    }

    /// Marks the request as made with a limited proxy.
    #[must_use]
    pub fn with_limited_proxy(mut self, limited: bool) -> Self {
        self.limited_proxy = limited;
        self
    }

    /// Attaches restricted-proxy policy payloads (outermost first).
    #[must_use]
    pub fn with_restrictions(mut self, restrictions: Vec<String>) -> Self {
        self.restrictions = restrictions;
        self
    }

    /// The requester's effective Grid identity.
    pub fn subject(&self) -> &DistinguishedName {
        &self.subject
    }

    /// The requested operation.
    pub fn action(&self) -> Action {
        self.action
    }

    /// The RSL job description, when present.
    pub fn job(&self) -> Option<&Conjunction> {
        self.job.as_ref().map(JobDescription::conjunction)
    }

    /// The unique job identifier, when present.
    pub fn job_id(&self) -> Option<&str> {
        self.job_id.as_deref()
    }

    /// The initiator of the target job. For `start` requests this is the
    /// requester itself.
    pub fn job_owner(&self) -> &DistinguishedName {
        self.job_owner.as_ref().unwrap_or(&self.subject)
    }

    /// The target job's management tag, from the explicit field or the job
    /// description's `jobtag` attribute.
    pub fn jobtag(&self) -> Option<&str> {
        if let Some(tag) = &self.jobtag {
            return Some(tag);
        }
        self.job
            .as_ref()
            .and_then(|j| j.conjunction().first_value(attributes::JOBTAG))
            .and_then(Value::as_str)
    }

    /// True when the requester presented a limited proxy.
    pub fn is_limited_proxy(&self) -> bool {
        self.limited_proxy
    }

    /// Restricted-proxy policy payloads accompanying the credential.
    pub fn restrictions(&self) -> &[String] {
        &self.restrictions
    }

    /// The values the request presents for a policy attribute.
    ///
    /// `action`, `jobowner` and `jobtag` are synthesized from the request
    /// itself; everything else comes from `=` relations in the job
    /// description. An empty result means "attribute absent", which is what
    /// the special `NULL` value tests. The slice is borrowed from a table
    /// built at construction, so the evaluator's per-relation lookups do
    /// not allocate.
    pub fn values_for(&self, attribute: &str) -> &[Value] {
        // Policy attribute names are normalized at parse time, so the fast
        // path is a direct lookup; folding only happens for ad-hoc callers
        // that pass uppercase names.
        if attribute.bytes().any(|b| b.is_ascii_uppercase()) {
            return self.values_for_normalized(&attribute.to_ascii_lowercase());
        }
        self.values_for_normalized(attribute)
    }

    fn values_for_normalized(&self, attribute: &str) -> &[Value] {
        match attribute {
            attributes::ACTION => action_values(self.action),
            attributes::JOBOWNER => &self.attrs().job_owner,
            attributes::JOBTAG => &self.attrs().jobtag,
            _ => self.job.as_ref().map_or(&[], |j| j.values(attribute)),
        }
    }

    /// The requester's identity as a policy [`Value`], resolved once per
    /// request. This is what the policy literal `self` compares against,
    /// so evaluation never materializes it per relation.
    pub fn subject_value(&self) -> &Value {
        &self.attrs().subject_value
    }

    /// The three synthesized attributes, in canonical order. The policy
    /// compiler lowers these ahead of [`job_attr_entries`], matching the
    /// shadowing order [`values_for`](AuthzRequest::values_for) resolves.
    ///
    /// [`job_attr_entries`]: AuthzRequest::job_attr_entries
    pub(crate) fn synthesized_attr_entries(&self) -> [(&'static str, &[Value]); 3] {
        let attrs = self.attrs();
        [
            (attributes::ACTION, action_values(self.action)),
            (attributes::JOBOWNER, attrs.job_owner.as_slice()),
            (attributes::JOBTAG, attrs.jobtag.as_slice()),
        ]
    }

    /// Job-description attributes, minus the three the synthesized table
    /// shadows.
    pub(crate) fn job_attr_entries(&self) -> impl Iterator<Item = (&str, &[Value])> {
        self.job
            .iter()
            .flat_map(|j| j.attrs.iter())
            .filter(|(name, _)| {
                !matches!(
                    name.as_str(),
                    attributes::ACTION | attributes::JOBOWNER | attributes::JOBTAG
                )
            })
            .map(|(name, values)| (name.as_str(), values.as_slice()))
    }

    /// Number of job-description attributes (including shadowed ones) —
    /// a capacity hint for request lowering.
    pub(crate) fn job_attr_count(&self) -> usize {
        self.job.as_ref().map_or(0, |j| j.attrs.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridauthz_rsl::parse;

    fn dn(s: &str) -> DistinguishedName {
        s.parse().unwrap()
    }

    fn conj(s: &str) -> Conjunction {
        parse(s).unwrap().as_conjunction().unwrap().clone()
    }

    #[test]
    fn start_request_owner_is_subject() {
        let r = AuthzRequest::start(dn("/O=G/CN=Bo"), conj("&(executable = x)"));
        assert_eq!(r.job_owner(), &dn("/O=G/CN=Bo"));
        assert_eq!(r.action(), Action::Start);
    }

    #[test]
    fn manage_request_carries_owner_and_tag() {
        let r = AuthzRequest::manage(
            dn("/O=G/CN=Kate"),
            Action::Cancel,
            dn("/O=G/CN=Bo"),
            Some("NFC".into()),
        );
        assert_eq!(r.job_owner(), &dn("/O=G/CN=Bo"));
        assert_eq!(r.jobtag(), Some("NFC"));
        assert_eq!(r.values_for("jobowner"), vec![Value::literal("/O=G/CN=Bo")]);
    }

    #[test]
    fn jobtag_falls_back_to_description() {
        let r = AuthzRequest::start(dn("/O=G/CN=Bo"), conj("&(executable = x)(jobtag = ADS)"));
        assert_eq!(r.jobtag(), Some("ADS"));
        assert_eq!(r.values_for("jobtag"), vec![Value::literal("ADS")]);
    }

    #[test]
    fn explicit_jobtag_overrides_description() {
        let r = AuthzRequest::manage(
            dn("/O=G/CN=Kate"),
            Action::Signal,
            dn("/O=G/CN=Bo"),
            Some("NFC".into()),
        )
        .with_job(conj("&(jobtag = ADS)"));
        assert_eq!(r.jobtag(), Some("NFC"));
    }

    #[test]
    fn values_for_reads_eq_relations_only() {
        let r = AuthzRequest::start(dn("/O=G/CN=Bo"), conj("&(count = 2)(maxtime < 60)"));
        assert_eq!(r.values_for("count"), vec![Value::int(2)]);
        // `<` in a *request* provides no concrete value.
        assert!(r.values_for("maxtime").is_empty());
        assert!(r.values_for("queue").is_empty());
    }

    #[test]
    fn action_values_are_synthesized() {
        let r = AuthzRequest::start(dn("/O=G/CN=Bo"), conj("&(executable = x)"));
        assert_eq!(r.values_for("action"), vec![Value::literal("start")]);
        assert_eq!(r.values_for("ACTION"), vec![Value::literal("start")]);
    }

    #[test]
    fn builders_attach_metadata() {
        let r = AuthzRequest::start(dn("/O=G/CN=Bo"), conj("&(executable = x)"))
            .with_job_id("job-42")
            .with_limited_proxy(true)
            .with_restrictions(vec!["&(action = start)".into()]);
        assert_eq!(r.job_id(), Some("job-42"));
        assert!(r.is_limited_proxy());
        assert_eq!(r.restrictions().len(), 1);
    }
}
