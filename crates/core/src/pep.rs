//! The authorization callout API (§5.2).
//!
//! The paper's prototype inserted runtime-configurable callout points into
//! the GRAM Job Manager: each callout has an abstract name, is loaded from
//! a named library/symbol, receives the requester's credential, the job
//! initiator's credential, the action, the job id and the RSL job
//! description, and answers success or a typed authorization error.
//!
//! This module models that with trait objects instead of `dlopen`:
//! [`AuthorizationCallout`] is the callout signature, [`CalloutRegistry`]
//! maps "library/symbol" names to factories, [`CalloutConfig`] parses the
//! same style of configuration file, and [`AuthzEngine`] is the ordered
//! chain of callouts a PEP invokes before every action. The RSL policy
//! evaluator is one callout in that chain
//! ([`PdpCallout`](crate::PdpCallout)).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use gridauthz_clock::SimClock;
use gridauthz_telemetry::{labels, DecisionTrace, Gauge, TelemetryRegistry};

use crate::cache::CacheStats;
use crate::context::RequestContext;
use crate::error::{AuthzFailure, PolicyParseError};
use crate::request::AuthzRequest;
use crate::snapshot::elapsed_nanos;
use crate::supervise::{ResilienceConfig, SupervisedCallout, SupervisionReport};

/// A pluggable authorization module, invoked before every job action.
pub trait AuthorizationCallout: Send + Sync {
    /// The callout's configured name (for audit and error messages).
    fn name(&self) -> &str;

    /// Authorizes `request` under `ctx`, returning `Ok(())` on permit.
    /// The context carries the request's deadline, so a callout that
    /// can wait (a remote one, or [`SupervisedCallout`]'s retries) fits
    /// its time spending inside it. When `trace` is `Some`, the callout
    /// records its interior per-stage spans into it — a
    /// [`PdpCallout`](crate::PdpCallout) its cache probe and combine; the
    /// caller records the callout-level span itself. `None` asks for no
    /// trace work at all.
    ///
    /// # Errors
    ///
    /// [`AuthzFailure::Denied`] when policy denies the request;
    /// [`AuthzFailure::SystemError`] when the authorization system itself
    /// fails (callers must fail closed).
    fn authorize_within(
        &self,
        ctx: &RequestContext,
        request: &AuthzRequest,
        trace: Option<&mut DecisionTrace>,
    ) -> Result<(), AuthzFailure>;

    /// [`authorize_within`](Self::authorize_within) for a batch sharing
    /// one context, with one trace per request (`traces.len() ==
    /// requests.len()`) and one result per request. The default is
    /// element-wise; callouts backed by swappable state override it to
    /// resolve that state **once** for the whole batch, so a VO-wide
    /// management fan-out is guaranteed a single consistent policy view,
    /// and wrappers override it to hand the whole batch to their inner
    /// callout.
    fn authorize_batch_within(
        &self,
        ctx: &RequestContext,
        requests: &[AuthzRequest],
        traces: &mut [DecisionTrace],
    ) -> Vec<Result<(), AuthzFailure>> {
        requests
            .iter()
            .zip(traces.iter_mut())
            .map(|(request, trace)| self.authorize_within(ctx, request, Some(trace)))
            .collect()
    }

    /// Tells the callout to drop whatever it derived from the policy
    /// environment — a [`PdpCallout`](crate::PdpCallout) republishes its
    /// policy under a new generation, emptying its decision cache, and a
    /// [`SupervisedCallout`] forgets its remembered decisions. Nothing on
    /// the served path calls it: grid-mapfile swaps and revocations are
    /// enforced by the gatekeeper before any callout runs, and a policy
    /// reload publishes its own generation. The default is a no-op for
    /// stateless callouts.
    fn policy_updated(&self) {}

    /// The callout's decision-cache counters and current entry count,
    /// when it carries a cache — lets an owning [`AuthzEngine`]
    /// aggregate cache gauges across the whole chain
    /// ([`AuthzEngine::refresh_telemetry_gauges`]). The default (`None`)
    /// is right for cacheless callouts.
    fn cache_report(&self) -> Option<(CacheStats, usize)> {
        None
    }

    /// Hands the callout a metrics registry to record into. Most
    /// callouts have nothing to record beyond the callout-level span the
    /// caller already takes, so the default is a no-op;
    /// [`SupervisedCallout`] stores the registry to count retries,
    /// timeouts and breaker transitions, and
    /// [`PdpCallout`](crate::PdpCallout) to report its snapshot
    /// generation.
    fn attach_telemetry(&self, registry: &Arc<TelemetryRegistry>) {
        let _ = registry;
    }

    /// The callout's supervision state — breaker position, recent
    /// transitions, degradation counters — when it is supervised. The
    /// default (`None`) is right for bare callouts; the GRAM server uses
    /// this to turn breaker transitions into audit records.
    fn supervision_report(&self) -> Option<SupervisionReport> {
        None
    }
}

impl fmt::Debug for dyn AuthorizationCallout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("AuthorizationCallout").field(&self.name()).finish()
    }
}

/// The policy enforcement point: an ordered chain of
/// [`AuthorizationCallout`]s run before every job action. All must
/// permit; evaluation stops at the first failure. An engine with **no
/// callouts permits** — that is exactly the GT2 baseline, where the Job
/// Manager performs no authorization of its own.
pub struct AuthzEngine {
    name: String,
    /// Each callout with its name, taken once so that recording a
    /// callout span shares the name instead of copying it.
    callouts: Vec<(Arc<str>, Arc<dyn AuthorizationCallout>)>,
    /// Optional metrics sink, handed to every callout on attachment.
    telemetry: Option<Arc<TelemetryRegistry>>,
}

impl AuthzEngine {
    /// An engine with no callouts: every request permitted — the GT2
    /// baseline. Callouts pushed later may deny.
    pub fn pass_through(name: impl Into<String>) -> AuthzEngine {
        AuthzEngine { name: name.into(), callouts: Vec::new(), telemetry: None }
    }

    /// The engine's configured name (for audit and error messages).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attaches a metrics registry and hands it to every callout (see
    /// [`AuthorizationCallout::attach_telemetry`]); callouts pushed later
    /// receive it too.
    pub fn set_telemetry(&mut self, registry: Arc<TelemetryRegistry>) {
        for (_, callout) in &self.callouts {
            callout.attach_telemetry(&registry);
        }
        self.telemetry = Some(registry);
    }

    /// The attached metrics registry, if any.
    pub fn telemetry(&self) -> Option<&Arc<TelemetryRegistry>> {
        self.telemetry.as_ref()
    }

    /// Appends a callout, evaluated after those already in the chain.
    pub fn push_callout(&mut self, callout: Arc<dyn AuthorizationCallout>) {
        if let Some(telemetry) = &self.telemetry {
            callout.attach_telemetry(telemetry);
        }
        self.callouts.push((Arc::from(callout.name()), callout));
    }

    /// The callouts' names, in invocation order.
    pub fn callout_names(&self) -> Vec<&str> {
        self.callouts.iter().map(|(name, _)| &**name).collect()
    }

    /// Supervision state of every supervised callout, in invocation
    /// order, paired with the callout name. Unsupervised callouts are
    /// skipped. The GRAM server polls this to append breaker-transition
    /// audit records.
    pub fn supervision_reports(&self) -> Vec<(String, SupervisionReport)> {
        self.callouts
            .iter()
            .filter_map(|(name, c)| c.supervision_report().map(|r| (name.to_string(), r)))
            .collect()
    }

    /// True when the chain has no callouts, so authorization is vacuous.
    /// The GRAM server downgrades Extended mode to GT2 when its engine is
    /// vacuous.
    pub fn is_vacuous(&self) -> bool {
        self.callouts.is_empty()
    }

    /// Calls [`AuthorizationCallout::policy_updated`] on every callout,
    /// so the next decision is computed afresh. The GRAM server never
    /// calls it; benchmarks use it to time an uncached decision.
    pub fn policy_updated(&self) {
        for (_, callout) in &self.callouts {
            callout.policy_updated();
        }
    }

    /// Outcome label for an authorization result.
    fn outcome_label(outcome: &Result<(), AuthzFailure>) -> &'static str {
        match outcome {
            Ok(()) => labels::PERMIT,
            Err(AuthzFailure::Denied(_)) => labels::POLICY_DENIED,
            Err(AuthzFailure::SystemError(_)) => labels::AUTHZ_SYSTEM,
        }
    }

    /// Shorthand for [`authorize_within`](Self::authorize_within) with
    /// no deadline and no trace.
    ///
    /// # Errors
    ///
    /// Propagates the failing callout's [`AuthzFailure`].
    pub fn authorize(&self, request: &AuthzRequest) -> Result<(), AuthzFailure> {
        self.authorize_within(&RequestContext::unbounded(), request, None)
    }

    /// Authorizes `request` under a [`RequestContext`]: every callout in
    /// order; the first failure wins. An already-expired request is
    /// refused as an authorization-system failure before any policy
    /// work. Each callout receives the context so it can clamp its own
    /// time spending (see [`AuthorizationCallout::authorize_within`]) —
    /// this is how the front-end's deadline reaches the retry loop
    /// inside a [`SupervisedCallout`]. With a trace, every callout
    /// contributes a named
    /// [`Stage::Callout`](gridauthz_telemetry::Stage::Callout) span (and
    /// a [`PdpCallout`](crate::PdpCallout) its interior
    /// cache-probe/combine spans); without one, no clock is read here.
    ///
    /// # Errors
    ///
    /// Propagates the failing callout's [`AuthzFailure`];
    /// [`AuthzFailure::SystemError`] for an expired deadline.
    pub fn authorize_within(
        &self,
        ctx: &RequestContext,
        request: &AuthzRequest,
        mut trace: Option<&mut DecisionTrace>,
    ) -> Result<(), AuthzFailure> {
        if ctx.expired() {
            return Err(expired());
        }
        for (name, callout) in &self.callouts {
            let start = trace.is_some().then(Instant::now);
            let outcome = callout.authorize_within(ctx, request, trace.as_deref_mut());
            if let Some(trace) = trace.as_deref_mut() {
                let label = AuthzEngine::outcome_label(&outcome);
                trace.record_callout(name, label, elapsed_nanos(start));
            }
            outcome?;
        }
        Ok(())
    }

    /// [`authorize_within`](Self::authorize_within) for a batch sharing
    /// one context, with one trace per request. The whole batch is
    /// refused when the context has already expired. Otherwise each
    /// callout sees the still-undecided subset of the batch through
    /// [`AuthorizationCallout::authorize_batch_within`] (so a
    /// [`PdpCallout`](crate::PdpCallout) resolves **one** snapshot for
    /// it); a request's result is its first failure in callout order —
    /// settled elements are never re-presented to later callouts, so
    /// side-effectful callouts observe each element at most once. A
    /// callout's batch evaluation is timed as a whole and the elapsed
    /// time amortized evenly across the elements it saw — the batch API
    /// deliberately gives callouts no per-element boundary to clock.
    pub fn authorize_batch_within(
        &self,
        ctx: &RequestContext,
        requests: &[AuthzRequest],
        traces: &mut [DecisionTrace],
    ) -> Vec<Result<(), AuthzFailure>> {
        debug_assert_eq!(requests.len(), traces.len());
        if ctx.expired() {
            return requests.iter().map(|_| Err(expired())).collect();
        }
        let mut outcomes: Vec<Result<(), AuthzFailure>> = requests.iter().map(|_| Ok(())).collect();
        for (name, callout) in &self.callouts {
            let pending: Vec<usize> =
                (0..requests.len()).filter(|&i| outcomes[i].is_ok()).collect();
            if pending.is_empty() {
                break;
            }
            let start = Instant::now();
            let subs = authorize_subset(&**callout, ctx, requests, traces, &pending);
            let amortized = elapsed_nanos(Some(start)) / pending.len().max(1) as u64;
            for (&i, sub) in pending.iter().zip(subs) {
                traces[i].record_callout(name, AuthzEngine::outcome_label(&sub), amortized);
                outcomes[i] = sub;
            }
        }
        outcomes
    }

    /// Refreshes the cache gauges ([`Gauge::CacheHits`],
    /// [`Gauge::CacheMisses`], [`Gauge::CacheEntries`]) by summing every
    /// callout's [`cache_report`](AuthorizationCallout::cache_report).
    /// Gauges are sampled state, not counters, so this is called at
    /// snapshot/export time rather than on the decision path. A no-op
    /// without telemetry.
    pub fn refresh_telemetry_gauges(&self) {
        let Some(telemetry) = &self.telemetry else { return };
        let (mut hits, mut misses, mut entries) = (0u64, 0u64, 0u64);
        for (stats, len) in self.callouts.iter().filter_map(|(_, c)| c.cache_report()) {
            hits += stats.hits;
            misses += stats.misses;
            entries += len as u64;
        }
        telemetry.set_gauge(Gauge::CacheHits, hits);
        telemetry.set_gauge(Gauge::CacheMisses, misses);
        telemetry.set_gauge(Gauge::CacheEntries, entries);
    }
}

/// Presents the elements of a batch at `pending` to `callout` in one batch
/// call, leaving the other elements' traces untouched, and returns one
/// result per pending element; a callout that answers short fails closed.
pub(crate) fn authorize_subset(
    callout: &dyn AuthorizationCallout,
    ctx: &RequestContext,
    requests: &[AuthzRequest],
    traces: &mut [DecisionTrace],
    pending: &[usize],
) -> Vec<Result<(), AuthzFailure>> {
    let mut answers = if pending.len() == requests.len() {
        callout.authorize_batch_within(ctx, requests, traces)
    } else {
        // Swap the pending traces out, run the subset, put them back.
        let subset: Vec<AuthzRequest> = pending.iter().map(|&i| requests[i].clone()).collect();
        let mut sub_traces: Vec<DecisionTrace> = pending
            .iter()
            .map(|&i| std::mem::replace(&mut traces[i], DecisionTrace::detached()))
            .collect();
        let answers = callout.authorize_batch_within(ctx, &subset, &mut sub_traces);
        for (&i, trace) in pending.iter().zip(sub_traces) {
            traces[i] = trace;
        }
        answers
    };
    answers.resize_with(pending.len(), || {
        Err(AuthzFailure::SystemError(format!("callout {:?} answered short", callout.name())))
    });
    answers
}

/// The refusal for a request whose deadline passed before authorization.
fn expired() -> AuthzFailure {
    AuthzFailure::SystemError("request deadline expired before authorization".into())
}

impl fmt::Debug for AuthzEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuthzEngine")
            .field("name", &self.name)
            .field("callouts", &self.callout_names())
            .finish()
    }
}

/// One parsed line of callout configuration:
/// `name library symbol [key=value ...]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CalloutConfigEntry {
    /// The abstract callout name (e.g. `gram-authorization`).
    pub name: String,
    /// The "dynamic library" to load — here, a factory name in the
    /// [`CalloutRegistry`].
    pub library: String,
    /// The symbol within the library (factories may dispatch on it).
    pub symbol: String,
    /// Free-form `key=value` options.
    pub options: HashMap<String, String>,
}

impl CalloutConfigEntry {
    /// The resilience knobs configured on this entry, parsed from its
    /// options (`deadline_ms=…`, `attempts=…`, `degrade=…`, …), or
    /// `None` when the entry carries no resilience option and should run
    /// unsupervised. See [`ResilienceConfig::from_options`].
    ///
    /// # Errors
    ///
    /// [`PolicyParseError`] (line 0 — option maps lose line numbers)
    /// naming the offending option.
    pub fn resilience(&self) -> Result<Option<ResilienceConfig>, PolicyParseError> {
        ResilienceConfig::from_options(&self.options)
            .map_err(|msg| PolicyParseError::new(0, format!("callout {:?}: {msg}", self.name)))
    }
}

/// A parsed callout configuration file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CalloutConfig {
    entries: Vec<CalloutConfigEntry>,
}

impl CalloutConfig {
    /// Parses the configuration format.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyParseError`] for lines with fewer than three
    /// fields, malformed options, a callout name already configured on
    /// an earlier line, or an option key repeated on one line — either
    /// duplicate would silently shadow one of the two definitions.
    pub fn parse(text: &str) -> Result<CalloutConfig, PolicyParseError> {
        let mut entries: Vec<CalloutConfigEntry> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let line_no = idx + 1;
            let mut fields = line.split_whitespace();
            let (Some(name), Some(library), Some(symbol)) =
                (fields.next(), fields.next(), fields.next())
            else {
                return Err(PolicyParseError::new(
                    line_no,
                    "callout config lines need: name library symbol [key=value ...]",
                ));
            };
            if entries.iter().any(|e| e.name == name) {
                return Err(PolicyParseError::new(
                    line_no,
                    format!("duplicate callout name {name:?}"),
                ));
            }
            let mut options = HashMap::new();
            for opt in fields {
                let Some((k, v)) = opt.split_once('=') else {
                    return Err(PolicyParseError::new(
                        line_no,
                        format!("malformed option {opt:?} (expected key=value)"),
                    ));
                };
                if options.insert(k.to_string(), v.to_string()).is_some() {
                    return Err(PolicyParseError::new(
                        line_no,
                        format!("duplicate option {k:?} on callout {name:?}"),
                    ));
                }
            }
            entries.push(CalloutConfigEntry {
                name: name.to_string(),
                library: library.to_string(),
                symbol: symbol.to_string(),
                options,
            });
        }
        Ok(CalloutConfig { entries })
    }

    /// The parsed entries in file order.
    pub fn entries(&self) -> &[CalloutConfigEntry] {
        &self.entries
    }
}

/// A factory building a callout from its configuration entry.
pub type CalloutFactory = Box<
    dyn Fn(&CalloutConfigEntry) -> Result<Arc<dyn AuthorizationCallout>, AuthzFailure>
        + Send
        + Sync,
>;

/// Maps "library" names to callout factories — the memory-safe stand-in
/// for the paper's `dlopen`-based runtime loading.
#[derive(Default)]
pub struct CalloutRegistry {
    factories: HashMap<String, CalloutFactory>,
}

impl CalloutRegistry {
    /// Creates an empty registry.
    pub fn new() -> CalloutRegistry {
        CalloutRegistry::default()
    }

    /// Registers (or replaces) the factory for `library`.
    pub fn register(&mut self, library: impl Into<String>, factory: CalloutFactory) {
        self.factories.insert(library.into(), factory);
    }

    /// True when a factory for `library` exists.
    pub fn contains(&self, library: &str) -> bool {
        self.factories.contains_key(library)
    }

    /// Instantiates every entry of `config`, in file order (push them
    /// onto an [`AuthzEngine`] to run them as a chain).
    ///
    /// # Errors
    ///
    /// [`AuthzFailure::SystemError`] when an entry names an unregistered
    /// library, or when a factory fails — mirroring the paper's
    /// "authorization system failure" error class.
    pub fn instantiate(
        &self,
        config: &CalloutConfig,
    ) -> Result<Vec<Arc<dyn AuthorizationCallout>>, AuthzFailure> {
        config
            .entries()
            .iter()
            .map(|entry| {
                let factory = self.factories.get(&entry.library).ok_or_else(|| {
                    AuthzFailure::SystemError(format!(
                        "no callout library {:?} registered (entry {:?})",
                        entry.library, entry.name
                    ))
                })?;
                factory(entry)
            })
            .collect()
    }

    /// Like [`instantiate`](Self::instantiate), but wraps every entry
    /// that carries resilience options (see
    /// [`CalloutConfigEntry::resilience`]) in a [`SupervisedCallout`]
    /// timed against `clock`. Entries without resilience options run
    /// bare, exactly as `instantiate` builds them.
    ///
    /// # Errors
    ///
    /// [`AuthzFailure::SystemError`] for unregistered libraries, factory
    /// failures, or malformed resilience options.
    pub fn instantiate_supervised(
        &self,
        config: &CalloutConfig,
        clock: &SimClock,
    ) -> Result<Vec<Arc<dyn AuthorizationCallout>>, AuthzFailure> {
        config
            .entries()
            .iter()
            .zip(self.instantiate(config)?)
            .map(|(entry, callout)| {
                let resilience =
                    entry.resilience().map_err(|e| AuthzFailure::SystemError(e.to_string()))?;
                Ok(match resilience {
                    Some(resilience) => {
                        Arc::new(SupervisedCallout::new(callout, clock, resilience))
                    }
                    None => callout,
                })
            })
            .collect()
    }
}

impl fmt::Debug for CalloutRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&String> = self.factories.keys().collect();
        names.sort();
        f.debug_struct("CalloutRegistry").field("libraries", &names).finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    use super::*;
    use crate::combine::{CombinedPdp, Combiner, PolicyOrigin, PolicySource};
    use crate::decision::DenyReason;
    use crate::snapshot::PdpCallout;
    use gridauthz_credential::DistinguishedName;
    use gridauthz_rsl::parse;

    fn request(subject: &str, job: &str) -> AuthzRequest {
        AuthzRequest::start(
            subject.parse::<DistinguishedName>().unwrap(),
            parse(job).unwrap().as_conjunction().unwrap().clone(),
        )
    }

    fn pdp(policy: &str) -> CombinedPdp {
        let source =
            PolicySource::new("test", PolicyOrigin::ResourceOwner, policy.parse().unwrap());
        CombinedPdp::new(vec![source], Combiner::DenyOverrides)
    }

    /// The served batch path with no deadline and detached traces.
    fn batch_outcomes(
        engine: &AuthzEngine,
        requests: &[AuthzRequest],
    ) -> Vec<Result<(), AuthzFailure>> {
        let mut traces: Vec<DecisionTrace> =
            requests.iter().map(|_| DecisionTrace::detached()).collect();
        engine.authorize_batch_within(&RequestContext::unbounded(), requests, &mut traces)
    }

    struct DenyAll;
    impl AuthorizationCallout for DenyAll {
        fn name(&self) -> &str {
            "deny-all"
        }
        fn authorize_within(
            &self,
            _: &RequestContext,
            _: &AuthzRequest,
            _: Option<&mut DecisionTrace>,
        ) -> Result<(), AuthzFailure> {
            Err(AuthzFailure::Denied(DenyReason::NoApplicableGrant))
        }
    }

    /// Permits everything and counts the requests it is shown.
    #[derive(Default)]
    struct Counting(AtomicUsize);
    impl AuthorizationCallout for Counting {
        fn name(&self) -> &str {
            "counting"
        }
        fn authorize_within(
            &self,
            _: &RequestContext,
            _: &AuthzRequest,
            _: Option<&mut DecisionTrace>,
        ) -> Result<(), AuthzFailure> {
            self.0.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
    }

    #[test]
    fn engine_without_callouts_permits_gt2_style() {
        let engine = AuthzEngine::pass_through("gt2");
        assert!(engine.is_vacuous());
        let r = request("/O=G/CN=Anyone", "&(executable = x)");
        assert!(engine.authorize(&r).is_ok());
        assert!(batch_outcomes(&engine, std::slice::from_ref(&r))[0].is_ok());
    }

    #[test]
    fn chain_stops_at_first_denial() {
        let counter = Arc::new(Counting::default());
        let mut engine = AuthzEngine::pass_through("chain");
        engine.push_callout(Arc::new(PdpCallout::new("pdp", pdp("/O=G/CN=Bo: &(action = start)"))));
        engine.push_callout(Arc::new(DenyAll));
        engine.push_callout(counter.clone());
        assert!(!engine.is_vacuous());
        assert_eq!(engine.callout_names(), vec!["pdp", "deny-all", "counting"]);
        let r = request("/O=G/CN=Bo", "&(executable = x)");
        assert!(engine.authorize(&r).is_err());
        assert!(batch_outcomes(&engine, std::slice::from_ref(&r))[0].is_err());
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn batch_answered_short_fails_closed() {
        // Permits single requests but answers no element of a batch.
        struct Mute;
        impl AuthorizationCallout for Mute {
            fn name(&self) -> &str {
                "mute"
            }
            fn authorize_within(
                &self,
                _: &RequestContext,
                _: &AuthzRequest,
                _: Option<&mut DecisionTrace>,
            ) -> Result<(), AuthzFailure> {
                Ok(())
            }
            fn authorize_batch_within(
                &self,
                _: &RequestContext,
                _: &[AuthzRequest],
                _: &mut [DecisionTrace],
            ) -> Vec<Result<(), AuthzFailure>> {
                Vec::new()
            }
        }
        let requests = [request("/O=G/CN=Bo", "&(executable = x)")];
        let mut bare = AuthzEngine::pass_through("bare");
        bare.push_callout(Arc::new(Mute));
        let mut supervised = AuthzEngine::pass_through("supervised");
        supervised.push_callout(Arc::new(SupervisedCallout::new(
            Arc::new(Mute),
            &SimClock::new(),
            ResilienceConfig::default(),
        )));
        for engine in [&bare, &supervised] {
            let outcomes = batch_outcomes(engine, &requests);
            assert!(matches!(outcomes[..], [Err(AuthzFailure::SystemError(_))]), "{outcomes:?}");
        }
    }

    #[test]
    fn batch_skips_elements_settled_by_earlier_callouts() {
        // Denies requests from a specific subject; records nothing.
        struct DenySubject(&'static str);
        impl AuthorizationCallout for DenySubject {
            fn name(&self) -> &str {
                "deny-subject"
            }
            fn authorize_within(
                &self,
                _: &RequestContext,
                request: &AuthzRequest,
                _: Option<&mut DecisionTrace>,
            ) -> Result<(), AuthzFailure> {
                if request.subject().to_string().contains(self.0) {
                    Err(AuthzFailure::Denied(DenyReason::NoApplicableGrant))
                } else {
                    Ok(())
                }
            }
        }

        // Records every request it is shown — a side-effectful callout.
        #[derive(Default)]
        struct Spy {
            seen: Mutex<Vec<String>>,
        }
        impl AuthorizationCallout for Spy {
            fn name(&self) -> &str {
                "spy"
            }
            fn authorize_within(
                &self,
                _: &RequestContext,
                request: &AuthzRequest,
                _: Option<&mut DecisionTrace>,
            ) -> Result<(), AuthzFailure> {
                self.seen.lock().unwrap().push(request.subject().to_string());
                Ok(())
            }
        }

        let spy = Arc::new(Spy::default());
        let mut engine = AuthzEngine::pass_through("chain");
        engine.push_callout(Arc::new(DenySubject("Mallory")));
        engine.push_callout(spy.clone());

        let requests = vec![
            request("/O=G/CN=Alice", "&(executable = x)"),
            request("/O=G/CN=Mallory", "&(executable = x)"),
            request("/O=G/CN=Carol", "&(executable = x)"),
        ];
        let outcomes = batch_outcomes(&engine, &requests);
        assert!(outcomes[0].is_ok());
        assert!(outcomes[1].is_err(), "first failure in callout order must stand");
        assert!(outcomes[2].is_ok());

        // The spy must only ever have observed the two surviving elements.
        let seen = spy.seen.lock().unwrap();
        assert_eq!(seen.len(), 2, "settled element re-presented to a later callout: {seen:?}");
        assert!(seen[0].contains("Alice") && seen[1].contains("Carol"), "{seen:?}");
    }

    #[test]
    fn policy_updated_invalidates_chain_caches() {
        let callout =
            Arc::new(PdpCallout::cached("c", pdp("/O=G/CN=Bo: &(action = start)(executable = a)")));
        let mut engine = AuthzEngine::pass_through("chain");
        engine.push_callout(callout.clone());
        let r = request("/O=G/CN=Bo", "&(executable = a)");
        engine.authorize(&r).unwrap();
        engine.authorize(&r).unwrap();
        assert_eq!(callout.cache_stats().unwrap().hits, 1);
        engine.policy_updated();
        engine.authorize(&r).unwrap();
        // Post-invalidation the entry was stale: no new hit yet.
        assert_eq!(callout.cache_stats().unwrap().hits, 1);
        assert_eq!(callout.cache_stats().unwrap().misses, 2);
    }

    #[test]
    fn config_parses_paper_style_lines() {
        let text = "\
# GRAM authorization callout configuration
gram-authorization librsl_pdp.so rsl_pdp_authorize policy=/etc/grid/policy
gram-audit libaudit.so audit_authorize";
        let config = CalloutConfig::parse(text).unwrap();
        assert_eq!(config.entries().len(), 2);
        let first = &config.entries()[0];
        assert_eq!(first.name, "gram-authorization");
        assert_eq!(first.library, "librsl_pdp.so");
        assert_eq!(first.symbol, "rsl_pdp_authorize");
        assert_eq!(first.options.get("policy").map(String::as_str), Some("/etc/grid/policy"));
    }

    #[test]
    fn config_rejects_short_and_malformed_lines() {
        assert!(CalloutConfig::parse("just two").is_err());
        assert!(CalloutConfig::parse("a b c broken-option").is_err());
    }

    #[test]
    fn config_rejects_duplicate_callout_names_and_option_keys() {
        let text = "\
# comment line
gram-authorization liba.so sym_a
gram-audit libb.so sym_b
gram-authorization libc.so sym_c";
        let err = CalloutConfig::parse(text).unwrap_err();
        assert_eq!(err.line(), 4);
        assert!(err.to_string().contains("gram-authorization"), "{err}");
        // A repeated option key would silently keep only the last value.
        let err = CalloutConfig::parse("a lib.so s\nb lib.so s deadline_ms=5 deadline_ms=500")
            .unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("deadline_ms"), "{err}");
        // Distinct names and keys still parse.
        assert!(CalloutConfig::parse("a lib.so s x=1\nb lib.so s x=1 y=2").is_ok());
    }

    fn pdp_registry() -> CalloutRegistry {
        let mut registry = CalloutRegistry::new();
        registry.register(
            "librsl_pdp.so",
            Box::new(|entry| {
                let policy = entry.options.get("policy").cloned().unwrap_or_default();
                let source = PolicySource::new(
                    "configured",
                    PolicyOrigin::ResourceOwner,
                    policy
                        .parse()
                        .map_err(|e| AuthzFailure::SystemError(format!("bad policy: {e}")))?,
                );
                Ok(Arc::new(PdpCallout::new(
                    entry.name.clone(),
                    CombinedPdp::new(vec![source], Combiner::DenyOverrides),
                )))
            }),
        );
        registry
    }

    #[test]
    fn registry_instantiates_config() {
        let registry = pdp_registry();
        assert!(registry.contains("librsl_pdp.so"));

        // Inline policies cannot contain spaces in this config format, so
        // exercise with a single-token policy.
        let config =
            CalloutConfig::parse("authz librsl_pdp.so sym policy=*:&(action=information)").unwrap();
        let callouts = registry.instantiate(&config).unwrap();
        assert_eq!(callouts.len(), 1);
        assert_eq!(callouts[0].name(), "authz");
    }

    #[test]
    fn registry_wraps_entries_with_resilience_options() {
        let registry = pdp_registry();
        let config = CalloutConfig::parse(
            "authz librsl_pdp.so sym attempts=2 degrade=fail-closed\nplain librsl_pdp.so sym",
        )
        .unwrap();
        let clock = SimClock::new();
        let callouts = registry.instantiate_supervised(&config, &clock).unwrap();
        assert_eq!(callouts.len(), 2);
        assert_eq!((callouts[0].name(), callouts[1].name()), ("authz", "plain"));
        assert!(callouts[0].supervision_report().is_some());
        assert!(callouts[1].supervision_report().is_none());

        // Malformed resilience options surface as a system error.
        let bad = CalloutConfig::parse("authz librsl_pdp.so sym degrade=maybe").unwrap();
        match registry.instantiate_supervised(&bad, &clock) {
            Err(AuthzFailure::SystemError(msg)) => assert!(msg.contains("degrade"), "{msg}"),
            other => panic!("expected SystemError, got {other:?}"),
        }
    }

    #[test]
    fn registry_fails_on_unknown_library() {
        let registry = CalloutRegistry::new();
        let config = CalloutConfig::parse("authz libmissing.so sym").unwrap();
        match registry.instantiate(&config) {
            Err(AuthzFailure::SystemError(msg)) => assert!(msg.contains("libmissing.so")),
            other => panic!("expected SystemError, got {other:?}"),
        }
    }
}
