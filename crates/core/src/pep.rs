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
//! same style of configuration file, and [`CalloutChain`] is the ordered
//! set of callouts a PEP invokes before every action.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use gridauthz_clock::SimClock;
use gridauthz_telemetry::{DecisionTrace, TelemetryRegistry};

use crate::cache::{CacheStats, DecisionCache};
use crate::combine::CombinedPdp;
use crate::context::RequestContext;
use crate::error::{AuthzFailure, PolicyParseError};
use crate::request::AuthzRequest;
use crate::snapshot::{AuthzEngine, PolicySnapshot};
use crate::supervise::{ResilienceConfig, SupervisedCallout, SupervisionReport};

/// A pluggable authorization module, invoked before every job action.
pub trait AuthorizationCallout: Send + Sync {
    /// The callout's configured name (for audit and error messages).
    fn name(&self) -> &str;

    /// Authorizes `request`, returning `Ok(())` on permit.
    ///
    /// # Errors
    ///
    /// [`AuthzFailure::Denied`] when policy denies the request;
    /// [`AuthzFailure::SystemError`] when the authorization system itself
    /// fails (callers must fail closed).
    fn authorize(&self, request: &AuthzRequest) -> Result<(), AuthzFailure>;

    /// [`authorize`](Self::authorize) under a [`RequestContext`],
    /// recording interior per-stage spans into `trace`. The default
    /// ignores both and delegates — stateless callouts answer
    /// immediately and have no interior stages; the caller records the
    /// callout-level span itself. [`PdpCallout`] overrides this to
    /// surface its cache probe and PDP combine, and
    /// [`SupervisedCallout`] to fit its retry schedule inside the
    /// deadline.
    ///
    /// # Errors
    ///
    /// Exactly the failures [`authorize`](Self::authorize) returns.
    fn authorize_within(
        &self,
        ctx: &RequestContext,
        request: &AuthzRequest,
        trace: &mut DecisionTrace,
    ) -> Result<(), AuthzFailure> {
        let _ = (ctx, trace);
        self.authorize(request)
    }

    /// [`authorize_within`](Self::authorize_within) for a batch sharing
    /// one context, with one trace per request (`traces.len() ==
    /// requests.len()`) and one result per request. The default is
    /// element-wise; callouts backed by swappable state override it to
    /// resolve that state **once** for the whole batch, so a VO-wide
    /// management fan-out is guaranteed a single consistent policy view.
    fn authorize_batch_within(
        &self,
        ctx: &RequestContext,
        requests: &[AuthzRequest],
        traces: &mut [DecisionTrace],
    ) -> Vec<Result<(), AuthzFailure>> {
        requests
            .iter()
            .zip(traces.iter_mut())
            .map(|(request, trace)| self.authorize_within(ctx, request, trace))
            .collect()
    }

    /// Notifies the callout that the policy environment changed
    /// (grid-mapfile swap, credential revocation, policy reload).
    /// Callouts holding derived state — notably decision caches — must
    /// drop it. The default is a no-op for stateless callouts.
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
    /// timeouts and breaker transitions.
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

/// The built-in callout: evaluate against a [`CombinedPdp`] (local + VO
/// policy, deny-overrides by default), optionally through a
/// generation-stamped [`DecisionCache`].
///
/// Internally this is a thin wrapper over [`AuthzEngine`]: the PDP lives
/// in a published [`PolicySnapshot`], so `authorize` never holds a lock
/// across evaluation and [`PdpCallout::reload`] swaps policy without
/// stalling in-flight decisions.
pub struct PdpCallout {
    engine: AuthzEngine,
}

impl PdpCallout {
    /// Wraps `pdp` as an uncached callout named `name`.
    pub fn new(name: impl Into<String>, pdp: CombinedPdp) -> PdpCallout {
        PdpCallout { engine: AuthzEngine::new(name, pdp) }
    }

    /// Wraps `pdp` with a decision cache in front: repeated identical
    /// requests skip evaluation until the next publication
    /// ([`PdpCallout::reload`] or [`PdpCallout::policy_updated`]).
    pub fn cached(name: impl Into<String>, pdp: CombinedPdp) -> PdpCallout {
        PdpCallout { engine: AuthzEngine::cached(name, pdp) }
    }

    /// Wraps `pdp` with a caller-supplied cache.
    pub fn with_cache(
        name: impl Into<String>,
        pdp: CombinedPdp,
        cache: DecisionCache,
    ) -> PdpCallout {
        PdpCallout { engine: AuthzEngine::with_cache(name, pdp, cache) }
    }

    /// The currently published policy snapshot.
    pub fn pdp(&self) -> Arc<PolicySnapshot> {
        self.engine.snapshot()
    }

    /// Publishes a new combined PDP — the runtime policy-reload path.
    /// The snapshot swap carries a fresh cache generation, so no
    /// decision from the old policy survives it.
    pub fn reload(&self, pdp: CombinedPdp) {
        self.engine.reload(pdp);
    }

    /// The underlying engine.
    pub fn engine(&self) -> &AuthzEngine {
        &self.engine
    }

    /// Attaches a metrics registry to the underlying engine (see
    /// [`AuthzEngine::set_telemetry`]).
    pub fn set_telemetry(&mut self, registry: Arc<TelemetryRegistry>) {
        self.engine.set_telemetry(registry);
    }

    /// The decision cache, when this callout was built with one.
    pub fn cache(&self) -> Option<&DecisionCache> {
        self.engine.cache()
    }

    /// Hit/miss counters, when this callout was built with a cache.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.engine.cache_stats()
    }
}

impl fmt::Debug for PdpCallout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PdpCallout")
            .field("name", &self.engine.name())
            .field("cached", &self.engine.cache().is_some())
            .finish()
    }
}

impl AuthorizationCallout for PdpCallout {
    fn name(&self) -> &str {
        self.engine.name()
    }

    fn authorize(&self, request: &AuthzRequest) -> Result<(), AuthzFailure> {
        self.engine.authorize(request)
    }

    fn authorize_within(
        &self,
        ctx: &RequestContext,
        request: &AuthzRequest,
        trace: &mut DecisionTrace,
    ) -> Result<(), AuthzFailure> {
        // Surfaces the interior cache probe and combine as spans. The
        // deadline is not checked: a snapshot decision never blocks.
        self.engine.evaluate(ctx, request, trace)
    }

    fn authorize_batch_within(
        &self,
        ctx: &RequestContext,
        requests: &[AuthzRequest],
        traces: &mut [DecisionTrace],
    ) -> Vec<Result<(), AuthzFailure>> {
        // One snapshot resolution covers the whole batch.
        self.engine.evaluate_batch(ctx, requests, traces)
    }

    fn policy_updated(&self) {
        self.engine.policy_updated();
    }

    fn cache_report(&self) -> Option<(CacheStats, usize)> {
        self.engine.cache().map(|cache| (cache.stats(), cache.len()))
    }
}

/// An ordered chain of callouts. All must permit; evaluation stops at the
/// first failure. An **empty chain permits** — that is exactly the GT2
/// baseline, where the Job Manager performs no authorization of its own.
#[derive(Clone, Default)]
pub struct CalloutChain {
    callouts: Vec<Arc<dyn AuthorizationCallout>>,
}

impl CalloutChain {
    /// Creates an empty (always-permitting) chain.
    pub fn new() -> CalloutChain {
        CalloutChain::default()
    }

    /// Appends a callout.
    pub fn push(&mut self, callout: Arc<dyn AuthorizationCallout>) {
        self.callouts.push(callout);
    }

    /// Number of callouts in the chain.
    pub fn len(&self) -> usize {
        self.callouts.len()
    }

    /// True when the chain is empty (GT2 mode).
    pub fn is_empty(&self) -> bool {
        self.callouts.is_empty()
    }

    /// The configured callout names, in invocation order.
    pub fn names(&self) -> Vec<&str> {
        self.callouts.iter().map(|c| c.name()).collect()
    }

    /// The callouts themselves, in invocation order.
    pub fn callouts(&self) -> &[Arc<dyn AuthorizationCallout>] {
        &self.callouts
    }

    /// Consumes the chain into its callouts (the GRAM server builder
    /// folds them into its [`AuthzEngine`]).
    pub fn into_callouts(self) -> Vec<Arc<dyn AuthorizationCallout>> {
        self.callouts
    }

    /// Runs every callout; the first failure aborts the chain.
    ///
    /// # Errors
    ///
    /// Propagates the failing callout's [`AuthzFailure`].
    pub fn authorize(&self, request: &AuthzRequest) -> Result<(), AuthzFailure> {
        for callout in &self.callouts {
            callout.authorize(request)?;
        }
        Ok(())
    }

    /// Forwards a policy-environment change to every callout (see
    /// [`AuthorizationCallout::policy_updated`]).
    pub fn policy_updated(&self) {
        for callout in &self.callouts {
            callout.policy_updated();
        }
    }
}

impl fmt::Debug for CalloutChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CalloutChain").field("callouts", &self.names()).finish()
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
    /// fields, malformed options, or a callout name already configured on
    /// an earlier line — a duplicate would silently shadow one of the two
    /// definitions when the chain is instantiated.
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
                options.insert(k.to_string(), v.to_string());
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

    /// Instantiates every entry of `config` into a [`CalloutChain`].
    ///
    /// # Errors
    ///
    /// [`AuthzFailure::SystemError`] when an entry names an unregistered
    /// library, or when a factory fails — mirroring the paper's
    /// "authorization system failure" error class.
    pub fn instantiate(&self, config: &CalloutConfig) -> Result<CalloutChain, AuthzFailure> {
        let mut chain = CalloutChain::new();
        for entry in config.entries() {
            let factory = self.factories.get(&entry.library).ok_or_else(|| {
                AuthzFailure::SystemError(format!(
                    "no callout library {:?} registered (entry {:?})",
                    entry.library, entry.name
                ))
            })?;
            chain.push(factory(entry)?);
        }
        Ok(chain)
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
    ) -> Result<CalloutChain, AuthzFailure> {
        let mut chain = CalloutChain::new();
        for entry in config.entries() {
            let factory = self.factories.get(&entry.library).ok_or_else(|| {
                AuthzFailure::SystemError(format!(
                    "no callout library {:?} registered (entry {:?})",
                    entry.library, entry.name
                ))
            })?;
            let callout = factory(entry)?;
            match entry.resilience().map_err(|e| AuthzFailure::SystemError(e.to_string()))? {
                Some(resilience) => {
                    chain.push(Arc::new(SupervisedCallout::new(callout, clock, resilience)));
                }
                None => chain.push(callout),
            }
        }
        Ok(chain)
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
    use super::*;
    use crate::combine::{Combiner, PolicyOrigin, PolicySource};
    use crate::decision::DenyReason;
    use gridauthz_credential::DistinguishedName;
    use gridauthz_rsl::parse;

    fn request(subject: &str, job: &str) -> AuthzRequest {
        AuthzRequest::start(
            subject.parse::<DistinguishedName>().unwrap(),
            parse(job).unwrap().as_conjunction().unwrap().clone(),
        )
    }

    fn pdp_callout(policy: &str) -> PdpCallout {
        let source =
            PolicySource::new("test", PolicyOrigin::ResourceOwner, policy.parse().unwrap());
        PdpCallout::new("test-callout", CombinedPdp::new(vec![source], Combiner::DenyOverrides))
    }

    #[test]
    fn pdp_callout_permits_and_denies() {
        let callout = pdp_callout("/O=G/CN=Bo: &(action = start)(executable = a)");
        assert!(callout.authorize(&request("/O=G/CN=Bo", "&(executable = a)")).is_ok());
        let err = callout.authorize(&request("/O=G/CN=Bo", "&(executable = b)")).unwrap_err();
        assert!(err.is_denial());
    }

    #[test]
    fn empty_chain_permits_gt2_style() {
        let chain = CalloutChain::new();
        assert!(chain.is_empty());
        assert!(chain.authorize(&request("/O=G/CN=Anyone", "&(executable = x)")).is_ok());
    }

    #[test]
    fn chain_stops_at_first_denial() {
        struct CountingDeny(std::sync::atomic::AtomicUsize);
        impl AuthorizationCallout for CountingDeny {
            fn name(&self) -> &str {
                "deny"
            }
            fn authorize(&self, _: &AuthzRequest) -> Result<(), AuthzFailure> {
                self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                Err(AuthzFailure::Denied(DenyReason::NoApplicableGrant))
            }
        }
        let counter = Arc::new(CountingDeny(Default::default()));
        let mut chain = CalloutChain::new();
        chain.push(counter.clone());
        chain.push(counter.clone());
        assert!(chain.authorize(&request("/O=G/CN=Bo", "&(executable = x)")).is_err());
        assert_eq!(counter.0.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(chain.names(), vec!["deny", "deny"]);
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
    fn config_rejects_duplicate_callout_names() {
        let text = "\
# comment line
gram-authorization liba.so sym_a
gram-audit libb.so sym_b
gram-authorization libc.so sym_c";
        let err = CalloutConfig::parse(text).unwrap_err();
        assert_eq!(err.line(), 4);
        assert!(err.to_string().contains("gram-authorization"), "{err}");
        // Distinct names still parse.
        assert!(CalloutConfig::parse("a lib.so s\nb lib.so s").is_ok());
    }

    #[test]
    fn cached_callout_agrees_with_uncached() {
        let build = |cached: bool| {
            let source = PolicySource::new(
                "test",
                PolicyOrigin::ResourceOwner,
                "/O=G/CN=Bo: &(action = start)(executable = a)".parse().unwrap(),
            );
            let pdp = CombinedPdp::new(vec![source], Combiner::DenyOverrides);
            if cached {
                PdpCallout::cached("c", pdp)
            } else {
                PdpCallout::new("c", pdp)
            }
        };
        let cached = build(true);
        let plain = build(false);
        for job in ["&(executable = a)", "&(executable = b)"] {
            for _ in 0..3 {
                let r = request("/O=G/CN=Bo", job);
                assert_eq!(cached.authorize(&r).is_ok(), plain.authorize(&r).is_ok(), "{job}");
            }
        }
        let stats = cached.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (4, 2));
        assert!(plain.cache_stats().is_none());
    }

    #[test]
    fn reload_drops_cached_permits() {
        let source = PolicySource::new(
            "test",
            PolicyOrigin::ResourceOwner,
            "/O=G/CN=Bo: &(action = start)(executable = a)".parse().unwrap(),
        );
        let callout =
            PdpCallout::cached("c", CombinedPdp::new(vec![source], Combiner::DenyOverrides));
        let r = request("/O=G/CN=Bo", "&(executable = a)");
        assert!(callout.authorize(&r).is_ok());
        assert!(callout.authorize(&r).is_ok()); // cached permit

        // Reload with a policy that revokes Bo's grant: the cached permit
        // must not survive.
        let revoked = PolicySource::new(
            "test",
            PolicyOrigin::ResourceOwner,
            "/O=G/CN=Kate: &(action = start)".parse().unwrap(),
        );
        callout.reload(CombinedPdp::new(vec![revoked], Combiner::DenyOverrides));
        assert!(callout.authorize(&r).is_err());
        assert_eq!(callout.pdp().sources().len(), 1);
    }

    #[test]
    fn policy_updated_invalidates_chain_caches() {
        let source = PolicySource::new(
            "test",
            PolicyOrigin::ResourceOwner,
            "/O=G/CN=Bo: &(action = start)(executable = a)".parse().unwrap(),
        );
        let callout = Arc::new(PdpCallout::cached(
            "c",
            CombinedPdp::new(vec![source], Combiner::DenyOverrides),
        ));
        let mut chain = CalloutChain::new();
        chain.push(callout.clone());
        let r = request("/O=G/CN=Bo", "&(executable = a)");
        chain.authorize(&r).unwrap();
        chain.authorize(&r).unwrap();
        assert_eq!(callout.cache_stats().unwrap().hits, 1);
        chain.policy_updated();
        chain.authorize(&r).unwrap();
        // Post-invalidation the entry was stale: no new hit yet.
        assert_eq!(callout.cache_stats().unwrap().hits, 1);
        assert_eq!(callout.cache_stats().unwrap().misses, 2);
    }

    #[test]
    fn registry_instantiates_config() {
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
        assert!(registry.contains("librsl_pdp.so"));

        // Inline policies cannot contain spaces in this config format, so
        // exercise with a single-token policy.
        let config =
            CalloutConfig::parse("authz librsl_pdp.so sym policy=*:&(action=information)").unwrap();
        let chain = registry.instantiate(&config).unwrap();
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.names(), vec!["authz"]);
    }

    #[test]
    fn registry_wraps_entries_with_resilience_options() {
        let mut registry = CalloutRegistry::new();
        registry.register(
            "librsl_pdp.so",
            Box::new(|entry| {
                let source = PolicySource::new(
                    "configured",
                    PolicyOrigin::ResourceOwner,
                    "*:&(action=information)".parse().unwrap(),
                );
                Ok(Arc::new(PdpCallout::new(
                    entry.name.clone(),
                    CombinedPdp::new(vec![source], Combiner::DenyOverrides),
                )))
            }),
        );
        let config = CalloutConfig::parse(
            "authz librsl_pdp.so sym attempts=2 degrade=fail-closed\nplain librsl_pdp.so sym",
        )
        .unwrap();
        let clock = SimClock::new();
        let chain = registry.instantiate_supervised(&config, &clock).unwrap();
        assert_eq!(chain.names(), vec!["authz", "plain"]);
        assert!(chain.callouts()[0].supervision_report().is_some());
        assert!(chain.callouts()[1].supervision_report().is_none());

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
