//! Published policy snapshots — the authorization hot path.
//!
//! The journal version of the paper (cs/0311025) requires policy updates
//! to take effect promptly *without stalling in-flight requests*, and
//! §5.2/§6.2 require the callout cost to stay small even when every
//! management operation is authorized. A reader/writer lock held across
//! PDP evaluation satisfies neither under load: a reload stalls behind
//! every decision in progress.
//!
//! This module evaluates against **immutable snapshots** instead:
//!
//! * [`PolicySnapshot`] bundles everything a decision needs — the
//!   combined PDP (each source holding its `Arc`'d compiled program and
//!   frozen interner) plus the generation that stamps the decision
//!   cache — into one immutable value. A decision that holds a snapshot
//!   can never observe a torn policy: all sources and the generation
//!   travel together.
//! * [`SnapshotCell`] publishes a snapshot as an `RwLock<Arc<_>>`. A
//!   reader holds the read guard only to clone the `Arc`; a writer
//!   builds the replacement off-path and holds the write guard only to
//!   swap it in. Evaluation runs on the reader's own `Arc`, so no
//!   decision ever waits for a reload's policy build and no reload ever
//!   waits for a decision's evaluation.
//! * [`PdpCallout`] is the RSL policy evaluator as one callout in the
//!   chain (§5.2): it owns the published snapshot and its optional
//!   decision cache. `decide` returns the per-source breakdown; as an
//!   [`AuthorizationCallout`] a batch resolves **one snapshot for all its
//!   elements** — the VO-wide jobtag fan-out; `reload`/`policy_updated`
//!   publish. The cache generation is the snapshot's own generation —
//!   there is no separate counter to fall out of sync.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::Instant;

use gridauthz_telemetry::{labels, DecisionTrace, Gauge, Stage, TelemetryRegistry};

use crate::cache::{request_digest, CacheStats, DecisionCache};
use crate::combine::{CombinedDecision, CombinedPdp, PolicySource};
use crate::context::RequestContext;
use crate::error::AuthzFailure;
use crate::pep::AuthorizationCallout;
use crate::request::AuthzRequest;

/// One immutable, atomically published view of a [`PdpCallout`]'s
/// policy: the combined PDP and the generation it was published under.
#[derive(Debug)]
pub struct PolicySnapshot {
    pdp: CombinedPdp,
    generation: u64,
}

impl PolicySnapshot {
    /// The generation this snapshot was published under. Strictly
    /// monotone across publications of one [`PdpCallout`]; decision
    /// cache entries are stamped with it, so swapping a snapshot
    /// invalidates every decision made under its predecessors.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The combined PDP.
    pub fn pdp(&self) -> &CombinedPdp {
        &self.pdp
    }

    /// The policy sources.
    pub fn sources(&self) -> &[PolicySource] {
        self.pdp.sources()
    }

    /// Evaluates `request` against this snapshot.
    pub fn decide(&self, request: &AuthzRequest) -> CombinedDecision {
        self.pdp.decide(request)
    }
}

/// A swappable `Arc<T>` slot.
///
/// `load` is the entire read-side protocol of the engine: take the read
/// guard, bump the refcount, release. The guard is never held across
/// evaluation, and `store` drops the replaced value only after releasing
/// the write guard, so a publication that frees the last reference to an
/// old snapshot does so outside the lock.
pub struct SnapshotCell<T> {
    slot: RwLock<Arc<T>>,
}

impl<T> SnapshotCell<T> {
    /// A cell initially publishing `value`.
    pub fn new(value: T) -> SnapshotCell<T> {
        SnapshotCell { slot: RwLock::new(Arc::new(value)) }
    }

    /// The currently published value. Never observes a half-written
    /// value: the swap under the write guard is the linearization point
    /// of every publication.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.slot.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes `value`. In-flight holders of the previous value keep
    /// it alive until they drop their `Arc`.
    pub fn store(&self, value: T) {
        let value = Arc::new(value);
        let previous = std::mem::replace(
            &mut *self.slot.write().unwrap_or_else(PoisonError::into_inner),
            value,
        );
        drop(previous);
    }
}

impl<T: fmt::Debug> fmt::Debug for SnapshotCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SnapshotCell").field(&self.load()).finish()
    }
}

/// The built-in callout: evaluate against a [`CombinedPdp`] (local + VO
/// policy, deny-overrides by default), optionally through a
/// generation-stamped [`DecisionCache`].
///
/// The PDP lives in a published [`PolicySnapshot`]. The steady-state
/// decision path resolves the complete policy state with one
/// [`SnapshotCell::load`] (uncached decisions touch nothing else; cached
/// ones add one sharded cache probe), so a decision never holds a lock
/// across evaluation. Publication — [`reload`](PdpCallout::reload),
/// [`policy_updated`](AuthorizationCallout::policy_updated) — builds the
/// new snapshot off-path under a writer mutex nothing on the decision
/// path ever touches.
pub struct PdpCallout {
    name: String,
    cell: SnapshotCell<PolicySnapshot>,
    /// Monotone generation source; the *snapshot* carries the published
    /// value, so decisions and cache stamps can never disagree about it.
    next_generation: AtomicU64,
    /// Serializes publishers so a `policy_updated` republish can never
    /// resurrect a PDP that a concurrent `reload` just replaced.
    publish: Mutex<()>,
    cache: Option<DecisionCache>,
    /// Metrics sink, set once by
    /// [`attach_telemetry`](AuthorizationCallout::attach_telemetry).
    /// Unset costs nothing; set costs one relaxed counter increment on
    /// the cached hit path (no clocks are read there — see
    /// `decide_instrumented`).
    telemetry: OnceLock<Arc<TelemetryRegistry>>,
}

impl PdpCallout {
    fn with_parts(name: impl Into<String>, pdp: CombinedPdp, cache: Option<DecisionCache>) -> Self {
        PdpCallout {
            name: name.into(),
            cell: SnapshotCell::new(PolicySnapshot { pdp, generation: 0 }),
            next_generation: AtomicU64::new(0),
            publish: Mutex::new(()),
            cache,
            telemetry: OnceLock::new(),
        }
    }

    /// Wraps `pdp` as an uncached callout named `name`.
    pub fn new(name: impl Into<String>, pdp: CombinedPdp) -> PdpCallout {
        PdpCallout::with_parts(name, pdp, None)
    }

    /// Wraps `pdp` with a decision cache in front: repeated identical
    /// requests skip evaluation until the next publication
    /// ([`reload`](PdpCallout::reload) or
    /// [`policy_updated`](AuthorizationCallout::policy_updated)).
    pub fn cached(name: impl Into<String>, pdp: CombinedPdp) -> PdpCallout {
        PdpCallout::with_parts(name, pdp, Some(DecisionCache::new()))
    }

    /// The currently published policy snapshot.
    pub fn pdp(&self) -> Arc<PolicySnapshot> {
        self.cell.load()
    }

    /// Publishes `pdp` under the next generation and reports it to the
    /// snapshot-generation gauge.
    fn publish(&self, pdp: impl FnOnce(&PolicySnapshot) -> CombinedPdp) {
        let _writer = self.publish.lock().unwrap_or_else(PoisonError::into_inner);
        let generation = self.next_generation.fetch_add(1, Ordering::SeqCst) + 1;
        let pdp = pdp(&self.cell.load());
        self.cell.store(PolicySnapshot { pdp, generation });
        if let Some(telemetry) = self.telemetry.get() {
            telemetry.set_gauge(Gauge::SnapshotGeneration, generation);
        }
    }

    /// Publishes a new combined PDP — the runtime policy-reload path.
    /// In-flight decisions finish against the snapshot they hold; every
    /// decision starting after this call sees the new policy, and no
    /// cached decision from an earlier snapshot is ever served again
    /// (the generation moved with the pointer).
    pub fn reload(&self, pdp: CombinedPdp) {
        self.publish(|_| pdp);
    }

    /// Evaluates `request` against the published snapshot.
    pub fn decide(&self, request: &AuthzRequest) -> Arc<CombinedDecision> {
        self.decide_instrumented(&self.cell.load(), request, None)
    }

    /// The decision cache, when this callout was built with one.
    pub fn cache(&self) -> Option<&DecisionCache> {
        self.cache.as_ref()
    }

    /// Hit/miss counters, when this callout was built with a cache.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(DecisionCache::stats)
    }

    /// The single decision path, with three instrumentation levels:
    ///
    /// * `trace: Some` — record cache-probe and combine spans (with
    ///   elapsed nanos) into the trace; the registry folds them in at
    ///   `finish_trace`, so counters are bumped exactly once.
    /// * `trace: None`, telemetry attached — a cache **hit** costs one
    ///   relaxed counter increment and reads no clock (this is the
    ///   sub-microsecond hot path the <5% overhead budget protects);
    ///   misses time the PDP combine and feed the histogram.
    /// * neither — identical to the pre-telemetry path.
    ///
    /// One probe when there is a cache, one combine on a miss, then an
    /// insert stamped with the snapshot's generation.
    fn decide_instrumented(
        &self,
        snapshot: &PolicySnapshot,
        request: &AuthzRequest,
        mut trace: Option<&mut DecisionTrace>,
    ) -> Arc<CombinedDecision> {
        let mut miss = None;
        if let Some(cache) = &self.cache {
            let start = trace.is_some().then(Instant::now);
            let key = request_digest(request);
            let hit = cache.lookup(key, snapshot.generation());
            let label = if hit.is_some() { labels::HIT } else { labels::MISS };
            match (trace.as_deref_mut(), self.telemetry.get()) {
                (Some(trace), _) => trace.record(Stage::CacheProbe, label, elapsed_nanos(start)),
                (None, Some(registry)) => registry.record(Stage::CacheProbe, label),
                (None, None) => {}
            }
            if let Some(decision) = hit {
                return decision;
            }
            miss = Some((cache, key));
        }
        let start = (trace.is_some() || self.telemetry.get().is_some()).then(Instant::now);
        let decision = Arc::new(snapshot.decide(request));
        let nanos = elapsed_nanos(start);
        let label = if decision.is_permit() { labels::PERMIT } else { labels::POLICY_DENIED };
        match (trace, self.telemetry.get()) {
            (Some(trace), _) => trace.record(Stage::Combine, label, nanos),
            (None, Some(registry)) => registry.record_timed(Stage::Combine, label, nanos),
            (None, None) => {}
        }
        if let Some((cache, key)) = miss {
            cache.insert(key, snapshot.generation(), Arc::clone(&decision));
        }
        decision
    }

    fn to_outcome(decision: &CombinedDecision) -> Result<(), AuthzFailure> {
        match decision.decision().deny_reason() {
            None => Ok(()),
            Some(reason) => Err(AuthzFailure::Denied(reason.clone())),
        }
    }
}

impl AuthorizationCallout for PdpCallout {
    fn name(&self) -> &str {
        &self.name
    }

    fn authorize_within(
        &self,
        _ctx: &RequestContext,
        request: &AuthzRequest,
        trace: Option<&mut DecisionTrace>,
    ) -> Result<(), AuthzFailure> {
        // The deadline is not checked: a snapshot decision never blocks.
        PdpCallout::to_outcome(&self.decide_instrumented(&self.cell.load(), request, trace))
    }

    fn authorize_batch_within(
        &self,
        _ctx: &RequestContext,
        requests: &[AuthzRequest],
        traces: &mut [DecisionTrace],
    ) -> Vec<Result<(), AuthzFailure>> {
        // One snapshot resolution covers the whole batch.
        let snapshot = self.cell.load();
        requests
            .iter()
            .zip(traces.iter_mut())
            .map(|(request, trace)| {
                PdpCallout::to_outcome(&self.decide_instrumented(&snapshot, request, Some(trace)))
            })
            .collect()
    }

    /// Republishes the current PDP under a fresh generation, dropping
    /// every cached decision without replacing the PDP. The served path
    /// never calls it (see
    /// [`AuthorizationCallout::policy_updated`]); benchmarks do, to time
    /// an uncached decision.
    fn policy_updated(&self) {
        self.publish(|current| current.pdp.clone());
    }

    fn cache_report(&self) -> Option<(CacheStats, usize)> {
        self.cache.as_ref().map(|cache| (cache.stats(), cache.len()))
    }

    /// Stores `registry` (the first attachment wins) and reports the
    /// published generation to its snapshot-generation gauge, here and
    /// on every later publication. Untraced decisions then count cache
    /// probes (counter-only on hits) and time PDP combines (on misses);
    /// traced decisions record spans instead, so nothing is counted
    /// twice.
    fn attach_telemetry(&self, registry: &Arc<TelemetryRegistry>) {
        let registry = self.telemetry.get_or_init(|| Arc::clone(registry));
        registry.set_gauge(Gauge::SnapshotGeneration, self.cell.load().generation());
    }
}

impl fmt::Debug for PdpCallout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PdpCallout")
            .field("name", &self.name)
            .field("generation", &self.cell.load().generation())
            .field("cached", &self.cache.is_some())
            .finish()
    }
}

/// Elapsed nanoseconds since `start`, or 0 when timing was off.
pub(crate) fn elapsed_nanos(start: Option<Instant>) -> u64 {
    start.map_or(0, |start| u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine::{Combiner, PolicyOrigin};
    use gridauthz_credential::DistinguishedName;
    use gridauthz_rsl::parse;

    fn request(subject: &str, job: &str) -> AuthzRequest {
        AuthzRequest::start(
            subject.parse::<DistinguishedName>().unwrap(),
            parse(job).unwrap().as_conjunction().unwrap().clone(),
        )
    }

    /// One decision with no deadline and no trace.
    fn authorize(
        callout: &dyn AuthorizationCallout,
        request: &AuthzRequest,
    ) -> Result<(), AuthzFailure> {
        callout.authorize_within(&RequestContext::unbounded(), request, None)
    }

    fn pdp(policy: &str) -> CombinedPdp {
        let source =
            PolicySource::new("test", PolicyOrigin::ResourceOwner, policy.parse().unwrap());
        CombinedPdp::new(vec![source], Combiner::DenyOverrides)
    }

    #[test]
    fn snapshot_cell_load_returns_published_value() {
        let cell = SnapshotCell::new(41u64);
        assert_eq!(*cell.load(), 41);
        cell.store(42);
        assert_eq!(*cell.load(), 42);
    }

    #[test]
    fn snapshot_cell_old_value_survives_inflight_reader() {
        let cell = SnapshotCell::new(String::from("first"));
        let held = cell.load();
        cell.store(String::from("second"));
        // The pre-swap Arc stays fully usable after the publication.
        assert_eq!(*held, "first");
        assert_eq!(*cell.load(), "second");
    }

    #[test]
    fn pdp_callout_permits_and_denies() {
        let callout = PdpCallout::new("c", pdp("/O=G/CN=Bo: &(action = start)(executable = a)"));
        assert!(authorize(&callout, &request("/O=G/CN=Bo", "&(executable = a)")).is_ok());
        let err = authorize(&callout, &request("/O=G/CN=Bo", "&(executable = b)")).unwrap_err();
        assert!(err.is_denial());
    }

    #[test]
    fn generations_are_monotone_across_publications() {
        let callout = PdpCallout::new("c", pdp("/O=G/CN=Bo: &(action = start)"));
        let mut last = callout.pdp().generation();
        for _ in 0..3 {
            callout.policy_updated();
            let now = callout.pdp().generation();
            assert!(now > last);
            last = now;
        }
        callout.reload(pdp("/O=G/CN=Bo: &(action = start)"));
        assert!(callout.pdp().generation() > last);
    }

    #[test]
    fn cached_callout_agrees_with_uncached() {
        let policy = "/O=G/CN=Bo: &(action = start)(executable = a)";
        let cached = PdpCallout::cached("c", pdp(policy));
        let plain = PdpCallout::new("c", pdp(policy));
        for job in ["&(executable = a)", "&(executable = b)"] {
            for _ in 0..3 {
                let r = request("/O=G/CN=Bo", job);
                assert_eq!(authorize(&cached, &r).is_ok(), authorize(&plain, &r).is_ok(), "{job}");
            }
        }
        let stats = cached.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (4, 2));
        assert!(plain.cache_stats().is_none());
    }

    #[test]
    fn reload_drops_cached_permits() {
        let callout = PdpCallout::cached("c", pdp("/O=G/CN=Bo: &(action = start)(executable = a)"));
        let r = request("/O=G/CN=Bo", "&(executable = a)");
        assert!(authorize(&callout, &r).is_ok());
        assert!(authorize(&callout, &r).is_ok()); // cached permit

        // Reload with a policy that revokes Bo's grant: the cached permit
        // must not survive.
        callout.reload(pdp("/O=G/CN=Kate: &(action = start)"));
        assert!(authorize(&callout, &r).is_err());
        assert_eq!(callout.pdp().sources().len(), 1);
    }
}
