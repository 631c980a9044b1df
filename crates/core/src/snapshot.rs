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
//! * [`AuthzEngine`] is the facade the PEP and the GRAM server use:
//!   `decide`/`decide_batch` for per-source breakdowns, `authorize` for
//!   an untraced single request, `authorize_within`/
//!   `authorize_batch_within` for the served path (a batch resolves
//!   **one snapshot for all its elements** — the VO-wide jobtag fan-out),
//!   `reload`/`policy_updated` for publication. The cache generation is
//!   the snapshot's own generation — there is no separate counter to
//!   fall out of sync.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

use gridauthz_telemetry::{labels, DecisionTrace, Gauge, Stage, TelemetryRegistry};

use crate::cache::{request_digest, CacheStats, DecisionCache};
use crate::combine::{CombinedDecision, CombinedPdp, PolicySource};
use crate::context::RequestContext;
use crate::error::AuthzFailure;
use crate::pep::AuthorizationCallout;
use crate::request::AuthzRequest;

/// One immutable, atomically published view of the authorization state.
///
/// `pdp: None` is the pass-through (GT2) snapshot: no policy sources are
/// configured and evaluation permits vacuously — distinct from a
/// [`CombinedPdp`] with zero sources, which fails closed.
#[derive(Debug)]
pub struct PolicySnapshot {
    pdp: Option<CombinedPdp>,
    generation: u64,
}

impl PolicySnapshot {
    /// The generation this snapshot was published under. Strictly
    /// monotone across publications of one [`AuthzEngine`]; decision
    /// cache entries are stamped with it, so swapping a snapshot
    /// invalidates every decision made under its predecessors.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The combined PDP, or `None` for the pass-through snapshot.
    pub fn pdp(&self) -> Option<&CombinedPdp> {
        self.pdp.as_ref()
    }

    /// The policy sources (empty for the pass-through snapshot).
    pub fn sources(&self) -> &[PolicySource] {
        self.pdp.as_ref().map(CombinedPdp::sources).unwrap_or(&[])
    }

    /// True when this snapshot carries no policy at all.
    pub fn is_pass_through(&self) -> bool {
        self.pdp.is_none()
    }

    /// Evaluates `request` against this snapshot.
    pub fn decide(&self, request: &AuthzRequest) -> CombinedDecision {
        match &self.pdp {
            Some(pdp) => pdp.decide(request),
            None => CombinedDecision::pass_through(),
        }
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

/// The unified policy enforcement engine: snapshot-published PDP state,
/// an optional decision cache stamped by snapshot generation, and any
/// number of additional [`AuthorizationCallout`]s run after the PDP.
///
/// The steady-state decision path resolves the complete policy state
/// with one [`SnapshotCell::load`] (uncached decisions touch nothing
/// else; cached ones add one sharded cache probe). Publication —
/// [`reload`](AuthzEngine::reload),
/// [`policy_updated`](AuthzEngine::policy_updated) — builds the new
/// snapshot off-path under a writer mutex nothing on the decision path
/// ever touches.
pub struct AuthzEngine {
    name: String,
    cell: SnapshotCell<PolicySnapshot>,
    /// Monotone generation source; the *snapshot* carries the published
    /// value, so decisions and cache stamps can never disagree about it.
    next_generation: AtomicU64,
    /// Serializes publishers so a `policy_updated` republish can never
    /// resurrect a PDP that a concurrent `reload` just replaced.
    publish: Mutex<()>,
    cache: Option<DecisionCache>,
    extras: Vec<Arc<dyn AuthorizationCallout>>,
    /// Optional metrics sink. `None` costs nothing; `Some` costs one
    /// relaxed counter increment on the cached hit path (no clocks are
    /// read there — see `decide_under`).
    telemetry: Option<Arc<TelemetryRegistry>>,
}

impl AuthzEngine {
    fn with_parts(
        name: impl Into<String>,
        pdp: Option<CombinedPdp>,
        cache: Option<DecisionCache>,
    ) -> AuthzEngine {
        AuthzEngine {
            name: name.into(),
            cell: SnapshotCell::new(PolicySnapshot { pdp, generation: 0 }),
            next_generation: AtomicU64::new(0),
            publish: Mutex::new(()),
            cache,
            extras: Vec::new(),
            telemetry: None,
        }
    }

    /// An uncached engine evaluating `pdp`.
    pub fn new(name: impl Into<String>, pdp: CombinedPdp) -> AuthzEngine {
        AuthzEngine::with_parts(name, Some(pdp), None)
    }

    /// An engine with a decision cache in front of `pdp`; repeated
    /// identical requests skip evaluation until the next publication.
    pub fn cached(name: impl Into<String>, pdp: CombinedPdp) -> AuthzEngine {
        AuthzEngine::with_parts(name, Some(pdp), Some(DecisionCache::new()))
    }

    /// An engine over `pdp` fronted by a caller-supplied cache.
    pub fn with_cache(
        name: impl Into<String>,
        pdp: CombinedPdp,
        cache: DecisionCache,
    ) -> AuthzEngine {
        AuthzEngine::with_parts(name, Some(pdp), Some(cache))
    }

    /// The pass-through engine: no policy sources, every request
    /// permitted — the GT2 baseline. Extra callouts may still deny.
    pub fn pass_through(name: impl Into<String>) -> AuthzEngine {
        AuthzEngine::with_parts(name, None, None)
    }

    /// The engine's configured name (for audit and error messages).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attaches a metrics registry. Untraced decisions then report cache
    /// probes (counter-only on hits) and combine latency (on misses);
    /// every publication updates the snapshot-generation gauge. Traced
    /// decisions record spans instead, so nothing is counted twice.
    pub fn set_telemetry(&mut self, registry: Arc<TelemetryRegistry>) {
        registry.set_gauge(Gauge::SnapshotGeneration, self.cell.load().generation());
        for callout in &self.extras {
            callout.attach_telemetry(&registry);
        }
        self.telemetry = Some(registry);
    }

    /// The attached metrics registry, if any.
    pub fn telemetry(&self) -> Option<&Arc<TelemetryRegistry>> {
        self.telemetry.as_ref()
    }

    /// Appends a callout evaluated (in insertion order) after the
    /// snapshot PDP on every `authorize`.
    pub fn push_callout(&mut self, callout: Arc<dyn AuthorizationCallout>) {
        if let Some(telemetry) = &self.telemetry {
            callout.attach_telemetry(telemetry);
        }
        self.extras.push(callout);
    }

    /// The extra callouts' names, in invocation order.
    pub fn callout_names(&self) -> Vec<&str> {
        self.extras.iter().map(|c| c.name()).collect()
    }

    /// Supervision state of every supervised extra callout, in
    /// invocation order, paired with the callout name. Unsupervised
    /// callouts are skipped. The GRAM server polls this to append
    /// breaker-transition audit records.
    pub fn supervision_reports(&self) -> Vec<(String, crate::supervise::SupervisionReport)> {
        self.extras
            .iter()
            .filter_map(|c| c.supervision_report().map(|r| (c.name().to_string(), r)))
            .collect()
    }

    /// True when authorization is entirely vacuous: a pass-through
    /// snapshot and no extra callouts. The GRAM server downgrades
    /// Extended mode to GT2 when its engine is vacuous.
    pub fn is_vacuous(&self) -> bool {
        self.extras.is_empty() && self.cell.load().is_pass_through()
    }

    /// The currently published snapshot.
    pub fn snapshot(&self) -> Arc<PolicySnapshot> {
        self.cell.load()
    }

    fn publish(&self, pdp: Option<CombinedPdp>) {
        let _writer = self.publish.lock().unwrap_or_else(|e| e.into_inner());
        let generation = self.next_generation.fetch_add(1, Ordering::SeqCst) + 1;
        self.cell.store(PolicySnapshot { pdp, generation });
        if let Some(telemetry) = &self.telemetry {
            telemetry.set_gauge(Gauge::SnapshotGeneration, generation);
        }
    }

    /// Publishes a new combined PDP — the runtime policy-reload path.
    /// In-flight decisions finish against the snapshot they hold; every
    /// decision starting after this call sees the new policy, and no
    /// cached decision from an earlier snapshot is ever served again
    /// (the generation moved with the pointer).
    pub fn reload(&self, pdp: CombinedPdp) {
        self.publish(Some(pdp));
    }

    /// Notifies the engine that the policy *environment* changed without
    /// replacing the PDP itself (grid-mapfile swap, credential
    /// revocation): republishes the current PDP under a fresh
    /// generation, dropping every cached decision, and forwards the
    /// notification to the extra callouts.
    pub fn policy_updated(&self) {
        {
            let _writer = self.publish.lock().unwrap_or_else(|e| e.into_inner());
            let generation = self.next_generation.fetch_add(1, Ordering::SeqCst) + 1;
            let pdp = self.cell.load().pdp.clone();
            self.cell.store(PolicySnapshot { pdp, generation });
            if let Some(telemetry) = &self.telemetry {
                telemetry.set_gauge(Gauge::SnapshotGeneration, generation);
            }
        }
        for callout in &self.extras {
            callout.policy_updated();
        }
    }

    /// Evaluates `request` against the published snapshot (extra
    /// callouts are not consulted; see [`authorize`](Self::authorize)).
    pub fn decide(&self, request: &AuthzRequest) -> Arc<CombinedDecision> {
        let snapshot = self.cell.load();
        self.decide_under(&snapshot, request)
    }

    /// Evaluates a batch under **one** snapshot: a single load covers
    /// every element, and all decisions are guaranteed to reflect the
    /// same policy generation — a VO-wide cancel fan-out can never
    /// straddle a reload.
    pub fn decide_batch(&self, requests: &[AuthzRequest]) -> Vec<Arc<CombinedDecision>> {
        let snapshot = self.cell.load();
        requests.iter().map(|request| self.decide_under(&snapshot, request)).collect()
    }

    fn decide_under(
        &self,
        snapshot: &PolicySnapshot,
        request: &AuthzRequest,
    ) -> Arc<CombinedDecision> {
        self.decide_instrumented(snapshot, request, None)
    }

    /// Outcome label for a combined decision.
    fn decision_label(decision: &CombinedDecision) -> &'static str {
        if decision.is_permit() {
            labels::PERMIT
        } else {
            labels::POLICY_DENIED
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
    fn decide_instrumented(
        &self,
        snapshot: &PolicySnapshot,
        request: &AuthzRequest,
        trace: Option<&mut DecisionTrace>,
    ) -> Arc<CombinedDecision> {
        match &self.cache {
            Some(cache) => {
                let probe_start = trace.is_some().then(Instant::now);
                let key = request_digest(request);
                let generation = snapshot.generation();
                if let Some(decision) = cache.lookup(key, generation) {
                    match trace {
                        Some(trace) => {
                            trace.record(Stage::CacheProbe, labels::HIT, elapsed_nanos(probe_start))
                        }
                        None => {
                            if let Some(telemetry) = &self.telemetry {
                                telemetry.record(Stage::CacheProbe, labels::HIT);
                            }
                        }
                    }
                    return decision;
                }
                let probe_nanos = elapsed_nanos(probe_start);
                let combine_start =
                    (trace.is_some() || self.telemetry.is_some()).then(Instant::now);
                let decision = Arc::new(snapshot.decide(request));
                let combine_nanos = elapsed_nanos(combine_start);
                let label = AuthzEngine::decision_label(&decision);
                match trace {
                    Some(trace) => {
                        trace.record(Stage::CacheProbe, labels::MISS, probe_nanos);
                        trace.record(Stage::Combine, label, combine_nanos);
                    }
                    None => {
                        if let Some(telemetry) = &self.telemetry {
                            telemetry.record(Stage::CacheProbe, labels::MISS);
                            telemetry.record_timed(Stage::Combine, label, combine_nanos);
                        }
                    }
                }
                cache.insert(key, generation, Arc::clone(&decision));
                decision
            }
            None => {
                let combine_start =
                    (trace.is_some() || self.telemetry.is_some()).then(Instant::now);
                let decision = Arc::new(snapshot.decide(request));
                let combine_nanos = elapsed_nanos(combine_start);
                let label = AuthzEngine::decision_label(&decision);
                match trace {
                    Some(trace) => trace.record(Stage::Combine, label, combine_nanos),
                    None => {
                        if let Some(telemetry) = &self.telemetry {
                            telemetry.record_timed(Stage::Combine, label, combine_nanos);
                        }
                    }
                }
                decision
            }
        }
    }

    fn to_outcome(decision: &CombinedDecision) -> Result<(), AuthzFailure> {
        match decision.decision().deny_reason() {
            None => Ok(()),
            Some(reason) => Err(AuthzFailure::Denied(reason.clone())),
        }
    }

    /// Authorizes `request` with no trace and no deadline: the snapshot
    /// decision first, then every extra callout in order; the first
    /// failure wins. A cache hit reads no clock.
    pub fn authorize(&self, request: &AuthzRequest) -> Result<(), AuthzFailure> {
        let snapshot = self.cell.load();
        if !snapshot.is_pass_through() {
            AuthzEngine::to_outcome(&self.decide_under(&snapshot, request))?;
        }
        for callout in &self.extras {
            callout.authorize(request)?;
        }
        Ok(())
    }

    /// [`authorize`](Self::authorize) under a [`RequestContext`], with
    /// per-stage spans: an already-expired request is refused as an
    /// authorization-system failure before any policy work; otherwise
    /// the snapshot decision contributes cache-probe/combine spans and
    /// every extra callout a named [`Stage::Callout`] span. Each callout
    /// receives the context so it can clamp its own time spending (see
    /// [`AuthorizationCallout::authorize_within`]) — this is how the
    /// front-end's deadline reaches the retry loop inside a
    /// [`SupervisedCallout`](crate::SupervisedCallout).
    ///
    /// # Errors
    ///
    /// The failures [`authorize`](Self::authorize) returns, plus
    /// [`AuthzFailure::SystemError`] for an expired deadline.
    pub fn authorize_within(
        &self,
        ctx: &RequestContext,
        request: &AuthzRequest,
        trace: &mut DecisionTrace,
    ) -> Result<(), AuthzFailure> {
        if ctx.expired() {
            return Err(expired());
        }
        self.evaluate(ctx, request, trace)
    }

    /// [`authorize_within`](Self::authorize_within) for a batch sharing
    /// one context, with one trace per request. The whole batch is
    /// refused when the context has already expired; otherwise it
    /// resolves under **one** snapshot, and each extra callout sees the
    /// still-undecided subset through
    /// [`AuthorizationCallout::authorize_batch_within`].
    pub fn authorize_batch_within(
        &self,
        ctx: &RequestContext,
        requests: &[AuthzRequest],
        traces: &mut [DecisionTrace],
    ) -> Vec<Result<(), AuthzFailure>> {
        if ctx.expired() {
            return requests.iter().map(|_| Err(expired())).collect();
        }
        self.evaluate_batch(ctx, requests, traces)
    }

    /// The traced single-request path without the deadline check — what
    /// a [`PdpCallout`](crate::PdpCallout) runs, since a snapshot
    /// decision never blocks and so has no time spending to clamp.
    pub(crate) fn evaluate(
        &self,
        ctx: &RequestContext,
        request: &AuthzRequest,
        trace: &mut DecisionTrace,
    ) -> Result<(), AuthzFailure> {
        let snapshot = self.cell.load();
        if !snapshot.is_pass_through() {
            AuthzEngine::to_outcome(&self.decide_instrumented(&snapshot, request, Some(trace)))?;
        }
        for callout in &self.extras {
            let start = Instant::now();
            let outcome = callout.authorize_within(ctx, request, trace);
            trace.record_callout(
                callout.name(),
                AuthzEngine::outcome_label(&outcome),
                elapsed_nanos(Some(start)),
            );
            outcome?;
        }
        Ok(())
    }

    /// The traced batch path without the deadline check. Each extra
    /// callout sees the still-undecided subset of the batch (so a
    /// snapshot-backed callout also resolves its state once); a
    /// request's result is its first failure in callout order — settled
    /// elements are never re-presented to later callouts, so
    /// side-effectful callouts observe each element at most once. A
    /// callout's batch evaluation is timed as a whole and the elapsed
    /// time amortized evenly across the elements it saw — the batch API
    /// deliberately gives callouts no per-element boundary to clock.
    pub(crate) fn evaluate_batch(
        &self,
        ctx: &RequestContext,
        requests: &[AuthzRequest],
        traces: &mut [DecisionTrace],
    ) -> Vec<Result<(), AuthzFailure>> {
        debug_assert_eq!(requests.len(), traces.len());
        let snapshot = self.cell.load();
        let mut outcomes: Vec<Result<(), AuthzFailure>> = if snapshot.is_pass_through() {
            requests.iter().map(|_| Ok(())).collect()
        } else {
            requests
                .iter()
                .zip(traces.iter_mut())
                .map(|(request, trace)| {
                    AuthzEngine::to_outcome(&self.decide_instrumented(
                        &snapshot,
                        request,
                        Some(trace),
                    ))
                })
                .collect()
        };
        for callout in &self.extras {
            let pending: Vec<usize> =
                (0..requests.len()).filter(|&i| outcomes[i].is_ok()).collect();
            if pending.is_empty() {
                break;
            }
            let start = Instant::now();
            let subs = if pending.len() == requests.len() {
                callout.authorize_batch_within(ctx, requests, traces)
            } else {
                // Settled elements keep their traces untouched: swap the
                // pending traces out, run the callout over the subset,
                // and put them back.
                let subset: Vec<AuthzRequest> =
                    pending.iter().map(|&i| requests[i].clone()).collect();
                let mut sub_traces: Vec<DecisionTrace> = pending
                    .iter()
                    .map(|&i| std::mem::replace(&mut traces[i], DecisionTrace::detached()))
                    .collect();
                let subs = callout.authorize_batch_within(ctx, &subset, &mut sub_traces);
                for (&i, trace) in pending.iter().zip(sub_traces) {
                    traces[i] = trace;
                }
                subs
            };
            let amortized = elapsed_nanos(Some(start)) / pending.len().max(1) as u64;
            for (&i, sub) in pending.iter().zip(subs) {
                traces[i].record_callout(
                    callout.name(),
                    AuthzEngine::outcome_label(&sub),
                    amortized,
                );
                outcomes[i] = sub;
            }
        }
        outcomes
    }

    /// Refreshes the cache gauges ([`Gauge::CacheHits`],
    /// [`Gauge::CacheMisses`], [`Gauge::CacheEntries`]) by summing this
    /// engine's own cache with every extra callout's
    /// [`cache_report`](AuthorizationCallout::cache_report). Gauges are
    /// sampled state, not counters, so this is called at snapshot/export
    /// time rather than on the decision path. A no-op without telemetry.
    pub fn refresh_telemetry_gauges(&self) {
        let Some(telemetry) = &self.telemetry else { return };
        let (mut hits, mut misses, mut entries) = (0u64, 0u64, 0u64);
        let mut fold = |stats: CacheStats, len: usize| {
            hits += stats.hits;
            misses += stats.misses;
            entries += len as u64;
        };
        if let Some(cache) = &self.cache {
            fold(cache.stats(), cache.len());
        }
        for callout in &self.extras {
            if let Some((stats, len)) = callout.cache_report() {
                fold(stats, len);
            }
        }
        telemetry.set_gauge(Gauge::CacheHits, hits);
        telemetry.set_gauge(Gauge::CacheMisses, misses);
        telemetry.set_gauge(Gauge::CacheEntries, entries);
    }

    /// The decision cache, when this engine carries one.
    pub fn cache(&self) -> Option<&DecisionCache> {
        self.cache.as_ref()
    }

    /// Hit/miss counters, when this engine carries a cache.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(DecisionCache::stats)
    }
}

/// The refusal for a request whose deadline passed before authorization.
fn expired() -> AuthzFailure {
    AuthzFailure::SystemError("request deadline expired before authorization".into())
}

/// Elapsed nanoseconds since `start`, or 0 when timing was off.
fn elapsed_nanos(start: Option<Instant>) -> u64 {
    start.map_or(0, |start| u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

impl fmt::Debug for AuthzEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snapshot = self.cell.load();
        f.debug_struct("AuthzEngine")
            .field("name", &self.name)
            .field("generation", &snapshot.generation())
            .field("pass_through", &snapshot.is_pass_through())
            .field("cached", &self.cache.is_some())
            .field("extras", &self.callout_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicUsize;

    use super::*;
    use crate::combine::{Combiner, PolicyOrigin};
    use crate::decision::DenyReason;
    use gridauthz_credential::DistinguishedName;
    use gridauthz_rsl::parse;

    fn request(subject: &str, job: &str) -> AuthzRequest {
        AuthzRequest::start(
            subject.parse::<DistinguishedName>().unwrap(),
            parse(job).unwrap().as_conjunction().unwrap().clone(),
        )
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
    fn engine_decides_and_reloads_without_stale_results() {
        let engine = AuthzEngine::cached("e", pdp("/O=G/CN=Bo: &(action = start)"));
        let r = request("/O=G/CN=Bo", "&(executable = x)");
        assert!(engine.authorize(&r).is_ok());
        assert!(engine.authorize(&r).is_ok()); // cached
        engine.reload(pdp("/O=G/CN=Kate: &(action = start)"));
        assert!(engine.authorize(&r).is_err());
    }

    #[test]
    fn generations_are_monotone_across_publications() {
        let engine = AuthzEngine::new("e", pdp("/O=G/CN=Bo: &(action = start)"));
        let mut last = engine.snapshot().generation();
        for _ in 0..3 {
            engine.policy_updated();
            let now = engine.snapshot().generation();
            assert!(now > last);
            last = now;
        }
        engine.reload(pdp("/O=G/CN=Bo: &(action = start)"));
        assert!(engine.snapshot().generation() > last);
    }

    #[test]
    fn pass_through_engine_permits_everything() {
        let engine = AuthzEngine::pass_through("gt2");
        assert!(engine.is_vacuous());
        let r = request("/O=G/CN=Anyone", "&(executable = x)");
        assert!(engine.authorize(&r).is_ok());
        let d = engine.decide(&r);
        assert!(d.is_permit());
        assert!(d.per_source().is_empty());
    }

    #[test]
    fn decide_batch_matches_elementwise_decide() {
        let engine = AuthzEngine::new("e", pdp("/O=G/CN=Bo: &(action = start)(executable = a)"));
        let requests = vec![
            request("/O=G/CN=Bo", "&(executable = a)"),
            request("/O=G/CN=Bo", "&(executable = b)"),
            request("/O=G/CN=Eve", "&(executable = a)"),
        ];
        let batch = engine.decide_batch(&requests);
        for (request, batched) in requests.iter().zip(&batch) {
            assert_eq!(**batched, *engine.decide(request));
        }
    }

    #[test]
    fn extra_callouts_run_after_snapshot_and_can_deny() {
        struct DenyAll;
        impl AuthorizationCallout for DenyAll {
            fn name(&self) -> &str {
                "deny-all"
            }
            fn authorize(&self, _: &AuthzRequest) -> Result<(), AuthzFailure> {
                Err(AuthzFailure::Denied(DenyReason::NoApplicableGrant))
            }
        }
        let mut engine = AuthzEngine::new("e", pdp("/O=G/CN=Bo: &(action = start)"));
        engine.push_callout(Arc::new(DenyAll));
        assert!(!engine.is_vacuous());
        assert_eq!(engine.callout_names(), vec!["deny-all"]);
        let r = request("/O=G/CN=Bo", "&(executable = x)");
        assert!(engine.authorize(&r).is_err());
        let batch = batch_outcomes(&engine, std::slice::from_ref(&r));
        assert!(batch[0].is_err());
    }

    #[test]
    fn batch_skips_elements_settled_by_earlier_callouts() {
        // Denies requests from a specific subject; records nothing.
        struct DenySubject(&'static str);
        impl AuthorizationCallout for DenySubject {
            fn name(&self) -> &str {
                "deny-subject"
            }
            fn authorize(&self, request: &AuthzRequest) -> Result<(), AuthzFailure> {
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
            fn authorize(&self, request: &AuthzRequest) -> Result<(), AuthzFailure> {
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
    fn batch_short_circuits_when_everything_is_settled() {
        struct DenyAll;
        impl AuthorizationCallout for DenyAll {
            fn name(&self) -> &str {
                "deny-all"
            }
            fn authorize(&self, _: &AuthzRequest) -> Result<(), AuthzFailure> {
                Err(AuthzFailure::Denied(DenyReason::NoApplicableGrant))
            }
        }
        #[derive(Default)]
        struct Counting(AtomicUsize);
        impl AuthorizationCallout for Counting {
            fn name(&self) -> &str {
                "counting"
            }
            fn authorize(&self, _: &AuthzRequest) -> Result<(), AuthzFailure> {
                self.0.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        }
        let counter = Arc::new(Counting::default());
        let mut engine = AuthzEngine::pass_through("chain");
        engine.push_callout(Arc::new(DenyAll));
        engine.push_callout(counter.clone());
        let requests = vec![request("/O=G/CN=Bo", "&(executable = x)")];
        let outcomes = batch_outcomes(&engine, &requests);
        assert!(outcomes[0].is_err());
        assert_eq!(counter.0.load(Ordering::SeqCst), 0);
    }
}
