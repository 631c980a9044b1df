//! Callout supervision: deadlines, bounded retries, circuit breakers and
//! degraded-mode decisions for remote authorization callouts.
//!
//! The paper's integration targets — Akenti and CAS — are *remote*
//! authorization services whose latency and availability §7 reasons about
//! only qualitatively. A bare [`CalloutChain`](crate::CalloutChain)
//! aborts on the first callout error with no deadline, no retry and no
//! degradation story, so one flapping policy server takes the whole
//! decision pipeline down with it. [`SupervisedCallout`] wraps any
//! [`AuthorizationCallout`] with:
//!
//! * a per-call **deadline** measured against the shared [`SimClock`] —
//!   an attempt whose simulated elapsed time exceeds the deadline is
//!   discarded and classified as a timeout, whatever it returned;
//! * **bounded retries** with deterministic jittered exponential backoff
//!   (backoff advances the simulated clock, jitter is a pure function of
//!   the callout name and a per-call counter, so runs are reproducible);
//! * a per-callout **circuit breaker** (closed → open → half-open with a
//!   probe budget) that converts a sustained outage into instant
//!   rejections instead of a retry storm;
//! * a configurable [`DegradationPolicy`] deciding the outcome once the
//!   budget is exhausted: fail closed (the paper's "authorization system
//!   failure" class), skip the callout with an audit mark, or serve the
//!   last known decision within a staleness TTL, flagged as degraded.
//!
//! Policy **denials are successes** to the supervisor: a denial proves
//! the authorization system evaluated the request; only system errors
//! and deadline overruns count against the breaker.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use gridauthz_clock::{SimClock, SimDuration, SimTime};
use gridauthz_telemetry::{labels, DecisionTrace, Stage, TelemetryRegistry};

use crate::cache::request_digest;
use crate::context::RequestContext;
use crate::decision::DenyReason;
use crate::error::AuthzFailure;
use crate::pep::AuthorizationCallout;
use crate::request::AuthzRequest;

/// What a [`SupervisedCallout`] answers once deadline, retries and
/// breaker are all exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradationPolicy {
    /// Refuse the request as an authorization-system failure — the
    /// paper's error class for an unreachable authorization system, and
    /// the only safe default: resources fail *closed*.
    FailClosed,
    /// Permit as if the callout were absent, marking the decision
    /// degraded for audit. Only sound for advisory, non-mandatory
    /// callouts (e.g. an audit-enrichment hook).
    FailOpenAdvisory,
    /// Serve the last decision this callout produced for the same
    /// canonical request, if it is younger than `ttl` and from the
    /// current policy generation; otherwise fail closed.
    ServeStale {
        /// Maximum age of a servable remembered decision.
        ttl: SimDuration,
    },
}

impl fmt::Display for DegradationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationPolicy::FailClosed => f.write_str("fail-closed"),
            DegradationPolicy::FailOpenAdvisory => f.write_str("fail-open"),
            DegradationPolicy::ServeStale { ttl } => write!(f, "serve-stale(ttl {ttl})"),
        }
    }
}

/// Tuning knobs for one supervised callout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Per-attempt deadline in simulated time.
    pub deadline: SimDuration,
    /// Total attempts per decision (1 = no retries).
    pub max_attempts: u32,
    /// First-retry backoff; doubles per retry up to `max_backoff`.
    pub base_backoff: SimDuration,
    /// Backoff ceiling.
    pub max_backoff: SimDuration,
    /// Consecutive failed *decisions* that trip the breaker open.
    pub failure_threshold: u32,
    /// How long the breaker stays open before probing.
    pub open_for: SimDuration,
    /// Concurrent probes admitted while half-open.
    pub probe_budget: u32,
    /// Successful probes required to close the breaker again.
    pub close_after: u32,
    /// Outcome shape once the budget is exhausted.
    pub degradation: DegradationPolicy,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            deadline: SimDuration::from_millis(50),
            max_attempts: 3,
            base_backoff: SimDuration::from_millis(10),
            max_backoff: SimDuration::from_millis(200),
            failure_threshold: 5,
            open_for: SimDuration::from_secs(30),
            probe_budget: 2,
            close_after: 2,
            degradation: DegradationPolicy::FailClosed,
        }
    }
}

impl ResilienceConfig {
    /// Upper bound on the simulated time one supervised decision may
    /// consume when every attempt runs to its deadline: all attempts at
    /// the deadline plus every backoff at its ceiling (the shared
    /// [`retry_budget`](crate::retry_budget) formula). The testbed
    /// outage scenario asserts decisions stay inside this budget; a
    /// [`RequestContext`] deadline clamps the schedule further at call
    /// time.
    pub fn decision_budget(&self) -> SimDuration {
        crate::context::retry_budget(self.deadline, self.max_attempts, self.max_backoff)
    }

    /// Parses the resilience knobs out of a callout-configuration
    /// option map (`deadline_ms=…`, `attempts=…`, `backoff_ms=…`,
    /// `max_backoff_ms=…`, `breaker_failures=…`, `breaker_open_ms=…`,
    /// `probes=…`, `close_after=…`, `degrade=fail-closed|fail-open|`
    /// `serve-stale`, `stale_ttl_ms=…`). Returns `Ok(None)` when no
    /// resilience key is present — the callout runs unsupervised.
    ///
    /// # Errors
    ///
    /// A description of the offending key for unparsable numbers, an
    /// unknown `degrade` value, or `stale_ttl_ms` without
    /// `degrade=serve-stale`.
    pub fn from_options(
        options: &HashMap<String, String>,
    ) -> Result<Option<ResilienceConfig>, String> {
        const KEYS: [&str; 10] = [
            "deadline_ms",
            "attempts",
            "backoff_ms",
            "max_backoff_ms",
            "breaker_failures",
            "breaker_open_ms",
            "probes",
            "close_after",
            "degrade",
            "stale_ttl_ms",
        ];
        if !KEYS.iter().any(|k| options.contains_key(*k)) {
            return Ok(None);
        }
        fn num(options: &HashMap<String, String>, key: &str) -> Result<Option<u64>, String> {
            match options.get(key) {
                None => Ok(None),
                Some(raw) => raw
                    .parse::<u64>()
                    .map(Some)
                    .map_err(|_| format!("option {key}={raw:?} is not a non-negative integer")),
            }
        }
        let mut config = ResilienceConfig::default();
        if let Some(ms) = num(options, "deadline_ms")? {
            config.deadline = SimDuration::from_millis(ms);
        }
        if let Some(n) = num(options, "attempts")? {
            if n == 0 {
                return Err("option attempts=0: at least one attempt is required".into());
            }
            config.max_attempts = u32::try_from(n).unwrap_or(u32::MAX);
        }
        if let Some(ms) = num(options, "backoff_ms")? {
            config.base_backoff = SimDuration::from_millis(ms);
        }
        if let Some(ms) = num(options, "max_backoff_ms")? {
            config.max_backoff = SimDuration::from_millis(ms);
        }
        if let Some(n) = num(options, "breaker_failures")? {
            config.failure_threshold = u32::try_from(n).unwrap_or(u32::MAX);
        }
        if let Some(ms) = num(options, "breaker_open_ms")? {
            config.open_for = SimDuration::from_millis(ms);
        }
        if let Some(n) = num(options, "probes")? {
            config.probe_budget = u32::try_from(n).unwrap_or(u32::MAX).max(1);
        }
        if let Some(n) = num(options, "close_after")? {
            config.close_after = u32::try_from(n).unwrap_or(u32::MAX).max(1);
        }
        let stale_ttl = num(options, "stale_ttl_ms")?.map(SimDuration::from_millis);
        match options.get("degrade").map(String::as_str) {
            None => {
                if stale_ttl.is_some() {
                    return Err("option stale_ttl_ms requires degrade=serve-stale".into());
                }
            }
            Some("fail-closed") => {
                if stale_ttl.is_some() {
                    return Err("option stale_ttl_ms requires degrade=serve-stale".into());
                }
                config.degradation = DegradationPolicy::FailClosed;
            }
            Some("fail-open") => {
                if stale_ttl.is_some() {
                    return Err("option stale_ttl_ms requires degrade=serve-stale".into());
                }
                config.degradation = DegradationPolicy::FailOpenAdvisory;
            }
            Some("serve-stale") => {
                config.degradation = DegradationPolicy::ServeStale {
                    ttl: stale_ttl.unwrap_or(SimDuration::from_secs(60)),
                };
            }
            Some(other) => {
                return Err(format!(
                    "option degrade={other:?}: expected fail-closed, fail-open or serve-stale"
                ));
            }
        }
        Ok(Some(config))
    }
}

/// The externally visible circuit-breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow through; consecutive failures are counted.
    Closed,
    /// Calls are rejected without touching the callout.
    Open,
    /// A bounded number of probe calls test recovery.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name (audit-note and metric-label component).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One breaker state change, sequence-stamped so audit consumers can
/// sync incrementally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakerTransition {
    /// Monotone per-callout transition number (starts at 1).
    pub seq: u64,
    /// Simulated instant of the transition.
    pub at: SimTime,
    /// State left.
    pub from: BreakerState,
    /// State entered.
    pub to: BreakerState,
}

/// Counters a [`SupervisedCallout`] accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisionStats {
    /// Attempts re-issued after a failed attempt.
    pub retries: u64,
    /// Attempts discarded for exceeding the deadline.
    pub timeouts: u64,
    /// Decisions answered from the stale store.
    pub stale_served: u64,
    /// Decisions permitted by `FailOpenAdvisory`.
    pub fail_open: u64,
    /// Calls rejected by an open breaker (or exhausted probe budget).
    pub breaker_rejections: u64,
    /// Decisions that ended in degraded mode (any policy).
    pub degraded: u64,
}

/// A point-in-time view of one supervised callout, surfaced through
/// [`AuthorizationCallout::supervision_report`] so the GRAM server can
/// turn breaker transitions into audit records without knowing the
/// concrete wrapper type.
#[derive(Debug, Clone)]
pub struct SupervisionReport {
    /// Current breaker state.
    pub state: BreakerState,
    /// Recent transitions, oldest first (bounded ring; `seq` is gapless
    /// while within the retention window).
    pub transitions: Vec<BreakerTransition>,
    /// Accumulated counters.
    pub stats: SupervisionStats,
    /// The active configuration's decision budget.
    pub decision_budget: SimDuration,
}

/// Internal breaker automaton, mutated under one mutex.
#[derive(Debug)]
enum Breaker {
    Closed { consecutive_failures: u32 },
    Open { until: SimTime },
    HalfOpen { in_flight: u32, successes: u32 },
}

impl Breaker {
    fn state(&self) -> BreakerState {
        match self {
            Breaker::Closed { .. } => BreakerState::Closed,
            Breaker::Open { .. } => BreakerState::Open,
            Breaker::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }
}

enum Admission {
    /// Proceed; `probe` marks a half-open trial call.
    Allow { probe: bool },
    /// Rejected without touching the callout.
    Reject,
}

/// What one remembered decision looked like (the `ServeStale` store).
#[derive(Debug, Clone)]
struct StaleEntry {
    outcome: Result<(), DenyReason>,
    at: SimTime,
    generation: u64,
}

/// Transitions retained for audit sync.
const TRANSITION_RING: usize = 256;
/// Remembered decisions the stale store holds at most.
const STALE_CAPACITY: usize = 4096;

/// An [`AuthorizationCallout`] wrapped with deadline, retry, breaker and
/// degradation supervision. Construct with [`SupervisedCallout::new`];
/// the clock handle must be the simulation's shared clock — backoff and
/// breaker timing advance and read it.
pub struct SupervisedCallout {
    inner: Arc<dyn AuthorizationCallout>,
    clock: SimClock,
    config: ResilienceConfig,
    breaker: Mutex<Breaker>,
    transitions: Mutex<VecDeque<BreakerTransition>>,
    transition_seq: AtomicU64,
    /// Per-call counter feeding the deterministic jitter.
    call_seq: AtomicU64,
    /// FNV-1a of the callout name: the jitter stream differs per callout
    /// but is reproducible across runs.
    jitter_seed: u64,
    stale: Mutex<HashMap<u128, StaleEntry>>,
    /// Bumped by `policy_updated`; stale entries from older generations
    /// are never served.
    stale_generation: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    stale_served: AtomicU64,
    fail_open: AtomicU64,
    breaker_rejections: AtomicU64,
    degraded: AtomicU64,
    telemetry: RwLock<Option<Arc<TelemetryRegistry>>>,
}

impl SupervisedCallout {
    /// Wraps `inner` under `config`, timing against `clock`.
    pub fn new(
        inner: Arc<dyn AuthorizationCallout>,
        clock: &SimClock,
        config: ResilienceConfig,
    ) -> SupervisedCallout {
        let mut seed: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in inner.name().bytes() {
            seed ^= u64::from(byte);
            seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
        }
        SupervisedCallout {
            inner,
            clock: clock.clone(),
            config,
            breaker: Mutex::new(Breaker::Closed { consecutive_failures: 0 }),
            transitions: Mutex::new(VecDeque::new()),
            transition_seq: AtomicU64::new(0),
            call_seq: AtomicU64::new(0),
            jitter_seed: seed,
            stale: Mutex::new(HashMap::new()),
            stale_generation: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            stale_served: AtomicU64::new(0),
            fail_open: AtomicU64::new(0),
            breaker_rejections: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            telemetry: RwLock::new(None),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ResilienceConfig {
        &self.config
    }

    /// Current breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.lock().unwrap_or_else(|e| e.into_inner()).state()
    }

    /// Recent breaker transitions, oldest first.
    pub fn transitions(&self) -> Vec<BreakerTransition> {
        self.transitions.lock().unwrap_or_else(|e| e.into_inner()).iter().cloned().collect()
    }

    /// Accumulated counters.
    pub fn stats(&self) -> SupervisionStats {
        SupervisionStats {
            retries: self.retries.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            stale_served: self.stale_served.load(Ordering::Relaxed),
            fail_open: self.fail_open.load(Ordering::Relaxed),
            breaker_rejections: self.breaker_rejections.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }

    fn record(&self, label: &'static str) {
        let telemetry = self.telemetry.read().unwrap_or_else(|e| e.into_inner());
        if let Some(registry) = telemetry.as_ref() {
            registry.record(Stage::Callout, label);
        }
    }

    fn record_timed(&self, label: &'static str, elapsed: SimDuration) {
        let telemetry = self.telemetry.read().unwrap_or_else(|e| e.into_inner());
        if let Some(registry) = telemetry.as_ref() {
            registry.record_timed(Stage::Callout, label, elapsed.as_micros().saturating_mul(1_000));
        }
    }

    /// Appends a transition record and bumps the matching counter.
    /// Called with the breaker lock held, so `seq` order matches the
    /// actual transition order.
    fn note_transition(&self, from: BreakerState, to: BreakerState) {
        let seq = self.transition_seq.fetch_add(1, Ordering::SeqCst) + 1;
        let record = BreakerTransition { seq, at: self.clock.now(), from, to };
        let mut ring = self.transitions.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() >= TRANSITION_RING {
            ring.pop_front();
        }
        ring.push_back(record);
        drop(ring);
        self.record(match to {
            BreakerState::Open => labels::BREAKER_OPEN,
            BreakerState::HalfOpen => labels::BREAKER_HALF_OPEN,
            BreakerState::Closed => labels::BREAKER_CLOSED,
        });
    }

    fn admit(&self) -> Admission {
        let mut breaker = self.breaker.lock().unwrap_or_else(|e| e.into_inner());
        match &mut *breaker {
            Breaker::Closed { .. } => Admission::Allow { probe: false },
            Breaker::Open { until } => {
                if self.clock.now() >= *until {
                    *breaker = Breaker::HalfOpen { in_flight: 1, successes: 0 };
                    drop(breaker);
                    self.note_transition(BreakerState::Open, BreakerState::HalfOpen);
                    Admission::Allow { probe: true }
                } else {
                    Admission::Reject
                }
            }
            Breaker::HalfOpen { in_flight, .. } => {
                if *in_flight < self.config.probe_budget {
                    *in_flight += 1;
                    Admission::Allow { probe: true }
                } else {
                    Admission::Reject
                }
            }
        }
    }

    /// Reports a finished supervised decision to the breaker.
    fn complete(&self, probe: bool, success: bool) {
        let mut breaker = self.breaker.lock().unwrap_or_else(|e| e.into_inner());
        match &mut *breaker {
            Breaker::Closed { consecutive_failures } => {
                if success {
                    *consecutive_failures = 0;
                } else {
                    *consecutive_failures += 1;
                    if *consecutive_failures >= self.config.failure_threshold {
                        *breaker = Breaker::Open { until: self.clock.now() + self.config.open_for };
                        drop(breaker);
                        self.note_transition(BreakerState::Closed, BreakerState::Open);
                    }
                }
            }
            Breaker::Open { .. } => {
                // A decision that started before the breaker opened is
                // late news; the breaker already acted.
            }
            Breaker::HalfOpen { in_flight, successes } => {
                debug_assert!(probe || *in_flight > 0, "non-probe completion while half-open");
                if success {
                    *successes += 1;
                    if *successes >= self.config.close_after {
                        *breaker = Breaker::Closed { consecutive_failures: 0 };
                        drop(breaker);
                        self.note_transition(BreakerState::HalfOpen, BreakerState::Closed);
                    } else {
                        *in_flight = in_flight.saturating_sub(1);
                    }
                } else {
                    *breaker = Breaker::Open { until: self.clock.now() + self.config.open_for };
                    drop(breaker);
                    self.note_transition(BreakerState::HalfOpen, BreakerState::Open);
                }
            }
        }
    }

    /// Jittered exponential backoff for retry number `retry` (1-based):
    /// uniformly in [50%, 100%] of `min(base << (retry-1), max_backoff)`,
    /// from a splitmix64 stream seeded by callout name and call number.
    fn backoff(&self, call: u64, retry: u32) -> SimDuration {
        let exp = self
            .config
            .base_backoff
            .as_micros()
            .saturating_mul(1u64.checked_shl(retry - 1).unwrap_or(u64::MAX));
        let capped = exp.min(self.config.max_backoff.as_micros());
        let mut z = self
            .jitter_seed
            .wrapping_add(call.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(u64::from(retry));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        // Scale into [capped/2, capped].
        let jittered = capped / 2 + (z % (capped / 2 + 1));
        SimDuration::from_micros(jittered)
    }

    /// Remembers a conclusive decision for `ServeStale`.
    fn remember(&self, key: u128, outcome: &Result<(), AuthzFailure>) {
        if !matches!(self.config.degradation, DegradationPolicy::ServeStale { .. }) {
            return;
        }
        let stored = match outcome {
            Ok(()) => Ok(()),
            Err(AuthzFailure::Denied(reason)) => Err(reason.clone()),
            Err(AuthzFailure::SystemError(_)) => return,
        };
        let mut stale = self.stale.lock().unwrap_or_else(|e| e.into_inner());
        if stale.len() >= STALE_CAPACITY && !stale.contains_key(&key) {
            if let Some(&victim) = stale.keys().next() {
                stale.remove(&victim);
            }
        }
        stale.insert(
            key,
            StaleEntry {
                outcome: stored,
                at: self.clock.now(),
                generation: self.stale_generation.load(Ordering::SeqCst),
            },
        );
    }

    /// The degraded outcome once supervision is exhausted.
    fn degrade(
        &self,
        key: u128,
        trace: Option<&mut DecisionTrace>,
        why: &str,
    ) -> Result<(), AuthzFailure> {
        self.degraded.fetch_add(1, Ordering::Relaxed);
        self.record(labels::DEGRADED);
        if let Some(trace) = trace {
            trace.mark_degraded();
        }
        let fail_closed = || {
            Err(AuthzFailure::SystemError(format!(
                "callout {:?} unavailable ({why}); failing closed",
                self.inner.name()
            )))
        };
        match &self.config.degradation {
            DegradationPolicy::FailClosed => fail_closed(),
            DegradationPolicy::FailOpenAdvisory => {
                self.fail_open.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            DegradationPolicy::ServeStale { ttl } => {
                let stale = self.stale.lock().unwrap_or_else(|e| e.into_inner());
                let generation = self.stale_generation.load(Ordering::SeqCst);
                match stale.get(&key) {
                    Some(entry)
                        if entry.generation == generation
                            && self.clock.now().saturating_since(entry.at) <= *ttl =>
                    {
                        self.stale_served.fetch_add(1, Ordering::Relaxed);
                        self.record(labels::STALE_SERVED);
                        match &entry.outcome {
                            Ok(()) => Ok(()),
                            Err(reason) => Err(AuthzFailure::Denied(reason.clone())),
                        }
                    }
                    _ => fail_closed(),
                }
            }
        }
    }

    /// The supervised decision path shared by `authorize` and
    /// `authorize_within`. The retry schedule is clamped by `ctx`: once
    /// the request cannot afford another backoff plus a full
    /// per-attempt deadline, the supervisor stops retrying and degrades
    /// instead of blowing through the caller's deadline — the context's
    /// remaining time, not the standalone
    /// [`decision_budget`](ResilienceConfig::decision_budget), bounds
    /// the call.
    fn call_supervised(
        &self,
        ctx: &RequestContext,
        request: &AuthzRequest,
        mut trace: Option<&mut DecisionTrace>,
    ) -> Result<(), AuthzFailure> {
        let key = request_digest(request);
        if ctx.expired() {
            self.record(labels::EXPIRED);
            return self.degrade(key, trace, "request deadline expired before callout");
        }
        let probe = match self.admit() {
            Admission::Allow { probe } => probe,
            Admission::Reject => {
                self.breaker_rejections.fetch_add(1, Ordering::Relaxed);
                return self.degrade(key, trace, "circuit breaker open");
            }
        };
        let call = self.call_seq.fetch_add(1, Ordering::SeqCst);
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let start = self.clock.now();
            let result = self.inner.authorize(request);
            let elapsed = self.clock.now().saturating_since(start);
            let outcome = if elapsed > self.config.deadline {
                self.timeouts.fetch_add(1, Ordering::Relaxed);
                self.record_timed(labels::TIMEOUT, elapsed);
                Err(AuthzFailure::SystemError(format!(
                    "attempt {attempt} exceeded deadline ({elapsed} > {})",
                    self.config.deadline
                )))
            } else {
                result
            };
            match outcome {
                Ok(()) | Err(AuthzFailure::Denied(_)) => {
                    // Denials are evidence the system works: breaker
                    // success, and a rememberable decision.
                    self.complete(probe, true);
                    self.remember(key, &outcome);
                    return outcome;
                }
                Err(AuthzFailure::SystemError(message)) => {
                    if attempt >= self.config.max_attempts {
                        self.complete(probe, false);
                        return self.degrade(key, trace.take(), &message);
                    }
                    let backoff = self.backoff(call, attempt);
                    // A retry costs its backoff plus (up to) a full
                    // per-attempt deadline; a request that cannot afford
                    // that degrades now instead of answering late.
                    let next_attempt_cost = SimDuration::from_micros(
                        backoff.as_micros().saturating_add(self.config.deadline.as_micros()),
                    );
                    if ctx.remaining() < next_attempt_cost {
                        self.record(labels::EXPIRED);
                        self.complete(probe, false);
                        return self.degrade(key, trace.take(), "request deadline exhausted");
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    self.record(labels::RETRY);
                    self.clock.advance(backoff);
                }
            }
        }
    }
}

impl fmt::Debug for SupervisedCallout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SupervisedCallout")
            .field("name", &self.inner.name())
            .field("breaker", &self.breaker_state())
            .field("degradation", &self.config.degradation)
            .finish()
    }
}

impl AuthorizationCallout for SupervisedCallout {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn authorize(&self, request: &AuthzRequest) -> Result<(), AuthzFailure> {
        self.call_supervised(&RequestContext::unbounded(), request, None)
    }

    fn authorize_within(
        &self,
        ctx: &RequestContext,
        request: &AuthzRequest,
        trace: &mut DecisionTrace,
    ) -> Result<(), AuthzFailure> {
        self.call_supervised(ctx, request, Some(trace))
    }

    fn policy_updated(&self) {
        // Stale entries predate the new policy environment: never serve
        // them again.
        self.stale_generation.fetch_add(1, Ordering::SeqCst);
        self.inner.policy_updated();
    }

    fn cache_report(&self) -> Option<(crate::cache::CacheStats, usize)> {
        self.inner.cache_report()
    }

    fn attach_telemetry(&self, registry: &Arc<TelemetryRegistry>) {
        *self.telemetry.write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(registry));
        self.inner.attach_telemetry(registry);
    }

    fn supervision_report(&self) -> Option<SupervisionReport> {
        Some(SupervisionReport {
            state: self.breaker_state(),
            transitions: self.transitions(),
            stats: self.stats(),
            decision_budget: self.config.decision_budget(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn request(subject: &str) -> AuthzRequest {
        AuthzRequest::start(
            subject.parse().unwrap(),
            gridauthz_rsl::parse("&(executable = x)").unwrap().as_conjunction().unwrap().clone(),
        )
    }

    /// Scripted inner callout: fails while `broken`, advancing the clock
    /// by `latency` per call.
    struct Scripted {
        clock: SimClock,
        latency: SimDuration,
        broken: std::sync::atomic::AtomicBool,
        deny: std::sync::atomic::AtomicBool,
        calls: AtomicUsize,
    }

    impl Scripted {
        fn new(clock: &SimClock, latency: SimDuration) -> Scripted {
            Scripted {
                clock: clock.clone(),
                latency,
                broken: Default::default(),
                deny: Default::default(),
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl AuthorizationCallout for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn authorize(&self, _: &AuthzRequest) -> Result<(), AuthzFailure> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.clock.advance(self.latency);
            if self.broken.load(Ordering::SeqCst) {
                Err(AuthzFailure::SystemError("policy server unreachable".into()))
            } else if self.deny.load(Ordering::SeqCst) {
                Err(AuthzFailure::Denied(DenyReason::NoApplicableGrant))
            } else {
                Ok(())
            }
        }
    }

    fn quick_config() -> ResilienceConfig {
        ResilienceConfig {
            deadline: SimDuration::from_millis(50),
            max_attempts: 2,
            base_backoff: SimDuration::from_millis(5),
            max_backoff: SimDuration::from_millis(20),
            failure_threshold: 2,
            open_for: SimDuration::from_secs(10),
            probe_budget: 1,
            close_after: 1,
            degradation: DegradationPolicy::FailClosed,
        }
    }

    #[test]
    fn healthy_callout_passes_through() {
        let clock = SimClock::new();
        let inner = Arc::new(Scripted::new(&clock, SimDuration::from_millis(1)));
        let supervised = SupervisedCallout::new(inner.clone(), &clock, quick_config());
        assert!(supervised.authorize(&request("/O=G/CN=Bo")).is_ok());
        assert_eq!(supervised.breaker_state(), BreakerState::Closed);
        assert_eq!(inner.calls.load(Ordering::SeqCst), 1);
        assert_eq!(supervised.stats(), SupervisionStats::default());
    }

    #[test]
    fn denial_is_not_a_breaker_failure() {
        let clock = SimClock::new();
        let inner = Arc::new(Scripted::new(&clock, SimDuration::from_millis(1)));
        inner.deny.store(true, Ordering::SeqCst);
        let supervised = SupervisedCallout::new(inner.clone(), &clock, quick_config());
        for _ in 0..10 {
            assert!(matches!(
                supervised.authorize(&request("/O=G/CN=Bo")),
                Err(AuthzFailure::Denied(_))
            ));
        }
        assert_eq!(supervised.breaker_state(), BreakerState::Closed);
        assert_eq!(supervised.stats().retries, 0);
    }

    #[test]
    fn retries_then_fails_closed_within_budget() {
        let clock = SimClock::new();
        let inner = Arc::new(Scripted::new(&clock, SimDuration::from_millis(1)));
        inner.broken.store(true, Ordering::SeqCst);
        let config = quick_config();
        let budget = config.decision_budget();
        let supervised = SupervisedCallout::new(inner.clone(), &clock, config);
        let start = clock.now();
        let err = supervised.authorize(&request("/O=G/CN=Bo")).unwrap_err();
        assert!(matches!(err, AuthzFailure::SystemError(_)));
        assert!(clock.now().saturating_since(start) <= budget);
        assert_eq!(inner.calls.load(Ordering::SeqCst), 2, "max_attempts bounds the retries");
        let stats = supervised.stats();
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.degraded, 1);
    }

    #[test]
    fn context_deadline_clamps_the_retry_schedule() {
        let clock = SimClock::new();
        let inner = Arc::new(Scripted::new(&clock, SimDuration::from_millis(1)));
        inner.broken.store(true, Ordering::SeqCst);
        let supervised = SupervisedCallout::new(inner.clone(), &clock, quick_config());
        // 30ms of budget cannot afford a retry (backoff + 50ms deadline),
        // so only the first attempt runs and the decision degrades early.
        let ctx = RequestContext::with_budget(
            Arc::new(clock.clone()),
            crate::AdmissionClass::Interactive,
            SimDuration::from_millis(30),
        );
        let start = clock.now();
        let mut trace = DecisionTrace::detached();
        let err = supervised.authorize_within(&ctx, &request("/O=G/CN=Bo"), &mut trace);
        assert!(matches!(err, Err(AuthzFailure::SystemError(_))), "{err:?}");
        assert!(trace.is_degraded());
        assert_eq!(inner.calls.load(Ordering::SeqCst), 1, "no retry fits a 30ms budget");
        assert_eq!(supervised.stats().retries, 0);
        assert!(
            clock.now().saturating_since(start) <= SimDuration::from_millis(30),
            "the decision must resolve inside the context budget"
        );

        // An already-expired context degrades without touching the inner
        // callout at all.
        clock.advance(SimDuration::from_millis(60));
        let calls_before = inner.calls.load(Ordering::SeqCst);
        let err = supervised.authorize_within(&ctx, &request("/O=G/CN=Bo"), &mut trace);
        assert!(matches!(err, Err(AuthzFailure::SystemError(_))));
        assert_eq!(inner.calls.load(Ordering::SeqCst), calls_before);
    }

    #[test]
    fn unbounded_context_keeps_the_full_retry_schedule() {
        let clock = SimClock::new();
        let inner = Arc::new(Scripted::new(&clock, SimDuration::from_millis(1)));
        inner.broken.store(true, Ordering::SeqCst);
        let supervised = SupervisedCallout::new(inner.clone(), &clock, quick_config());
        let mut trace = DecisionTrace::detached();
        let _ = supervised.authorize_within(
            &RequestContext::unbounded(),
            &request("/O=G/CN=Bo"),
            &mut trace,
        );
        assert_eq!(inner.calls.load(Ordering::SeqCst), 2, "max_attempts still governs");
        assert_eq!(supervised.stats().retries, 1);
    }

    #[test]
    fn decision_budget_is_the_shared_retry_budget_formula() {
        let config = ResilienceConfig::default();
        assert_eq!(
            config.decision_budget(),
            crate::retry_budget(config.deadline, config.max_attempts, config.max_backoff)
        );
    }

    #[test]
    fn breaker_opens_and_rejects_without_calling_inner() {
        let clock = SimClock::new();
        let inner = Arc::new(Scripted::new(&clock, SimDuration::from_millis(1)));
        inner.broken.store(true, Ordering::SeqCst);
        let supervised = SupervisedCallout::new(inner.clone(), &clock, quick_config());
        // failure_threshold = 2 supervised decisions trip it open.
        for _ in 0..2 {
            assert!(supervised.authorize(&request("/O=G/CN=Bo")).is_err());
        }
        assert_eq!(supervised.breaker_state(), BreakerState::Open);
        let calls_when_open = inner.calls.load(Ordering::SeqCst);
        for _ in 0..50 {
            assert!(supervised.authorize(&request("/O=G/CN=Bo")).is_err());
        }
        assert_eq!(
            inner.calls.load(Ordering::SeqCst),
            calls_when_open,
            "open breaker must not touch the callout"
        );
        assert_eq!(supervised.stats().breaker_rejections, 50);
    }

    #[test]
    fn breaker_recovers_through_half_open() {
        let clock = SimClock::new();
        let inner = Arc::new(Scripted::new(&clock, SimDuration::from_millis(1)));
        inner.broken.store(true, Ordering::SeqCst);
        let supervised = SupervisedCallout::new(inner.clone(), &clock, quick_config());
        for _ in 0..2 {
            let _ = supervised.authorize(&request("/O=G/CN=Bo"));
        }
        assert_eq!(supervised.breaker_state(), BreakerState::Open);

        // Recovery: service heals, the open window expires, one probe
        // closes the breaker (close_after = 1).
        inner.broken.store(false, Ordering::SeqCst);
        clock.advance(SimDuration::from_secs(11));
        assert!(supervised.authorize(&request("/O=G/CN=Bo")).is_ok());
        assert_eq!(supervised.breaker_state(), BreakerState::Closed);

        let transitions = supervised.transitions();
        let shape: Vec<(BreakerState, BreakerState)> =
            transitions.iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            shape,
            vec![
                (BreakerState::Closed, BreakerState::Open),
                (BreakerState::Open, BreakerState::HalfOpen),
                (BreakerState::HalfOpen, BreakerState::Closed),
            ]
        );
        let seqs: Vec<u64> = transitions.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
    }

    #[test]
    fn failed_probe_reopens() {
        let clock = SimClock::new();
        let inner = Arc::new(Scripted::new(&clock, SimDuration::from_millis(1)));
        inner.broken.store(true, Ordering::SeqCst);
        let supervised = SupervisedCallout::new(inner.clone(), &clock, quick_config());
        for _ in 0..2 {
            let _ = supervised.authorize(&request("/O=G/CN=Bo"));
        }
        clock.advance(SimDuration::from_secs(11));
        // Still broken: the probe fails and the breaker reopens.
        assert!(supervised.authorize(&request("/O=G/CN=Bo")).is_err());
        assert_eq!(supervised.breaker_state(), BreakerState::Open);
    }

    #[test]
    fn slow_responses_count_as_timeouts() {
        let clock = SimClock::new();
        // Inner latency 80ms > 50ms deadline: every answer is discarded.
        let inner = Arc::new(Scripted::new(&clock, SimDuration::from_millis(80)));
        let supervised = SupervisedCallout::new(inner.clone(), &clock, quick_config());
        let err = supervised.authorize(&request("/O=G/CN=Bo")).unwrap_err();
        assert!(matches!(err, AuthzFailure::SystemError(_)), "{err:?}");
        assert_eq!(supervised.stats().timeouts, 2, "both attempts timed out");
    }

    #[test]
    fn fail_open_advisory_permits_with_degraded_mark() {
        let clock = SimClock::new();
        let inner = Arc::new(Scripted::new(&clock, SimDuration::from_millis(1)));
        inner.broken.store(true, Ordering::SeqCst);
        let mut config = quick_config();
        config.degradation = DegradationPolicy::FailOpenAdvisory;
        let supervised = SupervisedCallout::new(inner, &clock, config);
        let mut trace = DecisionTrace::detached();
        assert!(supervised
            .authorize_within(&RequestContext::unbounded(), &request("/O=G/CN=Bo"), &mut trace)
            .is_ok());
        assert!(trace.is_degraded());
        assert_eq!(supervised.stats().fail_open, 1);
    }

    #[test]
    fn serve_stale_answers_remembered_requests_only() {
        let clock = SimClock::new();
        let inner = Arc::new(Scripted::new(&clock, SimDuration::from_millis(1)));
        let mut config = quick_config();
        config.degradation = DegradationPolicy::ServeStale { ttl: SimDuration::from_secs(60) };
        let supervised = SupervisedCallout::new(inner.clone(), &clock, config);

        // Warm the store with one permitted request.
        assert!(supervised.authorize(&request("/O=G/CN=Bo")).is_ok());

        inner.broken.store(true, Ordering::SeqCst);
        let mut trace = DecisionTrace::detached();
        assert!(
            supervised
                .authorize_within(&RequestContext::unbounded(), &request("/O=G/CN=Bo"), &mut trace)
                .is_ok(),
            "remembered request must be served stale"
        );
        assert!(trace.is_degraded());
        assert_eq!(supervised.stats().stale_served, 1);

        // A never-seen request has nothing to serve: fail closed.
        assert!(matches!(
            supervised.authorize(&request("/O=G/CN=Eve")),
            Err(AuthzFailure::SystemError(_))
        ));
    }

    #[test]
    fn serve_stale_respects_ttl_and_generation() {
        let clock = SimClock::new();
        let inner = Arc::new(Scripted::new(&clock, SimDuration::from_millis(1)));
        let mut config = quick_config();
        config.degradation = DegradationPolicy::ServeStale { ttl: SimDuration::from_secs(5) };
        config.failure_threshold = u32::MAX; // keep the breaker out of the way
        let supervised = SupervisedCallout::new(inner.clone(), &clock, config);

        assert!(supervised.authorize(&request("/O=G/CN=Bo")).is_ok());
        inner.broken.store(true, Ordering::SeqCst);

        // Within TTL: served.
        assert!(supervised.authorize(&request("/O=G/CN=Bo")).is_ok());
        // Beyond TTL: refused.
        clock.advance(SimDuration::from_secs(6));
        assert!(supervised.authorize(&request("/O=G/CN=Bo")).is_err());

        // Re-warm, then invalidate via policy_updated: refused again.
        inner.broken.store(false, Ordering::SeqCst);
        assert!(supervised.authorize(&request("/O=G/CN=Bo")).is_ok());
        inner.broken.store(true, Ordering::SeqCst);
        supervised.policy_updated();
        assert!(supervised.authorize(&request("/O=G/CN=Bo")).is_err());
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let clock = SimClock::new();
        let inner = Arc::new(Scripted::new(&clock, SimDuration::from_millis(1)));
        let config = ResilienceConfig::default();
        let a = SupervisedCallout::new(inner.clone(), &clock, config.clone());
        let b = SupervisedCallout::new(inner, &clock, config.clone());
        for call in 0..20u64 {
            for retry in 1..=4u32 {
                let d = a.backoff(call, retry);
                assert_eq!(d, b.backoff(call, retry), "same name+call+retry must agree");
                let cap = config
                    .max_backoff
                    .as_micros()
                    .min(config.base_backoff.as_micros() << (retry - 1));
                assert!(d.as_micros() >= cap / 2 && d.as_micros() <= cap, "{d} vs cap {cap}");
            }
        }
    }

    #[test]
    fn config_parses_from_callout_options() {
        let mut options = HashMap::new();
        assert_eq!(ResilienceConfig::from_options(&options), Ok(None));

        options.insert("deadline_ms".into(), "25".into());
        options.insert("attempts".into(), "4".into());
        options.insert("degrade".into(), "serve-stale".into());
        options.insert("stale_ttl_ms".into(), "9000".into());
        let config = ResilienceConfig::from_options(&options).unwrap().unwrap();
        assert_eq!(config.deadline, SimDuration::from_millis(25));
        assert_eq!(config.max_attempts, 4);
        assert_eq!(
            config.degradation,
            DegradationPolicy::ServeStale { ttl: SimDuration::from_millis(9000) }
        );

        options.insert("degrade".into(), "shrug".into());
        assert!(ResilienceConfig::from_options(&options).is_err());
        options.insert("degrade".into(), "fail-open".into());
        assert!(
            ResilienceConfig::from_options(&options).is_err(),
            "stale_ttl_ms without serve-stale must be rejected"
        );
        options.remove("stale_ttl_ms");
        let config = ResilienceConfig::from_options(&options).unwrap().unwrap();
        assert_eq!(config.degradation, DegradationPolicy::FailOpenAdvisory);
        options.insert("attempts".into(), "zero".into());
        assert!(ResilienceConfig::from_options(&options).is_err());
        options.insert("attempts".into(), "0".into());
        assert!(ResilienceConfig::from_options(&options).is_err());
    }

    #[test]
    fn supervision_report_surfaces_through_the_trait() {
        let clock = SimClock::new();
        let inner = Arc::new(Scripted::new(&clock, SimDuration::from_millis(1)));
        let supervised: Arc<dyn AuthorizationCallout> =
            Arc::new(SupervisedCallout::new(inner.clone(), &clock, quick_config()));
        let report = supervised.supervision_report().expect("supervised callouts report");
        assert_eq!(report.state, BreakerState::Closed);
        assert!(report.transitions.is_empty());
        // Unsupervised callouts do not.
        assert!(inner.supervision_report().is_none());
    }

    /// Inner callout tracking how many threads are inside it at once.
    struct Concurrency {
        current: AtomicUsize,
        max: AtomicUsize,
        broken: std::sync::atomic::AtomicBool,
        calls: AtomicUsize,
    }

    impl Concurrency {
        fn new() -> Concurrency {
            Concurrency {
                current: AtomicUsize::new(0),
                max: AtomicUsize::new(0),
                broken: Default::default(),
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl AuthorizationCallout for Concurrency {
        fn name(&self) -> &str {
            "concurrency"
        }
        fn authorize(&self, _: &AuthzRequest) -> Result<(), AuthzFailure> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let inside = self.current.fetch_add(1, Ordering::SeqCst) + 1;
            self.max.fetch_max(inside, Ordering::SeqCst);
            // Real (not simulated) dwell time, so probes genuinely overlap.
            std::thread::sleep(std::time::Duration::from_millis(2));
            self.current.fetch_sub(1, Ordering::SeqCst);
            if self.broken.load(Ordering::SeqCst) {
                Err(AuthzFailure::SystemError("down".into()))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn half_open_probe_budget_holds_under_parallel_deciders() {
        let clock = SimClock::new();
        let inner = Arc::new(Concurrency::new());
        let config = ResilienceConfig {
            max_attempts: 1,
            failure_threshold: 1,
            open_for: SimDuration::from_secs(10),
            probe_budget: 2,
            close_after: 1000, // stay half-open for the whole test
            degradation: DegradationPolicy::FailOpenAdvisory,
            ..ResilienceConfig::default()
        };
        let supervised = Arc::new(SupervisedCallout::new(inner.clone(), &clock, config));

        // Trip the breaker, heal the service, expire the open window.
        inner.broken.store(true, Ordering::SeqCst);
        let _ = supervised.authorize(&request("/O=G/CN=Bo"));
        assert_eq!(supervised.breaker_state(), BreakerState::Open);
        inner.broken.store(false, Ordering::SeqCst);
        clock.advance(SimDuration::from_secs(11));

        let outcomes: Vec<bool> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let supervised = Arc::clone(&supervised);
                    scope.spawn(move || supervised.authorize(&request("/O=G/CN=Bo")).is_ok())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // No decision lost: every caller got an answer, and fail-open
        // turns breaker rejections into permits too.
        assert_eq!(outcomes.len(), 8);
        assert!(outcomes.iter().all(|ok| *ok));
        assert!(
            inner.max.load(Ordering::SeqCst) <= 2,
            "probe budget exceeded: {} concurrent probes",
            inner.max.load(Ordering::SeqCst)
        );
        assert_eq!(supervised.breaker_state(), BreakerState::HalfOpen);
    }

    #[test]
    fn no_decision_lost_through_a_full_breaker_cycle() {
        let clock = SimClock::new();
        let inner = Arc::new(Concurrency::new());
        let config = ResilienceConfig {
            max_attempts: 1,
            failure_threshold: 2,
            open_for: SimDuration::from_secs(10),
            probe_budget: 2,
            close_after: 1,
            degradation: DegradationPolicy::FailClosed,
            ..ResilienceConfig::default()
        };
        let supervised = Arc::new(SupervisedCallout::new(inner.clone(), &clock, config));

        let hammer = |n: usize| -> (usize, usize) {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .map(|_| {
                        let supervised = Arc::clone(&supervised);
                        scope.spawn(move || supervised.authorize(&request("/O=G/CN=Bo")).is_ok())
                    })
                    .collect();
                let outcomes: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
                let permits = outcomes.iter().filter(|ok| **ok).count();
                (permits, outcomes.len() - permits)
            })
        };

        // Outage under parallel load: every decision resolves (permits +
        // failures account for every request) and the breaker ends open.
        inner.broken.store(true, Ordering::SeqCst);
        let (permits, failures) = hammer(8);
        assert_eq!(permits + failures, 8);
        assert_eq!(permits, 0, "fail-closed outage must not permit");
        assert_eq!(supervised.breaker_state(), BreakerState::Open);

        // Recovery under parallel load: window expires, service healthy;
        // probes close the breaker and nobody's decision goes missing.
        inner.broken.store(false, Ordering::SeqCst);
        clock.advance(SimDuration::from_secs(11));
        let (permits, failures) = hammer(8);
        assert_eq!(permits + failures, 8);
        assert!(permits >= 1, "at least the successful probe must permit");
        assert_eq!(supervised.breaker_state(), BreakerState::Closed);
        // Once closed, everything flows again.
        let (permits, failures) = hammer(4);
        assert_eq!((permits, failures), (4, 0));
    }

    mod serve_stale_properties {
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Op {
            /// Advance the shared clock.
            Advance(u64),
            /// Decide subject `i` with the inner callout healthy.
            Healthy(usize),
            /// Decide subject `i` during a 100% outage.
            Outage(usize),
            /// Invalidate remembered decisions (policy generation bump).
            PolicyUpdate,
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u64..8_000).prop_map(Op::Advance),
                (0usize..3).prop_map(Op::Healthy),
                (0usize..3).prop_map(Op::Outage),
                Just(Op::PolicyUpdate),
            ]
        }

        const TTL_MS: u64 = 5_000;

        proptest! {
            /// ServeStale never serves an entry older than the TTL or
            /// remembered under an older policy generation — checked
            /// against a shadow model of the store.
            #[test]
            fn stale_answers_are_always_fresh_and_current(ops in prop::collection::vec(op(), 1..60)) {
                let clock = SimClock::new();
                // Zero inner latency and a single attempt: an outage
                // decision does not advance the clock, so the shadow
                // model's freshness check matches the supervisor's.
                let inner = Arc::new(Scripted::new(&clock, SimDuration::ZERO));
                let config = ResilienceConfig {
                    max_attempts: 1,
                    failure_threshold: u32::MAX, // breaker stays closed
                    degradation: DegradationPolicy::ServeStale {
                        ttl: SimDuration::from_millis(TTL_MS),
                    },
                    ..ResilienceConfig::default()
                };
                let supervised = SupervisedCallout::new(inner.clone(), &clock, config);

                let subjects = ["/O=G/CN=A", "/O=G/CN=B", "/O=G/CN=C"];
                // digest → (remembered_at, generation), mirroring the store.
                let mut shadow: HashMap<usize, (SimTime, u64)> = HashMap::new();
                let mut generation: u64 = 0;

                for op in ops {
                    match op {
                        Op::Advance(ms) => {
                            clock.advance(SimDuration::from_millis(ms));
                        }
                        Op::PolicyUpdate => {
                            supervised.policy_updated();
                            generation += 1;
                        }
                        Op::Healthy(i) => {
                            inner.broken.store(false, Ordering::SeqCst);
                            prop_assert!(supervised.authorize(&request(subjects[i])).is_ok());
                            shadow.insert(i, (clock.now(), generation));
                        }
                        Op::Outage(i) => {
                            inner.broken.store(true, Ordering::SeqCst);
                            let before = supervised.stats().stale_served;
                            let outcome = supervised.authorize(&request(subjects[i]));
                            let served = supervised.stats().stale_served > before;
                            let expect_serve = shadow.get(&i).is_some_and(|&(at, gen)| {
                                gen == generation
                                    && clock.now().saturating_since(at)
                                        <= SimDuration::from_millis(TTL_MS)
                            });
                            prop_assert_eq!(
                                served, expect_serve,
                                "shadow model disagrees: entry {:?}, now {}", shadow.get(&i), clock.now()
                            );
                            prop_assert_eq!(outcome.is_ok(), expect_serve);
                            if !expect_serve {
                                prop_assert!(matches!(outcome, Err(AuthzFailure::SystemError(_))));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn telemetry_counts_retries_timeouts_and_transitions() {
        let clock = SimClock::new();
        let inner = Arc::new(Scripted::new(&clock, SimDuration::from_millis(1)));
        inner.broken.store(true, Ordering::SeqCst);
        let supervised = SupervisedCallout::new(inner.clone(), &clock, quick_config());
        let registry = Arc::new(TelemetryRegistry::new());
        supervised.attach_telemetry(&registry);
        for _ in 0..2 {
            let _ = supervised.authorize(&request("/O=G/CN=Bo"));
        }
        assert_eq!(registry.counter(Stage::Callout, labels::RETRY), 2);
        assert_eq!(registry.counter(Stage::Callout, labels::BREAKER_OPEN), 1);
        assert_eq!(registry.counter(Stage::Callout, labels::DEGRADED), 2);

        inner.broken.store(false, Ordering::SeqCst);
        clock.advance(SimDuration::from_secs(11));
        let _ = supervised.authorize(&request("/O=G/CN=Bo"));
        assert_eq!(registry.counter(Stage::Callout, labels::BREAKER_HALF_OPEN), 1);
        assert_eq!(registry.counter(Stage::Callout, labels::BREAKER_CLOSED), 1);
    }
}
