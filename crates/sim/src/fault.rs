//! Fault injection for callout resilience experiments.
//!
//! [`FlakyCallout`] is an [`AuthorizationCallout`] whose behaviour is
//! scripted over simulated time: outside any fault window it permits
//! (or delegates to an inner callout) after its base latency; inside a
//! window it fails, responds slowly, or hangs. Because faults are keyed
//! to [`SimTime`] windows rather than call counts, scenarios read as a
//! timeline — "the policy server is down from t=10s to t=40s" — and the
//! supervised wrapper's breaker can be driven through a full
//! outage-and-recovery cycle deterministically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use gridauthz_clock::{SimClock, SimDuration, SimTime};
use gridauthz_core::{
    AuthorizationCallout, AuthzFailure, AuthzRequest, DecisionTrace, RequestContext,
};

/// What the callout does inside a fault window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Respond promptly (base latency) with a system error.
    Fail,
    /// Respond *correctly* but only after the extra delay — a supervisor
    /// with a shorter deadline discards the answer as a timeout.
    Slow(SimDuration),
    /// No answer until the given wait has elapsed, then a system error —
    /// models a black-holed connection running into its transport
    /// timeout.
    Hang(SimDuration),
}

/// One scripted fault interval: `[from, until)` in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First instant the fault is active.
    pub from: SimTime,
    /// First instant the fault is over.
    pub until: SimTime,
    /// Behaviour while active.
    pub kind: FaultKind,
}

/// A scriptable flaky callout (see module docs). Every call advances the
/// shared clock by the latency it models, so supervision deadlines
/// measured against the same clock observe it.
pub struct FlakyCallout {
    name: String,
    clock: SimClock,
    base_latency: SimDuration,
    windows: RwLock<Vec<FaultWindow>>,
    inner: Option<Arc<dyn AuthorizationCallout>>,
    calls: AtomicU64,
    faulted: AtomicU64,
}

impl FlakyCallout {
    /// A healthy callout named `name`, permitting everything after a
    /// 1 ms base latency. Add fault windows with the `*_between`
    /// builders.
    pub fn new(name: impl Into<String>, clock: &SimClock) -> FlakyCallout {
        FlakyCallout {
            name: name.into(),
            clock: clock.clone(),
            base_latency: SimDuration::from_millis(1),
            windows: RwLock::new(Vec::new()),
            inner: None,
            calls: AtomicU64::new(0),
            faulted: AtomicU64::new(0),
        }
    }

    /// Healthy-path latency per call.
    #[must_use]
    pub fn with_base_latency(mut self, latency: SimDuration) -> FlakyCallout {
        self.base_latency = latency;
        self
    }

    /// Delegates healthy (and `Slow`-window) decisions to `inner`
    /// instead of blanket-permitting.
    #[must_use]
    pub fn with_inner(mut self, inner: Arc<dyn AuthorizationCallout>) -> FlakyCallout {
        self.inner = Some(inner);
        self
    }

    /// Scripts a [`FaultKind::Fail`] window over `[from, until)`.
    #[must_use]
    pub fn fail_between(self, from: SimTime, until: SimTime) -> FlakyCallout {
        self.window(FaultWindow { from, until, kind: FaultKind::Fail })
    }

    /// Scripts a [`FaultKind::Slow`] window over `[from, until)`.
    #[must_use]
    pub fn slow_between(self, from: SimTime, until: SimTime, extra: SimDuration) -> FlakyCallout {
        self.window(FaultWindow { from, until, kind: FaultKind::Slow(extra) })
    }

    /// Scripts a [`FaultKind::Hang`] window over `[from, until)`.
    #[must_use]
    pub fn hang_between(self, from: SimTime, until: SimTime, wait: SimDuration) -> FlakyCallout {
        self.window(FaultWindow { from, until, kind: FaultKind::Hang(wait) })
    }

    fn window(self, window: FaultWindow) -> FlakyCallout {
        self.windows.write().unwrap_or_else(|e| e.into_inner()).push(window);
        self
    }

    /// Total calls observed.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Calls answered under an active fault window.
    pub fn faulted(&self) -> u64 {
        self.faulted.load(Ordering::Relaxed)
    }

    fn active_fault(&self, now: SimTime) -> Option<FaultKind> {
        let windows = self.windows.read().unwrap_or_else(|e| e.into_inner());
        windows.iter().find(|w| w.from <= now && now < w.until).map(|w| w.kind)
    }

    fn healthy_decision(
        &self,
        ctx: &RequestContext,
        request: &AuthzRequest,
        trace: Option<&mut DecisionTrace>,
    ) -> Result<(), AuthzFailure> {
        match &self.inner {
            Some(inner) => inner.authorize_within(ctx, request, trace),
            None => Ok(()),
        }
    }
}

impl AuthorizationCallout for FlakyCallout {
    fn name(&self) -> &str {
        &self.name
    }

    /// Each call is one scripted call, so a batch stays element-wise
    /// (the default): every element meets the fault windows on its own.
    fn authorize_within(
        &self,
        ctx: &RequestContext,
        request: &AuthzRequest,
        trace: Option<&mut DecisionTrace>,
    ) -> Result<(), AuthzFailure> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        match self.active_fault(self.clock.now()) {
            None => {
                self.clock.advance(self.base_latency);
                self.healthy_decision(ctx, request, trace)
            }
            Some(FaultKind::Fail) => {
                self.faulted.fetch_add(1, Ordering::Relaxed);
                self.clock.advance(self.base_latency);
                Err(AuthzFailure::SystemError(format!(
                    "{}: injected fault (policy server unreachable)",
                    self.name
                )))
            }
            Some(FaultKind::Slow(extra)) => {
                self.faulted.fetch_add(1, Ordering::Relaxed);
                self.clock.advance(self.base_latency + extra);
                self.healthy_decision(ctx, request, trace)
            }
            Some(FaultKind::Hang(wait)) => {
                self.faulted.fetch_add(1, Ordering::Relaxed);
                self.clock.advance(wait);
                Err(AuthzFailure::SystemError(format!(
                    "{}: injected hang ran into transport timeout",
                    self.name
                )))
            }
        }
    }

    fn policy_updated(&self) {
        if let Some(inner) = &self.inner {
            inner.policy_updated();
        }
    }
}

impl std::fmt::Debug for FlakyCallout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlakyCallout")
            .field("name", &self.name)
            .field("windows", &*self.windows.read().unwrap_or_else(|e| e.into_inner()))
            .field("calls", &self.calls())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridauthz_core::{DegradationPolicy, ResilienceConfig, SupervisedCallout};
    use gridauthz_credential::DistinguishedName;

    fn request() -> AuthzRequest {
        request_from("/O=G/CN=Bo")
    }

    fn request_from(subject: &str) -> AuthzRequest {
        AuthzRequest::start(
            subject.parse::<DistinguishedName>().unwrap(),
            gridauthz_rsl::parse("&(executable = x)").unwrap().as_conjunction().unwrap().clone(),
        )
    }

    /// Denies one subject's requests and permits the rest.
    struct DenySubject(DistinguishedName);

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
            if *request.subject() == self.0 {
                Err(AuthzFailure::Denied(gridauthz_core::DenyReason::NoApplicableGrant))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn supervised_batch_keeps_a_denial_when_a_fault_opens_mid_batch() {
        let clock = SimClock::new();
        // Eve is decided at t=0, before the window opens; Bo at t=1 ms,
        // inside it, on every attempt.
        let flaky = Arc::new(
            FlakyCallout::new("flaky", &clock)
                .with_inner(Arc::new(DenySubject("/O=G/CN=Eve".parse().unwrap())))
                .fail_between(SimTime::from_micros(1_000), SimTime::from_secs(60)),
        );
        let config = ResilienceConfig {
            degradation: DegradationPolicy::FailOpenAdvisory,
            ..ResilienceConfig::default()
        };
        let attempts = u64::from(config.max_attempts);
        let supervised = SupervisedCallout::new(flaky.clone(), &clock, config);
        let requests = [request_from("/O=G/CN=Eve"), request_from("/O=G/CN=Bo")];
        let mut traces = [DecisionTrace::detached(), DecisionTrace::detached()];
        let outcomes =
            supervised.authorize_batch_within(&RequestContext::unbounded(), &requests, &mut traces);
        assert!(matches!(outcomes[0], Err(AuthzFailure::Denied(_))), "{outcomes:?}");
        assert!(outcomes[1].is_ok(), "Bo's outage degrades open: {outcomes:?}");
        assert!(!traces[0].is_degraded() && traces[1].is_degraded());
        // A denial is final: Eve is presented once, Bo on every attempt.
        assert_eq!(flaky.calls(), 1 + attempts);
    }

    #[test]
    fn supervised_sweep_longer_than_one_deadline_does_not_time_out() {
        let clock = SimClock::new();
        // 1 ms per element against a 50 ms per-request deadline.
        let flaky = Arc::new(FlakyCallout::new("flaky", &clock));
        let config = ResilienceConfig {
            deadline: SimDuration::from_millis(50),
            ..ResilienceConfig::default()
        };
        let supervised = SupervisedCallout::new(flaky.clone(), &clock, config);
        let requests: Vec<AuthzRequest> = (0..80).map(|_| request()).collect();
        let mut traces: Vec<DecisionTrace> = (0..80).map(|_| DecisionTrace::detached()).collect();
        let outcomes =
            supervised.authorize_batch_within(&RequestContext::unbounded(), &requests, &mut traces);
        assert!(outcomes.iter().all(Result::is_ok), "{outcomes:?}");
        let stats = supervised.stats();
        assert_eq!((stats.timeouts, stats.retries, stats.degraded), (0, 0, 0));
        assert_eq!(flaky.calls(), 80);
    }

    #[test]
    fn faults_follow_the_simulated_timeline() {
        let clock = SimClock::new();
        let flaky = FlakyCallout::new("flaky", &clock)
            .with_base_latency(SimDuration::from_millis(2))
            .fail_between(SimTime::from_secs(10), SimTime::from_secs(20));

        // t=0: healthy, advances by base latency.
        assert!(flaky.authorize_within(&RequestContext::unbounded(), &request(), None).is_ok());
        assert_eq!(clock.now(), SimTime::from_micros(2_000));

        // Inside the window: fails.
        clock.advance_to(SimTime::from_secs(10));
        assert!(matches!(
            flaky.authorize_within(&RequestContext::unbounded(), &request(), None),
            Err(AuthzFailure::SystemError(_))
        ));

        // Past the window: healthy again.
        clock.advance_to(SimTime::from_secs(20));
        assert!(flaky.authorize_within(&RequestContext::unbounded(), &request(), None).is_ok());
        assert_eq!(flaky.calls(), 3);
        assert_eq!(flaky.faulted(), 1);
    }

    #[test]
    fn slow_and_hang_cost_simulated_time() {
        let clock = SimClock::new();
        let flaky = FlakyCallout::new("flaky", &clock)
            .with_base_latency(SimDuration::from_millis(1))
            .slow_between(SimTime::EPOCH, SimTime::from_secs(1), SimDuration::from_millis(500))
            .hang_between(SimTime::from_secs(2), SimTime::from_secs(3), SimDuration::from_secs(5));

        // Slow: correct answer, 501 ms of simulated latency.
        assert!(flaky.authorize_within(&RequestContext::unbounded(), &request(), None).is_ok());
        assert_eq!(clock.now(), SimTime::from_micros(501_000));

        // Hang: error after the full transport wait.
        clock.advance_to(SimTime::from_secs(2));
        let before = clock.now();
        assert!(flaky.authorize_within(&RequestContext::unbounded(), &request(), None).is_err());
        assert_eq!(clock.now().saturating_since(before), SimDuration::from_secs(5));
    }

    #[test]
    fn inner_callout_decides_when_healthy() {
        struct DenyAll;
        impl AuthorizationCallout for DenyAll {
            fn name(&self) -> &str {
                "deny"
            }
            fn authorize_within(
                &self,
                _: &RequestContext,
                _: &AuthzRequest,
                _: Option<&mut DecisionTrace>,
            ) -> Result<(), AuthzFailure> {
                Err(AuthzFailure::Denied(gridauthz_core::DenyReason::NoApplicableGrant))
            }
        }
        let clock = SimClock::new();
        let flaky = FlakyCallout::new("flaky", &clock).with_inner(Arc::new(DenyAll));
        assert!(matches!(
            flaky.authorize_within(&RequestContext::unbounded(), &request(), None),
            Err(AuthzFailure::Denied(_))
        ));
    }
}
