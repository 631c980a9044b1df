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
use gridauthz_core::{AuthorizationCallout, AuthzFailure, AuthzRequest};

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

    fn healthy_decision(&self, request: &AuthzRequest) -> Result<(), AuthzFailure> {
        match &self.inner {
            Some(inner) => inner.authorize(request),
            None => Ok(()),
        }
    }
}

impl AuthorizationCallout for FlakyCallout {
    fn name(&self) -> &str {
        &self.name
    }

    fn authorize(&self, request: &AuthzRequest) -> Result<(), AuthzFailure> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        match self.active_fault(self.clock.now()) {
            None => {
                self.clock.advance(self.base_latency);
                self.healthy_decision(request)
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
                self.healthy_decision(request)
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
    use gridauthz_credential::DistinguishedName;

    fn request() -> AuthzRequest {
        AuthzRequest::start(
            "/O=G/CN=Bo".parse::<DistinguishedName>().unwrap(),
            gridauthz_rsl::parse("&(executable = x)").unwrap().as_conjunction().unwrap().clone(),
        )
    }

    #[test]
    fn faults_follow_the_simulated_timeline() {
        let clock = SimClock::new();
        let flaky = FlakyCallout::new("flaky", &clock)
            .with_base_latency(SimDuration::from_millis(2))
            .fail_between(SimTime::from_secs(10), SimTime::from_secs(20));

        // t=0: healthy, advances by base latency.
        assert!(flaky.authorize(&request()).is_ok());
        assert_eq!(clock.now(), SimTime::from_micros(2_000));

        // Inside the window: fails.
        clock.advance_to(SimTime::from_secs(10));
        assert!(matches!(flaky.authorize(&request()), Err(AuthzFailure::SystemError(_))));

        // Past the window: healthy again.
        clock.advance_to(SimTime::from_secs(20));
        assert!(flaky.authorize(&request()).is_ok());
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
        assert!(flaky.authorize(&request()).is_ok());
        assert_eq!(clock.now(), SimTime::from_micros(501_000));

        // Hang: error after the full transport wait.
        clock.advance_to(SimTime::from_secs(2));
        let before = clock.now();
        assert!(flaky.authorize(&request()).is_err());
        assert_eq!(clock.now().saturating_since(before), SimDuration::from_secs(5));
    }

    #[test]
    fn inner_callout_decides_when_healthy() {
        struct DenyAll;
        impl AuthorizationCallout for DenyAll {
            fn name(&self) -> &str {
                "deny"
            }
            fn authorize(&self, _: &AuthzRequest) -> Result<(), AuthzFailure> {
                Err(AuthzFailure::Denied(gridauthz_core::DenyReason::NoApplicableGrant))
            }
        }
        let clock = SimClock::new();
        let flaky = FlakyCallout::new("flaky", &clock).with_inner(Arc::new(DenyAll));
        assert!(matches!(flaky.authorize(&request()), Err(AuthzFailure::Denied(_))));
    }
}
