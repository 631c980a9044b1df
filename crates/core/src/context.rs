//! The unified request lifecycle context.
//!
//! Before this module, every layer of the pipeline kept its own private
//! notion of time and capacity: the callout supervisor had a standalone
//! `decision_budget()`, the TCP front-end had ad-hoc idle timeouts, the
//! bench harness hard-coded socket timeouts, and nothing connected a
//! front-end frame to the audit record it eventually produced. A
//! [`RequestContext`] is the one value threaded through the whole stack
//! — front-end → wire decode → gatekeeper → engine → callouts → audit —
//! carrying:
//!
//! * an **absolute deadline** measured against the clock that stamped it
//!   (the front-end's wall clock for real traffic, the shared
//!   [`SimClock`](gridauthz_clock::SimClock) in the testbed), so
//!   "remaining time" means the same thing at every layer;
//! * a **trace id**, allocated once at frame-assembly time and reused by
//!   the decision trace and the audit record, joining the front-end,
//!   engine, callout and audit views of one request;
//! * an **admission class** ([`AdmissionClass`]) separating interactive
//!   submissions from batch/management fan-outs, with per-class default
//!   budgets and per-class admission-queue lanes at the front-end.
//!
//! A context without a clock ([`RequestContext::unbounded`]) never
//! expires: every pre-existing call path that has no deadline to
//! propagate gets exactly the old behavior.

use std::fmt;
use std::sync::Arc;

use gridauthz_clock::{SimDuration, SimTime, TimeSource};

/// Which admission-queue lane (and default time budget) a request gets.
///
/// The paper's workload splits naturally in two: a user submitting a job
/// waits synchronously on the answer, while VO-wide management sweeps
/// (cancel fan-outs, status polls) are throughput work that tolerates
/// queueing. Under overload the front-end sheds batch work first and
/// keeps interactive latency bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdmissionClass {
    /// A user is waiting: short budget, priority lane.
    Interactive,
    /// Management / fan-out work: long budget, sheds first.
    Batch,
}

/// Ceiling on the time budget a client may request via the wire
/// `budget-micros` header.
///
/// Without a ceiling a client could mint an effectively-unbounded
/// deadline (`budget-micros: 18446744073709551615`) and hold its worker
/// (and every downstream layer honoring the deadline) for the life of
/// the connection — the worker-pinning bug re-introduced through the
/// front door. Five minutes comfortably covers the batch class's 30 s
/// default plus generous queueing; see
/// [`clamp_client_budget`].
pub const MAX_CLIENT_BUDGET: SimDuration = SimDuration::from_mins(5);

/// Clamps a client-supplied budget to [`MAX_CLIENT_BUDGET`].
///
/// The one frame parse in `gram::wire` runs every `budget-micros`
/// header through this before the front-end stamps a deadline.
#[must_use]
pub fn clamp_client_budget(budget: SimDuration) -> SimDuration {
    budget.min(MAX_CLIENT_BUDGET)
}

impl AdmissionClass {
    /// Stable lowercase name (wire header value and metric-label
    /// component).
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            AdmissionClass::Interactive => "interactive",
            AdmissionClass::Batch => "batch",
        }
    }

    /// Parses the wire header value produced by [`as_str`](Self::as_str).
    #[must_use]
    pub fn parse(value: &str) -> Option<AdmissionClass> {
        match value {
            "interactive" => Some(AdmissionClass::Interactive),
            "batch" => Some(AdmissionClass::Batch),
            _ => None,
        }
    }

    /// The default end-to-end budget for this class, used when the
    /// request carries no explicit `budget-micros` header.
    #[must_use]
    pub const fn default_budget(self) -> SimDuration {
        match self {
            AdmissionClass::Interactive => SimDuration::from_secs(2),
            AdmissionClass::Batch => SimDuration::from_secs(30),
        }
    }
}

impl fmt::Display for AdmissionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a request was refused without being served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Its admission lane was at its depth bound when it arrived.
    QueueFull,
    /// Its deadline expired while it waited in the queue.
    DeadlineExpired,
    /// The front-end was stopping and drained it unserved.
    Shutdown,
}

impl ShedReason {
    /// Stable lowercase name (audit-note component).
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::DeadlineExpired => "deadline-expired",
            ShedReason::Shutdown => "shutdown",
        }
    }
}

impl fmt::Display for ShedReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Upper bound on the time a bounded-retry operation may consume when
/// every attempt runs to its per-attempt deadline: all attempts at the
/// deadline plus every backoff at its ceiling.
///
/// This is the budget formula behind
/// [`ResilienceConfig::decision_budget`](crate::ResilienceConfig::decision_budget).
#[must_use]
pub fn retry_budget(
    per_attempt: SimDuration,
    attempts: u32,
    max_backoff: SimDuration,
) -> SimDuration {
    let attempts = u64::from(attempts.max(1));
    let work = per_attempt.as_micros().saturating_mul(attempts);
    let backoffs = max_backoff.as_micros().saturating_mul(attempts - 1);
    SimDuration::from_micros(work.saturating_add(backoffs))
}

/// The typed per-request lifecycle value threaded through the stack.
///
/// Cheap to clone (one `Arc` bump). See the module docs for the fields'
/// roles.
#[derive(Clone)]
pub struct RequestContext {
    /// The clock the deadline was stamped against — `None` means the
    /// context is unbounded and every deadline query answers "forever".
    clock: Option<Arc<dyn TimeSource>>,
    deadline: SimTime,
    trace_id: u64,
    class: AdmissionClass,
    /// Time spent queued at the front-end before a worker picked the
    /// request up; recorded as the [`Stage::Admission`] span.
    ///
    /// [`Stage::Admission`]: gridauthz_telemetry::Stage::Admission
    queue_wait: SimDuration,
}

impl RequestContext {
    /// A context with no deadline, no trace id and the interactive
    /// class — the behavior of every call path that predates contexts.
    #[must_use]
    pub fn unbounded() -> RequestContext {
        RequestContext {
            clock: None,
            deadline: SimTime::MAX,
            trace_id: 0,
            class: AdmissionClass::Interactive,
            queue_wait: SimDuration::ZERO,
        }
    }

    /// A context for `class` with its default budget, measured against
    /// `clock` from now.
    #[must_use]
    pub fn new(clock: Arc<dyn TimeSource>, class: AdmissionClass) -> RequestContext {
        let budget = class.default_budget();
        RequestContext::with_budget(clock, class, budget)
    }

    /// A context whose deadline is `budget` from now on `clock`.
    #[must_use]
    pub fn with_budget(
        clock: Arc<dyn TimeSource>,
        class: AdmissionClass,
        budget: SimDuration,
    ) -> RequestContext {
        let deadline = clock.deadline_after(budget);
        RequestContext::with_deadline(clock, class, deadline)
    }

    /// A context with an explicit absolute deadline on `clock`.
    /// [`SimTime::MAX`] means "never expires".
    #[must_use]
    pub fn with_deadline(
        clock: Arc<dyn TimeSource>,
        class: AdmissionClass,
        deadline: SimTime,
    ) -> RequestContext {
        RequestContext {
            clock: Some(clock),
            deadline,
            trace_id: 0,
            class,
            queue_wait: SimDuration::ZERO,
        }
    }

    /// Builder-style trace-id assignment (the front-end allocates the id
    /// from the telemetry registry at frame time).
    #[must_use]
    pub fn with_trace_id(mut self, trace_id: u64) -> RequestContext {
        self.trace_id = trace_id;
        self
    }

    /// The end-to-end trace id (0 = unassigned).
    #[must_use]
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The admission class.
    #[must_use]
    pub fn class(&self) -> AdmissionClass {
        self.class
    }

    /// The absolute deadline ([`SimTime::MAX`] = never).
    #[must_use]
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }

    /// True when this context carries a real (finite) deadline.
    #[must_use]
    pub fn has_deadline(&self) -> bool {
        self.clock.is_some() && self.deadline != SimTime::MAX
    }

    /// "Now" on the clock that stamped the deadline
    /// ([`SimTime::EPOCH`] for unbounded contexts).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock.as_ref().map_or(SimTime::EPOCH, |clock| clock.now())
    }

    /// Time left before the deadline — [`SimDuration::MAX`] when
    /// unbounded, zero when already expired.
    #[must_use]
    pub fn remaining(&self) -> SimDuration {
        match &self.clock {
            Some(clock) if self.deadline != SimTime::MAX => {
                self.deadline.saturating_since(clock.now())
            }
            _ => SimDuration::MAX,
        }
    }

    /// True when the deadline has passed.
    #[must_use]
    pub fn expired(&self) -> bool {
        match &self.clock {
            Some(clock) if self.deadline != SimTime::MAX => clock.now() >= self.deadline,
            _ => false,
        }
    }

    /// Clamps a layer's own budget to the time this request has left —
    /// how a downstream layer (e.g. the callout supervisor) fits its
    /// retry schedule inside the caller's deadline.
    #[must_use]
    pub fn clamp(&self, budget: SimDuration) -> SimDuration {
        budget.min(self.remaining())
    }

    /// The blocking-socket read timeout this request can afford:
    /// `None` for unbounded contexts (block forever), otherwise the
    /// remaining time, floored at one microsecond because
    /// `set_read_timeout(Some(ZERO))` is an error.
    #[must_use]
    pub fn socket_timeout(&self) -> Option<std::time::Duration> {
        if !self.has_deadline() {
            return None;
        }
        let micros = self.remaining().as_micros().max(1);
        Some(std::time::Duration::from_micros(micros))
    }

    /// Records time spent in the front-end admission queue.
    pub fn note_queue_wait(&mut self, wait: SimDuration) {
        self.queue_wait = wait;
    }

    /// Time spent in the front-end admission queue.
    #[must_use]
    pub fn queue_wait(&self) -> SimDuration {
        self.queue_wait
    }
}

impl fmt::Debug for RequestContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RequestContext")
            .field("class", &self.class)
            .field("deadline", &self.deadline)
            .field("trace_id", &self.trace_id)
            .field("queue_wait", &self.queue_wait)
            .field("bounded", &self.clock.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridauthz_clock::SimClock;

    #[test]
    fn unbounded_context_never_expires() {
        let ctx = RequestContext::unbounded();
        assert!(!ctx.expired());
        assert!(!ctx.has_deadline());
        assert_eq!(ctx.remaining(), SimDuration::MAX);
        assert_eq!(ctx.socket_timeout(), None);
        assert_eq!(ctx.clamp(SimDuration::from_secs(5)), SimDuration::from_secs(5));
        assert_eq!(ctx.trace_id(), 0);
    }

    #[test]
    fn deadline_counts_down_on_the_stamping_clock() {
        let clock = SimClock::new();
        let shared: Arc<dyn TimeSource> = Arc::new(clock.clone());
        let ctx = RequestContext::with_budget(
            Arc::clone(&shared),
            AdmissionClass::Interactive,
            SimDuration::from_millis(100),
        );
        assert!(ctx.has_deadline());
        assert_eq!(ctx.remaining(), SimDuration::from_millis(100));
        clock.advance(SimDuration::from_millis(60));
        assert_eq!(ctx.remaining(), SimDuration::from_millis(40));
        assert!(!ctx.expired());
        clock.advance(SimDuration::from_millis(60));
        assert!(ctx.expired());
        assert_eq!(ctx.remaining(), SimDuration::ZERO);
        assert_eq!(ctx.clamp(SimDuration::from_secs(1)), SimDuration::ZERO);
    }

    #[test]
    fn socket_timeout_tracks_remaining_and_never_hits_zero() {
        let clock = SimClock::new();
        let shared: Arc<dyn TimeSource> = Arc::new(clock.clone());
        let ctx = RequestContext::with_budget(
            shared,
            AdmissionClass::Interactive,
            SimDuration::from_millis(10),
        );
        assert_eq!(ctx.socket_timeout(), Some(std::time::Duration::from_millis(10)));
        clock.advance(SimDuration::from_millis(20));
        // Expired: the floor keeps set_read_timeout legal.
        assert_eq!(ctx.socket_timeout(), Some(std::time::Duration::from_micros(1)));
    }

    #[test]
    fn max_deadline_on_a_clock_still_means_never() {
        let clock: Arc<dyn TimeSource> = Arc::new(SimClock::new());
        let ctx = RequestContext::with_deadline(clock, AdmissionClass::Batch, SimTime::MAX);
        assert!(!ctx.has_deadline());
        assert!(!ctx.expired());
        assert_eq!(ctx.remaining(), SimDuration::MAX);
        assert_eq!(ctx.socket_timeout(), None);
    }

    #[test]
    fn trace_id_and_queue_wait_round_trip() {
        let mut ctx = RequestContext::unbounded().with_trace_id(42);
        assert_eq!(ctx.trace_id(), 42);
        ctx.note_queue_wait(SimDuration::from_millis(3));
        assert_eq!(ctx.queue_wait(), SimDuration::from_millis(3));
    }

    #[test]
    fn class_names_and_budgets_are_stable() {
        assert_eq!(AdmissionClass::Interactive.as_str(), "interactive");
        assert_eq!(AdmissionClass::Batch.as_str(), "batch");
        assert_eq!(AdmissionClass::parse("interactive"), Some(AdmissionClass::Interactive));
        assert_eq!(AdmissionClass::parse("batch"), Some(AdmissionClass::Batch));
        assert_eq!(AdmissionClass::parse("fancy"), None);
        assert!(
            AdmissionClass::Interactive.default_budget() < AdmissionClass::Batch.default_budget()
        );
        assert_eq!(ShedReason::QueueFull.as_str(), "queue-full");
        assert_eq!(ShedReason::DeadlineExpired.as_str(), "deadline-expired");
        assert_eq!(ShedReason::Shutdown.as_str(), "shutdown");
    }

    #[test]
    fn client_budgets_are_clamped_to_the_ceiling() {
        assert_eq!(
            clamp_client_budget(SimDuration::from_millis(250)),
            SimDuration::from_millis(250)
        );
        assert_eq!(clamp_client_budget(MAX_CLIENT_BUDGET), MAX_CLIENT_BUDGET);
        assert_eq!(clamp_client_budget(SimDuration::from_hours(24)), MAX_CLIENT_BUDGET);
        assert_eq!(clamp_client_budget(SimDuration::MAX), MAX_CLIENT_BUDGET);
        // The ceiling leaves room for both default class budgets.
        assert!(AdmissionClass::Interactive.default_budget() < MAX_CLIENT_BUDGET);
        assert!(AdmissionClass::Batch.default_budget() < MAX_CLIENT_BUDGET);
    }

    #[test]
    fn retry_budget_matches_the_worst_case_schedule() {
        // 3 attempts at 50ms each, two 200ms backoffs between them.
        let budget = retry_budget(SimDuration::from_millis(50), 3, SimDuration::from_millis(200));
        assert_eq!(budget, SimDuration::from_millis(550));
        // Zero attempts is treated as one.
        assert_eq!(
            retry_budget(SimDuration::from_millis(50), 0, SimDuration::from_millis(200)),
            SimDuration::from_millis(50)
        );
        // Saturation, not overflow.
        assert_eq!(retry_budget(SimDuration::MAX, 3, SimDuration::MAX), SimDuration::MAX);
    }
}
