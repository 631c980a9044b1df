//! Per-decision traces: an ordered span list across pipeline stages.

use std::fmt;
use std::sync::Arc;

use gridauthz_clock::SimTime;

/// A pipeline stage, in the order a request traverses them
/// (Figure 2 of the paper: gatekeeper → job manager → callout chain →
/// local enforcement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Admission queueing at the TCP front-end: the time between accept
    /// and a worker picking the connection up, plus shed/expire/shutdown
    /// verdicts for requests refused without service.
    Admission,
    /// Wire-frame assembly and decode at the TCP front-end.
    FrameDecode,
    /// GSI certificate-chain validation at the gatekeeper.
    Authenticate,
    /// Grid-mapfile authorization and account mapping.
    GridMap,
    /// Decision-cache probe inside the PDP engine.
    CacheProbe,
    /// One authorization callout in the chain (span detail names it).
    Callout,
    /// Combining PDP evaluation (local ∧ VO policy sources).
    Combine,
    /// Local enforcement: scheduler submit/cancel/signal, sandboxing.
    Enforce,
    /// End-to-end service of one framed request (decode through encode).
    Service,
    /// Write-ahead-log append on the mutation path: the fsync the commit
    /// point charges against the hot path.
    JournalAppend,
    /// Startup recovery: snapshot load plus journal-tail replay.
    Recovery,
}

impl Stage {
    /// Number of stages (array-index bound for per-stage storage).
    pub const COUNT: usize = 11;

    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Admission,
        Stage::FrameDecode,
        Stage::Authenticate,
        Stage::GridMap,
        Stage::CacheProbe,
        Stage::Callout,
        Stage::Combine,
        Stage::Enforce,
        Stage::Service,
        Stage::JournalAppend,
        Stage::Recovery,
    ];

    /// Dense index for per-stage arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name (metric key component).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Admission => "admission",
            Stage::FrameDecode => "frame-decode",
            Stage::Authenticate => "authenticate",
            Stage::GridMap => "gridmap",
            Stage::CacheProbe => "cache-probe",
            Stage::Callout => "callout",
            Stage::Combine => "combine",
            Stage::Enforce => "enforce",
            Stage::Service => "service",
            Stage::JournalAppend => "journal-append",
            Stage::Recovery => "recovery",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One timed stage of one decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Which stage this span covers.
    pub stage: Stage,
    /// Outcome label from the fixed vocabulary ([`crate::labels`]).
    pub label: &'static str,
    /// Optional qualifier — the callout name for [`Stage::Callout`] spans,
    /// shared with the chain that owns the callout so recording it never
    /// allocates.
    pub detail: Option<Arc<str>>,
    /// Elapsed monotonic wall time, in nanoseconds.
    pub nanos: u64,
}

/// The span list for one request through the pipeline.
///
/// Created by [`TelemetryRegistry::start_trace`], carried through the
/// gatekeeper, PDP and enforcement stages, and closed with
/// [`TelemetryRegistry::finish_trace`], which folds every span into the
/// registry's counters and histograms exactly once.
///
/// [`TelemetryRegistry::start_trace`]: crate::TelemetryRegistry::start_trace
/// [`TelemetryRegistry::finish_trace`]: crate::TelemetryRegistry::finish_trace
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionTrace {
    id: u64,
    operation: &'static str,
    at: SimTime,
    spans: Vec<Span>,
    degraded: bool,
}

impl DecisionTrace {
    pub(crate) fn new(id: u64, operation: &'static str, at: SimTime) -> DecisionTrace {
        DecisionTrace { id, operation, at, spans: Vec::with_capacity(6), degraded: false }
    }

    /// A placeholder trace outside any registry (id 0, epoch arrival).
    /// Used as the swap-out value when a batch path temporarily extracts
    /// per-element traces, and by callers that want degradation marks
    /// without a registry attached. Never retained by `finish_trace`
    /// callers — it carries no registry-unique id.
    #[must_use]
    pub fn detached() -> DecisionTrace {
        DecisionTrace::new(0, "detached", SimTime::EPOCH)
    }

    /// Registry-unique trace id (what `AuditRecord` carries).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The operation this trace covers (`"submit"`, `"cancel"`, …).
    #[must_use]
    pub fn operation(&self) -> &'static str {
        self.operation
    }

    /// Simulated arrival time of the request. Spans share it: simulated
    /// time does not advance while a request is being handled.
    #[must_use]
    pub fn at(&self) -> SimTime {
        self.at
    }

    /// The spans recorded so far, in pipeline order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records a span for `stage` with outcome `label`.
    pub fn record(&mut self, stage: Stage, label: &'static str, nanos: u64) {
        self.spans.push(Span { stage, label, detail: None, nanos });
    }

    /// Records a [`Stage::Callout`] span naming the callout.
    pub fn record_callout(&mut self, name: &Arc<str>, label: &'static str, nanos: u64) {
        let detail = Some(Arc::clone(name));
        self.spans.push(Span { stage: Stage::Callout, label, detail, nanos });
    }

    /// Marks this decision as degraded: a supervised callout exhausted
    /// its retry/deadline budget and a degradation policy (fail-open
    /// advisory, serve-stale) shaped the outcome. Sticky — one degraded
    /// stage degrades the whole decision.
    pub fn mark_degraded(&mut self) {
        self.degraded = true;
    }

    /// True when any stage of this decision ran in degraded mode.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }
}

impl fmt::Display for DecisionTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace#{} {} @{}", self.id, self.operation, self.at)?;
        if self.degraded {
            write!(f, " [degraded]")?;
        }
        for span in &self.spans {
            write!(f, " [{}", span.stage)?;
            if let Some(detail) = &span.detail {
                write!(f, ":{detail}")?;
            }
            write!(f, " {} {}ns]", span.label, span.nanos)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels;

    #[test]
    fn stage_indices_are_dense_and_ordered() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        let mut names: Vec<_> = Stage::ALL.iter().map(|s| s.as_str()).collect();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT);
    }

    #[test]
    fn trace_accumulates_spans_in_order() {
        let mut trace = DecisionTrace::new(7, "submit", SimTime::from_secs(3));
        trace.record(Stage::Authenticate, labels::PERMIT, 1200);
        trace.record_callout(&"gram-authorization".into(), labels::POLICY_DENIED, 800);
        assert_eq!(trace.id(), 7);
        assert_eq!(trace.operation(), "submit");
        assert_eq!(trace.spans().len(), 2);
        assert_eq!(trace.spans()[1].detail.as_deref(), Some("gram-authorization"));
        let shown = trace.to_string();
        assert!(shown.contains("trace#7 submit"));
        assert!(shown.contains("callout:gram-authorization policy-denied 800ns"));
    }

    #[test]
    fn degraded_mark_is_sticky_and_shown() {
        let mut trace = DecisionTrace::detached();
        assert!(!trace.is_degraded());
        trace.mark_degraded();
        trace.mark_degraded();
        assert!(trace.is_degraded());
        assert!(trace.to_string().contains("[degraded]"));
        assert_eq!(trace.id(), 0);
        assert_eq!(trace.operation(), "detached");
    }
}
