//! Authorization audit trail.
//!
//! §4.3/§6 of the paper flag the audit problems of shared and dynamic
//! accounts: once a job runs under a community account, the *local*
//! logs no longer say who asked for what. The gateway is the one place
//! that still knows the Grid identity, the action, and the decision —
//! so it records them.

use std::collections::VecDeque;

use gridauthz_clock::SimTime;
use gridauthz_core::Action;
use gridauthz_credential::DistinguishedName;

/// One authorization decision, as recorded at the PEP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRecord {
    /// When the decision was made.
    pub at: SimTime,
    /// The requesting Grid identity (effective identity, proxies
    /// stripped).
    pub subject: DistinguishedName,
    /// The requested operation.
    pub action: Action,
    /// The target job contact, when the request addressed one.
    pub job: Option<String>,
    /// The local account involved, when known.
    pub account: Option<String>,
    /// Permit or the denial/failure message.
    pub outcome: AuditOutcome,
    /// Id of the telemetry [`DecisionTrace`] recorded for this decision,
    /// when one was — joins the audit trail to the per-stage spans in
    /// the server's `TelemetryRegistry`. `None` for administrative
    /// records written outside the decision pipeline.
    ///
    /// [`DecisionTrace`]: gridauthz_telemetry::DecisionTrace
    pub trace_id: Option<u64>,
    /// True when a supervised callout exhausted its deadline/retry
    /// budget and a degradation policy (fail-open advisory, serve-stale
    /// — or fail-closed refusing the request) shaped this outcome. A
    /// degraded permit is the audit trail's cue that the decision did
    /// *not* come from a live policy evaluation.
    pub degraded: bool,
    /// Free-form annotation for administrative records — breaker
    /// transition records say which callout moved between which states.
    pub note: Option<String>,
}

/// The recorded outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditOutcome {
    /// The request was permitted.
    Permitted,
    /// The request was refused, with the protocol error's text.
    Refused(String),
}

impl AuditOutcome {
    /// True for permits.
    pub fn is_permitted(&self) -> bool {
        matches!(self, AuditOutcome::Permitted)
    }
}

/// A bounded in-memory audit log (oldest records are dropped first).
///
/// Beside each record the log can hold the record's journal encoding,
/// which a durable server computes once for the record's journal frame.
/// A checkpoint copies those bytes into the snapshot instead of encoding
/// every retained record again.
#[derive(Debug)]
pub struct AuditLog {
    records: VecDeque<(AuditRecord, Option<Vec<u8>>)>,
    capacity: usize,
    dropped: u64,
}

impl AuditLog {
    /// Creates a log retaining up to `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> AuditLog {
        assert!(capacity > 0, "audit log capacity must be positive");
        AuditLog { records: VecDeque::with_capacity(capacity), capacity, dropped: 0 }
    }

    /// Appends a record, evicting the oldest when full. Returns the
    /// evicted record so callers with durable storage (the state
    /// journal) can rotate it out instead of losing it; callers without
    /// may drop it, which preserves the old bounded-memory behaviour.
    pub fn record(&mut self, record: AuditRecord) -> Option<AuditRecord> {
        self.record_encoded(record, None)
    }

    /// [`AuditLog::record`], keeping `encoded` (the record's journal
    /// encoding) beside the record.
    pub(crate) fn record_encoded(
        &mut self,
        record: AuditRecord,
        encoded: Option<Vec<u8>>,
    ) -> Option<AuditRecord> {
        let evicted = if self.records.len() == self.capacity {
            self.dropped += 1;
            self.records.pop_front().map(|(record, _)| record)
        } else {
            None
        };
        self.records.push_back((record, encoded));
        evicted
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &AuditRecord> {
        self.records.iter().map(|(record, _)| record)
    }

    /// The retained records with the journal encoding kept beside each
    /// (`None` for a record logged without one), oldest first.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&AuditRecord, Option<&[u8]>)> {
        self.records.iter().map(|(record, encoded)| (record, encoded.as_deref()))
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// How many records have been evicted.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records concerning `subject`, oldest first.
    pub fn for_subject<'a>(
        &'a self,
        subject: &'a DistinguishedName,
    ) -> impl Iterator<Item = &'a AuditRecord> + 'a {
        self.records().filter(move |r| &r.subject == subject)
    }

    /// Refusals retained in the log, oldest first.
    pub fn refusals(&self) -> impl Iterator<Item = &AuditRecord> {
        self.records().filter(|r| !r.outcome.is_permitted())
    }

    /// Degraded-mode decisions retained in the log, oldest first — the
    /// records an operator reviews after an authorization-service
    /// outage.
    pub fn degraded(&self) -> impl Iterator<Item = &AuditRecord> {
        self.records().filter(|r| r.degraded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> DistinguishedName {
        s.parse().unwrap()
    }

    fn record(secs: u64, subject: &str, permitted: bool) -> AuditRecord {
        AuditRecord {
            at: SimTime::from_secs(secs),
            subject: dn(subject),
            action: Action::Start,
            job: None,
            account: None,
            outcome: if permitted {
                AuditOutcome::Permitted
            } else {
                AuditOutcome::Refused("denied".into())
            },
            trace_id: Some(secs),
            degraded: false,
            note: None,
        }
    }

    #[test]
    fn records_accumulate_in_order() {
        let mut log = AuditLog::new(10);
        log.record(record(1, "/O=G/CN=A", true));
        log.record(record(2, "/O=G/CN=B", false));
        assert_eq!(log.len(), 2);
        let times: Vec<u64> = log.records().map(|r| r.at.as_secs()).collect();
        assert_eq!(times, vec![1, 2]);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut log = AuditLog::new(2);
        let mut evicted = Vec::new();
        for i in 0..5 {
            if let Some(old) = log.record(record(i, "/O=G/CN=A", true)) {
                evicted.push(old.at.as_secs());
            }
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        let times: Vec<u64> = log.records().map(|r| r.at.as_secs()).collect();
        assert_eq!(times, vec![3, 4]);
        // The evicted records came back out, oldest first, not silently
        // dropped.
        assert_eq!(evicted, vec![0, 1, 2]);
    }

    #[test]
    fn filters_by_subject_and_outcome() {
        let mut log = AuditLog::new(10);
        log.record(record(1, "/O=G/CN=A", true));
        log.record(record(2, "/O=G/CN=A", false));
        log.record(record(3, "/O=G/CN=B", false));
        assert_eq!(log.for_subject(&dn("/O=G/CN=A")).count(), 2);
        assert_eq!(log.refusals().count(), 2);
        assert!(!log.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        AuditLog::new(0);
    }
}
