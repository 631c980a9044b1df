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

use crate::journal::{audit_is_refusal, JournalRecord};

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
/// Each record is kept as its journal payload, the bytes
/// [`JournalRecord::Audit`] encodes to: a durable server appends those
/// same bytes to its journal, and a checkpoint copies them into the
/// snapshot as they are. Reading the log decodes them.
#[derive(Debug)]
pub struct AuditLog {
    payloads: VecDeque<Vec<u8>>,
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
        AuditLog { payloads: VecDeque::with_capacity(capacity), capacity, dropped: 0 }
    }

    /// Appends one record's journal payload, evicting the oldest record
    /// when full.
    pub(crate) fn record(&mut self, payload: Vec<u8>) {
        if self.payloads.len() == self.capacity {
            self.dropped += 1;
            self.payloads.pop_front();
        }
        self.payloads.push_back(payload);
    }

    /// The retained records' journal payloads, oldest first.
    pub(crate) fn payloads(&self) -> impl Iterator<Item = &[u8]> {
        self.payloads.iter().map(Vec::as_slice)
    }

    /// The retained records, decoded, oldest first.
    pub fn records(&self) -> impl Iterator<Item = AuditRecord> + '_ {
        self.payloads().map(|payload| match JournalRecord::decode(payload) {
            Ok(Some(JournalRecord::Audit(record))) => record,
            other => unreachable!("an audit log entry decoded to {other:?}"),
        })
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// How many records have been evicted.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of refusals retained in the log. Reads each payload only
    /// up to its refusal flag, so no record is built.
    pub fn refusal_count(&self) -> usize {
        self.payloads().filter(|payload| audit_is_refusal(payload)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> DistinguishedName {
        s.parse().unwrap()
    }

    fn record(secs: u64, subject: &str, permitted: bool) -> Vec<u8> {
        JournalRecord::Audit(AuditRecord {
            at: SimTime::from_secs(secs),
            subject: dn(subject),
            action: Action::Start,
            job: Some(format!("job-{secs}")),
            account: permitted.then(|| "acct".to_string()),
            outcome: if permitted {
                AuditOutcome::Permitted
            } else {
                AuditOutcome::Refused("denied".into())
            },
            trace_id: Some(secs),
            degraded: false,
            note: None,
        })
        .encode()
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
        for i in 0..5 {
            log.record(record(i, "/O=G/CN=A", true));
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        let times: Vec<u64> = log.records().map(|r| r.at.as_secs()).collect();
        assert_eq!(times, vec![3, 4]);
    }

    #[test]
    fn records_decode_to_what_was_written() {
        let mut log = AuditLog::new(10);
        log.record(record(1, "/O=G/CN=A", true));
        log.record(record(2, "/O=G/CN=A", false));
        log.record(record(3, "/O=G/CN=B", false));
        assert_eq!(log.refusal_count(), 2);
        let refusals: Vec<AuditRecord> =
            log.records().filter(|r| !r.outcome.is_permitted()).collect();
        assert_eq!(refusals.len(), 2);
        assert_eq!(refusals[1].subject, dn("/O=G/CN=B"));
        assert_eq!(refusals[1].outcome, AuditOutcome::Refused("denied".into()));
        assert_eq!(refusals[1].trace_id, Some(3));
        assert_eq!(refusals[1].job.as_deref(), Some("job-3"));
        assert!(!log.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        AuditLog::new(0);
    }
}
