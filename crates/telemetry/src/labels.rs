//! The fixed outcome-label vocabulary.
//!
//! Every counter and span in the pipeline uses one of these labels. The
//! set is closed on purpose: a fixed vocabulary keeps the counter store a
//! flat atomic array (no map, no lock, no allocation on the hot path) and
//! keeps metric keys stable across the gram server and the simulator's
//! `DecisionTally`. Eleven of the labels mirror the `GramError`
//! variants one-to-one (see `gridauthz_gram::error_label`); three name
//! non-error outcomes, seven are the callout-supervision vocabulary
//! (retries, timeouts, circuit-breaker transitions,
//! degraded-mode decisions), three classify wire-frame decode failures
//! at the TCP front-end (partial frame at connection close, oversized
//! frame, duplicated header), three are the admission vocabulary (load
//! shed, deadline expired in queue, shutdown drain), two are the
//! connection-lifecycle vocabulary (idle-read timeout, per-connection
//! error budget exhausted), and the last three are the durability
//! vocabulary (physical journal fsyncs, records replayed at recovery,
//! checkpoints taken).

/// A granted stage or a permitted decision.
pub const PERMIT: &str = "permit";
/// Decision cache probe found a live entry.
pub const HIT: &str = "hit";
/// Decision cache probe missed (or entry was stale).
pub const MISS: &str = "miss";
/// GSI certificate-chain validation failed.
pub const AUTHENTICATION: &str = "authentication";
/// Subject absent from the grid-mapfile.
pub const GRIDMAP: &str = "gridmap";
/// Requested local account not among the subject's mappings.
pub const ACCOUNT_MAPPING: &str = "account-mapping";
/// The policy evaluation denied the action.
pub const POLICY_DENIED: &str = "policy-denied";
/// The authorization system itself failed (callout error, timeout).
pub const AUTHZ_SYSTEM: &str = "authz-system";
/// Malformed RSL or request.
pub const BAD_REQUEST: &str = "bad-request";
/// Management request for a job contact nobody holds.
pub const UNKNOWN_JOB: &str = "unknown-job";
/// Local scheduler refused the operation.
pub const SCHEDULER: &str = "scheduler";
/// Dynamic account provisioning failed.
pub const PROVISIONING: &str = "provisioning";
/// Job violated its sandbox restrictions.
pub const SANDBOX: &str = "sandbox";
/// A supervised callout attempt was retried after a failure.
pub const RETRY: &str = "retry";
/// A supervised callout attempt exceeded its per-call deadline.
pub const TIMEOUT: &str = "timeout";
/// A circuit breaker transitioned into the open state.
pub const BREAKER_OPEN: &str = "breaker-open";
/// A circuit breaker transitioned into the half-open (probing) state.
pub const BREAKER_HALF_OPEN: &str = "breaker-half-open";
/// A circuit breaker transitioned back into the closed state.
pub const BREAKER_CLOSED: &str = "breaker-closed";
/// A decision was answered from a stale cached entry (`ServeStale`).
pub const STALE_SERVED: &str = "stale-served";
/// A decision completed in degraded mode (any degradation policy).
pub const DEGRADED: &str = "degraded";
/// A connection closed mid-frame: bytes arrived but the frame never
/// completed.
pub const FRAME_PARTIAL: &str = "frame-partial";
/// A frame exceeded the wire protocol's maximum frame size.
pub const FRAME_OVERSIZED: &str = "frame-oversized";
/// A frame repeated a header (injection attempt or corruption).
pub const DUPLICATE_HEADER: &str = "duplicate-header";
/// A request was refused without service because its admission lane was
/// at its depth bound (load shedding).
pub const SHED: &str = "shed";
/// A request's deadline expired — while queued at the front-end, or
/// before a layer could afford its remaining work.
pub const EXPIRED: &str = "deadline-expired";
/// A queued request was drained with a shutdown answer while the
/// front-end was stopping.
pub const SHUTDOWN: &str = "shutdown";
/// A connection went silent past the front-end's idle-read timeout and
/// was closed to free its worker.
pub const IDLE_TIMEOUT: &str = "idle-timeout";
/// A connection exhausted its per-connection error budget (too many
/// malformed/refused frames) and was closed.
pub const ERROR_BUDGET: &str = "error-budget";
/// A physical journal sync made one or more appended records durable
/// (group commit batches several appends under one fsync).
pub const FSYNC: &str = "fsync";
/// A journal (or snapshot) record was replayed during startup recovery.
pub const REPLAY: &str = "replay";
/// A checkpoint serialized the server's state into a snapshot and
/// compacted the journal behind it.
pub const CHECKPOINT: &str = "checkpoint";

/// Every label in the vocabulary, in canonical (reporting) order.
pub const ALL: [&str; 31] = [
    PERMIT,
    HIT,
    MISS,
    AUTHENTICATION,
    GRIDMAP,
    ACCOUNT_MAPPING,
    POLICY_DENIED,
    AUTHZ_SYSTEM,
    BAD_REQUEST,
    UNKNOWN_JOB,
    SCHEDULER,
    PROVISIONING,
    SANDBOX,
    RETRY,
    TIMEOUT,
    BREAKER_OPEN,
    BREAKER_HALF_OPEN,
    BREAKER_CLOSED,
    STALE_SERVED,
    DEGRADED,
    FRAME_PARTIAL,
    FRAME_OVERSIZED,
    DUPLICATE_HEADER,
    SHED,
    EXPIRED,
    SHUTDOWN,
    IDLE_TIMEOUT,
    ERROR_BUDGET,
    FSYNC,
    REPLAY,
    CHECKPOINT,
];

/// Index of `label` in [`ALL`], or `None` for a string outside the
/// vocabulary. The pointer-equality fast path makes this effectively
/// free when callers pass the constants above (the normal case).
#[must_use]
pub fn index_of(label: &str) -> Option<usize> {
    ALL.iter()
        .position(|l| std::ptr::eq(*l as *const str, label as *const str))
        .or_else(|| ALL.iter().position(|l| *l == label))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_and_indexed() {
        for (i, label) in ALL.iter().enumerate() {
            assert_eq!(index_of(label), Some(i));
            // Also resolvable through a non-static copy of the string.
            let owned = label.to_string();
            assert_eq!(index_of(&owned), Some(i));
        }
        let mut sorted = ALL.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ALL.len());
    }

    #[test]
    fn unknown_labels_have_no_index() {
        assert_eq!(index_of("not-a-label"), None);
        assert_eq!(index_of(""), None);
    }
}
