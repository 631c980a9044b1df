use std::error::Error;
use std::fmt;

use crate::job::JobId;

/// Errors from local-scheduler operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulerError {
    /// No job with this id exists.
    UnknownJob(JobId),
    /// A job with this id is already held.
    DuplicateJob(JobId),
    /// The operation is invalid in the job's current state (e.g. resuming
    /// a running job).
    InvalidTransition {
        /// The job.
        job: JobId,
        /// The attempted operation.
        operation: &'static str,
        /// The state it was in.
        state: String,
    },
    /// The named queue does not exist.
    UnknownQueue(String),
    /// The job violates a queue limit (too many CPUs, too long).
    QueueLimitExceeded {
        /// The queue.
        queue: String,
        /// Which limit.
        limit: String,
    },
    /// The job can never fit on this cluster.
    InsufficientResources {
        /// Requested CPUs.
        cpus: u32,
        /// Requested memory (MB).
        memory_mb: u32,
    },
}

impl fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedulerError::UnknownJob(id) => write!(f, "unknown job {id}"),
            SchedulerError::DuplicateJob(id) => write!(f, "job {id} is already held"),
            SchedulerError::InvalidTransition { job, operation, state } => {
                write!(f, "cannot {operation} job {job} in state {state}")
            }
            SchedulerError::UnknownQueue(q) => write!(f, "unknown queue {q:?}"),
            SchedulerError::QueueLimitExceeded { queue, limit } => {
                write!(f, "queue {queue:?} limit exceeded: {limit}")
            }
            SchedulerError::InsufficientResources { cpus, memory_mb } => {
                write!(f, "no node configuration can satisfy {cpus} cpus / {memory_mb} MB")
            }
        }
    }
}

impl Error for SchedulerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SchedulerError::QueueLimitExceeded { queue: "fast".into(), limit: "cpus".into() };
        assert!(e.to_string().contains("fast"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<SchedulerError>();
    }
}
