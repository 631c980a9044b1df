//! A discrete-event **local resource manager** — the LSF/PBS-style job
//! control system the GRAM Job Manager Instance "interfaces with ... to
//! initiate the user's job" (§4.2 of the paper).
//!
//! The paper's management actions need real semantics to enforce:
//! suspending a job must actually free processors for a high-priority
//! job, cancelling must stop it, and priority changes must reorder the
//! queue. This crate provides those semantics deterministically on a
//! shared [`SimClock`](gridauthz_clock::SimClock):
//!
//! * [`Cluster`] — nodes with CPU and memory capacity, allocation
//!   tracking, utilization reporting;
//! * [`SchedulerQueue`] — named queues with per-job limits;
//! * [`JobSpec`]/[`JobState`] — jobs carry their *actual* work duration,
//!   so completion, suspension bookkeeping and wall-clock limits are
//!   exact;
//! * [`LocalScheduler`] — priority scheduling with optional backfill,
//!   suspend/resume/cancel/re-prioritize, per-account usage accounting,
//!   and lifecycle events sent to subscribers. The caller numbers the
//!   jobs.
//!
//! # Example
//!
//! ```
//! use gridauthz_clock::{SimClock, SimDuration};
//! use gridauthz_scheduler::{Cluster, JobId, JobSpec, JobState, LocalScheduler};
//!
//! let clock = SimClock::new();
//! let mut sched = LocalScheduler::new(Cluster::uniform(2, 4, 4096), &clock);
//! let job = JobSpec::new("TRANSP", "bliu", 2, SimDuration::from_mins(10));
//! let id = JobId(1);
//! sched.submit(id, job)?;
//! sched.run_until(clock.now() + SimDuration::from_mins(11));
//! assert!(matches!(sched.status(id)?.state, JobState::Completed { .. }));
//! # Ok::<(), gridauthz_scheduler::SchedulerError>(())
//! ```

mod cluster;
mod engine;
mod error;
mod job;
mod queue;

pub use cluster::{Allocation, Cluster, Node};
pub use engine::{AccountUsage, JobEvent, JobStatus, LocalScheduler, SchedulerConfig};
pub use error::SchedulerError;
pub use job::{JobId, JobSpec, JobState};
pub use queue::SchedulerQueue;
