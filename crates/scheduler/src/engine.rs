//! The discrete-event scheduling engine.

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{self, Receiver};

use gridauthz_clock::{SimClock, SimDuration, SimTime};

use crate::cluster::Cluster;
use crate::error::SchedulerError;
use crate::job::{JobId, JobSpec, JobState};
use crate::queue::SchedulerQueue;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// With backfill, a job that does not fit lets smaller jobs behind it
    /// start; without, the queue head blocks (strict priority/FIFO).
    pub backfill: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig { backfill: true }
    }
}

/// A snapshot of one job's state for status queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// The job id.
    pub id: JobId,
    /// Current lifecycle state.
    pub state: JobState,
    /// Processors requested.
    pub cpus: u32,
    /// Effective priority (base + queue boost).
    pub priority: i64,
    /// Submission instant.
    pub submitted: SimTime,
    /// Work completed so far.
    pub executed: SimDuration,
}

/// One lifecycle transition (the event stream GT2's Job Manager
/// forwarded to client callbacks), sent to every live
/// [`LocalScheduler::subscribe`] receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobEvent {
    /// When the transition happened.
    pub at: SimTime,
    /// The job.
    pub job: JobId,
    /// The state entered.
    pub state: JobState,
}

/// Per-account resource accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccountUsage {
    /// CPU-seconds consumed (cpus × run time).
    pub cpu_seconds: u64,
    /// Jobs submitted.
    pub jobs_submitted: u64,
    /// Jobs that ran to successful completion.
    pub jobs_completed: u64,
}

#[derive(Debug, Clone)]
struct JobRecord {
    spec: JobSpec,
    state: JobState,
    submitted: SimTime,
    /// Work completed in earlier running stints.
    executed: SimDuration,
    /// When the current running stint ends (completion or wall kill).
    finish: Option<SimTime>,
    /// Whether the pending finish event is a wall-limit kill.
    finish_is_timeout: bool,
    effective_priority: i64,
}

/// A registered callback, as GT2's Job Manager kept per client: it
/// forwards one transition and answers whether its receiver is still
/// live. Boxed, so the channel's generic code is compiled once here
/// rather than in every crate that drops a scheduler.
type Subscriber = Box<dyn Fn(&JobEvent) -> bool + Send + Sync>;

/// The local resource manager: submits, schedules, and manages jobs on a
/// [`Cluster`], driven by a shared [`SimClock`].
pub struct LocalScheduler {
    clock: SimClock,
    cluster: Cluster,
    queues: HashMap<String, SchedulerQueue>,
    config: SchedulerConfig,
    jobs: BTreeMap<JobId, JobRecord>,
    pending: Vec<JobId>,
    tag_index: HashMap<String, Vec<JobId>>,
    usage: HashMap<String, AccountUsage>,
    subscribers: Vec<Subscriber>,
}

impl LocalScheduler {
    /// Creates a scheduler over `cluster` with a default unlimited
    /// `"default"` queue and backfill enabled.
    pub fn new(cluster: Cluster, clock: &SimClock) -> LocalScheduler {
        LocalScheduler::with_config(cluster, clock, SchedulerConfig::default())
    }

    /// Creates a scheduler with explicit configuration.
    pub fn with_config(
        cluster: Cluster,
        clock: &SimClock,
        config: SchedulerConfig,
    ) -> LocalScheduler {
        let mut queues = HashMap::new();
        queues.insert("default".to_string(), SchedulerQueue::new("default"));
        LocalScheduler {
            clock: clock.clone(),
            cluster,
            queues,
            config,
            jobs: BTreeMap::new(),
            pending: Vec::new(),
            tag_index: HashMap::new(),
            usage: HashMap::new(),
            subscribers: Vec::new(),
        }
    }

    /// Defines (or replaces) a queue.
    pub fn add_queue(&mut self, queue: SchedulerQueue) {
        self.queues.insert(queue.name().to_string(), queue);
    }

    /// The cluster's current CPU utilization (0.0–1.0).
    pub fn utilization(&self) -> f64 {
        self.cluster.utilization()
    }

    /// Jobs waiting for resources.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Jobs currently executing.
    pub fn running_count(&self) -> usize {
        self.jobs.values().filter(|r| matches!(r.state, JobState::Running { .. })).count()
    }

    /// Submits a job under `id`, which the caller draws; it may start
    /// immediately if resources are free. Ids need not arrive in
    /// ascending order, and the id of a retired job is accepted again:
    /// never reissuing one is the caller's duty.
    ///
    /// # Errors
    ///
    /// [`SchedulerError::DuplicateJob`] when `id` is already held;
    /// [`SchedulerError::UnknownQueue`], [`SchedulerError::QueueLimitExceeded`]
    /// or [`SchedulerError::InsufficientResources`] on admission failure.
    pub fn submit(&mut self, id: JobId, spec: JobSpec) -> Result<(), SchedulerError> {
        if self.jobs.contains_key(&id) {
            return Err(SchedulerError::DuplicateJob(id));
        }
        let queue = self
            .queues
            .get(&spec.queue)
            .ok_or_else(|| SchedulerError::UnknownQueue(spec.queue.clone()))?;
        queue.admit(&spec)?;
        if !self.cluster.can_ever_fit(spec.cpus, spec.memory_mb) {
            return Err(SchedulerError::InsufficientResources {
                cpus: spec.cpus,
                memory_mb: spec.memory_mb,
            });
        }
        let effective_priority = spec.priority + queue.priority_boost();
        let now = self.clock.now();
        if let Some(tag) = &spec.tag {
            // Sorted whatever order ids arrive in, so `retire` finds an
            // id by binary search; `id` is not held, so not listed yet.
            let ids = self.tag_index.entry(tag.clone()).or_default();
            let at = ids.binary_search(&id).unwrap_err();
            ids.insert(at, id);
        }
        self.usage.entry(spec.account.clone()).or_default().jobs_submitted += 1;
        self.jobs.insert(
            id,
            JobRecord {
                spec,
                state: JobState::Pending,
                submitted: now,
                executed: SimDuration::ZERO,
                finish: None,
                finish_is_timeout: false,
                effective_priority,
            },
        );
        self.record_event(now, id, JobState::Pending);
        self.enqueue_pending(id);
        self.schedule_pending(now);
        Ok(())
    }

    /// Sends one transition to every live subscriber, pruning the ones
    /// whose receiver was dropped. With no subscriber nothing is kept.
    fn record_event(&mut self, at: SimTime, job: JobId, state: JobState) {
        let event = JobEvent { at, job, state };
        self.subscribers.retain(|subscriber| subscriber(&event));
    }

    /// Subscribes to lifecycle transitions (submission, start, suspend,
    /// resume, completion, cancellation, timeout): the receiver gets
    /// every transition from now on, oldest first, and none from
    /// before. Dropping the receiver ends the subscription.
    pub fn subscribe(&mut self) -> Receiver<JobEvent> {
        let (sender, receiver) = mpsc::channel();
        self.subscribers.push(Box::new(move |event| sender.send(event.clone()).is_ok()));
        receiver
    }

    fn enqueue_pending(&mut self, id: JobId) {
        self.pending.push(id);
        // Higher priority first; FIFO (by id) within a priority level.
        self.pending.sort_by_key(|&jid| {
            let r = &self.jobs[&jid];
            (std::cmp::Reverse(r.effective_priority), jid)
        });
    }

    /// The earliest future event (completion / wall kill), if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.jobs.values().filter_map(|r| r.finish).min()
    }

    /// Processes every event at or before the clock's current instant.
    /// Call after advancing the shared clock externally.
    pub fn catch_up(&mut self) {
        let now = self.clock.now();
        loop {
            let due: Option<SimTime> =
                self.jobs.values().filter_map(|r| r.finish).filter(|&t| t <= now).min();
            let Some(event_time) = due else { break };
            let finished: Vec<JobId> = self
                .jobs
                .iter()
                .filter(|(_, r)| r.finish == Some(event_time))
                .map(|(&id, _)| id)
                .collect();
            for id in finished {
                self.finish_job(id, event_time);
            }
            self.schedule_pending(event_time);
        }
        self.schedule_pending(now);
    }

    /// Advances the shared clock to `t`, processing intermediate events in
    /// order. Single-scheduler convenience; multi-component simulations
    /// drive the clock themselves and call [`LocalScheduler::catch_up`].
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(event) = self.next_event_time() {
            if event > t {
                break;
            }
            if event > self.clock.now() {
                self.clock.advance_to(event);
            }
            self.catch_up();
        }
        if t > self.clock.now() {
            self.clock.advance_to(t);
        }
        self.catch_up();
    }

    /// Runs until no pending or running jobs remain, returning the instant
    /// the last event fired.
    pub fn drain(&mut self) -> SimTime {
        while let Some(event) = self.next_event_time() {
            if event > self.clock.now() {
                self.clock.advance_to(event);
            }
            self.catch_up();
        }
        self.clock.now()
    }

    fn finish_job(&mut self, id: JobId, at: SimTime) {
        let record = self.jobs.get_mut(&id).expect("finishing a known job");
        let JobState::Running { since } = record.state else {
            unreachable!("only running jobs have finish events");
        };
        let stint = at - since;
        record.executed += stint;
        let timeout = record.finish_is_timeout;
        record.finish = None;
        record.finish_is_timeout = false;
        record.state = if timeout { JobState::TimedOut { at } } else { JobState::Completed { at } };
        let state = record.state.clone();
        self.cluster.release(id);
        let usage = charge_stint(&mut self.usage, &record.spec, stint);
        if !timeout {
            usage.jobs_completed += 1;
        }
        self.record_event(at, id, state);
    }

    fn schedule_pending(&mut self, now: SimTime) {
        let mut started = Vec::new();
        for &id in &self.pending {
            let record = &self.jobs[&id];
            let (cpus, memory) = (record.spec.cpus, record.spec.memory_mb);
            if self.cluster.allocate(id, cpus, memory).is_some() {
                started.push(id);
            } else if !self.config.backfill {
                break;
            }
        }
        for id in &started {
            self.pending.retain(|j| j != id);
            let record = self.jobs.get_mut(id).expect("starting a known job");
            let remaining_work = record.spec.work - record.executed;
            let (run_for, is_timeout) = match record.spec.wall_limit {
                Some(limit) if limit - record.executed < remaining_work => {
                    (limit - record.executed, true)
                }
                _ => (remaining_work, false),
            };
            record.state = JobState::Running { since: now };
            record.finish = Some(now + run_for);
            record.finish_is_timeout = is_timeout;
            self.record_event(now, *id, JobState::Running { since: now });
        }
    }

    /// Cancels a job in any non-terminal state.
    ///
    /// # Errors
    ///
    /// [`SchedulerError::UnknownJob`] / [`SchedulerError::InvalidTransition`].
    pub fn cancel(&mut self, id: JobId) -> Result<(), SchedulerError> {
        let now = self.clock.now();
        let record = self.jobs.get_mut(&id).ok_or(SchedulerError::UnknownJob(id))?;
        match record.state.clone() {
            JobState::Pending => {
                self.pending.retain(|j| *j != id);
                self.jobs.get_mut(&id).expect("checked above").state =
                    JobState::Cancelled { at: now };
                self.record_event(now, id, JobState::Cancelled { at: now });
                Ok(())
            }
            JobState::Running { since } => {
                let stint = now - since;
                record.executed += stint;
                record.finish = None;
                record.finish_is_timeout = false;
                record.state = JobState::Cancelled { at: now };
                charge_stint(&mut self.usage, &record.spec, stint);
                self.cluster.release(id);
                self.record_event(now, id, JobState::Cancelled { at: now });
                self.schedule_pending(now);
                Ok(())
            }
            JobState::Suspended { .. } => {
                record.state = JobState::Cancelled { at: now };
                self.record_event(now, id, JobState::Cancelled { at: now });
                Ok(())
            }
            state => Err(SchedulerError::InvalidTransition {
                job: id,
                operation: "cancel",
                state: state.label().to_string(),
            }),
        }
    }

    /// Suspends a running job, freeing its processors.
    ///
    /// # Errors
    ///
    /// [`SchedulerError::UnknownJob`] / [`SchedulerError::InvalidTransition`].
    pub fn suspend(&mut self, id: JobId) -> Result<(), SchedulerError> {
        let now = self.clock.now();
        let record = self.jobs.get_mut(&id).ok_or(SchedulerError::UnknownJob(id))?;
        let JobState::Running { since } = record.state else {
            return Err(SchedulerError::InvalidTransition {
                job: id,
                operation: "suspend",
                state: record.state.label().to_string(),
            });
        };
        let stint = now - since;
        record.executed += stint;
        record.finish = None;
        record.finish_is_timeout = false;
        record.state = JobState::Suspended { executed: record.executed };
        let executed = record.executed;
        charge_stint(&mut self.usage, &record.spec, stint);
        self.cluster.release(id);
        self.record_event(now, id, JobState::Suspended { executed });
        self.schedule_pending(now);
        Ok(())
    }

    /// Resumes a suspended job (it re-enters the pending queue and
    /// continues from where it stopped).
    ///
    /// # Errors
    ///
    /// [`SchedulerError::UnknownJob`] / [`SchedulerError::InvalidTransition`].
    pub fn resume(&mut self, id: JobId) -> Result<(), SchedulerError> {
        let record = self.jobs.get_mut(&id).ok_or(SchedulerError::UnknownJob(id))?;
        let JobState::Suspended { .. } = record.state else {
            return Err(SchedulerError::InvalidTransition {
                job: id,
                operation: "resume",
                state: record.state.label().to_string(),
            });
        };
        record.state = JobState::Pending;
        let now = self.clock.now();
        self.record_event(now, id, JobState::Pending);
        self.enqueue_pending(id);
        self.schedule_pending(now);
        Ok(())
    }

    /// Changes a job's base priority (reorders the pending queue; running
    /// jobs keep their processors).
    ///
    /// # Errors
    ///
    /// [`SchedulerError::UnknownJob`] or [`SchedulerError::InvalidTransition`]
    /// for terminal jobs.
    pub fn set_priority(&mut self, id: JobId, priority: i64) -> Result<(), SchedulerError> {
        let boost = {
            let record = self.jobs.get(&id).ok_or(SchedulerError::UnknownJob(id))?;
            if record.state.is_terminal() {
                return Err(SchedulerError::InvalidTransition {
                    job: id,
                    operation: "set priority of",
                    state: record.state.label().to_string(),
                });
            }
            self.queues.get(&record.spec.queue).map(SchedulerQueue::priority_boost).unwrap_or(0)
        };
        let record = self.jobs.get_mut(&id).expect("checked above");
        record.spec.priority = priority;
        record.effective_priority = priority + boost;
        if matches!(record.state, JobState::Pending) {
            self.pending.sort_by_key(|&jid| {
                let r = &self.jobs[&jid];
                (std::cmp::Reverse(r.effective_priority), jid)
            });
        }
        Ok(())
    }

    /// A point-in-time status snapshot.
    ///
    /// # Errors
    ///
    /// [`SchedulerError::UnknownJob`].
    pub fn status(&self, id: JobId) -> Result<JobStatus, SchedulerError> {
        let record = self.jobs.get(&id).ok_or(SchedulerError::UnknownJob(id))?;
        let executed = match record.state {
            JobState::Running { since } => record.executed + (self.clock.now() - since),
            _ => record.executed,
        };
        Ok(JobStatus {
            id,
            state: record.state.clone(),
            cpus: record.spec.cpus,
            priority: record.effective_priority,
            submitted: record.submitted,
            executed,
        })
    }

    /// Snapshots of every job, in id order.
    pub fn statuses(&self) -> Vec<JobStatus> {
        self.jobs.keys().map(|&id| self.status(id).expect("known id")).collect()
    }

    /// Forgets a terminal job: its record and its tag-index entry go, so
    /// a server that retires what it cancels holds only live jobs. Its
    /// final event was sent to the subscribers when it ended; after
    /// this, [`submit`](LocalScheduler::submit) would accept its id
    /// again.
    ///
    /// # Errors
    ///
    /// [`SchedulerError::UnknownJob`] / [`SchedulerError::InvalidTransition`]
    /// for a job that has not reached a terminal state.
    pub fn retire(&mut self, id: JobId) -> Result<(), SchedulerError> {
        let record = self.jobs.get(&id).ok_or(SchedulerError::UnknownJob(id))?;
        if !record.state.is_terminal() {
            return Err(SchedulerError::InvalidTransition {
                job: id,
                operation: "retire",
                state: record.state.label().to_string(),
            });
        }
        let record = self.jobs.remove(&id).expect("checked above");
        if let Some(tag) = &record.spec.tag {
            if let Some(ids) = self.tag_index.get_mut(tag) {
                if let Ok(at) = ids.binary_search(&id) {
                    ids.remove(at);
                }
                if ids.is_empty() {
                    self.tag_index.remove(tag);
                }
            }
        }
        Ok(())
    }

    /// Non-terminal jobs carrying `tag`, via the maintained index (the T4
    /// fast path).
    pub fn jobs_with_tag(&self, tag: &str) -> Vec<JobId> {
        self.tag_index
            .get(tag)
            .map(|ids| {
                ids.iter().filter(|id| !self.jobs[id].state.is_terminal()).copied().collect()
            })
            .unwrap_or_default()
    }

    /// Non-terminal jobs carrying `tag`, by scanning every record (the T4
    /// ablation baseline).
    pub fn jobs_with_tag_scan(&self, tag: &str) -> Vec<JobId> {
        self.jobs
            .iter()
            .filter(|(_, r)| !r.state.is_terminal() && r.spec.tag.as_deref() == Some(tag))
            .map(|(&id, _)| id)
            .collect()
    }

    /// Per-account usage accounting.
    pub fn usage(&self, account: &str) -> AccountUsage {
        self.usage.get(account).cloned().unwrap_or_default()
    }
}

/// Charges a running stint of `spec`'s processors to its account, which
/// `submit` entered in `usage` when it admitted the job.
fn charge_stint<'a>(
    usage: &'a mut HashMap<String, AccountUsage>,
    spec: &JobSpec,
    stint: SimDuration,
) -> &'a mut AccountUsage {
    let entry = usage.get_mut(&spec.account).expect("submit entered the account");
    entry.cpu_seconds += u64::from(spec.cpus) * stint.as_secs();
    entry
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(nodes: usize, cpus: u32) -> (SimClock, LocalScheduler) {
        let clock = SimClock::new();
        let sched = LocalScheduler::new(Cluster::uniform(nodes, cpus, 8192), &clock);
        (clock, sched)
    }

    fn mins(m: u64) -> SimDuration {
        SimDuration::from_mins(m)
    }

    /// Submits `spec` under id `n` and returns the id.
    fn submit_as(
        sched: &mut LocalScheduler,
        n: u64,
        spec: JobSpec,
    ) -> Result<JobId, SchedulerError> {
        sched.submit(JobId(n), spec).map(|()| JobId(n))
    }

    #[test]
    fn job_runs_to_completion() {
        let (clock, mut sched) = setup(1, 4);
        let id = submit_as(&mut sched, 1, JobSpec::new("a", "u1", 2, mins(10))).unwrap();
        assert!(matches!(sched.status(id).unwrap().state, JobState::Running { .. }));
        sched.run_until(clock.now() + mins(10));
        let status = sched.status(id).unwrap();
        assert_eq!(status.state, JobState::Completed { at: SimTime::from_secs(600) });
        assert_eq!(status.executed, mins(10));
    }

    #[test]
    fn jobs_queue_when_cluster_full() {
        let (_clock, mut sched) = setup(1, 4);
        let first = submit_as(&mut sched, 1, JobSpec::new("a", "u1", 4, mins(10))).unwrap();
        let second = submit_as(&mut sched, 2, JobSpec::new("b", "u2", 4, mins(5))).unwrap();
        assert_eq!(sched.pending_count(), 1);
        assert_eq!(sched.running_count(), 1);
        let end = sched.drain();
        // Second starts when first completes at t=10, runs 5 → ends t=15.
        assert_eq!(end, SimTime::from_secs(900));
        assert!(matches!(sched.status(first).unwrap().state, JobState::Completed { .. }));
        assert!(matches!(sched.status(second).unwrap().state, JobState::Completed { .. }));
    }

    #[test]
    fn priority_orders_the_queue() {
        let (_clock, mut sched) = setup(1, 4);
        let _running = submit_as(&mut sched, 1, JobSpec::new("hog", "u1", 4, mins(10))).unwrap();
        let low = submit_as(&mut sched, 2, JobSpec::new("low", "u2", 4, mins(1))).unwrap();
        let high =
            submit_as(&mut sched, 3, JobSpec::new("high", "u3", 4, mins(1)).with_priority(10))
                .unwrap();
        sched.drain();
        let low_done = match sched.status(low).unwrap().state {
            JobState::Completed { at } => at,
            s => panic!("low: {s}"),
        };
        let high_done = match sched.status(high).unwrap().state {
            JobState::Completed { at } => at,
            s => panic!("high: {s}"),
        };
        assert!(high_done < low_done, "higher priority completes first");
    }

    #[test]
    fn backfill_lets_small_jobs_pass_blocked_head() {
        let (clock, mut sched) = setup(1, 4);
        let _running = submit_as(&mut sched, 1, JobSpec::new("hog", "u1", 3, mins(10))).unwrap();
        // Head of queue needs 4 cpus (blocked), a 1-cpu job is behind it.
        let _blocked =
            submit_as(&mut sched, 2, JobSpec::new("big", "u2", 4, mins(1)).with_priority(5))
                .unwrap();
        let small = submit_as(&mut sched, 3, JobSpec::new("small", "u3", 1, mins(1))).unwrap();
        assert!(matches!(sched.status(small).unwrap().state, JobState::Running { .. }));
        let _ = clock;
    }

    #[test]
    fn without_backfill_the_head_blocks() {
        let clock = SimClock::new();
        let mut sched = LocalScheduler::with_config(
            Cluster::uniform(1, 4, 8192),
            &clock,
            SchedulerConfig { backfill: false },
        );
        let _running = submit_as(&mut sched, 1, JobSpec::new("hog", "u1", 3, mins(10))).unwrap();
        let _blocked =
            submit_as(&mut sched, 2, JobSpec::new("big", "u2", 4, mins(1)).with_priority(5))
                .unwrap();
        let small = submit_as(&mut sched, 3, JobSpec::new("small", "u3", 1, mins(1))).unwrap();
        assert!(matches!(sched.status(small).unwrap().state, JobState::Pending));
    }

    #[test]
    fn cancel_pending_running_and_suspended() {
        let (clock, mut sched) = setup(1, 2);
        let running = submit_as(&mut sched, 1, JobSpec::new("r", "u1", 2, mins(10))).unwrap();
        let pending = submit_as(&mut sched, 2, JobSpec::new("p", "u2", 2, mins(10))).unwrap();
        sched.run_until(clock.now() + mins(2));
        sched.cancel(pending).unwrap();
        assert!(matches!(sched.status(pending).unwrap().state, JobState::Cancelled { .. }));
        sched.cancel(running).unwrap();
        assert!(matches!(sched.status(running).unwrap().state, JobState::Cancelled { .. }));
        // Cancelling again is an invalid transition.
        assert!(matches!(sched.cancel(running), Err(SchedulerError::InvalidTransition { .. })));
        // Resources were freed.
        assert_eq!(sched.utilization(), 0.0);
    }

    #[test]
    fn suspend_frees_cpus_for_urgent_job_and_resume_finishes_work() {
        let (clock, mut sched) = setup(1, 4);
        let long = submit_as(&mut sched, 1, JobSpec::new("long", "u1", 4, mins(30))).unwrap();
        sched.run_until(clock.now() + mins(10));

        // VO admin suspends the long job to run an urgent one (the paper's
        // short-notice high-priority scenario).
        sched.suspend(long).unwrap();
        assert_eq!(sched.utilization(), 0.0);
        let urgent =
            submit_as(&mut sched, 2, JobSpec::new("urgent", "u2", 4, mins(5)).with_priority(100))
                .unwrap();
        assert!(matches!(sched.status(urgent).unwrap().state, JobState::Running { .. }));
        sched.run_until(clock.now() + mins(5));
        assert!(matches!(sched.status(urgent).unwrap().state, JobState::Completed { .. }));

        // Resume the long job; it needs its remaining 20 minutes.
        sched.resume(long).unwrap();
        sched.drain();
        let status = sched.status(long).unwrap();
        assert!(matches!(status.state, JobState::Completed { .. }));
        assert_eq!(status.executed, mins(30));
        // 10 min before + 20 after; finished at 10+5+20 = 35 min.
        assert_eq!(clock.now(), SimTime::from_secs(35 * 60));
    }

    #[test]
    fn suspend_only_running() {
        let (_clock, mut sched) = setup(1, 2);
        let a = submit_as(&mut sched, 1, JobSpec::new("a", "u1", 2, mins(10))).unwrap();
        let b = submit_as(&mut sched, 2, JobSpec::new("b", "u2", 2, mins(10))).unwrap();
        assert!(sched.suspend(b).is_err(), "cannot suspend pending");
        sched.suspend(a).unwrap();
        assert!(sched.suspend(a).is_err(), "cannot suspend twice");
        assert!(sched.resume(b).is_err(), "cannot resume pending");
    }

    #[test]
    fn wall_limit_kills_overrunning_job() {
        let (clock, mut sched) = setup(1, 2);
        let id = submit_as(
            &mut sched,
            1,
            JobSpec::new("over", "u1", 1, mins(60)).with_wall_limit(mins(10)),
        )
        .unwrap();
        sched.run_until(clock.now() + mins(20));
        let status = sched.status(id).unwrap();
        assert_eq!(status.state, JobState::TimedOut { at: SimTime::from_secs(600) });
        assert_eq!(status.executed, mins(10));
        // A timed-out job does not count as completed.
        assert_eq!(sched.usage("u1").jobs_completed, 0);
        assert_eq!(sched.usage("u1").cpu_seconds, 600);
    }

    #[test]
    fn usage_accounting_accumulates() {
        let (_clock, mut sched) = setup(1, 4);
        let a = submit_as(&mut sched, 1, JobSpec::new("a", "bliu", 2, mins(10))).unwrap();
        let b = submit_as(&mut sched, 2, JobSpec::new("b", "bliu", 2, mins(5))).unwrap();
        sched.drain();
        let usage = sched.usage("bliu");
        assert_eq!(usage.jobs_submitted, 2);
        assert_eq!(usage.jobs_completed, 2);
        assert_eq!(usage.cpu_seconds, 2 * 600 + 2 * 300);
        let _ = (a, b);
        assert_eq!(sched.usage("nobody"), AccountUsage::default());
    }

    #[test]
    fn queue_admission_and_boost() {
        let (_clock, mut sched) = setup(2, 8);
        sched.add_queue(SchedulerQueue::new("small").with_max_cpus(2));
        sched.add_queue(SchedulerQueue::new("urgent").with_priority_boost(50));
        assert!(matches!(
            submit_as(&mut sched, 1, JobSpec::new("big", "u1", 4, mins(1)).with_queue("small")),
            Err(SchedulerError::QueueLimitExceeded { .. })
        ));
        assert!(matches!(
            submit_as(&mut sched, 2, JobSpec::new("x", "u1", 1, mins(1)).with_queue("nope")),
            Err(SchedulerError::UnknownQueue(_))
        ));
        let boosted =
            submit_as(&mut sched, 3, JobSpec::new("u", "u1", 1, mins(1)).with_queue("urgent"))
                .unwrap();
        assert_eq!(sched.status(boosted).unwrap().priority, 50);
    }

    #[test]
    fn impossible_jobs_are_rejected_up_front() {
        let (_clock, mut sched) = setup(2, 4);
        assert!(matches!(
            submit_as(&mut sched, 1, JobSpec::new("huge", "u1", 9, mins(1))),
            Err(SchedulerError::InsufficientResources { .. })
        ));
        assert!(matches!(
            submit_as(&mut sched, 2, JobSpec::new("fat", "u1", 1, mins(1)).with_memory(65_536)),
            Err(SchedulerError::InsufficientResources { .. })
        ));
    }

    #[test]
    fn set_priority_reorders_pending() {
        let (_clock, mut sched) = setup(1, 4);
        let _hog = submit_as(&mut sched, 1, JobSpec::new("hog", "u1", 4, mins(10))).unwrap();
        let first = submit_as(&mut sched, 2, JobSpec::new("first", "u2", 4, mins(1))).unwrap();
        let second = submit_as(&mut sched, 3, JobSpec::new("second", "u3", 4, mins(1))).unwrap();
        sched.set_priority(second, 99).unwrap();
        sched.drain();
        let t_first = match sched.status(first).unwrap().state {
            JobState::Completed { at } => at,
            s => panic!("{s}"),
        };
        let t_second = match sched.status(second).unwrap().state {
            JobState::Completed { at } => at,
            s => panic!("{s}"),
        };
        assert!(t_second < t_first);
    }

    #[test]
    fn tag_queries_agree_between_index_and_scan() {
        let (_clock, mut sched) = setup(4, 8);
        for i in 0..6 {
            let tag = if i % 2 == 0 { "NFC" } else { "ADS" };
            let spec = JobSpec::new(format!("j{i}"), "u", 1, mins(10)).with_tag(tag);
            submit_as(&mut sched, i + 1, spec).unwrap();
        }
        let mut indexed = sched.jobs_with_tag("NFC");
        let mut scanned = sched.jobs_with_tag_scan("NFC");
        indexed.sort();
        scanned.sort();
        assert_eq!(indexed, scanned);
        assert_eq!(indexed.len(), 3);
        // Terminal jobs drop out of both.
        sched.cancel(indexed[0]).unwrap();
        assert_eq!(sched.jobs_with_tag("NFC").len(), 2);
        assert_eq!(sched.jobs_with_tag_scan("NFC").len(), 2);
        assert!(sched.jobs_with_tag("NOPE").is_empty());
    }

    #[test]
    fn retire_forgets_terminal_jobs_only() {
        let (_clock, mut sched) = setup(1, 4);
        let ids: Vec<JobId> = (0..3)
            .map(|i| {
                let spec = JobSpec::new(format!("j{i}"), "u", 1, mins(10)).with_tag("NFC");
                submit_as(&mut sched, i + 1, spec)
            })
            .collect::<Result<_, _>>()
            .unwrap();
        let events = sched.subscribe();
        assert!(matches!(sched.retire(ids[1]), Err(SchedulerError::InvalidTransition { .. })));
        sched.cancel(ids[1]).unwrap();
        sched.retire(ids[1]).unwrap();
        assert_eq!(sched.status(ids[1]), Err(SchedulerError::UnknownJob(ids[1])));
        assert_eq!(sched.retire(ids[1]), Err(SchedulerError::UnknownJob(ids[1])));
        assert_eq!(sched.statuses().len(), 2);
        assert_eq!(sched.jobs_with_tag("NFC"), vec![ids[0], ids[2]]);
        // The cancellation event outlives the record. A held id is
        // refused; a retired one is the caller's to never reissue.
        assert!(events.try_iter().any(|e| e.job == ids[1] && e.state.label() == "cancelled"));
        let spec = JobSpec::new("j3", "u", 1, mins(10));
        assert_eq!(sched.submit(ids[2], spec.clone()), Err(SchedulerError::DuplicateJob(ids[2])));
        assert_eq!(submit_as(&mut sched, 2, spec), Ok(ids[1]));
    }

    #[test]
    fn out_of_order_ids_keep_the_tag_index_sorted() {
        let (_clock, mut sched) = setup(1, 4);
        for n in [6, 5] {
            submit_as(&mut sched, n, JobSpec::new("j", "u", 1, mins(10)).with_tag("NFC")).unwrap();
        }
        assert_eq!(sched.jobs_with_tag("NFC"), sched.jobs_with_tag_scan("NFC"));
        assert_eq!(sched.jobs_with_tag("NFC"), vec![JobId(5), JobId(6)]);
        sched.cancel(JobId(5)).unwrap();
        sched.retire(JobId(5)).unwrap();
        assert_eq!(sched.jobs_with_tag("NFC"), vec![JobId(6)]);
        sched.cancel(JobId(6)).unwrap();
        sched.retire(JobId(6)).unwrap();
        assert!(sched.jobs_with_tag("NFC").is_empty());
    }

    #[test]
    fn unknown_job_errors() {
        let (_clock, mut sched) = setup(1, 1);
        let ghost = JobId(999);
        assert_eq!(sched.cancel(ghost), Err(SchedulerError::UnknownJob(ghost)));
        assert_eq!(sched.suspend(ghost), Err(SchedulerError::UnknownJob(ghost)));
        assert_eq!(sched.resume(ghost), Err(SchedulerError::UnknownJob(ghost)));
        assert!(sched.status(ghost).is_err());
        assert!(sched.set_priority(ghost, 1).is_err());
    }

    #[test]
    fn status_reports_live_executed_time() {
        let (clock, mut sched) = setup(1, 2);
        let id = submit_as(&mut sched, 1, JobSpec::new("a", "u", 1, mins(10))).unwrap();
        sched.run_until(clock.now() + mins(4));
        assert_eq!(sched.status(id).unwrap().executed, mins(4));
    }

    #[test]
    fn next_event_time_tracks_earliest_finish() {
        let (_clock, mut sched) = setup(1, 4);
        assert_eq!(sched.next_event_time(), None);
        submit_as(&mut sched, 1, JobSpec::new("a", "u", 1, mins(10))).unwrap();
        submit_as(&mut sched, 2, JobSpec::new("b", "u", 1, mins(3))).unwrap();
        assert_eq!(sched.next_event_time(), Some(SimTime::from_secs(180)));
    }

    #[test]
    fn event_stream_records_every_transition() {
        let (clock, mut sched) = setup(1, 4);
        let stream = sched.subscribe();
        let id = submit_as(&mut sched, 1, JobSpec::new("a", "u", 4, mins(10))).unwrap();
        sched.run_until(clock.now() + mins(2));
        sched.suspend(id).unwrap();
        sched.resume(id).unwrap();
        sched.drain();
        let events: Vec<JobEvent> = stream.try_iter().collect();
        let labels: Vec<&str> = events.iter().map(|e| e.state.label()).collect();
        assert_eq!(
            labels,
            vec!["pending", "running", "suspended", "pending", "running", "completed"]
        );
        assert!(events.iter().all(|e| e.job == id));
        // Timestamps are monotone.
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
        // Receiving empties the stream.
        assert!(stream.try_recv().is_err());
    }

    fn labels(stream: &Receiver<JobEvent>) -> Vec<&'static str> {
        stream.try_iter().map(|e| e.state.label()).collect()
    }

    #[test]
    fn a_subscriber_gets_only_later_transitions() {
        let (_clock, mut sched) = setup(1, 4);
        let id = submit_as(&mut sched, 1, JobSpec::new("a", "u", 4, mins(10))).unwrap();
        let late = sched.subscribe();
        assert!(late.try_recv().is_err());
        sched.suspend(id).unwrap();
        assert_eq!(labels(&late), vec!["suspended"]);
    }

    #[test]
    fn every_live_subscriber_gets_every_transition() {
        let (_clock, mut sched) = setup(1, 4);
        let first = sched.subscribe();
        let second = sched.subscribe();
        let id = submit_as(&mut sched, 1, JobSpec::new("a", "u", 4, mins(10))).unwrap();
        assert_eq!(labels(&first), vec!["pending", "running"]);
        assert_eq!(labels(&second), vec!["pending", "running"]);
        // A dropped receiver is pruned on the next send; the other one
        // keeps receiving.
        drop(first);
        sched.suspend(id).unwrap();
        assert_eq!(sched.subscribers.len(), 1);
        assert_eq!(labels(&second), vec!["suspended"]);
        sched.cancel(id).unwrap();
        assert_eq!(labels(&second), vec!["cancelled"]);
        // With no receiver left, the next transition prunes the last
        // sender and nothing is kept.
        drop(second);
        submit_as(&mut sched, 2, JobSpec::new("b", "u", 1, mins(10))).unwrap();
        assert!(sched.subscribers.is_empty());
    }

    #[test]
    fn statuses_lists_all_jobs_in_submission_order() {
        let (_clock, mut sched) = setup(1, 4);
        let a = submit_as(&mut sched, 1, JobSpec::new("a", "u", 1, mins(1))).unwrap();
        let b = submit_as(&mut sched, 2, JobSpec::new("b", "u", 1, mins(1))).unwrap();
        let all = sched.statuses();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].id, a);
        assert_eq!(all[1].id, b);
    }
}
