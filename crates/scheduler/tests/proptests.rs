//! Property-based invariants of the local resource manager: no matter
//! what sequence of submissions and management operations arrives, the
//! cluster never oversubscribes, time-accounting stays exact, and every
//! job reaches a terminal state when drained.

use proptest::prelude::*;

use gridauthz_clock::{SimClock, SimDuration};
use gridauthz_scheduler::{Cluster, JobId, JobSpec, JobState, LocalScheduler};

#[derive(Debug, Clone)]
enum Op {
    Submit { cpus: u32, memory: u32, work_mins: u64, priority: i64, tagged: bool },
    Cancel(usize),
    Suspend(usize),
    Resume(usize),
    SetPriority(usize, i64),
    Retire(usize),
    Advance(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1u32..6, 64u32..2048, 1u64..40, -5i64..6, any::<bool>()).prop_map(
            |(cpus, memory, work_mins, priority, tagged)| Op::Submit {
                cpus,
                memory,
                work_mins,
                priority,
                tagged
            }
        ),
        1 => (0usize..24).prop_map(Op::Cancel),
        1 => (0usize..24).prop_map(Op::Suspend),
        1 => (0usize..24).prop_map(Op::Resume),
        1 => ((0usize..24), -5i64..6).prop_map(|(i, p)| Op::SetPriority(i, p)),
        1 => (0usize..24).prop_map(Op::Retire),
        2 => (1u64..30).prop_map(Op::Advance),
    ]
}

fn total_running_cpus(sched: &LocalScheduler, jobs: &[JobId]) -> u32 {
    jobs.iter()
        .filter_map(|&id| sched.status(id).ok())
        .filter(|s| matches!(s.state, JobState::Running { .. }))
        .map(|s| s.cpus)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scheduler_invariants_hold_under_arbitrary_operations(
        ops in prop::collection::vec(arb_op(), 1..40),
        id_keys in prop::collection::vec(any::<u32>(), 40),
    ) {
        let clock = SimClock::new();
        let total_cpus = 8u32;
        let mut sched = LocalScheduler::new(Cluster::uniform(2, 4, 4096), &clock);
        let mut jobs: Vec<JobId> = Vec::new();
        // The caller numbers the jobs, here in shuffled order: the tag
        // index must stay sorted whatever order ids arrive in.
        let mut ids: Vec<u64> = (1..=40).collect();
        ids.sort_by_key(|&n| (id_keys[n as usize - 1], n));
        let mut unused_ids = ids.into_iter().map(JobId);
        let mut work_of: std::collections::HashMap<JobId, SimDuration> = Default::default();

        for op in ops {
            match op {
                Op::Submit { cpus, memory, work_mins, priority, tagged } => {
                    let mut spec = JobSpec::new("job", "acct", cpus, SimDuration::from_mins(work_mins))
                        .with_memory(memory)
                        .with_priority(priority);
                    if tagged {
                        spec = spec.with_tag("NFC");
                    }
                    let id = unused_ids.next().expect("one id per operation");
                    if sched.submit(id, spec).is_ok() {
                        jobs.push(id);
                        work_of.insert(id, SimDuration::from_mins(work_mins));
                    }
                }
                Op::Cancel(i) if !jobs.is_empty() => {
                    let _ = sched.cancel(jobs[i % jobs.len()]);
                }
                Op::Suspend(i) if !jobs.is_empty() => {
                    let _ = sched.suspend(jobs[i % jobs.len()]);
                }
                Op::Resume(i) if !jobs.is_empty() => {
                    let _ = sched.resume(jobs[i % jobs.len()]);
                }
                Op::SetPriority(i, p) if !jobs.is_empty() => {
                    let _ = sched.set_priority(jobs[i % jobs.len()], p);
                }
                Op::Retire(i) if !jobs.is_empty() => {
                    let id = jobs[i % jobs.len()];
                    if sched.retire(id).is_ok() {
                        jobs.retain(|&job| job != id);
                    }
                }
                Op::Advance(mins) => {
                    sched.run_until(clock.now() + SimDuration::from_mins(mins));
                }
                _ => {}
            }

            // Invariant 1: never more running CPUs than the cluster has.
            prop_assert!(total_running_cpus(&sched, &jobs) <= total_cpus);
            // Invariant 2: utilization stays in [0, 1].
            let u = sched.utilization();
            prop_assert!((0.0..=1.0).contains(&u), "utilization {u}");
            // Invariant 3: tag index and scan always agree, in id order.
            prop_assert_eq!(sched.jobs_with_tag("NFC"), sched.jobs_with_tag_scan("NFC"));
        }

        // Resume anything left suspended (suspended jobs legitimately
        // wait forever), then drain: every job must reach a terminal
        // state with exact accounting.
        for &id in &jobs {
            if matches!(sched.status(id).expect("job exists").state, JobState::Suspended { .. }) {
                sched.resume(id).expect("suspended jobs resume");
            }
        }
        sched.drain();
        for &id in &jobs {
            let status = sched.status(id).expect("job exists");
            prop_assert!(
                status.state.is_terminal(),
                "{id} left in {:?} after drain",
                status.state
            );
            if let JobState::Completed { .. } = status.state {
                // Completed jobs executed exactly their submitted work —
                // suspension/resume cycles never lose or duplicate time.
                prop_assert_eq!(status.executed, work_of[&id]);
            }
        }
        // Nothing remains allocated.
        prop_assert_eq!(sched.utilization(), 0.0);
        prop_assert_eq!(sched.running_count(), 0);
        prop_assert_eq!(sched.pending_count(), 0);
    }
}
