//! T4: VO-wide job management (requirement 3 of §2) — finding every job
//! with a given `jobtag` among N live jobs, tag-indexed vs full scan.
//!
//! Expected shape: the index answers in time proportional to the match
//! count; the scan grows with the total job population.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gridauthz_clock::{SimClock, SimDuration};
use gridauthz_scheduler::{Cluster, JobId, JobSpec, LocalScheduler};

/// A scheduler loaded with `n` jobs, 10% tagged `NFC`, the rest spread
/// over other tags.
fn loaded_scheduler(n: usize) -> LocalScheduler {
    let clock = SimClock::new();
    // A huge cluster so every job is admitted (pending is fine too).
    let mut sched = LocalScheduler::new(Cluster::uniform(64, 64, 65_536), &clock);
    for i in 0..n {
        let tag = if i % 10 == 0 { "NFC".to_string() } else { format!("TAG{}", i % 97) };
        let spec =
            JobSpec::new(format!("job{i}"), "acct", 1, SimDuration::from_hours(10)).with_tag(tag);
        sched.submit(JobId(i as u64 + 1), spec).expect("bench job admits");
    }
    sched
}

fn bench_tag_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("t4_votag_management");
    for n in [100usize, 1_000, 10_000] {
        let sched = loaded_scheduler(n);
        let expected = n / 10;
        group.bench_with_input(BenchmarkId::new("indexed", n), &n, |b, _| {
            b.iter(|| {
                let jobs = sched.jobs_with_tag("NFC");
                assert_eq!(jobs.len(), expected);
                std::hint::black_box(jobs)
            })
        });
        group.bench_with_input(BenchmarkId::new("scan", n), &n, |b, _| {
            b.iter(|| {
                let jobs = sched.jobs_with_tag_scan("NFC");
                assert_eq!(jobs.len(), expected);
                std::hint::black_box(jobs)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tag_queries);
criterion_main!(benches);
