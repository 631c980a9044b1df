//! T5: management-request authorization throughput under concurrency
//! (§6.2's trust-model discussion: the PEP sits on the shared service
//! path, so its scalability matters).
//!
//! Three groups:
//!
//! * `t5_mgmt_throughput` — wall time for a fixed batch of `status`
//!   requests split over 1..8 threads against one shared `GramServer`.
//! * `t5_locked_vs_snapshot` — the authorization state path alone:
//!   the pre-snapshot architecture (every decision evaluated under a
//!   read lock, every reload under the write lock) against the
//!   snapshot-published `AuthzEngine` (the lock held only to clone the
//!   snapshot's `Arc`), flooded from 1/2/4/8 threads while a publisher
//!   concurrently republishes the policy.
//! * `t5_batch` — the T4 jobtag fan-out (requirement 3 of §2)
//!   authorized element-wise (one authenticate + one decision per job)
//!   vs as one batch (`status_by_tag`: one authenticate, one snapshot
//!   resolution for the whole working set).

use std::sync::{Arc, RwLock};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gridauthz_bench::{combined_pdp_with_n_sources, extended_testbed, sanctioned_request};
use gridauthz_clock::SimDuration;
use gridauthz_core::{AuthzEngine, AuthzRequest, CombinedPdp};

const REQUESTS: usize = 512;
/// Publications interleaved with each measured flood.
const RELOADS_PER_ITER: usize = 16;

fn bench_mgmt_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("t5_mgmt_throughput");
    group.sample_size(20);
    group.throughput(Throughput::Elements(REQUESTS as u64));

    let tb = extended_testbed(8);
    let tb = Arc::new(tb);
    // Each member starts one long job it will repeatedly query.
    let contacts: Vec<_> = (0..8)
        .map(|i| {
            tb.member_client(i)
                .submit(
                    &tb.server,
                    "&(executable = TRANSP)(jobtag = NFC)(count = 2)",
                    SimDuration::from_hours(10),
                )
                .expect("bench job admits")
        })
        .collect();

    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &threads| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for t in 0..threads {
                        let tb = Arc::clone(&tb);
                        let contact = contacts[t % contacts.len()].clone();
                        scope.spawn(move || {
                            let client = tb.member_client(t % tb.members.len());
                            for _ in 0..REQUESTS / threads {
                                let report = client.status(&tb.server, &contact);
                                std::hint::black_box(report.expect("own-job status permits"));
                            }
                        });
                    }
                });
            })
        });
    }
    group.finish();
}

/// The pre-snapshot authorization state path, reproduced locally as the
/// baseline: a reader/writer lock around the combined PDP.
struct LockedPdp {
    pdp: RwLock<CombinedPdp>,
}

impl LockedPdp {
    fn decide_is_permit(&self, request: &AuthzRequest) -> bool {
        self.pdp.read().expect("bench lock never poisons").decide(request).is_permit()
    }

    fn reload(&self, pdp: CombinedPdp) {
        *self.pdp.write().expect("bench lock never poisons") = pdp;
    }
}

/// One measured iteration: `threads` readers each decide
/// `REQUESTS / threads` times while one publisher republishes the
/// policy `RELOADS_PER_ITER` times. Identical structure for both
/// series; only the state container differs.
fn flood(threads: usize, decide: &(dyn Fn() + Sync), publish: &(dyn Fn() + Sync)) {
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || {
                for _ in 0..REQUESTS / threads {
                    decide();
                }
            });
        }
        scope.spawn(move || {
            for _ in 0..RELOADS_PER_ITER {
                publish();
                std::thread::yield_now();
            }
        });
    });
}

fn bench_locked_vs_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("t5_locked_vs_snapshot");
    group.sample_size(20);
    group.throughput(Throughput::Elements(REQUESTS as u64));

    let request = sanctioned_request(0);
    // Replacement policies are prebuilt; a reload publishes a clone
    // (compiled programs are shared via `Arc`), so both series pay the
    // same off-path construction cost.
    let fresh = combined_pdp_with_n_sources(2);
    let locked = LockedPdp { pdp: RwLock::new(fresh.clone()) };
    let engine = AuthzEngine::new("t5", fresh.clone());
    assert!(locked.decide_is_permit(&request), "fixture must permit");
    assert!(engine.decide(&request).is_permit(), "fixture must permit");

    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("locked", threads), &threads, |b, &threads| {
            b.iter(|| {
                flood(
                    threads,
                    &|| {
                        std::hint::black_box(locked.decide_is_permit(&request));
                    },
                    &|| locked.reload(fresh.clone()),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("snapshot", threads), &threads, |b, &threads| {
            b.iter(|| {
                flood(
                    threads,
                    &|| {
                        std::hint::black_box(engine.decide(&request).is_permit());
                    },
                    &|| engine.reload(fresh.clone()),
                )
            })
        });
    }
    group.finish();
}

fn bench_batch_fanout(c: &mut Criterion) {
    const JOBS: usize = 64;

    let mut group = c.benchmark_group("t5_batch");
    group.sample_size(20);
    group.throughput(Throughput::Elements(JOBS as u64));

    let tb = extended_testbed(8);
    for i in 0..JOBS {
        tb.member_client(i % tb.members.len())
            .submit(
                &tb.server,
                "&(executable = TRANSP)(jobtag = NFC)(count = 2)",
                SimDuration::from_hours(10),
            )
            .expect("bench job admits");
    }
    let admin = tb.admin.chain();

    // The admin polls the whole NFC working set: one authenticated call
    // per job, each resolving its own policy snapshot...
    group.bench_function(BenchmarkId::new("elementwise", JOBS), |b| {
        b.iter(|| {
            let contacts = tb.server.jobs_with_tag("NFC");
            assert_eq!(contacts.len(), JOBS);
            for contact in &contacts {
                let report = tb.server.status(admin, contact);
                std::hint::black_box(report.expect("admin information grant covers NFC"));
            }
        })
    });

    // ...vs one authenticate + one batch authorization under a single
    // snapshot for the entire fan-out.
    group.bench_function(BenchmarkId::new("by_tag", JOBS), |b| {
        b.iter(|| {
            let reports = tb.server.status_by_tag(admin, "NFC").expect("admin authenticates");
            assert_eq!(reports.len(), JOBS);
            for (_, report) in &reports {
                std::hint::black_box(report.as_ref().expect("admin information grant covers NFC"));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_mgmt_throughput, bench_locked_vs_snapshot, bench_batch_fanout);
criterion_main!(benches);
