//! T6: the enforcement ladder of §6.1 — per-job setup and per-operation
//! check cost for static accounts, dynamic accounts (cold lease vs warm
//! reuse), and sandboxing.
//!
//! Expected shape: static mapping is cheapest; dynamic accounts pay a
//! configuration cost on first lease that amortizes on reuse; sandbox
//! checks add a small per-operation cost — the price of catching the
//! violations accounts cannot see (`tests/enforcement_ladder.rs`
//! asserts that catch rate).

use criterion::{criterion_group, criterion_main, Criterion};
use gridauthz_clock::{SimClock, SimDuration};
use gridauthz_credential::DistinguishedName;
use gridauthz_enforcement::{
    AccessKind, AccountRegistry, DynamicAccountPool, FileMode, FileSystem, Sandbox, SandboxProfile,
};

fn bench_account_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("t6_account_setup");

    // Static account: grid-mapfile style lookup in a prebuilt registry.
    let mut registry = AccountRegistry::new();
    for i in 0..500 {
        registry.create_static(&format!("user{i:04}"));
    }
    group.bench_function("static_lookup", |b| {
        b.iter(|| std::hint::black_box(registry.get("user0250").expect("account exists")))
    });

    // Dynamic account, cold path: lease + configure + release each time.
    let clock = SimClock::new();
    let subject: DistinguishedName = "/O=Grid/CN=Visitor".parse().expect("DN parses");
    let mut cold_pool = DynamicAccountPool::new("grid", 64, 50_000, SimDuration::from_mins(30));
    group.bench_function("dynamic_lease_cold", |b| {
        b.iter(|| {
            let lease = cold_pool
                .lease(&subject, vec!["fusion".into(), "transp".into()], clock.now())
                .expect("pool has capacity");
            std::hint::black_box(&lease);
            cold_pool.release(&subject);
        })
    });

    // Dynamic account, warm path: the same subject re-leases.
    let mut warm_pool = DynamicAccountPool::new("grid", 64, 50_000, SimDuration::from_mins(30));
    warm_pool.lease(&subject, vec!["fusion".into()], clock.now()).expect("pool has capacity");
    group.bench_function("dynamic_lease_warm", |b| {
        b.iter(|| {
            let lease = warm_pool
                .lease(&subject, vec!["fusion".into()], clock.now())
                .expect("live lease renews");
            std::hint::black_box(lease);
        })
    });
    group.finish();
}

fn bench_per_operation_checks(c: &mut Criterion) {
    let mut group = c.benchmark_group("t6_operation_checks");

    // Unix permission check (what account enforcement costs per access).
    let mut fs = FileSystem::new();
    fs.register("/sandbox/test", 0, "fusion", FileMode(0o775));
    fs.register("/home/other", 1001, "users", FileMode(0o700));
    let mut registry = AccountRegistry::new();
    let account = registry.create_static("bliu").with_group("fusion");
    group.bench_function("unix_permission_check", |b| {
        b.iter(|| {
            std::hint::black_box(fs.can_access(
                &account,
                "/sandbox/test/run.out",
                AccessKind::ReadWrite,
            ))
        })
    });

    // Sandbox checks (what fine-grain enforcement costs per operation).
    let profile = SandboxProfile::new()
        .allow_executable("TRANSP")
        .allow_path("/sandbox/test", AccessKind::ReadWrite)
        .with_memory_limit_mb(2048)
        .with_process_limit(8);
    group.bench_function("sandbox_exec_and_path_check", |b| {
        b.iter(|| {
            let mut sandbox = Sandbox::new(profile.clone());
            let ok = sandbox.check_exec("TRANSP").is_ok()
                && sandbox.check_path("/sandbox/test/run.out", true).is_ok()
                && sandbox.check_memory(1024).is_ok();
            std::hint::black_box(ok)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_account_paths, bench_per_operation_checks);
criterion_main!(benches);
