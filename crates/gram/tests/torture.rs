//! Protocol-torture suite for the TCP front-end.
//!
//! The first test is the headline regression for the worker-pinning
//! bug: a fixed pool of workers each parked in `read()` on a silent
//! connection used to ignore the connection's admission deadline on
//! idle wakeups, so `workers` silent clients deadlocked the whole
//! front-end. The remaining tests drive the seeded adversary storms
//! from [`gridauthz_gram::torture`] and assert every lifecycle
//! invariant holds for every seed.
//!
//! `TORTURE_SEEDS=<n>` sets the storm sweep's seed count. The default
//! of 6 keeps `cargo test` quick; CI runs 25 seeds in release.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gridauthz_clock::{SimClock, SimDuration, WallClock};
use gridauthz_core::{paper, AdmissionClass, RequestContext};
use gridauthz_credential::{
    pem, CertificateAuthority, Credential, GridMapEntry, GridMapFile, TrustStore,
};
use gridauthz_gram::torture::{run_storm, TortureConfig};
use gridauthz_gram::{Frontend, FrontendConfig, GramServer, GramServerBuilder, WireClient};
use gridauthz_telemetry::{labels, Gauge, Stage};

fn grid() -> (Credential, Arc<GramServer>) {
    let clock = SimClock::new();
    let ca = CertificateAuthority::new_root("/O=Grid/CN=CA", &clock).unwrap();
    let mut trust = TrustStore::new();
    trust.add_anchor(ca.certificate().clone());
    let bo = ca.issue_identity(paper::BO_LIU_DN, SimDuration::from_hours(24)).unwrap();
    let mut gridmap = GridMapFile::new();
    gridmap.insert(GridMapEntry::new(paper::bo_liu(), vec!["bliu".into()]));
    let server = GramServerBuilder::new("anl-cluster", &clock)
        .trust(trust)
        .gridmap(gridmap)
        .cluster(gridauthz_scheduler::Cluster::uniform(16, 8, 16_384))
        .build();
    (bo, Arc::new(server))
}

/// A front-end tuned for torture: tight connection budgets and idle
/// timeout so misbehaving peers are cut off in tens of milliseconds,
/// and a small frame limit so the oversized adversary is cheap.
fn torture_frontend_config(workers: usize) -> FrontendConfig {
    FrontendConfig {
        workers,
        max_frame_bytes: 4096,
        budget_interactive: SimDuration::from_millis(400),
        budget_batch: SimDuration::from_millis(400),
        idle_timeout: SimDuration::from_millis(120),
        error_budget: 3,
        ..FrontendConfig::default()
    }
}

/// The headline regression. Two workers, two clients that send a few
/// bytes and then go silent forever, one honest client behind them.
///
/// Before the fix, `serve_connection`'s idle-wakeup arm never checked
/// the connection's admission deadline: both workers stayed parked in
/// `read()` on the silent sockets, the honest client sat in the
/// admission queue with nobody to serve it, and this test hung until
/// the client's own budget expired. With deadline enforcement on idle
/// wakeups (plus the idle-read timeout), the workers cut the silent
/// connections off and the honest client is answered promptly.
#[test]
fn silent_connections_cannot_pin_the_worker_pool() {
    let (bo, server) = grid();
    let frontend =
        Frontend::bind(Arc::clone(&server), "127.0.0.1:0", torture_frontend_config(2)).unwrap();
    let addr = frontend.local_addr();

    // One silent connection per worker, each holding a partial frame so
    // the worker is committed to it.
    let mut silent = Vec::new();
    for i in 0..2 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(format!("GRAM/1 STATUS\njob: stall-{i}").as_bytes()).unwrap();
        silent.push(stream);
    }
    // Let both workers claim the silent connections before the honest
    // client shows up.
    std::thread::sleep(Duration::from_millis(60));

    let bo_pem = pem::encode_chain(bo.chain());
    let probe = format!("{bo_pem}GRAM/1 STATUS\njob: gram://nowhere/42\n\n");
    let started = Instant::now();
    let mut client = WireClient::connect(addr).unwrap();
    let ctx = RequestContext::with_budget(
        Arc::new(WallClock::new()),
        AdmissionClass::Interactive,
        SimDuration::from_secs(5),
    );
    let response = client
        .request(&ctx, &probe)
        .expect("the honest client must be answered while silent peers hold both workers");
    assert!(response.contains("unknown job gram://nowhere/42"), "{response}");
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "freeing a worker took {:?}",
        started.elapsed()
    );

    // Both silent connections were cut off — by the idle-read timeout
    // or the connection deadline — and each cutoff was counted.
    let telemetry = server.telemetry();
    let cutoff_deadline = Instant::now() + Duration::from_secs(2);
    let cutoffs = loop {
        let cutoffs = telemetry.counter(Stage::Admission, labels::IDLE_TIMEOUT)
            + telemetry.counter(Stage::Admission, labels::EXPIRED);
        if cutoffs >= 2 || Instant::now() >= cutoff_deadline {
            break cutoffs;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(cutoffs >= 2, "expected both silent connections cut off and counted, saw {cutoffs}");

    drop(silent);
    drop(client);
    let stats = frontend.stop();
    assert!(stats.iter().map(|s| s.connections).sum::<u64>() >= 3);
    // The pool is fully idle again: occupancy gauges read empty.
    assert_eq!(telemetry.gauge(Gauge::ConnectionsActive), 0);
    assert_eq!(telemetry.gauge(Gauge::OldestConnectionAgeMicros), 0);
    assert_eq!(telemetry.gauge(Gauge::WorkersTotal), 2);
}

/// Seeded storms over the full adversary rotation: slowloris, half-open
/// stalls, boundary-split frames, CRLF clients, unterminated and
/// oversized frames, garbage bytes, mid-frame hangups and pipelined
/// mixes — with honest clients probing throughout. Every seed must end
/// with every invariant intact (liveness, no bleed, recovery to idle,
/// refused-frame accounting).
#[test]
fn seeded_storms_hold_every_lifecycle_invariant() {
    let (bo, server) = grid();
    let frontend =
        Frontend::bind(Arc::clone(&server), "127.0.0.1:0", torture_frontend_config(3)).unwrap();
    let addr = frontend.local_addr();
    let config = TortureConfig::new(pem::encode_chain(bo.chain()), 4096);

    let seeds: u64 =
        std::env::var("TORTURE_SEEDS").ok().and_then(|raw| raw.parse().ok()).unwrap_or(6);
    for seed in 0..seeds {
        let report = run_storm(addr, server.telemetry(), seed, &config);
        assert!(report.passed(), "seed {seed} violations:\n{:#?}", report.violations);
        assert_eq!(
            report.live_answered,
            (config.live_clients * 2) as u64,
            "seed {seed}: every honest probe answered"
        );
        assert!(report.error_answers > 0, "seed {seed}: adversaries drew no refusals at all");
        assert!(
            report.refusals_counted >= report.error_answers,
            "seed {seed}: telemetry must account for every refusal"
        );
    }
    frontend.stop();
}
