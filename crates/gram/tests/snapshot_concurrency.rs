//! Stress tests for the published-snapshot path (DESIGN.md's
//! "Published snapshots"): decision floods racing rapid policy
//! publication must never
//!
//! 1. serve a **stale permit after an acknowledged revocation** — once
//!    `reload`/`revoke_credential` has returned, every subsequently
//!    *started* decision reflects the new state, and
//! 2. observe a **torn snapshot** — a decision's per-source breakdown
//!    (and every element of one `decide_batch` or
//!    `authorize_batch_within`) always comes from a single publication,
//!    never a mix of generations.
//!
//! A property test additionally pins the batch APIs to their
//! element-wise counterparts over arbitrary request mixes.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gridauthz_clock::{SimClock, SimDuration};
use gridauthz_core::{
    paper, Action, AuthorizationCallout, AuthzEngine, AuthzFailure, AuthzRequest, CombinedPdp,
    Combiner, PdpCallout, PolicyOrigin, PolicySource, RequestContext,
};
use gridauthz_credential::{
    CertificateAuthority, Credential, GridMapEntry, GridMapFile, TrustStore,
};
use gridauthz_gram::{GramError, GramServer, GramServerBuilder};
use gridauthz_rsl::Conjunction;
use gridauthz_telemetry::{labels, DecisionTrace, Gauge, Stage};

use proptest::prelude::*;

fn conj(text: &str) -> Conjunction {
    gridauthz_rsl::parse(text).unwrap().as_conjunction().unwrap().clone()
}

/// A combined PDP whose every source name carries the publication
/// version (`s<i>@<version>`): any decision mixing versions across its
/// per-source entries must have straddled two publications.
fn versioned_pdp(sources: usize, version: u64) -> CombinedPdp {
    let policy = format!("{}: &(action = start)(executable = test1)", paper::BO_LIU_DN);
    let sources = (0..sources)
        .map(|i| {
            PolicySource::new(
                format!("s{i}@{version}"),
                PolicyOrigin::VirtualOrganization(format!("vo-{i}")),
                policy.parse().unwrap(),
            )
        })
        .collect();
    CombinedPdp::new(sources, Combiner::DenyOverrides)
}

/// The version stamp a per-source entry was published under.
fn version_of(source_name: &str) -> &str {
    source_name.split('@').nth(1).expect("versioned source name")
}

/// Every per-source entry of `decision-like` breakdowns must carry one
/// version; returns it.
fn sole_version<'a>(per_source: impl Iterator<Item = &'a str>) -> String {
    let versions: HashSet<&str> = per_source.map(version_of).collect();
    assert_eq!(versions.len(), 1, "torn snapshot: mixed versions {versions:?}");
    versions.into_iter().next().unwrap().to_string()
}

#[test]
fn floods_never_observe_torn_snapshots() {
    const SOURCES: usize = 4;
    const PUBLICATIONS: u64 = 400;
    let callout = PdpCallout::new("torn", versioned_pdp(SOURCES, 0));
    let request = AuthzRequest::start(paper::bo_liu(), conj("&(executable = test1)(count = 1)"));
    let batch: Vec<AuthzRequest> = (0..8).map(|_| request.clone()).collect();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            for version in 1..=PUBLICATIONS {
                callout.reload(versioned_pdp(SOURCES, version));
            }
            stop.store(true, Ordering::SeqCst);
        });
        for _ in 0..3 {
            scope.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    // A single decision never mixes versions.
                    let decision = callout.decide(&request);
                    assert_eq!(decision.per_source().len(), SOURCES);
                    sole_version(decision.per_source().iter().map(|(name, _)| name.as_ref()));

                    // A batch resolves one snapshot: every element of
                    // every decision agrees on the version.
                    let decisions = callout.decide_batch(&batch);
                    assert_eq!(decisions.len(), batch.len());
                    sole_version(
                        decisions
                            .iter()
                            .flat_map(|d| d.per_source().iter().map(|(name, _)| name.as_ref())),
                    );
                }
            });
        }
    });
}

/// A PDP that grants Bo `test1` under even versions and only Kate under
/// odd ones: a batch of identical Bo requests mixing permits and denials
/// must have straddled two publications.
fn parity_pdp(version: u64) -> CombinedPdp {
    let subject = if version.is_multiple_of(2) { paper::BO_LIU_DN } else { paper::KATE_KEAHEY_DN };
    let policy = format!("{subject}: &(action = start)(executable = test1)");
    CombinedPdp::new(
        vec![PolicySource::new("parity", PolicyOrigin::ResourceOwner, policy.parse().unwrap())],
        Combiner::DenyOverrides,
    )
}

/// Runs `batch` through the served batch path with no deadline.
fn authorize_batch_within(
    engine: &AuthzEngine,
    batch: &[AuthzRequest],
) -> Vec<Result<(), AuthzFailure>> {
    let mut traces: Vec<DecisionTrace> = batch.iter().map(|_| DecisionTrace::detached()).collect();
    engine.authorize_batch_within(&RequestContext::unbounded(), batch, &mut traces)
}

#[test]
fn served_batches_never_straddle_publications() {
    const PUBLICATIONS: u64 = 400;
    // Shaped like the GRAM server's engine: a chain holding the cached
    // PDP callout, reloaded in place.
    let callout = Arc::new(PdpCallout::cached("parity", parity_pdp(0)));
    let mut engine = AuthzEngine::pass_through("served");
    engine.push_callout(callout.clone());
    let request = AuthzRequest::start(paper::bo_liu(), conj("&(executable = test1)(count = 1)"));
    let batch: Vec<AuthzRequest> = (0..8).map(|_| request.clone()).collect();
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            for version in 1..=PUBLICATIONS {
                callout.reload(parity_pdp(version));
            }
            stop.store(true, Ordering::SeqCst);
        });
        for _ in 0..3 {
            scope.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    let outcomes = authorize_batch_within(&engine, &batch);
                    assert_eq!(outcomes.len(), batch.len());
                    let permits = outcomes.iter().filter(|outcome| outcome.is_ok()).count();
                    assert!(
                        permits == 0 || permits == batch.len(),
                        "torn snapshot: {permits} of {} identical requests permitted",
                        batch.len()
                    );
                }
            });
        }
    });
}

#[test]
fn no_stale_permit_after_acknowledged_reload() {
    let grant = format!("{}: &(action = start)(executable = test1)", paper::BO_LIU_DN);
    let revoked_policy = format!("{}: &(action = start)", paper::KATE_KEAHEY_DN);
    let pdp = |text: &str| {
        CombinedPdp::new(
            vec![PolicySource::new("local", PolicyOrigin::ResourceOwner, text.parse().unwrap())],
            Combiner::DenyOverrides,
        )
    };
    // A *cached* callout: the dangerous stale state is a cached permit
    // stamped under the pre-revocation generation.
    let callout = PdpCallout::cached("stale", pdp(&grant));
    let request = AuthzRequest::start(paper::bo_liu(), conj("&(executable = test1)(count = 1)"));
    assert!(callout.authorize(&request).is_ok());

    let revoked = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..5_000 {
                    // Order matters: read the acknowledgement flag
                    // *before* deciding. If the flag was already set, the
                    // decision started after the reload returned and must
                    // deny.
                    let acknowledged = revoked.load(Ordering::SeqCst);
                    let outcome = callout.authorize(&request);
                    if acknowledged {
                        assert!(outcome.is_err(), "stale permit served after revocation");
                    }
                }
            });
        }
        scope.spawn(|| {
            // Let the flood warm the cache, then yank the grant.
            std::thread::yield_now();
            callout.reload(pdp(&revoked_policy));
            revoked.store(true, Ordering::SeqCst);
        });
    });
    assert!(callout.authorize(&request).is_err());
}

struct Grid {
    bo: Credential,
    kate: Credential,
    callout: Arc<PdpCallout>,
    server: GramServer,
}

fn grid() -> Grid {
    let clock = SimClock::new();
    let ca = CertificateAuthority::new_root("/O=Grid/CN=CA", &clock).unwrap();
    let mut trust = TrustStore::new();
    trust.add_anchor(ca.certificate().clone());
    let day = SimDuration::from_hours(24);
    let bo = ca.issue_identity(paper::BO_LIU_DN, day).unwrap();
    let kate = ca.issue_identity(paper::KATE_KEAHEY_DN, day).unwrap();
    let mut gridmap = GridMapFile::new();
    gridmap.insert(GridMapEntry::new(paper::bo_liu(), vec!["bliu".into()]));
    gridmap.insert(GridMapEntry::new(paper::kate_keahey(), vec!["keahey".into()]));

    let callout = Arc::new(PdpCallout::cached(
        "fig3",
        CombinedPdp::new(
            vec![PolicySource::new(
                "fusion-vo",
                PolicyOrigin::VirtualOrganization("fusion".into()),
                paper::figure3_policy(),
            )],
            Combiner::DenyOverrides,
        ),
    ));
    let server = GramServerBuilder::new("anl-cluster", &clock)
        .trust(trust)
        .gridmap(gridmap)
        .cluster(gridauthz_scheduler::Cluster::uniform(64, 8, 16_384))
        .callouts(vec![callout.clone()])
        .build();
    Grid { bo, kate, callout, server }
}

/// The served `snapshot-generation` gauge reports the PDP callout's
/// published generation, whether the publication was a new policy
/// (`reload`) or a republish of the current one (`policy_updated`).
#[test]
fn snapshot_generation_gauge_follows_the_pdp_callout() {
    let g = grid();
    let gauge = || {
        let snapshot = g.server.telemetry_snapshot();
        snapshot.gauges.iter().find(|(name, _)| *name == Gauge::SnapshotGeneration).unwrap().1
    };
    assert_eq!(gauge(), 0);
    for _ in 0..3 {
        g.callout.reload(g.callout.pdp().pdp().clone());
    }
    assert_eq!(g.callout.pdp().generation(), 3);
    assert_eq!(gauge(), 3);
    g.callout.policy_updated();
    assert_eq!(gauge(), g.callout.pdp().generation());
    assert_eq!(gauge(), 4);
}

/// The PDP callout decides from the policy and the request alone, so a
/// grid-map swap or a revocation leaves its decision cache warm.
/// Outcomes stay correct because the gatekeeper enforces both before
/// any callout runs: an unmapped subject is refused by the grid-map, a
/// revoked credential at authentication.
#[test]
fn decision_cache_stays_warm_across_admin_changes() {
    let g = grid();
    let probes = || {
        let telemetry = g.server.telemetry();
        (
            telemetry.counter(Stage::CacheProbe, labels::HIT),
            telemetry.counter(Stage::CacheProbe, labels::MISS),
        )
    };
    let day = SimDuration::from_hours(24);
    let bo_job = "&(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count = 2)";
    let kate_job = "&(executable = TRANSP)(directory = /sandbox/test)(jobtag = NFC)";
    let kate_only = || {
        let mut gridmap = GridMapFile::new();
        gridmap.insert(GridMapEntry::new(paper::kate_keahey(), vec!["keahey".into()]));
        gridmap
    };
    let mut both = kate_only();
    both.insert(GridMapEntry::new(paper::bo_liu(), vec!["bliu".into()]));
    let generation = g.callout.pdp().generation();

    // Warm Bo's decision, then re-set the same grid-map: still a hit.
    g.server.submit(g.bo.chain(), bo_job, None, day).unwrap();
    g.server.set_gridmap(both).unwrap();
    let (hits, misses) = probes();
    g.server.submit(g.bo.chain(), bo_job, None, day).unwrap();
    assert_eq!(probes(), (hits + 1, misses), "the grid-map swap flushed the decision cache");

    // Unmapped, Bo is refused by the grid-map before the engine runs.
    g.server.set_gridmap(kate_only()).unwrap();
    let outcome = g.server.submit(g.bo.chain(), bo_job, None, day);
    assert!(matches!(outcome, Err(GramError::GridMapDenied(_))), "{outcome:?}");
    assert_eq!(probes(), (hits + 1, misses));

    // Revoked, Kate is refused at authentication although her permit
    // is still cached.
    g.server.submit(g.kate.chain(), kate_job, None, day).unwrap();
    let (hits, misses) = probes();
    g.server.submit(g.kate.chain(), kate_job, None, day).unwrap();
    assert_eq!(probes(), (hits + 1, misses));
    g.server
        .revoke_credential(g.kate.certificate().issuer(), g.kate.certificate().serial())
        .unwrap();
    let outcome = g.server.submit(g.kate.chain(), kate_job, None, day);
    assert!(matches!(outcome, Err(GramError::AuthenticationFailed(_))), "{outcome:?}");
    assert_eq!(probes(), (hits + 1, misses));
    assert_eq!(g.callout.pdp().generation(), generation, "admin changes republished the PDP");
}

#[test]
fn credential_revocation_is_immediate_once_acknowledged() {
    let g = grid();
    let job = "&(executable = test2)(directory = /sandbox/test)(jobtag = NFC)(count = 1)";
    let contact = g.server.submit(g.bo.chain(), job, None, SimDuration::from_hours(2)).unwrap();
    // Kate's Figure 3 cancel grant covers NFC; warm a status path too.
    assert!(matches!(g.server.status(g.kate.chain(), &contact), Err(GramError::NotAuthorized(_))));

    let issuer = g.kate.certificate().issuer().clone();
    let serial = g.kate.certificate().serial();
    let revoked = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..3 {
            scope.spawn(|| {
                for _ in 0..400 {
                    let acknowledged = revoked.load(Ordering::SeqCst);
                    let outcome = g.server.cancel_by_tag(g.kate.chain(), "NFC");
                    if acknowledged {
                        // The swapped-in gatekeeper refuses the chain
                        // before any job is touched.
                        assert!(
                            matches!(outcome, Err(GramError::AuthenticationFailed(_))),
                            "revoked credential still served: {outcome:?}"
                        );
                    }
                }
            });
        }
        scope.spawn(|| {
            std::thread::yield_now();
            g.server.revoke_credential(&issuer, serial).unwrap();
            revoked.store(true, Ordering::SeqCst);
        });
    });

    // Steady state: Kate is gone; Bo's credential still authenticates
    // (his status denial is policy-level — Figure 3 grants him no
    // information action — not an authentication failure). The NFC job
    // may have been swept and retired before the revocation, so the
    // probe is a live ADS job no sweep touches.
    let ads = "&(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count = 1)";
    let live = g.server.submit(g.bo.chain(), ads, None, SimDuration::from_hours(2)).unwrap();
    for probe in [&contact, &live] {
        assert!(matches!(
            g.server.status(g.kate.chain(), probe),
            Err(GramError::AuthenticationFailed(_))
        ));
    }
    assert!(matches!(g.server.status(g.bo.chain(), &live), Err(GramError::NotAuthorized(_))));
}

/// One arbitrary management/startup request.
fn arb_request() -> impl Strategy<Value = AuthzRequest> {
    let subjects =
        prop_oneof![Just(paper::bo_liu()), Just(paper::kate_keahey()), Just(paper::outsider())];
    let executables = prop_oneof![Just("test1"), Just("test2"), Just("TRANSP"), Just("rogue")];
    let tags = prop_oneof![Just(Some("NFC")), Just(Some("ADS")), Just(None)];
    (subjects, executables, tags, 1u32..9, any::<bool>()).prop_map(
        |(subject, executable, tag, count, manage)| {
            if manage {
                AuthzRequest::manage(
                    subject,
                    Action::Cancel,
                    paper::bo_liu(),
                    tag.map(str::to_string),
                )
            } else {
                let tag_clause = tag.map(|t| format!("(jobtag = {t})")).unwrap_or_default();
                AuthzRequest::start(
                    subject,
                    conj(&format!(
                        "&(executable = {executable})(directory = /sandbox/test){tag_clause}(count = {count})"
                    )),
                )
            }
        },
    )
}

proptest! {
    /// `decide_batch` is element-wise `decide` (and
    /// `authorize_batch_within` element-wise `authorize`) for every
    /// request mix — the batch API changes consistency guarantees, never
    /// outcomes.
    #[test]
    fn batch_apis_match_elementwise(requests in proptest::collection::vec(arb_request(), 1..12)) {
        let callout = Arc::new(PdpCallout::new(
            "prop",
            CombinedPdp::new(
                vec![PolicySource::new(
                    "fig3",
                    PolicyOrigin::VirtualOrganization("fusion".into()),
                    paper::figure3_policy(),
                )],
                Combiner::DenyOverrides,
            ),
        ));
        let batch = callout.decide_batch(&requests);
        prop_assert_eq!(batch.len(), requests.len());
        for (request, batched) in requests.iter().zip(&batch) {
            prop_assert_eq!(&**batched, &*callout.decide(request));
        }
        let mut engine = AuthzEngine::pass_through("prop");
        engine.push_callout(callout.clone());
        for (request, batched) in requests.iter().zip(authorize_batch_within(&engine, &requests)) {
            prop_assert_eq!(batched.is_ok(), callout.authorize(request).is_ok());
        }
    }
}
