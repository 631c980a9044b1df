//! Threaded stress for the authentication cache's invalidation
//! guarantee: once `revoke_credential` has *returned*, no request may be
//! served under the revoked chain — cached or not. The cache is
//! generation-stamped against the gatekeeper publication that verified
//! each entry, so a revocation must strand every prior entry instantly.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use gridauthz_clock::{SimClock, SimDuration};
use gridauthz_core::{paper, CombinedPdp, Combiner, PdpCallout, PolicyOrigin, PolicySource};
use gridauthz_credential::{
    pem, CertificateAuthority, Credential, GridMapEntry, GridMapFile, TrustStore,
};
use gridauthz_gram::{GramServer, GramServerBuilder};

struct Grid {
    bo: Credential,
    kate: Credential,
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

    let callout = std::sync::Arc::new(PdpCallout::cached(
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
        .callouts(vec![callout])
        .build();
    Grid { bo, kate, server }
}

/// The code header of a wire error response, if it is one.
fn error_code_of(response: &str) -> Option<&str> {
    response.strip_prefix("GRAM/1 ERROR\n")?.lines().find_map(|line| line.strip_prefix("code: "))
}

#[test]
fn revocation_is_never_outrun_by_the_auth_cache() {
    let g = grid();
    let job = "&(executable = test2)(directory = /sandbox/test)(jobtag = NFC)(count = 1)";
    let contact = g.server.submit(g.bo.chain(), job, None, SimDuration::from_hours(2)).unwrap();

    // Kate manages jobs over the PEM wire surface; every request carries
    // the same chain bytes, so the warm path is a pure cache hit.
    let kate_pem = pem::encode_chain(g.kate.chain());
    let message = format!("{kate_pem}GRAM/1 STATUS\njob: {}\n", contact.as_str());

    // Warm the cache and pin the pre-revocation outcome: Kate
    // authenticates fine, then Figure 3 denies her the status action.
    let warm = g.server.handle_wire_pem(&message);
    assert_eq!(error_code_of(&warm), Some("AUTHORIZATION_DENIED"), "{warm}");
    let warm = g.server.handle_wire_pem(&message);
    assert_eq!(error_code_of(&warm), Some("AUTHORIZATION_DENIED"), "{warm}");
    assert!(g.server.auth_cache_stats().hits >= 1, "second identical request must hit");

    let issuer = g.kate.certificate().issuer().clone();
    let serial = g.kate.certificate().serial();
    let revoked = AtomicBool::new(false);
    let hits_after_revoke = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                let mut out = String::new();
                for _ in 0..1_000 {
                    // Read the acknowledgement flag *before* the request:
                    // if the flag was set, the request started after
                    // `revoke_credential` returned and must fail
                    // authentication — a cached identity for the revoked
                    // chain would be a stale permit.
                    let acknowledged = revoked.load(Ordering::SeqCst);
                    out.clear();
                    g.server.handle_wire_pem_into(&message, &mut out);
                    let code = error_code_of(&out);
                    if acknowledged {
                        assert_eq!(
                            code,
                            Some("AUTHENTICATION_FAILED"),
                            "revoked chain served from the auth cache: {out}"
                        );
                        hits_after_revoke.fetch_add(1, Ordering::Relaxed);
                    } else {
                        assert!(
                            code == Some("AUTHORIZATION_DENIED")
                                || code == Some("AUTHENTICATION_FAILED"),
                            "unexpected outcome {out}"
                        );
                    }
                }
            });
        }
        scope.spawn(|| {
            // Let the flood warm the cache, then revoke Kate.
            std::thread::yield_now();
            g.server.revoke_credential(&issuer, serial).unwrap();
            revoked.store(true, Ordering::SeqCst);
        });
    });

    // The assertion actually ran against post-revocation traffic.
    assert!(hits_after_revoke.load(Ordering::Relaxed) > 0);

    // Steady state: Kate's chain stays dead; Bo — untouched by the CRL
    // entry — still authenticates, including through the cache.
    let after = g.server.handle_wire_pem(&message);
    assert_eq!(error_code_of(&after), Some("AUTHENTICATION_FAILED"), "{after}");
    let bo_pem = pem::encode_chain(g.bo.chain());
    let bo_message = format!("{bo_pem}GRAM/1 STATUS\njob: {}\n", contact.as_str());
    // (Figure 3 grants Bo no information action either, so his denial is
    // policy-level — the distinction that proves he still authenticates.)
    let bo_first = g.server.handle_wire_pem(&bo_message);
    assert_eq!(error_code_of(&bo_first), Some("AUTHORIZATION_DENIED"), "{bo_first}");
    let hits_before = g.server.auth_cache_stats().hits;
    let bo_second = g.server.handle_wire_pem(&bo_message);
    assert_eq!(error_code_of(&bo_second), Some("AUTHORIZATION_DENIED"), "{bo_second}");
    assert!(g.server.auth_cache_stats().hits > hits_before, "Bo's repeat request must hit");
}
