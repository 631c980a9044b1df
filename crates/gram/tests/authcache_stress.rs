//! The authentication cache's guarantees, end to end through the
//! server:
//!
//! * threaded stress for invalidation: once `revoke_credential` has
//!   *returned*, no request may be served under the revoked chain —
//!   cached or not. Entries are stamped with the generation of the
//!   gatekeeper publication that verified them, so a revocation must
//!   strand every prior entry instantly;
//! * transparency: over seeded interleavings of grid-map swaps,
//!   revocations and clock advances, the cached answer is always the
//!   answer a fresh decode and verification would give, and the grid-map
//!   mapping is never cached at all.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use gridauthz_clock::{SimClock, SimDuration};
use gridauthz_core::{paper, CombinedPdp, Combiner, PdpCallout, PolicyOrigin, PolicySource};
use gridauthz_credential::{
    pem, CertificateAuthority, Credential, DistinguishedName, GridMapEntry, GridMapFile, TrustStore,
};
use gridauthz_gram::wire::{error_code, WireResponse};
use gridauthz_gram::{Gatekeeper, GramError, GramServer, GramServerBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// One administrative or environmental step of a transparency run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// `set_gridmap` without the caller.
    Unmap(usize),
    /// `set_gridmap` mapping the caller to a fresh account.
    Remap(usize),
    /// `revoke_credential` on the caller's own certificate.
    Revoke(usize),
    /// A clock advance long enough to expire the shorter-lived chains.
    Advance,
}

/// The grid-mapfile for `accounts` (subject → its one account).
fn gridmap_of(accounts: &BTreeMap<DistinguishedName, String>) -> GridMapFile {
    let mut gridmap = GridMapFile::new();
    for (subject, account) in accounts {
        gridmap.insert(GridMapEntry::new(subject.clone(), vec![account.clone()]));
    }
    gridmap
}

/// Serves `message` over the PEM wire surface and decodes the answer.
fn serve(server: &GramServer, message: &str) -> WireResponse {
    let out = server.handle_wire_pem(message);
    WireResponse::decode(&out).unwrap_or_else(|e| panic!("unparseable answer {out:?}: {e}"))
}

/// Runs one seeded interleaving. After every step, each caller's chain
/// is authenticated through the cache and checked against a fresh
/// decode + verify on a model gatekeeper that saw the same steps; the
/// cache must hit exactly when the previous check verified the same
/// bytes and no trust change intervened. A grid-map-only submit then
/// checks the mapping against the model, and a never-presented text one
/// byte away from a caller's chain must miss.
fn transparency_run(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let clock = SimClock::new();
    let ca = CertificateAuthority::new_root("/O=Grid/CN=CA", &clock).unwrap();
    let mut trust = TrustStore::new();
    trust.add_anchor(ca.certificate().clone());
    let bo = ca.issue_identity(paper::BO_LIU_DN, SimDuration::from_hours(24)).unwrap();
    let callers = [
        ca.issue_identity(paper::KATE_KEAHEY_DN, SimDuration::from_hours(2)).unwrap(),
        bo.delegate_proxy(SimDuration::from_mins(50)).unwrap(),
        ca.issue_identity("/O=Grid/CN=Von Welch", SimDuration::from_hours(24)).unwrap(),
        bo,
    ];
    let pems: Vec<String> = callers.iter().map(|c| pem::encode_chain(c.chain())).collect();
    let mut accounts: BTreeMap<DistinguishedName, String> =
        callers.iter().map(|c| (c.identity(), "shared".to_string())).collect();
    let server = GramServerBuilder::new("transparency", &clock)
        .trust(trust.clone())
        .gridmap(gridmap_of(&accounts))
        .cluster(gridauthz_scheduler::Cluster::uniform(8, 64, 16_384))
        .build();
    let mut model = Gatekeeper::new(trust, gridmap_of(&accounts), &clock);

    let mut seen: HashSet<String> = pems.iter().cloned().collect();
    let mut verified = vec![false; callers.len()];
    let mut step = None;
    for round in 0..14 {
        for (i, pem_text) in pems.iter().enumerate() {
            let fresh = pem::decode_chain(pem_text)
                .map_err(GramError::AuthenticationFailed)
                .and_then(|chain| model.authenticate(&chain));
            let before = server.auth_cache_stats();
            let served = server.authenticate_pem(pem_text);
            let hit = server.auth_cache_stats().hits > before.hits;
            match (&served, &fresh) {
                (Ok(entry), Ok(identity)) => {
                    assert_eq!(entry.identity().subject(), identity.subject(), "seed {seed}");
                }
                (Err(_), Err(_)) => {}
                _ => panic!("seed {seed} after {step:?}: cache {served:?} vs fresh {fresh:?}"),
            }
            let expect_hit = verified[i] && fresh.is_ok() && !matches!(step, Some(Step::Revoke(_)));
            assert_eq!(hit, expect_hit, "seed {seed}, caller {i}, after {step:?}");
            verified[i] = fresh.is_ok();

            // The mapping is decided against the current grid-map on
            // every request, however warm the chain.
            let expected = fresh.and_then(|id| model.authorize_and_map(id.subject(), None));
            let before = server.auth_cache_stats();
            let submit = format!(
                "{pem_text}GRAM/1 SUBMIT\nrsl: &(executable = sim)(count = 1)\nwork-micros: 1000\n\n"
            );
            let answer = serve(&server, &submit);
            if expected.is_ok() {
                assert!(server.auth_cache_stats().hits > before.hits, "warm submit must hit");
            }
            match (expected, answer) {
                (Ok(account), WireResponse::Submitted { contact }) => {
                    let status = format!("{pem_text}GRAM/1 STATUS\njob: {contact}\n\n");
                    match serve(&server, &status) {
                        WireResponse::Report { account: held, .. } => {
                            assert_eq!(held, account, "seed {seed} after {step:?}");
                        }
                        other => panic!("seed {seed}: status answered {other:?}"),
                    }
                }
                (Err(e), WireResponse::Error { code, .. }) => {
                    assert_eq!(code, error_code(&e), "seed {seed} after {step:?}");
                }
                (expected, answer) => {
                    panic!("seed {seed} after {step:?}: expected {expected:?}, got {answer:?}")
                }
            }
        }

        // A text one byte away from a caller's chain that was never
        // presented before can never be served from the cache.
        let mut near = pems[rng.gen_range(0..pems.len())].clone().into_bytes();
        let at = rng.gen_range(0..near.len());
        near[at] = if near[at] == b'A' { b'B' } else { b'A' };
        let near = String::from_utf8(near).unwrap();
        if seen.insert(near.clone()) {
            let fresh = pem::decode_chain(&near)
                .map_err(GramError::AuthenticationFailed)
                .and_then(|chain| model.authenticate(&chain));
            let before = server.auth_cache_stats();
            let served = server.authenticate_pem(&near);
            assert_eq!(server.auth_cache_stats().hits, before.hits, "seed {seed}: near miss hit");
            assert_eq!(served.is_ok(), fresh.is_ok(), "seed {seed}: near miss disagrees");
        }

        let caller = rng.gen_range(0..callers.len());
        let subject = callers[caller].identity();
        let next = match rng.gen_range(0..9) {
            0..=2 => Step::Unmap(caller),
            3..=5 => Step::Remap(caller),
            6 => Step::Revoke(caller),
            _ => Step::Advance,
        };
        match next {
            Step::Unmap(_) => {
                accounts.remove(&subject);
            }
            Step::Remap(_) => {
                accounts.insert(subject, format!("acct{round}"));
            }
            Step::Revoke(_) => {
                let certificate = callers[caller].certificate();
                server.revoke_credential(certificate.issuer(), certificate.serial()).unwrap();
                model.trust_mut().revoke(certificate.issuer(), certificate.serial());
            }
            Step::Advance => {
                clock.advance(SimDuration::from_mins(40));
            }
        }
        if matches!(next, Step::Unmap(_) | Step::Remap(_)) {
            server.set_gridmap(gridmap_of(&accounts)).unwrap();
            model.set_gridmap(gridmap_of(&accounts));
        }
        step = Some(next);
    }
}

#[test]
fn auth_cache_is_transparent_across_gridmap_revocation_and_expiry() {
    for seed in 0..24 {
        transparency_run(seed);
    }
}
