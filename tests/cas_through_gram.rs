//! CAS integration through the full GRAM stack: resource providers
//! authorize the *community*; members act through CAS-issued restricted
//! proxies whose embedded capability policy is enforced by a callout.

use std::sync::Arc;

use gridauthz::cas::{CasServer, RestrictionCallout};
use gridauthz::clock::{SimClock, SimDuration};
use gridauthz::core::{
    AuthorizationCallout, CombinedPdp, Combiner, PdpCallout, PolicyOrigin, PolicySource,
};
use gridauthz::credential::{
    CertificateAuthority, DistinguishedName, GridMapEntry, GridMapFile, TrustStore,
};
use gridauthz::gram::{GramError, GramServer, GramServerBuilder};
use gridauthz::scheduler::Cluster;
use gridauthz::vo::{Role, RoleProfile, VirtualOrganization};

struct CasSite {
    clock: SimClock,
    cas: CasServer,
    server: GramServer,
    kate: DistinguishedName,
    bob: DistinguishedName,
}

fn site() -> CasSite {
    let clock = SimClock::new();
    let ca = CertificateAuthority::new_root("/O=Grid/CN=CA", &clock).unwrap();
    let mut trust = TrustStore::new();
    trust.add_anchor(ca.certificate().clone());

    // The community server credential. Only the CAS identity is in the
    // grid-mapfile: the site administers ONE account for the whole VO.
    let cas_cred =
        ca.issue_identity("/O=Grid/CN=Fusion CAS", SimDuration::from_hours(1000)).unwrap();
    let kate: DistinguishedName = "/O=Grid/CN=Kate".parse().unwrap();
    let bob: DistinguishedName = "/O=Grid/CN=Bob".parse().unwrap();

    let mut vo = VirtualOrganization::new("fusion");
    vo.define_role(
        RoleProfile::parse_rules(
            Role::new("analyst"),
            &["&(action = start)(executable = TRANSP)(jobtag = NFC)(count < 16)"],
        )
        .unwrap(),
    );
    vo.define_role(
        RoleProfile::parse_rules(Role::new("viewer"), &["&(action = information)"]).unwrap(),
    );
    vo.add_member(kate.clone(), [Role::new("analyst")]).unwrap();
    vo.add_member(bob.clone(), [Role::new("viewer")]).unwrap();
    let cas = CasServer::new(cas_cred, vo, &clock);

    let mut gridmap = GridMapFile::new();
    gridmap.insert(GridMapEntry::new(cas.identity(), vec!["fusioncommunity".into()]));

    // Site policy: the community identity may do anything modest; the
    // restriction callout then intersects with member capabilities.
    let site_policy = format!(
        "{cas_dn}: &(action = start)(count < 33) &(action = cancel) &(action = information) &(action = signal)",
        cas_dn = cas.identity()
    );
    let source =
        PolicySource::new("local", PolicyOrigin::ResourceOwner, site_policy.parse().unwrap());
    let callouts: Vec<Arc<dyn AuthorizationCallout>> = vec![
        Arc::new(PdpCallout::new(
            "site-policy",
            CombinedPdp::new(vec![source], Combiner::DenyOverrides),
        )),
        Arc::new(RestrictionCallout::new("cas-enforce")),
    ];

    let server = GramServerBuilder::new("cas-site", &clock)
        .trust(trust)
        .gridmap(gridmap)
        .cluster(Cluster::uniform(4, 8, 8192))
        .callouts(callouts)
        .build();

    CasSite { clock, cas, server, kate, bob }
}

fn mins(m: u64) -> SimDuration {
    SimDuration::from_mins(m)
}

#[test]
fn analyst_capability_permits_sanctioned_job() {
    let s = site();
    let proxy = s.cas.issue_proxy(&s.kate, SimDuration::from_hours(2)).unwrap();
    let contact = s
        .server
        .submit(proxy.chain(), "&(executable = TRANSP)(jobtag = NFC)(count = 8)", None, mins(10))
        .unwrap();
    // The job runs under the community account.
    let report = s.server.status(proxy.chain(), &contact).err();
    // Kate's analyst capability has no `information` grant...
    assert!(report.is_some());
}

#[test]
fn capability_denies_beyond_member_rights() {
    let s = site();
    let proxy = s.cas.issue_proxy(&s.kate, SimDuration::from_hours(2)).unwrap();
    // Within site limits (count < 33) but beyond Kate's capability
    // (count < 16): the intersection denies.
    let err = s
        .server
        .submit(proxy.chain(), "&(executable = TRANSP)(jobtag = NFC)(count = 20)", None, mins(1))
        .unwrap_err();
    assert!(matches!(err, GramError::NotAuthorized(_)));
    // Beyond site limits: the site policy denies first.
    let err = s
        .server
        .submit(proxy.chain(), "&(executable = TRANSP)(jobtag = NFC)(count = 40)", None, mins(1))
        .unwrap_err();
    assert!(matches!(err, GramError::NotAuthorized(_)));
}

#[test]
fn viewer_capability_cannot_start_jobs() {
    let s = site();
    let proxy = s.cas.issue_proxy(&s.bob, SimDuration::from_hours(2)).unwrap();
    let err = s
        .server
        .submit(proxy.chain(), "&(executable = TRANSP)(jobtag = NFC)(count = 2)", None, mins(1))
        .unwrap_err();
    assert!(matches!(err, GramError::NotAuthorized(_)));
}

#[test]
fn nonmember_gets_no_proxy_and_direct_access_is_unmapped() {
    let s = site();
    let eve: DistinguishedName = "/O=Grid/CN=Eve".parse().unwrap();
    assert!(s.cas.issue_proxy(&eve, SimDuration::from_hours(1)).is_err());
}

#[test]
fn expired_cas_proxy_is_rejected() {
    let s = site();
    let proxy = s.cas.issue_proxy(&s.kate, mins(10)).unwrap();
    s.clock.advance(mins(30));
    let err = s
        .server
        .submit(proxy.chain(), "&(executable = TRANSP)(jobtag = NFC)(count = 2)", None, mins(1))
        .unwrap_err();
    assert!(matches!(err, GramError::AuthenticationFailed(_)));
}

#[test]
fn community_jobs_share_the_community_account() {
    let s = site();
    let kate_proxy = s.cas.issue_proxy(&s.kate, SimDuration::from_hours(2)).unwrap();
    let contact = s
        .server
        .submit(
            kate_proxy.chain(),
            "&(executable = TRANSP)(jobtag = NFC)(count = 2)",
            None,
            mins(10),
        )
        .unwrap();
    // Cancel through Kate's proxy: her capability has no cancel grant,
    // so even though the community identity "owns" the job, the
    // restriction payload denies — capabilities, not accounts, decide.
    let err = s.server.cancel(kate_proxy.chain(), &contact).unwrap_err();
    assert!(matches!(err, GramError::NotAuthorized(_)));
}
