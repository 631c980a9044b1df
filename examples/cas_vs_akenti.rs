//! "In order to show generality of our approach" (§5): the same VO
//! authorization expressed three ways and plugged into the same GRAM
//! callout API —
//!
//! 1. the paper's RSL policy evaluated by the built-in PDP callout,
//! 2. an Akenti engine (stakeholder use-conditions + attribute certs),
//! 3. CAS restricted proxies carrying capability policy.
//!
//! ```sh
//! cargo run --example cas_vs_akenti
//! ```

use std::sync::Arc;

use gridauthz::akenti::{
    AkentiCallout, AkentiEngine, AttributeAuthority, ResourceNaming, UseCondition,
};
use gridauthz::cas::{CasServer, RestrictionCallout};
use gridauthz::clock::{SimClock, SimDuration};
use gridauthz::core::{
    Action, AuthorizationCallout, AuthzEngine, AuthzRequest, CombinedPdp, Combiner, PdpCallout,
    PolicyOrigin, PolicySource,
};
use gridauthz::credential::{verify_chain, CertificateAuthority, DistinguishedName, TrustStore};
use gridauthz::rsl::parse;
use gridauthz::vo::{Role, RoleProfile, VirtualOrganization};

const KATE: &str = "/O=Grid/CN=Kate Keahey";
const EVE: &str = "/O=Grid/CN=Eve Mallory";

fn request(subject: DistinguishedName, job: &str) -> AuthzRequest {
    AuthzRequest::start(
        subject,
        parse(job).expect("example RSL parses").as_conjunction().unwrap().clone(),
    )
}

/// A one-callout chain: the Job Manager's callout point running `callout`.
fn chain(callout: Arc<dyn AuthorizationCallout>) -> AuthzEngine {
    let mut engine = AuthzEngine::pass_through(callout.name().to_string());
    engine.push_callout(callout);
    engine
}

fn outcome(chain: &AuthzEngine, request: &AuthzRequest) -> &'static str {
    match chain.authorize(request) {
        Ok(()) => "permit",
        Err(_) => "deny",
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let clock = SimClock::new();
    let kate: DistinguishedName = KATE.parse()?;
    let eve: DistinguishedName = EVE.parse()?;
    let hour = SimDuration::from_hours(8);

    // ---------- Path 1: the paper's RSL policy --------------------------
    let policy = format!("{KATE}: &(action = start)(executable = TRANSP)(jobtag = NFC)");
    let source = PolicySource::new(
        "fusion-vo",
        PolicyOrigin::VirtualOrganization("fusion".into()),
        policy.parse()?,
    );
    let rsl_chain = chain(Arc::new(PdpCallout::new(
        "rsl-pdp",
        CombinedPdp::new(vec![source], Combiner::DenyOverrides),
    )));

    // ---------- Path 2: Akenti ------------------------------------------
    let authority = AttributeAuthority::new("/O=Grid/CN=Fusion AA", &clock)?;
    let mut engine = AkentiEngine::new();
    engine.trust_authority("group", &authority);
    engine.add_use_condition(UseCondition::new(
        "/O=LBL/CN=Stakeholder".parse()?,
        "TRANSP",
        [Action::Start],
        vec![vec![("group".into(), "fusion".into())]],
    ));
    engine.deposit(authority.issue(&kate, "group", "fusion", hour));
    let akenti_chain = chain(Arc::new(AkentiCallout::new(
        "akenti",
        Arc::new(engine),
        clock.clone(),
        ResourceNaming::Executable,
    )));

    // ---------- Path 3: CAS ---------------------------------------------
    let ca = CertificateAuthority::new_root("/O=Grid/CN=CA", &clock)?;
    let mut trust = TrustStore::new();
    trust.add_anchor(ca.certificate().clone());
    let cas_cred = ca.issue_identity("/O=Grid/CN=Fusion CAS", SimDuration::from_hours(100))?;
    let mut vo = VirtualOrganization::new("fusion");
    vo.define_role(RoleProfile::parse_rules(
        Role::new("analyst"),
        &["&(action = start)(executable = TRANSP)(jobtag = NFC)"],
    )?);
    vo.add_member(kate.clone(), [Role::new("analyst")])?;
    let cas = CasServer::new(cas_cred, vo, &clock);
    let kate_proxy = cas.issue_proxy(&kate, SimDuration::from_hours(2))?;
    let verified = verify_chain(kate_proxy.chain(), &trust, clock.now())?;
    let restrictions: Vec<String> =
        verified.restrictions().iter().map(|e| e.value.clone()).collect();
    let cas_chain = chain(Arc::new(RestrictionCallout::new("cas-enforce")));

    // ---------- Compare --------------------------------------------------
    let sanctioned = "&(executable = TRANSP)(jobtag = NFC)";
    let rogue = "&(executable = rogue)(jobtag = NFC)";

    println!("{:<46} {:>8} {:>8} {:>8}", "request", "RSL-PDP", "Akenti", "CAS");
    let rows = [
        ("Kate starts TRANSP (NFC)", sanctioned, true),
        ("Kate starts a rogue executable", rogue, false),
        ("Eve starts TRANSP (NFC)", sanctioned, false),
    ];
    for (label, job, expected) in rows {
        let is_eve = label.starts_with("Eve");
        let subject = if is_eve { eve.clone() } else { kate.clone() };
        let direct = request(subject.clone(), job);
        // CAS: Kate presents the community proxy; Eve has none, so her
        // request carries the CAS identity check instead (she simply has
        // no restricted proxy — model as a request with an impossible
        // restriction set: CAS would never have issued her one).
        let cas_request = if is_eve {
            request(cas.identity(), job)
                .with_restrictions(vec!["*: &(action = signal)(jobtag = never)".into()])
        } else {
            request(cas.identity(), job).with_restrictions(restrictions.clone())
        };
        let r = outcome(&rsl_chain, &direct);
        let a = outcome(&akenti_chain, &direct);
        let c = outcome(&cas_chain, &cas_request);
        println!("{label:<46} {r:>8} {a:>8} {c:>8}");
        let expected = if expected { "permit" } else { "deny" };
        assert_eq!(r, expected, "RSL path: {label}");
        assert_eq!(a, expected, "Akenti path: {label}");
        assert_eq!(c, expected, "CAS path: {label}");
    }
    println!("\nall three authorization systems agree through the same callout API");
    Ok(())
}
