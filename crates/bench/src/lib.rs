//! Shared fixtures for the gridauthz benchmark suite.
//!
//! Every experiment in DESIGN.md §5 (T1–T9, A1–A3) builds its inputs
//! through this module, so the criterion benches and the ablation tests
//! below run exactly the same configurations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gridauthz_clock::{SimClock, SimDuration};
use gridauthz_core::{
    paper, Action, AuthorizationCallout, AuthzEngine, AuthzRequest, CombinedPdp, Combiner,
    PdpCallout, Policy, PolicyOrigin, PolicySource,
};
use gridauthz_credential::DistinguishedName;
use gridauthz_rsl::Conjunction;
use gridauthz_sim::{Testbed, TestbedBuilder};

/// A counting `#[global_allocator]` wrapper: forwards to the system
/// allocator and counts every allocation (and reallocation), so a test
/// or benchmark can count allocations *per request* on the front-end's
/// warm path.
///
/// Counts are process-wide — measure deltas on a single thread with no
/// other work in flight.
pub struct CountingAllocator {
    allocations: AtomicU64,
}

impl CountingAllocator {
    /// A fresh counter (usable in a `static`).
    #[must_use]
    pub const fn new() -> CountingAllocator {
        CountingAllocator { allocations: AtomicU64::new(0) }
    }

    /// Allocations (incl. reallocations) observed since construction.
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }
}

impl Default for CountingAllocator {
    fn default() -> CountingAllocator {
        CountingAllocator::new()
    }
}

// SAFETY: pure pass-through to `System`; the counter has no effect on
// allocation behaviour.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Deterministic member DN for index `i` (matches the testbed's scheme).
pub fn member_dn(i: usize) -> DistinguishedName {
    format!("{}/CN=Member {i:04}", paper::MCS_PREFIX).parse().expect("generated DN parses")
}

/// A policy with one group requirement and `n` exact-subject grant
/// statements (the T2 scaling axis).
pub fn policy_with_n_statements(n: usize) -> Policy {
    let mut text =
        String::from("&/O=Grid/O=Globus/OU=mcs.anl.gov: (action = start)(jobtag != NULL)\n");
    for i in 0..n {
        text.push_str(&format!(
            "{}: &(action = start)(executable = TRANSP)(jobtag = NFC)(count < 16) &(action = cancel)(jobowner = self)\n",
            member_dn(i)
        ));
    }
    text.parse().expect("generated policy parses")
}

/// The sanctioned request of member `i` against the generated policy.
pub fn sanctioned_request(i: usize) -> AuthzRequest {
    AuthzRequest::start(member_dn(i), sanctioned_job())
}

/// The standard sanctioned job description.
pub fn sanctioned_job() -> Conjunction {
    parse_conj("&(executable = TRANSP)(jobtag = NFC)(count = 4)")
}

/// Parses a conjunction fixture.
///
/// # Panics
///
/// Panics on unparsable fixture text (benchmark misconfiguration).
pub fn parse_conj(text: &str) -> Conjunction {
    gridauthz_rsl::parse(text)
        .expect("fixture RSL parses")
        .as_conjunction()
        .expect("fixture is a conjunction")
        .clone()
}

/// A combined PDP with `n` deny-overrides sources, each the Figure 3
/// policy plus a grant for member 0 (so the sanctioned request permits
/// through every source) — the T3 scaling axis.
pub fn combined_pdp_with_n_sources(n: usize) -> CombinedPdp {
    let text = format!(
        "{fig3}\n{member}: &(action = start)(executable = TRANSP)(jobtag = NFC)(count < 16)\n",
        fig3 = paper::FIGURE3_TEXT,
        member = member_dn(0)
    );
    let sources = (0..n)
        .map(|i| {
            PolicySource::new(
                format!("source-{i}"),
                PolicyOrigin::VirtualOrganization(format!("vo-{i}")),
                text.parse().expect("generated policy parses"),
            )
        })
        .collect();
    CombinedPdp::new(sources, Combiner::DenyOverrides)
}

/// The callout chain configurations compared by T1, labelled.
pub fn t1_callout_chains() -> Vec<(&'static str, AuthzEngine)> {
    let clock = SimClock::new();
    let chain = |callouts: Vec<Arc<dyn AuthorizationCallout>>| {
        let mut engine = AuthzEngine::pass_through("t1");
        for callout in callouts {
            engine.push_callout(callout);
        }
        engine
    };
    let rsl_pdp = || Arc::new(PdpCallout::new("rsl-pdp", combined_pdp_with_n_sources(2)));

    // (a) empty chain = GT2's Job Manager (no policy evaluation).
    let gt2 = chain(vec![]);

    // (b) the RSL PDP (local + VO policy, deny-overrides).
    let rsl = chain(vec![rsl_pdp()]);

    // (c) RSL PDP + Akenti.
    let authority = gridauthz_akenti::AttributeAuthority::new("/O=Grid/CN=AA", &clock)
        .expect("fixture DN parses");
    let mut akenti_engine = gridauthz_akenti::AkentiEngine::new();
    akenti_engine.trust_authority("group", &authority);
    akenti_engine.add_use_condition(gridauthz_akenti::UseCondition::new(
        "/O=LBL/CN=Stakeholder".parse().expect("fixture DN parses"),
        "TRANSP",
        [Action::Start, Action::Cancel],
        vec![vec![("group".into(), "fusion".into())]],
    ));
    akenti_engine.deposit(authority.issue(
        &member_dn(0),
        "group",
        "fusion",
        SimDuration::from_hours(8),
    ));
    let akenti = chain(vec![
        rsl_pdp(),
        Arc::new(gridauthz_akenti::AkentiCallout::new(
            "akenti",
            Arc::new(akenti_engine),
            clock,
            gridauthz_akenti::ResourceNaming::Executable,
        )),
    ]);

    // (d) RSL PDP + CAS restriction enforcement.
    let cas =
        chain(vec![rsl_pdp(), Arc::new(gridauthz_cas::RestrictionCallout::new("cas-enforce"))]);

    vec![("gt2-empty", gt2), ("pep-rsl", rsl), ("pep-rsl+akenti", akenti), ("pep-rsl+cas", cas)]
}

/// The request matching [`t1_callout_chains`]' member-0 fixtures; the CAS
/// variant needs the capability payload attached.
pub fn t1_request(with_cas_restriction: bool) -> AuthzRequest {
    let request = sanctioned_request(0);
    if with_cas_restriction {
        request.with_restrictions(vec![
            "*: &(action = start)(executable = TRANSP)(jobtag = NFC)(count < 16)".to_string(),
        ])
    } else {
        request
    }
}

/// A repeated identical management request — the decision-cache hot
/// case (T8): a VO admin's `cancel` against an `NFC`-tagged job, which
/// Figure 3 grants Kate and which every [`combined_pdp_with_n_sources`]
/// source therefore permits.
pub fn management_request() -> AuthzRequest {
    AuthzRequest::manage(paper::kate_keahey(), Action::Cancel, paper::bo_liu(), Some("NFC".into()))
        .with_job(sanctioned_job())
}

/// A ready extended-mode testbed for submission-path measurements.
pub fn extended_testbed(members: usize) -> Testbed {
    TestbedBuilder::new().members(members).cluster(64, 16).build()
}

/// A GT2-mode testbed of the same shape.
pub fn gt2_testbed(members: usize) -> Testbed {
    TestbedBuilder::new()
        .members(members)
        .cluster(64, 16)
        .mode(gridauthz_gram::GramMode::Gt2)
        .build()
}

/// Strips requirement statements, leaving grants only — the A1 ablation
/// ("what if the language had no requirement form?").
pub fn strip_requirements(policy: &Policy) -> Policy {
    Policy::from_statements(
        policy
            .statements()
            .iter()
            .filter(|s| s.role() == gridauthz_core::StatementRole::Grant)
            .cloned()
            .collect(),
    )
}

/// The A1 policy: a VO requirement (mandatory jobtag, reserved queue off
/// limits) over a grant that does *not* repeat those constraints —
/// exactly the separation-of-concerns the requirement form exists for.
pub fn a1_policy() -> Policy {
    format!(
        "&{prefix}: (action = start)(jobtag != NULL)(queue != reserved)\n\
         {member}: &(action = start)(executable = TRANSP)(count < 16)\n",
        prefix = paper::MCS_PREFIX,
        member = member_dn(0)
    )
    .parse()
    .expect("A1 policy parses")
}

/// The A1 decision cases: `(description, request, full-policy verdict)`.
/// Cases where the grants-only ablation diverges are the wrongly-permitted
/// requests DESIGN.md's A1 row counts.
pub fn a1_cases() -> Vec<(&'static str, AuthzRequest, bool)> {
    let member = member_dn(0);
    vec![
        (
            "tagged job on an ordinary queue",
            AuthzRequest::start(
                member.clone(),
                parse_conj("&(executable = TRANSP)(jobtag = NFC)(count = 4)(queue = batch)"),
            ),
            true,
        ),
        (
            "untagged job (requirement: jobtag != NULL)",
            AuthzRequest::start(
                member.clone(),
                parse_conj("&(executable = TRANSP)(count = 4)(queue = batch)"),
            ),
            false,
        ),
        (
            "tagged job on the reserved queue",
            AuthzRequest::start(
                member.clone(),
                parse_conj("&(executable = TRANSP)(jobtag = NFC)(count = 4)(queue = reserved)"),
            ),
            false,
        ),
        (
            "unsanctioned executable",
            AuthzRequest::start(
                member,
                parse_conj("&(executable = rogue)(jobtag = NFC)(count = 1)"),
            ),
            false,
        ),
    ]
}

/// The F3 matrix requests re-usable against *combined* PDPs (the A3
/// ablation evaluates them under each combining algorithm).
pub fn a3_matrix_requests() -> Vec<AuthzRequest> {
    let bo = paper::bo_liu();
    let kate = paper::kate_keahey();
    let eve = paper::outsider();
    vec![
        AuthzRequest::start(
            bo.clone(),
            parse_conj("&(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count = 2)"),
        ),
        AuthzRequest::start(
            bo.clone(),
            parse_conj("&(executable = test2)(directory = /sandbox/test)(jobtag = NFC)(count = 3)"),
        ),
        AuthzRequest::start(
            bo.clone(),
            parse_conj("&(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count = 4)"),
        ),
        AuthzRequest::start(
            bo.clone(),
            parse_conj("&(executable = test1)(directory = /sandbox/test)(count = 2)"),
        ),
        AuthzRequest::start(
            kate.clone(),
            parse_conj(
                "&(executable = TRANSP)(directory = /sandbox/test)(jobtag = NFC)(count = 2)",
            ),
        ),
        AuthzRequest::manage(kate.clone(), Action::Cancel, bo.clone(), Some("NFC".into())),
        AuthzRequest::manage(kate.clone(), Action::Cancel, bo.clone(), Some("ADS".into())),
        AuthzRequest::manage(bo.clone(), Action::Cancel, kate, Some("NFC".into())),
        AuthzRequest::start(
            eve,
            parse_conj("&(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count = 2)"),
        ),
        AuthzRequest::manage(bo.clone(), Action::Cancel, bo, Some("ADS".into())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridauthz_core::Pdp;

    #[test]
    fn generated_policy_scales_and_decides() {
        let policy = policy_with_n_statements(50);
        assert_eq!(policy.len(), 51);
        let pdp = Pdp::new(policy);
        assert!(pdp.decide(&sanctioned_request(25)).is_permit());
        assert!(!pdp.decide(&sanctioned_request(51)).is_permit());
    }

    #[test]
    fn combined_sources_all_permit_member0() {
        for n in [1, 4, 8] {
            let pdp = combined_pdp_with_n_sources(n);
            assert!(pdp.decide(&sanctioned_request(0)).is_permit(), "n={n}");
        }
    }

    #[test]
    fn every_t1_chain_permits_its_request() {
        for (label, chain) in t1_callout_chains() {
            let request = t1_request(label.contains("cas"));
            assert!(chain.authorize(&request).is_ok(), "chain {label}");
        }
    }

    #[test]
    fn a1_ablation_wrongly_permits_requirement_blocked_cases() {
        let full = Pdp::new(a1_policy());
        let ablated = Pdp::new(strip_requirements(&a1_policy()));
        let mut wrongly_permitted = 0;
        for (desc, request, expected) in a1_cases() {
            assert_eq!(full.decide(&request).is_permit(), expected, "full policy: {desc}");
            if ablated.decide(&request).is_permit() && !expected {
                wrongly_permitted += 1;
            }
        }
        // Exactly the two requirement-blocked cases flip.
        assert_eq!(wrongly_permitted, 2);
    }

    #[test]
    fn a3_only_deny_overrides_lets_figure3_requirements_bind() {
        // A permissive local policy plus Figure 3. Under deny-overrides
        // (the paper's model) Figure 3's requirements bind; either
        // alternative lets the local grants override them.
        let local: Policy = gridauthz_sim::LOCAL_POLICY.parse().expect("local policy parses");
        let pdp = |combiner| {
            CombinedPdp::new(
                vec![
                    PolicySource::new("local", PolicyOrigin::ResourceOwner, local.clone()),
                    PolicySource::new(
                        "fig3",
                        PolicyOrigin::VirtualOrganization("fusion".into()),
                        paper::figure3_policy(),
                    ),
                ],
                combiner,
            )
        };
        let bo_cancels_own_ads_job = AuthzRequest::manage(
            paper::bo_liu(),
            Action::Cancel,
            paper::bo_liu(),
            Some("ADS".into()),
        );
        let matrix = a3_matrix_requests();
        assert_eq!(matrix.len(), 10);
        for (combiner, permits, bo_cancels) in [
            (Combiner::DenyOverrides, 4, false),
            (Combiner::PermitOverrides, 10, true),
            (Combiner::FirstApplicable, 10, true),
        ] {
            let pdp = pdp(combiner);
            let permitted = matrix.iter().filter(|r| pdp.decide(r).is_permit()).count();
            assert_eq!(permitted, permits, "{combiner:?}: F3-matrix permits");
            assert_eq!(
                pdp.decide(&bo_cancels_own_ads_job).is_permit(),
                bo_cancels,
                "{combiner:?}: Bo cancels his own ADS job"
            );
        }
    }
}
