//! Property-based tests over the policy engine.

use proptest::prelude::*;

use gridauthz_credential::DistinguishedName;
use gridauthz_rsl::{Attribute, Clause, Conjunction, RelOp, Relation, Value};

use crate::action::Action;
use crate::cache::DecisionCache;
use crate::combine::{CombinedPdp, Combiner, PolicyOrigin, PolicySource};
use crate::context::RequestContext;
use crate::decision::{Decision, DenyReason};
use crate::eval::Pdp;
use crate::pep::AuthorizationCallout;
use crate::policy::Policy;
use crate::request::AuthzRequest;
use crate::snapshot::PdpCallout;
use crate::statement::{PolicyStatement, StatementRole, SubjectMatcher};

const ATTRS: [&str; 7] =
    ["executable", "directory", "jobtag", "queue", "project", "jobowner", "count"];
const VALUES: [&str; 6] = ["a", "b", "c", "test1", "TRANSP", "self"];
const USERS: [&str; 4] =
    ["/O=G/OU=mcs/CN=Bo", "/O=G/OU=mcs/CN=Kate", "/O=G/OU=wisc/CN=Sam", "/O=H/CN=Eve"];

fn dn(s: &str) -> DistinguishedName {
    s.parse().unwrap()
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop::sample::select(Action::ALL.to_vec())
}

fn arb_relation() -> impl Strategy<Value = Relation> {
    let attr = prop::sample::select(ATTRS.to_vec());
    let value = prop_oneof![
        prop::sample::select(VALUES.to_vec()).prop_map(Value::literal),
        Just(Value::literal("NULL")),
        (0i64..6).prop_map(Value::int),
    ];
    let op = prop_oneof![Just(RelOp::Eq), Just(RelOp::Ne), Just(RelOp::Lt), Just(RelOp::Ge)];
    (attr, op, prop::collection::vec(value, 1..3))
        .prop_map(|(a, op, vs)| Relation::new(Attribute::new(a).unwrap(), op, vs))
}

/// An `action` relation the textual policy format accepts: `=` or `!=`
/// over known action names (possibly several — a value set).
fn arb_action_relation() -> impl Strategy<Value = Relation> {
    (prop_oneof![Just(RelOp::Eq), Just(RelOp::Ne)], prop::collection::vec(arb_action(), 1..3))
        .prop_map(|(op, actions)| {
            let values = actions.into_iter().map(|a| Value::literal(a.as_str())).collect();
            Relation::new(Attribute::new("action").unwrap(), op, values)
        })
}

fn arb_rule() -> impl Strategy<Value = Conjunction> {
    prop_oneof![
        // With an action relation (any number of further relations).
        (arb_action_relation(), prop::collection::vec(arb_relation(), 0..4)).prop_map(
            |(action_rel, rels)| {
                let mut clauses = vec![Clause::Relation(action_rel)];
                clauses.extend(rels.into_iter().map(Clause::Relation));
                Conjunction::new(clauses)
            }
        ),
        // Without one: the rule covers every action.
        prop::collection::vec(arb_relation(), 1..4)
            .prop_map(|rels| rels.into_iter().map(Clause::Relation).collect()),
    ]
}

fn arb_statement() -> impl Strategy<Value = PolicyStatement> {
    let subject = prop_oneof![
        prop::sample::select(USERS.to_vec()).prop_map(|u| SubjectMatcher::Exact(dn(u))),
        Just(SubjectMatcher::Prefix("/O=G/OU=mcs".to_string())),
        Just(SubjectMatcher::Any),
    ];
    let role = prop_oneof![Just(StatementRole::Grant), Just(StatementRole::Requirement)];
    (subject, role, prop::collection::vec(arb_rule(), 1..3))
        .prop_map(|(s, r, rules)| PolicyStatement::new(s, r, rules))
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    prop::collection::vec(arb_statement(), 0..8).prop_map(Policy::from_statements)
}

fn arb_job() -> impl Strategy<Value = Conjunction> {
    prop::collection::vec(
        (
            prop::sample::select(ATTRS.to_vec()),
            prop_oneof![
                prop::sample::select(VALUES.to_vec()).prop_map(Value::literal),
                (0i64..6).prop_map(Value::int),
            ],
        ),
        0..4,
    )
    .prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(a, v)| {
                Clause::Relation(Relation::new(Attribute::new(a).unwrap(), RelOp::Eq, vec![v]))
            })
            .collect()
    })
}

fn arb_request() -> impl Strategy<Value = AuthzRequest> {
    (
        prop::sample::select(USERS.to_vec()),
        arb_action(),
        arb_job(),
        prop::sample::select(USERS.to_vec()),
        prop::option::of(prop::sample::select(vec!["NFC", "ADS"])),
    )
        .prop_map(|(subject, action, job, owner, tag)| match action {
            Action::Start => AuthzRequest::start(dn(subject), job),
            other => AuthzRequest::manage(dn(subject), other, dn(owner), tag.map(str::to_string))
                .with_job(job),
        })
}

proptest! {
    /// Default-deny: the empty policy denies every request.
    #[test]
    fn empty_policy_always_denies(request in arb_request()) {
        let pdp = Pdp::new(Policy::new());
        prop_assert_eq!(
            pdp.decide(&request),
            Decision::Deny(DenyReason::NoApplicableGrant)
        );
    }

    /// A policy with only requirements never permits anything.
    #[test]
    fn requirements_never_grant(request in arb_request(), rules in prop::collection::vec(arb_rule(), 1..4)) {
        let policy = Policy::from_statements(vec![PolicyStatement::new(
            SubjectMatcher::Any,
            StatementRole::Requirement,
            rules,
        )]);
        let pdp = Pdp::new(policy);
        prop_assert!(!pdp.decide(&request).is_permit());
    }

    /// The subject index is a pure optimization: indexed and linear
    /// evaluation always agree.
    #[test]
    fn index_is_transparent(policy in arb_policy(), request in arb_request()) {
        let indexed = Pdp::interpreted(policy.clone());
        let linear = Pdp::without_index(policy);
        prop_assert_eq!(indexed.decide(&request), linear.decide(&request));
    }

    /// The compiled program is a pure optimization: it agrees with the
    /// interpreted oracle (indexed and linear) on every policy/request
    /// pair, including the exact deny reason text.
    #[test]
    fn compiled_agrees_with_interpreted(policy in arb_policy(), request in arb_request()) {
        let compiled = Pdp::new(policy.clone());
        prop_assert!(compiled.is_compiled());
        let decision = compiled.decide(&request);
        prop_assert_eq!(&decision, &Pdp::interpreted(policy.clone()).decide(&request));
        prop_assert_eq!(&decision, &Pdp::without_index(policy).decide(&request));
        // The same PDP's own interpreted path is the in-place oracle.
        prop_assert_eq!(&decision, &compiled.decide_interpreted(&request));
    }

    /// Request lowering preserves the canonical digest the decision cache
    /// keys on.
    #[test]
    fn compiled_request_digest_is_canonical(policy in arb_policy(), request in arb_request()) {
        let program = crate::compile::CompiledProgram::compile(std::sync::Arc::new(policy));
        let lowered = program.compile_request(&request);
        prop_assert_eq!(lowered.digest(), crate::cache::request_digest(&request));
    }

    /// A permit always names an in-range grant statement applicable to the
    /// subject.
    #[test]
    fn permits_cite_applicable_grants(policy in arb_policy(), request in arb_request()) {
        let pdp = Pdp::new(policy.clone());
        if let Decision::Permit { statement } = pdp.decide(&request) {
            let stmt = policy.statement(statement).expect("statement index in range");
            prop_assert_eq!(stmt.role(), StatementRole::Grant);
            prop_assert!(stmt.applies_to(request.subject()));
        }
    }

    /// `explain` and `decide` always agree, and every reported failing
    /// relation is non-empty text.
    #[test]
    fn explain_agrees_with_decide(policy in arb_policy(), request in arb_request()) {
        let pdp = Pdp::new(policy);
        let explanation = pdp.explain(&request);
        prop_assert_eq!(&explanation.decision, &pdp.decide(&request));
        if explanation.decision.is_permit() {
            prop_assert!(explanation.matched_grant().is_some());
        }
        for grant in &explanation.grants {
            if let Some(rel) = &grant.failed_relation {
                prop_assert!(!rel.is_empty());
            }
        }
    }

    /// Evaluation is deterministic.
    #[test]
    fn evaluation_is_deterministic(policy in arb_policy(), request in arb_request()) {
        let pdp = Pdp::new(policy);
        prop_assert_eq!(pdp.decide(&request), pdp.decide(&request));
    }

    /// Deny-overrides permits exactly when every source permits, and the
    /// order of sources never changes the permit/deny outcome.
    #[test]
    fn deny_overrides_is_conjunction(
        a in arb_policy(),
        b in arb_policy(),
        request in arb_request(),
    ) {
        let make = |p: &Policy, name: &str| {
            PolicySource::new(name, PolicyOrigin::ResourceOwner, p.clone())
        };
        let ab = CombinedPdp::new(vec![make(&a, "a"), make(&b, "b")], Combiner::DenyOverrides);
        let ba = CombinedPdp::new(vec![make(&b, "b"), make(&a, "a")], Combiner::DenyOverrides);
        let each = Pdp::new(a.clone()).decide(&request).is_permit()
            && Pdp::new(b.clone()).decide(&request).is_permit();
        prop_assert_eq!(ab.decide(&request).is_permit(), each);
        prop_assert_eq!(ba.decide(&request).is_permit(), each);
    }

    /// Permit-overrides permits exactly when some source permits.
    #[test]
    fn permit_overrides_is_disjunction(
        a in arb_policy(),
        b in arb_policy(),
        request in arb_request(),
    ) {
        let make = |p: &Policy, name: &str| {
            PolicySource::new(name, PolicyOrigin::ResourceOwner, p.clone())
        };
        let combined =
            CombinedPdp::new(vec![make(&a, "a"), make(&b, "b")], Combiner::PermitOverrides);
        let any = Pdp::new(a.clone()).decide(&request).is_permit()
            || Pdp::new(b.clone()).decide(&request).is_permit();
        prop_assert_eq!(combined.decide(&request).is_permit(), any);
    }

    /// Adding a grant statement never turns a permit into a denial *when no
    /// requirements exist* (grant monotonicity).
    #[test]
    fn grants_are_monotone_without_requirements(
        grants in prop::collection::vec(
            (prop::sample::select(USERS.to_vec()), prop::collection::vec(arb_rule(), 1..3)),
            0..5,
        ),
        extra in (prop::sample::select(USERS.to_vec()), prop::collection::vec(arb_rule(), 1..3)),
        request in arb_request(),
    ) {
        let base = Policy::from_statements(
            grants
                .iter()
                .map(|(u, rules)| PolicyStatement::grant(dn(u), rules.clone()))
                .collect(),
        );
        let mut extended = base.clone();
        extended.push(PolicyStatement::grant(dn(extra.0), extra.1.clone()));
        let before = Pdp::new(base).decide(&request).is_permit();
        let after = Pdp::new(extended).decide(&request).is_permit();
        prop_assert!(!before || after, "adding a grant revoked a permit");
    }

    /// The decision cache is semantically transparent: cached and uncached
    /// evaluation agree on every request, including repeats that hit the
    /// cache, across randomized policies and requests.
    #[test]
    fn cache_is_transparent(
        local in arb_policy(),
        vo in arb_policy(),
        requests in prop::collection::vec(arb_request(), 1..6),
    ) {
        let pdp = CombinedPdp::new(
            vec![
                PolicySource::new("local", PolicyOrigin::ResourceOwner, local),
                PolicySource::new("vo", PolicyOrigin::VirtualOrganization("v".into()), vo),
            ],
            Combiner::DenyOverrides,
        );
        let cache = DecisionCache::new();
        for request in &requests {
            // Second iteration is served from the cache; both must agree
            // with a fresh uncached evaluation.
            for _ in 0..2 {
                prop_assert_eq!(&*cache.decide(0, &pdp, request), &pdp.decide(request));
            }
        }
    }

    /// Generation invalidation is complete: after a policy reload, the
    /// cached callout always agrees with a fresh uncached evaluation of
    /// the *new* policy — no stale permit (or stale deny) survives.
    #[test]
    fn reload_never_serves_stale(
        before in arb_policy(),
        after in arb_policy(),
        requests in prop::collection::vec(arb_request(), 1..6),
    ) {
        let make = |p: &Policy| CombinedPdp::new(
            vec![PolicySource::new("s", PolicyOrigin::ResourceOwner, p.clone())],
            Combiner::DenyOverrides,
        );
        let cached = PdpCallout::cached("s", make(&before));
        // Warm the cache under the old policy.
        for request in &requests {
            let _ = cached.authorize_within(&RequestContext::unbounded(), request, None);
        }
        cached.reload(make(&after));
        let fresh = PdpCallout::new("s", make(&after));
        for request in &requests {
            prop_assert_eq!(cached.authorize_within(&RequestContext::unbounded(), request, None), fresh.authorize_within(&RequestContext::unbounded(), request, None));
        }
    }

    /// Policy text round-trips: Display → parse → same decisions.
    #[test]
    fn policy_display_roundtrips(policy in arb_policy(), request in arb_request()) {
        let text = policy.to_string();
        if policy.is_empty() {
            return Ok(());
        }
        let reparsed: Policy = text.parse().unwrap_or_else(|e| panic!("reparse {text:?}: {e}"));
        prop_assert_eq!(
            Pdp::new(policy).decide(&request),
            Pdp::new(reparsed).decide(&request)
        );
    }
}
