//! Reproducible testbeds: a full simulated Grid site in a few lines.

use std::sync::Arc;

use gridauthz_clock::{SimClock, SimDuration};
use gridauthz_core::{
    paper, AdmissionClass, AuthorizationCallout, CombinedPdp, Combiner, PdpCallout, Policy,
    PolicyOrigin, PolicySource, RequestContext,
};
use gridauthz_credential::{
    CertificateAuthority, Credential, GridMapEntry, GridMapFile, TrustStore,
};
use gridauthz_gram::{DurabilityConfig, GramClient, GramMode, GramServer, GramServerBuilder};
use gridauthz_scheduler::Cluster;
use gridauthz_telemetry::TelemetryRegistry;
use gridauthz_vo::{Role, RoleProfile, VirtualOrganization};

/// The resource-owner policy installed by default: coarse limits that the
/// VO policy refines (deny-overrides conjunction).
pub const LOCAL_POLICY: &str = "\
*: &(action = start)(count < 33)
*: &(action = cancel)
*: &(action = information)
*: &(action = signal)
";

/// A complete simulated Grid site.
pub struct Testbed {
    /// The shared simulated clock.
    pub clock: SimClock,
    /// The site CA (trust anchor installed at the server).
    pub ca: CertificateAuthority,
    /// The GRAM resource.
    pub server: GramServer,
    /// Bo Liu's credential (paper identity).
    pub bo: Credential,
    /// Kate Keahey's credential (paper identity).
    pub kate: Credential,
    /// The VO administrator credential (role `admin`).
    pub admin: Credential,
    /// An identity with *no* grid-mapfile entry.
    pub outsider: Credential,
    /// Generated VO members (role `analyst`).
    pub members: Vec<Credential>,
    /// The VO the site serves.
    pub vo: VirtualOrganization,
}

impl Testbed {
    /// A client for the `i`-th generated member.
    pub fn member_client(&self, i: usize) -> GramClient {
        GramClient::new(self.members[i].clone())
    }

    /// A request lifecycle context on the testbed's simulated clock:
    /// `class`'s default deadline budget plus a freshly minted trace id
    /// — the deterministic counterpart of the context the TCP front-end
    /// builds at frame-assembly time. Drive it through
    /// [`GramServer::handle_wire_pem_within`] to test deadline and
    /// shedding behavior on simulated time, where expiry is an exact
    /// `clock.advance`, not a wall-clock race.
    pub fn request_context(&self, class: AdmissionClass) -> RequestContext {
        self.server.request_context(class)
    }
}

/// Configures and builds a [`Testbed`].
pub struct TestbedBuilder {
    members: usize,
    mode: GramMode,
    nodes: usize,
    cpus_per_node: u32,
    combiner: Combiner,
    extra_callouts: Vec<Arc<dyn AuthorizationCallout>>,
    telemetry: Option<Arc<TelemetryRegistry>>,
    clock: Option<SimClock>,
    durability: Option<DurabilityConfig>,
}

impl Default for TestbedBuilder {
    fn default() -> Self {
        TestbedBuilder {
            members: 4,
            mode: GramMode::Extended,
            nodes: 8,
            cpus_per_node: 8,
            combiner: Combiner::DenyOverrides,
            extra_callouts: Vec::new(),
            telemetry: None,
            clock: None,
            durability: None,
        }
    }
}

impl TestbedBuilder {
    /// Starts a builder with defaults (4 members, extended mode, 8×8-cpu
    /// nodes, deny-overrides).
    pub fn new() -> TestbedBuilder {
        TestbedBuilder::default()
    }

    /// Number of generated analyst members.
    #[must_use]
    pub fn members(mut self, n: usize) -> Self {
        self.members = n;
        self
    }

    /// GRAM operating mode.
    #[must_use]
    pub fn mode(mut self, mode: GramMode) -> Self {
        self.mode = mode;
        self
    }

    /// Cluster shape.
    #[must_use]
    pub fn cluster(mut self, nodes: usize, cpus_per_node: u32) -> Self {
        self.nodes = nodes;
        self.cpus_per_node = cpus_per_node;
        self
    }

    /// Combining algorithm for the callout PDP.
    #[must_use]
    pub fn combiner(mut self, combiner: Combiner) -> Self {
        self.combiner = combiner;
        self
    }

    /// Appends a callout to the extended-mode chain, after the built-in
    /// PDP callout. Resilience scenarios push a supervised
    /// [`FlakyCallout`](crate::FlakyCallout) here; share the clock with
    /// [`clock`](Self::clock) so its fault windows line up with the
    /// server's time. Ignored in GT2 mode (there is no chain to extend).
    #[must_use]
    pub fn extra_callout(mut self, callout: Arc<dyn AuthorizationCallout>) -> Self {
        self.extra_callouts.push(callout);
        self
    }

    /// Uses the caller's clock instead of creating a fresh one — lets a
    /// scenario construct clock-coupled callouts (fault injectors,
    /// supervision wrappers) before the testbed exists.
    #[must_use]
    pub fn clock(mut self, clock: SimClock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Builds the server over a durable journal: every acknowledged
    /// mutation is journaled, and the build *recovers* whatever the
    /// configured storage already holds. Because the testbed's CA and
    /// credentials are derived deterministically from their DNs, a
    /// testbed rebuilt with the same parameters accepts the identities
    /// a previous incarnation journaled — which is what the
    /// crash/recover scenario exploits.
    #[must_use]
    pub fn durability(mut self, config: DurabilityConfig) -> Self {
        self.durability = Some(config);
        self
    }

    /// Shares a [`TelemetryRegistry`] with the built server, so the
    /// bench harness (or a scenario aggregating several testbeds) can
    /// report through one registry. By default the server creates its
    /// own, reachable via `testbed.server.telemetry()`.
    #[must_use]
    pub fn telemetry(mut self, registry: Arc<TelemetryRegistry>) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// Builds the testbed: CA, credentials for the paper identities plus
    /// `members` analysts, a grid-mapfile covering everyone but the
    /// outsider, the paper's VO (analyst/admin roles, mandatory jobtag),
    /// and a GRAM server whose extended mode combines [`LOCAL_POLICY`]
    /// with Figure 3 + the generated VO policy.
    pub fn build(self) -> Testbed {
        let durability = self.durability;
        let clock = self.clock.unwrap_or_default();
        let ca = CertificateAuthority::new_root("/O=Grid/CN=Testbed CA", &clock)
            .expect("fixture CA DN parses");
        let mut trust = TrustStore::new();
        trust.add_anchor(ca.certificate().clone());
        let lifetime = SimDuration::from_hours(1000);

        let issue = |dn: &str| ca.issue_identity(dn, lifetime).expect("fixture DN parses");
        let bo = issue(paper::BO_LIU_DN);
        let kate = issue(paper::KATE_KEAHEY_DN);
        let admin_dn = format!("{}/CN=VO Admin", paper::MCS_PREFIX);
        let admin = issue(&admin_dn);
        let outsider = issue(paper::OUTSIDER_DN);
        let members: Vec<Credential> = (0..self.members)
            .map(|i| issue(&format!("{}/CN=Member {i:04}", paper::MCS_PREFIX)))
            .collect();

        let mut gridmap = GridMapFile::new();
        gridmap.insert(GridMapEntry::new(bo.identity(), vec!["bliu".into()]));
        gridmap.insert(GridMapEntry::new(kate.identity(), vec!["keahey".into()]));
        gridmap.insert(GridMapEntry::new(admin.identity(), vec!["voadmin".into()]));
        for (i, member) in members.iter().enumerate() {
            gridmap.insert(GridMapEntry::new(member.identity(), vec![format!("member{i:04}")]));
        }

        let mut vo = VirtualOrganization::new("fusion");
        vo.define_role(
            RoleProfile::parse_rules(
                Role::new("analyst"),
                &[
                    "&(action = start)(executable = TRANSP)(jobtag = NFC)(count < 16)",
                    "&(action = cancel)(jobowner = self)",
                    "&(action = information)(jobowner = self)",
                    "&(action = signal)(jobowner = self)",
                ],
            )
            .expect("fixture rules parse"),
        );
        vo.define_role(
            RoleProfile::parse_rules(
                Role::new("admin"),
                &[
                    "&(action = cancel)(jobtag = NFC)",
                    "&(action = signal)(jobtag = NFC)",
                    "&(action = information)(jobtag = NFC)",
                ],
            )
            .expect("fixture rules parse"),
        );
        vo.add_member(admin.identity(), [Role::new("admin")]).expect("fresh member");
        for member in &members {
            vo.add_member(member.identity(), [Role::new("analyst")]).expect("fresh member");
        }

        // VO source = Figure 3 statements + generated member grants.
        let mut vo_statements = paper::figure3_policy().statements().to_vec();
        vo_statements.extend(vo.generate_policy().statements().iter().cloned());
        let vo_policy = Policy::from_statements(vo_statements);

        let local_policy: Policy = LOCAL_POLICY.parse().expect("fixture policy parses");
        let sources = vec![
            PolicySource::new("local", PolicyOrigin::ResourceOwner, local_policy),
            PolicySource::new(
                "fusion-vo",
                PolicyOrigin::VirtualOrganization("fusion".into()),
                vo_policy,
            ),
        ];

        let mut builder = GramServerBuilder::new("anl-cluster", &clock)
            .trust(trust)
            .gridmap(gridmap)
            .cluster(Cluster::uniform(self.nodes, self.cpus_per_node, 16_384));
        if let Some(registry) = self.telemetry {
            builder = builder.telemetry(registry);
        }
        builder = match self.mode {
            GramMode::Gt2 => builder.mode(GramMode::Gt2),
            GramMode::Extended => {
                let pdp = CombinedPdp::new(sources, self.combiner);
                // Cached: the server hot path reuses decisions for
                // repeated identical requests; only a policy reload
                // invalidates, via the generation counter. Grid-map
                // swaps and revocations leave the cache warm.
                let mut chain: Vec<Arc<dyn AuthorizationCallout>> =
                    vec![Arc::new(PdpCallout::cached("gram-authorization", pdp))];
                chain.extend(self.extra_callouts);
                builder.callouts(chain)
            }
        };
        let server = match durability {
            Some(config) => builder.recover(config).expect("durable testbed recovers"),
            None => builder.build(),
        };

        Testbed { clock, ca, server, bo, kate, admin, outsider, members, vo }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridauthz_scheduler::JobState;

    #[test]
    fn default_testbed_supports_member_jobs() {
        let tb = TestbedBuilder::new().members(2).build();
        let client = tb.member_client(0);
        let contact = client
            .submit(
                &tb.server,
                "&(executable = TRANSP)(jobtag = NFC)(count = 4)",
                SimDuration::from_mins(10),
            )
            .unwrap();
        let report = client.status(&tb.server, &contact).unwrap();
        assert!(matches!(report.state, JobState::Running { .. }));
    }

    #[test]
    fn admin_manages_member_jobs() {
        let tb = TestbedBuilder::new().members(1).build();
        let member = tb.member_client(0);
        let contact = member
            .submit(
                &tb.server,
                "&(executable = TRANSP)(jobtag = NFC)(count = 2)",
                SimDuration::from_mins(30),
            )
            .unwrap();
        let admin = GramClient::new(tb.admin.clone());
        admin.cancel(&tb.server, &contact).unwrap();
    }

    /// Deadline expiry on simulated time: the same wire request
    /// permits inside its budget and is refused `BUSY` with the
    /// deadline-expired label after an exact `clock.advance` past it —
    /// no wall-clock races, the point of testing lifecycle behavior in
    /// the simulator.
    #[test]
    fn expired_context_is_shed_deterministically() {
        use gridauthz_credential::pem;

        let tb = TestbedBuilder::new().members(1).build();
        let frame = format!(
            "{}GRAM/1 SUBMIT\nrsl: &(executable = TRANSP)(jobtag = NFC)(count = 2)\n\
             work-micros: 1000\n\n",
            pem::encode_chain(tb.members[0].chain())
        );

        let ctx = tb.request_context(AdmissionClass::Interactive);
        assert_ne!(ctx.trace_id(), 0);
        let mut out = String::new();
        assert_eq!(tb.server.handle_wire_pem_within(&ctx, &frame, &mut out), "permit");
        assert!(out.starts_with("GRAM/1 SUBMITTED\n"), "{out}");

        let ctx = tb.request_context(AdmissionClass::Interactive);
        tb.clock.advance(AdmissionClass::Interactive.default_budget());
        tb.clock.advance(SimDuration::from_micros(1));
        out.clear();
        assert_eq!(tb.server.handle_wire_pem_within(&ctx, &frame, &mut out), "deadline-expired");
        assert!(out.starts_with("GRAM/1 BUSY\n"), "{out}");
        assert!(out.contains("retry-after-micros: "), "{out}");
    }

    #[test]
    fn outsider_is_unmapped() {
        let tb = TestbedBuilder::new().members(0).build();
        let outsider = GramClient::new(tb.outsider.clone());
        let err = outsider
            .submit(&tb.server, "&(executable = TRANSP)(jobtag = NFC)", SimDuration::from_mins(1))
            .unwrap_err();
        assert!(matches!(err, gridauthz_gram::GramError::GridMapDenied(_)));
    }

    #[test]
    fn local_policy_caps_even_vo_grants() {
        // Kate's TRANSP grant has no count limit, but the resource owner
        // caps at 32 — deny-overrides enforces both.
        let tb = TestbedBuilder::new().members(0).build();
        let kate = GramClient::new(tb.kate.clone());
        let err = kate
            .submit(
                &tb.server,
                "&(executable = TRANSP)(directory = /sandbox/test)(jobtag = NFC)(count = 40)",
                SimDuration::from_mins(1),
            )
            .unwrap_err();
        assert!(matches!(err, gridauthz_gram::GramError::NotAuthorized(_)));
    }

    /// A registry handed to the builder is the one the server reports
    /// through — workload decisions land in the caller's counters.
    #[test]
    fn testbed_shares_one_registry_with_the_server() {
        use gridauthz_telemetry::{labels, Stage};
        let registry = Arc::new(TelemetryRegistry::new());
        let tb = TestbedBuilder::new().members(1).telemetry(Arc::clone(&registry)).build();
        assert!(Arc::ptr_eq(&registry, tb.server.telemetry()));
        tb.member_client(0)
            .submit(
                &tb.server,
                "&(executable = TRANSP)(jobtag = NFC)(count = 2)",
                SimDuration::from_mins(5),
            )
            .unwrap();
        assert_eq!(registry.traces_finished(), 1);
        assert!(registry.counter(Stage::Authenticate, labels::PERMIT) >= 1);
        assert!(registry.counter(Stage::Callout, labels::PERMIT) >= 1);
    }

    #[test]
    fn gt2_testbed_skips_policy() {
        let tb = TestbedBuilder::new().members(1).mode(GramMode::Gt2).build();
        let client = tb.member_client(0);
        // Arbitrary executable passes in GT2.
        client.submit(&tb.server, "&(executable = rogue)", SimDuration::from_mins(1)).unwrap();
    }
}
