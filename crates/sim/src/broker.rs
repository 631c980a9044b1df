//! A multi-site Grid and resource broker.
//!
//! §1 of the paper: the VO "coordinate\[s\] policy across resources in
//! different domains to form a consistent policy environment in which its
//! participants can operate". Each site keeps its own resource-owner
//! policy (and cluster), all sites consume the same VO policy, and a
//! broker places jobs — preferring idle sites and failing over when one
//! site's local policy refuses what another allows.

use std::sync::Arc;

use gridauthz_clock::{SimClock, SimDuration};
use gridauthz_core::{
    paper, CombinedPdp, Combiner, PdpCallout, Policy, PolicyOrigin, PolicySource,
};
use gridauthz_credential::{
    Certificate, CertificateAuthority, Credential, GridMapEntry, GridMapFile, TrustStore,
};
use gridauthz_gram::{GramError, GramServer, GramServerBuilder, JobContact};
use gridauthz_scheduler::Cluster;

/// One site's shape: its name, local start-policy CPU cap, and cluster.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// Site/resource name.
    pub name: String,
    /// The site's local per-job CPU cap (its resource-owner policy).
    pub max_cpus_per_job: u32,
    /// Nodes in the site's cluster.
    pub nodes: usize,
    /// CPUs per node.
    pub cpus_per_node: u32,
}

/// A multi-site Grid sharing one clock, one CA, and one VO policy.
pub struct MultiSiteGrid {
    /// The shared clock.
    pub clock: SimClock,
    /// The shared CA.
    pub ca: CertificateAuthority,
    /// The sites, in [`SiteSpec`] order.
    pub sites: Vec<Arc<GramServer>>,
    /// VO member credentials.
    pub members: Vec<Credential>,
}

impl MultiSiteGrid {
    /// Builds `member_count` analysts and one GRAM site per spec. Every
    /// site trusts the same CA, maps every member, and combines its own
    /// local policy (per-job CPU cap) with the shared VO policy
    /// (deny-overrides).
    pub fn build(specs: &[SiteSpec], member_count: usize) -> MultiSiteGrid {
        let clock = SimClock::new();
        let ca = CertificateAuthority::new_root("/O=Grid/CN=Multi CA", &clock)
            .expect("fixture DN parses");
        let mut trust = TrustStore::new();
        trust.add_anchor(ca.certificate().clone());

        let members: Vec<Credential> = (0..member_count)
            .map(|i| {
                ca.issue_identity(
                    &format!("{}/CN=Member {i:04}", paper::MCS_PREFIX),
                    SimDuration::from_hours(1000),
                )
                .expect("fixture DN parses")
            })
            .collect();

        let mut gridmap = GridMapFile::new();
        for (i, member) in members.iter().enumerate() {
            gridmap.insert(GridMapEntry::new(member.identity(), vec![format!("member{i:04}")]));
        }

        // One VO policy for every site: the consistent environment.
        let vo_policy: Policy = {
            let mut text = String::from(
                "&/O=Grid/O=Globus/OU=mcs.anl.gov: (action = start)(jobtag != NULL)\n",
            );
            for member in &members {
                text.push_str(&format!(
                    "{}: &(action = start)(executable = TRANSP)(jobtag = NFC)(count < 64) &(action = cancel)(jobowner = self) &(action = information)(jobowner = self)\n",
                    member.identity()
                ));
            }
            text.parse().expect("generated policy parses")
        };

        let sites = specs
            .iter()
            .map(|spec| {
                let local: Policy = format!(
                    "*: &(action = start)(count < {cap})\n*: &(action = cancel)\n*: &(action = information)\n*: &(action = signal)\n",
                    cap = spec.max_cpus_per_job + 1
                )
                .parse()
                .expect("generated policy parses");
                let sources = vec![
                    PolicySource::new(
                        format!("{}-local", spec.name),
                        PolicyOrigin::ResourceOwner,
                        local,
                    ),
                    PolicySource::new(
                        "fusion-vo",
                        PolicyOrigin::VirtualOrganization("fusion".into()),
                        vo_policy.clone(),
                    ),
                ];
                let callout = Arc::new(PdpCallout::cached(
                    "gram-authorization",
                    CombinedPdp::new(sources, Combiner::DenyOverrides),
                ));
                Arc::new(
                    GramServerBuilder::new(&spec.name, &clock)
                        .trust(trust.clone())
                        .gridmap(gridmap.clone())
                        .cluster(Cluster::uniform(spec.nodes, spec.cpus_per_node, 16_384))
                        .callouts(vec![callout])
                        .build(),
                )
            })
            .collect();

        MultiSiteGrid { clock, ca, sites, members }
    }
}

/// Why a brokered submission failed everywhere.
#[derive(Debug)]
pub struct BrokerDenied {
    /// Each site's refusal, in attempt order: `(site name, error)`.
    pub refusals: Vec<(String, GramError)>,
}

impl std::fmt::Display for BrokerDenied {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "every site refused the job:")?;
        for (site, error) in &self.refusals {
            write!(f, " [{site}: {error}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for BrokerDenied {}

/// A least-loaded-first broker with policy failover.
pub struct ResourceBroker {
    sites: Vec<Arc<GramServer>>,
}

impl ResourceBroker {
    /// Brokers over `sites`.
    ///
    /// # Panics
    ///
    /// Panics when `sites` is empty.
    pub fn new(sites: Vec<Arc<GramServer>>) -> ResourceBroker {
        assert!(!sites.is_empty(), "a broker needs at least one site");
        ResourceBroker { sites }
    }

    /// Submits to the least-utilized site first, failing over across
    /// sites on any refusal (a site's local policy may deny what another
    /// allows). Returns the winning site index and the job contact.
    ///
    /// # Errors
    ///
    /// [`BrokerDenied`] carrying every site's refusal.
    pub fn submit(
        &self,
        chain: &[Certificate],
        rsl: &str,
        work: SimDuration,
    ) -> Result<(usize, JobContact), BrokerDenied> {
        let mut order: Vec<usize> = (0..self.sites.len()).collect();
        order.sort_by(|&a, &b| {
            self.sites[a]
                .utilization()
                .partial_cmp(&self.sites[b].utilization())
                .expect("utilization is never NaN")
        });
        let mut refusals = Vec::new();
        for i in order {
            match self.sites[i].submit(chain, rsl, None, work) {
                Ok(contact) => return Ok((i, contact)),
                Err(e) => refusals.push((self.sites[i].resource_name().to_string(), e)),
            }
        }
        Err(BrokerDenied { refusals })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> MultiSiteGrid {
        MultiSiteGrid::build(
            &[
                SiteSpec {
                    name: "small-site".into(),
                    max_cpus_per_job: 8,
                    nodes: 2,
                    cpus_per_node: 8,
                },
                SiteSpec {
                    name: "big-site".into(),
                    max_cpus_per_job: 48,
                    nodes: 8,
                    cpus_per_node: 8,
                },
            ],
            2,
        )
    }

    fn mins(m: u64) -> SimDuration {
        SimDuration::from_mins(m)
    }

    #[test]
    fn broker_prefers_idle_sites() {
        let g = grid();
        let broker = ResourceBroker::new(g.sites.clone());
        let member = &g.members[0];
        // Both idle: the first in utilization order wins; load it up and
        // the next submission moves to the other site.
        let (first, _) = broker
            .submit(member.chain(), "&(executable = TRANSP)(jobtag = NFC)(count = 8)", mins(60))
            .unwrap();
        let (second, _) = broker
            .submit(member.chain(), "&(executable = TRANSP)(jobtag = NFC)(count = 8)", mins(60))
            .unwrap();
        assert_ne!(first, second, "the loaded site loses the next placement");
    }

    #[test]
    fn failover_crosses_heterogeneous_local_policy() {
        let g = grid();
        let broker = ResourceBroker::new(g.sites.clone());
        let member = &g.members[0];
        // 32 cpus: small-site's local policy (count < 9) refuses; the VO
        // grant (count < 64) and big-site's local policy (count < 49)
        // accept. The broker lands it on big-site regardless of load
        // order.
        let (site, contact) = broker
            .submit(member.chain(), "&(executable = TRANSP)(jobtag = NFC)(count = 32)", mins(10))
            .unwrap();
        assert_eq!(g.sites[site].resource_name(), "big-site");
        let report = g.sites[site].status(member.chain(), &contact).unwrap();
        assert_eq!(report.owner, member.identity());
    }

    #[test]
    fn vo_policy_is_consistent_across_sites() {
        let g = grid();
        let broker = ResourceBroker::new(g.sites.clone());
        let member = &g.members[0];
        // An untagged job violates the VO requirement at EVERY site.
        let err = broker
            .submit(member.chain(), "&(executable = TRANSP)(count = 2)", mins(10))
            .unwrap_err();
        assert_eq!(err.refusals.len(), 2);
        assert!(err.to_string().contains("small-site"));
        assert!(err.to_string().contains("big-site"));
    }

    #[test]
    fn shared_clock_drives_all_sites() {
        let g = grid();
        let member = &g.members[0];
        let contact = g.sites[0]
            .submit(
                member.chain(),
                "&(executable = TRANSP)(jobtag = NFC)(count = 2)",
                None,
                mins(5),
            )
            .unwrap();
        g.clock.advance(mins(6));
        for site in &g.sites {
            site.pump();
        }
        let report = g.sites[0].status(member.chain(), &contact).unwrap();
        assert!(matches!(report.state, gridauthz_scheduler::JobState::Completed { .. }));
    }
}
