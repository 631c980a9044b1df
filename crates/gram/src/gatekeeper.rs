//! The Gatekeeper (§4.1): authenticates the requesting Grid user,
//! authorizes the request against the grid-mapfile, and maps the Grid
//! identity to a local account.

use gridauthz_clock::SimClock;
use gridauthz_credential::{
    verify_chain, Certificate, DistinguishedName, GridMapFile, TrustStore, VerifiedIdentity,
};

use crate::protocol::GramError;

/// The trusted front door of a GRAM resource.
///
/// `Clone` supports the server's swap-on-update publication: an
/// administrative change clones the current gatekeeper, mutates the
/// clone off-path, and atomically publishes it, so authentication never
/// waits on a grid-mapfile swap or CRL load.
#[derive(Debug, Clone)]
pub struct Gatekeeper {
    trust: TrustStore,
    gridmap: GridMapFile,
    clock: SimClock,
    generation: u64,
}

impl Gatekeeper {
    /// Builds a gatekeeper from the resource's trust anchors and
    /// grid-mapfile.
    pub fn new(trust: TrustStore, gridmap: GridMapFile, clock: &SimClock) -> Gatekeeper {
        Gatekeeper { trust, gridmap, clock: clock.clone(), generation: 0 }
    }

    /// The publication generation of this gatekeeper state. Bumped only by
    /// [`Gatekeeper::trust_mut`] (CRL loads, anchor changes, and their
    /// replay during recovery) before the clone-mutate-publish cycle
    /// stores the new value. Authentication-cache entries are stamped
    /// with the generation of the snapshot that verified them, so a
    /// revocation strands every cached verification the instant it is
    /// published. A grid-mapfile swap leaves it alone: chain
    /// verification never reads the grid-map, which is consulted fresh
    /// on every request by [`Gatekeeper::authorize_and_map`], and expiry
    /// is enforced per cache entry by the chain's validity window. The
    /// generation lives only in memory and is not journaled: the
    /// authentication cache, its one reader, starts empty after every
    /// restart.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The installed grid-mapfile.
    pub fn gridmap(&self) -> &GridMapFile {
        &self.gridmap
    }

    /// Replaces the grid-mapfile (administration). Does not move the
    /// generation: verified chains stay cached across the swap.
    pub fn set_gridmap(&mut self, gridmap: GridMapFile) {
        self.gridmap = gridmap;
    }

    /// The trust store (read-only; does not move the generation).
    pub fn trust(&self) -> &TrustStore {
        &self.trust
    }

    /// Mutable access to the trust store (CRL loading, anchor rotation).
    /// Conservatively counts as a trust change: the generation moves
    /// even if the caller only reads through the handle, so every
    /// cached chain verification goes stale.
    pub fn trust_mut(&mut self) -> &mut TrustStore {
        self.generation += 1;
        &mut self.trust
    }

    /// GSI authentication: validates the presented certificate chain and
    /// returns the caller's verified identity.
    ///
    /// # Errors
    ///
    /// [`GramError::AuthenticationFailed`] with the underlying credential
    /// error.
    pub fn authenticate(&self, chain: &[Certificate]) -> Result<VerifiedIdentity, GramError> {
        verify_chain(chain, &self.trust, self.clock.now()).map_err(GramError::AuthenticationFailed)
    }

    /// GT2 authorization + mapping: the identity must appear in the
    /// grid-mapfile; the job runs under the entry's default account or a
    /// listed alternate.
    ///
    /// # Errors
    ///
    /// [`GramError::GridMapDenied`] or [`GramError::AccountNotPermitted`].
    pub fn authorize_and_map(
        &self,
        subject: &DistinguishedName,
        requested_account: Option<&str>,
    ) -> Result<String, GramError> {
        let entry = self
            .gridmap
            .lookup(subject)
            .ok_or_else(|| GramError::GridMapDenied(subject.clone()))?;
        match requested_account {
            None => Ok(entry.default_account().to_string()),
            Some(account) if entry.permits_account(account) => Ok(account.to_string()),
            Some(account) => Err(GramError::AccountNotPermitted {
                subject: subject.clone(),
                account: account.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridauthz_clock::SimDuration;
    use gridauthz_credential::{CertificateAuthority, GridMapEntry};

    struct Fixture {
        clock: SimClock,
        ca: CertificateAuthority,
        gatekeeper: Gatekeeper,
    }

    fn fixture() -> Fixture {
        let clock = SimClock::new();
        let ca = CertificateAuthority::new_root("/O=Grid/CN=CA", &clock).unwrap();
        let mut trust = TrustStore::new();
        trust.add_anchor(ca.certificate().clone());
        let mut gridmap = GridMapFile::new();
        gridmap.insert(GridMapEntry::new(
            "/O=Grid/CN=Bo Liu".parse().unwrap(),
            vec!["bliu".into(), "fusion".into()],
        ));
        let gatekeeper = Gatekeeper::new(trust, gridmap, &clock);
        Fixture { clock, ca, gatekeeper }
    }

    #[test]
    fn authenticates_valid_user_and_proxy() {
        let f = fixture();
        let user = f.ca.issue_identity("/O=Grid/CN=Bo Liu", SimDuration::from_hours(1)).unwrap();
        let id = f.gatekeeper.authenticate(user.chain()).unwrap();
        assert_eq!(id.subject().to_string(), "/O=Grid/CN=Bo Liu");
        let proxy = user.delegate_proxy(SimDuration::from_mins(30)).unwrap();
        let id = f.gatekeeper.authenticate(proxy.chain()).unwrap();
        assert_eq!(id.subject().to_string(), "/O=Grid/CN=Bo Liu");
    }

    #[test]
    fn rejects_expired_credentials() {
        let f = fixture();
        let user = f.ca.issue_identity("/O=Grid/CN=Bo Liu", SimDuration::from_secs(10)).unwrap();
        f.clock.advance(SimDuration::from_secs(60));
        assert!(matches!(
            f.gatekeeper.authenticate(user.chain()),
            Err(GramError::AuthenticationFailed(_))
        ));
    }

    #[test]
    fn maps_to_default_or_requested_account() {
        let f = fixture();
        let bo: DistinguishedName = "/O=Grid/CN=Bo Liu".parse().unwrap();
        assert_eq!(f.gatekeeper.authorize_and_map(&bo, None).unwrap(), "bliu");
        assert_eq!(f.gatekeeper.authorize_and_map(&bo, Some("fusion")).unwrap(), "fusion");
        assert!(matches!(
            f.gatekeeper.authorize_and_map(&bo, Some("root")),
            Err(GramError::AccountNotPermitted { .. })
        ));
    }

    #[test]
    fn denies_unmapped_identity() {
        let f = fixture();
        let eve: DistinguishedName = "/O=Grid/CN=Eve".parse().unwrap();
        assert!(matches!(
            f.gatekeeper.authorize_and_map(&eve, None),
            Err(GramError::GridMapDenied(_))
        ));
    }

    #[test]
    fn gridmap_can_be_replaced_at_runtime() {
        let mut f = fixture();
        let eve: DistinguishedName = "/O=Grid/CN=Eve".parse().unwrap();
        assert!(f.gatekeeper.authorize_and_map(&eve, None).is_err());
        let mut gridmap = GridMapFile::new();
        gridmap.insert(GridMapEntry::new(eve.clone(), vec!["eve".into()]));
        f.gatekeeper.set_gridmap(gridmap);
        assert_eq!(f.gatekeeper.authorize_and_map(&eve, None).unwrap(), "eve");
        assert_eq!(f.gatekeeper.gridmap().len(), 1);
    }
}
