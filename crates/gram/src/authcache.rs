//! A generation-stamped authentication cache for the GRAM front door.
//!
//! Every `handle_wire_pem` call used to re-parse the PEM armor and
//! re-verify the full certificate chain — RSA signature checks included
//! — even when the same client presented the same credential on every
//! request of a long session. The companion job-management papers
//! (Thompson et al., Keahey et al.) identify exactly this per-request
//! credential verification as the dominant serving cost, and it is
//! perfectly repetitive: the chain bytes are identical from one request
//! to the next.
//!
//! This cache turns repeat-client verification into one keyed hash and
//! one byte compare. A hit skips PEM decoding *and* chain verification.
//! Correctness rests on three properties:
//!
//! * **Exact bytes.** Each entry keeps the PEM text it verified, and a
//!   lookup hits only when the presented text is byte-for-byte equal to
//!   it. Any difference in the presented credential — another proxy,
//!   another delegation depth, even re-encoded armor — misses. A hit can
//!   only ever return the identity that verifying those exact bytes
//!   produced. The map itself is indexed by a hash of the text under a
//!   per-cache [`RandomState`] (randomly keyed SipHash), so an
//!   unauthenticated client cannot aim a flood of colliding texts at one
//!   bucket; two texts that do share a hash simply replace each other.
//! * **Generation stamping.** The cached value is
//!   `verify_chain(chain, trust, now)`: it depends on the trust store
//!   and the clock, nothing else. Each entry records the
//!   [`Gatekeeper::generation`](crate::Gatekeeper::generation) of the
//!   published gatekeeper snapshot that verified it, and only
//!   trust-store mutations (`revoke_credential`, CRL and anchor changes
//!   through [`Gatekeeper::trust_mut`](crate::Gatekeeper::trust_mut),
//!   and their replay during recovery) move that counter. Every older
//!   entry then goes stale implicitly — lookups under the new generation
//!   ignore it and fall through to a full re-verification.
//!   A grid-mapfile swap does *not* strand verified chains: the
//!   grid-map is GT2's authorization and account mapping, consulted
//!   fresh on every request against the current gatekeeper, never
//!   cached here. The cache holds no generation counter of its own.
//! * **Validity windows.** A chain that verified at time *t* may be
//!   expired at *t + Δ* with no administrative action at all. Each entry
//!   therefore stores the chain's composite validity window (latest
//!   `not_before`, earliest `not_after`), and a lookup outside that
//!   window misses.
//!
//! Negative results are never cached: a failed verification stays
//! expensive, which keeps a flood of garbage chains from evicting real
//! clients.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use gridauthz_clock::SimTime;
use gridauthz_credential::{Certificate, VerifiedIdentity};

/// Shard count: enough that front-end workers rarely collide on a lock,
/// few enough that a sweep stays cheap.
const SHARDS: usize = 16;

/// Bound on entries per shard (the whole cache holds at most
/// `SHARDS * SHARD_CAPACITY` verified chains).
const SHARD_CAPACITY: usize = 256;

/// Pass-through hasher for the map's keys, which are already keyed
/// SipHash outputs of the PEM text: hashing them again would only add
/// latency to every lookup.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("authentication-cache keys are hashed with write_u64");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type EntryMap = HashMap<u64, Arc<AuthEntry>, BuildHasherDefault<KeyHasher>>;

/// The shard a key lives in. Bits 32..36 of the key: the map's bucket
/// index uses the low bits and its control byte the top seven, so shard
/// choice stays independent of both.
fn shard_index(key: u64) -> usize {
    (key >> 32) as usize % SHARDS
}

/// One verified chain: the exact PEM text that was verified, the
/// identity it proved, the generation that verified it, and the
/// chain's own validity window.
#[derive(Debug)]
pub struct AuthEntry {
    generation: u64,
    pem: Box<str>,
    identity: VerifiedIdentity,
    valid_from: SimTime,
    valid_until: SimTime,
}

impl AuthEntry {
    /// Builds an entry for `pem_text`, which decoded to `chain` and
    /// verified as `identity` under `generation`. The validity
    /// window is the intersection of every certificate's: the chain is
    /// only acceptable while *all* of its certificates are in validity.
    #[must_use]
    pub fn new(
        generation: u64,
        pem_text: &str,
        chain: &[Certificate],
        identity: VerifiedIdentity,
    ) -> AuthEntry {
        let mut valid_from = SimTime::EPOCH;
        let mut valid_until = SimTime::from_micros(u64::MAX);
        for cert in chain {
            let validity = cert.validity();
            valid_from = valid_from.max(validity.not_before);
            valid_until = valid_until.min(validity.not_after);
        }
        AuthEntry { generation, pem: pem_text.into(), identity, valid_from, valid_until }
    }

    /// The verified Grid identity.
    #[must_use]
    pub fn identity(&self) -> &VerifiedIdentity {
        &self.identity
    }

    fn live(&self, generation: u64, now: SimTime) -> bool {
        self.generation == generation && self.valid_from <= now && now <= self.valid_until
    }
}

/// Hit/miss counters observed on an [`AuthCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthCacheStats {
    /// Lookups served from a live entry.
    pub hits: u64,
    /// Lookups that fell through to full verification.
    pub misses: u64,
}

impl AuthCacheStats {
    /// Hits as a fraction of all lookups (0.0 when nothing was looked up).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The sharded PEM text → verified-chain map.
#[derive(Debug)]
pub struct AuthCache {
    state: RandomState,
    shards: [Mutex<EntryMap>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl AuthCache {
    /// An empty cache with a freshly keyed hash.
    #[must_use]
    pub fn new() -> AuthCache {
        AuthCache {
            state: RandomState::new(),
            shards: std::array::from_fn(|_| Mutex::new(EntryMap::default())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn key(&self, pem_text: &str) -> u64 {
        self.state.hash_one(pem_text)
    }

    fn shard(&self, key: u64) -> &Mutex<EntryMap> {
        &self.shards[shard_index(key)]
    }

    /// Returns the cached verification of exactly `pem_text` if it is
    /// still live: verified under `generation` and within the
    /// chain's validity window at `now`. Stale entries are removed on
    /// sight.
    #[must_use]
    pub fn lookup(&self, pem_text: &str, generation: u64, now: SimTime) -> Option<Arc<AuthEntry>> {
        let key = self.key(pem_text);
        let mut shard = self.shard(key).lock();
        let hit = match shard.get(&key) {
            Some(entry) if *entry.pem == *pem_text => {
                if entry.live(generation, now) {
                    Some(Arc::clone(entry))
                } else {
                    shard.remove(&key);
                    None
                }
            }
            _ => None,
        };
        drop(shard);
        let counter = if hit.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Stores a freshly verified chain. When the shard is full, entries
    /// that could no longer hit at `now` — older generations,
    /// windows `now` lies outside — are dropped first; if every entry is
    /// live the shard is cleared (repeat clients repopulate it in one
    /// round trip each).
    pub fn insert(&self, entry: Arc<AuthEntry>, now: SimTime) {
        let key = self.key(&entry.pem);
        let mut shard = self.shard(key).lock();
        if shard.len() >= SHARD_CAPACITY && !shard.contains_key(&key) {
            let generation = entry.generation;
            shard.retain(|_, held| held.live(generation, now));
            if shard.len() >= SHARD_CAPACITY {
                shard.clear();
            }
        }
        shard.insert(key, entry);
    }

    /// Entries currently held, across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True when no entries are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> AuthCacheStats {
        AuthCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl Default for AuthCache {
    fn default() -> AuthCache {
        AuthCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridauthz_clock::{SimClock, SimDuration};
    use gridauthz_credential::{pem, verify_chain, CertificateAuthority, Credential, TrustStore};

    struct Fixture {
        clock: SimClock,
        ca: CertificateAuthority,
        trust: TrustStore,
        user: Credential,
    }

    fn fixture() -> Fixture {
        let clock = SimClock::new();
        let ca = CertificateAuthority::new_root("/O=Grid/CN=CA", &clock).unwrap();
        let mut trust = TrustStore::new();
        trust.add_anchor(ca.certificate().clone());
        let user = ca.issue_identity("/O=Grid/CN=Bo Liu", SimDuration::from_hours(1)).unwrap();
        Fixture { clock, ca, trust, user }
    }

    /// An entry for `credential`'s chain, verified now, keyed by `text`.
    fn entry(f: &Fixture, generation: u64, text: &str, credential: &Credential) -> Arc<AuthEntry> {
        let identity = verify_chain(credential.chain(), &f.trust, f.clock.now()).unwrap();
        Arc::new(AuthEntry::new(generation, text, credential.chain(), identity))
    }

    /// `count` distinct texts that all land in one shard.
    fn texts_in_one_shard(cache: &AuthCache, count: usize) -> Vec<String> {
        let target = shard_index(cache.key("pem-0"));
        (0..)
            .map(|i| format!("pem-{i}"))
            .filter(|text| shard_index(cache.key(text)) == target)
            .take(count)
            .collect()
    }

    #[test]
    fn hit_returns_the_verified_identity() {
        let f = fixture();
        let cache = AuthCache::new();
        let text = pem::encode_chain(f.user.chain());
        assert!(cache.lookup(&text, 0, f.clock.now()).is_none());
        cache.insert(entry(&f, 0, &text, &f.user), f.clock.now());
        let hit = cache.lookup(&text, 0, f.clock.now()).expect("fresh entry hits");
        assert_eq!(hit.identity().subject(), f.user.certificate().subject());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn only_the_exact_bytes_hit() {
        let f = fixture();
        let cache = AuthCache::new();
        let text = pem::encode_chain(f.user.chain());
        cache.insert(entry(&f, 0, &text, &f.user), f.clock.now());
        // Flip each byte position in turn (and truncate, and extend):
        // no near miss of the verified text may ever be served.
        let mut bytes = text.clone().into_bytes();
        for i in (0..bytes.len()).step_by(7) {
            let original = bytes[i];
            bytes[i] = if original == b'A' { b'B' } else { b'A' };
            let near = std::str::from_utf8(&bytes).unwrap();
            assert!(cache.lookup(near, 0, f.clock.now()).is_none(), "byte {i} flipped");
            bytes[i] = original;
        }
        assert!(cache.lookup(&text[..text.len() - 1], 0, f.clock.now()).is_none());
        assert!(cache.lookup(&format!("{text}\n"), 0, f.clock.now()).is_none());
        assert!(cache.lookup(&text, 0, f.clock.now()).is_some());
    }

    #[test]
    fn a_colliding_hash_never_hits() {
        let f = fixture();
        let cache = AuthCache::new();
        // Plant the entry for one text under the key of another, as a
        // 64-bit hash collision would: the byte compare must refuse it.
        let key = cache.key("presented");
        cache.shard(key).lock().insert(key, entry(&f, 0, "verified", &f.user));
        assert!(cache.lookup("presented", 0, f.clock.now()).is_none());
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn generation_mismatch_misses_and_evicts() {
        let f = fixture();
        let cache = AuthCache::new();
        cache.insert(entry(&f, 3, "pem", &f.user), f.clock.now());
        assert!(cache.lookup("pem", 3, f.clock.now()).is_some());
        // A trust-store change strands the entry; the stale entry is
        // dropped on first sight.
        assert!(cache.lookup("pem", 4, f.clock.now()).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn expired_chain_misses_even_in_generation() {
        let f = fixture();
        let cache = AuthCache::new();
        cache.insert(entry(&f, 0, "pem", &f.user), f.clock.now());
        // Advance past the one-hour credential lifetime: the cached
        // verification must not outlive the chain itself.
        f.clock.advance(SimDuration::from_hours(2));
        assert!(cache.lookup("pem", 0, f.clock.now()).is_none());
        // And the real verifier agrees the chain is now bad.
        assert!(verify_chain(f.user.chain(), &f.trust, f.clock.now()).is_err());
    }

    #[test]
    fn insert_evicts_stale_before_live() {
        let f = fixture();
        let cache = AuthCache::new();
        // Fill one shard to capacity with old-generation entries; the
        // insert that overflows must survive.
        let texts = texts_in_one_shard(&cache, SHARD_CAPACITY + 1);
        let (last, full) = texts.split_last().unwrap();
        for text in full {
            cache.insert(entry(&f, 0, text, &f.user), f.clock.now());
        }
        cache.insert(entry(&f, 1, last, &f.user), f.clock.now());
        assert!(cache.lookup(last, 1, f.clock.now()).is_some());
        assert!(cache.len() <= SHARD_CAPACITY);
    }

    #[test]
    fn eviction_judges_liveness_at_the_callers_clock() {
        let f = fixture();
        let cache = AuthCache::new();
        let texts = texts_in_one_shard(&cache, SHARD_CAPACITY + 1);
        let (last, full) = texts.split_last().unwrap();
        let (expired, live) = full.split_at(SHARD_CAPACITY / 2);
        // Fill one shard: half with ten-minute chains that will have
        // expired by the insert, half with chains issued half an hour
        // later that are live then.
        let brief = f.ca.issue_identity("/O=Grid/CN=Brief", SimDuration::from_mins(10)).unwrap();
        let early = f.ca.issue_identity("/O=Grid/CN=Early", SimDuration::from_hours(24)).unwrap();
        for text in expired {
            cache.insert(entry(&f, 0, text, &brief), f.clock.now());
        }
        f.clock.advance(SimDuration::from_mins(30));
        let later = f.ca.issue_identity("/O=Grid/CN=Later", SimDuration::from_hours(1)).unwrap();
        for text in live {
            cache.insert(entry(&f, 0, text, &later), f.clock.now());
        }
        // The overflowing entry's chain was issued before `later`. Judged
        // at the caller's `now`, the insert drops exactly the expired
        // half; judged at the chain's own `not_before` it would keep the
        // expired half and drop the live one.
        cache.insert(entry(&f, 0, last, &early), f.clock.now());
        assert_eq!(cache.len(), live.len() + 1);
        for text in live {
            assert!(cache.lookup(text, 0, f.clock.now()).is_some(), "live entry {text} evicted");
        }
        assert!(cache.lookup(last, 0, f.clock.now()).is_some());
    }
}
