//! A generation-stamped authorization decision cache for the GRAM hot
//! path.
//!
//! The paper's measurements (§6) show per-request policy evaluation cost
//! dominating the extended Job Manager's management path. Management
//! traffic is highly repetitive — the same subject polling the same job
//! with the same action — so a small cache in front of the
//! [`CombinedPdp`] removes almost all of that cost without changing any
//! decision.
//!
//! Correctness rests on two properties:
//!
//! * **Canonical keys.** [`request_digest`] folds every request field the
//!   evaluator can observe (subject DN, action, job-description
//!   relations, jobtag, job owner, limited-proxy flag, restriction
//!   payloads) into a 128-bit FNV-1a digest. Job-description relations
//!   are combined order-insensitively, so two descriptions that differ
//!   only in relation order — which evaluate identically — share a key.
//! * **Generation stamping.** Every entry records the policy generation
//!   it was computed under. The generation is the *snapshot's* — the
//!   [`crate::PolicySnapshot`] a decision evaluates against carries the
//!   generation it was published under, so the stamp and the policy can
//!   never disagree. Publishing a new snapshot (policy reload,
//!   grid-mapfile swap, credential revocation, dynamic-policy push)
//!   invalidates every older entry implicitly: lookups under the new
//!   generation ignore them and inserts lazily overwrite them. The
//!   cache itself holds no generation counter at all.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use gridauthz_rsl::{Clause, Relation, Value};

use crate::combine::{CombinedDecision, CombinedPdp};
use crate::request::AuthzRequest;

/// Hit/miss counters observed on a [`DecisionCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a current-generation entry.
    pub hits: u64,
    /// Lookups that fell through to evaluation (absent or stale entry).
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Pass-through hasher for the already-uniform digest keys: re-hashing
/// a 128-bit mix with SipHash would only add latency to every lookup.
/// The map takes the digest's *high* 64 bits (shard selection uses the
/// low bits, so bucket and shard choice stay independent).
#[derive(Debug, Default)]
struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Keys are u128 digests, delivered as one 16-byte write.
        let mut buf = [0u8; 8];
        let take = bytes.len().min(8);
        buf[..take].copy_from_slice(&bytes[bytes.len() - take..]);
        self.0 = u64::from_le_bytes(buf);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type DigestMap = HashMap<u128, Entry, BuildHasherDefault<DigestHasher>>;

#[derive(Debug, Clone)]
struct Entry {
    generation: u64,
    /// Shared so a hit hands out a reference-count bump instead of a
    /// deep clone of the per-source breakdown.
    decision: Arc<CombinedDecision>,
}

/// Number of independently-locked shards; keyed by the digest's low bits.
const SHARD_COUNT: usize = 16;
/// Entries per shard before stale entries are purged (and, if every entry
/// is current, a bounded batch is evicted). Bounds memory at roughly
/// `SHARD_COUNT * SHARD_CAPACITY` decisions.
const SHARD_CAPACITY: usize = 4096;
/// Entries evicted from a shard that is full of *current*-generation
/// entries: 1/8 of the shard, enough headroom that the eviction cost is
/// amortized over many inserts while the hot working set survives.
const EVICT_BATCH: usize = SHARD_CAPACITY / 8;

/// A sharded, generation-stamped cache of combined policy decisions.
///
/// Generations are supplied by the caller on every operation — in
/// production, from the [`crate::PolicySnapshot`] the decision was made
/// under. The cache never invalidates explicitly: publishing a snapshot
/// with a fresh generation strands all older entries.
#[derive(Debug)]
pub struct DecisionCache {
    shards: Vec<RwLock<DigestMap>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for DecisionCache {
    fn default() -> DecisionCache {
        DecisionCache::new()
    }
}

impl DecisionCache {
    /// An empty cache.
    pub fn new() -> DecisionCache {
        DecisionCache {
            shards: (0..SHARD_COUNT).map(|_| RwLock::new(DigestMap::default())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u128) -> &RwLock<DigestMap> {
        &self.shards[(key as usize) % SHARD_COUNT]
    }

    /// The decision cached for `key` at generation `generation`, if any.
    pub fn lookup(&self, key: u128, generation: u64) -> Option<Arc<CombinedDecision>> {
        let shard = self.shard(key).read().unwrap_or_else(|e| e.into_inner());
        match shard.get(&key) {
            Some(entry) if entry.generation == generation => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&entry.decision))
            }
            _ => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a decision computed under `generation`. Entries stamped
    /// with a *different* generation are evicted on the way in — the
    /// inserting generation is by construction the current one. When a
    /// shard stays full of current entries, a bounded fraction
    /// (`EVICT_BATCH` entries) is evicted rather than the whole shard:
    /// dropping every hot entry at once would turn one insert into a
    /// latency spike for the entire shard's working set.
    pub fn insert(&self, key: u128, generation: u64, decision: Arc<CombinedDecision>) {
        let mut shard = self.shard(key).write().unwrap_or_else(|e| e.into_inner());
        if shard.len() >= SHARD_CAPACITY {
            shard.retain(|_, entry| entry.generation == generation);
            if shard.len() >= SHARD_CAPACITY {
                let mut to_evict = EVICT_BATCH;
                shard.retain(|_, _| {
                    if to_evict > 0 {
                        to_evict -= 1;
                        false
                    } else {
                        true
                    }
                });
            }
        }
        shard.insert(key, Entry { generation, decision });
    }

    /// Evaluates `request` against `pdp` under `generation`, serving
    /// repeats from the cache.
    pub fn decide(
        &self,
        generation: u64,
        pdp: &CombinedPdp,
        request: &AuthzRequest,
    ) -> Arc<CombinedDecision> {
        self.decide_keyed(request_digest(request), generation, pdp, request)
    }

    /// [`DecisionCache::decide`] with a caller-supplied canonical key.
    ///
    /// `key` **must** equal [`request_digest`]`(request)`; callers use
    /// this to reuse a digest they already computed — e.g. from
    /// [`crate::CompiledRequest::digest`].
    pub fn decide_keyed(
        &self,
        key: u128,
        generation: u64,
        pdp: &CombinedPdp,
        request: &AuthzRequest,
    ) -> Arc<CombinedDecision> {
        if let Some(decision) = self.lookup(key, generation) {
            return decision;
        }
        let decision = Arc::new(pdp.decide(request));
        self.insert(key, generation, Arc::clone(&decision));
        decision
    }

    /// Hit/miss counters since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of entries currently held (including stale ones awaiting
    /// lazy eviction).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap_or_else(|e| e.into_inner()).len()).sum()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// --- Canonical request digest -------------------------------------------------

/// A 128-bit xor-multiply digest in the FNV-1a family, fed field-tagged
/// and length-prefixed words so distinct field sequences cannot collide
/// by concatenation. Input is absorbed 64 bits per multiply — this is
/// on the decision hot path, so byte-at-a-time absorption would cost
/// more than the cache saves on small requests.
struct Digest128 {
    state: u128,
}

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl Digest128 {
    fn new() -> Digest128 {
        Digest128 { state: FNV128_OFFSET }
    }

    fn write_u8(&mut self, byte: u8) {
        self.write_u64(u64::from(byte));
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        // The length prefix disambiguates the zero-padded final chunk.
        self.write_u64(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.state ^= u128::from(v);
        self.state = self.state.wrapping_mul(FNV128_PRIME);
    }

    fn write_u128(&mut self, v: u128) {
        self.state ^= v;
        self.state = self.state.wrapping_mul(FNV128_PRIME);
    }

    /// Writes a string lowercased, matching the evaluator's
    /// case-insensitive attribute comparison.
    fn write_str_folded(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut buf = [0u8; 8];
            for (slot, b) in buf.iter_mut().zip(chunk) {
                *slot = b.to_ascii_lowercase();
            }
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn finish(&self) -> u128 {
        self.state
    }
}

fn digest_value(digest: &mut Digest128, value: &Value) {
    match value {
        Value::Literal(s) => {
            digest.write_u8(0x10);
            digest.write_bytes(s.as_bytes());
        }
        Value::Sequence(values) => {
            digest.write_u8(0x11);
            digest.write_u64(values.len() as u64);
            for v in values {
                digest_value(digest, v);
            }
        }
        Value::Variable(name) => {
            digest.write_u8(0x12);
            digest.write_bytes(name.as_bytes());
        }
    }
}

fn relation_digest(relation: &Relation) -> u128 {
    let mut digest = Digest128::new();
    digest.write_str_folded(relation.attribute().as_str());
    digest.write_bytes(relation.op().as_str().as_bytes());
    digest.write_u64(relation.values().len() as u64);
    for value in relation.values() {
        digest_value(&mut digest, value);
    }
    digest.finish()
}

/// The canonical digest of everything a [`CombinedPdp`] can observe
/// about `request`.
///
/// Job-description clauses are digested individually and folded with a
/// commutative sum, so relation order — irrelevant to evaluation — is
/// irrelevant to the key. Every other field is digested in a fixed,
/// tagged order.
pub fn request_digest(request: &AuthzRequest) -> u128 {
    let mut digest = Digest128::new();

    digest.write_u8(0x01);
    let subject = request.subject();
    digest.write_u64(subject.components().len() as u64);
    for (key, value) in subject.components() {
        digest.write_bytes(key.as_bytes());
        digest.write_bytes(value.as_bytes());
    }

    digest.write_u8(0x02);
    digest.write_bytes(request.action().as_str().as_bytes());

    digest.write_u8(0x03);
    match request.job() {
        None => digest.write_u8(0),
        Some(job) => {
            digest.write_u8(1);
            let mut folded: u128 = 0;
            let mut clauses: u64 = 0;
            for clause in job.clauses() {
                clauses += 1;
                folded = folded.wrapping_add(match clause {
                    Clause::Relation(relation) => relation_digest(relation),
                    Clause::Nested(nested) => {
                        let mut d = Digest128::new();
                        d.write_u8(0x20);
                        d.write_bytes(nested.to_string().as_bytes());
                        d.finish()
                    }
                });
            }
            digest.write_u64(clauses);
            digest.write_u128(folded);
        }
    }

    digest.write_u8(0x04);
    let owner = request.job_owner();
    digest.write_u64(owner.components().len() as u64);
    for (key, value) in owner.components() {
        digest.write_bytes(key.as_bytes());
        digest.write_bytes(value.as_bytes());
    }

    digest.write_u8(0x05);
    match request.jobtag() {
        None => digest.write_u8(0),
        Some(tag) => {
            digest.write_u8(1);
            digest.write_bytes(tag.as_bytes());
        }
    }

    digest.write_u8(0x06);
    digest.write_u8(u8::from(request.is_limited_proxy()));

    digest.write_u8(0x07);
    digest.write_u64(request.restrictions().len() as u64);
    for restriction in request.restrictions() {
        digest.write_bytes(restriction.as_bytes());
    }

    digest.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Action;
    use crate::combine::{Combiner, PolicyOrigin, PolicySource};
    use gridauthz_credential::DistinguishedName;
    use gridauthz_rsl::parse;

    fn dn(s: &str) -> DistinguishedName {
        s.parse().unwrap()
    }

    fn start(subject: &str, job: &str) -> AuthzRequest {
        AuthzRequest::start(dn(subject), parse(job).unwrap().as_conjunction().unwrap().clone())
    }

    fn pdp(policy: &str) -> CombinedPdp {
        let source =
            PolicySource::new("local", PolicyOrigin::ResourceOwner, policy.parse().unwrap());
        CombinedPdp::new(vec![source], Combiner::DenyOverrides)
    }

    #[test]
    fn digest_ignores_relation_order() {
        let a = start("/O=G/CN=Bo", "&(executable = x)(count = 2)(jobtag = NFC)");
        let b = start("/O=G/CN=Bo", "&(jobtag = NFC)(executable = x)(count = 2)");
        assert_eq!(request_digest(&a), request_digest(&b));
    }

    #[test]
    fn digest_distinguishes_evaluation_relevant_fields() {
        let base = start("/O=G/CN=Bo", "&(executable = x)");
        let cases = [
            start("/O=G/CN=Kate", "&(executable = x)"),
            start("/O=G/CN=Bo", "&(executable = y)"),
            start("/O=G/CN=Bo", "&(executable = x)(count = 1)"),
            base.clone().with_limited_proxy(true),
            base.clone().with_restrictions(vec!["*: &(action = start)".into()]),
        ];
        for other in &cases {
            assert_ne!(request_digest(&base), request_digest(other), "{other:?}");
        }
        let manage_a =
            AuthzRequest::manage(dn("/O=G/CN=Kate"), Action::Cancel, dn("/O=G/CN=Bo"), None);
        let manage_b =
            AuthzRequest::manage(dn("/O=G/CN=Kate"), Action::Cancel, dn("/O=G/CN=Eve"), None);
        let manage_c = AuthzRequest::manage(
            dn("/O=G/CN=Kate"),
            Action::Cancel,
            dn("/O=G/CN=Bo"),
            Some("NFC".into()),
        );
        assert_ne!(request_digest(&manage_a), request_digest(&manage_b));
        assert_ne!(request_digest(&manage_a), request_digest(&manage_c));
    }

    #[test]
    fn digest_folds_attribute_case() {
        let a = start("/O=G/CN=Bo", "&(EXECUTABLE = x)");
        let b = start("/O=G/CN=Bo", "&(executable = x)");
        assert_eq!(request_digest(&a), request_digest(&b));
    }

    #[test]
    fn cache_round_trips_and_counts() {
        let cache = DecisionCache::new();
        let pdp = pdp("/O=G/CN=Bo: &(action = start)(executable = x)");
        let request = start("/O=G/CN=Bo", "&(executable = x)");

        let first = cache.decide(0, &pdp, &request);
        assert!(first.is_permit());
        let second = cache.decide(0, &pdp, &request);
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(cache.len(), 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn new_generation_invalidates_without_clearing() {
        let cache = DecisionCache::new();
        let pdp = pdp("/O=G/CN=Bo: &(action = start)(executable = x)");
        let request = start("/O=G/CN=Bo", "&(executable = x)");

        cache.decide(0, &pdp, &request);
        // The entry from generation 0 is still resident but must not be
        // served to a decision under generation 1.
        assert_eq!(cache.len(), 1);
        cache.decide(1, &pdp, &request);
        let stats = cache.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        // Re-decided under the new generation: hits resume.
        cache.decide(1, &pdp, &request);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn entries_stamped_under_an_older_generation_are_never_served() {
        let cache = DecisionCache::new();
        let pdp = pdp("/O=G/CN=Bo: &(action = start)(executable = x)");
        let request = start("/O=G/CN=Bo", "&(executable = x)");

        // Simulate the race: a decision computed under the old snapshot
        // is inserted after a new snapshot was published.
        let key = request_digest(&request);
        let decision = Arc::new(pdp.decide(&request));
        cache.insert(key, 0, decision);

        assert_eq!(cache.lookup(key, 1), None);
    }

    #[test]
    fn shards_purge_stale_entries_at_capacity() {
        let cache = DecisionCache::new();
        let pdp = pdp("/O=G/CN=Bo: &(action = start)");
        // Fill one shard past capacity with generation-0 entries.
        let decision = cache.decide(0, &pdp, &start("/O=G/CN=Bo", "&(executable = x)"));
        for i in 0..SHARD_CAPACITY as u128 {
            cache.insert(i * SHARD_COUNT as u128, 0, decision.clone());
        }
        // The next insert under a newer generation purges every stale
        // entry in that shard.
        cache.insert(0, 1, decision);
        assert!(cache.len() <= 2);
    }

    #[test]
    fn full_hot_shard_retains_most_entries_after_insert() {
        // Regression: a shard full of *current*-generation entries used to
        // be cleared wholesale, dropping the entire hot working set. The
        // bounded eviction must keep the vast majority resident.
        let cache = DecisionCache::new();
        let pdp = pdp("/O=G/CN=Bo: &(action = start)");
        let decision = cache.decide(0, &pdp, &start("/O=G/CN=Bo", "&(executable = x)"));
        // Fill shard 0 to capacity, all under the current generation.
        for i in 1..=SHARD_CAPACITY as u128 {
            cache.insert(i * SHARD_COUNT as u128, 0, decision.clone());
        }
        let before = cache.len();
        assert!(before >= SHARD_CAPACITY);
        // One more current-generation insert into the full shard.
        cache.insert((SHARD_CAPACITY as u128 + 1) * SHARD_COUNT as u128, 0, decision);
        let after = cache.len();
        assert!(
            after >= SHARD_CAPACITY - EVICT_BATCH,
            "bounded eviction dropped too much: {before} -> {after}"
        );
        assert!(after < before + 1, "capacity bound must still hold");
    }
}
