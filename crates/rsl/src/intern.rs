//! Symbol interning for compiled policy evaluation.
//!
//! The policy evaluator's hot path compares attribute names
//! (case-insensitively) and right-hand-side values (structurally) over and
//! over. Interning folds each distinct name/value to a dense `u32`
//! [`Symbol`] exactly once — lowercase normalization happens at intern
//! time — so the evaluator compares integers instead of strings.
//!
//! Two separate namespaces share one [`Interner`]:
//!
//! * **names** — attribute names, normalized to ASCII lowercase so
//!   `Count`, `COUNT` and `count` intern to the same symbol (RSL attribute
//!   matching is case-insensitive);
//! * **values** — [`Value`]s compared structurally (literals are
//!   case-*sensitive*, matching the evaluator's `Value` equality).
//!
//! Symbols are only meaningful within the interner that produced them.
//! Lookups never insert, so a read path (e.g. resolving a request against
//! a compiled policy) cannot grow the table; callers that need
//! request-local symbols allocate them *above* [`Interner::value_count`].

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::ast::Value;

/// A dense interned identifier. `Symbol(u32::MAX)` is reserved as the
/// "not interned" sentinel ([`Symbol::NONE`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// The "no such symbol" sentinel: never returned by interning, never
    /// equal to any interned symbol.
    pub const NONE: Symbol = Symbol(u32::MAX);

    /// True when this is the [`Symbol::NONE`] sentinel.
    pub fn is_none(self) -> bool {
        self == Symbol::NONE
    }

    /// The raw index.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// A fast non-cryptographic hasher (the rotate-xor-multiply scheme of
/// rustc's FxHash, processing 8-byte chunks). Interner keys are short
/// policy-controlled strings and values; this beats SipHash on them by a
/// wide margin — a requester DN is ~50 bytes and gets hashed on every
/// decision — and the tables are not exposed to attacker-chosen flooding
/// (worst case is slower lookups, never wrong answers).
#[derive(Debug, Default, Clone)]
pub struct FxHasher(u64);

const FX_SEED: u64 = 0x517c_c1b7_2722_0a95;

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Fold the length in so zero-padding can't equate a short
            // tail with its zero-extended form.
            self.mix(u64::from_le_bytes(buf) ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A two-namespace symbol table: attribute names and relation values.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    names: HashMap<String, Symbol, FxBuildHasher>,
    values: HashMap<Value, Symbol, FxBuildHasher>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// Interns `name`, normalizing to ASCII lowercase first. Idempotent:
    /// the same (case-folded) name always returns the same symbol.
    pub fn intern_name(&mut self, name: &str) -> Symbol {
        if let Some(&sym) = self.names.get(name) {
            return sym;
        }
        let folded = name.to_ascii_lowercase();
        if let Some(&sym) = self.names.get(&folded) {
            // Cache the original spelling too so repeat interns of this
            // exact case skip the fold.
            self.names.insert(name.to_string(), sym);
            return sym;
        }
        let sym = Symbol(self.names.len() as u32);
        if folded != name {
            self.names.insert(name.to_string(), sym);
        }
        self.names.insert(folded, sym);
        sym
    }

    /// The symbol for `name`, if a case-folded equivalent was interned.
    /// Never inserts.
    pub fn lookup_name(&self, name: &str) -> Symbol {
        if let Some(&sym) = self.names.get(name) {
            return sym;
        }
        if name.bytes().any(|b| b.is_ascii_uppercase()) {
            if let Some(&sym) = self.names.get(name.to_ascii_lowercase().as_str()) {
                return sym;
            }
        }
        Symbol::NONE
    }

    /// Interns `value` by structural equality (literals case-sensitive).
    pub fn intern_value(&mut self, value: &Value) -> Symbol {
        if let Some(&sym) = self.values.get(value) {
            return sym;
        }
        let sym = Symbol(self.values.len() as u32);
        self.values.insert(value.clone(), sym);
        sym
    }

    /// The symbol for `value`, if interned. Never inserts.
    pub fn lookup_value(&self, value: &Value) -> Symbol {
        self.values.get(value).copied().unwrap_or(Symbol::NONE)
    }

    /// Number of distinct interned values; request-local overflow symbols
    /// start here.
    pub fn value_count(&self) -> u32 {
        self.values.len() as u32
    }

    /// Number of distinct interned (case-folded) names.
    pub fn name_count(&self) -> u32 {
        let distinct: std::collections::HashSet<Symbol> = self.names.values().copied().collect();
        distinct.len() as u32
    }

    /// Seals the interner into a read-only [`FrozenInterner`] that can be
    /// shared across threads behind an `Arc`. Freezing is the handoff
    /// point between the compile phase (which interns) and the decision
    /// phase (which only looks up): a frozen table can never grow, so
    /// concurrent readers need no synchronization at all.
    pub fn freeze(self) -> FrozenInterner {
        FrozenInterner { inner: self }
    }
}

/// A sealed, lookup-only symbol table produced by [`Interner::freeze`].
///
/// Exposes only the read half of the [`Interner`] API. Policy snapshots
/// hold one of these behind an `Arc` so every decision thread resolves
/// request attributes against the same immutable table without copying
/// it or locking it.
#[derive(Debug, Clone)]
pub struct FrozenInterner {
    inner: Interner,
}

impl FrozenInterner {
    /// The symbol for `name`, if a case-folded equivalent was interned.
    pub fn lookup_name(&self, name: &str) -> Symbol {
        self.inner.lookup_name(name)
    }

    /// The symbol for `value`, if interned.
    pub fn lookup_value(&self, value: &Value) -> Symbol {
        self.inner.lookup_value(value)
    }

    /// Number of distinct interned values; request-local overflow symbols
    /// start here.
    pub fn value_count(&self) -> u32 {
        self.inner.value_count()
    }

    /// Number of distinct interned (case-folded) names.
    pub fn name_count(&self) -> u32 {
        self.inner.name_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_fold_case_to_one_symbol() {
        let mut i = Interner::new();
        let a = i.intern_name("Count");
        let b = i.intern_name("COUNT");
        let c = i.intern_name("count");
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(i.name_count(), 1);
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        let mut i = Interner::new();
        let syms: Vec<Symbol> =
            ["executable", "count", "jobtag", "queue"].iter().map(|n| i.intern_name(n)).collect();
        let mut deduped = syms.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), syms.len(), "no symbol collisions");
        assert_eq!(i.name_count(), 4);
    }

    #[test]
    fn lookup_never_inserts() {
        let mut i = Interner::new();
        i.intern_name("count");
        assert!(i.lookup_name("executable").is_none());
        assert_eq!(i.lookup_name("COUNT"), i.lookup_name("count"));
        assert_eq!(i.name_count(), 1);

        i.intern_value(&Value::literal("x"));
        assert!(i.lookup_value(&Value::literal("y")).is_none());
        assert_eq!(i.value_count(), 1);
    }

    #[test]
    fn values_are_case_sensitive_and_structural() {
        let mut i = Interner::new();
        let lower = i.intern_value(&Value::literal("transp"));
        let upper = i.intern_value(&Value::literal("TRANSP"));
        assert_ne!(lower, upper, "value interning must stay case-sensitive");

        let seq = Value::Sequence(vec![Value::literal("a"), Value::literal("b")]);
        let seq_again = Value::Sequence(vec![Value::literal("a"), Value::literal("b")]);
        assert_eq!(i.intern_value(&seq), i.intern_value(&seq_again));
        // A literal spelled like the sequence's display form is distinct.
        assert_ne!(i.intern_value(&Value::literal("(a b)")), i.lookup_value(&seq));
    }

    #[test]
    fn none_sentinel_never_collides() {
        let mut i = Interner::new();
        for n in 0..1000 {
            assert_ne!(i.intern_name(&format!("attr{n}")), Symbol::NONE);
            assert_ne!(i.intern_value(&Value::int(n)), Symbol::NONE);
        }
    }

    #[test]
    fn symbols_are_dense_from_zero() {
        let mut i = Interner::new();
        assert_eq!(i.intern_name("a"), Symbol(0));
        assert_eq!(i.intern_name("b"), Symbol(1));
        assert_eq!(i.intern_value(&Value::literal("v")), Symbol(0));
        assert_eq!(i.value_count(), 1);
    }
}
