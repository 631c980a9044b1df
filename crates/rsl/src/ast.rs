//! The RSL abstract syntax tree and its canonical printer.

use std::collections::HashMap;
use std::fmt;

use crate::error::{RslError, RslErrorKind};
use crate::token::literal_needs_quoting;

/// A relational operator in an RSL relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl RelOp {
    /// All operators, in source order.
    pub const ALL: [RelOp; 6] = [RelOp::Eq, RelOp::Ne, RelOp::Lt, RelOp::Le, RelOp::Gt, RelOp::Ge];

    /// The textual form of the operator (`"="`, `"!="`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            RelOp::Eq => "=",
            RelOp::Ne => "!=",
            RelOp::Lt => "<",
            RelOp::Le => "<=",
            RelOp::Gt => ">",
            RelOp::Ge => ">=",
        }
    }

    /// True for the ordering operators (`<`, `<=`, `>`, `>=`), which only
    /// make sense on numeric values.
    pub fn is_ordering(self) -> bool {
        matches!(self, RelOp::Lt | RelOp::Le | RelOp::Gt | RelOp::Ge)
    }

    /// Applies the operator to an integer comparison result.
    pub fn holds_for_ints(self, lhs: i64, rhs: i64) -> bool {
        match self {
            RelOp::Eq => lhs == rhs,
            RelOp::Ne => lhs != rhs,
            RelOp::Lt => lhs < rhs,
            RelOp::Le => lhs <= rhs,
            RelOp::Gt => lhs > rhs,
            RelOp::Ge => lhs >= rhs,
        }
    }
}

impl fmt::Display for RelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A validated, case-normalized RSL attribute name.
///
/// GRAM treats attribute names case-insensitively; this type normalizes to
/// lowercase so `Count`, `COUNT` and `count` compare equal.
///
/// # Example
///
/// ```
/// use gridauthz_rsl::Attribute;
/// let a: Attribute = "MaxMemory".parse()?;
/// assert_eq!(a.as_str(), "maxmemory");
/// # Ok::<(), gridauthz_rsl::RslError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Attribute(String);

impl Attribute {
    /// Validates and normalizes an attribute name.
    ///
    /// # Errors
    ///
    /// Returns [`RslError`] if the name is empty, starts with a non-letter,
    /// or contains characters other than ASCII alphanumerics and `_`.
    pub fn new(name: &str) -> Result<Self, RslError> {
        let valid = !name.is_empty()
            && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        if !valid {
            return Err(RslError::new(0, RslErrorKind::InvalidAttribute(name.to_string())));
        }
        Ok(Attribute(name.to_ascii_lowercase()))
    }

    /// The normalized (lowercase) name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::str::FromStr for Attribute {
    type Err = RslError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Attribute::new(s)
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl PartialEq<str> for Attribute {
    fn eq(&self, other: &str) -> bool {
        self.0.eq_ignore_ascii_case(other)
    }
}

impl PartialEq<&str> for Attribute {
    fn eq(&self, other: &&str) -> bool {
        self.0.eq_ignore_ascii_case(other)
    }
}

/// A value on the right-hand side of an RSL relation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// A string literal (quoted or unquoted in the source form).
    Literal(String),
    /// A parenthesized sequence of values, e.g. `(arg1 arg2)`.
    Sequence(Vec<Value>),
    /// A `$(NAME)` substitution reference, unresolved.
    Variable(String),
}

impl Value {
    /// Convenience constructor for a literal value.
    pub fn literal(s: impl Into<String>) -> Value {
        Value::Literal(s.into())
    }

    /// Convenience constructor for an integer literal.
    pub fn int(i: i64) -> Value {
        Value::Literal(i.to_string())
    }

    /// The literal string, if this is a [`Value::Literal`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Literal(s) => Some(s),
            _ => None,
        }
    }

    /// The literal parsed as an integer, if this is a numeric literal.
    pub fn as_int(&self) -> Option<i64> {
        self.as_str()?.trim().parse().ok()
    }

    /// True when the value (recursively) contains an unresolved variable.
    pub fn has_variables(&self) -> bool {
        match self {
            Value::Literal(_) => false,
            Value::Variable(_) => true,
            Value::Sequence(vs) => vs.iter().any(Value::has_variables),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Literal(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Literal(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::int(i)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Literal(s) => {
                if literal_needs_quoting(s) {
                    write!(f, "\"{}\"", s.replace('"', "\"\""))
                } else {
                    f.write_str(s)
                }
            }
            Value::Sequence(vs) => {
                f.write_str("(")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" ")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str(")")
            }
            Value::Variable(name) => write!(f, "$({name})"),
        }
    }
}

/// A single RSL relation: `attribute op value [value ...]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Relation {
    attribute: Attribute,
    op: RelOp,
    values: Vec<Value>,
}

impl Relation {
    /// Builds a relation. A relation always has at least one value.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn new(attribute: Attribute, op: RelOp, values: Vec<Value>) -> Relation {
        assert!(!values.is_empty(), "an RSL relation requires at least one value");
        Relation { attribute, op, values }
    }

    /// The relation's attribute name.
    pub fn attribute(&self) -> &Attribute {
        &self.attribute
    }

    /// The relational operator.
    pub fn op(&self) -> RelOp {
        self.op
    }

    /// All right-hand-side values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The first (and usually only) right-hand-side value.
    pub fn value(&self) -> &Value {
        &self.values[0]
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} {} ", self.attribute, self.op)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

/// One clause of a specification body: either a relation or a nested
/// sub-specification.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Clause {
    /// `(attribute op value)`
    Relation(Relation),
    /// `( <spec> )` — a parenthesized nested specification.
    Nested(Rsl),
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Clause::Relation(r) => write!(f, "{r}"),
            Clause::Nested(s) => write!(f, "({s})"),
        }
    }
}

/// A conjunction body: the list of clauses following `&`.
///
/// Policy statements and job descriptions are conjunctions, so this type
/// carries the convenience accessors used throughout the workspace.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Conjunction {
    clauses: Vec<Clause>,
}

impl Conjunction {
    /// Builds a conjunction from clauses.
    pub fn new(clauses: Vec<Clause>) -> Conjunction {
        Conjunction { clauses }
    }

    /// The clauses in source order.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Iterates over the top-level relations (skipping nested specs).
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.clauses.iter().filter_map(|c| match c {
            Clause::Relation(r) => Some(r),
            Clause::Nested(_) => None,
        })
    }

    /// Iterates over the relations naming `attribute`.
    pub fn relations_for<'s: 'a, 'a>(
        &'s self,
        attribute: &'a str,
    ) -> impl Iterator<Item = &'s Relation> + 'a {
        self.relations().filter(move |r| r.attribute() == attribute)
    }

    /// The first value bound to `attribute` with `=`, if any.
    pub fn first_value(&self, attribute: &str) -> Option<&Value> {
        self.relations_for(attribute).find(|r| r.op() == RelOp::Eq).map(Relation::value)
    }

    /// True when any relation names `attribute`.
    pub fn mentions(&self, attribute: &str) -> bool {
        self.relations_for(attribute).next().is_some()
    }

    /// Extracts `rsl_substitution` bindings: GT2 RSL lets a request
    /// define its own variables as `(rsl_substitution = (NAME value)
    /// (NAME2 value2))`, referenced elsewhere as `$(NAME)`.
    ///
    /// Malformed entries (non-pair sequences, non-literal parts) are
    /// ignored — GT2 treats them as opaque.
    pub fn substitution_bindings(&self) -> std::collections::HashMap<String, String> {
        let mut bindings = std::collections::HashMap::new();
        for relation in self.relations_for("rsl_substitution") {
            if relation.op() != RelOp::Eq {
                continue;
            }
            for value in relation.values() {
                let Value::Sequence(pair) = value else { continue };
                if let [Value::Literal(name), Value::Literal(replacement)] = &pair[..] {
                    bindings.insert(name.clone(), replacement.clone());
                }
            }
        }
        bindings
    }

    /// The distinct attribute names mentioned by top-level relations.
    pub fn attribute_names(&self) -> Vec<&Attribute> {
        let mut names: Vec<&Attribute> = self.relations().map(Relation::attribute).collect();
        names.sort();
        names.dedup();
        names
    }
}

impl FromIterator<Clause> for Conjunction {
    fn from_iter<T: IntoIterator<Item = Clause>>(iter: T) -> Self {
        Conjunction::new(iter.into_iter().collect())
    }
}

/// A complete RSL specification.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Rsl {
    /// `& (clause)...` — all clauses must hold.
    Conjunction(Conjunction),
    /// `| (clause)...` — at least one clause must hold.
    Disjunction(Vec<Clause>),
    /// `+ (spec)...` — a multi-request of independent specifications.
    Multi(Vec<Rsl>),
}

impl Rsl {
    /// A view of this specification as a conjunction, if it is one.
    pub fn as_conjunction(&self) -> Option<&Conjunction> {
        match self {
            Rsl::Conjunction(c) => Some(c),
            _ => None,
        }
    }

    /// Builds a conjunction from relations.
    pub fn conjunction_of(relations: Vec<Relation>) -> Rsl {
        Rsl::Conjunction(Conjunction::new(relations.into_iter().map(Clause::Relation).collect()))
    }

    /// Resolves `$(VAR)` references against `bindings`, leaving unknown
    /// variables untouched.
    pub fn substitute(&self, bindings: &HashMap<String, String>) -> Rsl {
        fn subst_value(v: &Value, b: &HashMap<String, String>) -> Value {
            match v {
                Value::Literal(_) => v.clone(),
                Value::Variable(name) => match b.get(name) {
                    Some(s) => Value::Literal(s.clone()),
                    None => v.clone(),
                },
                Value::Sequence(vs) => {
                    Value::Sequence(vs.iter().map(|v| subst_value(v, b)).collect())
                }
            }
        }
        fn subst_clause(c: &Clause, b: &HashMap<String, String>) -> Clause {
            match c {
                Clause::Relation(r) => Clause::Relation(Relation::new(
                    r.attribute().clone(),
                    r.op(),
                    r.values().iter().map(|v| subst_value(v, b)).collect(),
                )),
                Clause::Nested(s) => Clause::Nested(s.substitute(b)),
            }
        }
        match self {
            Rsl::Conjunction(c) => Rsl::Conjunction(Conjunction::new(
                c.clauses().iter().map(|c| subst_clause(c, bindings)).collect(),
            )),
            Rsl::Disjunction(cs) => {
                Rsl::Disjunction(cs.iter().map(|c| subst_clause(c, bindings)).collect())
            }
            Rsl::Multi(specs) => Rsl::Multi(specs.iter().map(|s| s.substitute(bindings)).collect()),
        }
    }

    /// True when the specification (recursively) contains an unresolved
    /// `$(VAR)` reference.
    pub fn has_variables(&self) -> bool {
        fn clause_has(c: &Clause) -> bool {
            match c {
                Clause::Relation(r) => r.values().iter().any(Value::has_variables),
                Clause::Nested(s) => s.has_variables(),
            }
        }
        match self {
            Rsl::Conjunction(c) => c.clauses().iter().any(clause_has),
            Rsl::Disjunction(cs) => cs.iter().any(clause_has),
            Rsl::Multi(specs) => specs.iter().any(Rsl::has_variables),
        }
    }
}

impl fmt::Display for Rsl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rsl::Conjunction(c) => {
                f.write_str("&")?;
                for clause in c.clauses() {
                    write!(f, "{clause}")?;
                }
                Ok(())
            }
            Rsl::Disjunction(cs) => {
                f.write_str("|")?;
                for clause in cs {
                    write!(f, "{clause}")?;
                }
                Ok(())
            }
            Rsl::Multi(specs) => {
                f.write_str("+")?;
                for s in specs {
                    write!(f, "({s})")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(s: &str) -> Attribute {
        Attribute::new(s).unwrap()
    }

    #[test]
    fn attribute_normalizes_case() {
        assert_eq!(attr("MaxMemory").as_str(), "maxmemory");
        assert_eq!(attr("count"), attr("COUNT"));
    }

    #[test]
    fn attribute_rejects_bad_names() {
        for bad in ["", "1abc", "a-b", "a b", "a.b"] {
            assert!(Attribute::new(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn attribute_compares_with_str_case_insensitively() {
        assert_eq!(attr("JobTag"), "jobtag");
        assert_eq!(attr("jobtag"), "JOBTAG");
    }

    #[test]
    fn relop_int_semantics() {
        assert!(RelOp::Lt.holds_for_ints(3, 4));
        assert!(!RelOp::Lt.holds_for_ints(4, 4));
        assert!(RelOp::Le.holds_for_ints(4, 4));
        assert!(RelOp::Ne.holds_for_ints(1, 2));
        assert!(RelOp::Ge.holds_for_ints(4, 4));
        assert!(RelOp::Gt.holds_for_ints(5, 4));
        assert!(RelOp::Eq.holds_for_ints(4, 4));
    }

    #[test]
    fn relop_ordering_classification() {
        assert!(RelOp::Lt.is_ordering());
        assert!(!RelOp::Eq.is_ordering());
        assert!(!RelOp::Ne.is_ordering());
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::literal("42").as_int(), Some(42));
        assert_eq!(Value::literal("x").as_int(), None);
        assert_eq!(Value::int(-3).as_str(), Some("-3"));
        assert_eq!(Value::Sequence(vec![]).as_str(), None);
        assert!(Value::Variable("X".into()).has_variables());
        assert!(Value::Sequence(vec![Value::Variable("X".into())]).has_variables());
        assert!(!Value::literal("x").has_variables());
    }

    #[test]
    fn value_display_quotes_when_needed() {
        assert_eq!(Value::literal("TRANSP").to_string(), "TRANSP");
        assert_eq!(Value::literal("a b").to_string(), "\"a b\"");
        assert_eq!(Value::literal("say \"hi\"").to_string(), "\"say \"\"hi\"\"\"");
        assert_eq!(Value::literal("").to_string(), "\"\"");
    }

    #[test]
    fn sequence_and_variable_display() {
        let v = Value::Sequence(vec![Value::literal("a"), Value::Variable("H".into())]);
        assert_eq!(v.to_string(), "(a $(H))");
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn relation_requires_values() {
        Relation::new(attr("count"), RelOp::Eq, vec![]);
    }

    #[test]
    fn relation_display() {
        let r = Relation::new(attr("count"), RelOp::Lt, vec![Value::int(4)]);
        assert_eq!(r.to_string(), "(count < 4)");
    }

    #[test]
    fn conjunction_accessors() {
        let c = Conjunction::new(vec![
            Clause::Relation(Relation::new(attr("executable"), RelOp::Eq, vec!["test1".into()])),
            Clause::Relation(Relation::new(attr("count"), RelOp::Lt, vec![Value::int(4)])),
            Clause::Relation(Relation::new(attr("count"), RelOp::Gt, vec![Value::int(0)])),
        ]);
        assert_eq!(c.first_value("executable"), Some(&Value::literal("test1")));
        assert_eq!(c.first_value("count"), None); // no Eq relation for count
        assert_eq!(c.relations_for("count").count(), 2);
        assert!(c.mentions("count"));
        assert!(!c.mentions("jobtag"));
        assert_eq!(c.attribute_names().len(), 2);
    }

    #[test]
    fn rsl_display_conjunction() {
        let spec = Rsl::conjunction_of(vec![
            Relation::new(attr("executable"), RelOp::Eq, vec!["test1".into()]),
            Relation::new(attr("count"), RelOp::Lt, vec![Value::int(4)]),
        ]);
        assert_eq!(spec.to_string(), "&(executable = test1)(count < 4)");
    }

    #[test]
    fn rsl_display_multi() {
        let one = Rsl::conjunction_of(vec![Relation::new(attr("a"), RelOp::Eq, vec!["1".into()])]);
        let two = Rsl::conjunction_of(vec![Relation::new(attr("b"), RelOp::Eq, vec!["2".into()])]);
        let multi = Rsl::Multi(vec![one, two]);
        assert_eq!(multi.to_string(), "+(&(a = 1))(&(b = 2))");
    }

    #[test]
    fn substitution_resolves_known_variables() {
        let spec = Rsl::conjunction_of(vec![Relation::new(
            attr("directory"),
            RelOp::Eq,
            vec![Value::Variable("HOME".into())],
        )]);
        assert!(spec.has_variables());
        let mut env = HashMap::new();
        env.insert("HOME".to_string(), "/home/bo".to_string());
        let resolved = spec.substitute(&env);
        assert!(!resolved.has_variables());
        assert_eq!(
            resolved.as_conjunction().unwrap().first_value("directory"),
            Some(&Value::literal("/home/bo"))
        );
    }

    #[test]
    fn substitution_bindings_extract_pairs() {
        let spec = crate::parse(
            "&(rsl_substitution = (HOME /home/bo) (APP TRANSP))(executable = $(APP))(directory = $(HOME))",
        )
        .unwrap();
        let conj = spec.as_conjunction().unwrap();
        let bindings = conj.substitution_bindings();
        assert_eq!(bindings.get("HOME").map(String::as_str), Some("/home/bo"));
        assert_eq!(bindings.get("APP").map(String::as_str), Some("TRANSP"));
        let resolved = spec.substitute(&bindings);
        assert!(!resolved.has_variables());
        assert_eq!(
            resolved.as_conjunction().unwrap().first_value("executable"),
            Some(&Value::literal("TRANSP"))
        );
    }

    #[test]
    fn substitution_bindings_ignore_malformed_entries() {
        let spec = crate::parse(
            "&(rsl_substitution = plain (ONLYNAME) (A b c) (OK fine))(executable = x)",
        )
        .unwrap();
        let bindings = spec.as_conjunction().unwrap().substitution_bindings();
        assert_eq!(bindings.len(), 1);
        assert_eq!(bindings.get("OK").map(String::as_str), Some("fine"));
    }

    #[test]
    fn substitution_leaves_unknown_variables() {
        let spec = Rsl::conjunction_of(vec![Relation::new(
            attr("directory"),
            RelOp::Eq,
            vec![Value::Variable("NOPE".into())],
        )]);
        let resolved = spec.substitute(&HashMap::new());
        assert!(resolved.has_variables());
    }
}
