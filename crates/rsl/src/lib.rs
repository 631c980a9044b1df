//! A from-scratch implementation of the Globus **Resource Specification
//! Language (RSL)** as used by GT2 GRAM and by the fine-grain policy
//! language of Keahey et al. (Middleware 2003).
//!
//! RSL describes a job request as a boolean combination of *relations*
//! between attributes and values:
//!
//! ```text
//! &(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count < 4)
//! ```
//!
//! This crate provides:
//!
//! * a lossless lexer/parser for conjunctions (`&`), disjunctions (`|`),
//!   multi-requests (`+`), the six relational operators, quoted and
//!   unquoted literals, value sequences, and `$(VAR)` substitution
//!   references ([`parse`]),
//! * a typed AST ([`Rsl`], [`Clause`], [`Relation`], [`Value`]) with a
//!   canonical pretty-printer (`Display`) such that `parse(x.to_string())`
//!   round-trips, and
//! * the well-known GRAM attribute names used throughout the workspace
//!   ([`attributes`]).
//!
//! # Example
//!
//! ```
//! use gridauthz_rsl::{parse, attributes, Value};
//!
//! let job = parse("&(executable = TRANSP)(count < 4)(jobtag = NFC)")?;
//! let conj = job.as_conjunction().expect("a conjunction");
//! assert_eq!(
//!     conj.first_value(attributes::EXECUTABLE),
//!     Some(&Value::literal("TRANSP"))
//! );
//! # Ok::<(), gridauthz_rsl::RslError>(())
//! ```

mod ast;
mod error;
mod parser;
mod token;

pub mod attributes;
pub mod intern;

pub use ast::{Attribute, Clause, Conjunction, RelOp, Relation, Rsl, Value};
pub use error::RslError;
pub use intern::{FrozenInterner, FxBuildHasher, Interner, Symbol};
pub use parser::parse;

#[cfg(test)]
mod proptests;
