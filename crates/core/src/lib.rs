//! The paper's primary contribution: a **fine-grain authorization policy
//! language and evaluation engine** for Grid resource management
//! (Keahey, Welch, Lang, Liu, Meder — *Fine-Grain Authorization Policies in
//! the GRID*, Middleware 2003).
//!
//! # The policy language (§5.1 of the paper)
//!
//! Policies are written in terms of RSL — the same language GRAM job
//! requests use — extended with three attributes (`action`, `jobowner`,
//! `jobtag`) and two special values (`NULL`, `self`). A policy is a list of
//! *statements*, each binding a subject to one or more RSL conjunctions:
//!
//! ```text
//! # requirement: everyone under mcs.anl.gov must tag their jobs
//! &/O=Grid/O=Globus/OU=mcs.anl.gov: &(action = start)(jobtag != NULL)
//!
//! # grants for individual users
//! /O=Grid/O=Globus/OU=mcs.anl.gov/CN=Bo Liu:
//!   &(action = start)(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count < 4)
//!   &(action = start)(executable = test2)(directory = /sandbox/test)(jobtag = NFC)(count < 4)
//!
//! /O=Grid/O=Globus/OU=mcs.anl.gov/CN=Kate Keahey:
//!   &(action = start)(executable = TRANSP)(directory = /sandbox/test)(jobtag = NFC)
//!   &(action = cancel)(jobtag = NFC)
//! ```
//!
//! Statements whose subject begins with `&` are **requirements**: they
//! apply to every identity *starting with* the given string (the paper's
//! group form) and every applicable conjunction must be satisfied.
//! Statements without `&` are **grants**: the request is permitted only if
//! at least one grant conjunction matches in full. Decisions are
//! **default-deny** ([`Decision`], [`DenyReason`]).
//!
//! # Evaluation points and combination (§5.2)
//!
//! [`Pdp`] evaluates a single policy; [`CombinedPdp`] combines decisions
//! from multiple policy sources (resource owner + VO) under a
//! [`Combiner`] — the paper's model is [`Combiner::DenyOverrides`]: *both*
//! PEPs must authorize. The runtime-configurable callout API of §5.2 is
//! modelled by [`AuthorizationCallout`] and [`CalloutRegistry`]; an
//! [`AuthzEngine`] is the ordered callout chain the Job Manager runs
//! before each action, and [`PdpCallout`] — the RSL policy evaluator
//! over a published [`PolicySnapshot`] — is one callout in it. An engine
//! with no callouts is the GT2 baseline.
//!
//! # Example
//!
//! ```
//! use gridauthz_core::{paper, Action, AuthzRequest, Pdp};
//! use gridauthz_rsl::parse;
//!
//! let policy = paper::figure3_policy();
//! let pdp = Pdp::new(policy);
//!
//! let job = parse("&(executable = test1)(directory = /sandbox/test)(jobtag = ADS)(count = 2)")?;
//! let request = AuthzRequest::start(paper::bo_liu(), job.as_conjunction().unwrap().clone());
//! assert!(pdp.decide(&request).is_permit());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod action;
pub mod analysis;
mod cache;
mod combine;
mod compile;
mod context;
mod decision;
mod error;
mod eval;
mod explain;
mod index;
mod parser;
mod pep;
mod policy;
mod request;
mod snapshot;
mod statement;
mod supervise;

pub mod paper;
pub mod xacml;

pub use action::Action;
pub use cache::{request_digest, CacheStats, DecisionCache};
pub use combine::{CombinedDecision, CombinedPdp, Combiner, PolicyOrigin, PolicySource};
pub use compile::{CompiledProgram, CompiledRequest};
pub use context::{
    clamp_client_budget, retry_budget, AdmissionClass, RequestContext, ShedReason,
    MAX_CLIENT_BUDGET,
};
pub use decision::{Decision, DenyReason};
pub use error::{AuthzFailure, PolicyParseError};
pub use eval::Pdp;
pub use explain::{Explanation, GrantAttempt, RequirementCheck};
/// The per-decision span list a callout records into — re-exported so a
/// crate implementing [`AuthorizationCallout`] needs no telemetry
/// dependency of its own.
pub use gridauthz_telemetry::DecisionTrace;
pub use index::SubjectIndex;
pub use parser::parse_policy;
pub use pep::{
    AuthorizationCallout, AuthzEngine, CalloutConfig, CalloutConfigEntry, CalloutFactory,
    CalloutRegistry,
};
pub use policy::Policy;
pub use request::{AuthzRequest, JobDescription};
pub use snapshot::{PdpCallout, PolicySnapshot, SnapshotCell};
pub use statement::{PolicyStatement, StatementRole, SubjectMatcher};
pub use supervise::{
    BreakerState, BreakerTransition, DegradationPolicy, ResilienceConfig, SupervisedCallout,
    SupervisionReport, SupervisionStats,
};

#[cfg(test)]
mod proptests;
