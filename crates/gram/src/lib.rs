//! **GRAM** — the Grid Resource Acquisition and Management system of GT2
//! (§4 of the paper), with the paper's authorization extensions (§5).
//!
//! Components, mirroring Figure 1/Figure 2:
//!
//! * [`Gatekeeper`] — authenticates the requesting Grid user (GSI chain
//!   validation), authorizes via the grid-mapfile, and maps the Grid
//!   identity to a local account;
//! * [`GramServer`] — the resource-side service creating a Job Manager
//!   Instance per job; the Job Manager parses the RSL request, drives the
//!   local scheduler, and (in [`GramMode::Extended`]) invokes the
//!   **authorization callout chain** before *every* action: job startup,
//!   cancel, status and signal;
//! * [`GramClient`] — the user-side API, extended (as §5.2 requires) to
//!   let a client manage jobs *it did not start*;
//! * [`GramError`] — the extended protocol error vocabulary
//!   distinguishing authorization denial (with reasons) from
//!   authorization-system failure.
//!
//! Two operating modes reproduce the paper's before/after:
//!
//! * [`GramMode::Gt2`] (Figure 1): authorization is the grid-mapfile
//!   alone; only the job initiator may manage a job; the Job Manager does
//!   no policy evaluation.
//! * [`GramMode::Extended`] (Figure 2): an [`AuthzEngine`] callout chain —
//!   typically local policy ∧ VO policy, optionally Akenti or CAS
//!   restriction enforcement — authorizes startup *and* management, so a
//!   VO admin can cancel any `NFC`-tagged job (requirement 3 of §2).
//!
//! [`AuthzEngine`]: gridauthz_core::AuthzEngine

mod audit;
pub mod authcache;
mod client;
pub mod crashsim;
pub mod frontend;
mod gatekeeper;
mod jobspec;
pub mod journal;
mod protocol;
pub mod provisioning;
mod server;
pub mod shard;
pub mod torture;
pub mod wire;

pub use audit::{AuditLog, AuditOutcome, AuditRecord};
pub use authcache::{AuthCache, AuthCacheStats, AuthEntry};
pub use client::{GramClient, WireClient};
pub use frontend::{Frontend, FrontendConfig, WorkerStats};
pub use gatekeeper::Gatekeeper;
pub use jobspec::{job_spec_from_rsl, normalize_job};
pub use journal::{DurabilityConfig, JournalRecord};
pub use protocol::{error_label, GramError, GramSignal, JobContact, JobReport};
pub use provisioning::{AccountStrategy, JobOperation};
pub use server::{GramMode, GramServer, GramServerBuilder, SweepOutcomes};
pub use shard::ShardedMap;
