//! **Virtual Organization** modelling (§1–2 of the paper).
//!
//! A VO structures a collaboration whose participants and resources span
//! administrative domains. Resource providers grant the VO a coarse
//! allocation and outsource fine-grain policy to it; the VO expresses how
//! *its* members may use the allocation — different rights for different
//! roles, mandatory job tagging for manageability, and policies that
//! change over time ("an active demo for a funding agency that should
//! have priority").
//!
//! This crate provides:
//!
//! * [`VirtualOrganization`] — named membership with [`Role`]s (the paper's
//!   use case has *developers*, *analysts*, and VO *admins*),
//! * [`RoleProfile`] — per-role rule templates from which a VO-wide
//!   [`Policy`](gridauthz_core::Policy) is generated,
//! * [`DynamicVoPolicy`] — time-windowed and utilization-conditioned
//!   policy overlays (requirement: "This policy may also be dynamic,
//!   adapting over time").
//!
//! # Example
//!
//! ```
//! use gridauthz_vo::{Role, RoleProfile, VirtualOrganization};
//!
//! let mut vo = VirtualOrganization::new("fusion");
//! vo.define_role(RoleProfile::parse_rules(
//!     Role::new("analyst"),
//!     &["&(action = start)(executable = TRANSP)(jobtag = NFC)"],
//! )?);
//! vo.add_member("/O=Grid/CN=Kate".parse()?, [Role::new("analyst")])?;
//! let policy = vo.generate_policy();
//! assert_eq!(policy.len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod dynamic;
mod error;
mod membership;

pub use dynamic::{DynamicVoPolicy, PolicyWindow, UtilizationOverlay};
pub use error::VoError;
pub use membership::{Role, RoleProfile, VirtualOrganization, VoMember};
