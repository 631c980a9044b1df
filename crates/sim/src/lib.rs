//! The gridauthz **simulation harness**: reproducible testbeds, workload
//! generation, metrics, and the executable scenarios behind the paper's
//! figures (see DESIGN.md experiments F1–F3 and T1–T7).
//!
//! * [`Testbed`] / [`TestbedBuilder`] — a complete simulated Grid site:
//!   CA, trust store, users with credentials, grid-mapfile, a VO with the
//!   paper's role structure, and a [`GramServer`](gridauthz_gram::GramServer)
//!   in GT2 or extended mode;
//! * [`WorkloadGenerator`] — seeded random job mixes (sanctioned /
//!   violating / untagged requests, varying sizes and durations);
//! * [`SimMetrics`] — decision tallies and job outcome counts;
//! * [`scenario`] — the F1/F2 behavioural comparison and the F3 decision
//!   matrix as runnable functions returning printable rows.
//!
//! # Example
//!
//! ```
//! use gridauthz_sim::{TestbedBuilder, WorkloadGenerator};
//! use gridauthz_gram::GramMode;
//!
//! let testbed = TestbedBuilder::new().members(4).mode(GramMode::Extended).build();
//! let workload = WorkloadGenerator::new(42).jobs(20).violation_rate(0.3).generate(&testbed);
//! let metrics = gridauthz_sim::run_workload(&testbed, &workload);
//! assert_eq!(metrics.submitted_ok + metrics.denied, 20);
//! ```

mod fault;
mod metrics;
pub mod scenario;
mod testbed;
mod workload;

pub use fault::{FaultKind, FaultWindow, FlakyCallout};
pub use metrics::{DecisionTally, SimMetrics};
pub use testbed::{Testbed, TestbedBuilder, LOCAL_POLICY};
pub use workload::{run_workload, WorkloadGenerator, WorkloadItem};
