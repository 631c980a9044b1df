//! **Telemetry** — the unified metrics and per-decision tracing layer for
//! the authorization pipeline.
//!
//! With community accounts and VO-wide management (§4.3/§6 of the paper)
//! the PEP is the only place that still knows *who asked for what*, so it
//! is also the only place that can say *where a decision spent its time*.
//! This crate provides that substrate:
//!
//! * [`TelemetryRegistry`] — sharded atomic counters keyed by
//!   ([`Stage`], label), fixed-bucket latency histograms per stage, and
//!   named gauges ([`Gauge`]) for snapshot generation and cache
//!   occupancy. Counter increments are a single relaxed `fetch_add` on a
//!   cache-line-padded shard; the cached decide hot path records *no*
//!   timestamps, only counters, keeping overhead under the 5% budget.
//! * [`DecisionTrace`] — a per-request span list covering
//!   authenticate → gridmap → cache probe → each callout → combine →
//!   enforce, each span carrying an outcome label and elapsed monotonic
//!   nanoseconds; the trace carries the request's [`SimTime`] arrival.
//!   [`TelemetryRegistry::finish_trace`] folds the spans into the
//!   counters and histograms and retains the trace in a bounded ring, so
//!   per-stage accounting happens exactly once per request.
//! * [`RegistrySnapshot`] — a point-in-time copy with deterministic
//!   [text](RegistrySnapshot::to_text) and
//!   [JSON](RegistrySnapshot::to_json) renderings, pinned byte for byte
//!   by a golden test.
//!
//! The label vocabulary is fixed (see [`labels`]): the ten GRAM error
//! labels shared with the simulator's `DecisionTally`, plus `permit` for
//! granted stages, `hit`/`miss` for the cache probe, and the
//! callout-supervision labels (`retry`, `timeout`, the three
//! `breaker-*` transition labels, `stale-served`, `degraded`). A fixed
//! vocabulary is what lets the counters live in flat atomic arrays with
//! no interior locking or allocation.
//!
//! [`SimTime`]: gridauthz_clock::SimTime

mod export;
mod registry;
mod trace;

pub mod labels;

pub use export::{HistogramSnapshot, RegistrySnapshot};
pub use registry::{Gauge, TelemetryRegistry};
pub use trace::{DecisionTrace, Span, Stage};
