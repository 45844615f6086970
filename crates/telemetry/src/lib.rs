//! `vmprobe-telemetry` — a deterministic, zero-dependency tracing and
//! metrics layer for the vmprobe stack.
//!
//! The source paper's contribution is *measurement infrastructure* whose
//! own perturbation is known and small (the component-ID port write costs
//! a fixed number of cycles, accounted for in every run). This crate holds
//! the reproduction's own observability to the same standard:
//!
//! * **Two clock domains.** Spans produced inside the simulated machine
//!   carry *virtual* cycle timestamps ([`SpanTrace`]) and are pure
//!   functions of the experiment configuration — byte-identical no matter
//!   how many worker threads executed the sweep. Host-side runner spans
//!   ([`HostSpan`]) carry wall-clock timestamps and are recorded but
//!   **excluded** from every golden/determinism comparison.
//! * **Measured cost.** The disabled path is one relaxed atomic load per
//!   probe site (see [`Telemetry`]); the enabled path is a counter add or
//!   a `Vec` push on the owning thread. The runner's
//!   `--telemetry-overhead` mode measures the residual tax empirically.
//! * **Standard exports.** A [`Snapshot`] renders as Chrome trace-event
//!   JSON (loadable in Perfetto, one virtual track per VM component plus
//!   one host track per worker), a Prometheus-style text dump, and a
//!   human-readable summary table.
//! * **One JSON codec.** The [`json`] module is the workspace's only JSON
//!   writer and parser; every crate above this one reuses it.
//!
//! Everything here is plain `std`: the build is fully offline and the
//! crate sits below `vmprobe-vm`/`vmprobe` in the dependency graph.

#![warn(missing_docs)]

mod counter;
mod export;
mod hist;
mod hub;
pub mod json;
mod sink;
mod span;

pub use counter::CounterId;
pub use hist::{HistId, Histogram};
pub use hub::{CellStream, HostSpanGuard, Snapshot, Telemetry};
pub use sink::{NoopSink, Sink, StderrSink};
pub use span::{HostSpan, SpanTrace, VirtualSpan};

/// Version stamped into every machine-readable artifact this workspace
/// emits: the `RunReport` JSON, the Chrome trace, and the Prometheus dump.
///
/// Bump it whenever any of those formats changes shape; all three move in
/// lockstep by construction because they all read this constant
/// (`tests/telemetry_determinism.rs` asserts it).
pub const SCHEMA_VERSION: u32 = 1;
