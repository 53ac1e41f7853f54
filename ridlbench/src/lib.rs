//! # ridlbench — RIDL-Bench v2
//!
//! One command runs one workload and prints every metric by name with
//! its unit, checking every outcome on the way:
//!
//! ```text
//! cargo run --release --manifest-path ridlbench/Cargo.toml -- \
//!     --workload <design|oltp|serve|restart> --seed N --seconds S --trace <0|1|FILE>
//! ```
//!
//! * [`workloads`] — the four workloads, their set-up, measured section
//!   and output checks;
//! * `traffic` — probed targets, violations, plans and the statement
//!   executor the engine workloads share;
//! * `store` — deploying the mapped store and the crash check;
//! * [`trace`] — the traced run's span accounting;
//! * `stats` — exact quantiles over raw per-operation samples;
//! * [`report`] — the layer calls and classes the per-layer metrics
//!   cover, and the result line.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;
mod stats;
mod store;
pub mod trace;
mod traffic;
pub mod workloads;
