//! # ridl-workloads — the paper's schemas and synthetic generators
//!
//! * [`fig6`] — the Paper / Invited\_Paper / Program\_Paper fragment of the
//!   paper's figure 6, whose four mapping alternatives the experiments
//!   reproduce, plus a consistent sample population;
//! * [`cris`] — the full "CRIS-case" conference-organisation schema (the
//!   paper's running example, after Olle's *Design Specifications for
//!   Conference Organization*), reconstructed at realistic size;
//! * [`synth`] — a seeded generator of arbitrarily large, well-formed,
//!   referable binary schemas, standing in for the proprietary industrial
//!   schemas behind the paper's "120–150 ORACLE tables" claim (§5);
//! * [`popgen`] — a seeded generator of fact-closed model populations for
//!   any schema, powering the losslessness property tests;
//! * [`scenario`] — ready-made experiment scenarios (the industrial mapped
//!   schema with a calibrated large population) shared by the benches and
//!   the differential test suites;
//! * [`macrobench`] — the RIDL-Bench end-to-end macro workload: staged
//!   pipeline builders plus a deterministic mixed-traffic plan, driven by
//!   the `ridlbench/` benchmark and `tests/checkpoint_scaling.rs`;
//! * [`sigex`] — Proper-style significant examples: verified
//!   near-violation populations that stress each constraint class at its
//!   boundary.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cris;
pub mod fig6;
pub mod macrobench;
pub mod popgen;
pub mod scenario;
pub mod sigex;
pub mod synth;

pub use synth::{GenParams, SynthSchema};
