//! # ridl-bench — the shared harness of the per-figure benches
//!
//! The `benches/` directory holds one criterion harness per paper
//! figure/claim; [`harness`] holds what they share: scenario
//! construction, engine-probed mutation targets, adaptive timing loops
//! and scratch directories (previously copy-pasted into each bench).
//!
//! The end-to-end benchmark is the `ridlbench/` package (see its
//! README); it imports [`harness::durability`] from here.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod harness;
