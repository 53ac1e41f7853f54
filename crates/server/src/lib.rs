//! Concurrent multi-session server front-end for the RIDL* engine.
//!
//! The engine crate gives one process a single-handle `Database`; this
//! crate turns it into a shared service:
//!
//! * **Wire protocol** ([`proto`], [`json`]) — line-delimited JSON over
//!   TCP. One request object per line, one response per line, ids echoed
//!   back. Std-only: the parser/writer is the workspace's one JSON
//!   module, `ridl_obs::json`, re-exported here as [`json`].
//! * **Snapshot reads** — every read statement runs against the latest
//!   published [`ridl_engine::ReadSnapshot`]; the copy-on-write
//!   `RelState` makes publication O(tables), so readers never block the
//!   writer and a long client transaction never blocks readers.
//! * **Serialized group-commit pipeline** ([`pipeline`]) — all writes
//!   funnel through one committer thread that batches concurrent
//!   sessions' statements into a single WAL fsync per batch.
//! * **Admission control** ([`server`]) — bounded sessions, bounded
//!   per-session in-flight requests, bounded commit queue; each limit
//!   rejects with an explicit `busy` error rather than queueing
//!   unboundedly. Request lines and buffered transactions are capped too
//!   ([`MAX_LINE_BYTES`], [`MAX_TXN_OPS`]), answered with `proto`.
//!
//! See DESIGN.md §13 for the protocol grammar and the pipeline
//! invariants.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub(crate) mod pipeline;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError};
pub use pipeline::Committed;
pub use ridl_obs::json;
pub use server::{Server, ServerConfig, MAX_LINE_BYTES, MAX_TXN_OPS};
