//! Durability layer for the RIDL* engine: write-ahead logging,
//! checkpoint snapshots, crash recovery, and a syscall-level
//! fault-injection harness.
//!
//! The crate is deliberately engine-agnostic — it knows about
//! [`ridl_relational::RelState`] and [`ridl_relational::DeltaOp`] but not
//! about constraints or validation. The engine layers recovery *replay*
//! (re-running committed units through its incremental-validation path)
//! on top of the raw scan this crate provides.
//!
//! Module map:
//!
//! * [`crc`] — zero-dependency CRC32 (IEEE), the integrity check for both
//!   WAL frames and snapshots;
//! * [`io`] — the [`DurableIo`] syscall boundary and the real
//!   [`StdIo`] implementation;
//! * [`fault`] — [`FaultyIo`], an in-memory filesystem with per-syscall
//!   fault injection and simulated crashes;
//! * [`token`] — the typed value-token codec shared by the WAL, the
//!   snapshots and `metadb` (which delegates here);
//! * [`pagesnap`] — the v2 binary paged checkpoint format: CRC-framed
//!   pages grouped into content-hashed extents, base snapshots plus
//!   incremental extent deltas;
//! * [`wal`] — length-prefixed, CRC-checksummed WAL frames with explicit
//!   commit markers, and the total (never-panicking) [`scan_wal`];
//! * [`store`] — the on-disk protocol: file layout, crash-safe base +
//!   delta-chain checkpoint and log-truncation sequences, and the
//!   recovery read path;
//! * [`inspect`] — offline, read-only store inspection (`ridl status`):
//!   the same strict decodes as recovery, but reporting debris and
//!   inconsistencies instead of repairing them.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod crc;
pub mod fault;
pub mod inspect;
pub mod io;
pub mod pagesnap;
pub mod store;
pub mod token;
pub mod wal;

pub use crate::fault::{FaultKind, FaultPlan, FaultyIo};
pub use crate::inspect::{inspect_store, CheckpointInfo, StoreStatus, WalStatus};
pub use crate::io::{DurableIo, StdIo};
pub use crate::pagesnap::{
    decode_paged, encode_base, encode_delta, merge_chain, row_extent_hash, ExtentGeometry,
    PagedSnap, SnapFlavor, SnapStats,
};
pub use crate::store::{
    delta_file, read_store, write_checkpoint, CheckpointFailure, CheckpointKind, CheckpointOutcome,
    CheckpointPlan, CheckpointStats, Snapshot, StoreScan,
};
pub use crate::token::{decode_value, encode_value, fingerprint_str, CorruptError};
pub use crate::wal::{encode_unit, scan_wal, wal_init_bytes, CommitUnit, WalHeader, WalScan};

/// When the WAL is fsync'd relative to commits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FsyncPolicy {
    /// fsync on every commit before reporting success. A reported-success
    /// commit survives any crash.
    Always,
    /// Group commit: fsync at most once per window. Commits inside the
    /// window are reported before they are durable — a crash may lose a
    /// suffix of them, but never produces a non-prefix state.
    GroupCommit {
        /// Maximum time between fsyncs, in microseconds.
        window_micros: u64,
    },
    /// Never fsync from the commit path (checkpoints still sync). For
    /// benchmarking the WAL's CPU cost in isolation.
    Never,
}

/// Durability configuration for a [`DurableIo`]-backed engine database.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Durability {
    /// Commit fsync policy.
    pub fsync: FsyncPolicy,
    /// Take an automatic checkpoint (and truncate the WAL) once the log
    /// exceeds this many bytes. `None` disables automatic checkpoints.
    /// Auto-checkpoints are deferred while a transaction is open.
    pub checkpoint_every_bytes: Option<u64>,
}

impl Default for Durability {
    fn default() -> Self {
        Durability {
            fsync: FsyncPolicy::Always,
            checkpoint_every_bytes: Some(4 << 20),
        }
    }
}

/// What crash recovery found and did, surfaced through
/// `Database::recovery_report` and `ridl recover`.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint the recovered state is based on, and the
    /// file it was read from; `None` when recovery started from the
    /// empty state.
    pub checkpoint: Option<(u64, &'static str)>,
    /// Snapshot/delta files recovery decoded and rejected (checksum or
    /// parse failure). `checkpoint.prev` is decoded only when
    /// `checkpoint.snap` is missing or rejected, so damage to an unused
    /// fallback is not counted here; `ridl status` reports it.
    pub snapshots_rejected: usize,
    /// Format of the checkpoint recovery started from: 0 none, 2 binary
    /// paged (v2). Stores holding a retired v1 text snapshot are refused.
    pub snapshot_format: u8,
    /// Delta files merged on top of the base checkpoint.
    pub deltas_merged: usize,
    /// Total WAL bytes scanned.
    pub wal_bytes_scanned: u64,
    /// Committed units replayed into the recovered state.
    pub units_replayed: usize,
    /// Individual delta ops inside those units.
    pub ops_replayed: usize,
    /// Bytes past the last valid committed unit (torn/partial/corrupt
    /// tail records) that were discarded.
    pub bytes_discarded: u64,
    /// True when the WAL predated the checkpoint (crash between the
    /// checkpoint renames and the WAL reset) and was discarded whole.
    pub stale_wal: bool,
    /// True when replay stopped early because a committed unit no longer
    /// validated (possible only if the schema changed between runs);
    /// the remaining units are counted in `bytes_discarded`.
    pub replay_rejected: bool,
    /// True when the store directory was empty (first open).
    pub fresh: bool,
    /// Wall-clock nanoseconds the whole recovery took (store scan,
    /// checkpoint load, WAL replay, log repair). Always measured — unlike
    /// the detail-gated obs timings — so crash-recovery time can feed
    /// benchmark artifacts without enabling per-probe instrumentation.
    pub elapsed_ns: u64,
    /// Where `elapsed_ns` went, stage by stage.
    pub stages: RecoveryStages,
}

/// Wall-clock nanoseconds per recovery stage, always measured. The
/// stages run one after another inside [`RecoveryReport::elapsed_ns`], so
/// they sum to at most it; the rest is glue (fingerprint checks, seeding
/// the dirty-extent set, metrics).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct RecoveryStages {
    /// Reading the checkpoint, delta and WAL files.
    pub read_ns: u64,
    /// Decoding them: frame CRCs, rows and their extents, the WAL scan.
    pub decode_ns: u64,
    /// Merging the base with its delta chain into one state.
    pub merge_ns: u64,
    /// Building the constraint indexes over the merged state.
    pub index_build_ns: u64,
    /// Checking every constraint against those indexes.
    pub validate_ns: u64,
    /// Replaying the committed WAL units.
    pub replay_ns: u64,
    /// Rewriting a torn, stale or rejected WAL.
    pub rewrite_ns: u64,
}

impl RecoveryStages {
    /// `(field name, nanoseconds)` per stage, in execution order.
    pub fn named(&self) -> [(&'static str, u64); 7] {
        [
            ("read_ns", self.read_ns),
            ("decode_ns", self.decode_ns),
            ("merge_ns", self.merge_ns),
            ("index_build_ns", self.index_build_ns),
            ("validate_ns", self.validate_ns),
            ("replay_ns", self.replay_ns),
            ("rewrite_ns", self.rewrite_ns),
        ]
    }

    /// Sum over all stages.
    pub fn total_ns(&self) -> u64 {
        self.named().iter().map(|(_, ns)| ns).sum()
    }
}

/// Wall-clock nanoseconds since `start`, saturating.
pub fn elapsed_ns(start: std::time::Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `f`, adding its wall-clock nanoseconds to `slot` (a
/// [`RecoveryStages`] field).
pub fn timed<T>(slot: &mut u64, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    *slot += elapsed_ns(start);
    out
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.fresh {
            return writeln!(f, "recovery: fresh store (no WAL, no checkpoint)");
        }
        match self.checkpoint {
            Some((epoch, file)) => {
                let format = match self.snapshot_format {
                    2 => "v2 paged",
                    _ => "unknown",
                };
                writeln!(f, "checkpoint: epoch {epoch} from {file} ({format})")?;
                if self.deltas_merged > 0 {
                    writeln!(f, "deltas merged: {}", self.deltas_merged)?;
                }
            }
            None => writeln!(f, "checkpoint: none (recovered from empty state)")?,
        }
        if self.snapshots_rejected > 0 {
            writeln!(f, "snapshots rejected: {}", self.snapshots_rejected)?;
        }
        writeln!(
            f,
            "wal: {} bytes scanned, {} units ({} ops) replayed, {} bytes discarded",
            self.wal_bytes_scanned, self.units_replayed, self.ops_replayed, self.bytes_discarded
        )?;
        if self.stale_wal {
            writeln!(f, "wal: stale (predates checkpoint), discarded whole")?;
        }
        if self.replay_rejected {
            writeln!(
                f,
                "wal: replay stopped early (a committed unit no longer validates)"
            )?;
        }
        if self.elapsed_ns > 0 {
            writeln!(
                f,
                "recovery took {:.3} ms",
                self.elapsed_ns as f64 / 1_000_000.0
            )?;
            let stages: Vec<String> = self
                .stages
                .named()
                .iter()
                .map(|(name, ns)| {
                    let stage = name.trim_end_matches("_ns");
                    format!("{stage} {:.3}", *ns as f64 / 1_000_000.0)
                })
                .collect();
            writeln!(f, "stages (ms): {}", stages.join(", "))?;
        }
        Ok(())
    }
}
