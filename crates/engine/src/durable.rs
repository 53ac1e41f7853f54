//! Durability wiring: opens a [`Database`] over an on-disk store
//! directory, recovers from whatever a crash left behind, and keeps the
//! write-ahead log and checkpoints in step with the engine's commit
//! points.
//!
//! The protocol pieces (WAL framing, snapshot format, the crash-safe
//! checkpoint sequence) live in `ridl-durable`; this module is the glue
//! that decides *when* they run:
//!
//! * every successful statement outside a transaction, and every
//!   successful outermost `commit`, appends one WAL unit ending in a
//!   commit marker, then fsyncs per the configured [`FsyncPolicy`];
//! * `bulk_load` / `load_state` checkpoint the incoming state instead of
//!   logging it row by row;
//! * recovery loads the newest usable checkpoint, replays each committed
//!   WAL unit as one statement through the engine's own validation path,
//!   discards any torn tail, and reports what it did in a
//!   [`RecoveryReport`].
//!
//! Every unit the engine logs was validated when it ran, so the store
//! only ever holds constraint-valid states and a checkpoint writes the
//! state as it is.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ridl_durable::store::{store_path, CheckpointFailure, WAL_FILE};
use ridl_durable::{
    elapsed_ns, encode_unit, fingerprint_str, read_store, timed, wal, write_checkpoint,
    CheckpointKind, CheckpointPlan, CheckpointStats, Durability, DurableIo, ExtentGeometry,
    FsyncPolicy, RecoveryReport, StdIo,
};
use ridl_obs::journal;
use ridl_obs::Severity;
use ridl_relational::{DeltaOp, RelSchema, RelState, Row, TableId};

use crate::db::{Database, EngineError};

/// Longest delta chain before the next checkpoint is forced to be a full
/// base. Bounds both recovery merge work and the number of files a scan
/// probes; 8 deltas at the auto-checkpoint threshold keeps the chain's
/// total bytes comfortably below one extra base.
const MAX_DELTA_CHAIN: u32 = 8;

/// The engine's live connection to a store directory.
pub(crate) struct WalHandle {
    io: Arc<dyn DurableIo>,
    dir: PathBuf,
    config: Durability,
    /// Checkpoint generation; the WAL header carries the epoch its units
    /// apply on top of.
    epoch: u64,
    /// Schema fingerprint cross-checked against snapshots and WAL headers.
    fingerprint: u64,
    /// Current WAL file length (the append position).
    wal_len: u64,
    /// Set on any append/fsync failure: the log may no longer reflect the
    /// state, so mutations are refused until a checkpoint succeeds.
    poisoned: bool,
    /// Group commit: when the last fsync happened and whether appended
    /// bytes are still waiting for one.
    last_sync: Instant,
    unsynced: bool,
    /// Commits appended since the last fsync — the group-commit batch
    /// size, recorded to the `wal.group_batch` histogram at each fsync.
    commits_since_sync: u64,
    /// The extent geometry frozen by the current chain's base checkpoint
    /// (v2). `None` until the first v2 base exists (fresh store, or a
    /// legacy v1 snapshot awaiting upgrade) — then every checkpoint is a
    /// full base.
    geometry: Option<ExtentGeometry>,
    /// `(table, extent)` pairs mutated since the last checkpoint, marked
    /// at mutation time against `geometry`. What an incremental
    /// checkpoint rewrites.
    dirty: BTreeSet<(u32, u32)>,
    /// Set when a mutation touched a table the geometry does not cover
    /// (defensive; schema changes mid-run are otherwise rejected). Forces
    /// the next checkpoint to be a base.
    dirty_overflow: bool,
    /// Deltas layered on the current base so far.
    chain_len: u32,
    /// Size accounting of the most recent durable checkpoint.
    last_ckpt: Option<CheckpointStats>,
}

impl WalHandle {
    pub(crate) fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

fn io_err(what: &str, e: std::io::Error) -> EngineError {
    EngineError::Io(format!("{what}: {e}"))
}

/// Fingerprint of the relational schema, stored in snapshots and WAL
/// headers so a store is never replayed under a different schema. Derived
/// from the schema's debug rendering — conservative: any structural
/// change (tables, columns, constraints) changes it.
fn schema_fingerprint(schema: &RelSchema) -> u64 {
    fingerprint_str(&format!("{schema:?}"))
}

impl Database {
    /// Opens (or creates) a durable database in `dir` with default
    /// durability (fsync on every commit), recovering whatever a previous
    /// process — cleanly shut down or not — left there.
    pub fn open(dir: impl AsRef<Path>, schema: RelSchema) -> Result<Self, EngineError> {
        Self::open_with(Arc::new(StdIo), dir, schema, Durability::default())
    }

    /// [`Database::open`] with an explicit I/O implementation and
    /// durability configuration (the fault-injection entry point).
    pub fn open_with(
        io: Arc<dyn DurableIo>,
        dir: impl AsRef<Path>,
        schema: RelSchema,
        config: Durability,
    ) -> Result<Self, EngineError> {
        let dir = dir.as_ref().to_path_buf();
        let mut span = ridl_obs::span::enter("engine.recover");
        // Always-on wall clock (the obs Stopwatch is detail-gated): the
        // recovery report carries the elapsed time unconditionally.
        let wall = Instant::now();
        let sw = ridl_obs::Stopwatch::start();
        let mut db = Database::create(schema)?;
        let fingerprint = schema_fingerprint(&db.schema);

        io.create_dir_all(&dir)
            .map_err(|e| io_err("create store dir", e))?;
        let scan = read_store(&*io, &dir)
            .map_err(|e| io_err("read store", e))?
            .map_err(|e| EngineError::Corrupt(e.0))?;

        let mut report = RecoveryReport {
            fresh: scan.fresh && scan.snapshot.is_none() && scan.snapshots_rejected == 0,
            snapshots_rejected: scan.snapshots_rejected,
            wal_bytes_scanned: scan.wal_len,
            bytes_discarded: if scan.stale_wal {
                // The whole log predates the checkpoint; every byte past
                // its header was already absorbed.
                scan.wal_len
            } else {
                scan.wal.discarded
            },
            stale_wal: scan.stale_wal,
            snapshot_format: scan.snapshot_format,
            deltas_merged: scan.deltas_merged,
            ..RecoveryReport::default()
        };

        // Cross-check fingerprints before touching any data.
        if let Some((snap, _)) = &scan.snapshot {
            if snap.fingerprint != fingerprint {
                return Err(EngineError::SchemaMismatch);
            }
        }
        if let Some(h) = &scan.wal.header {
            if h.fingerprint != fingerprint {
                return Err(EngineError::SchemaMismatch);
            }
        }

        // Base state: the chosen checkpoint or the empty state. The
        // checkpoint goes in through `load_state`, which builds the
        // constraint indexes and checks every constraint against them, so
        // a CRC-valid but constraint-invalid checkpoint is refused.
        let mut stages = scan.stages;
        let epoch = match scan.snapshot {
            Some((snap, file)) => {
                if snap.state.num_tables() != db.schema.tables.len() {
                    return Err(EngineError::Corrupt(format!(
                        "snapshot has {} tables, schema has {}",
                        snap.state.num_tables(),
                        db.schema.tables.len()
                    )));
                }
                report.checkpoint = Some((snap.epoch, file));
                let epoch = snap.epoch;
                db.load_state_timed(
                    snap.state,
                    &mut stages.index_build_ns,
                    &mut stages.validate_ns,
                )?;
                epoch
            }
            None => scan.wal.header.map(|h| h.epoch).unwrap_or(0),
        };

        if !report.fresh {
            journal::record(
                Severity::Info,
                "recover.begin",
                vec![
                    ("epoch", epoch.into()),
                    ("wal_bytes", scan.wal_len.into()),
                    ("deltas_merged", report.deltas_merged.into()),
                    ("snapshot_format", u64::from(report.snapshot_format).into()),
                ],
            );
        }
        if report.stale_wal {
            journal::record(
                Severity::Warn,
                "recover.stale_wal",
                vec![("epoch", epoch.into()), ("bytes", scan.wal_len.into())],
            );
        }

        // Replay the committed WAL suffix through the engine's own
        // validation path, one statement per unit: each re-validates (and
        // must pass; it passed live). A unit that no longer validates
        // stops replay gracefully.
        let units = scan.wal.units;
        let replay_start = Instant::now();
        for unit in &units {
            if report.replay_rejected {
                break;
            }
            let mark = db.undo.len();
            for op in &unit.ops {
                db.apply(op.clone());
            }
            match db.finish_statement(mark, "recover.replay") {
                Ok(()) => {}
                Err(EngineError::ConstraintViolation(_)) => {
                    report.replay_rejected = true;
                    journal::record(
                        Severity::Warn,
                        "recover.reject",
                        vec![
                            ("unit", report.units_replayed.into()),
                            ("ops", unit.ops.len().into()),
                        ],
                    );
                    continue;
                }
                Err(e) => return Err(e),
            }
            journal::record(
                Severity::Debug,
                "recover.replay",
                vec![
                    ("unit", report.units_replayed.into()),
                    ("ops", unit.ops.len().into()),
                ],
            );
            report.units_replayed += 1;
            report.ops_replayed += unit.ops.len();
        }
        stages.replay_ns = elapsed_ns(replay_start);

        // Re-seed the dirty-extent set from the replayed units: their
        // changes are in the WAL but not yet in the chain on disk, so the
        // next incremental checkpoint must rewrite their extents. (During
        // replay `db.wal` was not yet attached, so the live `note_dirty`
        // path never saw them.)
        let mut dirty_extents = BTreeSet::new();
        let mut dirty_overflow = false;
        if let Some(g) = &scan.geometry {
            for unit in &units[..report.units_replayed] {
                for op in &unit.ops {
                    let (DeltaOp::Insert { table, row } | DeltaOp::Remove { table, row }) = op;
                    let t = table.index();
                    if t >= g.num_tables() {
                        dirty_overflow = true;
                    } else {
                        dirty_extents.insert((t as u32, g.extent_of(t, row)));
                    }
                }
            }
        }

        // Establish a clean append point. The WAL file can be appended
        // to as-is only when it is fully intact; a torn tail, a stale
        // log, or a rejected replay means the file must be rewritten to
        // exactly the units the recovered state contains.
        let dirty = report.bytes_discarded > 0
            || report.stale_wal
            || report.replay_rejected
            || scan.wal.header.is_none();
        let mut handle = WalHandle {
            io,
            dir,
            config,
            epoch,
            fingerprint,
            wal_len: scan.wal.committed_end,
            poisoned: false,
            last_sync: Instant::now(),
            unsynced: false,
            commits_since_sync: 0,
            geometry: scan.geometry,
            dirty: dirty_extents,
            dirty_overflow,
            chain_len: scan.deltas_merged as u32,
            last_ckpt: None,
        };
        if dirty {
            let rewrite = timed(&mut stages.rewrite_ns, || {
                rewrite_wal(&handle, &units, report.units_replayed)
            });
            journal::record(
                if rewrite.is_ok() {
                    Severity::Warn
                } else {
                    Severity::Error
                },
                "recover.rewrite",
                vec![
                    ("units_kept", report.units_replayed.into()),
                    ("discarded", report.bytes_discarded.into()),
                    ("ok", rewrite.is_ok().into()),
                ],
            );
            match rewrite {
                Ok(len) => handle.wal_len = len,
                // The store is readable but not yet appendable; surface
                // the recovered data and let a checkpoint repair the log.
                Err(_) => handle.poisoned = true,
            }
        }

        let m = ridl_obs::metrics();
        m.wal_recoveries.inc();
        m.wal_replayed_ops.add(report.ops_replayed as u64);
        m.wal_discarded_bytes.add(report.bytes_discarded);
        if span.is_recording() {
            span.attr("units_replayed", report.units_replayed);
            span.attr("ops_replayed", report.ops_replayed);
            span.attr("bytes_discarded", report.bytes_discarded);
            span.attr("stale_wal", report.stale_wal);
            span.attr("fresh", report.fresh);
        }
        ridl_obs::hist::record_named("engine.recover", sw.elapsed_ns());
        // Recovery progress histograms: always-on count distributions so
        // the bench artifact can report replay volume without detail mode.
        ridl_obs::hist::record_named("recover.units_replayed", report.units_replayed as u64);
        ridl_obs::hist::record_named("recover.deltas_merged", report.deltas_merged as u64);
        ridl_obs::hist::record_named("recover.bytes_scanned", report.wal_bytes_scanned);
        report.stages = stages;
        report.elapsed_ns = elapsed_ns(wall);
        if !report.fresh {
            let mut attrs = vec![
                ("epoch", epoch.into()),
                ("units", report.units_replayed.into()),
                ("ops", report.ops_replayed.into()),
                ("discarded", report.bytes_discarded.into()),
                ("elapsed_ns", report.elapsed_ns.into()),
            ];
            attrs.extend(stages.named().map(|(name, ns)| (name, ns.into())));
            journal::record(Severity::Info, "recover.done", attrs);
            // Dump-on-recovery: the one moment the flight recorder is
            // guaranteed to matter. No-op unless RIDL_JOURNAL_JSONL is set.
            journal::dump_env();
        }

        db.wal = Some(handle);
        db.recovery = Some(report);
        Ok(db)
    }

    /// Whether this database is backed by a store directory.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// The durability configuration, if durable.
    pub fn durability(&self) -> Option<Durability> {
        self.wal.as_ref().map(|w| w.config)
    }

    /// Current WAL length in bytes, if durable.
    pub fn wal_bytes(&self) -> Option<u64> {
        self.wal.as_ref().map(|w| w.wal_len)
    }

    /// What recovery found when this database was opened from disk.
    /// `None` for in-memory databases.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Forces any WAL bytes still buffered by a group-commit window to
    /// durable storage. No-op for in-memory databases.
    pub fn flush_wal(&mut self) -> Result<(), EngineError> {
        let Some(w) = self.wal.as_mut() else {
            return Ok(());
        };
        if w.poisoned {
            return Err(EngineError::WalPoisoned);
        }
        if w.unsynced {
            let path = store_path(&w.dir, WAL_FILE);
            let sw = ridl_obs::Stopwatch::start();
            if let Err(e) = w.io.sync(&path) {
                w.poisoned = true;
                journal::record(
                    Severity::Error,
                    "wal.poison",
                    vec![("stage", "flush_fsync".into())],
                );
                return Err(io_err("wal fsync", e));
            }
            ridl_obs::metrics().wal_fsyncs.inc();
            ridl_obs::hist::record_named("wal.fsync", sw.elapsed_ns());
            ridl_obs::hist::record_named("wal.group_batch", w.commits_since_sync);
            journal::record(
                Severity::Debug,
                "wal.fsync",
                vec![
                    ("batch", w.commits_since_sync.into()),
                    ("flush", true.into()),
                ],
            );
            w.commits_since_sync = 0;
            w.unsynced = false;
            w.last_sync = Instant::now();
        }
        Ok(())
    }

    /// Takes a checkpoint: snapshots the current state, then truncates
    /// the WAL. Also the recovery path from a poisoned WAL. Refused while
    /// a transaction is open ([`EngineError::CheckpointInTransaction`]) —
    /// a snapshot taken mid-transaction would make uncommitted changes
    /// durable.
    pub fn checkpoint(&mut self) -> Result<(), EngineError> {
        self.checkpoint_inner(false)
    }

    /// [`Database::checkpoint`], but always writes a full base snapshot —
    /// never an incremental delta — collapsing the delta chain to one
    /// file and re-freezing the extent geometry to the current state's
    /// size.
    pub fn checkpoint_full(&mut self) -> Result<(), EngineError> {
        self.checkpoint_inner(true)
    }

    fn checkpoint_inner(&mut self, force_full: bool) -> Result<(), EngineError> {
        if self.wal.is_none() {
            return Err(EngineError::Unknown("no durable store attached".into()));
        }
        if !self.txn_marks.is_empty() {
            return Err(EngineError::CheckpointInTransaction);
        }
        let state = std::mem::take(&mut self.state);
        let r = self.wal_checkpoint_of(&state, force_full);
        self.state = state;
        r
    }

    /// Size accounting of the most recent checkpoint this process wrote
    /// (base or delta). `None` for in-memory databases and before the
    /// first checkpoint.
    pub fn last_checkpoint_stats(&self) -> Option<CheckpointStats> {
        self.wal.as_ref().and_then(|w| w.last_ckpt)
    }

    /// Marks the extent holding `row` dirty, so the next incremental
    /// checkpoint rewrites it. Called on every effective mutation (and
    /// every revert — conservative: a revert restores the snapshot's
    /// content, but proving that is not worth the bookkeeping). No-op
    /// until a v2 base has frozen a geometry.
    pub(crate) fn note_dirty(&mut self, table: TableId, row: &Row) {
        let Some(w) = self.wal.as_mut() else {
            return;
        };
        let Some(g) = w.geometry.as_ref() else {
            return;
        };
        let t = table.index();
        if t >= g.num_tables() {
            w.dirty_overflow = true;
            return;
        }
        w.dirty.insert((t as u32, g.extent_of(t, row)));
    }

    /// Writes a checkpoint of `state` (which may be a candidate state not
    /// yet swapped in — `bulk_load`). No-op for in-memory databases.
    ///
    /// Picks incremental vs full: an extent delta is written when a
    /// geometry exists, the dirty set describes `state` (it does not for
    /// `bulk_load`/`load_state` candidates — those pass `force_full`),
    /// the chain is short enough, and the dirty fraction is small enough
    /// that a delta actually saves bytes. Anything else gets a base.
    ///
    /// Failure modes: if the snapshot itself could not be made current,
    /// the store still holds the previous state and the error aborts the
    /// caller's operation. If only the WAL reset failed, the snapshot
    /// *is* durable — the call succeeds, but the handle is poisoned until
    /// a later checkpoint repairs the log.
    pub(crate) fn wal_checkpoint_of(
        &mut self,
        state: &RelState,
        force_full: bool,
    ) -> Result<(), EngineError> {
        let Some(w) = self.wal.as_mut() else {
            return Ok(());
        };
        let mut span = ridl_obs::span::enter("engine.checkpoint");
        let sw = ridl_obs::Stopwatch::start();
        let next = w.epoch + 1;
        let use_delta = !force_full
            && !w.dirty_overflow
            && w.chain_len < MAX_DELTA_CHAIN
            && w.geometry.as_ref().is_some_and(|g| {
                // Past half the extents dirty, a delta is bigger than the
                // base it postpones — just write the base.
                g.num_tables() == state.num_tables()
                    && (w.dirty.len() as u64) * 2 <= g.total_extents()
            });
        let plan = if use_delta {
            CheckpointPlan::Delta {
                geometry: w.geometry.as_ref().expect("use_delta requires geometry"),
                dirty: &w.dirty,
                seq: w.chain_len + 1,
            }
        } else {
            CheckpointPlan::Base
        };
        if span.is_recording() {
            span.attr("epoch", next);
            span.attr("rows", state.num_rows());
            span.attr("kind", if use_delta { "delta" } else { "base" });
        }
        journal::record(
            Severity::Info,
            "ckpt.decision",
            vec![
                ("epoch", next.into()),
                ("kind", if use_delta { "delta" } else { "base" }.into()),
                ("dirty", w.dirty.len().into()),
                ("chain_len", u64::from(w.chain_len).into()),
                ("wal_len", w.wal_len.into()),
            ],
        );
        let settle = |w: &mut WalHandle, outcome: &ridl_durable::CheckpointOutcome| {
            w.epoch = next;
            w.chain_len = match outcome.stats.kind {
                CheckpointKind::Base => 0,
                CheckpointKind::Delta => w.chain_len + 1,
            };
            w.geometry = Some(outcome.geometry.clone());
            w.dirty.clear();
            w.dirty_overflow = false;
            w.last_ckpt = Some(outcome.stats);
            ridl_obs::metrics().wal_checkpoints.inc();
        };
        match write_checkpoint(&*w.io, &w.dir, next, w.fingerprint, state, plan) {
            Ok(outcome) => {
                journal::record(
                    Severity::Info,
                    "ckpt.done",
                    vec![
                        ("epoch", next.into()),
                        (
                            "kind",
                            match outcome.stats.kind {
                                CheckpointKind::Base => "base",
                                CheckpointKind::Delta => "delta",
                            }
                            .into(),
                        ),
                        ("bytes", outcome.stats.bytes.into()),
                    ],
                );
                settle(w, &outcome);
                w.wal_len = outcome.wal_len;
                w.poisoned = false;
                w.unsynced = false;
                w.commits_since_sync = 0;
                w.last_sync = Instant::now();
                ridl_obs::hist::record_named("engine.checkpoint", sw.elapsed_ns());
                Ok(())
            }
            Err(CheckpointFailure::SnapshotWrite(e)) => {
                // Nothing became current; the old snapshot + WAL (and the
                // dirty set, which still describes the distance to the
                // on-disk chain) stay as they were — the handle stays
                // healthy.
                journal::record(
                    Severity::Warn,
                    "ckpt.fail",
                    vec![("epoch", next.into()), ("stage", "snapshot".into())],
                );
                Err(io_err("checkpoint snapshot", e))
            }
            Err(CheckpointFailure::WalReset { error, outcome }) => {
                // The new snapshot is durable; only log truncation failed.
                // Record the new epoch + chain position (the files on disk
                // carry them) and poison appends until a later checkpoint
                // rewrites the log.
                journal::record(
                    Severity::Error,
                    "ckpt.fail",
                    vec![("epoch", next.into()), ("stage", "wal_reset".into())],
                );
                settle(w, &outcome);
                w.poisoned = true;
                let _ = error;
                Ok(())
            }
        }
    }

    /// Appends `undo[mark..]` as one committed WAL unit and applies the
    /// fsync policy. No-op for in-memory databases and empty deltas. Any
    /// failure poisons the handle; the caller reverts the statement.
    pub(crate) fn wal_commit(&mut self, mark: usize) -> Result<(), EngineError> {
        let ops = &self.undo[mark..];
        if ops.is_empty() {
            return Ok(());
        }
        let Some(w) = self.wal.as_mut() else {
            return Ok(());
        };
        if w.poisoned {
            return Err(EngineError::WalPoisoned);
        }
        let m = ridl_obs::metrics();
        let bytes = encode_unit(ops);
        let path = store_path(&w.dir, WAL_FILE);
        let sw = ridl_obs::Stopwatch::start();
        if let Err(e) = w.io.append(&path, &bytes) {
            w.poisoned = true;
            journal::record(
                Severity::Error,
                "wal.poison",
                vec![("stage", "append".into()), ("bytes", bytes.len().into())],
            );
            return Err(io_err("wal append", e));
        }
        w.wal_len += bytes.len() as u64;
        m.wal_appends.inc();
        m.wal_append_bytes.add(bytes.len() as u64);
        ridl_obs::hist::record_named("wal.append", sw.elapsed_ns());
        ridl_obs::hist::record_named("wal.append_bytes", bytes.len() as u64);
        journal::record(
            Severity::Debug,
            "wal.append",
            vec![("bytes", bytes.len().into()), ("ops", ops.len().into())],
        );
        w.commits_since_sync += 1;
        let sync_now = match w.config.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::Never => false,
            FsyncPolicy::GroupCommit { window_micros } => {
                w.last_sync.elapsed().as_micros() as u64 >= window_micros
            }
        };
        if sync_now {
            let sw = ridl_obs::Stopwatch::start();
            if let Err(e) = w.io.sync(&path) {
                w.poisoned = true;
                // The append (commit marker included) may still be durable
                // even though the fsync failed, while the caller reverts
                // the statement in memory — a crash before the repairing
                // checkpoint would then replay a statement the caller was
                // told failed. Best-effort rewind of the log to its
                // pre-append length closes that window; if the rewind
                // itself fails the anomaly remains possible (accepted,
                // fsyncgate-style) and the handle stays poisoned either
                // way, so no further appends happen until a checkpoint
                // rebuilds the log.
                let pre = w.wal_len - bytes.len() as u64;
                let rewound =
                    w.io.truncate(&path, pre)
                        .and_then(|()| w.io.sync(&path))
                        .is_ok();
                if rewound {
                    w.wal_len = pre;
                }
                journal::record(
                    Severity::Error,
                    "wal.rewind",
                    vec![("to", pre.into()), ("ok", rewound.into())],
                );
                return Err(io_err("wal fsync", e));
            }
            m.wal_fsyncs.inc();
            ridl_obs::hist::record_named("wal.fsync", sw.elapsed_ns());
            ridl_obs::hist::record_named("wal.group_batch", w.commits_since_sync);
            journal::record(
                Severity::Debug,
                "wal.fsync",
                vec![
                    ("batch", w.commits_since_sync.into()),
                    ("flush", false.into()),
                ],
            );
            w.commits_since_sync = 0;
            w.unsynced = false;
            w.last_sync = Instant::now();
        } else {
            w.unsynced = true;
        }
        m.wal_commits.inc();
        Ok(())
    }

    /// Checkpoints automatically once the WAL outgrows the configured
    /// threshold. Deferred while a transaction is open (a checkpoint only
    /// persists committed states); best-effort — a failure leaves the WAL
    /// in place and the poison flag (if set) surfaces on the next mutation.
    pub(crate) fn maybe_auto_checkpoint(&mut self) {
        let Some(w) = self.wal.as_ref() else {
            return;
        };
        let Some(threshold) = w.config.checkpoint_every_bytes else {
            return;
        };
        if w.wal_len <= threshold || w.poisoned || !self.txn_marks.is_empty() {
            return;
        }
        let state = std::mem::take(&mut self.state);
        let _ = self.wal_checkpoint_of(&state, false);
        self.state = state;
    }
}

/// Rewrites the WAL to exactly the replayed prefix of `units` (fresh
/// header + each unit), atomically, returning the new length. Used when
/// recovery found a file it cannot append to (torn tail, stale epoch,
/// missing header, rejected replay).
fn rewrite_wal(
    w: &WalHandle,
    units: &[ridl_durable::CommitUnit],
    replayed: usize,
) -> Result<u64, EngineError> {
    let mut bytes = wal::wal_init_bytes(w.epoch, w.fingerprint);
    for unit in &units[..replayed] {
        bytes.extend_from_slice(&encode_unit(&unit.ops));
    }
    let tmp = store_path(&w.dir, "wal.tmp");
    let dst = store_path(&w.dir, WAL_FILE);
    w.io.write_new(&tmp, &bytes)
        .and_then(|()| w.io.sync(&tmp))
        .and_then(|()| w.io.rename(&tmp, &dst))
        .and_then(|()| w.io.sync_dir(&w.dir))
        .map_err(|e| io_err("wal rewrite", e))?;
    Ok(bytes.len() as u64)
}
