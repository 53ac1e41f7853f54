//! The on-disk store protocol: file layout, the checkpoint/truncation
//! dance, and the crash-safe read path.
//!
//! A store directory holds:
//!
//! * `wal.log` — magic + header frame (epoch, schema fingerprint) +
//!   committed units ([`crate::wal`]);
//! * `checkpoint.snap` — the latest **base** snapshot in the binary paged
//!   v2 format ([`crate::pagesnap`]). A base slot holding the retired v1
//!   text format (`RIDLSNAP 1`) makes [`read_store`] refuse the store;
//! * `checkpoint.prev` — the previous base, kept as the fallback for a
//!   crash between the two checkpoint renames (or at-rest corruption of
//!   `checkpoint.snap`);
//! * `checkpoint.d1`, `checkpoint.d2`, … — the **delta chain**: extent
//!   deltas layered over the base, densely numbered from 1.
//!
//! **Base checkpoint protocol** (each step one syscall; crash-safe at
//! every boundary): write the new base to `checkpoint.tmp`, fsync it,
//! rename `snap`→`prev`, rename `tmp`→`snap`, fsync the directory (the
//! renames are not power-loss-durable until then), garbage-collect the
//! now-superseded delta files (best-effort — see below), then reset the
//! WAL by writing `wal.tmp` (new epoch header), fsyncing, renaming over
//! `wal.log`, and fsyncing the directory again.
//!
//! **Delta checkpoint protocol**: write the delta to `checkpoint.tmp`,
//! fsync, rename `tmp`→`checkpoint.d{seq}`, fsync the directory, reset
//! the WAL. The rename is the atomic commit point.
//!
//! The **epoch** stitches the pieces back together after a crash. Every
//! checkpoint — base or delta — advances the epoch by exactly one, so a
//! chain is self-describing: `checkpoint.d{k}` belongs to the current
//! chain iff its epoch is exactly `base.epoch + k` (and its fingerprint
//! and extent geometry match the base). Epochs only ever move forward,
//! so a delta file left behind by an interrupted garbage-collection can
//! never satisfy that equation against a newer base — stale files are
//! inert, which is what makes GC safe to run best-effort (failures and
//! crashes mid-GC leave orphans, not ambiguity). A WAL whose header
//! epoch is *below* the chain head is stale (its units are already
//! inside the chain) and is discarded; an epoch *above* means the
//! checkpoint the WAL needs is gone — unrecoverable without risking
//! replaying ops against the wrong base state, so it is reported as
//! corruption rather than guessed at.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

use ridl_relational::RelState;

use crate::io::DurableIo;
use crate::pagesnap::{
    decode_paged, encode_base, encode_delta, merge_chain, ExtentGeometry, PagedSnap, SnapFlavor,
};
use crate::token::CorruptError;
use crate::wal::{scan_wal, wal_init_bytes, WalScan};
use crate::{timed, RecoveryStages};

/// WAL file name inside a store directory.
pub const WAL_FILE: &str = "wal.log";
/// Latest base checkpoint snapshot.
pub const SNAP_FILE: &str = "checkpoint.snap";
/// Previous base checkpoint snapshot (crash/corruption fallback).
pub const SNAP_PREV_FILE: &str = "checkpoint.prev";
/// Staging file for both base and delta checkpoints. Never meaningful at
/// rest: [`read_store`] deletes an orphaned one left by a crash or a
/// failed checkpoint before it reads the WAL.
pub const SNAP_TMP_FILE: &str = "checkpoint.tmp";
/// Staging file for WAL resets — same never-meaningful-at-rest rule as
/// [`SNAP_TMP_FILE`].
pub const WAL_TMP_FILE: &str = "wal.tmp";

/// How far past the last existing delta file the probe looks for
/// stragglers (orphans from an interrupted GC separated by a gap).
pub(crate) const DELTA_PROBE_WINDOW: u32 = 16;

/// Name of the `seq`-th delta file in a chain (1-based).
pub fn delta_file(seq: u32) -> String {
    format!("checkpoint.d{seq}")
}

/// Joined path of a store file.
pub fn store_path(dir: &Path, file: &str) -> PathBuf {
    dir.join(file)
}

/// Whether a checkpoint rewrote the whole state or only dirty extents.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckpointKind {
    /// Full base snapshot: every extent of every table.
    Base,
    /// Incremental delta: only the extents dirtied since the last epoch.
    Delta,
}

/// Size accounting for one checkpoint, for benchmarks and the engine's
/// `last_checkpoint_stats`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CheckpointStats {
    /// Base or delta.
    pub kind: CheckpointKind,
    /// Snapshot bytes written (magic + frames).
    pub bytes: u64,
    /// Extents carried by the file.
    pub extents_written: u64,
    /// Extents in the chain geometry (denominator for churn ratios).
    pub extents_total: u64,
    /// Page frames written.
    pub pages: u64,
}

/// What a successful (or snapshot-durable) checkpoint produced.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckpointOutcome {
    /// Byte length of the fresh WAL. Zero when this outcome rides inside
    /// [`CheckpointFailure::WalReset`] — the reset did not happen.
    pub wal_len: u64,
    /// Size accounting.
    pub stats: CheckpointStats,
    /// The chain geometry: freshly frozen for a base, echoed for a
    /// delta. The engine tracks dirty extents against this.
    pub geometry: ExtentGeometry,
}

/// What to write: a full base or an incremental delta.
pub enum CheckpointPlan<'a> {
    /// Rewrite everything and freeze a new geometry sized to the state.
    Base,
    /// Rewrite only `dirty` extents under the frozen `geometry`, as
    /// `checkpoint.d{seq}` (1-based; `seq` = chain length so far + 1).
    Delta {
        /// The geometry frozen by the chain's base.
        geometry: &'a ExtentGeometry,
        /// Dirty `(table, extent)` pairs since the previous checkpoint.
        dirty: &'a BTreeSet<(u32, u32)>,
        /// Position this delta takes in the chain.
        seq: u32,
    },
}

/// Which durable state a failed checkpoint left behind.
#[derive(Debug)]
pub enum CheckpointFailure {
    /// The new snapshot never became current: the store still holds the
    /// pre-checkpoint state and the WAL remains appendable. The
    /// checkpoint simply did not happen. (A `checkpoint.tmp` may be left
    /// behind; [`read_store`] deletes it.)
    SnapshotWrite(io::Error),
    /// The new snapshot is durable but the WAL reset failed: the old log
    /// is now stale (epoch below the chain head). Recovery handles this
    /// cleanly, but the live process must stop appending to the old log.
    /// Carries the outcome so the caller can still account for the
    /// now-current snapshot.
    WalReset {
        /// The directory-sync or WAL-reset error.
        error: io::Error,
        /// The durable snapshot's accounting (`wal_len` is zero).
        outcome: CheckpointOutcome,
    },
}

impl std::fmt::Display for CheckpointFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointFailure::SnapshotWrite(e) => write!(f, "checkpoint snapshot write: {e}"),
            CheckpointFailure::WalReset { error, .. } => {
                write!(f, "WAL reset after checkpoint: {error}")
            }
        }
    }
}

/// Probes `checkpoint.d1`, `checkpoint.d2`, … and returns the sequence
/// numbers that exist, tolerating gaps up to [`DELTA_PROBE_WINDOW`]
/// (orphans from an interrupted GC).
pub(crate) fn probe_deltas(io: &dyn DurableIo, dir: &Path) -> Vec<u32> {
    let mut present = Vec::new();
    let mut seq = 1u32;
    let mut misses = 0u32;
    while misses < DELTA_PROBE_WINDOW {
        if io.exists(&store_path(dir, &delta_file(seq))) {
            present.push(seq);
            misses = 0;
        } else {
            misses += 1;
        }
        seq += 1;
    }
    present
}

/// Writes a checkpoint of `state` at `epoch` per `plan`, then resets the
/// WAL to an empty log with the same epoch. On success the old WAL
/// contents are gone (log truncation).
pub fn write_checkpoint(
    io: &dyn DurableIo,
    dir: &Path,
    epoch: u64,
    fingerprint: u64,
    state: &RelState,
    plan: CheckpointPlan<'_>,
) -> Result<CheckpointOutcome, CheckpointFailure> {
    let tmp = store_path(dir, SNAP_TMP_FILE);
    let (enc, geometry, snap_stats, kind, dest) = {
        let mut span = ridl_obs::enter("ckpt.encode");
        let out = match plan {
            CheckpointPlan::Base => {
                let (enc, geometry, stats) = encode_base(epoch, fingerprint, state);
                (
                    enc,
                    geometry,
                    stats,
                    CheckpointKind::Base,
                    SNAP_FILE.to_string(),
                )
            }
            CheckpointPlan::Delta {
                geometry,
                dirty,
                seq,
            } => {
                let (enc, stats) = encode_delta(epoch, fingerprint, state, geometry, dirty);
                (
                    enc,
                    geometry.clone(),
                    stats,
                    CheckpointKind::Delta,
                    delta_file(seq),
                )
            }
        };
        if span.is_recording() {
            span.attr("bytes", out.0.len());
            span.attr("extents", out.2.extents);
        }
        out
    };
    let mut outcome = CheckpointOutcome {
        wal_len: 0,
        stats: CheckpointStats {
            kind,
            bytes: snap_stats.bytes,
            extents_written: snap_stats.extents,
            extents_total: geometry.total_extents(),
            pages: snap_stats.pages,
        },
        geometry,
    };
    let dest_path = store_path(dir, &dest);
    let snap_stage = (|| {
        {
            let _tmp_span = ridl_obs::enter("ckpt.tmp_write");
            io.write_new(&tmp, &enc)?;
            io.sync(&tmp)?;
        }
        let _rename_span = ridl_obs::enter("ckpt.rename");
        if kind == CheckpointKind::Base {
            // Rotate the old base out of the way first; skip when a
            // previous failure already consumed `snap` (rename snap→prev
            // succeeded, rename tmp→snap did not — `prev` then still
            // holds the WAL's base and must not be clobbered).
            let snap = store_path(dir, SNAP_FILE);
            if io.exists(&snap) {
                io.rename(&snap, &store_path(dir, SNAP_PREV_FILE))?;
            }
        }
        io.rename(&tmp, &dest_path)
    })();
    snap_stage.map_err(CheckpointFailure::SnapshotWrite)?;
    // The renames are only power-loss-durable once the directory itself
    // is synced. Past the final rename the new snapshot must be assumed
    // current, so a directory-sync failure is a WAL-stage failure (the
    // caller poisons appends) — never a retryable "nothing happened".
    {
        let _dir_span = ridl_obs::enter("ckpt.dir_fsync");
        if let Err(error) = io.sync_dir(dir) {
            return Err(CheckpointFailure::WalReset { error, outcome });
        }
    }
    if kind == CheckpointKind::Base {
        // The new base supersedes the whole old delta chain. Stale
        // deltas can never chain onto the new base (their epochs are in
        // the past), so this is pure hygiene: ignore failures, and a
        // crash mid-way just leaves orphans for the next GC.
        let superseded = probe_deltas(io, dir);
        if !superseded.is_empty() {
            ridl_obs::journal::record(
                ridl_obs::Severity::Info,
                "ckpt.collapse",
                vec![("epoch", epoch.into()), ("deltas", superseded.len().into())],
            );
        }
        for seq in superseded {
            let _ = io.remove(&store_path(dir, &delta_file(seq)));
        }
    }
    let _reset_span = ridl_obs::enter("ckpt.wal_reset");
    match reset_wal(io, dir, epoch, fingerprint) {
        Ok(len) => {
            outcome.wal_len = len;
            Ok(outcome)
        }
        Err(error) => Err(CheckpointFailure::WalReset { error, outcome }),
    }
}

/// Atomically replaces the WAL with a fresh one carrying `epoch`.
/// Returns its byte length.
pub fn reset_wal(io: &dyn DurableIo, dir: &Path, epoch: u64, fingerprint: u64) -> io::Result<u64> {
    let tmp = store_path(dir, WAL_TMP_FILE);
    let wal = store_path(dir, WAL_FILE);
    let bytes = wal_init_bytes(epoch, fingerprint);
    io.write_new(&tmp, &bytes)?;
    io.sync(&tmp)?;
    io.rename(&tmp, &wal)?;
    io.sync_dir(dir)?;
    Ok(bytes.len() as u64)
}

/// Everything recovery needs, read and cross-checked from a store
/// directory.
#[derive(Debug, Default)]
pub struct StoreScan {
    /// The chosen checkpoint state (base merged with its delta chain for
    /// v2) and the base file it came from, if any checkpoint was usable.
    /// `None` means the store starts from the empty state. The epoch is
    /// the chain head's (base epoch + deltas merged).
    pub snapshot: Option<(Snapshot, &'static str)>,
    /// Format of the chosen base: 0 none, 2 paged (v2).
    pub snapshot_format: u8,
    /// Delta files merged on top of the base.
    pub deltas_merged: usize,
    /// The chain's extent geometry (v2 only) — the engine continues the
    /// delta chain against this.
    pub geometry: Option<ExtentGeometry>,
    /// Snapshot/delta files decoded and rejected (CRC/parse failure).
    /// Only files the scan decodes count: `checkpoint.prev` is decoded
    /// only when `checkpoint.snap` is missing or rejected.
    pub snapshots_rejected: usize,
    /// The WAL scan (committed units already filtered to the live
    /// epoch; stale units are dropped and counted below).
    pub wal: WalScan,
    /// Total WAL bytes on disk.
    pub wal_len: u64,
    /// True when the WAL's epoch predates the chain head — its units were
    /// already absorbed by a checkpoint and were discarded wholesale.
    pub stale_wal: bool,
    /// True when no WAL file existed (fresh directory).
    pub fresh: bool,
    /// Time spent reading, decoding and merging; the later stages are
    /// left zero for the engine to fill in.
    pub stages: RecoveryStages,
}

/// A decoded checkpoint: the state a base plus its delta chain describe.
#[derive(Clone, PartialEq, Debug)]
pub struct Snapshot {
    /// WAL epoch this snapshot pairs with: a WAL whose header carries the
    /// same epoch applies *on top of* this state; a smaller epoch means
    /// the WAL is stale (its effects are already included here).
    pub epoch: u64,
    /// Schema fingerprint the state was captured under.
    pub fingerprint: u64,
    /// The state.
    pub state: RelState,
}

/// First bytes of the retired v1 text snapshot format.
const LEGACY_SNAP_MAGIC: &[u8] = b"RIDLSNAP 1";

/// Refuses a base slot that holds a retired v1 text snapshot. Such a file
/// is the store's data in a format this build no longer reads, not
/// damage: skipping it could replay the WAL over an empty state, and
/// repair hygiene could delete it.
pub(crate) fn refuse_legacy(file: &str, bytes: &[u8]) -> Result<(), CorruptError> {
    if bytes.starts_with(LEGACY_SNAP_MAGIC) {
        return Err(CorruptError(format!(
            "{file} holds a legacy v1 text snapshot (RIDLSNAP 1), which this version no \
             longer reads; checkpoint the store with an older build to upgrade it to v2"
        )));
    }
    Ok(())
}

/// Decodes `bytes` as a v2 base checkpoint. A file that decodes but is
/// not a base flavor is rejected — only `checkpoint.d*` files may be
/// deltas.
fn decode_base(bytes: &[u8]) -> Result<PagedSnap, CorruptError> {
    let paged = decode_paged(bytes)?;
    if paged.flavor != SnapFlavor::Base {
        return Err(CorruptError("base checkpoint file holds a delta".into()));
    }
    Ok(paged)
}

/// Reads and validates a store directory. I/O errors propagate;
/// cross-file inconsistencies that would force replaying ops against the
/// wrong base state come back as [`CorruptError`].
///
/// Only one base is decoded: `checkpoint.snap`, or `checkpoint.prev` when
/// `snap` is missing or rejected. Both slots are still read for the
/// legacy-format refusal, which needs only the bytes.
///
/// Besides reading, this performs the store's **repair hygiene**: an
/// orphaned `checkpoint.tmp`/`wal.tmp` (crash or failed checkpoint
/// mid-write) is deleted, and on a successful scan, delta files that did
/// not chain onto the chosen base — plus a corrupt `checkpoint.snap` when
/// `checkpoint.prev` was chosen — are removed so a later checkpoint
/// cannot rotate garbage into the fallback slot. A base in the retired
/// v1 text format refuses the store before any of that runs.
pub fn read_store(io: &dyn DurableIo, dir: &Path) -> io::Result<Result<StoreScan, CorruptError>> {
    let mut out = StoreScan::default();
    let mut chosen: Option<(PagedSnap, &'static str)> = None;
    let mut snap_rejected = false;
    for file in [SNAP_FILE, SNAP_PREV_FILE] {
        let path = store_path(dir, file);
        if !io.exists(&path) {
            continue;
        }
        let bytes = timed(&mut out.stages.read_ns, || io.read(&path))?;
        if let Err(e) = refuse_legacy(file, &bytes) {
            return Ok(Err(e));
        }
        if chosen.is_some() {
            continue;
        }
        match timed(&mut out.stages.decode_ns, || decode_base(&bytes)) {
            Ok(base) => chosen = Some((base, file)),
            Err(_) => {
                out.snapshots_rejected += 1;
                if file == SNAP_FILE {
                    snap_rejected = true;
                }
            }
        }
    }

    // A tmp file is never meaningful at rest: it is either a fully
    // renamed checkpoint (then it no longer has this name) or an
    // abandoned write. Delete it so nothing downstream can confuse it
    // for real state, and so a retried checkpoint starts clean.
    for tmp in [SNAP_TMP_FILE, WAL_TMP_FILE] {
        let path = store_path(dir, tmp);
        if io.exists(&path) {
            io.remove(&path)?;
        }
    }

    // The delta chain, decoded up front (needed for candidate selection
    // below). Decode failures end the chain at that link.
    let delta_seqs = probe_deltas(io, dir);
    let mut deltas: Vec<(u32, PagedSnap)> = Vec::new();
    for seq in &delta_seqs {
        let path = store_path(dir, &delta_file(*seq));
        let bytes = timed(&mut out.stages.read_ns, || io.read(&path))?;
        match timed(&mut out.stages.decode_ns, || decode_paged(&bytes)) {
            Ok(p) if p.flavor == SnapFlavor::Delta => deltas.push((*seq, p)),
            _ => out.snapshots_rejected += 1,
        }
    }

    let wal_path = store_path(dir, WAL_FILE);
    let wal_bytes = if io.exists(&wal_path) {
        timed(&mut out.stages.read_ns, || io.read(&wal_path))?
    } else {
        out.fresh = true;
        Vec::new()
    };
    out.wal_len = wal_bytes.len() as u64;
    out.wal = timed(&mut out.stages.decode_ns, || scan_wal(&wal_bytes));
    let wal_epoch = out.wal.header.map(|h| h.epoch);

    // The newest valid base decides: `prev` only exists as the fallback
    // for a crash between the checkpoint renames, and in that window the
    // WAL's epoch still matches its chain. A WAL *newer* than the
    // newest readable chain head cannot be replayed against an older
    // base without corrupting the state, so it is reported, not guessed
    // at.
    let mut chained: Vec<u32> = Vec::new();
    if let Some((paged, file)) = chosen {
        // Link deltas onto the base: `checkpoint.d{k}` belongs iff its
        // epoch is exactly base.epoch + k and fingerprint + geometry
        // match. Deltas must be dense from 1; the first gap, epoch skip,
        // or mismatch ends the chain (later files are orphans).
        let mut chain: Vec<PagedSnap> = Vec::new();
        for (seq, d) in deltas {
            let position = chain.len() as u32 + 1;
            if seq != position
                || d.epoch != paged.epoch + position as u64
                || d.fingerprint != paged.fingerprint
                || d.geometry != paged.geometry
            {
                break;
            }
            chain.push(d);
            chained.push(seq);
        }
        out.snapshot_format = 2;
        out.deltas_merged = chain.len();
        out.geometry = Some(paged.geometry.clone());
        let (epoch, fingerprint) = (paged.epoch + chain.len() as u64, paged.fingerprint);
        let state = match timed(&mut out.stages.merge_ns, || merge_chain(paged, chain)) {
            Ok(state) => state,
            Err(e) => return Ok(Err(e)),
        };
        let snapshot = Snapshot {
            epoch,
            fingerprint,
            state,
        };
        let usable = match wal_epoch {
            // No readable WAL header: any valid chain is the best
            // recoverable state (the log tail counts as discarded).
            None => true,
            Some(we) => we <= snapshot.epoch,
        };
        if !usable {
            return Ok(Err(CorruptError(format!(
                "WAL epoch {} requires a newer checkpoint than {file} (chain head epoch {})",
                wal_epoch.unwrap_or(0),
                snapshot.epoch
            ))));
        }
        if wal_epoch.is_some_and(|we| we < snapshot.epoch) {
            out.stale_wal = true;
            out.wal.units.clear();
        }
        out.snapshot = Some((snapshot, file));

        // Repair hygiene, only once the scan is known-good. Orphan
        // deltas can never chain again (epochs are monotone); a corrupt
        // `snap` must not survive to be rotated into `prev` by the next
        // base checkpoint (it would evict the good fallback).
        for seq in &delta_seqs {
            if !chained.contains(seq) {
                let _ = io.remove(&store_path(dir, &delta_file(*seq)));
            }
        }
        if snap_rejected && file == SNAP_PREV_FILE {
            let _ = io.remove(&store_path(dir, SNAP_FILE));
        }
    }
    if out.snapshot.is_none() {
        if let Some(we) = wal_epoch {
            if we != 0 {
                return Ok(Err(CorruptError(format!(
                    "WAL epoch {we} but no checkpoint found"
                ))));
            }
        }
        if out.snapshots_rejected > 0 && out.wal.header.is_some() {
            // A WAL exists for a checkpointed epoch we cannot read.
            let we = wal_epoch.unwrap_or(0);
            if we != 0 {
                return Ok(Err(CorruptError(format!(
                    "all checkpoints unreadable but WAL epoch {we} requires one"
                ))));
            }
        }
    }
    Ok(Ok(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultyIo;
    use crate::wal::encode_unit;
    use ridl_brm::Value;
    use ridl_relational::{DeltaOp, TableId};

    fn dir() -> PathBuf {
        PathBuf::from("/store")
    }

    fn state_one_row() -> RelState {
        let mut st = RelState::with_tables(1);
        st.insert(TableId(0), vec![Some(Value::str("x"))]);
        st
    }

    /// A one-row base snapshot at `epoch`, for planting in a slot.
    fn base_bytes(epoch: u64) -> Vec<u8> {
        encode_base(epoch, 7, &state_one_row()).0
    }

    fn append_insert(io: &FaultyIo, text: &str) {
        io.append(
            &store_path(&dir(), WAL_FILE),
            &encode_unit(&[DeltaOp::Insert {
                table: TableId(0),
                row: vec![Some(Value::str(text))],
            }]),
        )
        .unwrap();
        io.sync(&store_path(&dir(), WAL_FILE)).unwrap();
    }

    #[test]
    fn checkpoint_then_read_roundtrips_and_truncates() {
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        append_insert(&io, "x");

        let scan = read_store(&io, &dir()).unwrap().unwrap();
        assert_eq!(scan.wal.units.len(), 1);
        assert!(scan.snapshot.is_none());
        assert_eq!(scan.snapshot_format, 0);

        let outcome =
            write_checkpoint(&io, &dir(), 1, 7, &state_one_row(), CheckpointPlan::Base).unwrap();
        assert_eq!(outcome.stats.kind, CheckpointKind::Base);
        assert_eq!(outcome.stats.extents_written, outcome.stats.extents_total);
        let scan = read_store(&io, &dir()).unwrap().unwrap();
        let (snap, file) = scan.snapshot.expect("checkpoint present");
        assert_eq!(file, SNAP_FILE);
        assert_eq!(scan.snapshot_format, 2);
        assert_eq!(scan.geometry.as_ref(), Some(&outcome.geometry));
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.state, state_one_row());
        assert!(scan.wal.units.is_empty(), "WAL truncated");
        assert!(!scan.stale_wal);
    }

    #[test]
    fn delta_chain_merges_and_advances_epoch() {
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        let mut st = state_one_row();
        let outcome = write_checkpoint(&io, &dir(), 1, 7, &st, CheckpointPlan::Base).unwrap();
        let geometry = outcome.geometry;

        // Two delta checkpoints, each changing one row.
        for (seq, name) in [(1u32, "y"), (2u32, "z")] {
            let row = vec![Some(Value::str(name))];
            let dirty: BTreeSet<_> = [(0u32, geometry.extent_of(0, &row))].into();
            st.insert(TableId(0), row);
            let out = write_checkpoint(
                &io,
                &dir(),
                1 + seq as u64,
                7,
                &st,
                CheckpointPlan::Delta {
                    geometry: &geometry,
                    dirty: &dirty,
                    seq,
                },
            )
            .unwrap();
            assert_eq!(out.stats.kind, CheckpointKind::Delta);
            assert!(io.exists(&store_path(&dir(), &delta_file(seq))));
        }

        let scan = read_store(&io, &dir()).unwrap().unwrap();
        let (snap, _) = scan.snapshot.unwrap();
        assert_eq!(snap.epoch, 3, "chain head = base 1 + two deltas");
        assert_eq!(snap.state, st);
        assert_eq!(scan.deltas_merged, 2);
        assert_eq!(scan.snapshot_format, 2);
        assert!(scan.wal.units.is_empty());
    }

    #[test]
    fn base_checkpoint_garbage_collects_the_old_chain() {
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        let mut st = state_one_row();
        let outcome = write_checkpoint(&io, &dir(), 1, 7, &st, CheckpointPlan::Base).unwrap();
        let row = vec![Some(Value::str("y"))];
        let dirty: BTreeSet<_> = [(0u32, outcome.geometry.extent_of(0, &row))].into();
        st.insert(TableId(0), row);
        write_checkpoint(
            &io,
            &dir(),
            2,
            7,
            &st,
            CheckpointPlan::Delta {
                geometry: &outcome.geometry,
                dirty: &dirty,
                seq: 1,
            },
        )
        .unwrap();
        assert!(io.exists(&store_path(&dir(), &delta_file(1))));

        write_checkpoint(&io, &dir(), 3, 7, &st, CheckpointPlan::Base).unwrap();
        assert!(
            !io.exists(&store_path(&dir(), &delta_file(1))),
            "old delta GC'd by the new base"
        );
        let scan = read_store(&io, &dir()).unwrap().unwrap();
        assert_eq!(scan.snapshot.unwrap().0.epoch, 3);
        assert_eq!(scan.deltas_merged, 0);
    }

    #[test]
    fn stale_delta_from_an_older_chain_cannot_link() {
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        let mut st = state_one_row();
        let outcome = write_checkpoint(&io, &dir(), 1, 7, &st, CheckpointPlan::Base).unwrap();
        let row = vec![Some(Value::str("y"))];
        let dirty: BTreeSet<_> = [(0u32, outcome.geometry.extent_of(0, &row))].into();
        st.insert(TableId(0), row);
        write_checkpoint(
            &io,
            &dir(),
            2,
            7,
            &st,
            CheckpointPlan::Delta {
                geometry: &outcome.geometry,
                dirty: &dirty,
                seq: 1,
            },
        )
        .unwrap();
        // Simulate an interrupted GC: keep a copy of the old d1, write a
        // new base (which GCs d1), then put the stale d1 back.
        let stale = io.peek(&store_path(&dir(), &delta_file(1))).unwrap();
        write_checkpoint(&io, &dir(), 3, 7, &st, CheckpointPlan::Base).unwrap();
        io.poke(&store_path(&dir(), &delta_file(1)), stale);

        let scan = read_store(&io, &dir()).unwrap().unwrap();
        // d1's epoch is 2, but chaining onto base(3) requires epoch 4.
        assert_eq!(scan.deltas_merged, 0);
        assert_eq!(scan.snapshot.unwrap().0.epoch, 3);
        assert!(
            !io.exists(&store_path(&dir(), &delta_file(1))),
            "orphan delta removed by scan hygiene"
        );
    }

    #[test]
    fn orphaned_tmp_files_are_deleted_by_read_store() {
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        io.poke(
            &store_path(&dir(), SNAP_TMP_FILE),
            b"half a checkpoint".to_vec(),
        );
        io.poke(&store_path(&dir(), "wal.tmp"), b"half a wal".to_vec());
        let scan = read_store(&io, &dir()).unwrap().unwrap();
        assert!(!io.exists(&store_path(&dir(), SNAP_TMP_FILE)));
        assert!(!io.exists(&store_path(&dir(), "wal.tmp")));
        assert_eq!(scan.snapshots_rejected, 0, "tmp is not a candidate at all");
    }

    #[test]
    fn stale_wal_is_discarded_not_replayed() {
        let io = FaultyIo::new();
        // Simulate a crash after the snapshot renames but before the WAL
        // reset: snapshot at epoch 1, WAL still at epoch 0 with a unit.
        reset_wal(&io, &dir(), 0, 7).unwrap();
        append_insert(&io, "old");
        io.poke(&store_path(&dir(), SNAP_FILE), base_bytes(1));

        let scan = read_store(&io, &dir()).unwrap().unwrap();
        assert!(scan.stale_wal);
        assert!(scan.wal.units.is_empty());
        assert_eq!(scan.snapshot.unwrap().0.epoch, 1);
    }

    #[test]
    fn corrupt_snap_falls_back_to_prev_when_epochs_allow() {
        let io = FaultyIo::new();
        io.poke(&store_path(&dir(), SNAP_PREV_FILE), base_bytes(1));
        io.poke(&store_path(&dir(), SNAP_FILE), b"garbage".to_vec());
        reset_wal(&io, &dir(), 1, 7).unwrap();
        let scan = read_store(&io, &dir()).unwrap().unwrap();
        assert_eq!(scan.snapshots_rejected, 1);
        assert_eq!(scan.snapshot.unwrap().1, SNAP_PREV_FILE);
        assert!(
            !io.exists(&store_path(&dir(), SNAP_FILE)),
            "corrupt snap removed so the next base cannot rotate it into prev"
        );
    }

    #[test]
    fn wal_ahead_of_every_checkpoint_is_corruption() {
        let io = FaultyIo::new();
        io.poke(&store_path(&dir(), SNAP_PREV_FILE), base_bytes(1));
        reset_wal(&io, &dir(), 2, 7).unwrap();
        assert!(read_store(&io, &dir()).unwrap().is_err());

        // Same with no checkpoint at all.
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 3, 7).unwrap();
        assert!(read_store(&io, &dir()).unwrap().is_err());
    }

    #[test]
    fn corrupt_delta_truncates_the_chain_conservatively() {
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        let mut st = state_one_row();
        let outcome = write_checkpoint(&io, &dir(), 1, 7, &st, CheckpointPlan::Base).unwrap();
        let geometry = outcome.geometry;
        for (seq, name) in [(1u32, "y"), (2u32, "z")] {
            let row = vec![Some(Value::str(name))];
            let dirty: BTreeSet<_> = [(0u32, geometry.extent_of(0, &row))].into();
            st.insert(TableId(0), row);
            write_checkpoint(
                &io,
                &dir(),
                1 + seq as u64,
                7,
                &st,
                CheckpointPlan::Delta {
                    geometry: &geometry,
                    dirty: &dirty,
                    seq,
                },
            )
            .unwrap();
        }
        // Corrupt d1: the chain now ends at the base, and the WAL (epoch
        // 3, ahead of the base) can no longer be replayed → corruption,
        // not a silent partial merge.
        let mut d1 = io.peek(&store_path(&dir(), &delta_file(1))).unwrap();
        let mid = d1.len() / 2;
        d1[mid] ^= 0xff;
        io.poke(&store_path(&dir(), &delta_file(1)), d1);
        assert!(read_store(&io, &dir()).unwrap().is_err());
    }

    #[test]
    fn fresh_directory_scans_empty() {
        let io = FaultyIo::new();
        let scan = read_store(&io, &dir()).unwrap().unwrap();
        assert!(scan.fresh);
        assert!(scan.snapshot.is_none());
        assert!(scan.wal.units.is_empty());
    }
}
