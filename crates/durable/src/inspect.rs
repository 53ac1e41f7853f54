//! Offline, read-only store inspection — the decode half of
//! [`crate::store::read_store`] without the repair half.
//!
//! `ridl status` points this at a store directory and reports what is
//! there *without opening the database*: the checkpoint chain (base file,
//! format, epoch, delta links), WAL health (CRC-valid committed units,
//! torn-tail bytes), fingerprint/geometry consistency, and debris
//! (orphaned tmp files, unchained delta files, rejected snapshots).
//! Unlike `read_store`, which deletes tmp files and orphans as repair
//! hygiene, inspection never writes: it is safe to run against a store
//! another process owns, or against evidence you want preserved.
//!
//! The decode paths are the same strict ones recovery uses
//! ([`decode_paged`], [`scan_wal`], the retired-format refusal), so the
//! inspector's verdict agrees with what `Database::open` would find:
//! [`StoreStatus::verdict`] says `corrupt` exactly when recovery would
//! refuse the store, `recoverable` when recovery would succeed but had
//! something to clean up (torn tail, stale WAL, debris), `clean` when
//! there is nothing to do, and `fresh` for an empty directory.

use std::io;
use std::path::Path;

use ridl_obs::json::{obj, Json};

use crate::io::DurableIo;
use crate::pagesnap::{decode_paged, PagedSnap, SnapFlavor};
use crate::store::{
    delta_file, probe_deltas, refuse_legacy, store_path, SNAP_FILE, SNAP_PREV_FILE, SNAP_TMP_FILE,
    WAL_FILE, WAL_TMP_FILE,
};
use crate::wal::scan_wal;

/// What one checkpoint file (base, fallback, or delta) holds.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckpointInfo {
    /// File name inside the store directory.
    pub file: String,
    /// File size in bytes.
    pub bytes: u64,
    /// `base` or `delta`.
    pub flavor: &'static str,
    /// Epoch stamped in the file.
    pub epoch: u64,
    /// Schema fingerprint stamped in the file.
    pub fingerprint: u64,
    /// Extents carried by the file.
    pub extents_carried: u64,
    /// Total extents in the file's geometry.
    pub extents_total: u64,
    /// Whether this file participates in the live chain: true for the
    /// chosen base, and for each delta that links onto it.
    pub chained: bool,
}

/// WAL health as seen on disk.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct WalStatus {
    /// Whether `wal.log` exists.
    pub present: bool,
    /// Total bytes on disk.
    pub bytes: u64,
    /// Header `(epoch, fingerprint)` if the header frame was readable.
    pub header: Option<(u64, u64)>,
    /// CRC-valid committed units.
    pub units: usize,
    /// Delta ops inside those units.
    pub ops: usize,
    /// Bytes up to the end of the last committed unit.
    pub committed_bytes: u64,
    /// Bytes past that point (torn/partial/corrupt tail).
    pub torn_bytes: u64,
    /// True when the WAL's epoch predates the chain head: its units are
    /// already inside the chain and recovery discards them wholesale.
    pub stale: bool,
}

/// Everything the offline inspector found in a store directory.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct StoreStatus {
    /// The directory inspected.
    pub dir: String,
    /// The chain's head epoch (base epoch + chained deltas), if a base
    /// checkpoint was usable.
    pub epoch: Option<u64>,
    /// Which file the chain's base came from (`checkpoint.snap` or
    /// `checkpoint.prev`).
    pub base_file: Option<&'static str>,
    /// Chained delta count.
    pub chain_len: usize,
    /// Every checkpoint file that decoded, in layout order: `snap`,
    /// `prev`, then deltas. `chained` marks the live chain.
    pub checkpoints: Vec<CheckpointInfo>,
    /// Files present but undecodable: `(file, error)`.
    pub rejected: Vec<(String, String)>,
    /// Orphaned staging files present (`checkpoint.tmp`, `wal.tmp`).
    pub tmp_debris: Vec<String>,
    /// Delta files present that do not link onto the chain.
    pub orphan_deltas: Vec<String>,
    /// WAL health.
    pub wal: WalStatus,
    /// A store-level inconsistency that would make recovery refuse the
    /// directory (WAL ahead of every checkpoint, …).
    pub corrupt: Option<String>,
    /// Human-readable notes on everything recovery would repair or
    /// discard.
    pub issues: Vec<String>,
}

impl StoreStatus {
    /// One-word health verdict: `fresh`, `clean`, `recoverable`, or
    /// `corrupt` (see module docs).
    pub fn verdict(&self) -> &'static str {
        if self.corrupt.is_some() {
            "corrupt"
        } else if self.epoch.is_none()
            && !self.wal.present
            && self.checkpoints.is_empty()
            && self.rejected.is_empty()
            && self.tmp_debris.is_empty()
        {
            "fresh"
        } else if self.issues.is_empty() {
            "clean"
        } else {
            "recoverable"
        }
    }
}

fn info_of(file: &str, bytes: &[u8]) -> Result<(CheckpointInfo, PagedSnap), String> {
    let paged = decode_paged(bytes).map_err(|e| e.0)?;
    let info = CheckpointInfo {
        file: file.to_string(),
        bytes: bytes.len() as u64,
        flavor: match paged.flavor {
            SnapFlavor::Base => "base",
            SnapFlavor::Delta => "delta",
        },
        epoch: paged.epoch,
        fingerprint: paged.fingerprint,
        extents_carried: paged.extents.len() as u64,
        extents_total: paged.geometry.total_extents(),
        chained: false,
    };
    Ok((info, paged))
}

/// Inspects `dir` read-only. I/O errors propagate; everything else —
/// corruption included — is reported in the returned [`StoreStatus`],
/// never acted on.
pub fn inspect_store(io: &dyn DurableIo, dir: &Path) -> io::Result<StoreStatus> {
    let mut out = StoreStatus {
        dir: dir.display().to_string(),
        ..StoreStatus::default()
    };

    for tmp in [SNAP_TMP_FILE, WAL_TMP_FILE] {
        if io.exists(&store_path(dir, tmp)) {
            out.tmp_debris.push(tmp.to_string());
            out.issues.push(format!(
                "{tmp}: orphaned staging file (recovery deletes it)"
            ));
        }
    }

    // Decode both base slots; remember the paged form of each candidate
    // for chain linking. A retired-format base refuses the whole store,
    // exactly as in recovery.
    let mut legacy = None;
    let mut candidates: Vec<(usize, PagedSnap, &'static str)> = Vec::new();
    for file in [SNAP_FILE, SNAP_PREV_FILE] {
        let path = store_path(dir, file);
        if !io.exists(&path) {
            continue;
        }
        let bytes = io.read(&path)?;
        if let Err(e) = refuse_legacy(file, &bytes) {
            legacy.get_or_insert(e.0);
            continue;
        }
        match info_of(file, &bytes) {
            Ok((info, paged)) => {
                // A delta in a base slot cannot anchor a chain — recovery
                // rejects it (`decode_base`), so does the inspector.
                if info.flavor == "delta" {
                    out.rejected.push((
                        file.to_string(),
                        "base checkpoint file holds a delta".into(),
                    ));
                    out.issues
                        .push(format!("{file}: holds a delta, not a base snapshot"));
                    continue;
                }
                out.checkpoints.push(info);
                candidates.push((out.checkpoints.len() - 1, paged, file));
            }
            Err(e) => {
                out.rejected.push((file.to_string(), e.clone()));
                out.issues.push(format!("{file}: rejected ({e})"));
            }
        }
    }

    // Decode every delta file in probe order.
    let delta_seqs = probe_deltas(io, dir);
    let mut deltas: Vec<(u32, usize, PagedSnap)> = Vec::new();
    for seq in &delta_seqs {
        let file = delta_file(*seq);
        let bytes = io.read(&store_path(dir, &file))?;
        match info_of(&file, &bytes) {
            Ok((info, paged)) if info.flavor == "delta" => {
                out.checkpoints.push(info);
                deltas.push((*seq, out.checkpoints.len() - 1, paged));
            }
            Ok((info, _)) => {
                out.rejected
                    .push((file.clone(), "delta file does not hold a v2 delta".into()));
                out.issues
                    .push(format!("{file}: not a delta snapshot ({})", info.flavor));
            }
            Err(e) => {
                out.rejected.push((file.clone(), e.clone()));
                out.issues.push(format!("{file}: rejected ({e})"));
            }
        }
    }

    // WAL scan (total: torn tails are data, not errors).
    let wal_path = store_path(dir, WAL_FILE);
    if io.exists(&wal_path) {
        let bytes = io.read(&wal_path)?;
        let scan = scan_wal(&bytes);
        out.wal = WalStatus {
            present: true,
            bytes: bytes.len() as u64,
            header: scan.header.map(|h| (h.epoch, h.fingerprint)),
            units: scan.units.len(),
            ops: scan.units.iter().map(|u| u.ops.len()).sum(),
            committed_bytes: scan.committed_end,
            torn_bytes: scan.discarded,
            stale: false,
        };
        if scan.header.is_none() && !bytes.is_empty() {
            out.issues
                .push(format!("{WAL_FILE}: header unreadable (torn or corrupt)"));
        }
        if scan.discarded > 0 {
            out.issues.push(format!(
                "{WAL_FILE}: {} torn-tail bytes past the last committed unit (recovery discards them)",
                scan.discarded
            ));
        }
    }
    let wal_epoch = out.wal.header.map(|(e, _)| e);

    // Chain linking against the chosen (first usable) base — the same
    // rule as recovery: d{k} belongs iff dense from 1 with epoch exactly
    // base+k and matching fingerprint + geometry.
    if let Some((idx, base, file)) = candidates.first() {
        out.base_file = Some(file);
        out.checkpoints[*idx].chained = true;
        let base_epoch = base.epoch;
        let base_fp = base.fingerprint;
        let mut position = 0u32;
        for (seq, didx, d) in &deltas {
            let next = position + 1;
            if *seq != next
                || d.epoch != base.epoch + next as u64
                || d.fingerprint != base.fingerprint
                || d.geometry != base.geometry
            {
                break;
            }
            position = next;
            out.checkpoints[*didx].chained = true;
        }
        out.chain_len = position as usize;
        let head_epoch = base.epoch + position as u64;
        out.epoch = Some(head_epoch);
        for (seq, didx, _) in &deltas {
            if !out.checkpoints[*didx].chained {
                let file = delta_file(*seq);
                out.issues.push(format!(
                    "{file}: orphan delta (epoch {} cannot chain onto base epoch {base_epoch})",
                    out.checkpoints[*didx].epoch
                ));
                out.orphan_deltas.push(file);
            }
        }
        match wal_epoch {
            Some(we) if we > head_epoch => {
                out.corrupt = Some(format!(
                    "WAL epoch {we} requires a newer checkpoint than {file} (chain head epoch {head_epoch})"
                ));
            }
            Some(we) if we < head_epoch => {
                out.wal.stale = true;
                out.issues.push(format!(
                    "{WAL_FILE}: stale (epoch {we} predates chain head {head_epoch}); recovery discards its units"
                ));
            }
            _ => {}
        }
        if let Some((_, wal_fp)) = out.wal.header {
            if wal_fp != base_fp {
                out.issues.push(format!(
                    "{WAL_FILE}: schema fingerprint {wal_fp:#018x} differs from checkpoint {base_fp:#018x}"
                ));
            }
        }
    } else {
        // No usable base: any non-zero-epoch WAL needs one.
        for (seq, didx, _) in &deltas {
            let file = delta_file(*seq);
            out.issues
                .push(format!("{file}: delta without a usable base checkpoint"));
            out.orphan_deltas.push(file);
            let _ = didx;
        }
        match wal_epoch {
            Some(we) if we != 0 => {
                out.corrupt = Some(format!("WAL epoch {we} but no usable checkpoint found"));
            }
            None if out.wal.present && out.wal.bytes > 0 && !out.rejected.is_empty() => {
                out.corrupt = Some("no readable checkpoint and WAL header unreadable".into());
            }
            _ => {}
        }
    }
    if legacy.is_some() {
        out.corrupt = legacy;
    }

    Ok(out)
}

impl StoreStatus {
    /// Machine-readable JSON: one compact object with sorted keys. The
    /// schema is stable for CI: `dir`, `verdict`, `epoch`, `chain`,
    /// `wal`, `checkpoints`, `rejected`, `debris`, `orphans`, `issues`,
    /// `corrupt`.
    pub fn to_json(&self) -> String {
        let hex = |fp: u64| Json::from(format!("{fp:#018x}"));
        let strings = |list: &[String]| Json::Arr(list.iter().map(|s| s.as_str().into()).collect());
        let base = self
            .checkpoints
            .iter()
            .find(|c| c.chained && c.flavor == "base");
        let wal = if self.wal.present {
            obj([
                ("present", true.into()),
                ("bytes", self.wal.bytes.into()),
                ("epoch", self.wal.header.map(|(e, _)| e).into()),
                ("fingerprint", self.wal.header.map(|(_, fp)| hex(fp)).into()),
                ("units", self.wal.units.into()),
                ("ops", self.wal.ops.into()),
                ("committed_bytes", self.wal.committed_bytes.into()),
                ("torn_bytes", self.wal.torn_bytes.into()),
                ("stale", self.wal.stale.into()),
            ])
        } else {
            obj([("present", false.into())])
        };
        let checkpoints = self.checkpoints.iter().map(|c| {
            obj([
                ("file", c.file.as_str().into()),
                ("bytes", c.bytes.into()),
                ("flavor", c.flavor.into()),
                ("epoch", c.epoch.into()),
                ("fingerprint", hex(c.fingerprint)),
                ("extents_carried", c.extents_carried.into()),
                ("extents_total", c.extents_total.into()),
                ("chained", c.chained.into()),
            ])
        });
        let rejected = self
            .rejected
            .iter()
            .map(|(f, e)| obj([("file", f.as_str().into()), ("error", e.as_str().into())]));
        obj([
            ("dir", self.dir.as_str().into()),
            ("verdict", self.verdict().into()),
            ("epoch", self.epoch.into()),
            (
                "chain",
                obj([
                    ("base_file", self.base_file.into()),
                    ("base_epoch", base.map(|b| b.epoch).into()),
                    ("deltas", self.chain_len.into()),
                ]),
            ),
            ("wal", wal),
            ("checkpoints", Json::Arr(checkpoints.collect())),
            ("rejected", Json::Arr(rejected.collect())),
            ("debris", strings(&self.tmp_debris)),
            ("orphans", strings(&self.orphan_deltas)),
            ("issues", strings(&self.issues)),
            ("corrupt", self.corrupt.as_deref().into()),
        ])
        .to_string()
    }
}

impl std::fmt::Display for StoreStatus {
    /// The human summary `ridl status` prints.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "store: {}", self.dir)?;
        writeln!(f, "verdict: {}", self.verdict())?;
        match (self.epoch, self.base_file) {
            (Some(epoch), Some(file)) => {
                let base = self
                    .checkpoints
                    .iter()
                    .find(|c| c.chained && c.flavor == "base");
                writeln!(
                    f,
                    "chain: epoch {epoch} = base {} ({file}, v2 paged) + {} delta(s)",
                    base.map(|b| b.epoch).unwrap_or(epoch),
                    self.chain_len
                )?;
                if let Some(b) = base {
                    writeln!(
                        f,
                        "base: {} bytes, {} extents, fingerprint {:#018x}",
                        b.bytes, b.extents_total, b.fingerprint
                    )?;
                }
                for c in self.checkpoints.iter().filter(|c| c.flavor == "delta") {
                    writeln!(
                        f,
                        "delta: {} epoch {} ({} bytes, {} extent(s)){}",
                        c.file,
                        c.epoch,
                        c.bytes,
                        c.extents_carried,
                        if c.chained { "" } else { " [orphan]" }
                    )?;
                }
            }
            _ => writeln!(f, "chain: no usable checkpoint")?,
        }
        if self.wal.present {
            match self.wal.header {
                Some((epoch, _)) => writeln!(
                    f,
                    "wal: epoch {epoch}, {} bytes, {} unit(s) / {} op(s) committed, {} torn byte(s){}",
                    self.wal.bytes,
                    self.wal.units,
                    self.wal.ops,
                    self.wal.torn_bytes,
                    if self.wal.stale { " [stale]" } else { "" }
                )?,
                None => writeln!(f, "wal: {} bytes, header unreadable", self.wal.bytes)?,
            }
        } else {
            writeln!(f, "wal: none")?;
        }
        for (file, err) in &self.rejected {
            writeln!(f, "rejected: {file}: {err}")?;
        }
        for d in &self.tmp_debris {
            writeln!(f, "debris: {d}")?;
        }
        if let Some(why) = &self.corrupt {
            writeln!(f, "corrupt: {why}")?;
        }
        for issue in &self.issues {
            writeln!(f, "note: {issue}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultyIo;
    use crate::pagesnap::encode_base;
    use crate::store::{reset_wal, write_checkpoint, CheckpointPlan};
    use crate::wal::encode_unit;
    use ridl_brm::Value;
    use ridl_relational::{DeltaOp, RelState, TableId};
    use std::collections::BTreeSet;
    use std::path::PathBuf;

    fn dir() -> PathBuf {
        PathBuf::from("/store")
    }

    fn state_one_row() -> RelState {
        let mut st = RelState::with_tables(1);
        st.insert(TableId(0), vec![Some(Value::str("x"))]);
        st
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
    fn fresh_directory_is_fresh() {
        let io = FaultyIo::new();
        let st = inspect_store(&io, &dir()).unwrap();
        assert_eq!(st.verdict(), "fresh");
        assert!(st.epoch.is_none());
        assert!(!st.wal.present);
        let json = st.to_json();
        assert!(json.contains("\"verdict\":\"fresh\""));
        assert!(json.contains("\"epoch\":null"));
    }

    #[test]
    fn healthy_chain_reports_epoch_and_links() {
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        let mut state = state_one_row();
        let outcome = write_checkpoint(&io, &dir(), 1, 7, &state, CheckpointPlan::Base).unwrap();
        let geometry = outcome.geometry;
        for (seq, name) in [(1u32, "y"), (2u32, "z")] {
            let row = vec![Some(Value::str(name))];
            let dirty: BTreeSet<_> = [(0u32, geometry.extent_of(0, &row))].into();
            state.insert(TableId(0), row);
            write_checkpoint(
                &io,
                &dir(),
                1 + seq as u64,
                7,
                &state,
                CheckpointPlan::Delta {
                    geometry: &geometry,
                    dirty: &dirty,
                    seq,
                },
            )
            .unwrap();
        }
        append_insert(&io, "tail");

        let st = inspect_store(&io, &dir()).unwrap();
        assert_eq!(st.verdict(), "clean");
        assert_eq!(st.epoch, Some(3), "base 1 + two deltas");
        assert_eq!(st.base_file, Some(SNAP_FILE));
        assert_eq!(st.chain_len, 2);
        assert_eq!(st.wal.units, 1);
        assert_eq!(st.wal.torn_bytes, 0);
        assert!(st.checkpoints.iter().all(|c| c.chained));
        // Read-only: nothing was deleted or created.
        assert!(io.exists(&store_path(&dir(), &delta_file(1))));
        let json = st.to_json();
        assert!(json.contains("\"deltas\":2"));
        assert!(json.contains("\"units\":1"));
        let human = st.to_string();
        assert!(human.contains("chain: epoch 3 = base 1"));
    }

    #[test]
    fn torn_tail_and_debris_are_reported_not_repaired() {
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        append_insert(&io, "good");
        // A torn append: half a unit past the committed end.
        let unit = encode_unit(&[DeltaOp::Insert {
            table: TableId(0),
            row: vec![Some(Value::str("torn"))],
        }]);
        io.append(&store_path(&dir(), WAL_FILE), &unit[..unit.len() / 2])
            .unwrap();
        io.poke(&store_path(&dir(), SNAP_TMP_FILE), b"half".to_vec());

        let st = inspect_store(&io, &dir()).unwrap();
        assert_eq!(st.verdict(), "recoverable");
        assert_eq!(st.wal.units, 1);
        assert!(st.wal.torn_bytes > 0);
        assert_eq!(st.tmp_debris, vec![SNAP_TMP_FILE.to_string()]);
        // Inspection never repairs: debris survives.
        assert!(io.exists(&store_path(&dir(), SNAP_TMP_FILE)));
        assert!(st.corrupt.is_none());
        assert!(st.issues.iter().any(|i| i.contains("torn-tail")));
    }

    #[test]
    fn orphan_delta_is_flagged_but_kept() {
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        let mut state = state_one_row();
        let outcome = write_checkpoint(&io, &dir(), 1, 7, &state, CheckpointPlan::Base).unwrap();
        let row = vec![Some(Value::str("y"))];
        let dirty: BTreeSet<_> = [(0u32, outcome.geometry.extent_of(0, &row))].into();
        state.insert(TableId(0), row);
        write_checkpoint(
            &io,
            &dir(),
            2,
            7,
            &state,
            CheckpointPlan::Delta {
                geometry: &outcome.geometry,
                dirty: &dirty,
                seq: 1,
            },
        )
        .unwrap();
        // Interrupted GC: stale d1 survives a new base.
        let stale = io.peek(&store_path(&dir(), &delta_file(1))).unwrap();
        write_checkpoint(&io, &dir(), 3, 7, &state, CheckpointPlan::Base).unwrap();
        io.poke(&store_path(&dir(), &delta_file(1)), stale);

        let st = inspect_store(&io, &dir()).unwrap();
        assert_eq!(st.verdict(), "recoverable");
        assert_eq!(st.epoch, Some(3));
        assert_eq!(st.chain_len, 0);
        assert_eq!(st.orphan_deltas, vec![delta_file(1)]);
        assert!(io.exists(&store_path(&dir(), &delta_file(1))), "kept");
    }

    #[test]
    fn wal_ahead_of_the_chain_is_corrupt() {
        let io = FaultyIo::new();
        io.poke(
            &store_path(&dir(), SNAP_PREV_FILE),
            encode_base(1, 7, &state_one_row()).0,
        );
        reset_wal(&io, &dir(), 2, 7).unwrap();
        let st = inspect_store(&io, &dir()).unwrap();
        assert_eq!(st.verdict(), "corrupt");
        assert!(st.corrupt.as_deref().unwrap().contains("WAL epoch 2"));

        // No checkpoint at all, WAL at a checkpointed epoch.
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 3, 7).unwrap();
        let st = inspect_store(&io, &dir()).unwrap();
        assert_eq!(st.verdict(), "corrupt");
    }

    #[test]
    fn stale_wal_and_corrupt_snap_fallback_match_recovery() {
        // Crash between checkpoint renames and WAL reset: snapshot at
        // epoch 1, WAL still at epoch 0.
        let io = FaultyIo::new();
        reset_wal(&io, &dir(), 0, 7).unwrap();
        append_insert(&io, "old");
        io.poke(
            &store_path(&dir(), SNAP_FILE),
            encode_base(1, 7, &state_one_row()).0,
        );
        let st = inspect_store(&io, &dir()).unwrap();
        assert_eq!(st.verdict(), "recoverable");
        assert!(st.wal.stale);
        assert_eq!(st.epoch, Some(1));

        // Corrupt snap falls back to prev — and reports the rejection.
        let io = FaultyIo::new();
        io.poke(
            &store_path(&dir(), SNAP_PREV_FILE),
            encode_base(1, 7, &state_one_row()).0,
        );
        io.poke(&store_path(&dir(), SNAP_FILE), b"garbage".to_vec());
        reset_wal(&io, &dir(), 1, 7).unwrap();
        let st = inspect_store(&io, &dir()).unwrap();
        assert_eq!(st.verdict(), "recoverable");
        assert_eq!(st.base_file, Some(SNAP_PREV_FILE));
        assert_eq!(st.rejected.len(), 1);
        assert!(io.exists(&store_path(&dir(), SNAP_FILE)), "not deleted");
    }
}
