//! Durability integration: WAL commit points, checkpoint/truncation,
//! crash recovery, fsync policies, WAL poisoning, and the
//! checkpoint-in-transaction guard — all driven through the engine's
//! public `Database::open_with` API over the fault-injecting in-memory
//! filesystem (plus one real-filesystem smoke test).

use std::path::PathBuf;
use std::sync::Arc;

use ridl_brm::{DataType, Value};
use ridl_durable::crc::crc32;
use ridl_durable::store::{store_path, SNAP_FILE, SNAP_PREV_FILE, SNAP_TMP_FILE, WAL_FILE};
use ridl_durable::{
    delta_file, encode_unit, CheckpointKind, Durability, DurableIo, FaultKind, FaultPlan, FaultyIo,
    FsyncPolicy,
};
use ridl_engine::{Database, EngineError};
use ridl_relational::{
    validate, Column, DeltaOp, RelConstraintKind, RelSchema, Row, Table, TableId,
};

fn v(s: &str) -> Option<Value> {
    Some(Value::str(s))
}

/// The Paper / Program_Paper sample schema with PK + FK constraints.
fn sample_schema() -> RelSchema {
    let mut s = RelSchema::new("t");
    let d = s.domain("D", DataType::Char(10));
    let paper = s.add_table(Table::new(
        "Paper",
        vec![
            Column::not_null("Paper_Id", d),
            Column::nullable("Program_Id", d),
        ],
    ));
    let pp = s.add_table(Table::new(
        "Program_Paper",
        vec![
            Column::not_null("Program_Id", d),
            Column::not_null("Session", d),
        ],
    ));
    s.add_named(RelConstraintKind::PrimaryKey {
        table: paper,
        cols: vec![0],
    });
    s.add_named(RelConstraintKind::PrimaryKey {
        table: pp,
        cols: vec![0],
    });
    s.add_named(RelConstraintKind::ForeignKey {
        table: pp,
        cols: vec![0],
        ref_table: paper,
        ref_cols: vec![1],
    });
    s
}

fn dir() -> PathBuf {
    PathBuf::from("/db")
}

fn open(io: &Arc<FaultyIo>, config: Durability) -> Database {
    Database::open_with(io.clone(), dir(), sample_schema(), config).expect("open")
}

fn always() -> Durability {
    Durability {
        fsync: FsyncPolicy::Always,
        checkpoint_every_bytes: None,
    }
}

#[test]
fn statements_survive_reopen() {
    let io = Arc::new(FaultyIo::new());
    let mut db = open(&io, always());
    assert!(db.is_durable());
    assert!(db.recovery_report().unwrap().fresh);
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    db.insert("Paper", vec![v("P2"), None]).unwrap();
    db.insert("Program_Paper", vec![v("A1"), v("S1")]).unwrap();
    db.delete_where(
        "Paper",
        &[ridl_engine::Pred::Eq("Paper_Id".into(), Value::str("P2"))],
    )
    .unwrap();
    let want = db.state().clone();
    drop(db);

    let db2 = open(&io, always());
    assert_eq!(db2.state(), &want);
    let r = db2.recovery_report().unwrap();
    assert!(!r.fresh);
    assert_eq!(r.units_replayed, 4);
    assert_eq!(r.bytes_discarded, 0);
    assert!(r.checkpoint.is_none());
    assert!(validate(db2.schema(), db2.state()).is_empty());
}

#[test]
fn rejected_statements_never_reach_the_log() {
    let io = Arc::new(FaultyIo::new());
    let mut db = open(&io, always());
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    // Constraint violation: reverted, not logged.
    assert!(db.insert("Program_Paper", vec![v("A9"), v("S9")]).is_err());
    let want = db.state().clone();
    drop(db);
    let db2 = open(&io, always());
    assert_eq!(db2.state(), &want);
    assert_eq!(db2.recovery_report().unwrap().units_replayed, 1);
}

#[test]
fn checkpoint_truncates_wal_and_recovers_from_snapshot() {
    let io = Arc::new(FaultyIo::new());
    let mut db = open(&io, always());
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    db.insert("Program_Paper", vec![v("A1"), v("S1")]).unwrap();
    let before = db.wal_bytes().unwrap();
    db.checkpoint().unwrap();
    assert!(db.wal_bytes().unwrap() < before, "WAL truncated");
    db.insert("Paper", vec![v("P2"), None]).unwrap();
    let want = db.state().clone();
    drop(db);

    let db2 = open(&io, always());
    assert_eq!(db2.state(), &want);
    let r = db2.recovery_report().unwrap();
    let (epoch, file) = r.checkpoint.expect("recovered from checkpoint");
    assert_eq!(epoch, 1);
    assert_eq!(file, SNAP_FILE);
    assert_eq!(r.units_replayed, 1, "only the post-checkpoint statement");
}

#[test]
fn transactions_log_one_unit_at_outermost_commit() {
    let io = Arc::new(FaultyIo::new());
    let mut db = open(&io, always());
    let len0 = db.wal_bytes().unwrap();
    db.begin();
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    db.insert("Program_Paper", vec![v("A1"), v("S1")]).unwrap();
    assert_eq!(db.wal_bytes().unwrap(), len0, "nothing logged mid-txn");
    db.commit().unwrap();
    assert!(db.wal_bytes().unwrap() > len0);
    // A rolled-back transaction logs nothing.
    let len1 = db.wal_bytes().unwrap();
    db.begin();
    db.insert("Paper", vec![v("P2"), None]).unwrap();
    db.rollback().unwrap();
    assert_eq!(db.wal_bytes().unwrap(), len1);
    let want = db.state().clone();
    drop(db);

    let db2 = open(&io, always());
    assert_eq!(db2.state(), &want);
    assert_eq!(db2.recovery_report().unwrap().units_replayed, 1);
}

/// Appends a hand-encoded unit whose commit marker carries the legacy
/// `0` byte (written once for units whose constraint check was deferred).
fn append_legacy_unit(io: &FaultyIo, ops: &[DeltaOp]) {
    let mut unit = encode_unit(ops);
    unit.truncate(unit.len() - 10); // the commit frame: 8 header + 2 payload
    let marker = [0x04, 0x00];
    unit.extend_from_slice(&(marker.len() as u32).to_le_bytes());
    unit.extend_from_slice(&crc32(&marker).to_le_bytes());
    unit.extend_from_slice(&marker);
    let wal = store_path(&dir(), WAL_FILE);
    io.append(&wal, &unit).unwrap();
    io.sync(&wal).unwrap();
}

/// A legacy unchecked unit replays through the same validation as any
/// other unit: a valid one replays; an invalid one stops replay there,
/// keeping the earlier units and rewriting the log to them.
#[test]
fn legacy_unchecked_units_replay_through_validation() {
    let io = Arc::new(FaultyIo::new());
    let mut db = open(&io, always());
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    drop(db);
    let insert = |table: u32, row: Row| DeltaOp::Insert {
        table: TableId(table),
        row,
    };
    append_legacy_unit(&io, &[insert(0, vec![v("P2"), None])]);
    let db = open(&io, always());
    let r = db.recovery_report().unwrap();
    assert_eq!((r.units_replayed, r.replay_rejected), (2, false));
    assert_eq!(db.state().num_rows(), 2);
    let want = db.state().clone();
    drop(db);

    // A dangling FK, then a valid unit that replay must not reach.
    append_legacy_unit(&io, &[insert(1, vec![v("A9"), v("S9")])]);
    append_legacy_unit(&io, &[insert(0, vec![v("P3"), None])]);
    let db = open(&io, always());
    let r = db.recovery_report().unwrap();
    assert!(r.replay_rejected);
    assert_eq!(r.units_replayed, 2);
    assert_eq!(db.state(), &want);
    drop(db);
    let db = open(&io, always());
    let r = db.recovery_report().unwrap();
    assert!(
        !r.replay_rejected,
        "the log was rewritten to the kept units"
    );
    assert_eq!((r.units_replayed, r.bytes_discarded), (2, 0));
    assert_eq!(db.state(), &want);
}

#[test]
fn torn_wal_tail_is_discarded() {
    let io = Arc::new(FaultyIo::new());
    let mut db = open(&io, always());
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    let want = db.state().clone();
    db.insert("Paper", vec![v("P2"), None]).unwrap();
    drop(db);
    // Tear the last committed unit: chop bytes off the WAL tail.
    let wal = store_path(&dir(), WAL_FILE);
    let mut bytes = io.peek(&wal).unwrap();
    bytes.truncate(bytes.len() - 5);
    bytes.extend_from_slice(b"???"); // plus trailing garbage
    io.poke(&wal, bytes);

    let db2 = open(&io, always());
    assert_eq!(db2.state(), &want, "clean prefix recovered");
    let r = db2.recovery_report().unwrap();
    assert_eq!(r.units_replayed, 1);
    assert!(r.bytes_discarded > 0);
    drop(db2);
    // Recovery rewrote the log: a second open is clean and idempotent.
    let db3 = open(&io, always());
    assert_eq!(db3.state(), &want);
    assert_eq!(db3.recovery_report().unwrap().bytes_discarded, 0);
}

#[test]
fn group_commit_defers_fsync_and_flush_forces_it() {
    let io = Arc::new(FaultyIo::new());
    let config = Durability {
        fsync: FsyncPolicy::GroupCommit {
            window_micros: u64::MAX,
        },
        checkpoint_every_bytes: None,
    };
    let mut db = open(&io, config);
    let base = io.fsync_count();
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    db.insert("Paper", vec![v("P2"), None]).unwrap();
    assert_eq!(io.fsync_count(), base, "commits inside the window");
    db.flush_wal().unwrap();
    assert_eq!(io.fsync_count(), base + 1);
    let want = db.state().clone();
    drop(db);
    // A crash after the flush loses nothing.
    io.crash(0);
    let db2 = open(&io, config);
    assert_eq!(db2.state(), &want);
}

#[test]
fn group_commit_crash_loses_a_suffix_not_consistency() {
    let io = Arc::new(FaultyIo::new());
    let config = Durability {
        fsync: FsyncPolicy::GroupCommit {
            window_micros: u64::MAX,
        },
        checkpoint_every_bytes: None,
    };
    let mut db = open(&io, config);
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    db.flush_wal().unwrap();
    let durable_state = db.state().clone();
    db.insert("Paper", vec![v("P2"), None]).unwrap(); // unsynced
    io.crash(0);
    drop(db);
    let db2 = open(&io, config);
    assert_eq!(db2.state(), &durable_state, "unsynced commit lost whole");
    assert!(validate(db2.schema(), db2.state()).is_empty());
}

#[test]
fn wal_failure_reverts_statement_and_poisons_until_checkpoint() {
    let io = Arc::new(FaultyIo::new());
    let mut db = open(&io, always());
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    let want = db.state().clone();
    // Next syscall (the WAL append) fails.
    io.set_plan(Some(FaultPlan {
        at_op: io.op_count(),
        kind: FaultKind::IoError,
    }));
    let err = db.insert("Paper", vec![v("P2"), None]);
    assert!(matches!(err, Err(EngineError::Io(_))), "{err:?}");
    assert_eq!(db.state(), &want, "statement reverted");
    // Poisoned: mutations refused with a typed error.
    let err = db.insert("Paper", vec![v("P3"), None]);
    assert!(matches!(err, Err(EngineError::WalPoisoned)), "{err:?}");
    // A checkpoint re-establishes a durable base and clears the poison.
    db.checkpoint().unwrap();
    db.insert("Paper", vec![v("P3"), None]).unwrap();
    let want = db.state().clone();
    drop(db);
    let db2 = open(&io, always());
    assert_eq!(db2.state(), &want);
}

/// When the outermost commit's WAL append fails, the transaction is
/// reverted and closed, the handle is poisoned, and the repairing
/// checkpoint persists the pre-transaction state.
#[test]
fn commit_wal_failure_reverts_the_transaction() {
    let io = Arc::new(FaultyIo::new());
    let mut db = open(&io, always());
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    let want = db.state().clone();
    db.begin();
    db.insert("Paper", vec![v("P9"), v("A9")]).unwrap();
    db.insert("Program_Paper", vec![v("A9"), v("S9")]).unwrap();
    io.set_plan(Some(FaultPlan {
        at_op: io.op_count(),
        kind: FaultKind::IoError,
    }));
    let err = db.commit();
    assert!(matches!(err, Err(EngineError::Io(_))), "{err:?}");
    assert_eq!(db.state(), &want, "transaction reverted");
    assert!(matches!(db.rollback(), Err(EngineError::NoTransaction)));
    let err = db.insert("Paper", vec![v("P2"), None]);
    assert!(matches!(err, Err(EngineError::WalPoisoned)), "{err:?}");
    db.checkpoint().unwrap();
    drop(db);
    let db2 = open(&io, always());
    assert_eq!(db2.state(), &want);
}

/// A conceptual ADD that fails on a poisoned store leaves no transaction
/// open, so the repairing checkpoint is allowed and writes resume.
#[test]
fn failed_conceptual_add_leaves_no_transaction_open() {
    use ridl_core::state_map::map_population;
    use ridl_core::{MappingOptions, Workbench};
    use ridl_query::{apply_add, parse_add};
    use ridl_workloads::fig6;

    let out = Workbench::new(fig6::schema())
        .map(&MappingOptions::new())
        .unwrap();
    let io = Arc::new(FaultyIo::new());
    let mut db = Database::open_with(io.clone(), dir(), out.rel.clone(), always()).unwrap();
    let pop = fig6::population(&out.schema);
    db.load_state(map_population(&out.schema, &out, &pop).unwrap())
        .unwrap();
    let add = |key: &str| {
        parse_add(&format!(
            "ADD Paper ( identified_by = '{key}' , titled = 'T' , submitted_at = DATE 1 );"
        ))
        .unwrap()
    };
    // The first ADD's WAL append fails and poisons the store; the next
    // ADD is refused before it touches anything.
    io.set_plan(Some(FaultPlan {
        at_op: io.op_count(),
        kind: FaultKind::IoError,
    }));
    assert!(apply_add(&out, &mut db, &add("P8")).is_err());
    assert!(apply_add(&out, &mut db, &add("P9")).is_err());
    assert!(matches!(db.rollback(), Err(EngineError::NoTransaction)));
    db.checkpoint().unwrap();
    assert_eq!(apply_add(&out, &mut db, &add("P9")).unwrap(), ["Paper"]);
}

/// When the commit's append lands whole but the fsync fails, the engine
/// rewinds the log to its pre-append length: even a reboot that keeps
/// every volatile byte must not replay a statement the caller was told
/// failed.
#[test]
fn fsync_failure_rewinds_the_appended_unit() {
    let io = Arc::new(FaultyIo::new());
    let mut db = open(&io, always());
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    let want = db.state().clone();
    // The append (next op) lands whole; the fsync right after it fails.
    io.set_plan(Some(FaultPlan {
        at_op: io.op_count() + 1,
        kind: FaultKind::IoError,
    }));
    let err = db.insert("Paper", vec![v("P2"), None]);
    assert!(matches!(err, Err(EngineError::Io(_))), "{err:?}");
    assert_eq!(db.state(), &want, "statement reverted");
    drop(db);
    io.crash(1 << 20); // keep the whole volatile tail across the reboot
    let db2 = open(&io, always());
    assert_eq!(db2.state(), &want, "reverted statement replayed from WAL");
}

/// Satellite 1: a checkpoint taken while a transaction is open would make
/// uncommitted changes durable — refused with a typed error, and the
/// automatic checkpoint defers too.
#[test]
fn checkpoint_mid_transaction_is_forbidden() {
    let io = Arc::new(FaultyIo::new());
    let mut db = open(&io, always());
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    db.begin();
    db.insert("Paper", vec![v("P2"), None]).unwrap();
    let err = db.checkpoint();
    assert!(
        matches!(err, Err(EngineError::CheckpointInTransaction)),
        "{err:?}"
    );
    // Nothing was written: the store still recovers to the pre-txn state.
    db.rollback().unwrap();
    db.checkpoint().unwrap();
    let want = db.state().clone();
    drop(db);
    let db2 = open(&io, always());
    assert_eq!(db2.state(), &want);
    assert_eq!(db2.state().num_rows(), 1);
}

/// Satellite 1: the auto-checkpoint threshold never fires mid-transaction
/// — it waits for the outermost commit.
#[test]
fn auto_checkpoint_defers_until_commit() {
    let io = Arc::new(FaultyIo::new());
    let config = Durability {
        fsync: FsyncPolicy::Always,
        checkpoint_every_bytes: Some(1), // every commit crosses it
    };
    let mut db = open(&io, config);
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    let checkpoints = |io: &FaultyIo| io.peek(&store_path(&dir(), SNAP_FILE)).is_some();
    assert!(checkpoints(&io), "auto-checkpoint after the first commit");
    let snap_before = io.peek(&store_path(&dir(), SNAP_FILE)).unwrap();
    db.begin();
    db.insert("Paper", vec![v("P2"), None]).unwrap();
    db.insert("Paper", vec![v("P3"), None]).unwrap();
    let snap_mid = io.peek(&store_path(&dir(), SNAP_FILE)).unwrap();
    assert_eq!(snap_before, snap_mid, "no snapshot while the txn is open");
    db.commit().unwrap();
    // The checkpoint fired at commit — as a fresh base (rewriting the
    // snapshot) or as an incremental delta (a chain file appears while
    // the base stays untouched), whichever the dirty fraction picked.
    let stats = db.last_checkpoint_stats().expect("checkpoint fired");
    let snap_after = io.peek(&store_path(&dir(), SNAP_FILE)).unwrap();
    match stats.kind {
        CheckpointKind::Base => {
            assert_ne!(snap_before, snap_after, "base rewrote the snapshot")
        }
        CheckpointKind::Delta => {
            assert_eq!(snap_before, snap_after, "delta leaves the base alone");
            assert!(
                io.peek(&store_path(&dir(), &delta_file(1))).is_some(),
                "delta file appeared"
            );
        }
    }
    assert!(db.wal_bytes().unwrap() < 100, "WAL truncated");
    let want = db.state().clone();
    drop(db);
    assert_eq!(open(&io, config).state(), &want);
}

#[test]
fn bulk_load_checkpoints_instead_of_logging_rows() {
    let io = Arc::new(FaultyIo::new());
    let mut db = open(&io, always());
    use ridl_relational::TableId;
    let n = db
        .bulk_load([
            (TableId(0), vec![v("P1"), v("A1")]),
            (TableId(0), vec![v("P2"), None]),
            (TableId(1), vec![v("A1"), v("S1")]),
        ])
        .unwrap();
    assert_eq!(n, 3);
    let want = db.state().clone();
    drop(db);
    let db2 = open(&io, always());
    assert_eq!(db2.state(), &want);
    let r = db2.recovery_report().unwrap();
    assert!(r.checkpoint.is_some(), "load went through a checkpoint");
    assert_eq!(r.units_replayed, 0);
}

#[test]
fn corrupt_snapshot_falls_back_to_previous_checkpoint() {
    let io = Arc::new(FaultyIo::new());
    let mut db = open(&io, always());
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    db.checkpoint().unwrap();
    let want = db.state().clone();
    drop(db);
    // Stage the moment between the checkpoint renames: the good snapshot
    // demoted to `prev`, the current one unreadable at rest.
    let snap = store_path(&dir(), SNAP_FILE);
    let good = io.peek(&snap).unwrap();
    io.poke(&store_path(&dir(), SNAP_PREV_FILE), good);
    let mut bad = io.peek(&snap).unwrap();
    bad[20] ^= 0x40;
    io.poke(&snap, bad);

    let db2 = open(&io, always());
    assert_eq!(db2.state(), &want);
    let r = db2.recovery_report().unwrap();
    assert_eq!(r.snapshots_rejected, 1);
    assert_eq!(r.checkpoint.unwrap().1, SNAP_PREV_FILE);
}

#[test]
fn schema_mismatch_is_refused() {
    let io = Arc::new(FaultyIo::new());
    let mut db = open(&io, always());
    db.insert("Paper", vec![v("P1"), None]).unwrap();
    drop(db);
    let mut other = sample_schema();
    let d = other.domain("D2", DataType::Integer);
    other.add_table(Table::new("Extra", vec![Column::not_null("X", d)]));
    let err = Database::open_with(io, dir(), other, always());
    assert!(
        matches!(err, Err(EngineError::SchemaMismatch)),
        "opened a store from a different schema"
    );
}

#[test]
fn real_filesystem_roundtrip() {
    let dir = std::env::temp_dir().join(format!("ridl-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Database::open(&dir, sample_schema()).unwrap();
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    db.insert("Program_Paper", vec![v("A1"), v("S1")]).unwrap();
    db.checkpoint().unwrap();
    db.insert("Paper", vec![v("P2"), None]).unwrap();
    let want = db.state().clone();
    drop(db);
    let db2 = Database::open(&dir, sample_schema()).unwrap();
    assert_eq!(db2.state(), &want);
    assert_eq!(db2.recovery_report().unwrap().units_replayed, 1);
    drop(db2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn auto_checkpoint_fires_on_the_crossing_statement_not_one_late() {
    // Measure the WAL header and per-unit sizes with auto-checkpoints
    // off, using identically sized rows so every unit is the same width.
    let probe = Arc::new(FaultyIo::new());
    let mut db = open(&probe, always());
    let header = db.wal_bytes().unwrap();
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    let unit = db.wal_bytes().unwrap() - header;
    db.insert("Paper", vec![v("P2"), v("A2")]).unwrap();
    assert_eq!(
        db.wal_bytes().unwrap(),
        header + 2 * unit,
        "equal-size rows log equal-size units"
    );
    drop(db);

    // Pin the trigger boundary: the threshold is "checkpoint once the
    // WAL *exceeds* this many bytes", measured after the just-appended
    // commit record. With the threshold at exactly two units, the second
    // commit lands on the boundary (no checkpoint) and the third must
    // checkpoint on that same statement — not one statement late.
    let io = Arc::new(FaultyIo::new());
    let mut db = open(
        &io,
        Durability {
            fsync: FsyncPolicy::Always,
            checkpoint_every_bytes: Some(header + 2 * unit),
        },
    );
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    assert_eq!(db.wal_bytes().unwrap(), header + unit);
    assert!(db.last_checkpoint_stats().is_none(), "below the threshold");
    db.insert("Paper", vec![v("P2"), v("A2")]).unwrap();
    assert_eq!(db.wal_bytes().unwrap(), header + 2 * unit);
    assert!(
        db.last_checkpoint_stats().is_none(),
        "exactly at the threshold is not past it"
    );
    db.insert("Paper", vec![v("P3"), v("A3")]).unwrap();
    assert_eq!(
        db.wal_bytes().unwrap(),
        header,
        "the crossing commit checkpointed (and truncated) immediately"
    );
    assert!(db.last_checkpoint_stats().is_some());
}

#[test]
fn snapshot_write_failures_keep_the_wal_appendable_and_clean_up_tmp() {
    // Sweep an injected I/O error across every syscall of the checkpoint
    // window and check the `CheckpointFailure` contract at each point:
    // a `SnapshotWrite` failure must leave the WAL appendable (the
    // checkpoint "simply did not happen"), a `WalReset` failure poisons
    // appends until the next successful checkpoint, and in every case a
    // reopen recovers the exact live state with no orphaned
    // `checkpoint.tmp` surviving the scan.
    let mut saw_snapshot_write = false;
    let mut saw_orphan_tmp = false;
    let mut saw_poisoned = false;
    for at in 0..32u64 {
        let io = Arc::new(FaultyIo::new());
        let mut db = open(&io, always());
        db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
        db.checkpoint().unwrap(); // freeze a geometry: later ckpts may be deltas
        db.insert("Paper", vec![v("P2"), None]).unwrap();
        io.set_plan(Some(FaultPlan {
            at_op: io.op_count() + at,
            kind: FaultKind::IoError,
        }));
        let r = db.checkpoint();
        io.set_plan(None);
        match r {
            Err(_) => {
                saw_snapshot_write = true;
                saw_orphan_tmp |= io.peek(&store_path(&dir(), SNAP_TMP_FILE)).is_some();
                // The claim under test: the WAL remains appendable.
                db.insert("Paper", vec![v("P3"), None])
                    .expect("WAL appendable after SnapshotWrite failure");
            }
            Ok(()) => match db.insert("Paper", vec![v("P3"), None]) {
                Ok(()) => {}
                Err(EngineError::WalPoisoned) => {
                    // WalReset stage: snapshot durable, appends poisoned
                    // until a checkpoint repairs the log.
                    saw_poisoned = true;
                    db.checkpoint().expect("repair checkpoint");
                    db.insert("Paper", vec![v("P3"), None]).unwrap();
                }
                Err(e) => panic!("unexpected post-checkpoint error: {e:?}"),
            },
        }
        let want = db.state().clone();
        drop(db);
        let db2 = open(&io, always());
        assert_eq!(db2.state(), &want, "fault at +{at}: reopen recovers");
        assert!(
            io.peek(&store_path(&dir(), SNAP_TMP_FILE)).is_none(),
            "fault at +{at}: read_store removed the orphaned tmp"
        );
    }
    assert!(saw_snapshot_write, "sweep hit the snapshot-write stage");
    assert!(
        saw_orphan_tmp,
        "sweep left (and then cleaned) an orphan tmp"
    );
    assert!(saw_poisoned, "sweep hit the WAL-reset stage");
}

#[test]
fn delta_chain_recovers_across_reopen_and_continues() {
    let io = Arc::new(FaultyIo::new());
    let mut db = open(&io, always());
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    db.checkpoint().unwrap(); // base, freezes the geometry
    assert_eq!(
        db.last_checkpoint_stats().unwrap().kind,
        CheckpointKind::Base
    );
    db.insert("Paper", vec![v("P2"), None]).unwrap();
    db.checkpoint().unwrap(); // one dirty extent of two → delta
    assert_eq!(
        db.last_checkpoint_stats().unwrap().kind,
        CheckpointKind::Delta
    );
    assert!(io.peek(&store_path(&dir(), &delta_file(1))).is_some());
    db.insert("Paper", vec![v("P3"), None]).unwrap(); // WAL-only tail
    let want = db.state().clone();
    drop(db);

    let db2 = open(&io, always());
    assert_eq!(db2.state(), &want);
    let r = db2.recovery_report().unwrap();
    assert_eq!(r.snapshot_format, 2, "recovered from a v2 paged chain");
    assert_eq!(r.deltas_merged, 1);
    assert_eq!(r.units_replayed, 1, "only the post-delta statement");
    assert_eq!(r.checkpoint.unwrap().0, 2, "chain head epoch = base + 1");

    // The chain continues where it left off: the next delta is d2.
    let mut db2 = db2;
    db2.insert("Paper", vec![v("P4"), None]).unwrap();
    db2.checkpoint().unwrap();
    assert_eq!(
        db2.last_checkpoint_stats().unwrap().kind,
        CheckpointKind::Delta
    );
    assert!(io.peek(&store_path(&dir(), &delta_file(2))).is_some());
    let want2 = db2.state().clone();
    drop(db2);
    let db3 = open(&io, always());
    assert_eq!(db3.state(), &want2);
    assert_eq!(db3.recovery_report().unwrap().deltas_merged, 2);
}

#[test]
fn checkpoint_full_collapses_the_chain() {
    let io = Arc::new(FaultyIo::new());
    let mut db = open(&io, always());
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    db.checkpoint().unwrap();
    db.insert("Paper", vec![v("P2"), None]).unwrap();
    db.checkpoint().unwrap();
    assert!(io.peek(&store_path(&dir(), &delta_file(1))).is_some());

    db.insert("Paper", vec![v("P3"), None]).unwrap();
    db.checkpoint_full().unwrap();
    let stats = db.last_checkpoint_stats().unwrap();
    assert_eq!(stats.kind, CheckpointKind::Base);
    assert_eq!(stats.extents_written, stats.extents_total);
    assert!(
        io.peek(&store_path(&dir(), &delta_file(1))).is_none(),
        "full checkpoint garbage-collected the old chain"
    );
    let want = db.state().clone();
    drop(db);
    let db2 = open(&io, always());
    assert_eq!(db2.state(), &want);
    assert_eq!(db2.recovery_report().unwrap().deltas_merged, 0);
}

/// A base slot holding a retired v1 text snapshot (`RIDLSNAP 1`) refuses
/// the store — `Database::open` fails with a corrupt error naming the
/// format and `ridl status` says `corrupt` — instead of being skipped as
/// damage, which could replay the WAL over an empty state or let repair
/// hygiene delete the data.
#[test]
fn legacy_v1_snapshot_is_refused_by_open_and_status() {
    let dir = std::env::temp_dir().join(format!("ridl-legacy-v1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut db = Database::open(&dir, sample_schema()).unwrap();
        db.insert("Paper", vec![v("P1"), None]).unwrap();
        db.checkpoint().unwrap();
    }
    let legacy = "RIDLSNAP 1\nepoch 1\nfingerprint 0000000000000007\ntables 0\nend\n";
    std::fs::write(store_path(&dir, SNAP_FILE), legacy).unwrap();
    std::fs::write(store_path(&dir, SNAP_TMP_FILE), "half a checkpoint").unwrap();

    let Err(err) = Database::open(&dir, sample_schema()) else {
        panic!("a legacy store must not open");
    };
    assert!(matches!(err, EngineError::Corrupt(_)), "{err}");
    assert!(err.to_string().contains("legacy v1 text snapshot"), "{err}");
    // Refused before repair hygiene: nothing was deleted.
    assert!(store_path(&dir, SNAP_FILE).exists());
    assert!(store_path(&dir, SNAP_TMP_FILE).exists());

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ridl"))
        .args(["status", dir.to_str().unwrap(), "--json"])
        .output()
        .expect("ridl status runs");
    let _ = std::fs::remove_dir_all(&dir);
    let text = String::from_utf8(out.stdout).unwrap();
    let status = ridl_obs::json::parse(&text).expect("ridl status --json is JSON");
    assert_eq!(
        status.get("verdict").and_then(|v| v.as_str()),
        Some("corrupt"),
        "{text}"
    );
    let why = status.get("corrupt").and_then(|v| v.as_str()).unwrap();
    assert!(why.contains("RIDLSNAP 1"), "{why}");
}

/// Two base checkpoints, so both slots hold a base: `snap` the newer,
/// `prev` the one before.
fn store_with_both_slots(io: &Arc<FaultyIo>) -> ridl_relational::RelState {
    let mut db = open(io, always());
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    db.checkpoint_full().unwrap();
    db.insert("Paper", vec![v("P2"), None]).unwrap();
    db.checkpoint_full().unwrap();
    assert!(io.peek(&store_path(&dir(), SNAP_PREV_FILE)).is_some());
    db.state().clone()
}

/// Recovery decodes `checkpoint.prev` only when `checkpoint.snap` is
/// missing or rejected: damage to an unused fallback neither counts as a
/// rejected snapshot nor gets the file deleted, and the offline
/// inspector, which decodes every file, still reports it.
#[test]
fn damaged_prev_beside_a_good_snap_is_not_decoded_or_deleted() {
    let io = Arc::new(FaultyIo::new());
    let want = store_with_both_slots(&io);
    let prev = store_path(&dir(), SNAP_PREV_FILE);
    let mut damaged = io.peek(&prev).unwrap();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x40;
    io.poke(&prev, damaged.clone());

    let db = open(&io, always());
    assert_eq!(db.state(), &want);
    let r = db.recovery_report().unwrap();
    assert_eq!(r.checkpoint.unwrap().1, SNAP_FILE);
    assert_eq!(r.snapshots_rejected, 0, "prev was never decoded");
    drop(db);
    assert_eq!(io.peek(&prev), Some(damaged), "prev left as it was");

    let status = ridl_durable::inspect_store(&*io, &dir()).unwrap();
    assert_eq!(status.base_file, Some(SNAP_FILE));
    assert!(
        status
            .rejected
            .iter()
            .any(|(file, _)| file == SNAP_PREV_FILE),
        "{status:?}"
    );
}

/// The legacy-format refusal covers both slots, even though a good
/// `snap` means `prev` is never decoded.
#[test]
fn legacy_v1_prev_refuses_the_store() {
    let io = Arc::new(FaultyIo::new());
    store_with_both_slots(&io);
    io.poke(
        &store_path(&dir(), SNAP_PREV_FILE),
        b"RIDLSNAP 1\nepoch 1\nfingerprint 0000000000000007\ntables 0\nend\n".to_vec(),
    );
    let Err(err) = Database::open_with(io.clone(), dir(), sample_schema(), always()) else {
        panic!("a store with a legacy fallback must not open");
    };
    assert!(matches!(err, EngineError::Corrupt(_)), "{err}");
    assert!(err.to_string().contains("legacy v1 text snapshot"), "{err}");
}

/// A CRC-valid base checkpoint of a constraint-invalid state — a
/// duplicate primary key and a dangling foreign key — is refused by the
/// constraint check on the recovered base.
#[test]
fn constraint_invalid_checkpoint_is_refused() {
    let io = Arc::new(FaultyIo::new());
    let mut db = open(&io, always());
    db.checkpoint().unwrap();
    drop(db);
    let snap = store_path(&dir(), SNAP_FILE);
    let valid = ridl_durable::decode_paged(&io.peek(&snap).unwrap()).unwrap();

    let schema = sample_schema();
    let mut bad = ridl_relational::RelState::with_tables(2);
    let (paper, pp) = (ridl_relational::TableId(0), ridl_relational::TableId(1));
    bad.insert(paper, vec![v("P1"), v("A1")]);
    bad.insert(paper, vec![v("P1"), v("A2")]); // duplicate Paper_Id
    bad.insert(pp, vec![v("A9"), v("S1")]); // no Paper has Program_Id A9
    let (bytes, _, _) = ridl_durable::encode_base(valid.epoch, valid.fingerprint, &bad);
    io.poke(&snap, bytes);

    let Err(err) = Database::open_with(io.clone(), dir(), schema.clone(), always()) else {
        panic!("a constraint-invalid checkpoint must not open");
    };
    let EngineError::ConstraintViolation(violations) = err else {
        panic!("expected a constraint violation, got {err}");
    };
    let named: std::collections::BTreeSet<&str> =
        violations.iter().map(|x| x.constraint.as_str()).collect();
    let want: std::collections::BTreeSet<&str> = [0, 2]
        .iter()
        .map(|i| schema.constraints[*i].name.as_str())
        .collect();
    assert_eq!(named, want, "{violations:?}");
}

/// Every recovery stage is timed, and the stages, which run one after
/// another, sum to at most the whole recovery.
#[test]
fn recovery_stages_sum_to_at_most_the_elapsed_time() {
    let io = Arc::new(FaultyIo::new());
    let mut db = open(&io, always());
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    db.checkpoint().unwrap();
    db.insert("Paper", vec![v("P2"), None]).unwrap();
    drop(db);
    // A torn tail makes recovery rewrite the WAL, so every stage runs.
    io.append(&store_path(&dir(), WAL_FILE), &[0xAB; 7])
        .unwrap();

    let db = open(&io, always());
    let r = db.recovery_report().unwrap();
    assert_eq!(r.units_replayed, 1);
    assert!(r.bytes_discarded > 0);
    let s = r.stages;
    assert!(s.total_ns() > 0, "{s:?}");
    assert!(s.total_ns() <= r.elapsed_ns, "{s:?} vs {}", r.elapsed_ns);
    assert!(r.to_string().contains("stages (ms): read "), "{r}");
}
