//! Experiment **E-CRASH**: the crash-consistency property of the
//! durability subsystem.
//!
//! A random workload (constraint-checked batches, transactions, delete
//! and re-insert pairs, checkpoints, flushes) runs over the fault-injecting
//! in-memory filesystem twice: a dry run counts every syscall the
//! workload performs, then a fault run injects one fault — short write,
//! I/O error, or crash — at a syscall index chosen by the property, the
//! machine "reboots" keeping an arbitrary number of unsynced bytes, and
//! the store is recovered.
//!
//! The property: the recovered state is **exactly one of the states the
//! workload committed** (or, for the one statement whose WAL write
//! failed, the two-generals "uncertain" state that may or may not have
//! reached disk — never a torn mixture), every constraint of the schema
//! holds on it, and a second recovery is a clean no-op. Under
//! `FsyncPolicy::Always` the property tightens: the recovered state is
//! the *last* committed state (or the uncertain one), i.e. a durable
//! commit is never lost.
//!
//! Workloads: the mapped CRIS case-study population and mapped synthetic
//! schemas (keys, FKs, frequencies, subset/exclusion/total-union views).

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use ridl_brm::Value;
use ridl_core::state_map::map_population;
use ridl_core::{MappingOptions, Workbench};
use ridl_durable::{FaultKind, FaultPlan, FaultyIo};
use ridl_engine::{BatchOp, Database, Durability, EngineError, FsyncPolicy};
use ridl_obs::json::Json;
use ridl_relational::{validate, RelSchema, RelState, Row};
use ridl_workloads::cris;
use ridl_workloads::scenario::{self, MappedPopulation};
use ridl_workloads::synth::GenParams;

// ---- cached scenario artefacts (built once, cloned per proptest case) ----

fn cris_artifacts() -> &'static (RelSchema, RelState) {
    static CACHE: OnceLock<(RelSchema, RelState)> = OnceLock::new();
    CACHE.get_or_init(|| {
        let schema = cris::schema();
        let pop = cris::population(&schema);
        let wb = Workbench::new(schema);
        let out = wb.map(&MappingOptions::new()).expect("CRIS maps");
        let st = map_population(&out.schema, &out, &pop).expect("state map");
        (out.rel, st)
    })
}

fn synth_artifacts() -> &'static Vec<(RelSchema, RelState)> {
    static CACHE: OnceLock<Vec<(RelSchema, RelState)>> = OnceLock::new();
    CACHE.get_or_init(|| {
        (0..2u64)
            .map(|seed| {
                let params = GenParams {
                    seed: 1989 + seed,
                    nolots: 4,
                    attrs_per_nolot: (1, 3),
                    mn_facts: 2,
                    sublinks: 1,
                    card_prob: 0.5,
                    ..GenParams::default()
                };
                let MappedPopulation { schema, state } = scenario::mapped_population(&params, 3);
                (schema, state)
            })
            .collect()
    })
}

fn dir() -> PathBuf {
    PathBuf::from("/db")
}

// ---- random workload over live value pools (batch_equivalence idiom) ----

/// A value pool per (table, column): everything currently in the column
/// (plus NULL where allowed), so random rows sometimes commit and
/// sometimes trip keys/FKs — both paths must be crash-safe.
fn column_pools(db: &Database) -> Vec<Vec<Vec<Option<Value>>>> {
    let schema = db.schema();
    let state = db.state();
    schema
        .tables()
        .map(|(tid, t)| {
            (0..t.arity())
                .map(|c| {
                    let mut pool: Vec<Option<Value>> = state
                        .rows(tid)
                        .iter()
                        .map(|r| r[c].clone())
                        .collect::<std::collections::BTreeSet<_>>()
                        .into_iter()
                        .collect();
                    if t.column(c as u32).nullable {
                        pool.push(None);
                    }
                    pool
                })
                .collect()
        })
        .collect()
}

fn random_op(
    db: &Database,
    pools: &[Vec<Vec<Option<Value>>>],
    rng: &mut rand::rngs::StdRng,
) -> BatchOp {
    let tables: Vec<(usize, String)> = db
        .schema()
        .tables()
        .map(|(tid, t)| (tid.index(), t.name.clone()))
        .collect();
    let (ti, tname) = tables[rng.gen_range(0..tables.len())].clone();
    let arity = pools[ti].len();
    let from_pools = |rng: &mut rand::rngs::StdRng| -> Row {
        (0..arity)
            .map(|c| {
                let pool = &pools[ti][c];
                if pool.is_empty() {
                    None
                } else {
                    pool[rng.gen_range(0..pool.len())].clone()
                }
            })
            .collect()
    };
    let live = db.state().rows(ridl_relational::TableId(ti as u32));
    if rng.gen_bool(0.5) {
        BatchOp::insert(tname, from_pools(rng))
    } else if !live.is_empty() && rng.gen_bool(0.5) {
        let pick = rng.gen_range(0..live.len());
        BatchOp::delete(tname, live.iter().nth(pick).unwrap().clone())
    } else {
        BatchOp::delete(tname, from_pools(rng))
    }
}

/// A live `(table name, row)` pick from the shadow state, if any.
fn random_live_row(db: &Database, rng: &mut rand::rngs::StdRng) -> Option<(String, Row)> {
    let lives: Vec<(String, Row)> = db
        .schema()
        .tables()
        .flat_map(|(tid, t)| {
            db.state()
                .rows(tid)
                .iter()
                .map(move |r| (t.name.clone(), r.clone()))
        })
        .collect();
    if lives.is_empty() {
        return None;
    }
    Some(lives[rng.gen_range(0..lives.len())].clone())
}

// ---- the workload driver ----

/// What one workload run observed: the syscall count right after the
/// seed checkpoint (the fault window starts there), every state that
/// reached a durable commit point, and — when a statement died on a WAL
/// I/O error — the state that statement *would* have committed, which
/// may or may not have reached disk (two generals).
struct Exec {
    base_ops: u64,
    committed: Vec<RelState>,
    uncertain: Option<RelState>,
}

/// Drives `n_actions` pseudo-random actions against a durable database
/// over `io`, mirroring every call on a pure in-memory shadow engine.
/// The shadow computes the would-be state of a statement whose WAL write
/// fails, and cross-checks that durable and in-memory enforcement agree
/// verdict-for-verdict and state-for-state.
///
/// Stops at the first durability error: `Io` means the statement's WAL
/// bytes may or may not be durable (uncertainty recorded when the
/// statement itself was valid); `WalPoisoned` means the engine refused
/// to touch the log at all, so there is nothing uncertain.
fn drive(
    io: &Arc<FaultyIo>,
    art: &(RelSchema, RelState),
    cfg: Durability,
    seed: u64,
    n_actions: usize,
) -> Exec {
    let (schema, state) = art;
    let mut db = Database::open_with(io.clone(), dir(), schema.clone(), cfg)
        .expect("open happens before the fault window");
    let mut shadow = Database::create(schema.clone()).unwrap();
    let rows = scenario::rows_of(schema, state);
    db.bulk_load(rows.iter().cloned())
        .expect("seed happens before the fault window");
    shadow.bulk_load(rows.iter().cloned()).unwrap();
    let base_ops = io.op_count();
    let mut committed = vec![db.state().clone()];
    let mut uncertain = None;
    let pools = column_pools(&shadow);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    // One durable statement already mirrored on the shadow. `Some(true)`:
    // committed; `Some(false)`: rejected by a constraint (both engines);
    // `None`: a durability error ended the run (uncertainty recorded).
    macro_rules! mirrored {
        ($shadow_res:expr, $durable_res:expr) => {{
            let rs = $shadow_res;
            match $durable_res {
                Ok(_) => {
                    assert!(rs.is_ok(), "durable committed what the shadow rejected");
                    assert_eq!(db.state(), shadow.state(), "engines diverged");
                    committed.push(db.state().clone());
                    Some(true)
                }
                Err(EngineError::Io(_)) => {
                    // The WAL write failed mid-statement: if the statement
                    // was valid, its bytes may still be durable.
                    if rs.is_ok() {
                        uncertain = Some(shadow.state().clone());
                    }
                    None
                }
                Err(EngineError::WalPoisoned) => None,
                Err(e) => {
                    assert!(
                        rs.is_err(),
                        "durable rejected ({e}) what the shadow committed"
                    );
                    assert_eq!(db.state(), shadow.state(), "rejection not atomic");
                    Some(false)
                }
            }
        }};
    }

    for _ in 0..n_actions {
        match rng.gen_range(0..8u32) {
            // Constraint-checked batches: the bread-and-butter commit unit.
            0..=2 => {
                let len = rng.gen_range(1..6);
                let batch: Vec<BatchOp> = (0..len)
                    .map(|_| random_op(&shadow, &pools, &mut rng))
                    .collect();
                if mirrored!(shadow.apply_batch(batch.clone()), db.apply_batch(batch)).is_none() {
                    return Exec {
                        base_ops,
                        committed,
                        uncertain,
                    };
                }
            }
            // A transaction: nothing reaches the WAL until the outermost
            // commit, which logs the whole transaction as one unit.
            3 => {
                shadow.begin();
                db.begin();
                for _ in 0..2 {
                    let len = rng.gen_range(1..4);
                    let batch: Vec<BatchOp> = (0..len)
                        .map(|_| random_op(&shadow, &pools, &mut rng))
                        .collect();
                    let rs = shadow.apply_batch(batch.clone());
                    match db.apply_batch(batch) {
                        Ok(_) => {
                            assert!(rs.is_ok());
                            assert_eq!(db.state(), shadow.state());
                        }
                        Err(EngineError::Io(_)) | Err(EngineError::WalPoisoned) => {
                            return Exec {
                                base_ops,
                                committed,
                                uncertain,
                            };
                        }
                        Err(_) => assert!(rs.is_err()),
                    }
                }
                if rng.gen_bool(0.3) {
                    shadow.rollback().unwrap();
                    db.rollback().unwrap();
                    assert_eq!(db.state(), shadow.state());
                } else if mirrored!(shadow.commit(), db.commit()).is_none() {
                    return Exec {
                        base_ops,
                        committed,
                        uncertain,
                    };
                }
            }
            // Delete a live row as a batch, then put it back with a
            // checked insert: two units, the second restoring the state
            // before the first.
            4 => {
                let Some((tname, row)) = random_live_row(&shadow, &mut rng) else {
                    continue;
                };
                let del = [BatchOp::delete(tname.clone(), row.clone())];
                match mirrored!(shadow.apply_batch(del.clone()), db.apply_batch(del)) {
                    None => {
                        return Exec {
                            base_ops,
                            committed,
                            uncertain,
                        }
                    }
                    Some(false) => continue, // the row is load-bearing
                    Some(true) => {}
                }
                if mirrored!(shadow.insert(&tname, row.clone()), db.insert(&tname, row)).is_none() {
                    return Exec {
                        base_ops,
                        committed,
                        uncertain,
                    };
                }
            }
            // Manual checkpoint: snapshot + WAL truncation mid-workload.
            5 => match db.checkpoint() {
                Ok(()) => {}
                Err(EngineError::Io(_)) | Err(EngineError::WalPoisoned) => {
                    return Exec {
                        base_ops,
                        committed,
                        uncertain,
                    };
                }
                Err(e) => panic!("unexpected checkpoint error: {e}"),
            },
            // Group-commit flush: forces deferred fsyncs to disk.
            _ => {
                if db.flush_wal().is_err() {
                    return Exec {
                        base_ops,
                        committed,
                        uncertain,
                    };
                }
            }
        }
    }
    Exec {
        base_ops,
        committed,
        uncertain,
    }
}

// ---- the property ----

const POLICIES: [FsyncPolicy; 3] = [
    FsyncPolicy::Always,
    // A window the test can never exceed: every commit lands in the
    // volatile tail until an explicit flush or checkpoint. (A finite
    // window would make the syscall sequence depend on wall-clock time
    // and the dry run's fault-point count nondeterministic.)
    FsyncPolicy::GroupCommit {
        window_micros: u64::MAX,
    },
    FsyncPolicy::Never,
];

const AUTO_CHECKPOINT: [Option<u64>; 3] = [None, Some(1 << 12), Some(1 << 20)];

const KINDS: [FaultKind; 3] = [FaultKind::ShortWrite, FaultKind::IoError, FaultKind::Crash];

#[allow(clippy::too_many_arguments)]
fn crash_case(
    art: &(RelSchema, RelState),
    seed: u64,
    fault_frac: u64,
    kind_ix: usize,
    policy_ix: usize,
    ckpt_ix: usize,
    keep_unsynced: usize,
) -> Result<(), TestCaseError> {
    let cfg = Durability {
        fsync: POLICIES[policy_ix],
        checkpoint_every_bytes: AUTO_CHECKPOINT[ckpt_ix],
    };
    let (schema, _) = art;

    // Dry run: same workload, no faults — counts the reachable syscalls.
    let dry_io = Arc::new(FaultyIo::new());
    let dry = drive(&dry_io, art, cfg, seed, 10);
    assert!(dry.uncertain.is_none(), "dry run saw a fault");
    let total = dry_io.op_count();

    // Fault run: one injected fault somewhere in the workload's window.
    let io = Arc::new(FaultyIo::new());
    let span = (total - dry.base_ops).max(1);
    let at_op = dry.base_ops + fault_frac % span;
    io.set_plan(Some(FaultPlan {
        at_op,
        kind: KINDS[kind_ix],
    }));
    let ex = drive(&io, art, cfg, seed, 10);

    // Reboot, losing all but `keep_unsynced` bytes of every volatile tail.
    io.crash(keep_unsynced);

    // Offline inspection of the post-crash store, before recovery runs
    // (and repairs anything): the read-only view `ridl status` serves
    // must agree with what recovery is about to find.
    let status = ridl_durable::inspect_store(io.as_ref(), &dir())
        .map_err(|e| TestCaseError::fail(format!("offline inspection failed: {e}")))?;

    let recovered = Database::open_with(io.clone(), dir(), schema.clone(), cfg);
    let recovered = match recovered {
        Ok(db) => db,
        Err(e) => return Err(TestCaseError::fail(format!("recovery failed: {e}"))),
    };
    let rstate = recovered.state().clone();

    // The inspector's contract: `corrupt` exactly when recovery would
    // refuse the store — and recovery just succeeded. The chain head,
    // delta count, and WAL scan must match the recovery report.
    let rep = recovered.recovery_report().unwrap().clone();
    prop_assert!(
        status.verdict() != "corrupt",
        "inspector called a recoverable store corrupt: {:?}",
        status.corrupt
    );
    prop_assert_eq!(
        status.epoch,
        rep.checkpoint.map(|(e, _)| e),
        "inspector chain-head epoch disagrees with recovery"
    );
    prop_assert_eq!(
        status.chain_len,
        rep.deltas_merged,
        "inspector delta-chain length disagrees with recovery"
    );
    prop_assert_eq!(
        status.wal.stale,
        rep.stale_wal,
        "inspector WAL staleness disagrees with recovery"
    );
    if !rep.stale_wal && !rep.replay_rejected {
        prop_assert_eq!(
            status.wal.units,
            rep.units_replayed,
            "inspector committed-unit count disagrees with recovery replay"
        );
        prop_assert_eq!(
            status.wal.torn_bytes,
            rep.bytes_discarded,
            "inspector torn-tail bytes disagree with recovery discard"
        );
    }

    // The property: exactly a committed state, or the one uncertain one.
    let member =
        ex.committed.iter().rev().any(|s| s == &rstate) || ex.uncertain.as_ref() == Some(&rstate);
    prop_assert!(
        member,
        "recovered state is not a committed prefix (fault at op {at_op}/{total}, \
         kind {:?}, policy {policy_ix}, report: {})",
        KINDS[kind_ix],
        recovered.recovery_report().unwrap(),
    );

    // Every generated constraint holds on the recovered state.
    prop_assert!(
        validate(schema, &rstate).is_empty(),
        "recovered state violates constraints"
    );

    // Always-fsync tightens the guarantee: a committed statement is never
    // lost — recovery lands on the *last* committed state, or on the one
    // statement whose commit outcome the crash left uncertain.
    if policy_ix == 0 {
        let tight = Some(&rstate) == ex.committed.last() || ex.uncertain.as_ref() == Some(&rstate);
        prop_assert!(
            tight,
            "FsyncPolicy::Always lost a committed statement (fault at op \
             {at_op}/{total}, kind {:?})",
            KINDS[kind_ix],
        );
    }

    // Recovery is idempotent: a second open finds a clean store and the
    // same state.
    drop(recovered);
    let again = Database::open_with(io.clone(), dir(), schema.clone(), cfg)
        .map_err(|e| TestCaseError::fail(format!("re-recovery failed: {e}")))?;
    prop_assert_eq!(again.state(), &rstate, "second recovery changed the state");
    let r = again.recovery_report().unwrap();
    prop_assert_eq!(r.bytes_discarded, 0, "first recovery left a dirty log");
    prop_assert!(!r.replay_rejected, "first recovery left rejected units");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Crash consistency over the mapped CRIS case-study population.
    #[test]
    fn cris_recovers_to_a_committed_prefix(
        seed in 0u64..1u64 << 32,
        fault_frac in 0u64..1u64 << 32,
        kind_ix in 0usize..3,
        policy_ix in 0usize..3,
        ckpt_ix in 0usize..3,
        keep_unsynced in 0usize..96,
    ) {
        crash_case(
            cris_artifacts(),
            seed,
            fault_frac,
            kind_ix,
            policy_ix,
            ckpt_ix,
            keep_unsynced,
        )?;
    }

    /// Crash consistency over mapped synthetic schemas whose constraint
    /// mix (keys, FKs, frequencies, subset/exclusion/total-union views)
    /// varies per seed.
    #[test]
    fn synth_recovers_to_a_committed_prefix(
        schema_ix in 0usize..2,
        seed in 0u64..1u64 << 32,
        fault_frac in 0u64..1u64 << 32,
        kind_ix in 0usize..3,
        policy_ix in 0usize..3,
        ckpt_ix in 0usize..3,
        keep_unsynced in 0usize..96,
    ) {
        crash_case(
            &synth_artifacts()[schema_ix],
            seed,
            fault_frac,
            kind_ix,
            policy_ix,
            ckpt_ix,
            keep_unsynced,
        )?;
    }
}

// ---- targeted crash points inside the checkpoint rename sequences ----
//
// The property suite above hits checkpoint crashes probabilistically;
// these sweeps hit *every* syscall of the base+delta rename sequences
// deterministically and pin the "exactly one epoch side" guarantee.

fn always_no_auto() -> Durability {
    Durability {
        fsync: FsyncPolicy::Always,
        checkpoint_every_bytes: None,
    }
}

/// Commits one deterministic delete: walks live rows under a fixed seed
/// until one passes the constraint check. Deterministic across runs, so
/// syscall numbering in fault sweeps lines up with the dry run.
fn commit_one_delete(db: &mut Database) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    for _ in 0..64 {
        let (tname, row) = random_live_row(db, &mut rng).expect("live row");
        if db.apply_batch([BatchOp::delete(tname, row)]).is_ok() {
            return;
        }
    }
    panic!("no deletable row found in 64 draws");
}

/// Seeds a durable CRIS store (`bulk_load` writes the v2 base and
/// freezes the extent geometry), then commits one deterministic mutation
/// so the next checkpoint has a small dirty set.
fn seeded_db(io: &Arc<FaultyIo>) -> Database {
    let (schema, state) = cris_artifacts();
    let mut db =
        Database::open_with(io.clone(), dir(), schema.clone(), always_no_auto()).expect("open");
    let rows = scenario::rows_of(schema, state);
    db.bulk_load(rows.iter().cloned()).expect("seed load");
    commit_one_delete(&mut db);
    db
}

#[test]
fn crash_at_every_syscall_of_a_delta_checkpoint_recovers_one_epoch_side() {
    // Dry run: locate the delta checkpoint's syscall window.
    let dry = Arc::new(FaultyIo::new());
    let mut db = seeded_db(&dry);
    let want = db.state().clone();
    let start = dry.op_count();
    db.checkpoint().unwrap();
    assert_eq!(
        db.last_checkpoint_stats().unwrap().kind,
        ridl_durable::CheckpointKind::Delta,
        "the swept checkpoint must be an incremental delta"
    );
    let end = dry.op_count();
    assert!(end > start);
    drop(db);

    let (schema, _) = cris_artifacts();
    for at in start..end {
        let io = Arc::new(FaultyIo::new());
        let mut db = seeded_db(&io);
        io.set_plan(Some(FaultPlan {
            at_op: at,
            kind: FaultKind::Crash,
        }));
        let _ = db.checkpoint(); // dies somewhere inside the sequence
        drop(db);
        io.crash(0); // reboot keeping nothing unsynced

        let db2 = Database::open_with(io.clone(), dir(), schema.clone(), always_no_auto())
            .unwrap_or_else(|e| panic!("crash at op {at}: recovery failed: {e}"));
        assert_eq!(db2.state(), &want, "crash at op {at}: state differs");
        let r = db2.recovery_report().unwrap();
        // Exactly one epoch side: the pre-checkpoint chain replaying the
        // WAL unit, or the post-checkpoint chain with the unit absorbed
        // (delta durable, WAL stale/reset). Never a torn mixture.
        let old_side = r.deltas_merged == 0 && r.units_replayed == 1;
        let new_side = r.deltas_merged == 1 && r.units_replayed == 0;
        assert!(
            old_side || new_side,
            "crash at op {at}: mixed epoch sides:\n{r}"
        );
        assert!(validate(schema, db2.state()).is_empty());

        // Second recovery: clean, idempotent.
        drop(db2);
        let db3 = Database::open_with(io.clone(), dir(), schema.clone(), always_no_auto()).unwrap();
        assert_eq!(db3.state(), &want, "crash at op {at}: second recovery");
        assert_eq!(db3.recovery_report().unwrap().bytes_discarded, 0);
    }
}

// ---- the offline inspector CLI against a real on-disk crash store ----

/// The contract behind `ridl status --json`: on a store a crash left
/// behind (base + delta chain + WAL-only commit), the offline inspector's
/// numbers must agree field-for-field with the `RecoveryReport` the
/// engine produces when it actually reopens the store.
#[test]
fn ridl_status_json_agrees_with_the_recovery_report() {
    let (schema, state) = cris_artifacts();
    let dir = std::env::temp_dir().join(format!("ridl-crash-status-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut db = Database::open_with(
            Arc::new(ridl_engine::StdIo),
            &dir,
            schema.clone(),
            always_no_auto(),
        )
        .unwrap();
        let rows = scenario::rows_of(schema, state);
        db.bulk_load(rows.iter().cloned()).unwrap();
        db.checkpoint().unwrap();
        commit_one_delete(&mut db);
        db.checkpoint().unwrap();
        assert_eq!(
            db.last_checkpoint_stats().unwrap().kind,
            ridl_durable::CheckpointKind::Delta,
            "one dirty extent makes the chain grow by a delta"
        );
        commit_one_delete(&mut db);
        // Dropped without a checkpoint: the second commit lives only in
        // the WAL, on top of the base + delta chain — the shape a crash
        // leaves behind.
    }

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_ridl"))
        .args(["status", dir.to_str().unwrap(), "--json"])
        .output()
        .expect("ridl status runs");
    assert!(
        out.status.success(),
        "ridl status failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8(out.stdout).unwrap();

    let db = Database::open_with(
        Arc::new(ridl_engine::StdIo),
        &dir,
        schema.clone(),
        always_no_auto(),
    )
    .unwrap();
    let rep = db.recovery_report().unwrap().clone();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    let status = ridl_obs::json::parse(&json).expect("ridl status --json is JSON");
    let field = |path: &[&str]| {
        path.iter()
            .try_fold(&status, |v, key| v.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("no number at {path:?} in {json}"))
    };
    // Pending committed units are normal operation, not damage.
    assert_eq!(
        status.get("verdict").and_then(Json::as_str),
        Some("clean"),
        "{json}"
    );
    let (epoch, _) = rep.checkpoint.expect("store has a checkpoint");
    assert_eq!(field(&["epoch"]), epoch, "chain-head epoch");
    assert_eq!(
        field(&["chain", "deltas"]),
        rep.deltas_merged as u64,
        "delta-chain length"
    );
    assert_eq!(
        field(&["wal", "units"]),
        rep.units_replayed as u64,
        "committed WAL units"
    );
    assert_eq!(
        field(&["wal", "torn_bytes"]),
        rep.bytes_discarded,
        "torn-tail bytes"
    );
    assert!(rep.deltas_merged >= 1, "recovery merged the delta chain");
    assert_eq!(rep.units_replayed, 1, "the WAL-only commit replayed");
}
