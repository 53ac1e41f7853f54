//! Deploying the mapped store, and the crash check every workload ends
//! with.

use std::path::Path;
use std::sync::Arc;

use ridl_bench::harness::durability;
use ridl_core::{MappingOptions, Workbench};
use ridl_engine::{
    CheckpointKind, CheckpointStats, Database, EngineError, FsyncPolicy, RecoveryReport, StdIo,
};
use ridl_relational::{RelSchema, RelState, Row, TableId};
use ridl_sqlgen::DialectKind;
use ridl_workloads::macrobench::{self, MacroParams, TrafficOp};
use ridl_workloads::scenario;

use crate::trace::{self, timed, Blocks};
use crate::traffic::{self, Tally, Traffic};

/// Size accounting of the DDL a run generated.
#[derive(Clone, Copy, Debug, Default)]
pub struct DdlVolume {
    /// Bytes of DDL text.
    pub bytes: u64,
    /// Tables those bytes define.
    pub tables: u64,
}

impl DdlVolume {
    /// Counts one generated definition.
    pub fn add(&mut self, text_bytes: usize, tables: usize) {
        self.bytes += text_bytes as u64;
        self.tables += tables as u64;
    }

    /// KiB of DDL per generated table.
    pub fn kib_per_table(&self) -> f64 {
        self.bytes as f64 / 1024.0 / self.tables.max(1) as f64
    }
}

/// The engine workloads' common input: the industrial schema run through
/// the design loop once (RIDL-A, RIDL-M, map report, SQL2 DDL) and its
/// calibrated population.
pub struct Deployment {
    /// The mapped relational schema.
    pub schema: RelSchema,
    /// The population, flattened for `bulk_load`.
    pub rows: Vec<(TableId, Row)>,
}

/// Builds the [`Deployment`] for `seed` at roughly `target_rows` rows.
pub fn deploy(seed: u64, target_rows: usize, ddl: &mut DdlVolume) -> Result<Deployment, String> {
    let p = MacroParams { seed, target_rows };
    let synth = macrobench::synthesize(&p);
    let wb = trace::call("bench.analyzer.analyze", || {
        Workbench::new(synth.schema.clone())
    });
    if !wb.analysis().is_mappable() {
        return Err(format!("industrial schema of seed {seed} is not mappable"));
    }
    let out = trace::call("bench.core.map", || wb.map(&MappingOptions::new()))
        .map_err(|e| format!("mapping seed {seed}: {e}"))?;
    trace::call("bench.core.map_report", || wb.map_report(&out));
    let sql = trace::call("bench.sqlgen.ddl", || {
        ridl_sqlgen::generate_for(&out.rel, DialectKind::Sql2)
    });
    ddl.add(sql.text.len(), out.table_count());
    let state = trace::call("bench.workloads.populate", || {
        macrobench::populate(&synth, &out, &p)
    });
    let rows = scenario::rows_of(&out.rel, &state);
    Ok(Deployment {
        schema: out.rel,
        rows,
    })
}

/// Opens the store in `dir`, with no auto-checkpoints: every workload
/// decides when to checkpoint.
fn open_store(dir: &Path, schema: &RelSchema, fsync: FsyncPolicy) -> Result<Database, EngineError> {
    Database::open_with(Arc::new(StdIo), dir, schema.clone(), durability(fsync))
}

/// Opens a fresh store in `dir`.
pub fn create(dir: &Path, schema: &RelSchema, fsync: FsyncPolicy) -> Result<Database, String> {
    trace::call("bench.durable.open", || open_store(dir, schema, fsync))
        .map_err(|e| format!("open store {}: {e}", dir.display()))
}

/// Bulk-loads `rows` into `db`.
pub fn bulk_load(db: &mut Database, rows: &[(TableId, Row)]) -> Result<(), String> {
    trace::call("bench.engine.bulk_load", || {
        db.bulk_load(rows.iter().cloned())
    })
    .map(drop)
    .map_err(|e| format!("bulk_load rejected the population: {e}"))
}

/// Takes a full checkpoint; returns its wall time and stats.
pub fn checkpoint_full(db: &mut Database) -> Result<(u64, CheckpointStats), String> {
    let (r, ns) = timed("bench.durable.checkpoint_full", || db.checkpoint_full());
    r.map_err(|e| format!("checkpoint_full: {e}"))?;
    let stats = db
        .last_checkpoint_stats()
        .ok_or("checkpoint_full left no stats")?;
    Ok((ns, stats))
}

/// A loaded, probed and checkpointed store: the state every engine
/// workload's measured section starts from.
pub struct Store {
    /// The engine.
    pub db: Database,
    /// The probed traffic.
    pub traffic: Traffic,
    /// Rows scanned per row returned by the targets' point queries
    /// (from `Database::explain`): `(scanned, returned)`.
    pub explain_rows: (u64, u64),
}

/// Opens a fresh store in `dir`, bulk-loads `dep`, builds the traffic
/// over `targets` targets, and takes a full checkpoint so the measured
/// section starts with an empty WAL.
pub fn load_store(
    dep: &Deployment,
    dir: &Path,
    fsync: FsyncPolicy,
    targets: usize,
    tally: &mut Tally,
) -> Result<Store, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut db = create(dir, &dep.schema, fsync)?;
    bulk_load(&mut db, &dep.rows)?;
    let traffic = traffic::build(&mut db, targets, tally)?;
    let mut explain_rows = (0, 0);
    for q in &traffic.queries {
        let ex = trace::call("bench.query.explain", || db.explain(q))
            .map_err(|e| format!("explain {}: {e}", q.table))?;
        explain_rows.0 += ex
            .steps
            .iter()
            .filter(|s| s.op == "scan")
            .map(|s| s.rows_out as u64)
            .sum::<u64>();
        explain_rows.1 += ex.rows_out as u64;
    }
    checkpoint_full(&mut db)?;
    Ok(Store {
        db,
        traffic,
        explain_rows,
    })
}

/// What the crash check measured.
pub struct Recovered {
    /// The incremental checkpoint's stats.
    pub delta: CheckpointStats,
    /// Wall time of the reopen (recovery).
    pub recover_ns: u64,
    /// The recovery report.
    pub report: RecoveryReport,
    /// `create` + `load_state` of the recovered state, when the oracle ran.
    pub load_state_ns: Option<u64>,
}

/// Copies the store's files (it is a flat directory) to `to`.
fn copy_store(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Runs `f`, with `clock` stopped if there is one.
fn untimed<T>(clock: &mut Option<&mut Blocks>, f: impl FnOnce() -> T) -> T {
    match clock {
        Some(c) => c.untimed(f),
        None => f(),
    }
}

/// The crash check: runs `before`, takes an incremental checkpoint, runs
/// `after`, flushes the WAL and drops the handle without a clean
/// shutdown, then reopens a copy of the store. The recovered state must
/// equal the state at the crash, recovery must replay exactly the units
/// `after` committed, and with `oracle` the recovered state must load
/// into a fresh engine (timed, as `engine.load_state`) and pass the full
/// validator. Inside a measured section, `clock` is stopped while the
/// check copies and compares. Failed expectations count in `tally`; I/O
/// errors abort.
#[allow(clippy::too_many_arguments)]
pub fn crash_check(
    mut db: Database,
    dir: &Path,
    fsync: FsyncPolicy,
    traffic: &Traffic,
    before: &[TrafficOp],
    after: &[TrafficOp],
    oracle: bool,
    mut clock: Option<&mut Blocks>,
    tally: &mut Tally,
) -> Result<Recovered, String> {
    for &op in before {
        traffic::execute(&mut db, traffic, op, tally);
    }
    let r = trace::call("bench.durable.checkpoint", || db.checkpoint());
    r.map_err(|e| format!("delta checkpoint: {e}"))?;
    let delta = db
        .last_checkpoint_stats()
        .ok_or("checkpoint left no stats")?;
    tally.check(delta.kind == CheckpointKind::Delta, || {
        format!(
            "incremental checkpoint wrote a full base ({} of {} extents dirty)",
            delta.extents_written, delta.extents_total
        )
    });
    let units_before = tally.units;
    for &op in after {
        traffic::execute(&mut db, traffic, op, tally);
    }
    let units = tally.units - units_before;
    let r = trace::call("bench.durable.flush", || db.flush_wal());
    r.map_err(|e| format!("flush_wal: {e}"))?;
    let (schema, at_crash) = untimed(&mut clock, || (db.schema().clone(), db.state().clone()));
    trace::call("bench.engine.drop", || drop(db));

    let copy = dir.with_extension("copy");
    untimed(&mut clock, || copy_store(dir, &copy)).map_err(|e| format!("copy store: {e}"))?;
    let (db, recover_ns) = timed("bench.durable.recover", || {
        open_store(&copy, &schema, fsync)
    });
    let db = db.map_err(|e| format!("recover store {}: {e}", copy.display()))?;
    let (report, load_state_ns) = untimed(&mut clock, || {
        let checked = check_recovered(db, &at_crash, units, oracle, tally);
        let _ = std::fs::remove_dir_all(&copy);
        checked
    })?;
    Ok(Recovered {
        delta,
        recover_ns,
        report,
        load_state_ns,
    })
}

/// The recovered store's checks: the replay count, the state, and with
/// `oracle` a fresh load and the full validator. Returns the recovery
/// report and the timed `load_state`.
fn check_recovered(
    db: Database,
    at_crash: &RelState,
    units: u64,
    oracle: bool,
    tally: &mut Tally,
) -> Result<(RecoveryReport, Option<u64>), String> {
    let report = db
        .recovery_report()
        .ok_or("durable reopen produced no recovery report")?
        .clone();
    tally.check(report.units_replayed as u64 == units, || {
        format!(
            "recovery replayed {} units, expected the {units} committed after the checkpoint",
            report.units_replayed
        )
    });
    tally.check(db.state() == at_crash, || {
        "recovered state differs from the state at the crash".to_owned()
    });
    if !oracle {
        return Ok((report, None));
    }
    let schema = db.schema();
    let state = db.state().clone();
    let (r, ns) = timed("bench.engine.load_state", || {
        Database::create(schema.clone()).and_then(|mut fresh| fresh.load_state(state))
    });
    tally.check(r.is_ok(), || {
        format!("recovered state does not load: {r:?}")
    });
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let violations = trace::call("bench.relational.validate", || {
        ridl_relational::validate_with_workers(schema, db.state(), workers)
    });
    tally.check(violations.is_empty(), || {
        format!("recovered state violates {} constraints", violations.len())
    });
    Ok((report, Some(ns)))
}
