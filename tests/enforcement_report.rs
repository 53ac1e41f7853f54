//! Integration tests of the enforcement observability layer: the
//! per-statement [`EnforcementReport`] and the JSONL snapshot export —
//! driven through the public engine API.
//!
//! The obs counters are process-wide, so every test that asserts on
//! snapshot diffs serialises on one lock and uses `>=`
//! where other test threads could add to a counter concurrently.

use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

use ridl_brm::{DataType, Value};
use ridl_durable::store::{store_path, WAL_FILE};
use ridl_durable::{scan_wal, Durability, FaultyIo};
use ridl_engine::{BatchOp, Database, EnforcementReport, Pred, Query, ValidationMode};
use ridl_relational::{Column, RelConstraintKind, RelSchema, Table, TableId};

/// Serialises tests that toggle the global detail gate.
fn obs_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn v(s: &str) -> Option<Value> {
    Some(Value::str(s))
}

/// Paper/Program_Paper pair with a primary key each and one foreign key.
fn sample_db() -> Database {
    let mut s = RelSchema::new("obs_it");
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
    Database::create(s).unwrap()
}

#[test]
fn insert_report_has_mode_strategy_and_delta_size() {
    let _guard = obs_lock().lock().unwrap();
    ridl_obs::set_detail(true);
    let mut db = sample_db();
    assert!(db.last_statement_report().is_none());

    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    let r: &EnforcementReport = db.last_statement_report().unwrap();
    assert_eq!(r.statement, "insert");
    assert_eq!(r.mode, ValidationMode::Incremental);
    assert_eq!(r.strategy, "delta");
    assert_eq!((r.ops, r.net_ops, r.violations), (1, 1, 0));
    assert!(!r.reverted);
    // Detail gate on: the delta path probed the key index at least once
    // and the timing filled in.
    assert!(r.key_probes >= 1, "report: {r:?}");
    assert!(r.duration_ns > 0, "report: {r:?}");
    assert!(r.render().contains("delta"));

    // A rejected insert reports its violation and the revert.
    let err = db.insert("Paper", vec![v("P1"), None]);
    assert!(err.is_err());
    let r = db.last_statement_report().unwrap();
    assert!(r.reverted);
    assert!(r.violations >= 1);
    ridl_obs::set_detail(false);
}

#[test]
fn full_state_mode_is_reported_as_such() {
    let _guard = obs_lock().lock().unwrap();
    let mut db = sample_db();
    db.set_validation_mode(ValidationMode::FullState);
    db.insert("Paper", vec![v("P1"), None]).unwrap();
    let r = db.last_statement_report().unwrap();
    assert_eq!(r.mode, ValidationMode::FullState);
    assert_eq!(r.strategy, "full");
}

#[test]
fn batch_report_nets_inverse_ops() {
    let _guard = obs_lock().lock().unwrap();
    let mut db = sample_db();
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    db.apply_batch([
        BatchOp::delete("Paper", vec![v("P1"), v("A1")]),
        BatchOp::insert("Paper", vec![v("P1"), v("A1")]),
        BatchOp::insert("Paper", vec![v("P2"), None]),
    ])
    .unwrap();
    let r = db.last_statement_report().unwrap();
    assert_eq!(r.statement, "batch");
    assert_eq!(r.ops, 3);
    assert_eq!(r.net_ops, 1, "inverse pair cancels");
}

#[test]
fn bulk_load_reports_aggregate_strategy() {
    let _guard = obs_lock().lock().unwrap();
    let mut db = sample_db();
    let n = db
        .bulk_load([
            (TableId(0), vec![v("P1"), v("A1")]),
            (TableId(1), vec![v("A1"), v("S1")]),
        ])
        .unwrap();
    assert_eq!(n, 2);
    let r = db.last_statement_report().unwrap();
    assert_eq!(r.statement, "bulk_load");
    assert_eq!(r.strategy, "aggregate");
    assert_eq!(r.ops, 2);
    assert!(!r.reverted);

    // A failing load still leaves a report behind, marked reverted.
    assert!(db
        .bulk_load([(TableId(1), vec![v("A9"), v("S9")])])
        .is_err());
    let r = db.last_statement_report().unwrap();
    assert_eq!(r.statement, "bulk_load");
    assert!(r.reverted);
    assert!(r.violations >= 1);
}

/// `commit` validates nothing: each statement of the transaction was
/// checked when it ran (a violating one is rejected at once, leaving the
/// earlier ones in place), and the outermost commit only logs the
/// transaction as one WAL unit.
#[test]
fn commit_validates_nothing_and_logs_one_unit() {
    let _guard = obs_lock().lock().unwrap();
    let io = Arc::new(FaultyIo::new());
    let mut db = Database::open_with(
        io.clone(),
        "/db",
        sample_db().schema().clone(),
        Durability::default(),
    )
    .unwrap();
    let wal_units = || {
        let bytes = io.peek(&store_path(Path::new("/db"), WAL_FILE)).unwrap();
        scan_wal(&bytes).units.len()
    };
    db.insert("Paper", vec![v("P0"), v("A0")]).unwrap();
    let units_before = wal_units();

    db.begin();
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    db.delete_where("Paper", &[Pred::Eq("Paper_Id".into(), Value::str("P0"))])
        .unwrap();
    let err = db.insert("Program_Paper", vec![v("A9"), v("S9")]);
    assert!(err.is_err(), "dangling FK accepted inside a transaction");
    let r = db.last_statement_report().unwrap();
    assert_eq!((r.statement, r.strategy), ("insert", "delta"));
    assert!(r.reverted);
    assert_eq!(
        db.state().rows(TableId(0)).iter().collect::<Vec<_>>(),
        [&vec![v("P1"), v("A1")]],
        "the earlier statements stay in place"
    );
    assert_eq!(wal_units(), units_before, "nothing logged mid-transaction");

    let before = ridl_obs::snapshot();
    db.commit().unwrap();
    let diff = ridl_obs::snapshot().since(&before);
    assert_eq!(diff.counter("engine.statements.full"), 0);
    assert_eq!(diff.counter("engine.statements"), 0);
    assert_eq!(wal_units(), units_before + 1, "one unit per transaction");
}

#[test]
fn per_kind_breakdown_names_the_checked_classes() {
    let _guard = obs_lock().lock().unwrap();
    ridl_obs::set_detail(true);
    let mut db = sample_db();
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    db.insert("Program_Paper", vec![v("A1"), v("S1")]).unwrap();
    let r = db.last_statement_report().unwrap();
    let classes: Vec<&str> = r.per_kind.iter().map(|k| k.class).collect();
    assert!(classes.contains(&"key"), "classes: {classes:?}");
    assert!(classes.contains(&"foreign_key"), "classes: {classes:?}");
    assert!(r.per_kind.iter().all(|k| k.checks > 0));
    ridl_obs::set_detail(false);
}

#[test]
fn snapshot_diff_counts_statements_and_exports_jsonl() {
    let _guard = obs_lock().lock().unwrap();
    let before = ridl_obs::snapshot();
    let mut db = sample_db();
    db.insert("Paper", vec![v("P1"), None]).unwrap();
    db.insert("Paper", vec![v("P2"), None]).unwrap();
    let diff = ridl_obs::snapshot().since(&before);
    assert!(diff.counter("engine.statements") >= 2);
    assert!(diff.counter("engine.statements.delta") >= 2);
    let jsonl = ridl_obs::snapshot_jsonl("it", &diff);
    assert!(
        jsonl.contains("\"metric\":\"it/engine.statements\""),
        "{jsonl}"
    );
    for line in jsonl.lines() {
        assert!(
            line.starts_with("{\"metric\":") && line.ends_with('}'),
            "{line}"
        );
    }
}

/// No-overhead smoke check: with the detail gate off (the default), the
/// per-probe counters and timers never run — reports carry only the
/// always-on statement-level fields.
#[test]
fn detail_gate_defaults_off_and_reports_stay_cheap() {
    let _guard = obs_lock().lock().unwrap();
    assert!(!ridl_obs::detail_enabled(), "detail gate must default off");
    let mut db = sample_db();
    db.insert("Paper", vec![v("P1"), None]).unwrap();
    let r = db.last_statement_report().unwrap();
    assert_eq!((r.ops, r.net_ops), (1, 1), "always-on fields still fill in");
    assert_eq!(r.duration_ns, 0, "timing must be off without the gate");
    assert_eq!((r.key_probes, r.sel_probes), (0, 0));
    assert!(r.per_kind.is_empty(), "per-kind costs are detail-gated");
}

#[test]
fn explain_and_select_agree_with_obs_counting() {
    let _guard = obs_lock().lock().unwrap();
    let before = ridl_obs::snapshot();
    let mut db = sample_db();
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    db.insert("Program_Paper", vec![v("A1"), v("S1")]).unwrap();
    let q = Query::from("Paper")
        .join("Program_Paper", &[("Program_Id", "Program_Id")])
        .filter(Pred::NotNull("Session".into()))
        .select(&["Paper_Id", "Session"]);
    let plan = db.explain(&q).unwrap();
    assert_eq!(plan.rows_out, db.select(&q).unwrap().len());
    assert_eq!(plan.steps.len(), 4);
    let diff = ridl_obs::snapshot().since(&before);
    assert!(diff.counter("engine.explains") >= 1);
}
