//! Experiment **E-INC**: incremental constraint enforcement.
//!
//! Two claims are tested here. First, *atomicity*: a rejected mutation
//! leaves the database — state **and** maintained constraint indexes —
//! byte-identical to before, because the engine rolls back through its
//! undo log rather than restoring a snapshot. Second, *equivalence*: the
//! delta validator accepts/rejects exactly the same mutations as a full
//! state re-validation, checked on random mutation sequences against the
//! relational schema mapped from the CRIS conference case study.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use ridl_brm::{DataType, Value};
use ridl_core::state_map::map_population;
use ridl_core::{MappingOptions, Workbench};
use ridl_engine::{BatchOp, Database, Pred, ValidationMode};
use ridl_relational::{Column, RelConstraintKind, RelSchema, Row, Table};
use ridl_workloads::cris;

fn v(s: &str) -> Option<Value> {
    Some(Value::str(s))
}

/// Two tables with a PK, an FK and a frequency bound — enough to make
/// every mutation kind fail on demand.
fn small_db() -> Database {
    let mut s = RelSchema::new("inc");
    let d = s.domain("D", DataType::Char(8));
    let paper = s.add_table(Table::new(
        "Paper",
        vec![Column::not_null("Id", d), Column::nullable("Program_Id", d)],
    ));
    let pp = s.add_table(Table::new(
        "Program_Paper",
        vec![Column::not_null("Program_Id", d)],
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
        table: paper,
        cols: vec![1],
        ref_table: pp,
        ref_cols: vec![0],
    });
    let mut db = Database::create(s).unwrap();
    db.insert("Program_Paper", vec![v("A1")]).unwrap();
    db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
    db.insert("Paper", vec![v("P2"), None]).unwrap();
    db
}

/// Runs a failing mutation and asserts the database is untouched, indexes
/// included.
fn assert_rejected_and_untouched(db: &mut Database, act: impl FnOnce(&mut Database) -> bool) {
    let state_before = db.state().clone();
    let indexes_before = db.indexes().clone();
    let rejected = act(db);
    assert!(rejected, "mutation unexpectedly succeeded");
    assert_eq!(
        db.state(),
        &state_before,
        "state changed by failed mutation"
    );
    assert_eq!(
        db.indexes(),
        &indexes_before,
        "indexes changed by failed mutation"
    );
}

#[test]
fn failed_insert_leaves_database_byte_identical() {
    let mut db = small_db();
    // Duplicate primary key (different row, same key).
    assert_rejected_and_untouched(&mut db, |db| {
        db.insert("Paper", vec![v("P1"), None]).is_err()
    });
    // Dangling foreign key.
    assert_rejected_and_untouched(&mut db, |db| {
        db.insert("Paper", vec![v("P3"), v("NOPE")]).is_err()
    });
    // NOT NULL violation.
    assert_rejected_and_untouched(&mut db, |db| db.insert("Paper", vec![None, None]).is_err());
}

#[test]
fn failed_update_where_leaves_database_byte_identical() {
    let mut db = small_db();
    // Collapsing both papers onto one key duplicates the PK.
    assert_rejected_and_untouched(&mut db, |db| {
        db.update_where("Paper", &[], &[("Id", v("SAME"))]).is_err()
    });
    // Pointing a paper at a nonexistent program dangles the FK.
    assert_rejected_and_untouched(&mut db, |db| {
        db.update_where(
            "Paper",
            &[Pred::Eq("Id".into(), Value::str("P2"))],
            &[("Program_Id", v("NOPE"))],
        )
        .is_err()
    });
}

#[test]
fn failed_delete_where_leaves_database_byte_identical() {
    let mut db = small_db();
    // Deleting the referenced program orphans P1's foreign key.
    assert_rejected_and_untouched(&mut db, |db| {
        db.delete_where(
            "Program_Paper",
            &[Pred::Eq("Program_Id".into(), Value::str("A1"))],
        )
        .is_err()
    });
}

#[test]
fn rollback_restores_database_byte_identical() {
    let mut db = small_db();
    let state_before = db.state().clone();
    let indexes_before = db.indexes().clone();
    db.begin();
    db.insert("Program_Paper", vec![v("A2")]).unwrap();
    db.insert("Paper", vec![v("P3"), v("A2")]).unwrap();
    db.update_where(
        "Paper",
        &[Pred::Eq("Id".into(), Value::str("P2"))],
        &[("Program_Id", v("A2"))],
    )
    .unwrap();
    db.delete_where("Paper", &[Pred::Eq("Id".into(), Value::str("P3"))])
        .unwrap();
    db.rollback().unwrap();
    assert_eq!(db.state(), &state_before);
    assert_eq!(db.indexes(), &indexes_before);
}

// ---- delta ≡ full equivalence on the CRIS workload ----

/// Maps the CRIS case study and loads its consistent sample population.
fn cris_db() -> Database {
    let schema = cris::schema();
    let pop = cris::population(&schema);
    let wb = Workbench::new(schema);
    let out = wb.map(&MappingOptions::new()).expect("CRIS maps");
    let st = map_population(&out.schema, &out, &pop).expect("state map");
    let mut db = Database::create(out.rel.clone()).unwrap();
    db.load_state(st).unwrap();
    db
}

/// A value pool per (table, column): everything currently in the column,
/// so random rows are plausible enough to sometimes pass and sometimes
/// trip keys/FKs/view constraints.
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

fn random_mutation(
    db: &mut Database,
    pools: &[Vec<Vec<Option<Value>>>],
    rng: &mut rand::rngs::StdRng,
) -> Result<(), ridl_engine::EngineError> {
    let schema_tables: Vec<(usize, String)> = db
        .schema()
        .tables()
        .map(|(tid, t)| (tid.index(), t.name.clone()))
        .collect();
    let (ti, tname) = schema_tables[rng.gen_range(0..schema_tables.len())].clone();
    let arity = pools[ti].len();
    let pick = |rng: &mut rand::rngs::StdRng, c: usize| -> Option<Value> {
        let pool = &pools[ti][c];
        if pool.is_empty() {
            None
        } else {
            pool[rng.gen_range(0..pool.len())].clone()
        }
    };
    match rng.gen_range(0..3u32) {
        0 => {
            let row: Row = (0..arity).map(|c| pick(rng, c)).collect();
            db.insert(&tname, row).map(|_| ())
        }
        1 => {
            let col = db.schema().tables[ti].columns[rng.gen_range(0..arity)]
                .name
                .clone();
            let pred = match pick(rng, 0) {
                Some(val) => Pred::Eq(db.schema().tables[ti].columns[0].name.clone(), val),
                None => Pred::IsNull(db.schema().tables[ti].columns[0].name.clone()),
            };
            let value_col = rng.gen_range(0..arity);
            let value = pick(rng, value_col);
            db.update_where(&tname, &[pred], &[(&col, value)])
                .map(|_| ())
        }
        _ => {
            let pred = match pick(rng, 0) {
                Some(val) => Pred::Eq(db.schema().tables[ti].columns[0].name.clone(), val),
                None => Pred::IsNull(db.schema().tables[ti].columns[0].name.clone()),
            };
            db.delete_where(&tname, &[pred]).map(|_| ())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The incremental engine and a full-revalidation engine, fed the same
    /// random mutation sequence, accept/reject identically and end up in
    /// identical states. (In debug builds the incremental engine
    /// additionally asserts after every accepted mutation that the full
    /// validator agrees and that its indexes match a fresh rebuild.)
    #[test]
    fn delta_validation_equals_full_validation(seed in 0u64..64, ops in 8usize..24) {
        let mut inc = cris_db();
        let mut full = cris_db();
        full.set_validation_mode(ValidationMode::FullState);
        prop_assert_eq!(inc.validation_mode(), ValidationMode::Incremental);
        let pools = column_pools(&inc);
        for i in 0..ops {
            // Seed a fresh RNG per op so both engines draw the exact same
            // mutation.
            let op_seed = seed ^ ((i as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
            let mut r1 = rand::rngs::StdRng::seed_from_u64(op_seed);
            let mut r2 = rand::rngs::StdRng::seed_from_u64(op_seed);
            let r_inc = random_mutation(&mut inc, &pools, &mut r1);
            let r_full = random_mutation(&mut full, &pools, &mut r2);
            // Same verdict...
            prop_assert_eq!(
                r_inc.is_ok(),
                r_full.is_ok(),
                "op {} diverged: incremental {:?} vs full {:?}",
                i,
                r_inc,
                r_full
            );
            // ...and same state afterwards.
            prop_assert_eq!(inc.state(), full.state(), "state diverged at op {}", i);
        }
    }
}

/// Transactions on the CRIS database: every statement is checked when it
/// runs, inside a transaction too, and rollback and commit go through the
/// undo log.
#[test]
fn cris_transaction_commit_and_undo() {
    let mut db = cris_db();
    let state_before = db.state().clone();
    let indexes_before = db.indexes().clone();
    // A populated table with a NOT NULL column: an all-NULL row must fail
    // there, and deleting a row and putting it back must pass.
    let (tid, tname, arity) = db
        .schema()
        .tables()
        .find(|(tid, t)| t.columns.iter().any(|c| !c.nullable) && !db.state().rows(*tid).is_empty())
        .map(|(tid, t)| (tid, t.name.clone(), t.arity()))
        .expect("CRIS mapping produces populated NOT NULL columns");
    let row = db.state().rows(tid).iter().next().unwrap().clone();
    let round_trip = [
        BatchOp::delete(tname.clone(), row.clone()),
        BatchOp::insert(tname.clone(), row),
    ];

    db.begin();
    db.apply_batch(round_trip.clone()).unwrap();
    let n = db.state().rows(tid).len();
    let err = db.insert(&tname, vec![None; arity]);
    assert!(err.is_err(), "all-NULL row must fail NOT NULL when it runs");
    assert_eq!(db.state().rows(tid).len(), n, "rejected row never landed");
    db.rollback().unwrap();
    assert_eq!(
        db.state(),
        &state_before,
        "rollback unwound the transaction"
    );
    assert_eq!(db.indexes(), &indexes_before);

    db.begin();
    db.apply_batch(round_trip).unwrap();
    db.commit().unwrap();
    assert_eq!(db.state(), &state_before, "the committed batch nets out");
    assert_eq!(db.indexes(), &indexes_before);
}
