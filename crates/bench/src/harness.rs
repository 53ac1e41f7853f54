//! The shared measurement harness the criterion benches build on:
//! scenario construction, engine-probed mutation targets, adaptive
//! wall-clock timing and scratch-directory management.
//!
//! Before this module existed every bench carried its own copy of
//! `build_db`/`pick_target`/`time_op`; the copies drifted (different
//! budgets, different probe rules) and their setup could not be smoke-
//! tested. The benches now call these functions, and
//! `tests/bench_smoke.rs` runs the same setup at tiny scale under
//! `cargo test --workspace`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ridl_brm::Value;
use ridl_engine::{Database, Durability, FsyncPolicy, Pred};
use ridl_relational::{RelSchema, RelState, Row, TableId};
use ridl_workloads::scenario;

/// The seed every bench pins (the year of the paper).
pub const BENCH_SEED: u64 = 1989;

/// Builds the industrial-scale database with roughly `target_rows` rows
/// (the shared calibrated scenario from `ridl-workloads`).
pub fn build_db(target_rows: usize) -> Database {
    let sc = scenario::industrial_population(BENCH_SEED, target_rows);
    let mut db = Database::create(sc.schema).unwrap();
    db.load_state(sc.state).unwrap();
    db
}

/// A calibrated population in the three shapes the load benches need.
pub struct LoadScenario {
    /// The mapped relational schema.
    pub schema: RelSchema,
    /// The calibrated population.
    pub state: RelState,
    /// The same population flattened for [`Database::bulk_load`].
    pub rows: Vec<(TableId, Row)>,
}

/// Builds the industrial population plus its flattened row list.
pub fn build_load_scenario(target_rows: usize) -> LoadScenario {
    let sc = scenario::industrial_population(BENCH_SEED, target_rows);
    let rows = scenario::rows_of(&sc.schema, &sc.state);
    LoadScenario {
        schema: sc.schema,
        state: sc.state,
        rows,
    }
}

/// The concrete rows and predicates one mutation measurement needs: a
/// probed safe-to-delete row addressed by primary key, a PK-duplicate
/// row the engine must reject, and an identity assignment for
/// `update_where`.
#[derive(Clone, PartialEq, Debug)]
pub struct MutationTarget {
    /// Table the row lives in.
    pub table: String,
    /// Predicates identifying the row by primary key.
    pub preds: Vec<Pred>,
    /// The row itself, for re-insertion.
    pub row: Row,
    /// A distinct row with the same primary key — key validation must
    /// reject its insertion.
    pub reject_row: Row,
    /// Non-key column for the identity update.
    pub assign_col: String,
    /// Its current value (so the update is a no-op w.r.t. constraints).
    pub assign_val: Option<Value>,
}

/// Picks one probed mutation target, scanning tables largest-first. A
/// row qualifies when its table has a primary key and a non-key column,
/// its key columns are non-null, a PK-duplicate reject row can be
/// constructed, and the engine demonstrably lets the row be deleted and
/// re-inserted.
///
/// The probe commits one delete+reinsert pair — **two WAL units** on a
/// durable database — which replay-count assertions must account for.
pub fn pick_mutation_target(db: &mut Database) -> MutationTarget {
    let schema = db.schema().clone();
    let mut tables: Vec<(TableId, usize)> = schema
        .tables()
        .map(|(tid, _)| (tid, db.state().rows(tid).len()))
        .collect();
    tables.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    for (tid, n) in tables {
        if n < 2 {
            continue;
        }
        let Some(pk) = schema.primary_key_of(tid) else {
            continue;
        };
        let pk = pk.to_vec();
        let t = schema.table(tid);
        let Some(non_key) = (0..t.arity() as u32).find(|c| !pk.contains(c)) else {
            continue;
        };
        let rows: Vec<Row> = db.state().rows(tid).iter().cloned().collect();
        for row in &rows {
            if pk.iter().any(|c| row[*c as usize].is_none()) {
                continue;
            }
            // A distinct row with the same primary key: tweak one non-key
            // column to a value no existing row has there.
            let mut reject_row = row.clone();
            let candidates = rows
                .iter()
                .map(|r| r[non_key as usize].clone())
                .chain([None])
                .filter(|v| *v != row[non_key as usize]);
            let mut found_reject = None;
            for cand in candidates {
                reject_row[non_key as usize] = cand;
                if !db.state().rows(tid).contains(&reject_row) {
                    found_reject = Some(reject_row.clone());
                    break;
                }
            }
            let Some(reject_row) = found_reject else {
                continue;
            };
            let preds: Vec<Pred> = pk
                .iter()
                .map(|c| {
                    Pred::Eq(
                        t.column(*c).name.clone(),
                        row[*c as usize].clone().expect("checked non-null"),
                    )
                })
                .collect();
            // Probe: deletable (and re-insertable) without violations?
            if db.delete_where(&t.name, &preds) == Ok(1) {
                db.insert(&t.name, row.clone()).expect("reinsert probe");
                return MutationTarget {
                    table: t.name.clone(),
                    preds,
                    row: row.clone(),
                    reject_row,
                    assign_col: t.column(non_key).name.clone(),
                    assign_val: row[non_key as usize].clone(),
                };
            }
        }
    }
    panic!("no suitable benchmark table in the industrial mapping")
}

/// Deletes the target row by primary key and re-inserts it — two
/// committed statements through the delta-validation path.
pub fn commit_pair(db: &mut Database, t: &MutationTarget) {
    let n = db.delete_where(&t.table, &t.preds).expect("safe delete");
    assert_eq!(n, 1);
    db.insert(&t.table, t.row.clone()).expect("reinsert");
}

/// Adaptive wall-clock timing with an explicit budget: runs `f` once to
/// estimate its cost, picks an iteration count that fits `budget_secs`
/// clamped to `[min_iters, max_iters]`, and returns microseconds per
/// iteration.
pub fn time_op_with(
    budget_secs: f64,
    min_iters: usize,
    max_iters: usize,
    mut f: impl FnMut(),
) -> f64 {
    let warmup = Instant::now();
    f();
    let est = warmup.elapsed().as_secs_f64();
    let iters = ((budget_secs / est.max(1e-7)) as usize).clamp(min_iters, max_iters);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// [`time_op_with`] at the statement-level defaults (50 ms budget,
/// 5–400 iterations) used by the mutation and commit benches.
pub fn time_op(f: impl FnMut()) -> f64 {
    time_op_with(0.05, 5, 400, f)
}

/// [`time_op_with`] at the whole-load defaults (300 ms budget, 3–50
/// iterations) used by the bulk-load bench.
pub fn time_op_heavy(f: impl FnMut()) -> f64 {
    time_op_with(0.3, 3, 50, f)
}

/// A fresh scratch directory under the system temp dir, named by `tag`,
/// the process id and a per-process call counter, so no two calls share
/// one — not even two with the same tag. Any previous contents (a
/// leftover of an earlier process with the same id) are removed.
pub fn bench_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ridl-bench-{}-{n}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A [`Durability`] with the given fsync policy and auto-checkpointing
/// off (benches control WAL length themselves).
pub fn durability(fsync: FsyncPolicy) -> Durability {
    Durability {
        fsync,
        checkpoint_every_bytes: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_dir_is_fresh_per_call_even_for_one_tag() {
        let (a, b) = (bench_dir("same"), bench_dir("same"));
        assert_ne!(a, b);
    }
}
