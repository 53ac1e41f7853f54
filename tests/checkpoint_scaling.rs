//! Experiment **E-CKPT**: incremental checkpoints scale with churn, not
//! with state.
//!
//! A mapped population is loaded into a durable store at two state sizes
//! at least 3× apart. Each store takes a full checkpoint, applies the
//! same churn (the churn slice of one deterministic traffic plan over
//! probed rows of the largest tables) and takes an incremental
//! checkpoint. The conditions:
//!
//! * both snapshots are non-empty;
//! * the delta rewrote no more extents than it had churned row ops;
//! * the delta/full byte ratio at the larger size is at most 0.75× the
//!   ratio at the smaller size, i.e. the delta's share of the snapshot
//!   shrinks as the state grows;
//! * the delta is under 20% of the full snapshot at ≥20k rows, and at
//!   the larger size in any build;
//! * the engine chose the delta path.
//!
//! Release builds load the industrial population at 25k and 100k rows.
//! Its rows spread over ~140 tables, so at 12k rows no table spans two
//! extents yet, and debug builds validate the whole state after every
//! statement (the delta≡full oracle, ~0.4 s a statement at 25k rows).
//! Debug builds therefore load a five-table synthetic schema at ~2k and
//! ~9k rows, where every table already spans several extents.

use std::sync::Arc;

use ridl_engine::{
    BatchOp, CheckpointKind, CheckpointStats, Database, Durability, FsyncPolicy, StdIo,
};
use ridl_relational::{Row, TableId};
use ridl_workloads::macrobench::{self, TrafficOp};
use ridl_workloads::scenario::{self, MappedPopulation};
use ridl_workloads::synth::GenParams;

const SEED: u64 = 1989;
/// Sizes of the small and the large store: target rows of the industrial
/// population (release), instances per entity of the synthetic schema
/// (debug).
const SIZES: [usize; 2] = if cfg!(debug_assertions) {
    [400, 1_600]
} else {
    [25_000, 100_000]
};
/// Steps of the traffic plan. The churn is its second half's first
/// half (100 steps).
const OPS: usize = 400;
/// Probed rows the plan spreads over.
const TARGETS: usize = 8;

fn population(size: usize) -> MappedPopulation {
    if cfg!(debug_assertions) {
        let params = GenParams {
            seed: SEED,
            nolots: 4,
            mn_facts: 1,
            sublinks: 0,
            ..GenParams::default()
        };
        scenario::mapped_population(&params, size)
    } else {
        scenario::industrial_population(SEED, size)
    }
}

/// What one store's pair of checkpoints wrote.
struct Run {
    rows: usize,
    full: CheckpointStats,
    delta: CheckpointStats,
    /// Row inserts and deletes the churn applied.
    churn_rows: u64,
}

/// Up to `want` rows, largest tables first, that the engine lets a
/// statement delete on its own (each probe re-inserts the row).
fn probe_targets(db: &mut Database, want: usize) -> Vec<(String, Row)> {
    let schema = db.schema().clone();
    let mut tables: Vec<TableId> = schema.tables().map(|(tid, _)| tid).collect();
    tables.sort_by_key(|tid| std::cmp::Reverse(db.state().rows(*tid).len()));
    let mut out = Vec::new();
    for tid in tables {
        let name = schema.table(tid).name.clone();
        let rows: Vec<Row> = db.state().rows(tid).iter().cloned().collect();
        for row in rows {
            if out.len() == want {
                return out;
            }
            if db.apply_batch([BatchOp::delete(name.clone(), row.clone())]) == Ok(1) {
                db.insert(&name, row.clone())
                    .expect("re-insert the probed row");
                out.push((name.clone(), row));
            }
        }
    }
    out
}

fn run(size: usize) -> Run {
    let sc = population(size);
    let dir = std::env::temp_dir().join(format!("ridl-ckpt-scaling-{}-{size}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Database::open_with(
        Arc::new(StdIo),
        &dir,
        sc.schema.clone(),
        Durability {
            fsync: FsyncPolicy::Never,
            checkpoint_every_bytes: None,
        },
    )
    .expect("open the store");
    let rows = db
        .bulk_load(scenario::rows_of(&sc.schema, &sc.state))
        .expect("bulk_load the population");
    let targets = probe_targets(&mut db, TARGETS);
    assert!(!targets.is_empty(), "no deletable row in the mapped schema");

    db.checkpoint_full().expect("full checkpoint");
    let full = db.last_checkpoint_stats().expect("full checkpoint stats");

    let plan = macrobench::plan_traffic(SEED, OPS, targets.len());
    let post = &plan[plan.len() / 2..];
    let mut churn_rows = 0u64;
    // Reads and rejected inserts change no row, so only the two write
    // shapes of the plan are applied.
    for op in &post[..post.len() / 2] {
        match *op {
            TrafficOp::DeleteReinsert(i) => {
                let (table, row) = &targets[i];
                let n = db.apply_batch([BatchOp::delete(table.clone(), row.clone())]);
                assert_eq!(n, Ok(1), "delete from {table}");
                db.insert(table, row.clone()).expect("re-insert");
                churn_rows += 2;
            }
            TrafficOp::Batch(i) => {
                let (table, row) = &targets[i];
                let n = db.apply_batch([
                    BatchOp::delete(table.clone(), row.clone()),
                    BatchOp::insert(table.clone(), row.clone()),
                ]);
                assert_eq!(n, Ok(2), "delete+insert batch on {table}");
                churn_rows += 2;
            }
            TrafficOp::RejectInsert(_) | TrafficOp::PointQuery(_) => {}
        }
    }

    db.checkpoint().expect("incremental checkpoint");
    let delta = db.last_checkpoint_stats().expect("delta checkpoint stats");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    Run {
        rows,
        full,
        delta,
        churn_rows,
    }
}

#[test]
fn incremental_checkpoints_scale_with_churn_not_state() {
    let [small, large] = SIZES.map(run);
    assert!(
        large.rows >= 3 * small.rows,
        "large store loaded {} rows, need at least 3x the small store's {}",
        large.rows,
        small.rows
    );
    for (r, is_large) in [(&small, false), (&large, true)] {
        let (full, delta) = (r.full.bytes, r.delta.bytes);
        assert!(
            full > 0 && delta > 0,
            "{} rows: empty snapshot (full {full} bytes, delta {delta} bytes)",
            r.rows
        );
        assert!(
            r.delta.extents_written <= r.churn_rows,
            "{} rows: the delta rewrote {} extents for {} churned row ops",
            r.rows,
            r.delta.extents_written,
            r.churn_rows
        );
        if r.rows >= 20_000 || is_large {
            assert!(
                delta * 5 < full,
                "{} rows: the delta wrote {delta} bytes, not under 20% of the \
                 {full}-byte full snapshot",
                r.rows
            );
        }
    }
    let ratio = |r: &Run| r.delta.bytes as f64 / r.full.bytes as f64;
    assert!(
        ratio(&large) <= 0.75 * ratio(&small),
        "delta/full ratio went {:.4} -> {:.4} as the state grew {} -> {} rows",
        ratio(&small),
        ratio(&large),
        small.rows,
        large.rows
    );
    for r in [&small, &large] {
        assert_eq!(r.delta.kind, CheckpointKind::Delta, "{} rows", r.rows);
    }
}
