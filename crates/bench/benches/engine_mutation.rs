//! Experiment **E-INC**: incremental constraint enforcement on the engine's
//! mutation hot path.
//!
//! The engine validates each mutation either by re-checking the whole
//! state (`ValidationMode::FullState`, O(database) per statement — what a
//! naive reading of the paper's "generated constraints" gives you) or by
//! delta validation against maintained hash indexes
//! (`ValidationMode::Incremental`, O(change)). This harness loads the
//! industrial-scale mapped schema at ~1k/10k/50k rows and times three
//! statement shapes under both modes:
//!
//! * `insert` — a rejected insert (duplicate primary key with a tweaked
//!   non-key column), i.e. validate + undo-log rollback;
//! * `update` — an identity `UPDATE ... WHERE pk = ...` on one row;
//! * `delete+reinsert` — removing a safe row and putting it back.
//!
//! The claim to verify: incremental cost stays flat as the database grows,
//! while full-state validation scales with the row count.
//!
//! Setup (database construction, target probing, adaptive timing) lives
//! in `ridl_bench::harness`, shared with the other engine benches and
//! smoke-tested under `cargo test`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ridl_bench::harness::{build_db, pick_mutation_target, time_op, MutationTarget};
use ridl_engine::{Database, ValidationMode};

struct Measured {
    insert_us: f64,
    update_us: f64,
    delete_us: f64,
}

fn measure(db: &mut Database, t: &MutationTarget, mode: ValidationMode) -> Measured {
    db.set_validation_mode(mode);
    let insert_us = time_op(|| {
        let r = db.insert(&t.table, t.reject_row.clone());
        assert!(r.is_err(), "duplicate-PK insert must be rejected");
    });
    let update_us = time_op(|| {
        let n = db
            .update_where(&t.table, &t.preds, &[(&t.assign_col, t.assign_val.clone())])
            .expect("identity update is valid");
        assert_eq!(n, 1);
    });
    let delete_us = time_op(|| {
        let n = db.delete_where(&t.table, &t.preds).expect("safe delete");
        assert_eq!(n, 1);
        db.insert(&t.table, t.row.clone()).expect("reinsert");
    });
    db.set_validation_mode(ValidationMode::Incremental);
    Measured {
        insert_us,
        update_us,
        delete_us,
    }
}

fn report() -> Vec<(usize, Database, MutationTarget)> {
    println!("\n== E-INC: mutation cost, delta validation vs full re-validation ==");
    println!(
        "{:<8} {:<6} {:>12} {:>12} {:>18}",
        "rows", "mode", "insert(us)", "update(us)", "del+reins(us)"
    );
    let mut out = Vec::new();
    for target in [1_000usize, 10_000, 50_000] {
        let mut db = build_db(target);
        let rows = db.state().num_rows();
        let targets = pick_mutation_target(&mut db);
        let full = measure(&mut db, &targets, ValidationMode::FullState);
        let delta = measure(&mut db, &targets, ValidationMode::Incremental);
        println!(
            "{:<8} {:<6} {:>12.1} {:>12.1} {:>18.1}",
            rows, "full", full.insert_us, full.update_us, full.delete_us
        );
        println!(
            "{:<8} {:<6} {:>12.1} {:>12.1} {:>18.1}",
            rows, "delta", delta.insert_us, delta.update_us, delta.delete_us
        );
        println!(
            "{:<8} {:<6} {:>11.1}x {:>11.1}x {:>17.1}x",
            "",
            "ratio",
            full.insert_us / delta.insert_us,
            full.update_us / delta.update_us,
            full.delete_us / delta.delete_us
        );
        out.push((rows, db, targets));
    }
    println!(
        "shape check: the delta row stays flat as rows grow (O(change) per\n\
         statement); the full row scales with the database and the ratio\n\
         widens — the reason the engine keeps indexes and an undo log."
    );
    out
}

fn bench(c: &mut Criterion) {
    // Under RIDL_TRACE_JSON the whole run is span-traced and exported as a
    // Chrome trace (CI validates the file with `ridl tracecheck`).
    ridl_obs::init_tracing_from_env();
    let obs_before = ridl_obs::snapshot();
    let dbs = report();
    let mut group = c.benchmark_group("engine_mutation");
    group.sample_size(20);
    for (rows, mut db, targets) in dbs {
        for mode in [ValidationMode::Incremental, ValidationMode::FullState] {
            let tag = match mode {
                ValidationMode::Incremental => "delta",
                ValidationMode::FullState => "full",
            };
            db.set_validation_mode(mode);
            group.bench_function(
                BenchmarkId::new("insert_reject", format!("{tag}/{rows}")),
                |b| {
                    b.iter(|| {
                        db.insert(&targets.table, targets.reject_row.clone())
                            .is_err()
                    })
                },
            );
            group.bench_function(
                BenchmarkId::new("update_identity", format!("{tag}/{rows}")),
                |b| {
                    b.iter(|| {
                        db.update_where(
                            &targets.table,
                            &targets.preds,
                            &[(&targets.assign_col, targets.assign_val.clone())],
                        )
                        .expect("identity update")
                    })
                },
            );
            group.bench_function(
                BenchmarkId::new("delete_reinsert", format!("{tag}/{rows}")),
                |b| {
                    b.iter(|| {
                        db.delete_where(&targets.table, &targets.preds)
                            .expect("safe delete");
                        db.insert(&targets.table, targets.row.clone())
                            .expect("reinsert");
                    })
                },
            );
        }
        db.set_validation_mode(ValidationMode::Incremental);
    }
    group.finish();
    // Enforcement counters for the whole run, next to the timings in the
    // CRITERION_SUMMARY_JSON artifact.
    let diff = ridl_obs::snapshot().since(&obs_before);
    ridl_obs::append_summary_snapshot("engine_mutation", &diff);
    if let Some(path) = ridl_obs::write_chrome_trace_env() {
        eprintln!("engine_mutation: chrome trace written to {path}");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
