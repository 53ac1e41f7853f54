//! Experiment **E-DUR**: what durability costs on the engine's commit
//! path, and how fast recovery replays a committed WAL.
//!
//! Four configurations run the same single-statement workload
//! (delete one row by primary key, re-insert it — two committed
//! statements) against the industrial-scale mapped schema:
//!
//! * `memory`    — no WAL at all (`Database::create`), the baseline;
//! * `wal_never` — WAL appended but never fsynced: the CPU cost of
//!   encoding + CRC + the write syscall in isolation;
//! * `wal_group` — group commit, fsync at most once per 500 µs window;
//! * `wal_fsync` — fsync on every commit (the default policy).
//!
//! A second phase commits a long run of statements under `wal_never`,
//! reopens the store, and measures recovery replay throughput
//! (row ops per second through the incremental-validation path).
//!
//! Experiment **E-CKPT** rides along: a full v2 base snapshot vs an
//! incremental dirty-extent delta after a small churn, on the same
//! store — bytes written and wall-clock for each, with the delta/full
//! byte ratio printed (the paper-scale acceptance bound is <20% at
//! ≤5% churn).
//!
//! The claims to verify: the WAL's CPU overhead is small next to
//! constraint validation; group commit recovers most of the distance
//! between `Never` and `Always`; and replay is fast enough that
//! checkpoint spacing is a log-size policy, not a startup-latency one.
//!
//! Store setup, target probing and the timing loop live in
//! `ridl_bench::harness`, shared with the other engine benches and
//! smoke-tested under `cargo test`.

use std::path::PathBuf;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ridl_bench::harness::{
    bench_dir, build_load_scenario, commit_pair, durability, pick_mutation_target, time_op,
    LoadScenario,
};
use ridl_engine::{Database, FsyncPolicy};

const TARGET_ROWS: usize = 5_000;
/// Committed delete+reinsert pairs in the replay phase (2 ops each).
const REPLAY_UNITS: usize = 1_000;

struct Config {
    tag: &'static str,
    fsync: Option<FsyncPolicy>,
}

const CONFIGS: [Config; 4] = [
    Config {
        tag: "memory",
        fsync: None,
    },
    Config {
        tag: "wal_never",
        fsync: Some(FsyncPolicy::Never),
    },
    Config {
        tag: "wal_group",
        fsync: Some(FsyncPolicy::GroupCommit { window_micros: 500 }),
    },
    Config {
        tag: "wal_fsync",
        fsync: Some(FsyncPolicy::Always),
    },
];

fn open_config(cfg: &Config, sc: &LoadScenario) -> (Database, Option<PathBuf>) {
    match cfg.fsync {
        None => {
            let mut db = Database::create(sc.schema.clone()).unwrap();
            db.load_state(sc.state.clone()).unwrap();
            (db, None)
        }
        Some(policy) => {
            let dir = bench_dir(&format!("durable-{}", cfg.tag));
            let mut db = Database::open_with(
                std::sync::Arc::new(ridl_engine::StdIo),
                &dir,
                sc.schema.clone(),
                durability(policy),
            )
            .unwrap();
            db.bulk_load(sc.rows.iter().cloned()).unwrap();
            (db, Some(dir))
        }
    }
}

fn report(sc: &LoadScenario) {
    println!("\n== E-DUR: commit latency, WAL off vs on ({TARGET_ROWS} target rows) ==");
    println!("{:<10} {:>14} {:>8}", "config", "del+reins(us)", "vs mem");
    let mut baseline = None;
    for cfg in &CONFIGS {
        let (mut db, dir) = open_config(cfg, sc);
        let target = pick_mutation_target(&mut db);
        let us = time_op(|| commit_pair(&mut db, &target));
        let base = *baseline.get_or_insert(us);
        println!("{:<10} {:>14.1} {:>7.2}x", cfg.tag, us, us / base);
        drop(db);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    println!(
        "shape check: wal_never ≈ memory (encoding+CRC are cheap next to\n\
         validation); wal_fsync pays one fsync per statement; wal_group\n\
         sits between them, bounded by the window."
    );
}

/// E-CKPT: full base snapshot vs incremental delta on one store.
/// Returns the store dir so the criterion group can reuse it.
fn report_checkpoint(sc: &LoadScenario) -> (Database, PathBuf) {
    let dir = bench_dir("durable-ckpt");
    let mut db = Database::open_with(
        std::sync::Arc::new(ridl_engine::StdIo),
        &dir,
        sc.schema.clone(),
        durability(FsyncPolicy::Never),
    )
    .unwrap();
    db.bulk_load(sc.rows.iter().cloned()).unwrap();
    let target = pick_mutation_target(&mut db);

    let start = Instant::now();
    db.checkpoint_full().unwrap();
    let full_secs = start.elapsed().as_secs_f64();
    let full = db.last_checkpoint_stats().unwrap();
    assert_eq!(full.kind, ridl_engine::CheckpointKind::Base);

    // Small churn: one hot row, a handful of commits.
    for _ in 0..16 {
        commit_pair(&mut db, &target);
    }
    let start = Instant::now();
    db.checkpoint().unwrap();
    let delta_secs = start.elapsed().as_secs_f64();
    let delta = db.last_checkpoint_stats().unwrap();
    assert_eq!(delta.kind, ridl_engine::CheckpointKind::Delta);

    println!("\n== E-CKPT: full vs incremental checkpoint ({TARGET_ROWS} target rows) ==");
    println!(
        "{:<8} {:>12} {:>10} {:>16}",
        "kind", "bytes", "ms", "extents"
    );
    println!(
        "{:<8} {:>12} {:>10.2} {:>9}/{}",
        "full",
        full.bytes,
        full_secs * 1e3,
        full.extents_written,
        full.extents_total
    );
    println!(
        "{:<8} {:>12} {:>10.2} {:>9}/{}",
        "delta",
        delta.bytes,
        delta_secs * 1e3,
        delta.extents_written,
        delta.extents_total
    );
    println!(
        "delta/full byte ratio: {:.4} (bound at paper scale: <0.20)",
        delta.bytes as f64 / full.bytes as f64
    );
    (db, dir)
}

/// Commits `REPLAY_UNITS` delete+reinsert pairs into a WAL, then measures
/// how fast `Database::open` replays them. Returns the store dir (the WAL
/// is left clean, so every reopen replays the same units).
fn build_replay_store(sc: &LoadScenario) -> PathBuf {
    let dir = bench_dir("durable-replay");
    let mut db = Database::open_with(
        std::sync::Arc::new(ridl_engine::StdIo),
        &dir,
        sc.schema.clone(),
        durability(FsyncPolicy::Never),
    )
    .unwrap();
    db.bulk_load(sc.rows.iter().cloned()).unwrap();
    let target = pick_mutation_target(&mut db);
    for _ in 0..REPLAY_UNITS {
        commit_pair(&mut db, &target);
    }
    db.flush_wal().unwrap();
    dir
}

fn report_replay(sc: &LoadScenario, dir: &PathBuf) -> usize {
    let start = Instant::now();
    let db = Database::open_with(
        std::sync::Arc::new(ridl_engine::StdIo),
        dir,
        sc.schema.clone(),
        durability(FsyncPolicy::Never),
    )
    .unwrap();
    let elapsed = start.elapsed().as_secs_f64();
    let rep = db.recovery_report().expect("durable open reports").clone();
    // +2: the pick_mutation_target probe commits one delete+reinsert
    // pair itself.
    assert_eq!(rep.units_replayed, 2 * REPLAY_UNITS + 2);
    assert_eq!(rep.bytes_discarded, 0);
    println!("\n== E-DUR: recovery replay throughput ==");
    println!(
        "replayed {} units ({} row ops, {} WAL bytes) in {:.1} ms: {:.0} ops/s",
        rep.units_replayed,
        rep.ops_replayed,
        rep.wal_bytes_scanned,
        elapsed * 1e3,
        rep.ops_replayed as f64 / elapsed
    );
    rep.ops_replayed
}

fn bench(c: &mut Criterion) {
    ridl_obs::init_tracing_from_env();
    let obs_before = ridl_obs::snapshot();
    let sc = build_load_scenario(TARGET_ROWS);

    // Run the E-DUR report with detail on and assert the WAL
    // instrumentation is live: the fsync configs must bump the fsync
    // counter, populate the group-commit batch-size histogram, and (with
    // detail enabled) record a non-zero fsync latency.
    let detail_was = ridl_obs::detail_enabled();
    ridl_obs::set_detail(true);
    report(&sc);
    ridl_obs::set_detail(detail_was);
    let wal_diff = ridl_obs::snapshot().since(&obs_before);
    assert!(
        wal_diff.counter("wal.fsyncs") > 0,
        "wal_fsync/wal_group configs committed but wal.fsyncs stayed 0"
    );
    let batches = ridl_obs::hist::summary_named("wal.group_batch").unwrap_or_default();
    assert!(
        batches.count > 0,
        "fsyncs happened but the wal.group_batch histogram is empty"
    );
    let fsync_ns = ridl_obs::hist::summary_named("wal.fsync").unwrap_or_default();
    assert!(
        fsync_ns.max > 0,
        "detail was on but the wal.fsync timer recorded no nanoseconds"
    );

    let mut group = c.benchmark_group("durable_commit");
    group.sample_size(20);
    for cfg in &CONFIGS {
        let (mut db, dir) = open_config(cfg, &sc);
        let target = pick_mutation_target(&mut db);
        group.bench_function(BenchmarkId::new("delete_reinsert", cfg.tag), |b| {
            b.iter(|| commit_pair(&mut db, &target))
        });
        drop(db);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    // E-CKPT: report once, then time the two checkpoint flavors. Each
    // delta iteration commits one pair first so there is always a dirty
    // extent to write (an empty delta would time a no-op).
    let (mut db, ckpt_dir) = report_checkpoint(&sc);
    let target = pick_mutation_target(&mut db);
    group.bench_function(BenchmarkId::new("checkpoint", "full"), |b| {
        b.iter(|| db.checkpoint_full().unwrap())
    });
    // Every 8th call collapses the chain into a fresh base
    // (MAX_DELTA_CHAIN), so this times the real steady-state mix.
    group.bench_function(BenchmarkId::new("checkpoint", "delta"), |b| {
        b.iter(|| {
            commit_pair(&mut db, &target);
            db.checkpoint().unwrap()
        })
    });
    drop(db);
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let replay_dir = build_replay_store(&sc);
    let ops = report_replay(&sc, &replay_dir);
    group.bench_function(
        BenchmarkId::new("recovery_replay", format!("{ops}ops")),
        |b| {
            b.iter(|| {
                let db = Database::open_with(
                    std::sync::Arc::new(ridl_engine::StdIo),
                    &replay_dir,
                    sc.schema.clone(),
                    durability(FsyncPolicy::Never),
                )
                .unwrap();
                assert_eq!(
                    db.recovery_report().expect("reports").units_replayed,
                    2 * REPLAY_UNITS + 2
                );
                db
            })
        },
    );
    group.finish();
    let _ = std::fs::remove_dir_all(&replay_dir);

    // WAL/commit counters for the whole run, next to criterion's timings
    // in the CRITERION_SUMMARY_JSON artifact.
    let diff = ridl_obs::snapshot().since(&obs_before);
    ridl_obs::append_summary_snapshot("durable_commit", &diff);
    if let Some(path) = ridl_obs::write_chrome_trace_env() {
        eprintln!("durable_commit: chrome trace written to {path}");
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
