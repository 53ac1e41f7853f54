//! The RIDL-Bench macro driver: one closed-loop run through the whole
//! pipeline — synthesize → analyze/map → populate → `bulk_load` into a
//! WAL-backed store → mixed mutation/query traffic → significant-example
//! stress → checkpoint → more traffic → simulated crash → recovery →
//! many-client server bench — with every phase timed and the result
//! packaged as a [`BenchArtifact`].
//!
//! `ridl bench` and the `macro_pipeline` criterion bench both call
//! [`run_macro`]; the smoke test runs it at tiny scale under
//! `cargo test`.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use ridl_engine::{BatchOp, Database, FsyncPolicy, Query, StdIo};
use ridl_obs::Histogram;
use ridl_workloads::macrobench::{self, MacroParams, TrafficOp};
use ridl_workloads::{scenario, sigex};

use crate::artifact::{
    BenchArtifact, CheckpointSummary, ClassCost, PhaseStat, WalMetrics, WalStats,
};
use crate::harness::{self, MutationTarget};

/// How many probed mutation targets the traffic plan spreads over.
const TRAFFIC_TARGETS: usize = 8;

/// Configuration of one macro run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MacroConfig {
    /// Seed and target row count of the workload.
    pub params: MacroParams,
    /// Total traffic operations (split around the checkpoint).
    pub traffic_ops: usize,
    /// PR number stamped into the artifact.
    pub pr: u64,
    /// Durable store directory; `None` uses a scratch dir under the
    /// system temp dir, removed when the run finishes.
    pub store_dir: Option<PathBuf>,
    /// Closed-loop sessions in the many-client server phase.
    pub server_sessions: usize,
}

impl Default for MacroConfig {
    fn default() -> Self {
        Self {
            params: MacroParams::default(),
            traffic_ops: 2_000,
            pr: 7,
            store_dir: None,
            server_sessions: 1_000,
        }
    }
}

impl MacroConfig {
    /// A tiny configuration for smoke tests and CI: same pipeline, a few
    /// thousand rows, a couple hundred ops.
    pub fn smoke() -> Self {
        Self {
            params: MacroParams {
                seed: 1989,
                target_rows: 1_500,
            },
            traffic_ops: 120,
            server_sessions: 40,
            ..Self::default()
        }
    }

    /// Reads overrides from `RIDL_BENCH_SEED`, `RIDL_BENCH_ROWS`,
    /// `RIDL_BENCH_OPS`, `RIDL_BENCH_PR` and `RIDL_BENCH_SESSIONS` on
    /// top of the defaults (seed 1989, 100k rows, 2000 ops, pr 7, 1000
    /// server sessions).
    pub fn from_env() -> Self {
        fn get(var: &str) -> Option<u64> {
            std::env::var(var).ok().and_then(|v| v.parse().ok())
        }
        let mut cfg = Self::default();
        if let Some(v) = get("RIDL_BENCH_SEED") {
            cfg.params.seed = v;
        }
        if let Some(v) = get("RIDL_BENCH_ROWS") {
            cfg.params.target_rows = v as usize;
        }
        if let Some(v) = get("RIDL_BENCH_OPS") {
            cfg.traffic_ops = v as usize;
        }
        if let Some(v) = get("RIDL_BENCH_PR") {
            cfg.pr = v;
        }
        if let Some(v) = get("RIDL_BENCH_SESSIONS") {
            cfg.server_sessions = v as usize;
        }
        cfg
    }
}

/// What one traffic slice did: per-op latency distribution plus the WAL
/// units its committed statements appended.
struct TrafficOutcome {
    latencies: Histogram,
    committed_units: u64,
    /// Row inserts and deletes the committed statements applied.
    rows_changed: u64,
}

/// Executes one slice of the traffic plan against the engine, recording
/// per-op wall-clock latency.
fn run_traffic(
    db: &mut Database,
    targets: &[MutationTarget],
    queries: &[Query],
    plan: &[TrafficOp],
) -> Result<TrafficOutcome, String> {
    let mut latencies = Histogram::new();
    let mut committed_units = 0u64;
    let mut rows_changed = 0u64;
    for op in plan {
        let start = Instant::now();
        match *op {
            TrafficOp::DeleteReinsert(i) => {
                harness::commit_pair(db, &targets[i]);
                committed_units += 2;
                rows_changed += 2;
            }
            TrafficOp::Batch(i) => {
                let t = &targets[i];
                let n = db
                    .apply_batch([
                        BatchOp::delete(t.table.clone(), t.row.clone()),
                        BatchOp::insert(t.table.clone(), t.row.clone()),
                    ])
                    .map_err(|e| format!("traffic batch failed: {e}"))?;
                if n != 2 {
                    return Err(format!("traffic batch changed {n} rows, expected 2"));
                }
                committed_units += 1;
                rows_changed += n as u64;
            }
            TrafficOp::RejectInsert(i) => {
                let t = &targets[i];
                if db.insert(&t.table, t.reject_row.clone()).is_ok() {
                    return Err(format!("duplicate-PK insert into {} was accepted", t.table));
                }
            }
            TrafficOp::PointQuery(i) => {
                let rows = db
                    .select(&queries[i])
                    .map_err(|e| format!("point query failed: {e}"))?;
                if rows.len() != 1 {
                    return Err(format!(
                        "point query matched {} rows, expected 1",
                        rows.len()
                    ));
                }
            }
        }
        latencies.record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    Ok(TrafficOutcome {
        latencies,
        committed_units,
        rows_changed,
    })
}

/// Exercises every verified significant example against the live engine:
/// pads go in as one batch (must be accepted), the tipping row must be
/// rejected with a violation, then the pads come back out. The engine's
/// incremental path must agree with the full validator the generator
/// used as its oracle.
fn run_sigex(db: &mut Database, examples: &[sigex::SignificantExample]) -> Result<(), String> {
    let schema = db.schema().clone();
    let name_of = |tid| schema.table(tid).name.clone();
    for ex in examples {
        if !ex.pads.is_empty() {
            let pads: Vec<BatchOp> = ex
                .pads
                .iter()
                .map(|(tid, row)| BatchOp::insert(name_of(*tid), row.clone()))
                .collect();
            db.apply_batch(pads)
                .map_err(|e| format!("sigex pads for {} rejected: {e}", ex.constraint))?;
        }
        let (tid, row) = &ex.tip;
        if db.insert(&name_of(*tid), row.clone()).is_ok() {
            return Err(format!(
                "sigex tip for {} ({}) was accepted by the engine",
                ex.constraint,
                ex.class.name()
            ));
        }
        if !ex.pads.is_empty() {
            let pads: Vec<BatchOp> = ex
                .pads
                .iter()
                .map(|(tid, row)| BatchOp::delete(name_of(*tid), row.clone()))
                .collect();
            db.apply_batch(pads)
                .map_err(|e| format!("sigex pad removal for {} failed: {e}", ex.constraint))?;
        }
    }
    Ok(())
}

fn quantile_phase(name: &str, seconds: f64, h: &Histogram) -> PhaseStat {
    PhaseStat::with_quantiles(name, seconds, h.count(), h.p50(), h.p90(), h.p99())
}

/// Runs the full macro pipeline once and returns the artifact.
///
/// Fails (with a description, never a panic) when the engine disagrees
/// with the workload's expectations — a rejected batch, an accepted
/// tipping row, a recovery replaying the wrong unit count — so the bench
/// doubles as an end-to-end correctness check.
pub fn run_macro(cfg: &MacroConfig) -> Result<BenchArtifact, String> {
    let p = cfg.params;
    let mut phases = Vec::new();

    // Phase 1 — synthesize the industrial-band BRM schema.
    let t = Instant::now();
    let synth = macrobench::synthesize(&p);
    phases.push(PhaseStat::block("generate", t.elapsed().as_secs_f64(), 1));

    // Phase 2 — RIDL-A analysis + RIDL-M mapping.
    let t = Instant::now();
    let out = macrobench::analyze_and_map(&synth);
    let tables = out.table_count() as u64;
    let constraints = out.rel.constraints.len() as u64;
    phases.push(PhaseStat::block("map", t.elapsed().as_secs_f64(), tables));

    // Phase 3 — calibrated population generation.
    let t = Instant::now();
    let state = macrobench::populate(&synth, &out, &p);
    let pop_rows = state.num_rows() as u64;
    phases.push(PhaseStat::block(
        "populate",
        t.elapsed().as_secs_f64(),
        pop_rows,
    ));

    // Phase 4 — bulk_load into a WAL-backed store (group commit, no
    // auto-checkpoint: the run takes its own).
    let (dir, scratch) = match &cfg.store_dir {
        Some(d) => (d.clone(), false),
        None => (harness::bench_dir("macro"), true),
    };
    let schema = out.rel.clone();
    let rows = scenario::rows_of(&schema, &state);
    // Counter baseline for the durable portion of the run: everything
    // from bulk_load through recovery lands in the wal_metrics diff.
    let wal_obs_before = ridl_obs::snapshot();
    let mut db = Database::open_with(
        Arc::new(StdIo),
        &dir,
        schema.clone(),
        harness::durability(FsyncPolicy::GroupCommit { window_micros: 500 }),
    )
    .map_err(|e| format!("open durable store: {e}"))?;
    let t = Instant::now();
    let rows_loaded = db
        .bulk_load(rows)
        .map_err(|e| format!("bulk_load rejected the calibrated population: {e}"))?
        as u64;
    phases.push(PhaseStat::block(
        "bulk_load",
        t.elapsed().as_secs_f64(),
        rows_loaded,
    ));

    // Traffic setup: probe mutation targets, build their point queries,
    // and split the deterministic plan around the checkpoint.
    let targets = harness::pick_mutation_targets(&mut db, TRAFFIC_TARGETS);
    if targets.is_empty() {
        return Err("no probe-able mutation target in the mapped schema".to_owned());
    }
    let queries: Vec<Query> = targets
        .iter()
        .map(|t| {
            let mut q = Query::from(t.table.as_str());
            q.filter = t.preds.clone();
            q
        })
        .collect();
    let plan = macrobench::plan_traffic(p.seed, cfg.traffic_ops, targets.len());
    let (plan_pre, plan_post) = plan.split_at(plan.len() / 2);
    // The post half is split again around the incremental checkpoint.
    let (plan_churn, plan_tail) = plan_post.split_at(plan_post.len() / 2);

    // Detail on: per-constraint-class check counts and nanoseconds for
    // the interactive phases (traffic, sigex, checkpoint).
    let detail_was = ridl_obs::detail_enabled();
    ridl_obs::set_detail(true);
    let obs_before = ridl_obs::snapshot();

    // Phase 5 — pre-checkpoint mixed traffic.
    let t = Instant::now();
    let pre = run_traffic(&mut db, &targets, &queries, plan_pre)?;
    phases.push(quantile_phase(
        "traffic",
        t.elapsed().as_secs_f64(),
        &pre.latencies,
    ));

    // Phase 6 — significant examples against the live engine.
    let t = Instant::now();
    let examples = sigex::significant_examples(&schema, db.state());
    run_sigex(&mut db, &examples)?;
    phases.push(PhaseStat::block(
        "sigex",
        t.elapsed().as_secs_f64(),
        examples.len() as u64,
    ));
    let sigex_classes: Vec<String> = examples
        .iter()
        .map(|ex| ex.class.name().to_owned())
        .collect();

    // Phase 7 — full checkpoint: a complete v2 base snapshot, WAL
    // truncated, extent geometry frozen for the delta below.
    let t = Instant::now();
    db.checkpoint_full()
        .map_err(|e| format!("checkpoint: {e}"))?;
    let full_seconds = t.elapsed().as_secs_f64();
    let full_stats = db
        .last_checkpoint_stats()
        .ok_or("checkpoint_full recorded no stats")?;
    phases.push(PhaseStat::block("checkpoint", full_seconds, 1));

    // Phase 8 — churn traffic between the two checkpoints.
    let t = Instant::now();
    let churn = run_traffic(&mut db, &targets, &queries, plan_churn)?;
    phases.push(quantile_phase(
        "traffic_post_checkpoint",
        t.elapsed().as_secs_f64(),
        &churn.latencies,
    ));

    // Phase 9 — incremental checkpoint: only the extents the churn
    // dirtied are rewritten. The bench asserts the engine actually chose
    // the delta path and (at real scale) that the delta stays under 20%
    // of the full snapshot — the paper-scale acceptance bound.
    let churn_rows = churn.rows_changed;
    let t = Instant::now();
    db.checkpoint()
        .map_err(|e| format!("delta checkpoint: {e}"))?;
    let delta_seconds = t.elapsed().as_secs_f64();
    let delta_stats = db
        .last_checkpoint_stats()
        .ok_or("delta checkpoint recorded no stats")?;
    phases.push(PhaseStat::block("checkpoint_delta", delta_seconds, 1));
    if delta_stats.kind != ridl_engine::CheckpointKind::Delta {
        return Err(format!(
            "post-churn checkpoint wrote a full snapshot ({} of {} extents) instead of a delta",
            delta_stats.extents_written, delta_stats.extents_total
        ));
    }
    if p.target_rows >= 20_000 && delta_stats.bytes * 5 >= full_stats.bytes {
        return Err(format!(
            "delta checkpoint wrote {} bytes, not under 20% of the {}-byte full snapshot",
            delta_stats.bytes, full_stats.bytes
        ));
    }

    // Phase 10 — tail traffic: everything it commits lives only in the
    // WAL, so recovery below must replay exactly these units.
    let t = Instant::now();
    let post = run_traffic(&mut db, &targets, &queries, plan_tail)?;
    phases.push(quantile_phase(
        "traffic_post_delta",
        t.elapsed().as_secs_f64(),
        &post.latencies,
    ));

    let per_class: Vec<ClassCost> = {
        let diff = ridl_obs::snapshot().since(&obs_before);
        ridl_obs::ConstraintClass::ALL
            .iter()
            .map(|&class| (class, diff.kind(class)))
            .filter(|(_, k)| k.checks > 0)
            .map(|(class, k)| ClassCost {
                class: class.name().to_owned(),
                checks: k.checks,
                violations: k.violations,
                nanos: k.nanos,
            })
            .collect()
    };
    ridl_obs::set_detail(detail_was);

    // Phase 11 — the many-client server bench: closed-loop sessions over
    // the wire protocol against an in-process server on its own durable
    // store. It runs before the simulated crash so the recovery events
    // below stay the newest entries in the bounded journal ring (the
    // flight recorder would otherwise evict them under thousands of
    // session.* events), and before the WAL accounting at the end so its
    // concurrent group commits land in `wal_metrics` (that's where the
    // commits-per-fsync evidence comes from).
    let t = Instant::now();
    let server = crate::server_bench::run_server_bench(cfg.server_sessions)?;
    phases.push(PhaseStat::block(
        "serve",
        t.elapsed().as_secs_f64(),
        server.sessions,
    ));
    if server.anomalies != 0 {
        return Err(format!(
            "server bench observed {} anomalies (see bench.server_anomaly journal events)",
            server.anomalies
        ));
    }

    // Phase 12 — simulated crash + recovery. flush_wal stands in for the
    // group-commit window; dropping the handle without a checkpoint
    // leaves the WAL as the only record of the tail traffic, on top of
    // the base + delta chain.
    db.flush_wal().map_err(|e| format!("flush_wal: {e}"))?;
    let wal_bytes = db.wal_bytes().unwrap_or(0);
    let state_at_crash = db.state().clone();
    drop(db);
    let db = Database::open_with(
        Arc::new(StdIo),
        &dir,
        schema.clone(),
        harness::durability(FsyncPolicy::GroupCommit { window_micros: 500 }),
    )
    .map_err(|e| format!("recovery reopen: {e}"))?;
    let rep = db
        .recovery_report()
        .ok_or("durable reopen produced no recovery report")?
        .clone();
    if rep.units_replayed as u64 != post.committed_units {
        return Err(format!(
            "recovery replayed {} units, expected the {} committed after the delta checkpoint",
            rep.units_replayed, post.committed_units
        ));
    }
    if *db.state() != state_at_crash {
        return Err("recovered state differs from the state at the simulated crash".to_owned());
    }
    let recovery_seconds = rep.elapsed_ns as f64 / 1e9;
    phases.push(PhaseStat::block(
        "recover",
        recovery_seconds,
        rep.ops_replayed as u64,
    ));
    // A replay rate, so over the replay stage alone: the whole recovery
    // also reads, decodes, merges and validates the checkpoint.
    let replay_seconds = rep.stages.replay_ns as f64 / 1e9;
    let replay_ops_per_sec = if replay_seconds > 0.0 {
        rep.ops_replayed as f64 / replay_seconds
    } else {
        0.0
    };

    // The recovered state must still satisfy every generated constraint.
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let violations = ridl_relational::validate_with_workers(db.schema(), db.state(), workers);
    if !violations.is_empty() {
        return Err(format!(
            "recovered state violates {} constraints (first: {})",
            violations.len(),
            violations[0]
        ));
    }
    drop(db);
    if scratch {
        let _ = std::fs::remove_dir_all(&dir);
    }

    // WAL I/O accounting over the whole durable portion of the run:
    // counters as a diff against the pre-open baseline, group-commit and
    // fsync distributions from the global histogram registry (this
    // process only runs the pipeline, so the histograms are the run's).
    let wal_diff = ridl_obs::snapshot().since(&wal_obs_before);
    let group = ridl_obs::hist::summary_named("wal.group_batch").unwrap_or_default();
    let fsync = ridl_obs::hist::summary_named("wal.fsync").unwrap_or_default();
    let wal_metrics = WalMetrics {
        appends: wal_diff.counter("wal.appends"),
        append_bytes: wal_diff.counter("wal.append_bytes"),
        fsyncs: wal_diff.counter("wal.fsyncs"),
        checkpoints: wal_diff.counter("wal.checkpoints"),
        group_batch_p50: group.p50,
        group_batch_max: group.max,
        fsync_p99_ns: fsync.p99,
    };

    Ok(BenchArtifact {
        pr: cfg.pr,
        seed: p.seed,
        target_rows: p.target_rows as u64,
        rows_loaded,
        tables,
        constraints,
        phases,
        per_class,
        wal: WalStats {
            replay_units: rep.units_replayed as u64,
            replay_ops: rep.ops_replayed as u64,
            replay_ops_per_sec,
            bytes: wal_bytes,
        },
        recovery_seconds,
        sigex_examples: examples.len() as u64,
        sigex_classes,
        checkpoint: Some(CheckpointSummary {
            full_bytes: full_stats.bytes,
            full_seconds,
            delta_bytes: delta_stats.bytes,
            delta_seconds,
            dirty_extents: delta_stats.extents_written as u64,
            total_extents: delta_stats.extents_total as u64,
            churn_rows,
        }),
        wal_metrics: Some(wal_metrics),
        server: Some(server),
    })
}
