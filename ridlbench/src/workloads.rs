//! The four workloads and the metrics they report.
//!
//! * `design` — the engineer's loop over industrial schemas: RIDL-A,
//!   RIDL-M under three option sets, the map report and DDL in four
//!   dialects. No engine runs in its measured section.
//! * `oltp` — one closed-loop client of the embedded engine on the
//!   mapped 100k-row store, write-heavy.
//! * `serve` — two closed-loop protocol clients of an in-process server
//!   on the same store, running YCSB workload B over every keyed row.
//! * `restart` — load, checkpoint, churn, checkpoint, tail, crash and
//!   reopen cycles on fresh stores.
//!
//! Every workload builds its inputs from the seed before timing starts,
//! repeats its set-up `setup_reps` times (reporting the median), and ends
//! with a crash check of a store it built.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ridl_core::{MappingOptions, NullOption, SublinkOption, Workbench};
use ridl_engine::{CheckpointStats, FsyncPolicy, Pred, RecoveryReport};
use ridl_obs::MetricsSnapshot;
use ridl_relational::{RelSchema, RelState, Row, TableId};
use ridl_server::json::{obj, Json};
use ridl_server::proto::{encode_rows, encode_value, ok_response};
use ridl_server::{Client, Server, ServerConfig};
use ridl_sqlgen::DialectKind;
use ridl_workloads::macrobench;
use ridl_workloads::synth::{self, GenParams};

use crate::report::{self, Metric, CALLS, CLASSES};
use crate::stats::Samples;
use crate::store::{self, DdlVolume, Recovered};
use crate::trace::{self, BlockStats, Blocks, Tracer, Window};
use crate::traffic::{self, ServeOp, Tally, Traffic};

/// One of the benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The engineer's design loop.
    Design,
    /// The embedded engine, write-heavy.
    Oltp,
    /// The protocol server, read-mostly.
    Serve,
    /// Load, checkpoint, crash and recovery cycles.
    Restart,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Design,
        Workload::Oltp,
        Workload::Serve,
        Workload::Restart,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Design => "design",
            Workload::Oltp => "oltp",
            Workload::Serve => "serve",
            Workload::Restart => "restart",
        }
    }
}

/// Input sizes.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Rows of the mapped store.
    pub rows: usize,
    /// Mutation targets the traffic spreads over.
    pub targets: usize,
    /// Industrial schemas `design` cycles through.
    pub schemas: usize,
    /// Length of the generated `oltp`/`serve` plans (cycled).
    pub plan_ops: usize,
    /// `restart` ops between the full and the incremental checkpoint.
    pub churn_ops: usize,
    /// `restart` ops after the incremental checkpoint.
    pub tail_ops: usize,
    /// Ops before and after the checkpoint of the other crash checks.
    pub check_ops: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Length of a traced or untraced block in a traced run.
    pub block: Duration,
}

/// Units the measured section runs at least, however short `seconds`.
const MIN_UNITS: u64 = 2;

impl Scale {
    /// The sizes `BENCHMARK.json` runs.
    pub fn full() -> Self {
        Scale {
            rows: 100_000,
            targets: 256,
            schemas: 60,
            plan_ops: 150_000,
            churn_ops: 1_000,
            tail_ops: 2_000,
            check_ops: 300,
            setup_reps: 3,
            block: Duration::from_millis(250),
        }
    }

    /// Sizes small enough for `cargo test`.
    pub fn tiny() -> Self {
        Scale {
            rows: 1_500,
            targets: 24,
            schemas: 2,
            plan_ops: 400,
            churn_ops: 60,
            tail_ops: 120,
            check_ops: 40,
            setup_reps: 1,
            block: Duration::from_millis(20),
        }
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Config {
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the measured section.
    pub seconds: f64,
    /// Input sizes.
    pub scale: Scale,
    /// Scratch directory for stores (created and removed by the caller).
    pub work_dir: PathBuf,
}

/// What a run produced.
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// The first failure.
    pub first_failure: Option<String>,
    /// End-to-end metrics (meaningful only untraced).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (meaningful only traced).
    pub per_layer: Vec<Metric>,
    /// Human-readable lines for the report.
    pub notes: Vec<String>,
}

/// The state one run accumulates.
struct Run<'a> {
    cfg: &'a Config,
    tracer: &'a Tracer,
    /// Operations of the measured section.
    measured: Tally,
    /// Set-up verifications and output checks.
    checks: Tally,
    setup: Samples,
    /// Units the measured section finished.
    units: u64,
    read: Samples,
    write: Samples,
    /// Client threads on the blocking path.
    threads: u32,
    /// The measured section's clock.
    blocks: BlockStats,
    /// Peak resident memory during the measured section, in MB.
    peak_rss_mb: f64,
    ddl: DdlVolume,
    explain_rows: (u64, u64),
    full: Option<(CheckpointStats, usize)>,
    recovered: Option<Recovered>,
    recover_other_ns: Option<f64>,
    /// Counters when the measured section started, then (once it ended)
    /// their change over it.
    counters: MetricsSnapshot,
}

fn ns_of(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl<'a> Run<'a> {
    fn dir(&self, name: &str) -> PathBuf {
        self.cfg.work_dir.join(name)
    }

    /// Runs the set-up `setup_reps` times, tearing each earlier copy down
    /// untimed, and keeps the last.
    fn set_up<T>(
        &mut self,
        mut once: impl FnMut(&mut Self) -> Result<T, String>,
        mut teardown: impl FnMut(T) -> Result<(), String>,
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..self.cfg.scale.setup_reps.max(1) {
            if let Some(prev) = last.take() {
                teardown(prev)?;
            }
            let t = Instant::now();
            last = Some(once(self)?);
            self.setup.push(ns_of(t.elapsed()));
        }
        Ok(last.expect("at least one set-up"))
    }

    /// Marks the start of the measured section: the peak-memory mark is
    /// lowered to what set-up left resident, and the counters are read.
    fn begin_measured(&mut self) -> Result<(), String> {
        report::reset_peak_rss()?;
        self.counters = ridl_obs::snapshot();
        Ok(())
    }

    /// Marks the end of the measured section, so neither the set-up
    /// copies nor the output checks (which hold extra copies of the
    /// state) count in its peak memory and counters.
    fn end_measured(&mut self, blocks: BlockStats) -> Result<(), String> {
        self.blocks = blocks;
        self.peak_rss_mb = report::peak_rss_mb()?;
        self.counters = ridl_obs::snapshot().since(&self.counters);
        Ok(())
    }

    fn keep_full(&mut self, stats: CheckpointStats, rows: usize) {
        self.full = Some((stats, rows));
    }

    fn keep_recovery(&mut self, r: Recovered) {
        if let Some(ls) = r.load_state_ns {
            self.recover_other_ns = Some(r.recover_ns as f64 - ls as f64);
        }
        self.recovered = Some(r);
    }

    fn deadline_reached(&self, start: Instant, done: u64) -> bool {
        done >= MIN_UNITS && start.elapsed().as_secs_f64() >= self.cfg.seconds
    }

    /// Times the client side of each target's point-query round trip:
    /// encoding the request line and decoding the server's reply line
    /// (built as the server builds it). The server's share of the codec is
    /// inside its request latency.
    fn measure_codec(&mut self, tr: &Traffic) {
        for t in &tr.targets {
            let rows = encode_rows(std::slice::from_ref(&t.row));
            let reply = ok_response(1, [("rows", rows.clone()), ("version", Json::Int(1))]);
            let (line, parsed) = trace::call("bench.server.client_codec", || {
                (
                    read_request(&t.table, &t.preds),
                    ridl_server::json::parse(&reply),
                )
            });
            let ok = !line.is_empty() && parsed.is_ok_and(|r| r.get("rows") == Some(&rows));
            self.checks.check(ok, || {
                format!("reply line of {} does not round-trip", t.table)
            });
        }
    }

    fn finish(mut self) -> Result<Outcome, String> {
        let tracer = self.tracer;
        tracer.set_window(Window::Check);
        let mut notes = Vec::new();
        let traced_slots = (ns_of(self.blocks.traced_wall()) * u64::from(self.threads)) as f64;
        let accounted = tracer.measured_self_ns() as f64;
        if tracer.enabled() {
            let share = 100.0 * accounted / traced_slots.max(1.0);
            notes.push(format!(
                "blocking path: {share:.1}% of {:.0} ms traced measured time on {} thread(s) \
                 is in layer calls",
                traced_slots / 1e6,
                self.threads
            ));
            self.checks.check(share >= 90.0, || {
                format!("layer self times cover only {share:.1}% of the traced measured time")
            });
            self.checks.check(tracer.dropped() == 0, || {
                format!("{} spans dropped at the collector cap", tracer.dropped())
            });
        }

        let units_per_s = self.units as f64 / self.blocks.total_wall().as_secs_f64().max(1e-9);
        for (label, s) in [
            ("set-up", &mut self.setup),
            ("read", &mut self.read),
            ("write", &mut self.write),
            ("reject", &mut self.measured.reject),
        ] {
            notes.push(describe(label, s));
        }
        let setup_s = self.setup.quantile(0.5).map_or(0.0, |q| q.ns / 1e9);
        let e2e = vec![
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mb", self.peak_rss_mb, "MB"),
            metric("units_per_s", units_per_s, "1/s"),
            metric("read_p50_ms", self.read.median_ms().unwrap_or(0.0), "ms"),
            metric("write_p50_ms", self.write.median_ms().unwrap_or(0.0), "ms"),
        ];

        let mut layers = Vec::new();
        for (name, unit, span) in CALLS {
            let scale = if unit == "us" { 1e3 } else { 1e6 };
            let v = tracer.self_p50_ns(span).map_or(0.0, |ns| ns / scale);
            layers.push(metric(name, v, unit));
        }
        // Work counts are per statement of the measured section, so they
        // do not grow with throughput. `design` issues no statement there
        // and reports 0.
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let classes = self.measured.classes;
        for c in CLASSES {
            let i = c.index();
            layers.push(metric(
                &format!("relational.{}.checks_per_stmt", c.name()),
                ratio(classes.checks[i], classes.statements),
                "checks/stmt",
            ));
            layers.push(metric(
                &format!("relational.{}.check_us_per_stmt", c.name()),
                ratio(classes.nanos[i], classes.statements) / 1e3,
                "us/stmt",
            ));
        }
        let diff = &self.counters;
        let (full_bytes_per_row, rep, delta_bytes, dirty) = {
            let full = self
                .full
                .map_or(0.0, |(s, rows)| ratio(s.bytes, rows as u64));
            match &self.recovered {
                Some(r) => (
                    full,
                    r.report.clone(),
                    r.delta.bytes,
                    r.delta.extents_written,
                ),
                None => (full, RecoveryReport::default(), 0, 0),
            }
        };
        let others: [(&str, f64, &'static str); 17] = [
            ("sqlgen.ddl_kib_per_table", self.ddl.kib_per_table(), "KiB"),
            (
                "query.rows_examined_per_row",
                ratio(self.explain_rows.0, self.explain_rows.1),
                "rows/row",
            ),
            (
                "wal.appends_per_stmt",
                ratio(diff.counter("wal.appends"), self.measured.statements),
                "appends/stmt",
            ),
            (
                "wal.fsyncs_per_commit",
                ratio(diff.counter("wal.fsyncs"), diff.counter("wal.commits")),
                "fsyncs/commit",
            ),
            (
                "wal.bytes_per_unit",
                ratio(
                    diff.counter("wal.append_bytes"),
                    diff.counter("wal.appends"),
                ),
                "bytes",
            ),
            ("checkpoint.full_bytes_per_row", full_bytes_per_row, "bytes"),
            ("checkpoint.delta_bytes", delta_bytes as f64, "bytes"),
            ("checkpoint.dirty_extents", dirty as f64, "count"),
            ("recover.units_replayed", rep.units_replayed as f64, "count"),
            ("recover.deltas_merged", rep.deltas_merged as f64, "count"),
            (
                "recover.wal_kib_scanned",
                rep.wal_bytes_scanned as f64 / 1024.0,
                "KiB",
            ),
            (
                "recover.other_ms",
                self.recover_other_ns.unwrap_or(0.0) / 1e6,
                "ms",
            ),
            (
                "server.commits_per_batch",
                ratio(
                    diff.counter("server.commit_batch_ops"),
                    diff.counter("server.commit_batches"),
                ),
                "count",
            ),
            (
                "server.busy_rejects",
                diff.counter("server.busy_rejects") as f64,
                "count",
            ),
            ("obs.tracing_overhead_pct", self.blocks.overhead_pct(), "%"),
            ("obs.span_dropped", tracer.dropped() as f64, "count"),
            ("unaccounted_ms", (traced_slots - accounted) / 1e6, "ms"),
        ];
        for (name, v, unit) in others {
            layers.push(metric(name, v, unit));
        }
        let (kept, internal) = tracer.span_counts();
        if tracer.enabled() {
            notes.push(format!(
                "spans: {kept} bench spans kept, {internal} internal spans counted"
            ));
        }
        Ok(Outcome {
            attempted: self.measured.attempted + self.checks.attempted,
            failed: self.measured.failed + self.checks.failed,
            first_failure: self.measured.first_failure.or(self.checks.first_failure),
            end_to_end: e2e,
            per_layer: layers,
            notes,
        })
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

/// `label: p50 … (n=…), p90 … (… beyond), p99 … (… beyond)`.
fn describe(label: &str, s: &mut Samples) -> String {
    let mut out = format!("{label}: n={}", s.len());
    for (name, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
        if let Some(q) = s.quantile(q) {
            out.push_str(&format!(
                ", {name} {:.4} ms ({} beyond)",
                q.ns / 1e6,
                q.beyond
            ));
        }
    }
    out
}

/// Runs `w` once.
pub fn run(w: Workload, cfg: &Config, tracer: &Tracer) -> Result<Outcome, String> {
    let mut run = Run {
        cfg,
        tracer,
        measured: Tally::default(),
        checks: Tally::default(),
        setup: Samples::default(),
        units: 0,
        read: Samples::default(),
        write: Samples::default(),
        threads: 1,
        blocks: BlockStats::default(),
        peak_rss_mb: 0.0,
        ddl: DdlVolume::default(),
        explain_rows: (0, 0),
        full: None,
        recovered: None,
        recover_other_ns: None,
        counters: ridl_obs::snapshot(),
    };
    tracer.set_window(Window::Setup);
    match w {
        Workload::Design => design(&mut run)?,
        Workload::Oltp => oltp(&mut run)?,
        Workload::Serve => serve(&mut run)?,
        Workload::Restart => restart(&mut run)?,
    }
    run.finish()
}

const DIALECTS: [DialectKind; 4] = [
    DialectKind::Sql2,
    DialectKind::Oracle,
    DialectKind::Ingres,
    DialectKind::Db2,
];

/// Set-up of the engine workloads: deploy the store and load it.
fn load(run: &mut Run, dir: &std::path::Path, fsync: FsyncPolicy) -> Result<store::Store, String> {
    let sc = &run.cfg.scale;
    let dep = store::deploy(run.cfg.seed, sc.rows, &mut run.ddl)?;
    let st = store::load_store(&dep, dir, fsync, sc.targets, &mut run.checks)?;
    run.explain_rows = st.explain_rows;
    Ok(st)
}

fn design(run: &mut Run) -> Result<(), String> {
    let seed = run.cfg.seed;
    let n = run.cfg.scale.schemas;
    let schemas = run.set_up(
        |_| {
            Ok((0..n as u64)
                .map(|i| synth::generate(&GenParams::industrial(seed.wrapping_add(i))))
                .collect::<Vec<_>>())
        },
        |_| Ok(()),
    )?;
    let options = [
        MappingOptions::new(),
        MappingOptions::new().with_nulls(NullOption::NullNotAllowed),
        MappingOptions::new().with_sublinks(SublinkOption::Together),
    ];
    run.begin_measured()?;
    let mut blocks = Blocks::start(run.tracer, run.cfg.scale.block);
    let start = Instant::now();
    while !run.deadline_reached(start, run.units) {
        let s = &schemas[run.units as usize % schemas.len()];
        let schema = s.schema.clone();
        let (wb, ns) = trace::timed("bench.analyzer.analyze", || Workbench::new(schema));
        run.read.push(ns);
        let mappable = wb.analysis().is_mappable();
        run.measured.check(mappable, || {
            format!("schema {} is not mappable", s.params.seed)
        });
        if mappable {
            let t = Instant::now();
            for opts in &options {
                let out = trace::call("bench.core.map", || wb.map(opts));
                let Ok(out) = out else {
                    run.measured
                        .check(false, || format!("mapping schema {}", s.params.seed));
                    continue;
                };
                let report = trace::call("bench.core.map_report", || wb.map_report(&out));
                let ddls: Vec<_> = DIALECTS
                    .iter()
                    .map(|&kind| {
                        trace::call("bench.sqlgen.ddl", || {
                            ridl_sqlgen::generate_for(&out.rel, kind)
                        })
                    })
                    .collect();
                let tables = out.table_count();
                let ok = tables > 0
                    && !report.forwards.is_empty()
                    && ddls.iter().all(|d| {
                        // Every table gets a section and every constraint at
                        // least one clause, live or commented (INGRES renders
                        // a key both ways).
                        d.table_lines.len() == tables
                            && d.enforced_constraints + d.commented_constraints
                                >= out.rel.constraints.len()
                    });
                run.measured.check(ok, || {
                    format!("design outputs of schema {} are incomplete", s.params.seed)
                });
                for d in &ddls {
                    run.ddl.add(d.text.len(), tables);
                }
            }
            // One sample per schema: the option sets cost different
            // amounts, and a median across them would sit between modes.
            run.write.push(ns_of(t.elapsed()));
        }
        run.units += 1;
        blocks.unit_done();
    }
    run.end_measured(blocks.finish())?;

    // Output check: the seed's industrial mapping deploys as the engine
    // workloads' store, enforces its constraints and survives a crash.
    let fsync = FsyncPolicy::GroupCommit { window_micros: 500 };
    let dir = run.dir("design-check");
    let st = load(run, &dir, fsync)?;
    let check_ops = run.cfg.scale.check_ops;
    let rows = st.db.state().num_rows();
    run.keep_full(
        st.db.last_checkpoint_stats().ok_or("no checkpoint stats")?,
        rows,
    );
    let plan = macrobench::plan_traffic(seed, 2 * check_ops, st.traffic.targets.len());
    let (a, b) = plan.split_at(check_ops);
    let r = store::crash_check(
        st.db,
        &dir,
        fsync,
        &st.traffic,
        a,
        b,
        true,
        None,
        &mut run.checks,
    )?;
    run.keep_recovery(r);
    run.measure_codec(&st.traffic);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn oltp(run: &mut Run) -> Result<(), String> {
    let fsync = FsyncPolicy::GroupCommit { window_micros: 500 };
    let dir = run.dir("oltp");
    let st = run.set_up(|run| load(run, &dir, fsync), |_| Ok(()))?;
    let (mut db, traffic) = (st.db, st.traffic);
    let rows = db.state().num_rows();
    run.keep_full(
        db.last_checkpoint_stats().ok_or("no checkpoint stats")?,
        rows,
    );
    let plan =
        macrobench::plan_traffic(run.cfg.seed, run.cfg.scale.plan_ops, traffic.targets.len());

    run.begin_measured()?;
    let mut blocks = Blocks::start(run.tracer, run.cfg.scale.block);
    let start = Instant::now();
    let mut k = 0usize;
    while !run.deadline_reached(start, k as u64) {
        traffic::execute(&mut db, &traffic, plan[k % plan.len()], &mut run.measured);
        k += 1;
        blocks.unit_done();
    }
    run.end_measured(blocks.finish())?;
    run.units = run.measured.statements;
    run.read.extend(&run.measured.read);
    run.write.extend(&run.measured.write);

    let tail = macrobench::plan_traffic(
        run.cfg.seed ^ 1,
        run.cfg.scale.check_ops,
        traffic.targets.len(),
    );
    let r = store::crash_check(
        db,
        &dir,
        fsync,
        &traffic,
        &[],
        &tail,
        true,
        None,
        &mut run.checks,
    )?;
    run.keep_recovery(r);
    run.measure_codec(&traffic);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// One prepared request of the `serve` traffic.
struct Request {
    line: String,
    expect: Expect,
}

/// What a reply must carry: a point query's rows, or an update's count of
/// changed rows.
enum Expect {
    Rows(Json),
    Changed(i64),
}

/// Key-equality predicates in wire form.
fn wire_preds(preds: &[Pred]) -> Json {
    Json::Arr(
        preds
            .iter()
            .map(|p| match p {
                Pred::Eq(c, v) => obj([
                    ("col", Json::str(c.clone())),
                    ("eq", encode_value(&Some(v.clone()))),
                ]),
                other => unreachable!("rows are addressed by key equality, not {other:?}"),
            })
            .collect(),
    )
}

/// The point query on `table` that `preds` address, as a request line.
fn read_request(table: &str, preds: &[Pred]) -> String {
    obj([
        ("cmd", Json::str("query")),
        ("table", Json::str(table)),
        ("where", wire_preds(preds)),
    ])
    .to_string()
}

/// The request a `serve` plan step issues, with the reply it must get.
fn request(schema: &RelSchema, keys: &[(TableId, &Row)], op: ServeOp) -> Request {
    let (ServeOp::Read(k) | ServeOp::Update(k)) = op;
    let (tid, row) = keys[k];
    let table = schema.table(tid).name.as_str();
    match op {
        ServeOp::Read(_) => {
            let preds = traffic::key_preds(schema, tid, row).expect("keyed rows have a key");
            Request {
                line: read_request(table, &preds),
                expect: Expect::Rows(encode_rows(std::slice::from_ref(row))),
            }
        }
        ServeOp::Update(_) => {
            let op = |kind: &str| {
                obj([
                    ("op", Json::str(kind)),
                    ("table", Json::str(table)),
                    ("row", Json::Arr(row.iter().map(encode_value).collect())),
                ])
            };
            Request {
                line: obj([
                    ("cmd", Json::str("batch")),
                    ("ops", Json::Arr(vec![op("delete"), op("insert")])),
                ])
                .to_string(),
                expect: Expect::Changed(2),
            }
        }
    }
}

/// The requests the `serve` plans issue, one per distinct step, and each
/// plan as indices into them.
fn requests(
    schema: &RelSchema,
    keys: &[(TableId, &Row)],
    plans: &[Vec<ServeOp>],
) -> (Vec<Request>, Vec<Vec<usize>>) {
    let mut index = HashMap::new();
    let mut reqs = Vec::new();
    let plans = plans
        .iter()
        .map(|plan| {
            plan.iter()
                .map(|&op| {
                    *index.entry(op).or_insert_with(|| {
                        reqs.push(request(schema, keys, op));
                        reqs.len() - 1
                    })
                })
                .collect()
        })
        .collect();
    (reqs, plans)
}

/// One `serve` client's closed loop until `stop`; returns its tally and
/// the requests it finished in untraced and traced blocks.
fn client_loop(
    client: &mut Client,
    plan: &[usize],
    reqs: &[Request],
    stop: &AtomicBool,
    phase: &AtomicU64,
) -> (Tally, [u64; 2]) {
    let mut tally = Tally::default();
    let mut units = [0u64; 2];
    let mut k = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let req = &reqs[plan[k % plan.len()]];
        k += 1;
        let (resp, ns) = trace::timed("bench.server.request", || client.send_raw(&req.line));
        tally.statements += 1;
        let ok = match (&resp, &req.expect) {
            (Ok(r), Expect::Rows(rows)) => {
                tally.read.push(ns);
                Client::is_ok(r) && r.get("rows") == Some(rows)
            }
            (Ok(r), Expect::Changed(n)) => {
                tally.write.push(ns);
                Client::is_ok(r) && r.get("changed").and_then(Json::as_i64) == Some(*n)
            }
            (Err(_), _) => false,
        };
        tally.check(ok, || format!("request {} answered {resp:?}", req.line));
        let p = phase.load(Ordering::Relaxed);
        units[(p & 1) as usize] += 1;
    }
    (tally, units)
}

struct Served {
    server: Server,
    clients: Vec<Client>,
    traffic: Traffic,
    initial: RelState,
    /// The distinct requests of the clients' plans.
    reqs: Vec<Request>,
    /// Each client's plan, as indices into `reqs`.
    plans: Vec<Vec<usize>>,
}

fn serve(run: &mut Run) -> Result<(), String> {
    const CLIENTS: usize = 2;
    // As `ridl serve`: the store never fsyncs on commit; the commit
    // pipeline issues one flush per batch.
    let fsync = FsyncPolicy::Never;
    let dir = run.dir("serve");
    let served = run.set_up(
        |run| {
            let st = load(run, &dir, fsync)?;
            let schema = st.db.schema().clone();
            let initial = st.db.state().clone();
            let keys = traffic::keyed_rows(&schema, &initial);
            if keys.is_empty() {
                return Err("no row of the mapped store is addressable by key".into());
            }
            let plans: Vec<Vec<ServeOp>> = (0..CLIENTS as u64)
                .map(|c| traffic::serve_plan(run.cfg.seed ^ c, run.cfg.scale.plan_ops, keys.len()))
                .collect();
            let (reqs, plans) = requests(&schema, &keys, &plans);
            drop(keys);
            let server = trace::call("bench.server.start", || {
                Server::start(st.db, "127.0.0.1:0", ServerConfig::default())
            })
            .map_err(|e| format!("start server: {e}"))?;
            let addr = server.addr().to_string();
            let clients = (0..CLIENTS)
                .map(|_| {
                    let mut c = Client::connect(&addr).map_err(|e| e.to_string())?;
                    c.hello("ridlbench").map_err(|e| e.to_string())?;
                    Ok(c)
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Served {
                server,
                clients,
                traffic: st.traffic,
                initial,
                reqs,
                plans,
            })
        },
        |s| {
            drop(s.clients);
            s.server
                .shutdown()
                .map(drop)
                .map_err(|e| format!("server shutdown: {e}"))
        },
    )?;
    let Served {
        server,
        mut clients,
        traffic,
        initial,
        reqs,
        plans,
    } = served;

    run.begin_measured()?;
    run.threads = CLIENTS as u32;
    let tracer = run.tracer;
    tracer.set_window(Window::Measured);
    tracer.set_active(true);
    let stop = AtomicBool::new(false);
    let phase = AtomicU64::new(u64::from(tracer.enabled()));
    let before = ridl_obs::snapshot();
    let start = Instant::now();
    let mut blocks = BlockStats::default();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(&plans)
            .map(|(c, plan)| {
                let (reqs, stop, phase) = (&reqs, &stop, &phase);
                scope.spawn(move || client_loop(c, plan, reqs, stop, phase))
            })
            .collect();
        let mut block_start = Instant::now();
        loop {
            let left = run.cfg.seconds - start.elapsed().as_secs_f64();
            if left <= 0.0 {
                break;
            }
            std::thread::sleep(run.cfg.scale.block.min(Duration::from_secs_f64(left)));
            let traced = phase.load(Ordering::Relaxed) & 1;
            blocks.wall[traced as usize] += block_start.elapsed();
            block_start = Instant::now();
            if tracer.enabled() {
                tracer.set_active(traced == 0);
                phase.fetch_add(1, Ordering::Relaxed);
            }
        }
        stop.store(true, Ordering::Relaxed);
        let traced = phase.load(Ordering::Relaxed) & 1;
        let out: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("serve client thread"))
            .collect();
        blocks.wall[traced as usize] += block_start.elapsed();
        out
    });
    tracer.set_active(true);
    tracer.set_window(Window::Check);
    run.measured
        .classes
        .add(&ridl_obs::snapshot().since(&before));
    for (tally, units) in results {
        blocks.units[0] += units[0];
        blocks.units[1] += units[1];
        run.measured.classes.statements += units[1];
        run.read.extend(&tally.read);
        run.write.extend(&tally.write);
        run.measured.statements += tally.statements;
        run.measured.attempted += tally.attempted;
        run.measured.failed += tally.failed;
        if run.measured.first_failure.is_none() {
            run.measured.first_failure = tally.first_failure;
        }
    }
    run.end_measured(blocks)?;
    run.units = run.measured.statements;

    drop(clients);
    let db = trace::call("bench.server.shutdown", || server.shutdown())
        .map_err(|e| format!("server shutdown: {e}"))?;
    let busy = ridl_obs::snapshot()
        .since(&before)
        .counter("server.busy_rejects");
    run.checks
        .check(busy == 0, || format!("{busy} requests were refused busy"));
    run.checks.check(*db.state() == initial, || {
        "state after the served traffic differs from the loaded state".to_owned()
    });
    let rows = db.state().num_rows();
    run.keep_full(
        db.last_checkpoint_stats().ok_or("no checkpoint stats")?,
        rows,
    );
    let plan = macrobench::plan_traffic(
        run.cfg.seed ^ 1,
        2 * run.cfg.scale.check_ops,
        traffic.targets.len(),
    );
    let (a, b) = plan.split_at(run.cfg.scale.check_ops);
    let r = store::crash_check(db, &dir, fsync, &traffic, a, b, true, None, &mut run.checks)?;
    run.keep_recovery(r);
    run.measure_codec(&traffic);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn restart(run: &mut Run) -> Result<(), String> {
    let fsync = FsyncPolicy::GroupCommit { window_micros: 500 };
    let dir = run.dir("restart-setup");
    let seed = run.cfg.seed;
    let (dep, traffic) = run.set_up(
        |run| {
            let sc = &run.cfg.scale;
            let dep = store::deploy(seed, sc.rows, &mut run.ddl)?;
            let st = store::load_store(&dep, &dir, fsync, sc.targets, &mut run.checks)?;
            run.explain_rows = st.explain_rows;
            drop(st.db);
            let _ = std::fs::remove_dir_all(&dir);
            Ok((dep, st.traffic))
        },
        |_| Ok(()),
    )?;
    let sc = run.cfg.scale.clone();
    let per_cycle = sc.churn_ops + sc.tail_ops;
    let plan = macrobench::plan_traffic(seed, per_cycle * 4, traffic.targets.len());

    run.begin_measured()?;
    let mut blocks = Blocks::start(run.tracer, sc.block);
    let start = Instant::now();
    while !run.deadline_reached(start, run.units) {
        let k = run.units as usize;
        let cycle_dir = run.dir(&format!("restart-{k}"));
        let mut db = store::create(&cycle_dir, &dep.schema, fsync)?;
        store::bulk_load(&mut db, &dep.rows)?;
        let (full_ns, stats) = store::checkpoint_full(&mut db)?;
        run.write.push(full_ns);
        run.keep_full(stats, dep.rows.len());
        let at = (k % 4) * per_cycle;
        let churn = &plan[at..at + sc.churn_ops];
        let tail = &plan[at + sc.churn_ops..at + per_cycle];
        let r = store::crash_check(
            db,
            &cycle_dir,
            fsync,
            &traffic,
            churn,
            tail,
            k == 0,
            Some(&mut blocks),
            &mut run.measured,
        )?;
        run.read.push(r.recover_ns);
        run.keep_recovery(r);
        blocks
            .untimed(|| std::fs::remove_dir_all(&cycle_dir))
            .map_err(|e| format!("remove {}: {e}", cycle_dir.display()))?;
        run.units += 1;
        blocks.unit_done();
    }
    run.end_measured(blocks.finish())?;
    run.measure_codec(&traffic);
    Ok(())
}
