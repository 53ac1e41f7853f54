//! # ridl-obs — enforcement observability
//!
//! RIDL\*'s value proposition is that the engineer can *see* what the
//! constraint machinery is doing: the paper's RIDL-A/RIDL-M modules report
//! every check and transformation step. After the engine's enforcement
//! went incremental, batched and parallel, its fast paths became invisible
//! — which validation mode ran, which constraint kind dominated, how many
//! index probes a statement cost. This crate is the measuring layer those
//! paths report into:
//!
//! * [`Counter`] — always-on relaxed-atomic counters, a handful of
//!   nanoseconds per increment, safe to leave in release hot paths;
//! * [`EnforcementMetrics`] — the process-wide registry of named counters
//!   plus per-[`ConstraintClass`] check/violation/time accounts, read
//!   through [`snapshot`] and diffed with [`MetricsSnapshot::since`] to
//!   attribute cost to a single statement;
//! * the **detail gate** ([`set_detail`]/[`detail_enabled`]) — per-probe
//!   counters and monotonic-clock timers ([`Stopwatch`]) only run when
//!   detail is explicitly enabled, so the uninstrumented hot path pays
//!   one predictable branch, not two clock reads per check;
//! * [`json`] — the workspace's one JSON value model, parser and writer,
//!   shared by every module that reads or writes JSON;
//! * [`export`] — JSONL snapshot export sharing the
//!   `CRITERION_SUMMARY_JSON` file format/flow, so benches and CI record
//!   metric snapshots alongside timings;
//! * [`span`] — hierarchical span tracing: thread-local nesting,
//!   typed attributes, a bounded global collector, a span-tree renderer,
//!   and Chrome trace-event export gated on `RIDL_TRACE_JSON`
//!   ([`export::chrome_trace`]);
//! * [`hist`] — log-bucketed latency histograms (p50/p90/p99/max per
//!   span name), mergeable across threads so parallel-validator workers
//!   aggregate into one account;
//! * [`journal`] — the flight recorder and the one channel for discrete
//!   events: a bounded, mutex-sharded ring of structured events (WAL
//!   appends, checkpoint decisions, recovery steps, fault injections,
//!   validator worker panics) that is always on and dumped as JSONL on
//!   panic, on recovery, or via `RIDL_JOURNAL_JSONL`.
//!
//! The crate depends on nothing but `std`, so every layer (relational,
//! engine, transform, core, benches) can report into it without cycles.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod hist;
pub mod journal;
pub mod json;
pub mod span;

pub use export::{
    append_summary_snapshot, chrome_trace, init_tracing_from_env, snapshot_jsonl,
    validate_chrome_trace, write_chrome_trace, write_chrome_trace_env, ChromeTraceStats,
};
pub use hist::{histograms_snapshot, render_histograms, summary_named, HistSummary, Histogram};
pub use journal::{JournalEvent, Severity};
pub use span::{
    enter, in_span, render_tree, set_tracing, tracing_enabled, AttrValue, Span, SpanEvent,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// An always-on counter: one relaxed atomic add per increment. Cheap
/// enough for statement-granularity accounting on release hot paths.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (const, so counters can live in statics).
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`, pinning the counter at `u64::MAX` instead of wrapping —
    /// for nanosecond accounts fed by long-running timers, where a silent
    /// wrap would turn an over-full account into a tiny one.
    #[inline]
    pub fn add_saturating(&self, n: u64) {
        let prev = self.0.fetch_add(n, Ordering::Relaxed);
        if prev.checked_add(n).is_none() {
            self.0.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Raises the counter to `n` if it is below (a high-water gauge).
    #[inline]
    pub fn raise_to(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The metrics taxonomy's constraint classes: every relational constraint
/// kind (and the structural checks) maps onto one of these, so per-class
/// cost accounts stay stable as the schema vocabulary grows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConstraintClass {
    /// Arity / NOT NULL / DOMAIN structural checks.
    Structure,
    /// Primary and candidate keys.
    Key,
    /// Foreign keys (both directions).
    ForeignKey,
    /// Occurrence-frequency constraints.
    Frequency,
    /// `C_EQ$` equality-view constraints.
    EqualityView,
    /// `C_SS$` subset-view constraints.
    SubsetView,
    /// `C_EX$` exclusion-view constraints.
    ExclusionView,
    /// `C_TU$` total-union-view constraints.
    TotalUnionView,
    /// `C_CEQ$` conditional-equality (indicator) constraints.
    ConditionalEquality,
    /// Row-local kinds (`C_DE$`, `C_EE$`, `C_VAL$`, `C_CX$`).
    RowLocal,
}

impl ConstraintClass {
    /// Every class, in reporting order.
    pub const ALL: [ConstraintClass; 10] = [
        ConstraintClass::Structure,
        ConstraintClass::Key,
        ConstraintClass::ForeignKey,
        ConstraintClass::Frequency,
        ConstraintClass::EqualityView,
        ConstraintClass::SubsetView,
        ConstraintClass::ExclusionView,
        ConstraintClass::TotalUnionView,
        ConstraintClass::ConditionalEquality,
        ConstraintClass::RowLocal,
    ];

    /// The class's metric name segment.
    pub fn name(self) -> &'static str {
        match self {
            ConstraintClass::Structure => "structure",
            ConstraintClass::Key => "key",
            ConstraintClass::ForeignKey => "foreign_key",
            ConstraintClass::Frequency => "frequency",
            ConstraintClass::EqualityView => "equality_view",
            ConstraintClass::SubsetView => "subset_view",
            ConstraintClass::ExclusionView => "exclusion_view",
            ConstraintClass::TotalUnionView => "total_union_view",
            ConstraintClass::ConditionalEquality => "conditional_equality",
            ConstraintClass::RowLocal => "row_local",
        }
    }

    /// Index into per-class arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The static span name enforcement checks of this class record
    /// under (`validate.<class>`), usable as a histogram key.
    pub fn span_name(self) -> &'static str {
        match self {
            ConstraintClass::Structure => "validate.structure",
            ConstraintClass::Key => "validate.key",
            ConstraintClass::ForeignKey => "validate.foreign_key",
            ConstraintClass::Frequency => "validate.frequency",
            ConstraintClass::EqualityView => "validate.equality_view",
            ConstraintClass::SubsetView => "validate.subset_view",
            ConstraintClass::ExclusionView => "validate.exclusion_view",
            ConstraintClass::TotalUnionView => "validate.total_union_view",
            ConstraintClass::ConditionalEquality => "validate.conditional_equality",
            ConstraintClass::RowLocal => "validate.row_local",
        }
    }
}

/// Check/violation/time account for one [`ConstraintClass`].
#[derive(Debug, Default)]
pub struct KindStats {
    /// Constraint checks run (detail-gated on per-op hot paths).
    pub checks: Counter,
    /// Violations those checks reported.
    pub violations: Counter,
    /// Nanoseconds spent checking (only accumulated while detail is on).
    pub nanos: Counter,
}

impl KindStats {
    const fn new() -> Self {
        Self {
            checks: Counter::new(),
            violations: Counter::new(),
            nanos: Counter::new(),
        }
    }
}

macro_rules! enforcement_counters {
    ($($field:ident => $name:literal),+ $(,)?) => {
        /// The process-wide fixed counter registry. Fields group by layer:
        /// `engine.*` statement accounting, `index.*` maintenance and
        /// probes, `validate.*` validator strategy counts, `transform.*`
        /// mapper activity, `wal.*` durability (appends, fsyncs,
        /// checkpoints, recovery replay), `server.*` the multi-session
        /// front-end (admissions, request mix, commit batching).
        #[derive(Debug)]
        pub struct EnforcementMetrics {
            /// Per-constraint-class check/violation/time accounts.
            pub per_kind: [KindStats; 10],
            $(
                #[doc = concat!("`", $name, "`.")]
                pub $field: Counter,
            )+
        }

        /// The names of the fixed counters, aligned with
        /// [`MetricsSnapshot::counters`].
        pub const COUNTER_NAMES: [&str; enforcement_counters!(@count $($field)+)] =
            [$($name),+];

        impl EnforcementMetrics {
            const fn new() -> Self {
                Self {
                    per_kind: [
                        KindStats::new(), KindStats::new(), KindStats::new(),
                        KindStats::new(), KindStats::new(), KindStats::new(),
                        KindStats::new(), KindStats::new(), KindStats::new(),
                        KindStats::new(),
                    ],
                    $($field: Counter::new(),)+
                }
            }

            fn counter_values(&self) -> [u64; COUNTER_NAMES.len()] {
                [$(self.$field.get()),+]
            }
        }
    };
    (@count $($x:ident)+) => { [$(enforcement_counters!(@one $x)),+].len() };
    (@one $x:ident) => { () };
}

enforcement_counters! {
    statements => "engine.statements",
    statements_delta => "engine.statements.delta",
    statements_full => "engine.statements.full",
    statements_aggregate => "engine.statements.aggregate",
    reverts => "engine.reverts",
    reverted_ops => "engine.reverted_ops",
    undo_high_water => "engine.undo_high_water",
    batches => "engine.batches",
    batch_ops => "engine.batch_ops",
    bulk_loads => "engine.bulk_loads",
    bulk_rows => "engine.bulk_rows",
    explains => "engine.explains",
    key_probes => "index.key_probes",
    sel_probes => "index.sel_probes",
    index_inserts => "index.inserts",
    index_removes => "index.removes",
    index_builds => "index.builds",
    index_charge_rows => "index.charge_rows",
    parallel_validations => "validate.parallel_runs",
    sequential_validations => "validate.sequential_runs",
    worker_panics => "validate.worker_panics",
    transform_firings => "transform.firings",
    wal_appends => "wal.appends",
    wal_append_bytes => "wal.append_bytes",
    wal_fsyncs => "wal.fsyncs",
    wal_commits => "wal.commits",
    wal_checkpoints => "wal.checkpoints",
    wal_recoveries => "wal.recoveries",
    wal_replayed_ops => "wal.recovery.replayed_ops",
    wal_discarded_bytes => "wal.recovery.discarded_bytes",
    span_dropped => "span.dropped",
    journal_events => "journal.events",
    journal_overwritten => "journal.overwritten",
    snapshots_taken => "engine.snapshots",
    server_sessions => "server.sessions",
    server_sessions_peak => "server.sessions.peak",
    server_admission_rejects => "server.admission_rejects",
    server_requests => "server.requests",
    server_reads => "server.reads",
    server_writes => "server.writes",
    server_proto_errors => "server.proto_errors",
    server_commit_batches => "server.commit_batches",
    server_commit_batch_ops => "server.commit_batch_ops",
}

static METRICS: EnforcementMetrics = EnforcementMetrics::new();

/// The process-wide metrics registry.
#[inline]
pub fn metrics() -> &'static EnforcementMetrics {
    &METRICS
}

/// Point-in-time reading of one [`ConstraintClass`] account.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct KindSnapshot {
    /// Checks run.
    pub checks: u64,
    /// Violations reported.
    pub violations: u64,
    /// Nanoseconds spent (zero unless detail was on).
    pub nanos: u64,
}

/// Point-in-time reading of every fixed counter; diff two snapshots with
/// [`MetricsSnapshot::since`] to attribute activity to one statement or
/// one run. Fixed-size (no allocation), so taking one is cheap.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MetricsSnapshot {
    /// Per-class accounts, indexed by [`ConstraintClass::index`].
    pub per_kind: [KindSnapshot; 10],
    /// Fixed counter values, aligned with [`COUNTER_NAMES`].
    pub counters: [u64; COUNTER_NAMES.len()],
}

/// Reads every counter.
pub fn snapshot() -> MetricsSnapshot {
    let mut per_kind = [KindSnapshot::default(); 10];
    for class in ConstraintClass::ALL {
        let s = &METRICS.per_kind[class.index()];
        per_kind[class.index()] = KindSnapshot {
            checks: s.checks.get(),
            violations: s.violations.get(),
            nanos: s.nanos.get(),
        };
    }
    MetricsSnapshot {
        per_kind,
        counters: METRICS.counter_values(),
    }
}

impl MetricsSnapshot {
    /// The activity between `earlier` and `self` (saturating, so a counter
    /// reset elsewhere cannot underflow).
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for i in 0..out.per_kind.len() {
            out.per_kind[i] = KindSnapshot {
                checks: self.per_kind[i]
                    .checks
                    .saturating_sub(earlier.per_kind[i].checks),
                violations: self.per_kind[i]
                    .violations
                    .saturating_sub(earlier.per_kind[i].violations),
                nanos: self.per_kind[i]
                    .nanos
                    .saturating_sub(earlier.per_kind[i].nanos),
            };
        }
        for i in 0..out.counters.len() {
            out.counters[i] = self.counters[i].saturating_sub(earlier.counters[i]);
        }
        out
    }

    /// The value of a fixed counter by its metric name.
    pub fn counter(&self, name: &str) -> u64 {
        COUNTER_NAMES
            .iter()
            .position(|n| *n == name)
            .map(|i| self.counters[i])
            .unwrap_or(0)
    }

    /// The account of one constraint class.
    pub fn kind(&self, class: ConstraintClass) -> KindSnapshot {
        self.per_kind[class.index()]
    }
}

// ---- the detail gate ----

static DETAIL: AtomicBool = AtomicBool::new(false);

/// Turns detailed instrumentation (per-probe counters, per-check timers)
/// on or off.
pub fn set_detail(on: bool) {
    DETAIL.store(on, Ordering::Relaxed);
}

/// Whether detailed instrumentation is on: one relaxed load, the only cost
/// the uninstrumented hot path pays per probe.
#[inline]
pub fn detail_enabled() -> bool {
    DETAIL.load(Ordering::Relaxed)
}

/// A monotonic-clock stopwatch that reads the clock only while
/// [`detail_enabled`] — free (a `None`) otherwise.
#[derive(Debug)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Starts timing if detail is on.
    #[inline]
    pub fn start() -> Self {
        Self(detail_enabled().then(Instant::now))
    }

    /// Elapsed nanoseconds, or zero when timing was off. Saturates at
    /// `u64::MAX` (~584 years) instead of silently truncating the `u128`
    /// reading — a wrap would report a huge elapsed time as a tiny one.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.0
            .map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0)
    }

    /// Adds the elapsed time to `account` (no-op when timing was off),
    /// saturating rather than wrapping on overflow.
    #[inline]
    pub fn record(&self, account: &Counter) {
        if self.0.is_some() {
            account.add_saturating(self.elapsed_ns());
        }
    }
}

// ---- labeled counters (cold paths: transform rules, ad-hoc events) ----

use std::collections::BTreeMap;
use std::sync::Mutex;

static LABELS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

/// Adds `n` to a dynamically named counter (a mutex-guarded map — for cold
/// paths like transformation-rule firings, not per-row work).
pub fn count_label(name: &str, n: u64) {
    let mut map = LABELS.lock().expect("label registry poisoned");
    *map.entry(name.to_owned()).or_insert(0) += n;
}

/// All labeled counters, sorted by name.
pub fn labels_snapshot() -> Vec<(String, u64)> {
    LABELS
        .lock()
        .expect("label registry poisoned")
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_snapshots_diff() {
        let before = snapshot();
        metrics().statements.add(3);
        metrics().per_kind[ConstraintClass::Key.index()]
            .checks
            .add(2);
        let delta = snapshot().since(&before);
        assert_eq!(delta.counter("engine.statements"), 3);
        assert_eq!(delta.kind(ConstraintClass::Key).checks, 2);
        assert_eq!(delta.counter("no.such.metric"), 0);
    }

    #[test]
    fn high_water_gauge_only_raises() {
        let c = Counter::new();
        c.raise_to(10);
        c.raise_to(4);
        assert_eq!(c.get(), 10);
        c.raise_to(11);
        assert_eq!(c.get(), 11);
    }

    #[test]
    fn stopwatch_is_free_when_detail_off() {
        set_detail(false);
        let sw = Stopwatch::start();
        assert_eq!(sw.elapsed_ns(), 0);
        set_detail(true);
        let sw = Stopwatch::start();
        std::hint::black_box(0u64);
        let c = Counter::new();
        sw.record(&c);
        set_detail(false);
    }

    #[test]
    fn counter_add_saturates_at_max() {
        let c = Counter::new();
        c.add_saturating(u64::MAX - 1);
        c.add_saturating(5);
        assert_eq!(c.get(), u64::MAX);
        c.add_saturating(1);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn since_clamps_concurrent_resets_to_zero() {
        // A snapshot taken "later" can read lower values if another
        // thread reset or replaced a counter; the diff must clamp to
        // zero, never underflow.
        let mut earlier = snapshot();
        earlier.counters[0] = u64::MAX;
        earlier.per_kind[0].nanos = u64::MAX;
        let diff = snapshot().since(&earlier);
        assert_eq!(diff.counters[0], 0);
        assert_eq!(diff.per_kind[0].nanos, 0);
    }

    #[test]
    fn labeled_counters_accumulate() {
        count_label("test.rule.alpha", 2);
        count_label("test.rule.alpha", 1);
        let labels = labels_snapshot();
        let v = labels
            .iter()
            .find(|(k, _)| k == "test.rule.alpha")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(v >= 3);
    }
}
