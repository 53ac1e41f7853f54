//! The `BENCH_<pr>.json` trajectory artifact: a schema-versioned summary
//! of one macro-benchmark run, written per PR so successive sessions (and
//! re-anchors) can read the performance trajectory of the repo without
//! re-running old builds.
//!
//! [`BenchArtifact::to_json`] renders the artifact through the
//! workspace's one JSON module (`ridl_obs::json`: compact output with
//! sorted keys), and [`BenchArtifact::from_json`] is the matching typed
//! decoder, run by CI and by `ridl benchcheck`: every key is read from
//! the object that owns it, every number must be finite and of the right
//! kind, and `schema_version` decides which optional blocks must be
//! present.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use ridl_obs::json::{self, obj, Json};

/// Artifact schema version; bump when the layout changes shape.
///
/// v2 adds the `checkpoint` object (full-vs-incremental snapshot cost).
/// v3 adds the `wal_metrics` object (append/fsync/group-commit/recovery
/// observability counters) and emits `null` — not a misleading literal
/// `0` — for the percentile fields of block-timed phases that have no
/// per-unit latency distribution.
/// v4 adds the `server` object: the many-client closed-loop server bench
/// (sessions served, admission/backpressure rejects, client-observed
/// read/write latency, reader latency under a write burst, and the
/// cross-session commit-pipeline batch distribution). The decoder still
/// accepts v1–v3 artifacts committed by earlier PRs.
pub const SCHEMA_VERSION: u64 = 4;

/// One timed phase of the macro run.
#[derive(Clone, PartialEq, Debug)]
pub struct PhaseStat {
    /// Phase name (`generate`, `map`, `populate`, `bulk_load`,
    /// `traffic`, `sigex`, `checkpoint`, `traffic_post_checkpoint`,
    /// `checkpoint_delta`, `traffic_post_delta`, `recover`).
    pub name: String,
    /// Wall-clock seconds for the whole phase.
    pub seconds: f64,
    /// Work units processed (rows, ops, tables… — see the phase name).
    pub units: u64,
    /// Units per second (zero when `seconds` is zero).
    pub per_second: f64,
    /// Median per-unit latency in nanoseconds; `None` (emitted as JSON
    /// `null`) when the phase was timed as a block rather than per unit —
    /// a block-timed phase has no latency distribution, and a literal `0`
    /// would read as "instant".
    pub p50_ns: Option<u64>,
    /// 90th-percentile per-unit latency (`None` for block-timed phases).
    pub p90_ns: Option<u64>,
    /// 99th-percentile per-unit latency (`None` for block-timed phases).
    pub p99_ns: Option<u64>,
}

impl PhaseStat {
    /// A block-timed phase (no per-unit latency distribution).
    pub fn block(name: &str, seconds: f64, units: u64) -> Self {
        Self {
            p50_ns: None,
            p90_ns: None,
            p99_ns: None,
            ..Self::with_quantiles(name, seconds, units, 0, 0, 0)
        }
    }

    /// A phase with per-unit latency quantiles.
    pub fn with_quantiles(
        name: &str,
        seconds: f64,
        units: u64,
        p50_ns: u64,
        p90_ns: u64,
        p99_ns: u64,
    ) -> Self {
        let per_second = if seconds > 0.0 {
            units as f64 / seconds
        } else {
            0.0
        };
        Self {
            name: name.to_owned(),
            seconds,
            units,
            per_second,
            p50_ns: Some(p50_ns),
            p90_ns: Some(p90_ns),
            p99_ns: Some(p99_ns),
        }
    }
}

/// Validation cost attributed to one constraint class over the traffic
/// and significant-example phases (from the obs per-kind counters; the
/// nanoseconds require the detail gate, which the driver turns on).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ClassCost {
    /// Constraint-class name (`key`, `foreign_key`, …).
    pub class: String,
    /// Checks run.
    pub checks: u64,
    /// Violations reported (rejected statements produce these).
    pub violations: u64,
    /// Nanoseconds spent checking.
    pub nanos: u64,
}

/// WAL replay statistics from the crash-recovery phase.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct WalStats {
    /// Committed units replayed on reopen.
    pub replay_units: u64,
    /// Row operations replayed.
    pub replay_ops: u64,
    /// Replay throughput in row ops per second of the recovery's replay
    /// stage (not of the whole recovery).
    pub replay_ops_per_sec: f64,
    /// WAL bytes on disk at the simulated crash.
    pub bytes: u64,
}

/// WAL/checkpoint observability counters from the traffic phases (schema
/// v3): what the durability instrumentation recorded while the macro
/// run's commits flowed through the engine. Latency fields come from the
/// detail-gated `wal.fsync` histogram and are zero when the driver ran
/// without the detail gate.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WalMetrics {
    /// WAL units appended (`wal.appends` counter).
    pub appends: u64,
    /// Bytes appended (`wal.append_bytes` counter).
    pub append_bytes: u64,
    /// fsync calls from the commit path (`wal.fsyncs` counter).
    pub fsyncs: u64,
    /// Checkpoints written (`wal.checkpoints` counter).
    pub checkpoints: u64,
    /// Median group-commit batch size (commits per fsync, from the
    /// `wal.group_batch` histogram).
    pub group_batch_p50: u64,
    /// Largest group-commit batch observed.
    pub group_batch_max: u64,
    /// 99th-percentile fsync latency in nanoseconds (detail gate only).
    pub fsync_p99_ns: u64,
}

/// The many-client closed-loop server benchmark (schema v4): N sessions
/// over the wire protocol against one `ridl-server` instance, mixed
/// read/write traffic, a deliberate admission-control overload wave, and
/// a write burst with concurrent latency-probing readers.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct ServerSummary {
    /// Total client sessions served (connect → hello → … → disconnect).
    pub sessions: u64,
    /// Peak concurrently admitted sessions.
    pub peak_sessions: u64,
    /// Connections rejected by admission control during the overload
    /// wave (`session.reject` / `server.admission_rejects`).
    pub admission_rejects: u64,
    /// Requests rejected by backpressure (in-flight or queue limits).
    pub busy_rejects: u64,
    /// Read statements served from published snapshots.
    pub reads: u64,
    /// Write statements committed through the pipeline.
    pub writes: u64,
    /// Correctness violations observed by the closed loop: a failed
    /// expected-ok statement, a non-monotonic snapshot version, a
    /// connection neither admitted nor cleanly rejected, or a final row
    /// count that disagrees with the acknowledged writes. Must be zero.
    pub anomalies: u64,
    /// Wall-clock seconds for the whole server bench (`server_seconds`).
    pub seconds: f64,
    /// Reads + writes per wall-clock second (`server_ops_per_sec`).
    pub ops_per_sec: f64,
    /// Client-observed read latency, median.
    pub read_p50_ns: u64,
    /// Client-observed read latency, 99th percentile.
    pub read_p99_ns: u64,
    /// Client-observed write (commit-acknowledged) latency, median.
    pub write_p50_ns: u64,
    /// Client-observed write latency, 99th percentile.
    pub write_p99_ns: u64,
    /// Reader-observed p99 latency *during the write burst* — the
    /// snapshot-read isolation evidence (readers never block on the
    /// writer).
    pub burst_read_p99_ns: u64,
    /// Median commit-pipeline batch size (concurrent writers coalesced
    /// per WAL fsync; >1 under concurrent write load).
    pub commit_batch_p50: u64,
    /// Largest commit-pipeline batch observed.
    pub commit_batch_max: u64,
}

/// Full-vs-incremental checkpoint cost from the macro run (schema v2).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CheckpointSummary {
    /// Bytes of the full (base) v2 snapshot.
    pub full_bytes: u64,
    /// Wall-clock seconds to write the full snapshot.
    pub full_seconds: f64,
    /// Bytes of the incremental (delta) snapshot taken after churn.
    pub delta_bytes: u64,
    /// Wall-clock seconds to write the delta.
    pub delta_seconds: f64,
    /// Extents the delta rewrote.
    pub dirty_extents: u64,
    /// Extents in the full geometry.
    pub total_extents: u64,
    /// Row operations committed between the two checkpoints.
    pub churn_rows: u64,
}

/// The complete per-PR benchmark artifact.
#[derive(Clone, PartialEq, Debug)]
pub struct BenchArtifact {
    /// PR number this artifact belongs to (`BENCH_<pr>.json`).
    pub pr: u64,
    /// Seed of the run.
    pub seed: u64,
    /// Requested approximate row count.
    pub target_rows: u64,
    /// Rows actually loaded by `bulk_load`.
    pub rows_loaded: u64,
    /// Mapped tables in the schema.
    pub tables: u64,
    /// Generated constraints in the schema.
    pub constraints: u64,
    /// Timed phases, in execution order.
    pub phases: Vec<PhaseStat>,
    /// Per-constraint-class validation cost.
    pub per_class: Vec<ClassCost>,
    /// WAL replay statistics.
    pub wal: WalStats,
    /// Crash-recovery wall-clock seconds (from the engine's always-on
    /// recovery timer).
    pub recovery_seconds: f64,
    /// Verified significant examples exercised against the engine.
    pub sigex_examples: u64,
    /// Constraint classes those examples covered.
    pub sigex_classes: Vec<String>,
    /// Checkpoint cost summary (required at [`SCHEMA_VERSION`] 2).
    pub checkpoint: Option<CheckpointSummary>,
    /// WAL observability counters (required at [`SCHEMA_VERSION`] 3).
    pub wal_metrics: Option<WalMetrics>,
    /// Many-client server bench (required at [`SCHEMA_VERSION`] 4).
    pub server: Option<ServerSummary>,
}

/// A float for the artifact: non-finite values become `0` (the decoder
/// accepts only numbers here, so the writer must never emit the `null`
/// a non-finite [`Json::Float`] renders as; phases guard their own
/// divisions).
fn num(v: f64) -> Json {
    Json::Float(if v.is_finite() { v } else { 0.0 })
}

/// One JSON object under decode. Errors name the object's path and the
/// key, so a misplaced block reads as missing from where it belongs.
struct Fields<'a> {
    map: &'a BTreeMap<String, Json>,
    path: String,
}

impl<'a> Fields<'a> {
    fn of(v: &'a Json, path: String) -> Result<Self, String> {
        match v {
            Json::Obj(map) => Ok(Self { map, path }),
            _ => Err(format!("{path} is not an object")),
        }
    }

    fn typed<T>(
        &self,
        key: &str,
        kind: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        let v = self
            .map
            .get(key)
            .ok_or_else(|| format!("{} is missing \"{key}\"", self.path))?;
        read(v).ok_or_else(|| format!("{}.{key} is not {kind}", self.path))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "a non-negative integer", Json::as_u64)
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "a number", Json::as_f64)
    }

    fn string(&self, key: &str) -> Result<String, String> {
        self.typed(key, "a string", |v| v.as_str().map(str::to_owned))
    }

    /// A percentile of a phase: `null` when block-timed.
    fn opt_u64(&self, key: &str) -> Result<Option<u64>, String> {
        self.typed(key, "null or a non-negative integer", |v| match v {
            Json::Null => Some(None),
            v => v.as_u64().map(Some),
        })
    }

    fn object(&self, key: &str) -> Result<Fields<'a>, String> {
        let v = self.typed(key, "an object", Some)?;
        Fields::of(v, format!("{}.{key}", self.path))
    }

    /// A non-empty array of objects, each decoded by `decode`.
    fn list<T>(
        &self,
        key: &str,
        decode: impl Fn(&Fields<'a>) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let items = self.typed(key, "an array", Json::as_arr)?;
        if items.is_empty() {
            return Err(format!("{}.{key} is empty", self.path));
        }
        items
            .iter()
            .enumerate()
            .map(|(i, v)| decode(&Fields::of(v, format!("{}.{key}[{i}]", self.path))?))
            .collect()
    }
}

/// Generates `json`/`from_fields` for a flat artifact object. Each
/// field names its kind — `int` (`u64`), `num` (finite `f64`), `str`
/// (`String`) or `opt` (`Option<u64>`, `null` when absent) — and its JSON
/// key, which is the artifact's schema.
macro_rules! json_block {
    ($ty:ident { $($field:ident: $kind:ident $key:literal),+ $(,)? }) => {
        impl $ty {
            fn json(&self) -> Json {
                obj([$(($key, json_block!(@enc $kind self.$field))),+])
            }

            fn from_fields(f: &Fields) -> Result<Self, String> {
                Ok(Self { $($field: json_block!(@dec $kind f $key)),+ })
            }
        }
    };
    (@enc num $v:expr) => { num($v) };
    (@enc str $v:expr) => { Json::from($v.as_str()) };
    (@enc $kind:ident $v:expr) => { Json::from($v) };
    (@dec int $f:ident $key:literal) => { $f.u64($key)? };
    (@dec num $f:ident $key:literal) => { $f.f64($key)? };
    (@dec str $f:ident $key:literal) => { $f.string($key)? };
    (@dec opt $f:ident $key:literal) => { $f.opt_u64($key)? };
}

json_block!(PhaseStat {
    name: str "name",
    seconds: num "seconds",
    units: int "units",
    per_second: num "per_second",
    p50_ns: opt "p50_ns",
    p90_ns: opt "p90_ns",
    p99_ns: opt "p99_ns",
});

json_block!(ClassCost {
    class: str "class",
    checks: int "checks",
    violations: int "violations",
    nanos: int "nanos",
});

json_block!(WalStats {
    replay_units: int "replay_units",
    replay_ops: int "replay_ops",
    replay_ops_per_sec: num "replay_ops_per_sec",
    bytes: int "bytes",
});

json_block!(CheckpointSummary {
    full_bytes: int "full_bytes",
    full_seconds: num "full_seconds",
    delta_bytes: int "delta_bytes",
    delta_seconds: num "delta_seconds",
    dirty_extents: int "dirty_extents",
    total_extents: int "total_extents",
    churn_rows: int "churn_rows",
});

json_block!(WalMetrics {
    appends: int "appends",
    append_bytes: int "append_bytes",
    fsyncs: int "fsyncs",
    checkpoints: int "checkpoints",
    group_batch_p50: int "group_batch_p50",
    group_batch_max: int "group_batch_max",
    fsync_p99_ns: int "fsync_p99_ns",
});

json_block!(ServerSummary {
    sessions: int "sessions",
    peak_sessions: int "peak_sessions",
    admission_rejects: int "admission_rejects",
    busy_rejects: int "busy_rejects",
    reads: int "reads",
    writes: int "writes",
    anomalies: int "anomalies",
    seconds: num "server_seconds",
    ops_per_sec: num "server_ops_per_sec",
    read_p50_ns: int "read_p50_ns",
    read_p99_ns: int "read_p99_ns",
    write_p50_ns: int "write_p50_ns",
    write_p99_ns: int "write_p99_ns",
    burst_read_p99_ns: int "burst_read_p99_ns",
    commit_batch_p50: int "commit_batch_p50",
    commit_batch_max: int "commit_batch_max",
});

impl BenchArtifact {
    /// Renders the artifact as one line of compact JSON with sorted keys,
    /// stamped with [`SCHEMA_VERSION`].
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("schema_version", Json::from(SCHEMA_VERSION)),
            ("pr", self.pr.into()),
            ("seed", self.seed.into()),
            ("target_rows", self.target_rows.into()),
            ("rows_loaded", self.rows_loaded.into()),
            ("tables", self.tables.into()),
            ("constraints", self.constraints.into()),
            (
                "phases",
                Json::Arr(self.phases.iter().map(PhaseStat::json).collect()),
            ),
            (
                "per_class",
                Json::Arr(self.per_class.iter().map(ClassCost::json).collect()),
            ),
            ("wal", self.wal.json()),
            ("recovery", obj([("seconds", num(self.recovery_seconds))])),
            (
                "sigex",
                obj([
                    ("examples", self.sigex_examples.into()),
                    (
                        "classes",
                        Json::Arr(
                            self.sigex_classes
                                .iter()
                                .map(|c| c.as_str().into())
                                .collect(),
                        ),
                    ),
                ]),
            ),
        ];
        if let Some(c) = &self.checkpoint {
            fields.push(("checkpoint", c.json()));
        }
        if let Some(w) = &self.wal_metrics {
            fields.push(("wal_metrics", w.json()));
        }
        if let Some(s) = &self.server {
            fields.push(("server", s.json()));
        }
        format!("{}\n", obj(fields))
    }

    /// Decodes a parsed artifact of any schema version from 1 to
    /// [`SCHEMA_VERSION`]. `checkpoint` is required from v2,
    /// `wal_metrics` from v3 and `server` from v4; an older artifact
    /// decodes with those blocks `None`. `phases` and `per_class` must be
    /// non-empty.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let top = Fields::of(v, "artifact".into())?;
        let version = top.u64("schema_version")?;
        if !(1..=SCHEMA_VERSION).contains(&version) {
            return Err(format!("unsupported artifact schema_version {version}"));
        }
        let since = |key: &str, first: u64| (version >= first).then(|| top.object(key)).transpose();
        let sigex = top.object("sigex")?;
        Ok(Self {
            pr: top.u64("pr")?,
            seed: top.u64("seed")?,
            target_rows: top.u64("target_rows")?,
            rows_loaded: top.u64("rows_loaded")?,
            tables: top.u64("tables")?,
            constraints: top.u64("constraints")?,
            phases: top.list("phases", PhaseStat::from_fields)?,
            per_class: top.list("per_class", ClassCost::from_fields)?,
            wal: WalStats::from_fields(&top.object("wal")?)?,
            recovery_seconds: top.object("recovery")?.f64("seconds")?,
            sigex_examples: sigex.u64("examples")?,
            sigex_classes: sigex.typed("classes", "an array of strings", |v| {
                v.as_arr()?
                    .iter()
                    .map(|c| c.as_str().map(str::to_owned))
                    .collect()
            })?,
            checkpoint: since("checkpoint", 2)?
                .map(|f| CheckpointSummary::from_fields(&f))
                .transpose()?,
            wal_metrics: since("wal_metrics", 3)?
                .map(|f| WalMetrics::from_fields(&f))
                .transpose()?,
            server: since("server", 4)?
                .map(|f| ServerSummary::from_fields(&f))
                .transpose()?,
        })
    }

    /// Writes the artifact to `path` (the JSON is decoded again first, so
    /// a buggy writer fails loudly instead of committing a bad artifact).
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let text = self.to_json();
        validate_artifact(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        std::fs::write(path, text)
    }
}

/// Parses and decodes the text of a `BENCH_*.json` artifact: one
/// well-formed JSON document that [`BenchArtifact::from_json`] accepts.
pub fn validate_artifact(text: &str) -> Result<BenchArtifact, String> {
    BenchArtifact::from_json(&json::parse(text)?)
}

/// Asserts that incremental checkpoints scale with *churn*, not with
/// *state size*, across two artifacts from the same traffic plan at
/// different row counts:
///
/// 1. both runs wrote non-empty full and delta snapshots;
/// 2. the large run holds at least 3x the rows of the small one (the
///    ratio test below needs real separation between the scales);
/// 3. when a run is at real scale (`target_rows >= 20_000`) its delta is
///    under 20% of its full snapshot — the acceptance bound;
/// 4. in both runs the delta rewrote at most `churn_rows` extents: the
///    unit of rewrite is the dirtied extent, and churn touches at most
///    one extent per committed row op, so a dirty count above it means
///    the tracking rewrote state it didn't have to;
/// 5. the delta/full byte ratio must *shrink* as state grows (to at most
///    3/4 of the small run's ratio): the churn is the same at both
///    scales, so a delta tracking state keeps a constant ratio while a
///    churn-bound delta's share of the snapshot falls away.
///
/// Absolute delta bytes are deliberately not compared: with only a
/// handful of hot rows, extent quantization (a dirtied extent rewrites
/// all ~128 of its rows) lets the byte count creep with scale even
/// though the rewrite is churn-bound; the ratio and the dirty-extent
/// count are the quantization-immune observables.
pub fn check_checkpoint_scaling(
    small: &BenchArtifact,
    large: &BenchArtifact,
) -> Result<(), String> {
    let mut ratios = [0.0f64; 2];
    for (i, (art, which)) in [(small, "small"), (large, "large")].into_iter().enumerate() {
        let c = art
            .checkpoint
            .as_ref()
            .ok_or(format!("{which} artifact has no checkpoint object"))?;
        let (full, delta) = (c.full_bytes, c.delta_bytes);
        if full == 0 || delta == 0 {
            return Err(format!(
                "{which} run wrote an empty snapshot (full {full} bytes, delta {delta} bytes)"
            ));
        }
        if art.target_rows >= 20_000 && delta * 5 >= full {
            return Err(format!(
                "{which} delta wrote {delta} bytes, not under 20% of the {full}-byte full snapshot"
            ));
        }
        if c.dirty_extents > c.churn_rows {
            return Err(format!(
                "{which} delta rewrote {} extents for only {} churned row ops — \
                 incremental checkpoints are tracking state size, not churn",
                c.dirty_extents, c.churn_rows
            ));
        }
        ratios[i] = delta as f64 / full as f64;
    }
    let (small_rows, large_rows) = (small.rows_loaded, large.rows_loaded);
    if large_rows < 3 * small_rows {
        return Err(format!(
            "large run loaded {large_rows} rows, need at least 3x the small run's {small_rows}"
        ));
    }
    let [small_ratio, large_ratio] = ratios;
    if large_ratio > 0.75 * small_ratio {
        return Err(format!(
            "delta/full ratio went {small_ratio:.4} -> {large_ratio:.4} as state grew \
             {:.2}x — incremental checkpoints are tracking state size, not churn",
            large_rows as f64 / small_rows as f64
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchArtifact {
        BenchArtifact {
            pr: 7,
            seed: 1989,
            target_rows: 1000,
            rows_loaded: 1042,
            tables: 130,
            constraints: 410,
            phases: vec![
                PhaseStat::block("generate", 0.5, 1),
                PhaseStat::with_quantiles("traffic", 1.25, 200, 10_000, 20_000, 40_000),
            ],
            per_class: vec![ClassCost {
                class: "key".into(),
                checks: 123,
                violations: 4,
                nanos: 55_000,
            }],
            wal: WalStats {
                replay_units: 100,
                replay_ops: 200,
                replay_ops_per_sec: 12_345.6,
                bytes: 4096,
            },
            recovery_seconds: 0.012,
            sigex_examples: 3,
            sigex_classes: vec!["key".into(), "foreign_key".into()],
            checkpoint: Some(CheckpointSummary {
                full_bytes: 500_000,
                full_seconds: 0.05,
                delta_bytes: 40_000,
                delta_seconds: 0.004,
                dirty_extents: 12,
                total_extents: 140,
                churn_rows: 220,
            }),
            wal_metrics: Some(WalMetrics {
                appends: 200,
                append_bytes: 51_200,
                fsyncs: 200,
                checkpoints: 2,
                group_batch_p50: 1,
                group_batch_max: 4,
                fsync_p99_ns: 0,
            }),
            server: Some(ServerSummary {
                sessions: 1000,
                peak_sessions: 48,
                admission_rejects: 17,
                busy_rejects: 0,
                reads: 6000,
                writes: 3000,
                anomalies: 0,
                seconds: 2.5,
                ops_per_sec: 3600.0,
                read_p50_ns: 80_000,
                read_p99_ns: 400_000,
                write_p50_ns: 250_000,
                write_p99_ns: 900_000,
                burst_read_p99_ns: 350_000,
                commit_batch_p50: 3,
                commit_batch_max: 14,
            }),
        }
    }

    #[test]
    fn artifact_roundtrips_through_the_decoder() {
        let a = sample();
        assert_eq!(validate_artifact(&a.to_json()), Ok(a));
    }

    #[test]
    fn committed_artifacts_decode() {
        for (pr, text) in [
            (7, include_str!("../../../BENCH_7.json")),
            (8, include_str!("../../../BENCH_8.json")),
            (9, include_str!("../../../BENCH_9.json")),
            (10, include_str!("../../../BENCH_10.json")),
        ] {
            let a = validate_artifact(text).unwrap_or_else(|e| panic!("BENCH_{pr}.json: {e}"));
            assert_eq!(a.pr, pr);
            assert_eq!(a.checkpoint.is_some(), pr >= 8, "BENCH_{pr}.json");
            assert_eq!(a.server.is_some(), pr >= 10, "BENCH_{pr}.json");
        }
    }

    #[test]
    fn decoder_rejects_misplaced_missing_and_malformed_input() {
        let text = sample().to_json();
        // The `wal` block moved inside phases[0]: every key is still in
        // the document, but not in the object that owns it.
        let mut doc = json::parse(&text).unwrap();
        let Json::Obj(top) = &mut doc else {
            unreachable!()
        };
        let wal = top.remove("wal").unwrap();
        let Some(Json::Arr(phases)) = top.get_mut("phases") else {
            unreachable!()
        };
        let Json::Obj(first) = &mut phases[0] else {
            unreachable!()
        };
        first.insert("wal".into(), wal);
        let err = BenchArtifact::from_json(&doc).unwrap_err();
        assert_eq!(err, "artifact is missing \"wal\"");

        assert!(validate_artifact("{").is_err(), "truncated");
        assert!(validate_artifact(&format!("{text} x")).is_err(), "trailing");
        let inf = text.replace("12345.6", "1e999");
        assert!(validate_artifact(&inf).is_err(), "non-finite number");
        let neg = text.replace("\"units\":1}", "\"units\":-1}");
        let err = validate_artifact(&neg).unwrap_err();
        assert_eq!(
            err,
            "artifact.phases[0].units is not a non-negative integer"
        );
    }

    #[test]
    fn empty_phase_array_is_rejected() {
        let mut a = sample();
        a.phases.clear();
        assert!(validate_artifact(&a.to_json()).is_err());
    }

    #[test]
    fn older_schema_versions_still_decode() {
        let mut a = sample();
        a.checkpoint = None;
        let no_ckpt = a.to_json();
        assert!(
            validate_artifact(&no_ckpt).is_err(),
            "a v4 artifact must carry the checkpoint object"
        );
        let v1 = no_ckpt.replace("\"schema_version\":4", "\"schema_version\":1");
        let old = validate_artifact(&v1).expect("legacy v1 layout decodes");
        assert!(old.wal_metrics.is_none() && old.server.is_none());
        let v9 = no_ckpt.replace("\"schema_version\":4", "\"schema_version\":9");
        assert!(validate_artifact(&v9).is_err(), "unknown version rejected");

        // v2: checkpoint object present, no wal_metrics, numeric zero
        // percentiles — the exact shape of committed BENCH_7/BENCH_8.
        let mut b = sample();
        b.wal_metrics = None;
        b.server = None;
        let no_metrics = b.to_json();
        assert!(
            validate_artifact(&no_metrics).is_err(),
            "a v4 artifact must carry the wal_metrics object"
        );
        let v2 = no_metrics
            .replace("\"schema_version\":4", "\"schema_version\":2")
            .replace("\"p50_ns\":null", "\"p50_ns\":0")
            .replace("\"p90_ns\":null", "\"p90_ns\":0")
            .replace("\"p99_ns\":null", "\"p99_ns\":0");
        validate_artifact(&v2).expect("legacy v2 layout decodes");

        // v3: wal_metrics present, no server object — the exact shape of
        // the committed BENCH_9.
        let mut c = sample();
        c.server = None;
        let no_server = c.to_json();
        assert!(
            validate_artifact(&no_server).is_err(),
            "a v4 artifact must carry the server object"
        );
        let v3 = no_server.replace("\"schema_version\":4", "\"schema_version\":3");
        validate_artifact(&v3).expect("legacy v3 layout decodes");
    }

    #[test]
    fn block_phases_emit_null_percentiles() {
        let text = sample().to_json();
        // The block-timed `generate` phase has no latency distribution.
        assert!(
            text.contains("{\"name\":\"generate\",\"p50_ns\":null,\"p90_ns\":null,\"p99_ns\":null,\"per_second\":2,\"seconds\":0.5,\"units\":1}"),
            "{text}"
        );
        // The per-unit `traffic` phase keeps its numbers.
        assert!(text.contains("\"p50_ns\":10000"), "{text}");
    }

    #[test]
    fn scaling_check_accepts_churn_bound_deltas_and_rejects_state_bound() {
        let small = sample();
        let mut big = sample();
        let c = big.checkpoint.as_mut().unwrap();
        // 4x the state: full grows 4x, delta stays put (pure churn).
        big.rows_loaded *= 4;
        big.target_rows = 100_000;
        c.full_bytes *= 4;
        c.total_extents *= 4;
        check_checkpoint_scaling(&small, &big).expect("churn-bound delta passes");

        // A delta that keeps pace with the state is a tracking bug.
        let mut bad = big.clone();
        bad.checkpoint.as_mut().unwrap().delta_bytes *= 4;
        let err = check_checkpoint_scaling(&small, &bad).unwrap_err();
        assert!(err.contains("tracking state size"), "got: {err}");

        // At real scale the 20% acceptance bound applies.
        let mut fat = big.clone();
        fat.checkpoint.as_mut().unwrap().delta_bytes = fat.checkpoint.unwrap().full_bytes / 4;
        assert!(check_checkpoint_scaling(&small, &fat).is_err());

        // Comparable row counts are not a scaling experiment.
        assert!(check_checkpoint_scaling(&small, &small).is_err());
    }
}
