//! Parallel full-state validation.
//!
//! [`crate::validate::validate`] is a sequence of independent work units:
//! the structural checks of each table (slot, arity, NOT NULL, DOMAIN)
//! followed by each constraint's check. No unit reads another unit's
//! output, and none mutates the state, so the units can be distributed
//! across threads freely. [`validate_parallel`] partitions them over
//! [`std::thread::scope`] workers pulling from a shared atomic cursor
//! (work-stealing, so one expensive view constraint does not serialise the
//! rest behind a static split).
//!
//! # Determinism
//!
//! Each unit writes into its own violation buffer, and the buffers are
//! concatenated **in unit order** after all workers join. The sequential
//! validator is exactly that concatenation executed in order, so the
//! parallel result is byte-identical — same violations, same order, same
//! messages — regardless of worker count or scheduling
//! (`tests/parallel_validator.rs` asserts this differentially on seeded
//! and deliberately corrupted populations).
//!
//! The engine uses this for its one O(state) validation, the `FullState`
//! oracle mode, where the constraint count of an industrial mapping (hundreds
//! of constraints over 120–150 tables) gives the scheduler real work to
//! spread. Whole-state installs (`load_state`, `bulk_load`, recovery)
//! instead check in aggregate against the indexes they build anyway
//! ([`crate::delta::validate_load`]).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use crate::schema::RelSchema;
use crate::state::RelState;
use crate::table::TableId;
use crate::validate::{self, RelViolation};

/// States below this row count validate sequentially in [`validate_parallel`]:
/// thread spawn/join overhead (~tens of µs) dwarfs the work.
const SMALL_STATE_ROWS: usize = 512;

/// Validates `state` against `schema` using up to
/// [`std::thread::available_parallelism`] workers, falling back to the
/// sequential [`validate::validate`] for small states. The result is
/// byte-identical to the sequential validator's.
pub fn validate_parallel(schema: &RelSchema, state: &RelState) -> Vec<RelViolation> {
    if state.num_rows() < SMALL_STATE_ROWS {
        ridl_obs::metrics().sequential_validations.inc();
        let mut span = ridl_obs::span::enter("validate.full");
        if span.is_recording() {
            span.attr("workers", 1u64);
            span.attr("rows", state.num_rows());
        }
        return validate::validate(schema, state);
    }
    let workers = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    validate_with_workers(schema, state, workers)
}

/// Validates with an explicit worker count (tests drive this directly to
/// exercise the merge on any machine). `workers <= 1` runs sequentially;
/// more workers than units are not spawned.
///
/// # Panic containment
///
/// A panicking check (a malformed constraint, an out-of-range column
/// ordinal) must not abort the process: each unit runs under
/// [`catch_unwind`], panicked units are retried sequentially after the
/// workers join, and a unit that panics again is reported as a `PANIC`
/// pseudo-violation — the statement is rejected instead of the engine
/// dying. Every caught panic counts into `validate.worker_panics` and is
/// recorded as an `Error`-severity `validate.worker_panic` journal event.
pub fn validate_with_workers(
    schema: &RelSchema,
    state: &RelState,
    workers: usize,
) -> Vec<RelViolation> {
    let units = schema.tables.len() + schema.constraints.len();
    let mut span = ridl_obs::span::enter("validate.full");
    if span.is_recording() {
        span.attr("workers", workers.min(units.max(1)));
        span.attr("units", units);
        span.attr("rows", state.num_rows());
    }
    if workers <= 1 || units <= 1 {
        ridl_obs::metrics().sequential_validations.inc();
        return validate::validate(schema, state);
    }
    ridl_obs::metrics().parallel_validations.inc();
    let workers = workers.min(units);
    let cursor = AtomicUsize::new(0);
    let panicked: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let mut per_worker: Vec<Vec<(usize, Vec<RelViolation>)>> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local: Vec<(usize, Vec<RelViolation>)> = Vec::new();
                    loop {
                        let unit = cursor.fetch_add(1, Ordering::Relaxed);
                        if unit >= units {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| {
                            let mut out = Vec::new();
                            run_unit(schema, state, unit, &mut out);
                            out
                        })) {
                            Ok(out) => {
                                if !out.is_empty() {
                                    local.push((unit, out));
                                }
                            }
                            Err(_) => panicked
                                .lock()
                                .expect("panicked-unit list poisoned")
                                .push(unit),
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let mut tagged: Vec<(usize, Vec<RelViolation>)> = per_worker.drain(..).flatten().collect();
    // Sequential fallback for units whose check panicked in a worker; a
    // persistent panic becomes a violation rather than an abort.
    let mut panicked = panicked.into_inner().expect("panicked-unit list poisoned");
    panicked.sort_unstable();
    for unit in panicked {
        ridl_obs::metrics().worker_panics.inc();
        ridl_obs::journal::record(
            ridl_obs::Severity::Error,
            "validate.worker_panic",
            vec![("unit", unit.into())],
        );
        let out = catch_unwind(AssertUnwindSafe(|| {
            let mut out = Vec::new();
            run_unit(schema, state, unit, &mut out);
            out
        }))
        .unwrap_or_else(|_| {
            vec![RelViolation {
                constraint: "PANIC".into(),
                detail: format!("validator unit {unit} panicked; its check did not complete"),
            }]
        });
        if !out.is_empty() {
            tagged.push((unit, out));
        }
    }
    // Deterministic merge: concatenate unit buffers in unit order, which is
    // exactly the order the sequential validator emits.
    tagged.sort_by_key(|(unit, _)| *unit);
    tagged.into_iter().flat_map(|(_, v)| v).collect()
}

/// Runs one work unit: units `0..tables` are per-table structure checks,
/// the rest are per-constraint checks in schema order.
fn run_unit(schema: &RelSchema, state: &RelState, unit: usize, out: &mut Vec<RelViolation>) {
    let num_tables = schema.tables.len();
    if unit < num_tables {
        validate::check_structure_table(schema, state, TableId(unit as u32), out);
    } else {
        let c = &schema.constraints[unit - num_tables];
        validate::check_constraint(schema, state, &c.name, &c.kind, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{ColumnSelection, RelConstraintKind};
    use crate::table::{Column, Table};
    use ridl_brm::{DataType, Value};

    fn v(s: &str) -> Option<Value> {
        Some(Value::str(s))
    }

    /// Schema with enough constraint kinds that several units report.
    fn schema() -> RelSchema {
        let mut s = RelSchema::new("par");
        let d = s.domain("D", DataType::Char(4));
        let a = s.add_table(Table::new(
            "A",
            vec![Column::not_null("K", d), Column::nullable("R", d)],
        ));
        let b = s.add_table(Table::new("B", vec![Column::not_null("K", d)]));
        s.add_named(RelConstraintKind::PrimaryKey {
            table: a,
            cols: vec![0],
        });
        s.add_named(RelConstraintKind::ForeignKey {
            table: a,
            cols: vec![1],
            ref_table: b,
            ref_cols: vec![0],
        });
        s.add_named(RelConstraintKind::EqualityView {
            left: ColumnSelection::of(b, vec![0]),
            right: ColumnSelection::of(a, vec![1]).where_not_null(vec![1]),
        });
        s
    }

    /// A state violating keys, FKs, NOT NULL, DOMAIN and the equality view
    /// at once, so the merge has interleaved buffers to order.
    fn dirty_state() -> RelState {
        let mut st = RelState::with_tables(2);
        st.insert(TableId(0), vec![v("a"), v("x")]);
        st.insert(TableId(0), vec![v("a"), None]); // duplicate key
        st.insert(TableId(0), vec![None, v("y")]); // NOT NULL + dangling FK
        st.insert(TableId(0), vec![v("LONG-VALUE"), None]); // DOMAIN
        st.insert(TableId(1), vec![v("z")]); // equality view one-sided
        st
    }

    #[test]
    fn matches_sequential_for_any_worker_count() {
        let s = schema();
        let st = dirty_state();
        let seq = validate::validate(&s, &st);
        assert!(!seq.is_empty());
        for workers in [1, 2, 3, 4, 8, 33] {
            assert_eq!(
                validate_with_workers(&s, &st, workers),
                seq,
                "worker count {workers} diverged"
            );
        }
    }

    #[test]
    fn clean_state_is_clean_in_parallel() {
        let s = schema();
        let mut st = RelState::with_tables(2);
        st.insert(TableId(0), vec![v("a"), v("x")]);
        st.insert(TableId(1), vec![v("x")]);
        assert!(validate_with_workers(&s, &st, 4).is_empty());
    }

    #[test]
    fn auto_entry_point_agrees_with_sequential() {
        let s = schema();
        let st = dirty_state();
        assert_eq!(validate_parallel(&s, &st), validate::validate(&s, &st));
    }

    /// A panicking check (here: a `CheckValue` with an out-of-range column
    /// ordinal) must reject the validation, not abort the process. The
    /// panic is contained, retried sequentially, reported as a `PANIC`
    /// pseudo-violation, counted, and recorded as an `Error` journal
    /// event — while every healthy unit still reports normally.
    #[test]
    fn worker_panic_is_contained_and_reported() {
        let mut s = schema();
        s.add_named(RelConstraintKind::CheckValue {
            table: TableId(0),
            col: 99,
            values: vec![Value::str("x")],
        });
        let mut st = RelState::with_tables(2);
        st.insert(TableId(0), vec![v("a"), v("x")]);
        st.insert(TableId(0), vec![v("a"), None]); // duplicate key: healthy unit reports
        st.insert(TableId(1), vec![v("x")]);
        let before = ridl_obs::snapshot();
        let out = validate_with_workers(&s, &st, 4);
        let delta = ridl_obs::snapshot().since(&before);
        assert!(
            out.iter().any(|x| x.constraint == "PANIC"),
            "expected a PANIC pseudo-violation, got {out:?}"
        );
        assert!(
            out.iter().any(|x| x.detail.contains("duplicate key")),
            "healthy units must still report: {out:?}"
        );
        assert!(delta.counter("validate.worker_panics") >= 1, "{delta:?}");
        let (events, _) = ridl_obs::journal::snapshot_events();
        assert!(events
            .iter()
            .any(|e| e.kind == "validate.worker_panic" && e.severity == ridl_obs::Severity::Error));
    }
}
