//! Delta validation: O(change) constraint checking for engine mutations.
//!
//! [`crate::validate::validate`] re-examines the whole state; for a single
//! row insert that is O(database). [`validate_delta`] instead checks only
//! the constraints *reachable from the touched rows*, answering every
//! membership/uniqueness question with O(1) probes against a
//! [`ConstraintIndexes`] maintained alongside the state.
//!
//! # Contract
//!
//! `validate_delta(schema, state, indexes, delta)` must be called **after**
//! the delta's operations have been applied to both `state` and `indexes`,
//! and it assumes the pre-delta state satisfied the schema. Under that
//! precondition it is *sound*: if it returns no violations, a full
//! [`crate::validate::validate`] of the post-state returns none either
//! (the delta-introduced violation would need a witness row among the
//! changed rows, and every changed row triggers the probes for every
//! constraint on its table). It can over-approximate on pathological
//! deltas that insert and then remove the same row — a case the engine
//! never produces — so the engine's debug oracle asserts only the sound
//! direction.
//!
//! # Delta rules per constraint kind
//!
//! * keys — on insert, probe the key counter for a count > 1;
//! * foreign keys — on insert into the referencing table, probe the target
//!   counter for existence; on remove from the referenced table, probe the
//!   *reverse* (source) counter to detect newly orphaned referencers;
//! * frequency — on insert, group count outside `[min, max]`; on remove,
//!   group count in `(0, min)`;
//! * view constraints (`C_EQ$`, `C_SS$`, `C_EX$`, `C_TU$`) — for each
//!   selection the touched row qualifies under, probe the membership
//!   counters of the other selections of the constraint;
//! * conditional equality (`C_CEQ$`) — inserted indicator rows are checked
//!   directly; sub-relation changes compare the flagged-row counter with
//!   the all-rows counter for the touched key;
//! * row-local kinds (`C_DE$`, `C_EE$`, `C_VAL$`, `C_CX$`) — re-checked on
//!   the inserted row only, no probes needed.

use std::collections::HashMap;

use crate::constraint::RelConstraintKind;
use crate::index::{
    key_projection, sel_projection, sel_qualifies, CompiledKind, ConstraintIndexes,
};
use crate::schema::RelSchema;
use crate::state::{RelState, Row};
use crate::table::TableId;
use crate::validate::RelViolation;

/// One row-level change, as recorded by the engine's undo log.
#[derive(Clone, PartialEq, Debug)]
pub enum DeltaOp {
    /// A row inserted into a table.
    Insert {
        /// The table.
        table: TableId,
        /// The inserted row.
        row: Row,
    },
    /// A row removed from a table.
    Remove {
        /// The table.
        table: TableId,
        /// The removed row.
        row: Row,
    },
}

impl DeltaOp {
    /// The table the operation touches.
    pub fn table(&self) -> TableId {
        match self {
            DeltaOp::Insert { table, .. } | DeltaOp::Remove { table, .. } => *table,
        }
    }

    /// The row the operation carries.
    pub fn row(&self) -> &Row {
        match self {
            DeltaOp::Insert { row, .. } | DeltaOp::Remove { row, .. } => row,
        }
    }
}

/// An ordered set of row-level changes against a state.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct Delta {
    /// The operations, in application order.
    pub ops: Vec<DeltaOp>,
}

impl Delta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an insert.
    pub fn insert(&mut self, table: TableId, row: Row) {
        self.ops.push(DeltaOp::Insert { table, row });
    }

    /// Records a removal.
    pub fn remove(&mut self, table: TableId, row: Row) {
        self.ops.push(DeltaOp::Remove { table, row });
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// The net effect of the delta: inverse pairs on the same `(table,
    /// row)` cancel, and each surviving row keeps one op, in first-touch
    /// order. Because states are sets, the net delta applied to the
    /// pre-state reaches the same post-state as the raw op list — but it
    /// never carries an insert-then-remove pair, the one shape on which
    /// [`validate_delta`] may over-approximate (probing a row that is no
    /// longer there). The engine validates batches through their net
    /// delta for exactly that reason: group-commit verdicts then match
    /// full re-validation of the post-state.
    pub fn net(&self) -> Delta {
        let mut order: Vec<(TableId, &Row)> = Vec::new();
        let mut balance: HashMap<(TableId, &Row), i32> = HashMap::new();
        for op in &self.ops {
            let key = (op.table(), op.row());
            let slot = balance.entry(key).or_insert_with(|| {
                order.push(key);
                0
            });
            *slot += match op {
                DeltaOp::Insert { .. } => 1,
                DeltaOp::Remove { .. } => -1,
            };
        }
        let mut net = Delta::new();
        for key in order {
            match balance[&key] {
                n if n > 0 => net.insert(key.0, key.1.clone()),
                n if n < 0 => net.remove(key.0, key.1.clone()),
                _ => {}
            }
        }
        net
    }
}

/// Validates the changes in `delta` against `schema`, probing `indexes`
/// instead of scanning `state`. See the module docs for the contract.
pub fn validate_delta(
    schema: &RelSchema,
    state: &RelState,
    indexes: &ConstraintIndexes,
    delta: &Delta,
) -> Vec<RelViolation> {
    let mut span = ridl_obs::span::enter("validate.delta");
    if span.is_recording() {
        span.attr("ops", delta.ops.len());
    }
    let mut out = Vec::new();
    for op in &delta.ops {
        let table = op.table();
        if table.index() >= schema.tables.len() || table.index() >= state.num_tables() {
            push_unique(
                &mut out,
                RelViolation {
                    constraint: "ARITY".into(),
                    detail: format!("state has no slot for table {:?}", table),
                },
            );
            continue;
        }
        if let DeltaOp::Insert { row, .. } = op {
            if !check_row_structure(schema, table, row, &mut out) {
                // Malformed arity: the row is exempt from (and unsafe for)
                // constraint projections, mirroring the full validator.
                continue;
            }
        }
        for ci in &indexes.by_table[table.index()] {
            check_op(
                schema,
                indexes,
                *ci,
                table,
                op.row(),
                matches!(op, DeltaOp::Insert { .. }),
                &mut out,
            );
        }
    }
    out
}

/// Validates a state whose rows were **streamed through freshly charged
/// indexes** — the engine's `bulk_load` path. The empty pre-state is
/// trivially valid, so the charged counters summarise the whole state and
/// most constraints can be checked **in aggregate**, directly on the
/// counter entries (O(distinct projections) per constraint) instead of
/// per row:
///
/// * keys — any projection counted more than once is a duplicate;
/// * foreign keys — any counted source projection absent from the target
///   counter dangles;
/// * frequency — any group count outside `[min, max]`;
/// * view constraints — membership comparisons between selection counters;
/// * conditional equality — flagged/all-rows/membership counter agreement
///   per tracked key.
///
/// Only the checks a counter cannot see stay per-row: structure (arity,
/// NOT NULL, DOMAIN), NULLs in primary keys (NULL projections are exempt
/// from counting), and the row-local kinds — none of which hash anything.
/// Violation order is deterministic (constraint order, details sorted
/// within a constraint) even though the counters iterate in hash order.
pub fn validate_load(
    schema: &RelSchema,
    state: &RelState,
    indexes: &ConstraintIndexes,
) -> Vec<RelViolation> {
    let mut span = ridl_obs::span::enter("validate.load");
    if span.is_recording() {
        span.attr("rows", state.num_rows());
    }
    let mut out = Vec::new();
    // Per-row pass: structure, primary-key NULLs, row-local constraints.
    for (tid, _) in schema.tables() {
        if tid.index() >= state.num_tables() {
            push_unique(
                &mut out,
                RelViolation {
                    constraint: "ARITY".into(),
                    detail: format!("state has no slot for table {:?}", tid),
                },
            );
            continue;
        }
        for row in state.rows(tid) {
            if !check_row_structure(schema, tid, row, &mut out) {
                continue;
            }
            for ci in &indexes.by_table[tid.index()] {
                let compiled = &indexes.compiled[*ci];
                match &compiled.kind {
                    CompiledKind::Key {
                        table,
                        cols,
                        require_not_null: true,
                        ..
                    } if *table == tid && key_projection(row, cols).is_none() => {
                        let any_not_nullable_null = cols.iter().any(|c| {
                            row[*c as usize].is_none() && !schema.table(tid).column(*c).nullable
                        });
                        if any_not_nullable_null {
                            push_unique(
                                &mut out,
                                RelViolation {
                                    constraint: compiled.name.clone(),
                                    detail: format!(
                                        "NULL in primary key of {}",
                                        schema.table(tid).name
                                    ),
                                },
                            );
                        }
                    }
                    CompiledKind::RowLocal => check_row_local(
                        schema,
                        &compiled.name,
                        &schema.constraints[compiled.schema_index].kind,
                        tid,
                        row,
                        &mut out,
                    ),
                    _ => {}
                }
            }
        }
    }
    // Aggregate pass: one walk over each constraint's counter entries.
    for compiled in &indexes.compiled {
        let sw = ridl_obs::Stopwatch::start();
        let mut span = ridl_obs::span::enter(compiled.kind.obs_class().span_name());
        if span.is_recording() {
            span.attr("constraint", compiled.name.clone());
        }
        let start = out.len();
        check_aggregate(schema, indexes, compiled, &mut out);
        out[start..].sort();
        let stats = &ridl_obs::metrics().per_kind[compiled.kind.obs_class().index()];
        stats.checks.inc();
        stats.violations.add((out.len() - start) as u64);
        sw.record(&stats.nanos);
    }
    out
}

/// Checks one compiled constraint against its counters alone.
fn check_aggregate(
    schema: &RelSchema,
    idx: &ConstraintIndexes,
    compiled: &crate::index::Compiled,
    out: &mut Vec<RelViolation>,
) {
    let name = compiled.name.as_str();
    match &compiled.kind {
        CompiledKind::Key { table, counter, .. } => {
            for (key, n) in idx.key_entries(*counter) {
                if n > 1 {
                    out.push(RelViolation {
                        constraint: name.to_owned(),
                        detail: format!("duplicate key {key:?} in {}", schema.table(*table).name),
                    });
                }
            }
        }
        CompiledKind::ForeignKey {
            table,
            ref_table,
            source,
            target,
            ..
        } => {
            for (key, _) in idx.key_entries(*source) {
                if idx.key_count(*target, key) == 0 {
                    out.push(fk_violation(schema, name, key, *table, *ref_table));
                }
            }
        }
        CompiledKind::Frequency {
            counter, min, max, ..
        } => {
            for (key, n) in idx.key_entries(*counter) {
                if n < *min || max.map(|m| n > m).unwrap_or(false) {
                    out.push(RelViolation {
                        constraint: name.to_owned(),
                        detail: format!(
                            "group {key:?} occurs {n} times, outside [{min}, {}]",
                            max.map(|m| m.to_string()).unwrap_or_else(|| "∞".into())
                        ),
                    });
                }
            }
        }
        CompiledKind::EqualityView { left, right } => {
            let mut differ = |a: crate::index::SelCounterId, b: crate::index::SelCounterId| {
                for (t, _) in idx.sel_entries(a) {
                    if idx.sel_count(b, t) == 0 {
                        push_unique(
                            out,
                            RelViolation {
                                constraint: name.to_owned(),
                                detail: format!("selections differ, e.g. [{t:?}]"),
                            },
                        );
                    }
                }
            };
            differ(left.1, right.1);
            differ(right.1, left.1);
        }
        CompiledKind::SubsetView { sub, sup } => {
            for (t, _) in idx.sel_entries(sub.1) {
                if idx.sel_count(sup.1, t) == 0 {
                    out.push(RelViolation {
                        constraint: name.to_owned(),
                        detail: format!("{t:?} not contained in superset selection"),
                    });
                }
            }
        }
        CompiledKind::ExclusionView { items } => {
            for (i, (_, a)) in items.iter().enumerate() {
                for (t, _) in idx.sel_entries(*a) {
                    if items
                        .iter()
                        .enumerate()
                        .any(|(j, (_, b))| j > i && idx.sel_count(*b, t) > 0)
                    {
                        out.push(RelViolation {
                            constraint: name.to_owned(),
                            detail: format!("{t:?} appears in two exclusive selections"),
                        });
                    }
                }
            }
        }
        CompiledKind::TotalUnionView { over, items } => {
            for (t, _) in idx.sel_entries(over.1) {
                if items.iter().all(|(_, c)| idx.sel_count(*c, t) == 0) {
                    out.push(RelViolation {
                        constraint: name.to_owned(),
                        detail: format!("{t:?} not covered by any union member"),
                    });
                }
            }
        }
        CompiledKind::ConditionalEquality {
            table,
            indicator,
            sub,
            flagged,
            all_keys,
            ..
        } => {
            for (key, n_all) in idx.sel_entries(*all_keys) {
                let present = idx.sel_count(sub.1, key) > 0;
                let n_flagged = idx.sel_count(*flagged, key);
                let consistent = if present {
                    n_flagged == n_all
                } else {
                    n_flagged == 0
                };
                if !consistent {
                    out.push(RelViolation {
                        constraint: name.to_owned(),
                        detail: ceq_detail(schema, *table, *indicator, key, !present, present),
                    });
                }
            }
            // Sub-relation keys with no indicator row at all are accepted
            // here, matching both the full validator (which walks indicator
            // rows only) and the delta rule (n_flagged == n_all == 0).
        }
        CompiledKind::RowLocal => {} // handled in the per-row pass
    }
}

/// Structural checks (arity, NOT NULL, DOMAIN) for one inserted row.
/// Returns false when the arity is wrong (cell checks are skipped).
/// Accounting is detail-gated: this runs once per touched row on the
/// engine's hot path.
fn check_row_structure(
    schema: &RelSchema,
    table: TableId,
    row: &Row,
    out: &mut Vec<RelViolation>,
) -> bool {
    if !ridl_obs::detail_enabled() {
        return check_row_structure_inner(schema, table, row, out);
    }
    let sw = ridl_obs::Stopwatch::start();
    let before = out.len();
    let ok = check_row_structure_inner(schema, table, row, out);
    let stats = &ridl_obs::metrics().per_kind[ridl_obs::ConstraintClass::Structure.index()];
    stats.checks.inc();
    stats.violations.add((out.len() - before) as u64);
    sw.record(&stats.nanos);
    ok
}

fn check_row_structure_inner(
    schema: &RelSchema,
    table: TableId,
    row: &Row,
    out: &mut Vec<RelViolation>,
) -> bool {
    let t = schema.table(table);
    if row.len() != t.arity() {
        push_unique(
            out,
            RelViolation {
                constraint: "ARITY".into(),
                detail: format!(
                    "row of {} has {} values, table has {} columns",
                    t.name,
                    row.len(),
                    t.arity()
                ),
            },
        );
        return false;
    }
    for (i, cell) in row.iter().enumerate() {
        let col = t.column(i as u32);
        match cell {
            None => {
                if !col.nullable {
                    push_unique(
                        out,
                        RelViolation {
                            constraint: "NOT NULL".into(),
                            detail: format!("NULL in {}.{}", t.name, col.name),
                        },
                    );
                }
            }
            Some(v) => {
                let dt = schema.domain_of(col.domain).data_type;
                if !v.fits(dt) {
                    push_unique(
                        out,
                        RelViolation {
                            constraint: "DOMAIN".into(),
                            detail: format!("{v} does not fit {dt} in {}.{}", t.name, col.name),
                        },
                    );
                }
            }
        }
    }
    true
}

/// One delta probe of one compiled constraint. Accounting is detail-gated:
/// this is the engine's innermost per-op loop, and with detail off the only
/// instrumentation cost is one relaxed load.
fn check_op(
    schema: &RelSchema,
    idx: &ConstraintIndexes,
    ci: usize,
    op_table: TableId,
    row: &Row,
    inserted: bool,
    out: &mut Vec<RelViolation>,
) {
    if !ridl_obs::detail_enabled() {
        return check_op_inner(schema, idx, ci, op_table, row, inserted, out);
    }
    let sw = ridl_obs::Stopwatch::start();
    let before = out.len();
    check_op_inner(schema, idx, ci, op_table, row, inserted, out);
    let stats = &ridl_obs::metrics().per_kind[idx.compiled[ci].kind.obs_class().index()];
    stats.checks.inc();
    stats.violations.add((out.len() - before) as u64);
    sw.record(&stats.nanos);
}

fn check_op_inner(
    schema: &RelSchema,
    idx: &ConstraintIndexes,
    ci: usize,
    op_table: TableId,
    row: &Row,
    inserted: bool,
    out: &mut Vec<RelViolation>,
) {
    let compiled = &idx.compiled[ci];
    let name = compiled.name.as_str();
    match &compiled.kind {
        CompiledKind::Key {
            table,
            cols,
            counter,
            require_not_null,
        } => {
            if !inserted || *table != op_table {
                return;
            }
            match key_projection(row, cols) {
                Some(key) => {
                    if idx.key_count(*counter, &key) > 1 {
                        push_unique(
                            out,
                            RelViolation {
                                constraint: name.to_owned(),
                                detail: format!(
                                    "duplicate key {key:?} in {}",
                                    schema.table(*table).name
                                ),
                            },
                        );
                    }
                }
                None => {
                    if *require_not_null {
                        let any_not_nullable_null = cols.iter().any(|c| {
                            row[*c as usize].is_none() && !schema.table(*table).column(*c).nullable
                        });
                        if any_not_nullable_null {
                            push_unique(
                                out,
                                RelViolation {
                                    constraint: name.to_owned(),
                                    detail: format!(
                                        "NULL in primary key of {}",
                                        schema.table(*table).name
                                    ),
                                },
                            );
                        }
                    }
                }
            }
        }
        CompiledKind::ForeignKey {
            table,
            cols,
            ref_table,
            ref_cols,
            source,
            target,
        } => {
            // Inserted referencer: its key must exist among the targets.
            if inserted && *table == op_table {
                if let Some(key) = key_projection(row, cols) {
                    if idx.key_count(*target, &key) == 0 {
                        push_unique(out, fk_violation(schema, name, &key, *table, *ref_table));
                    }
                }
            }
            // Removed target: the reverse index tells us in O(1) whether
            // anything still references the vanished key.
            if !inserted && *ref_table == op_table {
                if let Some(key) = key_projection(row, ref_cols) {
                    if idx.key_count(*target, &key) == 0 && idx.key_count(*source, &key) > 0 {
                        push_unique(out, fk_violation(schema, name, &key, *table, *ref_table));
                    }
                }
            }
        }
        CompiledKind::Frequency {
            table,
            cols,
            counter,
            min,
            max,
        } => {
            if *table != op_table {
                return;
            }
            if let Some(key) = key_projection(row, cols) {
                let n = idx.key_count(*counter, &key);
                let bad = if inserted {
                    n < *min || max.map(|m| n > m).unwrap_or(false)
                } else {
                    n > 0 && n < *min
                };
                if bad {
                    push_unique(
                        out,
                        RelViolation {
                            constraint: name.to_owned(),
                            detail: format!(
                                "group {key:?} occurs {n} times, outside [{min}, {}]",
                                max.map(|m| m.to_string()).unwrap_or_else(|| "∞".into())
                            ),
                        },
                    );
                }
            }
        }
        CompiledKind::EqualityView { left, right } => {
            for (sel, _) in [left, right] {
                if sel.table == op_table && sel_qualifies(row, sel) {
                    let t = sel_projection(row, sel);
                    let l = idx.sel_count(left.1, &t) > 0;
                    let r = idx.sel_count(right.1, &t) > 0;
                    if l != r {
                        push_unique(
                            out,
                            RelViolation {
                                constraint: name.to_owned(),
                                detail: format!("selections differ, e.g. [{t:?}]"),
                            },
                        );
                    }
                }
            }
        }
        CompiledKind::SubsetView { sub, sup } => {
            let probe = |t: &Row, out: &mut Vec<RelViolation>| {
                if idx.sel_count(sub.1, t) > 0 && idx.sel_count(sup.1, t) == 0 {
                    push_unique(
                        out,
                        RelViolation {
                            constraint: name.to_owned(),
                            detail: format!("{t:?} not contained in superset selection"),
                        },
                    );
                }
            };
            if inserted && sub.0.table == op_table && sel_qualifies(row, &sub.0) {
                probe(&sel_projection(row, &sub.0), out);
            }
            if !inserted && sup.0.table == op_table && sel_qualifies(row, &sup.0) {
                probe(&sel_projection(row, &sup.0), out);
            }
        }
        CompiledKind::ExclusionView { items } => {
            if !inserted {
                return;
            }
            for (i, (sel, _)) in items.iter().enumerate() {
                if sel.table == op_table && sel_qualifies(row, sel) {
                    let t = sel_projection(row, sel);
                    if items
                        .iter()
                        .enumerate()
                        .any(|(j, (_, c))| j != i && idx.sel_count(*c, &t) > 0)
                    {
                        push_unique(
                            out,
                            RelViolation {
                                constraint: name.to_owned(),
                                detail: format!("{t:?} appears in two exclusive selections"),
                            },
                        );
                    }
                }
            }
        }
        CompiledKind::TotalUnionView { over, items } => {
            let uncovered = |t: &Row| items.iter().all(|(_, c)| idx.sel_count(*c, t) == 0);
            let report = |t: Row, out: &mut Vec<RelViolation>| {
                push_unique(
                    out,
                    RelViolation {
                        constraint: name.to_owned(),
                        detail: format!("{t:?} not covered by any union member"),
                    },
                );
            };
            if inserted && over.0.table == op_table && sel_qualifies(row, &over.0) {
                let t = sel_projection(row, &over.0);
                if uncovered(&t) {
                    report(t, out);
                }
            }
            if !inserted {
                for (sel, _) in items {
                    if sel.table == op_table && sel_qualifies(row, sel) {
                        let t = sel_projection(row, sel);
                        if idx.sel_count(over.1, &t) > 0 && uncovered(&t) {
                            report(t, out);
                        }
                    }
                }
            }
        }
        CompiledKind::ConditionalEquality {
            table,
            indicator,
            when_value,
            key_cols,
            sub,
            flagged,
            all_keys,
        } => {
            // Inserted indicator row: check it directly against membership.
            if inserted && *table == op_table {
                let key: Row = key_cols.iter().map(|c| row[*c as usize].clone()).collect();
                let is_flagged = row[*indicator as usize].as_ref() == Some(when_value);
                let present = idx.sel_count(sub.1, &key) > 0;
                if is_flagged != present {
                    push_unique(
                        out,
                        RelViolation {
                            constraint: name.to_owned(),
                            detail: ceq_detail(
                                schema, *table, *indicator, &key, is_flagged, present,
                            ),
                        },
                    );
                }
            }
            // Sub-relation membership changed for a key: every indicator row
            // of that key must agree with the new membership.
            if sub.0.table == op_table && sel_qualifies(row, &sub.0) {
                let key = sel_projection(row, &sub.0);
                let present = idx.sel_count(sub.1, &key) > 0;
                let n_flagged = idx.sel_count(*flagged, &key);
                let n_all = idx.sel_count(*all_keys, &key);
                let consistent = if present {
                    n_flagged == n_all
                } else {
                    n_flagged == 0
                };
                if !consistent {
                    push_unique(
                        out,
                        RelViolation {
                            constraint: name.to_owned(),
                            detail: ceq_detail(schema, *table, *indicator, &key, !present, present),
                        },
                    );
                }
            }
        }
        CompiledKind::RowLocal => {
            if inserted {
                check_row_local(
                    schema,
                    name,
                    &schema.constraints[compiled.schema_index].kind,
                    op_table,
                    row,
                    out,
                );
            }
        }
    }
}

fn fk_violation(
    schema: &RelSchema,
    name: &str,
    key: &[ridl_brm::Value],
    table: TableId,
    ref_table: TableId,
) -> RelViolation {
    RelViolation {
        constraint: name.to_owned(),
        detail: format!(
            "{key:?} in {} has no match in {}",
            schema.table(table).name,
            schema.table(ref_table).name
        ),
    }
}

fn ceq_detail(
    schema: &RelSchema,
    table: TableId,
    indicator: u32,
    key: &Row,
    flagged: bool,
    present: bool,
) -> String {
    format!(
        "indicator {} of key {key:?} in {} is {} but sub-relation membership is {}",
        schema.table(table).column(indicator).name,
        schema.table(table).name,
        flagged,
        present
    )
}

/// Per-row constraints that need no counters: checked directly against the
/// inserted row, with the same messages as the full validator.
fn check_row_local(
    schema: &RelSchema,
    name: &str,
    kind: &RelConstraintKind,
    op_table: TableId,
    row: &Row,
    out: &mut Vec<RelViolation>,
) {
    match kind {
        RelConstraintKind::DependentExistence {
            table,
            dependent,
            on,
        } if *table == op_table
            && row[*dependent as usize].is_some()
            && row[*on as usize].is_none() =>
        {
            push_unique(
                out,
                RelViolation {
                    constraint: name.to_owned(),
                    detail: format!(
                        "{} set while {} is NULL in {}",
                        schema.table(*table).column(*dependent).name,
                        schema.table(*table).column(*on).name,
                        schema.table(*table).name
                    ),
                },
            );
        }
        RelConstraintKind::EqualExistence { table, cols } if *table == op_table => {
            let set = cols.iter().filter(|c| row[**c as usize].is_some()).count();
            if set != 0 && set != cols.len() {
                push_unique(
                    out,
                    RelViolation {
                        constraint: name.to_owned(),
                        detail: format!(
                            "columns {:?} of {} are partially NULL",
                            schema.col_names(*table, cols),
                            schema.table(*table).name
                        ),
                    },
                );
            }
        }
        RelConstraintKind::CheckValue { table, col, values } if *table == op_table => {
            if let Some(v) = &row[*col as usize] {
                if !values.contains(v) {
                    push_unique(
                        out,
                        RelViolation {
                            constraint: name.to_owned(),
                            detail: format!(
                                "{v} not admitted in {}.{}",
                                schema.table(*table).name,
                                schema.table(*table).column(*col).name
                            ),
                        },
                    );
                }
            }
        }
        RelConstraintKind::CoverExistence { table, groups } if *table == op_table => {
            let covered = groups
                .iter()
                .any(|g| g.iter().all(|c| row[*c as usize].is_some()));
            if !covered {
                push_unique(
                    out,
                    RelViolation {
                        constraint: name.to_owned(),
                        detail: format!(
                            "row of {} has no complete reference group",
                            schema.table(*table).name
                        ),
                    },
                );
            }
        }
        _ => {}
    }
}

/// Keeps the report free of exact duplicates (one delta can trip the same
/// probe from several ops).
fn push_unique(out: &mut Vec<RelViolation>, v: RelViolation) {
    if !out.contains(&v) {
        out.push(v);
    }
}

/// Convenience: applies `delta` to `state` and `indexes`, then validates it.
/// Returns the violations; on violations the caller is expected to revert
/// (the engine does this via its undo log).
pub fn apply_and_validate(
    schema: &RelSchema,
    state: &mut RelState,
    indexes: &mut ConstraintIndexes,
    delta: &Delta,
) -> Vec<RelViolation> {
    for op in &delta.ops {
        match op {
            DeltaOp::Insert { table, row } => {
                if state.insert(*table, row.clone()) {
                    indexes.note_insert(*table, row);
                }
            }
            DeltaOp::Remove { table, row } => {
                if state.remove(*table, row) {
                    indexes.note_remove(*table, row);
                }
            }
        }
    }
    validate_delta(schema, state, indexes, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::ColumnSelection;
    use crate::table::{Column, Table};
    use crate::validate::validate;
    use ridl_brm::{DataType, Value};

    fn v(s: &str) -> Option<Value> {
        Some(Value::str(s))
    }

    /// Applies ops and asserts delta verdict == full verdict (both clean or
    /// both dirty), returning the delta violations.
    fn check(
        schema: &RelSchema,
        state: &mut RelState,
        indexes: &mut ConstraintIndexes,
        delta: Delta,
    ) -> Vec<RelViolation> {
        let dv = apply_and_validate(schema, state, indexes, &delta);
        let fv = validate(schema, state);
        assert_eq!(
            dv.is_empty(),
            fv.is_empty(),
            "delta verdict {dv:?} vs full verdict {fv:?}"
        );
        dv
    }

    fn two_table_schema() -> (RelSchema, TableId, TableId) {
        let mut s = RelSchema::new("delta");
        let d = s.domain("D", DataType::Char(8));
        let a = s.add_table(Table::new(
            "A",
            vec![Column::not_null("K", d), Column::nullable("R", d)],
        ));
        let b = s.add_table(Table::new("B", vec![Column::not_null("K", d)]));
        (s, a, b)
    }

    #[test]
    fn duplicate_key_detected_and_clean_insert_passes() {
        let (mut s, a, _) = two_table_schema();
        s.add_named(RelConstraintKind::PrimaryKey {
            table: a,
            cols: vec![0],
        });
        let mut st = RelState::with_tables(2);
        let mut idx = ConstraintIndexes::build(&s, &st);
        let mut d = Delta::new();
        d.insert(a, vec![v("x"), None]);
        assert!(check(&s, &mut st, &mut idx, d).is_empty());
        let mut d2 = Delta::new();
        d2.insert(a, vec![v("x"), v("r")]);
        let vio = check(&s, &mut st, &mut idx, d2);
        assert!(vio.iter().any(|x| x.detail.contains("duplicate key")));
    }

    #[test]
    fn fk_orphan_on_target_removal() {
        let (mut s, a, b) = two_table_schema();
        s.add_named(RelConstraintKind::ForeignKey {
            table: a,
            cols: vec![1],
            ref_table: b,
            ref_cols: vec![0],
        });
        let mut st = RelState::with_tables(2);
        st.insert(b, vec![v("t")]);
        st.insert(a, vec![v("x"), v("t")]);
        let mut idx = ConstraintIndexes::build(&s, &st);
        // Removing the referenced row orphans A's reference.
        let mut d = Delta::new();
        d.remove(b, vec![v("t")]);
        let vio = check(&s, &mut st, &mut idx, d);
        assert!(vio.iter().any(|x| x.constraint.starts_with("C_FKEY$")));
    }

    #[test]
    fn fk_insert_requires_target() {
        let (mut s, a, b) = two_table_schema();
        s.add_named(RelConstraintKind::ForeignKey {
            table: a,
            cols: vec![1],
            ref_table: b,
            ref_cols: vec![0],
        });
        let mut st = RelState::with_tables(2);
        let mut idx = ConstraintIndexes::build(&s, &st);
        let mut d = Delta::new();
        d.insert(a, vec![v("x"), v("missing")]);
        assert!(!check(&s, &mut st, &mut idx, d).is_empty());
        // Inserting target and referencer in one delta is fine.
        let mut st2 = RelState::with_tables(2);
        let mut idx2 = ConstraintIndexes::build(&s, &st2);
        let mut d2 = Delta::new();
        d2.insert(b, vec![v("t")]);
        d2.insert(a, vec![v("x"), v("t")]);
        assert!(check(&s, &mut st2, &mut idx2, d2).is_empty());
    }

    #[test]
    fn equality_view_both_directions() {
        let (mut s, a, b) = two_table_schema();
        s.add_named(RelConstraintKind::EqualityView {
            left: ColumnSelection::of(b, vec![0]),
            right: ColumnSelection::of(a, vec![1]).where_not_null(vec![1]),
        });
        let mut st = RelState::with_tables(2);
        let mut idx = ConstraintIndexes::build(&s, &st);
        // Insert only one side: violation.
        let mut d = Delta::new();
        d.insert(b, vec![v("p")]);
        assert!(!check(&s, &mut st, &mut idx, d).is_empty());
        // Completing the pair heals it.
        let mut d2 = Delta::new();
        d2.insert(a, vec![v("x"), v("p")]);
        assert!(check(&s, &mut st, &mut idx, d2).is_empty());
        // Removing one side re-breaks it.
        let mut d3 = Delta::new();
        d3.remove(a, vec![v("x"), v("p")]);
        assert!(!check(&s, &mut st, &mut idx, d3).is_empty());
    }

    #[test]
    fn frequency_bounds() {
        let (mut s, a, _) = two_table_schema();
        s.add_named(RelConstraintKind::Frequency {
            table: a,
            cols: vec![1],
            min: 2,
            max: Some(2),
        });
        let mut st = RelState::with_tables(2);
        let mut idx = ConstraintIndexes::build(&s, &st);
        let mut d = Delta::new();
        d.insert(a, vec![v("x1"), v("g")]);
        d.insert(a, vec![v("x2"), v("g")]);
        assert!(check(&s, &mut st, &mut idx, d).is_empty());
        // Third member exceeds max.
        let mut d2 = Delta::new();
        d2.insert(a, vec![v("x3"), v("g")]);
        assert!(!check(&s, &mut st, &mut idx, d2).is_empty());
        // Back to two, then dropping to one undershoots min.
        let mut d3 = Delta::new();
        d3.remove(a, vec![v("x3"), v("g")]);
        assert!(check(&s, &mut st, &mut idx, d3).is_empty());
        let mut d4 = Delta::new();
        d4.remove(a, vec![v("x2"), v("g")]);
        assert!(!check(&s, &mut st, &mut idx, d4).is_empty());
    }

    #[test]
    fn total_union_and_exclusion() {
        let mut s = RelSchema::new("tu");
        let d = s.domain("D", DataType::Char(8));
        let a = s.add_table(Table::new("A", vec![Column::not_null("K", d)]));
        let b = s.add_table(Table::new("B", vec![Column::not_null("K", d)]));
        let u = s.add_table(Table::new("U", vec![Column::not_null("K", d)]));
        s.add_named(RelConstraintKind::ExclusionView {
            items: vec![
                ColumnSelection::of(a, vec![0]),
                ColumnSelection::of(b, vec![0]),
            ],
        });
        s.add_named(RelConstraintKind::TotalUnionView {
            over: ColumnSelection::of(u, vec![0]),
            items: vec![
                ColumnSelection::of(a, vec![0]),
                ColumnSelection::of(b, vec![0]),
            ],
        });
        let mut st = RelState::with_tables(3);
        let mut idx = ConstraintIndexes::build(&s, &st);
        let mut d1 = Delta::new();
        d1.insert(a, vec![v("x")]);
        d1.insert(u, vec![v("x")]);
        assert!(check(&s, &mut st, &mut idx, d1).is_empty());
        // Same member in both exclusive branches.
        let mut d2 = Delta::new();
        d2.insert(b, vec![v("x")]);
        let vio = check(&s, &mut st, &mut idx, d2);
        assert!(vio.iter().any(|x| x.constraint.starts_with("C_EX$")));
        let mut d3 = Delta::new();
        d3.remove(b, vec![v("x")]);
        assert!(check(&s, &mut st, &mut idx, d3).is_empty());
        // Removing the last covering member uncovers the union row.
        let mut d4 = Delta::new();
        d4.remove(a, vec![v("x")]);
        let vio4 = check(&s, &mut st, &mut idx, d4);
        assert!(vio4.iter().any(|x| x.constraint.starts_with("C_TU$")));
    }

    #[test]
    fn conditional_equality_sub_side() {
        let mut s = RelSchema::new("ceq");
        let d = s.domain("D", DataType::Char(8));
        let db = s.domain("DB", DataType::Boolean);
        let paper = s.add_table(Table::new(
            "Paper",
            vec![Column::not_null("Id", d), Column::not_null("Flag", db)],
        ));
        let pp = s.add_table(Table::new("PP", vec![Column::not_null("Id", d)]));
        s.add_named(RelConstraintKind::ConditionalEquality {
            table: paper,
            indicator: 1,
            when_value: Value::Bool(true),
            key_cols: vec![0],
            sub: ColumnSelection::of(pp, vec![0]),
        });
        let mut st = RelState::with_tables(2);
        let mut idx = ConstraintIndexes::build(&s, &st);
        let mut d1 = Delta::new();
        d1.insert(paper, vec![v("P1"), Some(Value::Bool(true))]);
        d1.insert(pp, vec![v("P1")]);
        d1.insert(paper, vec![v("P2"), Some(Value::Bool(false))]);
        assert!(check(&s, &mut st, &mut idx, d1).is_empty());
        // Sub-relation row appears without the indicator being set.
        let mut d2 = Delta::new();
        d2.insert(pp, vec![v("P2")]);
        let vio = check(&s, &mut st, &mut idx, d2);
        assert!(vio.iter().any(|x| x.constraint.starts_with("C_CEQ$")));
        let mut d2b = Delta::new();
        d2b.remove(pp, vec![v("P2")]);
        assert!(check(&s, &mut st, &mut idx, d2b).is_empty());
        // Sub-relation row vanishing while the indicator stays set.
        let mut d3 = Delta::new();
        d3.remove(pp, vec![v("P1")]);
        let vio3 = check(&s, &mut st, &mut idx, d3);
        assert!(vio3.iter().any(|x| x.constraint.starts_with("C_CEQ$")));
    }

    /// Applies ops and asserts the delta report is **byte-identical** to
    /// the full validator's — same violations, same order, same messages.
    /// Callers construct single-witness states so "e.g."-style samples in
    /// the messages coincide too.
    fn check_exact(
        schema: &RelSchema,
        state: &mut RelState,
        indexes: &mut ConstraintIndexes,
        delta: Delta,
    ) -> Vec<RelViolation> {
        let dv = apply_and_validate(schema, state, indexes, &delta);
        let fv = validate(schema, state);
        assert_eq!(dv, fv, "delta report differs from the full validator");
        assert!(!dv.is_empty(), "expected a negative case");
        dv
    }

    #[test]
    fn key_rejection_message_matches_full_validator() {
        let (mut s, a, _) = two_table_schema();
        s.add_named(RelConstraintKind::PrimaryKey {
            table: a,
            cols: vec![0],
        });
        let mut st = RelState::with_tables(2);
        st.insert(a, vec![v("x"), None]);
        let mut idx = ConstraintIndexes::build(&s, &st);
        let mut d = Delta::new();
        d.insert(a, vec![v("x"), v("r")]);
        let vio = check_exact(&s, &mut st, &mut idx, d);
        assert!(vio[0].detail.contains("duplicate key"));
    }

    #[test]
    fn fk_rejection_message_matches_full_validator() {
        let (mut s, a, b) = two_table_schema();
        s.add_named(RelConstraintKind::ForeignKey {
            table: a,
            cols: vec![1],
            ref_table: b,
            ref_cols: vec![0],
        });
        let mut st = RelState::with_tables(2);
        let mut idx = ConstraintIndexes::build(&s, &st);
        let mut d = Delta::new();
        d.insert(a, vec![v("x"), v("missing")]);
        let vio = check_exact(&s, &mut st, &mut idx, d);
        assert!(vio[0].detail.contains("has no match in"));
    }

    #[test]
    fn frequency_rejection_message_matches_full_validator() {
        let (mut s, a, _) = two_table_schema();
        s.add_named(RelConstraintKind::Frequency {
            table: a,
            cols: vec![1],
            min: 1,
            max: Some(1),
        });
        let mut st = RelState::with_tables(2);
        st.insert(a, vec![v("x1"), v("g")]);
        let mut idx = ConstraintIndexes::build(&s, &st);
        let mut d = Delta::new();
        d.insert(a, vec![v("x2"), v("g")]);
        let vio = check_exact(&s, &mut st, &mut idx, d);
        assert!(vio[0].detail.contains("occurs 2 times"));
    }

    #[test]
    fn subset_view_rejection_message_matches_full_validator() {
        let (mut s, a, b) = two_table_schema();
        s.add_named(RelConstraintKind::SubsetView {
            sub: ColumnSelection::of(a, vec![1]).where_not_null(vec![1]),
            sup: ColumnSelection::of(b, vec![0]),
        });
        let mut st = RelState::with_tables(2);
        let mut idx = ConstraintIndexes::build(&s, &st);
        let mut d = Delta::new();
        d.insert(a, vec![v("x"), v("t")]);
        let vio = check_exact(&s, &mut st, &mut idx, d);
        assert!(vio[0].detail.contains("not contained in superset"));
    }

    #[test]
    fn equality_view_rejection_message_matches_full_validator() {
        let (mut s, a, b) = two_table_schema();
        s.add_named(RelConstraintKind::EqualityView {
            left: ColumnSelection::of(b, vec![0]),
            right: ColumnSelection::of(a, vec![1]).where_not_null(vec![1]),
        });
        let mut st = RelState::with_tables(2);
        let mut idx = ConstraintIndexes::build(&s, &st);
        let mut d = Delta::new();
        d.insert(b, vec![v("p")]);
        let vio = check_exact(&s, &mut st, &mut idx, d);
        assert!(vio[0].detail.contains("selections differ"));
    }

    #[test]
    fn exclusion_view_rejection_message_matches_full_validator() {
        let (mut s, a, b) = two_table_schema();
        s.add_named(RelConstraintKind::ExclusionView {
            items: vec![
                ColumnSelection::of(a, vec![0]),
                ColumnSelection::of(b, vec![0]),
            ],
        });
        let mut st = RelState::with_tables(2);
        st.insert(a, vec![v("x"), None]);
        let mut idx = ConstraintIndexes::build(&s, &st);
        let mut d = Delta::new();
        d.insert(b, vec![v("x")]);
        let vio = check_exact(&s, &mut st, &mut idx, d);
        assert!(vio[0].detail.contains("exclusive selections"));
    }

    #[test]
    fn net_delta_cancels_inverse_pairs() {
        let (_, a, b) = two_table_schema();
        let mut d = Delta::new();
        d.insert(a, vec![v("x"), None]); // cancelled by the remove below
        d.insert(b, vec![v("y")]);
        d.remove(a, vec![v("x"), None]);
        d.remove(b, vec![v("z")]); // survives as a remove
        let net = d.net();
        assert_eq!(net.len(), 2);
        assert_eq!(
            net.ops[0],
            DeltaOp::Insert {
                table: b,
                row: vec![v("y")]
            }
        );
        assert_eq!(
            net.ops[1],
            DeltaOp::Remove {
                table: b,
                row: vec![v("z")]
            }
        );
        // Re-inserting after a cancelled pair survives (balance returns > 0).
        let mut d2 = Delta::new();
        d2.insert(a, vec![v("x"), None]);
        d2.remove(a, vec![v("x"), None]);
        d2.insert(a, vec![v("x"), None]);
        assert_eq!(d2.net().len(), 1);
    }

    #[test]
    fn row_local_and_structure() {
        let mut s = RelSchema::new("rl");
        let d = s.domain("D", DataType::Char(4));
        let t = s.add_table(Table::new(
            "T",
            vec![
                Column::not_null("K", d),
                Column::nullable("A", d),
                Column::nullable("B", d),
            ],
        ));
        s.add_named(RelConstraintKind::DependentExistence {
            table: t,
            dependent: 2,
            on: 1,
        });
        s.add_named(RelConstraintKind::CheckValue {
            table: t,
            col: 1,
            values: vec![Value::str("ok")],
        });
        let mut st = RelState::with_tables(1);
        let mut idx = ConstraintIndexes::build(&s, &st);
        let mut d1 = Delta::new();
        d1.insert(t, vec![v("k1"), v("ok"), v("ok")]);
        assert!(check(&s, &mut st, &mut idx, d1).is_empty());
        let mut d2 = Delta::new();
        d2.insert(t, vec![v("k2"), None, v("ok")]); // dependent without on
        assert!(!check(&s, &mut st, &mut idx, d2).is_empty());
        let mut st2 = RelState::with_tables(1);
        let mut idx2 = ConstraintIndexes::build(&s, &st2);
        let mut d3 = Delta::new();
        d3.insert(t, vec![v("k"), v("bad"), None]); // CheckValue
        assert!(!check(&s, &mut st2, &mut idx2, d3).is_empty());
        let mut st3 = RelState::with_tables(1);
        let mut idx3 = ConstraintIndexes::build(&s, &st3);
        let mut d4 = Delta::new();
        d4.insert(t, vec![None, None, None]); // NOT NULL on K
        let vio = apply_and_validate(&s, &mut st3, &mut idx3, &d4);
        assert!(vio.iter().any(|x| x.constraint == "NOT NULL"));
    }
}
