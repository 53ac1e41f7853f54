//! Enforcement of the extended relational constraints on a state.
//!
//! The paper laments that "most RDBMSs at this moment support constraints
//! poorly, if at all" (§3.3) and therefore emits the extended constraints as
//! formal specifications for the application programmer. Here the
//! specification is executable: [`validate`] decides whether a [`RelState`]
//! satisfies every constraint of a [`RelSchema`], and `ridl-engine` uses the
//! same checks to reject violating updates.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use ridl_brm::Value;

use crate::constraint::{ColumnSelection, RelConstraintKind};
use crate::index::{sel_projection, sel_qualifies};
use crate::schema::RelSchema;
use crate::state::{RelState, Row};
use crate::table::TableId;

/// A violation of the relational schema found in a state.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct RelViolation {
    /// Name of the violated constraint, or a pseudo-name for structural
    /// problems (`NOT NULL`, `ARITY`, `DOMAIN`).
    pub constraint: String,
    /// Human-readable description of the counterexample.
    pub detail: String,
}

impl fmt::Display for RelViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.constraint, self.detail)
    }
}

/// The rows of `table` that have the table's arity. A malformed row is
/// reported once, as `ARITY`, by the structure pass and is exempt from
/// every constraint — as in the constraint indexes, which never charge
/// one — so the full and the aggregate verdicts name the same
/// constraints.
fn well_formed<'a>(
    schema: &RelSchema,
    state: &'a RelState,
    table: TableId,
) -> impl Iterator<Item = &'a Row> {
    let arity = schema.table(table).arity();
    state
        .rows(table)
        .iter()
        .filter(move |row| row.len() == arity)
}

fn eval(schema: &RelSchema, sel: &ColumnSelection, state: &RelState) -> BTreeSet<Row> {
    well_formed(schema, state, sel.table)
        .filter(|row| sel_qualifies(row, sel))
        .map(|row| sel_projection(row, sel))
        .collect()
}

/// Validates `state` against every structural rule and constraint of
/// `schema`. Returns all violations found.
pub fn validate(schema: &RelSchema, state: &RelState) -> Vec<RelViolation> {
    let mut out = Vec::new();
    check_structure(schema, state, &mut out);
    for c in &schema.constraints {
        check_constraint(schema, state, &c.name, &c.kind, &mut out);
    }
    out
}

/// True when the state satisfies everything.
pub fn is_valid(schema: &RelSchema, state: &RelState) -> bool {
    validate(schema, state).is_empty()
}

fn check_structure(schema: &RelSchema, state: &RelState, out: &mut Vec<RelViolation>) {
    for (tid, _) in schema.tables() {
        check_structure_table(schema, state, tid, out);
    }
}

/// Structural checks (slot presence, arity, NOT NULL, DOMAIN) for one
/// table. The sequential [`validate`] is the concatenation of these per
/// table followed by [`check_constraint`] per constraint — the unit
/// decomposition [`crate::parallel`] distributes across workers.
pub(crate) fn check_structure_table(
    schema: &RelSchema,
    state: &RelState,
    tid: TableId,
    out: &mut Vec<RelViolation>,
) {
    let sw = ridl_obs::Stopwatch::start();
    let mut span = ridl_obs::span::enter(ridl_obs::ConstraintClass::Structure.span_name());
    if span.is_recording() {
        span.attr("table", schema.table(tid).name.clone());
    }
    let before = out.len();
    check_structure_table_inner(schema, state, tid, out);
    if span.is_recording() {
        span.attr("violations", out.len() - before);
    }
    let stats = &ridl_obs::metrics().per_kind[ridl_obs::ConstraintClass::Structure.index()];
    stats.checks.inc();
    stats.violations.add((out.len() - before) as u64);
    sw.record(&stats.nanos);
}

fn check_structure_table_inner(
    schema: &RelSchema,
    state: &RelState,
    tid: TableId,
    out: &mut Vec<RelViolation>,
) {
    let table = schema.table(tid);
    {
        if tid.index() >= state.num_tables() {
            out.push(RelViolation {
                constraint: "ARITY".into(),
                detail: format!("state has no slot for table {}", table.name),
            });
            return;
        }
        for row in state.rows(tid) {
            if row.len() != table.arity() {
                out.push(RelViolation {
                    constraint: "ARITY".into(),
                    detail: format!(
                        "row of {} has {} values, table has {} columns",
                        table.name,
                        row.len(),
                        table.arity()
                    ),
                });
                continue;
            }
            for (i, cell) in row.iter().enumerate() {
                let col = table.column(i as u32);
                match cell {
                    None => {
                        if !col.nullable {
                            out.push(RelViolation {
                                constraint: "NOT NULL".into(),
                                detail: format!("NULL in {}.{}", table.name, col.name),
                            });
                        }
                    }
                    Some(v) => {
                        let dt = schema.domain_of(col.domain).data_type;
                        if !v.fits(dt) {
                            out.push(RelViolation {
                                constraint: "DOMAIN".into(),
                                detail: format!(
                                    "{v} does not fit {dt} in {}.{}",
                                    table.name, col.name
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
}

fn key_projection(row: &Row, cols: &[u32]) -> Option<Vec<Value>> {
    cols.iter()
        .map(|c| row[*c as usize].clone())
        .collect::<Option<Vec<_>>>()
}

fn check_key(
    schema: &RelSchema,
    state: &RelState,
    name: &str,
    table: TableId,
    cols: &[u32],
    require_not_null: bool,
    out: &mut Vec<RelViolation>,
) {
    let tname = &schema.table(table).name;
    let mut seen: BTreeSet<Vec<Value>> = BTreeSet::new();
    for row in well_formed(schema, state, table) {
        match key_projection(row, cols) {
            Some(key) => {
                if !seen.insert(key.clone()) {
                    out.push(RelViolation {
                        constraint: name.to_owned(),
                        detail: format!("duplicate key {key:?} in {tname}"),
                    });
                }
            }
            None => {
                // NULL in a key column: forbidden for primary keys unless the
                // column itself was made nullable (the `NULL ALLOWED` option,
                // which ORACLE tolerates, §4.2.1); candidate keys are simply
                // exempt for such rows.
                if require_not_null {
                    let any_not_nullable_null = cols.iter().any(|c| {
                        row[*c as usize].is_none() && !schema.table(table).column(*c).nullable
                    });
                    if any_not_nullable_null {
                        out.push(RelViolation {
                            constraint: name.to_owned(),
                            detail: format!("NULL in primary key of {tname}"),
                        });
                    }
                }
            }
        }
    }
}

/// The observability class a schema-level constraint kind reports under.
pub(crate) fn kind_class(kind: &RelConstraintKind) -> ridl_obs::ConstraintClass {
    kind.class()
}

pub(crate) fn check_constraint(
    schema: &RelSchema,
    state: &RelState,
    name: &str,
    kind: &RelConstraintKind,
    out: &mut Vec<RelViolation>,
) {
    let sw = ridl_obs::Stopwatch::start();
    let mut span = ridl_obs::span::enter(kind_class(kind).span_name());
    if span.is_recording() {
        span.attr("constraint", name.to_owned());
    }
    let before = out.len();
    check_constraint_inner(schema, state, name, kind, out);
    if span.is_recording() {
        span.attr("violations", out.len() - before);
    }
    let stats = &ridl_obs::metrics().per_kind[kind_class(kind).index()];
    stats.checks.inc();
    stats.violations.add((out.len() - before) as u64);
    sw.record(&stats.nanos);
}

fn check_constraint_inner(
    schema: &RelSchema,
    state: &RelState,
    name: &str,
    kind: &RelConstraintKind,
    out: &mut Vec<RelViolation>,
) {
    match kind {
        RelConstraintKind::PrimaryKey { table, cols } => {
            check_key(schema, state, name, *table, cols, true, out)
        }
        RelConstraintKind::CandidateKey { table, cols } => {
            check_key(schema, state, name, *table, cols, false, out)
        }
        RelConstraintKind::ForeignKey {
            table,
            cols,
            ref_table,
            ref_cols,
        } => {
            let targets: BTreeSet<Vec<Value>> = well_formed(schema, state, *ref_table)
                .filter_map(|r| key_projection(r, ref_cols))
                .collect();
            for row in well_formed(schema, state, *table) {
                if let Some(key) = key_projection(row, cols) {
                    if !targets.contains(&key) {
                        out.push(RelViolation {
                            constraint: name.to_owned(),
                            detail: format!(
                                "{key:?} in {} has no match in {}",
                                schema.table(*table).name,
                                schema.table(*ref_table).name
                            ),
                        });
                    }
                }
            }
        }
        RelConstraintKind::EqualityView { left, right } => {
            let l = eval(schema, left, state);
            let r = eval(schema, right, state);
            if l != r {
                let diff: Vec<_> = l.symmetric_difference(&r).take(3).collect();
                out.push(RelViolation {
                    constraint: name.to_owned(),
                    detail: format!("selections differ, e.g. {diff:?}"),
                });
            }
        }
        RelConstraintKind::SubsetView { sub, sup } => {
            let s = eval(schema, sub, state);
            let p = eval(schema, sup, state);
            if let Some(row) = s.difference(&p).next() {
                out.push(RelViolation {
                    constraint: name.to_owned(),
                    detail: format!("{row:?} not contained in superset selection"),
                });
            }
        }
        RelConstraintKind::ExclusionView { items } => {
            for i in 0..items.len() {
                let a = eval(schema, &items[i], state);
                for item in items.iter().skip(i + 1) {
                    let b = eval(schema, item, state);
                    if let Some(row) = a.intersection(&b).next() {
                        out.push(RelViolation {
                            constraint: name.to_owned(),
                            detail: format!("{row:?} appears in two exclusive selections"),
                        });
                    }
                }
            }
        }
        RelConstraintKind::TotalUnionView { over, items } => {
            let o = eval(schema, over, state);
            let union: BTreeSet<Row> = items.iter().flat_map(|i| eval(schema, i, state)).collect();
            if let Some(row) = o.difference(&union).next() {
                out.push(RelViolation {
                    constraint: name.to_owned(),
                    detail: format!("{row:?} not covered by any union member"),
                });
            }
        }
        RelConstraintKind::DependentExistence {
            table,
            dependent,
            on,
        } => {
            for row in well_formed(schema, state, *table) {
                if row[*dependent as usize].is_some() && row[*on as usize].is_none() {
                    out.push(RelViolation {
                        constraint: name.to_owned(),
                        detail: format!(
                            "{} set while {} is NULL in {}",
                            schema.table(*table).column(*dependent).name,
                            schema.table(*table).column(*on).name,
                            schema.table(*table).name
                        ),
                    });
                }
            }
        }
        RelConstraintKind::EqualExistence { table, cols } => {
            for row in well_formed(schema, state, *table) {
                let set = cols.iter().filter(|c| row[**c as usize].is_some()).count();
                if set != 0 && set != cols.len() {
                    out.push(RelViolation {
                        constraint: name.to_owned(),
                        detail: format!(
                            "columns {:?} of {} are partially NULL",
                            schema.col_names(*table, cols),
                            schema.table(*table).name
                        ),
                    });
                }
            }
        }
        RelConstraintKind::ConditionalEquality {
            table,
            indicator,
            when_value,
            key_cols,
            sub,
        } => {
            let members = eval(schema, sub, state);
            for row in well_formed(schema, state, *table) {
                let key: Row = key_cols.iter().map(|c| row[*c as usize].clone()).collect();
                let flagged = row[*indicator as usize].as_ref() == Some(when_value);
                let present = members.contains(&key);
                if flagged != present {
                    out.push(RelViolation {
                        constraint: name.to_owned(),
                        detail: format!(
                            "indicator {} of key {key:?} in {} is {} but sub-relation membership is {}",
                            schema.table(*table).column(*indicator).name,
                            schema.table(*table).name,
                            flagged,
                            present
                        ),
                    });
                }
            }
        }
        RelConstraintKind::CheckValue { table, col, values } => {
            for row in well_formed(schema, state, *table) {
                if let Some(v) = &row[*col as usize] {
                    if !values.contains(v) {
                        out.push(RelViolation {
                            constraint: name.to_owned(),
                            detail: format!(
                                "{v} not admitted in {}.{}",
                                schema.table(*table).name,
                                schema.table(*table).column(*col).name
                            ),
                        });
                    }
                }
            }
        }
        RelConstraintKind::CoverExistence { table, groups } => {
            for row in well_formed(schema, state, *table) {
                let covered = groups
                    .iter()
                    .any(|g| g.iter().all(|c| row[*c as usize].is_some()));
                if !covered {
                    out.push(RelViolation {
                        constraint: name.to_owned(),
                        detail: format!(
                            "row of {} has no complete reference group",
                            schema.table(*table).name
                        ),
                    });
                }
            }
        }
        RelConstraintKind::Frequency {
            table,
            cols,
            min,
            max,
        } => {
            let mut counts: BTreeMap<Vec<Value>, u32> = BTreeMap::new();
            for row in well_formed(schema, state, *table) {
                if let Some(key) = key_projection(row, cols) {
                    *counts.entry(key).or_insert(0) += 1;
                }
            }
            for (key, n) in counts {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Column, Table};
    use ridl_brm::DataType;

    fn v(s: &str) -> Option<Value> {
        Some(Value::str(s))
    }

    /// Builds the paper's Alternative-3 pair of tables (fig. 6): Paper with a
    /// nullable Paper_ProgramId_Is, Program_Paper keyed on Paper_ProgramId,
    /// tied together by an equality view constraint (C_EQ$).
    fn alt3() -> (RelSchema, TableId, TableId) {
        let mut s = RelSchema::new("alt3");
        let d_id = s.domain("D_Paper_Id", DataType::Char(6));
        let d_pid = s.domain("D_Paper_ProgramId", DataType::Char(2));
        let d_sess = s.domain("D_Session", DataType::Numeric(3, 0));
        let paper = s.add_table(Table::new(
            "Paper",
            vec![
                Column::not_null("Paper_Id", d_id),
                Column::nullable("Paper_ProgramId_Is", d_pid),
            ],
        ));
        let pp = s.add_table(Table::new(
            "Program_Paper",
            vec![
                Column::not_null("Paper_ProgramId", d_pid),
                Column::not_null("Session_comprising", d_sess),
            ],
        ));
        s.add_named(RelConstraintKind::PrimaryKey {
            table: paper,
            cols: vec![0],
        });
        s.add_named(RelConstraintKind::PrimaryKey {
            table: pp,
            cols: vec![0],
        });
        s.add_named(RelConstraintKind::ForeignKey {
            table: pp,
            cols: vec![0],
            ref_table: paper,
            ref_cols: vec![1],
        });
        s.add_named(RelConstraintKind::EqualityView {
            left: ColumnSelection::of(pp, vec![0]),
            right: ColumnSelection::of(paper, vec![1]).where_not_null(vec![1]),
        });
        (s, paper, pp)
    }

    #[test]
    fn consistent_alt3_state_is_valid() {
        let (s, paper, pp) = alt3();
        let mut st = RelState::with_tables(2);
        st.insert(paper, vec![v("P1"), v("p1")]);
        st.insert(paper, vec![v("P2"), None]);
        st.insert(pp, vec![v("p1"), Some(Value::Int(3))]);
        assert!(is_valid(&s, &st), "{:?}", validate(&s, &st));
    }

    #[test]
    fn equality_view_detects_redundancy_drift() {
        let (s, paper, pp) = alt3();
        let mut st = RelState::with_tables(2);
        // Paper claims a program id but Program_Paper has no matching row.
        st.insert(paper, vec![v("P1"), v("p1")]);
        let vio = validate(&s, &st);
        assert!(vio.iter().any(|x| x.constraint.starts_with("C_EQ$")));
        // And the reverse drift is caught by FK + equality.
        let mut st2 = RelState::with_tables(2);
        st2.insert(paper, vec![v("P1"), None]);
        st2.insert(pp, vec![v("p1"), Some(Value::Int(3))]);
        let vio2 = validate(&s, &st2);
        assert!(vio2.iter().any(|x| x.constraint.starts_with("C_FKEY$")));
        assert!(vio2.iter().any(|x| x.constraint.starts_with("C_EQ$")));
    }

    #[test]
    fn primary_key_rejects_duplicates_and_nulls() {
        let (s, paper, _) = alt3();
        let mut st = RelState::with_tables(2);
        st.insert(paper, vec![v("P1"), None]);
        st.insert(paper, vec![v("P1"), v("p1")]);
        let vio = validate(&s, &st);
        assert!(vio.iter().any(|x| x.detail.contains("duplicate key")));
    }

    #[test]
    fn not_null_and_domain_enforced() {
        let (s, paper, _) = alt3();
        let mut st = RelState::with_tables(2);
        st.insert(paper, vec![None, None]);
        st.insert(paper, vec![v("WAY-TOO-LONG-ID"), None]);
        let vio = validate(&s, &st);
        assert!(vio.iter().any(|x| x.constraint == "NOT NULL"));
        assert!(vio.iter().any(|x| x.constraint == "DOMAIN"));
    }

    #[test]
    fn dependent_and_equal_existence() {
        let mut s = RelSchema::new("alt4");
        let d = s.domain("D", DataType::Char(8));
        let t = s.add_table(Table::new(
            "Paper",
            vec![
                Column::not_null("Paper_Id", d),
                Column::nullable("Paper_ProgramId_with", d),
                Column::nullable("Session_comprising", d),
                Column::nullable("Person_presenting", d),
            ],
        ));
        s.add_named(RelConstraintKind::PrimaryKey {
            table: t,
            cols: vec![0],
        });
        // Paper fig. 6, Alternative 4: C_DE$ (presenting needs a program id)
        // and C_EE$ (program id and session exist together).
        s.add_named(RelConstraintKind::DependentExistence {
            table: t,
            dependent: 3,
            on: 1,
        });
        s.add_named(RelConstraintKind::EqualExistence {
            table: t,
            cols: vec![1, 2],
        });
        let mut st = RelState::with_tables(1);
        st.insert(t, vec![v("P1"), v("p1"), v("s1"), v("alice")]);
        st.insert(t, vec![v("P2"), None, None, None]);
        assert!(is_valid(&s, &st), "{:?}", validate(&s, &st));
        st.insert(t, vec![v("P3"), None, None, v("bob")]);
        st.insert(t, vec![v("P4"), v("p4"), None, None]);
        let vio = validate(&s, &st);
        assert!(vio.iter().any(|x| x.constraint.starts_with("C_DE$")));
        assert!(vio.iter().any(|x| x.constraint.starts_with("C_EE$")));
    }

    #[test]
    fn conditional_equality_indicator() {
        let mut s = RelSchema::new("alt_ind");
        let d = s.domain("D", DataType::Char(8));
        let db = s.domain("D_Flag", DataType::Boolean);
        let paper = s.add_table(Table::new(
            "Paper",
            vec![
                Column::not_null("Paper_Id", d),
                Column::not_null("Is_Program_Paper", db),
            ],
        ));
        let pp = s.add_table(Table::new(
            "Program_Paper",
            vec![Column::not_null("Paper_Id", d)],
        ));
        s.add_named(RelConstraintKind::ConditionalEquality {
            table: paper,
            indicator: 1,
            when_value: Value::Bool(true),
            key_cols: vec![0],
            sub: ColumnSelection::of(pp, vec![0]),
        });
        let mut st = RelState::with_tables(2);
        st.insert(paper, vec![v("P1"), Some(Value::Bool(true))]);
        st.insert(paper, vec![v("P2"), Some(Value::Bool(false))]);
        st.insert(pp, vec![v("P1")]);
        assert!(is_valid(&s, &st), "{:?}", validate(&s, &st));
        // Flip the indicator: redundancy now inconsistent.
        st.remove(paper, &vec![v("P2"), Some(Value::Bool(false))]);
        st.insert(paper, vec![v("P2"), Some(Value::Bool(true))]);
        assert!(!is_valid(&s, &st));
    }

    #[test]
    fn exclusion_total_union_check_value_frequency() {
        let mut s = RelSchema::new("misc");
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
        s.add_named(RelConstraintKind::CheckValue {
            table: u,
            col: 0,
            values: vec![Value::str("x"), Value::str("y"), Value::str("z")],
        });
        s.add_named(RelConstraintKind::Frequency {
            table: u,
            cols: vec![0],
            min: 1,
            max: Some(1),
        });
        let mut st = RelState::with_tables(3);
        st.insert(u, vec![v("x")]);
        st.insert(a, vec![v("x")]);
        assert!(is_valid(&s, &st), "{:?}", validate(&s, &st));
        st.insert(b, vec![v("x")]); // violates exclusion
        st.insert(u, vec![v("q")]); // violates total union + check value
        let vio = validate(&s, &st);
        assert!(vio.iter().any(|x| x.constraint.starts_with("C_EX$")));
        assert!(vio.iter().any(|x| x.constraint.starts_with("C_TU$")));
        assert!(vio.iter().any(|x| x.constraint.starts_with("C_VAL$")));
    }
}
