//! Structured reports: what enforcement did for a statement
//! ([`EnforcementReport`]) and what the executor did for a query
//! ([`QueryExplain`]).
//!
//! Both are the engine-level face of the `ridl-obs` layer: cheap enough to
//! produce on every statement (the per-kind breakdown and timings fill in
//! only while the obs detail gate is on), structured enough for tests to
//! assert on, and renderable for the CLI.

use std::fmt::Write as _;

use ridl_obs::{ConstraintClass, MetricsSnapshot};

use crate::db::ValidationMode;

/// Cost attributed to one constraint class during one statement.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConstraintCost {
    /// The class name (see [`ConstraintClass::name`]).
    pub class: &'static str,
    /// Checks run.
    pub checks: u64,
    /// Violations reported.
    pub violations: u64,
    /// Nanoseconds spent (zero when the obs detail gate was off).
    pub nanos: u64,
}

/// What enforcement did for one mutating statement: which validation
/// strategy ran, how big the (net) delta was, what each constraint class
/// cost. Retrieve the most recent one with
/// [`crate::Database::last_statement_report`].
#[derive(Clone, PartialEq, Debug)]
pub struct EnforcementReport {
    /// The statement kind (`insert`, `delete_where`, `update_where`,
    /// `batch`, `bulk_load`, `recover.replay`).
    pub statement: &'static str,
    /// The database's validation mode when the statement ran.
    pub mode: ValidationMode,
    /// The validation strategy that actually ran: `delta` (O(change)
    /// probes), `full` (whole-state re-validation), or `aggregate`
    /// (bulk-load counter-level checks).
    pub strategy: &'static str,
    /// Row operations the statement recorded.
    pub ops: usize,
    /// Net delta size after inverse pairs cancelled.
    pub net_ops: usize,
    /// Violations found (the statement was reverted if nonzero).
    pub violations: usize,
    /// Whether the statement was rolled back.
    pub reverted: bool,
    /// Key-counter probes during validation (detail gate only).
    pub key_probes: u64,
    /// Selection-counter probes during validation (detail gate only).
    pub sel_probes: u64,
    /// Undo-log depth when the statement finished validating.
    pub undo_depth: usize,
    /// Wall-clock nanoseconds for the validation step (detail gate only).
    pub duration_ns: u64,
    /// Per-constraint-class costs, non-zero classes only (detail gate
    /// only for the delta path; bulk aggregate checks always count).
    pub per_kind: Vec<ConstraintCost>,
}

impl EnforcementReport {
    /// Extracts the per-class costs from a statement-scoped snapshot diff,
    /// keeping only classes that did something.
    pub(crate) fn per_kind_from(diff: &MetricsSnapshot) -> Vec<ConstraintCost> {
        ConstraintClass::ALL
            .into_iter()
            .filter_map(|class| {
                let k = diff.kind(class);
                (k.checks != 0 || k.violations != 0 || k.nanos != 0).then(|| ConstraintCost {
                    class: class.name(),
                    checks: k.checks,
                    violations: k.violations,
                    nanos: k.nanos,
                })
            })
            .collect()
    }

    /// Renders the report for terminal output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "statement : {}", self.statement);
        let _ = writeln!(out, "mode      : {:?} ({})", self.mode, self.strategy);
        let _ = writeln!(out, "delta     : {} ops, {} net", self.ops, self.net_ops);
        let _ = writeln!(
            out,
            "verdict   : {}",
            if self.reverted {
                format!("{} violation(s), reverted", self.violations)
            } else {
                "clean".into()
            }
        );
        let _ = writeln!(
            out,
            "probes    : {} key, {} sel; undo depth {}",
            self.key_probes, self.sel_probes, self.undo_depth
        );
        if self.duration_ns > 0 {
            let _ = writeln!(out, "validation: {} ns", self.duration_ns);
        }
        for k in &self.per_kind {
            let _ = writeln!(
                out,
                "  {:<22} {:>6} checks {:>4} violations {:>9} ns",
                k.class, k.checks, k.violations, k.nanos
            );
        }
        out
    }
}

/// One step of a query plan, with the rows it produced.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExplainStep {
    /// The operator (`scan`, `join`, `filter`, `project`).
    pub op: &'static str,
    /// What it ran against (table name, or the predicate/column list).
    pub target: String,
    /// Rows flowing out of this step.
    pub rows_out: usize,
    /// Operator-specific annotation (join keys, predicate count, …).
    pub detail: String,
}

/// The executed plan of one [`crate::Query`], produced by
/// [`crate::Database::explain`]. The query *runs* — row counts are actual,
/// not estimates (the executor is a nested-loop interpreter; the value of
/// EXPLAIN here is seeing where rows multiply or vanish).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct QueryExplain {
    /// The steps, in execution order.
    pub steps: Vec<ExplainStep>,
    /// Rows the query returned.
    pub rows_out: usize,
}

impl QueryExplain {
    pub(crate) fn step(
        &mut self,
        op: &'static str,
        target: impl Into<String>,
        rows_out: usize,
        detail: impl Into<String>,
    ) {
        self.steps.push(ExplainStep {
            op,
            target: target.into(),
            rows_out,
            detail: detail.into(),
        });
    }

    /// Renders the plan for terminal output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.steps.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:>2}. {:<8} {:<28} -> {:>6} rows   {}",
                i + 1,
                s.op,
                s.target,
                s.rows_out,
                s.detail
            );
        }
        let _ = writeln!(out, "    result{:>37} rows", self.rows_out);
        out
    }
}
