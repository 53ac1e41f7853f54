//! The database proper: constraint-checked storage plus the query executor.

use std::collections::HashMap;
use std::fmt;

use ridl_brm::Value;
use ridl_durable::timed;
use ridl_relational::{
    parallel, validate_delta, validate_load, ColumnSelection, ConstraintIndexes, Delta, DeltaOp,
    RelSchema, RelState, RelViolation, Row, TableId,
};

use crate::query::{Pred, Query};
use crate::report::{EnforcementReport, QueryExplain};

/// How mutations are checked against the schema's constraints.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ValidationMode {
    /// Delta validation: only constraints reachable from the touched rows
    /// are checked, via O(1) probes on the maintained
    /// [`ConstraintIndexes`]. O(change) per mutation. The default.
    #[default]
    Incremental,
    /// Re-validate the entire state on every mutation. O(database) per
    /// mutation; kept as the oracle and for benchmarking the difference.
    FullState,
}

/// One operation of a mutation batch, addressed by table name (the
/// engine's external interface). See [`Database::apply_batch`].
#[derive(Clone, PartialEq, Debug)]
pub enum BatchOp {
    /// Insert a row. A row already present when the batch reaches this op
    /// rejects the whole batch (set semantics: a duplicate insert is
    /// almost always a key violation in disguise, mirroring
    /// [`Database::insert`]).
    Insert {
        /// Target table name.
        table: String,
        /// The row.
        row: Row,
    },
    /// Delete one exact row. Deleting a row that is absent when the batch
    /// reaches this op is a no-op, mirroring a `delete_where` that
    /// matches nothing.
    Delete {
        /// Target table name.
        table: String,
        /// The row.
        row: Row,
    },
}

impl BatchOp {
    /// An insert op.
    pub fn insert(table: impl Into<String>, row: Row) -> Self {
        BatchOp::Insert {
            table: table.into(),
            row,
        }
    }

    /// A delete op.
    pub fn delete(table: impl Into<String>, row: Row) -> Self {
        BatchOp::Delete {
            table: table.into(),
            row,
        }
    }
}

/// Errors raised by the engine.
#[derive(Clone, PartialEq, Debug)]
pub enum EngineError {
    /// The schema definition itself is inconsistent.
    BadSchema(Vec<String>),
    /// A named table/column/view does not exist.
    Unknown(String),
    /// A column reference matches several columns of a joined relation
    /// (e.g. an unqualified name in a self-join); qualify it.
    Ambiguous(String),
    /// A statement would violate constraints; the update was rolled back.
    ConstraintViolation(Vec<RelViolation>),
    /// Transaction misuse (commit/rollback without begin).
    NoTransaction,
    /// A durability I/O failure (WAL append/fsync or checkpoint write).
    /// The in-memory statement was rolled back.
    Io(String),
    /// A previous WAL write failed, so the log no longer matches the
    /// state; mutations are refused until a successful
    /// [`Database::checkpoint`] re-establishes a durable base.
    WalPoisoned,
    /// [`Database::checkpoint`] was called while a transaction is open —
    /// a snapshot would capture uncommitted changes.
    CheckpointInTransaction,
    /// The on-disk store is corrupt beyond what recovery can repair
    /// (e.g. the WAL requires a checkpoint that no longer decodes).
    Corrupt(String),
    /// The on-disk store was written under a different schema.
    SchemaMismatch,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::BadSchema(errs) => write!(f, "bad schema: {}", errs.join("; ")),
            EngineError::Unknown(what) => write!(f, "unknown object: {what}"),
            EngineError::Ambiguous(what) => write!(f, "ambiguous reference: {what}"),
            EngineError::ConstraintViolation(v) => {
                write!(f, "constraint violation: ")?;
                for x in v.iter().take(3) {
                    write!(f, "[{x}] ")?;
                }
                Ok(())
            }
            EngineError::NoTransaction => write!(f, "no open transaction"),
            EngineError::Io(e) => write!(f, "durability I/O failure: {e}"),
            EngineError::WalPoisoned => write!(
                f,
                "WAL poisoned by an earlier write failure; checkpoint to resume"
            ),
            EngineError::CheckpointInTransaction => {
                write!(f, "cannot checkpoint while a transaction is open")
            }
            EngineError::Corrupt(e) => write!(f, "store corrupt: {e}"),
            EngineError::SchemaMismatch => {
                write!(f, "store was written under a different schema")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// An in-memory, constraint-enforcing relational database.
///
/// Mutations are O(change), not O(database): the engine maintains
/// [`ConstraintIndexes`] next to the state, validates each statement's
/// delta with [`validate_delta`], and rolls back by replaying an **undo
/// log** of inverse row operations — no state snapshot is ever cloned,
/// neither per statement nor per transaction.
pub struct Database {
    pub(crate) schema: RelSchema,
    pub(crate) state: RelState,
    indexes: ConstraintIndexes,
    pub(crate) views: HashMap<String, Query>,
    /// Applied row operations since the outermost transaction began (or
    /// since the last statement, outside transactions). Rolling back means
    /// replaying a suffix in reverse with each op inverted.
    pub(crate) undo: Vec<DeltaOp>,
    /// Undo-log positions where each open transaction began.
    pub(crate) txn_marks: Vec<usize>,
    mode: ValidationMode,
    /// The most recent statement's enforcement report.
    last_report: Option<EnforcementReport>,
    /// Durability wiring; `None` for a purely in-memory database.
    pub(crate) wal: Option<crate::durable::WalHandle>,
    /// The recovery report produced when this database was opened from a
    /// store directory.
    pub(crate) recovery: Option<ridl_durable::RecoveryReport>,
}

impl Database {
    /// Creates an empty database over a schema.
    pub fn create(schema: RelSchema) -> Result<Self, EngineError> {
        let errs = schema.check_ids();
        if !errs.is_empty() {
            return Err(EngineError::BadSchema(errs));
        }
        let state = RelState::with_tables(schema.tables.len());
        let indexes = ConstraintIndexes::build(&schema, &state);
        Ok(Self {
            schema,
            state,
            indexes,
            views: HashMap::new(),
            undo: Vec::new(),
            txn_marks: Vec::new(),
            mode: ValidationMode::default(),
            last_report: None,
            wal: None,
            recovery: None,
        })
    }

    /// Refuses mutations while the WAL is poisoned: after a failed
    /// append/fsync the log no longer reflects the state, so anything
    /// committed now could be silently lost on crash. A successful
    /// [`Database::checkpoint`] re-establishes a durable base and clears
    /// the flag.
    fn ensure_writable(&self) -> Result<(), EngineError> {
        match &self.wal {
            Some(w) if w.is_poisoned() => Err(EngineError::WalPoisoned),
            _ => Ok(()),
        }
    }

    /// The schema.
    pub fn schema(&self) -> &RelSchema {
        &self.schema
    }

    /// The raw state (e.g. to compare against a state map's output).
    pub fn state(&self) -> &RelState {
        &self.state
    }

    /// The constraint indexes maintained alongside the state.
    pub fn indexes(&self) -> &ConstraintIndexes {
        &self.indexes
    }

    /// Selects how mutations are validated (delta probes vs full re-scan).
    pub fn set_validation_mode(&mut self, mode: ValidationMode) {
        self.mode = mode;
    }

    /// The active validation mode.
    pub fn validation_mode(&self) -> ValidationMode {
        self.mode
    }

    /// Replaces the whole state, validating it first and rebuilding the
    /// constraint indexes. Like [`Database::bulk_load`] it builds the
    /// indexes once and checks every constraint in aggregate over them
    /// ([`validate_load`]) — the same verdict as the full validator.
    /// Any open transactions are discarded.
    pub fn load_state(&mut self, state: RelState) -> Result<(), EngineError> {
        self.load_state_timed(state, &mut 0, &mut 0)
    }

    /// [`Database::load_state`], adding the nanoseconds spent building
    /// the indexes and validating against them to `build_ns` and
    /// `validate_ns` (recovery reports both as stages).
    pub(crate) fn load_state_timed(
        &mut self,
        state: RelState,
        build_ns: &mut u64,
        validate_ns: &mut u64,
    ) -> Result<(), EngineError> {
        self.ensure_writable()?;
        let mut span = ridl_obs::span::enter("engine.load_state");
        if span.is_recording() {
            span.attr("rows", state.num_rows());
        }
        let indexes = timed(build_ns, || ConstraintIndexes::build(&self.schema, &state));
        let violations = timed(validate_ns, || {
            validate_load(&self.schema, &state, &indexes)
        });
        if !violations.is_empty() {
            return Err(EngineError::ConstraintViolation(violations));
        }
        self.install(state, indexes)
    }

    /// Swaps in a validated state with its freshly built indexes. Durable
    /// stores checkpoint it *before* the swap: a checkpoint failure aborts
    /// with both the memory and the on-disk store still holding the old
    /// state. Always a full base — the dirty-extent set describes the
    /// *current* state, not this candidate. Open transactions are
    /// discarded.
    fn install(&mut self, state: RelState, indexes: ConstraintIndexes) -> Result<(), EngineError> {
        self.wal_checkpoint_of(&state, true)?;
        self.state = state;
        self.indexes = indexes;
        self.undo.clear();
        self.txn_marks.clear();
        self.debug_check_equivalence();
        Ok(())
    }

    fn table_id(&self, name: &str) -> Result<TableId, EngineError> {
        self.schema
            .table_by_name(name)
            .ok_or_else(|| EngineError::Unknown(format!("table {name}")))
    }

    /// Applies one row operation to the state and indexes, recording it in
    /// the undo log. Returns false (recording nothing) when the state
    /// already absorbed it (duplicate insert / missing removal).
    pub(crate) fn apply(&mut self, op: DeltaOp) -> bool {
        let changed = match &op {
            DeltaOp::Insert { table, row } => {
                let done = self.state.insert(*table, row.clone());
                if done {
                    self.indexes.note_insert(*table, row);
                }
                done
            }
            DeltaOp::Remove { table, row } => {
                let done = self.state.remove(*table, row);
                if done {
                    self.indexes.note_remove(*table, row);
                }
                done
            }
        };
        if changed {
            let (DeltaOp::Insert { table, row } | DeltaOp::Remove { table, row }) = &op;
            self.note_dirty(*table, row);
            self.undo.push(op);
        }
        changed
    }

    /// Replays the undo log down to `mark`, inverting each operation.
    fn revert_to(&mut self, mark: usize) {
        let n = self.undo.len().saturating_sub(mark);
        if n > 0 {
            ridl_obs::metrics().reverts.inc();
            ridl_obs::metrics().reverted_ops.add(n as u64);
        }
        while self.undo.len() > mark {
            // Reverting re-dirties the extent: its content moved twice
            // (apply + revert) since the last checkpoint. Conservative —
            // the net change may be zero — but cheap and always safe.
            match self.undo.pop().expect("undo entry") {
                DeltaOp::Insert { table, row } => {
                    self.state.remove(table, &row);
                    self.indexes.note_remove(table, &row);
                    self.note_dirty(table, &row);
                }
                DeltaOp::Remove { table, row } => {
                    self.indexes.note_insert(table, &row);
                    self.note_dirty(table, &row);
                    self.state.insert(table, row);
                }
            }
        }
    }

    /// Statement epilogue: validates the ops recorded since `mark`
    /// (O(change) in [`ValidationMode::Incremental`]), reverting them on
    /// violation. Outside transactions a clean statement also drains the
    /// undo log — nothing left to roll back to.
    ///
    /// Incremental validation runs on the **net** delta: inverse pairs on
    /// the same row cancel before probing, so a batch (or an identity
    /// update) that touches a row and puts it back is judged by what
    /// actually changed — the same verdict full re-validation of the
    /// post-state gives.
    pub(crate) fn finish_statement(
        &mut self,
        mark: usize,
        statement: &'static str,
    ) -> Result<(), EngineError> {
        let m = ridl_obs::metrics();
        let detail = ridl_obs::detail_enabled();
        let before = if detail {
            Some(ridl_obs::snapshot())
        } else {
            None
        };
        let sw = ridl_obs::Stopwatch::start();
        let mut span = ridl_obs::span::enter("engine.statement");
        let ops = self.undo.len() - mark;
        let net = Delta {
            ops: self.undo[mark..].to_vec(),
        }
        .net();
        // Every statement starts from a valid pre-state (the previous
        // statement was validated, or reverted): the delta validator's
        // precondition. `FullState` re-scans the whole state as the oracle.
        let (strategy, violations) = match self.mode {
            ValidationMode::Incremental => (
                "delta",
                validate_delta(&self.schema, &self.state, &self.indexes, &net),
            ),
            ValidationMode::FullState => (
                "full",
                parallel::validate_parallel(&self.schema, &self.state),
            ),
        };
        if span.is_recording() {
            span.attr("statement", statement);
            span.attr("strategy", strategy);
            span.attr("ops", ops);
            span.attr("net_ops", net.len());
            span.attr("violations", violations.len());
        }
        m.statements.inc();
        if strategy == "delta" {
            m.statements_delta.inc();
        } else {
            m.statements_full.inc();
        }
        m.undo_high_water.raise_to(self.undo.len() as u64);
        let ok = violations.is_empty();
        let diff = before.map(|b| ridl_obs::snapshot().since(&b));
        let report = EnforcementReport {
            statement,
            mode: self.mode,
            strategy,
            ops,
            net_ops: net.len(),
            violations: violations.len(),
            reverted: !ok,
            key_probes: diff.as_ref().map_or(0, |d| d.counter("index.key_probes")),
            sel_probes: diff.as_ref().map_or(0, |d| d.counter("index.sel_probes")),
            undo_depth: self.undo.len(),
            duration_ns: sw.elapsed_ns(),
            per_kind: diff
                .as_ref()
                .map(EnforcementReport::per_kind_from)
                .unwrap_or_default(),
        };
        self.last_report = Some(report);
        if !ok {
            // Statement-level flight-recorder events are part of the
            // durability record, so only durable databases pay for them.
            if self.wal.is_some() {
                ridl_obs::journal::record(
                    ridl_obs::Severity::Warn,
                    "stmt.abort",
                    vec![
                        ("statement", statement.into()),
                        ("ops", ops.into()),
                        ("violations", violations.len().into()),
                    ],
                );
            }
            self.revert_to(mark);
            return Err(EngineError::ConstraintViolation(violations));
        }
        if self.txn_marks.is_empty() {
            // Outside transactions a clean statement is a commit point:
            // append it to the WAL (with its commit marker) before
            // draining the undo log. A WAL failure reverts the statement
            // — the caller sees an error, and the state never diverges
            // from what the log can reconstruct.
            if let Err(e) = self.wal_commit(mark) {
                ridl_obs::journal::record(
                    ridl_obs::Severity::Error,
                    "stmt.abort",
                    vec![("statement", statement.into()), ("reason", "wal".into())],
                );
                self.revert_to(mark);
                return Err(e);
            }
            if self.wal.is_some() {
                ridl_obs::journal::record(
                    ridl_obs::Severity::Debug,
                    "stmt.commit",
                    vec![
                        ("statement", statement.into()),
                        ("ops", ops.into()),
                        ("strategy", strategy.into()),
                    ],
                );
            }
        }
        self.debug_check_equivalence();
        if self.txn_marks.is_empty() {
            self.undo.clear();
            self.maybe_auto_checkpoint();
        }
        Ok(())
    }

    /// The enforcement report of the most recent mutating statement —
    /// which validation strategy ran, the (net) delta size, and, while the
    /// obs detail gate is on, probe counts and per-constraint-class
    /// timings. `None` until the first statement runs.
    pub fn last_statement_report(&self) -> Option<&EnforcementReport> {
        self.last_report.as_ref()
    }

    /// Debug oracle: a state the delta or the aggregate (load) validator
    /// accepted must also satisfy the full validator, and the indexes must
    /// equal a fresh build. Compiled out of release builds.
    fn debug_check_equivalence(&self) {
        #[cfg(debug_assertions)]
        {
            use ridl_relational::validate;
            if self.mode == ValidationMode::Incremental {
                let full = validate::validate(&self.schema, &self.state);
                debug_assert!(
                    full.is_empty(),
                    "delta or aggregate validation accepted a state the full validator \
                     rejects: {full:?}"
                );
                debug_assert!(
                    self.indexes.consistent_with(&self.schema, &self.state),
                    "constraint indexes drifted from the state"
                );
            }
        }
    }

    /// Inserts a row, enforcing every constraint; rolls back on violation.
    /// Re-inserting an existing row is rejected (relations are sets; a
    /// duplicate insert is almost always a key violation in disguise).
    pub fn insert(&mut self, table: &str, row: Row) -> Result<(), EngineError> {
        self.ensure_writable()?;
        let tid = self.table_id(table)?;
        let mark = self.undo.len();
        if !self.apply(DeltaOp::Insert { table: tid, row }) {
            return Err(EngineError::ConstraintViolation(vec![RelViolation {
                constraint: "DUPLICATE".into(),
                detail: format!("row already present in {table}"),
            }]));
        }
        self.finish_statement(mark, "insert")
    }

    /// Deletes the rows matching the predicate; returns how many went.
    /// Single pass: only the matching rows are copied (into the undo log),
    /// never the state. A predicate naming an unknown column is an error
    /// — it does not silently match zero rows.
    pub fn delete_where(&mut self, table: &str, preds: &[Pred]) -> Result<usize, EngineError> {
        self.ensure_writable()?;
        let tid = self.table_id(table)?;
        let mark = self.undo.len();
        let matching = self.matching_rows(tid, preds)?;
        let n = matching.len();
        for row in matching {
            self.apply(DeltaOp::Remove { table: tid, row });
        }
        self.finish_statement(mark, "delete_where")?;
        Ok(n)
    }

    /// The rows of `tid` matching every predicate, propagating predicate
    /// errors (unknown column) instead of treating them as non-matches.
    fn matching_rows(&self, tid: TableId, preds: &[Pred]) -> Result<Vec<Row>, EngineError> {
        let mut matching = Vec::new();
        for row in self.state.rows(tid) {
            if self.row_matches(tid, row, preds)? {
                matching.push(row.clone());
            }
        }
        Ok(matching)
    }

    /// Updates matching rows by setting columns; returns how many changed.
    /// Each matching row becomes one remove + one insert in the undo log.
    /// An assigned row that collides with an existing row rejects the
    /// whole statement with a `DUPLICATE` violation (set semantics — a
    /// silent merge would under-report the row count and lose data),
    /// matching [`Database::apply_batch`]. Predicate errors propagate.
    pub fn update_where(
        &mut self,
        table: &str,
        preds: &[Pred],
        assignments: &[(&str, Option<Value>)],
    ) -> Result<usize, EngineError> {
        self.ensure_writable()?;
        let tid = self.table_id(table)?;
        let cols: Vec<(u32, Option<Value>)> = assignments
            .iter()
            .map(|(name, v)| {
                self.schema
                    .table(tid)
                    .column_by_name(name)
                    .map(|c| (c, v.clone()))
                    .ok_or_else(|| EngineError::Unknown(format!("column {name}")))
            })
            .collect::<Result<_, _>>()?;
        let mark = self.undo.len();
        let matching = self.matching_rows(tid, preds)?;
        let n = matching.len();
        for row in matching {
            let mut new_row = row.clone();
            for (c, v) in &cols {
                new_row[*c as usize] = v.clone();
            }
            self.apply(DeltaOp::Remove { table: tid, row });
            if !self.apply(DeltaOp::Insert {
                table: tid,
                row: new_row,
            }) {
                self.revert_to(mark);
                return Err(EngineError::ConstraintViolation(vec![RelViolation {
                    constraint: "DUPLICATE".into(),
                    detail: format!("updated row already present in {table}"),
                }]));
            }
        }
        self.finish_statement(mark, "update_where")?;
        Ok(n)
    }

    // ---- batched mutations ----

    /// Applies a group of inserts and deletes as **one statement**: every
    /// op runs under a single undo-log watermark, the accumulated delta is
    /// validated once (netted, so inverse pairs cancel), and on rejection
    /// the entire batch is reverted — group commit, all or nothing.
    ///
    /// Because validation sees the batch as a whole, a batch may pass
    /// through states its individual ops could not: deleting a
    /// foreign-key target and re-inserting its replacement in the same
    /// batch is legal, where the lone delete would be rejected.
    ///
    /// Table names are resolved before anything is applied, so an unknown
    /// name mutates nothing. Returns how many row operations changed the
    /// state (deletes of absent rows are no-ops and do not count).
    pub fn apply_batch(
        &mut self,
        ops: impl IntoIterator<Item = BatchOp>,
    ) -> Result<usize, EngineError> {
        self.ensure_writable()?;
        let ops: Vec<(TableId, bool, Row)> = ops
            .into_iter()
            .map(|op| match op {
                BatchOp::Insert { table, row } => self.table_id(&table).map(|t| (t, true, row)),
                BatchOp::Delete { table, row } => self.table_id(&table).map(|t| (t, false, row)),
            })
            .collect::<Result<_, _>>()?;
        ridl_obs::metrics().batches.inc();
        ridl_obs::metrics().batch_ops.add(ops.len() as u64);
        let mark = self.undo.len();
        let mut changed = 0usize;
        for (tid, is_insert, row) in ops {
            if is_insert {
                if !self.apply(DeltaOp::Insert { table: tid, row }) {
                    let name = self.schema.table(tid).name.clone();
                    self.revert_to(mark);
                    return Err(EngineError::ConstraintViolation(vec![RelViolation {
                        constraint: "DUPLICATE".into(),
                        detail: format!("row already present in {name}"),
                    }]));
                }
                changed += 1;
            } else if self.apply(DeltaOp::Remove { table: tid, row }) {
                changed += 1;
            }
        }
        self.finish_statement(mark, "batch")?;
        Ok(changed)
    }

    /// Replaces the whole state by **streaming** rows through freshly
    /// charged constraint indexes (tables partitioned across cores for
    /// large loads), then checking each constraint **in aggregate** over
    /// its counters — O(distinct projections) per constraint plus one
    /// hash-free structural pass, instead of the per-constraint state
    /// scans of the full validator.
    ///
    /// Sound because the empty pre-state is trivially valid, so the
    /// charged counters summarise exactly the loaded state. Duplicate
    /// rows are absorbed silently (relations are sets); the returned
    /// count is the number of distinct rows loaded. On violation (or an
    /// out-of-range table id) the database is left untouched — the load
    /// builds aside and swaps in only on success. Open transactions are
    /// discarded on success, as with `load_state`.
    pub fn bulk_load(
        &mut self,
        rows: impl IntoIterator<Item = (TableId, Row)>,
    ) -> Result<usize, EngineError> {
        self.ensure_writable()?;
        let mut tables: Vec<Vec<Row>> = vec![Vec::new(); self.schema.tables.len()];
        for (tid, row) in rows {
            let Some(table) = tables.get_mut(tid.index()) else {
                return Err(EngineError::Unknown(format!(
                    "table id {} (schema has {})",
                    tid.index(),
                    self.schema.tables.len()
                )));
            };
            table.push(row);
        }
        let (state, _) = RelState::from_table_rows(tables);
        let loaded = state.num_rows();
        let m = ridl_obs::metrics();
        let detail = ridl_obs::detail_enabled();
        let before = if detail {
            Some(ridl_obs::snapshot())
        } else {
            None
        };
        let sw = ridl_obs::Stopwatch::start();
        let mut span = ridl_obs::span::enter("engine.statement");
        if span.is_recording() {
            span.attr("statement", "bulk_load");
            span.attr("strategy", "aggregate");
            span.attr("rows", loaded);
        }
        let indexes = ConstraintIndexes::build(&self.schema, &state);
        let violations = validate_load(&self.schema, &state, &indexes);
        m.statements.inc();
        m.statements_aggregate.inc();
        m.bulk_loads.inc();
        m.bulk_rows.add(loaded as u64);
        let diff = before.map(|b| ridl_obs::snapshot().since(&b));
        let report = EnforcementReport {
            statement: "bulk_load",
            mode: self.mode,
            strategy: "aggregate",
            ops: loaded,
            net_ops: loaded,
            violations: violations.len(),
            reverted: !violations.is_empty(),
            key_probes: diff.as_ref().map_or(0, |d| d.counter("index.key_probes")),
            sel_probes: diff.as_ref().map_or(0, |d| d.counter("index.sel_probes")),
            undo_depth: 0,
            duration_ns: sw.elapsed_ns(),
            per_kind: diff
                .as_ref()
                .map(EnforcementReport::per_kind_from)
                .unwrap_or_default(),
        };
        self.last_report = Some(report);
        if !violations.is_empty() {
            return Err(EngineError::ConstraintViolation(violations));
        }
        // Checkpointing the load (in `install`) instead of logging every
        // row through the WAL avoids double-writing it.
        self.install(state, indexes)?;
        Ok(loaded)
    }

    fn col_by_name(&self, tid: TableId, name: &str) -> Option<u32> {
        // Accept both bare and `Table.col` qualified names.
        let bare = name.rsplit('.').next().unwrap_or(name);
        if let Some(prefix) = name.strip_suffix(&format!(".{bare}")) {
            if self.schema.table(tid).name != prefix {
                return None;
            }
        }
        self.schema.table(tid).column_by_name(bare)
    }

    fn row_matches(&self, tid: TableId, row: &Row, preds: &[Pred]) -> Result<bool, EngineError> {
        for p in preds {
            let col_of = |c: &String| -> Result<usize, EngineError> {
                self.col_by_name(tid, c)
                    .map(|i| i as usize)
                    .ok_or_else(|| EngineError::Unknown(format!("column {c}")))
            };
            let ok = match p {
                Pred::Eq(c, v) => row[col_of(c)?].as_ref() == Some(v),
                Pred::IsNull(c) => row[col_of(c)?].is_none(),
                Pred::NotNull(c) => row[col_of(c)?].is_some(),
            };
            if !ok {
                return Ok(false);
            }
        }
        Ok(true)
    }

    // ---- queries ----

    /// Runs a query; rows carry the projected columns in order.
    pub fn select(&self, q: &Query) -> Result<Vec<Row>, EngineError> {
        execute_query(&self.schema, &self.state, q, &mut None)
    }

    /// Executes a query while recording its plan: each step (scan, join,
    /// filter, project) with the rows it actually produced. Row counts are
    /// measured, not estimated — the point is seeing where rows multiply
    /// or vanish in a nested-loop join.
    pub fn explain(&self, q: &Query) -> Result<QueryExplain, EngineError> {
        explain_query(&self.schema, &self.state, q)
    }

    /// Executes a [`ColumnSelection`] — a forwards-map SELECT — directly.
    pub fn select_selection(&self, sel: &ColumnSelection) -> Vec<Row> {
        self.state
            .select_where(sel.table, &sel.cols, &sel.not_null, &sel.eq)
            .into_iter()
            .collect()
    }

    // ---- views ----

    /// Defines a named view (the "open" meta-database interface, §3.1).
    pub fn create_view(&mut self, name: impl Into<String>, q: Query) {
        self.views.insert(name.into(), q);
    }

    /// Runs a named view.
    pub fn select_view(&self, name: &str) -> Result<Vec<Row>, EngineError> {
        let q = self
            .views
            .get(name)
            .ok_or_else(|| EngineError::Unknown(format!("view {name}")))?;
        self.select(q)
    }

    /// Names of the defined views.
    pub fn view_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.views.keys().map(String::as_str).collect();
        v.sort();
        v
    }

    // ---- transactions ----

    /// Opens a transaction. O(1): just an undo-log watermark, no snapshot.
    pub fn begin(&mut self) {
        self.txn_marks.push(self.undo.len());
    }

    /// Commits the innermost transaction. Validates nothing: every
    /// statement inside it was validated when it ran, on its net delta
    /// from a valid pre-state. The outermost commit logs the whole
    /// transaction as one WAL unit (statements inside a transaction touch
    /// the log only here); a WAL failure reverts the transaction.
    pub fn commit(&mut self) -> Result<(), EngineError> {
        let mark = self.txn_marks.pop().ok_or(EngineError::NoTransaction)?;
        if !self.txn_marks.is_empty() {
            return Ok(());
        }
        if let Err(e) = self.wal_commit(mark) {
            ridl_obs::journal::record(
                ridl_obs::Severity::Error,
                "stmt.abort",
                vec![("statement", "commit".into()), ("reason", "wal".into())],
            );
            self.revert_to(mark);
            return Err(e);
        }
        if self.wal.is_some() {
            ridl_obs::journal::record(
                ridl_obs::Severity::Debug,
                "stmt.commit",
                vec![
                    ("statement", "commit".into()),
                    ("ops", (self.undo.len() - mark).into()),
                ],
            );
        }
        self.undo.clear();
        self.maybe_auto_checkpoint();
        Ok(())
    }

    /// Rolls back the innermost transaction by replaying its undo-log
    /// suffix in reverse. O(changes in the transaction).
    pub fn rollback(&mut self) -> Result<(), EngineError> {
        let mark = self.txn_marks.pop().ok_or(EngineError::NoTransaction)?;
        self.revert_to(mark);
        Ok(())
    }
}

/// Runs a query against an arbitrary `(schema, state)` pair. This is the
/// whole query executor as a free function, so read-only handles — the
/// [`Database`] itself, but also [`crate::snapshot::ReadSnapshot`] versions
/// frozen for concurrent sessions — execute identical plans over whatever
/// state they hold, through `&self`.
pub(crate) fn execute_query(
    schema: &RelSchema,
    state: &RelState,
    q: &Query,
    explain: &mut Option<QueryExplain>,
) -> Result<Vec<Row>, EngineError> {
    let table_id = |name: &str| -> Result<TableId, EngineError> {
        schema
            .table_by_name(name)
            .ok_or_else(|| EngineError::Unknown(format!("table {name}")))
    };
    // Assemble the joined relation as (qualified name -> index) + rows.
    let tid = table_id(&q.table)?;
    let mut columns: Vec<String> = schema
        .table(tid)
        .columns
        .iter()
        .map(|c| format!("{}.{}", q.table, c.name))
        .collect();
    let mut rows: Vec<Row> = state.rows(tid).iter().cloned().collect();
    if let Some(e) = explain {
        e.step(
            "scan",
            &q.table,
            rows.len(),
            format!("{} columns", columns.len()),
        );
    }

    for join in &q.joins {
        let jt = table_id(&join.table)?;
        let j_cols: Vec<String> = schema
            .table(jt)
            .columns
            .iter()
            .map(|c| format!("{}.{}", join.table, c.name))
            .collect();
        let on: Vec<(usize, u32)> = join
            .on
            .iter()
            .map(|(l, r)| {
                let li = resolve_col(&columns, l)?;
                let ri = schema
                    .table(jt)
                    .column_by_name(r)
                    .ok_or_else(|| EngineError::Unknown(format!("column {r}")))?;
                Ok((li, ri))
            })
            .collect::<Result<_, EngineError>>()?;
        let mut joined = Vec::new();
        for row in &rows {
            for jrow in state.rows(jt) {
                if on.iter().all(|(li, ri)| row[*li] == jrow[*ri as usize]) {
                    let mut merged = row.clone();
                    merged.extend(jrow.iter().cloned());
                    joined.push(merged);
                }
            }
        }
        columns.extend(j_cols);
        rows = joined;
        if let Some(e) = explain {
            let keys: Vec<&str> = join.on.iter().map(|(l, _)| l.as_str()).collect();
            e.step(
                "join",
                &join.table,
                rows.len(),
                format!("nested-loop on {}", keys.join(", ")),
            );
        }
    }

    // Filter.
    let mut filtered = Vec::new();
    'rows: for row in rows {
        for p in &q.filter {
            let matches = match p {
                Pred::Eq(c, v) => row[resolve_col(&columns, c)?].as_ref() == Some(v),
                Pred::IsNull(c) => row[resolve_col(&columns, c)?].is_none(),
                Pred::NotNull(c) => row[resolve_col(&columns, c)?].is_some(),
            };
            if !matches {
                continue 'rows;
            }
        }
        filtered.push(row);
    }
    if let Some(e) = explain {
        if !q.filter.is_empty() {
            e.step(
                "filter",
                format!("{} predicate(s)", q.filter.len()),
                filtered.len(),
                String::new(),
            );
        }
    }

    // Project.
    if q.select.is_empty() {
        return Ok(filtered);
    }
    let proj: Vec<usize> = q
        .select
        .iter()
        .map(|c| resolve_col(&columns, c))
        .collect::<Result<_, _>>()?;
    if let Some(e) = explain {
        e.step(
            "project",
            q.select.join(", "),
            filtered.len(),
            String::new(),
        );
    }
    Ok(filtered
        .into_iter()
        .map(|row| proj.iter().map(|i| row[*i].clone()).collect())
        .collect())
}

/// Runs [`execute_query`] with plan recording on; see [`Database::explain`].
pub(crate) fn explain_query(
    schema: &RelSchema,
    state: &RelState,
    q: &Query,
) -> Result<QueryExplain, EngineError> {
    ridl_obs::metrics().explains.inc();
    let mut ex = Some(QueryExplain::default());
    let rows = execute_query(schema, state, q, &mut ex)?;
    let mut ex = ex.expect("explain plan present");
    ex.rows_out = rows.len();
    Ok(ex)
}

/// Resolves a column reference against the joined relation's qualified
/// column list. A qualified name (`T.C`) must match exactly once; a bare
/// name must be the suffix of exactly one qualified column. Matching more
/// than once — a self-join duplicating qualified names, or a bare name
/// present in several joined tables — is an [`EngineError::Ambiguous`]
/// error, never a silent pick of the first occurrence.
fn resolve_col(columns: &[String], name: &str) -> Result<usize, EngineError> {
    let exact: Vec<usize> = columns
        .iter()
        .enumerate()
        .filter(|(_, c)| *c == name)
        .map(|(i, _)| i)
        .collect();
    match exact.len() {
        1 => return Ok(exact[0]),
        0 => {}
        n => {
            return Err(EngineError::Ambiguous(format!(
                "column {name} matches {n} columns of the joined relation"
            )))
        }
    }
    // Bare name: unique suffix match.
    let matches: Vec<(usize, &String)> = columns
        .iter()
        .enumerate()
        .filter(|(_, c)| c.rsplit('.').next() == Some(name))
        .collect();
    match matches.len() {
        1 => Ok(matches[0].0),
        0 => Err(EngineError::Unknown(format!("column {name}"))),
        _ => Err(EngineError::Ambiguous(format!(
            "column {name} matches {}",
            matches
                .iter()
                .map(|(_, c)| c.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ridl_brm::DataType;
    use ridl_relational::{Column, RelConstraintKind, Table};

    fn v(s: &str) -> Option<Value> {
        Some(Value::str(s))
    }

    fn sample_db() -> Database {
        let mut s = RelSchema::new("t");
        let d = s.domain("D", DataType::Char(10));
        let paper = s.add_table(Table::new(
            "Paper",
            vec![
                Column::not_null("Paper_Id", d),
                Column::nullable("Program_Id", d),
            ],
        ));
        let pp = s.add_table(Table::new(
            "Program_Paper",
            vec![
                Column::not_null("Program_Id", d),
                Column::not_null("Session", d),
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
        Database::create(s).unwrap()
    }

    #[test]
    fn insert_enforces_keys() {
        let mut db = sample_db();
        db.insert("Paper", vec![v("P1"), None]).unwrap();
        // Same key, different row: primary-key violation.
        let err = db.insert("Paper", vec![v("P1"), v("A1")]);
        assert!(matches!(err, Err(EngineError::ConstraintViolation(_))));
        // Identical row: rejected as a duplicate.
        let err = db.insert("Paper", vec![v("P1"), None]);
        assert!(matches!(err, Err(EngineError::ConstraintViolation(_))));
        // State unchanged after the rejected insert.
        assert_eq!(db.state().num_rows(), 1);
    }

    #[test]
    fn foreign_keys_enforced_both_ways() {
        let mut db = sample_db();
        let err = db.insert("Program_Paper", vec![v("A1"), v("S1")]);
        assert!(err.is_err(), "dangling FK accepted");
        db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
        db.insert("Program_Paper", vec![v("A1"), v("S1")]).unwrap();
        // Deleting the referenced paper violates the FK.
        let err = db.delete_where("Paper", &[Pred::Eq("Paper_Id".into(), Value::str("P1"))]);
        assert!(err.is_err());
    }

    #[test]
    fn update_where_works_and_validates() {
        let mut db = sample_db();
        db.insert("Paper", vec![v("P1"), None]).unwrap();
        db.insert("Paper", vec![v("P2"), None]).unwrap();
        let n = db
            .update_where(
                "Paper",
                &[Pred::Eq("Paper_Id".into(), Value::str("P2"))],
                &[("Program_Id", v("A9"))],
            )
            .unwrap();
        assert_eq!(n, 1);
        // Updating both papers to the same key collides.
        let err = db.update_where("Paper", &[], &[("Paper_Id", v("SAME"))]);
        assert!(err.is_err());
        assert_eq!(db.state().num_rows(), 2);
    }

    #[test]
    fn select_with_join_and_filter() {
        let mut db = sample_db();
        db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
        db.insert("Paper", vec![v("P2"), None]).unwrap();
        db.insert("Program_Paper", vec![v("A1"), v("S1")]).unwrap();
        let q = Query::from("Paper")
            .join("Program_Paper", &[("Program_Id", "Program_Id")])
            .select(&["Paper_Id", "Session"]);
        let rows = db.select(&q).unwrap();
        assert_eq!(rows, vec![vec![v("P1"), v("S1")]]);
        let q2 = Query::from("Paper")
            .select(&["Paper_Id"])
            .filter(Pred::IsNull("Program_Id".into()));
        assert_eq!(db.select(&q2).unwrap(), vec![vec![v("P2")]]);
    }

    #[test]
    fn views_are_named_queries() {
        let mut db = sample_db();
        db.insert("Paper", vec![v("P1"), None]).unwrap();
        db.create_view("V_ALL_PAPERS", Query::from("Paper").select(&["Paper_Id"]));
        assert_eq!(db.view_names(), vec!["V_ALL_PAPERS"]);
        assert_eq!(db.select_view("V_ALL_PAPERS").unwrap().len(), 1);
        assert!(db.select_view("NOPE").is_err());
    }

    #[test]
    fn transactions_roll_back_and_batches_check_as_a_whole() {
        let mut db = sample_db();
        db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
        // One batch may insert the FK source before its target: the
        // batch is validated as a whole.
        db.apply_batch([
            BatchOp::insert("Program_Paper", vec![v("A2"), v("S2")]),
            BatchOp::insert("Paper", vec![v("P2"), v("A2")]),
        ])
        .unwrap();
        assert_eq!(db.state().num_rows(), 3);

        // Inside a transaction a violating statement is rejected at once;
        // the transaction stays open and rolls back to its start.
        let state_before = db.state().clone();
        let indexes_before = db.indexes().clone();
        db.begin();
        db.insert("Paper", vec![v("P3"), None]).unwrap();
        let err = db.insert("Program_Paper", vec![v("A9"), v("S9")]);
        assert!(matches!(err, Err(EngineError::ConstraintViolation(_))));
        assert_eq!(
            db.state().num_rows(),
            4,
            "only the violating insert reverted"
        );
        db.rollback().unwrap();
        assert_eq!(db.state(), &state_before);
        assert_eq!(db.indexes(), &indexes_before);
        assert!(db.commit().is_err()); // no open transaction
    }

    #[test]
    fn nested_transactions_unwind_independently() {
        let mut db = sample_db();
        db.insert("Paper", vec![v("P1"), None]).unwrap();
        db.begin();
        db.insert("Paper", vec![v("P2"), None]).unwrap();
        db.begin();
        db.insert("Paper", vec![v("P3"), None]).unwrap();
        // Inner rollback drops only P3.
        db.rollback().unwrap();
        assert_eq!(db.state().num_rows(), 2);
        // Outer commit keeps P2.
        db.commit().unwrap();
        assert_eq!(db.state().num_rows(), 2);
        assert!(db.rollback().is_err(), "no transaction left");
    }

    #[test]
    fn selection_execution_matches_state_select() {
        let mut db = sample_db();
        db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
        db.insert("Paper", vec![v("P2"), None]).unwrap();
        db.insert("Program_Paper", vec![v("A1"), v("S1")]).unwrap();
        let sel = ColumnSelection::of(TableId(0), vec![0]).where_not_null(vec![1]);
        let rows = db.select_selection(&sel);
        assert_eq!(rows, vec![vec![v("P1")]]);
    }

    #[test]
    fn apply_batch_is_all_or_nothing() {
        let mut db = sample_db();
        db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
        let n = db
            .apply_batch([
                BatchOp::insert("Paper", vec![v("P2"), v("A2")]),
                BatchOp::insert("Program_Paper", vec![v("A2"), v("S1")]),
            ])
            .unwrap();
        assert_eq!(n, 2);
        // A failing batch reverts everything, including its clean prefix.
        let err = db.apply_batch([
            BatchOp::insert("Paper", vec![v("P3"), None]),
            BatchOp::insert("Program_Paper", vec![v("A9"), v("S9")]), // dangling FK
        ]);
        assert!(matches!(err, Err(EngineError::ConstraintViolation(_))));
        assert_eq!(db.state().num_rows(), 3);
    }

    #[test]
    fn apply_batch_nets_inverse_ops() {
        let mut db = sample_db();
        db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
        db.insert("Program_Paper", vec![v("A1"), v("S1")]).unwrap();
        // The lone delete would dangle the FK; with the re-insert in the
        // same batch the delta nets out and the batch passes.
        let n = db
            .apply_batch([
                BatchOp::delete("Paper", vec![v("P1"), v("A1")]),
                BatchOp::insert("Paper", vec![v("P1"), v("A1")]),
            ])
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(db.state().num_rows(), 2);
    }

    #[test]
    fn apply_batch_duplicate_matches_insert_message() {
        let mut db = sample_db();
        let err = db.apply_batch([
            BatchOp::insert("Paper", vec![v("P1"), None]),
            BatchOp::insert("Paper", vec![v("P1"), None]),
        ]);
        match err {
            Err(EngineError::ConstraintViolation(vs)) => {
                assert_eq!(vs[0].constraint, "DUPLICATE");
                assert_eq!(vs[0].detail, "row already present in Paper");
            }
            other => panic!("expected DUPLICATE rejection, got {other:?}"),
        }
        assert_eq!(db.state().num_rows(), 0, "batch reverted");
    }

    #[test]
    fn apply_batch_unknown_table_mutates_nothing() {
        let mut db = sample_db();
        let err = db.apply_batch([
            BatchOp::insert("Paper", vec![v("P1"), None]),
            BatchOp::insert("Nope", vec![v("x")]),
        ]);
        assert!(matches!(err, Err(EngineError::Unknown(_))));
        assert_eq!(db.state().num_rows(), 0);
    }

    #[test]
    fn apply_batch_absent_delete_is_noop() {
        let mut db = sample_db();
        let n = db
            .apply_batch([
                BatchOp::insert("Paper", vec![v("P1"), None]),
                BatchOp::delete("Paper", vec![v("GHOST"), None]),
            ])
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(db.state().num_rows(), 1);
    }

    #[test]
    fn bulk_load_replaces_state_and_validates() {
        let mut db = sample_db();
        db.insert("Paper", vec![v("OLD"), None]).unwrap();
        let n = db
            .bulk_load([
                (TableId(0), vec![v("P1"), v("A1")]),
                (TableId(0), vec![v("P2"), None]),
                (TableId(0), vec![v("P2"), None]), // duplicate: absorbed
                (TableId(1), vec![v("A1"), v("S1")]),
            ])
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(db.state().num_rows(), 3);
        // The stream-built indexes match a fresh rebuild.
        assert!(db.indexes().consistent_with(db.schema(), db.state()));
        // A failing load leaves the database untouched.
        let err = db.bulk_load([(TableId(1), vec![v("A9"), v("S9")])]);
        assert!(matches!(err, Err(EngineError::ConstraintViolation(_))));
        assert_eq!(db.state().num_rows(), 3);
    }

    #[test]
    fn bulk_load_rejects_bad_table_id() {
        let mut db = sample_db();
        let err = db.bulk_load([(TableId(9), vec![v("x")])]);
        assert!(matches!(err, Err(EngineError::Unknown(_))));
    }

    #[test]
    fn bad_schema_rejected() {
        let mut s = RelSchema::new("bad");
        s.add_named(RelConstraintKind::PrimaryKey {
            table: TableId(7),
            cols: vec![0],
        });
        assert!(matches!(
            Database::create(s),
            Err(EngineError::BadSchema(_))
        ));
    }

    /// S2 regression: predicate errors in `delete_where` must surface, not
    /// silently match zero rows.
    #[test]
    fn delete_where_propagates_predicate_errors() {
        let mut db = sample_db();
        db.insert("Paper", vec![v("P1"), None]).unwrap();
        let err = db.delete_where("Paper", &[Pred::Eq("Nope".into(), Value::str("P1"))]);
        assert!(
            matches!(err, Err(EngineError::Unknown(ref m)) if m.contains("Nope")),
            "unknown predicate column must error, got {err:?}"
        );
        assert_eq!(db.state().num_rows(), 1, "nothing deleted");
        let err = db.delete_where("Paper", &[Pred::IsNull("Ghost".into())]);
        assert!(matches!(err, Err(EngineError::Unknown(_))));
    }

    /// S2 regression: same for `update_where`.
    #[test]
    fn update_where_propagates_predicate_errors() {
        let mut db = sample_db();
        db.insert("Paper", vec![v("P1"), None]).unwrap();
        let err = db.update_where(
            "Paper",
            &[Pred::NotNull("Missing_Col".into())],
            &[("Program_Id", v("A1"))],
        );
        assert!(matches!(err, Err(EngineError::Unknown(_))));
        assert_eq!(
            db.state().rows(TableId(0)).iter().next().unwrap(),
            &vec![v("P1"), None],
            "no row updated"
        );
    }

    /// S3 regression: an update that collapses two rows into one (the
    /// updated row already exists) must be rejected as a DUPLICATE and
    /// fully reverted — previously the rows were silently merged.
    #[test]
    fn update_where_rejects_silent_row_merge() {
        let mut db = sample_db();
        db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
        db.insert("Paper", vec![v("P2"), v("A1")]).unwrap();
        // Renaming P2 to P1 collides with the untouched P1 row; the PK
        // check alone would *pass* post-merge (one row, one key), so
        // without the duplicate guard this silently deleted a row.
        let err = db.update_where(
            "Paper",
            &[Pred::Eq("Paper_Id".into(), Value::str("P2"))],
            &[("Paper_Id", v("P1"))],
        );
        match err {
            Err(EngineError::ConstraintViolation(vs)) => {
                assert_eq!(vs[0].constraint, "DUPLICATE");
            }
            other => panic!("expected DUPLICATE rejection, got {other:?}"),
        }
        assert_eq!(db.state().num_rows(), 2, "merge reverted");
        assert!(db.indexes().consistent_with(db.schema(), db.state()));
    }

    /// S3 differential: both validation modes agree on the merge
    /// rejection, and an identity update (set a column to its current
    /// value) still succeeds in both.
    #[test]
    fn update_where_merge_rejection_is_mode_independent() {
        for mode in [ValidationMode::Incremental, ValidationMode::FullState] {
            let mut db = sample_db();
            db.set_validation_mode(mode);
            db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
            db.insert("Paper", vec![v("P2"), v("A1")]).unwrap();
            let err = db.update_where(
                "Paper",
                &[Pred::Eq("Paper_Id".into(), Value::str("P2"))],
                &[("Paper_Id", v("P1"))],
            );
            assert!(
                matches!(err, Err(EngineError::ConstraintViolation(_))),
                "{mode:?}: merge accepted"
            );
            assert_eq!(db.state().num_rows(), 2, "{mode:?}: not reverted");
            // Identity update: remove-then-reinsert of the same row.
            let n = db
                .update_where(
                    "Paper",
                    &[Pred::Eq("Paper_Id".into(), Value::str("P1"))],
                    &[("Program_Id", v("A1"))],
                )
                .unwrap();
            assert_eq!(n, 1, "{mode:?}: identity update rejected");
        }
    }

    /// S5 regression: an unqualified column matching several joined tables
    /// (here a self-join duplicating every name) must be an ambiguity
    /// error, not a silent resolution to the first occurrence.
    #[test]
    fn select_rejects_ambiguous_column_references() {
        let mut db = sample_db();
        db.insert("Paper", vec![v("P1"), v("P1")]).unwrap();
        // Self-join: every bare and qualified name now appears twice.
        let q = Query::from("Paper")
            .join("Paper", &[("Paper.Paper_Id", "Program_Id")])
            .select(&["Paper_Id"]);
        let err = db.select(&q);
        assert!(
            matches!(err, Err(EngineError::Ambiguous(ref m)) if m.contains("Paper_Id")),
            "ambiguous projection accepted: {err:?}"
        );
        // Ambiguity in a filter predicate is caught too.
        let q = Query::from("Paper")
            .join("Paper", &[("Paper.Paper_Id", "Program_Id")])
            .filter(Pred::NotNull("Program_Id".into()));
        assert!(matches!(db.select(&q), Err(EngineError::Ambiguous(_))));
        // Qualified names that are genuinely unique still resolve.
        let q = Query::from("Paper")
            .join("Program_Paper", &[("Paper.Program_Id", "Program_Id")])
            .select(&["Session"]);
        assert!(db.select(&q).is_ok());
    }

    /// `explain` runs the query and records the executed plan with actual
    /// row counts per step.
    #[test]
    fn explain_reports_executed_plan() {
        let mut db = sample_db();
        db.insert("Paper", vec![v("P1"), v("A1")]).unwrap();
        db.insert("Paper", vec![v("P2"), None]).unwrap();
        db.insert("Program_Paper", vec![v("A1"), v("S1")]).unwrap();
        let q = Query::from("Paper")
            .join("Program_Paper", &[("Program_Id", "Program_Id")])
            .filter(Pred::NotNull("Session".into()))
            .select(&["Paper_Id", "Session"]);
        let ex = db.explain(&q).unwrap();
        let ops: Vec<&str> = ex.steps.iter().map(|s| s.op).collect();
        assert_eq!(ops, vec!["scan", "join", "filter", "project"]);
        assert_eq!(ex.steps[0].rows_out, 2);
        assert_eq!(ex.steps[1].rows_out, 1);
        assert_eq!(ex.rows_out, 1);
        // The plan's result matches the query's.
        assert_eq!(db.select(&q).unwrap().len(), ex.rows_out);
        assert!(!ex.render().is_empty());
    }
}
