//! Read-only database snapshots for concurrent sessions.
//!
//! A [`ReadSnapshot`] is a frozen version of a [`Database`]: the schema,
//! the views, and a copy-on-write clone of the relational state
//! ([`RelState::clone`] is O(tables), not O(rows) — see the CoW notes on
//! `RelState`). Taking one never blocks the writer, and once taken it is
//! immune to later mutation: the writer's `Arc::make_mut` unshares any
//! table it touches, leaving the snapshot's version intact.
//!
//! This is the read half of the server's concurrency story (DESIGN.md
//! §13): sessions execute `query`/`explain` statements against the
//! snapshot published at their statement's start, while the single
//! serialized commit pipeline advances the authoritative state.

use std::collections::HashMap;
use std::sync::Arc;

use ridl_relational::{RelSchema, RelState, Row};

use crate::db::{execute_query, explain_query, Database, EngineError};
use crate::query::Query;
use crate::report::QueryExplain;

/// An immutable frozen version of a database, serving reads via `&self`.
///
/// Cheap to create (O(tables) + schema/view clone, independent of row
/// count) and cheap to share (wrap in an `Arc` and hand clones to any
/// number of threads — every field is immutable after construction).
#[derive(Clone, Debug)]
pub struct ReadSnapshot {
    schema: Arc<RelSchema>,
    views: Arc<HashMap<String, Query>>,
    state: RelState,
    version: u64,
}

impl ReadSnapshot {
    /// The schema the snapshot was taken under.
    pub fn schema(&self) -> &RelSchema {
        &self.schema
    }

    /// The frozen state.
    pub fn state(&self) -> &RelState {
        &self.state
    }

    /// The commit version this snapshot reflects (assigned by the caller
    /// that published it; 0 for ad-hoc snapshots).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Total rows in the frozen state.
    pub fn num_rows(&self) -> usize {
        self.state.num_rows()
    }

    /// Runs a query against the frozen state — same executor, same plans,
    /// same errors as [`Database::select`].
    pub fn select(&self, q: &Query) -> Result<Vec<Row>, EngineError> {
        execute_query(&self.schema, &self.state, q, &mut None)
    }

    /// Explains a query against the frozen state; see [`Database::explain`].
    pub fn explain(&self, q: &Query) -> Result<QueryExplain, EngineError> {
        explain_query(&self.schema, &self.state, q)
    }

    /// Runs a named view against the frozen state.
    pub fn select_view(&self, name: &str) -> Result<Vec<Row>, EngineError> {
        let q = self
            .views
            .get(name)
            .ok_or_else(|| EngineError::Unknown(format!("view {name}")))?;
        self.select(q)
    }

    /// Names of the views frozen into the snapshot.
    pub fn view_names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.views.keys().map(String::as_str).collect();
        v.sort();
        v
    }

    /// True if this snapshot still shares every table's storage with
    /// `db`'s live state — i.e. no mutation has happened since it was
    /// taken. Test hook proving snapshots are zero-copy.
    pub fn shares_storage_with(&self, db: &Database) -> bool {
        self.state.shares_storage_with(db.state())
    }
}

impl Database {
    /// Takes a read snapshot of the current committed state: O(tables)
    /// for the state plus one schema/view-map clone, independent of row
    /// count. The snapshot serves [`ReadSnapshot::select`] /
    /// [`ReadSnapshot::explain`] / [`ReadSnapshot::select_view`] through
    /// `&self` and never sees later mutations.
    ///
    /// `version` is an arbitrary caller-assigned label (the server stamps
    /// its commit sequence number); use [`Database::snapshot`] when it
    /// does not matter.
    pub fn snapshot_at(&self, version: u64) -> ReadSnapshot {
        ridl_obs::metrics().snapshots_taken.inc();
        ReadSnapshot {
            schema: Arc::new(self.schema.clone()),
            views: Arc::new(self.views.clone()),
            state: self.state.clone(),
            version,
        }
    }

    /// [`Database::snapshot_at`] with version 0.
    pub fn snapshot(&self) -> ReadSnapshot {
        self.snapshot_at(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ridl_brm::{DataType, Value};
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
        s.add_named(RelConstraintKind::PrimaryKey {
            table: paper,
            cols: vec![0],
        });
        Database::create(s).unwrap()
    }

    /// Satellite: a reader holding a snapshot observes a stable state
    /// while the writer commits — and the snapshot is zero-copy until the
    /// writer actually touches a table.
    #[test]
    fn snapshot_is_stable_across_writer_commits() {
        let mut db = sample_db();
        db.insert("Paper", vec![v("P1"), None]).unwrap();
        let snap = db.snapshot_at(7);
        assert_eq!(snap.version(), 7);
        assert!(snap.shares_storage_with(&db), "snapshot must be zero-copy");
        // The writer commits more rows; the snapshot stays frozen.
        db.insert("Paper", vec![v("P2"), None]).unwrap();
        db.insert("Paper", vec![v("P3"), None]).unwrap();
        assert_eq!(snap.num_rows(), 1);
        assert_eq!(db.state().num_rows(), 3);
        assert!(!snap.shares_storage_with(&db));
        let q = Query::from("Paper").select(&["Paper_Id"]);
        assert_eq!(snap.select(&q).unwrap(), vec![vec![v("P1")]]);
        assert_eq!(db.select(&q).unwrap().len(), 3);
    }

    /// Satellite: snapshot reads stay available (and stable) while a long
    /// write transaction is open — uncommitted changes are never visible.
    #[test]
    fn snapshot_reads_progress_during_open_transaction() {
        let mut db = sample_db();
        db.insert("Paper", vec![v("P1"), None]).unwrap();
        let snap = db.snapshot();
        db.begin();
        db.insert("Paper", vec![v("UNCOMMIT"), None]).unwrap();
        // Snapshot taken before the transaction: frozen pre-state.
        assert_eq!(snap.num_rows(), 1);
        // A fresh snapshot mid-transaction sees the in-progress state
        // (the *server* only publishes post-commit snapshots; the engine
        // hook itself is just a state copy), and keeps serving even if
        // the transaction later rolls back.
        let mid = db.snapshot();
        assert_eq!(mid.num_rows(), 2);
        db.rollback().unwrap();
        assert_eq!(mid.num_rows(), 2, "snapshot unaffected by rollback");
        assert_eq!(db.state().num_rows(), 1);
    }

    #[test]
    fn snapshot_serves_views_and_explain() {
        let mut db = sample_db();
        db.insert("Paper", vec![v("P1"), None]).unwrap();
        db.create_view("V_ALL", Query::from("Paper").select(&["Paper_Id"]));
        let snap = db.snapshot();
        assert_eq!(snap.view_names(), vec!["V_ALL"]);
        assert_eq!(snap.select_view("V_ALL").unwrap().len(), 1);
        assert!(snap.select_view("NOPE").is_err());
        let ex = snap.explain(&Query::from("Paper")).unwrap();
        assert_eq!(ex.rows_out, 1);
        assert_eq!(snap.schema().tables.len(), 1);
    }
}
