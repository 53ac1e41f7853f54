//! Relational database states.

use std::collections::BTreeSet;
use std::sync::Arc;

use ridl_brm::Value;

use crate::table::TableId;

/// A row: one optional value per column (NULL = `None`).
pub type Row = Vec<Option<Value>>;

/// A state of a relational schema: a set of rows per table.
///
/// Sets (not bags) — the paper's model-theoretic treatment works with
/// relations proper; `BTreeSet` keeps iteration deterministic.
///
/// Tables are held behind `Arc` with copy-on-write mutation
/// ([`Arc::make_mut`]): cloning a state is O(tables) regardless of row
/// count, so a clone serves as a cheap immutable **snapshot**. Mutating
/// either side after a clone copies only the touched table. This is what
/// lets server sessions read a frozen version while the writer advances.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct RelState {
    tables: Vec<Arc<BTreeSet<Row>>>,
}

impl RelState {
    /// An empty state for a schema with `num_tables` tables.
    pub fn with_tables(num_tables: usize) -> Self {
        Self {
            tables: (0..num_tables).map(|_| Arc::new(BTreeSet::new())).collect(),
        }
    }

    /// Builds a state from each table's rows, given in any order: every
    /// table is sorted once and its set bulk-built from the sorted run,
    /// instead of one random-order insert per row. Duplicate rows
    /// collapse to one, as with [`RelState::insert`]; the second value
    /// counts the duplicates dropped from each table.
    pub fn from_table_rows(tables: Vec<Vec<Row>>) -> (Self, Vec<usize>) {
        let mut dropped = Vec::with_capacity(tables.len());
        let tables = tables
            .into_iter()
            .map(|mut rows| {
                rows.sort_unstable();
                let before = rows.len();
                rows.dedup();
                dropped.push(before - rows.len());
                // Sorted and distinct: `BTreeSet` builds it in one linear pass.
                Arc::new(rows.into_iter().collect::<BTreeSet<Row>>())
            })
            .collect();
        (Self { tables }, dropped)
    }

    /// Inserts a row; returns false if it was already present.
    pub fn insert(&mut self, table: TableId, row: Row) -> bool {
        Arc::make_mut(&mut self.tables[table.index()]).insert(row)
    }

    /// Removes a row; returns false if absent.
    pub fn remove(&mut self, table: TableId, row: &Row) -> bool {
        Arc::make_mut(&mut self.tables[table.index()]).remove(row)
    }

    /// The rows of a table.
    pub fn rows(&self, table: TableId) -> &BTreeSet<Row> {
        &self.tables[table.index()]
    }

    /// Mutable rows of a table (copy-on-write: unshares the table first).
    pub fn rows_mut(&mut self, table: TableId) -> &mut BTreeSet<Row> {
        Arc::make_mut(&mut self.tables[table.index()])
    }

    /// True if `other` shares the underlying storage of every table with
    /// `self` — i.e. the two states are clones with no mutation on either
    /// side since the clone. Used by snapshot tests to prove reads are
    /// zero-copy.
    pub fn shares_storage_with(&self, other: &RelState) -> bool {
        self.tables.len() == other.tables.len()
            && self
                .tables
                .iter()
                .zip(&other.tables)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// Number of tables the state covers.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Total number of rows.
    pub fn num_rows(&self) -> usize {
        self.tables.iter().map(|t| t.len()).sum()
    }

    /// Projects a table's rows onto column ordinals, keeping rows where all
    /// `not_null` columns are non-null. This is the evaluation of a
    /// [`crate::ColumnSelection`] and of forwards-map SELECTs.
    pub fn select(&self, table: TableId, cols: &[u32], not_null: &[u32]) -> BTreeSet<Row> {
        self.select_where(table, cols, not_null, &[])
    }

    /// Like [`RelState::select`], additionally keeping only rows where each
    /// `(col, value)` filter matches exactly.
    pub fn select_where(
        &self,
        table: TableId,
        cols: &[u32],
        not_null: &[u32],
        eq: &[(u32, Value)],
    ) -> BTreeSet<Row> {
        self.tables[table.index()]
            .iter()
            .filter(|row| not_null.iter().all(|c| row[*c as usize].is_some()))
            .filter(|row| eq.iter().all(|(c, v)| row[*c as usize].as_ref() == Some(v)))
            .map(|row| cols.iter().map(|c| row[*c as usize].clone()).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Option<Value> {
        Some(Value::str(s))
    }

    #[test]
    fn insert_remove_select() {
        let mut st = RelState::with_tables(1);
        let t = TableId(0);
        assert!(st.insert(t, vec![v("a"), v("x")]));
        assert!(!st.insert(t, vec![v("a"), v("x")]));
        assert!(st.insert(t, vec![v("b"), None]));
        assert_eq!(st.num_rows(), 2);

        let all = st.select(t, &[0], &[]);
        assert_eq!(all.len(), 2);
        let filtered = st.select(t, &[0], &[1]);
        assert_eq!(filtered.len(), 1);
        assert!(filtered.contains(&vec![v("a")]));

        assert!(st.remove(t, &vec![v("b"), None]));
        assert_eq!(st.num_rows(), 1);
    }

    #[test]
    fn from_table_rows_sorts_and_drops_duplicates() {
        let rows = vec![
            vec![vec![v("c")], vec![v("a")], vec![v("c")], vec![v("b")]],
            vec![],
        ];
        let (st, dropped) = RelState::from_table_rows(rows);
        assert_eq!(dropped, vec![1, 0]);
        let mut want = RelState::with_tables(2);
        for x in ["b", "c", "a"] {
            want.insert(TableId(0), vec![v(x)]);
        }
        assert_eq!(st, want);
    }

    #[test]
    fn clone_is_copy_on_write() {
        let mut st = RelState::with_tables(2);
        st.insert(TableId(0), vec![v("a")]);
        let snap = st.clone();
        assert!(snap.shares_storage_with(&st));
        // Mutating the original unshares only the touched table; the
        // snapshot keeps observing the frozen version.
        st.insert(TableId(0), vec![v("b")]);
        assert!(!snap.shares_storage_with(&st));
        assert_eq!(snap.rows(TableId(0)).len(), 1);
        assert_eq!(st.rows(TableId(0)).len(), 2);
        // Ineffective mutation through make_mut still unshares, but rows
        // stay equal.
        let snap2 = st.clone();
        assert!(!st.insert(TableId(0), vec![v("b")]));
        assert_eq!(snap2, st);
    }

    #[test]
    fn select_projects_in_order() {
        let mut st = RelState::with_tables(1);
        st.insert(TableId(0), vec![v("k"), v("a"), v("b")]);
        let proj = st.select(TableId(0), &[2, 0], &[]);
        assert!(proj.contains(&vec![v("b"), v("k")]));
    }
}
