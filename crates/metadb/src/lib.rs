//! # ridl-metadb — RIDL\*'s meta-database
//!
//! "The binary conceptual schemas developed with RIDL-G are stored in
//! RIDL\*'s own meta-database. It may contain several independent conceptual
//! schemas. Its implementation is a relational (ORACLE) database, and its
//! design is partly 'open', meaning that a comprehensive set of views is
//! available to the RIDL\* user to allow him to prepare his own style of
//! data-dictionary and query meta-information" (§3.1).
//!
//! The meta-database is itself a relational database running on
//! `ridl-engine` — the schema-of-schemas is enforced by the same constraint
//! machinery the mapper generates for user schemas. [`MetaDb::store`]
//! persists a [`Schema`]; [`MetaDb::load`] reconstructs it; the `V_*` views
//! expose the dictionary.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod serde;

use std::fmt;

use ridl_brm::{FactType, ObjectType, ObjectTypeKind, Role, Schema, Sublink, Value};
use ridl_engine::{BatchOp, Database, EngineError, Pred, Query};
use ridl_relational::{Column, RelConstraintKind, RelSchema, Table};

/// Errors raised by the meta-database.
#[derive(Debug)]
pub enum MetaDbError {
    /// The underlying engine refused an operation.
    Engine(EngineError),
    /// A stored schema is malformed and cannot be reconstructed.
    Corrupt(String),
    /// No schema with the given name exists.
    NotFound(String),
    /// A schema with this name is already stored.
    Duplicate(String),
}

impl fmt::Display for MetaDbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetaDbError::Engine(e) => write!(f, "meta-database engine error: {e}"),
            MetaDbError::Corrupt(m) => write!(f, "corrupt meta-data: {m}"),
            MetaDbError::NotFound(n) => write!(f, "no stored schema named {n}"),
            MetaDbError::Duplicate(n) => write!(f, "schema {n} already stored"),
        }
    }
}

impl std::error::Error for MetaDbError {}

impl From<EngineError> for MetaDbError {
    fn from(e: EngineError) -> Self {
        MetaDbError::Engine(e)
    }
}

/// The schema-of-schemas: the relational design of the meta-database.
pub fn meta_schema() -> RelSchema {
    let mut s = RelSchema::new("ridl_meta");
    let d_name = s.domain("D_Name", ridl_brm::DataType::VarChar(64));
    let d_id = s.domain("D_Id", ridl_brm::DataType::Integer);
    let d_kind = s.domain("D_Kind", ridl_brm::DataType::Char(1));
    let d_type = s.domain("D_Type", ridl_brm::DataType::VarChar(24));
    let d_spec = s.domain("D_Spec", ridl_brm::DataType::VarChar(255));

    let schema_t = s.add_table(Table::new(
        "SCHEMA_",
        vec![Column::not_null("Name", d_name)],
    ));
    s.add_named(RelConstraintKind::PrimaryKey {
        table: schema_t,
        cols: vec![0],
    });

    let ot = s.add_table(Table::new(
        "OBJECT_TYPE",
        vec![
            Column::not_null("Schema_Name", d_name),
            Column::not_null("Ot_Id", d_id),
            Column::not_null("Name", d_name),
            Column::not_null("Kind", d_kind),
            Column::nullable("Data_Type", d_type),
        ],
    ));
    s.add_named(RelConstraintKind::PrimaryKey {
        table: ot,
        cols: vec![0, 1],
    });
    s.add_named(RelConstraintKind::ForeignKey {
        table: ot,
        cols: vec![0],
        ref_table: schema_t,
        ref_cols: vec![0],
    });
    // Lexical kinds carry a data type; non-lexical kinds do not.
    s.add_named(RelConstraintKind::CheckValue {
        table: ot,
        col: 3,
        values: vec![Value::str("L"), Value::str("N"), Value::str("H")],
    });

    let ft = s.add_table(Table::new(
        "FACT_TYPE",
        vec![
            Column::not_null("Schema_Name", d_name),
            Column::not_null("Ft_Id", d_id),
            Column::not_null("Name", d_name),
            Column::not_null("L_Role", d_name),
            Column::not_null("L_Player", d_id),
            Column::not_null("R_Role", d_name),
            Column::not_null("R_Player", d_id),
        ],
    ));
    s.add_named(RelConstraintKind::PrimaryKey {
        table: ft,
        cols: vec![0, 1],
    });
    s.add_named(RelConstraintKind::ForeignKey {
        table: ft,
        cols: vec![0],
        ref_table: schema_t,
        ref_cols: vec![0],
    });

    let sl = s.add_table(Table::new(
        "SUBLINK",
        vec![
            Column::not_null("Schema_Name", d_name),
            Column::not_null("Sl_Id", d_id),
            Column::not_null("Sub", d_id),
            Column::not_null("Sup", d_id),
        ],
    ));
    s.add_named(RelConstraintKind::PrimaryKey {
        table: sl,
        cols: vec![0, 1],
    });

    let ct = s.add_table(Table::new(
        "CONSTRAINT_",
        vec![
            Column::not_null("Schema_Name", d_name),
            Column::not_null("C_Id", d_id),
            Column::nullable("Name", d_name),
            Column::not_null("Spec", d_spec),
        ],
    ));
    s.add_named(RelConstraintKind::PrimaryKey {
        table: ct,
        cols: vec![0, 1],
    });
    s
}

/// The meta-database: several independent conceptual schemas in one
/// relational store, with the "open" dictionary views installed.
pub struct MetaDb {
    db: Database,
}

impl Default for MetaDb {
    fn default() -> Self {
        Self::new()
    }
}

impl MetaDb {
    /// Opens an empty meta-database with the standard views.
    pub fn new() -> Self {
        let mut db = Database::create(meta_schema()).expect("meta schema is consistent");
        db.create_view("V_SCHEMAS", Query::from("SCHEMA_").select(&["Name"]));
        db.create_view(
            "V_OBJECT_TYPES",
            Query::from("OBJECT_TYPE").select(&["Schema_Name", "Name", "Kind", "Data_Type"]),
        );
        db.create_view(
            "V_LEXICAL_TYPES",
            Query::from("OBJECT_TYPE")
                .select(&["Schema_Name", "Name", "Data_Type"])
                .filter(Pred::Eq("Kind".into(), Value::str("L"))),
        );
        db.create_view(
            "V_FACT_TYPES",
            Query::from("FACT_TYPE").select(&["Schema_Name", "Name", "L_Role", "R_Role"]),
        );
        db.create_view(
            "V_SUBLINKS",
            Query::from("SUBLINK").select(&["Schema_Name", "Sub", "Sup"]),
        );
        db.create_view(
            "V_CONSTRAINTS",
            Query::from("CONSTRAINT_").select(&["Schema_Name", "Spec"]),
        );
        Self { db }
    }

    /// Access to the underlying engine (the "open" design: users may query
    /// the dictionary directly and add their own views).
    pub fn database(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Stores a schema under its name; fails if the name is taken.
    pub fn store(&mut self, schema: &Schema) -> Result<(), MetaDbError> {
        if self.schema_names().contains(&schema.name) {
            return Err(MetaDbError::Duplicate(schema.name.clone()));
        }
        self.db.apply_batch(schema_rows(schema))?;
        Ok(())
    }

    /// Names of the stored schemas.
    pub fn schema_names(&self) -> Vec<String> {
        let rows = self
            .db
            .select(&Query::from("SCHEMA_").select(&["Name"]))
            .expect("SCHEMA_ exists");
        let mut names: Vec<String> = rows
            .into_iter()
            .filter_map(|r| match r.into_iter().next().flatten() {
                Some(Value::Str(s)) => Some(s),
                _ => None,
            })
            .collect();
        names.sort();
        names
    }

    /// Reconstructs a stored schema.
    pub fn load(&self, name: &str) -> Result<Schema, MetaDbError> {
        if !self.schema_names().iter().any(|n| n == name) {
            return Err(MetaDbError::NotFound(name.to_owned()));
        }
        let by_schema = |table: &str,
                         id_col: &str|
         -> Result<Vec<Vec<Option<Value>>>, MetaDbError> {
            let mut rows = self
                .db
                .select(
                    &Query::from(table).filter(Pred::Eq("Schema_Name".into(), Value::str(name))),
                )
                .map_err(MetaDbError::from)?;
            // Order by the numeric id column (arena order).
            let idx = match id_col {
                "Ot_Id" | "Ft_Id" | "Sl_Id" | "C_Id" => 1usize,
                _ => 1,
            };
            rows.sort_by_key(|r| match &r[idx] {
                Some(Value::Int(i)) => *i,
                _ => i64::MAX,
            });
            Ok(rows)
        };

        let mut schema = Schema::new(name);
        for row in by_schema("OBJECT_TYPE", "Ot_Id")? {
            let nm = as_str(&row[2])?;
            let kind = match as_str(&row[3])?.as_str() {
                "L" => ObjectTypeKind::Lot(serde::parse_data_type(&as_str(&row[4])?)?),
                "H" => ObjectTypeKind::LotNolot(serde::parse_data_type(&as_str(&row[4])?)?),
                "N" => ObjectTypeKind::Nolot,
                k => return Err(MetaDbError::Corrupt(format!("object kind {k}"))),
            };
            schema.push_object_type(ObjectType::new(nm, kind));
        }
        for row in by_schema("FACT_TYPE", "Ft_Id")? {
            schema.push_fact_type(FactType::new(
                as_str(&row[2])?,
                Role::new(
                    as_str(&row[3])?,
                    ridl_brm::ObjectTypeId::from_raw(as_int(&row[4])? as u32),
                ),
                Role::new(
                    as_str(&row[5])?,
                    ridl_brm::ObjectTypeId::from_raw(as_int(&row[6])? as u32),
                ),
            ));
        }
        for row in by_schema("SUBLINK", "Sl_Id")? {
            schema.push_sublink(Sublink::new(
                ridl_brm::ObjectTypeId::from_raw(as_int(&row[2])? as u32),
                ridl_brm::ObjectTypeId::from_raw(as_int(&row[3])? as u32),
            ));
        }
        for row in by_schema("CONSTRAINT_", "C_Id")? {
            let kind = serde::decode_constraint(&as_str(&row[3])?)?;
            let name = match &row[2] {
                Some(Value::Str(s)) => Some(s.clone()),
                _ => None,
            };
            schema.push_constraint(ridl_brm::Constraint { name, kind });
        }
        let errs = schema.check_ids();
        if !errs.is_empty() {
            return Err(MetaDbError::Corrupt(format!("{errs:?}")));
        }
        Ok(schema)
    }

    /// Runs a dictionary view.
    pub fn view(&self, name: &str) -> Result<Vec<Vec<Option<Value>>>, MetaDbError> {
        Ok(self.db.select_view(name)?)
    }
}

/// The dictionary rows describing `schema`, as one batch: the engine
/// checks the group once, as a whole.
fn schema_rows(schema: &Schema) -> Vec<BatchOp> {
    let s = || Some(Value::str(schema.name.clone()));
    let int = |n: u32| Some(Value::Int(i64::from(n)));
    let mut ops = vec![BatchOp::insert("SCHEMA_", vec![s()])];
    for (oid, ot) in schema.object_types() {
        let (kind, dt) = match ot.kind {
            ObjectTypeKind::Lot(dt) => ("L", Some(dt)),
            ObjectTypeKind::Nolot => ("N", None),
            ObjectTypeKind::LotNolot(dt) => ("H", Some(dt)),
        };
        ops.push(BatchOp::insert(
            "OBJECT_TYPE",
            vec![
                s(),
                int(oid.raw()),
                Some(Value::str(ot.name.clone())),
                Some(Value::str(kind)),
                dt.map(|d| Value::str(d.to_string())),
            ],
        ));
    }
    for (fid, ft) in schema.fact_types() {
        ops.push(BatchOp::insert(
            "FACT_TYPE",
            vec![
                s(),
                int(fid.raw()),
                Some(Value::str(ft.name.clone())),
                Some(Value::str(ft.roles[0].name.clone())),
                int(ft.roles[0].player.raw()),
                Some(Value::str(ft.roles[1].name.clone())),
                int(ft.roles[1].player.raw()),
            ],
        ));
    }
    for (sid, sl) in schema.sublinks() {
        ops.push(BatchOp::insert(
            "SUBLINK",
            vec![s(), int(sid.raw()), int(sl.sub.raw()), int(sl.sup.raw())],
        ));
    }
    for (cid, c) in schema.constraints() {
        ops.push(BatchOp::insert(
            "CONSTRAINT_",
            vec![
                s(),
                int(cid.raw()),
                c.name.clone().map(Value::Str),
                Some(Value::str(serde::encode_constraint(&c.kind))),
            ],
        ));
    }
    ops
}

fn as_str(v: &Option<Value>) -> Result<String, MetaDbError> {
    match v {
        Some(Value::Str(s)) => Ok(s.clone()),
        other => Err(MetaDbError::Corrupt(format!(
            "expected string, got {other:?}"
        ))),
    }
}

fn as_int(v: &Option<Value>) -> Result<i64, MetaDbError> {
    match v {
        Some(Value::Int(i)) => Ok(*i),
        other => Err(MetaDbError::Corrupt(format!("expected int, got {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ridl_brm::builder::{identify, SchemaBuilder};
    use ridl_brm::{DataType, Side};

    fn sample() -> Schema {
        let mut b = SchemaBuilder::new("conf");
        b.nolot("Paper").unwrap();
        b.nolot("Invited").unwrap();
        b.sublink("Invited", "Paper").unwrap();
        identify(&mut b, "Paper", "Paper_Id", DataType::Char(6)).unwrap();
        b.lot_nolot("Date", DataType::Date).unwrap();
        b.fact("submitted", ("at", "Paper"), ("of", "Date"))
            .unwrap();
        b.unique("submitted", Side::Left).unwrap();
        b.cardinality("submitted", Side::Right, 0, Some(10))
            .unwrap();
        b.value_constraint("Date", vec![]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn store_load_round_trip() {
        let mut m = MetaDb::new();
        let s = sample();
        m.store(&s).unwrap();
        let loaded = m.load("conf").unwrap();
        assert_eq!(loaded.num_object_types(), s.num_object_types());
        assert_eq!(loaded.num_fact_types(), s.num_fact_types());
        assert_eq!(loaded.num_sublinks(), s.num_sublinks());
        assert_eq!(loaded.num_constraints(), s.num_constraints());
        for (oid, ot) in s.object_types() {
            assert_eq!(loaded.object_type(oid), ot);
        }
        for (fid, ft) in s.fact_types() {
            assert_eq!(loaded.fact_type(fid), ft);
        }
        for (cid, c) in s.constraints() {
            assert_eq!(&loaded.constraint(cid).kind, &c.kind, "{cid}");
        }
    }

    #[test]
    fn several_independent_schemas() {
        let mut m = MetaDb::new();
        m.store(&sample()).unwrap();
        let mut b = SchemaBuilder::new("other");
        b.nolot("X").unwrap();
        m.store(&b.finish().unwrap()).unwrap();
        assert_eq!(m.schema_names(), vec!["conf", "other"]);
        assert_eq!(m.load("other").unwrap().num_object_types(), 1);
        assert!(matches!(m.load("missing"), Err(MetaDbError::NotFound(_))));
    }

    #[test]
    fn duplicate_schema_name_rejected_atomically() {
        let mut m = MetaDb::new();
        m.store(&sample()).unwrap();
        let err = m.store(&sample());
        assert!(err.is_err());
        // The failed store left nothing behind.
        let ots = m.view("V_OBJECT_TYPES").unwrap();
        assert_eq!(ots.len(), sample().num_object_types());
    }

    #[test]
    fn dictionary_views_answer() {
        let mut m = MetaDb::new();
        m.store(&sample()).unwrap();
        assert_eq!(m.view("V_SCHEMAS").unwrap().len(), 1);
        let lex = m.view("V_LEXICAL_TYPES").unwrap();
        assert_eq!(lex.len(), 1); // Paper_Id (Date is 'H', not 'L')
        assert!(m.view("V_FACT_TYPES").unwrap().len() >= 2);
        // The user may add private views through the open design.
        m.database().create_view(
            "V_MINE",
            Query::from("OBJECT_TYPE")
                .select(&["Name"])
                .filter(Pred::Eq("Kind".into(), Value::str("N"))),
        );
        assert_eq!(m.view("V_MINE").unwrap().len(), 2);
    }
}
