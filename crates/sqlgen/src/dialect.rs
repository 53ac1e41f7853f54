//! Target-DBMS dialects.

use ridl_brm::DataType;
use ridl_relational::RelConstraintKind;

/// The supported target DBMSs (§4.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DialectKind {
    /// The "neutral" SQL2 (draft standard) definition.
    Sql2,
    /// ORACLE V5: no declarative foreign keys; null values tolerated even
    /// in primary-key attributes (§4.2.1).
    Oracle,
    /// INGRES (QUEL-era SQL front end): no declarative keys at all — keys
    /// become unique indexes, emitted as `CREATE UNIQUE INDEX`.
    Ingres,
    /// DB2: declarative PK/FK, 18-character identifier limit.
    Db2,
}

/// A dialect: everything the renderer needs to know about a target.
#[derive(Clone, Debug)]
pub struct Dialect {
    /// Which target this is.
    pub kind: DialectKind,
    /// Display name used in the generated header.
    pub name: &'static str,
    /// Maximum identifier length (identifiers are folded and uniquified
    /// beyond it).
    pub max_identifier: usize,
    /// Whether `CREATE DOMAIN` exists (SQL2 only).
    pub supports_domains: bool,
    /// Whether declarative PRIMARY KEY / UNIQUE clauses exist.
    pub supports_key_clauses: bool,
    /// Whether declarative FOREIGN KEY / REFERENCES clauses exist.
    pub supports_foreign_keys: bool,
    /// Whether CHECK clauses exist.
    pub supports_check: bool,
    /// Whether a BOOLEAN type exists (otherwise CHAR(1) with a check).
    pub supports_boolean: bool,
}

impl Dialect {
    /// The dialect description for a target kind.
    pub fn of(kind: DialectKind) -> Self {
        match kind {
            DialectKind::Sql2 => Dialect {
                kind,
                name: "SQL2 (draft standard)",
                max_identifier: 128,
                supports_domains: true,
                supports_key_clauses: true,
                supports_foreign_keys: true,
                supports_check: true,
                supports_boolean: false,
            },
            DialectKind::Oracle => Dialect {
                kind,
                name: "ORACLE",
                max_identifier: 30,
                supports_domains: false,
                supports_key_clauses: true,
                supports_foreign_keys: false,
                supports_check: false,
                supports_boolean: false,
            },
            DialectKind::Ingres => Dialect {
                kind,
                name: "INGRES",
                max_identifier: 24,
                supports_domains: false,
                supports_key_clauses: false,
                supports_foreign_keys: false,
                supports_check: false,
                supports_boolean: false,
            },
            DialectKind::Db2 => Dialect {
                kind,
                name: "DB2",
                max_identifier: 18,
                supports_domains: false,
                supports_key_clauses: true,
                supports_foreign_keys: true,
                supports_check: false,
                supports_boolean: false,
            },
        }
    }

    /// All four dialects.
    pub fn all() -> [Dialect; 4] {
        [
            Dialect::of(DialectKind::Sql2),
            Dialect::of(DialectKind::Oracle),
            Dialect::of(DialectKind::Ingres),
            Dialect::of(DialectKind::Db2),
        ]
    }

    /// Renders a data type in the dialect's vocabulary.
    pub fn render_type(&self, dt: DataType) -> String {
        match (self.kind, dt) {
            (_, DataType::Char(n)) => format!("CHAR({n})"),
            (DialectKind::Oracle, DataType::VarChar(n)) => format!("VARCHAR2({n})"),
            (_, DataType::VarChar(n)) => format!("VARCHAR({n})"),
            (DialectKind::Oracle, DataType::Numeric(p, 0)) => format!("NUMBER({p})"),
            (DialectKind::Oracle, DataType::Numeric(p, s)) => format!("NUMBER({p},{s})"),
            (DialectKind::Db2, DataType::Numeric(p, 0)) => format!("DECIMAL({p})"),
            (DialectKind::Db2, DataType::Numeric(p, s)) => format!("DECIMAL({p},{s})"),
            (_, DataType::Numeric(p, 0)) => format!("NUMERIC({p})"),
            (_, DataType::Numeric(p, s)) => format!("NUMERIC({p},{s})"),
            (_, DataType::Integer) => "INTEGER".into(),
            (DialectKind::Oracle, DataType::Real) => "NUMBER".into(),
            (_, DataType::Real) => "FLOAT".into(),
            (_, DataType::Date) => "DATE".into(),
            (_, DataType::Boolean) => {
                if self.supports_boolean {
                    "BOOLEAN".into()
                } else {
                    "CHAR(1)".into()
                }
            }
            (_, DataType::Surrogate) => "/* SURROGATE */ CHAR(16)".into(),
        }
    }

    /// Whether this dialect enforces the constraint natively; otherwise it
    /// goes out as commented pseudo-SQL.
    pub fn enforces(&self, kind: &RelConstraintKind) -> bool {
        match kind {
            RelConstraintKind::PrimaryKey { .. } | RelConstraintKind::CandidateKey { .. } => {
                // INGRES keys become unique indexes (handled separately),
                // which still counts as native enforcement.
                true
            }
            RelConstraintKind::ForeignKey { .. } => self.supports_foreign_keys,
            RelConstraintKind::CheckValue { .. }
            | RelConstraintKind::DependentExistence { .. }
            | RelConstraintKind::EqualExistence { .. }
            | RelConstraintKind::CoverExistence { .. } => self.supports_check,
            _ => false,
        }
    }

    /// Folds an identifier to the dialect's length limit, keeping it
    /// readable; the renderer uniquifies collisions. Lengths are counted
    /// in characters, so non-ASCII names fold on character boundaries.
    pub fn fold_identifier(&self, ident: &str) -> String {
        let len = ident.chars().count();
        if len <= self.max_identifier {
            return ident.to_owned();
        }
        // Keep head and tail, which carry the discriminating parts of
        // RIDL-M's generated names.
        let keep = self.max_identifier;
        let head = keep * 2 / 3;
        let tail = keep - head - 1;
        let head: String = ident.chars().take(head).collect();
        let tail: String = ident.chars().skip(len - tail).collect();
        format!("{head}_{tail}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_vocabulary_per_dialect() {
        let sql2 = Dialect::of(DialectKind::Sql2);
        let ora = Dialect::of(DialectKind::Oracle);
        let db2 = Dialect::of(DialectKind::Db2);
        assert_eq!(sql2.render_type(DataType::VarChar(30)), "VARCHAR(30)");
        assert_eq!(ora.render_type(DataType::VarChar(30)), "VARCHAR2(30)");
        assert_eq!(ora.render_type(DataType::Numeric(3, 0)), "NUMBER(3)");
        assert_eq!(db2.render_type(DataType::Numeric(7, 2)), "DECIMAL(7,2)");
        assert_eq!(sql2.render_type(DataType::Boolean), "CHAR(1)");
    }

    #[test]
    fn enforcement_matrix() {
        let fk = RelConstraintKind::ForeignKey {
            table: ridl_relational::TableId(0),
            cols: vec![0],
            ref_table: ridl_relational::TableId(1),
            ref_cols: vec![0],
        };
        assert!(Dialect::of(DialectKind::Sql2).enforces(&fk));
        assert!(!Dialect::of(DialectKind::Oracle).enforces(&fk));
        assert!(Dialect::of(DialectKind::Db2).enforces(&fk));
        let eq = RelConstraintKind::EqualityView {
            left: ridl_relational::ColumnSelection::of(ridl_relational::TableId(0), vec![0]),
            right: ridl_relational::ColumnSelection::of(ridl_relational::TableId(1), vec![0]),
        };
        for d in Dialect::all() {
            assert!(!d.enforces(&eq), "{}", d.name);
        }
    }

    #[test]
    fn identifier_folding() {
        let db2 = Dialect::of(DialectKind::Db2);
        let long = "A_Very_Long_Generated_Identifier_Name";
        let folded = db2.fold_identifier(long);
        assert!(folded.len() <= 18, "{folded}");
        assert_eq!(db2.fold_identifier("Short"), "Short");
    }

    #[test]
    fn non_ascii_identifiers_fold_on_char_boundaries() {
        let db2 = Dialect::of(DialectKind::Db2);
        // Twelve two-byte characters: 24 bytes, but within 18 characters.
        assert_eq!(db2.fold_identifier("ÄÖÜÄÖÜÄÖÜÄÖÜ"), "ÄÖÜÄÖÜÄÖÜÄÖÜ");
        let folded = db2.fold_identifier("Abcdefghijkü_Übersicht_Straße");
        assert_eq!(folded, "Abcdefghijkü_traße");
        assert_eq!(folded.chars().count(), 18);
        for d in Dialect::all() {
            let long = "Ä".repeat(3 * d.max_identifier);
            assert_eq!(d.fold_identifier(&long).chars().count(), d.max_identifier);
        }
    }
}
